//! The cache-enabled SLI Home.
//!
//! "Our caching framework substitutes Single Logical Image (SLI) Home and
//! bean implementations for the standard JDBC Home and bean implementations
//! used in the non-cache-enabled application" (§2.1). [`SliHome`]
//! implements the same [`Home`] interface as
//! [`BmpHome`](sli_component::BmpHome), so swapping one for the other is
//! invisible to business logic — the transparency requirement of §1.3.

use std::sync::Arc;

use sli_component::{EjbError, EjbRef, EjbResult, EntityMeta, Home, Memento, TxContext};
use sli_datastore::{Schema, Value};

use crate::source::StateSource;
use crate::store::CommonStore;

/// A cache-enabled Home for one entity type.
///
/// Cache population follows §2.2 exactly:
///
/// 1. **Direct access** (`find_by_primary_key`, field faults): check the
///    per-transaction store, then the common store, and only then fetch the
///    before-image from the persistent tier (caching it for subsequent
///    use);
/// 2. **Custom finders**: run the query against the persistent store (only
///    it has the entire potential result set), merge the results into the
///    cache *without overlaying* beans the transaction already touched,
///    then run the finder locally against the transient state — giving
///    repeatable-read (not serializable) isolation;
/// 3. **Explicit create**: purely local until commit, when key-absence is
///    verified.
pub struct SliHome {
    meta: EntityMeta,
    schema: Schema,
    store: Arc<CommonStore>,
    source: Arc<dyn StateSource>,
}

impl std::fmt::Debug for SliHome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SliHome")
            .field("bean", &self.meta.bean())
            .finish_non_exhaustive()
    }
}

impl SliHome {
    /// Creates a cache-enabled home over the shared `store` and fault
    /// `source`.
    pub fn new(meta: EntityMeta, store: Arc<CommonStore>, source: Arc<dyn StateSource>) -> SliHome {
        let schema = meta.schema();
        SliHome {
            meta,
            schema,
            store,
            source,
        }
    }

    /// The shared common store (for stats and tests).
    pub fn common_store(&self) -> &Arc<CommonStore> {
        &self.store
    }

    /// The bean's name as the descriptor holds it, shared by every
    /// enlisted instance, reference and after-image.
    fn name(&self) -> Arc<str> {
        Arc::clone(self.meta.image_names().bean())
    }

    /// Direct-access population: per-transaction store → common store →
    /// persistent fetch.
    fn ensure_loaded(&self, ctx: &mut TxContext, key: &Value) -> EjbResult<()> {
        let bean = self.meta.bean();
        if let Some(inst) = ctx.instance(bean, key) {
            if inst.removed {
                return Err(EjbError::not_found(bean, key));
            }
            if inst.loaded {
                return Ok(());
            }
        }
        if let Some(image) = self.store.get(bean, key) {
            ctx.enlist(self.name(), key).load_from(&image);
            return Ok(());
        }
        match self.source.fetch(bean, key)? {
            Some(image) => {
                self.store.put(image.clone());
                ctx.enlist(self.name(), key).load_from(&image);
                Ok(())
            }
            None => Err(EjbError::not_found(bean, key)),
        }
    }
}

impl Home for SliHome {
    fn meta(&self) -> &EntityMeta {
        &self.meta
    }

    fn create(&self, ctx: &mut TxContext, state: Memento) -> EjbResult<EjbRef> {
        let bean = self.meta.bean();
        let key = state.primary_key().clone();
        for (field, _) in state.fields() {
            self.meta.check_field(field)?;
        }
        // The after-image is filed under this home's bean name, whatever
        // the caller labelled `state` with.
        let state = if state.bean() == bean {
            state
        } else {
            let fields = state.fields().iter();
            fields.fold(
                Memento::new(self.name(), key.clone()),
                |m, (name, value)| m.with_field(name.clone(), value.clone()),
            )
        };
        // Recreating a bean this transaction removed nets out to an update.
        if let Some(inst) = ctx.instance_mut(bean, &key) {
            if inst.removed && !inst.created {
                inst.removed = false;
                inst.dirty = true;
                inst.current = Some(state);
                return Ok(EjbRef::new(self.name(), key));
            }
            if !inst.removed {
                return Err(EjbError::DuplicateKey {
                    bean: bean.to_owned(),
                    key: key.to_string(),
                });
            }
        }
        let inst = ctx.enlist(self.name(), &key);
        inst.current = Some(state);
        inst.created = true;
        inst.loaded = true;
        inst.exists = true;
        inst.removed = false;
        Ok(EjbRef::new(self.name(), key))
    }

    fn find_by_primary_key(&self, ctx: &mut TxContext, key: &Value) -> EjbRefResult {
        self.ensure_loaded(ctx, key)?;
        Ok(EjbRef::new(self.name(), key.clone()))
    }

    fn find(&self, ctx: &mut TxContext, finder: &str, params: &[Value]) -> EjbResult<Vec<EjbRef>> {
        let bean = self.meta.bean();
        let bound = self.meta.bind_finder(finder, params)?;
        // 1. The persistent store is the only tier guaranteed to hold the
        //    entire potential result set.
        let persistent = self.source.query(bean, &bound)?;
        // 2. Merge: cache the images, but never overlay state the
        //    transaction has already observed or modified.
        for image in persistent {
            self.store.put(image.clone());
            let already_touched = ctx.instance(bean, image.primary_key()).is_some();
            if !already_touched {
                ctx.enlist(self.name(), image.primary_key())
                    .load_from(&image);
            }
        }
        // 3. Run the finder against the transient state (created beans and
        //    in-transaction updates are visible; removed beans are not),
        //    each instance laid out in the one row buffer.
        let mut matches = Vec::new();
        let mut row = Vec::with_capacity(self.schema.columns().len());
        for (b, key, st) in ctx.iter() {
            if **b != *bean || st.removed || !(st.loaded || st.created) {
                continue;
            }
            st.to_memento(bean, key).fill_row(&self.schema, &mut row);
            if bound.matches(&self.schema, &row, &[])? {
                matches.push(EjbRef::new(Arc::clone(b), key.clone()));
            }
        }
        matches.sort_by(|a, b| a.primary_key().cmp(b.primary_key()));
        Ok(matches)
    }

    fn remove(&self, ctx: &mut TxContext, key: &Value) -> EjbResult<()> {
        // Load first: the remove needs a before-image so commit can verify
        // the current image still exists.
        self.ensure_loaded(ctx, key)?;
        let inst = ctx
            .instance_mut(self.meta.bean(), key)
            .expect("ensure_loaded enlists");
        inst.removed = true;
        inst.dirty = false;
        Ok(())
    }

    fn get_field(&self, ctx: &mut TxContext, key: &Value, field: &str) -> EjbResult<Value> {
        self.meta.check_field(field)?;
        if field == self.meta.key_field() {
            return Ok(key.clone());
        }
        self.ensure_loaded(ctx, key)?;
        let inst = ctx
            .instance(self.meta.bean(), key)
            .expect("ensure_loaded enlists");
        Ok(inst.field(field))
    }

    fn set_field(
        &self,
        ctx: &mut TxContext,
        key: &Value,
        field: &str,
        value: Value,
    ) -> EjbResult<()> {
        self.meta.check_writable(field)?;
        self.ensure_loaded(ctx, key)?;
        let inst = ctx
            .instance_mut(self.meta.bean(), key)
            .expect("ensure_loaded enlists");
        inst.set_field(self.meta.bean(), key, field, value);
        Ok(())
    }

    fn flush(&self, _ctx: &mut TxContext) -> EjbResult<()> {
        // State ships at commit time via the SLI resource manager.
        Ok(())
    }
}

type EjbRefResult = EjbResult<EjbRef>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetaRegistry;
    use crate::source::DirectSource;
    use sli_datastore::{CmpOp, ColumnType, Database, Predicate, SqlConnection};

    fn holding_meta() -> EntityMeta {
        EntityMeta::new("Holding", "holding", "id", ColumnType::Int)
            .field("owner", ColumnType::Varchar)
            .field("qty", ColumnType::Double)
            .index("owner")
            .finder(
                "findByOwner",
                Predicate::CmpParam {
                    column: "owner".into(),
                    op: CmpOp::Eq,
                    index: 0,
                },
            )
    }

    fn setup() -> (Arc<Database>, SliHome) {
        let db = Database::new();
        let registry = MetaRegistry::new().with(holding_meta());
        registry.create_schema(&db).unwrap();
        let mut conn = db.connect();
        for i in 0..4 {
            conn.execute(
                "INSERT INTO holding (id, owner, qty) VALUES (?, ?, ?)",
                &[
                    Value::from(i),
                    Value::from(if i < 3 { "u1" } else { "u2" }),
                    Value::from(10.0 * i as f64),
                ],
            )
            .unwrap();
        }
        let source = Arc::new(DirectSource::new(Box::new(db.connect()), registry));
        let home = SliHome::new(holding_meta(), CommonStore::new(), source);
        (db, home)
    }

    #[test]
    fn miss_faults_in_and_populates_common_store() {
        let (db, home) = setup();
        db.reset_trace();
        let mut ctx = TxContext::new();
        home.find_by_primary_key(&mut ctx, &Value::from(1)).unwrap();
        assert_eq!(db.trace_snapshot().table("holding").reads, 1);
        assert_eq!(home.common_store().stats().misses, 1);
        // second access in the SAME transaction: per-txn store hit, no I/O
        home.get_field(&mut ctx, &Value::from(1), "qty").unwrap();
        assert_eq!(db.trace_snapshot().table("holding").reads, 1);
        // a NEW transaction hits the common store, still no I/O
        let mut ctx2 = TxContext::new();
        home.find_by_primary_key(&mut ctx2, &Value::from(1))
            .unwrap();
        assert_eq!(db.trace_snapshot().table("holding").reads, 1);
        assert_eq!(home.common_store().stats().hits, 1);
    }

    #[test]
    fn missing_bean_is_not_found() {
        let (_db, home) = setup();
        let mut ctx = TxContext::new();
        assert!(matches!(
            home.find_by_primary_key(&mut ctx, &Value::from(99)),
            Err(EjbError::NotFound { .. })
        ));
    }

    #[test]
    fn create_is_local_until_commit() {
        let (db, home) = setup();
        db.reset_trace();
        let mut ctx = TxContext::new();
        let m = Memento::new("Holding", Value::from(50))
            .with_field("owner", "u9")
            .with_field("qty", 1.0);
        home.create(&mut ctx, m).unwrap();
        assert_eq!(
            db.trace_snapshot().statements,
            0,
            "create must not hit the db"
        );
        assert_eq!(
            home.get_field(&mut ctx, &Value::from(50), "owner").unwrap(),
            Value::from("u9")
        );
        // duplicate create in the same transaction is caught locally
        assert!(matches!(
            home.create(&mut ctx, Memento::new("Holding", Value::from(50))),
            Err(EjbError::DuplicateKey { .. })
        ));
    }

    #[test]
    fn remove_then_create_becomes_update() {
        let (_db, home) = setup();
        let mut ctx = TxContext::new();
        home.remove(&mut ctx, &Value::from(1)).unwrap();
        let m = Memento::new("Holding", Value::from(1))
            .with_field("owner", "u1")
            .with_field("qty", 999.0);
        home.create(&mut ctx, m).unwrap();
        let inst = ctx.instance("Holding", &Value::from(1)).unwrap();
        assert!(!inst.removed && inst.dirty && !inst.created);
        assert_eq!(inst.field("qty"), Value::from(999.0));
    }

    #[test]
    fn finder_merges_without_overlaying_txn_updates() {
        let (_db, home) = setup();
        let mut ctx = TxContext::new();
        // Transaction modifies holding 1 before running the finder.
        home.set_field(&mut ctx, &Value::from(1), "qty", Value::from(777.0))
            .unwrap();
        let refs = home
            .find(&mut ctx, "findByOwner", &[Value::from("u1")])
            .unwrap();
        assert_eq!(refs.len(), 3);
        // The update must survive the merge.
        assert_eq!(
            home.get_field(&mut ctx, &Value::from(1), "qty").unwrap(),
            Value::from(777.0)
        );
    }

    #[test]
    fn finder_sees_created_and_hides_removed() {
        let (_db, home) = setup();
        let mut ctx = TxContext::new();
        home.create(
            &mut ctx,
            Memento::new("Holding", Value::from(70))
                .with_field("owner", "u1")
                .with_field("qty", 1.0),
        )
        .unwrap();
        home.remove(&mut ctx, &Value::from(0)).unwrap();
        let refs = home
            .find(&mut ctx, "findByOwner", &[Value::from("u1")])
            .unwrap();
        let keys: Vec<i64> = refs
            .iter()
            .map(|r| r.primary_key().as_int().unwrap())
            .collect();
        // persistent u1 = {0,1,2}; minus removed 0, plus created 70
        assert_eq!(keys, vec![1, 2, 70]);
    }

    #[test]
    fn finder_result_can_grow_on_reexecution_repeatable_read() {
        let (db, home) = setup();
        let mut ctx = TxContext::new();
        let first = home
            .find(&mut ctx, "findByOwner", &[Value::from("u1")])
            .unwrap();
        assert_eq!(first.len(), 3);
        // Another transaction commits a new matching bean meanwhile.
        let mut conn = db.connect();
        conn.execute(
            "INSERT INTO holding (id, owner, qty) VALUES (100, 'u1', 5.0)",
            &[],
        )
        .unwrap();
        // Re-execution within the same transaction CAN see the new member —
        // the isolation level is repeatable-read, not serializable (§2.2).
        let second = home
            .find(&mut ctx, "findByOwner", &[Value::from("u1")])
            .unwrap();
        assert_eq!(second.len(), 4);
    }

    #[test]
    fn field_access_through_cache_has_key_shortcut() {
        let (db, home) = setup();
        db.reset_trace();
        let mut ctx = TxContext::new();
        assert_eq!(
            home.get_field(&mut ctx, &Value::from(3), "id").unwrap(),
            Value::from(3)
        );
        assert_eq!(db.trace_snapshot().statements, 0);
        assert!(home
            .set_field(&mut ctx, &Value::from(3), "id", Value::from(4))
            .is_err());
    }

    #[test]
    fn removed_bean_rejects_further_access() {
        let (_db, home) = setup();
        let mut ctx = TxContext::new();
        home.remove(&mut ctx, &Value::from(1)).unwrap();
        assert!(matches!(
            home.get_field(&mut ctx, &Value::from(1), "qty"),
            Err(EjbError::NotFound { .. })
        ));
        assert!(matches!(
            home.find_by_primary_key(&mut ctx, &Value::from(1)),
            Err(EjbError::NotFound { .. })
        ));
    }

    #[test]
    fn unknown_field_and_finder_are_rejected() {
        let (_db, home) = setup();
        let mut ctx = TxContext::new();
        assert!(matches!(
            home.get_field(&mut ctx, &Value::from(1), "ghost"),
            Err(EjbError::NoSuchField { .. })
        ));
        assert!(matches!(
            home.find(&mut ctx, "findGhost", &[]),
            Err(EjbError::NoSuchFinder { .. })
        ));
    }

    #[test]
    fn flush_is_a_no_op() {
        let (db, home) = setup();
        let mut ctx = TxContext::new();
        home.set_field(&mut ctx, &Value::from(1), "qty", Value::from(1.0))
            .unwrap();
        db.reset_trace();
        home.flush(&mut ctx).unwrap();
        assert_eq!(db.trace_snapshot().statements, 0);
    }
}
