//! Vanilla bean-managed-persistence (BMP) home.
//!
//! This is the paper's "vanilla EJBs" baseline (Trade2's `EJB-ALT` mode):
//! every life-cycle event is a JDBC statement against the persistent store,
//! with the characteristic inefficiencies the paper calls out —
//!
//! * `findByPrimaryKey` always issues an existence `SELECT`, even when the
//!   result is reused immediately ("BMP EJBs have difficulty caching the
//!   results of a findByPrimaryKey operation");
//! * the bean state is loaded by a *second* `SELECT` on first field access
//!   (`ejbLoad`);
//! * custom finders return primary keys only, so each returned bean incurs
//!   its own load (the classic N+1 pattern);
//! * dirty beans are written back with one `UPDATE` each at commit
//!   (`ejbStore`).
//!
//! When the connection is remote, every one of these statements is a
//! round trip across the high-latency path — which is why vanilla EJBs show
//! the worst latency sensitivity (23.6) of all ES/RDB configurations in
//! Table 2.

use std::sync::Arc;

use sli_datastore::{BatchStatement, DbError, Predicate, Value};

use crate::context::TxContext;
use crate::error::EjbError;
use crate::home::{EjbRef, Home};
use crate::memento::Memento;
use crate::meta::EntityMeta;
use crate::{EjbResult, SharedConnection};

/// A BMP home for one entity type over a (possibly remote) JDBC-style
/// connection.
pub struct BmpHome {
    meta: EntityMeta,
    conn: SharedConnection,
}

impl std::fmt::Debug for BmpHome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BmpHome")
            .field("bean", &self.meta.bean())
            .field("table", &self.meta.table())
            .finish_non_exhaustive()
    }
}

impl BmpHome {
    /// Builds the home for `meta` (which carries the statement texts)
    /// over `conn`.
    pub fn new(meta: EntityMeta, conn: SharedConnection) -> BmpHome {
        BmpHome { meta, conn }
    }

    /// The bean's name as the descriptor holds it, shared by every
    /// enlisted instance and reference.
    fn name(&self) -> Arc<str> {
        Arc::clone(self.meta.image_names().bean())
    }

    /// SQL text for a named finder (primary keys only — BMP finders return
    /// keys, and each bean loads separately).
    fn finder_sql(&self, predicate: &Predicate) -> String {
        let key = self.meta.key_field();
        let table = self.meta.table();
        match predicate {
            Predicate::True => format!("SELECT {key} FROM {table}"),
            p => format!("SELECT {key} FROM {table} WHERE {p}"),
        }
    }

    /// `ejbLoad`: fetches the full row and installs it in the context.
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
        let rs = self
            .conn
            .lock()
            .execute(self.meta.load_sql(), std::slice::from_ref(key))?;
        if rs.is_empty() {
            return Err(EjbError::not_found(bean, key));
        }
        let image = self.meta.memento_from_row(&rs.rows()[0]);
        ctx.enlist(self.name(), key).load_from(&image);
        Ok(())
    }
}

impl Home for BmpHome {
    fn meta(&self) -> &EntityMeta {
        &self.meta
    }

    fn create(&self, ctx: &mut TxContext, state: Memento) -> EjbResult<EjbRef> {
        let bean = self.meta.bean();
        let key = state.primary_key();
        for (field, _) in state.fields() {
            self.meta.check_field(field)?;
        }
        // ejbCreate inserts immediately: the key, then every declared field
        // (NULL where `state` has none) — which is also the row the bean's
        // in-transaction state is read back from.
        let mut insert = BatchStatement::default();
        self.meta.insert_statement(&mut insert, &state);
        match self.conn.lock().execute(&insert.sql, &insert.params) {
            Ok(_) => {}
            Err(DbError::DuplicateKey(_)) => {
                return Err(EjbError::DuplicateKey {
                    bean: bean.to_owned(),
                    key: key.to_string(),
                })
            }
            Err(e) => return Err(e.into()),
        }
        let inst = ctx.enlist(self.name(), key);
        inst.current = Some(self.meta.memento_from_row(&insert.params));
        inst.loaded = true;
        inst.exists = true;
        inst.created = true;
        inst.dirty = false;
        Ok(EjbRef::new(self.name(), key.clone()))
    }

    fn find_by_primary_key(&self, ctx: &mut TxContext, key: &Value) -> EjbResult<EjbRef> {
        let bean = self.meta.bean();
        // Vanilla BMP always re-verifies existence with a SELECT — this is
        // the uncacheable find the paper blames for BMP's poor sensitivity.
        let rs = self
            .conn
            .lock()
            .execute(self.meta.exists_sql(), std::slice::from_ref(key))?;
        if rs.is_empty() {
            return Err(EjbError::not_found(bean, key));
        }
        ctx.enlist(self.name(), key).exists = true;
        Ok(EjbRef::new(self.name(), key.clone()))
    }

    fn find(&self, ctx: &mut TxContext, finder: &str, params: &[Value]) -> EjbResult<Vec<EjbRef>> {
        let def = self.meta.finder_def(finder)?;
        let sql = self.finder_sql(&def.predicate);
        let rs = self.conn.lock().execute(&sql, params)?;
        let mut refs = Vec::with_capacity(rs.len());
        for row in rs.rows() {
            let key = row[0].clone();
            ctx.enlist(self.name(), &key).exists = true;
            refs.push(EjbRef::new(self.name(), key));
        }
        Ok(refs)
    }

    fn remove(&self, ctx: &mut TxContext, key: &Value) -> EjbResult<()> {
        let bean = self.meta.bean();
        let rs = self
            .conn
            .lock()
            .execute(self.meta.delete_sql(), std::slice::from_ref(key))?;
        if rs.affected_rows() == 0 {
            return Err(EjbError::not_found(bean, key));
        }
        let inst = ctx.enlist(self.name(), key);
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

    fn flush(&self, ctx: &mut TxContext) -> EjbResult<()> {
        let bean = self.meta.bean();
        // ejbStore: one UPDATE per dirty live instance of this type.
        let dirty_keys: Vec<Value> = ctx
            .iter()
            .filter(|(b, _, st)| ***b == *bean && st.dirty && !st.removed)
            .map(|(_, k, _)| k.clone())
            .collect();
        let mut update = BatchStatement::default();
        for key in dirty_keys {
            let inst = ctx
                .instance_mut(bean, &key)
                .expect("key collected from iteration");
            let image = inst.to_memento(bean, &key);
            self.meta.update_statement(&mut update, &image);
            self.conn.lock().execute(&update.sql, &update.params)?;
            inst.dirty = false;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::share_connection;
    use sli_datastore::{CmpOp, ColumnType, Database, SqlConnection};

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
            .finder("findAll", Predicate::True)
    }

    fn setup() -> (Arc<Database>, BmpHome) {
        let db = Database::new();
        let meta = holding_meta();
        db.execute_ddl(&meta.create_table_ddl()).unwrap();
        for ddl in meta.create_index_ddl() {
            db.execute_ddl(&ddl).unwrap();
        }
        let home = BmpHome::new(meta, share_connection(db.connect()));
        (db, home)
    }

    fn holding(id: i64, owner: &str, qty: f64) -> Memento {
        Memento::new("Holding", Value::from(id))
            .with_field("owner", owner)
            .with_field("qty", qty)
    }

    #[test]
    fn create_find_get() {
        let (_db, home) = setup();
        let mut ctx = TxContext::new();
        home.create(&mut ctx, holding(1, "uid:1", 50.0)).unwrap();
        let r = home.find_by_primary_key(&mut ctx, &Value::from(1)).unwrap();
        assert_eq!(
            home.get_field(&mut ctx, r.primary_key(), "qty").unwrap(),
            Value::from(50.0)
        );
        // key field access needs no load
        assert_eq!(
            home.get_field(&mut ctx, r.primary_key(), "id").unwrap(),
            Value::from(1)
        );
    }

    #[test]
    fn create_duplicate_fails() {
        let (_db, home) = setup();
        let mut ctx = TxContext::new();
        home.create(&mut ctx, holding(1, "uid:1", 50.0)).unwrap();
        assert!(matches!(
            home.create(&mut ctx, holding(1, "uid:1", 50.0)),
            Err(EjbError::DuplicateKey { .. })
        ));
    }

    #[test]
    fn create_rejects_undeclared_fields() {
        let (_db, home) = setup();
        let mut ctx = TxContext::new();
        let bad = holding(1, "uid:1", 1.0).with_field("ghost", 1);
        assert!(matches!(
            home.create(&mut ctx, bad),
            Err(EjbError::NoSuchField { .. })
        ));
    }

    #[test]
    fn find_missing_is_not_found() {
        let (_db, home) = setup();
        let mut ctx = TxContext::new();
        assert!(matches!(
            home.find_by_primary_key(&mut ctx, &Value::from(9)),
            Err(EjbError::NotFound { .. })
        ));
        assert!(matches!(
            home.get_field(&mut ctx, &Value::from(9), "qty"),
            Err(EjbError::NotFound { .. })
        ));
    }

    #[test]
    fn bmp_issues_find_plus_load_double_read() {
        let (db, home) = setup();
        let mut ctx = TxContext::new();
        home.create(&mut ctx, holding(1, "uid:1", 50.0)).unwrap();
        db.reset_trace();
        let mut ctx = TxContext::new();
        let r = home.find_by_primary_key(&mut ctx, &Value::from(1)).unwrap();
        home.get_field(&mut ctx, r.primary_key(), "qty").unwrap();
        // one existence SELECT + one ejbLoad SELECT = the BMP double read
        assert_eq!(db.trace_snapshot().table("holding").reads, 2);
        // repeated find re-issues the SELECT even though the bean is loaded
        home.find_by_primary_key(&mut ctx, &Value::from(1)).unwrap();
        assert_eq!(db.trace_snapshot().table("holding").reads, 3);
        // but get_field now hits the loaded instance
        home.get_field(&mut ctx, r.primary_key(), "owner").unwrap();
        assert_eq!(db.trace_snapshot().table("holding").reads, 3);
    }

    #[test]
    fn finder_returns_keys_then_loads_n_plus_one() {
        let (db, home) = setup();
        let mut ctx = TxContext::new();
        for i in 0..4 {
            home.create(
                &mut ctx,
                holding(i, if i < 3 { "uid:1" } else { "uid:2" }, 1.0),
            )
            .unwrap();
        }
        db.reset_trace();
        let mut ctx = TxContext::new();
        let refs = home
            .find(&mut ctx, "findByOwner", &[Value::from("uid:1")])
            .unwrap();
        assert_eq!(refs.len(), 3);
        assert_eq!(db.trace_snapshot().table("holding").reads, 1);
        for r in &refs {
            home.get_field(&mut ctx, r.primary_key(), "qty").unwrap();
        }
        // 1 finder + 3 loads
        assert_eq!(db.trace_snapshot().table("holding").reads, 4);
    }

    #[test]
    fn find_all_finder() {
        let (_db, home) = setup();
        let mut ctx = TxContext::new();
        for i in 0..3 {
            home.create(&mut ctx, holding(i, "u", 1.0)).unwrap();
        }
        assert_eq!(home.find(&mut ctx, "findAll", &[]).unwrap().len(), 3);
        assert!(matches!(
            home.find(&mut ctx, "findByGhost", &[]),
            Err(EjbError::NoSuchFinder { .. })
        ));
    }

    #[test]
    fn set_field_marks_dirty_and_flush_stores() {
        let (db, home) = setup();
        let mut ctx = TxContext::new();
        home.create(&mut ctx, holding(1, "uid:1", 50.0)).unwrap();
        let mut ctx = TxContext::new();
        home.set_field(&mut ctx, &Value::from(1), "qty", Value::from(75.0))
            .unwrap();
        assert!(ctx.instance("Holding", &Value::from(1)).unwrap().dirty);
        db.reset_trace();
        home.flush(&mut ctx).unwrap();
        assert_eq!(db.trace_snapshot().table("holding").updates, 1);
        // flush is idempotent: nothing dirty remains
        home.flush(&mut ctx).unwrap();
        assert_eq!(db.trace_snapshot().table("holding").updates, 1);
        // and the value is persisted
        let mut conn = db.connect();
        let rs = conn
            .execute("SELECT qty FROM holding WHERE id = 1", &[])
            .unwrap();
        assert_eq!(rs.rows()[0][0], Value::from(75.0));
    }

    #[test]
    fn remove_deletes_and_blocks_access() {
        let (db, home) = setup();
        let mut ctx = TxContext::new();
        home.create(&mut ctx, holding(1, "uid:1", 50.0)).unwrap();
        home.remove(&mut ctx, &Value::from(1)).unwrap();
        assert_eq!(db.row_count("holding").unwrap(), 0);
        assert!(matches!(
            home.get_field(&mut ctx, &Value::from(1), "qty"),
            Err(EjbError::NotFound { .. })
        ));
        assert!(matches!(
            home.remove(&mut ctx, &Value::from(1)),
            Err(EjbError::NotFound { .. })
        ));
    }

    #[test]
    fn pk_is_immutable() {
        let (_db, home) = setup();
        let mut ctx = TxContext::new();
        home.create(&mut ctx, holding(1, "uid:1", 50.0)).unwrap();
        assert!(home
            .set_field(&mut ctx, &Value::from(1), "id", Value::from(2))
            .is_err());
    }

    #[test]
    fn unknown_field_access_is_rejected() {
        let (_db, home) = setup();
        let mut ctx = TxContext::new();
        home.create(&mut ctx, holding(1, "uid:1", 50.0)).unwrap();
        assert!(matches!(
            home.get_field(&mut ctx, &Value::from(1), "ghost"),
            Err(EjbError::NoSuchField { .. })
        ));
    }
}
