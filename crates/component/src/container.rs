//! The container: transaction demarcation around business logic.
//!
//! EJBs use declarative, per-method transaction management; business
//! methods "require a transactional scope" and the container brackets them.
//! [`Container::with_transaction`] is that bracket. The transactional
//! behaviour itself is pluggable through [`ResourceManager`]: the paper
//! "replaces the original pessimistic JDBC Resource Manager with an
//! optimistic SLI Resource Manager" — [`JdbcResourceManager`] is the
//! original; the SLI one lives in `sli-core`.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::context::TxContext;
use crate::error::EjbError;
use crate::home::Home;
use crate::{EjbResult, SharedConnection};

/// Declarative per-method transaction attributes, as in the EJB deployment
/// descriptor ("the incrementSalary method might be declared to require a
/// transactional scope", §1.2 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TxAttr {
    /// Join the caller's transaction; start one if none is active.
    #[default]
    Required,
    /// Always run in a fresh transaction of its own.
    RequiresNew,
    /// Join the caller's transaction if present; run non-transactionally
    /// otherwise.
    Supports,
    /// Run outside any transaction (the caller's, if any, is left alone).
    NotSupported,
}

/// Pluggable transaction coordinator.
pub trait ResourceManager: Send + Sync {
    /// Called when an application transaction starts.
    ///
    /// # Errors
    /// Propagates datastore failures (e.g. a remote `BEGIN` failing).
    fn begin(&self, ctx: &mut TxContext) -> EjbResult<()>;

    /// Called when the application requests commit. `homes` lets the
    /// manager run each home's `ejbStore` sweep. On error the manager must
    /// leave no transaction open.
    ///
    /// # Errors
    /// [`EjbError::OptimisticConflict`] from optimistic managers; datastore
    /// errors otherwise.
    fn commit(&self, ctx: &mut TxContext, homes: &[Arc<dyn Home>]) -> EjbResult<()>;

    /// Called when the application transaction aborts.
    ///
    /// # Errors
    /// Propagates datastore failures; best effort.
    fn rollback(&self, ctx: &mut TxContext) -> EjbResult<()>;
}

/// The original pessimistic resource manager: one datastore transaction
/// brackets the whole application transaction, holding its row locks until
/// commit.
pub struct JdbcResourceManager {
    conn: SharedConnection,
}

impl std::fmt::Debug for JdbcResourceManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JdbcResourceManager")
            .finish_non_exhaustive()
    }
}

impl JdbcResourceManager {
    /// Creates a manager driving `conn`.
    pub fn new(conn: SharedConnection) -> JdbcResourceManager {
        JdbcResourceManager { conn }
    }
}

impl ResourceManager for JdbcResourceManager {
    fn begin(&self, _ctx: &mut TxContext) -> EjbResult<()> {
        self.conn.lock().begin()?;
        Ok(())
    }

    fn commit(&self, ctx: &mut TxContext, homes: &[Arc<dyn Home>]) -> EjbResult<()> {
        // ejbStore sweep, then the real commit.
        for home in homes {
            if let Err(e) = home.flush(ctx) {
                let _ = self.conn.lock().rollback();
                return Err(e);
            }
        }
        self.conn.lock().commit()?;
        Ok(())
    }

    fn rollback(&self, _ctx: &mut TxContext) -> EjbResult<()> {
        self.conn.lock().rollback()?;
        Ok(())
    }
}

/// The EJB container: a home registry plus transaction demarcation.
pub struct Container {
    homes: BTreeMap<String, Arc<dyn Home>>,
    /// `homes.values()`, kept for handing to [`ResourceManager::commit`].
    commit_order: Vec<Arc<dyn Home>>,
    rm: Arc<dyn ResourceManager>,
}

impl std::fmt::Debug for Container {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Container")
            .field("homes", &self.homes.keys().collect::<Vec<_>>())
            .finish_non_exhaustive()
    }
}

impl Container {
    /// Creates a container around a resource manager.
    pub fn new(rm: Arc<dyn ResourceManager>) -> Container {
        Container {
            homes: BTreeMap::new(),
            commit_order: Vec::new(),
            rm,
        }
    }

    /// Deploys a home into the container.
    pub fn register(&mut self, home: Arc<dyn Home>) {
        self.homes.insert(home.meta().bean().to_owned(), home);
        self.commit_order = self.homes.values().cloned().collect();
    }

    /// Looks up the deployed home for `bean`.
    ///
    /// # Errors
    /// [`EjbError::NotFound`] if no home is deployed under that name.
    pub fn home(&self, bean: &str) -> EjbResult<&Arc<dyn Home>> {
        self.homes.get(bean).ok_or_else(|| EjbError::NotFound {
            bean: bean.to_owned(),
            key: "<home>".to_owned(),
        })
    }

    /// Names of all deployed beans.
    pub fn beans(&self) -> impl Iterator<Item = &str> {
        self.homes.keys().map(String::as_str)
    }

    /// Runs `f` inside a new application transaction: begin, business
    /// logic, commit — with rollback on any error.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use sli_component::{
    ///     share_connection, BmpHome, Container, EntityMeta, JdbcResourceManager, Memento,
    /// };
    /// use sli_datastore::{ColumnType, Database, Value};
    ///
    /// # fn main() -> Result<(), sli_component::EjbError> {
    /// let meta = EntityMeta::new("Account", "account", "id", ColumnType::Int)
    ///     .field("balance", ColumnType::Double);
    /// let db = Database::new();
    /// db.execute_ddl(&meta.create_table_ddl())?;
    /// let conn = share_connection(db.connect());
    /// let mut container = Container::new(Arc::new(JdbcResourceManager::new(Arc::clone(&conn))));
    /// container.register(Arc::new(BmpHome::new(meta, conn)));
    ///
    /// container.with_transaction(|ctx, c| {
    ///     let home = c.home("Account")?;
    ///     home.create(ctx, Memento::new("Account", Value::from(1)).with_field("balance", 10.0))?;
    ///     home.set_field(ctx, &Value::from(1), "balance", Value::from(25.0))?;
    ///     Ok(())
    /// })?;
    /// assert_eq!(db.row_count("account").unwrap(), 1);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    /// The business logic's error, or the commit-time error (notably
    /// [`EjbError::OptimisticConflict`] under the SLI resource manager,
    /// which callers typically retry).
    pub fn with_transaction<T>(
        &self,
        f: impl FnOnce(&mut TxContext, &Container) -> EjbResult<T>,
    ) -> EjbResult<T> {
        let mut ctx = TxContext::new();
        self.rm.begin(&mut ctx)?;
        match f(&mut ctx, self) {
            Ok(value) => {
                self.rm.commit(&mut ctx, &self.commit_order)?;
                Ok(value)
            }
            Err(e) => {
                let _ = self.rm.rollback(&mut ctx);
                Err(e)
            }
        }
    }

    /// Invokes a business method under a declarative transaction attribute,
    /// the EJB container's per-method demarcation:
    ///
    /// * [`TxAttr::Required`] joins `outer` or starts a transaction;
    /// * [`TxAttr::RequiresNew`] always starts its own transaction. Under
    ///   the optimistic SLI resource manager the outer transaction is
    ///   naturally suspended (workspaces are independent and commit in one
    ///   shot); under the pessimistic [`JdbcResourceManager`] — which owns a
    ///   single connection — a nested begin fails with
    ///   `AlreadyInTransaction`, exactly like an EJB container whose pool
    ///   cannot supply a second connection;
    /// * [`TxAttr::Supports`] joins `outer` or runs with no transactional
    ///   scope at all;
    /// * [`TxAttr::NotSupported`] always runs without a transaction.
    ///
    /// "No transaction" hands `None` to the method — entity-bean access
    /// requires a context, so a method declared non-transactional simply
    /// cannot touch entity state, matching the EJB rules.
    ///
    /// # Errors
    /// The method's error; commit-time errors when this call started the
    /// transaction.
    pub fn invoke<T>(
        &self,
        attr: TxAttr,
        outer: Option<&mut TxContext>,
        f: impl FnOnce(Option<&mut TxContext>, &Container) -> EjbResult<T>,
    ) -> EjbResult<T> {
        match (attr, outer) {
            (TxAttr::Required, Some(ctx)) | (TxAttr::Supports, Some(ctx)) => f(Some(ctx), self),
            (TxAttr::Required, None) | (TxAttr::RequiresNew, None) => {
                self.with_transaction(|ctx, c| f(Some(ctx), c))
            }
            (TxAttr::RequiresNew, Some(_)) => self.with_transaction(|ctx, c| f(Some(ctx), c)),
            (TxAttr::Supports, None)
            | (TxAttr::NotSupported, Some(_))
            | (TxAttr::NotSupported, None) => f(None, self),
        }
    }

    /// Runs `f` in a transaction, retrying up to `attempts` times on
    /// retryable errors (optimistic conflicts, deadlock victims). This is
    /// the standard application-level response to an optimistic abort.
    ///
    /// # Errors
    /// The final error if all attempts fail, or the first non-retryable
    /// error.
    pub fn with_retrying_transaction<T>(
        &self,
        attempts: usize,
        mut f: impl FnMut(&mut TxContext, &Container) -> EjbResult<T>,
    ) -> EjbResult<T> {
        let mut last = EjbError::TransactionRequired;
        for _ in 0..attempts.max(1) {
            match self.with_transaction(&mut f) {
                Ok(v) => return Ok(v),
                Err(e) if e.is_retryable() => last = e,
                Err(e) => return Err(e),
            }
        }
        Err(last)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bmp::BmpHome;
    use crate::memento::Memento;
    use crate::meta::EntityMeta;
    use crate::share_connection;
    use sli_datastore::{ColumnType, Database, SqlConnection, Value};

    fn account_meta() -> EntityMeta {
        EntityMeta::new("Account", "account", "userid", ColumnType::Varchar)
            .field("balance", ColumnType::Double)
    }

    fn setup() -> (std::sync::Arc<Database>, Container) {
        let db = Database::new();
        let meta = account_meta();
        db.execute_ddl(&meta.create_table_ddl()).unwrap();
        let conn = share_connection(db.connect());
        let mut container = Container::new(Arc::new(JdbcResourceManager::new(Arc::clone(&conn))));
        container.register(Arc::new(BmpHome::new(meta, conn)));
        (db, container)
    }

    #[test]
    fn transaction_commits_dirty_state() {
        let (db, container) = setup();
        container
            .with_transaction(|ctx, c| {
                let home = c.home("Account")?;
                home.create(
                    ctx,
                    Memento::new("Account", Value::from("u1")).with_field("balance", 10.0),
                )?;
                home.set_field(ctx, &Value::from("u1"), "balance", Value::from(25.0))?;
                Ok(())
            })
            .unwrap();
        let mut conn = db.connect();
        let rs = conn
            .execute("SELECT balance FROM account WHERE userid = 'u1'", &[])
            .unwrap();
        assert_eq!(rs.rows()[0][0], Value::from(25.0));
        assert_eq!(db.lock_manager().lock_count(), 0);
    }

    #[test]
    fn business_error_rolls_back() {
        let (db, container) = setup();
        let result: EjbResult<()> = container.with_transaction(|ctx, c| {
            let home = c.home("Account")?;
            home.create(
                ctx,
                Memento::new("Account", Value::from("u1")).with_field("balance", 10.0),
            )?;
            Err(EjbError::TransactionRequired) // simulated business failure
        });
        assert!(result.is_err());
        assert_eq!(db.row_count("account").unwrap(), 0);
        assert_eq!(db.lock_manager().lock_count(), 0);
    }

    #[test]
    fn unknown_home_is_not_found() {
        let (_db, container) = setup();
        assert!(container.home("Ghost").is_err());
        assert_eq!(container.beans().collect::<Vec<_>>(), vec!["Account"]);
    }

    #[test]
    fn tx_attr_required_joins_or_creates() {
        let (db, container) = setup();
        // no outer context → a transaction is created and committed
        container
            .invoke(TxAttr::Required, None, |ctx, c| {
                let ctx = ctx.expect("Required always supplies a context");
                c.home("Account")?.create(
                    ctx,
                    Memento::new("Account", Value::from("u1")).with_field("balance", 1.0),
                )?;
                Ok(())
            })
            .unwrap();
        assert_eq!(db.row_count("account").unwrap(), 1);
        // outer context → joined, commit happens with the outer txn
        container
            .with_transaction(|outer, c| {
                c.invoke(TxAttr::Required, Some(outer), |ctx, c| {
                    let ctx = ctx.expect("joined context");
                    c.home("Account")?.create(
                        ctx,
                        Memento::new("Account", Value::from("u2")).with_field("balance", 2.0),
                    )?;
                    Ok(())
                })
            })
            .unwrap();
        assert_eq!(db.row_count("account").unwrap(), 2);
    }

    #[test]
    fn tx_attr_requires_new_under_single_connection_jdbc_rm() {
        let (db, container) = setup();
        // With no outer transaction, RequiresNew behaves like Required.
        container
            .invoke(TxAttr::RequiresNew, None, |ctx, c| {
                c.home("Account")?.create(
                    ctx.expect("fresh context"),
                    Memento::new("Account", Value::from("solo")).with_field("balance", 9.0),
                )?;
                Ok(())
            })
            .unwrap();
        assert_eq!(db.row_count("account").unwrap(), 1);
        // Inside a transaction, the pessimistic single-connection RM cannot
        // branch a second datastore transaction: the nested begin fails
        // (the optimistic SLI RM can — covered by the integration suite).
        let result: EjbResult<()> = container.with_transaction(|_outer, c| {
            c.invoke(TxAttr::RequiresNew, None, |ctx, cc| {
                cc.home("Account")?.create(
                    ctx.expect("fresh context"),
                    Memento::new("Account", Value::from("nested")).with_field("balance", 1.0),
                )?;
                Ok(())
            })
        });
        assert!(matches!(
            result,
            Err(EjbError::Db(sli_datastore::DbError::AlreadyInTransaction))
        ));
    }

    #[test]
    fn tx_attr_not_supported_gets_no_context() {
        let (_db, container) = setup();
        container
            .invoke(TxAttr::NotSupported, None, |ctx, _c| {
                assert!(ctx.is_none());
                Ok(())
            })
            .unwrap();
        // even inside a transaction, the method runs outside it
        container
            .with_transaction(|outer, c| {
                c.invoke(TxAttr::NotSupported, Some(outer), |ctx, _c| {
                    assert!(ctx.is_none());
                    Ok(())
                })
            })
            .unwrap();
    }

    #[test]
    fn tx_attr_supports_follows_the_caller() {
        let (_db, container) = setup();
        container
            .invoke(TxAttr::Supports, None, |ctx, _c| {
                assert!(ctx.is_none(), "no caller txn → none supplied");
                Ok(())
            })
            .unwrap();
        container
            .with_transaction(|outer, c| {
                c.invoke(TxAttr::Supports, Some(outer), |ctx, _c| {
                    assert!(ctx.is_some(), "caller txn → joined");
                    Ok(())
                })
            })
            .unwrap();
    }

    #[test]
    fn retrying_returns_first_non_retryable() {
        let (_db, container) = setup();
        let mut calls = 0;
        let result: EjbResult<()> = container.with_retrying_transaction(3, |_ctx, _c| {
            calls += 1;
            Err(EjbError::TransactionRequired)
        });
        assert!(result.is_err());
        assert_eq!(calls, 1, "non-retryable errors must not be retried");
    }

    #[test]
    fn retrying_retries_conflicts() {
        let (_db, container) = setup();
        let mut calls = 0;
        let result: EjbResult<i32> = container.with_retrying_transaction(3, |_ctx, _c| {
            calls += 1;
            if calls < 3 {
                Err(EjbError::conflict("Account", "u1"))
            } else {
                Ok(7)
            }
        });
        assert_eq!(result.unwrap(), 7);
        assert_eq!(calls, 3);
    }

    #[test]
    fn retrying_exhaustion_returns_conflict() {
        let (_db, container) = setup();
        let result: EjbResult<()> = container
            .with_retrying_transaction(2, |_ctx, _c| Err(EjbError::conflict("Account", "u1")));
        assert!(matches!(result, Err(EjbError::OptimisticConflict { .. })));
    }
}
