//! Where an edge faults bean state in from on a cache miss.

use parking_lot::Mutex;
use sli_component::{EjbResult, Memento};
use sli_datastore::{Predicate, SqlConnection, Value};

use crate::committer::{fetch_current, query_current, Session};
use crate::registry::MetaRegistry;

/// The persistent tier as seen by a cache-enabled application server:
/// point fetches on a direct-access miss, predicate queries for custom
/// finders.
///
/// Per §2.3 of the paper, every access "creates a separate (non-nested)
/// short transaction for the duration of the access ... committed
/// immediately after the access completes so that locks are released
/// quickly by the persistent store" — implementations run each call in
/// autocommit mode.
pub trait StateSource: Send + Sync {
    /// Fetches the current image of (`bean`, `key`), or `None` if no such
    /// bean exists.
    ///
    /// # Errors
    /// Transport or datastore failures.
    fn fetch(&self, bean: &str, key: &Value) -> EjbResult<Option<Memento>>;

    /// Runs a *bound* finder predicate against the persistent store,
    /// returning the full state of every matching bean (unlike BMP
    /// finders, which return keys only and pay a load per bean).
    ///
    /// # Errors
    /// Transport or datastore failures.
    fn query(&self, bean: &str, predicate: &Predicate) -> EjbResult<Vec<Memento>>;
}

/// Direct SQL access to the database — the *combined-servers* fault path
/// (ES/RDB): each fetch or query is one autocommitted statement on the
/// (typically remote) JDBC connection.
pub struct DirectSource {
    session: Mutex<Session>,
    registry: MetaRegistry,
}

impl std::fmt::Debug for DirectSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DirectSource")
            .field("beans", &self.registry.len())
            .finish_non_exhaustive()
    }
}

impl DirectSource {
    /// Creates a source over `conn` with deployment metadata `registry`.
    pub fn new(conn: Box<dyn SqlConnection + Send>, registry: MetaRegistry) -> DirectSource {
        DirectSource {
            session: Mutex::new(Session::new(conn)),
            registry,
        }
    }
}

impl StateSource for DirectSource {
    fn fetch(&self, bean: &str, key: &Value) -> EjbResult<Option<Memento>> {
        let meta = self.registry.meta(bean)?;
        fetch_current(self.session.lock().conn.as_mut(), meta, key)
    }

    fn query(&self, bean: &str, predicate: &Predicate) -> EjbResult<Vec<Memento>> {
        let meta = self.registry.meta(bean)?;
        let rs = query_current(&mut self.session.lock(), meta, predicate)?;
        Ok(rs.rows().iter().map(|r| meta.memento_from_row(r)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sli_component::EntityMeta;
    use sli_datastore::{CmpOp, ColumnType, Database};

    fn setup() -> DirectSource {
        let db = Database::new();
        let registry = MetaRegistry::new().with(
            EntityMeta::new("Holding", "holding", "id", ColumnType::Int)
                .field("owner", ColumnType::Varchar)
                .field("qty", ColumnType::Double)
                .index("owner"),
        );
        registry.create_schema(&db).unwrap();
        let mut conn = db.connect();
        for i in 0..4 {
            conn.execute(
                "INSERT INTO holding (id, owner, qty) VALUES (?, ?, ?)",
                &[
                    Value::from(i),
                    Value::from(if i < 3 { "u1" } else { "u2" }),
                    Value::from(i as f64),
                ],
            )
            .unwrap();
        }
        DirectSource::new(Box::new(db.connect()), registry)
    }

    #[test]
    fn fetch_hits_and_misses() {
        let src = setup();
        let img = src.fetch("Holding", &Value::from(2)).unwrap().unwrap();
        assert_eq!(img.get("owner"), Some(&Value::from("u1")));
        assert_eq!(img.get("qty"), Some(&Value::from(2.0)));
        assert!(src.fetch("Holding", &Value::from(99)).unwrap().is_none());
        assert!(src.fetch("Ghost", &Value::from(1)).is_err());
    }

    #[test]
    fn query_returns_full_state() {
        let src = setup();
        let results = src.query("Holding", &Predicate::eq("owner", "u1")).unwrap();
        assert_eq!(results.len(), 3);
        assert!(results.iter().all(|m| m.get("qty").is_some()));
    }

    #[test]
    fn query_true_scans_all() {
        let src = setup();
        assert_eq!(src.query("Holding", &Predicate::True).unwrap().len(), 4);
    }

    #[test]
    fn query_with_comparison() {
        let src = setup();
        let results = src
            .query(
                "Holding",
                &Predicate::eq("owner", "u1").and(Predicate::cmp("qty", CmpOp::Ge, 1.0)),
            )
            .unwrap();
        assert_eq!(results.len(), 2);
    }
}
