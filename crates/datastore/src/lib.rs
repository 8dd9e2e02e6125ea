//! # sli-datastore — embedded relational engine
//!
//! The paper's persistent tier is DB2 7.2 reached over JDBC. This crate is
//! the from-scratch substitute: an embedded relational engine exposing a
//! JDBC-like [`Connection`] API over a SQL subset, with
//!
//! * typed [`Value`]s, [`Schema`]s, primary keys and secondary indexes,
//! * a recursive-descent SQL parser (`SELECT` / `INSERT` / `UPDATE` /
//!   `DELETE` / `CREATE TABLE` / `CREATE INDEX`, `?` placeholders),
//! * strict two-phase locking with multi-granularity (table/row) locks,
//!   blocking waits and waits-for-graph deadlock detection,
//! * undo-log rollback, so aborted transactions leave no trace,
//! * per-table create/read/update/delete tracing (Table 1 of the paper), and
//! * a wire-level server ([`server::DbServer`]) + remote client
//!   ([`server::RemoteConnection`]) so the engine can be placed across a
//!   high-latency [`sli_simnet::Path`], exactly like the paper's remote
//!   database machine.
//!
//! ## Example
//!
//! ```
//! use sli_datastore::{Database, SqlConnection, Value};
//!
//! # fn main() -> Result<(), sli_datastore::DbError> {
//! let db = Database::new();
//! db.execute_ddl("CREATE TABLE quote (symbol VARCHAR PRIMARY KEY, price DOUBLE)")?;
//! let mut conn = db.connect();
//! conn.execute(
//!     "INSERT INTO quote (symbol, price) VALUES (?, ?)",
//!     &[Value::from("s:1"), Value::from(25.50)],
//! )?;
//! let rs = conn.execute("SELECT price FROM quote WHERE symbol = ?", &[Value::from("s:1")])?;
//! assert_eq!(rs.rows()[0][0], Value::from(25.50));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod connection;
mod engine;
mod error;
mod lock;
mod predicate;
mod result;
mod schema;
pub mod server;
mod snapshot;
pub mod sql;
mod trace;
mod value;
mod wal;

pub use connection::Connection;
pub use engine::{AccessPath, Database, PlanCacheStats, PLAN_CACHE_CAPACITY};
pub use error::DbError;
pub use lock::{LockManager, LockMode};
pub use predicate::{CmpOp, Predicate, MAX_PREDICATE_DEPTH};
pub use result::{ResultSet, RowIter, Rows};
pub use schema::{Column, ColumnType, Schema};
pub use trace::{OpCounts, TraceSnapshot};
pub use value::{Money, Value};
pub use wal::{CrashPoint, RecoveryReport, WalStats, CRASH_POINTS};

/// Convenient result alias for datastore operations.
pub type DbResult<T> = std::result::Result<T, DbError>;

/// One statement in a batched execution: SQL text plus bound parameters.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BatchStatement {
    /// SQL text with `?` placeholders.
    pub sql: String,
    /// Parameter values bound to the placeholders, in order.
    pub params: Vec<Value>,
}

impl BatchStatement {
    /// Builds a batch entry from SQL text and its bound parameters.
    pub fn new(sql: impl Into<String>, params: Vec<Value>) -> BatchStatement {
        BatchStatement {
            sql: sql.into(),
            params,
        }
    }
}

/// What came back from a statement batch.
///
/// Statements execute strictly in order and the batch stops at the first
/// failure, so `results` always holds the result sets of the executed
/// prefix and `error`, when present, belongs to the statement at index
/// `results.len()`.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchOutcome {
    /// Result sets of the successfully executed prefix, in order.
    pub results: Vec<ResultSet>,
    /// The error that stopped the batch after `results.len()` statements.
    pub error: Option<DbError>,
}

impl BatchOutcome {
    /// Collapses the outcome: every result set on full success, or the
    /// statement error that stopped the batch.
    ///
    /// # Errors
    /// Returns the captured statement error, if any.
    pub fn into_result(self) -> DbResult<Vec<ResultSet>> {
        match self.error {
            Some(e) => Err(e),
            None => Ok(self.results),
        }
    }
}

/// The interface shared by local and remote JDBC-style connections.
///
/// [`Connection`] implements it against an in-process [`Database`];
/// [`server::RemoteConnection`] implements it across a simulated network
/// path. Application code (the Trade engines, the BMP homes) is written
/// against this trait so a deployment can move the database tier without
/// touching business logic — the same transparency property the paper
/// relies on.
pub trait SqlConnection {
    /// Starts an explicit transaction.
    ///
    /// # Errors
    /// Fails if a transaction is already open on this connection.
    fn begin(&mut self) -> DbResult<()>;

    /// Executes one statement with `?` placeholders bound to `params`.
    ///
    /// Outside an explicit transaction the statement runs in autocommit
    /// mode.
    ///
    /// # Errors
    /// Propagates parse, constraint, lock and deadlock errors.
    fn execute(&mut self, sql: &str, params: &[Value]) -> DbResult<ResultSet>;

    /// Commits the open transaction.
    ///
    /// # Errors
    /// Fails if no transaction is open.
    fn commit(&mut self) -> DbResult<()>;

    /// Rolls back the open transaction, undoing all of its effects.
    ///
    /// # Errors
    /// Fails if no transaction is open.
    fn rollback(&mut self) -> DbResult<()>;

    /// Whether an explicit transaction is currently open.
    fn in_transaction(&self) -> bool;

    /// The database's commit-order witness ([`Database::commit_seq`]), when
    /// this connection can observe it. In-process connections return
    /// `Some`; connections that cross a wire return `None`, and callers
    /// needing the witness there must obtain it out of band.
    fn commit_seq(&self) -> Option<u64> {
        None
    }

    /// Announces the application-level `(origin, txn_id)` identity of the
    /// next *writing* commit on this connection, so the engine can record
    /// it in the WAL commit record and recovery can reseed the committers'
    /// dedup tables. `txn_id` 0 (the dedup-bypass sentinel) clears any
    /// pending stamp. Connections without WAL support ignore it — the
    /// default is a no-op.
    fn stamp_next_commit(&mut self, _origin: u32, _txn_id: u64) {}

    /// Executes `statements` in order, stopping at the first statement
    /// failure.
    ///
    /// Connections that cross a wire override this to ship the whole batch
    /// in **one** round trip (`OP_EXEC_BATCH`); this default runs each
    /// statement through [`SqlConnection::execute`], so in-process
    /// connections keep their exact per-statement semantics. A statement
    /// failure is reported *inside* the returned [`BatchOutcome`] (with the
    /// executed prefix's result sets); only transport-level failures
    /// surface as `Err`.
    ///
    /// Outside an explicit transaction each statement autocommits
    /// individually, matching the unbatched loop this replaces.
    ///
    /// # Errors
    /// Fails on transport-level errors; statement errors are captured in
    /// the outcome.
    fn execute_batch(&mut self, statements: &[BatchStatement]) -> DbResult<BatchOutcome> {
        Ok(execute_each(self, statements))
    }
}

/// Runs `statements` one [`SqlConnection::execute`] at a time, stopping at
/// the first failure — the unbatched loop behind the default
/// [`SqlConnection::execute_batch`] and a wire connection's batching-off
/// mode.
pub fn execute_each<C: SqlConnection + ?Sized>(
    conn: &mut C,
    statements: &[BatchStatement],
) -> BatchOutcome {
    let mut results = Vec::with_capacity(statements.len());
    for stmt in statements {
        match conn.execute(&stmt.sql, &stmt.params) {
            Ok(rs) => results.push(rs),
            Err(e) => {
                return BatchOutcome {
                    results,
                    error: Some(e),
                }
            }
        }
    }
    BatchOutcome {
        results,
        error: None,
    }
}
