//! In-process JDBC-style connection.

use std::sync::Arc;

use crate::engine::{Database, TxnState};
use crate::error::DbError;
use crate::result::ResultSet;
use crate::value::Value;
use crate::{DbResult, SqlConnection};

/// A connection to an in-process [`Database`].
///
/// Statements executed outside an explicit transaction run in autocommit
/// mode: each is wrapped in its own transaction that commits on success and
/// rolls back on failure, so locks never leak.
#[derive(Debug)]
pub struct Connection {
    db: Arc<Database>,
    txn: Option<TxnState>,
    /// `(origin, txn_id)` identity a committer announced for its next
    /// writing commit; rides into the WAL commit record so recovery can
    /// reseed the dedup table.
    pending_stamp: Option<(u32, u64)>,
}

impl Connection {
    pub(crate) fn new(db: Arc<Database>) -> Connection {
        Connection {
            db,
            txn: None,
            pending_stamp: None,
        }
    }

    /// The database this connection is attached to.
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    /// [`SqlConnection::execute`], also reporting through `class` the
    /// statement's span class as its plan has it (see
    /// `Database::execute_in`).
    pub(crate) fn execute_classed(
        &mut self,
        sql: &str,
        params: &[Value],
        class: Option<&mut Option<Arc<str>>>,
    ) -> DbResult<ResultSet> {
        match &mut self.txn {
            Some(txn) => self.db.execute_in(txn, sql, params, class),
            None => {
                // Autocommit: private transaction per statement.
                let mut txn = self.db.begin_txn();
                match self.db.execute_in(&mut txn, sql, params, class) {
                    Ok(rs) => {
                        self.commit_txn(txn)?;
                        Ok(rs)
                    }
                    Err(e) => {
                        self.db.rollback_txn(txn);
                        Err(e)
                    }
                }
            }
        }
    }

    /// Commits `txn`. A writing commit is a commit boundary and consumes
    /// the pending stamp (the committers' single-entry fast path commits
    /// through an autocommitted statement); a read-only one leaves it for
    /// the writing commit that follows.
    fn commit_txn(&mut self, txn: TxnState) -> DbResult<()> {
        let stamp = if txn.has_writes() {
            self.pending_stamp.take()
        } else {
            None
        };
        self.db.commit_txn(txn, stamp)
    }
}

impl SqlConnection for Connection {
    fn begin(&mut self) -> DbResult<()> {
        if self.txn.is_some() {
            return Err(DbError::AlreadyInTransaction);
        }
        self.txn = Some(self.db.begin_txn());
        Ok(())
    }

    fn execute(&mut self, sql: &str, params: &[Value]) -> DbResult<ResultSet> {
        self.execute_classed(sql, params, None)
    }

    fn commit(&mut self) -> DbResult<()> {
        match self.txn.take() {
            Some(txn) => self.commit_txn(txn),
            None => Err(DbError::NoTransaction),
        }
    }

    fn rollback(&mut self) -> DbResult<()> {
        self.pending_stamp = None;
        match self.txn.take() {
            Some(txn) => {
                self.db.rollback_txn(txn);
                Ok(())
            }
            None => Err(DbError::NoTransaction),
        }
    }

    fn in_transaction(&self) -> bool {
        self.txn.is_some()
    }

    fn commit_seq(&self) -> Option<u64> {
        Some(self.db.commit_seq())
    }

    fn stamp_next_commit(&mut self, origin: u32, txn_id: u64) {
        // txn_id 0 is the committers' "unstamped" sentinel (it bypasses
        // dedup); it clears rather than records.
        self.pending_stamp = if txn_id == 0 {
            None
        } else {
            Some((origin, txn_id))
        };
    }
}

impl Drop for Connection {
    /// A dropped connection with an open transaction rolls it back, so a
    /// crashed edge server cannot leave locks or partial state behind.
    fn drop(&mut self) {
        if let Some(txn) = self.txn.take() {
            self.db.rollback_txn(txn);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> Arc<Database> {
        let db = Database::new();
        db.execute_ddl("CREATE TABLE t (a INT PRIMARY KEY, b INT)")
            .unwrap();
        db
    }

    #[test]
    fn begin_twice_fails() {
        let db = setup();
        let mut c = db.connect();
        c.begin().unwrap();
        assert_eq!(c.begin().unwrap_err(), DbError::AlreadyInTransaction);
        c.rollback().unwrap();
    }

    #[test]
    fn commit_without_begin_fails() {
        let db = setup();
        let mut c = db.connect();
        assert_eq!(c.commit().unwrap_err(), DbError::NoTransaction);
        assert_eq!(c.rollback().unwrap_err(), DbError::NoTransaction);
    }

    #[test]
    fn explicit_transaction_commits_atomically() {
        let db = setup();
        let mut c = db.connect();
        c.begin().unwrap();
        assert!(c.in_transaction());
        c.execute("INSERT INTO t (a, b) VALUES (1, 10)", &[])
            .unwrap();
        c.execute("INSERT INTO t (a, b) VALUES (2, 20)", &[])
            .unwrap();
        c.commit().unwrap();
        assert!(!c.in_transaction());
        assert_eq!(db.row_count("t").unwrap(), 2);
    }

    #[test]
    fn dropping_open_transaction_rolls_back() {
        let db = setup();
        {
            let mut c = db.connect();
            c.begin().unwrap();
            c.execute("INSERT INTO t (a, b) VALUES (1, 10)", &[])
                .unwrap();
            // dropped without commit
        }
        assert_eq!(db.row_count("t").unwrap(), 0);
        assert_eq!(db.lock_manager().lock_count(), 0);
    }

    #[test]
    fn commit_seq_counts_only_writing_transactions() {
        let db = setup();
        let mut c = db.connect();
        assert_eq!(c.commit_seq(), Some(0));
        // Autocommit write bumps the witness.
        c.execute("INSERT INTO t (a, b) VALUES (1, 10)", &[])
            .unwrap();
        assert_eq!(c.commit_seq(), Some(1));
        // Read-only statements (autocommit or explicit) do not.
        c.execute("SELECT b FROM t WHERE a = 1", &[]).unwrap();
        c.begin().unwrap();
        c.execute("SELECT b FROM t WHERE a = 1", &[]).unwrap();
        c.commit().unwrap();
        assert_eq!(c.commit_seq(), Some(1));
        // A rolled-back writer does not.
        c.begin().unwrap();
        c.execute("UPDATE t SET b = 99 WHERE a = 1", &[]).unwrap();
        c.rollback().unwrap();
        assert_eq!(c.commit_seq(), Some(1));
        // An explicit writing transaction bumps it exactly once.
        c.begin().unwrap();
        c.execute("UPDATE t SET b = 11 WHERE a = 1", &[]).unwrap();
        c.execute("UPDATE t SET b = 12 WHERE a = 1", &[]).unwrap();
        c.commit().unwrap();
        assert_eq!(c.commit_seq(), Some(2));
    }

    #[test]
    fn two_connections_isolated_by_locks() {
        let db = setup();
        let mut c1 = db.connect();
        c1.execute("INSERT INTO t (a, b) VALUES (1, 10)", &[])
            .unwrap();
        c1.begin().unwrap();
        c1.execute("UPDATE t SET b = 11 WHERE a = 1", &[]).unwrap();
        // c2 is refused the row while c1 holds its X lock, and reads the
        // committed value once c1 commits.
        let mut c2 = db.connect();
        let read = "SELECT b FROM t WHERE a = 1";
        assert_eq!(c2.execute(read, &[]).unwrap_err(), DbError::Blocked);
        c1.commit().unwrap();
        let rs = c2.execute(read, &[]).unwrap();
        assert_eq!(rs.rows()[0][0], Value::from(11));
    }
}
