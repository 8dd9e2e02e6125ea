//! Datastore error type.

use std::error::Error;
use std::fmt;

/// Errors produced by the datastore.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbError {
    /// The SQL text could not be parsed; the payload describes the problem.
    Parse(String),
    /// A statement referenced a table that does not exist.
    NoSuchTable(String),
    /// A statement referenced a column that does not exist in the table.
    NoSuchColumn(String),
    /// An `INSERT` supplied a duplicate primary key.
    DuplicateKey(String),
    /// A value's type did not match the column type.
    TypeMismatch(String),
    /// The number of `?` placeholders did not match the bound parameters.
    ParamCount {
        /// Placeholders in the statement.
        expected: usize,
        /// Parameters supplied by the caller.
        actual: usize,
    },
    /// The transaction was chosen as a deadlock victim and rolled back.
    Deadlock,
    /// Another transaction holds a conflicting lock; the statement had no effect.
    Blocked,
    /// `begin` was called while a transaction was already open.
    AlreadyInTransaction,
    /// `commit`/`rollback` was called with no open transaction.
    NoTransaction,
    /// A wire-level failure on a remote connection.
    Remote(String),
    /// DDL attempted to create something that already exists.
    AlreadyExists(String),
    /// The remote tier could not be reached (timeout or refusal) even after
    /// the transport's retry budget; the enclosing transaction was aborted.
    Unavailable(String),
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Parse(msg) => write!(f, "sql parse error: {msg}"),
            DbError::NoSuchTable(t) => write!(f, "no such table: {t}"),
            DbError::NoSuchColumn(c) => write!(f, "no such column: {c}"),
            DbError::DuplicateKey(k) => write!(f, "duplicate primary key: {k}"),
            DbError::TypeMismatch(msg) => write!(f, "type mismatch: {msg}"),
            DbError::ParamCount { expected, actual } => write!(
                f,
                "parameter count mismatch: statement has {expected} placeholders, {actual} values bound"
            ),
            DbError::Deadlock => write!(f, "transaction rolled back: deadlock victim"),
            DbError::Blocked => write!(f, "lock held elsewhere"),
            DbError::AlreadyInTransaction => write!(f, "a transaction is already open"),
            DbError::NoTransaction => write!(f, "no transaction is open"),
            DbError::Remote(msg) => write!(f, "remote connection failure: {msg}"),
            DbError::AlreadyExists(what) => write!(f, "already exists: {what}"),
            DbError::Unavailable(msg) => write!(f, "remote service unavailable: {msg}"),
        }
    }
}

impl Error for DbError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_lowercase_and_descriptive() {
        assert_eq!(
            DbError::NoSuchTable("account".into()).to_string(),
            "no such table: account"
        );
        assert_eq!(
            DbError::ParamCount {
                expected: 2,
                actual: 1
            }
            .to_string(),
            "parameter count mismatch: statement has 2 placeholders, 1 values bound"
        );
        assert_eq!(
            DbError::Deadlock.to_string(),
            "transaction rolled back: deadlock victim"
        );
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DbError>();
    }
}
