//! Per-table operation tracing.
//!
//! Table 1 of the paper characterizes each Trade2 action by its database
//! activity — which tables see Creates, Reads, Updates and Deletes. The
//! engine counts statements per table and kind (a Trade test checks
//! Register's row this way; `paper` reads the rest off `db.stmt` spans).
//!
//! Per-statement *simulated latency* is not aggregated here: the wire
//! server (the component that knows the CPU cost it charged) records each
//! statement as a `db.stmt` leaf span in the shared
//! [`TraceLog`](sli_telemetry::TraceLog), labelled with the same
//! `{table}.{kind}` class that [`classify`] derives for the counters.

use std::collections::BTreeMap;

use parking_lot::Mutex;

/// Statement counts for one table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpCounts {
    /// `INSERT` statements (C).
    pub creates: u64,
    /// `SELECT` statements (R).
    pub reads: u64,
    /// `UPDATE` statements (U).
    pub updates: u64,
    /// `DELETE` statements (D).
    pub deletes: u64,
}

impl OpCounts {
    /// Total statements against the table.
    pub fn total(&self) -> u64 {
        self.creates + self.reads + self.updates + self.deletes
    }
}

/// A snapshot of all per-table counters.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceSnapshot {
    /// Counts keyed by table name (sorted for stable output).
    pub tables: BTreeMap<String, OpCounts>,
    /// Total statements executed (including DDL).
    pub statements: u64,
}

impl TraceSnapshot {
    /// Counts for `table`, defaulting to zeros.
    pub fn table(&self, table: &str) -> OpCounts {
        self.tables.get(table).copied().unwrap_or_default()
    }
}

#[derive(Debug, Default)]
pub(crate) struct Trace {
    inner: Mutex<TraceSnapshot>,
}

#[derive(Debug, Clone, Copy)]
pub(crate) enum OpKind {
    Create,
    Read,
    Update,
    Delete,
}

impl OpKind {
    pub(crate) fn label(self) -> &'static str {
        match self {
            OpKind::Create => "create",
            OpKind::Read => "read",
            OpKind::Update => "update",
            OpKind::Delete => "delete",
        }
    }
}

/// Classifies a statement from its SQL text: the first keyword gives the
/// kind, and the token after `FROM` / `INTO` / `UPDATE` gives the table.
/// DDL and unrecognised statements classify as `None`.
pub(crate) fn classify(sql: &str) -> Option<(OpKind, String)> {
    let mut tokens = sql.split_whitespace();
    let first = tokens.next()?;
    let kind = if first.eq_ignore_ascii_case("select") {
        OpKind::Read
    } else if first.eq_ignore_ascii_case("insert") {
        OpKind::Create
    } else if first.eq_ignore_ascii_case("update") {
        OpKind::Update
    } else if first.eq_ignore_ascii_case("delete") {
        OpKind::Delete
    } else {
        return None;
    };
    let marker = match kind {
        OpKind::Update => None, // the table is the next token
        OpKind::Create => Some("into"),
        OpKind::Read | OpKind::Delete => Some("from"),
    };
    let raw = match marker {
        None => tokens.next()?,
        Some(marker) => {
            let mut prev = first;
            loop {
                let t = tokens.next()?;
                if prev.eq_ignore_ascii_case(marker) {
                    break t;
                }
                prev = t;
            }
        }
    };
    // Strip a trailing column list ("account(userid, ...)") and punctuation.
    let table = raw
        .split('(')
        .next()
        .unwrap_or("")
        .trim_matches(|c: char| !c.is_ascii_alphanumeric() && c != '_')
        .to_ascii_lowercase();
    if table.is_empty() {
        None
    } else {
        Some((kind, table))
    }
}

/// `"{table}.{kind}"` statement class for span labelling, or `""` for
/// DDL/unclassifiable statements.
pub(crate) fn statement_class(sql: &str) -> String {
    match classify(sql) {
        Some((kind, table)) => format!("{table}.{}", kind.label()),
        None => String::new(),
    }
}

impl Trace {
    pub(crate) fn record(&self, table: &str, kind: OpKind) {
        let mut t = self.inner.lock();
        t.statements += 1;
        // Look up before allocating a key: the table is new once per reset.
        if !t.tables.contains_key(table) {
            t.tables.insert(table.to_owned(), OpCounts::default());
        }
        let counts = t.tables.get_mut(table).expect("present or just inserted");
        match kind {
            OpKind::Create => counts.creates += 1,
            OpKind::Read => counts.reads += 1,
            OpKind::Update => counts.updates += 1,
            OpKind::Delete => counts.deletes += 1,
        }
    }

    pub(crate) fn record_statement(&self) {
        self.inner.lock().statements += 1;
    }

    pub(crate) fn snapshot(&self) -> TraceSnapshot {
        self.inner.lock().clone()
    }

    pub(crate) fn reset(&self) {
        *self.inner.lock() = TraceSnapshot::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_snapshots() {
        let t = Trace::default();
        t.record("account", OpKind::Read);
        t.record("account", OpKind::Read);
        t.record("account", OpKind::Update);
        t.record("holding", OpKind::Create);
        t.record("holding", OpKind::Delete);
        let snap = t.snapshot();
        assert_eq!(snap.statements, 5);
        assert_eq!(
            snap.table("account"),
            OpCounts {
                creates: 0,
                reads: 2,
                updates: 1,
                deletes: 0
            }
        );
        assert_eq!(snap.table("holding").total(), 2);
        assert_eq!(snap.table("missing"), OpCounts::default());
    }

    #[test]
    fn reset_clears() {
        let t = Trace::default();
        t.record("x", OpKind::Read);
        t.record_statement();
        t.reset();
        assert_eq!(t.snapshot(), TraceSnapshot::default());
    }

    #[test]
    fn classify_extracts_kind_and_table() {
        let cases = [
            ("SELECT a, b FROM account WHERE x = 1", "account.read"),
            ("select count(*) from holding", "holding.read"),
            ("INSERT INTO profile (a, b) VALUES (1, 2)", "profile.create"),
            ("insert into profile(a, b) values (1, 2)", "profile.create"),
            ("UPDATE quote SET price = 1 WHERE s = 'x'", "quote.update"),
            ("DELETE FROM holding WHERE id = 3", "holding.delete"),
        ];
        for (sql, expected) in cases {
            let (kind, table) = classify(sql).unwrap_or_else(|| panic!("unclassified: {sql}"));
            assert_eq!(format!("{table}.{}", kind.label()), expected, "{sql}");
        }
        assert!(classify("CREATE TABLE t (a INT PRIMARY KEY)").is_none());
        assert!(classify("").is_none());
        assert!(classify("SELECT 1").is_none(), "no FROM clause");
    }

    #[test]
    fn statement_class_labels_spans() {
        assert_eq!(
            statement_class("SELECT a FROM account WHERE x = 1"),
            "account.read"
        );
        assert_eq!(
            statement_class("UPDATE quote SET price = 1 WHERE s = 'x'"),
            "quote.update"
        );
        assert_eq!(statement_class("CREATE TABLE t (a INT PRIMARY KEY)"), "");
    }
}
