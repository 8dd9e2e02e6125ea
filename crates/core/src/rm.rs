//! The optimistic SLI resource manager.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sli_component::{EjbResult, Home, ResourceManager, TxContext};
use sli_simnet::Clock;
use sli_telemetry::{Counter, HistoryEvent, HistoryImage, HistoryLog, Registry};

use crate::commit::{CommitOutcome, CommitRequest, EntryKind};
use crate::committer::{conflict_error, memento_digest, Committer};
use crate::store::CommonStore;

/// Commit/abort counters for one cache-enabled application server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RmStats {
    /// Application transactions that validated and committed.
    pub commits: u64,
    /// Transactions aborted by optimistic validation.
    pub conflicts: u64,
    /// Transactions that touched no persistent state (no round trip).
    pub empty: u64,
}

/// The optimistic replacement for the pessimistic JDBC resource manager
/// (§2.3): transactions run entirely against transient state; at commit the
/// collected before/after images are handed to a [`Committer`] — directly
/// against the database in the combined configuration, or to the back-end
/// server in the split configuration.
pub struct SliResourceManager {
    origin: u32,
    committer: Arc<dyn Committer>,
    store: Arc<CommonStore>,
    /// Stamps each commit request with a per-origin transaction id (starting
    /// at 1; 0 means "unstamped"), so a committer reached over a lossy path
    /// can deduplicate retried requests.
    next_txn: AtomicU64,
    commits: Counter,
    conflicts: Counter,
    empty: Counter,
    /// Optional edge-side history recorder for the consistency checker.
    history: Option<(Arc<HistoryLog>, Arc<Clock>)>,
}

impl std::fmt::Debug for SliResourceManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SliResourceManager")
            .field("origin", &self.origin)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl SliResourceManager {
    /// Creates a resource manager for the edge identified by `origin`,
    /// committing through `committer` and caching into `store`.
    pub fn new(
        origin: u32,
        committer: Arc<dyn Committer>,
        store: Arc<CommonStore>,
    ) -> SliResourceManager {
        SliResourceManager {
            origin,
            committer,
            store,
            next_txn: AtomicU64::new(1),
            commits: Counter::new(),
            conflicts: Counter::new(),
            empty: Counter::new(),
            history: None,
        }
    }

    /// Records one [`HistoryEvent::Commit`] per application transaction
    /// into `log` (timestamped from `clock`): the full before/after
    /// footprint the edge submitted, with memento digests, plus the
    /// outcome seen at the edge. This is the edge-side half of the
    /// histories `slicheck` checks.
    pub fn with_history(mut self, log: Arc<HistoryLog>, clock: Arc<Clock>) -> SliResourceManager {
        self.history = Some((log, clock));
        self
    }

    /// Records the RM-side view of `request`'s outcome, if recording is on.
    fn record_commit(&self, request: &CommitRequest, outcome: &str) {
        let Some((log, clock)) = &self.history else {
            return;
        };
        let entries = request
            .entries
            .iter()
            .map(|entry| {
                let (kind, before, after) = match &entry.kind {
                    EntryKind::Read { before } => ("read", Some(before), None),
                    EntryKind::Update { before, after } => ("update", Some(before), Some(after)),
                    EntryKind::Create { after } => ("create", None, Some(after)),
                    EntryKind::Remove { before } => ("remove", Some(before), None),
                };
                HistoryImage {
                    bean: entry.bean.to_string(),
                    key: entry.key.to_string(),
                    kind: kind.to_owned(),
                    before: before.map(memento_digest),
                    after: after.map(memento_digest),
                }
            })
            .collect();
        log.record(HistoryEvent::Commit {
            origin: request.origin,
            txn_id: request.txn_id,
            outcome: outcome.to_owned(),
            entries,
            t_us: clock.now().as_micros(),
        });
    }

    /// Counter snapshot.
    pub fn stats(&self) -> RmStats {
        RmStats {
            commits: self.commits.get(),
            conflicts: self.conflicts.get(),
            empty: self.empty.get(),
        }
    }

    /// Attaches the transaction counters to `registry` under
    /// `{prefix}.commits`, `.conflicts` and `.empty`.
    pub fn register_with(&self, registry: &Registry, prefix: &str) {
        registry.attach_counter(format!("{prefix}.commits"), &self.commits);
        registry.attach_counter(format!("{prefix}.conflicts"), &self.conflicts);
        registry.attach_counter(format!("{prefix}.empty"), &self.empty);
    }
}

impl ResourceManager for SliResourceManager {
    fn begin(&self, _ctx: &mut TxContext) -> EjbResult<()> {
        // Optimistic: nothing to acquire up front.
        Ok(())
    }

    fn commit(&self, ctx: &mut TxContext, _homes: &[Arc<dyn Home>]) -> EjbResult<()> {
        let txn_id = self.next_txn.fetch_add(1, Ordering::Relaxed);
        let request = CommitRequest::from_context(self.origin, txn_id, ctx);
        if request.entries.is_empty() {
            self.empty.inc();
            self.record_commit(&request, "empty");
            return Ok(());
        }
        let outcome = match self.committer.commit(&request) {
            Ok(outcome) => outcome,
            Err(e) => {
                self.record_commit(&request, "error");
                return Err(e);
            }
        };
        match &outcome {
            CommitOutcome::Committed => {
                // Inter-transaction caching: refresh the common store with
                // this transaction's committed after-images.
                for entry in &request.entries {
                    match &entry.kind {
                        EntryKind::Update { after, .. } | EntryKind::Create { after } => {
                            self.store.put(after.clone());
                        }
                        EntryKind::Remove { .. } => {
                            self.store.invalidate(&entry.bean, &entry.key);
                        }
                        EntryKind::Read { .. } => {}
                    }
                }
                self.commits.inc();
                self.record_commit(&request, "committed");
                Ok(())
            }
            CommitOutcome::Conflict { .. } => {
                // The images this transaction observed are suspect: drop
                // them so the retry re-faults fresh state.
                for entry in &request.entries {
                    self.store.invalidate(&entry.bean, &entry.key);
                }
                self.conflicts.inc();
                self.record_commit(&request, "conflict");
                Err(conflict_error(&outcome).expect("conflict variant"))
            }
        }
    }

    fn rollback(&self, _ctx: &mut TxContext) -> EjbResult<()> {
        // Transient state dies with the context; nothing persistent to undo.
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::committer::CombinedCommitter;
    use crate::home::SliHome;
    use crate::registry::MetaRegistry;
    use crate::source::DirectSource;
    use sli_component::{Container, EjbError, EntityMeta, Memento};
    use sli_datastore::{ColumnType, Database, SqlConnection, Value};

    fn meta() -> EntityMeta {
        EntityMeta::new("Account", "account", "userid", ColumnType::Varchar)
            .field("balance", ColumnType::Double)
    }

    /// A full cache-enabled container over a shared database, as one edge
    /// server would host it.
    fn edge(
        db: &Arc<Database>,
        origin: u32,
    ) -> (Container, Arc<CommonStore>, Arc<SliResourceManager>) {
        let registry = MetaRegistry::new().with(meta());
        let store = CommonStore::new();
        let source = Arc::new(DirectSource::new(Box::new(db.connect()), registry.clone()));
        let committer = Arc::new(CombinedCommitter::new(Box::new(db.connect()), registry));
        let rm = Arc::new(SliResourceManager::new(
            origin,
            committer,
            Arc::clone(&store),
        ));
        let mut container = Container::new(Arc::clone(&rm) as Arc<dyn ResourceManager>);
        container.register(Arc::new(SliHome::new(meta(), Arc::clone(&store), source)));
        (container, store, rm)
    }

    fn setup_db() -> Arc<Database> {
        let db = Database::new();
        MetaRegistry::new().with(meta()).create_schema(&db).unwrap();
        let mut conn = db.connect();
        conn.execute(
            "INSERT INTO account (userid, balance) VALUES ('u1', 100.0)",
            &[],
        )
        .unwrap();
        db
    }

    #[test]
    fn full_transaction_through_cache_commits() {
        let db = setup_db();
        let (container, store, rm) = edge(&db, 1);
        container
            .with_transaction(|ctx, c| {
                let home = c.home("Account")?;
                let r = home.find_by_primary_key(ctx, &Value::from("u1"))?;
                let bal = home.get_field(ctx, r.primary_key(), "balance")?;
                home.set_field(
                    ctx,
                    r.primary_key(),
                    "balance",
                    Value::from(bal.as_double().unwrap() + 50.0),
                )?;
                Ok(())
            })
            .unwrap();
        assert_eq!(rm.stats().commits, 1);
        // persistent state updated
        let mut conn = db.connect();
        let rs = conn
            .execute("SELECT balance FROM account WHERE userid = 'u1'", &[])
            .unwrap();
        assert_eq!(rs.rows()[0][0], Value::from(150.0));
        // common store refreshed with the after-image
        assert_eq!(
            store
                .get("Account", &Value::from("u1"))
                .unwrap()
                .get("balance"),
            Some(&Value::from(150.0))
        );
    }

    #[test]
    fn conflicting_edges_one_aborts_and_retry_succeeds() {
        let db = setup_db();
        let (edge1, _s1, rm1) = edge(&db, 1);
        let (edge2, _s2, rm2) = edge(&db, 2);

        // Both edges read the account (priming both common stores).
        for e in [&edge1, &edge2] {
            e.with_transaction(|ctx, c| {
                let home = c.home("Account")?;
                home.get_field(ctx, &Value::from("u1"), "balance")?;
                Ok(())
            })
            .unwrap();
        }

        // Edge 1 commits a debit.
        edge1
            .with_transaction(|ctx, c| {
                let home = c.home("Account")?;
                home.set_field(ctx, &Value::from("u1"), "balance", Value::from(40.0))?;
                Ok(())
            })
            .unwrap();

        // Edge 2's cached image is now stale (no invalidation in the
        // combined configuration): its write must abort.
        let result = edge2.with_transaction(|ctx, c| {
            let home = c.home("Account")?;
            home.set_field(ctx, &Value::from("u1"), "balance", Value::from(0.0))?;
            Ok(())
        });
        assert!(matches!(result, Err(EjbError::OptimisticConflict { .. })));
        assert_eq!(rm2.stats().conflicts, 1);

        // The abort invalidated the stale entry, so the retry re-faults
        // fresh state and succeeds.
        edge2
            .with_retrying_transaction(3, |ctx, c| {
                let home = c.home("Account")?;
                let bal = home
                    .get_field(ctx, &Value::from("u1"), "balance")?
                    .as_double()
                    .unwrap();
                home.set_field(ctx, &Value::from("u1"), "balance", Value::from(bal - 40.0))?;
                Ok(())
            })
            .unwrap();
        let mut conn = db.connect();
        let rs = conn
            .execute("SELECT balance FROM account WHERE userid = 'u1'", &[])
            .unwrap();
        assert_eq!(rs.rows()[0][0], Value::from(0.0));
        assert_eq!(rm1.stats().commits, 2);
    }

    #[test]
    fn read_only_transactions_validate_but_commit() {
        let db = setup_db();
        let (container, _store, rm) = edge(&db, 1);
        container
            .with_transaction(|ctx, c| {
                c.home("Account")?
                    .get_field(ctx, &Value::from("u1"), "balance")?;
                Ok(())
            })
            .unwrap();
        assert_eq!(rm.stats().commits, 1);
    }

    #[test]
    fn stale_read_only_transaction_aborts() {
        let db = setup_db();
        let (container, store, rm) = edge(&db, 1);
        // Prime the cache.
        container
            .with_transaction(|ctx, c| {
                c.home("Account")?
                    .get_field(ctx, &Value::from("u1"), "balance")?;
                Ok(())
            })
            .unwrap();
        // External writer changes the row under the cache.
        let mut conn = db.connect();
        conn.execute("UPDATE account SET balance = 1.0 WHERE userid = 'u1'", &[])
            .unwrap();
        // Read-only transaction over the stale cache must abort: the
        // isolation contract covers reads too (§2.3).
        let result = container.with_transaction(|ctx, c| {
            c.home("Account")?
                .get_field(ctx, &Value::from("u1"), "balance")?;
            Ok(())
        });
        assert!(matches!(result, Err(EjbError::OptimisticConflict { .. })));
        assert_eq!(rm.stats().conflicts, 1);
        assert!(store.get("Account", &Value::from("u1")).is_none());
    }

    #[test]
    fn empty_transaction_makes_no_round_trip() {
        let db = setup_db();
        let (container, _store, rm) = edge(&db, 1);
        db.reset_trace();
        container.with_transaction(|_ctx, _c| Ok(())).unwrap();
        assert_eq!(db.trace_snapshot().statements, 0);
        assert_eq!(rm.stats().empty, 1);
    }

    #[test]
    fn create_and_remove_flow_through_commit() {
        let db = setup_db();
        let (container, _store, _rm) = edge(&db, 1);
        container
            .with_transaction(|ctx, c| {
                let home = c.home("Account")?;
                home.create(
                    ctx,
                    Memento::new("Account", Value::from("u2")).with_field("balance", 5.0),
                )?;
                Ok(())
            })
            .unwrap();
        assert_eq!(db.row_count("account").unwrap(), 2);
        container
            .with_transaction(|ctx, c| {
                let home = c.home("Account")?;
                home.remove(ctx, &Value::from("u2"))?;
                Ok(())
            })
            .unwrap();
        assert_eq!(db.row_count("account").unwrap(), 1);
    }

    #[test]
    fn duplicate_create_from_two_edges_conflicts_at_commit() {
        let db = setup_db();
        let (edge1, _s1, _rm1) = edge(&db, 1);
        let (edge2, _s2, _rm2) = edge(&db, 2);
        let create = |c: &Container| {
            c.with_transaction(|ctx, cc| {
                cc.home("Account")?.create(
                    ctx,
                    Memento::new("Account", Value::from("fresh")).with_field("balance", 1.0),
                )?;
                Ok(())
            })
        };
        create(&edge1).unwrap();
        let result = create(&edge2);
        assert!(matches!(result, Err(EjbError::OptimisticConflict { .. })));
    }
}
