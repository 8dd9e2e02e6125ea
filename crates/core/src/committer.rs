//! Optimistic validation and the combined-servers committer.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use parking_lot::Mutex;
use sli_component::{EjbError, EjbResult, EntityMeta, Memento};
use sli_datastore::{BatchOutcome, BatchStatement, DbResult, ResultSet, SqlConnection, Value};
use sli_simnet::Clock;
use sli_telemetry::{
    ConflictInfo, Counter, HistoryEvent, HistoryLog, OpenSpan, Registry, SpanDetail, SpanOutcome,
    Timeline, Tracer,
};

use crate::commit::{CommitEntry, CommitOutcome, CommitRequest, EntryKind};
use crate::registry::MetaRegistry;

/// How many finished transactions a committer remembers for replay
/// deduplication. Old entries fall out FIFO; the window only has to outlive
/// a retry burst (a handful of resends within one call's retry budget), so
/// a small bound is plenty.
pub(crate) const COMPLETED_TXN_CAPACITY: usize = 1024;

/// Bounded FIFO memory of finished transactions, keyed by `(origin,
/// txn_id)`.
///
/// Commit requests are retried over lossy paths with *identical* bytes, so
/// a committer that already applied `(origin, txn_id)` must recognise the
/// replay and answer with the recorded [`CommitOutcome`] instead of
/// validating (and applying!) the images a second time. Requests with
/// `txn_id == 0` are unstamped and bypass the table.
#[derive(Debug)]
pub(crate) struct CompletedTxns {
    outcomes: HashMap<(u32, u64), CommitOutcome>,
    order: VecDeque<(u32, u64)>,
    capacity: usize,
}

impl CompletedTxns {
    pub(crate) fn new(capacity: usize) -> CompletedTxns {
        CompletedTxns {
            outcomes: HashMap::new(),
            order: VecDeque::new(),
            capacity: capacity.max(1),
        }
    }

    /// The recorded outcome for `request`, if it already ran here.
    pub(crate) fn lookup(&self, request: &CommitRequest) -> Option<CommitOutcome> {
        if request.txn_id == 0 {
            return None;
        }
        self.outcomes
            .get(&(request.origin, request.txn_id))
            .cloned()
    }

    /// Records the outcome of a freshly processed request.
    pub(crate) fn record(&mut self, request: &CommitRequest, outcome: &CommitOutcome) {
        if request.txn_id == 0 {
            return;
        }
        let id = (request.origin, request.txn_id);
        if self.outcomes.insert(id, outcome.clone()).is_none() {
            self.order.push_back(id);
            if self.order.len() > self.capacity {
                if let Some(evicted) = self.order.pop_front() {
                    self.outcomes.remove(&evicted);
                }
            }
        }
    }

    /// Replaces the table's contents with `Committed` outcomes for `pairs`,
    /// oldest first — the recovery path: committed stamps replayed from the
    /// datastore's WAL reseed the dedup memory a crash wiped, so an edge
    /// retrying an unacked-but-durable commit gets a replay, not a double
    /// apply. The FIFO bound applies as usual, evicting the oldest stamps
    /// when the log's committed prefix outgrows the table.
    pub(crate) fn reseed(&mut self, pairs: &[(u32, u64)]) {
        self.outcomes.clear();
        self.order.clear();
        for &(origin, txn_id) in pairs {
            if txn_id == 0 {
                continue;
            }
            let id = (origin, txn_id);
            if self.outcomes.insert(id, CommitOutcome::Committed).is_none() {
                self.order.push_back(id);
                if self.order.len() > self.capacity {
                    if let Some(evicted) = self.order.pop_front() {
                        self.outcomes.remove(&evicted);
                    }
                }
            }
        }
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.outcomes.len()
    }
}

/// Counter snapshot of one committer's lifetime activity — the same shape
/// for the combined committer and the back-end server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CommitterStats {
    /// Requests that validated and applied.
    pub committed: u64,
    /// Requests rejected by optimistic validation.
    pub conflicts: u64,
    /// Requests that failed with a datastore/transport error.
    pub errors: u64,
    /// Retried requests answered from the replay table without
    /// re-validating.
    pub dedup_replays: u64,
}

/// Registry-backed counters behind [`CommitterStats`], shared by both
/// commit points.
#[derive(Debug, Clone, Default)]
pub(crate) struct CommitMetrics {
    pub(crate) committed: Counter,
    pub(crate) conflicts: Counter,
    pub(crate) errors: Counter,
    pub(crate) dedup_replays: Counter,
}

impl CommitMetrics {
    pub(crate) fn register_with(&self, registry: &Registry, prefix: &str) {
        registry.attach_counter(format!("{prefix}.committed"), &self.committed);
        registry.attach_counter(format!("{prefix}.conflicts"), &self.conflicts);
        registry.attach_counter(format!("{prefix}.errors"), &self.errors);
        registry.attach_counter(format!("{prefix}.dedup_replays"), &self.dedup_replays);
    }

    pub(crate) fn timeline_into(&self, timeline: &Timeline, prefix: &str) {
        timeline.track_counter(format!("{prefix}.committed"), &self.committed);
        timeline.track_counter(format!("{prefix}.conflicts"), &self.conflicts);
        timeline.track_counter(format!("{prefix}.errors"), &self.errors);
        timeline.track_counter(format!("{prefix}.dedup_replays"), &self.dedup_replays);
    }

    pub(crate) fn snapshot(&self) -> CommitterStats {
        CommitterStats {
            committed: self.committed.get(),
            conflicts: self.conflicts.get(),
            errors: self.errors.get(),
            dedup_replays: self.dedup_replays.get(),
        }
    }

    /// Buckets a fresh (non-replayed) commit result into a counter.
    pub(crate) fn observe(&self, result: &EjbResult<CommitOutcome>) {
        match result {
            Ok(CommitOutcome::Committed) => self.committed.inc(),
            Ok(CommitOutcome::Conflict { .. }) => self.conflicts.inc(),
            Err(_) => self.errors.inc(),
        }
    }
}

/// Maps a commit result onto the span outcome vocabulary.
pub(crate) fn span_outcome(result: &EjbResult<CommitOutcome>) -> SpanOutcome {
    match result {
        Ok(CommitOutcome::Committed) => SpanOutcome::Committed,
        Ok(CommitOutcome::Conflict { .. }) => SpanOutcome::Conflict,
        Err(_) => SpanOutcome::Error,
    }
}

/// A clock + [`Tracer`] pair for recording commit-protocol spans with
/// causal trace context.
#[derive(Clone)]
pub(crate) struct CommitTracer {
    tracer: Arc<Tracer>,
    clock: Arc<Clock>,
}

impl std::fmt::Debug for CommitTracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CommitTracer")
            .field("events", &self.tracer.log().len())
            .finish_non_exhaustive()
    }
}

impl CommitTracer {
    pub(crate) fn new(tracer: Arc<Tracer>, clock: Arc<Clock>) -> CommitTracer {
        CommitTracer { tracer, clock }
    }

    /// Current simulated time, for span starts.
    pub(crate) fn now_us(&self) -> u64 {
        self.clock.now().as_micros()
    }

    /// Opens a commit-protocol span as a child of the caller's current
    /// trace context (the servlet/RPC span in a wired deployment).
    pub(crate) fn begin(&self, op: &'static str) -> OpenSpan {
        self.tracer.begin(op)
    }

    /// Opens a server-side span, preferring the in-process context and
    /// falling back to the wire-carried `trace_id` for detached work.
    pub(crate) fn begin_rpc_server(&self, op: &'static str, wire_trace_id: u64) -> OpenSpan {
        self.tracer.begin_rpc_server(op, wire_trace_id)
    }

    /// The trace id of the currently open span, or 0 outside any trace.
    pub(crate) fn current_trace_id(&self) -> u64 {
        self.tracer.current().map(|c| c.trace_id).unwrap_or(0)
    }

    /// Abandons `span` without recording it (e.g. a fan-out that notified
    /// nobody).
    pub(crate) fn cancel(&self, span: OpenSpan) {
        self.tracer.cancel(span);
    }

    /// Closes `span` without a commit request in hand (server dispatch
    /// spans for fetch/query traffic).
    pub(crate) fn finish_raw(&self, span: OpenSpan, start_us: u64, outcome: SpanOutcome) {
        self.tracer
            .finish(span, 0, 0, start_us, self.now_us(), outcome);
    }

    /// Closes `span`, stamping the request's origin and txn identity.
    pub(crate) fn finish(
        &self,
        span: OpenSpan,
        request: &CommitRequest,
        start_us: u64,
        outcome: SpanOutcome,
    ) {
        self.tracer.finish(
            span,
            request.origin,
            request.txn_id,
            start_us,
            self.now_us(),
            outcome,
        );
    }

    /// Records a zero-duration `occ.conflict` forensics span under the
    /// currently open commit span.
    pub(crate) fn record_conflict(&self, request: &CommitRequest, info: ConflictInfo) {
        let span = self.tracer.begin("occ.conflict");
        let now = self.now_us();
        self.tracer.finish_with(
            span,
            request.origin,
            request.txn_id,
            now,
            now,
            SpanOutcome::Conflict,
            Some(SpanDetail::Conflict(info)),
        );
    }
}

/// Labels a commit result with the history-outcome vocabulary.
pub(crate) fn outcome_label(result: &EjbResult<CommitOutcome>) -> &'static str {
    match result {
        Ok(CommitOutcome::Committed) => "committed",
        Ok(CommitOutcome::Conflict { .. }) => "conflict",
        Err(_) => "error",
    }
}

/// A [`HistoryLog`] + clock pair both commit points use to record their
/// apply-side [`HistoryEvent`]s for the schedule-exploring checker.
#[derive(Clone)]
pub(crate) struct CommitHistory {
    log: Arc<HistoryLog>,
    clock: Arc<Clock>,
}

impl std::fmt::Debug for CommitHistory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CommitHistory")
            .field("events", &self.log.len())
            .finish_non_exhaustive()
    }
}

impl CommitHistory {
    pub(crate) fn new(log: Arc<HistoryLog>, clock: Arc<Clock>) -> CommitHistory {
        CommitHistory { log, clock }
    }

    /// Records the committer-side outcome of a *fresh* request (dedup
    /// replays answer from memory and are not re-applied, so they do not
    /// appear in the history). `csn` is the datastore's commit-order
    /// witness after the apply, or 0 when it is unobservable.
    pub(crate) fn record_apply(
        &self,
        request: &CommitRequest,
        result: &EjbResult<CommitOutcome>,
        csn: u64,
    ) {
        self.log.record(HistoryEvent::Apply {
            origin: request.origin,
            txn_id: request.txn_id,
            csn,
            outcome: outcome_label(result).to_owned(),
            t_us: self.clock.now().as_micros(),
        });
    }
}

/// FNV-1a digest over a memento's key and fields — a compact identity so
/// abort forensics (and the serializability checker's version chains) can
/// say *which version* of a bean was expected vs found without shipping
/// whole images around.
pub fn memento_digest(m: &Memento) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x100_0000_01b3;
    let mut hash = OFFSET;
    let mut eat = |s: &str| {
        for b in s.bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(PRIME);
        }
        hash ^= 0xff;
        hash = hash.wrapping_mul(PRIME);
    };
    eat(m.bean());
    eat(&m.primary_key().to_string());
    for (name, value) in m.fields() {
        eat(name);
        eat(&value.to_string());
    }
    hash
}

/// Builds the forensic record for a validation failure: what before-image
/// the transaction expected, what the store actually held, and (when both
/// images are in hand) the first field whose value diverged.
pub(crate) fn conflict_info(
    entry: &CommitEntry,
    expected: Option<&Memento>,
    found: Option<&Memento>,
) -> ConflictInfo {
    let field = match (expected, found) {
        (Some(before), Some(current)) => before
            .fields()
            .iter()
            .find(|(name, value)| current.get(name) != Some(value))
            .map(|(name, _)| name.clone()),
        _ => None,
    };
    ConflictInfo {
        bean: entry.bean.clone(),
        key: entry.key.to_string(),
        field,
        expected_digest: expected.map(memento_digest).unwrap_or(0),
        found_digest: found.map(memento_digest),
    }
}

/// Runs the paper's optimistic validation + apply against `conn`, inside a
/// single datastore transaction:
///
/// 1. for every entry, fetch the current persistent image;
/// 2. `Read`/`Update`/`Remove` entries require it to equal the
///    transaction's before-image **by value**; `Create` entries require it
///    to be absent;
/// 3. on the first mismatch, roll back and report the conflict;
/// 4. otherwise apply the after-images (UPDATE/INSERT/DELETE) and commit.
///
/// The request is processed in rounds of distinct `(bean, key)` — one
/// round for every request a [`TxContext`](sli_component::TxContext)
/// builds, since enlistment is keyed. A round costs **two** round trips on
/// a wired connection whatever its size: one fetches every image, the
/// second applies every after-image. Only duplicate keys force another
/// round, so that no fetch can miss a write an earlier entry made to the
/// same row. All of a round's images are fetched before any of its entries
/// validates, so a fetch failure on a later entry (a deadlock, say)
/// surfaces as an error even when an earlier entry would have conflicted
/// first; the applied state and the committed/not-committed outcome are
/// unaffected.
///
/// The same function backs both deployment flavors' split-style commits:
/// the [`BackendServer`](crate::BackendServer) runs it over its co-located
/// connection so the round trips are cheap, where the
/// [`CombinedCommitter`] pays the high-latency path per access — which is
/// precisely the performance distinction the paper measures between
/// ES/RDB-cached and ES/RBES.
///
/// # Errors
/// Datastore failures (including deadlocks) surface as `Err`; a validation
/// failure is *not* an error — it returns `Ok(CommitOutcome::Conflict)`.
pub fn validate_and_apply(
    conn: &mut dyn SqlConnection,
    registry: &MetaRegistry,
    request: &CommitRequest,
) -> EjbResult<CommitOutcome> {
    validate_and_apply_forensic(conn, registry, request, &mut None, false)
}

/// [`validate_and_apply`] with an out-parameter that receives the
/// [`ConflictInfo`] forensics record when validation fails.
///
/// `unchecked_writes` is the checker's seeded bug (`slicheck
/// --inject-bug`): when set, `Update` entries skip before-image validation
/// and apply blindly — the classic lost-update anomaly optimistic
/// validation exists to prevent. Never set in production paths.
pub(crate) fn validate_and_apply_forensic(
    conn: &mut dyn SqlConnection,
    registry: &MetaRegistry,
    request: &CommitRequest,
    forensics: &mut Option<ConflictInfo>,
    unchecked_writes: bool,
) -> EjbResult<CommitOutcome> {
    let single = request.entries.len() == 1;
    in_transaction(conn, true, |conn| {
        for round in distinct_key_rounds(&request.entries) {
            let metas = metas_of(registry, round)?;
            let fetches: Vec<BatchStatement> = round
                .iter()
                .zip(&metas)
                .map(|(e, meta)| BatchStatement::new(meta.load_sql(), vec![e.key.clone()]))
                .collect();
            let fetched = ship(conn, &fetches, single)?.into_result()?;
            let mut writes = Vec::new();
            for ((entry, meta), rs) in round.iter().zip(&metas).zip(&fetched) {
                if let Some(info) = judge(entry, meta, rs, false, unchecked_writes) {
                    *forensics = Some(info);
                    return Ok(conflict_on(entry));
                }
                writes.extend(write_statement(entry, meta, false));
            }
            if !writes.is_empty() {
                ship(conn, &writes, single)?.into_result()?;
            }
        }
        Ok(CommitOutcome::Committed)
    })
}

/// The paper's *combined-servers* commit: "one [database access] per
/// memento image". Reads validate with a `SELECT` + compare; writes use
/// *conditional* statements whose `WHERE` clause encodes the whole
/// before-image, so validation and apply are a single statement:
///
/// * `Update` → `UPDATE … SET after WHERE key AND before-image` (0 rows
///   affected ⇒ conflict);
/// * `Create` → plain `INSERT` (duplicate key ⇒ conflict);
/// * `Remove` → `DELETE … WHERE key AND before-image` (0 rows ⇒ conflict).
///
/// A transaction touching a single bean commits in **one** autocommitted
/// statement; larger footprints pay `BEGIN` + one statement per image +
/// `COMMIT`, the statements travelling together in one round trip. The
/// server runs them strictly in request order inside the open transaction,
/// so a conditional `WHERE` clause observes earlier entries' writes; the
/// first validation failure in the executed prefix is the conflict.
/// Statements past a conflicting one may have executed — the rollback
/// undoes them.
///
/// Semantically equivalent to [`validate_and_apply`]: both compare every
/// before-image by value (a property-based test in the suite pins both to
/// a one-entry-at-a-time model).
///
/// # Errors
/// Datastore failures; validation failure returns `Ok(Conflict)`.
pub fn validate_and_apply_per_image(
    conn: &mut dyn SqlConnection,
    registry: &MetaRegistry,
    request: &CommitRequest,
) -> EjbResult<CommitOutcome> {
    validate_and_apply_per_image_forensic(conn, registry, request, &mut None, false)
}

/// [`validate_and_apply_per_image`] with an out-parameter that receives the
/// [`ConflictInfo`] forensics record when validation fails. Conditional
/// writes detect a conflict from "0 rows affected" without ever seeing the
/// winning image, so their records carry `found_digest: None`.
///
/// `unchecked_writes` is the checker's seeded bug: `Update` entries lose
/// their before-image `WHERE` clause and apply unconditionally. Never set
/// in production paths.
pub(crate) fn validate_and_apply_per_image_forensic(
    conn: &mut dyn SqlConnection,
    registry: &MetaRegistry,
    request: &CommitRequest,
    forensics: &mut Option<ConflictInfo>,
    unchecked_writes: bool,
) -> EjbResult<CommitOutcome> {
    let single = request.entries.len() == 1;
    in_transaction(conn, !single, |conn| {
        let metas = metas_of(registry, &request.entries)?;
        let stmts: Vec<BatchStatement> = request
            .entries
            .iter()
            .zip(&metas)
            .map(|(e, meta)| {
                write_statement(e, meta, !unchecked_writes)
                    .unwrap_or_else(|| BatchStatement::new(meta.load_sql(), vec![e.key.clone()]))
            })
            .collect();
        let outcome = ship(conn, &stmts, single)?;
        for ((entry, meta), rs) in request.entries.iter().zip(&metas).zip(&outcome.results) {
            if let Some(info) = judge(entry, meta, rs, true, unchecked_writes) {
                *forensics = Some(info);
                return Ok(conflict_on(entry));
            }
        }
        // No conflict in the prefix: the statement that stopped the batch
        // (at index `results.len()`) decides. A duplicate-key INSERT is a
        // Create losing its key race — a conflict; anything else is a real
        // error.
        if let Some(err) = outcome.error {
            if let Some(entry) = request.entries.get(outcome.results.len()) {
                if matches!(entry.kind, EntryKind::Create { .. })
                    && matches!(err, sli_datastore::DbError::DuplicateKey(_))
                {
                    *forensics = Some(conflict_info(entry, None, None));
                    return Ok(conflict_on(entry));
                }
            }
            return Err(err.into());
        }
        Ok(CommitOutcome::Committed)
    })
}

/// Runs `body` as one datastore transaction: commit when it reports
/// `Committed`, roll back on a conflict or an error. A body that is a
/// single self-validating statement passes `explicit = false` and runs
/// autocommitted, with no `BEGIN`/`COMMIT` round trips.
fn in_transaction(
    conn: &mut dyn SqlConnection,
    explicit: bool,
    body: impl FnOnce(&mut dyn SqlConnection) -> EjbResult<CommitOutcome>,
) -> EjbResult<CommitOutcome> {
    if !explicit {
        return body(conn);
    }
    conn.begin()?;
    match body(conn) {
        Ok(CommitOutcome::Committed) => {
            conn.commit()?;
            Ok(CommitOutcome::Committed)
        }
        Ok(conflict) => {
            conn.rollback()?;
            Ok(conflict)
        }
        Err(e) => {
            let _ = conn.rollback();
            Err(e)
        }
    }
}

/// Judges one entry against the result set its statement produced: `None`
/// passes, `Some` is the conflict's forensic record.
///
/// A fetched image (every `Read`, and every entry when the writes are not
/// `conditional`) must equal the before-image by value; a `Create` must
/// find nothing. A conditional write validated inside its own statement:
/// zero affected rows means the before-image no longer matched, and the
/// winning image was never seen. (An executed conditional `INSERT` has
/// succeeded; losing the key race is the statement's own duplicate-key
/// error.)
fn judge(
    entry: &CommitEntry,
    meta: &EntityMeta,
    rs: &ResultSet,
    conditional: bool,
    unchecked_writes: bool,
) -> Option<ConflictInfo> {
    let expected = match &entry.kind {
        EntryKind::Update { .. } if unchecked_writes => return None,
        EntryKind::Read { before }
        | EntryKind::Update { before, .. }
        | EntryKind::Remove { before } => Some(before),
        EntryKind::Create { .. } => None,
    };
    if conditional && !matches!(entry.kind, EntryKind::Read { .. }) {
        let lost = expected.is_some() && rs.affected_rows() == 0;
        return lost.then(|| conflict_info(entry, expected, None));
    }
    let current = rs.rows().first().map(|row| meta.memento_from_row(row));
    (current.as_ref() != expected).then(|| conflict_info(entry, expected, current.as_ref()))
}

/// The statement applying `entry`'s after-image (`None` for a pure read).
/// With `conditional` the `WHERE` clause of an `UPDATE`/`DELETE` carries
/// the whole before-image, so the statement validates and applies at once.
fn write_statement(
    entry: &CommitEntry,
    meta: &EntityMeta,
    conditional: bool,
) -> Option<BatchStatement> {
    let (sql, params) = match &entry.kind {
        EntryKind::Read { .. } => return None,
        EntryKind::Update { before, after } if conditional => {
            meta.conditional_update_sql(before, after)
        }
        EntryKind::Update { after, .. } => (meta.update_sql(), meta.update_params(after)),
        EntryKind::Create { after } => (meta.insert_sql(), meta.insert_params(after)),
        EntryKind::Remove { before } if conditional => meta.conditional_delete_sql(before),
        EntryKind::Remove { .. } => (meta.delete_sql(), vec![entry.key.clone()]),
    };
    Some(BatchStatement::new(sql, params))
}

/// One round trip for `stmts`. A request that is a single entry ships each
/// access as a plain statement; anything larger as one statement batch.
/// (The distinction is visible on a wired connection, which frames the two
/// differently.) A plain statement's failure is reported in the outcome,
/// like a batch's.
fn ship(
    conn: &mut dyn SqlConnection,
    stmts: &[BatchStatement],
    single: bool,
) -> DbResult<BatchOutcome> {
    if !single {
        return conn.execute_batch(stmts);
    }
    Ok(match conn.execute(&stmts[0].sql, &stmts[0].params) {
        Ok(rs) => BatchOutcome {
            results: vec![rs],
            error: None,
        },
        Err(e) => BatchOutcome {
            results: Vec::new(),
            error: Some(e),
        },
    })
}

/// Splits `entries` into consecutive runs in which every `(bean, key)` is
/// distinct, cutting only where an entry repeats a key of the current run.
/// (Footprints are a handful of entries, so the scan is linear per entry.)
fn distinct_key_rounds(entries: &[CommitEntry]) -> Vec<&[CommitEntry]> {
    let mut rounds = Vec::new();
    let mut start = 0;
    for (i, e) in entries.iter().enumerate() {
        let round = &entries[start..i];
        if round.iter().any(|p| p.bean == e.bean && p.key == e.key) {
            rounds.push(round);
            start = i;
        }
    }
    if start < entries.len() {
        rounds.push(&entries[start..]);
    }
    rounds
}

/// Deployment metadata of every entry, in order.
fn metas_of<'r>(
    registry: &'r MetaRegistry,
    entries: &[CommitEntry],
) -> EjbResult<Vec<&'r EntityMeta>> {
    entries.iter().map(|e| registry.meta(&e.bean)).collect()
}

/// The outcome naming `entry` as the one that failed validation.
fn conflict_on(entry: &CommitEntry) -> CommitOutcome {
    CommitOutcome::Conflict {
        bean: entry.bean.clone(),
        key: entry.key.to_string(),
    }
}

/// Fetches the current persistent image of (`meta`, `key`), if any.
pub(crate) fn fetch_current(
    conn: &mut dyn SqlConnection,
    meta: &EntityMeta,
    key: &Value,
) -> EjbResult<Option<Memento>> {
    let rs = conn.execute(&meta.load_sql(), std::slice::from_ref(key))?;
    Ok(rs.rows().first().map(|row| meta.memento_from_row(row)))
}

/// Where a cache-enabled application server sends its transaction state at
/// commit time.
pub trait Committer: Send + Sync {
    /// Validates and applies `request`, returning the outcome.
    ///
    /// # Errors
    /// Transport or datastore failures.
    fn commit(&self, request: &CommitRequest) -> EjbResult<CommitOutcome>;
}

/// The *combined-servers* committer: validation and apply logic co-located
/// with the edge server, driving the (remote) database connection directly.
///
/// Every validation fetch and every write is its own statement on the
/// connection — "the combined-servers configuration requires multiple
/// database server accesses, one per memento image" — so when that
/// connection crosses the delay proxy, commit cost grows with the
/// transaction's footprint. This is the ES/RDB-cached data point of
/// Figures 6/7.
pub struct CombinedCommitter {
    conn: Mutex<Box<dyn SqlConnection + Send>>,
    registry: MetaRegistry,
    completed: Mutex<CompletedTxns>,
    metrics: CommitMetrics,
    tracer: Option<CommitTracer>,
    history: Option<CommitHistory>,
    inject_bug: bool,
}

impl std::fmt::Debug for CombinedCommitter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CombinedCommitter")
            .field("beans", &self.registry.len())
            .finish_non_exhaustive()
    }
}

impl CombinedCommitter {
    /// Creates a committer over `conn` with deployment metadata `registry`.
    pub fn new(conn: Box<dyn SqlConnection + Send>, registry: MetaRegistry) -> CombinedCommitter {
        CombinedCommitter {
            conn: Mutex::new(conn),
            registry,
            completed: Mutex::new(CompletedTxns::new(COMPLETED_TXN_CAPACITY)),
            metrics: CommitMetrics::default(),
            tracer: None,
            history: None,
            inject_bug: false,
        }
    }

    /// Records one span per commit through `tracer`, timestamped from
    /// `clock` (`commit.validate_apply` for fresh requests, `commit.replay`
    /// for deduplicated retries), plus an `occ.conflict` forensics span
    /// when validation rejects a request. Spans join the caller's current
    /// trace context, so commits nest under the servlet span that drove
    /// them.
    pub fn with_tracer(mut self, tracer: Arc<Tracer>, clock: Arc<Clock>) -> CombinedCommitter {
        self.tracer = Some(CommitTracer::new(tracer, clock));
        self
    }

    /// Records an apply-outcome [`HistoryEvent`] per fresh commit into
    /// `log`, timestamped from `clock` and tagged with the datastore's
    /// commit-order witness (when the connection can observe it). This is
    /// the committer-side half of the histories `slicheck` checks.
    pub fn with_history(mut self, log: Arc<HistoryLog>, clock: Arc<Clock>) -> CombinedCommitter {
        self.history = Some(CommitHistory::new(log, clock));
        self
    }

    /// Seeds the deliberate lost-update bug (`slicheck --inject-bug`):
    /// updates apply without their before-image `WHERE` clause. Test
    /// harness only.
    pub fn with_injected_bug(mut self) -> CombinedCommitter {
        self.inject_bug = true;
        self
    }

    /// Attaches the commit counters to `registry` under `{prefix}.committed`,
    /// `.conflicts`, `.errors` and `.dedup_replays`.
    pub fn register_with(&self, registry: &Registry, prefix: &str) {
        self.metrics.register_with(registry, prefix);
    }

    /// Tracks the same commit counters in `timeline` under the
    /// [`CombinedCommitter::register_with`] names.
    pub fn timeline_into(&self, timeline: &Timeline, prefix: &str) {
        self.metrics.timeline_into(timeline, prefix);
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CommitterStats {
        self.metrics.snapshot()
    }

    /// Rebuilds the dedup table from the committed `(origin, txn_id)`
    /// stamps a datastore recovery replayed out of its WAL (commit order,
    /// oldest first). Called after a crash + restart so retried commits
    /// that were durable before the crash dedup instead of double-applying.
    pub fn reseed_completed(&self, pairs: &[(u32, u64)]) {
        self.completed.lock().reseed(pairs);
    }
}

impl Committer for CombinedCommitter {
    fn commit(&self, request: &CommitRequest) -> EjbResult<CommitOutcome> {
        if let Some(outcome) = self.completed.lock().lookup(request) {
            self.metrics.dedup_replays.inc();
            if let Some(t) = &self.tracer {
                let span = t.begin("commit.replay");
                let now = t.now_us();
                t.finish(span, request, now, SpanOutcome::Replayed);
            }
            return Ok(outcome);
        }
        let span = self
            .tracer
            .as_ref()
            .map(|t| (t.begin("commit.validate_apply"), t.now_us()));
        let mut forensics = None;
        let (result, csn) = {
            let mut conn = self.conn.lock();
            // Announce the request's identity so the datastore's WAL commit
            // record carries it and recovery can reseed this dedup table.
            conn.stamp_next_commit(request.origin, request.txn_id);
            let result = validate_and_apply_per_image_forensic(
                conn.as_mut(),
                &self.registry,
                request,
                &mut forensics,
                self.inject_bug,
            );
            let csn = conn.commit_seq().unwrap_or(0);
            (result, csn)
        };
        if let Some(h) = &self.history {
            h.record_apply(request, &result, csn);
        }
        if let Ok(outcome) = &result {
            self.completed.lock().record(request, outcome);
        }
        self.metrics.observe(&result);
        if let Some(t) = &self.tracer {
            if let Some(info) = forensics {
                t.record_conflict(request, info);
            }
            if let Some((span, start_us)) = span {
                t.finish(span, request, start_us, span_outcome(&result));
            }
        }
        result
    }
}

/// Maps a conflict outcome to the error the application sees.
pub(crate) fn conflict_error(outcome: &CommitOutcome) -> Option<EjbError> {
    match outcome {
        CommitOutcome::Committed => None,
        CommitOutcome::Conflict { bean, key } => Some(EjbError::OptimisticConflict {
            bean: bean.clone(),
            key: key.clone(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commit::CommitEntry;
    use sli_component::EntityMeta;
    use sli_datastore::{ColumnType, Database, SqlConnection};
    use std::sync::Arc;

    fn registry() -> MetaRegistry {
        MetaRegistry::new().with(
            EntityMeta::new("Account", "account", "userid", ColumnType::Varchar)
                .field("balance", ColumnType::Double),
        )
    }

    fn setup() -> (Arc<Database>, MetaRegistry) {
        let db = Database::new();
        let reg = registry();
        reg.create_schema(&db).unwrap();
        let mut conn = db.connect();
        conn.execute(
            "INSERT INTO account (userid, balance) VALUES ('u1', 100.0)",
            &[],
        )
        .unwrap();
        (db, reg)
    }

    fn img(key: &str, balance: f64) -> Memento {
        Memento::new("Account", Value::from(key)).with_field("balance", balance)
    }

    fn entry(key: &str, kind: EntryKind) -> CommitEntry {
        CommitEntry {
            bean: "Account".into(),
            key: Value::from(key),
            kind,
        }
    }

    fn apply(db: &Arc<Database>, reg: &MetaRegistry, entries: Vec<CommitEntry>) -> CommitOutcome {
        let mut conn = db.connect();
        let request = CommitRequest {
            origin: 0,
            txn_id: 0,
            entries,
        };
        validate_and_apply(&mut conn, reg, &request).unwrap()
    }

    #[test]
    fn matching_update_commits() {
        let (db, reg) = setup();
        let outcome = apply(
            &db,
            &reg,
            vec![entry(
                "u1",
                EntryKind::Update {
                    before: img("u1", 100.0),
                    after: img("u1", 150.0),
                },
            )],
        );
        assert_eq!(outcome, CommitOutcome::Committed);
        let mut conn = db.connect();
        let rs = conn
            .execute("SELECT balance FROM account WHERE userid = 'u1'", &[])
            .unwrap();
        assert_eq!(rs.rows()[0][0], Value::from(150.0));
    }

    #[test]
    fn stale_before_image_conflicts_and_applies_nothing() {
        let (db, reg) = setup();
        let outcome = apply(
            &db,
            &reg,
            vec![
                entry(
                    "u1",
                    EntryKind::Update {
                        before: img("u1", 100.0),
                        after: img("u1", 150.0),
                    },
                ),
                // second entry is stale → whole txn must roll back
                entry(
                    "u2",
                    EntryKind::Read {
                        before: img("u2", 1.0),
                    },
                ),
            ],
        );
        assert!(matches!(outcome, CommitOutcome::Conflict { .. }));
        let mut conn = db.connect();
        let rs = conn
            .execute("SELECT balance FROM account WHERE userid = 'u1'", &[])
            .unwrap();
        assert_eq!(rs.rows()[0][0], Value::from(100.0), "partial apply leaked");
    }

    #[test]
    fn read_validation_detects_change() {
        let (db, reg) = setup();
        // someone else changes the row
        let mut conn = db.connect();
        conn.execute("UPDATE account SET balance = 1.0 WHERE userid = 'u1'", &[])
            .unwrap();
        let outcome = apply(
            &db,
            &reg,
            vec![entry(
                "u1",
                EntryKind::Read {
                    before: img("u1", 100.0),
                },
            )],
        );
        assert_eq!(
            outcome,
            CommitOutcome::Conflict {
                bean: "Account".into(),
                key: "'u1'".into()
            }
        );
    }

    #[test]
    fn create_requires_absence() {
        let (db, reg) = setup();
        let outcome = apply(
            &db,
            &reg,
            vec![entry(
                "u2",
                EntryKind::Create {
                    after: img("u2", 5.0),
                },
            )],
        );
        assert_eq!(outcome, CommitOutcome::Committed);
        assert_eq!(db.row_count("account").unwrap(), 2);
        // creating the same key again conflicts
        let outcome = apply(
            &db,
            &reg,
            vec![entry(
                "u2",
                EntryKind::Create {
                    after: img("u2", 5.0),
                },
            )],
        );
        assert!(matches!(outcome, CommitOutcome::Conflict { .. }));
    }

    #[test]
    fn remove_requires_unchanged_existence() {
        let (db, reg) = setup();
        // removing with a stale before-image conflicts
        let outcome = apply(
            &db,
            &reg,
            vec![entry(
                "u1",
                EntryKind::Remove {
                    before: img("u1", 99.0),
                },
            )],
        );
        assert!(matches!(outcome, CommitOutcome::Conflict { .. }));
        // correct before-image removes
        let outcome = apply(
            &db,
            &reg,
            vec![entry(
                "u1",
                EntryKind::Remove {
                    before: img("u1", 100.0),
                },
            )],
        );
        assert_eq!(outcome, CommitOutcome::Committed);
        assert_eq!(db.row_count("account").unwrap(), 0);
        // removing a vanished bean conflicts
        let outcome = apply(
            &db,
            &reg,
            vec![entry(
                "u1",
                EntryKind::Remove {
                    before: img("u1", 100.0),
                },
            )],
        );
        assert!(matches!(outcome, CommitOutcome::Conflict { .. }));
    }

    #[test]
    fn combined_committer_drives_connection() {
        let (db, reg) = setup();
        let committer = CombinedCommitter::new(Box::new(db.connect()), reg);
        let outcome = committer
            .commit(&CommitRequest {
                origin: 0,
                txn_id: 0,
                entries: vec![entry(
                    "u1",
                    EntryKind::Update {
                        before: img("u1", 100.0),
                        after: img("u1", 200.0),
                    },
                )],
            })
            .unwrap();
        assert_eq!(outcome, CommitOutcome::Committed);
    }

    #[test]
    fn unknown_bean_is_error_not_conflict() {
        let (db, reg) = setup();
        let mut conn = db.connect();
        let err = validate_and_apply(
            &mut conn,
            &reg,
            &CommitRequest {
                origin: 0,
                txn_id: 0,
                entries: vec![CommitEntry {
                    bean: "Ghost".into(),
                    key: Value::from(1),
                    kind: EntryKind::Read {
                        before: Memento::new("Ghost", Value::from(1)),
                    },
                }],
            },
        )
        .unwrap_err();
        assert!(matches!(err, EjbError::NotFound { .. }));
        assert!(!conn.in_transaction(), "failed validation left txn open");
    }

    #[test]
    fn stamped_replay_returns_recorded_outcome_without_reapplying() {
        let (db, reg) = setup();
        let committer = CombinedCommitter::new(Box::new(db.connect()), reg);
        let request = CommitRequest {
            origin: 2,
            txn_id: 41,
            entries: vec![entry(
                "u1",
                EntryKind::Update {
                    before: img("u1", 100.0),
                    after: img("u1", 150.0),
                },
            )],
        };
        assert_eq!(
            committer.commit(&request).unwrap(),
            CommitOutcome::Committed
        );
        // Replaying the identical request must not re-validate: the stored
        // image is now 150.0, so a second validation would conflict.
        assert_eq!(
            committer.commit(&request).unwrap(),
            CommitOutcome::Committed,
            "replay must return the recorded outcome"
        );
        let mut conn = db.connect();
        let rs = conn
            .execute("SELECT balance FROM account WHERE userid = 'u1'", &[])
            .unwrap();
        assert_eq!(rs.rows()[0][0], Value::from(150.0), "applied exactly once");
    }

    #[test]
    fn unstamped_requests_bypass_the_dedup_table() {
        let (db, reg) = setup();
        let committer = CombinedCommitter::new(Box::new(db.connect()), reg);
        let request = CommitRequest {
            origin: 2,
            txn_id: 0,
            entries: vec![entry(
                "u1",
                EntryKind::Update {
                    before: img("u1", 100.0),
                    after: img("u1", 150.0),
                },
            )],
        };
        assert_eq!(
            committer.commit(&request).unwrap(),
            CommitOutcome::Committed
        );
        // With no txn identity the replay is a fresh request and the stale
        // before-image legitimately conflicts.
        assert!(matches!(
            committer.commit(&request).unwrap(),
            CommitOutcome::Conflict { .. }
        ));
    }

    #[test]
    fn conflicts_replay_as_conflicts() {
        let (db, reg) = setup();
        let committer = CombinedCommitter::new(Box::new(db.connect()), reg.clone());
        let request = CommitRequest {
            origin: 1,
            txn_id: 7,
            entries: vec![entry(
                "u1",
                EntryKind::Update {
                    before: img("u1", 1.0), // stale
                    after: img("u1", 2.0),
                },
            )],
        };
        let first = committer.commit(&request).unwrap();
        assert!(matches!(first, CommitOutcome::Conflict { .. }));
        assert_eq!(committer.commit(&request).unwrap(), first);
    }

    #[test]
    fn completed_table_is_bounded_fifo() {
        let mut table = CompletedTxns::new(2);
        let req = |txn_id| CommitRequest {
            origin: 1,
            txn_id,
            entries: vec![],
        };
        for id in 1..=3 {
            table.record(&req(id), &CommitOutcome::Committed);
        }
        assert_eq!(table.len(), 2);
        assert!(table.lookup(&req(1)).is_none(), "oldest entry evicted");
        assert!(table.lookup(&req(2)).is_some());
        assert!(table.lookup(&req(3)).is_some());
        // re-recording an id does not grow the FIFO
        table.record(&req(3), &CommitOutcome::Committed);
        assert_eq!(table.len(), 2);
        // unstamped requests are never stored
        table.record(&req(0), &CommitOutcome::Committed);
        assert!(table.lookup(&req(0)).is_none());
    }

    #[test]
    fn commit_counters_and_spans_track_outcomes() {
        use sli_telemetry::{MetricValue, TraceLog};
        let (db, reg) = setup();
        let trace = Arc::new(TraceLog::new());
        let tracer = Arc::new(Tracer::new(Arc::clone(&trace)));
        let clock = Arc::new(Clock::new());
        let committer = CombinedCommitter::new(Box::new(db.connect()), reg)
            .with_tracer(Arc::clone(&tracer), clock);
        let telemetry = Registry::new();
        committer.register_with(&telemetry, "committer.edge-1");

        let fresh = CommitRequest {
            origin: 1,
            txn_id: 1,
            entries: vec![entry(
                "u1",
                EntryKind::Update {
                    before: img("u1", 100.0),
                    after: img("u1", 80.0),
                },
            )],
        };
        committer.commit(&fresh).unwrap();
        committer.commit(&fresh).unwrap(); // dedup replay
        let stale = CommitRequest {
            origin: 1,
            txn_id: 2,
            entries: vec![entry(
                "u1",
                EntryKind::Read {
                    before: img("u1", 1.0),
                },
            )],
        };
        assert!(matches!(
            committer.commit(&stale).unwrap(),
            CommitOutcome::Conflict { .. }
        ));
        let broken = CommitRequest {
            origin: 1,
            txn_id: 3,
            entries: vec![CommitEntry {
                bean: "Ghost".into(),
                key: Value::from(1),
                kind: EntryKind::Read {
                    before: Memento::new("Ghost", Value::from(1)),
                },
            }],
        };
        assert!(committer.commit(&broken).is_err());

        assert_eq!(
            committer.stats(),
            CommitterStats {
                committed: 1,
                conflicts: 1,
                errors: 1,
                dedup_replays: 1,
            }
        );
        assert_eq!(
            telemetry.snapshot()["committer.edge-1.committed"],
            MetricValue::Counter(1)
        );
        assert_eq!(
            telemetry.snapshot()["committer.edge-1.dedup_replays"],
            MetricValue::Counter(1)
        );
        assert_eq!(
            trace.count(Some("commit.validate_apply"), Some(SpanOutcome::Committed)),
            1
        );
        assert_eq!(
            trace.count(Some("commit.validate_apply"), Some(SpanOutcome::Conflict)),
            1
        );
        assert_eq!(
            trace.count(Some("commit.validate_apply"), Some(SpanOutcome::Error)),
            1
        );
        assert_eq!(
            trace.count(Some("commit.replay"), Some(SpanOutcome::Replayed)),
            1
        );
        // The stale read produced an occ.conflict forensics span nested
        // under its commit.validate_apply span, naming the entity.
        let events = trace.events();
        let conflict = events
            .iter()
            .find(|e| e.op == "occ.conflict")
            .expect("forensics span");
        let info = conflict.conflict().expect("conflict detail");
        assert_eq!(info.entity(), "Account['u1']");
        assert_eq!(info.field.as_deref(), Some("balance"));
        assert_ne!(info.expected_digest, 0);
        assert!(info.found_digest.is_some(), "read conflicts see the winner");
        let parent = events
            .iter()
            .find(|e| e.span_id == conflict.parent_span_id)
            .expect("parent span");
        assert_eq!(parent.op, "commit.validate_apply");
        assert_eq!(parent.trace_id, conflict.trace_id);
    }

    #[test]
    fn conditional_write_conflicts_record_blind_forensics() {
        use sli_telemetry::TraceLog;
        let (db, reg) = setup();
        let trace = Arc::new(TraceLog::new());
        let tracer = Arc::new(Tracer::new(Arc::clone(&trace)));
        let committer = CombinedCommitter::new(Box::new(db.connect()), reg)
            .with_tracer(tracer, Arc::new(Clock::new()));
        let stale_write = CommitRequest {
            origin: 1,
            txn_id: 9,
            entries: vec![entry(
                "u1",
                EntryKind::Update {
                    before: img("u1", 1.0), // stale
                    after: img("u1", 2.0),
                },
            )],
        };
        assert!(matches!(
            committer.commit(&stale_write).unwrap(),
            CommitOutcome::Conflict { .. }
        ));
        let events = trace.events();
        let info = events
            .iter()
            .find_map(|e| e.conflict())
            .expect("forensics span")
            .clone();
        assert_eq!(info.entity(), "Account['u1']");
        // A conditional UPDATE learns of the conflict from "0 rows
        // affected" — it never sees the winning image.
        assert_eq!(info.field, None);
        assert_eq!(info.found_digest, None);
        assert_eq!(info.expected_digest, memento_digest(&img("u1", 1.0)));
    }

    #[test]
    fn memento_digest_is_field_sensitive() {
        assert_eq!(
            memento_digest(&img("u1", 1.0)),
            memento_digest(&img("u1", 1.0))
        );
        assert_ne!(
            memento_digest(&img("u1", 1.0)),
            memento_digest(&img("u1", 2.0))
        );
        assert_ne!(
            memento_digest(&img("u1", 1.0)),
            memento_digest(&img("u2", 1.0))
        );
    }

    #[test]
    fn conflict_error_mapping() {
        assert!(conflict_error(&CommitOutcome::Committed).is_none());
        let e = conflict_error(&CommitOutcome::Conflict {
            bean: "A".into(),
            key: "1".into(),
        })
        .unwrap();
        assert!(matches!(e, EjbError::OptimisticConflict { .. }));
    }
}
