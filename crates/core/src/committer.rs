//! Optimistic validation and the commit point both server configurations
//! decide commits through.

use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::{Mutex, MutexGuard};
use sli_component::{EjbError, EjbResult, EntityMeta, Memento};
use sli_datastore::{
    BatchOutcome, BatchStatement, DbResult, Predicate, ResultSet, SqlConnection, Value,
};
use sli_simnet::Clock;
use sli_telemetry::{
    ConflictInfo, Counter, HistoryEvent, HistoryLog, OpenSpan, Registry, SpanDetail, SpanOutcome,
    Tracer,
};

use crate::commit::{CommitEntry, CommitOutcome, CommitRequest, EntryKind};
use crate::registry::MetaRegistry;

/// How many finished transactions a commit point remembers for replay
/// deduplication. Old entries fall out FIFO; the window only has to outlive
/// a retry burst (a handful of resends within one call's retry budget), so
/// a small bound is plenty.
const COMPLETED_TXN_CAPACITY: usize = 1024;

/// Bounded FIFO memory of finished transactions, keyed by `(origin,
/// txn_id)`.
///
/// Commit requests are retried over lossy paths with *identical* bytes, so
/// a commit point that already applied `(origin, txn_id)` must recognise the
/// replay and answer with the recorded [`CommitOutcome`] instead of
/// validating (and applying!) the images a second time. Requests with
/// `txn_id == 0` are unstamped and bypass the table.
#[derive(Debug)]
struct CompletedTxns {
    outcomes: HashMap<(u32, u64), CommitOutcome>,
    order: VecDeque<(u32, u64)>,
    capacity: usize,
}

impl CompletedTxns {
    fn new(capacity: usize) -> CompletedTxns {
        CompletedTxns {
            outcomes: HashMap::new(),
            order: VecDeque::new(),
            capacity: capacity.max(1),
        }
    }

    /// The recorded outcome for `request`, if it already ran here.
    fn lookup(&self, request: &CommitRequest) -> Option<CommitOutcome> {
        if request.txn_id == 0 {
            return None;
        }
        self.outcomes
            .get(&(request.origin, request.txn_id))
            .cloned()
    }

    /// Records the outcome of the freshly processed `(origin, txn_id)`,
    /// evicting the oldest entry past the bound.
    fn record(&mut self, origin: u32, txn_id: u64, outcome: CommitOutcome) {
        if txn_id == 0 {
            return;
        }
        let id = (origin, txn_id);
        if self.outcomes.insert(id, outcome).is_none() {
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
    fn reseed(&mut self, pairs: &[(u32, u64)]) {
        self.outcomes.clear();
        self.order.clear();
        for &(origin, txn_id) in pairs {
            self.record(origin, txn_id, CommitOutcome::Committed);
        }
    }
}

/// Counter snapshot of one commit point's lifetime activity.
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

/// Registry-backed counters behind [`CommitterStats`].
#[derive(Debug, Default)]
struct CommitMetrics {
    committed: Counter,
    conflicts: Counter,
    errors: Counter,
    dedup_replays: Counter,
}

impl CommitMetrics {
    /// How a fresh (non-replayed) decision ended, in each vocabulary that
    /// records it: its counter, its span outcome and its history label.
    fn classify(&self, result: &EjbResult<CommitOutcome>) -> (&Counter, SpanOutcome, &'static str) {
        match result {
            Ok(CommitOutcome::Committed) => (&self.committed, SpanOutcome::Committed, "committed"),
            Ok(CommitOutcome::Conflict { .. }) => {
                (&self.conflicts, SpanOutcome::Conflict, "conflict")
            }
            Err(_) => (&self.errors, SpanOutcome::Error, "error"),
        }
    }
}

/// A [`Tracer`] and the clock its commit-protocol spans are stamped from.
pub(crate) struct CommitTracer {
    tracer: Arc<Tracer>,
    clock: Arc<Clock>,
}

/// A span opened through a [`CommitTracer`], with its start time. Whatever
/// the clock is charged before the span closes is the span's duration.
pub(crate) struct TimedSpan<'t> {
    by: &'t CommitTracer,
    span: OpenSpan,
    start_us: u64,
}

impl CommitTracer {
    fn now_us(&self) -> u64 {
        self.clock.now().as_micros()
    }

    fn timed(&self, span: OpenSpan) -> TimedSpan<'_> {
        TimedSpan {
            by: self,
            span,
            start_us: self.now_us(),
        }
    }

    /// Opens a commit-protocol span as a child of the caller's current
    /// trace context (the servlet/RPC span in a wired deployment).
    pub(crate) fn open(&self, op: &'static str) -> TimedSpan<'_> {
        self.timed(self.tracer.begin(op))
    }

    /// Opens a server-side span, preferring the in-process context and
    /// falling back to the wire-carried `trace_id` for detached work.
    pub(crate) fn open_rpc_server(&self, op: &'static str, wire_trace_id: u64) -> TimedSpan<'_> {
        self.timed(self.tracer.begin_rpc_server(op, wire_trace_id))
    }

    /// The trace id of the currently open span, or 0 outside any trace.
    pub(crate) fn current_trace_id(&self) -> u64 {
        self.tracer.current().map_or(0, |c| c.trace_id)
    }

    /// Records a zero-duration `occ.conflict` forensics span under the
    /// currently open commit span.
    fn record_conflict(&self, request: &CommitRequest, info: ConflictInfo) {
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

impl TimedSpan<'_> {
    /// Closes the span, stamping `request`'s origin and txn identity.
    pub(crate) fn close(self, request: &CommitRequest, outcome: SpanOutcome) {
        self.close_as(request.origin, request.txn_id, outcome);
    }

    /// Closes the span without a commit request in hand (server dispatch
    /// spans for fetch/query traffic).
    pub(crate) fn close_unstamped(self, outcome: SpanOutcome) {
        self.close_as(0, 0, outcome);
    }

    fn close_as(self, origin: u32, txn_id: u64, outcome: SpanOutcome) {
        let end_us = self.by.now_us();
        self.by
            .tracer
            .finish(self.span, origin, txn_id, self.start_us, end_us, outcome);
    }

    /// Abandons the span without recording it (e.g. a fan-out that
    /// notified nobody).
    pub(crate) fn cancel(self) {
        self.by.tracer.cancel(self.span);
    }
}

/// FNV-1a digest over a memento's key and fields — a compact identity so
/// abort forensics (and the serializability checker's version chains) can
/// say *which version* of a bean was expected vs found without shipping
/// whole images around.
pub fn memento_digest(m: &Memento) -> u64 {
    let mut fnv = Fnv(0xcbf2_9ce4_8422_2325);
    fnv.eat(m.bean());
    fnv.eat(m.primary_key());
    for (name, value) in m.fields() {
        fnv.eat(name);
        fnv.eat(value);
    }
    fnv.0
}

/// FNV-1a state that text is displayed straight into, so digesting a value
/// never builds its string.
struct Fnv(u64);

impl Fnv {
    fn byte(&mut self, b: u8) {
        self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    }

    /// Digests `item`'s display form, then a terminator no UTF-8 text
    /// contains.
    fn eat(&mut self, item: impl std::fmt::Display) {
        use std::fmt::Write;
        write!(self, "{item}").expect("the digest sink never fails");
        self.byte(0xff);
    }
}

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        s.bytes().for_each(|b| self.byte(b));
        Ok(())
    }
}

/// Builds the forensic record for a validation failure: what before-image
/// the transaction expected, what the store actually held, and (when both
/// images are in hand) the first field whose value diverged.
fn conflict_info(
    entry: &CommitEntry,
    expected: Option<&Memento>,
    found: Option<&Memento>,
) -> ConflictInfo {
    let field = match (expected, found) {
        (Some(before), Some(current)) => before
            .fields()
            .iter()
            .find(|(name, value)| current.get(name) != Some(value))
            .map(|(name, _)| name.to_string()),
        _ => None,
    };
    ConflictInfo {
        bean: entry.bean.to_string(),
        key: entry.key.to_string(),
        field,
        expected_digest: expected.map(memento_digest).unwrap_or(0),
        found_digest: found.map(memento_digest),
    }
}

/// A validator's verdict on a request that ran without error: `None`
/// validated and applied; `Some` is the forensic record of the entry that
/// failed validation, after which nothing stays applied.
type Verdict = Option<ConflictInfo>;

/// A validation protocol: [`in_rounds`] or [`per_image`], writing its
/// statements into the buffers it is handed (refilled in place, so a warm
/// session's decisions build no statement). The flag is the checker's
/// seeded bug (`slicheck --inject-bug`): when set, `Update` entries apply
/// without validating their before-image — the classic lost-update anomaly
/// optimistic validation exists to prevent.
type Validator = fn(
    &mut dyn SqlConnection,
    &mut Vec<BatchStatement>,
    &MetaRegistry,
    &CommitRequest,
    bool,
) -> EjbResult<Verdict>;

/// The outcome a verdict means to the application.
fn outcome_of(verdict: &Verdict) -> CommitOutcome {
    match verdict {
        None => CommitOutcome::Committed,
        Some(info) => CommitOutcome::Conflict {
            bean: info.bean.clone(),
            key: info.key.clone(),
        },
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
/// This is the protocol the [`BackendServer`](crate::BackendServer)'s
/// commit point runs, over its co-located connection so the round trips
/// are cheap, where the [`CombinedCommitter`] pays the high-latency path
/// per access — which is precisely the performance distinction the paper
/// measures between ES/RDB-cached and ES/RBES.
///
/// # Errors
/// Datastore failures (including deadlocks) surface as `Err`; a validation
/// failure is *not* an error — it returns `Ok(CommitOutcome::Conflict)`.
pub fn validate_and_apply(
    conn: &mut dyn SqlConnection,
    registry: &MetaRegistry,
    request: &CommitRequest,
) -> EjbResult<CommitOutcome> {
    let mut stmts = Vec::new();
    in_rounds(conn, &mut stmts, registry, request, false).map(|verdict| outcome_of(&verdict))
}

fn in_rounds(
    conn: &mut dyn SqlConnection,
    stmts: &mut Vec<BatchStatement>,
    registry: &MetaRegistry,
    request: &CommitRequest,
    unchecked_writes: bool,
) -> EjbResult<Verdict> {
    let entries = &request.entries;
    let single = entries.len() == 1;
    in_transaction(conn, true, |conn| {
        let mut start = 0;
        while start < entries.len() {
            let round = &entries[start..round_end(entries, start)];
            for (at, entry) in round.iter().enumerate() {
                let meta = registry.meta(&entry.bean)?;
                meta.load_statement(slot(stmts, at), &entry.key);
            }
            let fetched = ship(conn, &stmts[..round.len()], single)?.into_result()?;
            let mut writes = 0;
            for (entry, rs) in round.iter().zip(&fetched) {
                let meta = registry.meta(&entry.bean)?;
                let conflict = judge(entry, meta, rs, false, unchecked_writes);
                if conflict.is_some() {
                    return Ok(conflict);
                }
                if entry.kind.is_write() {
                    entry_statement(entry, meta, false, slot(stmts, writes));
                    writes += 1;
                }
            }
            if writes > 0 {
                ship(conn, &stmts[..writes], single)?.into_result()?;
            }
            start += round.len();
        }
        Ok(None)
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
/// A conditional write detects a conflict from "0 rows affected" without
/// ever seeing the winning image, so its forensic record carries
/// `found_digest: None`.
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
    let mut stmts = Vec::new();
    per_image(conn, &mut stmts, registry, request, false).map(|verdict| outcome_of(&verdict))
}

fn per_image(
    conn: &mut dyn SqlConnection,
    stmts: &mut Vec<BatchStatement>,
    registry: &MetaRegistry,
    request: &CommitRequest,
    unchecked_writes: bool,
) -> EjbResult<Verdict> {
    let entries = &request.entries;
    let single = entries.len() == 1;
    in_transaction(conn, !single, |conn| {
        for (at, entry) in entries.iter().enumerate() {
            let meta = registry.meta(&entry.bean)?;
            entry_statement(entry, meta, !unchecked_writes, slot(stmts, at));
        }
        let outcome = ship(conn, &stmts[..entries.len()], single)?;
        for (entry, rs) in entries.iter().zip(&outcome.results) {
            let meta = registry.meta(&entry.bean)?;
            let conflict = judge(entry, meta, rs, true, unchecked_writes);
            if conflict.is_some() {
                return Ok(conflict);
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
                    return Ok(Some(conflict_info(entry, None, None)));
                }
            }
            return Err(err.into());
        }
        Ok(None)
    })
}

/// Runs `body` as one datastore transaction: commit when it validates,
/// roll back on a conflict or an error. A body that is a single
/// self-validating statement passes `explicit = false` and runs
/// autocommitted, with no `BEGIN`/`COMMIT` round trips.
fn in_transaction(
    conn: &mut dyn SqlConnection,
    explicit: bool,
    body: impl FnOnce(&mut dyn SqlConnection) -> EjbResult<Verdict>,
) -> EjbResult<Verdict> {
    if !explicit {
        return body(conn);
    }
    conn.begin()?;
    match body(conn) {
        Ok(None) => {
            conn.commit()?;
            Ok(None)
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
) -> Verdict {
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
    let row = rs.rows().first();
    let unchanged = match (row, expected) {
        (Some(row), Some(before)) => meta.row_is_image(row, before),
        (None, None) => true,
        _ => false,
    };
    if unchanged {
        return None;
    }
    // Only a conflict's forensic record needs the winning image itself.
    let current = row.map(|row| meta.memento_from_row(row));
    Some(conflict_info(entry, expected, current.as_ref()))
}

/// `stmt` becomes the statement that applies `entry`'s after-image — for a
/// pure read, the one that fetches its current image. With `conditional`
/// the `WHERE` clause of an `UPDATE`/`DELETE` carries the whole
/// before-image, so the statement validates and applies at once.
fn entry_statement(
    entry: &CommitEntry,
    meta: &EntityMeta,
    conditional: bool,
    stmt: &mut BatchStatement,
) {
    match &entry.kind {
        EntryKind::Read { .. } => meta.load_statement(stmt, &entry.key),
        EntryKind::Update { before, after } if conditional => {
            meta.conditional_update_statement(stmt, before, after)
        }
        EntryKind::Update { after, .. } => meta.update_statement(stmt, after),
        EntryKind::Create { after } => meta.insert_statement(stmt, after),
        EntryKind::Remove { before } if conditional => {
            meta.conditional_delete_statement(stmt, before)
        }
        EntryKind::Remove { .. } => meta.delete_statement(stmt, &entry.key),
    }
}

/// Statement `at` of a session's buffers, which grow to the longest
/// request seen and are refilled in place after that.
fn slot(stmts: &mut Vec<BatchStatement>, at: usize) -> &mut BatchStatement {
    if stmts.len() <= at {
        stmts.resize_with(at + 1, BatchStatement::default);
    }
    &mut stmts[at]
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

/// The end of the round of `entries` that starts at `start`: the first
/// entry that repeats a `(bean, key)` of the round, or the end. Rounds are
/// consecutive runs in which every `(bean, key)` is distinct. (Footprints
/// are a handful of entries, so the scan is linear per entry.)
fn round_end(entries: &[CommitEntry], start: usize) -> usize {
    let repeats = |i: &usize| {
        let e = &entries[*i];
        entries[start..*i]
            .iter()
            .any(|p| p.bean == e.bean && p.key == e.key)
    };
    (start + 1..entries.len())
        .find(repeats)
        .unwrap_or(entries.len())
}

/// Fetches the current persistent image of (`meta`, `key`), if any.
pub(crate) fn fetch_current(
    conn: &mut dyn SqlConnection,
    meta: &EntityMeta,
    key: &Value,
) -> EjbResult<Option<Memento>> {
    let rs = conn.execute(meta.load_sql(), std::slice::from_ref(key))?;
    Ok(rs.rows().first().map(|row| meta.memento_from_row(row)))
}

/// Runs a *bound* finder predicate, returning one row per matching bean in
/// `meta`'s column order ([`EntityMeta::memento_from_row`] turns each into
/// its current persistent image). The statement is written into the
/// session's text.
pub(crate) fn query_current(
    session: &mut Session,
    meta: &EntityMeta,
    predicate: &Predicate,
) -> EjbResult<ResultSet> {
    let select = meta.select_sql();
    let conn = session.conn.as_mut();
    Ok(match predicate {
        Predicate::True => conn.execute(select, &[])?,
        p => {
            let text = &mut session.text;
            text.clear();
            write!(text, "{select} WHERE {p}").expect("a String takes any text");
            conn.execute(text, &[])?
        }
    })
}

/// A datastore connection and the buffers the statements on it are
/// written into, under one lock — like a database server's session, whose
/// scratch outlives the statement it serves. The buffers grow to the
/// largest request seen and are refilled in place after that.
pub(crate) struct Session {
    pub(crate) conn: Box<dyn SqlConnection + Send>,
    /// A decision's statements: the fetches, writes or conditional
    /// statements of the round in flight.
    stmts: Vec<BatchStatement>,
    /// A finder's statement text.
    text: String,
}

impl Session {
    pub(crate) fn new(conn: Box<dyn SqlConnection + Send>) -> Session {
        Session {
            conn,
            stmts: Vec::new(),
            text: String::new(),
        }
    }
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

/// The two steps of a decision that take simulated time, as named to the
/// cost callback of [`CommitPoint::decide`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CommitStep {
    /// Answering a retried request from the replay table.
    Replay,
    /// Validating and applying a fresh request.
    ValidateApply,
}

/// What [`CommitPoint::decide`] did with a request.
pub(crate) struct Decision {
    /// The outcome, recorded or fresh.
    pub(crate) result: EjbResult<CommitOutcome>,
    /// Whether the request was validated now, rather than answered from
    /// the replay table.
    pub(crate) fresh: bool,
}

/// The optimistic commit point: the one place a commit request is decided,
/// exactly once, in either server configuration.
///
/// It owns the datastore connection the decision runs on and everything
/// that makes the decision exactly-once and observable: the replay table
/// keyed by `(origin, txn_id)`, the WAL stamp that lets recovery reseed
/// that table, the validation protocol (fixed at construction), the
/// apply-side history, the outcome counters and the `commit.*` spans.
///
/// Standing alone it is the paper's *combined-servers* committer
/// ([`CombinedCommitter`]): co-located with the edge server, it drives the
/// (remote) database connection with one conditional statement per
/// memento image. Inside a [`BackendServer`](crate::BackendServer) it is
/// the *split-servers* commit logic, validating in fetch/write rounds over
/// the back-end's local connection; the back-end adds only what is its
/// own — CPU cost, the wire, and the invalidation fan-out.
pub struct CommitPoint {
    session: Mutex<Session>,
    registry: MetaRegistry,
    validate: Validator,
    completed: Mutex<CompletedTxns>,
    metrics: CommitMetrics,
    tracer: OnceLock<CommitTracer>,
    history: Mutex<Option<(Arc<HistoryLog>, Arc<Clock>)>>,
    inject_bug: AtomicBool,
}

/// The *combined-servers* committer: a [`CommitPoint`] co-located with the
/// edge server, driving the (remote) database connection directly.
///
/// Every validation fetch and every write is its own statement on the
/// connection — "the combined-servers configuration requires multiple
/// database server accesses, one per memento image" — so when that
/// connection crosses the delay proxy, commit cost grows with the
/// transaction's footprint. This is the ES/RDB-cached data point of
/// Figures 6/7.
pub type CombinedCommitter = CommitPoint;

impl std::fmt::Debug for CommitPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CommitPoint")
            .field("beans", &self.registry.len())
            .finish_non_exhaustive()
    }
}

impl CommitPoint {
    /// Creates a commit point over `conn` with deployment metadata
    /// `registry`, validating one conditional statement per image
    /// ([`validate_and_apply_per_image`]).
    pub fn new(conn: Box<dyn SqlConnection + Send>, registry: MetaRegistry) -> CommitPoint {
        CommitPoint {
            session: Mutex::new(Session::new(conn)),
            registry,
            validate: per_image,
            completed: Mutex::new(CompletedTxns::new(COMPLETED_TXN_CAPACITY)),
            metrics: CommitMetrics::default(),
            tracer: OnceLock::new(),
            history: Mutex::new(None),
            inject_bug: AtomicBool::new(false),
        }
    }

    /// A commit point that validates in fetch/write rounds
    /// ([`validate_and_apply`]) — the back-end's, whose connection is local.
    pub(crate) fn in_rounds(
        conn: Box<dyn SqlConnection + Send>,
        registry: MetaRegistry,
    ) -> CommitPoint {
        CommitPoint {
            validate: in_rounds,
            ..CommitPoint::new(conn, registry)
        }
    }

    /// Records one span per decision through `tracer`, timestamped from
    /// `clock` (`commit.validate_apply` for fresh requests, `commit.replay`
    /// for deduplicated retries), plus an `occ.conflict` forensics span
    /// when validation rejects a request. Spans join the caller's current
    /// trace context, so commits nest under the servlet or RPC span that
    /// drove them.
    ///
    /// # Panics
    /// Panics if a tracer is already attached.
    pub fn with_tracer(self, tracer: Arc<Tracer>, clock: Arc<Clock>) -> CommitPoint {
        self.set_tracer(tracer, clock);
        self
    }

    /// Attaches the tracer — once, while the deployment is wired, so that
    /// every decision reads it without a lock.
    pub(crate) fn set_tracer(&self, tracer: Arc<Tracer>, clock: Arc<Clock>) {
        assert!(
            self.tracer.set(CommitTracer { tracer, clock }).is_ok(),
            "a commit point's tracer is attached once"
        );
    }

    /// The span recorder, for the spans a server wraps around a decision.
    pub(crate) fn tracer(&self) -> Option<&CommitTracer> {
        self.tracer.get()
    }

    /// Records an apply-outcome [`HistoryEvent`] per fresh decision into
    /// `log`, timestamped from `clock` and tagged with the datastore's
    /// commit-order witness (when the connection can observe it). This is
    /// the commit-side half of the histories `slicheck` checks.
    pub fn set_history(&self, log: Arc<HistoryLog>, clock: Arc<Clock>) {
        *self.history.lock() = Some((log, clock));
    }

    /// Seeds the deliberate lost-update bug (`slicheck --inject-bug`):
    /// updates apply without validating their before-image. Test harness
    /// only.
    pub fn set_inject_bug(&self, on: bool) {
        self.inject_bug.store(on, Ordering::Relaxed);
    }

    /// Attaches the commit counters to `registry` under `{prefix}.committed`,
    /// `.conflicts`, `.errors` and `.dedup_replays`.
    pub fn register_with(&self, registry: &Registry, prefix: &str) {
        let m = &self.metrics;
        registry.attach_counter(format!("{prefix}.committed"), &m.committed);
        registry.attach_counter(format!("{prefix}.conflicts"), &m.conflicts);
        registry.attach_counter(format!("{prefix}.errors"), &m.errors);
        registry.attach_counter(format!("{prefix}.dedup_replays"), &m.dedup_replays);
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CommitterStats {
        CommitterStats {
            committed: self.metrics.committed.get(),
            conflicts: self.metrics.conflicts.get(),
            errors: self.metrics.errors.get(),
            dedup_replays: self.metrics.dedup_replays.get(),
        }
    }

    /// Rebuilds the replay table from the committed `(origin, txn_id)`
    /// stamps a datastore recovery replayed out of its WAL (commit order,
    /// oldest first). Called after a crash + restart so retried commits
    /// that were durable before the crash dedup instead of double-applying;
    /// an empty slice is the crash itself, wiping the volatile table.
    pub fn reseed_completed(&self, pairs: &[(u32, u64)]) {
        self.completed.lock().reseed(pairs);
    }

    /// The session decisions run on, for the owner's other traffic.
    pub(crate) fn session(&self) -> MutexGuard<'_, Session> {
        self.session.lock()
    }

    /// The deployment metadata decisions are validated against.
    pub(crate) fn registry(&self) -> &MetaRegistry {
        &self.registry
    }

    /// Decides `request`, exactly once.
    ///
    /// A request whose `(origin, txn_id)` already finished here is a retry
    /// of a commit whose response was lost: the recorded outcome is
    /// returned without re-validating or re-applying, so a debit is applied
    /// exactly once no matter how many times the message is resent. A fresh
    /// request announces its identity to the datastore (so the WAL commit
    /// record carries it and recovery can reseed the replay table),
    /// validates and applies, and is remembered.
    ///
    /// `charge` is called once, inside the step's span, before the step's
    /// work: whatever simulated time the owner charges there is part of the
    /// span's duration, which is how the back-end's CPU cost shows up in
    /// `commit.replay` and `commit.validate_apply` without this type
    /// knowing a cost model.
    pub(crate) fn decide(&self, request: &CommitRequest, charge: impl Fn(CommitStep)) -> Decision {
        let tracer = self.tracer();
        if let Some(outcome) = self.completed.lock().lookup(request) {
            let span = tracer.map(|t| t.open("commit.replay"));
            charge(CommitStep::Replay);
            self.metrics.dedup_replays.inc();
            if let Some(span) = span {
                span.close(request, SpanOutcome::Replayed);
            }
            return Decision {
                result: Ok(outcome),
                fresh: false,
            };
        }
        let span = tracer.map(|t| t.open("commit.validate_apply"));
        charge(CommitStep::ValidateApply);
        let (verdict, csn) = {
            let mut session = self.session.lock();
            let Session { conn, stmts, .. } = &mut *session;
            conn.stamp_next_commit(request.origin, request.txn_id);
            let verdict = (self.validate)(
                conn.as_mut(),
                stmts,
                &self.registry,
                request,
                self.inject_bug.load(Ordering::Relaxed),
            );
            (verdict, conn.commit_seq().unwrap_or(0))
        };
        let (result, conflict) = match verdict {
            Ok(verdict) => (Ok(outcome_of(&verdict)), verdict),
            Err(e) => (Err(e), None),
        };
        let (counter, span_outcome, label) = self.metrics.classify(&result);
        // Replays answer from memory and are not re-applied, so only fresh
        // decisions appear in the history.
        if let Some((log, clock)) = self.history.lock().as_ref() {
            log.record(HistoryEvent::Apply {
                origin: request.origin,
                txn_id: request.txn_id,
                csn,
                outcome: label.to_owned(),
                t_us: clock.now().as_micros(),
            });
        }
        if let Ok(outcome) = &result {
            self.completed
                .lock()
                .record(request.origin, request.txn_id, outcome.clone());
        }
        counter.inc();
        if let (Some(t), Some(info)) = (tracer, conflict) {
            t.record_conflict(request, info);
        }
        if let Some(span) = span {
            span.close(request, span_outcome);
        }
        Decision {
            result,
            fresh: true,
        }
    }
}

impl Committer for CommitPoint {
    fn commit(&self, request: &CommitRequest) -> EjbResult<CommitOutcome> {
        self.decide(request, |_| {}).result
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
        assert_eq!(balance(&db), Value::from(150.0));
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
        assert_eq!(balance(&db), Value::from(100.0), "partial apply leaked");
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

    /// Both validation modes: the combined committer's and the back-end's.
    const MODES: [(&str, Constructor); 2] = [
        ("per-image", CommitPoint::new),
        ("rounds", CommitPoint::in_rounds),
    ];
    type Constructor = fn(Box<dyn SqlConnection + Send>, MetaRegistry) -> CommitPoint;

    fn update(origin: u32, txn_id: u64, before: f64, after: f64) -> CommitRequest {
        CommitRequest {
            origin,
            txn_id,
            entries: vec![entry(
                "u1",
                EntryKind::Update {
                    before: img("u1", before),
                    after: img("u1", after),
                },
            )],
        }
    }

    fn balance(db: &Arc<Database>) -> Value {
        let mut conn = db.connect();
        let rs = conn
            .execute("SELECT balance FROM account WHERE userid = 'u1'", &[])
            .unwrap();
        rs.rows()[0][0].clone()
    }

    #[test]
    fn stamped_replay_returns_recorded_outcome_without_reapplying() {
        for (mode, build) in MODES {
            let (db, reg) = setup();
            let point = build(Box::new(db.connect()), reg);
            let request = update(2, 41, 100.0, 150.0);
            let first = point.decide(&request, |_| {});
            assert_eq!(first.result.unwrap(), CommitOutcome::Committed, "{mode}");
            assert!(first.fresh, "{mode}");
            // Replaying the identical request must not re-validate: the
            // stored image is now 150.0, so a second validation would
            // conflict.
            let replay = point.decide(&request, |_| {});
            assert_eq!(replay.result.unwrap(), CommitOutcome::Committed, "{mode}");
            assert!(!replay.fresh, "{mode}: a replay is not a fresh decision");
            assert_eq!(balance(&db), Value::from(150.0), "{mode}: applied once");
        }
    }

    #[test]
    fn unstamped_requests_bypass_the_dedup_table() {
        for (mode, build) in MODES {
            let (db, reg) = setup();
            let point = build(Box::new(db.connect()), reg);
            let request = update(2, 0, 100.0, 150.0);
            assert_eq!(point.commit(&request).unwrap(), CommitOutcome::Committed);
            // With no txn identity the replay is a fresh request and the
            // stale before-image legitimately conflicts.
            assert!(
                matches!(
                    point.commit(&request).unwrap(),
                    CommitOutcome::Conflict { .. }
                ),
                "{mode}"
            );
        }
    }

    #[test]
    fn conflicts_replay_as_conflicts() {
        for (mode, build) in MODES {
            let (db, reg) = setup();
            let point = build(Box::new(db.connect()), reg);
            let request = update(1, 7, 1.0, 2.0); // stale before-image
            let first = point.commit(&request).unwrap();
            assert!(matches!(first, CommitOutcome::Conflict { .. }), "{mode}");
            assert_eq!(point.commit(&request).unwrap(), first, "{mode}");
            assert_eq!(point.stats().conflicts, 1, "{mode}");
            assert_eq!(point.stats().dedup_replays, 1, "{mode}");
        }
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
            table.record(1, id, CommitOutcome::Committed);
        }
        assert_eq!(table.outcomes.len(), 2);
        assert!(table.lookup(&req(1)).is_none(), "oldest entry evicted");
        assert!(table.lookup(&req(2)).is_some());
        assert!(table.lookup(&req(3)).is_some());
        // re-recording an id does not grow the FIFO
        table.record(1, 3, CommitOutcome::Committed);
        assert_eq!(table.outcomes.len(), 2);
        // unstamped requests are never stored
        table.record(1, 0, CommitOutcome::Committed);
        assert!(table.lookup(&req(0)).is_none());
        // a reseed replaces the contents, under the same bound
        table.reseed(&[(1, 7), (1, 0), (1, 8), (1, 9)]);
        assert_eq!(table.outcomes.len(), 2);
        assert!(table.lookup(&req(3)).is_none());
        assert!(table.lookup(&req(7)).is_none(), "oldest stamp evicted");
        assert_eq!(table.lookup(&req(9)), Some(CommitOutcome::Committed));
    }

    #[test]
    fn counters_spans_and_history_track_outcomes() {
        use sli_telemetry::{MetricValue, TraceLog};
        for (mode, build) in MODES {
            let (db, reg) = setup();
            let trace = Arc::new(TraceLog::new());
            let tracer = Arc::new(Tracer::new(Arc::clone(&trace)));
            let clock = Arc::new(Clock::new());
            let point = build(Box::new(db.connect()), reg)
                .with_tracer(Arc::clone(&tracer), Arc::clone(&clock));
            let history = Arc::new(HistoryLog::new());
            point.set_history(Arc::clone(&history), clock);
            let telemetry = Registry::new();
            point.register_with(&telemetry, "committer.edge-1");

            let fresh = update(1, 1, 100.0, 80.0);
            point.commit(&fresh).unwrap();
            point.commit(&fresh).unwrap(); // dedup replay
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
                point.commit(&stale).unwrap(),
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
            assert!(point.commit(&broken).is_err());

            assert_eq!(
                point.stats(),
                CommitterStats {
                    committed: 1,
                    conflicts: 1,
                    errors: 1,
                    dedup_replays: 1,
                },
                "{mode}"
            );
            let snapshot = telemetry.snapshot();
            for (name, count) in [("committed", 1), ("dedup_replays", 1), ("errors", 1)] {
                assert_eq!(
                    snapshot[&format!("committer.edge-1.{name}")],
                    MetricValue::Counter(count),
                    "{mode}: {name}"
                );
            }
            for outcome in [
                SpanOutcome::Committed,
                SpanOutcome::Conflict,
                SpanOutcome::Error,
            ] {
                assert_eq!(
                    trace.count(Some("commit.validate_apply"), Some(outcome)),
                    1,
                    "{mode}: {outcome:?}"
                );
            }
            assert_eq!(
                trace.count(Some("commit.replay"), Some(SpanOutcome::Replayed)),
                1,
                "{mode}"
            );
            // Only fresh decisions reach the history, each with the
            // datastore's commit-order witness at the time.
            let applies: Vec<(u64, String, u64)> = history
                .events()
                .into_iter()
                .filter_map(|e| match e {
                    HistoryEvent::Apply {
                        txn_id,
                        outcome,
                        csn,
                        ..
                    } => Some((txn_id, outcome, csn)),
                    _ => None,
                })
                .collect();
            assert_eq!(
                applies,
                [
                    (1, "committed".to_owned(), 2),
                    (2, "conflict".to_owned(), 2),
                    (3, "error".to_owned(), 2),
                ],
                "{mode}"
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
    }

    #[test]
    fn write_conflict_forensics_see_what_the_protocol_saw() {
        use sli_telemetry::TraceLog;
        for (mode, build) in MODES {
            let (db, reg) = setup();
            let trace = Arc::new(TraceLog::new());
            let tracer = Arc::new(Tracer::new(Arc::clone(&trace)));
            let point =
                build(Box::new(db.connect()), reg).with_tracer(tracer, Arc::new(Clock::new()));
            assert!(matches!(
                point.commit(&update(1, 9, 1.0, 2.0)).unwrap(), // stale
                CommitOutcome::Conflict { .. }
            ));
            let events = trace.events();
            let info = events
                .iter()
                .find_map(|e| e.conflict())
                .expect("forensics span");
            assert_eq!(info.entity(), "Account['u1']");
            assert_eq!(info.expected_digest, memento_digest(&img("u1", 1.0)));
            if mode == "per-image" {
                // A conditional UPDATE learns of the conflict from "0 rows
                // affected" — it never sees the winning image.
                assert_eq!(info.field, None);
                assert_eq!(info.found_digest, None);
            } else {
                assert_eq!(info.field.as_deref(), Some("balance"));
                assert_eq!(info.found_digest, Some(memento_digest(&img("u1", 100.0))));
            }
        }
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
    fn memento_digests_are_pinned() {
        // Counterexample files and `occ.conflict` spans carry these
        // digests: FNV-1a over the display form of bean, key and each
        // name/value pair, every item closed by 0xff. One row per `Value`
        // variant, an empty image and a Trade-sized one.
        let quote = Memento::new("Quote", Value::from("s:42"))
            .with_field("companyname", "Company #42 Incorporated")
            .with_field("price", 67.25)
            .with_field("open", 66.0)
            .with_field("low", 65.5)
            .with_field("high", 68.0)
            .with_field("volume", 1_000_000.0);
        let doubles = Memento::new("T", Value::from(1.5))
            .with_field("f", -0.0)
            .with_field("g", 1.0e21)
            .with_field("h", f64::NAN);
        let strings = Memento::new("T", Value::from("it's"))
            .with_field("f", "")
            .with_field("g", "naïve 'q'");
        let null = Memento::new("T", Value::Null).with_field("f", Value::Null);
        let table = [
            (
                Memento::new("Quote", Value::from("s:1")),
                0x1c07_2958_a429_6389,
            ),
            (null, 0x7bf5_7248_9fb6_7d4d),
            (
                Memento::new("T", Value::from(true)).with_field("f", false),
                0x49a0_00d1_35fb_d98e,
            ),
            (
                Memento::new("T", Value::from(-7)).with_field("f", i64::MAX),
                0x764c_ad72_09bb_a157,
            ),
            (doubles, 0x0b0c_1b5e_6f6f_1c19),
            (strings, 0xa8b0_6999_d2bf_f028),
            (quote, 0x74da_f6c5_2e21_d4f0),
        ];
        for (image, digest) in table {
            assert_eq!(memento_digest(&image), digest, "{image:?}");
        }
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
