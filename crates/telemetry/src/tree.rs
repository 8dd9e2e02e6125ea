//! Span-tree assembly, critical-path attribution and conflict forensics.
//!
//! The flat [`TraceLog`](crate::TraceLog) reassembles into one tree per
//! `trace_id`. Because the testbed runs in virtual time on one logical
//! call stack, every microsecond of a request's latency is covered by
//! exactly one span's *self time* (its duration minus its children's), so
//! attributing each span's self time to a bucket decomposes the measured
//! per-request latency exactly — the bucket sums equal the root span's
//! duration, which is the latency the client measured.

use std::collections::BTreeMap;

use crate::span::SpanEvent;

/// Where a span's self time is spent, from the paper's point of view:
/// the architecture comparison is really a fight over how much of each
/// request crosses the high-latency path versus runs next to the data.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Bucket {
    /// Wire crossings: path latency, bandwidth serialisation, proxy delay,
    /// RPC retry backoff and fault-induced timeouts.
    Network,
    /// Transaction bracketing at the datastore: BEGIN/COMMIT/ROLLBACK and
    /// session open/close round-trip work — the simulated stand-in for
    /// lock acquisition and release.
    DbLockWait,
    /// SQL statement execution charged by the datastore server.
    Statement,
    /// Optimistic-concurrency work: before-image validation, replay
    /// lookup, invalidation fan-out.
    OccValidation,
    /// Everything else: servlet per-request cost, page rendering, engine
    /// compute at the edge.
    LocalCompute,
}

impl Bucket {
    /// All buckets in stable report order.
    pub const ALL: [Bucket; 5] = [
        Bucket::Network,
        Bucket::DbLockWait,
        Bucket::Statement,
        Bucket::OccValidation,
        Bucket::LocalCompute,
    ];

    /// The [`Bucket::label`]s, in [`Bucket::ALL`] order.
    pub(crate) const LABELS: [&'static str; 5] = [
        "network-crossing",
        "db-lock-wait",
        "statement-execution",
        "occ-validation",
        "local-compute",
    ];

    /// Stable label for tables and JSON.
    pub fn label(self) -> &'static str {
        Bucket::LABELS[self.index()]
    }

    pub(crate) fn index(self) -> usize {
        match self {
            Bucket::Network => 0,
            Bucket::DbLockWait => 1,
            Bucket::Statement => 2,
            Bucket::OccValidation => 3,
            Bucket::LocalCompute => 4,
        }
    }
}

/// Classifies a span op into the bucket its *self time* belongs to.
pub fn bucket_for(op: &str) -> Bucket {
    if op.starts_with("net.") || op.starts_with("rpc.") {
        Bucket::Network
    } else if op.starts_with("db.txn") || op == "db.open" || op == "db.close" {
        Bucket::DbLockWait
    } else if op.starts_with("db.stmt") || op.starts_with("db.batch") {
        Bucket::Statement
    } else if op.starts_with("commit.") || op.starts_with("occ.") || op.starts_with("invalidate.") {
        Bucket::OccValidation
    } else {
        Bucket::LocalCompute
    }
}

/// Aggregated critical-path decomposition over a set of traces.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Breakdown {
    pub(crate) bucket_us: [u64; 5],
    /// Total root-span time decomposed, microseconds.
    pub total_us: u64,
    /// Number of complete traces aggregated.
    pub traces: u64,
}

impl Breakdown {
    /// Microseconds attributed to `bucket`.
    pub fn bucket_us(&self, bucket: Bucket) -> u64 {
        self.bucket_us[bucket.index()]
    }

    /// Sum over all buckets — equals `total_us` for well-nested trees.
    pub fn sum_us(&self) -> u64 {
        self.bucket_us.iter().sum()
    }

    /// Fraction of the total spent in `bucket` (0.0 when empty).
    pub fn share(&self, bucket: Bucket) -> f64 {
        if self.total_us == 0 {
            0.0
        } else {
            self.bucket_us(bucket) as f64 / self.total_us as f64
        }
    }

    /// Mean decomposed latency per trace in milliseconds.
    pub fn mean_ms(&self) -> f64 {
        if self.traces == 0 {
            0.0
        } else {
            self.total_us as f64 / self.traces as f64 / 1000.0
        }
    }

    /// Folds another breakdown into this one.
    pub fn merge(&mut self, other: &Breakdown) {
        for (mine, theirs) in self.bucket_us.iter_mut().zip(other.bucket_us) {
            *mine += theirs;
        }
        self.total_us += other.total_us;
        self.traces += other.traces;
    }
}

/// What the walk knows about one span of the trace it is resolving, kept
/// by the span's *position* — its rank in event order within the trace.
#[derive(Clone, Copy)]
struct Slot {
    /// Position of the span the parent id resolves to (`None` for a root).
    parent: Option<usize>,
    /// Position the span's own id resolves to: itself, unless a later span
    /// of the trace repeats the id (the last one recorded wins).
    holder: usize,
    /// Summed durations of the spans whose parent id resolves here.
    child_us: u64,
    /// Whether the parent links from here are known to end at a root.
    rooted: bool,
}

/// The trace a [`SpanVisit`] belongs to, addressed by position.
#[derive(Clone, Copy)]
pub(crate) struct TraceView<'a> {
    events: &'a [SpanEvent],
    /// Indices into `events` of this trace's spans, in event order.
    order: &'a [usize],
    slots: &'a [Slot],
}

impl<'a> TraceView<'a> {
    /// Number of spans in the trace.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// The span at position `at`.
    pub fn span(&self, at: usize) -> &'a SpanEvent {
        &self.events[self.order[at]]
    }

    /// Position of the parent of the span at `at` (`None` for a root).
    /// Following it from any position ends at a root: the walk visits no
    /// trace where it does not.
    pub fn parent(&self, at: usize) -> Option<usize> {
        self.slots[at].parent
    }
}

/// One span of a complete trace, as [`walk_complete_traces`] hands it to a
/// fold.
pub(crate) struct SpanVisit<'a> {
    /// The span itself.
    pub span: &'a SpanEvent,
    /// Its duration minus its direct children's.
    pub self_us: u64,
    /// Its position in `trace`; 0 opens a new trace.
    pub at: usize,
    /// The trace it belongs to.
    pub trace: TraceView<'a>,
}

/// Resolves one trace's parent links into `slots`, through `ids` — the
/// trace's `(span id, position)` pairs, sorted, so that the last pair of an
/// id is the span recorded last under it. Returns whether the trace is
/// complete: every parent id names a span of the trace and every chain of
/// parents ends at a root (two spans naming each other never do).
fn index_trace(
    events: &[SpanEvent],
    trace: &[usize],
    ids: &mut Vec<(u64, usize)>,
    slots: &mut Vec<Slot>,
) -> bool {
    ids.clear();
    ids.extend(
        trace
            .iter()
            .enumerate()
            .map(|(at, &i)| (events[i].span_id, at)),
    );
    ids.sort_unstable();
    slots.clear();
    slots.resize(
        trace.len(),
        Slot {
            parent: None,
            holder: 0,
            child_us: 0,
            rooted: false,
        },
    );
    for same_id in ids.chunk_by(|a, b| a.0 == b.0) {
        let holder = same_id[same_id.len() - 1].1;
        for &(_, at) in same_id {
            slots[at].holder = holder;
        }
    }
    for (at, &i) in trace.iter().enumerate() {
        let span = &events[i];
        if span.parent_span_id == 0 {
            slots[at].rooted = true;
            continue;
        }
        let after = ids.partition_point(|&(id, _)| id <= span.parent_span_id);
        match ids[..after].last() {
            Some(&(id, parent)) if id == span.parent_span_id => {
                slots[at].parent = Some(parent);
                slots[parent].child_us += span.duration_us();
            }
            _ => return false,
        }
    }
    // Every span not yet known to reach a root climbs to one that is and
    // marks its path, so each span is climbed past once; a climb longer
    // than the trace has gone round a cycle.
    for start in 0..slots.len() {
        let mut at = start;
        let mut steps = 0;
        while !slots[at].rooted {
            at = slots[at].parent.expect("a span without a parent is rooted");
            steps += 1;
            if steps > slots.len() {
                return false;
            }
        }
        let mut at = start;
        while !slots[at].rooted {
            slots[at].rooted = true;
            at = slots[at].parent.expect("a span without a parent is rooted");
        }
    }
    true
}

/// The one span-tree walk every aggregate view folds over: groups `events`
/// by trace (untraced events, `trace_id == 0`, are ignored), keeps the
/// *complete* traces (every parent link resolves and leads to a root —
/// eviction can behead old traces) and calls `visit` once per span of each
/// with its self time. Traces are visited by ascending id and a trace's
/// spans in event order; folds rely on that order. Where two spans of a
/// trace share an id, parent links resolve to the one recorded last.
/// Returns `(traces, total_us)`: how many traces were complete and their
/// summed root-span durations.
///
/// Nothing is built per trace: one index vector sorted by `(trace id,
/// event index)` groups the events, and each trace reuses one sorted
/// `(span id, position)` table and one slot per position.
pub(crate) fn walk_complete_traces(
    events: &[SpanEvent],
    mut visit: impl FnMut(SpanVisit<'_>),
) -> (u64, u64) {
    let mut order: Vec<usize> = Vec::with_capacity(events.len());
    order.extend((0..events.len()).filter(|&i| events[i].trace_id != 0));
    order.sort_unstable_by_key(|&i| (events[i].trace_id, i));
    let mut ids = Vec::with_capacity(order.len());
    let mut slots = Vec::with_capacity(order.len());
    let (mut walked, mut total_us) = (0, 0);
    for trace in order.chunk_by(|&a, &b| events[a].trace_id == events[b].trace_id) {
        if !index_trace(events, trace, &mut ids, &mut slots) {
            continue;
        }
        let view = TraceView {
            events,
            order: trace,
            slots: &slots,
        };
        for at in 0..trace.len() {
            let span = view.span(at);
            let nested = slots[slots[at].holder].child_us;
            visit(SpanVisit {
                span,
                self_us: span.duration_us().saturating_sub(nested),
                at,
                trace: view,
            });
            if span.parent_span_id == 0 {
                total_us += span.duration_us();
            }
        }
        walked += 1;
    }
    (walked, total_us)
}

/// Decomposes every *complete* trace in `events` (one whose parent links
/// all resolve and lead to a root — eviction can behead old traces) into
/// per-bucket self times. Untraced events (`trace_id == 0`) are ignored.
pub fn critical_path(events: &[SpanEvent]) -> Breakdown {
    let mut out = Breakdown::default();
    (out.traces, out.total_us) = walk_complete_traces(events, |v| {
        out.bucket_us[bucket_for(v.span.op).index()] += v.self_us;
    });
    out
}

/// One row of the per-entity conflict leaderboard.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConflictEntry {
    /// `bean[key]` identity of the contended entity.
    pub entity: String,
    /// OCC aborts attributed to it.
    pub conflicts: u64,
    /// Fields observed diverging, de-duplicated, sorted.
    pub fields: Vec<String>,
}

/// Ranks entities by how many OCC aborts their divergence caused —
/// hottest first, ties broken by entity name for determinism.
pub fn conflict_leaderboard(events: &[SpanEvent]) -> Vec<ConflictEntry> {
    let mut by_entity: BTreeMap<String, (u64, Vec<String>)> = BTreeMap::new();
    for e in events {
        if let Some(info) = e.conflict() {
            let slot = by_entity.entry(info.entity()).or_default();
            slot.0 += 1;
            if let Some(field) = &info.field {
                if !slot.1.contains(field) {
                    slot.1.push(field.clone());
                }
            }
        }
    }
    let mut rows: Vec<ConflictEntry> = by_entity
        .into_iter()
        .map(|(entity, (conflicts, mut fields))| {
            fields.sort();
            ConflictEntry {
                entity,
                conflicts,
                fields,
            }
        })
        .collect();
    rows.sort_by(|a, b| b.conflicts.cmp(&a.conflicts).then(a.entity.cmp(&b.entity)));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{ConflictInfo, SpanDetail, SpanOutcome};

    fn span(op: &'static str, trace: u64, id: u64, parent: u64, start: u64, end: u64) -> SpanEvent {
        SpanEvent {
            op,
            origin: 1,
            txn_id: 0,
            start_us: start,
            end_us: end,
            outcome: SpanOutcome::Committed,
            trace_id: trace,
            span_id: id,
            parent_span_id: parent,
            detail: None,
        }
    }

    #[test]
    fn buckets_classify_by_op_prefix() {
        assert_eq!(bucket_for("net.request"), Bucket::Network);
        assert_eq!(bucket_for("rpc.attempt"), Bucket::Network);
        assert_eq!(bucket_for("db.txn.begin"), Bucket::DbLockWait);
        assert_eq!(bucket_for("db.open"), Bucket::DbLockWait);
        assert_eq!(bucket_for("db.stmt"), Bucket::Statement);
        assert_eq!(bucket_for("db.batch"), Bucket::Statement);
        assert_eq!(bucket_for("commit.validate_apply"), Bucket::OccValidation);
        assert_eq!(bucket_for("occ.conflict"), Bucket::OccValidation);
        assert_eq!(bucket_for("servlet.buy"), Bucket::LocalCompute);
        assert_eq!(bucket_for("request"), Bucket::LocalCompute);
    }

    #[test]
    fn self_times_decompose_root_duration_exactly() {
        // request [0,100): servlet [10,90) with net [20,40) + db.stmt [40,70).
        let events = vec![
            span("net.request", 7, 3, 2, 20, 40),
            span("db.stmt", 7, 4, 2, 40, 70),
            span("servlet.buy", 7, 2, 1, 10, 90),
            span("request", 7, 1, 0, 0, 100),
        ];
        let b = critical_path(&events);
        assert_eq!(b.traces, 1);
        assert_eq!(b.total_us, 100);
        assert_eq!(b.bucket_us(Bucket::Network), 20);
        assert_eq!(b.bucket_us(Bucket::Statement), 30);
        // servlet self 30 + request self 20.
        assert_eq!(b.bucket_us(Bucket::LocalCompute), 50);
        assert_eq!(b.sum_us(), b.total_us);
        assert!((b.mean_ms() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn nested_batch_spans_attribute_only_framing_overhead_to_the_batch() {
        // PR 7's wire batching nests db.stmt leaves under a db.batch span:
        // request [0,100) → net [10,90) → db.batch [20,80) holding two
        // statements [20,50) and [50,75). The batch's *self* time is only
        // its framing overhead (5 µs), never the statements' work, and the
        // whole tree still decomposes the root exactly.
        let events = vec![
            span("request", 9, 1, 0, 0, 100),
            span("net.request", 9, 2, 1, 10, 90),
            span("db.batch", 9, 3, 2, 20, 80),
            span("db.stmt", 9, 4, 3, 20, 50),
            span("db.stmt", 9, 5, 3, 50, 75),
        ];
        let b = critical_path(&events);
        assert_eq!(b.traces, 1);
        assert_eq!(b.total_us, 100);
        // Batch self 5 + statement selves 30 + 25: batching must not
        // double-count the statements it wraps.
        assert_eq!(b.bucket_us(Bucket::Statement), 60);
        assert_eq!(b.bucket_us(Bucket::Network), 20);
        assert_eq!(b.bucket_us(Bucket::LocalCompute), 20);
        assert_eq!(b.sum_us(), b.total_us);
    }

    #[test]
    fn conflicts_nested_under_batch_spans_still_reach_the_leaderboard() {
        let mut conflict = span("occ.conflict", 11, 4, 3, 60, 61);
        conflict.outcome = SpanOutcome::Conflict;
        conflict.detail = Some(SpanDetail::Conflict(ConflictInfo {
            bean: "holding".to_owned(),
            key: "42".to_owned(),
            field: Some("quantity".to_owned()),
            expected_digest: 1,
            found_digest: Some(2),
        }));
        let events = vec![
            span("request", 11, 1, 0, 0, 100),
            span("db.batch", 11, 2, 1, 10, 90),
            span("db.stmt", 11, 3, 2, 20, 70),
            conflict,
        ];
        let rows = conflict_leaderboard(&events);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].entity, "holding[42]");
        assert_eq!(rows[0].conflicts, 1);
        assert_eq!(rows[0].fields, vec!["quantity".to_owned()]);
    }

    #[test]
    fn incomplete_and_untraced_events_are_skipped() {
        let events = vec![
            // Orphan: parent 99 was evicted.
            span("db.stmt", 5, 2, 99, 0, 10),
            span("request", 5, 1, 0, 0, 20),
            // Untraced flat event.
            SpanEvent::flat("commit.validate_apply", 1, 1, 0, 5, SpanOutcome::Committed),
        ];
        let b = critical_path(&events);
        assert_eq!(b.traces, 0);
        assert_eq!(b.total_us, 0);
        assert_eq!(b.sum_us(), 0);
    }

    #[test]
    fn merge_accumulates() {
        let a = critical_path(&[span("request", 1, 1, 0, 0, 10)]);
        let mut total = Breakdown::default();
        total.merge(&a);
        total.merge(&a);
        assert_eq!(total.traces, 2);
        assert_eq!(total.total_us, 20);
        assert_eq!(total.bucket_us(Bucket::LocalCompute), 20);
    }

    #[test]
    fn leaderboard_ranks_hottest_entities_first() {
        let conflict = |bean: &str, key: &str, field: Option<&str>| {
            let mut e = SpanEvent::flat("occ.conflict", 1, 1, 0, 0, SpanOutcome::Conflict);
            e.detail = Some(SpanDetail::Conflict(ConflictInfo {
                bean: bean.to_owned(),
                key: key.to_owned(),
                field: field.map(str::to_owned),
                expected_digest: 1,
                found_digest: Some(2),
            }));
            e
        };
        let events = vec![
            conflict("quote", "7", Some("price")),
            conflict("quote", "7", Some("volume")),
            conflict("quote", "7", Some("price")),
            conflict("account", "3", None),
        ];
        let rows = conflict_leaderboard(&events);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].entity, "quote[7]");
        assert_eq!(rows[0].conflicts, 3);
        assert_eq!(
            rows[0].fields,
            vec!["price".to_owned(), "volume".to_owned()]
        );
        assert_eq!(rows[1].entity, "account[3]");
        assert!(rows[1].fields.is_empty());
    }
}
