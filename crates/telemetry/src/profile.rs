//! Cross-session aggregate profiling: where the milliseconds live.
//!
//! [`critical_path`](crate::critical_path) decomposes one run into five
//! latency buckets; this module keeps the full shape. A [`Profile`] folds
//! every complete span tree harvested under load into
//!
//! * **per-class self time** — a span class is its op plus the statement
//!   class for database leaves (`db.stmt:account.read`), so the profile
//!   distinguishes the holdings scan from the account point-read;
//! * **collapsed call stacks** — `root;child;leaf self_us` lines in the
//!   standard flamegraph collapsed-stack format ([`Profile::folded`]),
//!   loadable directly into inferno or speedscope;
//! * **per-resource accounting** — every class maps through its bucket to
//!   the simulated [`Resource`] its self time occupies, giving each
//!   resource's share of the measured latency. Utilization — busy time
//!   over a window — is the simulation clock's own count of what it
//!   charged each resource, not rebuilt here.
//!
//! The same conservation law that makes the bucket breakdown trustworthy
//! holds here, exactly and at every granularity: class self times, stack
//! self times and resource totals each sum to the total measured root
//! latency (the profile's law, which [`validate`](crate::validate) runs,
//! pins all three on every exported document). [`littles_law`] closes the
//! loop on the load side: the area under the engine's in-flight trajectory
//! must equal the summed session residences — L = λ·W as an integer
//! identity, not an approximation.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::sync::Arc;

use crate::json::Json;
use crate::schema::Shape::{self, *};
use crate::schema::{items, uint};
use crate::span::{SpanDetail, SpanEvent};
use crate::tree::{bucket_for, walk_complete_traces, Breakdown, Bucket};

/// Schema identifier embedded in every exported profile document; bump on
/// any incompatible shape change.
pub const PROFILE_SCHEMA: &str = "sli-edge.profile/v1";

/// The simulated resource a span's self time occupies — the unit of
/// virtual speedup in the what-if engine: each resource maps to one cost
/// knob (path costs, database CPU, edge CPU), except store-lock, which
/// holds the split-servers back-end's CPU and has no knob to turn.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Resource {
    /// Application-server compute at the edge: servlet dispatch, engine
    /// work, page rendering.
    EdgeCpu,
    /// Network crossings — WAN and LAN path latency, serialisation,
    /// proxy delay — plus, in a profile, the retry backoff and time-outs
    /// waited inside network spans, which the clock charges to
    /// no resource.
    Wire,
    /// Back-end database work: statement execution plus the transaction
    /// bracketing (BEGIN/COMMIT, session open/close) the same server
    /// charges for.
    BackendDb,
    /// The commit protocol: OCC validation, replay lookup and
    /// invalidation fan-out. The only time charged to it is the
    /// split-servers back-end's CPU; no store wait is charged anywhere.
    StoreLock,
}

impl Resource {
    /// All resources in stable report order.
    pub const ALL: [Resource; 4] = [
        Resource::EdgeCpu,
        Resource::Wire,
        Resource::BackendDb,
        Resource::StoreLock,
    ];

    /// The [`Resource::label`]s, in [`Resource::ALL`] order.
    const LABELS: [&'static str; 4] = ["edge-cpu", "wire", "backend-db", "store-lock"];

    /// Stable label for tables and JSON.
    pub fn label(self) -> &'static str {
        Resource::LABELS[self as usize]
    }
}

/// Maps a latency bucket to the resource whose speedup would shrink it.
pub fn resource_for(bucket: Bucket) -> Resource {
    match bucket {
        Bucket::Network => Resource::Wire,
        // Both statement execution and transaction bracketing are charged
        // by the database server's cost model, so one knob speeds up both.
        Bucket::DbLockWait | Bucket::Statement => Resource::BackendDb,
        Bucket::OccValidation => Resource::StoreLock,
        Bucket::LocalCompute => Resource::EdgeCpu,
    }
}

/// The profile frame name for a span: its op, refined by the statement
/// class for database leaves so distinct statements get distinct frames
/// (`db.stmt:account.read`, `db.batch:batch:2`). Colon-joined to keep
/// frame names free of spaces — collapsed-stack parsers split the count
/// off at the last space.
pub fn span_class(event: &SpanEvent) -> String {
    class_name(event.op, statement_of(event))
}

/// The plan's statement class refining `event`'s frame name (none if empty).
fn statement_of(event: &SpanEvent) -> Option<&Arc<str>> {
    match &event.detail {
        Some(SpanDetail::Statement { class }) if !class.is_empty() => Some(class),
        _ => None,
    }
}

fn class_name(op: &str, statement: Option<&Arc<str>>) -> String {
    statement.map_or_else(|| op.to_owned(), |s| format!("{op}:{s}"))
}

/// Orders two `(op, statement)` pairs as their [`class_name`]s order as
/// strings, without building either name.
fn class_name_cmp((a_op, a_stmt): Key, (b_op, b_stmt): Key) -> Ordering {
    let shared = a_op.len().min(b_op.len());
    match a_op.as_bytes()[..shared].cmp(&b_op.as_bytes()[..shared]) {
        // The same op: `op` sorts before every `op:statement`, as `None`
        // does before every `Some`.
        Ordering::Equal if a_op.len() == b_op.len() => a_stmt.cmp(&b_stmt),
        // One op is the head of the other, so the separator takes part.
        Ordering::Equal => name_bytes(a_op, a_stmt).cmp(name_bytes(b_op, b_stmt)),
        decided => decided,
    }
}

/// A class's `(op, statement)` pair, as [`class_name_cmp`] orders it.
type Key<'a> = (&'a str, Option<&'a Arc<str>>);

/// The bytes of [`class_name`]`(op, statement)`.
fn name_bytes<'a>(op: &'a str, statement: Option<&'a Arc<str>>) -> impl Iterator<Item = u8> + 'a {
    let (sep, statement) = statement.map_or(("", ""), |s| (":", &**s));
    [op, sep, statement].into_iter().flat_map(str::bytes)
}

/// Aggregated statistics for one span class.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClassStat {
    /// Self time (duration minus children) summed over all spans of this
    /// class, microseconds.
    pub self_us: u64,
    /// Number of spans folded in.
    pub spans: u64,
    /// The latency bucket this class's op belongs to.
    pub bucket: Bucket,
}

/// One interned span class: what names it, and what was folded into it.
#[derive(Clone, Debug)]
struct Class {
    op: &'static str,
    /// The statement class refining the op: the first span's own `Arc`.
    statement: Option<Arc<str>>,
    stat: ClassStat,
}

impl Class {
    fn key(&self) -> Key<'_> {
        (self.op, self.statement.as_ref())
    }

    fn name(&self) -> String {
        class_name(self.op, self.statement.as_ref())
    }
}

/// One distinct call stack: a node of the trie whose path from a top-level
/// node spells `root;...;leaf`.
#[derive(Clone, Copy, Debug)]
struct Stack {
    /// The enclosing stack (`None` for a root frame's).
    parent: Option<usize>,
    /// Class id of the leaf frame.
    class: usize,
    /// Aggregated self time of the leaf frame.
    self_us: u64,
    /// Head of the list of stacks one frame deeper, linked by `next`.
    first_child: Option<usize>,
    next: Option<usize>,
}

/// A weighted cross-session profile: per-class self times, collapsed
/// stacks and resource totals folded from complete span trees (see the
/// module docs for the conservation guarantees).
///
/// Folding handles spans by number: a class is interned once, as its
/// `(op, statement class)` pair, and a stack is a trie node reached from
/// its parent's, so a span whose class and stack have been seen costs
/// index arithmetic. Names are built only on the way out
/// ([`classes`](Profile::classes), [`folded`](Profile::folded),
/// [`to_json`](Profile::to_json)), sorted as strings. Two profiles are
/// equal when those exports are: ids depend on the order things were seen
/// in, and are not compared.
#[derive(Clone, Debug, Default)]
pub struct Profile {
    /// Class id → class, in the order first seen. Two classes never share
    /// a [`class_name`].
    classes: Vec<Class>,
    /// The class ids in name order.
    by_name: Vec<usize>,
    /// Stack id → stack; a stack's parent has the smaller id.
    stacks: Vec<Stack>,
    /// Head of the list of root-frame stacks.
    first_root: Option<usize>,
    /// Total root-span time profiled, microseconds.
    pub total_us: u64,
    /// Number of complete traces folded in.
    pub traces: u64,
}

impl PartialEq for Profile {
    fn eq(&self, other: &Profile) -> bool {
        self.total_us == other.total_us
            && self.traces == other.traces
            && self.classes().eq(other.classes())
            && self.stack_table() == other.stack_table()
    }
}

impl Eq for Profile {}

impl Profile {
    /// The id of the class named by `op` and `statement`, interned with
    /// `bucket` if it is new. (A name could in principle be spelled by two
    /// ops, `a` + `b:c` and `a:b` + `c`; the class keeps the first one's
    /// bucket. No op in this workspace contains a colon.)
    fn class_id(&mut self, op: &'static str, stmt: Option<&Arc<str>>, bucket: Bucket) -> usize {
        let found = self
            .by_name
            .binary_search_by(|&id| class_name_cmp(self.classes[id].key(), (op, stmt)));
        match found {
            Ok(rank) => self.by_name[rank],
            Err(rank) => {
                let id = self.classes.len();
                self.classes.push(Class {
                    op,
                    statement: stmt.cloned(),
                    stat: ClassStat {
                        self_us: 0,
                        spans: 0,
                        bucket,
                    },
                });
                self.by_name.insert(rank, id);
                id
            }
        }
    }

    /// Head of the list of stacks one frame deeper than `parent`.
    fn first_child(&self, parent: Option<usize>) -> Option<usize> {
        match parent {
            Some(p) => self.stacks[p].first_child,
            None => self.first_root,
        }
    }

    /// The id of the stack that extends `parent` by a frame of `class`.
    fn stack_id(&mut self, parent: Option<usize>, class: usize) -> usize {
        let head = self.first_child(parent);
        let mut at = head;
        while let Some(id) = at {
            if self.stacks[id].class == class {
                return id;
            }
            at = self.stacks[id].next;
        }
        let id = self.stacks.len();
        self.stacks.push(Stack {
            parent,
            class,
            self_us: 0,
            first_child: None,
            next: head,
        });
        match parent {
            Some(p) => self.stacks[p].first_child = Some(id),
            None => self.first_root = Some(id),
        }
        id
    }

    /// The id of the stack that extends `parent` by `span`'s frame. A
    /// stack seen before is found among `parent`'s few children by the
    /// span's op and statement class as they stand, which is what keeps
    /// the class table out of the steady state: by address, then by text (a
    /// call site compiled into two crates has two, two plans of one statement
    /// two `Arc`s); two spans without a statement match with no compare.
    fn stack_of(&mut self, parent: Option<usize>, span: &SpanEvent) -> usize {
        let (op, statement) = (span.op, statement_of(span));
        let mut at = self.first_child(parent);
        while let Some(id) = at {
            let class = &self.classes[self.stacks[id].class];
            let same_statement = match (&class.statement, statement) {
                (Some(a), Some(b)) => Arc::ptr_eq(a, b) || **a == **b,
                (a, b) => a.is_none() && b.is_none(),
            };
            if same_statement && (std::ptr::eq(class.op, op) || class.op == op) {
                return id;
            }
            at = self.stacks[id].next;
        }
        let class = self.class_id(op, statement, bucket_for(op));
        self.stack_id(parent, class)
    }

    /// Folds every complete trace in `events` into the profile. Like
    /// [`critical_path`](crate::critical_path) this is a fold over the one
    /// span-tree walk, so the two agree span for span.
    pub fn fold(&mut self, events: &[SpanEvent]) {
        // The stack of each span of the trace being walked, by position,
        // once known: a span's stack extends its parent's, and a parent is
        // usually recorded after its children.
        let mut stack_at: Vec<Option<usize>> = Vec::new();
        // The positions a climb passed on its way up; no chain is longer
        // than its trace.
        let mut unresolved: Vec<usize> = Vec::new();
        let (traces, total_us) = walk_complete_traces(events, |v| {
            if v.at == 0 {
                stack_at.clear();
                stack_at.resize(v.trace.len(), None);
                unresolved.reserve(v.trace.len());
            }
            // Climb to the nearest span whose stack is known (or past a
            // root), then come back down extending it frame by frame.
            let mut at = v.at;
            let mut stack = loop {
                if stack_at[at].is_some() {
                    break stack_at[at];
                }
                unresolved.push(at);
                match v.trace.parent(at) {
                    Some(parent) => at = parent,
                    None => break None,
                }
            };
            while let Some(at) = unresolved.pop() {
                stack = Some(self.stack_of(stack, v.trace.span(at)));
                stack_at[at] = stack;
            }
            let stack = stack.expect("the walk visits spans, so the climb resolved one");
            self.stacks[stack].self_us += v.self_us;
            let stat = &mut self.classes[self.stacks[stack].class].stat;
            stat.self_us += v.self_us;
            stat.spans += 1;
        });
        self.traces += traces;
        self.total_us += total_us;
    }

    /// Builds a profile from one batch of events.
    pub fn from_events(events: &[SpanEvent]) -> Profile {
        let mut p = Profile::default();
        p.fold(events);
        p
    }

    /// Folds another profile into this one.
    pub fn merge(&mut self, other: &Profile) {
        let class_ids: Vec<usize> = other
            .classes
            .iter()
            .map(|class| {
                let id = self.class_id(class.op, class.statement.as_ref(), class.stat.bucket);
                let stat = &mut self.classes[id].stat;
                stat.self_us += class.stat.self_us;
                stat.spans += class.stat.spans;
                id
            })
            .collect();
        // A stack's parent has the smaller id, so it is mapped by the time
        // the stack is.
        let mut stack_ids: Vec<usize> = Vec::with_capacity(other.stacks.len());
        for stack in &other.stacks {
            let parent = stack.parent.map(|p| stack_ids[p]);
            let id = self.stack_id(parent, class_ids[stack.class]);
            self.stacks[id].self_us += stack.self_us;
            stack_ids.push(id);
        }
        self.total_us += other.total_us;
        self.traces += other.traces;
    }

    /// Per-class statistics in deterministic (name-sorted) order.
    pub fn classes(&self) -> impl Iterator<Item = (String, ClassStat)> + '_ {
        self.by_name
            .iter()
            .map(|&id| (self.classes[id].name(), self.classes[id].stat))
    }

    /// Self time attributed to one span class (0 when absent).
    pub fn class_self_us(&self, class: &str) -> u64 {
        self.classes
            .iter()
            .find(|c| name_bytes(c.op, c.statement.as_ref()).eq(class.bytes()))
            .map_or(0, |c| c.stat.self_us)
    }

    /// Every distinct stack spelled out, `root;...;leaf` → self time of
    /// the leaf frame, in string order.
    fn stack_table(&self) -> BTreeMap<String, u64> {
        let names: Vec<String> = self.classes.iter().map(Class::name).collect();
        let mut spelled: Vec<String> = Vec::with_capacity(self.stacks.len());
        let mut table = BTreeMap::new();
        for stack in &self.stacks {
            let name = &names[stack.class];
            let path = match stack.parent {
                Some(p) => format!("{};{name}", spelled[p]),
                None => name.clone(),
            };
            // Every stack is some span's own (the walk visits each
            // ancestor it resolves), so each belongs in the table, zero or
            // not.
            *table.entry(path.clone()).or_default() += stack.self_us;
            spelled.push(path);
        }
        table
    }

    /// The profile's class self times summed by [`ClassStat::bucket`], over
    /// its traces and total: what [`critical_path`](crate::critical_path)
    /// returns for the same spans, read off the classes instead of a second
    /// walk.
    pub fn breakdown(&self) -> Breakdown {
        let mut out = Breakdown {
            bucket_us: [0; 5],
            total_us: self.total_us,
            traces: self.traces,
        };
        for class in &self.classes {
            out.bucket_us[class.stat.bucket.index()] += class.stat.self_us;
        }
        out
    }

    /// Self time attributed to `resource`, microseconds.
    pub fn resource_us(&self, resource: Resource) -> u64 {
        self.classes
            .iter()
            .filter(|c| resource_for(c.stat.bucket) == resource)
            .map(|c| c.stat.self_us)
            .sum()
    }

    /// Fraction of the profiled total spent on `resource` (0.0 when
    /// empty). Shares over [`Resource::ALL`] sum to 1.
    pub fn resource_share(&self, resource: Resource) -> f64 {
        if self.total_us == 0 {
            0.0
        } else {
            self.resource_us(resource) as f64 / self.total_us as f64
        }
    }

    /// The resources ranked by profile share, largest first (ties broken
    /// by report order for determinism).
    pub fn bottleneck_ranking(&self) -> Vec<Resource> {
        let mut ranked = Resource::ALL.to_vec();
        ranked.sort_by_key(|r| std::cmp::Reverse(self.resource_us(*r)));
        ranked
    }

    /// The profile in flamegraph collapsed-stack format: one
    /// `frame;frame;frame self_us` line per distinct stack, sorted for
    /// deterministic output. Feed to `inferno-flamegraph` or drop into
    /// speedscope as `{name}.folded`.
    pub fn folded(&self) -> String {
        self.stack_table()
            .iter()
            .map(|(stack, us)| format!("{stack} {us}\n"))
            .collect()
    }

    /// The profile as a [`PROFILE_SCHEMA`] JSON document labelled `label`.
    /// Round-trips through [`validate`](crate::validate).
    pub fn to_json(&self, label: &str) -> Json {
        let classes = self
            .classes()
            .map(|(class, stat)| {
                Json::obj([
                    ("class", Json::from(class)),
                    ("bucket", Json::from(stat.bucket.label())),
                    ("resource", Json::from(resource_for(stat.bucket).label())),
                    ("self_us", Json::from(stat.self_us)),
                    ("spans", Json::from(stat.spans)),
                ])
            })
            .collect();
        let resources = Resource::ALL
            .into_iter()
            .map(|r| {
                Json::obj([
                    ("resource", Json::from(r.label())),
                    ("self_us", Json::from(self.resource_us(r))),
                    ("share", Json::from(self.resource_share(r))),
                ])
            })
            .collect();
        let stacks = self
            .stack_table()
            .into_iter()
            .map(|(stack, us)| {
                Json::obj([("stack", Json::from(stack)), ("self_us", Json::from(us))])
            })
            .collect();
        Json::obj([
            ("schema", Json::from(PROFILE_SCHEMA)),
            ("label", Json::from(label)),
            ("traces", Json::from(self.traces)),
            ("total_us", Json::from(self.total_us)),
            ("classes", Json::Arr(classes)),
            ("resources", Json::Arr(resources)),
            ("stacks", Json::Arr(stacks)),
        ])
    }
}

/// The [`PROFILE_SCHEMA`] document [`Profile::to_json`] writes.
pub(crate) const SHAPE: Shape = Obj(&[
    ("schema", OneOf(&[PROFILE_SCHEMA])),
    ("label", Str),
    ("traces", U64),
    ("total_us", U64),
    ("classes", List(&CLASS)),
    ("resources", List(&RESOURCE)),
    ("stacks", List(&Obj(&[("stack", Str), ("self_us", U64)]))),
]);

/// One per-class row of [`Profile::to_json`].
const CLASS: Shape = Obj(&[
    ("class", Str),
    ("bucket", OneOf(&Bucket::LABELS)),
    ("resource", OneOf(&Resource::LABELS)),
    ("self_us", U64),
    ("spans", U64),
]);

/// One per-resource row of [`Profile::to_json`].
const RESOURCE: Shape = Obj(&[
    ("resource", OneOf(&Resource::LABELS)),
    ("self_us", U64),
    ("share", Ratio),
]);

/// The profile's conservation law, at all three granularities: class self
/// times, resource totals and stack self times each sum exactly to
/// `total_us`, each resource's share is its part of that total, and there
/// is a row per resource, spans behind every class and a frame in every
/// stack.
pub(crate) fn law(doc: &Json) -> Result<(), String> {
    let total_us = uint(doc, "total_us");
    if uint(doc, "traces") == 0 && total_us != 0 {
        return Err("zero traces cannot carry nonzero total_us".to_owned());
    }
    for part in ["classes", "resources", "stacks"] {
        let sum: u128 = items(doc, part)
            .iter()
            .map(|row| u128::from(uint(row, "self_us")))
            .sum();
        if sum != u128::from(total_us) {
            return Err(format!(
                "{part}: self times sum to {sum}, total_us says {total_us}"
            ));
        }
    }
    let resources = items(doc, "resources");
    if resources.len() != Resource::ALL.len() {
        return Err(format!(
            "resources: {} rows, expected {}",
            resources.len(),
            Resource::ALL.len()
        ));
    }
    for (i, r) in resources.iter().enumerate() {
        let share = r.get("share").and_then(Json::as_f64).unwrap_or_default();
        let expected = uint(r, "self_us") as f64 / total_us.max(1) as f64;
        if (share - expected).abs() > 1e-9 {
            return Err(format!(
                "resources[{i}]: share {share} does not match self_us/total_us = {expected}"
            ));
        }
    }
    if let Some(i) = items(doc, "classes")
        .iter()
        .position(|c| uint(c, "spans") == 0)
    {
        return Err(format!("classes[{i}]: a listed class must have spans"));
    }
    if let Some(i) = items(doc, "stacks")
        .iter()
        .position(|s| s.get("stack") == Some(&Json::from("")))
    {
        return Err(format!("stacks[{i}]: empty stack"));
    }
    Ok(())
}

/// The two sides of Little's law over one loaded run, plus their
/// disagreement. Produced by [`littles_law`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LittlesLaw {
    /// L̄: time-averaged in-flight sessions (trajectory area / makespan).
    pub avg_in_flight: f64,
    /// λ: session completions per second of virtual time.
    pub throughput_per_s: f64,
    /// W̄: mean session residence (admission → completion), milliseconds.
    pub mean_residence_ms: f64,
    /// |L̄ − λ·W̄| / L̄ — zero up to float rounding when the engine's
    /// accounting is consistent.
    pub relative_error: f64,
}

impl LittlesLaw {
    /// Whether the identity holds within `tolerance` relative error.
    pub fn holds(&self, tolerance: f64) -> bool {
        self.relative_error <= tolerance
    }
}

/// Checks L = λ·W on exact integer inputs: the area under the in-flight
/// session trajectory (`in_flight_area_us`, gauge level × virtual time),
/// the summed admission→completion residences of all completed sessions
/// (`residence_sum_us`), the completion count and the measured makespan.
/// Because both sides divide by the same makespan, the identity reduces
/// to `in_flight_area_us == residence_sum_us` — which the engine
/// guarantees by construction, so any relative error beyond float
/// rounding means dropped or double-counted sessions.
pub fn littles_law(
    in_flight_area_us: u64,
    residence_sum_us: u64,
    completions: u64,
    makespan_us: u64,
) -> LittlesLaw {
    if makespan_us == 0 || completions == 0 {
        return LittlesLaw {
            avg_in_flight: 0.0,
            throughput_per_s: 0.0,
            mean_residence_ms: 0.0,
            relative_error: 0.0,
        };
    }
    let avg_in_flight = in_flight_area_us as f64 / makespan_us as f64;
    let throughput_per_s = completions as f64 / (makespan_us as f64 / 1e6);
    let mean_residence_ms = residence_sum_us as f64 / completions as f64 / 1e3;
    let lambda_w = residence_sum_us as f64 / makespan_us as f64;
    let relative_error = if avg_in_flight == 0.0 && lambda_w == 0.0 {
        0.0
    } else {
        (avg_in_flight - lambda_w).abs() / avg_in_flight.max(lambda_w)
    };
    LittlesLaw {
        avg_in_flight,
        throughput_per_s,
        mean_residence_ms,
        relative_error,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::span::SpanOutcome;
    use crate::tree::critical_path;

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

    fn stmt(
        op: &'static str,
        class: impl Into<Arc<str>>,
        trace: u64,
        id: u64,
        parent: u64,
        start: u64,
        end: u64,
    ) -> SpanEvent {
        let mut e = span(op, trace, id, parent, start, end);
        e.detail = Some(SpanDetail::Statement {
            class: class.into(),
        });
        e
    }

    fn demo_events() -> Vec<SpanEvent> {
        // request [0,100): servlet [10,90) with net [20,40) wrapping a
        // batch [22,38) of two statements.
        vec![
            span("request", 7, 1, 0, 0, 100),
            span("servlet.buy", 7, 2, 1, 10, 90),
            span("net.request", 7, 3, 2, 20, 40),
            stmt("db.batch", "batch:2", 7, 4, 3, 22, 38),
            stmt("db.stmt", "account.read", 7, 5, 4, 22, 30),
            stmt("db.stmt", "holding.update", 7, 6, 4, 30, 36),
        ]
    }

    /// A known-good profile of one six-span request, for the schema tests.
    pub(crate) fn sample() -> Json {
        Profile::from_events(&demo_events()).to_json("unit @ 10ms")
    }

    #[test]
    fn class_self_times_conserve_the_root_duration() {
        let p = Profile::from_events(&demo_events());
        assert_eq!(p.traces, 1);
        assert_eq!(p.total_us, 100);
        let class_sum: u64 = p.classes().map(|(_, s)| s.self_us).sum();
        assert_eq!(class_sum, p.total_us);
        assert_eq!(p.class_self_us("db.stmt:account.read"), 8);
        assert_eq!(p.class_self_us("db.stmt:holding.update"), 6);
        assert_eq!(p.class_self_us("db.batch:batch:2"), 2);
        assert_eq!(p.class_self_us("net.request"), 4);
        assert_eq!(p.class_self_us("servlet.buy"), 60);
        assert_eq!(p.class_self_us("request"), 20);
    }

    #[test]
    fn profile_agrees_with_critical_path_bucket_sums() {
        let events = demo_events();
        let p = Profile::from_events(&events);
        let b = critical_path(&events);
        assert_eq!(p.breakdown(), b);
        assert_eq!(p.total_us, b.total_us);
        assert_eq!(p.traces, b.traces);
        for bucket in Bucket::ALL {
            let class_us: u64 = p
                .classes()
                .filter(|(_, s)| s.bucket == bucket)
                .map(|(_, s)| s.self_us)
                .sum();
            assert_eq!(class_us, b.bucket_us(bucket), "{bucket:?}");
        }
    }

    #[test]
    fn resources_partition_the_total() {
        let p = Profile::from_events(&demo_events());
        let sum: u64 = Resource::ALL.into_iter().map(|r| p.resource_us(r)).sum();
        assert_eq!(sum, p.total_us);
        assert_eq!(p.resource_us(Resource::Wire), 4);
        assert_eq!(p.resource_us(Resource::BackendDb), 16);
        assert_eq!(p.resource_us(Resource::EdgeCpu), 80);
        assert_eq!(p.resource_us(Resource::StoreLock), 0);
        let share_sum: f64 = Resource::ALL.into_iter().map(|r| p.resource_share(r)).sum();
        assert!((share_sum - 1.0).abs() < 1e-12);
        assert_eq!(
            p.bottleneck_ranking()[0],
            Resource::EdgeCpu,
            "largest share ranks first"
        );
    }

    #[test]
    fn resource_mapping_covers_every_bucket() {
        assert_eq!(resource_for(Bucket::Network), Resource::Wire);
        assert_eq!(resource_for(Bucket::Statement), Resource::BackendDb);
        assert_eq!(resource_for(Bucket::DbLockWait), Resource::BackendDb);
        assert_eq!(resource_for(Bucket::OccValidation), Resource::StoreLock);
        assert_eq!(resource_for(Bucket::LocalCompute), Resource::EdgeCpu);
    }

    #[test]
    fn folded_stacks_carry_full_paths_and_conserve() {
        let p = Profile::from_events(&demo_events());
        let folded = p.folded();
        assert!(folded
            .contains("request;servlet.buy;net.request;db.batch:batch:2;db.stmt:account.read 8\n"));
        assert!(folded.contains("request;servlet.buy 60\n"));
        let stack_sum: u64 = folded
            .lines()
            .map(|l| l.rsplit_once(' ').unwrap().1.parse::<u64>().unwrap())
            .sum();
        assert_eq!(stack_sum, p.total_us);
    }

    #[test]
    fn merge_and_incomplete_traces_match_critical_path_rules() {
        let mut p = Profile::from_events(&demo_events());
        p.merge(&Profile::from_events(&demo_events()));
        assert_eq!(p.traces, 2);
        assert_eq!(p.total_us, 200);
        assert_eq!(p.class_self_us("servlet.buy"), 120);
        // Orphaned parent link → whole trace skipped, as in critical_path.
        let orphan = vec![
            span("db.stmt", 5, 2, 99, 0, 10),
            span("request", 5, 1, 0, 0, 20),
        ];
        assert_eq!(Profile::from_events(&orphan), Profile::default());
    }

    #[test]
    fn a_cycle_of_parent_links_makes_its_trace_incomplete() {
        // Spans 2 and 3 of trace 9 name each other as parent. Every parent
        // id resolves, which is all the completeness rule used to ask, and
        // the fold then followed the links round and round collecting
        // frames (at the parent commit this test does not fail, it hangs
        // until the allocator gives up). No chain of theirs reaches a
        // root, so the trace is skipped like a beheaded one — its good
        // spans included — and the trace beside it folds as if alone.
        let mut events = demo_events();
        events.extend([
            span("request", 9, 1, 0, 0, 50),
            span("rpc.call", 9, 2, 3, 10, 40),
            span("rpc.attempt", 9, 3, 2, 10, 40),
        ]);
        // A span that is its own parent is the shortest cycle.
        events.push(span("request", 11, 5, 5, 0, 10));
        let alone = demo_events();
        assert_eq!(Profile::from_events(&events), Profile::from_events(&alone));
        assert_eq!(Profile::from_events(&events).traces, 1);
        assert_eq!(critical_path(&events), critical_path(&alone));
        assert_eq!(
            crate::chrome_trace(&events).render(),
            crate::chrome_trace(&alone).render()
        );
    }

    #[test]
    fn equality_is_by_content_not_by_the_order_things_were_seen_in() {
        let other = vec![
            span("request", 8, 1, 0, 0, 30),
            stmt("db.stmt", "quote.read", 8, 2, 1, 5, 25),
        ];
        let mut ab = Profile::from_events(&demo_events());
        ab.fold(&other);
        let mut ba = Profile::from_events(&other);
        ba.fold(&demo_events());
        assert_eq!(ab, ba);
        assert_eq!(ab.folded(), ba.folded());
        assert_eq!(ab.to_json("x").render(), ba.to_json("x").render());
        let mut merged = Profile::from_events(&other);
        merged.merge(&Profile::from_events(&demo_events()));
        assert_eq!(merged, ab);
        assert_ne!(ab, Profile::from_events(&demo_events()));
    }

    #[test]
    fn class_names_sort_as_strings_whatever_the_op_and_statement_split() {
        // `db.stmt.slow` < `db.stmt:a` as strings ('.' < ':'), though
        // `db.stmt` < `db.stmt.slow` as ops; an op sorts before its own
        // refinements.
        let events = vec![
            span("request", 7, 1, 0, 0, 100),
            stmt("db.stmt", "a", 7, 2, 1, 0, 10),
            span("db.stmt.slow", 7, 3, 1, 10, 20),
            span("db.stmt", 7, 4, 1, 20, 30),
            stmt("db.stmt", "", 7, 5, 1, 30, 40),
        ];
        let p = Profile::from_events(&events);
        let names: Vec<String> = p.classes().map(|(name, _)| name).collect();
        assert_eq!(names, ["db.stmt", "db.stmt.slow", "db.stmt:a", "request"]);
        assert_eq!(p.class_self_us("db.stmt"), 20, "an empty class is none");
        assert_eq!(p.class_self_us("db.stmt:a"), 10);
        assert_eq!(p.class_self_us("db.stmt:"), 0);
        assert_eq!(p.class_self_us("db"), 0);
    }

    #[test]
    fn one_statement_text_in_two_plans_is_one_class_and_one_stack() {
        let (plan_a, plan_b): (Arc<str>, Arc<str>) = ("quote.read".into(), "quote.read".into());
        assert!(!Arc::ptr_eq(&plan_a, &plan_b));
        let p = Profile::from_events(&[
            span("request", 1, 1, 0, 0, 30),
            stmt("db.stmt", plan_a, 1, 2, 1, 5, 25),
            span("request", 2, 1, 0, 0, 40),
            stmt("db.stmt", plan_b, 2, 2, 1, 10, 20),
        ]);
        assert_eq!((p.classes.len(), p.stacks.len()), (2, 2));
        assert_eq!(p.class_self_us("db.stmt:quote.read"), 30);
        assert_eq!(p.folded(), "request 40\nrequest;db.stmt:quote.read 30\n");
    }

    #[test]
    fn an_op_at_a_second_address_is_the_same_class() {
        let op: &'static str = Box::leak(String::from("servlet.buy").into_boxed_str());
        assert!(!std::ptr::eq(op, "servlet.buy"));
        let p = Profile::from_events(&[
            span("request", 1, 1, 0, 0, 30),
            span("servlet.buy", 1, 2, 1, 5, 25),
            span(op, 2, 2, 1, 10, 20),
            span("request", 2, 1, 0, 0, 40),
        ]);
        assert_eq!((p.classes.len(), p.stacks.len()), (2, 2));
        assert_eq!(p.class_self_us("servlet.buy"), 30);
        assert_eq!(p.folded(), "request 40\nrequest;servlet.buy 30\n");
    }

    #[test]
    fn an_empty_statement_class_is_no_class() {
        let p = Profile::from_events(&[
            span("request", 1, 1, 0, 0, 30),
            stmt("db.stmt", "", 1, 2, 1, 5, 15),
            span("db.stmt", 1, 3, 1, 15, 25),
        ]);
        assert_eq!((p.classes.len(), p.stacks.len()), (2, 2));
        let names: Vec<String> = p.classes().map(|(name, _)| name).collect();
        assert_eq!(names, ["db.stmt", "request"]);
        assert_eq!(p.folded(), "request 10\nrequest;db.stmt 20\n");
    }

    /// Three traces that spell classes every way a run does: two plans'
    /// copies of one statement class, one plan's class on two spans, an
    /// empty class beside no detail, an op at a second address, a batch,
    /// and details that are not statements; children recorded first.
    fn mixed_events() -> Vec<SpanEvent> {
        let (plan_a, plan_b): (Arc<str>, Arc<str>) = ("quote.read".into(), "quote.read".into());
        let shared: Arc<str> = "holding.update".into();
        let servlet: &'static str = Box::leak(String::from("servlet.buy").into_boxed_str());
        let mut attempt = span("rpc.attempt", 2, 3, 2, 10, 40);
        attempt.detail = Some(SpanDetail::Attempt { number: 1 });
        let mut conflict = span("commit.validate_apply", 3, 2, 1, 2, 12);
        conflict.outcome = SpanOutcome::Conflict;
        conflict.detail = Some(SpanDetail::Conflict(crate::span::ConflictInfo {
            bean: "Quote".into(),
            key: "q-1".into(),
            field: None,
            expected_digest: 1,
            found_digest: None,
        }));
        vec![
            span("request", 1, 1, 0, 0, 100),
            span("servlet.buy", 1, 2, 1, 5, 95),
            stmt("db.batch", "batch:2", 1, 8, 2, 60, 90),
            stmt("db.stmt", Arc::clone(&plan_a), 1, 3, 8, 60, 70),
            stmt("db.stmt", Arc::clone(&shared), 1, 4, 2, 20, 35),
            stmt("db.stmt", Arc::clone(&shared), 1, 5, 2, 35, 45),
            stmt("db.stmt", "", 1, 6, 2, 45, 50),
            span("db.stmt", 1, 7, 2, 50, 58),
            stmt("db.stmt", plan_b, 2, 4, 3, 12, 30),
            attempt,
            stmt("db.stmt", "", 2, 5, 2, 40, 50),
            span(servlet, 2, 2, 1, 5, 80),
            span("request", 2, 1, 0, 0, 90),
            conflict,
            span("request", 3, 1, 0, 0, 20),
        ]
    }

    #[test]
    fn a_mixed_batch_exports_pinned_bytes() {
        let mut p = Profile::from_events(&mixed_events());
        p.merge(&Profile::from_events(&mixed_events()));
        let folded = "request 70
request;commit.validate_apply 20
request;servlet.buy 114
request;servlet.buy;db.batch:batch:2 40
request;servlet.buy;db.batch:batch:2;db.stmt:quote.read 20
request;servlet.buy;db.stmt 46
request;servlet.buy;db.stmt:holding.update 50
request;servlet.buy;rpc.attempt 24
request;servlet.buy;rpc.attempt;db.stmt:quote.read 36
";
        assert_eq!(p.folded(), folded);
        let json = concat!(
            r#"{"classes":["#,
            r#"{"bucket":"occ-validation","class":"commit.validate_apply","resource":"store-lock","self_us":20,"spans":2},"#,
            r#"{"bucket":"statement-execution","class":"db.batch:batch:2","resource":"backend-db","self_us":40,"spans":2},"#,
            r#"{"bucket":"statement-execution","class":"db.stmt","resource":"backend-db","self_us":46,"spans":6},"#,
            r#"{"bucket":"statement-execution","class":"db.stmt:holding.update","resource":"backend-db","self_us":50,"spans":4},"#,
            r#"{"bucket":"statement-execution","class":"db.stmt:quote.read","resource":"backend-db","self_us":56,"spans":4},"#,
            r#"{"bucket":"local-compute","class":"request","resource":"edge-cpu","self_us":70,"spans":6},"#,
            r#"{"bucket":"network-crossing","class":"rpc.attempt","resource":"wire","self_us":24,"spans":2},"#,
            r#"{"bucket":"local-compute","class":"servlet.buy","resource":"edge-cpu","self_us":114,"spans":4}],"#,
            r#""label":"mixed","resources":["#,
            r#"{"resource":"edge-cpu","self_us":184,"share":0.4380952380952381},"#,
            r#"{"resource":"wire","self_us":24,"share":0.05714285714285714},"#,
            r#"{"resource":"backend-db","self_us":192,"share":0.45714285714285713},"#,
            r#"{"resource":"store-lock","self_us":20,"share":0.047619047619047616}],"#,
            r#""schema":"sli-edge.profile/v1","stacks":["#,
            r#"{"self_us":70,"stack":"request"},"#,
            r#"{"self_us":20,"stack":"request;commit.validate_apply"},"#,
            r#"{"self_us":114,"stack":"request;servlet.buy"},"#,
            r#"{"self_us":40,"stack":"request;servlet.buy;db.batch:batch:2"},"#,
            r#"{"self_us":20,"stack":"request;servlet.buy;db.batch:batch:2;db.stmt:quote.read"},"#,
            r#"{"self_us":46,"stack":"request;servlet.buy;db.stmt"},"#,
            r#"{"self_us":50,"stack":"request;servlet.buy;db.stmt:holding.update"},"#,
            r#"{"self_us":24,"stack":"request;servlet.buy;rpc.attempt"},"#,
            r#"{"self_us":36,"stack":"request;servlet.buy;rpc.attempt;db.stmt:quote.read"}],"#,
            r#""total_us":420,"traces":6}"#,
        );
        assert_eq!(p.to_json("mixed").render(), json);
    }

    #[test]
    fn littles_law_is_exact_on_consistent_inputs() {
        // Three sessions resident 10, 20 and 30 ms over a 100 ms run:
        // area == Σ residences by construction.
        let check = littles_law(60_000, 60_000, 3, 100_000);
        assert!(check.holds(1e-9), "{check:?}");
        assert!((check.avg_in_flight - 0.6).abs() < 1e-12);
        assert!((check.throughput_per_s - 30.0).abs() < 1e-9);
        assert!((check.mean_residence_ms - 20.0).abs() < 1e-12);
        // A dropped session shows up as relative error.
        let broken = littles_law(60_000, 40_000, 3, 100_000);
        assert!(!broken.holds(0.01), "{broken:?}");
        // Degenerate inputs do not divide by zero.
        assert!(littles_law(0, 0, 0, 0).holds(0.0));
    }
}
