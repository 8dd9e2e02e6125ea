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
//!   the simulated [`Resource`] its self time occupies, giving utilization
//!   ρ per resource over a measured window.
//!
//! The same conservation law that makes the bucket breakdown trustworthy
//! holds here, exactly and at every granularity: class self times, stack
//! self times and resource totals each sum to the total measured root
//! latency ([`validate_profile`] pins all three on every exported
//! document). [`littles_law`] closes the loop on the load side: the area
//! under the engine's in-flight trajectory must equal the summed session
//! residences — L = λ·W as an integer identity, not an approximation.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::span::{SpanDetail, SpanEvent};
use crate::tree::{bucket_for, walk_complete_traces, Bucket};

/// Schema identifier embedded in every exported profile document; bump on
/// any incompatible shape change.
pub const PROFILE_SCHEMA: &str = "sli-edge.profile/v1";

/// The simulated resource a span's self time occupies — the unit of
/// virtual speedup in the what-if engine: each resource maps to one cost
/// knob (path costs, database CPU, edge CPU), except the lock/validation
/// resource, which is contention and has no knob to turn.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Resource {
    /// Application-server compute at the edge: servlet dispatch, engine
    /// work, page rendering.
    EdgeCpu,
    /// Network crossings — WAN and LAN path latency, serialisation,
    /// proxy delay and retry backoff.
    Wire,
    /// Back-end database work: statement execution plus the transaction
    /// bracketing (BEGIN/COMMIT, session open/close) the same server
    /// charges for.
    BackendDb,
    /// Store/lock contention: OCC validation, replay lookup and
    /// invalidation fan-out — time spent agreeing, not computing.
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

    /// Stable label for tables and JSON.
    pub fn label(self) -> &'static str {
        match self {
            Resource::EdgeCpu => "edge-cpu",
            Resource::Wire => "wire",
            Resource::BackendDb => "backend-db",
            Resource::StoreLock => "store-lock",
        }
    }

    /// Parses a [`Resource::label`] back to the resource.
    pub fn from_label(label: &str) -> Option<Resource> {
        Resource::ALL.into_iter().find(|r| r.label() == label)
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
    match &event.detail {
        Some(SpanDetail::Statement { class }) if !class.is_empty() => {
            format!("{}:{class}", event.op)
        }
        _ => event.op.to_owned(),
    }
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

/// A weighted cross-session profile: per-class self times, collapsed
/// stacks and resource totals folded from complete span trees (see the
/// module docs for the conservation guarantees).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Profile {
    /// Span class → aggregated self time.
    classes: BTreeMap<String, ClassStat>,
    /// `root;...;leaf` stack → aggregated self time of the leaf frame.
    stacks: BTreeMap<String, u64>,
    /// Total root-span time profiled, microseconds.
    pub total_us: u64,
    /// Number of complete traces folded in.
    pub traces: u64,
}

impl Profile {
    /// Folds every complete trace in `events` into the profile. Like
    /// [`critical_path`](crate::critical_path) this is a fold over the one
    /// span-tree walk, so the two agree span for span.
    pub fn fold(&mut self, events: &[SpanEvent]) {
        let (traces, total_us) = walk_complete_traces(events, |v| {
            let slot = self.classes.entry(span_class(v.span)).or_insert(ClassStat {
                self_us: 0,
                spans: 0,
                bucket: bucket_for(v.span.op),
            });
            slot.self_us += v.self_us;
            slot.spans += 1;
            // Root → self frame path for the collapsed stack.
            let mut frames: Vec<String> = std::iter::once(v.span)
                .chain(v.ancestors())
                .map(span_class)
                .collect();
            frames.reverse();
            *self.stacks.entry(frames.join(";")).or_default() += v.self_us;
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
        for (class, stat) in &other.classes {
            let slot = self.classes.entry(class.clone()).or_insert(ClassStat {
                self_us: 0,
                spans: 0,
                bucket: stat.bucket,
            });
            slot.self_us += stat.self_us;
            slot.spans += stat.spans;
        }
        for (stack, us) in &other.stacks {
            *self.stacks.entry(stack.clone()).or_default() += us;
        }
        self.total_us += other.total_us;
        self.traces += other.traces;
    }

    /// Per-class statistics in deterministic (sorted) order.
    pub fn classes(&self) -> impl Iterator<Item = (&str, &ClassStat)> {
        self.classes.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Self time attributed to one span class (0 when absent).
    pub fn class_self_us(&self, class: &str) -> u64 {
        self.classes.get(class).map_or(0, |s| s.self_us)
    }

    /// Self time attributed to `resource`, microseconds.
    pub fn resource_us(&self, resource: Resource) -> u64 {
        self.classes
            .values()
            .filter(|s| resource_for(s.bucket) == resource)
            .map(|s| s.self_us)
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

    /// Utilization ρ of each resource over a measured window of
    /// `makespan_us` virtual microseconds: the fraction of the window the
    /// resource was busy. The simulation serialises service on one
    /// virtual timeline, so Σρ ≤ 1 and the remainder is think/idle time.
    pub fn utilization(&self, makespan_us: u64) -> Vec<(Resource, f64)> {
        Resource::ALL
            .into_iter()
            .map(|r| {
                let rho = if makespan_us == 0 {
                    0.0
                } else {
                    self.resource_us(r) as f64 / makespan_us as f64
                };
                (r, rho)
            })
            .collect()
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
        let mut out = String::new();
        for (stack, us) in &self.stacks {
            out.push_str(stack);
            out.push(' ');
            out.push_str(&us.to_string());
            out.push('\n');
        }
        out
    }

    /// The profile as a [`PROFILE_SCHEMA`] JSON document labelled `label`.
    /// Round-trips through [`validate_profile`].
    pub fn to_json(&self, label: &str) -> Json {
        let classes = self
            .classes
            .iter()
            .map(|(class, stat)| {
                Json::obj([
                    ("class", Json::from(class.clone())),
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
            .stacks
            .iter()
            .map(|(stack, us)| {
                Json::obj([
                    ("stack", Json::from(stack.clone())),
                    ("self_us", Json::from(*us)),
                ])
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

/// Validates parsed JSON against the [`PROFILE_SCHEMA`] shape, including
/// the conservation law at all three granularities: class self times,
/// resource totals and stack self times must each sum exactly to
/// `total_us`. Returns a description of the first violation found.
pub fn validate_profile(json: &Json) -> Result<(), String> {
    let schema = json.req_str("schema", "profile")?;
    if schema != PROFILE_SCHEMA {
        return Err(format!(
            "profile: schema {schema:?}, expected {PROFILE_SCHEMA:?}"
        ));
    }
    json.req_str("label", "profile")?;
    let traces = json.req_num("traces", "profile")?;
    let total_us = json.req_num("total_us", "profile")?;
    if traces == 0.0 && total_us != 0.0 {
        return Err("profile: zero traces cannot carry nonzero total_us".to_owned());
    }

    let classes = json.req_arr("classes", "profile")?;
    let mut class_sum = 0.0;
    for (i, c) in classes.iter().enumerate() {
        let at = format!("classes[{i}]");
        c.req_str("class", &at)?;
        let bucket = c.req_str("bucket", &at)?;
        if !Bucket::ALL.iter().any(|b| b.label() == bucket) {
            return Err(format!("{at}: unknown bucket {bucket:?}"));
        }
        let resource = c.req_str("resource", &at)?;
        if Resource::from_label(resource).is_none() {
            return Err(format!("{at}: unknown resource {resource:?}"));
        }
        class_sum += c.req_num("self_us", &at)?;
        if c.req_num("spans", &at)? < 1.0 {
            return Err(format!("{at}: a listed class must have spans"));
        }
    }
    if class_sum != total_us {
        return Err(format!(
            "profile: class self times sum to {class_sum}, total_us says {total_us}"
        ));
    }

    let resources = json.req_arr("resources", "profile")?;
    if resources.len() != Resource::ALL.len() {
        return Err(format!(
            "profile: {} resource rows, expected {}",
            resources.len(),
            Resource::ALL.len()
        ));
    }
    let mut resource_sum = 0.0;
    for (i, r) in resources.iter().enumerate() {
        let at = format!("resources[{i}]");
        let label = r.req_str("resource", &at)?;
        if Resource::from_label(label).is_none() {
            return Err(format!("{at}: unknown resource {label:?}"));
        }
        let self_us = r.req_num("self_us", &at)?;
        resource_sum += self_us;
        let share = r.req_num("share", &at)?;
        let expected = if total_us == 0.0 {
            0.0
        } else {
            self_us / total_us
        };
        if (share - expected).abs() > 1e-9 {
            return Err(format!(
                "{at}: share {share} does not match self_us/total_us = {expected}"
            ));
        }
    }
    if resource_sum != total_us {
        return Err(format!(
            "profile: resource self times sum to {resource_sum}, total_us says {total_us}"
        ));
    }

    let stacks = json.req_arr("stacks", "profile")?;
    let mut stack_sum = 0.0;
    for (i, s) in stacks.iter().enumerate() {
        let at = format!("stacks[{i}]");
        let stack = s.req_str("stack", &at)?;
        if stack.is_empty() {
            return Err(format!("{at}: empty stack"));
        }
        stack_sum += s.req_num("self_us", &at)?;
    }
    if stack_sum != total_us {
        return Err(format!(
            "profile: stack self times sum to {stack_sum}, total_us says {total_us}"
        ));
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
mod tests {
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
        class: &str,
        trace: u64,
        id: u64,
        parent: u64,
        start: u64,
        end: u64,
    ) -> SpanEvent {
        let mut e = span(op, trace, id, parent, start, end);
        e.detail = Some(SpanDetail::Statement {
            class: class.to_owned(),
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
        for r in Resource::ALL {
            assert_eq!(Resource::from_label(r.label()), Some(r));
        }
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
    fn json_round_trips_through_the_validator() {
        let p = Profile::from_events(&demo_events());
        let text = p.to_json("unit @ 10ms").render();
        let parsed = Json::parse(&text).unwrap();
        validate_profile(&parsed).unwrap();
        assert_eq!(parsed.get("label").unwrap().as_str(), Some("unit @ 10ms"));
        // Empty profiles validate too (zero traces, zero totals).
        let empty = Profile::default().to_json("empty").render();
        validate_profile(&Json::parse(&empty).unwrap()).unwrap();
    }

    #[test]
    fn validator_catches_broken_conservation() {
        let p = Profile::from_events(&demo_events());
        let good = p.to_json("unit");
        validate_profile(&good).unwrap();
        let break_key = |key: &str| {
            let mut broken = match good.clone() {
                Json::Obj(m) => m,
                _ => unreachable!(),
            };
            broken.insert(key.to_owned(), Json::from(999_999u64));
            validate_profile(&Json::Obj(broken)).unwrap_err()
        };
        assert!(break_key("total_us").contains("sum"));
        // Wrong schema id.
        let mut wrong = match good.clone() {
            Json::Obj(m) => m,
            _ => unreachable!(),
        };
        wrong.insert("schema".to_owned(), Json::from("v0"));
        assert!(validate_profile(&Json::Obj(wrong)).is_err());
        // A tampered stack value breaks stack conservation even when the
        // class sums still agree.
        let mut tampered = match good {
            Json::Obj(m) => m,
            _ => unreachable!(),
        };
        if let Json::Arr(stacks) = tampered.get_mut("stacks").unwrap() {
            if let Json::Obj(s) = &mut stacks[0] {
                s.insert("self_us".to_owned(), Json::from(123_456u64));
            }
        }
        let err = validate_profile(&Json::Obj(tampered)).unwrap_err();
        assert!(err.contains("stack"), "{err}");
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
