//! Performance baselines and the regression gate behind the `perfguard`
//! binary.
//!
//! The whole testbed runs on virtual time (delays, jitter and faults are
//! all seeded), so a recorded baseline is *portable*: the same commit
//! produces bit-identical metrics on any machine, and a fresh run can be
//! compared against a checked-in baseline without worrying about host
//! noise. What the gate protects against is therefore not scheduler
//! jitter but *code* changes that shift the modelled cost of an
//! architecture — an extra round trip on the delayed path, a cache that
//! stopped hitting, a commit path that started aborting.
//!
//! The comparison still uses the paper's §4.3 batch-means confidence
//! intervals: a metric only counts as regressed when the worsening
//! exceeds the relative tolerance *plus* both runs' 95% CI half-widths,
//! so intentionally noisy configurations (nonzero jitter, faults) don't
//! produce flaky verdicts.

use sli_arch::Architecture;
use sli_simnet::{FaultPlan, SimDuration};
use sli_telemetry::{Json, Resource};

use crate::{run, Admission, RunSpec};

/// Schema identifier stamped into every baseline file.
pub const PERFGUARD_SCHEMA: &str = "sli-edge.perfguard-baseline/v1";

/// One guarded metric: its observed value plus the spread information
/// needed to build a confidence interval at comparison time.
#[derive(Debug, Clone, PartialEq)]
pub struct GuardMetric {
    /// Metric name (`latency_ms`, `hit_ratio`, …).
    pub name: String,
    /// Observed value (mean over batches for latency, a plain ratio or
    /// rate for the scalar metrics).
    pub value: f64,
    /// Standard deviation across batch means (0 for scalar metrics).
    pub stdev: f64,
    /// Number of batches behind `stdev` (1 for scalar metrics — no CI).
    pub n: usize,
    /// Direction of badness: `true` if growth is a regression (latency,
    /// abort rate), `false` if shrinkage is (hit ratio).
    pub higher_is_worse: bool,
    /// Absolute tolerance floor, so near-zero baselines don't turn any
    /// epsilon into a relative-tolerance violation.
    pub floor: f64,
}

impl GuardMetric {
    /// 95% confidence-interval half-width over the batch means
    /// (`1.96·s/√n`; zero when there is no spread information).
    pub fn ci_half_width(&self) -> f64 {
        if self.n >= 2 {
            1.96 * self.stdev / (self.n as f64).sqrt()
        } else {
            0.0
        }
    }
}

/// The guarded metrics of one architecture×delay point.
#[derive(Debug, Clone, PartialEq)]
pub struct GuardEntry {
    /// Stable point identifier, e.g. `ES/RDB (JDBC) @ 20ms`.
    pub key: String,
    /// The metrics guarded at this point.
    pub metrics: Vec<GuardMetric>,
}

/// Which slice of the experiment space a baseline covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuardProfile {
    /// CI-sized: four representative combos at one delay, quick protocol.
    Smoke,
    /// All seven architecture×flavor combos at two delays, full §4.3
    /// protocol.
    Full,
}

impl GuardProfile {
    /// The profile's name, used in file names and baseline headers.
    pub fn label(&self) -> &'static str {
        match self {
            GuardProfile::Smoke => "smoke",
            GuardProfile::Full => "full",
        }
    }

    /// The architecture×delay points this profile guards.
    pub fn points(&self) -> Vec<(Architecture, u64)> {
        use sli_arch::Flavor::{CachedEjb, Jdbc};
        match self {
            GuardProfile::Smoke => vec![
                (Architecture::EsRdb(Jdbc), 20),
                (Architecture::EsRdb(CachedEjb), 20),
                (Architecture::EsRbes, 20),
                (Architecture::ClientsRas(Jdbc), 20),
            ],
            GuardProfile::Full => Architecture::ALL
                .into_iter()
                .flat_map(|(a, _)| [20u64, 80].into_iter().map(move |d| (a, d)))
                .collect(),
        }
    }

    /// The open-loop loaded points this profile guards, as
    /// `(architecture, delay_ms, sessions_per_second)` — deliberately
    /// beyond each point's knee, so queueing behaviour is part of the
    /// guarded surface.
    pub fn loaded_points(&self) -> Vec<(Architecture, u64, f64)> {
        use sli_arch::Flavor::Jdbc;
        match self {
            GuardProfile::Smoke => vec![
                (Architecture::EsRdb(Jdbc), 10, 3.0),
                (Architecture::EsRbes, 10, 8.0),
            ],
            GuardProfile::Full => vec![
                (Architecture::EsRdb(Jdbc), 10, 2.0),
                (Architecture::EsRbes, 10, 8.0),
                (Architecture::ClientsRas(Jdbc), 10, 8.0),
            ],
        }
    }

    /// Every run this profile guards, closed-loop points first: the quick
    /// protocols for [`GuardProfile::Smoke`], the full ones otherwise, each
    /// with `faults` dialled in (`perfguard --faults` passes a lossy plan
    /// to stage a regression on purpose; it perturbs the loaded entries
    /// too).
    pub fn specs(&self, faults: FaultPlan) -> Vec<RunSpec> {
        let quick = *self == GuardProfile::Smoke;
        let ms = SimDuration::from_millis;
        let closed = self
            .points()
            .into_iter()
            .map(|(arch, delay)| RunSpec::closed(arch, ms(delay), quick));
        let open = self
            .loaded_points()
            .into_iter()
            .map(|(arch, delay, rps)| RunSpec::open(arch, ms(delay), rps, quick));
        closed
            .chain(open)
            .map(|spec| RunSpec { faults, ..spec })
            .collect()
    }
}

/// Absolute floor for the latency metric (ms): differences below a
/// quarter millisecond of modelled time are never regressions.
const LATENCY_FLOOR_MS: f64 = 0.25;
/// Absolute floor for ratio metrics (hit ratio, abort rate).
const RATIO_FLOOR: f64 = 0.02;
/// Absolute floor for the per-interaction shared-site byte count.
const BYTES_FLOOR: f64 = 50.0;

/// Absolute floor for the achieved-throughput metric (interactions/s).
const TPS_FLOOR: f64 = 0.5;
/// Absolute floor for the peak-queue-depth metric (sessions).
const QUEUE_FLOOR: f64 = 2.0;
/// Absolute floor for the round-trips-per-interaction metric (crossings).
const ROUND_TRIPS_FLOOR: f64 = 0.5;

/// Measures one guarded point: runs `spec` and distils the result into
/// the guarded metrics.
///
/// Failure rate is guarded explicitly because it is the one direction a
/// broken run can *look* faster: interactions that fail early (a lost
/// commit, a session whose login never happened) skip round trips, so
/// mean latency alone would wave a lossy path through.
///
/// An open-loop point — deliberately beyond its knee — guards the
/// throughput–latency behaviour the closed-loop metrics can't see:
/// achieved throughput, tail latency with queue wait included, how deep
/// the ready queue gets, and the aggregate profile's per-resource latency
/// shares. Shares sum to 1, so a bottleneck shift necessarily *raises* at
/// least one share past its allowance — CI flags the shift even when
/// absolute latency stays inside tolerance.
pub fn guard_run(spec: &RunSpec) -> GuardEntry {
    let artifacts = run(spec);
    let arch = &artifacts.report.arch;
    let delay_ms = spec.delay.as_micros() / 1_000;
    let scalar = |name: &str, value: f64, higher_is_worse: bool, floor: f64| GuardMetric {
        name: name.to_owned(),
        value,
        stdev: 0.0,
        n: 1,
        higher_is_worse,
        floor,
    };
    let point = artifacts.summary;
    let failure_rate = scalar(
        "failure_rate",
        point.failed as f64 / (point.ok + point.failed).max(1) as f64,
        true,
        RATIO_FLOOR,
    );
    match spec.admission {
        Admission::Closed => GuardEntry {
            key: format!("{arch} @ {delay_ms}ms"),
            metrics: vec![
                GuardMetric {
                    name: "latency_ms".to_owned(),
                    value: point.latency_ms,
                    stdev: point.latency_stdev_ms,
                    n: spec.batches.max(1),
                    higher_is_worse: true,
                    floor: LATENCY_FLOOR_MS,
                },
                scalar("hit_ratio", artifacts.report.hit_ratio, false, RATIO_FLOOR),
                scalar("abort_rate", artifacts.report.abort_rate, true, RATIO_FLOOR),
                failure_rate,
                scalar(
                    "shared_bytes_per_interaction",
                    point.shared_bytes_per_interaction,
                    true,
                    BYTES_FLOOR,
                ),
            ],
        },
        Admission::Open { session_rps } => {
            let share = |name: &str, resource: Resource| {
                scalar(
                    name,
                    artifacts.profile.resource_share(resource),
                    true,
                    RATIO_FLOOR,
                )
            };
            GuardEntry {
                key: format!("{arch} loaded @ {delay_ms}ms @ {session_rps:.1}/s"),
                metrics: vec![
                    scalar("achieved_tps", point.achieved_tps, false, TPS_FLOOR),
                    scalar(
                        "latency_p95_ms",
                        point.latency_p95_ms,
                        true,
                        LATENCY_FLOOR_MS,
                    ),
                    failure_rate,
                    scalar(
                        "peak_queue_depth",
                        point.peak_queue_depth as f64,
                        true,
                        QUEUE_FLOOR,
                    ),
                    scalar(
                        "round_trips_per_interaction",
                        point.round_trips_per_interaction,
                        true,
                        ROUND_TRIPS_FLOOR,
                    ),
                    share("profile_share:wire", Resource::Wire),
                    share("profile_share:backend-db", Resource::BackendDb),
                    share("profile_share:edge-cpu", Resource::EdgeCpu),
                    share("profile_share:store-lock", Resource::StoreLock),
                ],
            }
        }
    }
}

/// Measures every run of `profile` (see [`GuardProfile::specs`]).
pub fn guard_suite(profile: GuardProfile, faults: FaultPlan) -> Vec<GuardEntry> {
    profile.specs(faults).iter().map(guard_run).collect()
}

/// One metric that worsened beyond its allowance.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// The point (`arch @ delay`) the metric belongs to.
    pub key: String,
    /// The metric name.
    pub metric: String,
    /// Baseline value.
    pub baseline: f64,
    /// Current value.
    pub current: f64,
    /// How much the metric moved in the bad direction.
    pub worsened_by: f64,
    /// The tolerance component of the allowance
    /// (`max(tol_rel·|baseline|, floor)`).
    pub tolerance: f64,
    /// 95% CI half-width of the baseline run.
    pub ci_baseline: f64,
    /// 95% CI half-width of the current run.
    pub ci_current: f64,
}

impl Regression {
    /// The total allowed worsening: tolerance plus both CI half-widths.
    pub fn allowance(&self) -> f64 {
        self.tolerance + self.ci_baseline + self.ci_current
    }

    /// A one-line human explanation with the CI bounds spelled out.
    pub fn explain(&self) -> String {
        format!(
            "{} :: {}: baseline {:.4} (CI ±{:.4}) -> current {:.4} (CI ±{:.4}); \
             worsened by {:.4}, allowance {:.4} (tolerance {:.4} + CI half-widths)",
            self.key,
            self.metric,
            self.baseline,
            self.ci_baseline,
            self.current,
            self.ci_current,
            self.worsened_by,
            self.allowance(),
            self.tolerance,
        )
    }
}

/// Compares a fresh run against a baseline.
///
/// A metric regresses when its movement in the bad direction exceeds
/// `max(tol_rel·|baseline|, floor)` plus both runs' 95% CI half-widths.
/// Improvements (movement in the good direction) never fail the gate —
/// refresh the baseline with `--record` to lock them in.
///
/// # Errors
/// Returns a description when the two runs don't cover the same points
/// and metrics — a shape mismatch means the baseline predates a suite
/// change and must be re-recorded, not compared around.
pub fn compare_guard(
    baseline: &[GuardEntry],
    current: &[GuardEntry],
    tol_rel: f64,
) -> Result<Vec<Regression>, String> {
    if baseline.len() != current.len() {
        return Err(format!(
            "baseline covers {} points but the current run has {}; re-record the baseline",
            baseline.len(),
            current.len()
        ));
    }
    let mut regressions = Vec::new();
    for (base_entry, cur_entry) in baseline.iter().zip(current) {
        if base_entry.key != cur_entry.key {
            return Err(format!(
                "point mismatch: baseline has {:?}, current run has {:?}; re-record the baseline",
                base_entry.key, cur_entry.key
            ));
        }
        if base_entry.metrics.len() != cur_entry.metrics.len() {
            return Err(format!(
                "{:?}: baseline guards {} metrics, current run {}; re-record the baseline",
                base_entry.key,
                base_entry.metrics.len(),
                cur_entry.metrics.len()
            ));
        }
        for (base, cur) in base_entry.metrics.iter().zip(&cur_entry.metrics) {
            if base.name != cur.name {
                return Err(format!(
                    "{:?}: metric mismatch {:?} vs {:?}; re-record the baseline",
                    base_entry.key, base.name, cur.name
                ));
            }
            let sign = if base.higher_is_worse { 1.0 } else { -1.0 };
            let worsened_by = (cur.value - base.value) * sign;
            let tolerance = (tol_rel * base.value.abs()).max(base.floor);
            let allowance = tolerance + base.ci_half_width() + cur.ci_half_width();
            if worsened_by > allowance {
                regressions.push(Regression {
                    key: base_entry.key.clone(),
                    metric: base.name.clone(),
                    baseline: base.value,
                    current: cur.value,
                    worsened_by,
                    tolerance,
                    ci_baseline: base.ci_half_width(),
                    ci_current: cur.ci_half_width(),
                });
            }
        }
    }
    Ok(regressions)
}

/// Renders a baseline document for `results/baselines/{profile}.json`.
pub fn render_baseline(profile: GuardProfile, entries: &[GuardEntry]) -> Json {
    Json::obj([
        ("schema", Json::from(PERFGUARD_SCHEMA)),
        ("profile", Json::from(profile.label())),
        (
            "entries",
            Json::Arr(
                entries
                    .iter()
                    .map(|e| {
                        Json::obj([
                            ("key", Json::from(e.key.clone())),
                            (
                                "metrics",
                                Json::Arr(
                                    e.metrics
                                        .iter()
                                        .map(|m| {
                                            Json::obj([
                                                ("name", Json::from(m.name.clone())),
                                                ("value", Json::from(m.value)),
                                                ("stdev", Json::from(m.stdev)),
                                                ("n", Json::from(m.n as u64)),
                                                ("higher_is_worse", Json::Bool(m.higher_is_worse)),
                                                ("floor", Json::from(m.floor)),
                                            ])
                                        })
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Parses a baseline document, returning its profile label and entries.
///
/// # Errors
/// Returns a description of the first schema violation found.
pub fn parse_baseline(json: &Json) -> Result<(String, Vec<GuardEntry>), String> {
    let schema = json
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("baseline: missing schema")?;
    if schema != PERFGUARD_SCHEMA {
        return Err(format!(
            "baseline: schema {schema:?}, expected {PERFGUARD_SCHEMA:?}"
        ));
    }
    let profile = json
        .get("profile")
        .and_then(Json::as_str)
        .ok_or("baseline: missing profile")?
        .to_owned();
    let mut entries = Vec::new();
    for (i, entry) in json
        .get("entries")
        .and_then(Json::as_arr)
        .ok_or("baseline: missing entries array")?
        .iter()
        .enumerate()
    {
        let key = entry
            .get("key")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("baseline entry {i}: missing key"))?
            .to_owned();
        let mut metrics = Vec::new();
        for m in entry
            .get("metrics")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("baseline {key:?}: missing metrics array"))?
        {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("baseline {key:?}: metric missing {k:?}"))
            };
            metrics.push(GuardMetric {
                name: m
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("baseline {key:?}: metric missing name"))?
                    .to_owned(),
                value: field("value")?,
                stdev: field("stdev")?,
                n: field("n")? as usize,
                higher_is_worse: match m.get("higher_is_worse") {
                    Some(Json::Bool(b)) => *b,
                    _ => return Err(format!("baseline {key:?}: metric missing higher_is_worse")),
                },
                floor: field("floor")?,
            });
        }
        entries.push(GuardEntry { key, metrics });
    }
    if entries.is_empty() {
        return Err("baseline: no entries".to_owned());
    }
    Ok((profile, entries))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str, value: f64, higher_is_worse: bool) -> GuardMetric {
        GuardMetric {
            name: name.to_owned(),
            value,
            stdev: 0.0,
            n: 1,
            higher_is_worse,
            floor: 0.01,
        }
    }

    fn entry(key: &str, metrics: Vec<GuardMetric>) -> GuardEntry {
        GuardEntry {
            key: key.to_owned(),
            metrics,
        }
    }

    #[test]
    fn identical_runs_pass() {
        let base = vec![entry("a", vec![metric("latency_ms", 10.0, true)])];
        assert!(compare_guard(&base, &base, 0.05).unwrap().is_empty());
    }

    #[test]
    fn worsening_beyond_tolerance_fails_in_the_right_direction() {
        let base = vec![entry(
            "a",
            vec![
                metric("latency_ms", 10.0, true),
                metric("hit_ratio", 0.8, false),
            ],
        )];
        // Latency +10% on a 5% tolerance → regression; the hit ratio
        // *improving* by the same margin must not trip the gate.
        let cur = vec![entry(
            "a",
            vec![
                metric("latency_ms", 11.0, true),
                metric("hit_ratio", 0.88, false),
            ],
        )];
        let regs = compare_guard(&base, &cur, 0.05).unwrap();
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].metric, "latency_ms");
        assert!((regs[0].worsened_by - 1.0).abs() < 1e-12);
        let text = regs[0].explain();
        assert!(text.contains("latency_ms"), "{text}");
        assert!(text.contains("allowance"), "{text}");

        // A hit-ratio *drop* beyond tolerance is a regression.
        let cur = vec![entry(
            "a",
            vec![
                metric("latency_ms", 10.0, true),
                metric("hit_ratio", 0.7, false),
            ],
        )];
        let regs = compare_guard(&base, &cur, 0.05).unwrap();
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].metric, "hit_ratio");
    }

    #[test]
    fn ci_half_widths_widen_the_allowance() {
        let noisy = |value: f64| GuardMetric {
            name: "latency_ms".to_owned(),
            value,
            stdev: 2.0,
            n: 16, // half-width 1.96·2/4 = 0.98
            higher_is_worse: true,
            floor: 0.01,
        };
        let base = vec![entry("a", vec![noisy(10.0)])];
        // +1.2 ms: beyond the 5% tolerance (0.5) but inside tolerance +
        // the two half-widths (0.5 + 0.98 + 0.98) → not a regression.
        let cur = vec![entry("a", vec![noisy(11.2)])];
        assert!(compare_guard(&base, &cur, 0.05).unwrap().is_empty());
        // +3 ms clears the whole allowance.
        let cur = vec![entry("a", vec![noisy(13.0)])];
        assert_eq!(compare_guard(&base, &cur, 0.05).unwrap().len(), 1);
    }

    #[test]
    fn floors_protect_near_zero_baselines() {
        let base = vec![entry("a", vec![metric("abort_rate", 0.0, true)])];
        // 0 → 0.009 is under the 0.01 floor even though the relative
        // change is infinite.
        let cur = vec![entry("a", vec![metric("abort_rate", 0.009, true)])];
        assert!(compare_guard(&base, &cur, 0.05).unwrap().is_empty());
        let cur = vec![entry("a", vec![metric("abort_rate", 0.02, true)])];
        assert_eq!(compare_guard(&base, &cur, 0.05).unwrap().len(), 1);
    }

    #[test]
    fn shape_mismatches_demand_a_re_record() {
        let base = vec![entry("a", vec![metric("latency_ms", 10.0, true)])];
        let renamed = vec![entry("b", vec![metric("latency_ms", 10.0, true)])];
        assert!(compare_guard(&base, &renamed, 0.05).is_err());
        assert!(compare_guard(&base, &[], 0.05).is_err());
        let extra = vec![entry(
            "a",
            vec![
                metric("latency_ms", 10.0, true),
                metric("abort_rate", 0.0, true),
            ],
        )];
        assert!(compare_guard(&base, &extra, 0.05).is_err());
    }

    #[test]
    fn baseline_round_trips_through_json() {
        let entries = vec![
            entry(
                "ES/RDB (JDBC) @ 20ms",
                vec![
                    GuardMetric {
                        name: "latency_ms".to_owned(),
                        value: 42.125,
                        stdev: 0.5,
                        n: 20,
                        higher_is_worse: true,
                        floor: 0.25,
                    },
                    metric("hit_ratio", 0.75, false),
                ],
            ),
            entry("ES/RBES @ 20ms", vec![metric("abort_rate", 0.01, true)]),
        ];
        let rendered = render_baseline(GuardProfile::Smoke, &entries);
        let reparsed = Json::parse(&rendered.render()).expect("parses");
        let (profile, parsed) = parse_baseline(&reparsed).expect("valid");
        assert_eq!(profile, "smoke");
        assert_eq!(parsed, entries);

        // A corrupted schema id is rejected.
        let bad = Json::obj([("schema", Json::from("nope"))]);
        assert!(parse_baseline(&bad).is_err());
    }

    #[test]
    fn profiles_enumerate_the_expected_points() {
        assert_eq!(GuardProfile::Smoke.points().len(), 4);
        assert_eq!(GuardProfile::Full.points().len(), 14);
        assert_eq!(GuardProfile::Smoke.loaded_points().len(), 2);
        assert_eq!(GuardProfile::Full.loaded_points().len(), 3);
        assert_eq!(GuardProfile::Smoke.label(), "smoke");
    }

    #[test]
    fn loaded_guard_run_is_deterministic_and_names_its_metrics() {
        let spec = RunSpec {
            warmup_sessions: 5,
            sessions: 30,
            ..RunSpec::open(
                Architecture::EsRbes,
                SimDuration::from_millis(10),
                6.0,
                true,
            )
        };
        let (a, b) = (guard_run(&spec), guard_run(&spec));
        assert_eq!(a, b, "virtual time makes loaded reruns bit-identical");
        assert_eq!(a.key, "ES/RBES (Cached EJBs) loaded @ 10ms @ 6.0/s");
        let names: Vec<&str> = a.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "achieved_tps",
                "latency_p95_ms",
                "failure_rate",
                "peak_queue_depth",
                "round_trips_per_interaction",
                "profile_share:wire",
                "profile_share:backend-db",
                "profile_share:edge-cpu",
                "profile_share:store-lock"
            ]
        );
        let share_sum: f64 = a
            .metrics
            .iter()
            .filter(|m| m.name.starts_with("profile_share:"))
            .map(|m| m.value)
            .sum();
        assert!(
            (share_sum - 1.0).abs() < 1e-9,
            "resource shares decompose the whole profile, got {share_sum}"
        );
        // Throughput guards the good direction: a *drop* regresses.
        let mut slower = a.clone();
        slower.metrics[0].value *= 0.5;
        let regs = compare_guard(&[a], &[slower], 0.05).unwrap();
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].metric, "achieved_tps");
    }

    #[test]
    fn guard_run_is_deterministic_and_self_consistent() {
        let spec = RunSpec::closed(Architecture::EsRbes, SimDuration::from_millis(20), true);
        let (a, b) = (guard_run(&spec), guard_run(&spec));
        assert_eq!(a, b, "virtual time makes reruns bit-identical");
        assert_eq!(a.key, "ES/RBES (Cached EJBs) @ 20ms");
        let names: Vec<&str> = a.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "latency_ms",
                "hit_ratio",
                "abort_rate",
                "failure_rate",
                "shared_bytes_per_interaction"
            ]
        );
        assert!(compare_guard(&[a], &[b], 0.05).unwrap().is_empty());
    }
}
