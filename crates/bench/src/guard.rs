//! The guarded points behind the `perfguard` recorder.
//!
//! The whole testbed runs on virtual time (delays, jitter and faults are
//! all seeded), so every guarded metric is a pure function of the code: the
//! same commit produces bit-identical values on any machine. The recorded
//! `results/perfguard.csv` is therefore checked in, and the gate is the
//! oracle's `git diff --exit-code` over it — one metric per line, so a
//! change that adds a round trip on a delayed path or stops a cache from
//! hitting shows as the lines naming that point and metric. What the gate
//! protects against is not host noise but *code* changes that shift the
//! modelled cost of an architecture.

use sli_arch::Architecture;
use sli_arch::Flavor::{CachedEjb, Jdbc};
use sli_simnet::SimDuration;
use sli_telemetry::Resource;
use sli_workload::Csv;

use crate::{run, Admission, RunSpec};

/// One guarded metric of one point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuardMetric {
    /// Metric name (`latency_ms`, `hit_ratio`, …).
    pub name: &'static str,
    /// Observed value.
    pub value: f64,
}

/// The guarded metrics of one architecture×delay point.
#[derive(Debug, Clone, PartialEq)]
pub struct GuardEntry {
    /// Stable point identifier, e.g. `ES/RDB (JDBC) @ 20ms`.
    pub key: String,
    /// The metrics guarded at this point.
    pub metrics: Vec<GuardMetric>,
}

/// The closed-loop points, each at 20 ms.
const CLOSED_POINTS: [Architecture; 4] = [
    Architecture::EsRdb(Jdbc),
    Architecture::EsRdb(CachedEjb),
    Architecture::EsRbes,
    Architecture::ClientsRas(Jdbc),
];

/// The open-loop loaded points as `(architecture, sessions per second)`,
/// each at 10 ms — deliberately beyond each point's knee, so queueing
/// behaviour is part of the guarded surface.
const LOADED_POINTS: [(Architecture, f64); 2] = [
    (Architecture::EsRdb(Jdbc), 3.0),
    (Architecture::EsRbes, 8.0),
];

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
/// shares. Shares sum to 1, so a bottleneck shift moves at least two of
/// them even when absolute latency stays put.
pub fn guard_run(spec: &RunSpec) -> GuardEntry {
    let artifacts = run(spec);
    let arch = &artifacts.report.arch;
    let delay_ms = spec.delay.as_micros() / 1_000;
    let metric = |name, value| GuardMetric { name, value };
    let point = artifacts.summary;
    let failure_rate = metric(
        "failure_rate",
        point.failed as f64 / (point.ok + point.failed).max(1) as f64,
    );
    match spec.admission {
        Admission::Closed { .. } => GuardEntry {
            key: format!("{arch} @ {delay_ms}ms"),
            metrics: vec![
                metric("latency_ms", point.latency_ms),
                metric("latency_stdev_ms", point.latency_stdev_ms),
                metric("hit_ratio", artifacts.report.hit_ratio),
                metric("abort_rate", artifacts.report.abort_rate),
                failure_rate,
                metric(
                    "shared_bytes_per_interaction",
                    point.shared_bytes_per_interaction,
                ),
            ],
        },
        Admission::Open { session_rps } => {
            let share = |name, resource| metric(name, artifacts.profile.resource_share(resource));
            GuardEntry {
                key: format!("{arch} loaded @ {delay_ms}ms @ {session_rps:.1}/s"),
                metrics: vec![
                    metric("achieved_tps", point.achieved_tps),
                    metric("latency_p95_ms", point.latency_p95_ms),
                    failure_rate,
                    metric("peak_queue_depth", point.peak_queue_depth as f64),
                    metric(
                        "round_trips_per_interaction",
                        point.round_trips_per_interaction,
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

/// Measures every guarded point, closed-loop points first, each on its
/// quick protocol and the paper's wire; then the JDBC loaded point again on
/// the batched wire (`OP_EXEC_BATCH`, the §4.4 conjecture), keyed with a
/// ` batched` suffix, so the batched wire's round trips stay guarded.
pub fn guard_suite() -> Vec<GuardEntry> {
    let ms = SimDuration::from_millis;
    let closed = CLOSED_POINTS.map(|arch| RunSpec::closed(arch, ms(20), true));
    let open = LOADED_POINTS.map(|(arch, rps)| RunSpec::open(arch, ms(10), rps, true));
    let mut entries: Vec<GuardEntry> = closed.iter().chain(&open).map(guard_run).collect();
    let mut batched = guard_run(&RunSpec {
        wire_batching: true,
        ..open[0]
    });
    batched.key.push_str(" batched");
    entries.push(batched);
    entries
}

/// The recorded form of a suite: `point,metric,value`, one metric per line.
/// Each value is written with `{}`, the shortest text that parses back to
/// the same `f64`.
pub fn guard_csv(entries: &[GuardEntry]) -> Csv {
    let mut csv = Csv::new(&["point", "metric", "value"]);
    for entry in entries {
        for m in &entry.metrics {
            csv.row(vec![
                entry.key.clone(),
                m.name.to_owned(),
                m.value.to_string(),
            ]);
        }
    }
    csv
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_recorded_value_parses_back_bit_for_bit() {
        let entry = GuardEntry {
            key: "ES/RDB (JDBC) @ 20ms".to_owned(),
            metrics: [0.0, 29.0, 73.24311818181809, 1.0 / 3.0, 2450.7279499999986]
                .map(|value| GuardMetric {
                    name: "latency_ms",
                    value,
                })
                .to_vec(),
        };
        let csv = guard_csv(std::slice::from_ref(&entry)).render();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("point,metric,value"));
        for (line, m) in lines.zip(&entry.metrics) {
            let value = line.rsplit(',').next().unwrap();
            assert_eq!(value.parse::<f64>().unwrap().to_bits(), m.value.to_bits());
            assert_eq!(line, format!("ES/RDB (JDBC) @ 20ms,latency_ms,{value}"));
        }
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
        let names: Vec<&str> = a.metrics.iter().map(|m| m.name).collect();
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
    }

    #[test]
    fn guard_run_is_deterministic_and_self_consistent() {
        let spec = RunSpec::closed(Architecture::EsRbes, SimDuration::from_millis(20), true);
        let (a, b) = (guard_run(&spec), guard_run(&spec));
        assert_eq!(a, b, "virtual time makes reruns bit-identical");
        assert_eq!(a.key, "ES/RBES (Cached EJBs) @ 20ms");
        let names: Vec<&str> = a.metrics.iter().map(|m| m.name).collect();
        assert_eq!(
            names,
            [
                "latency_ms",
                "latency_stdev_ms",
                "hit_ratio",
                "abort_rate",
                "failure_rate",
                "shared_bytes_per_interaction"
            ]
        );
    }
}
