//! Assembles a structured [`ArchReport`] from a testbed's registered
//! telemetry — the per-architecture row of the run reports that the
//! figure/table binaries emit alongside their plots.

use std::collections::BTreeMap;

use sli_core::CacheStats;
use sli_simnet::SimDuration;
use sli_telemetry::{ArchReport, MetricValue};
use sli_workload::percentile;

use crate::topology::Testbed;

/// Collects one [`ArchReport`] row from `testbed` after a measurement
/// interval.
///
/// `latencies_ms` are the measured interactions' end-to-end latencies
/// (one entry each, milliseconds of simulated time); `failed` counts how
/// many of them ended in a non-200 response. Cache, commit and RPC
/// counters are read live from the testbed's registry and component stats,
/// so call this before [`reset_telemetry`](crate::DataTier::reset_telemetry).
pub fn collect_report(
    testbed: &Testbed,
    delay: SimDuration,
    latencies_ms: &[f64],
    failed: u64,
) -> ArchReport {
    let arch = testbed.architecture();

    let mut cache = CacheStats::default();
    let (mut commits, mut conflicts) = (0u64, 0u64);
    let mut status: BTreeMap<String, u64> = BTreeMap::new();
    for edge in &testbed.edges {
        if let Some(store) = &edge.store {
            let s = store.stats();
            cache.hits += s.hits;
            cache.misses += s.misses;
        }
        if let Some(rm) = &edge.rm {
            let s = rm.stats();
            commits += s.commits;
            conflicts += s.conflicts;
        }
        for (code, n) in edge.server.metrics().status_counts() {
            *status.entry(code).or_insert(0) += n;
        }
    }

    let (mut retries, mut timeouts) = (0u64, 0u64);
    for i in 0..testbed.edges.len() {
        let m = testbed.delayed_path(i).metrics();
        retries += m.rpc_retries.get();
        timeouts += m.rpc_timeouts.get();
    }

    // Replayed commits are counted wherever the committer lives (the
    // back-end in ES/RBES, the per-edge combined committer otherwise); the
    // registry name is stable so one suffix scan covers both.
    let dedup_replays = testbed
        .telemetry()
        .snapshot()
        .iter()
        .filter(|(name, _)| name.ends_with(".dedup_replays"))
        .map(|(_, value)| match value {
            MetricValue::Counter(n) => *n,
            _ => 0,
        })
        .sum();

    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let mean_ms = if latencies_ms.is_empty() {
        0.0
    } else {
        latencies_ms.iter().sum::<f64>() / latencies_ms.len() as f64
    };

    ArchReport {
        arch: format!("{} ({})", arch.label(), arch.flavor().label()),
        delay_ms: delay.as_micros() as f64 / 1_000.0,
        interactions: latencies_ms.len() as u64,
        failed,
        // One canonical definition of the ratio (zero-total → 0.0) instead
        // of re-deriving the division here.
        hit_ratio: cache.hit_ratio(),
        abort_rate: ratio(conflicts, commits + conflicts),
        retries,
        timeouts,
        dedup_replays,
        p50_ms: percentile(latencies_ms, 0.50).unwrap_or(0.0),
        p95_ms: percentile(latencies_ms, 0.95).unwrap_or(0.0),
        p99_ms: percentile(latencies_ms, 0.99).unwrap_or(0.0),
        mean_ms,
        status,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::VirtualClient;
    use crate::topology::{Architecture, Flavor, TestbedConfig};
    use sli_trade::TradeAction;

    #[test]
    fn report_reflects_a_short_cached_run() {
        let tb = Testbed::build(Architecture::EsRbes, TestbedConfig::default());
        tb.set_delay(SimDuration::from_millis(20));
        let mut client = VirtualClient::new(&tb, 0);
        let mut latencies = Vec::new();
        let mut failed = 0u64;
        let actions = [
            TradeAction::Home {
                user: "uid:0".into(),
            },
            TradeAction::Buy {
                user: "uid:0".into(),
                symbol: "s:1".into(),
                quantity: 5.0,
            },
            TradeAction::Home {
                user: "uid:0".into(),
            },
            TradeAction::Quote {
                symbol: "s:404-not-seeded".into(),
            },
        ];
        for action in &actions {
            let o = client.perform(action);
            if o.status == 200 {
                latencies.push(o.latency.as_micros() as f64 / 1_000.0);
            } else {
                failed += 1;
            }
        }

        let report = collect_report(&tb, SimDuration::from_millis(20), &latencies, failed);
        assert_eq!(report.arch, "ES/RBES (Cached EJBs)");
        assert_eq!(report.delay_ms, 20.0);
        assert_eq!(report.interactions, latencies.len() as u64);
        assert!(report.hit_ratio > 0.0, "repeat home hits the cache");
        assert!(report.hit_ratio <= 1.0);
        assert!((0.0..=1.0).contains(&report.abort_rate));
        assert!(report.p50_ms > 0.0);
        assert!(report.p95_ms >= report.p50_ms);
        assert!(report.p99_ms >= report.p95_ms);
        assert!(report.mean_ms > 0.0);
        assert_eq!(report.status.get("200"), Some(&3));

        // The row renders into a validating run report.
        let mut run = sli_telemetry::RunReport::new("smoke");
        run.entries.push(report);
        assert_eq!(
            sli_telemetry::validate(&run.to_json()),
            Ok(sli_telemetry::Schema::RunReport)
        );
    }

    #[test]
    fn empty_run_yields_zeroed_percentiles() {
        let tb = Testbed::build(
            Architecture::ClientsRas(Flavor::Jdbc),
            TestbedConfig::default(),
        );
        let report = collect_report(&tb, SimDuration::ZERO, &[], 0);
        assert_eq!(report.interactions, 0);
        assert_eq!(report.p99_ms, 0.0);
        assert_eq!(report.hit_ratio, 0.0);
        assert!(report.status.is_empty());
    }
}
