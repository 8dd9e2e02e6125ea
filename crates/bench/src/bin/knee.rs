//! `knee` — throughput–latency curves and saturation knees under open
//! admission on the load engine.
//!
//! For every architecture × flavor combination this sweeps the session
//! arrival rate of an open [`sli_bench::RunSpec`]: sessions arrive on a
//! deterministic Poisson schedule regardless of how fast the server keeps
//! up, the [`sli_arch::LoadEngine`] multiplexes the in-flight sessions on
//! virtual time, and latency therefore includes queue wait. The first
//! rate where achieved throughput falls >10% short of offered (or mean
//! latency triples over the lightest point) is reported as the
//! **saturation knee**.
//!
//! Artifacts: `results/knee.csv` (the curves), `results/knee.report.json`
//! (schema `sli-edge.run-report/v1`, one row per combo × rate),
//! `results/knee.timeline.json` (schema `sli-edge.timeline/v1`, windowed
//! series of every loaded run including the `engine.in_flight` /
//! `engine.queue_depth` gauges), plus the aggregate cross-session profile
//! of every loaded interaction: `results/knee.folded` (collapsed-stack
//! format — load it into speedscope or inferno) and
//! `results/knee.profile.json` (schema `sli-edge.profile/v1`, per-class
//! self times and per-resource attribution). Every loaded run is also
//! checked against Little's law (`L = λ·W` from the exact in-flight
//! integral). The run then re-checks consistency under load: a slicheck
//! sweep with an elevated client count across all seven combinations must
//! stay violation-free.
//!
//! Run with `cargo run --release -p sli-bench --bin knee`. Pass `--smoke`
//! for the scaled-down CI profile (written to `results/smoke/`). Exits non-zero if any artifact fails
//! validation, no combination exhibits a knee, the engine gauges stay
//! flat, or the loaded slicheck sweep finds a violation.

use sli_arch::{arch_by_key, arch_key, run_slicheck, ScheduleSource, SliCheckConfig, ARCH_KEYS};
use sli_bench::{
    knee_index, results_dir, run, timeline_table, ArtifactSet, Cli, RunArtifacts, RunSpec,
    RunSummary,
};
use sli_simnet::SimDuration;
use sli_workload::{Csv, TextTable};

/// Session arrival rates (sessions/s) for the full sweep — geometric so
/// both the slow JDBC paths and the fast cached paths bracket their knees.
const FULL_RATES: &[f64] = &[0.5, 1.0, 2.0, 4.0, 8.0, 16.0];

/// Smoke profile: one clearly-light and one clearly-overloaded rate.
const SMOKE_RATES: &[f64] = &[1.0, 24.0];

fn main() {
    let args = Cli::new(
        "knee",
        "Throughput-latency curves and saturation knees under open-loop load",
    )
    .flag("smoke", "scaled-down run for CI (fewer sessions and rates)")
    .option("delay", "MS", "one-way delay in ms (default 10)")
    .parse();
    let smoke = args.has("smoke");
    let delay_ms: u64 = args
        .value("delay", "a non-negative integer", |_| true)
        .unwrap_or(10);
    let delay = SimDuration::from_millis(delay_ms);
    let rates = if smoke { SMOKE_RATES } else { FULL_RATES };

    println!("Saturation knees under open-loop load ({delay_ms} ms one-way delay)");
    println!("(arrivals Poisson, zero think time; latency includes queue wait)\n");

    let mut out = ArtifactSet::new("knee: throughput-latency under open-loop load");
    out.profile_label = "knee: aggregate loaded profile".to_owned();
    let mut csv = Csv::new(&[
        "arch",
        "session_rps",
        "offered_tps",
        "achieved_tps",
        "latency_ms",
        "p50_ms",
        "p95_ms",
        "p99_ms",
        "queue_wait_p95_ms",
        "peak_queue_depth",
        "failed",
    ]);
    let mut knees: Vec<(String, Option<f64>)> = Vec::new();
    let mut knee_timeline_shown = false;
    let mut gauges_live = false;

    for key in ARCH_KEYS {
        let arch = arch_by_key(key).expect("built-in key");
        let runs: Vec<RunArtifacts> = rates
            .iter()
            .map(|&rps| run(&RunSpec::open(arch, delay, rps, smoke)))
            .collect();
        let points: Vec<RunSummary> = runs.iter().map(|r| r.summary).collect();
        let knee = knee_index(&points);

        let mut table = TextTable::new(&[
            "sessions/s",
            "offered tps",
            "achieved tps",
            "mean ms",
            "p95 ms",
            "queue-wait p95 ms",
            "peak queue",
        ]);
        for (i, (p, rps)) in points.iter().zip(rates).enumerate() {
            let marker = if knee == Some(i) { "  <- knee" } else { "" };
            table.row(vec![
                format!("{rps:.1}{marker}"),
                format!("{:.1}", p.offered_tps),
                format!("{:.1}", p.achieved_tps),
                format!("{:.1}", p.latency_ms),
                format!("{:.1}", p.latency_p95_ms),
                format!("{:.1}", p.queue_wait_p95_ms),
                p.peak_queue_depth.to_string(),
            ]);
            csv.row(vec![
                key.to_owned(),
                format!("{rps:.2}"),
                format!("{:.2}", p.offered_tps),
                format!("{:.2}", p.achieved_tps),
                format!("{:.2}", p.latency_ms),
                format!("{:.2}", p.latency_p50_ms),
                format!("{:.2}", p.latency_p95_ms),
                format!("{:.2}", p.latency_p99_ms),
                format!("{:.2}", p.queue_wait_p95_ms),
                p.peak_queue_depth.to_string(),
                p.failed.to_string(),
            ]);
        }
        println!("{key}:\n{}", table.render());
        match knee {
            Some(i) => println!(
                "  knee at {:.1} sessions/s: achieved {:.1} of {:.1} offered tps, \
                 mean latency {:.1} ms ({:.1} ms at the lightest rate)\n",
                rates[i],
                points[i].achieved_tps,
                points[i].offered_tps,
                points[i].latency_ms,
                points[0].latency_ms,
            ),
            None => println!("  no knee within the swept rates\n"),
        }
        knees.push((key.to_owned(), knee.map(|i| rates[i])));

        for (run, rps) in runs.into_iter().zip(rates) {
            // Little's law is an exact identity for the engine; a loaded
            // run that drifts past CI tolerance has an accounting bug.
            if !run.littles.holds(0.01) {
                eprintln!(
                    "error: Little's law violated on {key} @ {rps:.1}/s: \
                     L = {:.3}, lambda*W = {:.3} (relative error {:.4})",
                    run.littles.avg_in_flight,
                    run.littles.throughput_per_s * run.littles.mean_residence_ms / 1e3,
                    run.littles.relative_error,
                );
                std::process::exit(1);
            }
            // The aggregate cross-session profile of every loaded run:
            // collapsed stacks for speedscope/inferno plus the
            // schema-validated per-resource attribution.
            out.profile.merge(&run.profile);
            let mut entry = run.report;
            entry.arch = format!("{} @ {rps:.2} sessions/s", entry.arch);
            out.report.entries.push(entry);
            let queue_live = run
                .timeline
                .series
                .iter()
                .any(|s| s.name == "engine.queue_depth" && s.values.iter().any(|&v| v > 0));
            let in_flight_live = run
                .timeline
                .series
                .iter()
                .any(|s| s.name == "engine.in_flight" && s.values.iter().any(|&v| v > 0));
            gauges_live |= queue_live && in_flight_live;
            // Show one saturated timeline inline: the queue_depth ramp IS
            // the knee, rendered in virtual time.
            if !knee_timeline_shown && queue_live && knee.is_some() {
                println!("{}", timeline_table(&run.timeline));
                knee_timeline_shown = true;
            }
            out.timelines.push(run.timeline);
        }
    }

    let kneed = knees.iter().filter(|(_, k)| k.is_some()).count();
    println!(
        "{kneed}/{} combinations saturated within the swept rates",
        knees.len()
    );
    if kneed == 0 {
        eprintln!("error: no combination exhibited a saturation knee — sweep rates too low?");
        std::process::exit(1);
    }
    if !gauges_live {
        eprintln!("error: engine.queue_depth / engine.in_flight gauges never left zero");
        std::process::exit(1);
    }

    out.csvs.push((env!("CARGO_BIN_NAME"), csv));
    out.write_or_exit(results_dir(smoke), env!("CARGO_BIN_NAME"));

    // Consistency under load: the same commit protocols the loaded engine
    // exercises must stay serializable with an elevated client count.
    println!("\nloaded slicheck sweep (6 clients per world):");
    let seeds = if smoke { 4 } else { 32 };
    let mut committed = 0usize;
    for key in ARCH_KEYS {
        let arch = arch_by_key(key).expect("built-in key");
        for seed in 1..=seeds {
            let mut cfg = SliCheckConfig::new(arch, seed);
            cfg.clients = 6;
            let outcome = run_slicheck(&cfg, ScheduleSource::Random(seed));
            committed += outcome.committed;
            if !outcome.violations.is_empty() {
                eprintln!(
                    "FAIL: consistency violation under load on {} seed {seed}: {}",
                    arch_key(cfg.arch),
                    outcome
                        .violations
                        .first()
                        .map_or_else(|| "?".to_owned(), |v| format!("[{}] {}", v.kind, v.details)),
                );
                std::process::exit(1);
            }
        }
        println!("ok   {key}: {seeds} seed(s), 0 violations");
    }
    println!(
        "{} committed txns across the loaded sweep, no violations",
        committed
    );
}
