//! Performance baseline recorder and regression gate.
//!
//! Because the testbed runs on virtual time, every metric is a pure
//! function of the code and the seeds: a baseline recorded on one machine
//! is bit-identical on any other. `--record` measures the guarded
//! architecture×delay points and writes them to
//! `results/baselines/{profile}.json` (checked in); `--check` re-measures
//! and fails — with a per-metric explanation of the confidence bounds —
//! when any metric worsened beyond the tolerance plus both runs' 95% CI
//! half-widths (§4.3 batch-means protocol).
//!
//! CI runs `perfguard --check --smoke` after the figure/table smoke runs,
//! so a change that silently adds a round trip to a delayed path or stops
//! a cache from hitting fails the build. To see the gate fire without
//! editing code, dial seeded request loss into the measured run:
//! `cargo run -p sli-bench --bin perfguard -- --check --smoke --faults 30`.
//!
//! `--record` writes the baseline and nothing else. `--check` leaves the
//! tree alone: its verdict lands next to the other run output, in
//! `results/perfguard.verdict.json` (`results/smoke/` with `--smoke`).
//! Neither reads the wall clock.

use sli_bench::{
    compare_guard, guard_suite, parse_baseline, render_baseline, results_dir, Cli, GuardEntry,
    GuardProfile, Regression, PAPER_SEED,
};
use sli_simnet::FaultPlan;
use sli_telemetry::Json;
use sli_workload::TextTable;

fn main() {
    let cli = Cli::new(
        "perfguard",
        "Records performance baselines and gates changes against them",
    )
    .flag(
        "record",
        "measure the guarded points and write the baseline",
    )
    .flag("check", "measure and compare against the recorded baseline")
    .flag(
        "smoke",
        "CI-sized profile (4 points, quick protocol) instead of the full suite",
    )
    .option(
        "tolerance",
        "FRACTION",
        "relative worsening allowed per metric (default 0.05)",
    )
    .option(
        "baseline",
        "PATH",
        "baseline file (default results/baselines/{profile}.json)",
    )
    .option(
        "faults",
        "PER_MILLE",
        "dial seeded request loss into the measured run (stages a regression on purpose)",
    );
    let args = cli.parse();

    let record = args.has("record");
    if record == args.has("check") {
        eprintln!(
            "error: pass exactly one of --record / --check\n\n{}",
            cli.usage()
        );
        std::process::exit(2);
    }
    let profile = if args.has("smoke") {
        GuardProfile::Smoke
    } else {
        GuardProfile::Full
    };
    let tolerance: f64 = args
        .value("tolerance", "a non-negative number", |v| *v >= 0.0)
        .unwrap_or(0.05);
    let mut faults = FaultPlan::NONE;
    if let Some(per_mille) = args.value("faults", "a per-mille rate in 0..=1000", |v| *v <= 1000) {
        faults = FaultPlan::lossy(PAPER_SEED, per_mille);
        println!("(faults: dropping ~{per_mille}/1000 requests on the delayed paths)\n");
    }
    let baseline_path = args.get("baseline").map_or_else(
        || format!("results/baselines/{}.json", profile.label()),
        str::to_owned,
    );

    println!(
        "perfguard: measuring the {} profile ({} closed-loop + {} loaded points)...\n",
        profile.label(),
        profile.points().len(),
        profile.loaded_points().len()
    );
    let current = guard_suite(profile, faults);
    print_suite(&current);
    let verdict = |verdict: &str, regressions: &[Regression]| {
        verdict_json(profile, verdict, &current, tolerance, regressions)
    };

    if record {
        let doc = render_baseline(profile, &current);
        if let Some(dir) = std::path::Path::new(&baseline_path).parent() {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("error: create {}: {e}", dir.display());
                std::process::exit(1);
            }
        }
        if let Err(e) = std::fs::write(&baseline_path, doc.render()) {
            eprintln!("error: write {baseline_path}: {e}");
            std::process::exit(1);
        }
        println!("baseline written to {baseline_path}");
        return;
    }

    let write_verdict = |entry: Json| {
        let dir = results_dir(profile == GuardProfile::Smoke);
        let path = format!("{dir}/perfguard.verdict.json");
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, entry.render())) {
            Ok(()) => println!("(verdict written to {path})"),
            Err(e) => eprintln!("warning: could not write {path}: {e}"),
        }
    };

    let baseline = match load_baseline(&baseline_path, profile) {
        Ok(entries) => entries,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("(record one first: cargo run --release -p sli-bench --bin perfguard -- --record{})",
                if profile == GuardProfile::Smoke { " --smoke" } else { "" });
            write_verdict(verdict("stale", &[]));
            std::process::exit(1);
        }
    };
    match compare_guard(&baseline, &current, tolerance) {
        Err(e) => {
            eprintln!("error: {e}");
            write_verdict(verdict("stale", &[]));
            std::process::exit(1);
        }
        Ok(regressions) if regressions.is_empty() => {
            let checked: usize = baseline.iter().map(|e| e.metrics.len()).sum();
            println!(
                "PASS: {checked} metrics across {} points within tolerance {tolerance} of {baseline_path}",
                baseline.len()
            );
            write_verdict(verdict("pass", &[]));
        }
        Ok(regressions) => {
            eprintln!(
                "FAIL: {} metric(s) regressed beyond CI bounds:",
                regressions.len()
            );
            for r in &regressions {
                eprintln!("  REGRESSION {}", r.explain());
            }
            eprintln!(
                "(if the change is intentional, refresh with: cargo run --release -p sli-bench \
                 --bin perfguard -- --record{})",
                if profile == GuardProfile::Smoke {
                    " --smoke"
                } else {
                    ""
                }
            );
            write_verdict(verdict("fail", &regressions));
            std::process::exit(1);
        }
    }
}

/// Prints the measured suite: one table for the closed-loop points, one
/// for the open-loop loaded points (their metric sets differ).
fn print_suite(entries: &[GuardEntry]) {
    let get = |e: &GuardEntry, name: &str| {
        e.metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    };
    let (loaded, closed): (Vec<&GuardEntry>, Vec<&GuardEntry>) =
        entries.iter().partition(|e| e.key.contains(" loaded @ "));
    let mut table = TextTable::new(&[
        "point",
        "latency (ms)",
        "hit ratio",
        "abort rate",
        "failure rate",
        "shared bytes/interaction",
    ]);
    for e in closed {
        table.row(vec![
            e.key.clone(),
            format!("{:.2}", get(e, "latency_ms")),
            format!("{:.3}", get(e, "hit_ratio")),
            format!("{:.3}", get(e, "abort_rate")),
            format!("{:.3}", get(e, "failure_rate")),
            format!("{:.0}", get(e, "shared_bytes_per_interaction")),
        ]);
    }
    println!("{}", table.render());
    if loaded.is_empty() {
        return;
    }
    let mut table = TextTable::new(&[
        "loaded point",
        "achieved tps",
        "p95 latency (ms)",
        "failure rate",
        "peak queue depth",
    ]);
    for e in loaded {
        table.row(vec![
            e.key.clone(),
            format!("{:.2}", get(e, "achieved_tps")),
            format!("{:.2}", get(e, "latency_p95_ms")),
            format!("{:.3}", get(e, "failure_rate")),
            format!("{:.0}", get(e, "peak_queue_depth")),
        ]);
    }
    println!("{}", table.render());
}

/// Reads and validates the baseline file, rejecting a profile mismatch
/// (a smoke baseline must not gate a full run or vice versa).
fn load_baseline(path: &str, profile: GuardProfile) -> Result<Vec<GuardEntry>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("parse {path}: {e}"))?;
    let (label, entries) = parse_baseline(&json).map_err(|e| format!("{path}: {e}"))?;
    if label != profile.label() {
        return Err(format!(
            "{path} records the {label:?} profile but this is a {:?} run; re-record it",
            profile.label()
        ));
    }
    Ok(entries)
}

/// The verdict of one `--check`: what ran and how the gate ruled.
fn verdict_json(
    profile: GuardProfile,
    verdict: &str,
    current: &[GuardEntry],
    tolerance: f64,
    regressions: &[Regression],
) -> Json {
    Json::obj([
        ("profile", Json::from(profile.label())),
        ("mode", Json::from("check")),
        ("verdict", Json::from(verdict)),
        (
            "checked",
            Json::from(current.iter().map(|e| e.metrics.len() as u64).sum::<u64>()),
        ),
        ("tolerance", Json::from(tolerance)),
        (
            "regressions",
            Json::Arr(
                regressions
                    .iter()
                    .map(|r| {
                        Json::obj([
                            ("key", Json::from(r.key.clone())),
                            ("metric", Json::from(r.metric.clone())),
                            ("baseline", Json::from(r.baseline)),
                            ("current", Json::from(r.current)),
                            ("worsened_by", Json::from(r.worsened_by)),
                            ("allowance", Json::from(r.allowance())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}
