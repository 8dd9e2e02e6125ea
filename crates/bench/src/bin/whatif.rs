//! `whatif` — causal profiling by virtual resource speedups.
//!
//! An aggregate profile says where time *went*; it cannot say what would
//! happen if a resource got faster, because queueing and lock contention
//! redistribute the freed time. This bin answers the counterfactual
//! directly, the way Coz does with real speedups: it re-runs the same
//! deterministic loaded point with one resource virtually sped up (exact
//! fixed-point cost scaling inside the simulation — wire crossings, the
//! database server's CPU model, or the edge server's servlet/JSP charges)
//! and measures what the whole system actually gained.
//!
//! For every architecture × flavor combination it reports, per resource:
//! the aggregate profile's predicted share, the measured causal share
//! (fraction of baseline mean latency removed, normalized by the fraction
//! of resource cost removed), the normalized throughput and p95
//! derivatives `d(achieved_tps)/d(s)` and `d(p95)/d(s)`, and a divergence
//! flag where the causal measurement contradicts the profile prediction
//! by more than 2× — the signature of contention.
//!
//! Artifacts: `results/whatif.csv` (one row per combo × resource),
//! `results/whatif.folded` and `results/whatif.profile.json` (the merged
//! baseline profile of every combo measured).
//!
//! Every run is on the paper's wire. Run with `cargo run --release -p
//! sli-bench --bin whatif`. Pass `--smoke` for the CI profile (written to
//! `results/smoke/`): the ES/RDB (JDBC) loaded point on the paper's wire,
//! where the wire must be the top causal bottleneck, and on the §4.4
//! batched wire (`OP_EXEC_BATCH`), which must shrink the wire's causal
//! impact. Exits non-zero if a smoke assertion fails, Little's law drifts,
//! or an artifact fails validation.

use sli_arch::{arch_by_key, Architecture, Flavor, ARCH_KEYS};
use sli_bench::{results_dir, whatif, ArtifactSet, Cli, RunSpec, WhatIfReport};
use sli_simnet::SimDuration;
use sli_telemetry::Resource;
use sli_workload::{Csv, TextTable};

/// Runs one combo's causal profile and prints the per-resource table.
fn show(label: &str, report: &WhatIfReport, csv: &mut Csv) {
    let baseline = &report.baseline;
    let base = baseline.summary;
    println!(
        "{label}: baseline {:.1} tps, mean {:.1} ms, p95 {:.1} ms over {} interactions",
        base.achieved_tps,
        base.latency_ms,
        base.latency_p95_ms,
        base.ok + base.failed,
    );
    let mut table = TextTable::new(&[
        "resource",
        "profile share",
        "causal share",
        "amplification",
        "d(tps)/d(s)",
        "d(p95)/d(s)",
        "verdict",
    ]);
    for row in &report.rows {
        let verdict = if row.diverges() {
            "DIVERGES (contention)"
        } else {
            "agrees"
        };
        table.row(vec![
            row.resource.label().to_owned(),
            format!("{:.1}%", row.profile_share * 100.0),
            format!("{:.1}%", row.causal_share * 100.0),
            format!("{:.2}x", row.amplification()),
            format!("{:+.2}", row.d_tps),
            format!("{:+.2}", row.d_p95),
            verdict.to_owned(),
        ]);
        csv.row(vec![
            label.to_owned(),
            row.resource.label().to_owned(),
            format!("{:.2}", row.speedup),
            format!("{:.4}", row.profile_share),
            format!("{:.4}", row.causal_share),
            format!("{:.4}", row.d_tps),
            format!("{:.4}", row.d_p95),
            row.diverges().to_string(),
        ]);
    }
    // Un-speedable time still shows up in the profile; name it so the
    // shares visibly account for the whole latency.
    println!(
        "{}  (store-lock holds the remaining {:.1}% — the back-end's commit CPU, no speed knob)",
        table.render(),
        baseline.profile.resource_share(Resource::StoreLock) * 100.0,
    );
    let causal: Vec<&str> = report.causal_ranking().iter().map(|r| r.label()).collect();
    let profile: Vec<&str> = baseline
        .profile
        .bottleneck_ranking()
        .into_iter()
        .filter(|r| *r != Resource::StoreLock)
        .map(|r| r.label())
        .collect();
    println!("  causal ranking:  {}", causal.join(" > "));
    println!("  profile ranking: {}\n", profile.join(" > "));
}

/// Runs one combo's causal profile, checks the exact-identity Little's-law
/// validator on its baseline, prints it and folds the baseline profile into
/// the exported one.
fn profile(
    label: &str,
    spec: &RunSpec,
    speedup: f64,
    out: &mut ArtifactSet,
    csv: &mut Csv,
) -> WhatIfReport {
    let report = whatif(spec, speedup);
    let baseline = &report.baseline;
    if !baseline.littles.holds(0.01) {
        eprintln!(
            "error: Little's law violated on {label}: relative error {:.4}",
            baseline.littles.relative_error
        );
        std::process::exit(1);
    }
    show(label, &report, csv);
    out.profile.merge(&baseline.profile);
    report
}

fn main() {
    let args = Cli::new(
        "whatif",
        "Causal profiles: loaded points re-run with one resource virtually sped up",
    )
    .flag(
        "smoke",
        "CI profile: ES/RDB (JDBC) with wire batching on and off, asserting the ablation",
    )
    .option("delay", "MS", "one-way delay in ms (default 10)")
    .option("rps", "R", "session arrival rate (default 3.0)")
    .option(
        "speedup",
        "F",
        "virtual resource speedup factor (default 2.0)",
    )
    .parse();
    let smoke = args.has("smoke");
    let delay_ms: u64 = args
        .value("delay", "a non-negative integer", |_| true)
        .unwrap_or(10);
    let rps: f64 = args.value("rps", "a number", |_| true).unwrap_or(3.0);
    let speedup: f64 = args
        .value("speedup", "a factor above 1", |f| *f > 1.0)
        .unwrap_or(2.0);
    let delay = SimDuration::from_millis(delay_ms);

    println!(
        "Causal profiles at {delay_ms} ms one-way delay, {rps:.1} sessions/s, \
         {speedup:.1}x virtual speedups\n"
    );
    let mut csv = Csv::new(&[
        "arch",
        "resource",
        "speedup",
        "profile_share",
        "causal_share",
        "d_tps",
        "d_p95",
        "diverges",
    ]);
    let mut out = ArtifactSet {
        profile_label: "whatif: merged baseline profiles".to_owned(),
        ..ArtifactSet::default()
    };

    if smoke {
        // The §4.4 wire-batching ablation, re-derived causally: on the
        // paper's wire, one round trip per statement, the wire must
        // dominate, and batching must shrink the wire's causal impact.
        let spec = RunSpec::open(Architecture::EsRdb(Flavor::Jdbc), delay, rps, true);
        let batched_spec = RunSpec {
            wire_batching: true,
            ..spec
        };
        let mut measure = |label, spec| profile(label, spec, speedup, &mut out, &mut csv);
        let unbatched = measure("ES/RDB (JDBC), wire batching OFF", &spec);
        let batched = measure("ES/RDB (JDBC), wire batching ON", &batched_spec);

        if unbatched.top_bottleneck() != Resource::Wire {
            eprintln!(
                "FAIL: with batching disabled the wire must be the top causal bottleneck, got {}",
                unbatched.top_bottleneck().label()
            );
            std::process::exit(1);
        }
        let share = |r: &WhatIfReport, which: Resource| {
            r.rows
                .iter()
                .find(|row| row.resource == which)
                .expect("knob row")
                .causal_share
        };
        // Batching removes wire crossings, so a faster wire must buy less
        // absolute latency once batching is on…
        let saved = |r: &WhatIfReport| r.baseline.summary.latency_ms - r.rows[0].latency_ms;
        let (saved_off, saved_on) = (saved(&unbatched), saved(&batched));
        if saved_on >= saved_off {
            eprintln!(
                "FAIL: batching must shrink what a faster wire buys, \
                 got {saved_off:.1} ms -> {saved_on:.1} ms saved per interaction"
            );
            std::process::exit(1);
        }
        // …and the causal ranking must shift toward the edge CPU relative
        // to the wire (shares alone are queue-amplified at a loaded point,
        // so compare the ratio, not the raw share).
        let ratio = |r: &WhatIfReport| {
            share(r, Resource::EdgeCpu) / share(r, Resource::Wire).max(f64::EPSILON)
        };
        let (ratio_off, ratio_on) = (ratio(&unbatched), ratio(&batched));
        if ratio_on <= ratio_off {
            eprintln!(
                "FAIL: batching must shift the causal ranking toward the edge CPU, \
                 got edge/wire causal ratio {ratio_off:.3} -> {ratio_on:.3}"
            );
            std::process::exit(1);
        }
        println!(
            "ablation: a {speedup:.1}x faster wire saves {saved_off:.1} ms/interaction \
             unbatched but only {saved_on:.1} ms batched; \
             edge/wire causal ratio {ratio_off:.2} -> {ratio_on:.2}"
        );
    } else {
        for key in ARCH_KEYS {
            let arch = arch_by_key(key).expect("built-in key");
            let spec = RunSpec::open(arch, delay, rps, false);
            profile(key, &spec, speedup, &mut out, &mut csv);
        }
    }

    out.csvs.push((env!("CARGO_BIN_NAME"), csv));
    out.write_or_exit(results_dir(smoke), env!("CARGO_BIN_NAME"));
}
