//! `monitor` — online SLO detection with measured time-to-detect.
//!
//! Two experiments share the monitored open-loop protocol (an open
//! [`sli_bench::RunSpec`] with its `monitor` set):
//!
//! 1. **False-positive gate.** Every architecture × flavor combination runs
//!    a clean sub-knee loaded point under the full detector suite. Any
//!    incident on a clean run fails the bin — an SLO monitor that pages on
//!    stationary traffic is worse than none.
//! 2. **Time-to-detect.** Three scripted disturbances — a total back-end
//!    outage, a WAN loss burst, and a flash-crowd arrival surge — are
//!    dialled in mid-run. Ground truth is exact: for fault injection, the
//!    virtual timestamp of the first *actually injected* fault (recorded
//!    by the path's fault state, not the dial instant); for the flash
//!    crowd, the scripted surge instant. The bin reports a detector ×
//!    fault-class table of detection latencies against that truth, and how
//!    many (combination, fault) pairs each detector paged strictly first.
//!
//! Artifacts: `results/monitor_ttd.csv` (one row per combo × fault ×
//! detector) and `results/monitor-{arch}-{fault}.incident.json` — the
//! earliest frozen incident of each scenario run, schema
//! `sli-edge.incident/v1` (the flight-recorder page an operator would
//! open).
//!
//! Run with `cargo run --release -p sli-bench --bin monitor`. Pass
//! `--smoke` for the CI profile (scenarios on one combination, written to
//! `results/smoke/`). Exits non-zero if a clean run pages, a scripted
//! disturbance goes undetected, any detection precedes its ground truth,
//! any detector × fault-class cell of the aggregate table stays empty, or
//! an artifact fails validation. Full mode also fails unless every detector
//! in [`DETECTOR_NAMES`] is *strictly* first to page on at least one
//! (combination, fault) pair: a detector that only ever pages after
//! another one earns no place in the suite. Smoke mode cannot carry that
//! gate — on its one combination, `es-rbes`, `burn_rate` is never first —
//! so it demands instead that every detector fire for every fault class.
//! Full mode demands firing per cell, not per combination: an architecture
//! that fails fast under a given fault legitimately never moves the
//! latency or queue signals (`burn_rate` catches it instead).

use sli_arch::{arch_by_key, ARCH_KEYS};
use sli_bench::{
    results_dir, run, ArtifactSet, Cli, FaultClass, RunSpec, FAULT_AT_MS, FAULT_DUR_MS,
};
use sli_simnet::SimDuration;
use sli_telemetry::DETECTOR_NAMES;
use sli_workload::{Csv, TextTable};

/// Sub-knee session rate for every combination at the default delay: the
/// knee bin places even es-rdb-vanilla's knee (the slowest combination,
/// ~9 interactions/s at 10 ms) above this offered rate at 5 ms one-way.
const CLEAN_RPS: f64 = 0.5;

/// The scenario combination for `--smoke` (full mode runs all seven).
const SMOKE_COMBO: &str = "es-rbes";

fn main() {
    let args = Cli::new(
        "monitor",
        "Online SLO monitor: clean-run false-positive gate and time-to-detect table",
    )
    .flag(
        "smoke",
        "scaled-down run for CI (scenarios on one combination)",
    )
    .option("delay", "MS", "one-way delay in ms (default 5)")
    .parse();
    let smoke = args.has("smoke");
    let delay_ms: u64 = args
        .value("delay", "a non-negative integer", |_| true)
        .unwrap_or(5);
    let delay = SimDuration::from_millis(delay_ms);
    let monitored = |key: &str, fault: Option<FaultClass>| {
        let arch = arch_by_key(key).expect("built-in key");
        run(&RunSpec {
            monitor: Some(fault),
            ..RunSpec::open(arch, delay, CLEAN_RPS, smoke)
        })
    };
    let mut failed = false;

    // ---- Experiment 1: the clean sweep must not page. -------------------
    println!("Clean-run false-positive gate ({CLEAN_RPS} sessions/s, {delay_ms} ms one-way delay)");
    for key in ARCH_KEYS {
        let outcome = monitored(key, None);
        if outcome.detections.is_empty() {
            println!(
                "ok   {key}: 0 incidents ({} interactions, p95 {:.1} ms)",
                outcome.summary.ok + outcome.summary.failed,
                outcome.summary.latency_p95_ms
            );
        } else {
            failed = true;
            for (detector, at) in &outcome.detections {
                eprintln!("FAIL {key}: clean traffic paged {detector} at {at} us");
            }
        }
    }

    // ---- Experiment 2: scripted disturbances, measured TTD. -------------
    let combos: Vec<&str> = if smoke {
        vec![SMOKE_COMBO]
    } else {
        ARCH_KEYS.to_vec()
    };
    println!(
        "\nScripted disturbances on {} (dialled at +{FAULT_AT_MS} ms for {FAULT_DUR_MS} ms):",
        combos.join(", "),
    );
    let mut out = ArtifactSet::default();
    let mut csv = Csv::new(&[
        "arch",
        "fault",
        "detector",
        "ttd_ms",
        "detected_at_us",
        "truth_us",
    ]);
    // ttd[detector][fault] across combos, for the aggregate table.
    let mut cells: Vec<Vec<Vec<f64>>> =
        vec![vec![Vec::new(); FaultClass::ALL.len()]; DETECTOR_NAMES.len()];
    // The (combination, fault) pairs each detector paged strictly first.
    let mut first = vec![0usize; DETECTOR_NAMES.len()];
    for key in &combos {
        for fault in FaultClass::ALL {
            let outcome = monitored(key, Some(fault));
            let Some(truth) = outcome.truth_us else {
                eprintln!("FAIL {key}/{}: disturbance never took effect", fault.key());
                failed = true;
                continue;
            };
            let f = FaultClass::ALL
                .iter()
                .position(|c| *c == fault)
                .expect("scripted class");
            if outcome.detections.is_empty() {
                eprintln!(
                    "FAIL {key}/{}: no detector fired (ground truth {truth} us)",
                    fault.key()
                );
                failed = true;
            }
            if let Some(d) = strictly_first(&outcome.detections) {
                first[d] += 1;
            }
            for (d, detector) in DETECTOR_NAMES.iter().enumerate() {
                match outcome.ttd_ms(detector) {
                    Some(ttd) if ttd >= 0.0 => {
                        cells[d][f].push(ttd);
                        let at = outcome
                            .detections
                            .iter()
                            .find(|(n, _)| n == detector)
                            .map(|(_, at)| *at)
                            .expect("fired detector has a timestamp");
                        csv.row(vec![
                            (*key).to_owned(),
                            fault.key().to_owned(),
                            (*detector).to_owned(),
                            format!("{ttd:.1}"),
                            at.to_string(),
                            truth.to_string(),
                        ]);
                    }
                    Some(ttd) => {
                        eprintln!(
                            "FAIL {key}/{}: {detector} fired {:.1} ms BEFORE the \
                             disturbance (ground truth {truth} us)",
                            fault.key(),
                            -ttd
                        );
                        failed = true;
                    }
                    // A quiet detector is a smoke failure (the smoke combo
                    // must exercise the full suite) but full-mode
                    // information: an architecture that fails *fast* under
                    // a given fault legitimately never moves the latency or
                    // queue signals — the aggregate-cell gate below still
                    // demands every detector prove itself on some combo.
                    None if smoke => {
                        eprintln!(
                            "FAIL {key}/{}: {detector} never fired (ground truth {truth} us)",
                            fault.key()
                        );
                        failed = true;
                    }
                    None => println!("  {key}/{}: {detector} quiet", fault.key()),
                }
            }
            // Freeze the page an operator would open: the earliest incident.
            if let Some(first) = outcome.earliest_incident() {
                out.incidents
                    .push((format!("monitor-{key}-{}", fault.key()), first.clone()));
            }
        }
    }

    // ---- The aggregate detector × fault-class table. --------------------
    let mut table = TextTable::new(&[
        "detector",
        "backend_outage ttd ms",
        "loss_burst ttd ms",
        "flash_crowd ttd ms",
    ]);
    for (d, detector) in DETECTOR_NAMES.iter().enumerate() {
        let mut row = vec![(*detector).to_owned()];
        for cell in &cells[d] {
            row.push(summarize(cell));
        }
        table.row(row);
    }
    println!(
        "\nTime-to-detect, virtual ms past ground truth{}:\n{}",
        if combos.len() > 1 {
            " (median [min..max] across combos)"
        } else {
            ""
        },
        table.render()
    );

    // Every detector must prove itself against every fault class somewhere
    // in the combo pool — a cell nobody fills means a signal the suite
    // cannot actually detect.
    for (d, detector) in DETECTOR_NAMES.iter().enumerate() {
        for (f, fault) in FaultClass::ALL.iter().enumerate() {
            if cells[d][f].is_empty() {
                eprintln!(
                    "FAIL aggregate: {detector} never detected a {} on any combination",
                    fault.key()
                );
                failed = true;
            }
        }
    }

    let counts: Vec<String> = DETECTOR_NAMES
        .iter()
        .zip(&first)
        .map(|(detector, n)| format!("{detector} {n}"))
        .collect();
    println!("Strictly first to page: {}", counts.join(", "));
    // Each detector must be the one that pages first somewhere, or it
    // adds nothing an operator would see.
    if !smoke {
        for (detector, n) in DETECTOR_NAMES.iter().zip(&first) {
            if *n == 0 {
                eprintln!(
                    "FAIL aggregate: {detector} is never strictly first to page on any \
                     (combination, fault) pair"
                );
                failed = true;
            }
        }
    }

    out.csvs.push(("monitor_ttd", csv));
    out.write_or_exit(results_dir(smoke), "monitor_ttd");

    if failed {
        eprintln!(
            "error: the SLO monitor missed a disturbance, paged a clean run or \
             kept a detector that never pages first"
        );
        std::process::exit(1);
    }
    println!("every scripted disturbance detected; no clean run paged");
}

/// The [`DETECTOR_NAMES`] index of the detector that fired strictly before
/// every other one, or `None` if nothing fired or the earliest instant is
/// shared.
fn strictly_first(detections: &[(&str, u64)]) -> Option<usize> {
    let &(name, at) = detections.iter().min_by_key(|(_, at)| *at)?;
    if detections.iter().filter(|(_, t)| *t == at).count() > 1 {
        return None;
    }
    DETECTOR_NAMES.iter().position(|d| *d == name)
}

/// `median [min..max]` of a cell, or `-` if the cell is empty.
fn summarize(ttds: &[f64]) -> String {
    if ttds.is_empty() {
        return "-".to_owned();
    }
    let mut sorted = ttds.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite ttd"));
    let median = sorted[sorted.len() / 2];
    if sorted.len() == 1 {
        format!("{median:.1}")
    } else {
        format!(
            "{median:.1} [{:.1}..{:.1}]",
            sorted[0],
            sorted[sorted.len() - 1]
        )
    }
}
