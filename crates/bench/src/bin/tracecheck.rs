//! CI gate for exported telemetry: re-parses every `results/*.trace.json`,
//! `results/*.timeline.json`, `results/*.profile.json` and
//! `results/*.incident.json` from its on-disk bytes and validates it
//! (`--smoke` checks `results/smoke/`, where the bins' `--smoke` runs
//! write).
//!
//! Trace files are checked for Chrome trace-event well-formedness —
//! required fields present and every span's `ts + dur` contained within
//! its parent's interval. Timeline files are checked against the
//! `sli-edge.timeline/v1` schema, including the rate-conservation law
//! (each rate series' windows must sum to its run-end total). Profile
//! files are checked against the `sli-edge.profile/v1` schema, including
//! its conservation law (per-class self times and per-resource times must
//! each sum to the total measured latency). Incident files — the SLO
//! monitor's frozen flight-recorder pages — are checked against the
//! `sli-edge.incident/v1` schema (detector name known, budget arithmetic
//! in range, span intervals well-formed).
//!
//! Run with `cargo run -p sli-bench --bin tracecheck` after the figure and
//! table binaries. Exits non-zero if no exports exist or any fails.

use sli_bench::{results_dir, Cli};
use sli_telemetry::{
    validate_chrome_trace, validate_incident, validate_profile, validate_timeline, Json,
};

/// Validates one file, returning a short success label.
fn check(path: &std::path::Path) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("parse: {e}"))?;
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
    if name.ends_with(".timeline.json") {
        validate_timeline(&doc)?;
        let runs = doc
            .get("runs")
            .and_then(Json::as_arr)
            .map_or(0, <[Json]>::len);
        Ok(format!("{runs} timeline run(s)"))
    } else if name.ends_with(".incident.json") {
        validate_incident(&doc)?;
        let detector = doc
            .get("detector")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_owned();
        let spans = doc
            .get("recent_spans")
            .and_then(Json::as_arr)
            .map_or(0, <[Json]>::len);
        Ok(format!("{detector} incident, {spans} recorded span(s)"))
    } else if name.ends_with(".profile.json") {
        validate_profile(&doc)?;
        let classes = doc
            .get("classes")
            .and_then(Json::as_arr)
            .map_or(0, <[Json]>::len);
        Ok(format!("{classes} span class(es), conservation holds"))
    } else {
        validate_chrome_trace(&doc)?;
        let spans = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .map_or(0, <[Json]>::len);
        Ok(format!("{spans} spans"))
    }
}

fn main() {
    let args = Cli::new(
        "tracecheck",
        "Validates every results/*.{trace,timeline,profile,incident}.json export",
    )
    .flag("smoke", "check results/smoke/ (the --smoke runs' output)")
    .parse();
    let dir = results_dir(args.has("smoke"));
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) => {
            eprintln!("error: cannot read {dir}/: {e}");
            std::process::exit(1);
        }
    };
    let mut paths: Vec<_> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name().and_then(|n| n.to_str()).is_some_and(|n| {
                n.ends_with(".trace.json")
                    || n.ends_with(".timeline.json")
                    || n.ends_with(".profile.json")
                    || n.ends_with(".incident.json")
            })
        })
        .collect();
    paths.sort();
    if paths.is_empty() {
        eprintln!("error: no {dir}/*.{{trace,timeline,profile,incident}}.json files to validate");
        std::process::exit(1);
    }

    let mut failed = 0usize;
    for path in &paths {
        match check(path) {
            Ok(label) => println!("ok   {} ({label})", path.display()),
            Err(e) => {
                eprintln!("FAIL {}: {e}", path.display());
                failed += 1;
            }
        }
    }
    println!("{} export(s) checked, {failed} failed", paths.len());
    if failed > 0 {
        std::process::exit(1);
    }
}
