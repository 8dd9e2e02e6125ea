//! CI gate for exported artifacts: re-parses every run report, Chrome
//! trace, timeline, profile and incident under `results/` (`--smoke`
//! checks `results/smoke/`, where the bins' `--smoke` runs write), and a
//! `slicheck` counterexample if one is there, from its on-disk bytes, and
//! checks each with [`sli_telemetry::validate`]: the shape its embedded id
//! names, that kind's law (rate and profile conservation, every span
//! within its parent, incident budget geometry, cycle references), and
//! that the id agrees with the file's suffix.
//!
//! Run with `cargo run -p sli-bench --bin tracecheck` after the figure and
//! table binaries. Exits non-zero if no exports exist or any fails.

use std::path::{Path, PathBuf};

use sli_bench::{results_dir, Cli};
use sli_telemetry::{validate, Json, Schema};

/// The file-name suffix each kind is exported under.
const SUFFIXES: [(&str, Schema); 6] = [
    (".report.json", Schema::RunReport),
    (".trace.json", Schema::ChromeTrace),
    (".timeline.json", Schema::Timeline),
    (".profile.json", Schema::Profile),
    (".incident.json", Schema::Incident),
    ("-counterexample.json", Schema::Counterexample),
];

/// Validates one file, which its suffix says holds a `want` document.
fn check(path: &Path, want: Schema) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("parse: {e}"))?;
    match validate(&doc)? {
        kind if kind == want => Ok(()),
        kind => Err(format!("its id names a {kind:?}, its suffix a {want:?}")),
    }
}

fn main() {
    let args = Cli::new(
        "tracecheck",
        "Validates every exported artifact under results/ from its bytes",
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
    let mut files: Vec<(PathBuf, Schema)> = entries
        .filter_map(|e| {
            let path = e.ok()?.path();
            let name = path.file_name()?.to_str()?;
            let (_, kind) = SUFFIXES.iter().find(|(suffix, _)| name.ends_with(suffix))?;
            Some((path, *kind))
        })
        .collect();
    files.sort_by(|(a, _), (b, _)| a.cmp(b));
    if files.is_empty() {
        eprintln!("error: no exported artifacts in {dir}/ to validate");
        std::process::exit(1);
    }

    let mut failed = 0usize;
    for (path, kind) in &files {
        match check(path, *kind) {
            Ok(()) => println!("ok   {} ({kind:?})", path.display()),
            Err(e) => {
                eprintln!("FAIL {}: {e}", path.display());
                failed += 1;
            }
        }
    }
    println!("{} export(s) checked, {failed} failed", files.len());
    if failed > 0 {
        std::process::exit(1);
    }
}
