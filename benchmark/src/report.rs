//! Result files, the printed table, the driver's result line, `compare`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use sli_telemetry::Json;

use crate::e2e::Sampled;
use crate::spec::{self, Better, END_TO_END, PER_LAYER};
use crate::stats::{iqr_share, quantile};

pub const SCHEMA: &str = "sli-edge.benchmark/v1";

/// One workload's finished run, untraced (end-to-end metrics) or traced
/// (per-layer metrics).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    pub name: &'static str,
    pub attempted: u64,
    pub failed: u64,
    pub rounds: usize,
    pub metrics: Vec<Sampled>,
    /// Values kept in the result file only (raw timings, speed factors).
    pub diagnostics: Vec<Sampled>,
    /// Failed output checks: `round <r> seed <s>: <what>`.
    pub problems: Vec<String>,
}

impl WorkloadResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// The unit of a metric of either table.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, unit)| unit)
}

/// The result line the driver reads: one JSON object on one line.
pub fn result_line(result: &WorkloadResult) -> String {
    let metrics = result.metrics.iter().map(|m| {
        (
            m.name,
            Json::obj([
                ("value", Json::from(m.value)),
                ("unit", Json::from(unit_of(m.name))),
            ]),
        )
    });
    Json::obj([
        ("correct", Json::Bool(result.correct())),
        ("attempted", Json::from(result.attempted)),
        ("failed", Json::from(result.failed)),
        ("metrics", Json::obj(metrics)),
    ])
    .render()
}

/// Prints every metric by name with its unit, one line each.
pub fn print_table(results: &[WorkloadResult]) {
    for result in results {
        println!(
            "## {} — {} rounds, {} interactions, {} failed",
            result.name, result.rounds, result.attempted, result.failed
        );
        for m in &result.metrics {
            println!(
                "{:<14} {:<40} {:>16.4} {}",
                result.name,
                m.name,
                m.value,
                unit_of(m.name)
            );
        }
        for problem in &result.problems {
            println!("{:<14} CHECK FAILED: {problem}", result.name);
        }
    }
}

/// Run parameters recorded in a result file.
#[derive(Debug, Clone, Copy)]
pub struct RunInfo {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
}

pub fn to_json(info: RunInfo, results: &[WorkloadResult]) -> Json {
    let sampled = |m: &Sampled| {
        (
            m.name,
            Json::obj([
                ("value", Json::from(m.value)),
                ("unit", Json::from(unit_of(m.name))),
                (
                    "samples",
                    Json::Arr(m.samples.iter().map(|&v| Json::from(v)).collect()),
                ),
            ]),
        )
    };
    let workloads = results.iter().map(|r| {
        (
            r.name,
            Json::obj([
                ("correct", Json::Bool(r.correct())),
                ("attempted", Json::from(r.attempted)),
                ("failed", Json::from(r.failed)),
                ("rounds", Json::from(r.rounds as u64)),
                (
                    "problems",
                    Json::Arr(r.problems.iter().map(|p| Json::from(p.as_str())).collect()),
                ),
                ("metrics", Json::obj(r.metrics.iter().map(sampled))),
                ("diagnostics", Json::obj(r.diagnostics.iter().map(sampled))),
            ]),
        )
    });
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("schema", Json::from(SCHEMA)),
        ("seed", Json::from(info.seed)),
        ("seconds", Json::from(info.seconds)),
        ("trace", Json::Bool(info.trace)),
        ("quick", Json::Bool(info.quick)),
        ("nproc", Json::from(nproc as u64)),
        ("claim", Json::Null),
        ("workloads", Json::obj(workloads)),
    ])
}

/// The text of `BENCHMARK.json`, from the tables in `spec`: the command the
/// driver runs, the directory the benchmark lives in, and every workload and
/// metric by name. One element per line.
pub fn describe() -> String {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    let lines = |items: Vec<Json>| {
        let rendered: Vec<String> = items
            .iter()
            .map(|j| format!("    {}", j.render()))
            .collect();
        format!("[\n{}\n  ]", rendered.join(",\n"))
    };
    let workloads = spec::workloads()
        .iter()
        .map(|w| Json::obj([("name", Json::from(w.name)), ("why", Json::from(w.why))]))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            Json::obj([
                ("name", Json::from(m.name)),
                ("unit", Json::from(m.unit)),
                ("better", Json::from(m.better.label())),
                ("bound", Json::from(m.bound)),
            ])
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            Json::obj([
                ("name", Json::from(m.name)),
                ("unit", Json::from(m.unit)),
                ("better", Json::from(m.better.label())),
            ])
        })
        .collect();
    format!(
        "{{\n  \"command\": {},\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {},\n  \
         \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        Json::Arr(command.iter().map(|&c| Json::from(c)).collect()).render(),
        spec::RUN_SECONDS,
        lines(workloads),
        lines(end_to_end),
        lines(per_layer),
    )
}

/// `benchmark/out/`, next to this crate's manifest.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Writes the result file and returns its path.
pub fn write_out(name: &str, doc: &Json) -> std::io::Result<PathBuf> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.json"));
    std::fs::write(&path, doc.render() + "\n")?;
    Ok(path)
}

/// One metric of one workload as read back from a result file.
struct Read {
    value: f64,
    samples: Vec<f64>,
}

fn read_file(path: &str) -> Result<BTreeMap<(String, String), Read>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
        return Err(format!("{path}: not a {SCHEMA} document"));
    }
    let Some(Json::Obj(workloads)) = doc.get("workloads") else {
        return Err(format!("{path}: no workloads"));
    };
    let mut out = BTreeMap::new();
    for (workload, body) in workloads {
        let Some(Json::Obj(metrics)) = body.get("metrics") else {
            return Err(format!("{path}: {workload} has no metrics"));
        };
        for (metric, m) in metrics {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{path}: {workload}.{metric} has no value"))?;
            let samples = m
                .get("samples")
                .and_then(Json::as_arr)
                .map(|a| a.iter().filter_map(Json::as_f64).collect())
                .unwrap_or_default();
            out.insert((workload.clone(), metric.clone()), Read { value, samples });
        }
    }
    Ok(out)
}

/// `better / same / worse / unresolved` for one pairing of metric and
/// workload. Exact metrics are judged digit for digit; wall-clock metrics by
/// their bound, and not at all where the base's own spread exceeds it.
fn verdict(exact: bool, better: Better, bound: f64, base: &Read, new: &Read) -> &'static str {
    if exact && base.value == new.value {
        return "same";
    }
    if !exact && iqr_share(&base.samples) > bound {
        return "unresolved";
    }
    let change = if base.value == 0.0 {
        new.value
    } else {
        (new.value - base.value) / base.value.abs()
    };
    let worsening = match better {
        Better::Higher => -change,
        Better::Lower => change,
    };
    let threshold = if exact { 0.0 } else { bound };
    if worsening > threshold {
        "worse"
    } else if worsening < -threshold {
        "better"
    } else {
        "same"
    }
}

/// Prints one row per end-to-end metric and workload present in both files.
/// Returns whether no row is `worse`.
pub fn compare(base_path: &str, new_path: &str) -> Result<bool, String> {
    let base = read_file(base_path)?;
    let new = read_file(new_path)?;
    println!(
        "{:<14} {:<26} {:>13} {:>13} {:>13} {:>3} | {:>13} {:>13} {:>13} {:>3} | {:>8} {:>6} verdict",
        "workload", "metric", "base", "q1", "q3", "n", "new", "q1", "q3", "n", "new/base", "bound"
    );
    let mut ok = true;
    let mut rows = 0;
    for ((workload, metric), b) in &base {
        let Some(def) = END_TO_END.iter().find(|m| m.name == metric) else {
            continue;
        };
        let Some(n) = new.get(&(workload.clone(), metric.clone())) else {
            continue;
        };
        let v = verdict(def.exact, def.better, def.bound, b, n);
        ok &= v != "worse";
        rows += 1;
        let q = |r: &Read, q: f64| quantile(&r.samples, q);
        println!(
            "{:<14} {:<26} {:>13.4} {:>13.4} {:>13.4} {:>3} | {:>13.4} {:>13.4} {:>13.4} {:>3} | {:>8.4} {:>5.1}% {v}",
            workload,
            metric,
            b.value,
            q(b, 0.25),
            q(b, 0.75),
            b.samples.len(),
            n.value,
            q(n, 0.25),
            q(n, 0.75),
            n.samples.len(),
            if b.value == 0.0 { 0.0 } else { n.value / b.value },
            def.bound * 100.0,
        );
    }
    if rows == 0 {
        return Err("the two files share no end-to-end metric".to_owned());
    }
    Ok(ok)
}
