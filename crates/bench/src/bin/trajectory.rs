//! The wall clock's checked-in trajectory.
//!
//! `benchmark/` measures; this bin only *reads* one of its full untraced
//! result files (`benchmark/out/NAME.json`) and the metric declaration in
//! `BENCHMARK.json`, and appends one row — revision, label, seed, seconds,
//! nproc and every declared end-to-end metric of every declared workload,
//! by name — to the append-only `BENCH_trajectory.json`. Run from the
//! repository root after a measurement worth keeping:
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- --out NAME
//! cargo run -p sli-bench --bin trajectory -- \
//!     --result benchmark/out/NAME.json --rev "$(git rev-parse --short HEAD)" --label "PR 19"
//! ```
//!
//! Wall-clock numbers belong to the machine that took them, so rows are a
//! history to read, not a gate: a `--quick`, traced, incorrect or
//! incomplete file is refused, nothing else is judged.

use sli_bench::Cli;
use sli_telemetry::Json;

const TRAJECTORY: &str = "BENCH_trajectory.json";
const DECLARED: &str = "BENCHMARK.json";
const SCHEMA: &str = "sli-edge.benchmark/v1";

/// The names under `key` of the `BENCHMARK.json` declaration.
fn declared_names<'a>(declared: &'a Json, key: &str) -> Result<Vec<&'a str>, String> {
    declared
        .req_arr(key, DECLARED)?
        .iter()
        .map(|entry| entry.req_str("name", key))
        .collect()
}

/// The trajectory row for the result file `result`.
///
/// # Errors
/// Names what makes the file unfit: the wrong schema, a `--quick` or traced
/// run, a workload that is missing or not correct, a metric without value.
fn row(result: &Json, declared: &Json, rev: &str, label: &str) -> Result<Json, String> {
    let at = "result";
    if result.req_str("schema", at)? != SCHEMA {
        return Err(format!("{at}: not a {SCHEMA} file"));
    }
    for (key, flag) in [("quick", "--quick"), ("trace", "traced")] {
        if result.req(key, at)? != &Json::Bool(false) {
            return Err(format!("{at}: a {flag} run is not a measurement to keep"));
        }
    }
    let metrics = declared_names(declared, "end_to_end")?;
    let measured = result.req("workloads", at)?;
    let mut workloads = Vec::new();
    for name in declared_names(declared, "workloads")? {
        let workload = measured.req(name, "workloads")?;
        if workload.req("correct", name)? != &Json::Bool(true) {
            return Err(format!("{name}: the run was not correct"));
        }
        let values = workload.req("metrics", name)?;
        let mut kept = Vec::new();
        for metric in &metrics {
            let value = values.req(metric, name)?.req_num("value", metric)?;
            kept.push((*metric, Json::from(value)));
        }
        workloads.push((name, Json::obj(kept)));
    }
    Ok(Json::obj([
        ("rev", Json::from(rev)),
        ("label", Json::from(label)),
        ("seed", Json::from(result.req_u64("seed", at)?)),
        ("seconds", Json::from(result.req_num("seconds", at)?)),
        ("nproc", Json::from(result.req_u64("nproc", at)?)),
        ("workloads", Json::obj(workloads)),
    ]))
}

/// The trajectory text with `row` appended: a JSON array, one row a line.
/// `history` is the file as it stands (`None` before the first row).
///
/// # Errors
/// A history that is not a JSON array is refused, not overwritten.
fn appended(history: Option<&str>, row: Json) -> Result<String, String> {
    let mut rows = match history {
        None => Vec::new(),
        Some(text) => match Json::parse(text)? {
            Json::Arr(rows) => rows,
            _ => return Err(format!("{TRAJECTORY}: not an array of rows")),
        },
    };
    rows.push(row);
    let lines: Vec<String> = rows.iter().map(Json::render).collect();
    Ok(format!("[\n{}\n]\n", lines.join(",\n")))
}

fn run() -> Result<(), String> {
    let args = Cli::new(
        "trajectory",
        "Appends a benchmark result file's end-to-end metrics to BENCH_trajectory.json",
    )
    .option(
        "result",
        "PATH",
        "full untraced result file (benchmark/out/NAME.json)",
    )
    .option("rev", "REV", "git revision the result was measured at")
    .option("label", "TEXT", "what the row is (e.g. \"PR 19\")")
    .parse();
    let need = |name: &str| args.get(name).ok_or(format!("--{name} is required"));
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let result = Json::parse(&read(need("result")?)?)?;
    let declared = Json::parse(&read(DECLARED)?)?;
    let row = row(&result, &declared, need("rev")?, need("label")?)?;
    let history = match std::fs::read_to_string(TRAJECTORY) {
        Ok(text) => Some(text),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
        Err(e) => return Err(format!("{TRAJECTORY}: {e}")),
    };
    let text = appended(history.as_deref(), row)?;
    std::fs::write(TRAJECTORY, text).map_err(|e| format!("{TRAJECTORY}: {e}"))?;
    println!("(row appended to {TRAJECTORY})");
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("trajectory: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_row_round_trips_and_unfit_files_are_refused() {
        let declared = Json::parse(
            r#"{"workloads":[{"name":"jdbc_mix"},{"name":"rbes_trade"}],
                "end_to_end":[{"name":"wall_ips"},{"name":"virt_tps"}]}"#,
        )
        .unwrap();
        let workload = r#"{"correct":true,"failed":0,"metrics":{
            "wall_ips":{"unit":"1/s","value":94216.5},"virt_tps":{"unit":"1/virt_s","value":6.986},
            "undeclared":{"unit":"x","value":1}}}"#;
        let file = |quick: bool, workloads: &str| {
            let text = format!(
                r#"{{"schema":"sli-edge.benchmark/v1","quick":{quick},"trace":false,"seed":20040101,
                    "seconds":3,"nproc":2,"claim":null,"workloads":{{{workloads}}}}}"#
            );
            Json::parse(&text).unwrap()
        };
        let both = format!(r#""jdbc_mix":{workload},"rbes_trade":{workload}"#);
        let first = row(&file(false, &both), &declared, "8d5aea2", "parent").unwrap();
        assert_eq!(first.req_str("rev", "row").unwrap(), "8d5aea2");
        assert_eq!(first.req_u64("seed", "row").unwrap(), 20_040_101);
        let kept = first.get("workloads").unwrap().get("rbes_trade").unwrap();
        assert_eq!(kept.req_num("wall_ips", "row").unwrap(), 94216.5);
        assert!(kept.get("undeclared").is_none());

        // Appended to nothing, then to what that wrote: both rows read back.
        let one = appended(None, first.clone()).unwrap();
        let second = row(&file(false, &both), &declared, "HEAD", "change").unwrap();
        let two = appended(Some(&one), second.clone()).unwrap();
        assert_eq!(Json::parse(&two).unwrap(), Json::Arr(vec![first, second]));
        assert_eq!(two.lines().count(), 4, "one row a line");
        assert!(appended(Some("{}"), Json::Null).is_err());

        // A quick run, a missing workload, an incorrect one, a missing metric.
        assert!(row(&file(true, &both), &declared, "r", "l").is_err());
        let alone = format!(r#""jdbc_mix":{workload}"#);
        assert!(row(&file(false, &alone), &declared, "r", "l").is_err());
        let wrong = both.replacen("\"correct\":true", "\"correct\":false", 1);
        assert!(row(&file(false, &wrong), &declared, "r", "l").is_err());
        let short = both.replacen("virt_tps", "virt_tpx", 1);
        assert!(row(&file(false, &short), &declared, "r", "l").is_err());
    }
}
