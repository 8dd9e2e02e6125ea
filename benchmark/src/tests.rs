//! Self-tests, on `--quick` sizes: the properties the benchmark's numbers
//! rest on, and the contract of what it emits.

use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

use sli_telemetry::Json;

use crate::report::{self, WorkloadResult};
use crate::spec::{self, END_TO_END, PER_LAYER};
use crate::{parse_args, run_untraced, traced, Sizes};

const QUICK: Sizes = Sizes {
    quick: true,
    exact_rounds: 1,
    seconds: 0.0,
};

/// The allocator's counters are the process's: runs on parallel test threads
/// would count each other's allocations, so runs take turns.
fn one_run_at_a_time() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    // A test that failed while running poisons nothing the next one reads.
    TURN.lock().unwrap_or_else(PoisonError::into_inner)
}

fn untraced_of(workloads: &[spec::Workload], seed: u64) -> Vec<WorkloadResult> {
    let _turn = one_run_at_a_time();
    run_untraced(workloads, QUICK, seed)
}

fn untraced(seed: u64) -> Vec<WorkloadResult> {
    untraced_of(&spec::workloads(), seed)
}

/// One quick traced run of every workload, shared by the tests that read it.
fn traced_run() -> &'static [WorkloadResult] {
    static RUN: OnceLock<Vec<WorkloadResult>> = OnceLock::new();
    RUN.get_or_init(|| {
        let _turn = one_run_at_a_time();
        traced::run_traced(&spec::workloads(), QUICK, spec::DEFAULT_SEED)
    })
}

fn value(result: &WorkloadResult, metric: &str) -> f64 {
    result
        .metrics
        .iter()
        .find(|m| m.name == metric)
        .unwrap_or_else(|| panic!("{} reports no {metric}", result.name))
        .value
}

/// The exact end-to-end metrics of a run, by workload.
fn exact_digest(results: &[WorkloadResult]) -> Vec<(&'static str, &'static str, u64)> {
    results
        .iter()
        .flat_map(|r| {
            END_TO_END
                .iter()
                .filter(|m| m.exact)
                .map(move |m| (r.name, m.name, value(r, m.name).to_bits()))
        })
        .collect()
}

#[test]
fn exact_metrics_repeat_for_one_seed_and_move_with_the_seed() {
    let first = untraced(11);
    assert!(first.iter().all(WorkloadResult::correct), "{first:?}");
    assert_eq!(exact_digest(&first), exact_digest(&untraced(11)));
    assert_ne!(exact_digest(&first), exact_digest(&untraced(12)));
}

#[test]
fn every_workload_reports_every_end_to_end_metric_and_none_is_zero() {
    for result in untraced(3) {
        assert_eq!(result.metrics.len(), END_TO_END.len());
        for m in &END_TO_END {
            let v = value(&result, m.name);
            assert!(v.is_finite() && v > 0.0, "{}.{} = {v}", result.name, m.name);
        }
        assert!(result.attempted > 0 && result.failed == 0);
    }
}

#[test]
fn traced_stack_is_the_same_system_and_spans_conserve_time() {
    // Both laws are output checks of the traced run: a stack whose virtual
    // latencies, failures or shared-path traffic differ from the testbed's,
    // or whose span self times do not sum to the request times within 2 %,
    // lands in `problems`.
    for result in traced_run() {
        assert!(result.correct(), "{}: {:?}", result.name, result.problems);
        let residual = value(result, "bench.span_residual_pct");
        assert!(
            residual.abs() < 2.0,
            "{}: residual {residual} %",
            result.name
        );
    }
}

#[test]
fn bypassed_layers_read_zero() {
    for result in traced_run() {
        let cached = !matches!(result.name, "jdbc_mix" | "crash_recover");
        for metric in [
            "core.home_self_ns",
            "core.rm_commit_self_ns",
            "core.source_call_ns",
            "core.commit_call_ns",
            "core.store_hit_ratio",
            "core.commits_per_interaction",
            "core.store_resident_bytes",
        ] {
            let v = value(result, metric);
            assert_eq!(v > 0.0, cached, "{}.{metric} = {v}", result.name);
        }
        let evictions = value(result, "core.store_evictions_per_interaction");
        assert_eq!(
            evictions > 0.0,
            result.name == "rbes_evict",
            "{}",
            result.name
        );
        let engine = value(result, "telemetry.harvest_ns_per_dispatch");
        assert_eq!(
            engine != 0.0,
            result.name == "rbes_loaded",
            "{}",
            result.name
        );
        assert_eq!(value(result, "simnet.rpc_retries"), 0.0);
    }
}

#[test]
fn virtual_resources_sum_to_the_measured_latency() {
    // `per_layer` checks the sum against the clients' own latencies and
    // files a problem otherwise; here: the four shares are all there.
    for result in traced_run() {
        let wire = value(result, "simnet.virt_wire_us");
        let total = wire
            + value(result, "arch.virt_edge_cpu_us")
            + value(result, "datastore.virt_db_us")
            + value(result, "core.virt_store_lock_us");
        assert!(wire / total > 0.5, "{}: the wire dominates", result.name);
    }
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn emitted_json_meets_the_contract() {
    assert!((2..=8).contains(&spec::workloads().len()));
    assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
    let mut names: Vec<&str> = END_TO_END
        .iter()
        .map(|m| m.name)
        .chain(PER_LAYER.iter().map(|m| m.name))
        .chain(spec::workloads().iter().map(|w| w.name))
        .collect();
    assert!(names.iter().all(|n| valid_name(n)), "{names:?}");
    names.sort_unstable();
    names.dedup();
    assert_eq!(
        names.len(),
        END_TO_END.len() + PER_LAYER.len() + spec::workloads().len(),
        "names are used once"
    );
    assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    assert!(END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == spec::Better::Lower));
    assert!(spec::workloads()
        .iter()
        .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));

    // The driver's line: exactly four keys, every metric of the run's table
    // with a value and a unit.
    for (results, table) in [
        (
            untraced(5),
            END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>(),
        ),
        (
            traced_run().to_vec(),
            PER_LAYER.iter().map(|m| m.name).collect(),
        ),
    ] {
        for result in &results {
            let line = Json::parse(&report::result_line(result)).expect("the line is JSON");
            let Json::Obj(keys) = &line else {
                panic!("the line is an object")
            };
            let keys: Vec<&str> = keys.keys().map(String::as_str).collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            let Some(Json::Obj(metrics)) = line.get("metrics") else {
                panic!("metrics is an object")
            };
            let mut reported: Vec<&str> = metrics.keys().map(String::as_str).collect();
            let mut expected = table.clone();
            reported.sort_unstable();
            expected.sort_unstable();
            assert_eq!(reported, expected, "{}", result.name);
            for (name, m) in metrics {
                assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name}");
                let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
                assert!(
                    !unit.is_empty()
                        && unit.len() <= 16
                        && unit
                            .chars()
                            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                    "{name}: unit {unit:?}"
                );
            }
        }
    }
}

#[test]
fn benchmark_json_repeats_the_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let on_disk =
        std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    assert_eq!(
        on_disk,
        report::describe(),
        "regenerate it: cargo run --manifest-path benchmark/Cargo.toml -- describe > BENCHMARK.json"
    );
    assert!(on_disk.len() <= 64 * 1024);
    Json::parse(&on_disk).expect("BENCHMARK.json is JSON");
}

#[test]
fn the_drivers_command_line_parses() {
    let argv = |s: &str| s.split_whitespace().map(str::to_owned).collect::<Vec<_>>();
    let args = parse_args(&argv(
        "--workload rbes_trade --seed 42 --seconds 10 --trace 1",
    ))
    .unwrap();
    assert_eq!(args.workload.as_deref(), Some("rbes_trade"));
    assert_eq!(
        (args.seed, args.seconds, args.trace),
        (42, Some(10.0), true)
    );
    assert!(!parse_args(&argv("--trace 0 --seed 1")).unwrap().trace);
    assert!(parse_args(&argv("--trace --quick")).unwrap().trace);
    assert!(parse_args(&argv("--seed x")).is_err());
    assert!(parse_args(&argv("--out ../escape")).is_err());
    assert!(parse_args(&argv("--frobnicate")).is_err());
}

#[test]
fn compare_judges_exact_metrics_by_digit_and_wall_metrics_by_bound() {
    let template = untraced_of(&spec::workloads()[..1], 9);
    let file = |name: &str, ips: f64, latency: f64| {
        let mut results = template.clone();
        for m in &mut results[0].metrics {
            match m.name {
                "wall_ips" => {
                    m.value = ips;
                    m.samples = vec![ips * 0.99, ips, ips * 1.01];
                }
                "virt_latency_ms" => m.value = latency,
                _ => {}
            }
        }
        let info = report::RunInfo {
            seed: 9,
            seconds: 0.0,
            trace: false,
            quick: true,
        };
        let path = report::write_out(&format!("test-{name}"), &report::to_json(info, &results))
            .expect("the result file is written");
        path.to_str().expect("the path is UTF-8").to_owned()
    };
    let base = file("base", 1000.0, 100.0);
    assert_eq!(report::compare(&base, &base), Ok(true));
    // Within the bound on a wall metric: same. Beyond it: worse.
    assert_eq!(
        report::compare(&base, &file("slower", 950.0, 100.0)),
        Ok(true)
    );
    assert_eq!(
        report::compare(&base, &file("slow", 700.0, 100.0)),
        Ok(false)
    );
    // Any worsening of an exact metric counts.
    assert_eq!(
        report::compare(&base, &file("late", 1000.0, 100.001)),
        Ok(false)
    );
    assert!(report::compare(&base, "/nonexistent.json").is_err());
}
