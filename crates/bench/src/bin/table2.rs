//! Regenerates **Table 2** — "Algorithm Sensitivity to Communication
//! Latency": the slope of the latency-vs-delay fit for every algorithm ×
//! architecture combination. ES/RBES is only meaningful with cached EJBs
//! (the split-servers configuration), so its JDBC/vanilla cells are N/A, as
//! in the paper.
//!
//! Run with `cargo run --release -p sli-bench --bin table2`. Pass `--smoke`
//! for a scaled-down run into `results/smoke/` (CI uses it). Also emits a
//! structured run report (`results/table2.report.json`) with one row per
//! architecture × algorithm × delay, a span sample
//! (`results/table2.trace.json`) and the per-run virtual-time timelines
//! (`results/table2.timeline.json`).

use sli_arch::{Architecture, Flavor};
use sli_bench::{
    results_dir, run, sensitivity, ArtifactSet, Cli, RunSpec, RunSummary, PAPER_DELAYS_MS,
};
use sli_simnet::SimDuration;
use sli_workload::{Csv, TextTable};

fn main() {
    let args = Cli::new(
        "table2",
        "Regenerates Table 2: latency-sensitivity slopes for every architecture x algorithm",
    )
    .flag("smoke", "scaled-down run for CI schema checks")
    .parse();
    let smoke = args.has("smoke");
    let delays: &[u64] = if smoke { &[0, 40, 80] } else { PAPER_DELAYS_MS };
    println!("Table 2: Algorithm Sensitivity to Communication Latency");
    println!("(slope of the linear latency-vs-delay fit; paper values in parentheses)\n");

    let mut out = ArtifactSet::new("Table 2: Algorithm Sensitivity to Communication Latency");
    let mut slope = |name: &str, arch: Architecture| {
        let points: Vec<RunSummary> = delays
            .iter()
            .map(|&d| {
                let spec = RunSpec::closed(arch, SimDuration::from_millis(d), smoke);
                out.push(name, run(&spec))
            })
            .collect();
        sensitivity(&points).expect("multi-delay sweep").slope
    };
    let cached_rdb = slope(
        "ES/RDB (Cached EJBs)",
        Architecture::EsRdb(Flavor::CachedEjb),
    );
    let jdbc_rdb = slope("ES/RDB (JDBC)", Architecture::EsRdb(Flavor::Jdbc));
    let vanilla_rdb = slope(
        "ES/RDB (Vanilla EJBs)",
        Architecture::EsRdb(Flavor::VanillaEjb),
    );
    let cached_rbes = slope("ES/RBES (Cached EJBs)", Architecture::EsRbes);
    let cached_ras = slope(
        "Clients/RAS (Cached EJBs)",
        Architecture::ClientsRas(Flavor::CachedEjb),
    );
    let jdbc_ras = slope("Clients/RAS (JDBC)", Architecture::ClientsRas(Flavor::Jdbc));
    let vanilla_ras = slope(
        "Clients/RAS (Vanilla EJBs)",
        Architecture::ClientsRas(Flavor::VanillaEjb),
    );

    let mut table = TextTable::new(&["Algorithm", "ES/RDB", "ES/RBES", "Clients/RAS"]);
    table.row(vec![
        "Cached EJBs".to_owned(),
        format!("{cached_rdb:.1} (13.0)"),
        format!("{cached_rbes:.1} (3.1)"),
        format!("{cached_ras:.1} (2.0)"),
    ]);
    table.row(vec![
        "JDBC".to_owned(),
        format!("{jdbc_rdb:.1} (9.4)"),
        "N/A".to_owned(),
        format!("{jdbc_ras:.1} (2.0)"),
    ]);
    table.row(vec![
        "Vanilla EJBs".to_owned(),
        format!("{vanilla_rdb:.1} (23.6)"),
        "N/A".to_owned(),
        format!("{vanilla_ras:.1} (2.0)"),
    ]);
    println!("{}", table.render());

    let mut csv = Csv::new(&["algorithm", "es_rdb", "es_rbes", "clients_ras"]);
    csv.row(vec![
        "cached_ejbs".to_owned(),
        format!("{cached_rdb:.2}"),
        format!("{cached_rbes:.2}"),
        format!("{cached_ras:.2}"),
    ]);
    csv.row(vec![
        "jdbc".to_owned(),
        format!("{jdbc_rdb:.2}"),
        String::new(),
        format!("{jdbc_ras:.2}"),
    ]);
    csv.row(vec![
        "vanilla_ejbs".to_owned(),
        format!("{vanilla_rdb:.2}"),
        String::new(),
        format!("{vanilla_ras:.2}"),
    ]);
    println!("CSV:\n{}", csv.render());

    // The shape assertions the reproduction is judged on.
    let checks: Vec<(&str, bool)> = vec![
        (
            "Clients/RAS slope = 2 for every algorithm",
            (cached_ras - 2.0).abs() < 0.1
                && (jdbc_ras - 2.0).abs() < 0.1
                && (vanilla_ras - 2.0).abs() < 0.1,
        ),
        (
            "ES/RDB ordering: vanilla > cached > JDBC",
            vanilla_rdb > cached_rdb && cached_rdb > jdbc_rdb,
        ),
        (
            "ES/RBES cached far below every ES/RDB flavor",
            cached_rbes < jdbc_rdb,
        ),
        (
            "ES/RBES still above the Clients/RAS floor",
            cached_rbes > 2.0,
        ),
    ];
    println!("Shape checks vs the paper:");
    for (name, ok) in checks {
        println!("  [{}] {name}", if ok { "PASS" } else { "FAIL" });
    }

    out.print_summary(delays.len());
    out.csv = Some(csv);
    out.write_or_exit(results_dir(smoke), env!("CARGO_BIN_NAME"));
}
