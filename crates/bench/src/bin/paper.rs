//! Regenerates Tables 1 and 2 and Figures 6–8 from the one experiment
//! behind them (paper §4.3): one virtual client, latency against injected
//! one-way delay. Each architecture × algorithm combination runs once at
//! each delay, and those runs give `fig6.csv` (ES/RDB with its best
//! algorithm, JDBC, against ES/RBES and Clients/RAS), `fig7.csv` (ES/RDB's
//! three algorithms), `fig8.csv` (bytes to the shared site per interaction),
//! `table2.csv` (the slope of each combination's fit; ES/RBES runs only
//! cached EJBs, so its other cells are N/A, as in the paper) and
//! `table1.csv` (per combination and action, what the spans of its Fig. 8
//! run recorded). Every run also lands in `paper.report.json`,
//! `paper.trace.json` and `paper.timeline.json`.
//!
//! Run with `cargo run --release -p sli-bench --bin paper`; `--smoke` sweeps
//! 0, 40 and 80 ms on the quick protocol into `results/smoke/`. Exits 1 if
//! an artifact fails validation or [`judge`] finds a claim of the paper's
//! that the three tables it wrote do not hold (DESIGN §4).

use std::collections::BTreeMap;

use sli_arch::{Architecture, Flavor};
use sli_bench::paper::{column, judge, label, row_key, FIG8, FIG8_BARS, PAPER, TABLE1};
use sli_bench::{
    results_dir, run, sensitivity, ActionTally, ArtifactSet, Cli, RunSpec, RunSummary,
    PAPER_DELAYS_MS,
};
use sli_simnet::SimDuration;
use sli_workload::{Csv, TextTable};

/// The classes of `t`'s statements in Table 1's notation, tables and kinds
/// in name order (`Account R; Registry R, U`).
fn activity_label(t: &ActionTally) -> String {
    let mut tables: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (table, kind) in t.statements.iter().filter_map(|c| c.split_once('.')) {
        tables.entry(table).or_default().push(&kind[..1]);
    }
    let labels = tables.iter().map(|(table, kinds)| {
        let kinds = kinds.join(", ").to_uppercase();
        format!("{}{} {kinds}", table[..1].to_uppercase(), &table[1..])
    });
    labels.collect::<Vec<_>>().join("; ")
}

/// Bandwidth per interaction does not depend on the delay; Fig. 8 reads
/// it at the middle of the sweep.
const FIG8_DELAY_MS: u64 = 40;

/// A latency figure's series: `(CSV column, combination)` each.
type Series = [(&'static str, Architecture); 3];

/// Figures 6 and 7: file stem, title and series.
const FIGURES: [(&str, &str, Series); 2] = [
    (
        "fig6",
        "Figure 6: Comparison of High-Latency Architectures",
        [
            ("es_rdb_jdbc_ms", FIG8_BARS[0]),
            ("es_rbes_cached_ms", FIG8_BARS[1]),
            ("clients_ras_ms", FIG8_BARS[2]),
        ],
    ),
    (
        "fig7",
        "Figure 7: Edge-Servers Accessing Remote Database (ES/RDB)",
        [
            ("jdbc_ms", Architecture::EsRdb(Flavor::Jdbc)),
            ("vanilla_ejb_ms", Architecture::EsRdb(Flavor::VanillaEjb)),
            ("cached_ejb_ms", Architecture::EsRdb(Flavor::CachedEjb)),
        ],
    ),
];

fn main() {
    let args = Cli::new(
        "paper",
        "Regenerates Tables 1 and 2 and Figures 6-8 from one latency-vs-delay sweep",
    )
    .flag("smoke", "scaled-down run for CI schema checks")
    .parse();
    let smoke = args.has("smoke");
    let delays: &[u64] = if smoke { &[0, 40, 80] } else { PAPER_DELAYS_MS };
    let mut out = ArtifactSet::new("Tables 1-2 and Figures 6-8: latency vs one-way delay");
    // Per combination, what each action of its Fig. 8 run did.
    let mut ledgers = Vec::new();
    let sweeps: Vec<(Architecture, Vec<RunSummary>)> = Architecture::ALL
        .iter()
        .map(|&(arch, _)| {
            let spec = |d| RunSpec::closed(arch, SimDuration::from_millis(d), smoke);
            let runs = delays.iter().map(|&d| {
                let mut artifacts = run(&spec(d));
                if d == FIG8_DELAY_MS {
                    ledgers.push((arch, std::mem::take(&mut artifacts.actions)));
                }
                out.push(&label(arch), artifacts)
            });
            (arch, runs.collect())
        })
        .collect();
    let points = |arch| {
        let sweep = sweeps.iter().find(|(a, _)| *a == arch);
        &sweep.expect("every combination is swept").1
    };
    println!("One virtual client; latency = batched average of the measured sessions.\n");

    for (stem, title, series) in FIGURES {
        let columns = [&["delay_ms"][..], &series.map(|(column, _)| column)].concat();
        let (mut table, mut csv) = (TextTable::new(&columns), Csv::new(&columns));
        for (i, delay) in delays.iter().enumerate() {
            let latency = |arch| format!("{:.1}", points(arch)[i].latency_ms);
            let latencies = series.iter().map(|(_, arch)| latency(*arch));
            let cells: Vec<String> = [delay.to_string()].into_iter().chain(latencies).collect();
            table.row(cells.clone());
            csv.row(cells);
        }
        println!("{title} (latency, ms)\n{}", table.render());
        out.csvs.push((stem, csv));
    }

    println!("Linear fits (latency_ms = slope * delay_ms + intercept):");
    let mut fits = TextTable::new(&["series", "slope", "intercept (ms)", "R^2"]);
    let mut slopes = PAPER.slopes.map(|(flavor, _)| (flavor, [None; 3]));
    for (arch, points) in &sweeps {
        let fit = sensitivity(points).expect("the sweep has several delays");
        let [slope, intercept] = [fit.slope, fit.intercept].map(|v| format!("{v:.1}"));
        let r2 = format!("{:.4}", fit.r2);
        fits.row(vec![label(*arch), slope, intercept, r2]);
        let row = slopes.iter_mut().find(|r| r.0 == arch.flavor());
        row.expect("every algorithm is a Table 2 row").1[column(*arch)] = Some(fit.slope);
        let failed: usize = points.iter().map(|p| p.failed).sum();
        if failed > 0 {
            eprintln!("warning: {}: {failed} failed interactions", label(*arch));
        }
    }
    println!("{}", fits.render());

    println!("Table 2: Algorithm Sensitivity to Communication Latency (paper's in parentheses)");
    let mut table = TextTable::new(&["Algorithm", "ES/RDB", "ES/RBES", "Clients/RAS"]);
    let mut csv = Csv::new(&["algorithm", "es_rdb", "es_rbes", "clients_ras"]);
    for ((flavor, cells), (_, paper)) in slopes.iter().zip(&PAPER.slopes) {
        let shown = cells.iter().zip(paper).map(|cell| match cell {
            (Some(cell), Some(paper)) => format!("{cell:.1} ({paper:.1})"),
            _ => "N/A".to_owned(),
        });
        let name = flavor.label().to_owned();
        table.row([name].into_iter().chain(shown).collect());
        let values = cells.map(|c| c.map_or(String::new(), |s| format!("{s:.2}")));
        csv.row([row_key(*flavor)].into_iter().chain(values).collect());
    }
    println!("{}", table.render());
    out.csvs.push(("table2", csv));

    println!("Figure 8: Bandwidth to the shared site, at {FIG8_DELAY_MS} ms (paper's scale last)");
    let header = [
        "architecture",
        "bytes_per_interaction",
        "round_trips_per_interaction",
    ];
    let mut table = TextTable::new(&[&header[..], &["paper"]].concat());
    let mut csv = Csv::new(&header);
    let at = delays.iter().position(|&d| d == FIG8_DELAY_MS);
    let at = at.expect("Fig. 8's delay is swept");
    for (name, arch) in FIG8 {
        let p = points(arch)[at];
        let cells = vec![
            name.to_owned(),
            format!("{:.0}", p.shared_bytes_per_interaction),
            format!("{:.2}", p.round_trips_per_interaction),
        ];
        csv.row(cells.clone());
        table.row([cells, vec![format!("~{:.0}", PAPER.bytes[column(arch)])]].concat());
    }
    println!("{}", table.render());
    out.csvs.push(("fig8", csv));

    let mut csv = Csv::new(&[
        "combination",
        "action",
        "interactions",
        "delayed_round_trips",
        "db_activity",
    ]);
    let mut observed = TABLE1.map(|_| None);
    for (arch, actions) in &ledgers {
        let trips: u64 = actions.values().map(|t| t.delayed_round_trips).sum();
        let counted = points(*arch)[at].round_trips;
        if trips != counted {
            let arch = label(*arch);
            eprintln!("error: {arch}: the spans name {trips} round trips, the path {counted}");
            std::process::exit(1);
        }
        let vanilla = arch.flavor() == Flavor::VanillaEjb;
        for (action, t) in actions {
            let activity = if vanilla {
                activity_label(t)
            } else {
                String::new()
            };
            csv.row(vec![
                label(*arch),
                action.to_string(),
                t.interactions.to_string(),
                t.delayed_round_trips.to_string(),
                activity,
            ]);
        }
        // The vanilla flavor on ES/RDB issues every statement on its own,
        // so each names its table; `judge` reads the same labels.
        if *arch == Architecture::EsRdb(Flavor::VanillaEjb) {
            let tally = |row: &str| actions.get(row.split(" | ").next()?);
            observed = TABLE1.map(|row| tally(row).map(activity_label));
        }
    }
    out.csvs.push(("table1", csv));

    println!("Table 1: Trade Runtime and Database Usage Characteristics");
    let mut table = TextTable::new(&[
        "action",
        "Trade Action",
        "Description",
        "CMP Bean Operation",
        "DB Activity",
        "observed, ES/RDB (Vanilla EJBs)",
    ]);
    for (row, seen) in TABLE1.iter().zip(&observed) {
        let seen = seen.as_deref().unwrap_or("not in the session mix");
        table.row(row.split(" | ").chain([seen]).collect());
    }
    println!("{}", table.render());

    // Judged from the text written, so the checked-in files and this run
    // answer to the same claims.
    let text = |stem| {
        let csv = out.csvs.iter().find(|(s, _)| *s == stem);
        csv.expect("a rendered table").1.render()
    };
    let failures = judge(&text("table1"), &text("table2"), &text("fig8"));
    println!("The paper's claims (DESIGN §4): {} failed", failures.len());
    for failure in &failures {
        println!("  [FAIL] {failure}");
    }
    out.print_summary(delays.len());
    out.write_or_exit(results_dir(smoke), env!("CARGO_BIN_NAME"));
    if !failures.is_empty() {
        eprintln!("error: a claim of the paper's does not hold");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use sli_bench::paper::activity_pairs;

    use super::*;

    #[test]
    fn labels_compare_as_sets_of_table_and_kind() {
        let statements = ["registry.update", "account.read", "registry.read"];
        let tally = ActionTally {
            statements: statements.map(Into::into).into(),
            ..ActionTally::default()
        };
        let label = activity_label(&tally);
        assert_eq!(label, "Account R; Registry R, U");
        let login = TABLE1[0].rsplit(" | ").next().expect("a DB activity");
        assert_eq!(login, "Registry R, U; Account R");
        assert_eq!(activity_pairs(&label), activity_pairs(login));
        assert_ne!(
            activity_pairs("Registry R"),
            activity_pairs("Registry R, U")
        );
    }
}
