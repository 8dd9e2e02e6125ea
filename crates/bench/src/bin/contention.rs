//! Contention study: how often does optimistic validation abort as more
//! edge servers share the same working set?
//!
//! The paper measures one closed client "so as to factor out queuing delay
//! effects" (§4.3), where conflicts are rare. This binary runs 1, 2, 4 and 8
//! closed clients — one edge each — over a *small, hot* user population
//! through the same [`sli_bench::run`] as every figure, and reports the
//! optimistic abort rate and the invalidation traffic: the cost side of
//! inter-transaction caching's widened conflict window (§2.3). The table is
//! `results/contention.csv`.
//!
//! Run with `cargo run --release -p sli-bench --bin contention`. Pass
//! `--smoke` for 5 sessions per client into `results/smoke/`.

use sli_arch::{arch_key, Architecture, Flavor};
use sli_bench::{results_dir, run, Admission, ArtifactSet, Cli, RunSpec};
use sli_simnet::SimDuration;
use sli_telemetry::TimelineReport;
use sli_trade::seed::Population;
use sli_workload::{Csv, TextTable};

/// The summed totals of the timeline series `{prefix}N{suffix}`, one per edge.
fn total(timeline: &TimelineReport, prefix: &str, suffix: &str) -> u64 {
    timeline
        .series
        .iter()
        .filter(|s| s.name.starts_with(prefix) && s.name.ends_with(suffix))
        .map(|s| s.total)
        .sum()
}

fn main() {
    let args = Cli::new(
        "contention",
        "Contention study: optimistic aborts vs closed clients (one edge each) sharing hot users",
    )
    .flag("smoke", "scaled-down run for CI")
    .parse();
    let smoke = args.has("smoke");
    let sessions_per_client = if smoke { 5 } else { 40 };
    let hot = Population {
        users: 5,
        quotes: 20,
        holdings_per_user: 4,
    };
    println!("Contention: optimistic aborts vs closed clients, one edge each");
    println!(
        "({} hot users shared by every edge, 40 ms one-way delay, {sessions_per_client} \
         sessions per client, cold caches)\n",
        hot.users
    );
    let header = [
        "arch",
        "clients",
        "commits",
        "conflicts",
        "abort_rate_pct",
        "invalidations",
        "failed",
    ];
    let mut csv = Csv::new(&header);
    let mut out = ArtifactSet::new("Contention: optimistic aborts vs closed clients");
    for (label, arch) in [
        (
            "ES/RDB cached (combined servers: no invalidation channel)",
            Architecture::EsRdb(Flavor::CachedEjb),
        ),
        (
            "ES/RBES (split servers: back-end invalidation fan-out)",
            Architecture::EsRbes,
        ),
    ] {
        println!("{label}");
        let mut table = TextTable::new(&header[1..]);
        for clients in [1usize, 2, 4, 8] {
            let artifacts = run(&RunSpec {
                population: hot,
                warmup_sessions: 0,
                sessions: sessions_per_client * clients,
                admission: Admission::Closed { clients },
                ..RunSpec::closed(arch, SimDuration::from_millis(40), smoke)
            });
            let (report, timeline) = (&artifacts.report, &artifacts.timeline);
            let cells = vec![
                clients.to_string(),
                total(timeline, "rm.edge-", ".commits").to_string(),
                total(timeline, "rm.edge-", ".conflicts").to_string(),
                format!("{:.2}", report.abort_rate * 100.0),
                total(timeline, "store.edge-", ".invalidations").to_string(),
                report.failed.to_string(),
            ];
            let mut row = vec![arch_key(arch).to_owned()];
            row.extend(cells.iter().cloned());
            csv.row(row);
            table.row(cells);
            out.push(label, artifacts);
        }
        println!("{}", table.render());

        // OCC abort forensics: which entities the aborts blamed, across
        // every client count of this architecture.
        let (_, harvest) = out.harvests.last().expect("this series was pushed");
        let leaderboard = harvest.leaderboard();
        if leaderboard.is_empty() {
            println!("No OCC aborts to attribute for this architecture.\n");
            continue;
        }
        println!("Conflict leaderboard (hottest entities across all client counts):");
        let mut hot = TextTable::new(&["entity", "aborts", "diverging fields"]);
        for row in leaderboard.iter().take(8) {
            let fields = match row.fields.is_empty() {
                true => "(blind write)".to_owned(),
                false => row.fields.join(", "),
            };
            hot.row(vec![row.entity.clone(), row.conflicts.to_string(), fields]);
        }
        println!("{}\n", hot.render());
    }
    println!(
        "Note: invalidations also count self-invalidations from removes and aborts;\n\
         conflicts are retried transparently by the servlet (3 attempts), and\n\
         'failed' counts requests whose retries were exhausted."
    );
    println!("\nCSV:\n{}", csv.render());
    out.csvs.push((env!("CARGO_BIN_NAME"), csv));
    out.write_or_exit(results_dir(smoke), env!("CARGO_BIN_NAME"));
}
