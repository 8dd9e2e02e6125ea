//! Regenerates **Figure 8** — "Bandwidth": bytes transmitted to the shared
//! site (back-end server or database — or the remote application server for
//! Clients/RAS) per client/server interaction.
//!
//! Paper's measured values: Clients/RAS > 7000 bytes, ES/RBES ≈ 3000,
//! ES/RDB ≈ 2000.
//!
//! Run with `cargo run --release -p sli-bench --bin fig8`. Pass `--smoke`
//! for a scaled-down run into `results/smoke/` (CI uses it). Also emits a
//! structured run report (`results/fig8.report.json`), a span sample
//! (`results/fig8.trace.json`) and the per-run virtual-time timelines
//! (`results/fig8.timeline.json`).

use sli_arch::{Architecture, Flavor};
use sli_bench::{results_dir, run, ArtifactSet, Cli, RunSpec};
use sli_simnet::SimDuration;
use sli_workload::{Csv, TextTable};

fn main() {
    let args = Cli::new(
        "fig8",
        "Regenerates Figure 8: bytes to the shared site per client interaction",
    )
    .flag("smoke", "scaled-down run for CI schema checks")
    .parse();
    let smoke = args.has("smoke");
    // Bandwidth per interaction is delay-independent; measure at the
    // middle of the sweep.
    let delay = SimDuration::from_millis(40);
    let series = [
        ("ES/RDB (JDBC)", Architecture::EsRdb(Flavor::Jdbc), 2_000.0),
        (
            "ES/RDB (Cached EJBs, supplementary)",
            Architecture::EsRdb(Flavor::CachedEjb),
            2_000.0,
        ),
        ("ES/RBES (Cached EJBs)", Architecture::EsRbes, 3_000.0),
        (
            "Clients/RAS (JDBC)",
            Architecture::ClientsRas(Flavor::Jdbc),
            7_000.0,
        ),
    ];

    println!("Figure 8: Bandwidth — bytes to the shared site per client interaction");
    println!(
        "(the paper plots one bar per architecture; ES/RDB is represented by its best\n\
         algorithm, JDBC — the cached row is supplementary detail)\n"
    );
    let mut table = TextTable::new(&[
        "architecture",
        "bytes/interaction (measured)",
        "round trips/interaction",
        "paper's reported scale",
    ]);
    let mut csv = Csv::new(&[
        "architecture",
        "bytes_per_interaction",
        "round_trips_per_interaction",
    ]);
    let mut out = ArtifactSet::new("Figure 8: Bandwidth to the shared site");
    for (name, arch, paper) in series {
        let p = out.push(name, run(&RunSpec::closed(arch, delay, smoke)));
        table.row(vec![
            name.to_owned(),
            format!("{:.0}", p.shared_bytes_per_interaction),
            format!("{:.2}", p.round_trips_per_interaction),
            format!("~{paper:.0}"),
        ]);
        csv.row(vec![
            name.to_owned(),
            format!("{:.0}", p.shared_bytes_per_interaction),
            format!("{:.2}", p.round_trips_per_interaction),
        ]);
    }
    println!("{}", table.render());
    println!(
        "Paper's qualitative result: the edge architectures transmit far fewer bytes to \
         the shared site because the presentation payload (HTML) stays on the local pipes \
         between clients and edge servers; Clients/RAS must ship every rendered page over \
         the provisioned back-end connection."
    );

    out.print_summary(1);

    println!("\nCSV:\n{}", csv.render());
    println!("\n{}", out.report.render_text());
    out.csv = Some(csv);
    out.write_or_exit(results_dir(smoke), env!("CARGO_BIN_NAME"));
}
