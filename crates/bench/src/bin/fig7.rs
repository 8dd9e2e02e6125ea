//! Regenerates **Figure 7** — "Edge-Servers Accessing Remote Database":
//! within the ES/RDB architecture, average client latency vs injected
//! one-way delay for the three data-access algorithms (JDBC, vanilla EJBs,
//! cached EJBs).
//!
//! Run with `cargo run --release -p sli-bench --bin fig7`. Pass `--smoke`
//! for a scaled-down run into `results/smoke/` (CI uses it). Also emits a
//! structured run report (`results/fig7.report.json`), a span sample
//! (`results/fig7.trace.json`) and the per-run virtual-time timelines
//! (`results/fig7.timeline.json`).

use sli_arch::{Architecture, Flavor};
use sli_bench::{latency_vs_delay, Cli};

fn main() {
    let args = Cli::new(
        "fig7",
        "Regenerates Figure 7: latency vs one-way delay for the three ES/RDB algorithms",
    )
    .flag("smoke", "scaled-down run for CI schema checks")
    .parse();
    println!("Figure 7: Edge-Servers Accessing Remote Database (ES/RDB)");
    println!("(latency vs one-way delay for the three data-access algorithms)\n");
    latency_vs_delay(
        env!("CARGO_BIN_NAME"),
        "Figure 7: Edge-Servers Accessing Remote Database",
        &[
            ("JDBC", "jdbc_ms", Architecture::EsRdb(Flavor::Jdbc)),
            (
                "Vanilla EJBs",
                "vanilla_ejb_ms",
                Architecture::EsRdb(Flavor::VanillaEjb),
            ),
            (
                "Cached EJBs",
                "cached_ejb_ms",
                Architecture::EsRdb(Flavor::CachedEjb),
            ),
        ],
        args.has("smoke"),
    );
    println!(
        "\nPaper's qualitative result (Table 2, ES/RDB column): vanilla EJBs are the most \
         latency-sensitive (23.6), caching reduces that substantially (13.0), and the \
         hand-crafted JDBC implementation is the least sensitive (9.4) because the tooled \
         EJB implementations pay finder/commit round trips JDBC avoids."
    );
}
