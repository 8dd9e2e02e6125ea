//! Regenerates **Figure 6** — "Comparison of High-Latency Architectures":
//! average client latency vs injected one-way delay for
//!
//! * ES/RDB with its best algorithm (JDBC — "diamonds"),
//! * ES/RBES with cached EJBs ("triangles"),
//! * Clients/RAS ("stars"),
//!
//! plus the linear fit the paper overlays (R² ≈ 99%).
//!
//! Run with `cargo run --release -p sli-bench --bin fig6`. Pass `--smoke`
//! for a scaled-down run into `results/smoke/` (CI uses it to validate the
//! emitted artifacts against their schemas).
//!
//! Besides the CSV, the binary emits a structured run report
//! (`results/fig6.report.json`, schema `sli-edge.run-report/v1`) with one
//! row per series × delay, a span sample (`results/fig6.trace.json`), and
//! the windowed virtual-time timelines of every measured run
//! (`results/fig6.timeline.json`, schema `sli-edge.timeline/v1`). The
//! process exits non-zero if any of them fails validation.

use sli_arch::{Architecture, Flavor};
use sli_bench::{latency_vs_delay, Cli};

fn main() {
    let args = Cli::new(
        "fig6",
        "Regenerates Figure 6: client latency vs one-way delay, three architectures",
    )
    .flag("smoke", "scaled-down run for CI schema checks")
    .parse();
    println!("Figure 6: Comparison of High-Latency Architectures");
    println!("(one virtual client; latency = batched average of the measured sessions)\n");
    latency_vs_delay(
        env!("CARGO_BIN_NAME"),
        "Figure 6: Comparison of High-Latency Architectures",
        &[
            (
                "ES/RDB (JDBC, best algorithm)",
                "es_rdb_jdbc_ms",
                Architecture::EsRdb(Flavor::Jdbc),
            ),
            (
                "ES/RBES (Cached EJBs)",
                "es_rbes_cached_ms",
                Architecture::EsRbes,
            ),
            (
                "Clients/RAS (JDBC)",
                "clients_ras_ms",
                Architecture::ClientsRas(Flavor::Jdbc),
            ),
        ],
        args.has("smoke"),
    );
    println!(
        "\nPaper's qualitative result: Clients/RAS lowest latency (slope 2.0); ES/RBES \
         close behind (3.1); ES/RDB far more sensitive (9.4 for its best algorithm)."
    );
}
