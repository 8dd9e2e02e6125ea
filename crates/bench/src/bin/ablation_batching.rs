//! Ablation: the paper's §4.4 escape hatch — "workflow techniques could
//! batch the commit of multiple client requests as a single transaction."
//!
//! With one commit per request, no transactional edge cache can beat the
//! Clients/RAS floor of 2.0 (one round trip per interaction). Batching k
//! requests into one application transaction amortizes that round trip:
//! the per-interaction sensitivity drops toward 2/k — below the floor.
//!
//! Run with `cargo run --release -p sli-bench --bin ablation_batching`.

use std::sync::Arc;

use sli_arch::{Architecture, DataTier};
use sli_simnet::SimDuration;
use sli_trade::deploy;
use sli_trade::model::trade_registry;
use sli_trade::seed::{seed, Population};
use sli_trade::session::SessionGenerator;
use sli_trade::EjbTradeEngine;
use sli_workload::{fit, TextTable};

fn main() {
    sli_bench::Cli::new(
        "ablation_batching",
        "Ablation: batching k client requests per transaction (paper section 4.4)",
    )
    .parse();
    let pop = Population::default();
    let sessions = 150;
    println!("Ablation: batching k client requests per transaction (ES/RBES)");
    println!("(paper §4.4: workflow batching as the way below the 2.0 sensitivity floor)\n");

    let mut table = TextTable::new(&[
        "batch size k",
        "sensitivity per interaction",
        "vs Clients/RAS floor (2.0)",
    ]);

    for k in [1usize, 2, 4, 8] {
        let mut points = Vec::new();
        for delay_ms in [0u64, 40, 80] {
            // A fresh split-servers edge on the measured data tier, with the
            // engine driven directly: batching is not a servlet feature.
            let registry = trade_registry();
            let tier = DataTier::build(Architecture::EsRbes, 1, None, true, registry, |dba| {
                seed(dba, pop)
            });
            tier.set_delay(SimDuration::from_millis(delay_ms));
            let clock = &tier.clock;
            let cache = tier.edges[0].cache.as_ref().expect("ES/RBES edges cache");
            let container = deploy::cached_container(
                1,
                Arc::clone(&cache.store),
                Arc::clone(&cache.source),
                Arc::clone(&cache.committer),
            );
            let engine = EjbTradeEngine::new(container, "Cached EJBs", 1_000_000);

            let mut generator = SessionGenerator::new(42, pop);
            // warm-up
            for _ in 0..40 {
                for batch in generator.session().chunks(k) {
                    let _ = engine.perform_batch(batch);
                }
            }
            let t0 = clock.now();
            let mut interactions = 0usize;
            for _ in 0..sessions {
                for batch in generator.session().chunks(k) {
                    engine.perform_batch(batch).expect("batch commits");
                    interactions += batch.len();
                }
            }
            let elapsed_ms = (clock.now() - t0).as_millis_f64();
            points.push((delay_ms as f64, elapsed_ms / interactions as f64));
        }
        let slope = fit(&points).expect("three delays").slope;
        table.row(vec![
            k.to_string(),
            format!("{slope:.2}"),
            if slope < 2.0 {
                format!("BELOW the floor ({:.0}% of it)", slope / 2.0 * 100.0)
            } else {
                "above".to_owned()
            },
        ]);
    }
    println!("{}", table.render());
    println!(
        "k = 1 is the paper's measured regime (every request commits alone). For k > 1\n\
         a whole batch shares one commit round trip plus its cache-miss/finder trips,\n\
         so per-interaction sensitivity falls below the non-edge architecture's floor —\n\
         the trade-off being that all k requests now share one transaction's fate."
    );
}
