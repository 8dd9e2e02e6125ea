//! Ablation: how big must the edge's common transient store be?
//!
//! The paper's prototype keeps the common store unbounded. Constrained edge
//! servers cannot; this sweep bounds the store with LRU eviction and
//! measures how the hit ratio and the latency sensitivity degrade as
//! capacity shrinks — quantifying how much of the ES/RBES advantage is
//! really "the working set fits".
//!
//! Run with `cargo run --release -p sli-bench --bin ablation_cache`.

use sli_arch::{Architecture, Testbed, TestbedConfig, VirtualClient};
use sli_bench::{Cli, PAPER_SEED};
use sli_simnet::SimDuration;
use sli_trade::seed::Population;
use sli_trade::session::SessionGenerator;
use sli_workload::{fit, TextTable};

struct CapacityPoint {
    label: String,
    hit_ratio: f64,
    evictions: u64,
    sensitivity: f64,
}

/// Warm-up and measured sessions per capacity × delay point.
const SESSIONS: usize = 100;

fn run_capacity(capacity: Option<usize>, population: Population) -> CapacityPoint {
    let mut points = Vec::new();
    let mut hit_ratio = 0.0;
    let mut evictions = 0;
    for delay_ms in [0u64, 40, 80] {
        let testbed = Testbed::build(
            Architecture::EsRbes,
            TestbedConfig {
                population,
                cache_capacity: capacity,
                ..TestbedConfig::default()
            },
        );
        testbed.set_delay(SimDuration::from_millis(delay_ms));
        let mut generator = SessionGenerator::new(PAPER_SEED, population);
        let mut client = VirtualClient::new(&testbed, 0);
        for _ in 0..SESSIONS {
            client.run_session(&generator.session());
        }
        let store = testbed.edges[0].store.as_ref().expect("cached");
        store.reset_stats();
        let mut latencies = Vec::new();
        for _ in 0..SESSIONS {
            for o in client.run_session(&generator.session()) {
                latencies.push(o.latency.as_millis_f64());
            }
        }
        points.push((
            delay_ms as f64,
            latencies.iter().sum::<f64>() / latencies.len() as f64,
        ));
        hit_ratio = store.stats().hit_ratio();
        evictions = store.stats().evictions;
    }
    CapacityPoint {
        label: capacity.map_or("unbounded (paper)".to_owned(), |c| c.to_string()),
        hit_ratio,
        evictions,
        sensitivity: fit(&points).expect("three delays").slope,
    }
}

fn main() {
    Cli::new(
        "ablation_cache",
        "Ablation: ES/RBES latency sensitivity vs bounded common-store capacity",
    )
    .parse();
    let population = Population::default();
    println!("Ablation: ES/RBES latency sensitivity vs common-store capacity");
    println!(
        "(LRU-bounded store; working set = {} users x 4 beans + {} quotes)\n",
        population.users, population.quotes
    );
    let mut table = TextTable::new(&[
        "capacity (images)",
        "hit ratio",
        "evictions",
        "sensitivity (slope)",
    ]);
    for capacity in [None, Some(400), Some(200), Some(100), Some(50), Some(10)] {
        let p = run_capacity(capacity, population);
        table.row(vec![
            p.label,
            format!("{:.1}%", p.hit_ratio * 100.0),
            p.evictions.to_string(),
            format!("{:.2}", p.sensitivity),
        ]);
    }
    println!("{}", table.render());
    println!(
        "Expected shape: with capacity above the working set the bounded store matches\n\
         the paper's unbounded configuration; as capacity shrinks, evictions turn warm\n\
         hits back into back-end fetch round trips and the sensitivity climbs toward\n\
         the uncached ES/RDB regime."
    );
}
