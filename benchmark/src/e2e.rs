//! End-to-end metrics from a workload's rounds.

use crate::run::{Measured, Round};
use crate::stats::{mean, median, quantile, ratio};

/// One reported number and the per-round values behind it (`compare` takes
/// its quartiles from those).
#[derive(Debug, Clone, PartialEq)]
pub struct Sampled {
    pub name: &'static str,
    pub value: f64,
    pub samples: Vec<f64>,
}

impl Sampled {
    /// A metric reported as the median of its per-round values.
    fn median_of(name: &'static str, samples: Vec<f64>) -> Sampled {
        Sampled {
            name,
            value: median(&samples),
            samples,
        }
    }

    /// An exact metric: one value for the whole run.
    fn exact(name: &'static str, value: f64) -> Sampled {
        Sampled {
            name,
            value,
            samples: vec![value],
        }
    }
}

/// Both legs of a round (a closed loop has one).
fn legs(round: &Round) -> impl Iterator<Item = &Measured> {
    std::iter::once(&round.measured).chain(round.overload.as_ref().map(|o| &o.measured))
}

fn sum(rounds: &[Round], f: impl Fn(&Measured) -> u64) -> f64 {
    rounds.iter().flat_map(legs).map(f).sum::<u64>() as f64
}

/// Wall time of every request of `rounds` at the reference speed,
/// microseconds.
pub fn wall_us(rounds: &[Round]) -> Vec<f64> {
    rounds
        .iter()
        .flat_map(legs)
        .flat_map(|m| m.calibrated_ns().map(|ns| ns / 1e3))
        .collect()
}

/// Requests per wall second of one round, as timed (`raw`) or at the
/// reference speed.
fn round_ips(round: &Round, raw: bool) -> f64 {
    ratio(
        legs(round).map(|m| m.interactions()).sum::<u64>() as f64,
        legs(round)
            .map(|m| if raw { m.raw_wall_s() } else { m.wall_s() })
            .sum(),
    )
}

/// What the calibration did, per round: kept in the result file beside the
/// metrics so the raw timings stay readable.
pub fn diagnostics(rounds: &[Round]) -> Vec<Sampled> {
    let per_round = |f: &dyn Fn(&Round) -> f64| rounds.iter().map(f).collect::<Vec<f64>>();
    vec![
        Sampled::median_of(
            "speed_factor",
            per_round(&|r| ratio(r.measured.raw_wall_s(), r.measured.wall_s())),
        ),
        Sampled::median_of("raw_wall_ips", per_round(&|r| round_ips(r, true))),
        Sampled::median_of(
            "raw_setup_s",
            per_round(&|r| legs(r).map(|m| m.setup_s).sum()),
        ),
        Sampled::median_of("raw_recover_ms", per_round(&|r| r.recovery.wall_ms)),
    ]
}

/// The twelve end-to-end metrics. Wall-clock metrics use every round, each
/// at the reference speed its calibration read; exact metrics use the first
/// `exact_rounds`, which always run, so their digits depend on the seed
/// alone.
pub fn end_to_end(rounds: &[Round], exact_rounds: usize) -> Vec<Sampled> {
    let exact = &rounds[..exact_rounds.min(rounds.len())];
    let per_round = |f: &dyn Fn(&Round) -> f64| rounds.iter().map(f).collect::<Vec<f64>>();
    let round_wall_quantile =
        |q: f64| per_round(&|r| quantile(&wall_us(std::slice::from_ref(r)), q));
    let pooled_wall = wall_us(rounds);

    // Exact sums. Latency, traffic and the log are the closed loop's, or the
    // loaded workload's leg below the knee; allocations cover both legs.
    let interactions = exact.iter().map(|r| r.measured.interactions()).sum::<u64>() as f64;
    let virt_ms: Vec<f64> = exact
        .iter()
        .flat_map(|r| r.measured.virt_us.iter().map(|&us| us as f64 / 1e3))
        .collect();
    let count = |f: &dyn Fn(&Round) -> u64| exact.iter().map(f).sum::<u64>() as f64;
    // Throughput in virtual time: the one client's rate in a closed loop,
    // the achieved rate of the overload leg in the open loop.
    let (tps_interactions, tps_virt_us) =
        exact
            .iter()
            .fold((0u64, 0u64), |(n, us), r| match &r.overload {
                Some(o) => (n + o.measured.interactions(), us + o.makespan_us),
                None => (n + r.measured.interactions(), us + r.counts.virt_elapsed_us),
            });

    vec![
        Sampled::median_of("wall_ips", per_round(&|r| round_ips(r, false))),
        Sampled {
            name: "wall_p50_us",
            value: median(&pooled_wall),
            samples: round_wall_quantile(0.5),
        },
        Sampled {
            name: "wall_p95_us",
            value: quantile(&pooled_wall, 0.95),
            samples: round_wall_quantile(0.95),
        },
        Sampled::exact(
            "allocs_per_interaction",
            ratio(sum(exact, |m| m.allocs), sum(exact, |m| m.interactions())),
        ),
        Sampled::exact(
            "peak_live_kib",
            exact
                .iter()
                .flat_map(legs)
                .map(|m| m.peak_live_bytes)
                .max()
                .unwrap_or(0) as f64
                / 1024.0,
        ),
        Sampled::exact("virt_latency_ms", mean(&virt_ms)),
        Sampled::exact(
            "virt_round_trips",
            ratio(count(&|r| r.counts.round_trips), interactions),
        ),
        Sampled::exact(
            "virt_shared_bytes",
            ratio(count(&|r| r.counts.shared_bytes), interactions),
        ),
        Sampled::exact(
            "virt_tps",
            ratio(tps_interactions as f64, tps_virt_us as f64 / 1e6),
        ),
        Sampled::median_of(
            "recover_ms",
            per_round(&|r| r.recovery.wall_ms / r.recovery.speed),
        ),
        Sampled::exact(
            "wal_bytes_per_interaction",
            ratio(count(&|r| r.counts.wal_bytes), interactions),
        ),
        Sampled::median_of(
            "setup_s",
            per_round(&|r| legs(r).map(|m| m.setup_s / m.first_speed()).sum()),
        ),
    ]
}

/// Requests attempted and failed over all rounds and legs.
pub fn attempts(rounds: &[Round]) -> (u64, u64) {
    (
        sum(rounds, |m| m.interactions()) as u64,
        sum(rounds, |m| m.failed) as u64,
    )
}

/// Every queue wait of the overload legs, for the layer metrics.
pub fn queue_waits_ms(rounds: &[Round]) -> Vec<f64> {
    rounds
        .iter()
        .filter_map(|r| r.overload.as_ref())
        .flat_map(|o| o.queue_wait_us.iter().map(|&us| us as f64 / 1e3))
        .collect()
}

/// Every failed output check, naming its round and seed.
pub fn problems(rounds: &[Round]) -> Vec<String> {
    rounds
        .iter()
        .enumerate()
        .flat_map(|(r, round)| {
            round
                .problems
                .iter()
                .map(move |p| format!("round {r} seed {}: {p}", round.seed))
        })
        .collect()
}
