//! Open-loop arrival generation.
//!
//! The paper's load generator is *closed-loop*: one virtual client issues a
//! request, waits for the response, thinks, and repeats, so the offered load
//! can never exceed the server's completion rate and the saturation knee is
//! invisible. An *open-loop* generator decouples arrivals from completions:
//! sessions arrive on a schedule drawn from an [`ArrivalProcess`] whether or
//! not earlier sessions have finished, which is how a population of
//! independent users actually behaves and what makes throughput–latency
//! knees measurable.
//!
//! Determinism contract: an [`ArrivalPlan`] is a pure function of
//! `(seed, rps, process)`. Gaps are sampled by inverse-CDF from a counter
//! -based splitmix64 stream — the same generator `FaultPlan` and
//! `Scheduler` use — and the exponential quantile uses a self-contained
//! logarithm built only from IEEE add/mul/div (no `libm` call), so the same
//! plan reproduces the same schedule byte-for-byte on every platform.

/// splitmix64 over `(seed, n)` — the counter-based generator shared with
/// `FaultPlan::draw` and `Scheduler`, duplicated here because this crate is
/// dependency-free by design.
fn splitmix(seed: u64, n: u64) -> u64 {
    let mut z = seed.wrapping_add(n.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    z
}

/// Deterministic uniform draw in `(0, 1]`: the top 53 bits of the stream,
/// shifted into the mantissa range, never exactly zero so `ln` is safe.
fn unit(seed: u64, n: u64) -> f64 {
    let z = splitmix(seed, n) >> 11;
    (z + 1) as f64 / (1u64 << 53) as f64
}

/// Natural logarithm from IEEE primitives only.
///
/// `f64::ln` is a libm call whose last ulp may differ across platforms; a
/// one-ulp difference in a gap, accumulated over thousands of arrivals,
/// breaks the byte-identical-schedule promise. This version decomposes
/// `x = m·2^e` by bit surgery and sums the atanh series for `ln m`
/// (`m ∈ [1, 2)`, so the series argument is ≤ 1/3 and eleven terms give
/// ~1e-12 relative error) using only exactly-rounded `+ - * /`.
fn det_ln(x: f64) -> f64 {
    debug_assert!(x > 0.0 && x.is_finite(), "det_ln domain: 0 < x < inf");
    let bits = x.to_bits();
    let e = ((bits >> 52) & 0x7ff) as i64 - 1023;
    let m = f64::from_bits((bits & 0x000f_ffff_ffff_ffff) | 0x3ff0_0000_0000_0000);
    let t = (m - 1.0) / (m + 1.0);
    let t2 = t * t;
    // ln m = 2·(t + t³/3 + t⁵/5 + …), Horner over t².
    let mut series = 1.0 / 21.0;
    for k in (0..10).rev() {
        series = series * t2 + 1.0 / (2 * k + 1) as f64;
    }
    2.0 * t * series + e as f64 * std::f64::consts::LN_2
}

/// An exponential sample with the given mean: `-mean · ln(U)`.
fn exp_gap(seed: u64, n: u64, mean: f64) -> f64 {
    -mean * det_ln(unit(seed, n))
}

/// The stochastic shape of an arrival schedule (its long-run rate and seed
/// live in the [`ArrivalPlan`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Memoryless arrivals: iid exponential inter-arrival gaps. The
    /// canonical model of a large population of independent users.
    Poisson,
    /// A quiet baseline with one step-change surge: base rate until
    /// `at_us`, `peak` times the base rate for `dur_us` of virtual time,
    /// then base rate again. Models the "millions of users show up at
    /// once" event an edge tier exists to absorb.
    FlashCrowd {
        /// When the surge starts (µs of virtual time from the first
        /// arrival).
        at_us: u64,
        /// How long the surge lasts (µs).
        dur_us: u64,
        /// Rate multiplier during the surge (> 1).
        peak: f64,
    },
}

/// A deterministic open-loop arrival schedule: seeded like `FaultPlan`,
/// rated in sessions per second of *virtual* time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrivalPlan {
    /// Seed of the splitmix64 gap stream.
    pub seed: u64,
    /// Long-run arrival rate, sessions per second of virtual time.
    pub rps: f64,
    /// Shape of the schedule around that rate.
    pub process: ArrivalProcess,
}

impl ArrivalPlan {
    /// A Poisson plan at `rps` sessions/second.
    pub fn poisson(seed: u64, rps: f64) -> ArrivalPlan {
        ArrivalPlan {
            seed,
            rps,
            process: ArrivalProcess::Poisson,
        }
    }

    /// The first `n` arrival instants, in microseconds of virtual time from
    /// the schedule's start, nondecreasing.
    ///
    /// # Panics
    /// If `rps` is not strictly positive and finite.
    pub fn times_us(&self, n: usize) -> Vec<u64> {
        assert!(
            self.rps > 0.0 && self.rps.is_finite(),
            "ArrivalPlan.rps must be positive and finite, got {}",
            self.rps
        );
        let base_gap = 1_000_000.0 / self.rps;
        let mut out = Vec::with_capacity(n);
        let mut t = 0.0f64;
        for i in 0..n {
            let mean = match self.process {
                ArrivalProcess::Poisson => base_gap,
                ArrivalProcess::FlashCrowd {
                    at_us,
                    dur_us,
                    peak,
                } => {
                    let in_surge = t >= at_us as f64 && t < (at_us + dur_us) as f64;
                    let k = if peak > 1.0 { peak } else { 1.0 };
                    if in_surge {
                        base_gap / k
                    } else {
                        base_gap
                    }
                }
            };
            t += exp_gap(self.seed, i as u64, mean);
            out.push(t as u64);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn det_ln_matches_libm_closely() {
        for i in 1..=10_000u64 {
            let x = i as f64 / 10_000.0;
            let got = det_ln(x);
            let want = x.ln();
            assert!(
                (got - want).abs() <= 1e-9 * want.abs().max(1.0),
                "ln({x}): got {got}, want {want}"
            );
        }
        assert_eq!(det_ln(1.0), 0.0);
    }

    #[test]
    fn same_seed_same_schedule_byte_for_byte() {
        for process in [
            ArrivalProcess::Poisson,
            ArrivalProcess::FlashCrowd {
                at_us: 1_000_000,
                dur_us: 500_000,
                peak: 5.0,
            },
        ] {
            let plan = ArrivalPlan {
                seed: 20040101,
                rps: 250.0,
                process,
            };
            let a = plan.times_us(2_000);
            let b = plan.times_us(2_000);
            assert_eq!(a, b, "{process:?}");
            let mut other = plan;
            other.seed ^= 1;
            assert_ne!(a, other.times_us(2_000), "{process:?}");
        }
    }

    #[test]
    fn poisson_schedule_is_pinned() {
        // Regression pin: this exact schedule is part of the reproducibility
        // contract. If it moves, seeds recorded in reports and perfguard
        // baselines no longer mean what they did.
        let plan = ArrivalPlan::poisson(42, 1_000.0);
        assert_eq!(
            plan.times_us(8),
            [425, 724, 2557, 3835, 4901, 8171, 8312, 9833]
        );
    }

    #[test]
    fn schedules_are_nondecreasing() {
        let plan = ArrivalPlan {
            seed: 7,
            rps: 10_000.0,
            process: ArrivalProcess::FlashCrowd {
                at_us: 100_000,
                dur_us: 100_000,
                peak: 10.0,
            },
        };
        let times = plan.times_us(5_000);
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn poisson_empirical_rate_within_ci() {
        // 20 000 gaps at 500 rps: mean gap 2 000 µs, stdev 2 000 µs, so the
        // 99% CI half-width on the mean gap is 2.58·2000/√20000 ≈ 36.5 µs.
        let n = 20_000usize;
        let plan = ArrivalPlan::poisson(99, 500.0);
        let times = plan.times_us(n);
        let mean_gap = *times.last().unwrap() as f64 / n as f64;
        assert!(
            (mean_gap - 2_000.0).abs() < 40.0,
            "empirical mean gap {mean_gap} µs outside CI around 2000 µs"
        );
    }

    #[test]
    fn flash_crowd_surges_then_recovers() {
        let plan = ArrivalPlan {
            seed: 11,
            rps: 100.0,
            process: ArrivalProcess::FlashCrowd {
                at_us: 2_000_000,
                dur_us: 2_000_000,
                peak: 8.0,
            },
        };
        let times = plan.times_us(4_000);
        let count_in = |lo: u64, hi: u64| times.iter().filter(|&&t| t >= lo && t < hi).count();
        let before = count_in(0, 2_000_000);
        let during = count_in(2_000_000, 4_000_000);
        assert!(
            during > before * 4,
            "surge window held {during} arrivals vs {before} before"
        );
        // ~100/s before the surge, ~800/s during: both windows are 2 s.
        assert!((150..=250).contains(&before), "baseline count {before}");
    }

    #[test]
    #[should_panic(expected = "rps must be positive")]
    fn zero_rate_panics() {
        ArrivalPlan::poisson(1, 0.0).times_us(1);
    }
}
