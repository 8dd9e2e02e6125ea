//! Deterministic schedule exploration for multi-client simulations.
//!
//! The testbed is single-threaded: "concurrency" is an interleaving of
//! atomic steps (a bean read, a commit round trip, an invalidation
//! delivery), and because everything runs on virtual time the interleaving
//! is the *only* source of nondeterminism. A [`Scheduler`] removes even
//! that: at every point where more than one logical actor has a ready step,
//! the harness asks the scheduler which one fires next.
//!
//! Three modes cover the checking workflows:
//!
//! * **seeded random walk** ([`Scheduler::random`]) — choices drawn from a
//!   splitmix64 stream over `(seed, step counter)`, the same generator
//!   [`FaultPlan`](crate::FaultPlan) uses, so a seed reproduces a schedule
//!   byte-for-byte on any machine;
//! * **replay** ([`Scheduler::replay`]) — follows a recorded choice list,
//!   then completes *sequentially* (always picking ready index 0). A
//!   failing schedule truncated to a prefix therefore still runs to
//!   completion deterministically, which is what prefix-bisection
//!   shrinking needs;
//! * **bounded-exhaustive** ([`ExhaustiveExplorer`]) — an odometer over the
//!   schedule tree that enumerates every interleaving up to a depth bound,
//!   discovering each step's branching factor from the previous run.
//!
//! Every choice taken is recorded together with the size of the ready set
//! it chose from ([`ScheduleStep`]), so a run's schedule can be replayed,
//! truncated, or advanced by the explorer.

/// One recorded scheduling decision: which of `arity` ready steps fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ScheduleStep {
    /// The index picked from the ready set (`0 <= choice < arity`).
    pub choice: u32,
    /// How many steps were ready when the choice was made.
    pub arity: u32,
}

/// How the next choice is produced.
#[derive(Debug, Clone)]
enum Mode {
    /// Seeded splitmix64 stream.
    Random { seed: u64 },
    /// Scripted prefix, then sequential (index 0) completion.
    Replay { script: Vec<u32> },
}

/// A deterministic source of scheduling decisions (see the module docs).
#[derive(Debug, Clone)]
pub struct Scheduler {
    mode: Mode,
    /// Steps decided so far; doubles as the replay cursor.
    taken: Vec<ScheduleStep>,
}

/// splitmix64 over `(seed, n)` — the one counter-based generator behind
/// schedules, [`FaultPlan::draw`](crate::FaultPlan::draw), path jitter and
/// `slicheck`'s client programs, so every seeded stream reproduces
/// identically everywhere.
pub fn splitmix(seed: u64, n: u64) -> u64 {
    let mut z = seed.wrapping_add(n.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    z
}

impl Scheduler {
    /// A seeded random walk: same seed → same choice sequence.
    pub fn random(seed: u64) -> Scheduler {
        Scheduler {
            mode: Mode::Random { seed },
            taken: Vec::new(),
        }
    }

    /// Replays `script` choice by choice, then completes sequentially
    /// (always picking index 0). Scripted choices are clamped to the ready
    /// set, so a prefix of a recorded schedule remains valid even where
    /// truncation changed the downstream branching factors.
    pub fn replay(script: Vec<u32>) -> Scheduler {
        Scheduler {
            mode: Mode::Replay { script },
            taken: Vec::new(),
        }
    }

    /// Picks which of `ready` steps fires next (`ready >= 1`), recording
    /// the decision.
    ///
    /// # Panics
    /// If `ready == 0` — an empty ready set means the simulation is done
    /// and the harness must not ask.
    pub fn pick(&mut self, ready: u32) -> u32 {
        assert!(ready > 0, "pick() from an empty ready set");
        let n = self.taken.len() as u64;
        let choice = match &self.mode {
            Mode::Random { seed } => (splitmix(*seed, n) % u64::from(ready)) as u32,
            Mode::Replay { script } => script
                .get(self.taken.len())
                .copied()
                .map_or(0, |c| c.min(ready - 1)),
        };
        self.taken.push(ScheduleStep {
            choice,
            arity: ready,
        });
        choice
    }

    /// Every decision taken so far, in order.
    pub fn taken(&self) -> &[ScheduleStep] {
        &self.taken
    }

    /// Just the choices, as a replayable script.
    pub fn choices(&self) -> Vec<u32> {
        self.taken.iter().map(|s| s.choice).collect()
    }
}

/// Depth-bounded exhaustive enumeration of schedules.
///
/// Works like an odometer whose per-digit radix is discovered as it drives:
/// run the harness with [`ExhaustiveExplorer::script`], then feed the
/// observed [`ScheduleStep`]s back into [`ExhaustiveExplorer::advance`] to
/// obtain the next unexplored schedule. Beyond `depth` decisions every run
/// completes sequentially (the replay fallback), so the tree being
/// enumerated is finite even though runs are longer than `depth`.
#[derive(Debug, Clone)]
pub struct ExhaustiveExplorer {
    script: Vec<u32>,
    depth: usize,
    done: bool,
    runs: u64,
}

impl ExhaustiveExplorer {
    /// Starts exploration with the all-sequential schedule, branching on
    /// the first `depth` decisions of each run.
    pub fn new(depth: usize) -> ExhaustiveExplorer {
        ExhaustiveExplorer {
            script: Vec::new(),
            depth,
            done: false,
            runs: 0,
        }
    }

    /// The next schedule to run, or `None` when the bounded tree is
    /// exhausted.
    pub fn script(&self) -> Option<Vec<u32>> {
        if self.done {
            None
        } else {
            Some(self.script.clone())
        }
    }

    /// Number of schedules handed out so far.
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// Advances to the next unexplored schedule, given the decisions the
    /// just-finished run actually took (its first `depth` steps define the
    /// frontier; later steps were sequential filler).
    pub fn advance(&mut self, observed: &[ScheduleStep]) {
        self.runs += 1;
        let horizon = observed.len().min(self.depth);
        // Find the last decision within the horizon that can be bumped.
        for i in (0..horizon).rev() {
            if observed[i].choice + 1 < observed[i].arity {
                self.script = observed[..i].iter().map(|s| s.choice).collect();
                self.script.push(observed[i].choice + 1);
                return;
            }
        }
        self.done = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_walk_is_deterministic_per_seed() {
        let mut a = Scheduler::random(7);
        let mut b = Scheduler::random(7);
        let arities = [3u32, 1, 4, 2, 5, 3, 3, 2];
        for &n in &arities {
            assert_eq!(a.pick(n), b.pick(n));
        }
        assert_eq!(a.taken(), b.taken());
        let mut c = Scheduler::random(8);
        let differs = arities.iter().any(|&n| {
            let mut probe = Scheduler::random(7);
            for &m in &arities {
                probe.pick(m);
            }
            c.pick(n) != probe.taken()[c.taken().len() - 1].choice
        });
        assert!(differs, "different seeds should diverge somewhere");
    }

    #[test]
    fn choices_are_always_in_range() {
        let mut s = Scheduler::random(42);
        for n in 1..=64u32 {
            assert!(s.pick(n) < n);
        }
    }

    #[test]
    fn replay_follows_script_then_goes_sequential() {
        let mut original = Scheduler::random(3);
        for n in [4u32, 4, 4, 4] {
            original.pick(n);
        }
        let script = original.choices();
        let mut replayed = Scheduler::replay(script.clone());
        for (i, n) in [4u32, 4, 4, 4].iter().enumerate() {
            assert_eq!(replayed.pick(*n), script[i]);
        }
        // Past the script the replay completes sequentially.
        assert_eq!(replayed.pick(5), 0);
        assert_eq!(replayed.pick(2), 0);
    }

    #[test]
    fn replay_clamps_to_shrunken_ready_sets() {
        let mut s = Scheduler::replay(vec![9, 1]);
        assert_eq!(s.pick(3), 2, "out-of-range choice clamps to last index");
        assert_eq!(s.pick(2), 1);
    }

    #[test]
    #[should_panic(expected = "empty ready set")]
    fn picking_from_empty_ready_set_panics() {
        Scheduler::random(0).pick(0);
    }

    /// A synthetic harness with a fixed branching factor per step.
    fn run_tree(script: Vec<u32>, steps: usize, arity: u32) -> Vec<ScheduleStep> {
        let mut s = Scheduler::replay(script);
        for _ in 0..steps {
            s.pick(arity);
        }
        s.taken().to_vec()
    }

    #[test]
    fn explorer_enumerates_the_whole_bounded_tree() {
        // 3 decisions of arity 2 under depth 3 → exactly 8 schedules.
        let mut explorer = ExhaustiveExplorer::new(3);
        let mut seen = Vec::new();
        while let Some(script) = explorer.script() {
            let taken = run_tree(script, 3, 2);
            seen.push(taken.iter().map(|s| s.choice).collect::<Vec<_>>());
            explorer.advance(&taken);
        }
        assert_eq!(explorer.runs(), 8);
        let mut expected = Vec::new();
        for a in 0..2u32 {
            for b in 0..2u32 {
                for c in 0..2u32 {
                    expected.push(vec![a, b, c]);
                }
            }
        }
        seen.sort();
        expected.sort();
        assert_eq!(seen, expected);
    }

    #[test]
    fn explorer_depth_bound_caps_the_tree() {
        // Runs take 4 decisions of arity 3, but only the first 2 branch.
        let mut explorer = ExhaustiveExplorer::new(2);
        let mut runs = 0;
        while let Some(script) = explorer.script() {
            let taken = run_tree(script, 4, 3);
            // Beyond the depth bound the replay fallback picked 0.
            assert_eq!(taken[2].choice, 0);
            assert_eq!(taken[3].choice, 0);
            explorer.advance(&taken);
            runs += 1;
        }
        assert_eq!(runs, 9, "3 × 3 bounded tree");
    }
}
