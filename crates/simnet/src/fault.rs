//! Deterministic fault injection for communication paths.
//!
//! The paper's wide-area path is not just slow — it loses, delays and
//! duplicates messages, and remote tiers go away transiently. This module
//! models those failures *reproducibly*: a [`FaultPlan`] draws faults from a
//! seeded counter-based stream (same seed → same fault schedule on every
//! run), and a scripted queue lets tests dictate the exact fault for each
//! upcoming delivery.
//!
//! Faults are decided per *delivery attempt* by
//! [`Path::next_fault`](crate::Path::next_fault) and acted on by
//! [`Remote`](crate::Remote), which turns them into timeouts, duplicate
//! service invocations, or fast unavailability errors.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use crate::sched::splitmix;

/// Which machine a scripted process-death fault kills. Unlike the
/// transient [`Fault`]s below, a crash takes a whole endpoint down at an
/// exact virtual-time point: its volatile state is gone (the datastore
/// replays its WAL, edge caches restart cold) and every in-flight RPC on
/// the paths leading to it fails as an outage until restart.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CrashKind {
    /// The shared back-end database machine dies mid-commit.
    Backend,
    /// An edge server dies; its local cache restarts cold.
    Edge,
}

impl CrashKind {
    /// Stable label for diagnostics and artifacts.
    pub fn label(self) -> &'static str {
        match self {
            CrashKind::Backend => "backend",
            CrashKind::Edge => "edge",
        }
    }
}

/// One injected transport/service failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fault {
    /// The request message is lost in transit: the service never runs and
    /// the caller waits out its timeout.
    DropRequest,
    /// The request is delivered and the service runs (side effects happen!)
    /// but the response is lost: the caller waits out its timeout. This is
    /// the classic idempotence hazard.
    DropResponse,
    /// The request is delivered twice; the service runs twice on identical
    /// bytes and one response returns.
    Duplicate,
    /// The remote end refuses service quickly (transient unavailability):
    /// the caller gets an immediate failure rather than a timeout.
    Unavailable,
}

/// A seeded, per-path probability plan for injected faults.
///
/// Rates are in per-mille (0–1000) of delivery attempts, drawn from a
/// splitmix64 stream over `(seed, attempt counter)` so a given seed always
/// produces the same fault schedule. The zero plan (default) injects
/// nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Seed of the fault stream.
    pub seed: u64,
    /// Per-mille of attempts whose request is dropped.
    pub drop_request_per_mille: u16,
    /// Per-mille of attempts whose response is dropped.
    pub drop_response_per_mille: u16,
    /// Per-mille of attempts delivered twice.
    pub duplicate_per_mille: u16,
    /// Per-mille of attempts refused as transiently unavailable.
    pub unavailable_per_mille: u16,
}

impl FaultPlan {
    /// The fault-free plan.
    pub const NONE: FaultPlan = FaultPlan {
        seed: 0,
        drop_request_per_mille: 0,
        drop_response_per_mille: 0,
        duplicate_per_mille: 0,
        unavailable_per_mille: 0,
    };

    /// A "hostile WAN" preset: `per_mille` of attempts fail, spread evenly
    /// across the four fault kinds.
    pub fn lossy(seed: u64, per_mille: u16) -> FaultPlan {
        let share = per_mille / 4;
        FaultPlan {
            seed,
            drop_request_per_mille: share,
            drop_response_per_mille: share,
            duplicate_per_mille: share,
            unavailable_per_mille: per_mille - 3 * share,
        }
    }

    /// Whether this plan can ever inject a fault.
    pub fn is_clean(&self) -> bool {
        self.drop_request_per_mille == 0
            && self.drop_response_per_mille == 0
            && self.duplicate_per_mille == 0
            && self.unavailable_per_mille == 0
    }

    /// The fault (if any) for delivery attempt number `n`.
    pub fn draw(&self, n: u64) -> Option<Fault> {
        if self.is_clean() {
            return None;
        }
        let roll = (splitmix(self.seed, n) % 1000) as u16;
        let mut threshold = self.drop_request_per_mille;
        if roll < threshold {
            return Some(Fault::DropRequest);
        }
        threshold += self.drop_response_per_mille;
        if roll < threshold {
            return Some(Fault::DropResponse);
        }
        threshold += self.duplicate_per_mille;
        if roll < threshold {
            return Some(Fault::Duplicate);
        }
        threshold += self.unavailable_per_mille;
        if roll < threshold {
            return Some(Fault::Unavailable);
        }
        None
    }

    /// The first delivery attempt (0-based) this plan faults, scanning at
    /// most `limit` attempts. This is the *schedule-level* ground truth a
    /// time-to-detect measurement starts from: the plan is pure, so the
    /// answer depends only on `(seed, rates)` — dialling the plan onto a
    /// path at time t has no effect until the attempt stream reaches this
    /// index, which the path's fault state timestamps as the first actual
    /// injection.
    pub fn first_effect_attempt(&self, limit: u64) -> Option<u64> {
        (0..limit).find(|&n| self.draw(n).is_some())
    }
}

/// Counters of faults actually injected on a path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Requests dropped in transit.
    pub dropped_requests: u64,
    /// Responses dropped in transit.
    pub dropped_responses: u64,
    /// Requests delivered twice.
    pub duplicates: u64,
    /// Attempts refused as unavailable.
    pub unavailable: u64,
}

impl FaultStats {
    /// Total faults injected.
    pub fn total(&self) -> u64 {
        self.dropped_requests + self.dropped_responses + self.duplicates + self.unavailable
    }
}

/// Per-path fault state: the dialled plan, a scripted override queue, the
/// attempt counter feeding the seeded stream, and injection counters.
#[derive(Debug)]
pub(crate) struct FaultState {
    plan: Mutex<FaultPlan>,
    script: Mutex<VecDeque<Option<Fault>>>,
    /// While set, the endpoint this path leads to is crashed: every
    /// delivery attempt fails as [`Fault::Unavailable`] without consuming
    /// the script or the seeded attempt stream, so a crash window does not
    /// perturb the fault schedule that resumes after restart.
    down: AtomicBool,
    attempts: AtomicU64,
    /// Virtual timestamp (µs) of the first fault actually injected since
    /// the last reset — the ground truth a time-to-detect measurement is
    /// anchored to. `u64::MAX` = none yet.
    first_injected_us: AtomicU64,
    dropped_requests: AtomicU64,
    dropped_responses: AtomicU64,
    duplicates: AtomicU64,
    unavailable: AtomicU64,
}

impl Default for FaultState {
    fn default() -> FaultState {
        FaultState {
            plan: Mutex::new(FaultPlan::default()),
            script: Mutex::new(VecDeque::new()),
            down: AtomicBool::new(false),
            attempts: AtomicU64::new(0),
            first_injected_us: AtomicU64::new(u64::MAX),
            dropped_requests: AtomicU64::new(0),
            dropped_responses: AtomicU64::new(0),
            duplicates: AtomicU64::new(0),
            unavailable: AtomicU64::new(0),
        }
    }
}

impl FaultState {
    pub(crate) fn new(plan: FaultPlan) -> FaultState {
        FaultState {
            plan: Mutex::new(plan),
            ..FaultState::default()
        }
    }

    pub(crate) fn set_plan(&self, plan: FaultPlan) {
        *self.plan.lock().unwrap_or_else(|e| e.into_inner()) = plan;
    }

    pub(crate) fn plan(&self) -> FaultPlan {
        *self.plan.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Queues explicit outcomes for the next delivery attempts; `None`
    /// entries mean "no fault". Scripted entries are consumed before the
    /// probabilistic plan is consulted.
    pub(crate) fn push_script(&self, faults: impl IntoIterator<Item = Option<Fault>>) {
        self.script
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .extend(faults);
    }

    /// Marks the endpoint behind this path crashed (or restarted).
    pub(crate) fn set_down(&self, down: bool) {
        self.down.store(down, Ordering::Relaxed);
    }

    pub(crate) fn is_down(&self) -> bool {
        self.down.load(Ordering::Relaxed)
    }

    /// Decides the fault for the next delivery attempt, which happens at
    /// virtual time `now_us` (used to timestamp the first injection).
    pub(crate) fn next(&self, now_us: u64) -> Option<Fault> {
        if self.is_down() {
            // Crashed endpoint: outage on every attempt. Counted as an
            // injected unavailability so TTD anchoring and fault stats see
            // the outage, but the script/attempt stream is untouched.
            self.unavailable.fetch_add(1, Ordering::Relaxed);
            self.first_injected_us.fetch_min(now_us, Ordering::Relaxed);
            return Some(Fault::Unavailable);
        }
        let scripted = self
            .script
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop_front();
        let fault = match scripted {
            Some(f) => f,
            None => {
                let n = self.attempts.fetch_add(1, Ordering::Relaxed);
                self.plan().draw(n)
            }
        };
        match fault {
            Some(Fault::DropRequest) => {
                self.dropped_requests.fetch_add(1, Ordering::Relaxed);
            }
            Some(Fault::DropResponse) => {
                self.dropped_responses.fetch_add(1, Ordering::Relaxed);
            }
            Some(Fault::Duplicate) => {
                self.duplicates.fetch_add(1, Ordering::Relaxed);
            }
            Some(Fault::Unavailable) => {
                self.unavailable.fetch_add(1, Ordering::Relaxed);
            }
            None => {}
        }
        if fault.is_some() {
            self.first_injected_us.fetch_min(now_us, Ordering::Relaxed);
        }
        fault
    }

    /// Virtual timestamp of the first fault injected since the last reset.
    pub(crate) fn first_injected_us(&self) -> Option<u64> {
        match self.first_injected_us.load(Ordering::Relaxed) {
            u64::MAX => None,
            t => Some(t),
        }
    }

    pub(crate) fn stats(&self) -> FaultStats {
        FaultStats {
            dropped_requests: self.dropped_requests.load(Ordering::Relaxed),
            dropped_responses: self.dropped_responses.load(Ordering::Relaxed),
            duplicates: self.duplicates.load(Ordering::Relaxed),
            unavailable: self.unavailable.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn reset(&self) {
        self.script
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clear();
        self.attempts.store(0, Ordering::Relaxed);
        self.first_injected_us.store(u64::MAX, Ordering::Relaxed);
        self.dropped_requests.store(0, Ordering::Relaxed);
        self.dropped_responses.store(0, Ordering::Relaxed);
        self.duplicates.store(0, Ordering::Relaxed);
        self.unavailable.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_plan_never_faults() {
        let plan = FaultPlan::default();
        assert!(plan.is_clean());
        assert!((0..10_000).all(|n| plan.draw(n).is_none()));
    }

    #[test]
    fn draw_is_deterministic_per_seed() {
        let plan = FaultPlan::lossy(42, 200);
        let a: Vec<_> = (0..256).map(|n| plan.draw(n)).collect();
        let b: Vec<_> = (0..256).map(|n| plan.draw(n)).collect();
        assert_eq!(a, b);
        let other = FaultPlan::lossy(43, 200);
        let c: Vec<_> = (0..256).map(|n| other.draw(n)).collect();
        assert_ne!(a, c, "different seed → different schedule");
        assert!(a.iter().any(|f| f.is_some()), "20% plan injects something");
        assert!(a.iter().any(|f| f.is_none()), "20% plan is not all faults");
    }

    #[test]
    fn rates_are_roughly_honoured() {
        let plan = FaultPlan {
            seed: 7,
            drop_response_per_mille: 500,
            ..FaultPlan::default()
        };
        let hits = (0..2_000)
            .filter(|&n| plan.draw(n) == Some(Fault::DropResponse))
            .count();
        assert!((800..1_200).contains(&hits), "got {hits}/2000");
    }

    #[test]
    fn script_takes_priority_then_plan_resumes() {
        let state = FaultState::new(FaultPlan::default());
        state.push_script([Some(Fault::DropResponse), None, Some(Fault::Unavailable)]);
        assert_eq!(state.next(10), Some(Fault::DropResponse));
        assert_eq!(state.next(20), None);
        assert_eq!(state.next(30), Some(Fault::Unavailable));
        assert_eq!(state.next(40), None, "empty script falls back to the plan");
        let stats = state.stats();
        assert_eq!(stats.dropped_responses, 1);
        assert_eq!(stats.unavailable, 1);
        assert_eq!(stats.total(), 2);
    }

    #[test]
    fn reset_clears_script_and_counters() {
        let state = FaultState::new(FaultPlan::default());
        state.push_script([Some(Fault::Duplicate)]);
        assert_eq!(state.next(5), Some(Fault::Duplicate));
        state.push_script([Some(Fault::Duplicate)]);
        state.reset();
        assert_eq!(state.next(6), None);
        assert_eq!(state.stats(), FaultStats::default());
    }

    #[test]
    fn first_effect_attempt_is_pinned_per_seed() {
        // The schedule-level ground truth is a pure function of the plan;
        // pin the exact attempt indices for known seeds so any change to
        // the stream or threshold cascade is caught loudly.
        let heavy = FaultPlan {
            seed: 20040101,
            unavailable_per_mille: 1000,
            ..FaultPlan::default()
        };
        assert_eq!(
            heavy.first_effect_attempt(16),
            Some(0),
            "1000‰ faults attempt 0"
        );
        let light = FaultPlan {
            seed: 20040101,
            drop_request_per_mille: 50,
            ..FaultPlan::default()
        };
        let first = light.first_effect_attempt(10_000).expect("5% must hit");
        assert_eq!(first, 16);
        assert_eq!(light.draw(first), Some(Fault::DropRequest));
        assert!((0..first).all(|n| light.draw(n).is_none()));
        assert_eq!(FaultPlan::NONE.first_effect_attempt(10_000), None);
    }

    #[test]
    fn first_injection_is_timestamped_and_reset() {
        let plan = FaultPlan {
            seed: 20040101,
            drop_request_per_mille: 50,
            ..FaultPlan::default()
        };
        let state = FaultState::new(plan);
        let first = plan.first_effect_attempt(10_000).unwrap();
        assert_eq!(state.first_injected_us(), None);
        for n in 0..=first {
            state.next(1_000 * (n + 1));
        }
        // The timestamp is the clock value passed on the faulting attempt,
        // not the attempt index — exactly what TTD subtracts.
        assert_eq!(state.first_injected_us(), Some(1_000 * (first + 1)));
        // Later faults do not move it.
        for n in first + 1..first + 500 {
            state.next(1_000 * (n + 1));
        }
        assert_eq!(state.first_injected_us(), Some(1_000 * (first + 1)));
        state.reset();
        assert_eq!(state.first_injected_us(), None);
        // Scripted faults are ground truth too.
        state.push_script([None, Some(Fault::Unavailable)]);
        state.next(7);
        state.next(9);
        assert_eq!(state.first_injected_us(), Some(9));
    }

    #[test]
    fn down_path_faults_every_attempt_without_consuming_schedule() {
        let state = FaultState::new(FaultPlan::default());
        state.push_script([Some(Fault::Duplicate)]);
        state.set_down(true);
        assert!(state.is_down());
        // Outages on every attempt while down, timestamped as injections.
        assert_eq!(state.next(100), Some(Fault::Unavailable));
        assert_eq!(state.next(200), Some(Fault::Unavailable));
        assert_eq!(state.first_injected_us(), Some(100));
        assert_eq!(state.stats().unavailable, 2);
        // Restart: the scripted entry queued before the crash is intact.
        state.set_down(false);
        assert_eq!(state.next(300), Some(Fault::Duplicate));
        // reset() clears counters and scripts but NOT the down flag — a
        // crashed machine stays crashed until explicitly restarted.
        state.set_down(true);
        state.reset();
        assert!(state.is_down());
        assert_eq!(state.next(400), Some(Fault::Unavailable));
    }

    #[test]
    fn crash_kind_labels_are_stable() {
        assert_eq!(CrashKind::Backend.label(), "backend");
        assert_eq!(CrashKind::Edge.label(), "edge");
    }

    #[test]
    fn lossy_preset_sums_to_rate() {
        let plan = FaultPlan::lossy(1, 102);
        let sum = plan.drop_request_per_mille
            + plan.drop_response_per_mille
            + plan.duplicate_per_mille
            + plan.unavailable_per_mille;
        assert_eq!(sum, 102);
    }
}
