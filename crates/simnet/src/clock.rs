//! Virtual time: a monotonically advancing microsecond counter.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::sync::atomic::{AtomicU64, Ordering};

use sli_telemetry::Resource;

/// A point in simulated time, measured in microseconds since the start of the
/// simulation.
///
/// `SimTime` is produced by [`Clock::now`] and is totally ordered, so latency
/// measurements are simple subtractions:
///
/// ```
/// use sli_simnet::{Clock, SimDuration};
/// let clock = Clock::new();
/// let start = clock.now();
/// clock.delay(SimDuration::from_millis(3));
/// assert_eq!((clock.now() - start).as_millis_f64(), 3.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The beginning of simulated time.
    pub const ZERO: SimTime = SimTime(0);

    /// Microseconds since the start of the simulation.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// This instant expressed in (fractional) milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl Sub for SimTime {
    type Output = SimDuration;

    /// Elapsed time between two instants.
    ///
    /// The left operand must not precede the right: a negative elapsed time
    /// means the caller mixed up an interval's endpoints (exactly the bug
    /// class concurrent interleaving produces when a "start" timestamp is
    /// captured after a context switch). Debug builds panic on such a time
    /// warp; release builds saturate to zero as before. Code that cannot
    /// statically guarantee ordering — the load engine's queue-wait
    /// accounting, for instance — should use [`SimTime::checked_since`]
    /// and handle the error.
    fn sub(self, rhs: SimTime) -> SimDuration {
        debug_assert!(
            self.0 >= rhs.0,
            "time warp: computing {self} - {rhs} would yield a negative elapsed time"
        );
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

/// A negative elapsed-time computation: the supposed end of an interval
/// precedes its start. Returned by [`SimTime::checked_since`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimeWarp {
    /// The instant that was supposed to be later.
    pub end: SimTime,
    /// The instant that was supposed to be earlier.
    pub start: SimTime,
}

impl fmt::Display for TimeWarp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "time warp: interval ends at {} but starts at {}",
            self.end, self.start
        )
    }
}

impl std::error::Error for TimeWarp {}

impl SimTime {
    /// Checked elapsed time since `earlier`: `Err(TimeWarp)` if `earlier`
    /// is actually later than `self` instead of silently clamping to zero.
    pub fn checked_since(self, earlier: SimTime) -> Result<SimDuration, TimeWarp> {
        match self.0.checked_sub(earlier.0) {
            Some(us) => Ok(SimDuration(us)),
            None => Err(TimeWarp {
                end: self,
                start: earlier,
            }),
        }
    }
}

/// A span of simulated time, measured in microseconds.
///
/// All network and processing costs in the simulation are expressed as
/// `SimDuration`s and charged to a [`Clock`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// A zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Builds a duration from whole microseconds.
    pub const fn from_micros(us: u64) -> SimDuration {
        SimDuration(us)
    }

    /// Builds a duration from whole milliseconds.
    ///
    /// # Panics
    /// If `ms * 1_000` overflows `u64` — open-loop sweeps pass large
    /// durations, and a silent wrap would turn an hours-long run budget
    /// into microseconds.
    pub fn from_millis(ms: u64) -> SimDuration {
        match ms.checked_mul(1_000) {
            Some(us) => SimDuration(us),
            None => panic!("SimDuration::from_millis({ms}) overflows the u64 microsecond range"),
        }
    }

    /// Builds a duration from whole seconds.
    ///
    /// # Panics
    /// If `secs * 1_000_000` overflows `u64`.
    pub fn from_secs(secs: u64) -> SimDuration {
        match secs.checked_mul(1_000_000) {
            Some(us) => SimDuration(us),
            None => panic!("SimDuration::from_secs({secs}) overflows the u64 microsecond range"),
        }
    }

    /// The duration in whole microseconds.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// The duration in (fractional) milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Saturating multiplication by an integer factor.
    pub fn saturating_mul(self, factor: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(factor))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

impl Add for SimDuration {
    type Output = SimDuration;

    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;

    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

/// The fixed-point unit of the what-if cost scale: a resource at
/// `COST_SCALE_UNIT` parts per million charges its nominal costs, one at
/// half of it half of them. Integers keep scaled runs exactly deterministic.
const COST_SCALE_UNIT: u64 = 1_000_000;

/// Applies a parts-per-million cost scale to `us` microseconds, rounding
/// to nearest so small charges do not vanish under mild speedups.
fn scale_cost_us(us: u64, ppm: u64) -> u64 {
    ((us as u128 * ppm as u128 + (COST_SCALE_UNIT as u128 / 2)) / COST_SCALE_UNIT as u128) as u64
}

/// The simulation's virtual clock.
///
/// Every node in a topology shares one `Clock` (via `Arc`). Crossing a
/// [`Path`](crate::Path) or performing simulated work advances it; nothing
/// ever sleeps, so a full latency sweep that would take hours of wall-clock
/// time on the paper's testbed completes in milliseconds here, with *exactly*
/// reproducible timings.
///
/// The clock also holds the what-if speed of each [`Resource`]. Time moves
/// only as [`Clock::charge`], work on a resource, scaled by its speed and
/// counted as its busy time, or as [`Clock::delay`] /
/// [`Clock::delay_until`], time that occupies no resource.
#[derive(Debug)]
pub struct Clock {
    micros: AtomicU64,
    /// Cost scale per resource, in parts per million of nominal, at
    /// `resource as usize`. `StoreLock`'s stays nominal.
    scale_ppm: [AtomicU64; Resource::ALL.len()],
    /// Microseconds charged to each resource, at `resource as usize`.
    busy_us: [AtomicU64; Resource::ALL.len()],
}

impl Default for Clock {
    fn default() -> Clock {
        Clock::new()
    }
}

impl Clock {
    /// Creates a clock positioned at [`SimTime::ZERO`], every resource at
    /// nominal speed and idle.
    pub fn new() -> Clock {
        Clock {
            micros: AtomicU64::new(0),
            scale_ppm: std::array::from_fn(|_| AtomicU64::new(COST_SCALE_UNIT)),
            busy_us: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// The current simulated instant.
    pub fn now(&self) -> SimTime {
        SimTime(self.micros.load(Ordering::Relaxed))
    }

    fn advance(&self, d: SimDuration) {
        self.micros.fetch_add(d.0, Ordering::Relaxed);
    }

    /// Advances simulated time by `d` of work on `resource`, scaled by that
    /// resource's what-if speed, adds it to the resource's busy time and
    /// returns what it charged.
    pub fn charge(&self, resource: Resource, d: SimDuration) -> SimDuration {
        let charged = self.scaled(resource, d);
        self.busy_us[resource as usize].fetch_add(charged.0, Ordering::Relaxed);
        self.advance(charged);
        charged
    }

    /// Advances simulated time by `d` that occupies no resource: a wait
    /// such as jitter, a retry's back-off or a lost message's time-out.
    pub fn delay(&self, d: SimDuration) {
        self.advance(d);
    }

    /// Advances simulated time to instant `t` if `t` is in the future; a
    /// no-op otherwise.
    ///
    /// This is the load engine's idle transition: when no session has a
    /// ready step, the clock jumps straight to the next arrival or
    /// think-time expiry instead of spinning. Dispatching work whose due
    /// time has already passed (it queued behind earlier work) must *not*
    /// rewind the clock, hence the monotone no-op rather than an error.
    pub fn delay_until(&self, t: SimTime) {
        self.micros.fetch_max(t.0, Ordering::Relaxed);
    }

    /// Microseconds charged to `resource` since the clock was created.
    pub fn busy(&self, resource: Resource) -> SimDuration {
        SimDuration(self.busy_us[resource as usize].load(Ordering::Relaxed))
    }

    /// What [`Clock::charge`] would charge for `d` on `resource`, without
    /// advancing: the cost of work that does not hold up the caller.
    pub(crate) fn scaled(&self, resource: Resource, d: SimDuration) -> SimDuration {
        let ppm = self.scale_ppm[resource as usize].load(Ordering::Relaxed);
        SimDuration(scale_cost_us(d.0, ppm))
    }

    /// Virtually speeds `resource` up by factor `f`: every later charge to
    /// it costs `1/f` of nominal (`f = 1.0` restores nominal).
    ///
    /// # Panics
    /// If `f` is not positive (a free or negative cost would break the
    /// causality the clock depends on), or if `resource` is
    /// [`Resource::StoreLock`]: its only charges are the split-servers
    /// back-end's own CPU, a machine the what-if engine keeps at nominal
    /// speed.
    pub fn set_speedup(&self, resource: Resource, f: f64) {
        assert!(f > 0.0, "speedup factor must be positive");
        assert!(
            resource != Resource::StoreLock,
            "store/lock wait has no speed knob"
        );
        let ppm = ((COST_SCALE_UNIT as f64 / f).round() as u64).max(1);
        self.scale_ppm[resource as usize].store(ppm, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_starts_at_zero() {
        let c = Clock::new();
        assert_eq!(c.now(), SimTime::ZERO);
    }

    #[test]
    fn delay_accumulates() {
        let c = Clock::new();
        c.delay(SimDuration::from_millis(5));
        c.delay(SimDuration::from_micros(250));
        assert_eq!(c.now().as_micros(), 5_250);
    }

    #[test]
    fn time_subtraction_yields_duration() {
        let c = Clock::new();
        let t0 = c.now();
        c.delay(SimDuration::from_micros(42));
        assert_eq!((c.now() - t0).as_micros(), 42);
    }

    #[test]
    fn duration_arithmetic() {
        let a = SimDuration::from_millis(2);
        let b = SimDuration::from_micros(500);
        assert_eq!((a + b).as_micros(), 2_500);
        assert_eq!((a - b).as_micros(), 1_500);
        assert_eq!(b - a, SimDuration::ZERO, "duration subtraction saturates");
        assert_eq!(a.saturating_mul(3).as_millis_f64(), 6.0);
    }

    #[test]
    fn display_formats_millis() {
        assert_eq!(SimDuration::from_micros(1_500).to_string(), "1.500ms");
        assert_eq!(
            (SimTime::ZERO + SimDuration::from_millis(20)).to_string(),
            "20.000ms"
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "time warp")]
    fn reversed_time_subtraction_panics_in_debug() {
        let early = SimTime::ZERO;
        let late = SimTime::ZERO + SimDuration::from_millis(1);
        let _ = early - late;
    }

    #[test]
    fn checked_since_flags_reversed_intervals() {
        let early = SimTime::ZERO + SimDuration::from_millis(1);
        let late = SimTime::ZERO + SimDuration::from_millis(3);
        assert_eq!(late.checked_since(early), Ok(SimDuration::from_millis(2)));
        assert_eq!(late.checked_since(late), Ok(SimDuration::ZERO));
        let err = early.checked_since(late).unwrap_err();
        assert_eq!(err.end, early);
        assert_eq!(err.start, late);
        assert!(err.to_string().contains("time warp"));
    }

    #[test]
    fn from_secs_counts_microseconds() {
        assert_eq!(SimDuration::from_secs(2).as_micros(), 2_000_000);
        assert_eq!(SimDuration::from_secs(0), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "from_millis")]
    fn from_millis_overflow_panics_loudly() {
        let _ = SimDuration::from_millis(u64::MAX / 999);
    }

    #[test]
    #[should_panic(expected = "from_secs")]
    fn from_secs_overflow_panics_loudly() {
        let _ = SimDuration::from_secs(u64::MAX / 999_999);
    }

    #[test]
    fn delay_until_is_monotone() {
        let c = Clock::new();
        c.delay_until(SimTime::ZERO + SimDuration::from_millis(5));
        assert_eq!(c.now().as_micros(), 5_000);
        // Dispatching overdue work must not rewind the clock.
        c.delay_until(SimTime::ZERO + SimDuration::from_millis(2));
        assert_eq!(c.now().as_micros(), 5_000);
    }

    #[test]
    fn delays_leave_every_busy_counter_untouched() {
        let c = Clock::new();
        c.delay(SimDuration::from_millis(3));
        c.delay_until(SimTime::ZERO + SimDuration::from_millis(7));
        assert_eq!(c.now().as_micros(), 7_000);
        for r in Resource::ALL {
            assert_eq!(c.busy(r), SimDuration::ZERO, "{r:?}");
        }
    }

    #[test]
    fn a_charge_adds_what_it_returns_to_its_resource_only() {
        let c = Clock::new();
        let us = SimDuration::from_micros;
        c.set_speedup(Resource::BackendDb, 4.0);
        let fast = c.charge(Resource::BackendDb, us(1_002));
        assert_eq!(fast, us(251), "250.5 rounds up");
        let nominal = c.charge(Resource::StoreLock, us(300));
        c.charge(Resource::StoreLock, us(40));
        assert_eq!(c.busy(Resource::BackendDb), fast);
        assert_eq!(c.busy(Resource::StoreLock), nominal + us(40));
        assert_eq!(c.busy(Resource::EdgeCpu), SimDuration::ZERO);
        assert_eq!(c.busy(Resource::Wire), SimDuration::ZERO);
        assert_eq!(c.now().as_micros(), 251 + 340);
    }

    #[test]
    fn charges_scale_per_resource_and_round_to_nearest() {
        let c = Clock::new();
        let us = SimDuration::from_micros;
        // Nominal speed is the identity.
        for r in Resource::ALL {
            assert_eq!(c.scaled(r, us(7)), us(7));
        }
        c.set_speedup(Resource::Wire, 2.0);
        assert_eq!(c.scaled(Resource::Wire, us(3)), us(2), "1.5 rounds up");
        assert_eq!(c.charge(Resource::Wire, us(4_000)), us(2_000));
        assert_eq!(c.now().as_micros(), 2_000);
        assert_eq!(c.scaled(Resource::Wire, us(4_000)), us(2_000));
        assert_eq!(c.now().as_micros(), 2_000, "scaled does not advance");
        c.set_speedup(Resource::Wire, 4.0);
        assert_eq!(c.scaled(Resource::Wire, us(1)), us(0), "0.25 rounds down");
        // A scale on one resource leaves the others' charges alone.
        for r in [Resource::EdgeCpu, Resource::BackendDb, Resource::StoreLock] {
            assert_eq!(c.charge(r, us(3)), us(3), "{r:?}");
        }
        c.set_speedup(Resource::Wire, 1.0);
        assert_eq!(c.scaled(Resource::Wire, us(3)), us(3));
    }

    #[test]
    #[should_panic(expected = "speedup factor must be positive")]
    fn a_zero_speedup_is_refused() {
        Clock::new().set_speedup(Resource::BackendDb, 0.0);
    }

    #[test]
    #[should_panic(expected = "store/lock wait has no speed knob")]
    fn the_store_lock_has_no_speed_knob() {
        Clock::new().set_speedup(Resource::StoreLock, 2.0);
    }
}
