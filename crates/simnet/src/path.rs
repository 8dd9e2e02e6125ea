//! Communication paths with latency, bandwidth, proxy delay and traffic
//! accounting.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sli_telemetry::{Counter, Gauge, Histogram, Registry, Resource};

use crate::clock::{Clock, SimDuration};
use crate::fault::{Fault, FaultPlan, FaultState, FaultStats};

/// Static characteristics of a communication path.
///
/// The paper's testbed has two kinds of path: the 100 Mbit LAN joining the
/// four machines, and the same LAN with the *delay proxy* interposed on one
/// hop. [`PathSpec::lan`] models the former; the injected delay is set
/// separately with [`Path::set_proxy_delay`] because the evaluation sweeps it
/// while everything else stays fixed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathSpec {
    /// One-way propagation latency of the raw link (before any proxy delay).
    pub base_latency: SimDuration,
    /// Usable link bandwidth in bytes per second; transferring `n` bytes
    /// costs `n / bandwidth` seconds on top of the latency.
    pub bandwidth_bytes_per_sec: u64,
}

impl PathSpec {
    /// A 100 Mbit Ethernet LAN hop: ~0.2 ms one-way latency, 12.5 MB/s.
    ///
    /// These are the characteristics of the paper's testbed network.
    pub fn lan() -> PathSpec {
        PathSpec {
            base_latency: SimDuration::from_micros(200),
            bandwidth_bytes_per_sec: 12_500_000,
        }
    }

    /// A same-host (loopback) hop used for the combined-servers
    /// configuration where two tiers share a machine: negligible latency,
    /// memory-speed bandwidth.
    pub fn local() -> PathSpec {
        PathSpec {
            base_latency: SimDuration::from_micros(20),
            bandwidth_bytes_per_sec: 1_000_000_000,
        }
    }
}

impl Default for PathSpec {
    fn default() -> PathSpec {
        PathSpec::lan()
    }
}

/// A snapshot of a path's traffic counters.
///
/// `bytes_to_server` / `bytes_from_server` distinguish the request and
/// response directions; Figure 8 reports their sum per client interaction on
/// the shared (high-latency) path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PathStats {
    /// Bytes sent in the request direction.
    pub bytes_to_server: u64,
    /// Bytes sent in the response direction.
    pub bytes_from_server: u64,
    /// Number of request messages sent.
    pub requests: u64,
    /// Number of response messages received.
    pub responses: u64,
}

impl PathStats {
    /// Total bytes crossing the path in either direction.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_to_server + self.bytes_from_server
    }

    /// Number of completed round trips (bounded by the request count).
    pub fn round_trips(&self) -> u64 {
        self.requests.min(self.responses)
    }
}

/// Telemetry handles for one [`Path`]: traffic counters, a crossing-cost
/// histogram, and the RPC outcome counters that [`Remote`](crate::Remote)
/// records when it retries over this path.
///
/// The path keeps these handles in its hot fields; a coordinator (the
/// testbed) attaches the *same* handles to its
/// [`Registry`] via [`PathMetrics::register_with`],
/// so the fast path never takes a registry lock.
#[derive(Debug, Clone, Default)]
pub struct PathMetrics {
    /// Bytes sent in the request direction.
    pub bytes_to_server: Counter,
    /// Bytes sent in the response direction.
    pub bytes_from_server: Counter,
    /// Request messages sent (including async/fire-and-forget sends).
    pub requests: Counter,
    /// Response messages received.
    pub responses: Counter,
    /// Per-crossing cost in simulated microseconds (latency, proxy delay
    /// and transfer), for timed and async crossings alike.
    pub crossing_us: Histogram,
    /// RPC round trips started over this path.
    pub rpc_calls: Counter,
    /// RPC delivery attempts beyond each call's first (resends).
    pub rpc_retries: Counter,
    /// RPC attempts that waited out their timeout.
    pub rpc_timeouts: Counter,
    /// RPC attempts refused by an unavailable remote end.
    pub rpc_unavailable: Counter,
    /// Total simulated time spent in retry backoff, microseconds.
    pub rpc_backoff_us: Counter,
    /// Synchronous round trips currently crossing the path (raised by
    /// [`Path::request`], lowered by [`Path::respond`]). Async sends are
    /// excluded: invalidation fan-out never gets a response, so counting it
    /// would make the gauge climb without bound.
    pub in_flight: Gauge,
}

impl PathMetrics {
    /// Attaches every handle to `registry` under `prefix` (dotted names,
    /// e.g. `simnet.path.client-0.requests`).
    pub fn register_with(&self, registry: &Registry, prefix: &str) {
        registry.attach_counter(format!("{prefix}.bytes_to_server"), &self.bytes_to_server);
        registry.attach_counter(
            format!("{prefix}.bytes_from_server"),
            &self.bytes_from_server,
        );
        registry.attach_counter(format!("{prefix}.requests"), &self.requests);
        registry.attach_counter(format!("{prefix}.responses"), &self.responses);
        registry.attach_histogram(format!("{prefix}.crossing_us"), &self.crossing_us);
        registry.attach_counter(format!("{prefix}.rpc_calls"), &self.rpc_calls);
        registry.attach_counter(format!("{prefix}.rpc_retries"), &self.rpc_retries);
        registry.attach_counter(format!("{prefix}.rpc_timeouts"), &self.rpc_timeouts);
        registry.attach_counter(format!("{prefix}.rpc_unavailable"), &self.rpc_unavailable);
        registry.attach_counter(format!("{prefix}.rpc_backoff_us"), &self.rpc_backoff_us);
        registry.attach_gauge(format!("{prefix}.in_flight"), &self.in_flight);
    }

    /// Zeroes every counter and the crossing histogram. The `in_flight`
    /// gauge is a level, not a rate: it keeps mirroring the round trips
    /// actually open (as [`Registry::reset_all`] leaves it).
    pub fn reset(&self) {
        self.bytes_to_server.reset();
        self.bytes_from_server.reset();
        self.requests.reset();
        self.responses.reset();
        self.crossing_us.reset();
        self.rpc_calls.reset();
        self.rpc_retries.reset();
        self.rpc_timeouts.reset();
        self.rpc_unavailable.reset();
        self.rpc_backoff_us.reset();
    }
}

/// A bidirectional communication path between two simulated nodes.
///
/// Crossing the path advances the shared [`Clock`] by
/// `proxy_delay + base_latency + message_bytes / bandwidth` — precisely what
/// the paper's delay proxy does to every intercepted message ("reads the
/// incoming data, interposes a specified amount of delay, and only then
/// writes the incoming data to the original destination").
///
/// Counters are atomic so a path may be shared freely between nodes.
#[derive(Debug)]
pub struct Path {
    name: String,
    clock: Arc<Clock>,
    base_latency_us: u64,
    /// Bytes per second, at least 1 so a crossing's division cannot fail.
    bandwidth: u64,
    proxy_delay_us: AtomicU64,
    metrics: PathMetrics,
    faults: FaultState,
}

impl Path {
    /// Creates a path named `name` over `clock` with the given spec and no
    /// injected proxy delay.
    pub fn new(name: impl Into<String>, clock: Arc<Clock>, spec: PathSpec) -> Arc<Path> {
        Arc::new(Path {
            name: name.into(),
            clock,
            base_latency_us: spec.base_latency.as_micros(),
            bandwidth: spec.bandwidth_bytes_per_sec.max(1),
            proxy_delay_us: AtomicU64::new(0),
            metrics: PathMetrics::default(),
            faults: FaultState::new(FaultPlan::NONE),
        })
    }

    /// The diagnostic name given at construction.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The clock this path charges crossings to.
    pub fn clock(&self) -> &Arc<Clock> {
        &self.clock
    }

    /// Sets the one-way delay injected by the delay proxy on this path.
    ///
    /// This is the sweep variable of Figures 6 and 7 ("one-way delay
    /// introduced in path").
    pub fn set_proxy_delay(&self, delay: SimDuration) {
        self.proxy_delay_us
            .store(delay.as_micros(), Ordering::Relaxed);
    }

    /// The currently injected one-way proxy delay.
    pub fn proxy_delay(&self) -> SimDuration {
        SimDuration::from_micros(self.proxy_delay_us.load(Ordering::Relaxed))
    }

    /// Latency, proxy delay and serialisation of an `n`-byte message one
    /// way across this path, at nominal speed.
    fn nominal_cost(&self, n: usize) -> SimDuration {
        let latency = self.base_latency_us + self.proxy_delay_us.load(Ordering::Relaxed);
        let transfer_us = (n as u64).saturating_mul(1_000_000) / self.bandwidth;
        SimDuration::from_micros(latency + transfer_us)
    }

    /// The cost of moving an `n`-byte message one way across this path:
    /// latency, proxy delay and serialisation, scaled by the clock's
    /// [`Resource::Wire`] speed.
    pub fn one_way_cost(&self, n: usize) -> SimDuration {
        self.clock.scaled(Resource::Wire, self.nominal_cost(n))
    }

    /// Charges one measured crossing of `n` bytes to the clock and records
    /// it.
    fn cross(&self, n: usize) {
        let cost = self.clock.charge(Resource::Wire, self.nominal_cost(n));
        self.metrics.crossing_us.record(cost.as_micros());
    }

    /// Sends an `n`-byte message in the request direction, advancing the
    /// clock and recording the traffic.
    pub fn request(&self, n: usize) {
        self.cross(n);
        self.metrics.bytes_to_server.add(n as u64);
        self.metrics.requests.inc();
        self.metrics.in_flight.add(1);
    }

    /// Sends an `n`-byte message in the response direction, advancing the
    /// clock and recording the traffic.
    pub fn respond(&self, n: usize) {
        self.cross(n);
        self.metrics.bytes_from_server.add(n as u64);
        self.metrics.responses.inc();
        self.metrics.in_flight.sub(1);
    }

    /// Sends a fire-and-forget message in the request direction *without*
    /// advancing the caller's clock (used for asynchronous invalidation
    /// fan-out, which is off the measured request path).
    ///
    /// The crossing still experiences the link: its delivery cost is
    /// recorded in the crossing histogram, but never charged to the
    /// sender's clock.
    pub fn request_async(&self, n: usize) {
        let cost = self.one_way_cost(n);
        self.metrics.crossing_us.record(cost.as_micros());
        self.metrics.bytes_to_server.add(n as u64);
        self.metrics.requests.inc();
    }

    /// The telemetry handles for this path (traffic, crossing cost, RPC
    /// outcomes). Attach them to a registry with
    /// [`PathMetrics::register_with`].
    pub fn metrics(&self) -> &PathMetrics {
        &self.metrics
    }

    /// A snapshot of the traffic counters.
    pub fn stats(&self) -> PathStats {
        PathStats {
            bytes_to_server: self.metrics.bytes_to_server.get(),
            bytes_from_server: self.metrics.bytes_from_server.get(),
            requests: self.metrics.requests.get(),
            responses: self.metrics.responses.get(),
        }
    }

    /// Zeroes the traffic counters, crossing histogram and RPC outcome
    /// counters (see [`PathMetrics::reset`]).
    pub fn reset_stats(&self) {
        self.metrics.reset();
    }

    /// Dials the seeded probabilistic fault plan for this path.
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        self.faults.set_plan(plan);
    }

    /// The currently dialled fault plan.
    pub fn fault_plan(&self) -> FaultPlan {
        self.faults.plan()
    }

    /// Queues explicit fault outcomes for the next delivery attempts
    /// (`None` = deliver cleanly). Scripted entries are consumed before the
    /// probabilistic plan, so tests can dictate exact schedules.
    pub fn script_faults(&self, faults: impl IntoIterator<Item = Option<Fault>>) {
        self.faults.push_script(faults);
    }

    /// Decides (and consumes) the fault for the next delivery attempt.
    ///
    /// Transports such as [`Remote`](crate::Remote) call this once per
    /// attempt and act on the result; it is public so alternative transports
    /// can share the same fault schedule. The attempt is stamped with the
    /// path clock's current virtual time so the first actual injection is
    /// recorded as ground truth for time-to-detect measurements.
    pub fn next_fault(&self) -> Option<Fault> {
        self.faults.next(self.clock.now().as_micros())
    }

    /// Counters of faults injected so far.
    pub fn fault_stats(&self) -> FaultStats {
        self.faults.stats()
    }

    /// Virtual timestamp (µs) of the first fault actually injected on this
    /// path since the last [`reset_faults`](Path::reset_faults) — the
    /// ground-truth instant a detector's time-to-detect is measured from.
    /// `None` until something is injected.
    pub fn first_fault_at_us(&self) -> Option<u64> {
        self.faults.first_injected_us()
    }

    /// Clears the scripted queue, the fault-stream position and the fault
    /// counters (the dialled plan itself is kept). The crash flag
    /// ([`set_down`](Path::set_down)) is *not* cleared — a crashed machine
    /// stays crashed until explicitly restarted.
    pub fn reset_faults(&self) {
        self.faults.reset();
    }

    /// Marks the endpoint behind this path crashed (`true`) or restarted
    /// (`false`). While down, every delivery attempt fails as
    /// [`Fault::Unavailable`] — in-flight RPCs surface as outages and retry
    /// through the caller's backoff policy — without consuming the scripted
    /// queue or the seeded fault stream.
    pub fn set_down(&self, down: bool) {
        self.faults.set_down(down);
    }

    /// Whether the endpoint behind this path is currently crashed.
    pub fn is_down(&self) -> bool {
        self.faults.is_down()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_path(spec: PathSpec) -> (Arc<Clock>, Arc<Path>) {
        let clock = Arc::new(Clock::new());
        let path = Path::new("t", Arc::clone(&clock), spec);
        (clock, path)
    }

    #[test]
    fn crossing_charges_latency_and_transfer() {
        let (clock, path) = test_path(PathSpec {
            base_latency: SimDuration::from_millis(1),
            bandwidth_bytes_per_sec: 1_000_000,
        });
        path.request(1_000); // 1ms latency + 1ms transfer
        assert_eq!(clock.now().as_micros(), 2_000);
    }

    #[test]
    fn proxy_delay_is_added_per_crossing() {
        let (clock, path) = test_path(PathSpec {
            base_latency: SimDuration::ZERO,
            bandwidth_bytes_per_sec: 1_000_000_000,
        });
        path.set_proxy_delay(SimDuration::from_millis(40));
        path.request(10);
        path.respond(10);
        assert_eq!(clock.now().as_micros(), 80_000);
    }

    #[test]
    fn wire_speedup_scales_every_crossing_component() {
        let (clock, path) = test_path(PathSpec {
            base_latency: SimDuration::from_millis(1),
            bandwidth_bytes_per_sec: 1_000_000,
        });
        path.set_proxy_delay(SimDuration::from_millis(2));
        // Nominal: 1ms latency + 2ms proxy + 1ms transfer = 4ms.
        assert_eq!(path.one_way_cost(1_000).as_micros(), 4_000);
        // A 2× virtual speedup halves latency, proxy delay and transfer.
        clock.set_speedup(Resource::Wire, 2.0);
        assert_eq!(path.one_way_cost(1_000).as_micros(), 2_000);
        path.request(1_000);
        assert_eq!(clock.now().as_micros(), 2_000);
    }

    #[test]
    fn an_async_crossing_scales_as_a_measured_one_does() {
        // Invalidation fan-out is charged to nobody, so it reads the wire
        // scale through `one_way_cost` rather than through a charge.
        let (clock, path) = test_path(PathSpec {
            base_latency: SimDuration::from_micros(333),
            bandwidth_bytes_per_sec: 1_000_000,
        });
        clock.set_speedup(Resource::Wire, 4.0);
        path.request(1_000);
        let charged = clock.now().as_micros();
        assert_eq!(charged, 333, "(333 + 1 000) / 4 rounds to nearest");
        assert_eq!(path.one_way_cost(1_000).as_micros(), charged);
        path.request_async(1_000);
        assert_eq!(clock.now().as_micros(), charged, "async charges nobody");
        let crossings = &path.metrics().crossing_us;
        assert_eq!(crossings.count(), 2);
        assert_eq!(crossings.sum(), 2 * charged, "both crossings scaled alike");
    }

    #[test]
    fn stats_track_directions_separately() {
        let (_clock, path) = test_path(PathSpec::lan());
        path.request(100);
        path.respond(5_000);
        path.request(50);
        let s = path.stats();
        assert_eq!(s.bytes_to_server, 150);
        assert_eq!(s.bytes_from_server, 5_000);
        assert_eq!(s.requests, 2);
        assert_eq!(s.responses, 1);
        assert_eq!(s.round_trips(), 1);
        assert_eq!(s.total_bytes(), 5_150);
    }

    #[test]
    fn reset_stats_zeroes_counters_and_keeps_the_in_flight_level() {
        let (_clock, path) = test_path(PathSpec::lan());
        path.request(100);
        path.reset_stats();
        assert_eq!(path.stats(), PathStats::default());
        // The round trip opened before the reset is still open after it.
        assert_eq!(path.metrics().in_flight.get(), 1);
        path.respond(100);
        assert_eq!(path.metrics().in_flight.get(), 0);
    }

    #[test]
    fn async_send_counts_bytes_but_not_time() {
        let (clock, path) = test_path(PathSpec::lan());
        let before = clock.now();
        path.request_async(256);
        assert_eq!(clock.now(), before);
        assert_eq!(path.stats().bytes_to_server, 256);
    }

    #[test]
    fn a_crossing_charges_exactly_latency_and_transfer() {
        let (clock, path) = test_path(PathSpec {
            base_latency: SimDuration::from_millis(1),
            bandwidth_bytes_per_sec: 1_000_000,
        });
        for _ in 0..20 {
            let t0 = clock.now();
            path.request(100);
            assert_eq!((clock.now() - t0).as_micros(), 1_100);
        }
        path.request_async(100);
        let crossings = &path.metrics().crossing_us;
        assert_eq!(crossings.count(), 21);
        assert_eq!(crossings.sum(), 21 * 1_100, "async crossings cost the same");
    }

    #[test]
    fn one_way_cost_scales_with_size() {
        let (_c, path) = test_path(PathSpec {
            base_latency: SimDuration::from_micros(100),
            bandwidth_bytes_per_sec: 1_000_000,
        });
        assert_eq!(path.one_way_cost(0).as_micros(), 100);
        assert_eq!(path.one_way_cost(1_000).as_micros(), 1_100);
    }

    #[test]
    fn zero_bandwidth_saturates_instead_of_panicking() {
        // Regression: `one_way_cost` divides by the bandwidth; a
        // zero-bandwidth spec must clamp at construction, not divide by 0.
        let (clock, path) = test_path(PathSpec {
            base_latency: SimDuration::from_micros(100),
            bandwidth_bytes_per_sec: 0,
        });
        // 1 byte/s: the transfer term dominates but stays finite.
        assert_eq!(path.one_way_cost(3).as_micros(), 100 + 3_000_000);
        path.request(2); // must not panic
        assert_eq!(clock.now().as_micros(), 100 + 2_000_000);
    }

    #[test]
    fn in_flight_tracks_open_round_trips_sync_only() {
        let (_clock, path) = test_path(PathSpec::lan());
        let g = &path.metrics().in_flight;
        path.request(10);
        assert_eq!(g.get(), 1);
        path.request_async(10); // fire-and-forget: never in flight
        assert_eq!(g.get(), 1);
        path.respond(10);
        assert_eq!(g.get(), 0);
        path.respond(10); // unmatched response must saturate, not wrap
        assert_eq!(g.get(), 0);
    }

    #[test]
    fn metrics_expose_crossing_histogram_and_reset() {
        let (_clock, path) = test_path(PathSpec {
            base_latency: SimDuration::from_millis(1),
            bandwidth_bytes_per_sec: 1_000_000_000,
        });
        path.request(10);
        path.respond(10);
        path.request_async(10);
        let m = path.metrics();
        assert_eq!(m.crossing_us.count(), 3, "async crossings are observed");
        assert_eq!(m.requests.get(), 2);
        assert_eq!(m.responses.get(), 1);
        let registry = sli_telemetry::Registry::new();
        m.register_with(&registry, "simnet.path.t");
        assert!(registry
            .names()
            .contains(&"simnet.path.t.crossing_us".to_owned()));
        path.reset_stats();
        assert_eq!(m.crossing_us.count(), 0);
        assert_eq!(path.stats(), PathStats::default());
    }

    #[test]
    fn fault_schedule_is_reproducible_and_scriptable() {
        let draw = || {
            let (_c, path) = test_path(PathSpec::lan());
            path.set_fault_plan(FaultPlan::lossy(9, 300));
            (0..64).map(|_| path.next_fault()).collect::<Vec<_>>()
        };
        assert_eq!(draw(), draw(), "same plan → same fault schedule");

        let (_c, path) = test_path(PathSpec::lan());
        assert!(path.fault_plan().is_clean());
        path.script_faults([Some(Fault::Duplicate), None]);
        assert_eq!(path.next_fault(), Some(Fault::Duplicate));
        assert_eq!(path.next_fault(), None);
        assert_eq!(path.fault_stats().duplicates, 1);
        path.reset_faults();
        assert_eq!(path.fault_stats().total(), 0);
    }
}
