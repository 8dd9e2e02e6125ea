//! Rounds on the real [`Testbed`]: set-up, a measured phase of fixed length,
//! counter reads, then a backend crash and a timed restart.
//!
//! The untraced run reports its end-to-end metrics from here. The traced run
//! uses the same rounds as its reference side (`observe = true` also folds
//! the virtual-time profile and keeps the telemetry snapshot).

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use sli_arch::{
    Interaction, LoadEngine, LoadPlan, LoadedRun, Testbed, TestbedConfig, VirtualClient,
};
use sli_datastore::{TraceSnapshot, Value};
use sli_simnet::{CrashKind, SimDuration};
use sli_telemetry::{critical_path, Breakdown, MetricValue, Profile, SpanEvent};
use sli_trade::session::SessionGenerator;
use sli_trade::TradeAction;

use crate::spec::{Loaded, Workload, POST_RESTART_SESSIONS, WARMUP_SESSIONS};
use crate::{alloc, calib};

/// One client request in a script: which session issues it and what it asks.
#[derive(Debug, Clone)]
pub struct Step {
    pub session: u32,
    pub action: TradeAction,
    /// Last step of its session (the logout).
    pub last: bool,
}

/// A fixed sequence of requests. A closed loop runs its sessions one after
/// the other; the replay of a loaded run interleaves them in dispatch order.
#[derive(Debug, Clone, Default)]
pub struct Script {
    pub steps: Vec<Step>,
    pub sessions: usize,
}

impl Script {
    /// `sessions` generated sessions back to back.
    pub fn closed(generator: &mut SessionGenerator, sessions: usize) -> Script {
        let mut steps = Vec::with_capacity(sessions * 11);
        for session in 0..sessions {
            let actions = generator.session();
            let n = actions.len();
            for (i, action) in actions.into_iter().enumerate() {
                steps.push(Step {
                    session: session as u32,
                    action,
                    last: i + 1 == n,
                });
            }
        }
        Script { steps, sessions }
    }

    /// The dispatch order of a finished loaded run, as a closed-loop script
    /// over the same per-session action lists.
    pub fn replay_of(run: &LoadedRun, plan: &LoadPlan) -> Script {
        let mut generator = SessionGenerator::new(plan.session_seed, plan.population);
        let scripts: Vec<Vec<TradeAction>> =
            (0..plan.sessions).map(|_| generator.session()).collect();
        let mut next = vec![0usize; plan.sessions];
        let steps = run
            .interactions
            .iter()
            .map(|i| {
                let s = i.session as usize;
                let action = scripts[s][next[s]].clone();
                next[s] += 1;
                Step {
                    session: i.session,
                    action,
                    last: next[s] == scripts[s].len(),
                }
            })
            .collect();
        Script {
            steps,
            sessions: plan.sessions,
        }
    }
}

/// Anything that performs one request and keeps its session's cookie: the
/// real [`VirtualClient`] and the traced stack's client.
pub trait Client {
    fn perform(&mut self, action: &TradeAction) -> Interaction;
}

impl Client for VirtualClient<'_> {
    fn perform(&mut self, action: &TradeAction) -> Interaction {
        VirtualClient::perform(self, action)
    }
}

/// The start of a round's set-up: when it began, and what was live then
/// (earlier rounds' results, which are the harness's memory, not the
/// program's).
pub struct Setup {
    started: Instant,
    live_bytes: u64,
}

impl Setup {
    pub fn begin() -> Setup {
        Setup {
            started: Instant::now(),
            live_bytes: alloc::live_bytes(),
        }
    }

    /// Runs `build` — something the harness needs during the phase, such as
    /// the script — and keeps what it leaves live out of the program's peak.
    pub fn harness<T>(&mut self, build: impl FnOnce() -> T) -> T {
        let before = alloc::live_bytes();
        let built = build();
        self.live_bytes += alloc::live_bytes().saturating_sub(before);
        built
    }
}

/// A stretch of a measured phase between two calibration probes.
#[derive(Debug, Clone, Copy)]
pub struct Segment {
    /// Index one past the segment's last request.
    pub end: usize,
    /// Wall time of the segment as timed, seconds.
    pub wall_s: f64,
    /// The machine's slowness over the segment: the mean of the probes on
    /// either side ([`calib::speed_factor`]).
    pub speed: f64,
}

/// What one measured phase yields. Vectors are allocated before the phase
/// starts, so the harness adds nothing to the allocation counts.
#[derive(Debug, Clone, Default)]
pub struct Measured {
    /// Wall time of each request as timed, nanoseconds.
    pub wall_ns: Vec<u64>,
    /// Client-observed virtual latency of each request, microseconds.
    pub virt_us: Vec<u64>,
    /// Requests that did not return 200.
    pub failed: u64,
    /// Wall time of the set-up before the phase — build, seed, warm-up,
    /// script generation — as timed, seconds.
    pub setup_s: f64,
    /// The phase cut at its calibration probes, in order.
    pub segments: Vec<Segment>,
    pub allocs: u64,
    pub alloc_bytes: u64,
    /// Peak live heap size during the phase, above what was live when the
    /// round's set-up began.
    pub peak_live_bytes: u64,
}

impl Measured {
    fn with_capacity(n: usize) -> Measured {
        Measured {
            wall_ns: Vec::with_capacity(n),
            virt_us: Vec::with_capacity(n),
            segments: Vec::with_capacity(256),
            ..Measured::default()
        }
    }

    pub fn interactions(&self) -> u64 {
        self.virt_us.len() as u64
    }

    /// Wall time of the whole phase as timed, probes excluded, seconds.
    pub fn raw_wall_s(&self) -> f64 {
        self.segments.iter().map(|s| s.wall_s).sum()
    }

    /// Wall time of the whole phase at the reference speed, seconds.
    pub fn wall_s(&self) -> f64 {
        self.segments.iter().map(|s| s.wall_s / s.speed).sum()
    }

    /// Wall time of each request at the reference speed, nanoseconds.
    pub fn calibrated_ns(&self) -> impl Iterator<Item = f64> + '_ {
        let mut first = 0;
        self.segments.iter().flat_map(move |s| {
            let range = first..s.end.min(self.wall_ns.len());
            first = s.end;
            self.wall_ns[range].iter().map(|&ns| ns as f64 / s.speed)
        })
    }

    /// Slowness at the start of the phase (set-up ran just before it).
    pub fn first_speed(&self) -> f64 {
        self.segments.first().map_or(1.0, |s| s.speed)
    }
}

/// How long a segment runs before the next calibration probe.
const SEGMENT: Duration = Duration::from_millis(40);

/// The accounting of a running measured phase: cuts it into calibrated
/// segments and keeps the probes out of the wall time and the allocation
/// counts.
struct PhaseClock {
    live_before: u64,
    allocs: u64,
    bytes: u64,
    segment_start: Instant,
    last_probe: f64,
}

impl PhaseClock {
    /// Ends the set-up `setup` began and starts the phase.
    fn start(setup: &Setup, m: &mut Measured) -> PhaseClock {
        m.setup_s = setup.started.elapsed().as_secs_f64();
        let last_probe = calib::speed_factor();
        alloc::reset_peak();
        PhaseClock {
            live_before: setup.live_bytes,
            allocs: alloc::allocs(),
            bytes: alloc::bytes(),
            segment_start: Instant::now(),
            last_probe,
        }
    }

    /// Called with the time a request finished: ends the segment if it has
    /// run long enough.
    fn tick(&mut self, m: &mut Measured, now: Instant) {
        if now - self.segment_start >= SEGMENT {
            self.cut(m, now);
        }
    }

    /// Ends the segment at `now`, probes the machine, starts the next one.
    /// What the probe allocates is taken out of the counts again (it frees
    /// everything, so the live size is unchanged).
    fn cut(&mut self, m: &mut Measured, now: Instant) {
        let wall_s = (now - self.segment_start).as_secs_f64();
        let (allocs, bytes, peak) = (alloc::allocs(), alloc::bytes(), alloc::peak_live_bytes());
        let probe = calib::speed_factor();
        self.allocs += alloc::allocs() - allocs;
        self.bytes += alloc::bytes() - bytes;
        alloc::set_peak(peak);
        m.segments.push(Segment {
            end: m.wall_ns.len(),
            wall_s,
            speed: (self.last_probe + probe) / 2.0,
        });
        self.last_probe = probe;
        self.segment_start = Instant::now();
    }

    fn finish(mut self, m: &mut Measured) {
        self.cut(m, Instant::now());
        m.allocs = alloc::allocs() - self.allocs;
        m.alloc_bytes = alloc::bytes() - self.bytes;
        m.peak_live_bytes = alloc::peak_live_bytes().saturating_sub(self.live_before);
    }
}

/// Drives `script` through `clients` (one per session, so interleaved
/// sessions keep their own cookies), timing every request. `session_end`
/// runs after each session's last step, outside the per-request timers.
pub fn drive<C: Client>(
    setup: &mut Setup,
    clients: &mut [C],
    script: &Script,
    mut session_end: impl FnMut(),
) -> Measured {
    let mut m = setup.harness(|| Measured::with_capacity(script.steps.len()));
    let mut clock = PhaseClock::start(setup, &mut m);
    for step in &script.steps {
        let start = Instant::now();
        let outcome = clients[step.session as usize].perform(&step.action);
        let end = Instant::now();
        m.wall_ns.push((end - start).as_nanos() as u64);
        m.virt_us.push(outcome.latency.as_micros());
        m.failed += u64::from(outcome.status != 200);
        if step.last {
            session_end();
        }
        clock.tick(&mut m, end);
    }
    clock.finish(&mut m);
    m
}

/// Runs `sessions` generated sessions without measuring (warm-up, and the
/// traffic after a restart), alternating edges. Returns the failures.
pub fn run_unmeasured<C: Client>(
    clients: &mut [C],
    generator: &mut SessionGenerator,
    sessions: usize,
    mut session_end: impl FnMut(),
) -> u64 {
    let mut failed = 0;
    for s in 0..sessions {
        let client = &mut clients[s % clients.len().max(1)];
        for action in generator.session() {
            failed += u64::from(client.perform(&action).status != 200);
        }
        session_end();
    }
    failed
}

/// Counter reads of one measured phase on the real testbed.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    /// Round trips on the delayed paths.
    pub round_trips: u64,
    /// Bytes on the delayed paths, both directions (the Figure 8 quantity).
    pub shared_bytes: u64,
    /// `db.wal.flushed_bytes`.
    pub wal_bytes: u64,
    /// Virtual time the phase took, microseconds.
    pub virt_elapsed_us: u64,
    /// Virtual service time of every request, summed (a latency under load
    /// is queue wait plus service), microseconds.
    pub service_us: u64,
}

/// What an observing round keeps for the per-layer metrics.
#[derive(Debug, Clone, Default)]
pub struct Observed {
    pub snapshot: BTreeMap<String, MetricValue>,
    pub db_trace: TraceSnapshot,
    pub profile: Profile,
    pub breakdown: Breakdown,
    pub spans: u64,
    pub store_resident_bytes: u64,
    pub store_len: usize,
    /// A sample of drained span events, for the fold driver.
    pub span_sample: Vec<SpanEvent>,
}

impl Observed {
    fn fold(&mut self, events: &[SpanEvent]) {
        self.profile.fold(events);
        self.breakdown.merge(&critical_path(events));
        self.spans += events.len() as u64;
        if self.span_sample.len() < 4096 {
            self.span_sample.extend_from_slice(events);
        }
    }

    fn read(&mut self, tb: &Testbed) {
        self.snapshot = tb.telemetry().snapshot();
        self.db_trace = tb.db.trace_snapshot();
        for edge in &tb.edges {
            if let Some(store) = &edge.store {
                self.store_resident_bytes += store.resident_bytes();
                self.store_len += store.len();
            }
        }
    }
}

/// The timed backend restart that ends every round.
#[derive(Debug, Clone, Copy, Default)]
pub struct Recovery {
    /// Wall time of `Testbed::restart(Backend)` as timed, milliseconds.
    pub wall_ms: f64,
    /// The machine's slowness for a restart's kind of work around it
    /// ([`calib::restart_factor`]).
    pub speed: f64,
    pub redo_ops: u64,
}

/// One finished round.
#[derive(Debug, Clone, Default)]
pub struct Round {
    pub seed: u64,
    pub measured: Measured,
    pub counts: Counts,
    pub recovery: Recovery,
    /// The overload leg of a loaded workload (`None` for closed loops).
    pub overload: Option<Overload>,
    pub observed: Option<Observed>,
    /// Failed output checks, each naming what went wrong.
    pub problems: Vec<String>,
}

/// The overload (`high_rps`) leg of a loaded round.
#[derive(Debug, Clone, Default)]
pub struct Overload {
    pub measured: Measured,
    /// Dispatches and the virtual makespan they took: `virt_tps`.
    pub makespan_us: u64,
    pub peak_queue: u64,
    /// Queue waits of every dispatch, microseconds.
    pub queue_wait_us: Vec<u64>,
}

impl Overload {
    pub fn of(measured: Measured, run: &LoadedRun) -> Overload {
        Overload {
            measured,
            makespan_us: run.makespan().as_micros(),
            peak_queue: run.peak_queue_depth,
            queue_wait_us: run
                .interactions
                .iter()
                .map(|i| i.queue_wait.as_micros())
                .collect(),
        }
    }
}

fn build_testbed(w: &Workload) -> Testbed {
    let tb = Testbed::build(
        w.arch,
        TestbedConfig {
            population: w.population,
            edges: w.loaded.map_or(1, |l| l.edges),
            cache_capacity: w.cache_capacity,
            ..TestbedConfig::default()
        },
    );
    tb.set_delay(SimDuration::from_millis(w.delay_ms));
    tb
}

/// A fresh testbed for `w` after the standard warm-up, and the session
/// generator as the warm-up left it.
pub fn warm_testbed(
    w: &Workload,
    seed: u64,
    problems: &mut Vec<String>,
) -> (Testbed, SessionGenerator) {
    let tb = build_testbed(w);
    let mut generator = SessionGenerator::new(seed, w.population).with_mix(w.mix);
    let failed = run_unmeasured(
        &mut clients(&tb, tb.edges.len()),
        &mut generator,
        WARMUP_SESSIONS,
        || tb.commit_trace().clear(),
    );
    if failed > 0 {
        problems.push(format!("{failed} warm-up interactions failed"));
    }
    (tb, generator)
}

pub fn clients(tb: &Testbed, n: usize) -> Vec<VirtualClient<'_>> {
    (0..n)
        .map(|i| VirtualClient::new(tb, i % tb.edges.len()))
        .collect()
}

/// Zeroes every counter at the warm-up / measurement boundary.
fn reset_counters(tb: &Testbed) {
    tb.reset_path_stats();
    tb.reset_telemetry();
    tb.db.reset_trace();
}

fn read_counts(tb: &Testbed, virt_start_us: u64, service_us: u64) -> Counts {
    Counts {
        service_us,
        round_trips: (0..tb.edges.len())
            .map(|i| tb.delayed_path(i).stats().round_trips())
            .sum(),
        shared_bytes: tb.shared_site_bytes(),
        wal_bytes: tb.db.wal_stats().flushed_bytes,
        virt_elapsed_us: tb.clock.now().as_micros() - virt_start_us,
    }
}

fn dump(tb: &Testbed) -> Vec<(String, Vec<Vec<Value>>)> {
    let mut tables = tb.db.table_names();
    tables.sort();
    tables
        .into_iter()
        .map(|t| {
            let rows = tb.db.dump_rows(&t);
            (t, rows)
        })
        .collect()
}

/// Crashes the backend, times its restart, and checks that every table reads
/// the same as before the crash and that traffic succeeds again.
pub fn crash_and_recover(
    tb: &Testbed,
    generator: &mut SessionGenerator,
    problems: &mut Vec<String>,
) -> Recovery {
    let before = dump(tb);
    tb.crash(CrashKind::Backend);
    let probe = calib::restart_factor();
    let start = Instant::now();
    let report = tb
        .restart(CrashKind::Backend)
        .expect("a backend restart reports its recovery");
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let speed = (probe + calib::restart_factor()) / 2.0;
    if dump(tb) != before {
        problems.push("table dumps differ before the crash and after recovery".to_owned());
    }
    let mut after = clients(tb, tb.edges.len());
    let failed = run_unmeasured(&mut after, generator, POST_RESTART_SESSIONS, || {
        tb.commit_trace().clear()
    });
    if failed > 0 {
        problems.push(format!("{failed} interactions failed after the restart"));
    }
    Recovery {
        wall_ms,
        speed,
        redo_ops: report.redo_count,
    }
}

/// One closed-loop round: a fresh testbed, warm-up, `sessions` measured
/// sessions from one virtual client that waits for each reply.
pub fn closed_round(w: &Workload, seed: u64, sessions: usize, observe: bool) -> Round {
    let mut setup = Setup::begin();
    let mut problems = Vec::new();
    let (tb, mut generator) = warm_testbed(w, seed, &mut problems);
    let script = setup.harness(|| Script::closed(&mut generator, sessions));
    let mut session_clients = setup.harness(|| clients(&tb, script.sessions));
    reset_counters(&tb);
    let virt_start_us = tb.clock.now().as_micros();

    let mut observed = observe.then(Observed::default);
    let measured = drive(&mut setup, &mut session_clients, &script, || {
        if let Some(o) = observed.as_mut() {
            o.fold(&tb.commit_trace().events());
        }
        tb.commit_trace().clear();
    });
    let counts = read_counts(&tb, virt_start_us, measured.virt_us.iter().sum());
    if let Some(o) = observed.as_mut() {
        o.read(&tb);
    }
    let recovery = crash_and_recover(&tb, &mut generator, &mut problems);
    if measured.failed > 0 {
        problems.push(format!("{} measured interactions failed", measured.failed));
    }
    Round {
        seed,
        measured,
        counts,
        recovery,
        overload: None,
        observed,
        problems,
    }
}

/// How much of the engine's observability one loaded leg switches on; the
/// traced run differences the three.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Harvest {
    /// `LoadEngine::run(plan, None)`.
    Bare,
    /// `run` with the standard timeline sampled after every dispatch.
    Timeline,
    /// `run_observed`: timeline plus a span observer folding `Profile` and
    /// `critical_path` — the workload as defined.
    Observed,
}

/// One open-loop leg on a fresh testbed.
pub struct Leg {
    pub tb: Testbed,
    pub plan: LoadPlan,
    pub run: LoadedRun,
    pub measured: Measured,
    pub counts: Counts,
    pub observed: Observed,
    pub generator: SessionGenerator,
}

/// Builds and warms a testbed, then runs one Poisson leg at `rps`.
pub fn loaded_leg(
    w: &Workload,
    rps: f64,
    sessions: usize,
    seed: u64,
    harvest: Harvest,
    problems: &mut Vec<String>,
) -> Leg {
    let mut setup = Setup::begin();
    let (tb, generator) = warm_testbed(w, seed, problems);
    let plan = LoadPlan {
        think: SimDuration::ZERO,
        population: w.population,
        ..LoadPlan::poisson(rps, sessions, seed)
    };
    let engine = LoadEngine::new(&tb);
    reset_counters(&tb);
    let timeline = tb.standard_timeline(1_000_000);
    engine.metrics().timeline_into(&timeline, "engine");
    timeline.rebase(tb.clock.now().as_micros());
    let virt_start_us = tb.clock.now().as_micros();

    let mut observed = Observed::default();
    let mut m = setup.harness(|| Measured::with_capacity(sessions * 11));
    let mut clock = PhaseClock::start(&setup, &mut m);
    let run = match harvest {
        Harvest::Bare => engine.run(&plan, None),
        Harvest::Timeline => engine.run(&plan, Some(&timeline)),
        Harvest::Observed => {
            // The engine calls `perform` itself, so a dispatch's wall time is
            // the interval between two observer calls: engine step, request,
            // harvest.
            let mut last = Instant::now();
            let mut observer = |events: &[SpanEvent]| {
                observed.fold(events);
                let now = Instant::now();
                m.wall_ns.push((now - last).as_nanos() as u64);
                clock.tick(&mut m, now);
                last = Instant::now();
            };
            engine.run_observed(&plan, Some(&timeline), Some(&mut observer))
        }
    };
    clock.finish(&mut m);
    let mut measured = m;
    let mut service_us = 0;
    for i in &run.interactions {
        measured.virt_us.push(i.total().as_micros());
        measured.failed += u64::from(i.status != 200);
        service_us += i.service.as_micros();
    }
    let counts = read_counts(&tb, virt_start_us, service_us);
    observed.read(&tb);

    if measured.failed > 0 {
        problems.push(format!(
            "{} interactions failed at {rps} sessions/s",
            measured.failed
        ));
    }
    if !run.littles_law().holds(1e-9) {
        problems.push(format!("Little's law does not hold at {rps} sessions/s"));
    }
    // Arrivals are computed in virtual time before the run starts, so the
    // generator cannot run late: the first arrival is where the plan put it.
    let planned = virt_start_us + plan.arrivals.times_us(1)[0];
    if run.first_arrival.as_micros() != planned {
        problems.push(format!("generator ran late at {rps} sessions/s"));
    }
    if run.sessions_completed != sessions as u64 {
        problems.push(format!("sessions left unfinished at {rps} sessions/s"));
    }
    drop(engine);
    Leg {
        tb,
        plan,
        run,
        measured,
        counts,
        observed,
        generator,
    }
}

/// One open-loop round: a leg below the knee (latency, traffic, recovery)
/// and an overload leg (saturation throughput), each on a fresh testbed.
pub fn loaded_round(w: &Workload, load: Loaded, seed: u64, sessions: usize) -> Round {
    let mut problems = Vec::new();
    let mut low = loaded_leg(
        w,
        load.low_rps,
        sessions,
        seed,
        Harvest::Observed,
        &mut problems,
    );
    let recovery = crash_and_recover(&low.tb, &mut low.generator, &mut problems);
    let high = loaded_leg(
        w,
        load.high_rps,
        sessions,
        seed,
        Harvest::Observed,
        &mut problems,
    );
    Round {
        seed,
        measured: low.measured,
        counts: low.counts,
        recovery,
        overload: Some(Overload::of(high.measured, &high.run)),
        observed: Some(low.observed),
        problems,
    }
}

/// One round of `w` with `sessions` measured sessions.
pub fn round(w: &Workload, seed: u64, sessions: usize, observe: bool) -> Round {
    match w.loaded {
        Some(load) => loaded_round(w, load, seed, sessions),
        None => closed_round(w, seed, sessions, observe),
    }
}
