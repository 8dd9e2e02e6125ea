//! The load engine: the one main loop, many logical sessions multiplexed on
//! virtual time under one of two admission rules.
//!
//! *Closed* admission is the paper's protocol (§4.3) with a client count:
//! each of `n` clients starts its next session the instant its last one
//! ends, so exactly `n` sessions are live while scripts last and offered
//! load can never exceed the service rate. The paper's is `n = 1`. *Open* admission
//! is what makes the saturation knee visible: sessions *arrive* on an
//! [`ArrivalPlan`] schedule whether or not earlier sessions have finished,
//! wait in a ready queue, and interleave at client-RPC boundaries. The two
//! differ only in when the loop admits a session and when that session first
//! counts as ready; everything after admission is shared.
//!
//! The execution model is the slicheck [`Scheduler`] promoted from
//! checker-only tool to the main loop. One atomic step = one HTTP round
//! trip ([`VirtualClient::perform`]); whenever more than one session has a
//! ready step, the scheduler decides which fires next, so every run is a
//! recorded, replayable interleaving — the same property the
//! serializability checker exploits, now carried by every measurement.
//!
//! Latency accounting is the standard decomposition: a request becomes
//! *ready* (session admission or arrival, or think-time expiry), possibly
//! waits while the single virtual CPU serves other sessions, then is
//! dispatched. Its reported latency is `queue_wait + service`. A lone closed
//! client never waits (`n` closed clients wait for each other's round
//! trips); under open admission the queue grows as the offered rate
//! approaches the service rate and the latency curve bends up — the knee
//! the `knee` bin plots.

use std::sync::Arc;

use sli_simnet::{CrashKind, FaultPlan, Scheduler, SimDuration, SimTime};
use sli_telemetry::{Counter, Gauge, Histogram, Registry, SloMonitor, SpanEvent, Timeline};
use sli_trade::seed::Population;
use sli_trade::session::SessionGenerator;
use sli_trade::TradeAction;
use sli_workload::ArrivalPlan;

use crate::client::VirtualClient;
use crate::topology::Testbed;

/// Everything that defines one run of the engine.
#[derive(Debug, Clone)]
pub struct LoadPlan {
    /// The session arrival schedule (rate, shape, seed) of an open plan.
    pub arrivals: ArrivalPlan,
    /// How many logical sessions run in total.
    pub sessions: usize,
    /// Per-session think time between consecutive interactions.
    pub think: SimDuration,
    /// Seed of the per-session action scripts (the trade mix).
    pub session_seed: u64,
    /// Seed of the dispatch scheduler's random walk.
    pub scheduler_seed: u64,
    /// Database population the scripts draw users/symbols from.
    pub population: Population,
    /// `Some(n)`: closed admission — `n` clients, each starting its next
    /// session the instant its last one ends; client `c`'s sessions run on
    /// edge `c % edges` and `arrivals` is not consulted. `None`: open
    /// admission on the `arrivals` schedule, session `i` on edge
    /// `i % edges` (an open session is its own client).
    pub closed: Option<usize>,
    /// Sessions of the `session_seed` script stream skipped before the
    /// first one this plan runs, so one plan can continue the stream where
    /// another (a warm-up) stopped.
    pub first_session: usize,
}

impl LoadPlan {
    /// A plan with Poisson arrivals at `rps` sessions/second and the
    /// engine's default seeds and think time (500 ms — browsers pause
    /// between clicks even when servers are melting).
    pub fn poisson(rps: f64, sessions: usize, seed: u64) -> LoadPlan {
        LoadPlan {
            arrivals: ArrivalPlan::poisson(seed, rps),
            sessions,
            think: SimDuration::from_millis(500),
            session_seed: seed ^ 0x5e55_1011,
            scheduler_seed: seed ^ 0x5c4e_d01e,
            population: Population::default(),
            closed: None,
            first_session: 0,
        }
    }
}

/// One dispatched interaction under load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadedInteraction {
    /// Which logical session issued it (admission order, from 0).
    pub session: u32,
    /// Time spent ready-but-undispatched while other sessions were served.
    pub queue_wait: SimDuration,
    /// Service time of the HTTP round trip itself.
    pub service: SimDuration,
    /// HTTP status of the response.
    pub status: u16,
}

impl LoadedInteraction {
    /// What the user experienced: queue wait plus service.
    pub fn total(&self) -> SimDuration {
        self.queue_wait + self.service
    }
}

/// Telemetry handles for the engine itself, registered under `engine.*`:
/// session admission/completion rates, the in-flight session level and the
/// ready-queue depth — the load-side counterparts of the per-path
/// `in_flight` gauges.
#[derive(Debug, Clone, Default)]
pub struct LoadMetrics {
    /// Sessions admitted so far.
    pub arrivals: Counter,
    /// Sessions fully completed.
    pub completions: Counter,
    /// Interactions dispatched.
    pub dispatches: Counter,
    /// Live sessions: arrived but not yet completed.
    pub in_flight: Gauge,
    /// Sessions with a ready step waiting for the scheduler.
    pub queue_depth: Gauge,
    /// Distribution of per-interaction queue waits (µs).
    pub queue_wait_us: Histogram,
}

impl LoadMetrics {
    /// Attaches every handle to `registry` under `prefix` (dotted names,
    /// e.g. `engine.queue_depth`).
    pub fn register_with(&self, registry: &Registry, prefix: &str) {
        registry.attach_counter(format!("{prefix}.arrivals"), &self.arrivals);
        registry.attach_counter(format!("{prefix}.completions"), &self.completions);
        registry.attach_counter(format!("{prefix}.dispatches"), &self.dispatches);
        registry.attach_gauge(format!("{prefix}.in_flight"), &self.in_flight);
        registry.attach_gauge(format!("{prefix}.queue_depth"), &self.queue_depth);
        registry.attach_histogram(format!("{prefix}.queue_wait_us"), &self.queue_wait_us);
    }

    /// Tracks arrival/completion/dispatch rates and both level gauges in
    /// `timeline` under the [`LoadMetrics::register_with`] names. A no-op on
    /// a [`standard_timeline`](crate::DataTier::standard_timeline) built
    /// after the engine, which already has them from the registry;
    /// `benchmark/` calls it that way.
    pub fn timeline_into(&self, timeline: &Timeline, prefix: &str) {
        timeline.track_counter(format!("{prefix}.arrivals"), &self.arrivals);
        timeline.track_counter(format!("{prefix}.completions"), &self.completions);
        timeline.track_counter(format!("{prefix}.dispatches"), &self.dispatches);
        timeline.track_gauge(format!("{prefix}.in_flight"), &self.in_flight);
        timeline.track_gauge(format!("{prefix}.queue_depth"), &self.queue_depth);
    }
}

/// The result of one loaded run.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadedRun {
    /// Every dispatched interaction, in dispatch order.
    pub interactions: Vec<LoadedInteraction>,
    /// When the first session arrived: its scheduled instant under open
    /// admission, the run's start under closed.
    pub first_arrival: SimTime,
    /// When the last session arrived (scheduled instant / admission
    /// instant likewise); with `first_arrival`, the realized arrival span.
    pub last_arrival: SimTime,
    /// When the last interaction completed.
    pub end: SimTime,
    /// Largest ready-queue depth observed.
    pub peak_queue_depth: u64,
    /// The scheduler's recorded choice sequence length (one per dispatch).
    pub schedule_len: usize,
    /// Exact integral of the live-session level over the run
    /// (`∫ in_flight dt`, in session-microseconds) — the numerator of
    /// Little's-law `L̄`.
    pub in_flight_area_us: u64,
    /// Sum of per-session residences (admission → completion, µs) — the
    /// numerator of Little's-law `W̄`. Equals `in_flight_area_us` by
    /// construction (Fubini: each live session contributes its residence
    /// interval to the level integral).
    pub residence_sum_us: u64,
    /// Sessions that ran their script to completion.
    pub sessions_completed: u64,
}

impl LoadedRun {
    /// Virtual time from first arrival to last completion.
    pub fn makespan(&self) -> SimDuration {
        self.end
            .checked_since(self.first_arrival)
            .expect("a run ends after its first arrival")
    }

    /// Achieved throughput: completed interactions per second of virtual
    /// time over the makespan.
    pub fn achieved_tps(&self) -> f64 {
        let span_s = self.makespan().as_micros() as f64 / 1e6;
        if span_s == 0.0 {
            0.0
        } else {
            self.interactions.len() as f64 / span_s
        }
    }

    /// Little's-law check over the run: `L̄ = λ·W̄` with `L̄` from the exact
    /// level integral, `λ` from completed sessions over the makespan and
    /// `W̄` from measured residences. The identity is exact for the engine
    /// (integer arithmetic, no sampling), so any drift flags an accounting
    /// bug in the loop itself.
    pub fn littles_law(&self) -> sli_telemetry::LittlesLaw {
        sli_telemetry::littles_law(
            self.in_flight_area_us,
            self.residence_sum_us,
            self.sessions_completed,
            self.makespan().as_micros(),
        )
    }
}

/// Callback fed every span batch drained from the testbed's trace log
/// after a dispatch step of an observed run.
pub type SpanObserver<'a> = &'a mut dyn FnMut(&[SpanEvent]);

/// One event on a loaded run's fault script, which pairs each event with
/// its virtual offset from the run's start. Every event applies at the
/// loop's change points — the instants between atomic dispatch steps — so
/// it lands at an exact, replayable position in the interleaving.
#[derive(Debug, Clone, Copy)]
pub enum FaultEvent {
    /// Dial a plan onto the testbed's delayed paths
    /// ([`set_faults`](crate::DataTier::set_faults)). An outage is a faulty
    /// plan followed by [`FaultPlan::NONE`] at the recovery instant. The
    /// change itself is instantaneous; its *first effect* is the next
    /// delivery attempt, which the paths timestamp
    /// (`Path::first_fault_at_us`) as the detection ground truth.
    Dial(FaultPlan),
    /// Kill the machine `kind` names ([`crash`](crate::DataTier::crash)),
    /// and restart it `down_for` later
    /// ([`restart`](crate::DataTier::restart) — a backend restart replays
    /// the WAL and reseeds the dedup tables; an edge restart comes back
    /// with cold caches). Every RPC issued toward the dead machine fails as
    /// an outage and the affected sessions retry through the transport's
    /// backoff policy. Kill and restart are one event so that no script
    /// restarts a machine that is up.
    Crash {
        /// Which machine dies.
        kind: CrashKind,
        /// How long it stays down before restarting.
        down_for: SimDuration,
    },
}

/// One instant of an unrolled fault script: a [`FaultEvent::Crash`] is a
/// kill and, `down_for` later, a restart.
#[derive(Clone, Copy)]
enum Change {
    Dial(FaultPlan),
    Kill(CrashKind),
    Restart(CrashKind),
}

/// What a loaded run carries besides its plan; every part is optional and
/// all of them combine (`RunHooks::default()` attaches nothing).
#[derive(Default)]
pub struct RunHooks<'a> {
    /// Sampled after every dispatch, so level series capture the queue
    /// building and draining.
    pub timeline: Option<&'a Timeline>,
    /// Fed what each dispatch left in the testbed's commit-trace log, which
    /// is drained into one buffer the run keeps
    /// ([`TraceLog::drain_into`](sli_telemetry::TraceLog::drain_into)). One
    /// dispatch ([`VirtualClient::perform`]) is one atomic step, so at drain
    /// time the log holds only *complete* traces — no span of an in-flight
    /// interaction can be split across two drains, and sessions completing
    /// out of admission order cannot drop or double-count spans. Draining
    /// per dispatch also bounds the log: without it a long loaded run
    /// overflows the fixed-capacity trace ring, which then sheds its oldest
    /// spans and counts them
    /// ([`TraceLog::evicted`](sli_telemetry::TraceLog::evicted)).
    pub observer: Option<SpanObserver<'a>>,
    /// Live SLO monitoring: [`SloMonitor::evaluate`] runs after every
    /// admission batch (the queue detectors see depth the instant it
    /// changes) and [`SloMonitor::observe_interaction`] at each completion
    /// with the interaction's total latency and HTTP verdict. The engine
    /// binds its own `queue_depth` gauge into the monitor and drains the
    /// commit-trace log into the flight recorder (sharing the drain with
    /// `observer`, which still sees every span exactly once).
    pub monitor: Option<&'a mut SloMonitor>,
    /// The fault script: each event at its offset from the run's start,
    /// applied in offset order (ties in script order) the moment virtual
    /// time crosses it. Sessions whose RPCs land in a crash's downtime fail
    /// as outages and retry; a backend restart replays the WAL before
    /// traffic resumes.
    pub script: &'a [(SimDuration, FaultEvent)],
}

/// A live session mid-run: its client (cookie state), remaining script and
/// the instant its next step becomes ready.
struct LiveSession<'t> {
    id: u32,
    client: VirtualClient<'t>,
    actions: Vec<TradeAction>,
    next: usize,
    ready_at: SimTime,
    /// The client the session runs for; it picks the edge.
    client_no: usize,
    /// When the session joined the live set (loop-top admission instant;
    /// under saturation this can lag the scheduled arrival because the
    /// loop only admits between dispatches). Residence is measured from
    /// here so it matches the `in_flight` gauge exactly; the scheduled
    /// lateness is already captured by `queue_wait`.
    admitted_at: SimTime,
}

/// The concurrent-session main loop over one [`Testbed`].
pub struct LoadEngine<'t> {
    testbed: &'t Testbed,
    metrics: Arc<LoadMetrics>,
}

impl<'t> LoadEngine<'t> {
    /// Creates an engine over `testbed` and registers its metrics with the
    /// testbed's telemetry registry under `engine.*`.
    pub fn new(testbed: &'t Testbed) -> LoadEngine<'t> {
        let metrics = Arc::new(LoadMetrics::default());
        metrics.register_with(testbed.telemetry(), "engine");
        LoadEngine { testbed, metrics }
    }

    /// The engine's own telemetry handles (see [`LoadMetrics`]).
    pub fn metrics(&self) -> &Arc<LoadMetrics> {
        &self.metrics
    }

    /// Runs `plan` to completion with nothing attached but an optional
    /// timeline, sampled after every dispatch. See [`LoadEngine::run_with`].
    pub fn run(&self, plan: &LoadPlan, timeline: Option<&Timeline>) -> LoadedRun {
        self.run_observed(plan, timeline, None)
    }

    /// [`LoadEngine::run`] with a span-harvest hook (see
    /// [`RunHooks::observer`]).
    pub fn run_observed<'a>(
        &self,
        plan: &LoadPlan,
        timeline: Option<&'a Timeline>,
        observer: Option<SpanObserver<'a>>,
    ) -> LoadedRun {
        self.run_with(
            plan,
            RunHooks {
                timeline,
                observer,
                ..RunHooks::default()
            },
        )
    }

    /// Runs `plan` to completion: admits sessions per the plan's admission
    /// rule, lets the scheduler pick among ready sessions at every step,
    /// and returns every interaction with its queue-wait/service split.
    /// Arrival offsets — and the fault script's offsets in `hooks` — are
    /// anchored at the clock's position on entry (testbed construction has
    /// already spent some virtual time on connection handshakes).
    ///
    /// Everything in `hooks` acts at the loop's existing change points, the
    /// instants between atomic dispatch steps, so a scripted fault or crash
    /// lands at an exact, replayable position in the interleaving and a
    /// monitor's detection timestamps are exact virtual times of state
    /// transitions rather than sampling artifacts.
    ///
    /// # Panics
    /// Panics on a plan with no sessions, a closed plan with no clients, or
    /// an open plan whose arrival rate is not positive and finite.
    pub fn run_with(&self, plan: &LoadPlan, hooks: RunHooks<'_>) -> LoadedRun {
        let RunHooks {
            timeline,
            mut observer,
            mut monitor,
            script,
        } = hooks;
        if let Some(mon) = monitor.as_deref_mut() {
            mon.bind_queue_gauge(self.metrics.queue_depth.clone());
        }
        assert!(plan.sessions > 0, "a run needs at least one session");
        assert!(
            plan.closed != Some(0),
            "a closed run needs at least one client"
        );
        let clock = &self.testbed.clock;
        let edges = self.testbed.edges.len();
        let start = clock.now();

        // The whole schedule and every script are fixed up front: the run
        // is a pure function of the plan. A closed plan has no schedule —
        // its admissions follow its completions.
        let arrival_times: Vec<SimTime> = if plan.closed.is_some() {
            Vec::new()
        } else {
            plan.arrivals
                .times_us(plan.sessions)
                .into_iter()
                .map(|us| start + SimDuration::from_micros(us))
                .collect()
        };
        // A script depends only on the generator's state, so skipping
        // `first_session` sessions continues an earlier plan's stream
        // exactly.
        let mut generator = SessionGenerator::new(plan.session_seed, plan.population);
        for _ in 0..plan.first_session {
            generator.session();
        }
        let scripts: Vec<Vec<TradeAction>> =
            (0..plan.sessions).map(|_| generator.session()).collect();
        let mut scheduler = Scheduler::random(plan.scheduler_seed);
        // A crash unrolls to its kill and its restart; the sort is stable,
        // so changes at one instant apply in script order.
        let mut changes: Vec<(SimTime, Change)> = Vec::with_capacity(2 * script.len());
        for &(at, event) in script {
            match event {
                FaultEvent::Dial(plan) => changes.push((start + at, Change::Dial(plan))),
                FaultEvent::Crash { kind, down_for } => {
                    changes.push((start + at, Change::Kill(kind)));
                    changes.push((start + at + down_for, Change::Restart(kind)));
                }
            }
        }
        changes.sort_by_key(|&(t, _)| t);
        let mut next_change = 0usize;

        let expected: usize = scripts.iter().map(Vec::len).sum();
        let mut interactions = Vec::with_capacity(expected);
        let mut live: Vec<LiveSession<'t>> = Vec::new();
        let mut next_arrival = 0usize;
        // The closed clients not in a session, lowest number on top.
        let mut free_clients: Vec<usize> = (0..plan.closed.unwrap_or(0)).rev().collect();
        let mut last_arrival = start;
        let mut peak_queue_depth = 0u64;
        // Little's-law accounting: the level integral advances at every
        // change point (admission, completion); residences accumulate at
        // completion. Both in exact integer microseconds.
        let mut in_flight_area_us = 0u64;
        let mut residence_sum_us = 0u64;
        let mut sessions_completed = 0u64;
        let mut last_level_change = start;
        // Reused by every step: the ready sessions' indices, and the spans
        // the step's dispatch recorded.
        let mut ready: Vec<usize> = Vec::new();
        let mut spans: Vec<SpanEvent> = Vec::new();

        loop {
            let now = clock.now();
            // Apply every scripted change whose instant has passed.
            while let Some(&(_, change)) = changes.get(next_change).filter(|c| c.0 <= now) {
                match change {
                    Change::Dial(plan) => self.testbed.set_faults(plan),
                    Change::Kill(kind) => self.testbed.crash(kind),
                    Change::Restart(kind) => {
                        self.testbed.restart(kind);
                    }
                }
                next_change += 1;
            }
            // Admit: an open plan's sessions as their arrival instants
            // pass, a closed plan's next one whenever a client is free. A
            // closed session is ready the moment its client admits it, so a
            // client is never idle while scripts remain.
            while next_arrival < plan.sessions {
                let (ready_at, client_no) = match plan.closed {
                    Some(_) => match free_clients.pop() {
                        Some(c) => (now, c),
                        None => break,
                    },
                    None if arrival_times[next_arrival] <= now => {
                        (arrival_times[next_arrival], next_arrival)
                    }
                    None => break,
                };
                in_flight_area_us += live.len() as u64
                    * now
                        .checked_since(last_level_change)
                        .expect("virtual time is monotonic")
                        .as_micros();
                last_level_change = now;
                live.push(LiveSession {
                    id: next_arrival as u32,
                    client: VirtualClient::new(self.testbed, client_no % edges.max(1)),
                    actions: scripts[next_arrival].clone(),
                    next: 0,
                    ready_at,
                    client_no,
                    admitted_at: now,
                });
                last_arrival = ready_at;
                self.metrics.arrivals.inc();
                next_arrival += 1;
            }
            self.metrics.in_flight.set(live.len() as u64);

            ready.clear();
            ready.extend((0..live.len()).filter(|&i| live[i].ready_at <= now));
            self.metrics.queue_depth.set(ready.len() as u64);
            peak_queue_depth = peak_queue_depth.max(ready.len() as u64);
            if let Some(mon) = monitor.as_deref_mut() {
                mon.evaluate(now.as_micros());
            }

            if ready.is_empty() {
                // Idle: jump straight to the next event — the earliest
                // scheduled arrival (an open plan's), think-time expiry, or
                // kill or restart. Nothing left means the run is over. A
                // dial wakes nothing: it bites only at the next delivery
                // attempt, and waking for it would add a monitor
                // evaluation (a queue-depth sample in the drift charts) and
                // stretch `end` to a dial scripted past the last session.
                let next_crash = changes[next_change..]
                    .iter()
                    .find(|(_, c)| !matches!(c, Change::Dial(_)));
                let next_event = live
                    .iter()
                    .map(|s| s.ready_at)
                    .chain(arrival_times.get(next_arrival).copied())
                    .chain(next_crash.map(|&(t, _)| t))
                    .min();
                match next_event {
                    Some(t) => {
                        clock.delay_until(t);
                        continue;
                    }
                    None => break,
                }
            }

            // The scheduler — the slicheck execution model — picks which
            // ready session's step fires.
            let pick = scheduler.pick(ready.len() as u32) as usize;
            let idx = ready[pick];
            let queue_wait = now
                .checked_since(live[idx].ready_at)
                .expect("ready sessions became ready in the past");
            let session = &mut live[idx];
            let outcome = session.client.perform(&session.actions[session.next]);
            self.metrics.dispatches.inc();
            self.metrics.queue_wait_us.record(queue_wait.as_micros());
            interactions.push(LoadedInteraction {
                session: live[idx].id,
                queue_wait,
                service: outcome.latency,
                status: outcome.status,
            });

            live[idx].next += 1;
            if live[idx].next == live[idx].actions.len() {
                let done_at = clock.now();
                in_flight_area_us += live.len() as u64
                    * done_at
                        .checked_since(last_level_change)
                        .expect("virtual time is monotonic")
                        .as_micros();
                last_level_change = done_at;
                residence_sum_us += done_at
                    .checked_since(live[idx].admitted_at)
                    .expect("a session completes after its admission")
                    .as_micros();
                sessions_completed += 1;
                let done = live.swap_remove(idx);
                if plan.closed.is_some() {
                    free_clients.push(done.client_no);
                }
                self.metrics.completions.inc();
                self.metrics.in_flight.set(live.len() as u64);
            } else {
                live[idx].ready_at = clock.now() + plan.think;
            }
            if observer.is_some() || monitor.is_some() {
                spans.clear();
                self.testbed.commit_trace().drain_into(&mut spans);
                if !spans.is_empty() {
                    if let Some(mon) = monitor.as_deref_mut() {
                        mon.observe_spans(&spans);
                    }
                    if let Some(obs) = observer.as_mut() {
                        obs(&spans);
                    }
                }
            }
            if let Some(mon) = monitor.as_deref_mut() {
                // Completion change point: the dispatch just finished at
                // the clock's position, with the latency the user saw.
                let done = interactions
                    .last()
                    .expect("a dispatch step pushes its interaction");
                mon.observe_interaction(
                    clock.now().as_micros(),
                    done.total().as_micros(),
                    done.status == 200,
                );
            }
            if let Some(tl) = timeline {
                tl.sample(clock.now().as_micros());
            }
        }

        LoadedRun {
            interactions,
            first_arrival: arrival_times.first().copied().unwrap_or(start),
            last_arrival,
            end: clock.now(),
            peak_queue_depth,
            schedule_len: scheduler.taken().len(),
            in_flight_area_us,
            residence_sum_us,
            sessions_completed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{Architecture, Flavor, Testbed, TestbedConfig};

    fn plan(rps: f64, sessions: usize) -> LoadPlan {
        LoadPlan::poisson(rps, sessions, 77)
    }

    #[test]
    fn loaded_run_dispatches_every_scripted_interaction() {
        let tb = Testbed::build(Architecture::EsRdb(Flavor::Jdbc), TestbedConfig::default());
        let engine = LoadEngine::new(&tb);
        let run = engine.run(&plan(20.0, 12), None);
        assert_eq!(run.schedule_len, run.interactions.len());
        assert_eq!(engine.metrics().completions.get(), 12);
        assert_eq!(
            engine.metrics().dispatches.get() as usize,
            run.interactions.len()
        );
        assert!(run.interactions.iter().all(|i| i.status == 200));
        assert!(run.makespan() > SimDuration::ZERO);
    }

    #[test]
    fn loaded_runs_are_deterministic() {
        let collect = || {
            let tb = Testbed::build(Architecture::EsRbes, TestbedConfig::default());
            let engine = LoadEngine::new(&tb);
            engine.run(&plan(50.0, 10), None)
        };
        let run = collect();
        assert_eq!(run, collect());
        // Pinned to what the loop produced before it learned closed
        // admission: an open plan's run did not move.
        assert_eq!(run.interactions.len(), 110);
        assert_eq!(run.first_arrival.as_micros(), 35_588);
        assert_eq!(run.end.as_micros(), 5_292_490);
        assert_eq!(run.peak_queue_depth, 1);
        assert_eq!(run.in_flight_area_us, 51_186_925);
        let waits: u64 = run
            .interactions
            .iter()
            .map(|i| i.queue_wait.as_micros())
            .sum();
        let service: u64 = run.interactions.iter().map(|i| i.service.as_micros()).sum();
        assert_eq!((waits, service), (55_366, 1_156_519));
    }

    fn closed_plan(sessions: usize, first_session: usize) -> LoadPlan {
        LoadPlan {
            think: SimDuration::ZERO,
            closed: Some(1),
            first_session,
            ..plan(1.0, sessions)
        }
    }

    #[test]
    fn a_closed_plan_is_the_papers_session_loop() {
        for (arch, label) in Architecture::ALL {
            for first_session in [0, 3] {
                let plan = closed_plan(5, first_session);
                // The reference: one client performing session after
                // session, the script stream advanced past the offset.
                let reference = Testbed::build(arch, TestbedConfig::default());
                let mut generator = SessionGenerator::new(plan.session_seed, plan.population);
                for _ in 0..first_session {
                    generator.session();
                }
                let mut client = VirtualClient::new(&reference, 0);
                let mut expected = Vec::new();
                for _ in 0..plan.sessions {
                    for action in &generator.session() {
                        let outcome = client.perform(action);
                        expected.push((outcome.status, outcome.latency));
                    }
                }

                let tb = Testbed::build(arch, TestbedConfig::default());
                let run = LoadEngine::new(&tb).run(&plan, None);
                let got: Vec<(u16, SimDuration)> = run
                    .interactions
                    .iter()
                    .map(|i| (i.status, i.service))
                    .collect();
                assert_eq!(got, expected, "{label} from session {first_session}");
                assert!(
                    run.interactions
                        .iter()
                        .all(|i| i.queue_wait == SimDuration::ZERO),
                    "{label}: the closed client never queues"
                );
                assert_eq!(tb.clock.now(), reference.clock.now(), "{label}");
                assert_eq!(run.end, tb.clock.now());
                assert_eq!(run.sessions_completed, 5);
            }
        }
    }

    #[test]
    fn a_closed_plan_keeps_n_clients_live_each_on_its_edge() {
        let config = TestbedConfig {
            edges: 4,
            ..TestbedConfig::default()
        };
        for clients in [1usize, 2, 4] {
            let plan = LoadPlan {
                closed: Some(clients),
                ..closed_plan(3 * clients, 0)
            };
            let collect = || {
                let tb = Testbed::build(Architecture::EsRbes, config);
                let engine = LoadEngine::new(&tb);
                let metrics = Arc::clone(engine.metrics());
                let requests = |e: usize| tb.edges[e].server.metrics().requests();
                let mut served: Vec<u64> = (0..tb.edges.len()).map(requests).collect();
                // After each dispatch: the instant, the live level, the
                // completions so far and the edge that served it.
                let mut samples = Vec::new();
                let mut sample = |_: &[SpanEvent]| {
                    let edge = (0..served.len())
                        .find(|&e| requests(e) > served[e])
                        .expect("some edge served the dispatch");
                    served[edge] = requests(edge);
                    let (level, done) = (metrics.in_flight.get(), metrics.completions.get());
                    samples.push((tb.clock.now(), level, done, edge));
                };
                let run = engine.run_observed(&plan, None, Some(&mut sample));
                (run, samples)
            };
            let (run, samples) = collect();
            assert_eq!(samples.len(), run.interactions.len());
            assert_eq!(run.sessions_completed, 3 * clients as u64);
            let levels: Vec<u64> = samples.iter().map(|s| s.1).collect();
            assert!(
                levels.iter().all(|&l| l <= clients as u64),
                "{clients} clients: in_flight read {levels:?}"
            );
            assert_eq!(levels[0], clients as u64);
            assert!(run.peak_queue_depth <= clients as u64);

            // Client `c` runs on edge `c`: every session stays on one edge,
            // exactly the first `clients` edges serve, and an edge's
            // sessions follow one another without overlapping.
            let mut spans = vec![(usize::MAX, 0, usize::MAX); 3 * clients]; // (first, last, edge)
            for (k, (i, s)) in run.interactions.iter().zip(&samples).enumerate() {
                let span = &mut spans[i.session as usize];
                if span.0 == usize::MAX {
                    *span = (k, k, s.3);
                }
                assert_eq!(span.2, s.3, "session {} changed edge", i.session);
                span.1 = k;
            }
            let mut edges: Vec<usize> = spans.iter().map(|s| s.2).collect();
            edges.sort_unstable();
            edges.dedup();
            assert_eq!(edges, (0..clients).collect::<Vec<_>>());
            for e in 0..clients {
                let on_edge: Vec<_> = spans.iter().filter(|s| s.2 == e).collect();
                assert!(on_edge.windows(2).all(|w| w[0].1 < w[1].0), "edge {e}");
            }

            // No session waits to be admitted: until the last admission every
            // client is in a session, so the level integral is `clients` ×
            // that span plus the tail in which the last sessions drain.
            // (Round trips still serialise on the one virtual server, so
            // with more than one client an interaction can wait for
            // another client's; a lone client never does.)
            let mut completions = Vec::new(); // in time order
            let mut done_before = 0;
            for &(at, _, done, _) in &samples {
                if done > done_before {
                    completions.push(at.as_micros());
                }
                done_before = done;
            }
            assert_eq!(completions.len(), 3 * clients);
            let last = run.last_arrival.as_micros();
            let tail: u64 = completions[2 * clients..].iter().map(|c| c - last).sum();
            let span = (run.last_arrival - run.first_arrival).as_micros();
            assert_eq!(run.in_flight_area_us, clients as u64 * span + tail);
            if clients == 1 {
                assert_eq!(run.in_flight_area_us, run.makespan().as_micros());
                assert!(run
                    .interactions
                    .iter()
                    .all(|i| i.queue_wait == SimDuration::ZERO));
            }
            let ll = run.littles_law();
            assert!(ll.holds(1e-9), "relative error {}", ll.relative_error);
            assert_eq!(run.in_flight_area_us, run.residence_sum_us);
            assert_eq!((run, samples), collect(), "a closed plan replays");
        }
    }

    #[test]
    fn overload_builds_a_queue_and_underload_does_not() {
        // Service time is ~5–15 ms per interaction; 2 sessions/s (~22
        // interactions/s with 11 actions each at zero think) is light,
        // 2 000/s is far past saturation.
        let run_at = |rps: f64| {
            let tb = Testbed::build(Architecture::EsRdb(Flavor::Jdbc), TestbedConfig::default());
            let engine = LoadEngine::new(&tb);
            let mut p = plan(rps, 30);
            p.think = SimDuration::ZERO;
            engine.run(&p, None)
        };
        let light = run_at(2.0);
        let crushed = run_at(2_000.0);
        assert!(
            crushed.peak_queue_depth >= 10,
            "overload must pile sessions up, saw {}",
            crushed.peak_queue_depth
        );
        let wait = |r: &LoadedRun| {
            r.interactions
                .iter()
                .map(|i| i.queue_wait.as_micros())
                .sum::<u64>()
                / r.interactions.len() as u64
        };
        assert!(
            wait(&crushed) > 10 * wait(&light).max(1),
            "mean queue wait must explode past the knee: light {} vs crushed {}",
            wait(&light),
            wait(&crushed)
        );
        assert!(light.peak_queue_depth <= 3);
    }

    #[test]
    fn sessions_interleave_under_load() {
        let tb = Testbed::build(Architecture::EsRdb(Flavor::Jdbc), TestbedConfig::default());
        let engine = LoadEngine::new(&tb);
        let mut p = plan(500.0, 8);
        p.think = SimDuration::ZERO;
        let run = engine.run(&p, None);
        // Under heavy load the dispatch order must mix sessions rather
        // than running them back-to-back.
        let order: Vec<u32> = run.interactions.iter().map(|i| i.session).collect();
        let switches = order.windows(2).filter(|w| w[0] != w[1]).count();
        assert!(
            switches > 8,
            "expected interleaving, saw session order {order:?}"
        );
    }

    #[test]
    fn littles_law_is_an_exact_identity_for_the_engine() {
        let tb = Testbed::build(Architecture::EsRdb(Flavor::Jdbc), TestbedConfig::default());
        let engine = LoadEngine::new(&tb);
        let mut p = plan(200.0, 25);
        p.think = SimDuration::ZERO;
        let run = engine.run(&p, None);
        assert_eq!(run.sessions_completed, 25);
        // Fubini: the level integral and the residence sum are the same
        // quantity counted two ways — any difference is an accounting bug.
        assert_eq!(run.in_flight_area_us, run.residence_sum_us);
        assert!(run.in_flight_area_us > 0);
        let ll = run.littles_law();
        assert!(
            ll.holds(1e-9),
            "L = λW must hold exactly, relative error {}",
            ll.relative_error
        );
        assert!(ll.avg_in_flight > 0.0);
    }

    #[test]
    fn observed_runs_drain_every_span_exactly_once() {
        let run_with = |observe: bool| {
            let tb = Testbed::build(Architecture::EsRdb(Flavor::Jdbc), TestbedConfig::default());
            let engine = LoadEngine::new(&tb);
            let mut p = plan(300.0, 10);
            p.think = SimDuration::ZERO;
            if observe {
                let mut drained: Vec<SpanEvent> = Vec::new();
                let mut obs = |events: &[SpanEvent]| drained.extend_from_slice(events);
                engine.run_observed(&p, None, Some(&mut obs));
                assert!(
                    tb.commit_trace().is_empty(),
                    "observer must leave the log drained"
                );
                drained
            } else {
                engine.run(&p, None);
                tb.commit_trace().events()
            }
        };
        let drained = run_with(true);
        let whole = run_with(false);
        // Sessions complete out of admission order (swap_remove), yet the
        // per-dispatch drain must see the same spans as an end-of-run
        // harvest: none dropped, none twice.
        let key = |e: &SpanEvent| (e.trace_id, e.span_id, e.op, e.start_us, e.end_us);
        assert_eq!(drained.len(), whole.len());
        assert_eq!(
            drained.iter().map(key).collect::<Vec<_>>(),
            whole.iter().map(key).collect::<Vec<_>>()
        );
        let mut ids: Vec<(u64, u64)> = drained.iter().map(|e| (e.trace_id, e.span_id)).collect();
        let before = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), before, "span ids must be unique across drains");
    }

    /// Monitored runs admit this many sessions per second and script their
    /// fault this far in (ms): past the 100 completions that calibrate the
    /// drift charts and the 16 s that fill the slow burn window.
    const SESSIONS_PER_S: f64 = 2.0;
    const FAULT_AT_MS: u64 = 20_000;

    /// Asserts that `detector` fired strictly before every other detector.
    fn assert_first_page(detections: &[(&'static str, u64)], detector: &str) {
        let at = detections
            .iter()
            .find(|(d, _)| *d == detector)
            .unwrap_or_else(|| panic!("{detector} must page: {detections:?}"))
            .1;
        assert!(
            detections.iter().all(|(d, t)| *d == detector || *t > at),
            "{detector} must page first: {detections:?}"
        );
    }

    #[test]
    fn monitored_run_detects_a_scripted_outage_after_it_starts() {
        let tb = Testbed::build(Architecture::EsRbes, TestbedConfig::default());
        let engine = LoadEngine::new(&tb);
        let p = plan(SESSIONS_PER_S, 60);
        let mut monitor = SloMonitor::new()
            .with_label("EsRbes outage drill")
            .share_metrics(tb.monitor_metrics());
        let outage = FaultPlan {
            seed: 9,
            unavailable_per_mille: 1_000,
            ..FaultPlan::NONE
        };
        let script = [(
            SimDuration::from_millis(FAULT_AT_MS),
            FaultEvent::Dial(outage),
        )];
        let t0 = tb.clock.now().as_micros();
        let run = engine.run_with(
            &p,
            RunHooks {
                monitor: Some(&mut monitor),
                script: &script,
                ..RunHooks::default()
            },
        );
        assert_eq!(run.sessions_completed, 60, "the run must still complete");
        // Ground truth is the first *injected* fault, not the dial instant:
        // the plan change only bites on the next delivery attempt.
        let truth = tb
            .fault_first_effect_us()
            .expect("a total outage must inject at least one fault");
        assert!(
            truth >= t0 + FAULT_AT_MS * 1_000,
            "truth {truth} vs dial at {t0}"
        );
        let detections = monitor.detections();
        // RPC retries turn the outage into slow interactions, so the latency
        // chart pages first: it arms only once 100 clean completions
        // calibrated it.
        assert_first_page(&detections, "latency_ewma");
        for (name, at) in &detections {
            assert!(
                *at >= truth,
                "detector {name} fired at {at}, before the first injection at {truth}"
            );
        }
        // Every frozen incident is a valid artifact, and the shared
        // registry handles saw exactly those firings.
        assert_eq!(monitor.incidents().len(), detections.len());
        for incident in monitor.incidents() {
            assert_eq!(
                sli_telemetry::validate(&incident.to_json()),
                Ok(sli_telemetry::Schema::Incident)
            );
        }
        assert_eq!(
            tb.monitor_metrics().incidents.get(),
            detections.len() as u64
        );
        assert!(tb.monitor_metrics().evaluations.get() > 0);
    }

    #[test]
    fn monitored_clean_run_fires_nothing_and_matches_plain_run() {
        let interactions_of = |monitored: bool| {
            let tb = Testbed::build(Architecture::EsRdb(Flavor::Jdbc), TestbedConfig::default());
            let engine = LoadEngine::new(&tb);
            // Below the saturation knee: stationary latency. (Past the
            // knee, queue growth is *genuine* drift and should fire.)
            let p = plan(SESSIONS_PER_S, 40);
            if monitored {
                let mut monitor = SloMonitor::new();
                let run = engine.run_with(
                    &p,
                    RunHooks {
                        monitor: Some(&mut monitor),
                        ..RunHooks::default()
                    },
                );
                assert!(
                    monitor.incidents().is_empty(),
                    "clean traffic must not trip detectors: {:?}",
                    monitor.detections()
                );
                assert!(tb.fault_first_effect_us().is_none());
                run.interactions
            } else {
                engine.run(&p, None).interactions
            }
        };
        // Monitoring is pure observation: the run itself is bit-identical.
        assert_eq!(interactions_of(true), interactions_of(false));
    }

    /// A one-event script: kill `kind` at `at_ms`, restart it `down_ms` later.
    fn crash(at_ms: u64, kind: CrashKind, down_ms: u64) -> [(SimDuration, FaultEvent); 1] {
        let down_for = SimDuration::from_millis(down_ms);
        [(
            SimDuration::from_millis(at_ms),
            FaultEvent::Crash { kind, down_for },
        )]
    }

    #[test]
    fn scripted_backend_crash_recovers_and_the_run_completes() {
        let tb = Testbed::build(Architecture::EsRdb(Flavor::Jdbc), TestbedConfig::default());
        let engine = LoadEngine::new(&tb);
        let mut p = plan(60.0, 12);
        p.think = SimDuration::ZERO;
        let script = crash(40, CrashKind::Backend, 25);
        let hooks = RunHooks {
            script: &script,
            ..RunHooks::default()
        };
        let run = engine.run_with(&p, hooks);
        assert_eq!(run.sessions_completed, 12, "every session must finish");
        let wal = tb.db.wal_stats();
        assert_eq!(wal.recoveries, 1, "the restart must replay the WAL");
        assert!(wal.flushes > 0, "writing commits group-commit to the log");
        assert!(
            tb.fault_first_effect_us().is_some(),
            "RPCs into the downtime window must fail as outages"
        );
        assert!(
            run.interactions.iter().any(|i| i.status != 200),
            "some interaction lands in the downtime window"
        );
        assert!(
            run.interactions
                .iter()
                .rev()
                .take(5)
                .all(|i| i.status == 200),
            "traffic must be healthy again after the restart"
        );
        assert!(!tb.db.is_crashed());
    }

    #[test]
    fn scripted_crash_runs_replay_deterministically() {
        let collect = || {
            let tb = Testbed::build(Architecture::EsRbes, TestbedConfig::default());
            let engine = LoadEngine::new(&tb);
            let mut p = plan(50.0, 10);
            p.think = SimDuration::ZERO;
            let script = crash(30, CrashKind::Backend, 20);
            let hooks = RunHooks {
                script: &script,
                ..RunHooks::default()
            };
            let run = engine.run_with(&p, hooks);
            (run.interactions, tb.db.wal_stats())
        };
        assert_eq!(collect(), collect());
    }

    #[test]
    fn scripted_edge_crash_restarts_caches_cold() {
        let tb = Testbed::build(Architecture::EsRbes, TestbedConfig::default());
        let engine = LoadEngine::new(&tb);
        let mut p = plan(40.0, 10);
        p.think = SimDuration::ZERO;
        let script = crash(60, CrashKind::Edge, 20);
        let hooks = RunHooks {
            script: &script,
            ..RunHooks::default()
        };
        let run = engine.run_with(&p, hooks);
        assert_eq!(run.sessions_completed, 10);
        // The edge restarted cold mid-run, so the store was rebuilt by
        // post-restart misses — and no WAL replay happened (the database
        // machine never died).
        assert_eq!(tb.db.wal_stats().recoveries, 0);
        assert!(tb.edges[0].store.as_ref().unwrap().stats().misses > 0);
    }

    #[test]
    fn monitored_crash_is_detected_after_the_kill_and_replays_identically() {
        let kill_at = SimDuration::from_millis(FAULT_AT_MS);
        let collect = || {
            let tb = Testbed::build(Architecture::EsRbes, TestbedConfig::default());
            let engine = LoadEngine::new(&tb);
            let p = plan(SESSIONS_PER_S, 60);
            let mut monitor = SloMonitor::new().share_metrics(tb.monitor_metrics());
            let script = [(
                kill_at,
                FaultEvent::Crash {
                    kind: CrashKind::Backend,
                    down_for: SimDuration::from_millis(5_000),
                },
            )];
            let t0 = tb.clock.now();
            let run = engine.run_with(
                &p,
                RunHooks {
                    monitor: Some(&mut monitor),
                    script: &script,
                    ..RunHooks::default()
                },
            );
            assert_eq!(run.sessions_completed, 60, "the run must still complete");
            assert_eq!(tb.db.wal_stats().recoveries, 1);
            let detections = monitor.detections();
            // A dead back-end looks like the outage above to ES/RBES: RPC
            // retries slow every interaction, and the latency chart pages
            // first.
            assert_first_page(&detections, "latency_ewma");
            let killed_us = (t0 + kill_at).as_micros();
            for (name, at) in &detections {
                assert!(
                    *at >= killed_us,
                    "detector {name} fired at {at}, before the kill at {killed_us}"
                );
            }
            (run, detections)
        };
        assert_eq!(collect(), collect());
    }

    #[test]
    fn a_restart_holds_the_run_open_and_a_late_dial_does_not() {
        let run = |script: &[(SimDuration, FaultEvent)]| {
            let tb = Testbed::build(Architecture::EsRdb(Flavor::Jdbc), TestbedConfig::default());
            let mut p = plan(60.0, 6);
            p.think = SimDuration::ZERO;
            let t0 = tb.clock.now();
            let hooks = RunHooks {
                script,
                ..RunHooks::default()
            };
            let run = LoadEngine::new(&tb).run_with(&p, hooks);
            assert_eq!(run.sessions_completed, 6);
            (t0, run, tb)
        };
        let (_, unscripted, _) = run(&[]);

        // Killed mid-run and down far past the last session: the idle loop
        // wakes for the restart, so the run ends there with the back-end up.
        let (t0, crashed, tb) = run(&crash(40, CrashKind::Backend, 60_000));
        assert!(unscripted.end < t0 + SimDuration::from_millis(60_040));
        assert_eq!(crashed.end, t0 + SimDuration::from_millis(60_040));
        assert!(!tb.db.is_crashed());
        assert_eq!(tb.db.wal_stats().recoveries, 1);

        // A dial after the last session wakes nothing and never applies.
        let lossy = FaultPlan::lossy(5, 500);
        let (_, dialled, tb) = run(&[(SimDuration::from_secs(60), FaultEvent::Dial(lossy))]);
        assert_eq!(dialled.end, unscripted.end);
        assert!(tb.fault_first_effect_us().is_none());
    }

    #[test]
    fn engine_metrics_land_in_the_registry() {
        let tb = Testbed::build(Architecture::EsRdb(Flavor::Jdbc), TestbedConfig::default());
        let engine = LoadEngine::new(&tb);
        engine.run(&plan(100.0, 5), None);
        let names = tb.telemetry().names();
        for expected in [
            "engine.arrivals",
            "engine.completions",
            "engine.in_flight",
            "engine.queue_depth",
            "engine.queue_wait_us",
        ] {
            assert!(
                names.iter().any(|n| n == expected),
                "missing {expected}; have {names:?}"
            );
        }
    }
}
