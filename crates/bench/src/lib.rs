//! # sli-bench — the experiment harness
//!
//! One binary, `paper`, regenerates the paper's evaluation — the one
//! experiment behind Tables 1 and 2 and Figures 6–8 — beside the extension
//! studies and the harness's own validation and profiling bins:
//!
//! | binary | regenerates / checks |
//! |---|---|
//! | `paper` | Tables 1–2 and Figs. 6–8 from one latency-vs-delay sweep |
//! | `ablation_batching` | commit-batching ablation (paper §4.4) |
//! | `contention` | optimistic aborts and conflict leaderboard vs closed clients |
//! | `knee` | throughput–latency curves, saturation knees, aggregate profile |
//! | `whatif` | causal profiles via virtual resource speedups |
//! | `perfguard` | the guarded metrics, one per line, for the oracle's diff |
//! | `monitor` | online SLO detection: false-positive gate + time-to-detect table |
//! | `slicheck` | serializability checker across the seven combinations |
//! | `tracecheck` | schema validation of every exported artifact |
//!
//! All of them share the [`Cli`] parser: `--help` documents each bin and
//! exits 0, unknown arguments exit 2. Full runs write to `results/`,
//! `--smoke` runs to `results/smoke/` ([`results_dir`]), so a CI rehearsal
//! never touches the checked-in full-run CSVs.
//!
//! This library hosts the one way to measure — [`run`] takes a [`RunSpec`]
//! (architecture, delay, and a closed or open [`Admission`]) and returns
//! [`RunArtifacts`] — and the one way to export: bins collect runs into an
//! [`ArtifactSet`] and call [`ArtifactSet::write_all`]. A delay or rate
//! sweep is `points.iter().map(|p| run(&spec_at(p)))`.
//!
//! Every run is two plans on one [`sli_arch::LoadEngine`]: a closed warm-up
//! with one client per edge, then the measured phase under the spec's
//! admission. [`RunSpec::closed`] is the paper's §4.3 protocol — one
//! virtual client, 400 warm-up sessions, 300 measured sessions (~11 interactions each),
//! latencies averaged over 20 batches, and a least-squares fit across the
//! delay sweep ([`sensitivity`]) — on the paper's wire, one round trip per
//! statement. [`RunSpec::open`] offers sessions at a configured arrival
//! rate instead, so latency includes queue wait, on the same wire. The
//! online SLO monitor, the what-if resource scale and the wire-batching
//! switch apply to either.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use sli_arch::{
    arch_key, collect_report, Architecture, FaultEvent, LoadEngine, LoadPlan, LoadedInteraction,
    RunHooks, Testbed, TestbedConfig,
};
use sli_simnet::{FaultPlan, SimDuration};
use sli_telemetry::{
    chrome_trace, conflict_leaderboard, sparkline, validate, ArchReport, Breakdown, Bucket,
    ConflictEntry, Json, LittlesLaw, Profile, Resource, RunReport, Schema, SloMonitor, SpanDetail,
    SpanEvent, TimelineDoc, TimelineReport,
};
use sli_trade::seed::Population;
use sli_workload::{
    batch_means, fit, percentile, ArrivalPlan, ArrivalProcess, Csv, LinearFit, RunStats, TextTable,
};

mod cli;
mod guard;
pub mod paper;

pub use cli::{Cli, CliArgs, CliError};
pub use guard::{guard_csv, guard_run, guard_suite, GuardEntry, GuardMetric};

/// The workload RNG seed of every standard protocol (Middleware 2004): it
/// seeds every run's session scripts, and an open run's arrivals and
/// dispatch scheduler.
pub const PAPER_SEED: u64 = 20040101;

/// Everything that defines one measured run: where (architecture, delay,
/// data), how much of it, and how sessions are admitted. Every run seeds
/// its workload with [`PAPER_SEED`].
#[derive(Debug, Clone, Copy)]
pub struct RunSpec {
    /// The architecture × flavor combination under test.
    pub arch: Architecture,
    /// Injected one-way delay on the architecture's delayed path.
    pub delay: SimDuration,
    /// The seeded database the scripts draw users and symbols from (the
    /// default everywhere but `contention`'s hot working set).
    pub population: Population,
    /// Closed warm-up sessions (one client per edge) before measurement
    /// (cache and connection state; paper: 400).
    pub warmup_sessions: usize,
    /// Measured sessions (paper: 300).
    pub sessions: usize,
    /// Batches for the batched latency average (paper: 20).
    pub batches: usize,
    /// Whether remote database connections batch statements onto the wire
    /// (`OP_EXEC_BATCH`, the §4.4 conjecture). Both protocols set `false`,
    /// the paper's wire: one round trip per statement.
    pub wire_batching: bool,
    /// At most one resource virtually sped up by a factor, for what-if
    /// runs (`None` by default: measured costs).
    pub scale: Option<(Resource, f64)>,
    /// `Some` runs under the online SLO monitor: `Some(None)` on clean
    /// traffic, `Some(Some(fault))` with `fault` scripted mid-run.
    pub monitor: Option<Option<FaultClass>>,
    /// How the measured phase admits sessions.
    pub admission: Admission,
}

/// How the measured phase admits sessions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Admission {
    /// `clients` virtual clients, each issuing a request, waiting for the
    /// response and repeating, and starting its next session the instant
    /// its last one ends. The testbed gets one edge per client. One client
    /// is the paper's §4.3 protocol.
    Closed {
        /// How many clients (and edges).
        clients: usize,
    },
    /// Sessions *arrive* at a configured rate whether or not earlier ones
    /// have finished, so latency includes queue wait.
    Open {
        /// Session arrival rate (sessions per second of virtual time). Each
        /// session issues ~11 interactions, so the offered interaction rate
        /// is roughly 11× this.
        session_rps: f64,
    },
}

impl RunSpec {
    /// The §4.3 closed-loop protocol for `arch` at `delay`, on the paper's
    /// wire (no statement batching); `quick` scales it down (20 warm-up +
    /// 30 measured sessions, 5 batches) for unit tests and `--smoke` runs.
    pub fn closed(arch: Architecture, delay: SimDuration, quick: bool) -> RunSpec {
        RunSpec {
            arch,
            delay,
            population: Population::default(),
            warmup_sessions: if quick { 20 } else { 400 },
            sessions: if quick { 30 } else { 300 },
            batches: if quick { 5 } else { 20 },
            wire_batching: false,
            scale: None,
            monitor: None,
            admission: Admission::Closed { clients: 1 },
        }
    }

    /// The standard open-loop protocol at `session_rps` Poisson arrivals
    /// per second: 200 sessions measured after a 40-session warm-up, or
    /// 60 after 10 when `quick`; 20 batches either way; on the paper's
    /// wire, as [`RunSpec::closed`].
    pub fn open(arch: Architecture, delay: SimDuration, session_rps: f64, quick: bool) -> RunSpec {
        RunSpec {
            warmup_sessions: if quick { 10 } else { 40 },
            sessions: if quick { 60 } else { 200 },
            batches: 20,
            admission: Admission::Open { session_rps },
            ..RunSpec::closed(arch, delay, quick)
        }
    }
}

/// The throughput, latency and traffic summary of one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunSummary {
    /// Injected one-way delay in milliseconds.
    pub delay_ms: f64,
    /// Empirical offered interaction rate of an open run: interactions
    /// divided by the realized arrival span, so sampling noise in a random
    /// schedule doesn't masquerade as a throughput deficit. A closed client
    /// offers exactly what it is served: `achieved_tps`.
    pub offered_tps: f64,
    /// Achieved interaction throughput over the run's makespan.
    pub achieved_tps: f64,
    /// Batched mean total latency (queue wait + service) in ms.
    pub latency_ms: f64,
    /// Standard deviation across batch means.
    pub latency_stdev_ms: f64,
    /// Median total latency (ms), over raw interactions like every
    /// percentile here.
    pub latency_p50_ms: f64,
    /// 95th-percentile total latency (ms).
    pub latency_p95_ms: f64,
    /// 99th-percentile total latency (ms).
    pub latency_p99_ms: f64,
    /// Mean service time alone (ms), for separating queueing delay from
    /// service cost; a lone closed client's whole latency.
    pub service_ms: f64,
    /// 95th-percentile queue wait (ms).
    pub queue_wait_p95_ms: f64,
    /// Largest ready-queue depth the engine observed.
    pub peak_queue_depth: u64,
    /// Bytes to the shared site per client interaction (Figure 8 metric).
    pub shared_bytes_per_interaction: f64,
    /// Mean wire round trips per interaction over the architecture's
    /// delayed paths (every edge's) — the quantity statement batching
    /// exists to shrink.
    pub round_trips_per_interaction: f64,
    /// Those round trips in all.
    pub round_trips: u64,
    /// Interactions that returned HTTP 200.
    pub ok: usize,
    /// Interactions that returned a non-200 status.
    pub failed: usize,
}

/// Trace data harvested from the measured phase of a run: the per-bucket
/// latency breakdown, every OCC-conflict forensics event, and a sampled
/// window of raw span events suitable for Chrome-trace export.
///
/// [`run`] drains the testbed's bounded [`TraceLog`] after every dispatch,
/// so no mid-measurement span is ever evicted and the breakdown covers
/// *every* measured interaction even at the paper's full 300-session
/// protocol.
///
/// [`TraceLog`]: sli_telemetry::TraceLog
#[derive(Clone, Debug, Default)]
pub struct TraceHarvest {
    /// The run's [`Profile::breakdown`], over every measured request.
    pub breakdown: Breakdown,
    /// All conflict-forensics (`occ.conflict`) events observed while
    /// measuring, across the whole run.
    pub conflict_events: Vec<SpanEvent>,
    /// Complete raw span events from the head of the measured phase —
    /// a bounded, representative sample for the Chrome-trace export.
    pub sample_events: Vec<SpanEvent>,
}

impl TraceHarvest {
    /// Folds another harvest into this one. Breakdowns and conflicts
    /// accumulate; the span sample keeps the first non-empty window so a
    /// sweep's exported trace stays one readable file.
    pub fn merge(&mut self, other: TraceHarvest) {
        self.breakdown.merge(&other.breakdown);
        self.conflict_events.extend(other.conflict_events);
        if self.sample_events.is_empty() {
            self.sample_events = other.sample_events;
        }
    }

    /// Keeps one drained batch's conflict events, and its raw spans for the
    /// Chrome-trace export while the sample is under its cap.
    fn absorb(&mut self, events: &[SpanEvent]) {
        self.conflict_events
            .extend(events.iter().filter(|e| e.conflict().is_some()).cloned());
        if self.sample_events.len() < SAMPLE_EVENTS {
            self.sample_events.extend_from_slice(events);
        }
    }

    /// Per-entity OCC abort leaderboard over the harvested conflicts,
    /// hottest entity first.
    pub fn leaderboard(&self) -> Vec<ConflictEntry> {
        conflict_leaderboard(&self.conflict_events)
    }
}

/// Span-sample cap: the per-dispatch drain keeps appending whole traces
/// until the sample holds at least this many events — about a session and
/// a half, a window a trace viewer shows legibly.
const SAMPLE_EVENTS: usize = 400;

/// What one Trade action did in a run's measured phase, folded from the
/// traces whose `servlet.{action}` span names it.
#[derive(Clone, Debug, Default)]
pub struct ActionTally {
    /// Its traces, one per interaction.
    pub interactions: u64,
    /// Its round trips over the delayed path: on Clients/RAS the client
    /// hop's `net.client.request` crossings, elsewhere the `rpc.attempt`s
    /// inside no other attempt (one inside is the back-end's own database
    /// call, over the LAN).
    pub delayed_round_trips: u64,
    /// The `{table}.{kind}` classes of its `db.stmt` spans (a statement
    /// inside a `db.batch` span names no table).
    pub statements: BTreeSet<Arc<str>>,
}

/// Folds a drained batch of traces into `actions`, keyed by the action
/// their servlet spans name (`buy` for `servlet.buy`).
fn tally_actions(events: &[SpanEvent], client_hop: bool, actions: &mut Actions) {
    let mut spans: Vec<&SpanEvent> = events.iter().filter(|e| e.trace_id != 0).collect();
    spans.sort_unstable_by_key(|e| (e.trace_id, e.span_id));
    let parent = |e: &SpanEvent| {
        let at = spans
            .binary_search_by_key(&(e.trace_id, e.parent_span_id), |p| (p.trace_id, p.span_id));
        at.ok().map(|at| spans[at])
    };
    for trace in spans.chunk_by(|a, b| a.trace_id == b.trace_id) {
        let Some(action) = trace.iter().find_map(|e| e.op.strip_prefix("servlet.")) else {
            continue;
        };
        let tally = actions.entry(action).or_default();
        tally.interactions += 1;
        let nested = |e| {
            let mut outer = std::iter::successors(parent(e), |p| parent(p)).take(trace.len());
            outer.any(|p| p.op == "rpc.attempt")
        };
        for e in trace {
            let trip = match (e.op, &e.detail) {
                ("net.client.request", _) => client_hop,
                ("rpc.attempt", _) => !client_hop && !nested(e),
                ("db.stmt", Some(SpanDetail::Statement { class })) if !class.is_empty() => {
                    tally.statements.insert(Arc::clone(class));
                    false
                }
                _ => false,
            };
            tally.delayed_round_trips += u64::from(trip);
        }
    }
}

/// Per action (`buy`, `update`, ...), what it did in a run.
pub type Actions = BTreeMap<&'static str, ActionTally>;

/// Everything one measured run yields.
#[derive(Clone, Debug)]
pub struct RunArtifacts {
    /// The structured per-architecture report row (cache hit ratio, commit
    /// abort rate, RPC retry/timeout counts, latency percentiles, HTTP
    /// status mix). Telemetry is reset after warm-up, so it covers exactly
    /// the measured interactions; latencies are total, queue wait included.
    pub report: ArchReport,
    /// Per-bucket breakdown, conflict forensics and span sample.
    pub harvest: TraceHarvest,
    /// Per-window rate/level series of the measured phase, the engine's
    /// `engine.*` queue/in-flight series included. Rebased at the
    /// warm-up/measure boundary, so rate totals match the report's counter
    /// reads.
    pub timeline: TimelineReport,
    /// Throughput, latency and traffic summary.
    pub summary: RunSummary,
    /// The aggregate cross-session profile: per-class self times,
    /// collapsed stacks and per-resource attribution. Conserving: the
    /// classes sum to the sum of the measured latencies.
    pub profile: Profile,
    /// Little's-law cross-check over the measured phase (exact identity
    /// for a clean run; `L` = 1 for a closed one).
    pub littles: LittlesLaw,
    /// Ground-truth disturbance onset of a monitored run, µs of virtual
    /// time. For fault injection this is the first *actually injected*
    /// fault ([`sli_arch::DataTier::fault_first_effect_us`]) — dialling a
    /// plan has no observable effect until a delivery attempt draws a
    /// fault. For a flash crowd it is the scripted surge instant.
    pub truth_us: Option<u64>,
    /// `(detector, virtual firing instant µs)` for every latched detector
    /// (empty when unmonitored).
    pub detections: Vec<(&'static str, u64)>,
    /// Every frozen incident, rendered and schema-validated.
    pub incidents: Vec<Json>,
    /// What each Trade action did, folded from the spans.
    pub actions: Actions,
}

impl RunArtifacts {
    /// Time-to-detect for `detector` in virtual ms: firing instant minus
    /// ground truth. `None` if the detector never fired or the run had no
    /// disturbance.
    pub fn ttd_ms(&self, detector: &str) -> Option<f64> {
        let truth = self.truth_us?;
        let (_, at) = self.detections.iter().find(|(d, _)| *d == detector)?;
        Some((*at as f64 - truth as f64) / 1_000.0)
    }

    /// The earliest-firing incident — the page an operator would open.
    pub fn earliest_incident(&self) -> Option<&Json> {
        let (first, _) = self.detections.iter().min_by_key(|(_, at)| *at)?;
        self.incidents
            .iter()
            .find(|json| json.get("detector").and_then(Json::as_str) == Some(*first))
    }
}

/// Measures one point: builds the testbed for `spec.arch` (one edge per
/// closed client, one edge for an open run), warms it up with one closed
/// client per edge, resets telemetry, then runs the measured phase under
/// `spec.admission` — the one entry point behind every figure, table, gate
/// and sweep of this crate. Both phases are plans on one [`LoadEngine`].
///
/// # Panics
/// Panics on a closed spec monitored under [`FaultClass::FlashCrowd`] (an
/// arrival surge needs arrivals), if a frozen incident fails [`validate`] —
/// an artifact the monitor itself produced must round-trip its own schema —
/// and if the span log evicted anything during the measured phase, naming
/// how many events: the profile and breakdown would silently lack the
/// traces those spans belonged to.
pub fn run(spec: &RunSpec) -> RunArtifacts {
    let edges = match spec.admission {
        Admission::Closed { clients } => clients,
        Admission::Open { .. } => 1,
    };
    let testbed = Testbed::build(
        spec.arch,
        TestbedConfig {
            population: spec.population,
            edges,
            wire_batching: spec.wire_batching,
            ..TestbedConfig::default()
        },
    );
    testbed.set_delay(spec.delay);
    if let Some((resource, speedup)) = spec.scale {
        testbed.clock.set_speedup(resource, speedup);
    }
    // The engine registers `engine.*` on construction; building it first
    // makes those metrics part of the timeline like any machine's.
    let engine = LoadEngine::new(&testbed);
    let (session_rps, timeline_window_us) = match spec.admission {
        Admission::Closed { .. } => (None, 100_000),
        Admission::Open { session_rps } => (Some(session_rps), 500_000),
    };
    let timeline = testbed.standard_timeline(timeline_window_us);

    // A monitored run's arrival process and fault script realise its
    // scenario.
    let scenario = spec.monitor.flatten();
    let mut process = ArrivalProcess::Poisson;
    let dialled = scenario.and_then(|fault| match fault {
        FaultClass::BackendOutage => Some(FaultPlan {
            seed: PAPER_SEED,
            unavailable_per_mille: 1_000,
            ..FaultPlan::NONE
        }),
        FaultClass::LossBurst => Some(FaultPlan::lossy(PAPER_SEED, LOSS_BURST_PER_MILLE)),
        FaultClass::FlashCrowd => {
            assert!(
                session_rps.is_some(),
                "a flash crowd is a surge in an open run's arrival rate"
            );
            process = ArrivalProcess::FlashCrowd {
                at_us: FAULT_AT_MS * 1_000,
                dur_us: FAULT_DUR_MS * 1_000,
                peak: FLASH_CROWD_PEAK,
            };
            None
        }
    });
    // An outage or a loss burst is its plan dialled in, then dialled out.
    let (at_ms, until_ms) = (FAULT_AT_MS, FAULT_AT_MS + FAULT_DUR_MS);
    let script: Vec<(SimDuration, FaultEvent)> = dialled
        .into_iter()
        .flat_map(|plan| [(at_ms, plan), (until_ms, FaultPlan::NONE)])
        .map(|(ms, plan)| (SimDuration::from_millis(ms), FaultEvent::Dial(plan)))
        .collect();

    // The warm-up every run shares: one closed client per edge over the
    // head of the `PAPER_SEED` script stream, ending at the warm-up/measure
    // boundary — telemetry is reset and the timeline rebased, so everything
    // downstream covers exactly the measured phase.
    let warm_up = LoadPlan {
        // Consulted by an open measured phase only.
        arrivals: ArrivalPlan {
            seed: PAPER_SEED,
            rps: session_rps.unwrap_or(0.0),
            process,
        },
        sessions: spec.warmup_sessions,
        // No think time: latency is pure service, the knee pure queueing.
        think: SimDuration::ZERO,
        session_seed: PAPER_SEED,
        scheduler_seed: PAPER_SEED ^ 0x5c4e_d01e,
        population: spec.population,
        closed: Some(edges),
        first_session: 0,
    };
    if spec.warmup_sessions > 0 {
        engine.run_with(&warm_up, RunHooks::default());
    }
    testbed.reset_telemetry();
    timeline.rebase(testbed.clock.now().as_micros());

    // A closed measured phase continues the warm-up's script stream; an
    // open one draws its own.
    let plan = match spec.admission {
        Admission::Closed { .. } => LoadPlan {
            sessions: spec.sessions,
            first_session: spec.warmup_sessions,
            ..warm_up
        },
        Admission::Open { .. } => LoadPlan {
            sessions: spec.sessions,
            session_seed: PAPER_SEED ^ 0x5e55_1011,
            closed: None,
            ..warm_up
        },
    };
    let mut monitor = spec.monitor.map(|fault| {
        let scenario = fault.map_or("clean", FaultClass::key);
        let mut monitor = SloMonitor::new()
            .with_label(format!("{} {scenario}", arch_key(spec.arch)))
            .share_metrics(testbed.monitor_metrics());
        monitor.set_context("arch", Json::from(arch_key(spec.arch)));
        monitor.set_context("scenario", Json::from(scenario));
        monitor.set_context("delay_ms", Json::from(spec.delay.as_micros() / 1_000));
        if let Some(rps) = session_rps {
            monitor.set_context("session_rps", Json::from(rps));
        }
        monitor.set_context(
            "fault_plan",
            fault_plan_json(dialled.unwrap_or(FaultPlan::NONE)),
        );
        monitor
    });
    let mut harvest = TraceHarvest::default();
    let mut profile = Profile::default();
    let mut actions = Actions::new();
    let client_hop = matches!(spec.arch, Architecture::ClientsRas(_));
    let mut observer = |events: &[SpanEvent]| {
        profile.fold(events);
        harvest.absorb(events);
        tally_actions(events, client_hop, &mut actions);
    };
    let t0 = testbed.clock.now().as_micros();
    let run = engine.run_with(
        &plan,
        RunHooks {
            timeline: Some(&timeline),
            observer: Some(&mut observer),
            monitor: monitor.as_mut(),
            script: &script,
        },
    );

    // The log was emptied at the warm-up boundary and is drained after
    // every dispatch, so it never fills; if it did, the beheaded traces
    // would be missing from every aggregate below without a word.
    let evicted = testbed.commit_trace().evicted();
    assert!(
        evicted == 0,
        "the span log evicted {evicted} events during the measured phase: \
         the harvest is not whole"
    );

    let offered_tps = match spec.admission {
        Admission::Closed { .. } => run.achieved_tps(),
        Admission::Open { .. } => {
            let arrival_span_s = (run.last_arrival - run.first_arrival).as_micros() as f64 / 1e6;
            run.interactions.len() as f64 / arrival_span_s.max(1e-6)
        }
    };
    let ms = |part: fn(&LoadedInteraction) -> SimDuration| -> Vec<f64> {
        let parts = run.interactions.iter();
        parts.map(|i| part(i).as_millis_f64()).collect()
    };
    let (totals, waits, services) = (ms(|i| i.total()), ms(|i| i.queue_wait), ms(|i| i.service));
    let ok = run.interactions.iter().filter(|i| i.status == 200).count();
    let failed = run.interactions.len() - ok;
    let interactions = run.interactions.len().max(1) as f64;
    let report = collect_report(&testbed, spec.delay, &totals, failed as u64);
    let batched = batch_means(&totals, spec.batches).overall;
    let round_trips: u64 = (0..edges)
        .map(|e| testbed.delayed_path(e).stats().round_trips())
        .sum();
    let summary = RunSummary {
        delay_ms: spec.delay.as_millis_f64(),
        offered_tps,
        achieved_tps: run.achieved_tps(),
        latency_ms: batched.mean,
        latency_stdev_ms: batched.stdev,
        latency_p50_ms: percentile(&totals, 0.50).unwrap_or(0.0),
        latency_p95_ms: percentile(&totals, 0.95).unwrap_or(0.0),
        latency_p99_ms: percentile(&totals, 0.99).unwrap_or(0.0),
        service_ms: RunStats::of(&services).mean,
        queue_wait_p95_ms: percentile(&waits, 0.95).unwrap_or(0.0),
        peak_queue_depth: run.peak_queue_depth,
        shared_bytes_per_interaction: testbed.shared_site_bytes() as f64 / interactions,
        round_trips_per_interaction: round_trips as f64 / interactions,
        round_trips,
        ok,
        failed,
    };
    let timeline = timeline.report(match (session_rps, edges) {
        (None, 1) => format!("{} @ {:.0}ms", report.arch, summary.delay_ms),
        (None, n) => format!("{} @ {:.0}ms x{n} clients", report.arch, summary.delay_ms),
        (Some(rps), _) => format!("{} loaded @ {rps:.2} sessions/s", report.arch),
    });
    let truth_us = scenario.and_then(|fault| match fault {
        FaultClass::FlashCrowd => Some(t0 + FAULT_AT_MS * 1_000),
        _ => testbed.fault_first_effect_us(),
    });
    let incidents = monitor.as_ref().map_or_else(Vec::new, |monitor| {
        monitor
            .incidents()
            .iter()
            .map(|incident| {
                let json = incident.to_json();
                validate(&json).expect("monitor-frozen incident validates");
                json
            })
            .collect()
    });
    harvest.breakdown = profile.breakdown();
    RunArtifacts {
        report,
        harvest,
        timeline,
        summary,
        profile,
        littles: run.littles_law(),
        truth_us,
        detections: monitor.map_or_else(Vec::new, |m| m.detections()),
        incidents,
        actions,
    }
}

/// Renders the latency-breakdown table the figure/table binaries print:
/// one row per series, with the mean per-request milliseconds and share
/// attributed to each [`Bucket`].
fn breakdown_table(series: &[(String, TraceHarvest)]) -> String {
    let mut header: Vec<&str> = vec!["series", "traces", "mean ms"];
    header.extend(Bucket::ALL.iter().map(|b| b.label()));
    let mut table = TextTable::new(&header);
    for (name, harvest) in series {
        let b: &Breakdown = &harvest.breakdown;
        let mut cells = vec![
            name.clone(),
            b.traces.to_string(),
            format!("{:.2}", b.mean_ms()),
        ];
        for bucket in Bucket::ALL {
            let per_trace_ms = b.bucket_us(bucket) as f64 / b.traces.max(1) as f64 / 1000.0;
            cells.push(format!(
                "{per_trace_ms:.2} ms ({:.0}%)",
                b.share(bucket) * 100.0
            ));
        }
        table.row(cells);
    }
    table.render()
}

/// Combines per-series span samples into one exportable event list.
///
/// Every testbed's deterministic id counter starts from the same point, so
/// samples from independently-built testbeds would collide on
/// `(trace_id, span_id)`; each series' trace ids are shifted into their own
/// namespace before concatenation.
fn combined_sample(harvests: &[(String, TraceHarvest)]) -> Vec<SpanEvent> {
    let mut out = Vec::new();
    for (i, (_, h)) in harvests.iter().enumerate() {
        let offset = (i as u64) << 32;
        out.extend(h.sample_events.iter().cloned().map(|mut e| {
            e.trace_id += offset;
            e
        }));
    }
    out
}

/// `results/` for full runs, `results/smoke/` for `--smoke` runs: the
/// directory every bin hands to [`ArtifactSet::write_all`], so a scaled-down
/// CI rehearsal never overwrites the checked-in full-run CSVs.
pub fn results_dir(smoke: bool) -> &'static str {
    if smoke {
        "results/smoke"
    } else {
        "results"
    }
}

/// Everything a bin exports. A bin fills the parts it publishes; parts
/// left empty are not written.
#[derive(Debug, Default)]
pub struct ArtifactSet {
    /// One row per run → `{name}.report.json` (`sli-edge.run-report/v1`).
    pub report: RunReport,
    /// One timeline per run → `{name}.timeline.json`
    /// (`sli-edge.timeline/v1`).
    pub timelines: Vec<TimelineReport>,
    /// One merged harvest per named series; their span samples combine
    /// into `{name}.trace.json` (Chrome trace-event format).
    pub harvests: Vec<(String, TraceHarvest)>,
    /// The aggregate profile → `{name}.folded` (collapsed stacks,
    /// speedscope / inferno / `flamegraph.pl` loadable) and
    /// `{name}.profile.json` (`sli-edge.profile/v1`).
    pub profile: Profile,
    /// The label stamped into the profile document.
    pub profile_label: String,
    /// `(file stem, incident)` → `{stem}.incident.json`
    /// (`sli-edge.incident/v1`).
    pub incidents: Vec<(String, Json)>,
    /// `(file stem, table)` → `{stem}.csv`: the paper-facing tables.
    pub csvs: Vec<(&'static str, Csv)>,
}

impl ArtifactSet {
    /// An empty set whose run report is titled `title`.
    pub fn new(title: &str) -> ArtifactSet {
        ArtifactSet {
            report: RunReport::new(title),
            ..ArtifactSet::default()
        }
    }

    /// Adds one run's report row, timeline and trace harvest under
    /// `series`, and hands back its summary. Consecutive runs of one series
    /// share a harvest: breakdowns and conflicts accumulate while the
    /// exported trace keeps one sample per series.
    pub fn push(&mut self, series: &str, run: RunArtifacts) -> RunSummary {
        self.report.entries.push(run.report);
        self.timelines.push(run.timeline);
        match self.harvests.last_mut() {
            Some((name, harvest)) if name == series => harvest.merge(run.harvest),
            _ => self.harvests.push((series.to_owned(), run.harvest)),
        }
        run.summary
    }

    /// Prints the critical-path breakdown of every series and the timeline
    /// of each series' last run (`runs_per_series` consecutive runs each —
    /// the highest delay of a sweep, where the timeline is most
    /// interesting; the full set lands in the timeline JSON).
    pub fn print_summary(&self, runs_per_series: usize) {
        println!("\nCritical-path latency breakdown (mean per request, per series):");
        println!("{}", breakdown_table(&self.harvests));
        println!("\nVirtual-time timelines (last run of each series):");
        for runs in self.timelines.chunks(runs_per_series) {
            if let Some(last) = runs.last() {
                println!("{}", timeline_table(last));
            }
        }
    }

    /// Writes every non-empty part to `{dir}/{name}.*` (incidents and
    /// tables to `{dir}/{stem}.*`, under their own stems), first checking
    /// that each JSON document [`validate`]s as the kind its part holds
    /// (laws included: conservation, every span within its parent);
    /// nothing is written if any part is invalid. Returns the paths
    /// written.
    ///
    /// # Errors
    /// Returns a description of the validation or I/O failure.
    pub fn write_all(&self, dir: &str, name: &str) -> Result<Vec<String>, String> {
        let check = |json: &Json, want: Schema| match validate(json)? {
            kind if kind == want => Ok(()),
            kind => Err(format!("a {kind:?} document")),
        };
        let mut files: Vec<(String, String)> = Vec::new();
        let mut add = |stem: &str, ext: &str, body: String| {
            files.push((format!("{dir}/{stem}.{ext}"), body));
        };
        if !self.report.entries.is_empty() {
            let json = self.report.to_json();
            check(&json, Schema::RunReport).map_err(|e| format!("run report: {e}"))?;
            add(name, "report.json", json.render());
        }
        if !self.harvests.is_empty() {
            let doc = chrome_trace(&combined_sample(&self.harvests));
            check(&doc, Schema::ChromeTrace).map_err(|e| format!("trace: {e}"))?;
            add(name, "trace.json", doc.render());
        }
        if !self.timelines.is_empty() {
            let mut doc = TimelineDoc::new(name);
            doc.runs.clone_from(&self.timelines);
            let json = doc.to_json();
            check(&json, Schema::Timeline).map_err(|e| format!("timeline: {e}"))?;
            add(name, "timeline.json", json.render());
        }
        if self.profile.traces > 0 {
            let json = self.profile.to_json(&self.profile_label);
            check(&json, Schema::Profile).map_err(|e| format!("profile: {e}"))?;
            add(name, "folded", self.profile.folded());
            add(name, "profile.json", json.render());
        }
        for (stem, incident) in &self.incidents {
            check(incident, Schema::Incident).map_err(|e| format!("incident {stem}: {e}"))?;
            add(stem, "incident.json", incident.render());
        }
        for (stem, csv) in &self.csvs {
            add(stem, "csv", csv.render());
        }
        std::fs::create_dir_all(dir).map_err(|e| format!("create {dir}/: {e}"))?;
        for (path, body) in &files {
            std::fs::write(path, body).map_err(|e| format!("write {path}: {e}"))?;
        }
        Ok(files.into_iter().map(|(path, _)| path).collect())
    }

    /// [`ArtifactSet::write_all`] for a bin's `main`: lists the files
    /// written, or reports the failure and exits 1.
    pub fn write_or_exit(&self, dir: &str, name: &str) {
        match self.write_all(dir, name) {
            Ok(paths) => println!("(written: {})", paths.join(", ")),
            Err(e) => {
                eprintln!("error: export failed validation: {e}");
                std::process::exit(1);
            }
        }
    }
}

/// The three virtually-speedable resources of the what-if engine: each is
/// sped up with [`Clock::set_speedup`](sli_simnet::Clock::set_speedup) and
/// charged through [`Clock::charge`](sli_simnet::Clock::charge). Store-lock is deliberately absent:
/// it holds only the ES/RBES back-end's CPU, which no knob models, so
/// `whatif.csv` keeps that time at nominal on every ablation.
pub const WHATIF_KNOBS: [Resource; 3] = [Resource::Wire, Resource::BackendDb, Resource::EdgeCpu];

/// One row of a causal profile: what actually happened when `resource` was
/// virtually sped up by `speedup`, compared with what the aggregate
/// profile predicted.
#[derive(Debug, Clone, Copy)]
pub struct WhatIfRow {
    /// The resource whose knob was turned.
    pub resource: Resource,
    /// The applied virtual speedup factor (`f` → costs scaled by `1/f`).
    pub speedup: f64,
    /// Achieved throughput with the speedup applied.
    pub achieved_tps: f64,
    /// Mean total latency (ms) with the speedup applied.
    pub latency_ms: f64,
    /// p95 total latency (ms) with the speedup applied.
    pub latency_p95_ms: f64,
    /// Measured causal share: fraction of baseline mean latency removed,
    /// normalized by the fraction of the resource's cost removed
    /// (`s = 1 − 1/f`). A resource the workload fully serializes on shows
    /// `causal ≈ profile` share; an off-critical-path resource shows ~0.
    pub causal_share: f64,
    /// The aggregate profile's (critical-path-weighted) share for the same
    /// resource — the *prediction* the causal run tests.
    pub profile_share: f64,
    /// Normalized throughput derivative: `d(achieved_tps)/d(s)` divided by
    /// the baseline throughput.
    pub d_tps: f64,
    /// Normalized p95 derivative: fraction of baseline p95 removed per
    /// unit of cost removed.
    pub d_p95: f64,
}

impl WhatIfRow {
    /// Causal-vs-profile amplification (`causal / profile`; 0 when the
    /// profile share vanishes).
    pub fn amplification(&self) -> f64 {
        if self.profile_share <= f64::EPSILON {
            0.0
        } else {
            self.causal_share / self.profile_share
        }
    }

    /// Whether the causal measurement diverges from the profile
    /// prediction by more than 2× either way — the contention signature
    /// (queueing or lock waits redistribute time when a resource speeds
    /// up, which a flat profile cannot anticipate).
    pub fn diverges(&self) -> bool {
        self.profile_share > 0.02 && !(0.5..=2.0).contains(&self.amplification())
    }
}

/// A full causal profile of one loaded point: the baseline run plus one
/// virtually-sped-up rerun per [`WHATIF_KNOBS`] resource.
#[derive(Debug, Clone)]
pub struct WhatIfReport {
    /// The unscaled run everything is measured against.
    pub baseline: RunArtifacts,
    /// One row per speedable resource, in [`WHATIF_KNOBS`] order.
    pub rows: Vec<WhatIfRow>,
}

impl WhatIfReport {
    /// Resources ranked by measured causal impact on latency, strongest
    /// first — the *causal* bottleneck ranking, to set against
    /// [`Profile::bottleneck_ranking`]'s profile-predicted one.
    pub fn causal_ranking(&self) -> Vec<Resource> {
        let mut rows = self.rows.clone();
        rows.sort_by(|a, b| {
            b.causal_share
                .partial_cmp(&a.causal_share)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        rows.into_iter().map(|r| r.resource).collect()
    }

    /// The top causal bottleneck among the speedable resources.
    pub fn top_bottleneck(&self) -> Resource {
        self.causal_ranking()[0]
    }
}

/// Runs the what-if (causal-profile) protocol: one baseline run of `spec`,
/// then for each speedable resource the *same* deterministic point with
/// that resource's cost virtually scaled by `1/speedup` — exact
/// fixed-point scaling inside the simulation, the virtual-time analogue of
/// a Coz experiment. Latency/throughput deltas are normalized into causal
/// shares and compared against the aggregate profile's prediction.
pub fn whatif(spec: &RunSpec, speedup: f64) -> WhatIfReport {
    assert!(speedup > 1.0, "a what-if speedup must exceed 1×");
    let baseline = run(spec);
    let s = 1.0 - 1.0 / speedup;
    let base = baseline.summary;
    let rows = WHATIF_KNOBS
        .iter()
        .map(|&resource| {
            let scale = Some((resource, speedup));
            let sped = run(&RunSpec { scale, ..*spec }).summary;
            WhatIfRow {
                resource,
                speedup,
                achieved_tps: sped.achieved_tps,
                latency_ms: sped.latency_ms,
                latency_p95_ms: sped.latency_p95_ms,
                causal_share: ((base.latency_ms - sped.latency_ms) / base.latency_ms.max(1e-9)) / s,
                profile_share: baseline.profile.resource_share(resource),
                d_tps: ((sped.achieved_tps - base.achieved_tps) / base.achieved_tps.max(1e-9)) / s,
                d_p95: ((base.latency_p95_ms - sped.latency_p95_ms)
                    / base.latency_p95_ms.max(1e-9))
                    / s,
            }
        })
        .collect();
    WhatIfReport { baseline, rows }
}

/// Renders one timeline run as an ASCII sparkline table: one row per
/// series that saw any activity (quiet series are summarised in a trailing
/// note), darkest glyph = the series' busiest window.
pub fn timeline_table(report: &TimelineReport) -> String {
    let window_ms = report.window_us as f64 / 1_000.0;
    let activity = format!(
        "activity ({} windows x {:.0} ms virtual)",
        report.windows(),
        window_ms
    );
    let mut table = TextTable::new(&["series", "kind", "total", activity.as_str()]);
    let mut quiet = 0usize;
    for s in &report.series {
        if s.values.iter().all(|&v| v == 0) {
            quiet += 1;
            continue;
        }
        table.row(vec![
            s.name.clone(),
            s.kind.label().to_owned(),
            s.total.to_string(),
            format!("|{}|", sparkline(&s.values)),
        ]);
    }
    let mut out = format!("{}\n{}", report.label, table.render());
    if quiet > 0 {
        out.push_str(&format!("({quiet} series with no activity omitted)\n"));
    }
    out
}

/// Finds the saturation knee of a rate-ordered load sweep: the first point
/// whose achieved throughput falls more than 10% short of offered, or
/// whose mean latency exceeds 3× the lightest point's. `None` if the sweep
/// never saturates.
pub fn knee_index(points: &[RunSummary]) -> Option<usize> {
    let base_latency = points.first()?.latency_ms;
    points.iter().position(|p| {
        p.achieved_tps < 0.9 * p.offered_tps || p.latency_ms > 3.0 * base_latency.max(0.001)
    })
}

/// The delay sweep of Figures 6 and 7: 0–100 ms one-way in 20 ms steps.
pub const PAPER_DELAYS_MS: &[u64] = &[0, 20, 40, 60, 80, 100];

/// The scripted fault classes the `monitor` bin injects mid-run, each
/// exercising a different failure surface: the shared back-end going dark,
/// the WAN shedding traffic, and the paper's "flash crowd" arrival surge
/// (no injected fault at all — the *workload* is the incident).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// Every delivery on the delayed path fails for the outage window.
    BackendOutage,
    /// A burst window in which the delayed path drops/duplicates/refuses a
    /// large share of attempts.
    LossBurst,
    /// A step surge in the session arrival rate; paths stay clean.
    FlashCrowd,
}

impl FaultClass {
    /// Every scripted class, in report-column order.
    pub const ALL: [FaultClass; 3] = [
        FaultClass::BackendOutage,
        FaultClass::LossBurst,
        FaultClass::FlashCrowd,
    ];

    /// Stable key used in filenames, CSV columns and incident labels.
    pub fn key(self) -> &'static str {
        match self {
            FaultClass::BackendOutage => "backend_outage",
            FaultClass::LossBurst => "loss_burst",
            FaultClass::FlashCrowd => "flash_crowd",
        }
    }
}

/// When a scripted disturbance starts, ms of virtual time into the
/// measured phase: the monitor's 100-sample drift calibration finishes first
/// at ≥ 5 interactions/s.
pub const FAULT_AT_MS: u64 = 25_000;

/// How long a scripted disturbance lasts (ms): long enough for an outage
/// to back the ready queue up as far as the queue charts need. A fault
/// plan is dialled back to [`FaultPlan::NONE`] afterwards.
pub const FAULT_DUR_MS: u64 = 20_000;

/// Per-mille attempt loss during a [`FaultClass::LossBurst`]: heavy.
const LOSS_BURST_PER_MILLE: u16 = 700;

/// Arrival-rate multiplier during a [`FaultClass::FlashCrowd`].
const FLASH_CROWD_PEAK: f64 = 20.0;

/// Renders a fault plan for incident context.
fn fault_plan_json(plan: FaultPlan) -> Json {
    Json::obj([
        ("seed", Json::from(plan.seed)),
        (
            "drop_request_per_mille",
            Json::from(u64::from(plan.drop_request_per_mille)),
        ),
        (
            "drop_response_per_mille",
            Json::from(u64::from(plan.drop_response_per_mille)),
        ),
        (
            "duplicate_per_mille",
            Json::from(u64::from(plan.duplicate_per_mille)),
        ),
        (
            "unavailable_per_mille",
            Json::from(u64::from(plan.unavailable_per_mille)),
        ),
    ])
}

/// Fits latency (ms) against one-way delay (ms); the slope is the latency
/// sensitivity of Table 2.
///
/// Returns `None` for degenerate sweeps (fewer than two distinct delays).
pub fn sensitivity(points: &[RunSummary]) -> Option<LinearFit> {
    fit(&points
        .iter()
        .map(|p| (p.delay_ms, p.latency_ms))
        .collect::<Vec<_>>())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sli_arch::Flavor;

    /// A delay sweep of `template`: one run per delay.
    fn sweep(template: RunSpec, delays_ms: &[u64]) -> Vec<RunSummary> {
        delays_ms
            .iter()
            .map(|&d| {
                run(&RunSpec {
                    delay: SimDuration::from_millis(d),
                    ..template
                })
                .summary
            })
            .collect()
    }

    fn quick(arch: Architecture) -> RunSpec {
        RunSpec::closed(arch, SimDuration::from_millis(20), true)
    }

    fn quick_open(arch: Architecture, rps: f64, sessions: usize, warmup: usize) -> RunSpec {
        RunSpec {
            warmup_sessions: warmup,
            sessions,
            ..RunSpec::open(arch, SimDuration::from_millis(10), rps, true)
        }
    }

    #[test]
    fn clients_ras_sensitivity_is_two() {
        // One HTTP round trip per interaction ⇒ every ms of one-way delay
        // costs exactly 2 ms of client latency, for every flavor.
        for flavor in [Flavor::Jdbc, Flavor::VanillaEjb, Flavor::CachedEjb] {
            let points = sweep(quick(Architecture::ClientsRas(flavor)), &[0, 40, 80]);
            let fit = sensitivity(&points).unwrap();
            assert!(
                (fit.slope - 2.0).abs() < 0.01,
                "{flavor:?}: slope {}",
                fit.slope
            );
            assert!(fit.r2 > 0.999);
            assert!(points.iter().all(|p| p.failed == 0));
        }
    }

    #[test]
    fn es_rdb_vanilla_is_most_sensitive() {
        let slope = |arch| {
            sensitivity(&sweep(quick(arch), &[0, 40, 80]))
                .unwrap()
                .slope
        };
        let jdbc = slope(Architecture::EsRdb(Flavor::Jdbc));
        let vanilla = slope(Architecture::EsRdb(Flavor::VanillaEjb));
        let cached = slope(Architecture::EsRdb(Flavor::CachedEjb));
        let rbes = slope(Architecture::EsRbes);
        // Paper Table 2 ordering: vanilla (23.6) > cached (13.0) > JDBC
        // (9.4) in ES/RDB, and ES/RBES (3.1) beats all of them but stays
        // above the Clients/RAS floor of 2.
        assert!(vanilla > cached, "vanilla {vanilla} vs cached {cached}");
        assert!(cached > jdbc, "cached {cached} vs jdbc {jdbc}");
        assert!(jdbc > rbes, "jdbc {jdbc} vs rbes {rbes}");
        assert!(rbes > 2.0, "rbes {rbes}");
    }

    #[test]
    fn run_emits_a_valid_report_row() {
        let artifacts = run(&quick(Architecture::EsRbes));
        let (point, report) = (artifacts.summary, artifacts.report);
        assert_eq!(report.arch, "ES/RBES (Cached EJBs)");
        assert_eq!(report.delay_ms, 20.0);
        assert_eq!(report.interactions, (point.ok + point.failed) as u64);
        assert!(report.hit_ratio > 0.0, "warm cache serves hits");
        assert!(report.p50_ms > 0.0);
        assert!(report.p99_ms >= report.p95_ms && report.p95_ms >= report.p50_ms);
        assert!(report.status.contains_key("200"));

        let mut doc = RunReport::new("bench smoke");
        doc.entries.push(report);
        assert_eq!(validate(&doc.to_json()), Ok(Schema::RunReport));
    }

    #[test]
    fn run_decomposes_every_measured_interaction() {
        let artifacts = run(&quick(Architecture::EsRdb(Flavor::CachedEjb)));
        let point = artifacts.summary;
        let (report, harvest) = (artifacts.report, artifacts.harvest);
        // Per-dispatch draining must not lose a single request trace: the
        // breakdown covers exactly the measured interactions, and its
        // bucket sums decompose the total without remainder.
        assert_eq!(harvest.breakdown.traces, report.interactions);
        assert_eq!(harvest.breakdown.traces as usize, point.ok + point.failed);
        assert_eq!(harvest.breakdown.sum_us(), harvest.breakdown.total_us);
        assert!(harvest.breakdown.bucket_us(Bucket::Network) > 0);
        assert!(harvest.breakdown.bucket_us(Bucket::Statement) > 0);
        // The sampled window round-trips through the Chrome-trace export.
        assert!(!harvest.sample_events.is_empty());
        let doc = chrome_trace(&harvest.sample_events);
        assert_eq!(validate(&doc), Ok(Schema::ChromeTrace));

        // Merging harvests accumulates breakdowns but keeps one sample.
        let mut merged = TraceHarvest::default();
        let sample_len = harvest.sample_events.len();
        merged.merge(harvest.clone());
        merged.merge(harvest.clone());
        assert_eq!(merged.breakdown.traces, 2 * harvest.breakdown.traces);
        assert_eq!(merged.sample_events.len(), sample_len);

        let table = breakdown_table(&[("ES/RDB cached".to_owned(), harvest)]);
        assert!(table.contains("network-crossing"));
        assert!(table.contains("statement-execution"));
    }

    #[test]
    fn knee_index_flags_the_first_saturated_point() {
        let mut p = RunSummary {
            delay_ms: 10.0,
            offered_tps: 10.0,
            achieved_tps: 10.0,
            latency_ms: 50.0,
            latency_stdev_ms: 2.0,
            latency_p50_ms: 50.0,
            latency_p95_ms: 60.0,
            latency_p99_ms: 70.0,
            service_ms: 45.0,
            queue_wait_p95_ms: 1.0,
            peak_queue_depth: 1,
            shared_bytes_per_interaction: 900.0,
            round_trips_per_interaction: 3.0,
            round_trips: 300,
            ok: 100,
            failed: 0,
        };
        let light = p;
        p.offered_tps = 40.0;
        p.achieved_tps = 22.0; // achieved falls >10% short of offered
        let saturated = p;
        assert_eq!(knee_index(&[light, light, saturated]), Some(2));
        // A latency blow-up alone (3× the lightest point) also counts.
        p.achieved_tps = p.offered_tps;
        p.latency_ms = 200.0;
        assert_eq!(knee_index(&[light, p]), Some(1));
        assert_eq!(knee_index(&[light, light]), None);
        assert_eq!(knee_index(&[]), None);
    }

    #[test]
    fn loaded_point_emits_validated_artifacts_with_live_queue_gauges() {
        let run = run(&quick_open(Architecture::EsRdb(Flavor::Jdbc), 4.0, 60, 10));
        let p = run.summary;
        assert!(p.ok > 0, "loaded run completed interactions");
        assert_eq!(p.failed, 0, "clean run has no failures");
        assert!(p.offered_tps > 0.0 && p.achieved_tps > 0.0);
        assert!(
            p.latency_ms >= p.service_ms,
            "total latency includes queue wait: {} < {}",
            p.latency_ms,
            p.service_ms
        );
        assert!(p.latency_p99_ms >= p.latency_p95_ms && p.latency_p95_ms >= p.latency_p50_ms);
        assert!(
            p.round_trips_per_interaction > 0.0,
            "a wired architecture crosses the delayed path every interaction"
        );

        // The report row validates against the run-report schema.
        assert_eq!(run.report.interactions as usize, p.ok + p.failed);
        let mut doc = RunReport::new("loaded smoke");
        doc.entries.push(run.report.clone());
        assert_eq!(validate(&doc.to_json()), Ok(Schema::RunReport));

        // The timeline validates and carries live engine gauges.
        let mut tl = TimelineDoc::new("loaded smoke");
        tl.runs.push(run.timeline.clone());
        assert_eq!(validate(&tl.to_json()), Ok(Schema::Timeline));
        let series = |name: &str| {
            run.timeline
                .series
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("timeline missing {name}"))
        };
        assert!(
            series("engine.in_flight").values.iter().any(|&v| v > 0),
            "in_flight gauge must be non-trivially populated"
        );
        assert!(
            series("engine.queue_depth").values.iter().any(|&v| v > 0),
            "queue_depth gauge must register contention at 4 sessions/s"
        );
        assert_eq!(
            series("engine.dispatches").total,
            p.ok as u64 + p.failed as u64,
            "every interaction is one scheduler dispatch"
        );
        assert_eq!(series("engine.arrivals").total, 60, "one per session");
    }

    #[test]
    fn loaded_sweep_finds_the_saturation_knee() {
        let points: Vec<RunSummary> = [0.5, 30.0]
            .iter()
            .map(|&rps| run(&quick_open(Architecture::EsRdb(Flavor::Jdbc), rps, 60, 10)).summary)
            .collect();
        // Light load keeps up with the offered rate; 30 sessions/s is far
        // beyond the single-server capacity (~22 interactions/s at 10 ms
        // delay) so throughput flattens and latency explodes.
        assert!(
            points[0].achieved_tps >= 0.9 * points[0].offered_tps,
            "light load keeps up: achieved {} vs offered {}",
            points[0].achieved_tps,
            points[0].offered_tps
        );
        assert_eq!(knee_index(&points), Some(1), "overload point is the knee");
        assert!(points[1].latency_ms > 3.0 * points[0].latency_ms);
        assert!(points[1].peak_queue_depth > points[0].peak_queue_depth);
    }

    #[test]
    fn loaded_runs_are_deterministic_at_the_bench_layer() {
        let spec = quick_open(Architecture::EsRbes, 3.0, 25, 5);
        let (a, b) = (run(&spec), run(&spec));
        assert_eq!(a.summary, b.summary);
        assert_eq!(a.timeline, b.timeline);
    }

    #[test]
    fn profiles_conserve_latency_for_every_architecture_and_admission() {
        use sli_arch::{arch_by_key, ARCH_KEYS};
        for key in ARCH_KEYS {
            let arch = arch_by_key(key).unwrap();
            let closed = RunSpec {
                warmup_sessions: 4,
                sessions: 12,
                ..quick(arch)
            };
            for spec in [quick_open(arch, 3.0, 12, 4), closed] {
                let key = format!("{key} {:?}", spec.admission);
                let run = run(&spec);
                let harvest = &run.harvest;
                // Every dispatched interaction is one complete trace, in
                // the profile and in the breakdown summed from it.
                let interactions = (run.summary.ok + run.summary.failed) as u64;
                assert_eq!(run.profile.traces, interactions, "{key}: trace count");
                assert_eq!(harvest.breakdown.traces, interactions, "{key}");
                // Every trace is one action's interaction, and the actions'
                // delayed round trips are the delayed paths' count.
                let tallies = run.actions.values();
                let named: u64 = tallies.clone().map(|t| t.interactions).sum();
                let trips: u64 = tallies.map(|t| t.delayed_round_trips).sum();
                assert_eq!(named, interactions, "{key}: interactions by action");
                assert_eq!(
                    trips, run.summary.round_trips,
                    "{key}: round trips by action"
                );
                // A trace spans one service time, so the profile's total is
                // the sum of the measured service times.
                let service_us = run.summary.service_ms * interactions as f64 * 1e3;
                assert!(
                    (run.profile.total_us as f64 - service_us).abs() < 1e-3,
                    "{key}: profile {} us vs measured {service_us} us",
                    run.profile.total_us
                );
                // Per-class, per-resource and per-stack self times
                // decompose the total exactly: the profile's law.
                assert_eq!(
                    validate(&run.profile.to_json(&key)),
                    Ok(Schema::Profile),
                    "{key}"
                );
                assert!(!run.profile.folded().is_empty(), "{key}: folded output");
                // Little's law holds exactly on a clean deterministic run.
                assert!(
                    run.littles.holds(1e-9),
                    "{key}: L = λW violated, relative error {}",
                    run.littles.relative_error
                );
                if spec.admission == (Admission::Closed { clients: 1 }) {
                    // The closed client is always in a session and never
                    // queues: service time is the whole latency, and it
                    // offers exactly what it is served.
                    assert_eq!(run.littles.avg_in_flight, 1.0, "{key}");
                    assert_eq!(run.summary.queue_wait_p95_ms, 0.0, "{key}");
                    assert_eq!(run.report.mean_ms, run.summary.service_ms, "{key}");
                    assert_eq!(run.summary.offered_tps, run.summary.achieved_tps);
                }
            }
        }
    }

    #[test]
    fn a_multi_client_summary_counts_every_edges_delayed_path() {
        let run = run(&RunSpec {
            warmup_sessions: 4,
            sessions: 8,
            admission: Admission::Closed { clients: 2 },
            ..quick(Architecture::EsRbes)
        });
        let interactions = (run.summary.ok + run.summary.failed) as f64;
        // Each edge's delayed path counts its own bytes and trips; the
        // timeline totals them from the warm-up boundary on.
        let path = |edge: u32, counter: &str| {
            let name = format!("simnet.path.edge-backend-{edge}.{counter}");
            let series = run.timeline.series.iter().find(|s| s.name == name);
            series.unwrap_or_else(|| panic!("no {name}")).total
        };
        let bytes = |e| path(e, "bytes_to_server") + path(e, "bytes_from_server");
        let trips = |e| path(e, "requests").min(path(e, "responses"));
        assert!(
            bytes(1) > 0 && bytes(2) > 0,
            "both clients crossed their path"
        );
        let close = |per_interaction: f64, total: u64| {
            (per_interaction * interactions - total as f64).abs() < 1e-6 * total as f64
        };
        assert!(close(
            run.summary.shared_bytes_per_interaction,
            bytes(1) + bytes(2)
        ));
        assert!(close(
            run.summary.round_trips_per_interaction,
            trips(1) + trips(2)
        ));
    }

    #[test]
    #[should_panic(expected = "a flash crowd is a surge in an open run's arrival rate")]
    fn a_closed_run_cannot_stage_a_flash_crowd() {
        run(&RunSpec {
            monitor: Some(Some(FaultClass::FlashCrowd)),
            ..quick(Architecture::EsRbes)
        });
    }

    #[test]
    fn whatif_ranks_the_wire_as_the_jdbc_bottleneck() {
        let report = whatif(
            &quick_open(Architecture::EsRdb(Flavor::Jdbc), 3.0, 15, 4),
            2.0,
        );
        assert_eq!(report.rows.len(), WHATIF_KNOBS.len());
        for row in &report.rows {
            assert!(row.causal_share.is_finite());
            assert!(
                row.causal_share > -0.25,
                "{:?}: speeding a resource up must not slow the system meaningfully, got {}",
                row.resource,
                row.causal_share
            );
        }
        // At 10 ms one-way delay the JDBC engine's latency is wire
        // crossings; both the profile and the causal run must agree.
        assert_eq!(report.top_bottleneck(), Resource::Wire);
        assert_eq!(
            report.baseline.profile.bottleneck_ranking()[0],
            Resource::Wire
        );
        let wire = &report.rows[0];
        assert!(
            wire.causal_share > 0.5,
            "wire causal share {} should dominate",
            wire.causal_share
        );
    }

    #[test]
    fn bandwidth_ordering_matches_figure8() {
        let bytes = |arch| run(&quick(arch)).summary.shared_bytes_per_interaction;
        let ras = bytes(Architecture::ClientsRas(Flavor::Jdbc));
        let rbes = bytes(Architecture::EsRbes);
        let rdb = bytes(Architecture::EsRdb(Flavor::Jdbc));
        assert!(
            ras > rbes && rbes > rdb,
            "expected RAS ({ras:.0}) > RBES ({rbes:.0}) > RDB ({rdb:.0})"
        );
        assert!(ras > 5_000.0, "Clients/RAS ships whole pages: {ras:.0}");
    }

    #[test]
    fn write_all_validates_and_writes_only_the_filled_parts() {
        let dir = std::env::temp_dir().join(format!("sli-bench-write-all-{}", std::process::id()));
        let dir = dir.to_str().expect("utf-8 temp path");
        assert_eq!(ArtifactSet::new("empty").write_all(dir, "none"), Ok(vec![]));

        let mut set = ArtifactSet::new("write_all test");
        set.push("rbes", run(&quick(Architecture::EsRbes)));
        let written = set
            .write_all(dir, "t")
            .expect("a measured run exports cleanly");
        let expected = ["report", "trace", "timeline"].map(|part| format!("{dir}/t.{part}.json"));
        assert_eq!(written, expected);
        for path in &written {
            let text = std::fs::read_to_string(path).expect("file written");
            Json::parse(&text).expect("written artifact parses");
        }

        // An invalid part fails the whole export before anything is written.
        set.incidents.push(("bad".to_owned(), Json::Null));
        assert!(set
            .write_all(dir, "u")
            .unwrap_err()
            .contains("incident bad"));
        assert!(!std::path::Path::new(&format!("{dir}/u.report.json")).exists());
        // So does a valid document of another kind in the part's place.
        set.incidents[0].1 = set.report.to_json();
        assert_eq!(
            set.write_all(dir, "u"),
            Err("incident bad: a RunReport document".to_owned())
        );
        std::fs::remove_dir_all(dir).expect("temp dir removed");
    }
}
