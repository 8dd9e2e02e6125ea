//! The traced run: per-layer metrics.
//!
//! Every round runs the workload twice on one seed: on the real testbed
//! (the reference: counters, the virtual-time profile, untraced request
//! times) and on the decorated stack (wall-clock spans). Two laws gate it.
//! The decorated stack is the same system: its virtual latencies, failures,
//! round trips and bytes equal the reference's exactly. And spans conserve
//! time: per-layer self times sum to the measured request times within 2 %.
//!
//! A loaded round has no decorated engine — `LoadEngine` only drives a
//! `Testbed` — so its engine and telemetry costs come from differencing
//! three engine runs and a closed-loop replay of the same dispatch order,
//! and its spans from replaying that order on the decorated stack.

use sli_telemetry::{MetricValue, Resource};
use sli_trade::session::SessionGenerator;

use crate::drivers::{self, Inputs};
use crate::e2e::{self, Sampled};
use crate::report::WorkloadResult;
use crate::run::{self, drive, run_unmeasured, Harvest, Measured, Observed, Round, Script, Setup};
use crate::spans::{self, Capture, EntryCounts, Layer, LayerSums};
use crate::spec::{Loaded, Workload, PER_LAYER, WARMUP_SESSIONS};
use crate::stack::TracedStack;
use crate::stats::{iqr_share, median, quantile, ratio};
use crate::{interleave, Sizes};

/// The decorated stack's side of one round.
#[derive(Debug, Default)]
struct Decorated {
    measured: Measured,
    sums: LayerSums,
    statements: u64,
    entries: EntryCounts,
    round_trips: u64,
    shared_bytes: u64,
}

/// Engine and telemetry cost per dispatch, from differenced engine runs.
#[derive(Debug, Clone, Copy, Default)]
struct EngineCosts {
    engine_ns: [f64; 2],
    timeline_ns: f64,
    harvest_ns: f64,
    /// Request time of the low rate's replay on the real testbed: the
    /// untraced side of the tracing overhead (the engine legs' dispatch
    /// times include the engine and the harvest).
    replay_request_ns: f64,
}

/// One traced round: the reference side is a plain [`Round`].
struct TracedRound {
    reference: Round,
    traced: Traced,
}

/// What a traced round adds to its reference.
struct Traced {
    decorated: Decorated,
    engine: Option<EngineCosts>,
}

/// Runs `script` on a fresh decorated stack after the standard warm-up,
/// draining the virtual-time span log after every session or (`drain`
/// false, like the engine's bare run) never.
fn decorated_run(
    w: &Workload,
    seed: u64,
    drain: bool,
    script: impl FnOnce(&mut SessionGenerator) -> Script,
) -> Decorated {
    let mut setup = Setup::begin();
    let stack = TracedStack::build(w);
    let mut generator = SessionGenerator::new(seed, w.population).with_mix(w.mix);
    // The warm-up also sizes the span vector: spans per request, with room.
    spans::reset(1 << 20);
    let mut warm = stack.clients(stack.edges.len());
    run_unmeasured(&mut warm, &mut generator, WARMUP_SESSIONS, || {
        stack.clear_trace()
    });
    let warm_spans = spans::take().spans.len();
    let script = script(&mut generator);
    let per_request = warm_spans / (WARMUP_SESSIONS * 11) + 1;
    spans::reset(script.steps.len() * per_request * 3);
    stack.reset_path_stats();
    let mut clients = stack.clients(script.sessions);
    let measured = drive(&mut setup, &mut clients, &script, || {
        if drain {
            stack.clear_trace();
        }
    });
    let recorded = spans::take();
    let (round_trips, shared_bytes) = stack.shared_traffic();

    let speed_of = |request: u32| {
        let i = measured
            .segments
            .partition_point(|s| s.end <= request as usize);
        measured.segments[i.min(measured.segments.len() - 1)].speed
    };
    Decorated {
        sums: LayerSums::fold(&recorded.spans, speed_of),
        statements: recorded.statements,
        entries: recorded.entries,
        round_trips,
        shared_bytes,
        measured,
    }
}

/// The drivers' inputs: what the decorators copy out of the warm-up and 80
/// more sessions on a stack of its own (copying allocates inside the spans'
/// parents, so the measured stacks never capture). The stream starts at the
/// seeded state, so it replays on an identically seeded database.
fn capture_pass(w: &Workload, seed: u64) -> Capture {
    spans::set_capture(true);
    decorated_run(w, seed, true, |g| Script::closed(g, 2 * WARMUP_SESSIONS));
    spans::set_capture(false).expect("capture was on")
}

/// Measured request time the spans do not cover, as a share of it.
fn span_residual(decorated: &Decorated) -> f64 {
    let wall_ns = decorated.measured.wall_ns.iter().sum::<u64>() as f64;
    ratio(wall_ns - decorated.sums.raw_self_ns, wall_ns)
}

/// Conservation: span self times sum to the measured request times within
/// 2 %.
fn check_conservation(decorated: &Decorated, problems: &mut Vec<String>) {
    let residual = span_residual(decorated);
    if residual.abs() > 0.02 {
        problems.push(format!(
            "span self times miss the measured request time by {:.2} %",
            residual * 100.0
        ));
    }
}

/// Same system: the decorated stack's virtual latencies, failures and
/// shared-path traffic equal the real testbed's.
fn check_equivalence(reference: &Round, decorated: &Decorated, problems: &mut Vec<String>) {
    let m = &decorated.measured;
    if m.virt_us != reference.measured.virt_us || m.failed != reference.measured.failed {
        problems.push("the traced stack's virtual latencies differ from the testbed's".to_owned());
    }
    if (decorated.round_trips, decorated.shared_bytes)
        != (reference.counts.round_trips, reference.counts.shared_bytes)
    {
        problems
            .push("the traced stack's shared-path traffic differs from the testbed's".to_owned());
    }
}

/// Mean request time of a phase at the reference speed, nanoseconds.
fn request_ns(m: &Measured) -> f64 {
    ratio(m.calibrated_ns().sum(), m.interactions() as f64)
}

fn closed_traced_round(w: &Workload, seed: u64, sessions: usize) -> TracedRound {
    let mut reference = run::closed_round(w, seed, sessions, true);
    let decorated = decorated_run(w, seed, true, |g| Script::closed(g, sessions));
    let mut problems = std::mem::take(&mut reference.problems);
    check_equivalence(&reference, &decorated, &mut problems);
    check_conservation(&decorated, &mut problems);
    reference.problems = problems;
    TracedRound {
        reference,
        traced: Traced {
            decorated,
            engine: None,
        },
    }
}

fn loaded_traced_round(w: &Workload, load: Loaded, seed: u64, sessions: usize) -> TracedRound {
    let mut problems = Vec::new();
    let mut costs = EngineCosts::default();
    let mut legs = Vec::new();
    let (mut timeline_ns, mut harvest_ns, mut dispatches) = (0.0, 0.0, 0.0);
    for (i, rps) in [load.low_rps, load.high_rps].into_iter().enumerate() {
        let mut leg = |harvest| run::loaded_leg(w, rps, sessions, seed, harvest, &mut problems);
        let bare = leg(Harvest::Bare);
        let timeline = leg(Harvest::Timeline);
        let observed = leg(Harvest::Observed);
        // The same dispatch order without the engine: one client per
        // session on a fresh testbed, back to back.
        let script = Script::replay_of(&bare.run, &bare.plan);
        let mut setup = Setup::begin();
        let (replay_tb, _) = run::warm_testbed(w, seed, &mut problems);
        let mut clients = run::clients(&replay_tb, script.sessions);
        // The bare engine run never drains the span log, so neither does
        // its replay: dropping spans would count against the replay alone.
        let replay = drive(&mut setup, &mut clients, &script, || {});
        let n = bare.measured.interactions() as f64;
        if i == 0 {
            costs.replay_request_ns = request_ns(&replay);
        }
        costs.engine_ns[i] = (bare.measured.wall_s() - replay.wall_s()) * 1e9 / n;
        timeline_ns += (timeline.measured.wall_s() - bare.measured.wall_s()) * 1e9;
        harvest_ns += (observed.measured.wall_s() - timeline.measured.wall_s()) * 1e9;
        dispatches += n;
        legs.push((observed, script));
    }
    costs.timeline_ns = timeline_ns / dispatches;
    costs.harvest_ns = harvest_ns / dispatches;

    let (high, _) = legs.pop().expect("two legs ran");
    let (mut low, low_script) = legs.pop().expect("two legs ran");
    // Spans under load: the low leg's dispatch order on the decorated stack.
    // Cache invalidations arrive by virtual time, which a replay compresses,
    // so this stack is not held to the equivalence law — only to
    // conservation.
    let decorated = decorated_run(w, seed, false, |_| low_script);
    check_conservation(&decorated, &mut problems);
    let recovery = run::crash_and_recover(&low.tb, &mut low.generator, &mut problems);
    TracedRound {
        reference: Round {
            seed,
            measured: low.measured,
            counts: low.counts,
            recovery,
            overload: Some(run::Overload::of(high.measured, &high.run)),
            observed: Some(low.observed),
            problems,
        },
        traced: Traced {
            decorated,
            engine: Some(costs),
        },
    }
}

fn counter(o: &Observed, name: &str) -> f64 {
    match o.snapshot.get(name) {
        Some(MetricValue::Counter(v) | MetricValue::Gauge(v)) => *v as f64,
        _ => 0.0,
    }
}

/// Sum of every counter named `<prefix><anything>.<leaf>`.
fn counters(o: &Observed, prefix: &str, leaf: &str) -> f64 {
    o.snapshot
        .iter()
        .filter(|(name, _)| {
            name.starts_with(prefix) && name.rsplit_once('.').is_some_and(|(_, last)| last == leaf)
        })
        .map(|(name, _)| counter(o, name))
        .sum()
}

/// The per-layer metrics of one workload from its traced rounds and the
/// drivers' results. Counts use the first `exact_rounds`; times use every
/// round and report the median.
fn per_layer(
    references: &[Round],
    traced: &[Traced],
    exact_rounds: usize,
    driven: &[(&'static str, f64)],
    problems: &mut Vec<String>,
) -> Vec<Sampled> {
    let exact_rounds = exact_rounds.min(references.len());
    let exact = &references[..exact_rounds];
    let exact_traced = &traced[..exact_rounds];
    let observed: Vec<&Observed> = exact.iter().filter_map(|r| r.observed.as_ref()).collect();
    let n = exact.iter().map(|r| r.measured.interactions()).sum::<u64>() as f64;
    // Sums over the exact rounds.
    let c = |name: &str| observed.iter().map(|o| counter(o, name)).sum::<f64>();
    let cs = |prefix: &str, leaf: &str| {
        observed
            .iter()
            .map(|o| counters(o, prefix, leaf))
            .sum::<f64>()
    };
    let per_n = |v: f64| ratio(v, n);
    let resource = |r: Resource| {
        per_n(
            observed
                .iter()
                .map(|o| o.profile.resource_us(r))
                .sum::<u64>() as f64,
        )
    };
    // The virtual profile's own law: resources sum to the profiled total,
    // which is the service time the clients measured.
    for (r, o) in exact.iter().zip(&observed) {
        let service_us = r.counts.service_us;
        let by_resource: u64 = Resource::ALL
            .iter()
            .map(|&x| o.profile.resource_us(x))
            .sum();
        let by_bucket = (o.breakdown.sum_us(), o.breakdown.total_us);
        if o.profile.total_us != service_us
            || by_resource != service_us
            || by_bucket != (service_us, service_us)
        {
            problems.push(format!(
                "seed {}: virtual profile {} us, by resource {by_resource} us, measured {service_us} us",
                r.seed, o.profile.total_us
            ));
        }
    }
    if cs("simnet.path.", "rpc_retries") > 0.0 {
        problems.push("RPC retries on a clean run".to_owned());
    }
    let entries = exact_traced.iter().fold(EntryCounts::default(), |a, t| {
        let e = t.decorated.entries;
        EntryCounts {
            requests: a.requests + e.requests,
            reads: a.reads + e.reads,
            updates: a.updates + e.updates,
            creates: a.creates + e.creates,
            removes: a.removes + e.removes,
        }
    });
    let batch_sizes = observed.iter().fold((0.0, 0.0), |(sum, count), o| {
        match o.snapshot.get("db.stmt.batch_statements") {
            Some(MetricValue::Histogram(h)) => (sum + h.sum as f64, count + h.count as f64),
            _ => (sum, count),
        }
    });
    let row_ops = observed
        .iter()
        .flat_map(|o| o.db_trace.tables.values())
        .map(|t| t.total())
        .sum::<u64>() as f64;

    // Times: one value per round, the median reported.
    let timed = |f: &dyn Fn(&Round, &Traced) -> f64| {
        let samples: Vec<f64> = references
            .iter()
            .zip(traced)
            .map(|(r, t)| f(r, t))
            .collect();
        (median(&samples), samples)
    };
    let span_ns = |layer: Layer, total: bool| {
        timed(&|_, t| {
            let sums = &t.decorated.sums;
            ratio(
                if total {
                    sums.total_ns(layer)
                } else {
                    sums.self_ns(layer)
                },
                t.decorated.measured.interactions() as f64,
            )
        })
    };
    let span_allocs = |layers: &[Layer]| {
        ratio(
            exact_traced
                .iter()
                .flat_map(|t| layers.iter().map(|&l| t.decorated.sums.self_allocs(l)))
                .sum(),
            exact_traced
                .iter()
                .map(|t| t.decorated.measured.interactions())
                .sum::<u64>() as f64,
        )
    };
    let engine = |f: &dyn Fn(&EngineCosts) -> f64| timed(&|_, t| t.engine.as_ref().map_or(0.0, f));
    let backend_self = timed(&|_, t| {
        ratio(
            t.decorated.sums.self_ns(Layer::Source) + t.decorated.sums.self_ns(Layer::Commit),
            t.decorated.measured.interactions() as f64,
        )
    });
    let conn_per_stmt = timed(&|_, t| {
        ratio(
            t.decorated.sums.total_ns(Layer::Conn),
            t.decorated.statements as f64,
        )
    });
    let driver = |name: &str| {
        driven
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    };
    let queue_waits = e2e::queue_waits_ms(exact);
    let round_ips: Vec<f64> = references
        .iter()
        .map(|r| ratio(r.measured.interactions() as f64, r.measured.wall_s()))
        .collect();
    let overhead = timed(&|r, t| {
        let untraced = t
            .engine
            .map_or_else(|| request_ns(&r.measured), |e| e.replay_request_ns);
        (ratio(request_ns(&t.decorated.measured), untraced) - 1.0) * 100.0
    });
    let residual = timed(&|_, t| span_residual(&t.decorated) * 100.0);

    let exact_value = |v: f64| (v, vec![v]);
    let values: Vec<(&str, (f64, Vec<f64>))> = vec![
        ("arch.client_self_ns", span_ns(Layer::Client, false)),
        ("arch.servlet_self_ns", span_ns(Layer::Servlet, false)),
        (
            "arch.servlet_self_allocs",
            exact_value(span_allocs(&[Layer::Servlet])),
        ),
        (
            "arch.engine_ns_per_dispatch_low",
            engine(&|e| e.engine_ns[0]),
        ),
        (
            "arch.engine_ns_per_dispatch_high",
            engine(&|e| e.engine_ns[1]),
        ),
        (
            "arch.engine_peak_queue",
            exact_value(
                exact
                    .iter()
                    .filter_map(|r| r.overload.as_ref())
                    .map(|o| o.peak_queue)
                    .max()
                    .unwrap_or(0) as f64,
            ),
        ),
        (
            "arch.queue_wait_p95_ms",
            exact_value(quantile(&queue_waits, 0.95)),
        ),
        (
            "arch.virt_p95_ms",
            exact_value(quantile(
                &exact
                    .iter()
                    .flat_map(|r| r.measured.virt_us.iter().map(|&us| us as f64 / 1e3))
                    .collect::<Vec<f64>>(),
                0.95,
            )),
        ),
        (
            "arch.virt_edge_cpu_us",
            exact_value(resource(Resource::EdgeCpu)),
        ),
        ("simnet.virt_wire_us", exact_value(resource(Resource::Wire))),
        (
            "simnet.rpc_overhead_ns_per_stmt",
            exact_value(conn_per_stmt.0 - driver("datastore.exec_ns_per_stmt")),
        ),
        (
            "simnet.rpc_calls_per_interaction",
            exact_value(per_n(cs("simnet.path.", "rpc_calls"))),
        ),
        (
            "simnet.bytes_per_interaction",
            exact_value(per_n(
                cs("simnet.path.", "bytes_to_server") + cs("simnet.path.", "bytes_from_server"),
            )),
        ),
        (
            "simnet.rpc_retries",
            exact_value(cs("simnet.path.", "rpc_retries")),
        ),
        (
            "datastore.virt_db_us",
            exact_value(resource(Resource::BackendDb)),
        ),
        ("datastore.conn_call_ns_per_stmt", conn_per_stmt),
        (
            "datastore.conn_call_allocs",
            exact_value(span_allocs(&[Layer::Conn])),
        ),
        (
            "datastore.plan_hit_ratio",
            exact_value(ratio(
                c("db.plan.hits"),
                c("db.plan.hits") + c("db.plan.misses"),
            )),
        ),
        (
            "datastore.stmts_per_interaction",
            exact_value(per_n(c("db.stmt.statements"))),
        ),
        (
            "datastore.batch_size_mean",
            exact_value(ratio(batch_sizes.0, batch_sizes.1)),
        ),
        (
            "datastore.row_ops_per_interaction",
            exact_value(per_n(row_ops)),
        ),
        (
            "datastore.wal_bytes_per_commit",
            exact_value(ratio(c("db.wal.flushed_bytes"), c("db.wal.flushes"))),
        ),
        (
            "datastore.wal_records_per_commit",
            exact_value(ratio(c("db.wal.flushed_records"), c("db.wal.flushes"))),
        ),
        (
            "datastore.wal_flushes_per_interaction",
            exact_value(per_n(c("db.wal.flushes"))),
        ),
        (
            "datastore.recover_ns_per_record",
            timed(&|r, _| {
                ratio(
                    r.recovery.wall_ms * 1e6 / r.recovery.speed,
                    r.recovery.redo_ops as f64,
                )
            }),
        ),
        (
            "datastore.recover_redo_ops",
            exact_value(ratio(
                exact.iter().map(|r| r.recovery.redo_ops).sum::<u64>() as f64,
                exact.len() as f64,
            )),
        ),
        (
            "core.virt_store_lock_us",
            exact_value(resource(Resource::StoreLock)),
        ),
        ("core.home_self_ns", span_ns(Layer::Home, false)),
        (
            "core.home_self_allocs",
            exact_value(span_allocs(&[Layer::Home])),
        ),
        ("core.rm_commit_self_ns", span_ns(Layer::RmCommit, false)),
        (
            "core.rm_commit_self_allocs",
            exact_value(span_allocs(&[Layer::RmCommit])),
        ),
        ("core.source_call_ns", span_ns(Layer::Source, true)),
        ("core.commit_call_ns", span_ns(Layer::Commit, true)),
        ("core.backend_self_ns", backend_self),
        (
            "core.backend_self_allocs",
            exact_value(span_allocs(&[Layer::Source, Layer::Commit])),
        ),
        (
            "core.store_hit_ratio",
            exact_value(ratio(
                cs("store.", "hits"),
                cs("store.", "hits") + cs("store.", "misses"),
            )),
        ),
        (
            "core.store_evictions_per_interaction",
            exact_value(per_n(cs("store.", "evictions"))),
        ),
        (
            "core.store_resident_bytes",
            exact_value(ratio(
                observed.iter().map(|o| o.store_resident_bytes).sum::<u64>() as f64,
                observed.len() as f64,
            )),
        ),
        (
            "core.commits_per_interaction",
            exact_value(per_n(cs("rm.", "commits"))),
        ),
        (
            "core.write_entry_share",
            exact_value(ratio(entries.writes() as f64, entries.entries() as f64)),
        ),
        (
            "core.images_per_commit",
            exact_value(ratio(entries.images() as f64, entries.requests as f64)),
        ),
        (
            "core.invalidations_per_commit",
            exact_value(ratio(cs("invalidations.", "queued"), cs("rm.", "commits"))),
        ),
        (
            "core.conflict_share",
            exact_value(ratio(
                cs("rm.", "conflicts"),
                cs("rm.", "commits") + cs("rm.", "conflicts"),
            )),
        ),
        ("trade.engine_self_ns", span_ns(Layer::Engine, false)),
        (
            "trade.engine_self_allocs",
            exact_value(span_allocs(&[Layer::Engine])),
        ),
        (
            "telemetry.timeline_ns_per_dispatch",
            engine(&|e| e.timeline_ns),
        ),
        (
            "telemetry.harvest_ns_per_dispatch",
            engine(&|e| e.harvest_ns),
        ),
        (
            "telemetry.spans_per_interaction",
            exact_value(per_n(observed.iter().map(|o| o.spans).sum::<u64>() as f64)),
        ),
        ("bench.trace_overhead_pct", overhead),
        ("bench.span_residual_pct", residual),
        (
            "bench.wall_p99_us",
            exact_value(quantile(&e2e::wall_us(references), 0.99)),
        ),
        (
            "bench.round_iqr_pct",
            exact_value(iqr_share(&round_ips) * 100.0),
        ),
        (
            "bench.alloc_bytes_per_interaction",
            // From the decorated stack where there is one for the workload
            // as defined: the reference's observer allocates in its phase.
            exact_value(ratio(
                exact
                    .iter()
                    .zip(exact_traced)
                    .map(|(r, t)| match t.engine {
                        Some(_) => r.measured.alloc_bytes,
                        None => t.decorated.measured.alloc_bytes,
                    })
                    .sum::<u64>() as f64,
                n,
            )),
        ),
        (
            "bench.traced_ns_per_interaction",
            timed(&|_, t| request_ns(&t.decorated.measured)),
        ),
        (
            "bench.untraced_ns_per_interaction",
            timed(&|r, _| request_ns(&r.measured)),
        ),
    ];

    // Every metric of the table, in table order; drivers fill the rest.
    PER_LAYER
        .iter()
        .map(|def| {
            let (value, samples) = values
                .iter()
                .find(|(name, _)| *name == def.name)
                .map(|(_, v)| v.clone())
                .unwrap_or_else(|| exact_value(driver(def.name)));
            Sampled {
                name: def.name,
                value,
                samples,
            }
        })
        .collect()
}

/// The traced run of `workloads`: rounds interleaved like the untraced
/// run's, then each workload's layer drivers.
pub fn run_traced(workloads: &[Workload], sizes: Sizes, seed: u64) -> Vec<WorkloadResult> {
    // The drivers take the last fifth of the budget.
    let round_sizes = Sizes {
        seconds: sizes.seconds * 0.8,
        ..sizes
    };
    interleave(workloads, round_sizes, seed, |w, round_seed| {
        let sessions = sizes.sessions(w);
        match w.loaded {
            Some(load) => loaded_traced_round(w, load, round_seed, sessions),
            None => closed_traced_round(w, round_seed, sessions),
        }
    })
    .into_iter()
    .map(|(w, rounds)| {
        let (references, traced): (Vec<Round>, Vec<Traced>) =
            rounds.into_iter().map(|r| (r.reference, r.traced)).unzip();
        let observed = references[0]
            .observed
            .as_ref()
            .expect("a traced round observes");
        let driven = drivers::run(&Inputs {
            workload: &w,
            capture: &capture_pass(&w, seed),
            span_sample: &observed.span_sample,
            store_len: observed.store_len,
            seed,
            quick: sizes.quick,
        });
        let mut problems = e2e::problems(&references);
        let metrics = per_layer(
            &references,
            &traced,
            sizes.exact_rounds,
            &driven,
            &mut problems,
        );
        let (attempted, failed) = e2e::attempts(&references);
        WorkloadResult {
            name: w.name,
            attempted,
            failed,
            rounds: references.len(),
            metrics,
            diagnostics: e2e::diagnostics(&references),
            problems,
        }
    })
    .collect()
}
