//! The benchmark's fixed tables: workloads with their frozen counts, the
//! end-to-end metrics with their bounds, the per-layer metrics.
//!
//! `BENCHMARK.json` at the repository root repeats the names, units,
//! directions and bounds; a self-test keeps the two in step.

use sli_arch::{Architecture, Flavor};
use sli_trade::seed::Population;
use sli_trade::session::ActionMix;

/// Default `--seed`.
pub const DEFAULT_SEED: u64 = 20040101;
/// Default `--seconds`: the wall budget one workload's rounds may use. The
/// driver passes the same number (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 10;
/// Sessions run before every measured phase (cache, plan cache and HTTP
/// session table reach steady state).
pub const WARMUP_SESSIONS: usize = 40;
/// Sessions run after the backend restart to prove traffic succeeds again.
pub const POST_RESTART_SESSIONS: usize = 20;
/// Rounds whose exact metrics are reported. They always run, whatever
/// `--seconds` says, so the exact digits depend on the seed alone; later
/// rounds only add wall-clock samples.
pub const EXACT_ROUNDS: usize = 3;

/// Open-loop part of a workload: two fixed Poisson session rates.
#[derive(Debug, Clone, Copy)]
pub struct Loaded {
    /// Edge servers (sessions alternate between them).
    pub edges: usize,
    /// Rate below the knee, sessions per virtual second. Capacity is about
    /// 2.4; the mean latency swings from seed to seed by 31 % at 2, by 6 % at
    /// 1 and by 2 % at 0.5, and the driver compares runs of different seeds.
    pub low_rps: f64,
    /// Overload rate (about three times capacity).
    pub high_rps: f64,
}

/// One workload: a testbed configuration, an action mix and frozen counts.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists, in one line (`BENCHMARK.json` repeats it).
    pub why: &'static str,
    pub arch: Architecture,
    pub mix: ActionMix,
    pub population: Population,
    pub cache_capacity: Option<usize>,
    /// One-way delay on the delayed path, milliseconds.
    pub delay_ms: u64,
    /// Measured sessions per round (per rate for a loaded workload).
    pub sessions: usize,
    /// The same under `--quick` and in the self-tests.
    pub quick_sessions: usize,
    pub loaded: Option<Loaded>,
}

const BROWSE: ActionMix = ActionMix {
    quote: 40,
    home: 20,
    portfolio: 12,
    account: 10,
    update: 0,
    buy: 0,
    sell: 0,
};

const TRADE: ActionMix = ActionMix {
    quote: 0,
    home: 0,
    portfolio: 0,
    account: 0,
    update: 10,
    buy: 45,
    sell: 45,
};

fn closed(
    name: &'static str,
    why: &'static str,
    arch: Architecture,
    mix: ActionMix,
    sessions: usize,
) -> Workload {
    Workload {
        name,
        why,
        arch,
        mix,
        population: Population::default(),
        cache_capacity: None,
        delay_ms: 40,
        sessions,
        quick_sessions: 60,
        loaded: None,
    }
}

/// The seven workloads. Session counts were calibrated once on the 2-core
/// reference box so a round measures about half a second, and are frozen.
/// Every round ends with a backend crash and a timed restart; the workloads
/// differ in what the log holds by then.
pub fn workloads() -> [Workload; 7] {
    let default_mix = ActionMix::default();
    [
        closed(
            "jdbc_mix",
            "ES/RDB JDBC, default mix, 2400 sessions/round: datastore and wire codec do the work, \
             sli-core and sli-component are bypassed (store counters read 0)",
            Architecture::EsRdb(Flavor::Jdbc),
            default_mix,
            2400,
        ),
        closed(
            "cached_mix",
            "ES/RDB cached EJBs, default mix, 1200 sessions/round: the paper's headline flavor, \
             the only path through CombinedCommitter's per-image validation and DirectSource",
            Architecture::EsRdb(Flavor::CachedEjb),
            default_mix,
            1200,
        ),
        closed(
            "rbes_browse",
            "ES/RBES, read-only mix, 1200 sessions/round, store fits (hit ratio 0.99): the SLI \
             read path - CommonStore::get, SliHome, Container, servlet and page render",
            Architecture::EsRbes,
            BROWSE,
            1200,
        ),
        closed(
            "rbes_trade",
            "ES/RBES, buy 45 / sell 45 / update 10, 500 sessions/round: the SLI write path - \
             SplitCommitter, BackendServer validate-and-apply, WAL, invalidation",
            Architecture::EsRbes,
            TRADE,
            500,
        ),
        Workload {
            population: Population {
                users: 2000,
                quotes: 1000,
                holdings_per_user: 5,
            },
            cache_capacity: Some(512),
            ..closed(
                "rbes_evict",
                "ES/RBES, read-only mix, 2000 users / 1000 quotes against a 512-image store, 600 \
                 sessions/round (hit ratio 0.42): LRU eviction and the miss path to the back-end",
                Architecture::EsRbes,
                BROWSE,
                600,
            )
        },
        Workload {
            delay_ms: 10,
            sessions: 250,
            quick_sessions: 40,
            loaded: Some(Loaded {
                edges: 2,
                low_rps: 0.5,
                high_rps: 8.0,
            }),
            ..closed(
                "rbes_loaded",
                "ES/RBES, 2 edges, open loop: Poisson sessions at 0.5/s (0.2 of capacity) and 8/s \
                 (3x capacity), 250 each per round: the load engine, telemetry harvest, queueing",
                Architecture::EsRbes,
                default_mix,
                0,
            )
        },
        Workload {
            quick_sessions: 120,
            ..closed(
                "crash_recover",
                "ES/RDB JDBC, write mix, 1600 sessions/round (about 30k log records) before the \
                 backend crash: log growth and ARIES-lite replay instead of reads",
                Architecture::EsRdb(Flavor::Jdbc),
                TRADE,
                1600,
            )
        },
    ]
}

pub fn workload(name: &str) -> Option<Workload> {
    workloads().into_iter().find(|w| w.name == name)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the base's median by which the metric may worsen.
    pub bound: f64,
    /// Exact metrics repeat to the digit for one binary and one seed.
    pub exact: bool,
}

const fn measured(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        exact: true,
    }
}

/// The end-to-end metrics, every one reported by every workload. Units
/// starting with `virt_` are virtual (simulated) time; wall-clock times are
/// at the reference speed (see `calib`).
///
/// Exact metrics repeat to the digit for one binary and one seed. The
/// allocation metrics nearly do (to about 1 part in 10^6, the peak to 0.3 %:
/// `HashMap`'s choice between rehashing in place and growing depends on the
/// process's random hash seed), so they are judged by their bound. Every
/// bound covers the seed-to-seed spread, because the driver compares runs of
/// different seeds; `compare` on two runs of one seed judges exact metrics
/// digit for digit.
pub const END_TO_END: [EndToEnd; 12] = [
    measured("wall_ips", "1/s", Better::Higher, 0.25),
    measured("wall_p50_us", "us", Better::Lower, 0.25),
    measured("wall_p95_us", "us", Better::Lower, 0.25),
    measured("allocs_per_interaction", "count", Better::Lower, 0.12),
    measured("peak_live_kib", "KiB", Better::Lower, 0.18),
    exact("virt_latency_ms", "virt_ms", Better::Lower, 0.10),
    exact("virt_round_trips", "count", Better::Lower, 0.05),
    exact("virt_shared_bytes", "bytes", Better::Lower, 0.18),
    exact("virt_tps", "1/virt_s", Better::Higher, 0.05),
    measured("recover_ms", "ms", Better::Lower, 0.25),
    exact("wal_bytes_per_interaction", "bytes", Better::Lower, 0.05),
    measured("setup_s", "s", Better::Lower, 0.25),
];

/// One per-layer metric (no bound: layers explain, they do not gate).
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// The per-layer metrics, named `<crate>.<metric>`. A layer a workload
/// bypasses reads 0 there (that is the bypass evidence).
pub const PER_LAYER: [PerLayer; 72] = [
    // sli-arch
    lo("arch.client_self_ns", "ns"),
    lo("arch.servlet_self_ns", "ns"),
    lo("arch.servlet_self_allocs", "count"),
    lo("arch.engine_ns_per_dispatch_low", "ns"),
    lo("arch.engine_ns_per_dispatch_high", "ns"),
    lo("arch.engine_peak_queue", "count"),
    lo("arch.queue_wait_p95_ms", "virt_ms"),
    lo("arch.virt_p95_ms", "virt_ms"),
    lo("arch.virt_edge_cpu_us", "virt_us"),
    // sli-simnet
    lo("simnet.virt_wire_us", "virt_us"),
    lo("simnet.rpc_overhead_ns_per_stmt", "ns"),
    lo("simnet.wire_codec_ns_per_kib", "ns"),
    lo("simnet.frame_ns_per_kib", "ns"),
    lo("simnet.http_codec_ns", "ns"),
    lo("simnet.path_crossing_ns", "ns"),
    lo("simnet.rpc_calls_per_interaction", "count"),
    lo("simnet.bytes_per_interaction", "bytes"),
    lo("simnet.rpc_retries", "count"),
    // sli-datastore
    lo("datastore.virt_db_us", "virt_us"),
    lo("datastore.conn_call_ns_per_stmt", "ns"),
    lo("datastore.conn_call_allocs", "count"),
    lo("datastore.exec_ns_per_stmt", "ns"),
    lo("datastore.parse_ns_per_stmt", "ns"),
    hi("datastore.plan_hit_ratio", "ratio"),
    lo("datastore.stmts_per_interaction", "count"),
    hi("datastore.batch_size_mean", "count"),
    lo("datastore.row_ops_per_interaction", "count"),
    lo("datastore.wal_bytes_per_commit", "bytes"),
    lo("datastore.wal_records_per_commit", "count"),
    lo("datastore.wal_flushes_per_interaction", "count"),
    lo("datastore.recover_ns_per_record", "ns"),
    lo("datastore.recover_redo_ops", "count"),
    // sli-core
    lo("core.virt_store_lock_us", "virt_us"),
    lo("core.home_self_ns", "ns"),
    lo("core.home_self_allocs", "count"),
    lo("core.rm_commit_self_ns", "ns"),
    lo("core.rm_commit_self_allocs", "count"),
    lo("core.source_call_ns", "ns"),
    lo("core.commit_call_ns", "ns"),
    lo("core.backend_self_ns", "ns"),
    lo("core.backend_self_allocs", "count"),
    lo("core.store_get_hit_ns", "ns"),
    lo("core.store_get_miss_ns", "ns"),
    lo("core.store_put_ns", "ns"),
    hi("core.store_hit_ratio", "ratio"),
    lo("core.store_evictions_per_interaction", "count"),
    lo("core.store_resident_bytes", "bytes"),
    lo("core.commits_per_interaction", "count"),
    lo("core.write_entry_share", "ratio"),
    lo("core.images_per_commit", "count"),
    lo("core.invalidations_per_commit", "count"),
    lo("core.conflict_share", "ratio"),
    // sli-component
    lo("component.memento_clone_ns", "ns"),
    lo("component.memento_digest_ns", "ns"),
    lo("component.meta_sql_ns", "ns"),
    // sli-trade
    lo("trade.engine_self_ns", "ns"),
    lo("trade.engine_self_allocs", "count"),
    lo("trade.page_render_ns", "ns"),
    lo("trade.page_bytes", "bytes"),
    lo("trade.session_gen_ns_per_session", "ns"),
    // sli-telemetry
    lo("telemetry.timeline_ns_per_dispatch", "ns"),
    lo("telemetry.harvest_ns_per_dispatch", "ns"),
    lo("telemetry.spans_per_interaction", "count"),
    lo("telemetry.profile_fold_ns_per_span", "ns"),
    // sli-workload
    lo("workload.arrival_ns_per_session", "ns"),
    // the harness itself: these qualify the other numbers
    lo("bench.trace_overhead_pct", "%"),
    lo("bench.span_residual_pct", "%"),
    lo("bench.wall_p99_us", "us"),
    lo("bench.round_iqr_pct", "%"),
    lo("bench.alloc_bytes_per_interaction", "bytes"),
    lo("bench.traced_ns_per_interaction", "ns"),
    lo("bench.untraced_ns_per_interaction", "ns"),
];
