//! # sli-telemetry — measurement substrate for the edge-server testbed
//!
//! The paper's argument is quantitative: Figures 6–8 and Table 2 compare
//! architectures by latency sensitivity, and the SLI cache's value rests on
//! hit rates and abort rates. This crate is the measurement layer those
//! numbers flow through:
//!
//! * [`Counter`], [`Gauge`] and [`Histogram`] — lock-free handles that
//!   components own directly. Cloning a handle shares the underlying cell,
//!   so a component keeps its counter in a hot field while the same handle
//!   sits in a [`Registry`] under a stable name.
//! * [`Registry`] — a named catalogue of metric handles. There is no global
//!   registry: every `Testbed` owns its own, so tests can build many
//!   same-named paths without collisions.
//! * [`TraceLog`] / [`SpanEvent`] — a bounded log of causally-linked spans
//!   (servlet roots, RPC crossings, commit-protocol steps, SQL statement
//!   leaves). Timestamps come from the caller's simulated clock; this
//!   crate has no clock of its own.
//! * [`TraceCtx`] / [`Tracer`] — trace-context propagation: deterministic
//!   trace/span ids and the "current span" cell the layers thread a
//!   request's identity through (in place of the thread-locals a real
//!   stack would use).
//! * [`critical_path`] / [`conflict_leaderboard`] — span-tree analysis:
//!   per-[`Bucket`] latency attribution and OCC abort forensics.
//! * [`Profile`] / [`Resource`] — cross-session aggregate profiling:
//!   per-span-class self times, collapsed-stack flamegraph export,
//!   per-resource shares of latency (utilization is the simulation
//!   clock's busy count), exported under [`PROFILE_SCHEMA`], plus the
//!   [`littles_law`] L = λ·W consistency check for loaded runs.
//! * [`chrome_trace`] — Chrome trace-event JSON export
//!   (Perfetto-loadable).
//! * [`Json`] — a tiny self-contained JSON value (deterministic key order),
//!   with a parser for validating emitted reports.
//! * [`RunReport`] / [`ArchReport`] — the structured per-architecture
//!   summary (hit ratio, abort rate, retries, tail latency) that the bench
//!   bins emit under [`RUN_REPORT_SCHEMA`].
//! * [`HistoryLog`] / [`HistoryEvent`] — operation histories for the
//!   schedule-exploring consistency checker, with a counterexample export
//!   ([`COUNTEREXAMPLE_SCHEMA`]).
//! * [`Timeline`] / [`TimelineDoc`] — windowed virtual-time series:
//!   counters and gauges sampled into fixed-width windows, exported under
//!   [`TIMELINE_SCHEMA`], with [`sparkline`] for terminal rendering.
//! * [`SloMonitor`] / [`Incident`] — *online* SLO detection on virtual
//!   time: multi-window burn-rate and EWMA drift detectors over the same
//!   shared handles, plus a flight recorder that freezes
//!   [`INCIDENT_SCHEMA`] artifacts the instant a detector fires — making
//!   time-to-detect an exact measurement instead of a dashboard anecdote.
//! * [`validate`] / [`Schema`] — the one check every artifact above goes
//!   through before it is written and after it is read back: the
//!   document's embedded id picks its kind, a declarative shape table
//!   (kept beside the kind's `to_json`) fixes its members and their types,
//!   and the kind's law checks what a shape cannot (conservation sums,
//!   interval nesting, cross references).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod export;
mod history;
mod json;
mod metrics;
mod monitor;
mod profile;
mod registry;
mod report;
mod schema;
mod span;
mod timeline;
mod trace_ctx;
mod tree;

pub use export::chrome_trace;
pub use history::{
    history_json, parse_history, HistoryEvent, HistoryImage, HistoryLog, COUNTEREXAMPLE_SCHEMA,
};
pub use json::{Json, MAX_JSON_DEPTH};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
pub use monitor::{Incident, MonitorMetrics, SloMonitor, DETECTOR_NAMES, INCIDENT_SCHEMA};
pub use profile::{
    littles_law, resource_for, span_class, ClassStat, LittlesLaw, Profile, Resource, PROFILE_SCHEMA,
};
pub use registry::{Metric, MetricValue, Registry};
pub use report::{ArchReport, RunReport, RUN_REPORT_SCHEMA};
pub use schema::{validate, Schema};
pub use span::{ConflictInfo, SpanDetail, SpanEvent, SpanOutcome, TraceLog};
pub use timeline::{
    sparkline, SeriesKind, SeriesReport, Timeline, TimelineDoc, TimelineReport, TIMELINE_SCHEMA,
};
pub use trace_ctx::{OpenSpan, TraceCtx, Tracer};
pub use tree::{bucket_for, conflict_leaderboard, critical_path, Breakdown, Bucket, ConflictEntry};
