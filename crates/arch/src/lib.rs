//! # sli-arch — the three high-latency deployment architectures
//!
//! §3 of the paper characterizes three architectures "in terms of the
//! location of the high-latency communication path":
//!
//! * **ES/RDB** — edge servers share a remote database; the delay proxy
//!   sits between the application servers and the database. Runs all three
//!   data-access flavors (JDBC / vanilla EJB / cached EJB, the latter in
//!   the *combined-servers* configuration).
//! * **ES/RBES** — cache-enhanced edge servers coordinate through a remote
//!   back-end server clustered with the database; the delay proxy sits
//!   between the edges and the back-end. Only meaningful with EJB caching
//!   (the *split-servers* configuration).
//! * **Clients/RAS** — no edge servers: clients cross the delay proxy to
//!   reach a remote application server co-located with the database.
//!
//! [`DataTier::build`] is the one assembly of an architecture × flavor
//! combination's data side (database machine, back-end, paths, caches,
//! commit points) for any entity metadata; [`Testbed::build`] deploys
//! Trade's application servers on it to complete the four simulated
//! machines of §4.1, and [`VirtualClient`] plays the load-generator
//! machine.
//!
//! The crate also hosts `slicheck`, the schedule-exploring consistency
//! checker: [`run_slicheck`] drives N logical bank clients on the same
//! [`DataTier`] under a deterministic [`Scheduler`](sli_simnet::Scheduler),
//! records an operation history, and [`analyze`] checks it for
//! serializability and the SLI invariants post-hoc.
//!
//! The same scheduler is the *main-loop* execution model too: the
//! [`LoadEngine`] multiplexes many logical sessions on virtual time,
//! admitting them closed (the paper's one-client protocol) or open
//! (from a deterministic arrival schedule) and letting the scheduler pick
//! which session's RPC fires next — so every throughput/latency
//! measurement carries the same replayability guarantees as checker runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checker;
mod client;
mod engine;
mod report;
mod servlet;
mod slicheck;
mod tier;
mod topology;

pub use checker::{analyze, ChainVersion, HistoryAnalysis, TxnRef, Violation};
pub use client::{Interaction, VirtualClient};
pub use engine::{
    FaultEvent, LoadEngine, LoadMetrics, LoadPlan, LoadedInteraction, LoadedRun, RunHooks,
    SpanObserver,
};
pub use report::collect_report;
pub use servlet::{parse_action, AppServer, ServletMetrics};
pub use slicheck::{
    arch_by_key, arch_key, counterexample_json, run_slicheck, shrink_schedule, ScheduleSource,
    SliCheckConfig, SliCheckOutcome, ARCH_KEYS,
};
pub use tier::{DataTier, EdgeCache, TierEdge};
pub use topology::{Architecture, EdgeNode, Flavor, Testbed, TestbedConfig};
