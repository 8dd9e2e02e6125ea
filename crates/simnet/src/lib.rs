//! # sli-simnet — deterministic simulated network testbed
//!
//! The paper's evaluation ran on four physical machines joined by 100 Mbit
//! Ethernet, with a proprietary *delay proxy* interposed on one communication
//! path to emulate wide-area latency. This crate reproduces that testbed as a
//! deterministic, single-process simulation:
//!
//! * [`Clock`] — a virtual clock measured in microseconds. All latency in the
//!   system is accounted by advancing this clock, never by sleeping.
//! * [`Path`] — a bidirectional communication path with a configurable
//!   one-way base latency, bandwidth, and an adjustable injected *proxy
//!   delay* (the knob the paper sweeps along the x-axis of Figures 6 and 7).
//!   Every byte crossing a path is metered, which is how Figure 8
//!   (bandwidth-per-interaction) is regenerated.
//! * [`Remote`] — an RPC shim that charges a request and a response crossing
//!   to a path around an inline service invocation. Because the paper's
//!   measurements are taken in a deliberately *low-load* setting (one virtual
//!   client, no queueing), cost-accounting RPC reproduces the measured
//!   latency behaviour exactly while remaining deterministic.
//! * [`FaultPlan`]/[`Fault`] — seeded, reproducible fault injection per
//!   path: dropped requests, dropped responses, duplicate deliveries and
//!   transient unavailability. [`Remote::call`] retries them under a
//!   clock-driven [`RetryPolicy`], surfacing [`CallError`] once the budget
//!   is exhausted; [`Remote::call_once`] is the no-retry escape hatch for
//!   non-idempotent payloads.
//! * [`Scheduler`]/[`ExhaustiveExplorer`] — deterministic schedule
//!   exploration for multi-client checking harnesses: seeded random walks
//!   with per-seed replay, scripted replay with sequential completion (the
//!   shrinking primitive), and depth-bounded exhaustive enumeration.
//! * [`wire`] — a small self-describing binary codec. All simulated traffic
//!   is really encoded and decoded so that byte counts are honest.
//! * [`HttpRequest`]/[`HttpResponse`] — minimal HTTP/1.0-style framing for
//!   the client ↔ server hop.
//!
//! ## Example
//!
//! ```
//! use sli_simnet::{Clock, Path, PathSpec, SimDuration};
//! use std::sync::Arc;
//!
//! let clock = Arc::new(Clock::new());
//! let path = Path::new("edge-db", Arc::clone(&clock), PathSpec::lan());
//! path.set_proxy_delay(SimDuration::from_millis(40));
//! path.request(200);   // 200-byte request crosses the path
//! path.respond(1000);  // 1000-byte response comes back
//! assert!(clock.now().as_micros() >= 80_000); // two one-way crossings
//! assert_eq!(path.stats().bytes_to_server, 200);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod fault;
mod http;
mod path;
mod remote;
mod sched;
pub mod wire;

pub use clock::{Clock, SimDuration, SimTime, TimeWarp};
pub use fault::{CrashKind, Fault, FaultPlan, FaultStats};
pub use http::{HeadLines, HttpRequest, HttpResponse};
pub use path::{Path, PathMetrics, PathSpec, PathStats};
pub use remote::{CallError, Remote, RetryPolicy, Service};
pub use sched::{splitmix, ExhaustiveExplorer, ScheduleStep, Scheduler};
