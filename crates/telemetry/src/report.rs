//! Structured run reports: the per-architecture summary every bench bin
//! emits as JSON and CI validates.
//!
//! A [`RunReport`] is a titled list of [`ArchReport`] entries — one per
//! (architecture, delay) measurement point — carrying exactly the numbers
//! the paper's figures are argued from: cache hit ratio, commit abort
//! rate, retry/timeout counts, and p50/p95/p99 request latency.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::schema::Shape::{self, *};

/// Schema identifier embedded in every emitted report; bump on any
/// incompatible shape change.
pub const RUN_REPORT_SCHEMA: &str = "sli-edge.run-report/v1";

/// Per-architecture (and per-delay-point) measurement summary.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ArchReport {
    /// Architecture label, e.g. `"ES/RDB (JDBC)"`.
    pub arch: String,
    /// Injected one-way delay of the measured point, milliseconds.
    pub delay_ms: f64,
    /// Measured client interactions, failed ones included.
    pub interactions: u64,
    /// Failed client interactions.
    pub failed: u64,
    /// Edge-cache hit ratio over the measured phase (`0.0` when the
    /// architecture has no cache).
    pub hit_ratio: f64,
    /// Commit abort (optimistic-conflict) rate over attempted commits.
    pub abort_rate: f64,
    /// RPC retry attempts beyond the first, summed over all paths.
    pub retries: u64,
    /// RPC attempts that timed out.
    pub timeouts: u64,
    /// Commit requests answered from the dedup journal (at-most-once
    /// replays).
    pub dedup_replays: u64,
    /// Median request latency, milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile request latency, milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile request latency, milliseconds.
    pub p99_ms: f64,
    /// Mean request latency, milliseconds.
    pub mean_ms: f64,
    /// HTTP status counts keyed by status code as a string (`"200"`, ...).
    pub status: BTreeMap<String, u64>,
}

impl ArchReport {
    /// This entry as a JSON object.
    pub fn to_json(&self) -> Json {
        let status = Json::Obj(
            self.status
                .iter()
                .map(|(code, n)| (code.clone(), Json::from(*n)))
                .collect(),
        );
        Json::obj([
            ("arch", Json::from(self.arch.clone())),
            ("delay_ms", Json::Num(self.delay_ms)),
            ("interactions", Json::from(self.interactions)),
            ("failed", Json::from(self.failed)),
            ("hit_ratio", Json::Num(self.hit_ratio)),
            ("abort_rate", Json::Num(self.abort_rate)),
            ("retries", Json::from(self.retries)),
            ("timeouts", Json::from(self.timeouts)),
            ("dedup_replays", Json::from(self.dedup_replays)),
            ("p50_ms", Json::Num(self.p50_ms)),
            ("p95_ms", Json::Num(self.p95_ms)),
            ("p99_ms", Json::Num(self.p99_ms)),
            ("mean_ms", Json::Num(self.mean_ms)),
            ("status", status),
        ])
    }
}

/// A titled collection of [`ArchReport`] entries for one benchmark run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunReport {
    /// Run title, e.g. `"fig6"`.
    pub title: String,
    /// One entry per measured (architecture, delay) point.
    pub entries: Vec<ArchReport>,
}

impl RunReport {
    /// Creates an empty report with the given title.
    pub fn new(title: impl Into<String>) -> RunReport {
        RunReport {
            title: title.into(),
            entries: Vec::new(),
        }
    }

    /// The whole report as a JSON object (with embedded schema id).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::from(RUN_REPORT_SCHEMA)),
            ("title", Json::from(self.title.clone())),
            (
                "entries",
                Json::Arr(self.entries.iter().map(ArchReport::to_json).collect()),
            ),
        ])
    }
}

/// The [`RUN_REPORT_SCHEMA`] document [`RunReport::to_json`] writes.
pub(crate) const SHAPE: Shape = Obj(&[
    ("schema", OneOf(&[RUN_REPORT_SCHEMA])),
    ("title", Str),
    ("entries", NonEmpty(&ENTRY)),
]);

/// One [`ArchReport::to_json`].
const ENTRY: Shape = Obj(&[
    ("arch", Str),
    ("delay_ms", Num),
    ("interactions", U64),
    ("failed", U64),
    ("hit_ratio", Ratio),
    ("abort_rate", Ratio),
    ("retries", U64),
    ("timeouts", U64),
    ("dedup_replays", U64),
    ("p50_ms", Num),
    ("p95_ms", Num),
    ("p99_ms", Num),
    ("mean_ms", Num),
    ("status", MapOf(&U64)),
]);

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn sample_report() -> RunReport {
        let mut report = RunReport::new("fig6");
        report.entries.push(ArchReport {
            arch: "ES/RDB (JDBC)".to_owned(),
            delay_ms: 40.0,
            interactions: 330,
            failed: 0,
            hit_ratio: 0.82,
            abort_rate: 0.01,
            retries: 3,
            timeouts: 1,
            dedup_replays: 1,
            p50_ms: 98.5,
            p95_ms: 310.0,
            p99_ms: 480.0,
            mean_ms: 120.25,
            status: BTreeMap::from([("200".to_owned(), 330u64)]),
        });
        report
    }

    /// A known-good run report, for the schema tests.
    pub(crate) fn sample() -> Json {
        sample_report().to_json()
    }
}
