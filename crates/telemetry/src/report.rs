//! Structured run reports: the per-architecture summary every bench bin
//! emits (JSON and text table) and CI validates.
//!
//! A [`RunReport`] is a titled list of [`ArchReport`] entries — one per
//! (architecture, delay) measurement point — carrying exactly the numbers
//! the paper's figures are argued from: cache hit ratio, commit abort
//! rate, retry/timeout counts, and p50/p95/p99 request latency.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::Json;

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
    /// Measured client interactions (successful).
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

    /// The report as an aligned plain-text table.
    pub fn render_text(&self) -> String {
        let header = [
            "arch", "delay_ms", "ok", "fail", "hit%", "abort%", "retry", "t/o", "replay", "p50_ms",
            "p95_ms", "p99_ms",
        ];
        let mut rows: Vec<Vec<String>> = vec![header.iter().map(|s| (*s).to_owned()).collect()];
        for e in &self.entries {
            rows.push(vec![
                e.arch.clone(),
                format!("{:.0}", e.delay_ms),
                e.interactions.to_string(),
                e.failed.to_string(),
                format!("{:.1}", e.hit_ratio * 100.0),
                format!("{:.2}", e.abort_rate * 100.0),
                e.retries.to_string(),
                e.timeouts.to_string(),
                e.dedup_replays.to_string(),
                format!("{:.2}", e.p50_ms),
                format!("{:.2}", e.p95_ms),
                format!("{:.2}", e.p99_ms),
            ]);
        }
        let widths: Vec<usize> = (0..header.len())
            .map(|col| rows.iter().map(|r| r[col].len()).max().unwrap_or(0))
            .collect();
        let mut out = format!("== {} ==\n", self.title);
        for row in &rows {
            for (col, cell) in row.iter().enumerate() {
                if col > 0 {
                    out.push_str("  ");
                }
                // Left-align the first column, right-align numbers.
                if col == 0 {
                    let _ = write!(out, "{cell:<width$}", width = widths[col]);
                } else {
                    let _ = write!(out, "{cell:>width$}", width = widths[col]);
                }
            }
            out.push('\n');
        }
        out
    }
}

/// Validates parsed JSON against the [`RUN_REPORT_SCHEMA`] shape. Returns
/// a human-readable description of the first violation found.
pub fn validate_run_report(json: &Json) -> Result<(), String> {
    let schema = json.req_str("schema", "report")?;
    if schema != RUN_REPORT_SCHEMA {
        return Err(format!(
            "report: schema {schema:?}, expected {RUN_REPORT_SCHEMA:?}"
        ));
    }
    json.req_str("title", "report")?;
    let entries = json.req_arr("entries", "report")?;
    if entries.is_empty() {
        return Err("report: \"entries\" must not be empty".to_owned());
    }
    for (i, entry) in entries.iter().enumerate() {
        let at = format!("entries[{i}]");
        entry.req_str("arch", &at)?;
        for key in [
            "delay_ms",
            "interactions",
            "failed",
            "hit_ratio",
            "abort_rate",
            "retries",
            "timeouts",
            "dedup_replays",
            "p50_ms",
            "p95_ms",
            "p99_ms",
            "mean_ms",
        ] {
            entry.req_num(key, &at)?;
        }
        for key in ["hit_ratio", "abort_rate"] {
            let v = entry.req_num(key, &at)?;
            if !(0.0..=1.0).contains(&v) {
                return Err(format!("{at}: {key:?} = {v} outside [0, 1]"));
            }
        }
        match entry.req("status", &at)? {
            Json::Obj(map) => {
                for (code, n) in map {
                    if n.as_f64().is_none() {
                        return Err(format!("{at}: status[{code:?}] must be a number"));
                    }
                }
            }
            _ => return Err(format!("{at}: \"status\" must be an object")),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_entry() -> ArchReport {
        ArchReport {
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
        }
    }

    #[test]
    fn emitted_json_validates_and_round_trips() {
        let mut report = RunReport::new("fig6");
        report.entries.push(sample_entry());
        let text = report.to_json().render();
        let parsed = Json::parse(&text).unwrap();
        validate_run_report(&parsed).unwrap();
        assert_eq!(parsed.get("title").unwrap().as_str(), Some("fig6"));
        let entry = &parsed.get("entries").unwrap().as_arr().unwrap()[0];
        assert_eq!(entry.get("hit_ratio").unwrap().as_f64(), Some(0.82));
    }

    #[test]
    fn validation_catches_shape_regressions() {
        let mut report = RunReport::new("fig6");
        report.entries.push(sample_entry());
        let good = report.to_json();

        // Empty entries.
        let empty = RunReport::new("x").to_json();
        assert!(validate_run_report(&empty).is_err());

        // Wrong schema id.
        let mut wrong = match good.clone() {
            Json::Obj(m) => m,
            _ => unreachable!(),
        };
        wrong.insert("schema".to_owned(), Json::from("v0"));
        assert!(validate_run_report(&Json::Obj(wrong)).is_err());

        // Dropped required field.
        let mut dropped = match good.clone() {
            Json::Obj(m) => m,
            _ => unreachable!(),
        };
        let entries = dropped.get_mut("entries").unwrap();
        if let Json::Arr(items) = entries {
            if let Json::Obj(e) = &mut items[0] {
                e.remove("retries");
            }
        }
        assert!(validate_run_report(&Json::Obj(dropped)).is_err());

        // Out-of-range ratio.
        let mut bad_ratio = match good {
            Json::Obj(m) => m,
            _ => unreachable!(),
        };
        if let Json::Arr(items) = bad_ratio.get_mut("entries").unwrap() {
            if let Json::Obj(e) = &mut items[0] {
                e.insert("hit_ratio".to_owned(), Json::Num(1.5));
            }
        }
        assert!(validate_run_report(&Json::Obj(bad_ratio)).is_err());
    }

    #[test]
    fn text_table_is_aligned_and_titled() {
        let mut report = RunReport::new("fig6");
        report.entries.push(sample_entry());
        let text = report.render_text();
        assert!(text.starts_with("== fig6 ==\n"), "{text}");
        let lines: Vec<&str> = text.lines().skip(1).collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].len(), lines[1].len(), "rows must align:\n{text}");
        assert!(lines[1].contains("ES/RDB (JDBC)"));
    }
}
