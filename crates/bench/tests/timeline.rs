//! Cross-architecture timeline correctness: for every architecture ×
//! flavor combination the harness can build, the windowed rate series must
//! conserve the run-end counter totals — per-window deltas summing exactly
//! to what the registry's counters read at the end of the measured phase —
//! and the assembled document must round-trip through the schema
//! validator from its rendered bytes.

use sli_arch::Architecture;
use sli_bench::{run, RunSpec};
use sli_simnet::SimDuration;
use sli_telemetry::{validate, Json, Schema, SeriesKind, TimelineDoc};

#[test]
fn rate_series_conserve_counter_totals_across_all_architectures() {
    let mut doc = TimelineDoc::new("timeline conservation test");
    for (arch, _) in Architecture::ALL {
        let run = run(&RunSpec::closed(arch, SimDuration::from_millis(20), true));
        assert!(
            run.timeline.series.len() > 3,
            "{}: timeline tracks the stack",
            run.report.arch
        );
        assert!(run.timeline.windows() > 0, "{}", run.report.arch);
        // Window counts and rate sums are the timeline law's to check, on
        // the document's bytes below.
        assert!(
            run.timeline
                .series
                .iter()
                .any(|s| s.kind == SeriesKind::Rate && s.total > 0),
            "{}: a measured run must move at least one counter",
            run.report.arch
        );

        // The servlet's request counter ties the timeline to the measured
        // interaction count reported alongside it.
        let requests = run
            .timeline
            .series
            .iter()
            .find(|s| s.name == "servlet.edge-1.requests")
            .expect("servlet requests series");
        // `interactions` already counts every measured request, failed
        // ones included.
        assert_eq!(requests.total, run.report.interactions);
        assert_eq!(run.report.failed, run.summary.failed as u64);

        doc.runs.push(run.timeline);
    }

    // The whole seven-run document survives a disk round trip: render,
    // re-parse the exact bytes, validate (including the conservation law).
    let reparsed = Json::parse(&doc.to_json().render()).expect("rendered JSON parses");
    assert_eq!(validate(&reparsed), Ok(Schema::Timeline));
}
