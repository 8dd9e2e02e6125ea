//! The recorded guarded metrics, `results/perfguard.csv`: its shape, and
//! the pins that hold on it. `perfguard` rewrites the file and the oracle's
//! `git diff --exit-code` gates on it, so a pin on the checked-in file is a
//! pin on the current code.

use std::path::Path;

/// `(point, metric, value)` per recorded line.
fn recorded() -> Vec<(String, String, f64)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("results/perfguard.csv");
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let mut lines = text.lines();
    assert_eq!(lines.next(), Some("point,metric,value"));
    lines
        .map(|line| {
            let (rest, value) = line.rsplit_once(',').expect("three fields");
            let (point, metric) = rest.rsplit_once(',').expect("three fields");
            let value = value.parse().unwrap_or_else(|e| panic!("{line}: {e}"));
            (point.to_owned(), metric.to_owned(), value)
        })
        .collect()
}

const CLOSED_METRICS: [&str; 6] = [
    "latency_ms",
    "latency_stdev_ms",
    "hit_ratio",
    "abort_rate",
    "failure_rate",
    "shared_bytes_per_interaction",
];

const LOADED_METRICS: [&str; 9] = [
    "achieved_tps",
    "latency_p95_ms",
    "failure_rate",
    "peak_queue_depth",
    "round_trips_per_interaction",
    "profile_share:wire",
    "profile_share:backend-db",
    "profile_share:edge-cpu",
    "profile_share:store-lock",
];

const JDBC_LOADED: &str = "ES/RDB (JDBC) loaded @ 10ms @ 3.0/s";
const JDBC_LOADED_BATCHED: &str = "ES/RDB (JDBC) loaded @ 10ms @ 3.0/s batched";
const RBES_LOADED: &str = "ES/RBES (Cached EJBs) loaded @ 10ms @ 8.0/s";

#[test]
fn the_recorded_baseline_keeps_its_shape_and_its_pins() {
    let rows = recorded();
    let value = |point: &str, metric: &str| {
        rows.iter()
            .find(|(p, m, _)| p == point && m == metric)
            .map(|(_, _, v)| *v)
            .unwrap_or_else(|| panic!("no {point} :: {metric}"))
    };

    // Shape: four closed points, then two loaded ones and the JDBC loaded
    // point's batched twin, each with its admission's metrics in order.
    let mut points: Vec<&str> = rows.iter().map(|(p, _, _)| p.as_str()).collect();
    points.dedup();
    assert_eq!(points.len(), 7, "{points:?}");
    assert_eq!(rows.len(), 51);
    for (i, point) in points.iter().enumerate() {
        let loaded = point.contains(" loaded @ ");
        assert_eq!(loaded, i >= 4, "{point}: closed points first");
        let want: &[&str] = if loaded {
            &LOADED_METRICS
        } else {
            &CLOSED_METRICS
        };
        let names: Vec<&str> = rows
            .iter()
            .filter(|(p, _, _)| p == point)
            .map(|(_, m, _)| m.as_str())
            .collect();
        assert_eq!(names, want, "{point}");
    }

    // Batched wire: the same run with OP_EXEC_BATCH must make strictly
    // fewer round trips per interaction than on the paper's wire, one
    // round trip per statement.
    let trips = |point| value(point, "round_trips_per_interaction");
    let (batched, unbatched) = (trips(JDBC_LOADED_BATCHED), trips(JDBC_LOADED));
    assert!(
        batched < unbatched,
        "batched wire regressed to {batched} round trips/interaction (paper's wire: {unbatched})"
    );

    // Loaded p95 stays within 10 % of what both loaded points measured on
    // the paper's wire with WAL appends switched off. The WAL charges no
    // virtual time, so those runs read the same as with it on: this pin
    // bounds how far loaded p95 may drift, a WAL cost included.
    for (point, reference) in [(JDBC_LOADED, 4091.186), (RBES_LOADED, 5364.646)] {
        let p95 = value(point, "latency_p95_ms");
        assert!(
            p95 < 1.10 * reference,
            "{point}: p95 drifted to {p95} ms (reference {reference} ms)"
        );
    }
}
