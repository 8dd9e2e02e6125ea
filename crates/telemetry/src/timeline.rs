//! Windowed virtual-time series: how a run's counters and gauges evolve.
//!
//! The run reports summarize a whole measured phase into one number per
//! metric; this module keeps the *shape* of the run. A [`Timeline`] holds
//! clones of the same shared [`Counter`]/[`Gauge`] handles the components
//! mutate (the registry idiom), and every call to [`Timeline::sample`]
//! reads them and files the readings into fixed-width windows of **virtual
//! time**. Counters become per-window *rate* series (the delta of the
//! cumulative count across the window); gauges become *level* series (the
//! last observed value in the window, forward-filled).
//!
//! Two properties make the result trustworthy:
//!
//! * **Conservation** — for every rate series, the per-window deltas sum
//!   exactly to the run-end counter total. Nothing is lost to binning,
//!   which the validator and the cross-architecture tests both pin.
//! * **Bounded width** — a full paper run spans hours of virtual time; when
//!   a sample lands past the configured window budget, the timeline
//!   doubles its window width and coalesces in place (power-of-two
//!   rebucketing), so exports stay readable without knowing the run length
//!   up front.
//!
//! Exports carry the [`TIMELINE_SCHEMA`] id and round-trip through
//! [`validate`](crate::validate); [`sparkline`] renders a series as a fixed ASCII
//! ramp for the bench binaries' terminal tables.

use std::collections::BTreeSet;
use std::sync::Mutex;

use crate::json::Json;
use crate::metrics::{Counter, Gauge};
use crate::registry::{Metric, Registry};
use crate::schema::Shape::{self, *};
use crate::schema::{items, uint};

/// Schema identifier embedded in every emitted timeline document; bump on
/// any incompatible shape change.
pub const TIMELINE_SCHEMA: &str = "sli-edge.timeline/v1";

/// Default bound on windows per series before the width doubles.
const DEFAULT_MAX_WINDOWS: usize = 96;

/// How a tracked metric is folded into windows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SeriesKind {
    /// Counter-backed: each window holds the cumulative delta that landed
    /// in it (events per window).
    Rate,
    /// Gauge-backed: each window holds the last observed value
    /// (forward-filled across unsampled windows).
    Level,
}

impl SeriesKind {
    /// The schema label (`"rate"` / `"level"`).
    pub fn label(self) -> &'static str {
        match self {
            SeriesKind::Rate => "rate",
            SeriesKind::Level => "level",
        }
    }
}

/// The shared handle a series samples from.
enum Source {
    Counter(Counter),
    Gauge(Gauge),
}

impl Source {
    fn value(&self) -> u64 {
        match self {
            Source::Counter(c) => c.get(),
            Source::Gauge(g) => g.get(),
        }
    }
}

struct SeriesState {
    name: String,
    kind: SeriesKind,
    source: Source,
    /// Reading at the last [`Timeline::rebase`]: rate totals are deltas
    /// against it, level series forward-fill from it.
    base: u64,
    /// `(window index, last reading observed within it)`, ascending by
    /// window. Samples come in time order, so filing one overwrites the
    /// last window or appends a new one.
    windows: Vec<(u64, u64)>,
}

impl SeriesState {
    /// Files `reading` as window `w`'s latest.
    fn file(&mut self, w: u64, reading: u64) {
        match self.windows.last_mut() {
            Some((last, v)) if *last == w => *v = reading,
            Some((last, _)) if *last > w => {
                match self.windows.binary_search_by_key(&w, |&(w, _)| w) {
                    Ok(at) => self.windows[at].1 = reading,
                    Err(at) => self.windows.insert(at, (w, reading)),
                }
            }
            _ => self.windows.push((w, reading)),
        }
    }

    /// Merges neighbouring windows in place for a doubled width: each pair
    /// keeps its later (larger-index) reading, the correct "last reading"
    /// for cumulative counters and gauges alike.
    fn coalesce(&mut self) {
        let mut kept = 0;
        for i in 0..self.windows.len() {
            let (w, v) = self.windows[i];
            if kept > 0 && self.windows[kept - 1].0 == w / 2 {
                self.windows[kept - 1].1 = v;
            } else {
                self.windows[kept] = (w / 2, v);
                kept += 1;
            }
        }
        self.windows.truncate(kept);
    }
}

struct Inner {
    window_us: u64,
    origin_us: u64,
    max_windows: usize,
    series: Vec<SeriesState>,
}

/// A set of counter/gauge series sampled into fixed-width virtual-time
/// windows (see the module docs).
///
/// Series are kept in name order whatever order they were tracked in, and
/// tracking a name that is already tracked changes nothing.
///
/// The sampling cadence is the caller's: nothing in the simulation ticks on
/// its own, so the measurement loop calls [`Timeline::sample`] with the
/// simulated clock's `now` whenever interesting work completed (the bench
/// harness samples after every client interaction).
///
/// ```
/// use sli_telemetry::{Counter, Timeline};
///
/// let requests = Counter::new();
/// let tl = Timeline::new(1_000); // 1 ms windows
/// tl.track_counter("requests", &requests);
/// requests.add(3);
/// tl.sample(500); // window 0
/// requests.add(2);
/// tl.sample(2_500); // window 2
/// let report = tl.report("demo");
/// assert_eq!(report.series[0].values, vec![3, 0, 2]);
/// assert_eq!(report.series[0].total, 5);
/// ```
pub struct Timeline {
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for Timeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().expect("timeline lock");
        f.debug_struct("Timeline")
            .field("window_us", &inner.window_us)
            .field("series", &inner.series.len())
            .finish_non_exhaustive()
    }
}

impl Timeline {
    /// Creates a timeline with `window_us`-wide windows (virtual
    /// microseconds) and the default window budget.
    ///
    /// # Panics
    /// Panics if `window_us` is zero.
    pub fn new(window_us: u64) -> Timeline {
        Timeline::with_max_windows(window_us, DEFAULT_MAX_WINDOWS)
    }

    /// Creates a timeline whose window width starts at `window_us` and
    /// doubles whenever a sample would land past `max_windows` windows.
    ///
    /// # Panics
    /// Panics if `window_us` is zero or `max_windows` < 2.
    pub fn with_max_windows(window_us: u64, max_windows: usize) -> Timeline {
        assert!(window_us > 0, "window width must be positive");
        assert!(max_windows >= 2, "need at least two windows to coalesce");
        Timeline {
            inner: Mutex::new(Inner {
                window_us,
                origin_us: 0,
                max_windows,
                series: Vec::new(),
            }),
        }
    }

    /// Tracks `counter` as a rate series named `name`. The handle is
    /// cloned, i.e. shared — the component keeps mutating the same cell.
    pub fn track_counter(&self, name: impl Into<String>, counter: &Counter) {
        self.track(
            name.into(),
            SeriesKind::Rate,
            Source::Counter(counter.clone()),
        );
    }

    /// Tracks `gauge` as a level series named `name`.
    pub fn track_gauge(&self, name: impl Into<String>, gauge: &Gauge) {
        self.track(name.into(), SeriesKind::Level, Source::Gauge(gauge.clone()));
    }

    /// Tracks every counter (as a rate series) and gauge (as a level
    /// series) `registry` holds right now, under its registry name.
    /// Histograms have no windowed form and are skipped. Names already
    /// tracked are left alone, so calling this again after a later attach
    /// adds only what is new.
    pub fn track_registry(&self, registry: &Registry) {
        for name in registry.names() {
            match registry.get(&name) {
                Some(Metric::Counter(c)) => self.track_counter(name, &c),
                Some(Metric::Gauge(g)) => self.track_gauge(name, &g),
                Some(Metric::Histogram(_)) | None => {}
            }
        }
    }

    fn track(&self, name: String, kind: SeriesKind, source: Source) {
        let series = &mut self.inner.lock().expect("timeline lock").series;
        if let Err(at) = series.binary_search_by(|s| s.name.as_str().cmp(&name)) {
            let base = source.value();
            series.insert(
                at,
                SeriesState {
                    name,
                    kind,
                    source,
                    base,
                    windows: Vec::new(),
                },
            );
        }
    }

    /// Number of tracked series.
    pub fn series_count(&self) -> usize {
        self.inner.lock().expect("timeline lock").series.len()
    }

    /// The current window width in virtual microseconds (grows by doubling
    /// as the run outlives the window budget).
    pub fn window_us(&self) -> u64 {
        self.inner.lock().expect("timeline lock").window_us
    }

    /// Restarts the timeline at `now_us`: window 0 begins here, collected
    /// windows are dropped, and every series' base becomes its current
    /// reading (so rate totals cover only what happens after the rebase —
    /// the warm-up/measure boundary of the §4.3 protocol).
    pub fn rebase(&self, now_us: u64) {
        let mut inner = self.inner.lock().expect("timeline lock");
        inner.origin_us = now_us;
        for s in &mut inner.series {
            s.base = s.source.value();
            s.windows.clear();
        }
    }

    /// Reads every tracked handle and files the readings into the window
    /// containing `now_us`. Samples before the origin clamp to window 0;
    /// repeated samples within one window keep the latest reading (which
    /// is exact for cumulative counters and last-write for gauges).
    pub fn sample(&self, now_us: u64) {
        let mut inner = self.inner.lock().expect("timeline lock");
        let offset = now_us.saturating_sub(inner.origin_us);
        let mut w = offset / inner.window_us;
        while w as usize >= inner.max_windows {
            inner.window_us *= 2;
            for s in &mut inner.series {
                s.coalesce();
            }
            w = offset / inner.window_us;
        }
        for s in &mut inner.series {
            let v = s.source.value();
            s.file(w, v);
        }
    }

    /// Snapshots the collected windows into a dense [`TimelineReport`]
    /// labelled `label`. Every series is padded to the same length (the
    /// highest sampled window + 1); rate windows without samples read 0,
    /// level windows forward-fill.
    pub fn report(&self, label: impl Into<String>) -> TimelineReport {
        let inner = self.inner.lock().expect("timeline lock");
        let len = inner
            .series
            .iter()
            .filter_map(|s| s.windows.last().map(|&(w, _)| w))
            .max()
            .map_or(0, |w| w as usize + 1);
        let series = inner
            .series
            .iter()
            .map(|s| {
                let mut values = vec![0u64; len];
                match s.kind {
                    SeriesKind::Rate => {
                        let mut prev = s.base;
                        for &(w, cum) in &s.windows {
                            values[w as usize] = cum.saturating_sub(prev);
                            prev = cum;
                        }
                        SeriesReport {
                            name: s.name.clone(),
                            kind: s.kind,
                            total: prev.saturating_sub(s.base),
                            values,
                        }
                    }
                    SeriesKind::Level => {
                        let mut last = s.base;
                        let mut next = s.windows.iter().peekable();
                        for (w, v) in values.iter_mut().enumerate() {
                            while let Some(&&(sw, sv)) = next.peek() {
                                if sw as usize <= w {
                                    last = sv;
                                    next.next();
                                } else {
                                    break;
                                }
                            }
                            *v = last;
                        }
                        SeriesReport {
                            name: s.name.clone(),
                            kind: s.kind,
                            total: last,
                            values,
                        }
                    }
                }
            })
            .collect();
        TimelineReport {
            label: label.into(),
            window_us: inner.window_us,
            series,
        }
    }
}

/// One series of a [`TimelineReport`]: a dense per-window value vector.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SeriesReport {
    /// Metric name (matches the registry name the handle is attached
    /// under, e.g. `store.edge-1.hits`).
    pub name: String,
    /// Rate (counter deltas) or level (gauge readings).
    pub kind: SeriesKind,
    /// Rate: the sum of all windows (== the counter total since the last
    /// rebase). Level: the final observed reading.
    pub total: u64,
    /// One value per window, all series of a report equally long.
    pub values: Vec<u64>,
}

impl SeriesReport {
    fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::from(self.name.clone())),
            ("kind", Json::from(self.kind.label())),
            ("total", Json::from(self.total)),
            (
                "values",
                Json::Arr(self.values.iter().map(|&v| Json::from(v)).collect()),
            ),
        ])
    }
}

/// The windows one measurement run collected: a labelled set of equally
/// binned series.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TimelineReport {
    /// Run label, e.g. `"ES/RBES (Cached EJBs) @ 40ms"`.
    pub label: String,
    /// Final window width in virtual microseconds.
    pub window_us: u64,
    /// The collected series (equal `values` lengths).
    pub series: Vec<SeriesReport>,
}

impl TimelineReport {
    /// Number of windows (0 when nothing was sampled).
    pub fn windows(&self) -> usize {
        self.series.first().map_or(0, |s| s.values.len())
    }

    /// This run as a JSON object (one element of a document's `runs`).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("run", Json::from(self.label.clone())),
            ("window_us", Json::from(self.window_us)),
            ("windows", Json::from(self.windows() as u64)),
            (
                "series",
                Json::Arr(self.series.iter().map(SeriesReport::to_json).collect()),
            ),
        ])
    }
}

/// A titled collection of [`TimelineReport`] runs — what the bench bins
/// write to `results/{name}.timeline.json`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TimelineDoc {
    /// Document title, e.g. `"fig6"`.
    pub title: String,
    /// One entry per measured (architecture, delay) run.
    pub runs: Vec<TimelineReport>,
}

impl TimelineDoc {
    /// Creates an empty document with the given title.
    pub fn new(title: impl Into<String>) -> TimelineDoc {
        TimelineDoc {
            title: title.into(),
            runs: Vec::new(),
        }
    }

    /// The whole document as JSON (with embedded schema id).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::from(TIMELINE_SCHEMA)),
            ("title", Json::from(self.title.clone())),
            (
                "runs",
                Json::Arr(self.runs.iter().map(TimelineReport::to_json).collect()),
            ),
        ])
    }
}

/// The [`TIMELINE_SCHEMA`] document [`TimelineDoc::to_json`] writes.
pub(crate) const SHAPE: Shape = Obj(&[
    ("schema", OneOf(&[TIMELINE_SCHEMA])),
    ("title", Str),
    ("runs", NonEmpty(&RUN)),
]);

/// One [`TimelineReport::to_json`].
const RUN: Shape = Obj(&[
    ("run", Str),
    ("window_us", U64),
    ("windows", U64),
    ("series", List(&SERIES)),
]);

/// One [`SeriesReport::to_json`].
const SERIES: Shape = Obj(&[
    ("name", Str),
    ("kind", OneOf(&["rate", "level"])),
    ("total", U64),
    ("values", List(&U64)),
]);

/// The timeline's law: windows have a width, every series of a run has
/// one value per declared window and a name no other series of the run
/// has, and a rate series' windows sum exactly to its `total`
/// (conservation).
pub(crate) fn law(doc: &Json) -> Result<(), String> {
    for (i, run) in items(doc, "runs").iter().enumerate() {
        if uint(run, "window_us") == 0 {
            return Err(format!("runs[{i}]: window_us must be positive"));
        }
        let mut names = BTreeSet::new();
        for (j, s) in items(run, "series").iter().enumerate() {
            let at = format!("runs[{i}].series[{j}]");
            let name = s.get("name").and_then(Json::as_str).unwrap_or_default();
            if !names.insert(name) {
                return Err(format!("{at}: duplicate series name {name:?}"));
            }
            let (values, windows) = (items(s, "values"), uint(run, "windows"));
            if values.len() as u64 != windows {
                let n = values.len();
                return Err(format!("{at} ({name}): {n} values for {windows} windows"));
            }
            let sum: u128 = values.iter().filter_map(Json::as_u64).map(u128::from).sum();
            let total = uint(s, "total");
            if s.get("kind") == Some(&Json::from("rate")) && sum != u128::from(total) {
                return Err(format!(
                    "{at} ({name}): rate windows sum to {sum}, total says {total}"
                ));
            }
        }
    }
    Ok(())
}

/// ASCII intensity ramp for [`sparkline`], darkest last.
const RAMP: &[u8] = b" .:-=+*#%@";

/// Renders `values` as a fixed-width ASCII sparkline, scaled to the series
/// maximum (all-zero series render as spaces).
pub fn sparkline(values: &[u64]) -> String {
    let max = values.iter().copied().max().unwrap_or(0);
    values
        .iter()
        .map(|&v| {
            if max == 0 {
                ' '
            } else {
                // Round up so any nonzero value is visibly nonzero.
                let idx = (v as u128 * (RAMP.len() as u128 - 1)).div_ceil(max as u128);
                RAMP[idx as usize] as char
            }
        })
        .collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn rate_windows_sum_to_counter_total() {
        let c = Counter::new();
        let tl = Timeline::new(1_000);
        tl.track_counter("c", &c);
        let mut expected = 0u64;
        for step in 0..50u64 {
            c.add(step % 7);
            expected += step % 7;
            tl.sample(step * 777);
        }
        let report = tl.report("r");
        assert_eq!(report.series[0].total, expected);
        assert_eq!(report.series[0].values.iter().sum::<u64>(), expected);
        assert_eq!(report.series[0].kind, SeriesKind::Rate);
    }

    #[test]
    fn track_registry_is_a_view_of_the_registrys_counters_and_gauges() {
        let registry = Registry::new();
        let (hits, size) = (Counter::new(), Gauge::new());
        registry.attach_gauge("store.size", &size);
        registry.attach_counter("store.hits", &hits);
        registry.attach_histogram("store.latency_us", &crate::Histogram::new());
        let tl = Timeline::new(1_000);
        tl.track_registry(&registry);
        tl.track_registry(&registry); // re-tracking changes nothing
        tl.track_counter("store.hits", &Counter::new()); // nor does a second handle
        hits.add(3);
        size.set(7);
        tl.sample(100);
        let kinds = |tl: &Timeline| -> Vec<(String, SeriesKind, u64)> {
            let series = tl.report("r").series;
            series
                .into_iter()
                .map(|s| (s.name, s.kind, s.total))
                .collect()
        };
        // Name order, counter → rate, gauge → level, histogram skipped.
        assert_eq!(
            kinds(&tl),
            [
                ("store.hits".to_owned(), SeriesKind::Rate, 3),
                ("store.size".to_owned(), SeriesKind::Level, 7),
            ]
        );
        // A later attach is picked up by a later call, at its place in
        // name order, without disturbing what was collected.
        registry.attach_counter("store.evictions", &Counter::new());
        tl.track_registry(&registry);
        let names: Vec<String> = kinds(&tl).into_iter().map(|(name, ..)| name).collect();
        assert_eq!(names, ["store.evictions", "store.hits", "store.size"]);
        assert_eq!(kinds(&tl)[1].2, 3);
    }

    #[test]
    fn coalescing_preserves_the_sum_and_bounds_width() {
        let c = Counter::new();
        let tl = Timeline::with_max_windows(100, 4);
        tl.track_counter("c", &c);
        for i in 0..1_000u64 {
            c.inc();
            tl.sample(i * 250); // far past 4 windows of 100 µs
        }
        assert!(tl.window_us() > 100, "width must have doubled");
        let report = tl.report("r");
        assert!(report.windows() <= 4);
        assert_eq!(report.series[0].total, 1_000);
        assert_eq!(report.series[0].values.iter().sum::<u64>(), 1_000);
    }

    /// The windows as a map from index to reading, filed and coalesced the
    /// way the timeline kept them before they were a sorted vector.
    fn map_model(samples: &[(u64, u64)], window_us: u64, max: usize) -> Vec<(u64, u64)> {
        let (mut width, mut windows) = (window_us, std::collections::BTreeMap::new());
        for &(now_us, reading) in samples {
            let mut w = now_us / width;
            while w as usize >= max {
                width *= 2;
                windows = windows.into_iter().map(|(w, v)| (w / 2, v)).collect();
                w = now_us / width;
            }
            windows.insert(w, reading);
        }
        windows.into_iter().collect()
    }

    #[test]
    fn windows_file_and_coalesce_as_the_map_model_did() {
        let mut seed = 0x5eed_0026u64;
        let mut next = |n: u64| {
            seed = seed
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (seed >> 33) % n
        };
        for case in 0..200 {
            let (c, g) = (Counter::new(), Gauge::new());
            let tl = Timeline::with_max_windows(100, 8);
            tl.track_counter("c", &c);
            tl.track_gauge("g", &g);
            let mut now = 0u64;
            let mut samples = Vec::new();
            for _ in 0..next(60) {
                // Mostly forward within or past a window, sometimes back,
                // sometimes far ahead (a widening).
                now = match next(10) {
                    0 => now.saturating_sub(next(400)),
                    1 => now + next(20_000),
                    _ => now + next(150),
                };
                c.add(next(5));
                g.set(next(1_000));
                tl.sample(now);
                samples.push((now, c.get(), g.get()));
            }
            let counts: Vec<_> = samples.iter().map(|&(t, c, _)| (t, c)).collect();
            let levels: Vec<_> = samples.iter().map(|&(t, _, g)| (t, g)).collect();
            let inner = tl.inner.lock().unwrap();
            assert_eq!(
                inner.series[0].windows,
                map_model(&counts, 100, 8),
                "case {case}"
            );
            assert_eq!(
                inner.series[1].windows,
                map_model(&levels, 100, 8),
                "case {case}"
            );
        }
    }

    #[test]
    fn level_series_forward_fill() {
        let g = Gauge::new();
        g.set(5);
        let tl = Timeline::new(1_000);
        tl.track_gauge("g", &g);
        tl.sample(500); // window 0: 5
        g.set(9);
        tl.sample(3_500); // window 3: 9
        let report = tl.report("r");
        assert_eq!(report.series[0].values, vec![5, 5, 5, 9]);
        assert_eq!(report.series[0].total, 9);
        assert_eq!(report.series[0].kind, SeriesKind::Level);
    }

    #[test]
    fn rebase_subtracts_warmup_counts() {
        let c = Counter::new();
        let tl = Timeline::new(1_000);
        tl.track_counter("c", &c);
        c.add(100); // warm-up traffic
        tl.sample(500);
        tl.rebase(10_000);
        c.add(7);
        tl.sample(10_100);
        let report = tl.report("r");
        assert_eq!(report.series[0].total, 7);
        assert_eq!(report.series[0].values, vec![7]);
    }

    #[test]
    fn empty_timeline_reports_zero_windows() {
        let tl = Timeline::new(1_000);
        tl.track_counter("c", &Counter::new());
        let report = tl.report("r");
        assert_eq!(report.windows(), 0);
        assert!(report.series[0].values.is_empty());
        assert_eq!(report.series[0].total, 0);
    }

    /// A known-good timeline document, for the schema tests.
    pub(crate) fn sample() -> Json {
        let c = Counter::new();
        let g = Gauge::new();
        let tl = Timeline::new(1_000);
        tl.track_counter("hits", &c);
        tl.track_gauge("size", &g);
        for i in 0..20u64 {
            c.add(2);
            g.set(i);
            tl.sample(i * 900);
        }
        let mut doc = TimelineDoc::new("unit");
        doc.runs.push(tl.report("arch @ 0ms"));
        doc.to_json()
    }

    #[test]
    fn sparkline_scales_to_the_maximum() {
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[0, 0, 0]), "   ");
        let line = sparkline(&[0, 1, 5, 10]);
        assert_eq!(line.len(), 4);
        assert!(line.starts_with(' '));
        assert!(line.ends_with('@'), "max maps to the darkest glyph: {line}");
        assert_ne!(&line[1..2], " ", "nonzero values must be visible");
    }
}
