//! Online SLO monitoring: streaming detectors on virtual time plus an
//! incident flight recorder.
//!
//! Everything built before this module is post-hoc: timelines, profiles and
//! reports are rendered after the makespan ends. A production three-tier
//! server is operated the other way round — detectors watch the service
//! *while it runs* and page when an objective is about to be missed. This
//! module brings that discipline onto the simulated clock, where it gains a
//! property no wall-clock monitoring stack has: **time-to-detect is an
//! exact, reproducible number**, because both the fault injection instant
//! and the detector firing instant are microsecond-precise virtual
//! timestamps of a deterministic run.
//!
//! The [`SloMonitor`] evaluates three latched detectors over the same shared
//! [`Counter`]/[`Gauge`] handles the [`Timeline`](crate::Timeline) samples:
//!
//! * `burn_rate` — multi-window error-budget burn. An interaction is *bad*
//!   when it fails outright or exceeds the latency SLO; the detector fires
//!   when the bad-event fraction over both a fast and a slow window exceeds
//!   `BURN_THRESHOLD` times the objective (the classic two-window page rule:
//!   the fast window gives speed, the slow window gives evidence).
//! * `latency_ewma` — an EWMA control chart on per-interaction latency. It
//!   calibrates a baseline mean/σ from the first `CALIBRATION` completions
//!   (Welford), then fires when the smoothed level leaves
//!   `μ₀ + L·σ·√(λ/(2−λ))`.
//! * `queue_ewma` — the same chart on the engine's ready-queue depth gauge,
//!   sampled at every evaluation point. Queue growth is the leading
//!   indicator: it moves before latency percentiles do, because depth rises
//!   the moment service slows while latency is only observed at completion.
//!
//! Detectors **latch**: each fires at most once per run, and the first
//! firing timestamp is the detection time. When any detector fires, the
//! flight recorder — a bounded ring of recent spans and per-window
//! aggregates that is always on, exactly like its aviation namesake —
//! freezes an [`Incident`] artifact: breach geometry, budget state, recent
//! span trees, hottest conflict entities, and whatever context the caller
//! attached (the active `FaultPlan`, the architecture key). The artifact
//! renders as `sli-edge.incident/v1` JSON and [`validate`](crate::validate)
//! round-trips it from bytes, so incident files get the same CI treatment
//! as timelines and profiles.
//!
//! This crate knows nothing about `sli-simnet`, so fault plans enter the
//! incident as caller-supplied JSON context — the monitor records what it
//! was told, the bench layer tells it the truth.

use crate::metrics::Gauge;
use crate::registry::Registry;
use crate::schema::Shape::{self, *};
use crate::schema::{items, uint};
use crate::span::SpanEvent;
use crate::tree::conflict_leaderboard;
use crate::Counter;
use crate::Json;
use std::collections::BTreeMap;
use std::collections::VecDeque;

/// Schema identifier embedded in every incident artifact.
pub const INCIDENT_SCHEMA: &str = "sli-edge.incident/v1";

/// Parts-per-million denominator used for budget arithmetic.
const PPM: u64 = 1_000_000;

// The one detector configuration. Clean runs at moderate utilisation must
// stay silent (the `monitor` bin's false-positive gate sweeps all seven
// combinations), while every scripted fault class — back-end outage, loss
// burst, flash crowd — must trip every detector, and each detector must be
// the first to page on some (combination, fault) pair. The retry policy is
// what makes this possible: a clean interaction costs tens of milliseconds
// of virtual time, a faulted one at least one 1 s time-out or a growing
// backoff chain, so a 500 ms latency SLO splits them cleanly.

/// Latency objective, µs: a slower interaction is *bad* even if it succeeded.
const LATENCY_SLO_US: u64 = 500_000;
/// Error-budget objective: 0.1 % of interactions may be bad.
const OBJECTIVE_PPM: u64 = 1_000;
/// Fast and slow burn windows, µs: long enough to hold `MIN_EVENTS` even
/// at half a session per second, where an outage thins completions to a
/// trickle.
const FAST_WINDOW_US: u64 = 4_000_000;
const SLOW_WINDOW_US: u64 = 16_000_000;
/// Multiple of the objective at which both burn windows must burn.
const BURN_THRESHOLD: f64 = 25.0;
/// Events a window must hold before its fraction is trusted.
const MIN_EVENTS: u64 = 10;
/// EWMA smoothing factor λ and control limit L (σ-of-the-statistic units).
const EWMA_LAMBDA: f64 = 0.25;
const EWMA_LIMIT: f64 = 12.0;
/// Samples each drift baseline calibrates on before its chart arms.
const CALIBRATION: u64 = 100;
/// Floor on the calibrated latency σ, µs (12 % of the SLO): the smallest
/// shift the latency chart pages on. Drift negligible at the objective's
/// scale is ignored however tight the calibration was, which clears the
/// vanilla-EJB combination's large clean-traffic latency swings.
const LATENCY_SIGMA_FLOOR_US: f64 = 60_000.0;
/// Flight-recorder span ring and metric-window ring capacities, and the
/// length of one metric window (µs).
const SPAN_RING: usize = 256;
const WINDOW_RING: usize = 96;
const RECORDER_WINDOW_US: u64 = 500_000;

/// Shared metric handles for the monitor itself, registered under
/// `monitor.*` by the testbed so the timeline can watch the watcher.
#[derive(Debug, Clone, Default)]
pub struct MonitorMetrics {
    /// Detector firings (each latched detector contributes at most one).
    pub incidents: Counter,
    /// Detector evaluation passes (one per change point the engine hits).
    pub evaluations: Counter,
    /// Error budget remaining, parts-per-million of the run's allowance.
    pub budget_remaining_ppm: Gauge,
}

impl MonitorMetrics {
    /// Creates a fresh, unregistered handle set.
    pub fn new() -> MonitorMetrics {
        MonitorMetrics::default()
    }

    /// Attaches the handles to `registry` under `prefix.*`.
    pub fn register_with(&self, registry: &Registry, prefix: &str) {
        registry.attach_counter(format!("{prefix}.incidents"), &self.incidents);
        registry.attach_counter(format!("{prefix}.evaluations"), &self.evaluations);
        registry.attach_gauge(
            format!("{prefix}.budget_remaining_ppm"),
            &self.budget_remaining_ppm,
        );
    }
}

/// Welford running mean/variance used for drift-baseline calibration.
#[derive(Debug, Clone, Copy, Default)]
struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
    }

    fn sigma(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / (self.n - 1) as f64).sqrt()
        }
    }
}

/// One EWMA drift chart over a scalar signal, with its calibrated baseline.
#[derive(Debug, Clone)]
struct EwmaChart {
    cal: Welford,
    /// Baseline (μ₀, σ) once armed.
    baseline: Option<(f64, f64)>,
    /// Absolute σ floor: keeps the chart sane when calibration happened to
    /// see a near-constant signal (an idle queue is *exactly* constant).
    sigma_floor: f64,
    ewma: f64,
    fired: Option<Fired>,
}

/// Breach geometry captured at the instant a detector fired.
#[derive(Debug, Clone, Copy)]
struct Fired {
    at_us: u64,
    observed: f64,
    threshold: f64,
    baseline: f64,
    sigma: f64,
    window_us: u64,
}

impl EwmaChart {
    fn new(sigma_floor: f64) -> EwmaChart {
        EwmaChart {
            cal: Welford::default(),
            baseline: None,
            sigma_floor,
            ewma: 0.0,
            fired: None,
        }
    }

    /// Feeds one sample; arms the chart once calibration completes.
    fn push(&mut self, now_us: u64, x: f64) {
        let Some((mu, sigma)) = self.baseline else {
            self.cal.push(x);
            if self.cal.n >= CALIBRATION {
                let mu = self.cal.mean;
                let sigma = self.cal.sigma().max(self.sigma_floor).max(mu.abs() * 0.05);
                self.baseline = Some((mu, sigma));
                self.ewma = mu;
            }
            return;
        };
        self.ewma = EWMA_LAMBDA * x + (1.0 - EWMA_LAMBDA) * self.ewma;
        let ewma_sigma = sigma * (EWMA_LAMBDA / (2.0 - EWMA_LAMBDA)).sqrt();
        let ewma_limit = mu + EWMA_LIMIT * ewma_sigma;
        if self.fired.is_none() && self.ewma > ewma_limit {
            self.fired = Some(Fired {
                at_us: now_us,
                observed: self.ewma,
                threshold: ewma_limit,
                baseline: mu,
                sigma,
                window_us: 0,
            });
        }
    }
}

/// One flight-recorder aggregation window.
#[derive(Debug, Clone, Copy, Default)]
struct WindowStat {
    at_us: u64,
    completions: u64,
    bad: u64,
    max_latency_us: u64,
    queue_depth: u64,
}

/// A frozen detector firing: everything needed to understand the breach
/// without re-running the workload.
#[derive(Debug, Clone)]
pub struct Incident {
    /// Run label (architecture key, scenario name — caller's choice).
    pub label: String,
    /// Which detector fired.
    pub detector: &'static str,
    /// The signal it watches (`"bad_fraction"`, `"latency_us"`, ...).
    pub signal: &'static str,
    /// Virtual-time firing instant, µs.
    pub detected_at_us: u64,
    /// Observed statistic at the breach.
    pub observed: f64,
    /// Threshold it crossed.
    pub threshold: f64,
    /// Calibrated or configured baseline the threshold derives from.
    pub baseline: f64,
    /// Baseline σ (0 for `burn_rate`, which is not σ-scaled).
    pub sigma: f64,
    /// Evaluation window, µs (0 for the per-sample drift charts).
    pub window_us: u64,
    /// Budget objective, ppm of interactions allowed bad.
    pub objective_ppm: u64,
    /// Budget consumed at detection, ppm of the run's allowance.
    pub consumed_ppm: u64,
    /// Budget remaining at detection, ppm (clamped to [0, 1e6]).
    pub remaining_ppm: u64,
    /// Total interactions observed when the detector fired.
    pub events: u64,
    /// Bad interactions observed when the detector fired.
    pub bad_events: u64,
    /// Caller-attached context (fault plan, architecture, scenario).
    pub context: BTreeMap<String, Json>,
    /// Flight-recorder metric windows, oldest first.
    windows: Vec<WindowStat>,
    /// Flight-recorder span ring at the firing instant, oldest first.
    recent_spans: Vec<SpanEvent>,
}

impl Incident {
    /// Renders the artifact as `sli-edge.incident/v1` JSON.
    pub fn to_json(&self) -> Json {
        let windows: Vec<Json> = self
            .windows
            .iter()
            .map(|w| {
                Json::obj(vec![
                    ("at_us", Json::from(w.at_us)),
                    ("completions", Json::from(w.completions)),
                    ("bad", Json::from(w.bad)),
                    ("max_latency_us", Json::from(w.max_latency_us)),
                    ("queue_depth", Json::from(w.queue_depth)),
                ])
            })
            .collect();
        let spans: Vec<Json> = self
            .recent_spans
            .iter()
            .map(|s| {
                Json::obj(vec![
                    ("op", Json::from(s.op)),
                    ("origin", Json::from(u64::from(s.origin))),
                    ("start_us", Json::from(s.start_us)),
                    ("end_us", Json::from(s.end_us)),
                    ("outcome", Json::from(s.outcome.label())),
                    ("trace_id", Json::from(s.trace_id)),
                    ("span_id", Json::from(s.span_id)),
                    ("parent_span_id", Json::from(s.parent_span_id)),
                ])
            })
            .collect();
        let hot: Vec<Json> = conflict_leaderboard(&self.recent_spans)
            .into_iter()
            .map(|e| {
                Json::obj(vec![
                    ("entity", Json::from(e.entity)),
                    ("conflicts", Json::from(e.conflicts)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("schema", Json::from(INCIDENT_SCHEMA)),
            ("label", Json::from(self.label.clone())),
            ("detector", Json::from(self.detector)),
            ("signal", Json::from(self.signal)),
            ("detected_at_us", Json::from(self.detected_at_us)),
            (
                "breach",
                Json::obj(vec![
                    ("observed", Json::from(self.observed)),
                    ("threshold", Json::from(self.threshold)),
                    ("baseline", Json::from(self.baseline)),
                    ("sigma", Json::from(self.sigma)),
                    ("window_us", Json::from(self.window_us)),
                ]),
            ),
            (
                "budget",
                Json::obj(vec![
                    ("objective_ppm", Json::from(self.objective_ppm)),
                    ("consumed_ppm", Json::from(self.consumed_ppm)),
                    ("remaining_ppm", Json::from(self.remaining_ppm)),
                    ("events", Json::from(self.events)),
                    ("bad_events", Json::from(self.bad_events)),
                ]),
            ),
            ("context", Json::Obj(self.context.clone())),
            ("windows", Json::Arr(windows)),
            ("recent_spans", Json::Arr(spans)),
            ("hot_entities", Json::Arr(hot)),
        ])
    }
}

/// The three detector names, in the order the `monitor` bin tabulates them.
pub const DETECTOR_NAMES: [&str; 3] = ["burn_rate", "latency_ewma", "queue_ewma"];

/// The streaming SLO monitor: three latched detectors plus the flight
/// recorder. Create one per run, feed it from the load engine's change
/// points, read incidents when the run ends.
#[derive(Debug)]
pub struct SloMonitor {
    metrics: MonitorMetrics,
    label: String,
    context: BTreeMap<String, Json>,
    /// Engine ready-queue depth gauge, sampled at evaluation points.
    queue_gauge: Option<Gauge>,
    /// Trailing (t, bad) interaction record for the burn windows, trimmed
    /// to the slow one.
    events: VecDeque<(u64, bool)>,
    total_events: u64,
    bad_events: u64,
    latency: EwmaChart,
    queue: EwmaChart,
    burn_fired: Option<Fired>,
    /// Flight recorder: bounded span ring.
    spans: VecDeque<SpanEvent>,
    /// Flight recorder: bounded per-window aggregates; back = open window.
    windows: VecDeque<WindowStat>,
    incidents: Vec<Incident>,
}

impl Default for SloMonitor {
    fn default() -> SloMonitor {
        SloMonitor::new()
    }
}

impl SloMonitor {
    /// Creates a monitor with its own (unregistered) metric handles.
    pub fn new() -> SloMonitor {
        SloMonitor {
            metrics: MonitorMetrics::new(),
            label: String::from("run"),
            context: BTreeMap::new(),
            queue_gauge: None,
            events: VecDeque::new(),
            total_events: 0,
            bad_events: 0,
            latency: EwmaChart::new(LATENCY_SIGMA_FLOOR_US),
            queue: EwmaChart::new(1.0),
            burn_fired: None,
            spans: VecDeque::new(),
            windows: VecDeque::new(),
            incidents: Vec::new(),
        }
    }

    /// Replaces the run label stamped into incidents.
    pub fn with_label(mut self, label: impl Into<String>) -> SloMonitor {
        self.label = label.into();
        self
    }

    /// Shares metric handles (the registry idiom: clone shares the cell),
    /// so `monitor.*` series in the timeline reflect this monitor.
    pub fn share_metrics(mut self, metrics: &MonitorMetrics) -> SloMonitor {
        self.metrics = metrics.clone();
        self
    }

    /// Attaches one context entry carried verbatim into every incident.
    pub fn set_context(&mut self, key: impl Into<String>, value: Json) {
        self.context.insert(key.into(), value);
    }

    /// Binds the ready-queue depth gauge the queue detectors sample.
    pub fn bind_queue_gauge(&mut self, gauge: Gauge) {
        self.queue_gauge = Some(gauge);
    }

    /// All frozen incidents, in firing order.
    pub fn incidents(&self) -> &[Incident] {
        &self.incidents
    }

    /// `(detector, fired_at_us)` for every detector that fired, in the
    /// fixed [`DETECTOR_NAMES`] order.
    pub fn detections(&self) -> Vec<(&'static str, u64)> {
        let mut out = Vec::new();
        if let Some(f) = self.burn_fired {
            out.push(("burn_rate", f.at_us));
        }
        if let Some(f) = self.latency.fired {
            out.push(("latency_ewma", f.at_us));
        }
        if let Some(f) = self.queue.fired {
            out.push(("queue_ewma", f.at_us));
        }
        out
    }

    /// Feeds recently committed span events into the flight recorder ring.
    pub fn observe_spans(&mut self, events: &[SpanEvent]) {
        for e in events {
            if self.spans.len() == SPAN_RING {
                self.spans.pop_front();
            }
            self.spans.push_back(e.clone());
        }
    }

    /// Rolls the flight-recorder aggregation window forward to `now_us`.
    fn roll_window(&mut self, now_us: u64) -> &mut WindowStat {
        let slot = now_us - now_us % RECORDER_WINDOW_US;
        let open = self.windows.back().map(|w| w.at_us);
        if open != Some(slot) {
            if self.windows.len() == WINDOW_RING {
                self.windows.pop_front();
            }
            self.windows.push_back(WindowStat {
                at_us: slot,
                ..WindowStat::default()
            });
        }
        self.windows.back_mut().expect("window ring is non-empty")
    }

    /// Records one completed interaction and runs the event-driven
    /// detectors (burn rate, latency drift). `ok` is the transport/HTTP
    /// verdict; the monitor additionally classifies any completion slower
    /// than the latency SLO as bad.
    pub fn observe_interaction(&mut self, now_us: u64, latency_us: u64, ok: bool) {
        let bad = !ok || latency_us > LATENCY_SLO_US;
        self.total_events += 1;
        self.bad_events += u64::from(bad);
        self.events.push_back((now_us, bad));
        while let Some(&(t, _)) = self.events.front() {
            if t + SLOW_WINDOW_US < now_us {
                self.events.pop_front();
            } else {
                break;
            }
        }

        let depth = self.queue_gauge.as_ref().map_or(0, Gauge::get);
        let w = self.roll_window(now_us);
        w.completions += 1;
        w.bad += u64::from(bad);
        w.max_latency_us = w.max_latency_us.max(latency_us);
        w.queue_depth = depth;

        self.update_budget_gauge();
        self.latency.push(now_us, latency_us as f64);
        self.check_burn(now_us);
        self.freeze_new_firings();
        self.metrics.evaluations.inc();
    }

    /// Samples the queue gauge and runs the queue drift detector. The
    /// engine calls this at admission and completion change points, so
    /// firing timestamps land exactly on state transitions.
    pub fn evaluate(&mut self, now_us: u64) {
        if let Some(gauge) = &self.queue_gauge {
            let depth = gauge.get();
            self.roll_window(now_us).queue_depth = depth;
            self.queue.push(now_us, depth as f64);
            self.freeze_new_firings();
        }
        self.metrics.evaluations.inc();
    }

    /// Bad-event fraction over the trailing `window_us`, with the event
    /// count, both ends inclusive.
    fn window_fraction(&self, now_us: u64, window_us: u64) -> (f64, u64) {
        let from = now_us.saturating_sub(window_us);
        let mut total = 0u64;
        let mut bad = 0u64;
        for &(t, b) in self.events.iter().rev() {
            if t < from {
                break;
            }
            total += 1;
            bad += u64::from(b);
        }
        let frac = if total == 0 {
            0.0
        } else {
            bad as f64 / total as f64
        };
        (frac, total)
    }

    fn check_burn(&mut self, now_us: u64) {
        if self.burn_fired.is_some() {
            return;
        }
        let objective = OBJECTIVE_PPM as f64 / PPM as f64;
        let (fast, fast_n) = self.window_fraction(now_us, FAST_WINDOW_US);
        let (slow, slow_n) = self.window_fraction(now_us, SLOW_WINDOW_US);
        let limit = BURN_THRESHOLD * objective;
        if fast_n >= MIN_EVENTS && slow_n >= MIN_EVENTS && fast >= limit && slow >= limit {
            self.burn_fired = Some(Fired {
                at_us: now_us,
                observed: fast / objective,
                threshold: BURN_THRESHOLD,
                baseline: objective,
                sigma: 0.0,
                window_us: FAST_WINDOW_US,
            });
        }
    }

    /// Budget consumed so far, ppm of the run's allowance (bad events over
    /// `objective × total`), and the clamped remainder.
    fn budget_ppm(&self) -> (u64, u64) {
        let allowance = OBJECTIVE_PPM as f64 / PPM as f64 * self.total_events as f64;
        if allowance <= 0.0 {
            return (0, PPM);
        }
        let consumed = (self.bad_events as f64 / allowance * PPM as f64).round() as u64;
        (consumed, PPM.saturating_sub(consumed))
    }

    fn update_budget_gauge(&self) {
        let (_, remaining) = self.budget_ppm();
        self.metrics.budget_remaining_ppm.set(remaining);
    }

    /// Freezes an incident for every detector that fired since the last
    /// check. Incidents capture the recorder state at the firing instant.
    fn freeze_new_firings(&mut self) {
        let frozen: Vec<&'static str> = self.incidents.iter().map(|i| i.detector).collect();
        let firings: Vec<(&'static str, &'static str, Fired)> = [
            ("burn_rate", "bad_fraction", self.burn_fired),
            ("latency_ewma", "latency_us", self.latency.fired),
            ("queue_ewma", "queue_depth", self.queue.fired),
        ]
        .into_iter()
        .filter_map(|(d, s, f)| f.map(|f| (d, s, f)))
        .filter(|(d, _, _)| !frozen.contains(d))
        .collect();
        for (detector, signal, fired) in firings {
            let (consumed, remaining) = self.budget_ppm();
            self.incidents.push(Incident {
                label: self.label.clone(),
                detector,
                signal,
                detected_at_us: fired.at_us,
                observed: fired.observed,
                threshold: fired.threshold,
                baseline: fired.baseline,
                sigma: fired.sigma,
                window_us: fired.window_us,
                objective_ppm: OBJECTIVE_PPM,
                consumed_ppm: consumed,
                remaining_ppm: remaining,
                events: self.total_events,
                bad_events: self.bad_events,
                context: self.context.clone(),
                windows: self.windows.iter().copied().collect(),
                recent_spans: self.spans.iter().cloned().collect(),
            });
            self.metrics.incidents.inc();
        }
    }
}

/// The [`INCIDENT_SCHEMA`] document [`Incident::to_json`] writes.
pub(crate) const SHAPE: Shape = Obj(&[
    ("schema", OneOf(&[INCIDENT_SCHEMA])),
    ("label", Str),
    ("detector", OneOf(&DETECTOR_NAMES)),
    ("signal", Str),
    ("detected_at_us", U64),
    ("breach", BREACH),
    ("budget", BUDGET),
    // Whatever the caller attached.
    ("context", Obj(&[])),
    ("windows", List(&WINDOW)),
    ("recent_spans", List(&SPAN)),
    (
        "hot_entities",
        List(&Obj(&[("entity", Str), ("conflicts", U64)])),
    ),
]);

const BREACH: Shape = Obj(&[
    ("observed", Num),
    ("threshold", Num),
    ("baseline", Num),
    ("sigma", Num),
    ("window_us", U64),
]);

const BUDGET: Shape = Obj(&[
    ("objective_ppm", U64),
    ("consumed_ppm", U64),
    ("remaining_ppm", U64),
    ("events", U64),
    ("bad_events", U64),
]);

/// One flight-recorder window.
const WINDOW: Shape = Obj(&[
    ("at_us", U64),
    ("completions", U64),
    ("bad", U64),
    ("max_latency_us", U64),
    ("queue_depth", U64),
]);

/// One recorded span.
const SPAN: Shape = Obj(&[
    ("op", Str),
    ("origin", U64),
    ("start_us", U64),
    ("end_us", U64),
    ("outcome", Str),
    ("trace_id", U64),
    ("span_id", U64),
    ("parent_span_id", U64),
]);

/// The incident's budget and interval geometry: at most the whole budget
/// remains, no more events are bad than were seen (overall and per
/// recorder window), and no recorded span ends before it starts.
pub(crate) fn law(doc: &Json) -> Result<(), String> {
    let budget = doc.get("budget").unwrap_or(&Json::Null);
    let remaining = uint(budget, "remaining_ppm");
    if remaining > PPM {
        return Err(format!("budget: remaining_ppm {remaining} exceeds {PPM}"));
    }
    let (bad, events) = (uint(budget, "bad_events"), uint(budget, "events"));
    if bad > events {
        return Err(format!("budget: bad_events {bad} exceeds events {events}"));
    }
    for (i, w) in items(doc, "windows").iter().enumerate() {
        if uint(w, "bad") > uint(w, "completions") {
            return Err(format!("windows[{i}]: bad exceeds completions"));
        }
    }
    for (i, s) in items(doc, "recent_spans").iter().enumerate() {
        if uint(s, "end_us") < uint(s, "start_us") {
            return Err(format!("recent_spans[{i}]: end_us precedes start_us"));
        }
    }
    Ok(())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::span::{SpanDetail, SpanOutcome};
    use crate::ConflictInfo;

    /// The tests' spacing of samples: a 4 s window holds 41 of them, the
    /// 16 s window 161.
    const GAP_US: u64 = 100_000;

    /// Feeds `n` clean completions at 10 ms latency, `GAP_US` apart;
    /// returns the last instant.
    fn calibrate(mon: &mut SloMonitor, n: u64) -> u64 {
        for i in 1..=n {
            mon.observe_interaction(GAP_US * i, 10_000, true);
        }
        GAP_US * n
    }

    /// Feeds samples `1..=n` at `t0 + GAP_US·i` through `feed` and returns
    /// the first after which `detector` has fired, checking that it fired
    /// at that sample's instant.
    fn firing_sample(
        mon: &mut SloMonitor,
        detector: &str,
        t0: u64,
        n: u64,
        mut feed: impl FnMut(&mut SloMonitor, u64, u64),
    ) -> Option<u64> {
        (1..=n).find_map(|i| {
            let now = t0 + GAP_US * i;
            feed(mon, now, i);
            let &(_, at) = mon.detections().iter().find(|(d, _)| *d == detector)?;
            assert_eq!(at, now, "{detector} fired before sample {i}");
            Some(i)
        })
    }

    #[test]
    fn clean_stationary_traffic_fires_nothing() {
        let mut mon = SloMonitor::new();
        let gauge = Gauge::new();
        mon.bind_queue_gauge(gauge.clone());
        for i in 1..=2_000u64 {
            // Latency cycles 20…100 ms and depth 0…4: stationary noise.
            gauge.set(i % 5);
            mon.observe_interaction(GAP_US * i, 20_000 * (1 + i % 5), true);
            mon.evaluate(GAP_US * i);
        }
        assert!(mon.detections().is_empty(), "{:?}", mon.detections());
        assert!(mon.incidents().is_empty());
        assert_eq!(mon.metrics.incidents.get(), 0);
    }

    #[test]
    fn ewma_detects_a_latency_step_within_a_pinned_window() {
        let mut mon = SloMonitor::new();
        let t0 = calibrate(&mut mon, CALIBRATION);
        // A 1 s time-out step on a 10 ms baseline. σ is floored at 60 ms,
        // so the limit is μ₀ + L·σ·√(λ/(2−λ)) = 10 + 12·60·√(1/7) ≈ 282.1
        // ms. The first post-step level, 0.25·1 000 + 0.75·10 = 257.5 ms,
        // stays under it; the second, 443.1 ms, clears it.
        let fired = firing_sample(&mut mon, "latency_ewma", t0, 10, |mon, now, _| {
            mon.observe_interaction(now, 1_000_000, true)
        });
        assert_eq!(fired, Some(2));
    }

    #[test]
    fn burn_rate_fires_exactly_at_budget_exhaustion_rate() {
        // The page line is 25 × the 0.1 % objective: one bad in 40. The
        // fast window holds 41 samples, the slow one 161. After 200 clean
        // completions, every `period`-th sample is bad.
        let burn = |period: u64| {
            let mut mon = SloMonitor::new();
            let t0 = calibrate(&mut mon, 200);
            firing_sample(&mut mon, "burn_rate", t0, 2_000, |mon, now, i| {
                mon.observe_interaction(now, 10_000, i % period != 0)
            })
        };
        // One in 41 stays under the line: 41 samples hold one bad (2.44 %).
        assert_eq!(burn(41), None);
        // One in 40: from the second bad sample on, the fast window holds
        // two (4.9 %), but the slow window first holds five (3.1 %; four
        // are 2.48 %) on the fifth, sample 200.
        assert_eq!(burn(40), Some(200));
    }

    #[test]
    fn queue_drift_detector_sees_depth_growth_via_the_bound_gauge() {
        let mut mon = SloMonitor::new();
        let gauge = Gauge::new();
        mon.bind_queue_gauge(gauge.clone());
        // Calibration on an idle-ish queue alternating 0/1: μ₀ = 0.5, and
        // the sample σ ≈ 0.50 is floored at 1.
        for i in 1..=CALIBRATION {
            gauge.set(i % 2);
            mon.evaluate(GAP_US * i);
        }
        // Ramp: depth 2, 4, 6, … — a saturating server. The EWMA limit is
        // 0.5 + 12·√(1/7) ≈ 5.04; the level runs 0.875, 1.66, 2.74, 4.06,
        // 5.54 and crosses on sample 5.
        let t0 = GAP_US * CALIBRATION;
        let fired = firing_sample(&mut mon, "queue_ewma", t0, 40, |mon, now, i| {
            gauge.set(2 * i);
            mon.evaluate(now)
        });
        assert_eq!(fired, Some(5));
    }

    /// A monitor that saw a conflict, calibrated, then a hard outage.
    fn outage() -> SloMonitor {
        let mut mon = SloMonitor::new().with_label("esrdb-cached/outage");
        mon.set_context(
            "fault_plan",
            Json::obj(vec![("unavailable_per_mille", Json::from(1_000u64))]),
        );
        let mut conflict = SpanEvent::flat(
            "commit.validate_apply",
            1,
            7,
            5_000,
            6_000,
            SpanOutcome::Conflict,
        );
        conflict.detail = Some(SpanDetail::Conflict(ConflictInfo {
            bean: "Quote".into(),
            key: "q-17".into(),
            field: Some("price".into()),
            expected_digest: 1,
            found_digest: Some(2),
        }));
        mon.observe_spans(&[
            SpanEvent::flat("http.request", 1, 0, 1_000, 2_000, SpanOutcome::Committed),
            conflict,
        ]);
        let t0 = calibrate(&mut mon, CALIBRATION);
        for i in 1..=50 {
            mon.observe_interaction(t0 + GAP_US * i, 10_000, false);
        }
        mon
    }

    /// A known-good incident (every list in it non-empty), for the schema
    /// tests.
    pub(crate) fn sample() -> Json {
        outage().incidents()[0].to_json()
    }

    #[test]
    fn incident_artifact_round_trips_through_bytes_and_validates() {
        let mon = outage();
        assert!(!mon.incidents().is_empty(), "outage must freeze incidents");
        assert_eq!(mon.metrics.incidents.get() as usize, mon.incidents().len());
        for incident in mon.incidents() {
            let rendered = incident.to_json().render();
            let parsed = Json::parse(&rendered).expect("incident must re-parse");
            assert_eq!(crate::validate(&parsed), Ok(crate::Schema::Incident));
            // Context and recorder payloads survive the round trip.
            assert!(rendered.contains("unavailable_per_mille"));
            assert!(rendered.contains("Quote[q-17]"));
        }
    }

    #[test]
    fn flight_recorder_rings_stay_bounded() {
        let mut mon = SloMonitor::new();
        let burst: Vec<SpanEvent> = (0..300)
            .map(|i| SpanEvent::flat("db.stmt", 1, 0, i, i + 1, SpanOutcome::Committed))
            .collect();
        mon.observe_spans(&burst);
        assert_eq!(mon.spans.len(), SPAN_RING);
        assert_eq!(mon.spans.front().map(|s| s.start_us), Some(44));
        for i in 0..1_000u64 {
            mon.observe_interaction(RECORDER_WINDOW_US * i, 1_000, true);
        }
        assert_eq!(mon.windows.len(), WINDOW_RING);
    }

    #[test]
    fn budget_gauge_tracks_remaining_allowance() {
        let metrics = MonitorMetrics::new();
        let mut mon = SloMonitor::new().share_metrics(&metrics);
        let t0 = calibrate(&mut mon, CALIBRATION);
        assert_eq!(metrics.budget_remaining_ppm.get(), PPM);
        // One bad in the next 1 900: the 0.1 % objective allows 2 bad in
        // 2 000 events, so 1 consumed is half the allowance.
        for i in 1..=1_900u64 {
            mon.observe_interaction(t0 + GAP_US * i, 10_000, i != 1);
        }
        assert_eq!(metrics.budget_remaining_ppm.get(), PPM / 2);
        assert_eq!(metrics.evaluations.get(), 2_000);
    }

    #[test]
    fn monitor_metrics_register_under_the_prefix() {
        let registry = Registry::new();
        let metrics = MonitorMetrics::new();
        metrics.register_with(&registry, "monitor");
        let names = registry.names();
        for name in [
            "monitor.incidents",
            "monitor.evaluations",
            "monitor.budget_remaining_ppm",
        ] {
            assert!(names.iter().any(|n| n == name), "missing {name}");
        }
        let timeline = crate::Timeline::new(1_000_000);
        timeline.track_registry(&registry);
        assert_eq!(timeline.series_count(), 3);
    }
}
