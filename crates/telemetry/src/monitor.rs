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
//! The [`SloMonitor`] evaluates six latched detectors over the same shared
//! [`Counter`]/[`Gauge`] handles the [`Timeline`](crate::Timeline) samples:
//!
//! * `burn_rate` — multi-window error-budget burn. An interaction is *bad*
//!   when it fails outright or exceeds the latency SLO; the detector fires
//!   when the bad-event fraction over both a fast and a slow window exceeds
//!   `burn_threshold` times the objective (the classic two-window page rule:
//!   the fast window gives speed, the slow window gives evidence).
//! * `latency_ewma` / `latency_cusum` — drift detectors on per-interaction
//!   latency. Both calibrate a baseline mean/σ from the first
//!   `calibration` completions (Welford), then watch for upward drift: the
//!   EWMA control chart fires when the smoothed level leaves
//!   `μ₀ + L·σ·√(λ/(2−λ))`, CUSUM accumulates `max(0, S + x − μ₀ − kσ)`
//!   and fires at `S > hσ` — EWMA reacts to sustained small shifts, CUSUM
//!   to accumulated evidence of a step change.
//! * `queue_ewma` / `queue_cusum` — the same two charts on the engine's
//!   ready-queue depth gauge, sampled at every evaluation point. Queue
//!   growth is the leading indicator: it moves before latency percentiles
//!   do, because depth rises the moment service slows while latency is only
//!   observed at completion.
//! * `availability` — windowed good-fraction floor: fires when fewer than
//!   `avail_floor` of the interactions in the trailing window were good.
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

/// Tuning for the six detectors and the flight recorder rings.
///
/// Defaults are calibrated against the loaded points the bench layer runs:
/// clean runs at moderate utilisation must stay silent (the `monitor` bin's
/// false-positive gate sweeps all seven architecture combos), while any of
/// the scripted fault classes — backend outage, loss burst, flash crowd —
/// must trip every detector. The scale separation that makes both possible
/// is the retry policy: a clean interaction costs tens of milliseconds of
/// virtual time, a faulted one costs at least one 1 s timeout or a growing
/// backoff chain, so a 500 ms latency SLO splits them cleanly.
#[derive(Debug, Clone, Copy)]
pub struct SloConfig {
    /// Latency objective in µs: an interaction slower than this is *bad*
    /// even if it succeeded.
    pub latency_slo_us: u64,
    /// Error-budget objective as a bad-event fraction in parts-per-million
    /// (1_000 = 0.1% of interactions may be bad).
    pub objective_ppm: u64,
    /// Fast burn window (µs of virtual time).
    pub fast_window_us: u64,
    /// Slow burn window (µs of virtual time).
    pub slow_window_us: u64,
    /// Burn-rate multiple of the objective at which both windows must
    /// burn for the detector to fire.
    pub burn_threshold: f64,
    /// Minimum events in a window before its fraction is trusted.
    pub min_events: u64,
    /// EWMA smoothing factor λ ∈ (0, 1].
    pub ewma_lambda: f64,
    /// EWMA control limit in σ-of-the-statistic units (L).
    pub ewma_limit: f64,
    /// CUSUM slack per sample, in baseline-σ units (k).
    pub cusum_slack: f64,
    /// CUSUM decision threshold, in baseline-σ units (h).
    pub cusum_threshold: f64,
    /// Samples used to establish each drift baseline before arming.
    pub calibration: u64,
    /// Absolute floor for the calibrated latency σ (µs). This sets the
    /// smallest latency shift the drift charts can page on: an SLO monitor
    /// should ignore drift that is negligible *at the objective's scale*,
    /// however tight the calibration happened to be — a 5 ms shift in a
    /// 7 ms baseline is statistically real and operationally irrelevant
    /// against a 500 ms SLO. Defaults to 5% of the default SLO.
    pub latency_sigma_floor_us: f64,
    /// Availability window (µs of virtual time).
    pub avail_window_us: u64,
    /// Availability floor: fire when good/total in the window drops below
    /// this fraction.
    pub avail_floor: f64,
    /// Flight-recorder span ring capacity.
    pub span_ring: usize,
    /// Flight-recorder metric-window ring capacity.
    pub window_ring: usize,
    /// Flight-recorder aggregation window (µs of virtual time).
    pub recorder_window_us: u64,
}

impl SloConfig {
    /// [`SloConfig::default`], for building a configuration in a `const`.
    pub const DEFAULT: SloConfig = SloConfig {
        latency_slo_us: 500_000,
        objective_ppm: 1_000,
        fast_window_us: 2_000_000,
        slow_window_us: 12_000_000,
        burn_threshold: 25.0,
        min_events: 12,
        ewma_lambda: 0.25,
        ewma_limit: 12.0,
        cusum_slack: 4.0,
        cusum_threshold: 80.0,
        calibration: 100,
        latency_sigma_floor_us: 25_000.0,
        avail_window_us: 4_000_000,
        avail_floor: 0.80,
        span_ring: 256,
        window_ring: 96,
        recorder_window_us: 500_000,
    };
}

impl Default for SloConfig {
    fn default() -> SloConfig {
        SloConfig::DEFAULT
    }
}

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

/// One EWMA + CUSUM drift-detector pair over a scalar signal, with a shared
/// calibrated baseline.
#[derive(Debug, Clone)]
struct DriftPair {
    cal: Welford,
    /// Baseline (μ₀, σ) once armed.
    baseline: Option<(f64, f64)>,
    /// Absolute σ floor: keeps the charts sane when calibration happened to
    /// see a near-constant signal (an idle queue is *exactly* constant).
    sigma_floor: f64,
    ewma: f64,
    cusum: f64,
    ewma_fired: Option<Fired>,
    cusum_fired: Option<Fired>,
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

impl DriftPair {
    fn new(sigma_floor: f64) -> DriftPair {
        DriftPair {
            cal: Welford::default(),
            baseline: None,
            sigma_floor,
            ewma: 0.0,
            cusum: 0.0,
            ewma_fired: None,
            cusum_fired: None,
        }
    }

    /// Feeds one sample; arms the charts once calibration completes.
    fn push(&mut self, cfg: &SloConfig, now_us: u64, x: f64) {
        let Some((mu, sigma)) = self.baseline else {
            self.cal.push(x);
            if self.cal.n >= cfg.calibration {
                let mu = self.cal.mean;
                let sigma = self.cal.sigma().max(self.sigma_floor).max(mu.abs() * 0.05);
                self.baseline = Some((mu, sigma));
                self.ewma = mu;
                self.cusum = 0.0;
            }
            return;
        };
        let lambda = cfg.ewma_lambda;
        self.ewma = lambda * x + (1.0 - lambda) * self.ewma;
        let ewma_sigma = sigma * (lambda / (2.0 - lambda)).sqrt();
        let ewma_limit = mu + cfg.ewma_limit * ewma_sigma;
        if self.ewma_fired.is_none() && self.ewma > ewma_limit {
            self.ewma_fired = Some(Fired {
                at_us: now_us,
                observed: self.ewma,
                threshold: ewma_limit,
                baseline: mu,
                sigma,
                window_us: 0,
            });
        }
        self.cusum = (self.cusum + x - mu - cfg.cusum_slack * sigma).max(0.0);
        let cusum_limit = cfg.cusum_threshold * sigma;
        if self.cusum_fired.is_none() && self.cusum > cusum_limit {
            self.cusum_fired = Some(Fired {
                at_us: now_us,
                observed: self.cusum,
                threshold: cusum_limit,
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
    /// Baseline σ (0 for window detectors, which are not σ-scaled).
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

/// The six detector names, in the order the `monitor` bin tabulates them.
pub const DETECTOR_NAMES: [&str; 6] = [
    "burn_rate",
    "latency_ewma",
    "latency_cusum",
    "queue_ewma",
    "queue_cusum",
    "availability",
];

/// The streaming SLO monitor: six latched detectors plus the flight
/// recorder. Create one per run, feed it from the load engine's change
/// points, read incidents when the run ends.
#[derive(Debug)]
pub struct SloMonitor {
    cfg: SloConfig,
    metrics: MonitorMetrics,
    label: String,
    context: BTreeMap<String, Json>,
    /// Engine ready-queue depth gauge, sampled at evaluation points.
    queue_gauge: Option<Gauge>,
    /// Trailing (t, bad) interaction record for the window detectors,
    /// trimmed to the longest window.
    events: VecDeque<(u64, bool)>,
    total_events: u64,
    bad_events: u64,
    latency: DriftPair,
    queue: DriftPair,
    burn_fired: Option<Fired>,
    avail_fired: Option<Fired>,
    /// Flight recorder: bounded span ring.
    spans: VecDeque<SpanEvent>,
    /// Flight recorder: bounded per-window aggregates; back = open window.
    windows: VecDeque<WindowStat>,
    incidents: Vec<Incident>,
}

impl SloMonitor {
    /// Creates a monitor with its own (unregistered) metric handles.
    pub fn new(cfg: SloConfig) -> SloMonitor {
        SloMonitor {
            cfg,
            metrics: MonitorMetrics::new(),
            label: String::from("run"),
            context: BTreeMap::new(),
            queue_gauge: None,
            events: VecDeque::new(),
            total_events: 0,
            bad_events: 0,
            latency: DriftPair::new(cfg.latency_sigma_floor_us),
            queue: DriftPair::new(1.0),
            burn_fired: None,
            avail_fired: None,
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

    /// Active configuration.
    pub fn config(&self) -> &SloConfig {
        &self.cfg
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
        if let Some(f) = self.latency.ewma_fired {
            out.push(("latency_ewma", f.at_us));
        }
        if let Some(f) = self.latency.cusum_fired {
            out.push(("latency_cusum", f.at_us));
        }
        if let Some(f) = self.queue.ewma_fired {
            out.push(("queue_ewma", f.at_us));
        }
        if let Some(f) = self.queue.cusum_fired {
            out.push(("queue_cusum", f.at_us));
        }
        if let Some(f) = self.avail_fired {
            out.push(("availability", f.at_us));
        }
        out
    }

    /// Feeds recently committed span events into the flight recorder ring.
    pub fn observe_spans(&mut self, events: &[SpanEvent]) {
        for e in events {
            if self.spans.len() == self.cfg.span_ring {
                self.spans.pop_front();
            }
            self.spans.push_back(e.clone());
        }
    }

    /// Rolls the flight-recorder aggregation window forward to `now_us`.
    fn roll_window(&mut self, now_us: u64) -> &mut WindowStat {
        let slot = now_us - now_us % self.cfg.recorder_window_us;
        let open = self.windows.back().map(|w| w.at_us);
        if open != Some(slot) {
            if self.windows.len() == self.cfg.window_ring {
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
    /// detectors (burn rate, availability, latency drift). `ok` is the
    /// transport/HTTP verdict; the monitor additionally classifies any
    /// completion slower than the latency SLO as bad.
    pub fn observe_interaction(&mut self, now_us: u64, latency_us: u64, ok: bool) {
        let bad = !ok || latency_us > self.cfg.latency_slo_us;
        self.total_events += 1;
        self.bad_events += u64::from(bad);
        self.events.push_back((now_us, bad));
        let horizon = self.cfg.slow_window_us.max(self.cfg.avail_window_us);
        while let Some(&(t, _)) = self.events.front() {
            if t + horizon < now_us {
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
        let cfg = self.cfg;
        self.latency.push(&cfg, now_us, latency_us as f64);
        self.check_burn(now_us);
        self.check_availability(now_us);
        self.freeze_new_firings(now_us);
        self.metrics.evaluations.inc();
    }

    /// Samples the queue gauge and runs the queue drift detectors. The
    /// engine calls this at admission and completion change points, so
    /// firing timestamps land exactly on state transitions.
    pub fn evaluate(&mut self, now_us: u64) {
        if let Some(gauge) = &self.queue_gauge {
            let depth = gauge.get();
            let cfg = self.cfg;
            self.roll_window(now_us).queue_depth = depth;
            self.queue.push(&cfg, now_us, depth as f64);
            self.freeze_new_firings(now_us);
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
        let objective = self.cfg.objective_ppm as f64 / PPM as f64;
        let (fast, fast_n) = self.window_fraction(now_us, self.cfg.fast_window_us);
        let (slow, slow_n) = self.window_fraction(now_us, self.cfg.slow_window_us);
        let limit = self.cfg.burn_threshold * objective;
        if fast_n >= self.cfg.min_events
            && slow_n >= self.cfg.min_events
            && fast >= limit
            && slow >= limit
        {
            self.burn_fired = Some(Fired {
                at_us: now_us,
                observed: fast / objective,
                threshold: self.cfg.burn_threshold,
                baseline: objective,
                sigma: 0.0,
                window_us: self.cfg.fast_window_us,
            });
        }
    }

    fn check_availability(&mut self, now_us: u64) {
        if self.avail_fired.is_some() {
            return;
        }
        let (bad_frac, n) = self.window_fraction(now_us, self.cfg.avail_window_us);
        let avail = 1.0 - bad_frac;
        if n >= self.cfg.min_events && avail < self.cfg.avail_floor {
            self.avail_fired = Some(Fired {
                at_us: now_us,
                observed: avail,
                threshold: self.cfg.avail_floor,
                baseline: 1.0,
                sigma: 0.0,
                window_us: self.cfg.avail_window_us,
            });
        }
    }

    /// Budget consumed so far, ppm of the run's allowance (bad events over
    /// `objective × total`), and the clamped remainder.
    fn budget_ppm(&self) -> (u64, u64) {
        let allowance = self.cfg.objective_ppm as f64 / PPM as f64 * self.total_events as f64;
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
    fn freeze_new_firings(&mut self, _now_us: u64) {
        let frozen: Vec<&'static str> = self.incidents.iter().map(|i| i.detector).collect();
        let firings: Vec<(&'static str, &'static str, Fired)> = [
            ("burn_rate", "bad_fraction", self.burn_fired),
            ("latency_ewma", "latency_us", self.latency.ewma_fired),
            ("latency_cusum", "latency_us", self.latency.cusum_fired),
            ("queue_ewma", "queue_depth", self.queue.ewma_fired),
            ("queue_cusum", "queue_depth", self.queue.cusum_fired),
            ("availability", "availability", self.avail_fired),
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
                objective_ppm: self.cfg.objective_ppm,
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

    /// A config with short windows and fast calibration so unit tests can
    /// exercise the detectors with a handful of synthetic samples.
    fn quick_cfg() -> SloConfig {
        SloConfig {
            latency_slo_us: 100_000,
            objective_ppm: 10_000,
            fast_window_us: 1_000_000,
            slow_window_us: 3_000_000,
            burn_threshold: 10.0,
            min_events: 5,
            ewma_lambda: 0.25,
            ewma_limit: 6.0,
            cusum_slack: 1.0,
            cusum_threshold: 10.0,
            calibration: 20,
            // Unit tests pin the detector math at µs scale; keep the
            // operational floor out of their way.
            latency_sigma_floor_us: 500.0,
            avail_window_us: 1_000_000,
            avail_floor: 0.80,
            span_ring: 8,
            window_ring: 4,
            recorder_window_us: 250_000,
        }
    }

    /// Feeds `n` clean completions at 10 ms latency, 1 ms apart.
    fn calibrate(mon: &mut SloMonitor, n: u64) -> u64 {
        for i in 0..n {
            mon.observe_interaction(1_000 * (i + 1), 10_000, true);
        }
        1_000 * n
    }

    #[test]
    fn clean_stationary_traffic_fires_nothing() {
        let mut mon = SloMonitor::new(quick_cfg());
        for i in 0..2_000u64 {
            // Latency wobbles ±2 ms around 10 ms — stationary noise.
            let jitter = (i % 5) * 1_000;
            mon.observe_interaction(1_000 * (i + 1), 8_000 + jitter, true);
            mon.evaluate(1_000 * (i + 1));
        }
        assert!(mon.detections().is_empty(), "{:?}", mon.detections());
        assert!(mon.incidents().is_empty());
        assert_eq!(mon.metrics.incidents.get(), 0);
    }

    #[test]
    fn ewma_detects_a_latency_step_within_a_pinned_window() {
        let mut mon = SloMonitor::new(quick_cfg());
        let t0 = calibrate(&mut mon, 40);
        // Step change: latency jumps 10 ms → 80 ms at t0. With λ = 0.25
        // the EWMA needs ⌈log(1 − needed/step)/log(1 − λ)⌉ samples to
        // cross the limit; pin the observed detection sample index.
        let mut detected_at = None;
        for i in 0..20u64 {
            let now = t0 + 1_000 * (i + 1);
            mon.observe_interaction(now, 80_000, true);
            if detected_at.is_none() {
                if let Some(&(_, at)) = mon.detections().iter().find(|(d, _)| *d == "latency_ewma")
                {
                    detected_at = Some((i + 1, at));
                }
            }
        }
        let (samples, at) = detected_at.expect("EWMA must detect a 7x step");
        // Calibration σ is floored at 5% of μ₀ (= 500 µs here), so the
        // limit sits at μ₀ + 6·500·√(λ/(2−λ)) ≈ 11.1 ms — the first
        // post-step EWMA value 0.25·80 + 0.75·10 = 27.5 ms clears it.
        assert_eq!(samples, 1, "detected after {samples} samples");
        assert_eq!(at, t0 + 1_000);
    }

    #[test]
    fn cusum_accumulates_evidence_for_a_small_step() {
        let mut mon = SloMonitor::new(quick_cfg());
        let t0 = calibrate(&mut mon, 40);
        // A small step (10 ms → 11 ms = 2σ, σ floored at 5% of μ₀) that
        // the EWMA chart tolerates forever — its smoothed level converges
        // to 11 ms, below the μ₀ + 6σ·√(λ/(2−λ)) ≈ 11.13 ms limit — but
        // CUSUM accumulates: each sample adds x − μ₀ − kσ = 500 µs, so
        // the hσ = 5 000 µs threshold is strictly exceeded on sample 11.
        let mut detected = None;
        for i in 0..40u64 {
            let now = t0 + 1_000 * (i + 1);
            mon.observe_interaction(now, 11_000, true);
            if detected.is_none() {
                if let Some(&(_, at)) = mon.detections().iter().find(|(d, _)| *d == "latency_cusum")
                {
                    detected = Some((i + 1, at));
                }
            }
        }
        let (samples, at) = detected.expect("CUSUM must detect a sustained small step");
        assert_eq!(samples, 11);
        assert_eq!(at, t0 + 11_000);
        // The division of labour between the charts: EWMA never pages on
        // a shift this small, CUSUM does.
        assert!(
            !mon.detections().iter().any(|(d, _)| *d == "latency_ewma"),
            "EWMA must tolerate a 2σ shift"
        );
    }

    #[test]
    fn burn_rate_fires_exactly_at_budget_exhaustion_rate() {
        // objective 1% (10_000 ppm), threshold 10× → the page line is a
        // 10% bad fraction in both windows. Feed interactions whose bad
        // fraction ramps: below the line nothing fires, at the line the
        // detector fires on the very interaction that tips both windows.
        let cfg = quick_cfg();
        let mut mon = SloMonitor::new(cfg);
        // 9% bad for 200 interactions (1 bad in every 11.11… ≈ every 12th):
        // stays silent.
        for i in 0..200u64 {
            let bad = i % 12 == 0 && i > 0;
            mon.observe_interaction(1_000 * (i + 1), 10_000, !bad);
        }
        assert!(
            mon.detections().is_empty(),
            "sub-threshold burn must not page: {:?}",
            mon.detections()
        );
        // Now every 10th interaction is bad → exactly 10% in the trailing
        // windows once the 8% prefix ages out of the 3 s slow window
        // (~3000 events at this spacing); the detector fires.
        let mut fired = None;
        for i in 200..6_000u64 {
            let bad = i % 10 == 0;
            mon.observe_interaction(1_000 * (i + 1), 10_000, !bad);
            if let Some(&(_, at)) = mon.detections().iter().find(|(d, _)| *d == "burn_rate") {
                fired = Some((i, at));
                break;
            }
        }
        let (i, at) = fired.expect("burn rate must fire at the exhaustion rate");
        assert_eq!(at, 1_000 * (i + 1), "fires at an interaction instant");
        // It fired once the slow window (3 s = 3000 events here) filled
        // with the 10% mixture — not instantly, not never.
        assert!(i >= 210, "needs evidence in both windows (fired at {i})");
    }

    #[test]
    fn availability_floor_detects_an_outage_window() {
        let cfg = quick_cfg();
        let mut mon = SloMonitor::new(cfg);
        calibrate(&mut mon, 100);
        // Total outage: every interaction fails.
        let mut fired = None;
        for i in 0..50u64 {
            let now = 100_000 + 1_000 * (i + 1);
            mon.observe_interaction(now, 10_000, false);
            if let Some(&(_, at)) = mon.detections().iter().find(|(d, _)| *d == "availability") {
                fired = Some((i + 1, at));
                break;
            }
        }
        let (failures, _) = fired.expect("availability must detect a hard outage");
        // The 1 s window still holds the 100 clean calibration events, so
        // good/total = 100/(100 + f) drops below the 0.80 floor at the
        // 26th failure — quick, bounded, and strictly after the outage.
        assert!(failures <= 30, "took {failures} failures");
        assert_eq!(mon.metrics.incidents.get() as usize, mon.incidents().len());
    }

    #[test]
    fn queue_drift_detectors_see_depth_growth_via_the_bound_gauge() {
        let mut mon = SloMonitor::new(quick_cfg());
        let gauge = Gauge::new();
        mon.bind_queue_gauge(gauge.clone());
        // Calibration: idle-ish queue depth alternating 0/1.
        for i in 0..40u64 {
            gauge.set(i % 2);
            mon.evaluate(1_000 * (i + 1));
        }
        // Ramp: depth climbs 2, 4, 6, … — a saturating server.
        let mut fired = Vec::new();
        for i in 0..60u64 {
            gauge.set(2 * (i + 1));
            mon.evaluate(40_000 + 1_000 * (i + 1));
            for (d, at) in mon.detections() {
                if !fired.iter().any(|(fd, _)| *fd == d) {
                    fired.push((d, at));
                }
            }
        }
        assert!(
            fired.iter().any(|(d, _)| *d == "queue_ewma"),
            "EWMA must catch the ramp: {fired:?}"
        );
        assert!(
            fired.iter().any(|(d, _)| *d == "queue_cusum"),
            "CUSUM must catch the ramp: {fired:?}"
        );
    }

    /// A monitor that saw a conflict, calibrated, then a hard outage.
    fn outage() -> SloMonitor {
        let mut mon = SloMonitor::new(quick_cfg()).with_label("esrdb-cached/outage");
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
        calibrate(&mut mon, 100);
        for i in 0..400u64 {
            mon.observe_interaction(100_000 + 1_000 * (i + 1), 10_000, false);
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
        let cfg = quick_cfg();
        let mut mon = SloMonitor::new(cfg);
        let burst: Vec<SpanEvent> = (0..100)
            .map(|i| SpanEvent::flat("db.stmt", 1, 0, i, i + 1, SpanOutcome::Committed))
            .collect();
        mon.observe_spans(&burst);
        assert_eq!(mon.spans.len(), cfg.span_ring);
        assert_eq!(mon.spans.front().map(|s| s.start_us), Some(92));
        for i in 0..1_000u64 {
            mon.observe_interaction(cfg.recorder_window_us * i, 1_000, true);
        }
        assert_eq!(mon.windows.len(), cfg.window_ring);
    }

    #[test]
    fn budget_gauge_tracks_remaining_allowance() {
        let metrics = MonitorMetrics::new();
        let mut mon = SloMonitor::new(quick_cfg()).share_metrics(&metrics);
        // 100 clean interactions: full budget.
        calibrate(&mut mon, 100);
        assert_eq!(metrics.budget_remaining_ppm.get(), PPM);
        // One bad in the next 100: 1% objective × 200 events allows 2 bad;
        // 1 consumed = 50% of allowance.
        for i in 0..100u64 {
            mon.observe_interaction(100_000 + 1_000 * (i + 1), 10_000, i != 0);
        }
        assert_eq!(metrics.budget_remaining_ppm.get(), PPM / 2);
        assert_eq!(metrics.evaluations.get(), 200);
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
