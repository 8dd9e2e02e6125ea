//! The application-server node: servlet dispatch, JSP rendering, HTTP
//! session management.
//!
//! "The client web-browser sends a trade action request to a servlet; the
//! servlet invokes the appropriate session bean method; the method, in
//! turn, drives methods on one or more entity beans. Finally, the result of
//! the trade action is constructed in a JSP and returned to the client
//! browser" (§4.2).

use std::collections::BTreeMap;

use parking_lot::Mutex;
use sli_simnet::hash::FxHashMap;
use sli_simnet::{Clock, HttpRequest, HttpResponse, SimDuration};
use sli_telemetry::{
    Counter, Gauge, Histogram, HistogramSnapshot, Registry, Resource, SpanOutcome, Tracer,
};
use sli_trade::{page, TradeAction, TradeEngine, TradeResult};
use std::sync::Arc;

/// CPU cost of the application-server machine (servlet container + JSP
/// engine): servlet dispatch and session-bean invocation per request, and
/// JSP rendering per KiB of HTML. They give the latency curves their
/// non-zero intercept, like the paper's Pentium III machines did.
const PER_REQUEST: SimDuration = SimDuration::from_micros(2_500);
const RENDER_PER_KIB: SimDuration = SimDuration::from_micros(400);

/// Transparent application-level retries on optimistic aborts.
const RETRIES: usize = 3;

/// The `servlet.{action}` span op for a parsed (or unparsable) request.
/// Span ops are `&'static str`, so the names are enumerated rather than
/// formatted.
fn servlet_op(action: Option<&TradeAction>) -> &'static str {
    match action.map(TradeAction::name) {
        Some("login") => "servlet.login",
        Some("logout") => "servlet.logout",
        Some("register") => "servlet.register",
        Some("home") => "servlet.home",
        Some("account") => "servlet.account",
        Some("update") => "servlet.update",
        Some("portfolio") => "servlet.portfolio",
        Some("quote") => "servlet.quote",
        Some("buy") => "servlet.buy",
        Some("sell") => "servlet.sell",
        _ => "servlet.invalid",
    }
}

/// Parses the servlet request parameters into a [`TradeAction`].
///
/// Returns `None` for unknown actions or missing parameters (the servlet
/// answers those with `404`).
pub fn parse_action(req: &HttpRequest<'_>) -> Option<TradeAction> {
    let action = req.param("action")?;
    let user = || req.param("uid").map(str::to_owned);
    Some(match action {
        "login" => TradeAction::Login { user: user()? },
        "logout" => TradeAction::Logout { user: user()? },
        "register" => TradeAction::Register { user: user()? },
        "home" => TradeAction::Home { user: user()? },
        "account" => TradeAction::Account { user: user()? },
        "update" => TradeAction::AccountUpdate {
            user: user()?,
            email: req.param("email")?.to_owned(),
        },
        "portfolio" => TradeAction::Portfolio { user: user()? },
        "quote" => TradeAction::Quote {
            symbol: req.param("symbol")?.to_owned(),
        },
        "buy" => TradeAction::Buy {
            user: user()?,
            symbol: req.param("symbol")?.to_owned(),
            quantity: req.param("quantity")?.parse().ok()?,
        },
        "sell" => TradeAction::Sell { user: user()? },
        _ => return None,
    })
}

/// HTTP status-code counters and per-action simulated-latency histograms
/// for one [`AppServer`] — the servlet tier's contribution to the run
/// report (request mix, error mix, response-time distribution).
#[derive(Debug, Clone)]
pub struct ServletMetrics {
    /// Every request handled, regardless of status — the servlet's
    /// throughput counter (timelines turn it into interactions/window).
    requests: Counter,
    /// Counters for the statuses the servlet can produce.
    statuses: Vec<(u16, Counter)>,
    /// Anything outside [`ServletMetrics::STATUSES`].
    other: Counter,
    /// End-to-end handling latency (µs of simulated time) per action.
    actions: Vec<(&'static str, Histogram)>,
    /// Live HTTP sessions (login raises, logout lowers) — the servlet
    /// tier's concurrency level. Flat at 0–1 under the paper's sequential
    /// client; open admission on the load engine is what makes it climb.
    sessions: Gauge,
}

impl Default for ServletMetrics {
    fn default() -> ServletMetrics {
        ServletMetrics::new()
    }
}

impl ServletMetrics {
    /// Status codes the servlet produces (anything else counts as `other`).
    const STATUSES: [u16; 5] = [200, 404, 409, 500, 503];

    /// Creates the full fixed metric set (all statuses, all actions).
    pub fn new() -> ServletMetrics {
        ServletMetrics {
            requests: Counter::new(),
            statuses: Self::STATUSES
                .iter()
                .map(|&code| (code, Counter::new()))
                .collect(),
            other: Counter::new(),
            actions: TradeAction::NAMES
                .iter()
                .map(|&name| (name, Histogram::new()))
                .collect(),
            sessions: Gauge::new(),
        }
    }

    fn record(&self, status: u16, action: Option<&str>, micros: u64) {
        self.requests.inc();
        match self.statuses.iter().find(|(code, _)| *code == status) {
            Some((_, counter)) => counter.inc(),
            None => self.other.inc(),
        }
        if let Some(name) = action {
            if let Some((_, hist)) = self.actions.iter().find(|(n, _)| *n == name) {
                hist.record(micros);
            }
        }
    }

    /// Requests answered with exactly `status` (0 for untracked codes).
    pub fn status(&self, status: u16) -> u64 {
        self.statuses
            .iter()
            .find(|(code, _)| *code == status)
            .map_or(0, |(_, counter)| counter.get())
    }

    /// Non-zero status counts keyed by decimal code (`"200"`, `"503"`, ...).
    pub fn status_counts(&self) -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        for (code, counter) in &self.statuses {
            let n = counter.get();
            if n > 0 {
                out.insert(code.to_string(), n);
            }
        }
        let n = self.other.get();
        if n > 0 {
            out.insert("other".to_owned(), n);
        }
        out
    }

    /// Latency distribution (simulated µs) for one action name.
    pub fn action_latency_us(&self, name: &str) -> Option<HistogramSnapshot> {
        self.actions
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, hist)| hist.snapshot())
    }

    /// Total requests handled (any status).
    pub fn requests(&self) -> u64 {
        self.requests.get()
    }

    /// Attaches every metric to `registry` as `{prefix}.requests`,
    /// `{prefix}.status.{code}` and `{prefix}.action.{name}_us`.
    pub fn register_with(&self, registry: &Registry, prefix: &str) {
        registry.attach_counter(format!("{prefix}.requests"), &self.requests);
        for (code, counter) in &self.statuses {
            registry.attach_counter(format!("{prefix}.status.{code}"), counter);
        }
        registry.attach_counter(format!("{prefix}.status.other"), &self.other);
        for (name, hist) in &self.actions {
            registry.attach_histogram(format!("{prefix}.action.{name}_us"), hist);
        }
        registry.attach_gauge(format!("{prefix}.sessions"), &self.sessions);
    }
}

/// One application-server machine: HTTP front end over a [`TradeEngine`].
pub struct AppServer {
    engine: Box<dyn TradeEngine>,
    clock: Arc<Clock>,
    /// HTTP sessions: cookie → user (created at login, destroyed at
    /// logout — Table 1's "HTTP Session" column).
    sessions: Mutex<FxHashMap<String, String>>,
    /// Status counters and per-action latency histograms.
    metrics: ServletMetrics,
    /// Optional causal tracer: each handled request gets a
    /// `servlet.{action}` span under the caller's current context.
    tracer: Option<Arc<Tracer>>,
}

impl std::fmt::Debug for AppServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AppServer")
            .field("engine", &self.engine.label())
            .finish_non_exhaustive()
    }
}

impl AppServer {
    /// Creates a server around `engine`, charging CPU costs to `clock`.
    pub fn new(engine: Box<dyn TradeEngine>, clock: Arc<Clock>) -> AppServer {
        AppServer {
            engine,
            clock,
            sessions: Mutex::new(FxHashMap::default()),
            metrics: ServletMetrics::new(),
            tracer: None,
        }
    }

    /// Enables causal tracing: every handled request records a
    /// `servlet.{action}` span whose children are the engine's downstream
    /// RPC, database and commit spans (shared `tracer` required).
    pub fn with_tracer(mut self, tracer: Arc<Tracer>) -> AppServer {
        self.tracer = Some(tracer);
        self
    }

    /// The server's HTTP metrics (status counts, per-action latency).
    pub fn metrics(&self) -> &ServletMetrics {
        &self.metrics
    }

    /// The engine's label ("JDBC" / "Vanilla EJB" / "Cached EJB").
    pub fn engine_label(&self) -> &'static str {
        self.engine.label()
    }

    /// Number of live HTTP sessions.
    pub fn session_count(&self) -> usize {
        self.sessions.lock().len()
    }

    fn perform_with_retry(&self, action: &TradeAction) -> sli_component::EjbResult<TradeResult> {
        let mut last_err = None;
        for _ in 0..RETRIES {
            match self.engine.perform(action) {
                Ok(r) => return Ok(r),
                Err(e) if e.is_retryable() => last_err = Some(e),
                Err(e) => return Err(e),
            }
        }
        Err(last_err.expect("loop ran at least once"))
    }

    /// Handles one HTTP request end to end: parse, session bean, JSP.
    ///
    /// The whole exchange — dispatch overhead, engine work (including any
    /// transparent retries) and JSP rendering — is timed on the simulated
    /// clock and recorded into [`ServletMetrics`] under the parsed action.
    pub fn handle(&self, req: &HttpRequest<'_>) -> HttpResponse<'static> {
        let start = self.clock.now();
        let action = parse_action(req);
        let span = self
            .tracer
            .as_ref()
            .map(|t| t.begin(servlet_op(action.as_ref())));
        let resp = self.respond(action.as_ref());
        let end_us = self.clock.now().as_micros();
        if let (Some(t), Some(span)) = (&self.tracer, span) {
            let outcome = match resp.status {
                200 => SpanOutcome::Committed,
                409 => SpanOutcome::Conflict,
                _ => SpanOutcome::Error,
            };
            t.finish(span, 0, 0, start.as_micros(), end_us, outcome);
        }
        let elapsed_us = end_us - start.as_micros();
        self.metrics.record(
            resp.status,
            action.as_ref().map(TradeAction::name),
            elapsed_us,
        );
        resp
    }

    fn respond(&self, action: Option<&TradeAction>) -> HttpResponse<'static> {
        self.clock.charge(Resource::EdgeCpu, PER_REQUEST);
        let Some(action) = action else {
            let body = page::render_error("Invalid Request", "unknown action or missing parameter");
            return self.finish(HttpResponse::error(404, body));
        };
        match self.perform_with_retry(action) {
            Ok(result) => {
                let body = page::render(&result);
                let mut resp = HttpResponse::ok(body);
                match action {
                    TradeAction::Login { user } => {
                        let cookie = format!("sess-{user}");
                        let mut sessions = self.sessions.lock();
                        sessions.insert(cookie.clone(), user.clone());
                        self.metrics.sessions.set(sessions.len() as u64);
                        resp = resp.with_cookie(cookie);
                    }
                    TradeAction::Logout { user } => {
                        let mut sessions = self.sessions.lock();
                        sessions.remove(&format!("sess-{user}"));
                        self.metrics.sessions.set(sessions.len() as u64);
                    }
                    _ => {}
                }
                self.finish(resp)
            }
            Err(e) => {
                // The transport already spent its retry budget on an
                // Unavailable error; re-driving the session bean would only
                // stack timeouts, so degrade to a clean aborted-transaction
                // page instead. Conflicts (409) remain worth a fresh attempt
                // by the client; anything else is a server fault (500).
                let (status, title) = match &e {
                    sli_component::EjbError::Db(sli_datastore::DbError::Unavailable(_)) => {
                        (503, "Service Temporarily Unavailable")
                    }
                    _ if e.is_retryable() => (409, "Transaction Conflict"),
                    _ => (500, "Trade Error"),
                };
                let body = page::render_error(title, &e.to_string());
                self.finish(HttpResponse::error(status, body))
            }
        }
    }

    fn finish(&self, resp: HttpResponse<'static>) -> HttpResponse<'static> {
        let kib = (resp.body.len() as u64).div_ceil(1024);
        let render = RENDER_PER_KIB.saturating_mul(kib);
        self.clock.charge(Resource::EdgeCpu, render);
        resp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sli_component::{share_connection, EjbResult};
    use sli_datastore::Database;
    use sli_trade::seed::{create_and_seed, Population};
    use sli_trade::JdbcTradeEngine;

    fn server() -> (Arc<Clock>, AppServer) {
        let db = Database::new();
        create_and_seed(&db, Population::default()).unwrap();
        let clock = Arc::new(Clock::new());
        let engine = JdbcTradeEngine::new(share_connection(db.connect()), 1_000_000);
        (Arc::clone(&clock), AppServer::new(Box::new(engine), clock))
    }

    fn get(params: &[(&str, &str)]) -> HttpRequest<'static> {
        HttpRequest::get("/trade/app", params.iter().copied())
    }

    #[test]
    fn parse_action_round_trips_query_params() {
        let actions = vec![
            TradeAction::Login {
                user: "uid:1".into(),
            },
            TradeAction::Quote {
                symbol: "s:2".into(),
            },
            TradeAction::Buy {
                user: "uid:1".into(),
                symbol: "s:3".into(),
                quantity: 100.0,
            },
            TradeAction::AccountUpdate {
                user: "uid:1".into(),
                email: "x@y.z".into(),
            },
            TradeAction::Sell {
                user: "uid:1".into(),
            },
        ];
        for a in actions {
            let req = HttpRequest::get("/trade/app", a.query_params());
            assert_eq!(parse_action(&req).unwrap(), a);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_action(&get(&[("action", "explode")])).is_none());
        assert!(parse_action(&get(&[("action", "buy"), ("uid", "u")])).is_none());
        assert!(parse_action(&get(&[])).is_none());
    }

    #[test]
    fn login_creates_session_logout_destroys_it() {
        let (_clock, server) = server();
        let resp = server.handle(&get(&[("action", "login"), ("uid", "uid:1")]));
        assert_eq!(resp.status, 200);
        assert_eq!(resp.set_cookie.as_deref(), Some("sess-uid:1"));
        assert_eq!(server.session_count(), 1);
        let resp = server.handle(&get(&[("action", "logout"), ("uid", "uid:1")]));
        assert_eq!(resp.status, 200);
        assert_eq!(server.session_count(), 0);
    }

    #[test]
    fn unknown_action_is_404() {
        let (_clock, server) = server();
        let resp = server.handle(&get(&[("action", "explode")]));
        assert_eq!(resp.status, 404);
    }

    #[test]
    fn business_error_is_500() {
        let (_clock, server) = server();
        let resp = server.handle(&get(&[("action", "home"), ("uid", "uid:9999")]));
        assert_eq!(resp.status, 500);
        assert!(resp.body.contains("no Account bean"));
    }

    #[test]
    fn handling_advances_the_clock() {
        let (clock, server) = server();
        let t0 = clock.now();
        server.handle(&get(&[("action", "quote"), ("symbol", "s:1")]));
        assert!((clock.now() - t0).as_micros() > 2_000);
    }

    #[test]
    fn edge_cost_scale_shrinks_servlet_charges() {
        // Same request on two servers; one with the edge CPU virtually 2×
        // faster. The difference must be exactly half the dispatch + render
        // charges (the engine's own costs are not edge CPU and stay put).
        let (nominal_clock, nominal) = server();
        let (scaled_clock, scaled) = server();
        scaled_clock.set_speedup(Resource::EdgeCpu, 2.0);
        let req = get(&[("action", "quote"), ("symbol", "s:1")]);
        nominal.handle(&req);
        scaled.handle(&req);
        let nominal_us = nominal_clock.now().as_micros();
        let scaled_us = scaled_clock.now().as_micros();
        assert!(scaled_us < nominal_us);
        // dispatch 2_500 halves to 1_250; render charge halves too.
        let saved = nominal_us - scaled_us;
        assert!(saved >= 1_250, "saved only {saved}µs");
    }

    /// An engine that conflicts twice before succeeding, to exercise the
    /// retry policy.
    struct Flaky {
        inner: std::sync::atomic::AtomicUsize,
    }

    impl TradeEngine for Flaky {
        fn perform(&self, _action: &TradeAction) -> EjbResult<TradeResult> {
            let n = self
                .inner
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            if n < 2 {
                Err(sli_component::EjbError::conflict("Account", "u"))
            } else {
                Ok(TradeResult::new("OK"))
            }
        }
        fn label(&self) -> &'static str {
            "flaky"
        }
    }

    #[test]
    fn optimistic_conflicts_are_retried_transparently() {
        let clock = Arc::new(Clock::new());
        let server = AppServer::new(
            Box::new(Flaky {
                inner: std::sync::atomic::AtomicUsize::new(0),
            }),
            clock,
        );
        let resp = server.handle(&get(&[("action", "home"), ("uid", "uid:1")]));
        assert_eq!(resp.status, 200);
    }

    #[test]
    fn exhausted_retries_surface_as_409() {
        let clock = Arc::new(Clock::new());
        let server = AppServer::new(
            Box::new(Flaky {
                inner: std::sync::atomic::AtomicUsize::new(usize::MIN),
            }),
            clock,
        );
        // Flaky succeeds within the 3 retries; force permanent failure
        // instead
        struct Always;
        impl TradeEngine for Always {
            fn perform(&self, _a: &TradeAction) -> EjbResult<TradeResult> {
                Err(sli_component::EjbError::conflict("Account", "u"))
            }
            fn label(&self) -> &'static str {
                "always-conflict"
            }
        }
        let server2 = AppServer::new(Box::new(Always), Arc::new(Clock::new()));
        let resp = server2.handle(&get(&[("action", "home"), ("uid", "uid:1")]));
        assert_eq!(resp.status, 409);
        drop(server);
    }

    #[test]
    fn metrics_count_statuses_and_time_actions() {
        let (_clock, server) = server();
        server.handle(&get(&[("action", "quote"), ("symbol", "s:1")]));
        server.handle(&get(&[("action", "quote"), ("symbol", "s:2")]));
        server.handle(&get(&[("action", "explode")]));
        server.handle(&get(&[("action", "home"), ("uid", "uid:9999")]));

        let m = server.metrics();
        assert_eq!(m.status(200), 2);
        assert_eq!(m.status(404), 1);
        assert_eq!(m.status(500), 1);
        assert_eq!(m.status(503), 0);
        let counts = m.status_counts();
        assert_eq!(counts.get("200"), Some(&2));
        assert_eq!(counts.get("404"), Some(&1));
        assert!(!counts.contains_key("503"));

        let quote = m.action_latency_us("quote").unwrap();
        assert_eq!(quote.count, 2);
        assert!(quote.p50 > 2_000, "dispatch cost alone is 2.5 ms");
        // The 404 carried no parsable action, so no histogram grew for it.
        let home = m.action_latency_us("home").unwrap();
        assert_eq!(home.count, 1);

        let registry = Registry::new();
        m.register_with(&registry, "servlet.edge-1");
        let snap = registry.snapshot();
        assert!(matches!(
            snap.get("servlet.edge-1.status.200"),
            Some(sli_telemetry::MetricValue::Counter(2))
        ));
        assert!(snap.contains_key("servlet.edge-1.action.quote_us"));

        registry.reset_all();
        assert_eq!(m.status(200), 0);
        assert_eq!(m.action_latency_us("quote").unwrap().count, 0);
    }

    #[test]
    fn transport_unavailability_degrades_to_503() {
        /// An engine whose backing tier is unreachable: the transport
        /// already retried, so the servlet must not drive it again.
        struct Unreachable {
            calls: std::sync::atomic::AtomicUsize,
        }
        impl TradeEngine for Unreachable {
            fn perform(&self, _a: &TradeAction) -> EjbResult<TradeResult> {
                self.calls
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                Err(sli_component::EjbError::Db(
                    sli_datastore::DbError::Unavailable(
                        "remote call timed out after 4 attempt(s)".into(),
                    ),
                ))
            }
            fn label(&self) -> &'static str {
                "unreachable"
            }
        }
        let engine = Box::new(Unreachable {
            calls: std::sync::atomic::AtomicUsize::new(0),
        });
        let server = AppServer::new(engine, Arc::new(Clock::new()));
        let resp = server.handle(&get(&[("action", "home"), ("uid", "uid:1")]));
        assert_eq!(resp.status, 503);
        assert!(resp.body.contains("Service Temporarily Unavailable"));
        // Not retried at the servlet level, and the server keeps serving.
        let resp = server.handle(&get(&[("action", "explode")]));
        assert_eq!(resp.status, 404);
    }
}
