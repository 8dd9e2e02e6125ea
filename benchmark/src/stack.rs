//! The traced stack: the wiring of `Testbed::build` repeated with a timing
//! decorator at every `dyn` seam, and a client that drives it with the same
//! HTTP bytes and path crossings as `VirtualClient`.
//!
//! Three stacks exist, one per data-access wiring the workloads use: JDBC,
//! cached-combined (`EsRdb(CachedEjb)`) and RBES-split (`EsRbes`). The
//! traced run proves the copy is the same system: for one seed its virtual
//! latencies, statuses, round trips and bytes equal the real testbed's.

use std::sync::Arc;

use sli_arch::{AppServer, Architecture, Flavor, Interaction};
use sli_component::{share_connection, Container};
use sli_core::{
    BackendServer, BackendSource, CombinedCommitter, Committer, CommonStore,
    DeferredInvalidationSink, DirectSource, SliHome, SliResourceManager, SplitCommitter,
    StateSource,
};
use sli_datastore::server::{DbCostModel, DbServer, RemoteConnection};
use sli_datastore::Database;
use sli_simnet::{Clock, HttpRequest, HttpResponse, Path, PathSpec, Remote, SimDuration};
use sli_telemetry::{SpanOutcome, TraceLog, Tracer};
use sli_trade::model::trade_registry;
use sli_trade::seed::create_and_seed;
use sli_trade::{EjbTradeEngine, JdbcTradeEngine, TradeAction, TradeEngine};

use crate::run::Client;
use crate::spans::{
    enter, Layer, TimedCommitter, TimedConn, TimedEngine, TimedHome, TimedRm, TimedSource,
};
use crate::spec::Workload;

/// One application server of the traced stack and its paths.
pub struct TracedEdge {
    pub server: AppServer,
    pub client_path: Arc<Path>,
    /// The delayed path: edge ↔ database, or edge ↔ back-end.
    pub shared_path: Arc<Path>,
    pub invalidations: Option<Arc<DeferredInvalidationSink>>,
}

pub struct TracedStack {
    pub clock: Arc<Clock>,
    pub edges: Vec<TracedEdge>,
    tracer: Arc<Tracer>,
    trace_log: Arc<TraceLog>,
}

fn open(path: &Arc<Path>, db_server: &Arc<DbServer>, tracer: &Arc<Tracer>) -> RemoteConnection {
    let mut conn = RemoteConnection::open(
        Remote::new(Arc::clone(path), Arc::clone(db_server)).with_tracer(Arc::clone(tracer)),
    )
    .expect("a fresh database accepts connections");
    conn.set_batching(true);
    conn
}

impl TracedStack {
    /// Builds and seeds the stack for `w`, statement for statement as
    /// `Testbed::build` does (connections open in the same order, so the
    /// database sees the same sessions), and sets the workload's delay.
    ///
    /// # Panics
    /// For the wirings no workload uses (vanilla EJBs, Clients/RAS).
    pub fn build(w: &Workload) -> TracedStack {
        let clock = Arc::new(Clock::new());
        let db = Database::new();
        create_and_seed(&db, w.population).expect("a fresh database seeds cleanly");
        db.attach_wal();
        let db_server = DbServer::new(Arc::clone(&db), Arc::clone(&clock), DbCostModel::default());
        let trace_log = Arc::new(TraceLog::with_capacity(1 << 18));
        let tracer = Arc::new(Tracer::new(Arc::clone(&trace_log)));
        db_server.set_tracer(Arc::clone(&tracer));
        let lan = |name: String| Path::new(name, Arc::clone(&clock), PathSpec::lan());
        let delay = SimDuration::from_millis(w.delay_ms);
        let mut conn_id = 0u8;
        let mut timed = |conn: RemoteConnection| {
            conn_id += 1;
            TimedConn {
                inner: conn,
                id: conn_id,
            }
        };

        let backend = (w.arch == Architecture::EsRbes).then(|| {
            let conn = timed(open(&lan("backend-db".to_owned()), &db_server, &tracer));
            let backend = BackendServer::new(Box::new(conn), trade_registry(), Arc::clone(&clock));
            backend.set_tracer(Arc::clone(&tracer));
            backend
        });

        let edge_count = w.loaded.map_or(1, |l| l.edges);
        let mut edges = Vec::with_capacity(edge_count);
        for id in 1..=edge_count as u32 {
            let holding_base = 1_000_000 * i64::from(id);
            let client_path = lan(format!("client-{id}"));
            let shared_path = lan(format!("shared-{id}"));
            let mut invalidations = None;
            let engine: Box<dyn TradeEngine> = match (w.arch, &backend) {
                (Architecture::EsRdb(Flavor::Jdbc), _) => {
                    let conn = timed(open(&shared_path, &db_server, &tracer));
                    Box::new(JdbcTradeEngine::new(share_connection(conn), holding_base))
                }
                (Architecture::EsRdb(Flavor::CachedEjb), _) | (Architecture::EsRbes, Some(_)) => {
                    let store = match w.cache_capacity {
                        Some(capacity) => CommonStore::with_capacity(capacity),
                        None => CommonStore::new(),
                    };
                    let (source, committer): (Arc<dyn StateSource>, Arc<dyn Committer>) =
                        match &backend {
                            Some(backend) => {
                                let remote =
                                    Remote::new(Arc::clone(&shared_path), Arc::clone(backend))
                                        .with_tracer(Arc::clone(&tracer));
                                let inv_path = lan(format!("backend-invalidate-{id}"));
                                inv_path.set_proxy_delay(delay);
                                let sink = DeferredInvalidationSink::over_path(
                                    Arc::clone(&store),
                                    Arc::clone(&inv_path),
                                );
                                backend.register_edge(id, Remote::new(inv_path, Arc::clone(&sink)));
                                invalidations = Some(sink);
                                (
                                    Arc::new(BackendSource::new(remote.clone())),
                                    Arc::new(SplitCommitter::new(remote)),
                                )
                            }
                            None => {
                                let fetch = timed(open(&shared_path, &db_server, &tracer));
                                let commit = timed(open(&shared_path, &db_server, &tracer));
                                (
                                    Arc::new(DirectSource::new(Box::new(fetch), trade_registry())),
                                    Arc::new(
                                        CombinedCommitter::new(Box::new(commit), trade_registry())
                                            .with_tracer(Arc::clone(&tracer), Arc::clone(&clock)),
                                    ),
                                )
                            }
                        };
                    // `deploy::cached_container_with_rm`, decorated.
                    let source: Arc<dyn StateSource> = Arc::new(TimedSource(source));
                    let rm = SliResourceManager::new(
                        id,
                        Arc::new(TimedCommitter(committer)),
                        Arc::clone(&store),
                    );
                    let mut container = Container::new(Arc::new(TimedRm(Arc::new(rm))));
                    for meta in trade_registry().iter() {
                        container.register(Arc::new(TimedHome(Arc::new(SliHome::new(
                            meta.clone(),
                            Arc::clone(&store),
                            Arc::clone(&source),
                        )))));
                    }
                    Box::new(EjbTradeEngine::new(container, "Cached EJBs", holding_base))
                }
                (arch, _) => panic!("no traced stack for {arch:?}"),
            };
            let server = AppServer::new(Box::new(TimedEngine(engine)), Arc::clone(&clock))
                .with_tracer(Arc::clone(&tracer));
            shared_path.set_proxy_delay(delay);
            edges.push(TracedEdge {
                server,
                client_path,
                shared_path,
                invalidations,
            });
        }
        TracedStack {
            clock,
            edges,
            tracer,
            trace_log,
        }
    }

    /// `n` clients, alternating edges.
    pub fn clients(&self, n: usize) -> Vec<TracedClient<'_>> {
        (0..n)
            .map(|i| TracedClient {
                stack: self,
                edge: i % self.edges.len(),
                cookie: None,
            })
            .collect()
    }

    /// Drops the virtual-time spans collected so far (the tracer stays on,
    /// as in the real testbed; the log only must not fill up).
    pub fn clear_trace(&self) {
        self.trace_log.clear();
    }

    pub fn reset_path_stats(&self) {
        for edge in &self.edges {
            edge.client_path.reset_stats();
            edge.shared_path.reset_stats();
        }
    }

    /// Round trips and bytes on the delayed paths since the last reset.
    pub fn shared_traffic(&self) -> (u64, u64) {
        self.edges.iter().fold((0, 0), |(trips, bytes), e| {
            let stats = e.shared_path.stats();
            (trips + stats.round_trips(), bytes + stats.total_bytes())
        })
    }
}

/// `VirtualClient` for the traced stack: the same bytes, crossings and
/// virtual-time spans, plus the two outermost wall-clock spans. Only the
/// clean path exists — the benchmark injects no faults.
pub struct TracedClient<'s> {
    stack: &'s TracedStack,
    edge: usize,
    cookie: Option<String>,
}

impl Client for TracedClient<'_> {
    fn perform(&mut self, action: &TradeAction) -> Interaction {
        let _span = enter(Layer::Client);
        let node = &self.stack.edges[self.edge];
        let clock = &self.stack.clock;
        let tracer = &self.stack.tracer;
        let origin = self.edge as u32 + 1;

        let mut req = HttpRequest::get("/trade/app", action.query_params());
        if let Some(cookie) = &self.cookie {
            req = req.with_cookie(cookie.clone());
        }
        let raw_request = req.encode();
        let request_bytes = raw_request.len();
        let start = clock.now();
        let root = tracer.begin("request");
        let fault = node.client_path.next_fault();
        assert!(fault.is_none(), "the benchmark's paths are clean");

        let crossing = tracer.begin("net.client.request");
        let crossing_start = clock.now().as_micros();
        node.client_path.request(request_bytes);
        tracer.finish(
            crossing,
            origin,
            0,
            crossing_start,
            clock.now().as_micros(),
            SpanOutcome::Committed,
        );
        if let Some(sink) = &node.invalidations {
            sink.deliver_due();
        }
        let parsed = HttpRequest::parse(&raw_request).expect("client emits well-formed HTTP");
        let resp = {
            let _span = enter(Layer::Servlet);
            node.server.handle(&parsed)
        };
        let raw_response = resp.encode();
        let response_bytes = raw_response.len();
        let crossing = tracer.begin("net.client.respond");
        let crossing_start = clock.now().as_micros();
        node.client_path.respond(response_bytes);
        tracer.finish(
            crossing,
            origin,
            0,
            crossing_start,
            clock.now().as_micros(),
            SpanOutcome::Committed,
        );
        let resp = HttpResponse::parse(&raw_response).expect("server emits well-formed HTTP");
        let latency = clock
            .now()
            .checked_since(start)
            .expect("virtual time is monotone across a round trip");
        let outcome = match resp.status {
            200 => SpanOutcome::Committed,
            409 => SpanOutcome::Conflict,
            _ => SpanOutcome::Error,
        };
        tracer.finish(
            root,
            origin,
            0,
            start.as_micros(),
            clock.now().as_micros(),
            outcome,
        );
        if let Some(cookie) = &resp.set_cookie {
            self.cookie = Some(cookie.clone());
        }
        if matches!(action, TradeAction::Logout { .. }) {
            self.cookie = None;
        }
        Interaction {
            latency,
            status: resp.status,
            request_bytes,
            response_bytes,
        }
    }
}
