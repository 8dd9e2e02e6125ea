//! The data tier of an [`Architecture`]: everything between an application
//! server's data access and the disk, wired once for any deployment.
//!
//! [`DataTier::build`] is the only place the three architectures are
//! assembled: the clock, the database with its WAL and server machine, the
//! ES/RBES back-end, and per edge the shared path with either nothing more
//! (JDBC and vanilla EJBs open their sessions with [`DataTier::connect`])
//! or the cache side — store, state source, committer, invalidation
//! channel. It knows no application: the entity metadata and the seed are
//! arguments. [`Testbed`](crate::Testbed) puts Trade's engines and servlets
//! on it, `slicheck` its bank clients, so what the checker checks is what
//! the figures measure.

use std::sync::Arc;

use sli_component::EjbResult;
use sli_core::{
    BackendServer, BackendSource, CombinedCommitter, CommitPoint, Committer, CommonStore,
    DeferredInvalidationSink, DirectSource, MetaRegistry, SplitCommitter, StateSource,
};
use sli_datastore::server::{DbCostModel, DbServer, RemoteConnection};
use sli_datastore::{Database, RecoveryReport, SqlConnection};
use sli_simnet::{Clock, CrashKind, FaultPlan, Path, PathSpec, Remote, SimDuration};
use sli_telemetry::{Registry, Timeline, TraceLog, Tracer};

use crate::topology::{Architecture, Flavor};

/// The cache side of a cache-enabled edge.
pub struct EdgeCache {
    /// The edge's common transient store.
    pub store: Arc<CommonStore>,
    /// Where a miss faults state in from: the database (combined servers)
    /// or the back-end (split servers), across the shared path.
    pub source: Arc<dyn StateSource>,
    /// Where a transaction commits: the in-edge commit point or the
    /// back-end's, across the shared path.
    pub committer: Arc<dyn Committer>,
    /// The in-edge commit point (combined servers only), kept so a restart
    /// can reseed its dedup table from the recovered WAL.
    pub combined: Option<Arc<CombinedCommitter>>,
    /// The peer-invalidation queue and the back-end → edge channel its
    /// messages cross (ES/RBES only).
    pub invalidations: Option<(Arc<DeferredInvalidationSink>, Arc<Path>)>,
}

/// One edge of the data tier: its two paths and, for the cached flavor,
/// its cache side.
pub struct TierEdge {
    /// Client ↔ server path (LAN for edge architectures, the delayed path
    /// for Clients/RAS).
    pub client_path: Arc<Path>,
    /// Server ↔ shared-site path (delayed for the edge architectures).
    pub shared_path: Arc<Path>,
    /// `Some` for the cached flavor; JDBC and vanilla EJBs instead open
    /// sessions on the shared path with [`DataTier::connect`].
    pub cache: Option<EdgeCache>,
}

/// The assembled data tier for one architecture (see the module docs).
pub struct DataTier {
    /// The simulation clock shared by every machine and path.
    pub clock: Arc<Clock>,
    /// The persistent store (the DB2 machine).
    pub db: Arc<Database>,
    /// One entry per edge/application server.
    pub edges: Vec<TierEdge>,
    arch: Architecture,
    wire_batching: bool,
    /// Every machine's metrics, attached under stable hierarchical names.
    telemetry: Arc<Registry>,
    /// Span log every machine records into (requests, RPCs, statements,
    /// commits), shared through [`DataTier::tracer`].
    commit_trace: Arc<TraceLog>,
    /// The causal tracer all machines share: one trace per client request,
    /// spans nested through RPC, database and commit layers.
    tracer: Arc<Tracer>,
    /// The shared back-end server (ES/RBES only).
    backend: Option<Arc<BackendServer>>,
    /// The database server machine (owner of the `db.stmt.*` metrics and
    /// the backend-db CPU cost knob).
    db_server: Arc<DbServer>,
    /// Every communication path (client, shared, invalidation,
    /// backend↔db) — the full set the wire what-if knob scales together.
    paths: Vec<Arc<Path>>,
}

/// Opens one database session across `path`. Each open is a charged round
/// trip and takes a session id, so the order of the calls is observable.
fn open_session(
    path: &Arc<Path>,
    db_server: &Arc<DbServer>,
    tracer: &Arc<Tracer>,
    wire_batching: bool,
) -> RemoteConnection {
    let mut conn = RemoteConnection::open(
        Remote::new(Arc::clone(path), Arc::clone(db_server)).with_tracer(Arc::clone(tracer)),
    )
    .expect("fresh db accepts connections");
    conn.set_batching(wire_batching);
    conn
}

impl DataTier {
    /// Builds the data tier of `arch` with `edges` edges for the entities
    /// in `registry`: creates their schema, lets `seed` populate it over a
    /// local DBA connection, and wires every machine and path.
    ///
    /// `cache_capacity` bounds each edge's common store (`None` = the
    /// paper's unbounded store); `wire_batching` is whether database
    /// sessions coalesce statement batches into one round trip.
    ///
    /// # Panics
    /// Panics if the schema or the seed fails (neither can on a fresh
    /// database, short of a bug in `seed`).
    pub fn build(
        arch: Architecture,
        edges: usize,
        cache_capacity: Option<usize>,
        wire_batching: bool,
        registry: MetaRegistry,
        seed: impl FnOnce(&mut dyn SqlConnection) -> EjbResult<()>,
    ) -> DataTier {
        let clock = Arc::new(Clock::new());
        let db = Database::new();
        registry
            .create_schema(&db)
            .and_then(|()| seed(&mut db.connect()))
            .expect("fresh database seeds cleanly");
        // Durability on by default: the seeded state becomes the WAL's base
        // checkpoint, and every writing transaction group-commits redo/undo
        // records from here on, so a scripted backend crash can be recovered
        // to a prefix-consistent state.
        db.attach_wal();
        let db_server = DbServer::new(Arc::clone(&db), Arc::clone(&clock), DbCostModel::default());
        let telemetry = Arc::new(Registry::new());
        // A measurement point at quick config already produces tens of
        // thousands of spans; size the log so nothing is evicted mid-run.
        let commit_trace = Arc::new(TraceLog::with_capacity(1 << 18));
        let tracer = Arc::new(Tracer::new(Arc::clone(&commit_trace)));
        db_server.metrics().register_with(&telemetry, "db.stmt");
        db.register_plan_metrics(&telemetry, "db.plan");
        db.register_wal_metrics(&telemetry, "db");
        db_server.set_tracer(Arc::clone(&tracer));

        let mut paths: Vec<Arc<Path>> = Vec::new();
        let mut lan = |name: String| {
            let path = Path::new(name, Arc::clone(&clock), PathSpec::lan());
            path.metrics()
                .register_with(&telemetry, &format!("simnet.path.{}", path.name()));
            paths.push(Arc::clone(&path));
            path
        };
        let connect = |path: &Arc<Path>| open_session(path, &db_server, &tracer, wire_batching);

        // The ES/RBES back-end is shared by all edges and clustered with
        // the database over a LAN path of its own.
        let backend = (arch == Architecture::EsRbes).then(|| {
            let conn = connect(&lan("backend-db".to_owned()));
            let backend = BackendServer::new(Box::new(conn), registry.clone(), Arc::clone(&clock));
            backend.set_tracer(Arc::clone(&tracer));
            backend
        });

        let shared_name = match arch {
            Architecture::ClientsRas(_) => "ras-db",
            Architecture::EsRdb(_) => "edge-db",
            Architecture::EsRbes => "edge-backend",
        };
        let edges = (1..=edges.max(1) as u32)
            .map(|id| {
                let client_path = lan(format!("client-{id}"));
                let shared_path = lan(format!("{shared_name}-{id}"));
                let cache = (arch.flavor() == Flavor::CachedEjb).then(|| {
                    let store =
                        cache_capacity.map_or_else(CommonStore::new, CommonStore::with_capacity);
                    store.register_with(&telemetry, &format!("store.edge-{id}"));
                    match &backend {
                        // Split-servers: fault and commit through the
                        // back-end across the shared path.
                        Some(backend) => {
                            let remote = Remote::new(Arc::clone(&shared_path), Arc::clone(backend))
                                .with_tracer(Arc::clone(&tracer));
                            // Invalidations flow over a dedicated channel so
                            // they never block the request path — but they
                            // still take one (possibly delayed) crossing to
                            // arrive, leaving a real staleness window.
                            let inv_path = lan(format!("backend-invalidate-{id}"));
                            let sink = DeferredInvalidationSink::over_path(
                                Arc::clone(&store),
                                Arc::clone(&inv_path),
                            );
                            backend.register_edge(
                                id,
                                Remote::new(Arc::clone(&inv_path), Arc::clone(&sink)),
                            );
                            sink.register_with(&telemetry, &format!("invalidations.edge-{id}"));
                            EdgeCache {
                                store,
                                source: Arc::new(
                                    BackendSource::new(remote.clone())
                                        .with_registry(registry.clone()),
                                ),
                                committer: Arc::new(SplitCommitter::new(remote)),
                                combined: None,
                                invalidations: Some((sink, inv_path)),
                            }
                        }
                        // Combined-servers: fault and commit straight
                        // against the (remote) database.
                        None => {
                            let fetch_conn = connect(&shared_path);
                            let commit_conn = connect(&shared_path);
                            let point = Arc::new(
                                CombinedCommitter::new(Box::new(commit_conn), registry.clone())
                                    .with_tracer(Arc::clone(&tracer), Arc::clone(&clock)),
                            );
                            EdgeCache {
                                store,
                                source: Arc::new(DirectSource::new(
                                    Box::new(fetch_conn),
                                    registry.clone(),
                                )),
                                committer: point.clone(),
                                combined: Some(point),
                                invalidations: None,
                            }
                        }
                    }
                });
                TierEdge {
                    client_path,
                    shared_path,
                    cache,
                }
            })
            .collect();

        let tier = DataTier {
            clock,
            db,
            edges,
            arch,
            wire_batching,
            telemetry,
            commit_trace,
            tracer,
            backend,
            db_server,
            paths,
        };
        for (prefix, point) in tier.commit_points() {
            point.register_with(&tier.telemetry, &prefix);
        }
        tier
    }

    /// Opens a further database session on edge `edge`'s shared path — how
    /// the JDBC and vanilla flavors reach the database. A charged round
    /// trip, like every session the tier opened itself.
    pub fn connect(&self, edge: usize) -> RemoteConnection {
        open_session(
            &self.edges[edge].shared_path,
            &self.db_server,
            &self.tracer,
            self.wire_batching,
        )
    }

    /// Every commit point of this tier under its metric prefix: the
    /// shared back-end's (`backend.commit`, ES/RBES) and each edge's
    /// combined committer (`committer.edge-{id}`, cached flavors without a
    /// back-end).
    pub fn commit_points(&self) -> Vec<(String, &CommitPoint)> {
        let backend = self
            .backend
            .iter()
            .map(|b| ("backend.commit".to_owned(), b.commit_point()));
        let edges = self.edges.iter().enumerate().filter_map(|(i, edge)| {
            let point = edge.cache.as_ref()?.combined.as_deref()?;
            Some((format!("committer.edge-{}", i + 1), point))
        });
        backend.chain(edges).collect()
    }

    /// The architecture this tier implements.
    pub fn architecture(&self) -> Architecture {
        self.arch
    }

    /// The metric registry every machine registered into at build time.
    ///
    /// Names are hierarchical and stable: `db.stmt.*`, `backend.commit.*`,
    /// `committer.edge-{id}.*`, `store.edge-{id}.*` and
    /// `simnet.path.{name}.*` from the tier; a [`Testbed`](crate::Testbed)
    /// adds `rm.edge-{id}.*`, `servlet.edge-{id}.*` and `monitor.*`.
    pub fn telemetry(&self) -> &Arc<Registry> {
        &self.telemetry
    }

    /// The shared span log: request roots, `servlet.*`, `rpc.*`/`net.*`,
    /// `db.*`, `commit.*` and `occ.conflict` events, all carrying trace /
    /// parent-span ids for tree reconstruction.
    pub fn commit_trace(&self) -> &Arc<TraceLog> {
        &self.commit_trace
    }

    /// The causal tracer every machine of this tier records through.
    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.tracer
    }

    /// The shared ES/RBES back-end server, if this architecture has one.
    pub fn backend(&self) -> Option<&Arc<BackendServer>> {
        self.backend.as_ref()
    }

    /// The database server machine.
    pub fn db_server(&self) -> &Arc<DbServer> {
        &self.db_server
    }

    /// Every communication path in the tier.
    pub fn paths(&self) -> &[Arc<Path>] {
        &self.paths
    }

    /// The virtual timestamp (µs) at which the first fault was actually
    /// injected on any path, if one was. This is the ground truth a
    /// time-to-detect measurement compares detection timestamps against:
    /// dialling a [`FaultPlan`](sli_simnet::FaultPlan) has no observable
    /// effect until the next delivery attempt draws a fault.
    pub fn fault_first_effect_us(&self) -> Option<u64> {
        self.paths
            .iter()
            .filter_map(|p| p.first_fault_at_us())
            .min()
    }

    /// Zeroes every registered counter and histogram and clears the commit
    /// span log (between warm-up and measurement). Gauges keep their level:
    /// cached images, HTTP sessions and in-flight invalidations all survive
    /// into the measured phase.
    pub fn reset_telemetry(&self) {
        self.telemetry.reset_all();
        self.commit_trace.clear();
    }

    /// Builds the standard observability timeline: a view of the
    /// [`DataTier::telemetry`] registry as it stands now, every counter a
    /// rate series and every gauge a level series under its registry name
    /// (see [`Timeline::track_registry`]), so per-window rate totals can be
    /// checked against run-end counter reads. Build the
    /// [`LoadEngine`](crate::LoadEngine) first to include its `engine.*`
    /// metrics.
    ///
    /// The caller drives it: [`Timeline::rebase`] at the warm-up/measure
    /// boundary (after [`DataTier::reset_telemetry`]), then
    /// [`Timeline::sample`] with `clock.now().as_micros()` after each
    /// interaction.
    pub fn standard_timeline(&self, window_us: u64) -> Timeline {
        let timeline = Timeline::new(window_us);
        timeline.track_registry(&self.telemetry);
        timeline
    }

    /// The path the delay proxy intercepts for this architecture (per
    /// edge): the client path for Clients/RAS, the shared path otherwise.
    pub fn delayed_path(&self, edge: usize) -> &Arc<Path> {
        match self.arch {
            Architecture::ClientsRas(_) => &self.edges[edge].client_path,
            _ => &self.edges[edge].shared_path,
        }
    }

    /// Sets the one-way delay injected by the proxy on every delayed path
    /// (including the back-end → edge invalidation channels, which cross
    /// the same wide-area link in ES/RBES).
    pub fn set_delay(&self, delay: SimDuration) {
        for (i, edge) in self.edges.iter().enumerate() {
            self.delayed_path(i).set_proxy_delay(delay);
            if let Some((_, inv)) = edge.cache.as_ref().and_then(|c| c.invalidations.as_ref()) {
                inv.set_proxy_delay(delay);
            }
        }
    }

    /// Enables deterministic per-message jitter on every delayed path —
    /// the paper's testbed noise (its fits report R² ≈ 0.99, not 1.0).
    /// Each edge's path gets a distinct derived seed.
    pub fn set_jitter(&self, max: SimDuration, seed: u64) {
        for i in 0..self.edges.len() {
            self.delayed_path(i)
                .set_jitter(max, seed.wrapping_add(i as u64));
        }
    }

    /// Dials a deterministic fault plan into every delayed path, turning
    /// the wide-area link lossy for resilience experiments. Each edge's
    /// path draws from a distinct derived seed (mirroring
    /// [`DataTier::set_jitter`]), so schedules differ across edges but
    /// replay identically run to run.
    pub fn set_faults(&self, plan: FaultPlan) {
        for i in 0..self.edges.len() {
            let derived = FaultPlan {
                seed: plan.seed.wrapping_add(i as u64),
                ..plan
            };
            self.delayed_path(i).set_fault_plan(derived);
        }
    }

    /// The paths that lead to the machine `kind` names: every in-flight or
    /// future RPC on them fails as an outage while that machine is down.
    fn paths_to(&self, kind: CrashKind) -> Vec<&Arc<Path>> {
        match kind {
            // The shared site (database machine, or the ES/RBES back-end
            // clustered with it) sits behind every edge's shared path; the
            // back-end ↔ database LAN and the invalidation channels
            // originate on the same machine.
            CrashKind::Backend => self
                .paths
                .iter()
                .filter(|p| !p.name().starts_with("client-"))
                .collect(),
            CrashKind::Edge => self.edges.iter().map(|e| &e.client_path).collect(),
        }
    }

    /// Kills the machine `kind` names at the current virtual time, exactly
    /// as a process death would: volatile state is gone and every RPC
    /// toward it fails as [`sli_simnet::Fault::Unavailable`] until
    /// [`DataTier::restart`].
    ///
    /// * `Backend` — the database machine (and, in ES/RBES, the back-end
    ///   server clustered with it) dies. The engine's tables, lock table
    ///   and unflushed WAL tail vanish; the back-end's `(origin, txn_id)`
    ///   dedup memory vanishes with it. Only the flushed WAL prefix
    ///   survives.
    /// * `Edge` — the edge tier dies: every edge's common store restarts
    ///   cold, so post-restart requests re-fault state from the shared
    ///   site instead of serving possibly-stale cached images.
    pub fn crash(&self, kind: CrashKind) {
        if kind == CrashKind::Backend {
            self.db.crash();
            if let Some(backend) = &self.backend {
                // The dedup table is volatile memory on the crashed
                // machine; recovery reseeds it from the WAL's committed
                // stamps.
                backend.commit_point().reseed_completed(&[]);
            }
        } else {
            for cache in self.edges.iter().filter_map(|e| e.cache.as_ref()) {
                cache.store.clear();
            }
        }
        for path in self.paths_to(kind) {
            path.set_down(true);
        }
    }

    /// Restarts the machine killed by [`DataTier::crash`]. A backend
    /// restart replays the WAL (analysis / redo / undo) and reseeds every
    /// commit-side dedup table from the recovered `(origin, txn_id)`
    /// stamps, returning the [`RecoveryReport`]; an edge restart simply
    /// comes back cold (`None`). Paths toward the machine come back up
    /// either way, so retrying sessions get through again.
    ///
    /// # Panics
    /// Panics if a backend recovery fails — the WAL is in-simulation
    /// durable storage, so a decode failure is a harness bug.
    pub fn restart(&self, kind: CrashKind) -> Option<RecoveryReport> {
        let report = if kind == CrashKind::Backend {
            let report = self.db.recover().expect("flushed WAL replays cleanly");
            for (_, point) in self.commit_points() {
                point.reseed_completed(&report.committed);
            }
            Some(report)
        } else {
            None
        };
        for path in self.paths_to(kind) {
            path.set_down(false);
        }
        report
    }

    /// Zeroes traffic counters on every path (between warm-up and
    /// measurement).
    pub fn reset_path_stats(&self) {
        for edge in &self.edges {
            edge.client_path.reset_stats();
            edge.shared_path.reset_stats();
        }
    }

    /// Bytes transmitted to the shared site (back-end server or database —
    /// or the remote application server for Clients/RAS), summed over both
    /// directions. This is the Figure 8 metric.
    pub fn shared_site_bytes(&self) -> u64 {
        (0..self.edges.len())
            .map(|i| self.delayed_path(i).stats().total_bytes())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sli_component::EntityMeta;
    use sli_core::{CommitEntry, CommitOutcome, CommitRequest, EntryKind};
    use sli_datastore::{ColumnType, Value};

    /// A deployment that is not Trade's: one `Part` entity, two rows.
    fn parts_tier(arch: Architecture) -> DataTier {
        let parts = MetaRegistry::new().with(
            EntityMeta::new("Part", "part", "sku", ColumnType::Varchar)
                .field("stock", ColumnType::Int),
        );
        DataTier::build(arch, 2, None, true, parts, |dba| {
            for sku in ["bolt", "nut"] {
                dba.execute(
                    "INSERT INTO part (sku, stock) VALUES (?, 10)",
                    &[Value::from(sku)],
                )?;
            }
            Ok(())
        })
    }

    #[test]
    fn every_architecture_serves_a_fetch_and_a_commit_for_any_registry() {
        for (arch, key) in Architecture::ALL {
            let tier = parts_tier(arch);
            assert_eq!(tier.edges.len(), 2, "{key}");
            // Edge 2 reads and writes; the write must reach the database
            // machine and cross the edge's shared path.
            let edge = &tier.edges[1];
            let bolt = Value::from("bolt");
            match &edge.cache {
                Some(cache) => {
                    let before = cache.source.fetch("Part", &bolt).unwrap().expect(key);
                    assert_eq!(before.get("stock"), Some(&Value::from(10i64)), "{key}");
                    let request = CommitRequest {
                        origin: 2,
                        txn_id: 1,
                        entries: vec![CommitEntry {
                            bean: "Part".into(),
                            key: bolt.clone(),
                            kind: EntryKind::Update {
                                after: before.clone().with_field("stock", 9i64),
                                before,
                            },
                        }],
                    };
                    let outcome = cache.committer.commit(&request).unwrap();
                    assert_eq!(outcome, CommitOutcome::Committed, "{key}");
                }
                None => {
                    let mut conn = tier.connect(1);
                    let rows = conn
                        .execute(
                            "SELECT stock FROM part WHERE sku = ?",
                            std::slice::from_ref(&bolt),
                        )
                        .unwrap();
                    assert_eq!(rows.rows()[0][0], Value::from(10i64), "{key}");
                    conn.begin().unwrap();
                    conn.execute(
                        "UPDATE part SET stock = 9 WHERE sku = ?",
                        std::slice::from_ref(&bolt),
                    )
                    .unwrap();
                    conn.commit().unwrap();
                }
            }
            let bolt_row = vec![bolt, Value::from(9i64)];
            assert!(tier.db.dump_rows("part").contains(&bolt_row), "{key}");
            assert!(edge.shared_path.stats().total_bytes() > 0, "{key}");
            assert!(
                tier.db.wal_stats().flushed_bytes > 0,
                "{key}: commit is logged"
            );
            let points = tier.commit_points().len();
            let expected = match arch {
                Architecture::EsRbes => 1,
                _ if arch.flavor() == Flavor::CachedEjb => 2,
                _ => 0,
            };
            assert_eq!(points, expected, "{key}");
        }
    }
}
