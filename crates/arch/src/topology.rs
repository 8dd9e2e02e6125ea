//! Testbed assembly: the four simulated machines of §4.1 — Trade's engines
//! and servlet containers deployed on the [`DataTier`] of any of the three
//! architectures.

use std::sync::Arc;

use sli_component::share_connection;
use sli_core::{CommonStore, DeferredInvalidationSink, SliResourceManager};
use sli_simnet::Path;
use sli_telemetry::MonitorMetrics;
use sli_trade::deploy;
use sli_trade::model::trade_registry;
use sli_trade::seed::{seed, Population};
use sli_trade::{EjbTradeEngine, JdbcTradeEngine, TradeEngine};

use crate::servlet::AppServer;
use crate::tier::DataTier;

/// Data-access flavor running on the application server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Flavor {
    /// Hand-optimized SQL (Trade2's pure-JDBC mode).
    Jdbc,
    /// Non-cached BMP entity beans (Trade2's EJB-ALT mode).
    VanillaEjb,
    /// Cache-enabled SLI entity beans.
    CachedEjb,
}

impl Flavor {
    /// Report label matching the paper's terminology.
    pub fn label(self) -> &'static str {
        match self {
            Flavor::Jdbc => "JDBC",
            Flavor::VanillaEjb => "Vanilla EJBs",
            Flavor::CachedEjb => "Cached EJBs",
        }
    }
}

/// One of the paper's three high-latency architectures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Architecture {
    /// Edge servers sharing a remote database (delay: edge ↔ database).
    EsRdb(Flavor),
    /// Cache-enhanced edge servers sharing a remote back-end server
    /// clustered with the database (delay: edge ↔ back-end). Implies
    /// [`Flavor::CachedEjb`].
    EsRbes,
    /// Clients reaching a remote application server directly (delay:
    /// client ↔ application server).
    ClientsRas(Flavor),
}

impl Architecture {
    /// The seven architecture × flavor combinations the paper evaluates,
    /// each with the stable key used in CLI flags, artifact names and CSV
    /// rows.
    pub const ALL: [(Architecture, &'static str); 7] = [
        (Architecture::EsRdb(Flavor::Jdbc), "es-rdb-jdbc"),
        (Architecture::EsRdb(Flavor::VanillaEjb), "es-rdb-vanilla"),
        (Architecture::EsRdb(Flavor::CachedEjb), "es-rdb-cached"),
        (Architecture::EsRbes, "es-rbes"),
        (Architecture::ClientsRas(Flavor::Jdbc), "clients-ras-jdbc"),
        (
            Architecture::ClientsRas(Flavor::VanillaEjb),
            "clients-ras-vanilla",
        ),
        (
            Architecture::ClientsRas(Flavor::CachedEjb),
            "clients-ras-cached",
        ),
    ];

    /// Report label matching the paper.
    pub fn label(self) -> &'static str {
        match self {
            Architecture::EsRdb(_) => "ES/RDB",
            Architecture::EsRbes => "ES/RBES",
            Architecture::ClientsRas(_) => "Clients/RAS",
        }
    }

    /// The data-access flavor deployed on the application server.
    pub fn flavor(self) -> Flavor {
        match self {
            Architecture::EsRdb(f) | Architecture::ClientsRas(f) => f,
            Architecture::EsRbes => Flavor::CachedEjb,
        }
    }
}

/// Testbed sizing and seeding options.
#[derive(Debug, Clone, Copy)]
pub struct TestbedConfig {
    /// Database population.
    pub population: Population,
    /// Number of edge/application servers (each gets its own client).
    pub edges: usize,
    /// Optional bound on each edge's common transient store (LRU eviction).
    /// `None` reproduces the paper's unbounded store.
    pub cache_capacity: Option<usize>,
    /// Whether remote database connections coalesce statement batches into
    /// one wire round trip (`OP_EXEC_BATCH`, the paper's §4.4 conjecture).
    /// `false` is the paper's wire, one round trip per statement, which
    /// every published `sli_bench` run sets; the default `true` serves the
    /// batching ablation, slicheck and the wall-clock benchmark.
    pub wire_batching: bool,
}

impl Default for TestbedConfig {
    fn default() -> TestbedConfig {
        TestbedConfig {
            population: Population::default(),
            edges: 1,
            cache_capacity: None,
            wire_batching: true,
        }
    }
}

/// One application-server node: the Trade servlet container on one
/// [`TierEdge`](crate::TierEdge), with that edge's handles alongside.
pub struct EdgeNode {
    /// The HTTP application server the client talks to.
    pub server: Arc<AppServer>,
    /// Client ↔ server path (LAN for edge architectures, the delayed path
    /// for Clients/RAS).
    pub client_path: Arc<Path>,
    /// Server ↔ shared-site path (delayed for the edge architectures).
    pub shared_path: Arc<Path>,
    /// The cache-enabled node's common store (None for JDBC / vanilla).
    pub store: Option<Arc<CommonStore>>,
    /// The optimistic resource manager (None for JDBC / vanilla).
    pub rm: Option<Arc<SliResourceManager>>,
    /// In-flight peer-invalidation queue (ES/RBES only): messages crossing
    /// the back-end → edge channel that have not arrived yet.
    pub invalidations: Option<Arc<DeferredInvalidationSink>>,
}

impl EdgeNode {
    /// Delivers every invalidation whose network crossing has completed.
    /// Called when a request reaches this server, i.e. whenever the edge
    /// would next touch its cache.
    pub fn deliver_due_invalidations(&self) {
        if let Some(sink) = &self.invalidations {
            sink.deliver_due();
        }
    }
}

impl std::fmt::Debug for EdgeNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EdgeNode")
            .field("engine", &self.server.engine_label())
            .finish_non_exhaustive()
    }
}

/// The assembled four-machine testbed for one architecture: the
/// [`DataTier`] (which it derefs to — clock, database, paths, delay, fault
/// and crash controls, telemetry) with Trade deployed on every edge.
pub struct Testbed {
    tier: DataTier,
    /// Application-server nodes (one per edge; exactly one for
    /// Clients/RAS), parallel to the tier's own `edges`.
    pub edges: Vec<EdgeNode>,
    /// Shared handles for the online SLO monitor, registered under
    /// `monitor.*` so incidents/evaluations/budget land in the same
    /// registry and timeline as every machine metric.
    monitor: MonitorMetrics,
}

impl std::ops::Deref for Testbed {
    type Target = DataTier;

    fn deref(&self) -> &DataTier {
        &self.tier
    }
}

impl std::fmt::Debug for Testbed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let arch = self.architecture();
        f.debug_struct("Testbed")
            .field("arch", &arch.label())
            .field("flavor", &arch.flavor().label())
            .field("edges", &self.edges.len())
            .finish_non_exhaustive()
    }
}

impl Testbed {
    /// Builds and seeds the testbed for `arch`.
    ///
    /// ```
    /// use sli_arch::{Architecture, Testbed, TestbedConfig, VirtualClient};
    /// use sli_simnet::SimDuration;
    /// use sli_trade::TradeAction;
    ///
    /// let testbed = Testbed::build(Architecture::EsRbes, TestbedConfig::default());
    /// testbed.set_delay(SimDuration::from_millis(40));
    /// let mut client = VirtualClient::new(&testbed, 0);
    /// let outcome = client.perform(&TradeAction::Quote { symbol: "s:1".into() });
    /// assert_eq!(outcome.status, 200);
    /// ```
    ///
    /// # Panics
    /// Panics if seeding fails (schema conflicts cannot happen on a fresh
    /// database).
    pub fn build(arch: Architecture, config: TestbedConfig) -> Testbed {
        let tier = DataTier::build(
            arch,
            config.edges,
            config.cache_capacity,
            config.wire_batching,
            trade_registry(),
            |dba| seed(dba, config.population),
        );
        let telemetry = tier.telemetry();
        let edges = tier
            .edges
            .iter()
            .enumerate()
            .map(|(i, edge)| {
                let id = i as u32 + 1;
                let holding_base = 1_000_000 * id as i64;
                let mut rm = None;
                let engine: Box<dyn TradeEngine> = match (&edge.cache, arch.flavor()) {
                    (Some(cache), _) => {
                        let (container, cached_rm) = deploy::cached_container_with_rm(
                            id,
                            Arc::clone(&cache.store),
                            Arc::clone(&cache.source),
                            Arc::clone(&cache.committer),
                        );
                        cached_rm.register_with(telemetry, &format!("rm.edge-{id}"));
                        rm = Some(cached_rm);
                        Box::new(EjbTradeEngine::new(container, "Cached EJBs", holding_base))
                    }
                    (None, Flavor::VanillaEjb) => {
                        let container =
                            deploy::vanilla_container(share_connection(tier.connect(i)));
                        Box::new(EjbTradeEngine::new(container, "Vanilla EJBs", holding_base))
                    }
                    (None, _) => Box::new(JdbcTradeEngine::new(
                        share_connection(tier.connect(i)),
                        holding_base,
                    )),
                };
                let server = Arc::new(
                    AppServer::new(engine, Arc::clone(&tier.clock))
                        .with_tracer(Arc::clone(tier.tracer())),
                );
                server
                    .metrics()
                    .register_with(telemetry, &format!("servlet.edge-{id}"));
                let cache = edge.cache.as_ref();
                EdgeNode {
                    server,
                    client_path: Arc::clone(&edge.client_path),
                    shared_path: Arc::clone(&edge.shared_path),
                    store: cache.map(|c| Arc::clone(&c.store)),
                    rm,
                    invalidations: cache
                        .and_then(|c| c.invalidations.as_ref())
                        .map(|(sink, _)| Arc::clone(sink)),
                }
            })
            .collect();

        let monitor = MonitorMetrics::new();
        monitor.register_with(telemetry, "monitor");
        Testbed {
            tier,
            edges,
            monitor,
        }
    }

    /// The shared `monitor.*` metric handles (incidents, evaluations,
    /// remaining error budget). An
    /// [`SloMonitor`](sli_telemetry::SloMonitor) shares these via
    /// [`SloMonitor::share_metrics`](sli_telemetry::SloMonitor::share_metrics)
    /// so its counts land in this testbed's registry and timeline.
    pub fn monitor_metrics(&self) -> &MonitorMetrics {
        &self.monitor
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::VirtualClient;
    use sli_simnet::{FaultPlan, SimDuration};
    use sli_telemetry::Resource;
    use sli_trade::TradeAction;

    #[test]
    fn every_architecture_builds_and_serves_a_quote() {
        for (arch, _) in Architecture::ALL {
            let tb = Testbed::build(arch, TestbedConfig::default());
            let mut client = VirtualClient::new(&tb, 0);
            let outcome = client.perform(&TradeAction::Quote {
                symbol: "s:1".into(),
            });
            assert_eq!(outcome.status, 200, "{arch:?}");
            assert!(outcome.latency.as_micros() > 0, "{arch:?}");
        }
    }

    #[test]
    fn labels() {
        assert_eq!(Architecture::EsRbes.label(), "ES/RBES");
        assert_eq!(Architecture::EsRbes.flavor(), Flavor::CachedEjb);
        assert_eq!(
            Architecture::EsRdb(Flavor::VanillaEjb).flavor().label(),
            "Vanilla EJBs"
        );
    }

    #[test]
    fn delay_applies_to_the_architectures_own_path() {
        // Clients/RAS delays the client path.
        let tb = Testbed::build(
            Architecture::ClientsRas(Flavor::Jdbc),
            TestbedConfig::default(),
        );
        tb.set_delay(SimDuration::from_millis(25));
        assert_eq!(
            tb.edges[0].client_path.proxy_delay(),
            SimDuration::from_millis(25)
        );
        assert_eq!(tb.edges[0].shared_path.proxy_delay(), SimDuration::ZERO);
        // ES/RDB delays the shared path.
        let tb = Testbed::build(Architecture::EsRdb(Flavor::Jdbc), TestbedConfig::default());
        tb.set_delay(SimDuration::from_millis(25));
        assert_eq!(tb.edges[0].client_path.proxy_delay(), SimDuration::ZERO);
        assert_eq!(
            tb.edges[0].shared_path.proxy_delay(),
            SimDuration::from_millis(25)
        );
    }

    #[test]
    fn fault_plans_land_on_the_delayed_path_with_derived_seeds() {
        let tb = Testbed::build(
            Architecture::EsRbes,
            TestbedConfig {
                edges: 2,
                ..TestbedConfig::default()
            },
        );
        tb.set_faults(FaultPlan::lossy(7, 100));
        assert_eq!(tb.delayed_path(0).fault_plan().seed, 7);
        assert_eq!(tb.delayed_path(1).fault_plan().seed, 8);
        // The client-side LAN path stays clean.
        assert_eq!(tb.edges[0].client_path.fault_plan(), FaultPlan::NONE);
    }

    #[test]
    fn telemetry_registry_sees_every_machine() {
        let tb = Testbed::build(Architecture::EsRbes, TestbedConfig::default());
        let names = tb.telemetry().names();
        for expected in [
            "db.stmt.statements",
            "db.stmt.batches",
            "db.plan.hits",
            "db.plan.misses",
            "db.plan.evictions",
            "backend.commit.committed",
            "backend.commit.conflicts",
            "backend.commit.dedup_replays",
            "monitor.incidents",
            "monitor.evaluations",
            "monitor.budget_remaining_ppm",
            "store.edge-1.hits",
            "store.edge-1.resident_bytes",
            "rm.edge-1.commits",
            "servlet.edge-1.status.200",
            "servlet.edge-1.action.buy_us",
            "simnet.path.client-1.requests",
            "simnet.path.edge-backend-1.rpc_retries",
            "simnet.path.backend-invalidate-1.requests",
            "simnet.path.backend-invalidate-1.rpc_unavailable",
            "simnet.path.backend-db.requests",
        ] {
            assert!(
                names.iter().any(|n| n == expected),
                "missing metric {expected}; have {names:?}"
            );
        }
        assert!(tb.backend().is_some());

        let mut client = VirtualClient::new(&tb, 0);
        let o = client.perform(&TradeAction::Buy {
            user: "uid:0".into(),
            symbol: "s:1".into(),
            quantity: 5.0,
        });
        assert_eq!(o.status, 200);
        assert!(
            tb.commit_trace().count(Some("commit.validate_apply"), None) > 0,
            "a buy drives the commit protocol"
        );
        tb.reset_telemetry();
        assert!(tb.commit_trace().is_empty());
        assert_eq!(tb.edges[0].server.metrics().status(200), 0);
    }

    #[test]
    fn combined_committer_traces_too() {
        let tb = Testbed::build(
            Architecture::EsRdb(Flavor::CachedEjb),
            TestbedConfig::default(),
        );
        assert!(tb.backend().is_none());
        assert!(tb
            .telemetry()
            .names()
            .iter()
            .any(|n| n == "committer.edge-1.committed"));
        let timeline = tb.standard_timeline(1_000);
        let mut client = VirtualClient::new(&tb, 0);
        let o = client.perform(&TradeAction::Buy {
            user: "uid:0".into(),
            symbol: "s:1".into(),
            quantity: 5.0,
        });
        assert_eq!(o.status, 200);
        assert!(!tb.commit_trace().is_empty());
        timeline.sample(tb.clock.now().as_micros());
        let report = timeline.report("buy");
        let committed = report
            .series
            .iter()
            .find(|s| s.name == "committer.edge-1.committed")
            .expect("the in-edge commit point is a windowed series");
        assert!(committed.total > 0, "the buy ran the commit pipeline");
    }

    #[test]
    fn trace_bucket_sums_equal_measured_latency_everywhere() {
        use sli_telemetry::{critical_path, Bucket};
        for (arch, _) in Architecture::ALL {
            let tb = Testbed::build(arch, TestbedConfig::default());
            tb.set_delay(SimDuration::from_millis(10));
            // Drop build-time connection-handshake traces; measure fresh.
            tb.reset_telemetry();
            let mut client = VirtualClient::new(&tb, 0);
            let mut measured_us = 0u64;
            let actions = [
                TradeAction::Home {
                    user: "uid:0".into(),
                },
                TradeAction::Quote {
                    symbol: "s:1".into(),
                },
                TradeAction::Buy {
                    user: "uid:0".into(),
                    symbol: "s:1".into(),
                    quantity: 2.0,
                },
            ];
            for action in &actions {
                let o = client.perform(action);
                assert_eq!(o.status, 200, "{arch:?}");
                measured_us += o.latency.as_micros();
            }
            let breakdown = critical_path(&tb.commit_trace().events());
            assert_eq!(breakdown.traces, actions.len() as u64, "{arch:?}");
            assert_eq!(
                breakdown.total_us, measured_us,
                "{arch:?}: root spans must cover the measured latency"
            );
            assert_eq!(
                breakdown.sum_us(),
                breakdown.total_us,
                "{arch:?}: buckets must decompose the total exactly"
            );
            assert!(
                breakdown.bucket_us(Bucket::Network) > 0,
                "{arch:?}: a 10ms proxy delay must surface as network time"
            );
            assert!(
                breakdown.bucket_us(Bucket::Statement) > 0,
                "{arch:?}: statements execute somewhere in every request"
            );
        }
    }

    #[test]
    fn occ_aborts_attribute_a_concrete_entity() {
        use sli_telemetry::conflict_leaderboard;
        // Two combined-servers edges with independent caches and no
        // invalidation channel: edge 2's image of uid:0 goes stale the
        // moment edge 1 commits a buy, so edge 2's next buy must abort
        // (and be transparently retried by its servlet).
        let tb = Testbed::build(
            Architecture::EsRdb(Flavor::CachedEjb),
            TestbedConfig {
                edges: 2,
                ..TestbedConfig::default()
            },
        );
        let mut c1 = VirtualClient::new(&tb, 0);
        let mut c2 = VirtualClient::new(&tb, 1);
        let home = |user: &str| TradeAction::Home { user: user.into() };
        let buy = |user: &str| TradeAction::Buy {
            user: user.into(),
            symbol: "s:1".into(),
            quantity: 1.0,
        };
        assert_eq!(c1.perform(&home("uid:0")).status, 200);
        assert_eq!(c2.perform(&home("uid:0")).status, 200);
        assert_eq!(c1.perform(&buy("uid:0")).status, 200);
        assert_eq!(c2.perform(&buy("uid:0")).status, 200);
        let events = tb.commit_trace().events();
        let board = conflict_leaderboard(&events);
        assert!(!board.is_empty(), "stale cache must produce an OCC abort");
        assert!(
            board.iter().any(|e| e.entity.starts_with("Account[")),
            "the contended account must appear on the leaderboard: {board:?}"
        );
    }

    #[test]
    fn standard_timeline_is_exactly_the_registrys_counters_and_gauges() {
        use sli_telemetry::{Metric, SeriesKind};
        for (arch, key) in Architecture::ALL {
            for (edges, with_engine) in [(1, false), (1, true), (2, false), (2, true)] {
                let config = TestbedConfig {
                    edges,
                    ..TestbedConfig::default()
                };
                let tb = Testbed::build(arch, config);
                let _engine = with_engine.then(|| crate::LoadEngine::new(&tb));
                let report = tb.standard_timeline(1_000).report("audit");
                let tracked: Vec<(&str, SeriesKind)> = report
                    .series
                    .iter()
                    .map(|s| (s.name.as_str(), s.kind))
                    .collect();
                let names = tb.telemetry().names();
                let registered: Vec<(&str, SeriesKind)> = names
                    .iter()
                    .filter_map(|name| match tb.telemetry().get(name)? {
                        Metric::Counter(_) => Some((name.as_str(), SeriesKind::Rate)),
                        Metric::Gauge(_) => Some((name.as_str(), SeriesKind::Level)),
                        Metric::Histogram(_) => None,
                    })
                    .collect();
                // `names()` is sorted and duplicate-free, so equality also
                // pins the series order and that no name repeats.
                assert_eq!(tracked, registered, "{key} × {edges} edge(s)");
                let has_engine = tracked.contains(&("engine.queue_depth", SeriesKind::Level));
                assert_eq!(has_engine, with_engine, "{key} × {edges} edge(s)");
            }
        }
    }

    #[test]
    fn resource_speedups_shrink_the_matching_costs() {
        let serve = |sped: Option<Resource>| {
            let tb = Testbed::build(Architecture::EsRdb(Flavor::Jdbc), TestbedConfig::default());
            tb.set_delay(SimDuration::from_millis(10));
            if let Some(resource) = sped {
                tb.clock.set_speedup(resource, 10.0);
            }
            let t0 = tb.clock.now();
            let mut client = VirtualClient::new(&tb, 0);
            client.perform(&TradeAction::Quote {
                symbol: "s:1".into(),
            });
            tb.clock.now().checked_since(t0).unwrap().as_micros()
        };
        let nominal = serve(None);
        let fast_wire = serve(Some(Resource::Wire));
        let fast_db = serve(Some(Resource::BackendDb));
        let fast_edge = serve(Some(Resource::EdgeCpu));
        assert!(fast_wire < nominal, "wire {fast_wire} vs nominal {nominal}");
        assert!(fast_db < nominal, "db {fast_db} vs nominal {nominal}");
        assert!(fast_edge < nominal, "edge {fast_edge} vs nominal {nominal}");
        // With a 10 ms proxy delay the wire dominates this interaction, so
        // speeding it up must save the most — the ranking what-if runs key
        // off this separability.
        assert!(fast_wire < fast_db && fast_wire < fast_edge);
    }

    #[test]
    fn disabling_wire_batching_multiplies_round_trips() {
        let trips = |wire_batching: bool| {
            let tb = Testbed::build(
                Architecture::EsRdb(Flavor::Jdbc),
                TestbedConfig {
                    wire_batching,
                    ..TestbedConfig::default()
                },
            );
            let mut client = VirtualClient::new(&tb, 0);
            client.perform(&TradeAction::Buy {
                user: "uid:0".into(),
                symbol: "s:1".into(),
                quantity: 1.0,
            });
            tb.delayed_path(0).stats().requests
        };
        let batched = trips(true);
        let unbatched = trips(false);
        assert!(
            unbatched > batched,
            "per-statement round trips ({unbatched}) must exceed batched ({batched})"
        );
    }

    #[test]
    fn standard_timeline_totals_match_registry_counters() {
        use sli_telemetry::Metric;
        let tb = Testbed::build(Architecture::EsRbes, TestbedConfig::default());
        let timeline = tb.standard_timeline(1_000);
        // Warm up, then rebase at the measurement boundary exactly as the
        // bench harness does.
        let mut client = VirtualClient::new(&tb, 0);
        client.perform(&TradeAction::Home {
            user: "uid:0".into(),
        });
        tb.reset_telemetry();
        timeline.rebase(tb.clock.now().as_micros());
        let actions = [
            TradeAction::Quote {
                symbol: "s:1".into(),
            },
            TradeAction::Buy {
                user: "uid:0".into(),
                symbol: "s:1".into(),
                quantity: 1.0,
            },
            TradeAction::Home {
                user: "uid:0".into(),
            },
        ];
        for action in &actions {
            assert_eq!(client.perform(action).status, 200);
            timeline.sample(tb.clock.now().as_micros());
        }
        let report = timeline.report("EsRbes check");
        assert!(report.windows() > 0);
        for series in &report.series {
            if series.kind != sli_telemetry::SeriesKind::Rate {
                continue;
            }
            let Some(Metric::Counter(c)) = tb.telemetry().get(&series.name) else {
                panic!("timeline series {} not in the registry", series.name);
            };
            assert_eq!(
                series.total,
                c.get(),
                "series {} must conserve the counter total",
                series.name
            );
            assert_eq!(series.values.iter().sum::<u64>(), series.total);
        }
        let requests = report
            .series
            .iter()
            .find(|s| s.name == "servlet.edge-1.requests")
            .expect("servlet throughput tracked");
        assert_eq!(requests.total, actions.len() as u64);
        // The warm-up request must not leak into the measured series, and
        // the working-set level must start from the surviving cache size
        // (reset_telemetry leaves gauges at their level).
        let size = report
            .series
            .iter()
            .find(|s| s.name == "store.edge-1.size")
            .expect("working-set size tracked");
        assert!(
            size.values[0] > 0,
            "cache warmed before rebase must show a non-zero starting level"
        );
    }

    #[test]
    fn reset_telemetry_keeps_gauges_at_their_live_levels() {
        use sli_telemetry::Metric;
        let tb = Testbed::build(
            Architecture::EsRbes,
            TestbedConfig {
                edges: 2,
                ..TestbedConfig::default()
            },
        );
        // Both edges log a user in (a live session and cached images each);
        // edge 1's commit is the last, so its invalidation is still in
        // flight toward edge 2 when the reset happens.
        for (edge, user) in [(1, "uid:0"), (0, "uid:1")] {
            let login = TradeAction::Login { user: user.into() };
            assert_eq!(VirtualClient::new(&tb, edge).perform(&login).status, 200);
        }
        let in_flight = tb.edges[1].invalidations.as_ref().unwrap().in_flight();
        assert!(in_flight > 0, "invalidation should be in flight");
        tb.reset_telemetry();
        let gauge = |name: String| match tb.telemetry().get(&name) {
            Some(Metric::Gauge(g)) => g.get(),
            other => panic!("{name}: expected a gauge, got {other:?}"),
        };
        assert_eq!(
            gauge("invalidations.edge-2.queue_depth".into()),
            in_flight as u64
        );
        for (i, edge) in tb.edges.iter().enumerate() {
            let n = i + 1;
            let store = edge.store.as_ref().unwrap();
            assert!(!store.is_empty());
            assert_eq!(gauge(format!("store.edge-{n}.size")), store.len() as u64);
            assert_eq!(
                gauge(format!("store.edge-{n}.resident_bytes")),
                store.resident_bytes()
            );
            assert!(edge.server.session_count() > 0);
            assert_eq!(
                gauge(format!("servlet.edge-{n}.sessions")),
                edge.server.session_count() as u64
            );
        }
    }

    #[test]
    fn multi_edge_rbes_shares_one_backend_and_invalidates() {
        let tb = Testbed::build(
            Architecture::EsRbes,
            TestbedConfig {
                edges: 2,
                ..TestbedConfig::default()
            },
        );
        let mut c1 = VirtualClient::new(&tb, 0);
        let mut c2 = VirtualClient::new(&tb, 1);
        // Edge 2 caches uid:0's account via a home-page read.
        let o = c2.perform(&TradeAction::Home {
            user: "uid:0".into(),
        });
        assert_eq!(o.status, 200);
        let cached_before = tb.edges[1].store.as_ref().unwrap().len();
        assert!(cached_before > 0);
        // Edge 1 buys for uid:0 → account update → an invalidation message
        // is now in flight toward edge 2.
        let o = c1.perform(&TradeAction::Buy {
            user: "uid:0".into(),
            symbol: "s:1".into(),
            quantity: 10.0,
        });
        assert_eq!(o.status, 200);
        let sink = tb.edges[1].invalidations.as_ref().unwrap();
        assert!(sink.in_flight() > 0, "invalidation should be in flight");
        // Edge 2's next request picks the message off the wire first, so it
        // re-faults fresh state instead of serving the stale image.
        let o = c2.perform(&TradeAction::Home {
            user: "uid:0".into(),
        });
        assert_eq!(o.status, 200);
        assert!(tb.edges[1].store.as_ref().unwrap().stats().invalidations > 0);
        assert_eq!(sink.in_flight(), 0);
    }
}
