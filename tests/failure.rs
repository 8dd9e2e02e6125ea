//! Failure-injection integration tests: crashes, aborts and malformed
//! traffic must never corrupt the persistent store or leak locks.

use std::sync::Arc;

use bytes::Bytes;
use sli_edge::arch::{Architecture, Testbed, TestbedConfig, VirtualClient};
use sli_edge::component::{
    share_connection, Container, EjbError, EntityMeta, Memento, ResourceManager,
};
use sli_edge::core::{BackendServer, BackendSource};
use sli_edge::core::{
    CombinedCommitter, CommitEntry, CommitOutcome, CommitPoint, CommitRequest, Committer,
    CommonStore, DirectSource, EntryKind, MetaRegistry, SliHome, SliResourceManager,
    SplitCommitter,
};
use sli_edge::datastore::server::{DbCostModel, DbServer, RemoteConnection};
use sli_edge::datastore::{
    ColumnType, CrashPoint, Database, DbError, SqlConnection, Value, CRASH_POINTS,
};
use sli_edge::simnet::{
    Clock, CrashKind, Fault, FaultPlan, Path, PathSpec, Remote, RetryPolicy, Service, SimDuration,
};
use sli_edge::trade::TradeAction;

fn account_meta() -> EntityMeta {
    EntityMeta::new("Account", "account", "userid", ColumnType::Varchar)
        .field("balance", ColumnType::Double)
}

fn registry() -> MetaRegistry {
    MetaRegistry::new().with(account_meta())
}

fn seeded_db() -> Arc<Database> {
    let db = Database::new();
    registry().create_schema(&db).unwrap();
    let mut conn = db.connect();
    conn.execute(
        "INSERT INTO account (userid, balance) VALUES ('alice', 100.0)",
        &[],
    )
    .unwrap();
    db
}

fn cached_edge(db: &Arc<Database>) -> (Container, Arc<CommonStore>) {
    let store = CommonStore::new();
    let source = Arc::new(DirectSource::new(Box::new(db.connect()), registry()));
    let committer = Arc::new(CombinedCommitter::new(Box::new(db.connect()), registry()));
    let rm = Arc::new(SliResourceManager::new(1, committer, Arc::clone(&store)));
    let mut container = Container::new(rm as Arc<dyn ResourceManager>);
    container.register(Arc::new(SliHome::new(
        account_meta(),
        Arc::clone(&store),
        source,
    )));
    (container, store)
}

fn balance(db: &Arc<Database>) -> f64 {
    let mut conn = db.connect();
    conn.execute("SELECT balance FROM account WHERE userid = 'alice'", &[])
        .unwrap()
        .rows()[0][0]
        .as_double()
        .unwrap()
}

/// A split-configuration edge: its state source and committer share one
/// (fault-injectable) path to the back-end server.
fn split_edge(
    backend: &Arc<BackendServer>,
    path: &Arc<Path>,
    policy: RetryPolicy,
) -> (Container, Arc<CommonStore>) {
    split_edge_with_origin(backend, path, policy, 1)
}

fn split_edge_with_origin(
    backend: &Arc<BackendServer>,
    path: &Arc<Path>,
    policy: RetryPolicy,
    origin: u32,
) -> (Container, Arc<CommonStore>) {
    let store = CommonStore::new();
    let remote = Remote::new(Arc::clone(path), Arc::clone(backend)).with_policy(policy);
    let source = Arc::new(BackendSource::new(remote.clone()));
    let committer = Arc::new(SplitCommitter::new(remote));
    let rm = Arc::new(SliResourceManager::new(
        origin,
        committer,
        Arc::clone(&store),
    ));
    let mut container = Container::new(rm as Arc<dyn ResourceManager>);
    container.register(Arc::new(SliHome::new(
        account_meta(),
        Arc::clone(&store),
        source,
    )));
    (container, store)
}

fn debit_alice(edge: &Container, amount: f64) -> Result<(), EjbError> {
    edge.with_transaction(|ctx, c| {
        let home = c.home("Account")?;
        let key = Value::from("alice");
        let b = home.get_field(ctx, &key, "balance")?.as_double().unwrap();
        home.set_field(ctx, &key, "balance", Value::from(b - amount))?;
        Ok(())
    })
}

/// THE idempotence scenario: the back-end applies the debit but its response
/// is lost; the edge times out and resends the identical commit request; the
/// back-end recognises `(origin, txn_id)` and replays the recorded outcome.
/// The account is debited exactly once and the edge observes success.
#[test]
fn dropped_commit_response_debits_exactly_once() {
    let db = seeded_db();
    let clock = Arc::new(Clock::new());
    let backend = BackendServer::new(Box::new(db.connect()), registry(), Arc::clone(&clock));
    let path = Path::new("edge-backend", Arc::clone(&clock), PathSpec::lan());
    let (edge, _store) = split_edge(&backend, &path, RetryPolicy::default());
    // Prime the cache so the debit transaction's only round trip is the
    // commit itself.
    debit_alice(&edge, 0.0).unwrap();
    assert_eq!(balance(&db), 100.0);

    path.script_faults([Some(Fault::DropResponse)]);
    debit_alice(&edge, 40.0).unwrap();

    assert_eq!(balance(&db), 60.0, "debit must be applied exactly once");
    assert_eq!(path.fault_stats().dropped_responses, 1);
    // Telemetry agrees with the story: the lost response cost one timeout
    // and one resend, and the back-end answered the resend from its
    // completed-transaction table instead of re-applying.
    let m = path.metrics();
    assert!(m.rpc_timeouts.get() >= 1, "first attempt waited out");
    assert!(m.rpc_retries.get() >= 1, "the commit was resent");
    assert_eq!(
        backend.commit_point().stats().dedup_replays,
        1,
        "resend replayed, not re-applied"
    );
    assert_eq!(db.lock_manager().lock_count(), 0);
}

#[test]
fn dropped_commit_request_is_retried_transparently() {
    let db = seeded_db();
    let clock = Arc::new(Clock::new());
    let backend = BackendServer::new(Box::new(db.connect()), registry(), Arc::clone(&clock));
    let path = Path::new("edge-backend", Arc::clone(&clock), PathSpec::lan());
    let (edge, _store) = split_edge(&backend, &path, RetryPolicy::default());
    debit_alice(&edge, 0.0).unwrap();

    path.script_faults([Some(Fault::DropRequest)]);
    debit_alice(&edge, 25.0).unwrap();

    assert_eq!(balance(&db), 75.0);
    assert_eq!(path.fault_stats().dropped_requests, 1);
    // The first delivery never reached the back-end, so the retry is a
    // first application, not a dedup replay.
    assert!(path.metrics().rpc_retries.get() >= 1);
    assert!(path.metrics().rpc_timeouts.get() >= 1);
    assert_eq!(backend.commit_point().stats().dedup_replays, 0);
    assert_eq!(db.lock_manager().lock_count(), 0);
}

#[test]
fn duplicated_commit_delivery_debits_exactly_once() {
    let db = seeded_db();
    let clock = Arc::new(Clock::new());
    let backend = BackendServer::new(Box::new(db.connect()), registry(), Arc::clone(&clock));
    let path = Path::new("edge-backend", Arc::clone(&clock), PathSpec::lan());
    let (edge, _store) = split_edge(&backend, &path, RetryPolicy::default());
    debit_alice(&edge, 0.0).unwrap();

    // The network delivers the commit twice: the second copy is a replay of
    // an already-finished (origin, txn_id) and must not re-apply.
    path.script_faults([Some(Fault::Duplicate)]);
    debit_alice(&edge, 10.0).unwrap();

    assert_eq!(balance(&db), 90.0, "duplicate delivery double-debited");
    assert_eq!(path.fault_stats().duplicates, 1);
    // The duplicate copy hit the dedup table: exactly one replay, and no
    // timeout/retry since the first response came back fine.
    assert_eq!(backend.commit_point().stats().dedup_replays, 1);
    assert_eq!(path.metrics().rpc_retries.get(), 0);
    assert_eq!(db.lock_manager().lock_count(), 0);
}

#[test]
fn unavailability_outlasting_retries_aborts_cleanly() {
    let db = seeded_db();
    let clock = Arc::new(Clock::new());
    let backend = BackendServer::new(Box::new(db.connect()), registry(), Arc::clone(&clock));
    let path = Path::new("edge-backend", Arc::clone(&clock), PathSpec::lan());
    let policy = RetryPolicy {
        max_attempts: 2,
        timeout: SimDuration::from_millis(50),
        backoff: SimDuration::from_millis(5),
    };
    let (edge, store) = split_edge(&backend, &path, policy);
    debit_alice(&edge, 0.0).unwrap();

    // The back-end refuses service for longer than the retry budget.
    path.script_faults([Some(Fault::Unavailable), Some(Fault::Unavailable)]);
    let result = debit_alice(&edge, 40.0);
    assert!(
        matches!(result, Err(EjbError::Db(DbError::Unavailable(_)))),
        "got {result:?}"
    );
    assert_eq!(balance(&db), 100.0, "failed commit must apply nothing");
    assert!(
        path.metrics().rpc_unavailable.get() >= 2,
        "both attempts were refused"
    );
    assert_eq!(db.lock_manager().lock_count(), 0);
    // The container survives: the cache was not poisoned and the next
    // transaction goes through.
    assert!(store.get("Account", &Value::from("alice")).is_some());
    debit_alice(&edge, 15.0).unwrap();
    assert_eq!(balance(&db), 85.0);
}

#[test]
fn seeded_fault_plan_gives_identical_schedules() {
    let run = |seed: u64| {
        let db = seeded_db();
        let clock = Arc::new(Clock::new());
        let backend = BackendServer::new(Box::new(db.connect()), registry(), Arc::clone(&clock));
        let path = Path::new("edge-backend", Arc::clone(&clock), PathSpec::lan());
        path.set_fault_plan(FaultPlan::lossy(seed, 250));
        let (edge, _store) = split_edge(&backend, &path, RetryPolicy::default());
        let mut failures = 0u32;
        for _ in 0..10 {
            if debit_alice(&edge, 1.0).is_err() {
                failures += 1;
            }
        }
        assert_eq!(db.lock_manager().lock_count(), 0);
        (balance(&db), clock.now(), path.fault_stats(), failures)
    };
    let a = run(1234);
    let b = run(1234);
    assert_eq!(a, b, "same seed must replay the exact schedule");
    assert!(a.2.total() > 0, "25% plan injected nothing in 10 txns");
    // Every successful debit moved exactly 1.0; a transaction that timed
    // out on its final attempt may have committed without the edge learning
    // it (inherent at-least-once ambiguity), so failures bound the rest.
    let (final_balance, _, _, failures) = a;
    let successes = f64::from(10 - failures);
    assert!(final_balance <= 100.0 - successes, "{final_balance}");
    assert!(final_balance >= 90.0, "{final_balance}");
    let c = run(99);
    assert_ne!(a.1, c.1, "different seed should change the schedule");
}

/// A drop-response fault plan on the delayed path must surface in the
/// testbed's registry as non-zero retry, timeout and dedup-replay counters:
/// dropped commit responses force resends, and the back-end answers resends
/// from its completed-transaction table.
#[test]
fn drop_response_plan_shows_up_in_retry_and_replay_counters() {
    use sli_edge::arch::{Architecture, Testbed, TestbedConfig, VirtualClient};
    use sli_edge::telemetry::MetricValue;
    use sli_edge::trade::seed::Population;
    use sli_edge::trade::session::SessionGenerator;

    let tb = Testbed::build(Architecture::EsRbes, TestbedConfig::default());
    tb.set_faults(FaultPlan {
        seed: 7,
        drop_response_per_mille: 300,
        ..FaultPlan::NONE
    });
    let mut generator = SessionGenerator::new(7, Population::default());
    let mut client = VirtualClient::new(&tb, 0);
    for _ in 0..30 {
        for action in &generator.session() {
            client.perform(action);
        }
    }

    let snapshot = tb.telemetry().snapshot();
    let counter = |name: &str| match snapshot.get(name) {
        Some(MetricValue::Counter(n)) => *n,
        other => panic!("expected counter {name}, got {other:?}"),
    };
    assert!(counter("simnet.path.edge-backend-1.rpc_retries") > 0);
    assert!(counter("simnet.path.edge-backend-1.rpc_timeouts") > 0);
    assert!(
        counter("backend.commit.dedup_replays") > 0,
        "a dropped commit response must be answered from the dedup table on resend"
    );
    assert!(
        tb.commit_trace().count(Some("commit.replay"), None) > 0,
        "replays leave spans in the commit trace"
    );
}

/// When the shared site refuses service for longer than the transport's
/// retry budget, the servlet degrades to 503 — and both the RPC layer and
/// the servlet metrics record it.
#[test]
fn unavailable_shared_site_counts_503s_at_the_servlet() {
    use sli_edge::arch::{Architecture, Testbed, TestbedConfig, VirtualClient};
    use sli_edge::telemetry::MetricValue;
    use sli_edge::trade::TradeAction;

    let tb = Testbed::build(Architecture::EsRbes, TestbedConfig::default());
    tb.delayed_path(0)
        .script_faults(std::iter::repeat_n(Some(Fault::Unavailable), 64));
    let mut client = VirtualClient::new(&tb, 0);
    let outcome = client.perform(&TradeAction::Home {
        user: "uid:0".into(),
    });
    assert_eq!(outcome.status, 503);
    assert_eq!(tb.edges[0].server.metrics().status(503), 1);
    assert!(tb.delayed_path(0).metrics().rpc_unavailable.get() >= 1);
    assert!(matches!(
        tb.telemetry().snapshot().get("servlet.edge-1.status.503"),
        Some(MetricValue::Counter(1))
    ));
}

#[test]
fn edge_crash_mid_transaction_leaves_store_untouched() {
    let db = seeded_db();
    {
        let (edge, _store) = cached_edge(&db);
        // Simulate a crash: the transaction's closure panics; the workspace
        // and the container die with the edge, nothing was shipped.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = edge.with_transaction(|ctx, c| {
                let home = c.home("Account")?;
                home.set_field(ctx, &Value::from("alice"), "balance", Value::from(0.0))?;
                panic!("edge process crashed");
                #[allow(unreachable_code)]
                Ok(())
            });
        }));
        assert!(result.is_err());
        // edge dropped here
    }
    assert_eq!(balance(&db), 100.0);
    assert_eq!(db.lock_manager().lock_count(), 0);
}

#[test]
fn vanilla_connection_drop_mid_transaction_rolls_back() {
    let db = seeded_db();
    {
        let conn = share_connection(db.connect());
        let mut container = Container::new(Arc::new(
            sli_edge::component::JdbcResourceManager::new(Arc::clone(&conn)),
        ));
        container.register(Arc::new(sli_edge::component::BmpHome::new(
            account_meta(),
            conn,
        )));
        let result: Result<(), EjbError> = container.with_transaction(|ctx, c| {
            let home = c.home("Account")?;
            home.set_field(ctx, &Value::from("alice"), "balance", Value::from(0.0))?;
            Err(EjbError::TransactionRequired) // forced abort
        });
        assert!(result.is_err());
        // container + connection dropped with no commit
    }
    assert_eq!(balance(&db), 100.0);
    assert_eq!(db.lock_manager().lock_count(), 0);
}

#[test]
fn malformed_wire_traffic_is_rejected_not_crashing() {
    let db = seeded_db();
    let clock = Arc::new(Clock::new());
    let db_server = DbServer::new(Arc::clone(&db), Arc::clone(&clock), DbCostModel::default());
    // Garbage straight to the server: must produce an error response, not
    // a panic, and must not disturb data.
    let resp = db_server.handle(Bytes::from_static(b"\xde\xad\xbe\xef garbage"));
    assert!(!resp.is_empty());
    let backend = BackendServer::new(Box::new(db.connect()), registry(), clock);
    let resp = backend.handle(Bytes::from_static(b"not a frame"));
    assert!(!resp.is_empty());
    assert_eq!(balance(&db), 100.0);
}

#[test]
fn conflicted_commit_applies_nothing_even_across_many_beans() {
    let db = seeded_db();
    let mut conn = db.connect();
    for i in 0..5 {
        conn.execute(
            "INSERT INTO account (userid, balance) VALUES (?, 10.0)",
            &[Value::from(format!("u{i}"))],
        )
        .unwrap();
    }
    let (edge, _store) = cached_edge(&db);
    // Cache all six accounts.
    edge.with_transaction(|ctx, c| {
        let home = c.home("Account")?;
        for i in 0..5 {
            home.get_field(ctx, &Value::from(format!("u{i}")), "balance")?;
        }
        home.get_field(ctx, &Value::from("alice"), "balance")?;
        Ok(())
    })
    .unwrap();
    // External write invalidates one of them behind the cache's back.
    conn.execute("UPDATE account SET balance = 1.0 WHERE userid = 'u4'", &[])
        .unwrap();
    // A sweeping update touching all six must abort atomically.
    let result = edge.with_transaction(|ctx, c| {
        let home = c.home("Account")?;
        for i in 0..5 {
            home.set_field(
                ctx,
                &Value::from(format!("u{i}")),
                "balance",
                Value::from(0.0),
            )?;
        }
        home.set_field(ctx, &Value::from("alice"), "balance", Value::from(0.0))?;
        Ok(())
    });
    assert!(matches!(result, Err(EjbError::OptimisticConflict { .. })));
    let rs = conn
        .execute("SELECT COUNT(*) FROM account WHERE balance = 0.0", &[])
        .unwrap();
    assert_eq!(rs.scalar(), Some(&Value::from(0)), "partial apply leaked");
}

#[test]
fn remote_connection_survives_server_side_errors() {
    let db = seeded_db();
    let clock = Arc::new(Clock::new());
    let server = DbServer::new(Arc::clone(&db), Arc::clone(&clock), DbCostModel::default());
    let path = Path::new("edge-db", clock, PathSpec::lan());
    let mut conn = RemoteConnection::open(Remote::new(path, server)).unwrap();
    // A stream of failing statements must leave the connection usable.
    assert!(matches!(
        conn.execute("SELECT * FROM ghost", &[]),
        Err(DbError::NoSuchTable(_))
    ));
    assert!(matches!(
        conn.execute("THIS IS NOT SQL", &[]),
        Err(DbError::Parse(_))
    ));
    assert!(matches!(
        conn.execute(
            "INSERT INTO account (userid, balance) VALUES ('alice', 1.0)",
            &[]
        ),
        Err(DbError::DuplicateKey(_))
    ));
    // and then work normally
    let rs = conn
        .execute("SELECT balance FROM account WHERE userid = 'alice'", &[])
        .unwrap();
    assert_eq!(rs.rows()[0][0], Value::from(100.0));
    assert_eq!(db.lock_manager().lock_count(), 0);
}

#[test]
fn empty_commit_request_is_a_no_op_everywhere() {
    let db = seeded_db();
    let clock = Arc::new(Clock::new());
    let backend = BackendServer::new(Box::new(db.connect()), registry(), Arc::clone(&clock));
    let path = Path::new("edge-backend", clock, PathSpec::lan());
    let committer = SplitCommitter::new(Remote::new(path, backend));
    use sli_edge::core::Committer as _;
    let outcome = committer
        .commit(&CommitRequest {
            origin: 1,
            txn_id: 1,
            entries: vec![],
        })
        .unwrap();
    assert_eq!(outcome, sli_edge::core::CommitOutcome::Committed);
    assert_eq!(balance(&db), 100.0);
}

#[test]
fn conflict_storm_converges_under_retry() {
    // Two edges fight over one row with immediate retries; both must make
    // all their updates eventually (livelock-freedom in the low-load
    // sequential model).
    let db = seeded_db();
    let (edge1, _s1) = cached_edge(&db);
    let (edge2, _s2) = cached_edge(&db);
    let mut total_applied = 0.0;
    for round in 0..20 {
        let edge = if round % 2 == 0 { &edge1 } else { &edge2 };
        edge.with_retrying_transaction(5, |ctx, c| {
            let home = c.home("Account")?;
            let key = Value::from("alice");
            let b = home.get_field(ctx, &key, "balance")?.as_double().unwrap();
            home.set_field(ctx, &key, "balance", Value::from(b + 1.0))?;
            Ok(())
        })
        .unwrap();
        total_applied += 1.0;
    }
    assert_eq!(balance(&db), 100.0 + total_applied);
}

#[test]
fn create_after_failed_create_retries_cleanly() {
    let db = seeded_db();
    let (edge, store) = cached_edge(&db);
    // First create succeeds.
    edge.with_transaction(|ctx, c| {
        c.home("Account")?.create(
            ctx,
            Memento::new("Account", Value::from("bob")).with_field("balance", 1.0),
        )?;
        Ok(())
    })
    .unwrap();
    // Second create of the same key conflicts at commit; afterwards the
    // cache still serves the real bean.
    let result = edge.with_transaction(|ctx, c| {
        c.home("Account")?.create(
            ctx,
            Memento::new("Account", Value::from("bob")).with_field("balance", 99.0),
        )?;
        Ok(())
    });
    assert!(matches!(result, Err(EjbError::OptimisticConflict { .. })));
    let read_back = edge
        .with_transaction(|ctx, c| {
            c.home("Account")?
                .get_field(ctx, &Value::from("bob"), "balance")
        })
        .unwrap();
    assert_eq!(read_back, Value::from(1.0));
    assert!(store.get("Account", &Value::from("bob")).is_some());
}

// ---------------------------------------------------------------------------
// Crash-point matrix: kill the back-end at every step of the commit
// protocol, on every architecture × flavor combination, and prove the
// restart path (WAL replay + dedup reseed) preserves exactly-once debits,
// loses no acknowledged commit, and conserves money.
// ---------------------------------------------------------------------------

fn seeded_two_account_db() -> Arc<Database> {
    let db = Database::new();
    registry().create_schema(&db).unwrap();
    let mut conn = db.connect();
    conn.execute(
        "INSERT INTO account (userid, balance) VALUES ('alice', 100.0)",
        &[],
    )
    .unwrap();
    conn.execute(
        "INSERT INTO account (userid, balance) VALUES ('bob', 28.0)",
        &[],
    )
    .unwrap();
    db
}

fn account_memento(user: &str, balance: f64) -> Memento {
    Memento::new("Account", Value::from(user)).with_field("balance", balance)
}

fn balance_of(db: &Arc<Database>, user: &str) -> f64 {
    let mut conn = db.connect();
    conn.execute(
        "SELECT balance FROM account WHERE userid = ?",
        &[Value::from(user)],
    )
    .unwrap()
    .rows()[0][0]
        .as_double()
        .unwrap()
}

/// The fixed transfer every matrix cell retries: alice pays bob 10.0, as a
/// `(1, 7)`-stamped commit request (the committer combos' retry identity).
fn transfer_request() -> CommitRequest {
    CommitRequest {
        origin: 1,
        txn_id: 7,
        entries: vec![
            CommitEntry {
                bean: "Account".into(),
                key: Value::from("alice"),
                kind: EntryKind::Update {
                    before: account_memento("alice", 100.0),
                    after: account_memento("alice", 90.0),
                },
            },
            CommitEntry {
                bean: "Account".into(),
                key: Value::from("bob"),
                kind: EntryKind::Update {
                    before: account_memento("bob", 28.0),
                    after: account_memento("bob", 38.0),
                },
            },
        ],
    }
}

/// One explicit SQL transaction moving 10.0 alice → bob, optionally armed
/// to crash the database at `crash` inside its commit.
fn jdbc_transfer(
    db: &Arc<Database>,
    conn: &mut dyn SqlConnection,
    crash: Option<CrashPoint>,
) -> Result<(), DbError> {
    conn.begin()?;
    let a = conn
        .execute("SELECT balance FROM account WHERE userid = 'alice'", &[])?
        .rows()[0][0]
        .as_double()
        .unwrap();
    let b = conn
        .execute("SELECT balance FROM account WHERE userid = 'bob'", &[])?
        .rows()[0][0]
        .as_double()
        .unwrap();
    conn.execute(
        "UPDATE account SET balance = ? WHERE userid = 'alice'",
        &[Value::from(a - 10.0)],
    )?;
    conn.execute(
        "UPDATE account SET balance = ? WHERE userid = 'bob'",
        &[Value::from(b + 10.0)],
    )?;
    if let Some(point) = crash {
        db.script_crash(point);
    }
    conn.commit()
}

fn vanilla_container(db: &Arc<Database>) -> Container {
    let conn = share_connection(db.connect());
    let mut container = Container::new(Arc::new(sli_edge::component::JdbcResourceManager::new(
        Arc::clone(&conn),
    )));
    container.register(Arc::new(sli_edge::component::BmpHome::new(
        account_meta(),
        conn,
    )));
    container
}

fn vanilla_transfer(container: &Container) -> Result<(), EjbError> {
    container.with_transaction(|ctx, c| {
        let home = c.home("Account")?;
        let ka = Value::from("alice");
        let kb = Value::from("bob");
        let a = home.get_field(ctx, &ka, "balance")?.as_double().unwrap();
        let b = home.get_field(ctx, &kb, "balance")?.as_double().unwrap();
        home.set_field(ctx, &ka, "balance", Value::from(a - 10.0))?;
        home.set_field(ctx, &kb, "balance", Value::from(b + 10.0))?;
        Ok(())
    })
}

/// Whether the crash point leaves the commit record on the durable log
/// (so recovery must redo the transaction and retries must dedup).
fn is_durable(point: CrashPoint) -> bool {
    matches!(
        point,
        CrashPoint::PostFlushPreApply | CrashPoint::PostApplyPreAck
    )
}

fn run_crash_point_cell(key: &str, point: CrashPoint) {
    let db = seeded_two_account_db();
    db.attach_wal();
    let durable = is_durable(point);
    let tag = format!("{key}/{}", point.label());

    match key {
        "es-rdb-cached" | "clients-ras-cached" | "es-rbes" => {
            // Committer combos: the retry carries the same (origin, txn_id),
            // so exactly-once rests on the dedup table the WAL reseeds.
            // What the edge commits through, and the commit point deciding.
            let (backend, combined);
            let (committer, decider): (Arc<dyn Committer>, &CommitPoint) = if key == "es-rbes" {
                let clock = Arc::new(Clock::new());
                backend =
                    BackendServer::new(Box::new(db.connect()), registry(), Arc::clone(&clock));
                let path = Path::new("edge-backend", clock, PathSpec::lan());
                let remote = Remote::new(path, Arc::clone(&backend));
                (
                    Arc::new(SplitCommitter::new(remote)),
                    backend.commit_point(),
                )
            } else {
                combined = Arc::new(CombinedCommitter::new(Box::new(db.connect()), registry()));
                (Arc::clone(&combined) as _, &*combined)
            };
            let request = transfer_request();
            db.script_crash(point);
            let first = committer.commit(&request);
            assert!(first.is_err(), "{tag}: commit through a crash must fail");

            let report = db.recover().unwrap();
            decider.reseed_completed(&report.committed);
            if durable {
                assert_eq!(
                    balance_of(&db, "alice"),
                    90.0,
                    "{tag}: durable commit lost in recovery"
                );
                assert_eq!(report.committed, vec![(1, 7)], "{tag}: stamp not recovered");
            } else {
                assert_eq!(
                    balance_of(&db, "alice"),
                    100.0,
                    "{tag}: unflushed commit must not survive"
                );
                assert!(report.committed.is_empty(), "{tag}: phantom winner");
            }
            if point == CrashPoint::MidApply {
                assert_eq!(report.torn_txns, 1, "{tag}: torn group commit not detected");
            }

            // The retry: a replay for durable points (the before-images no
            // longer match, so a re-application would conflict instead),
            // a first application otherwise.
            let second = committer.commit(&request).unwrap();
            assert_eq!(
                second,
                CommitOutcome::Committed,
                "{tag}: retry must report success"
            );
            assert_eq!(
                decider.stats().dedup_replays,
                u64::from(durable),
                "{tag}: dedup replay count"
            );
        }
        "es-rdb-jdbc" | "clients-ras-jdbc" => {
            // SQL transactions carry no retry identity: the client re-reads
            // after restart to decide whether to re-submit. The edge variant
            // crosses the wire to the database server; the RAS variant is
            // co-located.
            let mut remote;
            let mut local;
            let conn: &mut dyn SqlConnection = if key == "es-rdb-jdbc" {
                let clock = Arc::new(Clock::new());
                let server =
                    DbServer::new(Arc::clone(&db), Arc::clone(&clock), DbCostModel::default());
                let path = Path::new("edge-db", clock, PathSpec::lan());
                remote = RemoteConnection::open(Remote::new(path, server)).unwrap();
                &mut remote
            } else {
                local = db.connect();
                &mut local
            };
            let first = jdbc_transfer(&db, conn, Some(point));
            assert!(first.is_err(), "{tag}: commit through a crash must fail");
            let _ = conn.rollback();

            let report = db.recover().unwrap();
            assert!(
                report.committed.is_empty(),
                "{tag}: unstamped SQL commits carry no dedup identity"
            );
            if durable {
                assert_eq!(balance_of(&db, "alice"), 90.0, "{tag}: durable commit lost");
            } else {
                assert_eq!(
                    balance_of(&db, "alice"),
                    100.0,
                    "{tag}: unflushed commit must not survive"
                );
                // The whole transfer re-runs.
                jdbc_transfer(&db, conn, None).unwrap();
            }
        }
        "es-rdb-vanilla" | "clients-ras-vanilla" => {
            // Vanilla BMP beans over the pessimistic JDBC RM: same re-read
            // retry contract as raw SQL.
            let container = vanilla_container(&db);
            db.script_crash(point);
            let first = vanilla_transfer(&container);
            assert!(first.is_err(), "{tag}: commit through a crash must fail");

            let report = db.recover().unwrap();
            assert!(report.committed.is_empty());
            if durable {
                assert_eq!(balance_of(&db, "alice"), 90.0, "{tag}: durable commit lost");
            } else {
                assert_eq!(balance_of(&db, "alice"), 100.0);
                vanilla_transfer(&container).unwrap();
            }
        }
        other => panic!("unknown matrix key {other}"),
    }

    // Every cell converges to the exactly-once outcome: one debit, one
    // credit, and the bank total intact.
    assert_eq!(balance_of(&db, "alice"), 90.0, "{tag}: final alice");
    assert_eq!(balance_of(&db, "bob"), 38.0, "{tag}: final bob");
    assert_eq!(db.lock_manager().lock_count(), 0, "{tag}: leaked locks");
    assert!(!db.is_crashed(), "{tag}: database left fenced");
}

#[test]
fn backend_crash_at_every_commit_step_is_exactly_once_on_all_combos() {
    for key in sli_edge::arch::ARCH_KEYS {
        for point in CRASH_POINTS {
            run_crash_point_cell(key, point);
        }
    }
}

/// Double-crash cell: a torn group commit is rolled back by the first
/// recovery, a fresh transaction then commits durably on the same keys,
/// and a second crash must not re-undo the torn transaction's op records
/// on top of the later committed state. This is what the post-recovery
/// log rebase exists for — without it, recovery #2 replays T1's durable
/// ops and undoes them again, silently reverting T2's acknowledged write.
#[test]
fn torn_commit_rollback_survives_a_second_crash() {
    let db = seeded_two_account_db();
    db.attach_wal();
    let mut conn = db.connect();

    // T1 tears at mid-apply: op records durable, commit record lost.
    assert!(jdbc_transfer(&db, &mut conn, Some(CrashPoint::MidApply)).is_err());
    let _ = conn.rollback();
    let r1 = db.recover().unwrap();
    assert_eq!(r1.torn_txns, 1, "first recovery must see the torn commit");
    assert_eq!(balance_of(&db, "alice"), 100.0);

    // T2 commits durably on the same rows.
    jdbc_transfer(&db, &mut conn, None).unwrap();
    assert_eq!(balance_of(&db, "alice"), 90.0);

    // Second crash: T1's records must be gone from the replayed log.
    db.crash();
    let r2 = db.recover().unwrap();
    assert_eq!(r2.torn_txns, 0, "torn txn re-surfaced after the rebase");
    assert_eq!(
        balance_of(&db, "alice"),
        90.0,
        "second recovery reverted a committed write"
    );
    assert_eq!(balance_of(&db, "bob"), 38.0);
    assert_eq!(db.lock_manager().lock_count(), 0);
}

/// The recovery rebase truncates the log, but committed `(origin, txn_id)`
/// stamps must keep flowing into every later `RecoveryReport`: the
/// committers *replace* their dedup tables from it, so a forgotten stamp
/// would turn a very late retry into a double debit.
#[test]
fn committed_stamps_survive_recovery_rebase() {
    let db = seeded_two_account_db();
    db.attach_wal();
    let committer = CombinedCommitter::new(Box::new(db.connect()), registry());
    let request = transfer_request();

    // Durable but unacknowledged: the stamp is on the log.
    db.script_crash(CrashPoint::PostFlushPreApply);
    assert!(committer.commit(&request).is_err());
    let r1 = db.recover().unwrap();
    assert_eq!(r1.committed, vec![(1, 7)]);

    // An unrelated second crash after the rebase: the stamp now lives in
    // the base checkpoint, not the (truncated) log, and must still be
    // reported.
    db.crash();
    let r2 = db.recover().unwrap();
    assert_eq!(r2.committed, vec![(1, 7)], "stamp lost by the rebase");
    committer.reseed_completed(&r2.committed);

    // The late retry replays instead of double-debiting.
    assert_eq!(
        committer.commit(&request).unwrap(),
        CommitOutcome::Committed
    );
    assert_eq!(balance_of(&db, "alice"), 90.0);
    assert_eq!(balance_of(&db, "bob"), 38.0);
}

/// DDL after `attach_wal` folds the new physical design into the base
/// checkpoint, so committed writes to a post-attach table survive a crash
/// instead of silently vanishing (their ops used to reference a table
/// recovery could not find).
#[test]
fn ddl_after_attach_wal_is_durable() {
    let db = seeded_two_account_db();
    db.attach_wal();
    db.execute_ddl("CREATE TABLE audit (id INT PRIMARY KEY, note VARCHAR)")
        .unwrap();
    db.execute_ddl("CREATE INDEX audit_note ON audit (note)")
        .unwrap();
    let mut conn = db.connect();
    conn.execute("INSERT INTO audit (id, note) VALUES (1, 'pre-crash')", &[])
        .unwrap();

    db.crash();
    db.recover().unwrap();

    let rs = conn
        .execute("SELECT note FROM audit WHERE id = 1", &[])
        .unwrap();
    assert_eq!(rs.rows()[0][0], Value::from("pre-crash"));
    // The secondary index created post-attach is rebuilt too.
    let rs = conn
        .execute("SELECT id FROM audit WHERE note = 'pre-crash'", &[])
        .unwrap();
    assert_eq!(rs.len(), 1);
    // And the original tables rode through the DDL-time rebase intact.
    assert_eq!(balance_of(&db, "alice"), 100.0);
    assert_eq!(balance_of(&db, "bob"), 28.0);
}

/// The seeded determinism pin: on every architecture × flavor combination,
/// replaying a recorded crash schedule must reproduce the exact WAL/recovery
/// counters and a byte-identical recovered database image.
#[test]
fn crash_schedules_replay_byte_identically_on_all_combos() {
    use sli_edge::arch::{arch_by_key, run_slicheck, ScheduleSource, SliCheckConfig, ARCH_KEYS};
    for key in ARCH_KEYS {
        let mut cfg = SliCheckConfig::new(arch_by_key(key).unwrap(), 17);
        cfg.crashes = 2;
        let first = run_slicheck(&cfg, ScheduleSource::Random(17));
        let choices: Vec<u32> = first.schedule.iter().map(|s| s.choice).collect();
        let replay = run_slicheck(&cfg, ScheduleSource::Replay(choices));
        assert!(
            first.violations.is_empty(),
            "{key}: clean crash run must check out: {:?}",
            first.violations
        );
        let wal = first.wal;
        assert_eq!(wal.recoveries, 2, "{key}: both scheduled crashes recover");
        assert_eq!(
            first.wal, replay.wal,
            "{key}: WAL counters must replay exactly"
        );
        assert_eq!(
            first.final_state, replay.final_state,
            "{key}: recovered state must be byte-identical across replays"
        );
    }
}

/// Edge kill/restart, combined flavor: the replacement edge comes up with a
/// cold common store, so its first reads are misses served from the
/// database's ground truth — including state that changed behind the dead
/// edge's warm cache.
#[test]
fn killed_combined_edge_restarts_cold_and_reads_ground_truth() {
    let db = seeded_db();
    {
        let (edge, store) = cached_edge(&db);
        // Warm the doomed edge's cache.
        debit_alice(&edge, 0.0).unwrap();
        assert!(store.get("Account", &Value::from("alice")).is_some());
        // edge + store die here
    }
    // While the edge is down, the balance moves underneath it.
    let mut conn = db.connect();
    conn.execute(
        "UPDATE account SET balance = 55.0 WHERE userid = 'alice'",
        &[],
    )
    .unwrap();

    let (edge2, store2) = cached_edge(&db);
    assert!(
        store2.get("Account", &Value::from("alice")).is_none(),
        "restarted edge must start cold"
    );
    let read = edge2
        .with_transaction(|ctx, c| {
            c.home("Account")?
                .get_field(ctx, &Value::from("alice"), "balance")
        })
        .unwrap();
    assert_eq!(read, Value::from(55.0), "cold miss must serve ground truth");
    assert!(
        store2.stats().misses > 0,
        "rewarm goes through the miss path"
    );
    // And the rewarmed image validates: an OCC write on top of it commits.
    debit_alice(&edge2, 5.0).unwrap();
    assert_eq!(balance(&db), 50.0);
}

/// Edge kill/restart, split flavor with deferred invalidations: the killed
/// edge had an invalidation in flight that never arrived. Its replacement
/// starts cold, so the miss refetches from the back-end and the lost
/// invalidation cannot cause a stale read.
#[test]
fn killed_split_edge_with_pending_invalidation_rewarms_coherently() {
    use sli_edge::core::DeferredInvalidationSink;
    use sli_edge::simnet::SimDuration;

    let db = seeded_db();
    let clock = Arc::new(Clock::new());
    let backend = BackendServer::new(Box::new(db.connect()), registry(), Arc::clone(&clock));

    // Edge 1 commits; edge 2 caches and is the invalidation target.
    let path1 = Path::new("edge-backend-1", Arc::clone(&clock), PathSpec::lan());
    let (edge1, _s1) = split_edge(&backend, &path1, RetryPolicy::default());
    let path2 = Path::new("edge-backend-2", Arc::clone(&clock), PathSpec::lan());
    let (edge2, store2) = split_edge_with_origin(&backend, &path2, RetryPolicy::default(), 2);
    let inv_path = Path::new("backend-invalidate-2", Arc::clone(&clock), PathSpec::lan());
    inv_path.set_proxy_delay(SimDuration::from_millis(5));
    let sink2 = DeferredInvalidationSink::over_path(Arc::clone(&store2), Arc::clone(&inv_path));
    backend.register_edge(2, Remote::new(inv_path, Arc::clone(&sink2)));

    // Warm edge 2's cache with alice@100.
    let warm = edge2
        .with_transaction(|ctx, c| {
            c.home("Account")?
                .get_field(ctx, &Value::from("alice"), "balance")
        })
        .unwrap();
    assert_eq!(warm, Value::from(100.0));

    // Edge 1 commits a debit: the invalidation to edge 2 is now in flight
    // (deferred), and the kill below loses it forever.
    debit_alice(&edge1, 40.0).unwrap();
    assert_eq!(sink2.in_flight(), 1, "invalidation must be pending");
    assert!(
        store2.get("Account", &Value::from("alice")).is_some(),
        "the stale image is still cached when the edge dies"
    );

    // Kill edge 2: volatile cache gone, pending invalidation never applied.
    store2.clear();

    // Restart cold: the first read misses and refetches the back-end's
    // ground truth — not the stale 100.0 the dead cache held.
    let read = edge2
        .with_transaction(|ctx, c| {
            c.home("Account")?
                .get_field(ctx, &Value::from("alice"), "balance")
        })
        .unwrap();
    assert_eq!(
        read,
        Value::from(60.0),
        "cold rewarm must not serve stale state"
    );

    // The lost invalidation's late twin (delivered after restart) is
    // harmless: it may blow the fresh image away, but the next miss
    // refetches the same ground truth.
    clock.delay(SimDuration::from_millis(10));
    sink2.deliver_due();
    let read = edge2
        .with_transaction(|ctx, c| {
            c.home("Account")?
                .get_field(ctx, &Value::from("alice"), "balance")
        })
        .unwrap();
    assert_eq!(read, Value::from(60.0));
}

#[test]
fn database_crash_and_restore_preserves_committed_state_only() {
    let db = seeded_db();
    db.attach_wal();
    let (edge, store) = cached_edge(&db);
    // Two committed transactions...
    edge.with_transaction(|ctx, c| {
        c.home("Account")?
            .set_field(ctx, &Value::from("alice"), "balance", Value::from(80.0))?;
        Ok(())
    })
    .unwrap();
    edge.with_transaction(|ctx, c| {
        c.home("Account")?.create(
            ctx,
            Memento::new("Account", Value::from("bob")).with_field("balance", 5.0),
        )?;
        Ok(())
    })
    .unwrap();
    // ...then the database machine crashes and replays its log.
    db.crash();
    db.recover().unwrap();
    let mut conn = db.connect();
    let rs = conn
        .execute("SELECT balance FROM account WHERE userid = 'alice'", &[])
        .unwrap();
    assert_eq!(rs.rows()[0][0], Value::from(80.0));
    let rs = conn
        .execute("SELECT balance FROM account WHERE userid = 'bob'", &[])
        .unwrap();
    assert_eq!(rs.rows()[0][0], Value::from(5.0));

    // A fresh edge over the recovered database serves the same data; the
    // old edge's still-cached images validate cleanly because they match
    // the recovered state.
    let (edge2, _s2) = cached_edge(&db);
    edge2
        .with_transaction(|ctx, c| {
            let b = c
                .home("Account")?
                .get_field(ctx, &Value::from("alice"), "balance")?;
            assert_eq!(b, Value::from(80.0));
            Ok(())
        })
        .unwrap();
    // the survivor cache still holds alice@80 — consistent with recovery
    assert_eq!(
        store
            .get("Account", &Value::from("alice"))
            .unwrap()
            .get("balance"),
        Some(&Value::from(80.0))
    );
}

/// Full-stack double-crash drive through the es-rbes servlet: a torn
/// mid-commit Buy is rolled back, the next Buy commits durably on the
/// restarted stack (a failed remote commit must not wedge the backend's
/// connection with a stale open-transaction flag), and a second
/// crash/recovery neither re-undoes the torn ops nor loses the committed
/// Buy — the WAL was re-based onto a fresh checkpoint after recovery.
#[test]
fn trade_survives_double_crash_end_to_end() {
    let tb = Testbed::build(Architecture::EsRbes, TestbedConfig::default());
    let mut client = VirtualClient::new(&tb, 0);
    let user = "uid:0".to_owned();
    let holdings = |tb: &Testbed| {
        let mut conn = tb.db.connect();
        conn.execute(
            "SELECT holdingid FROM holding WHERE userid = ?",
            &[Value::from(user.as_str())],
        )
        .unwrap()
        .len()
    };

    assert_eq!(
        client
            .perform(&TradeAction::Login { user: user.clone() })
            .status,
        200
    );
    let before = holdings(&tb);

    // Buy #1 commits and is durable.
    let buy = client.perform(&TradeAction::Buy {
        user: user.clone(),
        symbol: "s:1".to_owned(),
        quantity: 10.0,
    });
    assert_eq!(buy.status, 200, "buy 1");
    assert_eq!(holdings(&tb), before + 1);

    // Buy #2 tears mid-commit: ops flushed, commit record lost.
    tb.db.script_crash(CrashPoint::MidApply);
    let torn = client.perform(&TradeAction::Buy {
        user: user.clone(),
        symbol: "s:2".to_owned(),
        quantity: 5.0,
    });
    assert_ne!(torn.status, 200, "torn buy must fail");
    let r1 = tb.restart(CrashKind::Backend).expect("first restart");
    assert_eq!(r1.torn_txns, 1, "torn commit detected");
    assert_eq!(holdings(&tb), before + 1, "torn buy rolled back");

    // Buy #3 commits durably on the recovered stack, first attempt.
    let buy3 = client.perform(&TradeAction::Buy {
        user: user.clone(),
        symbol: "s:3".to_owned(),
        quantity: 2.0,
    });
    assert_eq!(buy3.status, 200, "buy 3 after restart");
    assert_eq!(holdings(&tb), before + 2);

    // Second crash: recovery must not re-undo the torn buy's records on
    // top of buy #3's committed state.
    tb.crash(CrashKind::Backend);
    let r2 = tb.restart(CrashKind::Backend).expect("second restart");
    assert_eq!(r2.torn_txns, 0, "torn txn re-surfaced after rebase");
    assert_eq!(holdings(&tb), before + 2, "second recovery lost a buy");

    // The stack still serves reads coherently after the double restart.
    assert_eq!(client.perform(&TradeAction::Portfolio { user }).status, 200);
}
