//! Shared world-building helpers for the integration tests: the seeded
//! bank schema plus combined-servers and split-servers edge builders, with
//! optional operation-history recording for the `slicheck` checker tests.
//!
//! Each integration-test file compiles as its own crate, so not every
//! helper is used from every file — hence the `dead_code` allowance.

#![allow(dead_code)]

use std::sync::Arc;

use sli_edge::component::{Container, EjbError, EntityMeta, ResourceManager};
use sli_edge::core::{
    BackendServer, BackendSource, CombinedCommitter, CommonStore, DirectSource, InvalidationSink,
    MetaRegistry, SliHome, SliResourceManager, SplitCommitter,
};
use sli_edge::datastore::{ColumnType, Database, SqlConnection, Value};
use sli_edge::simnet::{Clock, Path, PathSpec, Remote};
use sli_edge::telemetry::HistoryLog;

/// The two seeded rows every test starts from.
pub const SEED_ACCOUNTS: [(&str, f64); 2] = [("alice", 100.0), ("bob", 200.0)];

/// The `Account` bean: a varchar key and one double field.
pub fn account_meta() -> EntityMeta {
    EntityMeta::new("Account", "account", "userid", ColumnType::Varchar)
        .field("balance", ColumnType::Double)
}

/// A registry holding just the `Account` bean.
pub fn registry() -> MetaRegistry {
    MetaRegistry::new().with(account_meta())
}

/// A fresh database with the `Account` schema and the [`SEED_ACCOUNTS`]
/// rows.
pub fn seeded_db() -> Arc<Database> {
    let db = Database::new();
    registry().create_schema(&db).unwrap();
    let mut conn = db.connect();
    for (user, balance) in SEED_ACCOUNTS {
        conn.execute(
            "INSERT INTO account (userid, balance) VALUES (?, ?)",
            &[Value::from(user), Value::from(balance)],
        )
        .unwrap();
    }
    db
}

/// A combined-servers (ES/RDB-style) edge over a shared database.
pub fn combined_edge(db: &Arc<Database>, origin: u32) -> (Container, Arc<CommonStore>) {
    build_combined_edge(db, origin, None)
}

/// [`combined_edge`] with history recording wired through the resource
/// manager and the committer (both halves of a `slicheck` history),
/// timestamped from `clock`.
pub fn combined_edge_with_history(
    db: &Arc<Database>,
    origin: u32,
    log: &Arc<HistoryLog>,
    clock: &Arc<Clock>,
) -> (Container, Arc<CommonStore>) {
    build_combined_edge(db, origin, Some((log, clock)))
}

fn build_combined_edge(
    db: &Arc<Database>,
    origin: u32,
    history: Option<(&Arc<HistoryLog>, &Arc<Clock>)>,
) -> (Container, Arc<CommonStore>) {
    let store = CommonStore::new();
    let source = Arc::new(DirectSource::new(Box::new(db.connect()), registry()));
    let committer = CombinedCommitter::new(Box::new(db.connect()), registry());
    if let Some((log, clock)) = history {
        committer.set_history(Arc::clone(log), Arc::clone(clock));
    }
    let mut rm = SliResourceManager::new(origin, Arc::new(committer), Arc::clone(&store));
    if let Some((log, clock)) = history {
        rm = rm.with_history(Arc::clone(log), Arc::clone(clock));
    }
    let mut container = Container::new(Arc::new(rm) as Arc<dyn ResourceManager>);
    container.register(Arc::new(SliHome::new(
        account_meta(),
        Arc::clone(&store),
        source,
    )));
    (container, store)
}

/// A split-servers cluster: the shared virtual clock, the single back-end,
/// and `n` edges with invalidation channels.
pub type SplitCluster = (
    Arc<Clock>,
    Arc<BackendServer>,
    Vec<(Container, Arc<CommonStore>)>,
);

/// A split-servers (ES/RBES-style) cluster: one backend, `n` edges with
/// immediate invalidation sinks.
pub fn split_cluster(db: &Arc<Database>, n: usize) -> SplitCluster {
    let clock = Arc::new(Clock::new());
    let backend = BackendServer::new(Box::new(db.connect()), registry(), Arc::clone(&clock));
    let mut edges = Vec::new();
    for i in 0..n {
        let id = i as u32 + 1;
        let store = CommonStore::new();
        let path = Path::new(
            format!("edge{id}-backend"),
            Arc::clone(&clock),
            PathSpec::lan(),
        );
        let remote = Remote::new(path, Arc::clone(&backend));
        let inv_path = Path::new(
            format!("backend-inv-{id}"),
            Arc::clone(&clock),
            PathSpec::lan(),
        );
        backend.register_edge(
            id,
            Remote::new(inv_path, InvalidationSink::new(Arc::clone(&store))),
        );
        let source = Arc::new(BackendSource::new(remote.clone()));
        let committer = Arc::new(SplitCommitter::new(remote));
        let rm = Arc::new(SliResourceManager::new(id, committer, Arc::clone(&store)));
        let mut container = Container::new(rm as Arc<dyn ResourceManager>);
        container.register(Arc::new(SliHome::new(
            account_meta(),
            Arc::clone(&store),
            source,
        )));
        edges.push((container, store));
    }
    (clock, backend, edges)
}

/// The committed balance of `user`, read through a fresh connection.
pub fn balance_of(db: &Arc<Database>, user: &str) -> f64 {
    let mut conn = db.connect();
    let rs = conn
        .execute(
            "SELECT balance FROM account WHERE userid = ?",
            &[Value::from(user)],
        )
        .unwrap();
    rs.rows()[0][0].as_double().unwrap()
}

/// One debit transaction against `user` through `container`.
pub fn debit(container: &Container, user: &str, amount: f64) -> Result<(), EjbError> {
    container.with_transaction(|ctx, c| {
        let home = c.home("Account")?;
        let key = Value::from(user);
        let balance = home.get_field(ctx, &key, "balance")?.as_double().unwrap();
        home.set_field(ctx, &key, "balance", Value::from(balance - amount))?;
        Ok(())
    })
}
