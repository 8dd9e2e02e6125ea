//! The storage engine: tables, indexes, statement execution, and the
//! per-transaction log behind rollback, the WAL and recovery.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::{Mutex, RwLock};
use sli_simnet::hash::{FxHashMap, FxHashSet};
use sli_simnet::wire::Writer;
use sli_telemetry::{Counter, Registry};

use crate::connection::Connection;
use crate::error::DbError;
use crate::lock::{LockManager, LockMode, Resource, TxnId};
use crate::predicate::Predicate;
use crate::result::{encode_header, ResultSet};
use crate::schema::Schema;
use crate::sql::{parse, AggregateFn, Scalar, SelectList, Statement};
use crate::trace::{statement_class, OpKind, Trace, TraceSnapshot};
use crate::value::Value;
use crate::wal::{CrashPoint, RecoveryReport, Redo, WalDisk, WalMetrics, WalOp, WalStats};
use crate::DbResult;

/// One table: schema, primary-key-ordered rows, secondary indexes.
///
/// The schema and the name are shared, not owned: a statement takes a
/// pointer copy of each, and every lock key and log record it builds
/// carries the same `Arc<str>`.
#[derive(Debug)]
struct Table {
    schema: Arc<Schema>,
    name: Arc<str>,
    rows: BTreeMap<Value, Vec<Value>>,
    /// column name → value → set of primary keys.
    indexes: FxHashMap<String, SecondaryIndex>,
}

impl Table {
    fn new(schema: Schema) -> Table {
        Table {
            name: Arc::from(schema.name()),
            schema: Arc::new(schema),
            rows: BTreeMap::new(),
            indexes: FxHashMap::default(),
        }
    }

    fn pk_of(&self, row: &[Value]) -> Value {
        row[self.schema.pk_index()].clone()
    }

    fn index_insert(&mut self, row: &[Value]) {
        let pk = &row[self.schema.pk_index()];
        for (ci, index) in indexed(&self.schema, &mut self.indexes) {
            index_add(index, &row[ci], pk);
        }
    }

    fn index_remove(&mut self, row: &[Value]) {
        let pk = &row[self.schema.pk_index()];
        for (ci, index) in indexed(&self.schema, &mut self.indexes) {
            index_drop(index, &row[ci], pk);
        }
    }

    fn insert_row(&mut self, row: Vec<Value>) {
        self.index_insert(&row);
        self.rows.insert(self.pk_of(&row), row);
    }

    /// Puts `row` where its key's row lies, touching only the secondary
    /// indexes whose column it changes, and returns the row it displaced —
    /// or, where no row has its key, inserts it. A live update, its
    /// rollback and recovery's redo of either all change a stored row here.
    fn replace_row(&mut self, row: Vec<Value>) -> Option<Vec<Value>> {
        let pki = self.schema.pk_index();
        let Some(slot) = self.rows.get_mut(&row[pki]) else {
            self.insert_row(row);
            return None;
        };
        let old = std::mem::replace(slot, row);
        let (new, pk) = (&*slot, &old[pki]);
        for (ci, index) in indexed(&self.schema, &mut self.indexes) {
            if old[ci] != new[ci] {
                index_drop(index, &old[ci], pk);
                index_add(index, &new[ci], pk);
            }
        }
        Some(old)
    }

    fn remove_row(&mut self, pk: &Value) -> Option<Vec<Value>> {
        let row = self.rows.remove(pk)?;
        self.index_remove(&row);
        Some(row)
    }

    /// Removes the row stored under `image`'s primary key.
    fn remove_image(&mut self, image: &[Value]) {
        let pk = &image[self.schema.pk_index()];
        self.remove_row(pk);
    }
}

/// A secondary index: column value → the primary keys of the rows that
/// hold it.
type SecondaryIndex = BTreeMap<Value, BTreeSet<Value>>;

/// Each of a table's `indexes` with the column it is on.
fn indexed<'t>(
    schema: &'t Schema,
    indexes: &'t mut FxHashMap<String, SecondaryIndex>,
) -> impl Iterator<Item = (usize, &'t mut SecondaryIndex)> {
    indexes.iter_mut().map(|(col, index)| {
        let ci = schema
            .column_index(col)
            .expect("index column exists by construction");
        (ci, index)
    })
}

fn index_add(index: &mut SecondaryIndex, value: &Value, pk: &Value) {
    index.entry(value.clone()).or_default().insert(pk.clone());
}

fn index_drop(index: &mut SecondaryIndex, value: &Value, pk: &Value) {
    if let Some(pks) = index.get_mut(value) {
        pks.remove(pk);
        if pks.is_empty() {
            index.remove(value);
        }
    }
}

/// Server-side transaction state: id, the log of every row change made so
/// far and the crash epoch the transaction was born under. Owned by a
/// [`Connection`] or by a remote session.
///
/// The log is the transaction's only record of its writes: rollback pops
/// it through [`Database::undo_op`], commit appends it to the WAL, and
/// recovery undoes the same records when the commit record never made it.
#[derive(Debug)]
pub(crate) struct TxnState {
    pub(crate) id: TxnId,
    log: Vec<WalOp>,
    epoch: u64,
}

impl TxnState {
    /// Whether this transaction wrote anything — only writers consume a
    /// pending commit stamp or touch the WAL.
    pub(crate) fn has_writes(&self) -> bool {
        !self.log.is_empty()
    }
}

/// Default number of plans the per-database plan cache holds before the
/// least-recently-used one is evicted. Real prepared-statement caches are
/// capped (DB2's package cache, for one); unbounded growth under a
/// hostile or diverse workload is a leak.
pub const PLAN_CACHE_CAPACITY: usize = 256;

/// The access path the planner chose for a statement's predicate,
/// recorded in its cached plan the first time the statement executes and
/// reused until DDL changes the physical design.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AccessPath {
    /// Point lookup on the primary key.
    PkPoint,
    /// Equality probe of the secondary index on the named column.
    Index(String),
    /// Full table scan.
    Scan,
}

impl AccessPath {
    /// Stable label for diagnostics: `pk-point`, `index:<col>` or `scan`.
    pub fn label(&self) -> String {
        match self {
            AccessPath::PkPoint => "pk-point".to_owned(),
            AccessPath::Index(col) => format!("index:{col}"),
            AccessPath::Scan => "scan".to_owned(),
        }
    }
}

/// What a statement's SQL text alone determines, computed on the plan-cache
/// miss and shared by every later execution: the parsed statement, its
/// placeholder count and the `{table}.{kind}` class its `db.stmt` span
/// carries — plus what also depends on the schema or the physical design:
/// the planner's access path and a SELECT's projection.
#[derive(Debug)]
struct CachedPlan {
    stmt: Statement,
    param_count: usize,
    class: Arc<str>,
    /// `(ddl_epoch, chosen path)` — valid while the epoch matches; a
    /// `CREATE INDEX` bumps the epoch so stale scan plans replan lazily.
    access: Mutex<Option<(u64, Arc<AccessPath>)>>,
    /// `(ddl_epoch, projection)` of a SELECT, resolved on its first
    /// execution under the epoch and shared by every result after it.
    projection: Mutex<Option<(u64, Arc<Projection>)>>,
}

/// What a SELECT's list resolves to against its table's schema: the
/// result's column names in wire form and, for a list of columns, the
/// schema column each result column's cells are copied from (none for
/// `COUNT(*)` or an aggregate, whose one value is computed).
#[derive(Debug)]
struct Projection {
    header: Bytes,
    columns: Vec<usize>,
}

impl Projection {
    fn new<'a>(names: impl ExactSizeIterator<Item = &'a str>, columns: Vec<usize>) -> Projection {
        Projection {
            header: encode_header(names),
            columns,
        }
    }
}

impl CachedPlan {
    fn new(sql: &str, stmt: Statement) -> CachedPlan {
        CachedPlan {
            param_count: stmt.param_count(),
            class: statement_class(sql).into(),
            stmt,
            access: Mutex::new(None),
            projection: Mutex::new(None),
        }
    }

    /// The projection recorded under `epoch`, or the one `resolve` builds,
    /// recorded for the executions that follow.
    fn projection(
        &self,
        epoch: u64,
        resolve: impl FnOnce() -> DbResult<Projection>,
    ) -> DbResult<Arc<Projection>> {
        let mut slot = self.projection.lock();
        match &*slot {
            Some((e, projection)) if *e == epoch => Ok(Arc::clone(projection)),
            _ => {
                let projection = Arc::new(resolve()?);
                *slot = Some((epoch, Arc::clone(&projection)));
                Ok(projection)
            }
        }
    }

    fn recorded(&self, epoch: u64) -> Option<Arc<AccessPath>> {
        self.access
            .lock()
            .as_ref()
            .filter(|(e, _)| *e == epoch)
            .map(|(_, p)| Arc::clone(p))
    }

    fn record(&self, epoch: u64, path: AccessPath) {
        *self.access.lock() = Some((epoch, Arc::new(path)));
    }
}

/// Counter snapshot for the plan cache (see
/// [`Database::plan_cache_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanCacheStats {
    /// Statement lookups served from the cache.
    pub hits: u64,
    /// Statement lookups that had to parse.
    pub misses: u64,
    /// Cached plans evicted by the LRU cap.
    pub evictions: u64,
    /// Plans currently cached.
    pub entries: usize,
}

/// LRU-capped map from SQL text to its cached plan.
///
/// Recency is the tick stored beside each plan, so a hit writes one `u64`
/// and allocates nothing. The victim is the plan with the smallest tick,
/// found by a scan: evictions happen only on a miss against a full cache,
/// where the parse that follows costs more than reading `capacity` ticks.
#[derive(Debug)]
struct PlanCache {
    plans: FxHashMap<String, (Arc<CachedPlan>, u64)>,
    tick: u64,
    capacity: usize,
}

impl PlanCache {
    fn new(capacity: usize) -> PlanCache {
        PlanCache {
            plans: FxHashMap::default(),
            tick: 0,
            capacity: capacity.max(1),
        }
    }

    /// Looks up and touches `sql`'s plan.
    fn get(&mut self, sql: &str) -> Option<Arc<CachedPlan>> {
        self.tick += 1;
        let (plan, tick) = self.plans.get_mut(sql)?;
        *tick = self.tick;
        Some(Arc::clone(plan))
    }

    /// Reads `sql`'s plan without touching its recency (diagnostics).
    fn peek(&self, sql: &str) -> Option<Arc<CachedPlan>> {
        self.plans.get(sql).map(|(plan, _)| Arc::clone(plan))
    }

    /// Installs a plan, evicting LRU entries past the cap. Returns how
    /// many plans were evicted.
    fn insert(&mut self, sql: String, plan: Arc<CachedPlan>) -> u64 {
        self.tick += 1;
        self.plans.insert(sql, (plan, self.tick));
        let mut evicted = 0;
        while self.plans.len() > self.capacity {
            let victim = self
                .plans
                .iter()
                .min_by_key(|(_, (_, tick))| *tick)
                .map(|(sql, _)| sql.clone())
                .expect("a cache over its capacity is not empty");
            self.plans.remove(&victim);
            evicted += 1;
        }
        evicted
    }
}

/// The embedded relational database.
///
/// All methods take `&self`; interior locking makes the engine safe to
/// share between threads (`Arc<Database>`), and the [`LockManager`]
/// provides transaction-level isolation on top.
#[derive(Debug)]
pub struct Database {
    tables: RwLock<FxHashMap<String, Arc<RwLock<Table>>>>,
    locks: LockManager,
    next_txn: AtomicU64,
    /// Commit-order witness: bumped once per committed *writing*
    /// transaction (see [`Database::commit_seq`]).
    commit_seq: AtomicU64,
    plans: Mutex<PlanCache>,
    /// Bumped by every successful DDL statement; cached access paths
    /// recorded under an older epoch are replanned on next use.
    ddl_epoch: AtomicU64,
    plan_hits: Counter,
    plan_misses: Counter,
    plan_evictions: Counter,
    trace: Trace,
    /// The simulated durable log device, once [`Database::attach_wal`]
    /// has been called.
    wal: Mutex<Option<WalDisk>>,
    wal_metrics: WalMetrics,
    /// True iff `wal` is attached, readable without taking its lock.
    logging: AtomicBool,
    /// Set by [`Database::crash`]; every operation fails `Unavailable`
    /// until [`Database::recover`] clears it.
    crashed: AtomicBool,
    /// Bumped by every crash. Transactions carry the epoch they were
    /// born under so pre-crash survivors are fenced out after restart.
    crash_epoch: AtomicU64,
    /// One-shot scripted crash, consumed by the next writing commit.
    scripted_crash: Mutex<Option<CrashPoint>>,
}

impl Default for Database {
    fn default() -> Database {
        Database {
            tables: RwLock::new(FxHashMap::default()),
            locks: LockManager::default(),
            next_txn: AtomicU64::new(1),
            commit_seq: AtomicU64::new(0),
            plans: Mutex::new(PlanCache::new(PLAN_CACHE_CAPACITY)),
            ddl_epoch: AtomicU64::new(0),
            plan_hits: Counter::new(),
            plan_misses: Counter::new(),
            plan_evictions: Counter::new(),
            trace: Trace::default(),
            wal: Mutex::new(None),
            wal_metrics: WalMetrics::new(),
            logging: AtomicBool::new(false),
            crashed: AtomicBool::new(false),
            crash_epoch: AtomicU64::new(0),
            scripted_crash: Mutex::new(None),
        }
    }
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Arc<Database> {
        Arc::new(Database::default())
    }

    /// Opens an in-process JDBC-style connection.
    pub fn connect(self: &Arc<Self>) -> Connection {
        Connection::new(Arc::clone(self))
    }

    /// Executes a DDL statement (`CREATE TABLE` / `CREATE INDEX`) outside
    /// any transaction.
    ///
    /// # Errors
    /// Fails on parse errors or if the object already exists.
    pub fn execute_ddl(&self, sql: &str) -> DbResult<()> {
        let stmt = parse(sql)?;
        self.trace.record_statement();
        match stmt {
            Statement::CreateTable { name, columns, pk } => {
                let schema = Schema::new(name.clone(), columns, &pk)?;
                let mut tables = self.tables.write();
                if tables.contains_key(&name) {
                    return Err(DbError::AlreadyExists(format!("table {name}")));
                }
                tables.insert(name, Arc::new(RwLock::new(Table::new(schema))));
            }
            Statement::CreateIndex { table, column, .. } => {
                let t = self.table(&table)?;
                let mut t = t.write();
                let ci = t.schema.column_index(&column)?;
                if t.indexes.contains_key(&column) {
                    return Err(DbError::AlreadyExists(format!("index on {table}.{column}")));
                }
                let mut index = SecondaryIndex::new();
                for (pk, row) in &t.rows {
                    index_add(&mut index, &row[ci], pk);
                }
                t.indexes.insert(column, index);
            }
            _ => return Err(DbError::Parse("execute_ddl expects DDL".to_owned())),
        }
        // Physical design changed: access paths recorded in cached plans
        // are stale (a scan plan may now have an index). Bumping the
        // epoch makes every plan replan lazily on its next execution.
        self.ddl_epoch.fetch_add(1, Ordering::Relaxed);
        // With a WAL attached, fold the new physical design into the base
        // checkpoint right away. DDL runs outside transactions, so the
        // current committed image plus the log's committed stamps re-base
        // losslessly — post-attach tables are durable, and recovery never
        // meets a logged op whose table is missing from the base. The
        // crashed gate keeps recovery's own rebuild DDL out of here.
        if self.logging.load(Ordering::Relaxed) && !self.crashed.load(Ordering::Relaxed) {
            let replay = self
                .wal
                .lock()
                .as_ref()
                .map(|wal| wal.replay(|op| op.skip()))
                .transpose()?;
            if let Some(replay) = replay {
                self.rebase_wal(replay.stamps);
            }
        }
        Ok(())
    }

    /// The schema of `table`, if it exists. The SLI cache layer uses this
    /// to evaluate finder predicates against cached bean state.
    pub fn schema_of(&self, table: &str) -> Option<Schema> {
        self.tables
            .read()
            .get(table)
            .map(|t| Schema::clone(&t.read().schema))
    }

    /// Names of all tables (sorted), for diagnostics.
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Number of rows currently in `table`.
    ///
    /// # Errors
    /// Fails if the table does not exist.
    pub fn row_count(&self, table: &str) -> DbResult<usize> {
        Ok(self.table(table)?.read().rows.len())
    }

    /// The commit-order witness: how many *writing* transactions have
    /// committed so far (explicit transactions and autocommitted
    /// statements alike; read-only transactions do not count).
    ///
    /// Because the engine serializes commits, the value observed right
    /// after a transaction commits is a faithful position in the global
    /// commit order — which is what a history checker needs to order
    /// transactions independently of any application-level log.
    pub fn commit_seq(&self) -> u64 {
        self.commit_seq.load(Ordering::Relaxed)
    }

    /// Per-table statement counters since the last reset.
    pub fn trace_snapshot(&self) -> TraceSnapshot {
        self.trace.snapshot()
    }

    /// Zeroes the statement counters.
    pub fn reset_trace(&self) {
        self.trace.reset();
    }

    /// The engine's lock manager (exposed for tests and diagnostics).
    pub fn lock_manager(&self) -> &LockManager {
        &self.locks
    }

    /// Creates an empty database whose plan cache holds at most `capacity`
    /// plans (the default is [`PLAN_CACHE_CAPACITY`]).
    #[cfg(test)]
    fn with_plan_cache_capacity(capacity: usize) -> Arc<Database> {
        let db = Database {
            plans: Mutex::new(PlanCache::new(capacity)),
            ..Database::default()
        };
        Arc::new(db)
    }

    /// Plan-cache counters: hits, misses, LRU evictions and current size.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.plan_hits.get(),
            misses: self.plan_misses.get(),
            evictions: self.plan_evictions.get(),
            entries: self.plans.lock().plans.len(),
        }
    }

    /// The access path recorded for `sql`'s cached plan, if the statement
    /// is cached and its plan is current (recorded under the present DDL
    /// epoch). Does not touch the plan's LRU recency.
    pub fn plan_access(&self, sql: &str) -> Option<AccessPath> {
        let plan = self.plans.lock().peek(sql)?;
        plan.recorded(self.ddl_epoch.load(Ordering::Relaxed))
            .map(|path| AccessPath::clone(&path))
    }

    /// Attaches the plan-cache counters to `registry` as
    /// `{prefix}.hits` / `{prefix}.misses` / `{prefix}.evictions`.
    pub fn register_plan_metrics(&self, registry: &Registry, prefix: &str) {
        registry.attach_counter(format!("{prefix}.hits"), &self.plan_hits);
        registry.attach_counter(format!("{prefix}.misses"), &self.plan_misses);
        registry.attach_counter(format!("{prefix}.evictions"), &self.plan_evictions);
    }

    /// Columns with secondary indexes on `table` (sorted; empty for
    /// unknown tables). Used by the checkpointer.
    pub fn index_columns(&self, table: &str) -> Vec<String> {
        match self.table(table) {
            Ok(t) => {
                let mut cols: Vec<String> = t.read().indexes.keys().cloned().collect();
                cols.sort();
                cols
            }
            Err(_) => Vec::new(),
        }
    }

    /// All rows of `table` in primary-key order (empty for unknown
    /// tables). A physical dump for the checkpointer — no locks are taken,
    /// so call it between transactions.
    pub fn dump_rows(&self, table: &str) -> Vec<Vec<Value>> {
        match self.table(table) {
            Ok(t) => t.read().rows.values().cloned().collect(),
            Err(_) => Vec::new(),
        }
    }

    /// Writes `table`'s rows onto `w` as the checkpoint holds them — a
    /// count, then every row's cells, in primary-key order — straight from
    /// the table, without [`Database::dump_rows`]' copy of it.
    pub(crate) fn encode_rows(&self, table: &str, w: &mut Writer) {
        let table = self.table(table).expect("listed table exists");
        let table = table.read();
        w.put_u32(table.rows.len() as u32);
        for cell in table.rows.values().flatten() {
            cell.encode(w);
        }
    }

    /// Attaches the write-ahead log, capturing the current committed
    /// state as the base checkpoint the log is relative to. From here on
    /// every writing transaction appends redo/undo mementos that are
    /// group-flushed at its commit boundary, and [`Database::recover`]
    /// can rebuild the engine after [`Database::crash`].
    ///
    /// DDL executed after attachment re-bases the checkpoint (see
    /// [`Database::execute_ddl`]), so later-created tables are as durable
    /// as the original physical design.
    pub fn attach_wal(&self) {
        let base = self.checkpoint();
        let disk = WalDisk::new(
            base,
            self.commit_seq.load(Ordering::Relaxed),
            self.next_txn.load(Ordering::Relaxed),
        );
        *self.wal.lock() = Some(disk);
        self.logging.store(true, Ordering::Relaxed);
    }

    /// Snapshot of the `wal.*` / `recovery.*` counters (all zero before
    /// [`Database::attach_wal`]).
    pub fn wal_stats(&self) -> WalStats {
        self.wal_metrics.stats()
    }

    /// Injected bug for the slicheck self-test: when `on`, WAL flushes
    /// silently discard the pending tail while reporting success, so an
    /// acknowledged commit is not durable and a later crash loses it.
    pub fn set_wal_drop_flush(&self, on: bool) {
        if let Some(wal) = self.wal.lock().as_mut() {
            wal.set_drop_flush(on);
        }
    }

    /// Scripts a one-shot crash that fires at `point` inside the next
    /// writing commit (requires an attached WAL).
    pub fn script_crash(&self, point: CrashPoint) {
        *self.scripted_crash.lock() = Some(point);
    }

    /// Whether the engine is currently down (crashed and not yet
    /// recovered).
    pub fn is_crashed(&self) -> bool {
        self.crashed.load(Ordering::Relaxed)
    }

    /// Kills the engine in place: volatile state — tables, indexes, the
    /// lock table and the un-flushed WAL tail — is discarded, and every
    /// subsequent statement, commit or rollback fails with
    /// [`DbError::Unavailable`] until [`Database::recover`] runs.
    /// Existing `Arc` handles and connections stay valid; they simply
    /// observe a dead machine, like clients of a crashed server.
    pub fn crash(&self) {
        self.crashed.store(true, Ordering::Relaxed);
        self.crash_epoch.fetch_add(1, Ordering::Relaxed);
        self.tables.write().clear();
        self.locks.clear();
        if let Some(wal) = self.wal.lock().as_mut() {
            wal.discard_pending();
        }
    }

    /// ARIES-lite restart: reloads the base checkpoint, then reads the
    /// durable log once, in LSN order — redoing every logged op as it
    /// meets it (repeating history) while its commit records pick out the
    /// winners — and undoes the ops no commit record closed, newest first,
    /// from their logged old images. That reconstructs tables, indexes,
    /// the `commit_seq` witness and the committed `(origin, txn_id)`
    /// identities to a prefix-consistent state. Rebuilds in place, so
    /// connections opened before the crash keep working afterwards.
    ///
    /// A successful recovery *re-bases* the log: the recovered image
    /// becomes the new base checkpoint and the replayed records are
    /// truncated (committed stamps carry forward in the base). Without
    /// this, a torn transaction's durable op records would be re-undone
    /// by the next crash's recovery — silently reverting any later
    /// committed write to the same keys.
    ///
    /// # Errors
    /// Fails if no WAL is attached or the durable log is corrupt
    /// (undecodable records, or ops referencing tables absent from the
    /// base checkpoint). On error the engine stays down.
    pub fn recover(&self) -> DbResult<RecoveryReport> {
        let guard = self.wal.lock();
        let wal = guard
            .as_ref()
            .ok_or_else(|| DbError::Remote("recover: no WAL attached".to_owned()))?;
        // Volatile state is gone (crash) or about to be rebuilt; the engine
        // is down until it is, which also keeps the rebuild's DDL from
        // folding the log it is about to read.
        self.crashed.store(true, Ordering::Relaxed);
        self.tables.write().clear();
        self.locks.clear();
        for img in crate::snapshot::decode_checkpoint(wal.base.clone())? {
            self.execute_ddl(&img.table_ddl())?;
            for col in &img.indexes {
                self.execute_ddl(&img.index_ddl(col))?;
            }
            let t = self.table(&img.name)?;
            let mut t = t.write();
            for row in img.rows {
                t.insert_row(row);
            }
        }
        let log = wal.replay(|op| self.redo(op.redo()?))?;
        // Undo, newest first, each op decoded again whole.
        let mut torn: FxHashSet<u64> = FxHashSet::default();
        for &(txn, at) in log.open.iter().rev() {
            self.undo_op(wal.op_at(at)?)?;
            torn.insert(txn);
        }
        let base_next = wal.base_next_txn;
        drop(guard);
        // Restore the witness and the txn-id source past everything the
        // log has seen, then bring the engine back up.
        self.commit_seq.store(log.commit_seq, Ordering::Relaxed);
        let next = self
            .next_txn
            .load(Ordering::Relaxed)
            .max(base_next)
            .max(log.max_txn + 1);
        self.next_txn.store(next, Ordering::Relaxed);
        self.crashed.store(false, Ordering::Relaxed);
        let undo_count = log.open.len() as u64;
        self.wal_metrics.recoveries.inc();
        self.wal_metrics.redone.add(log.ops);
        self.wal_metrics.undone.add(undo_count);
        self.wal_metrics.torn_discarded.add(torn.len() as u64);
        self.rebase_wal(log.stamps.clone());
        Ok(RecoveryReport {
            committed: log.stamps,
            redo_count: log.ops,
            undo_count,
            torn_txns: torn.len() as u64,
            max_lsn: log.max_lsn,
        })
    }

    /// Captures the current committed state as the WAL's new base
    /// checkpoint, truncating the durable records it subsumes. `stamps`
    /// is the full committed `(origin, txn_id)` history the new base
    /// represents. Call between transactions (recovery and DDL both
    /// qualify) so the checkpoint is transaction-consistent.
    fn rebase_wal(&self, stamps: Vec<(u32, u64)>) {
        let base = self.checkpoint();
        let seq = self.commit_seq.load(Ordering::Relaxed);
        let next = self.next_txn.load(Ordering::Relaxed);
        if let Some(wal) = self.wal.lock().as_mut() {
            wal.rebase(base, seq, next, stamps);
        }
    }

    /// The table a log record names. A logged op whose table does not
    /// exist is log corruption (or, on rollback, a broken invariant), never
    /// a no-op — silently skipping it would turn committed writes into
    /// undetectable data loss.
    fn logged_table(&self, name: &str) -> DbResult<Arc<RwLock<Table>>> {
        self.table(name).map_err(|_| {
            DbError::Remote(format!(
                "logged op references table {name}, which does not exist"
            ))
        })
    }

    /// Repeats one logged change: an insert's row or an update's new image
    /// goes where its key's row lies, a delete's old image's key is taken
    /// out. (The SQL layer rejects `SET` on the primary key, so an
    /// update's two images share their key.)
    fn redo(&self, op: Redo) -> DbResult<()> {
        match op {
            Redo::Put { table, row } => {
                self.logged_table(&table)?.write().replace_row(row);
            }
            Redo::Remove { table, old } => {
                self.logged_table(&table)?.write().remove_image(&old);
            }
        }
        Ok(())
    }

    /// Reverses one logged change, putting the old image back. Rollback of
    /// a live transaction and recovery's undo pass both come through here.
    fn undo_op(&self, op: WalOp) -> DbResult<()> {
        match op {
            WalOp::Insert { table, row } => {
                self.logged_table(&table)?.write().remove_image(&row);
            }
            WalOp::Update { table, old, .. } => {
                self.logged_table(&table)?.write().replace_row(old);
            }
            WalOp::Delete { table, old } => {
                self.logged_table(&table)?.write().insert_row(old);
            }
        }
        Ok(())
    }

    /// Attaches the WAL/recovery counters to `registry` as
    /// `{prefix}.wal.*` and `{prefix}.recovery.*`.
    pub fn register_wal_metrics(&self, registry: &Registry, prefix: &str) {
        self.wal_metrics.register_with(registry, prefix);
    }

    fn table(&self, name: &str) -> DbResult<Arc<RwLock<Table>>> {
        self.tables
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| DbError::NoSuchTable(name.to_owned()))
    }

    fn cached_plan(&self, sql: &str) -> DbResult<Arc<CachedPlan>> {
        if let Some(plan) = self.plans.lock().get(sql) {
            self.plan_hits.inc();
            return Ok(plan);
        }
        // Count the miss before parsing so a malformed statement still
        // shows up as a miss — but never grows the cache.
        self.plan_misses.inc();
        let plan = Arc::new(CachedPlan::new(sql, parse(sql)?));
        let evicted = self.plans.lock().insert(sql.to_owned(), Arc::clone(&plan));
        self.plan_evictions.add(evicted);
        Ok(plan)
    }

    pub(crate) fn begin_txn(&self) -> TxnState {
        TxnState {
            id: self.next_txn.fetch_add(1, Ordering::Relaxed),
            log: Vec::new(),
            epoch: self.crash_epoch.load(Ordering::Relaxed),
        }
    }

    fn down(&self, what: &str) -> DbError {
        DbError::Unavailable(format!("database crashed: {what}"))
    }

    /// Whether `txn` predates the last crash (or the engine is down now).
    fn fenced(&self, txn: &TxnState) -> bool {
        self.crashed.load(Ordering::Relaxed)
            || txn.epoch != self.crash_epoch.load(Ordering::Relaxed)
    }

    /// Commits `txn`, group-flushing its log records plus a commit record
    /// (carrying the `commit_seq` witness and the caller's optional
    /// `(origin, txn_id)` `stamp`) to the WAL when one is attached.
    ///
    /// A scripted [`CrashPoint`] fires here, mid-protocol: whichever step
    /// dies, the caller sees [`DbError::Unavailable`] — exactly what a
    /// client of a crashed machine observes, whether or not the commit
    /// reached the durable log.
    ///
    /// # Errors
    /// [`DbError::Unavailable`] if the engine is down, the transaction
    /// predates the last crash, or a scripted crash fires.
    pub(crate) fn commit_txn(&self, txn: TxnState, stamp: Option<(u32, u64)>) -> DbResult<()> {
        if self.fenced(&txn) {
            return Err(self.down("commit fenced"));
        }
        // Read-only transactions leave the witness and the log untouched.
        if !txn.has_writes() {
            self.locks.release_all(txn.id);
            return Ok(());
        }
        let logging = self.logging.load(Ordering::Relaxed);
        let point = if logging {
            self.scripted_crash.lock().take()
        } else {
            None
        };
        if point == Some(CrashPoint::PreFlush) {
            self.crash();
            return Err(self.down("before WAL append: transaction lost"));
        }
        if logging {
            let mut guard = self.wal.lock();
            if let Some(wal) = guard.as_mut() {
                for op in &txn.log {
                    wal.append_op(txn.id, op, &self.wal_metrics);
                }
                if point == Some(CrashPoint::MidApply) {
                    // Torn group commit: the op records reach the platter,
                    // the commit record never does.
                    wal.flush(&self.wal_metrics);
                    drop(guard);
                    self.crash();
                    return Err(self.down("mid-apply: ops flushed, commit record lost"));
                }
            }
        }
        let seq = self.commit_seq.fetch_add(1, Ordering::Relaxed) + 1;
        if logging {
            if let Some(wal) = self.wal.lock().as_mut() {
                wal.append_commit(txn.id, seq, stamp, &self.wal_metrics);
                // Group commit: ops + commit record hit the disk together,
                // once per transaction boundary.
                wal.flush(&self.wal_metrics);
            }
            if point == Some(CrashPoint::PostFlushPreApply) {
                self.crash();
                return Err(self.down("post-flush: durable but unacknowledged"));
            }
        }
        self.locks.release_all(txn.id);
        if point == Some(CrashPoint::PostApplyPreAck) {
            self.crash();
            return Err(self.down("post-apply: acknowledgement lost"));
        }
        Ok(())
    }

    /// Rolls `txn` back by undoing its log newest-first, then releases its
    /// locks.
    ///
    /// # Panics
    /// Panics if a logged table no longer exists: there is no `DROP TABLE`,
    /// and the crash that does wipe the tables fences the transaction.
    pub(crate) fn rollback_txn(&self, mut txn: TxnState) {
        // A transaction fenced by a crash has nothing to undo: the crash
        // already wiped the volatile state its log refers to, and recovery
        // undoes whatever part of it reached the durable log.
        if !self.fenced(&txn) {
            while let Some(op) = txn.log.pop() {
                self.undo_op(op)
                    .expect("a live transaction's tables outlive it");
            }
        }
        self.locks.release_all(txn.id);
    }

    /// Executes one (possibly parameterized) statement inside `txn`. With
    /// `class`, also reports the `{table}.{kind}` class the wire server
    /// labels the statement's `db.stmt` span with (empty when it is not
    /// DML): the plan's, or — for a statement that fails before it has one
    /// — the text's.
    pub(crate) fn execute_in(
        &self,
        txn: &mut TxnState,
        sql: &str,
        params: &[Value],
        class: Option<&mut Option<Arc<str>>>,
    ) -> DbResult<ResultSet> {
        let plan = if self.fenced(txn) {
            Err(self.down("statement rejected"))
        } else {
            self.cached_plan(sql)
        };
        let plan = match plan {
            Ok(plan) => plan,
            Err(e) => {
                if let Some(class) = class {
                    *class = Some(statement_class(sql).into());
                }
                return Err(e);
            }
        };
        if let Some(class) = class {
            *class = Some(Arc::clone(&plan.class));
        }
        if params.len() != plan.param_count {
            return Err(DbError::ParamCount {
                expected: plan.param_count,
                actual: params.len(),
            });
        }
        match &plan.stmt {
            Statement::CreateTable { .. } | Statement::CreateIndex { .. } => {
                Err(DbError::Parse("DDL must go through execute_ddl".to_owned()))
            }
            Statement::Insert {
                table,
                columns,
                values,
            } => self.exec_insert(txn, table, columns, values, params),
            Statement::Select {
                list,
                table,
                predicate,
                order_by,
                limit,
            } => self.exec_select(
                txn,
                list,
                table,
                predicate,
                order_by.as_ref(),
                *limit,
                params,
                &plan,
            ),
            Statement::Update {
                table,
                sets,
                predicate,
            } => self.exec_update(txn, table, sets, predicate, params, &plan),
            Statement::Delete { table, predicate } => {
                self.exec_delete(txn, table, predicate, params, &plan)
            }
        }
    }

    /// Looks `name` up once for a statement, taking pointer copies of the
    /// table's schema and name.
    fn open(&self, name: &str) -> DbResult<OpenTable> {
        let table = self.table(name)?;
        let (schema, name) = {
            let t = table.read();
            (Arc::clone(&t.schema), Arc::clone(&t.name))
        };
        Ok(OpenTable {
            table,
            schema,
            name,
        })
    }

    fn exec_insert(
        &self,
        txn: &mut TxnState,
        table: &str,
        columns: &[String],
        values: &[Scalar],
        params: &[Value],
    ) -> DbResult<ResultSet> {
        let t = self.open(table)?;
        let schema = &*t.schema;
        // Build the full row in schema order; unnamed columns become NULL.
        let mut row = vec![Value::Null; schema.columns().len()];
        for (col, scalar) in columns.iter().zip(values) {
            let ci = schema.column_index(col)?;
            row[ci] = schema.columns()[ci].ty.coerce(scalar.resolve(params)?);
        }
        schema.check_row(&row)?;
        let pk = &row[schema.pk_index()];

        self.locks
            .acquire(txn.id, t.table_lock(), LockMode::IntentExclusive)?;
        self.locks
            .acquire(txn.id, t.row_lock(pk), LockMode::Exclusive)?;

        {
            let mut stored = t.table.write();
            if stored.rows.contains_key(pk) {
                return Err(DbError::DuplicateKey(format!("{table}[{pk}]")));
            }
            txn.log.push(WalOp::Insert {
                table: t.name,
                row: row.clone(),
            });
            stored.insert_row(row);
        }
        self.trace.record(table, OpKind::Create);
        Ok(ResultSet::affected(1))
    }

    /// Plans a predicate: point lookup by primary key, index probe, or
    /// full scan. Returns matching primary keys, acquiring the appropriate
    /// locks. Placeholders are read from `params` in place; the predicate
    /// is never copied.
    ///
    /// The chosen [`AccessPath`] is recorded in `plan` the first time the
    /// statement executes (per DDL epoch) and reused afterwards, so repeat
    /// executions skip the planning probes — the prepared-statement
    /// behaviour the paper's JDBC tier gets from DB2's package cache.
    fn plan_matches(
        &self,
        txn: &mut TxnState,
        t: &OpenTable,
        predicate: &Predicate,
        params: &[Value],
        for_write: bool,
        plan: &CachedPlan,
    ) -> DbResult<Matches> {
        let schema = &*t.schema;
        let row_mode = if for_write {
            LockMode::Exclusive
        } else {
            LockMode::Shared
        };
        let intent_mode = if for_write {
            LockMode::IntentExclusive
        } else {
            LockMode::IntentShared
        };
        let epoch = self.ddl_epoch.load(Ordering::Relaxed);
        let recorded = plan.recorded(epoch);

        // Point lookup by primary key. A recorded non-PK path skips the
        // probe; the predicate's shape is fixed per SQL text, so a recorded
        // `PkPoint` implies the equality is still there.
        if !matches!(
            recorded.as_deref(),
            Some(AccessPath::Index(_)) | Some(AccessPath::Scan)
        ) {
            if let Some(pk) = predicate.equality_on(schema.pk_name(), params) {
                if recorded.is_none() {
                    plan.record(epoch, AccessPath::PkPoint);
                }
                self.locks.acquire(txn.id, t.table_lock(), intent_mode)?;
                self.locks.acquire(txn.id, t.row_lock(pk), row_mode)?;
                let stored = t.table.read();
                return Ok(match stored.rows.get(pk) {
                    Some(row) if predicate.matches(schema, row, params)? => {
                        Matches::One(pk.clone())
                    }
                    _ => Matches::Many(Vec::new()),
                });
            }
        }

        // Secondary-index probe. A recorded `Index` path goes straight to
        // its column; otherwise search the physical design for a usable
        // equality.
        let planned;
        let indexed_col: Option<&str> = match recorded.as_deref() {
            Some(AccessPath::Index(col)) => Some(col),
            Some(_) => None,
            None => {
                planned = t
                    .table
                    .read()
                    .indexes
                    .keys()
                    .find(|col| predicate.equality_on(col, params).is_some())
                    .cloned();
                planned.as_deref()
            }
        };
        if let Some(col) = indexed_col {
            if recorded.is_none() {
                plan.record(epoch, AccessPath::Index(col.to_owned()));
            }
            self.locks.acquire(txn.id, t.table_lock(), intent_mode)?;
            let candidates: Vec<Value> = {
                let stored = t.table.read();
                let key = predicate
                    .equality_on(col, params)
                    .expect("column chosen by equality_on");
                stored
                    .indexes
                    .get(col)
                    .and_then(|index| index.get(key))
                    .map(|pks| pks.iter().cloned().collect())
                    .unwrap_or_default()
            };
            let mut out = Vec::new();
            for pk in candidates {
                self.locks.acquire(txn.id, t.row_lock(&pk), row_mode)?;
                let stored = t.table.read();
                if let Some(row) = stored.rows.get(&pk) {
                    if predicate.matches(schema, row, params)? {
                        out.push(pk);
                    }
                }
            }
            return Ok(Matches::Many(out));
        }

        // Full scan: table-level S (readers) or S+IX→SIX (writers).
        if recorded.is_none() {
            plan.record(epoch, AccessPath::Scan);
        }
        self.locks
            .acquire(txn.id, t.table_lock(), LockMode::Shared)?;
        if for_write {
            self.locks
                .acquire(txn.id, t.table_lock(), LockMode::IntentExclusive)?;
        }
        let stored = t.table.read();
        let mut out = Vec::new();
        for (pk, row) in &stored.rows {
            if predicate.matches(schema, row, params)? {
                out.push(pk.clone());
            }
        }
        if for_write {
            drop(stored);
            for pk in &out {
                self.locks
                    .acquire(txn.id, t.row_lock(pk), LockMode::Exclusive)?;
            }
        }
        Ok(Matches::Many(out))
    }

    #[allow(clippy::too_many_arguments)] // mirrors the SELECT clause list
    fn exec_select(
        &self,
        txn: &mut TxnState,
        list: &SelectList,
        table: &str,
        predicate: &Predicate,
        order_by: Option<&(String, bool)>,
        limit: Option<usize>,
        params: &[Value],
        plan: &CachedPlan,
    ) -> DbResult<ResultSet> {
        // Read before the schema, so a projection recorded under this epoch
        // is never older than it: DDL changes the tables first, the epoch
        // after.
        let epoch = self.ddl_epoch.load(Ordering::Relaxed);
        let t = self.open(table)?;
        let pks = self.plan_matches(txn, &t, predicate, params, false, plan)?;
        let schema = &*t.schema;
        let stored = t.table.read();
        self.trace.record(table, OpKind::Read);

        // Rows are borrowed until the projection: only the cells a result
        // carries are cloned, and without an ORDER BY they are read straight
        // off the match list.
        let limit = limit.unwrap_or(usize::MAX);
        let pks = pks.as_slice();
        let matched = pks
            .iter()
            .filter_map(|pk| stored.rows.get(pk).map(Vec::as_slice));
        let Some((col, desc)) = order_by else {
            return project(
                list,
                schema,
                matched.take(limit),
                pks.len().min(limit),
                plan,
                epoch,
            );
        };
        let ci = schema.column_index(col)?;
        let mut rows: Vec<&[Value]> = matched.collect();
        rows.sort_by(|a, b| {
            let ord = a[ci].cmp(&b[ci]);
            if *desc {
                ord.reverse()
            } else {
                ord
            }
        });
        rows.truncate(limit);
        let bound = rows.len();
        project(list, schema, rows.into_iter(), bound, plan, epoch)
    }

    fn exec_update(
        &self,
        txn: &mut TxnState,
        table: &str,
        sets: &[(String, Scalar)],
        predicate: &Predicate,
        params: &[Value],
        plan: &CachedPlan,
    ) -> DbResult<ResultSet> {
        let t = self.open(table)?;
        let pks = self.plan_matches(txn, &t, predicate, params, true, plan)?;
        let schema = &*t.schema;

        // Pre-resolve assignments.
        let mut assignments = Vec::with_capacity(sets.len());
        for (col, scalar) in sets {
            let ci = schema.column_index(col)?;
            if ci == schema.pk_index() {
                return Err(DbError::TypeMismatch(format!(
                    "cannot update primary key {table}.{col}"
                )));
            }
            let v = schema.columns()[ci].ty.coerce(scalar.resolve(params)?);
            if !schema.columns()[ci].ty.admits(&v) {
                return Err(DbError::TypeMismatch(format!(
                    "column {table}.{col} is {}, got {v}",
                    schema.columns()[ci].ty
                )));
            }
            assignments.push((ci, v));
        }

        let mut affected = 0;
        {
            let mut stored = t.table.write();
            for pk in pks.as_slice() {
                let Some(row) = stored.rows.get(pk) else {
                    continue;
                };
                let mut new = row.clone();
                for (ci, v) in &assignments {
                    new[*ci] = v.clone();
                }
                let old = stored
                    .replace_row(new.clone())
                    .expect("the row was just read");
                txn.log.push(WalOp::Update {
                    table: Arc::clone(&t.name),
                    pk: pk.clone(),
                    old,
                    new,
                });
                affected += 1;
            }
        }
        self.trace.record(table, OpKind::Update);
        Ok(ResultSet::affected(affected))
    }

    fn exec_delete(
        &self,
        txn: &mut TxnState,
        table: &str,
        predicate: &Predicate,
        params: &[Value],
        plan: &CachedPlan,
    ) -> DbResult<ResultSet> {
        let t = self.open(table)?;
        let pks = self.plan_matches(txn, &t, predicate, params, true, plan)?;
        let mut affected = 0;
        {
            let mut stored = t.table.write();
            for pk in pks.as_slice() {
                if let Some(old) = stored.remove_row(pk) {
                    txn.log.push(WalOp::Delete {
                        table: Arc::clone(&t.name),
                        old,
                    });
                    affected += 1;
                }
            }
        }
        self.trace.record(table, OpKind::Delete);
        Ok(ResultSet::affected(affected))
    }
}

/// The primary keys a predicate matched: a point lookup's one key held
/// inline, or the list an index probe or a scan built.
enum Matches {
    One(Value),
    Many(Vec<Value>),
}

impl Matches {
    fn as_slice(&self) -> &[Value] {
        match self {
            Matches::One(pk) => std::slice::from_ref(pk),
            Matches::Many(pks) => pks,
        }
    }
}

/// A statement's handle on its table: the table plus pointer copies of its
/// schema and name, so nothing a statement builds (lock keys, log records)
/// copies the name's bytes or the column list.
struct OpenTable {
    table: Arc<RwLock<Table>>,
    schema: Arc<Schema>,
    name: Arc<str>,
}

impl OpenTable {
    fn table_lock(&self) -> Resource {
        Resource::Table(Arc::clone(&self.name))
    }

    fn row_lock(&self, pk: &Value) -> Resource {
        Resource::Row(Arc::clone(&self.name), pk.clone())
    }
}

/// Builds a SELECT's result from the `rows` it matched (at most `bound` of
/// them), under the projection `plan` records for its list: one vector of
/// cells, sized before it is filled.
fn project<'r>(
    list: &SelectList,
    schema: &Schema,
    rows: impl Iterator<Item = &'r [Value]>,
    bound: usize,
    plan: &CachedPlan,
    epoch: u64,
) -> DbResult<ResultSet> {
    let (name, value) = match list {
        SelectList::Star | SelectList::Columns(_) => {
            let projection = plan.projection(epoch, || match list {
                SelectList::Columns(cols) => Ok(Projection::new(
                    cols.iter().map(String::as_str),
                    cols.iter()
                        .map(|c| schema.column_index(c))
                        .collect::<DbResult<_>>()?,
                )),
                _ => Ok(Projection::new(
                    schema.columns().iter().map(|c| &*c.name),
                    (0..schema.columns().len()).collect(),
                )),
            })?;
            let width = projection.columns.len();
            let mut cells = Vec::with_capacity(width * bound);
            let mut len = 0;
            for row in rows {
                cells.extend(projection.columns.iter().map(|&i| row[i].clone()));
                len += 1;
            }
            return Ok(ResultSet::with_cells(
                projection.header.clone(),
                width,
                len,
                cells,
            ));
        }
        SelectList::CountStar => (None, Value::Int(rows.count() as i64)),
        SelectList::Aggregate(func, column) => {
            let ci = schema.column_index(column)?;
            let values: Vec<&Value> = rows.map(|r| &r[ci]).filter(|v| !v.is_null()).collect();
            let value = match func {
                AggregateFn::Count => Value::Int(values.len() as i64),
                AggregateFn::Min => values
                    .iter()
                    .min()
                    .map(|v| (*v).clone())
                    .unwrap_or(Value::Null),
                AggregateFn::Max => values
                    .iter()
                    .max()
                    .map(|v| (*v).clone())
                    .unwrap_or(Value::Null),
                AggregateFn::Sum | AggregateFn::Avg => sum_or_avg(*func, column, &values)?,
            };
            (Some((func, column)), value)
        }
    };
    // One named value: `count`, or the aggregate as `sum(price)`.
    let projection = plan.projection(epoch, || {
        let name = match name {
            Some((func, column)) => format!("{}({column})", func.name().to_lowercase()),
            None => "count".to_owned(),
        };
        Ok(Projection::new([name.as_str()].into_iter(), Vec::new()))
    })?;
    Ok(ResultSet::with_cells(
        projection.header.clone(),
        1,
        1,
        vec![value],
    ))
}

/// `SUM` / `AVG` over the non-NULL `values` of `column`. Integers are
/// summed exactly and an `INT` result that does not fit `i64` is an error,
/// not a rounded or saturated number; `AVG` and sums that meet a `DOUBLE`
/// are computed in `f64`, in row order.
fn sum_or_avg(func: AggregateFn, column: &str, values: &[&Value]) -> DbResult<Value> {
    if values.is_empty() {
        return Ok(Value::Null);
    }
    let mut exact: i128 = 0;
    let mut float = 0.0;
    let mut all_int = true;
    for v in values {
        match v {
            Value::Int(i) => {
                exact += i128::from(*i);
                float += *i as f64;
            }
            Value::Double(d) => {
                all_int = false;
                float += d;
            }
            other => {
                return Err(DbError::TypeMismatch(format!(
                    "{}({column}) over non-numeric value {other}",
                    func.name()
                )))
            }
        }
    }
    if func == AggregateFn::Avg {
        Ok(Value::Double(float / values.len() as f64))
    } else if all_int {
        i64::try_from(exact)
            .map(Value::Int)
            .map_err(|_| DbError::TypeMismatch(format!("{}({column}) overflows INT", func.name())))
    } else {
        Ok(Value::Double(float))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SqlConnection;

    fn db_with_quotes() -> Arc<Database> {
        let db = Database::new();
        db.execute_ddl("CREATE TABLE quote (symbol VARCHAR PRIMARY KEY, price DOUBLE, volume INT)")
            .unwrap();
        let mut conn = db.connect();
        for i in 0..5 {
            conn.execute(
                "INSERT INTO quote (symbol, price, volume) VALUES (?, ?, ?)",
                &[
                    Value::from(format!("s:{i}")),
                    Value::from(10.0 + i as f64),
                    Value::from(i * 100),
                ],
            )
            .unwrap();
        }
        db
    }

    #[test]
    fn recovery_moves_winners_in_and_undoes_the_torn_transaction() {
        let db = db_with_quotes();
        db.attach_wal();
        let mut conn = db.connect();
        let price = "UPDATE quote SET price = ? WHERE symbol = ?";
        // A winner of two ops, then a transaction of three torn between
        // its op records and its commit record.
        conn.begin().unwrap();
        conn.execute(price, &[Value::from(99.0), Value::from("s:1")])
            .unwrap();
        conn.execute("DELETE FROM quote WHERE symbol = 's:4'", &[])
            .unwrap();
        conn.commit().unwrap();
        let committed = db.checkpoint();
        db.script_crash(CrashPoint::MidApply);
        conn.begin().unwrap();
        conn.execute(price, &[Value::from(1.0), Value::from("s:1")])
            .unwrap();
        conn.execute(price, &[Value::from(2.0), Value::from("s:1")])
            .unwrap();
        conn.execute(
            "INSERT INTO quote (symbol, price, volume) VALUES ('s:9', 9.0, 9)",
            &[],
        )
        .unwrap();
        assert!(conn.commit().is_err());
        let report = db.recover().unwrap();
        assert_eq!(
            (report.redo_count, report.undo_count, report.torn_txns),
            (5, 3, 1)
        );
        assert_eq!(db.checkpoint(), committed);
        let stats = db.wal_stats();
        assert_eq!((stats.redone_ops, stats.undone_ops), (5, 3));
    }

    /// A torn transaction whose op records run past a segment's end — one
    /// of them a record longer than a segment, on one of its own — is
    /// redone and undone whole, its index entries with it.
    #[test]
    fn a_torn_transaction_across_segments_is_undone() {
        let db = db_with_quotes();
        db.execute_ddl("CREATE INDEX quote_volume ON quote (volume)")
            .unwrap();
        db.attach_wal();
        let mut conn = db.connect();
        conn.execute(
            "UPDATE quote SET price = ? WHERE symbol = ?",
            &[Value::from(99.0), Value::from("s:1")],
        )
        .unwrap();
        let committed = db.checkpoint();
        let flushed = db.wal_stats().flushed_bytes;
        db.script_crash(CrashPoint::MidApply);
        conn.begin().unwrap();
        let update = "UPDATE quote SET price = ?, volume = ? WHERE symbol = ?";
        let long = "l".repeat(crate::wal::SEGMENT_BYTES);
        for i in 0..400 {
            if i == 200 {
                conn.execute(
                    "INSERT INTO quote (symbol, price, volume) VALUES (?, 1.0, 7)",
                    &[Value::from(long.as_str())],
                )
                .unwrap();
            }
            let symbol = Value::from(format!("s:{}", i % 5));
            conn.execute(update, &[Value::from(f64::from(i)), Value::from(i), symbol])
                .unwrap();
        }
        assert!(conn.commit().is_err());
        let torn = db.wal_stats().flushed_bytes - flushed;
        assert!(torn > crate::wal::SEGMENT_BYTES as u64, "{torn} bytes");
        let report = db.recover().unwrap();
        assert_eq!(
            (report.redo_count, report.undo_count, report.torn_txns),
            (402, 401, 1)
        );
        assert_eq!(db.checkpoint(), committed);
        let mut symbols = |volume: i64| -> Vec<Value> {
            let sql = "SELECT symbol FROM quote WHERE volume = ?";
            let rs = conn.execute(sql, &[Value::from(volume)]).unwrap();
            rs.rows().iter().map(|r| r[0].clone()).collect()
        };
        assert_eq!(symbols(100), [Value::from("s:1")]);
        assert!(symbols(7).is_empty() && symbols(399).is_empty());
    }

    /// `replace_row` moves a key between index entries only when the
    /// indexed column changes, drops an entry it empties, and inserts a
    /// row whose key it does not find.
    #[test]
    fn replace_row_keeps_the_index_whether_or_not_its_column_changes() {
        let db = Database::new();
        db.execute_ddl("CREATE TABLE h (id INT PRIMARY KEY, owner VARCHAR, qty INT)")
            .unwrap();
        db.execute_ddl("CREATE INDEX h_owner ON h (owner)").unwrap();
        let row = |id: i64, owner: &str, qty: i64| {
            vec![Value::from(id), Value::from(owner), Value::from(qty)]
        };
        let t = db.table("h").unwrap();
        let mut t = t.write();
        t.insert_row(row(1, "a", 1));
        t.insert_row(row(2, "a", 2));
        let index = |t: &Table| -> Vec<(String, Vec<i64>)> {
            t.indexes["owner"]
                .iter()
                .map(|(owner, pks)| {
                    let owner = owner.as_str().unwrap().to_owned();
                    (owner, pks.iter().map(|pk| pk.as_int().unwrap()).collect())
                })
                .collect()
        };
        let entry = |owner: &str, pks: &[i64]| (owner.to_owned(), pks.to_vec());

        assert_eq!(t.replace_row(row(1, "a", 5)), Some(row(1, "a", 1)));
        assert_eq!(index(&t), [entry("a", &[1, 2])]);
        assert_eq!(t.replace_row(row(1, "b", 5)), Some(row(1, "a", 5)));
        assert_eq!(index(&t), [entry("a", &[2]), entry("b", &[1])]);
        assert_eq!(t.replace_row(row(2, "b", 2)), Some(row(2, "a", 2)));
        assert_eq!(index(&t), [entry("b", &[1, 2])]);
        assert_eq!(t.replace_row(row(3, "c", 0)), None);
        assert_eq!(index(&t), [entry("b", &[1, 2]), entry("c", &[3])]);
        let rows: Vec<_> = t.rows.values().cloned().collect();
        assert_eq!(rows, [row(1, "b", 5), row(2, "b", 2), row(3, "c", 0)]);
    }

    #[test]
    fn create_table_twice_fails() {
        let db = Database::new();
        db.execute_ddl("CREATE TABLE t (a INT PRIMARY KEY)")
            .unwrap();
        assert!(matches!(
            db.execute_ddl("CREATE TABLE t (a INT PRIMARY KEY)"),
            Err(DbError::AlreadyExists(_))
        ));
    }

    #[test]
    fn insert_select_round_trip() {
        let db = db_with_quotes();
        let mut conn = db.connect();
        let rs = conn
            .execute(
                "SELECT price FROM quote WHERE symbol = ?",
                &[Value::from("s:3")],
            )
            .unwrap();
        assert_eq!(rs.rows()[0][0], Value::from(13.0));
    }

    #[test]
    fn duplicate_pk_rejected() {
        let db = db_with_quotes();
        let mut conn = db.connect();
        let err = conn
            .execute(
                "INSERT INTO quote (symbol, price, volume) VALUES (?, 1.0, 1)",
                &[Value::from("s:3")],
            )
            .unwrap_err();
        assert!(matches!(err, DbError::DuplicateKey(_)));
    }

    #[test]
    fn update_and_delete() {
        let db = db_with_quotes();
        let mut conn = db.connect();
        let rs = conn
            .execute(
                "UPDATE quote SET price = ? WHERE symbol = ?",
                &[Value::from(99.0), Value::from("s:1")],
            )
            .unwrap();
        assert_eq!(rs.affected_rows(), 1);
        let rs = conn
            .execute("SELECT price FROM quote WHERE symbol = 's:1'", &[])
            .unwrap();
        assert_eq!(rs.rows()[0][0], Value::from(99.0));

        let rs = conn
            .execute("DELETE FROM quote WHERE symbol = 's:1'", &[])
            .unwrap();
        assert_eq!(rs.affected_rows(), 1);
        assert_eq!(db.row_count("quote").unwrap(), 4);
    }

    #[test]
    fn scan_with_order_and_limit() {
        let db = db_with_quotes();
        let mut conn = db.connect();
        let rs = conn
            .execute(
                "SELECT symbol FROM quote WHERE price > 10.5 ORDER BY price DESC LIMIT 2",
                &[],
            )
            .unwrap();
        assert_eq!(rs.len(), 2);
        assert_eq!(rs.rows()[0][0], Value::from("s:4"));
        assert_eq!(rs.rows()[1][0], Value::from("s:3"));
    }

    #[test]
    fn count_star() {
        let db = db_with_quotes();
        let mut conn = db.connect();
        let rs = conn.execute("SELECT COUNT(*) FROM quote", &[]).unwrap();
        assert_eq!(rs.scalar(), Some(&Value::from(5)));
    }

    #[test]
    fn aggregates_over_numeric_columns() {
        let db = db_with_quotes(); // prices 10..14, volumes 0,100..400
        let mut conn = db.connect();
        let rs = conn.execute("SELECT SUM(price) FROM quote", &[]).unwrap();
        assert_eq!(rs.scalar(), Some(&Value::from(60.0)));
        let rs = conn.execute("SELECT MIN(price) FROM quote", &[]).unwrap();
        assert_eq!(rs.scalar(), Some(&Value::from(10.0)));
        let rs = conn.execute("SELECT MAX(volume) FROM quote", &[]).unwrap();
        assert_eq!(rs.scalar(), Some(&Value::from(400)));
        let rs = conn.execute("SELECT AVG(price) FROM quote", &[]).unwrap();
        assert_eq!(rs.scalar(), Some(&Value::from(12.0)));
        // integer SUM stays integral
        let rs = conn.execute("SELECT SUM(volume) FROM quote", &[]).unwrap();
        assert_eq!(rs.scalar(), Some(&Value::from(1_000)));
    }

    #[test]
    fn aggregates_respect_predicates_and_nulls() {
        let db = db_with_quotes();
        let mut conn = db.connect();
        let rs = conn
            .execute("SELECT SUM(price) FROM quote WHERE price >= 12.0", &[])
            .unwrap();
        assert_eq!(rs.scalar(), Some(&Value::from(39.0)));
        // empty input: SUM/MIN/MAX/AVG are NULL, COUNT(col) is 0
        let rs = conn
            .execute("SELECT SUM(price) FROM quote WHERE price > 999.0", &[])
            .unwrap();
        assert!(rs.scalar().unwrap().is_null());
        let rs = conn
            .execute("SELECT COUNT(price) FROM quote WHERE price > 999.0", &[])
            .unwrap();
        assert_eq!(rs.scalar(), Some(&Value::from(0)));
        // NULLs are skipped by COUNT(col)
        db.execute_ddl("CREATE TABLE t (a INT PRIMARY KEY, b INT)")
            .unwrap();
        conn.execute("INSERT INTO t (a, b) VALUES (1, 5)", &[])
            .unwrap();
        conn.execute("INSERT INTO t (a) VALUES (2)", &[]).unwrap();
        let rs = conn.execute("SELECT COUNT(b) FROM t", &[]).unwrap();
        assert_eq!(rs.scalar(), Some(&Value::from(1)));
        let rs = conn.execute("SELECT SUM(b) FROM t", &[]).unwrap();
        assert_eq!(rs.scalar(), Some(&Value::from(5)));
    }

    #[test]
    fn integer_sum_is_exact_and_overflow_is_an_error() {
        let db = Database::new();
        db.execute_ddl("CREATE TABLE t (a INT PRIMARY KEY, n INT, x DOUBLE)")
            .unwrap();
        let mut conn = db.connect();
        let insert = "INSERT INTO t (a, n, x) VALUES (?, ?, ?)";
        // 2^53 + 1 is the first integer an f64 accumulator rounds.
        let big = (1i64 << 53) + 1;
        conn.execute(insert, &[1.into(), big.into(), 1.5.into()])
            .unwrap();
        conn.execute(insert, &[2.into(), 0.into(), 2.into()])
            .unwrap();
        let rs = conn.execute("SELECT SUM(n) FROM t", &[]).unwrap();
        assert_eq!(rs.scalar(), Some(&Value::Int(big)));
        // AVG stays a DOUBLE, and a DOUBLE column (the 2 was widened on
        // insert) sums in f64, as before.
        let rs = conn.execute("SELECT AVG(n) FROM t", &[]).unwrap();
        assert_eq!(rs.scalar(), Some(&Value::Double(big as f64 / 2.0)));
        let rs = conn.execute("SELECT SUM(x) FROM t", &[]).unwrap();
        assert_eq!(rs.scalar(), Some(&Value::Double(3.5)));

        // Past i64 the sum is an error naming the aggregate, not a
        // saturated or wrapped number…
        conn.execute(insert, &[3.into(), i64::MAX.into(), 0.5.into()])
            .unwrap();
        match conn.execute("SELECT SUM(n) FROM t", &[]) {
            Err(DbError::TypeMismatch(m)) => assert_eq!(m, "SUM(n) overflows INT"),
            other => panic!("expected an overflow error, got {other:?}"),
        }
        // …while AVG of the same rows is still a DOUBLE, and negatives
        // bring an intermediate overflow back into range.
        assert!(conn.execute("SELECT AVG(n) FROM t", &[]).is_ok());
        conn.execute(insert, &[4.into(), i64::MIN.into(), 0.5.into()])
            .unwrap();
        let rs = conn.execute("SELECT SUM(n) FROM t", &[]).unwrap();
        assert_eq!(rs.scalar(), Some(&Value::Int(big - 1)));
    }

    #[test]
    fn aggregate_over_strings_sum_is_error_min_is_fine() {
        let db = db_with_quotes();
        let mut conn = db.connect();
        assert!(matches!(
            conn.execute("SELECT SUM(symbol) FROM quote", &[]),
            Err(DbError::TypeMismatch(_))
        ));
        let rs = conn.execute("SELECT MIN(symbol) FROM quote", &[]).unwrap();
        assert_eq!(rs.scalar(), Some(&Value::from("s:0")));
        assert!(matches!(
            conn.execute("SELECT SUM(ghost) FROM quote", &[]),
            Err(DbError::NoSuchColumn(_))
        ));
        assert!(conn.execute("SELECT SUM(*) FROM quote", &[]).is_err());
    }

    #[test]
    fn secondary_index_probe() {
        let db = Database::new();
        db.execute_ddl("CREATE TABLE holding (id INT PRIMARY KEY, owner VARCHAR, qty DOUBLE)")
            .unwrap();
        db.execute_ddl("CREATE INDEX h_owner ON holding (owner)")
            .unwrap();
        let mut conn = db.connect();
        for i in 0..10 {
            conn.execute(
                "INSERT INTO holding (id, owner, qty) VALUES (?, ?, ?)",
                &[
                    Value::from(i),
                    Value::from(format!("uid:{}", i % 3)),
                    Value::from(10.0),
                ],
            )
            .unwrap();
        }
        let rs = conn
            .execute(
                "SELECT id FROM holding WHERE owner = ?",
                &[Value::from("uid:1")],
            )
            .unwrap();
        let mut ids: Vec<i64> = rs.rows().iter().map(|r| r[0].as_int().unwrap()).collect();
        ids.sort();
        assert_eq!(ids, vec![1, 4, 7]);
        // index stays correct after delete
        conn.execute("DELETE FROM holding WHERE id = 4", &[])
            .unwrap();
        let rs = conn
            .execute(
                "SELECT id FROM holding WHERE owner = ?",
                &[Value::from("uid:1")],
            )
            .unwrap();
        assert_eq!(rs.len(), 2);
    }

    #[test]
    fn rollback_undoes_everything() {
        let db = db_with_quotes();
        let mut conn = db.connect();
        conn.begin().unwrap();
        conn.execute(
            "INSERT INTO quote (symbol, price, volume) VALUES ('s:new', 1.0, 1)",
            &[],
        )
        .unwrap();
        conn.execute("UPDATE quote SET price = 0.0 WHERE symbol = 's:2'", &[])
            .unwrap();
        conn.execute("DELETE FROM quote WHERE symbol = 's:0'", &[])
            .unwrap();
        conn.rollback().unwrap();

        assert_eq!(db.row_count("quote").unwrap(), 5);
        let mut conn = db.connect();
        let rs = conn
            .execute("SELECT price FROM quote WHERE symbol = 's:2'", &[])
            .unwrap();
        assert_eq!(rs.rows()[0][0], Value::from(12.0));
        let rs = conn
            .execute("SELECT symbol FROM quote WHERE symbol = 's:0'", &[])
            .unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(db.lock_manager().lock_count(), 0);
    }

    #[test]
    fn rollback_restores_indexes() {
        let db = Database::new();
        db.execute_ddl("CREATE TABLE h (id INT PRIMARY KEY, owner VARCHAR)")
            .unwrap();
        db.execute_ddl("CREATE INDEX h_owner ON h (owner)").unwrap();
        let mut conn = db.connect();
        conn.execute("INSERT INTO h (id, owner) VALUES (1, 'a')", &[])
            .unwrap();
        conn.begin().unwrap();
        conn.execute("UPDATE h SET owner = 'b' WHERE id = 1", &[])
            .unwrap();
        conn.rollback().unwrap();
        let rs = conn
            .execute("SELECT id FROM h WHERE owner = 'a'", &[])
            .unwrap();
        assert_eq!(rs.len(), 1);
        let rs = conn
            .execute("SELECT id FROM h WHERE owner = 'b'", &[])
            .unwrap();
        assert_eq!(rs.len(), 0);
    }

    #[test]
    fn update_pk_is_rejected() {
        let db = db_with_quotes();
        let mut conn = db.connect();
        assert!(matches!(
            conn.execute("UPDATE quote SET symbol = 'x' WHERE symbol = 's:0'", &[]),
            Err(DbError::TypeMismatch(_))
        ));
    }

    #[test]
    fn param_count_is_checked() {
        let db = db_with_quotes();
        let mut conn = db.connect();
        assert!(matches!(
            conn.execute("SELECT * FROM quote WHERE symbol = ?", &[]),
            Err(DbError::ParamCount { .. })
        ));
        assert!(matches!(
            conn.execute("SELECT * FROM quote", &[Value::from(1)]),
            Err(DbError::ParamCount { .. })
        ));
    }

    #[test]
    fn missing_insert_columns_default_to_null() {
        let db = Database::new();
        db.execute_ddl("CREATE TABLE t (a INT PRIMARY KEY, b VARCHAR)")
            .unwrap();
        let mut conn = db.connect();
        conn.execute("INSERT INTO t (a) VALUES (1)", &[]).unwrap();
        let rs = conn.execute("SELECT b FROM t WHERE a = 1", &[]).unwrap();
        assert!(rs.rows()[0][0].is_null());
        // but the pk itself may not be omitted
        assert!(conn.execute("INSERT INTO t (b) VALUES ('x')", &[]).is_err());
    }

    #[test]
    fn ddl_through_dml_path_is_rejected() {
        let db = Database::new();
        let mut conn = db.connect();
        assert!(conn
            .execute("CREATE TABLE t (a INT PRIMARY KEY)", &[])
            .is_err());
    }

    #[test]
    fn trace_counts_statements() {
        let db = db_with_quotes();
        db.reset_trace();
        let mut conn = db.connect();
        conn.execute("SELECT * FROM quote WHERE symbol = 's:0'", &[])
            .unwrap();
        conn.execute("UPDATE quote SET price = 1.0 WHERE symbol = 's:0'", &[])
            .unwrap();
        let snap = db.trace_snapshot();
        assert_eq!(snap.table("quote").reads, 1);
        assert_eq!(snap.table("quote").updates, 1);
        assert_eq!(snap.statements, 2);
    }

    #[test]
    fn no_such_table_and_column() {
        let db = Database::new();
        let mut conn = db.connect();
        assert!(matches!(
            conn.execute("SELECT * FROM ghost", &[]),
            Err(DbError::NoSuchTable(_))
        ));
        db.execute_ddl("CREATE TABLE t (a INT PRIMARY KEY)")
            .unwrap();
        assert!(matches!(
            conn.execute("SELECT ghost FROM t", &[]),
            Err(DbError::NoSuchColumn(_))
        ));
    }

    #[test]
    fn schema_of_and_table_names() {
        let db = db_with_quotes();
        assert_eq!(db.table_names(), vec!["quote".to_owned()]);
        let schema = db.schema_of("quote").unwrap();
        assert_eq!(schema.pk_name(), "symbol");
        assert!(db.schema_of("ghost").is_none());
    }

    #[test]
    fn plan_cache_counts_hits_and_misses() {
        let db = db_with_quotes();
        let before = db.plan_cache_stats();
        let mut conn = db.connect();
        let sql = "SELECT price FROM quote WHERE symbol = ?";
        conn.execute(sql, &[Value::from("s:1")]).unwrap();
        conn.execute(sql, &[Value::from("s:2")]).unwrap();
        conn.execute(sql, &[Value::from("s:3")]).unwrap();
        let after = db.plan_cache_stats();
        assert_eq!(after.misses - before.misses, 1);
        assert_eq!(after.hits - before.hits, 2);
        // A parse error counts as a miss but never grows the cache.
        assert!(conn.execute("SELEKT nope", &[]).is_err());
        let bad = db.plan_cache_stats();
        assert_eq!(bad.misses - after.misses, 1);
        assert_eq!(bad.entries, after.entries);
    }

    #[test]
    fn plan_cache_evicts_least_recently_used_past_cap() {
        let db = Database::with_plan_cache_capacity(2);
        db.execute_ddl("CREATE TABLE t (a INT PRIMARY KEY)")
            .unwrap();
        let mut conn = db.connect();
        conn.execute("SELECT a FROM t WHERE a = 1", &[]).unwrap();
        conn.execute("SELECT a FROM t WHERE a = 2", &[]).unwrap();
        // Touch the first so the second is the LRU victim.
        conn.execute("SELECT a FROM t WHERE a = 1", &[]).unwrap();
        conn.execute("SELECT a FROM t WHERE a = 3", &[]).unwrap();
        let stats = db.plan_cache_stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 2);
        assert!(db.plan_access("SELECT a FROM t WHERE a = 1").is_some());
        assert!(db.plan_access("SELECT a FROM t WHERE a = 2").is_none());
        // Re-running the evicted statement re-parses: a miss, not a hit.
        let before = db.plan_cache_stats();
        conn.execute("SELECT a FROM t WHERE a = 2", &[]).unwrap();
        assert_eq!(db.plan_cache_stats().misses - before.misses, 1);
    }

    #[test]
    fn plans_record_their_access_path() {
        let db = Database::new();
        db.execute_ddl("CREATE TABLE h (id INT PRIMARY KEY, owner VARCHAR, qty INT)")
            .unwrap();
        db.execute_ddl("CREATE INDEX h_owner ON h (owner)").unwrap();
        let mut conn = db.connect();
        conn.execute("INSERT INTO h (id, owner, qty) VALUES (1, 'a', 5)", &[])
            .unwrap();
        let by_pk = "SELECT qty FROM h WHERE id = ?";
        let by_index = "SELECT qty FROM h WHERE owner = ?";
        let by_scan = "SELECT id FROM h WHERE qty > ?";
        conn.execute(by_pk, &[Value::from(1)]).unwrap();
        conn.execute(by_index, &[Value::from("a")]).unwrap();
        conn.execute(by_scan, &[Value::from(0)]).unwrap();
        assert_eq!(db.plan_access(by_pk), Some(AccessPath::PkPoint));
        assert_eq!(
            db.plan_access(by_index),
            Some(AccessPath::Index("owner".to_owned()))
        );
        assert_eq!(db.plan_access(by_scan), Some(AccessPath::Scan));
        assert_eq!(AccessPath::Index("owner".to_owned()).label(), "index:owner");
    }

    #[test]
    fn ddl_invalidates_recorded_paths_so_scans_upgrade_to_index_probes() {
        let db = Database::new();
        db.execute_ddl("CREATE TABLE h (id INT PRIMARY KEY, owner VARCHAR)")
            .unwrap();
        let mut conn = db.connect();
        conn.execute("INSERT INTO h (id, owner) VALUES (1, 'a')", &[])
            .unwrap();
        let sql = "SELECT id FROM h WHERE owner = ?";
        conn.execute(sql, &[Value::from("a")]).unwrap();
        assert_eq!(db.plan_access(sql), Some(AccessPath::Scan));
        db.execute_ddl("CREATE INDEX h_owner ON h (owner)").unwrap();
        // The stale scan plan is invisible until the statement replans…
        assert_eq!(db.plan_access(sql), None);
        // …and the next execution picks up the new index.
        conn.execute(sql, &[Value::from("a")]).unwrap();
        assert_eq!(
            db.plan_access(sql),
            Some(AccessPath::Index("owner".to_owned()))
        );
    }

    #[test]
    fn a_cached_result_header_names_the_columns_across_ddl() {
        let db = Database::new();
        db.execute_ddl("CREATE TABLE h (id INT PRIMARY KEY, owner VARCHAR)")
            .unwrap();
        let mut conn = db.connect();
        conn.execute("INSERT INTO h (id, owner) VALUES (1, 'a')", &[])
            .unwrap();
        let names = |rs: &ResultSet| rs.columns().map(str::to_owned).collect::<Vec<_>>();
        let (star, named) = ("SELECT * FROM h", "SELECT owner, id FROM h WHERE id = 1");
        // The first execution encodes the header, the second shares it; the
        // epoch bump drops it with the access path, and the next execution
        // encodes it again.
        for ddl in [None, Some("CREATE INDEX h_owner ON h (owner)")] {
            if let Some(ddl) = ddl {
                db.execute_ddl(ddl).unwrap();
            }
            for _ in 0..2 {
                let rs = conn.execute(star, &[]).unwrap();
                assert_eq!(names(&rs), ["id", "owner"]);
                assert_eq!(rs.value(0, "owner"), Some(&Value::from("a")));
                let rs = conn.execute(named, &[]).unwrap();
                assert_eq!(names(&rs), ["owner", "id"]);
                assert_eq!(rs.value(0, "id"), Some(&Value::from(1)));
            }
        }
        // Results that carry no projection name no columns.
        let rs = conn.execute("DELETE FROM h WHERE id = 1", &[]).unwrap();
        assert_eq!(rs.columns().count(), 0);
        let rs = conn.execute("SELECT COUNT(*) FROM h", &[]).unwrap();
        assert_eq!(names(&rs), ["count"]);
    }

    #[test]
    fn autocommit_failure_releases_locks() {
        let db = db_with_quotes();
        let mut conn = db.connect();
        let _ = conn.execute(
            "INSERT INTO quote (symbol, price, volume) VALUES ('s:0', 0.0, 0)",
            &[],
        );
        // Duplicate key error above must not leak its row lock.
        assert_eq!(db.lock_manager().lock_count(), 0);
    }
}
