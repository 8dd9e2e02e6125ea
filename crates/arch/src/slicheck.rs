//! `slicheck` — the schedule-exploring consistency checker.
//!
//! A run builds the [`DataTier`] of one architecture × flavor combination
//! — the assembly the figures measure, here with a seeded bank of accounts
//! in place of Trade — puts N logical clients on it, each running a
//! deterministic program of transfers and audits, then executes them one
//! *atomic step* at a time. Every fetch, statement and commit crosses the
//! edge's shared path to the database server or the back-end and costs
//! virtual time, exactly as under a [`Testbed`](crate::Testbed). The only
//! nondeterminism in the single-threaded simulation is which ready
//! participant fires next, and a [`Scheduler`] makes that choice — seeded
//! random walks for exploration, verbatim replay for reproduction and
//! shrinking.
//!
//! For the cached (optimistic) flavors a client transaction is split into
//! its natural atomic phases — read, read, buffer writes, commit — so
//! schedules genuinely interleave the OCC protocol. For the pessimistic
//! JDBC and vanilla-EJB flavors a transaction is one atomic step (the
//! lock-coupled connection admits no finer interleaving), which still
//! exercises the checker's no-false-positive property on serial histories.
//! In the split-servers architecture, pending cache invalidations are
//! themselves schedulable steps, so the checker explores the staleness
//! window between a commit and its invalidation fan-out: a delivery picked
//! before its messages have crossed the invalidation channel first
//! advances the clock to their arrival. A back-end crash and its restart
//! are steps too, taken through [`DataTier::crash`] and
//! [`DataTier::restart`].
//!
//! Every run records a complete operation history, checked post-hoc by
//! [`analyze`](crate::analyze) plus harness-side invariants (money
//! conservation across all transfers, no aborted write leaking into a
//! [`CommonStore`], invalidation completeness after a full drain). On
//! violation, [`shrink_schedule`] bisects the recorded schedule down to a
//! minimal failing prefix and [`counterexample_json`] exports the whole
//! story as a validated document.

use std::sync::Arc;

use sli_component::{
    share_connection, BmpHome, Container, EjbError, EntityMeta, Home, JdbcResourceManager, Memento,
    ResourceManager, TxContext,
};
use sli_core::{memento_digest, MetaRegistry, SliHome, SliResourceManager};
use sli_datastore::{ColumnType, Database, SqlConnection, Value};
use sli_simnet::{splitmix, Clock, CrashKind, FaultPlan, ScheduleStep, Scheduler};
use sli_telemetry::{
    history_json, HistoryEvent, HistoryImage, HistoryLog, Json, COUNTEREXAMPLE_SCHEMA,
};

use crate::checker::{analyze, HistoryAnalysis, Violation};
use crate::tier::DataTier;
use crate::topology::{Architecture, Flavor};

/// Stable CLI keys for the seven architecture × flavor combinations (the
/// key column of [`Architecture::ALL`]).
pub const ARCH_KEYS: [&str; 7] = {
    let mut keys = [""; 7];
    let mut i = 0;
    while i < keys.len() {
        keys[i] = Architecture::ALL[i].1;
        i += 1;
    }
    keys
};

/// The CLI key for `arch`.
pub fn arch_key(arch: Architecture) -> &'static str {
    let row = Architecture::ALL.iter().find(|(a, _)| *a == arch);
    row.expect("Architecture::ALL lists every combination").1
}

/// Resolves a CLI key back to its architecture.
pub fn arch_by_key(key: &str) -> Option<Architecture> {
    let row = Architecture::ALL.iter().find(|(_, k)| *k == key);
    row.map(|(arch, _)| *arch)
}

/// Starting balance of every seeded account.
const INITIAL_BALANCE: f64 = 128.0;

/// One `slicheck` run's parameters. The seed determines both the client
/// programs and (for [`ScheduleSource::Random`]) the schedule walk.
#[derive(Debug, Clone)]
pub struct SliCheckConfig {
    /// Architecture × flavor combination under test.
    pub arch: Architecture,
    /// Seed for program generation and the default random walk.
    pub seed: u64,
    /// Number of concurrent logical clients.
    pub clients: u32,
    /// Number of bank accounts (min 2).
    pub accounts: u32,
    /// Transactions each client attempts.
    pub txns_per_client: u32,
    /// Retries after an optimistic conflict or transport error.
    pub max_retries: u32,
    /// Fault plan dialled into the edge↔back-end request path. ES/RBES
    /// only: the other six combinations ignore it, because a fault inside
    /// their coarse transactions leaves an outcome the client programs
    /// cannot yet account for.
    pub faults: FaultPlan,
    /// Seed the deliberate lost-update bug in the committer (cached
    /// flavors only) — the checker must then find a violation.
    pub inject_bug: bool,
    /// Number of backend crash/restart cycles the scheduler may interleave
    /// with the clients. Each cycle is two schedulable steps — a kill
    /// (volatile state gone, WAL tail discarded) and a restart (ARIES-lite
    /// replay + dedup reseed) — so the exact position of a crash in the
    /// interleaving is explored and replayed like any other choice.
    pub crashes: u32,
    /// Seed the deliberate torn-commit bug: the WAL reports group-commit
    /// flushes as durable but drops them, so a crash loses acknowledged
    /// transactions and the checker must find a `lost-committed-write`
    /// violation. Only meaningful with `crashes > 0`.
    pub inject_wal_bug: bool,
}

impl SliCheckConfig {
    /// Defaults sized for exploration: 3 clients × 3 transactions over 2
    /// accounts, fault-free, bug-free.
    pub fn new(arch: Architecture, seed: u64) -> SliCheckConfig {
        SliCheckConfig {
            arch,
            seed,
            clients: 3,
            accounts: 2,
            txns_per_client: 3,
            max_retries: 4,
            faults: FaultPlan::NONE,
            inject_bug: false,
            crashes: 0,
            inject_wal_bug: false,
        }
    }
}

/// Where the schedule comes from.
#[derive(Debug, Clone)]
pub enum ScheduleSource {
    /// A seeded random walk.
    Random(u64),
    /// Verbatim replay of a recorded choice script; past its end the
    /// scheduler completes sequentially (always picks 0).
    Replay(Vec<u32>),
}

/// Everything one run produced.
#[derive(Debug, Clone)]
pub struct SliCheckOutcome {
    /// The full schedule taken, with per-step branching factors.
    pub schedule: Vec<ScheduleStep>,
    /// The recorded operation history.
    pub history: Vec<HistoryEvent>,
    /// All invariant violations (empty = the run checks out).
    pub violations: Vec<Violation>,
    /// Atomic steps executed.
    pub steps: u64,
    /// Committed transactions.
    pub committed: usize,
    /// Aborted (conflicted / errored) transactions.
    pub aborted: usize,
    /// WAL/recovery counters at run end. Two replays of the same crash
    /// schedule must produce identical values — the determinism pin.
    pub wal: sli_datastore::WalStats,
    /// Checkpoint of the database's final committed state, byte-for-byte.
    /// Replaying the same schedule must reproduce it exactly.
    pub final_state: Vec<u8>,
}

/// The deterministic client program: every writer is a transfer, so the
/// total balance is invariant even when a faulted commit's outcome is
/// unknown to the client (the Jepsen bank-workload trick).
#[derive(Debug, Clone, Copy)]
enum Op {
    Transfer { from: u32, to: u32, amount: f64 },
    Audit { a: u32, b: u32 },
}

fn program_for(cfg: &SliCheckConfig, client: u32) -> Vec<Op> {
    let n = u64::from(cfg.accounts.max(2));
    (0..cfg.txns_per_client)
        .map(|t| {
            let r = splitmix(cfg.seed, (u64::from(client) << 32) | u64::from(t));
            if r.is_multiple_of(4) {
                Op::Audit {
                    a: ((r >> 8) % n) as u32,
                    b: ((r >> 16) % n) as u32,
                }
            } else {
                let from = ((r >> 8) % n) as u32;
                let mut to = ((r >> 16) % n) as u32;
                if to == from {
                    to = (to + 1) % n as u32;
                }
                Op::Transfer {
                    from,
                    to,
                    amount: 1.0 + ((r >> 24) % 16) as f64,
                }
            }
        })
        .collect()
}

fn account_meta() -> EntityMeta {
    EntityMeta::new("Account", "account", "userid", ColumnType::Varchar)
        .field("balance", ColumnType::Double)
}

fn registry() -> MetaRegistry {
    MetaRegistry::new().with(account_meta())
}

fn acct(i: u32) -> Value {
    Value::from(format!("acct{i}"))
}

fn balance_digest(key: &Value, balance: f64) -> u64 {
    memento_digest(&Memento::new("Account", key.clone()).with_field("balance", balance))
}

/// How a client talks to the system.
enum Access {
    /// Optimistic SLI edge: phased transactions through a cached home.
    Fine {
        home: Arc<dyn Home>,
        rm: Arc<SliResourceManager>,
    },
    /// Hand-written SQL on a pessimistic connection: one step per txn.
    Jdbc { conn: Box<dyn SqlConnection + Send> },
    /// Vanilla BMP beans behind the pessimistic JDBC RM: one step per txn.
    Vanilla { container: Container },
}

/// One logical client: a program cursor plus per-attempt state.
struct ClientState {
    id: u32,
    access: Access,
    program: Vec<Op>,
    txn: usize,
    attempts: u32,
    phase: u8,
    ctx: Option<TxContext>,
    staged: Vec<f64>,
    op_seq: u64,
    coarse_txn_seq: u64,
    log: Arc<HistoryLog>,
    clock: Arc<Clock>,
    db: Arc<Database>,
    max_retries: u32,
}

impl ClientState {
    fn done(&self) -> bool {
        self.txn >= self.program.len()
    }

    fn now(&self) -> u64 {
        self.clock.now().as_micros()
    }

    fn invoke(&mut self, op: &str, key: &str) -> u64 {
        self.op_seq += 1;
        let op_id = self.op_seq;
        self.log.record(HistoryEvent::Invoke {
            client: self.id,
            op_id,
            op: op.to_owned(),
            bean: "Account".to_owned(),
            key: key.to_owned(),
            t_us: self.now(),
        });
        op_id
    }

    fn ret(&mut self, op_id: u64, outcome: &str, value: Option<String>) {
        self.log.record(HistoryEvent::Return {
            client: self.id,
            op_id,
            outcome: outcome.to_owned(),
            value,
            t_us: self.now(),
        });
    }

    fn next_txn(&mut self) {
        self.txn += 1;
        self.attempts = 0;
        self.phase = 0;
        self.staged.clear();
        self.ctx = None;
    }

    fn retry_or_next(&mut self) {
        self.attempts += 1;
        self.phase = 0;
        self.staged.clear();
        self.ctx = None;
        if self.attempts > self.max_retries {
            self.next_txn();
        }
    }

    /// Aborts the in-flight attempt after a failed read/write phase.
    fn fail_attempt(&mut self) {
        if let Some(mut ctx) = self.ctx.take() {
            if let Access::Fine { rm, .. } = &self.access {
                let _ = rm.rollback(&mut ctx);
            }
        }
        self.retry_or_next();
    }

    /// Executes this client's next atomic step.
    fn step(&mut self) {
        if self.done() {
            return;
        }
        let op = self.program[self.txn];
        match &self.access {
            Access::Fine { .. } => self.step_fine(op),
            Access::Jdbc { .. } => self.step_jdbc(op),
            Access::Vanilla { .. } => self.step_vanilla(op),
        }
    }

    fn fine_parts(&mut self) -> (Arc<dyn Home>, Arc<SliResourceManager>) {
        match &self.access {
            Access::Fine { home, rm } => (Arc::clone(home), Arc::clone(rm)),
            _ => unreachable!("fine step on a coarse client"),
        }
    }

    /// One phase of an optimistic transaction: read / read / buffer
    /// writes / commit.
    fn step_fine(&mut self, op: Op) {
        let (home, rm) = self.fine_parts();
        if self.ctx.is_none() {
            let mut ctx = TxContext::new();
            if rm.begin(&mut ctx).is_err() {
                self.retry_or_next();
                return;
            }
            self.ctx = Some(ctx);
        }
        let (read_keys, writes): (Vec<u32>, bool) = match op {
            Op::Transfer { from, to, .. } => (vec![from, to], true),
            Op::Audit { a, b } => (vec![a, b], false),
        };
        let phase = self.phase as usize;
        if phase < read_keys.len() {
            // Read phase: fault the account in (cache or persistent store)
            // and stage its balance.
            let key = acct(read_keys[phase]);
            let op_id = self.invoke("read", &key.to_string());
            let mut ctx = self.ctx.take().expect("ctx in read phase");
            let result = home.get_field(&mut ctx, &key, "balance");
            self.ctx = Some(ctx);
            match result {
                Ok(v) => {
                    self.ret(op_id, "ok", Some(v.to_string()));
                    self.staged.push(v.as_double().unwrap_or(0.0));
                    self.phase += 1;
                }
                Err(e) => {
                    self.ret(op_id, error_outcome(&e), None);
                    self.fail_attempt();
                }
            }
            return;
        }
        if writes && phase == read_keys.len() {
            // Write phase: buffer both legs of the transfer in the
            // transaction workspace (no I/O until commit).
            let Op::Transfer { from, to, amount } = op else {
                unreachable!("write phase only for transfers");
            };
            let mut ctx = self.ctx.take().expect("ctx in write phase");
            let legs = [
                ("debit", from, self.staged[0] - amount),
                ("credit", to, self.staged[1] + amount),
            ];
            for (label, account, new_balance) in legs {
                let key = acct(account);
                let op_id = self.invoke(label, &key.to_string());
                match home.set_field(&mut ctx, &key, "balance", Value::from(new_balance)) {
                    Ok(()) => self.ret(op_id, "ok", None),
                    Err(e) => {
                        self.ret(op_id, error_outcome(&e), None);
                        self.ctx = Some(ctx);
                        self.fail_attempt();
                        return;
                    }
                }
            }
            self.ctx = Some(ctx);
            self.phase += 1;
            return;
        }
        // Commit phase. On error the RM leaves no transaction open, so the
        // context is simply dropped.
        let op_id = self.invoke("commit", "");
        let mut ctx = self.ctx.take().expect("ctx in commit phase");
        match rm.commit(&mut ctx, &[]) {
            Ok(()) => {
                self.ret(op_id, "ok", None);
                self.next_txn();
            }
            Err(e) => {
                self.ret(op_id, error_outcome(&e), None);
                self.retry_or_next();
            }
        }
    }

    /// Synthesizes the Commit/Apply pair for a coarse (pessimistic)
    /// transaction, whose interleaving-free execution we just witnessed.
    fn record_coarse_commit(&mut self, entries: Vec<HistoryImage>, outcome: &str) {
        self.coarse_txn_seq += 1;
        let origin = self.id + 1;
        let txn_id = self.coarse_txn_seq;
        let t_us = self.now();
        self.log.record(HistoryEvent::Commit {
            origin,
            txn_id,
            outcome: outcome.to_owned(),
            entries,
            t_us,
        });
        if outcome == "committed" {
            self.log.record(HistoryEvent::Apply {
                origin,
                txn_id,
                csn: self.db.commit_seq(),
                outcome: outcome.to_owned(),
                t_us,
            });
        }
    }

    /// One whole pessimistic SQL transaction as a single atomic step.
    fn step_jdbc(&mut self, op: Op) {
        let Access::Jdbc { conn } = &mut self.access else {
            unreachable!("jdbc step on a non-jdbc client");
        };
        let result = jdbc_txn(conn.as_mut(), op);
        self.finish_coarse(op, result);
    }

    /// One whole vanilla-EJB transaction as a single atomic step.
    fn step_vanilla(&mut self, op: Op) {
        let Access::Vanilla { container } = &self.access else {
            unreachable!("vanilla step on a non-vanilla client");
        };
        let result = container.with_transaction(|ctx, c| {
            let home = c.home("Account")?;
            match op {
                Op::Transfer { from, to, amount } => {
                    let kf = acct(from);
                    let kt = acct(to);
                    let bf = home
                        .get_field(ctx, &kf, "balance")?
                        .as_double()
                        .unwrap_or(0.0);
                    let bt = home
                        .get_field(ctx, &kt, "balance")?
                        .as_double()
                        .unwrap_or(0.0);
                    home.set_field(ctx, &kf, "balance", Value::from(bf - amount))?;
                    home.set_field(ctx, &kt, "balance", Value::from(bt + amount))?;
                    Ok((bf, bt))
                }
                Op::Audit { a, b } => {
                    let ba = home
                        .get_field(ctx, &acct(a), "balance")?
                        .as_double()
                        .unwrap_or(0.0);
                    let bb = home
                        .get_field(ctx, &acct(b), "balance")?
                        .as_double()
                        .unwrap_or(0.0);
                    Ok((ba, bb))
                }
            }
        });
        self.finish_coarse(op, result.map_err(|e| error_outcome(&e).to_owned()));
    }

    /// Records the client-visible events and the synthesized commit for a
    /// coarse transaction that read balances `(x, y)`.
    fn finish_coarse(&mut self, op: Op, result: Result<(f64, f64), String>) {
        match result {
            Ok((x, y)) => {
                let entries = match op {
                    Op::Transfer { from, to, amount } => {
                        for (label, account) in [("debit", from), ("credit", to)] {
                            let op_id = self.invoke(label, &acct(account).to_string());
                            self.ret(op_id, "ok", None);
                        }
                        vec![
                            update_image(from, x, x - amount),
                            update_image(to, y, y + amount),
                        ]
                    }
                    Op::Audit { a, b } => {
                        for (account, value) in [(a, x), (b, y)] {
                            let op_id = self.invoke("read", &acct(account).to_string());
                            self.ret(op_id, "ok", Some(value.to_string()));
                        }
                        vec![read_image(a, x), read_image(b, y)]
                    }
                };
                self.record_coarse_commit(entries, "committed");
                self.next_txn();
            }
            Err(outcome) => {
                let op_id = self.invoke("txn", "");
                self.ret(op_id, &outcome, None);
                self.record_coarse_commit(Vec::new(), &outcome);
                self.retry_or_next();
            }
        }
    }
}

fn update_image(account: u32, before: f64, after: f64) -> HistoryImage {
    let key = acct(account);
    HistoryImage {
        bean: "Account".to_owned(),
        key: key.to_string(),
        kind: "update".to_owned(),
        before: Some(balance_digest(&key, before)),
        after: Some(balance_digest(&key, after)),
    }
}

fn read_image(account: u32, balance: f64) -> HistoryImage {
    let key = acct(account);
    HistoryImage {
        bean: "Account".to_owned(),
        key: key.to_string(),
        kind: "read".to_owned(),
        before: Some(balance_digest(&key, balance)),
        after: None,
    }
}

fn error_outcome(e: &EjbError) -> &'static str {
    match e {
        EjbError::OptimisticConflict { .. } => "conflict",
        _ => "error",
    }
}

fn jdbc_select(conn: &mut dyn SqlConnection, account: u32) -> Result<f64, String> {
    let rs = conn
        .execute(
            "SELECT balance FROM account WHERE userid = ?",
            &[acct(account)],
        )
        .map_err(|e| e.to_string())?;
    rs.rows()
        .first()
        .and_then(|row| row.first())
        .and_then(Value::as_double)
        .ok_or_else(|| format!("account acct{account} missing"))
}

fn jdbc_update(conn: &mut dyn SqlConnection, account: u32, balance: f64) -> Result<(), String> {
    conn.execute(
        "UPDATE account SET balance = ? WHERE userid = ?",
        &[Value::from(balance), acct(account)],
    )
    .map_err(|e| e.to_string())?;
    Ok(())
}

fn jdbc_txn(conn: &mut dyn SqlConnection, op: Op) -> Result<(f64, f64), String> {
    conn.begin().map_err(|e| e.to_string())?;
    let body: Result<(f64, f64), String> = (|| match op {
        Op::Transfer { from, to, amount } => {
            let bf = jdbc_select(conn, from)?;
            let bt = jdbc_select(conn, to)?;
            jdbc_update(conn, from, bf - amount)?;
            jdbc_update(conn, to, bt + amount)?;
            Ok((bf, bt))
        }
        Op::Audit { a, b } => Ok((jdbc_select(conn, a)?, jdbc_select(conn, b)?)),
    })();
    match body {
        Ok(v) => {
            conn.commit().map_err(|e| e.to_string())?;
            Ok(v)
        }
        Err(e) => {
            let _ = conn.rollback();
            Err(format!("error: {e}"))
        }
    }
}

/// Builds the measured data tier for `cfg` — one edge per client for the
/// edge architectures, one shared application server for Clients/RAS —
/// over the bank's one-entity registry and seed, with the run's history,
/// seeded bugs and fault plan switched on.
fn build_tier(cfg: &SliCheckConfig, log: &Arc<HistoryLog>) -> DataTier {
    let edges = match cfg.arch {
        Architecture::ClientsRas(_) => 1,
        _ => cfg.clients as usize,
    };
    let tier = DataTier::build(cfg.arch, edges, None, true, registry(), |dba| {
        for i in 0..cfg.accounts.max(2) {
            dba.execute(
                "INSERT INTO account (userid, balance) VALUES (?, ?)",
                &[acct(i), Value::from(INITIAL_BALANCE)],
            )?;
        }
        Ok(())
    });
    tier.db.set_wal_drop_flush(cfg.inject_wal_bug);
    for (_, point) in tier.commit_points() {
        point.set_history(Arc::clone(log), Arc::clone(&tier.clock));
        point.set_inject_bug(cfg.inject_bug);
    }
    if cfg.arch == Architecture::EsRbes {
        tier.set_faults(cfg.faults);
    }
    tier
}

/// Puts `cfg.clients` thin clients on the tier: client `id` runs on edge
/// `id` (every client on edge 0 for Clients/RAS). Cached clients of one
/// edge share its home and resource manager, each with its own context;
/// pessimistic clients each hold a database session of their own on the
/// edge's shared path.
fn clients_on(cfg: &SliCheckConfig, tier: &DataTier, log: &Arc<HistoryLog>) -> Vec<ClientState> {
    let cached: Vec<(Arc<dyn Home>, Arc<SliResourceManager>)> = (1u32..)
        .zip(&tier.edges)
        .filter_map(|(origin, edge)| {
            let cache = edge.cache.as_ref()?;
            let store = Arc::clone(&cache.store);
            let committer = Arc::clone(&cache.committer);
            let rm = SliResourceManager::new(origin, committer, Arc::clone(&store))
                .with_history(Arc::clone(log), Arc::clone(&tier.clock));
            let home = SliHome::new(account_meta(), store, Arc::clone(&cache.source));
            Some((Arc::new(home) as Arc<dyn Home>, Arc::new(rm)))
        })
        .collect();
    (0..cfg.clients)
        .map(|id| {
            let edge = id as usize % tier.edges.len();
            let access = match cfg.arch.flavor() {
                Flavor::CachedEjb => {
                    let (home, rm) = cached[edge].clone();
                    Access::Fine { home, rm }
                }
                Flavor::Jdbc => Access::Jdbc {
                    conn: Box::new(tier.connect(edge)),
                },
                Flavor::VanillaEjb => {
                    let conn = share_connection(tier.connect(edge));
                    let mut container =
                        Container::new(Arc::new(JdbcResourceManager::new(Arc::clone(&conn))));
                    container.register(Arc::new(BmpHome::new(account_meta(), conn)));
                    Access::Vanilla { container }
                }
            };
            ClientState {
                id,
                access,
                program: program_for(cfg, id),
                txn: 0,
                attempts: 0,
                phase: 0,
                ctx: None,
                staged: Vec::new(),
                op_seq: 0,
                coarse_txn_seq: 0,
                log: Arc::clone(log),
                clock: Arc::clone(&tier.clock),
                db: Arc::clone(&tier.db),
                max_retries: cfg.max_retries,
            }
        })
        .collect()
}

/// Runs one schedule to completion and checks the recorded history.
pub fn run_slicheck(cfg: &SliCheckConfig, source: ScheduleSource) -> SliCheckOutcome {
    run_on_tier(cfg, source).0
}

/// [`run_slicheck`], handing back the tier the run executed on as well.
fn run_on_tier(cfg: &SliCheckConfig, source: ScheduleSource) -> (SliCheckOutcome, DataTier) {
    let mut scheduler = match source {
        ScheduleSource::Random(seed) => Scheduler::random(seed),
        ScheduleSource::Replay(script) => Scheduler::replay(script),
    };
    let log = Arc::new(HistoryLog::new());
    let tier = build_tier(cfg, &log);
    let mut clients = clients_on(cfg, &tier, &log);
    // Delivering an edge's pending invalidations is a step of its own; one
    // picked while its messages are still crossing the invalidation channel
    // waits for the last of them, so a delivery always drains the queue.
    let sinks: Vec<_> = tier
        .edges
        .iter()
        .filter_map(|edge| Some(&edge.cache.as_ref()?.invalidations.as_ref()?.0))
        .collect();
    let deliver = |j: usize| {
        if let Some(arrival) = sinks[j].last_arrival() {
            tier.clock.delay_until(arrival);
        }
        sinks[j].deliver_due();
    };

    // Generous upper bound: phases per attempt × attempts per txn × txns,
    // plus invalidation deliveries and crash/restart steps. Purely a
    // runaway guard.
    let max_steps = u64::from(cfg.clients)
        * u64::from(cfg.txns_per_client)
        * u64::from(cfg.max_retries + 1)
        * 8
        + u64::from(cfg.crashes) * 2
        + 64;

    enum Ready {
        Client(usize),
        Sink(usize),
        Crash,
        Restart,
    }

    let mut steps = 0u64;
    let mut crashes_left = cfg.crashes;
    let mut down = false;
    loop {
        let mut ready: Vec<Ready> = Vec::new();
        for (i, client) in clients.iter().enumerate() {
            if !client.done() {
                ready.push(Ready::Client(i));
            }
        }
        for (j, sink) in sinks.iter().enumerate() {
            if sink.in_flight() > 0 {
                ready.push(Ready::Sink(j));
            }
        }
        // A crash and its restart are schedulable steps too, so the
        // scheduler explores (and replays) exactly where in the client
        // interleaving the back-end dies and comes back.
        if down {
            ready.push(Ready::Restart);
        } else if crashes_left > 0 {
            ready.push(Ready::Crash);
        }
        if ready.is_empty() || steps >= max_steps {
            break;
        }
        let pick = scheduler.pick(ready.len() as u32) as usize;
        match ready[pick] {
            Ready::Client(i) => clients[i].step(),
            Ready::Sink(j) => deliver(j),
            Ready::Crash => {
                tier.crash(CrashKind::Backend);
                down = true;
                crashes_left -= 1;
            }
            Ready::Restart => {
                tier.restart(CrashKind::Backend);
                down = false;
            }
        }
        steps += 1;
    }
    if down {
        // The schedule ended mid-outage: restart so the final-state checks
        // compare the recovered database, not a fenced one.
        tier.restart(CrashKind::Backend);
    }
    // Drain every pending invalidation so the completeness check below
    // sees the steady state.
    (0..sinks.len()).for_each(deliver);

    let history = log.events();
    let accounts = cfg.accounts.max(2);
    let initial: Vec<(String, String, u64)> = (0..accounts)
        .map(|i| {
            let key = acct(i);
            (
                "Account".to_owned(),
                key.to_string(),
                balance_digest(&key, INITIAL_BALANCE),
            )
        })
        .collect();
    let mut analysis = analyze(&history, &initial);
    check_tier(cfg, &tier, &mut analysis, accounts);

    let outcome = SliCheckOutcome {
        schedule: scheduler.taken().to_vec(),
        history,
        violations: analysis.violations.clone(),
        steps,
        committed: analysis.committed,
        aborted: analysis.aborted,
        wal: tier.db.wal_stats(),
        final_state: tier.db.checkpoint().to_vec(),
    };
    (outcome, tier)
}

/// Harness-side invariants that need the live tier, not just the history.
fn check_tier(
    cfg: &SliCheckConfig,
    tier: &DataTier,
    analysis: &mut HistoryAnalysis,
    accounts: u32,
) {
    // The committed bank as the database machine holds it, read off the
    // tables directly (every client transaction has ended): userid → balance.
    let bank = tier.db.dump_rows("account");
    let balance_of = |key: &Value| {
        let row = bank.iter().find(|row| row.first() == Some(key))?;
        row.get(1).and_then(Value::as_double)
    };

    // Money conservation: every writer is a transfer, so the bank total is
    // invariant even across unknown-outcome commits.
    let total: f64 = (0..accounts).filter_map(|i| balance_of(&acct(i))).sum();
    let expected = f64::from(accounts) * INITIAL_BALANCE;
    if (total - expected).abs() > 1e-6 {
        analysis.violations.push(Violation::new(
            "money-conservation",
            format!("bank total {total} != seeded total {expected}"),
        ));
    }

    // Lost committed write (crash runs without wire faults): every commit
    // the scheduler let through was acknowledged durable before the next
    // step could crash the back-end, so after the final recovery each
    // account must hold exactly the balance its latest committed
    // transaction installed. Only the torn-commit bug (a WAL that lies
    // about group-commit flushes) can break this.
    if cfg.crashes > 0 && cfg.faults.is_clean() {
        for i in 0..accounts {
            let key = acct(i);
            let expected = match analysis.latest_digest("Account", &key.to_string()) {
                None => balance_digest(&key, INITIAL_BALANCE),
                Some(Some(digest)) => digest,
                Some(None) => continue,
            };
            let digest = balance_of(&key).map(|balance| balance_digest(&key, balance));
            if digest != Some(expected) {
                analysis.violations.push(Violation::new(
                    "lost-committed-write",
                    format!(
                        "Account[{key}] holds digest {digest:#018x?} after recovery but the \
                         latest committed transaction installed {expected:#018x}"
                    ),
                ));
            }
        }
    }

    // Invalidation completeness applies to split-servers, fault-free runs:
    // under faults an edge may believe its own commit failed and keep a
    // stale image.
    let drained = cfg.arch == Architecture::EsRbes && cfg.faults.is_clean();
    let stores = (1..)
        .zip(&tier.edges)
        .filter_map(|(n, edge)| Some((n, &edge.cache.as_ref()?.store)));
    for (n, store) in stores {
        for i in 0..accounts {
            let key = acct(i);
            let Some(image) = store.get("Account", &key) else {
                continue;
            };
            let digest = memento_digest(&image);
            // Abort leak: every cached image must be a state some committed
            // transaction (or the seed) installed — an aborted transaction's
            // writes must never reach a CommonStore.
            let known = analysis.committed_digests("Account", &key.to_string());
            if !known.contains(&digest) {
                analysis.violations.push(Violation::new(
                    "abort-leak",
                    format!(
                        "store edge{n} caches Account[{key}] digest {digest:#018x} that no \
                         committed transaction installed"
                    ),
                ));
            }
            // After a full drain, a cached image is either the latest
            // committed state or absent.
            let latest = analysis.latest_digest("Account", &key.to_string());
            if drained && latest != Some(Some(digest)) {
                analysis.violations.push(Violation::new(
                    "stale-invalidation",
                    format!(
                        "store edge{n} still caches Account[{key}] digest {digest:#018x} \
                         after all invalidations drained (latest is {latest:?})"
                    ),
                ));
            }
        }
    }
}

/// Shrinks a failing choice script to a minimal failing prefix by binary
/// search (past the prefix the scheduler completes sequentially). Returns
/// the shrunk script and its run outcome.
///
/// If the full script unexpectedly no longer fails (a non-reproducible
/// report), the original script and its outcome are returned unchanged.
pub fn shrink_schedule(cfg: &SliCheckConfig, choices: &[u32]) -> (Vec<u32>, SliCheckOutcome) {
    let full = run_slicheck(cfg, ScheduleSource::Replay(choices.to_vec()));
    if full.violations.is_empty() {
        return (choices.to_vec(), full);
    }
    let mut lo = 0usize;
    let mut hi = choices.len();
    let mut best = full;
    let mut best_len = choices.len();
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let out = run_slicheck(cfg, ScheduleSource::Replay(choices[..mid].to_vec()));
        if out.violations.is_empty() {
            lo = mid + 1;
        } else {
            best = out;
            best_len = mid;
            hi = mid;
        }
    }
    (choices[..best_len].to_vec(), best)
}

/// Renders a violating run as the validated counterexample document
/// ([`COUNTEREXAMPLE_SCHEMA`]).
pub fn counterexample_json(cfg: &SliCheckConfig, outcome: &SliCheckOutcome) -> Json {
    Json::obj([
        ("version", Json::from(COUNTEREXAMPLE_SCHEMA)),
        ("arch", Json::from(arch_key(cfg.arch))),
        ("seed", Json::from(cfg.seed)),
        (
            "config",
            Json::obj([
                ("clients", Json::from(u64::from(cfg.clients))),
                ("accounts", Json::from(u64::from(cfg.accounts.max(2)))),
                (
                    "txns_per_client",
                    Json::from(u64::from(cfg.txns_per_client)),
                ),
                ("max_retries", Json::from(u64::from(cfg.max_retries))),
                (
                    "fault_per_mille",
                    Json::from(u64::from(
                        cfg.faults.drop_request_per_mille
                            + cfg.faults.drop_response_per_mille
                            + cfg.faults.duplicate_per_mille
                            + cfg.faults.unavailable_per_mille,
                    )),
                ),
                ("inject_bug", Json::Bool(cfg.inject_bug)),
                ("crashes", Json::from(u64::from(cfg.crashes))),
                ("inject_wal_bug", Json::Bool(cfg.inject_wal_bug)),
            ]),
        ),
        (
            "schedule",
            Json::Arr(
                outcome
                    .schedule
                    .iter()
                    .map(|s| {
                        Json::obj([
                            ("choice", Json::from(u64::from(s.choice))),
                            ("arity", Json::from(u64::from(s.arity))),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("history", history_json(&outcome.history)),
        (
            "violations",
            Json::Arr(outcome.violations.iter().map(Violation::to_json).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn programs_are_deterministic_and_transfer_heavy() {
        let cfg = SliCheckConfig::new(Architecture::EsRdb(Flavor::CachedEjb), 42);
        let a = program_for(&cfg, 0);
        let b = program_for(&cfg, 0);
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "same seed, same program"
        );
        let transfers = a
            .iter()
            .filter(|op| matches!(op, Op::Transfer { .. }))
            .count();
        assert!(
            transfers > 0 || a.len() < 2,
            "programs must include writers"
        );
        for op in &a {
            if let Op::Transfer { from, to, .. } = op {
                assert_ne!(from, to, "transfers move money between accounts");
            }
        }
    }

    #[test]
    fn clean_run_is_serializable_on_every_architecture() {
        for key in ARCH_KEYS {
            let cfg = SliCheckConfig::new(arch_by_key(key).unwrap(), 7);
            let outcome = run_slicheck(&cfg, ScheduleSource::Random(7));
            assert!(
                outcome.violations.is_empty(),
                "{key}: unexpected violations {:?}",
                outcome.violations
            );
            assert!(outcome.committed > 0, "{key}: nothing committed");
        }
    }

    #[test]
    fn every_run_crosses_the_measured_wiring() {
        use sli_telemetry::Metric;
        // The clients sit on the tier the figures measure: statements reach
        // the database through its server machine, and every edge's traffic
        // crosses its shared path.
        for key in ARCH_KEYS {
            let cfg = SliCheckConfig::new(arch_by_key(key).unwrap(), 7);
            let (outcome, tier) = run_on_tier(&cfg, ScheduleSource::Random(7));
            assert!(outcome.violations.is_empty(), "{key}");
            let Some(Metric::Counter(statements)) = tier.telemetry().get("db.stmt.statements")
            else {
                panic!("{key}: the database server registers db.stmt.statements");
            };
            assert!(statements.get() > 0, "{key}: no statement reached DbServer");
            let expected_edges = match cfg.arch {
                Architecture::ClientsRas(_) => 1,
                _ => cfg.clients as usize,
            };
            assert_eq!(tier.edges.len(), expected_edges, "{key}");
            for edge in &tier.edges {
                let stats = edge.shared_path.stats();
                assert!(
                    stats.total_bytes() > 0,
                    "{key}: {}",
                    edge.shared_path.name()
                );
            }
            assert!(tier.clock.now().as_micros() > 0, "{key}: steps cost time");
        }
    }

    #[test]
    fn faults_land_on_the_split_servers_request_path_only() {
        for (key, faulted) in [("es-rbes", true), ("es-rdb-cached", false)] {
            let mut cfg = SliCheckConfig::new(arch_by_key(key).unwrap(), 3);
            cfg.faults = FaultPlan::lossy(3, 300);
            let (outcome, tier) = run_on_tier(&cfg, ScheduleSource::Random(3));
            assert!(
                outcome.violations.is_empty(),
                "{key}: {:?}",
                outcome.violations
            );
            let injected: u64 = tier.paths().iter().map(|p| p.fault_stats().total()).sum();
            assert_eq!(injected > 0, faulted, "{key}: {injected} faults injected");
        }
    }

    #[test]
    fn loaded_client_count_stays_serializable_on_every_architecture() {
        // The high-load engine's whole point is more concurrency on the
        // same commit protocols, so re-check the invariants with double
        // the default client count on every combination.
        for key in ARCH_KEYS {
            for seed in [3, 11] {
                let mut cfg = SliCheckConfig::new(arch_by_key(key).unwrap(), seed);
                cfg.clients = 6;
                let outcome = run_slicheck(&cfg, ScheduleSource::Random(seed));
                assert!(
                    outcome.violations.is_empty(),
                    "{key} seed {seed}: violations under load {:?}",
                    outcome.violations
                );
                assert!(
                    outcome.committed > 0,
                    "{key} seed {seed}: nothing committed"
                );
            }
        }
    }

    #[test]
    fn crash_restart_sweep_stays_consistent_on_every_architecture() {
        // Clean crashes (real group-commit flushes) must never lose an
        // acknowledged commit, leak money, or break serializability — on
        // any of the seven combinations, at any schedule position the
        // seeded walk puts the kill.
        for key in ARCH_KEYS {
            for seed in [5, 21] {
                let mut cfg = SliCheckConfig::new(arch_by_key(key).unwrap(), seed);
                cfg.crashes = 2;
                let outcome = run_slicheck(&cfg, ScheduleSource::Random(seed));
                assert!(
                    outcome.violations.is_empty(),
                    "{key} seed {seed}: violations across crashes {:?}",
                    outcome.violations
                );
                let wal = outcome.wal;
                assert_eq!(
                    wal.recoveries, 2,
                    "{key} seed {seed}: every crash must be recovered"
                );
                assert_eq!(wal.dropped_flushes, 0, "{key} seed {seed}: no bug armed");
            }
        }
    }

    #[test]
    fn crash_schedules_replay_to_identical_outcomes() {
        // The determinism pin: replaying the recorded choice script must
        // reproduce the same WAL counters and a byte-identical recovered
        // database.
        let mut cfg = SliCheckConfig::new(Architecture::EsRbes, 9);
        cfg.crashes = 2;
        let first = run_slicheck(&cfg, ScheduleSource::Random(9));
        let choices: Vec<u32> = first.schedule.iter().map(|s| s.choice).collect();
        let replay = run_slicheck(&cfg, ScheduleSource::Replay(choices));
        assert_eq!(first.wal, replay.wal, "wal counters must replay exactly");
        assert_eq!(
            first.final_state, replay.final_state,
            "recovered state must be byte-identical"
        );
        assert_eq!(first.committed, replay.committed);
        assert_eq!(first.violations.len(), replay.violations.len());
    }

    #[test]
    fn injected_wal_bug_is_caught_and_shrinks() {
        // Arm the torn-commit bug (flushes acknowledged but dropped) and
        // crash once: the checker must find a lost-committed-write, shrink
        // it, and export a validated counterexample — the CI self-test.
        let mut cfg = SliCheckConfig::new(Architecture::EsRdb(Flavor::Jdbc), 1);
        cfg.crashes = 1;
        cfg.inject_wal_bug = true;
        let mut found = None;
        for seed in 1..=64 {
            cfg.seed = seed;
            let outcome = run_slicheck(&cfg, ScheduleSource::Random(seed));
            if outcome
                .violations
                .iter()
                .any(|v| v.kind == "lost-committed-write")
            {
                found = Some((seed, outcome));
                break;
            }
        }
        let (seed, outcome) = found.expect("the torn-commit bug must be found");
        cfg.seed = seed;
        let choices: Vec<u32> = outcome.schedule.iter().map(|s| s.choice).collect();
        let (shrunk, shrunk_outcome) = shrink_schedule(&cfg, &choices);
        assert!(!shrunk_outcome.violations.is_empty());
        assert!(shrunk.len() <= choices.len());
        let doc = counterexample_json(&cfg, &shrunk_outcome);
        assert_eq!(
            sli_telemetry::validate(&doc),
            Ok(sli_telemetry::Schema::Counterexample)
        );
    }

    #[test]
    fn injected_bug_is_caught_and_shrinks() {
        let mut cfg = SliCheckConfig::new(Architecture::EsRdb(Flavor::CachedEjb), 1);
        cfg.inject_bug = true;
        let mut found = None;
        for seed in 1..=64 {
            cfg.seed = seed;
            let outcome = run_slicheck(&cfg, ScheduleSource::Random(seed));
            if !outcome.violations.is_empty() {
                found = Some((seed, outcome));
                break;
            }
        }
        let (seed, outcome) = found.expect("the seeded lost-update bug must be found");
        cfg.seed = seed;
        let choices: Vec<u32> = outcome.schedule.iter().map(|s| s.choice).collect();
        let (shrunk, shrunk_outcome) = shrink_schedule(&cfg, &choices);
        assert!(!shrunk_outcome.violations.is_empty());
        assert!(shrunk.len() <= choices.len());
        let doc = counterexample_json(&cfg, &shrunk_outcome);
        assert_eq!(
            sli_telemetry::validate(&doc),
            Ok(sli_telemetry::Schema::Counterexample)
        );
    }
}
