//! The back-end application server of the split-servers configuration.
//!
//! "The logic that handles cache misses and the logic that implements the
//! optimistic concurrency control algorithm reside on the back-end server"
//! (§2.4). [`BackendServer`] is that tier: it answers point fetches and
//! finder queries from its co-located database, validates and applies
//! commit requests, and fans invalidations out to the *other* edge caches
//! after each successful writing commit.

use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;
use sli_component::{EjbError, EjbResult, Memento};
use sli_datastore::{Predicate, SqlConnection, Value};
use sli_simnet::wire::{frame, frame_traced, protocol, unframe, DecodeError, Reader, Writer};
use sli_simnet::{CallError, Clock, Remote, Service, SimDuration};

use sli_telemetry::{HistoryLog, Registry, SpanOutcome, Timeline, Tracer};

use crate::commit::{CommitOutcome, CommitRequest};
use crate::committer::{
    fetch_current, span_outcome, validate_and_apply_forensic, CommitHistory, CommitMetrics,
    CommitTracer, Committer, CommitterStats, CompletedTxns, COMPLETED_TXN_CAPACITY,
};
use crate::registry::MetaRegistry;
use crate::source::StateSource;
use crate::store::encode_invalidations;

const OP_FETCH: u8 = 1;
const OP_QUERY: u8 = 2;
const OP_COMMIT: u8 = 3;

const STATUS_OK: u8 = 0;
const STATUS_ERR: u8 = 1;

/// A registered peer's invalidation send function.
type InvalidationSender = Box<dyn Fn(Bytes) + Send + Sync>;

/// CPU cost model for the back-end machine.
#[derive(Debug, Clone, Copy)]
pub struct BackendCostModel {
    /// Fixed cost of receiving and dispatching one request.
    pub per_request: SimDuration,
    /// Additional cost per memento handled (validated, applied or
    /// returned).
    pub per_image: SimDuration,
}

impl Default for BackendCostModel {
    fn default() -> BackendCostModel {
        BackendCostModel {
            per_request: SimDuration::from_micros(300),
            per_image: SimDuration::from_micros(40),
        }
    }
}

/// The back-end server: cache-miss service + optimistic commit point.
pub struct BackendServer {
    conn: Mutex<Box<dyn SqlConnection + Send>>,
    registry: MetaRegistry,
    clock: Arc<Clock>,
    cost: BackendCostModel,
    /// (edge id, invalidation send function) pairs for fan-out.
    peers: Mutex<Vec<(u32, InvalidationSender)>>,
    /// Replay memory: commit requests resent after a lost response are
    /// answered from here instead of being applied (and fanned out) twice.
    completed: Mutex<CompletedTxns>,
    metrics: CommitMetrics,
    /// Optional commit-protocol span recorder ([`BackendServer::new`]
    /// returns an [`Arc`], so tracing is enabled post-construction).
    tracer: Mutex<Option<CommitTracer>>,
    /// Optional apply-side history recorder for the consistency checker.
    history: Mutex<Option<CommitHistory>>,
    /// The checker's seeded lost-update bug (`slicheck --inject-bug`).
    inject_bug: std::sync::atomic::AtomicBool,
}

impl std::fmt::Debug for BackendServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BackendServer")
            .field("beans", &self.registry.len())
            .field("peers", &self.peers.lock().len())
            .finish_non_exhaustive()
    }
}

impl BackendServer {
    /// Creates a back-end over its co-located database connection.
    pub fn new(
        conn: Box<dyn SqlConnection + Send>,
        registry: MetaRegistry,
        clock: Arc<Clock>,
    ) -> Arc<BackendServer> {
        Arc::new(BackendServer {
            conn: Mutex::new(conn),
            registry,
            clock,
            cost: BackendCostModel::default(),
            peers: Mutex::new(Vec::new()),
            completed: Mutex::new(CompletedTxns::new(COMPLETED_TXN_CAPACITY)),
            metrics: CommitMetrics::default(),
            tracer: Mutex::new(None),
            history: Mutex::new(None),
            inject_bug: std::sync::atomic::AtomicBool::new(false),
        })
    }

    /// Records one span per commit step through `tracer`, timestamped from
    /// this server's clock: `commit.validate_apply` / `commit.replay` for
    /// the commit itself, `commit.invalidate` around the fan-out to peers,
    /// and an `occ.conflict` forensics span when validation rejects a
    /// request. Wire-dispatched work joins the caller's trace via the
    /// frame-carried trace id.
    pub fn set_tracer(&self, tracer: Arc<Tracer>) {
        *self.tracer.lock() = Some(CommitTracer::new(tracer, Arc::clone(&self.clock)));
    }

    /// Records an apply-outcome history event per fresh commit into `log`
    /// (timestamped from this server's clock and tagged with the
    /// co-located datastore's commit-order witness), for the
    /// schedule-exploring consistency checker.
    pub fn set_history(&self, log: Arc<HistoryLog>) {
        *self.history.lock() = Some(CommitHistory::new(log, Arc::clone(&self.clock)));
    }

    /// Seeds the deliberate lost-update bug (`slicheck --inject-bug`):
    /// updates apply without validating their before-image. Test harness
    /// only.
    pub fn set_inject_bug(&self, on: bool) {
        self.inject_bug
            .store(on, std::sync::atomic::Ordering::Relaxed);
    }

    /// Attaches the commit counters to `registry` under `{prefix}.committed`,
    /// `.conflicts`, `.errors` and `.dedup_replays`.
    pub fn register_with(&self, registry: &Registry, prefix: &str) {
        self.metrics.register_with(registry, prefix);
    }

    /// Tracks the same commit counters in `timeline` under the
    /// [`BackendServer::register_with`] names.
    pub fn timeline_into(&self, timeline: &Timeline, prefix: &str) {
        self.metrics.timeline_into(timeline, prefix);
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CommitterStats {
        self.metrics.snapshot()
    }

    /// Registers an edge's invalidation channel. After a successful commit
    /// originating from edge `origin`, every peer with a *different* id is
    /// notified of the written keys. Any [`Service`] endpoint works — the
    /// immediate [`InvalidationSink`](crate::InvalidationSink) or the
    /// propagation-delay-accurate
    /// [`DeferredInvalidationSink`](crate::DeferredInvalidationSink).
    pub fn register_edge<S: Service + Send + Sync + 'static>(&self, edge_id: u32, sink: Remote<S>) {
        self.peers
            .lock()
            .push((edge_id, Box::new(move |frame| sink.notify(frame))));
    }

    /// In-process commit entry point (used by the wire handler and by
    /// tests).
    ///
    /// A request whose `(origin, txn_id)` already finished here is a retry
    /// of a commit whose response was lost: the recorded outcome is
    /// returned without re-validating, re-applying, or re-fanning-out
    /// invalidations, so a debit is applied exactly once no matter how many
    /// times the message is resent.
    ///
    /// # Errors
    /// Datastore failures; conflicts are an `Ok` outcome.
    pub fn commit(&self, request: &CommitRequest) -> EjbResult<CommitOutcome> {
        let tracer = self.tracer.lock().clone();
        if let Some(outcome) = self.completed.lock().lookup(request) {
            let span = tracer
                .as_ref()
                .map(|t| (t.begin("commit.replay"), t.now_us()));
            self.clock.advance(self.cost.per_request);
            self.metrics.dedup_replays.inc();
            if let (Some(t), Some((span, start_us))) = (&tracer, span) {
                t.finish(span, request, start_us, SpanOutcome::Replayed);
            }
            return Ok(outcome);
        }
        let span = tracer
            .as_ref()
            .map(|t| (t.begin("commit.validate_apply"), t.now_us()));
        self.clock.advance(
            self.cost
                .per_image
                .saturating_mul(request.entries.len() as u64),
        );
        let mut forensics = None;
        let (result, csn) = {
            let mut conn = self.conn.lock();
            // Announce the request's identity so the datastore's WAL commit
            // record carries it and recovery can reseed this dedup table.
            conn.stamp_next_commit(request.origin, request.txn_id);
            let result = validate_and_apply_forensic(
                conn.as_mut(),
                &self.registry,
                request,
                &mut forensics,
                self.inject_bug.load(std::sync::atomic::Ordering::Relaxed),
            );
            let csn = conn.commit_seq().unwrap_or(0);
            (result, csn)
        };
        if let Some(h) = self.history.lock().as_ref() {
            h.record_apply(request, &result, csn);
        }
        if let Ok(outcome) = &result {
            self.completed.lock().record(request, outcome);
        }
        self.metrics.observe(&result);
        if let Some(t) = &tracer {
            if let Some(info) = forensics {
                t.record_conflict(request, info);
            }
            if let Some((span, start_us)) = span {
                t.finish(span, request, start_us, span_outcome(&result));
            }
        }
        if matches!(result, Ok(CommitOutcome::Committed)) && request.has_writes() {
            let span = tracer
                .as_ref()
                .map(|t| (t.begin("commit.invalidate"), t.now_us()));
            // Stamp the fan-out frames with the commit's trace id so the
            // (possibly deferred) delivery at each edge can re-join it.
            let trace_id = tracer
                .as_ref()
                .map(CommitTracer::current_trace_id)
                .unwrap_or(0);
            let written = request.written_keys();
            let message = frame_traced(
                protocol::BACKEND,
                0,
                trace_id,
                &encode_invalidations(&written),
            );
            let mut notified = 0usize;
            for (edge_id, send) in self.peers.lock().iter() {
                if *edge_id != request.origin {
                    send(message.clone());
                    notified += 1;
                }
            }
            if let (Some(t), Some((span, start_us))) = (&tracer, span) {
                if notified > 0 {
                    t.finish(span, request, start_us, SpanOutcome::Committed);
                } else {
                    t.cancel(span);
                }
            }
        }
        result
    }

    /// Rebuilds the dedup table from the committed `(origin, txn_id)`
    /// stamps a datastore recovery replayed out of its WAL (commit order,
    /// oldest first). Called after a back-end crash + restart so retried
    /// commits that were durable before the crash dedup instead of
    /// double-applying their debits.
    pub fn reseed_completed(&self, pairs: &[(u32, u64)]) {
        self.completed.lock().reseed(pairs);
    }

    fn dispatch(&self, r: &mut Reader, wire_trace_id: u64) -> EjbResult<Writer> {
        let op = r.get_u8().map_err(wire_err)?;
        let tracer = self.tracer.lock().clone();
        let span_op = match op {
            OP_FETCH => "backend.fetch",
            OP_QUERY => "backend.query",
            OP_COMMIT => "backend.commit",
            _ => "backend.op",
        };
        let span = tracer
            .as_ref()
            .map(|t| (t.begin_rpc_server(span_op, wire_trace_id), t.now_us()));
        let result = self.run_op(op, r);
        if let (Some(t), Some((span, start_us))) = (&tracer, span) {
            let outcome = if result.is_ok() {
                SpanOutcome::Committed
            } else {
                SpanOutcome::Error
            };
            t.finish_raw(span, start_us, outcome);
        }
        result
    }

    fn run_op(&self, op: u8, r: &mut Reader) -> EjbResult<Writer> {
        self.clock.advance(self.cost.per_request);
        let mut w = Writer::new();
        w.put_u8(STATUS_OK);
        match op {
            OP_FETCH => {
                let bean = r.get_str().map_err(wire_err)?;
                let key = Value::decode(r).map_err(wire_err)?;
                let meta = self.registry.meta(&bean)?;
                let image = {
                    let mut conn = self.conn.lock();
                    fetch_current(conn.as_mut(), meta, &key)?
                };
                match image {
                    Some(m) => {
                        w.put_bool(true);
                        m.encode(&mut w);
                        self.clock.advance(self.cost.per_image);
                    }
                    None => {
                        w.put_bool(false);
                    }
                }
                Ok(w)
            }
            OP_QUERY => {
                let bean = r.get_str().map_err(wire_err)?;
                let predicate = Predicate::decode(r).map_err(wire_err)?;
                let meta = self.registry.meta(&bean)?;
                let cols = meta.select_columns().join(", ");
                let sql = match &predicate {
                    Predicate::True => format!("SELECT {cols} FROM {}", meta.table()),
                    p => format!("SELECT {cols} FROM {} WHERE {}", meta.table(), p.to_sql()),
                };
                let rs = self.conn.lock().execute(&sql, &[])?;
                w.put_u32(rs.len() as u32);
                for row in rs.rows() {
                    meta.memento_from_row(row).encode(&mut w);
                }
                self.clock
                    .advance(self.cost.per_image.saturating_mul(rs.len() as u64));
                Ok(w)
            }
            OP_COMMIT => {
                let request = Self::decode_commit(r).map_err(wire_err)?;
                let outcome = self.commit(&request)?;
                outcome.encode(&mut w);
                Ok(w)
            }
            other => Err(EjbError::Db(sli_datastore::DbError::Remote(format!(
                "unknown backend opcode {other}"
            )))),
        }
    }
}

fn wire_err(e: DecodeError) -> EjbError {
    EjbError::Db(sli_datastore::DbError::Remote(e.to_string()))
}

/// The transport exhausted its retry budget; the caller must abort.
fn transport_err(e: CallError) -> EjbError {
    EjbError::Db(sli_datastore::DbError::Unavailable(e.to_string()))
}

fn encode_ejb_error(e: &EjbError) -> Bytes {
    let mut w = Writer::new();
    w.put_u8(STATUS_ERR).put_str(&e.to_string());
    // Preserve the variants the edge reacts to programmatically.
    w.put_u8(match e {
        EjbError::OptimisticConflict { .. } => 1,
        EjbError::Db(sli_datastore::DbError::Deadlock) => 2,
        EjbError::NotFound { .. } => 3,
        _ => 0,
    });
    w.finish()
}

fn decode_response(resp: Bytes) -> EjbResult<Reader> {
    let (_, payload) = unframe(resp).map_err(wire_err)?;
    let mut r = Reader::new(payload);
    match r.get_u8().map_err(wire_err)? {
        STATUS_OK => Ok(r),
        _ => {
            let msg = r.get_str().map_err(wire_err)?;
            match r.get_u8().map_err(wire_err)? {
                1 => Err(EjbError::OptimisticConflict {
                    bean: "<remote>".to_owned(),
                    key: msg,
                }),
                2 => Err(EjbError::Db(sli_datastore::DbError::Deadlock)),
                3 => Err(EjbError::NotFound {
                    bean: "<remote>".to_owned(),
                    key: msg,
                }),
                _ => Err(EjbError::Db(sli_datastore::DbError::Remote(msg))),
            }
        }
    }
}

impl Service for BackendServer {
    fn handle(&self, request: Bytes) -> Bytes {
        let (header, payload) = match unframe(request) {
            Ok(x) => x,
            Err(e) => return frame(protocol::BACKEND, 0, &encode_ejb_error(&wire_err(e))),
        };
        let mut r = Reader::new(payload);
        let body = match self.dispatch(&mut r, header.trace_id) {
            Ok(w) => w.finish(),
            Err(e) => encode_ejb_error(&e),
        };
        frame_traced(
            protocol::BACKEND,
            header.correlation,
            header.trace_id,
            &body,
        )
    }
}

/// The edge side of the split configuration's fault path: one wire round
/// trip per fetch or query.
#[derive(Debug, Clone)]
pub struct BackendSource {
    remote: Remote<Arc<BackendServer>>,
}

impl BackendSource {
    /// Creates a source that reaches `remote` across its path.
    pub fn new(remote: Remote<Arc<BackendServer>>) -> BackendSource {
        BackendSource { remote }
    }
}

impl StateSource for BackendSource {
    fn fetch(&self, bean: &str, key: &Value) -> EjbResult<Option<Memento>> {
        let mut w = Writer::new();
        w.put_u8(OP_FETCH).put_str(bean);
        key.encode(&mut w);
        let framed = frame_traced(
            protocol::BACKEND,
            0,
            self.remote.current_trace_id(),
            &w.finish(),
        );
        let resp = self.remote.call(framed).map_err(transport_err)?;
        let mut r = decode_response(resp)?;
        if r.get_bool().map_err(wire_err)? {
            Ok(Some(Memento::decode(&mut r).map_err(wire_err)?))
        } else {
            Ok(None)
        }
    }

    fn query(&self, bean: &str, predicate: &Predicate) -> EjbResult<Vec<Memento>> {
        let mut w = Writer::new();
        w.put_u8(OP_QUERY).put_str(bean);
        predicate.encode(&mut w);
        let framed = frame_traced(
            protocol::BACKEND,
            0,
            self.remote.current_trace_id(),
            &w.finish(),
        );
        let resp = self.remote.call(framed).map_err(transport_err)?;
        let mut r = decode_response(resp)?;
        let n = r.get_u32().map_err(wire_err)? as usize;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(Memento::decode(&mut r).map_err(wire_err)?);
        }
        Ok(out)
    }
}

/// The *split-servers* committer: the whole transaction state crosses the
/// high-latency path **once**; the back-end performs the per-image
/// datastore accesses over its local path.
///
/// "Assuming no cache misses, the split-server configuration requires only
/// a single access to the back-end server" — this is why ES/RBES has
/// sensitivity ≈ 3 where ES/RDB-cached has 13 (Table 2).
#[derive(Debug, Clone)]
pub struct SplitCommitter {
    remote: Remote<Arc<BackendServer>>,
}

impl SplitCommitter {
    /// Creates a committer that ships requests to `remote`.
    pub fn new(remote: Remote<Arc<BackendServer>>) -> SplitCommitter {
        SplitCommitter { remote }
    }
}

impl Committer for SplitCommitter {
    fn commit(&self, request: &CommitRequest) -> EjbResult<CommitOutcome> {
        let mut w = Writer::new();
        w.put_u8(OP_COMMIT);
        w.put_frame(&request.encode());
        let framed = frame_traced(
            protocol::BACKEND,
            0,
            self.remote.current_trace_id(),
            &w.finish(),
        );
        // Retries resend identical bytes — same (origin, txn_id) — so the
        // backend's replay table keeps the commit idempotent.
        let resp = self.remote.call(framed).map_err(transport_err)?;
        let mut r = decode_response(resp)?;
        CommitOutcome::decode(&mut r).map_err(wire_err)
    }
}

// The backend's OP_COMMIT handler must read the nested frame written by
// SplitCommitter. A small wrapper keeps the dispatch symmetric.
impl BackendServer {
    fn decode_commit(r: &mut Reader) -> Result<CommitRequest, DecodeError> {
        let frame = r.get_frame()?;
        CommitRequest::decode(&mut Reader::new(frame))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commit::{CommitEntry, EntryKind};
    use crate::store::{CommonStore, InvalidationSink};
    use sli_component::EntityMeta;
    use sli_datastore::{ColumnType, Database, SqlConnection};
    use sli_simnet::{Path, PathSpec};

    fn registry() -> MetaRegistry {
        MetaRegistry::new().with(
            EntityMeta::new("Account", "account", "userid", ColumnType::Varchar)
                .field("balance", ColumnType::Double),
        )
    }

    fn setup() -> (
        Arc<Database>,
        Arc<Clock>,
        Arc<BackendServer>,
        Remote<Arc<BackendServer>>,
    ) {
        let db = Database::new();
        let reg = registry();
        reg.create_schema(&db).unwrap();
        let mut conn = db.connect();
        conn.execute(
            "INSERT INTO account (userid, balance) VALUES ('u1', 100.0)",
            &[],
        )
        .unwrap();
        let clock = Arc::new(Clock::new());
        let backend = BackendServer::new(Box::new(db.connect()), reg, Arc::clone(&clock));
        let path = Path::new("edge-backend", Arc::clone(&clock), PathSpec::lan());
        let remote = Remote::new(path, Arc::clone(&backend));
        (db, clock, backend, remote)
    }

    fn img(key: &str, balance: f64) -> Memento {
        Memento::new("Account", Value::from(key)).with_field("balance", balance)
    }

    #[test]
    fn backend_fetch_round_trip() {
        let (_db, _clock, _backend, remote) = setup();
        let source = BackendSource::new(remote);
        let image = source
            .fetch("Account", &Value::from("u1"))
            .unwrap()
            .unwrap();
        assert_eq!(image.get("balance"), Some(&Value::from(100.0)));
        assert!(source
            .fetch("Account", &Value::from("nope"))
            .unwrap()
            .is_none());
        assert!(source.fetch("Ghost", &Value::from("u1")).is_err());
    }

    #[test]
    fn backend_query_round_trip() {
        let (_db, _clock, _backend, remote) = setup();
        let source = BackendSource::new(remote);
        let results = source
            .query("Account", &Predicate::eq("userid", "u1"))
            .unwrap();
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].get("balance"), Some(&Value::from(100.0)));
    }

    #[test]
    fn split_commit_is_one_round_trip() {
        let (db, _clock, _backend, remote) = setup();
        let path = Arc::clone(remote.path());
        path.reset_stats();
        let committer = SplitCommitter::new(remote);
        let outcome = committer
            .commit(&CommitRequest {
                origin: 1,
                txn_id: 1,
                entries: vec![CommitEntry {
                    bean: "Account".into(),
                    key: Value::from("u1"),
                    kind: EntryKind::Update {
                        before: img("u1", 100.0),
                        after: img("u1", 50.0),
                    },
                }],
            })
            .unwrap();
        assert_eq!(outcome, CommitOutcome::Committed);
        assert_eq!(path.stats().round_trips(), 1, "split commit must be one RT");
        let mut conn = db.connect();
        let rs = conn
            .execute("SELECT balance FROM account WHERE userid = 'u1'", &[])
            .unwrap();
        assert_eq!(rs.rows()[0][0], Value::from(50.0));
    }

    #[test]
    fn split_commit_reports_conflict() {
        let (_db, _clock, _backend, remote) = setup();
        let committer = SplitCommitter::new(remote);
        let outcome = committer
            .commit(&CommitRequest {
                origin: 1,
                txn_id: 2,
                entries: vec![CommitEntry {
                    bean: "Account".into(),
                    key: Value::from("u1"),
                    kind: EntryKind::Read {
                        before: img("u1", 42.0), // stale
                    },
                }],
            })
            .unwrap();
        assert!(matches!(outcome, CommitOutcome::Conflict { .. }));
    }

    #[test]
    fn commit_fans_out_invalidations_to_other_edges() {
        let (_db, clock, backend, remote) = setup();
        // Two edges with their own common stores.
        let store1 = CommonStore::new();
        let store2 = CommonStore::new();
        store1.put(img("u1", 100.0));
        store2.put(img("u1", 100.0));
        let p1 = Path::new("inv-1", Arc::clone(&clock), PathSpec::lan());
        let p2 = Path::new("inv-2", Arc::clone(&clock), PathSpec::lan());
        backend.register_edge(
            1,
            Remote::new(p1, InvalidationSink::new(Arc::clone(&store1))),
        );
        backend.register_edge(
            2,
            Remote::new(p2, InvalidationSink::new(Arc::clone(&store2))),
        );

        let committer = SplitCommitter::new(remote);
        committer
            .commit(&CommitRequest {
                origin: 1,
                txn_id: 3,
                entries: vec![CommitEntry {
                    bean: "Account".into(),
                    key: Value::from("u1"),
                    kind: EntryKind::Update {
                        before: img("u1", 100.0),
                        after: img("u1", 77.0),
                    },
                }],
            })
            .unwrap();
        // Edge 1 (the committer) keeps its entry; edge 2 is invalidated.
        assert!(store1.get("Account", &Value::from("u1")).is_some());
        assert!(store2.get("Account", &Value::from("u1")).is_none());
    }

    #[test]
    fn read_only_commit_sends_no_invalidations() {
        let (_db, clock, backend, remote) = setup();
        let store2 = CommonStore::new();
        store2.put(img("u1", 100.0));
        let p2 = Path::new("inv-2", Arc::clone(&clock), PathSpec::lan());
        backend.register_edge(
            2,
            Remote::new(p2, InvalidationSink::new(Arc::clone(&store2))),
        );
        let committer = SplitCommitter::new(remote);
        committer
            .commit(&CommitRequest {
                origin: 1,
                txn_id: 4,
                entries: vec![CommitEntry {
                    bean: "Account".into(),
                    key: Value::from("u1"),
                    kind: EntryKind::Read {
                        before: img("u1", 100.0),
                    },
                }],
            })
            .unwrap();
        assert!(store2.get("Account", &Value::from("u1")).is_some());
    }

    #[test]
    fn backend_counts_commits_and_traces_invalidation_fan_out() {
        let (_db, clock, backend, _remote) = setup();
        let trace = Arc::new(sli_telemetry::TraceLog::new());
        backend.set_tracer(Arc::new(Tracer::new(Arc::clone(&trace))));
        let telemetry = Registry::new();
        backend.register_with(&telemetry, "backend.commit");
        let store2 = CommonStore::new();
        store2.put(img("u1", 100.0));
        let p2 = Path::new("inv-2", Arc::clone(&clock), PathSpec::lan());
        backend.register_edge(
            2,
            Remote::new(p2, InvalidationSink::new(Arc::clone(&store2))),
        );
        let request = CommitRequest {
            origin: 1,
            txn_id: 11,
            entries: vec![CommitEntry {
                bean: "Account".into(),
                key: Value::from("u1"),
                kind: EntryKind::Update {
                    before: img("u1", 100.0),
                    after: img("u1", 70.0),
                },
            }],
        };
        backend.commit(&request).unwrap();
        backend.commit(&request).unwrap(); // dedup replay
        let stats = backend.stats();
        assert_eq!(stats.committed, 1);
        assert_eq!(stats.dedup_replays, 1);
        assert_eq!(
            telemetry.snapshot()["backend.commit.dedup_replays"],
            sli_telemetry::MetricValue::Counter(1)
        );
        assert_eq!(
            trace.count(Some("commit.validate_apply"), Some(SpanOutcome::Committed)),
            1
        );
        assert_eq!(
            trace.count(Some("commit.invalidate"), None),
            1,
            "fan-out traced exactly once despite the replay"
        );
        assert_eq!(
            trace.count(Some("commit.replay"), Some(SpanOutcome::Replayed)),
            1
        );
    }

    #[test]
    fn replayed_commit_does_not_reapply_or_refan_invalidations() {
        let (db, clock, backend, _remote) = setup();
        let store2 = CommonStore::new();
        store2.put(img("u1", 100.0));
        let p2 = Path::new("inv-2", Arc::clone(&clock), PathSpec::lan());
        backend.register_edge(
            2,
            Remote::new(p2, InvalidationSink::new(Arc::clone(&store2))),
        );
        let request = CommitRequest {
            origin: 1,
            txn_id: 9,
            entries: vec![CommitEntry {
                bean: "Account".into(),
                key: Value::from("u1"),
                kind: EntryKind::Update {
                    before: img("u1", 100.0),
                    after: img("u1", 60.0),
                },
            }],
        };
        assert_eq!(backend.commit(&request).unwrap(), CommitOutcome::Committed);
        assert!(store2.get("Account", &Value::from("u1")).is_none());
        // Edge 2 refreshes its cache; a replay of the same commit must not
        // invalidate it again (or re-apply the debit).
        store2.put(img("u1", 60.0));
        assert_eq!(
            backend.commit(&request).unwrap(),
            CommitOutcome::Committed,
            "replay returns the recorded outcome"
        );
        assert!(
            store2.get("Account", &Value::from("u1")).is_some(),
            "replay re-sent invalidations"
        );
        let mut conn = db.connect();
        let rs = conn
            .execute("SELECT balance FROM account WHERE userid = 'u1'", &[])
            .unwrap();
        assert_eq!(rs.rows()[0][0], Value::from(60.0), "debit applied twice");
    }
}
