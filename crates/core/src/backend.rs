//! The back-end application server of the split-servers configuration.
//!
//! "The logic that handles cache misses and the logic that implements the
//! optimistic concurrency control algorithm reside on the back-end server"
//! (§2.4). [`BackendServer`] is that tier: it answers point fetches and
//! finder queries from its co-located database, decides commit requests
//! through its [`CommitPoint`], and fans invalidations out to the *other*
//! edge caches after each successful writing commit.

use std::sync::Arc;

use bytes::{Bytes, BytesMut};
use parking_lot::Mutex;
use sli_component::{EjbError, EjbResult, ImageNames, Memento};
use sli_datastore::{Predicate, SqlConnection, Value};
use sli_simnet::wire::{protocol, unframe, DecodeError, Reader, StrTable, Writer};
use sli_simnet::{CallError, Clock, Remote, Service, SimDuration};

use sli_telemetry::{Resource, SpanOutcome, Tracer};

use crate::commit::{CommitOutcome, CommitRequest};
use crate::committer::{query_current, CommitPoint, CommitStep, CommitTracer, Committer, Decision};
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

/// CPU cost of the back-end machine: receiving and dispatching one
/// request, and each memento handled (validated, applied or returned).
const PER_REQUEST: SimDuration = SimDuration::from_micros(300);
const PER_IMAGE: SimDuration = SimDuration::from_micros(40);

/// The back-end server: cache-miss service around a [`CommitPoint`].
///
/// The commit point decides; what the back-end adds is its machine's CPU
/// cost, the wire protocol, the fetch/query handlers that share the commit
/// point's connection, and the invalidation fan-out.
pub struct BackendServer {
    point: CommitPoint,
    clock: Arc<Clock>,
    /// (edge id, invalidation send function) pairs for fan-out.
    peers: Mutex<Vec<(u32, InvalidationSender)>>,
    /// The buffer the server's replies are written in, between requests
    /// (see [`Writer::framed_in`]). An error reply leaves without it.
    reply: Mutex<BytesMut>,
    /// The strings the server's requests were read as: a key, a predicate
    /// operand or an image value it read before is another handle on it.
    strings: Arc<StrTable>,
}

impl std::fmt::Debug for BackendServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BackendServer")
            .field("point", &self.point)
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
            point: CommitPoint::new(conn, registry),
            clock,
            peers: Mutex::new(Vec::new()),
            reply: Mutex::new(BytesMut::new()),
            strings: StrTable::shared(),
        })
    }

    /// The commit point this server decides through: its counters, replay
    /// table, history and seeded-bug switch.
    pub fn commit_point(&self) -> &CommitPoint {
        &self.point
    }

    /// Records one span per commit step through `tracer`, timestamped from
    /// this server's clock: the commit point's `commit.validate_apply` /
    /// `commit.replay` / `occ.conflict`, `commit.invalidate` around the
    /// fan-out to peers, and a `backend.*` span per wire request.
    /// Wire-dispatched work joins the caller's trace via the frame-carried
    /// trace id.
    ///
    /// # Panics
    /// Panics if a tracer is already attached.
    pub fn set_tracer(&self, tracer: Arc<Tracer>) {
        self.point.set_tracer(tracer, Arc::clone(&self.clock));
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
    /// tests): the commit point's decision, with this machine's CPU cost
    /// charged inside each step's span, then the invalidation fan-out — for
    /// a fresh writing commit only, so a retry whose first response was lost
    /// is neither re-applied nor re-announced.
    ///
    /// # Errors
    /// Datastore failures; conflicts are an `Ok` outcome.
    pub fn commit(&self, request: &CommitRequest) -> EjbResult<CommitOutcome> {
        let Decision { result, fresh } = self.point.decide(request, |step| {
            let cpu = match step {
                CommitStep::Replay => PER_REQUEST,
                CommitStep::ValidateApply => PER_IMAGE.saturating_mul(request.entries.len() as u64),
            };
            self.clock.charge(Resource::StoreLock, cpu);
        });
        if fresh && matches!(result, Ok(CommitOutcome::Committed)) && request.has_writes() {
            self.fan_out(request);
        }
        result
    }

    /// Tells every edge but the request's origin which keys it wrote. The
    /// message is written only once a recipient is found — on a tier whose
    /// one edge is the origin, never — and straight from the request's
    /// entries into the frame's one buffer.
    fn fan_out(&self, request: &CommitRequest) {
        let tracer = self.point.tracer();
        let span = tracer.map(|t| t.open("commit.invalidate"));
        // Stamp the fan-out frames with the commit's trace id so the
        // (possibly deferred) delivery at each edge can re-join it.
        let trace_id = tracer.map_or(0, CommitTracer::current_trace_id);
        let mut message = None;
        let mut notified = 0usize;
        for (edge_id, send) in self.peers.lock().iter() {
            if *edge_id != request.origin {
                let message = message.get_or_insert_with(|| {
                    let mut w = Writer::framed();
                    encode_invalidations(&mut w, request.written_keys());
                    w.finish_frame(protocol::BACKEND, 0, trace_id)
                });
                send(message.clone());
                notified += 1;
            }
        }
        if let Some(span) = span {
            if notified > 0 {
                span.close(request, SpanOutcome::Committed);
            } else {
                span.cancel();
            }
        }
    }

    fn dispatch(&self, r: &mut Reader, wire_trace_id: u64) -> EjbResult<Writer> {
        let op = r.get_u8().map_err(wire_err)?;
        let span_op = match op {
            OP_FETCH => "backend.fetch",
            OP_QUERY => "backend.query",
            OP_COMMIT => "backend.commit",
            _ => "backend.op",
        };
        let tracer = self.point.tracer();
        let span = tracer.map(|t| t.open_rpc_server(span_op, wire_trace_id));
        let result = self.run_op(op, r);
        if let Some(span) = span {
            span.close_unstamped(if result.is_ok() {
                SpanOutcome::Committed
            } else {
                SpanOutcome::Error
            });
        }
        result
    }

    fn run_op(&self, op: u8, r: &mut Reader) -> EjbResult<Writer> {
        self.clock.charge(Resource::StoreLock, PER_REQUEST);
        let mut w = Writer::framed_in(std::mem::take(&mut *self.reply.lock()));
        w.put_u8(STATUS_OK);
        match op {
            // A reply's images are written from the rows, as the images
            // built from them would encode.
            OP_FETCH => {
                let bean = r.get_str_view().map_err(wire_err)?;
                let key = Value::decode(r).map_err(wire_err)?;
                let meta = self.point.registry().meta(&bean)?;
                let mut session = self.point.session();
                let rs = session
                    .conn
                    .execute(meta.load_sql(), std::slice::from_ref(&key))?;
                match rs.rows().first() {
                    Some(row) => {
                        w.put_bool(true);
                        meta.encode_row(row, &mut w);
                        self.clock.charge(Resource::StoreLock, PER_IMAGE);
                    }
                    None => {
                        w.put_bool(false);
                    }
                }
                Ok(w)
            }
            OP_QUERY => {
                let bean = r.get_str_view().map_err(wire_err)?;
                let predicate = Predicate::decode(r).map_err(wire_err)?;
                let meta = self.point.registry().meta(&bean)?;
                let rs = query_current(&mut self.point.session(), meta, &predicate)?;
                w.put_u32(rs.len() as u32);
                for row in rs.rows() {
                    meta.encode_row(row, &mut w);
                }
                let images = PER_IMAGE.saturating_mul(rs.len() as u64);
                self.clock.charge(Resource::StoreLock, images);
                Ok(w)
            }
            OP_COMMIT => {
                // The request travels as a nested frame (see SplitCommitter).
                let frame = r.get_frame().map_err(wire_err)?;
                let mut frame = Reader::sharing(frame, &self.strings);
                let request =
                    CommitRequest::decode(&mut frame, self.point.registry()).map_err(wire_err)?;
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

/// Starts a `STATUS_ERR` reply carrying `e`.
fn error_reply(e: &EjbError) -> Writer {
    let mut w = Writer::framed();
    w.put_u8(STATUS_ERR).put_str(&e.to_string());
    // Preserve the variants the edge reacts to programmatically.
    w.put_u8(match e {
        EjbError::OptimisticConflict { .. } => 1,
        EjbError::Db(sli_datastore::DbError::Deadlock) => 2,
        EjbError::NotFound { .. } => 3,
        _ => 0,
    });
    w
}

/// Starts an `op` request in `kept`, the buffer its sender keeps between
/// calls (see [`Writer::framed_in`]).
fn start_request(kept: &Mutex<BytesMut>, op: u8) -> Writer {
    let mut w = Writer::framed_in(std::mem::take(&mut *kept.lock()));
    w.put_u8(op);
    w
}

/// One round trip to the back-end: closes the request `body` that
/// [`start_request`] started in `kept` under the caller's trace, hands the
/// buffer back, sends the request (the transport retries identical bytes)
/// and opens the reply — reading its strings through `strings`, if given.
fn round_trip(
    remote: &Remote<Arc<BackendServer>>,
    kept: &Mutex<BytesMut>,
    body: Writer,
    strings: Option<&Arc<StrTable>>,
) -> EjbResult<Reader> {
    let (framed, buf) = body.finish_frame_keeping(protocol::BACKEND, 0, remote.current_trace_id());
    *kept.lock() = buf;
    let resp = remote.call(framed).map_err(transport_err)?;
    let (_, payload) = unframe(resp).map_err(wire_err)?;
    let mut r = match strings {
        Some(strings) => Reader::sharing(payload, strings),
        None => Reader::new(payload),
    };
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
            Err(e) => return error_reply(&wire_err(e)).finish_frame(protocol::BACKEND, 0, 0),
        };
        let mut r = Reader::sharing(payload, &self.strings);
        match self.dispatch(&mut r, header.trace_id) {
            Ok(w) => {
                let (reply, kept) =
                    w.finish_frame_keeping(protocol::BACKEND, header.correlation, header.trace_id);
                *self.reply.lock() = kept;
                reply
            }
            Err(e) => {
                error_reply(&e).finish_frame(protocol::BACKEND, header.correlation, header.trace_id)
            }
        }
    }
}

/// The edge side of the split configuration's fault path: one wire round
/// trip per fetch or query.
#[derive(Debug)]
pub struct BackendSource {
    remote: Remote<Arc<BackendServer>>,
    registry: MetaRegistry,
    /// The buffer the source's requests are written in, between calls.
    request: Mutex<BytesMut>,
    /// The strings the source's replies were read as: an image value the
    /// edge read before is another handle on it.
    strings: Arc<StrTable>,
}

impl BackendSource {
    /// Creates a source that reaches `remote` across its path.
    pub fn new(remote: Remote<Arc<BackendServer>>) -> BackendSource {
        BackendSource {
            remote,
            registry: MetaRegistry::new(),
            request: Mutex::new(BytesMut::new()),
            strings: StrTable::shared(),
        }
    }

    /// The edge's deployment registry (builder style): the images this
    /// source decodes share the names of its descriptors instead of owning
    /// a copy each.
    pub fn with_registry(mut self, registry: MetaRegistry) -> BackendSource {
        self.registry = registry;
        self
    }
}

impl StateSource for BackendSource {
    fn fetch(&self, bean: &str, key: &Value) -> EjbResult<Option<Memento>> {
        let mut w = start_request(&self.request, OP_FETCH);
        w.put_str(bean);
        key.encode(&mut w);
        let mut r = round_trip(&self.remote, &self.request, w, Some(&self.strings))?;
        if r.get_bool().map_err(wire_err)? {
            Ok(Some(
                Memento::decode(&mut r, self.registry.image_names(bean)).map_err(wire_err)?,
            ))
        } else {
            Ok(None)
        }
    }

    fn query(&self, bean: &str, predicate: &Predicate) -> EjbResult<Vec<Memento>> {
        let mut w = start_request(&self.request, OP_QUERY);
        w.put_str(bean);
        predicate.encode(&mut w);
        let mut r = round_trip(&self.remote, &self.request, w, Some(&self.strings))?;
        decode_images(&mut r, self.registry.image_names(bean)).map_err(wire_err)
    }
}

/// Decodes a query reply: a count, then that many images.
fn decode_images(r: &mut Reader, names: Option<&ImageNames>) -> Result<Vec<Memento>, DecodeError> {
    let n = r.get_u32()? as usize;
    // A length prefix is not a budget: reserve for the images the
    // remaining bytes can hold, not for the count they announce.
    let mut out = Vec::with_capacity(n.min(r.remaining() / Memento::MIN_ENCODED_LEN));
    for _ in 0..n {
        out.push(Memento::decode(r, names)?);
    }
    Ok(out)
}

/// The *split-servers* committer: the whole transaction state crosses the
/// high-latency path **once**; the back-end performs the per-image
/// datastore accesses over its local path.
///
/// "Assuming no cache misses, the split-server configuration requires only
/// a single access to the back-end server" — this is why ES/RBES has
/// sensitivity ≈ 3 where ES/RDB-cached has 13 (Table 2).
#[derive(Debug)]
pub struct SplitCommitter {
    remote: Remote<Arc<BackendServer>>,
    /// The buffer the committer's requests are written in, between calls.
    request: Mutex<BytesMut>,
}

impl SplitCommitter {
    /// Creates a committer that ships requests to `remote`.
    pub fn new(remote: Remote<Arc<BackendServer>>) -> SplitCommitter {
        SplitCommitter {
            remote,
            request: Mutex::new(BytesMut::new()),
        }
    }
}

impl Committer for SplitCommitter {
    fn commit(&self, request: &CommitRequest) -> EjbResult<CommitOutcome> {
        let mut w = start_request(&self.request, OP_COMMIT);
        // The request travels as a nested value, written where it lies.
        w.put_nested(|w| request.encode_into(w));
        // Retries resend identical bytes — same (origin, txn_id) — so the
        // backend's replay table keeps the commit idempotent.
        let mut r = round_trip(&self.remote, &self.request, w, None)?;
        CommitOutcome::decode(&mut r).map_err(wire_err)
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

    /// A one-entry request from edge 1 about account `u1`.
    fn request(txn_id: u64, kind: EntryKind) -> CommitRequest {
        CommitRequest {
            origin: 1,
            txn_id,
            entries: vec![CommitEntry {
                bean: "Account".into(),
                key: Value::from("u1"),
                kind,
            }],
        }
    }

    fn update(txn_id: u64, before: f64, after: f64) -> CommitRequest {
        let (before, after) = (img("u1", before), img("u1", after));
        request(txn_id, EntryKind::Update { before, after })
    }

    fn read(txn_id: u64, before: f64) -> CommitRequest {
        let before = img("u1", before);
        request(txn_id, EntryKind::Read { before })
    }

    /// Registers edge `id` with `backend`: a common store caching `u1`,
    /// invalidated over a LAN path.
    fn edge(backend: &BackendServer, clock: &Arc<Clock>, id: u32) -> Arc<CommonStore> {
        let store = CommonStore::new();
        store.put(img("u1", 100.0));
        let path = Path::new(format!("inv-{id}"), Arc::clone(clock), PathSpec::lan());
        backend.register_edge(
            id,
            Remote::new(path, InvalidationSink::new(Arc::clone(&store))),
        );
        store
    }

    fn caches_u1(store: &CommonStore) -> bool {
        store.get("Account", &Value::from("u1")).is_some()
    }

    fn balance(db: &Arc<Database>) -> Value {
        let mut conn = db.connect();
        let rs = conn
            .execute("SELECT balance FROM account WHERE userid = 'u1'", &[])
            .unwrap();
        rs.rows()[0][0].clone()
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
    fn fetched_and_found_images_borrow_the_registrys_names() {
        let (_db, _clock, _backend, remote) = setup();
        let edge_registry = registry();
        let lent = edge_registry.meta("Account").unwrap().image_names().clone();
        let shares = |image: &Memento| {
            let names = image.fields().iter().zip(lent.fields());
            names.fold(true, |all, ((name, _), lent)| {
                all && Arc::ptr_eq(name, lent)
            })
        };
        let bare = BackendSource::new(remote.clone());
        let source = BackendSource::new(remote).with_registry(edge_registry);
        let key = Value::from("u1");
        let (own, shared) = (bare.fetch("Account", &key), source.fetch("Account", &key));
        let (own, shared) = (own.unwrap().unwrap(), shared.unwrap().unwrap());
        assert_eq!(own, shared);
        assert!(shares(&shared) && !shares(&own));
        let found = source.query("Account", &Predicate::True).unwrap();
        assert_eq!(found, vec![shared]);
        assert!(shares(&found[0]));
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
    fn hostile_image_count_in_a_query_reply_is_a_decode_error() {
        // u32::MAX images announced, a kilobyte of anything behind it: the
        // reservation follows the bytes, and the first image fails to parse.
        let mut w = Writer::new();
        w.put_u32(u32::MAX).put_bytes(&[0xAB; 1024]);
        assert!(decode_images(&mut Reader::new(w.finish()), None).is_err());
        let mut honest = Writer::new();
        honest.put_u32(1);
        img("u1", 1.0).encode(&mut honest);
        let decoded = decode_images(&mut Reader::new(honest.finish()), None).unwrap();
        assert_eq!(decoded, vec![img("u1", 1.0)]);
    }

    #[test]
    fn split_commit_is_one_round_trip() {
        let (db, _clock, _backend, remote) = setup();
        let path = Arc::clone(remote.path());
        path.reset_stats();
        let committer = SplitCommitter::new(remote);
        let outcome = committer.commit(&update(1, 100.0, 50.0)).unwrap();
        assert_eq!(outcome, CommitOutcome::Committed);
        assert_eq!(path.stats().round_trips(), 1, "split commit must be one RT");
        assert_eq!(balance(&db), Value::from(50.0));
    }

    #[test]
    fn split_commit_reports_conflict() {
        let (_db, _clock, _backend, remote) = setup();
        let committer = SplitCommitter::new(remote);
        let outcome = committer.commit(&read(2, 42.0)).unwrap(); // stale
        assert!(matches!(outcome, CommitOutcome::Conflict { .. }));
    }

    #[test]
    fn commit_fans_out_invalidations_to_other_edges() {
        let (_db, clock, backend, remote) = setup();
        let (store1, store2) = (edge(&backend, &clock, 1), edge(&backend, &clock, 2));
        let committer = SplitCommitter::new(remote);
        committer.commit(&update(3, 100.0, 77.0)).unwrap();
        // Edge 1 (the committer) keeps its entry; edge 2 is invalidated.
        assert!(caches_u1(&store1));
        assert!(!caches_u1(&store2));
    }

    #[test]
    fn read_only_commit_sends_no_invalidations() {
        let (_db, clock, backend, remote) = setup();
        let store2 = edge(&backend, &clock, 2);
        let committer = SplitCommitter::new(remote);
        committer.commit(&read(4, 100.0)).unwrap();
        assert!(caches_u1(&store2));
    }

    #[test]
    fn replayed_commit_is_neither_reapplied_nor_fanned_out_again() {
        let (db, clock, backend, _remote) = setup();
        let trace = Arc::new(sli_telemetry::TraceLog::new());
        backend.set_tracer(Arc::new(Tracer::new(Arc::clone(&trace))));
        let store2 = edge(&backend, &clock, 2);
        let request = update(9, 100.0, 60.0);
        assert_eq!(backend.commit(&request).unwrap(), CommitOutcome::Committed);
        assert!(!caches_u1(&store2));
        // Edge 2 refreshes its cache; a replay of the same commit must not
        // invalidate it again (or re-apply the debit).
        store2.put(img("u1", 60.0));
        assert_eq!(
            backend.commit(&request).unwrap(),
            CommitOutcome::Committed,
            "replay returns the recorded outcome"
        );
        assert!(caches_u1(&store2), "replay re-sent invalidations");
        assert_eq!(
            trace.count(Some("commit.invalidate"), None),
            1,
            "fan-out traced exactly once despite the replay"
        );
        assert_eq!(backend.commit_point().stats().dedup_replays, 1);
        assert_eq!(balance(&db), Value::from(60.0), "debit applied twice");
    }

    #[test]
    fn cpu_cost_is_charged_inside_the_commit_spans() {
        use sli_datastore::server::{DbCostModel, DbServer, RemoteConnection};
        // The back-end reaches its database over a LAN path here, so the
        // statements cost simulated time too — traced as rpc.call spans.
        let (db, clock, _local, _remote) = setup();
        let trace = Arc::new(sli_telemetry::TraceLog::new());
        let tracer = Arc::new(Tracer::new(Arc::clone(&trace)));
        let db_server = DbServer::new(db, Arc::clone(&clock), DbCostModel::default());
        let db_path = Path::new("backend-db", Arc::clone(&clock), PathSpec::lan());
        let conn = RemoteConnection::open(
            Remote::new(db_path, db_server).with_tracer(Arc::clone(&tracer)),
        )
        .unwrap();
        let backend = BackendServer::new(Box::new(conn), registry(), Arc::clone(&clock));
        backend.set_tracer(tracer);
        let mut request = update(5, 100.0, 90.0);
        request.entries.push(CommitEntry {
            bean: "Account".into(),
            key: Value::from("u2"),
            kind: EntryKind::Create {
                after: img("u2", 10.0),
            },
        });
        let t0 = clock.now();
        assert_eq!(backend.commit(&request).unwrap(), CommitOutcome::Committed);
        let t1 = clock.now();
        assert_eq!(backend.commit(&request).unwrap(), CommitOutcome::Committed);
        let t2 = clock.now();

        let events = trace.events();
        let span = |op: &str| events.iter().find(|e| e.op == op).expect("span recorded");
        let (validate, replay) = (span("commit.validate_apply"), span("commit.replay"));
        let statements: u64 = events
            .iter()
            .filter(|e| e.op == "rpc.call" && e.parent_span_id == validate.span_id)
            .map(|e| e.duration_us())
            .sum();
        assert!(statements > 0);
        assert_eq!(
            validate.duration_us(),
            PER_IMAGE.saturating_mul(2).as_micros() + statements
        );
        assert_eq!(replay.duration_us(), PER_REQUEST.as_micros());
        // Nothing is charged outside the spans.
        assert_eq!(validate.duration_us(), (t1 - t0).as_micros());
        assert_eq!(replay.duration_us(), (t2 - t1).as_micros());
    }
}
