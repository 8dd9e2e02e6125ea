//! Wire-level database server and remote JDBC-style client.
//!
//! In the ES/RDB architecture the edge servers talk to the database across
//! the high-latency path — "the communication protocol between the
//! cache-enabled application server and the database is whatever the JDBC
//! driver uses to communicate with the database". [`DbServer`] plays the
//! DB2 listener; [`RemoteConnection`] plays that JDBC driver: each
//! `begin`/`execute`/`commit`/`rollback` is one encoded round trip over the
//! configured [`Path`](sli_simnet::Path).

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use bytes::{Bytes, BytesMut};
use parking_lot::Mutex;
use sli_simnet::hash::FxHashMap;
use sli_simnet::wire::{
    protocol, unframe, DecodeError, FrameHeader, FrameStr, Reader, StrTable, Writer,
};
use sli_simnet::{Clock, Remote, Service, SimDuration};
use sli_telemetry::{Counter, Histogram, Registry, Resource, SpanDetail, SpanOutcome, Tracer};

use crate::connection::Connection;
use crate::engine::Database;
use crate::error::DbError;
use crate::result::{self, HeaderTable, ResultSet};
use crate::value::Value;
use crate::{BatchOutcome, BatchStatement, DbResult, SqlConnection};

const OP_OPEN: u8 = 0;
const OP_BEGIN: u8 = 1;
const OP_EXEC: u8 = 2;
const OP_COMMIT: u8 = 3;
const OP_ROLLBACK: u8 = 4;
const OP_CLOSE: u8 = 5;
/// K statements in one frame: the fixed `per_request` cost and the two
/// network crossings are paid once for the whole batch instead of per
/// statement — the wire-level amortization the edge architectures need.
const OP_EXEC_BATCH: u8 = 6;

const STATUS_OK: u8 = 0;
const STATUS_ERR: u8 = 1;

/// Fixed-size SQL communications area sent with every successful reply,
/// mirroring the DRDA SQLCARD that accompanies real JDBC responses.
const SQLCA_OK: [u8; 40] = *b"00000\x000000000   DB2 7.2 SQLCA OK       \x00";

/// Encodes a [`DbError`] so it survives the wire round trip with its
/// variant intact (the SLI commit logic cares about `DuplicateKey` vs
/// `Deadlock`, for example).
pub(crate) fn encode_db_error(w: &mut Writer, e: &DbError) {
    match e {
        DbError::Parse(m) => {
            w.put_u8(1).put_str(m);
        }
        DbError::NoSuchTable(m) => {
            w.put_u8(2).put_str(m);
        }
        DbError::NoSuchColumn(m) => {
            w.put_u8(3).put_str(m);
        }
        DbError::DuplicateKey(m) => {
            w.put_u8(4).put_str(m);
        }
        DbError::TypeMismatch(m) => {
            w.put_u8(5).put_str(m);
        }
        DbError::ParamCount { expected, actual } => {
            w.put_u8(6)
                .put_u32(*expected as u32)
                .put_u32(*actual as u32);
        }
        DbError::Deadlock => {
            w.put_u8(7);
        }
        DbError::Blocked => {
            w.put_u8(8);
        }
        DbError::AlreadyInTransaction => {
            w.put_u8(9);
        }
        DbError::NoTransaction => {
            w.put_u8(10);
        }
        DbError::AlreadyExists(m) => {
            w.put_u8(11).put_str(m);
        }
        DbError::Remote(m) => {
            w.put_u8(12).put_str(m);
        }
        DbError::Unavailable(m) => {
            w.put_u8(13).put_str(m);
        }
    }
}

/// Decodes a [`DbError`] written with [`encode_db_error`].
pub(crate) fn decode_db_error(r: &mut Reader) -> Result<DbError, DecodeError> {
    Ok(match r.get_u8()? {
        1 => DbError::Parse(r.get_str()?),
        2 => DbError::NoSuchTable(r.get_str()?),
        3 => DbError::NoSuchColumn(r.get_str()?),
        4 => DbError::DuplicateKey(r.get_str()?),
        5 => DbError::TypeMismatch(r.get_str()?),
        6 => DbError::ParamCount {
            expected: r.get_u32()? as usize,
            actual: r.get_u32()? as usize,
        },
        7 => DbError::Deadlock,
        8 => DbError::Blocked,
        9 => DbError::AlreadyInTransaction,
        10 => DbError::NoTransaction,
        11 => DbError::AlreadyExists(r.get_str()?),
        12 => DbError::Remote(r.get_str()?),
        13 => DbError::Unavailable(r.get_str()?),
        _ => return Err(DecodeError::new("db error tag")),
    })
}

/// A frame that does not decode, as the error its sender sees.
fn wire_err(e: DecodeError) -> DbError {
    DbError::Remote(e.to_string())
}

/// CPU cost model for the database machine.
///
/// These costs give the simulation a realistic zero-delay intercept (the
/// paper's Figures 6/7 do not start at zero latency); they are charged to
/// the shared simulation clock on every request.
#[derive(Debug, Clone, Copy)]
pub struct DbCostModel {
    /// Fixed cost of receiving, parsing and dispatching one statement.
    pub per_request: SimDuration,
    /// Additional cost per row in the result set.
    pub per_row: SimDuration,
}

impl Default for DbCostModel {
    fn default() -> DbCostModel {
        DbCostModel {
            per_request: SimDuration::from_micros(400),
            per_row: SimDuration::from_micros(25),
        }
    }
}

/// Wire-level statement metrics for one [`DbServer`]. Handles are shared:
/// the same counters can be attached to a
/// [`sli_telemetry::Registry`] under dotted names.
#[derive(Debug, Clone, Default)]
pub struct DbServerMetrics {
    /// Statements executed over the wire — one per `OP_EXEC` frame plus
    /// one per statement carried inside an `OP_EXEC_BATCH` frame.
    pub statements: Counter,
    /// Simulated CPU cost charged per single-statement (`OP_EXEC`) frame,
    /// microseconds. Batched statements are accounted in `batch_us`
    /// instead, because the fixed `per_request` cost is shared.
    pub statement_us: Histogram,
    /// `OP_EXEC_BATCH` frames dispatched over the wire.
    pub batches: Counter,
    /// Statements carried per batch frame (records the batch size).
    pub batch_statements: Histogram,
    /// Simulated CPU cost charged per batch frame, microseconds.
    pub batch_us: Histogram,
}

impl DbServerMetrics {
    /// Attaches the handles to `registry` under `{prefix}.statements`,
    /// `{prefix}.statement_us`, `{prefix}.batches`,
    /// `{prefix}.batch_statements` and `{prefix}.batch_us`.
    pub fn register_with(&self, registry: &Registry, prefix: &str) {
        registry.attach_counter(format!("{prefix}.statements"), &self.statements);
        registry.attach_histogram(format!("{prefix}.statement_us"), &self.statement_us);
        registry.attach_counter(format!("{prefix}.batches"), &self.batches);
        registry.attach_histogram(format!("{prefix}.batch_statements"), &self.batch_statements);
        registry.attach_histogram(format!("{prefix}.batch_us"), &self.batch_us);
    }
}

/// A wire session: its connection, the scratch a frame's statements are
/// decoded into and the buffer its replies are written in — kept with the
/// session and emptied for each frame, so that once it has seen its
/// largest frame a frame allocates no containers and a reply is one
/// allocation, its exact copy.
#[derive(Debug)]
struct Session {
    conn: Connection,
    /// The frame's statements: each one's text, a view of the frame, and
    /// the range of `params` its parameters fill.
    statements: Vec<(FrameStr, Range<usize>)>,
    /// Every statement's parameters, one after another.
    params: Vec<Value>,
    /// The buffer the session's replies are written in, between frames
    /// (see [`Writer::framed_in`]). A reply that fails leaves without it.
    reply: BytesMut,
}

/// The database server: sessions, statement dispatch, cost accounting.
#[derive(Debug)]
pub struct DbServer {
    db: Arc<Database>,
    sessions: Mutex<FxHashMap<u64, Session>>,
    next_session: AtomicU64,
    cost: DbCostModel,
    clock: Arc<Clock>,
    metrics: DbServerMetrics,
    tracer: OnceLock<Arc<Tracer>>,
    /// The `batch:{n}` span classes handed out so far, at index `n`: a
    /// batch's class is shared the way a statement's is through its cached
    /// plan. Only the first [`SHARED_BATCH_CLASSES`] sizes are kept.
    batch_classes: Mutex<Vec<Arc<str>>>,
    /// The strings the server's statement parameters were read as: a
    /// parameter the server read before is another handle on it.
    strings: Arc<StrTable>,
}

/// Batch sizes whose span class is kept for sharing; a larger batch (the
/// count comes off the wire) formats its own.
const SHARED_BATCH_CLASSES: usize = 64;

impl DbServer {
    /// Wraps `db` in a wire server charging CPU costs to `clock`.
    pub fn new(db: Arc<Database>, clock: Arc<Clock>, cost: DbCostModel) -> Arc<DbServer> {
        Arc::new(DbServer {
            db,
            sessions: Mutex::new(FxHashMap::default()),
            next_session: AtomicU64::new(1),
            cost,
            clock,
            metrics: DbServerMetrics::default(),
            tracer: OnceLock::new(),
            batch_classes: Mutex::new(Vec::new()),
            strings: StrTable::shared(),
        })
    }

    /// Attaches a tracer: every dispatched operation then records a server
    /// span (`db.stmt` leaves for statements, `db.txn.*` for transaction
    /// bracketing, `db.open`/`db.close` for sessions) in the trace carried
    /// by the request frame.
    ///
    /// # Panics
    /// Panics if a tracer is already attached: it is set once, while the
    /// server is being wired up, so that dispatch reads it without a lock.
    pub fn set_tracer(&self, tracer: Arc<Tracer>) {
        assert!(
            self.tracer.set(tracer).is_ok(),
            "a server's tracer is attached once"
        );
    }

    /// The server's wire-level statement metrics.
    pub fn metrics(&self) -> &DbServerMetrics {
        &self.metrics
    }

    /// The wrapped database (for seeding and assertions in tests).
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    /// Number of currently open sessions.
    pub fn session_count(&self) -> usize {
        self.sessions.lock().len()
    }

    /// Charges `cost` of database work to the clock at the database's
    /// what-if speed, returning the microseconds actually charged. Spans
    /// and the `statement_us`/`batch_us` histograms record that value, so
    /// the trace conservation law holds under what-if experiments too.
    fn charge(&self, cost: SimDuration) -> u64 {
        self.clock.charge(Resource::BackendDb, cost).as_micros()
    }

    fn dispatch(&self, request: &mut Reader, header: &FrameHeader) -> DbResult<Bytes> {
        let op = request.get_u8().map_err(wire_err)?;
        let span_op = match op {
            OP_OPEN => "db.open",
            OP_CLOSE => "db.close",
            OP_BEGIN => "db.txn.begin",
            OP_COMMIT => "db.txn.commit",
            OP_ROLLBACK => "db.txn.rollback",
            OP_EXEC_BATCH => "db.batch",
            _ => "db.stmt",
        };
        let Some(tracer) = self.tracer.get() else {
            return self.run_op(op, request, None, header);
        };
        let span = tracer.begin_rpc_server(span_op, header.trace_id);
        let start_us = self.now_us();
        // The statement class labels the span, so it is read only when a
        // span is being recorded.
        let mut class = None;
        let result = self.run_op(op, request, Some(&mut class), header);
        let outcome = if result.is_ok() {
            SpanOutcome::Committed
        } else {
            SpanOutcome::Error
        };
        // A statement that failed before it was read carries the empty class.
        let detail = (op == OP_EXEC || op == OP_EXEC_BATCH).then(|| SpanDetail::Statement {
            class: class.unwrap_or_else(|| "".into()),
        });
        tracer.finish_with(span, 0, 0, start_us, self.now_us(), outcome, detail);
        result
    }

    fn now_us(&self) -> u64 {
        self.clock.now().as_micros()
    }

    /// The span class of a batch of `count` statements, `batch:{count}`.
    fn batch_class(&self, count: usize) -> Arc<str> {
        if count >= SHARED_BATCH_CLASSES {
            return format!("batch:{count}").into();
        }
        let mut classes = self.batch_classes.lock();
        while classes.len() <= count {
            let class = format!("batch:{}", classes.len());
            classes.push(class.into());
        }
        Arc::clone(&classes[count])
    }

    /// Reads the optional trailing commit-stamp section a
    /// [`RemoteConnection`] appends after a frame's payload and forwards
    /// it to the session. A frame that ends here carries no stamp. A
    /// section that is there must be whole: running the statement
    /// unstamped would leave its WAL commit record without the identity
    /// that stops a retry after a crash from applying twice.
    fn read_stamp(request: &mut Reader, conn: &mut Connection) -> DbResult<()> {
        if !request.is_empty() && request.get_bool().map_err(wire_err)? {
            let origin = request.get_u32().map_err(wire_err)?;
            let txn_id = request.get_u64().map_err(wire_err)?;
            conn.stamp_next_commit(origin, txn_id);
        }
        Ok(())
    }

    /// Reads `count` statements — each a package name, SQL text and
    /// parameters — of an `OP_EXEC` or `OP_EXEC_BATCH` frame into the
    /// session's scratch. The package name is checked and skipped; the
    /// text is read where it lies in the frame. Nothing is reserved for a
    /// count off the wire: the scratch grows by what the frame's bytes
    /// actually hold.
    fn read_statements(request: &mut Reader, count: usize, session: &mut Session) -> DbResult<()> {
        for _ in 0..count {
            request.skip_str().map_err(wire_err)?;
            let sql = request.get_str_view().map_err(wire_err)?;
            let n = request.get_u32().map_err(wire_err)?;
            let start = session.params.len();
            for _ in 0..n {
                session
                    .params
                    .push(Value::decode(request).map_err(wire_err)?);
            }
            session.statements.push((sql, start..session.params.len()));
        }
        Ok(())
    }

    /// Runs the statements of an `OP_EXEC` (one) or `OP_EXEC_BATCH` (a
    /// counted list) frame on `session` and writes the reply's body: the
    /// one result, or the executed prefix's results under a count filled
    /// in afterwards, then the error that stopped the batch. Each result is
    /// encoded as its statement finishes.
    fn run_statements(
        &self,
        op: u8,
        request: &mut Reader,
        session: &mut Session,
        class: Option<&mut Option<Arc<str>>>,
        per_request_us: u64,
        w: &mut Writer,
    ) -> DbResult<()> {
        let count = if op == OP_EXEC {
            1
        } else {
            request.get_u32().map_err(wire_err)? as usize
        };
        Self::read_statements(request, count, session)?;
        let Session {
            conn,
            statements,
            params,
            ..
        } = session;
        Self::read_stamp(request, conn)?;
        if op == OP_EXEC {
            let (sql, range) = &statements[0];
            let rs = conn.execute_classed(sql, &params[range.clone()], class)?;
            let row_us = self.charge(self.cost.per_row.saturating_mul(rs.len() as u64));
            self.metrics.statements.inc();
            self.metrics.statement_us.record(per_request_us + row_us);
            rs.encode(w);
            return Ok(());
        }
        if let Some(class) = class {
            *class = Some(self.batch_class(count));
        }
        // One per_request charge (taken by the caller) covers the whole
        // frame; rows still cost per_row each, so the db.batch span's
        // duration decomposes exactly into what the clock was charged.
        let mut total_us = per_request_us;
        let executed_at = w.put_u32_later();
        let mut executed = 0u32;
        let mut first_err: Option<DbError> = None;
        for (sql, range) in statements.iter() {
            match conn.execute_classed(sql, &params[range.clone()], None) {
                Ok(rs) => {
                    total_us += self.charge(self.cost.per_row.saturating_mul(rs.len() as u64));
                    self.metrics.statements.inc();
                    rs.encode(w);
                    executed += 1;
                }
                Err(e) => {
                    // Stop at the first failure: statements after it never
                    // run, mirroring the unbatched loop this replaces.
                    first_err = Some(e);
                    break;
                }
            }
        }
        w.patch_u32(executed_at, executed);
        self.metrics.batches.inc();
        self.metrics.batch_statements.record(u64::from(executed));
        self.metrics.batch_us.record(total_us);
        w.put_bool(first_err.is_some());
        if let Some(e) = &first_err {
            encode_db_error(w, e);
        }
        Ok(())
    }

    /// Runs one operation and returns its reply, finished under the
    /// request's correlation and trace id. A session's reply is written in
    /// the session's kept buffer, and finished while the session is held.
    fn run_op(
        &self,
        op: u8,
        request: &mut Reader,
        class: Option<&mut Option<Arc<str>>>,
        header: &FrameHeader,
    ) -> DbResult<Bytes> {
        let per_request_us = self.charge(self.cost.per_request);
        let finish =
            |w: Writer| w.finish_frame_keeping(protocol::JDBC, header.correlation, header.trace_id);
        match op {
            OP_OPEN => {
                let id = self.next_session.fetch_add(1, Ordering::Relaxed);
                let session = Session {
                    conn: self.db.connect(),
                    statements: Vec::new(),
                    params: Vec::new(),
                    reply: BytesMut::new(),
                };
                self.sessions.lock().insert(id, session);
                let mut w = ok_reply(Writer::framed());
                w.put_u64(id);
                Ok(finish(w).0)
            }
            OP_CLOSE => {
                let session = request.get_u64().map_err(wire_err)?;
                self.sessions.lock().remove(&session);
                Ok(finish(ok_reply(Writer::framed())).0)
            }
            OP_BEGIN | OP_EXEC | OP_EXEC_BATCH | OP_COMMIT | OP_ROLLBACK => {
                let session = request.get_u64().map_err(wire_err)?;
                let mut sessions = self.sessions.lock();
                let session = sessions
                    .get_mut(&session)
                    .ok_or_else(|| DbError::Remote(format!("no session {session}")))?;
                let mut w = ok_reply(Writer::framed_in(std::mem::take(&mut session.reply)));
                let conn = &mut session.conn;
                match op {
                    OP_BEGIN => conn.begin()?,
                    OP_COMMIT => {
                        if let Err(e) = Self::read_stamp(request, conn) {
                            // A commit attempt finishes the transaction win
                            // or lose; the client will not roll it back.
                            let _ = conn.rollback();
                            return Err(e);
                        }
                        conn.commit()?
                    }
                    // Idempotent, like real drivers: a commit attempt always
                    // finishes the server-side transaction (even when it
                    // fails), so a client cleaning up after a failed commit
                    // must not be punished with NoTransaction.
                    OP_ROLLBACK => match conn.rollback() {
                        Err(DbError::NoTransaction) => {}
                        other => other?,
                    },
                    _ => {
                        let ran = self.run_statements(
                            op,
                            request,
                            session,
                            class,
                            per_request_us,
                            &mut w,
                        );
                        // The views pin the request frame: let it go with
                        // the call, and keep only the scratch's room.
                        session.statements.clear();
                        session.params.clear();
                        ran?;
                    }
                }
                let (reply, kept) = finish(w);
                session.reply = kept;
                Ok(reply)
            }
            other => Err(DbError::Remote(format!("unknown opcode {other}"))),
        }
    }
}

/// Starts a `STATUS_OK` reply in `w`, with its DRDA-style SQL
/// communications area: SQLSTATE, SQLCODE, warning flags and message
/// tokens accompany every reply on the real wire.
fn ok_reply(mut w: Writer) -> Writer {
    w.put_u8(STATUS_OK).put_bytes(&SQLCA_OK);
    w
}

/// Starts a `STATUS_ERR` reply carrying `e`.
fn error_reply(e: &DbError) -> Writer {
    let mut w = Writer::framed();
    w.put_u8(STATUS_ERR);
    encode_db_error(&mut w, e);
    w
}

impl Service for DbServer {
    fn handle(&self, request: Bytes) -> Bytes {
        let (header, payload) = match unframe(request) {
            Ok(x) => x,
            Err(e) => return error_reply(&wire_err(e)).finish_frame(protocol::JDBC, 0, 0),
        };
        self.dispatch(&mut Reader::sharing(payload, &self.strings), &header)
            .unwrap_or_else(|e| {
                error_reply(&e).finish_frame(protocol::JDBC, header.correlation, header.trace_id)
            })
    }
}

/// Writes one statement of an `OP_EXEC` or `OP_EXEC_BATCH` frame, as
/// [`DbServer::read_statements`] reads it. DRDA identifies the prepared
/// package/section alongside the text.
fn put_statement(w: &mut Writer, sql: &str, params: &[Value]) {
    w.put_str("NULLID.SYSSH200").put_str(sql);
    w.put_u32(params.len() as u32);
    for p in params {
        p.encode(w);
    }
}

/// A JDBC-style connection reached across a simulated network path.
///
/// Every call is one round trip on the path; this is the component whose
/// per-statement crossings give the ES/RDB architecture its steep latency
/// sensitivity in the paper.
#[derive(Debug)]
pub struct RemoteConnection {
    remote: Remote<Arc<DbServer>>,
    session: u64,
    in_txn: bool,
    /// A transport failure left it unknown whether the server still holds
    /// a transaction on this session (a `BEGIN` whose reply was lost opened
    /// one; a `COMMIT` or `ROLLBACK` that never arrived left one open). The
    /// next `BEGIN` or autocommitted statement first sends a `ROLLBACK`.
    in_doubt: bool,
    /// Whether `execute_batch` ships one `OP_EXEC_BATCH` frame (true, the
    /// default, the paper's §4.4 conjecture) or sends one round trip per
    /// statement, the paper's wire.
    batching: bool,
    /// `(origin, txn_id)` commit identity announced via
    /// [`SqlConnection::stamp_next_commit`], shipped as a trailing section
    /// on the next statement/commit frame so the server-side session can
    /// record it in the WAL commit record.
    pending_stamp: Option<(u32, u64)>,
    correlation: std::sync::atomic::AtomicU64,
    /// The buffer the connection's requests are written in, between calls
    /// (see [`Writer::framed_in`]).
    request: BytesMut,
    /// The strings the connection's replies were read as: a result cell
    /// the connection read before is another handle on it.
    strings: Arc<StrTable>,
    /// The column headers of the results the connection read, so a result
    /// does not pin its reply frame.
    headers: HeaderTable,
}

impl RemoteConnection {
    /// Opens a session on the remote server (one setup round trip).
    ///
    /// # Errors
    /// Fails if the server rejects the open or the response is malformed.
    pub fn open(remote: Remote<Arc<DbServer>>) -> DbResult<RemoteConnection> {
        let mut w = Writer::framed();
        w.put_u8(OP_OPEN);
        // OP_OPEN allocates a server-side session, so blind resends would
        // leak sessions: one attempt only, like every other JDBC exchange.
        let framed = w.finish_frame(protocol::JDBC, 0, remote.current_trace_id());
        let resp = remote
            .call_once(framed)
            .map_err(|e| DbError::Unavailable(e.to_string()))?;
        let mut r = Self::open_response(resp)?;
        match r.get_u8().map_err(wire_err)? {
            STATUS_OK => {
                r.get_bytes().map_err(wire_err)?; // SQLCA
                let session = r.get_u64().map_err(wire_err)?;
                Ok(RemoteConnection {
                    remote,
                    session,
                    in_txn: false,
                    in_doubt: false,
                    batching: true,
                    pending_stamp: None,
                    correlation: std::sync::atomic::AtomicU64::new(1),
                    request: BytesMut::new(),
                    strings: StrTable::shared(),
                    headers: HeaderTable::new(),
                })
            }
            _ => Err(decode_db_error(&mut r).unwrap_or_else(wire_err)),
        }
    }

    fn open_response(resp: Bytes) -> DbResult<Reader> {
        let (_, payload) = unframe(resp).map_err(wire_err)?;
        Ok(Reader::new(payload))
    }

    fn next_correlation(&self) -> u64 {
        self.correlation
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    }

    /// Starts an `op` request on this session in the connection's kept
    /// buffer.
    fn start_request(&mut self, op: u8) -> Writer {
        let mut w = Writer::framed_in(std::mem::take(&mut self.request));
        w.put_u8(op).put_u64(self.session);
        w
    }

    /// One round trip: closes the request `w` under the next correlation
    /// id and the caller's trace, keeps its buffer, and opens the reply.
    fn exchange(&mut self, w: Writer) -> DbResult<Reader> {
        let (framed, kept) = w.finish_frame_keeping(
            protocol::JDBC,
            self.next_correlation(),
            self.remote.current_trace_id(),
        );
        self.request = kept;
        // A JDBC statement is not idempotent (an INSERT resent after a lost
        // response would run twice), so the transport must not retry: a
        // delivery failure surfaces as Unavailable and aborts the enclosing
        // transaction.
        let resp = self.remote.call_once(framed).map_err(|e| {
            self.in_doubt = true;
            DbError::Unavailable(e.to_string())
        })?;
        let (_, payload) = unframe(resp).map_err(wire_err)?;
        let mut r = Reader::sharing(payload, &self.strings);
        match r.get_u8().map_err(wire_err)? {
            STATUS_OK => {
                r.get_bytes().map_err(wire_err)?; // SQLCA
                Ok(r)
            }
            _ => Err(decode_db_error(&mut r).unwrap_or_else(wire_err)),
        }
    }

    fn simple_call(&mut self, op: u8) -> DbResult<()> {
        let w = self.start_request(op);
        self.exchange(w)?;
        Ok(())
    }

    /// Before a `BEGIN` or an autocommitted statement: if a transport
    /// failure left a server-side transaction possibly open, rolls it back
    /// (the server treats a `ROLLBACK` with none open as done). Inside an
    /// open transaction, and on a session that never lost a frame, sends
    /// nothing.
    fn settle(&mut self) -> DbResult<()> {
        if self.in_doubt && !self.in_txn {
            self.simple_call(OP_ROLLBACK)?;
            self.in_doubt = false;
        }
        Ok(())
    }

    /// Appends the pending commit stamp (if any) as a trailing
    /// `true, origin, txn_id` section and clears it — frames without a
    /// stamp are byte-identical to the pre-WAL protocol.
    fn put_stamp(&mut self, w: &mut Writer) {
        if let Some((origin, txn_id)) = self.pending_stamp.take() {
            w.put_bool(true).put_u32(origin).put_u64(txn_id);
        }
    }

    /// Enables or disables wire batching. With batching off,
    /// `execute_batch` sends one round trip per statement, the paper's
    /// wire, which every published measurement runs; batching on is the
    /// §4.4 conjecture that the batching ablations measure.
    pub fn set_batching(&mut self, enabled: bool) {
        self.batching = enabled;
    }

    /// Whether `execute_batch` currently ships one frame per batch.
    pub fn batching(&self) -> bool {
        self.batching
    }
}

impl SqlConnection for RemoteConnection {
    fn begin(&mut self) -> DbResult<()> {
        if self.in_txn {
            return Err(DbError::AlreadyInTransaction);
        }
        self.settle()?;
        self.simple_call(OP_BEGIN)?;
        self.in_txn = true;
        Ok(())
    }

    fn execute(&mut self, sql: &str, params: &[Value]) -> DbResult<ResultSet> {
        self.settle()?;
        let mut w = self.start_request(OP_EXEC);
        put_statement(&mut w, sql, params);
        self.put_stamp(&mut w);
        let mut r = self.exchange(w)?;
        ResultSet::decode_with(&mut r, Some(&mut self.headers)).map_err(wire_err)
    }

    fn commit(&mut self) -> DbResult<()> {
        if !self.in_txn {
            return Err(DbError::NoTransaction);
        }
        // A commit attempt finishes the transaction win or lose: the
        // server-side connection consumes its txn before applying, so after
        // an error there is nothing left to roll back. Keeping `in_txn` set
        // here would wedge the connection — every later `begin` would fail
        // with AlreadyInTransaction.
        self.in_txn = false;
        let mut w = self.start_request(OP_COMMIT);
        self.put_stamp(&mut w);
        self.exchange(w)?;
        Ok(())
    }

    fn rollback(&mut self) -> DbResult<()> {
        if !self.in_txn {
            return Err(DbError::NoTransaction);
        }
        // Like a commit, a rollback attempt finishes the transaction on
        // this side win or lose; a lost exchange leaves the session in
        // doubt, and the next BEGIN settles it.
        self.in_txn = false;
        self.pending_stamp = None;
        self.simple_call(OP_ROLLBACK)?;
        self.in_doubt = false;
        Ok(())
    }

    fn in_transaction(&self) -> bool {
        self.in_txn
    }

    fn stamp_next_commit(&mut self, origin: u32, txn_id: u64) {
        // txn_id 0 is the dedup-bypass sentinel: clear, don't record.
        self.pending_stamp = if txn_id == 0 {
            None
        } else {
            Some((origin, txn_id))
        };
    }

    /// Ships the whole batch as a single `OP_EXEC_BATCH` frame: one round
    /// trip for K statements, against K round trips for the default
    /// per-statement loop. Statement errors come back inside the frame
    /// (with the executed prefix's result sets), so they land in the
    /// [`BatchOutcome`] exactly like the local implementation's.
    fn execute_batch(&mut self, statements: &[BatchStatement]) -> DbResult<BatchOutcome> {
        if statements.is_empty() {
            return Ok(BatchOutcome {
                results: Vec::new(),
                error: None,
            });
        }
        if !self.batching {
            // Ablation mode: every statement pays its own wire round trip.
            return Ok(crate::execute_each(self, statements));
        }
        self.settle()?;
        let mut w = self.start_request(OP_EXEC_BATCH);
        w.put_u32(statements.len() as u32);
        for stmt in statements {
            put_statement(&mut w, &stmt.sql, &stmt.params);
        }
        self.put_stamp(&mut w);
        let mut r = self.exchange(w)?;
        let executed = r.get_u32().map_err(wire_err)? as usize;
        // As many results as the remaining bytes can hold, whatever the
        // count says.
        let room = r.remaining() / result::MIN_ENCODED_LEN;
        let mut results = Vec::with_capacity(executed.min(room));
        for _ in 0..executed {
            let result = ResultSet::decode_with(&mut r, Some(&mut self.headers));
            results.push(result.map_err(wire_err)?);
        }
        let failed = r.get_bool().map_err(wire_err)?;
        let error = if failed {
            Some(decode_db_error(&mut r).unwrap_or_else(wire_err))
        } else {
            None
        };
        Ok(BatchOutcome { results, error })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sli_simnet::wire::frame;
    use sli_simnet::{Fault, Path, PathSpec};

    fn setup() -> (
        Arc<Clock>,
        Arc<sli_simnet::Path>,
        RemoteConnection,
        Arc<DbServer>,
    ) {
        let db = Database::new();
        db.execute_ddl("CREATE TABLE t (a INT PRIMARY KEY, b VARCHAR)")
            .unwrap();
        let clock = Arc::new(Clock::new());
        let server = DbServer::new(db, Arc::clone(&clock), DbCostModel::default());
        let path = Path::new("edge-db", Arc::clone(&clock), PathSpec::lan());
        let conn =
            RemoteConnection::open(Remote::new(Arc::clone(&path), Arc::clone(&server))).unwrap();
        (clock, path, conn, server)
    }

    #[test]
    fn remote_round_trip() {
        let (_clock, path, mut conn, _server) = setup();
        path.reset_stats();
        conn.execute(
            "INSERT INTO t (a, b) VALUES (?, ?)",
            &[Value::from(1), Value::from("hello")],
        )
        .unwrap();
        let rs = conn
            .execute("SELECT b FROM t WHERE a = ?", &[Value::from(1)])
            .unwrap();
        assert_eq!(rs.rows()[0][0], Value::from("hello"));
        assert_eq!(path.stats().round_trips(), 2);
    }

    #[test]
    fn a_lost_begin_reply_does_not_wedge_the_session() {
        let (_clock, path, mut conn, server) = setup();
        let db = Arc::clone(server.database());
        db.connect()
            .execute("INSERT INTO t (a, b) VALUES (1, 'x')", &[])
            .unwrap();
        let seq = db.commit_seq();
        // The server opens a transaction; the client never hears of it.
        path.script_faults([Some(Fault::DropResponse)]);
        assert!(matches!(conn.begin(), Err(DbError::Unavailable(_))));
        assert!(!conn.in_transaction());
        // An autocommitted statement commits on its own, not inside the
        // transaction the lost reply left open.
        conn.execute("UPDATE t SET b = 'y' WHERE a = 1", &[])
            .unwrap();
        assert_eq!(db.commit_seq(), seq + 1);
        let rs = db
            .connect()
            .execute("SELECT b FROM t WHERE a = 1", &[])
            .unwrap();
        assert_eq!(rs.rows()[0][0], Value::from("y"));
        conn.begin().unwrap();
        conn.commit().unwrap();
    }

    #[test]
    fn a_lost_rollback_ends_the_transaction_on_both_sides() {
        let (_clock, path, mut conn, server) = setup();
        conn.begin().unwrap();
        conn.execute("INSERT INTO t (a, b) VALUES (1, 'x')", &[])
            .unwrap();
        // The ROLLBACK never reaches the server, which keeps the insert.
        path.script_faults([Some(Fault::DropRequest)]);
        assert!(matches!(conn.rollback(), Err(DbError::Unavailable(_))));
        assert!(!conn.in_transaction());
        // The next BEGIN rolls the server's transaction back first.
        conn.begin().unwrap();
        conn.commit().unwrap();
        assert_eq!(server.database().row_count("t").unwrap(), 0);
        assert_eq!(server.database().lock_manager().lock_count(), 0);
    }

    #[test]
    fn each_statement_is_one_round_trip_with_delay() {
        let (clock, path, mut conn, _server) = setup();
        path.set_proxy_delay(SimDuration::from_millis(40));
        let t0 = clock.now();
        conn.execute("INSERT INTO t (a, b) VALUES (1, 'x')", &[])
            .unwrap();
        let elapsed = clock.now() - t0;
        // at least two 40ms crossings
        assert!(elapsed.as_micros() >= 80_000, "elapsed {elapsed}");
    }

    #[test]
    fn wire_statements_record_db_stmt_spans_and_metrics() {
        let db = Database::new();
        db.execute_ddl("CREATE TABLE t (a INT PRIMARY KEY, b VARCHAR)")
            .unwrap();
        let clock = Arc::new(Clock::new());
        let server = DbServer::new(db, Arc::clone(&clock), DbCostModel::default());
        let log = Arc::new(sli_telemetry::TraceLog::with_capacity(64));
        let tracer = Arc::new(Tracer::new(Arc::clone(&log)));
        server.set_tracer(Arc::clone(&tracer));
        let path = Path::new("edge-db", Arc::clone(&clock), PathSpec::lan());
        let remote =
            Remote::new(Arc::clone(&path), Arc::clone(&server)).with_tracer(Arc::clone(&tracer));
        let mut conn = RemoteConnection::open(remote).unwrap();
        conn.execute("INSERT INTO t (a, b) VALUES (1, 'x')", &[])
            .unwrap();
        conn.execute("SELECT b FROM t WHERE a = 1", &[]).unwrap();
        let stmts: Vec<_> = log
            .events()
            .into_iter()
            .filter(|e| e.op == "db.stmt")
            .collect();
        assert_eq!(stmts.len(), 2);
        // no rows returned: per_request only
        assert_eq!(stmts[0].duration_us(), 400);
        // one row returned: per_request + per_row
        assert_eq!(stmts[1].duration_us(), 425);
        let classes: Vec<_> = stmts
            .iter()
            .map(|e| match &e.detail {
                Some(SpanDetail::Statement { class }) => &**class,
                other => panic!("expected statement detail, got {other:?}"),
            })
            .collect();
        assert_eq!(classes, ["t.create", "t.read"]);
        // Each statement span joins the client call's trace as a child of
        // the in-process RPC span, never as a detached root.
        for e in &stmts {
            assert_ne!(e.trace_id, 0);
            assert_ne!(e.parent_span_id, 0);
        }
        let m = server.metrics();
        assert_eq!(m.statements.get(), 2);
        assert_eq!(m.statement_us.count(), 2);
        assert_eq!(m.statement_us.sum(), 825);
        let telemetry = Registry::new();
        m.register_with(&telemetry, "db.stmt");
        assert_eq!(
            telemetry.snapshot()["db.stmt.statements"],
            sli_telemetry::MetricValue::Counter(2)
        );
        telemetry.reset_all();
        assert_eq!(m.statement_us.count(), 0);
    }

    #[test]
    fn batched_statements_are_one_round_trip() {
        let (_clock, path, mut conn, server) = setup();
        path.reset_stats();
        let out = conn
            .execute_batch(&[
                BatchStatement::new(
                    "INSERT INTO t (a, b) VALUES (?, ?)",
                    vec![Value::from(1), Value::from("x")],
                ),
                BatchStatement::new(
                    "INSERT INTO t (a, b) VALUES (?, ?)",
                    vec![Value::from(2), Value::from("y")],
                ),
                BatchStatement::new("SELECT b FROM t WHERE a = ?", vec![Value::from(2)]),
            ])
            .unwrap();
        assert_eq!(path.stats().round_trips(), 1, "K statements, one frame");
        assert!(out.error.is_none());
        assert_eq!(out.results.len(), 3);
        assert_eq!(out.results[2].rows()[0][0], Value::from("y"));
        assert_eq!(server.database().row_count("t").unwrap(), 2);
        // An empty batch never touches the wire.
        let before = path.stats().round_trips();
        let out = conn.execute_batch(&[]).unwrap();
        assert!(out.results.is_empty() && out.error.is_none());
        assert_eq!(path.stats().round_trips(), before);
    }

    #[test]
    fn batch_stops_at_first_error_with_prefix_results() {
        let (_clock, _path, mut conn, server) = setup();
        conn.execute("INSERT INTO t (a, b) VALUES (1, 'x')", &[])
            .unwrap();
        let out = conn
            .execute_batch(&[
                BatchStatement::new("SELECT b FROM t WHERE a = 1", Vec::new()),
                BatchStatement::new("INSERT INTO t (a, b) VALUES (1, 'dup')", Vec::new()),
                BatchStatement::new("INSERT INTO t (a, b) VALUES (9, 'never')", Vec::new()),
            ])
            .unwrap();
        assert_eq!(out.results.len(), 1, "only the prefix before the error ran");
        assert!(matches!(out.error, Some(DbError::DuplicateKey(_))));
        assert!(out.clone().into_result().is_err());
        assert_eq!(
            server.database().row_count("t").unwrap(),
            1,
            "statements after the failure never execute"
        );
    }

    #[test]
    fn batches_record_db_batch_spans_and_metrics() {
        let db = Database::new();
        db.execute_ddl("CREATE TABLE t (a INT PRIMARY KEY, b VARCHAR)")
            .unwrap();
        let clock = Arc::new(Clock::new());
        let server = DbServer::new(db, Arc::clone(&clock), DbCostModel::default());
        let log = Arc::new(sli_telemetry::TraceLog::with_capacity(64));
        let tracer = Arc::new(Tracer::new(Arc::clone(&log)));
        server.set_tracer(Arc::clone(&tracer));
        let path = Path::new("edge-db", Arc::clone(&clock), PathSpec::lan());
        let remote =
            Remote::new(Arc::clone(&path), Arc::clone(&server)).with_tracer(Arc::clone(&tracer));
        let mut conn = RemoteConnection::open(remote).unwrap();
        conn.execute_batch(&[
            BatchStatement::new("INSERT INTO t (a, b) VALUES (1, 'x')", Vec::new()),
            BatchStatement::new("SELECT b FROM t WHERE a = 1", Vec::new()),
        ])
        .unwrap();
        let batches: Vec<_> = log
            .events()
            .into_iter()
            .filter(|e| e.op == "db.batch")
            .collect();
        assert_eq!(batches.len(), 1);
        // One shared per_request (400) + one returned row (25): the span
        // covers exactly what the clock was charged, so trace bucket sums
        // still decompose.
        assert_eq!(batches[0].duration_us(), 425);
        match &batches[0].detail {
            Some(SpanDetail::Statement { class }) => assert_eq!(&**class, "batch:2"),
            other => panic!("expected statement detail, got {other:?}"),
        }
        let m = server.metrics();
        assert_eq!(m.batches.get(), 1);
        assert_eq!(m.batch_statements.sum(), 2);
        assert_eq!(m.batch_us.sum(), 425);
        assert_eq!(m.statements.get(), 2, "batched statements still count");
        assert_eq!(m.statement_us.count(), 0, "no single-statement frames");
        let telemetry = Registry::new();
        m.register_with(&telemetry, "db.stmt");
        assert_eq!(
            telemetry.snapshot()["db.stmt.batches"],
            sli_telemetry::MetricValue::Counter(1)
        );
        telemetry.reset_all();
        assert_eq!(m.batch_statements.count(), 0);
    }

    #[test]
    fn cost_scale_halves_every_db_charge() {
        let (clock, _path, mut conn, server) = setup();
        conn.execute("INSERT INTO t (a, b) VALUES (1, 'x')", &[])
            .unwrap();
        clock.set_speedup(Resource::Wire, 1e6); // silence the wire; measure db cpu only
        let t0 = clock.now();
        conn.execute("SELECT b FROM t WHERE a = 1", &[]).unwrap();
        let nominal = (clock.now() - t0).as_micros();
        assert_eq!(nominal, 425, "per_request 400 + one row at 25");
        clock.set_speedup(Resource::BackendDb, 2.0);
        let t0 = clock.now();
        conn.execute("SELECT b FROM t WHERE a = 1", &[]).unwrap();
        let scaled = (clock.now() - t0).as_micros();
        assert_eq!(scaled, 213, "200 + 13: each charge rounds to nearest");
        // The recorded histogram carries the scaled charge, so metric sums
        // keep matching clock time under what-if experiments.
        // Insert (no rows) 400, nominal select 425, scaled select 213.
        assert_eq!(server.metrics().statement_us.sum(), 400 + 425 + 213);
    }

    #[test]
    fn disabled_batching_pays_one_round_trip_per_statement() {
        let (_clock, path, mut conn, server) = setup();
        assert!(conn.batching());
        conn.set_batching(false);
        path.reset_stats();
        let out = conn
            .execute_batch(&[
                BatchStatement::new("INSERT INTO t (a, b) VALUES (1, 'x')", Vec::new()),
                BatchStatement::new("INSERT INTO t (a, b) VALUES (1, 'dup')", Vec::new()),
                BatchStatement::new("INSERT INTO t (a, b) VALUES (9, 'never')", Vec::new()),
            ])
            .unwrap();
        assert_eq!(
            path.stats().round_trips(),
            2,
            "unbatched: one crossing per statement, stopping at the failure"
        );
        assert_eq!(out.results.len(), 1);
        assert!(matches!(out.error, Some(DbError::DuplicateKey(_))));
        assert_eq!(server.metrics().batches.get(), 0, "no batch frames sent");
        assert_eq!(server.database().row_count("t").unwrap(), 1);
    }

    #[test]
    fn remote_transactions() {
        let (_clock, _path, mut conn, server) = setup();
        conn.begin().unwrap();
        assert!(conn.in_transaction());
        conn.execute("INSERT INTO t (a, b) VALUES (1, 'x')", &[])
            .unwrap();
        conn.rollback().unwrap();
        assert_eq!(server.database().row_count("t").unwrap(), 0);

        conn.begin().unwrap();
        conn.execute("INSERT INTO t (a, b) VALUES (1, 'x')", &[])
            .unwrap();
        conn.commit().unwrap();
        assert_eq!(server.database().row_count("t").unwrap(), 1);
    }

    #[test]
    fn errors_round_trip_with_variant() {
        let (_clock, _path, mut conn, _server) = setup();
        conn.execute("INSERT INTO t (a, b) VALUES (1, 'x')", &[])
            .unwrap();
        let err = conn
            .execute("INSERT INTO t (a, b) VALUES (1, 'x')", &[])
            .unwrap_err();
        assert!(matches!(err, DbError::DuplicateKey(_)));
        let err = conn.execute("SELECT * FROM ghost", &[]).unwrap_err();
        assert!(matches!(err, DbError::NoSuchTable(_)));
        let err = conn.commit().unwrap_err();
        assert_eq!(err, DbError::NoTransaction);
    }

    #[test]
    fn sessions_are_independent() {
        let (clock, _path, mut c1, server) = setup();
        let path2 = Path::new("edge2-db", clock, PathSpec::lan());
        let mut c2 = RemoteConnection::open(Remote::new(path2, Arc::clone(&server))).unwrap();
        assert_eq!(server.session_count(), 2);
        c1.begin().unwrap();
        c1.execute("INSERT INTO t (a, b) VALUES (1, 'x')", &[])
            .unwrap();
        // c2 sees nothing until c1 commits (it would block on the lock, so
        // just check row_count through the engine instead).
        assert_eq!(server.database().row_count("t").unwrap(), 1);
        c1.rollback().unwrap();
        let rs = c2.execute("SELECT COUNT(*) FROM t", &[]).unwrap();
        assert_eq!(rs.scalar(), Some(&Value::from(0)));
    }

    #[test]
    fn db_error_wire_round_trip_all_variants() {
        let variants = vec![
            DbError::Parse("p".into()),
            DbError::NoSuchTable("t".into()),
            DbError::NoSuchColumn("c".into()),
            DbError::DuplicateKey("k".into()),
            DbError::TypeMismatch("m".into()),
            DbError::ParamCount {
                expected: 2,
                actual: 3,
            },
            DbError::Deadlock,
            DbError::Blocked,
            DbError::AlreadyInTransaction,
            DbError::NoTransaction,
            DbError::AlreadyExists("x".into()),
            DbError::Remote("r".into()),
            DbError::Unavailable("u".into()),
        ];
        for e in variants {
            let mut w = Writer::new();
            encode_db_error(&mut w, &e);
            let mut r = Reader::new(w.finish());
            assert_eq!(decode_db_error(&mut r).unwrap(), e);
        }
    }

    #[test]
    fn unknown_session_is_remote_error() {
        let (_clock, path, _conn, server) = setup();
        let mut w = Writer::new();
        w.put_u8(OP_EXEC).put_u64(9999).put_str("NULLID.SYSSH200");
        w.put_str("SELECT 1");
        w.put_u32(0);
        let remote = Remote::new(path, server);
        let resp = remote.call(frame(protocol::JDBC, 7, &w.finish())).unwrap();
        let (header, payload) = unframe(resp).unwrap();
        assert_eq!(header.correlation, 7);
        let mut r = Reader::new(payload);
        assert_eq!(r.get_u8().unwrap(), STATUS_ERR);
        assert!(matches!(
            decode_db_error(&mut r).unwrap(),
            DbError::Remote(_)
        ));
    }

    #[test]
    fn truncated_commit_stamp_is_rejected_before_anything_runs() {
        const UPDATE: &str = "UPDATE t SET b = 'changed' WHERE a = 1";
        let (_clock, _path, mut conn, server) = setup();
        let db = Arc::clone(server.database());
        conn.execute("INSERT INTO t (a, b) VALUES (1, 'kept')", &[])
            .unwrap();
        db.attach_wal();
        let session = conn.session;
        let statement = |w: &mut Writer| {
            w.put_str("NULLID.SYSSH200").put_str(UPDATE).put_u32(0);
        };
        // A stamp section that announces itself (`true`) and then ends:
        // after the flag, and after the origin.
        for tail in [&[1u8][..], &[1, 0, 0, 0, 7]] {
            for op in [OP_EXEC, OP_EXEC_BATCH, OP_COMMIT] {
                let before = (db.wal_stats(), db.commit_seq());
                let mut w = Writer::new();
                w.put_u8(op).put_u64(session);
                match op {
                    OP_EXEC => statement(&mut w),
                    OP_EXEC_BATCH => {
                        w.put_u32(1);
                        statement(&mut w);
                    }
                    _ => {
                        conn.begin().unwrap();
                        conn.execute(UPDATE, &[]).unwrap();
                    }
                }
                for byte in tail {
                    w.put_u8(*byte);
                }
                let resp = server.handle(frame(protocol::JDBC, 1, &w.finish()));
                let mut r = Reader::new(unframe(resp).unwrap().1);
                assert_eq!(r.get_u8().unwrap(), STATUS_ERR, "op {op}");
                assert!(matches!(
                    decode_db_error(&mut r).unwrap(),
                    DbError::Remote(_)
                ));
                if op == OP_COMMIT {
                    // The hand-built frame went around the client, which
                    // still believes its transaction is open; the server
                    // has already rolled it back.
                    conn.rollback().unwrap();
                }
                assert_eq!((db.wal_stats(), db.commit_seq()), before, "op {op}");
                let rs = conn.execute("SELECT b FROM t WHERE a = 1", &[]).unwrap();
                assert_eq!(rs.rows()[0][0], Value::from("kept"), "op {op}");
            }
        }
        // The session is not wedged: its next transaction commits, stamped.
        conn.stamp_next_commit(7, 1);
        conn.begin().unwrap();
        conn.execute(UPDATE, &[]).unwrap();
        conn.commit().unwrap();
        assert_eq!(db.commit_seq(), 2);
        db.crash();
        assert_eq!(db.recover().unwrap().committed, vec![(7, 1)]);
    }

    #[test]
    fn a_reply_past_the_cap_leaves_no_buffer_past_the_cap() {
        use sli_simnet::wire::MAX_KEPT_CAPACITY;
        let (_clock, _path, mut conn, server) = setup();
        let session = conn.session;
        let kept = || server.sessions.lock()[&session].reply.capacity();
        let big = "x".repeat(MAX_KEPT_CAPACITY);
        // The request is past the cap too, on the connection's side.
        conn.execute(
            "INSERT INTO t (a, b) VALUES (?, ?)",
            &[Value::from(1), Value::from(big.as_str())],
        )
        .unwrap();
        assert!(conn.request.capacity() <= MAX_KEPT_CAPACITY);
        conn.execute("INSERT INTO t (a, b) VALUES (2, 'small')", &[])
            .unwrap();
        let small = |conn: &mut RemoteConnection| {
            let rs = conn.execute("SELECT b FROM t WHERE a = 2", &[]).unwrap();
            assert_eq!(rs.rows()[0][0], Value::from("small"));
        };
        small(&mut conn);
        let room = kept();
        assert!(room > 0, "a reply's buffer is kept");
        for _ in 0..2 {
            let rs = conn.execute("SELECT b FROM t WHERE a = 1", &[]).unwrap();
            assert_eq!(rs.rows()[0][0], Value::from(big.as_str()));
            assert!(kept() <= MAX_KEPT_CAPACITY, "kept {}", kept());
            small(&mut conn);
            assert_eq!(kept(), room, "the next reply keeps its own room");
        }
    }

    #[test]
    fn close_releases_session() {
        let (_clock, path, conn, server) = setup();
        let mut w = Writer::new();
        w.put_u8(OP_CLOSE).put_u64(conn.session);
        let remote = Remote::new(path, Arc::clone(&server));
        remote.call(frame(protocol::JDBC, 1, &w.finish())).unwrap();
        assert_eq!(server.session_count(), 0);
    }
}
