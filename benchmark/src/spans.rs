//! The wall-clock span recorder of the traced run, and the decorators that
//! record into it at the existing `dyn` seams.
//!
//! Spans go to a preallocated vector owned by the benchmark's one thread and
//! are folded after the measured phase ends. Nothing inside `crates/`
//! changes: a decorator wraps the trait object the layer above holds.

use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

use sli_component::{EjbRef, EjbResult, EntityMeta, Home, Memento, ResourceManager, TxContext};
use sli_core::{CommitOutcome, CommitRequest, Committer, EntryKind, StateSource};
use sli_datastore::{
    BatchOutcome, BatchStatement, DbResult, Predicate, ResultSet, SqlConnection, Value,
};
use sli_trade::{TradeAction, TradeEngine, TradeResult};

use crate::alloc;

/// The layer boundaries a span can sit at, outermost first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The whole request in the traced client: HTTP encode/parse and the
    /// client-path crossings around `AppServer::handle`.
    Client,
    /// `AppServer::handle`.
    Servlet,
    /// `TradeEngine::perform` (includes the `Container`).
    Engine,
    /// Any `Home` call.
    Home,
    /// `ResourceManager::commit`.
    RmCommit,
    /// `StateSource::{fetch, query}`.
    Source,
    /// `Committer::commit`.
    Commit,
    /// Any `SqlConnection` call: at the edge for the JDBC and the combined
    /// stack, the back-end's own connection for the split stack.
    Conn,
}

pub const LAYERS: usize = 8;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub layer: Layer,
    /// Index of the enclosing span, `u32::MAX` for a request's root.
    pub parent: u32,
    /// Index of the request the span belongs to.
    pub request: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Allocation counter at entry and exit.
    pub allocs_in: u64,
    pub allocs_out: u64,
}

/// One call on a decorated connection, kept when capture is on.
#[derive(Debug, Clone, PartialEq)]
pub enum ConnOp {
    Begin,
    Execute(String, Vec<Value>),
    Batch(Vec<BatchStatement>),
    Stamp(u32, u64),
    Commit,
    Rollback,
}

/// What the decorators copy out of the workload while capture is on: the
/// inputs of the layer drivers.
#[derive(Debug, Default)]
pub struct Capture {
    /// Every connection call in order, tagged with its connection.
    pub conn_ops: Vec<(u8, ConnOp)>,
    /// Results the engine handed to the page renderer.
    pub results: Vec<TradeResult>,
}

/// Commit entries the committer decorator saw, by kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EntryCounts {
    pub requests: u64,
    pub reads: u64,
    pub updates: u64,
    pub creates: u64,
    pub removes: u64,
}

impl EntryCounts {
    pub fn entries(&self) -> u64 {
        self.reads + self.updates + self.creates + self.removes
    }

    pub fn writes(&self) -> u64 {
        self.updates + self.creates + self.removes
    }

    /// Memento images carried: an update ships before and after.
    pub fn images(&self) -> u64 {
        self.entries() + self.updates
    }
}

struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    request: u32,
    statements: u64,
    entries: EntryCounts,
    capture: Option<Capture>,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder {
        origin: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
        request: 0,
        statements: 0,
        entries: EntryCounts::default(),
        capture: None,
    });
}

/// Empties the recorder and makes room for `capacity` spans, so recording
/// allocates nothing during a measured phase.
pub fn reset(capacity: usize) {
    RECORDER.with_borrow_mut(|r| {
        r.spans = Vec::with_capacity(capacity);
        r.open = Vec::with_capacity(64);
        r.request = 0;
        r.statements = 0;
        r.entries = EntryCounts::default();
    });
}

/// Switches capture on (with empty buffers) or off, returning what was
/// captured.
pub fn set_capture(on: bool) -> Option<Capture> {
    RECORDER.with_borrow_mut(|r| std::mem::replace(&mut r.capture, on.then(Capture::default)))
}

/// What a measured phase recorded.
pub struct Recorded {
    pub spans: Vec<Span>,
    pub statements: u64,
    pub entries: EntryCounts,
}

pub fn take() -> Recorded {
    RECORDER.with_borrow_mut(|r| Recorded {
        spans: std::mem::take(&mut r.spans),
        statements: r.statements,
        entries: r.entries,
    })
}

/// An open span; dropping it records the end.
pub struct Guard(u32);

/// Opens a span at `layer` under the innermost open span. A root span
/// ([`Layer::Client`]) starts the next request.
pub fn enter(layer: Layer) -> Guard {
    RECORDER.with_borrow_mut(|r| {
        let index = r.spans.len() as u32;
        let parent = r.open.last().copied().unwrap_or(u32::MAX);
        if layer == Layer::Client {
            r.request = r.request.wrapping_add(1);
        }
        r.open.push(index);
        r.spans.push(Span {
            layer,
            parent,
            request: r.request.wrapping_sub(1),
            start_ns: 0,
            end_ns: 0,
            allocs_in: alloc::allocs(),
            allocs_out: 0,
        });
        // The clock is read last on entry and first on exit, so the
        // recorder's own work lands in the parent's self time.
        r.spans[index as usize].start_ns = r.origin.elapsed().as_nanos() as u64;
        Guard(index)
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        RECORDER.with_borrow_mut(|r| {
            let end_ns = r.origin.elapsed().as_nanos() as u64;
            let span = &mut r.spans[self.0 as usize];
            span.end_ns = end_ns;
            span.allocs_out = alloc::allocs();
            r.open.pop();
        });
    }
}

fn count_statements(n: usize) {
    RECORDER.with_borrow_mut(|r| r.statements += n as u64);
}

fn capture(f: impl FnOnce(&mut Capture)) {
    RECORDER.with_borrow_mut(|r| {
        if let Some(c) = r.capture.as_mut() {
            f(c);
        }
    });
}

/// Self time and self allocations per layer over a set of spans: a span's
/// own share is its total minus what its child spans cover.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerSums {
    /// Self time of all layers as timed, nanoseconds: what the conservation
    /// law holds against the measured request times.
    pub raw_self_ns: f64,
    pub self_ns: [f64; LAYERS],
    pub total_ns: [f64; LAYERS],
    pub self_allocs: [f64; LAYERS],
    pub count: [u64; LAYERS],
}

impl LayerSums {
    /// Folds `spans`, dividing each span's times by `speed(request)` — the
    /// calibration factor of the segment its request ran in.
    pub fn fold(spans: &[Span], speed: impl Fn(u32) -> f64) -> LayerSums {
        let mut child_ns = vec![0u64; spans.len()];
        let mut child_allocs = vec![0u64; spans.len()];
        for s in spans {
            if s.parent != u32::MAX {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
                child_allocs[s.parent as usize] += s.allocs_out - s.allocs_in;
            }
        }
        let mut sums = LayerSums::default();
        for (i, s) in spans.iter().enumerate() {
            let l = s.layer as usize;
            let f = speed(s.request);
            let total = (s.end_ns - s.start_ns) as f64;
            sums.total_ns[l] += total / f;
            sums.raw_self_ns += total - child_ns[i] as f64;
            sums.self_ns[l] += (total - child_ns[i] as f64) / f;
            sums.self_allocs[l] += ((s.allocs_out - s.allocs_in) - child_allocs[i]) as f64;
            sums.count[l] += 1;
        }
        sums
    }

    pub fn self_ns(&self, layer: Layer) -> f64 {
        self.self_ns[layer as usize]
    }

    pub fn total_ns(&self, layer: Layer) -> f64 {
        self.total_ns[layer as usize]
    }

    pub fn self_allocs(&self, layer: Layer) -> f64 {
        self.self_allocs[layer as usize]
    }
}

/// Times `TradeEngine::perform`.
pub struct TimedEngine(pub Box<dyn TradeEngine>);

impl TradeEngine for TimedEngine {
    fn perform(&self, action: &TradeAction) -> EjbResult<TradeResult> {
        let _span = enter(Layer::Engine);
        let result = self.0.perform(action);
        if let Ok(r) = &result {
            capture(|c| c.results.push(r.clone()));
        }
        result
    }

    fn label(&self) -> &'static str {
        self.0.label()
    }
}

/// Times every `Home` call.
pub struct TimedHome(pub Arc<dyn Home>);

impl Home for TimedHome {
    fn meta(&self) -> &EntityMeta {
        self.0.meta()
    }

    fn create(&self, ctx: &mut TxContext, state: Memento) -> EjbResult<EjbRef> {
        let _span = enter(Layer::Home);
        self.0.create(ctx, state)
    }

    fn find_by_primary_key(&self, ctx: &mut TxContext, key: &Value) -> EjbResult<EjbRef> {
        let _span = enter(Layer::Home);
        self.0.find_by_primary_key(ctx, key)
    }

    fn find(&self, ctx: &mut TxContext, finder: &str, params: &[Value]) -> EjbResult<Vec<EjbRef>> {
        let _span = enter(Layer::Home);
        self.0.find(ctx, finder, params)
    }

    fn remove(&self, ctx: &mut TxContext, key: &Value) -> EjbResult<()> {
        let _span = enter(Layer::Home);
        self.0.remove(ctx, key)
    }

    fn get_field(&self, ctx: &mut TxContext, key: &Value, field: &str) -> EjbResult<Value> {
        let _span = enter(Layer::Home);
        self.0.get_field(ctx, key, field)
    }

    fn set_field(
        &self,
        ctx: &mut TxContext,
        key: &Value,
        field: &str,
        value: Value,
    ) -> EjbResult<()> {
        let _span = enter(Layer::Home);
        self.0.set_field(ctx, key, field, value)
    }

    fn flush(&self, ctx: &mut TxContext) -> EjbResult<()> {
        let _span = enter(Layer::Home);
        self.0.flush(ctx)
    }
}

/// Times `ResourceManager::commit`; `begin` and `rollback` pass through and
/// stay in the engine's self time, where the `Container` is.
pub struct TimedRm(pub Arc<dyn ResourceManager>);

impl ResourceManager for TimedRm {
    fn begin(&self, ctx: &mut TxContext) -> EjbResult<()> {
        self.0.begin(ctx)
    }

    fn commit(&self, ctx: &mut TxContext, homes: &[Arc<dyn Home>]) -> EjbResult<()> {
        let _span = enter(Layer::RmCommit);
        self.0.commit(ctx, homes)
    }

    fn rollback(&self, ctx: &mut TxContext) -> EjbResult<()> {
        self.0.rollback(ctx)
    }
}

/// Times `StateSource::{fetch, query}`.
pub struct TimedSource(pub Arc<dyn StateSource>);

impl StateSource for TimedSource {
    fn fetch(&self, bean: &str, key: &Value) -> EjbResult<Option<Memento>> {
        let _span = enter(Layer::Source);
        self.0.fetch(bean, key)
    }

    fn query(&self, bean: &str, predicate: &Predicate) -> EjbResult<Vec<Memento>> {
        let _span = enter(Layer::Source);
        self.0.query(bean, predicate)
    }
}

/// Times `Committer::commit` and counts the entries of every request.
pub struct TimedCommitter(pub Arc<dyn Committer>);

impl Committer for TimedCommitter {
    fn commit(&self, request: &CommitRequest) -> EjbResult<CommitOutcome> {
        RECORDER.with_borrow_mut(|r| {
            r.entries.requests += 1;
            for entry in &request.entries {
                match entry.kind {
                    EntryKind::Read { .. } => r.entries.reads += 1,
                    EntryKind::Update { .. } => r.entries.updates += 1,
                    EntryKind::Create { .. } => r.entries.creates += 1,
                    EntryKind::Remove { .. } => r.entries.removes += 1,
                }
            }
        });
        let _span = enter(Layer::Commit);
        self.0.commit(request)
    }
}

/// Times every call on a connection that does work; `id` tells the
/// connections of one stack apart in the captured stream.
pub struct TimedConn<C> {
    pub inner: C,
    pub id: u8,
}

impl<C: SqlConnection> SqlConnection for TimedConn<C> {
    fn begin(&mut self) -> DbResult<()> {
        capture(|c| c.conn_ops.push((self.id, ConnOp::Begin)));
        let _span = enter(Layer::Conn);
        self.inner.begin()
    }

    fn execute(&mut self, sql: &str, params: &[Value]) -> DbResult<ResultSet> {
        capture(|c| {
            c.conn_ops
                .push((self.id, ConnOp::Execute(sql.to_owned(), params.to_vec())))
        });
        count_statements(1);
        let _span = enter(Layer::Conn);
        self.inner.execute(sql, params)
    }

    fn commit(&mut self) -> DbResult<()> {
        capture(|c| c.conn_ops.push((self.id, ConnOp::Commit)));
        let _span = enter(Layer::Conn);
        self.inner.commit()
    }

    fn rollback(&mut self) -> DbResult<()> {
        capture(|c| c.conn_ops.push((self.id, ConnOp::Rollback)));
        let _span = enter(Layer::Conn);
        self.inner.rollback()
    }

    fn in_transaction(&self) -> bool {
        self.inner.in_transaction()
    }

    fn commit_seq(&self) -> Option<u64> {
        self.inner.commit_seq()
    }

    fn stamp_next_commit(&mut self, origin: u32, txn_id: u64) {
        capture(|c| c.conn_ops.push((self.id, ConnOp::Stamp(origin, txn_id))));
        self.inner.stamp_next_commit(origin, txn_id);
    }

    fn execute_batch(&mut self, statements: &[BatchStatement]) -> DbResult<BatchOutcome> {
        capture(|c| {
            c.conn_ops
                .push((self.id, ConnOp::Batch(statements.to_vec())))
        });
        count_statements(statements.len());
        let _span = enter(Layer::Conn);
        self.inner.execute_batch(statements)
    }
}
