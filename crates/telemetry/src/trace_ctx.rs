//! Causal trace-context propagation.
//!
//! A [`TraceCtx`] names a position in a request's causal tree: the trace it
//! belongs to and the span that any new work should hang off. A [`Tracer`]
//! hands out deterministic ids (a plain counter — the testbed is driven
//! sequentially in virtual time, so allocation order is reproducible across
//! seeded runs), tracks the *current* context the way a thread-local would
//! in a real stack, and records finished spans into the shared
//! [`TraceLog`].
//!
//! Components begin a span with [`Tracer::begin`] (child of the current
//! context, or a fresh root), do their work — nested calls see the new
//! span as their parent — then [`Tracer::finish`] it with start/end
//! timestamps from their own simulated clock. RPC servers that receive a
//! trace id over the wire join the originating trace with
//! [`Tracer::begin_rpc_server`] even when invoked outside the originating
//! call stack (e.g. deferred invalidation delivery).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::span::{SpanDetail, SpanEvent, SpanOutcome, TraceLog};

/// A position in a causal trace: which trace, and which span new child
/// work should be parented to. `trace_id == 0` means "untraced".
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct TraceCtx {
    /// Identifier of the whole request tree (0 = none).
    pub trace_id: u64,
    /// Span id that children should attach to (0 = attach at the root).
    pub parent_span_id: u64,
}

impl TraceCtx {
    /// A context that parents new spans directly under the trace root.
    pub fn root_of(trace_id: u64) -> TraceCtx {
        TraceCtx {
            trace_id,
            parent_span_id: 0,
        }
    }
}

/// A span that has been begun but not yet finished. Holds the identity the
/// finished [`SpanEvent`] will carry plus the context to restore.
#[derive(Debug)]
pub struct OpenSpan {
    /// Step name this span will be recorded under.
    pub op: &'static str,
    /// Trace this span belongs to.
    pub trace_id: u64,
    /// This span's own id.
    pub span_id: u64,
    /// Parent span id (0 = root of the trace).
    pub parent_span_id: u64,
    prev: Option<TraceCtx>,
}

impl OpenSpan {
    /// The context nested work should run under while this span is open.
    pub fn ctx(&self) -> TraceCtx {
        TraceCtx {
            trace_id: self.trace_id,
            parent_span_id: self.span_id,
        }
    }
}

/// Deterministic id allocator + current-context cell + span sink.
///
/// One `Tracer` per testbed; every traced component holds a clone of the
/// same `Arc<Tracer>` so ids are unique across layers and the current
/// context flows through the (synchronous) simulated call stack.
///
/// The current context is two plain cells, not a pair updated as one: the
/// testbed runs a request on one logical call stack, and a tracer shared
/// by threads that trace concurrently would interleave their contexts
/// whatever the cells were.
#[derive(Debug)]
pub struct Tracer {
    log: Arc<TraceLog>,
    next_id: AtomicU64,
    /// Trace id of the current context; 0 = no context is open (an open
    /// span always has a nonzero trace id).
    current_trace: AtomicU64,
    /// Span id children of the current context attach to.
    current_parent: AtomicU64,
}

impl Tracer {
    /// Creates a tracer recording into `log`. Ids start at 1; 0 is the
    /// reserved "none" value for both trace and span ids.
    pub fn new(log: Arc<TraceLog>) -> Tracer {
        Tracer {
            log,
            next_id: AtomicU64::new(1),
            current_trace: AtomicU64::new(0),
            current_parent: AtomicU64::new(0),
        }
    }

    /// The log finished spans are recorded into.
    pub fn log(&self) -> &Arc<TraceLog> {
        &self.log
    }

    fn alloc(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// The context new child spans would currently attach to.
    pub fn current(&self) -> Option<TraceCtx> {
        let trace_id = self.current_trace.load(Ordering::Relaxed);
        (trace_id != 0).then(|| TraceCtx {
            trace_id,
            parent_span_id: self.current_parent.load(Ordering::Relaxed),
        })
    }

    fn set_current(&self, ctx: Option<TraceCtx>) {
        let ctx = ctx.unwrap_or_default();
        self.current_trace.store(ctx.trace_id, Ordering::Relaxed);
        self.current_parent
            .store(ctx.parent_span_id, Ordering::Relaxed);
    }

    /// Opens a span of `under`'s trace (a fresh one when it names none),
    /// parented where `under` says, and makes it the current context;
    /// `prev` is the context its end restores.
    fn open(&self, op: &'static str, under: TraceCtx, prev: Option<TraceCtx>) -> OpenSpan {
        let trace_id = if under.trace_id != 0 {
            under.trace_id
        } else {
            self.alloc()
        };
        let span_id = self.alloc();
        self.set_current(Some(TraceCtx {
            trace_id,
            parent_span_id: span_id,
        }));
        OpenSpan {
            op,
            trace_id,
            span_id,
            parent_span_id: under.parent_span_id,
            prev,
        }
    }

    /// Begins a span as a child of the current context, or as the root of
    /// a brand-new trace when no context is open. The new span becomes the
    /// current context until [`finish`](Tracer::finish).
    pub fn begin(&self, op: &'static str) -> OpenSpan {
        let prev = self.current();
        self.open(op, prev.unwrap_or_default(), prev)
    }

    /// Begins a server-side span for a request whose frame carried
    /// `wire_trace_id`. Inside the simulated call stack the in-process
    /// context wins (it already carries the parent span); when the request
    /// is handled detached — deferred invalidation delivery, replayed
    /// duplicates — the wire id re-attaches the work to the originating
    /// trace.
    pub fn begin_rpc_server(&self, op: &'static str, wire_trace_id: u64) -> OpenSpan {
        let prev = self.current();
        self.open(op, prev.unwrap_or(TraceCtx::root_of(wire_trace_id)), prev)
    }

    /// Finishes a span: records the [`SpanEvent`] and restores the
    /// enclosing context.
    pub fn finish(
        &self,
        span: OpenSpan,
        origin: u32,
        txn_id: u64,
        start_us: u64,
        end_us: u64,
        outcome: SpanOutcome,
    ) {
        self.finish_with(span, origin, txn_id, start_us, end_us, outcome, None);
    }

    /// Finishes a span with an attached [`SpanDetail`] (statement class,
    /// conflict forensics, RPC attempt number).
    #[allow(clippy::too_many_arguments)]
    pub fn finish_with(
        &self,
        span: OpenSpan,
        origin: u32,
        txn_id: u64,
        start_us: u64,
        end_us: u64,
        outcome: SpanOutcome,
        detail: Option<SpanDetail>,
    ) {
        self.set_current(span.prev);
        self.log.record(SpanEvent {
            op: span.op,
            origin,
            txn_id,
            start_us,
            end_us,
            outcome,
            trace_id: span.trace_id,
            span_id: span.span_id,
            parent_span_id: span.parent_span_id,
            detail,
        });
    }

    /// Drops a span without recording it, restoring the enclosing context.
    pub fn cancel(&self, span: OpenSpan) {
        self.set_current(span.prev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_then_child_then_restore() {
        let tracer = Tracer::new(Arc::new(TraceLog::new()));
        assert_eq!(tracer.current(), None);
        let root = tracer.begin("request");
        assert_eq!(root.parent_span_id, 0);
        assert_ne!(root.trace_id, 0);
        let child = tracer.begin("servlet.buy");
        assert_eq!(child.trace_id, root.trace_id);
        assert_eq!(child.parent_span_id, root.span_id);
        tracer.finish(child, 1, 0, 0, 5, SpanOutcome::Committed);
        assert_eq!(tracer.current(), Some(root.ctx()));
        tracer.finish(root, 1, 0, 0, 9, SpanOutcome::Committed);
        assert_eq!(tracer.current(), None);
        let events = tracer.log().events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].op, "servlet.buy");
        assert_eq!(events[0].parent_span_id, events[1].span_id);
    }

    #[test]
    fn distinct_requests_get_distinct_traces() {
        let tracer = Tracer::new(Arc::new(TraceLog::new()));
        let a = tracer.begin("request");
        tracer.finish(a, 0, 0, 0, 1, SpanOutcome::Committed);
        let b = tracer.begin("request");
        tracer.finish(b, 0, 0, 1, 2, SpanOutcome::Committed);
        let events = tracer.log().events();
        assert_ne!(events[0].trace_id, events[1].trace_id);
    }

    #[test]
    fn rpc_server_prefers_in_process_context_over_wire_id() {
        let tracer = Tracer::new(Arc::new(TraceLog::new()));
        let root = tracer.begin("request");
        let srv = tracer.begin_rpc_server("db.stmt", 999);
        assert_eq!(srv.trace_id, root.trace_id, "stack context wins");
        assert_eq!(srv.parent_span_id, root.span_id);
        tracer.finish(srv, 0, 0, 0, 1, SpanOutcome::Committed);
        tracer.finish(root, 0, 0, 0, 2, SpanOutcome::Committed);
    }

    #[test]
    fn rpc_server_joins_wire_trace_when_detached() {
        let tracer = Tracer::new(Arc::new(TraceLog::new()));
        let srv = tracer.begin_rpc_server("invalidate.deliver", 42);
        assert_eq!(srv.trace_id, 42);
        assert_eq!(srv.parent_span_id, 0);
        tracer.finish(srv, 0, 0, 0, 0, SpanOutcome::Committed);
        assert_eq!(tracer.current(), None);
    }

    #[test]
    fn cancel_restores_without_recording() {
        let tracer = Tracer::new(Arc::new(TraceLog::new()));
        let span = tracer.begin("request");
        tracer.cancel(span);
        assert_eq!(tracer.current(), None);
        assert!(tracer.log().is_empty());
    }
}
