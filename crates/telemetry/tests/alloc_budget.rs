//! Allocation budget of the span path: record → drain → fold.
//!
//! An observed run pays this path after every dispatch — some thirty spans
//! recorded, drained and folded into a `Profile` and a `critical_path` —
//! so the instrument's own cost is part of every number it reports. A span
//! is handled by number (DESIGN §16): recording one copies no text, the
//! drain moves events instead of cloning them, and a fold whose classes and
//! stacks have been seen allocates the walk's scratch vectors and nothing
//! per span. This test pins that as allocation counts, so a regression
//! fails here, naming the step, instead of as a drift in a benchmark run.
//! The file holds one test and counts on the test's own thread, so the
//! numbers are exact.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use sli_telemetry::{critical_path, Profile, SpanDetail, SpanEvent, SpanOutcome, TraceLog, Tracer};

thread_local! {
    /// Allocations made by this thread. Const-initialised and without a
    /// destructor, so reading it inside the allocator never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

fn count() {
    // A thread that is tearing down has no counter left; it is not the
    // test's thread.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter touches no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr`/`layout` describe a live block of this allocator and
        // the caller vouched for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations `op` makes on this thread.
fn allocs_of<T>(op: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = op();
    (ALLOCS.with(Cell::get) - before, out)
}

/// Records one interaction's worth of spans — 30, six deep, statement and
/// batch leaves among them, children finishing before their parents as on
/// a real call stack — and returns how many allocations recording made.
fn record_interaction(tracer: &Tracer, classes: &[Arc<str>; 3], at_us: u64) -> u64 {
    let (allocs, ()) = allocs_of(|| {
        let done = |span, start, end, detail| {
            tracer.finish_with(span, 1, 7, start, end, SpanOutcome::Committed, detail);
        };
        let root = tracer.begin("request");
        let servlet = tracer.begin("servlet.quote");
        for call in 0..7u64 {
            let start = at_us + 10 * call;
            let rpc = tracer.begin("rpc.call");
            let attempt = tracer.begin("rpc.attempt");
            let net = tracer.begin("net.request");
            let (op, class) = match call % 3 {
                0 => ("db.batch", &classes[0]),
                1 => ("db.stmt", &classes[1]),
                _ => ("db.stmt", &classes[2]),
            };
            let leaf = tracer.begin_rpc_server(op, 0);
            let statement = SpanDetail::Statement {
                class: Arc::clone(class),
            };
            done(leaf, start + 2, start + 6, Some(statement));
            done(net, start + 1, start + 7, None);
            done(
                attempt,
                start,
                start + 8,
                Some(SpanDetail::Attempt { number: 1 }),
            );
            done(rpc, start, start + 9, None);
        }
        done(servlet, at_us, at_us + 80, None);
        done(root, at_us, at_us + 90, None);
    });
    allocs
}

#[test]
fn span_path_stays_within_its_allocation_budget() {
    let log = Arc::new(TraceLog::with_capacity(1 << 12));
    let tracer = Tracer::new(Arc::clone(&log));
    let classes: [Arc<str>; 3] = ["batch:2".into(), "quote.read".into(), "account.read".into()];
    let mut spans: Vec<SpanEvent> = Vec::new();
    let mut profile = Profile::default();

    // Warm: the log's ring and the drain buffer reach their working size,
    // the profile meets every class and stack of the interaction.
    for round in 0..4 {
        record_interaction(&tracer, &classes, 1_000 * round);
        spans.clear();
        log.drain_into(&mut spans);
        assert_eq!(spans.len(), 30);
        profile.fold(&spans);
    }
    assert_eq!(profile.traces, 4);
    assert_eq!(profile.total_us, 4 * 90);

    // (a) Recording: `begin` + `finish_with`, a shared statement class
    // attached, allocates nothing — the class is a reference count, the
    // current context two integers. It was a `String` per traced statement.
    let recorded = record_interaction(&tracer, &classes, 9_000);
    assert_eq!(recorded, 0, "Tracer::begin + finish_with, 30 spans");

    // (b) The drain moves the 30 events into the buffer the run keeps: 0.
    // `events()` + `clear()` cloned every event (and every class) into a
    // fresh vector.
    spans.clear();
    let (drained, ()) = allocs_of(|| log.drain_into(&mut spans));
    assert_eq!(drained, 0, "TraceLog::drain_into a warm buffer");
    assert_eq!(spans.len(), 30);
    assert!(log.is_empty());

    // (c) The fold: the walk's three index vectors and the fold's two, of
    // one trace's length each, and nothing per span. It was about 300: a
    // `String` per span for its class, one per ancestor for its stack, a
    // vector and a join of those, and three maps per trace.
    let (folded, ()) = allocs_of(|| profile.fold(&spans));
    assert!(folded <= 6, "Profile::fold of a seen trace: {folded}");
    assert_eq!(profile.traces, 5);

    // (d) The bucket breakdown walks the same way and keeps five counters.
    let (walked, breakdown) = allocs_of(|| critical_path(&spans));
    assert!(walked <= 6, "critical_path: {walked}");
    assert_eq!(breakdown.total_us, 90);
    assert_eq!(breakdown.sum_us(), breakdown.total_us);
}
