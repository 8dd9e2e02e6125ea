//! Allocation budget of the message path.
//!
//! Every interaction crosses the HTTP hop once and the wire a few times, so
//! what a message costs is paid by every workload. A message is one buffer,
//! written in place and read where it lies (DESIGN §21); this test pins
//! that as allocation counts per layer — the HTTP codec, the page, the
//! engine's result, a whole interaction — so a regression fails here,
//! naming the layer, instead of as a drift in a benchmark run. Each test
//! counts on its own thread, so the numbers are exact. A second test holds
//! that a seeded run allocates the same every time it is run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sli_arch::{Architecture, Flavor, Testbed, TestbedConfig, VirtualClient};
use sli_component::share_connection;
use sli_datastore::Database;
use sli_simnet::{HttpRequest, HttpResponse};
use sli_telemetry::{critical_path, Breakdown, Profile, SpanEvent};
use sli_trade::seed::{create_and_seed, Population};
use sli_trade::session::SessionGenerator;
use sli_trade::{page, JdbcTradeEngine, TradeAction, TradeEngine};

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

/// The steady-state cost `measure` reports: the cheapest of eight runs,
/// which leaves out the run in which an amortised structure (the span log,
/// the WAL's tail, the lock table) happens to grow.
fn steady(measure: impl FnMut() -> u64) -> u64 {
    std::iter::repeat_with(measure).take(8).min().unwrap()
}

#[test]
fn message_path_stays_within_its_allocation_budget() {
    let buy = TradeAction::Buy {
        user: "uid:3".into(),
        symbol: "s:5".into(),
        quantity: 100.0,
    };
    let quote = TradeAction::Quote {
        symbol: "s:5".into(),
    };

    // (a) An HTTP request is its bytes. Built from the action, cookie
    // included: 1, the buffer it is written into once, with room for the
    // cookie line — and for a buy the formatted quantity, its one value
    // that is not borrowed from the action. Handing the buffer over
    // (`encode`) and reading the request where it lies (`parse`): 0. It
    // was 20 to encode while every line was formatted, and 16 to 20 more
    // to build and parse while a request owned its parts.
    let (allocs, _) = allocs_of(|| {
        HttpRequest::get("/trade/app", quote.query_params()).with_cookie("sess-uid:3")
    });
    assert_eq!(allocs, 1, "HttpRequest::get(quote).with_cookie");
    let (allocs, request) =
        allocs_of(|| HttpRequest::get("/trade/app", buy.query_params()).with_cookie("sess-uid:3"));
    assert_eq!(allocs, 2, "HttpRequest::get(buy).with_cookie");
    let len = request.encoded_len();
    let (allocs, raw) = allocs_of(|| request.encode());
    assert_eq!(allocs, 0, "HttpRequest::encode");
    assert_eq!(raw.len(), len);
    let (allocs, parsed) = allocs_of(|| HttpRequest::parse(&raw).unwrap());
    assert_eq!(allocs, 0, "HttpRequest::parse");
    assert_eq!(parsed.param("quantity"), Some("100"));

    // (b) A page: 1, sized for its chrome and its content. (The chrome is
    // built once per process, by the first page.)
    let db = Database::new();
    create_and_seed(&db, Population::default()).unwrap();
    let engine = JdbcTradeEngine::new(share_connection(db.connect()), 1_000_000);
    let result = engine.perform(&quote).unwrap();
    page::render(&result);
    let (allocs, body) = allocs_of(|| page::render(&result));
    assert_eq!(allocs, 1, "page::render");
    assert!(body.len() > 5_000);

    // (c) The response around it: 1. It was 8 — the 5.8 KB page pushed
    // onto a buffer that grew from empty, and three formatted lines. Parsed,
    // the page is borrowed from the bytes: 0, and the `Set-Cookie` value
    // when there is one. It was 1 more, the page copied out.
    let response = HttpResponse::ok(body).with_cookie("sess-uid:3");
    let len = response.encoded_len();
    let (allocs, raw) = allocs_of(|| response.encode());
    assert_eq!(allocs, 1, "HttpResponse::encode");
    assert_eq!(raw.len(), len);
    let (allocs, parsed) = allocs_of(|| HttpResponse::parse(&raw).unwrap());
    assert_eq!(allocs, 1, "HttpResponse::parse with a cookie");
    let raw = HttpResponse::ok(&*parsed.body).encode();
    let (allocs, parsed) = allocs_of(|| HttpResponse::parse(&raw).unwrap());
    assert_eq!(allocs, 0, "HttpResponse::parse");
    assert!(parsed.body.len() > 5_000);

    // (d) A quote by the JDBC engine on a local connection: 4 — its
    // SELECT of six columns (the one vector of cells), the parameter's
    // string, and the result's text and field list. It was 5 while the
    // SELECT's one matched key was a list of its own, 9 while a result was
    // a list of rows, and 40 while every field
    // was a name and a value of its own (14 for the seven) behind a
    // formatted temporary and every result copied its column names.
    let perform = steady(|| {
        let (allocs, result) = allocs_of(|| engine.perform(&quote).unwrap());
        assert_eq!(result.get("symbol"), Some("s:5"));
        allocs
    });
    assert!(perform <= 4, "JdbcTradeEngine::perform(quote): {perform}");

    // (e) Whole interactions on ES/RDB (JDBC): request built, encoded,
    // parsed, dispatched, statements over the wire to the database server,
    // page rendered, response encoded and parsed — spans recorded, the
    // span log emptied between repetitions: 9, 9, 18 and 35, a string
    // cell or parameter either end of the wire read before being shared
    // from its string table, a result's column header from the
    // connection's header table, each JDBC message's exact copy going
    // where its sender's last one went, and the buy's three WAL records
    // copied onto the log's tail segment. The buy was 38 while each WAL
    // record was appended as an exact copy of its own (the reads write
    // none). They were 11, 11, 20 and 46 while
    // each such copy was a new allocation, 12, 13, 26 and 51 while each end
    // copied every string it decoded out of the frame, 15, 16, 29 and 66
    // while each JDBC message and each WAL record was a buffer and its
    // frozen copy and a pk lookup built a one-key match list; 33, 34, 47
    // and 91 while a request was built from and parsed into owned strings
    // and a parsed response copied its page out; 38, 40, 59 and 107 while
    // a result was a list of rows and a wire statement's parameters a list
    // of their own (DESIGN §19, §21); 41, 44, 65 and 123 while a string
    // value was copied wherever it went, and 80, 107, 136 and 198 before a
    // message was one buffer.
    let tb = Testbed::build(Architecture::EsRdb(Flavor::Jdbc), TestbedConfig::default());
    let mut client = VirtualClient::new(&tb, 0);
    let login = TradeAction::Login {
        user: "uid:3".into(),
    };
    assert_eq!(client.perform(&login).status, 200);
    let home = TradeAction::Home {
        user: "uid:3".into(),
    };
    let portfolio = TradeAction::Portfolio {
        user: "uid:3".into(),
    };
    for (action, budget) in [(&home, 9), (&quote, 9), (&portfolio, 18), (&buy, 35)] {
        let allocs = steady(|| {
            tb.commit_trace().clear();
            let (allocs, done) = allocs_of(|| client.perform(action));
            assert_eq!(done.status, 200, "{action}");
            allocs
        });
        assert!(
            allocs <= budget,
            "VirtualClient::perform({action}): {allocs} allocations, budget {budget}"
        );
    }

    // (f) What observing a dispatch adds, on ES/RBES: the spans it recorded
    // drained into the run's buffer and folded into a `Profile` and a
    // `critical_path`, as `LoadEngine::run_with` does for the observer
    // `benchmark/` attaches (`sli_bench::run`'s observer folds only the
    // profile, summed by bucket once per run). At most 16 on top of the
    // dispatch itself — it is 8, the two walks' scratch vectors (DESIGN
    // §16); it was 294, a few strings per span.
    let tb = Testbed::build(Architecture::EsRbes, TestbedConfig::default());
    let mut client = VirtualClient::new(&tb, 0);
    assert_eq!(client.perform(&login).status, 200);
    let unobserved = steady(|| {
        tb.commit_trace().clear();
        let (allocs, done) = allocs_of(|| client.perform(&quote));
        assert_eq!(done.status, 200);
        allocs
    });
    let mut spans: Vec<SpanEvent> = Vec::new();
    let mut profile = Profile::default();
    let mut breakdown = Breakdown::default();
    let observed = steady(|| {
        let (allocs, done) = allocs_of(|| {
            let done = client.perform(&quote);
            spans.clear();
            tb.commit_trace().drain_into(&mut spans);
            profile.fold(&spans);
            breakdown.merge(&critical_path(&spans));
            done
        });
        assert_eq!(done.status, 200);
        allocs
    });
    assert!(profile.traces >= 8 && profile.traces == breakdown.traces);
    assert!(
        observed <= unobserved + 16,
        "an observed quote on ES/RBES: {observed} allocations, {unobserved} unobserved"
    );

    // (g) A whole buy on ES/RBES, the split-servers write path: images
    // faulted from the back-end, the transaction's state shipped as one
    // commit request, validated and applied image by image next to the
    // database, logged and invalidated: 28, what each machine decodes
    // sharing the strings it read before — the edge its replies', the
    // back-end its requests' and its database replies', the database its
    // parameters' — each message between edge and back-end written in a
    // buffer its sender keeps, its exact copy going where the last one
    // went once the receiver let go, and each image one allocation: off
    // the wire, from a row, on its first write and as the engine creates
    // the holding, named by its descriptor and holding the strings of the
    // keys the engine read by, and each WAL record copied onto the log's
    // tail segment. It was 31 while the back-end fetched every image
    // before it wrote, 34 while each WAL record was appended as an
    // exact copy of its own, 49 while an image was a handle on a
    // header and a field vector, the engine built the holding field by
    // field with names and strings of its own, and the finder laid out a
    // row per enlisted instance; 59 while each such copy was a
    // new allocation, 76 while every decoded string cell
    // was a new allocation and each such message a fresh buffer, 93 while
    // each message
    // between the back-end and the database and each WAL record was a
    // buffer and its frozen copy and a pk lookup built a one-key match
    // list, 122 while bean names
    // were copied into the context, the references and the commit entries,
    // each decoded image spelled its own key and values, and the commit
    // point built its statements afresh; 147 while the HTTP hop
    // owned its request's parts and copied its page out, 174 while
    // results were lists of rows and the back-end wrote an
    // invalidation frame for a tier whose one edge is the committing one,
    // and 222 while every decoded image owned its names in a map and every
    // string cell was copied into rows, lock keys, log images and
    // parameters.
    let allocs = steady(|| {
        tb.commit_trace().clear();
        let (allocs, done) = allocs_of(|| client.perform(&buy));
        assert_eq!(done.status, 200);
        allocs
    });
    assert!(
        allocs <= 28,
        "VirtualClient::perform({buy}) on ES/RBES: {allocs} allocations"
    );
}

/// Allocations of 100 seeded sessions, alternating between the two edges
/// of a fresh ES/RBES testbed whose common stores hold 120 images each,
/// fewer than the accounts, quotes and holdings the sessions touch: each
/// store evicts, and drops what the other edge's commits invalidate, all
/// through the run.
fn evicting_run() -> u64 {
    let config = TestbedConfig {
        edges: 2,
        cache_capacity: Some(120),
        ..TestbedConfig::default()
    };
    let tb = Testbed::build(Architecture::EsRbes, config);
    let mut clients = [VirtualClient::new(&tb, 0), VirtualClient::new(&tb, 1)];
    let mut sessions = SessionGenerator::new(7, config.population);
    let script: Vec<Vec<TradeAction>> = (0..100).map(|_| sessions.session()).collect();
    let (allocs, evictions) = allocs_of(|| {
        for (i, session) in script.iter().enumerate() {
            for action in session {
                clients[i % 2].perform(action);
            }
        }
        let stats = tb
            .edges
            .iter()
            .filter_map(|e| e.store.as_ref())
            .map(|s| s.stats());
        stats.map(|s| s.evictions).sum::<u64>()
    });
    assert!(evictions > 500, "{evictions} evictions");
    allocs
}

/// A run is a function of its seed down to what it allocates: no map in
/// the simulated system draws a random hash seed, so the stores' maps grow
/// at the same points in every run. Runs in one process already differ
/// with a map that does, since every std map draws its own keys: with the
/// stores' maps on the std hasher, about one pair of these runs in two
/// read one or two allocations apart. The first run in a process pays 26
/// allocations more, for what the process builds once, and is not
/// compared.
#[test]
fn a_seeded_evicting_run_allocates_the_same_every_time() {
    evicting_run();
    let runs: Vec<u64> = (0..8).map(|_| evicting_run()).collect();
    assert!(runs.iter().all(|r| *r == runs[0]), "{runs:?}");
}
