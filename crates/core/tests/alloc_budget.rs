//! Allocation budget of the image path, what a hostile length prefix may
//! reserve, and that a hostile predicate's depth gets an error reply.
//!
//! An image is shared, never copied, on the read path, and whatever depends
//! only on the deployment descriptor is resolved when it is built (DESIGN
//! §20). The first test pins that as allocation counts, so a regression in
//! `sli-component` or `sli-core` fails here, naming the layer, instead of as
//! a drift in a benchmark run. Counts are kept per thread, so each test's
//! numbers are exact.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::sync::Arc;

use bytes::Bytes;
use sli_component::{EntityMeta, Home, Memento, TxContext};
use sli_core::{
    BackendServer, CombinedCommitter, CommitEntry, CommitOutcome, CommitRequest, Committer,
    CommonStore, DirectSource, EntryKind, InvalidationSink, MetaRegistry, SliHome,
};
use sli_datastore::{CmpOp, ColumnType, Database, Predicate, SqlConnection, Value};
use sli_simnet::wire::{frame, protocol, unframe, Reader, StrTable, Writer};
use sli_simnet::{Clock, Path, PathSpec, Remote, Service};

thread_local! {
    /// Allocations made by this thread and the bytes they asked for.
    /// Const-initialised and without a destructor, so reading them inside
    /// the allocator never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

fn count(size: usize) {
    // A thread that is tearing down has no counters left; it is not a
    // test's thread.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + size as u64));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
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

/// Bytes `op` asks the allocator for on this thread.
fn bytes_of<T>(op: impl FnOnce() -> T) -> (u64, T) {
    let before = BYTES.with(Cell::get);
    let out = op();
    (BYTES.with(Cell::get) - before, out)
}

/// The steady-state cost `measure` reports: the cheapest of eight runs,
/// which leaves out the run in which an amortised structure (a recency
/// tree's leaf, the datastore's lock table) happens to grow.
fn steady(measure: impl FnMut() -> u64) -> u64 {
    std::iter::repeat_with(measure).take(8).min().unwrap()
}

/// Trade's `Quote`: a string key and six fields, one of them a string.
fn quote_meta() -> EntityMeta {
    EntityMeta::new("Quote", "quote", "symbol", ColumnType::Varchar)
        .field("companyname", ColumnType::Varchar)
        .field("price", ColumnType::Double)
        .field("open", ColumnType::Double)
        .field("low", ColumnType::Double)
        .field("high", ColumnType::Double)
        .field("volume", ColumnType::Double)
}

/// A database of eight quotes `s:0`..`s:7` and the registry describing it.
fn quotes() -> (Arc<Database>, MetaRegistry) {
    let registry = MetaRegistry::new().with(quote_meta());
    let db = Database::new();
    registry.create_schema(&db).unwrap();
    let mut conn = db.connect();
    for i in 0..8 {
        let params = [
            Value::from(format!("s:{i}")),
            Value::from(format!("Company #{i} Incorporated")),
            Value::from(25.0 + f64::from(i)),
            Value::from(24.0),
            Value::from(23.5),
            Value::from(26.5),
            Value::from(1_000_000.0),
        ];
        conn.execute(quote_meta().insert_sql(), &params).unwrap();
    }
    (db, registry)
}

#[test]
fn image_path_stays_within_its_allocation_budget() {
    let (db, registry) = quotes();
    let meta = registry.meta("Quote").unwrap();
    let source = Arc::new(DirectSource::new(Box::new(db.connect()), registry.clone()));
    let store = CommonStore::new();
    let home = SliHome::new(meta.clone(), Arc::clone(&store), source);
    let key = Value::from("s:3");
    // Warm-up: every quote faulted into the common store through the home.
    for i in 0..8 {
        let mut ctx = TxContext::new();
        home.find_by_primary_key(&mut ctx, &Value::from(format!("s:{i}")))
            .unwrap();
    }
    assert_eq!(store.len(), 8);

    // (a) A common-store hit: nothing. The lookup borrows its key, the
    // recency slot's owned key moves from its old tick to the new one, and
    // the caller gets another handle on the stored image. Eight images keep
    // the recency tree one leaf. It was 12: an owned lookup key (2) and a
    // deep copy of the image (10).
    let hit = steady(|| {
        let (allocs, image) = allocs_of(|| store.get("Quote", &key));
        assert!(image.is_some());
        allocs
    });
    assert_eq!(hit, 0, "CommonStore::get hit");
    let image = store.get("Quote", &key).unwrap();

    // (b) Cloning an image: a reference count. It was 10 — the bean name,
    // the key, six field names, the one string value and the map node.
    let (clone, copy) = allocs_of(|| image.clone());
    assert_eq!(clone, 0, "Memento::clone");
    assert_eq!(copy, image);

    // (c) The load statement: a borrowed field of the descriptor. It was 12
    // (seven column names, their vector, the joined list, the text).
    let (sql, _) = allocs_of(|| black_box(meta.load_sql()).len());
    assert_eq!(sql, 0, "EntityMeta::load_sql");

    // (d) The encoded length: arithmetic over the image. It was 3 (a
    // scratch writer, its growth, and the formatted class descriptor).
    let (len, _) = allocs_of(|| black_box(image.encoded_len()));
    assert_eq!(len, 0, "Memento::encoded_len");

    // (e) A lookup by primary key answered by the common store, in a fresh
    // context: 1 — the context's vector. The bean name is the descriptor's
    // in the context and the returned reference (it was 3 while each copied
    // it), the key, a string, is shared by both (it was 5 while each copied
    // it), and loading the image into the context is two reference counts.
    // It was 43.
    let find = steady(|| {
        let mut ctx = TxContext::new();
        allocs_of(|| home.find_by_primary_key(&mut ctx, &key).unwrap()).0
    });
    assert!(find <= 1, "find_by_primary_key on a store hit: {find}");

    // (f) Reading fields of the enlisted bean: nothing, a string being
    // another handle on the image's text (it was 1, its copy). They were 5
    // and 6 (an owned lookup key twice, the home's bean name).
    let mut ctx = TxContext::new();
    home.find_by_primary_key(&mut ctx, &key).unwrap();
    let (double, price) = allocs_of(|| home.get_field(&mut ctx, &key, "price").unwrap());
    assert_eq!(price, Value::from(28.0));
    assert_eq!(double, 0, "get_field of a double");
    let (string, _) = allocs_of(|| home.get_field(&mut ctx, &key, "companyname").unwrap());
    assert_eq!(string, 0, "get_field of a string");

    // (g) The commit request of that read-only transaction: 1 — the entry
    // vector; its bean name, key and before-image are reference counts. It
    // was 2 while the entry copied the bean name, and 13 before that.
    let (request, built) = allocs_of(|| CommitRequest::from_context(1, 1, &ctx));
    assert!(matches!(built.entries[0].kind, EntryKind::Read { .. }));
    assert!(request <= 1, "from_context with one read entry: {request}");

    // (h) The first write to a bean is the one copy a transaction makes of
    // its image — 1, the image's one slice, every name, the key and the
    // string in it shared with the original (it was 2 while the image was
    // a header and a field vector, and 10, the image exactly as (b) used
    // to copy it on every read) — and it reuses the stored field name, so
    // later writes of a double cost nothing.
    let (first, _) = allocs_of(|| home.set_field(&mut ctx, &key, "price", Value::from(29.0)));
    assert!(first <= 1, "first set_field: {first}");
    let (second, _) = allocs_of(|| home.set_field(&mut ctx, &key, "price", Value::from(30.0)));
    assert_eq!(second, 0, "second set_field");
    assert_eq!(image.get("price"), Some(&Value::from(28.0)));

    // (i) What the validator's `judge` runs on a fetched row that passes:
    // the row compared with the before-image where each lies, nothing
    // built. It was 10 per validated image (a memento from the row). A
    // whole one-entry read validation by a warm combined committer costs
    // its autocommitted SELECT plus 1, the outcome's result list: the
    // statement is refilled in the commit point's session. It was the
    // SELECT plus 5 while each validation built its metadata list,
    // statement list, statement text and parameter list, plus 6 while the
    // key in the parameter list was a copy, and plus 27 before that. The
    // SELECT itself is 1, the result's one vector of cells; it was 2 while
    // its one matched key was a list of its own, and 6 while a result was
    // a list of rows.
    let mut conn = db.connect();
    let rs = conn
        .execute(meta.load_sql(), std::slice::from_ref(&key))
        .unwrap();
    let (judge, same) = allocs_of(|| meta.row_is_image(&rs.rows()[0], &image));
    assert!(same);
    assert_eq!(judge, 0, "row_is_image on a passing row");
    let read = CommitRequest {
        origin: 1,
        txn_id: 0,
        entries: vec![CommitEntry {
            bean: "Quote".into(),
            key: key.clone(),
            kind: EntryKind::Read {
                before: image.clone(),
            },
        }],
    };
    let statement = steady(|| {
        allocs_of(|| {
            conn.execute(meta.load_sql(), std::slice::from_ref(&key))
                .unwrap()
        })
        .0
    });
    let committer = CombinedCommitter::new(Box::new(conn), registry.clone());
    let validate = steady(|| {
        let (allocs, outcome) = allocs_of(|| committer.commit(&read).unwrap());
        assert_eq!(outcome, CommitOutcome::Committed);
        allocs
    });
    assert!(statement <= 1, "the validation's SELECT: {statement}");
    assert!(
        validate <= statement + 1,
        "one-entry read validation: {validate} (its SELECT alone: {statement})"
    );
}

/// `s:3` as `quotes()` stores it, at `price`.
fn quote_3(price: f64) -> Memento {
    Memento::new("Quote", Value::from("s:3"))
        .with_field("companyname", "Company #3 Incorporated")
        .with_field("price", price)
        .with_field("open", 24.0)
        .with_field("low", 23.5)
        .with_field("high", 26.5)
        .with_field("volume", 1_000_000.0)
}

/// The invalidation fan-out writes its frame only once it has a recipient.
/// Per-commit allocations of alternating one-`Quote` updates from edge 1,
/// with the given edges registered for invalidations.
fn writing_commits(edges: &[u32]) -> Vec<u64> {
    let (db, registry) = quotes();
    let clock = Arc::new(Clock::new());
    let backend = BackendServer::new(Box::new(db.connect()), registry, Arc::clone(&clock));
    for &edge in edges {
        let path = Path::new("backend-edge", Arc::clone(&clock), PathSpec::lan());
        let sink = InvalidationSink::new(CommonStore::new());
        backend.register_edge(edge, Remote::new(path, sink));
    }
    (1..=8u64)
        .map(|txn_id| {
            let (from, to) = if txn_id % 2 == 1 {
                (28.0, 29.0)
            } else {
                (29.0, 28.0)
            };
            let request = CommitRequest {
                origin: 1,
                txn_id,
                entries: vec![CommitEntry {
                    bean: "Quote".into(),
                    key: Value::from("s:3"),
                    kind: EntryKind::Update {
                        before: quote_3(from),
                        after: quote_3(to),
                    },
                }],
            };
            let (allocs, outcome) = allocs_of(|| backend.commit(&request).unwrap());
            assert_eq!(outcome, CommitOutcome::Committed);
            allocs
        })
        .collect()
}

/// A writing commit whose only peer is its origin — a one-edge split tier —
/// writes no invalidation frame: it costs what it costs with no edge
/// registered, 7 once warm. Its database has no WAL attached, so no log
/// record is counted here; it was 9 while each of its two primary-key
/// statements built a one-key match list. Its fetch and write statements are
/// refilled in the commit point's session: it was 18 while each decision
/// built its round and metadata lists and both statements (each a list, a
/// text and a parameter list). It was 28 with 6 for a frame built and
/// dropped unsent (the written keys' list and a bean name per key, the
/// payload's buffer and its frozen copy, then the frame's) and 4 in the
/// validating SELECT's rows (DESIGN §19). With a second edge the frame is written — its one
/// buffer and frozen copy — and received, the edge decoding the key: 3
/// more. It was 4 while the edge copied each key's bean name out of the
/// frame instead of reading it where it lies.
#[test]
fn a_commit_whose_only_peer_is_its_origin_frames_no_invalidation() {
    let alone = writing_commits(&[1]);
    assert_eq!(alone, writing_commits(&[]), "only the origin registered");
    let warm = alone[1..].iter().min().copied().unwrap();
    assert!(
        warm <= 7,
        "a writing commit, its origin its only peer: {warm}"
    );
    let with_peer = writing_commits(&[1, 2]);
    for (sent, alone) in with_peer[1..].iter().zip(&alone[1..]) {
        assert_eq!(
            *sent,
            alone + 3,
            "a writing commit with a peer to invalidate"
        );
    }
}

/// A well-framed request to the back-end with `body` as its payload.
fn backend_frame(body: Writer) -> Bytes {
    frame(protocol::BACKEND, 7, &body.finish())
}

/// An image off the wire borrows its names from the descriptor it is
/// decoded against (DESIGN §20): what is left is the image's own.
#[test]
fn a_decoded_image_owns_only_what_the_descriptor_cannot_lend() {
    let registry = MetaRegistry::new().with(quote_meta());
    let names = registry.meta("Quote").unwrap().image_names();
    let before = quote_3(28.0);
    let mut w = Writer::new();
    before.encode(&mut w);
    let encoded = w.finish();

    // (a) A `Quote` image against its descriptor: 3 — the image's one
    // slice, the key and the one string. It was 4 while the image was a
    // header and a field vector, and 11 with the bean name and six field
    // names copied off the wire, into a map node.
    let (shared, image) =
        allocs_of(|| Memento::decode(&mut Reader::new(encoded.clone()), Some(names)).unwrap());
    assert_eq!(image, before);
    assert!(
        shared <= 3,
        "Memento::decode against its descriptor: {shared}"
    );
    // With no descriptor in hand it owns them: seven names more, and
    // nothing else, the slice being sized by the count, which the bytes
    // left bound. (It was 8 more while a field vector reserved by the
    // bytes left, not the count, grew once.)
    let (owned, image) =
        allocs_of(|| Memento::decode(&mut Reader::new(encoded.clone()), None).unwrap());
    assert_eq!(image, before);
    assert_eq!(owned, shared + 7, "Memento::decode on its own");

    // (b) The commit request of one `Quote` update, as the back-end decodes
    // it with its registry and through its string table: 5 — the entry
    // vector, the entry's key, the before-image's slice and one string,
    // and the after-image's slice. The bean name is the registry's, and
    // both images' keys and the after-image's unchanged string are the
    // ones the table took from the first read of each spelling. It was 7
    // while each image was a header and a field vector (and while a
    // template lent an update's before-image to its after-image), 11
    // while the entry copied its bean name and each image spelled its own
    // key and values, and 25 before that. Without a table each image reads
    // its own key and string: 3 more.
    let request = CommitRequest {
        origin: 1,
        txn_id: 7,
        entries: vec![CommitEntry {
            bean: "Quote".into(),
            key: Value::from("s:3"),
            kind: EntryKind::Update {
                after: before.clone().with_field("price", 29.0),
                before,
            },
        }],
    };
    let frame = request.encode();
    let strings = StrTable::shared();
    let decode = || CommitRequest::decode(&mut Reader::sharing(frame.clone(), &strings), &registry);
    let (first, decoded) = allocs_of(|| decode().unwrap());
    assert_eq!(decoded, request);
    assert!(first <= 5, "CommitRequest::decode of one update: {first}");
    let (plain, _) =
        allocs_of(|| CommitRequest::decode(&mut Reader::new(frame.clone()), &registry).unwrap());
    assert_eq!(plain, first + 3, "CommitRequest::decode without a table");
    // (b') The same update decoded again through the table costs 3 (it was
    // 5 while each image was two allocations): the key and the string are
    // the ones the first decode left in it.
    let (again, decoded) = allocs_of(|| decode().unwrap());
    assert_eq!(decoded, request);
    assert_eq!(
        again,
        first - 2,
        "CommitRequest::decode of one update, again through the table"
    );
    // An after-image string the update left alone is the before-image's;
    // one it changed is its own.
    let text = |image: &Memento| match image.get("companyname") {
        Some(Value::Str(text)) => Arc::clone(text),
        other => panic!("{other:?}"),
    };
    let shares = |request: &CommitRequest| {
        let mut r = Reader::sharing(request.encode(), &StrTable::shared());
        let decoded = CommitRequest::decode(&mut r, &registry);
        match &decoded.unwrap().entries[0].kind {
            EntryKind::Update { before, after } => Arc::ptr_eq(&text(before), &text(after)),
            other => panic!("{other:?}"),
        }
    };
    let mut renamed = request.clone();
    if let EntryKind::Update { after, .. } = &mut renamed.entries[0].kind {
        after.set("companyname", "Company #3 Renamed");
    }
    assert!(shares(&request) && !shares(&renamed));
}

/// What the back-end's query reply costs grows per row by no more than the
/// result set it is written from and the bytes it writes: the images are
/// encoded from the rows, none built. (Building them cost two allocations
/// a row more.)
#[test]
fn a_query_reply_costs_no_more_per_row_than_its_result_set() {
    let (db, registry) = quotes();
    let meta = quote_meta();
    let backend = BackendServer::new(Box::new(db.connect()), registry, Arc::new(Clock::new()));
    let mut conn = db.connect();
    let mut cost = |predicate: Predicate| {
        let sql = format!("{} WHERE {predicate}", meta.select_sql());
        let rows = steady(|| allocs_of(|| conn.execute(&sql, &[]).unwrap()).0);
        let result = conn.execute(&sql, &[]).unwrap();
        let images: Vec<Memento> = result
            .rows()
            .iter()
            .map(|row| meta.memento_from_row(row))
            .collect();
        // The reply's bytes written from images already built.
        let bytes = steady(|| {
            allocs_of(|| {
                let mut w = Writer::framed();
                w.put_u8(0).put_u32(images.len() as u32);
                images.iter().for_each(|image| image.encode(&mut w));
                w.finish_frame(protocol::BACKEND, 7, 0)
            })
            .0
        });
        let reply = steady(|| {
            let mut body = Writer::new();
            body.put_u8(2).put_str("Quote"); // OP_QUERY
            predicate.encode(&mut body);
            let message = backend_frame(body);
            allocs_of(|| backend.handle(message)).0
        });
        (images.len(), rows + bytes, reply)
    };
    let (n_one, made_one, reply_one) = cost(Predicate::eq("symbol", "s:3"));
    let (n_all, made_all, reply_all) = cost(Predicate::cmp("symbol", CmpOp::Ge, "s:0"));
    assert_eq!((n_one, n_all), (1, 8));
    assert!(
        reply_all - reply_one <= made_all - made_one,
        "OP_QUERY for 8 rows vs 1: {reply_all} vs {reply_one} allocations; \
         the result sets and the reply's bytes alone {made_all} vs {made_one}"
    );
}

#[test]
fn a_hostile_length_prefix_reserves_only_what_its_frame_can_hold() {
    let (db, registry) = quotes();
    let backend = BackendServer::new(Box::new(db.connect()), registry, Arc::new(Clock::new()));

    // A commit request that is origin, txn id and an entry count of
    // u32::MAX — 16 bytes announcing 300 GB of entries — with some padding
    // a length check cannot tell from entries.
    let mut request = Writer::new();
    request.put_u32(1).put_u64(9).put_u32(u32::MAX);
    request.put_bytes(&[0xAB; 1024]);
    let mut body = Writer::new();
    body.put_u8(3); // OP_COMMIT
    body.put_frame(&request.finish());
    let message = backend_frame(body);
    let sent = message.len() as u64;
    let (asked, reply) = bytes_of(|| backend.handle(message));
    let (_, payload) = unframe(reply).unwrap();
    assert_eq!(Reader::new(payload).get_u8().unwrap(), 1, "STATUS_ERR");
    assert!(
        asked < 8 * sent,
        "{asked} bytes requested for a {sent}-byte frame"
    );

    // A query whose predicate is `symbol IN (…)` over u32::MAX values — 100
    // GB of them — and the same padding. A value takes at least a byte on
    // the wire and three machine words in a vector.
    let mut body = Writer::new();
    body.put_u8(2).put_str("Quote"); // OP_QUERY
    body.put_u8(9).put_str("symbol").put_u32(u32::MAX); // IN
    body.put_raw(&[0xAB; 1024]);
    let message = backend_frame(body);
    let sent = message.len() as u64;
    let (asked, reply) = bytes_of(|| backend.handle(message));
    let (_, payload) = unframe(reply).unwrap();
    assert_eq!(Reader::new(payload).get_u8().unwrap(), 1, "STATUS_ERR");
    assert!(
        asked < 32 * sent,
        "{asked} bytes requested for a {sent}-byte query"
    );

    // The same count as a memento's field count, and the largest count
    // the padding could hold. (A query reply's image count has its test
    // beside `BackendSource`, whose peer cannot be substituted from outside
    // the crate.) A count beyond what the bytes left could hold, at five
    // bytes a field, is refused before anything is reserved; one within it
    // reserves the image's slice in full, eight bytes of slot per byte of
    // the smallest field, so no more than eight per byte the frame has
    // left — with the bean's descriptor in hand or without one.
    let mut image = Writer::new();
    Memento::new("Quote", Value::from("s:1")).encode(&mut image);
    let encoded = image.finish();
    let registry = MetaRegistry::new().with(quote_meta());
    let names = registry.meta("Quote").unwrap().image_names();
    for count in [u32::MAX, 1024 / 5] {
        let mut hostile = encoded.slice(0..encoded.len() - 4).to_vec();
        hostile.extend_from_slice(&count.to_be_bytes());
        hostile.extend_from_slice(&[0xAB; 1024]);
        let sent = hostile.len() as u64;
        for names in [None, Some(names)] {
            let hostile = Bytes::from(hostile.clone());
            let (asked, decoded) = bytes_of(|| Memento::decode(&mut Reader::new(hostile), names));
            assert!(decoded.is_err());
            assert!(
                asked < 8 * sent,
                "{asked} bytes requested for a {sent}-byte image announcing {count} fields"
            );
        }
    }
}

#[test]
fn a_hostile_predicate_depth_gets_an_error_reply() {
    let (db, registry) = quotes();
    let backend = BackendServer::new(Box::new(db.connect()), registry, Arc::new(Clock::new()));
    // A query whose predicate is 200 000 NOTs around TRUE. Decoded a frame
    // per level, it would overflow the stack, which aborts the process
    // rather than unwinding.
    let mut body = Writer::new();
    body.put_u8(2).put_str("Quote"); // OP_QUERY
    body.put_raw(&[8; 200_000]).put_u8(0); // NOT … NOT TRUE
    let (_, payload) = unframe(backend.handle(backend_frame(body))).unwrap();
    assert_eq!(Reader::new(payload).get_u8().unwrap(), 1, "STATUS_ERR");
}
