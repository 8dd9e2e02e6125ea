//! Allocation budget of the statement hot path and of the wire around it,
//! and what a hostile count in a frame may reserve.
//!
//! What depends only on a statement's SQL text or on its table is resolved
//! once (DESIGN §19); a call pays for what depends on its parameters, and a
//! message is one allocation where its buffer is kept (DESIGN §21). The
//! first test pins that as allocation counts, so a regression on the
//! statement path fails here, naming the layer, instead of as a drift in a
//! benchmark run. Counts are kept per thread, so each test's numbers are
//! exact.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use bytes::{Bytes, BytesMut};
use sli_datastore::server::{DbCostModel, DbServer, RemoteConnection};
use sli_datastore::{BatchStatement, Database, DbError, ResultSet, SqlConnection, Value};
use sli_simnet::wire::{frame, protocol, unframe, Reader, Writer};
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
// unchanged; the counter touches no allocator state.
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
/// which leaves out the run in which an amortised buffer (the WAL's tail,
/// a transaction's log) happens to double.
fn steady(measure: impl FnMut() -> u64) -> u64 {
    std::iter::repeat_with(measure).take(8).min().unwrap()
}

const SELECT: &str = "SELECT owner, balance, logins FROM account WHERE userid = ?";
const UPDATE: &str = "UPDATE account SET balance = ?, logins = ? WHERE userid = ?";
const DELETE: &str = "DELETE FROM account WHERE userid = ?";
const INSERT: &str = "INSERT INTO account \
    (userid, owner, balance, opened, logins, email, address, active) VALUES (?, ?, ?, ?, ?, ?, ?, ?)";

/// One account row.
fn row(i: i32) -> [Value; 8] {
    [
        Value::from(format!("uid:{i}")),
        Value::from(format!("Owner Number {i}")),
        Value::from(10_000.0 + f64::from(i)),
        Value::from(20_040_101),
        Value::from(i),
        Value::from(format!("uid{i}@example.com")),
        Value::from(format!("{i} Main Street, Springfield")),
        Value::from(true),
    ]
}

/// A database of eight accounts `uid:0`..`uid:7` with its WAL attached.
/// Eight rows: the table stays one B-tree leaf, so an update's
/// remove-and-reinsert never splits or merges a node.
fn accounts() -> Arc<Database> {
    let db = Database::new();
    db.execute_ddl(
        "CREATE TABLE account (userid VARCHAR PRIMARY KEY, owner VARCHAR, balance DOUBLE, \
         opened INT, logins INT, email VARCHAR, address VARCHAR, active BOOLEAN)",
    )
    .unwrap();
    let mut conn = db.connect();
    for i in 0..8 {
        conn.execute(INSERT, &row(i)).unwrap();
    }
    db.attach_wal();
    db
}

/// A wire server over `db` (no tracer) and a connection to it over a LAN.
fn remote(db: &Arc<Database>) -> (Arc<DbServer>, RemoteConnection) {
    let clock = Arc::new(Clock::new());
    let server = DbServer::new(Arc::clone(db), Arc::clone(&clock), DbCostModel::default());
    let path = Path::new("edge-db", clock, PathSpec::lan());
    let conn = RemoteConnection::open(Remote::new(path, Arc::clone(&server))).unwrap();
    (server, conn)
}

#[test]
fn statement_path_stays_within_its_allocation_budget() {
    let db = accounts();
    let mut conn = db.connect();

    let key = [Value::from("uid:3")];
    let sets = [Value::from(9_999.5), Value::from(42), Value::from("uid:3")];
    // Warm-up: plans cached, access paths recorded, lock table and trace
    // map at their working size.
    for _ in 0..4 {
        conn.execute(SELECT, &key).unwrap();
        conn.begin().unwrap();
        conn.execute(UPDATE, &sets).unwrap();
        conn.commit().unwrap();
    }

    // (a) A plan-cache hit and the parameter-count check: nothing. The
    // wrong count stops the statement right after the lookup.
    let hits = db.plan_cache_stats().hits;
    let (allocs, outcome) = allocs_of(|| conn.execute(SELECT, &[]));
    assert_eq!(
        outcome,
        Err(DbError::ParamCount {
            expected: 1,
            actual: 0
        })
    );
    assert_eq!(db.plan_cache_stats().hits, hits + 1);
    assert_eq!(allocs, 0, "plan-cache hit + parameter-count check");

    // A string value's clone: a reference count on its text. It was 1, the
    // text's copy.
    let (clone, copy) = allocs_of(|| key[0].clone());
    assert_eq!(clone, 0, "Value::clone of a string");
    assert_eq!(copy, key[0]);

    // (b) A primary-key SELECT of three named columns, autocommitted: 1 —
    // the result's one vector of cells, projected straight off the one
    // matched key through the column indices the plan keeps beside its
    // header. It was 2 while the one key was a match list of its own, and
    // 5 while a result was a list of rows (the borrowed-row list, the
    // projection indices, the row list and the row). A string cell is
    // shared text, so the matched key, the key in the lock table and the
    // one string among the result's cells are reference counts; it was 8
    // while each was a copy. The result's column
    // names are the plan's header, shared; while they were a vector and
    // three strings per result it was 12. Before in-place evaluation and
    // the shared schema it was 37: a deep schema copy, a bound copy of the
    // predicate, the table name once per lock and a full-row clone on top.
    let select = steady(|| {
        let (allocs, rs) = allocs_of(|| conn.execute(SELECT, &key).unwrap());
        assert_eq!(rs.rows()[0].len(), 3);
        allocs
    });
    assert!(select <= 1, "pk SELECT: {select} allocations");
    // The projection lives as long as the DDL epoch it was resolved under,
    // like the access path: the statement after any DDL pays for both
    // again (4 — the header's buffer and its frozen copy, the column
    // indices and the record holding both — and 1), the one after that
    // does not.
    db.execute_ddl("CREATE TABLE aside (id INT PRIMARY KEY)")
        .unwrap();
    let (replanned, _) = allocs_of(|| conn.execute(SELECT, &key).unwrap());
    assert_eq!(replanned, select + 5, "pk SELECT after DDL");
    let (again, _) = allocs_of(|| conn.execute(SELECT, &key).unwrap());
    assert_eq!(again, select, "pk SELECT, replanned");

    // (c) A primary-key UPDATE inside a transaction, WAL attached: 3 — the
    // new row's vector and its copy's for the log record, whose old image
    // is the row taken out of the table, and the assignment list. The
    // rows' four strings and the key — matched, in the lock probe and in
    // the table's map — are shared. It was 4 while the one key was a match
    // list, 15 while every string was copied, and 21 while the transaction
    // kept an undo record and a redo record of the same change.
    conn.begin().unwrap();
    let update = steady(|| {
        let (allocs, rs) = allocs_of(|| conn.execute(UPDATE, &sets).unwrap());
        assert_eq!(rs.affected_rows(), 1);
        allocs
    });
    conn.commit().unwrap();
    assert!(
        update <= 3,
        "pk UPDATE in a transaction: {update} allocations"
    );

    // (d) The commit of that one-statement transaction: 2 — the update
    // record and the commit record, each encoded in the log's kept scratch
    // buffer and appended as its exact copy. It was 4 while each was a
    // buffer of the record's exact size and its frozen copy, and 6 while
    // the update record outgrew a 128-byte buffer twice.
    let commit = steady(|| {
        conn.begin().unwrap();
        conn.execute(UPDATE, &sets).unwrap();
        allocs_of(|| conn.commit().unwrap()).0
    });
    assert!(commit <= 2, "commit: {commit} allocations");

    // (e) A primary-key DELETE inside a transaction: nothing. The one
    // matched key and the lock probe share the key's text; the row taken
    // out of the table is the log record's old image. It was 1 while the
    // one key was a match list, and 3 while the key was copied. Each run
    // puts the row back, unmeasured, for the next.
    let gone = row(3);
    conn.begin().unwrap();
    let delete = steady(|| {
        let (allocs, rs) = allocs_of(|| conn.execute(DELETE, &key).unwrap());
        assert_eq!(rs.affected_rows(), 1);
        conn.execute(INSERT, &gone).unwrap();
        allocs
    });
    conn.rollback().unwrap();
    assert_eq!(delete, 0, "pk DELETE in a transaction");

    // (f) The rollback of a one-UPDATE transaction: nothing. The log
    // record's old image is moved back in, and the key the table's map
    // takes is shared with it (it was 1).
    let rollback = steady(|| {
        conn.begin().unwrap();
        conn.execute(UPDATE, &sets).unwrap();
        allocs_of(|| conn.rollback().unwrap()).0
    });
    assert_eq!(rollback, 0, "rollback");
}

/// The wire around the statement path: a message is written in place in a
/// buffer its sender keeps — the connection's for a request, the server
/// session's for a reply — and read where it lies, so a remote call costs
/// the local one plus one allocation per message (its exact copy) and what
/// the reply's values need. A string either end read before is shared
/// from its string table, so a statement repeated, as here, decodes none.
#[test]
fn wire_path_stays_within_its_allocation_budget() {
    let db = accounts();
    let mut local = db.connect();
    let (_server, mut conn) = remote(&db);
    let key = [Value::from("uid:3")];
    let sets = [Value::from(9_999.5), Value::from(42), Value::from("uid:3")];
    for _ in 0..4 {
        conn.execute(SELECT, &key).unwrap();
        conn.execute(UPDATE, &sets).unwrap();
        local.execute(UPDATE, &sets).unwrap();
    }

    // (a) A framed message: 2 — the buffer the header and the payload are
    // written into, and the shared copy it freezes into. It was 4: the
    // payload's buffer and its frozen copy, then the frame's.
    let (framed, message) = allocs_of(|| {
        let mut w = Writer::framed();
        w.put_u8(2).put_u64(1).put_str(SELECT);
        w.finish_frame(protocol::JDBC, 1, 0)
    });
    assert_eq!(framed, 2, "a framed message");
    assert_eq!(message.len(), 32 + 1 + 8 + 4 + SELECT.len());

    // (a') The same message written into a kept buffer: 1 — its exact
    // copy; the buffer comes back for the next message.
    let mut kept = BytesMut::new();
    let kept_message = steady(|| {
        let (allocs, (message, buf)) = allocs_of(|| {
            let mut w = Writer::framed_in(std::mem::take(&mut kept));
            w.put_u8(2).put_u64(1).put_str(SELECT);
            w.finish_frame_keeping(protocol::JDBC, 1, 0)
        });
        kept = buf;
        assert_eq!(message.len(), 32 + 1 + 8 + 4 + SELECT.len());
        allocs
    });
    assert_eq!(kept_message, 1, "a framed message in a kept buffer");

    // (b) The primary-key SELECT of three columns, over the wire: 4 — the
    // engine's 1, two messages in kept buffers (2), and the decoded cells'
    // vector (1). The key decoded into the session's parameter scratch and
    // the one string cell are the ones each end's string table holds. The
    // statement text and the package name are read in the frame; the
    // column names stay in the reply. It was 6 while both ends copied
    // every string they decoded out of the frame, 9
    // while each message was a buffer and its frozen copy and the engine
    // built a match list, 14 while the server decoded into a parameter
    // list of its own and the engine and the decoder built a list of rows,
    // 17 with the engine's 8, and 31 before that.
    let select = steady(|| {
        let (allocs, rs) = allocs_of(|| conn.execute(SELECT, &key).unwrap());
        assert_eq!(
            rs.columns().collect::<Vec<_>>(),
            ["owner", "balance", "logins"]
        );
        allocs
    });
    assert!(select <= 4, "remote pk SELECT: {select} allocations");

    // (b') Six primary-key SELECTs in one batch frame, the shape of a
    // commit's read validation: 15 — six times the engine's 1, two
    // messages in kept buffers that have grown to fit them (2), the
    // outcome's result list (1) and six decoded results' cell vectors (6);
    // the six keys and six string cells are tabled. The server decodes the
    // frame's statements into the session's scratch and encodes each
    // result into the reply as it finishes. It was 27 while six keys and
    // six string cells were decoded afresh, 39 while each message was a buffer that outgrew its room twice
    // and a frozen copy and the engine built match lists, and 72 with a
    // statement list, a parameter list per statement and a result list on
    // the server, and rows on both sides.
    let batch: Vec<BatchStatement> = (0..6)
        .map(|i| BatchStatement::new(SELECT, vec![Value::from(format!("uid:{i}"))]))
        .collect();
    let six = steady(|| {
        let (allocs, out) = allocs_of(|| conn.execute_batch(&batch).unwrap());
        assert_eq!(out.results.len(), 6);
        assert!(out.error.is_none());
        allocs
    });
    assert!(
        six <= 15,
        "remote batch of six pk SELECTs: {six} allocations"
    );

    // (c) The autocommitted primary-key UPDATE: what it costs on a local
    // connection, plus two messages in kept buffers (2); its one string
    // parameter is tabled. It was local + 3 while the server decoded that
    // string afresh, local + 5 while each message was a buffer and its
    // frozen copy, and local + 6 while the server decoded into a parameter
    // list of its own.
    let update_local = steady(|| allocs_of(|| local.execute(UPDATE, &sets).unwrap()).0);
    let update = steady(|| {
        let (allocs, rs) = allocs_of(|| conn.execute(UPDATE, &sets).unwrap());
        assert_eq!(rs.affected_rows(), 1);
        allocs
    });
    assert!(
        update <= update_local + 2,
        "remote pk UPDATE: {update} allocations (local: {update_local})"
    );

    // (d) An empty transaction: four messages in kept buffers, 4. It was 8
    // while each was a buffer and its frozen copy, and 16 before a message
    // was one buffer.
    let empty = steady(|| {
        allocs_of(|| {
            conn.begin().unwrap();
            conn.commit().unwrap();
        })
        .0
    });
    assert!(empty <= 4, "remote BEGIN + COMMIT: {empty} allocations");
}

/// A row's strings are decoded once per endpoint: a remote pk SELECT of
/// three string columns repeated on the same row costs 4 fewer allocations
/// than its first read, the row's three string cells on the connection and
/// its key on the server — each end shares what it read before from its
/// string table.
#[test]
fn a_repeated_remote_read_decodes_its_row_strings_once() {
    const ROW: &str = "SELECT owner, email, address FROM account WHERE userid = ?";
    let db = accounts();
    let (_server, mut conn) = remote(&db);
    // Plan, buffers and scratch warmed on another row.
    for _ in 0..4 {
        conn.execute(ROW, &[Value::from("uid:0")]).unwrap();
    }
    let key = [Value::from("uid:3")];
    let (first, rs) = allocs_of(|| conn.execute(ROW, &key).unwrap());
    assert_eq!(rs.rows()[0][2], Value::from("3 Main Street, Springfield"));
    let again = steady(|| allocs_of(|| conn.execute(ROW, &key).unwrap()).0);
    assert_eq!(
        first,
        again + 4,
        "a remote pk SELECT's first read ({first}) and its repeats ({again})"
    );
    assert_eq!(again, 4, "a repeated remote pk SELECT");
}

/// A well-framed `OP_EXEC` (2) of `UPDATE` on `session`, announcing
/// `nparams` parameters and carrying none.
fn exec_frame(session: u64, nparams: u32) -> Bytes {
    let mut w = Writer::new();
    w.put_u8(2).put_u64(session).put_str("NULLID.SYSSH200");
    w.put_str("UPDATE account SET logins = ?").put_u32(nparams);
    frame(protocol::JDBC, 7, &w.finish())
}

/// A well-framed `OP_EXEC_BATCH` (6) on `session`, announcing `count`
/// statements and carrying one.
fn batch_frame(session: u64, count: u32) -> Bytes {
    let mut w = Writer::new();
    w.put_u8(6).put_u64(session).put_u32(count);
    w.put_str("NULLID.SYSSH200");
    w.put_str("SELECT logins FROM account WHERE userid = 'uid:3'")
        .put_u32(0);
    frame(protocol::JDBC, 7, &w.finish())
}

#[test]
fn a_hostile_count_reserves_only_what_its_frame_can_hold() {
    let db = accounts();
    let (server, mut conn) = remote(&db);
    // The connection above holds the server's first session.
    let session = 1;
    let logins = "SELECT logins FROM account WHERE userid = 'uid:3'";
    let before = (
        conn.execute(logins, &[]).unwrap(),
        db.wal_stats(),
        db.commit_seq(),
    );

    // A statement announcing u32::MAX parameters — 100 GB of them — and a
    // batch announcing u32::MAX statements, each in a frame of about a
    // hundred bytes.
    for message in [
        exec_frame(session, u32::MAX),
        batch_frame(session, u32::MAX),
    ] {
        let sent = message.len() as u64;
        assert!(sent < 128);
        let (asked, reply) = bytes_of(|| server.handle(message));
        let (header, payload) = unframe(reply).unwrap();
        assert_eq!(header.correlation, 7);
        assert_eq!(Reader::new(payload).get_u8().unwrap(), 1, "STATUS_ERR");
        assert!(
            asked < 8 * sent,
            "{asked} bytes requested for a {sent}-byte frame"
        );
    }
    // Nothing ran, and the session still works.
    let after = (
        conn.execute(logins, &[]).unwrap(),
        db.wal_stats(),
        db.commit_seq(),
    );
    assert_eq!(after, before);

    // Replies. Column and row counts a reply's bytes cannot hold: rows of
    // three columns, rows of no columns (which cost no bytes each and would
    // never end), and columns without names.
    let reply = |ncols: u32, names: &[&str], nrows: u32| {
        let mut w = Writer::new();
        w.put_u32(0).put_u32(ncols);
        for name in names {
            w.put_str(name);
        }
        w.put_u32(nrows).put_bytes(&[0xAB; 1024]);
        w.finish()
    };
    for hostile in [
        reply(3, &["a", "b", "c"], u32::MAX),
        reply(0, &[], u32::MAX),
        reply(u32::MAX, &[], 1),
    ] {
        let sent = hostile.len() as u64;
        let (asked, decoded) = bytes_of(|| ResultSet::decode(&mut Reader::new(hostile)));
        assert!(decoded.is_err());
        assert!(
            asked < 8 * sent,
            "{asked} bytes requested for a {sent}-byte reply"
        );
    }
    // Counts the reply's bytes could just hold as one-byte cells, with the
    // cells not there: the one vector of cells is reserved for at most one
    // cell per byte left, and the first cell that is not there fails.
    let hostile = reply(1, &["a"], 4 + 1024);
    let sent = hostile.len() as u64;
    let (asked, decoded) = bytes_of(|| ResultSet::decode(&mut Reader::new(hostile)));
    assert!(decoded.is_err());
    let cell = std::mem::size_of::<Value>() as u64;
    assert!(
        asked <= cell * sent,
        "{asked} bytes requested for a {sent}-byte reply"
    );
    // An honest reply of no columns and no rows still decodes.
    let mut r = Reader::new(reply(0, &[], 0));
    assert_eq!(ResultSet::decode(&mut r).unwrap(), ResultSet::affected(0));
}
