//! Allocation budget of the statement hot path.
//!
//! What depends only on a statement's SQL text or on its table is resolved
//! once (DESIGN §19); a call pays for what depends on its parameters. This
//! test pins that as allocation counts, so a regression on the statement
//! path fails here, naming the layer, instead of as a drift in a benchmark
//! run. The file holds one test and counts on the test's own thread, so the
//! numbers are exact.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sli_datastore::{Database, DbError, SqlConnection, Value};

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

#[test]
fn statement_path_stays_within_its_allocation_budget() {
    let db = Database::new();
    db.execute_ddl(
        "CREATE TABLE account (userid VARCHAR PRIMARY KEY, owner VARCHAR, balance DOUBLE, \
         opened INT, logins INT, email VARCHAR, address VARCHAR, active BOOLEAN)",
    )
    .unwrap();
    let mut conn = db.connect();
    // Eight rows: the table stays one B-tree leaf, so an update's
    // remove-and-reinsert never splits or merges a node.
    let row = |i: i32| {
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
    };
    for i in 0..8 {
        conn.execute(INSERT, &row(i)).unwrap();
    }
    db.attach_wal();

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

    // (b) A primary-key SELECT of three named columns, autocommitted: 12,
    // its three result cells plus nine — the key copied into the lock table
    // (1) and into the match list (2), the borrowed-row list, the projection
    // indices, the row list and the row (2), the one string among the cells,
    // and the result's column names (a vector and three strings). Before
    // in-place evaluation and the shared schema it was 37: a deep schema
    // copy, a bound copy of the predicate, the table name once per lock and
    // a full-row clone on top.
    let cells = 3;
    let select = steady(|| {
        let (allocs, rs) = allocs_of(|| conn.execute(SELECT, &key).unwrap());
        assert_eq!(rs.rows()[0].len(), cells);
        allocs
    });
    assert!(
        select <= cells as u64 + 9,
        "pk SELECT: {select} allocations"
    );

    // (c) A primary-key UPDATE inside a transaction, WAL attached: 15 — the
    // new row (5: a vector and four strings) and its copy for the log
    // record (5), whose old image is the row taken out of the table; the
    // key in the match list (2), in the lock probe (1) and in the table's
    // map (1), and the assignment list. It was 21 while the transaction
    // kept an undo record and a redo record of the same change.
    conn.begin().unwrap();
    let update = steady(|| {
        let (allocs, rs) = allocs_of(|| conn.execute(UPDATE, &sets).unwrap());
        assert_eq!(rs.affected_rows(), 1);
        allocs
    });
    conn.commit().unwrap();
    assert!(
        update <= 15,
        "pk UPDATE in a transaction: {update} allocations"
    );

    // (d) The commit of that one-statement transaction: 6 — the update
    // record (buffer, two growths, frozen copy) and the commit record
    // (buffer, frozen copy). Unchanged by this test's PR; pinned so the
    // log's cost per commit is on record.
    let commit = steady(|| {
        conn.begin().unwrap();
        conn.execute(UPDATE, &sets).unwrap();
        allocs_of(|| conn.commit().unwrap()).0
    });
    assert!(commit <= 6, "commit: {commit} allocations");

    // (e) A primary-key DELETE inside a transaction: 3 — the key in the
    // match list (2) and in the lock probe (1). The row taken out of the
    // table is the log record's old image; nothing is copied. Each run
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
    assert!(
        delete <= 3,
        "pk DELETE in a transaction: {delete} allocations"
    );

    // (f) The rollback of a one-UPDATE transaction: 1 — the key the table's
    // map takes when the log record's old image goes back in. The image
    // itself is moved, not copied.
    let rollback = steady(|| {
        conn.begin().unwrap();
        conn.execute(UPDATE, &sets).unwrap();
        allocs_of(|| conn.rollback().unwrap()).0
    });
    assert!(rollback <= 1, "rollback: {rollback} allocations");
}
