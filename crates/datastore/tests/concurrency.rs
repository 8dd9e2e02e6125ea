//! Multi-threaded integration tests of the engine's two-phase locking:
//! real OS threads hammering shared rows with transfers, deadlock victims
//! retrying, and conservation invariants checked at the end.

use std::sync::Arc;

use sli_datastore::{Database, DbError, SqlConnection, Value};
use std::thread;

fn bank(accounts: i64, opening: f64) -> Arc<Database> {
    let db = Database::new();
    db.execute_ddl("CREATE TABLE account (id INT PRIMARY KEY, balance DOUBLE)")
        .unwrap();
    let mut conn = db.connect();
    for i in 0..accounts {
        conn.execute(
            "INSERT INTO account (id, balance) VALUES (?, ?)",
            &[Value::from(i), Value::from(opening)],
        )
        .unwrap();
    }
    db
}

fn total(db: &Arc<Database>) -> f64 {
    let mut conn = db.connect();
    let rs = conn.execute("SELECT balance FROM account", &[]).unwrap();
    rs.rows().iter().map(|r| r[0].as_double().unwrap()).sum()
}

/// One transfer transaction; returns `Err` if chosen as a deadlock victim
/// (callers retry).
fn transfer(db: &Arc<Database>, from: i64, to: i64, amount: f64) -> Result<(), DbError> {
    let mut conn = db.connect();
    conn.begin()?;
    let result = (|| {
        let rs = conn.execute(
            "SELECT balance FROM account WHERE id = ?",
            &[Value::from(from)],
        )?;
        let from_balance = rs.rows()[0][0].as_double().unwrap();
        conn.execute(
            "UPDATE account SET balance = ? WHERE id = ?",
            &[Value::from(from_balance - amount), Value::from(from)],
        )?;
        let rs = conn.execute(
            "SELECT balance FROM account WHERE id = ?",
            &[Value::from(to)],
        )?;
        let to_balance = rs.rows()[0][0].as_double().unwrap();
        conn.execute(
            "UPDATE account SET balance = ? WHERE id = ?",
            &[Value::from(to_balance + amount), Value::from(to)],
        )?;
        Ok(())
    })();
    match result {
        Ok(()) => conn.commit(),
        Err(e) => {
            let _ = conn.rollback();
            Err(e)
        }
    }
}

#[test]
fn concurrent_transfers_conserve_money() {
    let db = bank(8, 1_000.0);
    let opening_total = total(&db);
    let threads = 4;
    let transfers_per_thread = 50;

    thread::scope(|scope| {
        for t in 0..threads {
            let db = Arc::clone(&db);
            scope.spawn(move || {
                let mut rng_state = 0x9E37_79B9u64.wrapping_mul(t as u64 + 1);
                let mut done = 0;
                while done < transfers_per_thread {
                    rng_state = rng_state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let from = (rng_state >> 33) as i64 % 8;
                    let to = (from + 1 + ((rng_state >> 40) as i64 % 7)) % 8;
                    match transfer(&db, from, to, 1.0) {
                        Ok(()) => done += 1,
                        Err(DbError::Deadlock) | Err(DbError::LockTimeout) => continue,
                        Err(e) => panic!("unexpected error: {e}"),
                    }
                }
            });
        }
    });

    assert_eq!(total(&db), opening_total, "2PL must serialize transfers");
    assert_eq!(db.lock_manager().lock_count(), 0, "locks leaked");
}

#[test]
fn readers_see_only_committed_states() {
    let db = bank(2, 500.0);
    let writers_done = Arc::new(std::sync::atomic::AtomicBool::new(false));

    thread::scope(|scope| {
        {
            let db = Arc::clone(&db);
            let done = Arc::clone(&writers_done);
            scope.spawn(move || {
                for _ in 0..100 {
                    loop {
                        match transfer(&db, 0, 1, 10.0) {
                            Ok(()) => break,
                            Err(DbError::Deadlock) | Err(DbError::LockTimeout) => continue,
                            Err(e) => panic!("unexpected error: {e}"),
                        }
                    }
                }
                done.store(true, std::sync::atomic::Ordering::Release);
            });
        }
        {
            let db = Arc::clone(&db);
            let done = Arc::clone(&writers_done);
            scope.spawn(move || {
                // Every read transaction must observe a conserved total:
                // intermediate (one-leg-applied) states are never visible.
                while !done.load(std::sync::atomic::Ordering::Acquire) {
                    let mut conn = db.connect();
                    if conn.begin().is_err() {
                        continue;
                    }
                    let sum = (|| -> Result<f64, DbError> {
                        let a = conn
                            .execute("SELECT balance FROM account WHERE id = 0", &[])?
                            .rows()[0][0]
                            .as_double()
                            .unwrap();
                        let b = conn
                            .execute("SELECT balance FROM account WHERE id = 1", &[])?
                            .rows()[0][0]
                            .as_double()
                            .unwrap();
                        Ok(a + b)
                    })();
                    let _ = conn.rollback();
                    match sum {
                        Ok(sum) => assert_eq!(sum, 1_000.0, "dirty read observed"),
                        Err(DbError::Deadlock) | Err(DbError::LockTimeout) => continue,
                        Err(e) => panic!("unexpected error: {e}"),
                    }
                }
            });
        }
    });
    assert_eq!(db.lock_manager().lock_count(), 0);
}

#[test]
fn hotspot_deadlocks_are_detected_not_hung() {
    // Opposite-order transfers on two rows provoke deadlocks; detection
    // must pick victims so the system keeps making progress.
    let db = bank(2, 100.0);
    let deadlocks = Arc::new(std::sync::atomic::AtomicUsize::new(0));
    thread::scope(|scope| {
        for t in 0..2 {
            let db = Arc::clone(&db);
            let deadlocks = Arc::clone(&deadlocks);
            scope.spawn(move || {
                let (from, to) = if t == 0 { (0, 1) } else { (1, 0) };
                let mut done = 0;
                while done < 30 {
                    match transfer(&db, from, to, 1.0) {
                        Ok(()) => done += 1,
                        Err(DbError::Deadlock) => {
                            deadlocks.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        }
                        Err(DbError::LockTimeout) => {}
                        Err(e) => panic!("unexpected error: {e}"),
                    }
                }
            });
        }
    });
    assert_eq!(total(&db), 200.0);
    assert_eq!(db.lock_manager().lock_count(), 0);
}

#[test]
fn autocommit_storm_from_many_threads() {
    let db = bank(1, 0.0);
    thread::scope(|scope| {
        for t in 0..8 {
            let db = Arc::clone(&db);
            scope.spawn(move || {
                let mut conn = db.connect();
                for i in 0..50 {
                    // unique keys per thread: pure insert workload
                    conn.execute(
                        "INSERT INTO account (id, balance) VALUES (?, 1.0)",
                        &[Value::from(1_000 + t * 100 + i)],
                    )
                    .unwrap();
                }
            });
        }
    });
    assert_eq!(db.row_count("account").unwrap(), 1 + 8 * 50);
    assert_eq!(db.lock_manager().lock_count(), 0);
}

/// Spins until `n` statements are parked in `db`'s lock manager.
fn until_parked(db: &Database, n: usize) {
    while db.lock_manager().waiters() < n {
        thread::yield_now();
    }
}

fn balance(conn: &mut impl SqlConnection, id: i64) -> Result<f64, DbError> {
    let rs = conn.execute(
        "SELECT balance FROM account WHERE id = ?",
        &[Value::from(id)],
    )?;
    Ok(rs.rows()[0][0].as_double().unwrap())
}

// A release wakes parked acquirers only when the lock manager counts one,
// so these three pin the count: it is 0 whenever nothing waits (a release
// then wakes nobody), it is 1 while a statement is parked, and the parked
// statement still wakes — a missed wake-up would end it in LockTimeout.

#[test]
fn a_parked_acquirer_is_woken_by_the_release() {
    let db = bank(2, 100.0);
    let mut holder = db.connect();
    holder.begin().unwrap();
    holder
        .execute("UPDATE account SET balance = 50.0 WHERE id = 0", &[])
        .unwrap();
    assert_eq!(db.lock_manager().waiters(), 0);
    thread::scope(|scope| {
        let reader = scope.spawn(|| balance(&mut db.connect(), 0));
        until_parked(&db, 1);
        holder.commit().unwrap();
        assert_eq!(reader.join().unwrap(), Ok(50.0));
    });
    assert_eq!(db.lock_manager().waiters(), 0);
}

#[test]
fn a_deadlock_victim_errors_and_the_survivor_proceeds() {
    let db = bank(2, 100.0);
    let touch = "UPDATE account SET balance = 1.0 WHERE id = ?";
    let mut first = db.connect();
    first.begin().unwrap();
    first.execute(touch, &[Value::from(0)]).unwrap();
    let (holds, held) = std::sync::mpsc::channel();
    thread::scope(|scope| {
        let second = scope.spawn(|| {
            let mut conn = db.connect();
            conn.begin()?;
            conn.execute(touch, &[Value::from(1)])?;
            holds.send(()).unwrap();
            // Parks on row 0, which the first transaction holds.
            conn.execute(touch, &[Value::from(0)])?;
            conn.commit()
        });
        held.recv().unwrap();
        until_parked(&db, 1);
        // Row 1 closes the cycle: the requester is the victim.
        assert_eq!(
            first.execute(touch, &[Value::from(1)]).unwrap_err(),
            DbError::Deadlock
        );
        first.rollback().unwrap();
        second.join().unwrap().unwrap();
    });
    assert_eq!(db.lock_manager().waiters(), 0);
    assert_eq!(db.lock_manager().lock_count(), 0);
}

#[test]
fn a_release_with_no_waiter_finds_none_counted() {
    let db = bank(2, 100.0);
    let mut conn = db.connect();
    for _ in 0..3 {
        conn.begin().unwrap();
        conn.execute("UPDATE account SET balance = 90.0 WHERE id = 1", &[])
            .unwrap();
        assert_eq!(db.lock_manager().waiters(), 0);
        conn.commit().unwrap();
        assert_eq!(balance(&mut conn, 1), Ok(90.0));
        assert_eq!(db.lock_manager().waiters(), 0);
    }
}
