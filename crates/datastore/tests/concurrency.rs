//! The engine's two-phase locking under interleaving, on one thread:
//! several `Connection`s on one `Database` take turns a statement at a
//! time. A conflicting statement is refused with `Blocked` and run again
//! at a later turn; a deadlock victim rolls back and starts over. The
//! checks are the 2PL guarantees — no dirty reads, conserved money, no
//! leaked locks — and the order of every run is fixed by its seed.

use std::sync::Arc;

use sli_datastore::{Connection, Database, DbError, SqlConnection, Value};

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

fn balance(conn: &mut impl SqlConnection, id: i64) -> Result<f64, DbError> {
    let rs = conn.execute(
        "SELECT balance FROM account WHERE id = ?",
        &[Value::from(id)],
    )?;
    Ok(rs.rows()[0][0].as_double().unwrap())
}

fn set_balance(conn: &mut impl SqlConnection, id: i64, to: f64) -> Result<(), DbError> {
    conn.execute(
        "UPDATE account SET balance = ? WHERE id = ?",
        &[Value::from(to), Value::from(id)],
    )
    .map(drop)
}

/// A 64-bit LCG: the interleavings' only source of choice.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self, bound: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 33) % bound as u64) as usize
    }
}

/// A transaction program run one statement per [`Program::step`].
trait Program {
    /// Runs the next statement; `Ok(true)` once the transaction committed.
    fn step(&mut self) -> Result<bool, DbError>;
    /// Rolls the current transaction back, to start it over.
    fn restart(&mut self);
}

/// What an interleaving ran into.
#[derive(Debug, Default)]
struct Tally {
    blocked: usize,
    deadlocks: usize,
}

/// Runs `programs` a statement at a time, in an order drawn from `seed`,
/// until each has committed `commits` transactions. A blocked statement
/// is run again at a later turn; a deadlock victim rolls back and starts
/// its transaction over. A run that stops committing fails instead of
/// spinning: an undetected deadlock is refused forever.
fn interleave(seed: u64, programs: &mut [&mut dyn Program], commits: usize) -> Tally {
    let mut order = Lcg(seed);
    let mut done = vec![0; programs.len()];
    let mut tally = Tally::default();
    for _ in 0..100_000 {
        let live: Vec<usize> = (0..programs.len()).filter(|&i| done[i] < commits).collect();
        if live.is_empty() {
            return tally;
        }
        let i = live[order.next(live.len())];
        let program = &mut *programs[i];
        match program.step() {
            Ok(true) => done[i] += 1,
            Ok(false) => {}
            Err(DbError::Blocked) => tally.blocked += 1,
            Err(DbError::Deadlock) => {
                tally.deadlocks += 1;
                program.restart();
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    panic!("no progress in 100 000 turns: {tally:?}");
}

/// Moves `amount` between two of `accounts` accounts, drawn from its own
/// seed for each transaction: read and write the source, then the target.
struct Transfer {
    conn: Connection,
    pick: Lcg,
    accounts: usize,
    amount: f64,
    from: i64,
    to: i64,
    next: usize,
    read: f64,
}

impl Transfer {
    fn new(db: &Arc<Database>, seed: u64, accounts: usize, amount: f64) -> Transfer {
        let mut t = Transfer {
            conn: db.connect(),
            pick: Lcg(seed),
            accounts,
            amount,
            from: 0,
            to: 0,
            next: 0,
            read: 0.0,
        };
        t.draw();
        t
    }

    fn draw(&mut self) {
        let n = self.accounts;
        let from = self.pick.next(n);
        self.from = from as i64;
        self.to = ((from + 1 + self.pick.next(n - 1)) % n) as i64;
    }
}

impl Program for Transfer {
    fn step(&mut self) -> Result<bool, DbError> {
        match self.next {
            0 => self.conn.begin()?,
            1 => self.read = balance(&mut self.conn, self.from)?,
            2 => set_balance(&mut self.conn, self.from, self.read - self.amount)?,
            3 => self.read = balance(&mut self.conn, self.to)?,
            4 => set_balance(&mut self.conn, self.to, self.read + self.amount)?,
            _ => {
                self.conn.commit()?;
                self.next = 0;
                self.draw();
                return Ok(true);
            }
        }
        self.next += 1;
        Ok(false)
    }

    fn restart(&mut self) {
        self.conn.rollback().unwrap();
        self.next = 0;
    }
}

/// Reads accounts 0 and 1 in one transaction and checks their sum.
struct Reader {
    conn: Connection,
    expected: f64,
    next: usize,
    sum: f64,
}

impl Program for Reader {
    fn step(&mut self) -> Result<bool, DbError> {
        match self.next {
            0 => {
                self.conn.begin()?;
                self.sum = 0.0;
            }
            1 | 2 => self.sum += balance(&mut self.conn, self.next as i64 - 1)?,
            _ => {
                assert_eq!(self.sum, self.expected, "uncommitted state observed");
                self.conn.commit()?;
                self.next = 0;
                return Ok(true);
            }
        }
        self.next += 1;
        Ok(false)
    }

    fn restart(&mut self) {
        self.conn.rollback().unwrap();
        self.next = 0;
    }
}

#[test]
fn a_blocked_statement_has_no_effect_and_succeeds_once_the_holder_commits() {
    let db = bank(2, 100.0);
    let mut holder = db.connect();
    holder.begin().unwrap();
    set_balance(&mut holder, 0, 50.0).unwrap();

    let mut writer = db.connect();
    writer.begin().unwrap();
    set_balance(&mut writer, 1, 70.0).unwrap();
    assert_eq!(set_balance(&mut writer, 0, 60.0), Err(DbError::Blocked));
    assert_eq!(
        balance(&mut holder, 0),
        Ok(50.0),
        "the refused UPDATE wrote"
    );
    // An autocommitted read is refused too, and keeps no lock.
    let locks = db.lock_manager().lock_count();
    let mut reader = db.connect();
    assert_eq!(balance(&mut reader, 0), Err(DbError::Blocked));
    assert_eq!(db.lock_manager().lock_count(), locks);
    assert!(writer.in_transaction());

    holder.commit().unwrap();
    set_balance(&mut writer, 0, 60.0).unwrap();
    writer.commit().unwrap();
    assert_eq!(balance(&mut reader, 0), Ok(60.0));
    assert_eq!(balance(&mut reader, 1), Ok(70.0));
    assert_eq!(db.lock_manager().lock_count(), 0);
}

#[test]
fn a_shared_table_lock_refuses_an_intent_exclusive() {
    let db = bank(2, 100.0);
    let mut scanner = db.connect();
    scanner.begin().unwrap();
    // A full scan takes S on the table; a row write needs IX there first.
    scanner.execute("SELECT balance FROM account", &[]).unwrap();
    let mut writer = db.connect();
    assert_eq!(set_balance(&mut writer, 0, 1.0), Err(DbError::Blocked));
    assert_eq!(
        writer
            .execute("INSERT INTO account (id, balance) VALUES (9, 1.0)", &[])
            .unwrap_err(),
        DbError::Blocked
    );
    assert_eq!(db.lock_manager().lock_count(), 1, "only the scan's S");
    scanner.commit().unwrap();
    set_balance(&mut writer, 0, 1.0).unwrap();
    assert_eq!(balance(&mut writer, 0), Ok(1.0));
    assert_eq!(db.row_count("account").unwrap(), 2);
}

#[test]
fn a_deadlock_victim_errors_and_the_survivor_commits() {
    let db = bank(2, 100.0);
    let mut first = db.connect();
    let mut second = db.connect();
    first.begin().unwrap();
    second.begin().unwrap();
    set_balance(&mut first, 0, 1.0).unwrap();
    set_balance(&mut second, 1, 2.0).unwrap();
    // Row 0 is first's: second is refused and now waits on it.
    assert_eq!(set_balance(&mut second, 0, 2.0), Err(DbError::Blocked));
    // Row 1 closes the cycle: the requester is the victim.
    assert_eq!(set_balance(&mut first, 1, 1.0), Err(DbError::Deadlock));
    first.rollback().unwrap();
    set_balance(&mut second, 0, 2.0).unwrap();
    second.commit().unwrap();
    let mut conn = db.connect();
    assert_eq!(balance(&mut conn, 0), Ok(2.0));
    assert_eq!(balance(&mut conn, 1), Ok(2.0));
    assert_eq!(db.lock_manager().lock_count(), 0);
}

#[test]
fn a_release_grants_several_blocked_readers() {
    let db = bank(1, 100.0);
    let mut holder = db.connect();
    holder.begin().unwrap();
    set_balance(&mut holder, 0, 40.0).unwrap();
    let mut readers: Vec<Connection> = (0..3).map(|_| db.connect()).collect();
    for reader in &mut readers {
        reader.begin().unwrap();
        assert_eq!(balance(reader, 0), Err(DbError::Blocked));
    }
    holder.commit().unwrap();
    for reader in &mut readers {
        assert_eq!(balance(reader, 0), Ok(40.0));
    }
    // Each reader holds IS on the table and S on the row.
    assert_eq!(db.lock_manager().lock_count(), 6);
    for reader in &mut readers {
        reader.commit().unwrap();
    }
    assert_eq!(db.lock_manager().lock_count(), 0);
}

#[test]
fn interleaved_transfers_conserve_money() {
    let db = bank(8, 1_000.0);
    let opening_total = total(&db);
    let mut programs: Vec<Transfer> = (0..4)
        .map(|t| Transfer::new(&db, 0x9E37_79B9 * (t + 1), 8, 1.0))
        .collect();
    let mut dyns: Vec<&mut dyn Program> =
        programs.iter_mut().map(|p| p as &mut dyn Program).collect();
    let tally = interleave(7, &mut dyns, 25);
    assert_eq!(total(&db), opening_total, "2PL must serialize transfers");
    assert_eq!(db.lock_manager().lock_count(), 0, "locks leaked");
    assert!(
        tally.blocked > 0,
        "no statement was ever refused: {tally:?}"
    );
    assert!(
        tally.deadlocks > 0,
        "no deadlock was ever broken: {tally:?}"
    );
}

#[test]
fn readers_see_only_committed_totals() {
    let db = bank(2, 500.0);
    let mut first = Transfer::new(&db, 31, 2, 10.0);
    let mut second = Transfer::new(&db, 32, 2, 10.0);
    let mut reader = Reader {
        conn: db.connect(),
        expected: 1_000.0,
        next: 0,
        sum: 0.0,
    };
    let tally = interleave(11, &mut [&mut first, &mut second, &mut reader], 30);
    assert!(
        tally.blocked > 0,
        "no statement was ever refused: {tally:?}"
    );
    assert_eq!(total(&db), 1_000.0);
    assert_eq!(db.lock_manager().lock_count(), 0);
}

#[test]
fn interleaved_autocommit_inserts_leak_no_locks() {
    let db = bank(1, 0.0);
    let mut scanner = db.connect();
    scanner.begin().unwrap();
    scanner.execute("SELECT balance FROM account", &[]).unwrap();
    let mut conns: Vec<Connection> = (0..8).map(|_| db.connect()).collect();
    let mut inserted = vec![0i64; conns.len()];
    let mut order = Lcg(3);
    let (mut turns, mut refused) = (0, 0);
    while inserted.iter().any(|&n| n < 50) {
        // The scan's table S refuses every insert's IX for the first
        // hundred turns; a refused autocommit statement keeps no lock.
        if turns == 100 {
            scanner.commit().unwrap();
        }
        turns += 1;
        let c = order.next(conns.len());
        if inserted[c] == 50 {
            continue;
        }
        let id = 1_000 + c as i64 * 100 + inserted[c];
        match conns[c].execute(
            "INSERT INTO account (id, balance) VALUES (?, 1.0)",
            &[Value::from(id)],
        ) {
            Ok(_) => inserted[c] += 1,
            Err(DbError::Blocked) => {
                refused += 1;
                assert_eq!(db.lock_manager().lock_count(), 1, "only the scan's S");
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert_eq!(refused, 100, "refused exactly while the scan held S");
    assert_eq!(db.row_count("account").unwrap(), 1 + 8 * 50);
    assert_eq!(db.lock_manager().lock_count(), 0);
}
