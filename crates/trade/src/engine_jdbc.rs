//! The hand-optimized pure-JDBC implementation of Trade2.
//!
//! Included "because JDBC implementations are commonly understood to
//! provide better performance than higher-level implementations such as
//! EJBs" (§4.3). Each action issues the minimum number of SQL statements:
//! single-statement reads run in autocommit mode, multi-statement actions
//! use one explicit transaction. No existence probes, no N+1 loads, and
//! statements with no data dependency between them ship together in one
//! batched round trip (`addBatch`/`executeBatch` in real JDBC) — on a
//! remote connection that is the difference between paying the wide-area
//! delay per statement and paying it per *group*.

use std::sync::atomic::{AtomicI64, Ordering};

use sli_component::{EjbError, EjbResult};
use sli_datastore::{BatchStatement, Money, ResultSet, SqlConnection, Value};

use crate::action::{TradeAction, TradeResult};
use crate::util::show;
use crate::TradeEngine;

/// Hand-written SQL engine over a (possibly remote) JDBC connection.
pub struct JdbcTradeEngine {
    conn: sli_component::SharedConnection,
    next_holding: AtomicI64,
    clock_seq: AtomicI64,
}

impl std::fmt::Debug for JdbcTradeEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JdbcTradeEngine").finish_non_exhaustive()
    }
}

impl JdbcTradeEngine {
    /// Creates the engine. `holding_id_base` gives this server a disjoint
    /// holding-id range, mirroring [`EjbTradeEngine`](crate::EjbTradeEngine).
    pub fn new(conn: sli_component::SharedConnection, holding_id_base: i64) -> JdbcTradeEngine {
        JdbcTradeEngine {
            conn,
            next_holding: AtomicI64::new(holding_id_base),
            clock_seq: AtomicI64::new(1),
        }
    }

    fn not_found(table: &str, key: &str) -> EjbError {
        EjbError::not_found(table, key)
    }

    /// Ships `stmts` in one round trip, surfacing the first statement
    /// failure as the action's error (the surrounding transaction rolls
    /// back, exactly as when the statement ran on its own).
    fn batch(
        conn: &mut dyn SqlConnection,
        stmts: Vec<BatchStatement>,
    ) -> EjbResult<Vec<ResultSet>> {
        Ok(conn.execute_batch(&stmts)?.into_result()?)
    }

    /// Runs `f` inside one explicit transaction, rolling back on error.
    fn in_txn<T>(&self, f: impl FnOnce(&mut dyn SqlConnection) -> EjbResult<T>) -> EjbResult<T> {
        let mut conn = self.conn.lock();
        if let Err(e) = conn.begin() {
            // A transaction stranded by a failed commit or rollback (the
            // database crashed mid-protocol, say) blocks every later begin;
            // roll it back so the next attempt gets a clean connection.
            let _ = conn.rollback();
            return Err(e.into());
        }
        match f(&mut *conn) {
            Ok(v) => {
                conn.commit()?;
                Ok(v)
            }
            Err(e) => {
                let _ = conn.rollback();
                Err(e)
            }
        }
    }

    fn login(&self, user: &str) -> EjbResult<TradeResult> {
        let now = self.clock_seq.fetch_add(1, Ordering::Relaxed);
        self.in_txn(|conn| {
            let rs = conn.execute(
                "SELECT logincount FROM registry WHERE userid = ?",
                &[Value::from(user)],
            )?;
            let count = rs
                .rows()
                .first()
                .ok_or_else(|| Self::not_found("Registry", user))?[0]
                .as_int()
                .unwrap_or(0)
                + 1;
            // The registry write and the balance read are independent:
            // one batched round trip instead of two.
            let results = Self::batch(
                conn,
                vec![
                    BatchStatement::new(
                        "UPDATE registry SET loggedin = TRUE, logincount = ?, lastlogin = ? WHERE userid = ?",
                        vec![Value::from(count), Value::from(now), Value::from(user)],
                    ),
                    BatchStatement::new(
                        "SELECT balance FROM account WHERE userid = ?",
                        vec![Value::from(user)],
                    ),
                ],
            )?;
            let balance = results[1]
                .rows()
                .first()
                .ok_or_else(|| Self::not_found("Account", user))?[0]
                .as_double()
                .unwrap_or(0.0);
            Ok(TradeResult::new("Trade Login")
                .field("user", user)
                .field("login count", count)
                .field("balance", Money(balance)))
        })
    }

    fn logout(&self, user: &str) -> EjbResult<TradeResult> {
        let mut conn = self.conn.lock();
        let rs = conn.execute(
            "UPDATE registry SET loggedin = FALSE WHERE userid = ?",
            &[Value::from(user)],
        )?;
        if rs.affected_rows() == 0 {
            return Err(Self::not_found("Registry", user));
        }
        Ok(TradeResult::new("Trade Logout").field("user", user))
    }

    fn register(&self, user: &str) -> EjbResult<TradeResult> {
        let now = self.clock_seq.fetch_add(1, Ordering::Relaxed);
        self.in_txn(|conn| {
            // All four statements are known up front (the balance SELECT
            // reads the row the first INSERT writes, and the server runs a
            // batch strictly in order): one round trip for the whole
            // registration.
            let results = Self::batch(
                conn,
                vec![
                    BatchStatement::new(
                        "INSERT INTO account (userid, balance, opentimestamp) VALUES (?, ?, ?)",
                        vec![Value::from(user), Value::from(10_000.0), Value::from(now)],
                    ),
                    BatchStatement::new(
                        "SELECT balance FROM account WHERE userid = ?",
                        vec![Value::from(user)],
                    ),
                    BatchStatement::new(
                        "INSERT INTO profile (userid, fullname, address, email, creditcard, password) \
                         VALUES (?, ?, ?, ?, ?, ?)",
                        vec![
                            Value::from(user),
                            Value::from(format!("Trade User {user}")),
                            Value::from("1 Wall St, New York"),
                            Value::from(format!("{user}@trade.example.com")),
                            Value::from("0000-1111-2222-3333"),
                            Value::from("xxx"),
                        ],
                    ),
                    BatchStatement::new(
                        "INSERT INTO registry (userid, loggedin, logincount, lastlogin) VALUES (?, FALSE, 0, 0)",
                        vec![Value::from(user)],
                    ),
                ],
            )?;
            let balance = results[1].rows()[0][0].as_double().unwrap_or(0.0);
            Ok(TradeResult::new("Trade Registration")
                .field("user", user)
                .field("opening balance", Money(balance)))
        })
    }

    fn home(&self, user: &str) -> EjbResult<TradeResult> {
        let mut conn = self.conn.lock();
        let rs = conn.execute(
            "SELECT balance FROM account WHERE userid = ?",
            &[Value::from(user)],
        )?;
        let balance = rs
            .rows()
            .first()
            .ok_or_else(|| Self::not_found("Account", user))?[0]
            .as_double()
            .unwrap_or(0.0);
        Ok(TradeResult::new("Trade Home")
            .field("user", user)
            .field("balance", Money(balance))
            .field("market summary", "TSIA 100.32 (+0.4%) volume 40.1M"))
    }

    fn account(&self, user: &str) -> EjbResult<TradeResult> {
        let mut conn = self.conn.lock();
        let rs = conn.execute(
            "SELECT fullname, address, email, creditcard FROM profile WHERE userid = ?",
            &[Value::from(user)],
        )?;
        let row = rs
            .rows()
            .first()
            .ok_or_else(|| Self::not_found("Profile", user))?;
        Ok(TradeResult::new("Account Information")
            .field("user", user)
            .field("fullname", show(&row[0]))
            .field("address", show(&row[1]))
            .field("email", show(&row[2]))
            .field("creditcard", show(&row[3])))
    }

    fn account_update(&self, user: &str, email: &str) -> EjbResult<TradeResult> {
        // Hand-optimized: display-read and update as two autocommitted
        // statements (no cross-statement atomicity needed).
        let old = {
            let mut conn = self.conn.lock();
            let rs = conn.execute(
                "SELECT email FROM profile WHERE userid = ?",
                &[Value::from(user)],
            )?;
            rs.rows()
                .first()
                .ok_or_else(|| Self::not_found("Profile", user))?[0]
                .clone()
        };
        self.conn.lock().execute(
            "UPDATE profile SET email = ? WHERE userid = ?",
            &[Value::from(email), Value::from(user)],
        )?;
        Ok(TradeResult::new("Account Update")
            .field("user", user)
            .field("old email", show(&old))
            .field("new email", email))
    }

    fn portfolio(&self, user: &str) -> EjbResult<TradeResult> {
        let mut conn = self.conn.lock();
        // One statement fetches the whole portfolio — no N+1.
        let rs = conn.execute(
            "SELECT holdingid, symbol, quantity, purchaseprice FROM holding WHERE userid = ? \
             ORDER BY holdingid",
            &[Value::from(user)],
        )?;
        let mut result = TradeResult::new("Portfolio")
            .field("user", user)
            .field("holdings", rs.len())
            .header(&["holding", "symbol", "quantity", "purchase price"]);
        for row in rs.rows() {
            result
                .cell(&row[0])
                .cell(show(&row[1]))
                .cell(&row[2])
                .cell(Money(row[3].as_double().unwrap_or(0.0)));
        }
        Ok(result)
    }

    fn quote(&self, symbol: &str) -> EjbResult<TradeResult> {
        let mut conn = self.conn.lock();
        let rs = conn.execute(
            "SELECT companyname, price, open, low, high, volume FROM quote WHERE symbol = ?",
            &[Value::from(symbol)],
        )?;
        let row = rs
            .rows()
            .first()
            .ok_or_else(|| Self::not_found("Quote", symbol))?;
        Ok(TradeResult::new("Quote")
            .field("symbol", symbol)
            .field("companyname", show(&row[0]))
            .field("price", show(&row[1]))
            .field("open", show(&row[2]))
            .field("low", show(&row[3]))
            .field("high", show(&row[4]))
            .field("volume", show(&row[5])))
    }

    fn buy(&self, user: &str, symbol: &str, quantity: f64) -> EjbResult<TradeResult> {
        let holding_id = self.next_holding.fetch_add(1, Ordering::Relaxed);
        let now = self.clock_seq.fetch_add(1, Ordering::Relaxed);
        self.in_txn(|conn| {
            // Two batched round trips: the independent price/balance reads
            // together, then (once the cost is known) both writes together.
            let reads = Self::batch(
                conn,
                vec![
                    BatchStatement::new(
                        "SELECT price FROM quote WHERE symbol = ?",
                        vec![Value::from(symbol)],
                    ),
                    BatchStatement::new(
                        "SELECT balance FROM account WHERE userid = ?",
                        vec![Value::from(user)],
                    ),
                ],
            )?;
            let price = reads[0]
                .rows()
                .first()
                .ok_or_else(|| Self::not_found("Quote", symbol))?[0]
                .as_double()
                .unwrap_or(0.0);
            let balance = reads[1]
                .rows()
                .first()
                .ok_or_else(|| Self::not_found("Account", user))?[0]
                .as_double()
                .unwrap_or(0.0);
            let cost = price * quantity;
            Self::batch(
                conn,
                vec![
                    BatchStatement::new(
                        "UPDATE account SET balance = ? WHERE userid = ?",
                        vec![Value::from(balance - cost), Value::from(user)],
                    ),
                    BatchStatement::new(
                        "INSERT INTO holding (holdingid, userid, symbol, quantity, purchaseprice, purchasedate) \
                         VALUES (?, ?, ?, ?, ?, ?)",
                        vec![
                            Value::from(holding_id),
                            Value::from(user),
                            Value::from(symbol),
                            Value::from(quantity),
                            Value::from(price),
                            Value::from(now),
                        ],
                    ),
                ],
            )?;
            Ok(TradeResult::new("Buy Confirmation")
                .field("user", user)
                .field("symbol", symbol)
                .field("quantity", quantity)
                .field("price", Money(price))
                .field("total", Money(cost))
                .field("new balance", Money(balance - cost)))
        })
    }

    fn sell(&self, user: &str) -> EjbResult<TradeResult> {
        self.in_txn(|conn| {
            let rs = conn.execute(
                "SELECT holdingid, symbol, quantity FROM holding WHERE userid = ? \
                 ORDER BY holdingid LIMIT 1",
                &[Value::from(user)],
            )?;
            let Some(row) = rs.rows().first() else {
                return Ok(TradeResult::new("Sell")
                    .field("user", user)
                    .field("status", "no holdings to sell"));
            };
            let (hid, symbol, qty) = (row[0].clone(), row[1].clone(), row[2].clone());
            // The holding row picked the symbol; from here the price and
            // balance reads are independent, as are the two writes.
            let reads = Self::batch(
                conn,
                vec![
                    BatchStatement::new(
                        "SELECT price FROM quote WHERE symbol = ?",
                        vec![symbol.clone()],
                    ),
                    BatchStatement::new(
                        "SELECT balance FROM account WHERE userid = ?",
                        vec![Value::from(user)],
                    ),
                ],
            )?;
            let price = reads[0].rows()[0][0].as_double().unwrap_or(0.0);
            let balance = reads[1].rows()[0][0].as_double().unwrap_or(0.0);
            let proceeds = price * qty.as_double().unwrap_or(0.0);
            Self::batch(
                conn,
                vec![
                    BatchStatement::new(
                        "UPDATE account SET balance = ? WHERE userid = ?",
                        vec![Value::from(balance + proceeds), Value::from(user)],
                    ),
                    BatchStatement::new(
                        "DELETE FROM holding WHERE holdingid = ?",
                        vec![hid.clone()],
                    ),
                ],
            )?;
            Ok(TradeResult::new("Sell Confirmation")
                .field("user", user)
                .field("holding", hid)
                .field("symbol", show(&symbol))
                .field("quantity", qty)
                .field("price", Money(price))
                .field("proceeds", Money(proceeds))
                .field("new balance", Money(balance + proceeds)))
        })
    }
}

impl TradeEngine for JdbcTradeEngine {
    fn perform(&self, action: &TradeAction) -> EjbResult<TradeResult> {
        match action {
            TradeAction::Login { user } => self.login(user),
            TradeAction::Logout { user } => self.logout(user),
            TradeAction::Register { user } => self.register(user),
            TradeAction::Home { user } => self.home(user),
            TradeAction::Account { user } => self.account(user),
            TradeAction::AccountUpdate { user, email } => self.account_update(user, email),
            TradeAction::Portfolio { user } => self.portfolio(user),
            TradeAction::Quote { symbol } => self.quote(symbol),
            TradeAction::Buy {
                user,
                symbol,
                quantity,
            } => self.buy(user, symbol, *quantity),
            TradeAction::Sell { user } => self.sell(user),
        }
    }

    fn label(&self) -> &'static str {
        "JDBC"
    }
}
