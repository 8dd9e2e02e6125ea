//! Database population for the Trade2 workload.

use sli_component::EjbResult;
use std::sync::Arc;

use sli_datastore::{Database, SqlConnection, Value};

use crate::model::trade_registry;

/// Sizing of the seeded Trade2 database.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Population {
    /// Number of registered users (`uid:0` … `uid:N-1`).
    pub users: usize,
    /// Number of listed securities (`s:0` … `s:M-1`).
    pub quotes: usize,
    /// Initial holdings per user.
    pub holdings_per_user: usize,
}

impl Default for Population {
    /// The defaults Trade2 ships with for small runs: 50 users, 100
    /// quotes, 5 holdings each.
    fn default() -> Population {
        Population {
            users: 50,
            quotes: 100,
            holdings_per_user: 5,
        }
    }
}

impl Population {
    /// The user id for index `i`.
    pub fn user_id(i: usize) -> String {
        format!("uid:{i}")
    }

    /// The symbol for index `i`.
    pub fn symbol(i: usize) -> String {
        format!("s:{i}")
    }
}

/// Creates the Trade2 schema and seeds it directly through a local
/// connection (the DBA path — this is setup, not measured workload).
///
/// # Errors
/// Propagates DDL/DML failures (e.g. seeding twice).
pub fn create_and_seed(db: &Arc<Database>, pop: Population) -> EjbResult<()> {
    trade_registry().create_schema(db)?;
    seed(&mut db.connect(), pop)
}

/// Seeds an already-created schema over `conn`.
///
/// # Errors
/// Propagates DML failures.
pub fn seed(conn: &mut dyn SqlConnection, pop: Population) -> EjbResult<()> {
    for q in 0..pop.quotes {
        let base = 10.0 + (q % 90) as f64;
        conn.execute(
            "INSERT INTO quote (symbol, companyname, price, open, low, high, volume) \
             VALUES (?, ?, ?, ?, ?, ?, ?)",
            &[
                Value::from(Population::symbol(q)),
                Value::from(format!("Company #{q} Incorporated")),
                Value::from(base),
                Value::from(base),
                Value::from(base * 0.9),
                Value::from(base * 1.1),
                Value::from(1_000_000.0),
            ],
        )?;
    }
    let mut holding_id: i64 = 0;
    for u in 0..pop.users {
        let user = Population::user_id(u);
        conn.execute(
            "INSERT INTO account (userid, balance, opentimestamp) VALUES (?, ?, 0)",
            &[Value::from(user.clone()), Value::from(100_000.0)],
        )?;
        conn.execute(
            "INSERT INTO profile (userid, fullname, address, email, creditcard, password) \
             VALUES (?, ?, ?, ?, ?, ?)",
            &[
                Value::from(user.clone()),
                Value::from(format!("Trade User {u}")),
                Value::from(format!("{u} Wall St, New York")),
                Value::from(format!("uid{u}@trade.example.com")),
                Value::from("0000-1111-2222-3333"),
                Value::from("xxx"),
            ],
        )?;
        conn.execute(
            "INSERT INTO registry (userid, loggedin, logincount, lastlogin) \
             VALUES (?, FALSE, 0, 0)",
            &[Value::from(user.clone())],
        )?;
        for h in 0..pop.holdings_per_user {
            let symbol = Population::symbol((u * 7 + h * 13) % pop.quotes.max(1));
            conn.execute(
                "INSERT INTO holding (holdingid, userid, symbol, quantity, purchaseprice, \
                 purchasedate) VALUES (?, ?, ?, ?, ?, 0)",
                &[
                    Value::from(holding_id),
                    Value::from(user.clone()),
                    Value::from(symbol),
                    Value::from(100.0),
                    Value::from(25.0),
                ],
            )?;
            holding_id += 1;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_populates_all_tables() {
        let db = Database::new();
        let pop = Population {
            users: 4,
            quotes: 10,
            holdings_per_user: 3,
        };
        create_and_seed(&db, pop).unwrap();
        assert_eq!(db.row_count("quote").unwrap(), 10);
        assert_eq!(db.row_count("account").unwrap(), 4);
        assert_eq!(db.row_count("profile").unwrap(), 4);
        assert_eq!(db.row_count("registry").unwrap(), 4);
        assert_eq!(db.row_count("holding").unwrap(), 12);
    }

    #[test]
    fn default_population_is_trade2_small() {
        let p = Population::default();
        assert_eq!(p.users, 50);
        assert_eq!(p.quotes, 100);
        assert_eq!(Population::user_id(3), "uid:3");
        assert_eq!(Population::symbol(7), "s:7");
    }

    #[test]
    fn double_seed_fails_cleanly() {
        let db = Database::new();
        create_and_seed(&db, Population::default()).unwrap();
        assert!(create_and_seed(&db, Population::default()).is_err());
    }
}
