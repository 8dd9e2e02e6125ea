//! The EJB implementation of the Trade2 session logic.
//!
//! This is the session-bean tier: each action is one container-managed
//! transaction driving entity-bean homes. The *same* engine runs over a
//! vanilla BMP container and over a cache-enabled SLI container — the
//! business logic cannot tell the difference, which is the paper's
//! transparency requirement ("the application developer should not be
//! forced to write new code to access the runtime").

use std::sync::atomic::{AtomicI64, Ordering};

use sli_component::{Container, EjbResult, Home, Memento, TxContext};
use sli_datastore::{Money, Value};

use crate::action::{TradeAction, TradeResult};
use crate::TradeEngine;

/// Session-bean logic over an entity-bean [`Container`].
pub struct EjbTradeEngine {
    container: Container,
    label: &'static str,
    next_holding: AtomicI64,
    clock_seq: AtomicI64,
}

impl std::fmt::Debug for EjbTradeEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EjbTradeEngine")
            .field("label", &self.label)
            .finish_non_exhaustive()
    }
}

impl EjbTradeEngine {
    /// Creates the engine.
    ///
    /// `holding_id_base` must be disjoint between edge servers so
    /// concurrently allocated holding ids never collide (Trade2 used a
    /// database sequence; disjoint ranges avoid a round trip per buy).
    pub fn new(container: Container, label: &'static str, holding_id_base: i64) -> EjbTradeEngine {
        EjbTradeEngine {
            container,
            label,
            next_holding: AtomicI64::new(holding_id_base),
            clock_seq: AtomicI64::new(1),
        }
    }

    /// The wrapped container (for direct inspection in tests).
    pub fn container(&self) -> &Container {
        &self.container
    }

    fn next_holding_id(&self) -> i64 {
        self.next_holding.fetch_add(1, Ordering::Relaxed)
    }

    fn logical_now(&self) -> i64 {
        self.clock_seq.fetch_add(1, Ordering::Relaxed)
    }

    fn get_f64(home: &dyn Home, ctx: &mut TxContext, key: &Value, field: &str) -> EjbResult<f64> {
        Ok(home.get_field(ctx, key, field)?.as_double().unwrap_or(0.0))
    }

    fn get_i64(home: &dyn Home, ctx: &mut TxContext, key: &Value, field: &str) -> EjbResult<i64> {
        Ok(home.get_field(ctx, key, field)?.as_int().unwrap_or(0))
    }

    fn login(&self, ctx: &mut TxContext, c: &Container, user: &str) -> EjbResult<TradeResult> {
        let now = self.logical_now();
        {
            let registry = c.home("Registry")?;
            let key = Value::from(user);
            registry.find_by_primary_key(ctx, &key)?;
            let count = Self::get_i64(registry.as_ref(), ctx, &key, "logincount")? + 1;
            registry.set_field(ctx, &key, "loggedin", Value::from(true))?;
            registry.set_field(ctx, &key, "logincount", Value::from(count))?;
            registry.set_field(ctx, &key, "lastlogin", Value::from(now))?;
            let account = c.home("Account")?;
            let balance = Self::get_f64(account.as_ref(), ctx, &key, "balance")?;
            Ok(TradeResult::new("Trade Login")
                .field("user", user)
                .field("login count", count)
                .field("balance", Money(balance)))
        }
    }

    fn logout(&self, ctx: &mut TxContext, c: &Container, user: &str) -> EjbResult<TradeResult> {
        {
            let registry = c.home("Registry")?;
            let key = Value::from(user);
            registry.find_by_primary_key(ctx, &key)?;
            registry.set_field(ctx, &key, "loggedin", Value::from(false))?;
            Ok(TradeResult::new("Trade Logout").field("user", user))
        }
    }

    fn register(&self, ctx: &mut TxContext, c: &Container, user: &str) -> EjbResult<TradeResult> {
        let now = self.logical_now();
        {
            // Each image is built at once, named by its home's descriptor.
            let account = c.home("Account")?;
            let key = Value::from(user);
            let fields = [
                ("balance", Value::from(10_000.0)),
                ("opentimestamp", Value::from(now)),
            ];
            let names = account.meta().image_names();
            account.create(ctx, Memento::from_fields(names, key.clone(), fields))?;
            // Table 1: Account C *and* R — the confirmation page looks the
            // new account up again (a fresh find, not the cached create).
            let aref = account.find_by_primary_key(ctx, &key)?;
            let balance = Self::get_f64(account.as_ref(), ctx, aref.primary_key(), "balance")?;
            let profile = c.home("Profile")?;
            let fields = [
                ("fullname", Value::from(format!("Trade User {user}"))),
                ("address", Value::from("1 Wall St, New York")),
                ("email", Value::from(format!("{user}@trade.example.com"))),
                ("creditcard", Value::from("0000-1111-2222-3333")),
                ("password", Value::from("xxx")),
            ];
            let names = profile.meta().image_names();
            profile.create(ctx, Memento::from_fields(names, key.clone(), fields))?;
            let registry = c.home("Registry")?;
            let fields = [
                ("loggedin", Value::from(false)),
                ("logincount", Value::from(0)),
                ("lastlogin", Value::from(0)),
            ];
            let names = registry.meta().image_names();
            registry.create(ctx, Memento::from_fields(names, key, fields))?;
            Ok(TradeResult::new("Trade Registration")
                .field("user", user)
                .field("opening balance", Money(balance)))
        }
    }

    fn home(&self, ctx: &mut TxContext, c: &Container, user: &str) -> EjbResult<TradeResult> {
        {
            let account = c.home("Account")?;
            let key = Value::from(user);
            let balance = Self::get_f64(account.as_ref(), ctx, &key, "balance")?;
            Ok(TradeResult::new("Trade Home")
                .field("user", user)
                .field("balance", Money(balance))
                .field("market summary", "TSIA 100.32 (+0.4%) volume 40.1M"))
        }
    }

    fn account(&self, ctx: &mut TxContext, c: &Container, user: &str) -> EjbResult<TradeResult> {
        {
            let profile = c.home("Profile")?;
            let key = Value::from(user);
            let mut result = TradeResult::new("Account Information").field("user", user);
            for field in ["fullname", "address", "email", "creditcard"] {
                let v = profile.get_field(ctx, &key, field)?;
                result = result.field(field, crate::util::show(&v));
            }
            Ok(result)
        }
    }

    fn account_update(
        &self,
        ctx: &mut TxContext,
        c: &Container,
        user: &str,
        email: &str,
    ) -> EjbResult<TradeResult> {
        {
            let profile = c.home("Profile")?;
            let key = Value::from(user);
            let old = profile.get_field(ctx, &key, "email")?;
            profile.set_field(ctx, &key, "email", Value::from(email))?;
            Ok(TradeResult::new("Account Update")
                .field("user", user)
                .field("old email", crate::util::show(&old))
                .field("new email", email))
        }
    }

    fn portfolio(&self, ctx: &mut TxContext, c: &Container, user: &str) -> EjbResult<TradeResult> {
        {
            let akey = Value::from(user);
            let holding = c.home("Holding")?;
            let refs = holding.find(ctx, "findByUser", std::slice::from_ref(&akey))?;
            let mut result = TradeResult::new("Portfolio")
                .field("user", user)
                .field("holdings", refs.len())
                .header(&["holding", "symbol", "quantity", "purchase price"]);
            for r in &refs {
                let symbol = holding.get_field(ctx, r.primary_key(), "symbol")?;
                let qty = Self::get_f64(holding.as_ref(), ctx, r.primary_key(), "quantity")?;
                let price = Self::get_f64(holding.as_ref(), ctx, r.primary_key(), "purchaseprice")?;
                result
                    .cell(r.primary_key())
                    .cell(crate::util::show(&symbol))
                    .cell(qty)
                    .cell(Money(price));
            }
            Ok(result)
        }
    }

    fn quote(&self, ctx: &mut TxContext, c: &Container, symbol: &str) -> EjbResult<TradeResult> {
        {
            let quote = c.home("Quote")?;
            let key = Value::from(symbol);
            quote.find_by_primary_key(ctx, &key)?;
            let mut result = TradeResult::new("Quote").field("symbol", symbol);
            for field in ["companyname", "price", "open", "low", "high", "volume"] {
                let v = quote.get_field(ctx, &key, field)?;
                result = result.field(field, crate::util::show(&v));
            }
            Ok(result)
        }
    }

    fn buy(
        &self,
        ctx: &mut TxContext,
        c: &Container,
        user: &str,
        symbol: &str,
        quantity: f64,
    ) -> EjbResult<TradeResult> {
        let holding_id = self.next_holding_id();
        let now = self.logical_now();
        {
            let quote = c.home("Quote")?;
            let qkey = Value::from(symbol);
            let price = Self::get_f64(quote.as_ref(), ctx, &qkey, "price")?;
            let account = c.home("Account")?;
            let akey = Value::from(user);
            let balance = Self::get_f64(account.as_ref(), ctx, &akey, "balance")?;
            let cost = price * quantity;
            account.set_field(ctx, &akey, "balance", Value::from(balance - cost))?;
            let holding = c.home("Holding")?;
            // The keys' strings, shared rather than copied again.
            let fields = [
                ("userid", akey),
                ("symbol", qkey),
                ("quantity", Value::from(quantity)),
                ("purchaseprice", Value::from(price)),
                ("purchasedate", Value::from(now)),
            ];
            let names = holding.meta().image_names();
            let image = Memento::from_fields(names, Value::from(holding_id), fields);
            let href = holding.create(ctx, image)?;
            // Table 1: Holding C *and* R — the confirmation looks the new
            // holding up again.
            let href = holding.find_by_primary_key(ctx, href.primary_key())?;
            let qty = Self::get_f64(holding.as_ref(), ctx, href.primary_key(), "quantity")?;
            Ok(TradeResult::new("Buy Confirmation")
                .field("user", user)
                .field("symbol", symbol)
                .field("quantity", qty)
                .field("price", Money(price))
                .field("total", Money(cost))
                .field("new balance", Money(balance - cost)))
        }
    }

    fn sell(&self, ctx: &mut TxContext, c: &Container, user: &str) -> EjbResult<TradeResult> {
        {
            let akey = Value::from(user);
            let holding = c.home("Holding")?;
            let refs = holding.find(ctx, "findByUser", std::slice::from_ref(&akey))?;
            let Some(first) = refs.first() else {
                return Ok(TradeResult::new("Sell")
                    .field("user", user)
                    .field("status", "no holdings to sell"));
            };
            let hkey = first.primary_key().clone();
            let symbol = holding.get_field(ctx, &hkey, "symbol")?;
            let qty = Self::get_f64(holding.as_ref(), ctx, &hkey, "quantity")?;
            let quote = c.home("Quote")?;
            let price = Self::get_f64(quote.as_ref(), ctx, &symbol, "price")?;
            let account = c.home("Account")?;
            let balance = Self::get_f64(account.as_ref(), ctx, &akey, "balance")?;
            let proceeds = price * qty;
            account.set_field(ctx, &akey, "balance", Value::from(balance + proceeds))?;
            holding.remove(ctx, &hkey)?;
            Ok(TradeResult::new("Sell Confirmation")
                .field("user", user)
                .field("holding", hkey)
                .field("symbol", crate::util::show(&symbol))
                .field("quantity", qty)
                .field("price", Money(price))
                .field("proceeds", Money(proceeds))
                .field("new balance", Money(balance + proceeds)))
        }
    }

    /// Dispatches one action inside an already-open transaction context.
    fn run_action(
        &self,
        ctx: &mut TxContext,
        c: &Container,
        action: &TradeAction,
    ) -> EjbResult<TradeResult> {
        match action {
            TradeAction::Login { user } => self.login(ctx, c, user),
            TradeAction::Logout { user } => self.logout(ctx, c, user),
            TradeAction::Register { user } => self.register(ctx, c, user),
            TradeAction::Home { user } => self.home(ctx, c, user),
            TradeAction::Account { user } => self.account(ctx, c, user),
            TradeAction::AccountUpdate { user, email } => self.account_update(ctx, c, user, email),
            TradeAction::Portfolio { user } => self.portfolio(ctx, c, user),
            TradeAction::Quote { symbol } => self.quote(ctx, c, symbol),
            TradeAction::Buy {
                user,
                symbol,
                quantity,
            } => self.buy(ctx, c, user, symbol, *quantity),
            TradeAction::Sell { user } => self.sell(ctx, c, user),
        }
    }

    /// Performs several client requests inside **one** application
    /// transaction — the workflow batching the paper sketches in §4.4
    /// ("workflow techniques could batch the commit of multiple client
    /// requests as a single transaction") as the way an edge server could
    /// beat the one-commit-per-request floor. With the split-servers
    /// committer, the whole batch costs a single high-latency round trip.
    ///
    /// # Errors
    /// Any action's failure (or the commit-time conflict) aborts the whole
    /// batch.
    pub fn perform_batch(&self, actions: &[TradeAction]) -> EjbResult<Vec<TradeResult>> {
        self.container.with_transaction(|ctx, c| {
            actions
                .iter()
                .map(|action| self.run_action(ctx, c, action))
                .collect()
        })
    }
}

impl TradeEngine for EjbTradeEngine {
    fn perform(&self, action: &TradeAction) -> EjbResult<TradeResult> {
        self.container
            .with_transaction(|ctx, c| self.run_action(ctx, c, action))
    }

    fn label(&self) -> &'static str {
        self.label
    }
}
