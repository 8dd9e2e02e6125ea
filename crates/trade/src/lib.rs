//! # sli-trade — the Trade2 brokerage benchmark
//!
//! Trade2 "models an online brokerage firm providing web-based services
//! such as login, buy, sell, get quote and more". This crate reimplements
//! it over the `sli-*` stack with the exact per-action bean operations and
//! database activity of the paper's Table 1:
//!
//! | action | bean op | DB activity |
//! |---|---|---|
//! | Login | Update | Registry R, U; Account R |
//! | Logout | Update | Registry R, U |
//! | Register | Multi-bean create | Account C, R; Profile C; Registry C |
//! | Home | Read | Account R |
//! | Account | Read | Profile R |
//! | Account Update | Read/Update | Profile R, U |
//! | Portfolio | Read | Holding R |
//! | Quote | Read | Quote R |
//! | Buy | Multi-bean R/U | Quote R; Account R, U; Holding C, R |
//! | Sell | Multi-bean R/U | Quote R; Account R, U; Holding D, R |
//!
//! Three interchangeable data-access engines implement [`TradeEngine`]:
//!
//! * [`JdbcTradeEngine`] — the hand-optimized pure-JDBC implementation
//!   shipped with Trade2;
//! * [`EjbTradeEngine`] over a vanilla BMP container
//!   ([`deploy::vanilla_container`]) — Trade2's `EJB-ALT` mode;
//! * the *same* [`EjbTradeEngine`] over a cache-enabled SLI container
//!   ([`deploy::cached_container`]) — the business logic is untouched,
//!   only the deployment wiring changes, demonstrating the transparency
//!   requirement of the paper's §1.3.
//!
//! [`page::render`] produces the JSP-equivalent HTML so client responses
//! have realistic sizes for the bandwidth comparison (Figure 8).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod action;
pub mod deploy;
mod engine_ejb;
mod engine_jdbc;
pub mod model;
pub mod page;
pub mod seed;
pub mod session;

pub use action::{TradeAction, TradeResult};
pub use engine_ejb::EjbTradeEngine;
pub use engine_jdbc::JdbcTradeEngine;

/// A data-access engine that can perform every Trade2 action.
///
/// Engines are deployment-specific (JDBC / vanilla EJB / cached EJB) but
/// behaviourally equivalent: the integration suite asserts all three leave
/// identical committed state.
pub trait TradeEngine: Send + Sync {
    /// Performs one trade action, returning the data the JSP layer renders.
    ///
    /// # Errors
    /// Business failures (unknown user, insufficient holdings) and
    /// transactional failures (optimistic conflicts, deadlocks) propagate.
    fn perform(&self, action: &TradeAction) -> sli_component::EjbResult<TradeResult>;

    /// Short engine label used in reports ("JDBC", "Vanilla EJB",
    /// "Cached EJB").
    fn label(&self) -> &'static str;
}

pub(crate) mod util {
    //! Small shared helpers.
    use std::fmt;

    use sli_datastore::Value;

    /// Shows a value for page display — strings without SQL quoting,
    /// everything else via `Display` — where it is written, without a
    /// `String` in between.
    pub(crate) fn show(v: &Value) -> impl fmt::Display + '_ {
        Show(v)
    }

    struct Show<'a>(&'a Value);

    impl fmt::Display for Show<'_> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self.0.as_str() {
                Some(s) => f.write_str(s),
                None => self.0.fmt(f),
            }
        }
    }
}
