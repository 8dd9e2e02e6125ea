//! Trade actions and their result payloads.

use std::borrow::Cow;
use std::fmt::{self, Write as _};
use std::ops::Range;

/// One client interaction with the brokerage (Table 1 of the paper).
#[derive(Debug, Clone, PartialEq)]
pub enum TradeAction {
    /// User sign-in; session creation.
    Login {
        /// User id (`uid:N`).
        user: String,
    },
    /// User sign-off; session destroy.
    Logout {
        /// User id.
        user: String,
    },
    /// Create a new user profile, account and registry entry.
    Register {
        /// New user id.
        user: String,
    },
    /// Personalized home page with account overview.
    Home {
        /// User id.
        user: String,
    },
    /// Review current profile information.
    Account {
        /// User id.
        user: String,
    },
    /// `Account` followed by a profile update.
    AccountUpdate {
        /// User id.
        user: String,
        /// New e-mail address to store.
        email: String,
    },
    /// View the user's current security holdings.
    Portfolio {
        /// User id.
        user: String,
    },
    /// View a current security quote.
    Quote {
        /// Security symbol (`s:N`).
        symbol: String,
    },
    /// `Quote` followed by a security purchase.
    Buy {
        /// User id.
        user: String,
        /// Security symbol.
        symbol: String,
        /// Number of shares.
        quantity: f64,
    },
    /// `Portfolio` followed by the sale of one holding (the first, by
    /// holding id).
    Sell {
        /// User id.
        user: String,
    },
}

impl TradeAction {
    /// Every action name in presentation order — the label space of
    /// [`TradeAction::name`], for per-action metric registration.
    pub const NAMES: [&'static str; 10] = [
        "login",
        "logout",
        "register",
        "home",
        "account",
        "update",
        "portfolio",
        "quote",
        "buy",
        "sell",
    ];

    /// The action name as it appears in URLs and reports.
    pub fn name(&self) -> &'static str {
        match self {
            TradeAction::Login { .. } => "login",
            TradeAction::Logout { .. } => "logout",
            TradeAction::Register { .. } => "register",
            TradeAction::Home { .. } => "home",
            TradeAction::Account { .. } => "account",
            TradeAction::AccountUpdate { .. } => "update",
            TradeAction::Portfolio { .. } => "portfolio",
            TradeAction::Quote { .. } => "quote",
            TradeAction::Buy { .. } => "buy",
            TradeAction::Sell { .. } => "sell",
        }
    }

    /// The user the action concerns, if any.
    pub fn user(&self) -> Option<&str> {
        match self {
            TradeAction::Login { user }
            | TradeAction::Logout { user }
            | TradeAction::Register { user }
            | TradeAction::Home { user }
            | TradeAction::Account { user }
            | TradeAction::AccountUpdate { user, .. }
            | TradeAction::Portfolio { user }
            | TradeAction::Buy { user, .. }
            | TradeAction::Sell { user } => Some(user),
            TradeAction::Quote { .. } => None,
        }
    }

    /// URL query parameters for the HTTP layer, in URL order. Every value
    /// is borrowed from the action but a buy's formatted quantity.
    pub fn query_params(&self) -> impl Iterator<Item = (&'static str, Cow<'_, str>)> {
        let (symbol, last) = match self {
            TradeAction::Quote { symbol } => (Some(symbol), None),
            TradeAction::Buy {
                symbol, quantity, ..
            } => (
                Some(symbol),
                Some(("quantity", Cow::Owned(format!("{quantity}")))),
            ),
            TradeAction::AccountUpdate { email, .. } => {
                (None, Some(("email", Cow::Borrowed(email.as_str()))))
            }
            _ => (None, None),
        };
        [
            Some(("action", Cow::Borrowed(self.name()))),
            self.user().map(|user| ("uid", Cow::Borrowed(user))),
            symbol.map(|symbol| ("symbol", Cow::Borrowed(symbol.as_str()))),
            last,
        ]
        .into_iter()
        .flatten()
    }
}

impl fmt::Display for TradeAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The data an action produces, rendered to HTML by the JSP layer
/// ([`page::render`](crate::page::render)).
///
/// One text buffer: every field value and table cell is written once, back
/// to back, into `text`, and a field or cell is a range of it. Names,
/// title and table header are the literals the engines pass.
#[derive(Debug, Clone, Eq, Default)]
pub struct TradeResult {
    /// Page title ("Trade Home", "Portfolio", ...).
    pub title: &'static str,
    text: String,
    /// Scalar fields in order: name and where the value lies in `text`.
    fields: Vec<(&'static str, Range<usize>)>,
    table_header: &'static [&'static str],
    /// Table cells in row-major order, a row per `table_header.len()`.
    cells: Vec<Range<usize>>,
}

impl TradeResult {
    /// Starts a result page with the given title.
    pub fn new(title: &'static str) -> TradeResult {
        TradeResult {
            title,
            // Room for the fields of the widest page (a quote's seven).
            text: String::with_capacity(128),
            fields: Vec::with_capacity(8),
            ..TradeResult::default()
        }
    }

    /// Writes `value` at the end of the text and returns where it lies.
    fn write(&mut self, value: impl fmt::Display) -> Range<usize> {
        let start = self.text.len();
        // Writing to a `String` cannot fail.
        let _ = write!(self.text, "{value}");
        start..self.text.len()
    }

    /// Appends a scalar field (builder style).
    pub fn field(mut self, name: &'static str, value: impl fmt::Display) -> TradeResult {
        let value = self.write(value);
        self.fields.push((name, value));
        self
    }

    /// Sets the table header (builder style).
    pub fn header(mut self, cols: &'static [&'static str]) -> TradeResult {
        self.table_header = cols;
        self
    }

    /// Appends a table cell; a row is as many cells as the header has
    /// columns.
    pub fn cell(&mut self, value: impl fmt::Display) -> &mut TradeResult {
        let value = self.write(value);
        self.cells.push(value);
        self
    }

    /// Scalar fields shown on the page, in order.
    pub fn fields(&self) -> impl Iterator<Item = (&'static str, &str)> + '_ {
        self.fields
            .iter()
            .map(|(name, value)| (*name, &self.text[value.clone()]))
    }

    /// Header of the optional tabular data (holdings); empty without one.
    pub fn table_header(&self) -> &'static [&'static str] {
        self.table_header
    }

    /// Table rows, each an iterator over its cells.
    pub fn table_rows(&self) -> impl Iterator<Item = impl Iterator<Item = &str> + '_> + '_ {
        self.cells
            .chunks(self.table_header.len().max(1))
            .map(|row| row.iter().map(|cell| &self.text[cell.clone()]))
    }

    /// Reads a scalar field back (tests and assertions).
    pub fn get(&self, name: &str) -> Option<&str> {
        self.fields().find(|(n, _)| *n == name).map(|(_, v)| v)
    }
}

/// By what a page shows, not by where in the buffer it lies.
impl PartialEq for TradeResult {
    fn eq(&self, other: &TradeResult) -> bool {
        self.title == other.title
            && self.table_header == other.table_header
            && self.fields().eq(other.fields())
            && self.table_rows().flatten().eq(other.table_rows().flatten())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_users() {
        let a = TradeAction::Buy {
            user: "uid:1".into(),
            symbol: "s:3".into(),
            quantity: 100.0,
        };
        assert_eq!(a.name(), "buy");
        assert_eq!(a.user(), Some("uid:1"));
        assert_eq!(a.to_string(), "buy");
        let q = TradeAction::Quote {
            symbol: "s:1".into(),
        };
        assert_eq!(q.user(), None);
    }

    #[test]
    fn names_const_covers_every_variant() {
        let variants = [
            TradeAction::Login { user: "u".into() },
            TradeAction::Logout { user: "u".into() },
            TradeAction::Register { user: "u".into() },
            TradeAction::Home { user: "u".into() },
            TradeAction::Account { user: "u".into() },
            TradeAction::AccountUpdate {
                user: "u".into(),
                email: "e".into(),
            },
            TradeAction::Portfolio { user: "u".into() },
            TradeAction::Quote { symbol: "s".into() },
            TradeAction::Buy {
                user: "u".into(),
                symbol: "s".into(),
                quantity: 1.0,
            },
            TradeAction::Sell { user: "u".into() },
        ];
        assert_eq!(variants.len(), TradeAction::NAMES.len());
        for action in &variants {
            assert!(TradeAction::NAMES.contains(&action.name()));
        }
    }

    #[test]
    fn query_params_include_action_specifics() {
        let a = TradeAction::Buy {
            user: "uid:1".into(),
            symbol: "s:3".into(),
            quantity: 100.0,
        };
        let params: Vec<_> = a.query_params().collect();
        assert_eq!(
            params,
            [
                ("action", "buy".into()),
                ("uid", "uid:1".into()),
                ("symbol", "s:3".into()),
                ("quantity", "100".into()),
            ]
        );
        assert!(params[..3]
            .iter()
            .all(|(_, v)| matches!(v, Cow::Borrowed(_))));
        let u = TradeAction::AccountUpdate {
            user: "uid:2".into(),
            email: "a@b.c".into(),
        };
        assert!(u.query_params().any(|p| p == ("email", "a@b.c".into())));
        let q = TradeAction::Quote {
            symbol: "s:1".into(),
        };
        assert!(q.query_params().map(|(k, _)| k).eq(["action", "symbol"]));
    }

    #[test]
    fn result_builder() {
        let mut r = TradeResult::new("Portfolio")
            .field("user", "uid:1")
            .header(&["symbol", "qty"]);
        r.cell("s:1").cell("100");
        assert_eq!(r.title, "Portfolio");
        assert_eq!(r.get("user"), Some("uid:1"));
        assert_eq!(r.get("missing"), None);
        assert_eq!(r.table_rows().count(), 1);
    }
}
