//! Client-session generation: the random trade-action mix.
//!
//! "A client interaction with the application involves a random sequence of
//! the trade actions listed in the Table, bracketed by a login and logout.
//! On average, a single session consists of about 11 individual trade
//! actions" (§4.2). [`SessionGenerator`] reproduces that: login + nine
//! weighted inner actions (on average) + logout ≈ 11 actions.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::action::TradeAction;
use crate::seed::Population;

/// Weighted mix of the inner (between login and logout) actions, modelled
/// on Trade2's scenario servlet defaults.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActionMix {
    /// Weight of `quote`.
    pub quote: u32,
    /// Weight of `home`.
    pub home: u32,
    /// Weight of `portfolio`.
    pub portfolio: u32,
    /// Weight of `account`.
    pub account: u32,
    /// Weight of `update`.
    pub update: u32,
    /// Weight of `buy`.
    pub buy: u32,
    /// Weight of `sell`.
    pub sell: u32,
}

impl Default for ActionMix {
    fn default() -> ActionMix {
        ActionMix {
            quote: 40,
            home: 20,
            portfolio: 12,
            account: 10,
            update: 4,
            buy: 8,
            sell: 6,
        }
    }
}

impl ActionMix {
    fn total(&self) -> u32 {
        self.quote + self.home + self.portfolio + self.account + self.update + self.buy + self.sell
    }
}

/// Inner actions per session, between its login and logout.
const INNER_ACTIONS: usize = 9;

/// Deterministic (seeded) generator of client sessions.
#[derive(Debug)]
pub struct SessionGenerator {
    rng: StdRng,
    pop: Population,
    mix: ActionMix,
}

impl SessionGenerator {
    /// Creates a generator over `pop` with the default mix and the paper's
    /// session length (login + 9 inner actions + logout ≈ 11).
    pub fn new(seed: u64, pop: Population) -> SessionGenerator {
        SessionGenerator {
            rng: StdRng::seed_from_u64(seed),
            pop,
            mix: ActionMix::default(),
        }
    }

    /// Overrides the action mix.
    pub fn with_mix(mut self, mix: ActionMix) -> SessionGenerator {
        self.mix = mix;
        self
    }

    fn random_user(&mut self) -> String {
        Population::user_id(self.rng.gen_range(0..self.pop.users.max(1)))
    }

    fn random_symbol(&mut self) -> String {
        Population::symbol(self.rng.gen_range(0..self.pop.quotes.max(1)))
    }

    fn inner_action(&mut self, user: &str) -> TradeAction {
        let mut pick = self.rng.gen_range(0..self.mix.total());
        let user = user.to_owned();
        for (weight, ctor) in [
            (self.mix.quote, 0),
            (self.mix.home, 1),
            (self.mix.portfolio, 2),
            (self.mix.account, 3),
            (self.mix.update, 4),
            (self.mix.buy, 5),
            (self.mix.sell, 6),
        ] {
            if pick < weight {
                return match ctor {
                    0 => TradeAction::Quote {
                        symbol: self.random_symbol(),
                    },
                    1 => TradeAction::Home { user },
                    2 => TradeAction::Portfolio { user },
                    3 => TradeAction::Account { user },
                    4 => TradeAction::AccountUpdate {
                        email: format!("{user}@newmail.example.com"),
                        user,
                    },
                    5 => TradeAction::Buy {
                        symbol: self.random_symbol(),
                        quantity: 100.0,
                        user,
                    },
                    _ => TradeAction::Sell { user },
                };
            }
            pick -= weight;
        }
        unreachable!("weights exhaust the range")
    }

    /// Generates one full session: login, the inner mix, logout.
    pub fn session(&mut self) -> Vec<TradeAction> {
        let user = self.random_user();
        let mut actions = Vec::with_capacity(INNER_ACTIONS + 2);
        actions.push(TradeAction::Login { user: user.clone() });
        for _ in 0..INNER_ACTIONS {
            actions.push(self.inner_action(&user));
        }
        actions.push(TradeAction::Logout { user });
        actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_is_login_bracketed() {
        let mut g = SessionGenerator::new(42, Population::default());
        let s = g.session();
        assert_eq!(s.len(), 11);
        assert!(matches!(s.first(), Some(TradeAction::Login { .. })));
        assert!(matches!(s.last(), Some(TradeAction::Logout { .. })));
        // all inner actions concern the same logged-in user (or are quotes)
        let user = s[0].user().unwrap().to_owned();
        for a in &s[1..s.len() - 1] {
            if let Some(u) = a.user() {
                assert_eq!(u, user);
            }
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let pop = Population::default();
        let a: Vec<_> = {
            let mut g = SessionGenerator::new(7, pop);
            (0..5).map(|_| g.session()).collect()
        };
        let b: Vec<_> = {
            let mut g = SessionGenerator::new(7, pop);
            (0..5).map(|_| g.session()).collect()
        };
        assert_eq!(a, b);
        let mut g2 = SessionGenerator::new(8, pop);
        assert_ne!(a[0], g2.session());
    }

    #[test]
    fn mix_roughly_respected_over_many_sessions() {
        let mut g = SessionGenerator::new(1, Population::default());
        let mut quotes = 0;
        let mut total = 0;
        for _ in 0..200 {
            for a in g.session() {
                if matches!(a, TradeAction::Quote { .. }) {
                    quotes += 1;
                }
                if !matches!(a, TradeAction::Login { .. } | TradeAction::Logout { .. }) {
                    total += 1;
                }
            }
        }
        let frac = quotes as f64 / total as f64;
        assert!((0.3..0.5).contains(&frac), "quote fraction {frac}");
    }

    #[test]
    fn custom_mix() {
        let mix = ActionMix {
            quote: 1,
            home: 0,
            portfolio: 0,
            account: 0,
            update: 0,
            buy: 0,
            sell: 0,
        };
        let mut g = SessionGenerator::new(1, Population::default()).with_mix(mix);
        let s = g.session();
        assert_eq!(s.len(), 11);
        assert!(s[1..10]
            .iter()
            .all(|a| matches!(a, TradeAction::Quote { .. })));
    }
}
