//! Strict two-phase locking with multi-granularity (table/row) locks and
//! waits-for-graph deadlock detection.
//!
//! The paper's persistent store is an ordinary pessimistic RDBMS (DB2); the
//! SLI runtime leans on that by bracketing every cache fill and every commit
//! in a *short* datastore transaction "committed immediately after the
//! access completes so that locks are released quickly". This module
//! provides those pessimistic semantics.
//!
//! The table never waits. A request that conflicts with another
//! transaction's lock is answered at once: [`DbError::Deadlock`] if its
//! waits-for edge closes a cycle, [`DbError::Blocked`] otherwise. The edge
//! stays until the requester is granted a lock or ends, so a later request
//! that closes a cycle through it is still caught. Every statement takes its
//! locks before it writes, so a blocked statement has had no effect and its
//! caller may run it again once the holder has ended. Nothing here parks a
//! thread or reads a clock.

use std::sync::Arc;

use parking_lot::Mutex;
use sli_simnet::hash::{FxHashMap, FxHashSet};

use crate::error::DbError;
use crate::value::Value;
use crate::DbResult;

/// A lockable resource: a whole table or a single row. The table name is
/// the table's own shared `Arc<str>`, so building a key copies a pointer.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Resource {
    /// Table-level lock (used for intent modes and full scans).
    Table(Arc<str>),
    /// Row-level lock, identified by table name and primary key.
    Row(Arc<str>, Value),
}

/// Multi-granularity lock modes.
///
/// `SharedIntentExclusive` (SIX) arises when a transaction scans a table
/// (S) and then updates some of its rows (IX) — e.g. Trade2's *sell*, which
/// runs the portfolio finder and then deletes one holding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockMode {
    /// Intent to take shared row locks (IS).
    IntentShared,
    /// Intent to take exclusive row locks (IX).
    IntentExclusive,
    /// Shared (S): whole-resource read.
    Shared,
    /// S + IX combined (SIX).
    SharedIntentExclusive,
    /// Exclusive (X): whole-resource write.
    Exclusive,
}

impl LockMode {
    /// The classic multi-granularity compatibility matrix.
    pub fn compatible(self, other: LockMode) -> bool {
        use LockMode::*;
        match (self, other) {
            (IntentShared, Exclusive) | (Exclusive, IntentShared) => false,
            (IntentShared, _) | (_, IntentShared) => true,
            (IntentExclusive, IntentExclusive) => true,
            (IntentExclusive, _) | (_, IntentExclusive) => false,
            (Shared, Shared) => true,
            (Shared, _) | (_, Shared) => false,
            _ => false, // SIX-SIX, SIX-X, X-anything
        }
    }

    /// Least upper bound of two modes held by the *same* transaction
    /// (lock upgrade).
    pub fn combine(self, other: LockMode) -> LockMode {
        use LockMode::*;
        if self == other {
            return self;
        }
        match (self, other) {
            (Exclusive, _) | (_, Exclusive) => Exclusive,
            (SharedIntentExclusive, _) | (_, SharedIntentExclusive) => SharedIntentExclusive,
            (Shared, IntentExclusive) | (IntentExclusive, Shared) => SharedIntentExclusive,
            (Shared, IntentShared) | (IntentShared, Shared) => Shared,
            (IntentExclusive, IntentShared) | (IntentShared, IntentExclusive) => IntentExclusive,
            _ => unreachable!("all distinct pairs covered"),
        }
    }
}

/// Transaction identifier handed out by the engine.
pub type TxnId = u64;

/// The transactions holding one resource, one combined mode each. A single
/// holder — every lock of an uncontended workload — is kept inline; the map
/// exists only while two or more transactions share the resource.
#[derive(Debug)]
enum Holders {
    One(TxnId, LockMode),
    Many(FxHashMap<TxnId, LockMode>),
}

impl Holders {
    fn get(&self, txn: TxnId) -> Option<LockMode> {
        match self {
            Holders::One(id, mode) => (*id == txn).then_some(*mode),
            Holders::Many(map) => map.get(&txn).copied(),
        }
    }

    /// The other transactions whose held mode is incompatible with
    /// `requested`.
    fn blockers(&self, txn: TxnId, requested: LockMode) -> FxHashSet<TxnId> {
        let blocks = |id: TxnId, held: LockMode| id != txn && !requested.compatible(held);
        match self {
            Holders::One(id, held) => blocks(*id, *held).then_some(*id).into_iter().collect(),
            Holders::Many(map) => map
                .iter()
                .filter(|(id, held)| blocks(**id, **held))
                .map(|(id, _)| *id)
                .collect(),
        }
    }

    fn grant(&mut self, txn: TxnId, mode: LockMode) {
        match self {
            Holders::One(id, held) if *id == txn => *held = mode,
            Holders::One(id, held) => {
                *self = Holders::Many(FxHashMap::from_iter([(*id, *held), (txn, mode)]));
            }
            Holders::Many(map) => {
                map.insert(txn, mode);
            }
        }
    }

    /// Drops `txn`'s hold; returns whether nobody holds the resource now.
    fn release(&mut self, txn: TxnId) -> bool {
        match self {
            Holders::One(id, _) => *id == txn,
            Holders::Many(map) => {
                map.remove(&txn);
                map.is_empty()
            }
        }
    }

    fn len(&self) -> usize {
        match self {
            Holders::One(..) => 1,
            Holders::Many(map) => map.len(),
        }
    }
}

#[derive(Debug, Default)]
struct LmState {
    /// Current holders per resource.
    locks: FxHashMap<Resource, Holders>,
    /// waits-for edges: blocked txn → the holders it was refused by.
    waits_for: FxHashMap<TxnId, FxHashSet<TxnId>>,
}

impl LmState {
    /// Drops `txn`'s waits-for edge, if it has one. An uncontended run
    /// never blocks, so the graph is empty and this hashes nothing.
    fn stop_waiting(&mut self, txn: TxnId) {
        if !self.waits_for.is_empty() {
            self.waits_for.remove(&txn);
        }
    }

    /// Depth-first search for a cycle through `start` in the waits-for
    /// graph.
    fn has_cycle_from(&self, start: TxnId) -> bool {
        let mut stack: Vec<TxnId> = self
            .waits_for
            .get(&start)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default();
        let mut seen = FxHashSet::default();
        while let Some(t) = stack.pop() {
            if t == start {
                return true;
            }
            if seen.insert(t) {
                if let Some(next) = self.waits_for.get(&t) {
                    stack.extend(next.iter().copied());
                }
            }
        }
        false
    }
}

/// The lock manager: no-wait acquisition with deadlock detection.
#[derive(Debug, Default)]
pub struct LockManager {
    state: Mutex<LmState>,
}

impl LockManager {
    /// Acquires (or upgrades to) `mode` on `resource` for `txn`, or refuses
    /// at once when another transaction holds an incompatible lock.
    ///
    /// # Errors
    /// * [`DbError::Deadlock`] if the refusal's waits-for edge closes a
    ///   cycle — the requester is chosen as the victim;
    /// * [`DbError::Blocked`] otherwise: the request may be made again
    ///   once a holder ends.
    pub fn acquire(&self, txn: TxnId, resource: Resource, mode: LockMode) -> DbResult<()> {
        let mut st = self.state.lock();
        let Some(holders) = st.locks.get_mut(&resource) else {
            // Nobody holds it: the key moves into the table.
            st.locks.insert(resource, Holders::One(txn, mode));
            st.stop_waiting(txn);
            return Ok(());
        };
        let requested = holders
            .get(txn)
            .map(|held| held.combine(mode))
            .unwrap_or(mode);
        let blockers = holders.blockers(txn, requested);
        if blockers.is_empty() {
            holders.grant(txn, requested);
            st.stop_waiting(txn);
            return Ok(());
        }
        st.waits_for.insert(txn, blockers);
        if st.has_cycle_from(txn) {
            st.stop_waiting(txn);
            return Err(DbError::Deadlock);
        }
        Err(DbError::Blocked)
    }

    /// Releases every lock held by `txn` (strict 2PL: locks are held to
    /// transaction end and dropped all at once), and its waits-for edge.
    pub fn release_all(&self, txn: TxnId) {
        let mut st = self.state.lock();
        st.locks.retain(|_, holders| !holders.release(txn));
        st.stop_waiting(txn);
    }

    /// The mode `txn` currently holds on `resource`, if any.
    pub fn held(&self, txn: TxnId, resource: &Resource) -> Option<LockMode> {
        self.state
            .lock()
            .locks
            .get(resource)
            .and_then(|h| h.get(txn))
    }

    /// Wipes the entire lock table — the lock manager is volatile state,
    /// so a crash forgets every holder and waits-for edge at once.
    pub(crate) fn clear(&self) {
        let mut st = self.state.lock();
        st.locks.clear();
        st.waits_for.clear();
    }

    /// Total number of (resource, holder) pairs — used by tests to check
    /// nothing leaks.
    pub fn lock_count(&self) -> usize {
        self.state.lock().locks.values().map(|h| h.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(pk: i64) -> Resource {
        Resource::Row("t".into(), Value::from(pk))
    }

    fn table() -> Resource {
        Resource::Table("t".into())
    }

    #[test]
    fn compatibility_matrix() {
        use LockMode::*;
        let modes = [
            IntentShared,
            IntentExclusive,
            Shared,
            SharedIntentExclusive,
            Exclusive,
        ];
        let expected = [
            // IS     IX     S      SIX    X
            [true, true, true, true, false],     // IS
            [true, true, false, false, false],   // IX
            [true, false, true, false, false],   // S
            [true, false, false, false, false],  // SIX
            [false, false, false, false, false], // X
        ];
        for (i, a) in modes.iter().enumerate() {
            for (j, b) in modes.iter().enumerate() {
                assert_eq!(a.compatible(*b), expected[i][j], "compat({a:?},{b:?})");
                // symmetry
                assert_eq!(a.compatible(*b), b.compatible(*a));
            }
        }
    }

    #[test]
    fn combine_is_lub() {
        use LockMode::*;
        assert_eq!(Shared.combine(IntentExclusive), SharedIntentExclusive);
        assert_eq!(IntentShared.combine(IntentExclusive), IntentExclusive);
        assert_eq!(IntentShared.combine(Shared), Shared);
        assert_eq!(Shared.combine(Exclusive), Exclusive);
        assert_eq!(Shared.combine(Shared), Shared);
        assert_eq!(
            SharedIntentExclusive.combine(IntentShared),
            SharedIntentExclusive
        );
    }

    #[test]
    fn shared_locks_coexist() {
        let lm = LockManager::default();
        lm.acquire(1, row(1), LockMode::Shared).unwrap();
        lm.acquire(2, row(1), LockMode::Shared).unwrap();
        assert_eq!(lm.lock_count(), 2);
        lm.release_all(1);
        lm.release_all(2);
        assert_eq!(lm.lock_count(), 0);
    }

    #[test]
    fn a_conflicting_request_is_blocked_until_release() {
        let lm = LockManager::default();
        lm.acquire(1, row(1), LockMode::Exclusive).unwrap();
        for mode in [LockMode::Shared, LockMode::Exclusive] {
            assert_eq!(lm.acquire(2, row(1), mode), Err(DbError::Blocked));
        }
        assert_eq!(lm.held(2, &row(1)), None);
        lm.release_all(1);
        lm.acquire(2, row(1), LockMode::Exclusive).unwrap();
        assert_eq!(lm.held(2, &row(1)), Some(LockMode::Exclusive));
    }

    #[test]
    fn upgrade_from_shared_to_exclusive() {
        let lm = LockManager::default();
        lm.acquire(1, row(1), LockMode::Shared).unwrap();
        lm.acquire(1, row(1), LockMode::Exclusive).unwrap();
        assert_eq!(lm.held(1, &row(1)), Some(LockMode::Exclusive));
    }

    #[test]
    fn deadlock_is_detected() {
        let lm = LockManager::default();
        lm.acquire(1, row(1), LockMode::Exclusive).unwrap();
        lm.acquire(2, row(2), LockMode::Exclusive).unwrap();
        // txn 2 is refused row 1 (held by 1); its edge stays
        assert_eq!(
            lm.acquire(2, row(1), LockMode::Exclusive),
            Err(DbError::Blocked)
        );
        // txn 1 now requests row 2 → cycle → txn 1 is the victim
        assert_eq!(
            lm.acquire(1, row(2), LockMode::Exclusive),
            Err(DbError::Deadlock)
        );
        lm.release_all(1);
        lm.acquire(2, row(1), LockMode::Exclusive).unwrap();
        lm.release_all(2);
        assert_eq!(lm.lock_count(), 0);
    }

    #[test]
    fn a_grant_drops_the_waits_for_edge() {
        // A free row and a row shared with txn 3: both ways of granting.
        for (resource, mode) in [(row(2), LockMode::Exclusive), (row(3), LockMode::Shared)] {
            let lm = LockManager::default();
            lm.acquire(1, row(1), LockMode::Exclusive).unwrap();
            lm.acquire(3, row(3), LockMode::Shared).unwrap();
            assert_eq!(
                lm.acquire(2, row(1), LockMode::Exclusive),
                Err(DbError::Blocked)
            );
            // txn 2 goes on to a lock it can have: it no longer waits on 1,
            // so 1 may wait on 2 without closing a cycle
            lm.acquire(2, resource.clone(), mode).unwrap();
            assert_eq!(
                lm.acquire(1, resource, LockMode::Exclusive),
                Err(DbError::Blocked)
            );
        }
    }

    #[test]
    fn intent_locks_allow_concurrent_row_writers() {
        let lm = LockManager::default();
        lm.acquire(1, table(), LockMode::IntentExclusive).unwrap();
        lm.acquire(2, table(), LockMode::IntentExclusive).unwrap();
        lm.acquire(1, row(1), LockMode::Exclusive).unwrap();
        lm.acquire(2, row(2), LockMode::Exclusive).unwrap();
        lm.release_all(1);
        lm.release_all(2);
    }

    #[test]
    fn table_scan_blocks_row_writer_via_intents() {
        let lm = LockManager::default();
        lm.acquire(1, table(), LockMode::Shared).unwrap();
        // a writer must take IX on the table first, which conflicts with S
        assert_eq!(
            lm.acquire(2, table(), LockMode::IntentExclusive),
            Err(DbError::Blocked)
        );
    }

    #[test]
    fn six_upgrade_path() {
        let lm = LockManager::default();
        lm.acquire(1, table(), LockMode::Shared).unwrap();
        lm.acquire(1, table(), LockMode::IntentExclusive).unwrap();
        assert_eq!(lm.held(1, &table()), Some(LockMode::SharedIntentExclusive));
    }

    #[test]
    fn release_grants_several_blocked_readers() {
        let lm = LockManager::default();
        lm.acquire(1, row(1), LockMode::Exclusive).unwrap();
        for id in 2..5 {
            assert_eq!(
                lm.acquire(id, row(1), LockMode::Shared),
                Err(DbError::Blocked)
            );
        }
        lm.release_all(1);
        for id in 2..5 {
            lm.acquire(id, row(1), LockMode::Shared).unwrap();
        }
        assert_eq!(lm.lock_count(), 3);
    }
}
