//! Post-hoc serializability checking of recorded operation histories.
//!
//! The checker consumes the [`HistoryEvent`] stream a `slicheck` run
//! records and rebuilds, per entity, the *version chain* of committed
//! states (identified by memento digests, ordered by the datastore's
//! commit-order witness / the committer's apply order). Every committed
//! transaction's before-images are then mapped onto chain versions, which
//! yields the classic transaction dependency graph:
//!
//! * **wr** — T reads a version V ⇒ installer(V) → T;
//! * **rw** — T reads V and V has a successor ⇒ T → installer(successor);
//! * **ww** — chain adjacency ⇒ installer(V) → installer(successor).
//!
//! A cycle in that graph means the committed transactions admit no serial
//! order — the "single logical image" claim is broken. The checker also
//! flags *phantom reads* (a before-image matching no committed version),
//! *witness-order* anomalies (the datastore's commit sequence disagreeing
//! with apply order) and *non-monotonic reads* per edge server.
//!
//! Known limitation (shared with digest-based checkers generally): if the
//! same digest recurs in one key's chain (an ABA pattern — e.g. a balance
//! returning to an earlier value), reads are mapped to the **latest**
//! matching version that existed at the reader's apply point, which can
//! mask a cycle but never invents one.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use sli_telemetry::{HistoryEvent, HistoryImage, Json};

/// A transaction identity: `(origin edge, per-origin txn id)`.
///
/// `{0, 0}` is reserved for the initial database state (the pseudo-writer
/// of every key's first version).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxnRef {
    /// Edge server the transaction originated on (0 = initial state).
    pub origin: u32,
    /// Per-origin transaction id (0 = initial state).
    pub txn_id: u64,
}

impl TxnRef {
    /// The pseudo-transaction that installed the initial database state.
    pub const INITIAL: TxnRef = TxnRef {
        origin: 0,
        txn_id: 0,
    };
}

impl fmt::Display for TxnRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.origin, self.txn_id)
    }
}

/// One invariant violation found in a history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Violation class: `"non-serializable"`, `"phantom-read"`,
    /// `"witness-order"`, `"non-monotonic-read"`, or one of the
    /// harness-side kinds (`"money-conservation"`, `"abort-leak"`,
    /// `"stale-invalidation"`, `"lost-committed-write"`).
    pub kind: String,
    /// Human-readable description naming the entities and versions.
    pub details: String,
    /// The dependency cycle, when the violation is one (empty otherwise).
    pub cycle: Vec<TxnRef>,
}

impl Violation {
    /// A violation without a dependency cycle.
    pub fn new(kind: &str, details: String) -> Violation {
        Violation {
            kind: kind.to_owned(),
            details,
            cycle: Vec::new(),
        }
    }

    /// Renders for the counterexample export.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("kind", Json::from(self.kind.clone())),
            ("details", Json::from(self.details.clone())),
        ];
        if !self.cycle.is_empty() {
            pairs.push((
                "cycle",
                Json::Arr(
                    self.cycle
                        .iter()
                        .map(|t| {
                            Json::obj([
                                ("origin", Json::from(u64::from(t.origin))),
                                ("txn_id", Json::from(t.txn_id)),
                            ])
                        })
                        .collect(),
                ),
            ));
        }
        Json::obj(pairs)
    }
}

/// One committed state of one entity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainVersion {
    /// Digest of the installed after-image; `None` is a tombstone
    /// (the entity was removed).
    pub digest: Option<u64>,
    /// The transaction that installed it.
    pub by: TxnRef,
}

/// The checker's full result: violations plus the reconstructed state.
#[derive(Debug, Clone)]
pub struct HistoryAnalysis {
    /// Every invariant violation found (empty = the history checks out).
    pub violations: Vec<Violation>,
    /// Per-`(bean, key)` version chains in commit order (index 0 is the
    /// initial state where one existed).
    pub chains: BTreeMap<(String, String), Vec<ChainVersion>>,
    /// Number of committed transactions analyzed.
    pub committed: usize,
    /// Number of aborted (conflicted or errored) transactions.
    pub aborted: usize,
}

impl HistoryAnalysis {
    /// Whether the history satisfied every checked invariant.
    pub fn is_serializable(&self) -> bool {
        self.violations.is_empty()
    }

    /// The digests ever committed for `(bean, key)`, including the initial
    /// state — the reference set for cache-leak checks.
    pub fn committed_digests(&self, bean: &str, key: &str) -> BTreeSet<u64> {
        self.chains
            .get(&(bean.to_owned(), key.to_owned()))
            .map(|chain| chain.iter().filter_map(|v| v.digest).collect())
            .unwrap_or_default()
    }

    /// The latest committed digest for `(bean, key)`: `Some(Some(d))` =
    /// live state `d`, `Some(None)` = removed, `None` = never written and
    /// not seeded.
    pub fn latest_digest(&self, bean: &str, key: &str) -> Option<Option<u64>> {
        self.chains
            .get(&(bean.to_owned(), key.to_owned()))
            .and_then(|chain| chain.last())
            .map(|v| v.digest)
    }
}

/// One transaction's joined view: the RM-side footprint and the
/// committer-side apply outcome.
struct TxnView<'a> {
    entries: &'a [HistoryImage],
    commit_outcome: &'a str,
    apply_outcome: Option<&'a str>,
    csn: u64,
    /// History index of the authoritative outcome event (orders commits).
    order: usize,
}

impl TxnView<'_> {
    /// The committer's verdict wins: under faults an edge can see a
    /// transport error while the backend applied the commit.
    fn committed(&self) -> bool {
        match self.apply_outcome {
            Some(outcome) => outcome == "committed",
            None => self.commit_outcome == "committed",
        }
    }

    fn is_writer(&self) -> bool {
        self.entries.iter().any(|e| e.kind != "read")
    }
}

/// Checks `events` against the serializability and SLI invariants.
///
/// `initial` seeds the version chains: `(bean, key, digest)` of every row
/// present before the run (installed by [`TxnRef::INITIAL`]).
pub fn analyze(events: &[HistoryEvent], initial: &[(String, String, u64)]) -> HistoryAnalysis {
    let mut violations = Vec::new();

    // Join Commit (RM footprint) and Apply (committer outcome) per txn.
    let mut txns: BTreeMap<TxnRef, TxnView<'_>> = BTreeMap::new();
    for (i, event) in events.iter().enumerate() {
        match event {
            HistoryEvent::Commit {
                origin,
                txn_id,
                outcome,
                entries,
                ..
            } => {
                let id = TxnRef {
                    origin: *origin,
                    txn_id: *txn_id,
                };
                let view = txns.entry(id).or_insert(TxnView {
                    entries: &[],
                    commit_outcome: "",
                    apply_outcome: None,
                    csn: 0,
                    order: i,
                });
                view.entries = entries;
                view.commit_outcome = outcome;
            }
            HistoryEvent::Apply {
                origin,
                txn_id,
                csn,
                outcome,
                ..
            } => {
                let id = TxnRef {
                    origin: *origin,
                    txn_id: *txn_id,
                };
                let view = txns.entry(id).or_insert(TxnView {
                    entries: &[],
                    commit_outcome: "",
                    apply_outcome: None,
                    csn: 0,
                    order: i,
                });
                view.apply_outcome = Some(outcome);
                view.csn = *csn;
                view.order = i;
            }
            _ => {}
        }
    }

    // Committed transactions in apply order; the datastore's commit-order
    // witness must agree (strictly increasing over writers) where visible.
    let mut committed: Vec<(TxnRef, &TxnView<'_>)> = txns
        .iter()
        .filter(|(_, v)| v.committed() && !v.entries.is_empty())
        .map(|(id, v)| (*id, v))
        .collect();
    committed.sort_by_key(|(_, v)| v.order);
    let aborted = txns
        .values()
        .filter(|v| !v.committed() && !v.entries.is_empty())
        .count();

    let mut last_csn = 0u64;
    for (id, view) in &committed {
        if view.is_writer() && view.csn > 0 {
            if view.csn <= last_csn {
                violations.push(Violation::new(
                    "witness-order",
                    format!(
                        "txn {id} committed with witness {} after witness {} \
                         (apply order disagrees with the datastore's commit order)",
                        view.csn, last_csn
                    ),
                ));
            }
            last_csn = view.csn;
        }
    }

    // Grow the per-key version chains committed transaction by committed
    // transaction (in apply order), mapping each before-image against the
    // chain *as it stood at that transaction's apply*. Optimistic
    // validation guarantees a committed before-image matched the then-
    // current state, so later versions are never legitimate candidates —
    // and bounding the search this way keeps an ABA digest recurrence from
    // mapping a read onto a version that did not yet exist (which would
    // fabricate non-monotonic-read reports).
    let mut chains: BTreeMap<(String, String), Vec<ChainVersion>> = BTreeMap::new();
    for (bean, key, digest) in initial {
        chains
            .entry((bean.clone(), key.clone()))
            .or_default()
            .push(ChainVersion {
                digest: Some(*digest),
                by: TxnRef::INITIAL,
            });
    }
    // Reads resolved to chain positions: (reader, chain key, version index).
    let mut reads: Vec<(TxnRef, (String, String), usize)> = Vec::new();
    // Per-origin monotonic-read state: highest chain index read per key.
    let mut read_frontier: BTreeMap<(u32, (String, String)), usize> = BTreeMap::new();
    for (id, view) in &committed {
        for entry in view.entries {
            let Some(before) = entry.before else {
                continue;
            };
            let chain_key = (entry.bean.clone(), entry.key.clone());
            let chain = chains.entry(chain_key.clone()).or_default();
            let read_at = chain.iter().rposition(|v| v.digest == Some(before));
            let Some(read_at) = read_at else {
                violations.push(Violation::new(
                    "phantom-read",
                    format!(
                        "txn {id} validated a before-image of {}[{}] (digest {before:#018x}) \
                         that no committed transaction had installed by its apply",
                        entry.bean, entry.key
                    ),
                ));
                continue;
            };
            reads.push((*id, chain_key.clone(), read_at));
            // Monotonic read at this edge server.
            let frontier = read_frontier.entry((id.origin, chain_key)).or_insert(0);
            if read_at < *frontier {
                violations.push(Violation::new(
                    "non-monotonic-read",
                    format!(
                        "edge {} read version {} of {}[{}] after already observing \
                         version {}",
                        id.origin, read_at, entry.bean, entry.key, *frontier
                    ),
                ));
            }
            *frontier = (*frontier).max(read_at);
        }
        // Only now install this transaction's own versions.
        for entry in view.entries {
            let installed = match entry.kind.as_str() {
                "update" | "create" => Some(ChainVersion {
                    digest: entry.after,
                    by: *id,
                }),
                "remove" => Some(ChainVersion {
                    digest: None,
                    by: *id,
                }),
                _ => None,
            };
            if let Some(version) = installed {
                chains
                    .entry((entry.bean.clone(), entry.key.clone()))
                    .or_default()
                    .push(version);
            }
        }
    }

    // Derive wr / rw / ww dependency edges over the completed chains.
    let mut edges: BTreeMap<TxnRef, BTreeSet<TxnRef>> = BTreeMap::new();
    let mut add_edge = |from: TxnRef, to: TxnRef| {
        if from != to && from != TxnRef::INITIAL && to != TxnRef::INITIAL {
            edges.entry(from).or_default().insert(to);
        }
    };
    // ww: chain adjacency.
    for chain in chains.values() {
        for pair in chain.windows(2) {
            add_edge(pair[0].by, pair[1].by);
        }
    }
    for (id, chain_key, read_at) in reads {
        let chain = &chains[&chain_key];
        // wr: the installer happens before the reader.
        add_edge(chain[read_at].by, id);
        // rw: the reader happens before whoever overwrote what it read.
        if let Some(next) = chain.get(read_at + 1) {
            add_edge(id, next.by);
        }
    }

    if let Some(cycle) = find_cycle(&edges) {
        let path = cycle
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(" -> ");
        violations.push(Violation {
            kind: "non-serializable".to_owned(),
            details: format!(
                "dependency cycle among committed transactions: {path} -> {}",
                cycle[0]
            ),
            cycle,
        });
    }

    HistoryAnalysis {
        violations,
        chains,
        committed: committed.len(),
        aborted,
    }
}

/// Finds one cycle in the dependency graph, if any (deterministic: nodes
/// and successors are visited in sorted order).
fn find_cycle(edges: &BTreeMap<TxnRef, BTreeSet<TxnRef>>) -> Option<Vec<TxnRef>> {
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Grey,
        Black,
    }
    let mut color: BTreeMap<TxnRef, Color> = edges.keys().map(|&n| (n, Color::White)).collect();
    for (&to, _) in edges.values().flat_map(|s| s.iter().map(|t| (t, ()))) {
        color.entry(to).or_insert(Color::White);
    }
    let nodes: Vec<TxnRef> = color.keys().copied().collect();
    let mut stack: Vec<TxnRef> = Vec::new();

    fn visit(
        node: TxnRef,
        edges: &BTreeMap<TxnRef, BTreeSet<TxnRef>>,
        color: &mut BTreeMap<TxnRef, Color>,
        stack: &mut Vec<TxnRef>,
    ) -> Option<Vec<TxnRef>> {
        color.insert(node, Color::Grey);
        stack.push(node);
        if let Some(succs) = edges.get(&node) {
            for &next in succs {
                match color.get(&next).copied().unwrap_or(Color::White) {
                    Color::Grey => {
                        let start = stack.iter().position(|&n| n == next).expect("on stack");
                        return Some(stack[start..].to_vec());
                    }
                    Color::White => {
                        if let Some(cycle) = visit(next, edges, color, stack) {
                            return Some(cycle);
                        }
                    }
                    Color::Black => {}
                }
            }
        }
        stack.pop();
        color.insert(node, Color::Black);
        None
    }

    for node in nodes {
        if color[&node] == Color::White {
            if let Some(cycle) = visit(node, edges, &mut color, &mut stack) {
                return Some(cycle);
            }
            stack.clear();
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image(
        bean: &str,
        key: &str,
        kind: &str,
        before: Option<u64>,
        after: Option<u64>,
    ) -> HistoryImage {
        HistoryImage {
            bean: bean.to_owned(),
            key: key.to_owned(),
            kind: kind.to_owned(),
            before,
            after,
        }
    }

    fn committed_txn(
        origin: u32,
        txn_id: u64,
        csn: u64,
        entries: Vec<HistoryImage>,
    ) -> Vec<HistoryEvent> {
        vec![
            HistoryEvent::Commit {
                origin,
                txn_id,
                outcome: "committed".to_owned(),
                entries,
                t_us: 0,
            },
            HistoryEvent::Apply {
                origin,
                txn_id,
                csn,
                outcome: "committed".to_owned(),
                t_us: 0,
            },
        ]
    }

    const K: (&str, &str) = ("Account", "'a'");

    fn initial() -> Vec<(String, String, u64)> {
        vec![(K.0.to_owned(), K.1.to_owned(), 100)]
    }

    #[test]
    fn serial_updates_pass() {
        let mut events = committed_txn(
            1,
            1,
            1,
            vec![image(K.0, K.1, "update", Some(100), Some(70))],
        );
        events.extend(committed_txn(
            2,
            1,
            2,
            vec![image(K.0, K.1, "update", Some(70), Some(50))],
        ));
        let analysis = analyze(&events, &initial());
        assert!(analysis.is_serializable(), "{:?}", analysis.violations);
        assert_eq!(analysis.committed, 2);
        assert_eq!(
            analysis.latest_digest(K.0, K.1),
            Some(Some(50)),
            "chain tracks the last committed state"
        );
    }

    #[test]
    fn lost_update_is_a_cycle() {
        // Both writers read the initial version; both committed — the
        // injected-bug anomaly.
        let mut events = committed_txn(
            1,
            1,
            1,
            vec![image(K.0, K.1, "update", Some(100), Some(70))],
        );
        events.extend(committed_txn(
            2,
            1,
            2,
            vec![image(K.0, K.1, "update", Some(100), Some(50))],
        ));
        let analysis = analyze(&events, &initial());
        let cycle = analysis
            .violations
            .iter()
            .find(|v| v.kind == "non-serializable")
            .expect("lost update must be flagged");
        assert_eq!(cycle.cycle.len(), 2);
    }

    #[test]
    fn aborted_writers_do_not_pollute_the_chain() {
        let mut events = committed_txn(
            1,
            1,
            1,
            vec![image(K.0, K.1, "update", Some(100), Some(70))],
        );
        events.push(HistoryEvent::Commit {
            origin: 2,
            txn_id: 1,
            outcome: "conflict".to_owned(),
            entries: vec![image(K.0, K.1, "update", Some(100), Some(1))],
            t_us: 0,
        });
        events.push(HistoryEvent::Apply {
            origin: 2,
            txn_id: 1,
            csn: 1,
            outcome: "conflict".to_owned(),
            t_us: 0,
        });
        let analysis = analyze(&events, &initial());
        assert!(analysis.is_serializable(), "{:?}", analysis.violations);
        assert_eq!(analysis.aborted, 1);
        assert_eq!(analysis.committed_digests(K.0, K.1), [100, 70].into());
    }

    #[test]
    fn phantom_reads_are_flagged() {
        let events = committed_txn(1, 1, 1, vec![image(K.0, K.1, "read", Some(999), None)]);
        let analysis = analyze(&events, &initial());
        assert!(analysis.violations.iter().any(|v| v.kind == "phantom-read"));
    }

    #[test]
    fn witness_regression_is_flagged() {
        let mut events = committed_txn(
            1,
            1,
            5,
            vec![image(K.0, K.1, "update", Some(100), Some(70))],
        );
        events.extend(committed_txn(
            2,
            1,
            4, // witness went backwards relative to apply order
            vec![image(K.0, K.1, "update", Some(70), Some(50))],
        ));
        let analysis = analyze(&events, &initial());
        assert!(analysis
            .violations
            .iter()
            .any(|v| v.kind == "witness-order"));
    }

    #[test]
    fn apply_outcome_overrides_rm_error() {
        // Transport error at the edge, but the backend committed: the txn
        // is a committed writer and the chain must include it.
        let events = vec![
            HistoryEvent::Commit {
                origin: 1,
                txn_id: 1,
                outcome: "error".to_owned(),
                entries: vec![image(K.0, K.1, "update", Some(100), Some(70))],
                t_us: 0,
            },
            HistoryEvent::Apply {
                origin: 1,
                txn_id: 1,
                csn: 1,
                outcome: "committed".to_owned(),
                t_us: 0,
            },
        ];
        let analysis = analyze(&events, &initial());
        assert!(analysis.is_serializable(), "{:?}", analysis.violations);
        assert_eq!(analysis.committed, 1);
        assert_eq!(analysis.latest_digest(K.0, K.1), Some(Some(70)));
    }

    #[test]
    fn remove_leaves_a_tombstone() {
        let events = committed_txn(1, 1, 1, vec![image(K.0, K.1, "remove", Some(100), None)]);
        let analysis = analyze(&events, &initial());
        assert!(analysis.is_serializable(), "{:?}", analysis.violations);
        assert_eq!(analysis.latest_digest(K.0, K.1), Some(None));
    }
}
