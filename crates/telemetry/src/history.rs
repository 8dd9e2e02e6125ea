//! Operation histories for the schedule-exploring checker (`slicheck`).
//!
//! A *history* is the complete record of what logical clients asked for and
//! what the system answered — the object Jepsen-style checkers consume. The
//! harness appends [`HistoryEvent`]s to a shared [`HistoryLog`] as it runs:
//! client-side invocations/returns, the resource-manager view of each commit
//! attempt (with before-/after-image digests), and the committer-side apply
//! outcome tagged with the datastore's commit-order witness. Post-hoc, the
//! checker reconstructs a transaction dependency graph from these events.
//!
//! The module also defines the counterexample export: on a violation,
//! `slicheck` shrinks the failing schedule and writes a
//! [`COUNTEREXAMPLE_SCHEMA`] document which [`validate`](crate::validate)
//! checks for well-formedness — the same validated-export loop every
//! other artifact goes through.

use std::collections::BTreeSet;
use std::sync::Mutex;

use crate::json::Json;
use crate::schema::Shape::{self, *};
use crate::schema::{items, uint};

/// One before- or after-image footprint of a transaction, with memento
/// contents compressed to 64-bit digests (the checker compares identities,
/// not field values).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistoryImage {
    /// Bean (entity) name.
    pub bean: String,
    /// Primary key, rendered as a string.
    pub key: String,
    /// Entry kind: `"read"`, `"update"`, `"create"` or `"remove"`.
    pub kind: String,
    /// Digest of the before-image, if the entry carries one.
    pub before: Option<u64>,
    /// Digest of the after-image, if the entry carries one.
    pub after: Option<u64>,
}

/// One event in an operation history.
#[derive(Debug, Clone, PartialEq)]
pub enum HistoryEvent {
    /// A logical client started an operation (a read or a transfer leg).
    Invoke {
        /// Logical client index.
        client: u32,
        /// Client-unique operation id, paired with the matching `Return`.
        op_id: u64,
        /// Operation name, e.g. `"read"`, `"debit"`, `"credit"`.
        op: String,
        /// Bean name the operation targets.
        bean: String,
        /// Primary key the operation targets.
        key: String,
        /// Virtual time of the invocation, microseconds.
        t_us: u64,
    },
    /// The operation returned to the client.
    Return {
        /// Logical client index.
        client: u32,
        /// Matches the `Invoke` with the same id.
        op_id: u64,
        /// `"ok"`, `"conflict"` or `"error"`.
        outcome: String,
        /// Returned value (for reads), rendered as a string.
        value: Option<String>,
        /// Virtual time of the return, microseconds.
        t_us: u64,
    },
    /// The resource-manager view of a commit attempt: the full footprint
    /// the edge submitted, with image digests.
    Commit {
        /// Edge server the transaction originated on.
        origin: u32,
        /// Transaction id, unique per origin.
        txn_id: u64,
        /// `"committed"`, `"conflict"`, `"error"` or `"empty"`.
        outcome: String,
        /// The before/after footprint of every touched instance.
        entries: Vec<HistoryImage>,
        /// Virtual time the outcome was known at the edge, microseconds.
        t_us: u64,
    },
    /// The committer-side apply outcome, tagged with the datastore's
    /// commit-order witness. Recorded only for fresh requests (duplicate
    /// deliveries replay the memoised outcome and are not re-applied).
    Apply {
        /// Edge server the transaction originated on.
        origin: u32,
        /// Transaction id, unique per origin.
        txn_id: u64,
        /// Commit-order witness after the apply
        /// ([`Database::commit_seq`](../sli_datastore/struct.Database.html));
        /// 0 when the committer cannot observe it (remote connection).
        csn: u64,
        /// `"committed"`, `"conflict"` or `"error"`.
        outcome: String,
        /// Virtual time of the apply at the committer, microseconds.
        t_us: u64,
    },
}

/// A shared, append-only log of [`HistoryEvent`]s.
///
/// Handles are cloned into the resource manager and the committers; the
/// harness drains the log once the run completes.
#[derive(Debug, Default)]
pub struct HistoryLog {
    events: Mutex<Vec<HistoryEvent>>,
}

impl HistoryLog {
    /// An empty log.
    pub fn new() -> HistoryLog {
        HistoryLog::default()
    }

    /// Appends one event.
    pub fn record(&self, event: HistoryEvent) {
        self.events.lock().unwrap().push(event);
    }

    /// A snapshot of all events recorded so far, in append order.
    pub fn events(&self) -> Vec<HistoryEvent> {
        self.events.lock().unwrap().clone()
    }

    /// Number of events recorded.
    pub fn len(&self) -> usize {
        self.events.lock().unwrap().len()
    }

    /// Whether no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes all events.
    pub fn clear(&self) {
        self.events.lock().unwrap().clear();
    }
}

/// A memento digest uses all 64 bits, more than a JSON number carries, so
/// it is rendered as 16 hex digits (the span exports' `expected_digest`
/// format).
fn digest_json(digest: Option<u64>) -> Json {
    match digest {
        Some(d) => Json::from(format!("{d:016x}")),
        None => Json::Null,
    }
}

fn image_json(img: &HistoryImage) -> Json {
    Json::obj([
        ("bean", Json::from(img.bean.clone())),
        ("key", Json::from(img.key.clone())),
        ("kind", Json::from(img.kind.clone())),
        ("before", digest_json(img.before)),
        ("after", digest_json(img.after)),
    ])
}

/// Renders a history as a JSON array of tagged event objects.
pub fn history_json(events: &[HistoryEvent]) -> Json {
    Json::Arr(events.iter().map(event_json).collect())
}

fn event_json(event: &HistoryEvent) -> Json {
    match event {
        HistoryEvent::Invoke {
            client,
            op_id,
            op,
            bean,
            key,
            t_us,
        } => Json::obj([
            ("type", Json::from("invoke")),
            ("client", Json::from(u64::from(*client))),
            ("op_id", Json::from(*op_id)),
            ("op", Json::from(op.clone())),
            ("bean", Json::from(bean.clone())),
            ("key", Json::from(key.clone())),
            ("t_us", Json::from(*t_us)),
        ]),
        HistoryEvent::Return {
            client,
            op_id,
            outcome,
            value,
            t_us,
        } => Json::obj([
            ("type", Json::from("return")),
            ("client", Json::from(u64::from(*client))),
            ("op_id", Json::from(*op_id)),
            ("outcome", Json::from(outcome.clone())),
            (
                "value",
                match value {
                    Some(v) => Json::from(v.clone()),
                    None => Json::Null,
                },
            ),
            ("t_us", Json::from(*t_us)),
        ]),
        HistoryEvent::Commit {
            origin,
            txn_id,
            outcome,
            entries,
            t_us,
        } => Json::obj([
            ("type", Json::from("commit")),
            ("origin", Json::from(u64::from(*origin))),
            ("txn_id", Json::from(*txn_id)),
            ("outcome", Json::from(outcome.clone())),
            (
                "entries",
                Json::Arr(entries.iter().map(image_json).collect()),
            ),
            ("t_us", Json::from(*t_us)),
        ]),
        HistoryEvent::Apply {
            origin,
            txn_id,
            csn,
            outcome,
            t_us,
        } => Json::obj([
            ("type", Json::from("apply")),
            ("origin", Json::from(u64::from(*origin))),
            ("txn_id", Json::from(*txn_id)),
            ("csn", Json::from(*csn)),
            ("outcome", Json::from(outcome.clone())),
            ("t_us", Json::from(*t_us)),
        ]),
    }
}

fn req_u32(obj: &Json, key: &str, what: &str) -> Result<u32, String> {
    u32::try_from(obj.req_u64(key, what)?).map_err(|_| format!("{what}: {key:?} exceeds 32 bits"))
}

fn opt_digest(obj: &Json, key: &str, what: &str) -> Result<Option<u64>, String> {
    let parsed = match obj.req(key, what)? {
        Json::Null => return Ok(None),
        Json::Str(hex) if hex.len() == 16 && !hex.starts_with('+') => {
            u64::from_str_radix(hex, 16).ok()
        }
        _ => None,
    };
    let digest =
        parsed.ok_or_else(|| format!("{what}: {key:?} is neither null nor 16 hex digits"))?;
    Ok(Some(digest))
}

/// Parses a history previously rendered by [`history_json`].
///
/// # Errors
/// Describes the first malformed event encountered.
pub fn parse_history(json: &Json) -> Result<Vec<HistoryEvent>, String> {
    let items = json.as_arr().ok_or("history is not an array")?;
    let mut events = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let what = format!("history[{i}]");
        let event = match item.req_str("type", &what)? {
            "invoke" => HistoryEvent::Invoke {
                client: req_u32(item, "client", &what)?,
                op_id: item.req_u64("op_id", &what)?,
                op: item.req_str("op", &what)?.to_owned(),
                bean: item.req_str("bean", &what)?.to_owned(),
                key: item.req_str("key", &what)?.to_owned(),
                t_us: item.req_u64("t_us", &what)?,
            },
            "return" => HistoryEvent::Return {
                client: req_u32(item, "client", &what)?,
                op_id: item.req_u64("op_id", &what)?,
                outcome: item.req_str("outcome", &what)?.to_owned(),
                value: match item.get("value") {
                    Some(Json::Null) | None => None,
                    Some(v) => Some(
                        v.as_str()
                            .ok_or_else(|| format!("{what}: non-string value"))?
                            .to_owned(),
                    ),
                },
                t_us: item.req_u64("t_us", &what)?,
            },
            "commit" => {
                let entries = item.req_arr("entries", &what)?;
                let mut images = Vec::with_capacity(entries.len());
                for (j, e) in entries.iter().enumerate() {
                    let ew = format!("{what}.entries[{j}]");
                    images.push(HistoryImage {
                        bean: e.req_str("bean", &ew)?.to_owned(),
                        key: e.req_str("key", &ew)?.to_owned(),
                        kind: e.req_str("kind", &ew)?.to_owned(),
                        before: opt_digest(e, "before", &ew)?,
                        after: opt_digest(e, "after", &ew)?,
                    });
                }
                HistoryEvent::Commit {
                    origin: req_u32(item, "origin", &what)?,
                    txn_id: item.req_u64("txn_id", &what)?,
                    outcome: item.req_str("outcome", &what)?.to_owned(),
                    entries: images,
                    t_us: item.req_u64("t_us", &what)?,
                }
            }
            "apply" => HistoryEvent::Apply {
                origin: req_u32(item, "origin", &what)?,
                txn_id: item.req_u64("txn_id", &what)?,
                csn: item.req_u64("csn", &what)?,
                outcome: item.req_str("outcome", &what)?.to_owned(),
                t_us: item.req_u64("t_us", &what)?,
            },
            other => return Err(format!("{what}: unknown event type {other:?}")),
        };
        events.push(event);
    }
    Ok(events)
}

/// Schema identifier of the counterexample export.
pub const COUNTEREXAMPLE_SCHEMA: &str = "sli-edge.slicheck-counterexample/v2";

/// The [`COUNTEREXAMPLE_SCHEMA`] document `slicheck` writes
/// (`sli_arch::counterexample_json`). The history's events are
/// [`parse_history`]'s to check, and a violation's optional `cycle` the
/// law's.
pub(crate) const SHAPE: Shape = Obj(&[
    ("version", OneOf(&[COUNTEREXAMPLE_SCHEMA])),
    ("arch", Str),
    ("seed", U64),
    ("schedule", List(&Obj(&[("choice", U64), ("arity", U64)]))),
    ("history", List(&Obj(&[("type", Str), ("t_us", U64)]))),
    (
        "violations",
        NonEmpty(&Obj(&[("kind", Str), ("details", Str)])),
    ),
]);

/// The counterexample's law: every scheduling choice is below its arity,
/// the history parses, and every node of a violation's dependency cycle
/// is a transaction the history commits or applies (`0/0` stands for the
/// initial state).
pub(crate) fn law(doc: &Json) -> Result<(), String> {
    for (i, step) in items(doc, "schedule").iter().enumerate() {
        let (choice, arity) = (uint(step, "choice"), uint(step, "arity"));
        if choice >= arity {
            return Err(format!(
                "schedule[{i}]: choice {choice} out of range for arity {arity}"
            ));
        }
    }
    let mut txns = BTreeSet::from([(0, 0)]);
    for event in parse_history(doc.get("history").unwrap_or(&Json::Null))? {
        if let HistoryEvent::Commit { origin, txn_id, .. }
        | HistoryEvent::Apply { origin, txn_id, .. } = event
        {
            txns.insert((origin, txn_id));
        }
    }
    for (i, violation) in items(doc, "violations").iter().enumerate() {
        let Some(cycle) = violation.get("cycle") else {
            continue;
        };
        let at = format!("violations[{i}].cycle");
        let nodes = cycle
            .as_arr()
            .ok_or_else(|| format!("{at}: expected an array"))?;
        for (j, node) in nodes.iter().enumerate() {
            let at = format!("{at}[{j}]");
            let (origin, txn_id) = (req_u32(node, "origin", &at)?, node.req_u64("txn_id", &at)?);
            if !txns.contains(&(origin, txn_id)) {
                return Err(format!(
                    "{at}: txn {origin}/{txn_id} not present in history"
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn sample_history() -> Vec<HistoryEvent> {
        vec![
            HistoryEvent::Invoke {
                client: 0,
                op_id: 1,
                op: "debit".to_owned(),
                bean: "Account".to_owned(),
                key: "alice".to_owned(),
                t_us: 10,
            },
            HistoryEvent::Return {
                client: 0,
                op_id: 1,
                outcome: "ok".to_owned(),
                value: Some("70".to_owned()),
                t_us: 20,
            },
            HistoryEvent::Commit {
                origin: 1,
                txn_id: 1,
                outcome: "committed".to_owned(),
                entries: vec![HistoryImage {
                    bean: "Account".to_owned(),
                    key: "alice".to_owned(),
                    kind: "update".to_owned(),
                    // Real digests use all 64 bits; an `f64` keeps 53.
                    before: Some(0xcbf2_9ce4_8422_2325),
                    after: Some(u64::MAX - 1),
                }],
                t_us: 30,
            },
            HistoryEvent::Apply {
                origin: 1,
                txn_id: 1,
                csn: 1,
                outcome: "committed".to_owned(),
                t_us: 30,
            },
        ]
    }

    #[test]
    fn history_round_trips_through_json() {
        let events = sample_history();
        let json = history_json(&events);
        let reparsed = Json::parse(&json.render()).unwrap();
        assert_eq!(parse_history(&reparsed).unwrap(), events);
    }

    #[test]
    fn parse_rejects_malformed_events() {
        let bad = Json::Arr(vec![Json::obj([("type", Json::from("warp"))])]);
        assert!(parse_history(&bad).unwrap_err().contains("unknown event"));
        let missing = Json::Arr(vec![Json::obj([("type", Json::from("apply"))])]);
        assert!(parse_history(&missing).is_err());
        assert!(parse_history(&Json::Null).is_err());
        // Integers are checked, not cast: no sign, fraction or magnitude
        // beyond what a JSON number carries exactly slips through.
        for bad in ["-1", "1.5", "1e300"] {
            let text = history_json(&sample_history()).render();
            let text = text.replacen("\"t_us\":10", &format!("\"t_us\":{bad}"), 1);
            let err = parse_history(&Json::parse(&text).unwrap()).unwrap_err();
            assert!(err.contains("non-negative integer below 2^53"), "{err}");
        }
        // A digest is 16 hex digits or null, never a (rounded) number.
        let text = history_json(&sample_history()).render();
        let text = text.replacen("\"cbf29ce484222325\"", "14695981039346656037", 1);
        let err = parse_history(&Json::parse(&text).unwrap()).unwrap_err();
        assert!(err.contains("16 hex digits"), "{err}");
    }

    /// A known-good counterexample whose history holds one event of each
    /// type, for the schema tests.
    pub(crate) fn sample() -> Json {
        Json::obj([
            ("version", Json::from(COUNTEREXAMPLE_SCHEMA)),
            ("arch", Json::from("es-rdb-cached")),
            ("seed", Json::from(7u64)),
            (
                "schedule",
                Json::Arr(vec![Json::obj([
                    ("choice", Json::from(1u64)),
                    ("arity", Json::from(2u64)),
                ])]),
            ),
            ("history", history_json(&sample_history())),
            (
                "violations",
                Json::Arr(vec![Json::obj([
                    ("kind", Json::from("non-serializable")),
                    ("details", Json::from("cycle of length 1")),
                    (
                        "cycle",
                        Json::Arr(vec![Json::obj([
                            ("origin", Json::from(1u64)),
                            ("txn_id", Json::from(1u64)),
                        ])]),
                    ),
                ])]),
            ),
        ])
    }

    #[test]
    fn log_records_and_drains() {
        let log = HistoryLog::new();
        assert!(log.is_empty());
        for e in sample_history() {
            log.record(e);
        }
        assert_eq!(log.len(), 4);
        assert_eq!(log.events().len(), 4);
        log.clear();
        assert!(log.is_empty());
    }
}
