//! The optimistic commit request: before- and after-images of everything a
//! transaction touched.

use std::sync::Arc;

use bytes::Bytes;
use sli_component::{InstanceState, Memento, TxContext};
use sli_datastore::Value;
use sli_simnet::wire::{DecodeError, Reader, Writer};

use crate::registry::MetaRegistry;

/// What happened to one bean inside the transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EntryKind {
    /// Read but not modified: validate the before-image only.
    Read {
        /// State observed at first access.
        before: Memento,
    },
    /// Modified: validate `before`, then write `after`.
    Update {
        /// State observed at first access.
        before: Memento,
        /// State at commit time.
        after: Memento,
    },
    /// Created in the transaction: verify no bean with the key exists, then
    /// insert `after`.
    Create {
        /// Initial state to insert.
        after: Memento,
    },
    /// Removed in the transaction: verify the current image still equals
    /// `before`, then delete.
    Remove {
        /// State observed before removal.
        before: Memento,
    },
}

impl EntryKind {
    fn tag(&self) -> u8 {
        match self {
            EntryKind::Read { .. } => 0,
            EntryKind::Update { .. } => 1,
            EntryKind::Create { .. } => 2,
            EntryKind::Remove { .. } => 3,
        }
    }

    /// Whether this entry writes to the persistent store.
    pub fn is_write(&self) -> bool {
        !matches!(self, EntryKind::Read { .. })
    }
}

/// One bean's contribution to a commit request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitEntry {
    /// Bean type name: the deployment descriptor's own where the request
    /// was built by a home or decoded against a registry.
    pub bean: Arc<str>,
    /// Bean identity.
    pub key: Value,
    /// Life-cycle classification plus images.
    pub kind: EntryKind,
}

/// The full transaction state shipped at commit time.
///
/// In the split-servers configuration this is the single message sent to
/// the back-end server ("this access is done at commit time in order to
/// transmit the set of memento images involved in the transaction"); in the
/// combined configuration the same entries drive one datastore access per
/// image.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CommitRequest {
    /// Identifier of the submitting edge server (drives invalidation
    /// fan-out to the *other* edges).
    pub origin: u32,
    /// Transaction identifier, unique per origin. Together `(origin,
    /// txn_id)` identify the transaction across retries, letting committers
    /// recognise a resent request and replay the recorded outcome instead of
    /// applying it twice. `0` marks an unstamped request (dedup disabled).
    pub txn_id: u64,
    /// Per-bean entries in first-touch order.
    pub entries: Vec<CommitEntry>,
}

impl CommitRequest {
    /// Builds a request from a finished transaction context.
    ///
    /// Classification:
    /// * created & not removed → `Create`
    /// * created & removed → dropped (never left the transaction)
    /// * removed → `Remove` (requires a before-image)
    /// * dirty → `Update`
    /// * loaded (read) → `Read`
    /// * touched but never loaded (e.g. enlisted by a finder and never
    ///   accessed) → dropped; with no before-image there is nothing to
    ///   validate.
    pub fn from_context(origin: u32, txn_id: u64, ctx: &TxContext) -> CommitRequest {
        let mut entries = Vec::new();
        for (bean, key, st) in ctx.iter() {
            if let Some(kind) = Self::classify(bean, key, st) {
                entries.push(CommitEntry {
                    bean: Arc::clone(bean),
                    key: key.clone(),
                    kind,
                });
            }
        }
        CommitRequest {
            origin,
            txn_id,
            entries,
        }
    }

    fn classify(bean: &str, key: &Value, st: &InstanceState) -> Option<EntryKind> {
        if st.created {
            if st.removed {
                return None;
            }
            return Some(EntryKind::Create {
                after: st.to_memento(bean, key),
            });
        }
        if st.removed {
            return st.before.clone().map(|before| EntryKind::Remove { before });
        }
        let before = st.before.clone()?;
        if st.dirty {
            Some(EntryKind::Update {
                before,
                after: st.to_memento(bean, key),
            })
        } else {
            Some(EntryKind::Read { before })
        }
    }

    /// Whether the transaction wrote anything.
    pub fn has_writes(&self) -> bool {
        self.entries.iter().any(|e| e.kind.is_write())
    }

    /// The (bean, key) pairs whose persistent images this commit changes —
    /// the invalidation set for peer edges — borrowed from the entries.
    pub fn written_keys(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.entries
            .iter()
            .filter(|e| e.kind.is_write())
            .map(|e| (&*e.bean, &e.key))
    }

    /// Encodes the request to a wire frame.
    pub fn encode(&self) -> Bytes {
        let mut w = Writer::new();
        self.encode_into(&mut w);
        w.finish()
    }

    /// Writes the request's encoding at the end of `w` — straight into the
    /// message that carries it.
    pub fn encode_into(&self, w: &mut Writer) {
        w.put_u32(self.origin);
        w.put_u64(self.txn_id);
        w.put_u32(self.entries.len() as u32);
        for e in &self.entries {
            w.put_str(&e.bean);
            e.key.encode(w);
            w.put_u8(e.kind.tag());
            match &e.kind {
                EntryKind::Read { before } | EntryKind::Remove { before } => before.encode(w),
                EntryKind::Update { before, after } => {
                    before.encode(w);
                    after.encode(w);
                }
                EntryKind::Create { after } => after.encode(w),
            }
        }
    }

    /// Decodes a request from a wire frame. Each entry's bean name and its
    /// images' names are those of the descriptor `registry` holds for the
    /// bean (an unknown bean's entry and images own theirs; see
    /// [`Memento::decode`]).
    ///
    /// # Errors
    /// Returns [`DecodeError`] on truncation or unknown tags.
    pub fn decode(r: &mut Reader, registry: &MetaRegistry) -> Result<CommitRequest, DecodeError> {
        let origin = r.get_u32()?;
        let txn_id = r.get_u64()?;
        let n = r.get_u32()? as usize;
        // A length prefix is not a budget: reserve for the entries the
        // remaining bytes can hold (each carries at least one image).
        let mut entries = Vec::with_capacity(n.min(r.remaining() / Memento::MIN_ENCODED_LEN));
        for _ in 0..n {
            let spelled = r.get_str_view()?;
            let names = registry.image_names(&spelled);
            let bean = names.map_or_else(|| Arc::from(&*spelled), |n| Arc::clone(n.bean()));
            let key = Value::decode(r)?;
            let kind = match r.get_u8()? {
                0 => EntryKind::Read {
                    before: Memento::decode(r, names)?,
                },
                1 => EntryKind::Update {
                    before: Memento::decode(r, names)?,
                    after: Memento::decode(r, names)?,
                },
                2 => EntryKind::Create {
                    after: Memento::decode(r, names)?,
                },
                3 => EntryKind::Remove {
                    before: Memento::decode(r, names)?,
                },
                _ => return Err(DecodeError::new("commit entry tag")),
            };
            entries.push(CommitEntry { bean, key, kind });
        }
        Ok(CommitRequest {
            origin,
            txn_id,
            entries,
        })
    }
}

/// Outcome of optimistic validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommitOutcome {
    /// Every before-image matched; after-images were applied atomically.
    Committed,
    /// Validation failed: the named bean's persistent state diverged from
    /// the transaction's before-image (or a created key exists / a removed
    /// bean vanished).
    Conflict {
        /// Conflicting bean type.
        bean: String,
        /// Conflicting key, stringified for transport.
        key: String,
    },
}

impl CommitOutcome {
    /// Encodes the outcome to a wire frame body.
    pub fn encode(&self, w: &mut Writer) {
        match self {
            CommitOutcome::Committed => {
                w.put_u8(0);
            }
            CommitOutcome::Conflict { bean, key } => {
                w.put_u8(1).put_str(bean).put_str(key);
            }
        }
    }

    /// Decodes an outcome.
    ///
    /// # Errors
    /// Returns [`DecodeError`] on truncation or unknown tags.
    pub fn decode(r: &mut Reader) -> Result<CommitOutcome, DecodeError> {
        match r.get_u8()? {
            0 => Ok(CommitOutcome::Committed),
            1 => Ok(CommitOutcome::Conflict {
                bean: r.get_str()?,
                key: r.get_str()?,
            }),
            _ => Err(DecodeError::new("commit outcome tag")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn img(bean: &str, key: i64, v: f64) -> Memento {
        Memento::new(bean, Value::from(key)).with_field("balance", v)
    }

    fn context_with_all_kinds() -> TxContext {
        let mut ctx = TxContext::new();
        // read-only bean
        ctx.enlist("A", &Value::from(1))
            .load_from(&img("A", 1, 10.0));
        // updated bean
        {
            let st = ctx.enlist("A", &Value::from(2));
            st.load_from(&img("A", 2, 20.0));
            st.set_field("A", &Value::from(2), "balance", Value::from(25.0));
        }
        // created bean
        {
            let st = ctx.enlist("A", &Value::from(3));
            st.created = true;
            st.loaded = true;
            st.exists = true;
            st.current = Some(img("A", 3, 30.0));
        }
        // removed bean
        {
            let st = ctx.enlist("A", &Value::from(4));
            st.load_from(&img("A", 4, 40.0));
            st.removed = true;
        }
        // created-then-removed: must vanish
        {
            let st = ctx.enlist("A", &Value::from(5));
            st.created = true;
            st.removed = true;
        }
        // enlisted but never loaded (finder touch only): dropped
        ctx.enlist("A", &Value::from(6)).exists = true;
        ctx
    }

    #[test]
    fn classification_covers_lifecycle() {
        let req = CommitRequest::from_context(7, 99, &context_with_all_kinds());
        assert_eq!(req.origin, 7);
        assert_eq!(req.txn_id, 99);
        assert_eq!(req.entries.len(), 4);
        assert!(matches!(req.entries[0].kind, EntryKind::Read { .. }));
        assert!(matches!(req.entries[1].kind, EntryKind::Update { .. }));
        assert!(matches!(req.entries[2].kind, EntryKind::Create { .. }));
        assert!(matches!(req.entries[3].kind, EntryKind::Remove { .. }));
        assert!(req.has_writes());
        let written: Vec<_> = req.written_keys().collect();
        assert_eq!(written.len(), 3);
        assert!(!written.contains(&("A", &Value::from(1))));
    }

    #[test]
    fn read_only_request_has_no_writes() {
        let mut ctx = TxContext::new();
        ctx.enlist("A", &Value::from(1))
            .load_from(&img("A", 1, 1.0));
        let req = CommitRequest::from_context(0, 1, &ctx);
        assert!(!req.has_writes());
        assert_eq!(req.written_keys().count(), 0);
    }

    #[test]
    fn wire_round_trip() {
        let req = CommitRequest::from_context(3, u64::MAX, &context_with_all_kinds());
        let frame = req.encode();
        let back = CommitRequest::decode(&mut Reader::new(frame), &MetaRegistry::new()).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn wire_bytes_are_pinned() {
        // Origin, txn id, entry count; per entry its bean, key, kind tag
        // and images — byte for byte what every earlier revision wrote.
        let expected = concat!(
            "00000002000000000000000900000002000000074163636f756e740400000005",
            "7569643a310100000032636f6d2e69626d2e7765627370686572652e73616d70",
            "6c65732e74726164652e656a622e4163636f756e744d656d656e746f05ca1ab1",
            "ec0ffee5000000074163636f756e7404000000057569643a3100000002000000",
            "0762616c616e636503408f400000000000000000066c6f67696e730200000000",
            "0000000300000032636f6d2e69626d2e7765627370686572652e73616d706c65",
            "732e74726164652e656a622e4163636f756e744d656d656e746f05ca1ab1ec0f",
            "fee5000000074163636f756e7404000000057569643a31000000020000000762",
            "616c616e636503408ef00000000000000000066c6f67696e7302000000000000",
            "000300000007486f6c64696e670200000000000000070200000032636f6d2e69",
            "626d2e7765627370686572652e73616d706c65732e74726164652e656a622e48",
            "6f6c64696e674d656d656e746f05ca1ab1ec0ffee500000007486f6c64696e67",
            "020000000000000007000000010000000371747900",
        );
        let before = Memento::new("Account", Value::from("uid:1"))
            .with_field("balance", 1000.0)
            .with_field("logins", 3);
        let after = before.clone().with_field("balance", 990.0);
        let lot = Memento::new("Holding", Value::from(7)).with_field("qty", Value::Null);
        let request = CommitRequest {
            origin: 2,
            txn_id: 9,
            entries: vec![
                CommitEntry {
                    bean: "Account".into(),
                    key: Value::from("uid:1"),
                    kind: EntryKind::Update { before, after },
                },
                CommitEntry {
                    bean: "Holding".into(),
                    key: Value::from(7),
                    kind: EntryKind::Create { after: lot },
                },
            ],
        };
        let hex: String = request
            .encode()
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(hex, expected);
    }

    #[test]
    fn hostile_entry_count_is_a_decode_error() {
        // Sixteen bytes announcing u32::MAX entries, alone and in front of
        // padding that is no entry: the reservation follows the bytes, not
        // the count.
        for padding in [0, 4096] {
            let mut w = Writer::new();
            w.put_u32(1).put_u64(9).put_u32(u32::MAX);
            w.put_bytes(&vec![0xAB; padding]);
            assert!(
                CommitRequest::decode(&mut Reader::new(w.finish()), &MetaRegistry::new()).is_err()
            );
        }
    }

    #[test]
    fn outcome_round_trip() {
        for outcome in [
            CommitOutcome::Committed,
            CommitOutcome::Conflict {
                bean: "A".into(),
                key: "1".into(),
            },
        ] {
            let mut w = Writer::new();
            outcome.encode(&mut w);
            let back = CommitOutcome::decode(&mut Reader::new(w.finish())).unwrap();
            assert_eq!(back, outcome);
        }
    }

    #[test]
    fn update_after_image_reflects_current_fields() {
        let req = CommitRequest::from_context(0, 1, &context_with_all_kinds());
        match &req.entries[1].kind {
            EntryKind::Update { before, after } => {
                assert_eq!(before.get("balance"), Some(&Value::from(20.0)));
                assert_eq!(after.get("balance"), Some(&Value::from(25.0)));
            }
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    fn truncated_decode_is_error() {
        let frame = CommitRequest::from_context(0, 1, &context_with_all_kinds()).encode();
        let cut = frame.slice(0..frame.len() / 2);
        assert!(CommitRequest::decode(&mut Reader::new(cut), &MetaRegistry::new()).is_err());
    }
}
