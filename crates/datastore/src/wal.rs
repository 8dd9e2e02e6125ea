//! Write-ahead/undo log and the types behind ARIES-lite crash recovery.
//!
//! The paper's persistent tier (DB2) survives process death; PR 1's
//! idempotent commit protocol has so far only been exercised against
//! message loss. This module adds the missing half: an in-simulation
//! durable log that a scripted crash cannot take down. Every writing
//! transaction appends redo/undo mementos (txn id, LSN, old and new row
//! images) and a commit record carrying the `commit_seq` witness plus the
//! caller's `(origin, txn_id)` dedup identity, flushed together at the
//! transaction boundary (group commit). After a crash,
//! [`Database::recover`](crate::Database::recover) runs
//! analysis/redo/undo over the flushed prefix and hands back a
//! [`RecoveryReport`] the committers use to reseed their dedup tables.
//!
//! The "disk" is a `Vec<Bytes>` of encoded records: durable in the
//! simulation's sense (it survives [`Database::crash`](crate::Database::crash),
//! which wipes only volatile state), while unflushed `pending` records die
//! with the process — exactly the distinction recovery semantics hinge on.

use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

use bytes::Bytes;
use sli_simnet::wire::{DecodeError, Reader, Writer};
use sli_telemetry::{Counter, Registry};

use crate::error::DbError;
use crate::value::Value;
use crate::DbResult;

/// Where a scripted crash fires inside the commit protocol (see
/// DESIGN.md §18). Each point models one step of the group-commit
/// sequence dying; all four surface to the caller as
/// [`DbError::Unavailable`], so the PR 1 retry path is exercised whether
/// or not the commit made it to the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CrashPoint {
    /// Before anything reaches the log: the transaction evaporates.
    PreFlush,
    /// After the op records are flushed but before the commit record — a
    /// torn group commit. Recovery redoes the ops (repeating history)
    /// and then undoes them as a loser.
    MidApply,
    /// After the commit record is flushed but before in-memory
    /// completion: durable yet unacknowledged, so the client retries and
    /// the reseeded dedup table replays the outcome.
    PostFlushPreApply,
    /// Fully applied and durable; only the acknowledgement is lost.
    PostApplyPreAck,
}

impl CrashPoint {
    /// Stable label for diagnostics and artifacts.
    pub fn label(self) -> &'static str {
        match self {
            CrashPoint::PreFlush => "pre-flush",
            CrashPoint::MidApply => "mid-apply",
            CrashPoint::PostFlushPreApply => "post-flush-pre-apply",
            CrashPoint::PostApplyPreAck => "post-apply-pre-ack",
        }
    }
}

/// Every commit-protocol step a crash can be scripted at, in protocol
/// order — the crash-point matrix in `tests/failure.rs` walks this.
pub const CRASH_POINTS: [CrashPoint; 4] = [
    CrashPoint::PreFlush,
    CrashPoint::MidApply,
    CrashPoint::PostFlushPreApply,
    CrashPoint::PostApplyPreAck,
];

/// One logged operation: enough to redo (new image) and undo (old image)
/// the physical change. `table` is the table's shared name; on the log it
/// is the same length-prefixed string as ever.
#[derive(Debug, Clone)]
pub(crate) enum WalOp {
    Insert {
        table: Arc<str>,
        row: Vec<Value>,
    },
    Update {
        table: Arc<str>,
        pk: Value,
        old: Vec<Value>,
        new: Vec<Value>,
    },
    Delete {
        table: Arc<str>,
        old: Vec<Value>,
    },
}

/// A decoded log record: LSN plus body.
#[derive(Debug)]
pub(crate) struct WalRecord {
    pub(crate) lsn: u64,
    pub(crate) body: WalBody,
}

#[derive(Debug)]
pub(crate) enum WalBody {
    /// A physical operation belonging to transaction `txn`.
    Op { txn: u64, op: WalOp },
    /// Transaction `txn` committed at `commit_seq`, optionally on behalf
    /// of the application-level identity `stamp = (origin, txn_id)`.
    Commit {
        txn: u64,
        commit_seq: u64,
        stamp: Option<(u32, u64)>,
    },
}

const REC_INSERT: u8 = 1;
const REC_UPDATE: u8 = 2;
const REC_DELETE: u8 = 3;
const REC_COMMIT: u8 = 4;

/// The number of bytes [`put_row`] writes.
fn row_len(row: &[Value]) -> usize {
    4 + row.iter().map(Value::encoded_len).sum::<usize>()
}

fn put_row(w: &mut Writer, row: &[Value]) {
    w.put_u32(row.len() as u32);
    for v in row {
        v.encode(w);
    }
}

fn get_row(r: &mut Reader) -> Result<Vec<Value>, DecodeError> {
    let n = r.get_u32()? as usize;
    // A value is at least its tag byte; the count is not a budget.
    let mut row = Vec::with_capacity(n.min(r.remaining()));
    for _ in 0..n {
        row.push(Value::decode(r)?);
    }
    Ok(row)
}

/// Kind, LSN and transaction id: what every record starts with.
const REC_HEAD_LEN: usize = 1 + 8 + 8;

/// The number of bytes [`encode_op`] writes for `op`.
fn op_len(op: &WalOp) -> usize {
    let (table, images) = match op {
        WalOp::Insert { table, row } => (table, row_len(row)),
        WalOp::Update {
            table,
            pk,
            old,
            new,
        } => (table, pk.encoded_len() + row_len(old) + row_len(new)),
        WalOp::Delete { table, old } => (table, row_len(old)),
    };
    REC_HEAD_LEN + 4 + table.len() + images
}

/// The number of bytes [`encode_commit`] writes: 26, or 38 with a stamp.
fn commit_len(stamp: Option<(u32, u64)>) -> usize {
    REC_HEAD_LEN + 8 + 1 + stamp.map_or(0, |_| 4 + 8)
}

fn encode_op(lsn: u64, txn: u64, op: &WalOp) -> Bytes {
    let mut w = Writer::with_capacity(op_len(op));
    match op {
        WalOp::Insert { table, row } => {
            w.put_u8(REC_INSERT)
                .put_u64(lsn)
                .put_u64(txn)
                .put_str(table);
            put_row(&mut w, row);
        }
        WalOp::Update {
            table,
            pk,
            old,
            new,
        } => {
            w.put_u8(REC_UPDATE)
                .put_u64(lsn)
                .put_u64(txn)
                .put_str(table);
            pk.encode(&mut w);
            put_row(&mut w, old);
            put_row(&mut w, new);
        }
        WalOp::Delete { table, old } => {
            w.put_u8(REC_DELETE)
                .put_u64(lsn)
                .put_u64(txn)
                .put_str(table);
            put_row(&mut w, old);
        }
    }
    w.finish()
}

fn encode_commit(lsn: u64, txn: u64, commit_seq: u64, stamp: Option<(u32, u64)>) -> Bytes {
    let mut w = Writer::with_capacity(commit_len(stamp));
    w.put_u8(REC_COMMIT)
        .put_u64(lsn)
        .put_u64(txn)
        .put_u64(commit_seq);
    match stamp {
        Some((origin, txn_id)) => {
            w.put_bool(true).put_u32(origin).put_u64(txn_id);
        }
        None => {
            w.put_bool(false);
        }
    }
    w.finish()
}

fn decode_record(frame: &Bytes) -> Result<WalRecord, DecodeError> {
    let mut r = Reader::new(frame.clone());
    let kind = r.get_u8()?;
    let lsn = r.get_u64()?;
    let txn = r.get_u64()?;
    let body = match kind {
        REC_INSERT => WalBody::Op {
            txn,
            op: WalOp::Insert {
                table: r.get_shared_str()?,
                row: get_row(&mut r)?,
            },
        },
        REC_UPDATE => {
            let table = r.get_shared_str()?;
            let pk = Value::decode(&mut r)?;
            let old = get_row(&mut r)?;
            let new = get_row(&mut r)?;
            WalBody::Op {
                txn,
                op: WalOp::Update {
                    table,
                    pk,
                    old,
                    new,
                },
            }
        }
        REC_DELETE => WalBody::Op {
            txn,
            op: WalOp::Delete {
                table: r.get_shared_str()?,
                old: get_row(&mut r)?,
            },
        },
        REC_COMMIT => {
            let commit_seq = r.get_u64()?;
            let stamp = if r.get_bool()? {
                Some((r.get_u32()?, r.get_u64()?))
            } else {
                None
            };
            WalBody::Commit {
                txn,
                commit_seq,
                stamp,
            }
        }
        _ => return Err(DecodeError::new("wal record kind")),
    };
    Ok(WalRecord { lsn, body })
}

/// The simulated durable log device.
///
/// `flushed` frames survive a crash; `pending` frames are the in-memory
/// tail that a crash discards. `base` is the checkpoint the log is
/// relative to, captured when the WAL is attached.
#[derive(Debug)]
pub(crate) struct WalDisk {
    pub(crate) base: Bytes,
    pub(crate) base_commit_seq: u64,
    pub(crate) base_next_txn: u64,
    /// Committed `(origin, txn_id)` stamps already folded into `base`, in
    /// commit order. A rebase truncates the log, but the dedup identities
    /// it held must keep flowing into every later `RecoveryReport` — the
    /// committers *replace* their dedup tables from it, and forgetting a
    /// stamp would turn a very late retry into a double apply.
    pub(crate) base_stamps: Vec<(u32, u64)>,
    pending: Vec<Bytes>,
    flushed: Vec<Bytes>,
    next_lsn: u64,
    /// Inject-bug switch: when set, `flush` silently discards the pending
    /// tail while reporting success — an acked-but-not-durable commit the
    /// slicheck crash sweep must catch as a lost committed write.
    drop_flush: bool,
}

impl WalDisk {
    pub(crate) fn new(base: Bytes, base_commit_seq: u64, base_next_txn: u64) -> WalDisk {
        WalDisk {
            base,
            base_commit_seq,
            base_next_txn,
            base_stamps: Vec::new(),
            pending: Vec::new(),
            flushed: Vec::new(),
            next_lsn: 0,
            drop_flush: false,
        }
    }

    /// Re-bases the log on a fresh checkpoint: `base` becomes the image
    /// the (now empty) log is relative to and the durable records are
    /// truncated. ARIES would write compensation records during undo;
    /// truncating to a post-recovery checkpoint is the equivalent for an
    /// in-simulation log, and is what stops a torn transaction's op
    /// records from being re-undone — on top of later committed state —
    /// by the *next* crash's recovery. LSNs stay monotonic across
    /// rebases so record order is globally unambiguous.
    pub(crate) fn rebase(
        &mut self,
        base: Bytes,
        base_commit_seq: u64,
        base_next_txn: u64,
        base_stamps: Vec<(u32, u64)>,
    ) {
        self.base = base;
        self.base_commit_seq = base_commit_seq;
        self.base_next_txn = base_next_txn;
        self.base_stamps = base_stamps;
        self.pending.clear();
        self.flushed.clear();
    }

    pub(crate) fn set_drop_flush(&mut self, on: bool) {
        self.drop_flush = on;
    }

    fn append(&mut self, frame: Bytes, metrics: &WalMetrics) {
        self.pending.push(frame);
        metrics.appends.inc();
    }

    pub(crate) fn append_op(&mut self, txn: u64, op: &WalOp, metrics: &WalMetrics) {
        let lsn = self.next_lsn;
        self.next_lsn += 1;
        self.append(encode_op(lsn, txn, op), metrics);
    }

    pub(crate) fn append_commit(
        &mut self,
        txn: u64,
        commit_seq: u64,
        stamp: Option<(u32, u64)>,
        metrics: &WalMetrics,
    ) {
        let lsn = self.next_lsn;
        self.next_lsn += 1;
        self.append(encode_commit(lsn, txn, commit_seq, stamp), metrics);
    }

    /// Makes the pending tail durable (or, under the injected bug, lies
    /// about it).
    pub(crate) fn flush(&mut self, metrics: &WalMetrics) {
        metrics.flushes.inc();
        if self.drop_flush {
            metrics.dropped_flushes.add(self.pending.len() as u64);
            self.pending.clear();
            return;
        }
        for frame in self.pending.drain(..) {
            metrics.flushed_records.inc();
            metrics.flushed_bytes.add(frame.len() as u64);
            self.flushed.push(frame);
        }
    }

    /// Drops the un-flushed tail — what a crash does to volatile buffers.
    pub(crate) fn discard_pending(&mut self) {
        self.pending.clear();
    }

    /// The analysis pass: decodes the durable prefix in LSN order and
    /// finds the winners — transactions whose commit record reached it.
    pub(crate) fn analyze(&self) -> DbResult<LogAnalysis> {
        let records: Vec<WalRecord> = self
            .flushed
            .iter()
            .map(|f| {
                decode_record(f).map_err(|e| DbError::Remote(format!("corrupt wal record: {e}")))
            })
            .collect::<DbResult<_>>()?;
        let mut by_seq: BTreeMap<u64, Option<(u32, u64)>> = BTreeMap::new();
        let mut winners = HashSet::new();
        let mut max_lsn = 0;
        let mut max_txn = 0;
        for rec in &records {
            max_lsn = max_lsn.max(rec.lsn);
            match &rec.body {
                WalBody::Commit {
                    txn,
                    commit_seq,
                    stamp,
                } => {
                    by_seq.insert(*commit_seq, *stamp);
                    winners.insert(*txn);
                    max_txn = max_txn.max(*txn);
                }
                WalBody::Op { txn, .. } => max_txn = max_txn.max(*txn),
            }
        }
        let commit_seq = by_seq
            .keys()
            .next_back()
            .map_or(self.base_commit_seq, |seq| (*seq).max(self.base_commit_seq));
        let mut stamps = self.base_stamps.clone();
        stamps.extend(by_seq.into_values().flatten());
        Ok(LogAnalysis {
            records,
            winners,
            stamps,
            commit_seq,
            max_lsn,
            max_txn,
        })
    }
}

/// What [`WalDisk::analyze`] learned from the durable log.
#[derive(Debug)]
pub(crate) struct LogAnalysis {
    /// The durable records, in LSN order.
    pub(crate) records: Vec<WalRecord>,
    /// Datastore transaction ids whose commit record is durable.
    pub(crate) winners: HashSet<u64>,
    /// Every committed `(origin, txn_id)` identity: the stamps already
    /// folded into the base, then this log's, in `commit_seq` order.
    pub(crate) stamps: Vec<(u32, u64)>,
    /// The `commit_seq` witness after the last durable commit.
    pub(crate) commit_seq: u64,
    /// Highest LSN in the log (0 when it is empty).
    pub(crate) max_lsn: u64,
    /// Highest datastore transaction id the log mentions.
    pub(crate) max_txn: u64,
}

/// Counters for the log device and the restart path, attached to the
/// telemetry registry as `{prefix}.wal.*` / `{prefix}.recovery.*`.
#[derive(Debug)]
pub(crate) struct WalMetrics {
    pub(crate) appends: Counter,
    pub(crate) flushes: Counter,
    pub(crate) flushed_records: Counter,
    pub(crate) flushed_bytes: Counter,
    pub(crate) dropped_flushes: Counter,
    pub(crate) recoveries: Counter,
    pub(crate) redone: Counter,
    pub(crate) undone: Counter,
    pub(crate) torn_discarded: Counter,
}

impl WalMetrics {
    pub(crate) fn new() -> WalMetrics {
        WalMetrics {
            appends: Counter::new(),
            flushes: Counter::new(),
            flushed_records: Counter::new(),
            flushed_bytes: Counter::new(),
            dropped_flushes: Counter::new(),
            recoveries: Counter::new(),
            redone: Counter::new(),
            undone: Counter::new(),
            torn_discarded: Counter::new(),
        }
    }

    pub(crate) fn register_with(&self, registry: &Registry, prefix: &str) {
        registry.attach_counter(format!("{prefix}.wal.appends"), &self.appends);
        registry.attach_counter(format!("{prefix}.wal.flushes"), &self.flushes);
        registry.attach_counter(
            format!("{prefix}.wal.flushed_records"),
            &self.flushed_records,
        );
        registry.attach_counter(format!("{prefix}.wal.flushed_bytes"), &self.flushed_bytes);
        registry.attach_counter(
            format!("{prefix}.wal.dropped_flushes"),
            &self.dropped_flushes,
        );
        registry.attach_counter(format!("{prefix}.recovery.recoveries"), &self.recoveries);
        registry.attach_counter(format!("{prefix}.recovery.redone_ops"), &self.redone);
        registry.attach_counter(format!("{prefix}.recovery.undone_ops"), &self.undone);
        registry.attach_counter(format!("{prefix}.recovery.torn_txns"), &self.torn_discarded);
    }

    pub(crate) fn stats(&self) -> WalStats {
        WalStats {
            appends: self.appends.get(),
            flushes: self.flushes.get(),
            flushed_records: self.flushed_records.get(),
            flushed_bytes: self.flushed_bytes.get(),
            dropped_flushes: self.dropped_flushes.get(),
            recoveries: self.recoveries.get(),
            redone_ops: self.redone.get(),
            undone_ops: self.undone.get(),
            torn_txns: self.torn_discarded.get(),
        }
    }
}

/// Snapshot of the `wal.*` / `recovery.*` counters — `PartialEq` so the
/// seeded-determinism pin can assert two replays agree bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WalStats {
    /// Records appended to the pending tail.
    pub appends: u64,
    /// Group-commit flush calls.
    pub flushes: u64,
    /// Records made durable.
    pub flushed_records: u64,
    /// Bytes made durable.
    pub flushed_bytes: u64,
    /// Records silently discarded by the injected drop-flush bug.
    pub dropped_flushes: u64,
    /// Completed restart passes.
    pub recoveries: u64,
    /// Operations replayed during redo (repeating history).
    pub redone_ops: u64,
    /// Loser operations reversed during undo.
    pub undone_ops: u64,
    /// Distinct torn (uncommitted-but-logged) transactions discarded.
    pub torn_txns: u64,
}

/// What [`Database::recover`](crate::Database::recover) reconstructed,
/// handed to the committers so they can reseed their `(origin, txn_id)`
/// dedup tables to the same prefix-consistent point as the data.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// `(origin, txn_id)` identities of committed (winner) transactions,
    /// in commit order.
    pub committed: Vec<(u32, u64)>,
    /// Operations replayed during the redo pass.
    pub redo_count: u64,
    /// Loser operations reversed during the undo pass.
    pub undo_count: u64,
    /// Distinct torn transactions rolled back.
    pub torn_txns: u64,
    /// Highest LSN seen in the durable log (0 when the log is empty).
    pub max_lsn: u64,
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn a_record_is_sized_exactly_before_it_is_written() {
        let table: Arc<str> = Arc::from("holding");
        let row = |qty: f64| vec![Value::from(7), Value::from("uid:3"), Value::from(qty)];
        let ops = [
            WalOp::Insert {
                table: Arc::clone(&table),
                row: row(1.0),
            },
            WalOp::Update {
                table: Arc::clone(&table),
                pk: Value::from(7),
                old: row(1.0),
                new: vec![Value::Null, Value::from(""), Value::from(true)],
            },
            WalOp::Delete {
                table,
                old: Vec::new(),
            },
        ];
        for op in &ops {
            assert_eq!(encode_op(3, 9, op).len(), op_len(op), "{op:?}");
        }
        assert_eq!(encode_commit(4, 9, 1, None).len(), commit_len(None));
        assert_eq!(commit_len(None), 26);
        let stamp = Some((2, 11));
        assert_eq!(encode_commit(4, 9, 1, stamp).len(), commit_len(stamp));
        assert_eq!(commit_len(stamp), 38);
    }

    /// A record whose row announces `u32::MAX` values is an error, not a
    /// reservation of a hundred gigabytes.
    #[test]
    fn a_hostile_row_count_is_an_error_not_an_allocation() {
        let mut w = Writer::new();
        w.put_u8(REC_INSERT)
            .put_u64(1)
            .put_u64(1)
            .put_str("holding");
        w.put_u32(u32::MAX).put_raw(&[0xAB; 64]);
        assert!(decode_record(&w.finish()).is_err());
    }

    /// A seeded search of hostile bytes for `decode`, which answers whether
    /// it accepted them: each valid frame must decode and no prefix of it
    /// may; then every byte of each is flipped once, and noise goes in. A
    /// panic fails with the input spelled out. Returns how many flipped
    /// frames decoded.
    pub(crate) fn search_decoder(
        seed: u64,
        valid: &[Bytes],
        decode: impl Fn(Bytes) -> bool,
    ) -> usize {
        let mut n = 0;
        let mut draw = |bound: u64| {
            n += 1;
            sli_simnet::splitmix(seed, n) % bound
        };
        let run = |raw: &[u8]| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                decode(Bytes::copy_from_slice(raw))
            }))
            .unwrap_or_else(|_| panic!("the decoder panicked on b\"{}\"", raw.escape_ascii()))
        };
        let mut accepted = 0;
        for frame in valid {
            assert!(run(frame), "b\"{}\" decodes", frame.escape_ascii());
            for len in 0..frame.len() {
                let cut = &frame[..len];
                assert!(!run(cut), "a prefix decoded: b\"{}\"", cut.escape_ascii());
            }
            for at in 0..frame.len() {
                let mut flipped = frame.to_vec();
                flipped[at] ^= 1 + draw(255) as u8;
                accepted += usize::from(run(&flipped));
            }
        }
        for _ in 0..3_000 {
            let noise: Vec<u8> = (0..draw(200)).map(|_| draw(256) as u8).collect();
            run(&noise);
        }
        accepted
    }

    #[test]
    fn the_record_decoder_never_panics() {
        let table: Arc<str> = Arc::from("holding");
        let row = vec![
            Value::from(7),
            Value::from("uid:3"),
            Value::from(2.5),
            Value::Null,
        ];
        let ops = [
            WalOp::Insert {
                table: Arc::clone(&table),
                row: row.clone(),
            },
            WalOp::Update {
                table: Arc::clone(&table),
                pk: Value::from(7),
                old: row.clone(),
                new: vec![Value::from(true), Value::from("")],
            },
            WalOp::Delete { table, old: row },
        ];
        let mut valid: Vec<Bytes> = ops.iter().map(|op| encode_op(3, 9, op)).collect();
        valid.push(encode_commit(4, 9, 1, None));
        valid.push(encode_commit(4, 9, 1, Some((2, 11))));
        let accepted = search_decoder(0x0a1_5eed, &valid, |raw| decode_record(&raw).is_ok());
        assert!(accepted > 100, "only {accepted} flipped records decoded");
    }
}
