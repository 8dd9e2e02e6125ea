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
//! [`Database::recover`](crate::Database::recover) reads the flushed
//! prefix once, redoing each op as it meets it and undoing the ops no
//! commit record closed, and hands back a [`RecoveryReport`] the
//! committers use to reseed their dedup tables.
//!
//! The "disk" is the encoded records back to back in segments: durable in
//! the simulation's sense (it survives [`Database::crash`](crate::Database::crash),
//! which wipes only volatile state), while the unflushed tail dies with
//! the process — exactly the distinction recovery semantics hinge on.

use std::collections::BTreeMap;
use std::sync::Arc;

use bytes::{Bytes, BytesMut};
use sli_simnet::wire::{DecodeError, Reader, StrTable, Writer, MAX_KEPT_CAPACITY};
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
#[derive(Debug)]
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

/// What redo needs of a logged op: the image it leaves in its table (an
/// insert's row, an update's new image) or the one it takes out (a
/// delete's old image).
#[derive(Debug)]
pub(crate) enum Redo {
    Put { table: Arc<str>, row: Vec<Value> },
    Remove { table: Arc<str>, old: Vec<Value> },
}

const REC_INSERT: u8 = 1;
const REC_UPDATE: u8 = 2;
const REC_DELETE: u8 = 3;
const REC_COMMIT: u8 = 4;

/// Room a log segment is allocated with. Records lie back to back in a
/// segment and never straddle two; one longer than this has an exact-size
/// segment of its own. The benchmark's peak live heap at 16 / 64 / 256
/// KiB read 4 182 / 4 178 / 4 369 KiB on `crash_recover` and 2 087 /
/// 2 117 / 2 308 KiB on `jdbc_mix` (`--seconds 0`, one run each): 64 KiB
/// is within 1.5 % of the least on both with a quarter of 16 KiB's
/// segments.
pub(crate) const SEGMENT_BYTES: usize = 64 * 1024;

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

/// Checks and skips a row image nobody reads: what [`get_row`] accepts.
fn skip_row(r: &mut Reader) -> Result<(), DecodeError> {
    for _ in 0..r.get_u32()? {
        Value::skip(r)?;
    }
    Ok(())
}

fn encode_op(w: &mut Writer, lsn: u64, txn: u64, op: &WalOp) {
    match op {
        WalOp::Insert { table, row } => {
            w.put_u8(REC_INSERT)
                .put_u64(lsn)
                .put_u64(txn)
                .put_str(table);
            put_row(w, row);
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
            pk.encode(w);
            put_row(w, old);
            put_row(w, new);
        }
        WalOp::Delete { table, old } => {
            w.put_u8(REC_DELETE)
                .put_u64(lsn)
                .put_u64(txn)
                .put_str(table);
            put_row(w, old);
        }
    }
}

/// Writes a commit record: 26 bytes, or 38 with a stamp.
fn encode_commit(w: &mut Writer, lsn: u64, txn: u64, commit_seq: u64, stamp: Option<(u32, u64)>) {
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
}

fn corrupt(e: DecodeError) -> DbError {
    DbError::Remote(format!("corrupt wal record: {e}"))
}

/// Reads a record's head: its kind, LSN and transaction.
fn read_head(r: &mut Reader) -> Result<(u8, u64, u64), DecodeError> {
    Ok((r.get_u8()?, r.get_u64()?, r.get_u64()?))
}

/// Reads a commit record's body: its `commit_seq` and stamp.
fn read_commit(r: &mut Reader) -> Result<(u64, Option<(u32, u64)>), DecodeError> {
    let commit_seq = r.get_u64()?;
    let stamp = if r.get_bool()? {
        Some((r.get_u32()?, r.get_u64()?))
    } else {
        None
    };
    Ok((commit_seq, stamp))
}

/// An op record met by [`WalDisk::replay`], read up to its body. The
/// visitor reads the body with exactly one of [`OpRecord::redo`],
/// [`OpRecord::skip`] or [`OpRecord::whole`]: the next record starts where
/// the body ends.
pub(crate) struct OpRecord<'r> {
    kind: u8,
    r: &'r mut Reader,
}

impl OpRecord<'_> {
    fn read<T>(self, body: impl FnOnce(u8, &mut Reader) -> Result<T, DecodeError>) -> DbResult<T> {
        body(self.kind, self.r).map_err(corrupt)
    }

    /// The body as far as redo needs it: the table, then an insert's row,
    /// an update's new image (its key and old image checked and skipped)
    /// or a delete's old image.
    pub(crate) fn redo(self) -> DbResult<Redo> {
        self.read(|kind, r| {
            let table = r.get_shared_str()?;
            if kind == REC_UPDATE {
                Value::skip(r)?;
                skip_row(r)?;
            }
            let row = get_row(r)?;
            Ok(match kind {
                REC_DELETE => Redo::Remove { table, old: row },
                _ => Redo::Put { table, row },
            })
        })
    }

    /// Checks and skips the body.
    pub(crate) fn skip(self) -> DbResult<()> {
        self.read(|kind, r| {
            r.skip_str()?;
            if kind == REC_UPDATE {
                Value::skip(r)?;
                skip_row(r)?;
            }
            skip_row(r)
        })
    }

    /// The whole op: what undo needs.
    pub(crate) fn whole(self) -> DbResult<WalOp> {
        self.read(|kind, r| {
            let table = r.get_shared_str()?;
            Ok(match kind {
                REC_INSERT => WalOp::Insert {
                    table,
                    row: get_row(r)?,
                },
                REC_UPDATE => WalOp::Update {
                    table,
                    pk: Value::decode(r)?,
                    old: get_row(r)?,
                    new: get_row(r)?,
                },
                _ => WalOp::Delete {
                    table,
                    old: get_row(r)?,
                },
            })
        })
    }
}

/// Where a record lies on the log: its segment and its bytes there.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RecordAt {
    segment: usize,
    start: usize,
    end: usize,
}

/// What [`WalDisk::replay`] learned from the durable log besides the ops
/// it handed on.
#[derive(Debug)]
pub(crate) struct Replay {
    /// Every committed `(origin, txn_id)` identity: the stamps already
    /// folded into the base, then this log's, in `commit_seq` order.
    pub(crate) stamps: Vec<(u32, u64)>,
    /// The `commit_seq` witness after the last durable commit.
    pub(crate) commit_seq: u64,
    /// Highest LSN in the log (0 when it is empty).
    pub(crate) max_lsn: u64,
    /// Highest datastore transaction id the log mentions.
    pub(crate) max_txn: u64,
    /// Op records handed on.
    pub(crate) ops: u64,
    /// The op records no commit record closed — the torn transactions' —
    /// with their transaction, in LSN order.
    pub(crate) open: Vec<(u64, RecordAt)>,
}

/// The simulated durable log device.
///
/// The log is records back to back in LSN order, in segments of
/// [`SEGMENT_BYTES`] each allocated once; a record never straddles two.
/// The bytes up to `durable` survive a crash; past it lies the pending
/// tail, which a crash discards. `base` is the checkpoint the log is
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
    segments: Vec<Vec<u8>>,
    /// Where the durable prefix ends: how many segments hold durable
    /// bytes, and how many of the last of them are durable.
    durable: (usize, usize),
    /// Records and bytes in the pending tail.
    pending: (u64, u64),
    next_lsn: u64,
    /// The buffer a record is encoded in before it is copied onto the
    /// tail, kept from one record to the next.
    scratch: BytesMut,
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
            segments: Vec::new(),
            durable: (0, 0),
            pending: (0, 0),
            next_lsn: 0,
            scratch: BytesMut::new(),
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
        self.segments.clear();
        self.durable = (0, 0);
        self.pending = (0, 0);
    }

    pub(crate) fn set_drop_flush(&mut self, on: bool) {
        self.drop_flush = on;
    }

    /// Appends the record `encode` writes under the next LSN: written in
    /// the kept scratch buffer, copied onto the tail segment — or onto a
    /// new one where the tail has no room for it.
    fn append(&mut self, metrics: &WalMetrics, encode: impl FnOnce(&mut Writer, u64)) {
        let mut w = Writer::new_in(std::mem::take(&mut self.scratch));
        encode(&mut w, self.next_lsn);
        self.next_lsn += 1;
        let record = w.into_buf();
        match self.segments.last_mut() {
            Some(tail) if tail.capacity() - tail.len() >= record.len() => {
                tail.extend_from_slice(&record);
            }
            _ => {
                let mut segment = Vec::with_capacity(record.len().max(SEGMENT_BYTES));
                segment.extend_from_slice(&record);
                self.segments.push(segment);
            }
        }
        self.pending.0 += 1;
        self.pending.1 += record.len() as u64;
        if record.capacity() <= MAX_KEPT_CAPACITY {
            self.scratch = record;
        }
        metrics.appends.inc();
    }

    pub(crate) fn append_op(&mut self, txn: u64, op: &WalOp, metrics: &WalMetrics) {
        self.append(metrics, |w, lsn| encode_op(w, lsn, txn, op));
    }

    pub(crate) fn append_commit(
        &mut self,
        txn: u64,
        commit_seq: u64,
        stamp: Option<(u32, u64)>,
        metrics: &WalMetrics,
    ) {
        self.append(metrics, |w, lsn| {
            encode_commit(w, lsn, txn, commit_seq, stamp)
        });
    }

    /// Makes the pending tail durable (or, under the injected bug, lies
    /// about it).
    pub(crate) fn flush(&mut self, metrics: &WalMetrics) {
        metrics.flushes.inc();
        if self.drop_flush {
            metrics.dropped_flushes.add(self.pending.0);
            self.discard_pending();
            return;
        }
        metrics.flushed_records.add(self.pending.0);
        metrics.flushed_bytes.add(self.pending.1);
        self.pending = (0, 0);
        self.durable = (
            self.segments.len(),
            self.segments.last().map_or(0, Vec::len),
        );
    }

    /// Drops the un-flushed tail — what a crash does to volatile buffers.
    pub(crate) fn discard_pending(&mut self) {
        let (segments, tail) = self.durable;
        self.segments.truncate(segments);
        if let Some(last) = self.segments.last_mut() {
            last.truncate(tail);
        }
        self.pending = (0, 0);
    }

    /// The durable bytes, segment by segment.
    fn durable_segments(&self) -> impl Iterator<Item = &[u8]> {
        let (segments, tail) = self.durable;
        self.segments[..segments]
            .iter()
            .enumerate()
            .map(move |(i, s)| {
                if i + 1 == segments {
                    &s[..tail]
                } else {
                    &s[..]
                }
            })
    }

    /// Reads the durable log once, in LSN order, sharing its strings
    /// through one table for the pass: each op record goes to `visit`,
    /// and each commit record closes its transaction's ops.
    ///
    /// # Errors
    /// A record that does not decode, or whatever `visit` returns.
    pub(crate) fn replay(
        &self,
        mut visit: impl FnMut(OpRecord<'_>) -> DbResult<()>,
    ) -> DbResult<Replay> {
        let strings = StrTable::shared();
        let mut by_seq: BTreeMap<u64, Option<(u32, u64)>> = BTreeMap::new();
        let mut open: Vec<(u64, RecordAt)> = Vec::new();
        let (mut max_lsn, mut max_txn, mut ops) = (0, 0, 0);
        for (segment, bytes) in self.durable_segments().enumerate() {
            // A reader reads a `Bytes`: one copy per segment, none per record.
            let mut r = Reader::sharing(Bytes::copy_from_slice(bytes), &strings);
            while !r.is_empty() {
                let start = bytes.len() - r.remaining();
                let (kind, lsn, txn) = read_head(&mut r).map_err(corrupt)?;
                max_lsn = max_lsn.max(lsn);
                max_txn = max_txn.max(txn);
                match kind {
                    REC_INSERT | REC_UPDATE | REC_DELETE => {
                        visit(OpRecord { kind, r: &mut r })?;
                        let end = bytes.len() - r.remaining();
                        open.push((
                            txn,
                            RecordAt {
                                segment,
                                start,
                                end,
                            },
                        ));
                        ops += 1;
                    }
                    REC_COMMIT => {
                        let (commit_seq, stamp) = read_commit(&mut r).map_err(corrupt)?;
                        by_seq.insert(commit_seq, stamp);
                        // A transaction's ops are the newest open ones,
                        // unless another's interleave with them.
                        while open.last().is_some_and(|(t, _)| *t == txn) {
                            open.pop();
                        }
                        if !open.is_empty() {
                            open.retain(|(t, _)| *t != txn);
                        }
                    }
                    _ => return Err(corrupt(DecodeError::new("wal record kind"))),
                }
            }
        }
        let commit_seq = by_seq
            .keys()
            .next_back()
            .map_or(self.base_commit_seq, |seq| (*seq).max(self.base_commit_seq));
        let mut stamps = self.base_stamps.clone();
        stamps.extend(by_seq.into_values().flatten());
        Ok(Replay {
            stamps,
            commit_seq,
            max_lsn,
            max_txn,
            ops,
            open,
        })
    }

    /// The whole op recorded `at`, decoded again.
    pub(crate) fn op_at(&self, at: RecordAt) -> DbResult<WalOp> {
        let bytes = &self.segments[at.segment][at.start..at.end];
        let mut r = Reader::new(Bytes::copy_from_slice(bytes));
        let (kind, _, _) = read_head(&mut r).map_err(corrupt)?;
        OpRecord { kind, r: &mut r }.whole()
    }
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

    /// The bytes `encode` writes, as one record.
    fn record(encode: impl FnOnce(&mut Writer)) -> Bytes {
        let mut w = Writer::new();
        encode(&mut w);
        w.finish()
    }

    /// Each segment's durable bytes.
    fn durable_bytes(disk: &WalDisk) -> Vec<Vec<u8>> {
        disk.durable_segments().map(<[u8]>::to_vec).collect()
    }

    /// A log whose one durable segment is `raw`.
    fn holding(raw: &[u8]) -> WalDisk {
        let mut disk = WalDisk::new(Bytes::new(), 0, 0);
        disk.segments.push(raw.to_vec());
        disk.durable = (1, raw.len());
        disk
    }

    /// The durable log read by the stream reader, each op decoded whole:
    /// the ops as `Debug` text, and what the pass learned.
    fn replayed(disk: &WalDisk) -> DbResult<(Vec<String>, Replay)> {
        let mut ops = Vec::new();
        let replay = disk.replay(|op| {
            ops.push(format!("{:?}", op.whole()?));
            Ok(())
        })?;
        Ok((ops, replay))
    }

    /// An update of `holding` row 7 whose images carry `text`.
    fn update(text: &str) -> WalOp {
        let row = |text: &str| vec![Value::from(7), Value::from(text), Value::from(1.0)];
        WalOp::Update {
            table: Arc::from("holding"),
            pk: Value::from(7),
            old: row(text),
            new: row(&text.to_uppercase()),
        }
    }

    /// Records appended one after another through the log's one scratch
    /// buffer land back to back in one segment: a short record after a
    /// long one is exactly its own bytes, with no stale tail of the long
    /// one behind it, and each reads back as what was appended.
    #[test]
    fn records_through_one_scratch_keep_no_stale_tail() {
        let long = update(&"x".repeat(300));
        let short = WalOp::Delete {
            table: Arc::from("holding"),
            old: vec![Value::from(7)],
        };
        let metrics = WalMetrics::new();
        let mut disk = WalDisk::new(Bytes::new(), 0, 0);
        disk.append_op(9, &long, &metrics);
        disk.append_op(9, &short, &metrics);
        disk.append_commit(9, 1, Some((2, 11)), &metrics);
        disk.append_commit(10, 2, None, &metrics);
        disk.flush(&metrics);
        let expected = [
            record(|w| encode_op(w, 0, 9, &long)),
            record(|w| encode_op(w, 1, 9, &short)),
            record(|w| encode_commit(w, 2, 9, 1, Some((2, 11)))),
            record(|w| encode_commit(w, 3, 10, 2, None)),
        ];
        assert_eq!(expected.clone().map(|r| r.len())[2..], [38, 26]);
        assert_eq!(durable_bytes(&disk), [expected.concat()]);
        assert_eq!(metrics.flushed_bytes.get(), expected.concat().len() as u64);
        let (ops, replay) = replayed(&disk).unwrap();
        assert_eq!(ops, [format!("{long:?}"), format!("{short:?}")]);
        assert_eq!(replay.stamps, [(2, 11)]);
        assert_eq!(
            (
                replay.commit_seq,
                replay.max_lsn,
                replay.max_txn,
                replay.ops
            ),
            (2, 3, 10, 2)
        );
        assert!(replay.open.is_empty());
    }

    /// A record longer than a segment gets an exact-size segment of its
    /// own, between the segment before it and a new one after it, and
    /// reads back whole; the scratch buffer it outgrew is not kept.
    #[test]
    fn a_record_longer_than_a_segment_gets_its_own_and_replays() {
        let table: Arc<str> = Arc::from("note");
        let short = WalOp::Delete {
            table: Arc::clone(&table),
            old: vec![Value::from(1)],
        };
        let long = WalOp::Insert {
            table,
            row: vec![Value::from(1), Value::from("x".repeat(SEGMENT_BYTES))],
        };
        let metrics = WalMetrics::new();
        let mut disk = WalDisk::new(Bytes::new(), 0, 0);
        disk.append_op(3, &short, &metrics);
        disk.append_op(3, &long, &metrics);
        disk.append_commit(3, 1, None, &metrics);
        disk.flush(&metrics);
        let long_len = record(|w| encode_op(w, 1, 3, &long)).len();
        assert!(long_len > SEGMENT_BYTES);
        let shape: Vec<_> = disk
            .segments
            .iter()
            .map(|s| (s.len(), s.capacity()))
            .collect();
        assert_eq!(
            shape,
            [
                (record(|w| encode_op(w, 0, 3, &short)).len(), SEGMENT_BYTES),
                (long_len, long_len),
                (26, SEGMENT_BYTES),
            ]
        );
        assert!(disk.scratch.capacity() <= MAX_KEPT_CAPACITY);
        let (ops, replay) = replayed(&disk).unwrap();
        assert_eq!(ops, [format!("{short:?}"), format!("{long:?}")]);
        assert!(replay.open.is_empty());
    }

    /// Records of many lengths fill several segments, and none straddles
    /// two: each segment reads on its own to its last byte, and the record
    /// that opens a segment would not have fit in the one before.
    #[test]
    fn no_record_straddles_a_segment_boundary() {
        let metrics = WalMetrics::new();
        let mut disk = WalDisk::new(Bytes::new(), 0, 0);
        for i in 0..600 {
            let len = sli_simnet::splitmix(0x5e9, i) % 700;
            disk.append_op(i, &update(&"y".repeat(len as usize)), &metrics);
        }
        disk.flush(&metrics);
        let segments = durable_bytes(&disk);
        assert!(segments.len() >= 4, "{} segments", segments.len());
        let mut records = 0;
        for (i, segment) in segments.iter().enumerate() {
            let replay = holding(segment).replay(|op| op.skip()).unwrap();
            records += replay.ops;
            if let Some(next) = segments.get(i + 1) {
                let (_, first) = holding(next).replay(|op| op.skip()).unwrap().open[0];
                assert!(segment.len() + first.end > SEGMENT_BYTES, "segment {i}");
            }
        }
        assert_eq!(records, 600);
        let bytes: usize = segments.iter().map(Vec::len).sum();
        assert_eq!(bytes as u64, metrics.flushed_bytes.get());
    }

    /// A crash discards exactly the unflushed records, and so does the
    /// injected dropped flush: the durable bytes are what they were, and
    /// the next record lands right behind them.
    #[test]
    fn a_crash_and_a_dropped_flush_leave_the_durable_bytes_identical() {
        let metrics = WalMetrics::new();
        let mut disk = WalDisk::new(Bytes::new(), 0, 0);
        let op = update(&"z".repeat(200));
        for txn in 0..200 {
            disk.append_op(txn, &op, &metrics);
        }
        disk.flush(&metrics);
        let durable = durable_bytes(&disk);
        // The tail reaches past the last durable segment into new ones.
        let tail = |disk: &mut WalDisk| {
            for txn in 0..500 {
                disk.append_op(txn, &op, &metrics);
            }
        };
        tail(&mut disk);
        assert!(disk.segments.len() > durable.len());
        assert_eq!(durable_bytes(&disk), durable);
        disk.discard_pending();
        assert_eq!(durable_bytes(&disk), durable);
        assert_eq!(disk.segments.len(), durable.len());
        disk.set_drop_flush(true);
        tail(&mut disk);
        disk.flush(&metrics);
        assert_eq!(durable_bytes(&disk), durable);
        assert_eq!(metrics.dropped_flushes.get(), 500);
        assert_eq!(metrics.flushed_records.get(), 200);
        disk.set_drop_flush(false);
        disk.append_commit(1, 1, None, &metrics);
        disk.flush(&metrics);
        let mut after = durable.clone();
        let commit = record(|w| encode_commit(w, 1200, 1, 1, None));
        after.last_mut().unwrap().extend_from_slice(&commit);
        assert_eq!(durable_bytes(&disk), after);
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
        let disk = holding(&w.finish());
        assert!(disk.replay(|op| op.whole().map(drop)).is_err());
        assert!(disk.replay(|op| op.redo().map(drop)).is_err());
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

    /// One record of each kind and shape, the `i`th under LSN `i + 1`.
    fn sample_records() -> Vec<Bytes> {
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
        let mut records: Vec<Bytes> = ops
            .iter()
            .zip(1..)
            .map(|(op, lsn)| record(|w| encode_op(w, lsn, 9, op)))
            .collect();
        records.push(record(|w| encode_commit(w, 4, 9, 1, None)));
        records.push(record(|w| encode_commit(w, 5, 9, 1, Some((2, 11)))));
        records
    }

    /// Whether the stream reader reads `raw` as a segment of one or more
    /// whole records, decoding each op whole and through redo.
    fn reads(raw: &[u8]) -> bool {
        let disk = holding(raw);
        !raw.is_empty()
            && disk.replay(|op| op.whole().map(drop)).is_ok()
            && disk.replay(|op| op.redo().map(drop)).is_ok()
    }

    #[test]
    fn the_record_decoder_never_panics() {
        let accepted = search_decoder(0x0a1_5eed, &sample_records(), |raw| reads(&raw));
        assert!(accepted > 100, "only {accepted} flipped records decoded");
    }

    /// A segment of several records: a cut at a record boundary reads the
    /// records before it, and every cut inside a record is refused.
    #[test]
    fn every_cut_inside_a_record_of_a_segment_is_refused() {
        let records = sample_records();
        let segment = records.concat();
        let boundaries: Vec<usize> = records
            .iter()
            .scan(0, |end, r| {
                *end += r.len();
                Some(*end)
            })
            .collect();
        for len in 1..=segment.len() {
            let cut = &segment[..len];
            match boundaries.iter().position(|&b| b == len) {
                Some(i) => {
                    let replay = holding(cut).replay(|op| op.skip()).unwrap();
                    assert_eq!(replay.max_lsn, i as u64 + 1, "cut at {len}");
                    assert!(reads(cut));
                }
                None => assert!(!reads(cut), "a cut at {len} read"),
            }
        }
    }
}
