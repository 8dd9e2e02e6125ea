//! A small self-describing binary wire codec.
//!
//! Every message that crosses a simulated [`Path`](crate::Path) — SQL
//! requests, result sets, memento images, commit requests, HTML pages — is
//! really serialized through this codec, so the byte counts behind the
//! paper's bandwidth figure (Figure 8) are measured, not estimated.
//!
//! The format is deliberately simple: fixed-width big-endian integers and
//! length-prefixed byte strings, in the spirit of the RMI/JDBC wire formats
//! the paper's prototype used.
//!
//! ```
//! use sli_simnet::wire::{Reader, Writer};
//!
//! let mut w = Writer::new();
//! w.put_str("findByPrimaryKey");
//! w.put_u64(42);
//! let frame = w.finish();
//!
//! let mut r = Reader::new(frame);
//! assert_eq!(r.get_str().unwrap(), "findByPrimaryKey");
//! assert_eq!(r.get_u64().unwrap(), 42);
//! assert!(r.is_empty());
//! ```

use std::error::Error;
use std::fmt;
use std::hash::Hasher;
use std::sync::{Arc, Mutex, MutexGuard};

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::hash::FxHasher;

/// Error produced when decoding a malformed or truncated frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    what: &'static str,
}

impl DecodeError {
    /// Creates a decode error describing what failed to decode.
    ///
    /// Public so higher layers (value codecs, protocol decoders) can raise
    /// format errors of their own.
    pub fn new(what: &'static str) -> DecodeError {
        DecodeError { what }
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed wire frame: {}", self.what)
    }
}

impl Error for DecodeError {}

/// Wire-protocol identifiers carried in [`FrameHeader`]s.
pub mod protocol {
    /// The JDBC-style database protocol (DRDA stand-in).
    pub const JDBC: u16 = 0x4442;
    /// The edge ↔ back-end protocol (RMI/IIOP stand-in).
    pub const BACKEND: u16 = 0x524D;
}

const FRAME_MAGIC: u32 = 0x534C_4957; // "SLIW"
const FRAME_VERSION: u16 = 1;
const FRAME_HEADER_LEN: usize = 32;

/// Parsed header of a framed protocol message.
///
/// Real middleware protocols (DRDA for JDBC, RMI/IIOP between application
/// servers) wrap every message in fixed framing — magic, version,
/// correlation ids, lengths, checksums. The paper's bandwidth figure
/// measures traffic *including* that framing, so this codec models it
/// explicitly: [`frame`] prepends a 32-byte header, [`unframe`] validates
/// and strips it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Protocol discriminator (see [`protocol`]).
    pub protocol: u16,
    /// Request/response correlation id.
    pub correlation: u64,
    /// Causal trace id propagated across the wire (0 = untraced). Real
    /// stacks carry a trace/session token in exactly this kind of header
    /// slot; servers handling a message detached from the originating
    /// call stack (deferred invalidations, replays) re-join the trace
    /// through it.
    pub trace_id: u64,
}

/// Wraps `payload` in a 32-byte protocol header with no trace context.
pub fn frame(proto: u16, correlation: u64, payload: &Bytes) -> Bytes {
    frame_traced(proto, correlation, 0, payload)
}

/// Wraps `payload` in a 32-byte protocol header carrying `trace_id` in the
/// header's token slot, so the receiver can attach its spans to the
/// sender's causal trace.
///
/// For a payload that already exists. A sender that builds its message
/// writes it behind the header's room instead ([`Writer::framed`]).
pub fn frame_traced(proto: u16, correlation: u64, trace_id: u64, payload: &Bytes) -> Bytes {
    let mut w = Writer::framed_for(payload.len());
    w.put_raw(payload);
    w.finish_frame(proto, correlation, trace_id)
}

/// Validates and strips a [`frame`]d message.
///
/// # Errors
/// Returns [`DecodeError`] on bad magic/version, truncation, or checksum
/// mismatch.
pub fn unframe(message: Bytes) -> Result<(FrameHeader, Bytes), DecodeError> {
    let mut r = Reader::new(message);
    if r.get_u32()? != FRAME_MAGIC {
        return Err(DecodeError::new("frame magic"));
    }
    if r.get_u16()? != FRAME_VERSION {
        return Err(DecodeError::new("frame version"));
    }
    let proto = r.get_u16()?;
    let correlation = r.get_u64()?;
    let trace_id = r.get_u64()?;
    let len = r.get_u32()? as usize;
    let expected_sum = r.get_u32()?;
    let payload = r.get_bytes_raw(len)?;
    if checksum(&payload) != expected_sum {
        return Err(DecodeError::new("frame checksum"));
    }
    Ok((
        FrameHeader {
            protocol: proto,
            correlation,
            trace_id,
        },
        payload,
    ))
}

/// `31^k` in wrapping `u32`.
const fn pow31(k: u32) -> u32 {
    31u32.wrapping_pow(k)
}

/// The frame checksum: `acc * 31 + byte` over the payload, wrapping — a
/// value both ends compute, so part of the wire contract. Folded eight
/// bytes a step (`acc * 31^8 + b0 * 31^7 + ... + b7`, the same sum with
/// the multiplies regrouped), so the chain that each step waits on is one
/// multiply per eight bytes; the tail goes byte by byte.
fn checksum(payload: &[u8]) -> u32 {
    const WEIGHTS: [u32; 8] = [
        pow31(7),
        pow31(6),
        pow31(5),
        pow31(4),
        pow31(3),
        pow31(2),
        pow31(1),
        pow31(0),
    ];
    let mut chunks = payload.chunks_exact(8);
    let mut acc = 0u32;
    for chunk in &mut chunks {
        let lanes = chunk.iter().zip(WEIGHTS).fold(0u32, |sum, (b, w)| {
            sum.wrapping_add((*b as u32).wrapping_mul(w))
        });
        acc = acc.wrapping_mul(pow31(8)).wrapping_add(lanes);
    }
    chunks
        .remainder()
        .iter()
        .fold(acc, |acc, b| acc.wrapping_mul(31).wrapping_add(*b as u32))
}

/// Room a [`Writer::framed`] message starts with behind its header: with
/// the header, 256 bytes, which a statement with its parameters or a point
/// result fills without growing. (Twice and four times the room bought
/// under 0.5 % fewer allocations on `jdbc_mix`.)
const FRAMED_CAPACITY: usize = 224;

/// Room past which a kept buffer is dropped instead of handed back by
/// [`Writer::finish_keeping`] or [`Writer::finish_frame_keeping`], so one
/// large message does not pin its buffer for the life of its owner. The
/// largest message written in a kept buffer on the seven benchmark
/// workloads is a 5 251-byte JDBC reply (`rbes_trade`). The datastore's
/// log holds its record-encoding buffer to the same cap, though a record
/// leaves it through [`Writer::into_buf`] and is copied onto the log, not
/// out as a message. A message past the cap still goes out whole; its
/// owner's next message starts in a fresh buffer.
pub const MAX_KEPT_CAPACITY: usize = 16 * 1024;

/// Incrementally builds an encoded frame.
#[derive(Debug, Default)]
pub struct Writer {
    buf: BytesMut,
    /// Bytes left blank at the front for the frame header: 0, or
    /// [`FRAME_HEADER_LEN`] for a writer [`Writer::finish_frame`] closes.
    header: usize,
}

impl Writer {
    /// Creates an empty frame writer.
    pub fn new() -> Writer {
        Writer::new_in(BytesMut::new())
    }

    /// Creates an empty frame writer with room for `capacity` bytes, for a
    /// message whose encoded size is known before it is written.
    pub fn with_capacity(capacity: usize) -> Writer {
        Writer {
            buf: BytesMut::with_capacity(capacity),
            header: 0,
        }
    }

    /// Creates a writer for a message that leaves as a frame: the payload
    /// is written behind 32 blank bytes, which [`Writer::finish_frame`]
    /// fills in, so header and payload share the one buffer.
    pub fn framed() -> Writer {
        Writer::framed_for(FRAMED_CAPACITY)
    }

    fn framed_for(payload: usize) -> Writer {
        Writer::in_buf(
            BytesMut::new(),
            FRAME_HEADER_LEN + payload,
            FRAME_HEADER_LEN,
        )
    }

    /// Creates an empty writer in `buf`, a buffer its owner keeps from one
    /// message to the next: what [`Writer::new`] returns, written into
    /// `buf` emptied — or into a new buffer of that room when `buf` has
    /// less. [`Writer::finish_keeping`] hands the buffer back.
    pub fn new_in(buf: BytesMut) -> Writer {
        Writer::in_buf(buf, 128, 0)
    }

    /// Creates a writer for a framed message in `buf`, a buffer its owner
    /// keeps from one message to the next: what [`Writer::framed`]
    /// returns, written into `buf` emptied — or into a new buffer of that
    /// room when `buf` has less. [`Writer::finish_frame_keeping`] hands
    /// the buffer back, so a message in a kept buffer allocates nothing
    /// once its receiver has let go of the one before: its exact copy goes
    /// where that one's went.
    pub fn framed_in(buf: BytesMut) -> Writer {
        Writer::in_buf(buf, FRAME_HEADER_LEN + FRAMED_CAPACITY, FRAME_HEADER_LEN)
    }

    /// `buf` emptied, or a new buffer of `room` bytes if it holds less,
    /// with `header` blank bytes written.
    fn in_buf(mut buf: BytesMut, room: usize, header: usize) -> Writer {
        if buf.capacity() < room {
            buf = BytesMut::with_capacity(room);
        } else {
            buf.clear();
        }
        buf.put_slice(&[0; FRAME_HEADER_LEN][..header]);
        Writer { buf, header }
    }

    /// Appends a single byte.
    pub fn put_u8(&mut self, v: u8) -> &mut Writer {
        self.buf.put_u8(v);
        self
    }

    /// Appends a big-endian `u16`.
    pub fn put_u16(&mut self, v: u16) -> &mut Writer {
        self.buf.put_u16(v);
        self
    }

    /// Appends a big-endian `u32`.
    pub fn put_u32(&mut self, v: u32) -> &mut Writer {
        self.buf.put_u32(v);
        self
    }

    /// Appends a big-endian `u64`.
    pub fn put_u64(&mut self, v: u64) -> &mut Writer {
        self.buf.put_u64(v);
        self
    }

    /// Appends a big-endian `i64`.
    pub fn put_i64(&mut self, v: i64) -> &mut Writer {
        self.buf.put_i64(v);
        self
    }

    /// Appends an IEEE-754 `f64`.
    pub fn put_f64(&mut self, v: f64) -> &mut Writer {
        self.buf.put_f64(v);
        self
    }

    /// Appends a boolean as one byte.
    pub fn put_bool(&mut self, v: bool) -> &mut Writer {
        self.buf.put_u8(v as u8);
        self
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) -> &mut Writer {
        self.put_bytes(v.as_bytes())
    }

    /// Appends the concatenation of `parts` as one length-prefixed string,
    /// without building it first.
    pub fn put_str_parts(&mut self, parts: &[&str]) -> &mut Writer {
        self.buf
            .put_u32(parts.iter().map(|p| p.len()).sum::<usize>() as u32);
        for part in parts {
            self.buf.put_slice(part.as_bytes());
        }
        self
    }

    /// Appends a length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) -> &mut Writer {
        self.buf.put_u32(v.len() as u32);
        self.buf.put_slice(v);
        self
    }

    /// Appends an already-encoded frame as a length-prefixed nested value.
    pub fn put_frame(&mut self, v: &Bytes) -> &mut Writer {
        self.put_bytes(v)
    }

    /// Appends what `write` writes as a length-prefixed nested value — the
    /// bytes [`Writer::put_frame`] appends for the finished value, written
    /// in place under a length filled in afterwards.
    pub fn put_nested(&mut self, write: impl FnOnce(&mut Writer)) -> &mut Writer {
        let at = self.put_u32_later();
        write(self);
        let len = (self.buf.len() - at - 4) as u32;
        self.patch_u32(at, len);
        self
    }

    /// Appends a `u32` whose value is not known yet — a count of what is
    /// written after it — and returns where it lies, for
    /// [`Writer::patch_u32`].
    pub fn put_u32_later(&mut self) -> usize {
        let at = self.buf.len();
        self.buf.put_u32(0);
        at
    }

    /// Fills in the `u32` that [`Writer::put_u32_later`] left at `at`.
    ///
    /// # Panics
    /// Panics if `at` is not within what has been written.
    pub fn patch_u32(&mut self, at: usize, v: u32) {
        self.buf[at..at + 4].copy_from_slice(&v.to_be_bytes());
    }

    /// Appends bytes that are already in wire form (no length prefix).
    pub fn put_raw(&mut self, v: &[u8]) -> &mut Writer {
        self.buf.put_slice(v);
        self
    }

    /// Number of payload bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len() - self.header
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Finalizes the frame.
    ///
    /// # Panics
    /// Panics on a [`Writer::framed`] writer, whose header is still blank.
    pub fn finish(self) -> Bytes {
        self.finish_keeping().0
    }

    /// Finalizes the message as its exact copy and hands back the buffer
    /// it was written in, for the owner's next [`Writer::new_in`] — or an
    /// empty one if the buffer grew past [`MAX_KEPT_CAPACITY`].
    ///
    /// # Panics
    /// Panics on a [`Writer::framed`] writer, whose header is still blank.
    pub fn finish_keeping(self) -> (Bytes, BytesMut) {
        assert_eq!(self.header, 0, "a framed writer ends in finish_frame");
        self.copy_out()
    }

    /// Hands back the buffer the message was written in, without a copy,
    /// for an owner that moves the bytes on itself and keeps the buffer
    /// for its next [`Writer::new_in`].
    ///
    /// # Panics
    /// Panics on a [`Writer::framed`] writer, whose header is still blank.
    pub fn into_buf(self) -> BytesMut {
        assert_eq!(self.header, 0, "a framed writer ends in finish_frame");
        self.buf
    }

    /// Finalizes a [`Writer::framed`] message: fills in the header — the
    /// one place it is written — in front of the payload where it lies.
    ///
    /// # Panics
    /// Panics on a writer that left no room for the header.
    pub fn finish_frame(self, proto: u16, correlation: u64, trace_id: u64) -> Bytes {
        self.finish_frame_keeping(proto, correlation, trace_id).0
    }

    /// Finalizes a framed message as [`Writer::finish_frame`] does, and
    /// hands back the buffer it was written in, for the owner's next
    /// [`Writer::framed_in`] — or an empty one if the buffer grew past
    /// [`MAX_KEPT_CAPACITY`].
    ///
    /// # Panics
    /// Panics on a writer that left no room for the header.
    pub fn finish_frame_keeping(
        mut self,
        proto: u16,
        correlation: u64,
        trace_id: u64,
    ) -> (Bytes, BytesMut) {
        assert_eq!(self.header, FRAME_HEADER_LEN, "not a framed writer");
        let (header, payload) = self.buf.split_at_mut(FRAME_HEADER_LEN);
        header[0..4].copy_from_slice(&FRAME_MAGIC.to_be_bytes());
        header[4..6].copy_from_slice(&FRAME_VERSION.to_be_bytes());
        header[6..8].copy_from_slice(&proto.to_be_bytes());
        header[8..16].copy_from_slice(&correlation.to_be_bytes());
        header[16..24].copy_from_slice(&trace_id.to_be_bytes());
        header[24..28].copy_from_slice(&(payload.len() as u32).to_be_bytes());
        header[28..32].copy_from_slice(&checksum(payload).to_be_bytes());
        self.copy_out()
    }

    /// The written bytes as one exact copy, and the buffer unless it grew
    /// past [`MAX_KEPT_CAPACITY`]. The copy goes where the buffer's last
    /// one went once its receiver has let go of it (see
    /// [`BytesMut::recycled_copy`]), so a message in a kept buffer then
    /// allocates nothing; one still held is never written.
    fn copy_out(mut self) -> (Bytes, BytesMut) {
        let message = self.buf.recycled_copy();
        let kept = if self.buf.capacity() > MAX_KEPT_CAPACITY {
            BytesMut::new()
        } else {
            self.buf
        };
        (message, kept)
    }
}

/// A string read as a view of the frame it arrived in: checked as UTF-8
/// where [`Reader::get_str_view`] read it, never copied out. The view
/// keeps its whole frame alive, so it is for values that live as long as
/// the handling of their message, not for values that are stored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameStr(Bytes);

impl std::ops::Deref for FrameStr {
    type Target = str;

    fn deref(&self) -> &str {
        std::str::from_utf8(&self.0).expect("checked when read")
    }
}

/// Slots in a [`StrTable`]. With one table per decoding endpoint, the
/// benchmark's `rbes_trade` reads 79.50 allocations per interaction at 64
/// slots, 76.07 at 256 and 74.71 at 1 024 (for 1.7 % more peak live
/// bytes), against 106.87 with no table.
pub const STR_TABLE_SLOTS: usize = 256;

/// Length past which a string is handed out but never tabled. No longer
/// string recurs on the seven benchmark workloads: an unbounded length
/// reads the same 76.07 on `rbes_trade`. With [`STR_TABLE_SLOTS`], a table
/// holds at most 256 × 64 bytes of text, whatever bytes it is fed.
pub const MAX_TABLED_STR: usize = 64;

/// The strings one endpoint has read off the wire, so a string read again
/// is another handle on the one read before instead of a new allocation:
/// the same user id, symbol or account name crosses the wire in every
/// frame of a transaction, and often in the next one's.
///
/// Direct-mapped: a string's slot is a fixed hash of its bytes (no per-run
/// seed, so a run shares the same strings every time). A string found in
/// its slot is shared; one that is not is allocated and takes the slot,
/// evicting whatever was there. Nothing probes and nothing grows, so the
/// bytes a hostile peer can pin are bounded (see [`MAX_TABLED_STR`]).
///
/// An owner keeps one table for the frames it receives and reads them with
/// [`Reader::sharing`]; simulated machines never share one.
pub struct StrTable {
    slots: Mutex<[Option<Arc<str>>; STR_TABLE_SLOTS]>,
}

impl StrTable {
    /// An empty table, behind the `Arc` its readers hold.
    pub fn shared() -> Arc<StrTable> {
        Arc::new(StrTable {
            slots: Mutex::new(std::array::from_fn(|_| None)),
        })
    }

    /// The shared string spelled `text`: the tabled one if its slot holds
    /// it, else a new one, which takes the slot unless it is longer than
    /// [`MAX_TABLED_STR`].
    fn share(&self, text: &str) -> Arc<str> {
        if text.len() > MAX_TABLED_STR {
            return Arc::from(text);
        }
        let slot = Self::slot(text);
        let mut slots = self.slots();
        match &slots[slot] {
            Some(tabled) if **tabled == *text => Arc::clone(tabled),
            _ => Arc::clone(slots[slot].insert(Arc::from(text))),
        }
    }

    /// The slots, locked. A holder that panicked left them whole: each
    /// slot is written in one assignment.
    fn slots(&self) -> MutexGuard<'_, [Option<Arc<str>>; STR_TABLE_SLOTS]> {
        self.slots.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The slot `text` is tabled in: the hash's top bits, into which its
    /// last multiply mixes every input bit.
    fn slot(text: &str) -> usize {
        let mut hasher = FxHasher::default();
        hasher.write(text.as_bytes());
        (hasher.finish() >> (64 - STR_TABLE_SLOTS.trailing_zeros())) as usize
    }
}

impl fmt::Debug for StrTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tabled = self.slots().iter().flatten().count();
        f.debug_struct("StrTable").field("tabled", &tabled).finish()
    }
}

/// Decodes a frame produced by [`Writer`]. A clone reads on from the same
/// place without moving the original — a way to look ahead — and shares
/// its strings through the same table.
#[derive(Debug, Clone)]
pub struct Reader {
    buf: Bytes,
    /// The reading endpoint's table, for [`Reader::get_shared_str_as`].
    strings: Option<Arc<StrTable>>,
}

impl Reader {
    /// Wraps an encoded frame for reading.
    pub fn new(buf: Bytes) -> Reader {
        Reader { buf, strings: None }
    }

    /// Wraps a frame its owner received, sharing the strings it reads
    /// through the owner's `strings` table (see
    /// [`Reader::get_shared_str_as`]).
    pub fn sharing(buf: Bytes, strings: &Arc<StrTable>) -> Reader {
        Reader {
            buf,
            strings: Some(Arc::clone(strings)),
        }
    }

    fn need(&self, n: usize, what: &'static str) -> Result<(), DecodeError> {
        if self.buf.remaining() < n {
            Err(DecodeError::new(what))
        } else {
            Ok(())
        }
    }

    /// Reads a single byte.
    ///
    /// # Errors
    /// Returns [`DecodeError`] if the frame is exhausted.
    pub fn get_u8(&mut self) -> Result<u8, DecodeError> {
        self.need(1, "u8")?;
        Ok(self.buf.get_u8())
    }

    /// Reads a big-endian `u16`.
    ///
    /// # Errors
    /// Returns [`DecodeError`] if fewer than two bytes remain.
    pub fn get_u16(&mut self) -> Result<u16, DecodeError> {
        self.need(2, "u16")?;
        Ok(self.buf.get_u16())
    }

    /// Reads a big-endian `u32`.
    ///
    /// # Errors
    /// Returns [`DecodeError`] if fewer than four bytes remain.
    pub fn get_u32(&mut self) -> Result<u32, DecodeError> {
        self.need(4, "u32")?;
        Ok(self.buf.get_u32())
    }

    /// Reads a big-endian `u64`.
    ///
    /// # Errors
    /// Returns [`DecodeError`] if fewer than eight bytes remain.
    pub fn get_u64(&mut self) -> Result<u64, DecodeError> {
        self.need(8, "u64")?;
        Ok(self.buf.get_u64())
    }

    /// Reads a big-endian `i64`.
    ///
    /// # Errors
    /// Returns [`DecodeError`] if fewer than eight bytes remain.
    pub fn get_i64(&mut self) -> Result<i64, DecodeError> {
        self.need(8, "i64")?;
        Ok(self.buf.get_i64())
    }

    /// Reads an IEEE-754 `f64`.
    ///
    /// # Errors
    /// Returns [`DecodeError`] if fewer than eight bytes remain.
    pub fn get_f64(&mut self) -> Result<f64, DecodeError> {
        self.need(8, "f64")?;
        Ok(self.buf.get_f64())
    }

    /// Reads a boolean byte.
    ///
    /// # Errors
    /// Returns [`DecodeError`] if the frame is exhausted or the byte is not
    /// `0`/`1`.
    pub fn get_bool(&mut self) -> Result<bool, DecodeError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(DecodeError::new("bool")),
        }
    }

    /// Reads a length-prefixed byte string.
    ///
    /// # Errors
    /// Returns [`DecodeError`] if the prefix or payload is truncated.
    pub fn get_bytes(&mut self) -> Result<Bytes, DecodeError> {
        let len = self.get_u32()? as usize;
        self.need(len, "bytes payload")?;
        Ok(self.buf.split_to(len))
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    /// Returns [`DecodeError`] on truncation or invalid UTF-8.
    pub fn get_str(&mut self) -> Result<String, DecodeError> {
        let raw = self.get_bytes()?;
        String::from_utf8(raw.to_vec()).map_err(|_| DecodeError::new("utf-8"))
    }

    /// Consumes the length prefix of the UTF-8 string at the front and
    /// returns the checked string's length.
    fn str_len(&mut self) -> Result<usize, DecodeError> {
        let len = self.get_u32()? as usize;
        self.need(len, "bytes payload")?;
        match std::str::from_utf8(&self.buf[..len]) {
            Ok(_) => Ok(len),
            Err(_) => Err(DecodeError::new("utf-8")),
        }
    }

    /// Reads a length-prefixed UTF-8 string where it lies, as a view of
    /// the frame (no copy; see [`FrameStr`] for what the view holds on to).
    ///
    /// # Errors
    /// Returns [`DecodeError`] on truncation or invalid UTF-8, exactly as
    /// [`Reader::get_str`] does.
    pub fn get_str_view(&mut self) -> Result<FrameStr, DecodeError> {
        let len = self.str_len()?;
        Ok(FrameStr(self.buf.split_to(len)))
    }

    /// Checks and skips a length-prefixed UTF-8 string nobody reads.
    ///
    /// # Errors
    /// As [`Reader::get_str`].
    pub fn skip_str(&mut self) -> Result<(), DecodeError> {
        let len = self.str_len()?;
        self.buf.advance(len);
        Ok(())
    }

    /// Reads a length-prefixed UTF-8 string straight into a shared `str`
    /// (one allocation, for names that many values will point at — none
    /// where the reader's [`StrTable`] holds the string already).
    ///
    /// # Errors
    /// Returns [`DecodeError`] on truncation or invalid UTF-8.
    pub fn get_shared_str(&mut self) -> Result<Arc<str>, DecodeError> {
        self.get_shared_str_as(None)
    }

    /// Reads a length-prefixed UTF-8 string as a shared `str` that may
    /// exist already: another handle on `known` where the frame spells
    /// exactly that, else on the string the reader's [`StrTable`] holds
    /// for that spelling, otherwise what [`Reader::get_shared_str`]
    /// returns.
    ///
    /// # Errors
    /// As [`Reader::get_shared_str`].
    pub fn get_shared_str_as(&mut self, known: Option<&Arc<str>>) -> Result<Arc<str>, DecodeError> {
        let len = self.get_u32()? as usize;
        self.need(len, "bytes payload")?;
        let shared = match known {
            Some(known) if known.as_bytes() == &self.buf[..len] => Arc::clone(known),
            _ => match (std::str::from_utf8(&self.buf[..len]), &self.strings) {
                (Ok(text), Some(strings)) => strings.share(text),
                (Ok(text), None) => Arc::from(text),
                (Err(_), _) => return Err(DecodeError::new("utf-8")),
            },
        };
        self.buf.advance(len);
        Ok(shared)
    }

    /// Reads a nested frame written with [`Writer::put_frame`].
    ///
    /// # Errors
    /// Returns [`DecodeError`] on truncation.
    pub fn get_frame(&mut self) -> Result<Bytes, DecodeError> {
        self.get_bytes()
    }

    /// Reads exactly `len` raw bytes (no length prefix).
    ///
    /// # Errors
    /// Returns [`DecodeError`] on truncation.
    pub fn get_bytes_raw(&mut self, len: usize) -> Result<Bytes, DecodeError> {
        self.need(len, "raw bytes")?;
        Ok(self.buf.split_to(len))
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.remaining()
    }

    /// Whether the whole frame has been consumed.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_scalars() {
        let mut w = Writer::new();
        w.put_u8(7)
            .put_u16(512)
            .put_u32(70_000)
            .put_u64(1 << 40)
            .put_i64(-12345)
            .put_f64(3.25)
            .put_bool(true)
            .put_bool(false);
        let mut r = Reader::new(w.finish());
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u16().unwrap(), 512);
        assert_eq!(r.get_u32().unwrap(), 70_000);
        assert_eq!(r.get_u64().unwrap(), 1 << 40);
        assert_eq!(r.get_i64().unwrap(), -12345);
        assert_eq!(r.get_f64().unwrap(), 3.25);
        assert!(r.get_bool().unwrap());
        assert!(!r.get_bool().unwrap());
        assert!(r.is_empty());
    }

    #[test]
    fn round_trip_strings_and_frames() {
        let mut inner = Writer::new();
        inner.put_str("nested");
        let inner = inner.finish();

        let mut w = Writer::new();
        w.put_str("outer").put_frame(&inner).put_bytes(&[1, 2, 3]);
        let mut r = Reader::new(w.finish());
        assert_eq!(&*r.get_shared_str().unwrap(), "outer");
        let mut nested = Reader::new(r.get_frame().unwrap());
        assert_eq!(nested.get_str().unwrap(), "nested");
        assert_eq!(&r.get_bytes().unwrap()[..], &[1, 2, 3]);
    }

    #[test]
    fn truncated_frame_is_an_error() {
        let mut w = Writer::new();
        w.put_u64(9);
        let frame = w.finish().slice(0..4);
        let mut r = Reader::new(frame);
        assert!(r.get_u64().is_err());
    }

    #[test]
    fn truncated_string_payload_is_an_error() {
        let mut w = Writer::new();
        w.put_str("hello world");
        let frame = w.finish().slice(0..6);
        assert!(Reader::new(frame.clone()).get_str().is_err());
        assert!(Reader::new(frame.clone()).get_str_view().is_err());
        assert!(Reader::new(frame).skip_str().is_err());
    }

    #[test]
    fn invalid_bool_is_an_error() {
        let mut w = Writer::new();
        w.put_u8(3);
        let mut r = Reader::new(w.finish());
        assert!(r.get_bool().is_err());
    }

    #[test]
    fn invalid_utf8_is_an_error() {
        let mut w = Writer::new();
        w.put_bytes(&[0xff, 0xfe]);
        let frame = w.finish();
        assert!(Reader::new(frame.clone()).get_str().is_err());
        assert!(Reader::new(frame.clone()).get_str_view().is_err());
        assert!(Reader::new(frame.clone()).skip_str().is_err());
        assert!(Reader::new(frame).get_shared_str().is_err());
    }

    #[test]
    fn a_known_string_is_shared_only_where_the_frame_spells_it() {
        let known: Arc<str> = Arc::from("balance");
        let mut w = Writer::with_capacity(32);
        w.put_str("balance").put_str("balancE").put_str("bal");
        let mut r = Reader::new(w.finish());
        assert!(Arc::ptr_eq(
            &r.get_shared_str_as(Some(&known)).unwrap(),
            &known
        ));
        for other in ["balancE", "bal"] {
            let own = r.get_shared_str_as(Some(&known)).unwrap();
            assert_eq!(&*own, other);
            assert!(!Arc::ptr_eq(&own, &known));
        }
        assert!(r.is_empty());
        // Malformed input fails as it does with nothing known.
        let mut w = Writer::new();
        w.put_bytes(&[0xff, 0xfe]);
        let frame = w.finish();
        assert!(Reader::new(frame.clone())
            .get_shared_str_as(Some(&known))
            .is_err());
        assert!(Reader::new(frame.slice(0..5))
            .get_shared_str_as(Some(&known))
            .is_err());
    }

    /// A frame of `texts`, each a length-prefixed string.
    fn strings(texts: &[&str]) -> Bytes {
        let mut w = Writer::new();
        for text in texts {
            w.put_str(text);
        }
        w.finish()
    }

    /// The slot `table` holds `text` in, if any.
    fn tabled(table: &StrTable, text: &str) -> Option<Arc<str>> {
        table
            .slots()
            .iter()
            .flatten()
            .find(|t| ***t == *text)
            .cloned()
    }

    #[test]
    fn a_string_read_again_is_the_tabled_one() {
        let table = StrTable::shared();
        let mut r = Reader::sharing(strings(&["uid:7", "s:3", "uid:7"]), &table);
        let first = r.get_shared_str().unwrap();
        let symbol = r.get_shared_str().unwrap();
        let again = r.get_shared_str().unwrap();
        assert!(Arc::ptr_eq(&first, &again));
        assert!(Arc::ptr_eq(&first, &tabled(&table, "uid:7").unwrap()));
        assert_eq!(&*symbol, "s:3");
        // A later frame read through the same table shares it too; one
        // read without a table does not.
        let next = Reader::sharing(strings(&["uid:7"]), &table).get_shared_str();
        assert!(Arc::ptr_eq(&first, &next.unwrap()));
        let plain = Reader::new(strings(&["uid:7"])).get_shared_str();
        assert!(!Arc::ptr_eq(&first, &plain.unwrap()));
        // A known string still comes first.
        let known: Arc<str> = Arc::from("uid:7");
        let mut r = Reader::sharing(strings(&["uid:7"]), &table);
        assert!(Arc::ptr_eq(
            &r.get_shared_str_as(Some(&known)).unwrap(),
            &known
        ));
    }

    #[test]
    fn a_colliding_string_is_its_own_and_takes_the_slot() {
        let first = "k:0".to_owned();
        let other = (1..)
            .map(|i| format!("k:{i}"))
            .find(|text| StrTable::slot(text) == StrTable::slot(&first))
            .unwrap();
        let table = StrTable::shared();
        let mut r = Reader::sharing(strings(&[&first, &other, &first]), &table);
        let a = r.get_shared_str().unwrap();
        let b = r.get_shared_str().unwrap();
        assert_eq!((&*a, &*b), (&*first, &*other));
        assert!(tabled(&table, &first).is_none(), "evicted");
        assert!(Arc::ptr_eq(&b, &tabled(&table, &other).unwrap()));
        let back = r.get_shared_str().unwrap();
        assert_eq!(&*back, &*first);
        assert!(!Arc::ptr_eq(&back, &a), "an evicted string is read anew");
    }

    #[test]
    fn a_long_string_is_never_tabled() {
        let table = StrTable::shared();
        let long = "x".repeat(MAX_TABLED_STR + 1);
        let edge = "y".repeat(MAX_TABLED_STR);
        let mut r = Reader::sharing(strings(&[&long, &long, &edge]), &table);
        let a = r.get_shared_str().unwrap();
        let b = r.get_shared_str().unwrap();
        assert_eq!(&*a, long);
        assert!(!Arc::ptr_eq(&a, &b));
        assert!(tabled(&table, &long).is_none());
        r.get_shared_str().unwrap();
        assert!(tabled(&table, &edge).is_some(), "64 bytes are tabled");
    }

    #[test]
    fn a_clone_of_a_reader_shares_its_table() {
        let table = StrTable::shared();
        let mut r = Reader::sharing(strings(&["acct", "acct"]), &table);
        let mut ahead = r.clone();
        let looked = ahead.get_shared_str().unwrap();
        assert!(Arc::ptr_eq(&looked, &ahead.get_shared_str().unwrap()));
        assert!(Arc::ptr_eq(&looked, &r.get_shared_str().unwrap()));
    }

    #[test]
    fn hostile_strings_fill_a_table_no_further_than_its_bound() {
        // Seeded distinct strings of every length up to twice the cap, then
        // half as many again searched to land in one slot: whatever they
        // hash to, the table ends with at most one string a slot, none
        // past the cap.
        let table = StrTable::shared();
        let text = |i: u64| {
            let len = (crate::splitmix(0x5eed, i) % (2 * MAX_TABLED_STR as u64)) as usize;
            let fill = (0..len).map(|j| (b'!' + (crate::splitmix(i, j as u64) % 90) as u8) as char);
            format!("{i:x}:{}", fill.collect::<String>())
        };
        let target = StrTable::slot(&text(0));
        let colliding = (0..)
            .map(|i| format!("c{i:x}"))
            .filter(|t| StrTable::slot(t) == target)
            .take(5_000);
        let mut w = Writer::new();
        for t in (0..10_000).map(text).chain(colliding) {
            w.put_str(&t);
        }
        let mut r = Reader::sharing(w.finish(), &table);
        let mut read = 0;
        while !r.is_empty() {
            r.get_shared_str().unwrap();
            read += 1;
        }
        assert_eq!(read, 15_000);
        let slots = table.slots();
        assert_eq!(slots.len(), STR_TABLE_SLOTS);
        assert!(slots.iter().flatten().all(|t| t.len() <= MAX_TABLED_STR));
        let tabled = slots.iter().flatten().count();
        assert!(tabled > STR_TABLE_SLOTS / 2, "{tabled} slots used");
    }

    #[test]
    fn strings_are_read_where_they_lie() {
        let mut w = Writer::new();
        w.put_str("skipped").put_str("SELECT 1").put_u8(9);
        let mut r = Reader::new(w.finish());
        r.skip_str().unwrap();
        // A clone looks ahead without moving the original.
        assert_eq!(r.clone().get_str().unwrap(), "SELECT 1");
        let view = r.get_str_view().unwrap();
        assert_eq!(&*view, "SELECT 1");
        assert_eq!(r.get_u8().unwrap(), 9);
        assert!(r.is_empty());
        assert_eq!(view.len(), 8, "the view outlives its reader's position");
    }

    #[test]
    #[should_panic(expected = "a framed writer ends in finish_frame")]
    fn a_framed_writer_does_not_finish_headerless() {
        Writer::framed().finish();
    }

    #[test]
    #[should_panic(expected = "not a framed writer")]
    fn a_plain_writer_has_no_room_for_a_header() {
        Writer::new().finish_frame(protocol::JDBC, 0, 0);
    }

    #[test]
    fn a_kept_buffer_writes_the_bytes_a_fresh_one_does() {
        let write = |w: &mut Writer| {
            w.put_u8(2).put_u64(7).put_str("SELECT 1");
        };
        let mut fresh = Writer::framed();
        write(&mut fresh);
        let fresh = fresh.finish_frame(protocol::JDBC, 3, 9);
        // A dirty buffer with more room than a framed writer starts with.
        let mut dirty = BytesMut::with_capacity(4 * (FRAME_HEADER_LEN + FRAMED_CAPACITY));
        dirty.put_slice(&[0xAB; 300]);
        let mut kept = Writer::framed_in(dirty);
        write(&mut kept);
        let (message, buf) = kept.finish_frame_keeping(protocol::JDBC, 3, 9);
        assert_eq!(message, fresh);
        assert!(buf.capacity() >= 4 * (FRAME_HEADER_LEN + FRAMED_CAPACITY));
        // And again in the buffer handed back.
        let mut again = Writer::framed_in(buf);
        write(&mut again);
        assert_eq!(again.finish_frame(protocol::JDBC, 3, 9), fresh);
        // The same for a plain writer.
        let mut stale = BytesMut::with_capacity(512);
        stale.put_slice(b"stale");
        let mut plain = Writer::new_in(stale);
        plain.put_str("abc");
        let (message, _) = plain.finish_keeping();
        let mut fresh = Writer::new();
        fresh.put_str("abc");
        assert_eq!(message, fresh.finish());
    }

    #[test]
    fn a_buffer_past_the_cap_is_not_handed_back() {
        let mut w = Writer::framed_in(BytesMut::new());
        w.put_raw(&vec![7; MAX_KEPT_CAPACITY]);
        let (message, buf) = w.finish_frame_keeping(protocol::JDBC, 1, 0);
        assert_eq!(message.len(), FRAME_HEADER_LEN + MAX_KEPT_CAPACITY);
        assert_eq!(buf.capacity(), 0);
        let mut w = Writer::new_in(BytesMut::new());
        w.put_raw(&vec![7; MAX_KEPT_CAPACITY + 1]);
        assert_eq!(w.finish_keeping().1.capacity(), 0);
    }

    #[test]
    fn error_displays_context() {
        let e = DecodeError::new("u64");
        assert_eq!(e.to_string(), "malformed wire frame: u64");
    }

    #[test]
    fn frame_round_trip() {
        let payload = Bytes::from_static(b"SELECT * FROM quote");
        let framed = frame(protocol::JDBC, 42, &payload);
        assert_eq!(framed.len(), 32 + payload.len());
        let (header, body) = unframe(framed).unwrap();
        assert_eq!(header.protocol, protocol::JDBC);
        assert_eq!(header.correlation, 42);
        assert_eq!(header.trace_id, 0, "plain frame carries no trace");
        assert_eq!(body, payload);
    }

    #[test]
    fn traced_frame_carries_trace_id_without_growing() {
        let payload = Bytes::from_static(b"commit");
        let framed = frame_traced(protocol::BACKEND, 9, 0xDEAD_BEEF, &payload);
        assert_eq!(framed.len(), 32 + payload.len(), "token slot is in-band");
        let (header, body) = unframe(framed).unwrap();
        assert_eq!(header.trace_id, 0xDEAD_BEEF);
        assert_eq!(header.correlation, 9);
        assert_eq!(body, payload);
    }

    #[test]
    fn frame_bytes_are_pinned() {
        // Header layout and checksum, byte for byte: magic "SLIW",
        // version 1, protocol, correlation, trace id, payload length,
        // checksum (acc * 31 + byte, wrapping), then the payload.
        let payload = Bytes::from_static(b"SELECT 1");
        let framed = frame_traced(
            protocol::JDBC,
            0x0102_0304_0506_0708,
            0x1112_1314_1516_1718,
            &payload,
        );
        let expected: [u8; 40] = [
            0x53, 0x4C, 0x49, 0x57, // magic
            0x00, 0x01, // version
            0x44, 0x42, // protocol::JDBC
            0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, // correlation
            0x11, 0x12, 0x13, 0x14, 0x15, 0x16, 0x17, 0x18, // trace id
            0x00, 0x00, 0x00, 0x08, // payload length
            0x75, 0xAB, 0xDE, 0x0D, // checksum
            b'S', b'E', b'L', b'E', b'C', b'T', b' ', b'1',
        ];
        assert_eq!(&framed[..], &expected[..]);
        assert_eq!(
            &frame(protocol::BACKEND, 7, &Bytes::new())[..],
            &[
                0x53, 0x4C, 0x49, 0x57, 0, 1, 0x52, 0x4D, 0, 0, 0, 0, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0,
                0, 0, 0, 0, 0, 0, 0, 0, 0, 0
            ][..],
            "empty payload: length 0, checksum 0"
        );
    }

    #[test]
    fn the_checksum_is_the_byte_fold_at_every_length_around_its_stride() {
        let payload: Vec<u8> = (0..40u32).map(|i| (i * 37 + 201) as u8).collect();
        for len in 0..=payload.len() {
            let fold = payload[..len]
                .iter()
                .fold(0u32, |acc, b| acc.wrapping_mul(31).wrapping_add(*b as u32));
            assert_eq!(checksum(&payload[..len]), fold, "{len} bytes");
        }
    }

    #[test]
    fn frame_detects_corruption() {
        let payload = Bytes::from_static(b"data");
        let framed = frame(protocol::BACKEND, 1, &payload);
        // flip a payload byte
        let mut bad = framed.to_vec();
        let last = bad.len() - 1;
        bad[last] ^= 0xff;
        assert!(unframe(Bytes::from(bad)).is_err());
        // bad magic
        let mut bad = framed.to_vec();
        bad[0] = 0;
        assert!(unframe(Bytes::from(bad)).is_err());
        // truncated
        assert!(unframe(framed.slice(0..10)).is_err());
    }

    #[test]
    fn string_parts_encode_as_their_concatenation() {
        let (mut whole, mut parts) = (Writer::new(), Writer::new());
        whole.put_str("com.example.QuoteMemento");
        parts.put_str_parts(&["com.example.", "Quote", "Memento"]);
        assert_eq!(parts.finish(), whole.finish());
    }

    #[test]
    fn writer_len_tracks_bytes() {
        let mut w = Writer::new();
        assert!(w.is_empty());
        w.put_str("abc");
        assert_eq!(w.len(), 4 + 3);
    }
}
