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
use std::sync::Arc;

use bytes::{Buf, BufMut, Bytes, BytesMut};

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
pub fn frame_traced(proto: u16, correlation: u64, trace_id: u64, payload: &Bytes) -> Bytes {
    // Header and payload go into the one buffer the frame is sized for.
    let mut buf = BytesMut::with_capacity(FRAME_HEADER_LEN + payload.len());
    buf.put_u32(FRAME_MAGIC);
    buf.put_u16(FRAME_VERSION);
    buf.put_u16(proto);
    buf.put_u64(correlation);
    buf.put_u64(trace_id);
    buf.put_u32(payload.len() as u32);
    buf.put_u32(checksum(payload));
    buf.put_slice(payload);
    buf.freeze()
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

fn checksum(payload: &[u8]) -> u32 {
    payload
        .iter()
        .fold(0u32, |acc, b| acc.wrapping_mul(31).wrapping_add(*b as u32))
}

/// Incrementally builds an encoded frame.
#[derive(Debug, Default)]
pub struct Writer {
    buf: BytesMut,
}

impl Writer {
    /// Creates an empty frame writer.
    pub fn new() -> Writer {
        Writer {
            buf: BytesMut::with_capacity(128),
        }
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

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Finalizes the frame.
    pub fn finish(self) -> Bytes {
        self.buf.freeze()
    }
}

/// Decodes a frame produced by [`Writer`].
#[derive(Debug)]
pub struct Reader {
    buf: Bytes,
}

impl Reader {
    /// Wraps an encoded frame for reading.
    pub fn new(buf: Bytes) -> Reader {
        Reader { buf }
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

    /// Reads a length-prefixed UTF-8 string straight into a shared `str`
    /// (one allocation, for names that many values will point at).
    ///
    /// # Errors
    /// Returns [`DecodeError`] on truncation or invalid UTF-8.
    pub fn get_shared_str(&mut self) -> Result<Arc<str>, DecodeError> {
        let raw = self.get_bytes()?;
        std::str::from_utf8(&raw)
            .map(Arc::from)
            .map_err(|_| DecodeError::new("utf-8"))
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
        let mut r = Reader::new(frame);
        assert!(r.get_str().is_err());
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
        assert!(Reader::new(frame).get_shared_str().is_err());
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
