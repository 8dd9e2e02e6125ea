//! A minimal, API-compatible stand-in for the `bytes` crate so the
//! workspace builds with no registry access.
//!
//! [`Bytes`] is a cheaply-cloneable view into a shared, immutable buffer
//! (`Arc<[u8]>` + a window); [`BytesMut`] is a growable buffer that freezes
//! into one. The [`Buf`]/[`BufMut`] traits carry the big-endian cursor
//! methods the wire codec uses. Only the surface this workspace exercises
//! is implemented.

#![forbid(unsafe_code)]

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, DerefMut, RangeBounds};
use std::sync::Arc;

/// A cheaply-cloneable, contiguous, immutable byte buffer.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<[u8]>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// Creates an empty buffer.
    pub fn new() -> Bytes {
        Bytes::default()
    }

    /// Wraps a static byte slice (copied here; the real crate borrows).
    pub fn from_static(bytes: &'static [u8]) -> Bytes {
        Bytes::copy_from_slice(bytes)
    }

    /// Copies `bytes` into a new buffer.
    pub fn copy_from_slice(bytes: &[u8]) -> Bytes {
        let data: Arc<[u8]> = Arc::from(bytes);
        Bytes {
            start: 0,
            end: data.len(),
            data,
        }
    }

    /// Number of bytes in the view.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Returns a sub-view sharing the same underlying storage.
    ///
    /// # Panics
    /// Panics if the range is out of bounds.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(lo <= hi && hi <= self.len(), "slice out of bounds");
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + lo,
            end: self.start + hi,
        }
    }

    /// Splits off and returns the first `at` bytes; `self` keeps the rest.
    ///
    /// # Panics
    /// Panics if `at > len`.
    pub fn split_to(&mut self, at: usize) -> Bytes {
        assert!(at <= self.len(), "split_to out of bounds");
        let head = self.slice(0..at);
        self.start += at;
        head
    }

    /// Copies the view into a fresh `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    fn as_slice(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        write!(f, "\"")
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        let data: Arc<[u8]> = Arc::from(v);
        Bytes {
            start: 0,
            end: data.len(),
            data,
        }
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(v: &'static [u8]) -> Bytes {
        Bytes::copy_from_slice(v)
    }
}

impl From<String> for Bytes {
    fn from(v: String) -> Bytes {
        Bytes::from(v.into_bytes())
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Bytes {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

/// A growable byte buffer that freezes into [`Bytes`].
#[derive(Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    buf: Vec<u8>,
}

impl BytesMut {
    /// Creates an empty buffer.
    pub fn new() -> BytesMut {
        BytesMut::default()
    }

    /// Creates an empty buffer with room for `capacity` bytes.
    pub fn with_capacity(capacity: usize) -> BytesMut {
        BytesMut {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Number of bytes written.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Number of bytes the buffer holds without reallocating.
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Empties the buffer, keeping its room.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Appends `extend` to the buffer.
    pub fn extend_from_slice(&mut self, extend: &[u8]) {
        self.buf.extend_from_slice(extend);
    }

    /// Converts the buffer into an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.buf)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.buf
    }
}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&Bytes::copy_from_slice(&self.buf), f)
    }
}

/// Read cursor over a contiguous byte buffer (big-endian accessors).
pub trait Buf {
    /// Bytes left to consume.
    fn remaining(&self) -> usize;
    /// The unconsumed bytes.
    fn chunk(&self) -> &[u8];
    /// Consumes `cnt` bytes.
    fn advance(&mut self, cnt: usize);

    /// Reads one byte.
    fn get_u8(&mut self) -> u8 {
        let v = self.chunk()[0];
        self.advance(1);
        v
    }

    /// Reads a big-endian `u16`.
    fn get_u16(&mut self) -> u16 {
        let mut raw = [0u8; 2];
        raw.copy_from_slice(&self.chunk()[..2]);
        self.advance(2);
        u16::from_be_bytes(raw)
    }

    /// Reads a big-endian `u32`.
    fn get_u32(&mut self) -> u32 {
        let mut raw = [0u8; 4];
        raw.copy_from_slice(&self.chunk()[..4]);
        self.advance(4);
        u32::from_be_bytes(raw)
    }

    /// Reads a big-endian `u64`.
    fn get_u64(&mut self) -> u64 {
        let mut raw = [0u8; 8];
        raw.copy_from_slice(&self.chunk()[..8]);
        self.advance(8);
        u64::from_be_bytes(raw)
    }

    /// Reads a big-endian `i64`.
    fn get_i64(&mut self) -> i64 {
        let mut raw = [0u8; 8];
        raw.copy_from_slice(&self.chunk()[..8]);
        self.advance(8);
        i64::from_be_bytes(raw)
    }

    /// Reads a big-endian IEEE-754 `f64`.
    fn get_f64(&mut self) -> f64 {
        f64::from_bits(self.get_u64())
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        self.as_slice()
    }

    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance out of bounds");
        self.start += cnt;
    }
}

/// Write cursor over a growable byte buffer (big-endian appenders).
pub trait BufMut {
    /// Appends raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Appends a big-endian `u16`.
    fn put_u16(&mut self, v: u16) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `u32`.
    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `u64`.
    fn put_u64(&mut self, v: u64) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `i64`.
    fn put_i64(&mut self, v: i64) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian IEEE-754 `f64`.
    fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends `cnt` copies of `val`.
    fn put_bytes(&mut self, val: u8, cnt: usize) {
        self.put_slice(&vec![val; cnt]);
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.buf.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trip() {
        let mut w = BytesMut::with_capacity(32);
        w.put_u8(7);
        w.put_u16(600);
        w.put_u32(70_000);
        w.put_u64(1 << 40);
        w.put_i64(-5);
        w.put_f64(2.5);
        let mut b = w.freeze();
        assert_eq!(b.get_u8(), 7);
        assert_eq!(b.get_u16(), 600);
        assert_eq!(b.get_u32(), 70_000);
        assert_eq!(b.get_u64(), 1 << 40);
        assert_eq!(b.get_i64(), -5);
        assert_eq!(b.get_f64(), 2.5);
        assert_eq!(b.remaining(), 0);
    }

    #[test]
    fn slice_and_split_share_storage() {
        let b = Bytes::from(vec![0, 1, 2, 3, 4, 5]);
        let mid = b.slice(2..5);
        assert_eq!(&mid[..], &[2, 3, 4]);
        let mut rest = b.clone();
        let head = rest.split_to(2);
        assert_eq!(&head[..], &[0, 1]);
        assert_eq!(&rest[..], &[2, 3, 4, 5]);
        assert_eq!(b.len(), 6);
    }

    #[test]
    fn equality_and_debug() {
        let a = Bytes::from_static(b"abc");
        let b = Bytes::from(vec![b'a', b'b', b'c']);
        assert_eq!(a, b);
        assert_eq!(format!("{a:?}"), "b\"abc\"");
    }

    #[test]
    fn clear_keeps_the_room() {
        let mut w = BytesMut::with_capacity(64);
        w.put_slice(b"stale");
        w.clear();
        assert!(w.is_empty());
        assert!(w.capacity() >= 64);
    }

    #[test]
    #[should_panic(expected = "split_to out of bounds")]
    fn split_past_end_panics() {
        let mut b = Bytes::from_static(b"xy");
        b.split_to(3);
    }
}
