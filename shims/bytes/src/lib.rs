//! A minimal, API-compatible stand-in for the `bytes` crate so the
//! workspace builds with no registry access.
//!
//! [`Bytes`] is a cheaply-cloneable view into a shared, immutable buffer
//! (`Arc<[u8]>` + a window); [`BytesMut`] is a growable buffer that freezes
//! into one. The [`Buf`]/[`BufMut`] traits carry the big-endian cursor
//! methods the wire codec uses. Only the surface this workspace exercises
//! is implemented.
//!
//! One departure from the upstream API: [`BytesMut::recycled_copy`] copies
//! the written bytes out as a [`Bytes`] in the allocation the buffer's
//! previous copy used, once nothing holds that copy any more. It is sound
//! only because this crate has no `unsafe`: [`Arc::get_mut`] is the one way
//! to write a shared allocation, and it refuses while any view of it lives.

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
#[derive(Clone, Default)]
pub struct BytesMut {
    buf: Vec<u8>,
    /// The allocation of the last [`BytesMut::recycled_copy`], which the
    /// next one writes into if nothing else holds it by then. A clone
    /// shares it, so neither twin writes it while the other holds it.
    sent: Option<Arc<[u8]>>,
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
            sent: None,
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

    /// Copies the written bytes out as an immutable [`Bytes`], keeping the
    /// buffer. The copy is written into the allocation the previous copy
    /// used when nothing holds that one any more and it has the room;
    /// otherwise it is a new allocation of exactly the written length, which
    /// the next call may write into in turn. A copy that is still held is
    /// never written: only an unshared allocation can be borrowed mutably.
    ///
    /// Not in the upstream `bytes` crate (see the crate docs).
    pub fn recycled_copy(&mut self) -> Bytes {
        let len = self.buf.len();
        let mut last = self.sent.take().filter(|slab| slab.len() >= len);
        let data = match last.as_mut().and_then(Arc::get_mut) {
            Some(free) => {
                free[..len].copy_from_slice(&self.buf);
                last
            }
            None => None,
        }
        .unwrap_or_else(|| Arc::from(&self.buf[..]));
        self.sent = Some(Arc::clone(&data));
        Bytes {
            data,
            start: 0,
            end: len,
        }
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

/// By the written bytes, not the room or the last copy's allocation.
impl PartialEq for BytesMut {
    fn eq(&self, other: &BytesMut) -> bool {
        self.buf == other.buf
    }
}

impl Eq for BytesMut {}

/// The written bytes, as [`Bytes`] shows them.
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

    /// `w` emptied and refilled with `bytes`, copied out.
    fn send(w: &mut BytesMut, bytes: &[u8]) -> Bytes {
        w.clear();
        w.put_slice(bytes);
        w.recycled_copy()
    }

    #[test]
    fn a_dropped_copys_allocation_is_written_again() {
        let mut w = BytesMut::new();
        let first = send(&mut w, b"hello");
        let at = first.as_ptr();
        drop(first);
        let second = send(&mut w, b"world");
        assert_eq!(second.as_ptr(), at);
        assert_eq!(&second[..], b"world");
        let mut same = BytesMut::with_capacity(64);
        same.put_slice(b"world");
        assert_eq!(w, same, "equal by the written bytes alone");
    }

    #[test]
    fn a_held_copy_keeps_its_bytes_and_the_next_is_a_new_allocation() {
        let mut w = BytesMut::new();
        let held = send(&mut w, b"hello");
        let next = send(&mut w, b"world");
        assert_eq!(&held[..], b"hello");
        assert_eq!(&next[..], b"world");
        assert_ne!(held.as_ptr(), next.as_ptr());
        assert_eq!(next.data.len(), 5, "exact size");
    }

    #[test]
    fn a_longer_message_gets_a_new_exact_allocation() {
        let mut w = BytesMut::new();
        drop(send(&mut w, b"ab"));
        let long = send(&mut w, b"abcdef");
        assert_eq!(long.data.len(), 6, "exact size");
        assert_eq!(&long[..], b"abcdef");
        let at = long.as_ptr();
        drop(long);
        // A shorter one fits in what the longer one left.
        let short = send(&mut w, b"xy");
        assert_eq!((short.as_ptr(), short.len()), (at, 2));
        assert_eq!(&short[..], b"xy");
    }

    #[test]
    fn a_clone_never_writes_where_its_twins_copy_lives() {
        let mut w = BytesMut::new();
        let held = send(&mut w, b"abc");
        let mut twin = w.clone();
        let other = send(&mut twin, b"xyz");
        assert_eq!((&held[..], &other[..]), (&b"abc"[..], &b"xyz"[..]));
        // With the copy dropped, both twins still hold its allocation, so
        // neither writes it; once one has moved on, the other may.
        drop(held);
        let mut w2 = w.clone();
        let a = send(&mut w2, b"one");
        let b = send(&mut w, b"two");
        assert_ne!(a.as_ptr(), b.as_ptr());
        assert_eq!((&a[..], &b[..]), (&b"one"[..], &b"two"[..]));
        assert_eq!(format!("{w:?}"), "b\"two\"");
    }

    #[test]
    fn no_held_copy_ever_changes() {
        // Seeded random sequences of writes, holds, drops and clones over a
        // few buffers: every copy still held reads what it was written as.
        let mut state = 0x5eed_b17e_u64;
        let mut next = move |below: u64| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % below
        };
        let (mut reused, mut written) = (0, 0);
        for _ in 0..10_000 {
            let mut writers = vec![BytesMut::new(), BytesMut::new()];
            let mut held: Vec<(Bytes, Vec<u8>)> = Vec::new();
            for _ in 0..24 {
                let i = next(writers.len() as u64) as usize;
                match next(8) {
                    0..=4 => {
                        let len = next(12) as usize;
                        let bytes: Vec<u8> = (0..len).map(|_| next(256) as u8).collect();
                        let last = writers[i].sent.as_ref().map(|s| s.as_ptr());
                        let copy = send(&mut writers[i], &bytes);
                        reused += usize::from(last == Some(copy.as_ptr()));
                        written += 1;
                        held.push((copy, bytes));
                    }
                    5 | 6 if !held.is_empty() => {
                        held.swap_remove(next(held.len() as u64) as usize);
                    }
                    _ if writers.len() < 4 => writers.push(writers[i].clone()),
                    _ => {}
                }
                for (copy, bytes) in &held {
                    assert_eq!(&copy[..], &bytes[..]);
                }
            }
        }
        assert!(reused > written / 10, "{reused} of {written} reused");
    }

    #[test]
    #[should_panic(expected = "split_to out of bounds")]
    fn split_past_end_panics() {
        let mut b = Bytes::from_static(b"xy");
        b.split_to(3);
    }
}
