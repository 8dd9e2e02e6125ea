//! The hasher behind the engine's own keyed maps.
//!
//! A statement looks up its plan by SQL text, its table by name, and each
//! lock it takes by table name and key; a wire statement also finds its
//! session by id. SipHash, the standard map's default, spends longer on
//! those short keys than the lookups themselves. `FxHasher` is the
//! multiply-and-rotate word hash the Rust compiler uses for its own tables:
//! a word a step, no per-map seed. It gives up SipHash's resistance to
//! keys crafted to collide, which these maps do not need: their keys are
//! the texts the workspace's own clients send, the names its own schemas
//! declare and the ids the server itself hands out.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A map keyed by [`FxHasher`].
pub(crate) type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A set keyed by [`FxHasher`].
pub(crate) type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

/// The multiplier, from the fractional digits of the golden ratio as the
/// compiler's own `FxHasher` has it.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Folds each word in as `(hash.rotl(5) ^ word) * SEED`.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct FxHasher {
    hash: u64,
}

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.add(u64::from_le_bytes(
                word.try_into().expect("an 8-byte chunk"),
            ));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut last = [0u8; 8];
            last[..tail.len()].copy_from_slice(tail);
            self.add(u64::from_le_bytes(last));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash<T: Hash + ?Sized>(value: &T) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(value)
    }

    #[test]
    fn equal_keys_hash_equal_and_near_keys_apart() {
        assert_eq!(hash("account"), hash(&String::from("account")));
        assert_eq!(hash(&7u64), hash(&7u64));
        // Every length up to two words, and texts differing in one byte at
        // any position, including the zero-padded tail.
        let text = "SELECT owner FROM account WHERE k = ?";
        let mut seen = FxHashSet::default();
        for len in 0..=text.len() {
            assert!(seen.insert(hash(&text[..len])), "prefix of {len}");
        }
        for at in 0..text.len() {
            let mut bytes = text.as_bytes().to_vec();
            bytes[at] ^= 1;
            assert_ne!(hash(&bytes[..]), hash(text.as_bytes()), "byte {at}");
        }
    }
}
