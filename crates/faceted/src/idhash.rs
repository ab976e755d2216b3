//! A multiply-rotate hasher for keys the process mints itself.
//!
//! `std`'s default SipHash is keyed per map to resist HashDoS: an
//! attacker who picks the keys cannot make them collide. Labels, node
//! ids and `jid`s are allocated by counters inside the process, so no
//! outside party picks them, and hashing one is a multiply instead of
//! a SipHash round. Maps keyed by outside data (interned leaf values,
//! index keys) keep SipHash.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A fast, unkeyed [`Hasher`]: each word is rotated into the state and
/// multiplied by an odd constant (the scheme of rustc's `FxHasher`).
#[derive(Clone, Copy, Debug, Default)]
pub struct IdHasher(u64);

/// An odd constant with well-spread bits (from `FxHasher`).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl IdHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.add(u64::from_le_bytes(word.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Builds [`IdHasher`]s (stateless: every map hashes alike).
pub type IdBuildHasher = BuildHasherDefault<IdHasher>;

/// A `HashMap` keyed by process-minted ids, hashed with [`IdHasher`].
pub type IdHashMap<K, V> = HashMap<K, V, IdBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<K: Hash>(key: &K) -> u64 {
        IdBuildHasher::default().hash_one(key)
    }

    #[test]
    fn distinct_keys_hash_apart() {
        let hashes: std::collections::HashSet<u64> = (0..10_000u64).map(|i| hash_of(&i)).collect();
        assert_eq!(hashes.len(), 10_000);
        assert_ne!(hash_of(&(1u32, 2u64)), hash_of(&(2u32, 1u64)));
        assert_ne!(hash_of(&(7u64, true)), hash_of(&(7u64, false)));
        assert_ne!(hash_of(&"paper"), hash_of(&"review"));
        assert_eq!(hash_of(&"paper"), hash_of(&String::from("paper")));
    }
}
