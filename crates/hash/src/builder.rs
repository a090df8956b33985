//! A fast, seeded `BuildHasher` for hash maps in hot paths.
//!
//! The standard library's default SipHash is robust against HashDoS but slow
//! for the integer keys (pattern keys, hashes) that dominate this workspace.
//! All inputs here are either trusted or already randomized by seeded
//! hashing, so an FxHash-style multiply-fold hasher is appropriate (see the
//! Rust performance book's Hashing chapter). Seeding keeps iteration order
//! deterministic for a fixed seed, which experiment reproducibility relies
//! on (we never iterate maps where order matters without sorting, but
//! determinism aids debugging).

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};

use crate::mix::{mix64, GOLDEN_GAMMA};

/// `BuildHasher` producing [`SeededHasher`]s; cheap to clone and copy.
#[derive(Debug, Clone, Copy, Default)]
pub struct SeededState {
    seed: u64,
}

impl SeededState {
    /// Create a state with an explicit seed.
    fn new(seed: u64) -> Self {
        Self { seed }
    }
}

impl BuildHasher for SeededState {
    type Hasher = SeededHasher;

    #[inline]
    fn build_hasher(&self) -> SeededHasher {
        SeededHasher {
            acc: self.seed ^ GOLDEN_GAMMA,
        }
    }
}

/// Word-at-a-time multiply-fold hasher (FxHash-flavoured with a final
/// avalanche so low bits are usable by the table).
#[derive(Debug)]
pub struct SeededHasher {
    acc: u64,
}

impl SeededHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.acc = (self.acc.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for SeededHasher {
    #[inline]
    fn finish(&self) -> u64 {
        mix64(self.acc)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rem.len()].copy_from_slice(rem);
            self.add(u64::from_le_bytes(tail) ^ (rem.len() as u64) << 56);
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.add(i as u64);
        self.add((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }
}

/// A `HashMap` keyed with the seeded fast hasher.
pub type SeededHashMap<K, V> = HashMap<K, V, SeededState>;

/// A `HashSet` keyed with the seeded fast hasher.
pub type SeededHashSet<K> = HashSet<K, SeededState>;

/// Construct an empty [`SeededHashMap`] with the given seed.
pub fn seeded_map<K, V>(seed: u64) -> SeededHashMap<K, V> {
    HashMap::with_hasher(SeededState::new(seed))
}

/// Construct an empty [`SeededHashSet`] with the given seed.
pub fn seeded_set<K>(seed: u64) -> SeededHashSet<K> {
    HashSet::with_hasher(SeededState::new(seed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_one<T: Hash>(state: &SeededState, v: &T) -> u64 {
        state.hash_one(v)
    }

    #[test]
    fn deterministic_per_seed() {
        let s1 = SeededState::new(9);
        let s2 = SeededState::new(9);
        let s3 = SeededState::new(10);
        assert_eq!(hash_one(&s1, &12345u64), hash_one(&s2, &12345u64));
        assert_ne!(hash_one(&s1, &12345u64), hash_one(&s3, &12345u64));
    }

    #[test]
    fn distinct_u64_keys_rarely_collide() {
        let s = SeededState::new(0);
        let mut seen = std::collections::HashSet::new();
        for i in 0..50_000u64 {
            seen.insert(hash_one(&s, &i));
        }
        // A 64-bit hash over 50k items should have no collisions whp.
        assert_eq!(seen.len(), 50_000);
    }

    #[test]
    fn u128_both_halves_matter() {
        let s = SeededState::new(4);
        let a = hash_one(&s, &(1u128));
        let b = hash_one(&s, &(1u128 << 64));
        assert_ne!(a, b);
    }

    #[test]
    fn map_smoke() {
        let mut m: SeededHashMap<u64, u32> = seeded_map(77);
        for i in 0..1000 {
            *m.entry(i % 10).or_insert(0) += 1;
        }
        assert_eq!(m.len(), 10);
        assert!(m.values().all(|&v| v == 100));
    }

    #[test]
    fn set_smoke() {
        let mut s: SeededHashSet<&str> = seeded_set(5);
        assert!(s.insert("a"));
        assert!(!s.insert("a"));
        assert!(s.contains("a"));
    }

    #[test]
    fn byte_slices_length_distinguished() {
        let s = SeededState::new(1);
        assert_ne!(
            hash_one(&s, &[1u8, 2, 3].as_slice()),
            hash_one(&s, &[1u8, 2, 3, 0].as_slice())
        );
    }
}
