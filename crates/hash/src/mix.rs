//! Stateless 64-bit mixing primitives.
//!
//! These are the building blocks for seeded item hashing throughout the
//! sketch library: a sketch that needs `h(item)` computes
//! [`hash_u64`]`(item, seed)`, which behaves as a fixed random function for
//! each seed. The finalizer is the SplitMix64 / MurmurHash3 `fmix64`
//! construction, which passes SMHasher-style avalanche tests.
//!
//! # A block of keys, one pass
//!
//! An α-net sweep hands each member the keys of a whole run of rows at
//! once, and every member sketch wants them fingerprinted —
//! [`hash_u128`]`(key, seed)` — and a KMV then hashes each fingerprint
//! again under its own seed. [`hash_keys`] does both for a block in one
//! loop over the keys: the terms that depend on a seed alone (`mix64` of
//! it, its golden-ratio multiple) are worked out once per block, not once
//! per key, and a key below `2^64` is a `u128` whose high word is zero,
//! so its fingerprint is [`hash_u64`] under one fixed derived seed. The
//! loop is compiled for AVX-512 F+DQ (eight lanes of `vpmullq`, the
//! 64-bit lane product `mix64` needs) and for AVX2, and the caller hands
//! in the [`Features`] the CPU was found to have ([`isa`](crate::isa));
//! without either it runs as compiled for the baseline, which is also
//! the reference its tests compare every instantiation against. Every route gives the per-key hashes exactly.

use crate::isa::{Features, Kernel};

/// MurmurHash3 `fmix64` finalizer: a bijective avalanche mixer on `u64`.
///
/// Every output bit depends on every input bit with probability ~1/2. Because
/// it is a bijection, distinct inputs map to distinct outputs, which several
/// sketches rely on (e.g. KMV treats hashes as unique item fingerprints).
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^= x >> 33;
    x
}

/// Golden-ratio increment used by SplitMix64 to decorrelate seed streams.
pub const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// Hash a `u64` item under a `u64` seed.
///
/// For fixed `seed` this is a bijection on items, so it can be used both as a
/// pseudo-random function (across seeds) and as a collision-free fingerprint
/// (within a seed).
#[inline]
pub fn hash_u64(item: u64, seed: u64) -> u64 {
    Seeded::new(seed).hash(item)
}

/// Hash a `u128` item (e.g. a packed projected pattern) under a seed.
#[inline]
pub fn hash_u128(item: u128, seed: u64) -> u64 {
    let lo = item as u64;
    let hi = (item >> 64) as u64;
    // Feed the high word through as part of the seed stream so that patterns
    // differing only above bit 64 still avalanche.
    hash_u64(lo, seed ^ mix64(hi ^ GOLDEN_GAMMA))
}

/// [`hash_u64`] under one seed, with the two terms that depend on the
/// seed alone worked out once.
#[derive(Debug, Clone, Copy)]
struct Seeded {
    seed: u64,
    inner: u64,
    outer: u64,
}

impl Seeded {
    #[inline(always)]
    fn new(seed: u64) -> Self {
        Self {
            seed,
            inner: mix64(seed ^ GOLDEN_GAMMA),
            outer: seed.wrapping_mul(GOLDEN_GAMMA),
        }
    }

    #[inline(always)]
    fn hash(self, item: u64) -> u64 {
        // Two rounds with seed folding on both sides; a single xor-then-mix
        // is measurably weaker when seeds differ in few bits.
        mix64(item ^ self.inner).wrapping_add(self.outer) ^ mix64(item.wrapping_add(self.seed))
    }
}

/// Every key of `keys`, a pattern below `2^64`, replaced by
/// [`hash_u128`]`(key, seed)` and then, for `rehash = Some(s)`, by
/// [`hash_u64`] of that under `s` — a whole block of a member's keys in
/// one pass of the vector kernel, the widest `features` allow (see the
/// [module docs](self)).
pub fn hash_keys(features: Features, keys: &mut [u64], seed: u64, rehash: Option<u64>) {
    // A key below 2^64 is a `u128` whose high word is zero.
    let first = Seeded::new(seed ^ mix64(GOLDEN_GAMMA));
    let then = rehash.map(Seeded::new);
    features.widest(HashKeys { keys, first, then });
}

/// The block hash as a [`Kernel`]: one loop over the block per seed
/// count, which vectorizes across keys.
struct HashKeys<'a> {
    keys: &'a mut [u64],
    first: Seeded,
    then: Option<Seeded>,
}

impl Kernel for HashKeys<'_> {
    type Output = ();

    #[inline(always)]
    fn run(self) {
        let Self { keys, first, then } = self;
        match then {
            Some(then) => keys
                .iter_mut()
                .for_each(|key| *key = then.hash(first.hash(*key))),
            None => keys.iter_mut().for_each(|key| *key = first.hash(*key)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix64_is_bijective_on_samples() {
        // A bijection has no collisions; check a structured sample.
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            assert!(seen.insert(mix64(i)), "collision at {i}");
        }
    }

    #[test]
    fn mix64_fixed_vectors() {
        // Pin the function so seeds stay stable across refactors. fmix64 is a
        // published construction: 0 is its unique fixed point at 0.
        assert_eq!(mix64(0), 0);
        assert_ne!(mix64(1), mix64(2));
        assert_eq!(mix64(0xdead_beef), mix64(0xdead_beef));
        // Round-trip distinctness over a small structured set.
        let vals: Vec<u64> = (0..8).map(|i| mix64(1u64 << (i * 8))).collect();
        for (i, a) in vals.iter().enumerate() {
            for b in &vals[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn hash_u64_differs_across_seeds() {
        let a = hash_u64(42, 1);
        let b = hash_u64(42, 2);
        assert_ne!(a, b);
    }

    #[test]
    fn hash_u64_injective_within_seed() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..20_000u64 {
            assert!(seen.insert(hash_u64(i, 7)), "collision at {i}");
        }
    }

    #[test]
    fn hash_u64_avalanche() {
        // Flipping one input bit should flip ~32 output bits on average.
        let mut total = 0u32;
        let trials = 64 * 100;
        for t in 0..100u64 {
            let x = mix64(t.wrapping_mul(GOLDEN_GAMMA));
            let hx = hash_u64(x, 99);
            for bit in 0..64 {
                total += (hx ^ hash_u64(x ^ (1 << bit), 99)).count_ones();
            }
        }
        let mean = total as f64 / trials as f64;
        assert!(
            (mean - 32.0).abs() < 1.5,
            "poor avalanche: mean flipped bits {mean}"
        );
    }

    /// Every instantiation — AVX-512, AVX2 and the scalar loop, each
    /// picked by narrowed features, so a CPU with AVX-512 still runs the
    /// other two — leaves what the per-key hashes give, at block lengths
    /// on both sides of every vector width.
    #[test]
    fn every_hash_keys_instantiation_equals_the_per_key_hashes() {
        let mut rng = crate::rng::SplitMix64::new(0x6b65);
        let keys: Vec<u64> = [0, 1, 1 << 63, u64::MAX]
            .into_iter()
            .chain((0..500).map(|_| rng.next_u64()))
            .collect();
        let (seed, rehash) = (0xf1a9_f1a9_f1a9_f1a9, 0xbeef);
        for (name, features) in Features::detect().each_build("hash_keys") {
            for len in [0, 1, 7, 8, 9, 15, 16, 17] {
                for at in (0..keys.len()).step_by(len.max(1)) {
                    let block = &keys[at..(at + len).min(keys.len())];
                    for rehash in [None, Some(rehash)] {
                        let mut hashed = block.to_vec();
                        hash_keys(features, &mut hashed, seed, rehash);
                        let expect: Vec<u64> = block
                            .iter()
                            .map(|&k| hash_u128(u128::from(k), seed))
                            .map(|h| rehash.map_or(h, |s| hash_u64(h, s)))
                            .collect();
                        assert_eq!(hashed, expect, "{name} len {len} at {at}");
                    }
                }
            }
        }
    }

    #[test]
    fn hash_u128_distinguishes_high_bits() {
        let lo_only = hash_u128(5u128, 3);
        let hi_only = hash_u128(5u128 << 64, 3);
        let both = hash_u128((5u128 << 64) | 5, 3);
        assert_ne!(lo_only, hi_only);
        assert_ne!(lo_only, both);
        assert_ne!(hi_only, both);
    }
}
