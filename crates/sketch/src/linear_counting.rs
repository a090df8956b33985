//! Linear (probabilistic) counting — Whang et al.
//!
//! A bitmap of `m` bits; each item sets the bit at `h(item) mod m`. The
//! distinct count estimate is `m · ln(m / z)` where `z` is the number of
//! zero bits. Accurate while the load factor is moderate; saturates as
//! `z → 0`. Included as an `F_0` plug-in for the α-net ablation
//! (cheapest per-sketch memory at low cardinalities, degrades predictably —
//! the E-A2 experiment shows the crossover against KMV).

use crate::traits::{vec_bytes, DistinctSketch, SpaceUsage};
use pfe_hash::hash_u64;

/// Linear counting sketch with an `m`-bit bitmap.
#[derive(Debug, Clone)]
pub struct LinearCounting {
    bits: Vec<u64>,
    m: usize,
    seed: u64,
}

impl LinearCounting {
    /// Create a sketch with `m` bits.
    ///
    /// # Panics
    /// Panics if `m == 0`.
    pub fn new(m: usize, seed: u64) -> Self {
        assert!(m > 0, "bitmap size must be positive");
        Self {
            bits: vec![0u64; m.div_ceil(64)],
            m,
            seed,
        }
    }

    /// Number of zero bits.
    pub fn zeros(&self) -> usize {
        let ones: u32 = self.bits.iter().map(|w| w.count_ones()).sum();
        self.m - ones as usize
    }
}

impl SpaceUsage for LinearCounting {
    fn space_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + vec_bytes(&self.bits)
    }
}

impl DistinctSketch for LinearCounting {
    fn insert(&mut self, item: u64) {
        let h = hash_u64(item, self.seed) as usize % self.m;
        self.bits[h / 64] |= 1u64 << (h % 64);
    }

    fn estimate(&self) -> f64 {
        let z = self.zeros();
        if z == 0 {
            // Saturated: report the (finite) estimate for half a zero bit —
            // a documented convention so downstream math never sees inf.
            return self.m as f64 * (2.0 * self.m as f64).ln();
        }
        self.m as f64 * (self.m as f64 / z as f64).ln()
    }

    fn merge(&mut self, other: &Self) {
        assert_eq!(self.m, other.m, "LinearCounting merge: size mismatch");
        assert_eq!(self.seed, other.seed, "LinearCounting merge: seed mismatch");
        for (a, &b) in self.bits.iter_mut().zip(&other.bits) {
            *a |= b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn low_load_accurate() {
        let mut s = LinearCounting::new(4096, 1);
        for i in 0..500u64 {
            s.insert(i);
        }
        let est = s.estimate();
        assert!((est - 500.0).abs() < 50.0, "estimate {est}");
    }

    #[test]
    fn duplicates_do_not_inflate() {
        let mut s = LinearCounting::new(1024, 2);
        for _ in 0..100 {
            for i in 0..100u64 {
                s.insert(i);
            }
        }
        let est = s.estimate();
        assert!((est - 100.0).abs() < 20.0, "estimate {est}");
    }

    #[test]
    fn saturation_is_finite_and_flagged() {
        let mut s = LinearCounting::new(64, 3);
        for i in 0..10_000u64 {
            s.insert(i);
        }
        assert_eq!(s.zeros(), 0);
        assert!(s.estimate().is_finite());
        assert!(s.estimate() > 64.0);
    }

    #[test]
    fn merge_equals_union() {
        let mut a = LinearCounting::new(2048, 4);
        let mut b = LinearCounting::new(2048, 4);
        let mut u = LinearCounting::new(2048, 4);
        for i in 0..300u64 {
            a.insert(i);
            u.insert(i);
        }
        for i in 200..500u64 {
            b.insert(i);
            u.insert(i);
        }
        a.merge(&b);
        assert_eq!(a.estimate(), u.estimate());
    }

    #[test]
    fn space_tracks_bitmap() {
        let s = LinearCounting::new(8192, 0);
        assert!(s.space_bytes() >= 1024);
        assert!(s.space_bytes() < 1024 + 128);
    }

    #[test]
    fn empty_estimates_zero() {
        let s = LinearCounting::new(256, 7);
        assert_eq!(s.estimate(), 0.0);
        assert_eq!(s.zeros(), 256);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn merge_rejects_mismatch() {
        let mut a = LinearCounting::new(64, 0);
        let b = LinearCounting::new(128, 0);
        a.merge(&b);
    }

    #[test]
    fn non_multiple_of_64_bits() {
        let mut s = LinearCounting::new(100, 5);
        for i in 0..30u64 {
            s.insert(i);
        }
        let est = s.estimate();
        assert!((est - 30.0).abs() < 12.0, "estimate {est}");
        assert_eq!(s.zeros() + 30, 100.max(s.zeros() + 30)); // zeros <= 100-… sanity
    }
}
