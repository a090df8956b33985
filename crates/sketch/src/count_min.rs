//! CountMin sketch (Cormode & Muthukrishnan) for nonnegative frequency
//! point queries.
//!
//! `depth` rows of `width` counters with pairwise-independent row hashes;
//! a point query returns the minimum counter, overestimating by at most
//! `ε‖f‖_1` with probability `1 - δ` for `width = ⌈e/ε⌉`,
//! `depth = ⌈ln(1/δ)⌉`. Used as the classical-streaming frequency baseline
//! the paper contrasts with, and as an α-net plug-in for projected
//! `ℓ_1`-style frequency queries.

use crate::traits::{vec_bytes, FrequencySketch, SpaceUsage};
use pfe_hash::kwise::TwoWise;
use pfe_persist::Persist;

/// CountMin sketch. Updates must be nonnegative.
#[derive(Debug, Clone)]
pub struct CountMin {
    counters: Vec<u64>, // depth x width, row-major
    hashes: Vec<TwoWise>,
    width: usize,
    total: i64,
}

impl CountMin {
    /// Create a sketch with explicit `depth × width`.
    ///
    /// # Panics
    /// Panics if `depth == 0` or `width == 0`.
    pub fn new(depth: usize, width: usize, seed: u64) -> Self {
        assert!(
            depth > 0 && width > 0,
            "CountMin needs positive depth/width"
        );
        Self {
            counters: vec![0u64; depth * width],
            hashes: (0..depth)
                .map(|j| TwoWise::new(seed.wrapping_add(j as u64).wrapping_mul(0x9e37_79b9)))
                .collect(),
            width,
            total: 0,
        }
    }

    /// Rows of the counter matrix.
    pub fn depth(&self) -> usize {
        self.hashes.len()
    }

    /// Columns of the counter matrix.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Merge a compatible sketch (same shape and seed-derived hashes).
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn merge(&mut self, other: &Self) {
        assert_eq!(self.width, other.width, "CountMin merge: width mismatch");
        assert_eq!(
            self.depth(),
            other.depth(),
            "CountMin merge: depth mismatch"
        );
        for (a, &b) in self.counters.iter_mut().zip(&other.counters) {
            *a += b;
        }
        self.total += other.total;
    }
}

impl SpaceUsage for CountMin {
    fn space_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + vec_bytes(&self.counters)
            + self.hashes.len() * std::mem::size_of::<TwoWise>()
    }
}

impl FrequencySketch for CountMin {
    /// # Panics
    /// Panics if `delta < 0` — CountMin counters are monotone.
    fn update(&mut self, item: u64, delta: i64) {
        assert!(delta >= 0, "CountMin requires nonnegative updates");
        for (j, h) in self.hashes.iter().enumerate() {
            let idx = j * self.width + h.bucket(item, self.width);
            self.counters[idx] += delta as u64;
        }
        self.total += delta;
    }

    fn estimate(&self, item: u64) -> f64 {
        self.hashes
            .iter()
            .enumerate()
            .map(|(j, h)| self.counters[j * self.width + h.bucket(item, self.width)])
            .min()
            .unwrap_or(0) as f64
    }

    fn total(&self) -> i64 {
        self.total
    }
}

impl Persist for CountMin {
    fn encode(&self, enc: &mut pfe_persist::Encoder) {
        enc.put_u64(self.width as u64);
        enc.put_i64(self.total);
        self.hashes.encode(enc);
        self.counters.encode(enc);
    }

    fn decode(dec: &mut pfe_persist::Decoder<'_>) -> Result<Self, pfe_persist::PersistError> {
        use pfe_persist::PersistError;
        let width = dec.take_u64()? as usize;
        if width == 0 {
            return Err(PersistError::Malformed(
                "CountMin width must be >= 1".into(),
            ));
        }
        let total = dec.take_i64()?;
        let hashes = Vec::<TwoWise>::decode(dec)?;
        if hashes.is_empty() {
            return Err(PersistError::Malformed(
                "CountMin depth must be >= 1".into(),
            ));
        }
        let counters = Vec::<u64>::decode(dec)?;
        let expected = hashes.len().checked_mul(width).ok_or_else(|| {
            PersistError::Malformed(format!(
                "CountMin {} x {width} counter matrix overflows usize",
                hashes.len()
            ))
        })?;
        if counters.len() != expected {
            return Err(PersistError::Malformed(format!(
                "CountMin counter matrix has {} cells, expected {} x {width}",
                counters.len(),
                hashes.len()
            )));
        }
        Ok(Self {
            counters,
            hashes,
            width,
            total,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfe_hash::rng::Xoshiro256pp;

    #[test]
    fn never_underestimates() {
        let mut s = CountMin::new(4, 64, 1);
        let mut rng = Xoshiro256pp::seed_from_u64(99);
        let mut truth = std::collections::HashMap::new();
        for _ in 0..5000 {
            let item = rng.range_u64(200);
            *truth.entry(item).or_insert(0i64) += 1;
            s.update(item, 1);
        }
        for (&item, &count) in &truth {
            assert!(s.estimate(item) >= count as f64, "underestimate for {item}");
        }
    }

    #[test]
    fn error_bound_holds_mostly() {
        // eps = delta = 0.01: width ceil(e/eps), depth ceil(ln(1/delta)).
        let mut s = CountMin::new(5, 272, 2);
        let n = 20_000u64;
        for i in 0..n {
            s.update(i % 100, 1);
        }
        let eps = std::f64::consts::E / 272.0;
        let mut violations = 0;
        for item in 0..100u64 {
            let est = s.estimate(item);
            let true_count = (n / 100) as f64;
            if est - true_count > eps * n as f64 {
                violations += 1;
            }
        }
        assert!(
            violations <= 2,
            "too many error-bound violations: {violations}"
        );
    }

    #[test]
    fn absent_items_small_estimates() {
        let mut s = CountMin::new(7, 2719, 3);
        for i in 0..1000u64 {
            s.update(i, 10);
        }
        // An item never inserted can only collide; with width ~2718 the
        // expected collision mass is tiny.
        let est = s.estimate(1_000_000);
        assert!(est <= 0.01 * s.total() as f64, "absent estimate {est}");
    }

    #[test]
    fn weighted_updates() {
        let mut s = CountMin::new(5, 272, 4);
        s.update(7, 100);
        s.update(8, 1);
        assert!(s.estimate(7) >= 100.0);
        assert!(s.estimate(8) >= 1.0);
        assert_eq!(s.total(), 101);
    }

    #[test]
    fn merge_adds() {
        let mut a = CountMin::new(3, 128, 5);
        let mut b = CountMin::new(3, 128, 5);
        a.update(1, 4);
        b.update(1, 6);
        b.update(2, 3);
        a.merge(&b);
        assert!(a.estimate(1) >= 10.0);
        assert!(a.estimate(2) >= 3.0);
        assert_eq!(a.total(), 13);
    }

    #[test]
    #[should_panic(expected = "nonnegative updates")]
    fn rejects_negative() {
        CountMin::new(2, 16, 0).update(1, -1);
    }

    #[test]
    fn space_scales_with_shape() {
        let small = CountMin::new(2, 32, 0);
        let large = CountMin::new(8, 1024, 0);
        assert!(large.space_bytes() > 50 * small.space_bytes());
    }
}
