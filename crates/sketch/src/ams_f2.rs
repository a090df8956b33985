//! AMS `F_2` sketch (Alon–Matias–Szegedy, \[1\] in the paper).
//!
//! Each elementary estimator keeps `Z = Σ_i s(i)·f_i` for a 4-wise
//! independent sign hash `s`; `Z²` is an unbiased `F_2` estimate with
//! `Var[Z²] ≤ 2F_2²`. Averaging `s1` estimators and taking the median of
//! `s2` groups gives an `(ε, δ)` guarantee with `s1 = O(1/ε²)`,
//! `s2 = O(log 1/δ)`. This is the `β`-approximate `F_2` plug-in for the
//! α-net `F_p` summary at `p = 2`.
//!
//! The `t = groups × per_group` sign hashes live in one [`SignBank`]: its
//! limb planes are the coefficients' only in-memory copy, and one update
//! evaluates all `t` signs at once.

use crate::traits::{vec_bytes, MomentSketch, SpaceUsage};
use pfe_hash::kwise::{SignBank, SignHash};
use pfe_persist::Persist;

/// AMS `F_2` sketch: `groups × per_group` elementary estimators.
#[derive(Debug, Clone)]
pub struct AmsF2 {
    sums: Vec<i64>,
    signs: SignBank,
    per_group: usize,
}

impl AmsF2 {
    /// Create with `groups` median groups of `per_group` averaged
    /// estimators. `groups` is rounded up to odd.
    ///
    /// # Panics
    /// Panics if either parameter is zero.
    pub fn new(groups: usize, per_group: usize, seed: u64) -> Self {
        assert!(groups > 0 && per_group > 0, "AMS needs positive shape");
        let groups = if groups.is_multiple_of(2) {
            groups + 1
        } else {
            groups
        };
        let t = groups * per_group;
        Self {
            sums: vec![0i64; t],
            signs: (0..t)
                .map(|j| SignHash::new(seed.wrapping_add(j as u64).wrapping_mul(0x2545_f491)))
                .collect(),
            per_group,
        }
    }

    /// Number of median groups.
    pub fn groups(&self) -> usize {
        self.sums.len() / self.per_group
    }

    /// Estimators per group.
    pub fn per_group(&self) -> usize {
        self.per_group
    }

    /// Merge a compatible sketch (same shape and seed).
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn merge(&mut self, other: &Self) {
        assert_eq!(
            self.sums.len(),
            other.sums.len(),
            "AMS merge: shape mismatch"
        );
        assert_eq!(self.per_group, other.per_group, "AMS merge: shape mismatch");
        for (a, &b) in self.sums.iter_mut().zip(&other.sums) {
            *a += b;
        }
    }
}

impl SpaceUsage for AmsF2 {
    fn space_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + vec_bytes(&self.sums) + self.signs.bytes()
    }
}

impl MomentSketch for AmsF2 {
    const EXACT_IN_DELTA: bool = true;

    fn p(&self) -> f64 {
        2.0
    }

    fn update(&mut self, item: u64, delta: i64) {
        self.signs.add_signs(item, delta, &mut self.sums);
    }

    fn estimate(&self) -> f64 {
        let mut medians: Vec<f64> = self
            .sums
            .chunks_exact(self.per_group)
            .map(|group| {
                group.iter().map(|&z| (z as f64) * (z as f64)).sum::<f64>() / group.len() as f64
            })
            .collect();
        medians.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        medians[medians.len() / 2]
    }

    fn merge_with(&mut self, other: &Self) {
        self.merge(other);
    }
}

impl Persist for AmsF2 {
    fn encode(&self, enc: &mut pfe_persist::Encoder) {
        enc.put_u64(self.per_group as u64);
        self.sums.encode(enc);
        self.signs.encode(enc);
    }

    fn decode(dec: &mut pfe_persist::Decoder<'_>) -> Result<Self, pfe_persist::PersistError> {
        use pfe_persist::PersistError;
        let per_group = dec.take_u64()? as usize;
        if per_group == 0 {
            return Err(PersistError::Malformed("AMS per_group must be >= 1".into()));
        }
        let sums = Vec::<i64>::decode(dec)?;
        let signs = SignBank::decode(dec)?;
        if sums.len() != signs.len() {
            return Err(PersistError::Malformed(format!(
                "AMS has {} sums but {} sign hashes",
                sums.len(),
                signs.len()
            )));
        }
        if sums.is_empty() || sums.len() % per_group != 0 {
            return Err(PersistError::Malformed(format!(
                "AMS estimator count {} is not a positive multiple of per_group {per_group}",
                sums.len()
            )));
        }
        if (sums.len() / per_group).is_multiple_of(2) {
            return Err(PersistError::Malformed(
                "AMS group count must be odd (median of groups)".into(),
            ));
        }
        Ok(Self {
            sums,
            signs,
            per_group,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfe_hash::rng::Xoshiro256pp;

    #[test]
    fn uniform_stream_accuracy() {
        let mut s = AmsF2::new(5, 64, 1);
        // 200 items, each frequency 50: F2 = 200 * 2500 = 500_000.
        for item in 0..200u64 {
            s.update(item, 50);
        }
        let est = s.estimate();
        let rel = (est - 500_000.0).abs() / 500_000.0;
        assert!(rel < 0.3, "relative error {rel}");
    }

    #[test]
    fn skewed_stream_accuracy() {
        // eps = 0.2, delta = 0.05: ceil(8/eps^2) per group, ceil(4 ln(1/delta)) groups.
        let mut s = AmsF2::new(12, 200, 2);
        let mut truth = std::collections::HashMap::new();
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        for _ in 0..30_000 {
            let item = rng.range_u64(50);
            *truth.entry(item).or_insert(0i64) += 1;
            s.update(item, 1);
        }
        let f2: f64 = truth.values().map(|&c| (c as f64) * (c as f64)).sum();
        let rel = (s.estimate() - f2).abs() / f2;
        assert!(rel < 0.2, "relative error {rel}");
    }

    #[test]
    fn deletions_supported() {
        let mut s = AmsF2::new(3, 32, 4);
        s.update(1, 10);
        s.update(2, 5);
        s.update(1, -10); // remove item 1 entirely
                          // Remaining F2 = 25.
        let est = s.estimate();
        assert!((est - 25.0).abs() < 15.0, "estimate {est}");
    }

    #[test]
    fn empty_is_zero() {
        assert_eq!(AmsF2::new(3, 8, 0).estimate(), 0.0);
    }

    #[test]
    fn merge_equals_combined_stream() {
        let mut a = AmsF2::new(5, 16, 9);
        let mut b = AmsF2::new(5, 16, 9);
        let mut c = AmsF2::new(5, 16, 9);
        for item in 0..30u64 {
            a.update(item, 3);
            c.update(item, 3);
        }
        for item in 15..45u64 {
            b.update(item, 2);
            c.update(item, 2);
        }
        a.merge(&b);
        assert_eq!(a.estimate(), c.estimate());
    }

    #[test]
    fn single_item_exact_shape() {
        // One item with frequency f: every estimator is (±f)², so the
        // estimate is exactly f².
        let mut s = AmsF2::new(3, 8, 5);
        s.update(99, 7);
        assert_eq!(s.estimate(), 49.0);
    }

    #[test]
    fn space_counts_the_inline_sign_coefficients() {
        let s = AmsF2::new(5, 16, 3);
        let t = 5 * 16;
        assert_eq!(
            s.space_bytes(),
            std::mem::size_of::<AmsF2>() + 8 * t + 32 * t
        );
    }

    #[test]
    fn groups_rounded_odd() {
        assert_eq!(AmsF2::new(4, 8, 0).groups(), 5);
    }
}
