//! KMV (k-minimum values) distinct-count sketch.
//!
//! Keep the `k` smallest distinct hash values seen; if the `k`-th smallest,
//! normalized to `(0,1)`, is `v_k`, then `(k-1)/v_k` is an unbiased distinct
//! count estimate with relative standard error `≈ 1/√(k-2)` (Bar-Yossef et
//! al.). This is the default `β`-approximate `F_0` plug-in for the α-net
//! summary: its accuracy depends only on `k`, never on the pattern domain,
//! matching the `O(ε^{-2} + log n')` sketches cited in Section 6.

use crate::traits::{vec_bytes, DistinctSketch, SpaceUsage};
use pfe_hash::hash_u64;
use pfe_persist::Persist;

/// KMV sketch with capacity `k`.
///
/// ```
/// use pfe_sketch::kmv::Kmv;
/// use pfe_sketch::traits::DistinctSketch;
///
/// let mut sketch = Kmv::new(256, 42);
/// for item in 0..100_000u64 {
///     sketch.insert(item);
/// }
/// let estimate = sketch.estimate();
/// assert!((estimate - 100_000.0).abs() / 100_000.0 < 0.25);
/// ```
#[derive(Debug, Clone)]
pub struct Kmv {
    /// Ascending sorted distinct hash values; at most `k` of them.
    minima: Vec<u64>,
    k: usize,
    seed: u64,
}

impl Kmv {
    /// Create a sketch keeping the `k` minimum hash values.
    ///
    /// # Panics
    /// Panics if `k < 2` (the estimator needs at least 2 minima).
    pub fn new(k: usize, seed: u64) -> Self {
        assert!(k >= 2, "KMV requires k >= 2, got {k}");
        Self {
            minima: Vec::with_capacity(k.min(1024)),
            k,
            seed,
        }
    }

    /// Capacity `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Seed (merging requires equal seeds).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Insert a pre-hashed value (for callers that already hold a uniform
    /// 64-bit fingerprint).
    fn insert_hash(&mut self, h: u64) {
        if self.minima.len() == self.k {
            let last = *self.minima.last().expect("nonempty at capacity");
            if h >= last {
                return;
            }
        }
        match self.minima.binary_search(&h) {
            Ok(_) => {} // duplicate hash = duplicate item (hash is injective per seed)
            Err(pos) => {
                self.minima.insert(pos, h);
                if self.minima.len() > self.k {
                    self.minima.pop();
                }
            }
        }
    }
}

impl SpaceUsage for Kmv {
    fn space_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + vec_bytes(&self.minima)
    }
}

impl DistinctSketch for Kmv {
    fn insert(&mut self, item: u64) {
        self.insert_hash(hash_u64(item, self.seed));
    }

    fn estimate(&self) -> f64 {
        if self.minima.len() < self.k {
            // Under-full: every distinct hash was kept, so the count is exact
            // (up to hash collisions, negligible at 64 bits).
            return self.minima.len() as f64;
        }
        let vk = (*self.minima.last().expect("k >= 2") as f64 + 1.0) / (u64::MAX as f64 + 1.0);
        (self.k as f64 - 1.0) / vk
    }

    fn merge(&mut self, other: &Self) {
        assert_eq!(self.k, other.k, "KMV merge: k mismatch");
        assert_eq!(self.seed, other.seed, "KMV merge: seed mismatch");
        for &h in &other.minima {
            self.insert_hash(h);
        }
    }
}

impl Persist for Kmv {
    fn encode(&self, enc: &mut pfe_persist::Encoder) {
        enc.put_u64(self.k as u64);
        enc.put_u64(self.seed);
        self.minima.encode(enc);
    }

    fn decode(dec: &mut pfe_persist::Decoder<'_>) -> Result<Self, pfe_persist::PersistError> {
        use pfe_persist::PersistError;
        let k = dec.take_u64()? as usize;
        if k < 2 {
            return Err(PersistError::Malformed(format!("KMV k={k} below 2")));
        }
        let seed = dec.take_u64()?;
        let minima = Vec::<u64>::decode(dec)?;
        if minima.len() > k {
            return Err(PersistError::Malformed(format!(
                "KMV holds {} minima above capacity {k}",
                minima.len()
            )));
        }
        if !minima.windows(2).all(|w| w[0] < w[1]) {
            return Err(PersistError::Malformed(
                "KMV minima must be strictly ascending".into(),
            ));
        }
        Ok(Self { minima, k, seed })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_when_underfull() {
        let mut s = Kmv::new(64, 1);
        for i in 0..40u64 {
            s.insert(i);
            s.insert(i); // duplicates must not count
        }
        assert_eq!(s.estimate(), 40.0);
    }

    #[test]
    fn estimates_within_expected_error() {
        let k = 256;
        let mut s = Kmv::new(k, 7);
        let n = 100_000u64;
        for i in 0..n {
            s.insert(i);
        }
        let est = s.estimate();
        let rel = (est - n as f64).abs() / n as f64;
        // 4 standard errors of 1/sqrt(k-2): 4/sqrt(254) ~ 0.25.
        assert!(rel < 4.0 / (k as f64 - 2.0).sqrt(), "relative error {rel}");
    }

    #[test]
    fn duplicates_do_not_inflate() {
        let mut s = Kmv::new(64, 3);
        for _ in 0..1000 {
            for i in 0..10u64 {
                s.insert(i);
            }
        }
        assert_eq!(s.estimate(), 10.0);
    }

    #[test]
    fn merge_equals_union_build() {
        let (k, seed) = (128, 9);
        let mut a = Kmv::new(k, seed);
        let mut b = Kmv::new(k, seed);
        let mut u = Kmv::new(k, seed);
        for i in 0..5000u64 {
            a.insert(i);
            u.insert(i);
        }
        for i in 2500..7500u64 {
            b.insert(i);
            u.insert(i);
        }
        a.merge(&b);
        assert_eq!(a.estimate(), u.estimate());
    }

    #[test]
    #[should_panic(expected = "seed mismatch")]
    fn merge_rejects_seed_mismatch() {
        let mut a = Kmv::new(16, 1);
        let b = Kmv::new(16, 2);
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "k >= 2")]
    fn rejects_tiny_k() {
        Kmv::new(1, 0);
    }

    #[test]
    fn space_bounded_by_k() {
        let mut s = Kmv::new(64, 5);
        for i in 0..100_000u64 {
            s.insert(i);
        }
        // 64 u64s plus struct overhead; must stay well under 2 KiB.
        assert!(s.space_bytes() < 2048, "space {}", s.space_bytes());
    }

    #[test]
    fn deterministic() {
        let build = || {
            let mut s = Kmv::new(32, 11);
            for i in 0..1000u64 {
                s.insert(i * 3);
            }
            s.estimate()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn seed_changes_estimate_noise_not_scale() {
        let n = 50_000u64;
        for seed in 0..5 {
            let mut s = Kmv::new(128, seed);
            for i in 0..n {
                s.insert(i);
            }
            let rel = (s.estimate() - n as f64).abs() / n as f64;
            assert!(rel < 0.5, "seed {seed} relative error {rel}");
        }
    }
}
