//! CountSketch (Charikar–Chen–Farach-Colton) for signed frequency point
//! queries with `ℓ_2` error guarantees.
//!
//! `depth` rows of `width` signed counters; row `j` adds `s_j(x)·delta` at
//! bucket `h_j(x)`. The median over rows of `s_j(x)·C[j][h_j(x)]` estimates
//! `f_x` within `O(‖f‖_2/√width)` per row, boosted by the median. The
//! `ℓ_2` flavour is what the paper's heavy-hitter discussion (\[14\]) assumes
//! in the classical (non-projected) setting.

use crate::traits::{vec_bytes, FrequencySketch, SpaceUsage};
use pfe_hash::kwise::{SignHash, TwoWise};

/// CountSketch with signed counters.
#[derive(Debug, Clone)]
pub struct CountSketch {
    counters: Vec<i64>, // depth x width, row-major
    buckets: Vec<TwoWise>,
    signs: Vec<SignHash>,
    width: usize,
    total: i64,
}

impl CountSketch {
    /// Create a sketch with explicit `depth × width`. `depth` should be odd
    /// for an unambiguous median (enforced by rounding up).
    ///
    /// # Panics
    /// Panics if `depth == 0` or `width == 0`.
    pub fn new(depth: usize, width: usize, seed: u64) -> Self {
        assert!(
            depth > 0 && width > 0,
            "CountSketch needs positive depth/width"
        );
        let depth = if depth.is_multiple_of(2) {
            depth + 1
        } else {
            depth
        };
        Self {
            counters: vec![0i64; depth * width],
            buckets: (0..depth)
                .map(|j| {
                    TwoWise::new(
                        seed.wrapping_add(2 * j as u64 + 1)
                            .wrapping_mul(0xabcd_ef01),
                    )
                })
                .collect(),
            signs: (0..depth)
                .map(|j| SignHash::new(seed.wrapping_add(2 * j as u64).wrapping_mul(0x1357_9bdf)))
                .collect(),
            width,
            total: 0,
        }
    }

    /// Rows of the counter matrix (always odd).
    pub fn depth(&self) -> usize {
        self.buckets.len()
    }
}

impl SpaceUsage for CountSketch {
    fn space_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + vec_bytes(&self.counters)
            + self.buckets.len() * std::mem::size_of::<TwoWise>()
            + self.signs.len() * std::mem::size_of::<SignHash>()
    }
}

impl FrequencySketch for CountSketch {
    fn update(&mut self, item: u64, delta: i64) {
        for j in 0..self.depth() {
            let idx = j * self.width + self.buckets[j].bucket(item, self.width);
            self.counters[idx] += self.signs[j].sign(item) * delta;
        }
        self.total += delta;
    }

    fn estimate(&self, item: u64) -> f64 {
        let mut ests: Vec<i64> = (0..self.depth())
            .map(|j| {
                let idx = j * self.width + self.buckets[j].bucket(item, self.width);
                self.signs[j].sign(item) * self.counters[idx]
            })
            .collect();
        ests.sort_unstable();
        ests[ests.len() / 2] as f64
    }

    fn total(&self) -> i64 {
        self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfe_hash::rng::{Xoshiro256pp, ZipfTable};

    #[test]
    fn heavy_items_recovered_on_zipf() {
        let mut s = CountSketch::new(7, 512, 1);
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        let zipf = ZipfTable::new(1000, 1.3);
        let mut truth = vec![0i64; 1000];
        for _ in 0..100_000 {
            let item = zipf.sample(&mut rng) as u64;
            truth[item as usize] += 1;
            s.update(item, 1);
        }
        // The top item's estimate should be within 10% of truth.
        let top = (0..1000).max_by_key(|&i| truth[i]).expect("nonempty");
        let est = s.estimate(top as u64);
        let rel = (est - truth[top] as f64).abs() / truth[top] as f64;
        assert!(rel < 0.1, "top-item relative error {rel}");
    }

    #[test]
    fn signed_updates_cancel() {
        let mut s = CountSketch::new(5, 128, 2);
        s.update(42, 10);
        s.update(42, -10);
        assert_eq!(s.estimate(42), 0.0);
        assert_eq!(s.total(), 0);
    }

    #[test]
    fn depth_made_odd() {
        assert_eq!(CountSketch::new(4, 16, 0).depth(), 5);
        assert_eq!(CountSketch::new(5, 16, 0).depth(), 5);
    }

    #[test]
    fn unseen_item_near_zero_on_light_load() {
        let mut s = CountSketch::new(7, 512, 5);
        for item in 0..20u64 {
            s.update(item, 5);
        }
        let est = s.estimate(10_000);
        assert!(est.abs() <= 5.0, "unseen estimate {est}");
    }
}
