//! Indyk-style `F_p` sketch via symmetric p-stable projections, `0 < p < 2`.
//!
//! Estimator `j` maintains `Z_j = Σ_i f_i · X_{i,j}` where `X_{i,j}` is a
//! p-stable variate derived deterministically from `(item, j, seed)`. By
//! p-stability, `Z_j ~ ‖f‖_p · S_p`, so
//! `median_j |Z_j| / median(|S_p|)` estimates `‖f‖_p`, and raising to the
//! `p` gives `F_p`. The scale constant `median(|S_p|)` is calibrated once
//! by a deterministic Monte-Carlo draw (documented error < 1%). Together
//! with [`AmsF2`](crate::ams_f2::AmsF2) (`p = 2`) and any
//! [`DistinctSketch`](crate::traits::DistinctSketch) (`p = 0`), this covers
//! the `0 ≤ p ≤ 2` sketch range the paper's Section 6 invokes.

use crate::traits::{vec_bytes, MomentSketch, SpaceUsage};
use pfe_hash::hash_u64;
use pfe_hash::rng::Xoshiro256pp;
use pfe_persist::Persist;

/// Number of Monte-Carlo samples for the scale-constant calibration.
const CALIBRATION_SAMPLES: usize = 200_001;

/// `median(|S_p|)` for the symmetric p-stable distribution, by
/// deterministic Monte-Carlo (fixed internal seed). For `p = 1` this is
/// `tan(π/4) = 1` exactly; the MC estimate is validated against that in
/// tests. Memoized per `p` — the α-net summary constructs one sketch per
/// net subset, and recalibrating thousands of times would dominate build
/// time.
pub fn stable_median_abs(p: f64) -> f64 {
    use std::sync::Mutex;
    static CACHE: Mutex<Option<std::collections::HashMap<u64, f64>>> = Mutex::new(None);
    assert!(p > 0.0 && p < 2.0, "stable_median_abs needs p in (0,2)");
    let key = p.to_bits();
    {
        let cache = CACHE.lock().expect("calibration cache poisoned");
        if let Some(map) = cache.as_ref() {
            if let Some(&v) = map.get(&key) {
                return v;
            }
        }
    }
    let mut rng = Xoshiro256pp::seed_from_u64(0xca11_b0b5);
    let mut samples: Vec<f64> = (0..CALIBRATION_SAMPLES)
        .map(|_| rng.stable(p).abs())
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let median = samples[samples.len() / 2];
    CACHE
        .lock()
        .expect("calibration cache poisoned")
        .get_or_insert_with(std::collections::HashMap::new)
        .insert(key, median);
    median
}

/// p-stable `F_p` sketch with `t` estimators.
#[derive(Debug, Clone)]
pub struct StableFp {
    sums: Vec<f64>,
    p: f64,
    seed: u64,
    scale: f64,
}

impl StableFp {
    /// Create with `t` estimators for moment order `p ∈ (0, 2)`.
    ///
    /// # Panics
    /// Panics if `t == 0` or `p` is outside `(0, 2)`.
    pub fn new(t: usize, p: f64, seed: u64) -> Self {
        assert!(t > 0, "need at least one estimator");
        assert!(p > 0.0 && p < 2.0, "StableFp supports p in (0,2), got {p}");
        Self {
            sums: vec![0.0; t],
            p,
            seed,
            scale: stable_median_abs(p),
        }
    }

    /// Number of estimators.
    pub fn estimators(&self) -> usize {
        self.sums.len()
    }

    /// Estimate the norm `‖f‖_p` (the `1/p`-th power of `F_p`).
    pub fn lp_norm_estimate(&self) -> f64 {
        let mut mags: Vec<f64> = self.sums.iter().map(|z| z.abs()).collect();
        mags.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        mags[mags.len() / 2] / self.scale
    }

    /// Merge a compatible sketch (same `t`, `p`, `seed`).
    ///
    /// # Panics
    /// Panics on mismatch.
    fn merge(&mut self, other: &Self) {
        assert_eq!(
            self.sums.len(),
            other.sums.len(),
            "StableFp merge: t mismatch"
        );
        assert_eq!(
            self.p.to_bits(),
            other.p.to_bits(),
            "StableFp merge: p mismatch"
        );
        assert_eq!(self.seed, other.seed, "StableFp merge: seed mismatch");
        for (a, &b) in self.sums.iter_mut().zip(&other.sums) {
            *a += b;
        }
    }

    /// The p-stable variate for `(item, estimator j)` — deterministic.
    #[inline]
    fn variate(&self, item: u64, j: usize) -> f64 {
        let mut rng = Xoshiro256pp::seed_from_u64(hash_u64(item, self.seed.wrapping_add(j as u64)));
        rng.stable(self.p)
    }
}

impl SpaceUsage for StableFp {
    fn space_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + vec_bytes(&self.sums)
    }
}

impl MomentSketch for StableFp {
    /// `sums[j] += n·x` and `n` times `sums[j] += x` round differently.
    const EXACT_IN_DELTA: bool = false;

    fn p(&self) -> f64 {
        self.p
    }

    fn update(&mut self, item: u64, delta: i64) {
        for j in 0..self.sums.len() {
            self.sums[j] += delta as f64 * self.variate(item, j);
        }
    }

    fn estimate(&self) -> f64 {
        self.lp_norm_estimate().powf(self.p)
    }

    fn merge_with(&mut self, other: &Self) {
        self.merge(other);
    }
}

impl Persist for StableFp {
    fn encode(&self, enc: &mut pfe_persist::Encoder) {
        // `scale` is derived deterministically from `p` and recomputed on
        // decode (the calibration is memoized, so this is cheap in the
        // α-net's many-sketches case too).
        enc.put_f64(self.p);
        enc.put_u64(self.seed);
        self.sums.encode(enc);
    }

    fn decode(dec: &mut pfe_persist::Decoder<'_>) -> Result<Self, pfe_persist::PersistError> {
        use pfe_persist::PersistError;
        let p = dec.take_f64()?;
        if !(p.is_finite() && p > 0.0 && p < 2.0) {
            return Err(PersistError::Malformed(format!(
                "StableFp moment order p={p} outside (0,2)"
            )));
        }
        let seed = dec.take_u64()?;
        let sums = Vec::<f64>::decode(dec)?;
        if sums.is_empty() {
            return Err(PersistError::Malformed(
                "StableFp needs at least one estimator".into(),
            ));
        }
        Ok(Self {
            sums,
            p,
            seed,
            scale: stable_median_abs(p),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_p1_is_one() {
        // |Cauchy| has median exactly tan(pi/4) = 1.
        let m = stable_median_abs(1.0);
        assert!((m - 1.0).abs() < 0.01, "median |Cauchy| calibration {m}");
    }

    #[test]
    fn calibration_deterministic() {
        assert_eq!(stable_median_abs(0.5), stable_median_abs(0.5));
    }

    #[test]
    fn f1_of_uniform_stream() {
        // p close to 1: F_p ~ n for a stream of distinct items.
        let mut s = StableFp::new(101, 1.0 - 1e-9, 1);
        for item in 0..400u64 {
            s.update(item, 1);
        }
        let est = s.estimate();
        let rel = (est - 400.0).abs() / 400.0;
        assert!(rel < 0.35, "F_1 relative error {rel}");
    }

    #[test]
    fn fp_half_of_known_vector() {
        // f = (4, 4, 4, 4): F_0.5 = 4 * 2 = 8; norm^(1/0.5): ||f||_0.5 = 64.
        let p = 0.5;
        let mut s = StableFp::new(201, p, 2);
        for item in 0..4u64 {
            s.update(item, 4);
        }
        let est = s.estimate();
        let rel = (est - 8.0).abs() / 8.0;
        assert!(rel < 0.4, "F_0.5 estimate {est}, relative error {rel}");
    }

    #[test]
    fn p_1_5_accuracy() {
        // f_i = 3 for 100 items: F_1.5 = 100 * 3^1.5 ~ 519.6.
        let mut s = StableFp::new(201, 1.5, 3);
        for item in 0..100u64 {
            s.update(item, 3);
        }
        let truth = 100.0 * 3f64.powf(1.5);
        let rel = (s.estimate() - truth).abs() / truth;
        assert!(rel < 0.35, "F_1.5 relative error {rel}");
    }

    #[test]
    fn deletions_cancel() {
        let mut s = StableFp::new(51, 1.2, 4);
        s.update(10, 6);
        s.update(10, -6);
        assert!(
            s.estimate() < 1e-9,
            "estimate {} after cancel",
            s.estimate()
        );
    }

    #[test]
    fn merge_equals_combined() {
        let mut a = StableFp::new(21, 0.8, 5);
        let mut b = StableFp::new(21, 0.8, 5);
        let mut c = StableFp::new(21, 0.8, 5);
        for item in 0..20u64 {
            a.update(item, 2);
            c.update(item, 2);
        }
        for item in 10..30u64 {
            b.update(item, 1);
            c.update(item, 1);
        }
        a.merge(&b);
        assert!((a.estimate() - c.estimate()).abs() < 1e-9);
    }

    #[test]
    fn scale_invariance_of_norm() {
        // ||c.f||_p = c.||f||_p: doubling all frequencies doubles the norm.
        let build = |scale: i64| {
            let mut s = StableFp::new(101, 0.7, 6);
            for item in 0..50u64 {
                s.update(item, scale);
            }
            s.lp_norm_estimate()
        };
        let (one, two) = (build(1), build(2));
        let ratio = two / one;
        assert!((ratio - 2.0).abs() < 0.01, "scaling ratio {ratio}");
    }

    #[test]
    #[should_panic(expected = "p in (0,2)")]
    fn rejects_p_two() {
        StableFp::new(8, 2.0, 0);
    }
}
