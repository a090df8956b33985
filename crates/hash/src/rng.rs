//! Deterministic PRNGs and distribution helpers.
//!
//! [`SplitMix64`] is used for seeding and for cheap one-shot streams;
//! [`Xoshiro256pp`] (xoshiro256++) is the workhorse generator for workload
//! generation, random codes, and samplers. Both are seeded from a single
//! `u64` so every experiment in the workspace is reproducible.
//!
//! The distribution helpers include the Chambers–Mallows–Stuck sampler for
//! symmetric p-stable variates, which backs the Indyk-style `F_p` sketch in
//! `pfe-sketch`.

use crate::mix::GOLDEN_GAMMA;

/// SplitMix64: a tiny, fast PRNG with a 64-bit state.
///
/// Primarily used to expand a single user seed into independent seed streams
/// for other components (xoshiro state, per-repetition hash seeds, ...).
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from a seed. Any seed (including 0) is valid.
    #[inline]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next 64 uniformly distributed bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// xoshiro256++ — fast general-purpose PRNG (Blackman & Vigna).
///
/// Period `2^256 - 1`; passes BigCrush. All workload generators and samplers
/// in the workspace use this generator.
#[derive(Debug, Clone)]
pub struct Xoshiro256pp {
    s: [u64; 4],
}

impl Xoshiro256pp {
    /// Seed via SplitMix64 expansion (the construction recommended by the
    /// xoshiro authors). A zero seed is fine: expansion never yields the
    /// all-zero state.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        // The all-zero state is invalid (fixed point). SplitMix64 expansion of
        // any seed cannot produce it, but guard for safety.
        if s == [0, 0, 0, 0] {
            return Self { s: [1, 2, 3, 4] };
        }
        Self { s }
    }

    /// Rebuild a generator at an exact stored state. The all-zero state is
    /// the generator's fixed point and is rejected.
    ///
    /// # Errors
    /// Returns `None` for the (invalid) all-zero state.
    fn from_state(s: [u64; 4]) -> Option<Self> {
        if s == [0, 0, 0, 0] {
            return None;
        }
        Some(Self { s })
    }

    /// Next 64 uniformly distributed bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform integer in `[0, n)` using Lemire's nearly-divisionless method.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    #[inline]
    pub fn range_u64(&mut self, n: u64) -> u64 {
        assert!(n > 0, "range_u64 requires n > 0");
        // Lemire 2019: multiply-shift with rejection to remove modulo bias.
        let mut x = self.next_u64();
        let mut m = (x as u128).wrapping_mul(n as u128);
        let mut l = m as u64;
        if l < n {
            let t = n.wrapping_neg() % n;
            while l < t {
                x = self.next_u64();
                m = (x as u128).wrapping_mul(n as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform `f64` in `[0, 1)` with 53-bit resolution.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / 9_007_199_254_740_992.0)
    }

    /// Uniform `f64` in `(0, 1]` — safe as a `ln` argument.
    #[inline]
    fn f64_open_zero(&mut self) -> f64 {
        1.0 - self.f64()
    }

    /// Bernoulli draw with success probability `p` (clamped to `[0,1]`).
    #[inline]
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Standard Gaussian via the Box–Muller transform (one value per call;
    /// simple and allocation-free — speed is not critical for generators).
    fn gaussian(&mut self) -> f64 {
        let u1 = self.f64_open_zero();
        let u2 = self.f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Standard exponential variate (rate 1).
    #[inline]
    fn exponential(&mut self) -> f64 {
        -self.f64_open_zero().ln()
    }

    /// Standard Cauchy variate (the symmetric 1-stable distribution).
    #[inline]
    fn cauchy(&mut self) -> f64 {
        (std::f64::consts::PI * (self.f64() - 0.5)).tan()
    }

    /// Symmetric p-stable variate for `p ∈ (0, 2]` via Chambers–Mallows–Stuck.
    ///
    /// `p = 2` reduces to a (scaled) Gaussian, `p = 1` to Cauchy. Used by the
    /// Indyk `F_p` sketch.
    ///
    /// # Panics
    /// Panics if `p` is outside `(0, 2]`.
    pub fn stable(&mut self, p: f64) -> f64 {
        assert!(p > 0.0 && p <= 2.0, "stable index p={p} outside (0,2]");
        if (p - 2.0).abs() < 1e-12 {
            // 2-stable with the CMS scale convention: N(0, 2).
            return self.gaussian() * std::f64::consts::SQRT_2;
        }
        if (p - 1.0).abs() < 1e-12 {
            return self.cauchy();
        }
        let theta = std::f64::consts::PI * (self.f64() - 0.5); // U(-pi/2, pi/2)
        let w = self.exponential();
        let a = (p * theta).sin() / theta.cos().powf(1.0 / p);
        let b = ((1.0 - p) * theta).cos() / w;
        a * b.powf((1.0 - p) / p)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.range_u64(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }

    /// Sample `k` distinct indices from `[0, n)` (Floyd's algorithm), returned
    /// in ascending order.
    ///
    /// # Panics
    /// Panics if `k > n`.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} distinct items from {n}");
        let mut chosen = std::collections::BTreeSet::new();
        for j in (n - k)..n {
            let t = self.range_u64(j as u64 + 1) as usize;
            if !chosen.insert(t) {
                chosen.insert(j);
            }
        }
        chosen.into_iter().collect()
    }
}

impl pfe_persist::Persist for Xoshiro256pp {
    fn encode(&self, enc: &mut pfe_persist::Encoder) {
        for word in self.s {
            enc.put_u64(word);
        }
    }

    fn decode(dec: &mut pfe_persist::Decoder<'_>) -> Result<Self, pfe_persist::PersistError> {
        let s = [
            dec.take_u64()?,
            dec.take_u64()?,
            dec.take_u64()?,
            dec.take_u64()?,
        ];
        Self::from_state(s).ok_or_else(|| {
            pfe_persist::PersistError::Malformed("all-zero xoshiro256++ state".into())
        })
    }
}

/// Precomputed Zipf CDF over ranks `0..n` with exponent `s`.
///
/// Rank `r` (0-based) has probability proportional to `1/(r+1)^s`.
#[derive(Debug, Clone)]
pub struct ZipfTable {
    cdf: Vec<f64>,
}

impl ZipfTable {
    /// Build a table for `n` ranks with exponent `s`.
    ///
    /// # Panics
    /// Panics if `n == 0` or `s` is not finite and positive.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "ZipfTable needs n > 0");
        assert!(s.is_finite() && s > 0.0, "Zipf exponent must be positive");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 0..n {
            acc += 1.0 / ((r + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Self { cdf }
    }

    /// Draw a rank using the supplied generator.
    pub fn sample(&self, rng: &mut Xoshiro256pp) -> usize {
        let u = rng.f64();
        // partition_point returns the count of entries < u, i.e. the first
        // rank whose CDF value is >= u.
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_deterministic() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn xoshiro_deterministic_and_seed_sensitive() {
        let mut a = Xoshiro256pp::seed_from_u64(1);
        let mut b = Xoshiro256pp::seed_from_u64(1);
        let mut c = Xoshiro256pp::seed_from_u64(2);
        let xs: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..16).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn persist_roundtrip_mid_stream() {
        use pfe_persist::{Decoder, Encoder, Persist};
        let mut a = Xoshiro256pp::seed_from_u64(11);
        a.range_u64(1000);
        let mut enc = Encoder::new();
        a.encode(&mut enc);
        let bytes = enc.into_bytes();
        let mut b = Xoshiro256pp::decode(&mut Decoder::new(&bytes)).expect("decodes");
        for _ in 0..50 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        // All-zero state is rejected as malformed, not accepted silently.
        assert!(Xoshiro256pp::decode(&mut Decoder::new(&[0u8; 32])).is_err());
    }

    #[test]
    fn range_u64_unbiased_small_n() {
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        let n = 10u64;
        let mut counts = [0u32; 10];
        let trials = 100_000;
        for _ in 0..trials {
            counts[rng.range_u64(n) as usize] += 1;
        }
        let expect = trials as f64 / n as f64;
        for (i, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expect).abs() / expect;
            assert!(dev < 0.05, "bucket {i} deviates {dev}");
        }
    }

    #[test]
    #[should_panic(expected = "range_u64 requires n > 0")]
    fn range_u64_zero_panics() {
        Xoshiro256pp::seed_from_u64(0).range_u64(0);
    }

    #[test]
    fn f64_bounds() {
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        for _ in 0..10_000 {
            let x = rng.f64();
            assert!((0.0..1.0).contains(&x));
            let y = rng.f64_open_zero();
            assert!(y > 0.0 && y <= 1.0);
        }
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = Xoshiro256pp::seed_from_u64(11);
        let n = 200_000;
        let (mut sum, mut sumsq) = (0.0, 0.0);
        for _ in 0..n {
            let g = rng.gaussian();
            sum += g;
            sumsq += g * g;
        }
        let mean = sum / n as f64;
        let var = sumsq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "gaussian mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "gaussian var {var}");
    }

    #[test]
    fn exponential_mean() {
        let mut rng = Xoshiro256pp::seed_from_u64(13);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| rng.exponential()).sum::<f64>() / n as f64;
        assert!((mean - 1.0).abs() < 0.02, "exponential mean {mean}");
    }

    #[test]
    fn cauchy_median_zero() {
        let mut rng = Xoshiro256pp::seed_from_u64(17);
        let n = 100_000;
        let below = (0..n).filter(|_| rng.cauchy() < 0.0).count();
        let frac = below as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.01, "cauchy median off: {frac}");
    }

    #[test]
    fn stable_special_cases_match() {
        // p=1 must be Cauchy-like: median 0, heavy tails.
        let mut rng = Xoshiro256pp::seed_from_u64(19);
        let n = 50_000;
        let mut below = 0;
        let mut big = 0;
        for _ in 0..n {
            let x = rng.stable(1.0);
            if x < 0.0 {
                below += 1;
            }
            if x.abs() > 10.0 {
                big += 1;
            }
        }
        let frac = below as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.02);
        // P(|Cauchy| > 10) ~ 0.063; allow broad tolerance.
        let tail = big as f64 / n as f64;
        assert!(tail > 0.03 && tail < 0.10, "cauchy tail mass {tail}");
    }

    #[test]
    fn stable_p_half_is_heavy_tailed() {
        let mut rng = Xoshiro256pp::seed_from_u64(23);
        let n = 50_000;
        // Median of |X| should be finite and positive; mean diverges, so
        // compare quantiles instead of moments.
        let mut v: Vec<f64> = (0..n).map(|_| rng.stable(0.5).abs()).collect();
        v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        let med = v[n / 2];
        assert!(med.is_finite() && med > 0.0);
        // Tail heavier than Cauchy: the 99th percentile dwarfs the median.
        let p99 = v[(0.99 * n as f64) as usize];
        assert!(p99 / med > 50.0, "p=0.5 stable not heavy-tailed enough");
    }

    #[test]
    #[should_panic(expected = "outside (0,2]")]
    fn stable_rejects_bad_p() {
        Xoshiro256pp::seed_from_u64(0).stable(2.5);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = Xoshiro256pp::seed_from_u64(29);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn sample_indices_distinct_sorted_in_range() {
        let mut rng = Xoshiro256pp::seed_from_u64(31);
        for _ in 0..50 {
            let v = rng.sample_indices(100, 17);
            assert_eq!(v.len(), 17);
            assert!(v.windows(2).all(|w| w[0] < w[1]));
            assert!(v.iter().all(|&i| i < 100));
        }
    }

    #[test]
    fn sample_indices_full_and_empty() {
        let mut rng = Xoshiro256pp::seed_from_u64(37);
        assert_eq!(rng.sample_indices(5, 5), vec![0, 1, 2, 3, 4]);
        assert!(rng.sample_indices(5, 0).is_empty());
    }

    #[test]
    fn zipf_rank_ordering() {
        let mut rng = Xoshiro256pp::seed_from_u64(41);
        let table = ZipfTable::new(50, 1.2);
        let mut counts = [0u32; 50];
        for _ in 0..200_000 {
            counts[table.sample(&mut rng)] += 1;
        }
        // Rank 0 strictly dominates rank 5 dominates rank 30.
        assert!(counts[0] > counts[5]);
        assert!(counts[5] > counts[30]);
        // Ratio check: P(0)/P(1) = 2^1.2 ~ 2.3.
        let ratio = counts[0] as f64 / counts[1] as f64;
        assert!((ratio - 2.0f64.powf(1.2)).abs() < 0.3, "zipf ratio {ratio}");
    }
}
