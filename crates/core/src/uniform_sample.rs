//! The uniform-sampling summary of Theorem 5.1 / Corollary 5.2 —
//! `uSample(A, C, t, b)` in the paper's notation.
//!
//! A uniform reservoir of `t` full rows is taken **while observing the
//! data**, before any query is known; because uniform row sampling commutes
//! with column projection, the same sample serves every later query `C`:
//!
//! - point frequency: `f̂_{e(b)} = g/α` (`g` = matches in the sample,
//!   `α` = sampling rate) with additive error `ε‖f‖_1` for
//!   `t = O(ε⁻² log(1/δ))` — and since `‖f‖_1 ≤ ‖f‖_p` for `0 < p < 1`,
//!   the same bound holds against `‖f‖_p` (Corollary 5.2);
//! - `φ`-`ℓ_p` heavy hitters for `0 < p ≤ 1` by thresholding estimated
//!   frequencies (Section 5.1's remark);
//! - `ℓ_1` pattern sampling: a uniform sampled row, projected, is a pattern
//!   drawn with probability `f_i/n` — the easy side of the paper's
//!   sampling dichotomy.
//!
//! For `p > 1` no such summary can exist (Theorem 5.3); the experiment
//! harness demonstrates this summary failing on the adversarial instances.
//!
//! # What a read costs
//!
//! Every read projects the `t` sampled rows onto the query's columns.
//! `frequency` counts its one key while projecting; `heavy_hitters` and
//! `l1_sample` need every key's multiplicity and get it as one ascending
//! `(key, count)` list — from a `Q^{|C|}`-slot histogram while the
//! projected domain is small (an exploratory 3–6-column query has 8–64
//! binary patterns; `HISTOGRAM_SLOTS_PER_ROW` is the bound), from a
//! sort and a run-length pass otherwise. Either way the list is what
//! iterating a `BTreeMap` of the counts would give, so answer order, the
//! `ℓ_1` sampler's draws over the *uncounted* sample and every reply byte
//! are the same on both paths.

use pfe_hash::rng::Xoshiro256pp;
use pfe_persist::{Decoder, Encoder, Persist, PersistError};
use pfe_row::{ColumnSet, Dataset, PatternCodec, PatternKey};
use pfe_sketch::reservoir::Reservoir;
use pfe_sketch::traits::SpaceUsage;

use crate::problem::{check_dims, HeavyHitter, QueryError, SampledPattern};

/// Up to how many histogram slots per sampled row a read counts the
/// projected sample by indexing rather than by sorting it: sorting `t` keys
/// takes about `t·log₂ t` compare-and-move steps, the histogram `t`
/// increments plus a clear and a scan of its `Q^{|C|}` slots, so at the
/// default `t = 4,096` (`log₂ t = 12`) the two meet near this many. The
/// histogram is then at most `16·t` transient `u64`s (512 KiB at the
/// default).
const HISTOGRAM_SLOTS_PER_ROW: usize = 16;

/// Sampled rows, stored packed for binary data and dense otherwise.
#[derive(Debug, Clone)]
enum RowStore {
    Binary(Reservoir<u64>),
    Qary(Reservoir<Box<[u16]>>),
}

/// Uniform row-sample summary (Theorem 5.1).
///
/// ```
/// use pfe_core::UniformSampleSummary;
/// use pfe_row::ColumnSet;
/// use pfe_stream::gen::zipf_patterns;
///
/// let data = zipf_patterns(16, 10_000, 50, 1.3, 1);
/// // Sample taken before any query exists.
/// let summary = UniformSampleSummary::build(&data, 2048, 2);
/// // Query arrives afterwards; any C works.
/// let c = ColumnSet::from_indices(16, &[0, 5, 9]).unwrap();
/// let hh = summary.heavy_hitters(&c, 0.1, 1.0, 2.0).unwrap();
/// assert!(!hh.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct UniformSampleSummary {
    rows: RowStore,
    d: u32,
    q: u32,
}

impl UniformSampleSummary {
    /// Create an empty summary for a `d`-column stream over alphabet `q`.
    ///
    /// # Panics
    /// Panics if `t == 0` or `d > 63` or `q < 2`.
    pub fn new(d: u32, q: u32, t: usize, seed: u64) -> Self {
        assert!(d <= 63, "d must be <= 63");
        assert!(q >= 2, "alphabet must be >= 2");
        let rows = if q == 2 {
            RowStore::Binary(Reservoir::new(t, seed))
        } else {
            RowStore::Qary(Reservoir::new(t, seed))
        };
        Self { rows, d, q }
    }

    /// Build by streaming a whole dataset through the reservoir.
    pub fn build(data: &Dataset, t: usize, seed: u64) -> Self {
        let mut s = Self::new(data.dimension(), data.alphabet(), t, seed);
        match (data, &mut s.rows) {
            (Dataset::Binary(m), RowStore::Binary(r)) => {
                for &row in m.rows() {
                    r.insert(row);
                }
            }
            _ => {
                for i in 0..data.num_rows() {
                    s.push_dense(&data.row_dense(i));
                }
            }
        }
        s
    }

    /// Observe one dense row (streaming ingestion).
    ///
    /// # Panics
    /// Panics if the row has the wrong length or out-of-alphabet symbols.
    pub fn push_dense(&mut self, row: &[u16]) {
        assert_eq!(row.len(), self.d as usize, "row length != d");
        match &mut self.rows {
            RowStore::Binary(r) => {
                let mut packed = 0u64;
                for (i, &s) in row.iter().enumerate() {
                    assert!(s < 2, "symbol {s} not binary");
                    packed |= (s as u64) << i;
                }
                r.insert(packed);
            }
            RowStore::Qary(r) => {
                for &s in row {
                    assert!((s as u32) < self.q, "symbol {s} outside alphabet");
                }
                r.insert(row.into());
            }
        }
    }

    /// Merge a summary built over a disjoint segment of the same stream
    /// (same `d`, `Q`, and reservoir capacity): a seeded weighted reservoir
    /// union, so the merged sample is uniform over the concatenated stream
    /// (see [`Reservoir::merge`]). This is the shard-compaction path of the
    /// serving engine.
    ///
    /// # Panics
    /// Panics on shape, alphabet, or capacity mismatch.
    pub fn merge(&mut self, other: &Self) {
        assert_eq!(self.d, other.d, "uniform-sample merge: dimension mismatch");
        assert_eq!(self.q, other.q, "uniform-sample merge: alphabet mismatch");
        match (&mut self.rows, &other.rows) {
            (RowStore::Binary(a), RowStore::Binary(b)) => a.merge(b),
            (RowStore::Qary(a), RowStore::Qary(b)) => a.merge(b),
            _ => unreachable!("row store variant is determined by q"),
        }
    }

    /// Reservoir capacity `t`.
    pub fn capacity(&self) -> usize {
        match &self.rows {
            RowStore::Binary(r) => r.capacity(),
            RowStore::Qary(r) => r.capacity(),
        }
    }

    /// Dimension `d`.
    pub fn dimension(&self) -> u32 {
        self.d
    }

    /// Alphabet size `Q`.
    pub fn alphabet(&self) -> u32 {
        self.q
    }

    /// Observe one packed binary row (fast path; `Q = 2` only).
    ///
    /// # Panics
    /// Panics if the summary is not binary or the row has bits at or above
    /// `d`.
    pub fn push_packed(&mut self, row: u64) {
        assert!(
            row & !((1u64 << self.d) - 1) == 0,
            "row has bits above d={}",
            self.d
        );
        match &mut self.rows {
            RowStore::Binary(r) => r.insert(row),
            RowStore::Qary(_) => panic!("push_packed requires a binary summary"),
        }
    }

    /// Stream length observed so far (`n = ‖f‖_1`).
    pub fn n(&self) -> u64 {
        match &self.rows {
            RowStore::Binary(r) => r.seen(),
            RowStore::Qary(r) => r.seen(),
        }
    }

    /// Current sample size (`min(t, n)`).
    pub fn sample_len(&self) -> usize {
        match &self.rows {
            RowStore::Binary(r) => r.sample().len(),
            RowStore::Qary(r) => r.sample().len(),
        }
    }

    /// The sampling rate `α`.
    pub fn rate(&self) -> f64 {
        match &self.rows {
            RowStore::Binary(r) => r.rate(),
            RowStore::Qary(r) => r.rate(),
        }
    }

    /// Hand `f` the projection of every sampled row onto `cols`, in sample
    /// order.
    fn for_each_projected(
        &self,
        cols: &ColumnSet,
        mut f: impl FnMut(PatternKey),
    ) -> Result<(), QueryError> {
        check_dims(self.d, cols)?;
        match &self.rows {
            RowStore::Binary(r) => {
                let extractor = pfe_row::BitExtractor::new(cols.mask());
                let keys = r.sample().iter().map(|&row| extractor.extract(row));
                keys.for_each(|key| f(PatternKey::from(key)));
            }
            RowStore::Qary(r) => {
                let codec = PatternCodec::new(self.q, cols.len())?;
                let keys = r.sample().iter().map(|row| codec.encode_row(row, cols));
                keys.for_each(f);
            }
        }
        Ok(())
    }

    /// Projected pattern keys of the current sample under `cols`.
    ///
    /// # Errors
    /// Dimension or codec errors.
    pub fn projected_sample(&self, cols: &ColumnSet) -> Result<Vec<PatternKey>, QueryError> {
        let mut keys = Vec::with_capacity(self.sample_len());
        self.for_each_projected(cols, |key| keys.push(key))?;
        Ok(keys)
    }

    /// The distinct keys of `sample` — the sample projected onto `cols` —
    /// ascending, each with how often it occurs: counted into a
    /// `Q^{|C|}`-slot histogram when that is at most
    /// [`HISTOGRAM_SLOTS_PER_ROW`] slots per sampled row, sorted and
    /// run-length counted otherwise.
    fn counted(
        &self,
        cols: &ColumnSet,
        sample: &[PatternKey],
    ) -> Result<Vec<(PatternKey, u64)>, QueryError> {
        let domain = PatternCodec::new(self.q, cols.len())?.domain_size();
        if domain <= (HISTOGRAM_SLOTS_PER_ROW * sample.len()) as u128 {
            let mut hist = vec![0u64; domain as usize];
            sample.iter().for_each(|key| hist[key.raw() as usize] += 1);
            let present = hist.into_iter().enumerate().filter(|&(_, g)| g != 0);
            return Ok(present
                .map(|(key, g)| (PatternKey::from(key as u64), g))
                .collect());
        }
        let mut sorted = sample.to_vec();
        sorted.sort_unstable();
        let runs = sorted.chunk_by(|a, b| a == b);
        Ok(runs.map(|run| (run[0], run.len() as u64)).collect())
    }

    /// Estimate the absolute frequency of the pattern `key` on projection
    /// `cols`: the `f̂_{e(b)} = g/α` estimator of Theorem 5.1.
    ///
    /// # Errors
    /// Dimension or codec errors.
    pub fn frequency(&self, cols: &ColumnSet, key: PatternKey) -> Result<f64, QueryError> {
        let mut g = 0u64;
        self.for_each_projected(cols, |k| g += u64::from(k == key))?;
        let rate = self.rate();
        if rate == 0.0 {
            return Ok(0.0);
        }
        Ok(g as f64 / rate)
    }

    /// The additive error `ε‖f‖_1` guaranteed (with prob. `1-δ` at build
    /// parameters) by the current sample size: `ε = √(ln(2/δ)/t)`; exposed
    /// for reporting with a caller-chosen `δ`.
    pub fn additive_error(&self, delta: f64) -> f64 {
        assert!(delta > 0.0 && delta < 1.0);
        let t = self.sample_len().max(1) as f64;
        ((2.0 / delta).ln() / t).sqrt() * self.n() as f64
    }

    /// `φ`-`ℓ_p` heavy hitters for `0 < p ≤ 1` with multiplicative slack
    /// `c > 1`: reports every pattern whose estimated frequency is at least
    /// `(φ/c)·n`. Since `‖f‖_p ≥ ‖f‖_1 = n` for `p ≤ 1`, every true
    /// `φ`-`ℓ_p` heavy hitter (frequency `≥ φ‖f‖_p ≥ φn`) is reported as
    /// long as the sampling error stays under `φ(1−1/c)n`.
    ///
    /// # Errors
    /// Dimension, codec, or parameter errors (`p` outside `(0,1]`, `phi`
    /// outside `(0,1]`, `c <= 1`).
    pub fn heavy_hitters(
        &self,
        cols: &ColumnSet,
        phi: f64,
        p: f64,
        c: f64,
    ) -> Result<Vec<HeavyHitter>, QueryError> {
        if !(p > 0.0 && p <= 1.0) {
            return Err(QueryError::UnsupportedMoment {
                requested: p,
                supported: 1.0,
            });
        }
        if !(phi > 0.0 && phi <= 1.0) {
            return Err(QueryError::BadParameter(format!("phi={phi} outside (0,1]")));
        }
        if c <= 1.0 || !c.is_finite() {
            return Err(QueryError::BadParameter(format!("slack c={c} must be > 1")));
        }
        let sample = self.projected_sample(cols)?;
        let rate = self.rate();
        if rate == 0.0 {
            return Ok(Vec::new());
        }
        let threshold = (phi / c) * self.n() as f64;
        let mut out: Vec<HeavyHitter> = self
            .counted(cols, &sample)?
            .into_iter()
            .map(|(key, g)| HeavyHitter {
                key,
                estimate: g as f64 / rate,
            })
            .filter(|h| h.estimate >= threshold)
            .collect();
        out.sort_by(|a, b| {
            b.estimate
                .partial_cmp(&a.estimate)
                .expect("finite")
                .then(a.key.cmp(&b.key))
        });
        Ok(out)
    }

    /// Draw `count` patterns from the (approximate) `ℓ_1` distribution by
    /// re-sampling rows uniformly from the reservoir — the `p = 1` sampler
    /// of the dichotomy. Reported probabilities are the sample-estimated
    /// `f̂_i/n`.
    ///
    /// # Errors
    /// Dimension, codec, or empty-data errors.
    pub fn l1_sample(
        &self,
        cols: &ColumnSet,
        count: usize,
        seed: u64,
    ) -> Result<Vec<SampledPattern>, QueryError> {
        let sample = self.projected_sample(cols)?;
        if sample.is_empty() {
            return Err(QueryError::EmptyData);
        }
        let counts = self.counted(cols, &sample)?;
        let m = sample.len() as f64;
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        Ok((0..count)
            .map(|_| {
                let key = sample[rng.range_u64(sample.len() as u64) as usize];
                let at = counts.binary_search_by_key(&key, |&(k, _)| k);
                let (_, g) = counts[at.expect("a sampled key was counted")];
                SampledPattern {
                    key,
                    probability: g as f64 / m,
                }
            })
            .collect())
    }
}

impl Persist for UniformSampleSummary {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u32(self.d);
        enc.put_u32(self.q);
        // The store variant is implied by q (binary iff q == 2), so only
        // the reservoir itself travels.
        match &self.rows {
            RowStore::Binary(r) => r.encode(enc),
            RowStore::Qary(r) => r.encode(enc),
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, PersistError> {
        let d = dec.take_u32()?;
        if d > 63 {
            return Err(PersistError::Malformed(format!("dimension d={d} above 63")));
        }
        let q = dec.take_u32()?;
        if q < 2 {
            return Err(PersistError::Malformed(format!("alphabet q={q} below 2")));
        }
        let rows = if q == 2 {
            let r: Reservoir<u64> = Reservoir::decode(dec)?;
            let limit = if d == 0 { 0 } else { (1u64 << d) - 1 };
            if let Some(&bad) = r.sample().iter().find(|&&row| row & !limit != 0) {
                return Err(PersistError::Malformed(format!(
                    "sampled row {bad:#b} has bits above d={d}"
                )));
            }
            RowStore::Binary(r)
        } else {
            let r: Reservoir<Box<[u16]>> = Reservoir::decode(dec)?;
            for row in r.sample() {
                if row.len() != d as usize {
                    return Err(PersistError::Malformed(format!(
                        "sampled row has {} symbol(s), dimension is {d}",
                        row.len()
                    )));
                }
                if let Some(&s) = row.iter().find(|&&s| s as u32 >= q) {
                    return Err(PersistError::Malformed(format!(
                        "sampled symbol {s} outside alphabet [{q}]"
                    )));
                }
            }
            RowStore::Qary(r)
        };
        Ok(Self { rows, d, q })
    }
}

impl SpaceUsage for UniformSampleSummary {
    fn space_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + match &self.rows {
                RowStore::Binary(r) => r.space_bytes(),
                RowStore::Qary(r) => {
                    r.space_bytes() + r.sample().iter().map(|b| b.len() * 2).sum::<usize>()
                }
            }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfe_row::{BinaryMatrix, FrequencyVector};
    use pfe_stream::gen::{uniform_qary, zipf_patterns};

    #[test]
    fn frequency_estimate_within_additive_error() {
        let d = 20;
        let data = zipf_patterns(d, 100_000, 100, 1.2, 1);
        let eps = 0.05;
        // Theorem 5.1: t = ceil(ln(2/delta)/eps^2) rows at delta = 0.01.
        let t = ((2.0f64 / 0.01).ln() / (eps * eps)).ceil() as usize;
        let s = UniformSampleSummary::build(&data, t, 2);
        let cols = ColumnSet::from_indices(d, &[0, 2, 4, 6, 8]).expect("valid");
        let exact = FrequencyVector::compute(&data, &cols).expect("fits");
        let n = exact.total() as f64;
        // Check the heaviest few patterns.
        let mut checked = 0;
        let mut worst: f64 = 0.0;
        for (key, count) in exact.sorted_counts().into_iter().take(10) {
            let est = s.frequency(&cols, key).expect("ok");
            worst = worst.max((est - count as f64).abs() / n);
            checked += 1;
        }
        assert!(checked > 0);
        // Allow 2x the one-shot eps since we take a max over 10 patterns.
        assert!(worst <= 2.0 * eps, "worst additive error {worst}");
    }

    #[test]
    fn projection_after_sampling_equals_sampling_after_projection() {
        // The key property: the sample was taken before knowing C, yet
        // estimates are valid for every C. Exercise several C on one build.
        let data = zipf_patterns(16, 20_000, 50, 1.0, 3);
        let s = UniformSampleSummary::build(&data, 2000, 4);
        for mask in [0b1u64, 0b1010, 0b111100001111] {
            let cols = ColumnSet::from_mask(16, mask).expect("valid");
            let exact = FrequencyVector::compute(&data, &cols).expect("fits");
            let (key, count) = exact.sorted_counts()[0];
            let est = s.frequency(&cols, key).expect("ok");
            let rel = (est - count as f64).abs() / exact.total() as f64;
            assert!(rel < 0.05, "mask {mask:#b}: additive error {rel}");
        }
    }

    #[test]
    fn heavy_hitters_recall_for_p_leq_1() {
        let data = zipf_patterns(18, 50_000, 30, 1.5, 5);
        let s = UniformSampleSummary::build(&data, 4000, 6);
        let cols = ColumnSet::full(18).expect("valid");
        let exact = FrequencyVector::compute(&data, &cols).expect("fits");
        for p in [0.5, 1.0] {
            let truth: Vec<PatternKey> = exact
                .heavy_hitters(0.1, p)
                .into_iter()
                .map(|(k, _)| k)
                .collect();
            let reported: Vec<PatternKey> = s
                .heavy_hitters(&cols, 0.1, p, 2.0)
                .expect("ok")
                .into_iter()
                .map(|h| h.key)
                .collect();
            for k in &truth {
                assert!(reported.contains(k), "missed true HH at p={p}");
            }
            // Soundness with slack c=2: nothing below (phi/c^2)-ish mass.
            let floor = 0.1 / 4.0 * exact.total() as f64;
            for k in &reported {
                assert!(
                    exact.frequency(*k) as f64 >= floor * 0.5,
                    "reported spurious pattern at p={p}"
                );
            }
        }
    }

    #[test]
    fn p_above_one_rejected() {
        let data = zipf_patterns(10, 100, 10, 1.0, 7);
        let s = UniformSampleSummary::build(&data, 50, 8);
        let cols = ColumnSet::full(10).expect("valid");
        assert!(matches!(
            s.heavy_hitters(&cols, 0.1, 1.5, 2.0),
            Err(QueryError::UnsupportedMoment { .. })
        ));
    }

    #[test]
    fn l1_sampling_tracks_distribution() {
        let rows = vec![0b11u64; 60]
            .into_iter()
            .chain(vec![0b01u64; 40])
            .collect();
        let data = Dataset::Binary(BinaryMatrix::from_rows(2, rows));
        let s = UniformSampleSummary::build(&data, 100, 9); // full sample
        let cols = ColumnSet::full(2).expect("valid");
        let draws = s.l1_sample(&cols, 20_000, 10).expect("ok");
        let frac = draws
            .iter()
            .filter(|x| x.key == PatternKey::new(0b11))
            .count() as f64
            / draws.len() as f64;
        assert!((frac - 0.6).abs() < 0.02, "l1 sample fraction {frac}");
        // Probabilities reported match sample frequencies.
        let p11 = draws
            .iter()
            .find(|x| x.key == PatternKey::new(0b11))
            .expect("drawn")
            .probability;
        assert!((p11 - 0.6).abs() < 1e-9);
    }

    #[test]
    fn qary_path_works() {
        let data = uniform_qary(5, 8, 5000, 11);
        let s = UniformSampleSummary::build(&data, 1000, 12);
        let cols = ColumnSet::from_indices(8, &[1, 3]).expect("valid");
        let exact = FrequencyVector::compute(&data, &cols).expect("fits");
        let (key, count) = exact.sorted_counts()[0];
        let est = s.frequency(&cols, key).expect("ok");
        let rel = (est - count as f64).abs() / exact.total() as f64;
        assert!(rel < 0.1, "qary additive error {rel}");
    }

    #[test]
    fn space_independent_of_stream_length() {
        let small = UniformSampleSummary::build(&zipf_patterns(12, 1000, 20, 1.0, 13), 256, 0);
        let large = UniformSampleSummary::build(&zipf_patterns(12, 100_000, 20, 1.0, 13), 256, 0);
        // Both hold <= 256 rows: same order of space.
        assert!(large.space_bytes() <= small.space_bytes() * 2 + 1024);
    }

    #[test]
    fn streaming_push_matches_build() {
        let data = uniform_qary(3, 6, 500, 14);
        let built = UniformSampleSummary::build(&data, 100, 15);
        let mut pushed = UniformSampleSummary::new(6, 3, 100, 15);
        for i in 0..data.num_rows() {
            pushed.push_dense(&data.row_dense(i));
        }
        assert_eq!(built.n(), pushed.n());
        let cols = ColumnSet::from_indices(6, &[0, 5]).expect("valid");
        assert_eq!(
            built.projected_sample(&cols).expect("ok"),
            pushed.projected_sample(&cols).expect("ok")
        );
    }

    #[test]
    fn merge_preserves_estimates_within_tolerance() {
        // Split one stream across two shards; the merged summary's
        // frequency estimates must stay within sampling tolerance of a
        // single-shard build over the full stream.
        let d = 16;
        let data = zipf_patterns(d, 60_000, 50, 1.3, 21);
        let (n, t) = (data.num_rows(), 4096);
        let mut a = UniformSampleSummary::new(d, 2, t, 100);
        let mut b = UniformSampleSummary::new(d, 2, t, 101);
        for i in 0..n {
            if i % 2 == 0 {
                a.push_dense(&data.row_dense(i));
            } else {
                b.push_dense(&data.row_dense(i));
            }
        }
        a.merge(&b);
        assert_eq!(a.n(), n as u64);
        assert_eq!(a.sample_len(), t);
        let cols = ColumnSet::from_indices(d, &[0, 3, 6, 9]).expect("valid");
        let exact = pfe_row::FrequencyVector::compute(&data, &cols).expect("fits");
        let total = exact.total() as f64;
        for (key, count) in exact.sorted_counts().into_iter().take(5) {
            let est = a.frequency(&cols, key).expect("ok");
            let rel = (est - count as f64).abs() / total;
            assert!(rel < 0.05, "merged additive error {rel}");
        }
    }

    #[test]
    fn merge_underfull_shards_is_lossless() {
        let data = uniform_qary(3, 6, 200, 31);
        let mut a = UniformSampleSummary::new(6, 3, 1000, 1);
        let mut b = UniformSampleSummary::new(6, 3, 1000, 2);
        for i in 0..100 {
            a.push_dense(&data.row_dense(i));
        }
        for i in 100..200 {
            b.push_dense(&data.row_dense(i));
        }
        a.merge(&b);
        let full = UniformSampleSummary::build(&data, 1000, 3);
        let cols = ColumnSet::from_indices(6, &[1, 4]).expect("valid");
        // Underfull on both sides: the merged sample is the whole stream,
        // so projected pattern multisets agree exactly.
        let mut ka = a.projected_sample(&cols).expect("ok");
        let mut kf = full.projected_sample(&cols).expect("ok");
        ka.sort_unstable();
        kf.sort_unstable();
        assert_eq!(ka, kf);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn merge_rejects_dimension_mismatch() {
        let mut a = UniformSampleSummary::new(8, 2, 16, 0);
        let b = UniformSampleSummary::new(9, 2, 16, 0);
        a.merge(&b);
    }

    #[test]
    fn push_packed_matches_push_dense() {
        let data = zipf_patterns(10, 500, 20, 1.0, 41);
        let mut packed = UniformSampleSummary::new(10, 2, 64, 5);
        let mut dense = UniformSampleSummary::new(10, 2, 64, 5);
        if let Dataset::Binary(m) = &data {
            for &row in m.rows() {
                packed.push_packed(row);
            }
        } else {
            unreachable!("generator yields binary data");
        }
        for i in 0..data.num_rows() {
            dense.push_dense(&data.row_dense(i));
        }
        let cols = ColumnSet::full(10).expect("valid");
        assert_eq!(
            packed.projected_sample(&cols).expect("ok"),
            dense.projected_sample(&cols).expect("ok")
        );
    }

    /// The reads as they were before the histogram: one `BTreeMap` count
    /// of the materialized sample. Equal element by element — order,
    /// estimates and probabilities to the bit — for a projected domain
    /// under the histogram bound and one over it.
    #[test]
    fn reads_equal_a_btreemap_count_of_the_projected_sample() {
        use std::collections::BTreeMap;
        let binary = zipf_patterns(16, 5_000, 300, 1.1, 51);
        let qary = uniform_qary(4, 8, 3_000, 52);
        for (data, t) in [(&binary, 512), (&qary, 256)] {
            let s = UniformSampleSummary::build(data, t, 53);
            let d = data.dimension();
            for width in [3, d] {
                let cols = ColumnSet::from_mask(d, (1 << width) - 1).expect("valid");
                let domain = (data.alphabet() as usize).pow(width);
                assert_eq!(width == 3, domain <= HISTOGRAM_SLOTS_PER_ROW * t);
                let sample = s.projected_sample(&cols).expect("ok");
                let mut counts = BTreeMap::new();
                for &key in &sample {
                    *counts.entry(key).or_insert(0u64) += 1;
                }

                let (phi, c) = (0.002, 2.0);
                let threshold = (phi / c) * s.n() as f64;
                let mut expect: Vec<_> = counts
                    .iter()
                    .map(|(&key, &g)| (key, g as f64 / s.rate()))
                    .filter(|&(_, estimate)| estimate >= threshold)
                    .collect();
                expect.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite").then(a.0.cmp(&b.0)));
                let got = s.heavy_hitters(&cols, phi, 1.0, c).expect("ok");
                assert!(got.len() > 1, "width {width}: nothing to order");
                assert_eq!(
                    got.iter().map(|h| (h.key, h.estimate)).collect::<Vec<_>>(),
                    expect,
                    "heavy hitters, width {width}"
                );

                let mut rng = Xoshiro256pp::seed_from_u64(54);
                let draws = s.l1_sample(&cols, 64, 54).expect("ok");
                for drawn in draws {
                    let key = sample[rng.range_u64(sample.len() as u64) as usize];
                    let probability = counts[&key] as f64 / sample.len() as f64;
                    assert_eq!((drawn.key, drawn.probability), (key, probability));
                }

                let absent = PatternKey::new(domain as u128 - 1);
                for key in counts.keys().copied().take(20).chain([absent]) {
                    let g = counts.get(&key).copied().unwrap_or(0);
                    assert_eq!(
                        s.frequency(&cols, key).expect("ok"),
                        g as f64 / s.rate(),
                        "frequency, width {width}"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_summary_behaviour() {
        let s = UniformSampleSummary::new(8, 2, 16, 0);
        let cols = ColumnSet::full(8).expect("valid");
        assert_eq!(s.frequency(&cols, PatternKey::new(0)).expect("ok"), 0.0);
        assert!(matches!(
            s.l1_sample(&cols, 5, 0),
            Err(QueryError::EmptyData)
        ));
    }
}
