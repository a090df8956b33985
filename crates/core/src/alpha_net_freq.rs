//! The α-net summary for point frequency — the closing remark of the
//! paper's Section 6: Algorithm 1
//! ([`AlphaNetSummary`]) reused
//! unchanged, with a CountMin per member.
//!
//! > "similar results are possible for the other functions considered,
//! > ℓ_p frequency estimation, ℓ_p heavy hitters and ℓ_p sampling. The key
//! > insight is that all these functions depend at their heart on the
//! > quantity `f_j/‖f‖_p` [...] If we evaluate this quantity on a superset
//! > of columns, then both the numerator and denominator may shrink or
//! > grow, in the same ways as analyzed in Lemma 6.4."
//!
//! We realize the remark with *grow-side* rounding: a query `C` not in the
//! net is rounded to a superset `C′ ⊇ C` of size `(1/2+α)d`. On a superset,
//! a pattern `b ∈ [Q]^{|C|}` corresponds to the set of its extensions on
//! `C′ \ C`, and `f_C(b) = Σ_{ext} f_{C′}(b·ext)` exactly. So a point
//! frequency is the sum of the sketch's point estimates over all
//! `Q^{|C′\C|}` extensions (at most `Q^{2αd}` terms — the same magnitude
//! Lemma 6.4 charges the answer anyway). CountMin overestimates each
//! term, so the summed estimate inherits a one-sided
//! `ε‖f‖₁·Q^{|C′\C|}` error bound. (Heavy hitters are served from the
//! Theorem 5.1 uniform sample, not from a net.)

use pfe_hash::Features;
use pfe_persist::{Decoder, Encoder, Persist, PersistError};
use pfe_row::{ColumnSet, Dataset, PatternCodec, PatternKey};
use pfe_sketch::count_min::CountMin;
use pfe_sketch::traits::FrequencySketch;

use crate::alpha_net::{AlphaNet, NetMode, RoundedQuery};
use crate::net_sketches::{same, AlphaNetSummary, Mergeable, Statistic};
use crate::problem::{check_dims, QueryError};

/// Upper bound on extension enumeration per query (`Q^{|C′\C|}` terms).
const MAX_EXTENSIONS: u128 = 1 << 20;

/// Grow-side rounding: the smallest net superset of `C` (or `C` itself if
/// it is already in the net). The cost is at most `large − small − 1 ≤
/// ⌈2αd⌉` columns, twice the nearest-neighbour bound — the price of
/// keeping the pattern correspondence exact.
fn round_up(net: &AlphaNet, cols: &ColumnSet) -> Result<RoundedQuery, QueryError> {
    check_dims(net.dimension(), cols)?;
    let width = if net.contains(cols) {
        cols.len()
    } else {
        net.large_size()
    };
    Ok(net.resized(cols, width))
}

/// The per-query answer of the frequency net.
#[derive(Debug, Clone, PartialEq)]
pub struct FreqNetAnswer {
    /// The (summed) frequency estimate for the queried pattern.
    pub estimate: f64,
    /// The net member the sketches were read from.
    pub answered_on: ColumnSet,
    /// Number of added columns (`|C′ \ C|`).
    pub grown_by: u32,
    /// Number of extension patterns summed.
    pub extensions: u128,
}

/// The point-frequency plug-in of Algorithm 1: a CountMin per member,
/// counting each projected key's fingerprint as many times as the chunk
/// held it (CountMin counters are exact integer sums).
#[derive(Clone)]
pub struct PointFrequency {
    fingerprint_seed: u64,
}

impl Statistic for PointFrequency {
    type Sketch = CountMin;

    fn feed(&self, sketch: &mut CountMin, key: PatternKey, multiplicity: u32) {
        sketch.update(
            key.fingerprint64(self.fingerprint_seed),
            multiplicity.into(),
        );
    }

    fn feed_block(&self, sketch: &mut CountMin, keys: &mut [u64], weights: Option<&[u32]>) {
        pfe_hash::hash_keys(Features::detect(), keys, self.fingerprint_seed, None);
        for (i, &item) in keys.iter().enumerate() {
            sketch.update(item, weights.map_or(1, |w| w[i]).into());
        }
    }

    fn check_mergeable(&self, other: &Self) -> Result<(), String> {
        same(
            "frequency-net fingerprint seed",
            self.fingerprint_seed,
            other.fingerprint_seed,
        )
    }
}

impl Mergeable for CountMin {
    fn check_mergeable(&self, other: &Self) -> Result<(), String> {
        same("CountMin depth", self.depth(), other.depth())?;
        same("CountMin width", self.width(), other.width())
    }

    fn merge_from(&mut self, other: &Self) {
        self.merge(other);
    }
}

/// α-net point-frequency summary: one CountMin per net subset, always
/// the full net.
pub type AlphaNetFrequency = AlphaNetSummary<PointFrequency>;

impl AlphaNetFrequency {
    /// Build over a dataset with `depth × width` CountMin sketches.
    ///
    /// # Errors
    /// Parameter/codec errors; net size above `max_subsets`.
    pub fn build(
        data: &Dataset,
        net: AlphaNet,
        depth: usize,
        width: usize,
        max_subsets: u128,
        seed: u64,
    ) -> Result<Self, QueryError> {
        Self::new_streaming(net, data.alphabet(), depth, width, max_subsets, seed)?.fed(data)
    }

    /// Create an empty streaming summary over alphabet `q`. Same sketch
    /// contents as [`build`](Self::build) over the same rows.
    ///
    /// # Errors
    /// Parameter/codec errors; net size above `max_subsets`.
    pub fn new_streaming(
        net: AlphaNet,
        q: u32,
        depth: usize,
        width: usize,
        max_subsets: u128,
        seed: u64,
    ) -> Result<Self, QueryError> {
        let stat = PointFrequency {
            fingerprint_seed: 0xfe_0fe0 ^ seed,
        };
        Self::new(stat, net, NetMode::Full, max_subsets, q, |mask| {
            CountMin::new(depth, width, seed ^ mask)
        })
    }

    /// Rows ingested (`n = ‖f‖₁`): every member has counted every row.
    pub fn n(&self) -> u64 {
        self.first().total() as u64
    }

    /// The pattern-fingerprint seed actually in use (derived from the
    /// build seed).
    pub fn fingerprint_seed(&self) -> u64 {
        self.stat.fingerprint_seed
    }

    /// Estimate `f_{e(b)}` for a pattern `b` given over the *query* columns
    /// `cols` (as a [`PatternKey`] in the `cols` codec).
    ///
    /// The estimate is the sum of CountMin point queries over all
    /// extensions of `b` to the rounded superset — an overestimate (like
    /// CountMin itself) by at most `#extensions × ε‖f‖₁`.
    ///
    /// # Errors
    /// Dimension/codec errors; `BadParameter` if `Q^{|C′\C|}` exceeds the
    /// enumeration cap.
    pub fn frequency(
        &self,
        cols: &ColumnSet,
        key: PatternKey,
    ) -> Result<FreqNetAnswer, QueryError> {
        let q = self.alphabet();
        let r = round_up(self.net(), cols)?;
        let sketch = self.answering(&r);
        // Enumerate extensions: patterns on target whose restriction to
        // cols equals `key`.
        let extra = r.target.symmetric_difference(cols);
        let num_ext = (q as u128)
            .checked_pow(extra.len())
            .filter(|&n| n <= MAX_EXTENSIONS)
            .ok_or_else(|| {
                QueryError::BadParameter(format!(
                    "extension enumeration Q^{} exceeds cap",
                    extra.len()
                ))
            })?;
        let query_codec = PatternCodec::new(q, cols.len())?;
        let target_codec = PatternCodec::new(q, r.target.len())?;
        let base_pattern = query_codec.decode(key);
        // Positions of the original columns inside the target's ascending
        // order, so digits can be interleaved correctly.
        let target_cols = r.target.to_indices();
        let orig_pos: Vec<usize> = cols
            .iter()
            .map(|c| {
                target_cols
                    .binary_search(&c)
                    .expect("cols subset of target")
            })
            .collect();
        let ext_pos: Vec<usize> = extra
            .iter()
            .map(|c| {
                target_cols
                    .binary_search(&c)
                    .expect("extra subset of target")
            })
            .collect();
        let mut pattern = vec![0u16; target_cols.len()];
        for (digit, &pos) in base_pattern.iter().zip(&orig_pos) {
            pattern[pos] = *digit;
        }
        let mut total = 0.0;
        for ext_index in 0..num_ext {
            let mut v = ext_index;
            for &pos in &ext_pos {
                pattern[pos] = (v % q as u128) as u16;
                v /= q as u128;
            }
            let ext_key = target_codec.encode_pattern(&pattern);
            total += sketch.estimate(ext_key.fingerprint64(self.fingerprint_seed()));
        }
        Ok(FreqNetAnswer {
            estimate: total,
            answered_on: r.target,
            grown_by: r.sym_diff,
            extensions: num_ext,
        })
    }
}

/// The header keeps no mode (the net is always full): net, `Q`, the row
/// count, the fingerprint seed.
impl Persist for AlphaNetFrequency {
    fn encode(&self, enc: &mut Encoder) {
        self.net().encode(enc);
        enc.put_u32(self.alphabet());
        enc.put_u64(self.n());
        enc.put_u64(self.fingerprint_seed());
        self.encode_members(enc, CountMin::encode);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, PersistError> {
        let shape = (AlphaNet::decode(dec)?, NetMode::Full, dec.take_u32()?);
        let n_rows = dec.take_u64()?;
        let stat = PointFrequency {
            fingerprint_seed: dec.take_u64()?,
        };
        let this = Self::decode_members(dec, stat, shape, CountMin::decode)?;
        if this.n() != n_rows {
            return Err(PersistError::Malformed(format!(
                "frequency net claims {n_rows} rows but its sketches counted {}",
                this.n()
            )));
        }
        // Every CountMin must share one geometry, or merges would panic.
        this.sketches()
            .try_for_each(|cm| cm.check_mergeable(this.first()))
            .map_err(|what| PersistError::Malformed(format!("across subsets, {what}")))?;
        Ok(this)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfe_row::FrequencyVector;
    use pfe_sketch::traits::SpaceUsage;
    use pfe_stream::gen::zipf_patterns;

    fn fixture(d: u32, n: usize, seed: u64) -> Dataset {
        zipf_patterns(d, n, 30, 1.4, seed)
    }

    #[test]
    fn frequency_in_net_matches_count_min() {
        let d = 10;
        let data = fixture(d, 5000, 1);
        let net = AlphaNet::new(d, 0.25).expect("valid");
        let summary = AlphaNetFrequency::build(&data, net, 4, 512, 1 << 20, 7).expect("build");
        // In-net query (size 2 <= small): single point query, no extension.
        let cols = ColumnSet::from_indices(d, &[0, 1]).expect("valid");
        let exact = FrequencyVector::compute(&data, &cols).expect("fits");
        let (key, count) = exact
            .sorted_counts()
            .into_iter()
            .max_by_key(|&(_, c)| c)
            .expect("ne");
        let ans = summary.frequency(&cols, key).expect("ok");
        assert_eq!(ans.grown_by, 0);
        assert_eq!(ans.extensions, 1);
        // CountMin overestimates; error <= eps * n with eps = e/512.
        assert!(ans.estimate >= count as f64);
        assert!(ans.estimate <= count as f64 + 0.02 * 5000.0);
    }

    #[test]
    fn frequency_rounded_sums_extensions() {
        let d = 10;
        let data = fixture(d, 5000, 2);
        let net = AlphaNet::new(d, 0.2).expect("valid");
        let summary = AlphaNetFrequency::build(&data, net, 4, 1024, 1 << 20, 8).expect("build");
        // Mid-size query gets grown; the summed estimate still brackets the
        // true count from above, within #extensions * eps * n.
        let cols = ColumnSet::from_indices(d, &[0, 2, 4, 6]).expect("valid");
        assert!(!net.contains(&cols));
        let exact = FrequencyVector::compute(&data, &cols).expect("fits");
        let (key, count) = exact
            .sorted_counts()
            .into_iter()
            .max_by_key(|&(_, c)| c)
            .expect("ne");
        let ans = summary.frequency(&cols, key).expect("ok");
        assert!(ans.grown_by >= 1);
        assert_eq!(ans.extensions, 2u128.pow(ans.grown_by));
        assert!(
            ans.estimate >= count as f64,
            "summed estimate {} below true count {count}",
            ans.estimate
        );
        let slack = ans.extensions as f64 * (std::f64::consts::E / 1024.0) * 5000.0;
        assert!(
            ans.estimate <= count as f64 + slack,
            "estimate {} above count {count} + slack {slack}",
            ans.estimate
        );
    }

    #[test]
    fn extension_cap_enforced() {
        // Large alphabet + wide growth -> enumeration refused, typed error.
        let data = pfe_stream::gen::uniform_qary(64, 12, 100, 5);
        let net = AlphaNet::new(12, 0.3).expect("valid");
        let summary = AlphaNetFrequency::build(&data, net, 2, 64, 1 << 20, 9).expect("build");
        let cols = ColumnSet::from_indices(12, &[0, 1, 2, 3, 4]).expect("valid");
        // grown_by = large(10) - 5 = 5 -> 64^5 = 2^30 > cap.
        let r = summary.frequency(&cols, PatternKey::new(0));
        assert!(matches!(r, Err(QueryError::BadParameter(_))));
    }

    #[test]
    fn header_row_count_must_match_the_sketches() {
        let data = fixture(8, 300, 4);
        let net = AlphaNet::new(8, 0.25).expect("valid");
        let summary = AlphaNetFrequency::build(&data, net, 2, 64, 1 << 20, 5).expect("build");
        assert_eq!(summary.n(), 300);
        let mut enc = Encoder::new();
        summary.encode(&mut enc);
        let mut bytes = enc.into_bytes();
        // The header is net (d: u32, alpha: f64), Q: u32, then the count.
        assert_eq!(bytes[16..24], 300u64.to_le_bytes(), "layout moved");
        bytes[16] ^= 1;
        assert!(matches!(
            AlphaNetFrequency::decode(&mut Decoder::new(&bytes)),
            Err(PersistError::Malformed(_))
        ));
    }

    #[test]
    fn space_scales_with_net() {
        let d = 10;
        let data = fixture(d, 1000, 6);
        let tight = AlphaNetFrequency::build(
            &data,
            AlphaNet::new(d, 0.4).expect("valid"),
            2,
            64,
            1 << 20,
            0,
        )
        .expect("build");
        let loose = AlphaNetFrequency::build(
            &data,
            AlphaNet::new(d, 0.1).expect("valid"),
            2,
            64,
            1 << 20,
            0,
        )
        .expect("build");
        assert!(loose.space_bytes() > tight.space_bytes());
    }
}
