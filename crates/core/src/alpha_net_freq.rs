//! The α-net summary for point frequency — the closing remark of the
//! paper's Section 6.
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

use pfe_persist::{Decoder, Encoder, Persist, PersistError};
use pfe_row::{ColumnSet, Dataset, PatternCodec, PatternKey};
use pfe_sketch::count_min::CountMin;
use pfe_sketch::traits::{FrequencySketch, SpaceUsage};

use crate::alpha_net::{AlphaNet, NetMode, RoundedQuery};
use crate::net_sketches::{Feed, NetSketches};
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

/// α-net point-frequency summary: one CountMin per net subset.
#[derive(Clone)]
pub struct AlphaNetFrequency {
    members: NetSketches<CountMin>,
    n_rows: u64,
    fingerprint_seed: u64,
}

impl AlphaNetFrequency {
    /// What a member does with a projected key: count its fingerprint,
    /// as many times as the chunk held it (CountMin counters are exact
    /// integer sums).
    fn feed(fingerprint_seed: u64) -> impl Fn(&mut CountMin, PatternKey, u32) {
        move |cm, key, multiplicity| {
            cm.update(key.fingerprint64(fingerprint_seed), multiplicity.into())
        }
    }

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
        let fingerprint_seed = Self::fingerprint_seed_for(seed);
        let members = NetSketches::build(
            data,
            net,
            NetMode::Full,
            max_subsets,
            |mask| CountMin::new(depth, width, seed ^ mask),
            Feed::Counted,
            Self::feed(fingerprint_seed),
        )?;
        Ok(Self {
            members,
            n_rows: data.num_rows() as u64,
            fingerprint_seed,
        })
    }

    /// Create an empty streaming summary over alphabet `q`; feed rows with
    /// [`push_dense_chunk`](Self::push_dense_chunk) or (for `q = 2`)
    /// [`push_packed_chunk`](Self::push_packed_chunk). Same sketch contents as
    /// [`build`](Self::build) over the same rows.
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
        let members = NetSketches::new(net, NetMode::Full, max_subsets, q, |mask| {
            CountMin::new(depth, width, seed ^ mask)
        })?;
        Ok(Self {
            members,
            n_rows: 0,
            fingerprint_seed: Self::fingerprint_seed_for(seed),
        })
    }

    /// Observe a chunk of packed binary rows: one mask-major sweep, every
    /// CountMin updated once per distinct projected key of the chunk,
    /// weighted by its multiplicity.
    ///
    /// # Panics
    /// Panics if the summary is not binary or a row has bits at or above
    /// `d`.
    pub fn push_packed_chunk(&mut self, rows: &[u64]) {
        self.members
            .push_packed_chunk(rows, Feed::Counted, Self::feed(self.fingerprint_seed));
        self.n_rows += rows.len() as u64;
    }

    /// Observe a flat row-major chunk of dense rows (`d` symbols per
    /// row; any alphabet).
    ///
    /// # Panics
    /// Panics unless `flat` is a whole number of rows of in-alphabet
    /// symbols.
    pub fn push_dense_chunk(&mut self, flat: &[u16]) {
        self.members
            .push_dense_chunk(flat, Feed::Counted, Self::feed(self.fingerprint_seed));
        self.n_rows += (flat.len() / self.net().dimension() as usize) as u64;
    }

    /// Merge a summary built over a disjoint segment of the same stream:
    /// per-subset CountMin addition. Both sides must share the net,
    /// alphabet, seed, and sketch geometry (use identical build parameters).
    ///
    /// # Panics
    /// Panics on net/alphabet/seed mismatch (and propagates CountMin's
    /// parameter-mismatch panics).
    pub fn merge(&mut self, other: &Self) {
        assert_eq!(
            self.fingerprint_seed, other.fingerprint_seed,
            "frequency-net merge: seed mismatch"
        );
        self.members.merge(&other.members, CountMin::merge);
        self.n_rows += other.n_rows;
    }

    /// The net definition.
    pub fn net(&self) -> &AlphaNet {
        self.members.net()
    }

    /// Rows ingested (`n = ‖f‖₁`).
    pub fn n(&self) -> u64 {
        self.n_rows
    }

    /// The alphabet size `Q`.
    pub fn alphabet(&self) -> u32 {
        self.members.alphabet()
    }

    /// The pattern-fingerprint seed actually in use (derived from the
    /// build seed).
    pub fn fingerprint_seed(&self) -> u64 {
        self.fingerprint_seed
    }

    /// The fingerprint seed a build with base seed `seed` uses.
    fn fingerprint_seed_for(seed: u64) -> u64 {
        0xfe_0fe0 ^ seed
    }

    /// The CountMin materialized for `mask`, if it is a net member.
    pub fn sketch(&self, mask: u64) -> Option<&CountMin> {
        self.members.get(mask)
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
        let sketch = self.members.answering(&r);
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
            total += sketch.estimate(ext_key.fingerprint64(self.fingerprint_seed));
        }
        Ok(FreqNetAnswer {
            estimate: total,
            answered_on: r.target,
            grown_by: r.sym_diff,
            extensions: num_ext,
        })
    }
}

impl Persist for AlphaNetFrequency {
    fn encode(&self, enc: &mut Encoder) {
        self.net().encode(enc);
        enc.put_u32(self.alphabet());
        enc.put_u64(self.n_rows);
        enc.put_u64(self.fingerprint_seed);
        self.members.encode_members(enc);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, PersistError> {
        let net = AlphaNet::decode(dec)?;
        let q = dec.take_u32()?;
        let n_rows = dec.take_u64()?;
        let fingerprint_seed = dec.take_u64()?;
        let members: NetSketches<CountMin> =
            NetSketches::decode_members(dec, net, NetMode::Full, q)?;
        // Every CountMin must share one geometry, or merges would panic.
        let geometry = |cm: &CountMin| (cm.depth(), cm.width());
        let first = geometry(members.first());
        if let Some(other) = members.sketches().map(geometry).find(|&g| g != first) {
            return Err(PersistError::Malformed(format!(
                "CountMin geometry mismatch across subsets: {first:?} vs {other:?}"
            )));
        }
        Ok(Self {
            members,
            n_rows,
            fingerprint_seed,
        })
    }
}

impl SpaceUsage for AlphaNetFrequency {
    fn space_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.members.member_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfe_row::FrequencyVector;
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
