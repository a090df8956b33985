//! The α-net of Section 6 (Definition 6.1, Lemmas 6.2/6.4) and the
//! distinct-count and moment statistics of its summary (Algorithm 1,
//! Theorem 6.5 — the summary itself is
//! [`AlphaNetSummary`]).
//!
//! An α-net `N = {U ⊆ [d] : |U| ≤ (1/2−α)d or |U| ≥ (1/2+α)d}` has size at
//! most `2^{H(1/2−α)d+1}` (Lemma 6.2) — strictly sublinear in `2^d`. The
//! summary keeps one β-approximate sketch per net subset; a query `C` not
//! in the net is *rounded* to an α-neighbour `C′ ∈ N` with
//! `|C Δ C′| ≤ ⌈αd⌉`, and the answer for `C′` is returned. The price is
//! the rounding distortion of Lemma 6.4:
//!
//! - `F_0`: `r = Q^{|CΔC′|}` (binary: `2^{αd}` worst case),
//! - `F_p, p > 1`: `r = Q^{|CΔC′|(p−1)}`,
//! - `F_p, p < 1`: `r = Q^{|CΔC′|(1−p)}`,
//!
//! for an overall `β·r(α,d)` approximation (Theorem 6.5). Against keeping
//! all `2^d` sketches this trades an `N^α`-type factor for
//! `min(N^{H(1/2−α)}, n)`-type space, `N = 2^d` — the tradeoff Figure 1
//! plots and our `figure1` bench regenerates.

use std::marker::PhantomData;

use pfe_codes::binomial::binomial_sum;
use pfe_codes::entropy::{binary_entropy, net_size_bound_log2};
use pfe_codes::subsets::FixedWeightIter;
use pfe_persist::{Decoder, Encoder, Persist, PersistError};
use pfe_row::{ColumnSet, PatternCodec, PatternKey};
use pfe_sketch::kmv::Kmv;
use pfe_sketch::traits::DistinctSketch;

use crate::net_sketches::{decode_shape, same, AlphaNetSummary, Mergeable, Statistic};
use crate::problem::{check_dims, QueryError};

/// Seed for pattern-key fingerprinting; fixed so that the same pattern maps
/// to the same 64-bit item in every sketch (sketch-internal hashing is
/// seeded per sketch by the factory).
pub(crate) const FINGERPRINT_SEED: u64 = 0xf1a9_f1a9_f1a9_f1a9;

/// Which net subsets to materialize.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetMode {
    /// Every subset of the net (the paper's Algorithm 1).
    Full,
    /// Only the boundary weights `(1/2−α)d` and `(1/2+α)d` — an engineering
    /// ablation: all queries are rounded (even net members of other sizes),
    /// trading accuracy on small/large queries for far fewer sketches.
    BoundaryOnly,
}

/// The α-net over `P([d])` (Definition 6.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlphaNet {
    d: u32,
    alpha: f64,
    /// Largest "small" size `⌊(1/2−α)d⌋`.
    small: u32,
    /// Smallest "large" size `⌈(1/2+α)d⌉`.
    large: u32,
}

/// A query after net rounding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundedQuery {
    /// The net member the query was rounded to (equals the query if it was
    /// already a member).
    pub target: ColumnSet,
    /// `|C Δ C′|`.
    pub sym_diff: u32,
}

impl AlphaNet {
    /// Define the α-net for dimension `d`.
    ///
    /// ```
    /// use pfe_core::alpha_net::AlphaNet;
    ///
    /// let net = AlphaNet::new(20, 0.25).unwrap();
    /// assert_eq!(net.small_size(), 5);   // floor((1/2 - 0.25) * 20)
    /// assert_eq!(net.large_size(), 15);  // ceil((1/2 + 0.25) * 20)
    /// // Lemma 6.2: strictly sublinear in 2^d.
    /// assert!(net.size() < 1 << 20);
    /// ```
    ///
    /// # Errors
    /// Fails unless `1 ≤ d ≤ 63` and `α ∈ (0, 1/2)`.
    pub fn new(d: u32, alpha: f64) -> Result<Self, QueryError> {
        if d == 0 || d > 63 {
            return Err(QueryError::BadParameter(format!("d={d} outside 1..=63")));
        }
        if !(alpha > 0.0 && alpha < 0.5) {
            return Err(QueryError::BadParameter(format!(
                "alpha={alpha} outside (0, 1/2)"
            )));
        }
        let small = ((0.5 - alpha) * d as f64).floor() as u32;
        let large = ((0.5 + alpha) * d as f64).ceil() as u32;
        debug_assert!(small < large);
        Ok(Self {
            d,
            alpha,
            small,
            large,
        })
    }

    /// Dimension `d`.
    pub fn dimension(&self) -> u32 {
        self.d
    }

    /// The parameter `α`.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Largest small-side size `⌊(1/2−α)d⌋`.
    pub fn small_size(&self) -> u32 {
        self.small
    }

    /// Smallest large-side size `⌈(1/2+α)d⌉`.
    pub fn large_size(&self) -> u32 {
        self.large
    }

    /// Net membership (Definition 6.1).
    pub fn contains(&self, cols: &ColumnSet) -> bool {
        cols.dimension() == self.d && (cols.len() <= self.small || cols.len() >= self.large)
    }

    /// Exact net size `|N|`.
    pub fn size(&self) -> u128 {
        let lo = binomial_sum(self.d as u64, self.small as u64).expect("fits for d <= 63");
        let hi = binomial_sum(self.d as u64, (self.d - self.large) as u64).expect("fits");
        lo + hi
    }

    /// Lemma 6.2's bound `2^{H(1/2−α)d+1}` in log2 form.
    pub fn size_bound_log2(&self) -> f64 {
        net_size_bound_log2(self.d, self.alpha)
    }

    /// Worst-case rounding `max_C |C Δ C′|` over all queries — at most
    /// `⌈αd⌉` (paper's bound); exact value `⌈(large − small)/2⌉` attained
    /// at the middle size.
    pub fn max_rounding(&self) -> u32 {
        (self.large - self.small).div_ceil(2)
    }

    /// Round a query to its nearest net member (fewest column changes;
    /// ties prefer shrinking). Deterministic: shrinking drops the largest
    /// column indices, growing adds the smallest absent indices.
    ///
    /// ```
    /// use pfe_core::alpha_net::AlphaNet;
    /// use pfe_row::ColumnSet;
    ///
    /// let net = AlphaNet::new(12, 0.25).unwrap();   // small=3, large=9
    /// let mid = ColumnSet::from_indices(12, &[0, 2, 4, 6, 8]).unwrap();
    /// let r = net.round(&mid).unwrap();
    /// assert!(net.contains(&r.target));
    /// assert_eq!(r.sym_diff, 2);                     // 5 -> 3 columns
    /// ```
    ///
    /// # Errors
    /// Dimension mismatch.
    pub fn round(&self, cols: &ColumnSet) -> Result<RoundedQuery, QueryError> {
        check_dims(self.d, cols)?;
        if self.contains(cols) {
            return Ok(RoundedQuery {
                target: *cols,
                sym_diff: 0,
            });
        }
        let (shrink_cost, grow_cost) = (cols.len() - self.small, self.large - cols.len());
        let width = if shrink_cost <= grow_cost {
            self.small
        } else {
            self.large
        };
        Ok(self.resized(cols, width))
    }

    /// Grow or shrink `cols` to exactly `width` columns — the one
    /// deterministic index choice every rounding shares: growing adds the
    /// smallest absent indices, shrinking drops the largest present ones.
    pub(crate) fn resized(&self, cols: &ColumnSet, width: u32) -> RoundedQuery {
        let full = (1u64 << self.d) - 1;
        let mut mask = cols.mask();
        for _ in cols.len()..width {
            mask |= 1u64 << (full & !mask).trailing_zeros();
        }
        for _ in width..cols.len() {
            mask &= !(1u64 << (63 - mask.leading_zeros()));
        }
        RoundedQuery {
            target: ColumnSet::from_mask(self.d, mask).expect("subset of valid mask"),
            sym_diff: cols.len().abs_diff(width),
        }
    }

    /// The subset sizes materialized under `mode`, ascending.
    pub(crate) fn member_widths(&self, mode: NetMode) -> Vec<u32> {
        match mode {
            NetMode::Full => (0..=self.small).chain(self.large..=self.d).collect(),
            NetMode::BoundaryOnly => vec![self.small, self.large],
        }
    }

    /// Everything that can stop a summary from keeping one sketch per
    /// member under `mode` over alphabet `q`, checked without
    /// materializing any sketch — so a caller can validate on one thread
    /// and construct on another.
    ///
    /// # Errors
    /// `q < 2`, more than `max_subsets` members, or a member width whose
    /// pattern domain `q^w` has no codec.
    pub fn check_materializable(
        &self,
        mode: NetMode,
        max_subsets: u128,
        q: u32,
    ) -> Result<(), QueryError> {
        if q < 2 {
            return Err(QueryError::BadParameter(format!(
                "alphabet q={q} must be >= 2"
            )));
        }
        let count = self.member_count(mode);
        if count > max_subsets {
            return Err(QueryError::BadParameter(format!(
                "net would materialize {count} subsets, above the safety cap {max_subsets}"
            )));
        }
        // Every projection width must have a pattern codec over `q`, so
        // projecting a row can never fail.
        for w in self.member_widths(mode) {
            PatternCodec::new(q, w)?;
        }
        Ok(())
    }

    /// Iterate the masks of the materialized subsets under `mode`.
    pub fn members(&self, mode: NetMode) -> impl Iterator<Item = u64> + '_ {
        self.member_widths(mode)
            .into_iter()
            .flat_map(move |w| FixedWeightIter::new(self.d, w))
    }

    /// Number of materialized subsets under `mode`.
    pub fn member_count(&self, mode: NetMode) -> u128 {
        match mode {
            NetMode::Full => self.size(),
            NetMode::BoundaryOnly => {
                pfe_codes::binomial::binomial(self.d as u64, self.small as u64).expect("fits")
                    + pfe_codes::binomial::binomial(self.d as u64, self.large as u64).expect("fits")
            }
        }
    }

    /// The relative-space curve value of Figure 1: `|N| / 2^d` (exact).
    pub fn relative_space(&self) -> f64 {
        self.size() as f64 / 2f64.powi(self.d as i32)
    }

    /// The analytic relative-space bound `2^{H(1/2−α)d}/2^d` plotted in
    /// Figure 1's leftmost pane.
    pub fn relative_space_bound(&self) -> f64 {
        (binary_entropy(0.5 - self.alpha) * self.d as f64 - self.d as f64).exp2()
    }
}

impl Persist for AlphaNet {
    fn encode(&self, enc: &mut Encoder) {
        // `small`/`large` are derived from (d, alpha) deterministically, so
        // the pair is the complete state.
        enc.put_u32(self.d);
        enc.put_f64(self.alpha);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, PersistError> {
        let d = dec.take_u32()?;
        let alpha = dec.take_f64()?;
        Self::new(d, alpha)
            .map_err(|e| PersistError::Malformed(format!("alpha-net parameters: {e}")))
    }
}

impl Persist for NetMode {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(match self {
            Self::Full => 0,
            Self::BoundaryOnly => 1,
        });
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, PersistError> {
        match dec.take_u8()? {
            0 => Ok(Self::Full),
            1 => Ok(Self::BoundaryOnly),
            other => Err(PersistError::Malformed(format!(
                "net mode tag must be 0 (Full) or 1 (BoundaryOnly), got {other}"
            ))),
        }
    }
}

/// Per-query answer from an α-net summary.
#[derive(Debug, Clone, PartialEq)]
pub struct NetAnswer {
    /// The sketch's estimate on the rounded query.
    pub estimate: f64,
    /// The net member actually answered.
    pub answered_on: ColumnSet,
    /// `|C Δ C′|` for this query.
    pub sym_diff: u32,
    /// The per-query distortion factor `q^{|CΔC′|}` (for `F_0`) or
    /// `q^{|CΔC′|·|p−1|}` (for `F_p`) — tighter than the worst-case
    /// `q^{αd}` when the query rounds by less.
    pub distortion_bound: f64,
}

impl NetAnswer {
    /// The order-`p` moment answer for a query rounded by `r`, with the
    /// Lemma 6.4(2) distortion `Q^{|CΔC′|·|p−1|}`.
    pub(crate) fn moment(q: u32, p: f64, r: RoundedQuery, estimate: f64) -> Self {
        Self {
            estimate,
            answered_on: r.target,
            sym_diff: r.sym_diff,
            distortion_bound: (q as f64).powf(r.sym_diff as f64 * (p - 1.0).abs()),
        }
    }
}

/// The distinct-count plug-in of Algorithm 1: any [`DistinctSketch`] per
/// member. A distinct sketch is a set, so a key's multiplicity is
/// irrelevant.
#[derive(Clone)]
pub struct Distinct<S>(PhantomData<S>);

impl<S> Default for Distinct<S> {
    fn default() -> Self {
        Self(PhantomData)
    }
}

impl<S: DistinctSketch> Statistic for Distinct<S> {
    type Sketch = S;

    fn feed(&self, sketch: &mut S, key: PatternKey, _multiplicity: u32) {
        sketch.insert(key.fingerprint64(FINGERPRINT_SEED));
    }
}

/// Union-mergeable: shard merges are exact.
impl Mergeable for Kmv {
    fn check_mergeable(&self, other: &Self) -> Result<(), String> {
        same("KMV capacity k", self.k(), other.k())?;
        same("KMV seed", self.seed(), other.seed())
    }

    fn merge_from(&mut self, other: &Self) {
        self.merge(other);
    }
}

/// α-net summary for projected `F_0` (Algorithm 1 with a distinct-count
/// plug-in). Construct with [`build`](AlphaNetSummary::build),
/// [`new_streaming`](AlphaNetSummary::new_streaming) or
/// [`new_streaming_qary`](AlphaNetSummary::new_streaming_qary).
pub type AlphaNetF0<S> = AlphaNetSummary<Distinct<S>>;

impl<S: DistinctSketch> AlphaNetF0<S> {
    /// Create an empty streaming summary for binary rows (`Q = 2`).
    ///
    /// # Errors
    /// Parameter errors; net size above `max_subsets`.
    pub fn new_streaming(
        net: AlphaNet,
        mode: NetMode,
        max_subsets: u128,
        factory: impl FnMut(u64) -> S,
    ) -> Result<Self, QueryError> {
        Self::new_streaming_qary(net, mode, max_subsets, 2, factory)
    }

    /// Answer a projected `F_0` query (Algorithm 1 lines 4–6).
    ///
    /// # Errors
    /// Dimension errors.
    pub fn f0(&self, cols: &ColumnSet) -> Result<NetAnswer, QueryError> {
        let r = self.effective_rounding(cols)?;
        Ok(NetAnswer {
            estimate: self.answering(&r).estimate(),
            answered_on: r.target,
            sym_diff: r.sym_diff,
            distortion_bound: (self.alphabet() as f64).powi(r.sym_diff as i32),
        })
    }
}

impl<S: DistinctSketch + Persist> Persist for AlphaNetF0<S> {
    fn encode(&self, enc: &mut Encoder) {
        self.encode_shape(enc);
        self.encode_members(enc, S::encode);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, PersistError> {
        let shape = decode_shape(dec)?;
        Self::decode_members(dec, Distinct::default(), shape, S::decode)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfe_sketch::kmv::Kmv;
    use pfe_sketch::traits::SpaceUsage;
    use pfe_stream::gen::uniform_binary;

    fn net(d: u32, alpha: f64) -> AlphaNet {
        AlphaNet::new(d, alpha).expect("valid")
    }

    #[test]
    fn definition_sizes() {
        let n = net(20, 0.25);
        assert_eq!(n.small_size(), 5);
        assert_eq!(n.large_size(), 15);
        assert!(n.contains(&ColumnSet::from_indices(20, &[0, 1, 2]).expect("v")));
        assert!(!n.contains(&ColumnSet::from_indices(20, &(0..8).collect::<Vec<_>>()).expect("v")));
        assert!(n.contains(&ColumnSet::full(20).expect("v")));
    }

    #[test]
    fn size_matches_lemma_bound() {
        for d in [12u32, 16, 20] {
            for &alpha in &[0.1, 0.2, 0.3] {
                let n = net(d, alpha);
                assert!(
                    (n.size() as f64).log2() <= n.size_bound_log2() + 1e-9,
                    "Lemma 6.2 violated at d={d}, alpha={alpha}"
                );
                assert!(n.size() < 1u128 << d, "net not sublinear in 2^d");
            }
        }
    }

    #[test]
    fn member_enumeration_matches_size() {
        let n = net(12, 0.2);
        assert_eq!(n.members(NetMode::Full).count() as u128, n.size());
        assert_eq!(
            n.members(NetMode::BoundaryOnly).count() as u128,
            n.member_count(NetMode::BoundaryOnly)
        );
        // All members really are members.
        for mask in n.members(NetMode::Full) {
            let c = ColumnSet::from_mask(12, mask).expect("v");
            assert!(n.contains(&c));
        }
    }

    #[test]
    fn rounding_bounds_and_membership() {
        let n = net(20, 0.2);
        for len in 0..=20u32 {
            let cols = ColumnSet::from_indices(20, &(0..len).collect::<Vec<_>>()).expect("v");
            let r = n.round(&cols).expect("ok");
            assert!(n.contains(&r.target), "rounded target not in net");
            assert!(
                r.sym_diff <= n.max_rounding(),
                "rounding {} exceeds max {}",
                r.sym_diff,
                n.max_rounding()
            );
            assert_eq!(
                r.target.symmetric_difference(&cols).len(),
                r.sym_diff,
                "sym_diff miscounted"
            );
            // Rounding is monotone: either subset or superset of the query.
            assert!(r.target.is_subset_of(&cols) || cols.is_subset_of(&r.target));
        }
    }

    #[test]
    fn max_rounding_at_most_alpha_d() {
        for d in [10u32, 15, 20, 30] {
            for &alpha in &[0.05, 0.15, 0.25, 0.4] {
                let n = net(d, alpha);
                let bound = (alpha * d as f64).ceil() as u32 + 1;
                assert!(
                    n.max_rounding() <= bound,
                    "max rounding {} above ceil(alpha d)+1 = {bound} at d={d}, alpha={alpha}",
                    n.max_rounding()
                );
            }
        }
    }

    #[test]
    fn f0_net_exact_on_members_within_sketch_error() {
        let d = 10;
        let data = uniform_binary(d, 2000, 1);
        let n = net(d, 0.2);
        let summary = AlphaNetF0::build(&data, n, NetMode::Full, 1 << 20, |mask| {
            Kmv::new(256, mask ^ 0xbeef)
        })
        .expect("build");
        // A query already in the net: answer within KMV error of exact.
        let cols = ColumnSet::from_indices(d, &[0, 1, 2]).expect("v");
        assert!(n.contains(&cols));
        let ans = summary.f0(&cols).expect("ok");
        assert_eq!(ans.sym_diff, 0);
        assert_eq!(ans.distortion_bound, 1.0);
        let exact = pfe_row::FrequencyVector::compute(&data, &cols).expect("fits");
        let rel = (ans.estimate - exact.f0() as f64).abs() / exact.f0() as f64;
        assert!(rel < 0.3, "in-net estimate off by {rel}");
    }

    #[test]
    fn f0_net_respects_distortion_bound_on_rounded_queries() {
        let d = 12;
        let data = uniform_binary(d, 4000, 2);
        let n = net(d, 0.25);
        let summary = AlphaNetF0::build(&data, n, NetMode::Full, 1 << 20, |mask| {
            Kmv::new(512, mask ^ 0xcafe)
        })
        .expect("build");
        // Mid-size queries get rounded; estimate must stay within
        // (sketch error) x (distortion bound) of the exact answer.
        for mask in [0b111111u64, 0b101010101010, 0b110011001100] {
            let cols = ColumnSet::from_mask(d, mask).expect("v");
            let ans = summary.f0(&cols).expect("ok");
            let exact = pfe_row::FrequencyVector::compute(&data, &cols).expect("fits");
            let ratio = ans.estimate / exact.f0() as f64;
            let allowed = ans.distortion_bound * 1.5; // sketch slack
            assert!(
                ratio <= allowed && ratio >= 1.0 / allowed,
                "mask {mask:#b}: ratio {ratio} outside ±{allowed}x"
            );
        }
    }

    #[test]
    fn boundary_mode_far_fewer_sketches() {
        let d = 14;
        let data = uniform_binary(d, 500, 3);
        let n = net(d, 0.2);
        let full = AlphaNetF0::build(&data, n, NetMode::Full, 1 << 24, |m| Kmv::new(16, m))
            .expect("build");
        let boundary = AlphaNetF0::build(&data, n, NetMode::BoundaryOnly, 1 << 24, |m| {
            Kmv::new(16, m)
        })
        .expect("build");
        // Boundary mode keeps exactly C(d, small) + C(d, large) sketches —
        // strictly fewer than the full net (which adds all interior
        // small/large weights).
        assert_eq!(
            boundary.num_sketches() as u128,
            n.member_count(NetMode::BoundaryOnly)
        );
        assert!(boundary.num_sketches() < full.num_sketches());
        // Boundary mode still answers every query.
        for len in 0..=d {
            let cols = ColumnSet::from_indices(d, &(0..len).collect::<Vec<_>>()).expect("v");
            boundary.f0(&cols).expect("answerable");
        }
    }

    #[test]
    fn safety_cap_enforced() {
        let d = 20;
        let data = uniform_binary(d, 10, 4);
        let n = net(d, 0.05); // huge net
        let r = AlphaNetF0::build(&data, n, NetMode::Full, 1000, |m| Kmv::new(8, m));
        assert!(matches!(r, Err(QueryError::BadParameter(_))));
    }

    #[test]
    fn space_tracks_sketch_count() {
        let d = 12;
        let data = uniform_binary(d, 200, 5);
        let tight = AlphaNetF0::build(&data, net(d, 0.4), NetMode::Full, 1 << 24, |m| {
            Kmv::new(16, m)
        })
        .expect("build");
        let loose = AlphaNetF0::build(&data, net(d, 0.1), NetMode::Full, 1 << 24, |m| {
            Kmv::new(16, m)
        })
        .expect("build");
        assert!(loose.num_sketches() > tight.num_sketches());
        assert!(loose.space_bytes() > tight.space_bytes());
    }

    #[test]
    fn bad_params_rejected() {
        assert!(AlphaNet::new(0, 0.2).is_err());
        assert!(AlphaNet::new(64, 0.2).is_err());
        assert!(AlphaNet::new(10, 0.0).is_err());
        assert!(AlphaNet::new(10, 0.5).is_err());
    }

    #[test]
    #[should_panic(expected = "bits above d")]
    fn push_packed_rejects_out_of_range() {
        let n = net(4, 0.25);
        let mut s =
            AlphaNetF0::new_streaming(n, NetMode::Full, 1 << 10, |m| Kmv::new(8, m)).expect("new");
        s.push_packed(1 << 5);
    }

    #[test]
    fn fp_boundary_mode_rounds_and_reports_distortion() {
        use crate::fp::{FpConfig, FpNet};
        let d = 10;
        let data = uniform_binary(d, 400, 31);
        let n = net(d, 0.25);
        let cfg = FpConfig {
            stable_t: 8,
            ..FpConfig::default()
        };
        let summary = FpNet::build(&data, n, NetMode::BoundaryOnly, 1 << 20, 1.0, &cfg, 0x51ab)
            .expect("build");
        // In-net but non-boundary size: rounded, and the effective
        // rounding must agree with what fp() answers on.
        let cols = ColumnSet::from_indices(d, &[0]).expect("v");
        let r = summary.effective_rounding(&cols).expect("ok");
        let ans = summary.fp(&cols).expect("ok");
        assert_eq!(ans.answered_on, r.target);
        assert_eq!(ans.sym_diff, r.sym_diff);
        assert!(r.sym_diff > 0);
        // p = 1 pays no rounding distortion (Lemma 6.4(2): |p-1| = 0).
        assert_eq!(ans.distortion_bound, 1.0);
    }

    #[test]
    fn relative_space_below_bound() {
        for &alpha in &[0.1, 0.2, 0.3, 0.4] {
            let n = net(20, alpha);
            assert!(n.relative_space() <= 2.0 * n.relative_space_bound() + 1e-12);
            assert!(n.relative_space() < 1.0);
        }
    }
}
