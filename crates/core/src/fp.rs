//! The `F_p` moment nets: configuration plus the net whose member sketch
//! is picked from the order.
//!
//! The paper's Algorithm 1 is parameterized by a β-approximate sketch for
//! the base statistic; for frequency moments `F_p = Σ f_i^p` the right
//! plug-in depends on `p`:
//!
//! - `p = 2` — AMS sign sketches ([`AmsF2`]). Integer sums, so shard
//!   merges are **bit-exact** under any grouping or order.
//! - `0 < p < 2` — Indyk stable projections ([`StableFp`]) per Ping Li's
//!   skewed-projection analysis. Float sums: merges are exact up to f64
//!   addition order, so differently-grouped builds agree only up to ulps.
//!
//! [`FpNet`] is the one α-net summary ([`AlphaNetSummary`]) over members
//! that are either — [`FpSketch`], keyed off the configured order at
//! construction and the only place the two families are told apart;
//! [`FpConfig`] names which orders an engine materializes (each order
//! gets its own α-net of sketches).

use pfe_persist::{Decoder, Encoder, Persist, PersistError};
use pfe_row::{ColumnSet, Dataset, PatternKey};
use pfe_sketch::ams_f2::AmsF2;
use pfe_sketch::stable_fp::StableFp;
use pfe_sketch::traits::{MomentSketch, SpaceUsage};

use crate::alpha_net::{AlphaNet, NetAnswer, NetMode, FINGERPRINT_SEED};
use crate::bounds::{ams_f2_beta, stable_fp_beta};
use crate::net_sketches::{decode_shape, same, AlphaNetSummary, Mergeable, Statistic};
use crate::problem::QueryError;

/// Salt folded into the engine seed before deriving per-order sketch
/// seeds, so the `F_p` nets draw randomness independent of the KMV /
/// CountMin / sample streams that share the same base seed.
const FP_SEED_SALT: u64 = 0xf9f9_0b5e_55aa_1e0f;

/// Derive the per-order base seed for the `idx`-th configured moment
/// order. The per-mask sketch seed is then `fp_seed(base, idx) ^ mask` —
/// a pure function of `(base seed, order index, subset)`, so every shard
/// derives identical sketch parameters and merges are well-defined.
pub fn fp_seed(base: u64, idx: usize) -> u64 {
    pfe_hash::mix::hash_u64(idx as u64, base ^ FP_SEED_SALT)
}

/// The orders a sketch family exists for: AMS at `p = 2`, stable
/// projections on `(0, 2)`.
fn check_order(p: f64) -> Result<(), QueryError> {
    if p.is_finite() && p > 0.0 && p <= 2.0 {
        return Ok(());
    }
    Err(QueryError::BadParameter(format!(
        "fp order p={p} outside (0, 2]"
    )))
}

/// Configuration of the optional `F_p` moment nets.
///
/// Empty `orders` (the default) materializes nothing — `F_p` support is
/// opt-in because each order costs one full α-net of moment sketches.
#[derive(Debug, Clone, PartialEq)]
pub struct FpConfig {
    /// Moment orders to materialize, each in `(0, 2]`. Order `2.0`
    /// dispatches to AMS; fractional orders to stable projections.
    pub orders: Vec<f64>,
    /// Estimator count `t` of each [`StableFp`] sketch (fractional
    /// orders); the sketch β is [`stable_fp_beta`]`(stable_t)`.
    pub stable_t: usize,
    /// Median-group count of each [`AmsF2`] sketch (`p = 2`).
    pub ams_groups: usize,
    /// Estimators per AMS group; the sketch β is
    /// [`ams_f2_beta`]`(ams_per_group)`.
    pub ams_per_group: usize,
}

impl Default for FpConfig {
    fn default() -> Self {
        Self {
            orders: Vec::new(),
            stable_t: 32,
            ams_groups: 5,
            ams_per_group: 16,
        }
    }
}

impl FpConfig {
    /// Convenience: the default shape over the given orders.
    pub fn with_orders(orders: impl Into<Vec<f64>>) -> Self {
        Self {
            orders: orders.into(),
            ..Self::default()
        }
    }

    /// Check orders and sketch shapes.
    ///
    /// # Errors
    /// `BadParameter` on an order outside `(0, 2]`, a duplicate order, or
    /// a zero sketch dimension.
    pub fn validate(&self) -> Result<(), QueryError> {
        for (i, &p) in self.orders.iter().enumerate() {
            check_order(p)?;
            if self.orders[..i].iter().any(|&q| q.to_bits() == p.to_bits()) {
                return Err(QueryError::BadParameter(format!("duplicate fp order {p}")));
            }
        }
        if !self.orders.is_empty() {
            if self.stable_t == 0 {
                return Err(QueryError::BadParameter("fp stable_t must be >= 1".into()));
            }
            if self.ams_groups == 0 || self.ams_per_group == 0 {
                return Err(QueryError::BadParameter(
                    "fp ams_groups/ams_per_group must be >= 1".into(),
                ));
            }
        }
        Ok(())
    }
}

impl Persist for FpConfig {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_len(self.orders.len());
        for &p in &self.orders {
            enc.put_f64(p);
        }
        enc.put_u64(self.stable_t as u64);
        enc.put_u64(self.ams_groups as u64);
        enc.put_u64(self.ams_per_group as u64);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, PersistError> {
        let n = dec.take_len(8)?;
        let mut orders = Vec::with_capacity(n);
        for _ in 0..n {
            orders.push(dec.take_f64()?);
        }
        let cfg = Self {
            orders,
            stable_t: dec.take_u64()? as usize,
            ams_groups: dec.take_u64()? as usize,
            ams_per_group: dec.take_u64()? as usize,
        };
        cfg.validate()
            .map_err(|e| PersistError::Malformed(format!("fp config: {e}")))?;
        Ok(cfg)
    }
}

/// One member of an [`FpNet`] — the AMS-vs-stable choice, made once per
/// operation, here.
#[derive(Clone)]
pub enum FpSketch {
    /// `p = 2`: AMS sign sketches — bit-exact mergeable.
    Ams(AmsF2),
    /// `0 < p < 2`: Indyk stable projections — mergeable up to f64
    /// addition order.
    Stable(StableFp),
}

impl FpSketch {
    /// The sketch an order-`p` net keeps for one subset: AMS at `p = 2`,
    /// stable projections below.
    fn new(p: f64, cfg: &FpConfig, seed: u64) -> Self {
        if p == 2.0 {
            Self::Ams(AmsF2::new(cfg.ams_groups, cfg.ams_per_group, seed))
        } else {
            Self::Stable(StableFp::new(cfg.stable_t, p, seed))
        }
    }

    fn p(&self) -> f64 {
        match self {
            Self::Ams(s) => s.p(),
            Self::Stable(s) => s.p(),
        }
    }

    fn estimate(&self) -> f64 {
        match self {
            Self::Ams(s) => s.estimate(),
            Self::Stable(s) => s.estimate(),
        }
    }

    fn encode(&self, enc: &mut Encoder) {
        match self {
            Self::Ams(s) => s.encode(enc),
            Self::Stable(s) => s.encode(enc),
        }
    }
}

impl SpaceUsage for FpSketch {
    fn space_bytes(&self) -> usize {
        match self {
            Self::Ams(s) => s.space_bytes(),
            Self::Stable(s) => s.space_bytes(),
        }
    }
}

impl Mergeable for FpSketch {
    fn check_mergeable(&self, other: &Self) -> Result<(), String> {
        match (self, other) {
            (Self::Ams(a), Self::Ams(b)) => same(
                "AMS (groups, per_group)",
                (a.groups(), a.per_group()),
                (b.groups(), b.per_group()),
            ),
            (Self::Stable(a), Self::Stable(b)) => same("stable_t", a.estimators(), b.estimators()),
            _ => Err("moment sketch family differs (AMS vs stable)".into()),
        }
    }

    fn merge_from(&mut self, other: &Self) {
        match (self, other) {
            (Self::Ams(a), Self::Ams(b)) => a.merge_with(b),
            (Self::Stable(a), Self::Stable(b)) => a.merge_with(b),
            _ => unreachable!("members passed check_mergeable"),
        }
    }
}

/// The moment plug-in of Algorithm 1 with the sketch family keyed off the
/// order: what an [`FpNet`] keeps beside its members.
#[derive(Clone)]
pub struct ByOrder {
    p: f64,
}

impl Statistic for ByOrder {
    type Sketch = FpSketch;

    fn counted(&self, sketch: &FpSketch) -> bool {
        const { assert!(AmsF2::EXACT_IN_DELTA && !StableFp::EXACT_IN_DELTA) };
        matches!(sketch, FpSketch::Ams(_))
    }

    fn feed(&self, sketch: &mut FpSketch, key: PatternKey, multiplicity: u32) {
        let (item, delta) = (key.fingerprint64(FINGERPRINT_SEED), multiplicity.into());
        match sketch {
            FpSketch::Ams(s) => s.update(item, delta),
            FpSketch::Stable(s) => s.update(item, delta),
        }
    }

    fn check_mergeable(&self, other: &Self) -> Result<(), String> {
        same("moment order p", self.p, other.p)
    }
}

/// One materialized `F_p` α-net: AMS members at `p = 2`, stable
/// projections at `0 < p < 2`.
pub type FpNet = AlphaNetSummary<ByOrder>;

impl FpNet {
    /// Create an empty streaming net for order `p` over alphabet `q`.
    /// `seed` is the per-order base seed (see [`fp_seed`]); each subset's
    /// sketch is seeded `seed ^ mask`, shard-independently.
    ///
    /// # Errors
    /// `BadParameter` on an order outside `(0, 2]` or net/codec errors.
    pub fn new_streaming_qary(
        net: AlphaNet,
        mode: NetMode,
        max_subsets: u128,
        q: u32,
        p: f64,
        cfg: &FpConfig,
        seed: u64,
    ) -> Result<Self, QueryError> {
        check_order(p)?;
        Self::new(ByOrder { p }, net, mode, max_subsets, q, |mask| {
            FpSketch::new(p, cfg, seed ^ mask)
        })
    }

    /// Batch build over a dataset (same sketches as streaming the rows).
    ///
    /// # Errors
    /// Same as [`new_streaming_qary`](Self::new_streaming_qary), plus
    /// dimension mismatch.
    pub fn build(
        data: &Dataset,
        net: AlphaNet,
        mode: NetMode,
        max_subsets: u128,
        p: f64,
        cfg: &FpConfig,
        seed: u64,
    ) -> Result<Self, QueryError> {
        let q = data.alphabet();
        Self::new_streaming_qary(net, mode, max_subsets, q, p, cfg, seed)?.fed(data)
    }

    /// The moment order this net answers.
    pub fn p(&self) -> f64 {
        self.stat.p
    }

    /// Whether this is the bit-exact AMS (`p = 2`) path.
    pub fn is_ams(&self) -> bool {
        matches!(self.first(), FpSketch::Ams(_))
    }

    /// The sketch β of this net's plug-in, read off the live sketch shape:
    /// [`ams_f2_beta`] for the AMS path, [`stable_fp_beta`] for the
    /// stable-projection path. Multiply by the per-query rounding
    /// distortion for the full Theorem 6.5 guarantee factor.
    pub fn beta(&self) -> f64 {
        match self.first() {
            FpSketch::Ams(s) => ams_f2_beta(s.per_group()),
            FpSketch::Stable(s) => stable_fp_beta(s.estimators()),
        }
    }

    /// Answer a projected `F_p` query at this net's own order.
    ///
    /// # Errors
    /// Dimension errors.
    pub fn fp(&self, cols: &ColumnSet) -> Result<NetAnswer, QueryError> {
        let r = self.effective_rounding(cols)?;
        let estimate = self.answering(&r).estimate();
        Ok(NetAnswer::moment(self.alphabet(), self.p(), r, estimate))
    }
}

/// The header leads with the family tag: 0 = AMS, 1 = stable.
impl Persist for FpNet {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(if self.is_ams() { 0 } else { 1 });
        self.encode_shape(enc);
        enc.put_f64(self.p());
        self.encode_members(enc, FpSketch::encode);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, PersistError> {
        let decode: fn(&mut Decoder<'_>) -> _ = match dec.take_u8()? {
            0 => |dec| AmsF2::decode(dec).map(FpSketch::Ams),
            1 => |dec| StableFp::decode(dec).map(FpSketch::Stable),
            other => {
                return Err(PersistError::Malformed(format!(
                    "fp-net family tag must be 0 (AMS) or 1 (stable), got {other}"
                )))
            }
        };
        let shape = decode_shape(dec)?;
        let p = dec.take_f64()?;
        let this = Self::decode_members(dec, ByOrder { p }, shape, decode)?;
        orders_match(p, this.sketches().map(FpSketch::p))?;
        Ok(this)
    }
}

/// Every sketch of a decoded moment net must target the order its header
/// claims.
fn orders_match(p: f64, held: impl IntoIterator<Item = f64>) -> Result<(), PersistError> {
    match held.into_iter().find(|held| (held - p).abs() > 1e-12) {
        Some(held) => Err(PersistError::Malformed(format!(
            "summary claims moment order p={p} but holds a p={held} sketch"
        ))),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfe_stream::gen::uniform_binary;

    fn binary_rows(data: &Dataset) -> &[u64] {
        match data {
            Dataset::Binary(m) => m.rows(),
            Dataset::Qary(_) => unreachable!("generator yields binary data"),
        }
    }

    #[test]
    fn config_validation() {
        assert!(FpConfig::default().validate().is_ok());
        assert!(FpConfig::with_orders([0.5, 1.0, 2.0]).validate().is_ok());
        for bad in [0.0, -1.0, 2.5, f64::NAN, f64::INFINITY] {
            assert!(
                FpConfig::with_orders([bad]).validate().is_err(),
                "order {bad} accepted"
            );
        }
        assert!(FpConfig::with_orders([1.0, 1.0]).validate().is_err());
        let mut zero_t = FpConfig::with_orders([1.0]);
        zero_t.stable_t = 0;
        assert!(zero_t.validate().is_err());
    }

    #[test]
    fn config_persist_round_trip_and_corruption() {
        let cfg = FpConfig::with_orders([0.5, 2.0]);
        let mut enc = Encoder::new();
        cfg.encode(&mut enc);
        let bytes = enc.into_bytes();
        let back = FpConfig::decode(&mut Decoder::new(&bytes)).expect("round trip");
        assert_eq!(back, cfg);
        // A decoded config re-validates: corrupt an order to NaN.
        let mut bad = bytes.clone();
        // First order starts after the length varint (1 byte here).
        for b in bad.iter_mut().skip(1).take(8) {
            *b = 0xff;
        }
        assert!(FpConfig::decode(&mut Decoder::new(&bad)).is_err());
    }

    #[test]
    fn dispatch_picks_family_by_order() {
        let net = AlphaNet::new(8, 0.25).expect("valid");
        let cfg = FpConfig::with_orders([1.0, 2.0]);
        let ams =
            FpNet::new_streaming_qary(net, NetMode::Full, 1 << 16, 2, 2.0, &cfg, 7).expect("new");
        assert!(ams.is_ams());
        assert_eq!(ams.p(), 2.0);
        let stable =
            FpNet::new_streaming_qary(net, NetMode::Full, 1 << 16, 2, 1.0, &cfg, 7).expect("new");
        assert!(!stable.is_ams());
        assert_eq!(stable.p(), 1.0);
        assert!(FpNet::new_streaming_qary(net, NetMode::Full, 1 << 16, 2, 2.5, &cfg, 7).is_err());
        // Betas come from the configured sketch shapes.
        assert_eq!(ams.beta(), ams_f2_beta(cfg.ams_per_group));
        assert_eq!(stable.beta(), stable_fp_beta(cfg.stable_t));
    }

    #[test]
    fn streaming_matches_build_and_persists() {
        let d = 8;
        let data = uniform_binary(d, 500, 11);
        let net = AlphaNet::new(d, 0.25).expect("valid");
        let cfg = FpConfig {
            orders: vec![1.5, 2.0],
            stable_t: 8,
            ..FpConfig::default()
        };
        for (idx, &p) in cfg.orders.iter().enumerate() {
            let seed = fp_seed(42, idx);
            let built =
                FpNet::build(&data, net, NetMode::Full, 1 << 16, p, &cfg, seed).expect("build");
            let mut streamed =
                FpNet::new_streaming_qary(net, NetMode::Full, 1 << 16, 2, p, &cfg, seed)
                    .expect("new");
            for &row in binary_rows(&data) {
                streamed.push_packed(row);
            }
            let cols = ColumnSet::from_indices(d, &[0, 1]).expect("v");
            assert_eq!(
                built.fp(&cols).expect("ok").estimate.to_bits(),
                streamed.fp(&cols).expect("ok").estimate.to_bits(),
                "p={p}: streaming diverged from build"
            );
            // Persist round-trips to bit-identical answers.
            let mut enc = Encoder::new();
            streamed.encode(&mut enc);
            let bytes = enc.into_bytes();
            let back = FpNet::decode(&mut Decoder::new(&bytes)).expect("decode");
            assert_eq!(back.is_ams(), streamed.is_ams());
            assert_eq!(
                back.fp(&cols).expect("ok").estimate.to_bits(),
                streamed.fp(&cols).expect("ok").estimate.to_bits(),
                "p={p}: persisted net diverged"
            );
            // A flipped family tag is a typed error, not a panic.
            let mut bad = bytes.clone();
            bad[0] = 2;
            assert!(matches!(
                FpNet::decode(&mut Decoder::new(&bad)),
                Err(PersistError::Malformed(_))
            ));
        }
    }

    #[test]
    fn fp_seed_decorrelates_orders_and_shards() {
        // Distinct per-order seeds from one base; identical across calls
        // (shard-independence is what makes merges well-defined).
        assert_ne!(fp_seed(42, 0), fp_seed(42, 1));
        assert_ne!(fp_seed(42, 0), fp_seed(43, 0));
        assert_eq!(fp_seed(42, 3), fp_seed(42, 3));
    }
}
