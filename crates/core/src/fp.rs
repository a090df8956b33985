//! The `F_p` moment dispatch layer: configuration plus a two-variant net.
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
//! [`FpNet`] is the closed dispatch over the two, keyed off the configured
//! order at construction; [`FpConfig`] names which orders an engine
//! materializes (each order gets its own α-net of sketches).

use pfe_persist::{Decoder, Encoder, Persist, PersistError};
use pfe_row::{ColumnSet, Dataset};
use pfe_sketch::ams_f2::AmsF2;
use pfe_sketch::stable_fp::StableFp;
use pfe_sketch::traits::SpaceUsage;

use crate::alpha_net::{AlphaNet, AlphaNetFp, NetAnswer, NetMode, RoundedQuery};
use crate::bounds::{ams_f2_beta, stable_fp_beta};
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

/// One materialized `F_p` α-net, dispatched on the order's sketch family.
#[derive(Clone)]
pub enum FpNet {
    /// `p = 2`: AMS sign sketches — bit-exact mergeable.
    Ams(AlphaNetFp<AmsF2>),
    /// `0 < p < 2`: Indyk stable projections — mergeable up to f64
    /// addition order.
    Stable(AlphaNetFp<StableFp>),
}

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
        if p == 2.0 {
            let inner = AlphaNetFp::new_streaming_qary(net, mode, max_subsets, q, |mask| {
                AmsF2::new(cfg.ams_groups, cfg.ams_per_group, seed ^ mask)
            })?;
            Ok(Self::Ams(inner))
        } else {
            let inner = AlphaNetFp::new_streaming_qary(net, mode, max_subsets, q, |mask| {
                StableFp::new(cfg.stable_t, p, seed ^ mask)
            })?;
            Ok(Self::Stable(inner))
        }
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
        check_order(p)?;
        if p == 2.0 {
            Ok(Self::Ams(AlphaNetFp::build(
                data,
                net,
                mode,
                max_subsets,
                |mask| AmsF2::new(cfg.ams_groups, cfg.ams_per_group, seed ^ mask),
            )?))
        } else {
            Ok(Self::Stable(AlphaNetFp::build(
                data,
                net,
                mode,
                max_subsets,
                |mask| StableFp::new(cfg.stable_t, p, seed ^ mask),
            )?))
        }
    }

    /// Observe one packed binary row.
    ///
    /// # Panics
    /// Panics if the row has bits at or above `d` or the net is not binary.
    pub fn push_packed(&mut self, row: u64) {
        match self {
            Self::Ams(n) => n.push_packed(row),
            Self::Stable(n) => n.push_packed(row),
        }
    }

    /// Observe one dense row over the net's alphabet.
    ///
    /// # Panics
    /// Panics on wrong row length or out-of-alphabet symbols.
    pub fn push_dense(&mut self, row: &[u16]) {
        match self {
            Self::Ams(n) => n.push_dense(row),
            Self::Stable(n) => n.push_dense(row),
        }
    }

    /// Observe a chunk of packed binary rows (one mask-major sweep).
    ///
    /// # Panics
    /// Panics if a row has bits at or above `d` or the net is not binary.
    pub fn push_packed_chunk(&mut self, rows: &[u64]) {
        match self {
            Self::Ams(n) => n.push_packed_chunk(rows),
            Self::Stable(n) => n.push_packed_chunk(rows),
        }
    }

    /// Observe a flat row-major chunk of dense rows (`d` symbols per row).
    ///
    /// # Panics
    /// Panics unless `flat` is a whole number of rows of in-alphabet
    /// symbols.
    pub fn push_dense_chunk(&mut self, flat: &[u16]) {
        match self {
            Self::Ams(n) => n.push_dense_chunk(flat),
            Self::Stable(n) => n.push_dense_chunk(flat),
        }
    }

    /// Merge a net built over a disjoint segment of the same stream.
    ///
    /// # Panics
    /// Panics on sketch-family, net, mode, alphabet, or order mismatch.
    pub fn merge(&mut self, other: &Self) {
        match (self, other) {
            (Self::Ams(a), Self::Ams(b)) => a.merge(b),
            (Self::Stable(a), Self::Stable(b)) => a.merge(b),
            _ => panic!("fp-net merge: sketch family mismatch (AMS vs stable)"),
        }
    }

    /// The moment order this net answers.
    pub fn p(&self) -> f64 {
        match self {
            Self::Ams(n) => n.p(),
            Self::Stable(n) => n.p(),
        }
    }

    /// The net definition.
    pub fn net(&self) -> &AlphaNet {
        match self {
            Self::Ams(n) => n.net(),
            Self::Stable(n) => n.net(),
        }
    }

    /// The materialization mode.
    pub fn mode(&self) -> NetMode {
        match self {
            Self::Ams(n) => n.mode(),
            Self::Stable(n) => n.mode(),
        }
    }

    /// The alphabet size `Q`.
    pub fn alphabet(&self) -> u32 {
        match self {
            Self::Ams(n) => n.alphabet(),
            Self::Stable(n) => n.alphabet(),
        }
    }

    /// Whether this is the bit-exact AMS (`p = 2`) path.
    pub fn is_ams(&self) -> bool {
        matches!(self, Self::Ams(_))
    }

    /// The sketch β of this net's plug-in, read off the live sketch shape:
    /// [`ams_f2_beta`] for the AMS path, [`stable_fp_beta`] for the
    /// stable-projection path. Multiply by the per-query rounding
    /// distortion for the full Theorem 6.5 guarantee factor.
    pub fn beta(&self) -> f64 {
        match self {
            Self::Ams(n) => ams_f2_beta(n.any_sketch().per_group()),
            Self::Stable(n) => stable_fp_beta(n.any_sketch().estimators()),
        }
    }

    /// Sketch shape of the per-subset plug-in: `(groups, per_group)` for
    /// AMS, `(estimators, 0)` for stable projections. Two nets merge only
    /// if their shapes (and families) are identical.
    pub fn sketch_shape(&self) -> (usize, usize) {
        match self {
            Self::Ams(n) => (n.any_sketch().groups(), n.any_sketch().per_group()),
            Self::Stable(n) => (n.any_sketch().estimators(), 0),
        }
    }

    /// Round a query exactly as [`fp`](Self::fp) will.
    ///
    /// # Errors
    /// Dimension errors.
    pub fn effective_rounding(&self, cols: &ColumnSet) -> Result<RoundedQuery, QueryError> {
        match self {
            Self::Ams(n) => n.effective_rounding(cols),
            Self::Stable(n) => n.effective_rounding(cols),
        }
    }

    /// Answer a projected `F_p` query at this net's own order.
    ///
    /// # Errors
    /// Dimension errors.
    pub fn fp(&self, cols: &ColumnSet) -> Result<NetAnswer, QueryError> {
        match self {
            Self::Ams(n) => n.fp(cols, n.p()),
            Self::Stable(n) => n.fp(cols, n.p()),
        }
    }
}

impl SpaceUsage for FpNet {
    fn space_bytes(&self) -> usize {
        match self {
            Self::Ams(n) => n.space_bytes(),
            Self::Stable(n) => n.space_bytes(),
        }
    }
}

impl Persist for FpNet {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            Self::Ams(n) => {
                enc.put_u8(0);
                n.encode(enc);
            }
            Self::Stable(n) => {
                enc.put_u8(1);
                n.encode(enc);
            }
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, PersistError> {
        match dec.take_u8()? {
            0 => {
                let n: AlphaNetFp<AmsF2> = AlphaNetFp::decode(dec)?;
                if n.p() != 2.0 {
                    return Err(PersistError::Malformed(format!(
                        "AMS fp-net claims order p={}, must be 2",
                        n.p()
                    )));
                }
                Ok(Self::Ams(n))
            }
            1 => Ok(Self::Stable(AlphaNetFp::decode(dec)?)),
            other => Err(PersistError::Malformed(format!(
                "fp-net family tag must be 0 (AMS) or 1 (stable), got {other}"
            ))),
        }
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
    fn family_mismatch_merge_panics_with_message() {
        let net = AlphaNet::new(6, 0.25).expect("valid");
        let cfg = FpConfig::with_orders([1.0, 2.0]);
        let mut a =
            FpNet::new_streaming_qary(net, NetMode::Full, 1 << 16, 2, 2.0, &cfg, 1).expect("new");
        let b =
            FpNet::new_streaming_qary(net, NetMode::Full, 1 << 16, 2, 1.0, &cfg, 1).expect("new");
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| a.merge(&b)))
            .expect_err("must panic");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(msg.contains("family mismatch"), "unexpected panic: {msg}");
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
