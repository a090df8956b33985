//! Immutable, queryable snapshots.
//!
//! A [`Snapshot`] is one [`ShardSummary`] — the merge of every shard's
//! bundle at one point in time — plus the epoch it was published under.
//! Everything about the bundle (its five summaries, merge compatibility,
//! the byte encoding and its cross-component checks, space accounting)
//! lives with `ShardSummary`; this module adds the epoch and the query
//! surface. A snapshot is immutable by construction and shared behind
//! `Arc` by the serving layer, so any number of query threads can read it
//! while ingest continues on the live shards — and a resumed pipeline
//! folds new rows on top of the published `Arc` itself, not a copy.

use std::path::Path;

use pfe_core::alpha_net::{AlphaNetF0, RoundedQuery};
use pfe_core::{FpNet, HeavyHitter, NetAnswer, QueryError, SampledPattern, UniformSampleSummary};
use pfe_persist::{Decoder, Encoder, Persist, PersistError};
use pfe_row::{ColumnSet, PatternCodec, PatternKey};
use pfe_sketch::kmv::Kmv;
use pfe_sketch::traits::SpaceUsage;

use crate::error::EngineError;
use crate::shard::ShardSummary;

/// A point-frequency answer combining the unbiased sample estimate with
/// the CountMin one-sided bound (when the frequency net is enabled).
#[derive(Debug, Clone, PartialEq)]
pub struct FrequencyAnswer {
    /// Unbiased estimate from the uniform row sample (`ĝ/α`).
    pub estimate: f64,
    /// One-sided overestimate from the α-net CountMin summary, if enabled.
    pub upper_bound: Option<f64>,
    /// Additive error `ε‖f‖₁` of `estimate` at `δ = 0.05`: the sample's
    /// [`count_guarantee`](UniformSampleSummary::count_guarantee).
    pub additive_error: f64,
}

/// The merged, immutable view the engine serves queries from.
pub struct Snapshot {
    summary: ShardSummary,
    epoch: u64,
}

impl Snapshot {
    /// Merge shard summaries into one snapshot.
    ///
    /// # Panics
    /// Panics if `shards` is empty or shard parameters mismatch.
    pub fn from_shards(shards: Vec<ShardSummary>, epoch: u64) -> Self {
        let mut iter = shards.into_iter();
        let mut summary = iter.next().expect("snapshot needs at least one shard");
        for shard in iter {
            summary.merge(&shard);
        }
        Self { summary, epoch }
    }

    /// The summary bundle this snapshot serves from.
    pub fn summary(&self) -> &ShardSummary {
        &self.summary
    }

    /// Monotone snapshot sequence number (per engine).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Write this snapshot to `path` as a framed, checksummed file (see
    /// `pfe-persist` for the format). The file can be reloaded with
    /// [`load_from`](Self::load_from), resumed into a fresh engine with
    /// [`Engine::resume`](crate::Engine::resume), or unioned with other
    /// snapshot files via [`merge_snapshot_files`](crate::merge_snapshot_files).
    ///
    /// # Errors
    /// I/O errors, as [`EngineError::Persist`].
    pub fn save_to<P: AsRef<Path>>(&self, path: P) -> Result<(), EngineError> {
        pfe_persist::save(path, pfe_persist::kind::SNAPSHOT, self)?;
        Ok(())
    }

    /// Read a snapshot file written by [`save_to`](Self::save_to).
    ///
    /// Decoding is fully defensive: truncated, bit-flipped, version-skewed,
    /// or wrong-kind files surface as typed [`EngineError::Persist`]
    /// errors, never panics. A decoded snapshot answers every query
    /// bit-identically to the one that was saved.
    ///
    /// # Errors
    /// I/O and decode errors, as [`EngineError::Persist`].
    pub fn load_from<P: AsRef<Path>>(path: P) -> Result<Self, EngineError> {
        Ok(pfe_persist::load(path, pfe_persist::kind::SNAPSHOT)?)
    }

    /// Union another snapshot into this one — the cross-process merge
    /// behind [`merge_snapshot_files`](crate::merge_snapshot_files).
    /// Sketch unions are exact (shared per-mask seeds); the row samples
    /// merge by the seeded hypergeometric union. The resulting epoch is
    /// the maximum of the two.
    ///
    /// # Errors
    /// [`EngineError::Incompatible`] when
    /// [`ShardSummary::check_mergeable`] fails; nothing is modified in
    /// that case.
    pub fn merge(&mut self, other: &Self) -> Result<(), EngineError> {
        self.summary.check_mergeable(&other.summary)?;
        self.summary.merge(&other.summary);
        self.epoch = self.epoch.max(other.epoch);
        Ok(())
    }

    /// Rows summarized.
    pub fn n(&self) -> u64 {
        self.summary.rows()
    }

    /// The merged uniform row sample.
    pub fn sample(&self) -> &UniformSampleSummary {
        self.summary.sample()
    }

    /// The merged α-net `F_0` summary.
    pub fn net_f0(&self) -> &AlphaNetF0<Kmv> {
        self.summary.net_f0()
    }

    /// The materialized `F_p` moment nets, one per configured order.
    fn fp_nets(&self) -> &[FpNet] {
        self.summary.fp()
    }

    /// The net materialized for moment order `p`, if any.
    pub fn fp_net(&self, p: f64) -> Option<&FpNet> {
        self.fp_nets().iter().find(|n| (n.p() - p).abs() <= 1e-12)
    }

    /// The net that answers order-`p` moment queries.
    ///
    /// # Errors
    /// [`QueryError::UnsupportedMoment`] when no net for `p` is
    /// materialized.
    pub(crate) fn moment_net(&self, p: f64) -> Result<&FpNet, QueryError> {
        self.fp_net(p).ok_or(QueryError::UnsupportedMoment {
            requested: p,
            supported: f64::NAN,
        })
    }

    /// Whether the uniform sample retains the *entire* stream (the
    /// reservoir never overflowed). When true, every sample statistic —
    /// and [`f0_exact`](Self::f0_exact) — is computed from complete data,
    /// so the serving layer can honor `exact_if_available` queries.
    pub fn is_exhaustive(&self) -> bool {
        self.sample().sample_len() as u64 == self.sample().n()
    }

    /// Exact projected `F_0` from the fully retained rows: the number of
    /// distinct projected patterns in the sample. Only meaningful when
    /// [`is_exhaustive`](Self::is_exhaustive) holds — otherwise it counts
    /// distinct patterns of a subsample.
    ///
    /// # Errors
    /// Dimension or codec errors.
    pub fn f0_exact(&self, cols: &ColumnSet) -> Result<f64, QueryError> {
        let mut keys = self.sample().projected_sample(cols)?;
        keys.sort_unstable();
        keys.dedup();
        Ok(keys.len() as f64)
    }

    /// The rounding `f0` will apply to this query — exposed so the serving
    /// layer can key its cache by the *rounded* subset mask.
    ///
    /// # Errors
    /// Dimension errors.
    pub fn f0_rounding(&self, cols: &ColumnSet) -> Result<RoundedQuery, QueryError> {
        self.net_f0().effective_rounding(cols)
    }

    /// Projected `F_0` (Algorithm 1).
    ///
    /// # Errors
    /// Dimension errors.
    pub fn f0(&self, cols: &ColumnSet) -> Result<NetAnswer, QueryError> {
        self.net_f0().f0(cols)
    }

    /// Exact projected `F_p = Σ f_i^p` from the fully retained rows. Like
    /// [`f0_exact`](Self::f0_exact), only meaningful when
    /// [`is_exhaustive`](Self::is_exhaustive) holds.
    ///
    /// # Errors
    /// Dimension or codec errors.
    pub fn fp_exact(&self, cols: &ColumnSet, p: f64) -> Result<f64, QueryError> {
        let mut keys = self.sample().projected_sample(cols)?;
        keys.sort_unstable();
        let mut total = 0.0;
        let mut i = 0;
        while i < keys.len() {
            let mut run = 1usize;
            while i + run < keys.len() && keys[i + run] == keys[i] {
                run += 1;
            }
            total += (run as f64).powf(p);
            i += run;
        }
        Ok(total)
    }

    /// The rounding the order-`p` moment net will apply to this query —
    /// the `F_p` analog of [`f0_rounding`](Self::f0_rounding).
    ///
    /// # Errors
    /// [`QueryError::UnsupportedMoment`] when no net for `p` is
    /// materialized; dimension errors.
    pub fn fp_rounding(&self, cols: &ColumnSet, p: f64) -> Result<RoundedQuery, QueryError> {
        self.moment_net(p)?.effective_rounding(cols)
    }

    /// Projected frequency moment `F_p` (Algorithm 1 with the moment
    /// plug-in: AMS at `p = 2`, stable projections at fractional `p`).
    ///
    /// # Errors
    /// [`QueryError::UnsupportedMoment`] when no net for `p` is
    /// materialized; dimension errors.
    pub fn fp(&self, cols: &ColumnSet, p: f64) -> Result<NetAnswer, QueryError> {
        self.moment_net(p)?.fp(cols)
    }

    /// Encode a dense pattern for `cols`.
    ///
    /// # Errors
    /// Codec or arity errors.
    pub fn encode_pattern(
        &self,
        cols: &ColumnSet,
        pattern: &[u16],
    ) -> Result<PatternKey, QueryError> {
        if pattern.len() != cols.len() as usize {
            return Err(QueryError::BadParameter(format!(
                "pattern arity {} != |C| = {}",
                pattern.len(),
                cols.len()
            )));
        }
        for &s in pattern {
            if s as u32 >= self.sample().alphabet() {
                return Err(QueryError::BadParameter(format!(
                    "symbol {s} outside alphabet"
                )));
            }
        }
        let codec = PatternCodec::new(self.sample().alphabet(), cols.len())?;
        Ok(codec.encode_pattern(pattern))
    }

    /// Point frequency of `key` on projection `cols`: unbiased sample
    /// estimate plus (if enabled) the CountMin upper bound.
    ///
    /// # Errors
    /// Dimension or codec errors.
    pub fn frequency(
        &self,
        cols: &ColumnSet,
        key: PatternKey,
    ) -> Result<FrequencyAnswer, QueryError> {
        let estimate = self.sample().frequency(cols, key)?;
        let upper_bound = match self.summary.freq() {
            Some(net) => Some(net.frequency(cols, key)?.estimate),
            None => None,
        };
        Ok(FrequencyAnswer {
            estimate,
            upper_bound,
            additive_error: self.sample().count_guarantee().epsilon,
        })
    }

    /// `φ`-`ℓ_p` heavy hitters (`0 < p ≤ 1`) with slack `c`.
    ///
    /// # Errors
    /// Dimension, codec, or parameter errors.
    pub fn heavy_hitters(
        &self,
        cols: &ColumnSet,
        phi: f64,
        p: f64,
        c: f64,
    ) -> Result<Vec<HeavyHitter>, QueryError> {
        self.sample().heavy_hitters(cols, phi, p, c)
    }

    /// `ℓ_1` pattern sampling on projection `cols`.
    ///
    /// # Errors
    /// Dimension, codec, or empty-data errors.
    pub fn l1_sample(
        &self,
        cols: &ColumnSet,
        count: usize,
        seed: u64,
    ) -> Result<Vec<SampledPattern>, QueryError> {
        self.sample().l1_sample(cols, count, seed)
    }
}

/// `epoch ‖ ShardSummary`: the summary's own encoding behind the epoch,
/// so its decoder's cross-component checks guard snapshot files too.
impl Persist for Snapshot {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.epoch);
        self.summary.encode(enc);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, PersistError> {
        let epoch = dec.take_u64()?;
        let summary = ShardSummary::decode(dec)?;
        Ok(Self { summary, epoch })
    }
}

impl SpaceUsage for Snapshot {
    fn space_bytes(&self) -> usize {
        self.summary.space_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{EngineConfig, FreqNetConfig};
    use pfe_stream::gen::uniform_binary;

    #[test]
    fn snapshot_serves_all_statistics() {
        let d = 10;
        let data = uniform_binary(d, 2000, 9);
        let cfg = EngineConfig {
            sample_t: 1024,
            kmv_k: 128,
            freq_net: Some(FreqNetConfig {
                depth: 4,
                width: 512,
            }),
            fp: Some(pfe_core::FpConfig {
                orders: vec![2.0, 1.0],
                stable_t: 4,
                ams_groups: 3,
                ams_per_group: 4,
            }),
            ..Default::default()
        };
        let mut shard = ShardSummary::new(d, 2, 0, &cfg).expect("new");
        if let pfe_row::Dataset::Binary(m) = &data {
            for &row in m.rows() {
                shard.push_packed(row);
            }
        } else {
            unreachable!("generator yields binary data");
        }
        let snap = Snapshot::from_shards(vec![shard], 1);
        assert_eq!(snap.n(), 2000);
        assert_eq!(snap.epoch(), 1);
        assert!(snap.summary().freq().is_some());
        let cols = ColumnSet::from_mask(d, 0b111).expect("valid");
        assert!(snap.f0(&cols).expect("ok").estimate > 0.0);
        let key = snap.encode_pattern(&cols, &[0, 0, 0]).expect("ok");
        let freq = snap.frequency(&cols, key).expect("ok");
        assert!(freq.estimate >= 0.0);
        let ub = freq.upper_bound.expect("freq net on");
        // CountMin never underestimates; the sample is unbiased.
        assert!(
            ub + 1e-9 >= freq.estimate * 0.5,
            "bound {ub} vs {}",
            freq.estimate
        );
        assert!(!snap
            .heavy_hitters(&cols, 0.05, 1.0, 2.0)
            .expect("ok")
            .is_empty());
        assert_eq!(snap.l1_sample(&cols, 10, 3).expect("ok").len(), 10);
        // Both moment nets answer; unmaterialized orders are typed errors.
        assert_eq!(snap.fp_nets().len(), 2);
        assert!(snap.fp(&cols, 2.0).expect("ams").estimate > 0.0);
        // F_1 is the row count (up to sketch error): sanity-check scale.
        let f1 = snap.fp(&cols, 1.0).expect("stable").estimate;
        assert!(f1 > 0.0 && f1.is_finite());
        assert!(matches!(
            snap.fp(&cols, 1.7),
            Err(QueryError::UnsupportedMoment { .. })
        ));
        assert!(snap.space_bytes() > 0);
    }

    #[test]
    fn framed_payload_is_epoch_then_the_summary_encoding() {
        // The format relation `Persist for Snapshot` relies on: a snapshot
        // file is its summary's bytes behind 8 bytes of epoch.
        let mut shard = ShardSummary::new(8, 2, 0, &EngineConfig::default()).expect("new");
        shard.push_chunk(pfe_row::Chunk::Packed(&[0b1011, 0b0110, 0b1011]), None);
        let mut summary = Encoder::new();
        shard.encode(&mut summary);
        let epoch = 0x0102_0304_0506_0708u64;
        let path = std::env::temp_dir().join("pfe-engine-snapshot-payload.pfes");
        Snapshot::from_shards(vec![shard], epoch)
            .save_to(&path)
            .expect("save");
        let file = std::fs::read(&path).expect("read");
        let payload =
            pfe_persist::frame::unframe(&file, pfe_persist::kind::SNAPSHOT).expect("unframe");
        assert_eq!(payload[..8], epoch.to_le_bytes());
        assert_eq!(payload[8..], summary.into_bytes()[..]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn exact_paths_on_exhaustive_sample() {
        let d = 8;
        let data = uniform_binary(d, 300, 19);
        let cfg = EngineConfig {
            sample_t: 1024, // > rows: the reservoir retains everything
            kmv_k: 64,
            ..Default::default()
        };
        let mut shard = ShardSummary::new(d, 2, 0, &cfg).expect("new");
        if let pfe_row::Dataset::Binary(m) = &data {
            for &row in m.rows() {
                shard.push_packed(row);
            }
        } else {
            unreachable!("generator yields binary data");
        }
        let snap = Snapshot::from_shards(vec![shard], 1);
        assert!(snap.is_exhaustive());
        let cols = ColumnSet::from_mask(d, 0b1111).expect("valid");
        let exact = pfe_row::FrequencyVector::compute(&data, &cols).expect("fits");
        assert_eq!(snap.f0_exact(&cols).expect("ok"), exact.f0() as f64);
    }

    #[test]
    fn encode_pattern_validates() {
        let cfg = EngineConfig::default();
        let shard = ShardSummary::new(6, 2, 0, &cfg).expect("new");
        let snap = Snapshot::from_shards(vec![shard], 1);
        let cols = ColumnSet::from_mask(6, 0b11).expect("valid");
        assert!(snap.encode_pattern(&cols, &[0]).is_err());
        assert!(snap.encode_pattern(&cols, &[0, 7]).is_err());
        assert!(snap.encode_pattern(&cols, &[1, 0]).is_ok());
    }
}
