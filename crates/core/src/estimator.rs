//! The single-threaded bundle of the summaries (exact baseline, uniform
//! sample, α-net, moment nets) — the parity reference: the engine and
//! window suites build one over the same rows and seed and require the
//! sharded, merged, windowed answers to match it bit for bit.

use pfe_persist::{Decoder, Encoder, Persist, PersistError};
use pfe_row::{ColumnSet, Dataset};
use pfe_sketch::kmv::Kmv;
use pfe_sketch::traits::SpaceUsage;

use crate::alpha_net::{AlphaNet, AlphaNetF0, NetAnswer, NetMode};
use crate::exact::ExactSummary;
use crate::fp::{fp_seed, FpConfig, FpNet};
use crate::problem::QueryError;
use crate::uniform_sample::UniformSampleSummary;

/// Configuration for [`SummarySuite`].
#[derive(Debug, Clone, Copy)]
pub struct SuiteConfig {
    /// α-net parameter.
    pub alpha: f64,
    /// KMV capacity per net subset.
    pub kmv_k: usize,
    /// Uniform-sample reservoir size.
    pub sample_t: usize,
    /// Net materialization cap.
    pub max_subsets: u128,
    /// Base seed.
    pub seed: u64,
    /// Whether to retain the exact baseline (Θ(nd) space).
    pub keep_exact: bool,
}

impl Default for SuiteConfig {
    fn default() -> Self {
        Self {
            alpha: 0.25,
            kmv_k: 256,
            sample_t: 4096,
            max_subsets: 1 << 22,
            seed: 0,
            keep_exact: true,
        }
    }
}

/// Exact + uniform-sample + α-net summaries over one dataset.
pub struct SummarySuite {
    exact: Option<ExactSummary>,
    sample: UniformSampleSummary,
    net_f0: AlphaNetF0<Kmv>,
    /// One moment net per configured `F_p` order (empty by default).
    fp_nets: Vec<FpNet>,
}

impl SummarySuite {
    /// Build all summaries over `data`.
    ///
    /// # Errors
    /// Propagates parameter/codec/cap errors from the component builders.
    pub fn build(data: &Dataset, cfg: &SuiteConfig) -> Result<Self, QueryError> {
        Self::build_with_fp(data, cfg, &FpConfig::default())
    }

    /// Build all summaries plus one `F_p` moment net per order in
    /// `fp_cfg.orders` (seeded from `cfg.seed` via [`fp_seed`], so two
    /// suites with equal configs answer bit-identically).
    ///
    /// # Errors
    /// Propagates parameter/codec/cap errors from the component builders.
    pub fn build_with_fp(
        data: &Dataset,
        cfg: &SuiteConfig,
        fp_cfg: &FpConfig,
    ) -> Result<Self, QueryError> {
        fp_cfg.validate()?;
        let net = AlphaNet::new(data.dimension(), cfg.alpha)?;
        let kmv_k = cfg.kmv_k;
        let seed = cfg.seed;
        let net_f0 = AlphaNetF0::build(data, net, NetMode::Full, cfg.max_subsets, |mask| {
            Kmv::new(kmv_k, mask ^ seed)
        })?;
        let mut fp_nets = Vec::with_capacity(fp_cfg.orders.len());
        for (idx, &p) in fp_cfg.orders.iter().enumerate() {
            fp_nets.push(FpNet::build(
                data,
                net,
                NetMode::Full,
                cfg.max_subsets,
                p,
                fp_cfg,
                fp_seed(cfg.seed, idx),
            )?);
        }
        Ok(Self {
            exact: cfg.keep_exact.then(|| ExactSummary::build(data)),
            sample: UniformSampleSummary::build(data, cfg.sample_t, cfg.seed ^ 0x5a5a),
            net_f0,
            fp_nets,
        })
    }

    /// The exact baseline, if retained.
    pub fn exact(&self) -> Option<&ExactSummary> {
        self.exact.as_ref()
    }

    /// The Theorem 5.1 uniform-sample summary.
    pub fn sample(&self) -> &UniformSampleSummary {
        &self.sample
    }

    /// Answer `F_0` through the α-net.
    ///
    /// # Errors
    /// Dimension errors.
    pub fn f0(&self, cols: &ColumnSet) -> Result<NetAnswer, QueryError> {
        self.net_f0.f0(cols)
    }

    /// Answer `F_p` through the moment net materialized for order `p`.
    ///
    /// # Errors
    /// `UnsupportedMoment` if no net was built for `p` (matching up to
    /// `1e-12`); dimension errors.
    pub fn fp(&self, cols: &ColumnSet, p: f64) -> Result<NetAnswer, QueryError> {
        let net = self
            .fp_nets
            .iter()
            .find(|n| (n.p() - p).abs() <= 1e-12)
            .ok_or(QueryError::UnsupportedMoment {
                requested: p,
                supported: f64::NAN,
            })?;
        net.fp(cols)
    }

    /// Space of each component in bytes: `(exact, sample, net)`.
    pub fn space_breakdown(&self) -> (usize, usize, usize) {
        (
            self.exact.as_ref().map(|e| e.space_bytes()).unwrap_or(0),
            self.sample.space_bytes(),
            self.net_f0.space_bytes(),
        )
    }
}

impl Persist for SummarySuite {
    fn encode(&self, enc: &mut Encoder) {
        self.exact.encode(enc);
        self.sample.encode(enc);
        self.net_f0.encode(enc);
        enc.put_len(self.fp_nets.len());
        for net in &self.fp_nets {
            net.encode(enc);
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, PersistError> {
        let exact = Option::<ExactSummary>::decode(dec)?;
        let sample = UniformSampleSummary::decode(dec)?;
        let net_f0 = AlphaNetF0::<Kmv>::decode(dec)?;
        // Each fp net is at least a family tag plus net parameters.
        let n_fp = dec.take_len(13)?;
        let mut fp_nets = Vec::with_capacity(n_fp);
        for _ in 0..n_fp {
            fp_nets.push(FpNet::decode(dec)?);
        }
        // Cross-component consistency: all parts summarize one (d, Q).
        let (d, q) = (sample.dimension(), sample.alphabet());
        if net_f0.net().dimension() != d || net_f0.alphabet() != q {
            return Err(PersistError::Malformed(format!(
                "net summarizes ({}, Q={}) but the sample holds ({d}, Q={q})",
                net_f0.net().dimension(),
                net_f0.alphabet()
            )));
        }
        if let Some(e) = &exact {
            if e.data().dimension() != d || e.data().alphabet() != q {
                return Err(PersistError::Malformed(format!(
                    "exact baseline holds ({}, Q={}) but the sample holds ({d}, Q={q})",
                    e.data().dimension(),
                    e.data().alphabet()
                )));
            }
        }
        if let Some(net) = fp_nets.iter().find(|n| n.shape() != net_f0.shape()) {
            return Err(PersistError::Malformed(format!(
                "fp net (p={}) {:?} disagrees with the F0 net {:?}",
                net.p(),
                net.shape(),
                net_f0.shape()
            )));
        }
        Ok(Self {
            exact,
            sample,
            net_f0,
            fp_nets,
        })
    }
}

impl SpaceUsage for SummarySuite {
    fn space_bytes(&self) -> usize {
        let (exact, sample, net) = self.space_breakdown();
        exact + sample + net + self.fp_nets.iter().map(|n| n.space_bytes()).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfe_stream::gen::uniform_binary;

    #[test]
    fn suite_builds_and_answers() {
        let data = uniform_binary(12, 1000, 1);
        let suite = SummarySuite::build(&data, &SuiteConfig::default()).expect("build");
        let cols = ColumnSet::from_indices(12, &[0, 1, 2, 3, 4, 5]).expect("v");
        let net_ans = suite.f0(&cols).expect("ok");
        let exact = suite.exact().expect("kept").f0(&cols).expect("ok").value;
        let ratio = net_ans.estimate / exact;
        assert!(
            ratio <= net_ans.distortion_bound * 1.5
                && ratio >= 1.0 / (net_ans.distortion_bound * 1.5),
            "suite answer ratio {ratio} outside bound {}",
            net_ans.distortion_bound
        );
    }

    #[test]
    fn space_breakdown_ordering() {
        // With a large-enough dataset the exact baseline dominates the
        // sample, while the net dominates everything at small alpha.
        let data = uniform_binary(14, 50_000, 2);
        let suite = SummarySuite::build(
            &data,
            &SuiteConfig {
                alpha: 0.35,
                sample_t: 512,
                kmv_k: 64,
                ..Default::default()
            },
        )
        .expect("build");
        let (exact, sample, _net) = suite.space_breakdown();
        assert!(exact > sample, "exact {exact} not above sample {sample}");
    }

    #[test]
    fn suite_fp_orders_answer_and_round_trip() {
        let data = uniform_binary(10, 800, 9);
        let cfg = SuiteConfig {
            kmv_k: 64,
            sample_t: 256,
            seed: 42,
            keep_exact: true,
            ..Default::default()
        };
        let fp_cfg = FpConfig {
            orders: vec![0.5, 1.0, 2.0],
            stable_t: 8,
            ..FpConfig::default()
        };
        let suite = SummarySuite::build_with_fp(&data, &cfg, &fp_cfg).expect("build");
        assert_eq!(suite.fp_nets.len(), 3);
        let cols = ColumnSet::from_indices(10, &[0, 1]).expect("v");
        for &p in &fp_cfg.orders {
            let ans = suite.fp(&cols, p).expect("ok");
            assert!(ans.estimate.is_finite(), "p={p} estimate not finite");
        }
        // Unconfigured order is a typed error.
        assert!(matches!(
            suite.fp(&cols, 1.7),
            Err(QueryError::UnsupportedMoment { .. })
        ));
        // Persist round-trips to bit-identical fp answers.
        let mut enc = Encoder::new();
        suite.encode(&mut enc);
        let bytes = enc.into_bytes();
        let back = SummarySuite::decode(&mut Decoder::new(&bytes)).expect("decode");
        for &p in &fp_cfg.orders {
            assert_eq!(
                back.fp(&cols, p).expect("ok").estimate.to_bits(),
                suite.fp(&cols, p).expect("ok").estimate.to_bits(),
                "p={p}: persisted suite diverged"
            );
        }
        // Two independent builds with equal configs agree bit-for-bit.
        let twin = SummarySuite::build_with_fp(&data, &cfg, &fp_cfg).expect("build");
        for &p in &fp_cfg.orders {
            assert_eq!(
                twin.fp(&cols, p).expect("ok").estimate.to_bits(),
                suite.fp(&cols, p).expect("ok").estimate.to_bits(),
            );
        }
    }

    #[test]
    fn no_exact_mode() {
        let data = uniform_binary(10, 100, 3);
        let suite = SummarySuite::build(
            &data,
            &SuiteConfig {
                keep_exact: false,
                ..Default::default()
            },
        )
        .expect("build");
        assert!(suite.exact().is_none());
        assert_eq!(suite.space_breakdown().0, 0);
    }
}
