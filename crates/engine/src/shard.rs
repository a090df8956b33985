//! The summary bundle: the system's whole state, declared once.
//!
//! A [`ShardSummary`] is a uniform row sample (Theorem 5.1), an α-net
//! `F_0` summary (Algorithm 1 with KMV plug-ins), and optionally an α-net
//! CountMin frequency summary and `F_p` moment nets. Each ingest worker
//! owns one, each window bucket is one, and a
//! [`Snapshot`](crate::Snapshot) is one plus an epoch — so merging,
//! merge compatibility ([`ShardSummary::check_mergeable`]), the byte
//! encoding and its decode-time cross-component checks, and space
//! accounting all live here and nowhere else. All parts are mergeable —
//! KMV/CountMin/AMS exactly (per-mask seeds are derived from the shared
//! base seed, so equal masks carry equal seeds on every shard), the
//! reservoir by the seeded hypergeometric union — which is what makes the
//! shard → merge → snapshot pipeline equivalent to a single-threaded
//! build.
//!
//! Rows reach a shard only as chunks. A chunk is consumed in two steps:
//! the reservoir samples its rows — every one, in order (the one
//! order-sensitive summary) — then every net de-duplicates the chunk into
//! distinct rows and weights and sweeps those mask-major — per net member:
//! compiled projection → histogram of the weights when the member's
//! domain `Q^w` is no larger than the distinct rows, else one weighted
//! feed per distinct row → sketch. KMV ignores a key's multiplicity,
//! CountMin and AMS take it as the update weight (exact integer sums), and
//! the float-sum `StableFp` nets are always fed the raw chunk, row by row
//! in row order — so a shard's bytes do not depend on how its rows were
//! cut into chunks or on how much they repeat. The sweep
//! itself lives in `pfe-core` (`net_sketches.rs`), once for every net —
//! as does what makes two nets mergeable: this file asks each net, and
//! names no sketch parameter itself.

use pfe_core::alpha_net::{AlphaNet, AlphaNetF0, NetMode};
use pfe_core::net_sketches::same;
use pfe_core::{fp_seed, AlphaNetFrequency, FpNet, UniformSampleSummary};
use pfe_hash::rng::SplitMix64;
use pfe_persist::{Decoder, Encoder, Persist, PersistError};
use pfe_sketch::kmv::Kmv;
use pfe_sketch::traits::SpaceUsage;

use crate::config::EngineConfig;
use crate::error::EngineError;

/// Summaries owned by one ingest shard.
#[derive(Clone)]
pub struct ShardSummary {
    sample: UniformSampleSummary,
    net_f0: AlphaNetF0<Kmv>,
    freq: Option<AlphaNetFrequency>,
    fp: Vec<FpNet>,
    rows: u64,
}

/// Reservoir seed for shard `shard_id`: statistically independent streams
/// per shard, derived deterministically from the base seed.
fn shard_sample_seed(base: u64, shard_id: usize) -> u64 {
    let mut sm = SplitMix64::new(base ^ 0x5a5a);
    let mut s = 0;
    for _ in 0..=shard_id {
        s = sm.next_u64();
    }
    s
}

impl ShardSummary {
    /// Check every failure path of [`new`](Self::new) without materializing
    /// any sketch — the router calls this once so worker-thread
    /// construction cannot fail, keeping the (potentially large) net
    /// materialization off the caller thread.
    ///
    /// # Errors
    /// The same errors `new` would surface.
    pub fn validate(d: u32, q: u32, cfg: &EngineConfig) -> Result<(), EngineError> {
        cfg.validate()?;
        AlphaNet::new(d, cfg.alpha)?.check_materializable(NetMode::Full, cfg.max_subsets, q)?;
        Ok(())
    }

    /// Create the empty summaries for one shard of a `d`-column stream over
    /// alphabet `q`.
    ///
    /// # Errors
    /// Parameter/codec errors; net size above the configured cap.
    pub fn new(d: u32, q: u32, shard_id: usize, cfg: &EngineConfig) -> Result<Self, EngineError> {
        cfg.validate()?;
        let net = AlphaNet::new(d, cfg.alpha)?;
        let kmv_k = cfg.kmv_k;
        let seed = cfg.seed;
        // KMV seeds depend only on (mask, base seed) — NOT the shard id —
        // so shard merges are exact unions.
        let net_f0 =
            AlphaNetF0::new_streaming_qary(net, NetMode::Full, cfg.max_subsets, q, |mask| {
                Kmv::new(kmv_k, mask ^ seed)
            })?;
        let freq = cfg
            .freq_net
            .map(|fc| {
                AlphaNetFrequency::new_streaming(net, q, fc.depth, fc.width, cfg.max_subsets, seed)
            })
            .transpose()?;
        // Fp seeds, like KMV seeds, depend only on (base seed, order,
        // mask) — not the shard id — so shard merges are well-defined.
        let mut fp = Vec::new();
        if let Some(fp_cfg) = &cfg.fp {
            fp.reserve(fp_cfg.orders.len());
            for (idx, &p) in fp_cfg.orders.iter().enumerate() {
                fp.push(FpNet::new_streaming_qary(
                    net,
                    NetMode::Full,
                    cfg.max_subsets,
                    q,
                    p,
                    fp_cfg,
                    fp_seed(seed, idx),
                )?);
            }
        }
        Ok(Self {
            sample: UniformSampleSummary::new(
                d,
                q,
                cfg.sample_t,
                shard_sample_seed(seed, shard_id),
            ),
            net_f0,
            freq,
            fp,
            rows: 0,
        })
    }

    /// Observe one packed binary row — a one-row
    /// [`push_packed_chunk`](Self::push_packed_chunk).
    ///
    /// # Panics
    /// Panics if the shard is not binary or the row has bits at or above
    /// `d`.
    pub fn push_packed(&mut self, row: u64) {
        self.push_packed_chunk(&[row]);
    }

    /// Observe one dense row (any alphabet) — a one-row
    /// [`push_dense_chunk`](Self::push_dense_chunk).
    ///
    /// # Panics
    /// Panics on wrong row length or out-of-alphabet symbols.
    pub fn push_dense(&mut self, row: &[u16]) {
        assert_eq!(
            row.len(),
            self.sample.dimension() as usize,
            "row length != d"
        );
        self.push_dense_chunk(row);
    }

    /// Observe a chunk of packed binary rows: the reservoir samples them
    /// in order, then each net makes its one mask-major sweep over the
    /// chunk's distinct rows (see the [module docs](self)). Pipeline
    /// workers and the window ring both end here.
    ///
    /// # Panics
    /// Panics if the shard is not binary or a row has bits at or above
    /// `d`; callers run [`check_packed_chunk`](crate::check_packed_chunk)
    /// first.
    pub fn push_packed_chunk(&mut self, rows: &[u64]) {
        for &row in rows {
            self.sample.push_packed(row);
        }
        self.net_f0.push_packed_chunk(rows);
        if let Some(freq) = &mut self.freq {
            freq.push_packed_chunk(rows);
        }
        for net in &mut self.fp {
            net.push_packed_chunk(rows);
        }
        self.rows += rows.len() as u64;
    }

    /// Observe a flat row-major chunk of dense rows (`d` symbols per
    /// row). A binary shard packs the chunk once and takes the
    /// [`push_packed_chunk`](Self::push_packed_chunk) road — the same
    /// keys, the same reservoir contents.
    ///
    /// # Panics
    /// Panics unless `flat` is a whole number of rows of in-alphabet
    /// symbols; callers run
    /// [`check_dense_chunk`](crate::check_dense_chunk) first.
    pub fn push_dense_chunk(&mut self, flat: &[u16]) {
        let d = self.sample.dimension();
        if self.sample.alphabet() == 2 {
            return self.push_packed_chunk(&pfe_row::pack_binary_rows(flat, d));
        }
        for row in flat.chunks_exact(d as usize) {
            self.sample.push_dense(row);
        }
        self.net_f0.push_dense_chunk(flat);
        if let Some(freq) = &mut self.freq {
            freq.push_dense_chunk(flat);
        }
        for net in &mut self.fp {
            net.push_dense_chunk(flat);
        }
        self.rows += (flat.len() / d as usize) as u64;
    }

    /// Check that `other` summarizes a disjoint segment of the *same*
    /// logical stream configuration as `self`: equal dimension, alphabet
    /// and reservoir capacity, the same nets present, and each pair of
    /// nets mergeable by its own account
    /// ([`AlphaNetSummary::check_mergeable`](pfe_core::AlphaNetSummary::check_mergeable):
    /// α-net, mode, statistic and per-subset sketch parameters and
    /// seeds). Snapshot unions, engine resume and window resume all ask
    /// here.
    ///
    /// # Errors
    /// [`EngineError::Incompatible`] naming the first mismatch.
    pub fn check_mergeable(&self, other: &Self) -> Result<(), EngineError> {
        let check = || {
            let (a, b) = (&self.sample, &other.sample);
            same("dimension d", a.dimension(), b.dimension())?;
            same("alphabet Q", a.alphabet(), b.alphabet())?;
            same("reservoir capacity sample_t", a.capacity(), b.capacity())?;
            self.net_f0.check_mergeable(&other.net_f0)?;
            match (&self.freq, &other.freq) {
                (Some(a), Some(b)) => a.check_mergeable(b)?,
                (None, None) => {}
                _ => return Err("frequency net present on one side only".to_string()),
            }
            same("fp-net count", self.fp.len(), other.fp.len())?;
            let mut pairs = self.fp.iter().zip(&other.fp);
            pairs.try_for_each(|(a, b)| a.check_mergeable(b))
        };
        check().map_err(EngineError::Incompatible)
    }

    /// Fold another shard's summaries into this one.
    ///
    /// # Panics
    /// Panics on shape/parameter mismatch: shards of one engine always
    /// match, anything else passes [`check_mergeable`](Self::check_mergeable)
    /// first.
    pub fn merge(&mut self, other: &Self) {
        self.sample.merge(&other.sample);
        self.net_f0.merge(&other.net_f0);
        match (&mut self.freq, &other.freq) {
            (Some(a), Some(b)) => a.merge(b),
            (None, None) => {}
            _ => panic!("shard merge: frequency-net presence mismatch"),
        }
        assert_eq!(
            self.fp.len(),
            other.fp.len(),
            "shard merge: fp-net count mismatch"
        );
        for (a, b) in self.fp.iter_mut().zip(&other.fp) {
            a.merge(b);
        }
        self.rows += other.rows;
    }

    /// Rows observed by this shard.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// The uniform row sample.
    pub fn sample(&self) -> &UniformSampleSummary {
        &self.sample
    }

    /// The α-net `F_0` summary.
    pub fn net_f0(&self) -> &AlphaNetF0<Kmv> {
        &self.net_f0
    }

    /// The optional frequency net.
    pub fn freq(&self) -> Option<&AlphaNetFrequency> {
        self.freq.as_ref()
    }

    /// The `F_p` moment nets, one per configured order.
    pub fn fp(&self) -> &[FpNet] {
        &self.fp
    }
}

impl Persist for ShardSummary {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.rows);
        self.sample.encode(enc);
        self.net_f0.encode(enc);
        self.freq.encode(enc);
        enc.put_len(self.fp.len());
        for net in &self.fp {
            net.encode(enc);
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, PersistError> {
        let rows = dec.take_u64()?;
        let sample = UniformSampleSummary::decode(dec)?;
        let net_f0 = AlphaNetF0::<Kmv>::decode(dec)?;
        let freq = Option::<AlphaNetFrequency>::decode(dec)?;
        // Each fp net is at least a family tag plus net parameters.
        let n_fp = dec.take_len(13)?;
        let mut fp = Vec::with_capacity(n_fp);
        for _ in 0..n_fp {
            fp.push(FpNet::decode(dec)?);
        }
        // Cross-component consistency — the one place it is checked, for
        // snapshot files, window rings and shipped replicas alike: a
        // CRC-valid record whose parts are each internally consistent but
        // summarize different (d, alpha, Q) would panic later, when a
        // resume or merge walks one net's members and indexes another's
        // sketch map.
        let (d, q) = (sample.dimension(), sample.alphabet());
        let shape = net_f0.shape();
        if net_f0.net().dimension() != d || net_f0.alphabet() != q {
            return Err(PersistError::Malformed(format!(
                "F0 net summarizes {shape:?} but the sample holds ({d}, Q={q})"
            )));
        }
        let freq_shape = freq.iter().map(|f| ("frequency", f.shape()));
        let fp_shapes = fp.iter().map(|n| ("fp", n.shape()));
        if let Some((which, other)) = freq_shape.chain(fp_shapes).find(|(_, s)| *s != shape) {
            return Err(PersistError::Malformed(format!(
                "{which} net {other:?} disagrees with the F0 net {shape:?}"
            )));
        }
        Ok(Self {
            sample,
            net_f0,
            freq,
            fp,
            rows,
        })
    }
}

impl SpaceUsage for ShardSummary {
    fn space_bytes(&self) -> usize {
        self.sample.space_bytes()
            + self.net_f0.space_bytes()
            + self.freq.as_ref().map(|f| f.space_bytes()).unwrap_or(0)
            + self.fp.iter().map(|n| n.space_bytes()).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FreqNetConfig;
    use pfe_hash::rng::{Xoshiro256pp, ZipfTable};
    use pfe_row::ColumnSet;
    use pfe_stream::gen::{indexed_rows, uniform_binary, uniform_qary};

    fn cfg() -> EngineConfig {
        EngineConfig {
            shards: 2,
            sample_t: 256,
            kmv_k: 64,
            freq_net: Some(FreqNetConfig {
                depth: 4,
                width: 256,
            }),
            fp: Some(pfe_core::FpConfig {
                orders: vec![2.0, 0.5],
                stable_t: 4,
                ams_groups: 3,
                ams_per_group: 4,
            }),
            ..Default::default()
        }
    }

    #[test]
    fn two_shards_merge_to_single_build_f0() {
        let d = 10;
        let data = uniform_binary(d, 1200, 3);
        let cfg = cfg();
        let mut single = ShardSummary::new(d, 2, 0, &cfg).expect("new");
        let mut a = ShardSummary::new(d, 2, 0, &cfg).expect("new");
        let mut b = ShardSummary::new(d, 2, 1, &cfg).expect("new");
        if let pfe_row::Dataset::Binary(m) = &data {
            for (i, &row) in m.rows().iter().enumerate() {
                single.push_packed(row);
                if i % 2 == 0 {
                    a.push_packed(row);
                } else {
                    b.push_packed(row);
                }
            }
        } else {
            unreachable!("generator yields binary data");
        }
        a.merge(&b);
        assert_eq!(a.rows(), single.rows());
        // KMV union over disjoint segments == single KMV over the stream.
        for mask in [0b11u64, 0b1111100000, (1 << d) - 1] {
            let cols = ColumnSet::from_mask(d, mask).expect("valid");
            assert_eq!(
                a.net_f0().f0(&cols).expect("ok").estimate,
                single.net_f0().f0(&cols).expect("ok").estimate,
                "merged shards diverged from single build at mask {mask:#b}"
            );
        }
        // Frequency nets merge by CountMin addition: totals match exactly.
        assert_eq!(a.freq().expect("on").n(), single.freq().expect("on").n());
        // AMS fp net (integer sums) merges bit-exactly; the stable net
        // agrees up to f64 addition order.
        let cols = ColumnSet::from_mask(d, 0b11).expect("valid");
        assert_eq!(a.fp().len(), 2);
        assert_eq!(
            a.fp()[0].fp(&cols).expect("ok").estimate.to_bits(),
            single.fp()[0].fp(&cols).expect("ok").estimate.to_bits(),
            "AMS fp merge not bit-exact"
        );
        let (m, s) = (
            a.fp()[1].fp(&cols).expect("ok").estimate,
            single.fp()[1].fp(&cols).expect("ok").estimate,
        );
        assert!(
            (m - s).abs() <= 1e-9 * s.abs().max(1.0),
            "stable fp merge diverged beyond float tolerance: {m} vs {s}"
        );
    }

    #[test]
    fn chunked_pushes_equal_per_row_pushes_to_the_byte() {
        fn bytes(s: &ShardSummary) -> Vec<u8> {
            let mut enc = pfe_persist::Encoder::new();
            s.encode(&mut enc);
            enc.into_bytes()
        }
        // `freq` + AMS take multiplicities, the p = 0.5 stable net must be
        // fed in row order, the reservoir (256 rows, so it overflows) must
        // see every row, in order — never the sweep's de-duplicated chunk.
        let cfg = cfg();
        let (zipf, mut rng) = (ZipfTable::new(600, 1.3), Xoshiro256pp::seed_from_u64(5));
        let zipf: Vec<u64> = (0..600).map(|_| zipf.sample(&mut rng) as u64).collect();
        let mut inputs = vec![uniform_binary(10, 1500, 5), uniform_qary(4, 6, 600, 9)];
        for (q, d) in [(2, 10), (4, 6)] {
            // One row repeated, no row repeated, about a fifth distinct.
            let repeats: [&dyn Fn(usize) -> u64; 3] = [&|_| 77, &|i| i as u64, &|i| zipf[i]];
            inputs.extend(repeats.map(|index| indexed_rows(q, d, 600, index)));
        }
        for data in inputs {
            let (d, q, n) = (data.dimension(), data.alphabet(), data.num_rows());
            let dense: Vec<u16> = (0..n).flat_map(|i| data.row_dense(i)).collect();
            let mut per_row = ShardSummary::new(d, q, 0, &cfg).expect("new");
            dense
                .chunks(d as usize)
                .for_each(|row| per_row.push_dense(row));
            for len in [1, 7, 256, n] {
                let mut chunked = ShardSummary::new(d, q, 0, &cfg).expect("new");
                dense
                    .chunks(len * d as usize)
                    .for_each(|chunk| chunked.push_dense_chunk(chunk));
                assert_eq!(
                    bytes(&chunked),
                    bytes(&per_row),
                    "Q={q} dense chunks of {len}"
                );
                let pfe_row::Dataset::Binary(m) = &data else {
                    continue;
                };
                let mut packed = ShardSummary::new(d, q, 0, &cfg).expect("new");
                m.rows()
                    .chunks(len)
                    .for_each(|chunk| packed.push_packed_chunk(chunk));
                assert_eq!(bytes(&packed), bytes(&per_row), "packed chunks of {len}");
            }
        }
    }

    #[test]
    fn shard_reservoir_seeds_differ() {
        assert_ne!(shard_sample_seed(0, 0), shard_sample_seed(0, 1));
        assert_ne!(shard_sample_seed(0, 1), shard_sample_seed(1, 1));
        // Deterministic.
        assert_eq!(shard_sample_seed(7, 3), shard_sample_seed(7, 3));
    }

    #[test]
    fn space_accounted() {
        let s = ShardSummary::new(8, 2, 0, &cfg()).expect("new");
        assert!(s.space_bytes() > 0);
    }

    #[test]
    fn persist_roundtrip_is_byte_stable() {
        let d = 8;
        let mut s = ShardSummary::new(d, 2, 1, &cfg()).expect("new");
        if let pfe_row::Dataset::Binary(m) = &uniform_binary(d, 700, 23) {
            for &row in m.rows() {
                s.push_packed(row);
            }
        }
        let mut enc = pfe_persist::Encoder::new();
        s.encode(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = pfe_persist::Decoder::new(&bytes);
        let back = ShardSummary::decode(&mut dec).expect("decode");
        assert_eq!(back.rows(), s.rows());
        // Re-encode must be byte-identical (canonical encoding).
        let mut enc2 = pfe_persist::Encoder::new();
        back.encode(&mut enc2);
        assert_eq!(enc2.into_bytes(), bytes);
        // Decoded summaries answer identically.
        let cols = ColumnSet::from_mask(d, 0b1111).expect("valid");
        assert_eq!(
            back.net_f0().f0(&cols).expect("ok").estimate,
            s.net_f0().f0(&cols).expect("ok").estimate
        );
        assert_eq!(
            back.sample().projected_sample(&cols).expect("ok"),
            s.sample().projected_sample(&cols).expect("ok")
        );
    }
}
