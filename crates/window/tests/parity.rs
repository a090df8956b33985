//! Acceptance contracts for the window subsystem:
//!
//! 1. **Suffix parity** — for random streams and random `last_n`, every
//!    windowed answer (`F_0`, frequency, heavy hitters, `ℓ_1` sample,
//!    `F_p` moments) is
//!    **bit-identical** to a fresh `SummarySuite` built over the suffix
//!    the window actually covered, whose length is within one bucket of
//!    `last_n`. The covering-set merge (KMV exact union + lossless
//!    under-full reservoir concatenation) is indistinguishable from
//!    having ingested only the suffix.
//! 2. **Durability parity** — `checkpoint` → `resume` of a
//!    `WindowedEngine` answers windowed queries bit-identically.
//! 3. **Reuse parity** — under interleaved writes and reads, an engine
//!    that reuses merged coverings and sealed folds answers bit-identically
//!    to a twin with `merged_cache: 0`, which folds every covering afresh.
//! 4. **Sweep parity** — a ring whose active `F_0` net sweeps only rows
//!    new to its bucket writes, after every write, the `Persist` bytes of
//!    a ring that sweeps every row.
//!
//! The reservoirs stay under-full here (`sample_t` above total stream
//! length), which is the regime where reservoir merges are provably
//! lossless; the KMV-backed `F_0` path is exact-union in every regime.

use pfe_core::{FpConfig, SuiteConfig, SummarySuite, MAX_FED_ROWS};
use pfe_persist::{Decoder, Encoder, Persist};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pfe_engine::{AnswerValue, EngineConfig, FreqNetConfig, Query, Recorder};
use pfe_row::{BinaryMatrix, Chunk, ColumnSet, Dataset};
use pfe_stream::gen::uniform_binary;
use pfe_window::{BucketRing, WindowConfig, WindowedEngine};
use proptest::prelude::*;

const D: u32 = 10;

/// Both `F_p` families ride every bucket: AMS (p = 2, bit-exact merges)
/// and stable projections (p = 1.5, f64 sums).
fn fp_cfg() -> FpConfig {
    FpConfig {
        orders: vec![2.0, 1.5],
        stable_t: 4,
        ams_groups: 3,
        ams_per_group: 4,
    }
}

fn ecfg(seed: u64) -> EngineConfig {
    EngineConfig {
        sample_t: 8192, // above total rows: under-full, lossless merges
        kmv_k: 64,
        seed,
        fp: Some(fp_cfg()),
        ..Default::default()
    }
}

fn wcfg() -> WindowConfig {
    WindowConfig {
        bucket_rows: 64,
        tier_cap: 3,
        max_tiers: 8, // retention far above test streams: no eviction
        merged_cache: 4,
    }
}

fn windowed_over(rows: &[u64], seed: u64) -> WindowedEngine {
    let engine = WindowedEngine::start(D, 2, ecfg(seed), wcfg()).expect("start");
    engine.push_packed_batch(rows).expect("ingest");
    engine
}

fn suite_over(suffix: &[u64], seed: u64) -> SummarySuite {
    let data = Dataset::Binary(BinaryMatrix::from_rows(D, suffix.to_vec()));
    SummarySuite::build_with_fp(
        &data,
        &SuiteConfig {
            alpha: ecfg(seed).alpha,
            kmv_k: 64,
            sample_t: 8192,
            max_subsets: ecfg(seed).max_subsets,
            seed,
            keep_exact: false,
        },
        &fp_cfg(),
    )
    .expect("build")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Windowed answers == fresh suffix builds, bit for bit, all four
    /// statistics, with the covered suffix within one bucket of `last_n`.
    #[test]
    fn prop_windowed_answers_bit_identical_to_fresh_suffix_build(
        rows in proptest::collection::vec(0u64..(1 << D), 200..1500),
        last_n in 1u64..2000,
        mask in 1u64..(1 << D),
        seed in 0u64..1000,
    ) {
        let engine = windowed_over(&rows, seed);
        let total = rows.len() as u64;
        let cols = ColumnSet::from_mask(D, mask).expect("valid");
        let indices = cols.to_indices();

        // Coverage honors the ≤ 1-bucket slack contract.
        let covering = engine.coverage(Some(last_n));
        prop_assert!(!covering.truncated, "no eviction configured");
        prop_assert!(covering.covered_rows >= last_n.min(total));
        if covering.covered_rows > last_n {
            prop_assert!(
                covering.covered_rows - last_n < covering.oldest_rows,
                "slack {} not below oldest bucket {}",
                covering.covered_rows - last_n,
                covering.oldest_rows
            );
        }

        // The reference: a brand-new suite over exactly the covered
        // suffix, as if only those rows had ever been ingested.
        let suffix = &rows[rows.len() - covering.covered_rows as usize..];
        let suite = suite_over(suffix, seed);

        // F_0 (α-net KMV path, including identical net rounding).
        let api = engine
            .query(&Query::over(indices.iter().copied()).f0().window(last_n))
            .expect("ok");
        let direct = suite.f0(&cols).expect("ok");
        prop_assert_eq!(api.value, AnswerValue::F0 { estimate: direct.estimate });
        prop_assert_eq!(api.provenance.answered_on, direct.answered_on);
        let w = api.window.expect("coverage");
        prop_assert_eq!(w.covered_rows, covering.covered_rows);
        prop_assert_eq!(w.requested_rows, last_n);

        // Point frequency (uniform-sample path).
        let pattern = vec![0u16; indices.len()];
        let api = engine
            .query(
                &Query::over(indices.iter().copied())
                    .frequency(pattern.clone())
                    .window(last_n),
            )
            .expect("ok");
        let codec = pfe_row::PatternCodec::new(2, cols.len()).expect("codec");
        let key = codec.encode_pattern(&pattern);
        let direct = suite.sample().frequency(&cols, key).expect("ok");
        prop_assert_eq!(
            api.value,
            AnswerValue::Frequency { estimate: direct, upper_bound: None }
        );
        prop_assert_eq!(
            api.guarantee.epsilon,
            suite.sample().additive_error(pfe_core::bounds::DEFAULT_DELTA)
        );

        // Heavy hitters: identical list, identical order.
        let api = engine
            .query(
                &Query::over(indices.iter().copied())
                    .heavy_hitters(0.05)
                    .window(last_n),
            )
            .expect("ok");
        let direct = suite.sample().heavy_hitters(&cols, 0.05, 1.0, 2.0).expect("ok");
        prop_assert_eq!(api.value, AnswerValue::HeavyHitters { hitters: direct });

        // ℓ_1 sampling: identical draws for identical (k, seed) — this is
        // the order-sensitive statistic, so it proves the merged sample
        // *is* the suffix in stream order.
        let api = engine
            .query(
                &Query::over(indices.iter().copied())
                    .l1_sample(8)
                    .with_seed(3)
                    .window(last_n),
            )
            .expect("ok");
        let direct = suite.sample().l1_sample(&cols, 8, 3).expect("ok");
        prop_assert_eq!(api.value, AnswerValue::L1Sample { patterns: direct });

        // F_p, AMS family (p = 2): counter sums are i64, so the
        // covering-set merge is bit-identical to the fresh suffix build.
        let api = engine
            .query(&Query::over(indices.iter().copied()).fp(2.0).window(last_n))
            .expect("ok");
        let direct = suite.fp(&cols, 2.0).expect("ok");
        let AnswerValue::Fp { estimate } = api.value else {
            panic!("expected Fp answer, got {:?}", api.value);
        };
        prop_assert_eq!(estimate.to_bits(), direct.estimate.to_bits());
        prop_assert_eq!(api.provenance.answered_on, direct.answered_on);

        // F_p, stable family (p = 1.5): the merge reassociates f64 sums
        // across bucket boundaries, so equality holds up to ulps.
        let api = engine
            .query(&Query::over(indices.iter().copied()).fp(1.5).window(last_n))
            .expect("ok");
        let direct = suite.fp(&cols, 1.5).expect("ok");
        let AnswerValue::Fp { estimate } = api.value else {
            panic!("expected Fp answer, got {:?}", api.value);
        };
        prop_assert!(
            (estimate - direct.estimate).abs() <= 1e-9 * direct.estimate.abs().max(1.0),
            "stable F_1.5 diverged beyond reassociation slack: {} vs {}",
            estimate,
            direct.estimate
        );
        prop_assert_eq!(api.provenance.answered_on, direct.answered_on);
    }

    /// checkpoint → resume answers windowed queries bit-identically.
    #[test]
    fn prop_checkpoint_resume_windowed_answers_bit_identical(
        rows in proptest::collection::vec(0u64..(1 << D), 200..900),
        last_ns in proptest::collection::vec(1u64..1200, 1..4),
        mask in 1u64..(1 << D),
        seed in 0u64..1000,
    ) {
        let engine = windowed_over(&rows, seed);
        let dir = std::env::temp_dir().join("pfe-window-parity");
        std::fs::create_dir_all(&dir).expect("tmpdir");
        let path = dir.join(format!("ring-{seed}-{}-{mask}.pfew", rows.len()));
        engine.checkpoint(&path).expect("checkpoint");
        let resumed = WindowedEngine::resume(&path, ecfg(seed)).expect("resume");
        std::fs::remove_file(&path).ok();

        let indices = ColumnSet::from_mask(D, mask).expect("valid").to_indices();
        for &last_n in &last_ns {
            let queries = vec![
                Query::over(indices.iter().copied()).f0().window(last_n),
                Query::over(indices.iter().copied()).heavy_hitters(0.05).window(last_n),
                Query::over(indices.iter().copied()).l1_sample(8).with_seed(7).window(last_n),
                Query::over(indices.iter().copied())
                    .frequency(vec![0u16; indices.len()])
                    .window(last_n),
                // Resume rebuilds the identical merge structure, so both
                // F_p families must come back bit-exact.
                Query::over(indices.iter().copied()).fp(2.0).window(last_n),
                Query::over(indices.iter().copied()).fp(1.5).window(last_n),
            ];
            let a = engine.query_batch(&queries);
            let b = resumed.query_batch(&queries);
            for (x, y) in a.iter().zip(b.iter()) {
                let (x, y) = (x.as_ref().expect("ok"), y.as_ref().expect("ok"));
                prop_assert_eq!(&x.value, &y.value);
                prop_assert_eq!(x.guarantee, y.guarantee);
                prop_assert_eq!(x.provenance, y.provenance);
                prop_assert_eq!(x.epoch, y.epoch, "fingerprints must survive resume");
                prop_assert_eq!(x.window, y.window);
            }
        }

        // The resumed ring keeps ingesting: push the same tail to both
        // and they stay in lockstep.
        let tail: Vec<u64> = (0..100).map(|i| (i * 37) % (1 << D)).collect();
        engine.push_packed_batch(&tail).expect("push");
        resumed.push_packed_batch(&tail).expect("push");
        let q = Query::over(indices.iter().copied()).f0().window(150);
        prop_assert_eq!(
            engine.query(&q).expect("ok").value,
            resumed.query(&q).expect("ok").value
        );
    }
}

#[test]
fn ring_checkpoint_bytes_are_pinned_across_commits() {
    // Recorded at 6b95527 (see `checkpoint_bytes_are_pinned_across_commits`
    // in pfe-engine's persistence suite): the ring file of a seeded
    // stream is part of the format, not of the in-memory layout.
    let Dataset::Binary(data) = uniform_binary(D, 1000, 11) else {
        unreachable!("generator yields binary data");
    };
    let engine = windowed_over(data.rows(), 5);
    let dir = std::env::temp_dir().join("pfe-window-parity");
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let path = dir.join("pinned-ring.pfew");
    engine.checkpoint(&path).expect("checkpoint");
    let bytes = std::fs::read(&path).expect("read");
    std::fs::remove_file(&path).ok();
    let crc = bytes[bytes.len() - 4..].try_into().expect("4 bytes");
    assert_eq!(
        (bytes.len(), u32::from_le_bytes(crc)),
        (862_078, 0x6e36_b630)
    );
}

/// Cases of the interleaved schedule; the memo counters are summed over
/// all of them and checked once the last case ran.
const INTERLEAVED_CASES: u64 = 12;
static CASES_RUN: AtomicU64 = AtomicU64::new(0);
static SEALED_FOLDS: [AtomicU64; 3] = [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)];
const SEALED_FOLD_SERIES: [&str; 3] = [
    "window_sealed_fold_hits",
    "window_sealed_fold_extends",
    "window_sealed_fold_misses",
];

/// A ring small enough that seals, tier merges, evictions and a moving
/// covering start all happen within one schedule (retention 240 rows),
/// with reservoirs that fill, so sample merges draw on their seeded RNG.
fn interleaved_engine(seed: u64, merged_cache: usize, recorder: Arc<Recorder>) -> WindowedEngine {
    let ecfg = EngineConfig {
        sample_t: 64,
        ..ecfg(seed)
    };
    let wcfg = WindowConfig {
        bucket_rows: 16,
        tier_cap: 2,
        max_tiers: 3,
        merged_cache,
    };
    WindowedEngine::start_with_recorder(D, 2, ecfg, wcfg, recorder).expect("start")
}

/// Every statistic over one window (`None` = whole retention).
fn all_statistics(indices: &[u32], window: Option<u64>) -> Vec<Query> {
    let over = || Query::over(indices.iter().copied());
    let mut queries = vec![
        over().f0(),
        over().frequency(vec![0u16; indices.len()]),
        over().heavy_hitters(0.05),
        over().l1_sample(8).with_seed(5),
        over().fp(2.0),
        over().fp(1.5),
    ];
    if let Some(last_n) = window {
        queries = queries.into_iter().map(|q| q.window(last_n)).collect();
    }
    queries
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(INTERLEAVED_CASES as u32))]

    /// Writes of 1..3 buckets' rows interleaved with reads of two windows
    /// and whole retention (alone or in one batch): every answer equals
    /// the no-reuse twin's, `F_p` estimates to the bit.
    #[test]
    fn prop_interleaved_writes_and_reads_match_a_no_reuse_twin(
        steps in proptest::collection::vec((0u8..6, 1usize..=48), 30..60),
        mask in 1u64..(1 << D),
        seed in 0u64..1000,
    ) {
        let recorder = Arc::new(Recorder::new());
        let engine = interleaved_engine(seed, 4, Arc::clone(&recorder));
        let twin = interleaved_engine(seed, 0, Arc::new(Recorder::new()));
        let indices = ColumnSet::from_mask(D, mask).expect("valid").to_indices();
        for (i, &(kind, rows)) in steps.iter().enumerate() {
            let queries = match kind {
                0 | 1 => {
                    let Dataset::Binary(data) = uniform_binary(D, rows, seed * 1000 + i as u64)
                    else {
                        unreachable!("generator yields binary data");
                    };
                    engine.push_packed_batch(data.rows()).expect("push");
                    twin.push_packed_batch(data.rows()).expect("push");
                    continue;
                }
                2 => all_statistics(&indices, Some(20)),
                3 => all_statistics(&indices, Some(70)),
                4 => all_statistics(&indices, None),
                _ => [Some(20), Some(70), None]
                    .into_iter()
                    .flat_map(|w| all_statistics(&indices, w))
                    .collect(),
            };
            let a = engine.query_batch(&queries);
            let b = twin.query_batch(&queries);
            for (x, y) in a.iter().zip(b.iter()) {
                // Reads before the first write fail alike.
                let (Ok(x), Ok(y)) = (x, y) else {
                    prop_assert_eq!(x.as_ref().err(), y.as_ref().err());
                    continue;
                };
                if let (AnswerValue::Fp { estimate: ex }, AnswerValue::Fp { estimate: ey }) =
                    (&x.value, &y.value)
                {
                    prop_assert_eq!(ex.to_bits(), ey.to_bits());
                }
                prop_assert_eq!(&x.value, &y.value);
                prop_assert_eq!(x.guarantee, y.guarantee);
                prop_assert_eq!(x.provenance, y.provenance);
                prop_assert_eq!(x.epoch, y.epoch);
                prop_assert_eq!(x.window, y.window);
            }
        }
        for (total, name) in SEALED_FOLDS.iter().zip(SEALED_FOLD_SERIES) {
            total.fetch_add(recorder.counter(name).get(), Ordering::Relaxed);
        }
        if CASES_RUN.fetch_add(1, Ordering::Relaxed) + 1 == INTERLEAVED_CASES {
            for (total, name) in SEALED_FOLDS.iter().zip(SEALED_FOLD_SERIES) {
                prop_assert!(total.load(Ordering::Relaxed) > 0, "{} never counted", name);
            }
        }
    }
}

fn ring_bytes(ring: &BucketRing) -> Vec<u8> {
    let mut enc = Encoder::new();
    ring.encode(&mut enc);
    enc.into_bytes()
}

fn ring_from(bytes: &[u8]) -> BucketRing {
    let mut dec = Decoder::new(bytes);
    let ring = BucketRing::decode(&mut dec).expect("decode");
    dec.expect_end().expect("fully consumed");
    ring
}

/// A ring checked against a reference that sweeps every row: the
/// reference lives as bytes and is decoded afresh before every write —
/// a decoded ring has no record of fed rows, and one write fills each
/// bucket from at most one piece, so nothing the reference is fed is ever
/// left out of a sweep.
struct SweepParity {
    ring: BucketRing,
    reference: Vec<u8>,
}

impl SweepParity {
    fn new(ring: BucketRing) -> Self {
        let reference = ring_bytes(&ring);
        Self { ring, reference }
    }

    /// Write `rows` (`d` symbols each, row-major) to both, then compare.
    fn write(&mut self, dense: &[u16], packed: Option<&[u64]>) {
        let mut reference = ring_from(&self.reference);
        let chunk = packed.map_or(Chunk::Dense(dense), Chunk::Packed);
        self.ring.push(chunk).expect("push");
        reference.push(chunk).expect("push");
        self.reference = ring_bytes(&reference);
        assert!(
            ring_bytes(&self.ring) == self.reference,
            "ring bytes diverged"
        );
    }

    /// Checkpoint → resume the narrowed ring, losing its record of fed rows.
    fn resume(&mut self) {
        self.ring = ring_from(&ring_bytes(&self.ring));
    }
}

/// `len` rows of `d` symbols over alphabet `q`, drawn from the first
/// `pool` rows of the domain so that they repeat within and across writes.
fn pooled_rows(q: u32, d: u32, len: usize, pool: u64, seed: u64) -> Vec<u16> {
    let mut rng = pfe_hash::rng::Xoshiro256pp::seed_from_u64(seed);
    let q = u64::from(q);
    (0..len)
        .flat_map(|_| {
            let row = rng.next_u64() % pool;
            (0..d).map(move |c| (row / q.pow(c) % q) as u16)
        })
        .collect()
}

fn pack(dense: &[u16], d: u32) -> Vec<u64> {
    dense
        .chunks(d as usize)
        .map(|row| {
            row.iter()
                .rev()
                .fold(0u64, |acc, &b| acc << 1 | u64::from(b))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Writes of 1 row to more than a bucket's, from pools small enough to
    /// repeat and large enough not to, with seals, tier merges, evictions
    /// and resumes mid-bucket: binary rows packed (every net but the
    /// stable one) or Q = 4 dense rows with the frequency net, AMS and
    /// stable moment nets on.
    #[test]
    fn prop_a_ring_sweeping_new_rows_only_writes_full_sweep_bytes(
        steps in proptest::collection::vec((1usize..=150, 0usize..3, 0u8..8), 10..40),
        dense in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let (q, d) = if dense { (4, 5) } else { (2, 9) };
        let ecfg = EngineConfig {
            sample_t: 32,
            kmv_k: 8,
            seed,
            freq_net: dense.then_some(FreqNetConfig { depth: 2, width: 32 }),
            fp: Some(FpConfig {
                orders: if dense { vec![2.0, 1.5] } else { vec![2.0] },
                stable_t: 2,
                ams_groups: 2,
                ams_per_group: 2,
            }),
            ..Default::default()
        };
        let wcfg = WindowConfig {
            bucket_rows: 64,
            tier_cap: 2,
            max_tiers: 3,
            merged_cache: 4,
        };
        let mut check = SweepParity::new(BucketRing::new(d, q, &ecfg, wcfg).expect("new"));
        for (i, &(len, pool, action)) in steps.iter().enumerate() {
            if action == 0 {
                check.resume();
            }
            let pool = [5, 50, 1 << 10][pool];
            let rows = pooled_rows(q, d, len, pool, seed * 100 + i as u64);
            let packed = (!dense).then(|| pack(&rows, d));
            check.write(&rows, packed.as_deref());
        }
    }
}

/// A bucket fed more distinct rows than the record of fed rows holds: the
/// rows past the bound are swept again on every write, recorded ones are
/// not, and the bytes stay those of a full sweep.
#[test]
fn sweep_parity_holds_past_the_fed_row_bound() {
    let d = 16;
    let ecfg = EngineConfig {
        alpha: 0.4, // members of at most 1 or at least 15 columns
        sample_t: 16,
        kmv_k: 8,
        ..Default::default()
    };
    let wcfg = WindowConfig {
        bucket_rows: 1 << 16,
        ..Default::default()
    };
    let mut check = SweepParity::new(BucketRing::new(d, 2, &ecfg, wcfg).expect("new"));
    let distinct = MAX_FED_ROWS as u64 + MAX_FED_ROWS as u64 / 4;
    let rows: Vec<u64> = (0..distinct).map(|i| i * 40_503 % (1 << d)).collect();
    for _ in 0..2 {
        for chunk in rows.chunks(2048) {
            check.write(&[], Some(chunk));
        }
    }
    assert_eq!(check.ring.active().rows(), 2 * distinct, "one bucket");
}
