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
//!
//! The reservoirs stay under-full here (`sample_t` above total stream
//! length), which is the regime where reservoir merges are provably
//! lossless; the KMV-backed `F_0` path is exact-union in every regime.

use pfe_core::{FpConfig, SuiteConfig, SummarySuite};
use pfe_engine::{AnswerValue, EngineConfig, Query};
use pfe_row::{BinaryMatrix, ColumnSet, Dataset};
use pfe_stream::gen::uniform_binary;
use pfe_window::{WindowConfig, WindowedEngine};
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
