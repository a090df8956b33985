//! Cross-crate integration: the paper's running example and the full
//! observation-then-query pipeline exercised through every summary.

use subspace_exploration::core::alpha_net::{AlphaNet, AlphaNetF0, NetMode};
use subspace_exploration::core::{ExactSummary, FpConfig, FpNet, UniformSampleSummary};
use subspace_exploration::row::{BinaryMatrix, ColumnSet, Dataset, PatternKey};
use subspace_exploration::sketch::kmv::Kmv;
use subspace_exploration::sketch::traits::SpaceUsage;
use subspace_exploration::stream::gen::{uniform_binary, zipf_patterns};
use subspace_exploration::stream::shuffled;

/// The Section 2 example: A in {0,1}^{5x3}, C = first two columns.
fn paper_example() -> (Dataset, ColumnSet) {
    let rows = vec![0b011u64, 0b010, 0b100, 0b111, 0b011];
    (
        Dataset::Binary(BinaryMatrix::from_rows(3, rows)),
        ColumnSet::from_indices(3, &[0, 1]).expect("valid"),
    )
}

#[test]
fn paper_example_through_all_summaries() {
    let (data, cols) = paper_example();
    // Exact: F0 = 3, F1 = 5 (paper's stated values).
    let exact = ExactSummary::build(&data);
    assert_eq!(exact.f0(&cols).expect("ok").value, 3.0);
    assert_eq!(exact.fp(&cols, 1.0).expect("ok").value, 5.0);
    // Uniform sample with t >= n: all estimates exact.
    let sample = UniformSampleSummary::build(&data, 16, 1);
    assert_eq!(
        sample.frequency(&cols, PatternKey::new(0b11)).expect("ok"),
        3.0
    );
    // Alpha-net: d=3 is tiny; alpha=0.15 gives small=floor(0.35*3)=1 and
    // large=ceil(1.95)=2, so every size is in the net and |C| = 2 is
    // answered exactly up to KMV error (here exact, underfull).
    let net = AlphaNet::new(3, 0.15).expect("valid");
    let nf0 =
        AlphaNetF0::build(&data, net, NetMode::Full, 1 << 10, |m| Kmv::new(16, m)).expect("build");
    let ans = nf0.f0(&cols).expect("ok");
    assert_eq!(ans.sym_diff, 0, "query of size 2 should be in the net");
    assert_eq!(ans.estimate, 3.0);
}

#[test]
fn f1_invariance_across_projections() {
    // The paper: F1 = n regardless of C ("only one word of space").
    let data = zipf_patterns(12, 5000, 40, 1.1, 2);
    let exact = ExactSummary::build(&data);
    for mask in [0u64, 0b1, 0b101010101010, (1 << 12) - 1] {
        let cols = ColumnSet::from_mask(12, mask).expect("valid");
        assert_eq!(exact.fp(&cols, 1.0).expect("ok").value, 5000.0);
    }
}

#[test]
fn order_insensitivity_of_deterministic_summaries() {
    // The streaming model: summaries must not depend on row order.
    let data = uniform_binary(10, 2000, 3);
    let shuf = shuffled(&data, 99);
    let net = AlphaNet::new(10, 0.25).expect("valid");
    let a =
        AlphaNetF0::build(&data, net, NetMode::Full, 1 << 20, |m| Kmv::new(64, m)).expect("build");
    let b =
        AlphaNetF0::build(&shuf, net, NetMode::Full, 1 << 20, |m| Kmv::new(64, m)).expect("build");
    for mask in [0b11u64, 0b1111100000, 0b1010101010] {
        let cols = ColumnSet::from_mask(10, mask).expect("valid");
        assert_eq!(
            a.f0(&cols).expect("ok").estimate,
            b.f0(&cols).expect("ok").estimate,
            "KMV net answer changed under row permutation"
        );
    }
}

#[test]
fn net_fp_summary_respects_guarantee_end_to_end() {
    let d = 10;
    let data = zipf_patterns(d, 4000, 60, 1.2, 4);
    let exact = ExactSummary::build(&data);
    let net = AlphaNet::new(d, 0.25).expect("valid");
    let cfg = FpConfig {
        ams_groups: 5,
        ams_per_group: 128,
        ..FpConfig::with_orders([2.0])
    };
    let nfp = FpNet::build(&data, net, NetMode::Full, 1 << 20, 2.0, &cfg, 0).expect("build");
    assert!(nfp.is_ams());
    for mask in [0b1110001110u64, 0b1111111111, 0b1] {
        let cols = ColumnSet::from_mask(d, mask).expect("valid");
        let ans = nfp.fp(&cols).expect("ok");
        let truth = exact.fp(&cols, 2.0).expect("ok").value;
        let ratio = (ans.estimate / truth).max(truth / ans.estimate);
        assert!(
            ratio <= ans.distortion_bound * 2.0,
            "mask {mask:#b}: F2 ratio {ratio} above bound {} x sketch slack",
            ans.distortion_bound
        );
    }
}

#[test]
fn space_ordering_matches_theory() {
    // exact = Theta(nd) grows with n; sample and per-sketch net space do
    // not. At large n the sample must be far below exact.
    let big = zipf_patterns(16, 200_000, 64, 1.2, 5);
    let exact = ExactSummary::build(&big);
    let sample = UniformSampleSummary::build(&big, 1024, 6);
    assert!(exact.space_bytes() > 20 * sample.space_bytes());
}

#[test]
fn queries_after_observation_only() {
    // The whole point: one pass, then many different queries, all valid.
    let d = 14;
    let data = uniform_binary(d, 3000, 7);
    let exact = ExactSummary::build(&data);
    let sample = UniformSampleSummary::build(&data, 2048, 8);
    let mut checked = 0;
    for mask in [0b1u64, 0b11, 0b111000111, 0b10101010101010, (1 << 14) - 1] {
        let cols = ColumnSet::from_mask(d, mask).expect("valid");
        let f = exact.freq_vector(&cols).expect("ok");
        let (key, count) = f.sorted_counts()[0];
        let est = sample.frequency(&cols, key).expect("ok");
        assert!(
            (est - count as f64).abs() <= 0.08 * 3000.0,
            "mask {mask:#b}: additive error too large"
        );
        checked += 1;
    }
    assert_eq!(checked, 5);
}
