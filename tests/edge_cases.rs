//! Boundary and failure-injection tests: the representation limits
//! (d = 63, u128 pattern capacity), degenerate inputs, and the StableFp
//! plug-in driving an α-net at p = 0.5.

use subspace_exploration::core::alpha_net::{AlphaNet, NetMode};
use subspace_exploration::core::{ExactSummary, FpConfig, FpNet, QueryError, UniformSampleSummary};
use subspace_exploration::row::{
    BinaryMatrix, ColumnSet, Dataset, FrequencyVector, PatternCodec, PatternKey, QaryMatrix,
};
use subspace_exploration::stream::gen::uniform_binary;

#[test]
fn d63_boundary_binary() {
    // The maximum representable dimension end to end.
    let d = 63;
    let rows = vec![u64::MAX >> 1, 0, 1, 1 << 62, (1 << 62) | 1];
    let data = Dataset::Binary(BinaryMatrix::from_rows(d, rows));
    let full = ColumnSet::full(d).expect("valid");
    let f = FrequencyVector::compute(&data, &full).expect("fits");
    assert_eq!(f.f0(), 5);
    // Projection onto the top bit alone.
    let top = ColumnSet::from_indices(d, &[62]).expect("valid");
    let f = FrequencyVector::compute(&data, &top).expect("fits");
    // Bit 62 is set in u64::MAX>>1, 1<<62, and (1<<62)|1 — three rows.
    assert_eq!(f.frequency(PatternKey::new(1)), 3);
    assert_eq!(f.frequency(PatternKey::new(0)), 2);
    // Exact summary and sampling still work at the boundary.
    let exact = ExactSummary::build(&data);
    assert_eq!(exact.f0(&full).expect("ok").value, 5.0);
    let sample = UniformSampleSummary::build(&data, 16, 1);
    assert_eq!(sample.frequency(&top, PatternKey::new(1)).expect("ok"), 3.0);
}

#[test]
fn pattern_capacity_at_the_u128_edge() {
    // Binary, |C| = 63: domain 2^63 fits comfortably.
    assert!(PatternCodec::new(2, 63).is_ok());
    // |C| = 127 is the last binary width that packs bijectively.
    assert!(PatternCodec::new(2, 127).is_ok());
    assert!(PatternCodec::new(2, 128).is_err());
    // Large alphabet: Q = 2^16 - 1 at width 7 (112 bits within budget);
    // width 8 crosses 127.
    let q = u16::MAX as u32;
    assert!(PatternCodec::new(q, 7).is_ok());
    assert!(PatternCodec::new(q, 8).is_err());
}

#[test]
fn empty_and_single_row_datasets() {
    let empty = Dataset::Binary(BinaryMatrix::new(8));
    let cols = ColumnSet::full(8).expect("valid");
    let f = FrequencyVector::compute(&empty, &cols).expect("fits");
    assert_eq!(f.f0(), 0);
    assert_eq!(f.total(), 0);
    let exact = ExactSummary::build(&empty);
    // Sampling from an empty frequency vector is a typed error, not a panic.
    assert!(matches!(
        exact.lp_sampler(&cols, 1.0, 0),
        Err(QueryError::EmptyData)
    ));

    let single = Dataset::Binary(BinaryMatrix::from_rows(8, vec![0b1010_1010]));
    let f = FrequencyVector::compute(&single, &cols).expect("fits");
    assert_eq!(f.f0(), 1);
    assert_eq!(f.fp(2.0), 1.0);
}

#[test]
fn qary_single_symbol_alphabet() {
    // Q = 1: every row is all-zeros; every projection has F0 = 1.
    let m = QaryMatrix::from_rows(1, 5, &vec![vec![0u16; 5]; 7]);
    let data = Dataset::Qary(m);
    for mask in [0u64, 0b1, 0b11111] {
        let cols = ColumnSet::from_mask(5, mask).expect("valid");
        let f = FrequencyVector::compute(&data, &cols).expect("fits");
        assert_eq!(f.f0(), 1);
        assert_eq!(f.total(), 7);
    }
}

#[test]
fn alpha_net_fp_with_stable_sketch_p_half() {
    // The 0 < p < 2, p != 1 plug-in (Indyk stable projections) inside
    // Algorithm 1, with the Lemma 6.4 distortion honored at p = 0.5.
    let d = 8;
    let data = uniform_binary(d, 400, 3);
    let exact = ExactSummary::build(&data);
    let net = AlphaNet::new(d, 0.3).expect("valid");
    let cfg = FpConfig {
        stable_t: 41,
        ..FpConfig::with_orders([0.5])
    };
    let summary = FpNet::build(&data, net, NetMode::Full, 1 << 16, 0.5, &cfg, 0).expect("build");
    assert_eq!(summary.p(), 0.5);
    for mask in [0b1111u64, 0b10101010, 0b11111111] {
        let cols = ColumnSet::from_mask(d, mask).expect("valid");
        let ans = summary.fp(&cols).expect("ok");
        let truth = exact.fp(&cols, 0.5).expect("ok").value;
        let ratio = (ans.estimate / truth).max(truth / ans.estimate);
        // Distortion bound at p=0.5 is 2^{|delta|/2}; allow 2x sketch slack.
        assert!(
            ratio <= ans.distortion_bound * 2.0,
            "mask {mask:#b}: F0.5 ratio {ratio} above {} x slack",
            ans.distortion_bound
        );
    }
}

#[test]
fn zero_width_and_full_width_queries() {
    let d = 10;
    let data = uniform_binary(d, 500, 5);
    let exact = ExactSummary::build(&data);
    // Empty projection: one pattern, frequency n.
    let empty = ColumnSet::empty(d).expect("valid");
    assert_eq!(exact.f0(&empty).expect("ok").value, 1.0);
    assert_eq!(
        exact.frequency(&empty, PatternKey::new(0)).expect("ok"),
        500.0
    );
    // Full projection: F1 still n.
    let full = ColumnSet::full(d).expect("valid");
    assert_eq!(exact.fp(&full, 1.0).expect("ok").value, 500.0);
}

#[test]
fn hostile_parameters_are_typed_errors_not_panics() {
    let data = uniform_binary(8, 100, 7);
    let exact = ExactSummary::build(&data);
    let cols = ColumnSet::full(8).expect("valid");
    for bad_p in [f64::NAN, f64::INFINITY, -1.0] {
        assert!(exact.fp(&cols, bad_p).is_err(), "p={bad_p} not rejected");
    }
    for bad_phi in [0.0, -0.5, 1.5, f64::NAN] {
        assert!(
            exact.heavy_hitters(&cols, bad_phi, 1.0).is_err(),
            "phi={bad_phi} not rejected"
        );
    }
    let sample = UniformSampleSummary::build(&data, 32, 8);
    assert!(sample.heavy_hitters(&cols, 0.1, 1.0, 1.0).is_err()); // c must be > 1
    assert!(sample.heavy_hitters(&cols, 0.1, 1.0, f64::NAN).is_err());
}
