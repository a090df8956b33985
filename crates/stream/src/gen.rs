//! Synthetic workload generators.
//!
//! The paper's introduction motivates three scenario families — bias &
//! diversity auditing, privacy/linkability, and subspace clustering — and
//! its analysis distinguishes diverse data (projected `F_0` up to `2^d`)
//! from homogeneous/correlated data (projected `F_0` as small as 1–2).
//! These generators produce all of those regimes deterministically from a
//! seed.

use pfe_hash::rng::{Xoshiro256pp, ZipfTable};
use pfe_row::{BinaryMatrix, Dataset, PatternCodec, PatternKey, QaryMatrix};

/// Uniform binary rows: every cell i.i.d. Bernoulli(1/2). Maximally diverse
/// — projected `F_0` approaches `min(n, 2^{|C|})`.
pub fn uniform_binary(d: u32, n: usize, seed: u64) -> Dataset {
    assert!(d <= 63);
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let mask = if d == 0 { 0 } else { (1u64 << d) - 1 };
    let rows = (0..n).map(|_| rng.next_u64() & mask).collect();
    Dataset::Binary(BinaryMatrix::from_rows(d, rows))
}

/// Uniform Q-ary rows: every cell i.i.d. uniform over `[Q]`.
pub fn uniform_qary(q: u32, d: u32, n: usize, seed: u64) -> Dataset {
    assert!(q >= 1 && d <= 63);
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let mut m = QaryMatrix::new(q, d);
    let mut row = vec![0u16; d as usize];
    for _ in 0..n {
        for cell in row.iter_mut() {
            *cell = rng.range_u64(q as u64) as u16;
        }
        m.push_row(&row);
    }
    Dataset::Qary(m)
}

/// Rows chosen by number: row `i` is `index(i)` written in base `Q`, least
/// significant digit in column 0 (the row whose full-width [`PatternKey`]
/// is `index(i)`) — so the caller decides exactly which rows repeat: a
/// constant `index` is one row `n` times, the identity `n` distinct rows.
///
/// # Panics
/// Panics if `Q^d` exceeds a pattern key or an index is `Q^d` or more.
pub fn indexed_rows(q: u32, d: u32, n: usize, index: impl Fn(usize) -> u64) -> Dataset {
    assert!(q >= 2 && d <= 63);
    let codec = PatternCodec::new(q, d).expect("[Q]^d fits a pattern key");
    let row = |i| codec.decode(PatternKey::from(index(i)));
    let rows: Vec<Vec<u16>> = (0..n).map(row).collect();
    if q == 2 {
        let packed = rows
            .iter()
            .flat_map(|row| pfe_row::pack_binary_rows(row, d));
        return Dataset::Binary(BinaryMatrix::from_rows(d, packed.collect()));
    }
    Dataset::Qary(QaryMatrix::from_rows(q, d, &rows))
}

/// Zipf-pattern rows: a dictionary of `num_patterns` distinct random rows is
/// sampled, then `n` rows are drawn from it with Zipf(`s`) rank weights —
/// heavy-hitter-rich data where rank-0's frequency dominates.
///
/// # Panics
/// Panics if `num_patterns == 0` or `num_patterns > 2^d` (can't be distinct).
pub fn zipf_patterns(d: u32, n: usize, num_patterns: usize, s: f64, seed: u64) -> Dataset {
    assert!(d <= 63);
    assert!(num_patterns > 0, "need at least one pattern");
    if d < 63 {
        assert!(
            (num_patterns as u128) <= (1u128 << d),
            "cannot draw {num_patterns} distinct patterns from 2^{d}"
        );
    }
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let mask = if d == 0 { 0 } else { (1u64 << d) - 1 };
    let mut dict = std::collections::BTreeSet::new();
    while dict.len() < num_patterns {
        dict.insert(rng.next_u64() & mask);
    }
    let dict: Vec<u64> = dict.into_iter().collect();
    let zipf = ZipfTable::new(num_patterns, s);
    let rows = (0..n).map(|_| dict[zipf.sample(&mut rng)]).collect();
    Dataset::Binary(BinaryMatrix::from_rows(d, rows))
}

/// Planted subspace clusters: `clusters` centers, each with a random
/// relevant column subset of size `subspace_size`; every row copies its
/// cluster's center on the relevant columns (flipping each bit with
/// probability `noise`) and is uniform elsewhere. Projecting onto a
/// cluster's relevant columns shows low `F_0` / strong heavy hitters;
/// projecting onto irrelevant columns looks uniform — the paper's
/// clustering motivation.
pub struct ClusteredConfig {
    /// Dimension `d ≤ 63`.
    pub d: u32,
    /// Rows to generate.
    pub n: usize,
    /// Number of planted clusters.
    pub clusters: usize,
    /// Relevant columns per cluster.
    pub subspace_size: u32,
    /// Per-bit flip probability on relevant columns.
    pub noise: f64,
    /// PRNG seed.
    pub seed: u64,
}

/// Output of [`clustered_subspace`]: the data plus the planted ground truth.
pub struct ClusteredData {
    /// The generated dataset.
    pub data: Dataset,
    /// Per-cluster relevant column masks.
    pub relevant_columns: Vec<u64>,
    /// Per-cluster center rows (full `d`-bit patterns).
    pub centers: Vec<u64>,
    /// Row-to-cluster assignment.
    pub assignment: Vec<usize>,
}

/// Generate planted subspace-cluster data (see [`ClusteredConfig`]).
///
/// # Panics
/// Panics on invalid parameters (empty clusters, oversize subspace, etc.).
pub fn clustered_subspace(cfg: &ClusteredConfig) -> ClusteredData {
    assert!(cfg.d <= 63);
    assert!(cfg.clusters > 0, "need at least one cluster");
    assert!(cfg.subspace_size <= cfg.d, "subspace larger than d");
    assert!((0.0..=1.0).contains(&cfg.noise), "noise outside [0,1]");
    let mut rng = Xoshiro256pp::seed_from_u64(cfg.seed);
    let mask_all = if cfg.d == 0 { 0 } else { (1u64 << cfg.d) - 1 };
    let mut relevant = Vec::with_capacity(cfg.clusters);
    let mut centers = Vec::with_capacity(cfg.clusters);
    for _ in 0..cfg.clusters {
        let cols = rng
            .sample_indices(cfg.d as usize, cfg.subspace_size as usize)
            .into_iter()
            .fold(0u64, |acc, b| acc | (1 << b));
        relevant.push(cols);
        centers.push(rng.next_u64() & mask_all);
    }
    let mut rows = Vec::with_capacity(cfg.n);
    let mut assignment = Vec::with_capacity(cfg.n);
    for _ in 0..cfg.n {
        let c = rng.range_u64(cfg.clusters as u64) as usize;
        assignment.push(c);
        let mut row = rng.next_u64() & mask_all; // background: uniform
                                                 // On relevant columns, copy the center then apply noise flips.
        row = (row & !relevant[c]) | (centers[c] & relevant[c]);
        if cfg.noise > 0.0 {
            let mut m = relevant[c];
            while m != 0 {
                let b = m.trailing_zeros();
                if rng.bernoulli(cfg.noise) {
                    row ^= 1 << b;
                }
                m &= m - 1;
            }
        }
        rows.push(row);
    }
    ClusteredData {
        data: Dataset::Binary(BinaryMatrix::from_rows(cfg.d, rows)),
        relevant_columns: relevant,
        centers,
        assignment,
    }
}

/// Correlated columns: the first `independent` columns are i.i.d. uniform;
/// every remaining column is a copy of a random earlier column (possibly
/// negated). Projections inside a correlated group have `F_0 ≤ 2`.
pub fn correlated_columns(d: u32, n: usize, independent: u32, seed: u64) -> Dataset {
    assert!(d <= 63);
    assert!(
        independent >= 1 && independent <= d,
        "need 1..=d independent columns"
    );
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    // Wiring: column j >= independent copies source[j] xor flip[j].
    let wiring: Vec<(u32, bool)> = (independent..d)
        .map(|_| (rng.range_u64(independent as u64) as u32, rng.bernoulli(0.5)))
        .collect();
    let mut rows = Vec::with_capacity(n);
    for _ in 0..n {
        let base = rng.next_u64() & ((1u64 << independent) - 1);
        let mut row = base;
        for (j, &(src, flip)) in wiring.iter().enumerate() {
            let bit = ((base >> src) & 1) ^ (flip as u64);
            row |= bit << (independent + j as u32);
        }
        rows.push(row);
    }
    Dataset::Binary(BinaryMatrix::from_rows(d, rows))
}

/// Demographic-style categorical data for the bias-audit example: columns
/// (attribute, cardinality) = (gender, 3), (age band, 8), (region, 12),
/// (education, 6), (income band, 8), (occupation, 10), stored over the
/// common alphabet `Q = 12`. A planted fraction `bias` of rows is forced to
/// a fixed intersectional combination on (gender, age, region) so the
/// combination becomes an over-represented heavy hitter under that
/// projection.
pub fn bias_audit(n: usize, bias: f64, seed: u64) -> Dataset {
    assert!((0.0..=1.0).contains(&bias), "bias outside [0,1]");
    const CARDS: [u64; 6] = [3, 8, 12, 6, 8, 10];
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let mut m = QaryMatrix::new(12, CARDS.len() as u32);
    let planted: [u16; 3] = [1, 2, 7]; // (gender=1, age=2, region=7)
    let mut row = [0u16; 6];
    for _ in 0..n {
        for (j, &card) in CARDS.iter().enumerate() {
            row[j] = rng.range_u64(card) as u16;
        }
        if rng.bernoulli(bias) {
            row[0] = planted[0];
            row[1] = planted[1];
            row[2] = planted[2];
        }
        m.push_row(&row);
    }
    Dataset::Qary(m)
}

/// The planted heavy-hitter combination of [`bias_audit`], as
/// `(column, value)` pairs.
pub fn bias_audit_planted() -> [(u32, u16); 3] {
    [(0, 1), (1, 2), (2, 7)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfe_row::{ColumnSet, FrequencyVector};

    #[test]
    fn indexed_rows_repeat_exactly_as_told() {
        for q in [2, 4] {
            let cols = ColumnSet::full(5).expect("valid");
            let f0 = |ds: &Dataset| FrequencyVector::compute(ds, &cols).expect("fits").f0();
            assert_eq!(f0(&indexed_rows(q, 5, 30, |i| i as u64)), 30);
            assert_eq!(f0(&indexed_rows(q, 5, 30, |_| 17)), 1);
            let ds = indexed_rows(q, 5, 30, |i| i as u64 % 3);
            assert_eq!((ds.num_rows(), ds.alphabet(), f0(&ds)), (30, q, 3));
            // Column 0 is the least significant digit.
            assert_eq!(ds.row_dense(1), [1, 0, 0, 0, 0]);
        }
    }

    #[test]
    fn uniform_binary_shape_and_diversity() {
        let ds = uniform_binary(16, 2000, 1);
        assert_eq!(ds.num_rows(), 2000);
        assert_eq!(ds.dimension(), 16);
        let cols = ColumnSet::full(16).expect("valid");
        let f = FrequencyVector::compute(&ds, &cols).expect("fits");
        // 2000 rows over 65536 patterns: almost all distinct.
        assert!(f.f0() > 1900);
    }

    #[test]
    fn uniform_qary_alphabet_respected() {
        let ds = uniform_qary(5, 8, 500, 2);
        assert_eq!(ds.alphabet(), 5);
        for i in 0..ds.num_rows() {
            assert!(ds.row_dense(i).iter().all(|&s| s < 5));
        }
    }

    #[test]
    fn zipf_has_heavy_hitter() {
        let ds = zipf_patterns(20, 10_000, 200, 1.5, 3);
        let cols = ColumnSet::full(20).expect("valid");
        let f = FrequencyVector::compute(&ds, &cols).expect("fits");
        assert!(f.f0() <= 200);
        // Rank-0 of Zipf(1.5) over 200 ranks has ~38% of the mass.
        let max = f.iter().map(|(_, c)| c).max().expect("nonempty");
        assert!(max > 2000, "max frequency {max}");
    }

    #[test]
    fn clustered_low_f0_on_relevant_columns() {
        let cd = clustered_subspace(&ClusteredConfig {
            d: 24,
            n: 3000,
            clusters: 4,
            subspace_size: 10,
            noise: 0.0,
            seed: 4,
        });
        let cols = ColumnSet::from_mask(24, cd.relevant_columns[0]).expect("valid");
        let f = FrequencyVector::compute(&cd.data, &cols).expect("fits");
        // Noise-free: each cluster contributes its center pattern on these
        // columns, plus background rows from other clusters (uniform) —
        // the center pattern of cluster 0 must be a clear heavy hitter.
        let hh = f.heavy_hitters(0.1, 1.0);
        assert!(!hh.is_empty(), "no heavy hitter on relevant columns");
        // And F0 far below the uniform expectation min(n, 2^10).
        assert!(f.f0() < 900, "F0 {} not cluster-compressed", f.f0());
    }

    #[test]
    fn clustered_ground_truth_consistent() {
        let cd = clustered_subspace(&ClusteredConfig {
            d: 16,
            n: 100,
            clusters: 3,
            subspace_size: 6,
            noise: 0.0,
            seed: 5,
        });
        // Every row matches its cluster center on the relevant columns.
        if let Dataset::Binary(m) = &cd.data {
            for (i, &c) in cd.assignment.iter().enumerate() {
                let rel = cd.relevant_columns[c];
                assert_eq!(m.row(i) & rel, cd.centers[c] & rel, "row {i} off-center");
            }
        } else {
            panic!("expected binary dataset");
        }
    }

    #[test]
    fn correlated_projection_has_f0_at_most_2() {
        let ds = correlated_columns(12, 1000, 4, 6);
        // Columns 4.. are copies of columns <4; a pair (source, copy) has
        // at most 2 distinct joint patterns. Find the copy of column 0 by
        // checking all; at least one copy pair must exist with F0 <= 2.
        let mut found = false;
        for j in 4..12u32 {
            for src in 0..4u32 {
                let cols = ColumnSet::from_indices(12, &[src, j]).expect("valid");
                let f = FrequencyVector::compute(&ds, &cols).expect("fits");
                if f.f0() <= 2 {
                    found = true;
                }
            }
        }
        assert!(found, "no correlated pair detected");
    }

    #[test]
    fn bias_audit_planted_combination_is_heavy() {
        let ds = bias_audit(20_000, 0.15, 8);
        let cols = ColumnSet::from_indices(6, &[0, 1, 2]).expect("valid");
        let f = FrequencyVector::compute(&ds, &cols).expect("fits");
        let codec = ds.codec_for(&cols).expect("fits");
        // The planted pattern (1, 2, 7): little-endian base-12 key.
        let key = codec.encode_pattern(&[1, 2, 7]);
        let freq = f.frequency(key);
        // ~15% planted + ~n/288 background.
        assert!(
            freq as f64 > 0.14 * 20_000.0,
            "planted combination frequency {freq}"
        );
        let hh = f.heavy_hitters(0.1, 1.0);
        assert!(
            hh.iter().any(|&(k, _)| k == key),
            "planted combo not a heavy hitter"
        );
    }

    #[test]
    fn determinism_per_seed() {
        assert_eq!(uniform_binary(10, 50, 9), uniform_binary(10, 50, 9));
        assert_ne!(uniform_binary(10, 50, 9), uniform_binary(10, 50, 10));
    }

    #[test]
    #[should_panic(expected = "cannot draw")]
    fn zipf_rejects_impossible_dictionary() {
        zipf_patterns(3, 10, 100, 1.0, 0);
    }
}
