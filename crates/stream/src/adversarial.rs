//! Adversarial instance builders — the exact constructions used by the
//! paper's lower-bound proofs, as generatable datasets.
//!
//! Each builder takes Alice's held set `T` (indices into a code's canonical
//! enumeration) and materializes the input array `A` the reduction feeds to
//! a candidate algorithm. The `pfe-lowerbounds` crate layers the Alice/Bob
//! Index protocol on top; these builders are also reused directly as "worst
//! case" workloads by the ablation experiments.

use pfe_codes::constant_weight::ConstantWeightCode;
use pfe_codes::random_code::RandomCode;
use pfe_codes::star::{star_count, star_union};
use pfe_row::{BinaryMatrix, Dataset, QaryMatrix};

/// Theorem 4.1 instance: `A = star_Q(T)` for `T ⊆ B(d, k)`, over `[Q]`.
///
/// If Bob's word `y ∈ T`, the projection onto `supp(y)` shows at least
/// `Q^k` distinct patterns; otherwise at most `k·Q^{k-1}` — the `Q/k`
/// separation.
#[derive(Debug)]
pub struct F0Instance {
    /// The generated input array.
    pub data: Dataset,
    /// The code the instance is built over.
    pub code: ConstantWeightCode,
    /// Alphabet size `Q`.
    pub q: u32,
    /// Alice's held codewords (masks).
    pub held: Vec<u64>,
}

impl F0Instance {
    /// Build from Alice's held codewords.
    ///
    /// # Panics
    /// Panics if a held word is not in `B(d, k)`, or the alphabet is `< 2`.
    pub fn build(code: ConstantWeightCode, q: u32, held: &[u64]) -> Self {
        assert!(q >= 2, "Theorem 4.1 needs Q >= 2");
        for &w in held {
            assert!(code.contains(w), "held word {w:#x} not in B(d,k)");
        }
        let rows = star_union(held, code.dimension(), q);
        let mut m = QaryMatrix::new(q, code.dimension());
        for r in &rows {
            m.push_row(r);
        }
        Self {
            data: Dataset::Qary(m),
            code,
            q,
            held: held.to_vec(),
        }
    }

    /// The separation's "yes" threshold: `Q^k` patterns.
    pub fn yes_threshold(&self) -> u128 {
        star_count(self.q, self.code.weight()).expect("fits")
    }

    /// The separation's "no" ceiling: `k·Q^{k-1}` patterns.
    pub fn no_ceiling(&self) -> u128 {
        self.code.weight() as u128
            * star_count(self.q, self.code.weight().saturating_sub(1)).expect("fits")
    }
}

/// Theorem 5.3 instance (`ℓ_p` heavy hitters, `p > 1`): `2^{εd}` copies of
/// the all-ones row plus `star_2(T)` for `T` drawn from a Lemma 3.2 random
/// code. Bob's query is the *complement* of `supp(y)`; the all-zero pattern
/// `0_S` is a heavy hitter iff `y ∈ T`.
#[derive(Debug)]
pub struct HeavyHitterInstance {
    /// The generated binary input array.
    pub data: Dataset,
    /// The random code.
    pub code: RandomCode,
    /// Alice's held codeword indices (into `code.words()`).
    pub held: Vec<usize>,
    /// Number of all-ones padding rows (`2^{εd}`).
    pub padding_rows: usize,
}

impl HeavyHitterInstance {
    /// Build from Alice's held indices into the code's enumeration.
    ///
    /// # Panics
    /// Panics if an index is out of range or `2^{εd}` overflows `usize`.
    pub fn build(code: RandomCode, held: &[usize]) -> Self {
        let d = code.params().d;
        let k = code.params().weight();
        for &i in held {
            assert!(i < code.len(), "held index {i} out of range");
        }
        let padding = 1usize
            .checked_shl(k)
            .expect("2^{epsilon d} padding rows overflow");
        let all_ones = if d == 0 { 0 } else { (1u64 << d) - 1 };
        let held_words: Vec<u64> = held.iter().map(|&i| code.words()[i]).collect();
        let mut rows: Vec<u64> = Vec::with_capacity(padding + (held.len() << k));
        rows.extend(std::iter::repeat_n(all_ones, padding));
        // star_2(T): children of each held word, deduplicated across parents
        // (set union semantics of Section 3.2).
        for child in star_union(&held_words, d, 2) {
            let mut packed = 0u64;
            for (bit, &s) in child.iter().enumerate() {
                packed |= (s as u64) << bit;
            }
            rows.push(packed);
        }
        Self {
            data: Dataset::Binary(BinaryMatrix::from_rows(d, rows)),
            code,
            held: held.to_vec(),
            padding_rows: padding,
        }
    }
}

/// Theorem 5.4 instance (`F_p` estimation, `0 < p < 1`): `A = star_2(T)`
/// only; Bob queries `S = supp(y)` and thresholds `F_p(A, S)` at `2^{εd}`.
#[derive(Debug)]
pub struct FpInstance {
    /// The generated binary input array.
    pub data: Dataset,
    /// The random code.
    pub code: RandomCode,
    /// Alice's held codeword indices.
    pub held: Vec<usize>,
}

impl FpInstance {
    /// Build from Alice's held indices into the code's enumeration.
    ///
    /// # Panics
    /// Panics if an index is out of range.
    pub fn build(code: RandomCode, held: &[usize]) -> Self {
        let d = code.params().d;
        for &i in held {
            assert!(i < code.len(), "held index {i} out of range");
        }
        let held_words: Vec<u64> = held.iter().map(|&i| code.words()[i]).collect();
        let mut rows = Vec::new();
        for child in star_union(&held_words, d, 2) {
            let mut packed = 0u64;
            for (bit, &s) in child.iter().enumerate() {
                packed |= (s as u64) << bit;
            }
            rows.push(packed);
        }
        Self {
            data: Dataset::Binary(BinaryMatrix::from_rows(d, rows)),
            code,
            held: held.to_vec(),
        }
    }
}

/// Corollary 4.4's alphabet reduction: re-encode a `[Q]`-alphabet dataset
/// over a smaller alphabet `[q]` by expanding every symbol into
/// `⌈log_q Q⌉` base-`q` digits (most significant digit first). The
/// dimension grows from `d` to `d·⌈log_q Q⌉`; a column query `C` on the
/// original data corresponds to the union of each selected column's digit
/// block (see [`expand_columns`]), and the map is a bijection on rows, so
/// every projected frequency is preserved exactly.
///
/// # Panics
/// Panics if `q < 2` or the expanded dimension exceeds 63.
pub fn alphabet_reduce(data: &Dataset, q: u32) -> Dataset {
    assert!(q >= 2, "target alphabet must be >= 2");
    let big_q = data.alphabet();
    let digits = digits_per_symbol(big_q, q);
    let new_d = data.dimension() * digits;
    assert!(new_d <= 63, "expanded dimension {new_d} exceeds 63");
    let mut out = QaryMatrix::new(q, new_d);
    let mut row = vec![0u16; new_d as usize];
    for i in 0..data.num_rows() {
        let dense = data.row_dense(i);
        for (c, &sym) in dense.iter().enumerate() {
            let mut v = sym as u32;
            for j in (0..digits).rev() {
                row[c * digits as usize + j as usize] = (v % q) as u16;
                v /= q;
            }
        }
        out.push_row(&row);
    }
    Dataset::Qary(out)
}

/// Number of base-`q` digits per `[Q]` symbol: `⌈log_q Q⌉` (at least 1).
pub fn digits_per_symbol(big_q: u32, q: u32) -> u32 {
    assert!(q >= 2);
    let mut digits = 1u32;
    let mut reach = q as u64;
    while reach < big_q as u64 {
        reach *= q as u64;
        digits += 1;
    }
    digits
}

/// Map a column set on the original `[Q]` data to the corresponding digit
/// block columns of the reduced dataset.
///
/// # Panics
/// Panics if the expanded dimension exceeds 63.
pub fn expand_columns(cols: &pfe_row::ColumnSet, big_q: u32, q: u32) -> pfe_row::ColumnSet {
    let digits = digits_per_symbol(big_q, q);
    let new_d = cols.dimension() * digits;
    assert!(new_d <= 63, "expanded dimension {new_d} exceeds 63");
    let mut out = pfe_row::ColumnSet::empty(new_d).expect("<= 63");
    for c in cols.iter() {
        for j in 0..digits {
            out = out.with(c * digits + j);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfe_codes::random_code::RandomCodeParams;
    use pfe_row::{ColumnSet, FrequencyVector};

    fn small_random_code(seed: u64) -> RandomCode {
        RandomCode::generate(RandomCodeParams {
            d: 20,
            epsilon: 0.25,
            gamma: 0.15,
            target_size: 12,
            seed,
        })
        .expect("code generates")
    }

    #[test]
    fn f0_instance_yes_case_hits_threshold() {
        let code = ConstantWeightCode::new(12, 3);
        let q = 5;
        // Alice holds words 0, 10, 20 of the enumeration.
        let held: Vec<u64> = [0u128, 10, 20].iter().map(|&r| code.unrank(r)).collect();
        let inst = F0Instance::build(code, q, &held);
        // Query supp(held[0]) — a held word: F0 >= Q^k.
        let cols = ColumnSet::from_mask(12, held[0]).expect("valid");
        let f = FrequencyVector::compute(&inst.data, &cols).expect("fits");
        assert!(f.f0() as u128 >= inst.yes_threshold());
    }

    #[test]
    fn f0_instance_no_case_below_ceiling() {
        let code = ConstantWeightCode::new(12, 3);
        let q = 7;
        let held: Vec<u64> = [0u128, 10, 20].iter().map(|&r| code.unrank(r)).collect();
        let inst = F0Instance::build(code, q, &held);
        // Query the support of a word Alice does NOT hold.
        let absent = code.unrank(50);
        assert!(!held.contains(&absent));
        let cols = ColumnSet::from_mask(12, absent).expect("valid");
        let f = FrequencyVector::compute(&inst.data, &cols).expect("fits");
        assert!(
            (f.f0() as u128) <= inst.no_ceiling(),
            "no-case F0 {} exceeds ceiling {}",
            f.f0(),
            inst.no_ceiling()
        );
    }

    #[test]
    fn f0_thresholds_formula() {
        let code = ConstantWeightCode::new(16, 4);
        let inst = F0Instance::build(code, 16, &[code.unrank(0)]);
        assert_eq!(inst.yes_threshold(), 16u128.pow(4));
        assert_eq!(inst.no_ceiling(), 4 * 16u128.pow(3));
    }

    #[test]
    fn hh_instance_shape() {
        let code = small_random_code(1);
        let k = code.params().weight(); // 5
        let inst = HeavyHitterInstance::build(code, &[0, 1, 2]);
        assert_eq!(inst.padding_rows, 1 << k);
        // Rows: padding + |star_union(T)| <= padding + 3 * 2^k.
        let n = inst.data.num_rows();
        assert!(n > inst.padding_rows);
        assert!(n <= inst.padding_rows + 3 * (1 << k));
    }

    #[test]
    fn hh_instance_zero_pattern_heavy_iff_held() {
        let code = small_random_code(2);
        let d = code.params().d;
        let y_index = 0usize;
        // Case 1: Alice holds y.
        let inst_yes = HeavyHitterInstance::build(code.clone(), &[y_index, 1, 2]);
        let y = inst_yes.code.words()[y_index];
        let s = ColumnSet::from_mask(d, ((1u64 << d) - 1) & !y).expect("valid");
        let f_yes = FrequencyVector::compute(&inst_yes.data, &s).expect("fits");
        let zero_count_yes = f_yes.frequency(pfe_row::PatternKey::new(0));
        // star(y) has 2^k children all projecting to 0_S.
        assert!(zero_count_yes >= 1 << inst_yes.code.params().weight());

        // Case 2: Alice does not hold y.
        let inst_no = HeavyHitterInstance::build(code, &[1, 2, 3]);
        let f_no = FrequencyVector::compute(&inst_no.data, &s).expect("fits");
        let zero_count_no = f_no.frequency(pfe_row::PatternKey::new(0));
        assert!(
            zero_count_no < zero_count_yes,
            "no-case zero-pattern count {zero_count_no} not below yes-case {zero_count_yes}"
        );
    }

    #[test]
    fn fp_instance_yes_case_reaches_threshold() {
        let code = small_random_code(3);
        let d = code.params().d;
        let inst = FpInstance::build(code, &[0, 1]);
        let y = inst.code.words()[0];
        let s = ColumnSet::from_mask(d, y).expect("valid");
        let f = FrequencyVector::compute(&inst.data, &s).expect("fits");
        // Case 2 of Thm 5.4: each of the 2^{εd} strings in star(y) appears
        // at least once on S, so F_p >= 2^{εd} for any p (at p<1 each
        // count^p >= 1).
        let fp = f.fp(0.5);
        let threshold = 2f64.powi(inst.code.params().weight() as i32);
        assert!(
            fp >= threshold,
            "yes-case F_0.5 {fp} below threshold {threshold}"
        );
    }

    #[test]
    fn fp_instance_no_case_below_yes_case() {
        let code = small_random_code(4);
        let d = code.params().d;
        // y = word 0; Alice holds everything else.
        let all_but_zero: Vec<usize> = (1..code.len()).collect();
        let inst_no = FpInstance::build(code.clone(), &all_but_zero);
        let y = code.words()[0];
        let s = ColumnSet::from_mask(d, y).expect("valid");
        let f_no = FrequencyVector::compute(&inst_no.data, &s).expect("fits");
        let fp_no = f_no.fp(0.5);

        let with_zero: Vec<usize> = (0..code.len()).collect();
        let inst_yes = FpInstance::build(code, &with_zero);
        let f_yes = FrequencyVector::compute(&inst_yes.data, &s).expect("fits");
        let fp_yes = f_yes.fp(0.5);
        assert!(
            fp_yes > fp_no,
            "yes-case F_p {fp_yes} not above no-case {fp_no}"
        );
    }

    #[test]
    fn digits_per_symbol_values() {
        assert_eq!(digits_per_symbol(16, 2), 4);
        assert_eq!(digits_per_symbol(16, 4), 2);
        assert_eq!(digits_per_symbol(16, 16), 1);
        assert_eq!(digits_per_symbol(10, 3), 3); // 3^2=9 < 10 <= 27
        assert_eq!(digits_per_symbol(2, 2), 1);
    }

    #[test]
    fn alphabet_reduction_preserves_projected_f0() {
        // Corollary 4.4's key property: the reduction is a bijection on
        // rows, so F0 on the expanded query equals F0 on the original.
        let code = ConstantWeightCode::new(8, 3);
        let held: Vec<u64> = [0u128, 5, 11].iter().map(|&r| code.unrank(r)).collect();
        let inst = F0Instance::build(code, 4, &held);
        let reduced = alphabet_reduce(&inst.data, 2);
        assert_eq!(reduced.dimension(), 16);
        assert_eq!(reduced.alphabet(), 2);
        assert_eq!(reduced.num_rows(), inst.data.num_rows());
        for &y in &held {
            let cols = ColumnSet::from_mask(8, y).expect("valid");
            let expanded = expand_columns(&cols, 4, 2);
            let f_orig = FrequencyVector::compute(&inst.data, &cols).expect("fits");
            let f_red = FrequencyVector::compute(&reduced, &expanded).expect("fits");
            assert_eq!(
                f_orig.f0(),
                f_red.f0(),
                "F0 changed under alphabet reduction"
            );
            // Full frequency multiset preserved, not just F0.
            let mut a: Vec<u64> = f_orig.iter().map(|(_, c)| c).collect();
            let mut b: Vec<u64> = f_red.iter().map(|(_, c)| c).collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn expand_columns_block_structure() {
        let cols = ColumnSet::from_indices(4, &[1, 3]).expect("valid");
        let ex = expand_columns(&cols, 16, 4); // 2 digits per symbol
        assert_eq!(ex.dimension(), 8);
        assert_eq!(ex.to_indices(), vec![2, 3, 6, 7]);
    }

    #[test]
    #[should_panic(expected = "exceeds 63")]
    fn alphabet_reduce_rejects_oversized_expansion() {
        let m = QaryMatrix::from_rows(16, 20, &[vec![0u16; 20]]);
        alphabet_reduce(&Dataset::Qary(m), 2); // 20*4 = 80 > 63
    }

    #[test]
    #[should_panic(expected = "not in B(d,k)")]
    fn f0_rejects_non_codeword() {
        let code = ConstantWeightCode::new(8, 3);
        F0Instance::build(code, 4, &[0b1]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn hh_rejects_bad_index() {
        let code = small_random_code(5);
        let len = code.len();
        HeavyHitterInstance::build(code, &[len]);
    }
}
