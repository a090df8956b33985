//! The naïve fixed-size enumeration baseline of Section 3.1: if the query
//! size `t = |C|` is known in advance, keep one sketch for each of the
//! `C(d, t)` subsets of that size. Answers size-`t` queries with pure
//! sketch error (no rounding distortion), but costs `Ω(d^t)` space and
//! cannot answer any other size — the comparison point that motivates the
//! α-net's rounding.

use pfe_codes::binomial::binomial;
use pfe_codes::subsets::FixedWeightIter;
use pfe_hash::builder::{seeded_map, SeededHashMap};
use pfe_row::{ColumnSet, Dataset, PatternCodec, PatternKey};
use pfe_sketch::traits::{DistinctSketch, SpaceUsage};

use crate::problem::{check_dims, QueryError};

/// Fingerprint seed shared with the α-net summaries.
const FINGERPRINT_SEED: u64 = 0xf1a9_f1a9_f1a9_f1a9;

/// One sketch per size-`t` subset.
pub struct SubsetEnumerationF0<S: DistinctSketch> {
    sketches: SeededHashMap<u64, S>,
    d: u32,
    t: u32,
}

impl<S: DistinctSketch> SubsetEnumerationF0<S> {
    /// Build for query size `t`. `max_subsets` caps `C(d, t)`.
    ///
    /// # Errors
    /// Parameter/codec errors; cap exceeded.
    pub fn build(
        data: &Dataset,
        t: u32,
        max_subsets: u128,
        mut factory: impl FnMut(u64) -> S,
    ) -> Result<Self, QueryError> {
        let d = data.dimension();
        if t > d {
            return Err(QueryError::BadParameter(format!("t={t} exceeds d={d}")));
        }
        let count = binomial(d as u64, t as u64).expect("fits for d <= 63");
        if count > max_subsets {
            return Err(QueryError::BadParameter(format!(
                "C({d},{t}) = {count} subsets exceeds cap {max_subsets}"
            )));
        }
        let q = data.alphabet();
        let mut sketches: SeededHashMap<u64, S> = seeded_map(0xe11e);
        sketches.reserve(count as usize);
        for mask in FixedWeightIter::new(d, t) {
            let cols = ColumnSet::from_mask(d, mask).expect("valid");
            let mut sketch = factory(mask);
            match data {
                Dataset::Binary(m) => {
                    for key in m.projected_keys(&cols) {
                        sketch.insert(PatternKey::from(key).fingerprint64(FINGERPRINT_SEED));
                    }
                }
                Dataset::Qary(m) => {
                    let codec = PatternCodec::new(q, cols.len())?;
                    for i in 0..m.num_rows() {
                        let key = m.project_row(i, &cols, &codec);
                        sketch.insert(key.fingerprint64(FINGERPRINT_SEED));
                    }
                }
            }
            sketches.insert(mask, sketch);
        }
        Ok(Self { sketches, d, t })
    }

    /// The supported query size `t`.
    pub fn query_size(&self) -> u32 {
        self.t
    }

    /// Number of sketches (`= C(d, t)`).
    pub fn num_sketches(&self) -> usize {
        self.sketches.len()
    }

    /// Answer a size-`t` `F_0` query with pure sketch error.
    ///
    /// # Errors
    /// Dimension mismatch; `BadParameter` for any other query size.
    pub fn f0(&self, cols: &ColumnSet) -> Result<f64, QueryError> {
        check_dims(self.d, cols)?;
        if cols.len() != self.t {
            return Err(QueryError::BadParameter(format!(
                "enumeration summary only answers |C| = {}, got {}",
                self.t,
                cols.len()
            )));
        }
        Ok(self
            .sketches
            .get(&cols.mask())
            .expect("all size-t subsets materialized")
            .estimate())
    }
}

impl<S: DistinctSketch> SpaceUsage for SubsetEnumerationF0<S> {
    fn space_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self
                .sketches
                .values()
                .map(|s| s.space_bytes() + std::mem::size_of::<u64>())
                .sum::<usize>()
    }
}

/// One moment sketch per size-`t` subset — the `F_p` flavour of the
/// known-`|C|` strawman.
pub struct SubsetEnumerationFp<M: pfe_sketch::traits::MomentSketch> {
    sketches: SeededHashMap<u64, M>,
    d: u32,
    t: u32,
    p: f64,
}

impl<M: pfe_sketch::traits::MomentSketch> SubsetEnumerationFp<M> {
    /// Build for query size `t`. `max_subsets` caps `C(d, t)`.
    ///
    /// # Errors
    /// Parameter/codec errors; cap exceeded.
    pub fn build(
        data: &Dataset,
        t: u32,
        max_subsets: u128,
        mut factory: impl FnMut(u64) -> M,
    ) -> Result<Self, QueryError> {
        let d = data.dimension();
        if t > d {
            return Err(QueryError::BadParameter(format!("t={t} exceeds d={d}")));
        }
        let count = binomial(d as u64, t as u64).expect("fits for d <= 63");
        if count > max_subsets {
            return Err(QueryError::BadParameter(format!(
                "C({d},{t}) = {count} subsets exceeds cap {max_subsets}"
            )));
        }
        let q = data.alphabet();
        let mut p = None;
        let mut sketches: SeededHashMap<u64, M> = seeded_map(0xe12e);
        sketches.reserve(count as usize);
        for mask in FixedWeightIter::new(d, t) {
            let cols = ColumnSet::from_mask(d, mask).expect("valid");
            let mut sketch = factory(mask);
            p.get_or_insert(sketch.p());
            match data {
                Dataset::Binary(m) => {
                    for key in m.projected_keys(&cols) {
                        sketch.update(PatternKey::from(key).fingerprint64(FINGERPRINT_SEED), 1);
                    }
                }
                Dataset::Qary(m) => {
                    let codec = PatternCodec::new(q, cols.len())?;
                    for i in 0..m.num_rows() {
                        let key = m.project_row(i, &cols, &codec);
                        sketch.update(key.fingerprint64(FINGERPRINT_SEED), 1);
                    }
                }
            }
            sketches.insert(mask, sketch);
        }
        Ok(Self {
            sketches,
            d,
            t,
            p: p.ok_or(QueryError::EmptyData)?,
        })
    }

    /// The supported query size `t`.
    pub fn query_size(&self) -> u32 {
        self.t
    }

    /// The moment order this summary answers.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Number of sketches (`= C(d, t)`).
    pub fn num_sketches(&self) -> usize {
        self.sketches.len()
    }

    /// Answer a size-`t` `F_p` query with pure sketch error.
    ///
    /// # Errors
    /// Dimension mismatch; `BadParameter` for any other query size;
    /// `UnsupportedMoment` for a different `p`.
    pub fn fp(&self, cols: &ColumnSet, p: f64) -> Result<f64, QueryError> {
        check_dims(self.d, cols)?;
        if (p - self.p).abs() > 1e-12 {
            return Err(QueryError::UnsupportedMoment {
                requested: p,
                supported: self.p,
            });
        }
        if cols.len() != self.t {
            return Err(QueryError::BadParameter(format!(
                "enumeration summary only answers |C| = {}, got {}",
                self.t,
                cols.len()
            )));
        }
        Ok(self
            .sketches
            .get(&cols.mask())
            .expect("all size-t subsets materialized")
            .estimate())
    }
}

impl<M: pfe_sketch::traits::MomentSketch> SpaceUsage for SubsetEnumerationFp<M> {
    fn space_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self
                .sketches
                .values()
                .map(|s| s.space_bytes() + std::mem::size_of::<u64>())
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfe_row::FrequencyVector;
    use pfe_sketch::kmv::Kmv;
    use pfe_stream::gen::uniform_binary;

    #[test]
    fn answers_every_size_t_query() {
        let d = 10;
        let t = 3;
        let data = uniform_binary(d, 1000, 1);
        let s = SubsetEnumerationF0::build(&data, t, 1 << 20, |m| Kmv::new(128, m)).expect("build");
        assert_eq!(
            s.num_sketches() as u128,
            binomial(d as u64, t as u64).expect("fits")
        );
        for mask in FixedWeightIter::new(d, t).take(20) {
            let cols = ColumnSet::from_mask(d, mask).expect("v");
            let est = s.f0(&cols).expect("ok");
            let exact = FrequencyVector::compute(&data, &cols).expect("fits").f0() as f64;
            let rel = (est - exact).abs() / exact;
            assert!(rel < 0.4, "mask {mask:#b}: relative error {rel}");
        }
    }

    #[test]
    fn rejects_other_sizes() {
        let data = uniform_binary(8, 100, 2);
        let s = SubsetEnumerationF0::build(&data, 3, 1 << 20, |m| Kmv::new(16, m)).expect("build");
        let wrong = ColumnSet::from_indices(8, &[0, 1]).expect("v");
        assert!(matches!(s.f0(&wrong), Err(QueryError::BadParameter(_))));
    }

    #[test]
    fn cap_enforced() {
        let data = uniform_binary(30, 10, 3);
        assert!(matches!(
            SubsetEnumerationF0::build(&data, 15, 1000, |m| Kmv::new(8, m)),
            Err(QueryError::BadParameter(_))
        ));
    }

    #[test]
    fn fp_enumeration_answers_with_ams() {
        use pfe_sketch::ams_f2::AmsF2;
        let d = 10;
        let t = 3;
        let data = uniform_binary(d, 2000, 9);
        let s =
            SubsetEnumerationFp::build(&data, t, 1 << 20, |m| AmsF2::new(5, 64, m)).expect("build");
        assert_eq!(s.p(), 2.0);
        for mask in FixedWeightIter::new(d, t).take(10) {
            let cols = ColumnSet::from_mask(d, mask).expect("v");
            let est = s.fp(&cols, 2.0).expect("ok");
            let truth = FrequencyVector::compute(&data, &cols)
                .expect("fits")
                .fp(2.0);
            let rel = (est - truth).abs() / truth;
            assert!(rel < 0.35, "mask {mask:#b}: F2 relative error {rel}");
        }
        // Wrong p and wrong size are typed errors.
        let cols = ColumnSet::from_indices(d, &[0, 1, 2]).expect("v");
        assert!(matches!(
            s.fp(&cols, 0.5),
            Err(QueryError::UnsupportedMoment { .. })
        ));
        let wrong = ColumnSet::from_indices(d, &[0, 1]).expect("v");
        assert!(matches!(
            s.fp(&wrong, 2.0),
            Err(QueryError::BadParameter(_))
        ));
    }

    #[test]
    fn fp_enumeration_with_stable_sketch() {
        use pfe_sketch::stable_fp::StableFp;
        let d = 8;
        let t = 2;
        let data = uniform_binary(d, 300, 10);
        let s = SubsetEnumerationFp::build(&data, t, 1 << 16, |m| StableFp::new(31, 0.5, m))
            .expect("build");
        assert_eq!(s.p(), 0.5);
        let cols = ColumnSet::from_indices(d, &[1, 4]).expect("v");
        let est = s.fp(&cols, 0.5).expect("ok");
        let truth = FrequencyVector::compute(&data, &cols)
            .expect("fits")
            .fp(0.5);
        let rel = (est - truth).abs() / truth;
        assert!(rel < 0.5, "F0.5 relative error {rel}");
    }

    #[test]
    fn space_grows_with_t_toward_half() {
        let data = uniform_binary(14, 100, 4);
        let s2 = SubsetEnumerationF0::build(&data, 2, 1 << 24, |m| Kmv::new(16, m)).expect("build");
        let s5 = SubsetEnumerationF0::build(&data, 5, 1 << 24, |m| Kmv::new(16, m)).expect("build");
        assert!(s5.space_bytes() > s2.space_bytes());
        assert!(s5.num_sketches() > 20 * s2.num_sketches());
    }
}
