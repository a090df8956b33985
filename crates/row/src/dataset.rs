//! Unified dataset type over binary and Q-ary storage.
//!
//! Binary data gets the packed `u64` fast path (projection = `PEXT`);
//! general alphabets use the dense Q-ary layout. Summaries in `pfe-core`
//! accept a [`Dataset`] so the same code path serves both the binary
//! instances (Theorems 5.3–5.5) and the `[Q]`-alphabet instances
//! (Theorem 4.1, Corollaries 4.2–4.4).

use crate::binary::BinaryMatrix;
use crate::column_set::ColumnSet;
use crate::pattern::{PatternCodec, PatternCodecError, PatternKey};
use crate::qary::QaryMatrix;

/// The input array `A ∈ [Q]^{n×d}`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Dataset {
    /// Binary alphabet, packed rows.
    Binary(BinaryMatrix),
    /// General alphabet, dense rows.
    Qary(QaryMatrix),
}

impl Dataset {
    /// Number of rows `n`.
    pub fn num_rows(&self) -> usize {
        match self {
            Self::Binary(m) => m.num_rows(),
            Self::Qary(m) => m.num_rows(),
        }
    }

    /// Number of columns `d`.
    pub fn dimension(&self) -> u32 {
        match self {
            Self::Binary(m) => m.dimension(),
            Self::Qary(m) => m.dimension(),
        }
    }

    /// Alphabet size `Q` (2 for binary).
    pub fn alphabet(&self) -> u32 {
        match self {
            Self::Binary(_) => 2,
            Self::Qary(m) => m.alphabet(),
        }
    }

    /// A codec for projections of width `|cols|` over this alphabet.
    ///
    /// # Errors
    /// Propagates the codec capacity check (`Q^{|C|} ≤ 2^127`).
    pub fn codec_for(&self, cols: &ColumnSet) -> Result<PatternCodec, PatternCodecError> {
        PatternCodec::new(self.alphabet(), cols.len())
    }

    /// Row `i` as a dense symbol vector.
    pub fn row_dense(&self, i: usize) -> Vec<u16> {
        match self {
            Self::Binary(m) => m.row_dense(i),
            Self::Qary(m) => m.row(i).to_vec(),
        }
    }

    /// Iterate all projected keys under `cols` (allocating iterator; the
    /// per-summary hot paths use the concrete matrix types directly).
    pub fn projected_keys<'a>(
        &'a self,
        cols: &'a ColumnSet,
        codec: &'a PatternCodec,
    ) -> Box<dyn Iterator<Item = PatternKey> + 'a> {
        match self {
            Self::Binary(m) => Box::new(m.projected_keys(cols).map(PatternKey::from)),
            Self::Qary(m) => Box::new(m.projected_keys(cols, codec)),
        }
    }

    /// Heap + inline size in bytes (the Θ(nd) "keep everything" baseline).
    pub fn space_bytes(&self) -> usize {
        match self {
            Self::Binary(m) => m.space_bytes(),
            Self::Qary(m) => m.space_bytes(),
        }
    }
}

impl pfe_persist::Persist for Dataset {
    fn encode(&self, enc: &mut pfe_persist::Encoder) {
        match self {
            Self::Binary(m) => {
                enc.put_u8(0);
                m.encode(enc);
            }
            Self::Qary(m) => {
                enc.put_u8(1);
                m.encode(enc);
            }
        }
    }

    fn decode(dec: &mut pfe_persist::Decoder<'_>) -> Result<Self, pfe_persist::PersistError> {
        match dec.take_u8()? {
            0 => Ok(Self::Binary(BinaryMatrix::decode(dec)?)),
            1 => Ok(Self::Qary(QaryMatrix::decode(dec)?)),
            other => Err(pfe_persist::PersistError::Malformed(format!(
                "dataset tag must be 0 (binary) or 1 (qary), got {other}"
            ))),
        }
    }
}

impl From<BinaryMatrix> for Dataset {
    fn from(m: BinaryMatrix) -> Self {
        Self::Binary(m)
    }
}

impl From<QaryMatrix> for Dataset {
    fn from(m: QaryMatrix) -> Self {
        Self::Qary(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn binary_fixture() -> Dataset {
        Dataset::Binary(BinaryMatrix::from_rows(4, vec![0b0011, 0b0101, 0b0011]))
    }

    fn qary_fixture() -> Dataset {
        Dataset::Qary(QaryMatrix::from_rows(
            3,
            4,
            &[[0u16, 1, 2, 0], [1, 1, 0, 2], [0, 1, 2, 0]],
        ))
    }

    #[test]
    fn basic_shape() {
        let b = binary_fixture();
        assert_eq!(b.num_rows(), 3);
        assert_eq!(b.dimension(), 4);
        assert_eq!(b.alphabet(), 2);
        let q = qary_fixture();
        assert_eq!(q.alphabet(), 3);
    }

    #[test]
    fn binary_and_qary_projection_agree() {
        // The same logical data through both representations must give the
        // same pattern multiset.
        let rows_bits = [0b0011u64, 0b0101, 0b0011];
        let bin = Dataset::Binary(BinaryMatrix::from_rows(4, rows_bits.to_vec()));
        let dense: Vec<Vec<u16>> = rows_bits
            .iter()
            .map(|&r| (0..4).map(|c| ((r >> c) & 1) as u16).collect())
            .collect();
        let qar = Dataset::Qary(QaryMatrix::from_rows(2, 4, &dense));
        let cols = ColumnSet::from_indices(4, &[1, 3]).expect("valid");
        let codec = bin.codec_for(&cols).expect("fits");
        let kb: Vec<_> = bin.projected_keys(&cols, &codec).collect();
        let kq: Vec<_> = qar.projected_keys(&cols, &codec).collect();
        assert_eq!(kb, kq);
    }

    #[test]
    fn row_dense_roundtrip() {
        let q = qary_fixture();
        assert_eq!(q.row_dense(1), vec![1, 1, 0, 2]);
        let b = binary_fixture();
        assert_eq!(b.row_dense(0), vec![1, 1, 0, 0]);
    }

    #[test]
    fn codec_capacity_error_surfaces() {
        // Q=65535 with width 10 exceeds 2^127.
        let m = QaryMatrix::new(65_535, 63);
        let ds = Dataset::Qary(m);
        let cols = ColumnSet::full(63).expect("valid");
        assert!(ds.codec_for(&cols).is_err());
    }

    #[test]
    fn space_accounting_positive() {
        assert!(binary_fixture().space_bytes() > 0);
        assert!(qary_fixture().space_bytes() > 0);
    }
}
