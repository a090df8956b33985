//! Dense Q-ary matrices (`A ∈ [Q]^{n×d}`).
//!
//! Symbols are `u16` (alphabet sizes up to 65535 — far beyond any instance
//! in the paper, whose corollaries use `Q` up to `d`). Storage is row-major
//! in one contiguous allocation.

use crate::column_set::ColumnSet;
use crate::pattern::{PatternCodec, PatternKey};

/// A matrix over alphabet `[Q] = {0, ..., Q-1}` with `d ≤ 63` columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QaryMatrix {
    q: u32,
    d: u32,
    data: Vec<u16>,
}

impl pfe_persist::Persist for QaryMatrix {
    fn encode(&self, enc: &mut pfe_persist::Encoder) {
        enc.put_u32(self.q);
        enc.put_u32(self.d);
        pfe_persist::Persist::encode(&self.data, enc);
    }

    fn decode(dec: &mut pfe_persist::Decoder<'_>) -> Result<Self, pfe_persist::PersistError> {
        use pfe_persist::PersistError;
        let q = dec.take_u32()?;
        let d = dec.take_u32()?;
        if q < 1 || q > u16::MAX as u32 + 1 {
            return Err(PersistError::Malformed(format!("alphabet Q={q} invalid")));
        }
        if d > 63 {
            return Err(PersistError::Malformed(format!("dimension d={d} above 63")));
        }
        let data = <Vec<u16> as pfe_persist::Persist>::decode(dec)?;
        if d == 0 && !data.is_empty() {
            return Err(PersistError::Malformed(
                "d=0 matrix cannot carry symbols".into(),
            ));
        }
        if d > 0 && data.len() % d as usize != 0 {
            return Err(PersistError::Malformed(format!(
                "buffer of {} symbol(s) is not a multiple of d={d}",
                data.len()
            )));
        }
        if let Some((i, &s)) = data.iter().enumerate().find(|&(_, &s)| s as u32 >= q) {
            return Err(PersistError::Malformed(format!(
                "symbol {s} at {i} outside alphabet [{q}]"
            )));
        }
        Ok(Self { q, d, data })
    }
}

impl QaryMatrix {
    /// Empty matrix over `[Q]^d`.
    ///
    /// # Panics
    /// Panics if `q == 0`, `q > u16::MAX as u32 + 1`, or `d > 63`.
    pub fn new(q: u32, d: u32) -> Self {
        assert!(q >= 1, "alphabet size must be >= 1");
        assert!(
            q <= u16::MAX as u32 + 1,
            "alphabet size {q} exceeds u16 symbols"
        );
        assert!(d <= 63, "QaryMatrix supports d <= 63, got {d}");
        Self {
            q,
            d,
            data: Vec::new(),
        }
    }

    /// Build from row slices.
    ///
    /// # Panics
    /// Panics if any row has length ≠ `d` or carries out-of-alphabet symbols.
    pub fn from_rows<R: AsRef<[u16]>>(q: u32, d: u32, rows: &[R]) -> Self {
        let mut m = Self::new(q, d);
        for r in rows {
            m.push_row(r.as_ref());
        }
        m
    }

    /// Alphabet size `Q`.
    #[inline]
    pub fn alphabet(&self) -> u32 {
        self.q
    }

    /// Number of columns `d`.
    #[inline]
    pub fn dimension(&self) -> u32 {
        self.d
    }

    /// Number of rows `n`.
    #[inline]
    pub fn num_rows(&self) -> usize {
        if self.d == 0 {
            0
        } else {
            self.data.len() / self.d as usize
        }
    }

    /// Append a row.
    ///
    /// # Panics
    /// Panics if `row.len() != d` or symbols exceed the alphabet.
    pub fn push_row(&mut self, row: &[u16]) {
        assert_eq!(row.len(), self.d as usize, "row length != d");
        for &s in row {
            assert!(
                (s as u32) < self.q,
                "symbol {s} outside alphabet [{}]",
                self.q
            );
        }
        self.data.extend_from_slice(row);
    }

    /// The whole matrix as one flat row-major slice (`d` symbols per
    /// row) — the zero-copy input for batched ingest paths.
    #[inline]
    pub fn flat(&self) -> &[u16] {
        &self.data
    }

    /// Row `i` as a slice.
    ///
    /// # Panics
    /// Panics if `i >= n`.
    #[inline]
    pub fn row(&self, i: usize) -> &[u16] {
        let d = self.d as usize;
        &self.data[i * d..(i + 1) * d]
    }

    /// Project row `i` onto `cols` and pack as a [`PatternKey`].
    ///
    /// # Panics
    /// Panics if the codec's capacity check fails (see [`PatternCodec`]).
    #[inline]
    fn project_row(&self, i: usize, cols: &ColumnSet, codec: &PatternCodec) -> PatternKey {
        debug_assert_eq!(cols.dimension(), self.d);
        codec.encode_row(self.row(i), cols)
    }

    /// Iterate projected keys for all rows under `cols`.
    pub fn projected_keys<'a>(
        &'a self,
        cols: &'a ColumnSet,
        codec: &'a PatternCodec,
    ) -> impl Iterator<Item = PatternKey> + 'a {
        (0..self.num_rows()).map(move |i| self.project_row(i, cols, codec))
    }

    /// Heap + inline size in bytes (space accounting).
    pub fn space_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.data.capacity() * std::mem::size_of::<u16>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let m = QaryMatrix::from_rows(4, 3, &[[0u16, 1, 2], [3, 3, 0]]);
        assert_eq!(m.num_rows(), 2);
        assert_eq!(m.row(0), &[0, 1, 2]);
        assert_eq!(m.row(1)[0], 3);
    }

    #[test]
    #[should_panic(expected = "outside alphabet")]
    fn rejects_bad_symbol() {
        QaryMatrix::from_rows(2, 2, &[[0u16, 2]]);
    }

    #[test]
    #[should_panic(expected = "row length != d")]
    fn rejects_bad_row_length() {
        let mut m = QaryMatrix::new(2, 3);
        m.push_row(&[0, 1]);
    }

    #[test]
    fn projection_via_codec() {
        let m = QaryMatrix::from_rows(3, 4, &[[2u16, 1, 0, 2]]);
        let cols = ColumnSet::from_indices(4, &[0, 3]).expect("valid");
        let codec = PatternCodec::new(3, 2).expect("fits");
        let key = m.project_row(0, &cols, &codec);
        // Little-endian base-3 over (col0, col3) = (2, 2): 2 + 2*3 = 8.
        assert_eq!(key.raw(), 8);
    }

    #[test]
    fn empty_matrix() {
        let m = QaryMatrix::new(5, 7);
        assert_eq!(m.num_rows(), 0);
    }

    #[test]
    fn space_accounting() {
        let mut m = QaryMatrix::new(4, 8);
        let s0 = m.space_bytes();
        for _ in 0..100 {
            m.push_row(&[0, 1, 2, 3, 0, 1, 2, 3]);
        }
        assert!(m.space_bytes() >= s0 + 100 * 8 * 2 / 2);
    }
}
