//! Column subsets `C ⊆ [d]` as `u64` bitmasks.
//!
//! The projection query of the paper is a set of column indices; all
//! operations the algorithms need (projection, rounding to an α-net
//! neighbour, complements for the Theorem 5.3 construction) reduce to bit
//! arithmetic on the mask.

use std::fmt;

/// A subset of the `d` columns, `d ≤ 63`. Bit `i` set means column `i ∈ C`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ColumnSet {
    mask: u64,
    d: u32,
}

/// Errors from [`ColumnSet`] constructors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ColumnSetError {
    /// Dimension exceeds the 63-column representation limit.
    DimensionTooLarge(u32),
    /// A column index is `>= d`.
    ColumnOutOfRange {
        /// The offending column index.
        column: u32,
        /// The dimension it exceeded.
        d: u32,
    },
}

impl fmt::Display for ColumnSetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::DimensionTooLarge(d) => write!(f, "dimension {d} exceeds the 63-column limit"),
            Self::ColumnOutOfRange { column, d } => {
                write!(f, "column {column} out of range for d={d}")
            }
        }
    }
}

impl std::error::Error for ColumnSetError {}

impl ColumnSet {
    /// The empty subset of `[d]`.
    ///
    /// # Errors
    /// Fails if `d > 63`.
    pub fn empty(d: u32) -> Result<Self, ColumnSetError> {
        if d > 63 {
            return Err(ColumnSetError::DimensionTooLarge(d));
        }
        Ok(Self { mask: 0, d })
    }

    /// The full subset `[d]`.
    ///
    /// # Errors
    /// Fails if `d > 63`.
    pub fn full(d: u32) -> Result<Self, ColumnSetError> {
        let mut s = Self::empty(d)?;
        s.mask = if d == 0 { 0 } else { (1u64 << d) - 1 };
        Ok(s)
    }

    /// Build from explicit column indices.
    ///
    /// # Errors
    /// Fails if `d > 63` or any index is out of range.
    pub fn from_indices(d: u32, indices: &[u32]) -> Result<Self, ColumnSetError> {
        let mut s = Self::empty(d)?;
        for &i in indices {
            if i >= d {
                return Err(ColumnSetError::ColumnOutOfRange { column: i, d });
            }
            s.mask |= 1 << i;
        }
        Ok(s)
    }

    /// Build from a raw mask.
    ///
    /// # Errors
    /// Fails if `d > 63` or the mask has bits at or above `d`.
    pub fn from_mask(d: u32, mask: u64) -> Result<Self, ColumnSetError> {
        let full = Self::full(d)?;
        if mask & !full.mask != 0 {
            return Err(ColumnSetError::ColumnOutOfRange {
                column: 63 - (mask & !full.mask).leading_zeros(),
                d,
            });
        }
        Ok(Self { mask, d })
    }

    /// The raw mask.
    #[inline]
    pub fn mask(&self) -> u64 {
        self.mask
    }

    /// The ambient dimension `d`.
    #[inline]
    pub fn dimension(&self) -> u32 {
        self.d
    }

    /// `|C|`.
    #[inline]
    pub fn len(&self) -> u32 {
        self.mask.count_ones()
    }

    /// True iff `C = ∅`.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.mask == 0
    }

    /// `C ∪ {column}` (no-op if already present).
    ///
    /// # Panics
    /// Panics if `column >= d` — an index bug in the caller.
    #[must_use]
    pub fn with(&self, column: u32) -> Self {
        assert!(
            column < self.d,
            "column {column} out of range for d={}",
            self.d
        );
        Self {
            mask: self.mask | (1 << column),
            d: self.d,
        }
    }

    /// Symmetric difference `C Δ C'` — the quantity the rounding distortion
    /// of Definition 6.3 is measured in.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    #[must_use]
    pub fn symmetric_difference(&self, other: &Self) -> Self {
        assert_eq!(self.d, other.d, "dimension mismatch");
        Self {
            mask: self.mask ^ other.mask,
            d: self.d,
        }
    }

    /// Subset test `self ⊆ other`.
    pub fn is_subset_of(&self, other: &Self) -> bool {
        self.d == other.d && self.mask & !other.mask == 0
    }

    /// Iterate member columns in ascending order.
    pub fn iter(&self) -> ColumnIter {
        ColumnIter { mask: self.mask }
    }

    /// Member columns as a vector (ascending).
    pub fn to_indices(&self) -> Vec<u32> {
        self.iter().collect()
    }
}

impl fmt::Display for ColumnSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, c) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, "}}")
    }
}

/// Iterator over member columns of a [`ColumnSet`].
#[derive(Debug, Clone)]
pub struct ColumnIter {
    mask: u64,
}

impl Iterator for ColumnIter {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        if self.mask == 0 {
            return None;
        }
        let b = self.mask.trailing_zeros();
        self.mask &= self.mask - 1;
        Some(b)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.mask.count_ones() as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for ColumnIter {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_len() {
        let c = ColumnSet::from_indices(8, &[0, 3, 7]).expect("valid");
        assert_eq!(c.len(), 3);
        assert_eq!(c.mask(), 0b1000_1001);
    }

    #[test]
    fn out_of_range_rejected() {
        assert_eq!(
            ColumnSet::from_indices(4, &[4]),
            Err(ColumnSetError::ColumnOutOfRange { column: 4, d: 4 })
        );
        assert_eq!(
            ColumnSet::empty(64),
            Err(ColumnSetError::DimensionTooLarge(64))
        );
        assert!(ColumnSet::from_mask(4, 0b10000).is_err());
    }

    #[test]
    fn set_algebra() {
        let a = ColumnSet::from_indices(8, &[0, 1, 2]).expect("a");
        let b = ColumnSet::from_indices(8, &[2, 3]).expect("b");
        assert_eq!(a.symmetric_difference(&b).to_indices(), vec![0, 1, 3]);
        assert!(!a.is_subset_of(&b));
        assert!(a.is_subset_of(&a));
    }

    #[test]
    fn with_adds_columns() {
        let c = ColumnSet::empty(5).expect("valid").with(2).with(4);
        assert_eq!(c.to_indices(), vec![2, 4]);
        assert_eq!(c.with(2), c);
    }

    #[test]
    fn iter_ascending_exact_size() {
        let c = ColumnSet::from_indices(10, &[9, 0, 5]).expect("valid");
        let it = c.iter();
        assert_eq!(it.len(), 3);
        assert_eq!(it.collect::<Vec<_>>(), vec![0, 5, 9]);
    }

    #[test]
    fn display_formatting() {
        let c = ColumnSet::from_indices(6, &[1, 3]).expect("valid");
        assert_eq!(c.to_string(), "{1,3}");
        assert_eq!(ColumnSet::empty(6).expect("valid").to_string(), "{}");
    }

    #[test]
    fn zero_dimension_edge() {
        let c = ColumnSet::empty(0).expect("valid");
        assert!(c.is_empty());
        assert_eq!(ColumnSet::full(0).expect("valid"), c);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn with_out_of_range_panics() {
        let _ = ColumnSet::empty(3).expect("valid").with(3);
    }
}
