//! Packed binary rows and matrices (`A ∈ {0,1}^{n×d}`, `d ≤ 63`).
//!
//! A binary row is a `u64` with bit `i` holding column `i`. Projection onto
//! a [`ColumnSet`] is a parallel-bit-extract: the selected bits are packed
//! toward the least-significant end in ascending column order. This is the
//! hot operation of the whole workspace (the α-net updates every sketch in
//! the net with a projected key per row), so it is branch-light and
//! allocation-free.

use crate::column_set::ColumnSet;
use pfe_hash::Features;

/// Portable parallel bit extract: pack the bits of `x` selected by `mask`
/// toward the LSB, preserving ascending bit order.
///
/// Equivalent to the BMI2 `PEXT` instruction; one iteration per set mask
/// bit.
#[inline]
pub fn pext_u64(x: u64, mut mask: u64) -> u64 {
    let mut out = 0u64;
    let mut pos = 0u32;
    while mask != 0 {
        let b = mask.trailing_zeros();
        out |= ((x >> b) & 1) << pos;
        pos += 1;
        mask &= mask - 1;
    }
    out
}

/// One run of adjacent set bits of a fixed mask, ready to apply: the
/// run's bits of `x` land at `(x >> shift) & keep`. Output positions never
/// exceed input positions, so every shift is a right shift.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitRun {
    shift: u32,
    keep: u64,
}

/// Compile `mask` into its runs of adjacent set bits, lowest first — the
/// one-time half of a [`pext_u64`] whose mask is applied to many rows.
pub fn bit_runs(mut mask: u64) -> impl Iterator<Item = BitRun> {
    let mut pos = 0u32;
    std::iter::from_fn(move || {
        if mask == 0 {
            return None;
        }
        let start = mask.trailing_zeros();
        let len = (mask >> start).trailing_ones();
        let ones = u64::MAX >> (64 - len);
        let run = BitRun {
            shift: start - pos,
            keep: ones << pos,
        };
        pos += len;
        mask &= !(ones << start);
        Some(run)
    })
}

/// The per-row half: the bits of `x` selected by the mask `runs` was
/// compiled from, packed toward the LSB — equal to [`pext_u64`]`(x, mask)`
/// at one shift-and-mask per run (≤ 4 runs for a 9-of-12 column subset)
/// instead of one step per set bit.
#[inline]
pub fn extract_runs(runs: &[BitRun], x: u64) -> u64 {
    runs.iter()
        .fold(0, |out, run| out | (x >> run.shift) & run.keep)
}

/// [`extract_runs`] of every row of `rows`, into `keys` (resized to one
/// key a row): run by run, one shift-and-mask pass over the whole block
/// each, so the loop a compiler sees is over rows and vectorizes — for
/// the widest vectors `features` allow ([`Features::widest`]).
pub fn extract_runs_block(features: Features, runs: &[BitRun], rows: &[u64], keys: &mut Vec<u64>) {
    keys.clear();
    keys.resize(rows.len(), 0);
    features.widest(ExtractRuns { runs, rows, keys });
}

/// [`extract_runs_block`]'s loop, as a [`pfe_hash::Kernel`].
struct ExtractRuns<'a> {
    runs: &'a [BitRun],
    rows: &'a [u64],
    keys: &'a mut [u64],
}

impl pfe_hash::Kernel for ExtractRuns<'_> {
    type Output = ();

    #[inline(always)]
    fn run(self) {
        for run in self.runs {
            for (key, &row) in self.keys.iter_mut().zip(self.rows) {
                *key |= (row >> run.shift) & run.keep;
            }
        }
    }
}

/// [`pext_u64`] for one fixed mask applied to many rows: [`bit_runs`]
/// compiled once at construction, [`extract_runs`] per row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitExtractor {
    runs: Box<[BitRun]>,
}

impl BitExtractor {
    /// Compile `mask`.
    pub fn new(mask: u64) -> Self {
        Self {
            runs: bit_runs(mask).collect(),
        }
    }

    /// The bits of `x` the mask selects, packed toward the LSB.
    #[inline]
    pub fn extract(&self, x: u64) -> u64 {
        extract_runs(&self.runs, x)
    }
}

/// Pack a flat row-major chunk of dense binary rows (`d` symbols each),
/// bit `i` of a packed row holding column `i`.
///
/// # Panics
/// Panics unless `1 ≤ d ≤ 63`, `flat` is a whole number of rows and every
/// symbol is 0 or 1.
pub fn pack_binary_rows(flat: &[u16], d: u32) -> Vec<u64> {
    assert!((1..=63).contains(&d), "packed rows need 1 <= d <= 63");
    assert!(
        flat.len().is_multiple_of(d as usize),
        "flat length {} is not a multiple of d={d}",
        flat.len()
    );
    flat.chunks_exact(d as usize)
        .map(|row| {
            row.iter().enumerate().fold(0u64, |acc, (i, &s)| {
                assert!(s < 2, "symbol {s} not binary");
                acc | (s as u64) << i
            })
        })
        .collect()
}

/// A binary matrix with `n` rows of `d ≤ 63` columns, rows packed as `u64`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BinaryMatrix {
    d: u32,
    rows: Vec<u64>,
}

impl pfe_persist::Persist for BinaryMatrix {
    fn encode(&self, enc: &mut pfe_persist::Encoder) {
        enc.put_u32(self.d);
        pfe_persist::Persist::encode(&self.rows, enc);
    }

    fn decode(dec: &mut pfe_persist::Decoder<'_>) -> Result<Self, pfe_persist::PersistError> {
        use pfe_persist::PersistError;
        let d = dec.take_u32()?;
        if d > 63 {
            return Err(PersistError::Malformed(format!("dimension d={d} above 63")));
        }
        let rows = <Vec<u64> as pfe_persist::Persist>::decode(dec)?;
        let limit = if d == 0 { 0 } else { (1u64 << d) - 1 };
        if let Some((i, &r)) = rows.iter().enumerate().find(|(_, &r)| r & !limit != 0) {
            return Err(PersistError::Malformed(format!(
                "row {i} ({r:#b}) has bits above d={d}"
            )));
        }
        Ok(Self { d, rows })
    }
}

impl BinaryMatrix {
    /// Empty matrix with `d` columns.
    ///
    /// # Panics
    /// Panics if `d > 63`.
    pub fn new(d: u32) -> Self {
        assert!(d <= 63, "BinaryMatrix supports d <= 63, got {d}");
        Self {
            d,
            rows: Vec::new(),
        }
    }

    /// Matrix from packed rows.
    ///
    /// # Panics
    /// Panics if `d > 63` or any row has bits at or above `d`.
    pub fn from_rows(d: u32, rows: Vec<u64>) -> Self {
        assert!(d <= 63, "BinaryMatrix supports d <= 63, got {d}");
        let limit = if d == 0 { 0 } else { (1u64 << d) - 1 };
        for (i, &r) in rows.iter().enumerate() {
            assert!(r & !limit == 0, "row {i} has bits above d={d}");
        }
        Self { d, rows }
    }

    /// Number of columns `d`.
    #[inline]
    pub fn dimension(&self) -> u32 {
        self.d
    }

    /// Number of rows `n`.
    #[inline]
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Packed row `i`.
    ///
    /// # Panics
    /// Panics if `i >= n`.
    #[inline]
    pub fn row(&self, i: usize) -> u64 {
        self.rows[i]
    }

    /// All packed rows.
    #[inline]
    pub fn rows(&self) -> &[u64] {
        &self.rows
    }

    /// Iterate projected keys for all rows.
    pub fn projected_keys<'a>(&'a self, cols: &ColumnSet) -> impl Iterator<Item = u64> + 'a {
        debug_assert_eq!(cols.dimension(), self.d);
        let extractor = BitExtractor::new(cols.mask());
        self.rows.iter().map(move |&r| extractor.extract(r))
    }

    /// Value at `(row, col)` as 0/1.
    ///
    /// # Panics
    /// Panics if out of range.
    fn get(&self, row: usize, col: u32) -> u16 {
        assert!(col < self.d, "column {col} out of range");
        ((self.rows[row] >> col) & 1) as u16
    }

    /// Expand row `i` to a dense symbol vector (for Q-ary interop).
    pub fn row_dense(&self, i: usize) -> Vec<u16> {
        (0..self.d).map(|c| self.get(i, c)).collect()
    }

    /// Heap + inline size in bytes (space accounting).
    pub fn space_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.rows.capacity() * std::mem::size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pext_basic() {
        // Extract bits 1 and 3 of 0b1010 -> both set -> 0b11.
        assert_eq!(pext_u64(0b1010, 0b1010), 0b11);
        assert_eq!(pext_u64(0b1010, 0b0101), 0b00);
        assert_eq!(pext_u64(0xffff_ffff_ffff_fffe, 1), 0);
        assert_eq!(pext_u64(u64::MAX, u64::MAX), u64::MAX);
        assert_eq!(pext_u64(0, u64::MAX), 0);
        assert_eq!(pext_u64(u64::MAX, 0), 0);
    }

    #[test]
    fn paper_running_example() {
        // Section 2 example: A in {0,1}^{5x3} with columns {1,2,3} (we use
        // 0-based {0,1,2}); C = {1,2} (paper's first two columns = our
        // {0,1}).  Rows: 110, 010, 001, 111, 110 — written (col0,col1,col2).
        let rows = vec![
            0b011u64, // 1 1 0 -> col0=1, col1=1, col2=0
            0b010,    // 0 1 0
            0b100,    // 0 0 1
            0b111,    // 1 1 1
            0b011,    // 1 1 0
        ];
        let m = BinaryMatrix::from_rows(3, rows);
        let c = ColumnSet::from_indices(3, &[0, 1]).expect("valid");
        let keys: Vec<u64> = m.projected_keys(&c).collect();
        // Projected rows: 11, 01, 00, 11, 11 (as (col0,col1) pairs,
        // LSB = col0): 0b11, 0b10, 0b00, 0b11, 0b11.
        assert_eq!(keys, vec![0b11, 0b10, 0b00, 0b11, 0b11]);
        // Distinct count = 3, matching the paper's F0 = 3.
        let distinct: std::collections::HashSet<_> = keys.iter().collect();
        assert_eq!(distinct.len(), 3);
    }

    #[test]
    fn projection_onto_full_set_is_identity() {
        let m = BinaryMatrix::from_rows(5, vec![0b10101, 0b01010]);
        let full = ColumnSet::full(5).expect("valid");
        let keys: Vec<u64> = m.projected_keys(&full).collect();
        assert_eq!(keys, vec![0b10101, 0b01010]);
    }

    #[test]
    fn projection_onto_empty_set_is_zero() {
        let m = BinaryMatrix::from_rows(5, vec![0b11111]);
        let empty = ColumnSet::empty(5).expect("valid");
        assert_eq!(m.projected_keys(&empty).collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn get_and_dense_roundtrip() {
        let m = BinaryMatrix::from_rows(4, vec![0b1010]);
        assert_eq!(m.get(0, 0), 0);
        assert_eq!(m.get(0, 1), 1);
        assert_eq!(m.row_dense(0), vec![0, 1, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "bits above d")]
    fn from_rows_rejects_out_of_range_bits() {
        BinaryMatrix::from_rows(3, vec![0b1000]);
    }

    #[test]
    fn space_accounting_grows() {
        let s0 = BinaryMatrix::new(8).space_bytes();
        let m = BinaryMatrix::from_rows(8, (0..1000).map(|i| i % 256).collect());
        assert!(m.space_bytes() > s0 + 1000 * 8 / 2);
    }

    #[test]
    fn extractor_edge_masks_equal_pext() {
        const ALTERNATING: u64 = 0x5555_5555_5555_5555;
        let masks = [
            0,
            u64::MAX,
            ALTERNATING,
            !ALTERNATING,
            0b111,
            0b11 << 62,
            1 << 62,
            1 << 63,
        ];
        for mask in masks {
            let e = BitExtractor::new(mask);
            for x in [0, u64::MAX, ALTERNATING, 0x0123_4567_89ab_cdef, 1 << 62] {
                assert_eq!(e.extract(x), pext_u64(x, mask), "mask {mask:#x} x {x:#x}");
            }
        }
    }

    /// Every build of the block projection — AVX-512, AVX2 and the
    /// scalar loop, each picked by narrowed features, so a CPU with
    /// AVX-512 still runs the other two — leaves what [`extract_runs`]
    /// gives row by row, for masks of none to 32 runs, at block lengths
    /// on both sides of every vector width, into a buffer holding keys
    /// of an earlier block.
    #[test]
    fn every_extract_runs_block_instantiation_equals_extract_runs() {
        let mut rng = pfe_hash::SplitMix64::new(0x7275);
        let rows: Vec<u64> = [0, u64::MAX, 0x5555_5555_5555_5555, 1 << 63]
            .into_iter()
            .chain((0..200).map(|_| rng.next_u64()))
            .collect();
        let mut masks = vec![0, 1, 1 << 63, u64::MAX, 0x5555_5555_5555_5555, 0xb6d];
        masks.extend((0..4).map(|_| rng.next_u64()));
        let mut keys = vec![u64::MAX; 5];
        for (name, features) in Features::detect().each_build("extract_runs_block") {
            for &mask in &masks {
                let runs: Vec<BitRun> = bit_runs(mask).collect();
                for len in [0, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17] {
                    for at in (0..rows.len()).step_by(len.max(1)) {
                        let block = &rows[at..(at + len).min(rows.len())];
                        extract_runs_block(features, &runs, block, &mut keys);
                        let expect: Vec<u64> =
                            block.iter().map(|&x| extract_runs(&runs, x)).collect();
                        assert_eq!(keys, expect, "{name} mask {mask:#x} len {len} at {at}");
                    }
                }
            }
        }
    }

    #[test]
    fn pack_binary_rows_is_column_i_to_bit_i() {
        assert_eq!(pack_binary_rows(&[1, 0, 0, 0, 1, 1], 3), vec![0b001, 0b110]);
        assert!(pack_binary_rows(&[], 63).is_empty());
    }

    #[test]
    #[should_panic(expected = "not binary")]
    fn pack_binary_rows_rejects_wide_symbols() {
        pack_binary_rows(&[0, 2], 2);
    }

    proptest! {
        #[test]
        fn prop_extractor_equals_pext(x in any::<u64>(), mask in any::<u64>(), lo in 0u32..64, len in 0u32..=64) {
            prop_assert_eq!(BitExtractor::new(mask).extract(x), pext_u64(x, mask));
            // Single runs, wherever they start and however long.
            let run = (u64::MAX.checked_shr(64 - len).unwrap_or(0)) << lo;
            prop_assert_eq!(BitExtractor::new(run).extract(x), pext_u64(x, run));
        }

        #[test]
        fn prop_pext_popcount(x in any::<u64>(), mask in any::<u64>()) {
            // The projected value fits in |mask| bits.
            let y = pext_u64(x, mask);
            let k = mask.count_ones();
            if k < 64 {
                prop_assert!(y < (1u64 << k));
            }
            // Ones are preserved: popcount(y) = popcount(x & mask).
            prop_assert_eq!(y.count_ones(), (x & mask).count_ones());
        }

        #[test]
        fn prop_pext_order_preserving(a in any::<u64>(), b in any::<u64>(), mask in any::<u64>()) {
            // pext is monotone w.r.t. the masked values' numeric order.
            let (am, bm) = (a & mask, b & mask);
            let (pa, pb) = (pext_u64(a, mask), pext_u64(b, mask));
            prop_assert_eq!(am < bm, pa < pb);
            prop_assert_eq!(am == bm, pa == pb);
        }

        #[test]
        fn prop_projection_distinct_counts_bounded(
            rows in proptest::collection::vec(0u64..(1 << 10), 1..200),
            mask in 0u64..(1 << 10),
        ) {
            // F0 of a projection never exceeds F0 of the full data
            // (projection merges patterns; it cannot split them).
            let m = BinaryMatrix::from_rows(10, rows.clone());
            let cols = ColumnSet::from_mask(10, mask).expect("valid");
            let full: std::collections::HashSet<u64> = rows.iter().copied().collect();
            let proj: std::collections::HashSet<u64> = m.projected_keys(&cols).collect();
            prop_assert!(proj.len() <= full.len());
            prop_assert!(proj.len() <= 1 << cols.len());
        }
    }
}
