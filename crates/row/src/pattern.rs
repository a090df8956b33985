//! Pattern keys: bijective packing of projected rows into `u128`.
//!
//! A projected row `A^C_i ∈ [Q]^{|C|}` is identified by its *pattern key*,
//! the little-endian base-`Q` packing over the selected columns in ascending
//! column order (the first selected column is the least significant digit).
//! Remark 1 of the paper allows any bijection as the index function `e(·)`;
//! little-endian matches the binary fast path, where the key is exactly the
//! `PEXT`-packed bits.
//!
//! The packing is bijective onto `[0, Q^{|C|})`, which requires
//! `Q^{|C|} ≤ 2^127`; [`PatternCodec::new`] enforces this and callers
//! surface the violation as a query error. Every instance in the paper fits
//! comfortably (binary instances need `|C| ≤ 127`; the `Q = d` instances of
//! Corollary 4.3 need `|C| log2 d ≤ 127`).

use crate::column_set::ColumnSet;
use pfe_hash::Features;

/// A packed projected pattern. Ordering/equality follow the packed value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PatternKey(u128);

impl PatternKey {
    /// Wrap a raw packed value.
    #[inline]
    pub fn new(raw: u128) -> Self {
        Self(raw)
    }

    /// The raw packed value.
    #[inline]
    pub fn raw(&self) -> u128 {
        self.0
    }

    /// A 64-bit hashable fingerprint (for sketches keyed on `u64`).
    #[inline]
    pub fn fingerprint64(&self, seed: u64) -> u64 {
        pfe_hash::hash_u128(self.0, seed)
    }
}

impl From<u64> for PatternKey {
    fn from(v: u64) -> Self {
        Self(v as u128)
    }
}

/// [`PatternCodec::encode_columns`]'s loop, as a [`pfe_hash::Kernel`].
struct EncodeColumns<'a> {
    columns: &'a [u16],
    cols: &'a ColumnSet,
    q: u32,
    keys: &'a mut [u64],
}

impl pfe_hash::Kernel for EncodeColumns<'_> {
    type Output = ();

    #[inline(always)]
    fn run(self) {
        let n = self.keys.len();
        let mut scale = 1u64;
        for c in self.cols.iter() {
            let column = &self.columns[c as usize * n..][..n];
            for (key, &s) in self.keys.iter_mut().zip(column) {
                *key += u64::from(s) * scale;
            }
            // Below `Q^m`, so below 2^64.
            scale *= u64::from(self.q);
        }
    }
}

/// Errors from codec construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PatternCodecError {
    /// `Q^m` exceeds `2^127`: the packing cannot be bijective.
    DomainTooLarge {
        /// Alphabet size.
        q: u32,
        /// Projection width.
        m: u32,
    },
    /// Alphabet size zero.
    EmptyAlphabet,
}

impl std::fmt::Display for PatternCodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::DomainTooLarge { q, m } => {
                write!(
                    f,
                    "pattern domain {q}^{m} exceeds 2^127; cannot pack bijectively"
                )
            }
            Self::EmptyAlphabet => write!(f, "alphabet size must be >= 1"),
        }
    }
}

impl std::error::Error for PatternCodecError {}

/// Encoder/decoder between projected rows and [`PatternKey`]s for a fixed
/// alphabet `Q` and projection width `m = |C|`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PatternCodec {
    q: u32,
    m: u32,
}

impl PatternCodec {
    /// Codec for alphabet `[Q]` and projection width `m`.
    ///
    /// # Errors
    /// Fails if `q == 0` or `Q^m > 2^127`.
    pub fn new(q: u32, m: u32) -> Result<Self, PatternCodecError> {
        if q == 0 {
            return Err(PatternCodecError::EmptyAlphabet);
        }
        if !Self::fits(q, m) {
            return Err(PatternCodecError::DomainTooLarge { q, m });
        }
        Ok(Self { q, m })
    }

    /// Whether `Q^m ≤ 2^127` (q=1 always fits: domain size 1).
    fn fits(q: u32, m: u32) -> bool {
        if q <= 1 {
            return true;
        }
        (m as f64) * (q as f64).log2() <= 127.0
    }

    /// Domain size `Q^m`.
    pub fn domain_size(&self) -> u128 {
        if self.q == 1 {
            1
        } else {
            (self.q as u128).pow(self.m)
        }
    }

    /// Encode the projection of a full row onto `cols` (ascending column
    /// order, little-endian digits).
    ///
    /// # Panics
    /// Panics (debug) if `cols.len() != m`; panics if a symbol is outside
    /// the alphabet.
    #[inline]
    pub fn encode_row(&self, row: &[u16], cols: &ColumnSet) -> PatternKey {
        debug_assert_eq!(cols.len(), self.m, "codec width mismatch");
        let mut acc: u128 = 0;
        let mut scale: u128 = 1;
        for c in cols.iter() {
            let s = row[c as usize];
            debug_assert!(
                (s as u32) < self.q,
                "symbol {s} outside alphabet [{}]",
                self.q
            );
            acc += s as u128 * scale;
            scale *= self.q as u128;
        }
        PatternKey(acc)
    }

    /// The keys of `n` rows laid out column-major — row `i`'s symbol in
    /// column `c` at `columns[c·n + i]` — projected onto `cols`, into
    /// `keys` (resized to `n`): [`encode_row`](Self::encode_row) of every
    /// row, a column at a time over the whole block, in `u64`, for the
    /// widest vectors `features` allow ([`Features::widest`]).
    ///
    /// # Panics
    /// Panics (debug) unless the codec's domain `Q^m` is below `2^64`,
    /// every key a `u64`, and `cols.len() == m`.
    pub fn encode_columns(
        &self,
        features: Features,
        columns: &[u16],
        n: usize,
        cols: &ColumnSet,
        keys: &mut Vec<u64>,
    ) {
        debug_assert_eq!(cols.len(), self.m, "codec width mismatch");
        debug_assert!(
            self.domain_size() <= u64::MAX as u128,
            "keys wider than u64"
        );
        keys.clear();
        keys.resize(n, 0);
        let q = self.q;
        features.widest(EncodeColumns {
            columns,
            cols,
            q,
            keys,
        });
    }

    /// Encode an already-projected pattern (length `m`, ascending column
    /// order).
    ///
    /// # Panics
    /// Panics if `pattern.len() != m` or a symbol is outside the alphabet.
    pub fn encode_pattern(&self, pattern: &[u16]) -> PatternKey {
        assert_eq!(pattern.len(), self.m as usize, "pattern width mismatch");
        let mut acc: u128 = 0;
        let mut scale: u128 = 1;
        for &s in pattern {
            assert!(
                (s as u32) < self.q,
                "symbol {s} outside alphabet [{}]",
                self.q
            );
            acc += s as u128 * scale;
            scale *= self.q as u128;
        }
        PatternKey(acc)
    }

    /// Decode a key back to the projected pattern (length `m`).
    ///
    /// # Panics
    /// Panics if the key is outside the domain.
    pub fn decode(&self, key: PatternKey) -> Vec<u16> {
        assert!(key.0 < self.domain_size(), "key out of domain");
        let mut out = vec![0u16; self.m as usize];
        let mut v = key.0;
        for slot in out.iter_mut() {
            *slot = (v % self.q as u128) as u16;
            v /= self.q as u128;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn binary_key_equals_pext() {
        use crate::binary::pext_u64;
        let d = 10u32;
        let cols = ColumnSet::from_indices(d, &[1, 4, 7]).expect("valid");
        let codec = PatternCodec::new(2, 3).expect("fits");
        for raw in [0b0010010010u64, 0b1111111111, 0b0000000000, 0b0100100100] {
            let dense: Vec<u16> = (0..d).map(|c| ((raw >> c) & 1) as u16).collect();
            let key = codec.encode_row(&dense, &cols);
            assert_eq!(key.raw(), pext_u64(raw, cols.mask()) as u128);
        }
    }

    #[test]
    fn roundtrip_small() {
        let codec = PatternCodec::new(5, 3).expect("fits");
        for i in 0..codec.domain_size() {
            let p = codec.decode(PatternKey::new(i));
            assert_eq!(codec.encode_pattern(&p).raw(), i);
        }
    }

    #[test]
    fn capacity_check() {
        assert!(PatternCodec::fits(2, 127));
        assert!(!PatternCodec::fits(2, 128));
        assert!(PatternCodec::fits(1, 4000));
        assert!(!PatternCodec::fits(u16::MAX as u32, 10));
        assert!(matches!(
            PatternCodec::new(2, 128),
            Err(PatternCodecError::DomainTooLarge { .. })
        ));
        assert!(matches!(
            PatternCodec::new(0, 4),
            Err(PatternCodecError::EmptyAlphabet)
        ));
    }

    #[test]
    fn unary_alphabet_degenerates() {
        let codec = PatternCodec::new(1, 6).expect("fits");
        assert_eq!(codec.domain_size(), 1);
        assert_eq!(codec.encode_pattern(&[0; 6]).raw(), 0);
        assert_eq!(codec.decode(PatternKey::new(0)), vec![0; 6]);
    }

    #[test]
    fn fingerprint_seed_sensitive() {
        let k = PatternKey::new(12345);
        assert_ne!(k.fingerprint64(1), k.fingerprint64(2));
        assert_eq!(k.fingerprint64(1), k.fingerprint64(1));
    }

    #[test]
    fn encode_row_selects_correct_columns() {
        let codec = PatternCodec::new(4, 2).expect("fits");
        let cols = ColumnSet::from_indices(5, &[2, 4]).expect("valid");
        // row: col2=3, col4=1 -> key = 3 + 1*4 = 7.
        let row = [0u16, 0, 3, 0, 1];
        assert_eq!(codec.encode_row(&row, &cols).raw(), 7);
    }

    #[test]
    #[should_panic(expected = "out of domain")]
    fn decode_out_of_domain_panics() {
        PatternCodec::new(2, 2)
            .expect("fits")
            .decode(PatternKey::new(4));
    }

    /// Every build of the column-major block encoding — AVX-512, AVX2
    /// and the scalar loop, each picked by narrowed features, so a CPU
    /// with AVX-512 still runs the other two — leaves what
    /// [`encode_row`](PatternCodec::encode_row) gives row by row, for
    /// alphabets from 2 to 16, scattered and adjacent columns, domains up
    /// to `2^60`, at block lengths on both sides of every vector width.
    #[test]
    fn every_encode_columns_instantiation_equals_encode_row() {
        let d = 17;
        let mut rng = pfe_hash::SplitMix64::new(0x636f);
        let builds = Features::detect().each_build("encode_columns");
        let mut keys = vec![u64::MAX; 5];
        for (q, widths) in [
            (2, [1, 9, 17]),
            (3, [1, 5, 17]),
            (4, [2, 8, 17]),
            (16, [1, 7, 15]),
        ] {
            let rows: Vec<Vec<u16>> = (0..100)
                .map(|i| match i {
                    0 => vec![0; d],
                    1 => vec![q as u16 - 1; d],
                    _ => (0..d).map(|_| (rng.next_u64() % q) as u16).collect(),
                })
                .collect();
            for m in widths {
                let picked: Vec<u32> = (0..d as u32).filter(|c| c % 2 == 0 || m > 9).collect();
                let cols = ColumnSet::from_indices(d as u32, &picked[..m]).expect("valid");
                let codec = PatternCodec::new(q as u32, m as u32).expect("fits");
                for len in [0, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17] {
                    for at in (0..rows.len()).step_by(len.max(1)) {
                        let block = &rows[at..(at + len).min(rows.len())];
                        let n = block.len();
                        let mut columns = vec![0; d * n];
                        for (i, row) in block.iter().enumerate() {
                            row.iter()
                                .enumerate()
                                .for_each(|(c, &s)| columns[c * n + i] = s);
                        }
                        let expect: Vec<u64> = block
                            .iter()
                            .map(|row| codec.encode_row(row, &cols).raw() as u64)
                            .collect();
                        for (name, features) in &builds {
                            codec.encode_columns(*features, &columns, n, &cols, &mut keys);
                            assert_eq!(keys, expect, "{name} q={q} m={m} len {len} at {at}");
                        }
                    }
                }
            }
        }
    }

    proptest! {
        #[test]
        fn prop_roundtrip(q in 2u32..8, m in 1u32..10, salt in any::<u64>()) {
            let codec = PatternCodec::new(q, m).expect("fits");
            let key = PatternKey::new(salt as u128 % codec.domain_size());
            prop_assert_eq!(codec.encode_pattern(&codec.decode(key)), key);
        }

        #[test]
        fn prop_injective(q in 2u32..5, m in 1u32..6, a in any::<u64>(), b in any::<u64>()) {
            let codec = PatternCodec::new(q, m).expect("fits");
            let ka = PatternKey::new(a as u128 % codec.domain_size());
            let kb = PatternKey::new(b as u128 % codec.domain_size());
            prop_assert_eq!(ka == kb, codec.decode(ka) == codec.decode(kb));
        }
    }
}
