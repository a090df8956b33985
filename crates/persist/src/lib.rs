#![deny(missing_docs)]
#![forbid(unsafe_code)]
//! `pfe-persist` — versioned, checksummed binary serialization for the
//! paper's summaries.
//!
//! The whole point of a streaming summary is to outlive the stream: the
//! Theorem 5.1 uniform sample and the Section 6 α-net of β-approximate
//! sketches stand in for the matrix `A` after the data is gone. This crate
//! makes them outlive the *process* too. It has zero dependencies and
//! supplies three layers:
//!
//! 1. [`Encoder`]/[`Decoder`] — fixed-width little-endian primitives with
//!    fully defensive reads (typed errors, never panics, length fields
//!    validated before any allocation);
//! 2. the [`Persist`] trait — `encode`/`decode` implemented by every
//!    summary in the workspace (sketches in `pfe-sketch`, summaries in
//!    `pfe-core`, snapshots in `pfe-engine`), with impls for primitives,
//!    `Vec`, `Option`, and boxed slices provided here; a `Vec` or boxed
//!    slice of a fixed-width number travels as one little-endian slice;
//! 3. the [`frame`] module — `magic + version + kind + length + CRC-32`
//!    file framing, so corrupted, truncated, version-skewed, or
//!    wrong-typed files are rejected with a precise [`PersistError`].
//!
//! Encoding is canonical: encoding equal values yields equal bytes (maps
//! are written in sorted key order by their owners), and decoding then
//! re-encoding is the identity. Seeded state (PRNG positions, hash
//! coefficients) is captured bit-exactly, so a decoded summary answers
//! every query — and merges with live summaries — exactly like the
//! original.
//!
//! ```
//! use pfe_persist::{frame, Persist};
//!
//! let value: Vec<u64> = vec![3, 1, 4, 1, 5];
//! let bytes = frame::to_bytes(frame::kind::SKETCH, &value);
//! let back: Vec<u64> = frame::from_bytes(frame::kind::SKETCH, &bytes).unwrap();
//! assert_eq!(back, value);
//! // A flipped bit is caught by the checksum, not by the decoder guessing:
//! let mut corrupt = bytes.clone();
//! corrupt[20] ^= 1;
//! assert!(frame::from_bytes::<Vec<u64>>(frame::kind::SKETCH, &corrupt).is_err());
//! ```

pub mod codec;
pub mod crc32;
pub mod error;
pub mod frame;

pub use codec::{Decoder, Encoder};
pub use error::PersistError;
pub use frame::{kind, load, peek_kind, save, MAGIC, VERSION};

/// A type with a stable binary wire format.
///
/// Implementations must guarantee that `decode(encode(x)) == x` in the
/// sense of observable behaviour: a decoded summary answers every query
/// with bit-identical results and merges exactly like the original.
/// `decode` must never panic on arbitrary bytes — all invariant
/// violations are [`PersistError::Malformed`].
pub trait Persist: Sized {
    /// A lower bound on the encoded size of one value, in bytes. Used by
    /// container decoders to validate a declared element count against
    /// the input actually remaining *before* pre-allocating — with the
    /// default of 1, a hostile length field could still force an
    /// allocation of `size_of::<T>()` times the input size, so
    /// fixed-width types override this with their exact wire size.
    const MIN_WIRE_BYTES: usize = 1;

    /// Append this value's wire representation to `enc`.
    fn encode(&self, enc: &mut Encoder);

    /// Decode a value from `dec`, validating every invariant.
    ///
    /// # Errors
    /// `Truncated` when the input ends early, `Malformed` when decoded
    /// values violate the target type's invariants.
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, PersistError>;

    /// Append every item of `items`, in order — exactly the bytes one
    /// [`encode`](Self::encode) per item writes. Fixed-width primitives
    /// override it to write the whole slice in one pass.
    fn encode_slice(items: &[Self], enc: &mut Encoder) {
        for item in items {
            item.encode(enc);
        }
    }

    /// Decode `n` consecutive values — exactly what `n`
    /// [`decode`](Self::decode) calls read, with the same first error.
    /// Fixed-width primitives override it to read one little-endian slice.
    ///
    /// The default reserves `n` slots up front, so callers must first
    /// check `n` against the input, as [`Decoder::take_len`] does.
    ///
    /// # Errors
    /// The first error of a single `decode`.
    fn decode_n(dec: &mut Decoder<'_>, n: usize) -> Result<Vec<Self>, PersistError> {
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(Self::decode(dec)?);
        }
        Ok(out)
    }
}

/// Fixed-width numbers: a slice of them travels as one little-endian run,
/// byte for byte what one `put_*` per value writes.
macro_rules! persist_fixed_width {
    ($($t:ty => ($put:ident, $take:ident)),+ $(,)?) => {$(
        impl Persist for $t {
            const MIN_WIRE_BYTES: usize = std::mem::size_of::<$t>();
            fn encode(&self, enc: &mut Encoder) {
                enc.$put(*self);
            }
            fn decode(dec: &mut Decoder<'_>) -> Result<Self, PersistError> {
                dec.$take()
            }
            fn encode_slice(items: &[Self], enc: &mut Encoder) {
                enc.put_fixed(items, <$t>::to_le_bytes);
            }
            fn decode_n(dec: &mut Decoder<'_>, n: usize) -> Result<Vec<Self>, PersistError> {
                dec.take_fixed(n, <$t>::from_le_bytes)
            }
        }
    )+};
}

persist_fixed_width! {
    u8 => (put_u8, take_u8),
    u16 => (put_u16, take_u16),
    u32 => (put_u32, take_u32),
    u64 => (put_u64, take_u64),
    u128 => (put_u128, take_u128),
    i64 => (put_i64, take_i64),
    f64 => (put_f64, take_f64),
}

/// One byte, 0 or 1; decoded one at a time, so every other byte is
/// `Malformed`.
impl Persist for bool {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_bool(*self);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, PersistError> {
        dec.take_bool()
    }
}

impl<T: Persist> Persist for Vec<T> {
    const MIN_WIRE_BYTES: usize = 8; // the length field

    fn encode(&self, enc: &mut Encoder) {
        enc.put_len(self.len());
        T::encode_slice(self, enc);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, PersistError> {
        // The element wire size caps the pre-allocation at what the
        // remaining input can actually back.
        let n = dec.take_len(T::MIN_WIRE_BYTES)?;
        T::decode_n(dec, n)
    }
}

impl<T: Persist> Persist for Box<[T]> {
    const MIN_WIRE_BYTES: usize = 8; // the length field

    fn encode(&self, enc: &mut Encoder) {
        enc.put_len(self.len());
        T::encode_slice(self, enc);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, PersistError> {
        Ok(Vec::<T>::decode(dec)?.into_boxed_slice())
    }
}

impl<T: Persist> Persist for Option<T> {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            None => enc.put_u8(0),
            Some(v) => {
                enc.put_u8(1);
                v.encode(enc);
            }
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, PersistError> {
        match dec.take_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(dec)?)),
            other => Err(PersistError::Malformed(format!(
                "option tag must be 0 or 1, got {other}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Persist + PartialEq + std::fmt::Debug>(value: T) {
        let mut enc = Encoder::new();
        value.encode(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert_eq!(T::decode(&mut dec).unwrap(), value);
        dec.expect_end().unwrap();
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0u8);
        roundtrip(true);
        roundtrip(u16::MAX);
        roundtrip(123_456u32);
        roundtrip(u64::MAX);
        roundtrip(u128::MAX);
        roundtrip(i64::MIN);
        roundtrip(-1.5f64);
    }

    #[test]
    fn containers_roundtrip() {
        roundtrip::<Vec<u64>>(vec![]);
        roundtrip(vec![1u64, 2, 3]);
        roundtrip(vec![vec![1u16], vec![], vec![2, 3]]);
        roundtrip::<Option<u32>>(None);
        roundtrip(Some(7u32));
        roundtrip(vec![0u16, 9, 2].into_boxed_slice());
    }

    #[test]
    fn vec_with_hostile_length_rejected() {
        let mut enc = Encoder::new();
        enc.put_len(1 << 60);
        let bytes = enc.into_bytes();
        assert!(matches!(
            Vec::<u64>::decode(&mut Decoder::new(&bytes)),
            Err(PersistError::Malformed(_))
        ));
    }

    /// What `Vec<T>` wrote before slices: the length, then one
    /// `encode` per item.
    fn encode_each<T: Persist>(items: &[T]) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.put_len(items.len());
        for item in items {
            item.encode(&mut enc);
        }
        enc.into_bytes()
    }

    /// What `Vec<T>` read before slices: the checked length, then one
    /// `decode` per item. Values come back re-encoded, so `f64` NaNs
    /// compare by their bits.
    fn decode_each<T: Persist>(bytes: &[u8]) -> Result<Vec<u8>, PersistError> {
        let mut dec = Decoder::new(bytes);
        let n = dec.take_len(T::MIN_WIRE_BYTES)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::decode(&mut dec)?);
        }
        dec.expect_end()?;
        Ok(encode_each(&out))
    }

    fn decode_whole<T: Persist>(bytes: &[u8]) -> Result<Vec<u8>, PersistError> {
        let mut dec = Decoder::new(bytes);
        let out = Vec::<T>::decode(&mut dec)?;
        dec.expect_end()?;
        Ok(encode_each(&out))
    }

    /// A fixed-width `T`'s slice codec against the per-item reference:
    /// equal bytes out, and for every truncation, every over-long length
    /// field and every `n` the same value or the same error.
    fn slice_codec_matches_per_item<T: Persist + Copy>(items: &[T]) {
        let bytes = encode_each(items);
        let mut enc = Encoder::new();
        items.to_vec().encode(&mut enc);
        assert_eq!(enc.into_bytes(), bytes, "Vec encode");
        let mut enc = Encoder::new();
        items.to_vec().into_boxed_slice().encode(&mut enc);
        assert_eq!(enc.into_bytes(), bytes, "Box<[T]> encode");

        for cut in 0..=bytes.len() {
            let input = &bytes[..cut];
            assert_eq!(
                decode_whole::<T>(input),
                decode_each::<T>(input),
                "cut {cut}"
            );
            // `decode_n` on its own, past the length field, for every n
            // up to two more than the input holds.
            let body = &input[cut.min(8)..];
            for n in 0..=items.len() + 2 {
                let mut fast = Decoder::new(body);
                let mut slow = Decoder::new(body);
                let fast = T::decode_n(&mut fast, n).map(|v| encode_each(&v));
                let slow = (0..n)
                    .map(|_| T::decode(&mut slow))
                    .collect::<Result<Vec<T>, _>>()
                    .map(|v| encode_each(&v));
                assert_eq!(fast, slow, "cut {cut}, n {n}");
            }
        }
        let declared = [
            items.len() as u64 + 1,
            items.len() as u64 + 1000,
            1 << 40,
            ((usize::MAX / T::MIN_WIRE_BYTES) as u64).saturating_add(1),
            u64::MAX,
        ];
        for n in declared {
            let mut long = bytes.clone();
            long[..8].copy_from_slice(&n.to_le_bytes());
            let got = decode_whole::<T>(&long);
            assert_eq!(got, decode_each::<T>(&long), "declared {n}");
            // The length check rejects it before anything is reserved.
            assert!(
                matches!(got, Err(PersistError::Malformed(_))),
                "declared {n}"
            );
        }
        // An unchecked count no input could back allocates nothing.
        let huge = usize::MAX / T::MIN_WIRE_BYTES;
        assert!(matches!(
            T::decode_n(&mut Decoder::new(&bytes), huge),
            Err(PersistError::Truncated { .. })
        ));
    }

    #[test]
    fn fixed_width_slices_match_the_per_item_codec() {
        slice_codec_matches_per_item(&[0u8, 1, 0x7f, u8::MAX]);
        slice_codec_matches_per_item(&[0u16, 1, 0xbeef, u16::MAX, 7]);
        slice_codec_matches_per_item(&[0u32, 1, 0xdead_beef, u32::MAX]);
        slice_codec_matches_per_item(&[0u64, 1, u64::MAX, 0x0123_4567_89ab_cdef, 3]);
        slice_codec_matches_per_item(&[0u128, u128::MAX, 1 << 100]);
        slice_codec_matches_per_item(&[0i64, -1, i64::MIN, i64::MAX, 42]);
        slice_codec_matches_per_item(&[0.0f64, -0.0, -1.5, f64::NAN, f64::INFINITY, 1e-300]);
        slice_codec_matches_per_item::<u64>(&[]);
    }

    #[test]
    fn bool_vectors_still_reject_a_byte_other_than_0_or_1() {
        let mut enc = Encoder::new();
        vec![false, true, true].encode(&mut enc);
        let mut bytes = enc.into_bytes();
        assert_eq!(decode_whole::<bool>(&bytes), decode_each::<bool>(&bytes));
        bytes[10] = 2;
        assert_eq!(
            Vec::<bool>::decode(&mut Decoder::new(&bytes)),
            Err(PersistError::Malformed(
                "bool byte must be 0 or 1, got 2".into()
            ))
        );
    }

    #[test]
    fn option_with_bad_tag_rejected() {
        assert!(matches!(
            Option::<u64>::decode(&mut Decoder::new(&[7])),
            Err(PersistError::Malformed(_))
        ));
    }
}
