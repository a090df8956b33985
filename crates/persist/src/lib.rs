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
//!    `Vec`, `Option`, and boxed slices provided here;
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
}

macro_rules! persist_primitive {
    ($($t:ty => ($put:ident, $take:ident, $width:literal)),+ $(,)?) => {$(
        impl Persist for $t {
            const MIN_WIRE_BYTES: usize = $width;
            fn encode(&self, enc: &mut Encoder) {
                enc.$put(*self);
            }
            fn decode(dec: &mut Decoder<'_>) -> Result<Self, PersistError> {
                dec.$take()
            }
        }
    )+};
}

persist_primitive! {
    u8 => (put_u8, take_u8, 1),
    bool => (put_bool, take_bool, 1),
    u16 => (put_u16, take_u16, 2),
    u32 => (put_u32, take_u32, 4),
    u64 => (put_u64, take_u64, 8),
    u128 => (put_u128, take_u128, 16),
    i64 => (put_i64, take_i64, 8),
    f64 => (put_f64, take_f64, 8),
}

impl<T: Persist> Persist for Vec<T> {
    const MIN_WIRE_BYTES: usize = 8; // the length field

    fn encode(&self, enc: &mut Encoder) {
        enc.put_len(self.len());
        for item in self {
            item.encode(enc);
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, PersistError> {
        // The element wire size caps the pre-allocation at what the
        // remaining input can actually back.
        let n = dec.take_len(T::MIN_WIRE_BYTES)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::decode(dec)?);
        }
        Ok(out)
    }
}

impl<T: Persist> Persist for Box<[T]> {
    const MIN_WIRE_BYTES: usize = 8; // the length field

    fn encode(&self, enc: &mut Encoder) {
        enc.put_len(self.len());
        for item in self.iter() {
            item.encode(enc);
        }
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

    #[test]
    fn option_with_bad_tag_rejected() {
        assert!(matches!(
            Option::<u64>::decode(&mut Decoder::new(&[7])),
            Err(PersistError::Malformed(_))
        ));
    }
}
