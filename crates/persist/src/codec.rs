//! The byte-level encoder/decoder pair.
//!
//! All integers are fixed-width little-endian; `f64` travels as its IEEE
//! bit pattern (bit-exact round trips, NaN included); lengths are `u64`
//! validated against the bytes actually remaining, so a corrupted length
//! field cannot trigger a huge allocation or a panic.

use crate::error::PersistError;

/// Append-only byte sink used by [`Persist::encode`](crate::Persist::encode).
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Fresh, empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consume the encoder, returning the accumulated bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `bool` as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Append a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u128`.
    pub fn put_u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `i64`.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` as its IEEE-754 bit pattern (bit-exact round trip).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append a collection length as `u64`.
    pub fn put_len(&mut self, n: usize) {
        self.put_u64(n as u64);
    }

    /// Append raw bytes (no length prefix; pair with [`put_len`](Self::put_len)).
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }
}

/// Bounds-checked reader over an untrusted byte slice.
///
/// Every `take_*` returns a typed error instead of panicking; lengths are
/// validated against the remaining input before any allocation.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Take `n` raw bytes.
    ///
    /// # Errors
    /// `Truncated` if fewer than `n` bytes remain.
    pub fn take_bytes(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        if self.remaining() < n {
            return Err(PersistError::Truncated {
                needed: n,
                available: self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], PersistError> {
        Ok(self
            .take_bytes(N)?
            .try_into()
            .expect("take_bytes returned N bytes"))
    }

    /// Take one byte.
    ///
    /// # Errors
    /// `Truncated` at end of input.
    pub fn take_u8(&mut self) -> Result<u8, PersistError> {
        Ok(self.take_array::<1>()?[0])
    }

    /// Take a `bool` (one byte; anything but 0/1 is `Malformed`).
    ///
    /// # Errors
    /// `Truncated` or `Malformed`.
    pub fn take_bool(&mut self) -> Result<bool, PersistError> {
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(PersistError::Malformed(format!(
                "bool byte must be 0 or 1, got {other}"
            ))),
        }
    }

    /// Take a little-endian `u16`.
    ///
    /// # Errors
    /// `Truncated`.
    pub fn take_u16(&mut self) -> Result<u16, PersistError> {
        Ok(u16::from_le_bytes(self.take_array()?))
    }

    /// Take a little-endian `u32`.
    ///
    /// # Errors
    /// `Truncated`.
    pub fn take_u32(&mut self) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(self.take_array()?))
    }

    /// Take a little-endian `u64`.
    ///
    /// # Errors
    /// `Truncated`.
    pub fn take_u64(&mut self) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(self.take_array()?))
    }

    /// Take a little-endian `u128`.
    ///
    /// # Errors
    /// `Truncated`.
    pub fn take_u128(&mut self) -> Result<u128, PersistError> {
        Ok(u128::from_le_bytes(self.take_array()?))
    }

    /// Take a little-endian `i64`.
    ///
    /// # Errors
    /// `Truncated`.
    pub fn take_i64(&mut self) -> Result<i64, PersistError> {
        Ok(i64::from_le_bytes(self.take_array()?))
    }

    /// Take an `f64` from its IEEE bit pattern.
    ///
    /// # Errors
    /// `Truncated`.
    pub fn take_f64(&mut self) -> Result<f64, PersistError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Take a collection length written by [`Encoder::put_len`], validated
    /// so that `n` elements of at least `min_elem_bytes` each could
    /// actually still be present. This is the defence against corrupted
    /// length fields: `Vec::with_capacity` is only ever called with a
    /// value the input can back.
    ///
    /// # Errors
    /// `Truncated` if the length field itself is missing, `Malformed` if
    /// the declared length cannot fit in the remaining input (or in
    /// `usize`).
    pub fn take_len(&mut self, min_elem_bytes: usize) -> Result<usize, PersistError> {
        let n = self.take_u64()?;
        let n: usize = n
            .try_into()
            .map_err(|_| PersistError::Malformed(format!("length {n} exceeds usize")))?;
        let needed = n
            .checked_mul(min_elem_bytes.max(1))
            .ok_or_else(|| PersistError::Malformed(format!("length {n} overflows byte budget")))?;
        if needed > self.remaining() {
            return Err(PersistError::Malformed(format!(
                "declared length {n} needs {needed} byte(s) but only {} remain",
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// Assert that the input was fully consumed (frame payloads must not
    /// carry trailing garbage).
    ///
    /// # Errors
    /// `Malformed` if bytes remain.
    pub fn expect_end(&self) -> Result<(), PersistError> {
        if self.remaining() != 0 {
            return Err(PersistError::Malformed(format!(
                "{} trailing byte(s) after the last field",
                self.remaining()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_primitives() {
        let mut e = Encoder::new();
        e.put_u8(7);
        e.put_bool(true);
        e.put_u16(65_000);
        e.put_u32(4_000_000_000);
        e.put_u64(u64::MAX - 1);
        e.put_u128(u128::MAX / 3);
        e.put_i64(-42);
        e.put_f64(-0.1);
        e.put_f64(f64::NAN);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.take_u8().unwrap(), 7);
        assert!(d.take_bool().unwrap());
        assert_eq!(d.take_u16().unwrap(), 65_000);
        assert_eq!(d.take_u32().unwrap(), 4_000_000_000);
        assert_eq!(d.take_u64().unwrap(), u64::MAX - 1);
        assert_eq!(d.take_u128().unwrap(), u128::MAX / 3);
        assert_eq!(d.take_i64().unwrap(), -42);
        assert_eq!(d.take_f64().unwrap().to_bits(), (-0.1f64).to_bits());
        assert!(d.take_f64().unwrap().is_nan());
        d.expect_end().unwrap();
    }

    #[test]
    fn truncation_is_typed() {
        let mut e = Encoder::new();
        e.put_u32(5);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes[..2]);
        assert_eq!(
            d.take_u32(),
            Err(PersistError::Truncated {
                needed: 4,
                available: 2
            })
        );
    }

    #[test]
    fn hostile_length_rejected_before_allocation() {
        let mut e = Encoder::new();
        e.put_len(usize::MAX); // claims ~2^64 elements, provides none
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert!(matches!(d.take_len(8), Err(PersistError::Malformed(_))));
    }

    #[test]
    fn length_within_input_accepted() {
        let mut e = Encoder::new();
        e.put_len(3);
        for v in [1u64, 2, 3] {
            e.put_u64(v);
        }
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.take_len(8).unwrap(), 3);
    }

    #[test]
    fn bad_bool_and_trailing_bytes_rejected() {
        let mut d = Decoder::new(&[2u8]);
        assert!(matches!(d.take_bool(), Err(PersistError::Malformed(_))));
        let d = Decoder::new(&[0u8]);
        assert!(matches!(d.expect_end(), Err(PersistError::Malformed(_))));
    }
}
