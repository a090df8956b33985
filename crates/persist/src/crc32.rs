//! CRC-32 (IEEE 802.3 polynomial, reflected), table-driven, 16 bytes a
//! step.
//!
//! The frame layer stores a CRC over every byte it writes so that
//! bit-flips, truncations that happen to preserve the declared length, and
//! partial writes are all detected before a payload reaches a decoder.
//!
//! The checksum is CRC-32/ISO-HDLC — the one zlib, gzip, zip and PNG
//! store. It is computed by slicing-by-16: `TABLES[k][b]` is the CRC
//! contribution of byte `b` followed by `k` zero bytes, so the sixteen
//! lookups of one block are independent of each other and only the final
//! XOR waits on the previous block. The byte-at-a-time loop does one
//! dependent lookup per byte; this does one dependent step per 16.

/// Reflected IEEE polynomial.
const POLY: u32 = 0xedb8_8320;

/// Bytes consumed per step of the main loop.
const STEP: usize = 16;

/// `TABLES[0]` is the classic 256-entry byte table; `TABLES[k][b]` is the
/// CRC register after byte `b` and then `k` zero bytes enter it, all
/// built at compile time.
const TABLES: [[u32; 256]; STEP] = {
    let mut tables = [[0u32; 256]; STEP];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < STEP {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 of `bytes` (IEEE, as used by gzip/zip/PNG).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    let mut blocks = bytes.chunks_exact(STEP);
    for block in &mut blocks {
        let mut x: [u8; STEP] = block.try_into().expect("chunks_exact yields STEP bytes");
        for (b, c) in x.iter_mut().zip(crc.to_le_bytes()) {
            *b ^= c;
        }
        // Byte j of the block still has STEP - 1 - j bytes to pass
        // through the register after it.
        crc = x
            .iter()
            .enumerate()
            .fold(0, |acc, (j, &b)| acc ^ TABLES[STEP - 1 - j][b as usize]);
    }
    for &b in blocks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xff) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The plain byte-at-a-time loop, one dependent table lookup per
    /// byte: the reference the 16-byte kernel is checked against.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xff) as usize];
        }
        !crc
    }

    #[test]
    fn known_vectors() {
        // The canonical check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xe8b7_be43);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414f_a339
        );
    }

    #[test]
    fn sensitive_to_single_bit() {
        let a = crc32(&[0u8; 64]);
        let mut flipped = [0u8; 64];
        flipped[40] ^= 1;
        assert_ne!(a, crc32(&flipped));
    }

    #[test]
    fn sixteen_byte_kernel_matches_the_byte_loop_at_every_length_and_offset() {
        // A seeded buffer (splitmix64): every split into 16-byte blocks
        // and a tail, at every start offset within a block.
        let mut state = 0x5eed_c3c3_u64;
        let buf: Vec<u8> = (0..300 + STEP)
            .map(|_| {
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                (z ^ (z >> 31)) as u8
            })
            .collect();
        for start in 0..STEP {
            for len in 0..=300 {
                let bytes = &buf[start..start + len];
                assert_eq!(
                    crc32(bytes),
                    crc32_bytewise(bytes),
                    "start {start}, length {len}"
                );
            }
        }
    }
}
