//! The file frame: magic, version, record kind, payload length, CRC-32.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"PFES"
//! 4       2     format version (currently 1)
//! 6       2     record kind (caller-chosen tag, checked on read)
//! 8       8     payload length in bytes
//! 16      len   payload
//! 16+len  4     CRC-32 over bytes [0, 16+len)
//! ```
//!
//! The CRC covers the header too, so version/kind/length corruption is
//! caught even when the payload happens to survive. Reads are fully
//! defensive: every failure is a typed [`PersistError`], never a panic.

use std::path::Path;

use crate::codec::{Decoder, Encoder};
use crate::crc32::crc32;
use crate::error::PersistError;
use crate::Persist;

/// The four magic bytes opening every pfe-persist file.
pub const MAGIC: [u8; 4] = *b"PFES";

/// The format version this build writes and reads.
pub const VERSION: u16 = 1;

/// Frame header length (magic + version + kind + payload length).
const HEADER_LEN: usize = 16;

/// Well-known record kinds. Kinds partition the namespace of frame
/// contents so a file of one type handed to another type's loader fails
/// with [`PersistError::WrongKind`] instead of a confusing `Malformed`.
pub mod kind {
    /// A merged engine snapshot (`pfe-engine`'s `Snapshot`).
    pub const SNAPSHOT: u16 = 1;
    // 2 stays unassigned: it was reserved for a `SummarySuite` file that
    // nothing ever wrote.
    /// A standalone sketch or summary (tests, tooling).
    pub const SKETCH: u16 = 3;
    /// A sliding-window bucket ring (`pfe-window`'s `BucketRing`).
    pub const WINDOW: u16 = 4;
}

/// Validate a framed byte vector and return its payload.
///
/// # Errors
/// `BadMagic`, `UnsupportedVersion`, `WrongKind`, `Truncated`, or
/// `ChecksumMismatch` — each naming exactly what disagreed.
pub fn unframe(bytes: &[u8], expected_kind: u16) -> Result<&[u8], PersistError> {
    let mut d = Decoder::new(bytes);
    let magic: [u8; 4] = d
        .take_bytes(4)?
        .try_into()
        .expect("take_bytes returned 4 bytes");
    if magic != MAGIC {
        return Err(PersistError::BadMagic { found: magic });
    }
    let version = d.take_u16()?;
    if version != VERSION {
        return Err(PersistError::UnsupportedVersion {
            found: version,
            supported: VERSION,
        });
    }
    let found_kind = d.take_u16()?;
    if found_kind != expected_kind {
        return Err(PersistError::WrongKind {
            found: found_kind,
            expected: expected_kind,
        });
    }
    let len = d.take_u64()?;
    let len: usize = len
        .try_into()
        .map_err(|_| PersistError::Malformed(format!("payload length {len} exceeds usize")))?;
    let payload = d.take_bytes(len)?;
    let stored = d.take_u32()?;
    d.expect_end()?;
    let computed = crc32(&bytes[..HEADER_LEN + len]);
    if stored != computed {
        return Err(PersistError::ChecksumMismatch { stored, computed });
    }
    Ok(payload)
}

/// Encode `value` into a complete framed byte vector.
///
/// The header is reserved up front and patched in place, so the payload
/// is produced directly into the output buffer — no second copy on the
/// checkpoint hot path.
pub fn to_bytes<T: Persist>(record_kind: u16, value: &T) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.put_bytes(&[0u8; HEADER_LEN]);
    value.encode(&mut enc);
    let mut out = enc.into_bytes();
    let payload_len = (out.len() - HEADER_LEN) as u64;
    out[0..4].copy_from_slice(&MAGIC);
    out[4..6].copy_from_slice(&VERSION.to_le_bytes());
    out[6..8].copy_from_slice(&record_kind.to_le_bytes());
    out[8..16].copy_from_slice(&payload_len.to_le_bytes());
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Decode a `T` from a framed byte vector, requiring the payload to be
/// fully consumed.
///
/// # Errors
/// Frame errors (see [`unframe`]) plus any decode error of `T`.
pub fn from_bytes<T: Persist>(record_kind: u16, bytes: &[u8]) -> Result<T, PersistError> {
    let payload = unframe(bytes, record_kind)?;
    let mut dec = Decoder::new(payload);
    let value = T::decode(&mut dec)?;
    dec.expect_end()?;
    Ok(value)
}

/// Write `value` to `path` as a framed file, atomically: the bytes go to
/// a temporary sibling file which is fsynced and then renamed over the
/// target, so a crash mid-write can never destroy a previous good file
/// at `path` — the checkpoint either fully replaces it or leaves it
/// untouched.
///
/// # Errors
/// I/O errors, stringified into [`PersistError::Io`].
pub fn save<T: Persist, P: AsRef<Path>>(
    path: P,
    record_kind: u16,
    value: &T,
) -> Result<(), PersistError> {
    use std::io::Write;
    use std::sync::atomic::{AtomicU64, Ordering};
    // Unique per process *and* per call: two threads or two processes
    // checkpointing to one path must not interleave writes in a shared
    // temporary file (each rename then stays all-or-nothing).
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let path = path.as_ref();
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(
        ".{}.{}.tmp",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let tmp = std::path::PathBuf::from(tmp);
    let result = (|| {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(&to_bytes(record_kind, value))?;
        file.sync_all()?;
        drop(file);
        std::fs::rename(&tmp, path)
    })();
    if result.is_err() {
        std::fs::remove_file(&tmp).ok();
    }
    result?;
    Ok(())
}

/// Read a framed file from `path` and decode a `T`.
///
/// # Errors
/// I/O errors plus every decode error of [`from_bytes`].
pub fn load<T: Persist, P: AsRef<Path>>(path: P, record_kind: u16) -> Result<T, PersistError> {
    let bytes = std::fs::read(path)?;
    from_bytes(record_kind, &bytes)
}

/// Read just the record kind from a framed file without loading the
/// payload — the first 8 header bytes (magic, version, kind) are enough.
/// This lets tooling dispatch on file type (engine snapshot vs window
/// ring) before committing to a full decode; the CRC is *not* checked
/// here, so the subsequent kind-specific `load` remains the integrity
/// gate.
///
/// # Errors
/// `Io`, `Truncated`, `BadMagic`, or `UnsupportedVersion`.
pub fn peek_kind<P: AsRef<Path>>(path: P) -> Result<u16, PersistError> {
    use std::io::Read;
    let mut file = std::fs::File::open(path)?;
    let mut header = [0u8; 8];
    let mut got = 0;
    while got < header.len() {
        let n = file.read(&mut header[got..])?;
        if n == 0 {
            return Err(PersistError::Truncated {
                needed: header.len(),
                available: got,
            });
        }
        got += n;
    }
    let magic: [u8; 4] = header[0..4].try_into().expect("slice of 4");
    if magic != MAGIC {
        return Err(PersistError::BadMagic { found: magic });
    }
    let version = u16::from_le_bytes(header[4..6].try_into().expect("slice of 2"));
    if version != VERSION {
        return Err(PersistError::UnsupportedVersion {
            found: version,
            supported: VERSION,
        });
    }
    Ok(u16::from_le_bytes(
        header[6..8].try_into().expect("slice of 2"),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Wrap a raw `payload` in a frame, field by field as the module doc
    /// lays it out — independent of [`to_bytes`]' patch-in-place encoder.
    fn frame(record_kind: u16, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + 4);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&record_kind.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(payload);
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    #[test]
    fn frame_roundtrip() {
        let payload = b"hello, summaries";
        let framed = frame(kind::SKETCH, payload);
        assert_eq!(unframe(&framed, kind::SKETCH).unwrap(), payload);
    }

    #[test]
    fn wrong_kind_is_typed() {
        let framed = frame(kind::SKETCH, b"x");
        assert_eq!(
            unframe(&framed, kind::SNAPSHOT),
            Err(PersistError::WrongKind {
                found: kind::SKETCH,
                expected: kind::SNAPSHOT
            })
        );
    }

    #[test]
    fn bad_magic_and_version() {
        let mut framed = frame(kind::SKETCH, b"x");
        framed[0] = b'Q';
        assert!(matches!(
            unframe(&framed, kind::SKETCH),
            Err(PersistError::BadMagic { .. })
        ));
        let mut framed = frame(kind::SKETCH, b"x");
        framed[4] = 99; // version low byte
        assert_eq!(
            unframe(&framed, kind::SKETCH),
            Err(PersistError::UnsupportedVersion {
                found: 99,
                supported: VERSION
            })
        );
    }

    #[test]
    fn every_single_bit_flip_detected() {
        let framed = frame(kind::SKETCH, b"some payload worth protecting");
        for byte in 0..framed.len() {
            for bit in 0..8 {
                let mut corrupt = framed.clone();
                corrupt[byte] ^= 1 << bit;
                assert!(
                    unframe(&corrupt, kind::SKETCH).is_err(),
                    "flip at byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn every_truncation_detected() {
        let framed = frame(kind::SKETCH, b"payload");
        for cut in 0..framed.len() {
            assert!(
                unframe(&framed[..cut], kind::SKETCH).is_err(),
                "truncation to {cut} bytes went undetected"
            );
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut framed = frame(kind::SKETCH, b"x");
        framed.push(0);
        assert!(matches!(
            unframe(&framed, kind::SKETCH),
            Err(PersistError::Malformed(_))
        ));
    }

    #[test]
    fn to_bytes_matches_frame_of_payload() {
        let value = vec![1u64, 2, 3];
        let mut enc = Encoder::new();
        value.encode(&mut enc);
        assert_eq!(
            to_bytes(kind::SKETCH, &value),
            frame(kind::SKETCH, &enc.into_bytes()),
            "in-place header patching must produce the canonical frame"
        );
    }

    #[test]
    fn peek_kind_reads_header_only() {
        let dir = std::env::temp_dir().join("pfe-persist-peek-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("peek.pfes");
        save(&path, kind::WINDOW, &7u64).unwrap();
        assert_eq!(peek_kind(&path).unwrap(), kind::WINDOW);
        // Bad magic, bad version, and short files are typed errors.
        let framed = frame(kind::SNAPSHOT, b"x");
        let mut bad = framed.clone();
        bad[0] = b'Q';
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(
            peek_kind(&path),
            Err(PersistError::BadMagic { .. })
        ));
        let mut bad = framed.clone();
        bad[4] = 9;
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(
            peek_kind(&path),
            Err(PersistError::UnsupportedVersion { found: 9, .. })
        ));
        std::fs::write(&path, &framed[..5]).unwrap();
        assert!(matches!(
            peek_kind(&path),
            Err(PersistError::Truncated { .. })
        ));
        assert!(matches!(
            peek_kind(dir.join("absent.pfes")),
            Err(PersistError::Io(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn save_load_roundtrip_via_path() {
        let dir = std::env::temp_dir().join("pfe-persist-frame-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("value.pfes");
        save(&path, kind::SKETCH, &0xdead_beefu64).unwrap();
        let back: u64 = load(&path, kind::SKETCH).unwrap();
        assert_eq!(back, 0xdead_beef);
        // Atomic write: no temporary sibling left behind, and re-saving
        // over an existing file works.
        let leftovers = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .count();
        assert_eq!(leftovers, 0, "temporary file left behind");
        save(&path, kind::SKETCH, &1u64).unwrap();
        assert_eq!(load::<u64, _>(&path, kind::SKETCH).unwrap(), 1);
        let missing: Result<u64, _> = load(dir.join("absent.pfes"), kind::SKETCH);
        assert!(matches!(missing, Err(PersistError::Io(_))));
        std::fs::remove_file(&path).ok();
    }
}
