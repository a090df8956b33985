//! The per-line row parser: bytes → packed `u64` or dense `u16` symbols.
//!
//! This is the ingest hot path, so it works directly on byte slices —
//! no UTF-8 validation, no `String` splitting, no per-row allocation.
//! Fields are ASCII decimal integers, optionally wrapped in RFC-4180
//! double quotes (`"7"`); a doubled quote inside a quoted field is the
//! RFC escape, which can never be part of a valid integer and is
//! therefore reported as a typed quote/digit error rather than silently
//! decoded.
//! Trailing `\r` is stripped, so CRLF input parses identically to LF.
//!
//! Every rejection is a typed [`IngestError::Parse`] carrying the
//! 1-based line and field numbers; the dense entry point rolls back its
//! output buffer on failure so a caller skipping rejected rows never
//! sees a half-written row.

use crate::error::{IngestError, ParseErrorKind};
use crate::schema::Schema;

/// A compiled per-line parser for one schema + delimiter.
#[derive(Debug, Clone)]
pub struct RowParser {
    d: u32,
    q: u32,
    delim: u8,
}

fn parse_err(line: u64, column: u32, kind: ParseErrorKind, detail: String) -> IngestError {
    IngestError::Parse {
        line,
        column,
        kind,
        detail,
    }
}

/// Strip one trailing carriage return (CRLF input).
fn strip_cr(line: &[u8]) -> &[u8] {
    match line {
        [rest @ .., b'\r'] => rest,
        _ => line,
    }
}

fn bad_byte(line: u64, column: u32, b: u8) -> IngestError {
    if b >= 0x80 {
        parse_err(
            line,
            column,
            ParseErrorKind::Utf8,
            format!("non-ASCII byte {b:#04x}"),
        )
    } else {
        parse_err(
            line,
            column,
            ParseErrorKind::BadDigit,
            format!("byte {:?}", b as char),
        )
    }
}

impl RowParser {
    /// A parser for `schema`'s shape with the given field delimiter.
    pub fn new(schema: &Schema, delim: u8) -> Self {
        Self {
            d: schema.dimension(),
            q: schema.alphabet,
            delim,
        }
    }

    /// Parse one field starting at byte `i`. Returns
    /// `(value, next index, reached end of line)`.
    #[inline]
    fn field(
        &self,
        line: &[u8],
        mut i: usize,
        lineno: u64,
        column: u32,
    ) -> Result<(u32, usize, bool), IngestError> {
        let n = line.len();
        let mut val: u32 = 0;
        let mut digits = 0usize;
        let quoted = i < n && line[i] == b'"';
        if quoted {
            i += 1;
            loop {
                if i >= n {
                    return Err(parse_err(
                        lineno,
                        column,
                        ParseErrorKind::Quote,
                        "unclosed quote at end of line".into(),
                    ));
                }
                let b = line[i];
                if b == b'"' {
                    i += 1;
                    break;
                }
                self.digit(b, &mut val, &mut digits, lineno, column)?;
                i += 1;
            }
            if i < n {
                if line[i] != self.delim {
                    return Err(parse_err(
                        lineno,
                        column,
                        ParseErrorKind::Quote,
                        format!("byte {:?} after closing quote", line[i] as char),
                    ));
                }
                i += 1;
            }
        } else {
            while i < n {
                let b = line[i];
                if b == self.delim {
                    i += 1;
                    break;
                }
                self.digit(b, &mut val, &mut digits, lineno, column)?;
                i += 1;
            }
        }
        if digits == 0 {
            return Err(parse_err(
                lineno,
                column,
                ParseErrorKind::BadDigit,
                "empty field".into(),
            ));
        }
        if val >= self.q {
            return Err(parse_err(
                lineno,
                column,
                ParseErrorKind::OutOfRange,
                format!("value {val} outside alphabet Q={}", self.q),
            ));
        }
        Ok((val, i, i >= n))
    }

    #[inline]
    fn digit(
        &self,
        b: u8,
        val: &mut u32,
        digits: &mut usize,
        lineno: u64,
        column: u32,
    ) -> Result<(), IngestError> {
        if !b.is_ascii_digit() {
            return Err(bad_byte(lineno, column, b));
        }
        *val = *val * 10 + (b - b'0') as u32;
        *digits += 1;
        // Cap before u32 overflow; Q ≤ 65536 so anything past the u16
        // range is out of the alphabet no matter what follows.
        if *val > u16::MAX as u32 {
            return Err(parse_err(
                lineno,
                column,
                ParseErrorKind::OutOfRange,
                format!("value exceeds the u16 symbol range (Q={})", self.q),
            ));
        }
        Ok(())
    }

    /// Shared walk for both row shapes: calls `emit(column, value)` for
    /// each of exactly `d` fields or fails with provenance.
    #[inline]
    fn walk(
        &self,
        line: &[u8],
        lineno: u64,
        mut emit: impl FnMut(u32, u32),
    ) -> Result<(), IngestError> {
        let line = strip_cr(line);
        if line.is_empty() {
            return Err(parse_err(
                lineno,
                0,
                ParseErrorKind::Ragged,
                format!("blank line (expected {} field(s))", self.d),
            ));
        }
        let mut i = 0usize;
        let mut column = 0u32;
        loop {
            let (val, next, done) = self.field(line, i, lineno, column + 1)?;
            column += 1;
            if column > self.d {
                return Err(parse_err(
                    lineno,
                    column,
                    ParseErrorKind::Ragged,
                    format!("more than {} field(s)", self.d),
                ));
            }
            emit(column - 1, val);
            i = next;
            if done {
                break;
            }
        }
        if column != self.d {
            return Err(parse_err(
                lineno,
                column,
                ParseErrorKind::Ragged,
                format!("{} field(s), expected {}", column, self.d),
            ));
        }
        Ok(())
    }

    /// Parse one line (without its terminating `\n`) into a packed
    /// binary row. Only valid for packed schemas (`Q = 2`, `d ≤ 63`).
    pub fn parse_packed(&self, line: &[u8], lineno: u64) -> Result<u64, IngestError> {
        debug_assert!(self.q == 2 && self.d <= 63, "packed parse needs Q=2, d<=63");
        let mut row = 0u64;
        self.walk(line, lineno, |col, val| row |= (val as u64) << col)?;
        Ok(row)
    }

    /// Parse one line into `out`, appending exactly `d` symbols on
    /// success and appending nothing on failure.
    pub fn parse_dense_into(
        &self,
        line: &[u8],
        lineno: u64,
        out: &mut Vec<u16>,
    ) -> Result<(), IngestError> {
        let mark = out.len();
        let result = self.walk(line, lineno, |_, val| out.push(val as u16));
        if result.is_err() {
            out.truncate(mark);
        }
        result
    }
}

/// Quote-aware field split used off the hot path (header parsing,
/// dimension discovery on the first headerless row). Doubled quotes
/// inside a quoted field decode to one literal quote, per RFC 4180.
pub(crate) fn split_fields(
    line: &[u8],
    delim: u8,
    lineno: u64,
) -> Result<Vec<Vec<u8>>, IngestError> {
    let line = strip_cr(line);
    let mut fields = Vec::new();
    let mut cur = Vec::new();
    let mut i = 0usize;
    let n = line.len();
    while i < n {
        if line[i] == b'"' {
            // Quoted section: scan to the closing quote.
            i += 1;
            loop {
                if i >= n {
                    return Err(parse_err(
                        lineno,
                        fields.len() as u32 + 1,
                        ParseErrorKind::Quote,
                        "unclosed quote at end of line".into(),
                    ));
                }
                if line[i] == b'"' {
                    if i + 1 < n && line[i + 1] == b'"' {
                        cur.push(b'"');
                        i += 2;
                        continue;
                    }
                    i += 1;
                    break;
                }
                cur.push(line[i]);
                i += 1;
            }
        } else if line[i] == delim {
            fields.push(std::mem::take(&mut cur));
            i += 1;
        } else {
            cur.push(line[i]);
            i += 1;
        }
    }
    fields.push(cur);
    Ok(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parser(d: u32, q: u32) -> RowParser {
        RowParser::new(&Schema::synthetic(d, q), b',')
    }

    fn kind_of(e: IngestError) -> (u64, u32, ParseErrorKind) {
        match e {
            IngestError::Parse {
                line, column, kind, ..
            } => (line, column, kind),
            other => panic!("expected parse error, got {other}"),
        }
    }

    #[test]
    fn packed_happy_paths() {
        let p = parser(4, 2);
        assert_eq!(p.parse_packed(b"1,0,1,1", 1).unwrap(), 0b1101);
        assert_eq!(p.parse_packed(b"0,0,0,0", 1).unwrap(), 0);
        // CRLF and quoted fields.
        assert_eq!(p.parse_packed(b"1,0,1,1\r", 1).unwrap(), 0b1101);
        assert_eq!(p.parse_packed(b"\"1\",0,\"1\",1", 1).unwrap(), 0b1101);
    }

    #[test]
    fn dense_happy_paths_and_rollback() {
        let p = parser(3, 10);
        let mut out = vec![9u16];
        p.parse_dense_into(b"0,5,9", 1, &mut out).unwrap();
        assert_eq!(out, vec![9, 0, 5, 9]);
        // A failed parse appends nothing.
        assert!(p.parse_dense_into(b"0,5", 2, &mut out).is_err());
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn provenance_is_precise() {
        let p = parser(3, 2);
        assert_eq!(
            kind_of(p.parse_packed(b"1,x,1", 7).unwrap_err()),
            (7, 2, ParseErrorKind::BadDigit)
        );
        assert_eq!(
            kind_of(p.parse_packed(b"1,1", 3).unwrap_err()),
            (3, 2, ParseErrorKind::Ragged)
        );
        assert_eq!(
            kind_of(p.parse_packed(b"1,1,1,0", 3).unwrap_err()),
            (3, 4, ParseErrorKind::Ragged)
        );
        assert_eq!(
            kind_of(p.parse_packed(b"1,1,7", 4).unwrap_err()),
            (4, 3, ParseErrorKind::OutOfRange)
        );
        assert_eq!(
            kind_of(p.parse_packed(b"", 9).unwrap_err()),
            (9, 0, ParseErrorKind::Ragged)
        );
        // Inside quotes the comma is data, and integer fields have no
        // comma data — the non-digit fires before unclosedness can.
        assert_eq!(
            kind_of(p.parse_packed(b"1,\"1,1", 2).unwrap_err()),
            (2, 2, ParseErrorKind::BadDigit)
        );
        assert_eq!(
            kind_of(p.parse_packed(b"1,\"1", 2).unwrap_err()),
            (2, 2, ParseErrorKind::Quote)
        );
        assert_eq!(
            kind_of(p.parse_packed(b"1,\"1\"x,1", 2).unwrap_err()),
            (2, 2, ParseErrorKind::Quote)
        );
        assert_eq!(
            kind_of(p.parse_packed(b"1,,1", 5).unwrap_err()),
            (5, 2, ParseErrorKind::BadDigit)
        );
        assert_eq!(
            kind_of(p.parse_packed(b"1,1,\xc3\xa9", 6).unwrap_err()),
            (6, 3, ParseErrorKind::Utf8)
        );
        // Doubled quote inside a quoted numeric field: the first quote
        // closes the field, the second is stray — a quote error.
        assert_eq!(
            kind_of(p.parse_packed(b"\"1\"\"\",1,1", 8).unwrap_err()),
            (8, 1, ParseErrorKind::Quote)
        );
    }

    #[test]
    fn dense_range_cap_is_u16() {
        let p = parser(1, 65_536);
        let mut out = Vec::new();
        p.parse_dense_into(b"65535", 1, &mut out).unwrap();
        assert_eq!(out, vec![65_535]);
        assert_eq!(
            kind_of(p.parse_dense_into(b"65536", 2, &mut out).unwrap_err()).2,
            ParseErrorKind::OutOfRange
        );
        // A huge digit string fails fast instead of overflowing.
        assert_eq!(
            kind_of(
                p.parse_dense_into(b"99999999999999999999", 3, &mut out)
                    .unwrap_err()
            )
            .2,
            ParseErrorKind::OutOfRange
        );
    }

    #[test]
    fn split_fields_handles_quotes() {
        assert_eq!(
            split_fields(b"a,\"b,c\",\"d\"\"e\"", b',', 1).unwrap(),
            vec![b"a".to_vec(), b"b,c".to_vec(), b"d\"e".to_vec()]
        );
        assert_eq!(
            split_fields(b"x\ty\r", b'\t', 1).unwrap(),
            vec![b"x".to_vec(), b"y".to_vec()]
        );
        assert_eq!(split_fields(b"", b',', 1).unwrap(), vec![Vec::<u8>::new()]);
        assert!(split_fields(b"\"open", b',', 1).is_err());
    }
}
