//! The row parser: bytes → packed `u64` or dense `u16` symbols.
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
//! A line takes one of two paths. A *regular* line — exactly `d`
//! unquoted one-digit fields, each below `Q`, joined by the delimiter
//! and ended by `'\n'`, so `2d` bytes — is checked and decoded eight
//! bytes at a time by `RowParser::take_packed` / `take_dense`,
//! which the reader hands the rest of its buffer at each line start: each
//! word is XORed with a regular line's (`'0'` and the delimiter in turn,
//! `'\n'` last), which leaves every 16-bit lane its field's symbol, or
//! a value at or above `min(Q, 10)` where any byte is off. Every other
//! line — quotes, CRLF, multi-digit values, blank or ragged lines, any
//! bad byte, an unterminated last line — goes through the byte walk
//! (`walk` → `field` → `digit`). The fast path never reports an error:
//! on the first word out of shape it declines the line, and the walk
//! parses it. So every accepted row equals the walk's, and every error,
//! with its line and column, comes from the one place that finds it
//! byte by byte.
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
    /// The regular line's shape; `None` for a schema without columns, and
    /// when the delimiter is a digit or `'\n'`, where a regular-looking
    /// line is not what the walk reads.
    regular: Option<Regular>,
}

/// The top bit of each 16-bit lane.
const LANE_TOPS: u64 = 0x8000_8000_8000_8000;
/// Multiplying four 0/1 lanes by this puts lane `i` at bit `45 + i`.
const GATHER: u64 = 1 | 1 << 15 | 1 << 30 | 1 << 45;

/// A regular line of one schema, as the eight-byte words it XORs with.
#[derive(Debug, Clone)]
struct Regular {
    /// Bytes in a regular line, its `'\n'` included: `2d`.
    len: usize,
    /// A word inside the line: `'0'` in each even byte, the delimiter in
    /// each odd one.
    body: u64,
    /// The line's last word (its last 2, 4, 6 or 8 bytes): `body` with
    /// `'\n'` in its last byte and zeros above.
    last: u64,
    /// `0x8000 - min(Q, 10)` in each lane: adding it sets a lane's top
    /// bit when the lane is `min(Q, 10)` or more.
    limit: u64,
}

impl Regular {
    fn new(d: u32, q: u32, delim: u8) -> Self {
        let len = 2 * d as usize;
        let body = u64::from_le_bytes([b'0', delim].repeat(4).try_into().expect("eight bytes"));
        let last_len = len - 8 * ((len - 1) / 8);
        let last = (body & (u64::MAX >> (64 - 8 * last_len)))
            ^ (u64::from(delim ^ b'\n') << (8 * (last_len - 1)));
        let limit = (0x8000 - u64::from(q.min(10))) * 0x0001_0001_0001_0001;
        Self {
            len,
            body,
            last,
            limit,
        }
    }

    /// Whether a line's `'\n'` is where a regular line has it.
    #[inline]
    fn opens(&self, bytes: &[u8]) -> bool {
        bytes.get(self.len - 1) == Some(&b'\n')
    }

    /// Check `line` (exactly `len` bytes) word by word, handing `emit`
    /// each word's index and its lanes: lane `i` of word `k` is field
    /// `4k + i`'s symbol (lanes past the line read 0). False, after
    /// emitting a prefix of the words, when the line is not regular.
    #[inline]
    fn line(&self, line: &[u8], mut emit: impl FnMut(usize, u64)) -> bool {
        if !self.opens(line) {
            return false;
        }
        let last = (self.len - 1) / 8;
        for k in 0..=last {
            let (word, regular) = if k < last {
                let bytes = line[8 * k..8 * k + 8].try_into().expect("eight bytes");
                (u64::from_le_bytes(bytes), self.body)
            } else {
                (self.tail(line, 8 * k), self.last)
            };
            let lanes = word ^ regular;
            // `| lanes` catches a lane whose top bit is set already (a
            // byte ≥ 0x80 where a separator belongs), which the add
            // would carry out of.
            if (lanes.wrapping_add(self.limit) | lanes) & LANE_TOPS != 0 {
                return false;
            }
            emit(k, lanes);
        }
        true
    }

    /// The bytes of `line` from `at` on (at most eight), zero above.
    #[inline]
    fn tail(&self, line: &[u8], at: usize) -> u64 {
        if self.len >= 8 {
            let end = line[self.len - 8..].try_into().expect("eight bytes");
            u64::from_le_bytes(end) >> (8 * (at + 8 - self.len))
        } else {
            let mut word = [0; 8];
            word[..self.len].copy_from_slice(line);
            u64::from_le_bytes(word)
        }
    }
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
        let (d, q) = (schema.dimension(), schema.alphabet);
        Self {
            d,
            q,
            delim,
            regular: (d > 0 && !delim.is_ascii_digit() && delim != b'\n')
                .then(|| Regular::new(d, q, delim)),
        }
    }

    /// Whether `bytes` can open with a regular line: one byte compare,
    /// the whole cost of a line the fast path does not take.
    #[inline]
    pub(crate) fn opens(&self, bytes: &[u8]) -> bool {
        self.regular.as_ref().is_some_and(|r| r.opens(bytes))
    }

    /// Hand `row` each line-long slice at the head of `bytes` until it
    /// declines one; step `bytes` past the lines it took and return how
    /// many.
    #[inline]
    fn take(&self, bytes: &mut &[u8], mut row: impl FnMut(&Regular, &[u8]) -> bool) -> usize {
        let Some(regular) = &self.regular else {
            return 0;
        };
        let mut taken = 0;
        while let Some(line) = bytes.get(taken * regular.len..(taken + 1) * regular.len) {
            if !row(regular, line) {
                break;
            }
            taken += 1;
        }
        *bytes = &bytes[taken * regular.len..];
        taken
    }

    /// Append the regular lines at the head of `bytes` to `out` as
    /// packed rows, until `out` holds `rows`, and step `bytes` past them;
    /// returns how many. Only for packed schemas, like
    /// [`parse_packed`](Self::parse_packed).
    #[inline]
    pub(crate) fn take_packed(&self, bytes: &mut &[u8], rows: usize, out: &mut Vec<u64>) -> usize {
        self.take(bytes, |regular, line| {
            let mut row = 0;
            let gather = |k: usize, lanes: u64| {
                row |= ((lanes.wrapping_mul(GATHER) >> 45) & 0xF) << (4 * k);
            };
            let taken = out.len() < rows && regular.line(line, gather);
            if taken {
                out.push(row);
            }
            taken
        })
    }

    /// Append the regular lines at the head of `bytes` to `out`, `d`
    /// symbols each, until `out` holds `rows` rows, and step `bytes`
    /// past them; returns how many.
    #[inline]
    pub(crate) fn take_dense(&self, bytes: &mut &[u8], rows: usize, out: &mut Vec<u16>) -> usize {
        let d = self.d as usize;
        self.take(bytes, |regular, line| {
            let mark = out.len();
            // Every word appends four lanes; the cut drops those past
            // the line, or the whole line when it is not regular.
            let symbols = |_, lanes: u64| {
                out.extend_from_slice(&[0, 16, 32, 48].map(|at| (lanes >> at) as u16));
            };
            let taken = mark < rows * d && regular.line(line, symbols);
            out.truncate(if taken { mark + d } else { mark });
            taken
        })
    }

    /// Parse one field starting at byte `i`. Returns
    /// `(value, next index, a delimiter ended the field)`.
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
        let mut more = false;
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
                more = true;
            }
        } else {
            while i < n {
                let b = line[i];
                i += 1;
                if b == self.delim {
                    more = true;
                    break;
                }
                self.digit(b, &mut val, &mut digits, lineno, column)?;
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
        Ok((val, i, more))
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
            // A delimiter always opens one more field, so a trailing
            // one is an empty last field, not the end of the row.
            let (val, next, more) = self.field(line, i, lineno, column + 1)?;
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
            if !more {
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
pub(crate) mod tests {
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
    fn a_trailing_delimiter_is_one_more_field() {
        assert_eq!(
            kind_of(parser(2, 2).parse_packed(b"1,0,", 4).unwrap_err()),
            (4, 3, ParseErrorKind::BadDigit)
        );
        assert_eq!(
            kind_of(parser(1, 2).parse_packed(b"\"1\",", 5).unwrap_err()),
            (5, 2, ParseErrorKind::BadDigit)
        );
        assert_eq!(
            kind_of(parser(3, 2).parse_packed(b"1,0,", 6).unwrap_err()),
            (6, 3, ParseErrorKind::BadDigit)
        );
        let mut out = vec![7];
        assert_eq!(
            kind_of(
                parser(2, 10)
                    .parse_dense_into(b"3,0,", 7, &mut out)
                    .unwrap_err()
            ),
            (7, 3, ParseErrorKind::BadDigit)
        );
        assert_eq!(out, vec![7]);
    }

    /// splitmix64: the fixed-seed source of the fast-path properties.
    pub(crate) struct Rng(pub(crate) u64);

    impl Rng {
        pub(crate) fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % n as u64) as usize
        }
    }

    /// The alphabets the fast-path properties run: below, at and above
    /// ten (the most a one-digit field can say), and the widest.
    pub(crate) const ALPHABETS: [u32; 8] = [2, 3, 4, 9, 10, 11, 16, 65_536];
    pub(crate) const DELIMITERS: [u8; 3] = [b',', b'\t', b';'];

    /// A line (no `'\n'`) of `d` symbols below `q`, drawn below ten half
    /// the time so most lines are regular. One line in `edit_odds` gets
    /// one edit at a random place: a defect (a digit ≥ Q, a non-digit, a
    /// byte ≥ 0x80, a quote, a `'\r'`, a missing, extra or trailing
    /// delimiter, an empty field) or a spelling only the walk reads (a
    /// quoted field, CRLF, a multi-digit value).
    pub(crate) fn random_line(
        rng: &mut Rng,
        d: u32,
        q: u32,
        delim: u8,
        edit_odds: usize,
    ) -> Vec<u8> {
        let bound = if rng.below(2) == 0 { q.min(10) } else { q } as usize;
        let mut fields: Vec<Vec<u8>> = (0..d)
            .map(|_| rng.below(bound).to_string().into_bytes())
            .collect();
        let edit = (rng.below(edit_odds) == 0).then(|| rng.below(12));
        let f = rng.below(d as usize);
        match edit {
            Some(0) if q < 10 => {
                fields[f] = vec![b'0' + (q as usize + rng.below(10 - q as usize)) as u8]
            }
            Some(1) => {
                fields[f] = format!("{}{}", rng.below(10), rng.below(q as usize)).into_bytes()
            }
            Some(2) => fields[f].clear(),
            Some(3) => fields[f] = [&b"\""[..], &fields[f], b"\""].concat(),
            _ => {}
        }
        let mut line = fields.join(&delim);
        let at = rng.below(line.len() + 1);
        // A stray byte overwrites one half the time: the line keeps its
        // length, so only the word checks can see it.
        let stray = [
            b"x -+./:"[rng.below(7)],
            0x80 + rng.below(0x80) as u8,
            b'"',
            b'\r',
        ];
        match edit {
            Some(e @ 4..=7) if at < line.len() && rng.below(2) == 0 => line[at] = stray[e - 4],
            Some(e @ 4..=7) => line.insert(at, stray[e - 4]),
            Some(8) => line.push(b'\r'),
            Some(9) => {
                let delims: Vec<usize> = (0..line.len()).filter(|&i| line[i] == delim).collect();
                if !delims.is_empty() {
                    line.remove(delims[rng.below(delims.len())]);
                }
            }
            Some(10) => line.insert(at, delim),
            Some(11) => line.push(delim),
            _ => {}
        }
        line
    }

    /// The regular shape, byte by byte: what the fast path must take.
    fn is_regular(line: &[u8], d: u32, q: u32, delim: u8) -> bool {
        line.len() == 2 * d as usize - 1
            && line.iter().enumerate().all(|(i, &b)| {
                if i % 2 == 0 {
                    b.is_ascii_digit() && u32::from(b - b'0') < q
                } else {
                    b == delim
                }
            })
    }

    /// The fast path takes a line exactly when it is regular, and then
    /// yields the walk's row; every other line it leaves, untouched, to
    /// the walk. Each line is followed in the buffer by another, so a
    /// word read past the line's end shows.
    #[test]
    fn the_fast_path_takes_exactly_the_regular_lines_as_the_walk_reads_them() {
        // No regular line without columns, nor with a delimiter the walk
        // would read as a digit or a line end.
        assert!(!RowParser::new(&Schema::synthetic(0, 2), b',').opens(b"\n"));
        assert!(!RowParser::new(&Schema::synthetic(2, 2), b'1').opens(b"010\n"));
        assert!(!RowParser::new(&Schema::synthetic(2, 2), b'\n').opens(b"0\n0\n"));
        let mut rng = Rng(57);
        let (mut lines, mut regular) = (0, 0);
        for d in 1..=63 {
            for q in ALPHABETS {
                for delim in DELIMITERS {
                    let p = RowParser::new(&Schema::synthetic(d, q), delim);
                    for _ in 0..12 {
                        let line = random_line(&mut rng, d, q, delim, 2);
                        let mut buf = [&line[..], b"\n"].concat();
                        buf.extend(random_line(&mut rng, d, q, delim, 2));
                        let expect = is_regular(&line, d, q, delim);
                        lines += 1;
                        regular += usize::from(expect);
                        let left = buf.len() - if expect { line.len() + 1 } else { 0 };
                        let context =
                            || format!("d={d} q={q} line {:?}", line.escape_ascii().to_string());

                        // One row already in the chunk, room for one more.
                        let held = vec![9; d as usize];
                        let (mut rest, mut fast, mut walked) =
                            (&buf[..], held.clone(), held.clone());
                        let took = p.take_dense(&mut rest, 2, &mut fast);
                        assert_eq!(
                            (took, rest.len()),
                            (usize::from(expect), left),
                            "{}",
                            context()
                        );
                        let walk = p.parse_dense_into(&line, 1, &mut walked);
                        if expect {
                            assert!(walk.is_ok(), "{}: {walk:?}", context());
                            assert_eq!(fast, walked, "{}", context());
                        } else {
                            assert_eq!(fast, held, "{}", context());
                        }

                        if Schema::synthetic(d, q).packed() {
                            let (mut rest, mut fast) = (&buf[..], Vec::new());
                            let took = p.take_packed(&mut rest, 1, &mut fast);
                            assert_eq!(
                                (took, rest.len()),
                                (usize::from(expect), left),
                                "{}",
                                context()
                            );
                            if expect {
                                assert_eq!(
                                    fast,
                                    vec![p.parse_packed(&line, 1).unwrap()],
                                    "{}",
                                    context()
                                );
                            }
                        }
                    }
                }
            }
        }
        assert!(
            regular * 4 > lines,
            "{regular} of {lines} lines were regular"
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
