//! Minimal JSON support for the wire protocol (`pfe serve`).
//!
//! The build environment is offline (no `serde`), so the line protocol is
//! handled by this small, dependency-free parser/writer covering the JSON
//! subset the protocol uses: objects, arrays, strings (with `\uXXXX`
//! escapes), finite numbers, booleans, and null.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (sorted keys: deterministic output).
    Obj(BTreeMap<String, Json>),
}

/// Parse failure with byte position.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonError {}

impl std::fmt::Display for Json {
    /// Compact single-line serialization (object keys sorted).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, message: impl Into<String>) -> Result<T, JsonError> {
        Err(JsonError {
            at: self.pos,
            message: message.into(),
        })
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.bump() == Some(b) {
            Ok(())
        } else {
            self.pos = self.pos.saturating_sub(1);
            self.err(format!("expected '{}'", b as char))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            self.err(format!("expected '{lit}'"))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => self.err(format!("unexpected '{}'", c as char)),
            None => self.err("unexpected end of input"),
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        match text.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(Json::Num(v)),
            _ => self.err(format!("bad number '{text}'")),
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return self.err("unterminated string"),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = match self.bump() {
                                Some(c) if c.is_ascii_hexdigit() => {
                                    (c as char).to_digit(16).expect("hex")
                                }
                                _ => return self.err("bad \\u escape"),
                            };
                            code = code * 16 + d;
                        }
                        match char::from_u32(code) {
                            Some(c) => out.push(c),
                            // Surrogate halves: emit the replacement char
                            // (the protocol never sends them).
                            None => out.push('\u{fffd}'),
                        }
                    }
                    _ => return self.err("bad escape"),
                },
                Some(c) if c < 0x20 => return self.err("control byte in string"),
                Some(c) => {
                    // Re-decode multi-byte UTF-8 sequences.
                    let len = match c {
                        0x00..=0x7f => 0,
                        0xc0..=0xdf => 1,
                        0xe0..=0xef => 2,
                        0xf0..=0xf7 => 3,
                        _ => return self.err("invalid utf-8"),
                    };
                    let start = self.pos - 1;
                    for _ in 0..len {
                        self.bump();
                    }
                    match std::str::from_utf8(&self.bytes[start..self.pos]) {
                        Ok(s) => out.push_str(s),
                        Err(_) => return self.err("invalid utf-8"),
                    }
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Json::Arr(items)),
                _ => {
                    self.pos = self.pos.saturating_sub(1);
                    return self.err("expected ',' or ']'");
                }
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Json::Obj(map)),
                _ => {
                    self.pos = self.pos.saturating_sub(1);
                    return self.err("expected ',' or '}'");
                }
            }
        }
    }
}

impl Json {
    /// Parse one JSON document (trailing whitespace allowed, nothing else).
    ///
    /// # Errors
    /// Position-annotated parse errors.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return p.err("trailing characters");
        }
        Ok(v)
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => {
                if !v.is_finite() {
                    // JSON has no NaN/Infinity literal; emitting one would
                    // make the document unparseable (including by this
                    // module's own parser). Serialize as null instead.
                    out.push_str("null");
                } else if v.fract() == 0.0 && v.abs() < 9.0e15 {
                    let _ = write!(out, "{}", *v as i64);
                } else {
                    let _ = write!(out, "{v}");
                }
            }
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\r' => out.push_str("\\r"),
                        '\t' => out.push_str("\\t"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Json::Str(k.clone()).write(out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Object field access.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// Numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// String value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Convenience: build an object from pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn non_finite_numbers_serialize_as_null_not_nan() {
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let doc = Json::Obj(std::collections::BTreeMap::from([(
                "ratio".to_string(),
                Json::Num(v),
            )]));
            let text = doc.to_string();
            assert_eq!(text, r#"{"ratio":null}"#, "for {v}");
            // The output must stay parseable by this parser.
            Json::parse(&text).expect("round-trippable");
        }
        // Finite values are untouched.
        assert_eq!(Json::Num(0.5).to_string(), "0.5");
        assert_eq!(Json::Num(3.0).to_string(), "3");
    }

    #[test]
    fn roundtrip_protocol_shapes() {
        for text in [
            r#"{"op":"f0","cols":[0,5,9]}"#,
            r#"{"op":"freq","cols":[1,2],"pattern":[0,1]}"#,
            r#"{"op":"hh","cols":[0],"phi":0.1}"#,
            r#"{"op":"ingest","rows":[[0,1,0],[1,1,1]]}"#,
            r#"[1,2.5,-3,1e3,true,false,null,"s"]"#,
            r#"{}"#,
            r#"[]"#,
        ] {
            let v = Json::parse(text).expect(text);
            let again = Json::parse(&v.to_string()).expect("reparse");
            assert_eq!(v, again, "unstable roundtrip for {text}");
        }
    }

    #[test]
    fn escapes_and_unicode() {
        let v = Json::parse(r#""a\"b\\c\nd é A""#).expect("parse");
        assert_eq!(v, Json::Str("a\"b\\c\nd \u{e9} A".to_string()));
        let out = v.to_string();
        assert_eq!(Json::parse(&out).expect("reparse"), v);
    }

    #[test]
    fn rejects_garbage() {
        for text in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "nulL",
            "01x",
            "\"unterminated",
            "{\"a\":1} trailing",
            "1e999",
        ] {
            assert!(Json::parse(text).is_err(), "accepted {text:?}");
        }
    }

    #[test]
    fn accessors() {
        let v = Json::parse(r#"{"op":"f0","cols":[0,2],"phi":0.5}"#).expect("parse");
        assert_eq!(v.get("op").and_then(Json::as_str), Some("f0"));
        assert_eq!(v.get("phi").and_then(Json::as_f64), Some(0.5));
        assert_eq!(
            v.get("cols").and_then(Json::as_arr).map(|a| a.len()),
            Some(2)
        );
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn integers_print_without_fraction() {
        assert_eq!(Json::Num(42.0).to_string(), "42");
        assert_eq!(Json::Num(2.5).to_string(), "2.5");
    }
}
