//! A small JSON reader/writer of the harness's own.
//!
//! The end-to-end harness must judge the program's replies without
//! trusting the program's codec, so it does not reuse `pfe_engine::Json`.
//! [`validate`] is the allocation-free scan run on every reply inside the
//! timed loop; [`Json::parse`] builds a tree for the sampled replies that
//! are checked against the reference.

use std::fmt::Write as _;

/// A parsed JSON value. Object fields keep their input order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

struct Scanner<'a> {
    s: &'a [u8],
    i: usize,
    depth: u32,
}

const MAX_DEPTH: u32 = 64;

impl<'a> Scanner<'a> {
    fn ws(&mut self) {
        while let Some(&b) = self.s.get(self.i) {
            if b == b' ' || b == b'\n' || b == b'\t' || b == b'\r' {
                self.i += 1;
            } else {
                break;
            }
        }
    }

    fn eat(&mut self, lit: &[u8]) -> bool {
        if self.s[self.i..].starts_with(lit) {
            self.i += lit.len();
            true
        } else {
            false
        }
    }

    /// Scan a string starting at the opening quote; returns the raw
    /// (still escaped) byte range between the quotes.
    fn string(&mut self) -> Option<(usize, usize)> {
        if self.s.get(self.i) != Some(&b'"') {
            return None;
        }
        self.i += 1;
        let start = self.i;
        loop {
            match *self.s.get(self.i)? {
                b'"' => {
                    let end = self.i;
                    self.i += 1;
                    return Some((start, end));
                }
                b'\\' => match *self.s.get(self.i + 1)? {
                    b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't' => self.i += 2,
                    b'u' => {
                        let hex = self.s.get(self.i + 2..self.i + 6)?;
                        if !hex.iter().all(u8::is_ascii_hexdigit) {
                            return None;
                        }
                        self.i += 6;
                    }
                    _ => return None,
                },
                b if b < 0x20 => return None,
                _ => self.i += 1,
            }
        }
    }

    fn number(&mut self) -> Option<(usize, usize)> {
        let start = self.i;
        if self.s.get(self.i) == Some(&b'-') {
            self.i += 1;
        }
        let digits = |sc: &mut Self| {
            let from = sc.i;
            while sc.s.get(sc.i).is_some_and(u8::is_ascii_digit) {
                sc.i += 1;
            }
            sc.i > from
        };
        if !digits(self) {
            return None;
        }
        if self.s.get(self.i) == Some(&b'.') {
            self.i += 1;
            if !digits(self) {
                return None;
            }
        }
        if matches!(self.s.get(self.i), Some(b'e' | b'E')) {
            self.i += 1;
            if matches!(self.s.get(self.i), Some(b'+' | b'-')) {
                self.i += 1;
            }
            if !digits(self) {
                return None;
            }
        }
        Some((start, self.i))
    }

    /// Walk one value. With `build` the tree is returned; without it the
    /// walk allocates nothing and returns `Json::Null` placeholders.
    fn value(&mut self, build: bool) -> Option<Json> {
        self.ws();
        match *self.s.get(self.i)? {
            b'{' => {
                self.depth += 1;
                if self.depth > MAX_DEPTH {
                    return None;
                }
                self.i += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b'}') {
                    self.i += 1;
                } else {
                    loop {
                        self.ws();
                        let (a, b) = self.string()?;
                        self.ws();
                        if self.s.get(self.i) != Some(&b':') {
                            return None;
                        }
                        self.i += 1;
                        let v = self.value(build)?;
                        if build {
                            fields.push((unescape(&self.s[a..b])?, v));
                        }
                        self.ws();
                        match *self.s.get(self.i)? {
                            b',' => self.i += 1,
                            b'}' => {
                                self.i += 1;
                                break;
                            }
                            _ => return None,
                        }
                    }
                }
                self.depth -= 1;
                Some(if build { Json::Obj(fields) } else { Json::Null })
            }
            b'[' => {
                self.depth += 1;
                if self.depth > MAX_DEPTH {
                    return None;
                }
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b']') {
                    self.i += 1;
                } else {
                    loop {
                        let v = self.value(build)?;
                        if build {
                            items.push(v);
                        }
                        self.ws();
                        match *self.s.get(self.i)? {
                            b',' => self.i += 1,
                            b']' => {
                                self.i += 1;
                                break;
                            }
                            _ => return None,
                        }
                    }
                }
                self.depth -= 1;
                Some(if build { Json::Arr(items) } else { Json::Null })
            }
            b'"' => {
                let (a, b) = self.string()?;
                Some(if build {
                    Json::Str(unescape(&self.s[a..b])?)
                } else {
                    Json::Null
                })
            }
            b't' => self.eat(b"true").then_some(Json::Bool(true)),
            b'f' => self.eat(b"false").then_some(Json::Bool(false)),
            b'n' => self.eat(b"null").then_some(Json::Null),
            _ => {
                let (a, b) = self.number()?;
                if !build {
                    return Some(Json::Null);
                }
                let text = std::str::from_utf8(&self.s[a..b]).ok()?;
                text.parse::<f64>().ok().map(Json::Num)
            }
        }
    }
}

fn unescape(raw: &[u8]) -> Option<String> {
    let text = std::str::from_utf8(raw).ok()?;
    if !text.contains('\\') {
        return Some(text.to_string());
    }
    let mut out = String::with_capacity(text.len());
    let mut chars = text.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next()? {
            '"' => out.push('"'),
            '\\' => out.push('\\'),
            '/' => out.push('/'),
            'b' => out.push('\u{8}'),
            'f' => out.push('\u{c}'),
            'n' => out.push('\n'),
            'r' => out.push('\r'),
            't' => out.push('\t'),
            'u' => {
                let hex: String = chars.by_ref().take(4).collect();
                let code = u32::from_str_radix(&hex, 16).ok()?;
                // Surrogate halves never occur in the program's replies;
                // map them to the replacement character instead of failing.
                out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
            }
            _ => return None,
        }
    }
    Some(out)
}

fn walk(text: &str, build: bool) -> Option<Json> {
    let mut sc = Scanner {
        s: text.as_bytes(),
        i: 0,
        depth: 0,
    };
    let v = sc.value(build)?;
    sc.ws();
    (sc.i == sc.s.len()).then_some(v)
}

/// True when `text` is exactly one well-formed JSON value. Allocates
/// nothing, so it is cheap enough to run on every reply in a timed loop.
pub fn validate(text: &str) -> bool {
    walk(text, false).is_some()
}

impl Json {
    /// Parse one JSON value; `None` on any syntax error or trailing bytes.
    pub fn parse(text: &str) -> Option<Json> {
        walk(text, true)
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(o) => Some(o),
            _ => None,
        }
    }

    /// `self[key]` as a number, for the common `reply.get(k).as_f64()` chain.
    pub fn num(&self, key: &str) -> Option<f64> {
        self.get(key).and_then(Json::as_f64)
    }

    /// Build an object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("write to String");
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl std::fmt::Display for Json {
    /// Compact one-line form. Non-finite numbers print as `null`, since
    /// JSON has no spelling for them.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write_to(&mut out);
        f.write_str(&out)
    }
}

impl Json {
    fn write_to(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) if !n.is_finite() => out.push_str("null"),
            Json::Num(n) => write!(out, "{n}").expect("write to String"),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write_to(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, k);
                    out.push(':');
                    v.write_to(out);
                }
                out.push('}');
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_what_the_server_sends() {
        let line = r#"{"answered_on":[0,1,2],"cached":false,"estimate":8,"guarantee":{"alpha":2.25,"epsilon":0,"source":"alpha_net"},"ok":true,"upper_bound":null}"#;
        assert!(validate(line));
        let v = Json::parse(line).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(v.num("estimate"), Some(8.0));
        assert_eq!(
            v.get("guarantee")
                .and_then(|g| g.get("source"))
                .and_then(Json::as_str),
            Some("alpha_net")
        );
        assert_eq!(
            v.get("answered_on").and_then(Json::as_arr).unwrap().len(),
            3
        );
        assert_eq!(v.get("upper_bound"), Some(&Json::Null));
    }

    #[test]
    fn rejects_malformed_text() {
        for bad in [
            "",
            "{",
            "{\"a\":1,}",
            "{\"a\" 1}",
            "[1 2]",
            "{\"a\":1} x",
            "{\"a\":01e}",
            "\"unterminated",
            "{\"a\":tru}",
            "{\"a\":\"bad\\q\"}",
        ] {
            assert!(!validate(bad), "{bad:?} should be rejected");
            assert!(Json::parse(bad).is_none(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn display_round_trips() {
        let v = Json::obj([
            ("name", Json::Str("a \"q\"\n".into())),
            ("n", Json::Num(1.25)),
            ("big", Json::Num(123456789.0)),
            ("list", Json::Arr(vec![Json::Bool(true), Json::Null])),
        ]);
        assert_eq!(Json::parse(&v.to_string()), Some(v));
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
    }
}
