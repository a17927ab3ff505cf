//! Minimal JSON tree, writer and parser.
//!
//! The workspace vendors no serde; scenario specs and check verdicts are
//! small, flat documents, so a ~200-line hand-rolled JSON suffices. Two
//! properties matter here:
//!
//! * **u64 exactness** — seeds are full-range 64-bit integers. They are kept
//!   as [`Json::Int`] end to end and never pass through `f64`, so a spec
//!   survives a write/parse round trip bit-for-bit.
//! * **deterministic output** — object keys render in insertion order and
//!   floats render via Rust's shortest-roundtrip formatting, so the same
//!   spec always serializes to the same bytes.
//!
//! Parsing is recursive descent over input that may come from a file
//! (`detour check --replay`), so nesting is capped at [`MAX_DEPTH`]: deeper
//! input is a [`JsonError::TooDeep`], not a stack overflow.

use std::fmt::{self, Write as _};

/// Deepest nesting of arrays and objects [`Json::parse`] accepts. Scenario
/// specs and verdicts nest a few levels.
pub const MAX_DEPTH: usize = 128;

/// Why [`Json::parse`] rejected its input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonError {
    /// The input ended inside a value.
    UnexpectedEnd,
    /// Arrays and objects nest deeper than [`MAX_DEPTH`]; `at` is the byte
    /// offset of the first bracket past the limit.
    TooDeep {
        /// Byte offset of the offending `[` or `{`.
        at: usize,
    },
    /// Any other malformed input, described.
    Syntax(String),
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonError::UnexpectedEnd => write!(f, "unexpected end of input"),
            JsonError::TooDeep { at } => {
                write!(f, "nesting deeper than {MAX_DEPTH} levels at byte {at}")
            }
            JsonError::Syntax(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for JsonError {}

impl From<String> for JsonError {
    fn from(msg: String) -> Self {
        JsonError::Syntax(msg)
    }
}

impl From<&str> for JsonError {
    fn from(msg: &str) -> Self {
        JsonError::Syntax(msg.into())
    }
}

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A non-negative integer that must survive exactly (seeds, byte
    /// counts). Negative or fractional numbers parse as [`Json::Num`].
    Int(u64),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (insertion-ordered).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// As u64 (exact `Int` only).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// As f64 (accepts `Int` too).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            Json::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// As bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(v) => Some(*v),
            _ => None,
        }
    }

    /// As string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// As array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Serialize (compact, no trailing newline).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Num(v) => {
                if v.is_finite() {
                    let _ = write!(out, "{v}");
                } else {
                    out.push_str("null"); // JSON has no Inf/NaN
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
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Json::Str(k.clone()).render_into(out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parse a JSON document.
    pub fn parse(s: &str) -> Result<Json, JsonError> {
        let bytes = s.as_bytes();
        let mut p = Parser {
            bytes,
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos).into());
        }
        Ok(v)
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

/// A byte the parser did not expect, for error messages.
fn found(b: u8) -> String {
    format!("{:?}", b as char)
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        match self.peek() {
            Some(c) if c == b => {
                self.pos += 1;
                Ok(())
            }
            Some(c) => Err(format!(
                "expected '{}' at byte {}, found {}",
                b as char,
                self.pos,
                found(c)
            )
            .into()),
            None => Err(JsonError::UnexpectedEnd),
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos).into())
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(format!("unexpected {} at byte {}", found(c), self.pos).into()),
            None => Err(JsonError::UnexpectedEnd),
        }
    }

    /// Parse an array or object one level deeper, within [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(JsonError::TooDeep { at: self.pos });
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut non_int = self.pos > start; // leading '-' => not an Int
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
                non_int = true;
            }
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if !non_int {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::Int(v));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|e| format!("bad number {text:?}: {e}").into())
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(JsonError::UnexpectedEnd),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or(JsonError::UnexpectedEnd)?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            if self.pos + 4 > self.bytes.len() {
                                return Err(JsonError::UnexpectedEnd);
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .map_err(|_| "bad \\u escape")?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape {hex:?}"))?;
                            self.pos += 4;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("bad escape \\{}", other as char).into()),
                    }
                }
                Some(_) => {
                    // Advance one whole UTF-8 character.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid utf-8 in string")?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
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
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                Some(c) => return Err(format!("expected ',' or ']', found {}", found(c)).into()),
                None => return Err(JsonError::UnexpectedEnd),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                Some(c) => return Err(format!("expected ',' or '}}', found {}", found(c)).into()),
                None => return Err(JsonError::UnexpectedEnd),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_exact_u64() {
        let v = Json::Obj(vec![
            ("seed".into(), Json::Int(u64::MAX)),
            ("other".into(), Json::Int(9_007_199_254_740_993)), // 2^53 + 1
        ]);
        let text = v.render();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back.get("seed").unwrap().as_u64(), Some(u64::MAX));
        assert_eq!(
            back.get("other").unwrap().as_u64(),
            Some(9_007_199_254_740_993)
        );
    }

    #[test]
    fn round_trip_structures() {
        let v = Json::Obj(vec![
            ("name".into(), Json::Str("a \"quoted\"\nline".into())),
            (
                "items".into(),
                Json::Arr(vec![Json::Null, Json::Bool(true), Json::Num(-1.5)]),
            ),
        ]);
        let back = Json::parse(&v.render()).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn parses_whitespace_and_nesting() {
        let v = Json::parse(" { \"a\" : [ 1 , { \"b\" : [ ] } ] } ").unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[0].as_u64(), Some(1));
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn truncated_input_is_an_unexpected_end() {
        for text in [
            "",
            "{",
            "{\"seed\"",
            "{\"seed\":",
            "[1,",
            "[1",
            "\"abc",
            "\"\\",
            "\"\\u12",
        ] {
            assert_eq!(Json::parse(text), Err(JsonError::UnexpectedEnd), "{text:?}");
        }
        assert_eq!(
            JsonError::UnexpectedEnd.to_string(),
            "unexpected end of input"
        );
    }

    #[test]
    fn nesting_is_capped() {
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(Json::parse(&ok).is_ok());
        let deep = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        assert_eq!(
            Json::parse(&deep),
            Err(JsonError::TooDeep { at: MAX_DEPTH })
        );
        // Far past the limit, and objects too: an error, not a stack
        // overflow.
        let hostile = "[".repeat(200_000);
        assert_eq!(
            Json::parse(&hostile),
            Err(JsonError::TooDeep { at: MAX_DEPTH })
        );
        let objects = "{\"a\":".repeat(MAX_DEPTH) + "{";
        assert_eq!(
            Json::parse(&objects),
            Err(JsonError::TooDeep {
                at: objects.len() - 1
            })
        );
    }

    #[test]
    fn negative_and_float_are_num() {
        assert_eq!(Json::parse("-3").unwrap().as_f64(), Some(-3.0));
        assert_eq!(Json::parse("2.5").unwrap().as_f64(), Some(2.5));
        assert_eq!(Json::parse("-3").unwrap().as_u64(), None);
    }
}
