//! A minimal JSON value model, parser and writer for the wire protocol.
//!
//! The trace layer ([`crate::trace`]) only *writes* JSON; the exploration
//! server (`aide serve`, protocol `aide-serve/1`) must also *read* it.
//! This module provides the missing half: a recursive-descent parser over
//! a closed [`Json`] value model, plus a writer that reuses the exact
//! serialization idioms of the trace writer ([`crate::trace::json_string`]
//! escaping, shortest-roundtrip [`crate::trace::json_number`] floats) so
//! that a number round-trips bit-for-bit through the wire — the property
//! the server's determinism guarantee rests on.
//!
//! Design constraints, in order:
//!
//! * **Total.** `parse` never panics on any input; malformed text returns
//!   a [`JsonError`] with a byte offset. The server's fuzz tests feed it
//!   truncated and hostile frames.
//! * **Bounded.** Nesting depth is capped ([`MAX_DEPTH`]) so a
//!   `[[[[…` frame cannot blow the stack.
//! * **Order-preserving.** Objects keep their key order (`Vec` of pairs,
//!   not a map), so writing a parsed value reproduces the field order —
//!   matching the trace writer's "field order is content" stance.
//!
//! ```
//! use aide_util::json::Json;
//!
//! let v = Json::parse(r#"{"op":"label","labels":[true,false],"x":0.1}"#).unwrap();
//! assert_eq!(v.get("op").and_then(Json::as_str), Some("label"));
//! assert_eq!(v.get("labels").unwrap().as_array().unwrap().len(), 2);
//! // Shortest-roundtrip floats survive a write/parse cycle bit-for-bit.
//! let text = v.to_string();
//! assert_eq!(Json::parse(&text).unwrap(), v);
//! ```

use std::fmt;

use crate::trace::{json_number, json_string};

/// Maximum nesting depth accepted by the parser.
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
///
/// Numbers are `f64` (JSON has one number type); objects preserve key
/// order and may hold duplicate keys, in which case [`Json::get`] returns
/// the first.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, parsed as `f64`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object: ordered `(key, value)` pairs.
    Obj(Vec<(String, Json)>),
}

/// A parse failure: what went wrong and the byte offset where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description of the failure.
    pub message: String,
    /// Byte offset into the input where the failure was detected.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses one complete JSON value; trailing non-whitespace is an
    /// error (a wire frame is exactly one value).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after value"));
        }
        Ok(value)
    }

    /// Object field lookup (first match); `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Largest integer [`Json::as_u64`] accepts: 2⁵³ − 1. Numbers parse
    /// as `f64`, so above it distinct integers in the text can arrive as
    /// the same (rounded) value.
    const MAX_EXACT_INT: u64 = (1 << 53) - 1;

    /// The number as a `u64`, if it is one exactly: non-negative,
    /// integral and at most 2⁵³ − 1. Larger values are refused rather
    /// than silently rounded.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= Self::MAX_EXACT_INT as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes compactly (no whitespace), with the trace writer's
    /// string escaping and shortest-roundtrip float formatting. Non-finite
    /// numbers render as `null`, exactly as the trace writer does.
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => out.push_str(&json_number(*n)),
            Json::Str(s) => out.push_str(&json_string(s)),
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
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&json_string(k));
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        self.write(&mut s);
        f.write_str(&s)
    }
}

/// Convenience: builds a JSON object from ordered pairs.
///
/// ```
/// use aide_util::json::{obj, Json};
///
/// let v = obj(vec![("ok", Json::Bool(true)), ("n", Json::Num(3.0))]);
/// assert_eq!(v.to_string(), r#"{"ok":true,"n":3}"#);
/// ```
pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_owned(),
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, literal: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.eat("null", Json::Null),
            Some(b't') => self.eat("true", Json::Bool(true)),
            Some(b'f') => self.eat("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.pos += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.pos += 1; // '{'
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected string key in object"));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.err("expected ':' after object key"));
            }
            self.pos += 1;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.pos += 1; // opening '"'
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy a run of plain bytes in one go.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            // The input is a &str, so any byte run that stops at an ASCII
            // delimiter is valid UTF-8.
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .expect("input is valid UTF-8 between ASCII delimiters"),
            );
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                if !self.bytes[self.pos..].starts_with(b"\\u") {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 2;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let code =
                                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(code)
                            } else {
                                char::from_u32(hi)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => return Err(self.err("invalid unicode escape")),
                            }
                            // hex4 leaves pos one short of consistent with
                            // the single-char escapes below; compensate.
                            self.pos -= 1;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => return Err(self.err("control character in string")),
            }
        }
    }

    /// Reads exactly four hex digits at `pos`, advancing past them.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated unicode escape"));
        }
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self.bytes[self.pos];
            let d = match b {
                b'0'..=b'9' => (b - b'0') as u32,
                b'a'..=b'f' => (b - b'a' + 10) as u32,
                b'A'..=b'F' => (b - b'A' + 10) as u32,
                _ => return Err(self.err("invalid hex digit in unicode escape")),
            };
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_digits = self.digits();
        if int_digits == 0 {
            return Err(self.err("expected digit"));
        }
        // JSON forbids leading zeros ("01"), which `f64::parse` accepts.
        if int_digits > 1 && self.bytes[if start < self.pos && self.bytes[start] == b'-' {
            start + 1
        } else {
            start
        }] == b'0'
        {
            return Err(self.err("leading zero in number"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return Err(self.err("expected digit after decimal point"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(self.err("expected digit in exponent"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number text is ASCII");
        match text.parse::<f64>() {
            Ok(n) => Ok(Json::Num(n)),
            Err(_) => Err(self.err("unparseable number")),
        }
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse(" false ").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap(), Json::Num(42.0));
        assert_eq!(Json::parse("-0.5e2").unwrap(), Json::Num(-50.0));
        assert_eq!(Json::parse(r#""hi""#).unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn parses_structures_preserving_order() {
        let v = Json::parse(r#"{"b":1,"a":[2,{"c":null}],"b":9}"#).unwrap();
        match &v {
            Json::Obj(pairs) => {
                assert_eq!(pairs[0].0, "b");
                assert_eq!(pairs[1].0, "a");
            }
            _ => panic!("not an object"),
        }
        // Duplicate keys: get returns the first.
        assert_eq!(v.get("b"), Some(&Json::Num(1.0)));
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 2);
    }

    #[test]
    fn string_escapes_round_trip() {
        let cases = [
            r#""quote \" back \\ slash \/ tab \t nl \n""#,
            r#""Aé✓""#,
            r#""surrogate 😀 pair""#,
        ];
        for text in cases {
            let v = Json::parse(text).unwrap();
            let rewritten = v.to_string();
            assert_eq!(Json::parse(&rewritten).unwrap(), v, "{text}");
        }
        assert_eq!(
            Json::parse(r#""😀""#).unwrap(),
            Json::Str("😀".into())
        );
    }

    #[test]
    fn floats_round_trip_bit_for_bit() {
        for &bits in &[
            (0.1f64 + 0.2).to_bits(),
            1.0f64.to_bits(),
            f64::MIN_POSITIVE.to_bits(),
            12345.6789e-3f64.to_bits(),
            (-0.0f64).to_bits(),
        ] {
            let v = f64::from_bits(bits);
            let text = Json::Num(v).to_string();
            let back = Json::parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), bits, "{text}");
        }
    }

    #[test]
    fn rejects_malformed_input_with_offsets() {
        for text in [
            "",
            "{",
            "[1,",
            r#"{"a""#,
            r#"{"a":}"#,
            r#"{a:1}"#,
            "01",
            "1.",
            "1e",
            "nul",
            r#""unterminated"#,
            r#""bad \x escape""#,
            r#""\ud800 unpaired""#,
            "1 2",
            "[1] extra",
            "\u{1}",
        ] {
            let err = Json::parse(text).unwrap_err();
            assert!(err.offset <= text.len(), "{text}: {err}");
        }
    }

    #[test]
    fn depth_limit_holds() {
        let deep: String = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        assert!(Json::parse(&deep).is_err());
        let ok: String = "[".repeat(8) + &"]".repeat(8);
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn u64_extraction_is_exact() {
        assert_eq!(Json::parse("7").unwrap().as_u64(), Some(7));
        assert_eq!(Json::parse("0").unwrap().as_u64(), Some(0));
        assert_eq!(Json::parse("-1").unwrap().as_u64(), None);
        assert_eq!(Json::parse("1.5").unwrap().as_u64(), None);
        // 2^53 - 1 is the largest integer every f64 parse keeps exact…
        assert_eq!(
            Json::parse("9007199254740991").unwrap().as_u64(),
            Some(Json::MAX_EXACT_INT)
        );
        // …above it, 2^53 + 1 parses as 2^53: both are refused, not rounded.
        assert_eq!(Json::parse("9007199254740992").unwrap().as_u64(), None);
        assert_eq!(Json::parse("9007199254740993").unwrap().as_u64(), None);
        assert_eq!(Json::parse("18446744073709551615").unwrap().as_u64(), None);
        assert_eq!(Json::parse("1e300").unwrap().as_u64(), None);
    }
}
