//! A minimal JSON value model, writer and recursive-descent parser.
//!
//! The workspace has no serialisation dependency (see `vendor/README.md`), so
//! the JSONL trace codec hand-rolls the sliver of JSON it needs: objects,
//! arrays, strings, 64-bit integers, booleans and `null`. Floats are
//! deliberately rejected — the trace format never emits them, and
//! refusing them keeps round-trips exact — and so are integers with leading
//! zeros, which JSON forbids (`007` and `7` would decode to the same trace).
//!
//! [`write_escaped`] is public: it is the string escaper of every JSON emitter
//! in the workspace that can depend on this crate.

use crate::error::TraceError;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer that fits `i64` (all negative integers land here).
    Int(i64),
    /// A non-negative integer that only fits `u64` (e.g. large seeds).
    UInt(u64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, in insertion order (duplicate keys are rejected at parse time).
    Object(Vec<(String, Json)>),
}

impl Json {
    pub(crate) fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub(crate) fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) => u64::try_from(*i).ok(),
            Json::UInt(u) => Some(*u),
            _ => None,
        }
    }

    pub(crate) fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Appends the JSON encoding of `s` (including the surrounding quotes) to `out`.
///
/// ```
/// let mut out = String::new();
/// linrv_trace::json::write_escaped(&mut out, "a\"b\n");
/// assert_eq!(out, r#""a\"b\n""#);
/// ```
pub fn write_escaped(out: &mut String, s: &str) {
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

/// Parses exactly one JSON value occupying the whole of `input` (surrounding
/// whitespace allowed). `location` names the input in error messages.
pub(crate) fn parse(input: &str, location: &str) -> Result<Json, TraceError> {
    let mut parser = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        location,
    };
    parser.skip_whitespace();
    let value = parser.parse_value(0)?;
    parser.skip_whitespace();
    if parser.pos != parser.bytes.len() {
        return Err(parser.error("trailing characters after the JSON value"));
    }
    Ok(value)
}

/// Nesting depth cap: `OpValue` pairs/lists nest, but never this deep; the cap
/// turns adversarial inputs into errors instead of stack overflows.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    location: &'a str,
}

impl Parser<'_> {
    fn error(&self, message: impl Into<String>) -> TraceError {
        TraceError::malformed(
            format!("{} (byte {})", self.location, self.pos),
            message.into(),
        )
    }

    fn skip_whitespace(&mut self) {
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

    fn expect(&mut self, byte: u8) -> Result<(), TraceError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected {:?}", byte as char)))
        }
    }

    fn parse_value(&mut self, depth: usize) -> Result<Json, TraceError> {
        if depth > MAX_DEPTH {
            return Err(self.error("value nests too deeply"));
        }
        self.skip_whitespace();
        match self.peek() {
            Some(b'{') => self.parse_object(depth),
            Some(b'[') => self.parse_array(depth),
            Some(b'"') => Ok(Json::Str(self.parse_string()?)),
            Some(b't') => self.parse_literal("true", Json::Bool(true)),
            Some(b'f') => self.parse_literal("false", Json::Bool(false)),
            Some(b'n') => self.parse_literal("null", Json::Null),
            Some(b'-') | Some(b'0'..=b'9') => self.parse_number(),
            Some(other) => Err(self.error(format!("unexpected character {:?}", other as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn parse_literal(&mut self, literal: &str, value: Json) -> Result<Json, TraceError> {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected {literal:?}")))
        }
    }

    fn parse_number(&mut self) -> Result<Json, TraceError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        if self.peek() == Some(b'0') && matches!(self.bytes.get(self.pos + 1), Some(b'0'..=b'9')) {
            return Err(self.error("leading zeros are not part of JSON"));
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if matches!(self.peek(), Some(b'.') | Some(b'e') | Some(b'E')) {
            return Err(self.error("floating-point numbers are not part of the trace format"));
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("digits and '-' are valid UTF-8");
        if text.is_empty() || text == "-" {
            return Err(self.error("expected digits"));
        }
        if let Ok(i) = text.parse::<i64>() {
            Ok(Json::Int(i))
        } else if let Ok(u) = text.parse::<u64>() {
            Ok(Json::UInt(u))
        } else {
            Err(self.error(format!("integer {text} does not fit 64 bits")))
        }
    }

    fn parse_string(&mut self) -> Result<String, TraceError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            out.push(self.parse_unicode_escape()?);
                            continue;
                        }
                        _ => return Err(self.error("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character (the input is a &str, so the
                    // bytes are valid UTF-8 by construction).
                    let rest =
                        std::str::from_utf8(&self.bytes[self.pos..]).expect("input was a &str");
                    let c = rest.chars().next().expect("peeked a byte");
                    if (c as u32) < 0x20 {
                        return Err(self.error("unescaped control character in string"));
                    }
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_unicode_escape(&mut self) -> Result<char, TraceError> {
        let first = self.parse_hex4()?;
        // Surrogate pairs: \uD800-\uDBFF must be followed by \uDC00-\uDFFF.
        if (0xD800..=0xDBFF).contains(&first) {
            if self.bytes.get(self.pos) == Some(&b'\\')
                && self.bytes.get(self.pos + 1) == Some(&b'u')
            {
                self.pos += 2;
                let second = self.parse_hex4()?;
                if (0xDC00..=0xDFFF).contains(&second) {
                    let code = 0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00);
                    return char::from_u32(code)
                        .ok_or_else(|| self.error("invalid surrogate pair"));
                }
            }
            return Err(self.error("unpaired UTF-16 surrogate"));
        }
        char::from_u32(first).ok_or_else(|| self.error("invalid unicode escape"))
    }

    fn parse_hex4(&mut self) -> Result<u32, TraceError> {
        let end = self.pos + 4;
        let digits = self
            .bytes
            .get(self.pos..end)
            .and_then(|b| std::str::from_utf8(b).ok())
            .ok_or_else(|| self.error("truncated \\u escape"))?;
        let value =
            u32::from_str_radix(digits, 16).map_err(|_| self.error("invalid \\u escape"))?;
        self.pos = end;
        Ok(value)
    }

    fn parse_array(&mut self, depth: usize) -> Result<Json, TraceError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.parse_value(depth + 1)?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn parse_object(&mut self, depth: usize) -> Result<Json, TraceError> {
        self.expect(b'{')?;
        let mut fields: Vec<(String, Json)> = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_whitespace();
            let key = self.parse_string()?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(self.error(format!("duplicate key {key:?}")));
            }
            self.skip_whitespace();
            self.expect(b':')?;
            let value = self.parse_value(depth + 1)?;
            fields.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Json {
        parse(s, "test").unwrap()
    }

    #[test]
    fn scalars_parse() {
        assert_eq!(p("null"), Json::Null);
        assert_eq!(p("true"), Json::Bool(true));
        assert_eq!(p("false"), Json::Bool(false));
        assert_eq!(p("-42"), Json::Int(-42));
        assert_eq!(p("42"), Json::Int(42));
        assert_eq!(p("0"), Json::Int(0));
        assert_eq!(p("-0"), Json::Int(0));
        assert_eq!(p("18446744073709551615"), Json::UInt(u64::MAX));
        assert_eq!(p("\"hi\""), Json::Str("hi".into()));
    }

    #[test]
    fn containers_parse() {
        let v = p("{\"a\": [1, 2], \"b\": {\"c\": null}} ");
        assert_eq!(
            v.get("a"),
            Some(&Json::Array(vec![Json::Int(1), Json::Int(2)]))
        );
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Json::Null));
        assert_eq!(p("[]"), Json::Array(vec![]));
        assert_eq!(p("{}"), Json::Object(vec![]));
    }

    #[test]
    fn escapes_round_trip() {
        let original = "a\"b\\c\nd\te\u{8}\u{1F600}";
        let mut encoded = String::new();
        write_escaped(&mut encoded, original);
        assert_eq!(p(&encoded), Json::Str(original.into()));
    }

    #[test]
    fn surrogate_pairs_decode() {
        assert_eq!(p("\"\\ud83d\\ude00\""), Json::Str("\u{1F600}".into()));
        assert!(parse("\"\\ud83d\"", "test").is_err());
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        for bad in [
            "",
            "tru",
            "1.5",
            "1e3",
            "{",
            "[1,",
            "\"x",
            "{\"a\":1,\"a\":2}",
            "01x",
            "00",
            "01",
            "-01",
            "007",
            "- ",
            "1 2",
            "\u{1}",
        ] {
            assert!(parse(bad, "test").is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn accessors_are_type_safe() {
        assert_eq!(p("7").as_u64(), Some(7));
        assert_eq!(p("-7").as_u64(), None);
        assert_eq!(p("\"s\"").as_str(), Some("s"));
        assert_eq!(p("null").as_u64(), None);
        assert_eq!(p("1").get("k"), None);
    }

    #[test]
    fn depth_is_capped() {
        let deep = format!("{}1{}", "[".repeat(100), "]".repeat(100));
        assert!(parse(&deep, "test").is_err());
    }
}
