//! A minimal JSON reader: enough to validate and round-trip the
//! exporters' output without any external dependency. The one JSON
//! string escaper of the workspace, [`escape`] / [`escape_into`], lives
//! here too.
//!
//! Supports the full JSON value grammar (objects, arrays, strings with
//! escapes, numbers, booleans, null). [`parse`] builds a [`Value`]
//! tree with numbers as `f64` (a duplicate object key keeps its last
//! value); [`Reader`] is the pull cursor underneath it, for callers
//! that decode straight into their own types. This is a *reader* for
//! self-produced data and request lines, not a general-purpose parser
//! — depth is bounded to keep recursion safe.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;

/// Maximum nesting depth accepted (our exports nest 3 levels).
const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Number(f64),
    /// A string with escapes resolved.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in key order.
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// Member lookup for objects; `None` otherwise.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The array payload, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The object payload, if this is an object.
    #[must_use]
    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Object(map) => Some(map),
            _ => None,
        }
    }
}

/// A parse failure with its byte offset.
#[derive(Clone, Debug, Eq, PartialEq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses one complete JSON document; trailing whitespace is allowed,
/// trailing garbage is an error.
///
/// # Errors
///
/// Returns [`JsonError`] on malformed input.
pub fn parse(text: &str) -> Result<Value, JsonError> {
    let mut reader = Reader::new(text);
    reader.skip_ws();
    let value = reader.value(0)?;
    reader.finish()?;
    Ok(value)
}

/// `text` as a quoted JSON string literal.
#[must_use]
pub fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    escape_into(&mut out, text);
    out.push('"');
    out
}

/// Appends `text` to `out` with JSON string escapes applied and no
/// surrounding quotes: `"` and `\` are backslash-escaped, newline,
/// carriage return and tab use their short forms, and every other
/// control character below U+0020 becomes `\u00XX`. `#[inline]` like
/// [`Reader`]'s helpers: the daemon calls it from another crate once
/// per response line.
#[inline]
pub fn escape_into(out: &mut String, text: &str) {
    for c in text.chars() {
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
}

/// A number token as [`Reader::number`] reads it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Number {
    /// A plain run of digits (no sign, fraction or exponent) that fits
    /// a `u64`, accumulated exactly.
    Int(u64),
    /// Any other number token, as the nearest `f64`.
    Real(f64),
}

impl Number {
    /// The value as the nearest `f64` — what [`parse`] stores.
    #[must_use]
    #[allow(clippy::cast_precision_loss)] // round-to-nearest, as `str::parse` does
    pub fn as_f64(self) -> f64 {
        match self {
            Number::Int(n) => n as f64,
            Number::Real(x) => x,
        }
    }
}

/// A pull cursor over one JSON document.
///
/// This is the grammar [`parse`] builds its [`Value`] tree with,
/// exposed so a caller can decode straight into its own types: read
/// the members it knows with [`Reader::object`], [`Reader::array`],
/// [`Reader::string`] and [`Reader::number`], and pass everything else
/// to [`Reader::skip_value`], which validates exactly what [`parse`]
/// would (same depth bound, same errors at the same byte offsets)
/// without building a tree.
pub struct Reader<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `text`.
    #[must_use]
    pub fn new(text: &'a str) -> Self {
        Reader {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, message: &str) -> JsonError {
        JsonError {
            at: self.pos,
            message: message.to_owned(),
        }
    }

    // The per-byte helpers are `#[inline]`: the workspace builds
    // without LTO, and the daemon's request decoder calls them from
    // another crate once per number.

    /// The next byte, without consuming it.
    #[inline]
    #[must_use]
    pub fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    /// Skips JSON whitespace.
    #[inline]
    pub fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Skips trailing whitespace and requires the end of the text.
    ///
    /// # Errors
    ///
    /// Fails on trailing characters after the document.
    pub fn finish(&mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(self.err("trailing characters after document"))
        }
    }

    #[inline]
    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", byte as char)))
        }
    }

    fn literal(&mut self, text: &str) -> Result<(), JsonError> {
        let rest = self.bytes.get(self.pos..).unwrap_or_default();
        if rest.starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected `{text}`")))
        }
    }

    #[inline]
    fn check_depth(&self, depth: usize) -> Result<(), JsonError> {
        if depth > MAX_DEPTH {
            Err(self.err("nesting too deep"))
        } else {
            Ok(())
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.check_depth(depth)?;
        match self.peek() {
            Some(b'{') => {
                let mut map = BTreeMap::new();
                self.object(depth, |r, key| {
                    let value = r.value(depth + 1)?;
                    map.insert(key.into_owned(), value);
                    Ok(())
                })?;
                Ok(Value::Object(map))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.array(depth, |r| {
                    items.push(r.value(depth + 1)?);
                    Ok(())
                })?;
                Ok(Value::Array(items))
            }
            Some(b'"') => Ok(Value::String(self.string()?.into_owned())),
            Some(b't') => self.literal("true").map(|()| Value::Bool(true)),
            Some(b'f') => self.literal("false").map(|()| Value::Bool(false)),
            Some(b'n') => self.literal("null").map(|()| Value::Null),
            Some(b'-' | b'0'..=b'9') => Ok(Value::Number(self.number()?.as_f64())),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Validates and skips one value nested `depth` levels deep (the
    /// document itself is depth 0).
    ///
    /// # Errors
    ///
    /// Fails where [`parse`] would, including past the depth bound.
    pub fn skip_value(&mut self, depth: usize) -> Result<(), JsonError> {
        self.check_depth(depth)?;
        match self.peek() {
            Some(b'{') => self.object(depth, |r, _| r.skip_value(depth + 1)),
            Some(b'[') => self.array(depth, |r| r.skip_value(depth + 1)),
            Some(b'"') => self.string().map(drop),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'n') => self.literal("null"),
            Some(b'-' | b'0'..=b'9') => self.number().map(drop),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Reads an object at `depth`, calling `member` with each key. The
    /// callback finds the cursor on the member's value and must consume
    /// exactly that value (nested at `depth + 1`). Keys arrive in text
    /// order, duplicates included.
    ///
    /// # Errors
    ///
    /// Fails on malformed input or when `member` fails.
    pub fn object(
        &mut self,
        depth: usize,
        mut member: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.check_depth(depth)?;
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            member(self, key)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    /// Reads an array at `depth`, calling `item` on each element; the
    /// callback must consume exactly that element (nested at
    /// `depth + 1`).
    ///
    /// # Errors
    ///
    /// Fails on malformed input or when `item` fails.
    pub fn array(
        &mut self,
        depth: usize,
        mut item: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.check_depth(depth)?;
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            item(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    /// Reads a string with its escapes resolved; borrowed from the text
    /// when it has none.
    ///
    /// # Errors
    ///
    /// Fails on a missing quote, a bad escape, a lone surrogate or a
    /// raw control character.
    #[inline]
    pub fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.expect(b'"')?;
        let start = self.pos;
        self.plain_run();
        match self.peek() {
            Some(b'"') => {
                let text = self.slice(start)?;
                self.pos += 1;
                return Ok(Cow::Borrowed(text));
            }
            None => return Err(self.err("unterminated string")),
            Some(_) => {}
        }
        let mut out = self.slice(start)?.to_owned();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(Cow::Owned(out)),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => out.push(self.unicode_escape()?),
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ if b < 0x20 => return Err(self.err("raw control character in string")),
                _ => {
                    let run = self.pos - 1;
                    self.plain_run();
                    out.push_str(self.slice(run)?);
                }
            }
        }
    }

    /// Advances over bytes that stand for themselves inside a string:
    /// everything but `"`, `\` and control characters. The text is
    /// UTF-8, so the run ends on a character boundary.
    #[inline]
    fn plain_run(&mut self) {
        while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
            self.pos += 1;
        }
    }

    /// The text from `start` to the cursor.
    #[inline]
    fn slice(&self, start: usize) -> Result<&'a str, JsonError> {
        self.text
            .get(start..self.pos)
            .ok_or_else(|| self.err("invalid UTF-8 in string"))
    }

    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let code = self.hex4()?;
        // Surrogate pair handling for completeness.
        if (0xD800..0xDC00).contains(&code) {
            let rest = self.bytes.get(self.pos..).unwrap_or_default();
            if rest.starts_with(b"\\u") {
                self.pos += 2;
                let low = self.hex4()?;
                if (0xDC00..0xE000).contains(&low) {
                    let combined = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                    return char::from_u32(combined).ok_or_else(|| self.err("bad surrogate pair"));
                }
            }
            return Err(self.err("lone surrogate"));
        }
        char::from_u32(code).ok_or_else(|| self.err("bad unicode escape"))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut code: u32 = 0;
        for _ in 0..4 {
            let Some(b) = self.peek() else {
                return Err(self.err("truncated \\u escape"));
            };
            let digit = match b {
                b'0'..=b'9' => u32::from(b - b'0'),
                b'a'..=b'f' => u32::from(b - b'a') + 10,
                b'A'..=b'F' => u32::from(b - b'A') + 10,
                _ => return Err(self.err("non-hex digit in \\u escape")),
            };
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    /// Reads a number token: `-`? digits (`.` digits)? (`e` sign?
    /// digits)?, as [`parse`] accepts it. A plain run of digits that
    /// fits a `u64` comes back exact, without a float round-trip.
    ///
    /// # Errors
    ///
    /// Fails when the token is not a number (`-`, `1e`, …).
    #[inline]
    pub fn number(&mut self) -> Result<Number, JsonError> {
        let start = self.pos;
        let signed = self.peek() == Some(b'-');
        if signed {
            self.pos += 1;
        }
        let digits = self.pos;
        let mut value = 0u64;
        let mut overflow = false;
        while let Some(d @ b'0'..=b'9') = self.peek() {
            let (shifted, o1) = value.overflowing_mul(10);
            let (sum, o2) = shifted.overflowing_add(u64::from(d - b'0'));
            value = sum;
            overflow |= o1 | o2;
            self.pos += 1;
        }
        let plain = !signed && !overflow && self.pos > digits;
        if plain && !matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            return Ok(Number::Int(value));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        self.text
            .get(start..self.pos)
            .and_then(|text| text.parse::<f64>().ok())
            .map(Number::Real)
            .ok_or_else(|| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(parse("false").unwrap(), Value::Bool(false));
        assert_eq!(parse("42").unwrap(), Value::Number(42.0));
        assert_eq!(parse("-0.5e2").unwrap(), Value::Number(-50.0));
        assert_eq!(parse("\"hi\"").unwrap(), Value::String("hi".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a":[1,2,{"b":null}],"c":"x"}"#).unwrap();
        assert_eq!(v.get("c").and_then(Value::as_str), Some("x"));
        let arr = v.get("a").and_then(Value::as_array).unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[2].get("b"), Some(&Value::Null));
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("plain"), "\"plain\"");
        assert_eq!(escape("a\"b"), "\"a\\\"b\"");
        assert_eq!(escape("a\\b\nc"), "\"a\\\\b\\nc\"");
        assert_eq!(escape("\u{1}"), "\"\\u0001\"");
        let mut out = String::from("x");
        escape_into(&mut out, "\r\t\u{1f}é");
        assert_eq!(out, "x\\r\\t\\u001fé");
        assert_eq!(
            parse(&escape("q\"\\\n\u{7}é")).unwrap().as_str(),
            Some("q\"\\\n\u{7}é")
        );
    }

    #[test]
    fn resolves_escapes() {
        let v = parse(r#""a\n\t\"\\\u0041\u00e9""#).unwrap();
        assert_eq!(v.as_str(), Some("a\n\t\"\\Aé"));
        let pair = parse(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(pair.as_str(), Some("😀"));
    }

    #[test]
    fn handles_unicode_passthrough() {
        assert_eq!(parse("\"héllo→\"").unwrap().as_str(), Some("héllo→"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "tru",
            "1 2",
            "\"\\x\"",
            "\"\u{1}\"",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn reader_skips_exactly_what_parse_accepts() {
        let cases = [
            r#"{"a":[1,2,{"b":null}],"c":"x\u00e9"}"#,
            "[[[[]]]]",
            "-0.5e2",
            "01",
            "1.",
            "-",
            "1e",
            "[1,]",
            "{\"a\" 1}",
            "\"\\ud800\"",
            "\"tab\there\"",
        ];
        for text in cases {
            let mut reader = Reader::new(text);
            reader.skip_ws();
            let skipped = reader.skip_value(0).and_then(|()| reader.finish());
            assert_eq!(skipped.err(), parse(text).err(), "{text:?}");
        }
        let deep = "[".repeat(66) + &"]".repeat(66);
        let mut reader = Reader::new(&deep);
        assert_eq!(reader.skip_value(0).err(), parse(&deep).err());
    }

    #[test]
    fn reader_numbers_are_exact_for_plain_digits() {
        let read = |text: &str| Reader::new(text).number();
        assert_eq!(
            read("9007199254740993"),
            Ok(Number::Int(9_007_199_254_740_993))
        );
        assert_eq!(read("18446744073709551615"), Ok(Number::Int(u64::MAX)));
        assert_eq!(
            read("18446744073709551616"),
            Ok(Number::Real(18_446_744_073_709_551_616.0))
        );
        assert_eq!(read("007"), Ok(Number::Int(7)));
        assert_eq!(read("16.0"), Ok(Number::Real(16.0)));
        assert_eq!(read("-0"), Ok(Number::Real(-0.0)));
        assert!(read("-").is_err());
        // The DOM stores the nearest double either way.
        assert_eq!(
            parse("9007199254740993").unwrap(),
            Value::Number(9_007_199_254_740_992.0)
        );
    }

    #[test]
    fn reader_strings_borrow_unless_escaped() {
        let mut reader = Reader::new(r#""plain é""#);
        assert!(matches!(reader.string(), Ok(Cow::Borrowed("plain é"))));
        let mut reader = Reader::new(r#""a\nb""#);
        assert!(matches!(reader.string(), Ok(Cow::Owned(s)) if s == "a\nb"));
    }

    #[test]
    fn rejects_excessive_depth() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&deep).is_err());
    }
}
