//! Minimal dependency-free JSON for the deep-rs workspace.
//!
//! The build environment has no registry access, so instead of serde this
//! crate provides a small [`Value`] tree, a strict recursive-descent
//! parser ([`from_str`]), and compact/pretty printers. Callers build and
//! read `Value` trees by hand — more verbose than derive, but fully
//! auditable and dependency-free.
//!
//! Objects preserve insertion order (they are association lists, not
//! maps), so printed output is deterministic.
//!
//! Since `deep-serve` feeds this parser straight off sockets, it is
//! hardened for untrusted input: container nesting is capped at
//! [`MAX_DEPTH`] (the parser is recursive-descent, so unbounded depth
//! would exhaust the stack), every malformed document returns a
//! [`ParseError`] with a byte offset instead of panicking, and
//! [`from_slice`] accepts arbitrary byte soup (UTF-8 is validated
//! first). A proptest in `tests/untrusted_input.rs` drives random
//! bytes through the parser to keep the no-panic claim honest.
//!
//! [`digest`] canonicalises a [`Value`] (object keys sorted) and
//! hashes it with FNV-1a; [`cache`] is the content-addressed result
//! store built on those digests.

// Request path of the daemon: a malformed job must yield an error
// response, not a panic (DESIGN.md §13).
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod cache;
pub mod digest;

use std::fmt::{self, Write as _};
use std::ops::Index;

/// Maximum container nesting [`from_str`] accepts. Deeper documents are
/// rejected with a parse error rather than risking stack exhaustion on
/// adversarial input like `[[[[…`.
pub const MAX_DEPTH: usize = 128;

/// A JSON document node.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (stored as f64, like JavaScript).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, preserving insertion order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on objects; `None` on other variants or missing key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The boolean payload, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The numeric payload, if this is a `Number`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if exact.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The string payload, if this is a `String`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The element list, if this is an `Array`.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }

    /// Compact single-line rendering.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        self.write(&mut s, None, 0);
        s
    }

    /// Pretty rendering with two-space indentation.
    pub fn to_json_pretty(&self) -> String {
        self.to_json_pretty_at(0)
    }

    /// Pretty rendering as it reads `depth` containers deep inside a
    /// pretty-printed document: the text [`Value::to_json_pretty`]
    /// puts after the `": "` of a member nested that deep, so a value
    /// rendered once can be spliced into many enclosing documents.
    pub fn to_json_pretty_at(&self, depth: usize) -> String {
        let mut s = String::new();
        self.write(&mut s, Some(2), depth);
        s
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Number(n) => write_number(out, *n),
            Value::String(s) => write_string(out, s),
            Value::Array(vs) => {
                if vs.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    v.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(']');
            }
            Value::Object(kv) => {
                if kv.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in kv.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_string(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(w) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', w * depth));
    }
}

// Writing to a `String` cannot fail, so the `write!` results below are
// dropped.
fn write_number(out: &mut String, n: f64) {
    if !n.is_finite() {
        // JSON has no Inf/NaN; null is the conventional fallback.
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 2f64.powi(53) {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    // Every byte that needs escaping is ASCII, so the runs between them
    // are copied whole.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        match escape {
            "" => {
                let _ = write!(out, "\\u{b:04x}");
            }
            _ => out.push_str(escape),
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_json())
    }
}

impl Index<&str> for Value {
    type Output = Value;

    fn index(&self, key: &str) -> &Value {
        static NULL: Value = Value::Null;
        self.get(key).unwrap_or(&NULL)
    }
}

impl Index<usize> for Value {
    type Output = Value;

    fn index(&self, i: usize) -> &Value {
        static NULL: Value = Value::Null;
        match self {
            Value::Array(vs) => vs.get(i).unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        matches!(self, Value::String(s) if s == other)
    }
}

impl PartialEq<f64> for Value {
    fn eq(&self, other: &f64) -> bool {
        matches!(self, Value::Number(n) if n == other)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<f64> for Value {
    fn from(n: f64) -> Value {
        Value::Number(n)
    }
}

macro_rules! from_int {
    ($($t:ty),+) => {$(
        impl From<$t> for Value {
            fn from(n: $t) -> Value {
                Value::Number(n as f64)
            }
        }
    )+};
}

from_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::String(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::String(s)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(vs: Vec<T>) -> Value {
        Value::Array(vs.into_iter().map(Into::into).collect())
    }
}

/// Build an object value from `(key, value)` pairs in order.
pub fn object<const N: usize>(members: [(&str, Value); N]) -> Value {
    Value::Object(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Where and why parsing stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub at: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parse an untrusted byte buffer: UTF-8 is validated first (failure
/// reported at the first invalid byte), then parsed like [`from_str`].
/// Never panics, whatever the input.
pub fn from_slice(input: &[u8]) -> Result<Value, ParseError> {
    let s = std::str::from_utf8(input).map_err(|e| ParseError {
        at: e.valid_up_to(),
        message: "invalid UTF-8".to_string(),
    })?;
    from_str(s)
}

/// Parse a complete JSON document (trailing whitespace allowed).
pub fn from_str(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        text: input,
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    /// The document; a run between two ASCII bytes slices it whole.
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            at: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b'[') => self.nested(Parser::array),
            Some(b'{') => self.nested(Parser::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Run a container parser one nesting level deeper, enforcing
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        inner: fn(&mut Self) -> Result<Value, ParseError>,
    ) -> Result<Value, ParseError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err("nesting deeper than MAX_DEPTH"));
        }
        let v = inner(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut vs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(vs));
        }
        loop {
            self.skip_ws();
            vs.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(vs));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut kv = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(kv));
        }
        loop {
            self.skip_ws();
            let k = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            kv.push((k, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(kv));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            // Copy unescaped runs wholesale: they end at ASCII bytes.
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                self.pos += 1;
            }
            let run = self.text.get(start..self.pos);
            s.push_str(run.ok_or_else(|| self.err("invalid UTF-8 in string"))?);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("truncated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'u' => {
                            let cp = self.hex4()?;
                            // Surrogate pairs for astral-plane characters.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                cp
                            };
                            s.push(
                                char::from_u32(c)
                                    .ok_or_else(|| self.err("invalid unicode escape"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let c = self
                .peek()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = (c as char)
                .to_digit(16)
                .ok_or_else(|| self.err("bad hex digit"))?;
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, ParseError> {
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
        self.text
            .get(start..self.pos)
            .and_then(|text| text.parse::<f64>().ok())
            .map(Value::Number)
            .ok_or_else(|| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let v = from_str(r#"{"a":[1,2.5,-3e2],"b":{"c":"x\ny\"z"},"d":null,"e":true}"#).unwrap();
        assert_eq!(v["a"][1], 2.5);
        assert_eq!(v["a"][2], -300.0);
        assert_eq!(v["b"]["c"].as_str().unwrap(), "x\ny\"z");
        assert_eq!(v["d"], Value::Null);
        assert_eq!(v["e"].as_bool(), Some(true));
        assert_eq!(v["missing"], Value::Null);
    }

    #[test]
    fn roundtrips_compact_and_pretty() {
        let v = object([
            ("id", "F01".into()),
            ("rows", vec!["42", "43"].into()),
            ("n", 7u32.into()),
            ("x", 0.125.into()),
        ]);
        for text in [v.to_json(), v.to_json_pretty()] {
            let back = from_str(&text).unwrap();
            assert_eq!(back, v);
        }
        assert!(v.to_json_pretty().contains("\"F01\""));
    }

    #[test]
    fn pretty_at_a_depth_is_the_nested_rendering() {
        let inner = from_str(r#"{"a":[1,[],{}],"b":{"c":"x\ny"},"d":[[2]]}"#).unwrap();
        for v in [inner, Value::Null, Value::Array(vec![]), "s".into()] {
            let one = object([("k", v.clone())]).to_json_pretty();
            assert_eq!(one, format!("{{\n  \"k\": {}\n}}", v.to_json_pretty_at(1)));
            let two = object([("o", object([("k", v.clone())]))]).to_json_pretty();
            assert!(two.contains(&format!("\"k\": {}\n", v.to_json_pretty_at(2))));
        }
    }

    #[test]
    fn unicode_escapes() {
        let v = from_str(r#""é😀""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "é😀");
        let back = from_str(&v.to_json()).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_str("{").is_err());
        assert!(from_str("[1,]").is_err());
        assert!(from_str("nul").is_err());
        assert!(from_str("1 2").is_err());
        assert!(from_str(r#""unterminated"#).is_err());
    }

    #[test]
    fn depth_limit_rejects_instead_of_overflowing() {
        // One level under the cap parses; one over errors cleanly.
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(from_str(&ok).is_ok());
        let deep = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        let err = from_str(&deep).unwrap_err();
        assert!(err.message.contains("MAX_DEPTH"), "{err}");
        // Mixed object/array nesting counts every container level.
        let mixed = "{\"k\":".repeat(70) + &"[".repeat(70);
        assert!(from_str(&mixed).is_err());
    }

    #[test]
    fn from_slice_handles_arbitrary_bytes() {
        assert_eq!(from_slice(b"[1,2]").unwrap(), from_str("[1,2]").unwrap());
        let err = from_slice(&[b'"', 0xff, 0xfe, b'"']).unwrap_err();
        assert!(err.message.contains("UTF-8"));
        assert_eq!(err.at, 1);
        assert!(from_slice(&[]).is_err());
    }

    #[test]
    fn integers_print_without_fraction() {
        assert_eq!(Value::Number(3.0).to_json(), "3");
        assert_eq!(Value::Number(3.5).to_json(), "3.5");
        assert_eq!(Value::Number(-0.0).to_json(), "0");
    }
}
