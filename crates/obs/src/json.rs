//! The workspace's one JSON codec: a hand-rolled encoder and decoder.
//!
//! The offline-build rule (no `serde`, no crates.io) means the workspace
//! carries its own JSON, and it carries exactly one: the serve wire
//! protocol, telemetry snapshots, the lint gate's `--json` lines and the
//! bench reports all build a [`Value`] and render it here, so anything one
//! of them writes, [`parse`] reads back. Design points:
//!
//! * **Objects keep insertion order** in a `Vec<(String, Value)>` — the
//!   protocol never needs keyed maps and ordered pairs render
//!   deterministically (responses are byte-stable for identical inputs,
//!   which the plan cache exploits by caching rendered strings).
//! * **Numbers are `f64`** — every quantity in the system is; integers
//!   round-trip exactly up to 2⁵³ and the encoder prints them without a
//!   decimal point. Non-finite numbers encode as `null` (JSON has no NaN).
//! * **Two layouts, one writer** — [`Value::render`] is compact and
//!   single-line (wire frames, JSON lines); [`Value::render_pretty`]
//!   indents by two spaces (the committed `BENCH_*.json` reports). Both
//!   share number formatting and string escaping.
//! * **Depth-limited parsing** (64 levels) so a hostile request cannot
//!   overflow the stack; the server separately bounds line length.

use std::fmt;

/// Maximum nesting depth the parser accepts.
const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in insertion order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a key in an object (first match); `None` for non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a finite float, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Convenience constructor for an object.
    pub fn obj(fields: Vec<(&str, Value)>) -> Value {
        Value::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Convenience constructor for a string.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// Renders the value as compact single-line JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// Renders the value with two-space indentation, one element per
    /// line; empty arrays and objects stay `[]` and `{}`.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out
    }

    /// `indent` is `None` for the compact layout, or the nesting depth of
    /// this value for the pretty one.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        let inner = indent.map(|depth| depth + 1);
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(x) if !x.is_finite() => out.push_str("null"),
            Value::Num(x) => {
                // Integers in f64 range print without a decimal point.
                if x.fract() == 0.0 && x.abs() < 9.0e15 {
                    out.push_str(&format!("{}", *x as i64));
                } else {
                    out.push_str(&format!("{x}"));
                }
            }
            Value::Str(s) => write_escaped(s, out),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, inner);
                    item.write(out, inner);
                }
                if !items.is_empty() {
                    newline(out, indent);
                }
                out.push(']');
            }
            Value::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, inner);
                    write_escaped(k, out);
                    out.push_str(if indent.is_some() { ": " } else { ":" });
                    v.write(out, inner);
                }
                if !fields.is_empty() {
                    newline(out, indent);
                }
                out.push('}');
            }
        }
    }
}

/// A line break indented to `indent` in the pretty layout; nothing in the
/// compact one.
fn newline(out: &mut String, indent: Option<usize>) {
    if let Some(depth) = indent {
        out.push('\n');
        for _ in 0..depth {
            out.push_str("  ");
        }
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure with its byte offset.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Byte offset of the failure in the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Parses one JSON document, requiring it to span the whole input
/// (trailing whitespace allowed).
///
/// # Errors
///
/// Returns [`ParseError`] on malformed input, nesting beyond 64 levels,
/// or trailing non-whitespace.
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut parser = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    parser.skip_ws();
    let value = parser.value(0)?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(parser.err("trailing characters after the document"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.into(),
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

    fn eat(&mut self, expected: u8) -> Result<(), ParseError> {
        if self.peek() == Some(expected) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", expected as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
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
                            let unit = self.hex4()?;
                            // Decode surrogate pairs; lone surrogates are
                            // replaced rather than rejected.
                            let ch = if (0xd800..0xdc00).contains(&unit) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let low = self.hex4()?;
                                    let combined = 0x10000
                                        + ((u32::from(unit) - 0xd800) << 10)
                                        + (u32::from(low) - 0xdc00);
                                    char::from_u32(combined).unwrap_or('\u{fffd}')
                                } else {
                                    '\u{fffd}'
                                }
                            } else {
                                char::from_u32(u32::from(unit)).unwrap_or('\u{fffd}')
                            };
                            out.push(ch);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so the
                    // bytes are valid UTF-8 by construction; report rather
                    // than crash if that ever stops holding).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest)
                        .map_err(|_| self.err("invalid UTF-8 in string"))?;
                    let Some(ch) = s.chars().next() else {
                        return Err(self.err("unterminated string"));
                    };
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u16, ParseError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("non-ASCII in \\u escape"))?;
        let unit = u16::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(unit)
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("non-ASCII in number"))?;
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err(format!("invalid number '{text}'")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_nested_document() {
        let text = r#"{"id":7,"q":"mep","scenario":{"irradiance":0.5,"flags":[true,false,null],"label":"g=\"half\"\n"}}"#;
        let value = parse(text).unwrap();
        assert_eq!(
            value.get("q").and_then(Value::as_str),
            Some("mep"),
            "string field"
        );
        assert_eq!(
            value
                .get("scenario")
                .and_then(|s| s.get("irradiance"))
                .and_then(Value::as_f64),
            Some(0.5)
        );
        // render → parse is identity on the tree.
        assert_eq!(parse(&value.render()).unwrap(), value);
    }

    #[test]
    fn numbers_parse_in_all_standard_forms() {
        for (text, expected) in [
            ("0", 0.0),
            ("-12", -12.0),
            ("3.25", 3.25),
            ("1e-3", 1e-3),
            ("6.02E23", 6.02e23),
        ] {
            assert_eq!(parse(text).unwrap(), Value::Num(expected), "{text}");
        }
    }

    #[test]
    fn integers_render_without_decimal_point() {
        assert_eq!(Value::Num(42.0).render(), "42");
        assert_eq!(Value::Num(0.5).render(), "0.5");
        assert_eq!(Value::Num(f64::NAN).render(), "null");
    }

    #[test]
    fn escapes_and_unicode_round_trip() {
        let value = parse(r#""aébA 😀 \\n""#).unwrap();
        assert_eq!(value, Value::Str("aébA 😀 \\n".to_string()));
        let rendered = Value::Str("tab\there\"q\"".to_string()).render();
        assert_eq!(parse(&rendered).unwrap().as_str(), Some("tab\there\"q\""));
        // Quotes, backslashes, newlines and other control characters.
        assert_eq!(
            Value::str("a\"b\\c\nd\u{1}").render(),
            "\"a\\\"b\\\\c\\nd\\u0001\""
        );
    }

    #[test]
    fn malformed_inputs_error_with_offsets() {
        for text in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "tru",
            "\"unterminated",
            "1 2",
            "{\"a\":1,}",
            "nul",
        ] {
            assert!(parse(text).is_err(), "{text:?} should fail");
        }
    }

    #[test]
    fn depth_limit_rejects_pathological_nesting() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&deep).is_err());
        let ok = "[".repeat(30) + &"]".repeat(30);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn object_lookup_is_first_match_in_order() {
        let value = parse(r#"{"a":1,"a":2}"#).unwrap();
        assert_eq!(value.get("a").and_then(Value::as_f64), Some(1.0));
        assert_eq!(value.get("missing"), None);
    }
}
