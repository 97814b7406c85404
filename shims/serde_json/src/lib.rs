//! Offline stand-in for `serde_json`: renders and parses the `serde` shim's
//! [`Value`] model as JSON text.

#![forbid(unsafe_code)]

use std::fmt;

use serde::{Deserialize, Serialize, Value};

/// A serialization or parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    message: String,
}

impl Error {
    fn new(message: impl Into<String>) -> Self {
        Error {
            message: message.into(),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for Error {}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Self {
        Error::new(e.to_string())
    }
}

/// Convenient result alias.
pub type Result<T> = std::result::Result<T, Error>;

/// Serializes a value to compact JSON.
///
/// # Errors
///
/// Never fails for the value model this shim supports; the `Result` mirrors
/// the real crate's signature.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    render(&value.to_value(), &mut out, None, 0);
    Ok(out)
}

/// Serializes a value to two-space-indented JSON.
///
/// # Errors
///
/// Never fails for the value model this shim supports.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    render(&value.to_value(), &mut out, Some(2), 0);
    Ok(out)
}

/// Parses JSON text into a value.
///
/// # Errors
///
/// Returns [`Error`] on malformed JSON or a shape mismatch with `T`.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T> {
    let value = parse(text)?;
    Ok(T::from_value(&value)?)
}

// ---- rendering -------------------------------------------------------------

fn render(value: &Value, out: &mut String, indent: Option<usize>, depth: usize) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::UInt(x) => out.push_str(&x.to_string()),
        Value::Int(x) => out.push_str(&x.to_string()),
        Value::Float(x) => {
            if x.is_finite() {
                let text = format!("{x}");
                out.push_str(&text);
                // Keep the float/integer distinction in the text so the value
                // re-parses with the same variant.
                if !text.contains(['.', 'e', 'E']) {
                    out.push_str(".0");
                }
            } else {
                // JSON has no NaN/inf; mirror serde_json's lossy `null`.
                out.push_str("null");
            }
        }
        Value::Str(s) => render_string(s, out),
        Value::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline(out, indent, depth + 1);
                render(item, out, indent, depth + 1);
            }
            if !items.is_empty() {
                newline(out, indent, depth);
            }
            out.push(']');
        }
        Value::Map(entries) => {
            out.push('{');
            for (i, (key, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline(out, indent, depth + 1);
                render_string(key, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                render(item, out, indent, depth + 1);
            }
            if !entries.is_empty() {
                newline(out, indent, depth);
            }
            out.push('}');
        }
    }
}

fn newline(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
    }
}

fn render_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---- parsing ---------------------------------------------------------------

/// Upstream `serde_json`'s nesting limit: an array or object nested this
/// deep is an error, so hostile input cannot overflow the parser's stack.
const RECURSION_LIMIT: u8 = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects that may still be opened inside the current one.
    remaining_depth: u8,
}

fn parse(text: &str) -> Result<Value> {
    let mut parser = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        remaining_depth: RECURSION_LIMIT,
    };
    parser.skip_ws();
    let value = parser.value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(Error::new(format!(
            "trailing characters at byte {}",
            parser.pos
        )));
    }
    Ok(value)
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<()> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected {:?} at byte {}, found {:?}",
                byte as char,
                self.pos,
                self.peek().map(|b| b as char)
            )))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(Error::new(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn value(&mut self) -> Result<Value> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.nested(Self::seq),
            Some(b'{') => self.nested(Self::map),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(Error::new(format!(
                "unexpected {:?} at byte {}",
                other.map(|b| b as char),
                self.pos
            ))),
        }
    }

    /// Parses an array or object one level deeper, failing once
    /// [`RECURSION_LIMIT`] levels are open.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value>) -> Result<Value> {
        self.remaining_depth -= 1;
        if self.remaining_depth == 0 {
            return Err(Error::new(format!(
                "recursion limit exceeded at byte {}",
                self.pos
            )));
        }
        let value = parse(self);
        self.remaining_depth += 1;
        value
    }

    fn seq(&mut self) -> Result<Value> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Seq(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                other => {
                    return Err(Error::new(format!(
                        "expected ',' or ']' at byte {}, found {:?}",
                        self.pos,
                        other.map(|b| b as char)
                    )));
                }
            }
        }
    }

    fn map(&mut self) -> Result<Value> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Map(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Map(entries));
                }
                other => {
                    return Err(Error::new(format!(
                        "expected ',' or '}}' at byte {}, found {:?}",
                        self.pos,
                        other.map(|b| b as char)
                    )));
                }
            }
        }
    }

    fn string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| Error::new("invalid utf-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self
                        .peek()
                        .ok_or_else(|| Error::new("unterminated escape sequence"))?;
                    self.pos += 1;
                    match escape {
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
                                return Err(Error::new("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .map_err(|_| Error::new("invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| Error::new("invalid \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not needed for this
                            // workspace's identifiers; reject them loudly.
                            let c = char::from_u32(code)
                                .ok_or_else(|| Error::new("unsupported \\u escape"))?;
                            out.push(c);
                        }
                        other => {
                            return Err(Error::new(format!("unknown escape \\{}", other as char)));
                        }
                    }
                }
                _ => return Err(Error::new("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::new("invalid number"))?;
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| Error::new(format!("invalid number {text:?}")))
        } else if let Some(stripped) = text.strip_prefix('-') {
            stripped
                .parse::<i64>()
                .map(|x| Value::Int(-x))
                .map_err(|_| Error::new(format!("invalid number {text:?}")))
        } else {
            text.parse::<u64>()
                .map(Value::UInt)
                .map_err(|_| Error::new(format!("invalid number {text:?}")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_round_trip_through_text() {
        let value = Value::Map(vec![
            ("name".into(), Value::Str("dual \"clique\"\n".into())),
            ("n".into(), Value::UInt(64)),
            ("offset".into(), Value::Int(-3)),
            ("p".into(), Value::Float(0.5)),
            ("whole".into(), Value::Float(4.0)),
            ("flag".into(), Value::Bool(true)),
            ("none".into(), Value::Null),
            (
                "seq".into(),
                Value::Seq(vec![Value::UInt(1), Value::UInt(2)]),
            ),
            ("empty".into(), Value::Seq(vec![])),
        ]);
        let compact = {
            let mut out = String::new();
            render(&value, &mut out, None, 0);
            out
        };
        assert_eq!(parse(&compact).unwrap(), value);
        let pretty = {
            let mut out = String::new();
            render(&value, &mut out, Some(2), 0);
            out
        };
        assert_eq!(parse(&pretty).unwrap(), value);
        assert!(pretty.contains('\n'));
    }

    #[test]
    fn typed_round_trip() {
        let xs: Vec<(usize, usize)> = vec![(1, 2), (3, 4)];
        let text = to_string(&xs).unwrap();
        assert_eq!(text, "[[1,2],[3,4]]");
        let back: Vec<(usize, usize)> = from_str(&text).unwrap();
        assert_eq!(back, xs);
    }

    #[test]
    fn malformed_inputs_error() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("nul").is_err());
        assert!(from_str::<bool>("7").is_err());
    }

    #[test]
    fn nesting_is_limited_like_upstream() {
        let nest = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(parse(&nest(RECURSION_LIMIT as usize - 1)).is_ok());
        let err = parse(&nest(RECURSION_LIMIT as usize)).unwrap_err();
        assert!(
            err.to_string().starts_with("recursion limit exceeded"),
            "{err}"
        );
        // Deep hostile input errors instead of overflowing the stack.
        let err = parse(&"[".repeat(200_000)).unwrap_err();
        assert!(
            err.to_string().starts_with("recursion limit exceeded"),
            "{err}"
        );
        let objects = "{\"a\":".repeat(200_000);
        assert!(parse(&objects).is_err());
        // The limit counts open levels, not values: siblings are free.
        let wide = format!("[{}[]]", "[[]],".repeat(1000));
        assert!(parse(&wide).is_ok());
    }

    #[test]
    fn whole_floats_reparse_as_floats() {
        let text = to_string(&4.0f64).unwrap();
        assert_eq!(text, "4.0");
        assert_eq!(parse(&text).unwrap(), Value::Float(4.0));
    }
}
