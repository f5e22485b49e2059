//! Minimal JSON emission and parsing for machine-readable bench artifacts.
//!
//! The offline build has no `serde_json`. The harness writes JSON (for
//! `--json` dumps and `BENCH_legalize.json`) and reads it back for the
//! regression gate (`--baseline`), so a small value builder plus a
//! recursive-descent parser is all that is required.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, so without a cap one line of `[` from a
/// network client would overflow the stack; 128 is far beyond any
/// document this workspace reads or writes.
const MAX_NESTING: usize = 128;

/// A JSON value. Object keys keep insertion-independent (sorted) order so
/// emitted artifacts are byte-stable run to run.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any finite number; non-finite values emit as `null`.
    Num(f64),
    /// Integer emitted without a decimal point.
    Int(i64),
    /// String (escaped on emission).
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object with sorted keys.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// An empty object.
    pub fn obj() -> Json {
        Json::Obj(BTreeMap::new())
    }

    /// Insert a key into an object value; panics on non-objects
    /// (programmer error in the harness itself).
    pub fn set(&mut self, key: &str, value: impl Into<Json>) -> &mut Self {
        match self {
            Json::Obj(map) => {
                map.insert(key.to_string(), value.into());
            }
            other => panic!("Json::set on non-object {other:?}"),
        }
        self
    }

    /// Parses JSON text (anything [`Json::pretty`] emits, and ordinary
    /// JSON generally). Numbers with a fraction or exponent become
    /// [`Json::Num`], plain integers in `i64` range become [`Json::Int`] —
    /// so an integral `Num` like `2.0` (emitted as `2`) re-parses as
    /// `Int(2)`; read numbers through [`Json::as_f64`] to stay agnostic.
    ///
    /// # Errors
    ///
    /// A human-readable message with the byte offset of the first problem,
    /// including arrays and objects nested more than 128 levels deep.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Looks up a key in an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// Numeric view of [`Json::Num`] / [`Json::Int`].
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            Json::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// Pretty-print with two-space indentation and a trailing newline,
    /// matching what `serde_json::to_string_pretty` produced before.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Single-line emission with no whitespace — the newline-delimited
    /// JSON form the ECO serve protocol speaks. Object keys stay sorted,
    /// so the output is byte-stable for equal values.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Num(n) => {
                if n.is_finite() {
                    let _ = write!(out, "{n}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent + 1);
        let close = "  ".repeat(indent);
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Num(n) => {
                if n.is_finite() {
                    let _ = write!(out, "{n}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&pad);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&close);
                out.push(']');
            }
            Json::Obj(map) => {
                if map.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&pad);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&close);
                out.push('}');
            }
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("expected '{word}' at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    /// Parses one array or object a level deeper, refusing to go past
    /// [`MAX_NESTING`] before the recursion can exhaust the stack.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_NESTING {
            return Err(format!(
                "nesting deeper than {MAX_NESTING} at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
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
            self.skip_ws();
            map.insert(key, self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| format!("bad \\u at byte {}", self.pos))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u at byte {}", self.pos))?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| format!("bad \\u at byte {}", self.pos))?,
                            );
                        }
                        other => {
                            return Err(format!("bad escape '\\{}'", other as char));
                        }
                    }
                }
                Some(b) if b < 0x80 => {
                    out.push(b as char);
                    self.pos += 1;
                }
                Some(b) => {
                    // Consume one multi-byte UTF-8 scalar. Validate only the
                    // scalar's own bytes — validating the whole remaining
                    // input per character would make parsing quadratic.
                    let len = match b {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        0xF0..=0xF7 => 4,
                        _ => return Err("invalid utf-8".to_string()),
                    };
                    let scalar = self
                        .bytes
                        .get(self.pos..self.pos + len)
                        .and_then(|s| std::str::from_utf8(s).ok())
                        .ok_or_else(|| "invalid utf-8".to_string())?;
                    out.push(scalar.chars().next().unwrap());
                    self.pos += len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut fractional = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    fractional = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        if !fractional {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number '{text}' at byte {start}"))
    }
}

fn write_escaped(out: &mut String, s: &str) {
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

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::Int(v)
    }
}
impl From<i32> for Json {
    fn from(v: i32) -> Json {
        Json::Int(i64::from(v))
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Int(v as i64)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::Int(i64::from(v))
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Int(v as i64)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}
impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::{Json, MAX_NESTING};

    #[test]
    fn emits_sorted_pretty_objects() {
        let mut o = Json::obj();
        o.set("zeta", 1i64)
            .set("alpha", "x\"y")
            .set("list", vec![1i64, 2]);
        let text = o.pretty();
        assert_eq!(
            text,
            "{\n  \"alpha\": \"x\\\"y\",\n  \"list\": [\n    1,\n    2\n  ],\n  \"zeta\": 1\n}\n"
        );
    }

    #[test]
    fn parse_round_trips_pretty_output() {
        let mut phases = Json::obj();
        phases.set("enumerate_s", 0.25f64).set("calls", 42i64);
        let mut o = Json::obj();
        o.set("name", "bench \"x\"\n")
            .set("ok", true)
            .set("none", Json::Null)
            .set("neg", -17i64)
            .set("phases", phases)
            .set("trace", vec![1.5f64, 2.25]);
        let parsed = Json::parse(&o.pretty()).unwrap();
        assert_eq!(parsed, o);
        assert_eq!(
            parsed
                .get("phases")
                .and_then(|p| p.get("calls"))
                .and_then(Json::as_f64),
            Some(42.0)
        );
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1, 2,]").is_err());
        assert!(Json::parse("\"open").is_err());
        assert!(Json::parse("{} extra").is_err());
        assert!(Json::parse("nulL").is_err());
    }

    #[test]
    fn parse_caps_nesting_depth() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(Json::parse(&nested(MAX_NESTING)).is_ok());
        let err = Json::parse(&nested(MAX_NESTING + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than 128"), "{err}");
        let objects = "{\"a\":".repeat(MAX_NESTING + 1) + "1" + &"}".repeat(MAX_NESTING + 1);
        assert!(Json::parse(&objects).is_err());
        // One line of `[` far deeper than any stack would hold is a plain
        // error, not a crash.
        assert!(Json::parse(&"[".repeat(200_000)).is_err());
    }

    #[test]
    fn compact_is_single_line_and_round_trips() {
        let mut o = Json::obj();
        o.set("id", 7u64)
            .set("applied", true)
            .set("edits", vec![1i64, 2])
            .set("reject", Json::Null)
            .set("note", "a\"b");
        let line = o.compact();
        assert!(!line.contains('\n'));
        assert_eq!(
            line,
            "{\"applied\":true,\"edits\":[1,2],\"id\":7,\"note\":\"a\\\"b\",\"reject\":null}"
        );
        assert_eq!(Json::parse(&line).unwrap(), o);
    }

    #[test]
    fn numbers_and_empties() {
        let mut o = Json::obj();
        o.set("nan", f64::NAN)
            .set("pi", 3.5f64)
            .set("none", Json::Null)
            .set("empty", Json::obj())
            .set("earr", Json::Arr(vec![]));
        let text = o.pretty();
        assert!(text.contains("\"nan\": null"));
        assert!(text.contains("\"pi\": 3.5"));
        assert!(text.contains("\"empty\": {}"));
        assert!(text.contains("\"earr\": []"));
    }
}
