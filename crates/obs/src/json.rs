//! A tiny JSON subset codec, just big enough for the trace format.
//!
//! The hermetic build bans external dependencies, so the JSONL sink cannot
//! use a real JSON library. Trace records only ever need a *flat* object
//! whose values are unsigned integers, strings, booleans, or arrays of
//! integer arrays (the per-link charge lists) — this module writes and
//! parses exactly that subset and nothing more.
//!
//! The writer appends bytes to a caller-owned buffer and never allocates
//! on its own, so a trace sink can encode every record into one reused
//! line buffer.

use std::collections::btree_map::{BTreeMap, Entry};

use crate::event::LinkCharge;

/// A value in a trace record object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonValue {
    /// An unsigned integer.
    Int(u64),
    /// A string.
    Str(String),
    /// A boolean.
    Bool(bool),
    /// An array of integer arrays, e.g. `[[0,3,96],[1,1,96]]`.
    Arr(Vec<Vec<u64>>),
}

impl JsonValue {
    /// The integer payload, if this is an [`JsonValue::Int`].
    pub fn as_int(&self) -> Option<u64> {
        match self {
            JsonValue::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The string payload, if this is a [`JsonValue::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a [`JsonValue::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array payload, if this is an [`JsonValue::Arr`].
    pub fn as_arr(&self) -> Option<&[Vec<u64>]> {
        match self {
            JsonValue::Arr(a) => Some(a),
            _ => None,
        }
    }
}

/// Appends `s` to `out` as a JSON string literal (quoted, escaped).
///
/// Strings with nothing to escape — every string the simulator itself
/// writes — are copied in one piece.
fn write_str(out: &mut Vec<u8>, s: &str) {
    out.push(b'"');
    if !s.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20) {
        out.extend_from_slice(s.as_bytes());
    } else {
        for &b in s.as_bytes() {
            match b {
                b'"' => out.extend_from_slice(b"\\\""),
                b'\\' => out.extend_from_slice(b"\\\\"),
                b'\n' => out.extend_from_slice(b"\\n"),
                b'\r' => out.extend_from_slice(b"\\r"),
                b'\t' => out.extend_from_slice(b"\\t"),
                b if b < 0x20 => {
                    const HEX: &[u8; 16] = b"0123456789abcdef";
                    out.extend_from_slice(b"\\u00");
                    out.push(HEX[usize::from(b >> 4)]);
                    out.push(HEX[usize::from(b & 0xf)]);
                }
                // Multi-byte UTF-8 sequences never contain bytes below
                // 0x80, so they pass through unchanged.
                b => out.push(b),
            }
        }
    }
    out.push(b'"');
}

/// Appends the decimal digits of `v` to `out`.
fn write_u64(out: &mut Vec<u8>, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

/// An incremental writer for one flat JSON object, appending to a
/// caller-owned buffer.
///
/// Writing acquires no heap memory beyond what `out` needs to grow, so a
/// buffer reused across records stops allocating once it has held the
/// longest one.
#[derive(Debug)]
pub struct ObjectWriter<'a> {
    out: &'a mut Vec<u8>,
    empty: bool,
}

impl<'a> ObjectWriter<'a> {
    /// Starts an object at the end of `out`.
    pub fn new(out: &'a mut Vec<u8>) -> Self {
        out.push(b'{');
        ObjectWriter { out, empty: true }
    }

    /// Keys are fixed identifiers of the trace format, so they are copied
    /// without escaping.
    fn key(&mut self, key: &'static str) {
        debug_assert!(key.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_'));
        if !self.empty {
            self.out.push(b',');
        }
        self.empty = false;
        self.out.push(b'"');
        self.out.extend_from_slice(key.as_bytes());
        self.out.extend_from_slice(b"\":");
    }

    /// Writes an integer field.
    pub fn int(&mut self, key: &'static str, v: u64) -> &mut Self {
        self.key(key);
        write_u64(self.out, v);
        self
    }

    /// Writes a string field.
    pub fn str(&mut self, key: &'static str, v: &str) -> &mut Self {
        self.key(key);
        write_str(self.out, v);
        self
    }

    /// Writes a boolean field.
    pub fn bool(&mut self, key: &'static str, v: bool) -> &mut Self {
        self.key(key);
        self.out
            .extend_from_slice(if v { b"true" } else { b"false" });
        self
    }

    /// Writes per-link charges as an array of `[layer,line,bits]` rows.
    pub fn links(&mut self, key: &'static str, links: &[LinkCharge]) -> &mut Self {
        self.key(key);
        self.out.push(b'[');
        for (i, l) in links.iter().enumerate() {
            if i > 0 {
                self.out.push(b',');
            }
            self.out.push(b'[');
            write_u64(self.out, u64::from(l.layer));
            self.out.push(b',');
            write_u64(self.out, l.line as u64);
            self.out.push(b',');
            write_u64(self.out, l.bits);
            self.out.push(b']');
        }
        self.out.push(b']');
        self
    }

    /// Closes the object (no trailing newline).
    pub fn finish(self) {
        self.out.push(b'}');
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {} in trace record",
                b as char, self.pos
            ))
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = *self
                .bytes
                .get(self.pos)
                .ok_or("unterminated string in trace record")?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let e = *self
                        .bytes
                        .get(self.pos)
                        .ok_or("unterminated escape in trace record")?;
                    self.pos += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            self.pos += 4;
                            out.push(char::from_u32(code).ok_or("invalid \\u escape code point")?);
                        }
                        other => return Err(format!("unknown escape '\\{}'", other as char)),
                    }
                }
                b => {
                    // Re-decode multi-byte UTF-8 starting at this byte.
                    if b < 0x80 {
                        out.push(b as char);
                    } else {
                        let start = self.pos - 1;
                        let len = match b {
                            0xc0..=0xdf => 2,
                            0xe0..=0xef => 3,
                            _ => 4,
                        };
                        let chunk = self
                            .bytes
                            .get(start..start + len)
                            .ok_or("truncated UTF-8 sequence")?;
                        let s = std::str::from_utf8(chunk).map_err(|e| e.to_string())?;
                        out.push_str(s);
                        self.pos = start + len;
                    }
                }
            }
        }
    }

    fn literal(&mut self, word: &[u8]) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(format!("bad literal at byte {} in trace record", self.pos))
        }
    }

    fn parse_int(&mut self) -> Result<u64, String> {
        self.skip_ws();
        let start = self.pos;
        while self.bytes.get(self.pos).is_some_and(u8::is_ascii_digit) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(format!("expected integer at byte {start}"));
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .unwrap()
            .parse()
            .map_err(|e| format!("bad integer: {e}"))
    }

    fn parse_int_row(&mut self) -> Result<Vec<u64>, String> {
        self.expect(b'[')?;
        let mut row = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(row);
        }
        loop {
            row.push(self.parse_int()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(row);
                }
                _ => return Err("expected ',' or ']' in integer array".into()),
            }
        }
    }

    fn parse_value(&mut self) -> Result<JsonValue, String> {
        match self.peek().ok_or("unexpected end of trace record")? {
            b'"' => Ok(JsonValue::Str(self.parse_string()?)),
            b'0'..=b'9' => Ok(JsonValue::Int(self.parse_int()?)),
            b't' => self.literal(b"true").map(|()| JsonValue::Bool(true)),
            b'f' => self.literal(b"false").map(|()| JsonValue::Bool(false)),
            b'[' => {
                self.expect(b'[')?;
                let mut rows = Vec::new();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(rows));
                }
                loop {
                    rows.push(self.parse_int_row()?);
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(JsonValue::Arr(rows));
                        }
                        _ => return Err("expected ',' or ']' in array".into()),
                    }
                }
            }
            other => Err(format!(
                "unsupported JSON value starting '{}'",
                other as char
            )),
        }
    }
}

/// Parses one flat trace-record object into a key → value map.
///
/// Supports exactly the subset [`ObjectWriter`] emits; anything else (nested
/// objects, floats, nulls) is an error.
pub fn parse_object(line: &str) -> Result<BTreeMap<String, JsonValue>, String> {
    let mut p = Parser {
        bytes: line.as_bytes(),
        pos: 0,
    };
    p.expect(b'{')?;
    let mut map = BTreeMap::new();
    if p.peek() == Some(b'}') {
        return Ok(map);
    }
    loop {
        let key = p.parse_string()?;
        p.expect(b':')?;
        let value = p.parse_value()?;
        match map.entry(key) {
            Entry::Vacant(slot) => {
                slot.insert(value);
            }
            Entry::Occupied(slot) => {
                return Err(format!("duplicate key '{}' in trace record", slot.key()))
            }
        }
        match p.peek() {
            Some(b',') => p.pos += 1,
            Some(b'}') => {
                p.pos += 1;
                p.skip_ws();
                if p.pos != p.bytes.len() {
                    return Err("trailing bytes after trace record".into());
                }
                return Ok(map);
            }
            _ => return Err("expected ',' or '}' in trace record".into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn object(write: impl FnOnce(&mut ObjectWriter)) -> String {
        let mut out = Vec::new();
        let mut w = ObjectWriter::new(&mut out);
        write(&mut w);
        w.finish();
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn writer_and_parser_roundtrip() {
        let links = [
            LinkCharge {
                layer: 0,
                line: 3,
                bits: 48,
            },
            LinkCharge {
                layer: 1,
                line: 1,
                bits: 48,
            },
        ];
        let line = object(|w| {
            w.str("type", "cast")
                .int("bits", 96)
                .bool("hit", true)
                .links("links", &links);
        });
        assert_eq!(
            line,
            r#"{"type":"cast","bits":96,"hit":true,"links":[[0,3,48],[1,1,48]]}"#
        );
        let map = parse_object(&line).unwrap();
        assert_eq!(map["type"].as_str(), Some("cast"));
        assert_eq!(map["bits"].as_int(), Some(96));
        assert_eq!(map["hit"].as_bool(), Some(true));
        assert_eq!(
            map["links"].as_arr(),
            Some(&[vec![0, 3, 48], vec![1, 1, 48]][..])
        );
    }

    #[test]
    fn integers_match_display() {
        for v in [0, 1, 9, 10, 99, 100, 12_345, u64::from(u32::MAX), u64::MAX] {
            let mut out = Vec::new();
            write_u64(&mut out, v);
            assert_eq!(out, v.to_string().as_bytes());
        }
    }

    #[test]
    fn writer_appends_to_existing_bytes() {
        let mut out = b"x".to_vec();
        let mut w = ObjectWriter::new(&mut out);
        w.int("a", 1);
        w.finish();
        assert_eq!(out, br#"x{"a":1}"#);
    }

    #[test]
    fn string_escapes_roundtrip() {
        let nasty = "a\"b\\c\nd\te\u{1}ü→";
        let line = object(|w| {
            w.str("s", nasty);
        });
        let map = parse_object(&line).unwrap();
        assert_eq!(map["s"].as_str(), Some(nasty));
    }

    #[test]
    fn string_escape_bytes_are_pinned() {
        let line = object(|w| {
            w.str("s", "a\"b\\c\nd\te\r\u{1}\u{1f}ü→/");
        });
        assert_eq!(line, r#"{"s":"a\"b\\c\nd\te\r\u0001\u001fü→/"}"#);
    }

    #[test]
    fn empty_object_and_empty_array() {
        assert!(parse_object("{}").unwrap().is_empty());
        let map = parse_object(r#"{"links":[]}"#).unwrap();
        assert_eq!(map["links"].as_arr(), Some(&[][..]));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_object("").is_err());
        assert!(parse_object("{").is_err());
        assert!(parse_object(r#"{"a":1} trailing"#).is_err());
        assert!(parse_object(r#"{"a":{"nested":1}}"#).is_err());
        assert!(parse_object(r#"{"a":1.5}"#).is_err());
        assert!(parse_object(r#"{"a":tXYZ}"#).is_err());
        assert!(parse_object(r#"{"a":fnord}"#).is_err());
        assert!(parse_object(r#"{"a":tru}"#).is_err());
        assert!(parse_object(r#"{"a":f"#).is_err());
        assert!(parse_object(r#"{"proc":1,"proc":2}"#).is_err());
        assert_eq!(
            parse_object(r#"{"a":true,"b":false}"#).unwrap()["b"].as_bool(),
            Some(false)
        );
    }
}
