//! Minimal JSON value type, writer, and parser.
//!
//! The workspace builds offline (no serde); the BENCH_*.json schema only
//! needs objects, arrays, strings, numbers, booleans, and null. Objects
//! preserve insertion order so emitted files are deterministic
//! byte-for-byte given equal values, and numbers round-trip exactly
//! (integers print without a fraction; floats print with Rust's shortest
//! round-trippable `{:?}` form).

use std::fmt::Write as _;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number. Stored as `f64`; the schema's counters stay far below
    /// 2^53 so the representation is exact.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Member lookup on an object; `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Follows a dot-separated path of object keys, e.g.
    /// `"paging.page_reads"`.
    pub fn at(&self, path: &str) -> Option<&Json> {
        path.split('.').try_fold(self, |v, key| v.get(key))
    }

    /// Where `self` and `other` first differ, as a jq-style path from the
    /// root (`.paging.page_reads`, `.algorithms[2].estimates[0]`; the root
    /// itself is `""`), or `None` when they are equal. Numbers compare by
    /// their bits. Object members compare by key, so member order does not
    /// matter; a key on one side only is a difference at that key.
    pub fn first_difference(&self, other: &Json) -> Option<String> {
        let mut path = String::new();
        differs(self, other, &mut path).then_some(path)
    }

    /// The value as `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as `u64`, if it is a non-negative integral number below
    /// 2^64.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            // `u64::MAX as f64` rounds up to 2^64, so the bound is exclusive.
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x < u64::MAX as f64 => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    /// The value as `&str`, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a slice, if it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Pretty-prints with two-space indentation and a trailing newline.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => write_number(out, *x),
            Json::Str(s) => write_string(out, s),
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
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_string(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }

    /// Parses a JSON document (the full input must be one value plus
    /// whitespace).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(JsonError::at(pos, "trailing characters after document"));
        }
        Ok(value)
    }
}

/// [`Json::first_difference`]'s walk: appends to `path` while descending.
/// On `false` the path is left as it came in; on `true` it names the
/// difference.
fn differs(a: &Json, b: &Json, path: &mut String) -> bool {
    let len = path.len();
    match (a, b) {
        (Json::Num(x), Json::Num(y)) => x.to_bits() != y.to_bits(),
        (Json::Arr(xs), Json::Arr(ys)) => {
            for (i, (x, y)) in xs.iter().zip(ys).enumerate() {
                let _ = write!(path, "[{i}]");
                if differs(x, y, path) {
                    return true;
                }
                path.truncate(len);
            }
            xs.len() != ys.len()
        }
        (Json::Obj(xs), Json::Obj(ys)) => {
            for (k, x) in xs {
                path.push('.');
                path.push_str(k);
                if b.get(k).is_none_or(|y| differs(x, y, path)) {
                    return true;
                }
                path.truncate(len);
            }
            match ys.iter().find(|(k, _)| a.get(k).is_none()) {
                Some((k, _)) => {
                    path.push('.');
                    path.push_str(k);
                    true
                }
                None => false,
            }
        }
        _ => a != b,
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_number(out: &mut String, x: f64) {
    if !x.is_finite() {
        // JSON has no Inf/NaN; the schema encodes them as null upstream,
        // this is a safety net.
        out.push_str("null");
    } else if x.fract() == 0.0 && x.abs() < 9.0e15 {
        let _ = write!(out, "{}", x as i64);
    } else {
        let _ = write!(out, "{x:?}");
    }
}

fn write_string(out: &mut String, s: &str) {
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

/// Parse failure: byte offset plus message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl JsonError {
    fn at(offset: usize, message: impl Into<String>) -> Self {
        JsonError {
            offset,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, lit: &str) -> Result<(), JsonError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(JsonError::at(*pos, format!("expected `{lit}`")))
    }
}

/// Deepest nesting of arrays and objects the parser accepts. The BENCH
/// schema nests five levels; the limit stops hostile input from
/// overflowing the stack through `parse_value`'s recursion.
const MAX_DEPTH: usize = 64;

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    skip_ws(bytes, pos);
    if depth == MAX_DEPTH && matches!(bytes.get(*pos), Some(b'[' | b'{')) {
        return Err(JsonError::at(
            *pos,
            format!("nesting deeper than {MAX_DEPTH} levels"),
        ));
    }
    match bytes.get(*pos) {
        None => Err(JsonError::at(*pos, "unexpected end of input")),
        Some(b'n') => expect(bytes, pos, "null").map(|()| Json::Null),
        Some(b't') => expect(bytes, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(JsonError::at(*pos, "expected `,` or `]`")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, ":")?;
                let value = parse_value(bytes, pos, depth + 1)?;
                pairs.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => return Err(JsonError::at(*pos, "expected `,` or `}`")),
                }
            }
        }
        Some(_) => parse_number(bytes, pos).map(Json::Num),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(JsonError::at(*pos, "expected string"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(JsonError::at(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| JsonError::at(*pos, "bad \\u escape"))?;
                        // BMP only — the schema never emits surrogate pairs.
                        out.push(
                            char::from_u32(hex)
                                .ok_or_else(|| JsonError::at(*pos, "bad \\u code point"))?,
                        );
                        *pos += 4;
                    }
                    _ => return Err(JsonError::at(*pos, "bad escape")),
                }
                *pos += 1;
            }
            Some(&b) if b < 0x20 => return Err(JsonError::at(*pos, "raw control character")),
            Some(_) => {
                // Multi-byte UTF-8 sequences pass through unchanged.
                let start = *pos;
                *pos += 1;
                while *pos < bytes.len() && (bytes[*pos] & 0xC0) == 0x80 {
                    *pos += 1;
                }
                out.push_str(
                    std::str::from_utf8(&bytes[start..*pos])
                        .map_err(|_| JsonError::at(start, "invalid UTF-8"))?,
                );
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<f64, JsonError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let x: f64 = std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| JsonError::at(start, "invalid number"))?;
    // `1e999` parses to infinity, which the writer can only emit as `null`.
    if x.is_finite() {
        Ok(x)
    } else {
        Err(JsonError::at(start, "number out of range"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_document() {
        let doc = Json::obj(vec![
            ("schema_version", Json::Num(1.0)),
            ("name", Json::Str("ba_smoke \"quoted\"\n".into())),
            ("ok", Json::Bool(true)),
            ("missing", Json::Null),
            (
                "estimates",
                Json::Arr(vec![
                    Json::Num(123.0),
                    Json::Num(0.25),
                    Json::Num(-1.5e-9),
                    Json::Num(9_007_199_254_740_991.0),
                ]),
            ),
            (
                "nested",
                Json::obj(vec![
                    ("empty_arr", Json::Arr(vec![])),
                    ("empty_obj", Json::Obj(vec![])),
                ]),
            ),
        ]);
        let text = doc.to_pretty();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed, doc);
        // Idempotent: re-serializing the parse gives the same bytes.
        assert_eq!(parsed.to_pretty(), text);
    }

    #[test]
    fn integers_print_without_fraction() {
        let mut s = String::new();
        write_number(&mut s, 42.0);
        assert_eq!(s, "42");
        let mut s = String::new();
        write_number(&mut s, 0.5);
        assert_eq!(s, "0.5");
    }

    #[test]
    fn accessors_navigate_objects() {
        let doc = Json::obj(vec![
            ("a", Json::Num(3.0)),
            ("b", Json::Str("x".into())),
            ("c", Json::Arr(vec![Json::Num(1.0)])),
        ]);
        assert_eq!(doc.get("a").and_then(Json::as_u64), Some(3));
        assert_eq!(doc.get("a").and_then(Json::as_f64), Some(3.0));
        assert_eq!(doc.get("b").and_then(Json::as_str), Some("x"));
        assert_eq!(
            doc.get("c").and_then(Json::as_arr).map(<[Json]>::len),
            Some(1)
        );
        assert_eq!(doc.get("zzz"), None);
        assert_eq!(Json::Num(1.5).as_u64(), None);
        assert_eq!(Json::Num(-2.0).as_u64(), None);
        // 2^64 is one past u64::MAX: out of range, not saturated.
        assert_eq!(Json::Num(18_446_744_073_709_551_616.0).as_u64(), None);
        assert_eq!(
            Json::Num(9_223_372_036_854_775_808.0).as_u64(),
            Some(1 << 63)
        );
        let nested = Json::obj(vec![("outer", doc.clone())]);
        assert_eq!(nested.at("outer.a"), Some(&Json::Num(3.0)));
        assert_eq!(nested.at("outer"), Some(&doc));
        assert_eq!(nested.at("outer.a.deeper"), None);
        assert_eq!(nested.at("outer.zzz"), None);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["{", "[1,", "{\"a\" 1}", "tru", "\"unterminated", "1 2", ""] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should not parse");
        }
        // Infinity cannot be written back (the writer emits `null`).
        for bad in ["1e999", "-1e999", "[0, 2e400]"] {
            let err = Json::parse(bad).unwrap_err();
            assert!(err.message.contains("out of range"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn nesting_depth_is_bounded() {
        let nest = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Json::parse(&nest(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH, "{err}");
        // Deep enough to overflow a test thread's stack without the limit.
        for deep in ["[".repeat(10_000), "{\"a\":".repeat(10_000)] {
            let err = Json::parse(&deep).unwrap_err();
            assert!(err.message.contains("nesting"), "{err}");
        }
    }

    #[test]
    fn first_difference_names_the_differing_path() {
        let doc = Json::parse(r#"{"a": {"b": [1, 2, {"c": null}]}, "d": 0.5}"#).unwrap();
        assert_eq!(doc.first_difference(&doc.clone()), None);
        // Member order is not a difference.
        let reordered = Json::parse(r#"{"d": 0.5, "a": {"b": [1, 2, {"c": null}]}}"#).unwrap();
        assert_eq!(doc.first_difference(&reordered), None);
        for (other, path) in [
            (r#"{"a": {"b": [1, 3, {"c": null}]}, "d": 0.5}"#, ".a.b[1]"),
            (r#"{"a": {"b": [1, 2, {"c": 0}]}, "d": 0.5}"#, ".a.b[2].c"),
            (r#"{"a": {"b": [1, 2]}, "d": 0.5}"#, ".a.b"),
            (r#"{"a": {"b": [1, 2, {"c": null}]}}"#, ".d"),
            (
                r#"{"a": {"b": [1, 2, {"c": null}]}, "d": 0.5, "e": 1}"#,
                ".e",
            ),
            (r#"{"a": "b", "d": 0.5}"#, ".a"),
            ("[]", ""),
        ] {
            let other = Json::parse(other).unwrap();
            assert_eq!(doc.first_difference(&other).as_deref(), Some(path));
        }
        // Numbers compare by their bits: -0 is not 0.
        assert_eq!(
            Json::Num(0.0).first_difference(&Json::Num(-0.0)).as_deref(),
            Some("")
        );
    }

    #[test]
    fn parses_whitespace_and_escapes() {
        let v = Json::parse(" { \"k\" : [ 1 , \"a\\u0041\\n\" , null ] } ").unwrap();
        let arr = v.get("k").and_then(Json::as_arr).unwrap();
        assert_eq!(arr[1].as_str(), Some("aA\n"));
        assert_eq!(arr[2], Json::Null);
    }
}
