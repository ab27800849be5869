//! The workspace's one JSON codec: a minimal, deterministic document
//! model with its writer and parser.
//!
//! The vendored `serde` is a compile-only marker stub (no data model, no
//! `serde_json`), so the workspace carries its own value type. It lives
//! at layer 0 so that both the BENCH reports (`tangram-harness`, which
//! re-exports this module as `tangram_harness::json`) and the TRACE
//! lines (`tangram-trace`) read through the same parser and escape
//! strings the same way. Two properties matter more here than
//! generality:
//!
//! * **Determinism** — objects keep insertion order and floats print via
//!   Rust's shortest-round-trip formatting, so the same `BenchReport`
//!   always serialises to the same bytes (the parallel-equals-sequential
//!   acceptance check compares output byte-for-byte);
//! * **Round-tripping** — `parse(render(v)) == v`, which the CI gate
//!   relies on when it re-reads a checked-in baseline.
//!
//! Integers and floats are kept as distinct variants (`U64` vs `F64`) so
//! counters survive a round trip exactly even beyond 2^53. Parsing is
//! linear in the input length.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (counters, ids).
    U64(u64),
    /// Any other number.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; insertion-ordered, duplicate keys are not merged.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from key/value pairs.
    #[must_use]
    pub fn object(pairs: Vec<(&str, Json)>) -> Json {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Looks up a key in an object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is an integer.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as an `f64` (integers widen).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::F64(v) => Some(*v),
            Json::U64(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The value as a string slice.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Renders the value as pretty-printed JSON (2-space indent, `\n`
    /// line endings, no trailing newline).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::F64(v) => write_f64(out, *v),
            Json::Str(s) => write_string(out, s),
            Json::Array(items) => {
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
            Json::Object(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_string(out, key);
                    out.push_str(": ");
                    value.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns a message naming the byte offset of the first syntax
    /// error, or any trailing non-whitespace input.
    pub fn parse(input: &str) -> Result<Json, String> {
        let bytes = input.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing input at byte {pos}"));
        }
        Ok(value)
    }

    /// Where `self` and `other` differ, one line per differing path:
    /// `cells[3].metrics.violations: 12 → 13`. A key only one side has
    /// reads `absent` on the other; containers are summarised by size,
    /// and arrays of unequal length are compared over their common
    /// prefix. Empty when the documents are equal.
    #[must_use]
    pub fn diff(&self, other: &Json) -> Vec<String> {
        let mut lines = Vec::new();
        self.diff_at("", other, &mut lines);
        lines
    }

    fn diff_at(&self, path: &str, other: &Json, lines: &mut Vec<String>) {
        fn brief(value: Option<&Json>) -> String {
            match value {
                None => "absent".to_string(),
                Some(Json::Array(items)) => format!("[{} items]", items.len()),
                Some(Json::Object(pairs)) => format!("{{{} keys}}", pairs.len()),
                Some(scalar) => scalar.render(),
            }
        }
        let differ = |path: &str, a, b| format!("{path}: {} → {}", brief(a), brief(b));
        match (self, other) {
            (Json::Object(ours), Json::Object(theirs)) => {
                let added = theirs.iter().filter(|(key, _)| self.get(key).is_none());
                for (key, _) in ours.iter().chain(added) {
                    let dot = if path.is_empty() { "" } else { "." };
                    let path = format!("{path}{dot}{key}");
                    match (self.get(key), other.get(key)) {
                        (Some(a), Some(b)) => a.diff_at(&path, b, lines),
                        (a, b) => lines.push(differ(&path, a, b)),
                    }
                }
            }
            (Json::Array(ours), Json::Array(theirs)) => {
                if ours.len() != theirs.len() {
                    lines.push(differ(path, Some(self), Some(other)));
                }
                for (i, (a, b)) in ours.iter().zip(theirs).enumerate() {
                    a.diff_at(&format!("{path}[{i}]"), b, lines);
                }
            }
            (a, b) if a != b => lines.push(differ(path, Some(a), Some(b))),
            _ => {}
        }
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        // `{:?}` is Rust's shortest representation that round-trips the
        // exact bit pattern; it always includes a '.' or an exponent, so
        // the parser can tell it apart from an integer.
        let _ = write!(out, "{v:?}");
    } else {
        // JSON has no Inf/NaN; null is the conventional stand-in.
        out.push_str("null");
    }
}

/// Appends `s` as a JSON string literal — the one escaper every writer
/// in the workspace shares.
pub fn write_string(out: &mut String, s: &str) {
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

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, byte: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == byte {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", byte as char, *pos))
    }
}

/// Deepest array/object nesting [`Json::parse`] accepts; the parser
/// recurses per level, so hostile input must not choose the stack depth.
const MAX_DEPTH: usize = 128;

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    if depth > MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", *pos));
    }
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => parse_object(bytes, pos, depth),
        Some(b'[') => parse_array(bytes, pos, depth),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_keyword(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_keyword(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_keyword(bytes: &[u8], pos: &mut usize, word: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut float = false;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| "bad utf8".to_string())?;
    if text.is_empty() || text == "-" {
        return Err(format!("invalid number at byte {start}"));
    }
    if !float {
        if let Ok(v) = text.parse::<u64>() {
            return Ok(Json::U64(v));
        }
    }
    text.parse::<f64>()
        .map(Json::F64)
        .map_err(|_| format!("invalid number '{text}' at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
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
                            .ok_or("truncated \\u escape")?;
                        let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the run up to the next quote or backslash. Both
                // are ASCII, so they never fall inside a multi-byte
                // scalar; validating the run alone keeps the parse
                // linear in the input.
                let start = *pos;
                while bytes.get(*pos).is_some_and(|b| !matches!(b, b'"' | b'\\')) {
                    *pos += 1;
                }
                let run = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| "bad utf8")?;
                out.push_str(run);
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Array(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth + 1)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Array(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut pairs = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Object(pairs));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos, depth + 1)?;
        pairs.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Object(pairs));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for v in [
            Json::Null,
            Json::Bool(true),
            Json::Bool(false),
            Json::U64(0),
            Json::U64(u64::MAX),
            Json::F64(0.1),
            Json::F64(-1.5e-9),
            Json::Str("hi \"there\"\nline".to_string()),
        ] {
            let text = v.render();
            assert_eq!(Json::parse(&text).unwrap(), v, "{text}");
        }
    }

    #[test]
    fn nested_document_round_trips() {
        let doc = Json::object(vec![
            ("name", Json::Str("smoke".into())),
            ("version", Json::U64(1)),
            (
                "cells",
                Json::Array(vec![
                    Json::object(vec![("x", Json::F64(0.25)), ("n", Json::U64(3))]),
                    Json::object(vec![]),
                ]),
            ),
            ("empty", Json::Array(vec![])),
        ]);
        let text = doc.render();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back, doc);
        // Determinism: rendering the parse reproduces identical bytes.
        assert_eq!(back.render(), text);
    }

    #[test]
    fn diff_names_each_differing_path() {
        let doc = |violations: u64, seeds: Vec<Json>, extra: Option<(&str, Json)>| {
            let mut metrics = vec![("violations", Json::U64(violations))];
            metrics.extend(extra);
            Json::object(vec![
                ("grid", Json::object(vec![("seeds", Json::Array(seeds))])),
                (
                    "cells",
                    Json::Array(vec![
                        Json::object(vec![]),
                        Json::object(vec![("metrics", Json::object(metrics))]),
                    ]),
                ),
            ])
        };
        let base = doc(12, vec![Json::U64(42)], None);
        assert!(base.diff(&base).is_empty(), "equal documents");
        // A nested scalar.
        let moved = doc(13, vec![Json::U64(42)], None);
        assert_eq!(base.diff(&moved), ["cells[1].metrics.violations: 12 → 13"]);
        // A key added, and — read the other way — removed.
        let wider = doc(12, vec![Json::U64(42)], Some(("dropped", Json::U64(3))));
        assert_eq!(base.diff(&wider), ["cells[1].metrics.dropped: absent → 3"]);
        assert_eq!(wider.diff(&base), ["cells[1].metrics.dropped: 3 → absent"]);
        // An array that grew: the length, then the common prefix.
        let longer = doc(12, vec![Json::U64(43), Json::U64(44)], None);
        assert_eq!(
            base.diff(&longer),
            [
                "grid.seeds: [1 items] → [2 items]",
                "grid.seeds[0]: 42 → 43"
            ]
        );
        // A number is not the string that spells it, nor a container.
        let stringly = doc(12, vec![Json::Str("42".into())], None);
        assert_eq!(base.diff(&stringly), ["grid.seeds[0]: 42 → \"42\""]);
        assert_eq!(Json::U64(1).diff(&base), [": 1 → {2 keys}"]);
    }

    #[test]
    fn floats_keep_exact_bits() {
        let v = Json::F64(0.1 + 0.2);
        let Json::F64(back) = Json::parse(&v.render()).unwrap() else {
            panic!("expected float");
        };
        assert_eq!(back.to_bits(), (0.1f64 + 0.2).to_bits());
    }

    #[test]
    fn integers_beyond_2_53_survive() {
        let v = Json::U64((1 << 60) + 7);
        assert_eq!(Json::parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn accessors() {
        let doc = Json::object(vec![("a", Json::U64(1)), ("b", Json::Str("x".into()))]);
        assert_eq!(doc.get("a").and_then(Json::as_u64), Some(1));
        assert_eq!(doc.get("a").and_then(Json::as_f64), Some(1.0));
        assert_eq!(doc.get("b").and_then(Json::as_str), Some("x"));
        assert!(doc.get("missing").is_none());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("'single'").is_err());
    }

    #[test]
    fn parse_rejects_bad_strings() {
        // Bad and truncated escapes, unterminated strings.
        for text in [r#""\x""#, r#""\u12""#, r#""\uzzzz""#, "\"abc", r#""abc\"#] {
            assert!(Json::parse(text).is_err(), "{text}");
        }
        // A `\u` escape may not swallow part of a multi-byte scalar.
        assert!(Json::parse("\"\\u00é\"").is_err());
    }

    #[test]
    fn strings_round_trip_every_escape_and_multibyte_scalars() {
        let v = Json::Str("q\" b\\ n\n r\r t\t \u{1} \u{1f} é ✓ 🎥 /".to_string());
        let text = v.render();
        assert_eq!(Json::parse(&text).unwrap(), v, "{text}");
        assert_eq!(
            Json::parse(r#""\/\b\f\u00e9""#).unwrap(),
            Json::Str("/\u{8}\u{c}é".to_string())
        );
    }

    #[test]
    fn nesting_is_bounded_not_stack_limited() {
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(Json::parse(&ok).is_ok());
        let hostile = "[".repeat(1_000_000);
        let err = Json::parse(&hostile).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
    }

    #[test]
    fn parses_standard_whitespace_and_negatives() {
        let doc = Json::parse("  { \"a\" : [ -1.5 , 2 ] }\n").unwrap();
        let arr = doc.get("a").and_then(Json::as_array).unwrap();
        assert_eq!(arr[0].as_f64(), Some(-1.5));
        assert_eq!(arr[1].as_u64(), Some(2));
    }

    #[test]
    fn non_finite_floats_render_as_null() {
        assert_eq!(Json::F64(f64::NAN).render(), "null");
        assert_eq!(Json::F64(f64::INFINITY).render(), "null");
    }
}
