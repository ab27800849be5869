//! The workspace's one JSON codec: a minimal, deterministic document
//! model with its writer and parser.
//!
//! No JSON library resolves offline, so the workspace carries its own
//! value type. It lives at layer 0 so that both the BENCH reports (`tangram-harness`, which
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
//!
//! A TRACE line is a flat object of scalars, read hundreds of thousands
//! of times a log: [`parse_flat_object`] reads one through the same
//! string, number and keyword scanners as [`Json::parse`] but into a
//! caller-owned field list that borrows from the line, building no tree.

use std::borrow::Cow;
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
        let mut pos = 0usize;
        let value = parse_value(input, &mut pos, 0)?;
        skip_ws(input, &mut pos);
        if pos != input.len() {
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

/// The number of bytes [`write_string`] appends for `s`, so a writer can
/// size its output before rendering into it.
#[must_use]
pub fn escaped_len(s: &str) -> usize {
    let escapes = |c: char| match c {
        '"' | '\\' | '\n' | '\r' | '\t' => 2,
        c if (c as u32) < 0x20 => 6,
        c => c.len_utf8(),
    };
    2 + s.chars().map(escapes).sum::<usize>()
}

/// A value of a flat object: the scalars [`parse_flat_object`] accepts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Scalar<'a> {
    /// A string; borrowed from the input unless it carried an escape.
    Str(Cow<'a, str>),
    /// A non-negative integer.
    U64(u64),
    /// `true` / `false`.
    Bool(bool),
}

impl Scalar<'_> {
    /// The value as a `u64`, if it is an integer.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Scalar::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a string slice.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Scalar::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Scalar::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Reads `input` — one JSON object whose values are all strings,
/// non-negative integers or booleans — into `fields` (cleared first), in
/// document order with duplicate keys kept. Accepts exactly the documents
/// [`Json::parse`] reads as such an object, without building one.
///
/// # Errors
///
/// Returns [`Json::parse`]'s message for a syntax error, `expected a JSON
/// object` for any other document, and `field "k": unexpected …` naming
/// the first value that is not a scalar.
pub fn parse_flat_object<'a>(
    input: &'a str,
    fields: &mut Vec<(Cow<'a, str>, Scalar<'a>)>,
) -> Result<(), String> {
    fields.clear();
    let mut pos = 0usize;
    skip_ws(input, &mut pos);
    if peek(input, pos) != Some(b'{') {
        // Whatever is wrong with it as a document comes first.
        Json::parse(input)?;
        return Err("expected a JSON object".to_string());
    }
    scan_object(input, &mut pos, |key, pos| {
        skip_ws(input, pos);
        let value = if peek(input, *pos) == Some(b'"') {
            Scalar::Str(scan_string(input, pos)?)
        } else {
            match parse_value(input, pos, 1)? {
                Json::U64(v) => Scalar::U64(v),
                Json::Bool(b) => Scalar::Bool(b),
                other => return Err(format!("field {key:?}: unexpected {other:?}")),
            }
        };
        fields.push((key, value));
        Ok(())
    })?;
    skip_ws(input, &mut pos);
    if pos != input.len() {
        return Err(format!("trailing input at byte {pos}"));
    }
    Ok(())
}

// The scanners below walk `text` by byte offset. Every offset they stop
// at is just past an ASCII byte (or at either end), so slicing `text`
// there is always on a character boundary.

fn skip_ws(text: &str, pos: &mut usize) {
    let bytes = text.as_bytes();
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn peek(text: &str, pos: usize) -> Option<u8> {
    text.as_bytes().get(pos).copied()
}

fn expect(text: &str, pos: &mut usize, byte: u8) -> Result<(), String> {
    if peek(text, *pos) == Some(byte) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", byte as char, *pos))
    }
}

/// Deepest array/object nesting [`Json::parse`] accepts; the parser
/// recurses per level, so hostile input must not choose the stack depth.
const MAX_DEPTH: usize = 128;

fn parse_value(text: &str, pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(text, pos);
    if depth > MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", *pos));
    }
    match peek(text, *pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => parse_object(text, pos, depth),
        Some(b'[') => parse_array(text, pos, depth),
        Some(b'"') => Ok(Json::Str(scan_string(text, pos)?.into_owned())),
        Some(b't') => parse_keyword(text, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_keyword(text, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_keyword(text, pos, "null", Json::Null),
        Some(_) => parse_number(text, pos),
    }
}

fn parse_keyword(text: &str, pos: &mut usize, word: &str, value: Json) -> Result<Json, String> {
    if text.as_bytes()[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_number(text: &str, pos: &mut usize) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let start = *pos;
    let mut at = start;
    if bytes.get(at) == Some(&b'-') {
        at += 1;
    }
    // The value of a run of plain digits, as long as it fits a `u64`.
    let mut integer = (at == start).then_some(0u64);
    while let Some(&b) = bytes.get(at) {
        match b {
            b'0'..=b'9' => {
                let digit = u64::from(b - b'0');
                integer = integer.and_then(|v| v.checked_mul(10)?.checked_add(digit));
            }
            b'.' | b'e' | b'E' | b'+' | b'-' => integer = None,
            _ => break,
        }
        at += 1;
    }
    *pos = at;
    let number = &text[start..at];
    if number.is_empty() || number == "-" {
        return Err(format!("invalid number at byte {start}"));
    }
    if let Some(v) = integer {
        return Ok(Json::U64(v));
    }
    number
        .parse::<f64>()
        .map(Json::F64)
        .map_err(|_| format!("invalid number '{number}' at byte {start}"))
}

/// Scans one string literal; the result borrows from `text` unless an
/// escape had to be decoded.
fn scan_string<'a>(text: &'a str, pos: &mut usize) -> Result<Cow<'a, str>, String> {
    expect(text, pos, b'"')?;
    let bytes = text.as_bytes();
    // Where the run of plain bytes starting at `from` ends: at the next
    // quote or backslash, or at the end of the input.
    let run_end = |from: usize| {
        let stop = bytes[from..].iter().position(|b| matches!(b, b'"' | b'\\'));
        from + stop.unwrap_or(bytes.len() - from)
    };
    let start = *pos;
    *pos = run_end(start);
    if bytes.get(*pos) == Some(&b'"') {
        *pos += 1;
        return Ok(Cow::Borrowed(&text[start..*pos - 1]));
    }
    let mut out = String::from(&text[start..*pos]);
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(Cow::Owned(out));
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
                        // Through the bytes: the four after `\u` may end
                        // inside a multi-byte scalar, which is an error
                        // here, not a slicing panic.
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
                let start = *pos;
                *pos = run_end(start);
                out.push_str(&text[start..*pos]);
            }
        }
    }
}

fn parse_array(text: &str, pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(text, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(text, pos);
    if peek(text, *pos) == Some(b']') {
        *pos += 1;
        return Ok(Json::Array(items));
    }
    loop {
        items.push(parse_value(text, pos, depth + 1)?);
        skip_ws(text, pos);
        match peek(text, *pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Array(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_object(text: &str, pos: &mut usize, depth: usize) -> Result<Json, String> {
    let mut pairs = Vec::new();
    scan_object(text, pos, |key, pos| {
        pairs.push((key.into_owned(), parse_value(text, pos, depth + 1)?));
        Ok(())
    })?;
    Ok(Json::Object(pairs))
}

/// Walks one object: `{`, then for each member its key and `:`, a call
/// to `value` — which must consume the value at `pos` — and the `,` or
/// `}` after it. The one place object syntax lives, for the tree parser
/// and the flat reader alike.
fn scan_object<'a>(
    text: &'a str,
    pos: &mut usize,
    mut value: impl FnMut(Cow<'a, str>, &mut usize) -> Result<(), String>,
) -> Result<(), String> {
    expect(text, pos, b'{')?;
    skip_ws(text, pos);
    if peek(text, *pos) == Some(b'}') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(text, pos);
        let key = scan_string(text, pos)?;
        skip_ws(text, pos);
        expect(text, pos, b':')?;
        value(key, pos)?;
        skip_ws(text, pos);
        match peek(text, *pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(());
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
    fn escaped_len_counts_what_write_string_appends() {
        for s in ["", "plain", "q\" b\\ n\n r\r t\t \u{1} \u{1f} é ✓ 🎥 /"] {
            let mut out = String::new();
            write_string(&mut out, s);
            assert_eq!(escaped_len(s), out.len(), "{out}");
        }
    }

    #[test]
    fn flat_objects_read_in_document_order_borrowing_what_needs_no_decoding() {
        let line = " { \"a\" : 1 , \"b\\n\":\"x\\u00e9\",\"a\":true,\"c\":\"plain\" } ";
        let mut fields = vec![(Cow::Borrowed("stale"), Scalar::U64(0))];
        parse_flat_object(line, &mut fields).expect("flat");
        let want = [
            ("a", Scalar::U64(1)),
            ("b\n", Scalar::Str("xé".into())),
            ("a", Scalar::Bool(true)),
            ("c", Scalar::Str("plain".into())),
        ];
        assert_eq!(fields.len(), want.len());
        for ((key, value), (want_key, want_value)) in fields.iter().zip(&want) {
            assert_eq!((key.as_ref(), value), (*want_key, want_value));
        }
        let borrowed = |s: &Cow<str>| matches!(s, Cow::Borrowed(_));
        assert!(borrowed(&fields[0].0) && !borrowed(&fields[1].0));
        assert!(matches!(&fields[1].1, Scalar::Str(Cow::Owned(_))));
        assert!(matches!(&fields[3].1, Scalar::Str(Cow::Borrowed("plain"))));
        parse_flat_object("{}", &mut fields).expect("empty");
        assert!(fields.is_empty());
    }

    #[test]
    fn flat_objects_are_rejected_in_the_tree_parsers_words() {
        let mut fields = Vec::new();
        let mut err = |text| parse_flat_object(text, &mut fields).unwrap_err();
        // Not an object: the document's own defect first, then its shape.
        for text in ["", "nul", "[1,]", "\"abc", "12 34"] {
            assert_eq!(err(text), Json::parse(text).unwrap_err(), "{text}");
        }
        for text in ["[1,2]", "7", "\"s\"", "null"] {
            assert_eq!(err(text), "expected a JSON object", "{text}");
        }
        // An object: syntax errors as `Json::parse` words them.
        for text in [
            "{",
            "{\"a\"",
            "{\"a\":",
            "{\"a\":1",
            "{\"a\":1,}",
            "{\"a\":1} x",
            "{a:1}",
        ] {
            assert_eq!(err(text), Json::parse(text).unwrap_err(), "{text}");
        }
        // A value outside the scalar alphabet, named with its key.
        for (text, want) in [
            ("{\"k\":null}", "field \"k\": unexpected Null"),
            ("{\"k\":1.5}", "field \"k\": unexpected F64(1.5)"),
            ("{\"k\":-1}", "field \"k\": unexpected F64(-1.0)"),
            ("{\"k\":[1]}", "field \"k\": unexpected Array([U64(1)])"),
            ("{\"k\":{}}", "field \"k\": unexpected Object([])"),
            (
                "{\"k\":18446744073709551616}",
                "field \"k\": unexpected F64(1.8446744073709552e19)",
            ),
        ] {
            assert_eq!(err(text), want, "{text}");
        }
    }

    #[test]
    fn integers_parse_with_leading_zeros_and_up_to_u64_max() {
        assert_eq!(Json::parse("007").unwrap(), Json::U64(7));
        assert_eq!(
            Json::parse("18446744073709551615").unwrap(),
            Json::U64(u64::MAX)
        );
        assert_eq!(
            Json::parse("18446744073709551616").unwrap(),
            Json::F64(18_446_744_073_709_551_616.0)
        );
        assert_eq!(Json::parse("-0").unwrap(), Json::F64(-0.0));
        assert!(Json::parse("-").is_err() && Json::parse("1-").is_err());
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
