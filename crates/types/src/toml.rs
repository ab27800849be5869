//! A minimal, line-tracking TOML reader — the workspace's one reader of
//! the dialect its declared files are written in: scenario files
//! (`config/scenarios/*.toml`), the lint waiver list
//! (`config/lint_allow.toml`) and the crate manifests the DAG lint checks.
//!
//! Where [`crate::json`] optimises for byte-deterministic *output*, this
//! reader optimises for *diagnosable input*: every table header and
//! every `key = value` entry remembers the 1-based line it came from, and
//! the typed reads on [`TomlEntry`] and [`TomlTable`] name that line, so
//! a file that fails validation is rejected at the offending line.
//!
//! The dialect is the subset those files need — string / integer /
//! float / boolean scalars, single-line arrays, `#` comments, `[table]`
//! and `[[array-of-table]]` headers, and keys and table names that are
//! dotted paths of bare, `"basic"` or `'literal'` segments
//! (`rand.workspace = true`, `[target.'cfg(unix)'.dependencies]`). Within
//! a table a key may not repeat or be both a value and a prefix of
//! another key, and a plain table may not repeat; a dotted key and a
//! `[table.key]` header naming one value are *not* reconciled — a reader
//! walking the document sees both. Inline tables and multi-line values
//! are rejected with their line rather than misparsed.

/// A parse or structure error, carrying the 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TomlError {
    /// 1-based line the error was detected on.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl TomlError {
    /// An error at `line`.
    pub fn new(line: usize, message: impl Into<String>) -> TomlError {
        TomlError {
            line,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for TomlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.line, self.message)
    }
}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, TomlError> {
    Err(TomlError::new(line, message))
}

/// A TOML scalar or array value.
#[derive(Debug, Clone, PartialEq)]
pub enum TomlValue {
    /// A basic (double-quoted) string.
    Str(String),
    /// An integer.
    Int(i64),
    /// A float.
    Float(f64),
    /// A boolean.
    Bool(bool),
    /// A single-line array.
    Array(Vec<TomlValue>),
}

impl TomlValue {
    /// The value as a float (integers widen).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            TomlValue::Float(v) => Some(*v),
            TomlValue::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The value as a non-negative integer.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            TomlValue::Int(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The value as an array slice.
    #[must_use]
    pub fn as_array(&self) -> Option<&[TomlValue]> {
        match self {
            TomlValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// A short type name for error messages.
    #[must_use]
    pub fn type_name(&self) -> &'static str {
        match self {
            TomlValue::Str(_) => "string",
            TomlValue::Int(_) => "integer",
            TomlValue::Float(_) => "float",
            TomlValue::Bool(_) => "boolean",
            TomlValue::Array(_) => "array",
        }
    }
}

/// One `key = value` entry, with the line it was written on.
#[derive(Debug, Clone, PartialEq)]
pub struct TomlEntry {
    /// The key's segments, quotes removed: `rand.workspace` is
    /// `["rand", "workspace"]`, a plain key has one.
    pub path: Vec<String>,
    /// The parsed value.
    pub value: TomlValue,
    /// 1-based source line.
    pub line: usize,
}

/// The typed reads: each error names the entry's line and key and the
/// type found instead.
impl TomlEntry {
    /// The key in canonical form (`a.b`, `"needs quoting".b`).
    #[must_use]
    pub fn key(&self) -> String {
        render_path(&self.path)
    }

    fn typed<T>(&self, want: &str, got: Option<T>) -> Result<T, TomlError> {
        got.ok_or_else(|| {
            let found = self.value.type_name();
            let message = format!("key `{}`: expected {want}, got {found}", self.key());
            TomlError::new(self.line, message)
        })
    }

    /// The value as a string.
    pub fn str(&self) -> Result<&str, TomlError> {
        let text = match &self.value {
            TomlValue::Str(s) => Some(s.as_str()),
            _ => None,
        };
        self.typed("string", text)
    }

    /// The value as a float (integers widen); `inf` and `nan` are errors.
    pub fn f64(&self) -> Result<f64, TomlError> {
        let value = self.typed("number", self.value.as_f64())?;
        if value.is_finite() {
            Ok(value)
        } else {
            err(self.line, format!("key `{}` is not finite", self.key()))
        }
    }

    /// The value as a non-negative integer.
    pub fn u64(&self) -> Result<u64, TomlError> {
        self.typed("non-negative integer", self.value.as_u64())
    }

    /// The value as a boolean.
    pub fn bool(&self) -> Result<bool, TomlError> {
        let flag = match self.value {
            TomlValue::Bool(b) => Some(b),
            _ => None,
        };
        self.typed("boolean", flag)
    }

    /// The value as an array.
    pub fn array(&self) -> Result<&[TomlValue], TomlError> {
        self.typed("array", self.value.as_array())
    }
}

/// One `[name]` or `[[name]]` table, with its entries in file order.
#[derive(Debug, Clone, PartialEq)]
pub struct TomlTable {
    /// The name's segments, quotes removed: `[target.'cfg(unix)'.dependencies]`
    /// is `["target", "cfg(unix)", "dependencies"]`.
    pub path: Vec<String>,
    /// `true` for `[[name]]` array-of-table elements.
    pub is_array: bool,
    /// 1-based line of the header.
    pub line: usize,
    /// Entries under this header.
    pub entries: Vec<TomlEntry>,
}

impl TomlTable {
    /// The name in canonical form (`run`, `target."cfg(unix)".dependencies`).
    #[must_use]
    pub fn name(&self) -> String {
        render_path(&self.path)
    }

    /// The header in canonical form: `[run]`, `[[fault]]`.
    #[must_use]
    pub fn header(&self) -> String {
        if self.is_array {
            format!("[[{}]]", self.name())
        } else {
            format!("[{}]", self.name())
        }
    }

    /// Looks up an entry by its (single-segment) key.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&TomlEntry> {
        self.entries.iter().find(|e| e.path == [key])
    }

    /// The entry `key`, or an error at the header's line naming it.
    pub fn require(&self, key: &str) -> Result<&TomlEntry, TomlError> {
        self.get(key).ok_or_else(|| {
            let message = format!("[{}] is missing required key `{key}`", self.name());
            TomlError::new(self.line, message)
        })
    }

    /// Rejects the first entry whose key is not one of `allowed`, at
    /// that entry's line.
    pub fn check_keys(&self, allowed: &[&str]) -> Result<(), TomlError> {
        for entry in &self.entries {
            if !matches!(&entry.path[..], [key] if allowed.contains(&key.as_str())) {
                let key = entry.key();
                return err(
                    entry.line,
                    format!("unknown key `{key}` in {}", self.header()),
                );
            }
        }
        Ok(())
    }
}

/// A parsed document: root-level entries plus tables in file order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TomlDocument {
    /// Entries before the first table header.
    pub root: Vec<TomlEntry>,
    /// Tables in file order (`[[x]]` elements stay separate).
    pub tables: Vec<TomlTable>,
}

impl TomlDocument {
    /// Parses a document.
    ///
    /// # Errors
    ///
    /// Returns a [`TomlError`] naming the 1-based line of the first
    /// syntax problem, duplicate key, or duplicate plain table.
    pub fn parse(input: &str) -> Result<TomlDocument, TomlError> {
        let mut doc = TomlDocument::default();
        for (index, raw) in input.lines().enumerate() {
            let line_no = index + 1;
            let stripped = strip_comment(raw, line_no)?;
            let line = stripped.trim();
            if line.is_empty() {
                continue;
            }
            if line.starts_with('[') {
                doc.tables.push(table_header(line, line_no, &doc.tables)?);
            } else {
                let entry = parse_entry(line, line_no)?;
                let siblings = match doc.tables.last_mut() {
                    Some(table) => &mut table.entries,
                    None => &mut doc.root,
                };
                // `a` twice, or `a = 1` beside `a.b = 2`: either way the
                // shared prefix is defined twice.
                let shared = |e: &TomlEntry| {
                    let n = e.path.len().min(entry.path.len());
                    (e.path[..n] == entry.path[..n]).then_some(n)
                };
                if let Some((previous, n)) = siblings.iter().find_map(|e| Some((e, shared(e)?))) {
                    return err(
                        line_no,
                        format!(
                            "duplicate key `{}` (first defined on line {})",
                            render_path(&entry.path[..n]),
                            previous.line
                        ),
                    );
                }
                siblings.push(entry);
            }
        }
        Ok(doc)
    }

    /// The first `[name]` table with this (single-segment) name, if any.
    #[must_use]
    pub fn table(&self, name: &str) -> Option<&TomlTable> {
        self.tables.iter().find(|t| t.path == [name] && !t.is_array)
    }

    /// Every `[[name]]` element with this name, in file order.
    #[must_use]
    pub fn array_tables(&self, name: &str) -> Vec<&TomlTable> {
        self.tables
            .iter()
            .filter(|t| t.path == [name] && t.is_array)
            .collect()
    }

    /// Looks up a root-level entry by key.
    #[must_use]
    pub fn root_entry(&self, key: &str) -> Option<&TomlEntry> {
        self.root.iter().find(|e| e.path == [key])
    }
}

fn table_header(header: &str, line: usize, existing: &[TomlTable]) -> Result<TomlTable, TomlError> {
    let (name, is_array) = match header.strip_prefix("[[") {
        Some(inner) => (inner.strip_suffix("]]"), true),
        None => (header[1..].strip_suffix(']'), false),
    };
    let Some(name) = name.map(str::trim) else {
        let shape = if is_array { "[[table]]" } else { "[table]" };
        return err(line, format!("unterminated {shape} header"));
    };
    let mut pos = 0usize;
    let path = parse_path(name.as_bytes(), &mut pos, line)?;
    if path.is_empty() || pos != name.len() {
        return err(line, format!("invalid table name `{name}`"));
    }
    if let Some(previous) = existing.iter().find(|t| t.path == path) {
        // A plain table may appear once; only [[x]] elements repeat.
        if !is_array || !previous.is_array {
            return err(
                line,
                format!(
                    "table `{name}` already defined on line {} (use [[{name}]] for repetition)",
                    previous.line
                ),
            );
        }
    }
    Ok(TomlTable {
        path,
        is_array,
        line,
        entries: Vec::new(),
    })
}

fn is_bare_key_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b == b'-'
}

/// A key or table name in canonical form, for messages: segments
/// joined by `.`, each bare when it can be and double-quoted otherwise.
fn render_path(path: &[String]) -> String {
    let bare = |s: &str| !s.is_empty() && s.bytes().all(is_bare_key_byte);
    let segment = |s: &String| {
        if bare(s) {
            s.clone()
        } else {
            format!("\"{s}\"")
        }
    };
    path.iter().map(segment).collect::<Vec<_>>().join(".")
}

/// Removes a trailing `#` comment, respecting `"basic"` and `'literal'`
/// strings.
fn strip_comment(line: &str, line_no: usize) -> Result<&str, TomlError> {
    // The quote the scan is inside of, if any.
    let mut quote: Option<char> = None;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        match (quote, c) {
            (Some('"'), '\\') if !escaped => {
                escaped = true;
                continue;
            }
            (Some(open), c) if c == open && !escaped => quote = None,
            (None, '"' | '\'') => quote = Some(c),
            (None, '#') => return Ok(&line[..i]),
            _ => {}
        }
        escaped = false;
    }
    if quote.is_some() {
        return err(line_no, "unterminated string");
    }
    Ok(line)
}

/// Reads `segment(.segment)*` — bare, `"basic"` or `'literal'` segments,
/// blanks allowed around the dots — leaving `pos` after the path and any
/// blanks behind it. Where a segment should start and none does, the
/// result is the empty path.
fn parse_path(bytes: &[u8], pos: &mut usize, line_no: usize) -> Result<Vec<String>, TomlError> {
    let mut path = Vec::new();
    loop {
        skip_ws(bytes, pos);
        let segment = match bytes.get(*pos) {
            Some(b'"') => parse_string(bytes, pos, line_no)?,
            Some(b'\'') => {
                let start = *pos + 1;
                let Some(len) = bytes[start..].iter().position(|&b| b == b'\'') else {
                    return err(line_no, "unterminated string");
                };
                *pos = start + len + 1;
                String::from_utf8_lossy(&bytes[start..start + len]).into_owned()
            }
            _ => {
                let start = *pos;
                while bytes.get(*pos).is_some_and(|&b| is_bare_key_byte(b)) {
                    *pos += 1;
                }
                if start == *pos {
                    return Ok(Vec::new());
                }
                String::from_utf8_lossy(&bytes[start..*pos]).into_owned()
            }
        };
        path.push(segment);
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'.') {
            return Ok(path);
        }
        *pos += 1;
    }
}

fn parse_entry(line: &str, line_no: usize) -> Result<TomlEntry, TomlError> {
    let mut pos = 0usize;
    let path = parse_path(line.as_bytes(), &mut pos, line_no)?;
    if path.is_empty() || line.as_bytes().get(pos) != Some(&b'=') {
        return match line.find('=') {
            None => err(line_no, format!("expected `key = value`, got `{line}`")),
            Some(eq) => err(line_no, format!("invalid key `{}`", line[..eq].trim())),
        };
    }
    let value_text = line[pos + 1..].trim();
    if value_text.is_empty() {
        let key = render_path(&path);
        return err(line_no, format!("key `{key}` has no value"));
    }
    let mut pos = 0usize;
    let value = parse_value(value_text.as_bytes(), &mut pos, line_no)?;
    if value_text[pos..].trim().is_empty() {
        Ok(TomlEntry {
            path,
            value,
            line: line_no,
        })
    } else {
        err(
            line_no,
            format!("trailing input after value: `{}`", value_text[pos..].trim()),
        )
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, line_no: usize) -> Result<TomlValue, TomlError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => err(line_no, "missing value"),
        Some(b'"') => parse_string(bytes, pos, line_no).map(TomlValue::Str),
        Some(b'[') => parse_array(bytes, pos, line_no),
        Some(b'{') => err(line_no, "inline tables are not supported"),
        Some(b't') | Some(b'f') => parse_bool(bytes, pos, line_no),
        Some(_) => parse_number(bytes, pos, line_no),
    }
}

fn parse_bool(bytes: &[u8], pos: &mut usize, line_no: usize) -> Result<TomlValue, TomlError> {
    for (word, value) in [("true", true), ("false", false)] {
        if bytes[*pos..].starts_with(word.as_bytes()) {
            *pos += word.len();
            return Ok(TomlValue::Bool(value));
        }
    }
    err(line_no, "invalid literal (expected true/false)")
}

fn parse_string(bytes: &[u8], pos: &mut usize, line_no: usize) -> Result<String, TomlError> {
    *pos += 1; // opening quote
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return err(line_no, "unterminated string"),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    _ => return err(line_no, "unsupported string escape"),
                }
                *pos += 1;
            }
            Some(_) => {
                let rest = std::str::from_utf8(&bytes[*pos..]).map_err(|_| TomlError {
                    line: line_no,
                    message: "bad utf8".to_string(),
                })?;
                let c = rest.chars().next().expect("non-empty");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, line_no: usize) -> Result<TomlValue, TomlError> {
    *pos += 1; // opening bracket
    let mut items = Vec::new();
    loop {
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            None => return err(line_no, "unterminated array"),
            Some(b']') => {
                *pos += 1;
                return Ok(TomlValue::Array(items));
            }
            Some(_) => {
                items.push(parse_value(bytes, pos, line_no)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {}
                    None => return err(line_no, "unterminated array"),
                    Some(_) => return err(line_no, "expected `,` or `]` in array"),
                }
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize, line_no: usize) -> Result<TomlValue, TomlError> {
    let start = *pos;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' | b'+' | b'-' | b'.' | b'e' | b'E' | b'_' => *pos += 1,
            _ => break,
        }
    }
    let text: String = std::str::from_utf8(&bytes[start..*pos])
        .expect("ascii number chars")
        .chars()
        .filter(|&c| c != '_')
        .collect();
    if text.is_empty() {
        return err(line_no, "invalid value");
    }
    let float = text.contains(['.', 'e', 'E']);
    if !float {
        if let Ok(v) = text.parse::<i64>() {
            return Ok(TomlValue::Int(v));
        }
    }
    match text.parse::<f64>() {
        Ok(v) => Ok(TomlValue::Float(v)),
        Err(_) => err(line_no, format!("invalid number `{text}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_tables_entries_and_comments() {
        let doc = TomlDocument::parse(
            "# scenario\nname = \"diurnal\" # inline\n\n[run]\ncameras = 4\nbandwidth_mbps = 80.0\n\n[[fault]]\nkind = \"brownout\"\nactive = true\nweights = [3.0, 1.0]\n",
        )
        .unwrap();
        assert_eq!(
            doc.root_entry("name").unwrap().value,
            TomlValue::Str("diurnal".to_string())
        );
        assert_eq!(doc.root_entry("name").unwrap().line, 2);
        let run = doc.table("run").unwrap();
        assert_eq!(run.line, 4);
        assert_eq!(run.get("cameras").unwrap().value, TomlValue::Int(4));
        assert_eq!(
            run.get("bandwidth_mbps").unwrap().value,
            TomlValue::Float(80.0)
        );
        let faults = doc.array_tables("fault");
        assert_eq!(faults.len(), 1);
        assert_eq!(
            faults[0].get("active").unwrap().value,
            TomlValue::Bool(true)
        );
        assert_eq!(
            faults[0].get("weights").unwrap().value,
            TomlValue::Array(vec![TomlValue::Float(3.0), TomlValue::Float(1.0)])
        );
    }

    #[test]
    fn errors_carry_the_line_number() {
        let cases = [
            ("a = 1\nb ==\n", 2, "invalid value"),
            ("a = 1\n\nnot a pair\n", 3, "expected `key = value`"),
            ("[run\n", 1, "unterminated [table] header"),
            ("a = \"oops\n", 1, "unterminated string"),
            ("x = [1, 2\n", 1, "unterminated array"),
            ("x = zebra\n", 1, "invalid value"),
        ];
        for (input, line, needle) in cases {
            let e = TomlDocument::parse(input).unwrap_err();
            assert_eq!(e.line, line, "{input:?} -> {e}");
            assert!(e.message.contains(needle), "{input:?} -> {e}");
        }
    }

    #[test]
    fn duplicate_keys_and_tables_are_rejected() {
        let e = TomlDocument::parse("[run]\nseed = 1\nseed = 2\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("duplicate key `seed`"), "{e}");
        assert!(e.message.contains("line 2"), "{e}");

        let e = TomlDocument::parse("[run]\n[run]\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("already defined on line 1"), "{e}");

        // Array tables repeat freely.
        assert!(TomlDocument::parse("[[fault]]\n[[fault]]\n").is_ok());
        // …but mixing [x] and [[x]] is a conflict either way around.
        assert!(TomlDocument::parse("[fault]\n[[fault]]\n").is_err());
        assert!(TomlDocument::parse("[[fault]]\n[fault]\n").is_err());
    }

    #[test]
    fn value_accessors_and_widening() {
        let doc = TomlDocument::parse("i = 3\nf = 0.5\nneg = -2\n").unwrap();
        assert_eq!(doc.root_entry("i").unwrap().value.as_f64(), Some(3.0));
        assert_eq!(doc.root_entry("i").unwrap().value.as_u64(), Some(3));
        assert_eq!(doc.root_entry("f").unwrap().value.as_u64(), None);
        assert_eq!(doc.root_entry("neg").unwrap().value.as_u64(), None);
        assert_eq!(doc.root_entry("neg").unwrap().value.as_f64(), Some(-2.0));
        assert_eq!(doc.root_entry("f").unwrap().value.type_name(), "float");
    }

    #[test]
    fn hash_inside_strings_is_not_a_comment() {
        let doc = TomlDocument::parse("s = \"a # b\"\n").unwrap();
        assert_eq!(doc.root_entry("s").unwrap().str(), Ok("a # b"));
        // Nor after an escaped quote, which does not close the string.
        let doc = TomlDocument::parse("s = \"\\\" # \\\\\" # comment\n").unwrap();
        assert_eq!(doc.root_entry("s").unwrap().str(), Ok("\" # \\"));
    }

    #[test]
    fn underscored_integers_parse() {
        let doc = TomlDocument::parse("n = 1_000_000\n").unwrap();
        assert_eq!(
            doc.root_entry("n").unwrap().value,
            TomlValue::Int(1_000_000)
        );
    }

    #[test]
    fn dotted_and_quoted_keys_and_table_names_parse_to_paths() {
        let doc = TomlDocument::parse(
            "rand.workspace = true\n\"a.b\" . 'c d'.e = 1 # three segments\n\
             [dependencies.tangram-core]\nworkspace = true\n\
             [target.'cfg(all(unix, feature = \"x#y\"))'.dev-dependencies] # the # is quoted\n\
             \"tangram-sim\".workspace = true\n[[bin . \"x\\ty\"]]\n",
        )
        .unwrap();
        assert_eq!(doc.root[0].path, ["rand", "workspace"]);
        assert_eq!(doc.root[0].key(), "rand.workspace");
        assert_eq!(doc.root[1].path, ["a.b", "c d", "e"]);
        assert_eq!(doc.root[1].key(), "\"a.b\".\"c d\".e");
        assert_eq!(doc.tables[0].path, ["dependencies", "tangram-core"]);
        assert_eq!(doc.tables[0].header(), "[dependencies.tangram-core]");
        assert_eq!(doc.tables[0].get("workspace").unwrap().line, 4);
        assert_eq!(
            doc.tables[1].path,
            [
                "target",
                "cfg(all(unix, feature = \"x#y\"))",
                "dev-dependencies"
            ]
        );
        assert_eq!(doc.tables[1].entries[0].path, ["tangram-sim", "workspace"]);
        assert_eq!(doc.tables[2].path, ["bin", "x\ty"]);
        assert_eq!(doc.tables[2].header(), "[[bin.\"x\ty\"]]");
        // A quoted segment is the same key as its bare spelling.
        assert!(doc.table("dependencies.tangram-core").is_none());
        let e = TomlDocument::parse("a = 1\n\"a\" = 2\n").unwrap_err();
        assert!(e.message.contains("duplicate key `a`"), "{e}");
    }

    #[test]
    fn malformed_paths_and_unsupported_values_are_rejected_with_their_line() {
        let cases = [
            ("a. = 1\n", 1, "invalid key `a.`"),
            (".a = 1\n", 1, "invalid key `.a`"),
            ("a b = 1\n", 1, "invalid key `a b`"),
            ("a = 1\n'open = 2\n", 2, "unterminated string"),
            ("\"a\\q\" = 1\n", 1, "unsupported string escape"),
            ("[a..b]\n", 1, "invalid table name `a..b`"),
            ("[a.]\n", 1, "invalid table name `a.`"),
            ("[]\n", 1, "invalid table name ``"),
            ("[a]\n[\"a\"]\n", 2, "already defined on line 1"),
            (
                "\n[a]\nx = { y = 1 }\n",
                3,
                "inline tables are not supported",
            ),
            ("x = [\n  1,\n]\n", 1, "unterminated array"),
            ("x = \"\"\"\ntext\n\"\"\"\n", 1, "unterminated string"),
            // A key is a value or a table of further keys, never both.
            (
                "a = 1\na.b = 2\n",
                2,
                "duplicate key `a` (first defined on line 1)",
            ),
            ("a.b.c = 1\na.b = 2\n", 2, "duplicate key `a.b` (first"),
            ("a.b = 1\na.b = 2\n", 2, "duplicate key `a.b` (first"),
        ];
        for (input, line, needle) in cases {
            let e = TomlDocument::parse(input).unwrap_err();
            assert_eq!(e.line, line, "{input:?} -> {e}");
            assert!(e.message.contains(needle), "{input:?} -> {e}");
        }
        // Siblings under one prefix are fine.
        assert!(TomlDocument::parse("a.b = 1\na.c = 2\n").is_ok());
    }

    #[test]
    fn typed_reads_name_the_line_the_key_and_the_type_found() {
        let doc = TomlDocument::parse(
            "[run]\ns = \"x\"\nn = 3\nf = 0.5\nb = true\nl = [1, 2]\nbig = 1e999\na.b = 1\n",
        )
        .unwrap();
        let run = doc.table("run").unwrap();
        assert_eq!(run.require("s").unwrap().str(), Ok("x"));
        assert_eq!(run.require("n").unwrap().u64(), Ok(3));
        assert_eq!(run.require("n").unwrap().f64(), Ok(3.0));
        assert_eq!(run.require("b").unwrap().bool(), Ok(true));
        assert_eq!(run.require("l").unwrap().array().map(<[_]>::len), Ok(2));
        let message = |e: TomlError| format!("{e}");
        assert_eq!(
            message(run.require("n").unwrap().str().unwrap_err()),
            "3: key `n`: expected string, got integer"
        );
        assert_eq!(
            message(run.require("f").unwrap().u64().unwrap_err()),
            "4: key `f`: expected non-negative integer, got float"
        );
        assert_eq!(
            message(run.require("s").unwrap().f64().unwrap_err()),
            "2: key `s`: expected number, got string"
        );
        assert_eq!(
            message(run.require("s").unwrap().bool().unwrap_err()),
            "2: key `s`: expected boolean, got string"
        );
        assert_eq!(
            message(run.require("b").unwrap().array().unwrap_err()),
            "5: key `b`: expected array, got boolean"
        );
        assert_eq!(
            message(run.require("big").unwrap().f64().unwrap_err()),
            "7: key `big` is not finite"
        );
        assert_eq!(
            message(run.require("missing").unwrap_err()),
            "1: [run] is missing required key `missing`"
        );
        assert_eq!(
            message(
                run.check_keys(&["s", "n", "f", "b", "l", "big"])
                    .unwrap_err()
            ),
            "8: unknown key `a.b` in [run]"
        );
    }
}
