//! The waiver allowlist: `config/lint_allow.toml`.
//!
//! A waiver exempts one `(file, rule)` pair and must say why:
//!
//! ```toml
//! [[allow]]
//! file = "crates/types/src/json.rs"
//! rule = "det-float-format"
//! justification = "write_f64 is the sanctioned shortest-round-trip float writer"
//! ```
//!
//! Waivers are load-bearing, both ways: a violation matching a waiver
//! is suppressed, and a waiver matching **nothing** is itself an error
//! (`stale-waiver`) — an exemption whose reason has evaporated must be
//! deleted, not silently carried. The file is read through
//! [`tangram_types::toml`], the reader scenario files use, and fails
//! closed: a document that reader rejects (a syntax error, a repeated
//! key) is one `waiver-format` error at the reader's line and loads
//! **no** waivers. In a document it accepts, malformed entries (missing
//! fields, unknown keys, non-string values, empty justifications,
//! unknown or meta rule ids, duplicates, any table that is not
//! `[[allow]]`) are `waiver-format` errors of their own and the
//! well-formed entries still load. The meta rules `stale-waiver` and
//! `waiver-format` cannot themselves be waived.

use crate::Violation;
use std::path::Path;
use tangram_types::toml::{TomlDocument, TomlError, TomlTable};

/// The allowlist's location, relative to the workspace root.
pub const ALLOW_FILE: &str = "config/lint_allow.toml";

/// Rule ids that govern the waiver mechanism itself and are therefore
/// unwaivable.
pub const META_RULES: [&str; 2] = ["stale-waiver", "waiver-format"];

/// One parsed waiver entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Waiver {
    /// Repo-relative file the waiver covers.
    pub file: String,
    /// Rule id the waiver suppresses in that file.
    pub rule: String,
    /// Why the exemption is sound (required, non-empty).
    pub justification: String,
    /// 1-based line of the entry's `[[allow]]` header.
    pub line: usize,
}

/// The parsed allowlist.
#[derive(Debug, Clone, Default)]
pub struct WaiverSet {
    /// Entries in file order.
    pub entries: Vec<Waiver>,
}

impl WaiverSet {
    /// Parses an allowlist document, collecting `waiver-format`
    /// violations: one for a document the TOML reader rejects (which
    /// loads nothing), else one per malformed entry (well-formed entries
    /// still load, so one bad entry does not disable the rest).
    #[must_use]
    pub fn parse(text: &str) -> (WaiverSet, Vec<Violation>) {
        let format_error =
            |e: TomlError| Violation::new(ALLOW_FILE, e.line, "waiver-format", e.message);
        let doc = match TomlDocument::parse(text) {
            Ok(doc) => doc,
            Err(e) => return (WaiverSet::default(), vec![format_error(e)]),
        };
        let mut entries: Vec<Waiver> = Vec::new();
        let mut violations = Vec::new();
        for entry in &doc.root {
            violations.push(format_error(TomlError::new(
                entry.line,
                format!("`{}` outside any [[allow]] entry", entry.key()),
            )));
        }
        for table in &doc.tables {
            match read_waiver(table, &entries) {
                Ok(waiver) => entries.push(waiver),
                Err(e) => violations.push(format_error(e)),
            }
        }
        (WaiverSet { entries }, violations)
    }

    /// Loads `root/config/lint_allow.toml`; a missing file is an empty
    /// set (waivers are opt-in).
    ///
    /// # Errors
    ///
    /// Returns a message when the file exists but cannot be read.
    pub fn load(root: &Path) -> Result<(WaiverSet, Vec<Violation>), String> {
        let path = root.join(ALLOW_FILE);
        if !path.is_file() {
            return Ok((WaiverSet::default(), Vec::new()));
        }
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{ALLOW_FILE}: {e}"))?;
        Ok(Self::parse(&text))
    }

    /// Suppresses the violations this set covers, returning a
    /// `stale-waiver` violation for every entry that matched nothing.
    #[must_use]
    pub fn apply(&self, violations: &mut Vec<Violation>) -> Vec<Violation> {
        let mut used = vec![false; self.entries.len()];
        violations.retain(|v| {
            if META_RULES.contains(&v.rule) {
                return true;
            }
            let matched = self
                .entries
                .iter()
                .position(|w| w.file == v.path && w.rule == v.rule);
            match matched {
                Some(i) => {
                    used[i] = true;
                    false
                }
                None => true,
            }
        });
        self.entries
            .iter()
            .zip(used)
            .filter(|(_, used)| !used)
            .map(|(w, _)| {
                Violation::new(
                    ALLOW_FILE,
                    w.line,
                    "stale-waiver",
                    format!(
                        "waiver for {} / {} matches no violation; delete it or fix the rule id",
                        w.file, w.rule
                    ),
                )
            })
            .collect()
    }
}

/// Reads and validates one table of the allowlist; `entries` are the
/// waivers already accepted (for the duplicate check).
fn read_waiver(table: &TomlTable, entries: &[Waiver]) -> Result<Waiver, TomlError> {
    let fail = |message: String| Err(TomlError::new(table.line, message));
    if !table.is_array || table.path != ["allow"] {
        return fail(format!("expected `[[allow]]`, got `{}`", table.header()));
    }
    table.check_keys(&["file", "rule", "justification"])?;
    let field = |key: &str| match table.get(key) {
        Some(entry) => entry.str(),
        None => Ok(""),
    };
    let (file, rule, justification) = (field("file")?, field("rule")?, field("justification")?);
    if file.is_empty() || rule.is_empty() {
        return fail("waiver entry needs both `file` and `rule`".to_string());
    }
    if justification.trim().is_empty() {
        return fail(format!(
            "waiver for {file} / {rule} has no justification — every exemption must say why"
        ));
    }
    if META_RULES.contains(&rule) {
        return fail(format!(
            "rule `{rule}` governs waivers and cannot be waived"
        ));
    }
    if !crate::RULES.iter().any(|r| r.id == rule) {
        return fail(format!("unknown rule id `{rule}` (see `lint_tool rules`)"));
    }
    if entries.iter().any(|w| w.file == file && w.rule == rule) {
        return fail(format!("duplicate waiver for {file} / {rule}"));
    }
    Ok(Waiver {
        file: file.to_string(),
        rule: rule.to_string(),
        justification: justification.to_string(),
        line: table.line,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = "# waivers\n[[allow]]\nfile = \"crates/a/src/x.rs\"\n\
                        rule = \"det-wall-clock\"\njustification = \"reason\"\n";

    #[test]
    fn well_formed_entries_load() {
        let (set, violations) = WaiverSet::parse(GOOD);
        assert!(violations.is_empty(), "{violations:?}");
        assert_eq!(set.entries.len(), 1);
        assert_eq!(set.entries[0].line, 2);
        assert_eq!(set.entries[0].rule, "det-wall-clock");
    }

    #[test]
    fn missing_justification_unknown_rule_and_duplicates_are_format_errors() {
        let text = "[[allow]]\nfile = \"a.rs\"\nrule = \"det-entropy\"\njustification = \"\"\n\
                    [[allow]]\nfile = \"b.rs\"\nrule = \"no-such-rule\"\njustification = \"x\"\n\
                    [[allow]]\nfile = \"c.rs\"\nrule = \"stale-waiver\"\njustification = \"x\"\n";
        let (set, violations) = WaiverSet::parse(text);
        assert!(set.entries.is_empty());
        assert_eq!(violations.len(), 3, "{violations:?}");
        assert!(violations.iter().all(|v| v.rule == "waiver-format"));
        assert_eq!(violations[0].line, 1);
        assert_eq!(violations[1].line, 5);
        assert_eq!(violations[2].line, 9);
    }

    #[test]
    fn apply_suppresses_matches_and_reports_stale_entries() {
        let (set, _) = WaiverSet::parse(GOOD);
        let mut violations = vec![
            Violation::new("crates/a/src/x.rs", 3, "det-wall-clock", "hit".to_string()),
            Violation::new(
                "crates/a/src/x.rs",
                9,
                "det-entropy",
                "other rule".to_string(),
            ),
        ];
        let stale = set.apply(&mut violations);
        assert!(stale.is_empty(), "{stale:?}");
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].rule, "det-entropy");

        let mut none: Vec<Violation> = Vec::new();
        let stale = set.apply(&mut none);
        assert_eq!(stale.len(), 1);
        assert_eq!(stale[0].rule, "stale-waiver");
        assert_eq!(stale[0].path, ALLOW_FILE);
        assert_eq!(stale[0].line, 2);
    }

    /// The reader this module used before it read the allowlist through
    /// `tangram_types::toml` — a line loop over `[[allow]]` and
    /// `key = "value"` shapes — kept as the oracle for the committed
    /// files. It validates nothing: the differential test feeds it
    /// well-formed entries only.
    fn line_shape_parse(text: &str) -> Vec<Waiver> {
        fn strip_comment(line: &str) -> &str {
            let mut in_string = false;
            for (i, c) in line.char_indices() {
                match c {
                    '"' => in_string = !in_string,
                    '#' if !in_string => return &line[..i],
                    _ => {}
                }
            }
            line
        }
        fn parse_entry(line: &str) -> Option<(&str, &str)> {
            let eq = line.find('=')?;
            let value = line[eq + 1..].trim();
            Some((
                line[..eq].trim(),
                value.strip_prefix('"')?.strip_suffix('"')?,
            ))
        }
        let mut entries: Vec<Waiver> = Vec::new();
        for (index, raw) in text.lines().enumerate() {
            let line = strip_comment(raw).trim();
            if line == "[[allow]]" {
                entries.push(Waiver {
                    file: String::new(),
                    rule: String::new(),
                    justification: String::new(),
                    line: index + 1,
                });
            } else if let Some((key, value)) = parse_entry(line) {
                let entry = entries.last_mut().expect("key inside an entry");
                match key {
                    "file" => entry.file = value.to_string(),
                    "rule" => entry.rule = value.to_string(),
                    "justification" => entry.justification = value.to_string(),
                    other => panic!("unknown key {other}"),
                }
            }
        }
        entries
    }

    /// The committed allowlist and the fixture's load to the values the
    /// line-shape reader gave (the fixture's empty-justification entry
    /// aside, which both reject — the oracle by not validating at all).
    #[test]
    fn committed_allowlists_load_as_the_line_shape_reader_loaded_them() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for (rel, count) in [("", 2), ("tests/fixtures/lint/bad_tree", 3)] {
            let path = root.join(rel).join(ALLOW_FILE);
            let text = std::fs::read_to_string(&path).expect("allowlist readable");
            let (set, _) = WaiverSet::parse(&text);
            let mut oracle = line_shape_parse(&text);
            oracle.retain(|w| !w.justification.is_empty());
            assert_eq!(set.entries, oracle, "{}", path.display());
            assert_eq!(set.entries.len(), count, "{}", path.display());
        }
    }

    /// A justification is the whole string, escapes and `#` included —
    /// the line-shape reader cut this one down to a single backslash.
    #[test]
    fn a_justification_reads_as_the_full_string() {
        let text = GOOD.replace("\"reason\"", r#""\" # everything after this is dropped""#);
        let (set, violations) = WaiverSet::parse(&text);
        assert!(violations.is_empty(), "{violations:?}");
        assert_eq!(
            set.entries[0].justification,
            "\" # everything after this is dropped"
        );
        assert_eq!(line_shape_parse(&text)[0].justification, "\\");
    }

    /// Each malformed shape is exactly one `waiver-format` violation at
    /// its own line.
    #[test]
    fn malformed_entries_are_one_format_error_at_their_own_line() {
        let entry = |body: &str| format!("{GOOD}[[allow]]\n{body}");
        let cases = [
            // A repeated key: the reader rejects the file, nothing loads.
            (
                entry("file = \"a.rs\"\nfile = \"b.rs\"\nrule = \"det-entropy\"\n"),
                8,
                "duplicate key `file`",
                0,
            ),
            // A syntax error anywhere loads nothing either.
            (entry("file = \"a.rs\nrule = \"x\"\n"), 7, "unterminated", 0),
            (
                entry("file = \"a.rs\"\nrule = 7\njustification = \"x\"\n"),
                8,
                "key `rule`: expected string, got integer",
                1,
            ),
            (
                entry("file = \"a.rs\"\nrule = \"det-entropy\"\nwhy = \"x\"\n"),
                9,
                "unknown key `why` in [[allow]]",
                1,
            ),
            (
                "[allow]\nfile = \"a.rs\"\nrule = \"det-entropy\"\njustification = \"x\"\n"
                    .to_string(),
                1,
                "expected `[[allow]]`, got `[allow]`",
                0,
            ),
            (
                format!("rule = \"det-entropy\"\n{GOOD}"),
                1,
                "`rule` outside any [[allow]] entry",
                1,
            ),
        ];
        for (text, line, needle, loaded) in cases {
            let (set, violations) = WaiverSet::parse(&text);
            assert_eq!(violations.len(), 1, "{text}\n{violations:?}");
            assert_eq!(violations[0].rule, "waiver-format");
            assert_eq!(violations[0].line, line, "{}", violations[0]);
            assert!(violations[0].message.contains(needle), "{}", violations[0]);
            assert_eq!(set.entries.len(), loaded, "{text}");
        }
    }
}
