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
//! deleted, not silently carried. Malformed entries (missing fields,
//! empty justifications, unknown or meta rule ids, duplicates) are
//! `waiver-format` errors. The meta rules `stale-waiver` and
//! `waiver-format` cannot themselves be waived.

use crate::Violation;
use std::path::Path;

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
    /// violations for malformed entries (well-formed entries still
    /// load, so one bad entry does not disable the rest).
    #[must_use]
    pub fn parse(text: &str) -> (WaiverSet, Vec<Violation>) {
        let mut entries: Vec<Waiver> = Vec::new();
        let mut violations = Vec::new();
        let mut current: Option<Waiver> = None;
        let mut violation = |line: usize, message: String| {
            violations.push(Violation::new(ALLOW_FILE, line, "waiver-format", message));
        };
        for (index, raw) in text.lines().enumerate() {
            let line_no = index + 1;
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if line == "[[allow]]" {
                if let Some(done) = current.take() {
                    finish(done, &mut entries, &mut violation);
                }
                current = Some(Waiver {
                    file: String::new(),
                    rule: String::new(),
                    justification: String::new(),
                    line: line_no,
                });
                continue;
            }
            let Some((key, value)) = parse_entry(&line) else {
                violation(
                    line_no,
                    format!("expected `[[allow]]` or `key = \"value\"`, got `{line}`"),
                );
                continue;
            };
            let Some(entry) = current.as_mut() else {
                violation(line_no, format!("`{key}` outside any [[allow]] entry"));
                continue;
            };
            match key.as_str() {
                "file" => entry.file = value,
                "rule" => entry.rule = value,
                "justification" => entry.justification = value,
                other => violation(line_no, format!("unknown waiver key `{other}`")),
            }
        }
        if let Some(done) = current.take() {
            finish(done, &mut entries, &mut violation);
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

/// Validates a completed entry and either records it or reports it.
fn finish(entry: Waiver, entries: &mut Vec<Waiver>, violation: &mut impl FnMut(usize, String)) {
    if entry.file.is_empty() || entry.rule.is_empty() {
        violation(
            entry.line,
            "waiver entry needs both `file` and `rule`".to_string(),
        );
        return;
    }
    if entry.justification.trim().is_empty() {
        violation(
            entry.line,
            format!(
                "waiver for {} / {} has no justification — every exemption must say why",
                entry.file, entry.rule
            ),
        );
        return;
    }
    if META_RULES.contains(&entry.rule.as_str()) {
        violation(
            entry.line,
            format!("rule `{}` governs waivers and cannot be waived", entry.rule),
        );
        return;
    }
    if !crate::RULES.iter().any(|r| r.id == entry.rule) {
        violation(
            entry.line,
            format!("unknown rule id `{}` (see `lint_tool rules`)", entry.rule),
        );
        return;
    }
    if entries
        .iter()
        .any(|w| w.file == entry.file && w.rule == entry.rule)
    {
        violation(
            entry.line,
            format!("duplicate waiver for {} / {}", entry.file, entry.rule),
        );
        return;
    }
    entries.push(entry);
}

/// `key = "value"` with a double-quoted value.
fn parse_entry(line: &str) -> Option<(String, String)> {
    let eq = line.find('=')?;
    let key = line[..eq].trim();
    let value = line[eq + 1..].trim();
    let value = value.strip_prefix('"')?.strip_suffix('"')?;
    if key.is_empty() || key.contains(char::is_whitespace) {
        return None;
    }
    Some((key.to_string(), value.to_string()))
}

/// Removes a trailing `#` comment, respecting double-quoted strings.
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
}
