//! The serialization-discipline rule: the trace event alphabet stays
//! registered.
//!
//! `trace-kinds` — in `crates/trace/src/event.rs`, the kind strings
//! returned by `TraceEvent::kind()`, the entries of the
//! `TraceEvent::KINDS` registry, and the tags `from_fields` can parse
//! must be exactly the same set: an event kind that can be emitted but
//! not replayed (or registered but never emitted) is a stale registry.
//!
//! (Schema versions need no rule: a committed baseline whose
//! `schema_version` is not its writer's cannot regenerate byte for byte,
//! which `baselines check` — and the tier-1 test that runs it — holds.)

use crate::scan::scan;
use crate::walk::read_file;
use crate::Violation;
use std::path::Path;

/// Collected trace-kind strings: the registry table, the `kind()` match
/// arms, and the `from_fields` parser arms.
#[derive(Debug, Default)]
struct KindSets {
    /// `KINDS` table entries as `(kind, line)`.
    table: Vec<(String, usize)>,
    /// `kind()` arm strings as `(kind, line)`.
    emitted: Vec<(String, usize)>,
    /// `from_fields` arm tags as `(kind, line)`.
    parsed: Vec<(String, usize)>,
}

/// Runs the `trace-kinds` check under `root`.
///
/// # Errors
///
/// Returns a message when the event source cannot be read.
pub fn check_schema(root: &Path) -> Result<Vec<Violation>, String> {
    let rel = "crates/trace/src/event.rs";
    if !root.join(rel).is_file() {
        return Ok(Vec::new());
    }
    let file = scan(&read_file(root, rel)?);
    let mut sets = KindSets::default();
    let mut in_table = false;
    for line in file.code_lines() {
        let trimmed = line.code.trim_start();
        if line.code.contains("KINDS") && line.code.contains('[') {
            in_table = true;
            continue;
        }
        if in_table {
            if let Some(kind) = line.strings.first() {
                sets.table.push((kind.clone(), line.number));
            }
            if line.code.contains(']') {
                in_table = false;
            }
            continue;
        }
        if trimmed.starts_with("TraceEvent::") && line.code.contains("=> \"") {
            if let Some(kind) = line.strings.first() {
                sets.emitted.push((kind.clone(), line.number));
            }
        } else if trimmed.starts_with('"') && line.code.contains("=>") {
            if let Some(kind) = line.strings.first() {
                sets.parsed.push((kind.clone(), line.number));
            }
        }
    }

    let mut violations = Vec::new();
    if sets.table.is_empty() || sets.emitted.is_empty() {
        violations.push(Violation::new(
            rel,
            1,
            "trace-kinds",
            format!(
                "could not locate the KINDS registry and kind() arms ({} table entries, {} \
                 arms found)",
                sets.table.len(),
                sets.emitted.len()
            ),
        ));
        return Ok(violations);
    }
    let registered: Vec<&str> = sets.table.iter().map(|(k, _)| k.as_str()).collect();
    let emitted: Vec<&str> = sets.emitted.iter().map(|(k, _)| k.as_str()).collect();
    let parsed: Vec<&str> = sets.parsed.iter().map(|(k, _)| k.as_str()).collect();
    for (kind, line) in &sets.emitted {
        if !registered.contains(&kind.as_str()) {
            violations.push(Violation::new(
                rel,
                *line,
                "trace-kinds",
                format!("kind \"{kind}\" is emitted but missing from the KINDS registry"),
            ));
        }
    }
    for (kind, line) in &sets.table {
        if !emitted.contains(&kind.as_str()) {
            violations.push(Violation::new(
                rel,
                *line,
                "trace-kinds",
                format!("kind \"{kind}\" is registered in KINDS but no kind() arm emits it"),
            ));
        }
        if !parsed.contains(&kind.as_str()) {
            violations.push(Violation::new(
                rel,
                *line,
                "trace-kinds",
                format!("kind \"{kind}\" is registered in KINDS but from_fields cannot parse it"),
            ));
        }
    }
    Ok(violations)
}
