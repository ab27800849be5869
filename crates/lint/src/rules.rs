//! The determinism rule family: wall-clock, entropy, hash-ordering and
//! float-formatting scans over the workspace sources.
//!
//! Rule scopes follow the reproduction's determinism contract:
//!
//! * **`det-wall-clock`** and **`det-entropy`** scan *every* crate under
//!   `crates/*/src` — a wall-clock read or ambient entropy anywhere can
//!   leak into gated output, so no crate is silently out of scope and
//!   none holds a waiver: the live runtime reads an injected clock, and
//!   real time lives in `examples/` and `benchmark/`.
//! * **`det-hash-order`** scans only the deterministic crates
//!   ([`DET_CRATES`]): `HashMap`/`HashSet` iteration order is
//!   unspecified, so any use on a path that can feed serialized output
//!   must be `BTreeMap`/`BTreeSet` (or waived with a justification).
//! * **`det-float-format`** scans only the BENCH/trace writer paths
//!   ([`WRITER_PATHS`]): debug-format specifiers (`{:?}`) on those paths
//!   render floats, and float formatting is exactly what the
//!   byte-identical baselines must never depend on outside the two
//!   sanctioned canonical writers (both waived, with justifications).
//!
//! Test code (`#[cfg(test)]` items) is skipped everywhere: a test using
//! `HashSet` to assert uniqueness cannot perturb serialized bytes.

use crate::scan::{has_word, scan};
use crate::walk::{read_file, rust_sources};
use crate::Violation;
use std::path::Path;

/// Crates whose code must stay free of unordered containers: everything
/// on the path from the simulation kernel to the serialized reports.
pub const DET_CRATES: [&str; 7] = [
    "core", "harness", "model", "sim", "stitch", "trace", "types",
];

/// Files whose output bytes are gated (BENCH json, golden traces, the
/// canonical scenario TOML), scanned by `det-float-format`. A path
/// ending in `/` is a directory prefix.
pub const WRITER_PATHS: [&str; 4] = [
    "crates/types/src/json.rs",
    "crates/harness/src/report.rs",
    "crates/harness/src/scenario_file.rs",
    "crates/trace/src/",
];

/// Wall-clock tokens (word-boundary matched against comment-stripped
/// code).
const WALL_CLOCK: [&str; 2] = ["Instant", "SystemTime"];

/// Ambient-entropy tokens: anything that seeds outside `DetRng`.
const ENTROPY: [&str; 6] = [
    "thread_rng",
    "from_entropy",
    "getrandom",
    "OsRng",
    "RandomState",
    "rand::random",
];

/// Unordered-container tokens.
const HASH_ORDER: [&str; 2] = ["HashMap", "HashSet"];

/// A line whose code carries one of these is building an error/panic
/// message, not serialized output; debug specifiers there are exempt
/// from `det-float-format`.
const ERROR_CONTEXT: [&str; 8] = [
    "Err(",
    "err(",
    "map_err",
    "ok_or",
    "panic!",
    "assert",
    "unreachable!",
    "expect(",
];

/// Runs the determinism family over `root`'s `crates/*/src` trees.
///
/// # Errors
///
/// Returns a message when a source file cannot be read.
pub fn check_determinism(root: &Path) -> Result<Vec<Violation>, String> {
    let mut violations = Vec::new();
    for rel in rust_sources(root)? {
        let krate = crate_of(&rel);
        let det = DET_CRATES.contains(&krate);
        let writer = WRITER_PATHS.iter().any(|p| {
            if p.ends_with('/') {
                rel.starts_with(p)
            } else {
                rel == *p
            }
        });
        let text = read_file(root, &rel)?;
        let file = scan(&text);
        for line in file.code_lines() {
            if let Some(token) = WALL_CLOCK.iter().find(|t| has_word(&line.code, t)) {
                violations.push(Violation::new(
                    &rel,
                    line.number,
                    "det-wall-clock",
                    format!(
                        "`{token}` reads the wall clock; deterministic paths must use sim time"
                    ),
                ));
            }
            if let Some(token) = ENTROPY.iter().find(|t| has_word(&line.code, t)) {
                violations.push(Violation::new(
                    &rel,
                    line.number,
                    "det-entropy",
                    format!("`{token}` draws ambient entropy; every random path must fork DetRng"),
                ));
            }
            if det {
                if let Some(token) = HASH_ORDER.iter().find(|t| has_word(&line.code, t)) {
                    violations.push(Violation::new(
                        &rel,
                        line.number,
                        "det-hash-order",
                        format!(
                            "`{token}` iterates in unspecified order; use BTreeMap/BTreeSet on \
                             deterministic paths"
                        ),
                    ));
                }
            }
            if writer
                && line
                    .strings
                    .iter()
                    .any(|s| s.contains(":?}") || s.contains(":#?}"))
                && !ERROR_CONTEXT.iter().any(|t| line.code.contains(t))
            {
                violations.push(Violation::new(
                    &rel,
                    line.number,
                    "det-float-format",
                    "debug-format specifier in a BENCH/trace writer path; floats must route \
                     through the canonical writer"
                        .to_string(),
                ));
            }
        }
    }
    Ok(violations)
}

/// The crate short name a `crates/<name>/…` path belongs to.
fn crate_of(rel: &str) -> &str {
    rel.strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or("")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_of_extracts_the_short_name() {
        assert_eq!(crate_of("crates/sim/src/rng.rs"), "sim");
        assert_eq!(crate_of("crates/core/src/policy/tangram.rs"), "core");
    }

    #[test]
    fn writer_path_prefixes_match_directories_and_files() {
        let is_writer = |rel: &str| {
            WRITER_PATHS.iter().any(|p| {
                if p.ends_with('/') {
                    rel.starts_with(p)
                } else {
                    rel == *p
                }
            })
        };
        assert!(is_writer("crates/trace/src/event.rs"));
        assert!(is_writer("crates/types/src/json.rs"));
        assert!(!is_writer("crates/types/src/time.rs"));
        assert!(!is_writer("crates/harness/src/pool.rs"));
    }
}
