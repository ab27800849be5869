//! The concurrency-discipline rule: **`conc-raw-thread`**.
//!
//! Every run the repository reports is byte-identical at any worker
//! count because exactly one place spawns threads: the harness sweep
//! pool, whose results are re-sorted by cell index before anything is
//! serialized. `thread::spawn` / `thread::scope` anywhere else under
//! `crates/*/src` is concurrency no determinism gate has seen, so it is
//! a finding until a waiver in `config/lint_allow.toml` says why its
//! scheduling cannot reach a result.
//!
//! Test code is skipped, as in the determinism family: a test thread
//! cannot reorder a production run.

use crate::scan::{has_word, scan};
use crate::walk::{read_file, rust_sources};
use crate::Violation;
use std::path::Path;

/// Raw-thread tokens (word-boundary matched against comment-stripped
/// code, so `std::thread::spawn` and a bare `thread::spawn` both hit).
const RAW_THREAD: [&str; 2] = ["thread::spawn", "thread::scope"];

/// Runs the concurrency rule over `root`'s `crates/*/src` trees.
///
/// # Errors
///
/// Returns a message when a source file cannot be read.
pub fn check_concurrency(root: &Path) -> Result<Vec<Violation>, String> {
    let mut violations = Vec::new();
    for rel in rust_sources(root)? {
        let text = read_file(root, &rel)?;
        for line in scan(&text).code_lines() {
            if let Some(token) = RAW_THREAD.iter().find(|t| has_word(&line.code, t)) {
                violations.push(Violation::new(
                    &rel,
                    line.number,
                    "conc-raw-thread",
                    format!(
                        "`{token}` outside the harness pool, the one sanctioned spawn site; \
                         a new thread needs a waiver saying why its scheduling cannot reach \
                         a result"
                    ),
                ));
            }
        }
    }
    Ok(violations)
}
