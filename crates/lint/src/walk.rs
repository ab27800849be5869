//! Deterministic workspace traversal helpers.
//!
//! All lint output is sorted, but the walk itself is also kept
//! deterministic (directory entries sorted, `/`-separated relative
//! paths) so diagnostics are byte-stable across platforms and runs.

use std::path::{Path, PathBuf};

/// Every `.rs` file under `crates/*/src`, as sorted `/`-separated paths
/// relative to `root`. Crates without a `src` directory are skipped
/// (the DAG check still sees their manifest).
///
/// # Errors
///
/// Returns a message when a directory cannot be read.
pub fn rust_sources(root: &Path) -> Result<Vec<String>, String> {
    let crates = root.join("crates");
    let mut out = Vec::new();
    for dir in crate_dirs(root)? {
        let src = crates.join(&dir).join("src");
        if src.is_dir() {
            collect_rs(&src, &format!("crates/{dir}/src"), &mut out)?;
        }
    }
    out.sort();
    Ok(out)
}

/// Sorted crate directory names under `root/crates`.
///
/// # Errors
///
/// Returns a message when `root/crates` cannot be read — a missing
/// directory included: a root without one is not a clean workspace.
pub fn crate_dirs(root: &Path) -> Result<Vec<String>, String> {
    let crates = root.join("crates");
    let mut dirs = Vec::new();
    let entries = std::fs::read_dir(&crates).map_err(|e| format!("{}: {e}", crates.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("{}: {e}", crates.display()))?;
        if entry.path().is_dir() {
            dirs.push(entry.file_name().to_string_lossy().into_owned());
        }
    }
    dirs.sort();
    Ok(dirs)
}

fn collect_rs(dir: &Path, rel: &str, out: &mut Vec<String>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut names: Vec<(String, PathBuf)> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("{}: {e}", dir.display()))?;
        names.push((
            entry.file_name().to_string_lossy().into_owned(),
            entry.path(),
        ));
    }
    names.sort();
    for (name, path) in names {
        if path.is_dir() {
            collect_rs(&path, &format!("{rel}/{name}"), out)?;
        } else if name.ends_with(".rs") {
            out.push(format!("{rel}/{name}"));
        }
    }
    Ok(())
}

/// Reads `root/rel` to a string.
///
/// # Errors
///
/// Returns a message naming the file on any I/O failure.
pub fn read_file(root: &Path, rel: &str) -> Result<String, String> {
    std::fs::read_to_string(root.join(rel)).map_err(|e| format!("{rel}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_crates_dir_is_an_error() {
        let root = std::env::temp_dir().join("tangram-lint-empty-walk");
        let _ = std::fs::create_dir_all(&root);
        assert!(rust_sources(&root).unwrap_err().contains("crates"));
        assert!(crate_dirs(&root).unwrap_err().contains("crates"));
    }
}
