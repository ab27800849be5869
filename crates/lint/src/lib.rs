//! Static workspace invariant checker (`tangram-lint`).
//!
//! The reproduction's headline guarantee — SLO-aware batching results
//! gated by byte-identical BENCH/TRACE baselines at any worker count —
//! rests on rules that, until this crate, were enforced only
//! *dynamically*: an ambient wall-clock read or a `HashMap` iteration
//! feeding serialized output is caught when (and only when) a runtime
//! byte-comparison happens to diverge, often PRs after the regression
//! landed. `tangram-lint` enforces those rules **statically**, at lint
//! time, the way the scenario loader validates scenario files before
//! execution.
//!
//! Four rule families, ten rules, each reporting
//! `path:line: rule-id: message` with a nonzero exit:
//!
//! * **Determinism** ([`rules`]) — `det-wall-clock`, `det-entropy`,
//!   `det-hash-order`, `det-float-format`.
//! * **Concurrency discipline** ([`conc`]) — `conc-raw-thread`: the
//!   harness pool is the one place that spawns threads.
//! * **Crate DAG** ([`dag`]) — `dag-edge`, `dag-cycle`, `dag-unlisted`,
//!   verified against the declared lattice ([`dag::LATTICE`], the DAG's
//!   source of truth).
//! * **Waivers** ([`waiver`]) — `stale-waiver`, `waiver-format`:
//!   exemptions live in `config/lint_allow.toml` with mandatory
//!   justifications, and an *unused* waiver is itself an error, so
//!   exemptions cannot go stale silently.
//!
//! Rust sources are read by a hand-rolled, line-tracking scanner
//! ([`scan`]) — there is no `syn` offline; the two TOML inputs, waivers
//! and crate manifests, go through the workspace's one TOML reader
//! ([`tangram_types::toml`]), so nothing here parses a declared file by
//! line shape. That the trace event alphabet stays registered needs no
//! rule: `TraceEvent::kind()` *is* an index into `TraceEvent::KINDS`.
//! The crate sits beside `stitch`/`trace` on the lattice and depends
//! only on `tangram-types`.
//!
//! ```
//! use tangram_lint::{RULES, Violation};
//!
//! // Every rule has a stable id and a one-line summary.
//! assert!(RULES.iter().any(|r| r.id == "det-wall-clock"));
//! let v = Violation::new("crates/sim/src/rng.rs", 3, "det-entropy", "example".to_string());
//! assert_eq!(v.to_string(), "crates/sim/src/rng.rs:3: det-entropy: example");
//! ```

pub mod conc;
pub mod dag;
pub mod rules;
pub mod scan;
pub mod waiver;
pub mod walk;

use std::path::Path;

/// One lint finding, rendered as `path:line: rule-id: message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// `/`-separated path relative to the workspace root.
    pub path: String,
    /// 1-based source line.
    pub line: usize,
    /// Stable rule id (see [`RULES`]).
    pub rule: &'static str,
    /// Human-readable description.
    pub message: String,
}

impl Violation {
    /// Creates a finding.
    #[must_use]
    pub fn new(path: &str, line: usize, rule: &'static str, message: String) -> Violation {
        Violation {
            path: path.to_string(),
            line,
            rule,
            message,
        }
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// One registered rule.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Stable id, as waivers and diagnostics name it.
    pub id: &'static str,
    /// One-line summary (`lint_tool rules` output).
    pub summary: &'static str,
}

/// Every rule the linter can report, in stable order. The docs
/// cross-check in `scripts/check_docs.sh` holds `docs/ARCHITECTURE.md`'s
/// rule table to exactly this registry.
pub const RULES: [Rule; 10] = [
    Rule {
        id: "det-wall-clock",
        summary: "no Instant/SystemTime outside waived wall-clock shims",
    },
    Rule {
        id: "det-entropy",
        summary: "no ambient entropy; every random path forks DetRng",
    },
    Rule {
        id: "det-hash-order",
        summary: "no HashMap/HashSet in deterministic crates (BTree* instead)",
    },
    Rule {
        id: "det-float-format",
        summary: "no debug float formatting in BENCH/trace writer paths",
    },
    Rule {
        id: "conc-raw-thread",
        summary: "no thread::spawn/scope outside the waived harness pool",
    },
    Rule {
        id: "dag-edge",
        summary: "dependency edges point down the declared lattice",
    },
    Rule {
        id: "dag-cycle",
        summary: "the crate graph stays acyclic",
    },
    Rule {
        id: "dag-unlisted",
        summary: "every crates/* package is declared on the lattice",
    },
    Rule {
        id: "stale-waiver",
        summary: "every waiver in config/lint_allow.toml suppresses something",
    },
    Rule {
        id: "waiver-format",
        summary: "waivers carry file, known rule id and a justification",
    },
];

/// Runs every rule family over the workspace at `root`, applying the
/// waiver file, and returns the surviving violations sorted by
/// `(path, line, rule)`.
///
/// # Errors
///
/// Returns a message when `root` has no readable `crates/` directory
/// (a check run from the wrong directory must not pass) or a source or
/// manifest file cannot be read — I/O trouble, not a lint finding.
pub fn lint_workspace(root: &Path) -> Result<Vec<Violation>, String> {
    let mut violations = rules::check_determinism(root)?;
    violations.extend(conc::check_concurrency(root)?);
    violations.extend(dag::check_dag(root)?);
    let (waivers, mut format_errors) = waiver::WaiverSet::load(root)?;
    let stale = waivers.apply(&mut violations);
    violations.append(&mut format_errors);
    violations.extend(stale);
    violations
        .sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    Ok(violations)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_ids_are_unique_and_kebab_case() {
        let mut ids: Vec<&str> = RULES.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        let before = ids.len();
        ids.dedup();
        assert_eq!(before, ids.len(), "duplicate rule ids");
        for id in ids {
            assert!(
                id.chars().all(|c| c.is_ascii_lowercase() || c == '-'),
                "rule id `{id}` is not kebab-case"
            );
        }
    }

    #[test]
    fn meta_rules_are_registered() {
        for meta in waiver::META_RULES {
            assert!(RULES.iter().any(|r| r.id == meta), "{meta} unregistered");
        }
    }
}
