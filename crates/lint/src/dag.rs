//! The crate-DAG rule family: every `crates/*/Cargo.toml` is checked
//! against the declared dependency lattice.
//!
//! [`LATTICE`] is the **source of truth** for the workspace's crate DAG
//! (ROADMAP's standing constraint, `docs/ARCHITECTURE.md`'s diagram is
//! prose over it). Each crate is assigned a layer; a crate may depend
//! only on crates in strictly lower layers, which makes cycles
//! impossible among declared crates by construction. Each crate also
//! declares exactly which vendored external crates it may use, so
//! `types`/`sim` stay dependency-light and a new external dependency
//! anywhere is a reviewed, declared event — the environment has no
//! crates.io access, so an undeclared external is a broken build at
//! best.
//!
//! Three rule ids:
//!
//! * `dag-unlisted` — a `crates/*` directory whose package is not on
//!   the lattice (new crates must land on it deliberately).
//! * `dag-edge` — a dependency edge that points sideways or up the
//!   lattice, targets an unknown crate, or pulls an undeclared external.
//! * `dag-cycle` — a dependency cycle among the discovered crates
//!   (belt-and-braces: unlisted crates bypass the layer check, so the
//!   cycle scan covers them too).

use crate::walk::crate_dirs;
use crate::Violation;
use std::collections::BTreeMap;
use std::path::Path;

/// One declared lattice position.
#[derive(Debug, Clone, Copy)]
pub struct LatticeEntry {
    /// Crate short name (`tangram-<name>`).
    pub name: &'static str,
    /// Layer; edges must point to strictly lower layers.
    pub layer: u32,
    /// Vendored external crates this crate may depend on
    /// (dev-dependencies included).
    pub externals: &'static [&'static str],
}

/// The declared dependency lattice — the workspace DAG's source of
/// truth. `types` and `sim` are pinned dependency-light.
pub const LATTICE: [LatticeEntry; 15] = [
    LatticeEntry {
        name: "types",
        layer: 0,
        externals: &["serde"],
    },
    LatticeEntry {
        name: "lint",
        layer: 1,
        externals: &[],
    },
    LatticeEntry {
        name: "model",
        layer: 1,
        externals: &[],
    },
    LatticeEntry {
        name: "sim",
        layer: 1,
        externals: &["rand", "serde"],
    },
    LatticeEntry {
        name: "stitch",
        layer: 1,
        externals: &["serde"],
    },
    LatticeEntry {
        name: "trace",
        layer: 1,
        externals: &[],
    },
    LatticeEntry {
        name: "infer",
        layer: 2,
        externals: &["serde"],
    },
    LatticeEntry {
        name: "net",
        layer: 2,
        externals: &["serde"],
    },
    LatticeEntry {
        name: "video",
        layer: 2,
        externals: &["serde"],
    },
    LatticeEntry {
        name: "serverless",
        layer: 3,
        externals: &["serde"],
    },
    LatticeEntry {
        name: "vision",
        layer: 3,
        externals: &["serde"],
    },
    LatticeEntry {
        name: "partition",
        layer: 4,
        externals: &["serde"],
    },
    LatticeEntry {
        name: "core",
        layer: 5,
        externals: &["crossbeam", "parking_lot", "serde"],
    },
    LatticeEntry {
        name: "harness",
        layer: 6,
        externals: &["crossbeam", "serde"],
    },
    LatticeEntry {
        name: "bench",
        layer: 7,
        externals: &[],
    },
];

fn lattice_entry(name: &str) -> Option<&'static LatticeEntry> {
    LATTICE.iter().find(|e| e.name == name)
}

/// One dependency edge as written in a manifest.
#[derive(Debug, Clone)]
struct Dep {
    /// Dependency key (`tangram-sim`, `serde`, …).
    name: String,
    /// 1-based manifest line.
    line: usize,
}

/// One parsed crate manifest.
#[derive(Debug, Clone)]
struct Manifest {
    /// Directory name under `crates/`.
    dir: String,
    /// Package name, `tangram-` prefix included.
    package: String,
    /// Line of `name = "…"`.
    package_line: usize,
    /// The keys of every `[…dependencies]` section.
    deps: Vec<Dep>,
}

impl Manifest {
    fn rel(&self) -> String {
        format!("crates/{}/Cargo.toml", self.dir)
    }

    /// Short name: the package without the `tangram-` prefix.
    fn short(&self) -> &str {
        self.package
            .strip_prefix("tangram-")
            .unwrap_or(&self.package)
    }
}

/// Checks the workspace DAG under `root`.
///
/// # Errors
///
/// Returns a message when a manifest cannot be read.
pub fn check_dag(root: &Path) -> Result<Vec<Violation>, String> {
    let mut violations = Vec::new();
    let mut manifests = Vec::new();
    for dir in crate_dirs(root)? {
        let rel = format!("crates/{dir}/Cargo.toml");
        let path = root.join(&rel);
        if !path.is_file() {
            violations.push(Violation::new(
                &rel,
                1,
                "dag-unlisted",
                format!("crates/{dir} has no Cargo.toml"),
            ));
            continue;
        }
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{rel}: {e}"))?;
        manifests.push(parse_manifest(&dir, &text));
    }
    violations.extend(check_edges(&manifests));
    violations.extend(find_cycles(&manifests));
    Ok(violations)
}

/// `dag-unlisted` and `dag-edge`: every package on the lattice, every
/// edge pointing down it, every external declared.
fn check_edges(manifests: &[Manifest]) -> Vec<Violation> {
    let mut violations = Vec::new();
    for m in manifests {
        let entry = lattice_entry(m.short());
        if entry.is_none() {
            violations.push(Violation::new(
                &m.rel(),
                m.package_line,
                "dag-unlisted",
                format!(
                    "crate `{}` is not on the declared lattice; new crates must be added to \
                     LATTICE in crates/lint/src/dag.rs",
                    m.package
                ),
            ));
        } else if m.short() != m.dir {
            violations.push(Violation::new(
                &m.rel(),
                m.package_line,
                "dag-unlisted",
                format!(
                    "package `{}` lives in crates/{} — directory and package short name must \
                     agree",
                    m.package, m.dir
                ),
            ));
        }
        for dep in &m.deps {
            match dep.name.strip_prefix("tangram-") {
                Some(target) => {
                    let (Some(from), Some(to)) = (entry, lattice_entry(target)) else {
                        // An unlisted endpoint already reports itself; a
                        // target with no directory at all is a dead edge.
                        if lattice_entry(target).is_none()
                            && !manifests.iter().any(|o| o.short() == target)
                        {
                            violations.push(Violation::new(
                                &m.rel(),
                                dep.line,
                                "dag-edge",
                                format!("dependency `{}` is not a workspace crate", dep.name),
                            ));
                        }
                        continue;
                    };
                    if from.layer <= to.layer {
                        violations.push(Violation::new(
                            &m.rel(),
                            dep.line,
                            "dag-edge",
                            format!(
                                "`{}` (layer {}) may not depend on `{}` (layer {}); edges must \
                                 point down the lattice",
                                m.short(),
                                from.layer,
                                target,
                                to.layer
                            ),
                        ));
                    }
                }
                None => {
                    if let Some(entry) = entry {
                        if !entry.externals.contains(&dep.name.as_str()) {
                            violations.push(Violation::new(
                                &m.rel(),
                                dep.line,
                                "dag-edge",
                                format!(
                                    "external `{}` is not declared for crate `{}` (allowed: \
                                     {:?})",
                                    dep.name,
                                    m.short(),
                                    entry.externals
                                ),
                            ));
                        }
                    }
                }
            }
        }
    }
    violations
}

/// Reports each dependency cycle once, anchored at the closing edge of
/// the lexicographically-first crate in the cycle.
fn find_cycles(manifests: &[Manifest]) -> Vec<Violation> {
    let index: BTreeMap<&str, &Manifest> = manifests.iter().map(|m| (m.short(), m)).collect();
    let mut reported: Vec<Vec<String>> = Vec::new();
    let mut violations = Vec::new();
    for m in manifests {
        let mut stack = vec![m.short().to_string()];
        dfs(m, &index, &mut stack, &mut reported, &mut violations);
    }
    violations
}

fn dfs(
    m: &Manifest,
    index: &BTreeMap<&str, &Manifest>,
    stack: &mut Vec<String>,
    reported: &mut Vec<Vec<String>>,
    violations: &mut Vec<Violation>,
) {
    for dep in &m.deps {
        let Some(target) = dep.name.strip_prefix("tangram-") else {
            continue;
        };
        if let Some(pos) = stack.iter().position(|s| s == target) {
            // The membership set identifies the cycle; the first DFS
            // discovery (crates visited in sorted order) anchors the one
            // report deterministically.
            let mut members: Vec<String> = stack[pos..].to_vec();
            members.sort();
            if !reported.contains(&members) {
                reported.push(members);
                let path: Vec<&str> = stack[pos..].iter().map(String::as_str).collect();
                violations.push(Violation::new(
                    &m.rel(),
                    dep.line,
                    "dag-cycle",
                    format!("dependency cycle: {} -> {}", path.join(" -> "), target),
                ));
            }
            continue;
        }
        if let Some(next) = index.get(target) {
            stack.push(target.to_string());
            dfs(next, index, stack, reported, violations);
            stack.pop();
        }
    }
}

/// Parses the subset of a crate manifest the DAG check needs: the
/// package name and the dependency keys with their lines.
fn parse_manifest(dir: &str, text: &str) -> Manifest {
    let mut package = String::new();
    let mut package_line = 1;
    let mut deps = Vec::new();
    let mut section = String::new();
    for (index, raw) in text.lines().enumerate() {
        let line_no = index + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('[') {
            section = line.trim_matches(['[', ']']).to_string();
            continue;
        }
        if section == "package" && package.is_empty() {
            if let Some(rest) = line.strip_prefix("name") {
                if let Some(value) = rest.trim_start().strip_prefix('=') {
                    package = value.trim().trim_matches('"').to_string();
                    package_line = line_no;
                }
            }
        }
        // `[dependencies]`, `[dev-dependencies]`, `[build-dependencies]`
        // and each of them under `[target.'cfg(…)'.…]`.
        let last_segment = section.rsplit('.').next().unwrap_or("");
        if last_segment.ends_with("dependencies") {
            let key: String = line
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '-' || *c == '_')
                .collect();
            if !key.is_empty() {
                deps.push(Dep {
                    name: key,
                    line: line_no,
                });
            }
        }
    }
    Manifest {
        dir: dir.to_string(),
        package,
        package_line,
        deps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_parse_extracts_name_and_dep_lines() {
        let m = parse_manifest(
            "sim",
            "[package]\nname = \"tangram-sim\"\n\n[dependencies]\nrand.workspace = true\n\
             tangram-types.workspace = true\n",
        );
        assert_eq!(m.package, "tangram-sim");
        assert_eq!(m.package_line, 2);
        assert_eq!(m.deps.len(), 2);
        assert_eq!(m.deps[0].name, "rand");
        assert_eq!(m.deps[0].line, 5);
        assert_eq!(m.deps[1].name, "tangram-types");
        assert_eq!(m.deps[1].line, 6);
    }

    #[test]
    fn edges_are_read_from_every_dependencies_section() {
        let m = parse_manifest(
            "types",
            "[package]\nname = \"tangram-types\"\n[dependencies]\nserde.workspace = true\n\
             [build-dependencies]\ntangram-core.workspace = true\n\
             [target.'cfg(unix)'.dependencies]\ntangram-sim.workspace = true\n\
             [package.metadata.docs]\ntangram-bench = true\n",
        );
        let names: Vec<&str> = m.deps.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, ["serde", "tangram-core", "tangram-sim"]);
        let upward: Vec<(usize, &str)> =
            check_edges(&[m]).iter().map(|v| (v.line, v.rule)).collect();
        assert_eq!(upward, [(6, "dag-edge"), (8, "dag-edge")]);
    }

    #[test]
    fn the_lattice_is_layered_and_unique() {
        let mut names: Vec<&str> = LATTICE.iter().map(|e| e.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "duplicate lattice entries");
        assert_eq!(lattice_entry("types").expect("types").layer, 0);
        assert!(
            lattice_entry("bench").expect("bench").layer
                > lattice_entry("harness").expect("harness").layer
        );
    }

    #[test]
    fn cycles_are_reported_once() {
        let a = parse_manifest(
            "alpha",
            "[package]\nname = \"tangram-alpha\"\n[dependencies]\ntangram-beta.workspace = true\n",
        );
        let b = parse_manifest(
            "beta",
            "[package]\nname = \"tangram-beta\"\n[dependencies]\ntangram-alpha.workspace = true\n",
        );
        let violations = find_cycles(&[a, b]);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert_eq!(violations[0].rule, "dag-cycle");
        assert!(violations[0].message.contains("alpha -> beta -> alpha"));
    }
}
