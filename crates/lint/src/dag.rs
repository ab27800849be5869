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
//! Manifests are read through [`tangram_types::toml`], so a dependency
//! is an edge in every spelling Cargo accepts for one: an entry of a
//! `[dependencies]`, `[dev-dependencies]` or `[build-dependencies]`
//! table (`x = "1"`, `x.workspace = true`, `"x".workspace = true`), a
//! `[dependencies.x]` table of its own, a root-level dotted key, and
//! each of those under `target.<cfg>.`. A manifest the reader rejects
//! (an inline table, a syntax error) is never half-read: it is a
//! `dag-unlisted` violation at the reader's line.
//!
//! Three rule ids:
//!
//! * `dag-unlisted` — a `crates/*` directory whose package is not on
//!   the lattice (new crates must land on it deliberately), or whose
//!   manifest cannot be read.
//! * `dag-edge` — a dependency edge that points sideways or up the
//!   lattice, targets an unknown crate, or pulls an undeclared external.
//! * `dag-cycle` — a dependency cycle among the discovered crates
//!   (belt-and-braces: unlisted crates bypass the layer check, so the
//!   cycle scan covers them too).

use crate::walk::crate_dirs;
use crate::Violation;
use std::collections::BTreeMap;
use std::path::Path;
use tangram_types::toml::{TomlDocument, TomlError};

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
pub const LATTICE: [LatticeEntry; 14] = [
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
    /// Every dependency the manifest declares, in file order.
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
        match read_manifest(&dir, &text) {
            Ok(manifest) => manifests.push(manifest),
            Err(e) => violations.push(Violation::new(
                &rel,
                e.line,
                "dag-unlisted",
                format!(
                    "manifest cannot be read, so its edges are unchecked: {}",
                    e.message
                ),
            )),
        }
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

/// The dependency a full key path declares, if any: the segment after
/// a `[…dependencies]` section at the root or under `target.<cfg>`.
fn dep_name<'a>(path: &[&'a str]) -> Option<&'a str> {
    let path = match path {
        ["target", _cfg, rest @ ..] => rest,
        all => all,
    };
    match path {
        ["dependencies" | "dev-dependencies" | "build-dependencies", name, ..] => Some(name),
        _ => None,
    }
}

/// Reads what the DAG check needs of a crate manifest: the package name
/// and every dependency with the line that declares it — the header's
/// for a `[dependencies.x]` table, the entry's otherwise.
fn read_manifest(dir: &str, text: &str) -> Result<Manifest, TomlError> {
    let doc = TomlDocument::parse(text)?;
    let mut package = None;
    let mut deps = Vec::new();
    let root = (&[][..], 0, &doc.root);
    let tables = doc.tables.iter().map(|t| (&t.path[..], t.line, &t.entries));
    for (prefix, header_line, entries) in std::iter::once(root).chain(tables) {
        let prefix: Vec<&str> = prefix.iter().map(String::as_str).collect();
        if let Some(name) = dep_name(&prefix) {
            deps.push(Dep {
                name: name.to_string(),
                line: header_line,
            });
            continue;
        }
        for entry in entries {
            let mut full = prefix.clone();
            full.extend(entry.path.iter().map(String::as_str));
            if full == ["package", "name"] {
                package = Some((entry.str()?.to_string(), entry.line));
            } else if let Some(name) = dep_name(&full) {
                deps.push(Dep {
                    name: name.to_string(),
                    line: entry.line,
                });
            }
        }
    }
    let (package, package_line) =
        package.ok_or_else(|| TomlError::new(1, "no `name` in [package]"))?;
    Ok(Manifest {
        dir: dir.to_string(),
        package,
        package_line,
        deps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The line-shape reader this module used before it read manifests
    /// through `tangram_types::toml`, kept as the oracle for the
    /// committed manifests: they only use the inline spelling, on which
    /// it is right.
    fn parse_manifest(text: &str) -> (String, Vec<(String, usize)>) {
        let mut package = String::new();
        let mut deps = Vec::new();
        let mut section = String::new();
        for (index, raw) in text.lines().enumerate() {
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
                    }
                }
            }
            if section
                .rsplit('.')
                .next()
                .unwrap_or("")
                .ends_with("dependencies")
            {
                let key: String = line
                    .chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '-' || *c == '_')
                    .collect();
                if !key.is_empty() {
                    deps.push((key, index + 1));
                }
            }
        }
        (package, deps)
    }

    fn manifest(dir: &str, text: &str) -> Manifest {
        read_manifest(dir, text).expect("manifest reads")
    }

    fn edges(m: &Manifest) -> Vec<(&str, usize)> {
        m.deps.iter().map(|d| (d.name.as_str(), d.line)).collect()
    }

    /// Every committed file of the dialect goes through the one reader,
    /// and each crate manifest yields what the line-shape reader gave.
    #[test]
    fn every_committed_toml_file_reads_and_manifests_match_the_old_reader() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let tomls_in = |rel: &str| -> Vec<std::path::PathBuf> {
            let dir = root.join(rel);
            let entries = std::fs::read_dir(&dir).unwrap_or_else(|e| panic!("{rel}: {e}"));
            let mut paths: Vec<_> = entries
                .map(|entry| entry.expect("entry").path())
                .filter(|p| p.extension().is_some_and(|ext| ext == "toml"))
                .collect();
            paths.sort();
            assert!(!paths.is_empty(), "{rel} holds no .toml file");
            paths
        };
        let mut files = tomls_in("config/scenarios");
        files.extend(tomls_in("config"));
        files.extend(tomls_in("benchmark/workloads"));
        for path in &files {
            let text = std::fs::read_to_string(path).expect("readable");
            let doc = TomlDocument::parse(&text);
            assert!(doc.is_ok(), "{}: {doc:?}", path.display());
        }
        let dirs = crate_dirs(&root).expect("crates/");
        assert_eq!(dirs.len(), LATTICE.len());
        for dir in dirs {
            let rel = format!("crates/{dir}/Cargo.toml");
            let text = std::fs::read_to_string(root.join(&rel)).expect("readable");
            let m = manifest(&dir, &text);
            let (package, deps) = parse_manifest(&text);
            assert_eq!(m.package, package, "{rel}");
            assert!(!deps.is_empty(), "{rel}: every crate has a dependency");
            let deps: Vec<(&str, usize)> = deps.iter().map(|(n, l)| (n.as_str(), *l)).collect();
            assert_eq!(edges(&m), deps, "{rel}");
        }
    }

    #[test]
    fn manifest_parse_extracts_name_and_dep_lines() {
        let m = manifest(
            "sim",
            "[package]\nname = \"tangram-sim\"\n\n[dependencies]\nrand.workspace = true\n\
             tangram-types.workspace = true\n",
        );
        assert_eq!(m.package, "tangram-sim");
        assert_eq!(m.package_line, 2);
        assert_eq!(edges(&m), [("rand", 5), ("tangram-types", 6)]);
    }

    #[test]
    fn edges_are_read_from_every_dependencies_section() {
        let m = manifest(
            "types",
            "[package]\nname = \"tangram-types\"\n[dependencies]\nserde.workspace = true\n\
             [build-dependencies]\ntangram-core.workspace = true\n\
             [target.'cfg(unix)'.dependencies]\ntangram-sim.workspace = true\n\
             [package.metadata.docs]\ntangram-bench = true\n",
        );
        assert_eq!(
            edges(&m),
            [("serde", 4), ("tangram-core", 6), ("tangram-sim", 8)]
        );
        let upward: Vec<(usize, &str)> =
            check_edges(&[m]).iter().map(|v| (v.line, v.rule)).collect();
        assert_eq!(upward, [(6, "dag-edge"), (8, "dag-edge")]);
    }

    /// The spellings the line-shape reader passed: a table of its own, a
    /// quoted key, a version string, a root-level dotted key, and each
    /// under `target.<cfg>` — every one an edge at the line declaring it.
    #[test]
    fn an_edge_is_read_in_every_spelling() {
        let m = manifest(
            "types",
            "dependencies.tangram-net.workspace = true\n\
             [package]\nname = \"tangram-types\"\n\
             [dependencies.tangram-core]\nworkspace = true\n\
             [dependencies]\n\"tangram-sim\".workspace = true\n'tangram-video' = \"0.1\"\n\
             [dev-dependencies.libc]\nversion = \"0.2\"\n\
             [target.\"cfg(windows)\".build-dependencies.tangram-bench]\npath = \"../bench\"\n\
             [target.'cfg(unix)'.dev-dependencies]\ntangram-stitch . workspace = true\n",
        );
        assert_eq!(
            edges(&m),
            [
                ("tangram-net", 1),
                ("tangram-core", 4),
                ("tangram-sim", 7),
                ("tangram-video", 8),
                ("libc", 9),
                ("tangram-bench", 11),
                ("tangram-stitch", 14),
            ]
        );
        let reported: Vec<usize> = check_edges(std::slice::from_ref(&m))
            .iter()
            .inspect(|v| assert_eq!(v.rule, "dag-edge", "{v}"))
            .map(|v| v.line)
            .collect();
        assert_eq!(reported, [1, 4, 7, 8, 9, 11, 14]);
    }

    #[test]
    fn a_manifest_the_reader_rejects_is_an_error_with_its_line() {
        let inline = "[package]\nname = \"tangram-types\"\n[dependencies]\n\
                      tangram-core = { workspace = true }\n";
        let e = read_manifest("types", inline).unwrap_err();
        assert_eq!(
            (e.line, e.message.as_str()),
            (4, "inline tables are not supported")
        );
        let e = read_manifest("types", "[dependencies]\nserde = \"1\"\n").unwrap_err();
        assert_eq!((e.line, e.message.as_str()), (1, "no `name` in [package]"));
        let e = read_manifest("types", "[package]\nname = 3\n").unwrap_err();
        assert_eq!(e.line, 2, "{e}");
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
        let a = manifest(
            "alpha",
            "[package]\nname = \"tangram-alpha\"\n[dependencies]\ntangram-beta.workspace = true\n",
        );
        let b = manifest(
            "beta",
            "[package]\nname = \"tangram-beta\"\n[dependencies]\ntangram-alpha.workspace = true\n",
        );
        let violations = find_cycles(&[a, b]);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert_eq!(violations[0].rule, "dag-cycle");
        assert!(violations[0].message.contains("alpha -> beta -> alpha"));
    }
}
