//! Fixture suite for `tangram-lint`: every rule family demonstrated
//! against the deliberately-broken tree under
//! `tests/fixtures/lint/bad_tree`, with exact `path:line: rule-id`
//! output pinned, plus a clean run over the real workspace — the same
//! invocation CI's `lint_tool check` step performs.

use std::path::PathBuf;
use tangram::lint::waiver::WaiverSet;
use tangram::lint::{conc, dag, lint_workspace, rules, Violation};

/// The real workspace root (the umbrella package's manifest dir).
fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The fixture tree with one violation per rule at pinned lines.
fn bad_tree() -> PathBuf {
    repo_root().join("tests/fixtures/lint/bad_tree")
}

/// `(path, line, rule)` triples, in the linter's sorted output order.
fn triples(violations: &[Violation]) -> Vec<(String, usize, &'static str)> {
    violations
        .iter()
        .map(|v| (v.path.clone(), v.line, v.rule))
        .collect()
}

/// Every rule family fires on the bad tree, each at its exact line.
#[test]
fn bad_tree_reports_every_family_at_exact_lines() {
    let violations = lint_workspace(&bad_tree()).expect("lint bad tree");
    let expected: Vec<(String, usize, &'static str)> = [
        ("config/lint_allow.toml", 8, "stale-waiver"),
        ("config/lint_allow.toml", 13, "waiver-format"),
        ("crates/alpha/Cargo.toml", 2, "dag-unlisted"),
        ("crates/beta/Cargo.toml", 2, "dag-unlisted"),
        ("crates/beta/Cargo.toml", 5, "dag-cycle"),
        ("crates/harness/src/conc_abuse.rs", 4, "conc-raw-thread"),
        ("crates/infer/Cargo.toml", 4, "dag-edge"),
        ("crates/net/Cargo.toml", 4, "dag-edge"),
        ("crates/sim/src/clock_abuse.rs", 3, "det-hash-order"),
        ("crates/sim/src/clock_abuse.rs", 4, "det-wall-clock"),
        ("crates/sim/src/clock_abuse.rs", 8, "det-wall-clock"),
        ("crates/sim/src/clock_abuse.rs", 9, "det-hash-order"),
        ("crates/sim/src/clock_abuse.rs", 10, "det-entropy"),
        ("crates/trace/src/writer.rs", 8, "det-float-format"),
        ("crates/types/Cargo.toml", 5, "dag-edge"),
        ("crates/types/Cargo.toml", 6, "dag-edge"),
        ("crates/video/Cargo.toml", 5, "dag-edge"),
        ("crates/vision/Cargo.toml", 5, "dag-unlisted"),
    ]
    .into_iter()
    .map(|(p, l, r)| (p.to_string(), l, r))
    .collect();
    assert_eq!(
        triples(&violations),
        expected,
        "full output:\n{}",
        violations
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// The `Display` form is exactly `path:line: rule-id: message` — what
/// `lint_tool check` prints and editors can jump to.
#[test]
fn violations_render_as_path_line_rule_message() {
    let violations = lint_workspace(&bad_tree()).expect("lint bad tree");
    let entropy = violations
        .iter()
        .find(|v| v.rule == "det-entropy")
        .expect("entropy violation");
    assert_eq!(
        entropy.to_string(),
        "crates/sim/src/clock_abuse.rs:10: det-entropy: `thread_rng` draws ambient entropy; \
         every random path must fork DetRng"
    );
}

/// An edge is an edge however the manifest spells it — a table of its
/// own, a quoted key, a dev-dependency table — and a manifest the TOML
/// reader rejects says so with the line and the reason instead of being
/// read as far as it goes.
#[test]
fn edges_are_seen_in_every_spelling_and_unreadable_manifests_fail_closed() {
    let violations = lint_workspace(&bad_tree()).expect("lint bad tree");
    let message_at = |path: &str| {
        let found = violations.iter().find(|v| v.path == path);
        found
            .unwrap_or_else(|| panic!("no violation in {path}"))
            .to_string()
    };
    assert_eq!(
        message_at("crates/net/Cargo.toml"),
        "crates/net/Cargo.toml:4: dag-edge: `net` (layer 2) may not depend on `core` (layer 5); \
         edges must point down the lattice"
    );
    assert!(message_at("crates/video/Cargo.toml").contains("`video` (layer 2) may not depend"));
    assert!(message_at("crates/infer/Cargo.toml").contains("external `libc` is not declared"));
    assert_eq!(
        message_at("crates/vision/Cargo.toml"),
        "crates/vision/Cargo.toml:5: dag-unlisted: manifest cannot be read, so its edges are \
         unchecked: inline tables are not supported"
    );
}

/// A root without a `crates/` directory is an error, not a clean tree:
/// `lint_tool check` run from the wrong directory exits 2 (CI's lints
/// job exercises the exit code).
#[test]
fn a_root_without_crates_is_an_error_not_a_pass() {
    let empty = std::env::temp_dir().join(format!("tangram-lint-no-crates-{}", std::process::id()));
    std::fs::create_dir_all(&empty).expect("temp dir");
    let outcomes = [
        lint_workspace(&empty),
        lint_workspace(&empty.join("nonexistent")),
    ];
    std::fs::remove_dir_all(&empty).expect("cleanup");
    for outcome in outcomes {
        let message = outcome.expect_err("no crates/ must not lint clean");
        assert!(message.contains("crates"), "{message}");
    }
}

/// The cycle report names the loop and fires exactly once.
#[test]
fn cycle_report_names_the_loop_once() {
    let violations = lint_workspace(&bad_tree()).expect("lint bad tree");
    let cycles: Vec<&Violation> = violations
        .iter()
        .filter(|v| v.rule == "dag-cycle")
        .collect();
    assert_eq!(cycles.len(), 1);
    assert!(
        cycles[0].message.contains("alpha -> beta -> alpha"),
        "{}",
        cycles[0].message
    );
}

/// The live fixture waivers suppress both `det-hash-order` hits in
/// `crates/stitch/src/noise.rs` and the `conc-raw-thread` hit in
/// `crates/harness/src/pool_abuse.rs` — none survive to the output.
#[test]
fn live_waiver_suppresses_its_violations() {
    let violations = lint_workspace(&bad_tree()).expect("lint bad tree");
    assert!(
        !violations.iter().any(|v| v.path.contains("stitch")),
        "waived stitch violations leaked: {violations:?}"
    );
    assert!(
        !violations.iter().any(|v| v.path.contains("pool_abuse")),
        "waived conc violations leaked: {violations:?}"
    );
    // And the rejected (empty-justification) waiver does NOT suppress:
    // the sim wall-clock hits are still present per the full-list test.
    assert!(violations
        .iter()
        .any(|v| v.path == "crates/sim/src/clock_abuse.rs" && v.rule == "det-wall-clock"));
}

/// The committed workspace lints clean — the exact check CI runs. An
/// exit-0 run also proves every waiver in `config/lint_allow.toml` is
/// load-bearing, because an unused waiver surfaces as `stale-waiver`.
#[test]
fn real_tree_is_clean() {
    let violations = lint_workspace(&repo_root()).expect("lint real tree");
    assert!(
        violations.is_empty(),
        "committed tree has lint violations:\n{}",
        violations
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// Deleting any entry from the real `config/lint_allow.toml` fails the
/// run: each waiver suppresses at least one raw violation, so its
/// removal resurfaces that violation.
#[test]
fn every_real_waiver_is_load_bearing() {
    let root = repo_root();
    let mut raw = rules::check_determinism(&root).expect("determinism");
    raw.extend(conc::check_concurrency(&root).expect("concurrency"));
    raw.extend(dag::check_dag(&root).expect("dag"));
    let (waivers, format_errors) = WaiverSet::load(&root).expect("allowlist");
    assert!(format_errors.is_empty(), "{format_errors:?}");
    assert!(!waivers.entries.is_empty(), "real allowlist is empty");
    for entry in &waivers.entries {
        assert!(
            raw.iter()
                .any(|v| v.path == entry.file && v.rule == entry.rule),
            "waiver for {} / {} suppresses nothing — it must be deleted",
            entry.file,
            entry.rule
        );
    }
}

/// One wall-clock instrument, `benchmark/`: nothing under `crates/`
/// names `Instant` or `SystemTime` — before waivers — and the allowlist
/// holds no waiver that would let some file start to.
#[test]
fn the_real_tree_reads_no_wall_clock() {
    let root = repo_root();
    let raw = rules::check_determinism(&root).expect("determinism");
    let reads: Vec<String> = raw
        .iter()
        .filter(|v| v.rule == "det-wall-clock")
        .map(ToString::to_string)
        .collect();
    assert!(reads.is_empty(), "wall-clock reads:\n{}", reads.join("\n"));
    let (waivers, _) = WaiverSet::load(&root).expect("allowlist");
    assert!(
        !waivers.entries.iter().any(|w| w.rule == "det-wall-clock"),
        "the allowlist waives det-wall-clock"
    );
}

/// Adding an unused waiver to the real allowlist fails the run as
/// `stale-waiver`.
#[test]
fn unused_waiver_added_to_real_allowlist_goes_stale() {
    let root = repo_root();
    let mut raw = rules::check_determinism(&root).expect("determinism");
    raw.extend(conc::check_concurrency(&root).expect("concurrency"));
    raw.extend(dag::check_dag(&root).expect("dag"));
    let (mut waivers, _) = WaiverSet::load(&root).expect("allowlist");
    let (extra, errors) = WaiverSet::parse(
        "[[allow]]\nfile = \"crates/sim/src/no_such_file.rs\"\nrule = \"det-entropy\"\n\
         justification = \"synthetic: must go stale\"\n",
    );
    assert!(errors.is_empty(), "{errors:?}");
    waivers.entries.extend(extra.entries);
    let stale = waivers.apply(&mut raw);
    assert_eq!(stale.len(), 1, "{stale:?}");
    assert_eq!(stale[0].rule, "stale-waiver");
    assert!(stale[0].message.contains("crates/sim/src/no_such_file.rs"));
}
