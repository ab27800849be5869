//! `trace_tool` refuses what it does not understand: exit 2 naming the
//! offender, never an empty answer.

use std::process::{Command, Stdio};
use tangram_trace::TraceEvent;

fn trace_tool(args: &[&str]) -> (Option<i32>, String, String) {
    let golden = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../baselines/TRACE_smoke.jsonl"
    );
    let output = Command::new(env!("CARGO_BIN_EXE_trace_tool"))
        .args([args[0], golden])
        .args(&args[1..])
        .output()
        .expect("trace_tool runs");
    let text = |bytes| String::from_utf8(bytes).expect("utf-8");
    (
        output.status.code(),
        text(output.stdout),
        text(output.stderr),
    )
}

#[test]
fn an_unknown_kind_exits_2_listing_the_kinds() {
    let (code, stdout, stderr) = trace_tool(&["filter", "--kind", "nope"]);
    assert_eq!((code, stdout.as_str()), (Some(2), ""), "{stderr}");
    assert!(stderr.contains("unknown event kind `nope`"), "{stderr}");
    for kind in TraceEvent::KINDS {
        assert!(stderr.contains(kind), "{kind} missing from: {stderr}");
    }
    let (code, stdout, _) = trace_tool(&["filter", "--kind", "session.end"]);
    assert_eq!((code, stdout.lines().count()), (Some(0), 1));
}

#[test]
fn an_unknown_flag_exits_2_naming_it() {
    for args in [
        &["tail", "-n", "1", "--bogus", "3"][..],
        &["tail", "--bogus", "3"],
        &["filter", "--kind", "session.end", "--bogus"],
        &["stats", "--bogus"],
        &["verify", "--bogus"],
    ] {
        let (code, stdout, stderr) = trace_tool(args);
        assert_eq!((code, stdout.as_str()), (Some(2), ""), "{args:?}: {stderr}");
        assert!(
            stderr.contains("unknown argument `--bogus`"),
            "{args:?}: {stderr}"
        );
    }
    let (code, stdout, _) = trace_tool(&["tail", "-n", "1"]);
    assert_eq!((code, stdout.lines().count()), (Some(0), 1));
    assert_eq!(trace_tool(&["verify"]).0, Some(0));
}

/// `trace_tool filter … | head -1`: the reader goes away with most of
/// the answer unwritten. That is its business, not an error — and never
/// a panic (`println!` aborts on `EPIPE`, exit 101).
#[test]
fn a_reader_that_closes_the_pipe_early_ends_filter_and_tail_with_status_0() {
    let golden = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../baselines/TRACE_overload.jsonl"
    );
    for args in [
        &["filter", golden, "--kind", "admission.verdict"][..],
        &["tail", golden, "-n", "400"],
    ] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_trace_tool"))
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("trace_tool runs");
        // Closed before the tool has read its input, let alone written.
        drop(child.stdout.take());
        let output = child.wait_with_output().expect("trace_tool exits");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(0), "{args:?}: {stderr}");
        assert_eq!(stderr, "", "{args:?}");
    }
}
