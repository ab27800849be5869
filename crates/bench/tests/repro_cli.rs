//! The `repro` binary's command line, end to end.

use std::process::Command;
use tangram_bench::repro::ROWS;

#[test]
fn an_unknown_id_prints_the_id_list_and_exits_2() {
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("fig99_nonsense")
        .output()
        .expect("repro runs");
    assert_eq!(output.status.code(), Some(2));
    assert!(output.stdout.is_empty());
    let stderr = String::from_utf8(output.stderr).expect("utf-8");
    assert!(
        stderr.contains("unknown experiment `fig99_nonsense`"),
        "{stderr}"
    );
    for row in &ROWS {
        assert!(stderr.contains(row.id), "{} missing from: {stderr}", row.id);
    }
}
