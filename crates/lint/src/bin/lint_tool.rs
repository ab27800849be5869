//! `lint_tool` — the workspace invariant checker's CLI.
//!
//! The CI lints job runs `lint_tool check` beside `scenario_tool check`
//! and `scripts/check_docs.sh`, so a determinism hazard, a DAG
//! violation or a stale waiver fails the build at lint time with a
//! `path:line: rule-id: message` diagnostic — long before a runtime
//! byte-comparison could notice.
//!
//! Subcommands:
//!
//! * `check [--root DIR]` — run every rule family over the workspace
//!   (default: the current directory), apply `config/lint_allow.toml`,
//!   and print surviving violations one per line. Exit 0 when clean,
//!   1 on violations, 2 on usage or I/O errors — a root without a
//!   readable `crates/` directory among them, so a check run from the
//!   wrong directory cannot pass.
//! * `rules` — list every rule id with its one-line summary.

use std::path::PathBuf;
use std::process::ExitCode;
use tangram_lint::{lint_workspace, RULES};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") => check(&args[1..]),
        Some("rules") => {
            for rule in RULES {
                println!("{:<16} {}", rule.id, rule.summary);
            }
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("usage: lint_tool check [--root DIR] | lint_tool rules");
            ExitCode::from(2)
        }
    }
}

fn check(args: &[String]) -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--root" => match iter.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => {
                    eprintln!("lint_tool: --root needs a directory");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("lint_tool: unknown argument `{other}`");
                return ExitCode::from(2);
            }
        }
    }
    match lint_workspace(&root) {
        Ok(violations) if violations.is_empty() => {
            eprintln!("lint_tool: OK — all workspace invariants hold");
            ExitCode::SUCCESS
        }
        Ok(violations) => {
            for violation in &violations {
                println!("{violation}");
            }
            eprintln!("lint_tool: {} violation(s)", violations.len());
            ExitCode::FAILURE
        }
        Err(message) => {
            eprintln!("lint_tool: {message}");
            ExitCode::from(2)
        }
    }
}
