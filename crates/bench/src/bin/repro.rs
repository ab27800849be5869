//! `repro` — the one way to reproduce the paper's figures and tables, and
//! to run the streaming runtime's own experiments (the `ext_*` rows).
//!
//! * `repro list` — the experiment ids, one per line;
//! * `repro <id> [flags]` — runs one row of [`tangram_bench::repro::ROWS`]:
//!   its tables, then its claims evaluated from the numbers just printed;
//! * `repro all [flags]` — every row in figure order;
//! * `repro docs` — the generated block of `docs/EXPERIMENTS.md`.
//!
//! Flags are the usual [`ExpOpts`] set (`--quick`, `--seed`, `--frames`,
//! `--workers`, `--out`). Under `--quick` a claim whose observation
//! differs from its declaration prints `[FAIL]` and the exit status is
//! 1; without it claims are printed and never affect the status. An
//! unknown id or flag exits 2.

use std::process::ExitCode;
use tangram_bench::repro::{docs, Row, ROWS};
use tangram_bench::ExpOpts;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let id = args.next().unwrap_or_default();
    if id == "list" || id == "docs" {
        let ids = || ROWS.map(|row| row.id).join("\n") + "\n";
        print!("{}", if id == "docs" { docs() } else { ids() });
        return ExitCode::SUCCESS;
    }
    let rows: Vec<&Row> = ROWS
        .iter()
        .filter(|row| id == "all" || row.id == id)
        .collect();
    if rows.is_empty() {
        return usage(&format!("unknown experiment `{id}`"));
    }
    let opts = match ExpOpts::parse(args) {
        Ok(opts) => opts,
        Err(err) => return usage(&err),
    };
    let mut failed = Vec::new();
    for row in rows {
        if !row.report(&opts, &mut std::io::stdout().lock()) && opts.quick {
            failed.push(row.id);
        }
        println!();
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "repro: claims differ from their declarations in: {}",
            failed.join(", ")
        );
        ExitCode::FAILURE
    }
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("error: {problem}");
    eprintln!("usage: repro <list | docs | all | ID> [--quick] [--seed N] [--frames N] [--workers N] [--out DIR]");
    eprintln!("experiments: {}", ROWS.map(|row| row.id).join(" "));
    ExitCode::from(2)
}
