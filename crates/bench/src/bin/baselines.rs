//! `baselines` — the one gate over the committed files under `baselines/`.
//!
//! * `baselines check [--workers N]` — regenerates every row of
//!   [`tangram_bench::baselines::FILES`] in memory and compares it, byte
//!   for byte, with the committed file. Exit 0 when all are equal; 1 when
//!   one differs, naming the differing JSON paths or the first divergent
//!   trace event; 2 when a committed file is missing or unreadable, or on
//!   a usage error.
//! * `baselines write [--out DIR] [--workers N]` — the refresh: writes
//!   every row into `DIR` (default: `baselines/` itself).
//! * `baselines list` — the files and what each pins.
//!
//! Paths resolve from the workspace root, so the command works from any
//! directory.

use std::process::ExitCode;
use tangram_bench::baselines::{check, write, FILES};
use tangram_bench::{workspace_root, ExpOpts};
use tangram_harness::presets::BASELINE_SEED;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let command = args.next().unwrap_or_default();
    let opts = match ExpOpts::parse(args) {
        Ok(opts) => opts,
        Err(err) => return usage(&err),
    };
    // The rows are pinned at their own seed and sizes.
    if opts.quick || opts.frames.is_some() || opts.seed != BASELINE_SEED {
        return usage("only --workers and --out apply");
    }
    if opts.out.is_some() && command != "write" {
        return usage("--out applies to `write` only");
    }
    let (root, workers, out) = (
        workspace_root(),
        opts.workers(),
        &mut std::io::stdout().lock(),
    );
    match command.as_str() {
        "check" => ExitCode::from(check(&FILES, &root, workers, out)),
        "write" => {
            let dir = opts.out.unwrap_or_else(|| root.join("baselines"));
            ExitCode::from(write(&root, &dir, workers, out))
        }
        "list" => {
            for row in &FILES {
                println!("{:<22} {}", row.file, row.pins);
            }
            ExitCode::SUCCESS
        }
        other => usage(&format!("unknown command `{other}`")),
    }
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("error: {problem}");
    eprintln!("usage: baselines check [--workers N] | write [--out DIR] [--workers N] | list");
    ExitCode::from(2)
}
