//! `scenario_tool` — lint and inspect declarative scenario files.
//!
//! The CI lints job runs `scenario_tool check` so a malformed scenario
//! file fails the build at lint time, with the loader's own
//! `path:line: message` diagnostics — long before `baselines check`
//! would try to run it.
//!
//! Subcommands:
//!
//! * `check [DIR]` — load and validate every `*.toml` under `DIR`
//!   (default: the workspace's `config/scenarios`, from any directory).
//!   Beyond the loader's validation (which includes duplicate scenario
//!   names across files) this also rejects any file whose canonical form
//!   (`ScenarioFile::to_toml`) fails to round-trip — the property
//!   `tests/scenario_format.rs` holds the library to.
//! * `render FILE` — print one file's canonical TOML form (stable key
//!   order), for normalizing a hand-edited scenario.
//! * `list [DIR]` — one line per scenario: name, camera count, arrival
//!   kind, fault kinds.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use tangram_bench::workspace_root;
use tangram_harness::ScenarioFile;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") => check(&dir_arg(args.get(1))),
        Some("render") => match args.get(1) {
            Some(path) => render(Path::new(path)),
            None => usage("render needs a FILE argument"),
        },
        Some("list") => list(&dir_arg(args.get(1))),
        Some(other) => usage(&format!("unknown subcommand `{other}`")),
        None => usage("missing subcommand"),
    }
}

/// An explicit `DIR` resolves against the current directory; the default
/// is the workspace's own library, wherever the tool runs from.
fn dir_arg(arg: Option<&String>) -> PathBuf {
    arg.map_or_else(|| workspace_root().join("config/scenarios"), PathBuf::from)
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("scenario_tool: {problem}");
    eprintln!("usage: scenario_tool check [DIR] | render FILE | list [DIR]");
    ExitCode::FAILURE
}

/// Validates the whole library; any failure names its file and line.
fn check(dir: &Path) -> ExitCode {
    let library = match ScenarioFile::load_dir(dir) {
        Ok(library) => library,
        Err(err) => {
            eprintln!("scenario_tool check: {err}");
            return ExitCode::FAILURE;
        }
    };
    let mut failures = 0usize;
    for (path, file) in &library {
        // The canonical form must parse back to the same scenario; a
        // failure here means the writer and parser have drifted apart.
        match ScenarioFile::parse_str(&file.to_toml()) {
            Ok(back) if back == *file => {
                println!("ok {} ({})", path.display(), file.name);
            }
            Ok(_) => {
                eprintln!("{}: canonical form does not round-trip", path.display());
                failures += 1;
            }
            Err(err) => {
                eprintln!("{}: canonical form fails to parse: {err}", path.display());
                failures += 1;
            }
        }
    }
    if failures == 0 {
        println!("{} scenario(s) valid", library.len());
        ExitCode::SUCCESS
    } else {
        eprintln!("{failures} scenario(s) invalid");
        ExitCode::FAILURE
    }
}

fn render(path: &Path) -> ExitCode {
    match ScenarioFile::load(path) {
        Ok(file) => {
            print!("{}", file.to_toml());
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("scenario_tool render: {err}");
            ExitCode::FAILURE
        }
    }
}

fn list(dir: &Path) -> ExitCode {
    let library = match ScenarioFile::load_dir(dir) {
        Ok(library) => library,
        Err(err) => {
            eprintln!("scenario_tool list: {err}");
            return ExitCode::FAILURE;
        }
    };
    for (path, file) in &library {
        let faults = if file.scenario.faults.is_empty() {
            "none".to_string()
        } else {
            file.scenario
                .faults
                .iter()
                .map(|f| f.kind.name())
                .collect::<Vec<_>>()
                .join(",")
        };
        println!(
            "{:<24} {:>2} cameras  arrival={:<8} faults={}  ({})",
            file.name,
            file.run.cameras,
            file.scenario.arrival.kind(),
            faults,
            path.display()
        );
    }
    ExitCode::SUCCESS
}
