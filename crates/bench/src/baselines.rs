//! The committed baselines as one table, and the one gate over them:
//! byte equality.
//!
//! Every file under `baselines/` is a row of [`FILES`] — its name, what
//! it pins, and the function that regenerates its exact bytes at the
//! fixed seed — driven by the one `baselines` binary (`check`, `write`,
//! `list`) and by a tier-1 test that runs [`check`] at one and two
//! workers. `check` regenerates a row in memory and compares it with the
//! committed file; only on a mismatch does it explain, by the differing
//! JSON paths ([`Json::diff`]) or the first divergent trace event.

use crate::ext::{scenario_library, scenarios_document, CityScale, RAMP_FRAMES};
use crate::say;
use std::io::Write;
use std::path::Path;
use tangram_harness::json::Json;
use tangram_harness::presets::{
    fairness_grid, overload_grid, smoke_grid, trace_overload_grid, trace_smoke_grid, BASELINE_SEED,
};
use tangram_harness::{run_grid, run_grid_full, SweepGrid};
use tangram_trace::TraceLog;

/// One committed file under `baselines/`.
#[derive(Debug, Clone, Copy)]
pub struct Baseline {
    /// The file name under `baselines/`.
    pub file: &'static str,
    /// What a byte of drift in it means.
    pub pins: &'static str,
    /// Regenerates the file's bytes on `workers` threads; `root` is the
    /// workspace root (only the scenario library is read from it).
    pub render: fn(root: &Path, workers: usize) -> Result<String, String>,
}

/// Every committed baseline.
pub const FILES: [Baseline; 7] = [
    Baseline {
        file: "BENCH_smoke.json",
        pins: "trace replay: four systems × {20, 40} Mbps over two proxy scenes, 16 cells",
        render: |_, workers| report(&smoke_grid(BASELINE_SEED), workers),
    },
    Baseline {
        file: "BENCH_overload.json",
        pins: "admission: the `ext_overload --quick` grid — drop counts and per-tenant breakdown",
        render: |_, workers| report(&overload_grid(BASELINE_SEED, RAMP_FRAMES, true), workers),
    },
    Baseline {
        file: "BENCH_fairness.json",
        pins: "weighted-DRR ingress: the `ext_fairness --quick` grid — admitted shares, queue peaks",
        render: |_, workers| report(&fairness_grid(BASELINE_SEED, RAMP_FRAMES, true), workers),
    },
    Baseline {
        file: "BENCH_throughput.json",
        pins: "sharded runtime: the `ext_throughput --quick` counts, identical at 1 and 2 shards",
        render: |_, _| {
            let preset = CityScale::preset(true, BASELINE_SEED, None);
            Ok(preset.document(&preset.oracle()?).render() + "\n")
        },
    },
    Baseline {
        file: "BENCH_scenarios.json",
        pins: "fault injection: every `config/scenarios/*.toml`, identical at 1 and 8 shards",
        render: |root, _| {
            let library = scenario_library(&root.join("config/scenarios"), &[1, 8])?;
            Ok(scenarios_document("full", &library).render() + "\n")
        },
    },
    Baseline {
        file: "TRACE_smoke.jsonl",
        pins: "every runtime event of cell 0 of the smoke grid, hash-chained",
        render: |_, workers| golden_trace(&trace_smoke_grid(), workers),
    },
    Baseline {
        file: "TRACE_overload.jsonl",
        pins: "every runtime event of the 24 fps/camera shedder cell of the overload ramp, hash-chained",
        render: |_, workers| golden_trace(&trace_overload_grid(), workers),
    },
];

/// The `BENCH_<name>.json` bytes of a grid run.
fn report(grid: &SweepGrid, workers: usize) -> Result<String, String> {
    Ok(run_grid(grid, workers).to_json())
}

/// The JSONL trace of a single-cell, trace-capturing grid.
fn golden_trace(grid: &SweepGrid, workers: usize) -> Result<String, String> {
    let trace = run_grid_full(grid, workers)
        .pop()
        .and_then(|cell| cell.trace);
    let missing = || format!("grid '{}' captured no trace", grid.name);
    trace.map(|trace| trace.to_jsonl()).ok_or_else(missing)
}

/// The refresh command every failed check ends with.
const REFRESH: &str = "If this change is intended, refresh the baselines (and say in the PR which \
                       numbers moved and why):\n  cargo run --release --bin baselines -- write";

/// The one gate: regenerates each of `rows` and compares it with
/// `<root>/baselines/<file>`, reporting on `out`. Returns the exit
/// status: 0 when every row is byte-equal; 1 when one differs or cannot
/// be regenerated (a shard count diverged from its oracle), with the
/// differing JSON paths or the first divergent trace event; 2 when a
/// committed file cannot be read as what it is.
pub fn check(rows: &[Baseline], root: &Path, workers: usize, out: &mut dyn Write) -> u8 {
    let mut status = 0;
    for row in rows {
        let file = row.file;
        match difference(row, root, workers) {
            Ok(None) => say!(out, "ok baselines/{file}"),
            Ok(Some(why)) => {
                say!(out, "FAILED baselines/{file}: {why}");
                status = status.max(1);
            }
            Err(why) => {
                say!(out, "ERROR baselines/{file}: {why}");
                status = 2;
            }
        }
    }
    if status != 0 {
        say!(out, "\n{REFRESH}");
    }
    status
}

/// How the regenerated row differs from the committed file, if it does.
///
/// # Errors
///
/// The committed file is missing, unreadable, unparsable or fails its
/// own hash chain.
fn difference(row: &Baseline, root: &Path, workers: usize) -> Result<Option<String>, String> {
    let committed = std::fs::read_to_string(root.join("baselines").join(row.file))
        .map_err(|err| format!("cannot read: {err}"))?;
    let regenerated = match (row.render)(root, workers) {
        Ok(text) => text,
        Err(err) => return Ok(Some(format!("cannot regenerate: {err}"))),
    };
    if committed == regenerated {
        return Ok(None);
    }
    let lines = if row.file.ends_with(".jsonl") {
        explain_trace(&committed, &regenerated)?
    } else {
        explain_json(&committed, &regenerated)?
    };
    let lines = lines.join("\n  ");
    Ok(Some(format!(
        "regenerated bytes differ (committed → regenerated):\n  {lines}"
    )))
}

/// The refresh: regenerates every row into `dir` (`<root>/baselines`
/// unless `--out` says otherwise), reporting on `out`. Returns the exit
/// status: 1 naming the row that could not be regenerated or written.
pub fn write(root: &Path, dir: &Path, workers: usize, out: &mut dyn Write) -> u8 {
    if let Err(err) = std::fs::create_dir_all(dir) {
        say!(out, "ERROR {}: {err}", dir.display());
        return 1;
    }
    for row in &FILES {
        let path = dir.join(row.file);
        let save = |text| std::fs::write(&path, text).map_err(|err| err.to_string());
        match (row.render)(root, workers).and_then(save) {
            Ok(()) => say!(out, "wrote {}", path.display()),
            Err(err) => {
                say!(out, "ERROR {}: {err}", path.display());
                return 1;
            }
        }
    }
    0
}

fn explain_json(committed: &str, regenerated: &str) -> Result<Vec<String>, String> {
    let committed = Json::parse(committed).map_err(|err| format!("not JSON: {err}"))?;
    let regenerated = Json::parse(regenerated).expect("the writer's output parses");
    let mut paths = committed.diff(&regenerated);
    if paths.is_empty() {
        paths.push("same document, different formatting".to_string());
    }
    Ok(paths)
}

fn explain_trace(committed: &str, regenerated: &str) -> Result<Vec<String>, String> {
    let load = |text: &str| {
        let log = TraceLog::from_jsonl(text)?;
        log.verify()
            .map_err(|err| format!("hash chain broken: {err}"))?;
        Ok::<_, String>(log)
    };
    let committed = load(committed)?;
    let regenerated = load(regenerated).expect("the sink's own chain verifies");
    let divergence = committed.first_divergence(&regenerated);
    let describe = |d: tangram_trace::TraceDivergence| d.describe().replace('\n', "\n  ");
    Ok(vec![divergence.map_or_else(
        || "same events, different bytes".to_string(),
        describe,
    )])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace_root;
    use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
    use tangram_trace::{TraceEvent, TraceSink};
    use tangram_types::time::SimTime;

    /// The licence every deletion leans on, inside `cargo test`.
    #[test]
    fn every_committed_baseline_regenerates_byte_for_byte() {
        for workers in [1, 2] {
            let mut said = Vec::new();
            let status = check(&FILES, &workspace_root(), workers, &mut said);
            let said = String::from_utf8(said).expect("utf-8");
            assert_eq!(status, 0, "at {workers} worker(s):\n{said}");
        }
    }

    #[test]
    fn the_table_is_the_directory() {
        let listing = std::fs::read_dir(workspace_root().join("baselines")).expect("baselines/");
        let on_disk = listing.map(|entry| entry.expect("entry").file_name());
        let mut on_disk: Vec<String> = on_disk
            .map(|name| name.into_string().expect("utf-8"))
            .collect();
        on_disk.sort();
        let mut rows: Vec<&str> = FILES.iter().map(|row| row.file).collect();
        rows.sort_unstable();
        assert_eq!(rows, on_disk, "one row per committed file, no duplicates");
    }

    /// Runs `check` on `file`'s row against a scratch root holding the
    /// committed text as `edit` leaves it (`None`: no file at all);
    /// returns the exit status and what was said, less the refresh hint
    /// every failure must end with.
    fn check_perturbed(file: &str, edit: impl FnOnce(String) -> Option<String>) -> (u8, String) {
        let row = FILES.iter().find(|row| row.file == file).expect("a row");
        // Tests run concurrently and share files: one scratch root per call.
        static CALLS: AtomicUsize = AtomicUsize::new(0);
        let unique = format!(
            "tangram-{}-{}",
            std::process::id(),
            CALLS.fetch_add(1, Relaxed)
        );
        let root = std::env::temp_dir().join(unique);
        std::fs::create_dir_all(root.join("baselines")).expect("scratch root");
        let committed = workspace_root().join("baselines").join(file);
        let text = std::fs::read_to_string(committed).expect("committed baseline");
        if let Some(text) = edit(text) {
            std::fs::write(root.join("baselines").join(file), text).expect("scratch copy");
        }
        let mut said = Vec::new();
        let status = check(&[*row], &root, 2, &mut said);
        std::fs::remove_dir_all(&root).expect("scratch root removed");
        let said = String::from_utf8(said).expect("utf-8");
        let hint = "\n  cargo run --release --bin baselines -- write\n";
        let explanation = said
            .strip_suffix(hint)
            .expect("ends with the refresh command");
        (status, explanation.to_string())
    }

    #[test]
    fn a_drifted_report_names_file_path_and_both_values() {
        let swap = |from: &'static str, to: &'static str| {
            move |text: String| {
                assert!(text.contains(from), "{from}");
                Some(text.replacen(from, to, 1))
            }
        };
        // One metric of the first cell.
        let edit = swap("\"violations\": 1360", "\"violations\": 1361");
        let (status, said) = check_perturbed("BENCH_overload.json", edit);
        assert_eq!(status, 1, "{said}");
        assert!(said.contains("baselines/BENCH_overload.json: "), "{said}");
        assert!(
            said.contains("cells[0].metrics.violations: 1361 → 1360"),
            "{said}"
        );
        // A per-tenant queue peak.
        let edit = swap("\"peak_queued\": 0", "\"peak_queued\": 7");
        let (status, said) = check_perturbed("BENCH_overload.json", edit);
        assert_eq!(status, 1, "{said}");
        assert!(
            said.contains("cells[0].metrics.tenants[0].peak_queued: 7 → 0"),
            "{said}"
        );
        // A grid axis.
        let edit = swap("\"seeds\": [\n      42", "\"seeds\": [\n      43");
        let (status, said) = check_perturbed("BENCH_overload.json", edit);
        assert_eq!(status, 1, "{said}");
        assert!(said.contains("grid.seeds[0]: 43 → 42"), "{said}");
    }

    #[test]
    fn a_flipped_verdict_names_the_first_divergent_event() {
        // Re-chain the golden trace through a fresh sink with its first
        // admission drop admitted: a valid chain, one event off.
        let mut flipped_at = None;
        let rechain = |text: String| {
            let golden = TraceLog::from_jsonl(&text).expect("golden trace parses");
            let mut sink = TraceSink::new();
            for record in &golden.records {
                let mut event = record.event.clone();
                if let TraceEvent::AdmissionVerdict { admitted, .. } = &mut event {
                    if flipped_at.is_none() && !*admitted {
                        *admitted = true;
                        flipped_at = Some(record.seq);
                    }
                }
                sink.emit(SimTime::from_micros(record.at_us), event);
            }
            Some(sink.finish().to_jsonl())
        };
        let (status, said) = check_perturbed("TRACE_overload.jsonl", rechain);
        let seq = flipped_at.expect("the overload golden cell sheds work");
        assert_eq!(status, 1, "{said}");
        assert!(said.contains("baselines/TRACE_overload.jsonl: "), "{said}");
        let named = format!("first divergence at seq {seq}: admission.verdict differs");
        assert!(said.contains(&named), "{said}");
    }

    #[test]
    fn a_damaged_baseline_is_a_named_error_not_a_panic() {
        // A hash chain broken in place: one admitted verdict edited
        // without re-chaining.
        let edit = |text: String| Some(text.replacen("\"admitted\":true", "\"admitted\":false", 1));
        let (status, said) = check_perturbed("TRACE_overload.jsonl", edit);
        assert_eq!(status, 2, "{said}");
        assert!(
            said.contains("TRACE_overload.jsonl: hash chain broken"),
            "{said}"
        );
        // Truncated mid-record (the files are ASCII).
        let halve = |text: String| Some(text[..text.len() / 2].to_string());
        let (status, said) = check_perturbed("TRACE_overload.jsonl", halve);
        assert_eq!(status, 2, "{said}");
        assert!(said.contains("TRACE_overload.jsonl: line "), "{said}");
        let (status, said) = check_perturbed("BENCH_overload.json", halve);
        assert_eq!(status, 2, "{said}");
        assert!(said.contains("BENCH_overload.json: not JSON"), "{said}");
        // Missing.
        let (status, said) = check_perturbed("BENCH_overload.json", |_| None);
        assert_eq!(status, 2, "{said}");
        assert!(said.contains("BENCH_overload.json: cannot read"), "{said}");
    }
}
