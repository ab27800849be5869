//! The benchmark's command line. `benchmark/run.sh` builds and runs it.
//!
//! * `--workload W --seed N --seconds S --trace 0|1` — one workload, one
//!   pass; the last line of standard output is the result object.
//! * no `--workload` — every workload, both passes, every metric by name
//!   with its unit; `--out DIR` also receives `results.json`.
//! * `--compare A.json B.json` — the A/A table of two `results.json`.
//! * `--manifest` — prints `BENCHMARK.json` as the metric tables declare it.
//!
//! `--out DIR` is where span files and `results.json` go.

use std::path::PathBuf;
use std::process::ExitCode;
use tangram_benchmark::compare::{compare, results_json, WorkloadResults};
use tangram_benchmark::measure::nproc;
use tangram_benchmark::metrics::{manifest_json, WORKLOADS};
use tangram_benchmark::workload::{RunResult, Scale, MIN_REPETITIONS};
use tangram_benchmark::{measure, Pass};

struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    compare: Option<(String, String)>,
    manifest: bool,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workload: None,
        seed: 42,
        seconds: 10.0,
        trace: false,
        out: None,
        compare: None,
        manifest: false,
    };
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let mut value = || {
            rest.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        let number = |text: String| {
            text.parse::<f64>()
                .ok()
                .filter(|v| v.is_finite() && *v >= 0.0)
                .ok_or_else(|| format!("{flag}: `{text}` is not a non-negative number"))
        };
        match flag.as_str() {
            "--workload" => options.workload = Some(value()?),
            "--seed" => {
                let text = value()?;
                options.seed = text
                    .parse()
                    .map_err(|_| format!("--seed: `{text}` is not an unsigned integer"))?;
            }
            "--seconds" => options.seconds = number(value()?)?,
            "--trace" => {
                options.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--out" => options.out = Some(PathBuf::from(value()?)),
            "--compare" => options.compare = Some((value()?, value()?)),
            "--manifest" => options.manifest = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(options)
}

fn print_metrics(workload: &str, result: &RunResult) {
    for (name, unit, q) in &result.metrics {
        if q.n > 1 {
            println!(
                "{workload:<16} {name:<42} {:>18.6} {unit:<6} [q1 {:.6}, q3 {:.6}, n {}]",
                q.median, q.q1, q.q3, q.n
            );
        } else {
            println!("{workload:<16} {name:<42} {:>18.6} {unit}", q.median);
        }
    }
    for error in &result.errors {
        eprintln!("{workload}: CHECK FAILED: {error}");
    }
}

/// Runs one pass of one workload, writing its spans under `out`.
fn run_pass(name: &str, options: &Options, trace: bool) -> Result<RunResult, String> {
    let pass = if trace {
        Pass::PerLayer
    } else {
        Pass::EndToEnd {
            seconds: options.seconds,
            min_repetitions: MIN_REPETITIONS,
        }
    };
    let (result, spans) = measure(name, Scale::FULL, options.seed, pass)
        .ok_or_else(|| format!("no workload is called `{name}`"))?;
    if let (Some(spans), Some(dir)) = (spans, &options.out) {
        let path = dir.join(format!("spans-{name}.jsonl"));
        std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, spans.to_jsonl()))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(result)
}

fn run(options: &Options) -> Result<bool, String> {
    if options.manifest {
        print!("{}", manifest_json());
        return Ok(true);
    }
    if let Some((a, b)) = &options.compare {
        let read =
            |path: &String| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
        let (table, all_ok) = compare(&read(a)?, &read(b)?)?;
        print!("{table}");
        return Ok(all_ok);
    }
    if let Some(name) = &options.workload {
        let result = run_pass(name, options, options.trace)?;
        print_metrics(name, &result);
        println!("{}", result.to_json_line());
        return Ok(result.correct);
    }
    println!(
        "tangram benchmark: seed {}, {} s per workload, host nproc {}",
        options.seed,
        options.seconds,
        nproc()
    );
    let mut all = Vec::new();
    for (name, _) in WORKLOADS {
        let end_to_end = run_pass(name, options, false)?;
        print_metrics(name, &end_to_end);
        let per_layer = run_pass(name, options, true)?;
        print_metrics(name, &per_layer);
        all.push(WorkloadResults {
            name,
            end_to_end,
            per_layer,
        });
    }
    if let Some(dir) = &options.out {
        let path = dir.join("results.json");
        std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, results_json(options.seed, options.seconds, &all)))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("(wrote {})", path.display());
    }
    Ok(all
        .iter()
        .all(|w| w.end_to_end.correct && w.per_layer.correct))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args).and_then(|options| run(&options)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("tangram-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
