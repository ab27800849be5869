//! Golden-trace workbench: inspect and verify the runtime event traces
//! (`tangram_trace` JSONL) that `baselines check` regenerates.
//!
//! ```text
//! trace_tool stats   <trace.jsonl>
//! trace_tool filter  <trace.jsonl> --kind KIND
//! trace_tool tail    <trace.jsonl> [-n N]
//! trace_tool verify  <trace.jsonl>
//! ```
//!
//! `stats` prints per-kind event counts and the chain's final hash;
//! `filter` prints records of one event kind; `tail` the last N records;
//! `verify` re-derives the hash chain and sequence/time monotonicity.
//! Exit status 0 on success, 1 when verification fails, 2 on usage/IO
//! errors — an unknown event kind or flag is a usage error, never an
//! empty answer. A reader that closes the pipe early (`… | head -1`) has
//! what it wanted: that ends `filter` and `tail` with status 0.

use std::io::{BufWriter, ErrorKind, Write};
use tangram_trace::{TraceEvent, TraceLog, TraceRecord};

fn load(path: &str) -> TraceLog {
    let read = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"));
    let log = read.and_then(|text| TraceLog::from_jsonl(&text).map_err(|e| format!("{path}: {e}")));
    log.unwrap_or_else(|err| {
        eprintln!("trace_tool: {err}");
        std::process::exit(2);
    })
}

fn usage(problem: &str) -> ! {
    eprintln!(
        "trace_tool: {problem}\n\
         usage: trace_tool stats  <trace.jsonl>\n\
         \x20      trace_tool filter <trace.jsonl> --kind KIND\n\
         \x20      trace_tool tail   <trace.jsonl> [-n N]\n\
         \x20      trace_tool verify <trace.jsonl>"
    );
    std::process::exit(2);
}

/// The value of the one flag a subcommand takes, if given; any other
/// argument is a usage error naming it.
fn only_flag<'a>(rest: &'a [String], flag: &str) -> Option<&'a str> {
    match rest {
        [] => None,
        [given, value] if given == flag => Some(value),
        [given] if given == flag => usage(&format!("{flag} needs a value")),
        [given, _, other, ..] if given == flag => usage(&format!("unknown argument `{other}`")),
        [other, ..] => usage(&format!("unknown argument `{other}`")),
    }
}

fn stats(path: &str) {
    let log = load(path);
    println!("{path}: {} events", log.records.len());
    for (kind, count) in log.stats() {
        if count > 0 {
            println!("  {kind:<20} {count}");
        }
    }
    let counts = log.replay_counts();
    println!(
        "  replay: {} batches / {} patches / {} completions / {} dropped",
        counts.batches, counts.patches, counts.completions, counts.dropped
    );
    println!("  final hash {:016x}", log.final_hash());
}

/// Writes `records` to stdout as JSONL: one lock, one buffered writer,
/// one line buffer.
fn print<'a>(mut records: impl Iterator<Item = &'a TraceRecord>) {
    let mut out = BufWriter::new(std::io::stdout().lock());
    let mut line = String::new();
    let written = records
        .try_for_each(|record| {
            line.clear();
            record.write_line(&mut line);
            line.push('\n');
            out.write_all(line.as_bytes())
        })
        .and_then(|()| out.flush());
    match written {
        Ok(()) => {}
        Err(e) if e.kind() == ErrorKind::BrokenPipe => {}
        Err(e) => {
            eprintln!("trace_tool: cannot write to stdout: {e}");
            std::process::exit(2);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [command, path, rest @ ..] = &args[..] else {
        usage("expected a subcommand and a trace file")
    };
    match command.as_str() {
        "stats" | "verify" if !rest.is_empty() => {
            usage(&format!("unknown argument `{}`", rest[0]));
        }
        "stats" => stats(path),
        "filter" => {
            let Some(kind) = only_flag(rest, "--kind") else {
                usage("filter needs --kind KIND")
            };
            if !TraceEvent::KINDS.contains(&kind) {
                let kinds = TraceEvent::KINDS.join(" ");
                usage(&format!("unknown event kind `{kind}` (kinds: {kinds})"));
            }
            let log = load(path);
            print(log.records.iter().filter(|r| r.event.kind() == kind));
        }
        "tail" => {
            let n = only_flag(rest, "-n").map_or(10, |v| {
                v.parse()
                    .unwrap_or_else(|_| usage(&format!("-n: cannot parse `{v}`")))
            });
            let log = load(path);
            let skip = log.records.len().saturating_sub(n);
            print(log.records[skip..].iter());
        }
        "verify" => {
            let log = load(path);
            match log.verify() {
                Ok(()) => println!(
                    "trace_tool: OK — {} events, chain verified, final hash {:016x}",
                    log.records.len(),
                    log.final_hash()
                ),
                Err(e) => {
                    eprintln!("trace_tool: {path}: chain verification failed: {e}");
                    std::process::exit(1);
                }
            }
        }
        other => usage(&format!("unknown subcommand `{other}`")),
    }
}
