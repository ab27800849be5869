//! Options common to all experiment binaries.

use crate::report::BenchReport;
use std::io::Write;
use std::path::PathBuf;

/// Options every experiment binary accepts.
#[derive(Debug, Clone, Default)]
pub struct ExpOpts {
    /// Experiment seed (`--seed N`).
    pub seed: u64,
    /// Frame-count override (`--frames N`).
    pub frames: Option<usize>,
    /// Quick mode (`--quick`): fewer frames/scenes for smoke runs.
    pub quick: bool,
    /// Worker-thread override (`--workers N`); default: all cores.
    pub workers: Option<usize>,
    /// Directory to write `BENCH_<name>.json` reports into (`--out DIR`);
    /// default: don't write.
    pub out: Option<PathBuf>,
}

impl ExpOpts {
    /// Parses the given arguments (first element is the first flag, not
    /// the program name).
    ///
    /// # Errors
    ///
    /// Names the flag that is unknown or whose value is missing or does
    /// not parse — running the defaults instead would write a
    /// legitimate-looking report for an experiment nobody asked for
    /// (`--quik` must not start the multi-minute full run); the bins
    /// print it and exit 2.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        fn value<T: std::str::FromStr>(flag: &str, raw: Option<String>) -> Result<T, String> {
            let raw = raw.ok_or_else(|| format!("{flag} needs a value"))?;
            raw.parse()
                .map_err(|_| format!("{flag}: cannot parse `{raw}`"))
        }
        let mut opts = Self {
            seed: 42,
            ..Self::default()
        };
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            match flag.as_str() {
                "--seed" => opts.seed = value(&flag, args.next())?,
                "--frames" => opts.frames = Some(value(&flag, args.next())?),
                "--workers" => opts.workers = Some(value(&flag, args.next())?),
                "--out" => opts.out = Some(value(&flag, args.next())?),
                "--quick" => opts.quick = true,
                _ => return Err(format!("unknown flag `{flag}`")),
            }
        }
        Ok(opts)
    }

    /// Frame budget: explicit `--frames`, else `quick_default` in quick
    /// mode, else `full_default`.
    #[must_use]
    pub fn frame_budget(&self, quick_default: usize, full_default: usize) -> usize {
        let default = if self.quick {
            quick_default
        } else {
            full_default
        };
        self.frames.unwrap_or(default)
    }

    /// The resolved worker count.
    #[must_use]
    pub fn workers(&self) -> usize {
        crate::pool::resolve_workers(self.workers)
    }

    /// Writes the report into `--out` (if given), returning the path.
    ///
    /// # Errors
    ///
    /// Names `--out` and the file that could not be written.
    pub fn try_write(&self, report: &BenchReport) -> Result<Option<PathBuf>, String> {
        let Some(dir) = &self.out else {
            return Ok(None);
        };
        report.write_to_dir(dir).map(Some).map_err(|err| {
            format!(
                "--out {}: failed to write {}: {err}",
                dir.display(),
                report.file_name()
            )
        })
    }

    /// [`ExpOpts::try_write`] for a bin's `main`: reports the path on
    /// `out`, or exits with status 1 — a baseline refresh must not
    /// "succeed" without refreshing.
    pub fn maybe_write(&self, report: &BenchReport, out: &mut dyn Write) {
        match self.try_write(report) {
            Ok(Some(path)) => {
                writeln!(out, "(wrote {})", path.display()).expect("experiment output is writable");
            }
            Ok(None) => {}
            Err(err) => {
                eprintln!("error: {err}");
                std::process::exit(1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<ExpOpts, String> {
        ExpOpts::parse(args.iter().map(ToString::to_string))
    }

    fn opts(args: &[&str]) -> ExpOpts {
        parse(args).expect("well-formed flags")
    }

    #[test]
    fn defaults() {
        let o = opts(&[]);
        assert_eq!(o.seed, 42);
        assert_eq!(o.frames, None);
        assert!(!o.quick);
        assert_eq!(o.workers, None);
        assert!(o.out.is_none());
        assert!(o.workers() >= 1);
    }

    #[test]
    fn parses_all_flags() {
        let o = opts(&[
            "--seed",
            "7",
            "--frames",
            "13",
            "--quick",
            "--workers",
            "3",
            "--out",
            "target/bench",
        ]);
        assert_eq!(o.seed, 7);
        assert_eq!(o.frames, Some(13));
        assert!(o.quick);
        assert_eq!(o.workers, Some(3));
        assert_eq!(o.out.as_deref(), Some(std::path::Path::new("target/bench")));
        assert_eq!(o.workers(), 3);
    }

    #[test]
    fn unknown_flags_are_errors_naming_the_flag() {
        for flag in ["--quik", "--shards"] {
            let err = parse(&["--quick", flag, "2"]).expect_err("unknown flag");
            assert_eq!(err, format!("unknown flag `{flag}`"));
        }
    }

    #[test]
    fn malformed_values_name_their_flag() {
        for (args, flag) in [
            (&["--seed", "4x2"][..], "--seed"),
            (&["--frames", "ten"], "--frames"),
            (&["--workers", "-1"], "--workers"),
            // A flag where a value belongs is not a value.
            (&["--seed", "--quick"], "--seed"),
        ] {
            let err = parse(args).expect_err("malformed value");
            assert!(err.starts_with(flag), "{args:?}: {err}");
            assert!(err.contains("cannot parse"), "{args:?}: {err}");
        }
    }

    #[test]
    fn a_trailing_flag_without_its_value_is_an_error() {
        for flag in ["--out", "--seed", "--frames", "--workers"] {
            let err = parse(&["--quick", flag]).expect_err("missing value");
            assert_eq!(err, format!("{flag} needs a value"));
        }
    }

    #[test]
    fn an_unwritable_out_dir_is_an_error() {
        let report = BenchReport {
            name: "cli".to_string(),
            grid: crate::json::Json::Null,
            cells: Vec::new(),
        };
        assert_eq!(opts(&[]).try_write(&report), Ok(None));
        // A file where the directory should be: nothing can be created.
        let file = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml");
        let err = opts(&["--out", file])
            .try_write(&report)
            .expect_err("cannot create a directory over a file");
        assert!(err.starts_with("--out "), "{err}");
        assert!(err.contains("BENCH_cli.json"), "{err}");
    }

    #[test]
    fn frame_budget_precedence() {
        assert_eq!(opts(&["--frames", "5"]).frame_budget(10, 100), 5);
        assert_eq!(opts(&["--quick"]).frame_budget(10, 100), 10);
        assert_eq!(opts(&[]).frame_budget(10, 100), 100);
    }
}
