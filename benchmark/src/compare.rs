//! `--compare A.json B.json`: the A/A (and parent/change) table.
//!
//! For every workload × end-to-end metric of two result files written by
//! a full run: both medians with their quartiles, the relative change in
//! the *worse* direction, the metric's bound, and a verdict —
//! `regressed` (B is worse than A by more than the bound), `unresolved`
//! (either side's interquartile spread is wider than the bound, so the
//! comparison cannot tell) or `ok`.

use crate::measure::Quartiles;
use crate::metrics::{Better, END_TO_END, WORKLOADS};
use crate::workload::RunResult;
use std::fmt::Write as _;
use tangram_harness::json::Json;

/// The readings of one workload in a result file.
pub struct WorkloadResults {
    /// Workload name.
    pub name: &'static str,
    /// The end-to-end pass.
    pub end_to_end: RunResult,
    /// The staged pass.
    pub per_layer: RunResult,
}

/// Renders a full run as the result file `--compare` reads.
#[must_use]
pub fn results_json(seed: u64, seconds: f64, workloads: &[WorkloadResults]) -> String {
    let num = Json::F64;
    let workloads = workloads
        .iter()
        .map(|w| {
            let end_to_end = w.end_to_end.metrics.iter().map(|(name, unit, q)| {
                let reading = Json::object(vec![
                    ("median", num(q.median)),
                    ("q1", num(q.q1)),
                    ("q3", num(q.q3)),
                    ("n", Json::U64(q.n as u64)),
                    ("unit", Json::Str((*unit).to_string())),
                ]);
                ((*name).to_string(), reading)
            });
            let per_layer = w.per_layer.metrics.iter().map(|(name, unit, q)| {
                let reading = Json::object(vec![
                    ("value", num(q.median)),
                    ("unit", Json::Str((*unit).to_string())),
                ]);
                ((*name).to_string(), reading)
            });
            let passes = Json::object(vec![
                ("end_to_end", Json::Object(end_to_end.collect())),
                ("per_layer", Json::Object(per_layer.collect())),
            ]);
            (w.name.to_string(), passes)
        })
        .collect();
    let doc = Json::object(vec![
        ("seed", Json::U64(seed)),
        ("seconds", num(seconds)),
        ("nproc", Json::U64(crate::measure::nproc() as u64)),
        ("workloads", Json::Object(workloads)),
    ]);
    doc.render() + "\n"
}

fn reading(doc: &Json, workload: &str, metric: &str) -> Option<Quartiles> {
    let m = doc
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?;
    Some(Quartiles {
        q1: m.get("q1")?.as_f64()?,
        median: m.get("median")?.as_f64()?,
        q3: m.get("q3")?.as_f64()?,
        n: m.get("n")?.as_u64()? as usize,
    })
}

/// Compares two result files; returns the table and whether every row
/// is `ok`.
///
/// # Errors
///
/// Returns a message when either text is not a result file.
pub fn compare(a_text: &str, b_text: &str) -> Result<(String, bool), String> {
    let a = Json::parse(a_text).map_err(|e| format!("first file: {e}"))?;
    let b = Json::parse(b_text).map_err(|e| format!("second file: {e}"))?;
    let mut table = format!(
        "{:<16} {:<24} {:>14} {:>20} {:>14} {:>20} {:>8} {:>6}  verdict\n",
        "workload",
        "metric",
        "A median",
        "A [q1, q3]",
        "B median",
        "B [q1, q3]",
        "worse%",
        "bound%"
    );
    let mut all_ok = true;
    for (workload, _) in WORKLOADS {
        for metric in END_TO_END {
            let (Some(qa), Some(qb)) = (
                reading(&a, workload, metric.name),
                reading(&b, workload, metric.name),
            ) else {
                return Err(format!(
                    "{workload}/{}: missing from a result file",
                    metric.name
                ));
            };
            let bound = metric.bound.expect("end-to-end metrics carry a bound");
            let worse = match metric.better {
                Better::Lower => (qb.median - qa.median) / qa.median.abs(),
                Better::Higher => (qa.median - qb.median) / qa.median.abs(),
            };
            let verdict = if worse > bound {
                "regressed"
            } else if qa.spread().max(qb.spread()) > bound {
                "unresolved"
            } else {
                "ok"
            };
            all_ok &= verdict == "ok";
            let _ = writeln!(
                table,
                "{workload:<16} {:<24} {:>14.6} {:>20} {:>14.6} {:>20} {:>8.2} {:>6.1}  {verdict}",
                metric.name,
                qa.median,
                format!("[{:.5}, {:.5}]", qa.q1, qa.q3),
                qb.median,
                format!("[{:.5}, {:.5}]", qb.q1, qb.q3),
                100.0 * worse,
                100.0 * bound,
            );
        }
    }
    Ok((table, all_ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(wall: f64, spread: f64) -> RunResult {
        RunResult {
            correct: true,
            attempted: 1,
            failed: 0,
            metrics: END_TO_END
                .iter()
                .map(|m| {
                    let q = if m.name == "wall_s" {
                        Quartiles {
                            q1: wall * (1.0 - spread / 2.0),
                            median: wall,
                            q3: wall * (1.0 + spread / 2.0),
                            n: 7,
                        }
                    } else {
                        Quartiles::exact(1.0)
                    };
                    (m.name, m.unit, q)
                })
                .collect(),
            errors: Vec::new(),
        }
    }

    fn file(wall: f64, spread: f64) -> String {
        let all: Vec<WorkloadResults> = WORKLOADS
            .iter()
            .map(|(name, _)| WorkloadResults {
                name,
                end_to_end: result(wall, spread),
                per_layer: result(wall, spread),
            })
            .collect();
        results_json(42, 10.0, &all)
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let bound = END_TO_END
            .iter()
            .find(|m| m.name == "wall_s")
            .and_then(|m| m.bound)
            .unwrap();
        let (table, ok) = compare(&file(1.0, 0.01), &file(1.0 + bound / 2.0, 0.01)).unwrap();
        assert!(ok, "{table}");
        let (table, ok) = compare(&file(1.0, 0.01), &file(1.0 + 2.0 * bound, 0.01)).unwrap();
        assert!(!ok && table.contains("regressed"), "{table}");
        let (table, ok) = compare(&file(1.0, 2.0 * bound), &file(1.0, 0.01)).unwrap();
        assert!(
            !ok && table.contains("unresolved") && !table.contains("regressed"),
            "{table}"
        );
        assert!(compare("{}", &file(1.0, 0.0)).is_err());
    }
}
