//! The reproduction table: one [`Row`] per figure, table and ablation of
//! the paper, each with the claims its numbers must show.
//!
//! A claim is a predicate over values the row already computes — an
//! ordering, a monotonicity, a bound the paper states — evaluated from
//! the numbers just printed. Each declares its outcome under `--quick`
//! (default seed): [`Claim::Holds`], or [`Claim::Gap`] with the
//! measured reason when the quick data contradicts the paper. A gap is
//! the honest worklist, not a tolerance to tune; closing one is a change
//! to a model with its own evidence, after which the declaration flips.
//! The paper's digitised numbers stay printed "(paper)" references and
//! are never asserted.

use crate::{accuracy, e2e, edge, ext, say, stitching, ExpOpts};
use std::io::Write;
use Claim::{Gap, Holds};

/// One sentence of the paper a row must show, with the outcome it
/// declares for `--quick`.
#[derive(Debug, Clone, Copy)]
pub enum Claim {
    /// The quick data shows the claim.
    Holds(&'static str),
    /// The quick data contradicts the claim, for this measured reason.
    Gap(&'static str, &'static str),
}

impl Claim {
    /// The claim, as a sentence about the row's numbers.
    #[must_use]
    pub fn text(&self) -> &'static str {
        match self {
            Holds(text) | Gap(text, _) => text,
        }
    }
}

/// One experiment: what it reproduces, how to run it, what it must show.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    /// The `repro <id>` name.
    pub id: &'static str,
    /// The paper figure or table (or "Ablation") and its section.
    pub paper: &'static str,
    /// What the experiment sweeps.
    pub sweeps: &'static str,
    /// Stem of the `BENCH_<stem>.json` report(s) `--out` writes; empty
    /// when the row is not an engine sweep.
    pub bench: &'static str,
    /// Prints the experiment's tables on the writer and returns one
    /// observation per entry of `claims`, in order.
    pub run: fn(&ExpOpts, &mut dyn Write) -> Vec<bool>,
    /// The claims, in the order `run` observes them.
    pub claims: &'static [Claim],
}

/// Every experiment of the paper, in figure order, then the streaming
/// runtime's own.
pub const ROWS: [Row; 22] = [
    Row {
        id: "fig2_motivation",
        paper: "Fig. 2 (§II)",
        sweeps: "(a) AP@0.5 of server-driven and content-aware offloading vs full frame on the five motivation scenes; (b) mean RoI inference latency as 1–5 cameras share one GPU",
        bench: "",
        run: accuracy::fig2_motivation,
        claims: &[
            Holds("full-frame inference beats server-driven and content-aware offloading in every motivation scene"),
            Holds("mean latency rises with every camera added to the single GPU"),
            Gap(
                "the fifth camera more than doubles the four-camera latency (the saturation cliff)",
                "198.2 ms vs 154.8 ms: five cameras reach ≈ 0.9 utilisation, short of the paper's overload (121.7 → 325.8 ms)",
            ),
        ],
    },
    Row {
        id: "fig3_workload",
        paper: "Fig. 3 (§II)",
        sweeps: "RoI-proportion time series of each scene and the CDF pooled over all ten",
        bench: "",
        run: edge::fig3_workload,
        claims: &[Holds("the pooled median RoI proportion lies in the paper's 5–15 % band")],
    },
    Row {
        id: "fig4_resolution",
        paper: "Fig. 4 (§II)",
        sweeps: "(a) RoI width × height histogram of scene_01; (b) AP of the 4K- and 480P-trained profiles at 4K / 2K / 1080P / 720P / 480P inputs",
        bench: "",
        run: accuracy::fig4_resolution,
        claims: &[
            Holds("the 4K-trained model loses AP at every downsizing step"),
            Gap(
                "the 480P-trained model loses AP at every upsizing step",
                "480P 0.516 → 720P 0.518: the first step is flat at 15 frames per scene",
            ),
            Holds("each model wins at its own training resolution"),
        ],
    },
    Row {
        id: "fig8_cost",
        paper: "Fig. 8 (§V)",
        sweeps: "function cost per scene: Tangram 4×4 vs Masked Frame, Full Frame and ELF, per-frame requests (gmm)",
        bench: "",
        run: stitching::fig8_cost,
        claims: &[
            Holds("Tangram is the cheapest of the four methods in every scene"),
            Holds("Tangram's average cost reduction is positive against Masked Frame, Full Frame and ELF"),
        ],
    },
    Row {
        id: "fig9_bandwidth",
        paper: "Fig. 9 (§V)",
        sweeps: "uplink bytes per scene normalised to Full Frame: patches vs masked frames vs ELF crops (gmm)",
        bench: "",
        run: edge::fig9_bandwidth,
        claims: &[
            Holds("Tangram saves at least the paper's minimum 10 % of Full Frame bytes in every scene"),
            Gap(
                "ELF's raw crops exceed Full Frame in every scene",
                "scene_07 0.894× under the proxy extractor",
            ),
        ],
    },
    Row {
        id: "fig10_patches",
        paper: "Fig. 10 (§V)",
        sweeps: "patches per frame under 4×4 partitioning and the canvas-efficiency CDF of per-frame stitching",
        bench: "",
        run: stitching::fig10_patches,
        claims: &[Holds("mean patches per frame stays in the paper's 6–16 range in every scene")],
    },
    Row {
        id: "fig11_example",
        paper: "Fig. 11 (§V)",
        sweeps: "ASCII (and, with `--out`, PPM) views of a sparse scene_01 frame and a busy scene_08 frame: objects, RoIs, patch borders",
        bench: "",
        run: edge::fig11_example,
        claims: &[
            Holds("zones merge neighbouring RoIs: fewer patches than RoIs in both frames"),
            Gap(
                "the busy frame is cut into more patches than the sparse one",
                "6 vs 6 patches: scene_08's 93 objects fill as few zones as scene_01's 48",
            ),
        ],
    },
    Row {
        id: "fig12_e2e",
        paper: "Fig. 12 (§V)",
        sweeps: "end to end: Tangram / Clipper / ELF / MArk × five SLOs × {20, 40, 80} Mbps over the motivation scenes (gmm)",
        bench: "fig12_e2e_bw{20,40,80}",
        run: e2e::fig12_e2e,
        claims: &[
            Holds("Tangram has the lowest cost in every (bandwidth, SLO) cell"),
            Holds("Tangram's SLO violations stay below 5 % in every cell"),
            Holds("Tangram's cost, at the table's $0.0001 resolution, never rises as the SLO loosens"),
        ],
    },
    Row {
        id: "fig13_canvas_efficiency",
        paper: "Fig. 13 (§V)",
        sweeps: "canvas-efficiency CDF of Tangram's batches per SLO at 20 / 40 / 80 Mbps, and across bandwidths at SLO = 1 s (gmm)",
        bench: "fig13_canvas_efficiency_bw{20,40,80}",
        run: e2e::fig13_canvas_efficiency,
        claims: &[
            Holds("mean canvas efficiency is higher at the loosest SLO than at the tightest, at every bandwidth"),
            Gap(
                "at SLO 1 s the share of canvases above 0.6 efficiency rises with bandwidth",
                "0.45 / 0.51 / 0.50 at 20 / 40 / 80 Mbps",
            ),
        ],
    },
    Row {
        id: "fig14_insight",
        paper: "Fig. 14 (§V)",
        sweeps: "Tangram's batches at SLO = 1 s per bandwidth: execution latency, patches per batch, transmission vs execution, canvases × patches (gmm)",
        bench: "fig14_insight",
        run: e2e::fig14_insight,
        claims: &[
            Holds("median per-batch execution grows with bandwidth (bigger batches)"),
            Holds("amortised per-patch latency falls with bandwidth"),
            Gap(
                "transmission exceeds execution at every bandwidth",
                "5.6 s vs 7.2 s at 40 Mbps, 2.8 s vs 7.0 s at 80 Mbps",
            ),
        ],
    },
    Row {
        id: "table1_redundancy",
        paper: "Table I (§II)",
        sweeps: "per scene: person tracks, mean RoI area proportion, and the calibrated non-RoI share of inference time",
        bench: "",
        run: edge::table1_redundancy,
        claims: &[Holds("RoIs cover under 15 % of the frame on average in every scene")],
    },
    Row {
        id: "table2_partition_bandwidth",
        paper: "Table II (§V)",
        sweeps: "upload bytes (% of Full Frame) per scene under 2×2 / 4×4 / 6×6 zone grids (gmm)",
        bench: "",
        run: edge::table2_partition_bandwidth,
        claims: &[Holds("bandwidth falls from 2×2 to 4×4 to 6×6 in every scene")],
    },
    Row {
        id: "table3_accuracy",
        paper: "Table III (§V)",
        sweeps: "AP@0.5 per scene: full frame vs 2×2 / 4×4 / 6×6 partitioning (gmm)",
        bench: "",
        run: accuracy::table3_accuracy,
        claims: &[
            Gap(
                "4×4 partitioning keeps AP within the paper's ~5 % of full frame in every scene",
                "scene_06 0.596 → 0.291 under the proxy extractor (0.580 → 0.573 with GMM)",
            ),
            Holds("AP never rises as the grid gets finer"),
        ],
    },
    Row {
        id: "table4_extractors",
        paper: "Table IV (§V)",
        sweeps: "RoI extractors (GMM, optical flow, two detector proxies): raw-RoI AP, AP after 4×4 partitioning, bandwidth share",
        bench: "",
        run: accuracy::table4_extractors,
        claims: &[
            Gap(
                "partitioning lifts every extractor's AP over its raw RoIs",
                "OpticalFlow 0.598 → 0.594",
            ),
            Holds("every extractor uploads less than Full Frame after partitioning"),
        ],
    },
    Row {
        id: "ablation_packing",
        paper: "Ablation (§IV)",
        sweeps: "guillotine vs shelf vs skyline packer on each frame's tiles: canvases needed and mean efficiency",
        bench: "",
        run: stitching::ablation_packing,
        claims: &[
            Holds("the guillotine never needs more canvases than the shelf packer"),
            Gap(
                "the guillotine never needs more canvases than the skyline packer",
                "the skyline needs fewer in 9 of 10 scenes, 559 vs 587 in total",
            ),
        ],
    },
    Row {
        id: "ablation_restitch",
        paper: "Ablation (§III)",
        sweeps: "queues of ~3 frames' tiles: the solver's full re-stitch of the final queue vs the scheduler's open `Stitching`, one tile per arrival",
        bench: "",
        run: stitching::ablation_restitch,
        claims: &[Holds("re-stitching the whole queue and placing one tile per arrival build the same canvases, placement for placement, in every scene, because `stitch` is arrival-order first-fit")],
    },
    Row {
        id: "ablation_slack",
        paper: "Ablation (§V)",
        sweeps: "the estimator's σ multiplier k ∈ {0, 1, 2, 3, 4} (the paper uses 3) at SLO = 1 s, 40 Mbps",
        bench: "ablation_slack",
        run: e2e::ablation_slack,
        claims: &[
            Holds("violations never rise as k grows"),
            Holds("mean patches per batch never rises as k grows (earlier invocation, smaller batches)"),
        ],
    },
    Row {
        id: "ext_overload",
        paper: "beyond the paper (admission control)",
        sweeps: "Tangram, four Poisson cameras with the gold (0.8 s) / best-effort (1.5 s) mix at 12 / 24 / 48 / 96 fps offered (`--quick`: 24 and 96), each with the open door and with the SLO-aware shedder",
        bench: "overload{,_full}",
        run: ext::ext_overload,
        claims: &[
            Holds("the open door drops nothing, and at every overloaded ramp point its attainment has collapsed below 50 % and falls with load"),
            Holds("the shedder's gold attainment beats the open door's at every overloaded ramp point"),
            Holds("the shedder keeps overall attainment of served work above 85 % at every ramp point"),
            Gap(
                "under the shedder, best-effort is shed at a higher rate than gold at every overloaded ramp point",
                "gold 78.5 % vs best-effort 51.7 % dropped at 24 fps offered, 96.9 % vs 80.6 % at 96",
            ),
        ],
    },
    Row {
        id: "ext_fairness",
        paper: "beyond the paper (weighted-DRR fair ingress)",
        sweeps: "the same fleet behind the 3:1 weighted-DRR ingress at 1× / 2× / 4× its service rate (`--quick`: 2× and 4×), 200 Mbps, admission-aware scheduling",
        bench: "fairness{,_full}",
        run: ext::ext_fairness,
        claims: &[
            Holds("past the ingress knee (2× and beyond) the admitted gold share moves toward, and stays within 10 points of, the 75 % weight target"),
            Holds("everything the ingress admits meets its SLO: no violations in any cell"),
        ],
    },
    Row {
        id: "ext_churn",
        paper: "beyond the paper (camera churn)",
        sweeps: "Tangram / Clipper / ELF / MArk at 40 and 80 Mbps while four Poisson cameras join 2 s apart and leave 12 s after joining, gold / best-effort mix",
        bench: "churn",
        run: ext::ext_churn,
        claims: &[
            Gap(
                "churn truncates the streams: completed frames fall short of the cameras × frames budget",
                "80 of 80 frames: the 12 s sessions outlast the 20-frame budget at 6 fps; the full 80-frame run completes 271 of 320",
            ),
            Holds("Tangram's SLO attainment beats every other system's at both bandwidths"),
        ],
    },
    Row {
        id: "ext_throughput",
        paper: "beyond the paper (sharded runtime)",
        sweeps: "the city-scale preset (32 Poisson cameras × 96 frames, wide uplink; `--quick`: 12 × 24) at shard counts 1 / 2 / 4 / 8 (`--quick`: 1 / 2): deterministic counts only",
        bench: "",
        run: ext::ext_throughput,
        claims: &[
            Holds("every shard count reproduces the single-shard oracle: summary, events, frames"),
            Holds("the wide uplink leaves the scheduler work to batch: more than 2 patches per dispatched batch"),
        ],
    },
    Row {
        id: "ext_scenarios",
        paper: "beyond the paper (declarative fault injection)",
        sweeps: "every `config/scenarios/*.toml` end to end at shard counts 1 and 8 (`--quick`: 1 and 2): frames, muted frames, patches, drops, violations, makespan",
        bench: "",
        run: ext::ext_scenarios,
        claims: &[Holds("every scenario reproduces its single-shard oracle at every shard count: summary, events, frames, muted frames")],
    },
];

impl Row {
    /// The outcome vector the row declares: `true` where a claim holds.
    #[must_use]
    pub fn declared(&self) -> Vec<bool> {
        let holds = |claim: &Claim| matches!(claim, Holds(_));
        self.claims.iter().map(holds).collect()
    }

    /// Runs the experiment on `out`, then prints each claim evaluated
    /// from the numbers just printed: under `--quick` against its
    /// declaration (`[ok]`, `[gap: why]`, or `[FAIL]` when they differ),
    /// otherwise as the bare observation. Returns whether every
    /// observation equals its declaration.
    pub fn report(&self, opts: &ExpOpts, out: &mut dyn Write) -> bool {
        let observed = (self.run)(opts, out);
        assert_eq!(observed.len(), self.claims.len(), "{}", self.id);
        say!(out, "\nClaims — {}:", self.paper);
        for (claim, &seen) in self.claims.iter().zip(&observed) {
            let verdict = match (opts.quick, claim, seen) {
                (_, Holds(_), true) | (false, _, true) => "[ok]".to_string(),
                (false, _, false) => "[not observed]".to_string(),
                (true, Gap(_, why), false) => format!("[gap: {why}]"),
                (true, ..) => format!("[FAIL: observed {seen}]"),
            };
            say!(out, "  {verdict} {}", claim.text());
        }
        observed == self.declared()
    }
}

/// The experiment tables of `docs/EXPERIMENTS.md`, generated: what
/// `repro docs` prints and the doc's marked block must equal.
#[must_use]
pub fn docs() -> String {
    let mut md = "| Experiment | Reproduces | What it sweeps | `--out` report |\n".to_string();
    md.push_str("|---|---|---|---|\n");
    for row in &ROWS {
        let bench = match row.bench {
            "" => "—".to_string(),
            stem => format!("`BENCH_{stem}.json`"),
        };
        let (id, paper, sweeps) = (row.id, row.paper, row.sweeps);
        md.push_str(&format!("| `{id}` | {paper} | {sweeps} | {bench} |\n"));
    }
    md.push_str("\nClaims, each with the outcome it declares under `--quick`:\n\n");
    for (row, claim) in ROWS
        .iter()
        .flat_map(|row| row.claims.iter().map(move |c| (row, c)))
    {
        let outcome = match claim {
            Holds(_) => "holds".to_string(),
            Gap(_, why) => format!("**gap** ({why})"),
        };
        md.push_str(&format!("* `{}` — {}: {outcome}\n", row.id, claim.text()));
    }
    md
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reproduction gate: under `--quick` every row shows exactly the
    /// claims it declares.
    #[test]
    fn every_row_observes_the_claims_it_declares_under_quick() {
        let opts = ExpOpts::parse(["--quick".to_string()]).expect("a known flag");
        for row in &ROWS {
            // The one row of 22 not run here: its subject *is* the raster
            // extractors (GMM, optical flow), 22 s in release and 170 s
            // in a debug build even at `--frames 2` — block matching is
            // nearly all of it. CI's `repro all --quick` step holds it
            // to its declaration instead.
            if row.id == "table4_extractors" {
                continue;
            }
            let observed = (row.run)(&opts, &mut std::io::sink());
            assert_eq!(observed.len(), row.claims.len(), "{}", row.id);
            for (i, claim) in row.claims.iter().enumerate() {
                let declared = row.declared()[i];
                assert_eq!(observed[i], declared, "{}: {claim:?}", row.id);
            }
        }
    }

    #[test]
    fn the_table_is_well_formed() {
        for id in ["overload", "fairness", "churn", "throughput", "scenarios"] {
            let id = format!("ext_{id}");
            assert!(ROWS.iter().any(|row| row.id == id), "{id} is a row");
        }
        for (i, row) in ROWS.iter().enumerate() {
            let earlier = &ROWS[..i];
            assert!(
                earlier.iter().all(|r| r.id != row.id),
                "duplicate id {}",
                row.id
            );
            assert!(!row.claims.is_empty(), "{} claims nothing", row.id);
            for claim in row.claims {
                assert!(!claim.text().is_empty(), "{}: empty claim", row.id);
                if let Gap(_, why) = claim {
                    assert!(!why.is_empty(), "{}: gap without a reason", row.id);
                }
            }
        }
    }

    #[test]
    fn experiments_md_carries_the_generated_block() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/EXPERIMENTS.md");
        let doc = std::fs::read_to_string(path).expect("docs/EXPERIMENTS.md");
        let (begin, end) = ("<!-- repro-docs:begin -->\n", "<!-- repro-docs:end -->");
        let start = doc.find(begin).expect("begin marker") + begin.len();
        let block = &doc[start..start + doc[start..].find(end).expect("end marker")];
        let fix = "regenerate with `cargo run --release --bin repro -- docs`";
        assert_eq!(block, docs(), "{fix}");
    }
}
