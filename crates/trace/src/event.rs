//! The trace event alphabet and its canonical field rendering.

use std::fmt::Write as _;
use tangram_types::json::{write_string, Json};

/// One runtime event, as the engine saw it.
///
/// All quantities are integers: instants and durations in microseconds,
/// megapixels in micro-megapixels (`_e6` suffix), identities as the raw
/// id values the `tangram-types` newtypes wrap. Integer-only bodies make
/// the canonical rendering (and therefore the hash chain and byte
/// comparisons) immune to float formatting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// The run began: the configuration a replay must reproduce.
    SessionStart {
        /// Batching policy under test.
        policy: String,
        /// Engine seed.
        seed: u64,
        /// Camera sources registered at start.
        cameras: u64,
    },
    /// Camera `camera` came online.
    CameraJoin {
        /// Raw camera id.
        camera: u64,
    },
    /// Camera `camera` went offline.
    CameraLeave {
        /// Raw camera id.
        camera: u64,
    },
    /// The admission policy ruled on an arrival, with the load signals
    /// that justified the verdict.
    AdmissionVerdict {
        /// Raw id of the arriving patch/frame.
        patch: u64,
        /// The arrival's tenant SLO, microseconds.
        slo_us: u64,
        /// `true` = admitted, `false` = shed.
        admitted: bool,
        /// Queue-depth signal: admitted-but-undispatched work items
        /// (fair-ingress residents included).
        queued: u64,
        /// Backend signal: in-flight invocations.
        in_flight: u64,
        /// Backend signal: when a batch submitted now would start, µs.
        earliest_start_us: u64,
    },
    /// A weighted-DRR service round ran.
    DrrRound {
        /// Work items released to the batching policy this round.
        released: u64,
        /// Items still queued at the ingress after the round.
        backlog: u64,
    },
    /// The policy dispatched a batch to the serverless platform.
    BatchDispatch {
        /// Zero-based dispatch index within the run.
        batch: u64,
        /// Patches whose results the invocation produces.
        patches: u64,
        /// Model inputs (canvases / padded patches / frames).
        inputs: u64,
        /// Work to execute, micro-megapixels.
        megapixels_e6: u64,
    },
    /// A previously submitted invocation finished.
    FunctionComplete {
        /// Raw invocation id.
        invocation: u64,
        /// Batch size (inputs) of the completed invocation.
        inputs: u64,
        /// SLO violations among the batch's patches.
        violations: u64,
    },
    /// A declarative fault window opened (fault injection is active
    /// until `until_us`). Fault-free runs never emit this kind, so
    /// legacy golden traces are unaffected.
    FaultWindow {
        /// The fault kind's stable name (`link_outage`, `latency_tail`,
        /// `cold_start_storm`, `camera_flap`, `brownout`).
        kind: String,
        /// When the window closes, microseconds since simulation start.
        until_us: u64,
    },
    /// The run drained: totals a consumer can check the stream against.
    SessionEnd {
        /// Frames injected by all cameras.
        frames: u64,
        /// Batches dispatched.
        batches: u64,
        /// Invocations completed.
        completions: u64,
        /// Arrivals shed at the ingress (admission + fair-ingress
        /// overflow).
        dropped: u64,
        /// Run makespan, microseconds.
        makespan_us: u64,
    },
}

impl TraceEvent {
    /// The record's `"kind"` tag.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::SessionStart { .. } => "session.start",
            TraceEvent::CameraJoin { .. } => "camera.join",
            TraceEvent::CameraLeave { .. } => "camera.leave",
            TraceEvent::AdmissionVerdict { .. } => "admission.verdict",
            TraceEvent::DrrRound { .. } => "drr.round",
            TraceEvent::BatchDispatch { .. } => "batch.dispatch",
            TraceEvent::FunctionComplete { .. } => "function.complete",
            TraceEvent::FaultWindow { .. } => "fault.window",
            TraceEvent::SessionEnd { .. } => "session.end",
        }
    }

    /// Every kind tag, in a fixed order (stats tables).
    pub const KINDS: [&'static str; 9] = [
        "session.start",
        "camera.join",
        "camera.leave",
        "admission.verdict",
        "drr.round",
        "batch.dispatch",
        "function.complete",
        "fault.window",
        "session.end",
    ];

    /// Appends the canonical `,"key":value` rendering of the event's
    /// fields (key order fixed per kind).
    pub(crate) fn render_fields(&self, out: &mut String) {
        match self {
            TraceEvent::SessionStart {
                policy,
                seed,
                cameras,
            } => {
                out.push_str(",\"policy\":");
                write_string(out, policy);
                let _ = write!(out, ",\"seed\":{seed},\"cameras\":{cameras}");
            }
            TraceEvent::CameraJoin { camera } | TraceEvent::CameraLeave { camera } => {
                let _ = write!(out, ",\"camera\":{camera}");
            }
            TraceEvent::AdmissionVerdict {
                patch,
                slo_us,
                admitted,
                queued,
                in_flight,
                earliest_start_us,
            } => {
                let _ = write!(
                    out,
                    ",\"patch\":{patch},\"slo_us\":{slo_us},\"admitted\":{admitted},\
                     \"queued\":{queued},\"in_flight\":{in_flight},\
                     \"earliest_start_us\":{earliest_start_us}"
                );
            }
            TraceEvent::DrrRound { released, backlog } => {
                let _ = write!(out, ",\"released\":{released},\"backlog\":{backlog}");
            }
            TraceEvent::BatchDispatch {
                batch,
                patches,
                inputs,
                megapixels_e6,
            } => {
                let _ = write!(
                    out,
                    ",\"batch\":{batch},\"patches\":{patches},\"inputs\":{inputs},\
                     \"megapixels_e6\":{megapixels_e6}"
                );
            }
            TraceEvent::FunctionComplete {
                invocation,
                inputs,
                violations,
            } => {
                let _ = write!(
                    out,
                    ",\"invocation\":{invocation},\"inputs\":{inputs},\"violations\":{violations}"
                );
            }
            TraceEvent::FaultWindow { kind, until_us } => {
                out.push_str(",\"fault\":");
                write_string(out, kind);
                let _ = write!(out, ",\"until_us\":{until_us}");
            }
            TraceEvent::SessionEnd {
                frames,
                batches,
                completions,
                dropped,
                makespan_us,
            } => {
                let _ = write!(
                    out,
                    ",\"frames\":{frames},\"batches\":{batches},\"completions\":{completions},\
                     \"dropped\":{dropped},\"makespan_us\":{makespan_us}"
                );
            }
        }
    }

    /// Rebuilds an event from its kind tag and the parsed record object.
    pub(crate) fn from_fields(kind: &str, fields: &Json) -> Result<TraceEvent, String> {
        Ok(match kind {
            "session.start" => TraceEvent::SessionStart {
                policy: string(fields, "policy")?.to_string(),
                seed: integer(fields, "seed")?,
                cameras: integer(fields, "cameras")?,
            },
            "camera.join" => TraceEvent::CameraJoin {
                camera: integer(fields, "camera")?,
            },
            "camera.leave" => TraceEvent::CameraLeave {
                camera: integer(fields, "camera")?,
            },
            "admission.verdict" => TraceEvent::AdmissionVerdict {
                patch: integer(fields, "patch")?,
                slo_us: integer(fields, "slo_us")?,
                admitted: boolean(fields, "admitted")?,
                queued: integer(fields, "queued")?,
                in_flight: integer(fields, "in_flight")?,
                earliest_start_us: integer(fields, "earliest_start_us")?,
            },
            "drr.round" => TraceEvent::DrrRound {
                released: integer(fields, "released")?,
                backlog: integer(fields, "backlog")?,
            },
            "batch.dispatch" => TraceEvent::BatchDispatch {
                batch: integer(fields, "batch")?,
                patches: integer(fields, "patches")?,
                inputs: integer(fields, "inputs")?,
                megapixels_e6: integer(fields, "megapixels_e6")?,
            },
            "function.complete" => TraceEvent::FunctionComplete {
                invocation: integer(fields, "invocation")?,
                inputs: integer(fields, "inputs")?,
                violations: integer(fields, "violations")?,
            },
            "fault.window" => TraceEvent::FaultWindow {
                kind: string(fields, "fault")?.to_string(),
                until_us: integer(fields, "until_us")?,
            },
            "session.end" => TraceEvent::SessionEnd {
                frames: integer(fields, "frames")?,
                batches: integer(fields, "batches")?,
                completions: integer(fields, "completions")?,
                dropped: integer(fields, "dropped")?,
                makespan_us: integer(fields, "makespan_us")?,
            },
            other => return Err(format!("unknown event kind {other:?}")),
        })
    }
}

/// Field `key` of a parsed record object, read through `get`; `want`
/// names the expected type in the error.
fn typed<'a, T>(
    fields: &'a Json,
    key: &str,
    want: &str,
    get: fn(&'a Json) -> Option<T>,
) -> Result<T, String> {
    let value = fields.get(key);
    let value = value.ok_or_else(|| format!("missing field {key:?}"))?;
    get(value).ok_or_else(|| format!("field {key:?}: expected {want}, got {value:?}"))
}

/// The string field `key`.
pub(crate) fn string<'a>(fields: &'a Json, key: &str) -> Result<&'a str, String> {
    typed(fields, key, "string", Json::as_str)
}

/// The integer field `key`; floats and negatives are not integers.
pub(crate) fn integer(fields: &Json, key: &str) -> Result<u64, String> {
    typed(fields, key, "integer", Json::as_u64)
}

/// The boolean field `key`.
pub(crate) fn boolean(fields: &Json, key: &str) -> Result<bool, String> {
    typed(fields, key, "bool", Json::as_bool)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_cover_every_variant() {
        let events = [
            TraceEvent::SessionStart {
                policy: "Tangram".into(),
                seed: 1,
                cameras: 2,
            },
            TraceEvent::CameraJoin { camera: 0 },
            TraceEvent::CameraLeave { camera: 0 },
            TraceEvent::AdmissionVerdict {
                patch: 9,
                slo_us: 1_000_000,
                admitted: true,
                queued: 3,
                in_flight: 1,
                earliest_start_us: 77,
            },
            TraceEvent::DrrRound {
                released: 4,
                backlog: 2,
            },
            TraceEvent::BatchDispatch {
                batch: 0,
                patches: 5,
                inputs: 2,
                megapixels_e6: 2_097_152,
            },
            TraceEvent::FunctionComplete {
                invocation: 3,
                inputs: 2,
                violations: 0,
            },
            TraceEvent::FaultWindow {
                kind: "brownout".into(),
                until_us: 5_000_000,
            },
            TraceEvent::SessionEnd {
                frames: 10,
                batches: 4,
                completions: 4,
                dropped: 1,
                makespan_us: 123,
            },
        ];
        let mut kinds: Vec<&str> = events.iter().map(TraceEvent::kind).collect();
        kinds.sort_unstable();
        let mut expected = TraceEvent::KINDS.to_vec();
        expected.sort_unstable();
        assert_eq!(kinds, expected);
    }
}
