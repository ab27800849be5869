//! The trace event alphabet and its canonical field rendering.

use std::borrow::Cow;
use tangram_types::json::Scalar;

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
    /// The record's `"kind"` tag: the variant's entry in
    /// [`TraceEvent::KINDS`], so a tag cannot be emitted unregistered.
    /// (`kinds_cover_every_variant` holds that every entry is emitted,
    /// and the renderer test in `log.rs` that `from_line` reads each one
    /// back.)
    #[must_use]
    pub fn kind(&self) -> &'static str {
        Self::KINDS[self.kind_index()]
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

    /// The kind's position in [`TraceEvent::KINDS`].
    pub(crate) fn kind_index(&self) -> usize {
        match self {
            TraceEvent::SessionStart { .. } => 0,
            TraceEvent::CameraJoin { .. } => 1,
            TraceEvent::CameraLeave { .. } => 2,
            TraceEvent::AdmissionVerdict { .. } => 3,
            TraceEvent::DrrRound { .. } => 4,
            TraceEvent::BatchDispatch { .. } => 5,
            TraceEvent::FunctionComplete { .. } => 6,
            TraceEvent::FaultWindow { .. } => 7,
            TraceEvent::SessionEnd { .. } => 8,
        }
    }

    /// Calls `visit` with the canonical `,"key":` prefix and the value of
    /// each of the event's fields (key order fixed per kind) — the one
    /// place that order lives, for the renderer and for its length count.
    pub(crate) fn each_field<'a>(&'a self, mut visit: impl FnMut(&'static str, Scalar<'a>)) {
        use Scalar::{Bool, U64};
        let text = |s: &'a str| Scalar::Str(Cow::Borrowed(s));
        match self {
            TraceEvent::SessionStart {
                policy,
                seed,
                cameras,
            } => {
                visit(",\"policy\":", text(policy));
                visit(",\"seed\":", U64(*seed));
                visit(",\"cameras\":", U64(*cameras));
            }
            TraceEvent::CameraJoin { camera } | TraceEvent::CameraLeave { camera } => {
                visit(",\"camera\":", U64(*camera));
            }
            TraceEvent::AdmissionVerdict {
                patch,
                slo_us,
                admitted,
                queued,
                in_flight,
                earliest_start_us,
            } => {
                visit(",\"patch\":", U64(*patch));
                visit(",\"slo_us\":", U64(*slo_us));
                visit(",\"admitted\":", Bool(*admitted));
                visit(",\"queued\":", U64(*queued));
                visit(",\"in_flight\":", U64(*in_flight));
                visit(",\"earliest_start_us\":", U64(*earliest_start_us));
            }
            TraceEvent::DrrRound { released, backlog } => {
                visit(",\"released\":", U64(*released));
                visit(",\"backlog\":", U64(*backlog));
            }
            TraceEvent::BatchDispatch {
                batch,
                patches,
                inputs,
                megapixels_e6,
            } => {
                visit(",\"batch\":", U64(*batch));
                visit(",\"patches\":", U64(*patches));
                visit(",\"inputs\":", U64(*inputs));
                visit(",\"megapixels_e6\":", U64(*megapixels_e6));
            }
            TraceEvent::FunctionComplete {
                invocation,
                inputs,
                violations,
            } => {
                visit(",\"invocation\":", U64(*invocation));
                visit(",\"inputs\":", U64(*inputs));
                visit(",\"violations\":", U64(*violations));
            }
            TraceEvent::FaultWindow { kind, until_us } => {
                visit(",\"fault\":", text(kind));
                visit(",\"until_us\":", U64(*until_us));
            }
            TraceEvent::SessionEnd {
                frames,
                batches,
                completions,
                dropped,
                makespan_us,
            } => {
                visit(",\"frames\":", U64(*frames));
                visit(",\"batches\":", U64(*batches));
                visit(",\"completions\":", U64(*completions));
                visit(",\"dropped\":", U64(*dropped));
                visit(",\"makespan_us\":", U64(*makespan_us));
            }
        }
    }

    /// Rebuilds an event from its kind tag and the line's parsed fields.
    pub(crate) fn from_fields(kind: &str, fields: &Fields<'_>) -> Result<TraceEvent, String> {
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

/// Appends `v` in decimal, as `{v}` formats it.
pub(crate) fn push_u64(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

/// The digits a hash is spelled in.
pub(crate) const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Appends `v` as 16 lowercase hex digits, as `{v:016x}` formats it.
pub(crate) fn push_hex16(out: &mut String, v: u64) {
    let mut digits = [0u8; 16];
    for (i, digit) in digits.iter_mut().enumerate() {
        *digit = HEX_DIGITS[(v >> (60 - 4 * i)) as usize & 0xf];
    }
    out.push_str(std::str::from_utf8(&digits).expect("ASCII digits"));
}

/// The number of bytes [`push_u64`] appends for `v`.
pub(crate) fn decimal_len(v: u64) -> usize {
    v.checked_ilog10().map_or(1, |log| log as usize + 1)
}

/// One line's fields as [`parse_flat_object`] leaves them: document
/// order, duplicates kept (the first one is the field).
///
/// [`parse_flat_object`]: tangram_types::json::parse_flat_object
pub(crate) type Fields<'a> = [(Cow<'a, str>, Scalar<'a>)];

/// Field `key` of a parsed line, read through `get`; `want` names the
/// expected type in the error.
fn typed<'f, 'a, T>(
    fields: &'f Fields<'a>,
    key: &str,
    want: &str,
    get: impl Fn(&'f Scalar<'a>) -> Option<T>,
) -> Result<T, String> {
    let value = fields.iter().find(|(k, _)| k == key).map(|(_, v)| v);
    let value = value.ok_or_else(|| format!("missing field {key:?}"))?;
    get(value).ok_or_else(|| format!("field {key:?}: expected {want}, got {value:?}"))
}

/// The string field `key`.
pub(crate) fn string<'f>(fields: &'f Fields<'_>, key: &str) -> Result<&'f str, String> {
    typed(fields, key, "string", Scalar::as_str)
}

/// The integer field `key`; floats and negatives are not integers.
pub(crate) fn integer(fields: &Fields<'_>, key: &str) -> Result<u64, String> {
    typed(fields, key, "integer", Scalar::as_u64)
}

/// The boolean field `key`.
pub(crate) fn boolean(fields: &Fields<'_>, key: &str) -> Result<bool, String> {
    typed(fields, key, "bool", Scalar::as_bool)
}

/// One event of every kind, every integer field set to `n` and every
/// string field to `text`.
#[cfg(test)]
pub(crate) fn every_variant(n: u64, text: &str) -> [TraceEvent; 9] {
    [
        TraceEvent::SessionStart {
            policy: text.into(),
            seed: n,
            cameras: n,
        },
        TraceEvent::CameraJoin { camera: n },
        TraceEvent::CameraLeave { camera: n },
        TraceEvent::AdmissionVerdict {
            patch: n,
            slo_us: n,
            admitted: n.is_multiple_of(2),
            queued: n,
            in_flight: n,
            earliest_start_us: n,
        },
        TraceEvent::DrrRound {
            released: n,
            backlog: n,
        },
        TraceEvent::BatchDispatch {
            batch: n,
            patches: n,
            inputs: n,
            megapixels_e6: n,
        },
        TraceEvent::FunctionComplete {
            invocation: n,
            inputs: n,
            violations: n,
        },
        TraceEvent::FaultWindow {
            kind: text.into(),
            until_us: n,
        },
        TraceEvent::SessionEnd {
            frames: n,
            batches: n,
            completions: n,
            dropped: n,
            makespan_us: n,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_cover_every_variant() {
        let events = every_variant(1, "Tangram");
        let kinds: Vec<&str> = events.iter().map(TraceEvent::kind).collect();
        assert_eq!(kinds, TraceEvent::KINDS);
    }

    #[test]
    fn integers_render_as_core_fmt_renders_them() {
        let edges = [0, 9, 10, 99, 100, 12_345, u64::MAX / 10, u64::MAX];
        for v in edges.into_iter().chain((0..64).map(|shift| 1 << shift)) {
            let (mut decimal, mut hex) = (String::new(), String::new());
            push_u64(&mut decimal, v);
            push_hex16(&mut hex, v);
            assert_eq!(decimal, format!("{v}"));
            assert_eq!(decimal_len(v), decimal.len(), "{v}");
            assert_eq!(hex, format!("{v:016x}"));
        }
    }
}
