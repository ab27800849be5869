//! The trace event alphabet and its canonical field rendering.

use std::borrow::Cow;

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

    /// The index in [`TraceEvent::KINDS`] of the kind tagged `tag`.
    pub(crate) fn kind_of(tag: &str) -> Option<usize> {
        Self::KINDS.iter().position(|kind| *kind == tag)
    }

    /// Calls `visit` with the canonical `,"key":` prefix and the value of
    /// each of the event's fields, in [`FIELDS`] order — for the renderer
    /// and for its length count.
    pub(crate) fn each_field<'a>(&'a self, mut visit: impl FnMut(&'static str, Value<'a>)) {
        use Value::{Bool, Int, Text};
        let mut keys = FIELDS[self.kind_index()].iter();
        let mut visit = |value| visit(keys.next().map_or("", |&(key, _)| key), value);
        match self {
            TraceEvent::SessionStart {
                policy,
                seed,
                cameras,
            } => {
                visit(Text(policy));
                visit(Int(*seed));
                visit(Int(*cameras));
            }
            TraceEvent::CameraJoin { camera } | TraceEvent::CameraLeave { camera } => {
                visit(Int(*camera));
            }
            TraceEvent::AdmissionVerdict {
                patch,
                slo_us,
                admitted,
                queued,
                in_flight,
                earliest_start_us,
            } => {
                visit(Int(*patch));
                visit(Int(*slo_us));
                visit(Bool(*admitted));
                visit(Int(*queued));
                visit(Int(*in_flight));
                visit(Int(*earliest_start_us));
            }
            TraceEvent::DrrRound { released, backlog } => {
                visit(Int(*released));
                visit(Int(*backlog));
            }
            TraceEvent::BatchDispatch {
                batch,
                patches,
                inputs,
                megapixels_e6,
            } => {
                visit(Int(*batch));
                visit(Int(*patches));
                visit(Int(*inputs));
                visit(Int(*megapixels_e6));
            }
            TraceEvent::FunctionComplete {
                invocation,
                inputs,
                violations,
            } => {
                visit(Int(*invocation));
                visit(Int(*inputs));
                visit(Int(*violations));
            }
            TraceEvent::FaultWindow { kind, until_us } => {
                visit(Text(kind));
                visit(Int(*until_us));
            }
            TraceEvent::SessionEnd {
                frames,
                batches,
                completions,
                dropped,
                makespan_us,
            } => {
                visit(Int(*frames));
                visit(Int(*batches));
                visit(Int(*completions));
                visit(Int(*dropped));
                visit(Int(*makespan_us));
            }
        }
    }

    /// Builds the event of kind `KINDS[kind]` from its field values, slot
    /// `i` of `row` holding field `i` of the kind's [`FIELDS`] entry.
    pub(crate) fn from_row(kind: usize, row: Row<'_>) -> TraceEvent {
        let Row {
            ints: n,
            flag,
            text,
        } = row;
        match kind {
            0 => TraceEvent::SessionStart {
                policy: text.into_owned(),
                seed: n[1],
                cameras: n[2],
            },
            1 => TraceEvent::CameraJoin { camera: n[0] },
            2 => TraceEvent::CameraLeave { camera: n[0] },
            3 => TraceEvent::AdmissionVerdict {
                patch: n[0],
                slo_us: n[1],
                admitted: flag,
                queued: n[3],
                in_flight: n[4],
                earliest_start_us: n[5],
            },
            4 => TraceEvent::DrrRound {
                released: n[0],
                backlog: n[1],
            },
            5 => TraceEvent::BatchDispatch {
                batch: n[0],
                patches: n[1],
                inputs: n[2],
                megapixels_e6: n[3],
            },
            6 => TraceEvent::FunctionComplete {
                invocation: n[0],
                inputs: n[1],
                violations: n[2],
            },
            7 => TraceEvent::FaultWindow {
                kind: text.into_owned(),
                until_us: n[1],
            },
            _ => TraceEvent::SessionEnd {
                frames: n[0],
                batches: n[1],
                completions: n[2],
                dropped: n[3],
                makespan_us: n[4],
            },
        }
    }
}

/// A field's value as [`TraceEvent::each_field`] hands it out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Value<'a> {
    /// A non-negative integer.
    Int(u64),
    /// `true` / `false`.
    Bool(bool),
    /// A string, before escaping.
    Text(&'a str),
}

/// The type of a field's value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Ty {
    /// A non-negative integer.
    Int,
    /// `true` / `false`.
    Bool,
    /// A string.
    Text,
}

/// Each kind's fields, indexed like [`TraceEvent::KINDS`]: the canonical
/// `,"key":` prefix and the value's type, in the order a line spells
/// them. The one place that order lives: the renderer and its length
/// count (through [`TraceEvent::each_field`]) and the reader's template
/// both read it.
pub(crate) const FIELDS: [&[(&str, Ty)]; 9] = {
    use Ty::{Bool, Int, Text};
    [
        &[
            (",\"policy\":", Text),
            (",\"seed\":", Int),
            (",\"cameras\":", Int),
        ],
        &[(",\"camera\":", Int)],
        &[(",\"camera\":", Int)],
        &[
            (",\"patch\":", Int),
            (",\"slo_us\":", Int),
            (",\"admitted\":", Bool),
            (",\"queued\":", Int),
            (",\"in_flight\":", Int),
            (",\"earliest_start_us\":", Int),
        ],
        &[(",\"released\":", Int), (",\"backlog\":", Int)],
        &[
            (",\"batch\":", Int),
            (",\"patches\":", Int),
            (",\"inputs\":", Int),
            (",\"megapixels_e6\":", Int),
        ],
        &[
            (",\"invocation\":", Int),
            (",\"inputs\":", Int),
            (",\"violations\":", Int),
        ],
        &[(",\"fault\":", Text), (",\"until_us\":", Int)],
        &[
            (",\"frames\":", Int),
            (",\"batches\":", Int),
            (",\"completions\":", Int),
            (",\"dropped\":", Int),
            (",\"makespan_us\":", Int),
        ],
    ]
};

/// The most fields any kind has.
const MAX_FIELDS: usize = 6;

/// One event's field values as a reader collects them: slot `i` of `ints`
/// holds integer field `i` of the kind's [`FIELDS`] entry, and `flag` /
/// `text` its boolean and string (no kind has two of either).
#[derive(Debug, Default)]
pub(crate) struct Row<'a> {
    pub(crate) ints: [u64; MAX_FIELDS],
    pub(crate) flag: bool,
    pub(crate) text: Cow<'a, str>,
}

/// The two digits of every value below 100, `00` to `99`: [`push_u64`]
/// writes a pair per division.
const DECIMAL_PAIRS: &str = "\
    00010203040506070809101112131415161718192021222324252627282930313233343536373839\
    40414243444546474849505152535455565758596061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Appends `v` in decimal, as `{v}` formats it: the low pairs are split
/// off first, then pushed from the most significant.
pub(crate) fn push_u64(out: &mut String, mut v: u64) {
    let pair = |v: usize| &DECIMAL_PAIRS[2 * v..2 * v + 2];
    let mut low = [0u8; 9];
    let mut n = 0;
    while v >= 100 {
        low[n] = (v % 100) as u8;
        v /= 100;
        n += 1;
    }
    let lead = pair(v as usize);
    out.push_str(if v < 10 { &lead[1..] } else { lead });
    for &v in low[..n].iter().rev() {
        out.push_str(pair(usize::from(v)));
    }
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
    fn every_reader_and_writer_follows_the_one_field_table() {
        for (kind, fields) in FIELDS.iter().enumerate() {
            let count = |want: Ty| fields.iter().filter(|&&(_, ty)| ty == want).count();
            assert!(count(Ty::Bool) <= 1 && count(Ty::Text) <= 1, "{kind}");
            assert!(fields.len() <= MAX_FIELDS, "{kind}");
            // Distinct values per slot, so a slot read into the wrong
            // field shows.
            let mut row = Row::default();
            let mut want = Vec::new();
            for (slot, &(prefix, ty)) in fields.iter().enumerate() {
                let key = &prefix[2..prefix.len() - 2];
                assert_eq!(prefix, format!(",\"{key}\":"));
                want.push((
                    prefix,
                    match ty {
                        Ty::Int => {
                            row.ints[slot] = 100 + slot as u64;
                            Value::Int(row.ints[slot])
                        }
                        Ty::Bool => {
                            row.flag = true;
                            Value::Bool(true)
                        }
                        Ty::Text => {
                            row.text = Cow::Borrowed(key);
                            Value::Text(key)
                        }
                    },
                ));
            }
            let event = TraceEvent::from_row(kind, row);
            assert_eq!(event.kind_index(), kind);
            let mut seen = Vec::new();
            event.each_field(|prefix, value| seen.push((prefix, value)));
            assert_eq!(seen, want, "{}", TraceEvent::KINDS[kind]);
        }
    }

    #[test]
    fn integers_render_as_core_fmt_renders_them() {
        let edges = [
            0,
            9,
            10,
            99,
            100,
            101,
            999,
            1000,
            12_345,
            u64::MAX / 10,
            u64::MAX,
        ];
        let powers = (0..20).flat_map(|e| [10u64.pow(e) - 1, 10u64.pow(e)]);
        let shifts = (0..64).map(|shift| 1 << shift);
        for v in edges.into_iter().chain(powers).chain(shifts) {
            let (mut decimal, mut hex) = (String::new(), String::new());
            push_u64(&mut decimal, v);
            push_hex16(&mut hex, v);
            assert_eq!(decimal, format!("{v}"));
            assert_eq!(decimal_len(v), decimal.len(), "{v}");
            assert_eq!(hex, format!("{v:016x}"));
        }
    }
}
