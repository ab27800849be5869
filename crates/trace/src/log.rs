//! Records, the rolling hash chain, JSONL rendering/parsing and diffs.

use crate::event::{decimal_len, integer, push_hex16, push_u64, string, TraceEvent, HEX_DIGITS};
use std::borrow::Cow;
use tangram_types::json::{escaped_len, parse_flat_object, write_string, Scalar};
use tangram_types::time::SimTime;

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over `bytes`, continuing from `state`.
fn fnv1a(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(FNV_PRIME);
    }
    state
}

/// The chain anchor: the `prev` value of a stream's first record.
#[must_use]
pub fn chain_seed() -> u64 {
    fnv1a(FNV_OFFSET, b"tangram-trace-v1")
}

/// One emitted event plus its chain bookkeeping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Monotonic sequence number, starting at 1.
    pub seq: u64,
    /// Sim-time of the event, integer microseconds since the epoch.
    pub at_us: u64,
    /// The previous record's hash ([`chain_seed`] for the first).
    pub prev: u64,
    /// FNV-1a over the previous hash and this record's canonical body.
    pub hash: u64,
    /// The event itself.
    pub event: TraceEvent,
}

/// What a rendered line adds around its body: the braces, the two
/// 16-digit hashes and their keys.
const LINE_FRAME: usize = "{,\"prev\":\"\",\"hash\":\"\"}".len() + 2 * 16;

impl TraceRecord {
    /// Appends the canonical body: everything the hash covers.
    fn body(out: &mut String, seq: u64, at_us: u64, event: &TraceEvent) {
        out.push_str("\"seq\":");
        push_u64(out, seq);
        out.push_str(",\"at_us\":");
        push_u64(out, at_us);
        // Kind tags are plain ASCII: nothing for the escaper to do.
        out.push_str(",\"kind\":\"");
        out.push_str(event.kind());
        out.push('"');
        event.each_field(|key, value| {
            out.push_str(key);
            match value {
                Scalar::U64(v) => push_u64(out, v),
                Scalar::Bool(b) => out.push_str(if b { "true" } else { "false" }),
                Scalar::Str(s) => write_string(out, &s),
            }
        });
    }

    /// Exactly the number of bytes [`TraceRecord::write_line`] appends.
    fn line_len(&self) -> usize {
        let mut len = LINE_FRAME
            + "\"seq\":,\"at_us\":,\"kind\":\"\"".len()
            + decimal_len(self.seq)
            + decimal_len(self.at_us)
            + self.event.kind().len();
        self.event.each_field(|key, value| {
            len += key.len()
                + match value {
                    Scalar::U64(v) => decimal_len(v),
                    Scalar::Bool(b) => if b { "true" } else { "false" }.len(),
                    Scalar::Str(s) => escaped_len(&s),
                };
        });
        len
    }

    /// The hash a record must carry given its `prev`: FNV-1a over
    /// `{prev:016x}|` and the body, rendered into `scratch` (whose
    /// contents are replaced) and hashed in one pass.
    fn chain(scratch: &mut String, seq: u64, at_us: u64, event: &TraceEvent, prev: u64) -> u64 {
        scratch.clear();
        push_hex16(scratch, prev);
        scratch.push('|');
        Self::body(scratch, seq, at_us, event);
        fnv1a(FNV_OFFSET, scratch.as_bytes())
    }

    /// Appends the record as one JSONL line (no trailing newline) — the
    /// one renderer; the hash chain covers the body it writes.
    pub fn write_line(&self, out: &mut String) {
        out.push('{');
        Self::body(out, self.seq, self.at_us, &self.event);
        out.push_str(",\"prev\":\"");
        push_hex16(out, self.prev);
        out.push_str("\",\"hash\":\"");
        push_hex16(out, self.hash);
        out.push_str("\"}");
    }

    /// Renders the record as one JSONL line (no trailing newline).
    #[must_use]
    pub fn to_line(&self) -> String {
        let mut line = String::with_capacity(self.line_len());
        self.write_line(&mut line);
        line
    }

    /// Parses one JSONL line: a flat object of string, integer and
    /// boolean values — exactly the shape [`TraceRecord::write_line`]
    /// emits.
    pub fn from_line(line: &str) -> Result<TraceRecord, String> {
        Self::read_line(line, &mut Vec::new())
    }

    /// [`TraceRecord::from_line`] through a caller-owned field list, so a
    /// whole log is read through one.
    fn read_line<'a>(
        line: &'a str,
        fields: &mut Vec<(Cow<'a, str>, Scalar<'a>)>,
    ) -> Result<TraceRecord, String> {
        // The trace alphabet has no nesting, floats or nulls; a line
        // carrying one anywhere is not a record, known key or not.
        parse_flat_object(line, fields)?;
        let kind = string(fields, "kind")?;
        Ok(TraceRecord {
            seq: integer(fields, "seq")?,
            at_us: integer(fields, "at_us")?,
            prev: parse_hex(string(fields, "prev")?)?,
            hash: parse_hex(string(fields, "hash")?)?,
            event: TraceEvent::from_fields(kind, fields)?,
        })
    }

    /// A compact human label: `seq 12: batch.dispatch @ 118000us`.
    #[must_use]
    pub fn label(&self) -> String {
        format!("seq {}: {} @ {}us", self.seq, self.event.kind(), self.at_us)
    }
}

/// Reads a hash as [`TraceRecord::write_line`] writes one — 16 lowercase
/// hex digits — and in no other spelling, so that two different files
/// never parse to equal logs.
fn parse_hex(s: &str) -> Result<u64, String> {
    /// The value of each lowercase hex digit, `0xff` for any other byte.
    /// A table, not a `match`: which of `0-9` / `a-f` a hash digit falls
    /// in is a coin toss no branch predictor wins.
    const VALUE: [u8; 256] = {
        let mut table = [0xff; 256];
        let mut digit = 0;
        while digit < 16 {
            table[HEX_DIGITS[digit] as usize] = digit as u8;
            digit += 1;
        }
        table
    };
    let canonical = <&[u8; 16]>::try_from(s.as_bytes()).ok().and_then(|digits| {
        let (mut value, mut seen) = (0u64, 0u8);
        for &b in digits {
            let digit = VALUE[usize::from(b)];
            seen |= digit;
            value = value << 4 | u64::from(digit & 0xf);
        }
        (seen <= 0xf).then_some(value)
    });
    canonical.ok_or_else(|| format!("bad hash {s:?}: expected 16 lowercase hex digits"))
}

/// The recorder the engine writes into: appends records, maintaining the
/// sequence numbers and the hash chain.
#[derive(Debug, Default)]
pub struct TraceSink {
    records: Vec<TraceRecord>,
    prev: Option<u64>,
    /// Where each record's hashed bytes are rendered; reused, so `emit`
    /// allocates only when `records` grows.
    scratch: String,
}

impl TraceSink {
    /// An empty sink, chain anchored at [`chain_seed`].
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends `event` observed at sim-time `at`.
    pub fn emit(&mut self, at: SimTime, event: TraceEvent) {
        let at_us = at.since(SimTime::ZERO).as_micros();
        debug_assert!(
            self.records.last().is_none_or(|r| r.at_us <= at_us),
            "trace time must be monotonic"
        );
        let seq = self.records.len() as u64 + 1;
        let prev = self.prev.unwrap_or_else(chain_seed);
        let hash = TraceRecord::chain(&mut self.scratch, seq, at_us, &event, prev);
        self.prev = Some(hash);
        self.records.push(TraceRecord {
            seq,
            at_us,
            prev,
            hash,
            event,
        });
    }

    /// Number of records emitted so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether nothing was emitted yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Seals the stream.
    #[must_use]
    pub fn finish(self) -> TraceLog {
        TraceLog {
            records: self.records,
        }
    }
}

/// Where a candidate trace first leaves its baseline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceDivergence {
    /// Sequence number of the first differing record (one side may have
    /// ended before it).
    pub seq: u64,
    /// The baseline's record at `seq`, if it has one.
    pub baseline: Option<TraceRecord>,
    /// The candidate's record at `seq`, if it has one.
    pub candidate: Option<TraceRecord>,
}

impl TraceDivergence {
    /// A one-line human description naming the first divergent event.
    #[must_use]
    pub fn describe(&self) -> String {
        match (&self.baseline, &self.candidate) {
            (Some(b), Some(c)) if b.event.kind() == c.event.kind() => format!(
                "first divergence at seq {}: {} differs\n  baseline:  {}\n  candidate: {}",
                self.seq,
                b.event.kind(),
                b.to_line(),
                c.to_line()
            ),
            (Some(b), Some(c)) => format!(
                "first divergence at seq {}: baseline {} vs candidate {}\n  baseline:  {}\n  candidate: {}",
                self.seq,
                b.event.kind(),
                c.event.kind(),
                b.to_line(),
                c.to_line()
            ),
            (Some(b), None) => format!(
                "first divergence at seq {}: candidate ended early (baseline has {})",
                self.seq,
                b.label()
            ),
            (None, Some(c)) => format!(
                "first divergence at seq {}: baseline ended, candidate continues with {}",
                self.seq,
                c.label()
            ),
            (None, None) => "no divergence".into(),
        }
    }
}

/// Event-level counts folded out of a trace, for checking a stream
/// against the run report it narrates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayCounts {
    /// Batches dispatched (`batch.dispatch` records).
    pub batches: u64,
    /// Patches across all dispatched batches.
    pub patches: u64,
    /// Invocations completed (`function.complete` records).
    pub completions: u64,
    /// Arrivals shed by admission (`admission.verdict` with
    /// `admitted:false`; fair-ingress overflow sheds are not verdicts
    /// and do not appear here).
    pub dropped: u64,
}

/// A sealed, verifiable event stream.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceLog {
    /// Records in emission order.
    pub records: Vec<TraceRecord>,
}

impl TraceLog {
    /// Renders the whole log as JSONL (one record per line, trailing
    /// newline included when non-empty).
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        // Sized exactly, once: a text this large must not be grown by
        // doubling, which would hold three times its length for a moment.
        let len = self.records.iter().map(|r| r.line_len() + 1).sum();
        let mut out = String::with_capacity(len);
        for record in &self.records {
            record.write_line(&mut out);
            out.push('\n');
        }
        debug_assert_eq!(out.len(), len, "line_len counts what write_line writes");
        out
    }

    /// Parses a JSONL rendering. Blank lines are ignored; the chain is
    /// *not* checked — call [`TraceLog::verify`] for that.
    pub fn from_jsonl(text: &str) -> Result<TraceLog, String> {
        // One record a line, and no line shorter than its frame is one:
        // the text's length bounds what is reserved for it.
        let newlines = text.matches('\n').count();
        let mut records = Vec::with_capacity(newlines.min(text.len() / LINE_FRAME) + 1);
        let mut fields = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let record = TraceRecord::read_line(line, &mut fields);
            records.push(record.map_err(|e| format!("line {}: {e}", i + 1))?);
        }
        Ok(TraceLog { records })
    }

    /// Checks sequence monotonicity (1, 2, 3, …), time monotonicity and
    /// the hash chain, returning the first violation.
    pub fn verify(&self) -> Result<(), String> {
        let mut prev_hash = chain_seed();
        let mut prev_at = 0u64;
        let mut scratch = String::with_capacity(256);
        for (i, record) in self.records.iter().enumerate() {
            let want_seq = i as u64 + 1;
            if record.seq != want_seq {
                return Err(format!(
                    "record {}: seq {} breaks the 1..n sequence (expected {want_seq})",
                    i + 1,
                    record.seq
                ));
            }
            if record.at_us < prev_at {
                return Err(format!(
                    "{}: time runs backwards ({} < {prev_at})",
                    record.label(),
                    record.at_us
                ));
            }
            if record.prev != prev_hash {
                return Err(format!(
                    "{}: chain broken (prev {:016x}, expected {prev_hash:016x})",
                    record.label(),
                    record.prev
                ));
            }
            let want = TraceRecord::chain(
                &mut scratch,
                record.seq,
                record.at_us,
                &record.event,
                record.prev,
            );
            if record.hash != want {
                return Err(format!(
                    "{}: hash mismatch ({:016x}, expected {want:016x})",
                    record.label(),
                    record.hash
                ));
            }
            prev_hash = record.hash;
            prev_at = record.at_us;
        }
        Ok(())
    }

    /// The last record's hash — a digest of the whole stream.
    #[must_use]
    pub fn final_hash(&self) -> u64 {
        self.records.last().map_or_else(chain_seed, |r| r.hash)
    }

    /// The first record where `self` (baseline) and `candidate` differ.
    #[must_use]
    pub fn first_divergence(&self, candidate: &TraceLog) -> Option<TraceDivergence> {
        let n = self.records.len().max(candidate.records.len());
        for i in 0..n {
            let b = self.records.get(i);
            let c = candidate.records.get(i);
            if b != c {
                return Some(TraceDivergence {
                    seq: i as u64 + 1,
                    baseline: b.cloned(),
                    candidate: c.cloned(),
                });
            }
        }
        None
    }

    /// Record counts per event kind, in [`TraceEvent::KINDS`] order.
    #[must_use]
    pub fn stats(&self) -> Vec<(&'static str, usize)> {
        let mut counts = [0usize; TraceEvent::KINDS.len()];
        for record in &self.records {
            counts[record.event.kind_index()] += 1;
        }
        TraceEvent::KINDS.into_iter().zip(counts).collect()
    }

    /// Folds the per-event records into totals (see [`ReplayCounts`]).
    #[must_use]
    pub fn replay_counts(&self) -> ReplayCounts {
        let mut counts = ReplayCounts::default();
        for record in &self.records {
            match &record.event {
                TraceEvent::BatchDispatch { patches, .. } => {
                    counts.batches += 1;
                    counts.patches += patches;
                }
                TraceEvent::FunctionComplete { .. } => counts.completions += 1,
                TraceEvent::AdmissionVerdict {
                    admitted: false, ..
                } => counts.dropped += 1,
                _ => {}
            }
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::every_variant;

    fn sample() -> TraceLog {
        let mut sink = TraceSink::new();
        sink.emit(
            SimTime::ZERO,
            TraceEvent::SessionStart {
                policy: "Tangram".into(),
                seed: 7,
                cameras: 1,
            },
        );
        sink.emit(
            SimTime::from_micros(5),
            TraceEvent::CameraJoin { camera: 3 },
        );
        sink.emit(
            SimTime::from_micros(90),
            TraceEvent::AdmissionVerdict {
                patch: 11,
                slo_us: 1_000_000,
                admitted: false,
                queued: 6,
                in_flight: 2,
                earliest_start_us: 120,
            },
        );
        sink.emit(
            SimTime::from_micros(100),
            TraceEvent::BatchDispatch {
                batch: 0,
                patches: 4,
                inputs: 2,
                megapixels_e6: 2_097_152,
            },
        );
        sink.emit(
            SimTime::from_micros(400),
            TraceEvent::FunctionComplete {
                invocation: 0,
                inputs: 2,
                violations: 1,
            },
        );
        sink.finish()
    }

    #[test]
    fn sequence_and_chain_are_monotonic_and_verified() {
        let log = sample();
        assert_eq!(
            log.records.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![1, 2, 3, 4, 5]
        );
        // Each record chains off its predecessor.
        for pair in log.records.windows(2) {
            assert_eq!(pair[1].prev, pair[0].hash);
            assert!(pair[1].at_us >= pair[0].at_us);
        }
        assert_eq!(log.records[0].prev, chain_seed());
        log.verify().expect("freshly emitted chain verifies");
        assert_eq!(log.final_hash(), log.records.last().unwrap().hash);
    }

    #[test]
    fn jsonl_round_trips_byte_exactly() {
        let log = sample();
        let text = log.to_jsonl();
        let parsed = TraceLog::from_jsonl(&text).expect("parses");
        assert_eq!(parsed, log);
        assert_eq!(parsed.to_jsonl(), text, "render(parse(x)) == x");
        parsed.verify().expect("chain survives the round trip");
    }

    #[test]
    fn strings_needing_escapes_round_trip_and_stay_on_one_line() {
        let mut sink = TraceSink::new();
        sink.emit(
            SimTime::ZERO,
            TraceEvent::SessionStart {
                policy: "a\"b\\c\nd\te\u{1}é".into(),
                seed: 1,
                cameras: 0,
            },
        );
        let log = sink.finish();
        let text = log.to_jsonl();
        assert_eq!(text.lines().count(), 1, "{text}");
        let parsed = TraceLog::from_jsonl(&text).expect("parses");
        assert_eq!(parsed, log);
        parsed.verify().expect("chain covers the escaped bytes");
    }

    #[test]
    fn tampering_breaks_the_chain() {
        let mut log = sample();
        // Flip one field of record 3; its own hash no longer matches.
        if let TraceEvent::AdmissionVerdict { queued, .. } = &mut log.records[2].event {
            *queued += 1;
        }
        let err = log.verify().expect_err("tamper detected");
        assert!(err.contains("seq 3"), "{err}");

        // Splicing record 3 out breaks the sequence numbering.
        let mut spliced = sample();
        spliced.records.remove(2);
        assert!(spliced.verify().is_err());
    }

    #[test]
    fn first_divergence_names_the_event() {
        let base = sample();
        let mut cand = sample();
        if let TraceEvent::BatchDispatch { patches, .. } = &mut cand.records[3].event {
            *patches = 9;
        }
        let div = base.first_divergence(&cand).expect("diverges");
        assert_eq!(div.seq, 4);
        assert!(
            div.describe().contains("batch.dispatch"),
            "{}",
            div.describe()
        );
        assert_eq!(base.first_divergence(&sample()), None);

        // A truncated candidate diverges at the missing record.
        let mut short = sample();
        short.records.pop();
        let div = base.first_divergence(&short).expect("diverges");
        assert_eq!(div.seq, 5);
        assert!(div.candidate.is_none());
    }

    #[test]
    fn replay_counts_fold_the_stream() {
        let counts = sample().replay_counts();
        assert_eq!(
            counts,
            ReplayCounts {
                batches: 1,
                patches: 4,
                completions: 1,
                dropped: 1,
            }
        );
    }

    #[test]
    fn stats_count_by_kind() {
        let stats = sample().stats();
        let get = |k: &str| stats.iter().find(|(kind, _)| *kind == k).unwrap().1;
        assert_eq!(get("session.start"), 1);
        assert_eq!(get("camera.join"), 1);
        assert_eq!(get("batch.dispatch"), 1);
        assert_eq!(get("session.end"), 0);
        let kinds: Vec<&str> = stats.iter().map(|(kind, _)| *kind).collect();
        assert_eq!(kinds, TraceEvent::KINDS);
        assert_eq!(stats.iter().map(|(_, n)| n).sum::<usize>(), 5);
    }

    /// `line` with its `"hash"` value spelled `hash`.
    fn respell_hash(line: &str, hash: &str) -> String {
        let (head, _) = line.split_once("\"hash\":\"").expect("a hash field");
        format!("{head}\"hash\":\"{hash}\"}}")
    }

    /// The parent commit's renderer, `core::fmt` throughout: what
    /// `write_line` and `chain` must keep producing byte for byte.
    fn reference_body(seq: u64, at_us: u64, event: &TraceEvent) -> String {
        let mut body = format!("\"seq\":{seq},\"at_us\":{at_us},\"kind\":");
        write_string(&mut body, event.kind());
        let quoted = |s: &str| {
            let mut out = String::new();
            write_string(&mut out, s);
            out
        };
        body + &match event {
            TraceEvent::SessionStart {
                policy,
                seed,
                cameras,
            } => format!(
                ",\"policy\":{},\"seed\":{seed},\"cameras\":{cameras}",
                quoted(policy)
            ),
            TraceEvent::CameraJoin { camera } | TraceEvent::CameraLeave { camera } => {
                format!(",\"camera\":{camera}")
            }
            TraceEvent::AdmissionVerdict {
                patch,
                slo_us,
                admitted,
                queued,
                in_flight,
                earliest_start_us,
            } => format!(
                ",\"patch\":{patch},\"slo_us\":{slo_us},\"admitted\":{admitted},\
                 \"queued\":{queued},\"in_flight\":{in_flight},\
                 \"earliest_start_us\":{earliest_start_us}"
            ),
            TraceEvent::DrrRound { released, backlog } => {
                format!(",\"released\":{released},\"backlog\":{backlog}")
            }
            TraceEvent::BatchDispatch {
                batch,
                patches,
                inputs,
                megapixels_e6,
            } => format!(
                ",\"batch\":{batch},\"patches\":{patches},\"inputs\":{inputs},\
                 \"megapixels_e6\":{megapixels_e6}"
            ),
            TraceEvent::FunctionComplete {
                invocation,
                inputs,
                violations,
            } => format!(
                ",\"invocation\":{invocation},\"inputs\":{inputs},\"violations\":{violations}"
            ),
            TraceEvent::FaultWindow { kind, until_us } => {
                format!(",\"fault\":{},\"until_us\":{until_us}", quoted(kind))
            }
            TraceEvent::SessionEnd {
                frames,
                batches,
                completions,
                dropped,
                makespan_us,
            } => format!(
                ",\"frames\":{frames},\"batches\":{batches},\"completions\":{completions},\
                 \"dropped\":{dropped},\"makespan_us\":{makespan_us}"
            ),
        }
    }

    #[test]
    fn the_buffered_renderer_writes_the_formatted_bytes_and_hashes_them_the_same() {
        let mut scratch = String::from("left over from the last record");
        for n in [0, 9, 10, u64::MAX] {
            for text in ["Tangram", "", "a\"b\\c\nd\te\r\u{1}\u{1f}é✓🎥/"] {
                for event in every_variant(n, text) {
                    let body = reference_body(n, n, &event);
                    let prev = n ^ 0x0123_4567_89ab_cdef;
                    let want = fnv1a(
                        fnv1a(FNV_OFFSET, format!("{prev:016x}|").as_bytes()),
                        body.as_bytes(),
                    );
                    let hash = TraceRecord::chain(&mut scratch, n, n, &event, prev);
                    assert_eq!(hash, want, "{body}");
                    let record = TraceRecord {
                        seq: n,
                        at_us: n,
                        prev,
                        hash,
                        event,
                    };
                    let line = record.to_line();
                    assert_eq!(
                        line,
                        format!("{{{body},\"prev\":\"{prev:016x}\",\"hash\":\"{hash:016x}\"}}")
                    );
                    assert_eq!(record.line_len(), line.len(), "{line}");
                    assert_eq!(TraceRecord::from_line(&line), Ok(record), "{line}");
                }
            }
        }
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        let good = sample().records[2].to_line();
        TraceRecord::from_line(&good).expect("the unedited line parses");
        let cases: [(&str, String, &str); 18] = [
            ("truncated", "{\"seq\":1".into(), "expected"),
            ("not json", "not json".into(), "invalid"),
            ("not an object", "[1,2]".into(), "expected a JSON object"),
            (
                "nested value",
                good.replace("\"queued\":6", "\"queued\":[6]"),
                "\"queued\": unexpected",
            ),
            (
                "float value",
                good.replace("\"queued\":6", "\"queued\":6.0"),
                "\"queued\": unexpected",
            ),
            (
                "negative value",
                good.replace("\"queued\":6", "\"queued\":-6"),
                "\"queued\": unexpected",
            ),
            (
                "null value",
                good.replace("\"queued\":6", "\"queued\":null"),
                "\"queued\": unexpected",
            ),
            (
                "null under an unknown key",
                good.replace("{\"seq\"", "{\"extra\":null,\"seq\""),
                "\"extra\": unexpected",
            ),
            (
                "wrong field type",
                good.replace("\"queued\":6", "\"queued\":\"6\""),
                "\"queued\": expected integer",
            ),
            (
                "bool where integer",
                good.replace("\"admitted\":false", "\"admitted\":0"),
                "\"admitted\": expected bool",
            ),
            (
                "missing field",
                good.replace("\"queued\":6,", ""),
                "missing field \"queued\"",
            ),
            (
                "unknown kind",
                good.replace("admission.verdict", "bogus.kind"),
                "unknown event kind",
            ),
            ("trailing bytes", format!("{good} x"), "trailing input"),
            (
                "bad hex hash",
                good.replace("\"hash\":\"", "\"hash\":\"zz"),
                "bad hash",
            ),
            // A hash has one spelling, the one `write_line` emits: any
            // other would let two different files parse to equal logs.
            (
                "signed hash",
                respell_hash(&good, "+ff"),
                "bad hash \"+ff\"",
            ),
            (
                "upper-case hash",
                respell_hash(&good, "FF"),
                "bad hash \"FF\"",
            ),
            ("short hash", respell_hash(&good, "ff"), "bad hash \"ff\""),
            (
                "17-digit hash",
                respell_hash(&good, "000000000000000ff"),
                "bad hash \"000000000000000ff\"",
            ),
        ];
        for (what, line, want) in &cases {
            assert_ne!(line, &good, "{what}: the edit must change the line");
            let err = TraceRecord::from_line(line).expect_err(what);
            assert!(err.contains(want), "{what}: {err}");
        }
    }

    #[test]
    fn golden_traces_reparse_to_their_own_bytes() {
        for name in ["TRACE_smoke.jsonl", "TRACE_overload.jsonl"] {
            let path = format!("{}/../../baselines/{name}", env!("CARGO_MANIFEST_DIR"));
            let text = std::fs::read_to_string(&path).expect("golden trace is committed");
            let log = TraceLog::from_jsonl(&text).expect("golden trace parses");
            assert!(!log.records.is_empty(), "{name}");
            log.verify().expect("golden chain verifies");
            assert_eq!(log.to_jsonl(), text, "{name}: render(parse(x)) == x");
        }
    }
}
