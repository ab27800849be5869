//! Records, the rolling hash chain, JSONL rendering/parsing and diffs.

use crate::event::{
    decimal_len, push_hex16, push_u64, Row, TraceEvent, Ty, Value, FIELDS, HEX_DIGITS,
};
use std::borrow::Cow;
use std::fmt::Display;
use tangram_types::json::{escaped_len, write_string, Json};
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

/// Records [`TraceLog::verify`] hashes at once.
const LANES: usize = 4;

/// FNV-1a from the offset basis over each of `LANES` segments of
/// `bytes`, segment `l` ending at `ends[l]` (and starting where the one
/// before it ends). The chains are independent, so the common length
/// runs them interleaved — each multiply overlaps the other lanes'
/// instead of waiting on its own — and each lane then finishes alone.
fn fnv1a_lanes(bytes: &[u8], ends: [usize; LANES]) -> [u64; LANES] {
    let mut start = 0;
    let lanes = ends.map(|end| {
        let lane = &bytes[start..end];
        start = end;
        lane
    });
    let common = lanes.iter().map(|lane| lane.len()).min().unwrap_or(0);
    let [a, b, c, d] = lanes.map(|lane| &lane[..common]);
    let step = |state: u64, byte: &u8| (state ^ u64::from(*byte)).wrapping_mul(FNV_PRIME);
    let mut state = [FNV_OFFSET; LANES];
    for (((a, b), c), d) in a.iter().zip(b).zip(c).zip(d) {
        state = [
            step(state[0], a),
            step(state[1], b),
            step(state[2], c),
            step(state[3], d),
        ];
    }
    for (state, lane) in state.iter_mut().zip(&lanes) {
        *state = fnv1a(*state, &lane[common..]);
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
                Value::Int(v) => push_u64(out, v),
                Value::Bool(b) => out.push_str(if b { "true" } else { "false" }),
                Value::Text(s) => write_string(out, s),
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
                    Value::Int(v) => decimal_len(v),
                    Value::Bool(b) => if b { "true" } else { "false" }.len(),
                    Value::Text(s) => escaped_len(s),
                };
        });
        len
    }

    /// Appends the bytes a record's hash covers given its `prev`:
    /// `{prev:016x}|` and the body.
    fn hashed_bytes(out: &mut String, seq: u64, at_us: u64, event: &TraceEvent, prev: u64) {
        push_hex16(out, prev);
        out.push('|');
        Self::body(out, seq, at_us, event);
    }

    /// The hash a record must carry given its `prev`: FNV-1a over its
    /// hashed bytes, rendered into `scratch` (whose contents are
    /// replaced) and hashed in one pass.
    fn chain(scratch: &mut String, seq: u64, at_us: u64, event: &TraceEvent, prev: u64) -> u64 {
        scratch.clear();
        Self::hashed_bytes(scratch, seq, at_us, event, prev);
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

    /// Parses one JSONL line spelled byte for byte as
    /// [`TraceRecord::write_line`] spells a record: members in renderer
    /// order, integers without sign, leading zero or overflow, strings as
    /// the JSON escaper writes them, hashes as 16 lowercase hex digits. So
    /// `from_line(x)?.to_line() == x` for every `x` it accepts.
    ///
    /// # Errors
    ///
    /// `byte N: expected …`, naming the first token that is not where
    /// (or not as) the renderer puts it.
    pub fn from_line(line: &str) -> Result<TraceRecord, String> {
        let mut template = Template { line, pos: 0 };
        template.literal("{\"seq\":")?;
        let seq = template.integer()?;
        template.literal(",\"at_us\":")?;
        let at_us = template.integer()?;
        template.literal(",\"kind\":")?;
        let at = template.pos;
        let tag = template.text()?;
        let kind = TraceEvent::kind_of(&tag)
            .ok_or_else(|| format!("byte {at}: expected an event kind, not {tag:?}"))?;
        let mut row = Row::default();
        for (slot, &(prefix, ty)) in FIELDS[kind].iter().enumerate() {
            template.literal(prefix)?;
            match ty {
                Ty::Int => row.ints[slot] = template.integer()?,
                Ty::Bool => row.flag = template.boolean()?,
                Ty::Text => row.text = template.text()?,
            }
        }
        template.literal(",\"prev\":")?;
        let prev = template.hash()?;
        template.literal(",\"hash\":")?;
        let hash = template.hash()?;
        template.literal("}")?;
        let end = template.pos == line.len();
        template.take(0, end.then_some(()), "the end of the line")?;
        Ok(TraceRecord {
            seq,
            at_us,
            prev,
            hash,
            event: TraceEvent::from_row(kind, row),
        })
    }

    /// A compact human label: `seq 12: batch.dispatch @ 118000us`.
    #[must_use]
    pub fn label(&self) -> String {
        format!("seq {}: {} @ {}us", self.seq, self.event.kind(), self.at_us)
    }
}

/// The value of 16 lowercase hex digits; `None` if any byte is not one.
fn hex16(digits: &[u8; 16]) -> Option<u64> {
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
    let (mut value, mut seen) = (0u64, 0u8);
    for &b in digits {
        let digit = VALUE[usize::from(b)];
        seen |= digit;
        value = value << 4 | u64::from(digit & 0xf);
    }
    (seen <= 0xf).then_some(value)
}

/// A cursor matching a line against the canonical record template; each
/// step consumes one token as the renderer spells it, or names the byte
/// where that token should start.
struct Template<'a> {
    line: &'a str,
    pos: usize,
}

impl<'a> Template<'a> {
    /// The line from the cursor on.
    fn rest(&self) -> &'a [u8] {
        &self.line.as_bytes()[self.pos..]
    }

    /// `value` with its `len` bytes consumed, or for `None` the error
    /// `byte N: expected {what}` — only ever built on the way out, so a
    /// match allocates nothing.
    fn take<T>(&mut self, len: usize, value: Option<T>, what: impl Display) -> Result<T, String> {
        let Some(value) = value else {
            return Err(format!("byte {}: expected {what}", self.pos));
        };
        self.pos += len;
        Ok(value)
    }

    /// The bytes of `literal`.
    fn literal(&mut self, literal: &str) -> Result<(), String> {
        let found = self.rest().starts_with(literal.as_bytes());
        self.take(
            literal.len(),
            found.then_some(()),
            format_args!("`{literal}`"),
        )
    }

    /// A decimal integer as [`push_u64`] writes one: no sign, no leading
    /// zero, no overflow.
    fn integer(&mut self) -> Result<u64, String> {
        let rest = self.rest();
        let digits = &rest[..rest.iter().take_while(|b| b.is_ascii_digit()).count()];
        let canonical = digits.len() == 1 || digits.first().is_some_and(|&b| b != b'0');
        let value = digits.iter().try_fold(0u64, |v, &b| {
            v.checked_mul(10)?.checked_add(u64::from(b - b'0'))
        });
        let what = match digits {
            [] => "a decimal integer",
            [b'0', ..] => "an integer without a leading zero",
            _ => "an integer within u64",
        };
        self.take(digits.len(), value.filter(|_| canonical), what)
    }

    /// `true` or `false`.
    fn boolean(&mut self) -> Result<bool, String> {
        let flag = if self.rest().starts_with(b"true") {
            Some(true)
        } else {
            self.rest().starts_with(b"false").then_some(false)
        };
        let len = flag.map_or(0, |flag| if flag { "true" } else { "false" }.len());
        self.take(len, flag, "`true` or `false`")
    }

    /// A string literal as [`write_string`] writes one. Borrowed from the
    /// line when the escaper had nothing to do; one with an escape in it is
    /// decoded by [`Json::parse`] and kept only if [`write_string`] escapes
    /// what it decodes back to the same bytes.
    fn text(&mut self) -> Result<Cow<'a, str>, String> {
        let rest = &self.line[self.pos..];
        let bytes = rest.as_bytes();
        // To the first quote no backslash escapes, noting whether the
        // escaper had anything to do on the way.
        let (mut end, mut escaped) = (1, false);
        while let Some(&b) = bytes.get(end).filter(|&&b| b != b'"') {
            escaped |= b == b'\\' || b < 0x20;
            end += if b == b'\\' { 2 } else { 1 };
        }
        let literal = rest.get(..=end).filter(|_| bytes.first() == Some(&b'"'));
        let text = literal.and_then(|literal| {
            if !escaped {
                return Some(Cow::Borrowed(&literal[1..end]));
            }
            let Ok(Json::Str(text)) = Json::parse(literal) else {
                return None;
            };
            let mut again = String::with_capacity(literal.len());
            write_string(&mut again, &text);
            (again == literal).then_some(Cow::Owned(text))
        });
        self.take(end + 1, text, "a string as the renderer escapes it")
    }

    /// A quoted hash: 16 lowercase hex digits.
    fn hash(&mut self) -> Result<u64, String> {
        let token = self
            .rest()
            .get(..18)
            .filter(|t| t[0] == b'"' && t[17] == b'"');
        let value = token.and_then(|t| hex16(t[1..17].try_into().ok()?));
        self.take(18, value, "a hash, 16 lowercase hex digits in quotes")
    }
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

    /// Parses exactly the text [`TraceLog::to_jsonl`] writes: one
    /// [`TraceRecord::from_line`] line per record, each ended by `\n` —
    /// no blank line, no `\r`, no unterminated last line. So
    /// `from_jsonl(x) == Ok(log)` implies `log.to_jsonl() == x`. The chain
    /// is *not* checked — call [`TraceLog::verify`] for that.
    ///
    /// # Errors
    ///
    /// `line N: …`, naming the first line that is not a canonical record.
    pub fn from_jsonl(text: &str) -> Result<TraceLog, String> {
        // One record a line, and no line shorter than its frame is one:
        // the text's length bounds what is reserved for it.
        let newlines = text.matches('\n').count();
        let mut records = Vec::with_capacity(newlines.min(text.len() / LINE_FRAME));
        let mut rest = text;
        while !rest.is_empty() {
            let number = records.len() + 1;
            let Some((line, next)) = rest.split_once('\n') else {
                return Err(format!("line {number}: expected a newline at its end"));
            };
            let record = TraceRecord::from_line(line);
            records.push(record.map_err(|e| format!("line {number}: {e}"))?);
            rest = next;
        }
        Ok(TraceLog { records })
    }

    /// Checks sequence monotonicity (1, 2, 3, …), time monotonicity and
    /// the hash chain, returning the first violation.
    ///
    /// A record's hash covers its own stored `prev`, not its
    /// predecessor's hash, so the hashes do not depend on each other: the
    /// records are hashed four at a time, rendered into one scratch
    /// buffer, and then checked in order.
    pub fn verify(&self) -> Result<(), String> {
        let mut prev_hash = chain_seed();
        let mut prev_at = 0u64;
        let mut scratch = String::with_capacity(LANES * 256);
        for (group, records) in self.records.chunks(LANES).enumerate() {
            scratch.clear();
            let mut ends = [0; LANES];
            for (end, r) in ends.iter_mut().zip(records) {
                TraceRecord::hashed_bytes(&mut scratch, r.seq, r.at_us, &r.event, r.prev);
                *end = scratch.len();
            }
            // A short last group hashes empty lanes.
            ends[records.len()..].fill(scratch.len());
            let hashes = fnv1a_lanes(scratch.as_bytes(), ends);
            for (lane, (record, want)) in records.iter().zip(hashes).enumerate() {
                let position = group * LANES + lane + 1;
                if record.seq != position as u64 {
                    return Err(format!(
                        "record {position}: seq {} breaks the 1..n sequence (expected {position})",
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
        // Where the value of `key` starts in the unedited line.
        let value = |key: &str| good.find(&format!("\"{key}\":")).expect("a key") + key.len() + 3;
        let member = |key: &str| value(key) - key.len() - 4;
        let hash = value("hash");
        let cases: [(&str, String, String); 18] = [
            (
                "truncated",
                "{\"seq\":1".into(),
                "byte 8: expected `,\"at_us\":`".into(),
            ),
            (
                "not json",
                "not json".into(),
                "byte 0: expected `{\"seq\":`".into(),
            ),
            (
                "not an object",
                "[1,2]".into(),
                "byte 0: expected `{\"seq\":`".into(),
            ),
            (
                "nested value",
                good.replace("\"queued\":6", "\"queued\":[6]"),
                format!("byte {}: expected a decimal integer", value("queued")),
            ),
            (
                "float value",
                good.replace("\"queued\":6", "\"queued\":6.0"),
                format!("byte {}: expected `,\"in_flight\":`", value("queued") + 1),
            ),
            (
                "negative value",
                good.replace("\"queued\":6", "\"queued\":-6"),
                format!("byte {}: expected a decimal integer", value("queued")),
            ),
            (
                "null value",
                good.replace("\"queued\":6", "\"queued\":null"),
                format!("byte {}: expected a decimal integer", value("queued")),
            ),
            (
                "null under an unknown key",
                good.replace("{\"seq\"", "{\"extra\":null,\"seq\""),
                "byte 0: expected `{\"seq\":`".into(),
            ),
            (
                "wrong field type",
                good.replace("\"queued\":6", "\"queued\":\"6\""),
                format!("byte {}: expected a decimal integer", value("queued")),
            ),
            (
                "bool where integer",
                good.replace("\"admitted\":false", "\"admitted\":0"),
                format!("byte {}: expected `true` or `false`", value("admitted")),
            ),
            (
                "missing field",
                good.replace("\"queued\":6,", ""),
                format!("byte {}: expected `,\"queued\":`", member("queued")),
            ),
            (
                "unknown kind",
                good.replace("admission.verdict", "bogus.kind"),
                format!(
                    "byte {}: expected an event kind, not \"bogus.kind\"",
                    value("kind")
                ),
            ),
            (
                "trailing bytes",
                format!("{good} x"),
                format!("byte {}: expected the end of the line", good.len()),
            ),
            (
                "bad hex hash",
                good.replace("\"hash\":\"", "\"hash\":\"zz"),
                format!("byte {hash}: expected a hash"),
            ),
            // A hash has one spelling, the one `write_line` emits: any
            // other would let two different files parse to equal logs.
            (
                "signed hash",
                respell_hash(&good, "+ff"),
                format!("byte {hash}: expected a hash"),
            ),
            (
                "upper-case hash",
                respell_hash(&good, &format!("{:016X}", u64::MAX - 1)),
                format!("byte {hash}: expected a hash"),
            ),
            (
                "short hash",
                respell_hash(&good, "ff"),
                format!("byte {hash}: expected a hash"),
            ),
            (
                "17-digit hash",
                respell_hash(&good, "000000000000000ff"),
                format!("byte {hash}: expected a hash"),
            ),
        ];
        for (what, line, want) in &cases {
            assert_ne!(line, &good, "{what}: the edit must change the line");
            let err = TraceRecord::from_line(line).expect_err(what);
            assert!(err.starts_with(want.as_str()), "{what}: {err}");
        }
    }

    /// `verify` as it ran before the lanes: one record at a time, in
    /// order — their oracle.
    fn serial_verify(log: &TraceLog) -> Result<(), String> {
        let mut prev_hash = chain_seed();
        let mut prev_at = 0u64;
        let mut scratch = String::new();
        for (i, record) in log.records.iter().enumerate() {
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

    /// `len` records cycling through every kind, so lanes hash bodies of
    /// unequal length.
    fn log_of(len: u64) -> TraceLog {
        let mut sink = TraceSink::new();
        for i in 0..len {
            let event = every_variant(i * 37, "Tangram")[(i % 9) as usize].clone();
            sink.emit(SimTime::from_micros(i * 10), event);
        }
        sink.finish()
    }

    /// The three single-record tampers: a field, `prev`, `seq`.
    fn tamper(record: &mut TraceRecord, how: usize) {
        match how {
            0 => {
                let kind = record.event.kind_index();
                record.event = every_variant(1_000_003, "tampered")[kind].clone();
            }
            1 => record.prev ^= 1,
            _ => record.seq += 100,
        }
    }

    /// What the error for a first bad record at index `at` starts with.
    fn names(log: &TraceLog, at: usize, how: usize) -> String {
        if how == 2 {
            format!("record {}: seq ", at + 1)
        } else {
            format!("seq {}: ", log.records[at].seq)
        }
    }

    #[test]
    fn the_lanes_report_the_first_violation_in_record_order() {
        for len in 1..=9u64 {
            let clean = log_of(len);
            clean.verify().expect("an untouched chain verifies");
            let n = clean.records.len();
            for at in 0..n {
                for how in 0..3 {
                    let mut log = clean.clone();
                    tamper(&mut log.records[at], how);
                    let err = log.verify().expect_err("tamper detected");
                    assert_eq!(Err(err.clone()), serial_verify(&log), "len {len}");
                    let want = names(&log, at, how);
                    assert!(err.starts_with(&want), "len {len}, at {at}: {err}");
                }
            }
            // A hash mismatch in an earlier lane beats a broken chain in a
            // later one, and the other way round, in and across groups.
            for early in 0..n {
                for late in early + 1..n {
                    for (first, then) in [(0, 1), (1, 0), (2, 0), (0, 2)] {
                        let mut log = clean.clone();
                        tamper(&mut log.records[early], first);
                        tamper(&mut log.records[late], then);
                        let err = log.verify().expect_err("tamper detected");
                        assert_eq!(Err(err.clone()), serial_verify(&log), "len {len}");
                        let want = names(&log, early, first);
                        assert!(err.starts_with(&want), "len {len}, {early}/{late}: {err}");
                    }
                }
            }
        }
        assert_eq!(TraceLog::default().verify(), Ok(()));
    }

    /// Reads `line` and checks the reader inverts the renderer on it: what
    /// it accepts renders back to `line`, byte for byte.
    fn read_back(line: &str) -> Result<TraceRecord, String> {
        let read = TraceRecord::from_line(line);
        if let Ok(record) = &read {
            assert_eq!(record.to_line(), line);
        }
        read
    }

    #[test]
    fn the_template_reads_what_the_flat_path_reads() {
        for name in ["TRACE_smoke.jsonl", "TRACE_overload.jsonl"] {
            let path = format!("{}/../../baselines/{name}", env!("CARGO_MANIFEST_DIR"));
            let text = std::fs::read_to_string(&path).expect("golden trace is committed");
            for line in text.lines() {
                assert!(read_back(line).is_ok(), "{name}: {line}");
            }
        }
        // Every kind at the integer edges, with strings the escaper leaves
        // alone and strings it escapes: each reads back to its record.
        for n in [0, 9, 10, u64::MAX] {
            for text in ["Tangram", "", "é✓🎥/", "a\"b\\c\nd\te\r\u{1}\u{1f}é"] {
                for event in every_variant(n, text) {
                    let prev = n ^ 0x0123_4567_89ab_cdef;
                    let record = TraceRecord {
                        seq: n,
                        at_us: n,
                        prev,
                        hash: !prev,
                        event,
                    };
                    let line = record.to_line();
                    assert_eq!(read_back(&line), Ok(record), "{line}");
                }
            }
        }
        // Canonical-shaped edges: the largest `u64` is canonical, one more
        // overflows, leading zeros, a needless escape and a raw control byte
        // are respellings, and an escaped quote or a raw non-ASCII scalar is
        // what the escaper writes.
        let start = TraceEvent::SessionStart {
            policy: "Tangram".into(),
            seed: 5,
            cameras: 1,
        };
        let line = TraceRecord {
            seq: 1,
            at_us: 2,
            prev: 3,
            hash: 4,
            event: start,
        }
        .to_line();
        let edges = [
            ("\"seed\":5", "\"seed\":18446744073709551615", true),
            ("\"seed\":5", "\"seed\":18446744073709551616", false),
            ("\"seed\":5", "\"seed\":007", false),
            ("\"seq\":1", "\"seq\":01", false),
            ("\"at_us\":2", "\"at_us\":", false),
            ("Tangram", "T\\u0061ngram", false),
            ("Tangram", "Tangr\\\"am", true),
            ("Tangram", "Tang\\u0001ram", true),
            ("Tangram", "Tang\\u0001ra\\/m", false),
            ("Tangram", "Tang\u{1}ram", false),
            ("Tangram", "Tang\\x", false),
            ("Tangram", "Tang\\", false),
            ("Tangram", "Tangrém", true),
            (
                "\"kind\":\"session.start\"",
                "\"kind\":\"session\\u002estart\"",
                false,
            ),
            ("\"cameras\":1", "\"cameras\":1.0", false),
            ("\"}", "\"} ", false),
        ];
        for (from, to, canonical) in edges {
            let edge = line.replacen(from, to, 1);
            assert_ne!(edge, line, "{to}");
            let read = read_back(&edge);
            assert_eq!(read.is_ok(), canonical, "{edge}: {read:?}");
            if let Err(err) = read {
                assert!(
                    err.starts_with("byte ") && err.contains(": expected "),
                    "{err}"
                );
            }
        }
    }

    #[test]
    fn from_jsonl_reads_exactly_the_text_to_jsonl_writes() {
        assert_eq!(TraceLog::from_jsonl(""), Ok(TraceLog::default()));
        assert_eq!(TraceLog::default().to_jsonl(), "");
        let text = sample().to_jsonl();
        assert_eq!(TraceLog::from_jsonl(&text), Ok(sample()));
        let lines: Vec<&str> = text.lines().collect();
        // Each edit of the text, and the line the error must name.
        let blank = format!("{}\n\n{}\n", lines[0], lines[1..].join("\n"));
        let crlf = text.replacen('\n', "\r\n", 1);
        let unterminated = text.trim_end().to_string();
        let respelled = text.replacen("\"seq\":4,", "\"seq\":4 ,", 1);
        let leading = format!("\n{text}");
        for (edited, line) in [
            (blank, 2),
            (crlf, 1),
            (unterminated, lines.len()),
            (respelled, 4),
            (leading, 1),
        ] {
            let err = TraceLog::from_jsonl(&edited).expect_err(&edited);
            assert!(err.starts_with(&format!("line {line}: ")), "{err}");
        }
        // A golden trace with one line respelled is not that trace.
        let path = format!(
            "{}/../../baselines/TRACE_smoke.jsonl",
            env!("CARGO_MANIFEST_DIR")
        );
        let golden = std::fs::read_to_string(&path).expect("golden trace is committed");
        let respelled = golden.replacen("{\"seq\":3,", "{\"seq\":03,", 1);
        assert_ne!(respelled, golden);
        let err = TraceLog::from_jsonl(&respelled).expect_err("a respelled line");
        assert_eq!(
            err,
            "line 3: byte 7: expected an integer without a leading zero"
        );
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
