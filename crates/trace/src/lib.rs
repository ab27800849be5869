//! TRACE-style runtime telemetry: an append-only, deterministic event
//! stream emitted by the streaming engine.
//!
//! The reproduction's contract is "any worker count, byte-identical
//! output". A bare digest upholds the contract but cannot *explain* a
//! violation: when two runs diverge, the digest only says that they do.
//! This crate is the explanation layer — every externally visible step
//! of a run (session start/end, camera churn, admission verdicts with
//! the signals that justified them, DRR service rounds, batch
//! dispatches, function completions) is emitted as a [`TraceRecord`]
//! carrying
//!
//! * a monotonic **sequence number** (1, 2, 3, …),
//! * the **sim-time** of the event in integer microseconds, and
//! * a **rolling hash chain**: each record stores the previous record's
//!   FNV-1a hash and its own, computed over the canonical rendering of
//!   the record body. Tampering with (or diverging in) any record
//!   invalidates every later hash.
//!
//! Records render to JSONL — one flat JSON object per line, keys in a
//! fixed order, integers only (times in microseconds, megapixels in
//! micro-megapixels) — so byte equality of two trace files is exactly
//! record equality, with no float-formatting or locale hazards. Nothing
//! here reads a wall clock or ambient entropy: identical runs produce
//! identical bytes regardless of worker count, which is what lets CI
//! `cmp` golden traces.
//!
//! The crate sits below `sim` on the DAG and depends only on
//! `tangram-types`. It has **one renderer and one reader**, and a record
//! costs its bytes once in each. Each kind's keys, their order and their
//! value types live in one table, `event::FIELDS`, that the renderer,
//! its length count and the reader follow.
//!
//! * [`TraceRecord::write_line`] appends the compact canonical line to a
//!   buffer its caller owns, digits pushed two at a time from a `00`–`99`
//!   table. [`TraceSink::emit`] hashes the body, rendered into a scratch
//!   buffer it reuses, in one FNV-1a pass; [`TraceLog::to_jsonl`] writes
//!   every line into one output sized exactly beforehand. Nothing on those
//!   paths allocates per record or goes through `core::fmt`.
//! * [`TraceLog::verify`] hashes four records at once. A record's hash
//!   covers its own stored `prev`, so record *n*'s hash does not wait on
//!   record *n − 1*'s: each group of four is rendered into one scratch
//!   buffer and its four FNV-1a chains run interleaved. The sequence,
//!   time, `prev` and hash checks then run in record order, so the error
//!   still names the first bad record.
//! * [`TraceRecord::from_line`] is the renderer's inverse: it matches
//!   the line against the template the renderer fills — the fixed keys
//!   in renderer order, integers without sign, leading zero or overflow,
//!   hashes as 16 lowercase hex digits — and rejects anything else with
//!   `byte N: expected …`. A string borrows from the line; one carrying
//!   an escape is decoded by [`tangram_types::json::Json::parse`] and
//!   kept only if [`tangram_types::json::write_string`] escapes it back
//!   to the same bytes. [`TraceLog::from_jsonl`] reads exactly the text
//!   [`TraceLog::to_jsonl`] writes: every line a record ended by `\n`,
//!   no blank line, no `\r`.
//!
//! So one property holds the reader to the renderer: `from_jsonl(x) ==
//! Ok(log)` implies `log.to_jsonl() == x`. Equal logs are equal files,
//! and a respelled line — members reordered or repeated, an unknown key,
//! whitespace, a leading zero, a needless `\u` escape — is an error, not
//! a second spelling of a record. The differential test in
//! `tests/property_invariants.rs` holds it against a tree reader over
//! [`tangram_types::json::Json`]: a line is accepted exactly when that
//! reader accepts it and it is the line its record renders to.
//!
//! ```
//! use tangram_trace::{TraceEvent, TraceLog, TraceSink};
//! use tangram_types::time::SimTime;
//!
//! let mut sink = TraceSink::new();
//! sink.emit(
//!     SimTime::ZERO,
//!     TraceEvent::SessionStart { policy: "Tangram".into(), seed: 42, cameras: 1 },
//! );
//! sink.emit(SimTime::from_micros(7), TraceEvent::CameraJoin { camera: 0 });
//! let log = sink.finish();
//! log.verify().expect("chain is intact");
//! let round_trip = TraceLog::from_jsonl(&log.to_jsonl()).unwrap();
//! assert_eq!(round_trip, log);
//! ```

pub mod event;
pub mod log;

pub use event::TraceEvent;
pub use log::{ReplayCounts, TraceDivergence, TraceLog, TraceRecord, TraceSink};
