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
//! its length count and both halves of the reader follow.
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
//! * [`TraceRecord::from_line`] first matches the line against the
//!   template the renderer fills: the fixed keys in renderer order,
//!   integers without sign, leading zero or overflow, strings without
//!   escapes or control bytes, hashes as 16 lowercase hex digits. At the
//!   first byte that differs it falls through to
//!   [`tangram_types::json::parse_flat_object`] — the workspace's one
//!   JSON codec, its string, number and keyword scanners, but no tree:
//!   keys and values borrow from the line, in one field list reused
//!   across a log. That flat path reads every other spelling (members
//!   reordered or repeated, unknown keys, whitespace, leading zeros, `\u`
//!   escapes), rejects anything that is not a flat object of strings,
//!   integers and booleans or whose `prev` / `hash` is not spelled as the
//!   renderer spells it, and writes every error message.
//!
//! Two properties hold the reader to the renderer: a canonical line reads
//! and renders back byte for byte, and any other accepted spelling reads
//! to the record a tree reader over [`tangram_types::json::Json`] gives
//! (the differential test in `tests/property_invariants.rs`). Accepted
//! respellings do not render back to themselves: the renderer writes the
//! one canonical line.
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
