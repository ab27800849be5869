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
//! `tangram-types`. It has **one renderer and one flat reader**, and a
//! record costs its bytes once in each:
//!
//! * [`TraceRecord::write_line`] appends the compact canonical line to a
//!   buffer its caller owns. [`TraceSink::emit`] and [`TraceLog::verify`]
//!   hash the same body, rendered into a scratch buffer they reuse, in
//!   one FNV-1a pass; [`TraceLog::to_jsonl`] writes every line into one
//!   output sized exactly beforehand. Nothing on those paths allocates
//!   per record or goes through `core::fmt`.
//! * [`TraceRecord::from_line`] reads a line through
//!   [`tangram_types::json::parse_flat_object`] — the workspace's one JSON
//!   codec, its string, number and keyword scanners, but no tree: keys
//!   and values borrow from the line, in one field list reused across a
//!   log — rejecting anything that is not a flat object of strings,
//!   integers and booleans, and any `prev` / `hash` not spelled as the
//!   renderer spells it (16 lowercase hex digits), so that
//!   `render(parse(x)) == x` for every `x` that parses.
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
