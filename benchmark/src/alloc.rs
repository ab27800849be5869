//! The counting global allocator.
//!
//! Wraps [`System`] and, while counting is on, counts allocations,
//! bytes, live bytes and the live-byte peak. Timed repetitions run with
//! counting off and pay one relaxed load per allocator call (the A/B
//! against plain `System` is recorded in `benchmark/README.md`); the
//! counted pass turns it on around one repetition. The counters are
//! process-wide atomics, so a count is exact whenever the counted work
//! runs on one thread (1 shard, 1 worker) and an upper bound on the peak
//! otherwise.

#![warn(unsafe_op_in_unsafe_fn)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};

/// The allocator installed by this crate (`#[global_allocator]` in
/// `lib.rs`, so the binary and the integration tests both count).
pub struct Counting;

// Statistics only: every counter is updated and read with `Relaxed`
// because none of them publishes other data.
static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

fn note_alloc(size: usize) {
    ALLOCS.fetch_add(1, Relaxed);
    BYTES.fetch_add(size as u64, Relaxed);
    let live = LIVE.fetch_add(size as i64, Relaxed) + size as i64;
    PEAK.fetch_max(live, Relaxed);
}

fn note_free(size: usize) {
    // Blocks allocated before counting started may be freed while it is
    // on, so `LIVE` is signed and may dip below zero.
    LIVE.fetch_sub(size as i64, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters never touch
// the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Relaxed) {
            note_alloc(layout.size());
        }
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Relaxed) {
            note_alloc(layout.size());
        }
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ENABLED.load(Relaxed) {
            note_free(layout.size());
        }
        // SAFETY: `ptr` was returned by `System` for this `layout`
        // (the caller's obligation, unchanged by the wrapper).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ENABLED.load(Relaxed) {
            // One allocation event; live bytes move by the size change.
            note_free(layout.size());
            note_alloc(new_size);
        }
        // SAFETY: `ptr`/`layout`/`new_size` are the caller's, passed
        // through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// What the counters saw between [`start`] and [`stop`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Allocator calls that obtained memory (`alloc`, `alloc_zeroed`,
    /// `realloc`).
    pub allocs: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
    /// Highest number of bytes live at once, relative to [`start`].
    pub peak: u64,
}

/// Zeroes the counters and turns counting on.
pub fn start() {
    ENABLED.store(false, Relaxed);
    ALLOCS.store(0, Relaxed);
    BYTES.store(0, Relaxed);
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    ENABLED.store(true, Relaxed);
}

/// The counters so far (counting stays on).
#[must_use]
pub fn read() -> Counts {
    Counts {
        allocs: ALLOCS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
        peak: PEAK.load(Relaxed).max(0) as u64,
    }
}

/// Turns counting off and returns the totals since [`start`].
pub fn stop() -> Counts {
    ENABLED.store(false, Relaxed);
    read()
}

/// Runs `f` with counting on and returns its result with the counts.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, Counts) {
    start();
    let value = f();
    (value, stop())
}
