//! The sweep worker pool.
//!
//! Sweep cells are embarrassingly parallel: every cell is seeded
//! independently, so execution order cannot leak into results. The pool
//! therefore needs no scheduling cleverness — one shared iterator over
//! the jobs behind a mutex, N workers (the calling thread among them)
//! taking the next job until none is left, and results reassembled by
//! index so the output order matches the input order regardless of
//! which worker finished first.

use std::sync::Mutex;

/// Resolves a worker-count request: explicit value (clamped to ≥ 1), or
/// the machine's available parallelism.
#[must_use]
pub fn resolve_workers(requested: Option<usize>) -> usize {
    match requested {
        Some(n) => n.max(1),
        None => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
    }
}

/// Maps `f` over `items` on `workers` threads, preserving input order in
/// the output.
///
/// `f` receives `(index, item)`. The calling thread is one of the
/// `workers`, so `workers == 1` spawns nothing; the items still come
/// off the same shared iterator, so the only difference between a
/// sequential and a parallel run is which thread computes each cell —
/// and, because cells are independently seeded, the results are
/// bit-for-bit identical.
///
/// # Panics
///
/// Propagates a panic from `f` (the run is aborted; remaining items may
/// be skipped).
pub fn parallel_map<I, T, F>(items: Vec<I>, workers: usize, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(usize, I) -> T + Sync,
{
    let total = items.len();
    if total == 0 {
        return Vec::new();
    }
    let workers = workers.clamp(1, total);
    let jobs = Mutex::new(items.into_iter().enumerate());

    // Each worker drains the shared iterator into a list of its own, and
    // the calling thread is one of them: a request for N workers on N
    // cores runs N threads, with no cross-thread wake-up per result. The
    // lock is held for `next()` only: `f` runs outside it, so a panic in
    // `f` cannot poison it.
    let drain = || {
        let mut done = Vec::new();
        loop {
            let job = jobs.lock().expect("only next() runs under it").next();
            let Some((index, item)) = job else {
                return done;
            };
            done.push((index, f(index, item)));
        }
    };
    let mut slots: Vec<Option<T>> = Vec::with_capacity(total);
    slots.resize_with(total, || None);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (1..workers).map(|_| scope.spawn(drain)).collect();
        let mut lists = vec![drain()];
        for handle in handles {
            match handle.join() {
                Ok(list) => lists.push(list),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        for (index, value) in lists.into_iter().flatten() {
            slots[index] = Some(value);
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every job produced a result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = parallel_map(items, 8, |i, x| {
            // Finish out of order on purpose.
            if i % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            x * 2
        });
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn one_worker_equals_many() {
        let work = |_i: usize, x: u64| -> u64 { x.wrapping_mul(0x9e37_79b9).rotate_left(13) };
        let seq = parallel_map((0..64).collect(), 1, work);
        let par = parallel_map((0..64).collect(), 6, work);
        assert_eq!(seq, par);
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let counter = AtomicUsize::new(0);
        let out = parallel_map((0..257).collect::<Vec<u32>>(), 4, |_, x| {
            counter.fetch_add(1, Ordering::SeqCst);
            x
        });
        assert_eq!(out.len(), 257);
        assert_eq!(counter.load(Ordering::SeqCst), 257);
    }

    #[test]
    fn calling_thread_is_one_of_the_workers() {
        let me = std::thread::current().id();
        let alone = parallel_map((0..16).collect::<Vec<u32>>(), 1, |_, _| {
            std::thread::current().id()
        });
        assert!(
            alone.iter().all(|id| *id == me),
            "one worker spawns nothing"
        );
        let mut ids = parallel_map((0..64).collect::<Vec<u32>>(), 3, |_, _| {
            std::thread::sleep(std::time::Duration::from_micros(200));
            std::thread::current().id()
        });
        ids.sort_by_key(|id| format!("{id:?}"));
        ids.dedup();
        assert!(ids.len() <= 3, "no thread beyond the requested workers");
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<u32> = parallel_map(Vec::<u32>::new(), 4, |_, x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn workers_clamped_to_item_count() {
        // More workers than items must not deadlock or drop results.
        let out = parallel_map(vec![1u32, 2], 64, |_, x| x + 1);
        assert_eq!(out, vec![2, 3]);
    }

    #[test]
    fn resolve_workers_clamps_and_defaults() {
        assert_eq!(resolve_workers(Some(0)), 1);
        assert_eq!(resolve_workers(Some(3)), 3);
        assert!(resolve_workers(None) >= 1);
    }
}
