//! A deterministic, time-ordered event queue.
//!
//! Events scheduled for the same instant pop in insertion order (stable
//! FIFO tie-breaking), which keeps multi-camera simulations reproducible
//! regardless of map iteration order or float rounding elsewhere.
//!
//! # Layout
//!
//! The heap itself stores only fixed-size, `Copy`-able *slots*
//! (`at`, `seq`, and an arena index); payloads live in a side arena
//! (`Vec<Option<T>>`) with a free list. Sift-up/sift-down during
//! `push`/`pop` therefore moves 24-byte slots instead of full payloads —
//! for enum payloads like the engine's `StreamEvent` (which embeds an
//! `Arrival`), that cuts the bytes shuffled per heap operation by an
//! order of magnitude. Ordering semantics are unchanged: min on
//! `(at, seq)`, FIFO on ties.
//!
//! # The monotone lane
//!
//! A slot pushed at an instant no earlier than the last slot of the
//! *lane* — a `VecDeque<Slot>` — is appended there instead of entering
//! the heap. `seq` only grows, so the lane is sorted by `(at, seq)` by
//! construction and its front is its minimum; `pop` takes whichever of
//! the lane's front and the heap's top is smaller. A producer whose
//! instants never decrease (a FIFO uplink's deliveries) therefore costs
//! O(1) per event however many are pending, and the heap holds only what
//! was scheduled ahead of it. It is still one queue: one `seq` counter
//! stamps every slot, so the pop order is exactly the heap-only order.
//! The worst case — a far-future event sitting at the lane's back, so
//! everything after it goes to the heap — is the heap-only cost plus one
//! comparison.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use tangram_types::time::SimTime;

#[derive(Clone, Copy)]
struct Slot {
    at: SimTime,
    seq: u64,
    idx: u32,
}

impl Slot {
    /// What the queue orders by: firing time, then insertion order.
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

impl PartialEq for Slot {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for Slot {}

impl PartialOrd for Slot {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Slot {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (then
        // lowest-sequence) entry is the maximum.
        other.key().cmp(&self.key())
    }
}

/// A min-priority queue of `(SimTime, T)` events with FIFO tie-breaking.
pub struct EventQueue<T> {
    heap: BinaryHeap<Slot>,
    /// Slots pushed in non-decreasing `at` order, hence sorted by
    /// `(at, seq)`; everything else is in `heap`.
    lane: VecDeque<Slot>,
    arena: Vec<Option<T>>,
    free: Vec<u32>,
    next_seq: u64,
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            lane: VecDeque::new(),
            arena: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
        }
    }

    /// Schedules `payload` to fire at `at`.
    pub fn push(&mut self, at: SimTime, payload: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let idx = match self.free.pop() {
            Some(idx) => {
                self.arena[idx as usize] = Some(payload);
                idx
            }
            None => {
                let idx = u32::try_from(self.arena.len()).expect("event arena exceeds u32 slots");
                self.arena.push(Some(payload));
                idx
            }
        };
        let slot = Slot { at, seq, idx };
        if self.lane.back().is_none_or(|back| back.at <= at) {
            self.lane.push_back(slot);
        } else {
            self.heap.push(slot);
        }
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        let slot = match (self.lane.front(), self.heap.peek()) {
            (Some(lane), Some(heap)) if heap.key() < lane.key() => self.heap.pop(),
            (Some(_), _) => self.lane.pop_front(),
            (None, _) => self.heap.pop(),
        }?;
        let payload = self.arena[slot.idx as usize]
            .take()
            .expect("event arena slot already vacated");
        self.free.push(slot.idx);
        Some((slot.at, payload))
    }

    /// The firing time of the earliest event without removing it.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        let fronts = self.lane.front().into_iter().chain(self.heap.peek());
        fronts.map(|slot| slot.at).min()
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len() + self.lane.len()
    }

    /// Whether no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.lane.is_empty()
    }

    /// Drops all pending events.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.lane.clear();
        self.arena.clear();
        self.free.clear();
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> std::fmt::Debug for EventQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("pending", &self.len())
            .field("next_at", &self.peek_time())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(t(30), 'c');
        q.push(t(10), 'a');
        q.push(t(20), 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn ties_pop_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100u32 {
            q.push(t(42), i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_ties_keep_insertion_order() {
        let mut q = EventQueue::new();
        q.push(t(5), "x1");
        q.push(t(3), "y");
        q.push(t(5), "x2");
        assert_eq!(q.pop().unwrap().1, "y");
        assert_eq!(q.pop().unwrap().1, "x1");
        assert_eq!(q.pop().unwrap().1, "x2");
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(t(7), ());
        assert_eq!(q.peek_time(), Some(t(7)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn debug_shows_pending() {
        let mut q = EventQueue::new();
        q.push(t(1), 0u8);
        let s = format!("{q:?}");
        assert!(s.contains("pending: 1"), "unexpected debug output: {s}");
    }

    #[test]
    fn arena_slots_are_recycled() {
        let mut q = EventQueue::new();
        // Interleave pushes and pops so freed arena slots get reused;
        // the arena must never grow beyond the peak live population.
        for round in 0..10u64 {
            for i in 0..8u64 {
                q.push(t(round * 100 + i), round * 8 + i);
            }
            for _ in 0..8 {
                q.pop();
            }
        }
        assert!(q.is_empty());
        assert!(
            q.arena.len() <= 8,
            "arena grew to {} slots for 8 live events",
            q.arena.len()
        );
    }

    /// The queue next to the reference it must be indistinguishable from:
    /// a plain min-heap of `(at, seq)`. Payloads are the push ordinals, so
    /// equal pops mean equal order.
    struct AgainstReference {
        queue: EventQueue<u64>,
        reference: BinaryHeap<std::cmp::Reverse<(SimTime, u64)>>,
        pushed: u64,
        /// Steps that found slots in the lane and in the heap at once.
        both_lanes_live: usize,
    }

    impl AgainstReference {
        fn push(&mut self, at: SimTime) {
            self.queue.push(at, self.pushed);
            self.reference.push(std::cmp::Reverse((at, self.pushed)));
            self.pushed += 1;
            self.check();
        }

        fn pop(&mut self) -> bool {
            let expected = self.reference.pop().map(|r| r.0);
            assert_eq!(self.queue.pop(), expected);
            self.check();
            expected.is_some()
        }

        fn clear(&mut self) {
            self.queue.clear();
            self.reference.clear();
            self.check();
        }

        fn check(&mut self) {
            assert_eq!(self.queue.len(), self.reference.len());
            assert_eq!(self.queue.is_empty(), self.reference.is_empty());
            let next = self.reference.peek().map(|r| r.0 .0);
            assert_eq!(self.queue.peek_time(), next);
            let (lane, heap) = (&self.queue.lane, &self.queue.heap);
            self.both_lanes_live += usize::from(!lane.is_empty() && !heap.is_empty());
        }
    }

    #[test]
    fn lane_and_heap_together_pop_in_heap_only_order() {
        let mut rng = crate::rng::DetRng::new(21).fork("event-queue");
        let mut pair = AgainstReference {
            queue: EventQueue::new(),
            reference: BinaryHeap::new(),
            pushed: 0,
            both_lanes_live: 0,
        };
        // A far-future sentinel pushed first parks at the lane's back:
        // until it pops, every later push is a heap push.
        pair.push(t(u64::MAX / 2));
        let (mut now, mut link) = (0u64, 2_000_000u64);
        for step in 0..12_000 {
            if step == 4_000 {
                pair.clear();
                // Strictly decreasing instants: the first opens the lane,
                // the rest can only go to the heap.
                for k in 0..500 {
                    pair.push(t(1_000_000 - k));
                }
            }
            if step == 8_000 {
                while pair.pop() {}
            }
            match rng.index(6) {
                0 | 1 => {
                    pair.pop();
                }
                // Equal-instant ties, in and out of the lane.
                2 => pair.push(t(now)),
                3 => pair.push(t(now + rng.index(4) as u64)),
                // A FIFO producer far ahead of everything else: its
                // instants never decrease, so it owns the lane.
                4 => {
                    link += rng.index(3) as u64;
                    pair.push(t(link));
                }
                _ => {
                    now += rng.index(40) as u64;
                    pair.push(t(now + 1_000));
                }
            }
        }
        while pair.pop() {}
        assert!(pair.pushed > 7_000, "{} pushes", pair.pushed);
        assert!(
            pair.both_lanes_live > 5_000,
            "the run must exercise the merge of both fronts, did so {} times",
            pair.both_lanes_live
        );
    }

    #[test]
    fn recycled_queue_keeps_ordering() {
        let mut q = EventQueue::new();
        q.push(t(10), "a");
        q.push(t(20), "b");
        assert_eq!(q.pop().unwrap().1, "a");
        // Slot for "a" is free now; this push reuses it.
        q.push(t(5), "c");
        q.push(t(20), "d");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, vec!["c", "b", "d"]);
    }
}
