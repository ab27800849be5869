//! A deterministic, time-ordered event queue.
//!
//! Events scheduled for the same instant pop in insertion order (stable
//! FIFO tie-breaking), which keeps multi-camera simulations reproducible
//! regardless of map iteration order or float rounding elsewhere.
//!
//! # The monotone lane
//!
//! The queue is a binary heap beside a *lane*, a `VecDeque` sorted by
//! `(at, seq)` by construction. Which of the two an event enters is the
//! producer's call. [`EventQueue::push`] is for a producer whose instants
//! never decrease — a FIFO uplink's deliveries: an event no earlier than
//! the lane's back is appended there in O(1), anything earlier goes to
//! the heap. [`EventQueue::push_unordered`] is for everything else
//! (captures, timers, completions) and always goes to the heap, so a
//! far-future wake-up never parks at the lane's back and turns the
//! ordered producer's later pushes into heap pushes. Either way it is
//! one queue: one `seq` counter stamps every push, and `pop` takes the
//! smaller `(at, seq)` of the lane's front and the heap's top, so the pop
//! order is exactly the heap-only order. Both hold their payloads
//! inline: the heap stays small once the ordered producer is in the lane.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use tangram_types::time::SimTime;

struct Entry<T> {
    at: SimTime,
    seq: u64,
    payload: T,
}

impl<T> Entry<T> {
    /// What the queue orders by: firing time, then insertion order.
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (then
        // lowest-sequence) entry is the maximum.
        other.key().cmp(&self.key())
    }
}

/// A min-priority queue of `(SimTime, T)` events with FIFO tie-breaking.
pub struct EventQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    /// Entries pushed in non-decreasing `at` order, hence sorted by
    /// `(at, seq)`; everything else is in `heap`.
    lane: VecDeque<Entry<T>>,
    next_seq: u64,
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            lane: VecDeque::new(),
            next_seq: 0,
        }
    }

    fn entry(&mut self, at: SimTime, payload: T) -> Entry<T> {
        let seq = self.next_seq;
        self.next_seq += 1;
        Entry { at, seq, payload }
    }

    /// Schedules `payload` to fire at `at`, in O(1) when `at` is no
    /// earlier than the last instant this producer pushed. Reserve it for
    /// one producer whose instants never decrease.
    pub fn push(&mut self, at: SimTime, payload: T) {
        let entry = self.entry(at, payload);
        if self.lane.back().is_none_or(|back| back.at <= at) {
            self.lane.push_back(entry);
        } else {
            self.heap.push(entry);
        }
    }

    /// Schedules `payload` to fire at `at`, in any order relative to
    /// earlier pushes, without occupying the lane.
    pub fn push_unordered(&mut self, at: SimTime, payload: T) {
        let entry = self.entry(at, payload);
        self.heap.push(entry);
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        let entry = match (self.lane.front(), self.heap.peek()) {
            (Some(lane), Some(heap)) if heap.key() < lane.key() => self.heap.pop(),
            (Some(_), _) => self.lane.pop_front(),
            (None, _) => self.heap.pop(),
        }?;
        Some((entry.at, entry.payload))
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
            if i % 3 == 0 {
                q.push_unordered(t(42), i);
            } else {
                q.push(t(42), i);
            }
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
    fn debug_shows_pending() {
        let mut q = EventQueue::new();
        q.push(t(1), 0u8);
        let s = format!("{q:?}");
        assert!(s.contains("pending: 1"), "unexpected debug output: {s}");
    }

    /// A far-future wake-up pushed first must not push an ordered
    /// producer's events into the heap.
    #[test]
    fn an_unordered_push_never_blocks_the_lane() {
        let mut q = EventQueue::new();
        q.push_unordered(t(u64::MAX / 2), u64::MAX);
        for i in 0..1_000u64 {
            q.push(t(i), i);
        }
        assert_eq!((q.lane.len(), q.heap.len()), (1_000, 1));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order.len(), 1_001);
        assert!(order[..1_000].iter().copied().eq(0..1_000));
        assert_eq!(order[1_000], u64::MAX);
    }

    /// The queue next to the reference it must be indistinguishable from:
    /// a plain min-heap of `(at, seq)`. Payloads are the push ordinals, so
    /// equal pops mean equal order.
    struct AgainstReference {
        queue: EventQueue<u64>,
        reference: BinaryHeap<std::cmp::Reverse<(SimTime, u64)>>,
        pushed: u64,
        /// Steps that found entries in the lane and in the heap at once.
        both_lanes_live: usize,
        /// Steps whose lane front and heap top fired at the same instant
        /// with the heap's pushed first: only `seq` orders them.
        ties_heap_first: usize,
    }

    impl AgainstReference {
        fn push(&mut self, at: SimTime, ordered: bool) {
            if ordered {
                self.queue.push(at, self.pushed);
            } else {
                self.queue.push_unordered(at, self.pushed);
            }
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

        fn check(&mut self) {
            assert_eq!(self.queue.len(), self.reference.len());
            assert_eq!(self.queue.is_empty(), self.reference.is_empty());
            let (lane, heap) = (self.queue.lane.front(), self.queue.heap.peek());
            if let (Some(lane), Some(heap)) = (lane, heap) {
                self.both_lanes_live += 1;
                self.ties_heap_first += usize::from(heap.at == lane.at && heap.seq < lane.seq);
            }
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
            ties_heap_first: 0,
        };
        // A far-future sentinel pushed first parks at the lane's back:
        // until it pops, every later ordered push is a heap push.
        pair.push(t(u64::MAX / 2), true);
        let (mut now, mut link) = (0u64, 2_000_000u64);
        for step in 0..12_000 {
            if step == 4_000 {
                // Strictly decreasing instants: at most the first opens
                // the lane, the rest can only go to the heap.
                for k in 0..500 {
                    pair.push(t(1_000_000 - k), true);
                }
            }
            if step == 8_000 {
                while pair.pop() {}
            }
            match rng.index(8) {
                0 | 1 => {
                    pair.pop();
                }
                // Equal-instant ties, in and out of the lane.
                2 => pair.push(t(now), true),
                3 => pair.push(t(now + rng.index(4) as u64), false),
                // A FIFO producer far ahead of everything else: its
                // instants never decrease, so it owns the lane — and
                // unordered pushes at its instants tie with it.
                4 => {
                    link += rng.index(3) as u64;
                    pair.push(t(link), true);
                }
                5 => pair.push(t(link + rng.index(2) as u64), false),
                // Far-future wake-ups, which must not block the lane.
                6 => pair.push(t(link + 1_000_000 + rng.index(1_000) as u64), false),
                _ => {
                    now += rng.index(40) as u64;
                    pair.push(t(now + 1_000), false);
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
        assert!(
            pair.ties_heap_first > 100,
            "the run must tie a lane entry with an earlier heap entry, did so {} times",
            pair.ties_heap_first
        );
    }

    #[test]
    fn recycled_queue_keeps_ordering() {
        let mut q = EventQueue::new();
        q.push(t(10), "a");
        q.push(t(20), "b");
        assert_eq!(q.pop().unwrap().1, "a");
        // Earlier than the lane's back: "c" goes to the heap and still
        // pops first.
        q.push(t(5), "c");
        q.push(t(20), "d");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, vec!["c", "b", "d"]);
    }
}
