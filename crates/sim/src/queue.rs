//! The engine's event queue: one pending event per processor.
//!
//! A processor is always in exactly one of three states — scheduled at one
//! instant, blocked, or gone — so the queue never holds two events for the
//! same processor and can be indexed by it. Events live at the leaves of a
//! complete binary min-tree, one leaf per processor, as packed `u128` keys
//! `(time, seq, proc)`: comparing two events is one `u128` comparison, and
//! the earliest event sits at the root. `seq` is a run-wide insertion
//! counter, so events at equal times come out in the order they were
//! scheduled (FIFO), exactly as from a heap ordered by `(time, seq, proc)`.
//!
//! The engine loop [`peek`](EventQueue::peek)s at the root, handles that
//! processor's event, and ends by [`schedule`](EventQueue::schedule)-ing or
//! [`park`](EventQueue::park)-ing the same processor, which overwrites the
//! handled event in place: one leaf-to-root pass per event instead of a
//! heap pop plus a push.

use crate::machine::SimError;
use crate::time::SimTime;

/// Key of a leaf with no pending event. `seq` stays below its field's
/// all-ones value, so a real key's low half is never all ones, and the low
/// half alone tells a parked leaf.
const PARKED: u128 = u128::MAX;

#[derive(Debug)]
pub(crate) struct EventQueue {
    /// `tree[1]` is the root; node `i` has children `2i` and `2i + 1`; the
    /// leaf of processor `p` is `tree[leaves + p]`. `tree[0]` is unused.
    tree: Vec<u128>,
    /// Leaf count: the processor count rounded up to a power of two.
    leaves: usize,
    /// Width of the `proc` field, the low bits of the key's low half;
    /// `seq` takes the other `64 - proc_bits`.
    proc_bits: u32,
    /// Next insertion sequence number.
    seq: u64,
    /// The key the last [`peek`](EventQueue::peek) handed out, kept only
    /// to check that the caller rescheduled or parked its processor.
    #[cfg(debug_assertions)]
    handed: u128,
}

impl EventQueue {
    pub(crate) fn new() -> Self {
        EventQueue {
            tree: Vec::new(),
            leaves: 0,
            proc_bits: 0,
            seq: 0,
            #[cfg(debug_assertions)]
            handed: PARKED,
        }
    }

    /// Empty the queue for a run on `n` processors, all parked.
    pub(crate) fn reset(&mut self, n: usize) {
        self.leaves = n.next_power_of_two();
        self.proc_bits = usize::BITS - n.saturating_sub(1).leading_zeros();
        self.tree.clear();
        self.tree.resize(2 * self.leaves, PARKED);
        self.seq = 0;
        #[cfg(debug_assertions)]
        {
            self.handed = PARKED;
        }
    }

    /// Schedule processor `p` at `t`, replacing its pending event if any.
    ///
    /// # Errors
    ///
    /// [`SimError::SeqOverflow`] once the run has scheduled more events
    /// than the packed `seq` field holds (2^60 at 16 processors).
    #[inline]
    pub(crate) fn schedule(&mut self, p: usize, t: SimTime) -> Result<(), SimError> {
        if self.seq >= u64::MAX >> self.proc_bits {
            return Err(SimError::SeqOverflow);
        }
        let low = (self.seq << self.proc_bits) | p as u64;
        self.seq += 1;
        self.set(p, (u128::from(t.as_nanos()) << 64) | u128::from(low));
        Ok(())
    }

    /// Drop processor `p`'s pending event: it is blocked or gone.
    #[inline]
    pub(crate) fn park(&mut self, p: usize) {
        self.set(p, PARKED);
    }

    /// The earliest pending event as `(time, proc)`, left in the queue.
    /// The caller handles it and then schedules or parks that processor
    /// before peeking again.
    #[inline]
    pub(crate) fn peek(&mut self) -> Option<(SimTime, usize)> {
        #[cfg(debug_assertions)]
        assert!(
            self.handed == PARKED || self.leaf(self.handed) != self.handed,
            "a handled event must leave its processor rescheduled or parked"
        );
        let key = self.tree[1];
        // Test the low half only: a whole-`u128` test compiles to one
        // 16-byte load, which cannot be forwarded from the two 8-byte
        // stores that wrote the root and stalls every event.
        if key as u64 == PARKED as u64 {
            return None;
        }
        #[cfg(debug_assertions)]
        {
            self.handed = key;
        }
        Some((SimTime::from_nanos((key >> 64) as u64), self.leaf_index(key)))
    }

    /// The processor a key belongs to.
    fn leaf_index(&self, key: u128) -> usize {
        (key as u64 & !(u64::MAX << self.proc_bits)) as usize
    }

    /// The current key at the leaf a key belongs to.
    #[cfg(debug_assertions)]
    fn leaf(&self, key: u128) -> u128 {
        self.tree[self.leaves + self.leaf_index(key)]
    }

    /// Write leaf `p` and recompute its ancestors' minima.
    #[inline]
    fn set(&mut self, p: usize, key: u128) {
        let mut i = self.leaves + p;
        let mut min = key;
        self.tree[i] = key;
        while i > 1 {
            min = min.min(self.tree[i ^ 1]);
            i >>= 1;
            self.tree[i] = min;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynfb_core::rng::SplitMix64;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    fn at(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    /// Drive the queue and a reference heap of `(time, seq, proc)` through
    /// the engine's protocol with a seeded random schedule: pop the head,
    /// then reschedule it (often at the same instant) or park it, and now
    /// and then wake a parked processor. Both must agree at every head.
    fn agrees_with_heap(n: usize, seed: u64) {
        let mut g = SplitMix64::new(seed);
        let mut q = EventQueue::new();
        q.reset(n);
        let mut heap = BinaryHeap::new();
        let mut seq = 0u64;
        let mut parked = Vec::new();
        let mut push = |heap: &mut BinaryHeap<_>, q: &mut EventQueue, t: u64, p: usize| {
            heap.push(Reverse((t, seq, p)));
            seq += 1;
            q.schedule(p, at(t)).unwrap();
        };
        for p in 0..n {
            push(&mut heap, &mut q, 0, p);
        }
        for _ in 0..20_000 {
            let Some(Reverse((t, _, p))) = heap.pop() else {
                assert_eq!(q.peek(), None);
                // Everyone parked: wake one to keep going.
                let w = parked.swap_remove(g.gen_index(parked.len()));
                push(&mut heap, &mut q, 0, w);
                continue;
            };
            assert_eq!(q.peek(), Some((at(t), p)), "n = {n}, seed = {seed}");
            // A handful of distinct delays makes ties the common case.
            let delay = [0, 0, 1, 1, 2, 3, 5, 8][g.gen_index(8)];
            if g.gen_index(4) == 0 {
                q.park(p);
                parked.push(p);
            } else {
                push(&mut heap, &mut q, t + delay, p);
            }
            if !parked.is_empty() && g.gen_index(3) == 0 {
                let w = parked.swap_remove(g.gen_index(parked.len()));
                push(&mut heap, &mut q, t + delay, w);
            }
        }
    }

    #[test]
    fn pops_in_the_same_order_as_a_tuple_heap() {
        for n in [1, 2, 3, 8, 16, 17, 64] {
            for seed in 0..4 {
                agrees_with_heap(n, seed);
            }
        }
    }

    #[test]
    fn an_empty_machine_has_no_events() {
        let mut q = EventQueue::new();
        q.reset(0);
        assert_eq!(q.peek(), None);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "rescheduled or parked")]
    fn peeking_past_an_unhandled_event_is_caught() {
        let mut q = EventQueue::new();
        q.reset(2);
        q.schedule(0, at(1)).unwrap();
        q.peek();
        q.peek();
    }

    #[test]
    fn seq_overflow_is_an_error_not_a_wrap() {
        for n in [1, 16, 17] {
            let mut q = EventQueue::new();
            q.reset(n);
            let last = u64::MAX >> q.proc_bits;
            q.seq = last - 1;
            q.schedule(0, at(1)).unwrap();
            assert_eq!(q.schedule(0, at(1)), Err(SimError::SeqOverflow), "n = {n}");
            assert_eq!(q.peek(), Some((at(1), 0)), "the failed schedule changes nothing");
        }
    }
}
