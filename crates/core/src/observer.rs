//! One observer interface for every observation channel.
//!
//! The drivers (the simulator runtime in `dynfb-sim` and the real-thread
//! executor in [`crate::realtime`]) report everything they can show about a
//! run through one [`Observer`]: the adaptation timeline
//! ([`event`](Observer::event)), each controller decision with its evidence
//! ([`decision`](Observer::decision)), per-lock activity
//! ([`lock_acquired`](Observer::lock_acquired),
//! [`lock_released`](Observer::lock_released)) and named
//! [`counter`](Observer::counter)s. Only the simulator emits lock events:
//! the realtime observer sits behind the executor's control mutex, and
//! taking it on every acquire would serialize the workers on more than the
//! profiled lock. Every method has a no-op default, so a
//! collector implements only its own channel: [`RingBuffer`] keeps events,
//! [`JournalBuffer`] keeps decisions and [`MetricsRegistry`] keeps lock
//! metrics and counters. Observers compose: the pair `(A, B)` forwards each
//! call to both members, and `&mut O` forwards to `O`.
//!
//! **Zero cost when disabled.** `()` is the disabled observer: its
//! `const ENABLED` is false, a pair of disabled observers is disabled too,
//! and every emission site is guarded by `if O::ENABLED`. A driver
//! monomorphized over `()` therefore compiles each emission away, including
//! the work that builds the event (a decision's evidence snapshot, a lock's
//! hold time); the unobserved hot path is the same machine code as one with
//! no observation layer at all.
//!
//! **Bounded collection.** The trace ring and the journal are one
//! [`Recorder`]: it keeps the newest `capacity` items and counts the older
//! ones it dropped, so truncation is never silent.
//!
//! [`RingBuffer`]: crate::trace::RingBuffer
//! [`JournalBuffer`]: crate::journal::JournalBuffer
//! [`MetricsRegistry`]: crate::metrics::MetricsRegistry

use crate::journal::DecisionRecord;
use crate::trace::{TraceEvent, TracedEvent};
use std::collections::VecDeque;
use std::time::Duration;

/// Receives what a driver observes about a run.
///
/// Every method defaults to discarding its argument; implement the ones
/// for the channels the observer keeps.
pub trait Observer {
    /// Statically false for observers that discard everything; emission
    /// sites guard the construction of what they emit behind this.
    const ENABLED: bool = true;

    /// Record one trace event at offset `at` from the start of the run.
    fn event(&mut self, _at: Duration, _event: TraceEvent) {}

    /// Record one controller decision with its evidence.
    fn decision(&mut self, _record: DecisionRecord) {}

    /// A lock was acquired. `cost` is the modeled/charged acquire cost,
    /// `waited` the time spent waiting for the holder (zero when
    /// uncontended), and `failed` the number of unsuccessful spin
    /// attempts made while waiting.
    fn lock_acquired(&mut self, _lock: usize, _cost: Duration, _waited: Duration, _failed: u64) {}

    /// A lock was released. `cost` is the modeled/charged release cost and
    /// `held` the time the lock was held (acquire completion to release
    /// start).
    fn lock_released(&mut self, _lock: usize, _cost: Duration, _held: Duration) {}

    /// Bump a named free-form counter by `delta`.
    fn counter(&mut self, _name: &'static str, _delta: u64) {}

    /// Events and records lost to capacity limits so far (0 for unbounded
    /// observers). The simulator exports the trace's and the journal's
    /// nonzero-only as the `trace_dropped` and `journal_dropped` counters,
    /// so truncation is never silent.
    fn dropped(&self) -> u64 {
        0
    }
}

/// A bounded collector: keeps the most recent `capacity` items, counting
/// (not silently discarding) anything older that had to be dropped.
/// [`RingBuffer`] records trace events and [`JournalBuffer`] decision
/// records.
///
/// [`RingBuffer`]: crate::trace::RingBuffer
/// [`JournalBuffer`]: crate::journal::JournalBuffer
#[derive(Debug, Clone)]
pub struct Recorder<T> {
    capacity: usize,
    items: VecDeque<T>,
    dropped: u64,
}

impl<T> Default for Recorder<T> {
    /// The same as `Recorder::new(0)`: one slot.
    fn default() -> Self {
        Recorder::new(0)
    }
}

impl<T> Recorder<T> {
    /// A recorder holding at most `capacity` items (minimum 1). Storage
    /// grows with use: recorders are built before their runs, and most
    /// runs record a small fraction of the capacity.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Recorder { capacity: capacity.max(1), items: VecDeque::new(), dropped: 0 }
    }

    /// Number of buffered items.
    #[must_use]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True if no items are buffered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Total items ever recorded (buffered + dropped).
    #[must_use]
    pub fn total_recorded(&self) -> u64 {
        self.items.len() as u64 + self.dropped
    }

    /// Iterate over the buffered items, oldest first.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = &T> {
        self.items.iter()
    }

    /// The most recent item, if any.
    #[must_use]
    pub fn latest(&self) -> Option<&T> {
        self.items.back()
    }

    /// Consume the recorder, returning the buffered items oldest first.
    #[must_use]
    pub fn into_vec(self) -> Vec<T> {
        self.items.into()
    }

    /// Append `item`, dropping the oldest one when full.
    fn push(&mut self, item: T) {
        if self.items.len() >= self.capacity {
            self.items.pop_front();
            self.dropped += 1;
        }
        self.items.push_back(item);
    }
}

impl Observer for Recorder<TracedEvent> {
    fn event(&mut self, at: Duration, event: TraceEvent) {
        self.push(TracedEvent { at, event });
    }

    fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Numbers each record in arrival order: `seq` counts every record before
/// it, dropped ones included.
impl Observer for Recorder<DecisionRecord> {
    fn decision(&mut self, mut record: DecisionRecord) {
        record.seq = self.total_recorded();
        self.push(record);
    }

    fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// The disabled observer: discards everything at zero cost.
impl Observer for () {
    const ENABLED: bool = false;
}

impl<O: Observer + ?Sized> Observer for &mut O {
    const ENABLED: bool = O::ENABLED;

    fn event(&mut self, at: Duration, event: TraceEvent) {
        (**self).event(at, event);
    }

    fn decision(&mut self, record: DecisionRecord) {
        (**self).decision(record);
    }

    fn lock_acquired(&mut self, lock: usize, cost: Duration, waited: Duration, failed: u64) {
        (**self).lock_acquired(lock, cost, waited, failed);
    }

    fn lock_released(&mut self, lock: usize, cost: Duration, held: Duration) {
        (**self).lock_released(lock, cost, held);
    }

    fn counter(&mut self, name: &'static str, delta: u64) {
        (**self).counter(name, delta);
    }

    fn dropped(&self) -> u64 {
        (**self).dropped()
    }
}

/// Both members observe; a value is cloned only when both are enabled.
impl<A: Observer, B: Observer> Observer for (A, B) {
    const ENABLED: bool = A::ENABLED || B::ENABLED;

    fn event(&mut self, at: Duration, event: TraceEvent) {
        if !B::ENABLED {
            self.0.event(at, event);
            return;
        }
        if A::ENABLED {
            self.0.event(at, event.clone());
        }
        self.1.event(at, event);
    }

    fn decision(&mut self, record: DecisionRecord) {
        if !B::ENABLED {
            self.0.decision(record);
            return;
        }
        if A::ENABLED {
            self.0.decision(record.clone());
        }
        self.1.decision(record);
    }

    fn lock_acquired(&mut self, lock: usize, cost: Duration, waited: Duration, failed: u64) {
        self.0.lock_acquired(lock, cost, waited, failed);
        self.1.lock_acquired(lock, cost, waited, failed);
    }

    fn lock_released(&mut self, lock: usize, cost: Duration, held: Duration) {
        self.0.lock_released(lock, cost, held);
        self.1.lock_released(lock, cost, held);
    }

    fn counter(&mut self, name: &'static str, delta: u64) {
        self.0.counter(name, delta);
        self.1.counter(name, delta);
    }

    fn dropped(&self) -> u64 {
        self.0.dropped() + self.1.dropped()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{DecisionKind, Evidence, JournalBuffer};
    use crate::metrics::MetricsRegistry;
    use crate::trace::{RingBuffer, SwitchReason};

    #[test]
    fn unit_and_pairs_of_units_are_statically_disabled() {
        const { assert!(!<() as Observer>::ENABLED) };
        const { assert!(!<((), ()) as Observer>::ENABLED) };
        const { assert!(!<(&mut (), &mut ()) as Observer>::ENABLED) };
        const { assert!(<(RingBuffer, ()) as Observer>::ENABLED) };
        const { assert!(<((), JournalBuffer) as Observer>::ENABLED) };
        const { assert!(<(RingBuffer, JournalBuffer) as Observer>::ENABLED) };
        const { assert!(<&mut MetricsRegistry as Observer>::ENABLED) };
        assert_eq!(().dropped(), 0);
    }

    #[test]
    fn a_default_recorder_has_one_slot_and_drops_nothing_on_its_first_record() {
        let mut ring = RingBuffer::default();
        ring.event(Duration::ZERO, TraceEvent::RunEnd);
        assert_eq!((ring.len(), ring.dropped()), (1, 0));
        let mut journal = JournalBuffer::default();
        for _ in 0..2 {
            let kind = DecisionKind::Alarm { policy: 0 };
            journal.decision(DecisionRecord {
                seq: 0,
                at: Duration::ZERO,
                kind,
                evidence: Evidence::default(),
            });
        }
        assert_eq!((journal.len(), journal.dropped(), journal.total_recorded()), (1, 1, 2));
        assert_eq!(journal.latest().map(|r| r.seq), Some(1));
    }

    #[test]
    fn a_pair_routes_each_channel_to_the_member_that_keeps_it() {
        let mut registry = MetricsRegistry::new();
        let mut obs = ((RingBuffer::new(1), JournalBuffer::new(8)), &mut registry);
        let at = Duration::from_nanos(5);
        let switch = TraceEvent::PolicySwitch { from: 0, to: 1, reason: SwitchReason::Resample };
        obs.event(at, TraceEvent::RunEnd);
        obs.event(at, switch.clone());
        let kind = DecisionKind::Alarm { policy: 1 };
        obs.decision(DecisionRecord { seq: 0, at, kind, evidence: Evidence::default() });
        obs.lock_acquired(3, Duration::from_nanos(2), Duration::ZERO, 0);
        obs.counter("c", 2);
        // The one-slot ring dropped the first event; the pair sums losses.
        assert_eq!(obs.dropped(), 1);
        let ((ring, journal), _) = obs;
        let events = ring.into_vec();
        assert_eq!(events.len(), 1);
        assert_eq!((events[0].at, &events[0].event), (at, &switch));
        let records = journal.into_vec();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].kind, kind);
        assert_eq!(registry.lock(3).acquires, 1);
        assert_eq!(registry.counter_value("c"), 2);
    }
}
