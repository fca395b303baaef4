//! One observer interface for every observation channel.
//!
//! The drivers (the simulator runtime in `dynfb-sim` and the real-thread
//! executor in [`crate::realtime`]) report everything they can show about a
//! run through one [`Observer`]: the adaptation timeline
//! ([`event`](Observer::event)), each controller decision with its evidence
//! ([`decision`](Observer::decision)), per-lock activity
//! ([`lock_acquired`](Observer::lock_acquired),
//! [`lock_released`](Observer::lock_released)) and named
//! [`counter`](Observer::counter)s. Every method has a no-op default, so a
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
//! [`RingBuffer`]: crate::trace::RingBuffer
//! [`JournalBuffer`]: crate::journal::JournalBuffer
//! [`MetricsRegistry`]: crate::metrics::MetricsRegistry

use crate::journal::DecisionRecord;
use crate::trace::TraceEvent;
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
        let events = ring.into_events();
        assert_eq!(events.len(), 1);
        assert_eq!((events[0].at, &events[0].event), (at, &switch));
        let records = journal.into_records();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].kind, kind);
        assert_eq!(registry.lock(3).acquires, 1);
        assert_eq!(registry.counter_value("c"), 2);
    }
}
