//! Integration tests for the realtime adaptive executor: lifecycle,
//! `ExecutionReport::last_production_policy`, and trace-event ordering
//! under a 2-policy toy workload.

use dynfb_core::controller::ControllerConfig;
use dynfb_core::observer::Observer;
use dynfb_core::realtime::{
    AdaptiveExecutor, AdaptiveWorkload, ExecutionReport, ExecutorConfig, Instruments, ProfiledMutex,
};
use dynfb_core::trace::{RingBuffer, SwitchReason, TraceEvent, TracedEvent};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Two-policy toy workload: version 0 takes 16 lock pairs per item,
/// version 1 takes one — version 1 always has the lower overhead.
struct Toy {
    counter: ProfiledMutex<u64>,
    applied: AtomicU64,
}

impl Toy {
    fn new() -> Self {
        Toy { counter: ProfiledMutex::new(0), applied: AtomicU64::new(0) }
    }
}

/// Lock-free work every item does besides its locking. Without it an item
/// is almost all locking in both versions, so version 1's 16x fewer lock
/// pairs measure as only about 2x less overhead: a margin that uneven
/// scheduling of the workers on a loaded host can flip.
fn item_work() {
    let mut x = 0u64;
    for i in 0..300 {
        x = std::hint::black_box(x.wrapping_add(i));
    }
}

impl AdaptiveWorkload for Toy {
    fn num_versions(&self) -> usize {
        2
    }
    fn run_item(&self, version: usize, _item: usize, ins: &Instruments) {
        item_work();
        match version {
            0 => {
                for _ in 0..16 {
                    *self.counter.lock(ins) += 1;
                }
            }
            _ => {
                *self.counter.lock(ins) += 16;
            }
        }
        self.applied.fetch_add(1, Ordering::Relaxed);
    }
}

fn exec(workers: usize) -> AdaptiveExecutor {
    exec_intervals(workers, Duration::from_micros(200), Duration::from_millis(2))
}

/// An executor with the given target sampling and production intervals.
fn exec_intervals(workers: usize, sampling: Duration, production: Duration) -> AdaptiveExecutor {
    AdaptiveExecutor::new(ExecutorConfig {
        workers,
        controller: ControllerConfig {
            num_policies: 2,
            target_sampling: sampling,
            target_production: production,
            ..ControllerConfig::default()
        },
        ..ExecutorConfig::default()
    })
}

/// Every interval End closes the matching open Start (same phase kind and
/// policy), no Start opens inside another interval, and the first interval
/// is a sampling one.
fn assert_intervals_nest(events: &[TracedEvent]) {
    let mut open: Option<(bool, usize)> = None;
    let mut first_start = None;
    for e in events {
        match e.event {
            TraceEvent::SamplingStart { policy, .. } => {
                assert_eq!(open, None, "nested interval start: {events:?}");
                open = Some((true, policy));
                first_start.get_or_insert((true, policy));
            }
            TraceEvent::ProductionStart { policy, .. } => {
                assert_eq!(open, None, "nested interval start: {events:?}");
                open = Some((false, policy));
                first_start.get_or_insert((false, policy));
            }
            TraceEvent::SamplingEnd { policy, .. } => {
                assert_eq!(open.take(), Some((true, policy)), "{events:?}");
            }
            TraceEvent::ProductionEnd { policy, .. } => {
                assert_eq!(open.take(), Some((false, policy)), "{events:?}");
            }
            _ => {}
        }
    }
    assert!(matches!(first_start, Some((true, _))), "a run begins by sampling: {first_start:?}");
}

/// The non-partial End events agree 1:1 with the report's phase records.
/// Partial Ends are intervals a quarantine cut short, which the report does
/// not list; unless `allow_partial` is set, there must be none. Returns how
/// many End events there are in all.
fn assert_ends_match_the_report(
    events: &[TracedEvent],
    report: &ExecutionReport,
    allow_partial: bool,
) -> usize {
    let ends: Vec<&TracedEvent> = events
        .iter()
        .filter(|e| {
            matches!(e.event, TraceEvent::SamplingEnd { .. } | TraceEvent::ProductionEnd { .. })
        })
        .collect();
    let complete: Vec<&TracedEvent> = ends
        .iter()
        .copied()
        .filter(|e| {
            !matches!(
                e.event,
                TraceEvent::SamplingEnd { partial: true, .. }
                    | TraceEvent::ProductionEnd { partial: true, .. }
            )
        })
        .collect();
    if !allow_partial {
        assert_eq!(complete.len(), ends.len(), "unexpected partial End: {events:?}");
    }
    assert_eq!(complete.len(), report.trace.len(), "{events:?}\nvs {:?}", report.trace);
    for (e, r) in complete.iter().zip(&report.trace) {
        assert_eq!(e.at, r.at);
        match e.event {
            TraceEvent::SamplingEnd { policy, overhead, actual, .. } => {
                assert!(r.phase.is_sampling());
                assert_eq!((policy, overhead, actual), (r.policy, r.overhead, r.actual));
            }
            TraceEvent::ProductionEnd { policy, overhead, actual, .. } => {
                assert!(r.phase.is_production());
                assert_eq!((policy, overhead, actual), (r.policy, r.overhead, r.actual));
            }
            _ => unreachable!(),
        }
    }
    ends.len()
}

/// Full lifecycle: construct, run to completion, inspect the report.
#[test]
fn lifecycle_runs_to_completion_and_reports() {
    let w = Toy::new();
    let report = exec(3).run(&w, 10_000).expect("no panics");
    assert_eq!(report.items_processed, 10_000);
    assert_eq!(w.applied.load(Ordering::Relaxed), 10_000);
    assert_eq!(w.counter.into_inner(), 10_000 * 16);
    assert!(report.elapsed > Duration::ZERO);
    assert!(report.counters.acquires >= 10_000, "{:?}", report.counters);
    assert!(report.quarantined.is_empty());
    assert_eq!(report.panics, 0);
    // Interval timestamps in the phase trace are monotone.
    for w in report.trace.windows(2) {
        assert!(w[1].at >= w[0].at, "{:?}", report.trace);
    }
}

/// `last_production_policy` is `None` until a production interval has
/// completed, then names the policy of the most recent one.
#[test]
fn last_production_policy_reflects_the_trace() {
    // A handful of items finishes long before the first sampling interval
    // expires: no production phase can have completed.
    let w = Toy::new();
    let report = exec(2).run(&w, 10).expect("no panics");
    assert_eq!(report.last_production_policy(), None, "{:?}", report.trace);

    // A long run completes production intervals, and the toy workload's
    // version 1 (16× fewer lock pairs) must hold the most recent one. It
    // samples for 10 ms, not 200 µs: on a loaded host the workers may
    // barely run during a short interval, which then reads as almost no
    // overhead and wins the comparison. Production is kept short so that
    // the run still completes several sampling rounds.
    let w = Toy::new();
    let report = exec_intervals(2, Duration::from_millis(10), Duration::from_millis(20))
        .run(&w, 300_000)
        .expect("no panics");
    assert_eq!(report.last_production_policy(), Some(1), "{:?}", report.trace);
    let last_production = report
        .trace
        .iter()
        .rev()
        .find(|r| r.phase.is_production())
        .expect("production interval completed");
    assert_eq!(Some(last_production.policy), report.last_production_policy());
}

/// Trace-event stream: bracketed by RunStart/RunEnd, monotone timestamps,
/// interval Start/End pairs that nest correctly, End events agreeing 1:1
/// with the report's phase records, and a barrier rendezvous (of at most
/// `workers` workers) behind every completed interval.
#[test]
fn trace_events_are_ordered_and_consistent_with_the_report() {
    let workers = 2;
    let w = Toy::new();
    let mut ring = RingBuffer::new(1 << 16);
    let report = exec(workers).run_flight_recorded(&w, 150_000, &mut ring).expect("no panics");
    assert_eq!(ring.dropped(), 0);
    let events: Vec<TracedEvent> = ring.into_vec();

    // Bracketing and monotone wall-clock offsets.
    assert!(
        matches!(
            events.first().map(|e| &e.event),
            Some(TraceEvent::RunStart { policies: 2, workers: 2 })
        ),
        "{events:?}"
    );
    assert!(matches!(events.last().map(|e| &e.event), Some(TraceEvent::RunEnd)), "{events:?}");
    for w in events.windows(2) {
        assert!(w[1].at >= w[0].at, "{:?} then {:?}", w[0], w[1]);
    }

    assert_intervals_nest(&events);
    let ends = assert_ends_match_the_report(&events, &report, false);
    assert!(ends > 0, "long run must complete intervals");

    // Every completed interval was applied at a barrier rendezvous of
    // between 1 and `workers` workers (exited workers deregister).
    let syncs: Vec<usize> = events
        .iter()
        .filter_map(|e| match e.event {
            TraceEvent::BarrierSync { arrived } => Some(arrived),
            _ => None,
        })
        .collect();
    assert_eq!(syncs.len(), ends, "{events:?}");
    assert!(syncs.iter().all(|&a| a >= 1 && a <= workers), "{syncs:?}");
}

/// The realtime journal mirrors the trace: every journaled switch lines
/// up with a `PolicySwitch` trace event (same order, policies, reason,
/// timestamp), and `strip_wall_clock` quarantines the one nondeterministic
/// field — the wall-clock offset — from the NDJSON rendering.
#[test]
fn journal_mirrors_the_trace_and_wall_clock_strips_cleanly() {
    use dynfb_core::journal::{decision_ndjson, strip_wall_clock, DecisionKind, JournalBuffer};

    let w = Toy::new();
    let mut ring = RingBuffer::new(1 << 16);
    let mut journal = JournalBuffer::new(1 << 16);
    exec(2).run_flight_recorded(&w, 150_000, (&mut ring, &mut journal)).expect("no panics");
    assert_eq!(journal.dropped(), 0);
    assert_eq!(ring.dropped(), 0);

    let records = journal.into_vec();
    assert!(!records.is_empty(), "a long adaptive run must decide");

    // Journal switches agree 1:1 with trace PolicySwitch events.
    let switches: Vec<_> =
        records.iter().filter(|r| matches!(r.kind, DecisionKind::Switch { .. })).collect();
    let traced: Vec<&TracedEvent> =
        ring.iter().filter(|e| matches!(e.event, TraceEvent::PolicySwitch { .. })).collect();
    assert_eq!(switches.len(), traced.len());
    for (rec, ev) in switches.iter().zip(&traced) {
        assert_eq!(rec.at, ev.at);
        let DecisionKind::Switch { from, to, reason } = rec.kind else { unreachable!() };
        assert_eq!(
            ev.event,
            TraceEvent::PolicySwitch { from, to, reason },
            "journal {rec:?} disagrees with trace {ev:?}"
        );
    }
    // Evidence snapshots carry one entry per policy version.
    for rec in &records {
        assert_eq!(rec.evidence.policies.len(), 2, "{rec:?}");
    }

    // Wall-clock offsets are the only nondeterministic field; stripping
    // them zeroes every `at_ns` and leaves the rest of the bytes intact.
    let ndjson = decision_ndjson(&records);
    let stripped = strip_wall_clock(&ndjson);
    assert_eq!(stripped.lines().count(), records.len());
    for line in stripped.lines() {
        assert!(line.contains("\"at_ns\":0,"), "{line}");
    }
    assert_eq!(stripped, strip_wall_clock(&stripped), "stripping is idempotent");
}

/// A quarantined version shows up in the trace as a quarantine switch.
#[test]
fn quarantine_emits_a_policy_switch_event() {
    struct HalfBroken;
    impl AdaptiveWorkload for HalfBroken {
        fn num_versions(&self) -> usize {
            2
        }
        fn run_item(&self, version: usize, _item: usize, _ins: &Instruments) {
            assert_ne!(version, 0, "version 0 is broken");
        }
    }
    use dynfb_core::journal::{DecisionKind, JournalBuffer};

    // Keep the expected panics out of the test output.
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut ring = RingBuffer::new(1 << 14);
    let mut journal = JournalBuffer::new(1 << 14);
    let report = exec(2)
        .run_flight_recorded(&HalfBroken, 2_000, (&mut ring, &mut journal))
        .expect("version 1 survives");
    std::panic::set_hook(prev);
    assert_eq!(report.items_processed, 2_000);
    assert_eq!(report.quarantined, vec![0]);
    let quarantine = ring.iter().find(|e| {
        matches!(
            e.event,
            TraceEvent::PolicySwitch { from: 0, to: 1, reason: SwitchReason::Quarantine }
        )
    });
    let events: Vec<&TracedEvent> = ring.iter().collect();
    assert!(quarantine.is_some(), "{events:?}");
    // The journal records the same decision, with the quarantined policy's
    // health in the evidence snapshot.
    let journaled = journal.iter().find(|r| {
        matches!(r.kind, DecisionKind::Switch { from: 0, to: 1, reason: SwitchReason::Quarantine })
    });
    let journaled = journaled.unwrap_or_else(|| panic!("no quarantine decision journaled"));
    let broken = journaled.evidence.policies.iter().find(|p| p.policy == 0);
    assert_eq!(broken.map(|p| p.health), Some("quarantined"), "{journaled:?}");
}

/// A version panic goes through the same decision path as a completed
/// interval: the interrupted interval ends (partial), the quarantine switch
/// follows, and the next phase opens with a Start, so the timeline still
/// nests; the journal records the same switch the trace shows.
#[test]
fn quarantine_ends_the_interrupted_interval_and_opens_the_next() {
    struct HalfBroken;
    impl AdaptiveWorkload for HalfBroken {
        fn num_versions(&self) -> usize {
            2
        }
        fn run_item(&self, version: usize, _item: usize, _ins: &Instruments) {
            item_work();
            assert_ne!(version, 0, "version 0 is broken");
        }
    }
    use dynfb_core::journal::{DecisionKind, JournalBuffer};

    // Keep the expected panics out of the test output.
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut ring = RingBuffer::new(1 << 16);
    let mut journal = JournalBuffer::new(1 << 16);
    let report = exec(2)
        .run_flight_recorded(&HalfBroken, 20_000, (&mut ring, &mut journal))
        .expect("version 1 survives");
    std::panic::set_hook(prev);
    assert_eq!(report.items_processed, 20_000);
    assert_eq!((ring.dropped(), journal.dropped()), (0, 0));
    let events: Vec<TracedEvent> = ring.into_vec();

    // The quarantine switch sits between the interrupted interval's
    // partial End and the Start of the phase among the survivors, all at
    // one instant.
    let q = events
        .iter()
        .position(|e| {
            matches!(e.event, TraceEvent::PolicySwitch { reason: SwitchReason::Quarantine, .. })
        })
        .unwrap_or_else(|| panic!("no quarantine switch: {events:?}"));
    assert!(q > 0 && q + 1 < events.len(), "{events:?}");
    assert!(
        matches!(events[q - 1].event, TraceEvent::SamplingEnd { policy: 0, partial: true, .. }),
        "quarantine not preceded by the interrupted End: {:?}",
        events[q - 1]
    );
    assert_eq!(
        events[q].event,
        TraceEvent::PolicySwitch { from: 0, to: 1, reason: SwitchReason::Quarantine }
    );
    assert!(
        matches!(events[q + 1].event, TraceEvent::SamplingStart { policy: 1, .. }),
        "{:?}",
        events[q + 1]
    );
    assert!(events[q - 1].at == events[q].at && events[q].at == events[q + 1].at);

    assert_intervals_nest(&events);
    assert_ends_match_the_report(&events, &report, true);

    // Journal switches agree 1:1 with the trace's, quarantine included.
    let switches: Vec<(std::time::Duration, DecisionKind)> = journal
        .iter()
        .filter(|r| matches!(r.kind, DecisionKind::Switch { .. }))
        .map(|r| (r.at, r.kind))
        .collect();
    let traced: Vec<(std::time::Duration, DecisionKind)> = events
        .iter()
        .filter_map(|e| match e.event {
            TraceEvent::PolicySwitch { from, to, reason } => {
                Some((e.at, DecisionKind::Switch { from, to, reason }))
            }
            _ => None,
        })
        .collect();
    assert_eq!(switches, traced);
}
