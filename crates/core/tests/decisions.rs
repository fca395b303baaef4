//! The one decision path: `Controller::close_interval` picks every
//! `SwitchReason`, and `journal::record_decision` writes each decision to
//! the trace and the journal. Driving the close step through every reason
//! checks that the two channels agree on each decision: same timestamp,
//! same policies, same reason.

use dynfb_core::controller::{
    CloseFlags, Controller, ControllerConfig, Decision, EarlyCutoff as Cutoff, RehabPolicy,
    ResampleTrigger,
};
use dynfb_core::detector::DetectorConfig;
use dynfb_core::journal::{record_decision, DecisionKind, EvidenceTracker, JournalBuffer};
use dynfb_core::overhead::OverheadSample;
use dynfb_core::trace::{RingBuffer, SwitchReason, TraceEvent};
use std::time::Duration;

const INTERVAL: Duration = Duration::from_millis(1);

/// Both observation channels, written through the shared emitter at a
/// clock that advances one interval per decision.
struct Recorder {
    ring: RingBuffer,
    journal: JournalBuffer,
    now: Duration,
}

impl Recorder {
    fn record(&mut self, ctl: &Controller, tracker: &mut EvidenceTracker, d: &Decision) {
        self.now += INTERVAL;
        let mut obs = (&mut self.ring, &mut self.journal);
        record_decision(&mut obs, Some(tracker), ctl, self.now, d);
    }
}

/// One controller under test with its evidence tracker.
struct Driven {
    ctl: Controller,
    tracker: EvidenceTracker,
}

impl Driven {
    fn open(cfg: ControllerConfig, rec: &mut Recorder) -> Self {
        let mut ctl = Controller::new(cfg);
        let mut tracker = EvidenceTracker::new(ctl.config().num_policies);
        let open = ctl.open_section();
        assert_eq!(open.reason, None, "opening a section is not a switch");
        rec.record(&ctl, &mut tracker, &open);
        Driven { ctl, tracker }
    }

    fn close(&mut self, rec: &mut Recorder, sample: OverheadSample, flags: CloseFlags) -> Decision {
        let d = self.ctl.close_interval(sample, INTERVAL, flags);
        rec.record(&self.ctl, &mut self.tracker, &d);
        d
    }

    /// Close with a plain measurement and return the decision's reason.
    fn measure(&mut self, rec: &mut Recorder, overhead: f64) -> Option<SwitchReason> {
        self.close(rec, sample(overhead), CloseFlags::default()).reason
    }
}

fn sample(overhead: f64) -> OverheadSample {
    OverheadSample::from_fraction(overhead, INTERVAL)
}

#[test]
fn every_switch_reason_reaches_trace_and_journal_identically() {
    use SwitchReason::*;
    let mut rec = Recorder {
        ring: RingBuffer::new(1 << 12),
        journal: JournalBuffer::new(1 << 12),
        now: Duration::ZERO,
    };

    // Two policies, event-driven resampling, one-phase rehabilitation
    // backoff.
    let mut d = Driven::open(
        ControllerConfig {
            num_policies: 2,
            target_sampling: INTERVAL,
            trigger: ResampleTrigger::EventDriven {
                detector: DetectorConfig::Cusum { drift: 0.0, threshold: 0.05 },
                min_spacing: 1,
                max_quiescence: Duration::from_millis(100),
            },
            rehab: RehabPolicy::Backoff { base: 1, max: 1, seed: 0 },
            ..ControllerConfig::default()
        },
        &mut rec,
    );
    assert_eq!(d.measure(&mut rec, 0.3), Some(NextSample));
    assert_eq!(d.measure(&mut rec, 0.1), Some(MeasuredBest));
    // The watchdog outside a sampling phase decides nothing.
    let idle = d.close(
        &mut rec,
        sample(0.1),
        CloseFlags { watchdog_abort: true, ..CloseFlags::default() },
    );
    assert_eq!((idle.reason, idle.closed, idle.opened()), (None, None, false));
    let quiet = d.close(&mut rec, sample(0.1), CloseFlags::default());
    assert_eq!(quiet.reason, Some(Resample));
    assert!(quiet.quiescent && !quiet.alarmed());

    // An unusable interval records nothing and falls back.
    let unusable = CloseFlags { unusable: true, ..CloseFlags::default() };
    let crash = d.close(&mut rec, sample(0.3), unusable);
    assert_eq!(crash.reason, Some(CrashFallback));
    assert!(!crash.closed.expect("interval closed").measured);
    assert_eq!(d.measure(&mut rec, 0.1), Some(MeasuredBest));

    // A change-point alarm ends production early.
    assert!((0..100).any(|_| d.ctl.observe_production_signal(0.9)), "the chart must alarm");
    let alarm = d.close(&mut rec, sample(0.1), CloseFlags::default());
    assert_eq!(alarm.reason, Some(ChangePoint));
    assert!(alarm.alarmed() && !alarm.quiescent);

    // The watchdog aborts the stuck sampling interval, which ignores the
    // unusable flag: it feeds no measurement.
    let abort = CloseFlags { watchdog_abort: true, unusable: true, ..CloseFlags::default() };
    let aborted = d.close(&mut rec, sample(0.3), abort);
    assert_eq!(aborted.reason, Some(WatchdogAbort));
    assert!(aborted.closed.expect("interval closed").partial);
    assert_eq!(d.measure(&mut rec, 0.1), Some(Resample));

    // A hard failure of the running policy quarantines it and cuts its
    // interval short.
    let hard = CloseFlags { hard_failure: Some(0), ..CloseFlags::default() };
    let quarantined = d.close(&mut rec, sample(0.3), hard);
    assert_eq!(quarantined.switch(), Some((0, 1, Quarantine)));
    assert!(quarantined.closed.expect("interval closed").partial && quarantined.opened());

    // After the backoff the quarantined policy is re-probed; a clean probe
    // that measures best is switched to as rehabilitated.
    assert_eq!(d.measure(&mut rec, 0.5), Some(MeasuredBest));
    assert_eq!(d.measure(&mut rec, 0.5), Some(Resample));
    assert_eq!(d.ctl.probing(), Some(0));
    assert_eq!(d.measure(&mut rec, 0.5), Some(NextSample));
    assert_eq!(
        d.close(&mut rec, sample(0.1), CloseFlags::default()).switch(),
        Some((0, 0, Rehabilitated))
    );

    // A negligible locking overhead on Original cuts sampling short.
    let mut cut = Driven::open(
        ControllerConfig {
            num_policies: 2,
            early_cutoff: Some(Cutoff::default()),
            ..ControllerConfig::default()
        },
        &mut rec,
    );
    let waiting_only = OverheadSample::new(Duration::ZERO, INTERVAL / 4, INTERVAL);
    assert_eq!(cut.close(&mut rec, waiting_only, CloseFlags::default()).reason, Some(EarlyCutoff));

    // Every switch that closed an interval sits between that interval's
    // End and the next interval's Start.
    let events: Vec<&TraceEvent> = rec.ring.iter().map(|e| &e.event).collect();
    for (i, e) in events.iter().enumerate() {
        if matches!(e, TraceEvent::PolicySwitch { .. }) {
            assert!(
                matches!(
                    events[i - 1],
                    TraceEvent::SamplingEnd { .. } | TraceEvent::ProductionEnd { .. }
                ),
                "{events:?}"
            );
            assert!(
                matches!(
                    events[i + 1],
                    TraceEvent::SamplingStart { .. } | TraceEvent::ProductionStart { .. }
                ),
                "{events:?}"
            );
        }
    }

    // Project the trace onto the journal's vocabulary: the two channels
    // must agree record for record, timestamps included.
    let traced: Vec<(Duration, DecisionKind)> = rec
        .ring
        .iter()
        .filter_map(|e| {
            let kind = match e.event {
                TraceEvent::PolicySwitch { from, to, reason } => {
                    DecisionKind::Switch { from, to, reason }
                }
                TraceEvent::ChangePointAlarm { policy, .. } => DecisionKind::Alarm { policy },
                TraceEvent::PolicyHealth { policy, state } => {
                    DecisionKind::Health { policy, state }
                }
                _ => return None,
            };
            Some((e.at, kind))
        })
        .collect();
    let journaled: Vec<(Duration, DecisionKind)> =
        rec.journal.iter().map(|r| (r.at, r.kind)).collect();
    assert_eq!(traced, journaled);

    let reasons: Vec<SwitchReason> = journaled
        .iter()
        .filter_map(|(_, k)| match *k {
            DecisionKind::Switch { reason, .. } => Some(reason),
            _ => None,
        })
        .collect();
    for reason in [
        MeasuredBest,
        NextSample,
        Resample,
        EarlyCutoff,
        WatchdogAbort,
        CrashFallback,
        ChangePoint,
        Rehabilitated,
        Quarantine,
    ] {
        assert!(reasons.contains(&reason), "{reason} never decided: {reasons:?}");
    }
}
