//! Integration tests for the simulator's trace layer and the watchdog's
//! pre-measurement fallback, plus the sim-vs-realtime measurement parity
//! contract.

use dynfb_core::controller::{ControllerConfig, PolicyOrdering};
use dynfb_core::observer::Observer;
use dynfb_core::overhead::OverheadCounters;
use dynfb_core::realtime::InstrumentCosts;
use dynfb_core::trace::{chrome_trace_json, RingBuffer, TraceEvent, TracedEvent};
use dynfb_sim::{
    run_app, run_app_flight_recorded, FaultKind, FaultPlan, LockId, Machine, OpSink, PlanEntry,
    ProcStats, RunConfig, SimApp, Window,
};
use std::time::Duration;

/// One parallel section, two versions with different locking grain:
/// version 0 ("fine") takes 4 lock pairs per iteration, version 1
/// ("coarse") takes 1.
#[derive(Default)]
struct Mini {
    locks: Vec<LockId>,
}
impl SimApp for Mini {
    fn name(&self) -> &str {
        "mini"
    }
    fn setup(&mut self, machine: &mut Machine) {
        let first = machine.add_locks(16);
        self.locks = (0..16).map(|i| first.offset(i)).collect();
    }
    fn plan(&self) -> Vec<PlanEntry> {
        vec![PlanEntry::parallel("work")]
    }
    fn versions(&self, _s: &str) -> Vec<String> {
        vec!["fine".to_string(), "coarse".to_string()]
    }
    fn emit_serial(&mut self, _s: &str, _ops: &mut OpSink) {}
    fn begin_parallel(&mut self, _s: &str) -> usize {
        600
    }
    fn emit_iteration(&mut self, _s: &str, version: usize, iter: usize, ops: &mut OpSink) {
        let lock = self.locks[iter % 16];
        let n = if version == 0 { 4 } else { 1 };
        for _ in 0..n {
            ops.acquire(lock);
            ops.compute(Duration::from_micros(10 / n as u64));
            ops.release(lock);
        }
    }
}

fn ctl() -> ControllerConfig {
    ControllerConfig {
        target_sampling: Duration::from_micros(200),
        target_production: Duration::from_millis(2),
        ..ControllerConfig::default()
    }
}

fn frozen_clock() -> FaultPlan {
    FaultPlan::new(7).with_event(Window::always(), FaultKind::TimerDrift { ppm: -1_000_000 })
}

fn traced(cfg: &RunConfig) -> (dynfb_sim::AppReport, Vec<TracedEvent>) {
    let mut ring = RingBuffer::new(1 << 16);
    let report = run_app_flight_recorded(Mini::default(), cfg, &mut ring, &mut (), &mut ())
        .expect("run succeeds");
    assert_eq!(ring.dropped(), 0, "ring buffer truncated the trace");
    (report, ring.into_events())
}

/// Regression (paper §3 fallback): the watchdog fires while the very first
/// sampling interval is still stuck, so *no* measurement exists. The
/// controller must degrade to the paper's static policy ordering — policy 0
/// (Original), the safest — not panic and not keep whatever policy
/// happened to be mid-sample.
#[test]
fn watchdog_abort_before_any_measurement_falls_back_to_policy_zero() {
    for ordering in [PolicyOrdering::InOrder, PolicyOrdering::ExtremesFirst] {
        let cfg = RunConfig::dynamic(4, ControllerConfig { ordering, ..ctl() })
            .with_faults(frozen_clock())
            .with_watchdog(3);
        let (report, events) = traced(&cfg);
        let work = report.section("work").next().expect("section ran");
        assert_eq!(work.iterations, 600);
        let production =
            work.records.iter().find(|r| r.phase.is_production()).unwrap_or_else(|| {
                panic!("{ordering:?}: no production record: {:?}", work.records)
            });
        // ExtremesFirst samples the aggressive policy (1) first, so landing
        // on 0 here proves the fallback is the safest policy, not the
        // arbitrary policy that was being sampled when the watchdog fired.
        assert_eq!(production.version, 0, "{ordering:?}: {:?}", work.records);
        // The trace shows the same story: a watchdog-abort switch into a
        // production phase running policy 0.
        let abort = events
            .iter()
            .find_map(|e| match e.event {
                TraceEvent::PolicySwitch {
                    to,
                    reason: dynfb_core::trace::SwitchReason::WatchdogAbort,
                    ..
                } => Some(to),
                _ => None,
            })
            .unwrap_or_else(|| panic!("{ordering:?}: no watchdog-abort switch in {events:?}"));
        assert_eq!(abort, 0, "{ordering:?}");
    }
}

/// The trace must tell exactly the same story as the section records: one
/// interval-end event per record, matching phase kind, overhead, virtual
/// timestamp, and partial flag.
#[test]
fn trace_interval_ends_match_section_records_one_to_one() {
    let cfg = RunConfig::dynamic(4, ctl());
    let (report, events) = traced(&cfg);
    let records: Vec<_> = report.section("work").flat_map(|e| e.records.iter()).collect();
    let ends: Vec<_> = events
        .iter()
        .filter(|e| {
            matches!(e.event, TraceEvent::SamplingEnd { .. } | TraceEvent::ProductionEnd { .. })
        })
        .collect();
    assert_eq!(records.len(), ends.len(), "records: {records:?}\nevents: {events:?}");
    assert!(!records.is_empty(), "dynamic run must complete intervals");
    for (r, e) in records.iter().zip(&ends) {
        assert_eq!(e.at, r.at.as_duration());
        match e.event {
            TraceEvent::SamplingEnd { policy, overhead, actual, partial } => {
                assert!(r.phase.is_sampling());
                assert_eq!(policy, r.version);
                assert_eq!(overhead, r.overhead);
                assert_eq!(actual, r.actual);
                assert_eq!(partial, r.partial);
            }
            TraceEvent::ProductionEnd { policy, overhead, actual, partial } => {
                assert!(r.phase.is_production());
                assert_eq!(policy, r.version);
                assert_eq!(overhead, r.overhead);
                assert_eq!(actual, r.actual);
                assert_eq!(partial, r.partial);
            }
            _ => unreachable!(),
        }
    }
    // Synchronous mode: every completed interval was applied at a barrier
    // rendezvous of all processors (the final partial one was not).
    let syncs = events
        .iter()
        .filter(|e| matches!(e.event, TraceEvent::BarrierSync { arrived } if arrived == 4))
        .count();
    let completed = records.iter().filter(|r| !r.partial).count();
    assert_eq!(syncs, completed, "{events:?}");
}

/// Virtual-time stamping makes the trace fully deterministic: two
/// identical runs produce identical event streams and identical exported
/// JSON, byte for byte. (Cross-worker-count identity of the bench harness
/// rides on this and is asserted in dynfb-bench and in CI.)
#[test]
fn traces_are_byte_deterministic() {
    let cfg =
        RunConfig::dynamic(4, ctl()).with_faults(FaultPlan::new(3).with_event(
            Window::always(),
            FaultKind::TimerJitter { max: Duration::from_micros(30) },
        ));
    let (report_a, events_a) = traced(&cfg);
    let (report_b, events_b) = traced(&cfg);
    assert_eq!(report_a.sections, report_b.sections);
    assert_eq!(events_a, events_b);
    assert_eq!(chrome_trace_json("mini", &events_a), chrome_trace_json("mini", &events_b));
    // A fault plan announces itself at the head of the trace.
    assert!(matches!(
        events_a.first().map(|e| &e.event),
        Some(TraceEvent::FaultPlanActivated { seed: 3, events: 1 })
    ));
    // Timestamps never go backwards (sync mode stamps with virtual time).
    for w in events_a.windows(2) {
        assert!(w[1].at >= w[0].at, "{events_a:?}");
    }
}

/// The untraced entry point is unaffected by the trace layer: it produces
/// the same report as a traced run of the same config.
#[test]
fn traced_and_untraced_runs_simulate_identically() {
    let cfg = RunConfig::dynamic(4, ctl());
    let plain = run_app(Mini::default(), &cfg).expect("runs");
    let (traced_report, events) = traced(&cfg);
    assert_eq!(plain.stats, traced_report.stats);
    assert_eq!(plain.sections, traced_report.sections);
    assert!(!events.is_empty());
}

/// Sim-vs-realtime measurement parity (the §4.3 contract): both drivers
/// normalize an interval's overhead by the *measured* elapsed interval —
/// never the configured target — with execution = elapsed × workers.
/// Equivalent inputs must produce identical samples on both sides.
#[test]
fn realtime_accounting_matches_sim_overhead_semantics() {
    let costs = InstrumentCosts {
        pair_cost: Duration::from_nanos(200),
        attempt_cost: Duration::from_nanos(100),
    };
    let workers = 4u32;
    // Configured target: 200µs. The interval actually ran 3× longer — the
    // normalization must use the measured 600µs, not the target.
    let target = Duration::from_micros(200);
    let actual = 3 * target;
    let (acquires, failed) = (500u64, 120u64);

    // Sim side: the machine accounts lock/wait *time* directly; per-proc
    // busy time over the interval is the measured elapsed interval.
    let sim_interval = ProcStats {
        lock_time: costs.pair_cost * acquires as u32,
        wait_time: costs.attempt_cost * failed as u32,
        compute: actual * workers
            - costs.pair_cost * acquires as u32
            - costs.attempt_cost * failed as u32,
        acquires,
        failed_attempts: failed,
        ..ProcStats::default()
    };
    let sim_sample = sim_interval.overhead_sample();

    // Realtime side: counters × calibrated costs, normalized by measured
    // elapsed × active workers.
    let delta = OverheadCounters { acquires, failed_attempts: failed };
    let rt_sample = costs.interval_sample(delta, actual, workers as usize);

    assert_eq!(rt_sample.locking, sim_sample.locking);
    assert_eq!(rt_sample.waiting, sim_sample.waiting);
    assert_eq!(rt_sample.execution, sim_sample.execution);
    assert!((rt_sample.total_overhead() - sim_sample.total_overhead()).abs() < 1e-12);

    // Divergence guard: normalizing by the configured target (the old
    // behavior's failure mode) would triple the reported overhead.
    let wrong = costs.interval_sample(delta, target, workers as usize);
    assert!((wrong.total_overhead() - 3.0 * rt_sample.total_overhead()).abs() < 1e-9);
}
