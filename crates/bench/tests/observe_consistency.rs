//! End-to-end oracle for the three observation channels: on every chaos
//! cell, run once with trace, journal and metrics attached, the trace must
//! agree with the chaos harness, the per-lock sums with the machine-wide
//! stats, and the journal with the trace, record for record. The report
//! and every export must be byte-identical for every engine worker count;
//! attaching all three channels to one run must record exactly what each
//! channel records alone; and each oracle must catch a doctored cell.

use dynfb_bench::chaos::{
    self, scenarios, ChaosApp, ChaosConfig, ChaosJobResult, ChaosMode, Scenario,
};
use dynfb_bench::engine::Engine;
use dynfb_bench::observe::{
    check_scenario, observe_report_with, run_observed, ObservedCell, ScenarioCheck,
};
use dynfb_core::journal::{decision_ndjson, DecisionKind, JournalBuffer};
use dynfb_core::metrics::MetricsRegistry;
use dynfb_core::observer::Observer;
use dynfb_core::trace::{RingBuffer, SwitchReason, TraceEvent};
use dynfb_sim::run_app_flight_recorded;
use std::time::Duration;

fn cfg() -> ChaosConfig {
    ChaosConfig { seed: 11, iters: 900, procs: 4 }
}

#[test]
fn every_oracle_holds_on_every_scenario() {
    let cfg = cfg();
    let report = observe_report_with(&cfg, &Engine::new(1), None);
    assert!(report.consistent, "{}{}{}", report.trace, report.profile, report.explain);
    // Per scenario: one Chrome trace, one profile JSON, one Prometheus
    // text and two NDJSON journals (dynamic and event-driven).
    assert_eq!(report.exports.len(), 5 * scenarios(&cfg).len());
    for (name, contents) in &report.exports {
        if name.starts_with("trace/") {
            assert!(contents.starts_with('{') && contents.ends_with("]}\n"), "{name}");
            assert!(contents.contains("\"traceEvents\""), "{name}");
        } else if name.ends_with(".json") {
            assert!(contents.starts_with("{\"scenario\":"), "{name}: {contents}");
            assert!(contents.ends_with("]}\n"), "{name}");
        } else if name.ends_with(".prom") {
            assert!(contents.contains("dynfb_lock_acquires_total"), "{name}");
        } else {
            assert!(name.starts_with("explain/") && name.ends_with(".ndjson"), "{name}");
            assert!(!contents.is_empty(), "{name}: adaptive cells decide at least once");
            for line in contents.lines() {
                assert!(line.starts_with("{\"seq\":") && line.ends_with('}'), "{name}: {line}");
            }
        }
    }
}

#[test]
fn report_and_exports_are_byte_identical_across_worker_counts() {
    let cfg = cfg();
    let serial = observe_report_with(&cfg, &Engine::new(1), None);
    let parallel = observe_report_with(&cfg, &Engine::new(4), None);
    assert_eq!(serial.trace, parallel.trace);
    assert_eq!(serial.profile, parallel.profile);
    assert_eq!(serial.explain, parallel.explain);
    assert_eq!(serial.exports, parallel.exports);
    assert_eq!(serial.consistent, parallel.consistent);
}

#[test]
fn all_channels_together_record_what_each_records_alone() {
    // The merged harness reads all three oracles off one run, which is
    // sound only if no channel changes what another records. Compare the
    // fully observed cell with ring-only, ring+journal and registry-only
    // runs of the same cell. Journals compare as NDJSON, the bytes CI
    // diffs (unseeded detector baselines are NaN, rendered as `null`).
    let cfg = cfg();
    for scenario in scenarios(&cfg) {
        for mode in ChaosMode::all() {
            let at = format!("{} / {mode:?}", scenario.name);
            let run = chaos::mode_run_config(&cfg, &scenario, mode);
            let app = || ChaosApp::new(cfg.iters);
            let result = |r| chaos::job_result(&scenario, mode, &r);
            let full = run_observed(&cfg, &scenario, mode);
            assert_eq!((full.trace_dropped, full.journal_dropped), (0, 0), "{at}");
            // Static runs emit no events without a fault plan; adaptive
            // runs always do.
            assert!(matches!(mode, ChaosMode::Static(_)) || !full.events.is_empty(), "{at}");

            let mut ring = RingBuffer::new(1 << 16);
            let r = run_app_flight_recorded(app(), &run, &mut ring, &mut (), &mut ());
            assert_eq!(result(r.expect("ring-only run")), full.result, "{at}");
            assert_eq!(ring.into_vec(), full.events, "{at}: ring only");

            let mut ring = RingBuffer::new(1 << 16);
            let mut journal = JournalBuffer::new(1 << 16);
            let r = run_app_flight_recorded(app(), &run, &mut ring, &mut journal, &mut ());
            assert_eq!(result(r.expect("ring+journal run")), full.result, "{at}");
            assert_eq!(ring.into_vec(), full.events, "{at}: ring+journal");
            assert_eq!(
                decision_ndjson(&journal.into_vec()),
                decision_ndjson(&full.records),
                "{at}: ring+journal"
            );

            let mut registry = MetricsRegistry::new();
            let r = run_app_flight_recorded(app(), &run, &mut (), &mut (), &mut registry);
            assert_eq!(result(r.expect("registry-only run")), full.result, "{at}");
            assert_eq!(registry, full.registry, "{at}: registry only");
        }
    }
}

#[test]
fn saturated_trace_ring_does_not_lose_lock_metrics() {
    // Attach a one-slot ring buffer (guaranteed to drop trace events) and
    // the metrics registry to the same dynamic run: the profile must come
    // out identical to a metrics-only run, with exact per-lock totals —
    // metrics accumulate directly and never ride the droppable ring.
    let cfg = cfg();
    let scenario = &scenarios(&cfg)[1]; // lock-storm: heavy contention
    let run = chaos::mode_run_config(&cfg, scenario, ChaosMode::Dynamic);

    let mut ring = RingBuffer::new(1);
    let mut observed = MetricsRegistry::new();
    let observed_report =
        run_app_flight_recorded(ChaosApp::new(cfg.iters), &run, &mut ring, &mut (), &mut observed)
            .expect("observed run");
    assert!(ring.dropped() > 0, "a one-slot ring must saturate");

    let mut metered = MetricsRegistry::new();
    let metered_report =
        run_app_flight_recorded(ChaosApp::new(cfg.iters), &run, &mut (), &mut (), &mut metered)
            .expect("metered run");

    // The drops themselves are accounted: the observed run publishes the
    // exact drop total as a loss counter, which is the one difference a
    // saturated ring is allowed to make.
    assert_eq!(observed.counter_value("trace_dropped"), ring.dropped());
    assert_eq!(metered.counter_value("trace_dropped"), 0);
    Observer::counter(&mut metered, "trace_dropped", ring.dropped());
    assert_eq!(observed, metered, "the saturated ring changed the profile");
    assert_eq!(observed_report.stats, metered_report.stats);
    let totals = observed_report.stats.totals();
    let sums = observed.totals();
    assert_eq!(sums.acquires, totals.acquires);
    assert_eq!(sums.failed_attempts, totals.failed_attempts);
    assert_eq!(sums.locking, totals.lock_time);
    assert_eq!(sums.waiting, totals.wait_time);
    assert_eq!(sums.releases, sums.acquires);
}

/// The test config's `slowdown` scenario: its dynamic cell switches once
/// after onset, so every oracle has something to compare.
fn slowdown(cfg: &ChaosConfig) -> Scenario {
    let scenario = scenarios(cfg).swap_remove(2);
    assert_eq!(scenario.name, "slowdown");
    scenario
}

/// `[trace, profile, explain]` verdicts of `check_scenario`.
fn verdicts(
    cfg: &ChaosConfig,
    plain: Vec<ChaosJobResult>,
    observed: &[ObservedCell],
) -> ([bool; 3], ScenarioCheck) {
    let check = check_scenario(cfg, &slowdown(cfg), plain, observed);
    ([check.trace_ok, check.profile_ok, check.explain_ok], check)
}

fn dynamic(observed: &mut [ObservedCell]) -> &mut ObservedCell {
    observed.iter_mut().find(|c| c.mode == ChaosMode::Dynamic).expect("dynamic cell")
}

#[test]
fn each_oracle_flags_a_doctored_cell() {
    let cfg = cfg();
    let scenario = slowdown(&cfg);
    let modes = ChaosMode::all();
    let plain: Vec<_> = modes.iter().map(|&m| chaos::run_mode(&cfg, &scenario, m)).collect();
    let observed: Vec<_> = modes.iter().map(|&m| run_observed(&cfg, &scenario, m)).collect();
    assert_eq!(verdicts(&cfg, plain.clone(), &observed).0, [true; 3], "undoctored cells pass");

    // Trace: drop the ProductionEnd the harness measures adaptation
    // latency at, so the reconstructed latency moves.
    let mut doctored = observed.clone();
    let cell = dynamic(&mut doctored);
    let latency = cell.result.adaptation.as_ref().and_then(|a| a.latency);
    let at = scenario.onset + latency.expect("slowdown adapts after onset");
    let i = cell
        .events
        .iter()
        .position(|e| e.at == at && matches!(e.event, TraceEvent::ProductionEnd { .. }))
        .expect("latency is measured at a production end");
    cell.events.remove(i);
    let (v, check) = verdicts(&cfg, plain.clone(), &doctored);
    assert_eq!(v, [false, true, true], "{}", check.trace);
    assert!(check.trace.contains("| NO "), "{}", check.trace);

    // Profile: one acquire the machine never made.
    let mut doctored = observed.clone();
    Observer::lock_acquired(&mut doctored[0].registry, 0, Duration::ZERO, Duration::ZERO, 0);
    let (v, check) = verdicts(&cfg, plain.clone(), &doctored);
    assert_eq!(v, [true, false, true], "{}", check.profile);
    assert!(check.profile.contains("attribution lost lock events"), "{}", check.profile);

    // Journal: one switch journaled with a reason the trace does not carry.
    let mut doctored = observed.clone();
    let rec = dynamic(&mut doctored)
        .records
        .iter_mut()
        .find(|r| matches!(r.kind, DecisionKind::Switch { .. }))
        .expect("the dynamic cell switches");
    if let DecisionKind::Switch { reason, .. } = &mut rec.kind {
        *reason = if *reason == SwitchReason::Resample {
            SwitchReason::MeasuredBest
        } else {
            SwitchReason::Resample
        };
    }
    let (v, check) = verdicts(&cfg, plain.clone(), &doctored);
    assert_eq!(v, [true, true, false], "{}", check.explain);
    assert!(check.explain.contains("MISMATCH: record"), "{}", check.explain);

    // No perturbation: a static cell's observed run ends 1 ns later than
    // its plain run.
    let mut doctored = observed;
    doctored[0].result.outcome.elapsed += Duration::from_nanos(1);
    let (v, check) = verdicts(&cfg, plain, &doctored);
    assert_eq!(v, [false, true, true], "{}", check.trace);
    assert!(check.trace.contains("observed `original` run differs"), "{}", check.trace);
}
