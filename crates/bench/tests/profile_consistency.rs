//! End-to-end consistency oracle for the metrics subsystem: per-lock
//! profile sums must equal machine-wide stats aggregates exactly on every
//! fault scenario, the whole report must be byte-identical for every
//! engine worker count, and a saturated trace ring buffer must not cost a
//! single lock event (metrics do not route through the ring).

use dynfb_bench::chaos::{self, scenarios, ChaosApp, ChaosConfig, ChaosMode};
use dynfb_bench::engine::Engine;
use dynfb_bench::profile::{oracle_holds, profile_report_with, run_mode_metered};
use dynfb_core::journal::NullJournal;
use dynfb_core::metrics::MetricsRegistry;
use dynfb_core::trace::{NullSink, RingBuffer};
use dynfb_sim::run_app_flight_recorded;

fn cfg() -> ChaosConfig {
    ChaosConfig { seed: 11, iters: 900, procs: 4 }
}

#[test]
fn profile_agrees_with_machine_aggregates_on_every_scenario() {
    let cfg = cfg();
    let report = profile_report_with(&cfg, &Engine::new(1), None);
    assert!(report.consistent, "{}", report.text);
    // One JSON and one Prometheus export per scenario.
    assert_eq!(report.exports.len(), 2 * scenarios(&cfg).len());
    for (name, contents) in &report.exports {
        if name.ends_with(".json") {
            assert!(contents.starts_with("{\"scenario\":"), "{name}: {contents}");
            assert!(contents.ends_with("]}\n"), "{name}");
        } else {
            assert!(name.ends_with(".prom"), "{name}");
            assert!(contents.contains("dynfb_lock_acquires_total"), "{name}");
        }
    }
}

#[test]
fn report_and_exports_are_byte_identical_across_worker_counts() {
    let cfg = cfg();
    let serial = profile_report_with(&cfg, &Engine::new(1), None);
    let parallel = profile_report_with(&cfg, &Engine::new(4), None);
    assert_eq!(serial.text, parallel.text);
    assert_eq!(serial.exports, parallel.exports);
    assert_eq!(serial.consistent, parallel.consistent);
}

#[test]
fn every_mode_passes_the_oracle_under_every_scenario() {
    let cfg = cfg();
    for scenario in scenarios(&cfg) {
        for mode in ChaosMode::all() {
            let cell = run_mode_metered(&cfg, &scenario, mode);
            assert!(oracle_holds(&cell), "{} / {:?}", scenario.name, mode);
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
    let observed_report = run_app_flight_recorded(
        ChaosApp::new(cfg.iters),
        &run,
        &mut ring,
        &mut NullJournal,
        &mut observed,
    )
    .expect("observed run");
    assert!(ring.dropped() > 0, "a one-slot ring must saturate");

    let mut metered = MetricsRegistry::new();
    let metered_report = run_app_flight_recorded(
        ChaosApp::new(cfg.iters),
        &run,
        &mut NullSink,
        &mut NullJournal,
        &mut metered,
    )
    .expect("metered run");

    // The drops themselves are accounted: the observed run publishes the
    // exact drop total as a loss counter, which is the one difference a
    // saturated ring is allowed to make.
    assert_eq!(observed.counter_value("trace_dropped"), ring.dropped());
    assert_eq!(metered.counter_value("trace_dropped"), 0);
    dynfb_core::metrics::MetricsSink::counter(&mut metered, "trace_dropped", ring.dropped());
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
