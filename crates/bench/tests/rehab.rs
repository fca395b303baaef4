//! End-to-end: the watchdog × quarantine interaction when a transient
//! storm takes out the *entire* policy spectrum.
//!
//! Six surgically placed frozen-clock windows strike each of the three
//! chaos policies twice (`healthy → suspect → quarantined`). Under
//! [`RehabPolicy::Permanent`] no survivor remains, so the controller must
//! degrade to its safest policy and the driver must keep the workload
//! progressing to completion — graceful degradation, not deadlock or
//! panic. A traced replay of the identical configuration then serves as
//! the independent oracle: the trace must drop nothing, agree with the
//! report on elapsed time and production-interval count, and show the
//! quarantine of all three policies plus the settle on policy 0.

use dynfb_bench::chaos::{ChaosApp, ChaosConfig};
use dynfb_bench::rehab::{dynamic_run_config, run_dynamic, storm_plan};
use dynfb_core::controller::RehabPolicy;
use dynfb_core::observer::Observer;
use dynfb_core::trace::{RingBuffer, TraceEvent};
use dynfb_sim::run_app_flight_recorded;
use std::collections::BTreeSet;
use std::time::Duration;

#[test]
fn total_quarantine_degrades_to_the_safest_policy_and_completes() {
    let cfg = ChaosConfig { iters: 16_000, ..ChaosConfig::default() };
    let plan = storm_plan(&cfg, &[0, 0, 1, 1, 2, 2], Duration::from_millis(5));
    let run = run_dynamic(&cfg, RehabPolicy::Permanent, plan.clone());

    // Every policy was struck twice: the whole spectrum is quarantined,
    // and under permanent quarantine nothing ever comes back.
    assert_eq!(run.registry.counter_value("policy_suspected"), 3);
    assert_eq!(run.registry.counter_value("policy_quarantined"), 3);
    assert_eq!(run.registry.counter_value("policy_rehabilitated"), 0);
    assert_eq!(run.registry.counter_value("watchdog_soft_failures"), 6);

    // ...yet the run keeps making progress and finishes every iteration.
    let iters: usize = run.report.section("work").map(|e| e.iterations).sum();
    assert_eq!(iters, cfg.iters, "the workload must complete despite total quarantine");

    // With no survivor the runtime degrades to the safest policy (0, the
    // paper's Original) and stays there.
    let last_production = run
        .report
        .section("work")
        .flat_map(|e| e.records.iter())
        .filter(|r| !r.phase.is_sampling())
        .last()
        .expect("production intervals recorded");
    assert_eq!(last_production.version, 0, "degraded production must settle on the safest policy");

    // Traced replay of the identical configuration: the independent
    // observation channel must tell the same story.
    let mut ring = RingBuffer::new(1 << 16);
    let traced = run_app_flight_recorded(
        ChaosApp::new(cfg.iters),
        &dynamic_run_config(&cfg, RehabPolicy::Permanent, plan),
        &mut ring,
        &mut (),
        &mut (),
    )
    .expect("traced replay");
    assert_eq!(ring.dropped(), 0, "trace ring must not drop events");
    assert_eq!(traced.elapsed(), run.report.elapsed(), "trace sink must not perturb the run");

    let events = ring.into_vec();
    let quarantined: BTreeSet<usize> = events
        .iter()
        .filter_map(|e| match e.event {
            TraceEvent::PolicyHealth { policy, state: "quarantined" } => Some(policy),
            _ => None,
        })
        .collect();
    assert_eq!(quarantined, BTreeSet::from([0, 1, 2]), "trace must record all three quarantines");

    // The trace balances against the report: one production-end event per
    // production record, settling on the same fallback policy.
    let production_records = run
        .report
        .section("work")
        .flat_map(|e| e.records.iter())
        .filter(|r| !r.phase.is_sampling())
        .count();
    let production_ends: Vec<usize> = events
        .iter()
        .filter_map(|e| match e.event {
            TraceEvent::ProductionEnd { policy, .. } => Some(policy),
            _ => None,
        })
        .collect();
    assert_eq!(production_ends.len(), production_records, "trace/report production counts agree");
    assert_eq!(production_ends.last(), Some(&0), "trace agrees on the degraded settle policy");
}
