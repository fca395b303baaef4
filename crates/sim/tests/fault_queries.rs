//! Every `FaultPlan` query agrees with a plain scan of the plan's events.
//!
//! The plan answers queries for fault kinds it does not contain without
//! looking at its events. These tests pin that shortcut to the reference
//! semantics written out below: for random plans, for a plan of each single
//! kind, and for the empty plan, each built both with `push` and with
//! `with_event`, on a grid of (processor, lock, time) coordinates.

use dynfb_core::rng::mix64;
use dynfb_sim::{ChaosProfile, FaultEvent, FaultKind, FaultPlan, SimTime, Target, Window};
use std::time::Duration;

fn active(e: &FaultEvent, t: SimTime) -> bool {
    e.window.start <= t && t < e.window.end
}

fn ref_compute_factor(events: &[FaultEvent], proc: usize, t: SimTime) -> f64 {
    events.iter().fold(1.0, |acc, e| match &e.kind {
        FaultKind::Slowdown { procs, factor } if active(e, t) && procs.matches(proc) => {
            acc * factor
        }
        _ => acc,
    })
}

fn ref_lock_cost_factor(events: &[FaultEvent], lock: usize, t: SimTime) -> f64 {
    events.iter().fold(1.0, |acc, e| match &e.kind {
        FaultKind::ContentionStorm { locks, cost_factor, .. }
            if active(e, t) && locks.matches(lock) =>
        {
            acc * cost_factor
        }
        _ => acc,
    })
}

fn ref_extra_hold(events: &[FaultEvent], lock: usize, t: SimTime) -> Duration {
    events.iter().fold(Duration::ZERO, |acc, e| match &e.kind {
        FaultKind::ContentionStorm { locks, extra_hold, .. }
            if active(e, t) && locks.matches(lock) =>
        {
            acc + *extra_hold
        }
        _ => acc,
    })
}

fn ref_barrier_delay(events: &[FaultEvent], proc: usize, t: SimTime) -> Duration {
    events.iter().fold(Duration::ZERO, |acc, e| match &e.kind {
        FaultKind::BarrierStraggler { procs, delay } if active(e, t) && procs.matches(proc) => {
            acc + *delay
        }
        _ => acc,
    })
}

fn ref_stall_until(events: &[FaultEvent], proc: usize, t: SimTime) -> Option<SimTime> {
    let mut until = None;
    for e in events {
        if let FaultKind::ProcStall { procs } = &e.kind {
            if active(e, t) && procs.matches(proc) {
                until = until.max(Some(e.window.end));
            }
        }
    }
    until
}

fn ref_crash_at(events: &[FaultEvent], proc: usize) -> Option<SimTime> {
    let mut at: Option<SimTime> = None;
    for e in events {
        if let FaultKind::ProcCrash { procs } = &e.kind {
            if procs.matches(proc) {
                at = Some(at.map_or(e.window.start, |a| a.min(e.window.start)));
            }
        }
    }
    at
}

fn ref_observed_time(
    seed: u64,
    events: &[FaultEvent],
    proc: usize,
    read_no: u64,
    real: SimTime,
) -> SimTime {
    let mut observed = i128::from(real.as_nanos());
    for (i, e) in events.iter().enumerate() {
        match &e.kind {
            FaultKind::TimerDrift { ppm } => {
                let inside = real.min(e.window.end).saturating_since(e.window.start);
                observed += inside.as_nanos() as i128 * i128::from(*ppm) / 1_000_000;
            }
            FaultKind::TimerJitter { max } if active(e, real) && !max.is_zero() => {
                let max_ns = u64::try_from(max.as_nanos()).unwrap_or(u64::MAX);
                let r = mix64(&[seed, i as u64, proc as u64, read_no]);
                observed += i128::from(r % (max_ns + 1));
            }
            _ => {}
        }
    }
    SimTime::from_nanos(u64::try_from(observed.max(0)).unwrap_or(u64::MAX))
}

/// Instants to query: a regular grid over `horizon` plus both sides of
/// every window edge, where a half-open window changes its answer.
fn instants(events: &[FaultEvent], horizon: Duration) -> Vec<SimTime> {
    let step = horizon / 23;
    let mut ts: Vec<SimTime> = (0..=24).map(|k| SimTime::ZERO + step * k).collect();
    for e in events {
        for edge in [e.window.start, e.window.end] {
            let ns = edge.as_nanos();
            ts.extend([ns.saturating_sub(1), ns, ns.saturating_add(1)].map(SimTime::from_nanos));
        }
    }
    ts.push(SimTime::from_nanos(u64::MAX));
    ts
}

/// Check every query of `plan` against the reference scans of `events`.
fn check(plan: &FaultPlan, events: &[FaultEvent], procs: usize, locks: usize, horizon: Duration) {
    let seed = plan.seed();
    for t in instants(events, horizon) {
        for p in 0..=procs {
            let at = format!("seed {seed}, proc {p}, t {t}");
            assert_eq!(plan.compute_factor(p, t), ref_compute_factor(events, p, t), "{at}");
            assert_eq!(plan.barrier_delay(p, t), ref_barrier_delay(events, p, t), "{at}");
            assert_eq!(plan.stall_until(p, t), ref_stall_until(events, p, t), "{at}");
            for read_no in 0..3 {
                assert_eq!(
                    plan.observed_time(p, read_no, t),
                    ref_observed_time(seed, events, p, read_no, t),
                    "{at}, read {read_no}"
                );
            }
        }
        for l in 0..=locks {
            let at = format!("seed {seed}, lock {l}, t {t}");
            assert_eq!(plan.lock_cost_factor(l, t), ref_lock_cost_factor(events, l, t), "{at}");
            assert_eq!(plan.extra_hold(l, t), ref_extra_hold(events, l, t), "{at}");
        }
    }
    for p in 0..=procs {
        assert_eq!(plan.crash_at(p), ref_crash_at(events, p), "seed {seed}, proc {p}");
    }
}

/// `plan`'s events rebuilt through each public constructor path.
fn rebuilt(plan: &FaultPlan) -> [FaultPlan; 2] {
    let mut pushed = FaultPlan::new(plan.seed());
    let mut chained = FaultPlan::new(plan.seed());
    for e in plan.events() {
        pushed.push(e.window, e.kind.clone());
        chained = chained.with_event(e.window, e.kind.clone());
    }
    [pushed, chained]
}

fn check_all_builds(plan: &FaultPlan, profile: &ChaosProfile) {
    let events = plan.events().to_vec();
    check(plan, &events, profile.procs, profile.locks, profile.horizon);
    for copy in rebuilt(plan) {
        assert_eq!(&copy, plan, "rebuilding a plan must not change it");
        check(&copy, &events, profile.procs, profile.locks, profile.horizon);
    }
}

#[test]
fn random_plans_answer_every_query_like_a_scan() {
    let sparse = ChaosProfile::default();
    // Many events per plan: kinds overlap and repeat within one plan.
    let dense = ChaosProfile { events: 12, ..ChaosProfile::default() };
    for seed in 0..200 {
        for profile in [&sparse, &dense] {
            check_all_builds(&FaultPlan::random(seed, profile), profile);
        }
    }
}

#[test]
fn single_kind_plans_answer_every_query_like_a_scan() {
    let us = Duration::from_micros;
    let profile = ChaosProfile::default();
    let kinds = [
        FaultKind::Slowdown { procs: Target::Only(vec![1, 3]), factor: 3.0 },
        FaultKind::ContentionStorm {
            locks: Target::Only(vec![0, 5]),
            cost_factor: 4.0,
            extra_hold: us(7),
        },
        FaultKind::TimerDrift { ppm: -250_000 },
        FaultKind::TimerJitter { max: us(30) },
        FaultKind::BarrierStraggler { procs: Target::All, delay: us(90) },
        FaultKind::ProcCrash { procs: Target::Only(vec![2]) },
        FaultKind::ProcStall { procs: Target::Only(vec![4]) },
    ];
    for (k, kind) in kinds.into_iter().enumerate() {
        // Two windows of the same kind, overlapping, so sums, products
        // and maxima are exercised too.
        let plan = FaultPlan::new(k as u64)
            .with_event(Window::new(us(1_000), us(40_000)), kind.clone())
            .with_event(Window::new(us(20_000), us(60_000)), kind);
        check_all_builds(&plan, &profile);
    }
}

#[test]
fn empty_plans_answer_every_query_like_a_scan() {
    let profile = ChaosProfile::default();
    check_all_builds(&FaultPlan::default(), &profile);
    check_all_builds(&FaultPlan::new(99), &profile);
}
