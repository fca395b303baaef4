//! Each simulated processor refills one step buffer for every body it
//! emits. These runs mix bodies of zero, one and many steps, serial and
//! parallel sections, and every run mode, and check exact totals: a step
//! left over from an earlier body would add acquires or compute, and an
//! empty body must go straight to the timer poll (one read per iteration).

use dynfb_core::controller::ControllerConfig;
use dynfb_sim::{
    run_app, AppReport, LockId, Machine, MachineConfig, OpSink, PlanEntry, RunConfig, RunMode,
    SectionKind, SimApp,
};
use std::time::Duration;

const LOCKS: usize = 4;
/// Lock pairs in a "many" iteration.
const PAIRS: u64 = 5;

fn us(n: u64) -> Duration {
    Duration::from_micros(n)
}

#[derive(Default)]
struct Bursty {
    first: Option<LockId>,
    /// Parallel sections begun so far.
    begun: usize,
}

impl Bursty {
    fn lock(&self, i: usize) -> LockId {
        self.first.expect("setup ran").offset(i % LOCKS)
    }
}

/// Parallel sections and their iteration counts, in plan order.
const PARALLEL: [(&str, usize); 3] = [("p", 25), ("q", 1), ("p", 14)];

impl SimApp for Bursty {
    fn name(&self) -> &str {
        "bursty"
    }
    fn setup(&mut self, machine: &mut Machine) {
        self.first = Some(machine.add_locks(LOCKS));
    }
    fn plan(&self) -> Vec<PlanEntry> {
        vec![
            PlanEntry::serial("empty"),
            PlanEntry::parallel("p"),
            PlanEntry::serial("locked"),
            PlanEntry::parallel("q"),
            PlanEntry::serial("empty"),
            PlanEntry::parallel("p"),
            PlanEntry::serial("tail"),
        ]
    }
    fn versions(&self, _section: &str) -> Vec<String> {
        // Identical bodies, so the totals do not depend on which version
        // the controller picks, while dynamic runs still switch.
        vec!["a".to_string(), "b".to_string()]
    }
    fn emit_serial(&mut self, section: &str, ops: &mut OpSink) {
        match section {
            "empty" => {}
            "locked" => {
                ops.compute(us(4));
                ops.acquire(self.lock(0));
                ops.release(self.lock(0));
            }
            _ => ops.compute(us(6)),
        }
    }
    fn begin_parallel(&mut self, section: &str) -> usize {
        let (name, n) = PARALLEL[self.begun];
        assert_eq!(section, name, "sections begin in plan order");
        self.begun += 1;
        n
    }
    fn emit_iteration(&mut self, _section: &str, _version: usize, iter: usize, ops: &mut OpSink) {
        match iter % 3 {
            0 => {}
            1 => ops.compute(us(3)),
            _ => {
                for _ in 0..PAIRS {
                    ops.acquire(self.lock(iter));
                    ops.compute(us(1));
                    ops.release(self.lock(iter));
                }
                ops.compute(us(2));
            }
        }
    }
}

/// Compute and acquires of `n` iterations of the parallel body.
fn parallel_work(n: usize) -> (Duration, u64) {
    let ones = (0..n).filter(|i| i % 3 == 1).count() as u32;
    let manys = (0..n).filter(|i| i % 3 == 2).count() as u32;
    (us(3) * ones + us(PAIRS + 2) * manys, PAIRS * u64::from(manys))
}

fn configs() -> Vec<(&'static str, RunConfig, bool)> {
    let ctl = ControllerConfig {
        target_sampling: us(20),
        target_production: us(200),
        ..ControllerConfig::default()
    };
    let base = |mode: RunMode| RunConfig {
        num_procs: 3,
        mode,
        machine: MachineConfig::default(),
        instrument_cost: Duration::ZERO,
        span_intervals: false,
        faults: Default::default(),
        sampling_watchdog: None,
    };
    vec![
        ("static", base(RunMode::static_policy("a")), false),
        (
            "static-instrumented",
            base(RunMode::Static { policy: "b".to_string(), instrumented: true }),
            true,
        ),
        ("dynamic", base(RunMode::Dynamic(ctl.clone())), true),
        ("dynamic-async", base(RunMode::DynamicAsync(ctl)), true),
    ]
}

fn check(name: &str, report: &AppReport, polls: bool) {
    let iters: Vec<usize> = report
        .sections
        .iter()
        .filter(|s| s.kind == SectionKind::Parallel)
        .map(|s| s.iterations)
        .collect();
    let expected: Vec<usize> = PARALLEL.iter().map(|&(_, n)| n).collect();
    assert_eq!(iters, expected, "{name}: iterations per parallel section");
    assert_eq!(report.sections.len(), 7, "{name}: every plan entry ran once");

    let (mut compute, mut acquires) = (us(4) + us(6), 1);
    for &(_, n) in &PARALLEL {
        let (c, a) = parallel_work(n);
        compute += c;
        acquires += a;
    }
    let totals = report.stats.totals();
    assert_eq!(totals.compute, compute, "{name}: compute");
    assert_eq!(totals.acquires, acquires, "{name}: acquires");
    let total_iters: usize = expected.iter().sum();
    let reads = if polls { total_iters as u64 } else { 0 };
    assert_eq!(totals.timer_reads, reads, "{name}: one timer poll per iteration");
}

#[test]
fn reused_step_buffers_replay_exactly_the_emitted_steps() {
    for (name, config, polls) in configs() {
        let report = run_app(Bursty::default(), &config).unwrap_or_else(|e| panic!("{e}"));
        check(name, &report, polls);
    }
}

#[test]
fn dynamic_runs_switch_policies_mid_section() {
    // Guard against a vacuous dynamic case: within one parallel section the
    // controller runs intervals on both versions, so the processors switch
    // version while their step buffers are being reused.
    let (_, config, _) = configs().into_iter().find(|(n, _, _)| *n == "dynamic").unwrap();
    let report = run_app(Bursty::default(), &config).unwrap();
    let switched = report.sections.iter().filter(|s| s.kind == SectionKind::Parallel).any(|s| {
        let mut versions: Vec<usize> = s.records.iter().map(|r| r.version).collect();
        versions.dedup();
        versions.len() > 1
    });
    assert!(switched, "no parallel section ran intervals on more than one version");
}
