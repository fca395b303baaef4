//! Chaos harness: fault scenarios × execution modes.
//!
//! Sweeps a matrix of fault-injection scenarios (lock-contention storms,
//! processor slowdowns, timer jitter, a frozen clock, barrier stragglers,
//! plus one seeded random plan) against the three static policies and
//! dynamic feedback, and reports for each scenario:
//!
//! * elapsed and waiting time per mode,
//! * each mode's **regret vs the oracle** (the best static policy for that
//!   scenario — negative regret means the mode beat every static), and
//! * for dynamic feedback, the **adaptation latency**: how long after
//!   fault onset the production policy changed.
//!
//! The workload is a shared-counter reduction with three lock-granularity
//! versions mirroring the paper's policy spectrum. Without faults the
//! fine-grained `original` version wins (updates execute outside the
//! critical section). A mid-run contention storm makes every lock
//! operation expensive, flipping the best policy to the coarse
//! `aggressive` version — the environment change §4.4 argues periodic
//! resampling exists to catch.
//!
//! Everything is deterministic: the same seed produces a byte-identical
//! report (`tests/determinism.rs` enforces this).

use crate::engine::{Engine, Filter, Job};
use crate::report::{micros, Table};
use dynfb_core::controller::{ControllerConfig, ResampleTrigger};
use dynfb_core::detector::DetectorConfig;
use dynfb_sim::{
    run_app, AppReport, ChaosProfile, FaultKind, FaultPlan, LockId, Machine, MachineConfig, OpSink,
    PlanEntry, RunConfig, SampleRecord, SimApp, Target, Window,
};
use std::fmt::Write as _;
use std::time::Duration;

/// Updates per loop iteration (the batch the coarse version locks across).
const UPDATES: usize = 16;
/// Shared slots: every iteration lands on one of these locks. Public so
/// the observation oracle can label the slots' machine lock ids.
pub const SLOTS: usize = 4;
/// Cost of one update's computation.
const UPDATE_COST: Duration = Duration::from_micros(6);

/// The three lock-granularity versions, coarsest last — names match the
/// paper's policy spectrum used throughout this repository.
pub const VERSIONS: [&str; 3] = ["original", "bounded", "aggressive"];

/// Chaos sweep parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Seed for the random scenario (and report banner).
    pub seed: u64,
    /// Loop iterations per run (each performs `UPDATES` updates).
    pub iters: usize,
    /// Simulated processors.
    pub procs: usize,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig { seed: 42, iters: 6_000, procs: 8 }
    }
}

impl ChaosConfig {
    /// Virtual time at which mid-run faults switch on: roughly half the
    /// ideal (fully parallel, uncontended) duration of the workload, so
    /// the fault splits every run into a before and an after.
    #[must_use]
    pub fn onset(&self) -> Duration {
        let ideal = UPDATE_COST * (UPDATES * self.iters / self.procs.max(1)) as u32;
        ideal / 2
    }
}

/// The chaos workload: a shared-counter reduction over [`SLOTS`] slots.
///
/// * `original` computes each update outside the critical section and
///   locks only for the store — 16 cheap lock pairs per iteration.
/// * `bounded` locks across batches of 4 updates — 4 pairs.
/// * `aggressive` locks once across the whole iteration — 1 pair, but the
///   lock is held for the entire computation.
pub struct ChaosApp {
    iters: usize,
    locks: Vec<LockId>,
}

impl ChaosApp {
    /// A fresh instance performing `iters` iterations.
    #[must_use]
    pub fn new(iters: usize) -> Self {
        ChaosApp { iters, locks: Vec::new() }
    }
}

impl SimApp for ChaosApp {
    fn name(&self) -> &str {
        "chaos"
    }
    fn setup(&mut self, machine: &mut Machine) {
        let first = machine.add_locks(SLOTS);
        self.locks = (0..SLOTS).map(|i| first.offset(i)).collect();
    }
    fn plan(&self) -> Vec<PlanEntry> {
        vec![PlanEntry::parallel("work")]
    }
    fn versions(&self, _section: &str) -> Vec<String> {
        VERSIONS.iter().map(ToString::to_string).collect()
    }
    fn emit_serial(&mut self, _section: &str, _ops: &mut OpSink) {}
    fn begin_parallel(&mut self, _section: &str) -> usize {
        self.iters
    }
    fn emit_iteration(&mut self, _s: &str, version: usize, iter: usize, ops: &mut OpSink) {
        let lock = self.locks[iter % SLOTS];
        match version {
            0 => {
                // original: compute outside, lock per store.
                for _ in 0..UPDATES {
                    ops.compute(UPDATE_COST);
                    ops.acquire(lock);
                    ops.compute(Duration::from_nanos(200));
                    ops.release(lock);
                }
            }
            1 => {
                // bounded: lock across batches of 4 updates.
                for _ in 0..UPDATES / 4 {
                    ops.acquire(lock);
                    for _ in 0..4 {
                        ops.compute(UPDATE_COST);
                    }
                    ops.release(lock);
                }
            }
            _ => {
                // aggressive: one lock across the whole iteration.
                ops.acquire(lock);
                for _ in 0..UPDATES {
                    ops.compute(UPDATE_COST);
                }
                ops.release(lock);
            }
        }
    }
}

/// Machine with cheap spin locks (as the drifting-environment example), so
/// the *fault plans* — not the baseline cost model — decide the winner.
#[must_use]
pub fn chaos_machine() -> MachineConfig {
    MachineConfig {
        lock_acquire_cost: Duration::from_nanos(200),
        lock_release_cost: Duration::from_nanos(200),
        lock_attempt_cost: Duration::from_nanos(100),
        ..MachineConfig::default()
    }
}

/// Controller for dynamic runs: sample all three policies quickly, then
/// produce in 20 ms intervals — short enough to re-detect a mid-run flip
/// within a few intervals, long enough to amortize sampling (§4.4).
#[must_use]
pub fn chaos_controller() -> ControllerConfig {
    ControllerConfig {
        num_policies: VERSIONS.len(),
        target_sampling: Duration::from_micros(500),
        target_production: Duration::from_millis(20),
        ..ControllerConfig::default()
    }
}

/// Controller for event-driven runs: the same cadence as
/// [`chaos_controller`], but production ends early when the CUSUM chart
/// over the per-slice waiting proportion alarms. `max_quiescence` equals
/// the fixed production target, so a stationary environment behaves
/// exactly like the fixed-interval controller; `min_spacing` of 2 demands
/// two consecutive post-threshold observations before acting, filtering
/// single-slice noise spikes.
#[must_use]
pub fn event_controller() -> ControllerConfig {
    ControllerConfig {
        trigger: ResampleTrigger::EventDriven {
            detector: DetectorConfig::default_cusum(),
            min_spacing: 2,
            max_quiescence: Duration::from_millis(20),
        },
        ..chaos_controller()
    }
}

/// One named fault scenario.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Scenario name (report row key).
    pub name: &'static str,
    /// The fault plan applied to every mode's run.
    pub plan: FaultPlan,
    /// Virtual time the scenario's faults begin (zero for always-on
    /// scenarios); adaptation latency is measured from here.
    pub onset: Duration,
}

/// A window from `start` to far beyond any run in this harness.
fn from_onset(start: Duration) -> Window {
    Window::new(start, Duration::from_secs(3_600))
}

/// A plan with `count` transient frozen-clock windows of `width`, spaced
/// `period` apart starting at `start`: the controller's timer freezes and
/// thaws repeatedly, exercising the watchdog/health machinery without any
/// single permanent fault. Shared with the rehabilitation harness
/// (`crate::rehab`).
#[must_use]
pub fn freeze_cycles(
    seed: u64,
    start: Duration,
    width: Duration,
    period: Duration,
    count: usize,
) -> FaultPlan {
    let mut plan = FaultPlan::new(seed);
    for k in 0..count {
        let at = start + period * k as u32;
        plan =
            plan.with_event(Window::new(at, at + width), FaultKind::TimerDrift { ppm: -1_000_000 });
    }
    plan
}

/// A plan with `count` transient contention-storm windows of `width`,
/// spaced `period` apart starting at `start`: the best policy flips to
/// coarse locking inside every window and back outside it.
#[must_use]
pub fn contention_cycles(
    seed: u64,
    start: Duration,
    width: Duration,
    period: Duration,
    count: usize,
) -> FaultPlan {
    let mut plan = FaultPlan::new(seed);
    for k in 0..count {
        let at = start + period * k as u32;
        plan = plan.with_event(
            Window::new(at, at + width),
            FaultKind::ContentionStorm {
                locks: Target::All,
                cost_factor: 20.0,
                extra_hold: Duration::from_micros(10),
            },
        );
    }
    plan
}

/// The fault scenarios swept by the harness, in report order.
#[must_use]
pub fn scenarios(cfg: &ChaosConfig) -> Vec<Scenario> {
    let onset = cfg.onset();
    let half: Vec<usize> = (0..cfg.procs / 2).collect();
    vec![
        Scenario { name: "baseline", plan: FaultPlan::new(cfg.seed), onset: Duration::ZERO },
        Scenario {
            name: "lock-storm",
            plan: FaultPlan::new(cfg.seed).with_event(
                from_onset(onset),
                FaultKind::ContentionStorm {
                    locks: Target::All,
                    cost_factor: 20.0,
                    extra_hold: Duration::from_micros(10),
                },
            ),
            onset,
        },
        Scenario {
            name: "slowdown",
            plan: FaultPlan::new(cfg.seed).with_event(
                from_onset(onset),
                FaultKind::Slowdown { procs: Target::Only(half), factor: 8.0 },
            ),
            onset,
        },
        Scenario {
            name: "timer-jitter",
            plan: FaultPlan::new(cfg.seed).with_event(
                Window::always(),
                FaultKind::TimerJitter { max: Duration::from_micros(50) },
            ),
            onset: Duration::ZERO,
        },
        Scenario {
            name: "frozen-clock",
            plan: FaultPlan::new(cfg.seed)
                .with_event(Window::always(), FaultKind::TimerDrift { ppm: -1_000_000 }),
            onset: Duration::ZERO,
        },
        Scenario {
            name: "barrier-straggler",
            plan: FaultPlan::new(cfg.seed).with_event(
                Window::always(),
                FaultKind::BarrierStraggler {
                    procs: Target::Only(vec![0]),
                    delay: Duration::from_micros(200),
                },
            ),
            onset: Duration::ZERO,
        },
        Scenario {
            // A processor dies early — while the very first sampling phase
            // still holds locks constantly — at the same instant a
            // contention storm switches on. The crash poisons the in-flight
            // interval (crash-fallback, orphaned-lock recovery), so the
            // controller commits to the winner of its *pre-storm* samples
            // and the fixed-interval trigger sits out a full production
            // interval under the wrong policy; the change-point chart sees
            // production waiting diverge from the sampled baseline
            // immediately.
            name: "crash-mid-sampling",
            plan: FaultPlan::new(cfg.seed)
                .with_event(
                    Window::new(Duration::from_micros(800), Duration::from_micros(801)),
                    FaultKind::ProcCrash { procs: Target::Only(vec![cfg.procs - 1]) },
                )
                .with_event(
                    from_onset(Duration::from_micros(800)),
                    FaultKind::ContentionStorm {
                        locks: Target::All,
                        cost_factor: 20.0,
                        extra_hold: Duration::from_micros(10),
                    },
                ),
            onset: Duration::from_micros(800),
        },
        Scenario {
            // The chronically slow processor is also the one that dies:
            // every barrier first waits on the straggler, then loses it
            // outright at onset.
            name: "crash-straggler",
            plan: FaultPlan::new(cfg.seed)
                .with_event(
                    Window::always(),
                    FaultKind::BarrierStraggler {
                        procs: Target::Only(vec![0]),
                        delay: Duration::from_micros(200),
                    },
                )
                .with_event(
                    Window::new(onset, onset + Duration::from_micros(1)),
                    FaultKind::ProcCrash { procs: Target::Only(vec![0]) },
                ),
            onset,
        },
        Scenario {
            // Repeated transient contention storms: each 10 ms window
            // flips the best policy to `aggressive` and each gap flips it
            // back, out of phase with the 20 ms fixed production interval
            // — periodic resampling keeps committing to the policy of the
            // environment it just left. The two-sided change-point chart
            // catches both edges. (The transient *clock-freeze*
            // counterpart of this scenario lives in the rehabilitation
            // harness, built on [`freeze_cycles`].)
            name: "storm-cycles",
            plan: contention_cycles(
                cfg.seed,
                onset,
                Duration::from_millis(10),
                Duration::from_millis(30),
                2,
            ),
            onset,
        },
        Scenario {
            name: "random",
            plan: FaultPlan::random(
                cfg.seed,
                &ChaosProfile {
                    horizon: cfg.onset() * 4,
                    procs: cfg.procs,
                    locks: SLOTS,
                    events: 4,
                },
            ),
            onset: Duration::ZERO,
        },
    ]
}

/// The scenarios whose name `filter` matches (all of them when `None`),
/// in report order.
#[must_use]
pub fn selected_scenarios(cfg: &ChaosConfig, filter: Option<&Filter>) -> Vec<Scenario> {
    scenarios(cfg).into_iter().filter(|s| filter.is_none_or(|f| f.matches(s.name))).collect()
}

/// Result of one mode's run under one scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModeOutcome {
    /// Mode name (a static policy name, or `"dynamic"`).
    pub mode: String,
    /// Total virtual execution time.
    pub elapsed: Duration,
    /// Machine-wide waiting (spinning) time.
    pub waiting: Duration,
}

/// How dynamic feedback adapted during one scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Adaptation {
    /// Production-policy changes over the run.
    pub switches: usize,
    /// Version name of the last production interval.
    pub settled: String,
    /// Time from scenario onset to the end of the first production
    /// interval running a *different* policy than before onset; `None` if
    /// production never switched after onset.
    pub latency: Option<Duration>,
}

/// All measurements for one scenario.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// The scenario that ran.
    pub scenario: Scenario,
    /// One outcome per static policy, in [`VERSIONS`] order.
    pub statics: Vec<ModeOutcome>,
    /// The dynamic-feedback outcome.
    pub dynamic: ModeOutcome,
    /// How the dynamic run adapted.
    pub adaptation: Adaptation,
    /// The event-driven (change-point triggered) outcome.
    pub event_driven: ModeOutcome,
    /// How the event-driven run adapted.
    pub event_adaptation: Adaptation,
}

impl ScenarioOutcome {
    /// The oracle: the best static policy for this scenario.
    #[must_use]
    pub fn oracle(&self) -> &ModeOutcome {
        self.statics.iter().min_by_key(|m| m.elapsed).expect("static modes ran")
    }

    /// `mode`'s regret vs the oracle in microseconds (negative: beat it).
    #[must_use]
    pub fn regret_micros(&self, mode: &ModeOutcome) -> i128 {
        mode.elapsed.as_micros() as i128 - self.oracle().elapsed.as_micros() as i128
    }
}

/// Elapsed/waiting measurements of one report, labelled `mode`.
#[must_use]
pub fn mode_outcome(mode: &str, report: &AppReport) -> ModeOutcome {
    ModeOutcome {
        mode: mode.to_string(),
        elapsed: report.elapsed(),
        waiting: report.stats.totals().wait_time,
    }
}

/// Reconstruct how the dynamic run adapted from its production records.
/// The observation oracle (`dynfb_bench::observe`) recomputes the same
/// quantities independently from trace events and cross-checks them
/// against this.
#[must_use]
pub fn analyze_adaptation(report: &AppReport, onset: Duration) -> Adaptation {
    let production: Vec<&SampleRecord> = report
        .section("work")
        .flat_map(|exec| exec.records.iter())
        .filter(|r| r.phase.is_production())
        .collect();
    let switches = production.windows(2).filter(|w| w[0].version != w[1].version).count();
    let settled =
        production.last().map_or_else(|| "(none)".to_string(), |r| VERSIONS[r.version].to_string());
    let onset_t = dynfb_sim::SimTime::ZERO + onset;
    let before = production
        .iter()
        .take_while(|r| r.at < onset_t)
        .last()
        .or(production.first())
        .map(|r| r.version);
    let latency = before.and_then(|v0| {
        production
            .iter()
            .find(|r| r.at >= onset_t && r.version != v0)
            .map(|r| r.at.saturating_since(onset_t))
    });
    Adaptation { switches, settled, latency }
}

/// One execution mode of the chaos matrix: a static policy (index into
/// [`VERSIONS`]) or dynamic feedback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosMode {
    /// Fixed policy `VERSIONS[i]`.
    Static(usize),
    /// Dynamic feedback with the chaos controller and watchdog.
    Dynamic,
    /// Dynamic feedback with the event-driven resampling trigger
    /// ([`event_controller`]) and the same watchdog.
    EventDriven,
}

impl ChaosMode {
    /// All modes, in report order.
    #[must_use]
    pub fn all() -> Vec<ChaosMode> {
        (0..VERSIONS.len())
            .map(ChaosMode::Static)
            .chain([ChaosMode::Dynamic, ChaosMode::EventDriven])
            .collect()
    }

    /// Mode name as it appears in reports.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            ChaosMode::Static(i) => VERSIONS[*i],
            ChaosMode::Dynamic => "dynamic",
            ChaosMode::EventDriven => "event-driven",
        }
    }
}

/// Result of one (scenario, mode) job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosJobResult {
    /// Elapsed/waiting measurements.
    pub outcome: ModeOutcome,
    /// Adaptation analysis (dynamic mode only).
    pub adaptation: Option<Adaptation>,
}

/// Run one (scenario, mode) cell of the chaos matrix — the unit of work
/// the parallel engine schedules. Pure function of its arguments.
///
/// # Panics
///
/// Panics if the simulation fails — the harness only builds valid configs,
/// so a failure here is a bug worth a loud stop.
#[must_use]
pub fn run_mode(cfg: &ChaosConfig, scenario: &Scenario, mode: ChaosMode) -> ChaosJobResult {
    let run = mode_run_config(cfg, scenario, mode);
    let report = run_app(ChaosApp::new(cfg.iters), &run).expect("chaos run");
    job_result(scenario, mode, &report)
}

/// The harness-side measurements of one finished (scenario, mode) run:
/// its outcome, plus the adaptation analysis in the adaptive modes.
#[must_use]
pub fn job_result(scenario: &Scenario, mode: ChaosMode, report: &AppReport) -> ChaosJobResult {
    let adaptation = match mode {
        ChaosMode::Static(_) => None,
        ChaosMode::Dynamic | ChaosMode::EventDriven => {
            Some(analyze_adaptation(report, scenario.onset))
        }
    };
    ChaosJobResult { outcome: mode_outcome(mode.name(), report), adaptation }
}

/// The exact [`RunConfig`] that [`run_mode`] simulates for `mode` under
/// `scenario` — exposed so the observation oracle can replay the
/// identical run with its sinks attached.
#[must_use]
pub fn mode_run_config(cfg: &ChaosConfig, scenario: &Scenario, mode: ChaosMode) -> RunConfig {
    let mut run = match mode {
        ChaosMode::Static(i) => {
            RunConfig::fixed(cfg.procs, VERSIONS[i]).with_faults(scenario.plan.clone())
        }
        ChaosMode::Dynamic => RunConfig::dynamic(cfg.procs, chaos_controller())
            .with_faults(scenario.plan.clone())
            .with_watchdog(8),
        ChaosMode::EventDriven => RunConfig::dynamic(cfg.procs, event_controller())
            .with_faults(scenario.plan.clone())
            .with_watchdog(8),
    };
    run.machine = chaos_machine();
    run
}

/// Assemble one scenario's per-mode cell results (in [`ChaosMode::all`]
/// order) into a [`ScenarioOutcome`].
///
/// # Panics
///
/// Panics if `results` does not contain one entry per mode.
#[must_use]
pub fn assemble(scenario: &Scenario, results: Vec<ChaosJobResult>) -> ScenarioOutcome {
    let mut statics = Vec::new();
    let mut dynamic = None;
    let mut adaptation = None;
    let mut event_driven = None;
    let mut event_adaptation = None;
    for (mode, r) in ChaosMode::all().into_iter().zip(results) {
        match mode {
            ChaosMode::Static(_) => statics.push(r.outcome),
            ChaosMode::Dynamic => {
                dynamic = Some(r.outcome);
                adaptation = r.adaptation;
            }
            ChaosMode::EventDriven => {
                event_driven = Some(r.outcome);
                event_adaptation = r.adaptation;
            }
        }
    }
    ScenarioOutcome {
        scenario: scenario.clone(),
        statics,
        dynamic: dynamic.expect("dynamic mode ran"),
        adaptation: adaptation.expect("dynamic mode analyzed"),
        event_driven: event_driven.expect("event-driven mode ran"),
        event_adaptation: event_adaptation.expect("event-driven mode analyzed"),
    }
}

/// Run all four modes under one scenario (serially, on this thread).
///
/// # Panics
///
/// Panics if a simulation fails.
#[must_use]
pub fn run_scenario(cfg: &ChaosConfig, scenario: &Scenario) -> ScenarioOutcome {
    let results = ChaosMode::all().into_iter().map(|m| run_mode(cfg, scenario, m)).collect();
    assemble(scenario, results)
}

fn render(cfg: &ChaosConfig, out: &ScenarioOutcome) -> String {
    let mut t = Table::new(
        &format!(
            "Chaos scenario `{}` ({} iterations, {} procs)",
            out.scenario.name, cfg.iters, cfg.procs
        ),
        &["mode", "elapsed (us)", "waiting (us)", "regret vs oracle (us)"],
    );
    for m in out.statics.iter().chain([&out.dynamic, &out.event_driven]) {
        t.row(vec![
            m.mode.clone(),
            micros(m.elapsed),
            micros(m.waiting),
            format!("{:+}", out.regret_micros(m)),
        ]);
    }
    let oracle = out.oracle();
    t.note(format!("oracle (best static): {} at {} us", oracle.mode, micros(oracle.elapsed)));
    for (label, a) in [("dynamic", &out.adaptation), ("event-driven", &out.event_adaptation)] {
        let latency = match (a.latency, out.scenario.onset) {
            (Some(l), _) => format!(
                "adapted {} us after onset (t={} us)",
                micros(l),
                out.scenario.onset.as_micros()
            ),
            (None, o) if o > Duration::ZERO => "did not switch after onset".to_string(),
            _ => "no onset; latency n/a".to_string(),
        };
        t.note(format!(
            "{label}: {} production switch(es), settled on {}; {}",
            a.switches, a.settled, latency
        ));
    }
    t.to_console()
}

/// Run the full scenario × mode sweep and render the deterministic report.
/// The same `cfg` always yields a byte-identical string.
#[must_use]
pub fn chaos_report(cfg: &ChaosConfig) -> String {
    chaos_report_with(cfg, &Engine::new(1), None)
}

/// Run the (optionally filtered) scenario × mode matrix on `engine` and
/// render the report. Each (scenario, mode) cell is one engine job;
/// results are reassembled in scenario/mode order, so the report is
/// byte-identical for every worker count — [`chaos_report`] is this with
/// one worker and no filter.
#[must_use]
pub fn chaos_report_with(cfg: &ChaosConfig, engine: &Engine, filter: Option<&Filter>) -> String {
    let selected = selected_scenarios(cfg, filter);
    let modes = ChaosMode::all();
    let tasks: Vec<Job<'_, ChaosJobResult>> = selected
        .iter()
        .flat_map(|scenario| {
            modes.iter().map(move |&mode| {
                let task: Job<'_, ChaosJobResult> = Box::new(move || run_mode(cfg, scenario, mode));
                task
            })
        })
        .collect();
    let mut results = engine.run(tasks).into_iter().map(|t| t.value);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "chaos harness: {} scenarios x {{{}, dynamic, event-driven}} (seed {})\n",
        selected.len(),
        VERSIONS.join(", "),
        cfg.seed
    );
    for scenario in &selected {
        let cells: Vec<ChaosJobResult> = results.by_ref().take(modes.len()).collect();
        let result = assemble(scenario, cells);
        out.push_str(&render(cfg, &result));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ChaosConfig {
        ChaosConfig { seed: 5, iters: 1_200, procs: 8 }
    }

    #[test]
    fn baseline_oracle_is_the_fine_grained_version() {
        let cfg = small();
        let out = run_scenario(&cfg, &scenarios(&cfg)[0]);
        assert_eq!(out.scenario.name, "baseline");
        assert_eq!(out.oracle().mode, "original");
    }

    #[test]
    fn every_scenario_completes_in_every_mode() {
        let cfg = ChaosConfig { seed: 9, iters: 400, procs: 4 };
        for scenario in scenarios(&cfg) {
            let out = run_scenario(&cfg, &scenario);
            assert_eq!(out.statics.len(), VERSIONS.len(), "{}", scenario.name);
            assert!(out.dynamic.elapsed > Duration::ZERO, "{}", scenario.name);
        }
    }
}
