//! Rehabilitation harness: permanent quarantine vs exponential backoff
//! under repeated *transient* storms.
//!
//! The chaos matrix (`crate::chaos`) measures how dynamic feedback adapts
//! to faults; this harness measures how the controller's **health state
//! machine** recovers from them. The storm it injects is deliberately
//! transient: a frozen controller clock that strikes twice — each time
//! exactly inside a sampling interval of the clean-environment winner
//! (`original`) — and then clears for good. Both strikes trip the sampling
//! watchdog, so `original` is escalated `healthy → suspect → quarantined`
//! even though nothing is wrong with the policy itself.
//!
//! Under [`RehabPolicy::Permanent`] the controller never trusts `original`
//! again and finishes the run on the second-best survivor. Under
//! [`RehabPolicy::Backoff`] the quarantine expires after a bounded number
//! of phases, a probe re-measures `original`, and production returns to
//! the true optimum — strictly lower regret against the static oracle.
//! [`rehab_report`] runs both side by side and renders the regret table
//! CI archives (byte-identical on every invocation).
//!
//! Storm windows are not hand-tuned constants: [`storm_plan`] replays the
//! deterministic simulation, reads the next sampling-interval start of the
//! target policy from the [`SampleRecord`]s, and drops a frozen-clock
//! window on it — so the plan stays surgical even if controller timing
//! shifts. [`SampleRecord`]: dynfb_sim::SampleRecord

use crate::chaos::{self, ChaosApp, ChaosConfig, ModeOutcome, VERSIONS};
use crate::report::Table;
use dynfb_core::controller::{ControllerConfig, RehabPolicy};
use dynfb_core::journal::NullJournal;
use dynfb_core::metrics::MetricsRegistry;
use dynfb_core::trace::NullSink;
use dynfb_sim::{
    run_app, run_app_flight_recorded, AppReport, FaultKind, FaultPlan, RunConfig, SimTime, Window,
};
use std::fmt::Write as _;
use std::time::Duration;

/// Watchdog factor for rehab runs: abort a sampling interval stuck past
/// `8 x target_sampling` (4 ms of wall time here).
const WATCHDOG: u32 = 8;
/// Offset into the target sampling interval at which a storm window
/// freezes the clock: late enough to land inside the interval, early
/// enough that the interval cannot have completed.
const STRIKE_OFFSET: Duration = Duration::from_micros(100);
/// Storm window width: past the watchdog budget, so the frozen interval is
/// aborted rather than merely stretched.
const STRIKE_WIDTH: Duration = Duration::from_millis(6);

/// Controller for rehab runs: the chaos controller with a shorter
/// production interval (more phases per run, so backoff expiry and the
/// post-rehabilitation payoff both fit comfortably) and the given
/// rehabilitation policy.
#[must_use]
pub fn rehab_controller(rehab: RehabPolicy) -> ControllerConfig {
    ControllerConfig {
        rehab,
        target_production: Duration::from_millis(10),
        ..chaos::chaos_controller()
    }
}

/// The backoff flavour the harness compares against
/// [`RehabPolicy::Permanent`]: shortest base, so a quarantined policy is
/// re-probed after one clean phase.
#[must_use]
pub fn backoff() -> RehabPolicy {
    RehabPolicy::Backoff { base: 1, max: 8, seed: 0 }
}

/// A dynamic rehab run: harness measurements plus the health counters the
/// sim driver exported.
#[derive(Debug, Clone)]
pub struct DynamicRun {
    /// Full simulation report.
    pub report: AppReport,
    /// Metrics registry with `policy_quarantined` / `policy_rehabilitated`
    /// and friends.
    pub registry: MetricsRegistry,
}

/// The exact [`RunConfig`] a dynamic rehab run executes: the chaos machine
/// and workload under [`rehab_controller`] with the given plan and the
/// rehab watchdog. Public so tests can replay a run byte for byte with a
/// different observation sink attached (the sinks never perturb the
/// simulation).
#[must_use]
pub fn dynamic_run_config(cfg: &ChaosConfig, rehab: RehabPolicy, plan: FaultPlan) -> RunConfig {
    let mut run = RunConfig::dynamic(cfg.procs, rehab_controller(rehab))
        .with_faults(plan)
        .with_watchdog(WATCHDOG);
    run.machine = chaos::chaos_machine();
    run
}

/// Run the chaos workload under dynamic feedback with `rehab` and `plan`.
///
/// # Panics
///
/// Panics if the simulation fails.
#[must_use]
pub fn run_dynamic(cfg: &ChaosConfig, rehab: RehabPolicy, plan: FaultPlan) -> DynamicRun {
    let run = dynamic_run_config(cfg, rehab, plan);
    let mut registry = MetricsRegistry::new();
    let report = run_app_flight_recorded(
        ChaosApp::new(cfg.iters),
        &run,
        &mut NullSink,
        &mut NullJournal,
        &mut registry,
    )
    .expect("rehab dynamic run");
    DynamicRun { report, registry }
}

/// Run the chaos workload under static policy `i` with `plan`.
///
/// # Panics
///
/// Panics if the simulation fails.
#[must_use]
pub fn run_static(cfg: &ChaosConfig, i: usize, plan: FaultPlan) -> ModeOutcome {
    let mut run = RunConfig::fixed(cfg.procs, VERSIONS[i]).with_faults(plan);
    run.machine = chaos::chaos_machine();
    chaos::mode_outcome(VERSIONS[i], &run_app(ChaosApp::new(cfg.iters), &run).expect("static run"))
}

/// Start of the first *completed* sampling interval of `target` beginning
/// at or after `after`: the start is the previous record's completion time
/// (or the section start), which is exactly when the driver re-based the
/// controller's interval clock.
fn interval_start_of(report: &AppReport, target: usize, after: Duration) -> Option<Duration> {
    for exec in report.section("work") {
        let mut prev = exec.start;
        for r in &exec.records {
            let start = prev.saturating_since(SimTime::ZERO);
            if r.phase.is_sampling() && r.version == target && !r.partial && start >= after {
                return Some(start);
            }
            prev = r.at;
        }
    }
    None
}

/// Build the storm plan by deterministic replay: for each entry in `hits`,
/// re-run the simulation under the plan so far, locate the next clean
/// sampling interval of that policy after the previous window, and freeze
/// the controller clock across it (past the watchdog budget, so the
/// interval is aborted and the policy blamed). `hits = [0, 0]` therefore
/// escalates policy 0 `suspect → quarantined` with no collateral strikes;
/// `[0, 0, 1, 1, 2, 2]` quarantines the entire spectrum.
///
/// The probing runs use [`RehabPolicy::Permanent`], whose timeline is
/// identical to any backoff flavour up to the first probe — which can only
/// happen after the final window — so one plan serves every rehab mode.
///
/// # Panics
///
/// Panics if the run ends before all hits are placed (the workload must be
/// long enough for `hits.len()` sampling/production cycles past
/// `start_after`).
#[must_use]
pub fn storm_plan(cfg: &ChaosConfig, hits: &[usize], start_after: Duration) -> FaultPlan {
    let mut plan = FaultPlan::new(cfg.seed);
    let mut horizon = start_after;
    for &target in hits {
        let probe = run_dynamic(cfg, RehabPolicy::Permanent, plan.clone());
        let start = interval_start_of(&probe.report, target, horizon).unwrap_or_else(|| {
            panic!("no clean sampling interval of policy {target} after {horizon:?}")
        });
        let open = start + STRIKE_OFFSET;
        plan = plan.with_event(
            Window::new(open, open + STRIKE_WIDTH),
            FaultKind::TimerDrift { ppm: -1_000_000 },
        );
        horizon = open + STRIKE_WIDTH;
    }
    plan
}

/// One dynamic mode's row in the regret table.
#[derive(Debug, Clone)]
pub struct RehabOutcome {
    /// Elapsed/waiting measurements, labelled with the rehab mode.
    pub outcome: ModeOutcome,
    /// `policy_quarantined` events over the run.
    pub quarantined: u64,
    /// `policy_probed` events over the run.
    pub probed: u64,
    /// `policy_rehabilitated` events over the run.
    pub rehabilitated: u64,
}

fn rehab_outcome(label: &str, run: &DynamicRun) -> RehabOutcome {
    RehabOutcome {
        outcome: chaos::mode_outcome(label, &run.report),
        quarantined: run.registry.counter_value("policy_quarantined"),
        probed: run.registry.counter_value("policy_probed"),
        rehabilitated: run.registry.counter_value("policy_rehabilitated"),
    }
}

/// Everything the rehabilitation harness produces in one sweep.
#[derive(Debug, Clone)]
pub struct RehabReport {
    /// Rendered regret table (deterministic).
    pub text: String,
    /// Static outcomes under the storm plan, in [`VERSIONS`] order.
    pub statics: Vec<ModeOutcome>,
    /// Dynamic feedback with permanent quarantine.
    pub permanent: RehabOutcome,
    /// Dynamic feedback with backoff rehabilitation.
    pub backoff: RehabOutcome,
    /// Permanent quarantine's regret vs the static oracle, in µs.
    pub permanent_regret: i128,
    /// Backoff rehabilitation's regret vs the static oracle, in µs.
    pub backoff_regret: i128,
}

/// Run the full comparison: three statics plus both rehab modes under the
/// same two-strike transient storm. Deterministic: the same `cfg` yields a
/// byte-identical `text`.
///
/// # Panics
///
/// Panics if a simulation fails or the workload is too short for the
/// storm (see [`storm_plan`]).
#[must_use]
pub fn rehab_report(cfg: &ChaosConfig) -> RehabReport {
    let plan = storm_plan(cfg, &[0, 0], cfg.onset());
    let statics: Vec<ModeOutcome> =
        (0..VERSIONS.len()).map(|i| run_static(cfg, i, plan.clone())).collect();
    let permanent =
        rehab_outcome("dynamic-permanent", &run_dynamic(cfg, RehabPolicy::Permanent, plan.clone()));
    let backoff_run = rehab_outcome("dynamic-backoff", &run_dynamic(cfg, backoff(), plan));
    let oracle = statics.iter().min_by_key(|m| m.elapsed).expect("static modes ran").clone();
    let regret =
        |m: &ModeOutcome| m.elapsed.as_micros() as i128 - oracle.elapsed.as_micros() as i128;

    let mut t = Table::new(
        &format!(
            "Rehabilitation regret under a two-strike transient storm ({} iterations, {} procs)",
            cfg.iters, cfg.procs
        ),
        &["mode", "elapsed (us)", "regret vs oracle (us)", "quarantines", "probes", "rehabs"],
    );
    for m in &statics {
        t.row(vec![
            m.mode.clone(),
            m.elapsed.as_micros().to_string(),
            format!("{:+}", regret(m)),
            "-".into(),
            "-".into(),
            "-".into(),
        ]);
    }
    for r in [&permanent, &backoff_run] {
        t.row(vec![
            r.outcome.mode.clone(),
            r.outcome.elapsed.as_micros().to_string(),
            format!("{:+}", regret(&r.outcome)),
            r.quarantined.to_string(),
            r.probed.to_string(),
            r.rehabilitated.to_string(),
        ]);
    }
    let permanent_regret = regret(&permanent.outcome);
    let backoff_regret = regret(&backoff_run.outcome);
    t.note(format!("oracle (best static): {} at {} us", oracle.mode, oracle.elapsed.as_micros()));
    t.note(format!(
        "backoff rehabilitation saves {} us of regret over permanent quarantine",
        permanent_regret - backoff_regret
    ));

    let mut text = String::new();
    let _ = writeln!(
        text,
        "rehabilitation harness: permanent vs backoff quarantine (seed {})\n",
        cfg.seed
    );
    text.push_str(&t.to_console());
    RehabReport { text, statics, permanent, backoff: backoff_run, permanent_regret, backoff_regret }
}

/// Default configuration for the rehab harness: long enough past the storm
/// for the backoff probe to fire *and* for the rehabilitated optimum to
/// repay the probing cost.
#[must_use]
pub fn default_config() -> ChaosConfig {
    ChaosConfig { iters: 20_000, ..ChaosConfig::default() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storm_plan_strikes_abort_only_the_target_policy() {
        let cfg = default_config();
        let plan = storm_plan(&cfg, &[0, 0], cfg.onset());
        let run = run_dynamic(&cfg, RehabPolicy::Permanent, plan);
        let aborted: Vec<usize> = run
            .report
            .section("work")
            .flat_map(|e| e.records.iter())
            .filter(|r| r.phase.is_sampling() && r.partial)
            .map(|r| r.version)
            .collect();
        assert_eq!(aborted, vec![0, 0], "exactly two strikes, both on policy 0");
        assert_eq!(run.registry.counter_value("policy_suspected"), 1);
        assert_eq!(run.registry.counter_value("policy_quarantined"), 1);
        assert_eq!(run.registry.counter_value("watchdog_soft_failures"), 2);
    }

    #[test]
    fn backoff_rehabilitation_beats_permanent_quarantine_on_transient_storms() {
        let report = rehab_report(&default_config());
        // The storm quarantines the clean-environment winner in both
        // modes; only backoff re-probes and returns to it.
        assert_eq!(report.permanent.quarantined, 1);
        assert_eq!(report.permanent.rehabilitated, 0);
        assert!(report.backoff.probed >= 1, "backoff must re-probe");
        assert_eq!(report.backoff.rehabilitated, 1);
        // ...which is worth real time: strictly lower regret vs the
        // static oracle (the acceptance criterion of this harness).
        assert!(
            report.backoff_regret < report.permanent_regret,
            "backoff regret {} must be strictly below permanent regret {}",
            report.backoff_regret,
            report.permanent_regret
        );
    }
}
