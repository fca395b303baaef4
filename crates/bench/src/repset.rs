//! Representative-set selection harness: measure a parameterized policy
//! family, prune it, and prove the pruned build keeps the family's regret.
//!
//! Pipeline (all virtual-time, so every report and export is byte-identical
//! for any engine worker count and across reruns):
//!
//! 1. **Compile** the plasma application multi-versioned over the full
//!    [`Policy::family`] (≥10 policies; structural deduplication shares
//!    code between equivalent budgets, leaving the distinct versions).
//! 2. **Measure** every distinct version statically under a matrix of
//!    fault scenarios with the [`MetricsRegistry`] attached, reducing each
//!    run to per-scenario cells: the overhead share attributed to each
//!    *lock class* (mapped through the lock pool back to heap objects) and
//!    the excess elapsed time over the scenario's best version.
//! 3. **Cluster** the per-version cell vectors with the deterministic
//!    seeded k-medoids in [`dynfb_core::repset`] and keep one
//!    representative per cluster (≤ 4 by default).
//! 4. **Evaluate**: recompile with only the representatives' policies and
//!    run dynamic feedback under every scenario with both builds. The
//!    pruned build must stay within the configured factor of the full
//!    family's total time (it usually *wins*, since sampling cost is
//!    linear in the version count — the §5 model quantifies this in the
//!    report's pruning note).

use crate::engine::{Engine, Job};
use crate::report::{micros, Table};
use dynfb_apps::machine_config;
use dynfb_apps::plasma::{plasma_with_policies, PlasmaConfig, LOCK_CLASSES};
use dynfb_compiler::syncopt::Policy;
use dynfb_core::controller::ControllerConfig;
use dynfb_core::metrics::MetricsRegistry;
use dynfb_core::repset::{
    pruning_report, select_representatives, PolicyVector, RepSetConfig, Selection,
};
use dynfb_sim::{
    run_app_flight_recorded, run_app_ref, FaultKind, FaultPlan, RunConfig, SimApp, Target, Window,
};
use std::fmt::Write as _;
use std::time::Duration;

/// Harness parameters.
#[derive(Debug, Clone)]
pub struct RepSetBenchConfig {
    /// Seed for fault plans and the k-medoids initialization.
    pub seed: u64,
    /// Simulated processors.
    pub procs: usize,
    /// The plasma instance every run simulates.
    pub app: PlasmaConfig,
    /// Representative-set size cap (the acceptance bar is ≤ 4).
    pub representatives: usize,
    /// Gate: the pruned build's total dynamic time across scenarios must
    /// stay within this factor of the full family's.
    pub gate_factor: f64,
}

impl Default for RepSetBenchConfig {
    fn default() -> Self {
        RepSetBenchConfig {
            seed: 42,
            procs: 8,
            app: PlasmaConfig::default(),
            representatives: 4,
            gate_factor: 1.10,
        }
    }
}

impl RepSetBenchConfig {
    /// A smaller instance for tests: same structure, less simulated work.
    #[must_use]
    pub fn quick() -> Self {
        RepSetBenchConfig {
            app: PlasmaConfig { cells: 12, movers: 32, steps: 4, iterations: 2, seed: 42 },
            ..RepSetBenchConfig::default()
        }
    }

    /// The full policy family the harness measures.
    #[must_use]
    pub fn family(&self) -> Vec<Policy> {
        Policy::family(LOCK_CLASSES)
    }
}

/// One named fault scenario of the measurement matrix.
#[derive(Debug, Clone)]
pub struct RepSetScenario {
    /// Scenario name (report row key).
    pub name: &'static str,
    /// Always-on fault plan applied to every run of the scenario.
    pub plan: FaultPlan,
}

/// Machine lock ids per lock class, read from a throwaway baseline run
/// (the heap layout is a pure function of the compile inputs, so every
/// later run places the same objects under the same locks).
fn class_lock_ids(cfg: &RepSetBenchConfig) -> Vec<Vec<usize>> {
    let mut app = plasma_with_policies(&cfg.app, vec![Policy::Original]);
    let mut run = RunConfig::fixed(cfg.procs, "original");
    run.machine = machine_config();
    run_app_ref(&mut app, &run).expect("layout probe run");
    let base = app.lock_pool_base().expect("setup assigns the lock pool");
    let mut per = vec![Vec::new(); LOCK_CLASSES];
    for (i, o) in app.heap().objects.iter().enumerate() {
        if let Some(ids) = per.get_mut(o.class) {
            ids.push(base + i);
        }
    }
    per
}

/// The measurement scenarios: a clean baseline, contention storms hitting
/// all locks / only class-0 (cell) locks / only class-1 (mover) locks, and
/// a half-machine slowdown. The class-targeted storms are what separate
/// per-class hybrid policies from the classic endpoints.
#[must_use]
pub fn scenarios(cfg: &RepSetBenchConfig) -> Vec<RepSetScenario> {
    let storm = |locks: Target| FaultKind::ContentionStorm {
        locks,
        cost_factor: 20.0,
        extra_hold: Duration::from_micros(10),
    };
    let class_ids = class_lock_ids(cfg);
    let half: Vec<usize> = (0..cfg.procs / 2).collect();
    vec![
        RepSetScenario { name: "baseline", plan: FaultPlan::new(cfg.seed) },
        RepSetScenario {
            name: "storm-all",
            plan: FaultPlan::new(cfg.seed).with_event(Window::always(), storm(Target::All)),
        },
        RepSetScenario {
            name: "storm-cells",
            plan: FaultPlan::new(cfg.seed)
                .with_event(Window::always(), storm(Target::Only(class_ids[0].clone()))),
        },
        RepSetScenario {
            name: "storm-movers",
            plan: FaultPlan::new(cfg.seed)
                .with_event(Window::always(), storm(Target::Only(class_ids[1].clone()))),
        },
        RepSetScenario {
            name: "slowdown",
            plan: FaultPlan::new(cfg.seed).with_event(
                Window::always(),
                FaultKind::Slowdown { procs: Target::Only(half), factor: 8.0 },
            ),
        },
    ]
}

/// Controller for the dynamic evaluation runs. `num_policies` is sized by
/// the runtime from each build's actual version count, which is the whole
/// point: the pruned build samples fewer versions per sampling phase.
#[must_use]
pub fn repset_controller() -> ControllerConfig {
    ControllerConfig {
        target_sampling: Duration::from_micros(300),
        target_production: Duration::from_millis(5),
        ..ControllerConfig::default()
    }
}

/// One static metered measurement: a version under a scenario.
#[derive(Debug, Clone)]
pub struct MeasuredCell {
    /// Total virtual execution time.
    pub elapsed: Duration,
    /// Synchronization overhead (locking + waiting) attributed to each
    /// lock class, normalized by elapsed time. Overhead accumulates across
    /// processors, so a heavily contended class can exceed 1.
    pub class_share: Vec<f64>,
}

/// Run one (version, scenario) static cell with the registry attached and
/// reduce it to a [`MeasuredCell`]. `policy_key` is any policy name the
/// version implements (versions are named by `+`-joining their policies).
fn measure_cell(
    cfg: &RepSetBenchConfig,
    policy_key: &str,
    scenario: &RepSetScenario,
) -> MeasuredCell {
    let mut app = plasma_with_policies(&cfg.app, cfg.family());
    let mut run = RunConfig::fixed(cfg.procs, policy_key).with_faults(scenario.plan.clone());
    run.machine = machine_config();
    let mut registry = MetricsRegistry::new();
    let report = run_app_flight_recorded(&mut app, &run, &mut (), &mut (), &mut registry)
        .expect("repset measure run");
    let base = app.lock_pool_base().expect("setup assigns the lock pool");
    let elapsed = report.elapsed();
    let mut class_ns = [0u128; LOCK_CLASSES];
    for (id, m) in registry.locks().iter().enumerate() {
        if m.is_empty() {
            continue;
        }
        let Some(obj) = id.checked_sub(base) else { continue };
        let Some(o) = app.heap().objects.get(obj) else { continue };
        if let Some(ns) = class_ns.get_mut(o.class) {
            *ns += m.overhead().as_nanos();
        }
    }
    let total = elapsed.as_nanos().max(1);
    MeasuredCell {
        elapsed,
        class_share: class_ns.iter().map(|&ns| ns as f64 / total as f64).collect(),
    }
}

/// One dynamic evaluation run (full-family or pruned build) under a
/// scenario.
fn evaluate_run(
    cfg: &RepSetBenchConfig,
    policies: &[Policy],
    scenario: &RepSetScenario,
) -> Duration {
    let mut app = plasma_with_policies(&cfg.app, policies.to_vec());
    let mut run = RunConfig::dynamic(cfg.procs, repset_controller())
        .with_faults(scenario.plan.clone())
        .with_watchdog(8);
    run.machine = machine_config();
    run_app_ref(&mut app, &run).expect("repset evaluation run").elapsed()
}

/// Everything the harness produces in one sweep.
#[derive(Debug, Clone)]
pub struct RepSetReport {
    /// Rendered report (family, measurements, selection, evaluation).
    pub text: String,
    /// Just the selection table — the golden-file surface.
    pub selection_table: String,
    /// Deterministic JSON export.
    pub json: String,
    /// Distinct version names of the full-family build.
    pub versions: Vec<String>,
    /// The clustering outcome over those versions.
    pub selection: Selection,
    /// Policies the pruned build multi-versions.
    pub selected_policies: Vec<Policy>,
    /// Whether the pruned build stayed within the gate factor.
    pub gate_passed: bool,
}

/// Run the full harness serially.
#[must_use]
pub fn repset_report(cfg: &RepSetBenchConfig) -> RepSetReport {
    repset_report_with(cfg, &Engine::new(1))
}

/// Run the full harness with measurement and evaluation cells scheduled on
/// `engine`. Results are reassembled in submission order and all quantities
/// are virtual-time, so the report is byte-identical for every worker
/// count.
///
/// # Panics
///
/// Panics if a simulation fails or the clustering input is degenerate —
/// the harness only builds valid configurations, so either is a bug.
#[must_use]
pub fn repset_report_with(cfg: &RepSetBenchConfig, engine: &Engine) -> RepSetReport {
    let family = cfg.family();
    let full_app = plasma_with_policies(&cfg.app, family.clone());
    let section = "advance";
    let versions: Vec<String> =
        full_app.sections()[section].versions.iter().map(|v| v.name.clone()).collect();
    // Any component policy identifies its version for a static run.
    let keys: Vec<String> = versions
        .iter()
        .map(|v| v.split('+').next().expect("non-empty version name").to_string())
        .collect();
    let scens = scenarios(cfg);

    // Wave 1: measure every (version, scenario) cell.
    let tasks: Vec<Job<'_, MeasuredCell>> = keys
        .iter()
        .flat_map(|key| {
            scens.iter().map(move |scenario| {
                let task: Job<'_, MeasuredCell> =
                    Box::new(move || measure_cell(cfg, key, scenario));
                task
            })
        })
        .collect();
    let cells: Vec<MeasuredCell> = engine.run(tasks).into_iter().map(|t| t.value).collect();
    let cell = |vi: usize, si: usize| &cells[vi * scens.len() + si];

    // Per-scenario oracle (best static elapsed) for the excess dimension
    // and the evaluation regret.
    let oracle: Vec<Duration> = (0..scens.len())
        .map(|si| (0..versions.len()).map(|vi| cell(vi, si).elapsed).min().expect("versions"))
        .collect();

    // Vectors: per scenario, the per-class overhead shares plus the excess
    // time over the scenario oracle.
    let vectors: Vec<PolicyVector> = versions
        .iter()
        .enumerate()
        .map(|(vi, name)| {
            let mut dims = Vec::new();
            for (si, best) in oracle.iter().enumerate() {
                let c = cell(vi, si);
                dims.extend(c.class_share.iter().copied());
                let excess = c.elapsed.as_nanos() as f64 / best.as_nanos().max(1) as f64;
                dims.push(excess - 1.0);
            }
            PolicyVector { name: name.clone(), cells: dims }
        })
        .collect();

    let selection = select_representatives(
        &vectors,
        &RepSetConfig { representatives: cfg.representatives, seed: cfg.seed, max_rounds: 64 },
    )
    .expect("clustering input is well-formed");

    // Map each representative version back to the first family policy that
    // compiles to it; the pruned build multi-versions exactly those.
    let selected_policies: Vec<Policy> = selection
        .medoids
        .iter()
        .map(|&vi| {
            *family
                .iter()
                .find(|p| full_app.version_for_policy(section, &p.name()) == Some(vi))
                .expect("every version comes from a family policy")
        })
        .collect();

    // Wave 2: dynamic evaluation, full family vs pruned build.
    let builds: [&[Policy]; 2] = [&family, &selected_policies];
    let eval_tasks: Vec<Job<'_, Duration>> = builds
        .iter()
        .flat_map(|policies| {
            scens.iter().map(move |scenario| {
                let task: Job<'_, Duration> =
                    Box::new(move || evaluate_run(cfg, policies, scenario));
                task
            })
        })
        .collect();
    let evals: Vec<Duration> = engine.run(eval_tasks).into_iter().map(|t| t.value).collect();
    let (full_dyn, subset_dyn) = evals.split_at(scens.len());
    let total = |ds: &[Duration]| ds.iter().sum::<Duration>();
    let (full_total, subset_total) = (total(full_dyn), total(subset_dyn));
    let gate_passed =
        subset_total.as_nanos() as f64 <= cfg.gate_factor * full_total.as_nanos() as f64;

    // ---- Rendering ----
    let mut text = String::new();
    let _ = writeln!(
        text,
        "repset: {} policies -> {} versions -> {} representatives on plasma \
         ({} cells, {} movers, {} steps x {} iterations, {} procs, seed {})\n",
        family.len(),
        versions.len(),
        selection.medoids.len(),
        cfg.app.cells,
        cfg.app.movers,
        cfg.app.steps,
        cfg.app.iterations,
        cfg.procs,
        cfg.seed
    );

    // Family table: policy -> compiled version, with per-version code size.
    let sizes = full_app.version_code_sizes();
    let size_of = |version: &str| {
        sizes
            .iter()
            .find(|(s, v, _)| s == section && v == version)
            .map_or(0, |(_, _, bytes)| *bytes)
    };
    let mut t = Table::new(
        "Policy family -> compiled versions (structural deduplication)",
        &["policy", "version", "code bytes"],
    );
    for p in &family {
        let vi = full_app.version_for_policy(section, &p.name()).expect("family policy");
        t.row(vec![p.name(), versions[vi].clone(), size_of(&versions[vi]).to_string()]);
    }
    let full_bytes: usize = versions.iter().map(|v| size_of(v)).sum();
    let subset_bytes: usize = selection.medoids.iter().map(|&vi| size_of(&versions[vi])).sum();
    t.note(format!(
        "multi-versioned code: {full_bytes} bytes full family, {subset_bytes} bytes pruned"
    ));
    text.push_str(&t.to_console());
    text.push('\n');

    // Measurement matrix.
    let mut t = Table::new(
        "Measured overhead matrix (per scenario: lock-class overhead shares, excess vs oracle)",
        &["version", "scenario", "cell share", "mover share", "elapsed (us)", "excess"],
    );
    for (vi, name) in versions.iter().enumerate() {
        for (si, s) in scens.iter().enumerate() {
            let c = cell(vi, si);
            let excess = c.elapsed.as_nanos() as f64 / oracle[si].as_nanos().max(1) as f64 - 1.0;
            t.row(vec![
                name.clone(),
                s.name.to_string(),
                format!("{:.4}", c.class_share[0]),
                format!("{:.4}", c.class_share[1]),
                micros(c.elapsed),
                format!("{excess:.4}"),
            ]);
        }
    }
    text.push_str(&t.to_console());
    text.push('\n');

    // Selection table (the golden surface).
    let mut t = Table::new(
        "Representative selection (seeded k-medoids over measured overhead vectors)",
        &["version", "cluster", "representative", "distance to medoid"],
    );
    for (vi, name) in versions.iter().enumerate() {
        let cluster = selection.assignment[vi];
        let medoid = selection.medoids[cluster];
        let d = dynfb_core::repset::distance(&vectors[vi].cells, &vectors[medoid].cells);
        t.row(vec![
            name.clone(),
            cluster.to_string(),
            if medoid == vi { "yes" } else { "" }.to_string(),
            format!("{d:.4}"),
        ]);
    }
    t.note(format!(
        "k-medoids: seed {}, {} round(s), total distance {:.4}",
        cfg.seed, selection.rounds, selection.total_distance
    ));
    let pruning = pruning_report(
        repset_controller().target_sampling.as_secs_f64(),
        0.065,
        versions.len(),
        selection.medoids.len(),
    )
    .expect("valid pruning parameters");
    t.note(format!(
        "sampling cost S*N per cycle: {:.1} ms full -> {:.1} ms pruned ({:.2}x); \
         optimal production interval {:.2} s -> {:.2} s",
        pruning.sampling_full * 1e3,
        pruning.sampling_selected * 1e3,
        pruning.sampling_ratio,
        pruning.p_opt_full,
        pruning.p_opt_selected,
    ));
    let selection_table = t.to_console();
    text.push_str(&selection_table);
    text.push('\n');

    // Evaluation table.
    let mut t = Table::new(
        "Dynamic evaluation: full family vs pruned representative build",
        &[
            "scenario",
            "oracle (us)",
            "full dynamic (us)",
            "pruned dynamic (us)",
            "full regret (us)",
            "pruned regret (us)",
        ],
    );
    for (si, s) in scens.iter().enumerate() {
        let regret = |d: Duration| d.as_micros() as i128 - oracle[si].as_micros() as i128;
        t.row(vec![
            s.name.to_string(),
            micros(oracle[si]),
            micros(full_dyn[si]),
            micros(subset_dyn[si]),
            format!("{:+}", regret(full_dyn[si])),
            format!("{:+}", regret(subset_dyn[si])),
        ]);
    }
    t.note(format!(
        "totals: full {} us, pruned {} us; gate pruned <= {:.2}x full: {}",
        micros(full_total),
        micros(subset_total),
        cfg.gate_factor,
        if gate_passed { "PASS" } else { "FAIL" }
    ));
    text.push_str(&t.to_console());

    // ---- JSON export ----
    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"repset\",\n  \"app\": \"plasma\",\n");
    let _ = writeln!(json, "  \"seed\": {},", cfg.seed);
    let _ = writeln!(json, "  \"procs\": {},", cfg.procs);
    let _ = writeln!(json, "  \"family_policies\": {},", family.len());
    let quoted =
        |names: &[String]| names.iter().map(|n| format!("\"{n}\"")).collect::<Vec<_>>().join(", ");
    let _ = writeln!(json, "  \"versions\": [{}],", quoted(&versions));
    let medoid_names: Vec<String> =
        selection.medoids.iter().map(|&vi| versions[vi].clone()).collect();
    let _ = writeln!(json, "  \"representatives\": [{}],", quoted(&medoid_names));
    let policy_names: Vec<String> = selected_policies.iter().map(|p| p.name()).collect();
    let _ = writeln!(json, "  \"selected_policies\": [{}],", quoted(&policy_names));
    let _ = writeln!(
        json,
        "  \"assignment\": [{}],",
        selection.assignment.iter().map(ToString::to_string).collect::<Vec<_>>().join(", ")
    );
    let _ = writeln!(json, "  \"total_distance\": {:.6},", selection.total_distance);
    let _ = writeln!(json, "  \"code_bytes_full\": {full_bytes},");
    let _ = writeln!(json, "  \"code_bytes_pruned\": {subset_bytes},");
    let _ = writeln!(json, "  \"sampling_ratio\": {:.6},", pruning.sampling_ratio);
    json.push_str("  \"evaluation\": [\n");
    for (si, s) in scens.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"scenario\": \"{}\", \"oracle_us\": {}, \"full_us\": {}, \
             \"pruned_us\": {}}}{}",
            s.name,
            oracle[si].as_micros(),
            full_dyn[si].as_micros(),
            subset_dyn[si].as_micros(),
            if si + 1 < scens.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(json, "  \"full_total_us\": {},", full_total.as_micros());
    let _ = writeln!(json, "  \"pruned_total_us\": {},", subset_total.as_micros());
    let _ = writeln!(json, "  \"gate_factor\": {:.2},", cfg.gate_factor);
    let _ = writeln!(json, "  \"gate_passed\": {gate_passed}");
    json.push_str("}\n");

    RepSetReport {
        text,
        selection_table,
        json,
        versions,
        selection,
        selected_policies,
        gate_passed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_harness_selects_a_small_representative_set() {
        let cfg = RepSetBenchConfig::quick();
        let report = repset_report(&cfg);
        assert!(cfg.family().len() >= 10);
        assert!(report.versions.len() >= 5, "{:?}", report.versions);
        assert!(report.selection.medoids.len() <= 4);
        assert_eq!(report.selected_policies.len(), report.selection.medoids.len());
        assert!(report.gate_passed, "{}", report.text);
    }

    #[test]
    fn scenarios_target_real_lock_classes() {
        let cfg = RepSetBenchConfig::quick();
        let scens = scenarios(&cfg);
        assert_eq!(scens.len(), 5);
        let names: Vec<&str> = scens.iter().map(|s| s.name).collect();
        assert_eq!(names, ["baseline", "storm-all", "storm-cells", "storm-movers", "slowdown"]);
    }
}
