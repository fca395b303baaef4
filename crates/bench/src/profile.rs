//! Per-lock profile oracle: the chaos matrix under the metrics registry.
//!
//! Replays every cell of the chaos matrix (scenario × mode) with a
//! [`MetricsRegistry`] attached and produces, per scenario, a **ranked
//! attribution report**: which lock — and therefore which source-level
//! critical region — each policy's synchronization overhead comes from.
//!
//! Every cell doubles as a **consistency oracle**: the per-lock sums the
//! registry accumulates must equal the machine-wide [`ProcStats`]
//! aggregates *exactly* (both are virtual-time stamped and metrics never
//! route through a droppable buffer), so
//!
//! * `Σ` per-lock acquires  == machine acquires,
//! * `Σ` per-lock failed attempts == machine failed attempts,
//! * `Σ` per-lock locking time == machine lock time,
//! * `Σ` per-lock waiting time == machine wait time, and
//! * every acquire is matched by a release.
//!
//! The registry side and the stats side share no accumulation code path,
//! so agreement is a real end-to-end check of the attribution layer.
//! Everything is virtual-time stamped: the report text and the exported
//! JSON/Prometheus documents are byte-identical for every engine worker
//! count (CI enforces this).
//!
//! [`barnes_hut_profile`] additionally profiles the compiled Barnes-Hut
//! application, mapping lock ids back through the compiler's region
//! metadata ([`CompiledApp::lock_region_labels`]) to named source regions.

use crate::chaos::{self, ChaosApp, ChaosConfig, ChaosJobResult, ChaosMode, Scenario, SLOTS};
use crate::engine::{Engine, Filter, Job};
use crate::report::Table;
use dynfb_apps::{barnes_hut, BarnesHutConfig};
use dynfb_compiler::CompiledApp;
use dynfb_core::journal::NullJournal;
use dynfb_core::metrics::{lock_rows_json, profile_json, prometheus_text, MetricsRegistry};
use dynfb_core::trace::NullSink;
use dynfb_sim::{run_app_flight_recorded, ProcStats, RunConfig, SimApp};
use std::fmt::Write as _;
use std::time::Duration;

/// One chaos cell run under the metrics registry.
#[derive(Debug, Clone)]
pub struct MeteredMode {
    /// The harness-side measurements (identical to the unmetered cell —
    /// the registry must not perturb the simulation).
    pub result: ChaosJobResult,
    /// The per-lock profile the run accumulated.
    pub registry: MetricsRegistry,
    /// Machine-wide stats aggregates of the same run (the oracle's other
    /// half).
    pub totals: ProcStats,
}

/// Region label of machine lock `id` in the chaos workload: the shared
/// slots are `slot0..slot3`, anything else (there is nothing else today)
/// falls back to `lock{id}`.
#[must_use]
pub fn slot_label(id: usize) -> String {
    if id < SLOTS {
        format!("slot{id}")
    } else {
        format!("lock{id}")
    }
}

/// Run one (scenario, mode) chaos cell with a [`MetricsRegistry`] attached.
///
/// Uses the exact [`RunConfig`] the chaos harness builds via
/// [`chaos::mode_run_config`], so the metered run simulates the same
/// virtual execution byte for byte.
///
/// # Panics
///
/// Panics if the simulation fails (the harness only builds valid configs).
#[must_use]
pub fn run_mode_metered(cfg: &ChaosConfig, scenario: &Scenario, mode: ChaosMode) -> MeteredMode {
    let run = chaos::mode_run_config(cfg, scenario, mode);
    let mut registry = MetricsRegistry::new();
    let report = run_app_flight_recorded(
        ChaosApp::new(cfg.iters),
        &run,
        &mut NullSink,
        &mut NullJournal,
        &mut registry,
    )
    .expect("metered chaos run");
    let adaptation = match mode {
        ChaosMode::Static(_) => None,
        ChaosMode::Dynamic | ChaosMode::EventDriven => {
            Some(chaos::analyze_adaptation(&report, scenario.onset))
        }
    };
    MeteredMode {
        result: ChaosJobResult { outcome: chaos::mode_outcome(mode.name(), &report), adaptation },
        totals: report.stats.totals(),
        registry,
    }
}

/// The oracle's quantity comparisons for one metered cell:
/// `(quantity, per-lock sum, machine aggregate)` triples. All must be
/// exactly equal in virtual time.
#[must_use]
pub fn oracle_rows(cell: &MeteredMode) -> Vec<(&'static str, u128, u128)> {
    let sums = cell.registry.totals();
    let t = &cell.totals;
    vec![
        ("acquires", u128::from(sums.acquires), u128::from(t.acquires)),
        ("failed attempts", u128::from(sums.failed_attempts), u128::from(t.failed_attempts)),
        ("locking (ns)", sums.locking.as_nanos(), t.lock_time.as_nanos()),
        ("waiting (ns)", sums.waiting.as_nanos(), t.wait_time.as_nanos()),
        // The chaos workload releases every lock it takes; machine stats
        // have no release counter, so acquires is the reference.
        ("releases", u128::from(sums.releases), u128::from(t.acquires)),
    ]
}

/// True if every oracle quantity of `cell` agrees exactly.
#[must_use]
pub fn oracle_holds(cell: &MeteredMode) -> bool {
    oracle_rows(cell).iter().all(|(_, sum, machine)| sum == machine)
}

/// Everything the profile oracle produces in one sweep.
#[derive(Debug, Clone)]
pub struct ProfileReport {
    /// Rendered per-scenario oracle + attribution tables (deterministic).
    pub text: String,
    /// Whether every cell's per-lock sums matched the machine aggregates.
    pub consistent: bool,
    /// Deterministic `(filename, contents)` exports: per scenario one
    /// `{name}.json` (all modes) and one `{name}.prom` (the dynamic cell
    /// in Prometheus text exposition format).
    pub exports: Vec<(String, String)>,
}

fn micros(d: Duration) -> String {
    format!("{}", d.as_micros())
}

/// Render a histogram's p50/p95/p99 estimates as one table cell, `-` when
/// the histogram recorded nothing.
fn quantile_cell(h: &dynfb_core::metrics::Log2Histogram) -> String {
    match h.summary_quantiles() {
        Some((p50, p95, p99)) => format!("{p50}/{p95}/{p99}"),
        None => "-".to_string(),
    }
}

/// Render one scenario's oracle table: per mode, per quantity, the
/// registry's per-lock sum against the machine aggregate.
fn oracle_table(cfg: &ChaosConfig, scenario: &Scenario, cells: &[MeteredMode]) -> (String, bool) {
    let mut ok = true;
    let mut t = Table::new(
        &format!(
            "Profile oracle `{}` ({} iterations, {} procs)",
            scenario.name, cfg.iters, cfg.procs
        ),
        &["mode", "quantity", "per-lock sum", "machine", "agree"],
    );
    for cell in cells {
        for (name, sum, machine) in oracle_rows(cell) {
            let agree = sum == machine;
            ok &= agree;
            t.row(vec![
                cell.result.outcome.mode.clone(),
                name.to_string(),
                sum.to_string(),
                machine.to_string(),
                if agree { "yes" } else { "NO" }.to_string(),
            ]);
        }
    }
    t.note(if ok {
        "per-lock sums equal machine aggregates exactly in every mode".to_string()
    } else {
        format!("MISMATCH under `{}`: attribution lost lock events", scenario.name)
    });
    (t.to_console(), ok)
}

/// Render one scenario's ranked attribution table: every (mode, lock) row
/// with recorded activity, ranked by overhead (locking + waiting), the
/// per-region breakdown the whole subsystem exists to produce.
fn attribution_table(cfg: &ChaosConfig, scenario: &Scenario, cells: &[MeteredMode]) -> String {
    struct Row {
        mode_idx: usize,
        mode: String,
        lock: usize,
        m: dynfb_core::metrics::LockMetrics,
        share: f64,
    }
    let mut rows: Vec<Row> = Vec::new();
    for (mode_idx, cell) in cells.iter().enumerate() {
        let mode_overhead = cell.registry.totals().overhead();
        for (lock, m) in cell.registry.locks().iter().enumerate() {
            if m.is_empty() {
                continue;
            }
            let share = if mode_overhead.is_zero() {
                0.0
            } else {
                m.overhead().as_nanos() as f64 / mode_overhead.as_nanos() as f64
            };
            let mode = cell.result.outcome.mode.clone();
            rows.push(Row { mode_idx, mode, lock, m: *m, share });
        }
    }
    // Rank by overhead, worst first; ties resolve in (mode, lock) order so
    // the table is deterministic.
    rows.sort_by(|a, b| {
        b.m.overhead()
            .cmp(&a.m.overhead())
            .then(a.mode_idx.cmp(&b.mode_idx))
            .then(a.lock.cmp(&b.lock))
    });
    let mut t = Table::new(
        &format!("Overhead attribution `{}` (ranked by locking + waiting)", scenario.name),
        &[
            "rank",
            "mode",
            "region",
            "acquires",
            "contended",
            "failed",
            "locking (us)",
            "waiting (us)",
            "held (us)",
            "overhead (us)",
            "wait p50/p95/p99 (ns)",
            "share",
        ],
    );
    for (rank, r) in rows.iter().enumerate() {
        t.row(vec![
            (rank + 1).to_string(),
            r.mode.clone(),
            slot_label(r.lock),
            r.m.acquires.to_string(),
            r.m.contended_acquires.to_string(),
            r.m.failed_attempts.to_string(),
            micros(r.m.locking),
            micros(r.m.waiting),
            micros(r.m.held),
            micros(r.m.overhead()),
            quantile_cell(&r.m.wait_hist),
            format!("{:.1}%", r.share * 100.0),
        ]);
    }
    if let Some(worst) = rows.first() {
        t.note(format!(
            "worst region: {} under {} at {} us overhead ({} procs)",
            slot_label(worst.lock),
            worst.mode,
            micros(worst.m.overhead()),
            cfg.procs,
        ));
    }
    t.to_console()
}

/// One scenario's JSON export: every mode's non-empty lock rows.
fn scenario_json(scenario: &Scenario, cells: &[MeteredMode]) -> String {
    let modes: Vec<String> = cells
        .iter()
        .map(|cell| {
            format!(
                "{{\"mode\":\"{}\",\"locks\":{}}}",
                cell.result.outcome.mode,
                lock_rows_json(&cell.registry, slot_label)
            )
        })
        .collect();
    format!("{{\"scenario\":\"{}\",\"modes\":[{}]}}\n", scenario.name, modes.join(","))
}

/// Run the profile oracle over every chaos scenario, serially.
#[must_use]
pub fn profile_report(cfg: &ChaosConfig) -> ProfileReport {
    profile_report_with(cfg, &Engine::new(1), None)
}

/// Run the (optionally filtered) profile oracle on `engine`.
///
/// Per scenario this schedules one metered run per chaos mode — each as
/// one engine job — then checks the consistency oracle and renders the
/// ranked attribution tables. Results are reassembled in submission order,
/// so `text` and `exports` are byte-identical for every worker count.
///
/// # Panics
///
/// Panics if a simulation fails.
#[must_use]
pub fn profile_report_with(
    cfg: &ChaosConfig,
    engine: &Engine,
    filter: Option<&Filter>,
) -> ProfileReport {
    let selected: Vec<Scenario> = chaos::scenarios(cfg)
        .into_iter()
        .filter(|s| filter.is_none_or(|f| f.matches(s.name)))
        .collect();
    let modes = ChaosMode::all();
    let tasks: Vec<Job<'_, MeteredMode>> = selected
        .iter()
        .flat_map(|scenario| {
            modes.iter().map(move |&mode| {
                let task: Job<'_, MeteredMode> =
                    Box::new(move || run_mode_metered(cfg, scenario, mode));
                task
            })
        })
        .collect();
    let mut results = engine.run(tasks).into_iter().map(|t| t.value);

    let mut text = String::new();
    let _ = writeln!(
        text,
        "profile oracle: {} scenarios x {} modes under the metrics registry (seed {})\n",
        selected.len(),
        modes.len(),
        cfg.seed
    );
    let mut consistent = true;
    let mut exports = Vec::new();
    for scenario in &selected {
        let cells: Vec<MeteredMode> = results.by_ref().take(modes.len()).collect();
        let (oracle, ok) = oracle_table(cfg, scenario, &cells);
        consistent &= ok;
        text.push_str(&oracle);
        text.push('\n');
        text.push_str(&attribution_table(cfg, scenario, &cells));
        text.push('\n');
        exports.push((format!("{}.json", scenario.name), scenario_json(scenario, &cells)));
        let dynamic = cells.last().expect("dynamic cell is scheduled last");
        exports.push((
            format!("{}.prom", scenario.name),
            prometheus_text(&dynamic.registry, slot_label),
        ));
    }
    let _ = writeln!(
        text,
        "consistency: {}",
        if consistent {
            "per-lock profiles sum to the machine aggregates on every scenario"
        } else {
            "MISMATCH"
        }
    );
    ProfileReport { text, consistent, exports }
}

/// A profiled compiled-application run with region-labelled exports.
#[derive(Debug, Clone)]
pub struct CompiledProfile {
    /// Prometheus text exposition of the per-lock profile.
    pub prom: String,
    /// JSON document of the per-lock profile.
    pub json: String,
    /// Whether the consistency oracle held on this run.
    pub consistent: bool,
}

/// Profile a fixed-seed Barnes-Hut run under a static `policy`, labelling
/// each lock with the source-level critical regions the compiler carried
/// through its `lockplace`/`syncopt` metadata (e.g.
/// `body:one_interaction#0+one_interaction#1` under merged policies).
///
/// Deterministic: identical arguments produce byte-identical exports.
///
/// # Panics
///
/// Panics if the simulation fails or `policy` is unknown.
#[must_use]
pub fn barnes_hut_profile(bodies: usize, procs: usize, policy: &str) -> CompiledProfile {
    let mut app = barnes_hut(&BarnesHutConfig { bodies, steps: 1, ..BarnesHutConfig::default() });
    let mut registry = MetricsRegistry::new();
    let report = run_app_flight_recorded(
        &mut app,
        &RunConfig::fixed(procs, policy),
        &mut NullSink,
        &mut NullJournal,
        &mut registry,
    )
    .expect("barnes-hut profile run");
    let totals = report.stats.totals();
    let sums = registry.totals();
    let consistent = sums.acquires == totals.acquires
        && sums.failed_attempts == totals.failed_attempts
        && sums.locking == totals.lock_time
        && sums.waiting == totals.wait_time;
    let label = region_label_fn(&app, "forces", policy);
    CompiledProfile {
        prom: prometheus_text(&registry, &label),
        json: profile_json(&registry, &label),
        consistent,
    }
}

/// Lock-id → region-label function for a compiled app after a run: maps a
/// machine lock id through the app's lock pool to
/// [`CompiledApp::lock_region_labels`], falling back to `lock{id}` for ids
/// outside the pool (or past the live heap).
fn region_label_fn<'a>(
    app: &'a CompiledApp,
    section: &str,
    policy: &str,
) -> impl Fn(usize) -> String + 'a {
    let base = app.lock_pool_base().expect("setup ran");
    let version = app.version_for_policy(section, policy).expect("policy exists");
    let labels = app.lock_region_labels(section, version);
    move |id: usize| {
        id.checked_sub(base)
            .and_then(|obj| labels.get(obj))
            .cloned()
            .unwrap_or_else(|| format!("lock{id}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_labels_name_the_shared_slots() {
        assert_eq!(slot_label(0), "slot0");
        assert_eq!(slot_label(SLOTS - 1), format!("slot{}", SLOTS - 1));
        assert_eq!(slot_label(SLOTS), format!("lock{SLOTS}"));
    }

    #[test]
    fn metered_cell_passes_the_oracle_and_matches_the_plain_run() {
        let cfg = ChaosConfig { seed: 7, iters: 300, procs: 4 };
        let scenario = &chaos::scenarios(&cfg)[0];
        for mode in ChaosMode::all() {
            let metered = run_mode_metered(&cfg, scenario, mode);
            assert!(oracle_holds(&metered), "{:?}: {:?}", mode, oracle_rows(&metered));
            // The registry must not perturb the simulation.
            let plain = chaos::run_mode(&cfg, scenario, mode);
            assert_eq!(metered.result.outcome, plain.outcome, "{mode:?}");
        }
    }

    #[test]
    fn attribution_covers_every_slot() {
        let cfg = ChaosConfig { seed: 7, iters: 300, procs: 4 };
        let scenario = &chaos::scenarios(&cfg)[0];
        let cell = run_mode_metered(&cfg, scenario, ChaosMode::Static(0));
        // Iterations land on every slot round-robin, so all four slots
        // must carry activity — and nothing outside them.
        let locks = cell.registry.locks();
        assert_eq!(locks.len(), SLOTS);
        assert!(locks.iter().all(|m| m.acquires > 0));
    }
}
