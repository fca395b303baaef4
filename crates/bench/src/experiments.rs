//! The experiment implementations behind every table and figure.
//!
//! Each experiment declares the **job list** it needs — one [`RunKey`] per
//! simulated run — and a render function that assembles its tables from a
//! [`ResultStore`] of completed runs. The [`engine`](crate::engine)
//! executes the deduplicated union of all job lists across host threads;
//! because the store is keyed and iterated in canonical [`RunKey`] order,
//! every artifact assembled from it (`EXPERIMENTS.md`,
//! `BENCH_RESULTS.json`) is byte-identical regardless of `--jobs`.
//!
//! Problem sizes are scaled (the shapes, not the absolute numbers, are the
//! claim being reproduced) and come in two sizes: [`Scale::full`] for the
//! committed artifacts and [`Scale::quick`] for the reduced matrix used by
//! CI's serial-vs-parallel diff and the equivalence tests.

use crate::engine::{Engine, Filter};
use crate::report::{millis, secs, Table};
use dynfb_apps::{
    barnes_hut, run_dynamic, run_fixed, string_app, water, BarnesHutConfig, StringConfig,
    WaterConfig,
};
use dynfb_compiler::artifact::CodeSizeReport;
use dynfb_compiler::CompiledApp;
use dynfb_core::controller::ControllerConfig;
use dynfb_core::theory::Analysis;
use dynfb_sim::{run_app_ref, AppReport, RunMode, SectionKind};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt::Write as _;
use std::time::Duration;

/// Processor counts swept by the full-scale execution-time experiments
/// (the paper's Tables 2 and 7 use 1–16 processors on DASH).
pub const PROCS: [usize; 6] = [1, 2, 4, 8, 12, 16];

/// The static policies, in sampling order, plus display names.
pub const POLICIES: [(&str, &str); 3] =
    [("original", "Original"), ("bounded", "Bounded"), ("aggressive", "Aggressive")];

/// The three applications, in report order.
pub const APPS: [&str; 3] = ["Barnes-Hut", "Water", "String"];

/// Target sampling interval of the benchmark controller (1 ms — small
/// relative to our scaled section lengths, as the paper's 10 ms was to
/// theirs).
pub const BENCH_SAMPLING: Duration = Duration::from_millis(1);
/// Target production interval of the benchmark controller — long enough
/// that each section execution is one sampling phase plus one production
/// phase.
pub const BENCH_PRODUCTION: Duration = Duration::from_secs(100);
/// Sampling interval for the overhead time-series figures.
const SERIES_SAMPLING: Duration = Duration::from_millis(1);
/// Production interval for the overhead time-series figures.
const SERIES_PRODUCTION: Duration = Duration::from_millis(8);
/// Near-zero target sampling interval used to measure the *minimum
/// effective* sampling intervals (§4.1).
const MIN_INTERVAL_SAMPLING: Duration = Duration::from_nanos(1);
/// Production interval for the effective-sampling-interval runs.
const MIN_INTERVAL_PRODUCTION: Duration = Duration::from_millis(5);

/// One benchmark application: how to build it and which parallel section
/// its detailed experiments target.
pub struct AppSpec {
    /// Display name.
    pub name: &'static str,
    /// Builder (each run needs a fresh app). `Send + Sync` so the engine
    /// can build apps on worker threads.
    pub build: Box<dyn Fn() -> CompiledApp + Send + Sync>,
    /// The computationally intensive section (FORCES / INTERF / POTENG /
    /// trace_rays) used for the per-section experiments.
    pub main_section: &'static str,
}

impl std::fmt::Debug for AppSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AppSpec({})", self.name)
    }
}

/// Problem sizes and sweep shapes for one run of the reproduction.
#[derive(Debug, Clone)]
pub struct Scale {
    /// `"full"` or `"quick"` (recorded in `BENCH_RESULTS.json`).
    pub name: &'static str,
    /// Processor counts for the execution-time/waiting sweeps.
    pub procs: Vec<usize>,
    /// Processor count for the per-section detail experiments (locking,
    /// series, effective intervals, sweeps, instrumentation).
    pub detail_procs: usize,
    /// Target sampling intervals for the interval-sensitivity sweeps.
    pub sweep_samplings: Vec<Duration>,
    /// Target production intervals for the interval-sensitivity sweeps.
    pub sweep_productions: Vec<Duration>,
    /// Barnes-Hut instance.
    pub bh: BarnesHutConfig,
    /// Water instance.
    pub water: WaterConfig,
    /// String instance.
    pub string: StringConfig,
}

impl Scale {
    /// The benchmark scale behind the committed `EXPERIMENTS.md`.
    #[must_use]
    pub fn full() -> Self {
        Scale {
            name: "full",
            procs: PROCS.to_vec(),
            detail_procs: 8,
            sweep_samplings: vec![
                Duration::from_micros(100),
                Duration::from_millis(1),
                Duration::from_millis(10),
            ],
            sweep_productions: vec![
                Duration::from_millis(10),
                Duration::from_millis(50),
                Duration::from_millis(100),
                Duration::from_secs(1),
            ],
            bh: BarnesHutConfig { bodies: 1024, steps: 2, ..BarnesHutConfig::default() },
            water: WaterConfig { molecules: 192, steps: 2, ..WaterConfig::default() },
            string: StringConfig {
                nx: 32,
                nz: 32,
                rays: 384,
                steps_per_ray: 48,
                iterations: 2,
                ..StringConfig::default()
            },
        }
    }

    /// The reduced matrix: small instances, two processor counts, 2×2
    /// sweeps. Used by CI's `--jobs 1` vs `--jobs 4` diff and by the
    /// serial-vs-parallel equivalence tests.
    #[must_use]
    pub fn quick() -> Self {
        Scale {
            name: "quick",
            procs: vec![1, 4],
            detail_procs: 4,
            sweep_samplings: vec![Duration::from_millis(1), Duration::from_millis(10)],
            sweep_productions: vec![Duration::from_millis(10), Duration::from_millis(100)],
            bh: BarnesHutConfig { bodies: 96, steps: 1, ..BarnesHutConfig::default() },
            water: WaterConfig { molecules: 48, steps: 1, ..WaterConfig::default() },
            string: StringConfig {
                nx: 8,
                nz: 8,
                rays: 64,
                steps_per_ray: 16,
                iterations: 1,
                ..StringConfig::default()
            },
        }
    }

    /// The application specs at this scale, in [`APPS`] order.
    #[must_use]
    pub fn specs(&self) -> Vec<AppSpec> {
        let bh = self.bh.clone();
        let wt = self.water.clone();
        let st = self.string.clone();
        vec![
            AppSpec {
                name: "Barnes-Hut",
                build: Box::new(move || barnes_hut(&bh)),
                main_section: "forces",
            },
            AppSpec { name: "Water", build: Box::new(move || water(&wt)), main_section: "poteng" },
            AppSpec {
                name: "String",
                build: Box::new(move || string_app(&st)),
                main_section: "trace_rays",
            },
        ]
    }
}

/// The dynamic-feedback controller used for benchmark runs.
#[must_use]
pub fn bench_controller() -> ControllerConfig {
    ControllerConfig {
        num_policies: 3,
        target_sampling: BENCH_SAMPLING,
        target_production: BENCH_PRODUCTION,
        ..ControllerConfig::default()
    }
}

// ---------------------------------------------------------------- job model

/// What kind of run a job performs.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Variant {
    /// Build the app and report code sizes without running it.
    CodeSize,
    /// Uninstrumented serial run.
    Serial,
    /// A fixed-policy run.
    Static {
        /// Policy name (`original` / `bounded` / `aggressive`).
        policy: &'static str,
        /// Whether instrumentation (counters + timer polls) is compiled in.
        instrumented: bool,
    },
    /// A dynamic-feedback run.
    Dynamic {
        /// Target sampling interval.
        sampling: Duration,
        /// Target production interval.
        production: Duration,
        /// Whether intervals may span section executions (§4.4).
        span: bool,
    },
}

impl Variant {
    /// Stable identifier used in job ids and `BENCH_RESULTS.json`.
    #[must_use]
    pub fn id(&self) -> String {
        match self {
            Variant::CodeSize => "code-size".to_string(),
            Variant::Serial => "serial".to_string(),
            Variant::Static { policy, instrumented } => {
                format!("static-{policy}{}", if *instrumented { "-instr" } else { "" })
            }
            Variant::Dynamic { sampling, production, span } => format!(
                "dynamic-s{}ns-p{}ns{}",
                sampling.as_nanos(),
                production.as_nanos(),
                if *span { "-span" } else { "" }
            ),
        }
    }
}

/// Canonical identity of one simulated run. The total [`Ord`] on keys *is*
/// the canonical aggregation order.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RunKey {
    /// Application display name (one of [`APPS`]).
    pub app: &'static str,
    /// What to run.
    pub variant: Variant,
    /// Simulated processor count.
    pub procs: usize,
}

impl RunKey {
    /// Stable job id, e.g. `Water/static-bounded/p8`.
    #[must_use]
    pub fn id(&self) -> String {
        format!("{}/{}/p{}", self.app, self.variant.id(), self.procs)
    }
}

/// Everything one job measures. Pure function of its [`RunKey`] and the
/// [`Scale`], so the store contents never depend on scheduling.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The key this outcome answers.
    pub key: RunKey,
    /// Code sizes of the build (available for every variant).
    pub code_sizes: CodeSizeReport,
    /// Section name → version names, from the compiled app.
    pub section_versions: BTreeMap<String, Vec<String>>,
    /// The simulation report (`None` for [`Variant::CodeSize`]).
    pub report: Option<AppReport>,
}

impl RunOutcome {
    /// The report of a job that ran the simulator.
    ///
    /// # Panics
    ///
    /// Panics for [`Variant::CodeSize`] jobs.
    #[must_use]
    pub fn report(&self) -> &AppReport {
        self.report
            .as_ref()
            .unwrap_or_else(|| panic!("{} did not run the simulator", self.key.id()))
    }

    /// Virtual elapsed time of the run.
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.report().elapsed()
    }

    /// Version names of `section`, as compiled.
    #[must_use]
    pub fn versions_of(&self, section: &str) -> Vec<String> {
        self.section_versions.get(section).cloned().unwrap_or_default()
    }
}

/// Completed runs, keyed and iterated in canonical order.
pub type ResultStore = BTreeMap<RunKey, RunOutcome>;

/// Execute one job.
///
/// # Panics
///
/// Panics if the simulation fails — the suite only emits valid configs, so
/// a failure is a bug worth a loud stop.
#[must_use]
pub fn execute(spec: &AppSpec, key: &RunKey) -> RunOutcome {
    let mut app = (spec.build)();
    let code_sizes = app.code_sizes();
    let section_versions: BTreeMap<String, Vec<String>> = app
        .sections()
        .iter()
        .map(|(name, s)| (name.clone(), s.versions.iter().map(|v| v.name.clone()).collect()))
        .collect();
    let report = match &key.variant {
        Variant::CodeSize => None,
        Variant::Serial => {
            Some(run_app_ref(&mut app, &run_fixed(key.procs, "serial")).expect("serial run"))
        }
        Variant::Static { policy, instrumented } => {
            let mut cfg = run_fixed(key.procs, policy);
            if *instrumented {
                cfg.mode = RunMode::Static { policy: (*policy).to_string(), instrumented: true };
            }
            Some(run_app_ref(&mut app, &cfg).expect("static run"))
        }
        Variant::Dynamic { sampling, production, span } => {
            let ctl = ControllerConfig {
                num_policies: 3,
                target_sampling: *sampling,
                target_production: *production,
                ..ControllerConfig::default()
            };
            let mut cfg = run_dynamic(key.procs, ctl);
            cfg.span_intervals = *span;
            Some(run_app_ref(&mut app, &cfg).expect("dynamic run"))
        }
    };
    RunOutcome { key: key.clone(), code_sizes, section_versions, report }
}

fn k_code(app: &'static str) -> RunKey {
    RunKey { app, variant: Variant::CodeSize, procs: 1 }
}

fn k_serial(app: &'static str) -> RunKey {
    RunKey { app, variant: Variant::Serial, procs: 1 }
}

fn k_static(app: &'static str, policy: &'static str, procs: usize) -> RunKey {
    RunKey { app, variant: Variant::Static { policy, instrumented: false }, procs }
}

fn k_instr(app: &'static str, policy: &'static str, procs: usize) -> RunKey {
    RunKey { app, variant: Variant::Static { policy, instrumented: true }, procs }
}

fn k_dyn(
    app: &'static str,
    sampling: Duration,
    production: Duration,
    span: bool,
    procs: usize,
) -> RunKey {
    RunKey { app, variant: Variant::Dynamic { sampling, production, span }, procs }
}

fn k_bench_dyn(app: &'static str, span: bool, procs: usize) -> RunKey {
    k_dyn(app, BENCH_SAMPLING, BENCH_PRODUCTION, span, procs)
}

fn get<'a>(store: &'a ResultStore, key: &RunKey) -> &'a RunOutcome {
    store.get(key).unwrap_or_else(|| panic!("missing run {} in result store", key.id()))
}

// --------------------------------------------------------------- renderers

fn table_code_sizes_from(store: &ResultStore) -> Table {
    let mut t = Table::new(
        "Table 1: Executable Code Sizes (bytes of generated IR)",
        &["Application", "Serial", "Original", "Bounded", "Aggressive", "Dynamic"],
    );
    for app in APPS {
        let s = get(store, &k_code(app)).code_sizes;
        t.row(vec![
            app.to_string(),
            s.serial.to_string(),
            s.original.to_string(),
            s.bounded.to_string(),
            s.aggressive.to_string(),
            s.dynamic.to_string(),
        ]);
    }
    t.note("Dynamic shares functions that are identical across policy versions (closed-subgraph sharing), keeping multi-version code growth small — the paper's Table 1 observation.");
    t
}

/// Figure 3: the feasible region for the production interval, and the
/// optimal production interval, for the paper's example values
/// (S = 1, N = 2, λ = 0.065, ε = 0.5). Pure computation — no jobs.
#[must_use]
pub fn figure3_feasible_region() -> Table {
    let a = Analysis::new(1.0, 2, 0.065).expect("valid");
    let eps = 0.5;
    let mut t = Table::new(
        "Figure 3: Feasible Region for Production Interval P (S=1, N=2, lambda=0.065, eps=0.5)",
        &["P (s)", "(1-eps)P + e^{-lP}/l", "constraint", "feasible"],
    );
    let rhs = a.constraint_rhs(eps);
    for i in 0..=20 {
        let p = 2.0 + f64::from(i) * 2.0;
        let lhs = a.constraint_lhs(p, eps);
        t.row(vec![
            format!("{p:.1}"),
            format!("{lhs:.4}"),
            format!("{rhs:.4}"),
            (lhs <= rhs).to_string(),
        ]);
    }
    let region = a.feasible_region(eps).expect("eps ok").expect("region exists");
    let p_opt = a.optimal_production_interval();
    t.note(format!("feasible region: [{:.2}, {:.2}] s", region.0, region.1));
    t.note(format!("optimal production interval P_opt = {p_opt:.2} s (paper: ~7.25)"));
    t
}

fn times_keys(app: &'static str, scale: &Scale) -> Vec<RunKey> {
    let mut keys = vec![k_serial(app)];
    for &p in &scale.procs {
        for (policy, _) in POLICIES {
            keys.push(k_static(app, policy, p));
        }
        keys.push(k_bench_dyn(app, false, p));
        keys.push(k_bench_dyn(app, true, p));
    }
    keys
}

fn execution_times_from(store: &ResultStore, app: &'static str, scale: &Scale) -> (Table, Table) {
    let proc_header: Vec<String> = std::iter::once("Version".to_string())
        .chain(scale.procs.iter().map(ToString::to_string))
        .collect();
    let mut times = Table::new_owned(
        &format!("Execution Times for {app} (virtual seconds)"),
        proc_header.clone(),
    );
    let serial_time = get(store, &k_serial(app)).elapsed();
    let mut serial_row = vec!["Serial".to_string(), secs(serial_time)];
    serial_row.extend(scale.procs.iter().skip(1).map(|_| String::new()));
    times.row(serial_row);

    let mut speedups = Table::new_owned(&format!("Speedups for {app} (vs. serial)"), proc_header);

    let mut run_row = |label: &str, key_of: &dyn Fn(usize) -> RunKey| {
        let mut trow = vec![label.to_string()];
        let mut srow = vec![label.to_string()];
        for &p in &scale.procs {
            let elapsed = get(store, &key_of(p)).elapsed();
            trow.push(secs(elapsed));
            srow.push(format!("{:.2}", serial_time.as_secs_f64() / elapsed.as_secs_f64()));
        }
        times.row(trow);
        speedups.row(srow);
    };
    for (policy, label) in POLICIES {
        run_row(label, &|p| k_static(app, policy, p));
    }
    run_row("Dynamic", &|p| k_bench_dyn(app, false, p));
    run_row("Dynamic (span)", &|p| k_bench_dyn(app, true, p));
    times.note("Static versions run uninstrumented; the Dynamic version carries instrumentation and timer polling, as in the paper. `Dynamic (span)` additionally lets intervals span section executions (the paper's own §4.4 proposal), which removes the per-execution resampling cost that dominates when sections are short relative to the sampling phase.");
    (times, speedups)
}

fn locking_keys(app: &'static str, scale: &Scale) -> Vec<RunKey> {
    let p = scale.detail_procs;
    let mut keys: Vec<RunKey> =
        POLICIES.iter().map(|(policy, _)| k_static(app, policy, p)).collect();
    keys.push(k_bench_dyn(app, false, p));
    keys
}

fn locking_overhead_from(store: &ResultStore, app: &'static str, scale: &Scale) -> Table {
    let p = scale.detail_procs;
    let mut t = Table::new(
        &format!("Locking Overhead for {app}"),
        &["Version", "Acquire/Release Pairs", "Locking Overhead (s)"],
    );
    let mut push = |label: &str, key: &RunKey| {
        let tot = get(store, key).report().stats.totals();
        t.row(vec![
            label.to_string(),
            tot.acquires.to_string(),
            format!("{:.4}", tot.lock_time.as_secs_f64()),
        ]);
    };
    for (policy, label) in POLICIES {
        push(label, &k_static(app, policy, p));
    }
    push("Dynamic", &k_bench_dyn(app, false, p));
    t.note(format!("Counts from {p}-processor runs; static counts do not vary with processors."));
    t
}

fn waiting_keys(app: &'static str, scale: &Scale) -> Vec<RunKey> {
    scale
        .procs
        .iter()
        .flat_map(|&p| POLICIES.iter().map(move |(policy, _)| k_static(app, policy, p)))
        .collect()
}

fn waiting_proportion_from(store: &ResultStore, app: &'static str, scale: &Scale) -> Table {
    let header: Vec<String> = std::iter::once("Version".to_string())
        .chain(scale.procs.iter().map(ToString::to_string))
        .collect();
    let mut t = Table::new_owned(&format!("Waiting Proportion for {app} (Figure 7)"), header);
    for (policy, label) in POLICIES {
        let mut row = vec![label.to_string()];
        for &p in &scale.procs {
            let r = get(store, &k_static(app, policy, p)).report();
            row.push(format!("{:.3}", r.stats.waiting_proportion()));
        }
        t.row(row);
    }
    t
}

fn series_key(app: &'static str, scale: &Scale) -> RunKey {
    k_dyn(app, SERIES_SAMPLING, SERIES_PRODUCTION, false, scale.detail_procs)
}

fn overhead_series_from(
    store: &ResultStore,
    app: &'static str,
    section: &str,
    scale: &Scale,
) -> Table {
    let outcome = get(store, &series_key(app, scale));
    let version_names = outcome.versions_of(section);
    let mut t = Table::new(
        &format!(
            "Sampled Overhead for the {app} {section} Section on {} Processors",
            scale.detail_procs
        ),
        &["Time (s)", "Version", "Phase", "Overhead"],
    );
    for exec in outcome.report().section(section) {
        for r in &exec.records {
            let name =
                version_names.get(r.version).cloned().unwrap_or_else(|| format!("v{}", r.version));
            let phase = if r.phase.is_sampling() { "sampling" } else { "production" };
            t.row(vec![
                format!("{:.4}", r.at.as_secs_f64()),
                name,
                phase.to_string(),
                format!("{:.3}", r.overhead),
            ]);
        }
    }
    t.note("Gaps between section executions correspond to other serial/parallel sections, as in the paper's time-series figures.");
    t
}

fn section_stats_from(store: &ResultStore, app: &'static str, sections: &[&str]) -> Table {
    let report = get(store, &k_serial(app)).report();
    let mut t = Table::new(
        &format!("Parallel Section Statistics for {app}"),
        &["Section", "Mean Section Size (s)", "Iterations", "Mean Iteration Size (ms)"],
    );
    for &name in sections {
        let execs: Vec<_> = report.section(name).collect();
        if execs.is_empty() {
            continue;
        }
        let mean = execs.iter().map(|e| e.duration()).sum::<Duration>()
            / u32::try_from(execs.len()).unwrap_or(u32::MAX);
        let iters = execs[0].iterations;
        let iter_size = mean / u32::try_from(iters.max(1)).unwrap_or(u32::MAX);
        t.row(vec![name.to_string(), secs(mean), iters.to_string(), millis(iter_size)]);
    }
    t
}

fn intervals_key(app: &'static str, scale: &Scale) -> RunKey {
    k_dyn(app, MIN_INTERVAL_SAMPLING, MIN_INTERVAL_PRODUCTION, false, scale.detail_procs)
}

fn effective_intervals_from(
    store: &ResultStore,
    app: &'static str,
    section: &str,
    scale: &Scale,
) -> Table {
    let outcome = get(store, &intervals_key(app, scale));
    let version_names = outcome.versions_of(section);
    let mut t = Table::new(
        &format!(
            "Mean Minimum Effective Sampling Intervals for the {app} {section} Section on {} Processors",
            scale.detail_procs
        ),
        &["Version", "Mean Minimum Effective Sampling Interval (ms)"],
    );
    for (v, d) in outcome.report().mean_effective_sampling_intervals(section).iter().enumerate() {
        let name = version_names.get(v).cloned().unwrap_or_else(|| format!("v{v}"));
        t.row(vec![name, d.map_or_else(|| "-".to_string(), millis)]);
    }
    t
}

fn sweep_keys(app: &'static str, scale: &Scale) -> Vec<RunKey> {
    scale
        .sweep_samplings
        .iter()
        .flat_map(|&s| {
            scale
                .sweep_productions
                .iter()
                .map(move |&p| k_dyn(app, s, p, false, scale.detail_procs))
        })
        .collect()
}

fn interval_sweep_from(
    store: &ResultStore,
    app: &'static str,
    section: &str,
    scale: &Scale,
) -> Table {
    let mut header = vec!["Target Sampling \\ Production".to_string()];
    header.extend(scale.sweep_productions.iter().map(|p| format!("{}ms", p.as_millis())));
    let mut t = Table::new_owned(
        &format!(
            "Mean Execution Times for Varying Intervals, {app} {section} Section on {} Processors (ms)",
            scale.detail_procs
        ),
        header,
    );
    for &s in &scale.sweep_samplings {
        let mut row = vec![format!("{:.1}ms", s.as_secs_f64() * 1e3)];
        for &p in &scale.sweep_productions {
            let report = get(store, &k_dyn(app, s, p, false, scale.detail_procs)).report();
            let execs: Vec<_> = report.section(section).collect();
            let mean = execs.iter().map(|e| e.duration()).sum::<Duration>()
                / u32::try_from(execs.len().max(1)).unwrap_or(u32::MAX);
            row.push(millis(mean));
        }
        t.row(row);
    }
    t
}

/// The jobs behind the §4.3 instrumentation check for one application.
#[must_use]
pub fn instrumentation_keys(app: &'static str, scale: &Scale) -> Vec<RunKey> {
    let p = scale.detail_procs;
    POLICIES
        .iter()
        .flat_map(|(policy, _)| [k_static(app, policy, p), k_instr(app, policy, p)])
        .collect()
}

/// Render the §4.3 instrumentation table for one application from
/// completed runs.
#[must_use]
pub fn instrumentation_from(store: &ResultStore, app: &'static str, scale: &Scale) -> Table {
    let p = scale.detail_procs;
    let mut t = Table::new(
        &format!("Instrumentation Overhead for {app} ({p} processors)"),
        &["Version", "Uninstrumented (s)", "Instrumented (s)", "Ratio"],
    );
    for (policy, label) in POLICIES {
        let plain = get(store, &k_static(app, policy, p)).elapsed();
        let instr = get(store, &k_instr(app, policy, p)).elapsed();
        t.row(vec![
            label.to_string(),
            secs(plain),
            secs(instr),
            format!("{:.3}", instr.as_secs_f64() / plain.as_secs_f64()),
        ]);
    }
    t.note("The paper reports that instrumentation overhead has little or no effect on performance (§4.3).");
    t
}

// ------------------------------------------------------------------ suite

/// One experiment: the jobs it needs and how to render its tables once
/// they are done.
pub struct Experiment {
    /// Stable identifier matched by `--filter`.
    pub slug: &'static str,
    /// Section heading for reports.
    pub title: &'static str,
    /// Paper-vs-measured commentary rendered above the tables.
    pub commentary: &'static str,
    /// The runs this experiment needs (duplicates across experiments are
    /// deduplicated before execution).
    pub keys: Vec<RunKey>,
    render: RenderFn,
}

/// Renders an experiment's tables from the completed result store.
type RenderFn = Box<dyn Fn(&ResultStore) -> Vec<Table> + Send + Sync>;

impl Experiment {
    /// Build an ad-hoc experiment (for binaries that assemble tables the
    /// document suite does not include).
    #[must_use]
    pub fn new(
        slug: &'static str,
        title: &'static str,
        commentary: &'static str,
        keys: Vec<RunKey>,
        render: impl Fn(&ResultStore) -> Vec<Table> + Send + Sync + 'static,
    ) -> Self {
        Experiment { slug, title, commentary, keys, render: Box::new(render) }
    }

    /// Assemble this experiment's tables from completed runs.
    ///
    /// # Panics
    ///
    /// Panics if `store` is missing any of [`Experiment::keys`].
    #[must_use]
    pub fn render(&self, store: &ResultStore) -> Vec<Table> {
        (self.render)(store)
    }
}

impl std::fmt::Debug for Experiment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Experiment({}, {} jobs)", self.slug, self.keys.len())
    }
}

/// Every experiment of the reproduction at the given scale, in report
/// order.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn suite(scale: &Scale) -> Vec<Experiment> {
    let mut exps = Vec::new();
    let s = scale.clone();
    exps.push(Experiment {
        slug: "table01-code-sizes",
        title: "Table 1: executable code sizes",
        commentary: "Paper: multi-version (Dynamic) executables grow only modestly over \
             single-policy builds because closed subgraphs of the call graph that \
             are identical across policies are shared (Barnes-Hut 31,152 → 33,648 \
             bytes; Water 46,096 → 50,784; String 43,616 → 45,664). Measured: the \
             same ordering — Serial < single policy < Dynamic — with Dynamic within \
             a small factor of the Aggressive build.",
        keys: APPS.iter().map(|&a| k_code(a)).collect(),
        render: Box::new(|store| vec![table_code_sizes_from(store)]),
    });
    exps.push(Experiment {
        slug: "figure03-feasible-region",
        title: "Figure 3 and Section 5: the optimality theory",
        commentary: "Paper: for S = 1, N = 2, λ = 0.065, ε = 0.5 there is a bounded feasible \
             region of production intervals satisfying the ε-optimality guarantee, \
             and the optimal production interval is P_opt ≈ 7.25 s. Measured: the \
             feasible region and root of Equation 9 computed numerically.",
        keys: Vec::new(),
        render: Box::new(|_| vec![figure3_feasible_region()]),
    });
    let sc = s.clone();
    exps.push(Experiment {
        slug: "table02-bh-times",
        title: "Table 2 / Figure 4: Barnes-Hut execution times and speedups",
        commentary: "Paper: Aggressive clearly best (149.9 s vs 217.2 s Original at 1 \
             processor; 12.87 s vs 15.64 s at 16), Dynamic within ~6% of Aggressive \
             everywhere, all versions scale at the same rate (no false exclusion), \
             speedup limited by an unparallelized serial section. Measured below: \
             same ordering Original > Bounded > Aggressive ≈ Dynamic, and speedups \
             flatten identically because the serial tree build is not parallelized.",
        keys: times_keys("Barnes-Hut", scale),
        render: Box::new(move |store| {
            let (a, b) = execution_times_from(store, "Barnes-Hut", &sc);
            vec![a, b]
        }),
    });
    let sc = s.clone();
    exps.push(Experiment {
        slug: "table03-bh-locking",
        title: "Table 3: Barnes-Hut locking overhead",
        commentary: "Paper: 15,471,682 pairs (Original), 7,744,033 (Bounded — exactly half: \
             the two per-interaction regions merge into one), 49,152 (Aggressive — \
             order bodies×steps), 72,050 (Dynamic, slightly above Aggressive because \
             sampling phases run the other versions briefly). Measured: the same \
             2:1:tiny pattern.",
        keys: locking_keys("Barnes-Hut", scale),
        render: Box::new(move |store| vec![locking_overhead_from(store, "Barnes-Hut", &sc)]),
    });
    exps.push(Experiment {
        slug: "table04-bh-sections",
        title: "Table 4: Barnes-Hut FORCES section statistics",
        commentary: "Paper: mean section size 18.8 s, 16,384 iterations, mean iteration \
             1.15 ms. Measured (scaled instance): same structure; iteration size \
             bounds the minimum effective sampling interval.",
        keys: vec![k_serial("Barnes-Hut")],
        render: Box::new(|store| vec![section_stats_from(store, "Barnes-Hut", &["forces"])]),
    });
    let sc = s.clone();
    exps.push(Experiment {
        slug: "figure05-bh-series",
        title: "Figure 5: sampled overhead time series, Barnes-Hut FORCES",
        commentary: "Paper: overheads of the three policies stay well-separated and stable \
             over time (Original highest, Aggressive near zero), with gaps between \
             the two FORCES executions. Measured: the series below shows the same \
             separation and stability.",
        keys: vec![series_key("Barnes-Hut", scale)],
        render: Box::new(move |store| {
            vec![overhead_series_from(store, "Barnes-Hut", "forces", &sc)]
        }),
    });
    let sc = s.clone();
    exps.push(Experiment {
        slug: "table05-bh-intervals",
        title: "Table 5: Barnes-Hut minimum effective sampling intervals",
        commentary: "Paper: 10 ms (Original), 4.99 ms (Bounded), 1.17 ms (Aggressive) — \
             larger than but comparable to the mean iteration size, and ordered by \
             locking overhead. Measured: sampling with a near-zero target interval \
             shows the same ordering (higher-overhead versions take longer per \
             iteration, so their effective intervals are longer).",
        keys: vec![intervals_key("Barnes-Hut", scale)],
        render: Box::new(move |store| {
            vec![effective_intervals_from(store, "Barnes-Hut", "forces", &sc)]
        }),
    });
    let sc = s.clone();
    exps.push(Experiment {
        slug: "table06-bh-sweep",
        title: "Table 6: Barnes-Hut interval sensitivity",
        commentary: "Paper: performance is relatively insensitive to the target sampling \
             and production intervals — even sampling as long as production costs \
             only ~20%. Measured sweep below (sampling × production).",
        keys: sweep_keys("Barnes-Hut", scale),
        render: Box::new(move |store| {
            vec![interval_sweep_from(store, "Barnes-Hut", "forces", &sc)]
        }),
    });
    let sc = s.clone();
    exps.push(Experiment {
        slug: "table07-water-times",
        title: "Table 7 / Figure 6: Water execution times and speedups",
        commentary: "Paper: Aggressive is best at 1 processor (165.3 s) but *fails to \
             scale* (73.5 s at 16 vs Bounded's 19.5 s); Bounded is the best policy, \
             Dynamic tracks Bounded closely. Measured: same crossover — Aggressive \
             wins at 1 processor and collapses beyond 2. At this scaled size the \
             POTENG sections at ≥12 processors are short relative to the (serialized) \
             Aggressive sampling interval, so Dynamic pays a visible sampling cost — \
             the small-section effect the paper discusses in §4.4; the early cut-off \
             and policy-ordering optimizations of §4.5 (see the ablation below) \
             recover most of it.",
        keys: times_keys("Water", scale),
        render: Box::new(move |store| {
            let (a, b) = execution_times_from(store, "Water", &sc);
            vec![a, b]
        }),
    });
    let sc = s.clone();
    exps.push(Experiment {
        slug: "table08-water-locking",
        title: "Table 8: Water locking overhead",
        commentary: "Paper: 4.2M pairs (Original), 2.99M (Bounded), 1.58M (Aggressive), \
             Dynamic ≈ Bounded (2.12M) since Bounded wins production. Measured: \
             same ordering, Dynamic close to Bounded.",
        keys: locking_keys("Water", scale),
        render: Box::new(move |store| vec![locking_overhead_from(store, "Water", &sc)]),
    });
    let sc = s.clone();
    exps.push(Experiment {
        slug: "figure07-water-waiting",
        title: "Figure 7: Water waiting proportion",
        commentary: "Paper: waiting overhead is the primary cause of Water's performance \
             loss, with the Aggressive policy generating enough false exclusion to \
             severely degrade performance (waiting proportion rising steeply with \
             processors). Measured: identical shape — Original/Bounded near zero, \
             Aggressive climbing toward (P-1)/P as the global accumulator lock \
             serializes the POTENG section.",
        keys: waiting_keys("Water", scale),
        render: Box::new(move |store| vec![waiting_proportion_from(store, "Water", &sc)]),
    });
    let sc = s.clone();
    exps.push(Experiment {
        slug: "figures08-09-water-series",
        title: "Figures 8/9: sampled overhead time series, Water INTERF and POTENG",
        commentary: "Paper: INTERF samples only two versions (Bounded and Aggressive \
             generate identical code there — our compiler detects the same sharing); \
             POTENG shows the Aggressive version's overhead far above the others. \
             Measured series below. (Deviation: in our compiler the Bounded POTENG \
             code differs structurally from Original — the interprocedural lift \
             applies even where the later hoist is forbidden — so POTENG samples \
             three versions, not two; the Original and Bounded versions behave \
             identically, as their measured overheads show.)",
        keys: vec![series_key("Water", scale)],
        render: Box::new(move |store| {
            vec![
                overhead_series_from(store, "Water", "interf", &sc),
                overhead_series_from(store, "Water", "poteng", &sc),
            ]
        }),
    });
    let sc = s.clone();
    exps.push(Experiment {
        slug: "tables09-12-water-stats",
        title: "Tables 9-12: Water section statistics and effective sampling intervals",
        commentary: "Paper: INTERF 2.8 s / 512 iterations / 5.5 ms; POTENG 3.9 s / 512 / \
             12.3 ms; minimum effective sampling intervals comparable to iteration \
             sizes except the Aggressive POTENG version, whose serialization pushes \
             its effective interval far above the others (1.586 s vs 0.092 s). \
             Measured: same pattern, including the Aggressive POTENG blow-up.",
        keys: {
            let mut keys = vec![k_serial("Water")];
            keys.push(intervals_key("Water", scale));
            keys
        },
        render: Box::new(move |store| {
            vec![
                section_stats_from(store, "Water", &["interf", "poteng"]),
                effective_intervals_from(store, "Water", "interf", &sc),
                effective_intervals_from(store, "Water", "poteng", &sc),
            ]
        }),
    });
    let sc = s.clone();
    exps.push(Experiment {
        slug: "tables13-14-water-sweep",
        title: "Tables 13/14: Water interval sensitivity",
        commentary: "Paper: INTERF is insensitive to the interval choices (its two versions \
             perform similarly); POTENG is sensitive at small production intervals \
             because the Aggressive version is so much worse. Measured sweeps below.",
        keys: sweep_keys("Water", scale),
        render: Box::new(move |store| {
            vec![
                interval_sweep_from(store, "Water", "interf", &sc),
                interval_sweep_from(store, "Water", "poteng", &sc),
            ]
        }),
    });
    let sc = s.clone();
    exps.push(Experiment {
        slug: "table15-string",
        title: "String results (Section 6.3 analog)",
        commentary: "The paper text available to us truncates before the String results, \
             so these tables are a *reconstruction by analogy*: same experiment \
             structure as Barnes-Hut/Water, with the computation the paper \
             describes (rays traced through a velocity model between two oil \
             wells). In our String the Bounded and Aggressive policies generate \
             identical code; both beat Original; rays contend briefly on shared \
             grid cells.",
        keys: {
            let mut keys = times_keys("String", scale);
            keys.extend(locking_keys("String", scale));
            keys
        },
        render: Box::new(move |store| {
            let (a, b) = execution_times_from(store, "String", &sc);
            vec![a, b, locking_overhead_from(store, "String", &sc)]
        }),
    });
    let sc = s.clone();
    exps.push(Experiment {
        slug: "sec43-instrumentation",
        title: "Section 4.3: instrumentation overhead",
        commentary: "Paper: differences between instrumented and uninstrumented versions \
             are very small. Measured ratios below (instrumented adds per-iteration \
             counter updates and a 9 µs timer poll).",
        keys: instrumentation_keys("Barnes-Hut", scale),
        render: Box::new(move |store| vec![instrumentation_from(store, "Barnes-Hut", &sc)]),
    });
    exps
}

/// The experiments whose slug matches `filter` (all of them when `None`).
#[must_use]
pub fn select<'a>(exps: &'a [Experiment], filter: Option<&Filter>) -> Vec<&'a Experiment> {
    exps.iter().filter(|e| filter.is_none_or(|f| f.matches(e.slug))).collect()
}

/// Host wall time of one job (diagnostic only — never part of canonical
/// artifacts).
#[derive(Debug, Clone)]
pub struct JobTiming {
    /// The job's [`RunKey::id`].
    pub id: String,
    /// Host wall-clock duration.
    pub wall: Duration,
}

/// Run the deduplicated union of the selected experiments' job lists on
/// `engine` and collect the results.
///
/// The job list is formed in canonical [`RunKey`] order and the returned
/// store is keyed by the same order, so downstream rendering is
/// byte-identical for any worker count.
///
/// # Panics
///
/// Panics if an experiment references an application missing from
/// [`Scale::specs`], or if a simulation fails.
#[must_use]
pub fn run_matrix(
    scale: &Scale,
    exps: &[&Experiment],
    engine: &Engine,
) -> (ResultStore, Vec<JobTiming>) {
    let keys: BTreeSet<RunKey> = exps.iter().flat_map(|e| e.keys.iter().cloned()).collect();
    let specs = scale.specs();
    let by_name: HashMap<&str, &AppSpec> = specs.iter().map(|s| (s.name, s)).collect();
    let ordered: Vec<&RunKey> = keys.iter().collect();
    let tasks: Vec<Box<dyn FnOnce() -> RunOutcome + Send + '_>> = ordered
        .iter()
        .map(|&key| {
            let spec = *by_name.get(key.app).unwrap_or_else(|| panic!("no spec for {}", key.app));
            let task: Box<dyn FnOnce() -> RunOutcome + Send + '_> =
                Box::new(move || execute(spec, key));
            task
        })
        .collect();
    let mut store = ResultStore::new();
    let mut timings = Vec::with_capacity(ordered.len());
    for timed in engine.run(tasks) {
        timings.push(JobTiming { id: timed.value.key.id(), wall: timed.wall });
        store.insert(timed.value.key.clone(), timed.value);
    }
    (store, timings)
}

// ------------------------------------------------------------- rendering

const PREAMBLE: &str = "# EXPERIMENTS — paper vs. measured\n\n\
Reproduction of every table and figure in *Dynamic Feedback: An\n\
Effective Technique for Adaptive Computing* (Diniz & Rinard, PLDI\n\
1997). The substrate is the deterministic simulated multiprocessor\n\
of `dynfb-sim` (see DESIGN.md for the substitution argument), and\n\
problem sizes are scaled so the full suite runs in minutes; the\n\
claims reproduced are therefore *shapes* — which policy wins, by\n\
roughly what factor, and where the crossovers fall — not absolute\n\
DASH-era numbers. Regenerate with\n\
`cargo run --release -p dynfb-bench --bin experiments`\n\
(add `--jobs N` to fan runs out over N threads — the output is\n\
byte-identical for every N). Beyond-the-paper harnesses live in\n\
their own binaries with the same determinism contract: `chaos`\n\
(fault-scenario regret), `rehab` (quarantine rehabilitation),\n\
`observe` (observability oracles), and `repset`\n\
(parameterized policy family pruned to a representative subset by\n\
seeded k-medoids; selection table + JSON in `target/repset/`).\n";

/// Render the Markdown report for the selected experiments. Pure function
/// of the (deterministic) store contents.
#[must_use]
pub fn render_document(exps: &[&Experiment], store: &ResultStore) -> String {
    let mut md = String::new();
    md.push_str(PREAMBLE);
    for e in exps {
        let _ = writeln!(md, "\n## {}\n", e.title);
        let _ = writeln!(md, "{}\n", e.commentary);
        for t in e.render(store) {
            md.push_str(&t.to_markdown());
        }
    }
    md
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Render the machine-readable results. Contains only deterministic
/// simulator quantities (virtual times, counters, code sizes) — host wall
/// times live in the separate timings report ([`timings_json`]) precisely
/// so this file is byte-identical for every `--jobs` value.
#[must_use]
pub fn results_json(scale: &Scale, store: &ResultStore) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"dynfb-bench-results/v1\",");
    let _ = writeln!(out, "  \"scale\": \"{}\",", json_escape(scale.name));
    let _ = writeln!(out, "  \"jobs\": [");
    for (i, (key, outcome)) in store.iter().enumerate() {
        let sep = if i + 1 == store.len() { "" } else { "," };
        let mut job = String::new();
        let _ = write!(
            job,
            "    {{\"id\": \"{}\", \"app\": \"{}\", \"variant\": \"{}\", \"procs\": {}",
            json_escape(&key.id()),
            json_escape(key.app),
            json_escape(&key.variant.id()),
            key.procs
        );
        let cs = outcome.code_sizes;
        let _ = write!(
            job,
            ", \"code_bytes\": {{\"serial\": {}, \"original\": {}, \"bounded\": {}, \"aggressive\": {}, \"dynamic\": {}}}",
            cs.serial, cs.original, cs.bounded, cs.aggressive, cs.dynamic
        );
        match &outcome.report {
            None => job.push_str(", \"sim\": null"),
            Some(report) => {
                let tot = report.stats.totals();
                let _ = write!(
                    job,
                    ", \"sim\": {{\"elapsed_ns\": {}, \"compute_ns\": {}, \"lock_ns\": {}, \"wait_ns\": {}, \"barrier_wait_ns\": {}, \"timer_ns\": {}, \"acquires\": {}, \"failed_attempts\": {}, \"timer_reads\": {}, \"waiting_proportion\": {:.6}}}",
                    report.elapsed().as_nanos(),
                    tot.compute.as_nanos(),
                    tot.lock_time.as_nanos(),
                    tot.wait_time.as_nanos(),
                    tot.barrier_wait.as_nanos(),
                    tot.timer_time.as_nanos(),
                    tot.acquires,
                    tot.failed_attempts,
                    tot.timer_reads,
                    report.stats.waiting_proportion(),
                );
                job.push_str(", \"sections\": [");
                for (j, exec) in report.sections.iter().enumerate() {
                    let kind = match exec.kind {
                        SectionKind::Serial => "serial",
                        SectionKind::Parallel => "parallel",
                    };
                    let _ = write!(
                        job,
                        "{}{{\"name\": \"{}\", \"kind\": \"{}\", \"duration_ns\": {}, \"iterations\": {}, \"records\": {}}}",
                        if j == 0 { "" } else { ", " },
                        json_escape(&exec.name),
                        kind,
                        exec.duration().as_nanos(),
                        exec.iterations,
                        exec.records.len(),
                    );
                }
                job.push(']');
            }
        }
        let _ = writeln!(out, "{job}}}{sep}");
    }
    out.push_str("  ]\n}\n");
    out
}

/// Render the host-timing report: per-job wall times plus totals. This is
/// the **non-canonical** companion to [`results_json`] — it varies run to
/// run and with `--jobs`, which is why it is a separate artifact.
#[must_use]
pub fn timings_json(threads: usize, total_wall: Duration, timings: &[JobTiming]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"dynfb-bench-timings/v1\",");
    let _ = writeln!(out, "  \"threads\": {threads},");
    let _ = writeln!(out, "  \"total_wall_us\": {},", total_wall.as_micros());
    let _ = writeln!(out, "  \"jobs\": [");
    for (i, t) in timings.iter().enumerate() {
        let sep = if i + 1 == timings.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"id\": \"{}\", \"wall_us\": {}}}{sep}",
            json_escape(&t.id),
            t.wall.as_micros()
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_keys_order_and_ids_are_stable() {
        let a = k_serial("Barnes-Hut");
        let b = k_static("Barnes-Hut", "bounded", 8);
        let c = k_bench_dyn("Water", true, 4);
        assert_eq!(a.id(), "Barnes-Hut/serial/p1");
        assert_eq!(b.id(), "Barnes-Hut/static-bounded/p8");
        assert_eq!(c.id(), "Water/dynamic-s1000000ns-p100000000000ns-span/p4");
        let mut set = BTreeSet::new();
        set.extend([c.clone(), b.clone(), a.clone(), b.clone()]);
        assert_eq!(set.len(), 3, "duplicates dedup");
        let ordered: Vec<String> = set.iter().map(RunKey::id).collect();
        let mut sorted = ordered.clone();
        sorted.sort();
        // Canonical order groups by app first; ids sort the same way here.
        assert_eq!(ordered[0], a.id());
    }

    #[test]
    fn suite_covers_every_table_and_dedups_shared_runs() {
        let scale = Scale::quick();
        let exps = suite(&scale);
        assert_eq!(exps.len(), 16);
        let total: usize = exps.iter().map(|e| e.keys.len()).sum();
        let unique: BTreeSet<RunKey> = exps.iter().flat_map(|e| e.keys.iter().cloned()).collect();
        assert!(
            unique.len() < total,
            "shared runs must be deduplicated ({total} -> {})",
            unique.len()
        );
    }

    #[test]
    fn select_honors_filters() {
        let exps = suite(&Scale::quick());
        let all = select(&exps, None);
        assert_eq!(all.len(), exps.len());
        let f = Filter::new("water");
        let water = select(&exps, Some(&f));
        assert!(!water.is_empty() && water.len() < exps.len());
        assert!(water.iter().all(|e| e.slug.contains("water")));

        // Each slug DESIGN.md's experiment index points at
        // (`experiments -- --filter <slug>`) selects exactly that experiment.
        for slug in [
            "table01-code-sizes",
            "figure03-feasible-region",
            "table02-bh-times",
            "table03-bh-locking",
            "table04-bh-sections",
            "figure05-bh-series",
            "table05-bh-intervals",
            "table06-bh-sweep",
            "table07-water-times",
            "table08-water-locking",
            "figure07-water-waiting",
            "figures08-09-water-series",
            "tables09-12-water-stats",
            "tables13-14-water-sweep",
            "table15-string",
        ] {
            let picked = select(&exps, Some(&Filter::new(slug)));
            let slugs: Vec<&str> = picked.iter().map(|e| e.slug).collect();
            assert_eq!(slugs, [slug], "--filter {slug}");
        }
    }
}
