//! The four workloads: their inputs, jobs, set-up, timed pass and output
//! check.
//!
//! * `bh-forces` — Barnes-Hut instances, three static policies plus
//!   dynamic feedback. The executor takes most of the host time.
//! * `water-contended` — Water instances on 16 processors, three static
//!   policies plus two dynamic controllers. Aggressive serialises POTENG,
//!   so the engine's lock-waiter path works hardest.
//! * `compile-family` — compile rounds of four apps with the full policy
//!   family. No execution: the bypass workload for executor and engine
//!   changes.
//! * `chaos-observed` — the chaos matrix on the hand-written `ChaosApp`,
//!   adaptive cells under the full flight recorder. The only workload with
//!   observers on.
//!
//! Every input comes from the seed. A job fails if it returns an error or
//! its output differs from the reference.

use crate::digest::{self, Fnv};
use crate::pipeline::{self, AppSpec};
use crate::probe::{Probe, Recording, Replay};
use crate::spans::Tracer;
use dynfb_apps::{run_dynamic, run_fixed};
use dynfb_bench::chaos::{self, ChaosApp, ChaosConfig, ChaosMode, Scenario};
use dynfb_bench::experiments::bench_controller;
use dynfb_compiler::{CompiledApp, ExecTier, Policy};
use dynfb_core::controller::{Controller, ControllerConfig};
use dynfb_core::journal::{JournalBuffer, JournalSink};
use dynfb_core::metrics::MetricsRegistry;
use dynfb_core::overhead::OverheadSample;
use dynfb_core::rng::SplitMix64;
use dynfb_core::trace::RingBuffer;
use dynfb_sim::{
    run_app_flight_recorded, run_app_ref, AppReport, RunConfig, RunMode, SampleRecord, SectionKind,
    SimApp, SimError,
};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The seed whose references are committed in `refs/oracle.txt`.
pub const DEFAULT_SEED: u64 = 42;

/// Trace-ring and journal capacity of a flight-recorded cell: large enough
/// that a chaos cell drops nothing.
const RECORDER_CAPACITY: usize = 1 << 16;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Barnes-Hut FORCES under every policy.
    BhForces,
    /// Water under every policy and two controllers.
    WaterContended,
    /// Compile rounds of four apps with the full policy family.
    CompileFamily,
    /// The chaos matrix with the flight recorder on adaptive cells.
    ChaosObserved,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::BhForces,
        Workload::WaterContended,
        Workload::CompileFamily,
        Workload::ChaosObserved,
    ];

    /// The workload's name on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::BhForces => "bh-forces",
            Workload::WaterContended => "water-contended",
            Workload::CompileFamily => "compile-family",
            Workload::ChaosObserved => "chaos-observed",
        }
    }

    /// Look a workload up by name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input size: `full` is the benchmark, `tiny` a seconds-long smoke run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark measures.
    Full,
    /// Small sizes for the smoke tests.
    Tiny,
}

impl Scale {
    /// The scale's name on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Tiny => "tiny",
        }
    }

    /// Look a scale up by name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        [Scale::Full, Scale::Tiny].into_iter().find(|s| s.name() == name)
    }
}

/// How a job runs.
#[derive(Debug, Clone)]
enum Mode {
    /// A static policy on the workload's compiled app.
    Static(&'static str),
    /// Dynamic feedback on the workload's compiled app.
    Dynamic(ControllerConfig),
    /// One chaos cell: scenario index and mode.
    Chaos(usize, ChaosMode),
}

/// One job of a pass.
#[derive(Debug, Clone)]
pub struct JobDef {
    /// Name in reports and reference keys.
    pub label: String,
    /// The input the job runs: its index into [`Plan::specs`] for compiled
    /// apps, its scenario for chaos cells. An adaptive job is compared with
    /// the best static job on the same input.
    group: usize,
    mode: Mode,
}

impl JobDef {
    fn is_static(&self) -> bool {
        matches!(self.mode, Mode::Static(_) | Mode::Chaos(_, ChaosMode::Static(_)))
    }

    /// The controller of an adaptive job.
    fn controller(&self) -> Option<ControllerConfig> {
        match &self.mode {
            Mode::Dynamic(c) => Some(c.clone()),
            Mode::Chaos(_, ChaosMode::Dynamic) => Some(chaos::chaos_controller()),
            Mode::Chaos(_, ChaosMode::EventDriven) => Some(chaos::event_controller()),
            Mode::Static(_) | Mode::Chaos(_, ChaosMode::Static(_)) => None,
        }
    }
}

/// A workload instantiated for one seed and scale.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// The scale.
    pub scale: Scale,
    /// The seed.
    pub seed: u64,
    /// Compiled apps: the instances the jobs run, or the compile-family
    /// round.
    pub specs: Vec<AppSpec>,
    /// The jobs of one pass (none for `compile-family`).
    pub jobs: Vec<JobDef>,
    /// Bodies or molecules, and steps, of each simulated app instance.
    app_size: (usize, usize),
    procs: usize,
    chaos: ChaosConfig,
    /// Input sizes, for the result record.
    pub sizes: Vec<(&'static str, u64)>,
}

/// The flight recorder of one observed cell: trace ring, decision journal
/// and metrics registry.
#[derive(Debug)]
pub struct Recorder {
    ring: RingBuffer,
    journal: JournalBuffer,
    metrics: MetricsRegistry,
}

impl Recorder {
    fn new() -> Self {
        Recorder {
            ring: RingBuffer::new(RECORDER_CAPACITY),
            journal: JournalBuffer::new(RECORDER_CAPACITY),
            metrics: MetricsRegistry::new(),
        }
    }

    fn counts(&self) -> ObsCounts {
        ObsCounts {
            trace_events: self.ring.len() as u64 + self.ring.dropped(),
            journal_records: self.journal.total_recorded(),
            dropped: self.ring.dropped() + self.journal.dropped(),
            alarms: self.metrics.counter_value("resample_alarms"),
        }
    }
}

/// What a job runs on.
enum Target {
    App(Box<CompiledApp>),
    Chaos(ChaosApp, Option<Recorder>),
}

/// One job made ready by a set-up round.
pub struct Prepared {
    run: RunConfig,
    target: Target,
}

/// Observer counts of one job (all zero when observers are off).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ObsCounts {
    /// Trace events recorded, kept or dropped.
    pub trace_events: u64,
    /// Journal records recorded, kept or dropped.
    pub journal_records: u64,
    /// Events and records the bounded buffers dropped.
    pub dropped: u64,
    /// Change-point detector alarms.
    pub alarms: u64,
}

/// The result of one simulated job.
#[derive(Debug)]
pub struct SimOutcome {
    /// Host time of the run.
    pub host: Duration,
    /// The report, or the error the run returned.
    pub report: Result<AppReport, String>,
    /// Program-result digest (compiled apps only).
    pub program: Option<String>,
    /// Observer counts.
    pub obs: ObsCounts,
}

/// The result of compiling one app in a compile round.
#[derive(Debug, Clone)]
pub struct CompileOutcome {
    /// App name.
    pub app: &'static str,
    /// Digest of the version listing (section, version, code bytes).
    pub listing: String,
    /// Distinct versions over all parallel sections.
    pub versions: u64,
    /// Code bytes over all versions.
    pub code_bytes: u64,
}

/// The result of one timed pass.
#[derive(Debug, Default)]
pub struct PassResult {
    /// Host time of each job, in plan (or round) order.
    pub jobs: Vec<Duration>,
    /// Simulated jobs, in plan order.
    pub sims: Vec<SimOutcome>,
    /// Compiles, in round order.
    pub compiles: Vec<CompileOutcome>,
}

/// References for one plan: key → digest.
pub type Refs = BTreeMap<String, String>;

/// The policy family of `compile-family`: every policy for two lock
/// classes.
fn family() -> Vec<Policy> {
    Policy::family(2)
}

impl Plan {
    /// Instantiate `workload` at `scale` for `seed`.
    #[must_use]
    pub fn new(workload: Workload, scale: Scale, seed: u64) -> Self {
        let tiny = scale == Scale::Tiny;
        let mut plan = Plan {
            workload,
            scale,
            seed,
            specs: Vec::new(),
            jobs: Vec::new(),
            app_size: (0, 0),
            procs: 0,
            chaos: ChaosConfig::default(),
            sizes: Vec::new(),
        };
        let job = |label: &str, group, mode| JobDef { label: label.to_string(), group, mode };
        // The simulated apps run as several small instances, each drawn
        // from the seed: a job of tens of milliseconds can be timed between
        // the bursts of other tenants' load that stretch longer runs.
        let instance_seeds = |n: usize| {
            let mut rng = SplitMix64::new(seed);
            (0..n).map(|_| rng.next_u64()).collect::<Vec<_>>()
        };
        let mut modes = vec![
            ("original", Mode::Static("original")),
            ("bounded", Mode::Static("bounded")),
            ("aggressive", Mode::Static("aggressive")),
            // The paper's 10 ms sampling interval scaled to these section
            // lengths, as the repository's experiments scale it.
            ("dynamic", Mode::Dynamic(bench_controller())),
        ];
        match workload {
            Workload::BhForces => {
                let (instances, bodies, steps) = if tiny { (2, 32, 1) } else { (2, 256, 2) };
                plan.app_size = (bodies, steps);
                plan.procs = 8;
                for s in instance_seeds(instances) {
                    plan.specs.push(AppSpec::barnes_hut(bodies, steps, s));
                }
                plan.sizes = vec![("bodies", bodies as u64), ("steps", steps as u64)];
            }
            Workload::WaterContended => {
                let (instances, molecules, steps) = if tiny { (2, 16, 1) } else { (1, 128, 2) };
                plan.app_size = (molecules, steps);
                plan.procs = if tiny { 4 } else { 16 };
                for s in instance_seeds(instances) {
                    plan.specs.push(AppSpec::water(molecules, steps, s));
                }
                plan.sizes = vec![("molecules", molecules as u64), ("steps", steps as u64)];
                let short = ControllerConfig {
                    target_production: Duration::from_millis(10),
                    ..bench_controller()
                };
                modes.push(("dynamic-1ms-10ms", Mode::Dynamic(short)));
            }
            Workload::CompileFamily => {
                let mut specs = vec![
                    AppSpec::barnes_hut(512, 2, seed),
                    AppSpec::water(128, 2, seed),
                    AppSpec::string(seed),
                    AppSpec::plasma(seed),
                ];
                // The seed draws the compile order of the round.
                let mut rng = SplitMix64::new(seed);
                for i in (1..specs.len()).rev() {
                    specs.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
                }
                plan.specs = specs;
                plan.sizes = vec![("apps", 4), ("policies", family().len() as u64)];
            }
            Workload::ChaosObserved => {
                let (iters, procs) = if tiny { (300, 4) } else { (6_000, 8) };
                plan.chaos = ChaosConfig { seed, iters, procs };
                plan.procs = procs;
                let scenarios = chaos::scenarios(&plan.chaos);
                for (s, scenario) in scenarios.iter().enumerate() {
                    for mode in ChaosMode::all() {
                        let label = format!("{}/{}", scenario.name, mode.name());
                        plan.jobs.push(job(&label, s, Mode::Chaos(s, mode)));
                    }
                }
                plan.sizes = vec![
                    ("iters", iters as u64),
                    ("scenarios", scenarios.len() as u64),
                    ("modes", ChaosMode::all().len() as u64),
                ];
            }
        }
        if matches!(workload, Workload::BhForces | Workload::WaterContended) {
            for k in 0..plan.specs.len() {
                for (name, mode) in &modes {
                    plan.jobs.push(job(&format!("{k}/{name}"), k, mode.clone()));
                }
            }
            plan.sizes.insert(0, ("instances", plan.specs.len() as u64));
        }
        plan.sizes.push(("procs", plan.procs as u64));
        plan.sizes.push(("jobs", plan.jobs.len().max(plan.specs.len()) as u64));
        plan
    }

    /// Whether every pass needs its own set-up round: runs change the apps'
    /// heaps, so simulated jobs need fresh apps. Compile rounds start from
    /// source and need none.
    #[must_use]
    pub fn setup_per_pass(&self) -> bool {
        self.workload != Workload::CompileFamily
    }

    /// One set-up round: compile every app the workload uses from source
    /// to native kernels (`chaos-observed`: build the fault plans, the apps
    /// and the flight recorders). Returns the prepared jobs and the host
    /// time of each item of the round: one per job, or per compiled app of
    /// `compile-family`. With tracing on, the compiler's passes of every
    /// app are then timed one by one, outside the round.
    pub fn setup(&self, t: &mut Tracer) -> (Vec<Prepared>, Vec<Duration>) {
        let (prepared, items, hirs) = t.span("setup", |t| {
            let mut items = Vec::new();
            if self.workload == Workload::CompileFamily {
                for spec in &self.specs {
                    let started = Instant::now();
                    let built = pipeline::build(spec, &Policy::ALL, t);
                    items.push(started.elapsed());
                    drop(built);
                }
                return (Vec::new(), items, Vec::new());
            }
            let scenarios = chaos_scenarios(self);
            let (mut prepared, mut hirs) = (Vec::new(), Vec::new());
            for job in &self.jobs {
                let started = Instant::now();
                prepared.push(self.prepare(job, &scenarios, t, &mut hirs));
                items.push(started.elapsed());
            }
            (prepared, items, hirs)
        });
        if t.enabled() && self.setup_per_pass() {
            for hir in &hirs {
                let plan = &self.specs[0].plan;
                t.span("compiler.passes", |t| pipeline::pass_breakdown(hir, plan, &Policy::ALL, t));
            }
        }
        (prepared, items)
    }

    fn prepare(
        &self,
        job: &JobDef,
        scenarios: &[Scenario],
        t: &mut Tracer,
        hirs: &mut Vec<dynfb_lang::hir::Hir>,
    ) -> Prepared {
        let run = self.run_config(job, scenarios);
        match &job.mode {
            Mode::Chaos(..) => Prepared {
                run,
                target: Target::Chaos(
                    ChaosApp::new(self.chaos.iters),
                    job.controller().map(|_| Recorder::new()),
                ),
            },
            Mode::Static(_) | Mode::Dynamic(_) => {
                let (app, hir) = pipeline::build(&self.specs[job.group], &Policy::ALL, t);
                hirs.push(hir);
                Prepared { run, target: Target::App(Box::new(app)) }
            }
        }
    }

    /// The run configuration of `job`; `scenarios` are the plan's chaos
    /// scenarios ([`chaos_scenarios`]).
    fn run_config(&self, job: &JobDef, scenarios: &[Scenario]) -> RunConfig {
        match &job.mode {
            Mode::Static(p) => run_fixed(self.procs, p),
            Mode::Dynamic(c) => run_dynamic(self.procs, c.clone()),
            Mode::Chaos(s, mode) => chaos::mode_run_config(&self.chaos, &scenarios[*s], *mode),
        }
    }

    /// One timed pass over the workload's jobs. With tracing on, every job
    /// runs inside spans and the executor behind a timing [`Probe`].
    pub fn pass(&self, prepared: Vec<Prepared>, t: &mut Tracer) -> PassResult {
        let mut out = PassResult::default();
        if self.workload == Workload::CompileFamily {
            let policies = family();
            for (i, spec) in self.specs.iter().enumerate() {
                t.set_job(i as u32 + 1);
                let started = Instant::now();
                let (app, hir) = t.span("job", |t| pipeline::build(spec, &policies, t));
                out.jobs.push(started.elapsed());
                out.compiles.push(compile_outcome(spec.name, &app));
                drop(app);
                if t.enabled() {
                    t.span("compiler.passes", |t| {
                        pipeline::pass_breakdown(&hir, &spec.plan, &policies, t);
                    });
                }
            }
        } else {
            for (i, p) in prepared.into_iter().enumerate() {
                t.set_job(i as u32 + 1);
                let outcome = t.span("job", |t| run_job(p, t));
                out.jobs.push(outcome.host);
                out.sims.push(outcome);
            }
        }
        t.set_job(0);
        out
    }

    /// Check a pass against the references. Returns one line per failed
    /// job.
    #[must_use]
    pub fn check(&self, pass: &PassResult, refs: &Refs) -> Vec<String> {
        let differs = |key: &str, got: &str| match refs.get(key) {
            Some(want) if want == got => None,
            want => Some(format!("{got} where reference `{key}` is {want:?}")),
        };
        let mut failures = Vec::new();
        for c in &pass.compiles {
            if let Some(d) = differs(&format!("listing/{}", c.app), &c.listing) {
                failures.push(format!("{}: version listing {d}", c.app));
            }
        }
        for (job, out) in self.jobs.iter().zip(&pass.sims) {
            let report = match &out.report {
                Ok(r) => r,
                Err(e) => {
                    failures.push(format!("{}: {e}", job.label));
                    continue;
                }
            };
            let mut problems = Vec::new();
            let serial = format!("serial/{}", job.group);
            if let Some(d) = out.program.as_deref().and_then(|p| differs(&serial, p)) {
                problems.push(format!("program {d}"));
            }
            if job.is_static() || self.workload == Workload::ChaosObserved {
                let key = format!("sim/{}", job.label);
                if let Some(d) = differs(&key, &digest::simulated(report)) {
                    problems.push(format!("simulated {d}"));
                }
            }
            if !problems.is_empty() {
                failures.push(format!("{}: {}", job.label, problems.join("; ")));
            }
        }
        failures
    }

    /// Geometric mean over adaptive jobs of simulated elapsed time over
    /// the best static job's on the same input; 1 when the pass has no
    /// adaptive job (the empty product).
    #[must_use]
    pub fn dyn_over_best(&self, pass: &PassResult) -> f64 {
        let elapsed = |o: &SimOutcome| o.report.as_ref().ok().map(|r| r.elapsed().as_secs_f64());
        let mut best: BTreeMap<usize, f64> = BTreeMap::new();
        for (job, out) in self.jobs.iter().zip(&pass.sims) {
            if let (true, Some(e)) = (job.is_static(), elapsed(out)) {
                let b = best.entry(job.group).or_insert(f64::INFINITY);
                *b = b.min(e);
            }
        }
        let ratios: Vec<f64> = self
            .jobs
            .iter()
            .zip(&pass.sims)
            .filter(|(job, _)| !job.is_static())
            .filter_map(|(job, out)| Some(elapsed(out)? / best.get(&job.group)?))
            .collect();
        if ratios.is_empty() {
            return 1.0;
        }
        (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp()
    }

    /// The number of code versions of each parallel section, and the
    /// `(versions, code bytes)` one set-up build of the simulated app
    /// yields (zero for the hand-written chaos app and for compile-family,
    /// whose timed rounds report their own).
    #[must_use]
    pub fn compiled_shape(&self) -> (BTreeMap<String, usize>, (u64, u64)) {
        match self.workload {
            Workload::ChaosObserved => {
                ([("work".to_string(), chaos::VERSIONS.len())].into(), (0, 0))
            }
            Workload::CompileFamily => (BTreeMap::new(), (0, 0)),
            Workload::BhForces | Workload::WaterContended => {
                let (app, _) = pipeline::build(&self.specs[0], &Policy::ALL, &mut Tracer::off());
                let parallel =
                    self.specs[0].plan.iter().filter(|e| e.kind == SectionKind::Parallel);
                let versions =
                    parallel.map(|e| (e.name.clone(), app.versions(&e.name).len())).collect();
                (versions, pipeline::code_size(&app))
            }
        }
    }

    /// The recorded intervals of every adaptive job of a pass, ready to be
    /// replayed through [`Controller::complete_interval`] as the runtime
    /// feeds them ([`ControllerInputs::replay`]).
    #[must_use]
    pub fn controller_inputs(
        &self,
        pass: &PassResult,
        versions: &BTreeMap<String, usize>,
    ) -> ControllerInputs {
        let scenarios = chaos_scenarios(self);
        let mut inputs = ControllerInputs::default();
        for (job, out) in self.jobs.iter().zip(&pass.sims) {
            let run = self.run_config(job, &scenarios);
            let (RunMode::Dynamic(config) | RunMode::DynamicAsync(config)) = run.mode else {
                continue;
            };
            let Ok(report) = &out.report else { continue };
            let mut executions = Vec::new();
            for exec in report.sections.iter().filter(|s| s.kind == SectionKind::Parallel) {
                for r in &exec.records {
                    inputs.total += r.actual;
                    if r.phase.is_production() {
                        inputs.production += r.actual;
                    }
                }
                let num_policies = versions.get(&exec.name).copied().unwrap_or(1);
                executions.push((exec.name.clone(), num_policies, exec.records.clone()));
            }
            inputs.jobs.push(JobIntervals {
                label: job.label.clone(),
                config,
                watchdog: run.sampling_watchdog,
                executions,
            });
        }
        inputs
    }

    /// Re-run every job, recording its step streams, then replay the
    /// streams through a no-op app in `sim.replay` spans. Returns the
    /// replay host time, the steps the executor emitted, and one line per
    /// job whose replay simulated a different run than the recording.
    pub fn replay(&self, t: &mut Tracer) -> (Duration, u64, Vec<String>) {
        let (mut total, mut steps) = (Duration::ZERO, 0);
        let mut mismatches = Vec::new();
        for (job, p) in self.jobs.iter().zip(self.setup(&mut Tracer::off()).0) {
            let (report, emitted, recording) = match p.target {
                Target::App(mut app) => record(app.as_mut(), &p.run),
                Target::Chaos(mut app, _) => record(&mut app, &p.run),
            };
            steps += emitted;
            let started = Instant::now();
            let replayed = t.span("sim.replay", |_| run_app_ref(&mut Replay(recording), &p.run));
            total += started.elapsed();
            let same = match (&report, &replayed) {
                (Ok(a), Ok(b)) => digest::simulated(a) == digest::simulated(b),
                _ => false,
            };
            if !same {
                mismatches.push(format!("{}: replay diverged from the recorded run", job.label));
            }
        }
        (total, steps, mismatches)
    }

    /// Host time of every adaptive job run plain and under the full flight
    /// recorder, alternating, best of `reps` each: `(plain, recorded)`.
    pub fn observer_cost(&self, reps: usize, t: &mut Tracer) -> (Duration, Duration) {
        let scenarios = chaos_scenarios(self);
        let (mut plain, mut recorded) = (Duration::ZERO, Duration::ZERO);
        for job in self.jobs.iter().filter(|j| j.controller().is_some()) {
            let mut best = [Duration::MAX; 2];
            for _ in 0..reps {
                for (flight, name) in [(false, "obs.plain"), (true, "obs.flight")] {
                    let p = self.prepare(job, &scenarios, &mut Tracer::off(), &mut Vec::new());
                    let mut recorder = flight.then(Recorder::new);
                    let started = Instant::now();
                    let _ = t.span(name, |_| match p.target {
                        Target::App(mut app) => simulate(app.as_mut(), &p.run, recorder.as_mut()),
                        Target::Chaos(mut app, _) => simulate(&mut app, &p.run, recorder.as_mut()),
                    });
                    let took = started.elapsed();
                    best[usize::from(flight)] = best[usize::from(flight)].min(took);
                }
            }
            plain += best[0];
            recorded += best[1];
        }
        (plain, recorded)
    }

    /// The references of this plan, computed without the tier under test:
    /// compiled apps run through their own `dynfb_apps` constructors on the
    /// tree-walking tier (the program result from the serial version, the
    /// simulated results of every static job); chaos cells run plain,
    /// without observers; compile listings come from one compile.
    #[must_use]
    pub fn references(&self) -> Refs {
        let mut refs = Refs::new();
        match self.workload {
            Workload::CompileFamily => {
                for spec in &self.specs {
                    let (app, _) = pipeline::build(spec, &family(), &mut Tracer::off());
                    let listing = compile_outcome(spec.name, &app).listing;
                    refs.insert(format!("listing/{}", spec.name), listing);
                }
            }
            Workload::ChaosObserved => {
                let scenarios = chaos_scenarios(self);
                for job in &self.jobs {
                    let run = self.run_config(job, &scenarios);
                    let report = run_app_ref(&mut ChaosApp::new(self.chaos.iters), &run)
                        .expect("chaos reference run");
                    refs.insert(format!("sim/{}", job.label), digest::simulated(&report));
                }
            }
            Workload::BhForces | Workload::WaterContended => {
                let oracle = |k: usize, run: &RunConfig| {
                    let mut app = self.constructor(k);
                    app.set_exec_tier(ExecTier::Tree);
                    let report = run_app_ref(&mut app, run).expect("reference run");
                    (digest::program(&app), digest::simulated(&report))
                };
                for k in 0..self.specs.len() {
                    let serial = oracle(k, &run_fixed(self.procs, "serial")).0;
                    refs.insert(format!("serial/{k}"), serial);
                }
                for job in self.jobs.iter().filter(|j| j.is_static()) {
                    let sim = oracle(job.group, &self.run_config(job, &[])).1;
                    refs.insert(format!("sim/{}", job.label), sim);
                }
            }
        }
        refs
    }

    /// Instance `k` of the simulated app, built by its own `dynfb_apps`
    /// constructor.
    fn constructor(&self, k: usize) -> CompiledApp {
        let ((size, steps), seed) = (self.app_size, self.specs[k].host.seed);
        if self.workload == Workload::BhForces {
            let cfg =
                dynfb_apps::BarnesHutConfig { bodies: size, steps, seed, ..Default::default() };
            dynfb_apps::barnes_hut(&cfg)
        } else {
            let cfg =
                dynfb_apps::WaterConfig { molecules: size, steps, seed, ..Default::default() };
            dynfb_apps::water(&cfg)
        }
    }
}

fn chaos_scenarios(plan: &Plan) -> Vec<Scenario> {
    if plan.workload == Workload::ChaosObserved {
        chaos::scenarios(&plan.chaos)
    } else {
        Vec::new()
    }
}

/// The recorded intervals of one adaptive job.
#[derive(Debug)]
pub struct JobIntervals {
    label: String,
    config: ControllerConfig,
    /// The run's stuck-sampling watchdog factor.
    watchdog: Option<u32>,
    /// Parallel-section executions in run order: section name, version
    /// count, and the interval records.
    executions: Vec<(String, usize, Vec<SampleRecord>)>,
}

/// Recorded intervals of a pass's adaptive jobs.
#[derive(Debug, Default)]
pub struct ControllerInputs {
    /// One entry per adaptive job.
    pub jobs: Vec<JobIntervals>,
    /// Simulated time of all recorded intervals.
    pub total: Duration,
    /// Simulated time of the production intervals.
    pub production: Duration,
}

/// What replaying the recorded intervals through the controller gave.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct CtlReplay {
    /// Interval records replayed.
    pub intervals: u64,
    /// Records after which the controller runs another policy.
    pub switches: u64,
    /// One line per job whose replayed policy sequence left the recorded
    /// one.
    pub diverged: Vec<String>,
}

/// Execution time of a replayed sample. A record keeps only the total
/// overhead fraction; over this span its nanosecond rounding stays far
/// below any difference the controller compares.
const SAMPLE_SPAN: Duration = Duration::from_secs(1 << 20);

impl ControllerInputs {
    /// Replay every adaptive job's records as the runtime feeds them: one
    /// controller per section name, kept across the section's executions;
    /// a completed interval through `complete_interval` (the unusable zero
    /// sample when a processor crash poisoned it); a watchdog abort as the
    /// runtime aborts; `end_section` when the execution ends. At every
    /// record the controller must be running the recorded policy.
    #[must_use]
    pub fn replay(&self) -> CtlReplay {
        let mut out = CtlReplay::default();
        'jobs: for job in &self.jobs {
            let mut controllers: BTreeMap<&str, Controller> = BTreeMap::new();
            for (e, (name, versions, records)) in job.executions.iter().enumerate() {
                let ctl = controllers.entry(name).or_insert_with(|| {
                    Controller::new(ControllerConfig {
                        num_policies: *versions,
                        ..job.config.clone()
                    })
                });
                ctl.begin_section();
                for (i, r) in records.iter().enumerate() {
                    let running = ctl.current_policy();
                    if running != r.version {
                        out.diverged.push(format!(
                            "{}: controller replay runs policy {running} where the run recorded {} (section {name}, execution {e}, record {i})",
                            job.label, r.version
                        ));
                        continue 'jobs;
                    }
                    let target = ctl.target_interval();
                    // A partial record is the section's unfinished last
                    // interval, unless the watchdog aborted it: then it is
                    // not the last record, or it overran the watchdog.
                    let aborted = r.partial
                        && r.phase.is_sampling()
                        && (i + 1 < records.len()
                            || job.watchdog.is_some_and(|k| r.actual > target * k));
                    if !r.partial {
                        let sample = if r.poisoned {
                            OverheadSample::default()
                        } else {
                            OverheadSample::from_fraction(r.overhead, SAMPLE_SPAN)
                        };
                        ctl.complete_interval(sample);
                    } else if aborted {
                        ctl.abort_to_production_carrying(r.actual.saturating_sub(target));
                        let _ = ctl.report_soft_failure(r.version);
                    }
                    let _ = ctl.drain_health_events();
                    out.intervals += 1;
                    out.switches += u64::from(ctl.current_policy() != running);
                }
                ctl.end_section();
            }
        }
        out
    }
}

fn compile_outcome(app_name: &'static str, app: &CompiledApp) -> CompileOutcome {
    let mut h = Fnv::default();
    for (section, version, bytes) in app.version_code_sizes() {
        h.bytes(section.as_bytes());
        h.bytes(version.as_bytes());
        h.u64(bytes as u64);
    }
    let (versions, code_bytes) = pipeline::code_size(app);
    CompileOutcome { app: app_name, listing: h.hex(), versions, code_bytes }
}

fn record<A: SimApp>(
    app: &mut A,
    run: &RunConfig,
) -> (Result<AppReport, SimError>, u64, Recording) {
    let mut probe = Probe::recording(app);
    let report = run_app_ref(&mut probe, run);
    let (steps, recording) = probe.into_recording();
    (report, steps, recording.expect("recording probe"))
}

/// Run `app`, under the full flight recorder when one is given.
fn simulate<A: SimApp>(
    app: &mut A,
    run: &RunConfig,
    recorder: Option<&mut Recorder>,
) -> Result<AppReport, SimError> {
    match recorder {
        Some(r) => run_app_flight_recorded(app, run, &mut r.ring, &mut r.journal, &mut r.metrics),
        None => run_app_ref(app, run),
    }
}

/// [`simulate`] in a `sim.run_app` span; inside a traced pass the executor
/// runs behind a timing probe, whose time becomes an `exec` child span.
fn simulate_traced<A: SimApp>(
    app: &mut A,
    run: &RunConfig,
    recorder: Option<&mut Recorder>,
    t: &mut Tracer,
) -> Result<AppReport, SimError> {
    t.span("sim.run_app", |t| {
        if !t.enabled() {
            return simulate(app, run, recorder);
        }
        let mut probe = Probe::timed(app);
        let report = simulate(&mut probe, run, recorder);
        t.aggregate("exec", probe.exec, probe.calls);
        report
    })
}

/// Run one prepared job and digest its outputs (after the clock stops).
fn run_job(p: Prepared, t: &mut Tracer) -> SimOutcome {
    let started = Instant::now();
    let (report, host, program, obs) = match p.target {
        Target::App(mut app) => {
            let report = simulate_traced(app.as_mut(), &p.run, None, t);
            let host = started.elapsed();
            (report, host, Some(digest::program(&app)), ObsCounts::default())
        }
        Target::Chaos(mut app, mut recorder) => {
            let report = simulate_traced(&mut app, &p.run, recorder.as_mut(), t);
            let host = started.elapsed();
            (report, host, None, recorder.map(|r| r.counts()).unwrap_or_default())
        }
    };
    SimOutcome { host, report: report.map_err(|e| e.to_string()), program, obs }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn controller_replay_follows_the_recorded_policies() {
        let plan = Plan::new(Workload::ChaosObserved, Scale::Tiny, DEFAULT_SEED);
        let (versions, _) = plan.compiled_shape();
        let mut t = Tracer::off();
        let pass = plan.pass(plan.setup(&mut t).0, &mut t);
        let mut inputs = plan.controller_inputs(&pass, &versions);
        let records = || inputs.jobs.iter().flat_map(|j| &j.executions).flat_map(|e| &e.2);
        assert!(records().any(|r| r.poisoned), "a crash poisons an interval");
        assert!(records().any(|r| r.partial), "partial intervals are recorded");
        let replay = inputs.replay();
        assert_eq!(replay.diverged, Vec::<String>::new());
        assert!(replay.switches > 0);

        let record = inputs.jobs[0].executions[0].2.last_mut().expect("a record");
        record.version += 1;
        assert_eq!(inputs.replay().diverged.len(), 1);
    }
}
