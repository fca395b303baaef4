//! The dynamic feedback runtime for simulated applications.
//!
//! The paper's compiler generates code that executes an alternating
//! sequence of serial and parallel sections; within each parallel section
//! the generated code uses dynamic feedback to choose the best
//! synchronization optimization policy (§4). This module is that generated
//! runtime, targeting the simulated multiprocessor:
//!
//! * an application implements [`SimApp`]: a *plan* of serial and parallel
//!   sections, and per-iteration code for each policy *version* of each
//!   parallel section;
//! * [`run_app`] executes the plan on `num_procs` simulated processors,
//!   either with one statically chosen version ([`RunMode::Static`]) or with
//!   dynamic feedback ([`RunMode::Dynamic`]);
//! * in dynamic mode, every processor polls the timer at each loop
//!   iteration (the potential switch points of §4.1); when the target
//!   interval expires the processors rendezvous at a barrier and switch
//!   policies *synchronously*, with the last arriver performing the
//!   controller transition.
//!
//! Iteration bodies are emitted as [`Step`] sequences through an
//! [`OpSink`]. Application state is updated when an iteration is *emitted*;
//! the simulated timing of its lock operations is resolved later by the
//! event engine. This is sound for the programs the paper targets: the
//! parallelized operations commute, so their results are independent of the
//! simulated interleaving, while their *costs* (which do depend on the
//! interleaving) are fully modeled.

use crate::config::MachineConfig;
use crate::faults::FaultPlan;
use crate::machine::{Machine, SimError};
use crate::process::{BarrierId, LockId, ProcCtx, Process, Step};
use crate::stats::{MachineStats, ProcStats};
use crate::time::SimTime;
use dynfb_core::controller::{CloseFlags, Controller, ControllerConfig, DecisionCounts, Phase};
use dynfb_core::journal::record_decision;
use dynfb_core::observer::Observer;
use dynfb_core::trace::{interval_end_event, TraceEvent};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;
use std::time::Duration;

/// Collects the steps of one loop iteration (or serial section).
///
/// Consecutive compute charges are merged into a single [`Step::Compute`]
/// so emission granularity does not affect event counts.
#[derive(Debug, Default)]
pub struct OpSink {
    steps: Vec<Step>,
    pending: Duration,
}

impl OpSink {
    /// Append useful computation.
    pub fn compute(&mut self, d: Duration) {
        self.pending += d;
    }

    /// Append `n` equal compute charges in one accumulation. Exactly
    /// equivalent to calling [`compute`](OpSink::compute) `n` times
    /// (duration arithmetic is exact in nanoseconds), but lets a batched
    /// executor charge a whole basic block with one call.
    pub fn compute_batch(&mut self, d: Duration, n: u32) {
        self.pending += d * n;
    }

    /// Append a lock acquire.
    pub fn acquire(&mut self, lock: LockId) {
        self.flush();
        self.steps.push(Step::Acquire(lock));
    }

    /// Append a lock release.
    pub fn release(&mut self, lock: LockId) {
        self.flush();
        self.steps.push(Step::Release(lock));
    }

    fn flush(&mut self) {
        if !self.pending.is_zero() {
            self.steps.push(Step::Compute(self.pending));
            self.pending = Duration::ZERO;
        }
    }

    /// Replace the sink's steps with one body emitted by `emit`, keeping
    /// the allocation.
    fn refill(&mut self, emit: impl FnOnce(&mut OpSink)) {
        self.steps.clear();
        emit(self);
        self.flush();
    }

    /// Finalize into the step sequence the machine would execute. Public so
    /// differential tests can compare the exact steps two execution tiers
    /// emit.
    #[must_use]
    pub fn into_steps(mut self) -> VecDeque<Step> {
        self.flush();
        self.steps.into()
    }
}

/// Whether a plan entry is a serial or a parallel section.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SectionKind {
    /// Executed by processor 0 only; the others wait at the section barrier
    /// (this idle time is what limits speedup, as in the paper's §6.1).
    Serial,
    /// A parallel loop executed by all processors.
    Parallel,
}

/// One entry in an application's execution plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanEntry {
    /// Section name; repeated entries with the same name are repeated
    /// executions of the same section (and share version structure).
    pub name: String,
    /// Serial or parallel.
    pub kind: SectionKind,
}

impl PlanEntry {
    /// Convenience constructor for a serial section.
    #[must_use]
    pub fn serial(name: &str) -> Self {
        PlanEntry { name: name.to_string(), kind: SectionKind::Serial }
    }

    /// Convenience constructor for a parallel section.
    #[must_use]
    pub fn parallel(name: &str) -> Self {
        PlanEntry { name: name.to_string(), kind: SectionKind::Parallel }
    }
}

/// A multi-version application that runs on the simulated machine.
///
/// Implementations are usually produced by the `dynfb-compiler` crate from
/// mini-language sources, but can also be written by hand in Rust.
pub trait SimApp {
    /// Application name (for reports).
    fn name(&self) -> &str;

    /// Create the locks and other machine resources the app needs.
    fn setup(&mut self, machine: &mut Machine);

    /// The sequence of section executions.
    fn plan(&self) -> Vec<PlanEntry>;

    /// Names of the *distinct* code versions of a parallel section, ordered
    /// from least to most aggressive. When two policies generate identical
    /// code for a section the compiler emits a single shared version, so
    /// this list can be shorter than the global policy list (§6.2: the
    /// Water INTERF section has identical Bounded and Aggressive code).
    fn versions(&self, section: &str) -> Vec<String>;

    /// Map a global policy name (e.g. `"aggressive"`) to the version index
    /// of this section implementing it, or `None` if unknown.
    fn version_for_policy(&self, section: &str, policy: &str) -> Option<usize> {
        self.versions(section).iter().position(|v| v.split('+').any(|p| p == policy))
    }

    /// Emit the body of a serial section.
    fn emit_serial(&mut self, section: &str, ops: &mut OpSink);

    /// Called once at the start of each execution of a parallel section;
    /// returns the number of loop iterations.
    fn begin_parallel(&mut self, section: &str) -> usize;

    /// Emit the body of iteration `iter` of the given parallel section
    /// under the given version.
    fn emit_iteration(&mut self, section: &str, version: usize, iter: usize, ops: &mut OpSink);
}

impl<T: SimApp + ?Sized> SimApp for &mut T {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn setup(&mut self, machine: &mut Machine) {
        (**self).setup(machine);
    }
    fn plan(&self) -> Vec<PlanEntry> {
        (**self).plan()
    }
    fn versions(&self, section: &str) -> Vec<String> {
        (**self).versions(section)
    }
    fn version_for_policy(&self, section: &str, policy: &str) -> Option<usize> {
        (**self).version_for_policy(section, policy)
    }
    fn emit_serial(&mut self, section: &str, ops: &mut OpSink) {
        (**self).emit_serial(section, ops);
    }
    fn begin_parallel(&mut self, section: &str) -> usize {
        (**self).begin_parallel(section)
    }
    fn emit_iteration(&mut self, section: &str, version: usize, iter: usize, ops: &mut OpSink) {
        (**self).emit_iteration(section, version, iter, ops);
    }
}

/// How the runtime chooses versions.
#[derive(Debug, Clone)]
pub enum RunMode {
    /// Every parallel section runs the version implementing this policy
    /// (e.g. `"original"`, `"bounded"`, `"aggressive"`, `"serial"`).
    /// `instrumented` adds the per-iteration instrumentation and timer
    /// polling that the dynamic version performs, to measure the
    /// instrumentation cost (§4.3).
    Static {
        /// Global policy name.
        policy: String,
        /// Whether to charge instrumentation/polling costs anyway.
        instrumented: bool,
    },
    /// Dynamic feedback with this controller configuration per section
    /// (its `num_policies` is overridden by each section's version count).
    Dynamic(ControllerConfig),
    /// Dynamic feedback with *asynchronous* switching: when an interval
    /// expires, the detecting processor performs the controller transition
    /// immediately and the others pick the new version up at their next
    /// iteration — no rendezvous. Overhead measurements are then polluted
    /// by mixed-version execution; the paper chooses synchronous switching
    /// precisely to avoid this (§4.1). Provided for the ablation study.
    DynamicAsync(ControllerConfig),
}

impl RunMode {
    /// Static, uninstrumented execution of `policy`.
    #[must_use]
    pub fn static_policy(policy: &str) -> Self {
        RunMode::Static { policy: policy.to_string(), instrumented: false }
    }
}

/// Configuration for [`run_app`].
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Number of simulated processors.
    pub num_procs: usize,
    /// Version selection mode.
    pub mode: RunMode,
    /// Machine cost model.
    pub machine: MachineConfig,
    /// Instrumentation cost charged per loop iteration when running
    /// instrumented (counter updates; the timer read is charged separately).
    pub instrument_cost: Duration,
    /// Allow sampling and production intervals to span multiple executions
    /// of the same parallel section (the improvement the paper proposes in
    /// §4.4 for sections too short to amortize a full sampling phase).
    /// When enabled, a section execution that ends mid-interval carries the
    /// interval's elapsed time and accumulated measurements into the
    /// section's next execution instead of restarting the sampling phase.
    pub span_intervals: bool,
    /// Fault-injection plan applied to the machine for the whole run. The
    /// empty default plan perturbs nothing.
    pub faults: FaultPlan,
    /// Stuck-sampling watchdog. With `Some(k)`, a *sampling* interval that
    /// has run `k×` longer (in fault-immune simulation time) than its
    /// target without being detected as complete — e.g. because a timer
    /// fault froze the observed clock — aborts the sampling phase and
    /// enters production with the best measurement so far. `None` (the
    /// default) disables the watchdog; effective intervals legitimately
    /// exceed tiny targets by orders of magnitude, so it is opt-in.
    pub sampling_watchdog: Option<u32>,
}

impl RunConfig {
    /// A static run of `policy` on `num_procs` processors.
    #[must_use]
    pub fn fixed(num_procs: usize, policy: &str) -> Self {
        RunConfig {
            num_procs,
            mode: RunMode::static_policy(policy),
            machine: MachineConfig::default(),
            instrument_cost: Duration::from_nanos(100),
            span_intervals: false,
            faults: FaultPlan::default(),
            sampling_watchdog: None,
        }
    }

    /// A dynamic feedback run on `num_procs` processors.
    #[must_use]
    pub fn dynamic(num_procs: usize, controller: ControllerConfig) -> Self {
        RunConfig {
            num_procs,
            mode: RunMode::Dynamic(controller),
            machine: MachineConfig::default(),
            instrument_cost: Duration::from_nanos(100),
            span_intervals: false,
            faults: FaultPlan::default(),
            sampling_watchdog: None,
        }
    }

    /// Builder-style: attach a fault plan.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Builder-style: enable the stuck-sampling watchdog at `k×` budget.
    #[must_use]
    pub fn with_watchdog(mut self, k: u32) -> Self {
        self.sampling_watchdog = Some(k);
        self
    }
}

/// One completed interval, as recorded at a switch barrier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleRecord {
    /// Virtual time when the interval completed.
    pub at: SimTime,
    /// Phase the interval belonged to.
    pub phase: Phase,
    /// Version that was executing.
    pub version: usize,
    /// Measured total overhead over the interval.
    pub overhead: f64,
    /// Actual (effective) interval length.
    pub actual: Duration,
    /// True if the section ended before the interval reached its target
    /// (the record is a partial interval).
    pub partial: bool,
    /// True if a processor crash-stopped during the interval. The measured
    /// overhead is still reported here for post-mortems, but the controller
    /// discarded it (a dying processor's forced lock releases and vanished
    /// work distort the measurement) and fell back instead of trusting it.
    pub poisoned: bool,
}

/// The record of one execution of one section.
#[derive(Debug, Clone, PartialEq)]
pub struct SectionExecution {
    /// Index into the plan.
    pub plan_idx: usize,
    /// Section name.
    pub name: String,
    /// Serial or parallel.
    pub kind: SectionKind,
    /// Virtual time the section started.
    pub start: SimTime,
    /// Virtual time the section ended (all processors passed the final
    /// barrier).
    pub end: SimTime,
    /// Number of loop iterations executed (parallel sections).
    pub iterations: usize,
    /// Completed intervals (dynamic mode only).
    pub records: Vec<SampleRecord>,
}

impl SectionExecution {
    /// Duration of this execution.
    #[must_use]
    pub fn duration(&self) -> Duration {
        self.end - self.start
    }
}

/// Result of running an application.
#[derive(Debug, Clone)]
pub struct AppReport {
    /// Application name.
    pub app: String,
    /// Full machine statistics.
    pub stats: MachineStats,
    /// Per-section execution records, in plan order.
    pub sections: Vec<SectionExecution>,
}

impl AppReport {
    /// Total virtual execution time.
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.stats.elapsed()
    }

    /// Executions of the named section.
    pub fn section<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a SectionExecution> + 'a {
        self.sections.iter().filter(move |s| s.name == name)
    }

    /// Mean *effective sampling interval* per version of the named section:
    /// the mean actual length of completed sampling intervals (§4.1,
    /// Tables 5/11/12 of the paper). Indexed by version.
    #[must_use]
    pub fn mean_effective_sampling_intervals(&self, name: &str) -> Vec<Option<Duration>> {
        let mut sums: Vec<(Duration, u32)> = Vec::new();
        for exec in self.section(name) {
            for r in &exec.records {
                if r.phase.is_sampling() && !r.partial {
                    if sums.len() <= r.version {
                        sums.resize(r.version + 1, (Duration::ZERO, 0));
                    }
                    sums[r.version].0 += r.actual;
                    sums[r.version].1 += 1;
                }
            }
        }
        sums.into_iter().map(|(total, n)| if n == 0 { None } else { Some(total / n) }).collect()
    }
}

/// Shared per-run state (single-threaded simulation: `Rc<RefCell>`).
struct Driver<'a, O: Observer> {
    app: Box<dyn SimApp + 'a>,
    plan: Vec<PlanEntry>,
    mode: RunMode,
    num_procs: usize,
    /// The caller's trace and journal. Events and decision records are
    /// stamped with *virtual* time, so for a given app + config both
    /// streams are byte-deterministic; the disabled `()` monomorphizes
    /// every emission away.
    obs: O,
    active: Option<Active>,
    reports: Vec<SectionExecution>,
    /// Controllers persisted per section name across executions, so the
    /// policy history survives (enables the §4.5 best-first ordering and
    /// acceptance cut-off on later executions of the same section).
    controllers: std::collections::HashMap<String, SavedController>,
    /// §4.4 extension: carry in-flight intervals across executions.
    span_intervals: bool,
    /// Stuck-sampling watchdog factor ([`RunConfig::sampling_watchdog`]).
    sampling_watchdog: Option<u32>,
    /// First unrecoverable runtime error. Once set, every processor winds
    /// down at its next body boundary and [`run_app`] returns this error.
    error: Option<SimError>,
}

/// A controller saved between executions of one section, together with the
/// in-flight interval it was carrying when the section ended (span mode).
struct SavedController {
    controller: Controller,
    /// `(elapsed, accumulated stats)` of the interrupted interval.
    carry: Option<(Duration, ProcStats)>,
}

/// State of the section currently executing.
struct Active {
    plan_idx: usize,
    kind: SectionKind,
    total_iters: usize,
    issued_iters: usize,
    version: usize,
    controller: Option<Controller>,
    interval_start: SimTime,
    /// The interval start on the *observed* (fault-distorted) clock.
    /// Expiry detection compares observed poll timestamps against this —
    /// both ends on the same clock, exactly as the generated code's stored
    /// timer read would — while `interval_start` stays fault-immune for
    /// the watchdog and the records. Mixing the clocks would mis-age every
    /// interval once a transient drift window has shifted the observed
    /// clock away from simulation time.
    interval_start_observed: SimTime,
    snapshot: ProcStats,
    /// Observed-clock anchor of the current detector-signal window: the
    /// next signal is due when [`Controller::signal_due`] says so.
    signal_at: SimTime,
    /// Machine-wide stats at `signal_at`, the baseline for the window's
    /// waiting proportion.
    signal_snapshot: ProcStats,
    /// Number of crash-stopped processors when the interval started; a
    /// higher count at interval end means the measurement is poisoned.
    crashed_snapshot: usize,
    switch_requested: bool,
    /// The pending switch is a watchdog abort, not a normal transition.
    abort_requested: bool,
    finishing: bool,
    section_over: bool,
    start: SimTime,
    records: Vec<SampleRecord>,
}

impl<'a, O: Observer> Driver<'a, O> {
    /// Initialize section `plan_idx` if not already active. The
    /// machine-wide stats at this instant (the baseline for the first
    /// interval's overhead measurement) are read from `ctx` only when a
    /// section starts, not on every iteration.
    ///
    /// # Errors
    ///
    /// Returns a typed [`SimError`] for an application whose section has no
    /// versions, or (in static mode) no version implementing the requested
    /// policy. The caller records the error on the driver and winds down.
    fn ensure_active(&mut self, plan_idx: usize, ctx: &ProcCtx<'_>) -> Result<(), SimError> {
        let stale = match &self.active {
            Some(a) => a.plan_idx != plan_idx || a.section_over,
            None => true,
        };
        if !stale {
            return Ok(());
        }
        let now = ctx.now();
        let observed = ctx.peek_timer();
        let totals = ctx.total_stats();
        let crashed = crashed_count(ctx);
        debug_assert!(
            self.active.as_ref().is_none_or(|a| a.section_over),
            "previous section must be finalized"
        );
        let entry = self.plan[plan_idx].clone();
        let init = match entry.kind {
            SectionKind::Serial => (0, 0, None, now, observed, totals),
            SectionKind::Parallel => {
                let iters = self.app.begin_parallel(&entry.name);
                let versions = self.app.versions(&entry.name);
                if versions.is_empty() {
                    return Err(SimError::NoVersions { section: entry.name });
                }
                match &self.mode {
                    RunMode::Static { policy, .. } => {
                        let Some(v) = self.app.version_for_policy(&entry.name, policy) else {
                            return Err(SimError::UnknownPolicy {
                                section: entry.name,
                                policy: policy.clone(),
                                available: versions,
                            });
                        };
                        (iters, v, None, now, observed, totals)
                    }
                    RunMode::Dynamic(cfg) | RunMode::DynamicAsync(cfg) => {
                        let saved = self.controllers.remove(&entry.name);
                        let (mut ctl, carry) = match saved {
                            Some(s) => (s.controller, s.carry),
                            None => {
                                let mut cfg = cfg.clone();
                                cfg.num_policies = versions.len();
                                (Controller::new(cfg), None)
                            }
                        };
                        match (self.span_intervals, carry) {
                            (true, Some((elapsed, carried))) => {
                                // §4.4 extension: resume the interrupted
                                // interval. Backdate its start by the time
                                // already consumed, and re-base the stats
                                // snapshot so the work between executions
                                // (other sections) is excluded from the
                                // interval's measurement.
                                let version = ctl.current_policy();
                                let backdate = |t: SimTime| {
                                    SimTime::from_nanos(
                                        t.as_nanos().saturating_sub(elapsed.as_nanos() as u64),
                                    )
                                };
                                let rebased = totals.since(&carried);
                                (
                                    iters,
                                    version,
                                    Some(ctl),
                                    backdate(now),
                                    backdate(observed),
                                    rebased,
                                )
                            }
                            _ => {
                                // Starting a sampling phase may schedule a
                                // rehabilitation probe.
                                let open = ctl.open_section();
                                record_decision(&mut self.obs, &ctl, now.as_duration(), &open);
                                let first = ctl.current_policy();
                                (iters, first, Some(ctl), now, observed, totals)
                            }
                        }
                    }
                }
            }
        };
        let (total_iters, version, controller, interval_start, interval_start_observed, snapshot) =
            init;
        self.active = Some(Active {
            plan_idx,
            kind: entry.kind,
            total_iters,
            issued_iters: 0,
            version,
            controller,
            interval_start,
            interval_start_observed,
            snapshot,
            signal_at: interval_start_observed,
            signal_snapshot: snapshot,
            crashed_snapshot: crashed,
            switch_requested: false,
            abort_requested: false,
            finishing: entry.kind == SectionKind::Serial,
            section_over: false,
            start: now,
            records: Vec::new(),
        });
        Ok(())
    }

    /// Close the current interval at `now`: measure it, record it, and
    /// apply the controller's decision. Shared by the synchronous (barrier
    /// leader) and asynchronous (detecting processor) switch paths, and by
    /// the stuck-sampling watchdog (`watchdog_abort`), whose interval never
    /// completed because a timer fault starved expiry detection: it is
    /// recorded as partial and the controller is forced into production
    /// with the best measurement so far.
    fn close_interval(
        &mut self,
        now: SimTime,
        observed: SimTime,
        totals: ProcStats,
        crashed: usize,
        watchdog_abort: bool,
    ) {
        let Driver { active, obs, .. } = self;
        let Some(active) = active.as_mut() else {
            return;
        };
        let Some(ctl) = active.controller.as_mut() else {
            return;
        };
        // Saturating: async-mode timestamps are observed times, which
        // fault injection can make non-monotone.
        let actual = now.saturating_since(active.interval_start);
        let sample = totals.since(&active.snapshot).overhead_sample();
        // A processor that crash-stopped mid-interval poisons the
        // measurement: its in-flight work vanished and its held locks were
        // force-released at zero cost. The raw number is still recorded for
        // post-mortems, but the controller is fed an unusable sample (crash
        // fallback) rather than a deceptively low overhead.
        let poisoned = crashed > active.crashed_snapshot;
        let flags = CloseFlags { unusable: poisoned, watchdog_abort, ..CloseFlags::default() };
        let at = now.as_duration();
        let decision = ctl.close_interval(at, sample, actual, flags);
        if let Some(closed) = decision.closed {
            active.records.push(SampleRecord {
                at: now,
                phase: decision.before,
                version: decision.from,
                overhead: closed.overhead,
                actual,
                partial: closed.partial,
                poisoned,
            });
        }
        if decision.opened() {
            active.version = decision.next.unwrap_or(active.version);
        }
        record_decision(obs, ctl, at, &decision);
        active.interval_start = now;
        active.interval_start_observed = observed;
        active.snapshot = totals;
        active.signal_at = observed;
        active.signal_snapshot = totals;
        active.crashed_snapshot = crashed;
    }

    /// Leader maintenance at a barrier: apply a pending switch and/or
    /// finalize the section. `totals` are machine-wide stats at `now`;
    /// `observed` is the same instant on the observed (fault-distorted)
    /// clock, anchoring the next interval for expiry detection.
    fn leader_maintenance(
        &mut self,
        now: SimTime,
        observed: SimTime,
        totals: ProcStats,
        crashed: usize,
    ) {
        let over = self.active.as_ref().is_none_or(|a| a.section_over);
        if over {
            return;
        }
        if self.active.as_ref().is_some_and(|a| a.switch_requested) {
            if O::ENABLED && self.active.as_ref().is_some_and(|a| a.controller.is_some()) {
                // Synchronous switching (§4.1): every *live* processor is at
                // the section barrier when the leader applies the transition
                // (crash-stopped ones dropped out of the rendezvous).
                let arrived = self.num_procs - crashed;
                self.obs.event(now.as_duration(), TraceEvent::BarrierSync { arrived });
            }
            let abort = self.active.as_ref().is_some_and(|a| a.abort_requested);
            self.close_interval(now, observed, totals, crashed, abort);
            if let Some(active) = self.active.as_mut() {
                active.switch_requested = false;
                active.abort_requested = false;
            }
        }
        let span = self.span_intervals;
        let Some(active) = self.active.as_mut() else {
            return;
        };
        if active.finishing && active.issued_iters >= active.total_iters {
            let mut carry = None;
            if let Some(ctl) = active.controller.as_mut() {
                let actual = now.saturating_since(active.interval_start);
                if span {
                    // §4.4 extension: the in-flight interval continues in
                    // the section's next execution.
                    carry = Some((actual, totals.since(&active.snapshot)));
                } else {
                    // Record the final, partial interval of the section.
                    if !actual.is_zero() {
                        let sample = totals.since(&active.snapshot).overhead_sample();
                        let overhead = sample.total_overhead();
                        active.records.push(SampleRecord {
                            at: now,
                            phase: ctl.phase(),
                            version: ctl.current_policy(),
                            overhead,
                            actual,
                            partial: true,
                            poisoned: crashed > active.crashed_snapshot,
                        });
                        if O::ENABLED {
                            if let Some(ev) =
                                interval_end_event(ctl.phase(), overhead, actual, true)
                            {
                                self.obs.event(now.as_duration(), ev);
                            }
                        }
                    }
                    ctl.end_section();
                }
            }
            active.section_over = true;
            let entry = &self.plan[active.plan_idx];
            let name = entry.name.clone();
            self.reports.push(SectionExecution {
                plan_idx: active.plan_idx,
                name: name.clone(),
                kind: active.kind,
                start: active.start,
                end: now,
                iterations: active.total_iters,
                records: std::mem::take(&mut active.records),
            });
            // Persist the controller (and its policy history) for the next
            // execution of this section.
            if let Some(controller) = active.controller.take() {
                self.controllers.insert(name, SavedController { controller, carry });
            }
        }
    }
}

/// Per-processor process state.
enum PState {
    /// About to begin plan entry `pos` (or finish if out of entries).
    NextEntry,
    /// Draining the step buffer; then go to `after`.
    Drain(AfterDrain),
    /// Poll the timer and check interval expiration (dynamic mode).
    PollTimer,
    /// Just returned from a barrier.
    AfterBarrier,
    /// Finished.
    Finished,
}

#[derive(Clone, Copy)]
enum AfterDrain {
    /// After a serial body: go to the section barrier.
    ToBarrier,
    /// After an iteration body: poll the timer (dynamic/instrumented) or
    /// fetch the next iteration directly.
    NextIteration,
}

struct AppProcess<'a, O: Observer> {
    driver: Rc<RefCell<Driver<'a, O>>>,
    proc_index: usize,
    pos: usize,
    state: PState,
    /// This processor's step buffer: refilled in place by every body it
    /// emits and drained through `cursor`, so no iteration allocates.
    ops: OpSink,
    cursor: usize,
    barrier: BarrierId,
    instrument_cost: Duration,
    /// Charge instrumentation and poll the timer after every iteration
    /// (dynamic modes and instrumented static runs).
    poll: bool,
}

/// Number of processors that have crash-stopped so far, as visible to a
/// running process. Monotone in simulation time, so snapshot comparisons
/// detect "a crash happened during this interval".
fn crashed_count(ctx: &ProcCtx<'_>) -> usize {
    ctx.all_stats().iter().filter(|p| p.crashed_at.is_some()).count()
}

impl<'a, O: Observer> AppProcess<'a, O> {
    /// Take the next loop iteration (or initiate the section-ending
    /// rendezvous), returning the next step.
    fn parallel_step(&mut self, ctx: &mut ProcCtx<'_>) -> Step {
        let mut driver = self.driver.borrow_mut();
        if let Err(e) = driver.ensure_active(self.pos, ctx) {
            driver.error.get_or_insert(e);
            self.state = PState::Finished;
            return Step::Done;
        }
        // Split borrow: the section name stays borrowed from the plan
        // while the app emits into this processor's buffer.
        let Driver { app, plan, active, error, .. } = &mut *driver;
        let Some(active) = active.as_mut() else {
            error.get_or_insert(SimError::Internal("no active section after init"));
            self.state = PState::Finished;
            return Step::Done;
        };

        if active.switch_requested || active.finishing {
            self.state = PState::AfterBarrier;
            return Step::Barrier(self.barrier);
        }
        if active.issued_iters >= active.total_iters {
            active.finishing = true;
            self.state = PState::AfterBarrier;
            return Step::Barrier(self.barrier);
        }
        let iter = active.issued_iters;
        active.issued_iters += 1;
        let section = &plan[self.pos].name;
        self.ops.refill(|ops| app.emit_iteration(section, active.version, iter, ops));
        self.cursor = 0;
        if self.poll {
            ctx.charge(self.instrument_cost);
        }
        self.state = PState::Drain(AfterDrain::NextIteration);
        drop(driver);
        self.drain(ctx)
    }

    /// Return the next buffered step, or transition to the continuation.
    /// Most steps come from here and need no driver.
    #[inline]
    fn drain(&mut self, ctx: &mut ProcCtx<'_>) -> Step {
        if let Some(&step) = self.ops.steps.get(self.cursor) {
            self.cursor += 1;
            return step;
        }
        self.end_body(ctx)
    }

    /// Once any processor hit an unrecoverable error, everyone winds down
    /// at its next body boundary (errors arise only at section
    /// boundaries); run_app reports the recorded error instead of
    /// statistics. Returns whether this processor wound down.
    fn wound_down(&mut self) -> bool {
        let failed = self.driver.borrow().error.is_some();
        if failed {
            self.state = PState::Finished;
        }
        failed
    }

    /// The buffered body is drained: go on to its continuation.
    fn end_body(&mut self, ctx: &mut ProcCtx<'_>) -> Step {
        if self.wound_down() {
            return Step::Done;
        }
        let after = match self.state {
            PState::Drain(a) => a,
            _ => unreachable!("drain called outside Drain state"),
        };
        match after {
            AfterDrain::ToBarrier => {
                self.state = PState::AfterBarrier;
                Step::Barrier(self.barrier)
            }
            AfterDrain::NextIteration => {
                if self.poll {
                    self.state = PState::PollTimer;
                    self.poll_timer(ctx)
                } else {
                    self.state = PState::NextEntry; // re-enters parallel_step
                    self.parallel_step(ctx)
                }
            }
        }
    }

    /// Potential switch point (§4.1): read the timer; request a switch if
    /// the current interval has expired. The expiry comparison uses the
    /// *observed* (possibly fault-distorted, non-monotone) timer, exactly
    /// as the generated code would; the stuck-sampling watchdog compares
    /// against fault-immune simulation time to catch observed clocks that
    /// have stalled.
    ///
    /// Machine-wide stats are summed only on the paths that consume them:
    /// a detector-signal slice, an asynchronous transition, or an abort.
    fn poll_timer(&mut self, ctx: &mut ProcCtx<'_>) -> Step {
        let t = ctx.read_timer();
        let now = ctx.now();
        let mut driver = self.driver.borrow_mut();
        let asynchronous = matches!(driver.mode, RunMode::DynamicAsync(_));
        let watchdog = driver.sampling_watchdog;
        let mut expired = false;
        let mut stuck = false;
        if let Some(active) = driver.active.as_mut() {
            if let Some(ctl) = active.controller.as_mut() {
                let target = ctl.target_interval();
                expired = t.saturating_since(active.interval_start_observed) >= target;
                stuck = !expired
                    && ctl.phase().is_sampling()
                    && watchdog
                        .is_some_and(|k| now.saturating_since(active.interval_start) > target * k);
                // Event-driven trigger: feed the detector the waiting
                // proportion of the observed-time slice since the last
                // signal. An alarm ends the production interval exactly as
                // expiry would — the quiescence bound above stays the
                // fallback.
                if !expired && ctl.signal_due(t.saturating_since(active.signal_at)) {
                    let totals = ctx.total_stats();
                    let slice = totals.since(&active.signal_snapshot).overhead_sample();
                    active.signal_at = t;
                    active.signal_snapshot = totals;
                    if ctl.observe_production_signal(slice.waiting_fraction()) {
                        expired = true;
                    }
                }
            }
        }
        if expired {
            if asynchronous {
                // Asynchronous switching: transition immediately, no
                // rendezvous; the other processors observe the new version
                // at their next iteration. Timestamped with the observed
                // time, as the generated code would.
                driver.close_interval(t, t, ctx.total_stats(), crashed_count(ctx), false);
            } else if let Some(active) = driver.active.as_mut() {
                active.switch_requested = true;
            }
        } else if stuck {
            if asynchronous {
                driver.close_interval(now, t, ctx.total_stats(), crashed_count(ctx), true);
            } else if let Some(active) = driver.active.as_mut() {
                active.switch_requested = true;
                active.abort_requested = true;
            }
        }
        drop(driver);
        self.state = PState::NextEntry;
        Step::Yield
    }
}

impl<'a, O: Observer> Process for AppProcess<'a, O> {
    fn step(&mut self, ctx: &mut ProcCtx<'_>) -> Step {
        if let PState::Drain(_) = self.state {
            return self.drain(ctx);
        }
        if self.wound_down() {
            return Step::Done;
        }
        match self.state {
            PState::Finished => Step::Done,
            PState::Drain(_) => unreachable!("drained above"),
            PState::PollTimer => unreachable!("poll handled inline"),
            PState::AfterBarrier => {
                if ctx.is_barrier_leader() {
                    let totals = ctx.total_stats();
                    let crashed = crashed_count(ctx);
                    self.driver.borrow_mut().leader_maintenance(
                        ctx.now(),
                        ctx.peek_timer(),
                        totals,
                        crashed,
                    );
                }
                // Decide whether the section continues or is over.
                let driver = self.driver.borrow();
                let over = match &driver.active {
                    Some(a) => a.plan_idx != self.pos || a.section_over,
                    None => true,
                };
                drop(driver);
                if over {
                    self.pos += 1;
                }
                self.state = PState::NextEntry;
                Step::Yield
            }
            PState::NextEntry => {
                let plan_len = self.driver.borrow().plan.len();
                if self.pos >= plan_len {
                    self.state = PState::Finished;
                    return Step::Done;
                }
                let kind = self.driver.borrow().plan[self.pos].kind;
                match kind {
                    SectionKind::Serial => {
                        let mut driver = self.driver.borrow_mut();
                        if let Err(e) = driver.ensure_active(self.pos, ctx) {
                            driver.error.get_or_insert(e);
                            self.state = PState::Finished;
                            return Step::Done;
                        }
                        if self.proc_index == 0 {
                            let Driver { app, plan, .. } = &mut *driver;
                            let section = &plan[self.pos].name;
                            self.ops.refill(|ops| app.emit_serial(section, ops));
                            self.cursor = 0;
                            drop(driver);
                            self.state = PState::Drain(AfterDrain::ToBarrier);
                            self.drain(ctx)
                        } else {
                            drop(driver);
                            self.state = PState::AfterBarrier;
                            Step::Barrier(self.barrier)
                        }
                    }
                    SectionKind::Parallel => self.parallel_step(ctx),
                }
            }
        }
    }
}

/// Run an application on the simulated machine.
///
/// # Errors
///
/// Every failure is a typed [`SimError`], never a panic: zero processors,
/// an invalid machine config or fault plan, a section with no versions (or
/// none implementing a statically requested policy), and any engine error
/// (deadlock, lock misuse, event-limit overrun).
pub fn run_app<'a, A: SimApp + 'a>(app: A, config: &RunConfig) -> Result<AppReport, SimError> {
    run_app_flight_recorded(app, config, &mut (), &mut (), &mut ())
}

/// Like [`run_app`], but borrows the application so the caller can inspect
/// its state (e.g. the program heap) after the run.
///
/// # Errors
///
/// Same as [`run_app`].
pub fn run_app_ref<A: SimApp>(app: &mut A, config: &RunConfig) -> Result<AppReport, SimError> {
    run_app_flight_recorded(app, config, &mut (), &mut (), &mut ())
}

/// Like [`run_app`], with the observation channels attached: the
/// adaptation timeline into `sink`, every controller decision with its
/// evidence snapshot into `journal`, and every lock event into `metrics`.
/// Each is an [`Observer`]; pass `&mut ()` for a channel you do not
/// attach, and it monomorphizes away. The driver reports to the pair
/// `(sink, journal)` and the engine to `metrics`.
///
/// Trace events and journal records are stamped with *virtual* simulation
/// time, so for a given app + config both streams are byte-deterministic,
/// regardless of host timing or how many runs execute concurrently.
/// Metrics accumulate directly in their observer — never through the
/// (droppable) trace ring buffer — at the same accounting sites that
/// update [`ProcStats`], so for any completed run the per-lock sums equal
/// the machine aggregates exactly.
///
/// # Errors
///
/// Same as [`run_app`].
pub fn run_app_flight_recorded<'a, A: SimApp + 'a, S: Observer, J: Observer, M: Observer>(
    app: A,
    config: &RunConfig,
    sink: &mut S,
    journal: &mut J,
    metrics: &mut M,
) -> Result<AppReport, SimError> {
    if config.num_procs == 0 {
        return Err(SimError::NoProcessors);
    }
    let mut obs = (&mut *sink, &mut *journal);
    if !config.faults.is_empty() {
        obs.event(
            Duration::ZERO,
            TraceEvent::FaultPlanActivated {
                seed: config.faults.seed(),
                events: config.faults.events().len(),
            },
        );
    }
    let mut machine = Machine::try_new(config.machine)?;
    machine.set_fault_plan(config.faults.clone())?;
    let mut app = app;
    app.setup(&mut machine);
    let barrier = machine.add_barrier(config.num_procs);
    let name = app.name().to_string();
    let plan = app.plan();
    let poll = match &config.mode {
        RunMode::Static { instrumented, .. } => *instrumented,
        RunMode::Dynamic(_) | RunMode::DynamicAsync(_) => true,
    };
    let driver = Rc::new(RefCell::new(Driver {
        app: Box::new(app),
        plan,
        mode: config.mode.clone(),
        num_procs: config.num_procs,
        obs,
        active: None,
        reports: Vec::new(),
        controllers: std::collections::HashMap::new(),
        span_intervals: config.span_intervals,
        sampling_watchdog: config.sampling_watchdog,
        error: None,
    }));
    let processes: Vec<Box<dyn Process + '_>> = (0..config.num_procs)
        .map(|p| {
            Box::new(AppProcess {
                driver: Rc::clone(&driver),
                proc_index: p,
                pos: 0,
                state: PState::NextEntry,
                ops: OpSink::default(),
                cursor: 0,
                barrier,
                instrument_cost: config.instrument_cost,
                poll,
            }) as Box<dyn Process + '_>
        })
        .collect();
    let result = machine.run_metered(processes, metrics);
    let Driver { error, reports, controllers, active, .. } = Rc::try_unwrap(driver)
        .unwrap_or_else(|_| unreachable!("all processes dropped"))
        .into_inner();
    // A runtime error recorded by a winding-down processor is the root
    // cause; report it before any secondary engine error (the survivors
    // blocked at a barrier read as a deadlock otherwise).
    if let Some(err) = error {
        return Err(err);
    }
    let stats = result?;
    let counts: Vec<DecisionCounts> = controllers
        .into_values()
        .map(|s| s.controller)
        .chain(active.and_then(|a| a.controller))
        .map(|c| c.counts())
        .collect();
    let sum = |count: fn(&DecisionCounts) -> u64| counts.iter().map(count).sum::<u64>();
    // Publish the failure-domain counters. Only non-zero values are
    // emitted, so a healthy run's profile is byte-identical to one produced
    // before the failure layer existed.
    let trace_dropped = sink.dropped();
    let journal_dropped = journal.dropped();
    for (name, value) in [
        ("policy_suspected", sum(|c| c.suspected)),
        ("policy_quarantined", sum(|c| c.quarantined)),
        ("policy_probed", sum(|c| c.probed)),
        ("policy_rehabilitated", sum(|c| c.rehabilitated)),
        ("policy_cleared", sum(|c| c.cleared)),
        ("switch_crash_fallbacks", sum(|c| c.crash_fallbacks)),
        ("watchdog_soft_failures", sum(|c| c.watchdog_soft_failures)),
        ("resample_alarms", sum(|c| c.resample_alarms)),
        ("resample_quiescent", sum(|c| c.resample_quiescent)),
        ("procs_crashed", stats.crashed_procs().len() as u64),
        ("locks_recovered", stats.recovered_locks()),
        ("trace_dropped", trace_dropped),
        ("journal_dropped", journal_dropped),
    ] {
        if value > 0 {
            metrics.counter(name, value);
        }
    }
    Ok(AppReport { app: name, stats, sections: reports })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy app: one serial section and one parallel section with two
    /// versions. Version "original" locks per iteration 8 times; version
    /// "aggressive" locks once. Each processor updates a disjoint
    /// accumulator, so the aggressive version is strictly better.
    struct Toy {
        iterations: usize,
        locks: Vec<LockId>,
        sum: u64,
    }

    impl Toy {
        fn new(iterations: usize) -> Self {
            Toy { iterations, locks: Vec::new(), sum: 0 }
        }
    }

    impl SimApp for Toy {
        fn name(&self) -> &str {
            "toy"
        }
        fn setup(&mut self, machine: &mut Machine) {
            let first = machine.add_locks(64);
            self.locks = (0..64).map(|i| LockId(first.index() + i)).collect();
        }
        fn plan(&self) -> Vec<PlanEntry> {
            vec![PlanEntry::serial("init"), PlanEntry::parallel("work")]
        }
        fn versions(&self, _section: &str) -> Vec<String> {
            vec!["original".to_string(), "aggressive".to_string()]
        }
        fn emit_serial(&mut self, _section: &str, ops: &mut OpSink) {
            ops.compute(Duration::from_millis(1));
        }
        fn begin_parallel(&mut self, _section: &str) -> usize {
            self.iterations
        }
        fn emit_iteration(&mut self, _s: &str, version: usize, iter: usize, ops: &mut OpSink) {
            let lock = self.locks[iter % self.locks.len()];
            self.sum += iter as u64;
            match version {
                0 => {
                    for _ in 0..8 {
                        ops.acquire(lock);
                        ops.compute(Duration::from_micros(5));
                        ops.release(lock);
                    }
                }
                _ => {
                    ops.acquire(lock);
                    ops.compute(Duration::from_micros(40));
                    ops.release(lock);
                }
            }
        }
    }

    #[test]
    fn static_runs_complete_and_apply_all_iterations() {
        let report = run_app(Toy::new(100), &RunConfig::fixed(4, "original")).unwrap();
        assert_eq!(report.sections.len(), 2);
        assert_eq!(report.sections[1].iterations, 100);
        // 8 acquires per iteration.
        assert_eq!(report.stats.totals().acquires, 800);
    }

    #[test]
    fn aggressive_static_is_faster_here() {
        let orig = run_app(Toy::new(400), &RunConfig::fixed(4, "original")).unwrap();
        let aggr = run_app(Toy::new(400), &RunConfig::fixed(4, "aggressive")).unwrap();
        assert!(aggr.elapsed() < orig.elapsed());
        assert_eq!(aggr.stats.totals().acquires, 400);
    }

    #[test]
    fn dynamic_feedback_converges_to_aggressive() {
        let ctl = ControllerConfig {
            target_sampling: Duration::from_micros(500),
            target_production: Duration::from_millis(5),
            ..ControllerConfig::default()
        };
        let report = run_app(Toy::new(4_000), &RunConfig::dynamic(4, ctl)).unwrap();
        let work = report.section("work").next().unwrap();
        assert!(!work.records.is_empty(), "must have sampled");
        // Find the first production record: it must use version 1.
        let prod =
            work.records.iter().find(|r| r.phase.is_production()).expect("reached production");
        assert_eq!(prod.version, 1, "records: {:?}", work.records);
        // Sampling must have measured both versions.
        let sampled: std::collections::BTreeSet<usize> = work
            .records
            .iter()
            .filter(|r| r.phase.is_sampling() && !r.partial)
            .map(|r| r.version)
            .collect();
        assert!(sampled.contains(&0) && sampled.contains(&1));
    }

    #[test]
    fn dynamic_close_to_best_static() {
        let ctl = ControllerConfig {
            target_sampling: Duration::from_micros(500),
            target_production: Duration::from_millis(50),
            ..ControllerConfig::default()
        };
        let best = run_app(Toy::new(4_000), &RunConfig::fixed(4, "aggressive")).unwrap();
        let dynamic = run_app(Toy::new(4_000), &RunConfig::dynamic(4, ctl)).unwrap();
        let ratio = dynamic.elapsed().as_secs_f64() / best.elapsed().as_secs_f64();
        assert!(ratio < 1.5, "dynamic {:?} vs best {:?}", dynamic.elapsed(), best.elapsed());
        // And it must beat the worst static version.
        let worst = run_app(Toy::new(4_000), &RunConfig::fixed(4, "original")).unwrap();
        assert!(dynamic.elapsed() < worst.elapsed());
    }

    #[test]
    fn single_processor_dynamic_works() {
        let ctl = ControllerConfig {
            target_sampling: Duration::from_micros(500),
            target_production: Duration::from_millis(5),
            ..ControllerConfig::default()
        };
        let report = run_app(Toy::new(500), &RunConfig::dynamic(1, ctl)).unwrap();
        assert_eq!(report.sections.len(), 2);
        assert_eq!(report.sections[1].iterations, 500);
    }

    #[test]
    fn serial_section_runs_on_proc_zero_only() {
        let report = run_app(Toy::new(10), &RunConfig::fixed(4, "aggressive")).unwrap();
        // Serial section compute (1ms) lands on proc 0.
        assert!(report.stats.procs[0].compute >= Duration::from_millis(1));
        // Other procs idled at the barrier during the serial section.
        assert!(report.stats.procs[1].barrier_wait >= Duration::from_millis(1));
    }

    #[test]
    fn effective_sampling_intervals_are_reported() {
        let ctl = ControllerConfig {
            // Tiny target: effective interval is bounded below by iteration size.
            target_sampling: Duration::from_nanos(1),
            target_production: Duration::from_millis(5),
            ..ControllerConfig::default()
        };
        let report = run_app(Toy::new(2_000), &RunConfig::dynamic(2, ctl)).unwrap();
        let eff = report.mean_effective_sampling_intervals("work");
        assert!(eff.len() >= 2);
        for (v, d) in eff.iter().enumerate() {
            let d = d.unwrap_or_else(|| panic!("version {v} never sampled"));
            assert!(d > Duration::from_micros(30), "effective interval {d:?}");
        }
    }

    #[test]
    fn determinism_of_full_runs() {
        let ctl = ControllerConfig {
            target_sampling: Duration::from_micros(300),
            target_production: Duration::from_millis(2),
            ..ControllerConfig::default()
        };
        let a = run_app(Toy::new(1_000), &RunConfig::dynamic(3, ctl.clone())).unwrap();
        let b = run_app(Toy::new(1_000), &RunConfig::dynamic(3, ctl)).unwrap();
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.sections, b.sections);
    }

    #[test]
    fn instrumented_static_charges_polling() {
        let mut cfg = RunConfig::fixed(2, "aggressive");
        let plain = run_app(Toy::new(500), &cfg).unwrap();
        cfg.mode = RunMode::Static { policy: "aggressive".into(), instrumented: true };
        let instr = run_app(Toy::new(500), &cfg).unwrap();
        assert!(instr.stats.totals().timer_reads > 0);
        assert!(instr.elapsed() >= plain.elapsed());
        // The paper's observation: instrumentation overhead is small.
        let ratio = instr.elapsed().as_secs_f64() / plain.elapsed().as_secs_f64();
        assert!(ratio < 1.6, "instrumentation ratio {ratio}");
    }
}

#[cfg(test)]
mod span_tests {
    use super::*;

    /// A two-execution section whose per-execution work is smaller than a
    /// sampling phase: without spanning, each execution restarts sampling;
    /// with spanning, the second execution resumes mid-phase.
    struct TinySections {
        lock: Option<LockId>,
    }

    impl SimApp for TinySections {
        fn name(&self) -> &str {
            "tiny"
        }
        fn setup(&mut self, machine: &mut Machine) {
            self.lock = Some(machine.add_lock());
        }
        fn plan(&self) -> Vec<PlanEntry> {
            vec![
                PlanEntry::parallel("work"),
                PlanEntry::serial("between"),
                PlanEntry::parallel("work"),
                PlanEntry::serial("between"),
                PlanEntry::parallel("work"),
            ]
        }
        fn versions(&self, _s: &str) -> Vec<String> {
            vec!["a".into(), "b".into()]
        }
        fn emit_serial(&mut self, _s: &str, ops: &mut OpSink) {
            ops.compute(Duration::from_micros(200));
        }
        fn begin_parallel(&mut self, _s: &str) -> usize {
            40
        }
        fn emit_iteration(&mut self, _s: &str, version: usize, _iter: usize, ops: &mut OpSink) {
            let lock = self.lock.expect("setup ran");
            // Version a locks 4 times per iteration, version b once.
            let n = if version == 0 { 4 } else { 1 };
            for _ in 0..n {
                ops.acquire(lock);
                ops.compute(Duration::from_micros(2));
                ops.release(lock);
            }
            ops.compute(Duration::from_micros(10));
        }
    }

    fn ctl() -> ControllerConfig {
        ControllerConfig {
            num_policies: 2,
            // Each sampling interval spans roughly one whole execution.
            target_sampling: Duration::from_micros(400),
            target_production: Duration::from_millis(50),
            ..ControllerConfig::default()
        }
    }

    #[test]
    fn spanning_continues_phases_across_executions() {
        let mut cfg = RunConfig::dynamic(2, ctl());
        cfg.span_intervals = true;
        let report = run_app(TinySections { lock: None }, &cfg).unwrap();
        // With spanning, no partial intervals are recorded and sampling
        // continues across executions: the distinct versions both get
        // sampled even though one execution fits only one interval.
        let records: Vec<&SampleRecord> =
            report.section("work").flat_map(|e| e.records.iter()).collect();
        assert!(records.iter().all(|r| !r.partial), "{records:?}");
        let sampled: std::collections::BTreeSet<usize> =
            records.iter().filter(|r| r.phase.is_sampling()).map(|r| r.version).collect();
        assert!(sampled.len() >= 2, "both versions sampled across executions: {records:?}");
    }

    #[test]
    fn without_spanning_each_execution_resamples() {
        let cfg = RunConfig::dynamic(2, ctl());
        let report = run_app(TinySections { lock: None }, &cfg).unwrap();
        // Every execution begins its own sampling phase with version 0.
        for exec in report.section("work") {
            let first = exec.records.first().expect("records");
            assert!(first.phase.is_sampling());
            assert_eq!(first.version, 0);
        }
    }

    #[test]
    fn spanning_excludes_inter_section_work_from_intervals() {
        let mut cfg = RunConfig::dynamic(2, ctl());
        cfg.span_intervals = true;
        let report = run_app(TinySections { lock: None }, &cfg).unwrap();
        // Every completed sampling interval's measured execution time must
        // be of the order of the interval itself — if the serial sections
        // in between leaked into the measurement, overheads would be
        // diluted below any plausible value for version 0 (4 lock pairs
        // per ~18us iteration).
        let v0_sampling: Vec<f64> = report
            .section("work")
            .flat_map(|e| e.records.iter())
            .filter(|r| r.phase.is_sampling() && r.version == 0)
            .map(|r| r.overhead)
            .collect();
        assert!(!v0_sampling.is_empty());
        for o in v0_sampling {
            assert!(o > 0.05, "overhead diluted: {o}");
        }
    }
}

#[cfg(test)]
mod edge_tests {
    use super::*;

    struct Tiny {
        iters: usize,
    }
    impl SimApp for Tiny {
        fn name(&self) -> &str {
            "tiny-edge"
        }
        fn setup(&mut self, _machine: &mut Machine) {}
        fn plan(&self) -> Vec<PlanEntry> {
            vec![PlanEntry::parallel("work"), PlanEntry::serial("tail")]
        }
        fn versions(&self, _s: &str) -> Vec<String> {
            vec!["only".to_string()]
        }
        fn emit_serial(&mut self, _s: &str, ops: &mut OpSink) {
            ops.compute(Duration::from_micros(5));
        }
        fn begin_parallel(&mut self, _s: &str) -> usize {
            self.iters
        }
        fn emit_iteration(&mut self, _s: &str, _v: usize, _i: usize, ops: &mut OpSink) {
            ops.compute(Duration::from_micros(10));
        }
    }

    #[test]
    fn zero_iteration_parallel_section_completes() {
        for mode in [
            RunMode::static_policy("only"),
            RunMode::Dynamic(ControllerConfig { num_policies: 1, ..ControllerConfig::default() }),
        ] {
            let cfg = RunConfig {
                num_procs: 4,
                mode,
                machine: MachineConfig::default(),
                instrument_cost: Duration::ZERO,
                span_intervals: false,
                faults: FaultPlan::default(),
                sampling_watchdog: None,
            };
            let report = run_app(Tiny { iters: 0 }, &cfg).expect("runs");
            assert_eq!(report.sections.len(), 2);
            assert_eq!(report.sections[0].iterations, 0);
        }
    }

    #[test]
    fn more_processors_than_iterations() {
        let report = run_app(Tiny { iters: 3 }, &RunConfig::fixed(8, "only")).expect("runs");
        assert_eq!(report.sections[0].iterations, 3);
        // Three processors did the work; all eight finished.
        assert_eq!(report.stats.procs.len(), 8);
    }

    #[test]
    fn single_iteration_dynamic_section() {
        let cfg = RunConfig::dynamic(
            4,
            ControllerConfig { num_policies: 1, ..ControllerConfig::default() },
        );
        let report = run_app(Tiny { iters: 1 }, &cfg).expect("runs");
        assert_eq!(report.sections[0].iterations, 1);
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::faults::{FaultKind, FaultPlan, Target, Window};

    /// One parallel section, two versions with different locking grain.
    struct Mini;
    impl SimApp for Mini {
        fn name(&self) -> &str {
            "mini"
        }
        fn setup(&mut self, machine: &mut Machine) {
            machine.add_locks(16);
        }
        fn plan(&self) -> Vec<PlanEntry> {
            vec![PlanEntry::parallel("work")]
        }
        fn versions(&self, _s: &str) -> Vec<String> {
            vec!["fine".to_string(), "coarse".to_string()]
        }
        fn emit_serial(&mut self, _s: &str, _ops: &mut OpSink) {}
        fn begin_parallel(&mut self, _s: &str) -> usize {
            600
        }
        fn emit_iteration(&mut self, _s: &str, version: usize, iter: usize, ops: &mut OpSink) {
            let lock = LockId(iter % 16);
            let n = if version == 0 { 4 } else { 1 };
            for _ in 0..n {
                ops.acquire(lock);
                ops.compute(Duration::from_micros(10 / n as u64));
                ops.release(lock);
            }
        }
    }

    fn ctl() -> ControllerConfig {
        ControllerConfig {
            target_sampling: Duration::from_micros(200),
            target_production: Duration::from_millis(2),
            ..ControllerConfig::default()
        }
    }

    fn frozen_clock() -> FaultPlan {
        FaultPlan::new(7).with_event(Window::always(), FaultKind::TimerDrift { ppm: -1_000_000 })
    }

    #[test]
    fn frozen_timer_starves_sampling_but_the_run_still_completes() {
        let cfg = RunConfig::dynamic(4, ctl()).with_faults(frozen_clock());
        let report = run_app(Mini, &cfg).expect("completes despite frozen clock");
        let work = report.section("work").next().unwrap();
        assert_eq!(work.iterations, 600);
        // The observed clock never advances, so no interval ever expires:
        // without a watchdog the section ends still inside its first
        // sampling interval (one partial record at most).
        assert!(
            work.records.iter().all(|r| r.partial && r.phase.is_sampling()),
            "{:?}",
            work.records
        );
    }

    #[test]
    fn watchdog_aborts_stuck_sampling_into_production() {
        let cfg = RunConfig::dynamic(4, ctl()).with_faults(frozen_clock()).with_watchdog(3);
        let report = run_app(Mini, &cfg).expect("runs");
        let work = report.section("work").next().unwrap();
        assert_eq!(work.iterations, 600);
        // The watchdog gave up on the stuck interval (recorded partial)...
        let aborted = work
            .records
            .iter()
            .find(|r| r.partial && r.phase.is_sampling())
            .expect("aborted sampling interval recorded");
        // ...after letting it run about `k×` its target in real time.
        assert!(aborted.actual >= ctl().target_sampling * 3, "{aborted:?}");
        // ...and the section then ran in production (best-so-far policy).
        let tail = work.records.last().expect("records");
        assert!(tail.phase.is_production(), "{:?}", work.records);
    }

    #[test]
    fn watchdog_is_inert_on_a_healthy_clock() {
        let base = run_app(Mini, &RunConfig::dynamic(4, ctl())).unwrap();
        let dogged = run_app(Mini, &RunConfig::dynamic(4, ctl()).with_watchdog(50)).unwrap();
        assert_eq!(base.stats, dogged.stats);
        assert_eq!(base.sections, dogged.sections);
    }

    #[test]
    fn faulted_dynamic_runs_are_deterministic() {
        let plan = FaultPlan::new(3)
            .with_event(
                Window::new(Duration::from_micros(500), Duration::from_millis(4)),
                FaultKind::Slowdown { procs: Target::Only(vec![0, 2]), factor: 5.0 },
            )
            .with_event(Window::always(), FaultKind::TimerJitter { max: Duration::from_micros(30) })
            .with_event(
                Window::new(Duration::ZERO, Duration::from_millis(2)),
                FaultKind::ContentionStorm {
                    locks: Target::All,
                    cost_factor: 3.0,
                    extra_hold: Duration::from_micros(5),
                },
            );
        let cfg = RunConfig::dynamic(4, ctl()).with_faults(plan).with_watchdog(10);
        let a = run_app(Mini, &cfg).expect("runs");
        let b = run_app(Mini, &cfg).expect("runs");
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.sections, b.sections);
    }

    fn crash_proc3_at(onset: Duration) -> FaultPlan {
        FaultPlan::new(5).with_event(
            Window::new(onset, onset + Duration::from_micros(1)),
            FaultKind::ProcCrash { procs: Target::Only(vec![3]) },
        )
    }

    #[test]
    fn proc_crash_mid_sampling_poisons_the_interval_and_the_run_completes() {
        use dynfb_core::metrics::MetricsRegistry;
        let cfg =
            RunConfig::dynamic(4, ctl()).with_faults(crash_proc3_at(Duration::from_micros(300)));
        let mut metrics = MetricsRegistry::new();
        let report = run_app_flight_recorded(Mini, &cfg, &mut (), &mut (), &mut metrics)
            .expect("completes despite crash");
        let work = report.section("work").next().unwrap();
        // The survivors finish every iteration.
        assert_eq!(work.iterations, 600);
        assert_eq!(report.stats.crashed_procs(), vec![3]);
        assert_eq!(report.stats.live_procs(), 3);
        // The interval in flight when proc 3 died is recorded but marked
        // poisoned: its measurement was discarded, not trusted.
        assert!(work.records.iter().any(|r| r.poisoned), "{:?}", work.records);
        // The failure-domain counters made it into the metrics sink.
        assert_eq!(metrics.counter_value("procs_crashed"), 1);
        assert!(metrics.counter_value("switch_crash_fallbacks") >= 1);
    }

    #[test]
    fn crash_fallback_switch_reason_is_traced() {
        use dynfb_core::trace::{RingBuffer, SwitchReason};
        let cfg =
            RunConfig::dynamic(4, ctl()).with_faults(crash_proc3_at(Duration::from_micros(300)));
        let mut ring = RingBuffer::new(8192);
        run_app_flight_recorded(Mini, &cfg, &mut ring, &mut (), &mut ()).expect("runs");
        assert!(
            ring.iter().any(|e| matches!(
                e.event,
                TraceEvent::PolicySwitch { reason: SwitchReason::CrashFallback, .. }
            )),
            "no crash-fallback switch in the trace"
        );
    }

    #[test]
    fn crashed_dynamic_runs_are_deterministic() {
        let cfg =
            RunConfig::dynamic(4, ctl()).with_faults(crash_proc3_at(Duration::from_micros(250)));
        let a = run_app(Mini, &cfg).expect("runs");
        let b = run_app(Mini, &cfg).expect("runs");
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.sections, b.sections);
    }

    #[test]
    fn watchdog_abort_marks_the_stuck_policy_suspect() {
        use dynfb_core::trace::RingBuffer;
        // A frozen clock starves the sampling interval, so the watchdog
        // fires against the policy under measurement and its soft failure
        // reaches the health machine.
        let cfg = RunConfig::dynamic(4, ctl()).with_faults(frozen_clock()).with_watchdog(3);
        let mut ring = RingBuffer::new(8192);
        let report =
            run_app_flight_recorded(Mini, &cfg, &mut ring, &mut (), &mut ()).expect("runs");
        assert_eq!(report.section("work").next().unwrap().iterations, 600);
        let states: Vec<&str> = ring
            .iter()
            .filter_map(|e| match e.event {
                TraceEvent::PolicyHealth { state, .. } => Some(state),
                _ => None,
            })
            .collect();
        assert!(states.contains(&"suspect"), "health timeline: {states:?}");
    }

    #[test]
    fn slowdown_fault_stretches_the_run() {
        let slow = FaultPlan::new(1)
            .with_event(Window::always(), FaultKind::Slowdown { procs: Target::All, factor: 4.0 });
        let base = run_app(Mini, &RunConfig::fixed(4, "coarse")).unwrap();
        let perturbed = run_app(Mini, &RunConfig::fixed(4, "coarse").with_faults(slow)).unwrap();
        assert!(perturbed.elapsed() > base.elapsed() * 3, "{:?}", perturbed.elapsed());
        // Same work was done either way.
        assert_eq!(base.stats.totals().acquires, perturbed.stats.totals().acquires);
    }
}

/// The acceptance criterion for the hardened runtime: no panic is
/// reachable through the public `run_app` API — misconfiguration and
/// malformed applications surface as typed [`SimError`]s.
#[cfg(test)]
mod error_tests {
    use super::*;
    use crate::faults::{FaultKind, FaultPlanError, Target, Window};

    struct Bare {
        versions: Vec<String>,
    }
    impl SimApp for Bare {
        fn name(&self) -> &str {
            "bare"
        }
        fn setup(&mut self, _machine: &mut Machine) {}
        fn plan(&self) -> Vec<PlanEntry> {
            vec![PlanEntry::parallel("work")]
        }
        fn versions(&self, _s: &str) -> Vec<String> {
            self.versions.clone()
        }
        fn emit_serial(&mut self, _s: &str, _ops: &mut OpSink) {}
        fn begin_parallel(&mut self, _s: &str) -> usize {
            4
        }
        fn emit_iteration(&mut self, _s: &str, _v: usize, _i: usize, ops: &mut OpSink) {
            ops.compute(Duration::from_micros(1));
        }
    }

    fn one_version() -> Bare {
        Bare { versions: vec!["only".to_string()] }
    }

    #[test]
    fn zero_processors_is_an_error() {
        let err = run_app(one_version(), &RunConfig::fixed(0, "only")).unwrap_err();
        assert_eq!(err, SimError::NoProcessors);
    }

    #[test]
    fn unknown_policy_is_an_error_not_a_panic() {
        let err = run_app(one_version(), &RunConfig::fixed(4, "nonexistent")).unwrap_err();
        let SimError::UnknownPolicy { section, policy, available } = err else {
            panic!("wrong error: {err}");
        };
        assert_eq!(section, "work");
        assert_eq!(policy, "nonexistent");
        assert_eq!(available, vec!["only".to_string()]);
    }

    #[test]
    fn versionless_section_is_an_error_not_a_panic() {
        let err = run_app(Bare { versions: Vec::new() }, &RunConfig::fixed(4, "only")).unwrap_err();
        assert_eq!(err, SimError::NoVersions { section: "work".to_string() });
    }

    #[test]
    fn invalid_machine_config_is_an_error_not_a_panic() {
        let mut cfg = RunConfig::fixed(2, "only");
        cfg.machine.barrier_cost = Duration::from_secs(9999);
        let err = run_app(one_version(), &cfg).unwrap_err();
        assert!(matches!(err, SimError::Config(e) if e.what == "barrier_cost"), "{err}");
    }

    #[test]
    fn invalid_fault_plan_is_an_error_not_a_panic() {
        let cfg = RunConfig::fixed(2, "only").with_faults(FaultPlan::new(0).with_event(
            Window::always(),
            FaultKind::Slowdown { procs: Target::All, factor: f64::NAN },
        ));
        let err = run_app(one_version(), &cfg).unwrap_err();
        assert!(matches!(err, SimError::FaultPlan(FaultPlanError { event: 0, .. })), "{err}");
    }

    #[test]
    fn unknown_policy_surfaces_even_from_later_plan_entries() {
        // The failing section is not the first one: earlier sections run
        // normally, then every processor winds down cleanly (no deadlock
        // masking the root cause).
        struct Late;
        impl SimApp for Late {
            fn name(&self) -> &str {
                "late"
            }
            fn setup(&mut self, _machine: &mut Machine) {}
            fn plan(&self) -> Vec<PlanEntry> {
                vec![PlanEntry::serial("init"), PlanEntry::parallel("work")]
            }
            fn versions(&self, _s: &str) -> Vec<String> {
                vec!["a".to_string()]
            }
            fn emit_serial(&mut self, _s: &str, ops: &mut OpSink) {
                ops.compute(Duration::from_micros(50));
            }
            fn begin_parallel(&mut self, _s: &str) -> usize {
                8
            }
            fn emit_iteration(&mut self, _s: &str, _v: usize, _i: usize, ops: &mut OpSink) {
                ops.compute(Duration::from_micros(1));
            }
        }
        let err = run_app(Late, &RunConfig::fixed(4, "zzz")).unwrap_err();
        assert!(matches!(err, SimError::UnknownPolicy { .. }), "{err}");
    }
}
