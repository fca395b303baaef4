//! A reusable adaptive executor over OS threads.
//!
//! This is the "library a downstream user adopts" face of dynamic feedback:
//! a workload exposes several functionally equivalent *versions* of an
//! item-processing routine (e.g. different synchronization strategies), and
//! [`AdaptiveExecutor::run`] executes the items on a pool of workers,
//! alternating sampling and production phases exactly as the paper's
//! generated code does:
//!
//! * workers poll a timer at every item boundary (the *potential switch
//!   points* of §4.1),
//! * when the current interval expires, all workers rendezvous at a barrier
//!   so policies switch *synchronously* and measurements are not polluted by
//!   mixed-policy execution,
//! * lock overheads are measured by counting successful acquires and failed
//!   acquire attempts through [`ProfiledMutex`] (§4.3).
//!
//! The executor degrades gracefully under faults: a version closure that
//! panics is caught ([`std::panic::catch_unwind`]), the version is
//! [quarantined](crate::controller::Controller::quarantine), the interrupted
//! item is retried under a surviving version, and sampling restarts among
//! the survivors. Only when *every* version has panicked does
//! [`run`](AdaptiveExecutor::run) give up, returning
//! [`ExecError::AllVersionsFailed`] instead of propagating the panic.
//!
//! ```
//! use dynfb_core::realtime::{AdaptiveExecutor, ExecutorConfig, Instruments, AdaptiveWorkload};
//! use dynfb_core::controller::ControllerConfig;
//! use std::sync::atomic::{AtomicU64, Ordering};
//!
//! struct Sum { total: AtomicU64 }
//! impl AdaptiveWorkload for Sum {
//!     fn num_versions(&self) -> usize { 2 }
//!     fn run_item(&self, version: usize, item: usize, _ins: &Instruments) {
//!         // Version 0 and 1 would normally differ in locking strategy.
//!         let _ = version;
//!         self.total.fetch_add(item as u64, Ordering::Relaxed);
//!     }
//! }
//!
//! let exec = AdaptiveExecutor::new(ExecutorConfig {
//!     workers: 2,
//!     controller: ControllerConfig {
//!         num_policies: 2,
//!         target_sampling: std::time::Duration::from_micros(500),
//!         target_production: std::time::Duration::from_millis(5),
//!         ..ControllerConfig::default()
//!     },
//!     ..ExecutorConfig::default()
//! });
//! let workload = Sum { total: AtomicU64::new(0) };
//! let report = exec.run(&workload, 10_000).expect("no version panics");
//! assert_eq!(workload.total.load(Ordering::Relaxed), (0..10_000u64).sum());
//! assert!(report.items_processed == 10_000);
//! ```

use crate::controller::{
    CloseFlags, ConfigError, Controller, ControllerConfig, Decision, HealthEvent, Phase, PolicyId,
};
use crate::journal::{record_decision, EvidenceTracker};
use crate::metrics::{LockMetrics, LockTable};
use crate::observer::Observer;
use crate::overhead::{OverheadCounters, OverheadSample};
use crate::trace::TraceEvent;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError, TryLockError};
use std::time::{Duration, Instant};

/// Lock a mutex, tolerating poison: a worker that panicked inside a version
/// closure is caught and quarantined, so shared state protected by the lock
/// is still consistent — the poison flag alone must not wedge the executor.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Per-event costs used to convert instrumentation counters into time
/// overheads (§4.3). Defaults approximate a modern CPU; use
/// [`InstrumentCosts::calibrate`] to measure the actual machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstrumentCosts {
    /// Cost of one successful acquire/release pair.
    pub pair_cost: Duration,
    /// Cost of one failed acquire attempt.
    pub attempt_cost: Duration,
}

impl Default for InstrumentCosts {
    fn default() -> Self {
        InstrumentCosts {
            pair_cost: Duration::from_nanos(40),
            attempt_cost: Duration::from_nanos(15),
        }
    }
}

/// Error from [`InstrumentCosts::calibrate`]: the measurement burst did not
/// observe the events it was supposed to time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CalibrationError {
    /// The contended `try_lock` burst recorded zero failed attempts, so the
    /// per-attempt cost has no denominator. A silent fallback here would
    /// report the whole burst's elapsed time as the cost of a single
    /// attempt, poisoning every waiting-overhead figure derived from it.
    NoContention,
}

impl fmt::Display for CalibrationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CalibrationError::NoContention => {
                write!(f, "calibration burst observed no failed lock attempts")
            }
        }
    }
}

impl std::error::Error for CalibrationError {}

/// Mean cost of one failed acquire attempt over a calibration burst.
fn attempt_cost_over(elapsed: Duration, failures: u32) -> Result<Duration, CalibrationError> {
    if failures == 0 {
        return Err(CalibrationError::NoContention);
    }
    Ok(elapsed / failures)
}

impl InstrumentCosts {
    /// Measure the actual cost of lock operations on this machine by timing
    /// a burst of uncontended acquire/release pairs and failed `try_lock`s.
    ///
    /// # Errors
    ///
    /// Returns [`CalibrationError::NoContention`] if the contended burst
    /// somehow recorded zero failed attempts (the attempt cost cannot be
    /// measured from nothing; dividing anyway would yield garbage).
    pub fn calibrate() -> Result<Self, CalibrationError> {
        const ROUNDS: u32 = 10_000;
        let m: Mutex<u64> = Mutex::new(0);
        let start = Instant::now();
        for _ in 0..ROUNDS {
            *lock(&m) += 1;
        }
        let pair_cost = start.elapsed() / ROUNDS;

        // Holding the guard across the burst forces contention: std's mutex
        // is not reentrant, so every try_lock below must fail.
        let held = lock(&m);
        let start = Instant::now();
        let mut failures = 0u32;
        for _ in 0..ROUNDS {
            if m.try_lock().is_err() {
                failures += 1;
            }
        }
        let attempt_cost = attempt_cost_over(start.elapsed(), failures)?;
        drop(held);
        Ok(InstrumentCosts {
            pair_cost: pair_cost.max(Duration::from_nanos(1)),
            attempt_cost: attempt_cost.max(Duration::from_nanos(1)),
        })
    }

    /// Convert an interval's counter delta into an overhead sample.
    ///
    /// The execution-time denominator is the *measured* elapsed interval —
    /// never the configured target, which the actual interval can overshoot
    /// arbitrarily under load or clock disturbance — multiplied by the
    /// number of workers that actually executed it. The multiply saturates,
    /// matching the saturating accumulation semantics of
    /// [`crate::overhead`].
    #[must_use]
    pub fn interval_sample(
        &self,
        delta: OverheadCounters,
        actual: Duration,
        active_workers: usize,
    ) -> OverheadSample {
        let nanos = actual.as_nanos().saturating_mul(active_workers.max(1) as u128);
        let execution = Duration::from_nanos(u64::try_from(nanos).unwrap_or(u64::MAX));
        delta.to_sample(self.pair_cost, self.attempt_cost, execution)
    }
}

/// Shared instrumentation counters, updated by [`ProfiledMutex`] and read by
/// the executor at interval boundaries.
#[derive(Debug, Default)]
pub struct Instruments {
    acquires: AtomicU64,
    failed_attempts: AtomicU64,
}

impl Instruments {
    /// Create zeroed counters.
    #[must_use]
    pub fn new() -> Self {
        Instruments::default()
    }

    /// Record one successful acquire/release pair.
    pub fn record_acquire(&self) {
        self.acquires.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one failed acquire attempt.
    pub fn record_failed_attempt(&self) {
        self.failed_attempts.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot the counters.
    #[must_use]
    pub fn snapshot(&self) -> OverheadCounters {
        OverheadCounters {
            acquires: self.acquires.load(Ordering::Relaxed),
            failed_attempts: self.failed_attempts.load(Ordering::Relaxed),
        }
    }
}

/// A mutex that counts successful acquires and failed acquire attempts, the
/// way the paper's generated spin-lock code does.
///
/// The lock spins on `try_lock`, recording each failure in the supplied
/// [`Instruments`]; the waiting overhead is then `failures × attempt_cost`.
#[derive(Debug, Default)]
pub struct ProfiledMutex<T> {
    inner: Mutex<T>,
}

impl<T> ProfiledMutex<T> {
    /// Wrap a value.
    pub fn new(value: T) -> Self {
        ProfiledMutex { inner: Mutex::new(value) }
    }

    /// Acquire the lock, recording instrumentation events.
    pub fn lock<'a>(&'a self, instruments: &Instruments) -> MutexGuard<'a, T> {
        loop {
            match self.inner.try_lock() {
                Ok(guard) => {
                    instruments.record_acquire();
                    return guard;
                }
                Err(TryLockError::Poisoned(poisoned)) => {
                    instruments.record_acquire();
                    return poisoned.into_inner();
                }
                Err(TryLockError::WouldBlock) => {
                    instruments.record_failed_attempt();
                    std::hint::spin_loop();
                }
            }
        }
    }

    /// Like [`lock`](ProfiledMutex::lock), additionally attributing the
    /// acquisition to lock `id` of `table`: wall-clock wait time (measured
    /// only when at least one attempt failed, matching the simulator's
    /// zero-wait uncontended acquires) and, when the returned guard drops,
    /// the wall-clock hold time. All table arithmetic saturates, so the
    /// per-lock profile degrades to pinned maxima rather than wrapping.
    pub fn lock_profiled<'a, 't>(
        &'a self,
        instruments: &Instruments,
        table: &'t LockTable,
        id: usize,
    ) -> ProfiledGuard<'a, 't, T> {
        let started = Instant::now();
        let mut failed = 0u64;
        loop {
            let outcome = match self.inner.try_lock() {
                Ok(guard) => Some(guard),
                Err(TryLockError::Poisoned(poisoned)) => Some(poisoned.into_inner()),
                Err(TryLockError::WouldBlock) => None,
            };
            match outcome {
                Some(inner) => {
                    instruments.record_acquire();
                    let waited = if failed > 0 { started.elapsed() } else { Duration::ZERO };
                    table.record_acquire(id, waited, failed);
                    return ProfiledGuard { inner, table, id, acquired_at: Instant::now() };
                }
                None => {
                    instruments.record_failed_attempt();
                    failed = failed.saturating_add(1);
                    std::hint::spin_loop();
                }
            }
        }
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Guard returned by [`ProfiledMutex::lock_profiled`]: dereferences to the
/// protected value and records the hold time into the lock table when
/// dropped (measured to the start of the release, before the underlying
/// mutex unlocks).
#[derive(Debug)]
pub struct ProfiledGuard<'a, 't, T> {
    inner: MutexGuard<'a, T>,
    table: &'t LockTable,
    id: usize,
    acquired_at: Instant,
}

impl<T> Deref for ProfiledGuard<'_, '_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> DerefMut for ProfiledGuard<'_, '_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T> Drop for ProfiledGuard<'_, '_, T> {
    fn drop(&mut self) {
        self.table.record_release(self.id, self.acquired_at.elapsed());
    }
}

/// A multi-version workload executed by [`AdaptiveExecutor`].
///
/// All versions must compute the same result; they may differ arbitrarily in
/// strategy (lock granularity, data layout, algorithm). `run_item` is called
/// concurrently from several workers.
pub trait AdaptiveWorkload: Sync {
    /// Number of functionally equivalent versions (≥ 1).
    fn num_versions(&self) -> usize;

    /// Process one item under the given version. Lock operations should go
    /// through [`ProfiledMutex::lock`] with the supplied instruments so the
    /// executor can measure overheads.
    ///
    /// A panic here does not take down the run: the executor catches it,
    /// quarantines the version, and retries the item under a survivor. The
    /// workload is responsible for leaving its own shared state usable when
    /// a version can panic midway through an item.
    fn run_item(&self, version: usize, item: usize, instruments: &Instruments);
}

/// Configuration for [`AdaptiveExecutor`].
#[derive(Debug, Clone)]
pub struct ExecutorConfig {
    /// Number of worker threads.
    pub workers: usize,
    /// Dynamic feedback controller configuration. `num_policies` must match
    /// the workload's `num_versions`.
    pub controller: ControllerConfig,
    /// Costs used to convert counters to time overheads.
    pub costs: InstrumentCosts,
    /// Check the timer every `poll_every` items (1 = every item).
    pub poll_every: usize,
    /// When `Some(k)`, a sampling interval whose measured length exceeds
    /// `k ×` the target sampling interval counts as a *deadline miss* and is
    /// reported to the controller's health machine as a soft failure of the
    /// sampled version (suspect on first miss, quarantine on repeat).
    /// `None` (the default) disables the mapping — wall-clock intervals
    /// overshoot routinely on loaded machines, so this is opt-in.
    pub deadline_miss_factor: Option<u32>,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig {
            workers: 4,
            controller: ControllerConfig::default(),
            costs: InstrumentCosts::default(),
            poll_every: 1,
            deadline_miss_factor: None,
        }
    }
}

/// Error returned by [`AdaptiveExecutor::try_new`] and
/// [`AdaptiveExecutor::run`]. Malformed configurations and totally failed
/// workloads surface here as values, never as panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// `workers` was zero.
    NoWorkers,
    /// `poll_every` was zero.
    ZeroPollEvery,
    /// The embedded controller configuration is invalid.
    Controller(ConfigError),
    /// The workload's version count disagrees with the controller's policy
    /// count.
    VersionMismatch {
        /// `AdaptiveWorkload::num_versions`.
        workload: usize,
        /// `ControllerConfig::num_policies`.
        controller: usize,
    },
    /// Every version panicked and was quarantined; no runnable version
    /// remains.
    AllVersionsFailed {
        /// Items that completed successfully before the run gave up.
        completed: usize,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::NoWorkers => write!(f, "executor needs at least one worker"),
            ExecError::ZeroPollEvery => write!(f, "poll_every must be non-zero"),
            ExecError::Controller(e) => write!(f, "invalid controller configuration: {e}"),
            ExecError::VersionMismatch { workload, controller } => write!(
                f,
                "workload has {workload} versions but the controller expects {controller}"
            ),
            ExecError::AllVersionsFailed { completed } => write!(
                f,
                "every version panicked and was quarantined ({completed} items completed)"
            ),
        }
    }
}

impl std::error::Error for ExecError {}

/// One record in the phase trace of an execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseRecord {
    /// Offset from the start of the run when the interval completed.
    pub at: Duration,
    /// Phase that just completed.
    pub phase: Phase,
    /// Policy that was executing.
    pub policy: PolicyId,
    /// Measured total overhead of the interval.
    pub overhead: f64,
    /// Actual length of the interval (the *effective* interval; never
    /// shorter than the minimum imposed by item granularity, §4.1).
    pub actual: Duration,
}

/// Result of one adaptive execution.
#[derive(Debug, Clone)]
pub struct ExecutionReport {
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Items that completed successfully. Equals the requested count: an
    /// item interrupted by a version panic is retried under a surviving
    /// version (a run with no survivors returns an error instead).
    pub items_processed: usize,
    /// Completed intervals, in order.
    pub trace: Vec<PhaseRecord>,
    /// Final instrumentation counters.
    pub counters: OverheadCounters,
    /// Versions quarantined after panicking, in quarantine order. A version
    /// that is rehabilitated and fails again appears once per quarantine.
    pub quarantined: Vec<PolicyId>,
    /// Versions restored to rotation by a clean backoff probe, in
    /// rehabilitation order.
    pub rehabilitated: Vec<PolicyId>,
    /// Number of panics caught in version closures.
    pub panics: u64,
    /// Production intervals ended early by a change-point alarm. Always
    /// zero under [`ResampleTrigger::FixedInterval`].
    ///
    /// [`ResampleTrigger::FixedInterval`]: crate::controller::ResampleTrigger::FixedInterval
    pub resample_alarms: u64,
    /// Production intervals that ran to the quiescence bound without an
    /// alarm (event-driven trigger only).
    pub resample_quiescent: u64,
    /// Per-lock profile snapshot, indexed by lock id — empty unless a lock
    /// table was passed to [`AdaptiveExecutor::run_flight_recorded`].
    /// Wall-clock quantities with saturating accounting: counts are exact (every
    /// operation through [`ProfiledMutex::lock_profiled`] is recorded), but
    /// durations are measured timestamps, not modeled costs.
    pub lock_profile: Vec<LockMetrics>,
}

impl ExecutionReport {
    /// The policy that held the most recent production phase, if any.
    #[must_use]
    pub fn last_production_policy(&self) -> Option<PolicyId> {
        self.trace.iter().rev().find(|r| r.phase.is_production()).map(|r| r.policy)
    }
}

/// Shared rendezvous used for synchronous policy switching. Unlike
/// `std::sync::Barrier`, workers may *deregister* when they run out of
/// items, so a pending switch never deadlocks on an exited worker, and the
/// whole gate can be aborted when no runnable version remains.
#[derive(Debug)]
struct SwitchGate {
    state: Mutex<GateState>,
    cv: Condvar,
}

#[derive(Debug)]
struct GateState {
    active: usize,
    arrived: usize,
    generation: u64,
    switch_pending: bool,
    aborted: bool,
}

impl SwitchGate {
    fn new(active: usize) -> Self {
        SwitchGate {
            state: Mutex::new(GateState {
                active,
                arrived: 0,
                generation: 0,
                switch_pending: false,
                aborted: false,
            }),
            cv: Condvar::new(),
        }
    }

    /// Mark a switch as pending. Returns false if one was already pending
    /// or the gate is aborted.
    fn request_switch(&self) -> bool {
        let mut st = lock(&self.state);
        if st.switch_pending || st.aborted {
            false
        } else {
            st.switch_pending = true;
            true
        }
    }

    /// Arrive at the gate; the last arriver runs `leader` (while holding the
    /// gate lock, passing the number of workers still registered — i.e. how
    /// many actually executed the ending interval) and releases everyone.
    /// Returns true for the leader. On an aborted gate, returns false
    /// immediately without waiting.
    fn arrive_and_wait(&self, leader: impl FnOnce(usize)) -> bool {
        let mut st = lock(&self.state);
        if st.aborted {
            return false;
        }
        st.arrived += 1;
        if st.arrived == st.active {
            leader(st.active);
            st.arrived = 0;
            st.switch_pending = false;
            st.generation = st.generation.wrapping_add(1);
            self.cv.notify_all();
            true
        } else {
            let gen = st.generation;
            while st.generation == gen && !st.aborted {
                st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
            if st.aborted {
                st.arrived = st.arrived.saturating_sub(1);
            }
            false
        }
    }

    /// Try to leave the pool. Fails (returns false) if a switch is pending,
    /// in which case the caller must participate in the rendezvous first.
    /// Always succeeds on an aborted gate.
    fn try_exit(&self) -> bool {
        let mut st = lock(&self.state);
        if st.aborted {
            return true;
        }
        if st.switch_pending {
            false
        } else {
            st.active -= 1;
            true
        }
    }

    /// Workers still registered.
    fn active(&self) -> usize {
        lock(&self.state).active
    }

    /// Permanently release the gate: wake all waiters, refuse future
    /// switches. Used when no runnable version remains.
    fn abort(&self) {
        let mut st = lock(&self.state);
        st.aborted = true;
        st.switch_pending = false;
        self.cv.notify_all();
    }
}

/// Shared executor state.
struct Shared<O: Observer> {
    next_item: AtomicUsize,
    num_items: usize,
    policy: AtomicUsize,
    switch_flag: AtomicBool,
    aborted: AtomicBool,
    completed: AtomicUsize,
    panics: AtomicU64,
    gate: SwitchGate,
    instruments: Instruments,
    control: Mutex<ControlState<O>>,
    costs: InstrumentCosts,
}

struct ControlState<O: Observer> {
    controller: Controller,
    interval_start: Instant,
    run_start: Instant,
    snapshot: OverheadCounters,
    /// Anchor of the current detector-signal window (event-driven trigger):
    /// one waiting-proportion observation per `target_sampling` of
    /// production time.
    signal_at: Instant,
    /// Instrumentation counters at `signal_at`.
    signal_snapshot: OverheadCounters,
    /// Production intervals ended early by a change-point alarm.
    alarms: u64,
    /// Production intervals that reached the quiescence bound un-alarmed.
    quiescent: u64,
    trace: Vec<PhaseRecord>,
    quarantine_log: Vec<PolicyId>,
    rehab_log: Vec<PolicyId>,
    /// The caller's trace and journal, guarded by the control lock so
    /// events and records arrive in a single total order with monotone
    /// wall-clock offsets.
    obs: O,
    /// Per-policy measurement ages backing each record's evidence snapshot.
    evidence: EvidenceTracker,
}

/// Executes [`AdaptiveWorkload`]s with dynamic feedback on a thread pool.
#[derive(Debug, Clone, Default)]
pub struct AdaptiveExecutor {
    config: ExecutorConfig,
}

impl AdaptiveExecutor {
    /// Create an executor.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid; use
    /// [`AdaptiveExecutor::try_new`] for a fallible constructor.
    #[must_use]
    pub fn new(config: ExecutorConfig) -> Self {
        AdaptiveExecutor::try_new(config).expect("invalid executor configuration")
    }

    /// Create an executor, validating the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::NoWorkers`], [`ExecError::ZeroPollEvery`], or
    /// [`ExecError::Controller`] for a malformed configuration.
    pub fn try_new(config: ExecutorConfig) -> Result<Self, ExecError> {
        if config.workers == 0 {
            return Err(ExecError::NoWorkers);
        }
        if config.poll_every == 0 {
            return Err(ExecError::ZeroPollEvery);
        }
        Controller::try_new(config.controller.clone()).map_err(ExecError::Controller)?;
        Ok(AdaptiveExecutor { config })
    }

    /// The configuration this executor was created with.
    #[must_use]
    pub fn config(&self) -> &ExecutorConfig {
        &self.config
    }

    /// Run `num_items` items of the workload to completion, adapting the
    /// executing version with dynamic feedback.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::VersionMismatch`] if the workload's
    /// `num_versions` disagrees with the controller's `num_policies`, and
    /// [`ExecError::AllVersionsFailed`] if every version panicked (panics in
    /// version closures are caught and the version quarantined; the run only
    /// fails once no runnable version remains).
    pub fn run<W: AdaptiveWorkload>(
        &self,
        workload: &W,
        num_items: usize,
    ) -> Result<ExecutionReport, ExecError> {
        self.run_flight_recorded(workload, num_items, &mut (), &mut (), None)
    }

    /// [`run`](AdaptiveExecutor::run) with the observation channels
    /// attached: the adaptation timeline into `sink` and every controller
    /// decision, with its evidence snapshot, into `journal`, both stamped
    /// with wall-clock offsets from the start of the run; and, with a
    /// `table`, its per-lock profile in the report's
    /// [`lock_profile`](ExecutionReport::lock_profile). Pass `&mut ()` for
    /// a channel you do not attach; it monomorphizes away.
    ///
    /// The workload must route its lock operations through
    /// [`ProfiledMutex::lock_profiled`] with the *same* table for the
    /// profile to be meaningful; when it does, per-lock acquire and
    /// failed-attempt sums equal the aggregate
    /// [`counters`](ExecutionReport::counters) exactly, and wall-clock wait
    /// and hold totals are bounded by `elapsed × workers` (saturating).
    ///
    /// # Errors
    ///
    /// Same as [`run`](AdaptiveExecutor::run).
    pub fn run_flight_recorded<W, S, J>(
        &self,
        workload: &W,
        num_items: usize,
        sink: &mut S,
        journal: &mut J,
        table: Option<&LockTable>,
    ) -> Result<ExecutionReport, ExecError>
    where
        W: AdaptiveWorkload,
        S: Observer + Send,
        J: Observer + Send,
    {
        if workload.num_versions() != self.config.controller.num_policies {
            return Err(ExecError::VersionMismatch {
                workload: workload.num_versions(),
                controller: self.config.controller.num_policies,
            });
        }
        let mut controller =
            Controller::try_new(self.config.controller.clone()).map_err(ExecError::Controller)?;
        let mut evidence = EvidenceTracker::new(self.config.controller.num_policies);
        let mut obs = (sink, journal);
        obs.event(
            Duration::ZERO,
            TraceEvent::RunStart {
                policies: self.config.controller.num_policies,
                workers: self.config.workers,
            },
        );
        let open = controller.open_section();
        record_decision(&mut obs, Some(&mut evidence), &controller, Duration::ZERO, &open);
        let now = Instant::now();
        let shared = Shared {
            next_item: AtomicUsize::new(0),
            num_items,
            policy: AtomicUsize::new(controller.current_policy()),
            switch_flag: AtomicBool::new(false),
            aborted: AtomicBool::new(false),
            completed: AtomicUsize::new(0),
            panics: AtomicU64::new(0),
            gate: SwitchGate::new(self.config.workers),
            instruments: Instruments::new(),
            control: Mutex::new(ControlState {
                controller,
                interval_start: now,
                run_start: now,
                snapshot: OverheadCounters::default(),
                signal_at: now,
                signal_snapshot: OverheadCounters::default(),
                alarms: 0,
                quiescent: 0,
                trace: Vec::new(),
                quarantine_log: Vec::new(),
                rehab_log: Vec::new(),
                obs,
                evidence,
            }),
            costs: self.config.costs,
        };

        std::thread::scope(|scope| {
            for _ in 0..self.config.workers {
                scope.spawn(|| self.worker_loop(&shared, workload));
            }
        });

        let completed = shared.completed.load(Ordering::Relaxed);
        if shared.aborted.load(Ordering::Acquire) {
            return Err(ExecError::AllVersionsFailed { completed });
        }
        let mut control = lock(&shared.control);
        let elapsed = control.run_start.elapsed();
        control.obs.event(elapsed, TraceEvent::RunEnd);
        Ok(ExecutionReport {
            elapsed,
            items_processed: completed,
            trace: control.trace.clone(),
            counters: shared.instruments.snapshot(),
            quarantined: control.quarantine_log.clone(),
            rehabilitated: control.rehab_log.clone(),
            panics: shared.panics.load(Ordering::Relaxed),
            resample_alarms: control.alarms,
            resample_quiescent: control.quiescent,
            lock_profile: table.map(LockTable::snapshot).unwrap_or_default(),
        })
    }

    fn worker_loop<W: AdaptiveWorkload, O: Observer>(&self, shared: &Shared<O>, workload: &W) {
        let mut since_poll = 0usize;
        loop {
            if shared.aborted.load(Ordering::Acquire) {
                return;
            }
            if shared.switch_flag.load(Ordering::Acquire) {
                self.rendezvous(shared);
                continue;
            }
            let item = shared.next_item.fetch_add(1, Ordering::Relaxed);
            if item >= shared.num_items {
                if shared.gate.try_exit() {
                    return;
                }
                // A switch is pending: participate, then try again.
                self.rendezvous(shared);
                continue;
            }
            // Run the item, retrying under a surviving version if the
            // current version's closure panics.
            loop {
                if shared.aborted.load(Ordering::Acquire) {
                    return;
                }
                let policy = shared.policy.load(Ordering::Acquire);
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    workload.run_item(policy, item, &shared.instruments);
                }));
                match outcome {
                    Ok(()) => {
                        shared.completed.fetch_add(1, Ordering::Relaxed);
                        break;
                    }
                    Err(_) => {
                        shared.panics.fetch_add(1, Ordering::Relaxed);
                        self.quarantine_version(shared, policy);
                    }
                }
            }

            since_poll += 1;
            if since_poll >= self.config.poll_every {
                since_poll = 0;
                // Potential switch point: poll the timer (§4.1).
                let expired = {
                    let mut control = lock(&shared.control);
                    let mut fire =
                        control.interval_start.elapsed() >= control.controller.target_interval();
                    // Event-driven trigger: once per `target_sampling` of
                    // production time, feed the detector the waiting
                    // proportion of the slice since the last signal. An
                    // alarm forces a switch exactly as expiry would.
                    if !fire
                        && control.controller.phase().is_production()
                        && control.controller.event_driven()
                    {
                        let since_signal = control.signal_at.elapsed();
                        if since_signal >= control.controller.config().target_sampling {
                            let counters = shared.instruments.snapshot();
                            let delta = counters.since(&control.signal_snapshot);
                            let sample = shared.costs.interval_sample(
                                delta,
                                since_signal,
                                self.config.workers,
                            );
                            control.signal_at = Instant::now();
                            control.signal_snapshot = counters;
                            fire = control
                                .controller
                                .observe_production_signal(sample.waiting_fraction());
                        }
                    }
                    fire
                };
                if expired && shared.gate.request_switch() {
                    shared.switch_flag.store(true, Ordering::Release);
                }
            }
        }
    }

    /// A version closure panicked: quarantine it (a hard failure in the
    /// health machine), restart the measurement interval among the
    /// survivors, or abort the run when none remain.
    fn quarantine_version<O: Observer>(&self, shared: &Shared<O>, policy: PolicyId) {
        // Read before the control lock: the gate leader takes gate state
        // before control, so the reverse order could deadlock.
        let active = shared.gate.active();
        let next = {
            let mut control = lock(&shared.control);
            if control.controller.is_quarantined(policy)
                && control.controller.current_policy() != policy
            {
                // Another worker already handled this version; retry under
                // whatever policy is now current. (A quarantined version
                // that is *current* is a backoff probe whose panic must be
                // escalated, not skipped — skipping would retry the broken
                // probe forever.)
                return;
            }
            control.quarantine_log.push(policy);
            let flags = CloseFlags { hard_failure: Some(policy), ..CloseFlags::default() };
            // The interrupted interval's measurements are poisoned; the
            // decision ends it and a fresh interval starts from here.
            shared.close(&mut control, Instant::now(), active, flags).next
        };
        match next {
            Some(next) => shared.policy.store(next, Ordering::Release),
            None => {
                shared.aborted.store(true, Ordering::Release);
                // Release any workers parked at the gate; lock order matters:
                // the gate leader takes gate-state before control, so the
                // control lock is dropped before touching the gate here.
                shared.gate.abort();
            }
        }
    }

    fn rendezvous<O: Observer>(&self, shared: &Shared<O>) {
        shared.gate.arrive_and_wait(|active| {
            let mut control = lock(&shared.control);
            let now = Instant::now();
            let actual = now - control.interval_start;
            // A sampling interval that ran far past its deadline is evidence
            // against the sampled version (it may be wedged rather than
            // merely slow): the controller takes it as a soft failure.
            let target = control.controller.config().target_sampling;
            let flags = CloseFlags {
                deadline_miss: self
                    .config
                    .deadline_miss_factor
                    .is_some_and(|k| actual > target.saturating_mul(k)),
                ..CloseFlags::default()
            };
            if O::ENABLED {
                let at = now - control.run_start;
                control.obs.event(at, TraceEvent::BarrierSync { arrived: active });
            }
            let decision = shared.close(&mut control, now, active, flags);
            if let Some(next) = decision.next {
                shared.policy.store(next, Ordering::Release);
            }
            shared.switch_flag.store(false, Ordering::Release);
        });
    }
}

impl<O: Observer> Shared<O> {
    /// Close the current interval at `now`, under the control lock:
    /// measure it, take the controller's [`Decision`], record it in the
    /// report, the trace and the journal, and start the next interval's
    /// bookkeeping when one opened. `active` is the number of workers that
    /// executed the interval.
    fn close(
        &self,
        control: &mut ControlState<O>,
        now: Instant,
        active: usize,
        flags: CloseFlags,
    ) -> Decision {
        let actual = now - control.interval_start;
        let at = now - control.run_start;
        let counters = self.instruments.snapshot();
        // Execution time across all processors: the *measured* elapsed
        // interval times the workers still registered at the gate (late
        // in a run some have exited; normalizing by the configured pool
        // size would dilute the overhead of the survivors).
        let sample = self.costs.interval_sample(counters.since(&control.snapshot), actual, active);
        let decision = control.controller.close_interval(sample, actual, flags);
        if let Some(closed) = decision.closed.filter(|c| !c.partial) {
            let (phase, policy, overhead) = (decision.before, decision.from, closed.overhead);
            control.trace.push(PhaseRecord { at, phase, policy, overhead, actual });
        }
        if decision.alarmed() {
            control.alarms += 1;
        }
        if decision.quiescent {
            control.quiescent += 1;
        }
        for ev in &decision.health {
            if let HealthEvent::Rehabilitated(p) = ev {
                control.rehab_log.push(*p);
            }
        }
        if decision.opened() {
            control.interval_start = now;
            control.snapshot = counters;
            control.signal_at = now;
            control.signal_snapshot = counters;
        }
        let ControlState { obs, evidence, controller, .. } = control;
        record_decision(obs, Some(evidence), controller, at, &decision);
        decision
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// Workload whose version 0 performs many lock pairs per item and
    /// version 1 performs a single one: version 1 always has lower locking
    /// overhead, so dynamic feedback must converge on it.
    struct LockHeavy {
        counter: ProfiledMutex<u64>,
        applied: AtomicU64,
    }

    /// Lock-free work every item does besides its locking. Without it an item
    /// is almost all locking in both versions, so version 1's 16x fewer lock
    /// pairs measure as only about 2x less overhead: a margin that uneven
    /// scheduling of the workers on a loaded host can flip.
    fn item_work() {
        let mut x = 0u64;
        for i in 0..300 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
    }

    impl AdaptiveWorkload for LockHeavy {
        fn num_versions(&self) -> usize {
            2
        }
        fn run_item(&self, version: usize, _item: usize, ins: &Instruments) {
            item_work();
            match version {
                0 => {
                    for _ in 0..16 {
                        *self.counter.lock(ins) += 1;
                    }
                }
                _ => {
                    *self.counter.lock(ins) += 16;
                }
            }
            self.applied.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn exec(workers: usize) -> AdaptiveExecutor {
        exec_intervals(workers, Duration::from_micros(200), Duration::from_millis(2))
    }

    /// An executor with the given target sampling and production intervals.
    fn exec_intervals(
        workers: usize,
        sampling: Duration,
        production: Duration,
    ) -> AdaptiveExecutor {
        AdaptiveExecutor::new(ExecutorConfig {
            workers,
            controller: ControllerConfig {
                num_policies: 2,
                target_sampling: sampling,
                target_production: production,
                ..ControllerConfig::default()
            },
            costs: InstrumentCosts::default(),
            poll_every: 1,
            deadline_miss_factor: None,
        })
    }

    #[test]
    fn processes_every_item_exactly_once() {
        let w = LockHeavy { counter: ProfiledMutex::new(0), applied: AtomicU64::new(0) };
        let report = exec(3).run(&w, 5_000).expect("no panics");
        assert_eq!(report.items_processed, 5_000);
        assert_eq!(w.applied.load(Ordering::Relaxed), 5_000);
        assert_eq!(w.counter.into_inner(), 5_000 * 16);
    }

    #[test]
    fn converges_to_low_overhead_version() {
        let w = LockHeavy { counter: ProfiledMutex::new(0), applied: AtomicU64::new(0) };
        // Sample for 10 ms, not 200 µs: on a loaded host the workers may
        // barely run during a short interval, which then reads as almost
        // no overhead and wins the comparison. Production is kept short so
        // that the run still completes several sampling rounds.
        let report = exec_intervals(2, Duration::from_millis(10), Duration::from_millis(20))
            .run(&w, 300_000)
            .expect("no panics");
        // At least one production phase must have happened, and the last
        // one must use version 1 (16x fewer lock pairs per item).
        let last = report.last_production_policy();
        assert_eq!(last, Some(1), "trace: {:?}", report.trace);
    }

    #[test]
    fn single_worker_runs() {
        let w = LockHeavy { counter: ProfiledMutex::new(0), applied: AtomicU64::new(0) };
        let report = exec(1).run(&w, 1_000).expect("no panics");
        assert_eq!(report.items_processed, 1_000);
    }

    #[test]
    fn counters_accumulate() {
        let w = LockHeavy { counter: ProfiledMutex::new(0), applied: AtomicU64::new(0) };
        let report = exec(2).run(&w, 2_000).expect("no panics");
        // Every item acquires at least once.
        assert!(report.counters.acquires >= 2_000);
    }

    /// Two-lock workload whose every lock operation goes through the
    /// profiled path, so per-lock sums must match the aggregate counters
    /// exactly.
    struct TwoLocks<'t> {
        slots: [ProfiledMutex<u64>; 2],
        table: &'t LockTable,
    }

    impl AdaptiveWorkload for TwoLocks<'_> {
        fn num_versions(&self) -> usize {
            2
        }
        fn run_item(&self, version: usize, item: usize, ins: &Instruments) {
            // Version 0 hammers both slots; version 1 touches one.
            let rounds = if version == 0 { 4 } else { 1 };
            for r in 0..rounds {
                let id = (item + r) % 2;
                *self.slots[id].lock_profiled(ins, self.table, id) += 1;
            }
        }
    }

    #[test]
    fn profiled_run_attributes_all_lock_activity_within_bounds() {
        let table = LockTable::new(2);
        let w = TwoLocks { slots: [ProfiledMutex::new(0), ProfiledMutex::new(0)], table: &table };
        let report = exec(3)
            .run_flight_recorded(&w, 4_000, &mut (), &mut (), Some(&table))
            .expect("no panics");
        assert_eq!(report.items_processed, 4_000);
        let profile = &report.lock_profile;
        assert_eq!(profile.len(), 2);

        // Counts are exact: every acquire and failed attempt went through
        // the profiled path, so per-lock sums equal the aggregates.
        let acquires: u64 = profile.iter().map(|m| m.acquires).sum();
        let failed: u64 = profile.iter().map(|m| m.failed_attempts).sum();
        let releases: u64 = profile.iter().map(|m| m.releases).sum();
        assert_eq!(acquires, report.counters.acquires);
        assert_eq!(failed, report.counters.failed_attempts);
        assert_eq!(releases, acquires, "every guard dropped");
        assert!(profile.iter().all(|m| !m.is_empty()), "both slots saw traffic");

        // Durations are wall-clock measurements under saturating
        // accounting: bounded by total worker time, not exact.
        let budget = report.elapsed.saturating_mul(3).saturating_add(Duration::from_millis(50));
        let waited: Duration = profile.iter().map(|m| m.waiting).sum();
        let held: Duration = profile.iter().map(|m| m.held).sum();
        assert!(waited <= budget, "waited {waited:?} > budget {budget:?}");
        assert!(held <= budget, "held {held:?} > budget {budget:?}");
    }

    #[test]
    fn unprofiled_run_reports_an_empty_lock_profile() {
        let w = LockHeavy { counter: ProfiledMutex::new(0), applied: AtomicU64::new(0) };
        let report = exec(2).run(&w, 500).expect("no panics");
        assert!(report.lock_profile.is_empty());
    }

    #[test]
    fn calibration_returns_positive_costs() {
        // The guard held across the burst guarantees contention, so
        // calibration must succeed on any machine.
        let costs = InstrumentCosts::calibrate().expect("forced contention");
        assert!(costs.pair_cost > Duration::ZERO);
        assert!(costs.attempt_cost > Duration::ZERO);
    }

    #[test]
    fn zero_failures_is_a_calibration_error_not_a_bogus_cost() {
        // Regression: this used to divide by failures.max(1), silently
        // reporting the whole burst's elapsed time as one attempt's cost.
        assert_eq!(
            attempt_cost_over(Duration::from_millis(5), 0),
            Err(CalibrationError::NoContention)
        );
        assert_eq!(attempt_cost_over(Duration::from_millis(5), 1000), Ok(Duration::from_micros(5)));
    }

    #[test]
    fn interval_sample_normalizes_by_measured_elapsed_and_active_workers() {
        let costs = InstrumentCosts {
            pair_cost: Duration::from_nanos(100),
            attempt_cost: Duration::from_nanos(50),
        };
        let delta = OverheadCounters { acquires: 1_000, failed_attempts: 400 };
        // 2 active workers over a measured 1ms interval: execution = 2ms.
        let sample = costs.interval_sample(delta, Duration::from_millis(1), 2);
        assert_eq!(sample.locking, Duration::from_micros(100));
        assert_eq!(sample.waiting, Duration::from_micros(20));
        assert_eq!(sample.execution, Duration::from_millis(2));
        // An interval that overshot its target is normalized by what was
        // *measured*, so the overhead fraction is unchanged by the
        // overshoot-proportional counter growth.
        let tripled = OverheadCounters { acquires: 3_000, failed_attempts: 1_200 };
        let long = costs.interval_sample(tripled, Duration::from_millis(3), 2);
        assert!((long.total_overhead() - sample.total_overhead()).abs() < 1e-12);
        // Zero workers is clamped, not a division hazard.
        let clamped = costs.interval_sample(delta, Duration::from_millis(1), 0);
        assert_eq!(clamped.execution, Duration::from_millis(1));
        // Saturates instead of overflowing on absurd inputs.
        let huge = costs.interval_sample(delta, Duration::from_secs(u64::MAX / 2), usize::MAX);
        assert_eq!(huge.execution, Duration::from_nanos(u64::MAX));
    }

    #[test]
    fn gate_handles_exit_during_pending_switch() {
        // Two "workers" by hand: one requests a switch, the other tries to
        // exit, must participate, and only then can exit.
        let gate = SwitchGate::new(2);
        assert!(gate.request_switch());
        assert!(!gate.try_exit());
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                gate.arrive_and_wait(|_| done.store(true, Ordering::SeqCst));
            });
            s.spawn(|| {
                gate.arrive_and_wait(|_| done.store(true, Ordering::SeqCst));
            });
        });
        assert!(done.load(Ordering::SeqCst));
        assert!(gate.try_exit());
        assert!(gate.try_exit());
    }

    #[test]
    fn aborted_gate_releases_waiters_and_exits() {
        let gate = SwitchGate::new(2);
        assert!(gate.request_switch());
        std::thread::scope(|s| {
            s.spawn(|| {
                // Parks until the abort arrives; must not lead.
                assert!(!gate.arrive_and_wait(|_| panic!("no leader on abort")));
            });
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(10));
                gate.abort();
            });
        });
        assert!(gate.try_exit());
        assert!(!gate.request_switch());
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use crate::controller::ControllerConfig;

    /// A trivially uniform workload: dynamic feedback must still terminate
    /// and produce a well-formed alternating trace.
    struct Uniform;
    impl AdaptiveWorkload for Uniform {
        fn num_versions(&self) -> usize {
            2
        }
        fn run_item(&self, _version: usize, item: usize, _ins: &Instruments) {
            std::hint::black_box(item.wrapping_mul(2654435761));
        }
    }

    #[test]
    fn trace_alternates_sampling_blocks_and_production() {
        let exec = AdaptiveExecutor::new(ExecutorConfig {
            workers: 2,
            controller: ControllerConfig {
                num_policies: 2,
                target_sampling: Duration::from_micros(100),
                target_production: Duration::from_micros(800),
                ..ControllerConfig::default()
            },
            ..ExecutorConfig::default()
        });
        let report = exec.run(&Uniform, 300_000).expect("no panics");
        // After any production record, the next record (if any) must be a
        // sampling record: production always resamples.
        for w in report.trace.windows(2) {
            if w[0].phase.is_production() {
                assert!(w[1].phase.is_sampling(), "{:?}", report.trace);
            }
        }
        // Intervals are positive and their timestamps increase.
        for w in report.trace.windows(2) {
            assert!(w[1].at >= w[0].at);
        }
    }

    #[test]
    fn zero_items_completes_immediately() {
        let exec = AdaptiveExecutor::new(ExecutorConfig {
            workers: 3,
            controller: ControllerConfig { num_policies: 2, ..ControllerConfig::default() },
            ..ExecutorConfig::default()
        });
        let report = exec.run(&Uniform, 0).expect("no panics");
        assert_eq!(report.items_processed, 0);
    }

    #[test]
    fn more_workers_than_items_is_fine() {
        let exec = AdaptiveExecutor::new(ExecutorConfig {
            workers: 8,
            controller: ControllerConfig { num_policies: 2, ..ControllerConfig::default() },
            ..ExecutorConfig::default()
        });
        let report = exec.run(&Uniform, 3).expect("no panics");
        assert_eq!(report.items_processed, 3);
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::controller::ControllerConfig;
    use std::sync::atomic::AtomicUsize;

    fn quiet_panics<T>(f: impl FnOnce() -> T) -> T {
        // Keep expected panics out of the test output.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = f();
        std::panic::set_hook(prev);
        out
    }

    fn exec(workers: usize, policies: usize) -> AdaptiveExecutor {
        AdaptiveExecutor::new(ExecutorConfig {
            workers,
            controller: ControllerConfig {
                num_policies: policies,
                target_sampling: Duration::from_micros(200),
                target_production: Duration::from_millis(2),
                ..ControllerConfig::default()
            },
            ..ExecutorConfig::default()
        })
    }

    /// Version 0 always panics; version 1 works.
    struct HalfBroken {
        ok_items: AtomicUsize,
    }
    impl AdaptiveWorkload for HalfBroken {
        fn num_versions(&self) -> usize {
            2
        }
        fn run_item(&self, version: usize, _item: usize, _ins: &Instruments) {
            assert_ne!(version, 0, "version 0 is broken");
            self.ok_items.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Every version panics on every item.
    struct FullyBroken;
    impl AdaptiveWorkload for FullyBroken {
        fn num_versions(&self) -> usize {
            2
        }
        fn run_item(&self, _version: usize, _item: usize, _ins: &Instruments) {
            panic!("all versions are broken");
        }
    }

    #[test]
    fn panicking_version_is_quarantined_and_items_still_complete() {
        quiet_panics(|| {
            let w = HalfBroken { ok_items: AtomicUsize::new(0) };
            let report = exec(3, 2).run(&w, 4_000).expect("version 1 survives");
            assert_eq!(report.items_processed, 4_000);
            assert_eq!(w.ok_items.load(Ordering::Relaxed), 4_000);
            // Version 0 is quarantined; under backoff rehabilitation a probe
            // may retry (and re-quarantine) it, but never version 1.
            assert!(!report.quarantined.is_empty());
            assert!(report.quarantined.iter().all(|&p| p == 0), "{:?}", report.quarantined);
            assert!(report.rehabilitated.iter().all(|&p| p == 0));
            assert!(report.panics >= 1);
            // Any production phase after the quarantine must use version 1.
            if let Some(last) = report.last_production_policy() {
                assert_eq!(last, 1);
            }
        });
    }

    /// Version 0 sleeps far past any sampling deadline; version 1 is fast.
    struct Sluggish;
    impl AdaptiveWorkload for Sluggish {
        fn num_versions(&self) -> usize {
            2
        }
        fn run_item(&self, version: usize, _item: usize, _ins: &Instruments) {
            if version == 0 {
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }

    #[test]
    fn deadline_missed_intervals_feed_the_health_machine() {
        let exec = AdaptiveExecutor::new(ExecutorConfig {
            workers: 2,
            controller: ControllerConfig {
                num_policies: 2,
                target_sampling: Duration::from_micros(200),
                target_production: Duration::from_millis(1),
                ..ControllerConfig::default()
            },
            deadline_miss_factor: Some(4),
            ..ExecutorConfig::default()
        });
        let mut ring = crate::trace::RingBuffer::new(4096);
        let report = exec
            .run_flight_recorded(&Sluggish, 2_000, &mut ring, &mut (), None)
            .expect("completes");
        assert_eq!(report.items_processed, 2_000);
        // Version 0 blows every 800µs deadline by sleeping 5ms per item, so
        // the health machine must have at least put it on notice.
        let flagged = ring.iter().any(|e| {
            matches!(
                e.event,
                TraceEvent::PolicyHealth { policy: 0, state: "suspect" | "quarantined" }
            )
        });
        assert!(flagged, "slow version never flagged by the deadline-miss mapping");
    }

    #[test]
    fn all_versions_failing_is_an_error_not_a_panic() {
        quiet_panics(|| {
            let err = exec(2, 2).run(&FullyBroken, 100).unwrap_err();
            assert_eq!(err, ExecError::AllVersionsFailed { completed: 0 });
        });
    }

    #[test]
    fn version_mismatch_is_an_error_not_a_panic() {
        let err = exec(2, 3).run(&FullyBroken, 10).unwrap_err();
        assert_eq!(err, ExecError::VersionMismatch { workload: 2, controller: 3 });
    }

    #[test]
    fn invalid_configs_are_errors_not_panics() {
        let bad = ExecutorConfig { workers: 0, ..ExecutorConfig::default() };
        assert_eq!(AdaptiveExecutor::try_new(bad).unwrap_err(), ExecError::NoWorkers);
        let bad = ExecutorConfig { poll_every: 0, ..ExecutorConfig::default() };
        assert_eq!(AdaptiveExecutor::try_new(bad).unwrap_err(), ExecError::ZeroPollEvery);
        let bad = ExecutorConfig {
            controller: ControllerConfig { num_policies: 0, ..ControllerConfig::default() },
            ..ExecutorConfig::default()
        };
        assert_eq!(
            AdaptiveExecutor::try_new(bad).unwrap_err(),
            ExecError::Controller(ConfigError::NoPolicies)
        );
    }
}
