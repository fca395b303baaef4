//! The discrete-event simulation engine.
//!
//! [`Machine::run`] executes one [`Process`] per simulated processor,
//! advancing a virtual clock through an event queue. Events at equal
//! virtual times are ordered by insertion sequence, which makes every
//! simulation fully deterministic: the same processes produce the same
//! statistics on every run.

use crate::config::{MachineConfig, MachineConfigError};
use crate::faults::{FaultPlan, FaultPlanError};
use crate::process::{BarrierId, LockId, ProcCtx, ProcId, Process, Step};
use crate::queue::EventQueue;
use crate::stats::{MachineStats, ProcStats};
use crate::time::SimTime;
use dynfb_core::observer::Observer;
use std::collections::VecDeque;
use std::fmt;
use std::time::Duration;

/// Errors produced by a simulation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// All remaining processes are blocked (on locks or barriers).
    Deadlock {
        /// Virtual time at which progress stopped.
        at: SimTime,
        /// Processors blocked when the queue drained.
        blocked: Vec<ProcId>,
    },
    /// A process released a lock it does not hold.
    BadRelease {
        /// Offending processor.
        proc: ProcId,
        /// Lock it attempted to release.
        lock: LockId,
    },
    /// A process acquired a lock it already holds (simulated spin locks are
    /// not re-entrant; this would spin forever).
    RecursiveAcquire {
        /// Offending processor.
        proc: ProcId,
        /// Lock it attempted to re-acquire.
        lock: LockId,
    },
    /// A step referenced a lock or barrier that was never created.
    UnknownResource,
    /// The configured event limit was exceeded (runaway process).
    EventLimitExceeded,
    /// Simulated time would pass `u64::MAX` nanoseconds (about 584 years).
    TimeOverflow,
    /// One run scheduled more events than the event queue's packed
    /// insertion counter holds (2^60 on 16 processors).
    SeqOverflow,
    /// A run was requested on zero processors.
    NoProcessors,
    /// The machine cost model failed validation.
    Config(MachineConfigError),
    /// The fault-injection plan failed validation.
    FaultPlan(FaultPlanError),
    /// A static run requested a policy no version of a section implements.
    UnknownPolicy {
        /// The parallel section.
        section: String,
        /// The requested policy.
        policy: String,
        /// The versions the section does provide.
        available: Vec<String>,
    },
    /// A parallel section declared no code versions at all.
    NoVersions {
        /// The offending section.
        section: String,
    },
    /// An internal runtime invariant was violated (a bug in this crate,
    /// reported as an error instead of a panic so callers degrade cleanly).
    Internal(&'static str),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock { at, blocked } => {
                write!(f, "deadlock at {at}: processors {blocked:?} blocked")
            }
            SimError::BadRelease { proc, lock } => {
                write!(f, "processor {proc:?} released lock {lock:?} it does not hold")
            }
            SimError::RecursiveAcquire { proc, lock } => {
                write!(f, "processor {proc:?} re-acquired lock {lock:?} it already holds")
            }
            SimError::UnknownResource => write!(f, "step referenced an unknown lock or barrier"),
            SimError::EventLimitExceeded => write!(f, "event limit exceeded"),
            SimError::TimeOverflow => write!(f, "simulated time overflowed u64 nanoseconds"),
            SimError::SeqOverflow => write!(f, "event sequence number overflowed"),
            SimError::NoProcessors => write!(f, "need at least one processor"),
            SimError::Config(e) => write!(f, "{e}"),
            SimError::FaultPlan(e) => write!(f, "{e}"),
            SimError::UnknownPolicy { section, policy, available } => write!(
                f,
                "section `{section}` has no version for policy `{policy}` \
                 (available: {available:?})"
            ),
            SimError::NoVersions { section } => {
                write!(f, "parallel section `{section}` declares no code versions")
            }
            SimError::Internal(what) => write!(f, "internal runtime invariant violated: {what}"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Config(e) => Some(e),
            SimError::FaultPlan(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MachineConfigError> for SimError {
    fn from(e: MachineConfigError) -> Self {
        SimError::Config(e)
    }
}

impl From<FaultPlanError> for SimError {
    fn from(e: FaultPlanError) -> Self {
        SimError::FaultPlan(e)
    }
}

/// Scale a duration by a fault factor, saturating instead of panicking on
/// extreme products. Exact identity for the common factor of 1.
fn scale(d: Duration, factor: f64) -> Duration {
    if factor <= 1.0 {
        return d;
    }
    let ns = d.as_nanos() as f64 * factor;
    // `as` saturates at the type bounds, so absurd products clamp.
    Duration::from_nanos(ns as u64)
}

/// `t + d` for an event time: the one place the engine adds time, so an
/// overflow is a typed error in every build profile instead of a silent
/// wrap (release) or a panic (debug). The error is built only on the
/// overflow path: `ok_or` would build and drop a `SimError` on every add.
#[inline]
fn after(t: SimTime, d: Duration) -> Result<SimTime, SimError> {
    match t.checked_add(d) {
        Some(t) => Ok(t),
        None => Err(SimError::TimeOverflow),
    }
}

/// Grant a freed lock to its first waiter (if any) at `free_at`, accounting
/// the waiter's spinning as waiting overhead (§4.3 — failed attempts ×
/// cost). Shared by the normal release path and crashed-holder recovery so
/// both account identically — including the metrics emission the
/// consistency oracles check.
#[allow(clippy::too_many_arguments)]
fn grant_next_waiter<M: Observer>(
    l: &mut LockState,
    lock_idx: usize,
    free_at: SimTime,
    config: &MachineConfig,
    faults: &FaultPlan,
    stats: &mut [ProcStats],
    status: &mut [ProcStatus],
    queue: &mut EventQueue,
    metrics: &mut M,
) -> Result<(), SimError> {
    let Some((w, since)) = l.waiters.pop_front() else { return Ok(()) };
    let span = free_at - since;
    let attempt = config.lock_attempt_cost;
    let attempts = if attempt.is_zero() {
        1
    } else {
        let a = span.as_nanos() / attempt.as_nanos();
        u64::try_from(a).unwrap_or(u64::MAX).max(1)
    };
    let acq_cost = scale(config.lock_acquire_cost, faults.lock_cost_factor(lock_idx, free_at));
    let granted = after(free_at, acq_cost)?;
    let wi = w.0;
    stats[wi].wait_time += span;
    stats[wi].failed_attempts += attempts;
    stats[wi].acquires += 1;
    stats[wi].lock_time += acq_cost;
    l.holder = Some(w);
    if M::ENABLED {
        l.held_since = granted;
        metrics.lock_acquired(lock_idx, acq_cost, span, attempts);
    }
    status[wi] = ProcStatus::Ready;
    queue.schedule(wi, granted)
}

/// Release a completed barrier: schedule every arrived processor at the
/// release instant and pick the leader. `leader` is the completing arriver
/// in the normal path; crash-driven releases (`None`) elect the latest
/// arrival (ties to the higher processor id, matching the normal path
/// where the last arriver leads). The release never precedes `at_least`,
/// so a crash-driven release cannot schedule events in the past.
#[allow(clippy::too_many_arguments)]
fn release_barrier(
    b: &mut BarrierState,
    at_least: SimTime,
    barrier_cost: Duration,
    stats: &mut [ProcStats],
    status: &mut [ProcStatus],
    leader_flag: &mut [bool],
    queue: &mut EventQueue,
    leader: Option<usize>,
) -> Result<(), SimError> {
    let latest = b.arrived.iter().map(|&(_, at)| at).max().unwrap_or(at_least);
    let release = after(latest.max(at_least), barrier_cost)?;
    let lead =
        leader.or_else(|| b.arrived.iter().max_by_key(|&&(w, at)| (at, w.0)).map(|&(w, _)| w.0));
    if let Some(lead) = lead {
        leader_flag[lead] = true;
    }
    for &(w, at) in b.arrived.iter().rev() {
        stats[w.0].barrier_wait += release - at;
        status[w.0] = ProcStatus::Ready;
        queue.schedule(w.0, release)?;
    }
    b.arrived.clear();
    Ok(())
}

#[derive(Debug, Default)]
struct LockState {
    holder: Option<ProcId>,
    waiters: VecDeque<(ProcId, SimTime)>,
    /// When the current holder completed its acquire — only maintained
    /// while an enabled [`Observer`] is attached (hold-time attribution).
    held_since: SimTime,
    /// Touched since the last reset. Lock pools are sized for the worst
    /// case (one lock per possible object), so per-run reset walks only
    /// the dirty list instead of the whole pool.
    dirty: bool,
}

#[derive(Debug)]
struct BarrierState {
    /// Configured rendezvous size, restored at the start of every run.
    size: usize,
    /// Live rendezvous size: shrinks when a participant crash-stops.
    participants: usize,
    arrived: Vec<(ProcId, SimTime)>,
}

/// A simulated shared-memory multiprocessor.
///
/// Create the machine, add the locks and barriers the workload needs, then
/// [`run`](Machine::run) one process per processor.
///
/// ```
/// use dynfb_sim::{Machine, MachineConfig, Step, ProcCtx};
/// use std::time::Duration;
///
/// let mut machine = Machine::new(MachineConfig::default());
/// let lock = machine.add_lock();
/// let procs = (0..2).map(|_| {
///     let mut steps = vec![
///         Step::Compute(Duration::from_micros(50)),
///         Step::Acquire(lock),
///         Step::Compute(Duration::from_micros(10)),
///         Step::Release(lock),
///         Step::Done,
///     ].into_iter();
///     let f = move |_ctx: &mut ProcCtx<'_>| steps.next().unwrap();
///     Box::new(f) as Box<dyn dynfb_sim::Process>
/// }).collect();
/// let stats = machine.run(procs)?;
/// assert_eq!(stats.totals().acquires, 2);
/// # Ok::<(), dynfb_sim::SimError>(())
/// ```
#[derive(Debug)]
pub struct Machine {
    config: MachineConfig,
    faults: FaultPlan,
    locks: Vec<LockState>,
    barriers: Vec<BarrierState>,
    event_limit: Option<u64>,
    /// Indices of locks touched by the current run, reset lazily at the
    /// start of the next one (usage counters stay readable in between).
    dirty_locks: Vec<usize>,
    /// Scheduler event queue, kept across runs so its allocation is
    /// paid once per machine instead of once per run.
    queue: EventQueue,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProcStatus {
    Ready,
    Blocked,
    Finished,
    /// Crash-stopped by a [`FaultKind::ProcCrash`] fault; never runs again.
    ///
    /// [`FaultKind::ProcCrash`]: crate::faults::FaultKind::ProcCrash
    Dead,
}

impl Machine {
    /// Create a machine with the given cost model.
    ///
    /// # Panics
    ///
    /// Panics if the config fails [`MachineConfig::validate`]; use
    /// [`try_new`](Machine::try_new) to handle invalid configs gracefully.
    #[must_use]
    pub fn new(config: MachineConfig) -> Self {
        Machine::try_new(config).expect("invalid machine config")
    }

    /// Create a machine with the given cost model, validating it first.
    ///
    /// # Errors
    ///
    /// Returns the validation failure for out-of-range costs.
    pub fn try_new(config: MachineConfig) -> Result<Self, MachineConfigError> {
        config.validate()?;
        Ok(Machine {
            config,
            faults: FaultPlan::default(),
            locks: Vec::new(),
            barriers: Vec::new(),
            event_limit: None,
            dirty_locks: Vec::new(),
            queue: EventQueue::new(),
        })
    }

    /// The machine's cost model.
    #[must_use]
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Attach a fault-injection plan. All subsequent runs execute under it;
    /// the empty default plan perturbs nothing.
    ///
    /// # Errors
    ///
    /// Rejects plans that fail [`FaultPlan::validate`], leaving the current
    /// plan in place.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) -> Result<(), FaultPlanError> {
        plan.validate()?;
        self.faults = plan;
        Ok(())
    }

    /// Create a new spin lock (e.g. one per application object).
    pub fn add_lock(&mut self) -> LockId {
        self.locks.push(LockState::default());
        LockId(self.locks.len() - 1)
    }

    /// Create `n` locks at once, returning the id of the first; ids are
    /// consecutive. Convenient for per-object locks over object arrays.
    pub fn add_locks(&mut self, n: usize) -> LockId {
        let first = LockId(self.locks.len());
        for _ in 0..n {
            self.locks.push(LockState::default());
        }
        first
    }

    /// Create a barrier for `participants` processors.
    ///
    /// # Panics
    ///
    /// Panics if `participants == 0`.
    pub fn add_barrier(&mut self, participants: usize) -> BarrierId {
        assert!(participants > 0, "barrier needs at least one participant");
        self.barriers.push(BarrierState { size: participants, participants, arrived: Vec::new() });
        BarrierId(self.barriers.len() - 1)
    }

    /// Number of locks created so far.
    #[must_use]
    pub fn num_locks(&self) -> usize {
        self.locks.len()
    }

    /// Abort the simulation with [`SimError::EventLimitExceeded`] after this
    /// many events (guards tests against runaway processes).
    pub fn set_event_limit(&mut self, limit: u64) {
        self.event_limit = Some(limit);
    }

    /// Run one process per processor until all finish.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] on deadlock, lock misuse, unknown resources,
    /// when the event limit is exceeded, or when simulated time or the
    /// event counter would overflow ([`SimError::TimeOverflow`],
    /// [`SimError::SeqOverflow`]).
    pub fn run<'a>(
        &mut self,
        processes: Vec<Box<dyn Process + 'a>>,
    ) -> Result<MachineStats, SimError> {
        self.run_metered(processes, &mut ())
    }

    /// Run one process per processor, attributing lock activity to `metrics`.
    ///
    /// Every per-lock event is recorded at the same accounting site that
    /// updates [`ProcStats`], with the same virtual-time quantities — so the
    /// sum of per-lock metrics equals the machine aggregates *exactly* (the
    /// consistency-oracle contract). With the disabled `()` the emission
    /// sites monomorphize away and this is [`run`](Machine::run).
    ///
    /// # Errors
    ///
    /// Same as [`run`](Machine::run).
    pub fn run_metered<'a, M: Observer>(
        &mut self,
        mut processes: Vec<Box<dyn Process + 'a>>,
        metrics: &mut M,
    ) -> Result<MachineStats, SimError> {
        // Split the borrow once so the event loop can address resources,
        // the persistent queue, and the fault plan independently.
        let Machine { config, faults, locks, barriers, event_limit, dirty_locks, queue } = self;
        let n = processes.len();
        let mut stats = vec![ProcStats::default(); n];
        let mut status = vec![ProcStatus::Ready; n];
        let mut leader_flag = vec![false; n];
        let mut events: u64 = 0;
        let mut done = 0usize;
        let mut dead = 0usize;
        // Crash instants are pure per-proc functions of the plan.
        let crash_at: Vec<Option<SimTime>> = (0..n).map(|p| faults.crash_at(p)).collect();

        // Reset resource state so a machine can be reused across runs.
        // Only locks the previous run touched need resetting; the rest of
        // the (worst-case-sized) pool is still pristine.
        for &i in dirty_locks.iter() {
            let l = &mut locks[i];
            l.holder = None;
            l.waiters.clear();
            l.dirty = false;
        }
        dirty_locks.clear();
        for b in barriers.iter_mut() {
            b.participants = b.size;
            b.arrived.clear();
        }
        queue.reset(n);
        for p in 0..n {
            queue.schedule(p, SimTime::ZERO)?;
        }

        // Every event ends by rescheduling or parking its own processor,
        // which replaces the handled event in the queue.
        while let Some((now, p)) = queue.peek() {
            events += 1;
            if let Some(limit) = *event_limit {
                if events > limit {
                    return Err(SimError::EventLimitExceeded);
                }
            }
            debug_assert_eq!(status[p], ProcStatus::Ready);

            // Crash-stop faults take effect at the processor's next
            // scheduling point at or after the crash instant (a blocked
            // processor cannot observe its own death until it is granted
            // the resource it waits on and runs again).
            if crash_at[p].is_some_and(|c| now >= c) {
                stats[p].crashed_at = Some(now);
                status[p] = ProcStatus::Dead;
                queue.park(p);
                dead += 1;
                if M::ENABLED {
                    metrics.counter("sim_proc_crashes", 1);
                }
                // Abort-and-release: recover every lock orphaned by the
                // dead holder. The release costs nothing (nobody executes
                // it) and is granted to the first waiter immediately, with
                // the exact accounting of a normal release — so the
                // per-lock metrics oracles (releases == acquires, summed
                // locking/waiting times) still balance.
                for &li in dirty_locks.iter() {
                    let l = &mut locks[li];
                    if l.holder != Some(ProcId(p)) {
                        continue;
                    }
                    stats[p].recovered_locks += 1;
                    if M::ENABLED {
                        metrics.lock_released(
                            li,
                            Duration::ZERO,
                            now.saturating_since(l.held_since),
                        );
                        metrics.counter("sim_locks_recovered", 1);
                    }
                    l.holder = None;
                    grant_next_waiter(
                        l,
                        li,
                        now,
                        config,
                        faults,
                        &mut stats,
                        &mut status,
                        queue,
                        metrics,
                    )?;
                }
                // Dead processors drop out of every barrier: the rendezvous
                // size shrinks so survivors are not stranded waiting for an
                // arrival that will never come. (Contract: every processor
                // of a run participates in every barrier, which is how the
                // runtime drives its section/switch rendezvous.)
                for b in barriers.iter_mut() {
                    b.participants = b.participants.saturating_sub(1);
                    if !b.arrived.is_empty() && b.arrived.len() >= b.participants {
                        release_barrier(
                            b,
                            now,
                            config.barrier_cost,
                            &mut stats,
                            &mut status,
                            &mut leader_flag,
                            queue,
                            None,
                        )?;
                    }
                }
                continue;
            }

            // Stall faults hang the processor: defer this scheduling point
            // to the end of the stall window. Stalled time is charged to no
            // account — a hung processor executes nothing — but lock
            // waiters and barrier peers feel the delay.
            if let Some(resume) = faults.stall_until(p, now) {
                queue.schedule(p, resume)?;
                continue;
            }

            let mut ctx = ProcCtx {
                now,
                proc: ProcId(p),
                barrier_leader: leader_flag[p],
                timer_read_cost: config.timer_read_cost,
                faults,
                prior_timer_reads: stats[p].timer_reads,
                stats: &stats,
                pending_compute: Duration::ZERO,
                pending_timer: Duration::ZERO,
                timer_reads: 0,
            };
            leader_flag[p] = false;
            let step = processes[p].step(&mut ctx);
            let ProcCtx { pending_compute, pending_timer, timer_reads, .. } = ctx;

            stats[p].timer_reads += timer_reads;
            // Most steps charge nothing; skip the duration arithmetic.
            let mut t_eff = now;
            if !(pending_compute.is_zero() && pending_timer.is_zero()) {
                stats[p].compute += pending_compute;
                stats[p].timer_time += pending_timer;
                t_eff = after(now, pending_compute + pending_timer)?;
            }

            match step {
                Step::Compute(d) => {
                    // Slowdown faults stretch computation. The factor is
                    // evaluated once at the step's start (a step is the
                    // granularity of the event engine).
                    let d = scale(d, faults.compute_factor(p, t_eff));
                    stats[p].compute += d;
                    queue.schedule(p, after(t_eff, d)?)?;
                }
                Step::Yield => {
                    queue.schedule(p, t_eff)?;
                }
                Step::Acquire(lock) => {
                    let cost =
                        scale(config.lock_acquire_cost, faults.lock_cost_factor(lock.0, t_eff));
                    let Some(l) = locks.get_mut(lock.0) else {
                        return Err(SimError::UnknownResource);
                    };
                    if l.holder == Some(ProcId(p)) {
                        return Err(SimError::RecursiveAcquire { proc: ProcId(p), lock });
                    }
                    if !l.dirty {
                        l.dirty = true;
                        dirty_locks.push(lock.0);
                    }
                    if l.holder.is_none() {
                        let acquired = after(t_eff, cost)?;
                        l.holder = Some(ProcId(p));
                        stats[p].acquires += 1;
                        stats[p].lock_time += cost;
                        if M::ENABLED {
                            l.held_since = acquired;
                            metrics.lock_acquired(lock.0, cost, Duration::ZERO, 0);
                        }
                        queue.schedule(p, acquired)?;
                    } else {
                        l.waiters.push_back((ProcId(p), t_eff));
                        status[p] = ProcStatus::Blocked;
                        queue.park(p);
                    }
                }
                Step::Release(lock) => {
                    let cost =
                        scale(config.lock_release_cost, faults.lock_cost_factor(lock.0, t_eff));
                    // Contention storms leave the lock dead for a while
                    // after each release (the holder was preempted at the
                    // worst moment). The releaser itself proceeds once its
                    // release completes; only waiters see the dead time.
                    let extra = faults.extra_hold(lock.0, t_eff);
                    let Some(l) = locks.get_mut(lock.0) else {
                        return Err(SimError::UnknownResource);
                    };
                    if l.holder != Some(ProcId(p)) {
                        return Err(SimError::BadRelease { proc: ProcId(p), lock });
                    }
                    stats[p].lock_time += cost;
                    if M::ENABLED {
                        // Held from acquire completion to release *start*
                        // (the release cost is locking, not holding).
                        metrics.lock_released(lock.0, cost, t_eff.saturating_since(l.held_since));
                    }
                    let released_at = after(t_eff, cost)?;
                    let free_at = after(released_at, extra)?;
                    l.holder = None;
                    grant_next_waiter(
                        l,
                        lock.0,
                        free_at,
                        config,
                        faults,
                        &mut stats,
                        &mut status,
                        queue,
                        metrics,
                    )?;
                    queue.schedule(p, released_at)?;
                }
                Step::Barrier(barrier) => {
                    // Straggler faults delay this processor's arrival.
                    let arrival = after(t_eff, faults.barrier_delay(p, t_eff))?;
                    let Some(b) = barriers.get_mut(barrier.0) else {
                        return Err(SimError::UnknownResource);
                    };
                    b.arrived.push((ProcId(p), arrival));
                    if b.arrived.len() >= b.participants {
                        // Release after the *latest* arrival (a delayed
                        // straggler can arrive later than the last
                        // processor to reach the barrier). The last arriver
                        // is the leader and is scheduled first at the
                        // release instant, so it can perform switch
                        // bookkeeping before the others resume.
                        release_barrier(
                            b,
                            t_eff,
                            config.barrier_cost,
                            &mut stats,
                            &mut status,
                            &mut leader_flag,
                            queue,
                            Some(p),
                        )?;
                    } else {
                        status[p] = ProcStatus::Blocked;
                        queue.park(p);
                    }
                }
                Step::Done => {
                    stats[p].done_at = Some(t_eff);
                    status[p] = ProcStatus::Finished;
                    queue.park(p);
                    done += 1;
                }
            }
        }

        if done + dead != n {
            let blocked: Vec<ProcId> = (0..n)
                .filter(|&i| !matches!(status[i], ProcStatus::Finished | ProcStatus::Dead))
                .map(ProcId)
                .collect();
            let at = stats
                .iter()
                .filter_map(|s| s.done_at.or(s.crashed_at))
                .max()
                .unwrap_or(SimTime::ZERO);
            return Err(SimError::Deadlock { at, blocked });
        }

        // A run "finishes" when the last processor stops executing — by
        // completing its process or by crash-stopping.
        let finished_at =
            stats.iter().filter_map(|s| s.done_at.or(s.crashed_at)).max().unwrap_or(SimTime::ZERO);
        Ok(MachineStats { procs: stats, finished_at })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A process defined by a fixed list of steps.
    struct Script(std::vec::IntoIter<Step>);

    impl Script {
        fn new(steps: Vec<Step>) -> Self {
            Script(steps.into_iter())
        }
    }

    impl Process for Script {
        fn step(&mut self, _ctx: &mut ProcCtx<'_>) -> Step {
            self.0.next().unwrap_or(Step::Done)
        }
    }

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn single_process_compute_accumulates() {
        let mut m = Machine::new(MachineConfig::default());
        let stats = m
            .run(vec![Box::new(Script::new(vec![
                Step::Compute(ms(5)),
                Step::Compute(ms(7)),
                Step::Done,
            ]))])
            .unwrap();
        assert_eq!(stats.procs[0].compute, ms(12));
        assert_eq!(stats.finished_at, SimTime::ZERO + ms(12));
    }

    #[test]
    fn uncontended_lock_counts_no_waiting() {
        let mut m = Machine::new(MachineConfig::default());
        let l = m.add_lock();
        let stats = m
            .run(vec![Box::new(Script::new(vec![
                Step::Acquire(l),
                Step::Compute(ms(1)),
                Step::Release(l),
                Step::Done,
            ]))])
            .unwrap();
        let p = &stats.procs[0];
        assert_eq!(p.acquires, 1);
        assert_eq!(p.failed_attempts, 0);
        assert_eq!(p.wait_time, Duration::ZERO);
        assert_eq!(p.lock_time, m.config().lock_pair_cost());
    }

    #[test]
    fn contended_lock_accounts_waiting() {
        let mut m = Machine::new(MachineConfig::default());
        let l = m.add_lock();
        // Proc 0 grabs the lock immediately and holds it for 10ms.
        // Proc 1 tries at t=0 and must wait.
        let p0 = Script::new(vec![
            Step::Acquire(l),
            Step::Compute(ms(10)),
            Step::Release(l),
            Step::Done,
        ]);
        let p1 = Script::new(vec![Step::Acquire(l), Step::Release(l), Step::Done]);
        let mut reg = dynfb_core::MetricsRegistry::new();
        let stats = m.run_metered(vec![Box::new(p0), Box::new(p1)], &mut reg).unwrap();
        let w = &stats.procs[1];
        assert_eq!(w.acquires, 1);
        assert!(w.failed_attempts > 0);
        assert!(w.wait_time >= ms(10), "waited {:?}", w.wait_time);
        assert_eq!(reg.lock(l.0).acquires, 2);
        assert_eq!(reg.lock(l.0).contended_acquires, 1);
    }

    #[test]
    fn lock_grants_are_fifo() {
        let mut m = Machine::new(MachineConfig::default());
        let l = m.add_lock();
        // Proc 0 holds the lock; procs 1 and 2 queue at t=0 (1 first by
        // deterministic tie-break). After proc 1 gets the lock it computes
        // long enough that proc 2's total wait proves ordering.
        let hold =
            Script::new(vec![Step::Acquire(l), Step::Compute(ms(5)), Step::Release(l), Step::Done]);
        let w1 =
            Script::new(vec![Step::Acquire(l), Step::Compute(ms(3)), Step::Release(l), Step::Done]);
        let w2 = Script::new(vec![Step::Acquire(l), Step::Release(l), Step::Done]);
        let stats = m.run(vec![Box::new(hold), Box::new(w1), Box::new(w2)]).unwrap();
        assert!(stats.procs[2].wait_time > stats.procs[1].wait_time);
    }

    #[test]
    fn barrier_releases_everyone_together() {
        let mut m = Machine::new(MachineConfig::default());
        let b = m.add_barrier(3);
        let mk = |work_ms: u64| {
            Script::new(vec![Step::Compute(ms(work_ms)), Step::Barrier(b), Step::Done])
        };
        let stats = m.run(vec![Box::new(mk(1)), Box::new(mk(5)), Box::new(mk(3))]).unwrap();
        let done: Vec<_> = stats.procs.iter().map(|p| p.done_at.unwrap()).collect();
        assert_eq!(done[0], done[1]);
        assert_eq!(done[1], done[2]);
        // Fastest proc waited the longest.
        assert!(stats.procs[0].barrier_wait > stats.procs[1].barrier_wait);
    }

    #[test]
    fn barrier_leader_is_last_arriver() {
        let mut m = Machine::new(MachineConfig::default());
        let b = m.add_barrier(2);
        struct P {
            work: Duration,
            barrier: BarrierId,
            state: u32,
            was_leader: std::rc::Rc<std::cell::Cell<bool>>,
        }
        impl Process for P {
            fn step(&mut self, ctx: &mut ProcCtx<'_>) -> Step {
                self.state += 1;
                match self.state {
                    1 => Step::Compute(self.work),
                    2 => Step::Barrier(self.barrier),
                    _ => {
                        self.was_leader.set(ctx.is_barrier_leader());
                        Step::Done
                    }
                }
            }
        }
        let l0 = std::rc::Rc::new(std::cell::Cell::new(false));
        let l1 = std::rc::Rc::new(std::cell::Cell::new(false));
        let p0 = P { work: ms(1), barrier: b, state: 0, was_leader: l0.clone() };
        let p1 = P { work: ms(9), barrier: b, state: 0, was_leader: l1.clone() };
        m.run(vec![Box::new(p0), Box::new(p1)]).unwrap();
        assert!(!l0.get(), "early arriver must not lead");
        assert!(l1.get(), "last arriver leads");
    }

    #[test]
    fn deadlock_is_reported() {
        let mut m = Machine::new(MachineConfig::default());
        let b = m.add_barrier(2);
        // Only one of two procs reaches the barrier.
        let p0 = Script::new(vec![Step::Barrier(b), Step::Done]);
        let p1 = Script::new(vec![Step::Done]);
        let err = m.run(vec![Box::new(p0), Box::new(p1)]).unwrap_err();
        assert!(matches!(err, SimError::Deadlock { ref blocked, .. } if blocked == &[ProcId(0)]));
    }

    #[test]
    fn bad_release_is_reported() {
        let mut m = Machine::new(MachineConfig::default());
        let l = m.add_lock();
        let p = Script::new(vec![Step::Release(l), Step::Done]);
        assert!(matches!(m.run(vec![Box::new(p)]).unwrap_err(), SimError::BadRelease { .. }));
    }

    #[test]
    fn recursive_acquire_is_reported() {
        let mut m = Machine::new(MachineConfig::default());
        let l = m.add_lock();
        let p = Script::new(vec![Step::Acquire(l), Step::Acquire(l), Step::Done]);
        assert!(matches!(m.run(vec![Box::new(p)]).unwrap_err(), SimError::RecursiveAcquire { .. }));
    }

    #[test]
    fn timer_reads_cost_time() {
        let mut m = Machine::new(MachineConfig::default());
        struct P(u32);
        impl Process for P {
            fn step(&mut self, ctx: &mut ProcCtx<'_>) -> Step {
                self.0 += 1;
                if self.0 == 1 {
                    let t0 = ctx.read_timer();
                    let t1 = ctx.read_timer();
                    assert!(t1 > t0);
                    Step::Compute(Duration::from_millis(1))
                } else {
                    Step::Done
                }
            }
        }
        let stats = m.run(vec![Box::new(P(0))]).unwrap();
        assert_eq!(stats.procs[0].timer_reads, 2);
        assert_eq!(stats.procs[0].timer_time, m.config().timer_read_cost * 2);
    }

    #[test]
    fn event_limit_guards_runaway() {
        let mut m = Machine::new(MachineConfig::default());
        m.set_event_limit(100);
        let spin = |_: &mut ProcCtx<'_>| Step::Yield;
        let err = m.run(vec![Box::new(spin) as Box<dyn Process>]).unwrap_err();
        assert_eq!(err, SimError::EventLimitExceeded);
    }

    #[test]
    fn time_overflow_is_an_error_in_every_profile() {
        // 10^10 s is 10^19 ns: one fits in u64 nanoseconds, two do not.
        let huge = Duration::from_secs(10_000_000_000);
        let mut m = Machine::new(MachineConfig::default());
        let p = Script::new(vec![Step::Compute(huge), Step::Compute(huge), Step::Done]);
        assert_eq!(m.run(vec![Box::new(p)]).unwrap_err(), SimError::TimeOverflow);
        // A single step longer than u64::MAX ns is no panic either.
        let p = Script::new(vec![Step::Compute(Duration::MAX), Step::Done]);
        assert_eq!(m.run(vec![Box::new(p)]).unwrap_err(), SimError::TimeOverflow);
        // The lock path adds through the same helper: time reaches exactly
        // u64::MAX ns, then the acquire cost cannot be added.
        let l = m.add_lock();
        let p = Script::new(vec![Step::Compute(Duration::from_nanos(u64::MAX)), Step::Acquire(l)]);
        assert_eq!(m.run(vec![Box::new(p)]).unwrap_err(), SimError::TimeOverflow);
    }

    #[test]
    fn processors_due_at_one_instant_run_in_scheduling_order() {
        // Processor i computes (4 - i) ms, then (6 + i) ms: all four are due
        // at 10 ms, scheduled there in the order 3, 2, 1, 0 — the reverse
        // of their ids, so id order cannot pass for scheduling order.
        struct P {
            id: usize,
            state: u32,
            log: std::rc::Rc<std::cell::RefCell<Vec<(SimTime, usize)>>>,
        }
        impl Process for P {
            fn step(&mut self, ctx: &mut ProcCtx<'_>) -> Step {
                self.state += 1;
                self.log.borrow_mut().push((ctx.now(), self.id));
                match self.state {
                    1 => Step::Compute(ms(4 - self.id as u64)),
                    2 => Step::Compute(ms(6 + self.id as u64)),
                    _ => Step::Done,
                }
            }
        }
        let log = std::rc::Rc::default();
        let procs: Vec<Box<dyn Process>> = (0..4)
            .map(|id| {
                Box::new(P { id, state: 0, log: std::rc::Rc::clone(&log) }) as Box<dyn Process>
            })
            .collect();
        Machine::new(MachineConfig::default()).run(procs).unwrap();
        let at_10: Vec<usize> = log
            .borrow()
            .iter()
            .filter(|&&(t, _)| t == SimTime::ZERO + ms(10))
            .map(|&(_, p)| p)
            .collect();
        assert_eq!(at_10, [3, 2, 1, 0]);
        // At time zero the initial schedule is in id order.
        assert_eq!(log.borrow()[..4].iter().map(|&(_, p)| p).collect::<Vec<_>>(), [0, 1, 2, 3]);
    }

    #[test]
    fn determinism_across_runs() {
        let build = || {
            let mut m = Machine::new(MachineConfig::default());
            let l = m.add_lock();
            let procs: Vec<Box<dyn Process>> = (0..4)
                .map(|i| {
                    Box::new(Script::new(vec![
                        Step::Compute(Duration::from_micros(10 * (i + 1))),
                        Step::Acquire(l),
                        Step::Compute(Duration::from_micros(100)),
                        Step::Release(l),
                        Step::Done,
                    ])) as Box<dyn Process>
                })
                .collect();
            m.run(procs).unwrap()
        };
        assert_eq!(build(), build());
    }

    /// Build a contended multi-lock workload and return (stats, registry).
    fn metered_contended_run() -> (MachineStats, dynfb_core::MetricsRegistry) {
        let mut m = Machine::new(MachineConfig::default());
        let a = m.add_lock();
        let b = m.add_lock();
        let procs: Vec<Box<dyn Process>> = (0..4)
            .map(|i| {
                let l = if i % 2 == 0 { a } else { b };
                Box::new(Script::new(vec![
                    Step::Compute(Duration::from_micros(10 * (i + 1))),
                    Step::Acquire(l),
                    Step::Compute(Duration::from_micros(200)),
                    Step::Release(l),
                    Step::Acquire(a),
                    Step::Release(a),
                    Step::Done,
                ])) as Box<dyn Process>
            })
            .collect();
        let mut reg = dynfb_core::MetricsRegistry::new();
        let stats = m.run_metered(procs, &mut reg).unwrap();
        (stats, reg)
    }

    #[test]
    fn metered_per_lock_sums_equal_proc_stats_exactly() {
        let (stats, reg) = metered_contended_run();
        let totals = stats.totals();
        let sums = reg.totals();
        assert_eq!(sums.acquires, totals.acquires);
        assert_eq!(sums.failed_attempts, totals.failed_attempts);
        assert_eq!(sums.waiting, totals.wait_time);
        assert_eq!(sums.locking, totals.lock_time);
        assert_eq!(sums.acquires, sums.releases);
        assert!(sums.contended_acquires > 0, "workload must contend");
        // Hold time is metrics-only: every acquire observed a hold >= the
        // 200us critical computation on the first round.
        assert!(sums.held >= Duration::from_micros(200 * 4), "held {:?}", sums.held);
    }

    #[test]
    fn metered_run_matches_unmetered_run() {
        let (metered, _) = metered_contended_run();
        let mut m = Machine::new(MachineConfig::default());
        let a = m.add_lock();
        let b = m.add_lock();
        let procs: Vec<Box<dyn Process>> = (0..4)
            .map(|i| {
                let l = if i % 2 == 0 { a } else { b };
                Box::new(Script::new(vec![
                    Step::Compute(Duration::from_micros(10 * (i + 1))),
                    Step::Acquire(l),
                    Step::Compute(Duration::from_micros(200)),
                    Step::Release(l),
                    Step::Acquire(a),
                    Step::Release(a),
                    Step::Done,
                ])) as Box<dyn Process>
            })
            .collect();
        assert_eq!(m.run(procs).unwrap(), metered, "observation must not perturb the simulation");
    }

    #[test]
    fn metered_attribution_is_per_lock() {
        let (_, reg) = metered_contended_run();
        // Lock 0 (`a`) sees the cross-traffic second round; lock 1 (`b`)
        // only procs 1 and 3.
        assert_eq!(reg.lock(0).acquires + reg.lock(1).acquires, reg.totals().acquires);
        assert_eq!(reg.lock(1).acquires, 2);
        assert_eq!(reg.lock(0).acquires, 6);
    }
}

#[cfg(test)]
mod crash_tests {
    use super::*;
    use crate::faults::{FaultKind, FaultPlan, Target, Window};

    struct Script(std::vec::IntoIter<Step>);

    impl Script {
        fn new(steps: Vec<Step>) -> Self {
            Script(steps.into_iter())
        }
    }

    impl Process for Script {
        fn step(&mut self, _ctx: &mut ProcCtx<'_>) -> Step {
            self.0.next().unwrap_or(Step::Done)
        }
    }

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    fn crash(procs: Vec<usize>, at_ms: u64) -> FaultPlan {
        FaultPlan::new(7).with_event(
            Window::new(ms(at_ms), ms(at_ms + 1)),
            FaultKind::ProcCrash { procs: Target::Only(procs) },
        )
    }

    #[test]
    fn crashed_proc_stops_and_the_run_still_completes() {
        let mut m = Machine::new(MachineConfig::default());
        m.set_fault_plan(crash(vec![0], 5)).unwrap();
        // Proc 0 would compute 3×4ms; it dies at its second scheduling
        // point (t=4ms ≥ … no: crash at 5ms, so after the 4ms step it pops
        // at 4ms < 5ms, computes again, pops at 8ms ≥ 5ms and dies).
        let p0 = Script::new(vec![
            Step::Compute(ms(4)),
            Step::Compute(ms(4)),
            Step::Compute(ms(4)),
            Step::Done,
        ]);
        let p1 = Script::new(vec![Step::Compute(ms(20)), Step::Done]);
        let stats = m.run(vec![Box::new(p0), Box::new(p1)]).unwrap();
        assert_eq!(stats.procs[0].crashed_at, Some(SimTime::ZERO + ms(8)));
        assert_eq!(stats.procs[0].done_at, None);
        assert_eq!(stats.procs[0].compute, ms(8), "work before death is charged");
        assert_eq!(stats.procs[1].done_at, Some(SimTime::ZERO + ms(20)));
        assert_eq!(stats.crashed_procs(), vec![0]);
        assert_eq!(stats.live_procs(), 1);
        assert_eq!(stats.finished_at, SimTime::ZERO + ms(20));
    }

    #[test]
    fn all_procs_crashing_ends_the_run_without_deadlock() {
        let mut m = Machine::new(MachineConfig::default());
        m.set_fault_plan(crash(vec![0, 1], 1)).unwrap();
        let mk = || Script::new(vec![Step::Compute(ms(5)), Step::Compute(ms(5)), Step::Done]);
        let stats = m.run(vec![Box::new(mk()), Box::new(mk())]).unwrap();
        assert_eq!(stats.live_procs(), 0);
        assert_eq!(stats.finished_at, SimTime::ZERO + ms(5));
    }

    #[test]
    fn orphaned_lock_is_recovered_and_granted_to_waiters() {
        let mut m = Machine::new(MachineConfig::default());
        let l = m.add_lock();
        m.set_fault_plan(crash(vec![0], 2)).unwrap();
        // Proc 0 takes the lock and dies mid-critical-section; proc 1 must
        // still get the lock and finish (no deadlock on the orphan).
        let p0 = Script::new(vec![
            Step::Acquire(l),
            Step::Compute(ms(10)),
            Step::Release(l),
            Step::Done,
        ]);
        let p1 = Script::new(vec![Step::Acquire(l), Step::Release(l), Step::Done]);
        let stats = m.run(vec![Box::new(p0), Box::new(p1)]).unwrap();
        assert_eq!(stats.procs[0].recovered_locks, 1);
        assert!(stats.procs[0].crashed_at.is_some());
        assert_eq!(stats.procs[1].acquires, 1);
        assert!(stats.procs[1].done_at.is_some(), "waiter must complete");
        assert_eq!(stats.recovered_locks(), 1);
        // The waiter's spin until the recovery instant is accounted.
        assert!(stats.procs[1].wait_time > Duration::ZERO);
    }

    #[test]
    fn recovery_keeps_the_metrics_oracle_balanced() {
        let run = |metered: bool| {
            let mut m = Machine::new(MachineConfig::default());
            let l = m.add_lock();
            m.set_fault_plan(crash(vec![0], 2)).unwrap();
            let p0 = Script::new(vec![
                Step::Acquire(l),
                Step::Compute(ms(10)),
                Step::Release(l),
                Step::Done,
            ]);
            let p1 = Script::new(vec![Step::Acquire(l), Step::Release(l), Step::Done]);
            let procs: Vec<Box<dyn Process>> = vec![Box::new(p0), Box::new(p1)];
            let mut reg = dynfb_core::MetricsRegistry::new();
            let stats = if metered {
                m.run_metered(procs, &mut reg).unwrap()
            } else {
                m.run(procs).unwrap()
            };
            (stats, reg)
        };
        let (stats, reg) = run(true);
        let totals = stats.totals();
        let sums = reg.totals();
        assert_eq!(sums.acquires, totals.acquires);
        assert_eq!(sums.releases, sums.acquires, "recovery emits the missing release");
        assert_eq!(sums.locking, totals.lock_time);
        assert_eq!(sums.waiting, totals.wait_time);
        assert_eq!(reg.counter_value("sim_proc_crashes"), 1);
        assert_eq!(reg.counter_value("sim_locks_recovered"), 1);
        // Observation must not perturb the simulation, crashes included.
        let (unmetered, _) = run(false);
        assert_eq!(unmetered, stats);
    }

    #[test]
    fn dead_proc_shrinks_the_barrier_rendezvous() {
        let mut m = Machine::new(MachineConfig::default());
        let b = m.add_barrier(3);
        m.set_fault_plan(crash(vec![2], 1)).unwrap();
        // Proc 2 dies before reaching the barrier; procs 0 and 1 must not
        // be stranded. (Its first compute gives it a scheduling point at
        // 2ms, past the 1ms crash instant, where the death is observed.)
        let mk =
            |work: u64| Script::new(vec![Step::Compute(ms(work)), Step::Barrier(b), Step::Done]);
        let slow = Script::new(vec![
            Step::Compute(ms(2)),
            Step::Compute(ms(50)),
            Step::Barrier(b),
            Step::Done,
        ]);
        let stats = m.run(vec![Box::new(mk(2)), Box::new(mk(3)), Box::new(slow)]).unwrap();
        assert!(stats.procs[0].done_at.is_some());
        assert!(stats.procs[1].done_at.is_some());
        assert_eq!(stats.crashed_procs(), vec![2]);
        // Survivors released at ~3ms + barrier cost, not 50ms.
        assert!(stats.procs[0].done_at.unwrap() < SimTime::ZERO + ms(10));
    }

    #[test]
    fn crash_after_others_arrived_releases_the_barrier() {
        let mut m = Machine::new(MachineConfig::default());
        let b = m.add_barrier(2);
        m.set_fault_plan(crash(vec![1], 10)).unwrap();
        // Proc 0 arrives at 1ms and parks; proc 1 computes past its crash
        // instant and dies at 20ms — the shrink must release proc 0 then.
        let p0 = Script::new(vec![Step::Compute(ms(1)), Step::Barrier(b), Step::Done]);
        let p1 = Script::new(vec![Step::Compute(ms(20)), Step::Barrier(b), Step::Done]);
        let stats = m.run(vec![Box::new(p0), Box::new(p1)]).unwrap();
        let done = stats.procs[0].done_at.expect("survivor completes");
        assert_eq!(done, SimTime::ZERO + ms(20) + m.config().barrier_cost);
        assert!(stats.procs[0].barrier_wait >= ms(19) - m.config().barrier_cost);
    }

    #[test]
    fn stall_defers_execution_without_charging_time() {
        let mut m = Machine::new(MachineConfig::default());
        let plan = FaultPlan::new(3).with_event(
            Window::new(ms(2), ms(9)),
            FaultKind::ProcStall { procs: Target::Only(vec![0]) },
        );
        m.set_fault_plan(plan).unwrap();
        let p = Script::new(vec![Step::Compute(ms(2)), Step::Compute(ms(1)), Step::Done]);
        let stats = m.run(vec![Box::new(p)]).unwrap();
        // First compute ends at 2ms, inside the stall window: the second
        // scheduling point defers to 9ms, then computes 1ms.
        assert_eq!(stats.procs[0].done_at, Some(SimTime::ZERO + ms(10)));
        assert_eq!(stats.procs[0].compute, ms(3), "stalled time is not charged");
    }

    #[test]
    fn stalled_holder_delays_waiters_but_everyone_finishes() {
        let mut m = Machine::new(MachineConfig::default());
        let l = m.add_lock();
        let plan = FaultPlan::new(3).with_event(
            Window::new(ms(1), ms(8)),
            FaultKind::ProcStall { procs: Target::Only(vec![0]) },
        );
        m.set_fault_plan(plan).unwrap();
        let p0 =
            Script::new(vec![Step::Acquire(l), Step::Compute(ms(2)), Step::Release(l), Step::Done]);
        let p1 = Script::new(vec![Step::Acquire(l), Step::Release(l), Step::Done]);
        let stats = m.run(vec![Box::new(p0), Box::new(p1)]).unwrap();
        assert!(stats.procs[0].done_at.is_some());
        assert!(stats.procs[1].done_at.is_some());
        // The waiter's wait spans the holder's stall.
        assert!(stats.procs[1].wait_time >= ms(8), "waited {:?}", stats.procs[1].wait_time);
    }

    #[test]
    fn crash_runs_are_deterministic() {
        let build = || {
            let mut m = Machine::new(MachineConfig::default());
            let l = m.add_lock();
            let b = m.add_barrier(4);
            m.set_fault_plan(crash(vec![1], 3)).unwrap();
            let procs: Vec<Box<dyn Process>> = (0..4)
                .map(|i| {
                    Box::new(Script::new(vec![
                        Step::Compute(Duration::from_micros(500 * (i + 1))),
                        Step::Acquire(l),
                        Step::Compute(ms(2)),
                        Step::Release(l),
                        Step::Barrier(b),
                        Step::Done,
                    ])) as Box<dyn Process>
                })
                .collect();
            m.run(procs).unwrap()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn machine_reuse_restores_barrier_size_after_a_crash_run() {
        let mut m = Machine::new(MachineConfig::default());
        let b = m.add_barrier(2);
        m.set_fault_plan(crash(vec![1], 1)).unwrap();
        let mk = || Script::new(vec![Step::Compute(ms(5)), Step::Barrier(b), Step::Done]);
        let first = m.run(vec![Box::new(mk()), Box::new(mk())]).unwrap();
        assert_eq!(first.live_procs(), 1);
        // Second run without faults: both procs must be required again.
        m.set_fault_plan(FaultPlan::default()).unwrap();
        let second = m.run(vec![Box::new(mk()), Box::new(mk())]).unwrap();
        assert_eq!(second.live_procs(), 2);
        assert!(second.procs.iter().all(|p| p.done_at.is_some()));
    }
}
