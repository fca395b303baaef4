//! The interface between simulated processes and the machine.
//!
//! A [`Process`] is a state machine driven by the simulator: each call to
//! [`Process::step`] returns the next [`Step`] the processor performs
//! (compute for some duration, acquire or release a lock, wait at a
//! barrier, finish). Between steps the process may inspect virtual time and
//! machine counters through the [`ProcCtx`], and may *charge* extra
//! processor time (e.g. the cost of reading the timer) that is accounted
//! before the returned step executes.

use crate::faults::FaultPlan;
use crate::stats::ProcStats;
use crate::time::SimTime;
use std::time::Duration;

/// Identifier of a simulated processor (`0..num_procs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcId(pub usize);

/// Identifier of a simulated spin lock, created by `Machine::add_lock`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LockId(pub(crate) usize);

impl LockId {
    /// The index of this lock within its machine.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }

    /// The `n`-th lock after this one (valid for blocks created with
    /// `Machine::add_locks`, whose ids are consecutive).
    #[must_use]
    pub fn offset(self, n: usize) -> LockId {
        LockId(self.0 + n)
    }
}

/// Identifier of a simulated barrier, created by `Machine::add_barrier`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BarrierId(pub(crate) usize);

/// One action taken by a simulated processor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Perform useful computation for the given duration.
    Compute(Duration),
    /// Acquire a spin lock (blocking, with waiting-overhead accounting).
    Acquire(LockId),
    /// Release a held spin lock.
    Release(LockId),
    /// Wait at a barrier until all participants arrive.
    Barrier(BarrierId),
    /// Re-schedule immediately at the same virtual time (after any charged
    /// time), allowing the process to observe state another processor
    /// updated at this instant.
    Yield,
    /// The process has finished.
    Done,
}

/// Per-step context handed to [`Process::step`].
#[derive(Debug)]
pub struct ProcCtx<'a> {
    pub(crate) now: SimTime,
    pub(crate) proc: ProcId,
    pub(crate) barrier_leader: bool,
    pub(crate) timer_read_cost: Duration,
    pub(crate) faults: &'a FaultPlan,
    pub(crate) prior_timer_reads: u64,
    pub(crate) stats: &'a [ProcStats],
    pub(crate) pending_compute: Duration,
    pub(crate) pending_timer: Duration,
    pub(crate) timer_reads: u64,
}

impl<'a> ProcCtx<'a> {
    /// This processor's id.
    #[must_use]
    pub fn proc(&self) -> ProcId {
        self.proc
    }

    /// Current virtual time, *without* charging a timer read. Use
    /// [`read_timer`](Self::read_timer) to model the generated code's timer
    /// polling; `now` is for simulation-infrastructure decisions only.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Read the machine timer: charges the configured timer-read cost to
    /// this processor and returns the virtual time the read observes.
    ///
    /// Under an active fault plan the observation may be distorted by
    /// drift or jitter, and may even be *non-monotone* across consecutive
    /// reads — callers comparing observed timestamps must use
    /// [`SimTime::saturating_since`]. Use [`now`](Self::now) for
    /// fault-immune simulation-infrastructure time.
    pub fn read_timer(&mut self) -> SimTime {
        self.pending_timer += self.timer_read_cost;
        self.timer_reads += 1;
        let read_no = self.prior_timer_reads + self.timer_reads;
        self.faults.observed_time(self.proc.0, read_no, self.charged_now())
    }

    /// Observe the machine timer *without* charging a read or consuming a
    /// read ordinal: the value the next [`read_timer`](Self::read_timer)
    /// at this instant would return. The driver anchors interval starts
    /// with this — the generated code's stored timer read lives on the
    /// same (possibly drifting) clock as its later polls, so comparing an
    /// observed poll against a fault-immune start would mis-age every
    /// interval once a transient drift window has shifted the clock.
    #[must_use]
    pub fn peek_timer(&self) -> SimTime {
        let read_no = self.prior_timer_reads + self.timer_reads + 1;
        self.faults.observed_time(self.proc.0, read_no, self.charged_now())
    }

    /// Virtual time after the time charged so far in this step. Saturates:
    /// the engine reports an unrepresentable instant as
    /// `SimError::TimeOverflow` once the step returns.
    fn charged_now(&self) -> SimTime {
        self.now
            .checked_add(self.pending_compute + self.pending_timer)
            .unwrap_or(SimTime::from_nanos(u64::MAX))
    }

    /// Charge additional computation time that occurs before the step this
    /// call returns (e.g. bookkeeping the generated code performs inline).
    pub fn charge(&mut self, d: Duration) {
        self.pending_compute += d;
    }

    /// True exactly once after this processor was the *last* to arrive at a
    /// barrier: the paper's generated code designates that processor to
    /// perform the policy-switch bookkeeping before the others resume.
    #[must_use]
    pub fn is_barrier_leader(&self) -> bool {
        self.barrier_leader
    }

    /// Statistics of every processor, as of the current instant. Summing
    /// these gives the machine-wide counters the dynamic feedback runtime
    /// samples at interval boundaries.
    #[must_use]
    pub fn all_stats(&self) -> &'a [ProcStats] {
        self.stats
    }

    /// Machine-wide totals (sum of [`all_stats`](Self::all_stats)).
    #[must_use]
    pub fn total_stats(&self) -> ProcStats {
        let mut total = ProcStats::default();
        for s in self.stats {
            total.accumulate(s);
        }
        total
    }
}

/// A simulated process: the code one virtual processor runs.
pub trait Process {
    /// Produce the next step. Called once per scheduling event; must
    /// eventually return [`Step::Done`].
    fn step(&mut self, ctx: &mut ProcCtx<'_>) -> Step;
}

impl<F: FnMut(&mut ProcCtx<'_>) -> Step> Process for F {
    fn step(&mut self, ctx: &mut ProcCtx<'_>) -> Step {
        self(ctx)
    }
}
