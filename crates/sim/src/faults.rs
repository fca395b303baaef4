//! Deterministic, seeded fault injection for the simulated machine.
//!
//! Real machines do not execute in the steady state the paper's sampling
//! phases measure: other jobs steal processors, lock home nodes saturate,
//! timers drift, and stragglers stretch barriers. Each of those
//! perturbations can flip which synchronization policy is best *mid-run* —
//! exactly the situation dynamic feedback's periodic resampling (§4.4) is
//! designed to survive. This module injects such perturbations into the
//! discrete-event machine, deterministically:
//!
//! * a [`FaultPlan`] is a set of [`FaultEvent`]s, each a [`FaultKind`]
//!   active during a virtual-time [`Window`];
//! * every query on a plan is a *pure function* of (plan, coordinates,
//!   virtual time) — no hidden state — so a faulted simulation is exactly
//!   as reproducible as an unfaulted one: the same plan and workload give
//!   bit-identical statistics on every run;
//! * per-event randomness (timer jitter) is derived with the stateless
//!   [`mix64`] hash of (plan seed, processor, read number), so outcomes do
//!   not depend on event interleaving.
//!
//! Attach a plan to a machine with [`Machine::set_fault_plan`], or to a
//! whole runtime execution through [`RunConfig::faults`].
//!
//! [`Machine::set_fault_plan`]: crate::machine::Machine::set_fault_plan
//! [`RunConfig::faults`]: crate::runtime::RunConfig::faults

use crate::time::SimTime;
use dynfb_core::rng::{mix64, SplitMix64};
use std::fmt;
use std::time::Duration;

/// A half-open window of virtual time (`start` inclusive, `end` exclusive)
/// during which a fault is active.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    /// First instant the fault is active.
    pub start: SimTime,
    /// First instant the fault is no longer active.
    pub end: SimTime,
}

impl Window {
    /// A window from `start` to `end` after simulation start.
    #[must_use]
    pub fn new(start: Duration, end: Duration) -> Self {
        Window { start: SimTime::ZERO + start, end: SimTime::ZERO + end }
    }

    /// A window covering the entire run.
    #[must_use]
    pub fn always() -> Self {
        Window { start: SimTime::ZERO, end: SimTime::from_nanos(u64::MAX) }
    }

    /// Whether the window is active at `t`.
    #[must_use]
    pub fn contains(&self, t: SimTime) -> bool {
        self.start <= t && t < self.end
    }

    /// Length of the overlap between this window and `[0, until)`.
    #[must_use]
    pub fn elapsed_within(&self, until: SimTime) -> Duration {
        let clipped = until.min(self.end);
        clipped.saturating_since(self.start)
    }
}

/// Which processors (or locks) a fault applies to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Target {
    /// Every processor / lock.
    All,
    /// Only the listed indices.
    Only(Vec<usize>),
}

impl Target {
    /// Whether index `i` is targeted.
    #[must_use]
    pub fn matches(&self, i: usize) -> bool {
        match self {
            Target::All => true,
            Target::Only(set) => set.contains(&i),
        }
    }
}

/// One kind of environment perturbation.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// The targeted processors run computation `factor`× slower (a
    /// co-scheduled job stealing cycles, thermal throttling, a slow node).
    /// Lock-held computation stretches too, so a policy that holds locks
    /// across long computations suffers disproportionately.
    Slowdown {
        /// Processors affected.
        procs: Target,
        /// Multiplier on compute durations (≥ 1).
        factor: f64,
    },
    /// A contention storm on the targeted locks: acquire/release cost
    /// `cost_factor`× more (saturated home node), and each release leaves
    /// the lock unavailable for an extra `extra_hold` (the holder is
    /// preempted just before releasing). Only contended acquires observe
    /// the dead time — an uncontended lock has nobody spinning to notice.
    ContentionStorm {
        /// Locks affected.
        locks: Target,
        /// Multiplier on acquire/release costs (≥ 1).
        cost_factor: f64,
        /// Extra unavailability after each release.
        extra_hold: Duration,
    },
    /// The timer observed by [`ProcCtx::read_timer`] drifts by `ppm`
    /// parts-per-million of the time spent inside the window (positive:
    /// fast; negative: slow — at −1 000 000 the observed clock freezes,
    /// which starves interval-expiry detection and exercises the runtime's
    /// stuck-sampling watchdog).
    ///
    /// [`ProcCtx::read_timer`]: crate::process::ProcCtx::read_timer
    TimerDrift {
        /// Drift rate in parts per million (|ppm| ≤ 1 000 000).
        ppm: i64,
    },
    /// Each timer read inside the window observes an additional pseudo-random
    /// offset in `[0, max]`, derived statelessly from the plan seed, the
    /// processor, and the read ordinal. Consecutive reads can appear to go
    /// backwards, so interval logic must tolerate non-monotone clocks.
    TimerJitter {
        /// Maximum jitter magnitude.
        max: Duration,
    },
    /// The targeted processors arrive `delay` late at every barrier inside
    /// the window (page fault or interrupt at the worst moment); everyone
    /// else waits, since a barrier releases only after the last arrival.
    BarrierStraggler {
        /// Processors affected.
        procs: Target,
        /// Extra delay before the barrier arrival registers.
        delay: Duration,
    },
    /// Crash-stop failure: the targeted processors permanently stop
    /// executing at the window's *start* instant — possibly while holding a
    /// lock. The machine observes the death at the processor's next
    /// scheduling point at or after that instant, recovers any orphaned
    /// locks with a deterministic abort-and-release protocol, and shrinks
    /// every barrier's rendezvous size so survivors are not stranded.
    /// (The window's end is ignored: crash-stop is forever.)
    ProcCrash {
        /// Processors affected.
        procs: Target,
    },
    /// Transient hang: the targeted processors execute nothing while the
    /// window is active (an OS preemption, a page-fault storm), resuming
    /// exactly where they left off at the window's end. Stalled time is
    /// charged to no account — a hung processor executes no application
    /// code — but everyone waiting on its locks or barriers feels it.
    ProcStall {
        /// Processors affected.
        procs: Target,
    },
}

impl FaultKind {
    /// This kind's bit in a [`FaultPlan`]'s presence set.
    fn bit(&self) -> u8 {
        match self {
            FaultKind::Slowdown { .. } => SLOWDOWN,
            FaultKind::ContentionStorm { .. } => STORM,
            FaultKind::TimerDrift { .. } => DRIFT,
            FaultKind::TimerJitter { .. } => JITTER,
            FaultKind::BarrierStraggler { .. } => STRAGGLER,
            FaultKind::ProcCrash { .. } => CRASH,
            FaultKind::ProcStall { .. } => STALL,
        }
    }
}

// Presence-set bits, one per `FaultKind` variant.
const SLOWDOWN: u8 = 1 << 0;
const STORM: u8 = 1 << 1;
const DRIFT: u8 = 1 << 2;
const JITTER: u8 = 1 << 3;
const STRAGGLER: u8 = 1 << 4;
const CRASH: u8 = 1 << 5;
const STALL: u8 = 1 << 6;

/// A [`FaultKind`] active during a [`Window`].
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// When the fault is active.
    pub window: Window,
    /// What the fault does.
    pub kind: FaultKind,
}

/// Why a fault plan was rejected by [`FaultPlan::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlanError {
    /// Index of the offending event within the plan.
    pub event: usize,
    /// Human-readable reason.
    pub reason: String,
}

impl fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fault event {}: {}", self.event, self.reason)
    }
}

impl std::error::Error for FaultPlanError {}

/// Largest accepted slowdown / cost multiplier.
const MAX_FACTOR: f64 = 1e6;
/// Largest accepted extra hold / jitter / straggler delay.
const MAX_EXTRA: Duration = Duration::from_secs(10);
/// Latest accepted crash onset (window start of a [`FaultKind::ProcCrash`]).
/// A crash scheduled beyond any plausible run horizon is almost certainly a
/// unit mistake, and would silently never fire.
const MAX_ONSET: Duration = Duration::from_secs(3600);

/// A deterministic, seeded set of environment perturbations.
///
/// The default plan is empty (no faults); an empty plan leaves every
/// simulation result bit-identical to a machine without fault support.
///
/// The engine queries the plan on every step, so a query for a kind the
/// plan does not contain returns its identity without scanning the events.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    seed: u64,
    events: Vec<FaultEvent>,
    /// One bit per [`FaultKind`] variant present in `events`, kept by
    /// [`push`](FaultPlan::push), the only mutator.
    kinds: u8,
}

impl FaultPlan {
    /// An empty plan whose jitter streams are derived from `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        FaultPlan { seed, events: Vec::new(), kinds: 0 }
    }

    /// Builder-style: add an event.
    #[must_use]
    pub fn with_event(mut self, window: Window, kind: FaultKind) -> Self {
        self.push(window, kind);
        self
    }

    /// Add an event.
    pub fn push(&mut self, window: Window, kind: FaultKind) {
        self.kinds |= kind.bit();
        self.events.push(FaultEvent { window, kind });
    }

    /// Whether the plan contains an event of any kind in `bits`.
    #[inline]
    fn has(&self, bits: u8) -> bool {
        self.kinds & bits != 0
    }

    /// The plan's events.
    #[must_use]
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// The seed the plan's jitter streams are derived from.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether the plan injects nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Check every event for semantic validity: non-empty windows, finite
    /// multipliers in `[1, 10^6]`, bounded delays, |ppm| ≤ 10^6, and
    /// non-empty explicit target sets.
    ///
    /// # Errors
    ///
    /// Returns the first offending event and the reason.
    pub fn validate(&self) -> Result<(), FaultPlanError> {
        let err = |event: usize, reason: String| Err(FaultPlanError { event, reason });
        let check_factor = |event: usize, what: &str, f: f64| {
            if !f.is_finite() || !(1.0..=MAX_FACTOR).contains(&f) {
                return err(
                    event,
                    format!("{what} must be a finite factor in [1, {MAX_FACTOR}], got {f}"),
                );
            }
            Ok(())
        };
        let check_extra = |event: usize, what: &str, d: Duration| {
            if d > MAX_EXTRA {
                return err(event, format!("{what} {d:?} exceeds the {MAX_EXTRA:?} sanity bound"));
            }
            Ok(())
        };
        let check_target = |event: usize, what: &str, t: &Target| {
            if matches!(t, Target::Only(set) if set.is_empty()) {
                return err(event, format!("{what} target list is empty (use Target::All?)"));
            }
            Ok(())
        };
        for (i, e) in self.events.iter().enumerate() {
            if e.window.start >= e.window.end {
                return err(i, format!("empty window [{}, {})", e.window.start, e.window.end));
            }
            match &e.kind {
                FaultKind::Slowdown { procs, factor } => {
                    check_target(i, "slowdown", procs)?;
                    check_factor(i, "slowdown factor", *factor)?;
                }
                FaultKind::ContentionStorm { locks, cost_factor, extra_hold } => {
                    check_target(i, "contention storm", locks)?;
                    check_factor(i, "contention cost factor", *cost_factor)?;
                    check_extra(i, "contention extra hold", *extra_hold)?;
                }
                FaultKind::TimerDrift { ppm } => {
                    if ppm.unsigned_abs() > 1_000_000 {
                        return err(i, format!("timer drift {ppm} ppm exceeds ±1000000"));
                    }
                }
                FaultKind::TimerJitter { max } => {
                    check_extra(i, "timer jitter", *max)?;
                }
                FaultKind::BarrierStraggler { procs, delay } => {
                    check_target(i, "barrier straggler", procs)?;
                    check_extra(i, "straggler delay", *delay)?;
                }
                FaultKind::ProcCrash { procs } => {
                    check_target(i, "crash", procs)?;
                    if e.window.start > SimTime::ZERO + MAX_ONSET {
                        return err(
                            i,
                            format!(
                                "crash onset {} is beyond the {MAX_ONSET:?} sanity bound",
                                e.window.start
                            ),
                        );
                    }
                }
                FaultKind::ProcStall { procs } => {
                    check_target(i, "stall", procs)?;
                    let len = e.window.end.saturating_since(e.window.start);
                    if len > MAX_EXTRA {
                        return err(
                            i,
                            format!(
                                "stall window length {len:?} exceeds the \
                                 {MAX_EXTRA:?} sanity bound"
                            ),
                        );
                    }
                }
            }
        }
        Ok(())
    }

    /// Multiplier on compute durations for `proc` at `t` (product of all
    /// active slowdowns; 1.0 when none apply).
    #[inline]
    #[must_use]
    pub fn compute_factor(&self, proc: usize, t: SimTime) -> f64 {
        let mut factor = 1.0;
        if !self.has(SLOWDOWN) {
            return factor;
        }
        for e in &self.events {
            if let FaultKind::Slowdown { procs, factor: f } = &e.kind {
                if e.window.contains(t) && procs.matches(proc) {
                    factor *= f;
                }
            }
        }
        factor
    }

    /// Multiplier on acquire/release costs for `lock` at `t`.
    #[inline]
    #[must_use]
    pub fn lock_cost_factor(&self, lock: usize, t: SimTime) -> f64 {
        let mut factor = 1.0;
        if !self.has(STORM) {
            return factor;
        }
        for e in &self.events {
            if let FaultKind::ContentionStorm { locks, cost_factor, .. } = &e.kind {
                if e.window.contains(t) && locks.matches(lock) {
                    factor *= cost_factor;
                }
            }
        }
        factor
    }

    /// Extra unavailability after a release of `lock` at `t` (sum of all
    /// active storms).
    #[inline]
    #[must_use]
    pub fn extra_hold(&self, lock: usize, t: SimTime) -> Duration {
        let mut extra = Duration::ZERO;
        if !self.has(STORM) {
            return extra;
        }
        for e in &self.events {
            if let FaultKind::ContentionStorm { locks, extra_hold, .. } = &e.kind {
                if e.window.contains(t) && locks.matches(lock) {
                    extra += *extra_hold;
                }
            }
        }
        extra
    }

    /// Extra delay before `proc`'s arrival at a barrier at `t` registers.
    #[inline]
    #[must_use]
    pub fn barrier_delay(&self, proc: usize, t: SimTime) -> Duration {
        let mut delay = Duration::ZERO;
        if !self.has(STRAGGLER) {
            return delay;
        }
        for e in &self.events {
            if let FaultKind::BarrierStraggler { procs, delay: d } = &e.kind {
                if e.window.contains(t) && procs.matches(proc) {
                    delay += *d;
                }
            }
        }
        delay
    }

    /// The instant `proc` crash-stops, if any [`FaultKind::ProcCrash`]
    /// targets it: the earliest matching window's start. Pure in
    /// (plan, proc) — the machine observes the death at the processor's
    /// next scheduling point at or after this instant.
    #[must_use]
    pub fn crash_at(&self, proc: usize) -> Option<SimTime> {
        if !self.has(CRASH) {
            return None;
        }
        self.events
            .iter()
            .filter_map(|e| match &e.kind {
                FaultKind::ProcCrash { procs } if procs.matches(proc) => Some(e.window.start),
                _ => None,
            })
            .min()
    }

    /// If `proc` is stalled at `t`, the instant it resumes: the latest end
    /// among all active [`FaultKind::ProcStall`] windows (strictly after
    /// `t`, since windows are half-open). `None` when the processor is
    /// free to run.
    #[inline]
    #[must_use]
    pub fn stall_until(&self, proc: usize, t: SimTime) -> Option<SimTime> {
        if !self.has(STALL) {
            return None;
        }
        self.events
            .iter()
            .filter_map(|e| match &e.kind {
                FaultKind::ProcStall { procs } if procs.matches(proc) && e.window.contains(t) => {
                    Some(e.window.end)
                }
                _ => None,
            })
            .max()
    }

    /// The virtual time a timer read observes: `real` distorted by every
    /// active drift and jitter fault. Pure in (plan, proc, read ordinal,
    /// real time); with drift or jitter the result may be *non-monotone*
    /// across consecutive reads.
    #[must_use]
    pub fn observed_time(&self, proc: usize, read_no: u64, real: SimTime) -> SimTime {
        if !self.has(DRIFT | JITTER) {
            return real;
        }
        let mut observed = i128::from(real.as_nanos());
        for (i, e) in self.events.iter().enumerate() {
            match &e.kind {
                FaultKind::TimerDrift { ppm } => {
                    // Drift accrues over the time spent inside the window.
                    let inside = e.window.elapsed_within(real).as_nanos() as i128;
                    observed += inside * i128::from(*ppm) / 1_000_000;
                }
                FaultKind::TimerJitter { max } if e.window.contains(real) && !max.is_zero() => {
                    let max_ns = u64::try_from(max.as_nanos()).unwrap_or(u64::MAX);
                    let r = mix64(&[self.seed, i as u64, proc as u64, read_no]);
                    observed += i128::from(r % (max_ns + 1));
                }
                _ => {}
            }
        }
        SimTime::from_nanos(u64::try_from(observed.max(0)).unwrap_or(u64::MAX))
    }

    /// Generate a random (but valid and fully reproducible) plan: `events`
    /// faults of random kinds, windows, targets, and magnitudes drawn from
    /// `profile` via a [`SplitMix64`] stream seeded with `seed`.
    #[must_use]
    pub fn random(seed: u64, profile: &ChaosProfile) -> FaultPlan {
        let mut g = SplitMix64::new(seed);
        let mut plan = FaultPlan::new(seed);
        let horizon_ns = u64::try_from(profile.horizon.as_nanos()).unwrap_or(u64::MAX).max(2);
        for _ in 0..profile.events {
            let a = g.gen_range(0, horizon_ns - 1);
            let b = g.gen_range(a + 1, horizon_ns);
            let mut window =
                Window { start: SimTime::from_nanos(a), end: SimTime::from_nanos(b + 1) };
            let target = |g: &mut SplitMix64, n: usize| {
                if n == 0 || g.chance(0.3) {
                    Target::All
                } else {
                    let picks = g.gen_index(n) + 1;
                    let mut set: Vec<usize> = (0..picks).map(|_| g.gen_index(n)).collect();
                    set.sort_unstable();
                    set.dedup();
                    Target::Only(set)
                }
            };
            // Crash-stop a *single* processor: a random plan that kills the
            // whole machine at once tells us nothing about recovery.
            let one_proc = |g: &mut SplitMix64| {
                if profile.procs == 0 {
                    Target::All
                } else {
                    Target::Only(vec![g.gen_index(profile.procs)])
                }
            };
            let kind = match g.gen_index(7) {
                0 => FaultKind::Slowdown {
                    procs: target(&mut g, profile.procs),
                    factor: g.gen_f64(2.0, 10.0),
                },
                1 => FaultKind::ContentionStorm {
                    locks: target(&mut g, profile.locks),
                    cost_factor: g.gen_f64(2.0, 10.0),
                    extra_hold: Duration::from_nanos(g.gen_range(0, 20_000)),
                },
                2 => FaultKind::TimerDrift { ppm: g.gen_range_i64(-500_000, 500_001) },
                3 => FaultKind::TimerJitter { max: Duration::from_nanos(g.gen_range(1, 50_000)) },
                4 => FaultKind::BarrierStraggler {
                    procs: target(&mut g, profile.procs),
                    delay: Duration::from_nanos(g.gen_range(1, 200_000)),
                },
                5 => {
                    // Keep the onset within the validation bound even for
                    // horizons longer than MAX_ONSET.
                    let onset_cap = u64::try_from(MAX_ONSET.as_nanos()).unwrap_or(u64::MAX);
                    let start = a.min(onset_cap);
                    window = Window {
                        start: SimTime::from_nanos(start),
                        end: SimTime::from_nanos(b.max(start) + 1),
                    };
                    FaultKind::ProcCrash { procs: one_proc(&mut g) }
                }
                _ => {
                    // Clamp the stall to the MAX_EXTRA validation bound.
                    let stall_cap = u64::try_from(MAX_EXTRA.as_nanos()).unwrap_or(u64::MAX);
                    window = Window {
                        start: SimTime::from_nanos(a),
                        end: SimTime::from_nanos((b + 1).min(a.saturating_add(stall_cap))),
                    };
                    FaultKind::ProcStall { procs: one_proc(&mut g) }
                }
            };
            plan.push(window, kind);
        }
        plan
    }
}

/// Shape parameters for [`FaultPlan::random`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosProfile {
    /// Virtual-time horizon within which fault windows are placed.
    pub horizon: Duration,
    /// Number of processors (for targeting).
    pub procs: usize,
    /// Number of locks (for targeting).
    pub locks: usize,
    /// How many fault events to generate.
    pub events: usize,
}

impl Default for ChaosProfile {
    fn default() -> Self {
        ChaosProfile { horizon: Duration::from_millis(100), procs: 8, locks: 16, events: 4 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(n: u64) -> Duration {
        Duration::from_micros(n)
    }

    fn at(n: u64) -> SimTime {
        SimTime::ZERO + us(n)
    }

    #[test]
    fn windows_are_half_open() {
        let w = Window::new(us(10), us(20));
        assert!(!w.contains(at(9)));
        assert!(w.contains(at(10)));
        assert!(w.contains(at(19)));
        assert!(!w.contains(at(20)));
        assert_eq!(w.elapsed_within(at(5)), Duration::ZERO);
        assert_eq!(w.elapsed_within(at(15)), us(5));
        assert_eq!(w.elapsed_within(at(50)), us(10));
    }

    #[test]
    fn empty_plan_is_identity() {
        let p = FaultPlan::default();
        assert!(p.is_empty());
        assert_eq!(p.compute_factor(0, at(1)), 1.0);
        assert_eq!(p.lock_cost_factor(3, at(1)), 1.0);
        assert_eq!(p.extra_hold(3, at(1)), Duration::ZERO);
        assert_eq!(p.barrier_delay(2, at(1)), Duration::ZERO);
        assert_eq!(p.observed_time(0, 1, at(42)), at(42));
        p.validate().unwrap();
    }

    #[test]
    fn overlapping_slowdowns_compose_multiplicatively() {
        let p = FaultPlan::new(1)
            .with_event(
                Window::new(us(0), us(100)),
                FaultKind::Slowdown { procs: Target::All, factor: 2.0 },
            )
            .with_event(
                Window::new(us(50), us(100)),
                FaultKind::Slowdown { procs: Target::Only(vec![1]), factor: 3.0 },
            );
        assert_eq!(p.compute_factor(0, at(60)), 2.0);
        assert_eq!(p.compute_factor(1, at(60)), 6.0);
        assert_eq!(p.compute_factor(1, at(10)), 2.0);
        assert_eq!(p.compute_factor(1, at(100)), 1.0);
    }

    #[test]
    fn storms_inflate_costs_and_hold_times() {
        let p = FaultPlan::new(1).with_event(
            Window::new(us(0), us(50)),
            FaultKind::ContentionStorm {
                locks: Target::Only(vec![2]),
                cost_factor: 4.0,
                extra_hold: us(7),
            },
        );
        assert_eq!(p.lock_cost_factor(2, at(10)), 4.0);
        assert_eq!(p.lock_cost_factor(1, at(10)), 1.0);
        assert_eq!(p.extra_hold(2, at(10)), us(7));
        assert_eq!(p.extra_hold(2, at(60)), Duration::ZERO);
    }

    #[test]
    fn drift_accrues_only_inside_the_window() {
        let p = FaultPlan::new(1)
            .with_event(Window::new(us(100), us(200)), FaultKind::TimerDrift { ppm: 500_000 });
        // Before the window: exact.
        assert_eq!(p.observed_time(0, 1, at(50)), at(50));
        // Halfway through: 50 µs inside × 0.5 = 25 µs fast.
        assert_eq!(p.observed_time(0, 2, at(150)), at(175));
        // After: drift capped at the window's 100 µs × 0.5.
        assert_eq!(p.observed_time(0, 3, at(300)), at(350));
    }

    #[test]
    fn full_negative_drift_freezes_the_clock() {
        let p = FaultPlan::new(1)
            .with_event(Window::new(us(0), us(1000)), FaultKind::TimerDrift { ppm: -1_000_000 });
        assert_eq!(p.observed_time(0, 1, at(10)), at(0));
        assert_eq!(p.observed_time(0, 2, at(999)), at(0));
    }

    #[test]
    fn jitter_is_bounded_deterministic_and_seed_sensitive() {
        let max = us(9);
        let mk = |seed| {
            FaultPlan::new(seed).with_event(Window::always(), FaultKind::TimerJitter { max })
        };
        let p = mk(1);
        let mut distinct = false;
        for read_no in 0..64 {
            let t = p.observed_time(3, read_no, at(1000));
            assert!(t >= at(1000) && t <= at(1009), "{t}");
            assert_eq!(t, p.observed_time(3, read_no, at(1000)), "deterministic");
            distinct |= t != p.observed_time(3, read_no + 1, at(1000));
        }
        assert!(distinct, "jitter must vary across reads");
        let q = mk(2);
        let differs =
            (0..64).any(|r| p.observed_time(3, r, at(1000)) != q.observed_time(3, r, at(1000)));
        assert!(differs, "different seeds give different jitter");
    }

    #[test]
    fn validate_rejects_bad_events() {
        let bad = |kind: FaultKind| {
            FaultPlan::new(0).with_event(Window::new(us(0), us(1)), kind).validate().unwrap_err()
        };
        assert!(bad(FaultKind::Slowdown { procs: Target::All, factor: f64::NAN })
            .reason
            .contains("finite"));
        bad(FaultKind::Slowdown { procs: Target::All, factor: 0.5 });
        bad(FaultKind::Slowdown { procs: Target::Only(vec![]), factor: 2.0 });
        bad(FaultKind::ContentionStorm {
            locks: Target::All,
            cost_factor: f64::INFINITY,
            extra_hold: Duration::ZERO,
        });
        bad(FaultKind::ContentionStorm {
            locks: Target::All,
            cost_factor: 2.0,
            extra_hold: Duration::from_secs(3600),
        });
        bad(FaultKind::TimerDrift { ppm: 2_000_000 });
        bad(FaultKind::BarrierStraggler { procs: Target::All, delay: Duration::from_secs(11) });
        bad(FaultKind::ProcCrash { procs: Target::Only(vec![]) });
        bad(FaultKind::ProcStall { procs: Target::Only(vec![]) });
        // Empty window.
        let e = FaultPlan::new(0)
            .with_event(Window::new(us(5), us(5)), FaultKind::TimerDrift { ppm: 0 })
            .validate()
            .unwrap_err();
        assert!(e.reason.contains("empty window"), "{e}");
        assert_eq!(e.event, 0);
    }

    #[test]
    fn crash_onset_beyond_the_bound_is_rejected() {
        let e = FaultPlan::new(0)
            .with_event(
                Window::new(Duration::from_secs(3601), Duration::from_secs(3602)),
                FaultKind::ProcCrash { procs: Target::All },
            )
            .validate()
            .unwrap_err();
        assert!(e.reason.contains("crash onset"), "{e}");
        assert_eq!(e.event, 0);
        // At the bound is still fine.
        FaultPlan::new(0)
            .with_event(
                Window::new(Duration::from_secs(3600), Duration::from_secs(3601)),
                FaultKind::ProcCrash { procs: Target::All },
            )
            .validate()
            .unwrap();
    }

    #[test]
    fn overlong_stall_window_is_rejected() {
        let e = FaultPlan::new(0)
            .with_event(Window::always(), FaultKind::ProcStall { procs: Target::All })
            .validate()
            .unwrap_err();
        assert!(e.reason.contains("stall window length"), "{e}");
        let e = FaultPlan::new(0)
            .with_event(
                Window::new(us(0), Duration::from_secs(11)),
                FaultKind::ProcStall { procs: Target::All },
            )
            .validate()
            .unwrap_err();
        assert!(e.reason.contains("stall window length"), "{e}");
        // A stall of exactly the bound passes.
        FaultPlan::new(0)
            .with_event(
                Window::new(us(0), Duration::from_secs(10)),
                FaultKind::ProcStall { procs: Target::All },
            )
            .validate()
            .unwrap();
    }

    #[test]
    fn crash_at_is_the_earliest_matching_onset() {
        let p = FaultPlan::new(0)
            .with_event(
                Window::new(us(50), us(60)),
                FaultKind::ProcCrash { procs: Target::Only(vec![1]) },
            )
            .with_event(
                Window::new(us(20), us(30)),
                FaultKind::ProcCrash { procs: Target::Only(vec![1, 2]) },
            );
        assert_eq!(p.crash_at(1), Some(at(20)));
        assert_eq!(p.crash_at(2), Some(at(20)));
        assert_eq!(p.crash_at(0), None);
        assert_eq!(FaultPlan::default().crash_at(0), None);
    }

    #[test]
    fn stall_until_is_the_latest_active_window_end() {
        let p = FaultPlan::new(0)
            .with_event(
                Window::new(us(10), us(40)),
                FaultKind::ProcStall { procs: Target::Only(vec![3]) },
            )
            .with_event(Window::new(us(30), us(90)), FaultKind::ProcStall { procs: Target::All });
        assert_eq!(p.stall_until(3, at(5)), None, "before any window");
        assert_eq!(p.stall_until(3, at(15)), Some(at(40)), "only the first is active");
        assert_eq!(p.stall_until(3, at(35)), Some(at(90)), "overlap resolves to the later end");
        assert_eq!(p.stall_until(0, at(35)), Some(at(90)), "All matches every proc");
        assert_eq!(p.stall_until(3, at(90)), None, "half-open: free at the end instant");
    }

    #[test]
    fn random_plans_cover_the_failure_kinds() {
        // Across a modest seed sweep the generator must produce both new
        // kinds (each arm is 1-in-7 per event).
        let profile = ChaosProfile::default();
        let mut saw_crash = false;
        let mut saw_stall = false;
        for seed in 0..64 {
            for e in FaultPlan::random(seed, &profile).events() {
                match &e.kind {
                    FaultKind::ProcCrash { .. } => saw_crash = true,
                    FaultKind::ProcStall { .. } => saw_stall = true,
                    _ => {}
                }
            }
        }
        assert!(saw_crash, "no ProcCrash generated in 64 seeds");
        assert!(saw_stall, "no ProcStall generated in 64 seeds");
    }

    #[test]
    fn random_plans_are_valid_and_reproducible() {
        let profile = ChaosProfile::default();
        for seed in 0..32 {
            let p = FaultPlan::random(seed, &profile);
            p.validate().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert_eq!(p, FaultPlan::random(seed, &profile));
            assert_eq!(p.events().len(), profile.events);
        }
        assert_ne!(FaultPlan::random(1, &profile), FaultPlan::random(2, &profile));
    }
}
