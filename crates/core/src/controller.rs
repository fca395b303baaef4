//! The dynamic feedback phase state machine (§4 of the paper).
//!
//! A [`Controller`] tracks which *phase* the computation is in (sampling or
//! production), which policy version is currently executing, and how long
//! the current interval should last. It is deliberately execution-agnostic:
//! the surrounding runtime polls a timer at *potential switch points*
//! (typically the end of each parallel-loop iteration), and when the target
//! interval has expired it measures the overhead of the interval and calls
//! [`Controller::complete_interval`]. The controller answers with the next
//! policy to run.
//!
//! This inversion keeps the controller deterministic and testable, and lets
//! the same logic drive both the discrete-event simulator (`dynfb-sim`) and
//! the real-thread executor ([`crate::realtime`]).

use crate::detector::{Detector, DetectorConfig, DetectorSnapshot};
use crate::overhead::OverheadSample;
use crate::rng::mix64;
use crate::trace::SwitchReason;
use std::fmt;
use std::time::Duration;

/// Identifier of a policy version, in `0..num_policies`.
///
/// By convention (matching the synchronization optimization policies of §3),
/// index `0` is the least aggressive policy (*Original*: never apply the
/// transformation) and index `num_policies - 1` is the most aggressive
/// (*Aggressive*: always apply it). The early cut-off optimization relies on
/// this ordering; everything else is agnostic to it.
pub type PolicyId = usize;

/// How the sampling phase orders the policies it tries (§4.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PolicyOrdering {
    /// Sample policies in index order `0, 1, ..., N-1`.
    #[default]
    InOrder,
    /// Sample the extreme policies first (`N-1`, then `0`, then the rest).
    ///
    /// Combined with [`EarlyCutoff`], this maximizes the chance of skipping
    /// the remaining policies: the most aggressive policy has the least
    /// locking overhead, so if it also shows negligible waiting overhead no
    /// other policy can do significantly better; symmetrically for the
    /// original policy and locking overhead.
    ExtremesFirst,
    /// Sample first the policy that performed best in the previous sampling
    /// phase (falling back to index order before any history exists).
    BestFirst,
}

/// The early cut-off optimization (§4.5): stop sampling as soon as the
/// measurements prove no other policy can do significantly better.
///
/// The rules exploit the monotonicity the paper observes across the policy
/// spectrum: locking overhead never increases, and waiting overhead never
/// decreases, as the policy moves from *Original* (index 0) towards
/// *Aggressive* (index `N-1`). Therefore:
///
/// * if the **most aggressive** policy shows waiting overhead below
///   [`negligible`](Self::negligible), it is optimal (it already has the
///   least locking overhead);
/// * if the **original** policy shows locking overhead below
///   [`negligible`](Self::negligible), it is optimal (it already has the
///   least waiting overhead);
/// * with [`PolicyOrdering::BestFirst`], if the first sampled policy was the
///   previous best and its overhead is still within
///   [`accept_within`](Self::accept_within) of its previous measurement, go
///   directly to production.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EarlyCutoff {
    /// Overhead fraction below which a component overhead is negligible.
    pub negligible: f64,
    /// Absolute tolerance for the "continues to be acceptable" rule used
    /// with [`PolicyOrdering::BestFirst`]; `None` disables that rule.
    pub accept_within: Option<f64>,
}

impl Default for EarlyCutoff {
    fn default() -> Self {
        EarlyCutoff { negligible: 0.01, accept_within: Some(0.05) }
    }
}

/// How quarantined policies may rejoin the rotation.
///
/// Permanent quarantine shrinks the live policy space monotonically: one
/// transient storm can eject the long-run-best policy forever. The default
/// is therefore [`Backoff`](RehabPolicy::Backoff): a quarantined policy is
/// re-probed after a deterministic exponential backoff, and a clean probe
/// restores it to rotation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RehabPolicy {
    /// Quarantine is forever (the pre-rehabilitation behavior). Useful as a
    /// baseline and for callers that treat any failure as disqualifying.
    Permanent,
    /// After `base × 2^(strikes-1)` *completed sampling phases* (clamped to
    /// `max`, plus a deterministic seeded jitter of up to half the backoff),
    /// the policy becomes eligible for a re-probe. Each additional failure
    /// doubles the backoff; a clean probe restores the policy to rotation.
    Backoff {
        /// Backoff after the first quarantine, in completed sampling phases.
        /// Must be non-zero.
        base: u64,
        /// Upper bound on the backoff (before jitter), in sampling phases.
        max: u64,
        /// Seed for the jitter stream. The jitter desynchronizes re-probes
        /// of policies quarantined by the same storm, so they do not all
        /// come up for probing in the same phase.
        seed: u64,
    },
}

impl Default for RehabPolicy {
    fn default() -> Self {
        RehabPolicy::Backoff { base: 2, max: 64, seed: 0 }
    }
}

/// When a production interval ends and resampling begins.
///
/// The paper resamples on a fixed schedule: every production interval lasts
/// [`ControllerConfig::target_production`] and then the controller samples
/// again (§4.4). [`EventDriven`](ResampleTrigger::EventDriven) makes the
/// trigger itself feedback-driven: the driver feeds the controller a cheap
/// per-slice waiting-proportion signal during production (via
/// [`Controller::observe_production_signal`]), and a change-point alarm
/// ends the interval early — while `max_quiescence` preserves the paper's
/// fixed-interval behavior as a fallback bound for changes the detector
/// misses, and `min_spacing` keeps a noisy chart from collapsing production
/// into back-to-back resampling.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ResampleTrigger {
    /// Resample after every `target_production` of production time (the
    /// paper's behavior, and the default).
    #[default]
    FixedInterval,
    /// Resample when a change-point detector alarms on the production
    /// waiting-proportion signal, or after `max_quiescence` at the latest.
    EventDriven {
        /// The change-point detector watching the production signal. It is
        /// re-armed at each production entry with the waiting proportion
        /// the sampling phase measured for the chosen policy.
        detector: DetectorConfig,
        /// Minimum number of signal observations a production phase must
        /// consume before an alarm may end it. Early observations still
        /// feed the chart (alarms are level-triggered and kept), but the
        /// phase cannot be cut shorter than this many signal slices —
        /// the guard against alarm storms re-sampling in a tight loop.
        min_spacing: u32,
        /// Upper bound on a production interval: with no alarm, the
        /// interval ends after this long exactly as a fixed interval
        /// would. Setting this equal to `target_production` makes the
        /// trigger transition-for-transition identical to
        /// [`FixedInterval`](ResampleTrigger::FixedInterval) whenever the
        /// detector stays quiet. Must be non-zero.
        max_quiescence: Duration,
    },
}

/// Configuration for a [`Controller`].
#[derive(Debug, Clone, PartialEq)]
pub struct ControllerConfig {
    /// Number of policy versions (distinct generated code versions).
    ///
    /// When the compiler detects that two policies generate identical code
    /// for a section (as happens for the Water INTERF and POTENG sections in
    /// the paper), the runtime creates the controller with the number of
    /// *distinct* versions, so duplicates are never sampled.
    pub num_policies: usize,
    /// Target sampling interval (paper default: 10 ms). The *effective*
    /// sampling interval may be longer: switch points only occur at loop
    /// iteration boundaries (§4.1).
    pub target_sampling: Duration,
    /// Target production interval (paper default: 10–100 s).
    pub target_production: Duration,
    /// Optional early cut-off of the sampling phase (§4.5).
    pub early_cutoff: Option<EarlyCutoff>,
    /// Order in which the sampling phase tries policies (§4.5).
    pub ordering: PolicyOrdering,
    /// How quarantined policies may rejoin the rotation.
    pub rehab: RehabPolicy,
    /// When production ends and resampling begins (fixed interval, or
    /// event-driven with a change-point detector).
    pub trigger: ResampleTrigger,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            num_policies: 3,
            target_sampling: Duration::from_millis(10),
            target_production: Duration::from_secs(10),
            early_cutoff: None,
            ordering: PolicyOrdering::InOrder,
            rehab: RehabPolicy::default(),
            trigger: ResampleTrigger::default(),
        }
    }
}

/// Error returned by [`Controller::try_new`] for invalid configurations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// `num_policies` was zero.
    NoPolicies,
    /// A target interval was zero.
    ZeroInterval,
    /// [`RehabPolicy::Backoff`] was configured with a zero `base`.
    ZeroBackoff,
    /// [`ResampleTrigger::EventDriven`] was configured with degenerate
    /// detector parameters (non-finite, or non-positive where the chart
    /// math requires positive).
    BadDetector,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NoPolicies => write!(f, "configuration has no policies"),
            ConfigError::ZeroInterval => write!(f, "target intervals must be non-zero"),
            ConfigError::ZeroBackoff => write!(f, "rehabilitation backoff base must be non-zero"),
            ConfigError::BadDetector => {
                write!(f, "event-driven trigger has degenerate detector parameters")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Error returned by the failure-reporting entry points
/// ([`Controller::quarantine`], [`Controller::report_soft_failure`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuarantineError {
    /// The policy id does not exist in this controller. The controller's
    /// state is unchanged (previously this silently no-opped).
    OutOfRange {
        /// The offending policy id.
        policy: PolicyId,
        /// Number of policies the controller was created with.
        num_policies: usize,
    },
    /// The failure was recorded, but every policy is now quarantined. The
    /// controller degrades to [`Controller::safest_policy`]; callers that
    /// cannot tolerate running a quarantined policy must abort instead.
    NoSurvivor,
}

impl fmt::Display for QuarantineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuarantineError::OutOfRange { policy, num_policies } => {
                write!(f, "policy {policy} is out of range (have {num_policies} policies)")
            }
            QuarantineError::NoSurvivor => write!(f, "every policy is quarantined"),
        }
    }
}

impl std::error::Error for QuarantineError {}

/// A policy's current health tier in the quarantine state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthTier {
    /// In rotation.
    Healthy,
    /// One soft failure on record; still in rotation, but the next failure
    /// (soft or hard) quarantines.
    Suspect,
    /// Out of rotation, awaiting a re-probe (or permanently, under
    /// [`RehabPolicy::Permanent`]).
    Quarantined,
}

impl HealthTier {
    /// Stable lowercase name used in traces and reports.
    #[must_use]
    pub fn as_str(&self) -> &'static str {
        match self {
            HealthTier::Healthy => "healthy",
            HealthTier::Suspect => "suspect",
            HealthTier::Quarantined => "quarantined",
        }
    }
}

/// A health-tier transition, recorded by the controller and drained by the
/// drivers (via [`Controller::drain_health_events`]) into the trace and
/// metrics layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthEvent {
    /// A first soft failure put the policy on notice (still in rotation).
    Suspected(PolicyId),
    /// The policy left rotation. It becomes eligible for a re-probe once
    /// [`Controller::sampling_phases`] reaches `until_phase` (`u64::MAX`
    /// under [`RehabPolicy::Permanent`]).
    Quarantined {
        /// The quarantined policy.
        policy: PolicyId,
        /// Consecutive failures recorded against it (the backoff exponent).
        strikes: u32,
        /// Completed-sampling-phase count at which a probe may run.
        until_phase: u64,
    },
    /// A quarantined policy's backoff elapsed; the next sampling phase
    /// re-probes it (appended after the healthy policies).
    Probing(PolicyId),
    /// A clean probe restored the policy to rotation.
    Rehabilitated(PolicyId),
    /// A usable sample cleared a suspect policy back to healthy.
    Cleared(PolicyId),
}

impl HealthEvent {
    /// The policy whose health changed.
    #[must_use]
    pub fn policy(&self) -> PolicyId {
        match *self {
            HealthEvent::Suspected(p)
            | HealthEvent::Probing(p)
            | HealthEvent::Rehabilitated(p)
            | HealthEvent::Cleared(p) => p,
            HealthEvent::Quarantined { policy, .. } => policy,
        }
    }

    /// Stable lowercase name of the state the policy moved into.
    #[must_use]
    pub fn state(&self) -> &'static str {
        match self {
            HealthEvent::Suspected(_) => "suspect",
            HealthEvent::Quarantined { .. } => "quarantined",
            HealthEvent::Probing(_) => "probing",
            HealthEvent::Rehabilitated(_) | HealthEvent::Cleared(_) => "healthy",
        }
    }
}

/// The current phase of the dynamic feedback state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// No parallel section is active; call [`Controller::begin_section`].
    Idle,
    /// Sampling phase: measuring `policy`, the `position + 1`-th of
    /// `planned` policies this phase intends to sample.
    Sampling {
        /// Policy currently being measured.
        policy: PolicyId,
        /// Index into the sampling order.
        position: usize,
        /// Number of policies this sampling phase planned to sample.
        planned: usize,
    },
    /// Production phase: running the best policy from the last sampling
    /// phase.
    Production {
        /// Policy selected for production.
        policy: PolicyId,
        /// Whether the sampling phase ended early via [`EarlyCutoff`].
        via_cutoff: bool,
    },
}

impl Phase {
    /// True if this is a sampling phase.
    #[must_use]
    pub fn is_sampling(&self) -> bool {
        matches!(self, Phase::Sampling { .. })
    }

    /// True if this is a production phase.
    #[must_use]
    pub fn is_production(&self) -> bool {
        matches!(self, Phase::Production { .. })
    }
}

/// The controller's answer to a completed interval: what to run next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transition {
    /// Continue the sampling phase with this policy.
    Sample(PolicyId),
    /// Enter a production phase with this policy. `via_cutoff` reports
    /// whether the sampling phase was cut short by [`EarlyCutoff`].
    Produce {
        /// Policy chosen for the production phase.
        policy: PolicyId,
        /// Whether early cut-off shortened the sampling phase.
        via_cutoff: bool,
    },
}

impl Transition {
    /// The policy the runtime should execute next.
    #[must_use]
    pub fn policy(&self) -> PolicyId {
        match *self {
            Transition::Sample(p) => p,
            Transition::Produce { policy, .. } => policy,
        }
    }
}

/// How an interval ended, besides its measurement: the conditions a driver
/// observed that change what [`Controller::close_interval`] does with it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CloseFlags {
    /// The measurement cannot be trusted: a processor crash-stopped during
    /// the interval.
    /// The controller is fed an unusable sample, so the interval records
    /// nothing, and the switch is labelled [`SwitchReason::CrashFallback`].
    /// A watchdog abort feeds no measurement, so it ignores this flag.
    pub unusable: bool,
    /// The stuck-sampling watchdog fired: abort the sampling phase into
    /// production instead of completing the interval, and report a soft
    /// failure of the stuck policy.
    pub watchdog_abort: bool,
    /// The interval ran far past its deadline. After a *sampling* interval
    /// completes, this is a soft failure of the sampled policy.
    pub deadline_miss: bool,
    /// This policy failed hard (its version panicked): quarantine it. If it
    /// was running, its interval is cut short and sampling restarts among
    /// the survivors.
    pub hard_failure: Option<PolicyId>,
}

/// An interval that a [`Decision`] closed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClosedInterval {
    /// Measured total overhead in `[0, 1]` (reported even when the
    /// controller was fed an unusable sample instead).
    pub overhead: f64,
    /// Actual (effective) interval length.
    pub actual: Duration,
    /// True if the interval was cut short (watchdog abort, hard failure).
    pub partial: bool,
    /// True if the controller was fed the measurement: the interval
    /// completed and was not flagged unusable.
    pub measured: bool,
}

/// One controller decision at a switch point: what the interval close (or
/// section start) decided, in the form both drivers act on and the trace
/// and journal are written from.
#[derive(Debug, Clone, PartialEq)]
pub struct Decision {
    /// Phase before the decision ([`Phase::Idle`] when a section opened).
    pub before: Phase,
    /// Phase after the decision.
    pub after: Phase,
    /// Policy that ran the closed interval, or the policy that failed hard.
    pub from: PolicyId,
    /// Policy the driver runs next. `None` only when a hard failure left no
    /// runnable policy.
    pub next: Option<PolicyId>,
    /// The interval that closed, if one did.
    pub closed: Option<ClosedInterval>,
    /// Why the executing policy changed, if the decision is a switch.
    pub reason: Option<SwitchReason>,
    /// Health transitions the decision caused, drained from the controller.
    pub health: Vec<HealthEvent>,
    /// Chart state at the change-point alarm that ended the closed
    /// production interval; `Some` exactly when one did.
    pub chart: Option<DetectorSnapshot>,
}

impl Decision {
    /// Whether a change-point alarm ended the closed production interval.
    #[must_use]
    pub fn alarmed(&self) -> bool {
        self.chart.is_some()
    }

    /// The policy switch as `(from, to, reason)`, or `None` when the
    /// decision is not a switch.
    #[must_use]
    pub fn switch(&self) -> Option<(PolicyId, PolicyId, SwitchReason)> {
        self.reason.map(|reason| (self.from, policy_of(self.after), reason))
    }

    /// Whether a new interval opened in `after`: closing an interval opens
    /// the next one, and a section start opens the first.
    #[must_use]
    pub fn opened(&self) -> bool {
        self.closed.is_some() || matches!(self.before, Phase::Idle)
    }
}

/// Running totals of what [`Controller::open_section`] and
/// [`Controller::close_interval`] decided, read with
/// [`Controller::counts`]. The simulator publishes the nonzero ones as
/// metrics counters; the realtime executor reports the resample totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecisionCounts {
    /// Policies a first soft failure made suspect.
    pub suspected: u64,
    /// Quarantines, hard or escalated.
    pub quarantined: u64,
    /// Rehabilitation probes scheduled.
    pub probed: u64,
    /// Clean probes that restored a policy to rotation.
    pub rehabilitated: u64,
    /// Suspect policies a usable sample cleared.
    pub cleared: u64,
    /// Switches on an unusable (crash-poisoned) completed interval.
    pub crash_fallbacks: u64,
    /// Sampling phases the stuck-sampling watchdog aborted.
    pub watchdog_soft_failures: u64,
    /// Production intervals ended early by a change-point alarm.
    pub resample_alarms: u64,
    /// Production intervals that reached the quiescence bound with no alarm
    /// (event-driven trigger only).
    pub resample_quiescent: u64,
}

impl DecisionCounts {
    fn tally_health(&mut self, events: &[HealthEvent]) {
        for ev in events {
            match ev {
                HealthEvent::Suspected(_) => self.suspected += 1,
                HealthEvent::Quarantined { .. } => self.quarantined += 1,
                HealthEvent::Probing(_) => self.probed += 1,
                HealthEvent::Rehabilitated(_) => self.rehabilitated += 1,
                HealthEvent::Cleared(_) => self.cleared += 1,
            }
        }
    }
}

fn policy_of(phase: Phase) -> PolicyId {
    match phase {
        Phase::Idle => 0,
        Phase::Sampling { policy, .. } | Phase::Production { policy, .. } => policy,
    }
}

/// Why the transition `before → after` switched policies: the one place a
/// [`SwitchReason`] is chosen. The priority list is a hard failure
/// (`Quarantine`), then an unusable completed interval (`CrashFallback`),
/// a change-point alarm (`ChangePoint`), a switch into a policy just
/// rehabilitated (`Rehabilitated`), and last the phase pair itself.
fn switch_reason(
    before: Phase,
    after: Phase,
    flags: CloseFlags,
    alarmed: bool,
    rehabilitated: bool,
) -> Option<SwitchReason> {
    if flags.hard_failure.is_some() {
        return Some(SwitchReason::Quarantine);
    }
    let completed = !flags.watchdog_abort;
    if completed && flags.unusable {
        return Some(SwitchReason::CrashFallback);
    }
    if alarmed {
        return Some(SwitchReason::ChangePoint);
    }
    if rehabilitated {
        return Some(SwitchReason::Rehabilitated);
    }
    match (before, after) {
        (Phase::Sampling { .. }, Phase::Production { via_cutoff, .. }) => {
            Some(if flags.watchdog_abort {
                SwitchReason::WatchdogAbort
            } else if via_cutoff {
                SwitchReason::EarlyCutoff
            } else {
                SwitchReason::MeasuredBest
            })
        }
        (Phase::Production { .. }, Phase::Sampling { .. }) => Some(SwitchReason::Resample),
        (Phase::Sampling { .. }, Phase::Sampling { .. }) => Some(SwitchReason::NextSample),
        _ => None,
    }
}

/// The dynamic feedback phase state machine. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct Controller {
    config: ControllerConfig,
    phase: Phase,
    /// Sampling order for the current (or next) sampling phase.
    order: Vec<PolicyId>,
    /// Latest overhead measured for each policy in the current sampling
    /// phase (`None` if not yet sampled this phase).
    measurements: Vec<Option<f64>>,
    /// Most recent overhead ever measured per policy (across phases).
    history: Vec<Option<f64>>,
    /// Per-policy health tier. Quarantined policies carry the sampling-phase
    /// count at which their backoff elapses and a re-probe may run
    /// (`u64::MAX` under [`RehabPolicy::Permanent`]).
    health: Vec<Health>,
    /// Consecutive failures recorded against each policy (the backoff
    /// exponent). Never reset, so a policy that keeps failing after each
    /// rehabilitation backs off further every time.
    strikes: Vec<u32>,
    /// The quarantined policy (if any) being re-probed in the current
    /// sampling phase. At most one per phase — the probe budget — so
    /// rehabilitation can never starve sampling of the healthy policies.
    probe: Option<PolicyId>,
    /// Health transitions since the last [`Controller::drain_health_events`].
    health_log: Vec<HealthEvent>,
    /// Number of completed sampling phases.
    sampling_phases: u64,
    /// Number of completed production phases.
    production_phases: u64,
    /// Waiting proportion measured per policy in the current sampling phase
    /// (the change-point detector's baseline for the policy that wins).
    waiting: Vec<Option<f64>>,
    /// Change-point detector over the production waiting-proportion signal
    /// (`Some` iff the trigger is [`ResampleTrigger::EventDriven`]).
    detector: Option<Detector>,
    /// Signal observations consumed by the current production phase (the
    /// `min_spacing` guard counts these).
    signals_this_phase: u32,
    /// A detector alarm ended (or is about to end) the current production
    /// interval; cleared when the next phase starts. Drivers read this via
    /// [`Controller::alarm_pending`] to label the switch as a change-point.
    alarm_pending: bool,
    /// Time already consumed out of the current production interval's
    /// budget by the aborted interval that led here (see
    /// [`Controller::abort_to_production_carrying`]); deducted from
    /// [`Controller::target_interval`].
    production_debt: Duration,
    /// Driver time of each policy's latest measurement (the `at` of the
    /// [`close_interval`](Controller::close_interval) that fed it).
    measured_at: Vec<Option<Duration>>,
    /// What the decision steps decided so far.
    counts: DecisionCounts,
}

/// Internal health state (the public projection is [`HealthTier`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Health {
    Healthy,
    Suspect,
    Quarantined {
        /// Completed-sampling-phase count at which a probe may run.
        release_at: u64,
    },
}

/// Health events are bounded so an undrained log (e.g. a driver running
/// with tracing disabled) cannot grow without limit; the newest events are
/// dropped past this point.
const HEALTH_LOG_CAP: usize = 4096;

impl Controller {
    /// Create a controller.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid; use [`Controller::try_new`]
    /// for a fallible constructor.
    #[must_use]
    pub fn new(config: ControllerConfig) -> Self {
        Controller::try_new(config).expect("invalid controller configuration")
    }

    /// Create a controller, validating the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::NoPolicies`] if `num_policies == 0`,
    /// [`ConfigError::ZeroInterval`] if either target interval is zero, and
    /// [`ConfigError::ZeroBackoff`] if the rehabilitation backoff base is
    /// zero.
    pub fn try_new(config: ControllerConfig) -> Result<Self, ConfigError> {
        if config.num_policies == 0 {
            return Err(ConfigError::NoPolicies);
        }
        if config.target_sampling.is_zero() || config.target_production.is_zero() {
            return Err(ConfigError::ZeroInterval);
        }
        if matches!(config.rehab, RehabPolicy::Backoff { base: 0, .. }) {
            return Err(ConfigError::ZeroBackoff);
        }
        let detector = match config.trigger {
            ResampleTrigger::FixedInterval => None,
            ResampleTrigger::EventDriven { detector, max_quiescence, .. } => {
                if max_quiescence.is_zero() {
                    return Err(ConfigError::ZeroInterval);
                }
                if !detector.is_valid() {
                    return Err(ConfigError::BadDetector);
                }
                Some(Detector::new(detector))
            }
        };
        let n = config.num_policies;
        Ok(Controller {
            config,
            phase: Phase::Idle,
            order: Vec::new(),
            measurements: vec![None; n],
            history: vec![None; n],
            health: vec![Health::Healthy; n],
            strikes: vec![0; n],
            probe: None,
            health_log: Vec::new(),
            sampling_phases: 0,
            production_phases: 0,
            waiting: vec![None; n],
            detector,
            signals_this_phase: 0,
            alarm_pending: false,
            production_debt: Duration::ZERO,
            measured_at: vec![None; n],
            counts: DecisionCounts::default(),
        })
    }

    /// The configuration this controller was created with.
    #[must_use]
    pub fn config(&self) -> &ControllerConfig {
        &self.config
    }

    /// The current phase.
    #[must_use]
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// The policy the runtime should currently be executing.
    ///
    /// # Panics
    ///
    /// Panics if no section is active (phase is [`Phase::Idle`]).
    #[must_use]
    pub fn current_policy(&self) -> PolicyId {
        match self.phase {
            Phase::Idle => panic!("no active section: call begin_section first"),
            Phase::Sampling { policy, .. } => policy,
            Phase::Production { policy, .. } => policy,
        }
    }

    /// Target duration of the current interval (sampling or production).
    ///
    /// This is the *effective* target the driver's timer math should
    /// compare elapsed time against, not always the configured one:
    ///
    /// * under [`ResampleTrigger::EventDriven`] a production interval is
    ///   bounded by `max_quiescence`, not `target_production`;
    /// * a production phase entered via
    ///   [`Controller::abort_to_production_carrying`] has part of its
    ///   budget already consumed by the aborted interval's overrun, which
    ///   is deducted here (clamped to at least one sampling interval, so
    ///   a huge overrun cannot produce a degenerate zero-length target).
    ///   Returning the configured target instead would push every
    ///   post-abort cycle late: the driver's expiry comparison and the
    ///   trace end-stamps would disagree about where the interval should
    ///   have ended.
    ///
    /// # Panics
    ///
    /// Panics if no section is active.
    #[must_use]
    pub fn target_interval(&self) -> Duration {
        match self.phase {
            Phase::Idle => panic!("no active section: call begin_section first"),
            Phase::Sampling { .. } => self.config.target_sampling,
            Phase::Production { .. } => self
                .production_target()
                .saturating_sub(self.production_debt)
                .max(self.config.target_sampling),
        }
    }

    /// The configured bound on a production interval: `target_production`,
    /// or `max_quiescence` under [`ResampleTrigger::EventDriven`].
    fn production_target(&self) -> Duration {
        match self.config.trigger {
            ResampleTrigger::FixedInterval => self.config.target_production,
            ResampleTrigger::EventDriven { max_quiescence, .. } => max_quiescence,
        }
    }

    /// Overheads measured in the current sampling phase, indexed by policy.
    #[must_use]
    pub fn measurements(&self) -> &[Option<f64>] {
        &self.measurements
    }

    /// Most recent overhead ever measured per policy.
    #[must_use]
    pub fn history(&self) -> &[Option<f64>] {
        &self.history
    }

    /// Number of completed sampling phases.
    #[must_use]
    pub fn sampling_phases(&self) -> u64 {
        self.sampling_phases
    }

    /// Number of completed production phases.
    #[must_use]
    pub fn production_phases(&self) -> u64 {
        self.production_phases
    }

    /// Driver time at which each policy was last measured, indexed by
    /// policy: the `at` of the latest
    /// [`close_interval`](Controller::close_interval) whose closed interval
    /// was `measured` (`None` if never).
    #[must_use]
    pub fn measured_at(&self) -> &[Option<Duration>] {
        &self.measured_at
    }

    /// Running totals of the decisions taken through
    /// [`open_section`](Controller::open_section) and
    /// [`close_interval`](Controller::close_interval).
    #[must_use]
    pub fn counts(&self) -> DecisionCounts {
        self.counts
    }

    /// Begin a new parallel section: start a sampling phase (the paper's
    /// generated code always begins each parallel section by sampling).
    ///
    /// Returns the first policy to sample.
    pub fn begin_section(&mut self) -> PolicyId {
        self.start_sampling_phase();
        self.current_policy()
    }

    /// Report that the current interval has expired with the given measured
    /// overhead, and advance the state machine.
    ///
    /// In a sampling phase this records the measurement, applies early
    /// cut-off if enabled, and either moves to the next policy or selects
    /// the best policy and enters production. In a production phase this
    /// updates the policy's history and starts a fresh sampling phase
    /// (periodic resampling).
    ///
    /// # Panics
    ///
    /// Panics if no section is active.
    pub fn complete_interval(&mut self, sample: OverheadSample) -> Transition {
        match self.phase {
            Phase::Idle => panic!("no active section: call begin_section first"),
            Phase::Sampling { policy, position, planned } => {
                // An unusable sample (zero-length interval, or a sanitized
                // non-finite measurement) records nothing: treating it as a
                // zero-overhead measurement would make a broken version look
                // perfect. The policy simply goes unmeasured this phase.
                if sample.is_usable() {
                    let overhead = sample.total_overhead();
                    let previous = self.history[policy];
                    self.measurements[policy] = Some(overhead);
                    self.history[policy] = Some(overhead);
                    // The waiting proportion doubles as the change-point
                    // detector's baseline if this policy wins the phase.
                    self.waiting[policy] = Some(sample.waiting_fraction());

                    // A usable measurement is a clean bill of health: a
                    // probed quarantined policy is rehabilitated, a suspect
                    // one cleared. (An unusable sample proves nothing either
                    // way — the policy keeps its tier and, if quarantined,
                    // stays probe-eligible for the next phase.)
                    match self.health[policy] {
                        Health::Quarantined { .. } if self.probe == Some(policy) => {
                            self.health[policy] = Health::Healthy;
                            self.log_health(HealthEvent::Rehabilitated(policy));
                        }
                        Health::Suspect => {
                            self.health[policy] = Health::Healthy;
                            self.log_health(HealthEvent::Cleared(policy));
                        }
                        _ => {}
                    }

                    if let Some(cut) = self.config.early_cutoff {
                        if self.cutoff_applies(policy, position, previous, &sample, &cut) {
                            return self.enter_production(policy, true);
                        }
                    }
                }

                // Advance to the next plannable (non-quarantined) policy.
                // The phase's probe is exempt: it is quarantined by
                // definition until its sample proves otherwise.
                let mut next_position = position + 1;
                while next_position < planned {
                    let next = self.order[next_position];
                    if !self.is_quarantined(next) || self.probe == Some(next) {
                        self.phase =
                            Phase::Sampling { policy: next, position: next_position, planned };
                        return Transition::Sample(next);
                    }
                    next_position += 1;
                }
                let best = self.best_measured();
                self.enter_production(best, false)
            }
            Phase::Production { policy, .. } => {
                // Periodic resampling: production measurements also refresh
                // the history (the paper keeps instrumentation enabled in
                // production phases; see §6.1 footnote 2).
                if sample.is_usable() {
                    self.history[policy] = Some(sample.total_overhead());
                }
                self.production_phases += 1;
                self.start_sampling_phase();
                Transition::Sample(self.current_policy())
            }
        }
    }

    /// End the active section, returning to [`Phase::Idle`]. The policy
    /// history is retained for [`PolicyOrdering::BestFirst`].
    pub fn end_section(&mut self) {
        self.phase = Phase::Idle;
    }

    fn start_sampling_phase(&mut self) {
        self.probe = self.due_probe();
        if let Some(p) = self.probe {
            self.log_health(HealthEvent::Probing(p));
        }
        self.order = self.sampling_order();
        self.measurements = vec![None; self.config.num_policies];
        self.waiting = vec![None; self.config.num_policies];
        self.signals_this_phase = 0;
        self.alarm_pending = false;
        self.production_debt = Duration::ZERO;
        // With every policy quarantined there is nothing left to measure;
        // degrade to the safest policy so the runtime still has something
        // runnable (callers that care check `runnable_policies`).
        let first = self.order.first().copied().unwrap_or_else(|| self.safest_policy());
        self.phase =
            Phase::Sampling { policy: first, position: 0, planned: self.order.len().max(1) };
    }

    /// The quarantined policy (if any) whose backoff has elapsed and which
    /// the next sampling phase should re-probe. The budget is one probe per
    /// phase; ties go to the lowest policy id for determinism.
    fn due_probe(&self) -> Option<PolicyId> {
        (0..self.config.num_policies).find(|&p| {
            matches!(self.health[p],
                Health::Quarantined { release_at } if self.sampling_phases >= release_at)
        })
    }

    fn sampling_order(&self) -> Vec<PolicyId> {
        let n = self.config.num_policies;
        let mut order: Vec<PolicyId> = (0..n).filter(|&p| !self.is_quarantined(p)).collect();
        match self.config.ordering {
            PolicyOrdering::InOrder => {}
            PolicyOrdering::ExtremesFirst => {
                // Most aggressive surviving policy first, then the least
                // aggressive survivor, then the rest in index order.
                if order.len() >= 2 {
                    let most = order.pop().expect("len >= 2");
                    let least = order.remove(0);
                    let rest = std::mem::take(&mut order);
                    order.push(most);
                    order.push(least);
                    order.extend(rest);
                }
            }
            PolicyOrdering::BestFirst => {
                // Sort ascending by last known overhead; unknown policies keep
                // their relative index order after all known ones.
                order.sort_by(|&a, &b| {
                    let ka = self.history[a];
                    let kb = self.history[b];
                    match (ka, kb) {
                        (Some(x), Some(y)) => {
                            x.partial_cmp(&y).unwrap_or(std::cmp::Ordering::Equal)
                        }
                        (Some(_), None) => std::cmp::Ordering::Less,
                        (None, Some(_)) => std::cmp::Ordering::Greater,
                        (None, None) => a.cmp(&b),
                    }
                });
            }
        }
        // The probe rides along at the end of the order: a still-broken
        // policy under re-probe can never delay measuring the healthy ones.
        if let Some(p) = self.probe {
            order.push(p);
        }
        order
    }

    fn cutoff_applies(
        &mut self,
        policy: PolicyId,
        position: usize,
        previous: Option<f64>,
        sample: &OverheadSample,
        cut: &EarlyCutoff,
    ) -> bool {
        let n = self.config.num_policies;
        // Most aggressive policy with negligible waiting overhead: nothing
        // can beat it (it already has minimal locking overhead).
        if policy == n - 1 && sample.waiting_fraction() < cut.negligible {
            return true;
        }
        // Original policy with negligible locking overhead: symmetric case.
        if policy == 0 && sample.locking_fraction() < cut.negligible {
            return true;
        }
        // Best-first acceptance: the first sampled policy was the previous
        // best and its overhead is still close to what it was.
        if position == 0 && self.config.ordering == PolicyOrdering::BestFirst {
            if let (Some(tolerance), Some(previous)) = (cut.accept_within, previous) {
                if self.sampling_phases > 0
                    && (sample.total_overhead() - previous).abs() <= tolerance
                {
                    return true;
                }
            }
        }
        false
    }

    fn best_measured(&self) -> PolicyId {
        let mut best: Option<PolicyId> = None;
        let mut best_overhead = f64::INFINITY;
        // Iterate in sampling order so ties resolve to the first sampled
        // policy, matching the paper's "arbitrarily select one of the
        // sampled policies with the lowest overhead".
        for &p in &self.order {
            if self.is_quarantined(p) {
                continue;
            }
            if let Some(v) = self.measurements[p] {
                if v.is_finite() && v < best_overhead {
                    best_overhead = v;
                    best = Some(p);
                }
            }
        }
        // No usable measurement at all this phase: degrade to the safest
        // surviving policy (Original by the §3 policy ordering convention)
        // rather than trusting garbage.
        best.unwrap_or_else(|| self.safest_policy())
    }

    /// The least aggressive (lowest-index) policy that is not quarantined;
    /// by the §3 convention this is *Original*, the policy that never applies
    /// the transformation and is therefore the safest default. Falls back to
    /// policy 0 if everything is quarantined.
    #[must_use]
    pub fn safest_policy(&self) -> PolicyId {
        self.health.iter().position(|h| !matches!(h, Health::Quarantined { .. })).unwrap_or(0)
    }

    /// Whether a policy is currently [quarantined](Controller::quarantine)
    /// (out of rotation). Out-of-range ids are reported as quarantined
    /// (never runnable).
    #[must_use]
    pub fn is_quarantined(&self, policy: PolicyId) -> bool {
        self.health(policy) == HealthTier::Quarantined
    }

    /// Current health tier of a policy. Out-of-range ids are reported as
    /// [`HealthTier::Quarantined`] (never runnable).
    #[must_use]
    pub fn health(&self, policy: PolicyId) -> HealthTier {
        match self.health.get(policy) {
            Some(Health::Healthy) => HealthTier::Healthy,
            Some(Health::Suspect) => HealthTier::Suspect,
            Some(Health::Quarantined { .. }) | None => HealthTier::Quarantined,
        }
    }

    /// Consecutive failures recorded against a policy (the rehabilitation
    /// backoff exponent). Out-of-range ids report zero.
    #[must_use]
    pub fn strikes(&self, policy: PolicyId) -> u32 {
        self.strikes.get(policy).copied().unwrap_or(0)
    }

    /// The quarantined policy the current sampling phase is re-probing, if
    /// any. While a probe is in flight the policy is still formally
    /// quarantined (`is_quarantined` returns true) — only a clean sample
    /// rehabilitates it — yet it may legitimately be the current policy.
    #[must_use]
    pub fn probing(&self) -> Option<PolicyId> {
        self.probe
    }

    /// Number of policies still in rotation (not quarantined).
    #[must_use]
    pub fn runnable_policies(&self) -> usize {
        self.health.iter().filter(|h| !matches!(h, Health::Quarantined { .. })).count()
    }

    /// Drain the health transitions recorded since the last drain, for
    /// drivers to forward into the trace and metrics layers.
    pub fn drain_health_events(&mut self) -> Vec<HealthEvent> {
        std::mem::take(&mut self.health_log)
    }

    /// Report a *hard* failure of a policy (a panicking version, a crashed
    /// worker): the policy is quarantined immediately, skipping the suspect
    /// tier. Its measurements and history are discarded (they may be
    /// poisoned by whatever broke it). Under [`RehabPolicy::Backoff`] the
    /// policy is re-probed after `base × 2^(strikes-1)` completed sampling
    /// phases (plus seeded jitter); under [`RehabPolicy::Permanent`] it
    /// never returns.
    ///
    /// Returns the policy the runtime should execute next: if the
    /// quarantined policy was the one executing, the controller restarts a
    /// sampling phase over the survivors (re-sampling, since the environment
    /// evidently changed); otherwise the current policy is unaffected.
    ///
    /// # Errors
    ///
    /// [`QuarantineError::OutOfRange`] if the policy id does not exist (the
    /// controller is unchanged), and [`QuarantineError::NoSurvivor`] when
    /// the failure was recorded but no runnable policy remains — the
    /// controller degrades to [`Controller::safest_policy`], and callers
    /// that cannot tolerate running a quarantined policy must abort.
    pub fn quarantine(&mut self, policy: PolicyId) -> Result<PolicyId, QuarantineError> {
        self.check_policy(policy)?;
        self.fail(policy, true);
        self.after_failure(policy)
    }

    /// Report a *soft* failure of a policy (a deadline-missed interval, a
    /// watchdog-aborted sampling phase): a healthy policy becomes suspect
    /// (still in rotation, on notice); a suspect or quarantined one is
    /// escalated exactly like [`Controller::quarantine`].
    ///
    /// Returns the policy the runtime should execute next (see
    /// [`Controller::quarantine`]).
    ///
    /// # Errors
    ///
    /// As for [`Controller::quarantine`].
    pub fn report_soft_failure(&mut self, policy: PolicyId) -> Result<PolicyId, QuarantineError> {
        self.check_policy(policy)?;
        self.fail(policy, false);
        self.after_failure(policy)
    }

    fn check_policy(&self, policy: PolicyId) -> Result<(), QuarantineError> {
        if policy >= self.config.num_policies {
            return Err(QuarantineError::OutOfRange {
                policy,
                num_policies: self.config.num_policies,
            });
        }
        Ok(())
    }

    /// Record a failure against `policy`, escalating its health tier. A
    /// hard failure (or any failure of a non-healthy policy) quarantines;
    /// a soft failure of a healthy policy only marks it suspect.
    fn fail(&mut self, policy: PolicyId, hard: bool) {
        if !hard && self.health[policy] == Health::Healthy {
            self.health[policy] = Health::Suspect;
            self.log_health(HealthEvent::Suspected(policy));
            return;
        }
        self.strikes[policy] = self.strikes[policy].saturating_add(1);
        let release_at = match self.config.rehab {
            RehabPolicy::Permanent => u64::MAX,
            RehabPolicy::Backoff { base, max, seed } => {
                let exponent = (self.strikes[policy] - 1).min(32);
                let backoff = base.saturating_mul(1u64 << exponent).min(max.max(base));
                let jitter = mix64(&[seed, policy as u64, u64::from(self.strikes[policy])])
                    % (backoff / 2 + 1);
                self.sampling_phases.saturating_add(backoff).saturating_add(jitter)
            }
        };
        self.health[policy] = Health::Quarantined { release_at };
        // Whatever broke the policy may have poisoned its numbers.
        self.measurements[policy] = None;
        self.history[policy] = None;
        self.log_health(HealthEvent::Quarantined {
            policy,
            strikes: self.strikes[policy],
            until_phase: release_at,
        });
        if self.probe == Some(policy) {
            // A failed probe leaves the phase; its backoff just doubled.
            self.probe = None;
        }
    }

    fn after_failure(&mut self, policy: PolicyId) -> Result<PolicyId, QuarantineError> {
        if self.runnable_policies() == 0 {
            return Err(QuarantineError::NoSurvivor);
        }
        match self.phase {
            Phase::Idle => Ok(self.safest_policy()),
            Phase::Sampling { policy: current, .. } | Phase::Production { policy: current, .. } => {
                if current == policy && self.is_quarantined(policy) {
                    self.start_sampling_phase();
                }
                Ok(self.current_policy())
            }
        }
    }

    fn log_health(&mut self, event: HealthEvent) {
        if self.health_log.len() < HEALTH_LOG_CAP {
            self.health_log.push(event);
        }
    }

    /// Abort an over-long sampling phase and enter production immediately
    /// with the best measurement so far (the stuck-sampling watchdog's
    /// escape hatch). If nothing usable was measured, production runs the
    /// safest surviving policy. In a production phase this is a no-op
    /// returning the current transition.
    ///
    /// # Panics
    ///
    /// Panics if no section is active.
    pub fn abort_to_production(&mut self) -> Transition {
        self.abort_to_production_carrying(Duration::ZERO)
    }

    /// Like [`Controller::abort_to_production`], additionally carrying the
    /// aborted interval's *overrun* — the time it ran past its target
    /// before the watchdog fired — into the production interval that
    /// follows. The overrun is deducted from the production target
    /// reported by [`Controller::target_interval`], so the cycle keeps the
    /// configured cadence: without the deduction every post-abort cycle
    /// runs late by the overrun, and the driver's expiry math disagrees
    /// with the trace end-stamps. The effective target never drops below
    /// one sampling interval.
    ///
    /// # Panics
    ///
    /// Panics if no section is active.
    pub fn abort_to_production_carrying(&mut self, overrun: Duration) -> Transition {
        match self.phase {
            Phase::Idle => panic!("no active section: call begin_section first"),
            Phase::Sampling { .. } => {
                let best = self.best_measured();
                let t = self.enter_production(best, false);
                self.production_debt = overrun;
                t
            }
            Phase::Production { policy, via_cutoff } => Transition::Produce { policy, via_cutoff },
        }
    }

    fn enter_production(&mut self, policy: PolicyId, via_cutoff: bool) -> Transition {
        self.sampling_phases += 1;
        self.phase = Phase::Production { policy, via_cutoff };
        self.signals_this_phase = 0;
        self.alarm_pending = false;
        self.production_debt = Duration::ZERO;
        if let Some(d) = self.detector.as_mut() {
            // Anchor the chart to the waiting proportion sampling measured
            // for the chosen policy: the question production answers is
            // "is the environment still the one we selected this policy
            // in?". With nothing usable measured (degraded entry, watchdog
            // abort) the first production observation anchors instead.
            d.arm(self.waiting.get(policy).copied().flatten());
        }
        Transition::Produce { policy, via_cutoff }
    }

    /// Feed one production-signal observation — the waiting proportion of
    /// the latest slice of production time, fed whenever
    /// [`signal_due`](Controller::signal_due) — into the change-point
    /// detector.
    ///
    /// Returns `true` when the detector is in alarm *and* the alarm is
    /// actionable (at least `min_spacing` observations consumed this
    /// phase): the driver should end the production interval early through
    /// its normal [`Controller::close_interval`] path, which labels the
    /// switch [`crate::trace::SwitchReason::ChangePoint`]. The alarm stays
    /// latched (see [`Controller::alarm_pending`]) until the next phase
    /// starts, so a driver that defers the switch to a barrier does not
    /// lose it.
    ///
    /// Outside a production phase, or under
    /// [`ResampleTrigger::FixedInterval`], this is a no-op returning
    /// `false` — drivers may call it unconditionally.
    pub fn observe_production_signal(&mut self, waiting_fraction: f64) -> bool {
        if !self.phase.is_production() {
            return false;
        }
        let min_spacing = match self.config.trigger {
            ResampleTrigger::FixedInterval => return false,
            ResampleTrigger::EventDriven { min_spacing, .. } => min_spacing,
        };
        let Some(d) = self.detector.as_mut() else {
            return false;
        };
        let alarm = d.observe(waiting_fraction);
        self.signals_this_phase = self.signals_this_phase.saturating_add(1);
        if alarm && self.signals_this_phase >= min_spacing {
            self.alarm_pending = true;
        }
        self.alarm_pending
    }

    /// Whether a change-point alarm is latched against the current
    /// production interval. Cleared when the next phase starts;
    /// [`close_interval`](Controller::close_interval) reads it to label the
    /// switch and count it in [`DecisionCounts::resample_alarms`].
    #[must_use]
    pub fn alarm_pending(&self) -> bool {
        self.alarm_pending
    }

    /// Whether this controller resamples event-driven
    /// ([`ResampleTrigger::EventDriven`]).
    #[must_use]
    pub fn event_driven(&self) -> bool {
        matches!(self.config.trigger, ResampleTrigger::EventDriven { .. })
    }

    /// Whether the driver owes the detector a production signal
    /// ([`observe_production_signal`](Controller::observe_production_signal))
    /// `since_signal` after the last one: under the event-driven trigger,
    /// one signal per [`ControllerConfig::target_sampling`] of production
    /// time.
    #[inline]
    #[must_use]
    pub fn signal_due(&self, since_signal: Duration) -> bool {
        self.phase.is_production()
            && self.event_driven()
            && since_signal >= self.config.target_sampling
    }

    /// Point-in-time view of the change-point detector (`None` under
    /// [`ResampleTrigger::FixedInterval`]) — reported in traces alongside
    /// an alarm.
    #[must_use]
    pub fn detector_snapshot(&self) -> Option<DetectorSnapshot> {
        self.detector.as_ref().map(Detector::snapshot)
    }

    /// [`begin_section`](Controller::begin_section) as a [`Decision`]: the
    /// first sampling interval opens, and any rehabilitation probe the new
    /// phase scheduled is in its health events.
    pub fn open_section(&mut self) -> Decision {
        let before = self.phase;
        let first = self.begin_section();
        let health = self.drain_health_events();
        self.counts.tally_health(&health);
        Decision {
            before,
            after: self.phase,
            from: first,
            next: Some(first),
            closed: None,
            reason: None,
            health,
            chart: None,
        }
    }

    /// Close the current interval at a switch point and decide what runs
    /// next: the one decision step both drivers take (§4.1).
    ///
    /// `at` is the driver's time of the decision; `sample` and `actual`
    /// are the interval's measurement and length; `flags` say how it
    /// ended. Depending on them the interval is completed
    /// ([`complete_interval`](Controller::complete_interval), then a soft
    /// failure on a missed sampling deadline), aborted into production (the
    /// watchdog, a soft failure of the stuck policy), or its policy is
    /// quarantined (a hard failure). The alarm, quiescence and chart state
    /// are read before the transition resets them, and the health events it
    /// caused are drained into the returned [`Decision`]. A measured
    /// interval stamps its policy's [`measured_at`](Controller::measured_at)
    /// with `at`, and the decision is added to
    /// [`counts`](Controller::counts). A watchdog abort outside a sampling
    /// phase decides nothing.
    ///
    /// # Panics
    ///
    /// Panics if no section is active.
    pub fn close_interval(
        &mut self,
        at: Duration,
        sample: OverheadSample,
        actual: Duration,
        flags: CloseFlags,
    ) -> Decision {
        let before = self.phase;
        let running = self.current_policy();
        let overhead = sample.total_overhead();
        let mut decision = Decision {
            before,
            after: before,
            from: running,
            next: Some(running),
            closed: None,
            reason: None,
            health: Vec::new(),
            chart: None,
        };
        if let Some(failed) = flags.hard_failure {
            decision.from = failed;
            decision.next = self.quarantine(failed).ok();
            if decision.next.is_some() && failed == running {
                // Quarantining the running policy restarted sampling: its
                // interval was cut short.
                decision.closed =
                    Some(ClosedInterval { overhead, actual, partial: true, measured: false });
            }
        } else if flags.watchdog_abort {
            if !before.is_sampling() {
                return decision;
            }
            // The stuck interval overran its target; deduct the overrun
            // from the next production interval so the cycle keeps the
            // configured cadence.
            let overrun = actual.saturating_sub(self.target_interval());
            self.abort_to_production_carrying(overrun);
            // With no survivor left the controller degrades internally;
            // the driver keeps running the safest fallback.
            decision.next =
                Some(self.report_soft_failure(running).unwrap_or_else(|_| self.safest_policy()));
            decision.closed =
                Some(ClosedInterval { overhead, actual, partial: true, measured: false });
            self.counts.watchdog_soft_failures += 1;
        } else {
            let ending_production = before.is_production();
            let alarmed = ending_production && self.alarm_pending;
            if ending_production && self.event_driven() && !alarmed {
                self.counts.resample_quiescent += 1;
            }
            decision.chart = if alarmed { self.detector_snapshot() } else { None };
            let fed = if flags.unusable { OverheadSample::default() } else { sample };
            let mut next = self.complete_interval(fed).policy();
            if flags.deadline_miss && before.is_sampling() {
                next = self.report_soft_failure(running).unwrap_or_else(|_| self.safest_policy());
            }
            decision.next = Some(next);
            decision.closed = Some(ClosedInterval {
                overhead,
                actual,
                partial: false,
                measured: !flags.unusable,
            });
            if !flags.unusable {
                self.measured_at[running] = Some(at);
            }
        }
        decision.after = self.phase;
        decision.health = self.drain_health_events();
        if decision.next.is_some() {
            let rehabilitated = decision
                .health
                .iter()
                .any(|e| matches!(e, HealthEvent::Rehabilitated(p) if Some(*p) == decision.next));
            decision.reason =
                switch_reason(before, decision.after, flags, decision.alarmed(), rehabilitated);
        }
        self.counts.tally_health(&decision.health);
        self.counts.resample_alarms += u64::from(decision.alarmed());
        if decision.reason == Some(SwitchReason::CrashFallback) {
            self.counts.crash_fallbacks += 1;
        }
        decision
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(overhead: f64) -> OverheadSample {
        OverheadSample::from_fraction(overhead, Duration::from_millis(10))
    }

    fn cfg(n: usize) -> ControllerConfig {
        ControllerConfig { num_policies: n, ..ControllerConfig::default() }
    }

    #[test]
    fn rejects_invalid_configs() {
        assert_eq!(Controller::try_new(cfg(0)).unwrap_err(), ConfigError::NoPolicies);
        let bad = ControllerConfig { target_sampling: Duration::ZERO, ..cfg(2) };
        assert_eq!(Controller::try_new(bad).unwrap_err(), ConfigError::ZeroInterval);
        let bad =
            ControllerConfig { rehab: RehabPolicy::Backoff { base: 0, max: 8, seed: 0 }, ..cfg(2) };
        assert_eq!(Controller::try_new(bad).unwrap_err(), ConfigError::ZeroBackoff);
    }

    #[test]
    fn samples_all_policies_then_produces_best() {
        let mut ctl = Controller::new(cfg(3));
        assert_eq!(ctl.begin_section(), 0);
        assert_eq!(ctl.complete_interval(sample(0.4)), Transition::Sample(1));
        assert_eq!(ctl.complete_interval(sample(0.1)), Transition::Sample(2));
        let t = ctl.complete_interval(sample(0.3));
        assert_eq!(t, Transition::Produce { policy: 1, via_cutoff: false });
        assert_eq!(ctl.current_policy(), 1);
        assert_eq!(ctl.target_interval(), ctl.config().target_production);
    }

    #[test]
    fn production_resamples_periodically() {
        let mut ctl = Controller::new(cfg(2));
        ctl.begin_section();
        ctl.complete_interval(sample(0.4));
        ctl.complete_interval(sample(0.1));
        assert!(ctl.phase().is_production());
        let t = ctl.complete_interval(sample(0.15));
        assert!(matches!(t, Transition::Sample(_)));
        assert!(ctl.phase().is_sampling());
        assert_eq!(ctl.production_phases(), 1);
    }

    #[test]
    fn tie_breaks_to_first_sampled() {
        let mut ctl = Controller::new(cfg(3));
        ctl.begin_section();
        ctl.complete_interval(sample(0.2));
        ctl.complete_interval(sample(0.2));
        let t = ctl.complete_interval(sample(0.2));
        assert_eq!(t.policy(), 0);
    }

    #[test]
    fn extremes_first_ordering() {
        let config = ControllerConfig { ordering: PolicyOrdering::ExtremesFirst, ..cfg(4) };
        let mut ctl = Controller::new(config);
        assert_eq!(ctl.begin_section(), 3);
        assert_eq!(ctl.complete_interval(sample(0.4)), Transition::Sample(0));
        assert_eq!(ctl.complete_interval(sample(0.4)), Transition::Sample(1));
        assert_eq!(ctl.complete_interval(sample(0.4)), Transition::Sample(2));
    }

    #[test]
    fn aggressive_with_no_waiting_cuts_off() {
        let config = ControllerConfig {
            ordering: PolicyOrdering::ExtremesFirst,
            early_cutoff: Some(EarlyCutoff { negligible: 0.01, accept_within: None }),
            ..cfg(3)
        };
        let mut ctl = Controller::new(config);
        assert_eq!(ctl.begin_section(), 2);
        // Aggressive has some locking overhead but no waiting overhead.
        let s = OverheadSample::new(
            Duration::from_millis(1),
            Duration::ZERO,
            Duration::from_millis(10),
        );
        let t = ctl.complete_interval(s);
        assert_eq!(t, Transition::Produce { policy: 2, via_cutoff: true });
    }

    #[test]
    fn original_with_no_locking_cuts_off() {
        let config = ControllerConfig {
            early_cutoff: Some(EarlyCutoff { negligible: 0.01, accept_within: None }),
            ..cfg(3)
        };
        let mut ctl = Controller::new(config);
        assert_eq!(ctl.begin_section(), 0);
        let s = OverheadSample::new(
            Duration::ZERO,
            Duration::from_micros(1),
            Duration::from_millis(10),
        );
        let t = ctl.complete_interval(s);
        assert_eq!(t, Transition::Produce { policy: 0, via_cutoff: true });
    }

    #[test]
    fn cutoff_does_not_fire_with_significant_overheads() {
        let config = ControllerConfig {
            early_cutoff: Some(EarlyCutoff { negligible: 0.01, accept_within: None }),
            ..cfg(2)
        };
        let mut ctl = Controller::new(config);
        ctl.begin_section();
        let s = OverheadSample::new(
            Duration::from_millis(2),
            Duration::from_millis(2),
            Duration::from_millis(10),
        );
        assert_eq!(ctl.complete_interval(s), Transition::Sample(1));
    }

    #[test]
    fn best_first_orders_by_history_and_accepts() {
        let config = ControllerConfig {
            ordering: PolicyOrdering::BestFirst,
            early_cutoff: Some(EarlyCutoff { negligible: 0.0, accept_within: Some(0.05) }),
            ..cfg(3)
        };
        let mut ctl = Controller::new(config);
        // First section: no history, plain index order; policy 1 wins.
        ctl.begin_section();
        ctl.complete_interval(sample(0.5));
        ctl.complete_interval(sample(0.1));
        ctl.complete_interval(sample(0.3));
        assert_eq!(ctl.current_policy(), 1);
        ctl.end_section();
        // Second section: policy 1 sampled first; overhead unchanged, so the
        // acceptance rule fires and we skip the other policies.
        assert_eq!(ctl.begin_section(), 1);
        let t = ctl.complete_interval(sample(0.12));
        assert_eq!(t, Transition::Produce { policy: 1, via_cutoff: true });
    }

    #[test]
    fn best_first_resamples_all_when_overhead_changed() {
        let config = ControllerConfig {
            ordering: PolicyOrdering::BestFirst,
            early_cutoff: Some(EarlyCutoff { negligible: 0.0, accept_within: Some(0.05) }),
            ..cfg(2)
        };
        let mut ctl = Controller::new(config);
        ctl.begin_section();
        ctl.complete_interval(sample(0.1));
        ctl.complete_interval(sample(0.5));
        ctl.end_section();
        assert_eq!(ctl.begin_section(), 0);
        // Overhead jumped from 0.1 to 0.6: keep sampling.
        assert_eq!(ctl.complete_interval(sample(0.6)), Transition::Sample(1));
    }

    #[test]
    fn single_policy_still_cycles() {
        let mut ctl = Controller::new(cfg(1));
        ctl.begin_section();
        let t = ctl.complete_interval(sample(0.2));
        assert_eq!(t, Transition::Produce { policy: 0, via_cutoff: false });
    }

    #[test]
    #[should_panic(expected = "no active section")]
    fn current_policy_panics_when_idle() {
        let ctl = Controller::new(cfg(2));
        let _ = ctl.current_policy();
    }

    #[test]
    fn unusable_samples_record_nothing_and_fall_back_to_safest() {
        let mut ctl = Controller::new(cfg(3));
        ctl.begin_section();
        // Every sampling interval yields an unusable (zero-length) sample.
        let dead = OverheadSample::default();
        assert!(!dead.is_usable());
        ctl.complete_interval(dead);
        ctl.complete_interval(dead);
        let t = ctl.complete_interval(dead);
        // Nothing measured: production must degrade to Original (policy 0).
        assert_eq!(t, Transition::Produce { policy: 0, via_cutoff: false });
        assert!(ctl.measurements().iter().all(Option::is_none));
    }

    #[test]
    fn unusable_sample_does_not_beat_a_real_measurement() {
        let mut ctl = Controller::new(cfg(2));
        ctl.begin_section();
        ctl.complete_interval(sample(0.3));
        // Policy 1's interval never really ran; it must not win with a
        // phantom 0.0 overhead.
        let t = ctl.complete_interval(OverheadSample::default());
        assert_eq!(t.policy(), 0);
    }

    #[test]
    fn permanently_quarantined_policy_is_never_sampled_again() {
        let config = ControllerConfig { rehab: RehabPolicy::Permanent, ..cfg(3) };
        let mut ctl = Controller::new(config);
        ctl.begin_section();
        let next = ctl.quarantine(1);
        assert_eq!(next, Ok(0), "policy 0 was executing and survives");
        ctl.complete_interval(sample(0.4));
        // Sampling skips 1 entirely and goes to 2.
        assert_eq!(ctl.current_policy(), 2);
        let t = ctl.complete_interval(sample(0.2));
        assert_eq!(t, Transition::Produce { policy: 2, via_cutoff: false });
        // Resampling phases exclude it too.
        let t = ctl.complete_interval(sample(0.2));
        assert!(matches!(t, Transition::Sample(p) if p != 1));
    }

    #[test]
    fn quarantining_the_running_policy_restarts_sampling() {
        let mut ctl = Controller::new(cfg(3));
        ctl.begin_section();
        ctl.complete_interval(sample(0.9));
        ctl.complete_interval(sample(0.1));
        ctl.complete_interval(sample(0.5));
        assert_eq!(ctl.current_policy(), 1);
        assert!(ctl.phase().is_production());
        // The production winner dies: re-sample among survivors.
        let next = ctl.quarantine(1);
        assert_eq!(next, Ok(ctl.current_policy()));
        assert!(ctl.phase().is_sampling());
        assert!(!ctl.is_quarantined(0) && !ctl.is_quarantined(2));
    }

    #[test]
    fn quarantining_everything_reports_no_survivor() {
        let mut ctl = Controller::new(cfg(2));
        ctl.begin_section();
        assert_eq!(ctl.quarantine(0), Ok(1));
        assert_eq!(ctl.quarantine(1), Err(QuarantineError::NoSurvivor));
        assert_eq!(ctl.runnable_policies(), 0);
        // Degraded mode still names a policy to run.
        assert_eq!(ctl.safest_policy(), 0);
    }

    #[test]
    fn out_of_range_quarantine_is_a_typed_error() {
        let mut ctl = Controller::new(cfg(3));
        ctl.begin_section();
        assert_eq!(
            ctl.quarantine(7),
            Err(QuarantineError::OutOfRange { policy: 7, num_policies: 3 })
        );
        assert_eq!(
            ctl.report_soft_failure(3),
            Err(QuarantineError::OutOfRange { policy: 3, num_policies: 3 })
        );
        // The controller is untouched: nothing was quarantined.
        assert_eq!(ctl.runnable_policies(), 3);
        assert!(ctl.drain_health_events().is_empty());
    }

    #[test]
    fn soft_failure_suspects_then_quarantines() {
        let mut ctl = Controller::new(cfg(3));
        ctl.begin_section();
        // First soft failure: on notice, but still in rotation.
        assert_eq!(ctl.report_soft_failure(1), Ok(ctl.current_policy()));
        assert_eq!(ctl.health(1), HealthTier::Suspect);
        assert!(!ctl.is_quarantined(1));
        // Second soft failure escalates to quarantine.
        ctl.report_soft_failure(1).unwrap();
        assert_eq!(ctl.health(1), HealthTier::Quarantined);
        assert_eq!(ctl.strikes(1), 1);
        let states: Vec<&str> = ctl.drain_health_events().iter().map(|e| e.state()).collect();
        assert_eq!(states, vec!["suspect", "quarantined"]);
    }

    #[test]
    fn clean_sample_clears_a_suspect_policy() {
        let mut ctl = Controller::new(cfg(2));
        ctl.begin_section();
        ctl.report_soft_failure(1).unwrap();
        assert_eq!(ctl.health(1), HealthTier::Suspect);
        // Suspects are still sampled; a usable measurement clears them.
        ctl.complete_interval(sample(0.3));
        assert_eq!(ctl.current_policy(), 1);
        ctl.complete_interval(sample(0.2));
        assert_eq!(ctl.health(1), HealthTier::Healthy);
        assert!(ctl.drain_health_events().contains(&HealthEvent::Cleared(1)));
    }

    /// Drives one full cycle (finish sampling, then the production interval)
    /// and returns the first transition of the next sampling phase.
    fn cycle(ctl: &mut Controller) -> Transition {
        loop {
            if ctl.phase().is_production() {
                return ctl.complete_interval(sample(0.2));
            }
            ctl.complete_interval(sample(0.2));
        }
    }

    #[test]
    fn backoff_probe_rehabilitates_a_quarantined_policy() {
        let config =
            ControllerConfig { rehab: RehabPolicy::Backoff { base: 1, max: 8, seed: 0 }, ..cfg(3) };
        let mut ctl = Controller::new(config);
        ctl.begin_section();
        ctl.quarantine(1).unwrap();
        // strikes = 1 → backoff = 1 phase, jitter ∈ {0} (backoff/2 + 1 = 1):
        // the policy is probe-eligible once one sampling phase completes.
        cycle(&mut ctl);
        // This sampling phase probes policy 1 after the healthy policies.
        let Phase::Sampling { planned, .. } = ctl.phase() else {
            panic!("expected sampling");
        };
        assert_eq!(planned, 3, "two healthy policies plus the probe");
        ctl.complete_interval(sample(0.4));
        ctl.complete_interval(sample(0.4));
        assert_eq!(ctl.current_policy(), 1, "probe rides last in the order");
        assert!(ctl.is_quarantined(1), "still quarantined until the probe completes");
        // A clean probe restores it — and its measurement can even win.
        let t = ctl.complete_interval(sample(0.1));
        assert_eq!(ctl.health(1), HealthTier::Healthy);
        assert_eq!(t, Transition::Produce { policy: 1, via_cutoff: false });
        let events = ctl.drain_health_events();
        assert!(events.contains(&HealthEvent::Probing(1)));
        assert!(events.contains(&HealthEvent::Rehabilitated(1)));
    }

    #[test]
    fn failed_probe_doubles_the_backoff() {
        let config =
            ControllerConfig { rehab: RehabPolicy::Backoff { base: 1, max: 8, seed: 0 }, ..cfg(2) };
        let mut ctl = Controller::new(config);
        ctl.begin_section();
        ctl.quarantine(1).unwrap();
        cycle(&mut ctl);
        // Probe of policy 1 is planned this phase; it fails again.
        ctl.quarantine(1).unwrap();
        assert_eq!(ctl.strikes(1), 2);
        let until = ctl
            .drain_health_events()
            .iter()
            .find_map(|e| match *e {
                HealthEvent::Quarantined { policy: 1, until_phase, strikes: 2 } => {
                    Some(until_phase)
                }
                _ => None,
            })
            .expect("second quarantine recorded");
        // Backoff doubled: at least 2 phases out (plus jitter), counted
        // from the 1 already-completed phase.
        assert!(until >= ctl.sampling_phases() + 2, "until={until}");
    }

    #[test]
    fn probe_budget_is_one_per_phase() {
        let config =
            ControllerConfig { rehab: RehabPolicy::Backoff { base: 1, max: 8, seed: 0 }, ..cfg(4) };
        let mut ctl = Controller::new(config);
        ctl.begin_section();
        ctl.quarantine(1).unwrap();
        ctl.quarantine(2).unwrap();
        cycle(&mut ctl);
        // Both are overdue by now, but a sampling phase probes at most one.
        let Phase::Sampling { planned, .. } = ctl.phase() else {
            panic!("expected sampling");
        };
        assert_eq!(planned, 3, "2 healthy policies + exactly 1 probe");
    }

    #[test]
    fn all_quarantined_recovers_via_probes() {
        let config =
            ControllerConfig { rehab: RehabPolicy::Backoff { base: 1, max: 8, seed: 0 }, ..cfg(2) };
        let mut ctl = Controller::new(config);
        ctl.begin_section();
        assert_eq!(ctl.quarantine(0), Ok(1));
        assert_eq!(ctl.quarantine(1), Err(QuarantineError::NoSurvivor));
        // Degraded: the runtime keeps driving the safest policy; once a
        // phase completes, probes begin and the rotation heals.
        for _ in 0..8 {
            if ctl.runnable_policies() > 0 {
                break;
            }
            ctl.complete_interval(sample(0.2));
        }
        assert!(ctl.runnable_policies() > 0, "a probe should have rehabilitated a policy");
    }

    #[test]
    fn backoff_release_is_deterministic() {
        let config = ControllerConfig {
            rehab: RehabPolicy::Backoff { base: 4, max: 64, seed: 7 },
            ..cfg(3)
        };
        let run = |mut ctl: Controller| -> Vec<HealthEvent> {
            ctl.begin_section();
            ctl.quarantine(2).unwrap();
            ctl.quarantine(1).unwrap();
            ctl.drain_health_events()
        };
        let a = run(Controller::new(config.clone()));
        let b = run(Controller::new(config));
        assert_eq!(a, b);
    }

    #[test]
    fn abort_to_production_uses_best_so_far() {
        let mut ctl = Controller::new(cfg(3));
        ctl.begin_section();
        ctl.complete_interval(sample(0.4));
        // Mid-phase (policy 1 executing, 2 unmeasured): abort.
        let t = ctl.abort_to_production();
        assert_eq!(t, Transition::Produce { policy: 0, via_cutoff: false });
        assert!(ctl.phase().is_production());
        // Aborting during production is a no-op.
        assert_eq!(ctl.abort_to_production(), t);
    }

    #[test]
    fn abort_with_no_measurements_degrades_to_safest() {
        let mut ctl = Controller::new(cfg(3));
        ctl.begin_section();
        let t = ctl.abort_to_production();
        assert_eq!(t.policy(), 0);
    }

    fn event_cfg(n: usize) -> ControllerConfig {
        ControllerConfig {
            trigger: ResampleTrigger::EventDriven {
                detector: DetectorConfig::Cusum { drift: 0.05, threshold: 0.2 },
                min_spacing: 2,
                max_quiescence: Duration::from_secs(10),
            },
            ..cfg(n)
        }
    }

    /// Sample with an explicit waiting fraction (execution 10 ms).
    fn waiting_sample(waiting_frac: f64) -> OverheadSample {
        let exec = Duration::from_millis(10);
        OverheadSample::new(Duration::ZERO, exec.mul_f64(waiting_frac), exec)
    }

    #[test]
    fn rejects_degenerate_event_triggers() {
        let bad = ControllerConfig {
            trigger: ResampleTrigger::EventDriven {
                detector: DetectorConfig::Cusum { drift: 0.05, threshold: 0.0 },
                min_spacing: 1,
                max_quiescence: Duration::from_secs(1),
            },
            ..cfg(2)
        };
        assert_eq!(Controller::try_new(bad).unwrap_err(), ConfigError::BadDetector);
        let bad = ControllerConfig {
            trigger: ResampleTrigger::EventDriven {
                detector: DetectorConfig::default_cusum(),
                min_spacing: 1,
                max_quiescence: Duration::ZERO,
            },
            ..cfg(2)
        };
        assert_eq!(Controller::try_new(bad).unwrap_err(), ConfigError::ZeroInterval);
    }

    #[test]
    fn event_driven_production_target_is_the_quiescence_bound() {
        let config = ControllerConfig {
            trigger: ResampleTrigger::EventDriven {
                detector: DetectorConfig::default_cusum(),
                min_spacing: 2,
                max_quiescence: Duration::from_secs(3),
            },
            ..cfg(2)
        };
        let mut ctl = Controller::new(config);
        ctl.begin_section();
        assert_eq!(ctl.target_interval(), ctl.config().target_sampling);
        ctl.complete_interval(sample(0.3));
        ctl.complete_interval(sample(0.1));
        assert!(ctl.phase().is_production());
        assert_eq!(ctl.target_interval(), Duration::from_secs(3));
    }

    #[test]
    fn production_signal_alarm_respects_min_spacing_and_latches() {
        let mut ctl = Controller::new(event_cfg(2));
        ctl.begin_section();
        // Both policies show ~10% waiting; policy 1 wins.
        ctl.complete_interval(waiting_sample(0.10));
        ctl.complete_interval(waiting_sample(0.08));
        assert!(ctl.phase().is_production());
        // A massive shift on the very first observation is held back by
        // min_spacing = 2, then fires on the second.
        assert!(!ctl.observe_production_signal(0.9));
        assert!(!ctl.alarm_pending());
        assert!(ctl.observe_production_signal(0.9));
        assert!(ctl.alarm_pending());
        // Completing the interval clears the latch with the phase.
        ctl.complete_interval(waiting_sample(0.9));
        assert!(!ctl.alarm_pending());
        assert!(ctl.phase().is_sampling());
    }

    #[test]
    fn quiet_signal_never_alarms() {
        let mut ctl = Controller::new(event_cfg(2));
        ctl.begin_section();
        ctl.complete_interval(waiting_sample(0.10));
        ctl.complete_interval(waiting_sample(0.08));
        for _ in 0..1_000 {
            assert!(!ctl.observe_production_signal(0.08));
        }
        assert!(!ctl.alarm_pending());
    }

    #[test]
    fn signals_are_ignored_under_fixed_interval_and_outside_production() {
        let mut fixed = Controller::new(cfg(2));
        fixed.begin_section();
        assert!(!fixed.observe_production_signal(0.9));
        let mut event = Controller::new(event_cfg(2));
        event.begin_section();
        // Still sampling: signals are a no-op.
        assert!(!event.observe_production_signal(0.9));
        assert!(!event.alarm_pending());
    }

    #[test]
    fn signal_is_due_once_per_sampling_interval_of_event_driven_production() {
        let to_production = |ctl: &mut Controller| {
            ctl.begin_section();
            assert!(ctl.phase().is_sampling());
            assert!(!ctl.signal_due(Duration::from_secs(1)), "sampling owes no signal");
            ctl.complete_interval(sample(0.3));
            ctl.complete_interval(sample(0.1));
            assert!(ctl.phase().is_production());
        };
        let mut fixed = Controller::new(cfg(2));
        to_production(&mut fixed);
        assert!(!fixed.signal_due(Duration::from_secs(1)), "fixed interval owes no signal");
        let mut event = Controller::new(event_cfg(2));
        to_production(&mut event);
        let slice = event.config().target_sampling;
        assert!(!event.signal_due(slice - Duration::from_nanos(1)));
        assert!(event.signal_due(slice));
    }

    #[test]
    fn abort_overrun_shortens_the_effective_production_target() {
        let mut ctl = Controller::new(cfg(2));
        ctl.begin_section();
        ctl.complete_interval(sample(0.2));
        // The second sampling interval wedges and overruns by 3 s before
        // the watchdog fires: the production budget already lost that time.
        let overrun = Duration::from_secs(3);
        ctl.abort_to_production_carrying(overrun);
        assert!(ctl.phase().is_production());
        let configured = ctl.config().target_production;
        assert_eq!(
            ctl.target_interval(),
            configured - overrun,
            "effective target must deduct the aborted interval's overrun"
        );
        // The debt belongs to this interval only.
        ctl.complete_interval(sample(0.2));
        while !ctl.phase().is_production() {
            ctl.complete_interval(sample(0.2));
        }
        assert_eq!(ctl.target_interval(), configured);
    }

    #[test]
    fn abort_overrun_never_degenerates_the_target() {
        let mut ctl = Controller::new(cfg(2));
        ctl.begin_section();
        ctl.abort_to_production_carrying(Duration::from_secs(3_600));
        assert_eq!(
            ctl.target_interval(),
            ctl.config().target_sampling,
            "a huge overrun clamps to one sampling interval, not zero"
        );
    }

    #[test]
    fn extremes_first_respects_quarantine() {
        let config = ControllerConfig { ordering: PolicyOrdering::ExtremesFirst, ..cfg(4) };
        let mut ctl = Controller::new(config);
        ctl.begin_section();
        ctl.quarantine(3).unwrap();
        ctl.end_section();
        // Most aggressive *survivor* (2) first, then least aggressive (0).
        assert_eq!(ctl.begin_section(), 2);
        assert_eq!(ctl.complete_interval(sample(0.4)), Transition::Sample(0));
        assert_eq!(ctl.complete_interval(sample(0.4)), Transition::Sample(1));
    }
}
