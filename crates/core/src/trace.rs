//! Structured tracing of the adaptive runtime (the observability layer).
//!
//! The paper's argument rests on *when* the dynamic feedback controller
//! switches policies and *what* each phase measured. This module makes that
//! timeline a first-class artifact: the drivers (the discrete-event
//! simulator runtime in `dynfb-sim` and the real-thread executor in
//! [`crate::realtime`]) emit [`TraceEvent`]s into an [`Observer`] at every
//! controller decision, through [`crate::journal::record_decision`].
//!
//! * **Timestamps** are [`Duration`]s from the start of the run. The
//!   simulator stamps events with *virtual* time, so its traces are
//!   byte-deterministic (identical for every worker count of the bench
//!   engine); the realtime executor stamps wall-clock offsets, which are
//!   inherently noisy.
//! * **Zero cost when disabled**: the drivers are generic over the
//!   observer, so the disabled `()` monomorphizes every emission away (see
//!   [`crate::observer`]).
//! * **Collection** is a bounded [`RingBuffer`] (oldest events drop first,
//!   with a drop counter so consumers can detect truncation).
//! * **Export**: [`chrome_trace_json`] renders events in the Chrome
//!   trace-event JSON format, loadable in `chrome://tracing` or
//!   [Perfetto](https://ui.perfetto.dev). The rendering is deterministic:
//!   the same events always produce the same bytes.

use crate::controller::Phase;
use crate::observer::Observer;
use std::collections::VecDeque;
use std::fmt;
use std::time::Duration;

/// Why the controller switched policies (or entered a new phase).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwitchReason {
    /// Sampling completed; production runs the measured-best policy.
    MeasuredBest,
    /// Sampling was cut short by the early cut-off optimization (§4.5).
    EarlyCutoff,
    /// The stuck-sampling watchdog aborted the sampling phase.
    WatchdogAbort,
    /// Sampling advanced to the next policy in the sampling order.
    NextSample,
    /// A production interval expired; periodic resampling begins.
    Resample,
    /// The running version was quarantined (e.g. it panicked) and a
    /// survivor took over.
    Quarantine,
    /// A processor crash interrupted the interval; the controller fell back
    /// without trusting the poisoned measurement.
    CrashFallback,
    /// The switch runs a policy that just earned its way back from
    /// quarantine (a clean backoff probe).
    Rehabilitated,
    /// A change-point detector alarmed on the production waiting signal
    /// and ended the production interval early (event-driven resampling;
    /// see `dynfb_core::controller::ResampleTrigger::EventDriven`).
    ChangePoint,
}

impl SwitchReason {
    /// Stable lowercase name used in exports and reports.
    #[must_use]
    pub fn as_str(&self) -> &'static str {
        match self {
            SwitchReason::MeasuredBest => "measured-best",
            SwitchReason::EarlyCutoff => "early-cutoff",
            SwitchReason::WatchdogAbort => "watchdog-abort",
            SwitchReason::NextSample => "next-sample",
            SwitchReason::Resample => "resample",
            SwitchReason::Quarantine => "quarantine",
            SwitchReason::CrashFallback => "crash-fallback",
            SwitchReason::Rehabilitated => "rehabilitated",
            SwitchReason::ChangePoint => "change-point",
        }
    }
}

impl fmt::Display for SwitchReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One structured event in the adaptation timeline.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A run (or executor invocation) began.
    RunStart {
        /// Number of policy versions in rotation.
        policies: usize,
        /// Number of workers/processors executing.
        workers: usize,
    },
    /// The run completed.
    RunEnd,
    /// A fault-injection plan is active for this run (simulator only).
    FaultPlanActivated {
        /// Seed of the fault plan.
        seed: u64,
        /// Number of fault events in the plan.
        events: usize,
    },
    /// A sampling interval began measuring `policy`.
    SamplingStart {
        /// Policy being measured.
        policy: usize,
        /// Index into the sampling order.
        position: usize,
        /// Number of policies the phase planned to sample.
        planned: usize,
    },
    /// A sampling interval completed with its per-version overhead.
    SamplingEnd {
        /// Policy that was measured.
        policy: usize,
        /// Measured total overhead in `[0, 1]`.
        overhead: f64,
        /// Actual (effective) interval length.
        actual: Duration,
        /// True if the interval was interrupted (section end or watchdog
        /// abort) before reaching its target.
        partial: bool,
    },
    /// A production interval began running `policy`.
    ProductionStart {
        /// Policy selected for production.
        policy: usize,
        /// Whether the preceding sampling phase ended via early cut-off.
        via_cutoff: bool,
    },
    /// A production interval completed.
    ProductionEnd {
        /// Policy that was producing.
        policy: usize,
        /// Measured total overhead in `[0, 1]`.
        overhead: f64,
        /// Actual interval length.
        actual: Duration,
        /// True if the section ended before the interval reached its
        /// target.
        partial: bool,
    },
    /// The controller switched the executing policy.
    PolicySwitch {
        /// Policy before the switch.
        from: usize,
        /// Policy after the switch.
        to: usize,
        /// Why the switch happened.
        reason: SwitchReason,
    },
    /// All workers rendezvoused at a barrier to apply a policy switch
    /// synchronously (§4.1).
    BarrierSync {
        /// Number of workers that arrived at the barrier.
        arrived: usize,
    },
    /// A policy's health tier changed (the quarantine/rehabilitation state
    /// machine; see `dynfb_core::controller::HealthEvent`).
    PolicyHealth {
        /// Policy whose health changed.
        policy: usize,
        /// New tier: `"suspect"`, `"quarantined"`, `"probing"` or
        /// `"healthy"`.
        state: &'static str,
    },
    /// A change-point detector alarmed during production: the waiting
    /// signal left the level the sampling phase measured, and the driver
    /// is ending the production interval early (the matching
    /// [`TraceEvent::PolicySwitch`] carries
    /// [`SwitchReason::ChangePoint`]). Records the chart state at alarm
    /// time for post-mortems.
    ChangePointAlarm {
        /// Policy that was producing when the chart alarmed.
        policy: usize,
        /// Chart statistic at alarm time.
        score: f64,
        /// Alarm threshold the statistic exceeded.
        threshold: f64,
        /// Signal observations the chart consumed this production phase.
        observations: u64,
    },
}

impl TraceEvent {
    /// Short display name of the event kind.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            TraceEvent::RunStart { .. } => "run-start",
            TraceEvent::RunEnd => "run-end",
            TraceEvent::FaultPlanActivated { .. } => "fault-plan",
            TraceEvent::SamplingStart { .. } => "sampling-start",
            TraceEvent::SamplingEnd { .. } => "sampling-end",
            TraceEvent::ProductionStart { .. } => "production-start",
            TraceEvent::ProductionEnd { .. } => "production-end",
            TraceEvent::PolicySwitch { .. } => "policy-switch",
            TraceEvent::BarrierSync { .. } => "barrier-sync",
            TraceEvent::PolicyHealth { .. } => "policy-health",
            TraceEvent::ChangePointAlarm { .. } => "change-point-alarm",
        }
    }
}

/// A timestamped [`TraceEvent`].
#[derive(Debug, Clone, PartialEq)]
pub struct TracedEvent {
    /// Offset from the start of the run (virtual time in the simulator,
    /// wall clock in the realtime executor).
    pub at: Duration,
    /// The event.
    pub event: TraceEvent,
}

/// A bounded collector: keeps the most recent `capacity` events, counting
/// (not silently discarding) anything older that had to be dropped.
#[derive(Debug, Clone, Default)]
pub struct RingBuffer {
    capacity: usize,
    events: VecDeque<TracedEvent>,
    dropped: u64,
}

impl RingBuffer {
    /// A ring buffer holding at most `capacity` events (minimum 1). Storage
    /// grows with use: recorders are built before their runs, and most
    /// runs record a small fraction of the capacity.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        RingBuffer { capacity, events: VecDeque::new(), dropped: 0 }
    }

    /// Number of buffered events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if no events are buffered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Iterate over the buffered events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &TracedEvent> {
        self.events.iter()
    }

    /// Consume the buffer, returning the events oldest first.
    #[must_use]
    pub fn into_events(self) -> Vec<TracedEvent> {
        self.events.into()
    }
}

impl Observer for RingBuffer {
    fn event(&mut self, at: Duration, event: TraceEvent) {
        if self.events.len() >= self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(TracedEvent { at, event });
    }

    fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// The interval-end event for a phase that just completed (`None` when
/// idle).
#[must_use]
pub fn interval_end_event(
    phase: Phase,
    overhead: f64,
    actual: Duration,
    partial: bool,
) -> Option<TraceEvent> {
    match phase {
        Phase::Idle => None,
        Phase::Sampling { policy, .. } => {
            Some(TraceEvent::SamplingEnd { policy, overhead, actual, partial })
        }
        Phase::Production { policy, .. } => {
            Some(TraceEvent::ProductionEnd { policy, overhead, actual, partial })
        }
    }
}

/// The interval-start event for a phase the controller just entered
/// (`None` when idle).
#[must_use]
pub fn phase_start_event(phase: Phase) -> Option<TraceEvent> {
    match phase {
        Phase::Idle => None,
        Phase::Sampling { policy, position, planned } => {
            Some(TraceEvent::SamplingStart { policy, position, planned })
        }
        Phase::Production { policy, via_cutoff } => {
            Some(TraceEvent::ProductionStart { policy, via_cutoff })
        }
    }
}

/// Microseconds with nanosecond precision, as Chrome trace `ts` expects.
fn ts_us(d: Duration) -> String {
    let ns = d.as_nanos();
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// Escape a string for a JSON string literal: `"`, `\` and control
/// characters (as `\u00XX`). The trace and metrics exporters share it.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Render events as Chrome trace-event JSON (the format `chrome://tracing`
/// and [Perfetto](https://ui.perfetto.dev) load directly).
///
/// Completed intervals become complete (`"ph": "X"`) events spanning
/// `[at - actual, at]`; policy switches, barrier rendezvous and fault-plan
/// activations become instant (`"ph": "i"`) events. The output is
/// deterministic: identical events always render to identical bytes, which
/// is what lets CI diff simulator traces across worker counts.
#[must_use]
pub fn chrome_trace_json<'e>(
    process_name: &str,
    events: impl IntoIterator<Item = &'e TracedEvent>,
) -> String {
    let mut rows: Vec<String> = vec![format!(
        r#"{{"ph":"M","pid":0,"tid":0,"name":"process_name","args":{{"name":"{}"}}}}"#,
        json_escape(process_name)
    )];
    for te in events {
        let at = te.at;
        match &te.event {
            TraceEvent::SamplingEnd { policy, overhead, actual, partial }
            | TraceEvent::ProductionEnd { policy, overhead, actual, partial } => {
                let kind = match te.event {
                    TraceEvent::SamplingEnd { .. } => "sampling",
                    _ => "production",
                };
                let start = at.saturating_sub(*actual);
                rows.push(format!(
                    r#"{{"ph":"X","pid":0,"tid":0,"cat":"interval","name":"{kind} p{policy}","ts":{},"dur":{},"args":{{"policy":{policy},"overhead":{overhead:.6},"partial":{partial}}}}}"#,
                    ts_us(start),
                    ts_us(*actual),
                ));
            }
            TraceEvent::PolicySwitch { from, to, reason } => {
                rows.push(format!(
                    r#"{{"ph":"i","s":"g","pid":0,"tid":0,"cat":"switch","name":"switch {reason} p{from}->p{to}","ts":{},"args":{{"from":{from},"to":{to},"reason":"{reason}"}}}}"#,
                    ts_us(at),
                ));
            }
            TraceEvent::BarrierSync { arrived } => {
                rows.push(format!(
                    r#"{{"ph":"i","s":"t","pid":0,"tid":0,"cat":"barrier","name":"barrier-sync","ts":{},"args":{{"arrived":{arrived}}}}}"#,
                    ts_us(at),
                ));
            }
            TraceEvent::FaultPlanActivated { seed, events } => {
                rows.push(format!(
                    r#"{{"ph":"i","s":"g","pid":0,"tid":0,"cat":"fault","name":"fault-plan","ts":{},"args":{{"seed":{seed},"events":{events}}}}}"#,
                    ts_us(at),
                ));
            }
            TraceEvent::PolicyHealth { policy, state } => {
                rows.push(format!(
                    r#"{{"ph":"i","s":"g","pid":0,"tid":0,"cat":"health","name":"health p{policy}={state}","ts":{},"args":{{"policy":{policy},"state":"{state}"}}}}"#,
                    ts_us(at),
                ));
            }
            TraceEvent::ChangePointAlarm { policy, score, threshold, observations } => {
                rows.push(format!(
                    r#"{{"ph":"i","s":"g","pid":0,"tid":0,"cat":"alarm","name":"change-point p{policy}","ts":{},"args":{{"policy":{policy},"score":{score:.6},"threshold":{threshold:.6},"observations":{observations}}}}}"#,
                    ts_us(at),
                ));
            }
            // Starts are implied by the X events; run bounds add no
            // information to the visual timeline.
            TraceEvent::SamplingStart { .. }
            | TraceEvent::ProductionStart { .. }
            | TraceEvent::RunStart { .. }
            | TraceEvent::RunEnd => {}
        }
    }
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    out.push_str(&rows.join(",\n"));
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_buffer_drops_oldest_and_counts() {
        let mut ring = RingBuffer::new(2);
        for i in 0..5u64 {
            ring.event(Duration::from_nanos(i), TraceEvent::RunEnd);
        }
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.dropped(), 3);
        let events = ring.into_events();
        assert_eq!(events[0].at, Duration::from_nanos(3));
        assert_eq!(events[1].at, Duration::from_nanos(4));
    }

    #[test]
    fn saturated_one_slot_ring_reports_exact_drop_totals() {
        // The loss counter must be exact even in the degenerate one-slot
        // configuration, where every record past the first evicts: this is
        // what the drivers export (nonzero-only) as `trace_dropped`.
        let mut ring = RingBuffer::new(1);
        for i in 0..9u64 {
            ring.event(Duration::from_nanos(i), TraceEvent::RunEnd);
        }
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.dropped(), 8);
    }

    #[test]
    fn chrome_export_renders_health_and_switch_reasons() {
        let mut ring = RingBuffer::new(16);
        let at = Duration::from_micros(1);
        ring.event(
            at,
            TraceEvent::PolicySwitch { from: 0, to: 1, reason: SwitchReason::CrashFallback },
        );
        ring.event(at, TraceEvent::PolicyHealth { policy: 2, state: "healthy" });
        let json = chrome_trace_json("x", ring.iter());
        assert!(json.contains("crash-fallback"), "{json}");
        assert!(json.contains("health p2=healthy"), "{json}");
    }

    #[test]
    fn chrome_export_is_deterministic_and_escapes() {
        let mut ring = RingBuffer::new(16);
        ring.event(
            Duration::from_micros(5),
            TraceEvent::SamplingEnd {
                policy: 0,
                overhead: 0.5,
                actual: Duration::from_micros(5),
                partial: false,
            },
        );
        ring.event(
            Duration::from_micros(5),
            TraceEvent::PolicySwitch { from: 0, to: 1, reason: SwitchReason::NextSample },
        );
        let events = ring.into_events();
        let a = chrome_trace_json("run \"x\"", &events);
        let b = chrome_trace_json("run \"x\"", &events);
        assert_eq!(a, b);
        assert!(a.contains(r#"\"x\""#), "{a}");
        assert!(a.contains(r#""ts":0.000,"dur":5.000"#), "{a}");
        assert!(a.contains("next-sample"), "{a}");
    }
}
