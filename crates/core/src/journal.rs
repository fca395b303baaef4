//! Decision flight recorder: *why* the controller decided, not just *that*
//! it switched.
//!
//! The trace layer ([`crate::trace`]) records the adaptation timeline —
//! which intervals ran and when the policy changed. This module records the
//! **evidence** behind each decision: the per-version measured overhead
//! vector with a [`theory`](crate::theory)-derived confidence for each
//! measurement, the change-point chart state ([`DetectorSnapshot`]), and
//! each policy's health tier, all snapshotted at the instant the decision
//! was taken. Together a [`DecisionRecord`] answers "why did the controller
//! pick policy 2 here?" with the same numbers the controller saw.
//!
//! * **Vocabulary.** Three record kinds cover every controller decision:
//!   [`DecisionKind::Switch`] (sampling winner, early cut-off, watchdog
//!   abort, next-sample, resample, quarantine takeover, crash fallback,
//!   rehabilitation, change-point) keyed by [`SwitchReason`];
//!   [`DecisionKind::Alarm`] for change-point chart alarms; and
//!   [`DecisionKind::Health`] for quarantine-state transitions. The kinds
//!   correspond one-to-one with the trace events `PolicySwitch`,
//!   `ChangePointAlarm` and `PolicyHealth`; [`record_decision`] writes
//!   both from the same controller decision, and the `dynfb-bench observe`
//!   oracle cross-checks the journal record-for-record against the trace.
//! * **Confidence.** The paper's §5 model assumes per-version overheads
//!   drift with bounded exponential rate `λ` (the `decay` of
//!   [`crate::theory::Analysis`]). Under that assumption a measurement of
//!   age `t` is trusted with weight `e^{-λ·t}` — the same factor the
//!   anticipated-overhead bound uses. [`measurement_confidence`] computes
//!   it from the measurement times the controller keeps
//!   ([`Controller::measured_at`]).
//! * **Zero cost when disabled.** Drivers are generic over the
//!   [`Observer`]; with the disabled `()` every emission of
//!   [`record_decision`], evidence assembly included, monomorphizes away
//!   (see [`crate::observer`]).
//! * **Determinism.** The simulator stamps records with virtual time, so
//!   its journal renders to byte-identical NDJSON for every worker count;
//!   the realtime executor stamps wall-clock offsets, which comparisons
//!   quarantine with [`strip_wall_clock`].

use crate::controller::{Controller, Decision, PolicyId};
use crate::detector::DetectorSnapshot;
use crate::observer::{Observer, Recorder};
use crate::trace::{interval_end_event, phase_start_event, SwitchReason, TraceEvent};
use std::time::Duration;

/// Default decay rate `λ` for measurement confidence, matching the
/// Figure 3 analysis in [`crate::theory`] (the paper's representative
/// value).
pub const DEFAULT_DECAY: f64 = 0.065;

/// Confidence in a measurement of age `age` under the §5 bounded-drift
/// model: `e^{-λ·age}` with `λ = decay` per second. A never-measured
/// policy has confidence 0 by convention.
#[must_use]
pub fn measurement_confidence(age: Duration, decay: f64) -> f64 {
    (-decay * age.as_secs_f64()).exp()
}

/// What the controller decided.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DecisionKind {
    /// The executing policy changed (or a phase boundary was crossed).
    /// `reason` carries the full switch vocabulary: `measured-best`,
    /// `early-cutoff`, `watchdog-abort`, `next-sample`, `resample`,
    /// `quarantine`, `crash-fallback`, `rehabilitated`, `change-point`.
    Switch {
        /// Policy before the switch.
        from: PolicyId,
        /// Policy after the switch.
        to: PolicyId,
        /// Why the controller switched.
        reason: SwitchReason,
    },
    /// A change-point detector alarmed on the production waiting signal.
    /// The chart state is in [`Evidence::detector`].
    Alarm {
        /// Policy that was producing when the chart alarmed.
        policy: PolicyId,
    },
    /// A policy's health tier changed (suspect / quarantined / probing /
    /// healthy).
    Health {
        /// Policy whose health changed.
        policy: PolicyId,
        /// Stable lowercase name of the tier it moved into.
        state: &'static str,
    },
}

impl DecisionKind {
    /// Stable lowercase name used in NDJSON exports.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            DecisionKind::Switch { .. } => "switch",
            DecisionKind::Alarm { .. } => "alarm",
            DecisionKind::Health { .. } => "health",
        }
    }
}

/// One policy's row in the evidence snapshot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyEvidence {
    /// The policy.
    pub policy: PolicyId,
    /// Most recent measured total overhead in `[0, 1]`: the current
    /// sampling phase's measurement when available, otherwise the last
    /// completed phase's.
    pub overhead: Option<f64>,
    /// `e^{-λ·age}` of that measurement ([`measurement_confidence`]); 0
    /// when the policy has never been measured.
    pub confidence: f64,
    /// Health tier at decision time (`"healthy"`, `"suspect"`,
    /// `"quarantined"`).
    pub health: &'static str,
}

/// The full evidence snapshot carried by a [`DecisionRecord`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Evidence {
    /// Per-policy measurements, confidences and health, indexed by policy.
    pub policies: Vec<PolicyEvidence>,
    /// Change-point chart state, when the controller runs event-driven.
    pub detector: Option<DetectorSnapshot>,
    /// Overhead measured by the interval that ended at this decision.
    pub interval_overhead: Option<f64>,
    /// Effective length of that interval.
    pub interval: Duration,
}

/// A timestamped controller decision with its evidence.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionRecord {
    /// Sequence number, assigned by the collecting [`JournalBuffer`]
    /// (emitters leave it 0).
    pub seq: u64,
    /// Offset from the start of the run: virtual time in the simulator,
    /// wall clock in the realtime executor.
    pub at: Duration,
    /// What was decided.
    pub kind: DecisionKind,
    /// What the controller saw when it decided.
    pub evidence: Evidence,
}

/// The observer interface under its journal-era name, kept so code that
/// imports `journal::JournalSink` (for instance to call
/// [`dropped`](Observer::dropped) on a [`JournalBuffer`]) keeps compiling.
pub use crate::observer::Observer as JournalSink;

/// The bounded collector of decision records: keeps the most recent
/// `capacity` records, numbered in arrival order, and counts the older
/// ones it dropped.
pub type JournalBuffer = Recorder<DecisionRecord>;

/// Snapshot the evidence visible to `controller` at time `at`: each
/// policy's latest overhead, its health, and the [`measurement_confidence`]
/// of that overhead from the controller's
/// [`measured_at`](Controller::measured_at) stamps.
/// `interval_overhead`/`interval` describe the interval that just ended
/// (`None`/zero at non-interval decision points).
fn evidence(
    controller: &Controller,
    at: Duration,
    interval_overhead: Option<f64>,
    interval: Duration,
) -> Evidence {
    let current = controller.measurements();
    let history = controller.history();
    let policies = controller
        .measured_at()
        .iter()
        .enumerate()
        .map(|(p, measured_at)| {
            let overhead =
                current.get(p).copied().flatten().or_else(|| history.get(p).copied().flatten());
            let confidence = match (overhead, measured_at) {
                (Some(_), Some(t0)) => {
                    measurement_confidence(at.saturating_sub(*t0), DEFAULT_DECAY)
                }
                _ => 0.0,
            };
            PolicyEvidence {
                policy: p,
                overhead,
                confidence,
                health: controller.health(p).as_str(),
            }
        })
        .collect();
    Evidence { policies, detector: controller.detector_snapshot(), interval_overhead, interval }
}

/// Write one controller [`Decision`] to the observer: the one emission
/// path behind every decision of both drivers.
///
/// The trace events are the decision's health transitions, the
/// change-point alarm, the closed interval's end, the policy switch and
/// the new interval's start, in that order. The decision records are the
/// matching [`DecisionKind::Health`], [`DecisionKind::Alarm`] and
/// [`DecisionKind::Switch`] records, all carrying one evidence snapshot
/// taken from `controller` after the decision. Nothing is built for a
/// disabled observer, and evidence only when the decision writes a record.
pub fn record_decision<O: Observer>(
    obs: &mut O,
    controller: &Controller,
    at: Duration,
    decision: &Decision,
) {
    if !O::ENABLED {
        return;
    }
    for ev in &decision.health {
        obs.event(at, TraceEvent::PolicyHealth { policy: ev.policy(), state: ev.state() });
    }
    if let Some(snap) = decision.chart {
        obs.event(
            at,
            TraceEvent::ChangePointAlarm {
                policy: decision.from,
                score: snap.score,
                threshold: snap.threshold,
                observations: snap.observations,
            },
        );
    }
    if let Some(c) = decision.closed {
        if let Some(ev) = interval_end_event(decision.before, c.overhead, c.actual, c.partial) {
            obs.event(at, ev);
        }
    }
    if let Some((from, to, reason)) = decision.switch() {
        obs.event(at, TraceEvent::PolicySwitch { from, to, reason });
    }
    if decision.opened() {
        if let Some(ev) = phase_start_event(decision.after) {
            obs.event(at, ev);
        }
    }
    let health = decision
        .health
        .iter()
        .map(|ev| DecisionKind::Health { policy: ev.policy(), state: ev.state() });
    let alarm = decision.alarmed().then_some(DecisionKind::Alarm { policy: decision.from });
    let switch =
        decision.switch().map(|(from, to, reason)| DecisionKind::Switch { from, to, reason });
    let mut kinds = health.chain(alarm).chain(switch).peekable();
    if kinds.peek().is_none() {
        return;
    }
    let closed = decision.closed;
    let evidence = evidence(
        controller,
        at,
        closed.map(|c| c.overhead),
        closed.map_or(Duration::ZERO, |c| c.actual),
    );
    while let Some(kind) = kinds.next() {
        if kinds.peek().is_none() {
            // The last record takes the snapshot; the others copy it.
            obs.decision(DecisionRecord { seq: 0, at, kind, evidence });
            break;
        }
        obs.decision(DecisionRecord { seq: 0, at, kind, evidence: evidence.clone() });
    }
}

fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        out.push_str(&format!("{v:.6}"));
    } else {
        out.push_str("null");
    }
}

fn push_opt_f64(out: &mut String, v: Option<f64>) {
    match v {
        Some(v) => push_f64(out, v),
        None => out.push_str("null"),
    }
}

/// Render one record as a single NDJSON line (no trailing newline).
///
/// The field order and float precision are fixed, so identical records
/// always render to identical bytes — the property the journal-determinism
/// CI job diffs across worker counts.
#[must_use]
pub fn decision_ndjson_line(rec: &DecisionRecord) -> String {
    let mut out = String::with_capacity(256);
    out.push_str(&format!(
        "{{\"seq\":{},\"at_ns\":{},\"kind\":\"{}\"",
        rec.seq,
        rec.at.as_nanos(),
        rec.kind.name()
    ));
    match rec.kind {
        DecisionKind::Switch { from, to, reason } => {
            out.push_str(&format!(",\"from\":{from},\"to\":{to},\"reason\":\"{reason}\""));
        }
        DecisionKind::Alarm { policy } => {
            out.push_str(&format!(",\"policy\":{policy}"));
        }
        DecisionKind::Health { policy, state } => {
            out.push_str(&format!(",\"policy\":{policy},\"state\":\"{state}\""));
        }
    }
    out.push_str(&format!(",\"interval_ns\":{}", rec.evidence.interval.as_nanos()));
    out.push_str(",\"interval_overhead\":");
    push_opt_f64(&mut out, rec.evidence.interval_overhead);
    out.push_str(",\"policies\":[");
    for (i, p) in rec.evidence.policies.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{{\"policy\":{},\"overhead\":", p.policy));
        push_opt_f64(&mut out, p.overhead);
        out.push_str(",\"confidence\":");
        push_f64(&mut out, p.confidence);
        out.push_str(&format!(",\"health\":\"{}\"}}", p.health));
    }
    out.push(']');
    match &rec.evidence.detector {
        Some(d) => {
            out.push_str(",\"detector\":{\"score\":");
            push_f64(&mut out, d.score);
            out.push_str(",\"threshold\":");
            push_f64(&mut out, d.threshold);
            out.push_str(",\"baseline\":");
            push_f64(&mut out, d.baseline);
            out.push_str(&format!(",\"observations\":{}}}", d.observations));
        }
        None => out.push_str(",\"detector\":null"),
    }
    out.push('}');
    out
}

/// Render records as NDJSON, one line per record.
#[must_use]
pub fn decision_ndjson<'r>(records: impl IntoIterator<Item = &'r DecisionRecord>) -> String {
    let mut out = String::new();
    for rec in records {
        out.push_str(&decision_ndjson_line(rec));
        out.push('\n');
    }
    out
}

/// Replace the wall-clock timestamp in an NDJSON line (or a whole NDJSON
/// document) with 0, for comparisons that must ignore realtime noise the
/// same way `BENCH_TIMINGS.json` host timings are quarantined from
/// determinism diffs.
#[must_use]
pub fn strip_wall_clock(ndjson: &str) -> String {
    let mut out = String::with_capacity(ndjson.len());
    let mut rest = ndjson;
    const KEY: &str = "\"at_ns\":";
    while let Some(pos) = rest.find(KEY) {
        let end = pos + KEY.len();
        out.push_str(&rest[..end]);
        out.push('0');
        rest = &rest[end..];
        let digits = rest.bytes().take_while(|b| b.is_ascii_digit()).count();
        rest = &rest[digits..];
    }
    out.push_str(rest);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn evidence_fixture() -> Evidence {
        Evidence {
            policies: vec![
                PolicyEvidence {
                    policy: 0,
                    overhead: Some(0.25),
                    confidence: 1.0,
                    health: "healthy",
                },
                PolicyEvidence {
                    policy: 1,
                    overhead: None,
                    confidence: 0.0,
                    health: "quarantined",
                },
            ],
            detector: Some(DetectorSnapshot {
                score: 0.5,
                threshold: 0.25,
                baseline: f64::NAN,
                observations: 3,
            }),
            interval_overhead: Some(0.125),
            interval: Duration::from_micros(500),
        }
    }

    #[test]
    fn saturated_one_slot_buffer_reports_exact_drop_totals() {
        let mut buf = JournalBuffer::new(1);
        for i in 0..7u64 {
            buf.decision(DecisionRecord {
                seq: 0,
                at: Duration::from_nanos(i),
                kind: DecisionKind::Alarm { policy: 0 },
                evidence: Evidence::default(),
            });
        }
        assert_eq!(buf.len(), 1);
        assert_eq!(buf.dropped(), 6);
        assert_eq!(buf.total_recorded(), 7);
        // The survivor is the newest record, with its arrival-order seq.
        assert_eq!(buf.latest().unwrap().seq, 6);
        assert_eq!(buf.latest().unwrap().at, Duration::from_nanos(6));
    }

    #[test]
    fn confidence_decays_with_measurement_age() {
        assert_eq!(measurement_confidence(Duration::ZERO, 0.065), 1.0);
        let c1 = measurement_confidence(Duration::from_secs(1), 0.065);
        let c10 = measurement_confidence(Duration::from_secs(10), 0.065);
        assert!(c1 < 1.0 && c10 < c1 && c10 > 0.0);
        assert!((c1 - (-0.065f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn ndjson_is_deterministic_and_handles_nan() {
        let rec = DecisionRecord {
            seq: 3,
            at: Duration::from_micros(7),
            kind: DecisionKind::Switch { from: 0, to: 1, reason: SwitchReason::MeasuredBest },
            evidence: evidence_fixture(),
        };
        let a = decision_ndjson_line(&rec);
        let b = decision_ndjson_line(&rec);
        assert_eq!(a, b);
        assert!(a.contains("\"reason\":\"measured-best\""), "{a}");
        // NaN baselines must render as null, not invalid JSON.
        assert!(a.contains("\"baseline\":null"), "{a}");
        assert!(a.contains("\"overhead\":0.250000"), "{a}");
        assert!(a.contains("\"health\":\"quarantined\""), "{a}");
        assert!(!a.contains("NaN"), "{a}");
    }

    #[test]
    fn strip_wall_clock_zeroes_only_timestamps() {
        let rec = DecisionRecord {
            seq: 1,
            at: Duration::from_nanos(123_456_789),
            kind: DecisionKind::Health { policy: 2, state: "suspect" },
            evidence: Evidence::default(),
        };
        let doc = decision_ndjson([&rec, &rec]);
        let stripped = strip_wall_clock(&doc);
        assert!(stripped.contains("\"at_ns\":0,"), "{stripped}");
        assert!(!stripped.contains("123456789"), "{stripped}");
        // Other numeric fields survive.
        assert!(stripped.contains("\"seq\":1"), "{stripped}");
        assert_eq!(strip_wall_clock(&stripped), stripped);
    }
}
