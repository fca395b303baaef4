//! Decision-journal oracle and causal-timeline renderer.
//!
//! For every chaos scenario this module replays the adaptive cells of the
//! chaos matrix (dynamic and event-driven) with *both* observation channels
//! attached — the trace [`RingBuffer`] and the decision [`JournalBuffer`] —
//! and cross-checks them record-for-record: every journal
//! [`DecisionKind::Switch`] must line up with a trace
//! [`TraceEvent::PolicySwitch`] carrying the same timestamp, policies and
//! reason; every [`DecisionKind::Alarm`] with a `ChangePointAlarm` whose
//! chart numbers equal the record's evidence snapshot; every
//! [`DecisionKind::Health`] with a `PolicyHealth` transition. Both streams
//! are written from the same controller decisions by
//! `dynfb_core::journal::record_decision`, so agreement checks that emitter
//! end to end over every fault scenario, and that neither channel dropped
//! anything.
//!
//! On top of the oracle, [`explain_report_with`] renders a human-readable
//! causal timeline per switch ("switched original→aggressive
//! (measured-best): overhead original 0.1234 conf 0.98 vs …") and exports
//! the full journal of every cell as NDJSON. Everything is virtual-time
//! stamped, so report text and exports are byte-identical for every engine
//! worker count (CI enforces this).

use crate::chaos::{self, ChaosApp, ChaosConfig, ChaosMode, Scenario, VERSIONS};
use crate::engine::{Engine, Filter, Job};
use dynfb_core::journal::{
    decision_ndjson, DecisionKind, DecisionRecord, JournalBuffer, JournalSink,
};
use dynfb_core::metrics::NoMetrics;
use dynfb_core::trace::{RingBuffer, TraceEvent, TracedEvent};
use dynfb_sim::run_app_flight_recorded;
use std::fmt::Write as _;
use std::time::Duration;

/// One adaptive chaos cell replayed under the full flight recorder.
#[derive(Debug, Clone)]
pub struct ExplainedCell {
    /// Scenario name.
    pub scenario: String,
    /// Mode name (`"dynamic"` or `"event-driven"`).
    pub mode: &'static str,
    /// Every decision record the run journaled, in order.
    pub records: Vec<DecisionRecord>,
    /// Every trace event the run emitted, in order.
    pub events: Vec<TracedEvent>,
    /// Records the journal had to drop (must be zero for the oracle).
    pub journal_dropped: u64,
    /// Events the trace ring had to drop (must be zero for the oracle).
    pub trace_dropped: u64,
}

/// Replay one `(scenario, mode)` cell with trace and journal attached.
///
/// Uses the exact [`RunConfig`](dynfb_sim::RunConfig) the chaos harness
/// builds via [`chaos::mode_run_config`], so the replay simulates the same
/// virtual execution byte for byte.
///
/// # Panics
///
/// Panics if the simulation fails (the harness only builds valid configs).
#[must_use]
pub fn run_explained(cfg: &ChaosConfig, scenario: &Scenario, mode: ChaosMode) -> ExplainedCell {
    let run = chaos::mode_run_config(cfg, scenario, mode);
    let mut ring = RingBuffer::new(1 << 16);
    let mut journal = JournalBuffer::new(1 << 16);
    run_app_flight_recorded(
        ChaosApp::new(cfg.iters),
        &run,
        &mut ring,
        &mut journal,
        &mut NoMetrics,
    )
    .expect("flight-recorded chaos run");
    ExplainedCell {
        scenario: scenario.name.to_string(),
        mode: mode.name(),
        journal_dropped: journal.dropped(),
        trace_dropped: ring.dropped(),
        records: journal.into_records(),
        events: ring.into_events(),
    }
}

/// The trace-side view of one journal-relevant event.
#[derive(Debug, Clone, Copy, PartialEq)]
enum OracleEvent {
    Switch { from: usize, to: usize, reason: &'static str },
    Alarm { policy: usize, score: f64, threshold: f64, observations: u64 },
    Health { policy: usize, state: &'static str },
}

/// Project the trace onto the journal's vocabulary, preserving order.
fn oracle_events(events: &[TracedEvent]) -> Vec<(Duration, OracleEvent)> {
    events
        .iter()
        .filter_map(|e| {
            let ev = match e.event {
                TraceEvent::PolicySwitch { from, to, reason } => {
                    OracleEvent::Switch { from, to, reason: reason.as_str() }
                }
                TraceEvent::ChangePointAlarm { policy, score, threshold, observations } => {
                    OracleEvent::Alarm { policy, score, threshold, observations }
                }
                TraceEvent::PolicyHealth { policy, state } => OracleEvent::Health { policy, state },
                _ => return None,
            };
            Some((e.at, ev))
        })
        .collect()
}

/// Cross-check the journal against the trace oracle, record for record.
/// Returns human-readable mismatch descriptions; empty means agreement.
#[must_use]
pub fn cross_check(records: &[DecisionRecord], events: &[TracedEvent]) -> Vec<String> {
    let oracle = oracle_events(events);
    let mut errors = Vec::new();
    if records.len() != oracle.len() {
        errors.push(format!(
            "journal has {} records but the trace has {} journal-relevant events",
            records.len(),
            oracle.len()
        ));
    }
    for (i, (rec, (at, ev))) in records.iter().zip(&oracle).enumerate() {
        if rec.at != *at {
            errors
                .push(format!("record {i}: journal stamped {:?} but trace stamped {at:?}", rec.at));
        }
        let agrees = match (rec.kind, ev) {
            (
                DecisionKind::Switch { from, to, reason },
                OracleEvent::Switch { from: tf, to: tt, reason: tr },
            ) => from == *tf && to == *tt && reason.as_str() == *tr,
            (
                DecisionKind::Alarm { policy },
                OracleEvent::Alarm { policy: tp, score, threshold, observations },
            ) => {
                // The alarm's evidence must carry the same chart state the
                // trace recorded at the alarm instant.
                policy == *tp
                    && rec.evidence.detector.is_some_and(|d| {
                        d.score == *score
                            && d.threshold == *threshold
                            && d.observations == *observations
                    })
            }
            (
                DecisionKind::Health { policy, state },
                OracleEvent::Health { policy: tp, state: ts },
            ) => policy == *tp && state == *ts,
            _ => false,
        };
        if !agrees {
            errors.push(format!("record {i}: journal says {:?} but trace says {ev:?}", rec.kind));
        }
    }
    errors
}

fn version_name(p: usize) -> &'static str {
    VERSIONS.get(p).copied().unwrap_or("?")
}

fn us(d: Duration) -> String {
    format!("{}us", d.as_micros())
}

/// Render the per-policy evidence of a record as a compact clause:
/// `original 0.1234 (conf 0.98, healthy) vs bounded - (conf 0.00, quarantined)`.
fn evidence_clause(rec: &DecisionRecord) -> String {
    let mut out = String::new();
    for (i, p) in rec.evidence.policies.iter().enumerate() {
        if i > 0 {
            out.push_str(" vs ");
        }
        match p.overhead {
            Some(o) => {
                let _ = write!(out, "{} {o:.4} (conf {:.2}", version_name(p.policy), p.confidence);
            }
            None => {
                let _ = write!(out, "{} - (conf {:.2}", version_name(p.policy), p.confidence);
            }
        }
        if p.health != "healthy" {
            let _ = write!(out, ", {}", p.health);
        }
        out.push(')');
    }
    out
}

/// Render one journal record as a causal-timeline line.
#[must_use]
pub fn timeline_line(rec: &DecisionRecord) -> String {
    let mut line = format!("[{:>12}] ", us(rec.at));
    match rec.kind {
        DecisionKind::Switch { from, to, reason } => {
            let _ = write!(
                line,
                "switched {}\u{2192}{} ({reason}): ",
                version_name(from),
                version_name(to)
            );
            if let Some(o) = rec.evidence.interval_overhead {
                let _ = write!(
                    line,
                    "interval measured overhead {o:.4} over {}; ",
                    us(rec.evidence.interval)
                );
            }
            line.push_str(&evidence_clause(rec));
            if let Some(d) = rec.evidence.detector {
                let _ = write!(
                    line,
                    "; CUSUM score {:.2} vs threshold {:.2} after {} obs",
                    d.score, d.threshold, d.observations
                );
            }
        }
        DecisionKind::Alarm { policy } => {
            let _ = write!(line, "change-point alarm on {}", version_name(policy));
            if let Some(d) = rec.evidence.detector {
                let _ = write!(
                    line,
                    ": CUSUM score {:.2} > threshold {:.2} after {} obs",
                    d.score, d.threshold, d.observations
                );
            }
        }
        DecisionKind::Health { policy, state } => {
            let _ = write!(line, "health: {} \u{2192} {state}", version_name(policy));
        }
    }
    line
}

/// Render a cell's full causal timeline (one line per record).
#[must_use]
pub fn timeline(records: &[DecisionRecord]) -> String {
    let mut out = String::new();
    for rec in records {
        out.push_str(&timeline_line(rec));
        out.push('\n');
    }
    out
}

/// Everything the explain oracle produces in one sweep.
#[derive(Debug, Clone)]
pub struct ExplainReport {
    /// Rendered per-cell causal timelines plus the oracle verdict
    /// (deterministic text).
    pub text: String,
    /// Whether every cell's journal agreed with its trace, record for
    /// record, with nothing dropped.
    pub consistent: bool,
    /// Per-cell `(file name, NDJSON)` journal exports.
    pub exports: Vec<(String, String)>,
}

/// Run the explain oracle over every chaos scenario, serially.
#[must_use]
pub fn explain_report(cfg: &ChaosConfig) -> ExplainReport {
    explain_report_with(cfg, &Engine::new(1), None)
}

/// Run the (optionally filtered) explain oracle on `engine`: one job per
/// `(scenario, adaptive mode)` cell, reassembled in submission order so
/// `text` and `exports` are byte-identical for every worker count.
///
/// # Panics
///
/// Panics if a simulation fails.
#[must_use]
pub fn explain_report_with(
    cfg: &ChaosConfig,
    engine: &Engine,
    filter: Option<&Filter>,
) -> ExplainReport {
    let selected: Vec<Scenario> = chaos::scenarios(cfg)
        .into_iter()
        .filter(|s| filter.is_none_or(|f| f.matches(s.name)))
        .collect();
    let modes = [ChaosMode::Dynamic, ChaosMode::EventDriven];
    let tasks: Vec<Job<'_, ExplainedCell>> = selected
        .iter()
        .flat_map(|scenario| {
            modes.iter().map(move |&mode| {
                let task: Job<'_, ExplainedCell> =
                    Box::new(move || run_explained(cfg, scenario, mode));
                task
            })
        })
        .collect();
    let cells = engine.run(tasks);

    let mut text = String::new();
    let _ = writeln!(
        text,
        "explain: {} scenarios x {} adaptive modes, journal cross-checked against the trace \
         oracle (seed {})\n",
        selected.len(),
        modes.len(),
        cfg.seed
    );
    let mut consistent = true;
    let mut exports = Vec::new();
    for task in cells {
        let cell = task.value;
        let errors = cross_check(&cell.records, &cell.events);
        let dropped = cell.journal_dropped > 0 || cell.trace_dropped > 0;
        let ok = errors.is_empty() && !dropped;
        consistent &= ok;
        let _ = writeln!(
            text,
            "== {} / {} \u{2014} {} decisions, {} trace events{} ==",
            cell.scenario,
            cell.mode,
            cell.records.len(),
            cell.events.len(),
            if ok { "" } else { " [MISMATCH]" },
        );
        text.push_str(&timeline(&cell.records));
        if dropped {
            let _ = writeln!(
                text,
                "DROPPED: journal {} / trace {} \u{2014} oracle needs the full streams",
                cell.journal_dropped, cell.trace_dropped
            );
        }
        for e in &errors {
            let _ = writeln!(text, "MISMATCH: {e}");
        }
        text.push('\n');
        exports.push((
            format!("{}-{}.ndjson", cell.scenario, cell.mode),
            decision_ndjson(&cell.records),
        ));
    }
    let _ = writeln!(
        text,
        "consistency: {}",
        if consistent { "journal agrees with the trace oracle on every cell" } else { "MISMATCH" }
    );
    ExplainReport { text, consistent, exports }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynfb_core::journal::{Evidence, PolicyEvidence};
    use dynfb_core::trace::SwitchReason;

    fn rec(at_us: u64, kind: DecisionKind) -> DecisionRecord {
        DecisionRecord {
            seq: 0,
            at: Duration::from_micros(at_us),
            kind,
            evidence: Evidence::default(),
        }
    }

    fn ev(at_us: u64, event: TraceEvent) -> TracedEvent {
        TracedEvent { at: Duration::from_micros(at_us), event }
    }

    #[test]
    fn cross_check_accepts_matching_streams() {
        let records = vec![
            rec(10, DecisionKind::Health { policy: 1, state: "suspect" }),
            rec(10, DecisionKind::Switch { from: 0, to: 2, reason: SwitchReason::MeasuredBest }),
        ];
        let events = vec![
            ev(5, TraceEvent::RunStart { policies: 3, workers: 4 }),
            ev(10, TraceEvent::PolicyHealth { policy: 1, state: "suspect" }),
            ev(10, TraceEvent::ProductionStart { policy: 2, via_cutoff: false }),
            ev(10, TraceEvent::PolicySwitch { from: 0, to: 2, reason: SwitchReason::MeasuredBest }),
        ];
        // The projection keeps only journal-relevant events, in order;
        // interleaved phase markers are ignored.
        let errors = cross_check(&records, &events);
        assert!(errors.is_empty(), "{errors:?}");
        // Truncating the trace breaks the count invariant.
        let errors = cross_check(&records, &events[..2]);
        assert!(errors.iter().any(|e| e.contains("journal has 2 records")), "{errors:?}");
    }

    #[test]
    fn cross_check_flags_reason_divergence() {
        let records =
            vec![rec(10, DecisionKind::Switch { from: 0, to: 2, reason: SwitchReason::Resample })];
        let events = vec![ev(
            10,
            TraceEvent::PolicySwitch { from: 0, to: 2, reason: SwitchReason::MeasuredBest },
        )];
        let errors = cross_check(&records, &events);
        assert_eq!(errors.len(), 1);
        assert!(errors[0].contains("journal says"), "{errors:?}");
    }

    #[test]
    fn cross_check_flags_timestamp_divergence() {
        let records =
            vec![rec(11, DecisionKind::Switch { from: 0, to: 2, reason: SwitchReason::Resample })];
        let events = vec![ev(
            10,
            TraceEvent::PolicySwitch { from: 0, to: 2, reason: SwitchReason::Resample },
        )];
        let errors = cross_check(&records, &events);
        assert_eq!(errors.len(), 1, "{errors:?}");
    }

    #[test]
    fn timeline_renders_the_issue_example_shape() {
        let record = DecisionRecord {
            seq: 3,
            at: Duration::from_millis(12),
            kind: DecisionKind::Switch { from: 0, to: 2, reason: SwitchReason::MeasuredBest },
            evidence: Evidence {
                policies: vec![
                    PolicyEvidence {
                        policy: 0,
                        overhead: Some(0.1983),
                        confidence: 0.95,
                        health: "healthy",
                    },
                    PolicyEvidence {
                        policy: 2,
                        overhead: Some(0.1234),
                        confidence: 0.99,
                        health: "healthy",
                    },
                ],
                detector: None,
                interval_overhead: Some(0.1234),
                interval: Duration::from_micros(500),
            },
        };
        let line = timeline_line(&record);
        assert!(line.contains("switched original\u{2192}aggressive (measured-best)"), "{line}");
        assert!(line.contains("0.1983"), "{line}");
        assert!(line.contains("0.1234"), "{line}");
        assert!(line.contains("conf 0.95"), "{line}");
    }
}
