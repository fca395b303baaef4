//! Trace oracle: end-to-end consistency check between the chaos harness
//! and the trace layer.
//!
//! For every chaos scenario this module replays the *dynamic* cell of the
//! chaos matrix with a [`RingBuffer`] trace sink attached, reconstructs
//! the adaptation timeline purely from the emitted trace events, and
//! cross-checks it against the numbers the chaos harness computes from
//! section records:
//!
//! * elapsed time (and therefore regret vs the per-scenario oracle),
//! * production-policy switch count,
//! * the policy the run settled on, and
//! * adaptation latency after fault onset.
//!
//! The two computations share no code path — the harness reads
//! [`SampleRecord`](dynfb_sim::SampleRecord)s out of the report, the
//! oracle reads [`TraceEvent`]s out of the sink — so agreement is a real
//! end-to-end check that the trace tells the same story as the run.
//! Everything is virtual-time stamped, so the report and the exported
//! Chrome-trace JSON are byte-identical for every engine worker count.

use crate::chaos::{
    self, Adaptation, ChaosApp, ChaosConfig, ChaosJobResult, ChaosMode, Scenario, ScenarioOutcome,
    VERSIONS,
};
use crate::engine::{Engine, Filter, Job};
use crate::report::Table;
use dynfb_core::journal::NullJournal;
use dynfb_core::metrics::NoMetrics;
use dynfb_core::trace::{chrome_trace_json, RingBuffer, TraceEvent, TracedEvent};
use dynfb_sim::run_app_flight_recorded;
use std::fmt::Write as _;
use std::time::Duration;

/// A dynamic-mode chaos run plus the trace it emitted.
#[derive(Debug, Clone)]
pub struct TracedDynamic {
    /// The harness-side measurements of the traced run (identical to the
    /// untraced dynamic cell — the sink must not perturb the simulation).
    pub result: ChaosJobResult,
    /// Every trace event the run emitted, in order.
    pub events: Vec<TracedEvent>,
    /// Events the ring buffer had to drop (must be zero for the oracle).
    pub dropped: u64,
}

/// Replay the dynamic cell of `scenario` with a ring-buffer trace sink.
///
/// Uses the exact [`RunConfig`](dynfb_sim::RunConfig) the chaos harness
/// builds via [`chaos::mode_run_config`], so the traced run simulates the
/// same virtual execution byte for byte.
///
/// # Panics
///
/// Panics if the simulation fails (the harness only builds valid configs).
#[must_use]
pub fn run_dynamic_traced(cfg: &ChaosConfig, scenario: &Scenario) -> TracedDynamic {
    let run = chaos::mode_run_config(cfg, scenario, ChaosMode::Dynamic);
    let mut ring = RingBuffer::new(1 << 16);
    let report = run_app_flight_recorded(
        ChaosApp::new(cfg.iters),
        &run,
        &mut ring,
        &mut NullJournal,
        &mut NoMetrics,
    )
    .expect("traced chaos run");
    let result = ChaosJobResult {
        outcome: chaos::mode_outcome(ChaosMode::Dynamic.name(), &report),
        adaptation: Some(chaos::analyze_adaptation(&report, scenario.onset)),
    };
    TracedDynamic { result, dropped: ring.dropped(), events: ring.into_events() }
}

/// Reconstruct the dynamic run's [`Adaptation`] purely from trace events —
/// the independent half of the consistency oracle. Mirrors
/// [`chaos::analyze_adaptation`] but reads [`TraceEvent::ProductionEnd`]
/// events instead of the report's section records.
#[must_use]
pub fn adaptation_from_trace(events: &[TracedEvent], onset: Duration) -> Adaptation {
    let production: Vec<(Duration, usize)> = events
        .iter()
        .filter_map(|e| match e.event {
            TraceEvent::ProductionEnd { policy, .. } => Some((e.at, policy)),
            _ => None,
        })
        .collect();
    let switches = production.windows(2).filter(|w| w[0].1 != w[1].1).count();
    let settled =
        production.last().map_or_else(|| "(none)".to_string(), |&(_, v)| VERSIONS[v].to_string());
    let before = production
        .iter()
        .take_while(|&&(at, _)| at < onset)
        .last()
        .or(production.first())
        .map(|&(_, v)| v);
    let latency = before.and_then(|v0| {
        production
            .iter()
            .find(|&&(at, v)| at >= onset && v != v0)
            .map(|&(at, _)| at.saturating_sub(onset))
    });
    Adaptation { switches, settled, latency }
}

/// Everything the trace oracle produces in one sweep.
#[derive(Debug, Clone)]
pub struct TraceReport {
    /// Rendered per-scenario comparison tables (deterministic text).
    pub text: String,
    /// Whether every scenario's trace agreed with the chaos harness.
    pub consistent: bool,
    /// Per-scenario `(name, json)` Chrome-trace exports for Perfetto.
    pub traces: Vec<(String, String)>,
}

/// One unit of engine work: an ordinary chaos cell or the traced replay.
enum Cell {
    Plain(ChaosJobResult),
    Traced(Box<TracedDynamic>),
}

fn micros(d: Duration) -> String {
    format!("{}", d.as_micros())
}

fn latency_cell(latency: Option<Duration>) -> String {
    latency.map_or_else(|| "-".to_string(), micros)
}

/// Render one scenario's harness-vs-trace comparison and report agreement.
fn compare(cfg: &ChaosConfig, harness: &ScenarioOutcome, traced: &TracedDynamic) -> (String, bool) {
    let reconstructed = adaptation_from_trace(&traced.events, harness.scenario.onset);
    let h = &harness.adaptation;
    let rows = [
        (
            "dynamic elapsed (us)",
            micros(harness.dynamic.elapsed),
            micros(traced.result.outcome.elapsed),
        ),
        (
            "regret vs oracle (us)",
            format!("{:+}", harness.regret_micros(&harness.dynamic)),
            format!("{:+}", harness.regret_micros(&traced.result.outcome)),
        ),
        ("production switches", h.switches.to_string(), reconstructed.switches.to_string()),
        ("settled policy", h.settled.clone(), reconstructed.settled.clone()),
        ("adaptation latency (us)", latency_cell(h.latency), latency_cell(reconstructed.latency)),
    ];
    // The traced replay must also match the untraced harness run outright
    // (the sink must not perturb the simulation), and the ring buffer must
    // have held the whole trace.
    let mut ok = traced.dropped == 0
        && traced.result.outcome == harness.dynamic
        && traced.result.adaptation.as_ref() == Some(h);
    let mut t = Table::new(
        &format!(
            "Trace oracle `{}` ({} iterations, {} procs)",
            harness.scenario.name, cfg.iters, cfg.procs
        ),
        &["quantity", "harness", "trace", "agree"],
    );
    for (name, a, b) in rows {
        let agree = a == b;
        ok &= agree;
        t.row(vec![name.to_string(), a, b, if agree { "yes" } else { "NO" }.to_string()]);
    }
    t.note(format!("{} trace events captured, {} dropped", traced.events.len(), traced.dropped));
    t.note(if ok {
        "trace timeline agrees with the chaos harness".to_string()
    } else {
        format!("MISMATCH under `{}`: trace and harness disagree", harness.scenario.name)
    });
    (t.to_console(), ok)
}

/// Run the trace oracle over every chaos scenario, serially.
#[must_use]
pub fn trace_report(cfg: &ChaosConfig) -> TraceReport {
    trace_report_with(cfg, &Engine::new(1), None)
}

/// Run the (optionally filtered) trace oracle on `engine`.
///
/// Per scenario this schedules the full chaos-mode row (the harness side)
/// plus one traced dynamic replay — each as one engine job — then compares
/// the trace reconstruction against the harness numbers. Results are
/// reassembled in submission order, so `text` and `traces` are
/// byte-identical for every worker count.
///
/// # Panics
///
/// Panics if a simulation fails.
#[must_use]
pub fn trace_report_with(
    cfg: &ChaosConfig,
    engine: &Engine,
    filter: Option<&Filter>,
) -> TraceReport {
    let selected: Vec<Scenario> = chaos::scenarios(cfg)
        .into_iter()
        .filter(|s| filter.is_none_or(|f| f.matches(s.name)))
        .collect();
    let modes = ChaosMode::all();
    let tasks: Vec<Job<'_, Cell>> = selected
        .iter()
        .flat_map(|scenario| {
            let harness_row = modes.iter().map(move |&mode| {
                let task: Job<'_, Cell> =
                    Box::new(move || Cell::Plain(chaos::run_mode(cfg, scenario, mode)));
                task
            });
            let traced_replay = std::iter::once({
                let task: Job<'_, Cell> =
                    Box::new(move || Cell::Traced(Box::new(run_dynamic_traced(cfg, scenario))));
                task
            });
            harness_row.chain(traced_replay)
        })
        .collect();
    let mut results = engine.run(tasks).into_iter().map(|t| t.value);

    let mut text = String::new();
    let _ = writeln!(
        text,
        "trace oracle: {} scenarios, dynamic cell replayed under a trace sink (seed {})\n",
        selected.len(),
        cfg.seed
    );
    let mut consistent = true;
    let mut traces = Vec::new();
    for scenario in &selected {
        let mut cells: Vec<Cell> = results.by_ref().take(modes.len() + 1).collect();
        let traced = match cells.pop() {
            Some(Cell::Traced(t)) => *t,
            _ => unreachable!("traced replay is scheduled last in every scenario"),
        };
        let plain: Vec<ChaosJobResult> = cells
            .into_iter()
            .map(|c| match c {
                Cell::Plain(r) => r,
                Cell::Traced(_) => unreachable!("harness row precedes the traced replay"),
            })
            .collect();
        let harness = chaos::assemble(scenario, plain);
        let (table, ok) = compare(cfg, &harness, &traced);
        consistent &= ok;
        text.push_str(&table);
        text.push('\n');
        traces.push((
            scenario.name.to_string(),
            chrome_trace_json(&format!("chaos/{}", scenario.name), &traced.events),
        ));
    }
    let _ = writeln!(
        text,
        "consistency: {}",
        if consistent {
            "trace agrees with the chaos harness on every scenario"
        } else {
            "MISMATCH"
        }
    );
    TraceReport { text, consistent, traces }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prod(at_us: u64, policy: usize) -> TracedEvent {
        TracedEvent {
            at: Duration::from_micros(at_us),
            event: TraceEvent::ProductionEnd {
                policy,
                overhead: 0.0,
                actual: Duration::from_micros(1),
                partial: false,
            },
        }
    }

    #[test]
    fn adaptation_from_trace_reads_the_production_timeline() {
        // Two intervals on policy 0 before onset (t = 2.5 ms), then the run
        // settles on policy 2: one switch, latency measured to the *end* of
        // the first post-onset interval on a different policy.
        let events = vec![
            TracedEvent {
                at: Duration::ZERO,
                event: TraceEvent::RunStart { policies: 3, workers: 4 },
            },
            prod(1_000, 0),
            prod(2_000, 0),
            prod(3_000, 2),
            prod(5_000, 2),
            TracedEvent { at: Duration::from_micros(5_000), event: TraceEvent::RunEnd },
        ];
        let a = adaptation_from_trace(&events, Duration::from_micros(2_500));
        assert_eq!(a.switches, 1);
        assert_eq!(a.settled, "aggressive");
        assert_eq!(a.latency, Some(Duration::from_micros(500)));
    }

    #[test]
    fn adaptation_from_trace_handles_empty_and_unswitched_runs() {
        let none = adaptation_from_trace(&[], Duration::ZERO);
        assert_eq!(none, Adaptation { switches: 0, settled: "(none)".to_string(), latency: None });

        // A run that never leaves policy 1 has no latency to report.
        let steady = vec![prod(1_000, 1), prod(2_000, 1)];
        let a = adaptation_from_trace(&steady, Duration::from_micros(1_500));
        assert_eq!(a.switches, 0);
        assert_eq!(a.settled, "bounded");
        assert_eq!(a.latency, None);
    }
}
