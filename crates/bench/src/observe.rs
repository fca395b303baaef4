//! Observation oracle: every chaos cell runs once with all three
//! observation channels attached, and each channel is checked against an
//! independent account of the same run.
//!
//! Per selected scenario, every cell of the chaos matrix (scenario ×
//! [`ChaosMode`]) runs twice, each run one engine job: plain
//! ([`chaos::run_mode`], the harness side) and observed ([`run_observed`]:
//! a trace [`RingBuffer`], a decision [`JournalBuffer`] and a
//! [`MetricsRegistry`] on one run). The observed run feeds four oracles:
//!
//! * **trace** (dynamic cell): the adaptation timeline reconstructed
//!   purely from trace events (switch count, settled policy, adaptation
//!   latency), plus elapsed time and regret, must match the harness's
//!   numbers, which [`chaos::analyze_adaptation`] reads from section
//!   records;
//! * **profile** (every cell): the registry's per-lock sums must equal the
//!   machine-wide [`ProcStats`] aggregates exactly ([`oracle_rows`]);
//! * **journal** (dynamic and event-driven cells): every decision record
//!   must line up with the trace event written from the same decision,
//!   record for record ([`cross_check`]);
//! * **no perturbation** (every cell): the observed outcome and adaptation
//!   must equal the plain run's.
//!
//! Neither buffer may drop anything. The two sides of each comparison share
//! no accumulation code, so agreement is an end-to-end check. The report
//! has three sections, trace, profile (with a ranked per-lock attribution
//! table per scenario) and explain (a causal timeline per adaptive cell).
//! Everything is virtual-time stamped: the text and the exported Chrome
//! trace JSON, profile JSON/Prometheus and journal NDJSON are
//! byte-identical for every engine worker count.
//!
//! [`barnes_hut_profile`] additionally profiles the compiled Barnes-Hut
//! application, mapping lock ids back through the compiler's region
//! metadata ([`CompiledApp::lock_region_labels`]) to named source regions.

use crate::chaos::{
    self, Adaptation, ChaosApp, ChaosConfig, ChaosJobResult, ChaosMode, Scenario, ScenarioOutcome,
    SLOTS, VERSIONS,
};
use crate::engine::{Engine, Filter, Job};
use crate::report::{micros, Table};
use dynfb_apps::{barnes_hut, BarnesHutConfig};
use dynfb_compiler::CompiledApp;
use dynfb_core::journal::{decision_ndjson, DecisionKind, DecisionRecord, JournalBuffer};
use dynfb_core::metrics::{
    lock_rows_json, profile_json, prometheus_text, LockMetrics, Log2Histogram, MetricsRegistry,
};
use dynfb_core::observer::Observer;
use dynfb_core::trace::{chrome_trace_json, RingBuffer, TraceEvent, TracedEvent};
use dynfb_sim::{run_app_flight_recorded, ProcStats, RunConfig, SimApp};
use std::fmt::Write as _;
use std::time::Duration;

/// One chaos cell run under the full flight recorder.
#[derive(Debug, Clone)]
pub struct ObservedCell {
    /// The cell's mode.
    pub mode: ChaosMode,
    /// The harness-side measurements of the observed run (the sinks must
    /// not perturb the simulation, so these equal the plain run's).
    pub result: ChaosJobResult,
    /// Every trace event the run emitted, in order.
    pub events: Vec<TracedEvent>,
    /// Events the trace ring had to drop (must be zero for the oracles).
    pub trace_dropped: u64,
    /// Every decision record the run journaled, in order.
    pub records: Vec<DecisionRecord>,
    /// Records the journal had to drop (must be zero for the oracles).
    pub journal_dropped: u64,
    /// The per-lock profile the run accumulated.
    pub registry: MetricsRegistry,
    /// Machine-wide stats aggregates of the same run.
    pub totals: ProcStats,
}

/// Run one (scenario, mode) chaos cell with trace, journal and metrics
/// attached.
///
/// Uses the exact [`RunConfig`] the chaos harness builds via
/// [`chaos::mode_run_config`], so the observed run simulates the same
/// virtual execution byte for byte.
///
/// # Panics
///
/// Panics if the simulation fails (the harness only builds valid configs).
#[must_use]
pub fn run_observed(cfg: &ChaosConfig, scenario: &Scenario, mode: ChaosMode) -> ObservedCell {
    let run = chaos::mode_run_config(cfg, scenario, mode);
    let mut ring = RingBuffer::new(1 << 16);
    let mut journal = JournalBuffer::new(1 << 16);
    let mut registry = MetricsRegistry::new();
    let report = run_app_flight_recorded(
        ChaosApp::new(cfg.iters),
        &run,
        &mut ring,
        &mut journal,
        &mut registry,
    )
    .expect("observed chaos run");
    ObservedCell {
        mode,
        result: chaos::job_result(scenario, mode, &report),
        trace_dropped: ring.dropped(),
        events: ring.into_vec(),
        journal_dropped: journal.dropped(),
        records: journal.into_vec(),
        registry,
        totals: report.stats.totals(),
    }
}

/// Reconstruct the dynamic run's [`Adaptation`] purely from trace events —
/// the independent half of the trace oracle. Mirrors
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

/// The profile oracle's comparisons for one run: `(quantity, per-lock
/// sum, machine aggregate)` triples. All must be exactly equal in virtual
/// time.
#[must_use]
pub fn oracle_rows(
    registry: &MetricsRegistry,
    totals: &ProcStats,
) -> Vec<(&'static str, u128, u128)> {
    let sums = registry.totals();
    vec![
        ("acquires", u128::from(sums.acquires), u128::from(totals.acquires)),
        ("failed attempts", u128::from(sums.failed_attempts), u128::from(totals.failed_attempts)),
        ("locking (ns)", sums.locking.as_nanos(), totals.lock_time.as_nanos()),
        ("waiting (ns)", sums.waiting.as_nanos(), totals.wait_time.as_nanos()),
        // Both the chaos workload and Barnes-Hut release every lock they
        // take; machine stats have no release counter, so acquires is the
        // reference.
        ("releases", u128::from(sums.releases), u128::from(totals.acquires)),
    ]
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

/// Cross-check the journal against the trace, record for record: every
/// [`DecisionKind::Switch`] must line up with a
/// [`TraceEvent::PolicySwitch`] carrying the same timestamp, policies and
/// reason; every [`DecisionKind::Alarm`] with a `ChangePointAlarm` whose
/// chart numbers equal the record's evidence snapshot; every
/// [`DecisionKind::Health`] with a `PolicyHealth` transition. Returns
/// human-readable mismatch descriptions; empty means agreement.
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

/// One scenario's rendered sections, oracle verdicts and exports.
#[derive(Debug, Clone)]
pub struct ScenarioCheck {
    /// The trace section: harness-vs-trace table of the dynamic cell, plus
    /// a line per observed cell whose outcome differs from its plain run.
    pub trace: String,
    /// Whether the trace oracle and the no-perturbation check held.
    pub trace_ok: bool,
    /// The profile section: the per-lock oracle and attribution tables.
    pub profile: String,
    /// Whether every cell's per-lock sums matched the machine aggregates.
    pub profile_ok: bool,
    /// The explain section: one causal timeline per adaptive cell.
    pub explain: String,
    /// Whether every adaptive cell's journal agreed with its trace.
    pub explain_ok: bool,
    /// `(path under target/, contents)` exports of this scenario.
    pub exports: Vec<(String, String)>,
}

/// Run every oracle over one scenario's cells: `plain` and `observed` hold
/// one entry per mode, in [`ChaosMode::all`] order.
///
/// # Panics
///
/// Panics if either slice lacks a mode.
#[must_use]
pub fn check_scenario(
    cfg: &ChaosConfig,
    scenario: &Scenario,
    plain: Vec<ChaosJobResult>,
    observed: &[ObservedCell],
) -> ScenarioCheck {
    let cell = |mode| observed.iter().find(|c| c.mode == mode).expect("every mode observed");
    let perturbed: Vec<ChaosMode> =
        observed.iter().zip(&plain).filter(|(c, p)| c.result != **p).map(|(c, _)| c.mode).collect();
    let harness = chaos::assemble(scenario, plain);
    let (mut trace, mut trace_ok) = trace_table(cfg, &harness, cell(ChaosMode::Dynamic));
    for mode in perturbed {
        trace_ok = false;
        let _ = writeln!(
            trace,
            "MISMATCH under `{}`: observed `{}` run differs from its plain run",
            scenario.name,
            mode.name()
        );
    }
    trace.push('\n');

    let (mut profile, profile_ok) = profile_table(cfg, scenario, observed);
    profile.push('\n');
    profile.push_str(&attribution_table(cfg, scenario, observed));
    profile.push('\n');

    let mut explain = String::new();
    let mut explain_ok = true;
    let mut exports = vec![
        (
            format!("trace/{}.json", scenario.name),
            chrome_trace_json(
                &format!("chaos/{}", scenario.name),
                &cell(ChaosMode::Dynamic).events,
            ),
        ),
        (format!("profile/{}.json", scenario.name), scenario_json(scenario, observed)),
        (
            format!("profile/{}.prom", scenario.name),
            prometheus_text(&cell(ChaosMode::EventDriven).registry, slot_label),
        ),
    ];
    for mode in [ChaosMode::Dynamic, ChaosMode::EventDriven] {
        let cell = cell(mode);
        let (text, ok) = explain_cell(scenario, cell);
        explain_ok &= ok;
        explain.push_str(&text);
        exports.push((
            format!("explain/{}-{}.ndjson", scenario.name, mode.name()),
            decision_ndjson(&cell.records),
        ));
    }
    ScenarioCheck { trace, trace_ok, profile, profile_ok, explain, explain_ok, exports }
}

fn latency_cell(latency: Option<Duration>) -> String {
    latency.map_or_else(|| "-".to_string(), micros)
}

/// Render one scenario's harness-vs-trace comparison and report agreement.
fn trace_table(
    cfg: &ChaosConfig,
    harness: &ScenarioOutcome,
    traced: &ObservedCell,
) -> (String, bool) {
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
    let mut ok = traced.trace_dropped == 0;
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
    t.note(format!(
        "{} trace events captured, {} dropped",
        traced.events.len(),
        traced.trace_dropped
    ));
    t.note(if ok {
        "trace timeline agrees with the chaos harness".to_string()
    } else {
        format!("MISMATCH under `{}`: trace and harness disagree", harness.scenario.name)
    });
    (t.to_console(), ok)
}

/// Region label of machine lock `id` in the chaos workload: the shared
/// slots are `slot0..slot3`, anything else (there is nothing else today)
/// falls back to `lock{id}`.
#[must_use]
pub fn slot_label(id: usize) -> String {
    if id < SLOTS {
        format!("slot{id}")
    } else {
        format!("lock{id}")
    }
}

/// Render a histogram's p50/p95/p99 estimates as one table cell, `-` when
/// the histogram recorded nothing.
fn quantile_cell(h: &Log2Histogram) -> String {
    match h.summary_quantiles() {
        Some((p50, p95, p99)) => format!("{p50}/{p95}/{p99}"),
        None => "-".to_string(),
    }
}

/// Render one scenario's profile oracle table: per mode, per quantity, the
/// registry's per-lock sum against the machine aggregate.
fn profile_table(cfg: &ChaosConfig, scenario: &Scenario, cells: &[ObservedCell]) -> (String, bool) {
    let mut ok = true;
    let mut t = Table::new(
        &format!(
            "Profile oracle `{}` ({} iterations, {} procs)",
            scenario.name, cfg.iters, cfg.procs
        ),
        &["mode", "quantity", "per-lock sum", "machine", "agree"],
    );
    for cell in cells {
        for (name, sum, machine) in oracle_rows(&cell.registry, &cell.totals) {
            let agree = sum == machine;
            ok &= agree;
            t.row(vec![
                cell.mode.name().to_string(),
                name.to_string(),
                sum.to_string(),
                machine.to_string(),
                if agree { "yes" } else { "NO" }.to_string(),
            ]);
        }
    }
    t.note(if ok {
        "per-lock sums equal machine aggregates exactly in every mode".to_string()
    } else {
        format!("MISMATCH under `{}`: attribution lost lock events", scenario.name)
    });
    (t.to_console(), ok)
}

/// Render one scenario's ranked attribution table: every (mode, lock) row
/// with recorded activity, ranked by overhead (locking + waiting), the
/// per-region breakdown the metrics channel exists to produce.
fn attribution_table(cfg: &ChaosConfig, scenario: &Scenario, cells: &[ObservedCell]) -> String {
    struct Row {
        mode_idx: usize,
        mode: &'static str,
        lock: usize,
        m: LockMetrics,
        share: f64,
    }
    let mut rows: Vec<Row> = Vec::new();
    for (mode_idx, cell) in cells.iter().enumerate() {
        let mode_overhead = cell.registry.totals().overhead();
        for (lock, m) in cell.registry.locks().iter().enumerate() {
            if m.is_empty() {
                continue;
            }
            let share = if mode_overhead.is_zero() {
                0.0
            } else {
                m.overhead().as_nanos() as f64 / mode_overhead.as_nanos() as f64
            };
            rows.push(Row { mode_idx, mode: cell.mode.name(), lock, m: *m, share });
        }
    }
    // Rank by overhead, worst first; ties resolve in (mode, lock) order so
    // the table is deterministic.
    rows.sort_by(|a, b| {
        b.m.overhead()
            .cmp(&a.m.overhead())
            .then(a.mode_idx.cmp(&b.mode_idx))
            .then(a.lock.cmp(&b.lock))
    });
    let mut t = Table::new(
        &format!("Overhead attribution `{}` (ranked by locking + waiting)", scenario.name),
        &[
            "rank",
            "mode",
            "region",
            "acquires",
            "contended",
            "failed",
            "locking (us)",
            "waiting (us)",
            "held (us)",
            "overhead (us)",
            "wait p50/p95/p99 (ns)",
            "share",
        ],
    );
    for (rank, r) in rows.iter().enumerate() {
        t.row(vec![
            (rank + 1).to_string(),
            r.mode.to_string(),
            slot_label(r.lock),
            r.m.acquires.to_string(),
            r.m.contended_acquires.to_string(),
            r.m.failed_attempts.to_string(),
            micros(r.m.locking),
            micros(r.m.waiting),
            micros(r.m.held),
            micros(r.m.overhead()),
            quantile_cell(&r.m.wait_hist),
            format!("{:.1}%", r.share * 100.0),
        ]);
    }
    if let Some(worst) = rows.first() {
        t.note(format!(
            "worst region: {} under {} at {} us overhead ({} procs)",
            slot_label(worst.lock),
            worst.mode,
            micros(worst.m.overhead()),
            cfg.procs,
        ));
    }
    t.to_console()
}

/// One scenario's profile JSON export: every mode's non-empty lock rows.
fn scenario_json(scenario: &Scenario, cells: &[ObservedCell]) -> String {
    let modes: Vec<String> = cells
        .iter()
        .map(|cell| {
            format!(
                "{{\"mode\":\"{}\",\"locks\":{}}}",
                cell.mode.name(),
                lock_rows_json(&cell.registry, slot_label)
            )
        })
        .collect();
    format!("{{\"scenario\":\"{}\",\"modes\":[{}]}}\n", scenario.name, modes.join(","))
}

/// Render one adaptive cell's causal timeline and check its journal
/// against its trace.
fn explain_cell(scenario: &Scenario, cell: &ObservedCell) -> (String, bool) {
    let errors = cross_check(&cell.records, &cell.events);
    let dropped = cell.journal_dropped > 0 || cell.trace_dropped > 0;
    let ok = errors.is_empty() && !dropped;
    let mut text = format!(
        "== {} / {} \u{2014} {} decisions, {} trace events{} ==\n",
        scenario.name,
        cell.mode.name(),
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
    (text, ok)
}

fn version_name(p: usize) -> &'static str {
    VERSIONS.get(p).copied().unwrap_or("?")
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
    let at = micros(rec.at) + "us";
    let mut line = format!("[{at:>12}] ");
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
                    "interval measured overhead {o:.4} over {}us; ",
                    micros(rec.evidence.interval)
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

/// Everything the observation oracle produces in one sweep.
#[derive(Debug, Clone)]
pub struct ObserveReport {
    /// The trace section (deterministic text).
    pub trace: String,
    /// The profile section (deterministic text).
    pub profile: String,
    /// The explain section (deterministic text).
    pub explain: String,
    /// Whether every oracle held on every cell.
    pub consistent: bool,
    /// `(path under target/, contents)` exports: per scenario one Chrome
    /// trace `trace/{name}.json` of the dynamic cell, one
    /// `profile/{name}.json` (all modes) and one `profile/{name}.prom` (the
    /// event-driven cell in Prometheus text exposition format), and per
    /// adaptive cell one journal `explain/{name}-{mode}.ndjson`.
    pub exports: Vec<(String, String)>,
}

/// One engine job's result: a plain chaos cell or its observed run.
enum Cell {
    Plain(ChaosJobResult),
    Observed(Box<ObservedCell>),
}

/// Run the (optionally filtered) observation oracle on `engine`.
///
/// Per scenario this schedules every mode's plain run and observed run,
/// each as one engine job, then runs [`check_scenario`]. Results are
/// reassembled in submission order, so the report is byte-identical for
/// every worker count.
///
/// # Panics
///
/// Panics if a simulation fails.
#[must_use]
pub fn observe_report_with(
    cfg: &ChaosConfig,
    engine: &Engine,
    filter: Option<&Filter>,
) -> ObserveReport {
    let selected = chaos::selected_scenarios(cfg, filter);
    let modes = ChaosMode::all();
    let tasks: Vec<Job<'_, Cell>> = selected
        .iter()
        .flat_map(|scenario| {
            modes.iter().flat_map(move |&mode| -> [Job<'_, Cell>; 2] {
                [
                    Box::new(move || Cell::Plain(chaos::run_mode(cfg, scenario, mode))),
                    Box::new(move || Cell::Observed(Box::new(run_observed(cfg, scenario, mode)))),
                ]
            })
        })
        .collect();
    let mut results = engine.run(tasks).into_iter().map(|t| t.value);

    let n = selected.len();
    let mut trace = format!(
        "trace oracle: {n} scenarios x {} modes, every cell run once under the trace, journal \
         and metrics sinks together (seed {})\n\n",
        modes.len(),
        cfg.seed
    );
    let mut profile = format!(
        "profile oracle: {n} scenarios x {} modes under the metrics registry (seed {})\n\n",
        modes.len(),
        cfg.seed
    );
    let mut explain = format!(
        "explain: {n} scenarios x 2 adaptive modes, journal cross-checked against the trace \
         oracle (seed {})\n\n",
        cfg.seed
    );
    let (mut trace_ok, mut profile_ok, mut explain_ok) = (true, true, true);
    let mut exports = Vec::new();
    for scenario in &selected {
        let (mut plain, mut observed) = (Vec::new(), Vec::new());
        for cell in results.by_ref().take(2 * modes.len()) {
            match cell {
                Cell::Plain(r) => plain.push(r),
                Cell::Observed(c) => observed.push(*c),
            }
        }
        let check = check_scenario(cfg, scenario, plain, &observed);
        trace_ok &= check.trace_ok;
        profile_ok &= check.profile_ok;
        explain_ok &= check.explain_ok;
        trace.push_str(&check.trace);
        profile.push_str(&check.profile);
        explain.push_str(&check.explain);
        exports.extend(check.exports);
    }
    let verdict =
        |ok: bool, agreed: &str| format!("consistency: {}\n", if ok { agreed } else { "MISMATCH" });
    trace.push_str(&verdict(trace_ok, "trace agrees with the chaos harness on every scenario"));
    profile.push_str(&verdict(
        profile_ok,
        "per-lock profiles sum to the machine aggregates on every scenario",
    ));
    explain.push_str(&verdict(explain_ok, "journal agrees with the trace oracle on every cell"));
    ObserveReport {
        trace,
        profile,
        explain,
        consistent: trace_ok && profile_ok && explain_ok,
        exports,
    }
}

/// A profiled compiled-application run with region-labelled exports.
#[derive(Debug, Clone)]
pub struct CompiledProfile {
    /// Prometheus text exposition of the per-lock profile.
    pub prom: String,
    /// JSON document of the per-lock profile.
    pub json: String,
    /// Whether every [`oracle_rows`] comparison held on this run.
    pub consistent: bool,
}

/// Profile a fixed-seed Barnes-Hut run under a static `policy`, labelling
/// each lock with the source-level critical regions the compiler carried
/// through its `lockplace`/`syncopt` metadata (e.g.
/// `body:one_interaction#0+one_interaction#1` under merged policies).
///
/// Deterministic: identical arguments produce byte-identical exports.
///
/// # Panics
///
/// Panics if the simulation fails or `policy` is unknown.
#[must_use]
pub fn barnes_hut_profile(bodies: usize, procs: usize, policy: &str) -> CompiledProfile {
    let mut app = barnes_hut(&BarnesHutConfig { bodies, steps: 1, ..BarnesHutConfig::default() });
    let mut registry = MetricsRegistry::new();
    let report = run_app_flight_recorded(
        &mut app,
        &RunConfig::fixed(procs, policy),
        &mut (),
        &mut (),
        &mut registry,
    )
    .expect("barnes-hut profile run");
    let consistent = oracle_rows(&registry, &report.stats.totals()).iter().all(|(_, a, b)| a == b);
    let label = region_label_fn(&app, "forces", policy);
    CompiledProfile {
        prom: prometheus_text(&registry, &label),
        json: profile_json(&registry, &label),
        consistent,
    }
}

/// Lock-id → region-label function for a compiled app after a run: maps a
/// machine lock id through the app's lock pool to
/// [`CompiledApp::lock_region_labels`], falling back to `lock{id}` for ids
/// outside the pool (or past the live heap).
fn region_label_fn<'a>(
    app: &'a CompiledApp,
    section: &str,
    policy: &str,
) -> impl Fn(usize) -> String + 'a {
    let base = app.lock_pool_base().expect("setup ran");
    let version = app.version_for_policy(section, policy).expect("policy exists");
    let labels = app.lock_region_labels(section, version);
    move |id: usize| {
        id.checked_sub(base)
            .and_then(|obj| labels.get(obj))
            .cloned()
            .unwrap_or_else(|| format!("lock{id}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynfb_core::journal::{Evidence, PolicyEvidence};
    use dynfb_core::trace::SwitchReason;

    fn ev(at_us: u64, event: TraceEvent) -> TracedEvent {
        TracedEvent { at: Duration::from_micros(at_us), event }
    }

    fn prod(at_us: u64, policy: usize) -> TracedEvent {
        let actual = Duration::from_micros(1);
        ev(at_us, TraceEvent::ProductionEnd { policy, overhead: 0.0, actual, partial: false })
    }

    fn rec(at_us: u64, kind: DecisionKind) -> DecisionRecord {
        DecisionRecord {
            seq: 0,
            at: Duration::from_micros(at_us),
            kind,
            evidence: Evidence::default(),
        }
    }

    #[test]
    fn adaptation_from_trace_reads_the_production_timeline() {
        // Two intervals on policy 0 before onset (t = 2.5 ms), then the run
        // settles on policy 2: one switch, latency measured to the *end* of
        // the first post-onset interval on a different policy.
        let events = vec![
            ev(0, TraceEvent::RunStart { policies: 3, workers: 4 }),
            prod(1_000, 0),
            prod(2_000, 0),
            prod(3_000, 2),
            prod(5_000, 2),
            ev(5_000, TraceEvent::RunEnd),
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

    #[test]
    fn slot_labels_name_the_shared_slots() {
        assert_eq!(slot_label(0), "slot0");
        assert_eq!(slot_label(SLOTS - 1), format!("slot{}", SLOTS - 1));
        assert_eq!(slot_label(SLOTS), format!("lock{SLOTS}"));
    }

    #[test]
    fn attribution_covers_every_slot() {
        let cfg = ChaosConfig { seed: 7, iters: 300, procs: 4 };
        let scenario = &chaos::scenarios(&cfg)[0];
        let cell = run_observed(&cfg, scenario, ChaosMode::Static(0));
        // Iterations land on every slot round-robin, so all four slots
        // must carry activity — and nothing outside them.
        let locks = cell.registry.locks();
        assert_eq!(locks.len(), SLOTS);
        assert!(locks.iter().all(|m| m.acquires > 0));
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
        assert!(line.starts_with("[     12000us] "), "{line}");
        assert!(line.contains("switched original\u{2192}aggressive (measured-best)"), "{line}");
        assert!(line.contains("over 500us; "), "{line}");
        assert!(line.contains("0.1983"), "{line}");
        assert!(line.contains("0.1234"), "{line}");
        assert!(line.contains("conf 0.95"), "{line}");
    }
}
