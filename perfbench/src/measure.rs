//! The measurement loop: set-up rounds, timed passes, output checks, the
//! determinism self-check, and the metrics they yield.
//!
//! An untraced run (`trace == false`) gives the end-to-end metrics. A
//! traced run alternates untraced and traced passes, so it can report the
//! tracing overhead, and adds the layer measurements that need extra runs
//! (step-stream replay, observers on versus off).
//!
//! Host time on a shared machine only ever gains from other tenants' load,
//! and that load comes in bursts of about a second. So a pass's time is
//! taken as the sum over its jobs of each job's fastest run across the
//! passes, and a layer's time as its fastest traced pass; the median pass
//! and the other pass times are printed as notes. Set-up rounds are spread
//! over the whole run, and set-up time is taken the same way: the sum over
//! the round's items of each item's fastest time across the rounds.

use crate::spans::Tracer;
use crate::workloads::{CtlReplay, PassResult, Plan, Refs, Workload};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Fewest timed passes an untraced run makes, whatever `--seconds` says.
const MIN_PASSES: usize = 3;
/// Fewest passes of each kind a traced run makes.
const MIN_TRACED_PASSES: usize = 2;
/// Flight-recorder on/off repetitions per adaptive job (best of).
const OBSERVER_REPS: usize = 2;
/// Least host time one `ctl.replay_us` sample repeats the replay for.
const CTL_REPLAY_MIN: Duration = Duration::from_millis(5);

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything one run produced.
#[derive(Debug, Default)]
pub struct RunOutcome {
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Informational lines: sample counts, workload-specific figures.
    pub notes: Vec<String>,
    /// Jobs attempted over all passes.
    pub attempted: u64,
    /// Jobs whose run failed or whose output differed from the reference.
    pub failures: Vec<String>,
    /// Determinism self-check violations.
    pub nondeterminism: Vec<String>,
    /// Deterministic counts of one pass (identical across passes).
    pub counts: BTreeMap<&'static str, u64>,
    /// `sim_dyn_over_best` of every pass (identical across passes).
    pub dyn_over_best: f64,
    /// Recorded spans as JSON lines (traced run only).
    pub spans: Option<String>,
}

/// Median of `xs` (mean of the middle two for an even count).
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile of `xs` (0 for an empty slice).
#[must_use]
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Minimum of `xs` (0 for an empty slice).
fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Set-up rounds timed before each untraced pass (the last one prepares
/// the pass): short passes need one, long passes several, so that every
/// set-up item's fastest time rests on a dozen or more rounds spread over
/// the run.
fn setup_rounds_per_pass(plan: &Plan) -> usize {
    match plan.workload {
        Workload::BhForces | Workload::WaterContended => 2,
        Workload::ChaosObserved => 4,
        Workload::CompileFamily => 1,
    }
}

/// Host times of each item (a job, or a set-up item) across passes or
/// rounds.
#[derive(Debug, Default)]
struct JobTimes(Vec<Vec<f64>>);

impl JobTimes {
    fn push(&mut self, items: &[Duration]) {
        self.0.resize(items.len(), Vec::new());
        for (times, t) in self.0.iter_mut().zip(items) {
            times.push(t.as_secs_f64());
        }
    }

    /// Passes recorded.
    fn passes(&self) -> usize {
        self.0.first().map_or(0, Vec::len)
    }

    /// Pass times: the sum over items, pass by pass.
    fn pass_times(&self) -> Vec<f64> {
        (0..self.passes()).map(|p| self.0.iter().map(|j| j[p]).sum()).collect()
    }

    /// The sum over items of each item's fastest time.
    fn best_pass(&self) -> f64 {
        self.0.iter().map(|j| min(j)).sum()
    }
}

/// Deterministic counts of one pass: simulated lock traffic, the controller
/// replay, observer volume and code size.
fn pass_counts(
    pass: &PassResult,
    ctl: &CtlReplay,
    app_size: (u64, u64),
) -> BTreeMap<&'static str, u64> {
    let mut c: BTreeMap<&'static str, u64> = BTreeMap::new();
    for out in &pass.sims {
        if let Ok(r) = &out.report {
            let t = r.stats.totals();
            *c.entry("sim.acquires").or_default() += t.acquires;
            *c.entry("sim.failed_attempts").or_default() += t.failed_attempts;
        }
        *c.entry("obs.trace_events").or_default() += out.obs.trace_events;
        *c.entry("obs.journal_records").or_default() += out.obs.journal_records;
        *c.entry("obs.dropped").or_default() += out.obs.dropped;
        *c.entry("detector.alarms").or_default() += out.obs.alarms;
    }
    c.insert("ctl.intervals", ctl.intervals);
    c.insert("ctl.switches", ctl.switches);
    let (versions, bytes) =
        pass.compiles.iter().fold(app_size, |(v, b), o| (v + o.versions, b + o.code_bytes));
    c.insert("compiler.versions", versions);
    c.insert("compiler.code_bytes", bytes);
    for k in [
        "sim.acquires",
        "sim.failed_attempts",
        "obs.trace_events",
        "obs.journal_records",
        "obs.dropped",
        "detector.alarms",
    ] {
        c.entry(k).or_default();
    }
    c
}

/// Run `plan` for `seconds` of timed passes and check every output
/// against `refs`.
pub fn run(plan: &Plan, refs: &Refs, seconds: f64, trace: bool) -> RunOutcome {
    let mut out = RunOutcome::default();
    let (versions, app_size) = plan.compiled_shape();
    let mut off = Tracer::off();
    let mut tracer = if trace { Tracer::on() } else { Tracer::off() };

    let mut setup = JobTimes::default();
    let mut untraced = JobTimes::default();
    let mut traced = JobTimes::default();
    let mut layers: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut ctl_replay: Vec<f64> = Vec::new();
    let mut production_frac = 0.0;
    let mut first: Option<(BTreeMap<&'static str, u64>, f64)> = None;
    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    for i in 0.. {
        let tracing = trace && i % 2 == 1;
        let done = if trace {
            traced.passes() >= MIN_TRACED_PASSES && untraced.passes() >= MIN_TRACED_PASSES
        } else {
            untraced.passes() >= MIN_PASSES
        };
        if done && started.elapsed() >= budget {
            break;
        }
        let t = if tracing { &mut tracer } else { &mut off };
        let mark = t.mark();
        let mut prepared = Vec::new();
        if tracing {
            if plan.setup_per_pass() {
                prepared = plan.setup(t).0;
            }
        } else {
            for _ in 0..setup_rounds_per_pass(plan) {
                let (round, items) = plan.setup(t);
                setup.push(&items);
                prepared = round;
            }
        }
        let pass = plan.pass(prepared, t);
        let inputs = plan.controller_inputs(&pass, &versions);
        let ctl = inputs.replay();
        if tracing {
            traced.push(&pass.jobs);
            for (name, d) in t.self_times(mark) {
                layers.entry(name).or_default().push(d.as_secs_f64());
            }
            if !inputs.jobs.is_empty() {
                let (mut reps, replay_started) = (0u32, Instant::now());
                t.span("ctl.replay", |_| {
                    while reps == 0 || replay_started.elapsed() < CTL_REPLAY_MIN {
                        std::hint::black_box(inputs.replay());
                        reps += 1;
                    }
                });
                ctl_replay.push(replay_started.elapsed().as_secs_f64() / f64::from(reps));
            }
            if !inputs.total.is_zero() {
                production_frac = inputs.production.as_secs_f64() / inputs.total.as_secs_f64();
            }
        } else {
            untraced.push(&pass.jobs);
        }

        out.attempted += (pass.sims.len() + pass.compiles.len()) as u64;
        out.failures.extend(plan.check(&pass, refs));
        let counts = pass_counts(&pass, &ctl, app_size);
        let ratio = plan.dyn_over_best(&pass);
        match &first {
            None => {
                // Later passes must repeat these counts, so the controller
                // replay is checked against the recording once.
                out.nondeterminism.extend(ctl.diverged);
                first = Some((counts, ratio));
            }
            Some((c, r)) => {
                if *c != counts || r.to_bits() != ratio.to_bits() {
                    out.nondeterminism.push(format!(
                        "pass {i} ({}): counts {counts:?} / sim_dyn_over_best {ratio} differ from the first pass's {c:?} / {r}",
                        if tracing { "traced" } else { "untraced" }
                    ));
                }
            }
        }
    }
    let (counts, ratio) = first.expect("at least one pass ran");
    out.counts = counts;
    out.dyn_over_best = ratio;

    // Compile rounds: the timed rounds of compile-family, the set-up
    // rounds (which compile the workload's apps) elsewhere.
    let rounds: Vec<f64> = match plan.workload {
        Workload::CompileFamily => untraced.pass_times(),
        Workload::BhForces | Workload::WaterContended => setup.pass_times(),
        Workload::ChaosObserved => Vec::new(),
    };
    let rounds_ms: Vec<f64> = rounds.iter().map(|s| s * 1e3).collect();
    let beyond_p90 = rounds_ms.len() - (0.9 * rounds_ms.len() as f64).ceil() as usize;
    let passes = untraced.pass_times();
    out.notes.push(format!(
        "set-up: best per item over {} rounds, median round {} s; run: best per job over {} passes, median pass {} s, passes {:?}",
        setup.passes(),
        median(&setup.pass_times()),
        passes.len(),
        median(&passes),
        passes.iter().map(|p| (p * 1e3).round() / 1e3).collect::<Vec<_>>()
    ));
    out.notes.push(format!(
        "failed_frac = {} ({} of {} jobs)",
        out.failures.len() as f64 / out.attempted.max(1) as f64,
        out.failures.len(),
        out.attempted
    ));
    if !rounds_ms.is_empty() {
        out.notes.push(format!(
            "compile_ms_p50 = {} ms, compile_ms_p90 = {} ms over {} compile rounds ({beyond_p90} beyond p90)",
            median(&rounds_ms),
            quantile(&rounds_ms, 0.9),
            rounds_ms.len()
        ));
    }

    if !trace {
        out.metrics = vec![
            Metric { name: "setup_s", value: setup.best_pass(), unit: "s" },
            Metric { name: "run_s", value: untraced.best_pass(), unit: "s" },
            Metric { name: "peak_rss_mb", value: peak_rss_mb(), unit: "MB" },
            Metric { name: "sim_dyn_over_best", value: ratio, unit: "ratio" },
        ];
        return out;
    }

    let (replay, steps, mismatches) = plan.replay(&mut tracer);
    out.counts.insert("exec.steps", steps);
    out.nondeterminism.extend(mismatches);
    let (plain, recorded) = plan.observer_cost(OBSERVER_REPS, &mut tracer);
    out.spans = Some(tracer.to_jsonl());

    let layer = |name: &str| layers.get(name).map_or(0.0, |v| min(v));
    let pass_names = [
        "compiler.callgraph",
        "compiler.effects",
        "compiler.commutativity",
        "compiler.lockplace",
        "compiler.syncopt",
        "compiler.lower",
        "compiler.native",
    ];
    let residual: Vec<f64> = (0..layers.get("compiler.compile").map_or(0, Vec::len))
        .map(|k| {
            let at = |n: &str| layers.get(n).and_then(|v| v.get(k)).copied().unwrap_or(0.0);
            at("compiler.compile") - pass_names.iter().map(|n| at(n)).sum::<f64>()
        })
        .collect();
    let us = |s: f64| s * 1e6;
    let exec_s = layer("exec");
    let count = |name: &'static str| Metric { name, value: out.counts[name] as f64, unit: "count" };
    let mut m = vec![
        Metric { name: "lang.parse_us", value: us(layer("lang.parse")), unit: "us" },
        Metric { name: "lang.sema_us", value: us(layer("lang.sema")), unit: "us" },
    ];
    for (name, span) in [
        ("compiler.callgraph_us", "compiler.callgraph"),
        ("compiler.effects_us", "compiler.effects"),
        ("compiler.commutativity_us", "compiler.commutativity"),
        ("compiler.lockplace_us", "compiler.lockplace"),
        ("compiler.syncopt_us", "compiler.syncopt"),
        ("compiler.lower_us", "compiler.lower"),
        ("compiler.native_us", "compiler.native"),
        ("compiler.compile_us", "compiler.compile"),
    ] {
        m.push(Metric { name, value: us(layer(span)), unit: "us" });
    }
    m.push(Metric { name: "compiler.residual_us", value: us(min(&residual)), unit: "us" });
    m.push(count("compiler.versions"));
    m.push(Metric {
        name: "compiler.code_bytes",
        value: out.counts["compiler.code_bytes"] as f64,
        unit: "bytes",
    });
    m.push(Metric { name: "compiler.round_ms_p50", value: median(&rounds_ms), unit: "ms" });
    m.push(Metric { name: "compiler.round_ms_p90", value: quantile(&rounds_ms, 0.9), unit: "ms" });
    m.push(Metric { name: "exec.self_s", value: exec_s, unit: "s" });
    m.push(count("exec.steps"));
    let ns_per_step = if steps == 0 { 0.0 } else { exec_s * 1e9 / steps as f64 };
    m.push(Metric { name: "exec.ns_per_step", value: ns_per_step, unit: "ns" });
    m.push(Metric { name: "sim.self_s", value: layer("sim.run_app"), unit: "s" });
    m.push(Metric { name: "sim.replay_s", value: replay.as_secs_f64(), unit: "s" });
    m.push(count("sim.acquires"));
    m.push(count("sim.failed_attempts"));
    m.push(count("ctl.intervals"));
    m.push(count("ctl.switches"));
    m.push(Metric { name: "ctl.replay_us", value: us(min(&ctl_replay)), unit: "us" });
    m.push(Metric { name: "ctl.production_frac", value: production_frac, unit: "ratio" });
    m.push(count("detector.alarms"));
    m.push(count("obs.trace_events"));
    m.push(count("obs.journal_records"));
    m.push(count("obs.dropped"));
    let on_over_off =
        if plain.is_zero() { 0.0 } else { recorded.as_secs_f64() / plain.as_secs_f64() };
    m.push(Metric { name: "obs.on_over_off", value: on_over_off, unit: "ratio" });
    m.push(Metric {
        name: "trace.overhead",
        value: traced.best_pass() / untraced.best_pass(),
        unit: "ratio",
    });
    out.metrics = m;
    out.notes.push(format!(
        "traced: {} traced and {} untraced passes; per-layer times are the fastest traced pass",
        traced.passes(),
        untraced.passes()
    ));
    out
}

/// Peak resident set of this process, in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }
}
