//! Execution-tier throughput microbenchmark and perf gate.
//!
//! Runs barnes-hut under both execution tiers — the tree-walking oracle
//! and the fused-closure native tier — on identical `RunConfig`s,
//! measures host wall time (best of N repeats), and reports simulated
//! operations per host second. Because both tiers emit bit-identical step
//! sequences (asserted here on every run), the simulated work is the same
//! numerator throughout, so the throughput ratio is exactly the host-time
//! ratio.
//!
//! Two measurements per tier:
//!
//! * **full run** — the whole simulation (event engine + executor). The
//!   shared event-engine cost floors this ratio, so it understates what
//!   the tiers differ in.
//! * **executor-only** — just the emission path (`emit_serial` /
//!   `emit_iteration` over the plan, no event engine), which is where the
//!   tiers actually differ.
//!
//! Usage: `cargo run --release -p dynfb-bench --bin vm_throughput -- \
//!     [--tier T] [--native-tier T] [--procs N] [--bodies N] [--steps N] \
//!     [--repeats N] [--min-ratio R] [--min-native-ratio R]`
//!
//! Exits nonzero when the native tier is below `--min-ratio` (default
//! 2.0) times the tree-walker on the full run, or below
//! `--min-native-ratio` (default 4.0) times the tree-walker on the
//! executor-only measurement — margins below the measured ratios recorded
//! in DESIGN.md, so the gates fail only on real regressions. `--tier`
//! restricts the run to one tier (no gates, no ratios). `--native-tier`
//! substitutes the tier actually run for the "native" row — CI uses
//! `--native-tier tree` as a negative control that must fail the gates.
//! Host timings are scratch, never canonical: they go to the git-ignored
//! `BENCH_TIMINGS.json` (overwriting it, like the experiments runner
//! does), keeping `BENCH_RESULTS.json` byte-stable by construction.

use dynfb_apps::barnes_hut::{barnes_hut, BarnesHutConfig};
use dynfb_apps::machine_config;
use dynfb_compiler::ExecTier;
use dynfb_sim::{run_app_ref, AppReport, Machine, OpSink, RunConfig, SectionKind, SimApp, Step};
use std::time::{Duration, Instant};

const USAGE: &str = "usage: vm_throughput [--tier T] [--native-tier T] [--procs N] [--bodies N] \
[--steps N] [--repeats N] [--min-ratio R] [--min-native-ratio R]

  --tier T               measure one tier only: tree | native (default: both)
  --native-tier T        tier actually run for the \"native\" row (negative-control
                         hook: --native-tier tree must fail the native gates)
  --procs N              simulated processors (default: 8)
  --bodies N             barnes-hut bodies (default: 256)
  --steps N              barnes-hut time steps (default: 2)
  --repeats N            host-timing repeats, best-of (default: 3)
  --min-ratio R          fail unless full-run native/tree throughput >= R (default: 2.0)
  --min-native-ratio R   fail unless executor-only native/tree >= R (default: 4.0)";

struct Opts {
    tier: Option<ExecTier>,
    native_tier: Option<ExecTier>,
    procs: usize,
    bodies: usize,
    steps: usize,
    repeats: usize,
    min_ratio: f64,
    min_native_ratio: f64,
}

fn parse_tier(v: &str) -> Option<ExecTier> {
    match v {
        "tree" => Some(ExecTier::Tree),
        "native" => Some(ExecTier::Native),
        _ => None,
    }
}

fn parse_opts() -> Opts {
    let mut opts = Opts {
        tier: None,
        native_tier: None,
        procs: 8,
        bodies: 256,
        steps: 2,
        repeats: 3,
        min_ratio: 2.0,
        min_native_ratio: 4.0,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |what: &str| -> String {
            args.next().unwrap_or_else(|| {
                eprintln!("{flag} needs {what}\n{USAGE}");
                std::process::exit(2);
            })
        };
        let bad = |v: &str| -> ! {
            eprintln!("invalid value `{v}` for {flag}\n{USAGE}");
            std::process::exit(2);
        };
        match flag.as_str() {
            "--tier" => {
                let v = value("tree|native");
                opts.tier = Some(parse_tier(&v).unwrap_or_else(|| bad(&v)));
            }
            "--native-tier" => {
                let v = value("tree|native");
                opts.native_tier = Some(parse_tier(&v).unwrap_or_else(|| bad(&v)));
            }
            "--procs" => {
                let v = value("a count");
                opts.procs = v.parse().unwrap_or_else(|_| bad(&v));
            }
            "--bodies" => {
                let v = value("a count");
                opts.bodies = v.parse().unwrap_or_else(|_| bad(&v));
            }
            "--steps" => {
                let v = value("a count");
                opts.steps = v.parse().unwrap_or_else(|_| bad(&v));
            }
            "--repeats" => {
                let v = value("a count");
                opts.repeats = v.parse().unwrap_or_else(|_| bad(&v));
            }
            "--min-ratio" => {
                let v = value("a ratio");
                opts.min_ratio = v.parse().unwrap_or_else(|_| bad(&v));
            }
            "--min-native-ratio" => {
                let v = value("a ratio");
                opts.min_native_ratio = v.parse().unwrap_or_else(|_| bad(&v));
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown flag `{other}`\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    opts.repeats = opts.repeats.max(1);
    opts
}

fn tier_name(tier: ExecTier) -> &'static str {
    match tier {
        ExecTier::Tree => "tree",
        ExecTier::Native => "native",
    }
}

/// The tier actually executed for row `tier` (the `--native-tier`
/// substitution hook).
fn effective_tier(opts: &Opts, tier: ExecTier) -> ExecTier {
    match (tier, opts.native_tier) {
        (ExecTier::Native, Some(t)) => t,
        _ => tier,
    }
}

fn app_config(opts: &Opts) -> BarnesHutConfig {
    BarnesHutConfig { bodies: opts.bodies, steps: opts.steps, ..BarnesHutConfig::default() }
}

/// Best-of-N host time for one tier's full simulation, plus the
/// (tier-independent) report of the last run for cross-checking.
fn measure(opts: &Opts, tier: ExecTier, cfg: &RunConfig) -> (Duration, AppReport) {
    let bh = app_config(opts);
    let mut best = Duration::MAX;
    let mut last = None;
    for _ in 0..opts.repeats {
        // A fresh app per repeat: runs mutate the heap, and identical
        // inputs keep the simulated work identical across tiers.
        let mut app = barnes_hut(&bh);
        app.set_exec_tier(effective_tier(opts, tier));
        let started = Instant::now();
        let report = run_app_ref(&mut app, cfg).expect("barnes-hut runs");
        best = best.min(started.elapsed());
        last = Some(report);
    }
    (best, last.expect("at least one repeat"))
}

/// Digest of one executor-only walk, used to assert the tiers did
/// identical simulated work without the event engine in the loop.
#[derive(Debug, PartialEq, Eq)]
struct ExecDigest {
    steps: usize,
    compute: Duration,
}

/// Best-of-N host time for one tier's *emission path only*: walk the plan
/// and call `emit_serial`/`emit_iteration` exactly as the runtime would,
/// with no event engine. This is where the tiers differ.
fn measure_exec(opts: &Opts, tier: ExecTier) -> (Duration, ExecDigest) {
    let bh = app_config(opts);
    let mut best = Duration::MAX;
    let mut last = None;
    for _ in 0..opts.repeats {
        let mut app = barnes_hut(&bh);
        app.set_exec_tier(effective_tier(opts, tier));
        let mut machine = Machine::new(machine_config());
        app.setup(&mut machine);
        let plan = app.plan();
        let mut digest = ExecDigest { steps: 0, compute: Duration::ZERO };
        let started = Instant::now();
        for entry in &plan {
            let mut sink = OpSink::default();
            match entry.kind {
                SectionKind::Serial => app.emit_serial(&entry.name, &mut sink),
                SectionKind::Parallel => {
                    let iters = app.begin_parallel(&entry.name);
                    let version = app
                        .version_for_policy(&entry.name, "original")
                        .expect("original version exists");
                    for i in 0..iters {
                        app.emit_iteration(&entry.name, version, i, &mut sink);
                    }
                }
            }
            for step in sink.into_steps() {
                digest.steps += 1;
                if let Step::Compute(d) = step {
                    digest.compute += d;
                }
            }
        }
        best = best.min(started.elapsed());
        last = Some(digest);
    }
    (best, last.expect("at least one repeat"))
}

fn main() {
    let opts = parse_opts();
    let cfg = RunConfig::fixed(opts.procs, "original");

    let tiers: Vec<ExecTier> = match opts.tier {
        Some(t) => vec![t],
        None => vec![ExecTier::Tree, ExecTier::Native],
    };
    let runs: Vec<(ExecTier, Duration, AppReport)> = tiers
        .iter()
        .map(|&t| {
            let (time, report) = measure(&opts, t, &cfg);
            (t, time, report)
        })
        .collect();
    let exec_runs: Vec<(ExecTier, Duration, ExecDigest)> = tiers
        .iter()
        .map(|&t| {
            let (time, digest) = measure_exec(&opts, t);
            (t, time, digest)
        })
        .collect();

    // The determinism contract, enforced on the real workload: both
    // measured tiers must have produced the same simulation — and the same
    // emission digest on the executor-only walk.
    let (_, _, reference) = &runs[0];
    for (t, _, report) in &runs[1..] {
        assert_eq!(
            report.stats,
            reference.stats,
            "tier reports diverged (stats, {} vs {})",
            tier_name(*t),
            tier_name(runs[0].0)
        );
        assert_eq!(
            report.sections,
            reference.sections,
            "tier reports diverged (sections, {} vs {})",
            tier_name(*t),
            tier_name(runs[0].0)
        );
    }
    let (_, _, exec_reference) = &exec_runs[0];
    for (t, _, digest) in &exec_runs[1..] {
        assert_eq!(
            digest,
            exec_reference,
            "executor digests diverged ({} vs {})",
            tier_name(*t),
            tier_name(exec_runs[0].0)
        );
    }

    // Simulated work ≈ charged node costs; identical across tiers, so any
    // ops proxy cancels in the ratios. Use charged compute nanos.
    let sim_ns = reference.stats.totals().compute.as_nanos();
    let ops_per_sec = |host: Duration| sim_ns as f64 / 1e3 / host.as_secs_f64();
    let time_of = |tier: ExecTier| runs.iter().find(|(t, ..)| *t == tier).map(|(_, d, _)| *d);
    let exec_time_of =
        |tier: ExecTier| exec_runs.iter().find(|(t, ..)| *t == tier).map(|(_, d, _)| *d);

    println!(
        "barnes-hut: {} bodies, {} steps, {} procs, policy original, best of {}",
        opts.bodies, opts.steps, opts.procs, opts.repeats
    );
    if let Some(t) = opts.native_tier {
        println!("  NOTE: --native-tier {}: the \"native\" row runs that tier", tier_name(t));
    }
    println!("  simulated compute: {:.3} ms", sim_ns as f64 / 1e6);
    println!(
        "  {:<12} {:>12} {:>16} {:>10} {:>12} {:>10}",
        "tier", "host ms", "sim-ops/host-s", "vs tree", "exec ms", "vs tree"
    );
    let tree_time = time_of(ExecTier::Tree);
    let exec_tree_time = exec_time_of(ExecTier::Tree);
    for ((t, time, _), (_, exec_time, _)) in runs.iter().zip(&exec_runs) {
        let vs = |base: Option<Duration>, mine: Duration| match base {
            Some(b) => format!("{:.2}x", b.as_secs_f64() / mine.as_secs_f64()),
            None => "-".to_string(),
        };
        println!(
            "  {:<12} {:>12.1} {:>16.0} {:>10} {:>12.1} {:>10}",
            tier_name(*t),
            ms(*time),
            ops_per_sec(*time),
            vs(tree_time, *time),
            ms(*exec_time),
            vs(exec_tree_time, *exec_time),
        );
    }

    let ratio = |base: Option<Duration>, t: Option<Duration>| -> Option<f64> {
        Some(base?.as_secs_f64() / t?.as_secs_f64())
    };
    let native_ratio = ratio(tree_time, time_of(ExecTier::Native));
    let exec_native_ratio = ratio(exec_tree_time, exec_time_of(ExecTier::Native));

    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"vm_throughput\",\n  \"app\": \"barnes-hut\",\n");
    json.push_str(&format!("  \"bodies\": {},\n", opts.bodies));
    json.push_str(&format!("  \"steps\": {},\n", opts.steps));
    json.push_str(&format!("  \"procs\": {},\n", opts.procs));
    json.push_str("  \"policy\": \"original\",\n");
    json.push_str(&format!("  \"repeats\": {},\n", opts.repeats));
    json.push_str(&format!("  \"simulated_compute_ns\": {sim_ns},\n"));
    for ((t, time, _), (_, exec_time, _)) in runs.iter().zip(&exec_runs) {
        let name = tier_name(*t);
        json.push_str(&format!("  \"{name}_host_seconds\": {:.6},\n", time.as_secs_f64()));
        json.push_str(&format!(
            "  \"{name}_sim_ops_per_host_second\": {:.0},\n",
            ops_per_sec(*time)
        ));
        json.push_str(&format!(
            "  \"{name}_exec_host_seconds\": {:.6},\n",
            exec_time.as_secs_f64()
        ));
    }
    if let Some(r) = native_ratio {
        json.push_str(&format!("  \"native_speedup\": {r:.3},\n"));
    }
    if let Some(r) = exec_native_ratio {
        json.push_str(&format!("  \"native_exec_speedup\": {r:.3},\n"));
    }
    json.push_str(&format!("  \"min_ratio\": {:.3},\n", opts.min_ratio));
    json.push_str(&format!("  \"min_native_ratio\": {:.3}\n}}\n", opts.min_native_ratio));
    std::fs::write("BENCH_TIMINGS.json", &json).expect("write timings json");
    println!("Wrote BENCH_TIMINGS.json ({} bytes)", json.len());

    let mut failed = false;
    if let Some(r) = native_ratio {
        println!("  native gate (full run, vs tree): {r:.2}x (>= {:.2}x required)", opts.min_ratio);
        if r < opts.min_ratio {
            eprintln!(
                "FAIL: full-run native speedup {r:.2}x is below the {:.2}x gate",
                opts.min_ratio
            );
            failed = true;
        }
    }
    if let Some(r) = exec_native_ratio {
        println!(
            "  native gate (executor-only, vs tree): {r:.2}x (>= {:.2}x required)",
            opts.min_native_ratio
        );
        if r < opts.min_native_ratio {
            eprintln!(
                "FAIL: executor-only native speedup {r:.2}x is below the {:.2}x gate",
                opts.min_native_ratio
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
