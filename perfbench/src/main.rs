//! `perfbench`: the repository's host-performance benchmark.
//!
//! ```text
//! perfbench run  --workload W --seed N --seconds S --trace 0|1
//!                [--scale full|tiny] [--refs FILE] [--out DIR]
//! perfbench refs --workload W|all --seed N [--scale full|tiny|all]
//! ```
//!
//! `run` measures one workload on this thread and prints every metric by
//! name with its unit, then one JSON line: `correct`, `attempted`,
//! `failed` and `metrics` — the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. It exits nonzero when an output
//! check or the determinism self-check fails.
//!
//! `refs` prints the reference digests of a workload in the format of
//! `refs/oracle.txt`. `run` reads references from the `--refs` file (by
//! default `perfbench/refs/oracle.txt`); for a seed it does not cover,
//! `run` computes them first, untimed, in a child `refs` process.

mod digest;
mod measure;
mod pipeline;
mod probe;
mod spans;
mod workloads;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use workloads::{Plan, Refs, Scale, Workload};

const USAGE: &str = "usage:
  perfbench run  --workload W --seed N --seconds S --trace 0|1
                 [--scale full|tiny] [--refs FILE] [--out DIR]
  perfbench refs --workload W|all --seed N [--scale full|tiny|all]

workloads: bh-forces, water-contended, compile-family, chaos-observed";

struct Args {
    command: String,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: String,
    refs: PathBuf,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let command = it.next().ok_or("missing command")?;
    let mut a = Args {
        command,
        workload: String::new(),
        seed: workloads::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        scale: "full".into(),
        refs: PathBuf::from("perfbench/refs/oracle.txt"),
        out: PathBuf::from("perfbench/out"),
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("invalid value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => a.workload = value,
            "--seed" => a.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => a.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }
            }
            "--scale" => a.scale = value,
            "--refs" => a.refs = PathBuf::from(value),
            "--out" => a.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if !(a.seconds.is_finite() && a.seconds >= 0.0) {
        return Err(format!("--seconds must be a non-negative number, not {}", a.seconds));
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match args.command.as_str() {
        "run" => run(&args),
        "refs" => print_refs(&args),
        other => Err(format!("unknown command `{other}`")),
    };
    result.unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        ExitCode::from(2)
    })
}

/// Every `(workload, scale)` pair a `refs` invocation names.
fn selection(args: &Args) -> Result<Vec<(Workload, Scale)>, String> {
    let workloads = match args.workload.as_str() {
        "all" => Workload::ALL.to_vec(),
        w => vec![Workload::parse(w).ok_or_else(|| format!("unknown workload `{w}`"))?],
    };
    let scales = match args.scale.as_str() {
        "all" => vec![Scale::Full, Scale::Tiny],
        s => vec![Scale::parse(s).ok_or_else(|| format!("unknown scale `{s}`"))?],
    };
    Ok(workloads.iter().flat_map(|&w| scales.iter().map(move |&s| (w, s))).collect())
}

/// Key columns of a reference line: workload, scale and seed. Compile
/// listings do not depend on the seed, so they are stored under `*`.
fn ref_prefix(plan: &Plan) -> String {
    let seed = if plan.workload == Workload::CompileFamily {
        "*".to_string()
    } else {
        plan.seed.to_string()
    };
    format!("{} {} {seed}", plan.workload.name(), plan.scale.name())
}

fn print_refs(args: &Args) -> Result<ExitCode, String> {
    for (w, s) in selection(args)? {
        let plan = Plan::new(w, s, args.seed);
        for (key, value) in plan.references() {
            println!("{} {key} {value}", ref_prefix(&plan));
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// The references in `text` that belong to `plan`.
fn parse_refs(text: &str, plan: &Plan) -> Refs {
    let prefix = ref_prefix(plan);
    text.lines()
        .filter_map(|l| l.strip_prefix(prefix.as_str())?.strip_prefix(' '))
        .filter_map(|rest| rest.split_once(' '))
        .map(|(k, v)| (k.to_string(), v.trim().to_string()))
        .collect()
}

/// References for `plan`: from the `--refs` file, or, for a seed the file
/// does not cover, computed by a child `perfbench refs` process.
fn load_refs(args: &Args, plan: &Plan) -> Result<Refs, String> {
    let f = &args.refs;
    let text = std::fs::read_to_string(f).map_err(|e| format!("{}: {e}", f.display()))?;
    let refs = parse_refs(&text, plan);
    if !refs.is_empty() {
        return Ok(refs);
    }
    let exe = std::env::current_exe().map_err(|e| format!("locating perfbench: {e}"))?;
    let child = Command::new(exe)
        .args(["refs", "--workload", plan.workload.name(), "--scale", plan.scale.name()])
        .args(["--seed", &plan.seed.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("computing references: {e}"))?;
    if !child.status.success() {
        return Err(format!("computing references failed: {}", child.status));
    }
    Ok(parse_refs(&String::from_utf8_lossy(&child.stdout), plan))
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let workload = Workload::parse(&args.workload)
        .ok_or_else(|| format!("unknown workload `{}`", args.workload))?;
    let scale =
        Scale::parse(&args.scale).ok_or_else(|| format!("unknown scale `{}`", args.scale))?;
    let plan = Plan::new(workload, scale, args.seed);
    let refs = load_refs(args, &plan)?;
    let host = host_fingerprint(source_digest());
    let sizes: Vec<String> = plan.sizes.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!(
        "perfbench: workload {} seed {} scale {} trace {} seconds {}",
        workload.name(),
        args.seed,
        scale.name(),
        u8::from(args.trace),
        args.seconds
    );
    println!(
        "host: {}",
        host.iter().map(|(k, v)| format!("{k}={v}")).collect::<Vec<_>>().join(" ")
    );
    println!("sizes: {}", sizes.join(" "));

    let out = measure::run(&plan, &refs, args.seconds, args.trace);
    for m in &out.metrics {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
    for n in &out.notes {
        println!("note: {n}");
    }
    let counts: Vec<String> = out.counts.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("counts: {} sim_dyn_over_best={}", counts.join(" "), out.dyn_over_best);
    for f in &out.failures {
        println!("FAILED {f}");
    }
    for f in &out.nondeterminism {
        println!("NONDETERMINISTIC {f}");
    }
    let correct = out.failures.is_empty() && out.nondeterminism.is_empty();

    let stem = format!(
        "{}-{}-seed{}-trace{}",
        workload.name(),
        scale.name(),
        args.seed,
        u8::from(args.trace)
    );
    let record = result_record(args, &plan, &host, &out, correct);
    write_file(&args.out.join(format!("result-{stem}.json")), &record)?;
    if let Some(spans) = &out.spans {
        write_file(&args.out.join(format!("spans-{stem}.jsonl")), spans)?;
    }

    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted,
        out.failures.len(),
        metrics_json(&out.metrics)
    );
    Ok(if correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// A JSON number: the shortest text that reads back as the same `f64`.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The metrics as one JSON object: name → `{"value", "unit"}`.
fn metrics_json(metrics: &[measure::Metric]) -> String {
    let entries: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", entries.join(", "))
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The full record of one run, written next to the spans: everything
/// needed to tell whether two results may be compared.
fn result_record(
    args: &Args,
    plan: &Plan,
    host: &[(&str, String)],
    out: &measure::RunOutcome,
    correct: bool,
) -> String {
    let obj = |pairs: Vec<String>| format!("{{{}}}", pairs.join(", "));
    let host = obj(host.iter().map(|(k, v)| format!("\"{k}\": {}", json_str(v))).collect());
    let sizes = obj(plan.sizes.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect());
    let metrics = metrics_json(&out.metrics);
    let counts = obj(out.counts.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect());
    let list = |xs: &[String]| {
        format!("[{}]", xs.iter().map(|x| json_str(x)).collect::<Vec<_>>().join(", "))
    };
    format!(
        "{{\n  \"workload\": \"{}\",\n  \"scale\": \"{}\",\n  \"seed\": {},\n  \"seconds\": {},\n  \"trace\": {},\n  \"host\": {host},\n  \"sizes\": {sizes},\n  \"correct\": {correct},\n  \"attempted\": {},\n  \"failures\": {},\n  \"nondeterminism\": {},\n  \"metrics\": {metrics},\n  \"counts\": {counts},\n  \"sim_dyn_over_best\": {},\n  \"notes\": {}\n}}\n",
        plan.workload.name(),
        plan.scale.name(),
        plan.seed,
        json_num(args.seconds),
        args.trace,
        out.attempted,
        list(&out.failures),
        list(&out.nondeterminism),
        json_num(out.dyn_over_best),
        list(&out.notes),
    )
}

/// CPU model, core count, git revision (when run from a git checkout) and
/// a digest of the sources, so results from different hosts or code are
/// never compared by mistake.
fn host_fingerprint(source: String) -> Vec<(&'static str, String)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")?.split_once(':').map(|(_, v)| v.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let git = if Path::new(".git").exists() {
        Command::new("git")
            .args(["rev-parse", "HEAD"])
            .stdin(Stdio::null())
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    } else {
        None
    };
    vec![
        ("cpu", cpu),
        ("nproc", nproc.to_string()),
        ("git", git.unwrap_or_else(|| "none".into())),
        ("source", source),
    ]
}

/// FNV-1a 64 over the path and bytes of every source file the benchmark
/// builds from (the workspace crates and the benchmark itself).
fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                if p.file_name().is_some_and(|n| n != "target" && n != "out") {
                    walk(&p, files);
                }
            } else if p
                .extension()
                .is_some_and(|x| x == "rs" || x == "ol" || x == "toml" || x == "lock")
            {
                files.push(p);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    walk(Path::new("crates"), &mut files);
    walk(Path::new("perfbench"), &mut files);
    files.sort();
    let mut h = digest::Fnv::default();
    for f in files {
        if let Ok(bytes) = std::fs::read(&f) {
            h.bytes(f.to_string_lossy().as_bytes());
            h.bytes(&bytes);
        }
    }
    h.hex()
}
