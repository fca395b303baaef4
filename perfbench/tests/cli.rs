//! End-to-end checks of the `perfbench` binary at tiny scale: every metric
//! `BENCHMARK.json` names is printed with its unit, a corrupted reference
//! fails the run, counts repeat across runs and with tracing on, and the
//! committed references match a fresh computation.

use std::path::{Path, PathBuf};
use std::process::Command;

const WORKLOADS: [&str; 4] = ["bh-forces", "water-contended", "compile-family", "chaos-observed"];

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn out_dir(test: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(test)
}

struct Run {
    ok: bool,
    stdout: String,
}

impl Run {
    /// The final JSON line.
    fn result(&self) -> &str {
        self.stdout.lines().last().unwrap_or_default()
    }

    /// The `counts:` line.
    fn counts(&self) -> &str {
        self.stdout.lines().find(|l| l.starts_with("counts: ")).expect("counts line")
    }
}

fn perfbench(test: &str, workload: &str, trace: bool, refs: &Path) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["run", "--workload", workload, "--seed", "42", "--seconds", "0", "--scale", "tiny"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--refs")
        .arg(refs)
        .arg("--out")
        .arg(out_dir(test))
        .output()
        .expect("perfbench runs");
    Run { ok: out.status.success(), stdout: String::from_utf8_lossy(&out.stdout).into_owned() }
}

fn oracle() -> PathBuf {
    manifest_dir().join("refs/oracle.txt")
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let text =
        std::fs::read_to_string(manifest_dir().join("../BENCHMARK.json")).expect("BENCHMARK.json");
    let start = text.find(&format!("\"{section}\"")).expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let field = |entry: &str, key: &str| {
        let from = entry.find(&format!("\"{key}\": \""))? + key.len() + 5;
        Some(entry[from..from + entry[from..].find('"')?].to_string())
    };
    body.split('{')
        .skip(1)
        .map(|e| (field(e, "name").expect("name"), field(e, "unit").expect("unit")))
        .collect()
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let metrics = declared(section);
        assert!(!metrics.is_empty());
        for w in WORKLOADS {
            let run = perfbench("metrics", w, trace, &oracle());
            assert!(run.ok, "{w} trace {trace} failed:\n{}", run.stdout);
            let result = run.result();
            assert!(result.starts_with("{\"correct\": true, \"attempted\": "), "{result}");
            for (name, unit) in &metrics {
                let entry = format!("\"{name}\": {{\"value\": ");
                let at =
                    result.find(&entry).unwrap_or_else(|| panic!("{w}: {name} missing: {result}"));
                let rest = &result[at + entry.len()..];
                let value = &rest[..rest.find(',').expect("value ends")];
                assert!(value.parse::<f64>().is_ok(), "{w}: {name} = {value}");
                assert!(rest.contains(&format!("\"unit\": \"{unit}\"")), "{w}: {name} unit");
            }
            assert_eq!(result.matches("\"unit\"").count(), metrics.len(), "{w}: extra metrics");
        }
    }
}

#[test]
fn a_corrupted_reference_fails_the_run() {
    let text = std::fs::read_to_string(oracle()).expect("oracle");
    let mut corrupted = String::new();
    for line in text.lines() {
        if line.starts_with("bh-forces tiny 42 serial/0 ") {
            let (key, digest) = line.rsplit_once(' ').expect("digest column");
            let flipped = if digest.starts_with('0') { "1" } else { "0" };
            corrupted.push_str(&format!("{key} {flipped}{}\n", &digest[1..]));
        } else {
            corrupted.push_str(line);
            corrupted.push('\n');
        }
    }
    assert_ne!(corrupted, text, "the oracle has a bh-forces tiny serial/0 digest");
    let dir = out_dir("corrupted");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("oracle.txt");
    std::fs::write(&path, corrupted).expect("write corrupted refs");

    let run = perfbench("corrupted", "bh-forces", false, &path);
    assert!(!run.ok, "a wrong reference must fail the run:\n{}", run.stdout);
    assert!(run.result().starts_with("{\"correct\": false"), "{}", run.result());
    assert!(!run.result().contains("\"failed\": 0,"), "{}", run.result());
    let frac =
        run.stdout.lines().find_map(|l| l.strip_prefix("note: failed_frac = ")).expect("note");
    let frac: f64 = frac.split(' ').next().and_then(|f| f.parse().ok()).expect("fraction");
    assert!(frac > 0.0, "failed_frac {frac}");
}

#[test]
fn counts_repeat_across_runs_and_with_tracing() {
    for w in WORKLOADS {
        let first = perfbench("counts", w, true, &oracle());
        let second = perfbench("counts", w, true, &oracle());
        let untraced = perfbench("counts", w, false, &oracle());
        assert!(first.ok && second.ok && untraced.ok, "{w}");
        assert_eq!(first.counts(), second.counts(), "{w}: two traced runs");
        // The untraced run has no probe, so it cannot count executor steps;
        // every other count and sim_dyn_over_best must match.
        let without_steps = |c: &str| -> String {
            c.split(' ').filter(|kv| !kv.starts_with("exec.steps=")).collect::<Vec<_>>().join(" ")
        };
        assert_eq!(
            without_steps(first.counts()),
            without_steps(untraced.counts()),
            "{w}: traced vs untraced"
        );
    }
}

#[test]
fn committed_tiny_references_match_a_fresh_computation() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["refs", "--workload", "all", "--scale", "tiny"])
        .output()
        .expect("perfbench refs runs");
    assert!(out.status.success());
    let committed = std::fs::read_to_string(oracle()).expect("oracle");
    let fresh = String::from_utf8_lossy(&out.stdout);
    assert!(fresh.lines().count() > 0);
    for line in fresh.lines() {
        assert!(committed.lines().any(|c| c == line), "stale reference, regenerate: {line}");
    }
}
