//! Golden-file tests for the report layer: a fixed `Table` render and a
//! fixed-seed `BENCH_RESULTS.json` snapshot.
//!
//! Regenerate with `UPDATE_GOLDEN=1 cargo test -p dynfb-bench --test
//! golden` after an intentional format change, and commit the updated
//! files under `tests/golden/`.

use dynfb_bench::engine::{Engine, Filter};
use dynfb_bench::experiments::{results_json, run_matrix, select, suite, Scale};
use dynfb_bench::report::Table;
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name)
}

fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir golden");
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        expected, actual,
        "{name} drifted from its golden copy; if the change is intentional, \
         regenerate with UPDATE_GOLDEN=1 and commit the diff"
    );
}

fn sample_table() -> Table {
    let mut t =
        Table::new("Execution Times for Example (virtual seconds)", &["Version", "1", "2", "4"]);
    t.row(vec!["Serial".into(), "12.000".into(), String::new(), String::new()]);
    t.row(vec!["Original".into(), "13.125".into(), "6.703".into(), "3.531".into()]);
    t.row(vec!["Dynamic".into(), "12.250".into(), "6.250".into(), "3.250".into()]);
    t.note("fixed input — exercises alignment, empty cells, and notes");
    t
}

#[test]
fn table_console_render_matches_golden() {
    check_golden("table_console.golden", &sample_table().to_console());
}

#[test]
fn table_markdown_render_matches_golden() {
    check_golden("table_markdown.golden", &sample_table().to_markdown());
}

#[test]
fn barnes_hut_profile_exports_match_golden() {
    // A fixed-seed Barnes-Hut run (32 bodies, 4 procs, original policy)
    // profiled under the metrics registry, with lock ids mapped through
    // the compiler's region metadata. Everything is virtual-time
    // deterministic, so both exports are byte-stable across hosts.
    let p = dynfb_bench::observe::barnes_hut_profile(32, 4, "original");
    assert!(p.consistent, "per-lock sums must equal machine aggregates");
    check_golden("barnes_hut_profile.golden.prom", &p.prom);
    check_golden("barnes_hut_profile.golden.json", &p.json);
}

#[test]
fn bench_results_json_matches_golden() {
    // A tiny fixed-seed matrix: code sizes for all apps plus one serial
    // Barnes-Hut run. Everything in it is virtual-time deterministic, so
    // the snapshot is stable across hosts, thread counts, and reruns.
    let scale = Scale::quick();
    let exps = suite(&scale);
    let filter = Filter::new("table01-code-sizes,table04-bh-sections");
    let selected = select(&exps, Some(&filter));
    assert_eq!(selected.len(), 2, "snapshot experiments exist");
    let (store, _) = run_matrix(&scale, &selected, &Engine::new(2));
    check_golden("bench_results_quick.golden.json", &results_json(&scale, &store));
}
