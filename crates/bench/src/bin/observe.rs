//! Observation binary: runs every chaos cell once with trace, journal and
//! metrics attached and checks each channel against an independent
//! account of the same run (see `dynfb_bench::observe`). Prints three
//! sections: the trace oracle (trace-reconstructed adaptation vs the chaos
//! harness), the profile oracle with a ranked per-lock attribution report
//! (plus a fixed-seed Barnes-Hut profile with compiler region labels), and
//! the explain section (a causal timeline per adaptive cell, journal
//! cross-checked against the trace).
//!
//! Exports go to `target/trace/` (one Chrome-trace JSON per scenario, for
//! <https://ui.perfetto.dev>), `target/profile/` (JSON + Prometheus text)
//! and `target/explain/` (one NDJSON journal per adaptive cell).
//!
//! Usage: `cargo run --release -p dynfb-bench --bin observe -- \
//!     [--seed N | N] [--jobs N] [--filter PAT[,PAT...]] [--quick]`
//!
//! Exits 1 if any oracle disagrees and 2 on an I/O error. Stdout and the
//! exported files are byte-identical for every `--jobs` value (CI
//! enforces this).

use dynfb_bench::chaos::ChaosConfig;
use dynfb_bench::engine::{parse_cli, Engine};
use dynfb_bench::observe::{barnes_hut_profile, observe_report_with};
use std::path::Path;

const USAGE: &str = "usage: observe [--seed N | N] [--jobs N] [--filter PAT[,PAT...]] [--quick]

  --seed N    scenario seed (default 42; a bare integer also works)
  --jobs N    worker threads (default: all host threads)
  --filter P  only scenarios whose name matches (substring or * wildcard)
  --quick     reduced iteration count (CI-sized run)";

fn main() {
    let opts = parse_cli(std::env::args().skip(1), USAGE);
    let mut cfg = ChaosConfig { seed: opts.seed.unwrap_or(42), ..ChaosConfig::default() };
    if opts.quick {
        cfg.iters = 1_500;
    }
    let report = observe_report_with(&cfg, &Engine::new(opts.jobs), opts.filter.as_ref());
    // A compiled app with real region labels, fixed seed: the same profile
    // the golden tests pin down, at a bigger size unless --quick.
    let bodies = if opts.quick { 96 } else { 256 };
    let bh = barnes_hut_profile(bodies, cfg.procs, "original");
    print!("{}{}", report.trace, report.profile);
    println!(
        "barnes-hut ({bodies} bodies, {} procs, original): oracle {}",
        cfg.procs,
        if bh.consistent { "ok" } else { "MISMATCH" }
    );
    print!("{}", report.explain);

    let mut exports = report.exports;
    exports.push(("profile/barnes_hut.json".to_string(), bh.json));
    exports.push(("profile/barnes_hut.prom".to_string(), bh.prom));
    for (name, contents) in &exports {
        let path = Path::new("target").join(name);
        let written = path.parent().map_or(Ok(()), std::fs::create_dir_all);
        match written.and_then(|()| std::fs::write(&path, contents)) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => {
                eprintln!("observe: cannot write {}: {e}", path.display());
                std::process::exit(2);
            }
        }
    }
    if !report.consistent || !bh.consistent {
        eprintln!("observe: MISMATCH: an oracle disagreed (see the report above)");
        std::process::exit(1);
    }
}
