//! Micro-benchmarks for the core building blocks: the discrete-event
//! engine, the dynamic feedback controller, symbolic normalization,
//! compilation, and a small end-to-end simulated run.
//!
//! Self-contained harness (no external bench framework): each benchmark is
//! warmed up, then timed over enough iterations to smooth scheduler noise,
//! reporting mean time per iteration. Run with
//! `cargo bench -p dynfb-bench`.

use dynfb_core::controller::{Controller, ControllerConfig};
use dynfb_core::overhead::OverheadSample;
use dynfb_core::theory::Analysis;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Time `f` over adaptively chosen iteration counts, print the mean and
/// return it.
fn bench(name: &str, mut f: impl FnMut()) -> Duration {
    // Warm-up and calibration: find an iteration count that runs ≥ 50 ms.
    let mut iters: u64 = 1;
    let per_iter = loop {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let elapsed = start.elapsed();
        if elapsed >= Duration::from_millis(50) || iters >= 1 << 20 {
            break elapsed / u32::try_from(iters).unwrap_or(u32::MAX);
        }
        iters *= 4;
    };
    // Measurement pass at the calibrated count.
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    let mean = start.elapsed() / u32::try_from(iters).unwrap_or(u32::MAX);
    let _ = per_iter;
    println!("{name:<45} {mean:>12.3?}/iter  ({iters} iters)");
    mean
}

fn bench_controller() {
    let cfg = ControllerConfig { num_policies: 3, ..ControllerConfig::default() };
    bench("controller/sampling_cycle", || {
        let mut ctl = Controller::new(cfg.clone());
        ctl.begin_section();
        for o in [0.4, 0.2, 0.1, 0.15] {
            ctl.complete_interval(OverheadSample::from_fraction(o, Duration::from_millis(1)));
        }
        black_box(ctl.current_policy());
    });
}

fn bench_theory() {
    let a = Analysis::new(1.0, 2, 0.065).unwrap();
    bench("theory/p_opt", || {
        black_box(a.optimal_production_interval());
    });
    let a = Analysis::new(1.0, 2, 0.065).unwrap();
    bench("theory/feasible_region", || {
        black_box(a.feasible_region(0.5).unwrap());
    });
}

fn bench_engine() {
    use dynfb_bench::chaos::{self, ChaosApp, ChaosConfig};
    use dynfb_sim::{LockId, Machine, MachineConfig, OpSink, ProcCtx, Process, SimApp, Step};
    struct Spin {
        remaining: u32,
        lock: LockId,
    }
    impl Process for Spin {
        fn step(&mut self, _ctx: &mut ProcCtx<'_>) -> Step {
            if self.remaining == 0 {
                return Step::Done;
            }
            self.remaining -= 1;
            // Countdown phases per cycle: compute (2), acquire (1), release (0).
            match self.remaining % 3 {
                2 => Step::Compute(Duration::from_micros(1)),
                1 => Step::Acquire(self.lock),
                _ => Step::Release(self.lock),
            }
        }
    }
    bench("engine/100k_events_4_procs", || {
        let mut m = Machine::new(MachineConfig::default());
        let lock = m.add_lock();
        let procs: Vec<Box<dyn Process>> = (0..4)
            .map(|_| Box::new(Spin { remaining: 25_000 * 3, lock }) as Box<dyn Process>)
            .collect();
        black_box(m.run(procs).unwrap());
    });

    /// One processor's share of the chaos workload: iteration `iter` runs
    /// `bodies[iter % SLOTS]`. The runtime hands iterations out on
    /// demand; here they are dealt round-robin.
    struct Iterations<'a> {
        bodies: &'a [Vec<Step>],
        iter: usize,
        stride: usize,
        end: usize,
        cursor: usize,
    }
    impl Process for Iterations<'_> {
        fn step(&mut self, _ctx: &mut ProcCtx<'_>) -> Step {
            while self.iter < self.end {
                let body = &self.bodies[self.iter % chaos::SLOTS];
                if let Some(&step) = body.get(self.cursor) {
                    self.cursor += 1;
                    return step;
                }
                self.cursor = 0;
                self.iter += self.stride;
            }
            Step::Done
        }
    }
    // The chaos workload's engine traffic (`dynfb_bench::chaos`): its
    // processor count, `SLOTS` slot locks, machine cost model and
    // `lock-storm` fault plan (a contention storm from the workload's
    // onset on), running the steps `ChaosApp` emits for its `original`
    // version, the one with the most lock traffic. Every step is one
    // engine event, plus one `Done` per processor.
    let cfg = ChaosConfig::default();
    let storm = chaos::scenarios(&cfg)
        .into_iter()
        .find(|s| s.name == "lock-storm")
        .expect("the chaos matrix has a lock-storm scenario")
        .plan;
    // A fresh machine numbers its locks from zero, so bodies emitted
    // against this one name the same locks in every timed run.
    let mut app = ChaosApp::new(cfg.iters);
    app.setup(&mut Machine::new(chaos::chaos_machine()));
    let original = chaos::VERSIONS.iter().position(|&v| v == "original").expect("a chaos version");
    let bodies: Vec<Vec<Step>> = (0..chaos::SLOTS)
        .map(|iter| {
            let mut ops = OpSink::default();
            app.emit_iteration("work", original, iter, &mut ops);
            ops.into_steps().into()
        })
        .collect();
    let name = "engine/chaos_original_lock_storm";
    let per_run = bench(name, || {
        let mut m = Machine::new(chaos::chaos_machine());
        m.set_fault_plan(storm.clone()).unwrap();
        ChaosApp::new(cfg.iters).setup(&mut m);
        let procs: Vec<Box<dyn Process>> = (0..cfg.procs)
            .map(|p| {
                let share = Iterations {
                    bodies: &bodies,
                    iter: p,
                    stride: cfg.procs,
                    end: cfg.iters,
                    cursor: 0,
                };
                Box::new(share) as Box<dyn Process>
            })
            .collect();
        black_box(m.run(procs).unwrap());
    });
    let events: usize =
        (0..cfg.iters).map(|iter| bodies[iter % chaos::SLOTS].len()).sum::<usize>() + cfg.procs;
    println!("{name:<45} {:>12.1} ns/event", per_run.as_secs_f64() * 1e9 / events as f64);
}

fn bench_compile() {
    bench("compiler/compile_barnes_hut", || {
        black_box(dynfb_apps::barnes_hut(&dynfb_apps::BarnesHutConfig {
            bodies: 64,
            steps: 1,
            ..Default::default()
        }));
    });
}

fn bench_end_to_end() {
    bench("end_to_end/barnes_hut_128_bodies_8_procs_dynamic", || {
        let app = dynfb_apps::barnes_hut(&dynfb_apps::BarnesHutConfig {
            bodies: 128,
            steps: 1,
            ..Default::default()
        });
        let ctl = ControllerConfig {
            target_sampling: Duration::from_micros(200),
            target_production: Duration::from_millis(50),
            ..ControllerConfig::default()
        };
        black_box(dynfb_sim::run_app(app, &dynfb_apps::run_dynamic(8, ctl)).unwrap());
    });
}

fn main() {
    bench_controller();
    bench_theory();
    bench_engine();
    bench_compile();
    bench_end_to_end();
}
