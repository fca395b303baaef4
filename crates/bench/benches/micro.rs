//! Micro-benchmarks for the core building blocks: the discrete-event
//! engine, the dynamic feedback controller, symbolic normalization,
//! compilation, and a small end-to-end simulated run.
//!
//! Self-contained harness (no external bench framework): each benchmark is
//! warmed up and calibrated to a batch of at least 50 ms, then timed over
//! [`BATCHES`] such batches, reporting the median and the minimum time per
//! iteration. Run with `cargo bench -p dynfb-bench`.

use dynfb_core::controller::{Controller, ControllerConfig};
use dynfb_core::overhead::OverheadSample;
use dynfb_core::theory::Analysis;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Timed batches per benchmark. One slow batch (a preempted run on a
/// shared host) moves neither the median nor the minimum.
const BATCHES: usize = 11;

/// Per-iteration times of one benchmark.
struct Timing {
    median: Duration,
    min: Duration,
}

/// Time `f` in [`BATCHES`] batches of an adaptively chosen iteration count,
/// print the median and minimum per iteration and return them.
fn bench(name: &str, mut f: impl FnMut()) -> Timing {
    let mut batch = |iters: u32| {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        start.elapsed()
    };
    // Warm-up and calibration: find an iteration count that runs ≥ 50 ms.
    let mut iters: u32 = 1;
    while batch(iters) < Duration::from_millis(50) && iters < 1 << 20 {
        iters *= 4;
    }
    let mut times: Vec<Duration> = (0..BATCHES).map(|_| batch(iters) / iters).collect();
    times.sort_unstable();
    let timing = Timing { median: times[BATCHES / 2], min: times[0] };
    println!(
        "{name:<45} {:>12.3?}/iter median, {:>12.3?} min  ({BATCHES} x {iters} iters)",
        timing.median, timing.min
    );
    timing
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
    let ns_per_event = |d: Duration| d.as_secs_f64() * 1e9 / events as f64;
    println!(
        "{name:<45} {:>12.1} ns/event median, {:.1} min",
        ns_per_event(per_run.median),
        ns_per_event(per_run.min)
    );
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
