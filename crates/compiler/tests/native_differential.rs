//! Differential fuzz: the fused-closure native tier versus the
//! tree-walking oracle.
//!
//! The native tier's block-local optimizer (copy/constant propagation,
//! dead-store elimination, charge folding) rewrites the register file
//! aggressively, so this suite checks the full determinism contract:
//!
//! 1. **Function level** — seeded random programs (loops, conditionals,
//!    heap traffic, method and extern calls, occasional runtime errors)
//!    executed by both tiers, with and without compiler-inserted critical
//!    regions. Return value, final heap, globals, error messages, and the
//!    exact `OpSink` step sequence must match.
//! 2. **Application level** — the end-to-end n-body app executed under
//!    seeded random `RunConfig`s (static/instrumented/dynamic/async modes,
//!    watchdogs, fault plans) once per tier. Machine statistics, section
//!    records, final heap, and globals must match.

use dynfb_compiler::artifact::{compile, CompileOptions, CompiledApp};
use dynfb_compiler::interp::{
    CostModel, Heap, HostRegistry, Interp, ProgramEnv, RuntimeError, Value,
};
use dynfb_compiler::lockplace::insert_default_regions;
use dynfb_compiler::native::{compile_native, NativeExec};
use dynfb_compiler::vm::lower_functions;
use dynfb_compiler::ExecTier;
use dynfb_core::controller::ControllerConfig;
use dynfb_core::rng::SplitMix64;
use dynfb_lang::hir::{Expr, Function, Hir, Stmt};
use dynfb_sim::{
    run_app_ref, ChaosProfile, FaultPlan, LockId, Machine, OpSink, PlanEntry, RunConfig, RunMode,
    Step,
};
use std::time::Duration;

// ---------------------------------------------------------------------------
// Function-level fuzz
// ---------------------------------------------------------------------------

/// Shared scaffolding every generated program starts from: globals, a
/// lockable class with update methods, an extern, and a `test` driver with
/// a pool of pre-declared locals the random statements reference.
const PRELUDE: &str = "
    extern double mix2(double, double);
    int gi;
    double gd;
    class cell {
        int a;
        double b;
        bool f;
        void bump(int n) { this.a += n; gi = gi + 1; }
        void scale(double f) { this.b = this.b * f + 1.0; gd += f; }
        int get() { return this.a; }
        double settle(double v) {
            if (v > this.b) { gd = gd + v; return v - 1.0; }
            this.a += 1;
            return this.b;
        }
        double pick(double v) { double r; if (v > 1.0) { r = v; } return r + 0.5; }
    }
    int test(int n) {
        int acc = n;
        int j = 0;
        double x = 1.5;
        double z = 0.0;
        bool p = false;
        bool q = true;
        cell c = new cell();
        cell nullc = null;
        cell[] cells = new cell[4];
        for (int i = 0; i < 4; i++) { cells[i] = new cell(); }
        cell d = cells[1];
";

/// Append 3–8 random statements drawn from templates that exercise every
/// instruction class — including patterns the native optimizer folds
/// (constant conditions, copy chains, dead accumulator writes), the edge
/// cases of the typed int/double kernels, the fused field, read-modify-write
/// and compare-and-branch kernels, calls the native tier inlines, and
/// low-probability error paths.
/// NaN never reaches a global, field or the result: `Value` equality would
/// report two agreeing NaNs as a mismatch.
fn gen_program(rng: &mut SplitMix64) -> String {
    let mut src = String::from(PRELUDE);
    let n_stmts = 3 + rng.gen_index(6);
    for _ in 0..n_stmts {
        let k = 1 + rng.gen_range_i64(0, 9);
        let m = 2 + rng.gen_range_i64(0, 12);
        let idx = rng.gen_index(4);
        let stmt = match rng.gen_index(22) {
            0 => format!("acc = acc + {k};\n"),
            1 => format!(
                "for (int i = 0; i < {m}; i++) {{ acc += i * {k}; cells[i % 4].bump(i); }}\n"
            ),
            2 => format!(
                "if (acc % 2 == 0) {{ x = x * 1.25; }} else {{ acc -= {k}; gd = gd + x; }}\n"
            ),
            3 => format!("j = {m}; while (j > 0) {{ j = j - 1; c.scale(0.5); }}\n"),
            4 => "x = mix2(x, acc * 0.25);\n".to_string(),
            5 => format!("acc = acc + c.get() + cells[{}].get();\n", rng.gen_index(4)),
            6 => format!("gi = gi + acc % {k}; c.bump(gi);\n"),
            7 => format!("x = -x + {k} * 0.5; acc = acc + cells.length;\n"),
            // Constant-foldable condition and a dead local write: the
            // native tier folds/deletes these, the other tiers run them.
            8 => format!("j = {k}; if ({k} > 0) {{ acc = acc + j; }} j = 0;\n"),
            9 => "j = acc; acc = j + j; j = 0;\n".to_string(),
            // Errors iff `acc % {m}` happens to be zero here.
            10 => format!("acc = {k} + acc / (acc % {m});\n"),
            // Errors iff the guard happens to hold.
            11 => format!("if (acc > {}) {{ acc = nullc.get(); }}\n", 40 + k * 7),
            // NaN comparisons, from a folded constant and from a register,
            // and the signed zeros.
            12 => format!(
                "z = 0.0 / 0.0; p = z < x || z >= x; q = z == z;
                 if (!p && !q) {{ acc = acc + {k}; }}
                 z = (x - x) / 0.0; if (z != z && !(z <= x) && !(z > x)) {{ acc = acc + 1; }}
                 z = -0.0; if (z == 0.0 && !(z < 0.0)) {{ acc = acc + {m}; }}
                 z = x * -0.0; p = z != 0.0; z = 0.0;\n"
            ),
            // i64 wrapping at the edge: `+`, `*` and `-` past i64::MAX.
            13 => format!(
                "j = acc + 9223372036854775807; p = j < acc;
                 j = j * {k} - 9223372036854775807;
                 if (p || j >= 9223372036854775806) {{ acc = acc + j % 7; }} j = 0;\n"
            ),
            // Comparison results in bool locals and fields, combined.
            14 => format!(
                "p = x > 1.0; c.f = acc >= {k}; q = p && c.f || !p;
                 if (q || c.f && p) {{ acc = acc + 1; }} cells[{idx}].f = q != p;\n"
            ),
            // Mixed int/double arithmetic through sema's int-to-double
            // coercions.
            15 => format!(
                "x = x + acc / 2 * 0.5 - j; if (acc < x || acc * 1.5 >= x + {k}) {{ acc = acc + 2; }}
                 gd = gd + acc / {k}.0;\n"
            ),
            // Two field operands in one kernel, and a loaded local that is
            // read again after the load's first consumer. The null read is
            // the second load here and the first in the next template.
            16 => format!(
                "c.b = x; d.b = {k}.5; x = x + (c.b - d.b);
                 d.b = x + {k}.0; z = d.b; x = x + z * 0.5 + z; z = 0.0;
                 if (acc > {}) {{ x = c.b - nullc.b; }}\n",
                40 + k * 7
            ),
            17 => format!(
                "x = c.b * cells[{idx}].b + x;
                 if (acc > {}) {{ x = nullc.b - c.b; }}\n",
                40 + k * 7
            ),
            // Read-modify-write kernels, the last one on a null object.
            18 => format!(
                "c.b -= x; c.b = {k}.5 - c.b; cells[{idx}].b -= {k}.0; c.a *= 2;
                 if (acc > {}) {{ nullc.b += x; }}\n",
                40 + k * 7
            ),
            // A comparison whose bool is read again after its branch.
            19 => format!(
                "p = x < z; if (p) {{ acc = acc + {k}; }} q = p;
                 if (q != (x < z)) {{ acc = acc - 1000; }}\n"
            ),
            // An inlined leaf with two returns, the first inside a critical
            // region (see `lock_early_return`), and two inlined calls of a
            // leaf that reads a local it may not have assigned.
            20 => format!(
                "x = c.settle(x * 0.5); z = cells[{idx}].settle({k}.0);
                 z = c.pick(x + {k}.0) + d.pick(0.5); x = x + z; z = 0.0;\n"
            ),
            // `==`/`!=` on doubles and on references, `null` included.
            _ => format!(
                "if (x == 1.5 || x != x + 0.0) {{ acc = acc + 3; }}
                 if (c != null && nullc == null && cells[{idx}] != c) {{ acc = acc + 1; }}
                 p = c == cells[{idx}] || null != nullc; if (p) {{ acc = acc - 1; }}\n"
            ),
        };
        src.push_str(&stmt);
    }
    src.push_str("return acc + c.get();\n}\n");
    src
}

/// Wrap the first statement of `cell.settle` — the `if` holding its early
/// `return` — in a critical region on `this`: default placement never puts
/// a `return` inside a region, and the lowering must release the lock on
/// that path even when the method is inlined.
fn lock_early_return(hir: &mut Hir) {
    let f = hir.functions.iter_mut().find(|f| f.name == "settle").expect("prelude method");
    let class = f.class.expect("a method");
    let early = f.body.remove(0);
    assert!(matches!(early, Stmt::If { .. }), "settle starts with its early return");
    f.body.insert(
        0,
        Stmt::Critical {
            lock_obj: Expr::this(class),
            body: vec![early],
            regions: vec!["settle#early".to_string()],
        },
    );
}

fn host() -> HostRegistry {
    let mut host = HostRegistry::new();
    host.register("mix2", Duration::from_nanos(120), |args| {
        Value::Double(args[0].as_double().unwrap() * 0.5 + args[1].as_double().unwrap())
    });
    host
}

fn fresh_env(hir: &dynfb_lang::hir::Hir) -> ProgramEnv {
    ProgramEnv {
        classes: hir.classes.clone(),
        externs: hir.externs.clone(),
        globals: hir.globals.iter().map(|g| Value::default_for(&g.ty)).collect(),
        heap: Heap::default(),
        host: host(),
    }
}

fn lock_base(n: usize) -> LockId {
    let mut m = Machine::new(dynfb_sim::MachineConfig::default());
    m.add_locks(n)
}

struct TierOutcome {
    result: Result<Value, RuntimeError>,
    steps: Vec<Step>,
    globals: Vec<Value>,
    heap: Heap,
}

fn run_tier(
    hir: &dynfb_lang::hir::Hir,
    funcs: &[Function],
    func: usize,
    base: LockId,
    arg: i64,
    fuel: u64,
    tier: ExecTier,
) -> TierOutcome {
    let mut env = fresh_env(hir);
    let mut sink = OpSink::default();
    let result = match tier {
        ExecTier::Tree => Interp {
            env: &mut env,
            funcs,
            cost: CostModel::default(),
            sink: &mut sink,
            lock_base: base,
            lock_capacity: 1024,
            fuel,
        }
        .call(func, None, vec![Value::Int(arg)]),
        ExecTier::Native => {
            let module = lower_functions(funcs);
            let native = compile_native(&module, &CostModel::default());
            let mut regs = Vec::new();
            NativeExec {
                env: &mut env,
                module: &native,
                sink: &mut sink,
                lock_base: base,
                lock_capacity: 1024,
                fuel,
                regs: &mut regs,
            }
            .call(func, None, &[Value::Int(arg)])
        }
    };
    TierOutcome {
        result,
        steps: sink.into_steps().into_iter().collect(),
        globals: env.globals,
        heap: env.heap,
    }
}

/// Assert the native tier agrees with the oracle outcome. Returns `true`
/// on the success path, `false` on a (matching) error path.
fn assert_agrees(oracle: &TierOutcome, native: &TierOutcome, label: &str) -> bool {
    match (&oracle.result, &native.result) {
        (Ok(ov), Ok(nv)) => {
            assert_eq!(ov, nv, "{label}: return value");
            assert_eq!(oracle.steps, native.steps, "{label}: step sequence");
            assert_eq!(oracle.globals, native.globals, "{label}: globals");
            assert_eq!(oracle.heap.arrays, native.heap.arrays, "{label}: arrays");
            assert_eq!(
                oracle.heap.objects.len(),
                native.heap.objects.len(),
                "{label}: object count"
            );
            for (a, b) in oracle.heap.objects.iter().zip(&native.heap.objects) {
                assert_eq!(a.class, b.class, "{label}: object class");
                assert_eq!(a.fields, b.fields, "{label}: object fields");
            }
            true
        }
        (Err(oe), Err(ne)) => {
            // On an error path the tiers agree on the diagnosis; partial
            // sink contents legitimately differ (batched vs per-node
            // charging) and the runtime discards them.
            assert_eq!(oe.message, ne.message, "{label}: error message");
            false
        }
        (o, v) => panic!("{label}: tier disagreement — oracle: {o:?}, native: {v:?}"),
    }
}

/// Seeded streams of the function-level fuzz: 60 programs each.
const PROGRAM_SEEDS: [u64; 2] = [0xD1FF_F00D, 0x5EED_0B1E];

#[test]
fn random_programs_agree_with_the_tree_walker() {
    for seed in PROGRAM_SEEDS {
        random_programs_agree(seed);
    }
}

fn random_programs_agree(seed: u64) {
    let mut rng = SplitMix64::new(seed);
    let base = lock_base(1024);
    let mut oks = 0usize;
    let mut errs = 0usize;
    let mut locked_steps = 0usize;
    for case in 0..60 {
        let src = gen_program(&mut rng);
        let mut hir = dynfb_lang::compile_source(&src).unwrap_or_else(|e| {
            panic!("seed {seed:#x} case {case}: generator emitted invalid source: {e}\n{src}")
        });
        lock_early_return(&mut hir);
        let func = hir.function_named("test").expect("driver").0;
        let arg = rng.gen_range_i64(0, 48);
        let fuel = 10_000_000;

        // Plain program, as the front end produced it (plus the one
        // region `lock_early_return` adds).
        let tree = run_tier(&hir, &hir.functions, func, base, arg, fuel, ExecTier::Tree);
        let native = run_tier(&hir, &hir.functions, func, base, arg, fuel, ExecTier::Native);
        if assert_agrees(&tree, &native, &format!("seed {seed:#x} case {case} (plain)")) {
            oks += 1;
        } else {
            errs += 1;
        }

        // Same program after default lock placement in every method, so
        // the fuzz also covers critical-region (acquire/release) parity —
        // including early `return` out of a region.
        let mut locked: Vec<Function> = hir.functions.clone();
        for f in &mut locked {
            if f.class.is_some() {
                insert_default_regions(f);
            }
        }
        let tree = run_tier(&hir, &locked, func, base, arg, fuel, ExecTier::Tree);
        let native = run_tier(&hir, &locked, func, base, arg, fuel, ExecTier::Native);
        assert_agrees(&tree, &native, &format!("seed {seed:#x} case {case} (locked)"));
        locked_steps +=
            tree.steps.iter().filter(|s| matches!(s, Step::Acquire(_) | Step::Release(_))).count();
    }
    // The generator must actually exercise both outcomes and lock traffic,
    // otherwise the suite silently degenerates.
    assert!(oks >= 20, "seed {seed:#x}: too few successful cases ({oks})");
    assert!(errs >= 3, "seed {seed:#x}: too few error cases ({errs})");
    assert!(locked_steps > 100, "seed {seed:#x}: too little lock traffic");
}

/// Tight random fuel budgets land the exhaustion point inside batched
/// charge prologues at many different offsets; the boundary (consumed
/// fuel, partial sink up to the boundary, error message) must bisect to
/// exactly the per-node tiers' behavior.
#[test]
fn random_fuel_budgets_bisect_identically() {
    let mut rng = SplitMix64::new(0xF0E1_BEEF);
    let base = lock_base(1024);
    let mut exhausted = 0usize;
    for case in 0..40 {
        let src = gen_program(&mut rng);
        let mut hir = dynfb_lang::compile_source(&src).unwrap_or_else(|e| {
            panic!("case {case}: generator emitted invalid source: {e}\n{src}")
        });
        lock_early_return(&mut hir);
        let func = hir.function_named("test").expect("driver").0;
        let arg = rng.gen_range_i64(0, 48);
        let fuel = rng.gen_range_i64(1, 400) as u64;

        let tree = run_tier(&hir, &hir.functions, func, base, arg, fuel, ExecTier::Tree);
        let native = run_tier(&hir, &hir.functions, func, base, arg, fuel, ExecTier::Native);
        assert_agrees(&tree, &native, &format!("case {case} (fuel {fuel})"));
        if tree.result.is_err() {
            exhausted += 1;
        }
    }
    assert!(exhausted >= 10, "too few fuel-exhausted cases ({exhausted})");
}

// ---------------------------------------------------------------------------
// Application-level fuzz
// ---------------------------------------------------------------------------

const NBODY_SRC: &str = r#"
    extern double interact(double, double);

    class body {
        double pos;
        double phi;
        double acc;

        void one_interaction(body b) {
            double val = interact(this.pos, b.pos);
            this.phi += val;
            double scaled = val * 0.5;
            this.acc += scaled;
        }

        void all_interactions(body[] all, int n) {
            for (int j = 0; j < n; j++) {
                this.one_interaction(all[j]);
            }
        }
    }

    body[] bodies;
    int nbodies;

    void init() {
        nbodies = 24;
        bodies = new body[nbodies];
        for (int i = 0; i < nbodies; i++) {
            body b = new body();
            b.pos = i * 1.5;
            bodies[i] = b;
        }
    }

    void forces() {
        for (int i = 0; i < nbodies; i++) {
            bodies[i].all_interactions(bodies, nbodies);
        }
    }
"#;

fn build_nbody(tier: ExecTier) -> CompiledApp {
    let hir = dynfb_lang::compile_source(NBODY_SRC).expect("front end");
    let plan = vec![PlanEntry::serial("init"), PlanEntry::parallel("forces")];
    let mut options = CompileOptions::new("nbody", plan);
    options.max_objects = 64;
    let mut host = HostRegistry::new();
    host.register("interact", Duration::from_nanos(400), |args| {
        let a = args[0].as_double().unwrap();
        let b = args[1].as_double().unwrap();
        Value::Double(1.0 / (1.0 + (a - b).abs()))
    });
    let mut app = compile(hir, options, host).expect("compiles");
    app.set_exec_tier(tier);
    app
}

/// Draw a random but valid `RunConfig` from the stream (static, static
/// instrumented, dynamic, or async-dynamic; optional watchdog and faults).
fn random_config(rng: &mut SplitMix64) -> RunConfig {
    let procs = 1 + rng.gen_index(8);
    let mut cfg = match rng.gen_index(4) {
        0 => {
            let policy = ["original", "bounded", "aggressive", "serial"][rng.gen_index(4)];
            let mut cfg = RunConfig::fixed(procs, policy);
            if rng.chance(0.5) {
                cfg.mode = RunMode::Static { policy: policy.to_string(), instrumented: true };
            }
            cfg
        }
        mode => {
            let ctl = ControllerConfig {
                num_policies: 3,
                target_sampling: Duration::from_micros(100 + rng.gen_range_i64(0, 900) as u64),
                target_production: Duration::from_millis(2 + rng.gen_range_i64(0, 30) as u64),
                ..ControllerConfig::default()
            };
            let mut cfg = if mode == 3 {
                let mut c = RunConfig::dynamic(procs, ctl.clone());
                c.mode = RunMode::DynamicAsync(ctl);
                c
            } else {
                RunConfig::dynamic(procs, ctl)
            };
            cfg.span_intervals = rng.chance(0.3);
            if rng.chance(0.3) {
                cfg = cfg.with_watchdog(4 + rng.gen_index(8) as u32);
            }
            cfg
        }
    };
    if rng.chance(0.4) {
        let profile = ChaosProfile {
            horizon: Duration::from_millis(5 + rng.gen_range_i64(0, 40) as u64),
            procs,
            locks: 64,
            events: 1 + rng.gen_index(3),
        };
        cfg = cfg.with_faults(FaultPlan::random(rng.next_u64(), &profile));
    }
    cfg
}

/// Seeded streams of the application-level fuzz: 16 configs each.
const CONFIG_SEEDS: [u64; 2] = [0x3A71_4E00, 0xB17E_C0DE];

#[test]
fn compiled_app_agrees_with_the_tree_walker_on_seeded_random_configs() {
    for seed in CONFIG_SEEDS {
        let mut rng = SplitMix64::new(seed);
        for case in 0..16 {
            let cfg = random_config(&mut rng);
            let label = format!("seed {seed:#x} case {case}");
            let mut native = build_nbody(ExecTier::Native);
            let native_report = run_app_ref(&mut native, &cfg)
                .unwrap_or_else(|e| panic!("{label}: native tier failed: {e} ({cfg:?})"));
            let mut oracle = build_nbody(ExecTier::Tree);
            let oracle_report = run_app_ref(&mut oracle, &cfg)
                .unwrap_or_else(|e| panic!("{label}: oracle tier failed: {e} ({cfg:?})"));

            // Identical machine statistics imply identical overhead samples
            // and timings; section records carry the policy-switch traces.
            assert_eq!(native_report.stats, oracle_report.stats, "{label}: stats ({cfg:?})");
            assert_eq!(
                native_report.sections, oracle_report.sections,
                "{label}: section records ({cfg:?})"
            );

            // The program state the two tiers computed must be identical too.
            assert_eq!(native.globals(), oracle.globals(), "{label}: globals");
            assert_eq!(native.heap().arrays, oracle.heap().arrays, "{label}: arrays");
            assert_eq!(
                native.heap().objects.len(),
                oracle.heap().objects.len(),
                "{label}: object count"
            );
            for (a, b) in native.heap().objects.iter().zip(&oracle.heap().objects) {
                assert_eq!(a.fields, b.fields, "{label}: object fields");
            }
        }
    }
}

#[test]
fn tier_switch_round_trips() {
    let mut app = build_nbody(ExecTier::Native);
    assert_eq!(app.exec_tier(), ExecTier::Native);
    app.set_exec_tier(ExecTier::Tree);
    assert_eq!(app.exec_tier(), ExecTier::Tree);
    let cfg = RunConfig::fixed(4, "original");
    let a = run_app_ref(&mut app, &cfg).unwrap();
    app.set_exec_tier(ExecTier::Native);
    let b = run_app_ref(&mut app, &cfg).unwrap();
    // Switching tiers between runs of the *same* app instance does not
    // change simulation results (state carries over identically: the
    // second run re-runs init on the already-populated heap either way).
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.sections, b.sections);
}
