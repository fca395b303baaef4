//! The compile path from `.ol` source to native kernels, as the benchmark
//! drives it.
//!
//! [`AppSpec`] holds what each `dynfb_apps` constructor passes to the
//! compiler, so the benchmark can build the same app stage by stage: parse,
//! sema, then the whole `compile()` call, each in its own span. The output
//! check compares the result with the apps' own constructors run on the
//! tree-walking tier, so a drift between the two shows as a failed job.
//!
//! [`pass_breakdown`] calls the compiler's public passes one by one, in
//! `compile()`'s order, to split compile time by pass.

use crate::spans::Tracer;
use dynfb_apps::host::{standard_host, HostConfig};
use dynfb_apps::{barnes_hut, plasma, string_app, water};
use dynfb_compiler::callgraph::CallGraph;
use dynfb_compiler::commutativity::analyze_extent;
use dynfb_compiler::effects::EffectsMap;
use dynfb_compiler::lockplace::insert_default_regions;
use dynfb_compiler::native::compile_native;
use dynfb_compiler::syncopt::{optimize, FnSet};
use dynfb_compiler::vm::{lower_body, lower_functions};
use dynfb_compiler::{compile, CompileOptions, CompiledApp, CostModel, Policy};
use dynfb_lang::hir::{Function, Hir, Stmt, Ty};
use dynfb_sim::{PlanEntry, SectionKind};
use std::time::Duration;

/// One application instance: source, plan, host inputs and lock pool.
#[derive(Debug, Clone)]
pub struct AppSpec {
    /// Application name.
    pub name: &'static str,
    /// Mini-language source.
    pub source: &'static str,
    /// Execution plan.
    pub plan: Vec<PlanEntry>,
    /// Host inputs (seeded `urand`, integer and float parameters).
    pub host: HostConfig,
    /// Lock-pool size, or `None` for the compiler's default.
    pub max_objects: Option<usize>,
}

impl AppSpec {
    /// Barnes-Hut with `bodies` bodies and `steps` steps.
    #[must_use]
    pub fn barnes_hut(bodies: usize, steps: usize, seed: u64) -> Self {
        let cfg = barnes_hut::BarnesHutConfig { bodies, steps, seed, ..Default::default() };
        AppSpec {
            name: "barnes-hut",
            source: barnes_hut::SOURCE,
            plan: cfg.plan(),
            host: HostConfig {
                seed,
                iparams: vec![bodies as i64],
                dparams: vec![cfg.theta, 0.02],
                ..HostConfig::default()
            },
            max_objects: Some(bodies * (3 * steps + 2) + 64),
        }
    }

    /// Water with `molecules` molecules and `steps` steps.
    #[must_use]
    pub fn water(molecules: usize, steps: usize, seed: u64) -> Self {
        let cfg = water::WaterConfig { molecules, steps, seed, ..Default::default() };
        AppSpec {
            name: "water",
            source: water::SOURCE,
            plan: cfg.plan(),
            host: HostConfig {
                seed,
                iparams: vec![molecules as i64, cfg.edepth as i64],
                kernel_cost: Duration::from_nanos(1200),
                ..HostConfig::default()
            },
            max_objects: Some(molecules + 16),
        }
    }

    /// String at its default size.
    #[must_use]
    pub fn string(seed: u64) -> Self {
        let c = string_app::StringConfig { seed, ..Default::default() };
        AppSpec {
            name: "string",
            source: string_app::SOURCE,
            plan: c.plan(),
            host: HostConfig {
                seed,
                iparams: vec![c.nx as i64, c.nz as i64, c.rays as i64, c.steps_per_ray as i64],
                ..HostConfig::default()
            },
            max_objects: Some(c.nx * c.nz + c.rays + 16),
        }
    }

    /// Plasma at its default size.
    #[must_use]
    pub fn plasma(seed: u64) -> Self {
        let c = plasma::PlasmaConfig { seed, ..Default::default() };
        AppSpec {
            name: "plasma",
            source: plasma::SOURCE,
            plan: c.plan(),
            host: HostConfig {
                seed,
                iparams: vec![c.cells as i64, c.movers as i64, c.steps as i64],
                ..HostConfig::default()
            },
            max_objects: None,
        }
    }

    fn options(&self, policies: &[Policy]) -> CompileOptions {
        let mut options =
            CompileOptions::new(self.name, self.plan.clone()).with_policies(policies.to_vec());
        if let Some(n) = self.max_objects {
            options.max_objects = n;
        }
        options
    }
}

/// Build `spec` from source with `policies`, in spans `lang.parse`,
/// `lang.sema` and `compiler.compile`. Returns the app and its HIR.
///
/// # Panics
///
/// Panics if a bundled program fails to compile: the apps' own tests cover
/// that, so it is a bug, not a benchmark outcome.
pub fn build(spec: &AppSpec, policies: &[Policy], t: &mut Tracer) -> (CompiledApp, Hir) {
    let ast = t.span("lang.parse", |_| dynfb_lang::parse(spec.source)).expect("bundled source");
    let hir = t.span("lang.sema", |_| dynfb_lang::analyze(&ast)).expect("bundled source");
    let host = standard_host(&spec.host);
    let options = spec.options(policies);
    let kept = hir.clone();
    let app = t.span("compiler.compile", |_| compile(hir, options, host)).expect("bundled source");
    (app, kept)
}

/// Compile `hir` pass by pass, in `compile()`'s order, each pass in its own
/// span: `compiler.callgraph`, `.effects`, `.commutativity`, `.lockplace`,
/// `.syncopt` (every policy), `.lower` and `.native` (every version of every
/// parallel section, its serial version, and the serial function table).
pub fn pass_breakdown(hir: &Hir, plan: &[PlanEntry], policies: &[Policy], t: &mut Tracer) {
    let cost = CostModel::default();
    let callgraph = t.span("compiler.callgraph", |_| CallGraph::build(hir));
    let effects = t.span("compiler.effects", |_| EffectsMap::build(hir, &callgraph));
    let mut sections: Vec<usize> = Vec::new();
    for e in plan.iter().filter(|e| e.kind == SectionKind::Parallel) {
        let f = hir.function_named(&e.name).expect("plan names a function").0;
        if !sections.contains(&f) {
            sections.push(f);
        }
    }
    let reports = t.span("compiler.commutativity", |_| {
        sections
            .iter()
            .map(|&f| {
                let [Stmt::CountedFor { body, .. }] = hir.functions[f].body.as_slice() else {
                    panic!("parallel section `{}` is one counted loop", hir.functions[f].name);
                };
                analyze_extent(hir, &callgraph, &effects, body)
            })
            .collect::<Vec<_>>()
    });
    let locked = t.span("compiler.lockplace", |_| {
        let mut locked = hir.functions.clone();
        for u in reports.iter().flat_map(|r| &r.updaters) {
            insert_default_regions(&mut locked[u.0]);
        }
        locked
    });
    let sets = t.span("compiler.syncopt", |_| {
        policies
            .iter()
            .map(|&p| {
                let mut set = FnSet::new(locked.clone());
                optimize(&mut set, p, &sections);
                set
            })
            .collect::<Vec<_>>()
    });
    let modules = t.span("compiler.lower", |_| {
        let lower = |funcs: &[Function], f: usize| {
            let [Stmt::CountedFor { body, .. }] = funcs[f].body.as_slice() else {
                unreachable!("policies keep the loop shape");
            };
            let locals: Vec<Ty> = funcs[f].locals.iter().map(|l| l.ty.clone()).collect();
            let mut module = lower_functions(funcs);
            module.funcs.push(lower_body("$body", body, &locals));
            module
        };
        let mut modules = Vec::new();
        for &f in &sections {
            modules.extend(sets.iter().map(|s| lower(&s.functions, f)));
            modules.push(lower(&hir.functions, f));
        }
        modules.push(lower_functions(&hir.functions));
        modules
    });
    t.span("compiler.native", |_| {
        for m in &modules {
            std::hint::black_box(compile_native(m, &cost));
        }
    });
}

/// `(versions, code bytes)` of a compiled app, over all parallel sections.
#[must_use]
pub fn code_size(app: &CompiledApp) -> (u64, u64) {
    let sizes = app.version_code_sizes();
    (sizes.len() as u64, sizes.iter().map(|(_, _, b)| *b as u64).sum())
}
