//! Version identity and native-code sharing in multi-version builds.
//!
//! `compile` decides which policies share a version on the HIR, before it
//! lowers anything. These tests pin the grouping of every bundled app,
//! check the structural identity against the `Debug`-string fingerprint it
//! replaced (kept here as the oracle), and count the compiled block tables
//! so that a return to per-candidate builds fails without any timing.

use dynfb_apps::host::{standard_host, HostConfig};
use dynfb_apps::{barnes_hut, plasma, string_app, water};
use dynfb_compiler::artifact::VersionIdentity;
use dynfb_compiler::callgraph::{collect_calls_stmts, CallGraph};
use dynfb_compiler::commutativity::analyze_extent;
use dynfb_compiler::effects::EffectsMap;
use dynfb_compiler::lockplace::insert_default_regions;
use dynfb_compiler::native::NativeModule;
use dynfb_compiler::syncopt::{optimize, FnSet};
use dynfb_compiler::{compile, CompileOptions, CompiledApp, Policy};
use dynfb_lang::hir::{ExprKind, Function, Hir, Stmt};
use dynfb_sim::{PlanEntry, SectionKind};
use std::collections::HashMap;

/// The bundled apps: name, source and plan.
fn apps() -> [(&'static str, &'static str, Vec<PlanEntry>); 4] {
    [
        ("barnes-hut", barnes_hut::SOURCE, barnes_hut::BarnesHutConfig::default().plan()),
        ("water", water::SOURCE, water::WaterConfig::default().plan()),
        ("string", string_app::SOURCE, string_app::StringConfig::default().plan()),
        ("plasma", plasma::SOURCE, plasma::PlasmaConfig::default().plan()),
    ]
}

fn families() -> [(&'static str, Vec<Policy>); 2] {
    [("classic", Policy::ALL.to_vec()), ("family", Policy::family(2))]
}

fn build(name: &str, source: &str, plan: &[PlanEntry], policies: &[Policy]) -> CompiledApp {
    let hir = dynfb_lang::compile_source(source).unwrap_or_else(|e| panic!("{name}: {e}"));
    let options = CompileOptions::new(name, plan.to_vec()).with_policies(policies.to_vec());
    compile(hir, options, standard_host(&HostConfig::default()))
        .unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// Every candidate `compile` weighs: the parallel sections' function
/// indices and one optimized function table per policy, built by the
/// compiler's public passes in `compile`'s order.
fn candidates(hir: &Hir, plan: &[PlanEntry], policies: &[Policy]) -> (Vec<usize>, Vec<FnSet>) {
    let callgraph = CallGraph::build(hir);
    let effects = EffectsMap::build(hir, &callgraph);
    let mut sections: Vec<usize> = Vec::new();
    for e in plan.iter().filter(|e| e.kind == SectionKind::Parallel) {
        let f = hir.function_named(&e.name).expect("plan names a function").0;
        if !sections.contains(&f) {
            sections.push(f);
        }
    }
    let mut locked = hir.functions.clone();
    for &f in &sections {
        let report = analyze_extent(hir, &callgraph, &effects, loop_body(&hir.functions[f]));
        for u in &report.updaters {
            insert_default_regions(&mut locked[u.0]);
        }
    }
    let sets = policies
        .iter()
        .map(|&p| {
            let mut set = FnSet::new(locked.clone());
            optimize(&mut set, p, &sections);
            set
        })
        .collect();
    (sections, sets)
}

fn loop_body(f: &Function) -> &[Stmt] {
    let [Stmt::CountedFor { body, .. }] = f.body.as_slice() else {
        panic!("`{}` is not one counted loop", f.name);
    };
    body
}

/// The oracle: the `Debug`-string fingerprint `compile` grouped versions
/// by before identities became structural. The loop body, then each
/// reachable function's name and body in name order, with every reachable
/// `FuncId(i)` rendered as `Fn<name>`.
fn debug_fingerprint(funcs: &[Function], body: &[Stmt]) -> String {
    let mut reach = Vec::new();
    let mut seen = vec![false; funcs.len()];
    let mut stack = Vec::new();
    collect_calls_stmts(body, &mut stack);
    while let Some(f) = stack.pop() {
        if f.0 >= seen.len() || seen[f.0] {
            continue;
        }
        seen[f.0] = true;
        reach.push(f.0);
        collect_calls_stmts(&funcs[f.0].body, &mut stack);
    }
    reach.sort_unstable();
    let names: HashMap<usize, &str> = reach.iter().map(|&i| (i, funcs[i].name.as_str())).collect();
    let render = |s: &dyn std::fmt::Debug| -> String {
        let mut text = format!("{s:?}");
        // Longest ids first so `FuncId(1)` never clobbers `FuncId(12)`.
        let mut ids: Vec<&usize> = names.keys().collect();
        ids.sort_by_key(|i| std::cmp::Reverse(i.to_string().len()));
        for i in ids {
            text = text.replace(&format!("FuncId({i})"), &format!("Fn<{}>", names[i]));
        }
        text
    };
    let mut out = render(&body);
    reach.sort_by(|&a, &b| funcs[a].name.cmp(&funcs[b].name));
    for i in reach {
        out.push_str(&funcs[i].name);
        out.push_str(&render(&funcs[i].body));
    }
    out
}

#[test]
fn versions_group_policies_as_before() {
    let want: &[(&str, &str, &str, &str)] = &[
        ("classic", "barnes-hut", "forces", "original | bounded | aggressive"),
        ("classic", "water", "interf", "original | bounded+aggressive"),
        ("classic", "water", "poteng", "original | bounded | aggressive"),
        ("classic", "string", "trace_rays", "original | bounded+aggressive"),
        ("classic", "plasma", "advance", "original | bounded | aggressive"),
        (
            "family",
            "barnes-hut",
            "forces",
            "original+bounded4+bounded8+bounded16+bounded32 | bounded64 \
             | bounded128+bounded+hybrid2 | hybrid1+aggressive",
        ),
        (
            "family",
            "water",
            "interf",
            "original+bounded4+bounded8+bounded16+bounded32 | bounded64 \
             | bounded128+bounded+hybrid1+hybrid2+aggressive",
        ),
        (
            "family",
            "water",
            "poteng",
            "original+bounded4+bounded8 | bounded16+bounded32+bounded64+bounded128+bounded+hybrid2 \
             | hybrid1+aggressive",
        ),
        (
            "family",
            "string",
            "trace_rays",
            "original+bounded4+bounded8+bounded16 \
             | bounded32+bounded64+bounded128+bounded+hybrid1+hybrid2+aggressive",
        ),
        (
            "family",
            "plasma",
            "advance",
            "original+bounded4+bounded8+bounded16 | bounded32+bounded64 | bounded128+bounded \
             | hybrid1 | hybrid2 | aggressive",
        ),
    ];
    let mut got = Vec::new();
    for (family, policies) in families() {
        for (name, source, plan) in apps() {
            let app = build(name, source, &plan, &policies);
            let mut sections: Vec<&String> = app.sections().keys().collect();
            sections.sort();
            for s in sections {
                let names: Vec<&str> =
                    app.sections()[s].versions.iter().map(|v| v.name.as_str()).collect();
                got.push((family, name, s.clone(), names.join(" | ")));
            }
        }
    }
    let want: Vec<_> =
        want.iter().map(|&(f, a, s, v)| (f, a, s.to_string(), v.to_string())).collect();
    assert_eq!(got, want);
}

#[test]
fn identity_agrees_with_the_debug_fingerprint_on_every_pair() {
    let (mut same, mut differ) = (0, 0);
    for (_, policies) in families() {
        for (name, source, plan) in apps() {
            let hir = dynfb_lang::compile_source(source).unwrap();
            let (sections, sets) = candidates(&hir, &plan, &policies);
            for &f in &sections {
                let ids: Vec<VersionIdentity<'_>> = sets
                    .iter()
                    .map(|s| VersionIdentity::new(&s.functions, loop_body(&s.functions[f])))
                    .collect();
                let prints: Vec<String> = sets
                    .iter()
                    .map(|s| debug_fingerprint(&s.functions, loop_body(&s.functions[f])))
                    .collect();
                for i in 0..sets.len() {
                    for j in 0..sets.len() {
                        let (a, b) = (ids[i] == ids[j], prints[i] == prints[j]);
                        assert_eq!(a, b, "{name} section {f}: candidates {i} and {j}");
                        if a {
                            same += 1;
                        } else {
                            differ += 1;
                        }
                    }
                }
            }
        }
    }
    // Both outcomes occur, so the agreement is not vacuous.
    assert!(same > 0 && differ > 0, "{same} equal pairs, {differ} differing pairs");
}

/// A section whose loop calls `scale`, which multiplies by a `0.0` literal.
fn hand_made() -> (Vec<Function>, usize) {
    let hir = dynfb_lang::compile_source(
        "double scale(double x) { return x * 0.0; }
         void sec() { for (int i = 0; i < 4; i++) { scale(1.0); } }",
    )
    .unwrap();
    let sec = hir.function_named("sec").unwrap().0;
    (hir.functions, sec)
}

fn loop_body_mut(f: &mut Function) -> &mut Vec<Stmt> {
    let Some(Stmt::CountedFor { body, .. }) = f.body.last_mut() else {
        panic!("`{}` ends in a counted loop", f.name);
    };
    body
}

#[test]
fn a_clone_at_another_index_is_the_same_version() {
    let (funcs, sec) = hand_made();
    let scale = funcs.iter().position(|f| f.name == "scale").unwrap();
    let mut moved = funcs.clone();
    moved.push(funcs[scale].clone());
    let clone = moved.len() - 1;
    let [Stmt::Expr(call)] = loop_body_mut(&mut moved[sec]).as_mut_slice() else {
        panic!("one call statement");
    };
    let ExprKind::CallFn { func, .. } = &mut call.kind else { panic!("a call") };
    func.0 = clone;
    let (a, b) = (loop_body(&funcs[sec]), loop_body(&moved[sec]));
    assert!(VersionIdentity::new(&funcs, a) == VersionIdentity::new(&moved, b));
    assert_eq!(debug_fingerprint(&funcs, a), debug_fingerprint(&moved, b));
}

#[test]
fn negative_zero_is_another_version() {
    let (funcs, sec) = hand_made();
    let scale = funcs.iter().position(|f| f.name == "scale").unwrap();
    let mut negated = funcs.clone();
    let [Stmt::Return(Some(ret))] = negated[scale].body.as_mut_slice() else {
        panic!("one return");
    };
    let ExprKind::Binary { rhs, .. } = &mut ret.kind else { panic!("a product") };
    assert!(matches!(rhs.kind, ExprKind::Double(z) if z.to_bits() == 0.0f64.to_bits()));
    rhs.kind = ExprKind::Double(-0.0);
    let (a, b) = (loop_body(&funcs[sec]), loop_body(&negated[sec]));
    assert!(VersionIdentity::new(&funcs, a) != VersionIdentity::new(&negated, b));
    assert_ne!(debug_fingerprint(&funcs, a), debug_fingerprint(&negated, b));
    // Control: an untouched copy is the same version.
    let copy = funcs.clone();
    assert!(VersionIdentity::new(&funcs, a) == VersionIdentity::new(&copy, loop_body(&copy[sec])));
}

/// Distinct compiled block tables across every version of every section,
/// the serial versions included (they hold the serial build's tables):
/// each serial function once, plus per version its loop body and every
/// function no earlier build compiled the same way.
fn distinct_block_tables(app: &CompiledApp) -> usize {
    let mut seen: Vec<(&NativeModule, usize)> = Vec::new();
    for sc in app.sections().values() {
        for v in sc.versions.iter().chain([&sc.serial]) {
            let m = &*v.vm.native;
            for i in 0..m.num_funcs() {
                if !seen.iter().any(|&(n, j)| n.shares_code(j, m, i)) {
                    seen.push((m, i));
                }
            }
        }
    }
    seen.len()
}

/// A deterministic guard on build work: per-candidate builds, or versions
/// that stop sharing unchanged code, compile many more tables than this.
#[test]
fn each_function_is_compiled_once() {
    let want = [("barnes-hut", 25), ("water", 34), ("string", 17), ("plasma", 38)];
    let mut got = Vec::new();
    for (name, source, plan) in apps() {
        let app = build(name, source, &plan, &Policy::family(2));
        got.push((name, distinct_block_tables(&app)));
    }
    assert_eq!(got, want);
}
