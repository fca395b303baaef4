//! The compiled application artifact.
//!
//! [`compile`] drives the whole pipeline of the paper's compiler:
//!
//! 1. front end (done by `dynfb-lang`) — the input here is a typed [`Hir`];
//! 2. call-graph and effect analysis;
//! 3. commutativity analysis of every parallel-section candidate loop
//!    (§2): the section is rejected if its operations do not provably
//!    commute;
//! 4. automatic insertion of per-object mutual-exclusion regions (default
//!    lock placement);
//! 5. synchronization optimization under each policy (*Original*,
//!    *Bounded*, *Aggressive*, §3), producing one code version per policy;
//! 6. multi-version packaging: policies whose generated code for a
//!    section is identical share one version (the paper's closed-subgraph
//!    sharing keeps the Table 1 code growth small), plus an
//!    unsynchronized *serial* version of everything. Identity is decided
//!    on the HIR ([`VersionIdentity`]) before anything is built, so each
//!    distinct version is lowered and compiled once, and its native code
//!    reuses every function the serial build or an earlier version
//!    already compiled the same way.
//!
//! The result, [`CompiledApp`], implements `dynfb_sim`'s [`SimApp`], so a
//! compiled program runs directly on the simulated multiprocessor under
//! any static policy or under dynamic feedback.

use crate::callgraph::{calls_in, dfs, CallGraph};
use crate::commutativity::{analyze_extent, CommutativityReport};
use crate::effects::EffectsMap;
use crate::interp::{CostModel, Heap, HostRegistry, Interp, ProgramEnv, Value};
use crate::lockplace::insert_default_regions;
use crate::native::{compile_native, compile_native_reusing, NativeExec, NativeModule};
use crate::syncopt::{optimize, FnSet, Policy};
use crate::vm::{lower_body, lower_functions, VmModule};
use dynfb_lang::hir::{
    body_size, visit_stmts, Expr, ExprKind, FuncId, Function, Hir, LocalId, Place, Stmt, Ty,
};
use dynfb_sim::{LockId, Machine, OpSink, PlanEntry, SectionKind, SimApp};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Bytes per HIR node for the code-size metric (Table 1 analog).
const NODE_BYTES: usize = 8;
/// Fixed per-function overhead in the code-size metric (prologue etc.).
const FUNC_BYTES: usize = 32;

/// Compilation options.
#[derive(Debug, Clone)]
pub struct CompileOptions {
    /// Application name.
    pub name: String,
    /// Execution plan: which section functions run, in what order.
    pub plan: Vec<PlanEntry>,
    /// Upper bound on live objects (sizes the per-object lock pool).
    pub max_objects: usize,
    /// Interpreter cost model.
    pub cost: CostModel,
    /// Evaluation fuel per serial section / loop iteration.
    pub fuel: u64,
    /// The policy family to multi-version, in sampling order (duplicates
    /// are dropped, structural duplicates share a version). Defaults to
    /// the paper's classic triple; a representative subset selected by
    /// `dynfb_core::repset` can be passed instead.
    pub policies: Vec<Policy>,
}

impl CompileOptions {
    /// Sensible defaults for an app with the given name and plan.
    #[must_use]
    pub fn new(name: &str, plan: Vec<PlanEntry>) -> Self {
        CompileOptions {
            name: name.to_string(),
            plan,
            max_objects: 1 << 16,
            cost: CostModel::default(),
            fuel: 1 << 32,
            policies: Policy::ALL.to_vec(),
        }
    }

    /// Builder-style: replace the policy family to multi-version.
    #[must_use]
    pub fn with_policies(mut self, policies: Vec<Policy>) -> Self {
        self.policies = policies;
        self
    }
}

/// Compilation errors.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// A plan entry references a function that does not exist (or has
    /// parameters — section functions must be nullary).
    BadSection(String),
    /// A parallel section's body is not a single counted loop.
    SectionShape(String),
    /// The commutativity analysis rejected the section's loop.
    NotParallelizable {
        /// The section.
        section: String,
        /// Diagnostics from the analysis.
        reasons: Vec<String>,
    },
    /// An `extern` has no registered host implementation.
    MissingHostFn(String),
    /// The compile options named no policies to multi-version.
    NoPolicies,
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::BadSection(s) => {
                write!(f, "section `{s}` is not a nullary free function")
            }
            CompileError::SectionShape(s) => {
                write!(f, "parallel section `{s}` must consist of exactly one counted for-loop")
            }
            CompileError::NotParallelizable { section, reasons } => {
                write!(f, "section `{section}` is not parallelizable: {}", reasons.join("; "))
            }
            CompileError::MissingHostFn(name) => {
                write!(f, "extern `{name}` has no host implementation")
            }
            CompileError::NoPolicies => {
                write!(f, "compile options must name at least one policy")
            }
        }
    }
}

impl std::error::Error for CompileError {}

/// Lowered bytecode of one section version and its native code.
#[derive(Debug, Clone)]
pub struct VmCode {
    /// Module with one lowered function per [`VersionCode::functions`]
    /// entry (same indices), plus the iteration body appended as a
    /// pseudo-function.
    pub module: VmModule,
    /// Index of the iteration-body pseudo-function in `module`.
    pub body_fn: usize,
    /// `module` compiled to fused closures (the native tier; same
    /// function indices). Shared, because version code is cloneable but
    /// the fused closures are immutable once built.
    pub native: Arc<NativeModule>,
}

/// Source-level critical-region provenance for one lock class in one code
/// version: which default regions (named at lock placement, `"{method}#{k}"`)
/// guard objects of that class after the policy's transformations ran.
/// Coalesced regions list every constituent source region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionInfo {
    /// Name of the class whose per-object lock the regions acquire.
    pub class: String,
    /// Source-region tags, in first-appearance order, deduplicated.
    pub sources: Vec<String>,
}

/// Collect per-class region provenance from a statement list (one entry per
/// lock class, sources unioned in first-appearance order). Returns the
/// number of critical statements visited, which `compile` asserts against
/// [`syncopt::count_regions`] — the two walkers must agree on what a
/// region is, or per-region metrics would silently mis-attribute.
fn collect_regions(
    stmts: &[Stmt],
    classes: &[dynfb_lang::hir::Class],
    out: &mut Vec<RegionInfo>,
) -> usize {
    let mut visited = 0;
    visit_stmts(stmts, &mut |s| {
        let Stmt::Critical { lock_obj, regions, .. } = s else { return };
        visited += 1;
        if let Ty::Object(cid) = lock_obj.ty {
            let class = &classes[cid.0].name;
            let entry = match out.iter_mut().find(|r| &r.class == class) {
                Some(e) => e,
                None => {
                    out.push(RegionInfo { class: class.clone(), sources: Vec::new() });
                    out.last_mut().expect("just pushed")
                }
            };
            for tag in regions {
                if !entry.sources.contains(tag) {
                    entry.sources.push(tag.clone());
                }
            }
        }
    });
    visited
}

/// One generated code version of a parallel section.
#[derive(Debug, Clone)]
pub struct VersionCode {
    /// Version name: the policies that share this code, joined with `+`
    /// (e.g. `"bounded+aggressive"`).
    pub name: String,
    /// Complete function table for this version (originals + clones).
    pub functions: Vec<Function>,
    /// The parallel loop's induction variable slot (in the section fn).
    pub var: LocalId,
    /// Loop start expression.
    pub start: Expr,
    /// Loop bound expression.
    pub bound: Expr,
    /// Loop body (one iteration).
    pub body: Vec<Stmt>,
    /// Types of the section function's locals (iteration frame layout).
    pub locals_ty: Vec<Ty>,
    /// Lowered bytecode and the native code compiled from it.
    pub vm: VmCode,
    /// Per-lock-class source-region provenance of this version (one entry
    /// per class with critical regions reachable from the loop body).
    pub regions: Vec<RegionInfo>,
}

impl VersionCode {
    /// Code size (bytes) of the loop body plus all reachable functions.
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        let mut total = body_size(&self.body) * NODE_BYTES;
        for (_, f) in self.reachable_functions() {
            total += FUNC_BYTES + body_size(&f.body) * NODE_BYTES;
        }
        total
    }

    /// Functions reachable from the loop body, with indices.
    #[must_use]
    pub fn reachable_functions(&self) -> Vec<(usize, &Function)> {
        reachable(&self.functions, &self.body)
            .into_iter()
            .map(|i| (i, &self.functions[i]))
            .collect()
    }
}

/// Indices of the functions in `funcs` reachable from `body`, ascending.
fn reachable(funcs: &[Function], body: &[Stmt]) -> Vec<usize> {
    let mut out: Vec<usize> =
        dfs(funcs.len(), calls_in(body), |f| calls_in(&funcs[f.0].body)).map(|f| f.0).collect();
    out.sort_unstable();
    out
}

/// The identity of one candidate version of a parallel section: its loop
/// body plus every function the body reaches, taken by name order. Two
/// candidates are the same version when these compare equal structurally,
/// with each call compared by its callee's *name* (clones of one function
/// sit at different indices in different policies' tables) and double
/// literals compared as their `Debug` text (`-0.0` differs from `0.0`; all
/// NaNs are alike). `compile` decides identity before building anything,
/// so policies that generate the same code are lowered and compiled once.
pub struct VersionIdentity<'a> {
    funcs: &'a [Function],
    body: &'a [Stmt],
    /// Reachable function indices, sorted by name (ties by index).
    by_name: Vec<usize>,
}

impl<'a> VersionIdentity<'a> {
    /// The identity of loop body `body` over function table `funcs`.
    #[must_use]
    pub fn new(funcs: &'a [Function], body: &'a [Stmt]) -> Self {
        let mut by_name = reachable(funcs, body);
        by_name.sort_by(|&a, &b| funcs[a].name.cmp(&funcs[b].name));
        VersionIdentity { funcs, body, by_name }
    }
}

impl PartialEq for VersionIdentity<'_> {
    fn eq(&self, other: &Self) -> bool {
        let same = SameCode { a: self.funcs, b: other.funcs };
        self.by_name.len() == other.by_name.len()
            && same.stmts(self.body, other.body)
            && self.by_name.iter().zip(&other.by_name).all(|(&i, &j)| {
                let (f, g) = (&self.funcs[i], &other.funcs[j]);
                f.name == g.name && same.stmts(&f.body, &g.body)
            })
    }
}

/// Structural equality of HIR code from two function tables: callees
/// compare by name, doubles by `Debug` text, everything else exactly.
struct SameCode<'a> {
    a: &'a [Function],
    b: &'a [Function],
}

impl SameCode<'_> {
    fn stmts(&self, x: &[Stmt], y: &[Stmt]) -> bool {
        x.len() == y.len() && x.iter().zip(y).all(|(s, t)| self.stmt(s, t))
    }

    fn exprs(&self, x: &[Expr], y: &[Expr]) -> bool {
        x.len() == y.len() && x.iter().zip(y).all(|(e, f)| self.expr(e, f))
    }

    fn callee(&self, f: FuncId, g: FuncId) -> bool {
        self.a[f.0].name == self.b[g.0].name
    }

    fn stmt(&self, x: &Stmt, y: &Stmt) -> bool {
        match (x, y) {
            (Stmt::Assign { place: p, value: v }, Stmt::Assign { place: q, value: w }) => {
                self.place(p, q) && self.expr(v, w)
            }
            (
                Stmt::If { cond: c, then_branch: t, else_branch: e },
                Stmt::If { cond: d, then_branch: u, else_branch: f },
            ) => self.expr(c, d) && self.stmts(t, u) && self.stmts(e, f),
            (Stmt::While { cond: c, body: b }, Stmt::While { cond: d, body: e }) => {
                self.expr(c, d) && self.stmts(b, e)
            }
            (
                Stmt::CountedFor { var: v, start: s, bound: n, body: b },
                Stmt::CountedFor { var: w, start: t, bound: m, body: e },
            ) => v == w && self.expr(s, t) && self.expr(n, m) && self.stmts(b, e),
            (Stmt::Return(e), Stmt::Return(f)) => match (e, f) {
                (Some(e), Some(f)) => self.expr(e, f),
                (e, f) => e.is_none() && f.is_none(),
            },
            (Stmt::Expr(e), Stmt::Expr(f)) => self.expr(e, f),
            (
                Stmt::Critical { lock_obj: o, body: b, regions: r },
                Stmt::Critical { lock_obj: p, body: e, regions: s },
            ) => r == s && self.expr(o, p) && self.stmts(b, e),
            _ => false,
        }
    }

    fn place(&self, x: &Place, y: &Place) -> bool {
        match (x, y) {
            (Place::Local(l), Place::Local(m)) => l == m,
            (Place::Global(g), Place::Global(h)) => g == h,
            (
                Place::Field { obj: o, class: c, field: f },
                Place::Field { obj: p, class: d, field: g },
            ) => c == d && f == g && self.expr(o, p),
            (Place::Index { arr: a, idx: i }, Place::Index { arr: b, idx: j }) => {
                self.expr(a, b) && self.expr(i, j)
            }
            _ => false,
        }
    }

    fn expr(&self, x: &Expr, y: &Expr) -> bool {
        use ExprKind as K;
        x.ty == y.ty
            && match (&x.kind, &y.kind) {
                (K::Int(a), K::Int(b)) => a == b,
                // `Debug` prints distinct values distinctly (so `-0.0` is
                // not `0.0`) and every NaN as `NaN`.
                (K::Double(a), K::Double(b)) => {
                    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
                }
                (K::Bool(a), K::Bool(b)) => a == b,
                (K::Null, K::Null) | (K::This, K::This) => true,
                (K::Local(a), K::Local(b)) => a == b,
                (K::Global(a), K::Global(b)) => a == b,
                (
                    K::FieldGet { obj: o, class: c, field: f },
                    K::FieldGet { obj: p, class: d, field: g },
                ) => c == d && f == g && self.expr(o, p),
                (K::Index { arr: a, idx: i }, K::Index { arr: b, idx: j }) => {
                    self.expr(a, b) && self.expr(i, j)
                }
                (K::ArrayLen(a), K::ArrayLen(b)) => self.expr(a, b),
                (K::Binary { op: o, lhs: l, rhs: r }, K::Binary { op: p, lhs: m, rhs: s }) => {
                    o == p && self.expr(l, m) && self.expr(r, s)
                }
                (K::Unary { op: o, expr: e }, K::Unary { op: p, expr: f }) => {
                    o == p && self.expr(e, f)
                }
                (K::IntToDouble(e), K::IntToDouble(f)) => self.expr(e, f),
                (K::CallFn { func: f, args: a }, K::CallFn { func: g, args: b }) => {
                    self.callee(*f, *g) && self.exprs(a, b)
                }
                (
                    K::CallMethod { obj: o, func: f, args: a },
                    K::CallMethod { obj: p, func: g, args: b },
                ) => self.callee(*f, *g) && self.expr(o, p) && self.exprs(a, b),
                (K::CallExtern { ext: e, args: a }, K::CallExtern { ext: f, args: b }) => {
                    e == f && self.exprs(a, b)
                }
                (K::New { class: c }, K::New { class: d }) => c == d,
                (K::NewArray { elem: t, len: l }, K::NewArray { elem: u, len: m }) => {
                    t == u && self.expr(l, m)
                }
                _ => false,
            }
    }
}

/// The counted loop a validated parallel section consists of.
fn section_loop(f: &Function) -> (LocalId, &Expr, &Expr, &[Stmt]) {
    let [Stmt::CountedFor { var, start, bound, body }] = f.body.as_slice() else {
        unreachable!("validated at compile time; policies preserve the loop shape");
    };
    (*var, start, bound, body)
}

/// Code of one parallel section: all distinct versions plus the serial one.
#[derive(Debug, Clone)]
pub struct SectionCode {
    /// Section (function) name.
    pub name: String,
    /// Distinct versions, ordered least → most aggressive.
    pub versions: Vec<VersionCode>,
    /// The unsynchronized serial version.
    pub serial: VersionCode,
    /// The commutativity analysis outcome that licensed parallelization.
    pub report: CommutativityReport,
}

/// Which execution tier a [`CompiledApp`] runs compiled code on.
///
/// Both tiers emit bit-identical step sequences into the [`OpSink`], so
/// switching tiers never changes simulation results, only how fast the
/// host produces them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecTier {
    /// The tree-walking interpreter ([`crate::interp`]): the semantic
    /// reference oracle.
    Tree,
    /// Fused native closures ([`crate::native`]), compiled from the
    /// lowered bytecode at `compile()` time: the fast path and the
    /// default.
    #[default]
    Native,
}

/// Code sizes of the different builds (the Table 1 reproduction).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodeSizeReport {
    /// The original serial program.
    pub serial: usize,
    /// Build with the Original policy only.
    pub original: usize,
    /// Build with the Bounded policy only.
    pub bounded: usize,
    /// Build with the Aggressive policy only.
    pub aggressive: usize,
    /// The dynamic-feedback build (all versions, shared code deduplicated).
    pub dynamic: usize,
}

/// A compiled, multi-version application, runnable on the simulator.
pub struct CompiledApp {
    name: String,
    plan: Vec<PlanEntry>,
    /// Base (serial) function table, used by serial sections.
    serial_funcs: Vec<Function>,
    /// `serial_funcs` compiled to fused closures (the native tier of
    /// serial sections).
    native_serial: Arc<NativeModule>,
    sections: HashMap<String, SectionCode>,
    env: ProgramEnv,
    cost: CostModel,
    fuel: u64,
    max_objects: usize,
    lock_base: Option<LockId>,
    /// Per-section (start, count) of the active parallel execution.
    active: HashMap<String, (i64, usize)>,
    hir: Hir,
    /// Which tier executes compiled code (the native tier by default).
    tier: ExecTier,
    /// Register-stack scratch of the native tier, reused across runs and
    /// iterations.
    regs: Vec<Value>,
}

impl fmt::Debug for CompiledApp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompiledApp")
            .field("name", &self.name)
            .field("sections", &self.sections.keys().collect::<Vec<_>>())
            .finish_non_exhaustive()
    }
}

/// Compile a program.
///
/// # Errors
///
/// Returns a [`CompileError`] when a section is missing or malformed, an
/// extern lacks a host implementation, or — most importantly — when the
/// commutativity analysis cannot prove a parallel section's operations
/// commute.
pub fn compile(
    hir: Hir,
    options: CompileOptions,
    mut host: HostRegistry,
) -> Result<CompiledApp, CompileError> {
    // Externs must all be implemented; resolve them to dense indices now
    // so no run pays the name lookup.
    for e in &hir.externs {
        if !host.contains(&e.name) {
            return Err(CompileError::MissingHostFn(e.name.clone()));
        }
    }
    host.link(&hir.externs);
    let callgraph = CallGraph::build(&hir);
    let effects = EffectsMap::build(&hir, &callgraph);

    // Locate and validate sections.
    let mut parallel_sections: Vec<(String, usize)> = Vec::new();
    for entry in &options.plan {
        let func = hir
            .function_named(&entry.name)
            .ok_or_else(|| CompileError::BadSection(entry.name.clone()))?;
        if hir.functions[func.0].num_params != 0 {
            return Err(CompileError::BadSection(entry.name.clone()));
        }
        if entry.kind == SectionKind::Parallel
            && !parallel_sections.iter().any(|(n, _)| n == &entry.name)
        {
            parallel_sections.push((entry.name.clone(), func.0));
        }
    }

    // Commutativity analysis per parallel section.
    let mut reports: HashMap<String, CommutativityReport> = HashMap::new();
    for (name, func) in &parallel_sections {
        let body = &hir.functions[*func].body;
        let [Stmt::CountedFor { body: loop_body, .. }] = body.as_slice() else {
            return Err(CompileError::SectionShape(name.clone()));
        };
        let report = analyze_extent(&hir, &callgraph, &effects, loop_body);
        if !report.parallelizable {
            return Err(CompileError::NotParallelizable {
                section: name.clone(),
                reasons: report.reasons.clone(),
            });
        }
        reports.insert(name.clone(), report);
    }

    // Default lock placement: regions in every extent updater.
    let mut locked = hir.functions.clone();
    for report in reports.values() {
        for &u in &report.updaters {
            insert_default_regions(&mut locked[u.0]);
        }
    }

    // Policy builds: one optimized function set per distinct policy, in
    // the order the options list them (sampling order).
    let mut policies: Vec<Policy> = Vec::new();
    for p in &options.policies {
        if !policies.contains(p) {
            policies.push(*p);
        }
    }
    if policies.is_empty() {
        return Err(CompileError::NoPolicies);
    }
    let section_fn_idxs: Vec<usize> = parallel_sections.iter().map(|(_, f)| *f).collect();
    let mut policy_sets: Vec<(Policy, FnSet)> = Vec::new();
    for &policy in &policies {
        let mut set = FnSet::new(locked.clone());
        optimize(&mut set, policy, &section_fn_idxs);
        policy_sets.push((policy, set));
    }

    // Serial code first: the versions reuse the compiled code of every
    // function their policy left unchanged.
    let cost = options.cost;
    let vm_serial = lower_functions(&hir.functions);
    let native_serial = compile_native(&vm_serial, &cost);
    let build = |vname: String,
                 func: usize,
                 funcs: &[Function],
                 mut module: VmModule,
                 bases: &[(&VmModule, &NativeModule)]|
     -> VersionCode {
        let f = &funcs[func];
        let (var, start, bound, body) = section_loop(f);
        let locals_ty: Vec<Ty> = f.locals.iter().map(|l| l.ty.clone()).collect();
        let body_fn = module.funcs.len();
        module.funcs.push(lower_body("$body", body, &locals_ty));
        let native = compile_native_reusing(&module, &cost, bases);
        let mut vc = VersionCode {
            name: vname,
            functions: funcs.to_vec(),
            var,
            start: start.clone(),
            bound: bound.clone(),
            body: body.to_vec(),
            locals_ty,
            vm: VmCode { module, body_fn, native },
            regions: Vec::new(),
        };
        // Region provenance: every critical region reachable from the
        // loop body, grouped by lock class. `reachable_functions` is
        // index-sorted, so collection order is deterministic.
        let mut regions = Vec::new();
        let mut visited = collect_regions(&vc.body, &hir.classes, &mut regions);
        let mut counted = crate::syncopt::count_regions(&vc.body);
        for (_, f) in vc.reachable_functions() {
            visited += collect_regions(&f.body, &hir.classes, &mut regions);
            counted += crate::syncopt::count_regions(&f.body);
        }
        // The provenance walker and `syncopt::count_regions` traverse
        // independently; if a new statement form reaches only one of
        // them, per-region metrics would silently drop regions.
        assert_eq!(
            visited, counted,
            "region provenance walker disagrees with count_regions \
             (section `{}`): {visited} visited vs {counted} counted",
            f.name
        );
        vc.regions = regions;
        vc
    };

    // Assemble section codes. Version identity is decided on the HIR,
    // before anything is built: a policy generating the same code as an
    // earlier one only joins that version's name. Each version is then
    // lowered once, and compiled reusing the serial build and every
    // version built before it (in Water, both sections' versions of one
    // policy share all but their loop bodies).
    let mut built: Vec<(Vec<VersionCode>, VersionCode)> = Vec::new();
    for (_, func) in &parallel_sections {
        let mut kept: Vec<(VersionIdentity<'_>, String)> = Vec::new();
        for (policy, set) in &policy_sets {
            let id = VersionIdentity::new(&set.functions, section_loop(&set.functions[*func]).3);
            match kept.iter_mut().find(|(k, _)| *k == id) {
                Some((_, vname)) => {
                    vname.push('+');
                    vname.push_str(&policy.name());
                }
                None => kept.push((id, policy.name())),
            }
        }
        let mut versions: Vec<VersionCode> = Vec::new();
        for (id, vname) in kept {
            let bases: Vec<(&VmModule, &NativeModule)> =
                std::iter::once((&vm_serial, &*native_serial))
                    .chain(
                        built
                            .iter()
                            .flat_map(|(vs, _)| vs)
                            .chain(&versions)
                            .map(|v| (&v.vm.module, &*v.vm.native)),
                    )
                    .collect();
            let vc = build(vname, *func, id.funcs, lower_functions(id.funcs), &bases);
            versions.push(vc);
        }
        let serial = build(
            "serial".to_string(),
            *func,
            &hir.functions,
            vm_serial.clone(),
            &[(&vm_serial, &*native_serial)],
        );
        built.push((versions, serial));
    }
    let sections = parallel_sections
        .iter()
        .zip(built)
        .map(|((name, _), (versions, serial))| {
            let report = reports.remove(name).expect("analyzed");
            (name.clone(), SectionCode { name: name.clone(), versions, serial, report })
        })
        .collect();

    let globals = hir.globals.iter().map(|g| Value::default_for(&g.ty)).collect();
    Ok(CompiledApp {
        name: options.name,
        plan: options.plan,
        native_serial,
        serial_funcs: hir.functions.clone(),
        sections,
        env: ProgramEnv {
            classes: hir.classes.clone(),
            externs: hir.externs.clone(),
            globals,
            heap: Heap::default(),
            host,
        },
        cost: options.cost,
        fuel: options.fuel,
        max_objects: options.max_objects,
        lock_base: None,
        active: HashMap::new(),
        hir,
        tier: ExecTier::default(),
        regs: Vec::new(),
    })
}

impl CompiledApp {
    /// The compiled sections (inspection / reporting).
    #[must_use]
    pub fn sections(&self) -> &HashMap<String, SectionCode> {
        &self.sections
    }

    /// The active execution tier.
    #[must_use]
    pub fn exec_tier(&self) -> ExecTier {
        self.tier
    }

    /// Select the execution tier: fused native closures (default) or the
    /// tree-walking oracle. Both emit bit-identical step sequences, so
    /// switching tiers never changes simulation results — only how fast
    /// the host produces them.
    pub fn set_exec_tier(&mut self, tier: ExecTier) {
        self.tier = tier;
    }

    /// The analyzed HIR.
    #[must_use]
    pub fn hir(&self) -> &Hir {
        &self.hir
    }

    /// Current program heap (to inspect results after a run).
    #[must_use]
    pub fn heap(&self) -> &Heap {
        &self.env.heap
    }

    /// Current global values.
    #[must_use]
    pub fn globals(&self) -> &[Value] {
        &self.env.globals
    }

    /// Base index of this app's per-object lock pool in the machine's lock
    /// table (`None` until `setup` has run). Object id `i`'s lock is machine
    /// lock `base + i`.
    #[must_use]
    pub fn lock_pool_base(&self) -> Option<usize> {
        self.lock_base.map(LockId::index)
    }

    /// Source-level label for each live heap object's lock under one
    /// section version: `"{class}:{tag+tag+...}"` when that version has
    /// critical regions on the object's class, or the bare class name
    /// otherwise (e.g. the serial version, which holds no locks). Index in
    /// the returned vector = object id = offset from
    /// [`lock_pool_base`](Self::lock_pool_base).
    ///
    /// # Panics
    ///
    /// Panics if `section` is not a compiled parallel section.
    #[must_use]
    pub fn lock_region_labels(&self, section: &str, version: usize) -> Vec<String> {
        let sc = &self.sections[section];
        let vc = if version >= sc.versions.len() { &sc.serial } else { &sc.versions[version] };
        self.env
            .heap
            .objects
            .iter()
            .map(|o| {
                let class = &self.hir.classes[o.class].name;
                match vc.regions.iter().find(|r| &r.class == class) {
                    Some(r) if !r.sources.is_empty() => {
                        format!("{class}:{}", r.sources.join("+"))
                    }
                    _ => class.clone(),
                }
            })
            .collect()
    }

    /// Per-section, per-version code sizes `(section, version, bytes)`,
    /// sections in name order — the code-size axis for arbitrary policy
    /// families (the classic-triple view is [`code_sizes`](Self::code_sizes)).
    #[must_use]
    pub fn version_code_sizes(&self) -> Vec<(String, String, usize)> {
        let mut names: Vec<&String> = self.sections.keys().collect();
        names.sort();
        let mut out = Vec::new();
        for name in names {
            let s = &self.sections[name];
            for v in &s.versions {
                out.push((s.name.clone(), v.name.clone(), v.size_bytes()));
            }
        }
        out
    }

    /// The Table 1 code-size report for this application. Requires a build
    /// whose policy family includes the classic triple (the default).
    #[must_use]
    pub fn code_sizes(&self) -> CodeSizeReport {
        let serial: usize =
            self.serial_funcs.iter().map(|f| FUNC_BYTES + body_size(&f.body) * NODE_BYTES).sum();
        let policy_size = |policy: &str| -> usize {
            let mut total = serial;
            for s in self.sections.values() {
                let v = s
                    .versions
                    .iter()
                    .find(|v| v.name.split('+').any(|p| p == policy))
                    .expect("every policy maps to a version");
                total += v.size_bytes();
            }
            total
        };
        // Dynamic build: all distinct versions, with identical functions
        // shared across versions of a section (closed-subgraph sharing).
        let mut dynamic = serial;
        for s in self.sections.values() {
            let mut seen: Vec<String> = Vec::new();
            for v in &s.versions {
                dynamic += body_size(&v.body) * NODE_BYTES;
                for (_, f) in v.reachable_functions() {
                    let fp = format!("{}{:?}", f.name, f.body);
                    if !seen.contains(&fp) {
                        seen.push(fp);
                        dynamic += FUNC_BYTES + body_size(&f.body) * NODE_BYTES;
                    }
                }
            }
        }
        CodeSizeReport {
            serial,
            original: policy_size("original"),
            bounded: policy_size("bounded"),
            aggressive: policy_size("aggressive"),
            dynamic,
        }
    }

    fn interp<'a>(
        env: &'a mut ProgramEnv,
        funcs: &'a [Function],
        cost: CostModel,
        fuel: u64,
        lock_base: LockId,
        lock_capacity: usize,
        sink: &'a mut OpSink,
    ) -> Interp<'a> {
        Interp { env, funcs, cost, sink, lock_base, lock_capacity, fuel }
    }
}

impl SimApp for CompiledApp {
    fn name(&self) -> &str {
        &self.name
    }

    fn setup(&mut self, machine: &mut Machine) {
        self.lock_base = Some(machine.add_locks(self.max_objects));
    }

    fn plan(&self) -> Vec<PlanEntry> {
        self.plan.clone()
    }

    fn versions(&self, section: &str) -> Vec<String> {
        self.sections[section].versions.iter().map(|v| v.name.clone()).collect()
    }

    fn version_for_policy(&self, section: &str, policy: &str) -> Option<usize> {
        let s = &self.sections[section];
        if policy == "serial" {
            return Some(s.versions.len());
        }
        s.versions.iter().position(|v| v.name.split('+').any(|p| p == policy))
    }

    fn emit_serial(&mut self, section: &str, ops: &mut OpSink) {
        let func = self.hir.function_named(section).expect("validated at compile time");
        let lock_base = self.lock_base.expect("setup ran");
        let CompiledApp {
            env,
            serial_funcs,
            native_serial,
            regs,
            cost,
            fuel,
            max_objects,
            tier,
            ..
        } = self;
        let result = match tier {
            ExecTier::Native => NativeExec {
                env,
                module: native_serial,
                sink: ops,
                lock_base,
                lock_capacity: *max_objects,
                fuel: *fuel,
                regs,
            }
            .call(func.0, None, &[])
            .map(|_| ()),
            ExecTier::Tree => {
                Self::interp(env, serial_funcs, *cost, *fuel, lock_base, *max_objects, ops)
                    .call(func.0, None, vec![])
                    .map(|_| ())
            }
        };
        result.unwrap_or_else(|e| panic!("serial section `{section}` failed: {e}"));
    }

    fn begin_parallel(&mut self, section: &str) -> usize {
        let lock_base = self.lock_base.expect("setup ran");
        let (start, bound) = {
            let CompiledApp { env, serial_funcs, sections, cost, fuel, max_objects, .. } = self;
            let sc = &sections[section];
            let mut sink = OpSink::default();
            let mut interp =
                Self::interp(env, serial_funcs, *cost, *fuel, lock_base, *max_objects, &mut sink);
            // Loop bounds are evaluated once, at section entry, by storing
            // each into a fresh one-slot frame.
            let eval_expr = |interp: &mut Interp<'_>, e: &Expr| -> i64 {
                let body = [Stmt::Assign {
                    place: dynfb_lang::hir::Place::Local(LocalId(0)),
                    value: e.clone(),
                }];
                let locals = interp
                    .exec_body(&body, vec![Value::Int(0)], None)
                    .unwrap_or_else(|err| panic!("loop bound evaluation failed: {err}"));
                locals[0].as_int().expect("loop bounds are ints")
            };
            (eval_expr(&mut interp, &sc.serial.start), eval_expr(&mut interp, &sc.serial.bound))
        };
        let count = usize::try_from((bound - start).max(0)).unwrap_or(0);
        self.active.insert(section.to_string(), (start, count));
        count
    }

    fn emit_iteration(&mut self, section: &str, version: usize, iter: usize, ops: &mut OpSink) {
        let (start, _count) = self.active[section];
        let lock_base = self.lock_base.expect("setup ran");
        let CompiledApp { env, sections, regs, cost, fuel, max_objects, tier, .. } = self;
        let sc = &sections[section];
        let vc = if version == sc.versions.len() { &sc.serial } else { &sc.versions[version] };
        let value = start + iter as i64;
        let result = match tier {
            ExecTier::Native => NativeExec {
                env,
                module: &vc.vm.native,
                sink: ops,
                lock_base,
                lock_capacity: *max_objects,
                fuel: *fuel,
                regs,
            }
            .exec_iteration(vc.vm.body_fn, vc.var.0, value),
            ExecTier::Tree => {
                let mut locals: Vec<Value> = vc.locals_ty.iter().map(Value::default_for).collect();
                locals[vc.var.0] = Value::Int(value);
                let mut interp = Interp {
                    env,
                    funcs: &vc.functions,
                    cost: *cost,
                    sink: ops,
                    lock_base,
                    lock_capacity: *max_objects,
                    fuel: *fuel,
                };
                interp.exec_body(&vc.body, locals, None).map(|_| ())
            }
        };
        result.unwrap_or_else(|e| panic!("iteration {iter} of `{section}` failed: {e}"));
    }
}
