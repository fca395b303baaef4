//! Synchronization optimization policies (§3 of the paper).
//!
//! Computations that repeatedly release and reacquire the same lock can
//! have the intermediate release/acquire pairs eliminated, coalescing many
//! small critical regions into fewer larger ones. Three transformations
//! implement this on the HIR:
//!
//! * **merge** — adjacent critical regions on the same lock, separated only
//!   by synchronization-free code, become one region (absorbing the code in
//!   between — the source of *false exclusion*);
//! * **hoist** — a loop whose body is a single critical region on a
//!   loop-invariant lock moves the acquire/release out of the loop
//!   (the paper's Figure 1 → Figure 2 transformation);
//! * **lift** — an interprocedural transformation: a call to a method whose
//!   synchronization footprint is entirely its own receiver's lock is
//!   replaced by a critical region on the receiver around a call to an
//!   automatically generated *unsynchronized clone* of the method (and,
//!   transitively, of its callees).
//!
//! The *policies* differ in when the transformations apply. The paper's
//! fixed triple:
//!
//! * [`Policy::Original`] — never; keep the default placement.
//! * [`Policy::Bounded`] — only if the new critical region contains no
//!   cycles in the call graph (bounding the dynamic size of the region and
//!   hence the severity of any false exclusion).
//! * [`Policy::Aggressive`] — always.
//!
//! plus a parameterized family interpolating between them:
//!
//! * [`Policy::BoundedK`] — the Bounded rule *and* a static size budget:
//!   the candidate region (its statements plus every function reachable
//!   from them) must be at most `k` HIR nodes. Small `k` stops the merge
//!   cascade early; `k = ∞` degenerates to Bounded.
//! * [`Policy::Hybrid`] — a per-lock-class mix: classes whose bit is set
//!   in the mask get the Aggressive rule, every other class the Bounded
//!   rule. The lock class of a candidate region is the static class of its
//!   lock object, the same provenance `Stmt::Critical.regions` carries to
//!   the profile layer.
//!
//! By construction the transformations never nest critical regions, so the
//! generated code cannot deadlock on object locks.

use crate::callgraph::{calls_in, dfs, CallGraph};
use dynfb_lang::hir::{
    body_size, visit_exprs, visit_stmts, Expr, ExprKind, FuncId, Function, Place, Stmt, Ty,
};
use std::collections::HashMap;

/// A synchronization optimization policy.
///
/// Variant order is least → most aggressive, and the derived `Ord` agrees
/// (`BoundedK` sorts by `k`, `Hybrid` by mask — more aggressive classes
/// compare greater for the masks the generated family uses).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Policy {
    /// Never apply the transformations (default lock placement).
    Original,
    /// Apply only when the new region contains no call-graph cycles *and*
    /// is at most `k` HIR nodes (statements plus reachable callees).
    BoundedK(u32),
    /// Apply only when the new region contains no call-graph cycles.
    Bounded,
    /// Per-lock-class mix: Aggressive for classes in the mask, Bounded
    /// otherwise.
    Hybrid {
        /// Bit `c` set ⇒ lock class `c` (by `ClassId` index) uses the
        /// Aggressive rule. Classes beyond bit 63 fall back to Bounded.
        aggressive_classes: u64,
    },
    /// Always apply.
    Aggressive,
}

impl Policy {
    /// The paper's classic triple, least to most aggressive.
    pub const ALL: [Policy; 3] = [Policy::Original, Policy::Bounded, Policy::Aggressive];

    /// Lower-case policy name (matches the runtime's policy strings).
    /// Classic names are unchanged; the family adds `bounded{k}` and
    /// `hybrid{mask}`.
    #[must_use]
    pub fn name(self) -> String {
        match self {
            Policy::Original => "original".to_string(),
            Policy::Bounded => "bounded".to_string(),
            Policy::Aggressive => "aggressive".to_string(),
            Policy::BoundedK(k) => format!("bounded{k}"),
            Policy::Hybrid { aggressive_classes } => format!("hybrid{aggressive_classes}"),
        }
    }

    /// The standard parameterized family for a program with `num_classes`
    /// lock classes: the classic triple, six size budgets, and every
    /// non-degenerate per-class hybrid (mask 0 ≡ Bounded and the full mask
    /// ≡ Aggressive are omitted; hybrids are only generated for 2–6
    /// classes to keep the family bounded). Ordered least → most
    /// aggressive, with Original first — the runtime treats policy 0 as
    /// the safe fallback.
    #[must_use]
    pub fn family(num_classes: usize) -> Vec<Policy> {
        let mut out = vec![Policy::Original];
        out.extend([4u32, 8, 16, 32, 64, 128].map(Policy::BoundedK));
        out.push(Policy::Bounded);
        if (2..=6).contains(&num_classes) {
            for mask in 1..(1u64 << num_classes) - 1 {
                out.push(Policy::Hybrid { aggressive_classes: mask });
            }
        }
        out.push(Policy::Aggressive);
        out
    }
}

/// A mutable set of functions being transformed under one policy.
///
/// Indices into `functions` match the source HIR for the original
/// functions; unsynchronized clones generated by the *lift* transformation
/// are appended at the end.
#[derive(Debug, Clone, PartialEq)]
pub struct FnSet {
    /// Function bodies (original + generated clones).
    pub functions: Vec<Function>,
    /// `nosync[f]` is the index of `f`'s unsynchronized clone, if created.
    nosync: HashMap<usize, usize>,
}

impl FnSet {
    /// Start from the (lock-placed) source functions.
    #[must_use]
    pub fn new(functions: Vec<Function>) -> Self {
        FnSet { functions, nosync: HashMap::new() }
    }
}

/// Per-iteration analysis facts about a [`FnSet`].
struct Facts {
    /// Function body (or a transitive callee) contains a critical region.
    synced: Vec<bool>,
    /// Function can reach a call-graph cycle (including being recursive).
    reaches_cycle: Vec<bool>,
    /// All synchronization in the function is on its own `this`, and every
    /// call to a synced function is a `this`-receiver statement call.
    this_only: Vec<bool>,
}

fn compute_facts(set: &FnSet) -> Facts {
    let n = set.functions.len();
    let cg = CallGraph::from_functions(&set.functions);
    // synced: fixpoint.
    let mut synced: Vec<bool> = set.functions.iter().map(|f| count_regions(&f.body) > 0).collect();
    loop {
        let mut changed = false;
        for i in 0..n {
            if !synced[i] && cg.callees[i].iter().any(|c| synced[c.0]) {
                synced[i] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    // this_only: coinductive fixpoint, start optimistic.
    let mut this_only = vec![true; n];
    loop {
        let mut changed = false;
        for i in 0..n {
            if !this_only[i] {
                continue;
            }
            if !this_only_sync_body(&set.functions[i].body, &synced, &this_only) {
                this_only[i] = false;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    Facts { synced, reaches_cycle: cg.reaches_cycle, this_only }
}

/// Append each tag of `more` not already present — the order-preserving
/// union used when coalescing regions keeps their provenance.
fn extend_unique(into: &mut Vec<String>, more: &[String]) {
    for tag in more {
        if !into.contains(tag) {
            into.push(tag.clone());
        }
    }
}

/// Collect the region tags of every critical region in `stmts`, recursing
/// through control flow and nested regions, in source order.
fn collect_region_tags(stmts: &[Stmt], out: &mut Vec<String>) {
    visit_stmts(stmts, &mut |s| {
        if let Stmt::Critical { regions, .. } = s {
            extend_unique(out, regions);
        }
    });
}

/// Check the `this_only` property over one body, assuming `assumed` for
/// callees (coinduction handles recursion).
fn this_only_sync_body(stmts: &[Stmt], synced: &[bool], assumed: &[bool]) -> bool {
    // Any call to a synced function must be a statement-level method call on
    // `this` to a this_only callee; criticals must lock `this`.
    fn expr_calls_synced(e: &Expr, synced: &[bool]) -> bool {
        let mut bad = false;
        visit_exprs(e, &mut |x| match &x.kind {
            ExprKind::CallFn { func, .. } | ExprKind::CallMethod { func, .. }
                if synced.get(func.0).copied().unwrap_or(false) =>
            {
                bad = true;
            }
            _ => {}
        });
        bad
    }
    fn ok_stmts(stmts: &[Stmt], synced: &[bool], assumed: &[bool]) -> bool {
        stmts.iter().all(|s| match s {
            Stmt::Critical { lock_obj, body, .. } => {
                matches!(lock_obj.kind, ExprKind::This) && ok_stmts(body, synced, assumed)
            }
            Stmt::Expr(e) => match &e.kind {
                ExprKind::CallMethod { obj, func, args } => {
                    let callee_synced = synced.get(func.0).copied().unwrap_or(false);
                    if callee_synced
                        && (!matches!(obj.kind, ExprKind::This)
                            || !assumed.get(func.0).copied().unwrap_or(false))
                    {
                        return false;
                    }
                    args.iter().all(|a| !expr_calls_synced(a, synced))
                }
                _ => !expr_calls_synced(e, synced),
            },
            Stmt::Assign { value, .. } => !expr_calls_synced(value, synced),
            Stmt::If { cond, then_branch, else_branch } => {
                !expr_calls_synced(cond, synced)
                    && ok_stmts(then_branch, synced, assumed)
                    && ok_stmts(else_branch, synced, assumed)
            }
            Stmt::While { cond, body } => {
                !expr_calls_synced(cond, synced) && ok_stmts(body, synced, assumed)
            }
            Stmt::CountedFor { start, bound, body, .. } => {
                !expr_calls_synced(start, synced)
                    && !expr_calls_synced(bound, synced)
                    && ok_stmts(body, synced, assumed)
            }
            Stmt::Return(Some(e)) => !expr_calls_synced(e, synced),
            Stmt::Return(None) => true,
        })
    }
    ok_stmts(stmts, synced, assumed)
}

/// A statement is *absorbable* into a critical region if it contains no
/// synchronization at all: no critical region and no call to a synced
/// function.
fn absorbable(s: &Stmt, synced: &[bool]) -> bool {
    let s = std::slice::from_ref(s);
    count_regions(s) == 0 && calls_in(s).iter().all(|f| !synced.get(f.0).copied().unwrap_or(false))
}

/// Static lock class of a lock-object expression (its declared object
/// type), the key the [`Policy::Hybrid`] mask is indexed by.
fn lock_class(lock: &Expr) -> Option<usize> {
    match lock.ty {
        Ty::Object(cid) => Some(cid.0),
        _ => None,
    }
}

/// Static size proxy (HIR nodes) for the dynamic extent of a candidate
/// region: the statements themselves plus every function transitively
/// reachable from them — what [`Policy::BoundedK`]'s budget is checked
/// against. The search follows raw call lists of the current table, not a
/// [`CallGraph`]: lifting appends clones while the policy runs.
fn region_size(stmts: &[Stmt], funcs: &[Function]) -> usize {
    let reached = dfs(funcs.len(), calls_in(stmts), |f| calls_in(&funcs[f.0].body));
    body_size(stmts) + reached.map(|f| body_size(&funcs[f.0].body)).sum::<usize>()
}

/// The policy decision on a candidate region, given the facts that matter:
/// its lock class, whether it is free of call-graph cycles, and its static
/// size (computed lazily — only [`Policy::BoundedK`] reads it).
fn policy_allows(
    policy: Policy,
    class: Option<usize>,
    no_cycles: bool,
    size: impl FnOnce() -> usize,
) -> bool {
    match policy {
        Policy::Original => false,
        Policy::Aggressive => true,
        Policy::Bounded => no_cycles,
        Policy::BoundedK(k) => no_cycles && size() <= k as usize,
        Policy::Hybrid { aggressive_classes } => match class {
            Some(c) if c < 64 && aggressive_classes >> c & 1 == 1 => true,
            _ => no_cycles,
        },
    }
}

/// Is forming a region over these statements, locking an object of
/// `class`, acceptable under the policy?
fn region_ok(
    policy: Policy,
    class: Option<usize>,
    stmts: &[Stmt],
    facts: &Facts,
    funcs: &[Function],
) -> bool {
    let no_cycles =
        calls_in(stmts).iter().all(|f| !facts.reaches_cycle.get(f.0).copied().unwrap_or(true));
    policy_allows(policy, class, no_cycles, || region_size(stmts, funcs))
}

/// Locals referenced by an expression.
fn locals_in(e: &Expr, out: &mut Vec<usize>) {
    visit_exprs(e, &mut |x| {
        if let ExprKind::Local(l) = &x.kind {
            out.push(l.0);
        }
    });
}

/// Locals assigned anywhere in these statements, counted-loop induction
/// variables included.
fn assigned_locals(stmts: &[Stmt], out: &mut Vec<usize>) {
    visit_stmts(stmts, &mut |s| match s {
        Stmt::Assign { place: Place::Local(l), .. } => out.push(l.0),
        Stmt::CountedFor { var, .. } => out.push(var.0),
        _ => {}
    });
}

/// Is the lock expression side-effect free (safe to evaluate twice) and
/// stable across `stmts` (no local it reads is assigned)?
fn lock_stable(lock: &Expr, stmts: &[Stmt]) -> bool {
    // Side-effect free: no calls, no allocation.
    let mut pure = true;
    visit_exprs(lock, &mut |x| {
        if matches!(
            x.kind,
            ExprKind::CallFn { .. }
                | ExprKind::CallMethod { .. }
                | ExprKind::CallExtern { .. }
                | ExprKind::New { .. }
                | ExprKind::NewArray { .. }
        ) {
            pure = false;
        }
    });
    if !pure {
        return false;
    }
    let mut used = Vec::new();
    locals_in(lock, &mut used);
    let mut assigned = Vec::new();
    assigned_locals(stmts, &mut assigned);
    used.iter().all(|l| !assigned.contains(l))
}

/// Apply a policy to a function set. `no_hoist_loops` lists functions whose
/// *top-level* loops must not be hoisted (the parallel loops themselves:
/// wrapping a parallel loop in one critical region would serialize the
/// whole computation rather than optimize an operation).
pub fn optimize(set: &mut FnSet, policy: Policy, no_hoist_loops: &[usize]) {
    if policy == Policy::Original {
        return;
    }
    for _round in 0..32 {
        let facts = compute_facts(set);
        let mut changed = false;
        for i in 0..set.functions.len() {
            let mut body = std::mem::take(&mut set.functions[i].body);
            let top_level_loops_frozen = no_hoist_loops.contains(&i);
            let mut ctx = Rewriter { set, policy, facts: &facts, changed: false };
            body = ctx.rewrite_list(body, top_level_loops_frozen);
            changed |= ctx.changed;
            set.functions[i].body = body;
        }
        if !changed {
            break;
        }
    }
}

struct Rewriter<'a> {
    set: &'a mut FnSet,
    policy: Policy,
    facts: &'a Facts,
    changed: bool,
}

impl<'a> Rewriter<'a> {
    /// Rewrite a statement list: recurse, lift, merge. `freeze_loops`
    /// disables hoisting of loops at this level (used for the top level of
    /// parallel-section functions).
    fn rewrite_list(&mut self, stmts: Vec<Stmt>, freeze_loops: bool) -> Vec<Stmt> {
        // 1. Rewrite children + apply lift/hoist per statement.
        let mut out: Vec<Stmt> = Vec::new();
        for s in stmts {
            out.push(self.rewrite_stmt(s, freeze_loops));
        }
        // 2. Merge adjacent regions in this list.
        self.merge_list(out)
    }

    fn rewrite_stmt(&mut self, s: Stmt, freeze_loops: bool) -> Stmt {
        match s {
            Stmt::If { cond, then_branch, else_branch } => Stmt::If {
                cond,
                then_branch: self.rewrite_list(then_branch, false),
                else_branch: self.rewrite_list(else_branch, false),
            },
            Stmt::While { cond, body } => {
                let body = self.rewrite_list(body, false);
                let rewritten = Stmt::While { cond, body };
                if freeze_loops {
                    rewritten
                } else {
                    self.try_hoist(rewritten)
                }
            }
            Stmt::CountedFor { var, start, bound, body } => {
                let body = self.rewrite_list(body, false);
                let rewritten = Stmt::CountedFor { var, start, bound, body };
                if freeze_loops {
                    rewritten
                } else {
                    self.try_hoist(rewritten)
                }
            }
            Stmt::Critical { lock_obj, body, regions } => {
                // Regions never contain synchronization; recurse only for
                // structural rewrites of plain statements.
                Stmt::Critical { lock_obj, body: self.rewrite_list(body, false), regions }
            }
            Stmt::Expr(e) => self.try_lift(Stmt::Expr(e)),
            other => other,
        }
    }

    /// The *lift* transformation on a statement-level method call.
    fn try_lift(&mut self, s: Stmt) -> Stmt {
        let Stmt::Expr(e) = &s else { return s };
        let ExprKind::CallMethod { obj, func, args } = &e.kind else {
            return s;
        };
        let fi = func.0;
        if !self.facts.synced.get(fi).copied().unwrap_or(false)
            || !self.facts.this_only.get(fi).copied().unwrap_or(false)
        {
            return s;
        }
        if !lock_stable(obj, &[]) {
            return s; // receiver expression must be evaluable twice
        }
        // The lifted region dynamically contains the callee (via its
        // unsynchronized clone), so the cycle fact and size proxy come
        // from the original call statement — callee and transitives
        // included.
        let no_cycles = !self.facts.reaches_cycle[fi];
        let allowed = policy_allows(self.policy, lock_class(obj), no_cycles, || {
            region_size(std::slice::from_ref(&s), &self.set.functions)
        });
        if !allowed {
            return s;
        }
        // The lifted region absorbs every source region reachable from the
        // callee (its synchronization moves, stripped, to this call site).
        let regions = self.transitive_region_tags(fi);
        let clone = self.nosync_clone(fi);
        let call = Expr {
            kind: ExprKind::CallMethod {
                obj: obj.clone(),
                func: FuncId(clone),
                args: args.clone(),
            },
            ty: e.ty.clone(),
        };
        self.changed = true;
        Stmt::Critical { lock_obj: (**obj).clone(), body: vec![Stmt::Expr(call)], regions }
    }

    /// Region tags of every critical region reachable from function `fi`
    /// (its own body plus transitive callees) — the provenance a lifted
    /// region absorbs when the callee's synchronization moves to the call
    /// site. Deterministic DFS order, first occurrence wins; like
    /// [`region_size`], it follows the current table's raw call lists.
    fn transitive_region_tags(&self, fi: usize) -> Vec<String> {
        let funcs = &self.set.functions;
        let mut out = Vec::new();
        for f in dfs(funcs.len(), [FuncId(fi)], |f| calls_in(&funcs[f.0].body)) {
            collect_region_tags(&funcs[f.0].body, &mut out);
        }
        out
    }

    /// The *hoist* transformation on a loop statement.
    fn try_hoist(&mut self, s: Stmt) -> Stmt {
        let body = match &s {
            Stmt::While { body, .. } | Stmt::CountedFor { body, .. } => body,
            _ => return s,
        };
        // All top-level criticals must share one lock; everything else must
        // be absorbable.
        let mut lock: Option<Expr> = None;
        let mut n_regions = 0usize;
        let mut regions: Vec<String> = Vec::new();
        for st in body {
            match st {
                Stmt::Critical { lock_obj, regions: r, .. } => {
                    n_regions += 1;
                    extend_unique(&mut regions, r);
                    match &lock {
                        None => lock = Some(lock_obj.clone()),
                        Some(l) if l == lock_obj => {}
                        Some(_) => return s,
                    }
                }
                other => {
                    if !absorbable(other, &self.facts.synced) {
                        return s;
                    }
                }
            }
        }
        let Some(lock) = lock else { return s };
        if n_regions == 0 {
            return s;
        }
        // The lock must be invariant across the loop (including the
        // induction variable) and safe to evaluate outside it.
        let loop_stmts = std::slice::from_ref(&s);
        if !lock_stable(&lock, loop_stmts) {
            return s;
        }
        // Build the unwrapped loop.
        let unwrap = |body: &[Stmt]| -> Vec<Stmt> {
            let mut out = Vec::new();
            for st in body {
                match st {
                    Stmt::Critical { body, .. } => out.extend(body.iter().cloned()),
                    other => out.push(other.clone()),
                }
            }
            out
        };
        let hoisted_loop = match &s {
            Stmt::While { cond, body } => Stmt::While { cond: cond.clone(), body: unwrap(body) },
            Stmt::CountedFor { var, start, bound, body } => Stmt::CountedFor {
                var: *var,
                start: start.clone(),
                bound: bound.clone(),
                body: unwrap(body),
            },
            _ => unreachable!(),
        };
        let region = vec![hoisted_loop];
        if !region_ok(self.policy, lock_class(&lock), &region, self.facts, &self.set.functions) {
            return s;
        }
        self.changed = true;
        Stmt::Critical { lock_obj: lock, body: region, regions }
    }

    /// Merge adjacent criticals on the same lock within one list. The
    /// policy guard is checked on the *candidate* region before any
    /// mutation, so no rollback is needed.
    fn merge_list(&mut self, stmts: Vec<Stmt>) -> Vec<Stmt> {
        let mut out: Vec<Stmt> = Vec::new();
        for s in stmts {
            let Stmt::Critical { lock_obj, body, regions } = s else {
                out.push(s);
                continue;
            };
            // Look backwards past absorbable separators for a same-lock region.
            let mut k = out.len();
            while k > 0 && absorbable(&out[k - 1], &self.facts.synced) {
                k -= 1;
            }
            let mergeable = k > 0
                && matches!(&out[k - 1], Stmt::Critical { lock_obj: l, .. } if *l == lock_obj)
                && lock_stable(&lock_obj, &out[k..]);
            if mergeable {
                let candidate: Vec<Stmt> = {
                    let Stmt::Critical { body: prev_body, .. } = &out[k - 1] else {
                        unreachable!()
                    };
                    let mut c = prev_body.clone();
                    c.extend(out[k..].iter().cloned());
                    c.extend(body.iter().cloned());
                    c
                };
                let candidate_ok = region_ok(
                    self.policy,
                    lock_class(&lock_obj),
                    &candidate,
                    self.facts,
                    &self.set.functions,
                );
                if candidate_ok {
                    let Stmt::Critical { lock_obj: l0, regions: mut merged, .. } =
                        out[k - 1].clone()
                    else {
                        unreachable!()
                    };
                    // The coalesced region reports both constituents'
                    // source regions (absorbable separators carry none).
                    extend_unique(&mut merged, &regions);
                    out.truncate(k - 1);
                    self.changed = true;
                    out.push(Stmt::Critical { lock_obj: l0, body: candidate, regions: merged });
                    continue;
                }
            }
            out.push(Stmt::Critical { lock_obj, body, regions });
        }
        out
    }

    /// Create (or fetch) the unsynchronized clone of function `fi`.
    fn nosync_clone(&mut self, fi: usize) -> usize {
        if let Some(&c) = self.set.nosync.get(&fi) {
            return c;
        }
        let idx = self.set.functions.len();
        self.set.nosync.insert(fi, idx);
        let mut f = self.set.functions[fi].clone();
        f.name = format!("{}$nosync", f.name);
        // Reserve the slot before rewriting so recursion maps to the clone.
        self.set.functions.push(f);
        let body = strip_sync(std::mem::take(&mut self.set.functions[idx].body), self);
        self.set.functions[idx].body = body;
        idx
    }
}

/// Strip all critical regions and redirect synced `this`-calls to their
/// unsynchronized clones.
fn strip_sync(stmts: Vec<Stmt>, rw: &mut Rewriter<'_>) -> Vec<Stmt> {
    let mut out = Vec::new();
    for s in stmts {
        match s {
            Stmt::Critical { body, .. } => {
                out.extend(strip_sync(body, rw));
            }
            Stmt::If { cond, then_branch, else_branch } => out.push(Stmt::If {
                cond,
                then_branch: strip_sync(then_branch, rw),
                else_branch: strip_sync(else_branch, rw),
            }),
            Stmt::While { cond, body } => {
                out.push(Stmt::While { cond, body: strip_sync(body, rw) });
            }
            Stmt::CountedFor { var, start, bound, body } => {
                out.push(Stmt::CountedFor { var, start, bound, body: strip_sync(body, rw) })
            }
            Stmt::Expr(e) => {
                if let ExprKind::CallMethod { obj, func, args } = &e.kind {
                    if rw.facts.synced.get(func.0).copied().unwrap_or(false) {
                        let clone = rw.nosync_clone(func.0);
                        out.push(Stmt::Expr(Expr {
                            kind: ExprKind::CallMethod {
                                obj: obj.clone(),
                                func: FuncId(clone),
                                args: args.clone(),
                            },
                            ty: e.ty.clone(),
                        }));
                        continue;
                    }
                }
                out.push(Stmt::Expr(e));
            }
            other => out.push(other),
        }
    }
    out
}

/// Count the critical regions (recursively) in a body — used by tests and
/// the code-size/acquire accounting.
#[must_use]
pub fn count_regions(stmts: &[Stmt]) -> usize {
    let mut n = 0;
    visit_stmts(stmts, &mut |s| n += usize::from(matches!(s, Stmt::Critical { .. })));
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lockplace::insert_default_regions;
    use dynfb_lang::compile_source;
    use dynfb_lang::hir::Hir;

    /// Compile, insert default regions into every method, and return the
    /// function set plus the HIR (for id lookups).
    fn prepared(src: &str) -> (Hir, FnSet) {
        let hir = compile_source(src).unwrap();
        let mut funcs = hir.functions.clone();
        for f in &mut funcs {
            insert_default_regions(f);
        }
        (hir, FnSet::new(funcs))
    }

    const FIGURE_1: &str = "
        extern double interact(double, double);
        class body {
            double pos; double sum;
            void one_interaction(body b) {
                double val = interact(this.pos, b.pos);
                this.sum += val;
            }
            void interactions(body[] b, int n) {
                for (int i = 0; i < n; i++) {
                    this.one_interaction(b[i]);
                }
            }
        }";

    #[test]
    fn aggressive_reproduces_figure_2() {
        let (hir, mut set) = prepared(FIGURE_1);
        optimize(&mut set, Policy::Aggressive, &[]);
        let interactions = hir.method_named(dynfb_lang::hir::ClassId(0), "interactions").unwrap();
        let body = &set.functions[interactions.0].body;
        // The whole loop is now inside a single critical region on `this`:
        // exactly the paper's Figure 2.
        assert_eq!(body.len(), 1, "{body:#?}");
        let Stmt::Critical { lock_obj, body: inner, .. } = &body[0] else {
            panic!("expected hoisted region, got {body:#?}");
        };
        assert!(matches!(lock_obj.kind, ExprKind::This));
        assert!(matches!(inner[0], Stmt::CountedFor { .. }));
        // An unsynchronized clone of one_interaction was generated.
        assert!(set.functions.iter().any(|f| f.name == "one_interaction$nosync"));
    }

    #[test]
    fn original_changes_nothing() {
        let (_hir, mut set) = prepared(FIGURE_1);
        let before = set.clone();
        optimize(&mut set, Policy::Original, &[]);
        assert_eq!(set, before);
    }

    #[test]
    fn bounded_merges_adjacent_acyclic_regions() {
        let src = "
            extern double f(double);
            class c { double a; double b; double p;
                void m(double v) {
                    this.a += v;
                    double t = f(this.p);
                    this.b += t;
                } }";
        let (hir, mut set) = prepared(src);
        let m = hir.method_named(dynfb_lang::hir::ClassId(0), "m").unwrap();
        assert_eq!(count_regions(&set.functions[m.0].body), 2);
        optimize(&mut set, Policy::Bounded, &[]);
        assert_eq!(count_regions(&set.functions[m.0].body), 1);
    }

    #[test]
    fn merged_regions_report_both_constituent_sources() {
        // A Bounded merge coalesces `m#0` and `m#1` into one region; the
        // merged region must list both source tags, in source order, so a
        // profile can attribute its lock's overhead back to both updates.
        let src = "
            extern double f(double);
            class c { double a; double b; double p;
                void m(double v) {
                    this.a += v;
                    double t = f(this.p);
                    this.b += t;
                } }";
        let (hir, mut set) = prepared(src);
        optimize(&mut set, Policy::Bounded, &[]);
        let m = hir.method_named(dynfb_lang::hir::ClassId(0), "m").unwrap();
        let mut tags = Vec::new();
        collect_region_tags(&set.functions[m.0].body, &mut tags);
        assert_eq!(tags, vec!["m#0".to_string(), "m#1".to_string()]);
    }

    #[test]
    fn lifted_and_hoisted_regions_carry_callee_tags() {
        // Aggressive lifts `one_interaction`'s region to the call site and
        // hoists it out of the loop: the resulting region's provenance must
        // still name the original source region inside the callee.
        let (hir, mut set) = prepared(FIGURE_1);
        optimize(&mut set, Policy::Aggressive, &[]);
        let interactions = hir.method_named(dynfb_lang::hir::ClassId(0), "interactions").unwrap();
        let Stmt::Critical { regions, .. } = &set.functions[interactions.0].body[0] else {
            panic!("expected hoisted region");
        };
        assert_eq!(regions, &vec!["one_interaction#0".to_string()]);
    }

    #[test]
    fn transitive_region_tags_pop_the_last_call_first() {
        // `f` calls `a`, `b`, then `a` again. The search pushes every call,
        // so the second `a` is popped first: `a`'s tags come before `b`'s.
        // Deduplicated callees would have visited `b` first.
        let (hir, mut set) = prepared(
            "class c { double x; double y;
                 void a() { this.x += 1.0; }
                 void b() { this.y += 1.0; }
                 void f() { this.a(); this.b(); this.a(); this.x += 2.0; }
             }",
        );
        let facts = compute_facts(&set);
        let rw =
            Rewriter { set: &mut set, policy: Policy::Aggressive, facts: &facts, changed: false };
        let f = hir.method_named(dynfb_lang::hir::ClassId(0), "f").unwrap();
        assert_eq!(rw.transitive_region_tags(f.0), ["f#0", "a#0", "b#0"]);
    }

    #[test]
    fn bounded_refuses_regions_with_call_graph_cycles() {
        // The update method is reached through a recursive walk; lifting at
        // the call site would create a region containing the recursion, so
        // Bounded must refuse while Aggressive lifts.
        let src = "
            class node { double val; node left; node right;
                void bump(double v) { this.val += v; }
                void walk(node n, double v) {
                    this.bump(v);
                    if (n.left != null) { this.walk(n.left, v); }
                    if (n.right != null) { this.walk(n.right, v); }
                }
            }
            node root;
            void drive(node start, double v) {
                start.walk(start, v);
            }";
        let (hir, mut agg) = prepared(src);
        let (_hir2, mut bnd) = prepared(src);
        optimize(&mut agg, Policy::Aggressive, &[]);
        optimize(&mut bnd, Policy::Bounded, &[]);
        let drive = hir.function_named("drive").unwrap();
        // Aggressive lifts the walk call into one region on `start`.
        assert!(
            matches!(agg.functions[drive.0].body[0], Stmt::Critical { .. }),
            "{:#?}",
            agg.functions[drive.0].body
        );
        // Bounded leaves the call alone (region would contain a cycle).
        assert!(matches!(bnd.functions[drive.0].body[0], Stmt::Expr(_)));
        // But inside `walk`, Bounded still lifts the non-recursive bump call.
        let walk = hir.method_named(hir.class_named("node").unwrap(), "walk").unwrap();
        assert!(count_regions(&bnd.functions[walk.0].body) >= 1);
    }

    #[test]
    fn hoist_requires_loop_invariant_lock() {
        // The region's lock object changes every iteration: no hoist.
        let src = "
            class c { double x; void add(double v) { this.x += v; } }
            c[] objs;
            void work(int n) {
                for (int i = 0; i < n; i++) {
                    objs[i].add(1.0);
                }
            }";
        let (hir, mut set) = prepared(src);
        optimize(&mut set, Policy::Aggressive, &[]);
        let work = hir.function_named("work").unwrap();
        // The loop must remain a loop (the call inside was lifted to a
        // region on objs[i], which is iteration-dependent).
        assert!(
            matches!(set.functions[work.0].body[0], Stmt::CountedFor { .. }),
            "{:#?}",
            set.functions[work.0].body
        );
    }

    #[test]
    fn parallel_loops_are_never_hoisted() {
        // Same-lock region inside the parallel loop; without the freeze the
        // hoist would wrap the parallel loop and serialize everything.
        let src = "
            class c { double x; void add(double v) { this.x += v; } }
            c shared;
            void work(int n) {
                for (int i = 0; i < n; i++) {
                    shared.add(1.0);
                }
            }";
        let (hir, mut set) = prepared(src);
        let work = hir.function_named("work").unwrap();
        optimize(&mut set, Policy::Aggressive, &[work.0]);
        assert!(
            matches!(set.functions[work.0].body[0], Stmt::CountedFor { .. }),
            "{:#?}",
            set.functions[work.0].body
        );
        // Without the freeze, it would be hoisted into one giant region.
        let (_h2, mut free) = prepared(src);
        optimize(&mut free, Policy::Aggressive, &[]);
        assert!(matches!(free.functions[work.0].body[0], Stmt::Critical { .. }));
    }

    #[test]
    fn family_is_large_ordered_and_uniquely_named() {
        let family = Policy::family(2);
        assert!(family.len() >= 10, "family of {} policies", family.len());
        assert_eq!(family[0], Policy::Original, "policy 0 must be the safe fallback");
        assert_eq!(*family.last().unwrap(), Policy::Aggressive);
        for p in Policy::ALL {
            assert!(family.contains(&p), "classic {p:?} missing");
        }
        let mut names: Vec<String> = family.iter().map(|p| p.name()).collect();
        let mut sorted = family.clone();
        sorted.sort();
        assert_eq!(sorted, family, "family must be ordered least to most aggressive");
        names.sort();
        names.dedup();
        assert_eq!(names.len(), family.len(), "policy names must be unique");
        // No hybrids without at least two classes; bounded at ≥ 10 total.
        assert!(Policy::family(1).len() >= 8);
        assert!(Policy::family(3).len() > Policy::family(2).len());
    }

    #[test]
    fn bounded_k_region_counts_are_monotone_in_k() {
        // Four acyclic update regions separated by extern calls: Bounded
        // merges them all, tiny budgets stop the cascade earlier, and
        // region counts never increase as K grows.
        let src = "
            extern double f(double);
            class c { double a; double b; double p; double q;
                void m(double v) {
                    this.a += v;
                    double t = f(this.p);
                    this.b += t;
                    double u = f(t);
                    this.p += u;
                    double w = f(u);
                    this.q += w;
                } }";
        let (hir, base) = prepared(src);
        let m = hir.method_named(dynfb_lang::hir::ClassId(0), "m").unwrap();
        assert_eq!(count_regions(&base.functions[m.0].body), 4);
        let count_for = |policy: Policy| -> usize {
            let (_, mut set) = prepared(src);
            optimize(&mut set, policy, &[]);
            count_regions(&set.functions[m.0].body)
        };
        let ks = [4u32, 8, 16, 32, 64, 128];
        let counts: Vec<usize> = ks.iter().map(|&k| count_for(Policy::BoundedK(k))).collect();
        for w in counts.windows(2) {
            assert!(w[1] <= w[0], "region count must not grow with K: {counts:?}");
        }
        assert_eq!(counts[0], 4, "K=4 is below any merged region's size");
        assert_eq!(*counts.last().unwrap(), count_for(Policy::Bounded), "large K ≡ Bounded");
        assert_eq!(count_for(Policy::Bounded), 1);
        // At least one intermediate K must genuinely sit between the
        // extremes, or the family adds nothing.
        assert!(counts.iter().any(|&c| c > 1 && c < 4), "{counts:?}");
    }

    /// Two lock classes with a cycle-bearing merge candidate each: `acc`
    /// (bit 0) and `mol` (bit 1). Bounded refuses both, Aggressive takes
    /// both, hybrids split by class.
    const TWO_CLASSES: &str = "
        extern double term(double);
        class acc { double total; double aux;
            double spin(double x, int d) {
                if (d == 0) { return term(x); }
                return this.spin(x * 0.5, d - 1);
            }
            void add(double v) {
                this.total += v;
                double t = this.spin(v, 2);
                this.aux += t;
            } }
        class mol { double a; double b;
            double chain(double x, int d) {
                if (d == 0) { return term(x); }
                return term(x) + this.chain(x * 0.5, d - 1);
            }
            void relax(double v) {
                this.a += v;
                double t = this.chain(v, 3);
                this.b += t;
            } }";

    #[test]
    fn hybrid_applies_aggressive_rule_per_lock_class() {
        let (hir, _) = prepared(TWO_CLASSES);
        let acc_add = hir.method_named(hir.class_named("acc").unwrap(), "add").unwrap();
        let mol_relax = hir.method_named(hir.class_named("mol").unwrap(), "relax").unwrap();
        let counts = |policy: Policy| -> (usize, usize) {
            let (_, mut set) = prepared(TWO_CLASSES);
            optimize(&mut set, policy, &[]);
            (
                count_regions(&set.functions[acc_add.0].body),
                count_regions(&set.functions[mol_relax.0].body),
            )
        };
        // The recursive call between the two update regions blocks the
        // Bounded merge in both classes; Aggressive merges both.
        assert_eq!(counts(Policy::Bounded), (2, 2));
        assert_eq!(counts(Policy::Aggressive), (1, 1));
        // acc is ClassId 0, mol is ClassId 1 (declaration order).
        assert_eq!(counts(Policy::Hybrid { aggressive_classes: 0b01 }), (1, 2));
        assert_eq!(counts(Policy::Hybrid { aggressive_classes: 0b10 }), (2, 1));
        assert_eq!(counts(Policy::Hybrid { aggressive_classes: 0b11 }), (1, 1));
    }

    #[test]
    fn global_receiver_hoists_out_of_inner_loop() {
        // The POTENG shape: an inner loop updating a global accumulator
        // object. Aggressive hoists the global's lock out of the inner
        // loop; Bounded refuses when the loop calls into a recursion.
        let src = "
            extern double term(double);
            class acc { double total; void add(double v) { this.total += v; } }
            acc sys;
            class mol { double q;
                double series(double x, int depth) {
                    if (depth == 0) { return term(x); }
                    return term(x) + this.series(x * 0.5, depth - 1);
                }
                void poteng_one(mol[] others, int n) {
                    for (int j = 0; j < n; j++) {
                        double e = this.series(this.q, 4);
                        sys.add(e);
                    }
                }
            }";
        let (hir, mut agg) = prepared(src);
        let (_h2, mut bnd) = prepared(src);
        optimize(&mut agg, Policy::Aggressive, &[]);
        optimize(&mut bnd, Policy::Bounded, &[]);
        let m = hir.method_named(hir.class_named("mol").unwrap(), "poteng_one").unwrap();
        // Aggressive: the whole j-loop sits inside one region on `sys`.
        assert!(
            matches!(agg.functions[m.0].body[0], Stmt::Critical { .. }),
            "{:#?}",
            agg.functions[m.0].body
        );
        // Bounded: the recursion in `series` blocks the hoist; the loop stays.
        assert!(
            matches!(bnd.functions[m.0].body[0], Stmt::CountedFor { .. }),
            "{:#?}",
            bnd.functions[m.0].body
        );
    }
}
