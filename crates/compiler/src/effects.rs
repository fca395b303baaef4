//! Side-effect analysis: which state each function reads and writes.
//!
//! Operations in the paper's model update *their receiver object*; the
//! commutativity analysis needs to know, for every function: the receiver
//! fields it reads and writes, whether it writes globals, arrays, or other
//! objects' fields (all of which disqualify it as a well-formed operation),
//! and which functions it calls. Effects are computed per function and then
//! closed transitively over the call graph.

use crate::callgraph::CallGraph;
use dynfb_lang::hir::{
    visit_exprs_stmts, visit_stmts, ClassId, ExprKind, FuncId, Hir, Place, Stmt,
};
use std::collections::BTreeSet;

/// A field of some class.
pub type FieldRef = (ClassId, usize);

/// Direct (non-transitive) effects of one function.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Effects {
    /// Receiver fields read via `this.f`.
    pub this_reads: BTreeSet<FieldRef>,
    /// Receiver fields written via `this.f = ...`.
    pub this_writes: BTreeSet<FieldRef>,
    /// Fields read through any non-`this` object expression.
    pub other_reads: BTreeSet<FieldRef>,
    /// Fields written through any non-`this` object expression
    /// (disqualifies the function as a separable operation).
    pub other_writes: BTreeSet<FieldRef>,
    /// Globals read.
    pub global_reads: BTreeSet<usize>,
    /// Globals written.
    pub global_writes: BTreeSet<usize>,
    /// Whether any array element is written.
    pub array_writes: bool,
    /// Whether any array element is read.
    pub array_reads: bool,
    /// Whether the function allocates objects or arrays.
    pub allocates: bool,
}

impl Effects {
    /// Union another function's effects into this one (for transitive
    /// closure). Callee `this_*` effects are *receiver-relative*; when a
    /// callee is invoked on a different object they are still field effects
    /// on that callee's receiver class, so for closure purposes they merge
    /// into `other_*` unless the receiver is literally `this`.
    fn absorb_call(&mut self, callee: &Effects, receiver_is_this: bool) {
        if receiver_is_this {
            self.this_reads.extend(callee.this_reads.iter().copied());
            self.this_writes.extend(callee.this_writes.iter().copied());
        } else {
            self.other_reads.extend(callee.this_reads.iter().copied());
            self.other_writes.extend(callee.this_writes.iter().copied());
        }
        self.other_reads.extend(callee.other_reads.iter().copied());
        self.other_writes.extend(callee.other_writes.iter().copied());
        self.global_reads.extend(callee.global_reads.iter().copied());
        self.global_writes.extend(callee.global_writes.iter().copied());
        self.array_writes |= callee.array_writes;
        self.array_reads |= callee.array_reads;
        self.allocates |= callee.allocates;
    }

    /// True if the function writes no state at all (a *pure* observer).
    #[must_use]
    pub fn is_pure(&self) -> bool {
        self.this_writes.is_empty()
            && self.other_writes.is_empty()
            && self.global_writes.is_empty()
            && !self.array_writes
            && !self.allocates
    }
}

/// Effects for every function: `direct[f]` is `f`'s own body only,
/// `transitive[f]` includes everything reachable through calls.
#[derive(Debug, Clone)]
pub struct EffectsMap {
    /// Per-function direct effects.
    pub direct: Vec<Effects>,
    /// Per-function transitive effects.
    pub transitive: Vec<Effects>,
}

impl EffectsMap {
    /// Compute effects for the whole program.
    #[must_use]
    pub fn build(hir: &Hir, callgraph: &CallGraph) -> Self {
        let n = hir.functions.len();
        let direct: Vec<Effects> = hir.functions.iter().map(|f| scan_stmts(&f.body)).collect();
        // Fixpoint closure (graphs are tiny; iterate until stable).
        let mut transitive = direct.clone();
        loop {
            let mut changed = false;
            for i in 0..n {
                let mut acc = transitive[i].clone();
                // Re-scan calls with receiver information.
                let mut calls = Vec::new();
                collect_calls_with_receiver(&hir.functions[i].body, &mut calls);
                for (callee, recv_is_this) in calls {
                    let snapshot = transitive[callee.0].clone();
                    acc.absorb_call(&snapshot, recv_is_this);
                }
                if acc != transitive[i] {
                    transitive[i] = acc;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        let _ = callgraph;
        EffectsMap { direct, transitive }
    }

    /// Transitive effects of a function.
    #[must_use]
    pub fn of(&self, f: FuncId) -> &Effects {
        &self.transitive[f.0]
    }
}

/// Calls in a body, with whether the receiver is syntactically `this`
/// (free-function calls count as non-`this`).
pub fn collect_calls_with_receiver(stmts: &[Stmt], out: &mut Vec<(FuncId, bool)>) {
    visit_exprs_stmts(stmts, &mut |e| match &e.kind {
        ExprKind::CallFn { func, .. } => out.push((*func, false)),
        ExprKind::CallMethod { obj, func, .. } => {
            out.push((*func, matches!(obj.kind, ExprKind::This)));
        }
        _ => {}
    });
}

/// The writes of every assignment in a statement list; the read, array-read
/// and allocation fields stay empty.
pub(crate) fn writes_of(stmts: &[Stmt]) -> Effects {
    let mut e = Effects::default();
    visit_stmts(stmts, &mut |s| match s {
        Stmt::Assign { place: Place::Global(g), .. } => {
            e.global_writes.insert(g.0);
        }
        Stmt::Assign { place: Place::Field { obj, class, field }, .. } => {
            if matches!(obj.kind, ExprKind::This) {
                e.this_writes.insert((*class, *field));
            } else {
                e.other_writes.insert((*class, *field));
            }
        }
        Stmt::Assign { place: Place::Index { .. }, .. } => e.array_writes = true,
        _ => {}
    });
    e
}

/// Direct effects of a statement list: [`writes_of`] plus the reads and
/// allocations of its expressions.
fn scan_stmts(stmts: &[Stmt]) -> Effects {
    let mut e = writes_of(stmts);
    visit_exprs_stmts(stmts, &mut |x| match &x.kind {
        ExprKind::FieldGet { obj, class, field } => {
            if matches!(obj.kind, ExprKind::This) {
                e.this_reads.insert((*class, *field));
            } else {
                e.other_reads.insert((*class, *field));
            }
        }
        ExprKind::Index { .. } => e.array_reads = true,
        ExprKind::Global(g) => {
            e.global_reads.insert(g.0);
        }
        ExprKind::New { .. } | ExprKind::NewArray { .. } => e.allocates = true,
        _ => {}
    });
    e
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynfb_lang::compile_source;

    #[test]
    fn direct_effects_classify_reads_and_writes() {
        let hir = compile_source(
            "class c { double x; double y; void m(c other) {
                 this.x = this.x + other.y;
             } }",
        )
        .unwrap();
        let cg = CallGraph::build(&hir);
        let eff = EffectsMap::build(&hir, &cg);
        let m = hir.method_named(ClassId(0), "m").unwrap();
        let e = &eff.direct[m.0];
        assert!(e.this_writes.contains(&(ClassId(0), 0)));
        assert!(e.this_reads.contains(&(ClassId(0), 0)));
        assert!(e.other_reads.contains(&(ClassId(0), 1)));
        assert!(e.other_writes.is_empty());
    }

    #[test]
    fn transitive_effects_follow_this_calls() {
        let hir = compile_source(
            "class c { double x;
                 void inner() { this.x += 1.0; }
                 void outer() { this.inner(); }
                 void cross(c o) { o.inner(); }
             }",
        )
        .unwrap();
        let cg = CallGraph::build(&hir);
        let eff = EffectsMap::build(&hir, &cg);
        let outer = hir.method_named(ClassId(0), "outer").unwrap();
        // `outer` calls `inner` on `this`, so the write stays this-relative.
        assert!(eff.of(outer).this_writes.contains(&(ClassId(0), 0)));
        // `cross` calls `inner` on another object: write becomes other-write.
        let cross = hir.method_named(ClassId(0), "cross").unwrap();
        assert!(eff.of(cross).other_writes.contains(&(ClassId(0), 0)));
        assert!(eff.of(cross).this_writes.is_empty());
    }

    #[test]
    fn purity_detection() {
        let hir = compile_source(
            "class c { double x;
                 double get() { return this.x; }
                 void set(double v) { this.x = v; }
             }",
        )
        .unwrap();
        let cg = CallGraph::build(&hir);
        let eff = EffectsMap::build(&hir, &cg);
        assert!(eff.of(hir.method_named(ClassId(0), "get").unwrap()).is_pure());
        assert!(!eff.of(hir.method_named(ClassId(0), "set").unwrap()).is_pure());
    }

    #[test]
    fn globals_and_arrays_tracked() {
        let hir = compile_source(
            "int counter;
             void f(double[] a) { counter = counter + 1; a[0] = a[1]; }",
        )
        .unwrap();
        let cg = CallGraph::build(&hir);
        let eff = EffectsMap::build(&hir, &cg);
        let e = eff.of(hir.function_named("f").unwrap());
        assert!(e.global_writes.contains(&0));
        assert!(e.global_reads.contains(&0));
        assert!(e.array_writes);
        assert!(e.array_reads);
    }
}
