//! Default lock placement (§2 of the paper).
//!
//! "To ensure that operations execute atomically, the compiler augments
//! each object with a mutual exclusion lock. It then automatically inserts
//! synchronization constructs into operations that update objects." — the
//! *default placement* wraps each maximal run of consecutive receiver-field
//! updates in a critical region on the receiver's lock (compare Figure 1 of
//! the paper, where the acquire/release pair encloses exactly the
//! `sum = sum + val` update).

use dynfb_lang::hir::{Expr, ExprKind, Function, Place, Stmt};

/// Insert default critical regions into a function body: every maximal run
/// of consecutive top-level `this.field = ...` assignments becomes one
/// `Critical` region on `this`.
///
/// Each inserted region is named `"{method}#{k}"` (`k` counting regions in
/// source order within the method) — the source-level identity that the
/// synchronization optimizer propagates through merge/hoist/lift, and that
/// profiles use to attribute per-lock overhead back to code.
///
/// Returns true if any region was inserted.
pub fn insert_default_regions(func: &mut Function) -> bool {
    let Some(class) = func.class else {
        return false;
    };
    let body = std::mem::take(&mut func.body);
    let mut naming = Naming { base: func.name.clone(), next: 0 };
    let mut inserted = false;
    func.body = wrap_runs(body, &Expr::this(class), &mut naming, &mut inserted);
    inserted
}

/// Source-order region-name allocator for one function.
struct Naming {
    base: String,
    next: usize,
}

impl Naming {
    fn tag(&mut self) -> String {
        let tag = format!("{}#{}", self.base, self.next);
        self.next += 1;
        tag
    }
}

fn is_this_field_write(s: &Stmt) -> bool {
    matches!(
        s,
        Stmt::Assign { place: Place::Field { obj, .. }, .. }
            if matches!(obj.kind, ExprKind::This)
    )
}

fn wrap_runs(stmts: Vec<Stmt>, lock: &Expr, naming: &mut Naming, inserted: &mut bool) -> Vec<Stmt> {
    let mut out = Vec::new();
    let mut run: Vec<Stmt> = Vec::new();
    let flush =
        |run: &mut Vec<Stmt>, out: &mut Vec<Stmt>, naming: &mut Naming, inserted: &mut bool| {
            if !run.is_empty() {
                *inserted = true;
                out.push(Stmt::Critical {
                    lock_obj: lock.clone(),
                    body: std::mem::take(run),
                    regions: vec![naming.tag()],
                });
            }
        };
    for s in stmts {
        if is_this_field_write(&s) {
            run.push(s);
            continue;
        }
        flush(&mut run, &mut out, naming, inserted);
        // Recurse into structured statements so updates nested in control
        // flow are protected too (such operations are not *parallelized* —
        // the commutativity analysis rejects them — but serial-section code
        // shares method bodies and must stay well-formed).
        let s = match s {
            Stmt::If { cond, then_branch, else_branch } => Stmt::If {
                cond,
                then_branch: wrap_runs(then_branch, lock, naming, inserted),
                else_branch: wrap_runs(else_branch, lock, naming, inserted),
            },
            Stmt::While { cond, body } => {
                Stmt::While { cond, body: wrap_runs(body, lock, naming, inserted) }
            }
            Stmt::CountedFor { var, start, bound, body } => Stmt::CountedFor {
                var,
                start,
                bound,
                body: wrap_runs(body, lock, naming, inserted),
            },
            other => other,
        };
        out.push(s);
    }
    flush(&mut run, &mut out, naming, inserted);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::syncopt::count_regions;
    use dynfb_lang::compile_source;
    use dynfb_lang::hir::ClassId;

    #[test]
    fn separate_runs_get_separate_regions() {
        // Two update groups separated by a pure statement: two regions,
        // exactly the shape the Bounded policy later merges.
        let hir = compile_source(
            "extern double f(double);
             class c { double a; double b; double p;
                 void m(double v) {
                     this.a += v;
                     double t = f(this.p);
                     this.b += t;
                 } }",
        )
        .unwrap();
        let mut func = hir.functions[hir.method_named(ClassId(0), "m").unwrap().0].clone();
        assert!(insert_default_regions(&mut func));
        assert_eq!(count_regions(&func.body), 2);
    }

    #[test]
    fn consecutive_writes_share_one_region() {
        let hir = compile_source(
            "class c { double x; double y; double z;
                 void m(double v) { this.x += v; this.y += v; this.z += v; } }",
        )
        .unwrap();
        let mut func = hir.functions[hir.method_named(ClassId(0), "m").unwrap().0].clone();
        insert_default_regions(&mut func);
        assert_eq!(count_regions(&func.body), 1);
    }

    #[test]
    fn pure_methods_untouched() {
        let hir = compile_source("class c { double x; double get() { return this.x; } }").unwrap();
        let mut func = hir.functions[0].clone();
        assert!(!insert_default_regions(&mut func));
        assert_eq!(count_regions(&func.body), 0);
    }

    #[test]
    fn nested_updates_are_protected() {
        let hir = compile_source(
            "class c { double x;
                 void m(int n) { for (int i = 0; i < n; i++) { this.x += 1.0; } } }",
        )
        .unwrap();
        let mut func = hir.functions[0].clone();
        insert_default_regions(&mut func);
        assert_eq!(count_regions(&func.body), 1);
    }
}
