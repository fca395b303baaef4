//! Call graph construction and cycle detection.
//!
//! The *Bounded* synchronization optimization policy applies a lock
//! elimination transformation "only if the new critical region will contain
//! no cycles in the call graph" (§3 of the paper). This module computes the
//! static call graph of a program and, for every function, whether it can
//! reach a call-graph cycle — the predicate the Bounded policy queries.
//! [`dfs`] is the one reachability search every pass shares.

use dynfb_lang::hir::{visit_exprs_stmts, ExprKind, FuncId, Function, Hir, Stmt};

/// The static call graph of a program.
#[derive(Debug, Clone)]
pub struct CallGraph {
    /// Direct callees of each function (deduplicated, in first-call order).
    pub callees: Vec<Vec<FuncId>>,
    /// `recursive[f]`: `f` participates in a call-graph cycle.
    pub recursive: Vec<bool>,
    /// `reaches_cycle[f]`: some function reachable from `f` (including `f`
    /// itself) participates in a cycle.
    pub reaches_cycle: Vec<bool>,
}

impl CallGraph {
    /// Build the call graph for a program.
    #[must_use]
    pub fn build(hir: &Hir) -> Self {
        Self::from_functions(&hir.functions)
    }

    /// Build the call graph of a function table (a program's, or a policy's
    /// table with its generated clones). Calls to indices outside the table
    /// are not edges.
    #[must_use]
    pub fn from_functions(functions: &[Function]) -> Self {
        let n = functions.len();
        let callees: Vec<Vec<FuncId>> = functions
            .iter()
            .map(|f| {
                let mut uniq = Vec::new();
                for c in calls_in(&f.body) {
                    if c.0 < n && !uniq.contains(&c) {
                        uniq.push(c);
                    }
                }
                uniq
            })
            .collect();
        let succ = |f: FuncId| callees[f.0].iter().copied();
        // A function is recursive iff it can reach itself.
        let recursive: Vec<bool> =
            (0..n).map(|f| dfs(n, succ(FuncId(f)), succ).any(|g| g.0 == f)).collect();
        let reaches_cycle =
            (0..n).map(|f| dfs(n, [FuncId(f)], succ).any(|g| recursive[g.0])).collect();
        CallGraph { callees, recursive, reaches_cycle }
    }

    /// All functions reachable from `roots` (including the roots).
    #[must_use]
    pub fn reachable(&self, roots: &[FuncId]) -> Vec<FuncId> {
        let succ = |f: FuncId| self.callees[f.0].iter().copied();
        let mut out: Vec<FuncId> = dfs(self.callees.len(), roots.iter().copied(), succ).collect();
        out.sort();
        out
    }
}

/// Depth-first search over the functions `0..n`, yielding each function
/// when it is visited. A LIFO stack starts with `roots`; the first pop of a
/// function visits it (later pops, and indices outside `0..n`, are
/// skipped), and `succ(f)` is pushed, in order, when the search resumes.
pub fn dfs<S: IntoIterator<Item = FuncId>>(
    n: usize,
    roots: impl IntoIterator<Item = FuncId>,
    mut succ: impl FnMut(FuncId) -> S,
) -> impl Iterator<Item = FuncId> {
    let mut seen = vec![false; n];
    let mut stack: Vec<FuncId> = roots.into_iter().collect();
    let mut visited: Option<FuncId> = None;
    std::iter::from_fn(move || {
        if let Some(f) = visited.take() {
            stack.extend(succ(f));
        }
        while let Some(f) = stack.pop() {
            if f.0 < n && !std::mem::replace(&mut seen[f.0], true) {
                visited = Some(f);
                return Some(f);
            }
        }
        None
    })
}

/// Every `FuncId` called anywhere in a statement list, in source pre-order
/// (a call before its receiver and arguments), duplicates kept.
#[must_use]
pub fn calls_in(stmts: &[Stmt]) -> Vec<FuncId> {
    let mut out = Vec::new();
    visit_exprs_stmts(stmts, &mut |e| {
        if let ExprKind::CallFn { func, .. } | ExprKind::CallMethod { func, .. } = &e.kind {
            out.push(*func);
        }
    });
    out
}

/// Append [`calls_in`]`(stmts)` to `out`.
pub fn collect_calls_stmts(stmts: &[Stmt], out: &mut Vec<FuncId>) {
    out.extend(calls_in(stmts));
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynfb_lang::compile_source;
    use dynfb_lang::hir::Expr;

    #[test]
    fn detects_direct_and_mutual_recursion() {
        let hir = compile_source(
            "int fact(int n) { if (n <= 1) { return 1; } return n * fact(n - 1); }
             int even(int n) { if (n == 0) { return 1; } return odd(n - 1); }
             int odd(int n) { if (n == 0) { return 0; } return even(n - 1); }
             int plain(int n) { return n + 1; }
             int caller(int n) { return fact(n) + plain(n); }",
        )
        .unwrap();
        let cg = CallGraph::build(&hir);
        let id = |name: &str| hir.function_named(name).unwrap().0;
        assert!(cg.recursive[id("fact")]);
        assert!(cg.recursive[id("even")]);
        assert!(cg.recursive[id("odd")]);
        assert!(!cg.recursive[id("plain")]);
        assert!(!cg.recursive[id("caller")]);
        assert!(cg.reaches_cycle[id("caller")], "caller reaches fact's cycle");
        assert!(!cg.reaches_cycle[id("plain")]);
    }

    #[test]
    fn reachable_set_includes_transitive_callees() {
        let hir = compile_source(
            "int c(int n) { return n; }
             int b(int n) { return c(n); }
             int a(int n) { return b(n); }",
        )
        .unwrap();
        let cg = CallGraph::build(&hir);
        let a = hir.function_named("a").unwrap();
        let all = cg.reachable(&[a]);
        assert_eq!(all.len(), 3);
    }

    #[test]
    fn callees_follow_source_pre_order() {
        // One callee per syntactic position, named in the order the walk
        // must find them; `val` is called twice and listed once.
        let mut hir = compile_source(
            "class c { int v; int get(int k) { return k; } }
             c obj(int k) { return null; }
             int[] arr(int k) { return null; }
             int idx(int k) { return k; }
             int val(int k) { return k; }
             bool cond(int k) { return true; }
             int thn(int k) { return k; }
             int els(int k) { return k; }
             bool wcond(int k) { return false; }
             int start(int k) { return k; }
             int bound(int k) { return k; }
             c recv(int k) { return null; }
             int arg(int k) { return k; }
             c lock(int k) { return null; }
             int ret(int k) { return k; }
             int all() {
                 obj(0).v = val(0);
                 arr(0)[idx(0)] = val(1);
                 if (cond(0)) { thn(0); } else { els(0); }
                 while (wcond(0)) { }
                 for (int i = start(0); i < bound(0); i++) { }
                 recv(0).get(arg(0));
                 return ret(0);
             }",
        )
        .unwrap();
        let id = |name: &str| hir.function_named(name).unwrap();
        let get = hir.method_named(dynfb_lang::hir::ClassId(0), "get").unwrap();
        let expected: Vec<FuncId> =
            ["obj", "val", "arr", "idx", "cond", "thn", "els", "wcond", "start", "bound"]
                .into_iter()
                .map(id)
                .chain([get, id("recv"), id("arg"), id("lock"), id("ret")])
                .collect();
        // The front end never emits a critical region; put one, locking
        // the object `lock(0)` returns, just before the `return`.
        let lock = Expr {
            kind: ExprKind::CallFn { func: id("lock"), args: vec![Expr::int(0)] },
            ty: hir.functions[id("lock").0].ret.clone(),
        };
        let all = id("all").0;
        let body = &mut hir.functions[all].body;
        let ret = body.pop().unwrap();
        body.push(Stmt::Critical { lock_obj: lock, body: vec![], regions: vec![] });
        body.push(ret);
        assert_eq!(CallGraph::build(&hir).callees[all], expected);
    }

    #[test]
    fn method_calls_are_edges() {
        let hir = compile_source(
            "class c { int x; void touch() { this.x += 1; } }
             void f(c o) { o.touch(); }",
        )
        .unwrap();
        let cg = CallGraph::build(&hir);
        let f = hir.function_named("f").unwrap();
        assert_eq!(cg.callees[f.0].len(), 1);
    }
}
