//! Commutativity analysis (§2 of the paper).
//!
//! The compiler parallelizes a loop when all of the *operations* in its
//! computation — the method invocations transitively reachable from the
//! loop body — commute: they produce the same final object state in either
//! execution order. The analysis has three parts:
//!
//! 1. **Separability / summarization** ([`summarize`]): each *update
//!    operation* is symbolically executed to produce, per receiver field, a
//!    symbolic expression for the field's new value in terms of the field's
//!    initial values ([`Sym::Init`]) and the invocation's inputs
//!    ([`Sym::Param`]). Operations whose field updates depend on control
//!    flow, or that write state other than their receiver, are rejected.
//! 2. **Update-form checking**: each update must be a commutative update
//!    `f ← f ⊕ e` with `⊕ ∈ {+, ×}` and `e` independent of every field any
//!    extent operation writes.
//! 3. **Pairwise symbolic testing** ([`commute`]): every pair of update
//!    operations on the same class (including an operation paired with a
//!    second instance of itself) is executed symbolically in both orders;
//!    the resulting states must have identical normal forms.

use crate::callgraph::{calls_in, CallGraph};
use crate::effects::{writes_of, EffectsMap, FieldRef};
use crate::symbolic::Sym;
use dynfb_lang::hir::{
    visit_exprs, visit_exprs_stmts, visit_stmts, BinOp, ClassId, Expr, ExprKind, FuncId, Hir,
    Place, Stmt, Ty, UnOp,
};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// The symbolic effect of one update operation on its receiver.
#[derive(Debug, Clone, PartialEq)]
pub struct OpSummary {
    /// The operation.
    pub func: FuncId,
    /// Receiver class.
    pub class: ClassId,
    /// `(field, new_value)`: symbolic new value per written field, in terms
    /// of `Init(field)` and `Param { inst: 0, .. }`.
    pub updates: Vec<(usize, Sym)>,
    /// Receiver fields read in branch conditions (must not intersect the
    /// extent's written set).
    pub cond_reads: BTreeSet<usize>,
    /// Fields of *other* objects read anywhere in the operation, as
    /// `(class, field)` pairs recovered from opaque `get:` tags.
    pub foreign_reads: BTreeSet<FieldRef>,
}

/// Why a loop could not be parallelized (or an operation summarized).
pub type Reason = String;

/// Outcome of analyzing a parallel-loop candidate.
#[derive(Debug, Clone)]
pub struct CommutativityReport {
    /// True if all extent operations provably commute.
    pub parallelizable: bool,
    /// Diagnostics explaining any rejection.
    pub reasons: Vec<Reason>,
    /// Functions in the extent (transitively callable from the loop body).
    pub extent: Vec<FuncId>,
    /// Update operations found in the extent.
    pub updaters: Vec<FuncId>,
    /// All `(class, field)` pairs written by extent operations.
    pub written: BTreeSet<FieldRef>,
}

/// Memoization table for [`summarize`].
pub type SummaryMemo = HashMap<FuncId, MemoEntry>;

/// An entry in the summarization memo.
#[derive(Debug, Clone)]
pub enum MemoEntry {
    /// Final result.
    Done(Result<OpSummary, Reason>),
    /// In-flight provisional summary (for recursive update operations,
    /// refined to a fixpoint).
    Provisional(OpSummary),
}

/// Summarize an update method: symbolically execute its body.
///
/// Recursive update operations (e.g. a tree walk invoking commutative
/// updates on `this` at the leaves) are handled by fixpoint iteration:
/// recursive calls first see an optimistic empty summary, which is then
/// refined until the per-field update classification stabilizes.
///
/// # Errors
///
/// Returns a human-readable reason when the method is not separable
/// (conditional field updates, writes outside the receiver, unanalyzable
/// constructs, non-commutative recursion, ...).
pub fn summarize(
    hir: &Hir,
    effects: &EffectsMap,
    func: FuncId,
    memo: &mut SummaryMemo,
) -> Result<OpSummary, Reason> {
    match memo.get(&func) {
        Some(MemoEntry::Done(r)) => return r.clone(),
        Some(MemoEntry::Provisional(s)) => return Ok(s.clone()),
        None => {}
    }
    let empty = OpSummary {
        func,
        class: hir.functions[func.0].class.unwrap_or(ClassId(0)),
        updates: Vec::new(),
        cond_reads: BTreeSet::new(),
        foreign_reads: BTreeSet::new(),
    };
    memo.insert(func, MemoEntry::Provisional(empty));
    let mut prev_sig: Option<Vec<(usize, Option<UpdateOp>)>> = None;
    for _ in 0..4 {
        let result = summarize_inner(hir, effects, func, memo);
        match result {
            Ok(s) => {
                let own: BTreeSet<usize> = s.updates.iter().map(|(f, _)| *f).collect();
                let sig: Vec<(usize, Option<UpdateOp>)> = s
                    .updates
                    .iter()
                    .map(|(f, e)| (*f, check_update_form(*f, e, &own).ok()))
                    .collect();
                if prev_sig.as_ref() == Some(&sig) {
                    memo.insert(func, MemoEntry::Done(Ok(s.clone())));
                    return Ok(s);
                }
                prev_sig = Some(sig);
                memo.insert(func, MemoEntry::Provisional(s));
            }
            Err(r) => {
                memo.insert(func, MemoEntry::Done(Err(r.clone())));
                return Err(r);
            }
        }
    }
    let r = Err(format!(
        "update operation `{}` did not stabilize under recursion",
        hir.functions[func.0].name
    ));
    memo.insert(func, MemoEntry::Done(r.clone()));
    r
}

fn summarize_inner(
    hir: &Hir,
    effects: &EffectsMap,
    func: FuncId,
    memo: &mut SummaryMemo,
) -> Result<OpSummary, Reason> {
    let f = &hir.functions[func.0];
    let name = f.qualified_name(&hir.classes);
    let class = f.class.ok_or_else(|| format!("`{name}` is not a method"))?;
    if f.ret != Ty::Void {
        return Err(format!("update operation `{name}` must return void"));
    }
    let mut exec = SymExec {
        hir,
        effects,
        memo,
        env: (0..f.locals.len())
            .map(|i| if i < f.num_params { Some(Sym::Param { inst: 0, slot: i }) } else { None })
            .collect(),
        state: BTreeMap::new(),
        cond_reads: BTreeSet::new(),
        foreign_reads: BTreeSet::new(),
        havoc: 0,
        name: name.clone(),
    };
    exec.stmts(&f.body)?;
    let updates = exec.state.into_iter().collect();
    Ok(OpSummary {
        func,
        class,
        updates,
        cond_reads: exec.cond_reads,
        foreign_reads: exec.foreign_reads,
    })
}

struct SymExec<'a> {
    hir: &'a Hir,
    effects: &'a EffectsMap,
    memo: &'a mut SummaryMemo,
    env: Vec<Option<Sym>>,
    state: BTreeMap<usize, Sym>,
    cond_reads: BTreeSet<usize>,
    foreign_reads: BTreeSet<FieldRef>,
    havoc: usize,
    name: String,
}

impl<'a> SymExec<'a> {
    fn fresh(&mut self) -> Sym {
        self.havoc += 1;
        Sym::Havoc(self.havoc)
    }

    fn stmts(&mut self, stmts: &[Stmt]) -> Result<(), Reason> {
        for s in stmts {
            self.stmt(s)?;
        }
        Ok(())
    }

    fn stmt(&mut self, s: &Stmt) -> Result<(), Reason> {
        match s {
            Stmt::Assign { place, value } => {
                let v = self.eval(value)?;
                match place {
                    Place::Local(id) => {
                        self.env[id.0] = Some(v);
                        Ok(())
                    }
                    Place::Field { obj, field, .. } => {
                        if matches!(obj.kind, ExprKind::This) {
                            self.state.insert(*field, v);
                            Ok(())
                        } else {
                            Err(format!("`{}` writes a field of another object", self.name))
                        }
                    }
                    Place::Global(_) => Err(format!("`{}` writes a global variable", self.name)),
                    Place::Index { .. } => Err(format!("`{}` writes an array element", self.name)),
                }
            }
            Stmt::If { cond, then_branch, else_branch } => {
                self.branch_guard(cond, &[then_branch, else_branch])
            }
            Stmt::While { cond, body } => self.branch_guard(cond, &[body]),
            Stmt::CountedFor { var, start, bound, body } => {
                // Evaluate bounds (for read tracking), havoc the induction
                // variable, then treat like a branch.
                let _ = self.eval(start)?;
                let _ = self.eval(bound)?;
                self.env[var.0] = Some(self.fresh());
                self.branch_body(&[body])
            }
            Stmt::Return(v) => {
                if let Some(v) = v {
                    let _ = self.eval(v)?;
                }
                Ok(())
            }
            Stmt::Expr(e) => {
                // Calls for effect.
                match &e.kind {
                    ExprKind::CallMethod { obj, func, args } => {
                        for a in args {
                            let _ = self.eval(a)?;
                        }
                        let callee_eff = self.effects.of(*func);
                        if callee_eff.is_pure() {
                            return Ok(());
                        }
                        if matches!(obj.kind, ExprKind::This) {
                            // Compose the callee's updates into our state.
                            let sub = summarize(self.hir, self.effects, *func, self.memo)?;
                            self.compose(sub, args)?;
                            Ok(())
                        } else {
                            // A sub-operation on another object: it is a
                            // separate operation in the extent; it does not
                            // change `this`'s state.
                            let _ = self.eval(obj)?;
                            Ok(())
                        }
                    }
                    ExprKind::CallFn { func, args } => {
                        for a in args {
                            let _ = self.eval(a)?;
                        }
                        if self.effects.of(*func).is_pure() {
                            Ok(())
                        } else {
                            Err(format!(
                                "`{}` calls impure free function `{}`",
                                self.name, self.hir.functions[func.0].name
                            ))
                        }
                    }
                    _ => {
                        let _ = self.eval(e)?;
                        Ok(())
                    }
                }
            }
            Stmt::Critical { body, .. } => self.stmts(body),
        }
    }

    /// Execute a branch construct: no receiver-field writes are allowed
    /// inside, and locals assigned within become unknowns.
    fn branch_guard(&mut self, cond: &Expr, bodies: &[&[Stmt]]) -> Result<(), Reason> {
        // Track this-field reads in the condition.
        visit_exprs(cond, &mut |x| {
            if let ExprKind::FieldGet { obj, field, .. } = &x.kind {
                if matches!(obj.kind, ExprKind::This) {
                    self.cond_reads.insert(*field);
                }
            }
        });
        let _ = self.eval(cond)?;
        self.branch_body(bodies)
    }

    fn branch_body(&mut self, bodies: &[&[Stmt]]) -> Result<(), Reason> {
        for body in bodies {
            if writes_this_fields(body) {
                return Err(format!(
                    "`{}` updates receiver fields under control flow (not separable)",
                    self.name
                ));
            }
            // Calls on `this` to update operations inside loops/branches are
            // the paper's Figure 1 pattern (`interactions` repeatedly
            // invoking `one_interaction` on `this`): each invocation is a
            // commutative update, so an unknown number of them composes to
            // a commutative update with an unknown operand.
            self.compose_iterated(body)?;
            // Record reads and havoc assigned locals (not counted-loop
            // induction variables).
            visit_exprs_stmts(body, &mut |x| {
                if let ExprKind::FieldGet { obj, class, field } = &x.kind {
                    if matches!(obj.kind, ExprKind::This) {
                        self.cond_reads.insert(*field);
                    } else {
                        self.foreign_reads.insert((*class, *field));
                    }
                }
            });
            let mut assigned = Vec::new();
            visit_stmts(body, &mut |s| {
                if let Stmt::Assign { place: Place::Local(l), .. } = s {
                    assigned.push(l.0);
                }
            });
            for l in assigned {
                self.env[l] = Some(self.fresh());
            }
        }
        Ok(())
    }

    /// Fold the effect of an *unknown number* of invocations of `this`-
    /// receiver update operations within a branch/loop body into the
    /// symbolic state: each commutative update `f ← f ⊕ e` becomes
    /// `f ← f ⊕ havoc`. Non-commutative callee updates are rejected.
    fn compose_iterated(&mut self, stmts: &[Stmt]) -> Result<(), Reason> {
        for s in stmts {
            match s {
                Stmt::Expr(e) => match &e.kind {
                    ExprKind::CallMethod { obj, func, .. } => {
                        if self.effects.of(*func).is_pure() {
                            continue;
                        }
                        if !matches!(obj.kind, ExprKind::This) {
                            continue; // a separate operation in the extent
                        }
                        let sub = summarize(self.hir, self.effects, *func, self.memo)?;
                        let own: BTreeSet<usize> = sub.updates.iter().map(|(f, _)| *f).collect();
                        self.cond_reads.extend(sub.cond_reads.iter().copied());
                        self.foreign_reads.extend(sub.foreign_reads.iter().copied());
                        for (f, expr) in &sub.updates {
                            match check_update_form(*f, expr, &own)? {
                                UpdateOp::Identity => {}
                                UpdateOp::Add => {
                                    let cur = self.state.get(f).cloned().unwrap_or(Sym::Init(*f));
                                    let h = self.fresh();
                                    self.state.insert(*f, Sym::add(cur, h));
                                }
                                UpdateOp::Mul => {
                                    let cur = self.state.get(f).cloned().unwrap_or(Sym::Init(*f));
                                    let h = self.fresh();
                                    self.state.insert(*f, Sym::mul(cur, h));
                                }
                            }
                        }
                    }
                    ExprKind::CallFn { func, .. } if !self.effects.of(*func).is_pure() => {
                        return Err(format!(
                            "`{}` conditionally calls impure free function `{}`",
                            self.name, self.hir.functions[func.0].name
                        ));
                    }
                    _ => {}
                },
                Stmt::If { then_branch, else_branch, .. } => {
                    self.compose_iterated(then_branch)?;
                    self.compose_iterated(else_branch)?;
                }
                Stmt::While { body, .. } | Stmt::CountedFor { body, .. } => {
                    self.compose_iterated(body)?;
                }
                Stmt::Critical { body, .. } => self.compose_iterated(body)?,
                _ => {}
            }
        }
        // Impure calls in *value* positions are still rejected: collect the
        // statement-level call expressions (handled above) by identity and
        // flag any other impure call.
        let mut stmt_calls: Vec<&Expr> = Vec::new();
        visit_stmts(stmts, &mut |s| {
            if let Stmt::Expr(e) = s {
                stmt_calls.push(e);
            }
        });
        let mut bad: Option<String> = None;
        visit_exprs_stmts(stmts, &mut |x| {
            if bad.is_some() || stmt_calls.iter().any(|&e| std::ptr::eq(e, x)) {
                return;
            }
            if let ExprKind::CallMethod { func, .. } | ExprKind::CallFn { func, .. } = &x.kind {
                if !self.effects.of(*func).is_pure() {
                    bad = Some(self.hir.functions[func.0].name.clone());
                }
            }
        });
        if let Some(name) = bad {
            return Err(format!(
                "`{}` uses the value of impure call `{name}` under control flow",
                self.name
            ));
        }
        Ok(())
    }

    /// Merge a `this`-receiver sub-call's summary into the current state,
    /// substituting actual arguments for the callee's parameters.
    fn compose(&mut self, sub: OpSummary, args: &[Expr]) -> Result<(), Reason> {
        let mut actuals = Vec::new();
        for a in args {
            actuals.push(self.eval(a)?);
        }
        self.cond_reads.extend(sub.cond_reads.iter().copied());
        self.foreign_reads.extend(sub.foreign_reads.iter().copied());
        let snapshot: Vec<(usize, Sym)> = sub
            .updates
            .iter()
            .map(|(f, expr)| {
                let with_args = substitute_params(expr, &actuals);
                // Substitute current state for Init references.
                let max_field = self.hir.classes.get(sub.class.0).map_or(0, |c| c.fields.len());
                let state_vec: Vec<Sym> = (0..max_field)
                    .map(|i| self.state.get(&i).cloned().unwrap_or(Sym::Init(i)))
                    .collect();
                (*f, with_args.substitute_init(&state_vec))
            })
            .collect();
        for (f, v) in snapshot {
            self.state.insert(f, v);
        }
        Ok(())
    }

    fn eval(&mut self, e: &Expr) -> Result<Sym, Reason> {
        Ok(match &e.kind {
            ExprKind::Int(v) => Sym::Int(*v),
            ExprKind::Double(v) => Sym::Double(crate::symbolic::Bits::from_f64(*v)),
            ExprKind::Bool(b) => Sym::Int(i64::from(*b)),
            ExprKind::Null => Sym::opaque("null", vec![]),
            ExprKind::This => Sym::opaque("this", vec![]),
            ExprKind::Local(id) => self
                .env
                .get(id.0)
                .cloned()
                .flatten()
                .ok_or_else(|| format!("`{}` reads an uninitialized local", self.name))?,
            ExprKind::Global(g) => Sym::opaque(format!("global:{}", g.0), vec![]),
            ExprKind::FieldGet { obj, class, field } => {
                if matches!(obj.kind, ExprKind::This) {
                    self.state.get(field).cloned().unwrap_or(Sym::Init(*field))
                } else {
                    self.foreign_reads.insert((*class, *field));
                    let o = self.eval(obj)?;
                    Sym::opaque(format!("get:{}.{}", class.0, field), vec![o])
                }
            }
            ExprKind::Index { arr, idx } => {
                let a = self.eval(arr)?;
                let i = self.eval(idx)?;
                Sym::opaque("index", vec![a, i])
            }
            ExprKind::ArrayLen(a) => {
                let a = self.eval(a)?;
                Sym::opaque("len", vec![a])
            }
            ExprKind::Binary { op, lhs, rhs } => {
                let l = self.eval(lhs)?;
                let r = self.eval(rhs)?;
                match op {
                    BinOp::Add => Sym::add(l, r),
                    BinOp::Sub => Sym::sub(l, r),
                    BinOp::Mul => Sym::mul(l, r),
                    BinOp::Div => Sym::opaque("div", vec![l, r]),
                    BinOp::Rem => Sym::opaque("rem", vec![l, r]),
                    BinOp::Eq => Sym::opaque("eq", vec![l, r]),
                    BinOp::Ne => Sym::opaque("ne", vec![l, r]),
                    // Note: lt(a,b) vs gt(b,a) are not identified; the
                    // analysis is conservative.
                    BinOp::Lt => Sym::opaque("lt", vec![l, r]),
                    BinOp::Le => Sym::opaque("le", vec![l, r]),
                    BinOp::Gt => Sym::opaque("gt", vec![l, r]),
                    BinOp::Ge => Sym::opaque("ge", vec![l, r]),
                    BinOp::And => Sym::opaque("and", vec![l, r]),
                    BinOp::Or => Sym::opaque("or", vec![l, r]),
                }
            }
            ExprKind::Unary { op, expr } => {
                let v = self.eval(expr)?;
                match op {
                    UnOp::Neg => Sym::neg(v),
                    UnOp::Not => Sym::opaque("not", vec![v]),
                }
            }
            ExprKind::IntToDouble(inner) => self.eval(inner)?,
            ExprKind::CallExtern { ext, args } => {
                let mut a = Vec::new();
                for x in args {
                    a.push(self.eval(x)?);
                }
                Sym::opaque(format!("extern:{}", self.hir.externs[ext.0].name), a)
            }
            ExprKind::CallFn { func, args } | ExprKind::CallMethod { func, args, .. } => {
                if !self.effects.of(*func).is_pure() {
                    return Err(format!(
                        "`{}` uses the value of impure call `{}`",
                        self.name, self.hir.functions[func.0].name
                    ));
                }
                let mut a = Vec::new();
                if let ExprKind::CallMethod { obj, .. } = &e.kind {
                    a.push(self.eval(obj)?);
                }
                for x in args {
                    a.push(self.eval(x)?);
                }
                Sym::opaque(format!("call:{}", func.0), a)
            }
            ExprKind::New { .. } | ExprKind::NewArray { .. } => {
                return Err(format!("`{}` allocates inside an operation", self.name));
            }
        })
    }
}

/// Rename an expression's inputs to a different operation instance.
#[must_use]
pub fn rename_instance(sym: &Sym, inst: usize) -> Sym {
    const HAVOC_STRIDE: usize = 1 << 20;
    match sym {
        Sym::Param { slot, .. } => Sym::Param { inst, slot: *slot },
        Sym::Havoc(n) => Sym::Havoc(n + inst * HAVOC_STRIDE),
        Sym::Add(ts) => Sym::Add(ts.iter().map(|t| rename_instance(t, inst)).collect()),
        Sym::Mul(ts) => Sym::Mul(ts.iter().map(|t| rename_instance(t, inst)).collect()),
        Sym::Opaque { tag, args } => Sym::Opaque {
            tag: tag.clone(),
            args: args.iter().map(|t| rename_instance(t, inst)).collect(),
        },
        leaf => leaf.clone(),
    }
}

fn substitute_params(sym: &Sym, actuals: &[Sym]) -> Sym {
    match sym {
        Sym::Param { inst: 0, slot } => actuals.get(*slot).cloned().unwrap_or_else(|| sym.clone()),
        Sym::Add(ts) => {
            Sym::Add(ts.iter().map(|t| substitute_params(t, actuals)).collect()).normalized()
        }
        Sym::Mul(ts) => {
            Sym::Mul(ts.iter().map(|t| substitute_params(t, actuals)).collect()).normalized()
        }
        Sym::Opaque { tag, args } => Sym::Opaque {
            tag: tag.clone(),
            args: args.iter().map(|t| substitute_params(t, actuals)).collect(),
        },
        leaf => leaf.clone(),
    }
}

/// Do two update operations on the same class commute? Executes both
/// orders symbolically and compares the final states.
#[must_use]
pub fn commute(a: &OpSummary, b: &OpSummary, num_fields: usize) -> bool {
    let init: Vec<Sym> = (0..num_fields).map(Sym::Init).collect();
    let a1 = instantiate(a, 1);
    let b2 = instantiate(b, 2);
    let ab = apply(&b2, &apply(&a1, &init));
    let ba = apply(&a1, &apply(&b2, &init));
    ab == ba
}

fn instantiate(s: &OpSummary, inst: usize) -> Vec<(usize, Sym)> {
    s.updates.iter().map(|(f, e)| (*f, rename_instance(e, inst))).collect()
}

fn apply(updates: &[(usize, Sym)], state: &[Sym]) -> Vec<Sym> {
    let mut next = state.to_vec();
    // Simultaneous update: all RHS evaluated against the incoming state.
    for (f, e) in updates {
        next[*f] = e.substitute_init(state);
    }
    next
}

/// The commutative update operator of a well-formed update expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateOp {
    /// `f ← f + e`
    Add,
    /// `f ← f × e`
    Mul,
    /// `f ← f` (no effective change)
    Identity,
}

/// Check that `expr` (the new value of field `field`) has the commutative
/// update form `Init(field) ⊕ e`, where the operand `e` may read the
/// receiver's *stable* fields (fields no extent operation writes,
/// enumerated by exclusion via `written_fields`) but not any written field.
///
/// # Errors
///
/// Returns a reason when the update is not in commutative form.
pub fn check_update_form(
    field: usize,
    expr: &Sym,
    written_fields: &BTreeSet<usize>,
) -> Result<UpdateOp, Reason> {
    if *expr == Sym::Init(field) {
        return Ok(UpdateOp::Identity);
    }
    let check_rest = |terms: &[Sym]| -> Result<(), Reason> {
        let mut selfs = 0;
        for t in terms {
            if *t == Sym::Init(field) {
                selfs += 1;
            } else if let Some(w) = written_fields.iter().find(|w| t.mentions_init(**w)) {
                return Err(format!(
                    "update operand for field {field} reads written field {w}: {t}"
                ));
            }
        }
        if selfs == 1 {
            Ok(())
        } else {
            Err(format!("field {field} appears {selfs} times in its own update"))
        }
    };
    match expr {
        Sym::Add(terms) => {
            check_rest(terms)?;
            Ok(UpdateOp::Add)
        }
        Sym::Mul(terms) => {
            check_rest(terms)?;
            Ok(UpdateOp::Mul)
        }
        other => {
            Err(format!("field {field} update is not a commutative update expression: {other}"))
        }
    }
}

/// Analyze the extent of a parallel-loop candidate.
#[must_use]
pub fn analyze_extent(
    hir: &Hir,
    callgraph: &CallGraph,
    effects: &EffectsMap,
    loop_body: &[Stmt],
) -> CommutativityReport {
    let mut reasons = Vec::new();

    // 1. The loop body itself must only write locals.
    let body_effects = writes_of(loop_body);
    if !body_effects.this_writes.is_empty() || !body_effects.other_writes.is_empty() {
        reasons.push("loop body writes object fields directly".to_string());
    }
    if !body_effects.global_writes.is_empty() {
        reasons.push("loop body writes globals".to_string());
    }
    if body_effects.array_writes {
        reasons.push("loop body writes array elements".to_string());
    }

    // 2. Collect the extent.
    let extent = callgraph.reachable(&calls_in(loop_body));

    // 3. Classify extent functions by their *direct* effects: functions
    // that directly update their receiver are summarized as operations;
    // functions whose writes happen only through sub-operation calls
    // (composite operations, like a pairwise loop invoking `add_force` on
    // other molecules) carry no state effect of their own — their
    // sub-operations are separately in the extent. Direct writes to
    // anything other than the receiver disqualify the loop.
    let mut memo = SummaryMemo::new();
    let mut summaries: Vec<OpSummary> = Vec::new();
    let mut updaters = Vec::new();
    let mut composites: Vec<FuncId> = Vec::new();
    for &f in &extent {
        let direct = &effects.direct[f.0];
        let func = &hir.functions[f.0];
        let name = func.qualified_name(&hir.classes);
        if !direct.other_writes.is_empty() {
            reasons.push(format!("operation `{name}` writes fields of other objects"));
            continue;
        }
        if !direct.global_writes.is_empty() {
            reasons.push(format!("operation `{name}` writes globals"));
            continue;
        }
        if direct.array_writes {
            reasons.push(format!("operation `{name}` writes array elements"));
            continue;
        }
        if direct.allocates {
            reasons.push(format!("operation `{name}` allocates"));
            continue;
        }
        if direct.this_writes.is_empty() {
            composites.push(f);
            continue;
        }
        match summarize(hir, effects, f, &mut memo) {
            Ok(s) => {
                updaters.push(f);
                summaries.push(s);
            }
            Err(r) => reasons.push(r),
        }
    }

    // 4. Written set.
    let mut written: BTreeSet<FieldRef> = BTreeSet::new();
    for s in &summaries {
        for (f, _) in &s.updates {
            written.insert((s.class, *f));
        }
    }

    // 5. Update forms and read checks.
    for s in &summaries {
        let name = hir.functions[s.func.0].qualified_name(&hir.classes);
        let class_written: BTreeSet<usize> =
            written.iter().filter(|(c, _)| *c == s.class).map(|(_, f)| *f).collect();
        for (f, e) in &s.updates {
            if let Err(r) = check_update_form(*f, e, &class_written) {
                reasons.push(format!("`{name}`: {r}"));
            }
            // Operand reads of written fields of other objects.
            for (c, rf) in &s.foreign_reads {
                if written.contains(&(*c, *rf)) {
                    reasons.push(format!(
                        "`{name}` reads field {rf} of class `{}`, which the extent writes",
                        hir.classes[c.0].name
                    ));
                }
            }
        }
        for f in &s.cond_reads {
            if written.contains(&(s.class, *f)) {
                reasons.push(format!(
                    "`{name}` branches on field `{}`, which the extent writes",
                    hir.classes[s.class.0].fields[*f].name
                ));
            }
        }
    }
    // Composite and observer extent functions must not read written fields.
    for &f in &composites {
        let direct = &effects.direct[f.0];
        let name = hir.functions[f.0].qualified_name(&hir.classes);
        let mut reads: Vec<FieldRef> = direct.other_reads.iter().copied().collect();
        reads.extend(direct.this_reads.iter().copied());
        for (c, rf) in reads {
            if written.contains(&(c, rf)) {
                reasons.push(format!(
                    "`{name}` reads a field the extent writes (class `{}`)",
                    hir.classes[c.0].name
                ));
            }
        }
    }
    // Loop-body reads of written fields.
    {
        let mut body_reads: BTreeSet<FieldRef> = BTreeSet::new();
        visit_exprs_stmts(loop_body, &mut |e| {
            if let ExprKind::FieldGet { class, field, .. } = &e.kind {
                body_reads.insert((*class, *field));
            }
        });
        for r in body_reads.intersection(&written) {
            reasons.push(format!(
                "loop body reads field {} of class `{}`, which the extent writes",
                r.1, hir.classes[r.0 .0].name
            ));
        }
    }

    // 6. Pairwise symbolic commutativity per class.
    for i in 0..summaries.len() {
        for j in i..summaries.len() {
            let (a, b) = (&summaries[i], &summaries[j]);
            if a.class != b.class {
                continue;
            }
            let n = hir.classes[a.class.0].fields.len();
            if !commute(a, b, n) {
                reasons.push(format!(
                    "operations `{}` and `{}` do not commute",
                    hir.functions[a.func.0].qualified_name(&hir.classes),
                    hir.functions[b.func.0].qualified_name(&hir.classes)
                ));
            }
        }
    }

    CommutativityReport { parallelizable: reasons.is_empty(), reasons, extent, updaters, written }
}

fn writes_this_fields(stmts: &[Stmt]) -> bool {
    let e = writes_of(stmts);
    !e.this_writes.is_empty()
        || !e.other_writes.is_empty()
        || !e.global_writes.is_empty()
        || e.array_writes
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynfb_lang::compile_source;

    fn setup(src: &str) -> (Hir, CallGraph, EffectsMap) {
        let hir = compile_source(src).unwrap();
        let cg = CallGraph::build(&hir);
        let eff = EffectsMap::build(&hir, &cg);
        (hir, cg, eff)
    }

    fn summarize_method(src: &str, class: &str, method: &str) -> Result<OpSummary, Reason> {
        let (hir, _cg, eff) = setup(src);
        let c = hir.class_named(class).unwrap();
        let m = hir.method_named(c, method).unwrap();
        summarize(&hir, &eff, m, &mut SummaryMemo::new())
    }

    #[test]
    fn sum_update_is_commutative_form() {
        let s = summarize_method(
            "extern double interact(double, double);
             class body { double pos; double sum;
                 void one(body b) {
                     double val = interact(this.pos, b.pos);
                     this.sum += val;
                 } }",
            "body",
            "one",
        )
        .unwrap();
        assert_eq!(s.updates.len(), 1);
        let (field, expr) = &s.updates[0];
        assert_eq!(*field, 1);
        let own: BTreeSet<usize> = s.updates.iter().map(|(f, _)| *f).collect();
        assert_eq!(check_update_form(*field, expr, &own), Ok(UpdateOp::Add));
    }

    #[test]
    fn overwrite_is_rejected() {
        let s = summarize_method(
            "class c { double x; void set(double v) { this.x = v; } }",
            "c",
            "set",
        )
        .unwrap();
        let (f, e) = &s.updates[0];
        let own: BTreeSet<usize> = s.updates.iter().map(|(f, _)| *f).collect();
        assert!(check_update_form(*f, e, &own).is_err());
    }

    #[test]
    fn conditional_update_is_not_separable() {
        let err = summarize_method(
            "class c { double x; void m(double v) { if (v > 0.0) { this.x += v; } } }",
            "c",
            "m",
        )
        .unwrap_err();
        assert!(err.contains("control flow"), "{err}");
    }

    #[test]
    fn same_op_instances_commute() {
        let s = summarize_method(
            "class c { double x; void add(double v) { this.x += v; } }",
            "c",
            "add",
        )
        .unwrap();
        assert!(commute(&s, &s, 1));
    }

    #[test]
    fn add_and_scale_do_not_commute() {
        let src = "class c { double x;
            void add(double v) { this.x += v; }
            void scale(double v) { this.x *= v; } }";
        let (hir, _cg, eff) = setup(src);
        let c = hir.class_named("c").unwrap();
        let mut memo = SummaryMemo::new();
        let add = summarize(&hir, &eff, hir.method_named(c, "add").unwrap(), &mut memo).unwrap();
        let scale =
            summarize(&hir, &eff, hir.method_named(c, "scale").unwrap(), &mut memo).unwrap();
        assert!(!commute(&add, &scale, 1));
        assert!(commute(&scale, &scale, 1));
    }

    #[test]
    fn updates_to_distinct_fields_commute() {
        let src = "class c { double x; double y;
            void ax(double v) { this.x += v; }
            void ay(double v) { this.y += v; } }";
        let (hir, _cg, eff) = setup(src);
        let c = hir.class_named("c").unwrap();
        let mut memo = SummaryMemo::new();
        let ax = summarize(&hir, &eff, hir.method_named(c, "ax").unwrap(), &mut memo).unwrap();
        let ay = summarize(&hir, &eff, hir.method_named(c, "ay").unwrap(), &mut memo).unwrap();
        assert!(commute(&ax, &ay, 2));
    }

    #[test]
    fn this_subcall_composes() {
        let s = summarize_method(
            "class c { double x;
                 void inner(double v) { this.x += v; }
                 void outer(double v) { this.inner(v * 2.0); } }",
            "c",
            "outer",
        )
        .unwrap();
        let (f, e) = &s.updates[0];
        let own: BTreeSet<usize> = s.updates.iter().map(|(f, _)| *f).collect();
        assert_eq!(check_update_form(*f, e, &own), Ok(UpdateOp::Add));
    }

    #[test]
    fn extent_analysis_accepts_figure_1() {
        let src = "extern double interact(double, double);
            class body { double pos; double sum;
                void one_interaction(body b) {
                    double val = interact(this.pos, b.pos);
                    this.sum += val;
                }
            }
            body[] bodies;
            void forces(int n) {
                for (int i = 0; i < n; i++) {
                    for (int j = 0; j < n; j++) {
                        bodies[i].one_interaction(bodies[j]);
                    }
                }
            }";
        let (hir, cg, eff) = setup(src);
        let f = hir.function_named("forces").unwrap();
        let Stmt::CountedFor { body, .. } = &hir.functions[f.0].body[0] else { panic!() };
        let report = analyze_extent(&hir, &cg, &eff, body);
        assert!(report.parallelizable, "{:?}", report.reasons);
        assert_eq!(report.updaters.len(), 1);
    }

    #[test]
    fn extent_analysis_rejects_non_commuting() {
        let src = "class c { double x;
                void add(double v) { this.x += v; }
                void scale(double v) { this.x *= v; }
            }
            c[] objs;
            void work(int n) {
                for (int i = 0; i < n; i++) {
                    objs[i].add(1.0);
                    objs[i].scale(2.0);
                }
            }";
        let (hir, cg, eff) = setup(src);
        let f = hir.function_named("work").unwrap();
        let Stmt::CountedFor { body, .. } = &hir.functions[f.0].body[0] else { panic!() };
        let report = analyze_extent(&hir, &cg, &eff, body);
        assert!(!report.parallelizable);
        assert!(report.reasons.iter().any(|r| r.contains("do not commute")));
    }

    #[test]
    fn extent_analysis_rejects_reads_of_written_fields() {
        let src = "class c { double x;
                void add(double v) { this.x += v; }
                double peek() { return this.x; }
            }
            c[] objs;
            double total;
            void work(int n) {
                for (int i = 0; i < n; i++) {
                    objs[i].add(objs[0].peek());
                }
            }";
        let (hir, cg, eff) = setup(src);
        let f = hir.function_named("work").unwrap();
        let Stmt::CountedFor { body, .. } = &hir.functions[f.0].body[0] else { panic!() };
        let report = analyze_extent(&hir, &cg, &eff, body);
        assert!(!report.parallelizable, "{:?}", report.reasons);
    }
}
