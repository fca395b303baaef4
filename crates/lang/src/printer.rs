//! A pretty-printer for the HIR: renders analyzed (and transformed) code
//! back to readable surface syntax. Critical regions — which only the
//! parallelizing compiler inserts — are rendered as
//! `synchronized (obj) { ... }` blocks, making the policy transformations
//! (the paper's Figure 1 → Figure 2) directly visible.

use crate::hir::{visit_stmts, BinOp, Expr, ExprKind, Function, Hir, Place, Stmt, Ty, UnOp};
use std::fmt::Write as _;

/// Render one function as source-like text.
#[must_use]
pub fn print_function(hir: &Hir, func: &Function) -> String {
    print_function_in(hir, &hir.functions, func)
}

/// Render one function against an explicit function table (for transformed
/// code whose call targets include generated clones that are not in the
/// original program).
#[must_use]
pub fn print_function_in(hir: &Hir, table: &[Function], func: &Function) -> String {
    let mut p = Printer { hir, table, func, out: String::new(), indent: 0 };
    let params: Vec<String> = (0..func.num_params)
        .map(|i| format!("{} {}", ty(hir, &func.locals[i].ty), func.locals[i].name))
        .collect();
    let _ = writeln!(
        p.out,
        "{} {}({}) {{",
        ty(hir, &func.ret),
        func.qualified_name(&hir.classes),
        params.join(", ")
    );
    p.indent = 1;
    // The HIR flattens lexical scopes into a slot table, erasing declaration
    // sites. Re-introduce them by declaring every non-parameter local up
    // front — except counted-loop induction variables, which the `for`
    // header declares — so the printed text is itself a valid program.
    let mut loop_vars = Vec::new();
    collect_loop_vars(&func.body, &mut loop_vars);
    for (i, local) in func.locals.iter().enumerate().skip(func.num_params) {
        if !loop_vars.contains(&i) {
            p.line(&format!("{} {};", ty(hir, &local.ty), local.name));
        }
    }
    p.stmts(&func.body);
    p.out.push_str("}\n");
    p.out
}

/// Render every function of a program.
#[must_use]
pub fn print_program(hir: &Hir) -> String {
    let mut out = String::new();
    for f in &hir.functions {
        out.push_str(&print_function(hir, f));
        out.push('\n');
    }
    out
}

/// Slot indices of every `CountedFor` induction variable in `stmts`.
fn collect_loop_vars(stmts: &[Stmt], out: &mut Vec<usize>) {
    visit_stmts(stmts, &mut |s| {
        if let Stmt::CountedFor { var, .. } = s {
            out.push(var.0);
        }
    });
}

fn ty(hir: &Hir, t: &Ty) -> String {
    match t {
        Ty::Int => "int".to_string(),
        Ty::Double => "double".to_string(),
        Ty::Bool => "bool".to_string(),
        Ty::Void => "void".to_string(),
        Ty::Object(c) => hir.classes[c.0].name.clone(),
        Ty::Array(inner) => format!("{}[]", ty(hir, inner)),
        Ty::Null => "null".to_string(),
    }
}

struct Printer<'a> {
    hir: &'a Hir,
    table: &'a [Function],
    func: &'a Function,
    out: String,
    indent: usize,
}

impl<'a> Printer<'a> {
    fn line(&mut self, text: &str) {
        for _ in 0..self.indent {
            self.out.push_str("    ");
        }
        self.out.push_str(text);
        self.out.push('\n');
    }

    fn stmts(&mut self, stmts: &[Stmt]) {
        for s in stmts {
            self.stmt(s);
        }
    }

    fn stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::Assign { place, value } => {
                let text = format!("{} = {};", self.place(place), self.expr(value));
                self.line(&text);
            }
            Stmt::If { cond, then_branch, else_branch } => {
                let text = format!("if ({}) {{", self.expr(cond));
                self.line(&text);
                self.indent += 1;
                self.stmts(then_branch);
                self.indent -= 1;
                if else_branch.is_empty() {
                    self.line("}");
                } else {
                    self.line("} else {");
                    self.indent += 1;
                    self.stmts(else_branch);
                    self.indent -= 1;
                    self.line("}");
                }
            }
            Stmt::While { cond, body } => {
                let text = format!("while ({}) {{", self.expr(cond));
                self.line(&text);
                self.indent += 1;
                self.stmts(body);
                self.indent -= 1;
                self.line("}");
            }
            Stmt::CountedFor { var, start, bound, body } => {
                let v = &self.func.locals[var.0].name;
                let text = format!(
                    "for (int {v} = {}; {v} < {}; {v}++) {{",
                    self.expr(start),
                    self.expr(bound)
                );
                self.line(&text);
                self.indent += 1;
                self.stmts(body);
                self.indent -= 1;
                self.line("}");
            }
            Stmt::Return(None) => self.line("return;"),
            Stmt::Return(Some(e)) => {
                let text = format!("return {};", self.expr(e));
                self.line(&text);
            }
            Stmt::Expr(e) => {
                let text = format!("{};", self.expr(e));
                self.line(&text);
            }
            Stmt::Critical { lock_obj, body, .. } => {
                let text = format!("synchronized ({}) {{", self.expr(lock_obj));
                self.line(&text);
                self.indent += 1;
                self.stmts(body);
                self.indent -= 1;
                self.line("}");
            }
        }
    }

    fn place(&self, p: &Place) -> String {
        match p {
            Place::Local(l) => self.func.locals[l.0].name.clone(),
            Place::Global(g) => self.hir.globals[g.0].name.clone(),
            Place::Field { obj, class, field } => {
                format!("{}.{}", self.expr(obj), self.hir.classes[class.0].fields[*field].name)
            }
            Place::Index { arr, idx } => format!("{}[{}]", self.expr(arr), self.expr(idx)),
        }
    }

    fn expr(&self, e: &Expr) -> String {
        match &e.kind {
            ExprKind::Int(v) => v.to_string(),
            ExprKind::Double(v) => {
                if v.fract() == 0.0 && v.is_finite() {
                    format!("{v:.1}")
                } else {
                    format!("{v}")
                }
            }
            ExprKind::Bool(v) => v.to_string(),
            ExprKind::Null => "null".to_string(),
            ExprKind::This => "this".to_string(),
            ExprKind::Local(l) => self.func.locals[l.0].name.clone(),
            ExprKind::Global(g) => self.hir.globals[g.0].name.clone(),
            ExprKind::FieldGet { obj, class, field } => {
                format!("{}.{}", self.expr(obj), self.hir.classes[class.0].fields[*field].name)
            }
            ExprKind::Index { arr, idx } => {
                format!("{}[{}]", self.expr(arr), self.expr(idx))
            }
            ExprKind::ArrayLen(a) => format!("{}.length", self.expr(a)),
            ExprKind::Binary { op, lhs, rhs } => {
                format!("({} {} {})", self.expr(lhs), binop(*op), self.expr(rhs))
            }
            ExprKind::Unary { op, expr } => match op {
                UnOp::Neg => format!("-{}", self.expr(expr)),
                UnOp::Not => format!("!{}", self.expr(expr)),
            },
            ExprKind::IntToDouble(inner) => format!("(double){}", self.expr(inner)),
            ExprKind::CallFn { func, args } => {
                format!("{}({})", self.callee_name(*func), self.args(args))
            }
            ExprKind::CallMethod { obj, func, args } => {
                format!("{}.{}({})", self.expr(obj), self.callee_name(*func), self.args(args))
            }
            ExprKind::CallExtern { ext, args } => {
                format!("{}({})", self.hir.externs[ext.0].name, self.args(args))
            }
            ExprKind::New { class } => format!("new {}()", self.hir.classes[class.0].name),
            ExprKind::NewArray { elem, len } => {
                format!("new {}[{}]", ty(self.hir, elem), self.expr(len))
            }
        }
    }

    fn callee_name(&self, f: crate::hir::FuncId) -> String {
        self.table.get(f.0).map_or_else(|| format!("fn#{}", f.0), |func| func.name.clone())
    }

    fn args(&self, args: &[Expr]) -> String {
        args.iter().map(|a| self.expr(a)).collect::<Vec<_>>().join(", ")
    }
}

fn binop(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => "+",
        BinOp::Sub => "-",
        BinOp::Mul => "*",
        BinOp::Div => "/",
        BinOp::Rem => "%",
        BinOp::Eq => "==",
        BinOp::Ne => "!=",
        BinOp::Lt => "<",
        BinOp::Le => "<=",
        BinOp::Gt => ">",
        BinOp::Ge => ">=",
        BinOp::And => "&&",
        BinOp::Or => "||",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile_source;

    #[test]
    fn prints_figure_1_shape() {
        let hir = compile_source(
            "extern double interact(double, double);
             class body { double pos; double sum;
                 void one(body b) {
                     double val = interact(this.pos, b.pos);
                     this.sum += val;
                 } }",
        )
        .unwrap();
        let text = print_program(&hir);
        assert!(text.contains("void body::one(body b) {"));
        assert!(text.contains("val = interact(this.pos, b.pos);"));
        assert!(text.contains("this.sum = (this.sum + val);"));
    }

    #[test]
    fn prints_loops_and_branches() {
        let hir = compile_source(
            "int f(int n) {
                 int total = 0;
                 for (int i = 0; i < n; i++) {
                     if (i % 2 == 0) { total += i; } else { total -= 1; }
                 }
                 while (total > 100) { total = total / 2; }
                 return total;
             }",
        )
        .unwrap();
        let text = print_program(&hir);
        assert!(text.contains("for (int i = 0; i < n; i++) {"));
        assert!(text.contains("} else {"));
        assert!(text.contains("while ((total > 100)) {"));
        assert!(text.contains("return total;"));
    }

    #[test]
    fn printing_is_stable() {
        let hir = compile_source("class c { double x; void m(double v) { this.x += v * 2.0; } }")
            .unwrap();
        assert_eq!(print_program(&hir), print_program(&hir));
    }
}
