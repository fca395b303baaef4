//! Semantic analysis: AST → typed [`Hir`].
//!
//! Resolves names, checks types (with implicit `int → double` widening),
//! flattens lexical scopes into per-function local slot tables, desugars
//! compound assignment and `++`/`--`, and recognizes canonical counted
//! loops (`for (int i = s; i < b; i++)`) structurally.

use crate::ast;
use crate::error::LangError;
use crate::hir::*;
use crate::token::Span;
use std::collections::HashMap;

/// Analyze a parsed program.
///
/// # Errors
///
/// Returns the first semantic error (unknown names, type mismatches,
/// duplicate definitions, misuse of `this`, ...).
pub fn analyze(program: &ast::Program) -> Result<Hir, LangError> {
    let mut sema = Sema::default();
    sema.collect(program)?;
    sema.lower_bodies(program)?;
    Ok(sema.hir)
}

/// Convenience: parse and analyze in one step.
///
/// # Errors
///
/// Returns the first front-end error of any stage.
pub fn compile_source(source: &str) -> Result<Hir, LangError> {
    let ast = crate::parser::parse(source)?;
    analyze(&ast)
}

#[derive(Default)]
struct Sema {
    hir: Hir,
    class_ids: HashMap<String, ClassId>,
    global_ids: HashMap<String, GlobalId>,
    extern_ids: HashMap<String, ExternId>,
    free_fn_ids: HashMap<String, FuncId>,
    method_ids: HashMap<(ClassId, String), FuncId>,
    /// AST source for each function body, in `hir.functions` order.
    bodies: Vec<(Option<ClassId>, ast::Block)>,
}

impl Sema {
    fn resolve_ty(&self, ty: &ast::TypeExpr, span: Span) -> Result<Ty, LangError> {
        Ok(match ty {
            ast::TypeExpr::Int => Ty::Int,
            ast::TypeExpr::Double => Ty::Double,
            ast::TypeExpr::Bool => Ty::Bool,
            ast::TypeExpr::Void => Ty::Void,
            ast::TypeExpr::Named(name) => {
                let id = self
                    .class_ids
                    .get(name)
                    .ok_or_else(|| LangError::sema(span, format!("unknown class `{name}`")))?;
                Ty::Object(*id)
            }
            ast::TypeExpr::Array(inner) => Ty::Array(Box::new(self.resolve_ty(inner, span)?)),
        })
    }

    fn collect(&mut self, program: &ast::Program) -> Result<(), LangError> {
        // Classes first (so field/param types can refer to any class).
        for c in &program.classes {
            if self.class_ids.contains_key(&c.name) {
                return Err(LangError::sema(c.span, format!("duplicate class `{}`", c.name)));
            }
            let id = ClassId(self.hir.classes.len());
            self.class_ids.insert(c.name.clone(), id);
            self.hir.classes.push(Class { name: c.name.clone(), fields: Vec::new() });
        }
        for c in &program.classes {
            let id = self.class_ids[&c.name];
            let mut fields = Vec::new();
            for f in &c.fields {
                if fields.iter().any(|x: &Field| x.name == f.name) {
                    return Err(LangError::sema(f.span, format!("duplicate field `{}`", f.name)));
                }
                let ty = self.resolve_ty(&f.ty, f.span)?;
                if ty == Ty::Void {
                    return Err(LangError::sema(f.span, "field cannot have type void"));
                }
                fields.push(Field { name: f.name.clone(), ty });
            }
            self.hir.classes[id.0].fields = fields;
        }
        for e in &program.externs {
            if self.extern_ids.contains_key(&e.name) {
                return Err(LangError::sema(e.span, format!("duplicate extern `{}`", e.name)));
            }
            if e.params.len() > MAX_EXTERN_ARITY {
                return Err(LangError::sema(
                    e.span,
                    format!(
                        "extern `{}` declares {} parameters, more than the limit of {MAX_EXTERN_ARITY}",
                        e.name,
                        e.params.len()
                    ),
                ));
            }
            let params = e
                .params
                .iter()
                .map(|t| self.resolve_ty(t, e.span))
                .collect::<Result<Vec<_>, _>>()?;
            let ret = self.resolve_ty(&e.ret, e.span)?;
            let id = ExternId(self.hir.externs.len());
            self.extern_ids.insert(e.name.clone(), id);
            self.hir.externs.push(Extern { name: e.name.clone(), params, ret });
        }
        for g in &program.globals {
            if self.global_ids.contains_key(&g.name) {
                return Err(LangError::sema(g.span, format!("duplicate global `{}`", g.name)));
            }
            let ty = self.resolve_ty(&g.ty, g.span)?;
            if ty == Ty::Void {
                return Err(LangError::sema(g.span, "global cannot have type void"));
            }
            let id = GlobalId(self.hir.globals.len());
            self.global_ids.insert(g.name.clone(), id);
            self.hir.globals.push(Global { name: g.name.clone(), ty });
        }
        // Function and method signatures.
        for f in &program.functions {
            self.collect_function(f, None)?;
        }
        for c in &program.classes {
            let cid = self.class_ids[&c.name];
            for m in &c.methods {
                self.collect_function(m, Some(cid))?;
            }
        }
        Ok(())
    }

    fn collect_function(
        &mut self,
        f: &ast::FuncDecl,
        class: Option<ClassId>,
    ) -> Result<(), LangError> {
        let id = FuncId(self.hir.functions.len());
        match class {
            None => {
                if self.free_fn_ids.contains_key(&f.name) {
                    return Err(LangError::sema(
                        f.span,
                        format!("duplicate function `{}`", f.name),
                    ));
                }
                self.free_fn_ids.insert(f.name.clone(), id);
            }
            Some(c) => {
                let key = (c, f.name.clone());
                if self.method_ids.contains_key(&key) {
                    return Err(LangError::sema(f.span, format!("duplicate method `{}`", f.name)));
                }
                self.method_ids.insert(key, id);
            }
        }
        let mut locals = Vec::new();
        for p in &f.params {
            let ty = self.resolve_ty(&p.ty, p.span)?;
            if ty == Ty::Void {
                return Err(LangError::sema(p.span, "parameter cannot have type void"));
            }
            locals.push(Local { name: p.name.clone(), ty });
        }
        let ret = self.resolve_ty(&f.ret, f.span)?;
        self.hir.functions.push(Function {
            name: f.name.clone(),
            class,
            num_params: f.params.len(),
            locals,
            ret,
            body: Vec::new(),
        });
        self.bodies.push((class, f.body.clone()));
        Ok(())
    }

    fn lower_bodies(&mut self, _program: &ast::Program) -> Result<(), LangError> {
        let bodies = std::mem::take(&mut self.bodies);
        for (idx, (class, body)) in bodies.into_iter().enumerate() {
            let func = FuncId(idx);
            let mut ctx = FuncCtx { sema: self, func, class, scopes: vec![HashMap::new()] };
            // Parameters are the outermost scope.
            for (i, l) in ctx.sema.hir.functions[func.0].locals.iter().enumerate() {
                ctx.scopes[0].insert(l.name.clone(), LocalId(i));
            }
            let mut out = Vec::new();
            ctx.lower_block(&body, &mut out)?;
            self.hir.functions[func.0].body = out;
        }
        Ok(())
    }
}

struct FuncCtx<'a> {
    sema: &'a mut Sema,
    func: FuncId,
    class: Option<ClassId>,
    scopes: Vec<HashMap<String, LocalId>>,
}

impl<'a> FuncCtx<'a> {
    fn lookup(&self, name: &str) -> Option<LocalId> {
        self.scopes.iter().rev().find_map(|s| s.get(name).copied())
    }

    fn declare(&mut self, name: &str, ty: Ty) -> LocalId {
        let f = &mut self.sema.hir.functions[self.func.0];
        let id = LocalId(f.locals.len());
        f.locals.push(Local { name: name.to_string(), ty });
        self.scopes.last_mut().expect("scope").insert(name.to_string(), id);
        id
    }

    fn local_ty(&self, id: LocalId) -> Ty {
        self.sema.hir.functions[self.func.0].locals[id.0].ty.clone()
    }

    fn lower_block(&mut self, block: &ast::Block, out: &mut Vec<Stmt>) -> Result<(), LangError> {
        self.scopes.push(HashMap::new());
        for s in &block.stmts {
            self.lower_stmt(s, out)?;
        }
        self.scopes.pop();
        Ok(())
    }

    fn lower_stmt(&mut self, stmt: &ast::Stmt, out: &mut Vec<Stmt>) -> Result<(), LangError> {
        let span = stmt.span;
        match &stmt.kind {
            ast::StmtKind::VarDecl { name, ty, init } => {
                let ty = self.sema.resolve_ty(ty, span)?;
                if ty == Ty::Void {
                    return Err(LangError::sema(span, "variable cannot have type void"));
                }
                let init = match init {
                    Some(e) => Some(self.lower_coerce(e, &ty, span)?),
                    None => None,
                };
                let id = self.declare(name, ty);
                if let Some(value) = init {
                    out.push(Stmt::Assign { place: Place::Local(id), value });
                }
                Ok(())
            }
            ast::StmtKind::Assign { target, op, value } => {
                let (place, pty) = self.lower_place(target)?;
                let rhs = self.lower_expr_owned(value)?;
                let value = match op {
                    None => self.coerce(rhs, &pty, span)?,
                    Some(op) => {
                        // Desugar `p op= v` into `p = p op v`, keeping the
                        // textbook update-expression shape the commutativity
                        // analysis looks for.
                        let read = self.place_to_expr(&place, &pty);
                        let combined = self.binary(*op, read, rhs, span)?;
                        self.coerce(combined, &pty, span)?
                    }
                };
                out.push(Stmt::Assign { place, value });
                Ok(())
            }
            ast::StmtKind::If { cond, then_branch, else_branch } => {
                let cond = self.lower_expr_owned(cond)?;
                if cond.ty != Ty::Bool {
                    return Err(LangError::sema(span, "if condition must be bool"));
                }
                let mut t = Vec::new();
                self.lower_block(then_branch, &mut t)?;
                let mut e = Vec::new();
                if let Some(b) = else_branch {
                    self.lower_block(b, &mut e)?;
                }
                out.push(Stmt::If { cond, then_branch: t, else_branch: e });
                Ok(())
            }
            ast::StmtKind::While { cond, body } => {
                let cond = self.lower_expr_owned(cond)?;
                if cond.ty != Ty::Bool {
                    return Err(LangError::sema(span, "while condition must be bool"));
                }
                let mut b = Vec::new();
                self.lower_block(body, &mut b)?;
                out.push(Stmt::While { cond, body: b });
                Ok(())
            }
            ast::StmtKind::For { init, cond, step, body } => {
                self.lower_for(span, init.as_deref(), cond.as_ref(), step.as_deref(), body, out)
            }
            ast::StmtKind::Return(value) => {
                let ret_ty = self.sema.hir.functions[self.func.0].ret.clone();
                let value = match value {
                    Some(e) => {
                        if ret_ty == Ty::Void {
                            return Err(LangError::sema(span, "void function returns a value"));
                        }
                        Some(self.lower_coerce(e, &ret_ty, span)?)
                    }
                    None => {
                        if ret_ty != Ty::Void {
                            return Err(LangError::sema(
                                span,
                                "non-void function must return a value",
                            ));
                        }
                        None
                    }
                };
                out.push(Stmt::Return(value));
                Ok(())
            }
            ast::StmtKind::Expr(e) => {
                let e = self.lower_expr_owned(e)?;
                out.push(Stmt::Expr(e));
                Ok(())
            }
            ast::StmtKind::Block(b) => self.lower_block(b, out),
        }
    }

    /// Recognize the canonical counted loop or desugar to `while`.
    fn lower_for(
        &mut self,
        span: Span,
        init: Option<&ast::Stmt>,
        cond: Option<&ast::Expr>,
        step: Option<&ast::Stmt>,
        body: &ast::Block,
        out: &mut Vec<Stmt>,
    ) -> Result<(), LangError> {
        // Canonical: for (int i = start; i < bound; i++)
        let canonical = (|| -> Option<(&str, &ast::Expr, &ast::Expr)> {
            let ast::StmtKind::VarDecl { name, ty: ast::TypeExpr::Int, init: Some(start) } =
                &init?.kind
            else {
                return None;
            };
            let ast::ExprKind::Binary { op: ast::BinOp::Lt, lhs, rhs } = &cond?.kind else {
                return None;
            };
            let ast::ExprKind::Var(cv) = &lhs.kind else {
                return None;
            };
            if cv != name {
                return None;
            }
            let ast::StmtKind::Assign { target, op: Some(ast::BinOp::Add), value } = &step?.kind
            else {
                return None;
            };
            let ast::ExprKind::Var(sv) = &target.kind else {
                return None;
            };
            let ast::ExprKind::Int(1) = value.kind else {
                return None;
            };
            if sv != name {
                return None;
            }
            Some((name, start, rhs))
        })();

        if let Some((name, start, bound)) = canonical {
            let start = self.lower_coerce(start, &Ty::Int, span)?;
            self.scopes.push(HashMap::new());
            let var = self.declare(name, Ty::Int);
            let bound = self.lower_coerce(bound, &Ty::Int, span)?;
            let mut b = Vec::new();
            self.lower_block(body, &mut b)?;
            self.scopes.pop();
            out.push(Stmt::CountedFor { var, start, bound, body: b });
            return Ok(());
        }

        // General form: { init; while (cond) { body; step; } }
        self.scopes.push(HashMap::new());
        if let Some(i) = init {
            self.lower_stmt(i, out)?;
        }
        let cond = match cond {
            Some(c) => {
                let c = self.lower_expr_owned(c)?;
                if c.ty != Ty::Bool {
                    return Err(LangError::sema(span, "for condition must be bool"));
                }
                c
            }
            None => Expr { kind: ExprKind::Bool(true), ty: Ty::Bool },
        };
        let mut b = Vec::new();
        self.lower_block(body, &mut b)?;
        if let Some(s) = step {
            self.lower_stmt(s, &mut b)?;
        }
        self.scopes.pop();
        out.push(Stmt::While { cond, body: b });
        Ok(())
    }

    fn place_to_expr(&self, place: &Place, ty: &Ty) -> Expr {
        let kind = match place {
            Place::Local(id) => ExprKind::Local(*id),
            Place::Global(id) => ExprKind::Global(*id),
            Place::Field { obj, class, field } => {
                ExprKind::FieldGet { obj: obj.clone(), class: *class, field: *field }
            }
            Place::Index { arr, idx } => ExprKind::Index { arr: arr.clone(), idx: idx.clone() },
        };
        Expr { kind, ty: ty.clone() }
    }

    fn lower_place(&mut self, e: &ast::Expr) -> Result<(Place, Ty), LangError> {
        let span = e.span;
        match &e.kind {
            ast::ExprKind::Var(name) => {
                if let Some(id) = self.lookup(name) {
                    let ty = self.local_ty(id);
                    Ok((Place::Local(id), ty))
                } else if let Some(id) = self.sema.global_ids.get(name) {
                    let ty = self.sema.hir.globals[id.0].ty.clone();
                    Ok((Place::Global(*id), ty))
                } else {
                    Err(LangError::sema(span, format!("unknown variable `{name}`")))
                }
            }
            ast::ExprKind::Field { object, field } => {
                let obj = self.lower_expr_owned(object)?;
                let Ty::Object(class) = obj.ty.clone() else {
                    return Err(LangError::sema(span, "field assignment on non-object"));
                };
                let idx = self.field_index(class, field, span)?;
                let ty = self.sema.hir.classes[class.0].fields[idx].ty.clone();
                Ok((Place::Field { obj: Box::new(obj), class, field: idx }, ty))
            }
            ast::ExprKind::Index { array, index } => {
                let arr = self.lower_expr_owned(array)?;
                let Ty::Array(elem) = arr.ty.clone() else {
                    return Err(LangError::sema(span, "indexing a non-array"));
                };
                let idx = self.lower_coerce(index, &Ty::Int, span)?;
                Ok((Place::Index { arr: Box::new(arr), idx: Box::new(idx) }, *elem))
            }
            _ => Err(LangError::sema(span, "expression is not assignable")),
        }
    }

    fn field_index(&self, class: ClassId, field: &str, span: Span) -> Result<usize, LangError> {
        self.sema.hir.classes[class.0].fields.iter().position(|f| f.name == field).ok_or_else(
            || {
                LangError::sema(
                    span,
                    format!(
                        "class `{}` has no field `{field}`",
                        self.sema.hir.classes[class.0].name
                    ),
                )
            },
        )
    }

    /// Lower an AST expression and coerce it to `want` in one step.
    fn lower_coerce(&mut self, e: &ast::Expr, want: &Ty, span: Span) -> Result<Expr, LangError> {
        let lowered = self.lower_expr_owned(e)?;
        self.coerce(lowered, want, span)
    }

    fn coerce(&self, e: Expr, want: &Ty, span: Span) -> Result<Expr, LangError> {
        if &e.ty == want {
            return Ok(e);
        }
        if *want == Ty::Double && e.ty == Ty::Int {
            return Ok(Expr { kind: ExprKind::IntToDouble(Box::new(e)), ty: Ty::Double });
        }
        if want.is_reference() && e.ty == Ty::Null {
            return Ok(Expr { kind: ExprKind::Null, ty: want.clone() });
        }
        Err(LangError::sema(span, format!("expected `{want}`, found `{}`", e.ty)))
    }

    fn binary(&self, op: ast::BinOp, lhs: Expr, rhs: Expr, span: Span) -> Result<Expr, LangError> {
        use ast::BinOp::*;
        match op {
            Add | Sub | Mul | Div => {
                if !lhs.ty.is_numeric() || !rhs.ty.is_numeric() {
                    return Err(LangError::sema(span, "arithmetic on non-numeric operands"));
                }
                let (lhs, rhs, ty) = if lhs.ty == Ty::Double || rhs.ty == Ty::Double {
                    (
                        self.coerce(lhs, &Ty::Double, span)?,
                        self.coerce(rhs, &Ty::Double, span)?,
                        Ty::Double,
                    )
                } else {
                    (lhs, rhs, Ty::Int)
                };
                Ok(Expr {
                    kind: ExprKind::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs) },
                    ty,
                })
            }
            Rem => {
                if lhs.ty != Ty::Int || rhs.ty != Ty::Int {
                    return Err(LangError::sema(span, "`%` requires int operands"));
                }
                Ok(Expr {
                    kind: ExprKind::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs) },
                    ty: Ty::Int,
                })
            }
            Lt | Le | Gt | Ge => {
                if !lhs.ty.is_numeric() || !rhs.ty.is_numeric() {
                    return Err(LangError::sema(span, "comparison on non-numeric operands"));
                }
                let (lhs, rhs) = if lhs.ty == Ty::Double || rhs.ty == Ty::Double {
                    (self.coerce(lhs, &Ty::Double, span)?, self.coerce(rhs, &Ty::Double, span)?)
                } else {
                    (lhs, rhs)
                };
                Ok(Expr {
                    kind: ExprKind::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs) },
                    ty: Ty::Bool,
                })
            }
            Eq | Ne => {
                let ok = (lhs.ty.is_numeric() && rhs.ty.is_numeric())
                    || lhs.ty == rhs.ty
                    || (lhs.ty.is_reference() && rhs.ty.is_reference());
                if !ok {
                    return Err(LangError::sema(span, "incomparable operand types"));
                }
                let (lhs, rhs) = if lhs.ty == Ty::Double || rhs.ty == Ty::Double {
                    (self.coerce(lhs, &Ty::Double, span)?, self.coerce(rhs, &Ty::Double, span)?)
                } else {
                    (lhs, rhs)
                };
                Ok(Expr {
                    kind: ExprKind::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs) },
                    ty: Ty::Bool,
                })
            }
            And | Or => {
                if lhs.ty != Ty::Bool || rhs.ty != Ty::Bool {
                    return Err(LangError::sema(span, "logical operator on non-bool operands"));
                }
                Ok(Expr {
                    kind: ExprKind::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs) },
                    ty: Ty::Bool,
                })
            }
        }
    }

    fn lower_expr_owned(&mut self, e: &ast::Expr) -> Result<Expr, LangError> {
        let span = e.span;
        match &e.kind {
            ast::ExprKind::Int(v) => Ok(Expr { kind: ExprKind::Int(*v), ty: Ty::Int }),
            ast::ExprKind::Double(v) => Ok(Expr { kind: ExprKind::Double(*v), ty: Ty::Double }),
            ast::ExprKind::Bool(v) => Ok(Expr { kind: ExprKind::Bool(*v), ty: Ty::Bool }),
            ast::ExprKind::Null => Ok(Expr { kind: ExprKind::Null, ty: Ty::Null }),
            ast::ExprKind::This => {
                let class = self
                    .class
                    .ok_or_else(|| LangError::sema(span, "`this` outside of a method"))?;
                Ok(Expr::this(class))
            }
            ast::ExprKind::Var(name) => {
                if let Some(id) = self.lookup(name) {
                    let ty = self.local_ty(id);
                    Ok(Expr { kind: ExprKind::Local(id), ty })
                } else if let Some(id) = self.sema.global_ids.get(name) {
                    let ty = self.sema.hir.globals[id.0].ty.clone();
                    Ok(Expr { kind: ExprKind::Global(*id), ty })
                } else {
                    Err(LangError::sema(span, format!("unknown variable `{name}`")))
                }
            }
            ast::ExprKind::Field { object, field } => {
                let obj = self.lower_expr_owned(object)?;
                if let Ty::Array(_) = obj.ty {
                    if field == "length" {
                        return Ok(Expr { kind: ExprKind::ArrayLen(Box::new(obj)), ty: Ty::Int });
                    }
                }
                let Ty::Object(class) = obj.ty.clone() else {
                    return Err(LangError::sema(
                        span,
                        format!("field `{field}` on non-object `{}`", obj.ty),
                    ));
                };
                let idx = self.field_index(class, field, span)?;
                let ty = self.sema.hir.classes[class.0].fields[idx].ty.clone();
                Ok(Expr { kind: ExprKind::FieldGet { obj: Box::new(obj), class, field: idx }, ty })
            }
            ast::ExprKind::Index { array, index } => {
                let arr = self.lower_expr_owned(array)?;
                let Ty::Array(elem) = arr.ty.clone() else {
                    return Err(LangError::sema(span, "indexing a non-array"));
                };
                let idx = self.lower_coerce(index, &Ty::Int, span)?;
                Ok(Expr {
                    kind: ExprKind::Index { arr: Box::new(arr), idx: Box::new(idx) },
                    ty: *elem,
                })
            }
            ast::ExprKind::Binary { op, lhs, rhs } => {
                let lhs = self.lower_expr_owned(lhs)?;
                let rhs = self.lower_expr_owned(rhs)?;
                self.binary(*op, lhs, rhs, span)
            }
            ast::ExprKind::Unary { op, expr } => {
                let inner = self.lower_expr_owned(expr)?;
                match op {
                    ast::UnOp::Neg => {
                        if !inner.ty.is_numeric() {
                            return Err(LangError::sema(span, "negating a non-numeric value"));
                        }
                        let ty = inner.ty.clone();
                        Ok(Expr { kind: ExprKind::Unary { op: *op, expr: Box::new(inner) }, ty })
                    }
                    ast::UnOp::Not => {
                        if inner.ty != Ty::Bool {
                            return Err(LangError::sema(span, "`!` on non-bool value"));
                        }
                        Ok(Expr {
                            kind: ExprKind::Unary { op: *op, expr: Box::new(inner) },
                            ty: Ty::Bool,
                        })
                    }
                }
            }
            ast::ExprKind::MethodCall { object, method, args } => {
                let obj = self.lower_expr_owned(object)?;
                let Ty::Object(class) = obj.ty.clone() else {
                    return Err(LangError::sema(span, "method call on non-object"));
                };
                let func = self.sema.method_ids.get(&(class, method.clone())).copied().ok_or_else(
                    || {
                        LangError::sema(
                            span,
                            format!(
                                "class `{}` has no method `{method}`",
                                self.sema.hir.classes[class.0].name
                            ),
                        )
                    },
                )?;
                let args = self.check_args(func, args, span)?;
                let ret = self.sema.hir.functions[func.0].ret.clone();
                Ok(Expr { kind: ExprKind::CallMethod { obj: Box::new(obj), func, args }, ty: ret })
            }
            ast::ExprKind::Call { name, args } => {
                if let Some(func) = self.sema.free_fn_ids.get(name).copied() {
                    let args = self.check_args(func, args, span)?;
                    let ret = self.sema.hir.functions[func.0].ret.clone();
                    Ok(Expr { kind: ExprKind::CallFn { func, args }, ty: ret })
                } else if let Some(ext) = self.sema.extern_ids.get(name).copied() {
                    let sig = self.sema.hir.externs[ext.0].clone();
                    if sig.params.len() != args.len() {
                        return Err(LangError::sema(
                            span,
                            format!(
                                "extern `{name}` expects {} arguments, got {}",
                                sig.params.len(),
                                args.len()
                            ),
                        ));
                    }
                    let mut lowered = Vec::new();
                    for (a, want) in args.iter().zip(&sig.params) {
                        lowered.push(self.lower_coerce(a, want, span)?);
                    }
                    Ok(Expr { kind: ExprKind::CallExtern { ext, args: lowered }, ty: sig.ret })
                } else {
                    Err(LangError::sema(span, format!("unknown function `{name}`")))
                }
            }
            ast::ExprKind::New { class } => {
                let id = self
                    .sema
                    .class_ids
                    .get(class)
                    .copied()
                    .ok_or_else(|| LangError::sema(span, format!("unknown class `{class}`")))?;
                Ok(Expr { kind: ExprKind::New { class: id }, ty: Ty::Object(id) })
            }
            ast::ExprKind::NewArray { elem, len } => {
                let elem = self.sema.resolve_ty(elem, span)?;
                if elem == Ty::Void {
                    return Err(LangError::sema(span, "array of void"));
                }
                let len = self.lower_coerce(len, &Ty::Int, span)?;
                Ok(Expr {
                    kind: ExprKind::NewArray { elem: elem.clone(), len: Box::new(len) },
                    ty: Ty::Array(Box::new(elem)),
                })
            }
        }
    }

    fn check_args(
        &mut self,
        func: FuncId,
        args: &[ast::Expr],
        span: Span,
    ) -> Result<Vec<Expr>, LangError> {
        let (n, name) = {
            let f = &self.sema.hir.functions[func.0];
            (f.num_params, f.name.clone())
        };
        if n != args.len() {
            return Err(LangError::sema(
                span,
                format!("`{name}` expects {n} arguments, got {}", args.len()),
            ));
        }
        let mut out = Vec::new();
        for (i, a) in args.iter().enumerate() {
            let want = self.sema.hir.functions[func.0].locals[i].ty.clone();
            out.push(self.lower_coerce(a, &want, span)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok(src: &str) -> Hir {
        compile_source(src).unwrap_or_else(|e| panic!("{e}"))
    }

    fn err(src: &str) -> LangError {
        compile_source(src).unwrap_err()
    }

    #[test]
    fn lowers_figure_1() {
        let hir = ok(r#"
            extern double interact(double, double);
            class body {
                double pos; double sum;
                void one_interaction(body b) {
                    double val = interact(this.pos, b.pos);
                    this.sum += val;
                }
                void interactions(body[] b, int n) {
                    for (int i = 0; i < n; i++) { this.one_interaction(b[i]); }
                }
            }
        "#);
        assert_eq!(hir.classes.len(), 1);
        assert_eq!(hir.functions.len(), 2);
        let interactions = &hir.functions[hir.method_named(ClassId(0), "interactions").unwrap().0];
        assert!(matches!(interactions.body[0], Stmt::CountedFor { .. }));
        // Compound assignment desugars to `sum = sum + val`.
        let one = &hir.functions[hir.method_named(ClassId(0), "one_interaction").unwrap().0];
        let Stmt::Assign { place: Place::Field { .. }, value } = &one.body[1] else {
            panic!("expected field assign, got {:?}", one.body[1]);
        };
        assert!(matches!(value.kind, ExprKind::Binary { op: BinOp::Add, .. }));
    }

    #[test]
    fn int_widens_to_double() {
        let hir = ok("void f() { double x = 1; x = x + 2; }");
        let f = &hir.functions[0];
        let Stmt::Assign { value, .. } = &f.body[0] else { panic!() };
        assert!(matches!(value.kind, ExprKind::IntToDouble(_)));
    }

    #[test]
    fn rejects_unknown_names() {
        assert!(err("void f() { x = 1; }").message.contains("unknown variable"));
        assert!(err("void f() { g(); }").message.contains("unknown function"));
        assert!(err("void f(foo x) { }").message.contains("unknown class"));
    }

    #[test]
    fn rejects_type_errors() {
        assert!(err("void f() { int x = true; }").message.contains("expected `int`"));
        assert!(err("void f() { if (1) { } }").message.contains("must be bool"));
        assert!(err("void f() { bool b = 1 % 2.0; }").message.contains("int operands"));
    }

    #[test]
    fn rejects_this_outside_method() {
        assert!(err("class c { int x; } void f() { int y = this.x; }")
            .message
            .contains("`this` outside"));
    }

    #[test]
    fn non_canonical_for_desugars_to_while() {
        let hir = ok("void f(int n) { for (int i = 0; i < n; i += 2) { n = n - 1; } }");
        // init assignment + while
        assert!(matches!(hir.functions[0].body[1], Stmt::While { .. }));
    }

    #[test]
    fn array_length_is_supported() {
        let hir = ok("void f(double[] a) { int n = a.length; }");
        let Stmt::Assign { value, .. } = &hir.functions[0].body[0] else { panic!() };
        assert!(matches!(value.kind, ExprKind::ArrayLen(_)));
    }

    #[test]
    fn null_coerces_to_references() {
        ok("class c { c next; } void f() { c x = null; x = new c(); x.next = null; }");
    }

    #[test]
    fn scoping_allows_shadowing_in_nested_blocks() {
        ok("void f() { int x = 1; { double x = 2.0; x = 3.0; } x = 4; }");
    }

    #[test]
    fn duplicate_definitions_rejected() {
        assert!(err("class c { int x; } class c { int y; }").message.contains("duplicate class"));
        assert!(err("void f() {} void f() {}").message.contains("duplicate function"));
        assert!(err("class c { int x; int x; }").message.contains("duplicate field"));
    }

    #[test]
    fn externs_type_checked() {
        assert!(err("extern double sqrt(double); void f() { double x = sqrt(1.0, 2.0); }")
            .message
            .contains("expects 1 arguments"));
    }
}
