//! The typed, resolved intermediate representation.
//!
//! Semantic analysis lowers the [`crate::ast`] into this HIR: names are
//! resolved to indices, every expression carries its type, locals are
//! flattened into per-function slot tables, compound assignments are
//! desugared, and canonical counted loops (`for (int i = s; i < b; i++)`)
//! are recognized structurally — the form the parallelizing compiler in
//! `dynfb-compiler` looks for.
//!
//! The HIR also contains one node the *front end never produces*:
//! [`Stmt::Critical`], a structured critical region protected by an object's
//! implicit lock. The parallelizing compiler inserts these (default lock
//! placement) and its synchronization optimization policies transform them
//! (merge, loop hoist, interprocedural lift).

pub use crate::ast::{BinOp, UnOp};
use std::fmt;

/// Index of a class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClassId(pub usize);

/// Index of a function (free functions and methods share one table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FuncId(pub usize);

/// Index of an extern (host) function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ExternId(pub usize);

/// Index of a global variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GlobalId(pub usize);

/// Index of a local slot within a function (parameters come first).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LocalId(pub usize);

/// A semantic type.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Ty {
    /// 64-bit integer.
    Int,
    /// 64-bit float.
    Double,
    /// Boolean.
    Bool,
    /// No value.
    Void,
    /// Reference to an object of the given class.
    Object(ClassId),
    /// Reference to a heap array.
    Array(Box<Ty>),
    /// The type of `null` (assignable to any reference type).
    Null,
}

impl Ty {
    /// True for `int` and `double`.
    #[must_use]
    pub fn is_numeric(&self) -> bool {
        matches!(self, Ty::Int | Ty::Double)
    }

    /// True for object, array, and null types.
    #[must_use]
    pub fn is_reference(&self) -> bool {
        matches!(self, Ty::Object(_) | Ty::Array(_) | Ty::Null)
    }
}

impl fmt::Display for Ty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ty::Int => write!(f, "int"),
            Ty::Double => write!(f, "double"),
            Ty::Bool => write!(f, "bool"),
            Ty::Void => write!(f, "void"),
            Ty::Object(c) => write!(f, "class#{}", c.0),
            Ty::Array(t) => write!(f, "{t}[]"),
            Ty::Null => write!(f, "null"),
        }
    }
}

/// A class: its fields (each object also carries an implicit lock).
#[derive(Debug, Clone, PartialEq)]
pub struct Class {
    /// Class name.
    pub name: String,
    /// Fields, in declaration order.
    pub fields: Vec<Field>,
}

/// A field of a class.
#[derive(Debug, Clone, PartialEq)]
pub struct Field {
    /// Field name.
    pub name: String,
    /// Field type.
    pub ty: Ty,
}

/// The most parameters an `extern` may declare. Sema rejects wider
/// declarations; the native tier gathers host-call arguments into a
/// fixed buffer of this size.
pub const MAX_EXTERN_ARITY: usize = 16;

/// A host-implemented function.
#[derive(Debug, Clone, PartialEq)]
pub struct Extern {
    /// Name.
    pub name: String,
    /// Parameter types.
    pub params: Vec<Ty>,
    /// Return type.
    pub ret: Ty,
}

/// A global variable.
#[derive(Debug, Clone, PartialEq)]
pub struct Global {
    /// Name.
    pub name: String,
    /// Type.
    pub ty: Ty,
}

/// A local slot.
#[derive(Debug, Clone, PartialEq)]
pub struct Local {
    /// Source name (synthetic locals get `$`-prefixed names).
    pub name: String,
    /// Type.
    pub ty: Ty,
}

/// A function or method.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Name.
    pub name: String,
    /// `Some` if this is a method of the class.
    pub class: Option<ClassId>,
    /// Number of parameters (the first `num_params` locals).
    pub num_params: usize,
    /// All local slots (parameters first).
    pub locals: Vec<Local>,
    /// Return type.
    pub ret: Ty,
    /// Body.
    pub body: Vec<Stmt>,
}

impl Function {
    /// Qualified name for diagnostics (`class::method` or `function`).
    #[must_use]
    pub fn qualified_name(&self, classes: &[Class]) -> String {
        match self.class {
            Some(c) => format!("{}::{}", classes[c.0].name, self.name),
            None => self.name.clone(),
        }
    }
}

/// The whole program, typed and resolved.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Hir {
    /// Classes.
    pub classes: Vec<Class>,
    /// Functions and methods.
    pub functions: Vec<Function>,
    /// Extern functions.
    pub externs: Vec<Extern>,
    /// Globals.
    pub globals: Vec<Global>,
}

impl Hir {
    /// Look up a free function by name.
    #[must_use]
    pub fn function_named(&self, name: &str) -> Option<FuncId> {
        self.functions.iter().position(|f| f.class.is_none() && f.name == name).map(FuncId)
    }

    /// Look up a method by class and name.
    #[must_use]
    pub fn method_named(&self, class: ClassId, name: &str) -> Option<FuncId> {
        self.functions.iter().position(|f| f.class == Some(class) && f.name == name).map(FuncId)
    }

    /// Look up a class by name.
    #[must_use]
    pub fn class_named(&self, name: &str) -> Option<ClassId> {
        self.classes.iter().position(|c| c.name == name).map(ClassId)
    }
}

/// An l-value.
#[derive(Debug, Clone, PartialEq)]
pub enum Place {
    /// A local slot.
    Local(LocalId),
    /// A global variable.
    Global(GlobalId),
    /// A field of an object.
    Field {
        /// Object expression.
        obj: Box<Expr>,
        /// The object's class.
        class: ClassId,
        /// Field index within the class.
        field: usize,
    },
    /// An array element.
    Index {
        /// Array expression.
        arr: Box<Expr>,
        /// Index expression.
        idx: Box<Expr>,
    },
}

/// A statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `place = value`.
    Assign {
        /// Target.
        place: Place,
        /// Value.
        value: Expr,
    },
    /// `if`.
    If {
        /// Condition.
        cond: Expr,
        /// Then branch.
        then_branch: Vec<Stmt>,
        /// Else branch.
        else_branch: Vec<Stmt>,
    },
    /// `while`.
    While {
        /// Condition.
        cond: Expr,
        /// Body.
        body: Vec<Stmt>,
    },
    /// Canonical counted loop `for (var = start; var < bound; var++)`.
    /// This is the loop shape the parallelizer considers.
    CountedFor {
        /// Induction variable slot.
        var: LocalId,
        /// Start value.
        start: Expr,
        /// Exclusive bound.
        bound: Expr,
        /// Body.
        body: Vec<Stmt>,
    },
    /// `return`.
    Return(Option<Expr>),
    /// Expression statement (a call).
    Expr(Expr),
    /// A critical region on `lock_obj`'s implicit lock. Inserted by the
    /// parallelizing compiler, never by the front end.
    Critical {
        /// Expression yielding the object whose lock protects the region.
        lock_obj: Expr,
        /// Protected statements.
        body: Vec<Stmt>,
        /// Names of the source-level default regions this region descends
        /// from (`"{function}#{k}"`, assigned at lock placement).
        /// Coalescing transformations concatenate constituents, so a
        /// merged/hoisted/lifted region keeps its full provenance.
        regions: Vec<String>,
    },
}

/// An expression together with its type.
#[derive(Debug, Clone, PartialEq)]
pub struct Expr {
    /// The expression.
    pub kind: ExprKind,
    /// Its type.
    pub ty: Ty,
}

/// Expression kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprKind {
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Double(f64),
    /// Boolean literal.
    Bool(bool),
    /// `null`.
    Null,
    /// `this` (methods only).
    This,
    /// A local slot.
    Local(LocalId),
    /// A global.
    Global(GlobalId),
    /// Field read.
    FieldGet {
        /// Object expression.
        obj: Box<Expr>,
        /// The object's class.
        class: ClassId,
        /// Field index.
        field: usize,
    },
    /// Array element read.
    Index {
        /// Array expression.
        arr: Box<Expr>,
        /// Index expression.
        idx: Box<Expr>,
    },
    /// Array length (`a.length`).
    ArrayLen(Box<Expr>),
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// Implicit `int → double` widening.
    IntToDouble(Box<Expr>),
    /// Free function call.
    CallFn {
        /// Callee.
        func: FuncId,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// Method call.
    CallMethod {
        /// Receiver.
        obj: Box<Expr>,
        /// Callee.
        func: FuncId,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// Extern (host) call.
    CallExtern {
        /// Callee.
        ext: ExternId,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// Object allocation.
    New {
        /// Class.
        class: ClassId,
    },
    /// Array allocation.
    NewArray {
        /// Element type.
        elem: Ty,
        /// Length.
        len: Box<Expr>,
    },
}

impl Expr {
    /// Shorthand for an integer literal expression.
    #[must_use]
    pub fn int(v: i64) -> Expr {
        Expr { kind: ExprKind::Int(v), ty: Ty::Int }
    }

    /// Shorthand for a local-slot read.
    #[must_use]
    pub fn local(id: LocalId, ty: Ty) -> Expr {
        Expr { kind: ExprKind::Local(id), ty }
    }

    /// Shorthand for `this`.
    #[must_use]
    pub fn this(class: ClassId) -> Expr {
        Expr { kind: ExprKind::This, ty: Ty::Object(class) }
    }
}

/// Visit every statement in source pre-order: each statement, then the
/// bodies it holds (an `If`'s then branch before its else branch). This and
/// [`visit_exprs_stmts`] are the one generic HIR walk; analyses are
/// callbacks on them, and only code that rewrites or translates the HIR
/// matches on statement kinds itself.
pub fn visit_stmts<'a>(stmts: &'a [Stmt], f: &mut impl FnMut(&'a Stmt)) {
    for s in stmts {
        f(s);
        match s {
            Stmt::If { then_branch, else_branch, .. } => {
                visit_stmts(then_branch, f);
                visit_stmts(else_branch, f);
            }
            Stmt::While { body, .. }
            | Stmt::CountedFor { body, .. }
            | Stmt::Critical { body, .. } => visit_stmts(body, f),
            Stmt::Assign { .. } | Stmt::Return(_) | Stmt::Expr(_) => {}
        }
    }
}

/// Visit every expression in a statement list (pre-order): per statement,
/// its place's operands, then its own expressions, then its nested bodies.
pub fn visit_exprs_stmts(stmts: &[Stmt], f: &mut impl FnMut(&Expr)) {
    visit_stmts(stmts, &mut |s| match s {
        Stmt::Assign { place, value } => {
            match place {
                Place::Field { obj, .. } => visit_exprs(obj, f),
                Place::Index { arr, idx } => {
                    visit_exprs(arr, f);
                    visit_exprs(idx, f);
                }
                Place::Local(_) | Place::Global(_) => {}
            }
            visit_exprs(value, f);
        }
        Stmt::If { cond, .. } | Stmt::While { cond, .. } => visit_exprs(cond, f),
        Stmt::CountedFor { start, bound, .. } => {
            visit_exprs(start, f);
            visit_exprs(bound, f);
        }
        Stmt::Return(Some(x)) | Stmt::Expr(x) | Stmt::Critical { lock_obj: x, .. } => {
            visit_exprs(x, f);
        }
        Stmt::Return(None) => {}
    });
}

/// Visit an expression and its children (pre-order).
pub fn visit_exprs(x: &Expr, f: &mut impl FnMut(&Expr)) {
    f(x);
    match &x.kind {
        ExprKind::FieldGet { obj, .. } => visit_exprs(obj, f),
        ExprKind::Index { arr, idx } => {
            visit_exprs(arr, f);
            visit_exprs(idx, f);
        }
        ExprKind::ArrayLen(a) => visit_exprs(a, f),
        ExprKind::Binary { lhs, rhs, .. } => {
            visit_exprs(lhs, f);
            visit_exprs(rhs, f);
        }
        ExprKind::Unary { expr, .. } | ExprKind::IntToDouble(expr) => visit_exprs(expr, f),
        ExprKind::CallFn { args, .. } | ExprKind::CallExtern { args, .. } => {
            for a in args {
                visit_exprs(a, f);
            }
        }
        ExprKind::CallMethod { obj, args, .. } => {
            visit_exprs(obj, f);
            for a in args {
                visit_exprs(a, f);
            }
        }
        ExprKind::NewArray { len, .. } => visit_exprs(len, f),
        _ => {}
    }
}

/// Count the HIR nodes of a function body — the code-size metric used for
/// the Table 1 reproduction (a node is roughly an emitted instruction).
/// Each expression node counts one, and each statement adds a per-kind
/// weight: 2 for an assignment (the store and its target), a counted loop
/// (test and increment) and a critical region (acquire and release), 0 for
/// an expression statement (its call is the node), 1 for the rest.
#[must_use]
pub fn body_size(stmts: &[Stmt]) -> usize {
    let mut n = 0;
    visit_stmts(stmts, &mut |s| {
        n += match s {
            Stmt::Expr(_) => 0,
            Stmt::If { .. } | Stmt::While { .. } | Stmt::Return(_) => 1,
            Stmt::Assign { .. } | Stmt::CountedFor { .. } | Stmt::Critical { .. } => 2,
        }
    });
    visit_exprs_stmts(stmts, &mut |_| n += 1);
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile_source;

    #[test]
    fn body_size_matches_a_hand_count_over_every_statement_kind() {
        let hir = compile_source(
            "class c { int v; int get(int k) { return k; } }
             int g;
             int f(c o, int[] a, int n) {
                 o.v = n + 1;
                 a[n] = 0;
                 g = -n;
                 if (n > 0) { o.get(n); } else { return 1; }
                 while (n < 3) { n = n + 1; }
                 for (int i = 0; i < n; i++) { }
                 return a.length;
             }",
        )
        .unwrap();
        let f = &hir.functions[hir.function_named("f").unwrap().0];
        let mut body = f.body.clone();
        let ret = body.pop().unwrap();
        let o = Expr::local(LocalId(0), Ty::Object(ClassId(0)));
        body.push(Stmt::Critical { lock_obj: o, body: vec![], regions: vec![] });
        body.push(ret);
        let hand = [
            6,         // o.v = n + 1: statement, place, o, +, n, 1
            5,         // a[n] = 0: statement, place, a, n, 0
            4,         // g = -n: statement, place, -, n
            4 + 3 + 2, // if: statement, >, n, 0; o.get(n): call, o, n; return 1
            4 + 5,     // while: statement, <, n, 3; n = n + 1: statement, place, +, n, 1
            4,         // for: statement, increment, 0, n
            3,         // critical: acquire, release, o
            3,         // return a.length: statement, length, a
        ];
        assert_eq!(body_size(&body), hand.iter().sum::<usize>());
    }
}
