//! The abstract syntax tree produced by the parser.
//!
//! The surface language is a small, C++-flavoured object-based language —
//! the same shape as the programs the paper's compiler consumes (compare
//! Figure 1 of the paper):
//!
//! ```text
//! extern double interact(double, double);
//!
//! class body {
//!     double pos;
//!     double sum;
//!
//!     void one_interaction(body b) {
//!         double val = interact(this.pos, b.pos);
//!         this.sum += val;
//!     }
//!
//!     void interactions(body[] bodies, int n) {
//!         for (int i = 0; i < n; i++) {
//!             this.one_interaction(bodies[i]);
//!         }
//!     }
//! }
//! ```
//!
//! Both `.` and `->` are accepted for member access, and `&expr` is allowed
//! and ignored (all object values are references).

use crate::token::Span;

/// A complete source file.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    /// Host-implemented functions.
    pub externs: Vec<ExternDecl>,
    /// Class declarations.
    pub classes: Vec<ClassDecl>,
    /// Global variables.
    pub globals: Vec<GlobalDecl>,
    /// Free functions.
    pub functions: Vec<FuncDecl>,
}

/// `extern double interact(double, double);`
#[derive(Debug, Clone, PartialEq)]
pub struct ExternDecl {
    /// Function name.
    pub name: String,
    /// Parameter types (names optional in the source, dropped).
    pub params: Vec<TypeExpr>,
    /// Return type.
    pub ret: TypeExpr,
    /// Source position.
    pub span: Span,
}

/// A class: fields plus methods. Every object implicitly carries a mutual
/// exclusion lock (the paper's compiler augments each object with one).
#[derive(Debug, Clone, PartialEq)]
pub struct ClassDecl {
    /// Class name.
    pub name: String,
    /// Fields.
    pub fields: Vec<FieldDecl>,
    /// Methods.
    pub methods: Vec<FuncDecl>,
    /// Source position.
    pub span: Span,
}

/// One field of a class.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldDecl {
    /// Field name.
    pub name: String,
    /// Field type.
    pub ty: TypeExpr,
    /// Source position.
    pub span: Span,
}

/// A global variable declaration, e.g. `body[] bodies;`.
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalDecl {
    /// Variable name.
    pub name: String,
    /// Variable type.
    pub ty: TypeExpr,
    /// Source position.
    pub span: Span,
}

/// A function or method.
#[derive(Debug, Clone, PartialEq)]
pub struct FuncDecl {
    /// Function name.
    pub name: String,
    /// Parameters.
    pub params: Vec<ParamDecl>,
    /// Return type.
    pub ret: TypeExpr,
    /// Body.
    pub body: Block,
    /// Source position.
    pub span: Span,
}

/// A parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamDecl {
    /// Parameter name.
    pub name: String,
    /// Parameter type.
    pub ty: TypeExpr,
    /// Source position.
    pub span: Span,
}

/// A syntactic type.
#[derive(Debug, Clone, PartialEq)]
pub enum TypeExpr {
    /// `int`
    Int,
    /// `double`
    Double,
    /// `bool`
    Bool,
    /// `void`
    Void,
    /// A class reference (`body`, `body*` — the `*` is accepted and
    /// ignored: object values are always references).
    Named(String),
    /// `T[]` — a heap array.
    Array(Box<TypeExpr>),
}

/// A block of statements.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Block {
    /// Statements, in order.
    pub stmts: Vec<Stmt>,
}

/// A statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    /// The statement proper.
    pub kind: StmtKind,
    /// Source position.
    pub span: Span,
}

/// Statement kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum StmtKind {
    /// `double x = e;`
    VarDecl {
        /// Variable name.
        name: String,
        /// Declared type.
        ty: TypeExpr,
        /// Optional initializer.
        init: Option<Expr>,
    },
    /// `lhs = rhs;` or `lhs op= rhs;`
    Assign {
        /// Assignment target (must be an l-value).
        target: Expr,
        /// `Some(op)` for compound assignment (`+=` etc.).
        op: Option<BinOp>,
        /// Right-hand side.
        value: Expr,
    },
    /// `if (c) s else s`
    If {
        /// Condition.
        cond: Expr,
        /// Then branch.
        then_branch: Block,
        /// Else branch.
        else_branch: Option<Block>,
    },
    /// `while (c) s`
    While {
        /// Condition.
        cond: Expr,
        /// Body.
        body: Block,
    },
    /// `for (init; cond; step) s`
    For {
        /// Loop initializer.
        init: Option<Box<Stmt>>,
        /// Loop condition.
        cond: Option<Expr>,
        /// Loop step.
        step: Option<Box<Stmt>>,
        /// Body.
        body: Block,
    },
    /// `return e;`
    Return(Option<Expr>),
    /// An expression evaluated for its effects (a call).
    Expr(Expr),
    /// A nested block.
    Block(Block),
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub struct Expr {
    /// The expression proper.
    pub kind: ExprKind,
    /// Source position.
    pub span: Span,
}

/// Expression kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprKind {
    /// Integer literal.
    Int(i64),
    /// Floating-point literal.
    Double(f64),
    /// Boolean literal.
    Bool(bool),
    /// `null`
    Null,
    /// `this`
    This,
    /// A variable reference (local, parameter, or global).
    Var(String),
    /// `obj.field` / `obj->field`
    Field {
        /// Object expression.
        object: Box<Expr>,
        /// Field name.
        field: String,
    },
    /// `arr[i]`
    Index {
        /// Array expression.
        array: Box<Expr>,
        /// Index expression.
        index: Box<Expr>,
    },
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
    /// `obj.m(args)` — a method call.
    MethodCall {
        /// Receiver.
        object: Box<Expr>,
        /// Method name.
        method: String,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// `f(args)` — a free function or extern call.
    Call {
        /// Function name.
        name: String,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// `new C()` — allocate an object (fields zero/null initialized).
    New {
        /// Class name.
        class: String,
    },
    /// `new T[n]` — allocate an array.
    NewArray {
        /// Element type.
        elem: TypeExpr,
        /// Length.
        len: Box<Expr>,
    },
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum UnOp {
    Neg,
    Not,
}
