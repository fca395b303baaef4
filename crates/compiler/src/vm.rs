//! Bytecode lowering: the register-based instruction set the native tier
//! compiles from.
//!
//! The tree-walking interpreter ([`crate::interp`]) is the semantic
//! reference. This module lowers each function to a flat `Vec<Insn>`
//! ([`VmFunc`]), which [`crate::native`] then compiles to fused closures.
//! Nothing executes the bytecode directly; the lowering fixes the frame
//! layout, the control flow and the cost accounting native code follows:
//!
//! * **registers, not trees** — every expression node becomes an
//!   instruction reading and writing frame-relative register slots; locals
//!   occupy registers `0..num_locals` and temporaries are allocated with
//!   stack discipline above them. Jump targets are patched to absolute
//!   instruction indices.
//! * **batched op-cost accounting** — the lowering counts the interpreter
//!   charges of each basic block *statically* and emits one
//!   [`Insn::Charge`] per block instead of charging per node. Because the
//!   sink merges consecutive compute charges ([`OpSink::compute_batch`] is
//!   exact in nanoseconds) and the charge count between any two lock
//!   operations is preserved, the step sequence native code emits is
//!   bit-identical to the tree-walker's.
//! * **resolved extern calls** — [`Insn::CallHost`] names the dense index
//!   of the table built by
//!   [`HostRegistry::link`](crate::interp::HostRegistry::link), so no call
//!   clones a string or hashes a name.
//! * **explicit lock instructions** — [`Insn::LockAcquire`] /
//!   [`Insn::LockRelease`] sit at the same points as the tree-walker's
//!   critical regions, including releasing all enclosing regions
//!   (innermost first) on early `return`.
//! * **sema types on operators** — [`Insn::Binary`] and [`Insn::Unary`]
//!   carry their operand's [`OpTy`], so native code selects typed kernels.
//!
//! Barriers and sampling rendezvous are runtime-level constructs
//! (`dynfb_sim::runtime` inserts them between iterations); no code the
//! lowering sees contains them, so the ISA carries no barrier instruction.
//!
//! [`OpSink::compute_batch`]: dynfb_sim::OpSink::compute_batch

use crate::interp::Value;
use dynfb_lang::hir::{BinOp, Expr, ExprKind, Function, Place, Stmt, Ty, UnOp};

/// Register index within a frame. Locals first, temporaries above.
pub type Reg = u16;

/// Sentinel register meaning "no receiver" in [`Insn::Call`].
pub(crate) const NO_REG: Reg = Reg::MAX;

/// The sema-resolved type of an operator's operand, carried into the
/// bytecode so the native tier can select a typed kernel. Sema coerces
/// both sides of a binary operator to one type, so the left operand's
/// type stands for both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpTy {
    /// `int`.
    Int,
    /// `double`.
    Double,
    /// `bool`.
    Bool,
    /// Object, array, or `null` (and `void`, which only `==`/`!=` on two
    /// void calls can produce).
    Ref,
}

impl OpTy {
    /// The operand class of a sema type.
    #[must_use]
    pub fn of(ty: &Ty) -> OpTy {
        match ty {
            Ty::Int => OpTy::Int,
            Ty::Double => OpTy::Double,
            Ty::Bool => OpTy::Bool,
            _ => OpTy::Ref,
        }
    }
}

/// One bytecode instruction.
///
/// Only [`Insn::Charge`], [`Insn::CallHost`], [`Insn::LockAcquire`] and
/// [`Insn::LockRelease`] touch the [`OpSink`](dynfb_sim::OpSink); every
/// other instruction is
/// free, exactly like the machine ops they stand for are covered by the
/// per-node charges the lowering already counted.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // operand fields (dst/src/obj/...) are uniform register slots
pub enum Insn {
    /// Charge `n` interpreter node costs and consume `n` fuel.
    Charge(u32),
    /// Load a constant.
    Const { dst: Reg, v: Value },
    /// Copy a register.
    Move { dst: Reg, src: Reg },
    /// Load the method receiver.
    LoadThis { dst: Reg },
    /// Read a global.
    LoadGlobal { dst: Reg, g: u32 },
    /// Write a global.
    StoreGlobal { g: u32, src: Reg },
    /// Read `obj.field`.
    FieldGet { dst: Reg, obj: Reg, field: u16 },
    /// Write `obj.field`.
    FieldSet { obj: Reg, field: u16, src: Reg },
    /// Read `arr[idx]`.
    IndexGet { dst: Reg, arr: Reg, idx: Reg },
    /// Write `arr[idx]`.
    IndexSet { arr: Reg, idx: Reg, src: Reg },
    /// `arr.length`.
    ArrayLen { dst: Reg, arr: Reg },
    /// Binary operator (no short-circuit: both operands are registers) on
    /// operands of type `ty`.
    Binary { dst: Reg, op: BinOp, ty: OpTy, lhs: Reg, rhs: Reg },
    /// Unary operator on an operand of type `ty`.
    Unary { dst: Reg, op: UnOp, ty: OpTy, src: Reg },
    /// Integer → double coercion.
    IntToDouble { dst: Reg, src: Reg },
    /// Error unless the register holds an `Int` (loop-bound checks).
    CheckInt { src: Reg },
    /// Error if the register holds `Null` (method receiver check; happens
    /// before argument evaluation, like the tree-walker).
    CheckRecv { obj: Reg, func: u32 },
    /// Unconditional jump to an absolute instruction index.
    Jump { target: u32 },
    /// Jump unless the register holds `Bool(true)`.
    JumpIfFalse { cond: Reg, target: u32 },
    /// Call a program function; arguments sit in consecutive registers
    /// starting at `base`. `recv` is [`NO_REG`] for free functions.
    Call { dst: Reg, func: u32, base: Reg, recv: Reg },
    /// Call a host (`extern`) function through the dense link table.
    CallHost { dst: Reg, ext: u32, base: Reg, argc: u8 },
    /// Allocate an object.
    NewObj { dst: Reg, class: u32 },
    /// Allocate an array of `len` copies of the element default.
    NewArr { dst: Reg, len: Reg, default: Value },
    /// Enter a critical region on the object in `obj`.
    LockAcquire { obj: Reg },
    /// Leave a critical region on the object in `obj`.
    LockRelease { obj: Reg },
    /// Return the value in `src`.
    Return { src: Reg },
}

/// A lowered function.
#[derive(Debug, Clone, PartialEq)]
pub struct VmFunc {
    /// Name (for error messages).
    pub name: String,
    /// Number of parameters (occupy the first registers).
    pub num_params: usize,
    /// Default values of all locals (params included; callers overwrite
    /// the parameter prefix).
    pub local_defaults: Vec<Value>,
    /// Total frame size: locals plus the temporary high-water mark.
    pub num_regs: usize,
    /// The instruction stream.
    pub code: Vec<Insn>,
}

/// A lowered function table. Indices match the source `Vec<Function>`, so
/// `FuncId`s translate directly.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VmModule {
    /// The functions.
    pub funcs: Vec<VmFunc>,
}

/// Lower a complete function table.
#[must_use]
pub fn lower_functions(funcs: &[Function]) -> VmModule {
    VmModule { funcs: funcs.iter().map(lower_function).collect() }
}

/// Lower one function: the prologue charge models the tree-walker's
/// per-call charge in `Interp::call`.
fn lower_function(f: &Function) -> VmFunc {
    let mut lo = Lowerer::new(f.locals.len());
    lo.pending = 1; // Interp::call charges once on entry.
    for s in &f.body {
        lo.stmt(s);
    }
    lo.epilogue();
    lo.finish(f.name.clone(), f.num_params, f.locals.iter().map(|l| Value::default_for(&l.ty)))
}

/// Lower a bare statement list (a parallel-loop iteration body) over a
/// frame of `locals_ty` slots. No prologue charge: the runtime drives
/// iterations through `exec_body`, which charges per statement only.
#[must_use]
pub fn lower_body(name: &str, body: &[Stmt], locals_ty: &[Ty]) -> VmFunc {
    let mut lo = Lowerer::new(locals_ty.len());
    for s in body {
        lo.stmt(s);
    }
    lo.epilogue();
    lo.finish(name.to_string(), 0, locals_ty.iter().map(Value::default_for))
}

struct Lowerer {
    code: Vec<Insn>,
    /// Statically-counted charges of the current basic block.
    pending: u32,
    next_reg: usize,
    max_reg: usize,
    /// Pinned registers holding the lock objects of enclosing critical
    /// regions (outermost first); `return` releases them all in reverse.
    regions: Vec<Reg>,
}

impl Lowerer {
    fn new(num_locals: usize) -> Self {
        Lowerer {
            code: Vec::new(),
            pending: 0,
            next_reg: num_locals,
            max_reg: num_locals,
            regions: Vec::new(),
        }
    }

    fn finish(
        self,
        name: String,
        num_params: usize,
        defaults: impl Iterator<Item = Value>,
    ) -> VmFunc {
        debug_assert_eq!(self.pending, 0, "epilogue flushes");
        VmFunc {
            name,
            num_params,
            local_defaults: defaults.collect(),
            num_regs: self.max_reg,
            code: self.code,
        }
    }

    /// Fall-through end of a body: return `Null`, like the tree-walker's
    /// `Flow::Normal`, with no extra charge.
    fn epilogue(&mut self) {
        let t = self.temp();
        self.code.push(Insn::Const { dst: t, v: Value::Null });
        self.flush();
        self.code.push(Insn::Return { src: t });
        self.next_reg -= 1;
    }

    fn temp(&mut self) -> Reg {
        let r = self.next_reg;
        assert!(r <= usize::from(Reg::MAX - 1), "expression too deep for the register file");
        self.next_reg += 1;
        self.max_reg = self.max_reg.max(self.next_reg);
        Reg::try_from(r).expect("checked above")
    }

    fn mark(&self) -> usize {
        self.next_reg
    }

    fn release_to(&mut self, mark: usize) {
        self.next_reg = mark;
    }

    /// Emit the accumulated block charge. Must run before every jump,
    /// label, lock instruction, call, and return, so the charge sum
    /// between any two sink-visible operations matches the tree-walker.
    fn flush(&mut self) {
        if self.pending > 0 {
            self.code.push(Insn::Charge(self.pending));
            self.pending = 0;
        }
    }

    /// A label for backward jumps. The preceding block must be flushed so
    /// loop re-entry does not re-execute its charge.
    fn label(&mut self) -> u32 {
        debug_assert_eq!(self.pending, 0, "flush before creating a label");
        u32::try_from(self.code.len()).expect("code fits u32")
    }

    /// Emit a forward jump with a placeholder target; returns the patch
    /// site.
    fn jump_fwd(&mut self) -> usize {
        self.flush();
        self.code.push(Insn::Jump { target: u32::MAX });
        self.code.len() - 1
    }

    fn jump_if_false_fwd(&mut self, cond: Reg) -> usize {
        self.flush();
        self.code.push(Insn::JumpIfFalse { cond, target: u32::MAX });
        self.code.len() - 1
    }

    fn patch(&mut self, site: usize) {
        debug_assert_eq!(self.pending, 0, "flush before patching a label");
        let target = u32::try_from(self.code.len()).expect("code fits u32");
        match &mut self.code[site] {
            Insn::Jump { target: t } | Insn::JumpIfFalse { target: t, .. } => *t = target,
            other => unreachable!("patching non-jump {other:?}"),
        }
    }

    fn stmt(&mut self, s: &Stmt) {
        self.pending += 1; // Interp::stmt charges once per statement.
        match s {
            Stmt::Assign { place, value } => match place {
                Place::Local(l) => {
                    // Safe to target the local directly: every expression
                    // lowering writes its destination as its final
                    // instruction, after all operand reads.
                    let dst = Reg::try_from(l.0).expect("local fits register file");
                    self.expr_into(value, dst);
                }
                Place::Global(g) => {
                    let m = self.mark();
                    let t = self.temp();
                    self.expr_into(value, t);
                    self.code
                        .push(Insn::StoreGlobal { g: u32::try_from(g.0).expect("global"), src: t });
                    self.release_to(m);
                }
                Place::Field { obj, field, .. } => {
                    // Value first, then the object — tree-walker order.
                    let m = self.mark();
                    let tv = self.temp();
                    self.expr_into(value, tv);
                    let to = self.temp();
                    self.expr_into(obj, to);
                    self.code.push(Insn::FieldSet {
                        obj: to,
                        field: u16::try_from(*field).expect("field"),
                        src: tv,
                    });
                    self.release_to(m);
                }
                Place::Index { arr, idx } => {
                    let m = self.mark();
                    let tv = self.temp();
                    self.expr_into(value, tv);
                    let ta = self.temp();
                    self.expr_into(arr, ta);
                    let ti = self.temp();
                    self.expr_into(idx, ti);
                    self.code.push(Insn::IndexSet { arr: ta, idx: ti, src: tv });
                    self.release_to(m);
                }
            },
            Stmt::If { cond, then_branch, else_branch } => {
                let m = self.mark();
                let c = self.temp();
                self.expr_into(cond, c);
                self.release_to(m);
                let to_else = self.jump_if_false_fwd(c);
                for s in then_branch {
                    self.stmt(s);
                }
                if else_branch.is_empty() {
                    self.flush();
                    self.patch(to_else);
                } else {
                    let to_end = self.jump_fwd();
                    self.patch(to_else);
                    for s in else_branch {
                        self.stmt(s);
                    }
                    self.flush();
                    self.patch(to_end);
                }
            }
            Stmt::While { cond, body } => {
                self.flush();
                let head = self.label();
                self.pending += 1; // charged once per loop check.
                let m = self.mark();
                let c = self.temp();
                self.expr_into(cond, c);
                self.release_to(m);
                let to_exit = self.jump_if_false_fwd(c);
                for s in body {
                    self.stmt(s);
                }
                self.flush();
                self.code.push(Insn::Jump { target: head });
                self.patch(to_exit);
            }
            Stmt::CountedFor { var, start, bound, body } => {
                let m = self.mark();
                let ri = self.temp(); // private induction counter
                let rb = self.temp();
                let rone = self.temp();
                let rt = self.temp();
                self.expr_into(start, ri);
                self.code.push(Insn::CheckInt { src: ri });
                self.expr_into(bound, rb);
                self.code.push(Insn::CheckInt { src: rb });
                self.code.push(Insn::Const { dst: rone, v: Value::Int(1) });
                self.flush();
                let head = self.label();
                // The bound check is free (the tree-walker charges only
                // once per executed iteration, before the body).
                self.code.push(Insn::Binary {
                    dst: rt,
                    op: BinOp::Lt,
                    ty: OpTy::Int,
                    lhs: ri,
                    rhs: rb,
                });
                let to_exit = self.jump_if_false_fwd(rt);
                self.pending += 1; // per-iteration charge.
                let var_reg = Reg::try_from(var.0).expect("local fits register file");
                self.code.push(Insn::Move { dst: var_reg, src: ri });
                for s in body {
                    self.stmt(s);
                }
                self.flush();
                self.code.push(Insn::Binary {
                    dst: ri,
                    op: BinOp::Add,
                    ty: OpTy::Int,
                    lhs: ri,
                    rhs: rone,
                });
                self.code.push(Insn::Jump { target: head });
                self.patch(to_exit);
                self.release_to(m);
            }
            Stmt::Return(v) => {
                let m = self.mark();
                let t = self.temp();
                match v {
                    Some(e) => self.expr_into(e, t),
                    None => self.code.push(Insn::Const { dst: t, v: Value::Null }),
                }
                self.flush();
                // Unwind every enclosing critical region, innermost first,
                // exactly as the tree-walker's Flow::Return propagation
                // runs each region's release on the way out.
                for i in (0..self.regions.len()).rev() {
                    self.code.push(Insn::LockRelease { obj: self.regions[i] });
                }
                self.code.push(Insn::Return { src: t });
                self.release_to(m);
            }
            Stmt::Expr(e) => {
                let m = self.mark();
                let t = self.temp();
                self.expr_into(e, t);
                self.release_to(m);
            }
            Stmt::Critical { lock_obj, body, .. } => {
                // The lock register stays pinned across the body so the
                // release addresses the same object.
                let pinned = self.temp();
                self.expr_into(lock_obj, pinned);
                self.flush();
                self.code.push(Insn::LockAcquire { obj: pinned });
                self.regions.push(pinned);
                for s in body {
                    self.stmt(s);
                }
                self.flush();
                self.code.push(Insn::LockRelease { obj: pinned });
                self.regions.pop();
                self.release_to(usize::from(pinned));
            }
        }
    }

    fn expr_into(&mut self, e: &Expr, dst: Reg) {
        self.pending += 1; // Interp::eval charges once per node.
        match &e.kind {
            ExprKind::Int(v) => self.code.push(Insn::Const { dst, v: Value::Int(*v) }),
            ExprKind::Double(v) => self.code.push(Insn::Const { dst, v: Value::Double(*v) }),
            ExprKind::Bool(v) => self.code.push(Insn::Const { dst, v: Value::Bool(*v) }),
            ExprKind::Null => self.code.push(Insn::Const { dst, v: Value::Null }),
            ExprKind::This => self.code.push(Insn::LoadThis { dst }),
            ExprKind::Local(l) => {
                let src = Reg::try_from(l.0).expect("local fits register file");
                if src != dst {
                    self.code.push(Insn::Move { dst, src });
                }
            }
            ExprKind::Global(g) => {
                self.code.push(Insn::LoadGlobal { dst, g: u32::try_from(g.0).expect("global") })
            }
            ExprKind::FieldGet { obj, field, .. } => {
                let m = self.mark();
                let t = self.temp();
                self.expr_into(obj, t);
                self.code.push(Insn::FieldGet {
                    dst,
                    obj: t,
                    field: u16::try_from(*field).expect("field"),
                });
                self.release_to(m);
            }
            ExprKind::Index { arr, idx } => {
                let m = self.mark();
                let ta = self.temp();
                self.expr_into(arr, ta);
                let ti = self.temp();
                self.expr_into(idx, ti);
                self.code.push(Insn::IndexGet { dst, arr: ta, idx: ti });
                self.release_to(m);
            }
            ExprKind::ArrayLen(a) => {
                let m = self.mark();
                let t = self.temp();
                self.expr_into(a, t);
                self.code.push(Insn::ArrayLen { dst, arr: t });
                self.release_to(m);
            }
            ExprKind::Binary { op, lhs, rhs } => {
                let m = self.mark();
                let tl = self.temp();
                self.expr_into(lhs, tl);
                let tr = self.temp();
                self.expr_into(rhs, tr);
                self.code.push(Insn::Binary {
                    dst,
                    op: *op,
                    ty: OpTy::of(&lhs.ty),
                    lhs: tl,
                    rhs: tr,
                });
                self.release_to(m);
            }
            ExprKind::Unary { op, expr } => {
                let m = self.mark();
                let t = self.temp();
                self.expr_into(expr, t);
                self.code.push(Insn::Unary { dst, op: *op, ty: OpTy::of(&expr.ty), src: t });
                self.release_to(m);
            }
            ExprKind::IntToDouble(inner) => {
                let m = self.mark();
                let t = self.temp();
                self.expr_into(inner, t);
                self.code.push(Insn::IntToDouble { dst, src: t });
                self.release_to(m);
            }
            ExprKind::CallFn { func, args } => {
                let m = self.mark();
                let base = self.args_block(args);
                self.flush(); // the callee may enter critical regions
                self.code.push(Insn::Call {
                    dst,
                    func: u32::try_from(func.0).expect("func"),
                    base,
                    recv: NO_REG,
                });
                self.release_to(m);
            }
            ExprKind::CallMethod { obj, func, args } => {
                let m = self.mark();
                let to = self.temp();
                self.expr_into(obj, to);
                let fid = u32::try_from(func.0).expect("func");
                // Receiver null check precedes argument evaluation.
                self.code.push(Insn::CheckRecv { obj: to, func: fid });
                let base = self.args_block(args);
                self.flush();
                self.code.push(Insn::Call { dst, func: fid, base, recv: to });
                self.release_to(m);
            }
            ExprKind::CallExtern { ext, args } => {
                let m = self.mark();
                let base = self.args_block(args);
                // Host calls only add compute (which merges in the sink),
                // so no flush is needed.
                self.code.push(Insn::CallHost {
                    dst,
                    ext: u32::try_from(ext.0).expect("extern"),
                    base,
                    argc: u8::try_from(args.len()).expect("arity fits u8"),
                });
                self.release_to(m);
            }
            ExprKind::New { class } => {
                self.code.push(Insn::NewObj { dst, class: u32::try_from(class.0).expect("class") })
            }
            ExprKind::NewArray { elem, len } => {
                let m = self.mark();
                let t = self.temp();
                self.expr_into(len, t);
                self.code.push(Insn::NewArr { dst, len: t, default: Value::default_for(elem) });
                self.release_to(m);
            }
        }
    }

    /// Allocate a consecutive register block and lower each argument into
    /// its slot (sub-expression temporaries live above the block).
    fn args_block(&mut self, args: &[Expr]) -> Reg {
        let base = self.next_reg;
        for _ in args {
            self.temp();
        }
        for (i, a) in args.iter().enumerate() {
            let m = self.mark();
            let dst = Reg::try_from(base + i).expect("register file");
            self.expr_into(a, dst);
            self.release_to(m);
        }
        Reg::try_from(base).expect("register file")
    }
}
