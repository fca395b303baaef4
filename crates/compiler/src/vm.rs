//! A register-based bytecode VM: the fast execution tier for compiled apps.
//!
//! The tree-walking interpreter ([`crate::interp`]) is the semantic
//! reference, but its dispatch cost (one `Box`-chasing `match`, one
//! [`OpSink`] charge, and one fuel check *per HIR node*) dominates the
//! host wall-clock of every benchmark. This module lowers each function to
//! a flat `Vec<Insn>` executed by a tight loop:
//!
//! * **registers, not trees** — every expression node becomes an
//!   instruction reading and writing frame-relative register slots; locals
//!   occupy registers `0..num_locals` and temporaries are allocated with
//!   stack discipline above them. Jump targets are patched to absolute
//!   instruction indices, so control flow is two integer assignments.
//! * **batched op-cost accounting** — the lowering counts the interpreter
//!   charges of each basic block *statically* and emits one
//!   [`Insn::Charge`] per block instead of charging per node. Because the
//!   sink merges consecutive compute charges ([`OpSink::compute_batch`] is
//!   exact in nanoseconds) and the charge count between any two lock
//!   operations is preserved, the emitted step sequence is bit-identical
//!   to the tree-walker's.
//! * **resolved extern calls** — [`Insn::CallHost`] dispatches through the
//!   dense index table built by [`HostRegistry::link`], with no per-call
//!   string clone or hash lookup.
//! * **explicit lock instructions** — [`Insn::LockAcquire`] /
//!   [`Insn::LockRelease`] emit the same acquire/release steps at the same
//!   points as the tree-walker's critical regions, including releasing all
//!   enclosing regions (innermost first) on early `return`.
//!
//! ## Determinism contract
//!
//! For every program that the tree-walker executes successfully, the VM
//! produces the *same* return value, heap, globals, final sink step
//! sequence, and fuel success/failure boundary. Runtime errors carry the
//! same messages; on an error path the two tiers may differ only in
//! partially-flushed sink contents and partially-applied heap effects,
//! which the runtime discards (iteration errors abort the run). The
//! differential fuzz suite (`tests/vm_differential.rs`) enforces this
//! contract on seeded random programs and run configurations.
//!
//! Barriers and sampling rendezvous are runtime-level constructs
//! (`dynfb_sim::runtime` inserts them between iterations); no code the
//! lowering sees contains them, so the ISA carries no barrier instruction.

use crate::interp::{binary_op, check_args, unary_op, CostModel, ProgramEnv, RuntimeError, Value};
use dynfb_lang::hir::{BinOp, Expr, ExprKind, Function, Place, Stmt, Ty, UnOp};
use dynfb_sim::{LockId, OpSink};

/// Which execution tier a [`CompiledApp`](crate::artifact::CompiledApp)
/// uses to run compiled code.
///
/// All three tiers emit bit-identical step sequences into the [`OpSink`],
/// so switching tiers never changes simulation results — only how fast the
/// host produces them. The slower tiers are kept as differential oracles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecTier {
    /// The tree-walking interpreter — the semantic reference oracle.
    Tree,
    /// The register-based bytecode VM — dispatches one `Insn` at a time.
    Vm,
    /// The closure-fusion native tier ([`crate::native`]) — each basic
    /// block compiled to a single fused Rust closure. The fast path and
    /// the default.
    #[default]
    Native,
}

/// Register index within a frame. Locals first, temporaries above.
pub type Reg = u16;

/// Sentinel register meaning "no receiver" in [`Insn::Call`].
pub(crate) const NO_REG: Reg = Reg::MAX;

/// The sema-resolved type of an operator's operand, carried into the
/// bytecode so the native tier can select a typed kernel. Sema coerces
/// both sides of a binary operator to one type, so the left operand's
/// type stands for both. The bytecode interpreter ignores it and
/// dispatches on value tags, as the tree-walker does.
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
/// [`Insn::LockRelease`] touch the [`OpSink`]; every other instruction is
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

/// The bytecode executor. Borrows the same program state as
/// [`crate::interp::Interp`] and emits into the same [`OpSink`]; the
/// register stack is caller-provided so it can be reused across
/// iterations without reallocation.
pub struct Vm<'a> {
    /// Program state (heap, globals, host functions).
    pub env: &'a mut ProgramEnv,
    /// The lowered function table of the executing version.
    pub module: &'a VmModule,
    /// Cost model (node and extern-default costs).
    pub cost: CostModel,
    /// Destination for compute/acquire/release steps.
    pub sink: &'a mut OpSink,
    /// First lock of the per-object lock pool.
    pub lock_base: LockId,
    /// Size of the lock pool (max objects).
    pub lock_capacity: usize,
    /// Remaining evaluation fuel.
    pub fuel: u64,
    /// The register stack, grown on demand and reused across calls.
    pub regs: &'a mut Vec<Value>,
}

impl Vm<'_> {
    /// Call a function with an optional receiver (frame at the base of the
    /// register stack).
    ///
    /// # Errors
    ///
    /// Propagates runtime errors with the same messages as the
    /// tree-walker.
    pub fn call(
        &mut self,
        func: usize,
        this: Option<Value>,
        args: &[Value],
    ) -> Result<Value, RuntimeError> {
        let f = &self.module.funcs[func];
        check_args(&f.name, f.local_defaults[..f.num_params].iter().copied(), args)?;
        self.ensure(f.num_regs);
        self.regs[..args.len()].copy_from_slice(args);
        for i in args.len()..f.local_defaults.len() {
            self.regs[i] = f.local_defaults[i];
        }
        self.run(func, 0, this)
    }

    /// Execute an iteration body: frame-zero locals are reset to their
    /// defaults and the induction variable slot is preset.
    ///
    /// # Errors
    ///
    /// Propagates runtime errors.
    pub fn exec_iteration(
        &mut self,
        func: usize,
        var: usize,
        value: i64,
    ) -> Result<(), RuntimeError> {
        let f = &self.module.funcs[func];
        self.ensure(f.num_regs);
        self.regs[..f.local_defaults.len()].copy_from_slice(&f.local_defaults);
        self.regs[var] = Value::Int(value);
        self.run(func, 0, None).map(|_| ())
    }

    fn ensure(&mut self, need: usize) {
        if self.regs.len() < need {
            self.regs.resize(need, Value::Null);
        }
    }

    fn charge(&mut self, n: u32) -> Result<(), RuntimeError> {
        let need = u64::from(n);
        if need > self.fuel {
            // Bisect the block's debit at the fuel boundary: charge the
            // sink only for the fuel actually consumed, exactly as the
            // tree-walker's per-node accounting would.
            let used = u32::try_from(self.fuel).expect("fuel < n <= u32::MAX");
            self.sink.compute_batch(self.cost.node, used);
            self.fuel = 0;
            return Err(RuntimeError::new("evaluation fuel exhausted (runaway loop?)"));
        }
        self.fuel -= need;
        self.sink.compute_batch(self.cost.node, n);
        Ok(())
    }

    fn lock_for(&self, obj: usize) -> Result<LockId, RuntimeError> {
        if obj >= self.lock_capacity {
            return Err(RuntimeError::new(format!(
                "object {obj} exceeds the lock pool capacity {} (raise max_objects)",
                self.lock_capacity
            )));
        }
        Ok(self.lock_base.offset(obj))
    }

    #[allow(clippy::too_many_lines)]
    fn run(
        &mut self,
        func: usize,
        base: usize,
        this: Option<Value>,
    ) -> Result<Value, RuntimeError> {
        let module = self.module;
        let f = &module.funcs[func];
        let code = &f.code[..];
        let mut pc = 0usize;
        macro_rules! reg {
            ($r:expr) => {
                self.regs[base + $r as usize]
            };
        }
        loop {
            let insn = &code[pc];
            pc += 1;
            match insn {
                Insn::Charge(n) => self.charge(*n)?,
                Insn::Const { dst, v } => reg![*dst] = *v,
                Insn::Move { dst, src } => reg![*dst] = reg![*src],
                Insn::LoadThis { dst } => {
                    reg![*dst] = this.ok_or_else(|| RuntimeError::new("`this` outside method"))?;
                }
                Insn::LoadGlobal { dst, g } => reg![*dst] = self.env.globals[*g as usize],
                Insn::StoreGlobal { g, src } => self.env.globals[*g as usize] = reg![*src],
                Insn::FieldGet { dst, obj, field } => {
                    let Value::Obj(id) = reg![*obj] else {
                        return Err(RuntimeError::new("field read on null/non-object"));
                    };
                    reg![*dst] = self.env.heap.objects[id].fields[usize::from(*field)];
                }
                Insn::FieldSet { obj, field, src } => {
                    let v = reg![*src];
                    let Value::Obj(id) = reg![*obj] else {
                        return Err(RuntimeError::new("field write on null/non-object"));
                    };
                    self.env.heap.objects[id].fields[usize::from(*field)] = v;
                }
                Insn::IndexGet { dst, arr, idx } => {
                    let i = reg![*idx].as_int()?;
                    let Value::Arr(id) = reg![*arr] else {
                        return Err(RuntimeError::new("index read on null/non-array"));
                    };
                    let a = &self.env.heap.arrays[id];
                    reg![*dst] =
                        *a.get(usize::try_from(i).unwrap_or(usize::MAX)).ok_or_else(|| {
                            RuntimeError::new(format!("index {i} out of bounds ({})", a.len()))
                        })?;
                }
                Insn::IndexSet { arr, idx, src } => {
                    let v = reg![*src];
                    let i = reg![*idx].as_int()?;
                    let Value::Arr(id) = reg![*arr] else {
                        return Err(RuntimeError::new("index write on null/non-array"));
                    };
                    let a = &mut self.env.heap.arrays[id];
                    let len = a.len();
                    *a.get_mut(usize::try_from(i).unwrap_or(usize::MAX)).ok_or_else(|| {
                        RuntimeError::new(format!("index {i} out of bounds ({len})"))
                    })? = v;
                }
                Insn::ArrayLen { dst, arr } => {
                    let Value::Arr(id) = reg![*arr] else {
                        return Err(RuntimeError::new("length of null/non-array"));
                    };
                    reg![*dst] = Value::Int(self.env.heap.arrays[id].len() as i64);
                }
                Insn::Binary { dst, op, lhs, rhs, .. } => {
                    reg![*dst] = binary_op(*op, reg![*lhs], reg![*rhs])?;
                }
                Insn::Unary { dst, op, src, .. } => reg![*dst] = unary_op(*op, reg![*src])?,
                Insn::IntToDouble { dst, src } => {
                    reg![*dst] = Value::Double(reg![*src].as_int()? as f64);
                }
                Insn::CheckInt { src } => {
                    let v = reg![*src];
                    v.as_int()?;
                }
                Insn::CheckRecv { obj, func } => {
                    if reg![*obj] == Value::Null {
                        return Err(RuntimeError::new(format!(
                            "method `{}` on null",
                            module.funcs[*func as usize].name
                        )));
                    }
                }
                Insn::Jump { target } => pc = *target as usize,
                Insn::JumpIfFalse { cond, target } => {
                    if !matches!(reg![*cond], Value::Bool(true)) {
                        pc = *target as usize;
                    }
                }
                Insn::Call { dst, func: callee, base: abase, recv } => {
                    let callee = *callee as usize;
                    let recv_v = if *recv == NO_REG { None } else { Some(reg![*recv]) };
                    let cf = &module.funcs[callee];
                    let callee_base = base + f.num_regs;
                    if self.regs.len() < callee_base + cf.num_regs {
                        self.regs.resize(callee_base + cf.num_regs, Value::Null);
                    }
                    let abase = base + usize::from(*abase);
                    self.regs.copy_within(abase..abase + cf.num_params, callee_base);
                    for i in cf.num_params..cf.local_defaults.len() {
                        self.regs[callee_base + i] = cf.local_defaults[i];
                    }
                    let v = self.run(callee, callee_base, recv_v)?;
                    reg![*dst] = v;
                }
                Insn::CallHost { dst, ext, base: abase, argc } => {
                    let abase = base + usize::from(*abase);
                    let ProgramEnv { host, externs, .. } = &mut *self.env;
                    let v = host.call(
                        *ext as usize,
                        externs,
                        &self.regs[abase..abase + usize::from(*argc)],
                        self.cost.extern_default,
                        self.sink,
                    )?;
                    reg![*dst] = v;
                }
                Insn::NewObj { dst, class } => {
                    let env = &mut *self.env;
                    let id = env.heap.alloc_object(*class as usize, &env.classes);
                    reg![*dst] = Value::Obj(id);
                }
                Insn::NewArr { dst, len, default } => {
                    let n = reg![*len].as_int()?;
                    if n < 0 {
                        return Err(RuntimeError::new("negative array length"));
                    }
                    self.env.heap.arrays.push(vec![*default; n as usize]);
                    reg![*dst] = Value::Arr(self.env.heap.arrays.len() - 1);
                }
                Insn::LockAcquire { obj } => {
                    let Value::Obj(id) = reg![*obj] else {
                        return Err(RuntimeError::new("critical region on null/non-object"));
                    };
                    let lock = self.lock_for(id)?;
                    self.sink.acquire(lock);
                }
                Insn::LockRelease { obj } => {
                    let Value::Obj(id) = reg![*obj] else {
                        return Err(RuntimeError::new("critical region on null/non-object"));
                    };
                    let lock = self.lock_for(id)?;
                    self.sink.release(lock);
                }
                Insn::Return { src } => return Ok(reg![*src]),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{Heap, HostRegistry, Interp};
    use dynfb_lang::compile_source;
    use std::time::Duration;

    fn env_for(hir: &dynfb_lang::hir::Hir) -> ProgramEnv {
        let mut env = ProgramEnv {
            classes: hir.classes.clone(),
            externs: hir.externs.clone(),
            globals: hir.globals.iter().map(|g| Value::default_for(&g.ty)).collect(),
            heap: Heap::default(),
            host: HostRegistry::new(),
        };
        env.host.register("hostadd", Duration::from_nanos(100), |args| {
            Value::Double(args[0].as_double().unwrap() + args[1].as_double().unwrap())
        });
        env
    }

    fn lock_base(n: usize) -> LockId {
        let mut m = dynfb_sim::Machine::new(dynfb_sim::MachineConfig::default());
        m.add_locks(n)
    }

    /// Run `func` under both tiers; assert identical values, heaps,
    /// globals, and step sequences; return the value.
    fn both(src: &str, func: &str, args: Vec<Value>) -> Value {
        let hir = compile_source(src).unwrap_or_else(|e| panic!("{e}"));
        let f = hir.function_named(func).expect("function");
        let base = lock_base(1024);

        let mut tree_env = env_for(&hir);
        let mut tree_sink = OpSink::default();
        let tree_val = {
            let mut interp = Interp {
                env: &mut tree_env,
                funcs: &hir.functions,
                cost: CostModel::default(),
                sink: &mut tree_sink,
                lock_base: base,
                lock_capacity: 1024,
                fuel: 10_000_000,
            };
            interp.call(f.0, None, args.clone()).unwrap_or_else(|e| panic!("tree: {e}"))
        };

        let module = lower_functions(&hir.functions);
        let mut vm_env = env_for(&hir);
        let mut vm_sink = OpSink::default();
        let mut regs = Vec::new();
        let vm_val = {
            let mut vm = Vm {
                env: &mut vm_env,
                module: &module,
                cost: CostModel::default(),
                sink: &mut vm_sink,
                lock_base: base,
                lock_capacity: 1024,
                fuel: 10_000_000,
                regs: &mut regs,
            };
            vm.call(f.0, None, &args).unwrap_or_else(|e| panic!("vm: {e}"))
        };

        assert_eq!(tree_val, vm_val, "return values");
        assert_eq!(tree_env.globals, vm_env.globals, "globals");
        assert_eq!(tree_env.heap.arrays, vm_env.heap.arrays, "arrays");
        assert_eq!(tree_env.heap.objects.len(), vm_env.heap.objects.len(), "object count");
        for (a, b) in tree_env.heap.objects.iter().zip(&vm_env.heap.objects) {
            assert_eq!(a.fields, b.fields, "object fields");
        }
        let ts: Vec<_> = tree_sink.into_steps().into_iter().collect();
        let vs: Vec<_> = vm_sink.into_steps().into_iter().collect();
        assert_eq!(ts, vs, "step sequences");
        vm_val
    }

    #[test]
    fn recursion_matches_tree_walker() {
        let v = both(
            "int fib(int n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }",
            "fib",
            vec![Value::Int(12)],
        );
        assert_eq!(v, Value::Int(144));
    }

    #[test]
    fn loops_arrays_and_objects_match() {
        let v = both(
            "class cell { int count; void bump(int n) { this.count += n; } }
             int test(int n) {
                 cell[] cells = new cell[n];
                 for (int i = 0; i < n; i++) { cells[i] = new cell(); }
                 int j = n * 2;
                 while (j > 0) { j = j - 1; cells[j % n].bump(j); }
                 int total = 0;
                 for (int i = 0; i < n; i++) { total += cells[i].count; }
                 return total;
             }",
            "test",
            vec![Value::Int(6)],
        );
        assert_eq!(v, Value::Int(66));
    }

    #[test]
    fn extern_calls_and_doubles_match() {
        let v = both(
            "extern double hostadd(double, double);
             double test(int n) {
                 double acc = 0.0;
                 for (int i = 0; i < n; i++) { acc = hostadd(acc, i * 0.5); }
                 return acc;
             }",
            "test",
            vec![Value::Int(9)],
        );
        assert_eq!(v, Value::Double(18.0));
    }

    #[test]
    fn fuel_boundary_is_identical() {
        let src = "int burn(int n) { int acc = 0; for (int i = 0; i < n; i++) { acc += i; } return acc; }";
        let hir = compile_source(src).unwrap();
        let f = hir.function_named("burn").unwrap();
        let base = lock_base(4);
        let run_tree = |fuel: u64| -> Result<Value, RuntimeError> {
            let mut env = env_for(&hir);
            let mut sink = OpSink::default();
            let mut interp = Interp {
                env: &mut env,
                funcs: &hir.functions,
                cost: CostModel::default(),
                sink: &mut sink,
                lock_base: base,
                lock_capacity: 4,
                fuel,
            };
            interp.call(f.0, None, vec![Value::Int(10)])
        };
        let module = lower_functions(&hir.functions);
        let run_vm = |fuel: u64| -> Result<Value, RuntimeError> {
            let mut env = env_for(&hir);
            let mut sink = OpSink::default();
            let mut regs = Vec::new();
            let mut vm = Vm {
                env: &mut env,
                module: &module,
                cost: CostModel::default(),
                sink: &mut sink,
                lock_base: base,
                lock_capacity: 4,
                fuel,
                regs: &mut regs,
            };
            vm.call(f.0, None, &[Value::Int(10)])
        };
        // Find the exact fuel need under the tree-walker, then assert the
        // VM fails/succeeds on the same boundary.
        let need = (0..10_000u64).find(|&fu| run_tree(fu).is_ok()).expect("finite program");
        assert!(run_tree(need - 1).is_err());
        assert!(run_vm(need).is_ok(), "vm succeeds at the tree-walker's minimum fuel");
        let e = run_vm(need - 1).unwrap_err();
        assert!(e.message.contains("fuel"), "{e}");
    }
}
