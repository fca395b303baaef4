//! Native execution: closure-fusion compilation of the lowered bytecode.
//!
//! Executing the bytecode ([`crate::vm`]) one instruction at a time would
//! pay three per-instruction costs the hardware does not have to: a
//! dispatch `match` (one indirect branch from a single, maximally
//! mispredicted call site), a bounds check on every register operand, and
//! a fuel/cost debit per [`Insn::Charge`]. This module avoids all three by
//! compiling each [`VmFunc`] *basic block* into a single fused Rust
//! closure at `compile()` time:
//!
//! * **fused superinstructions** — the block's instructions are lowered to
//!   monomorphized op kernels (one closure type per instruction variant,
//!   with `BinOp`/`UnOp` split out so the operator folds into the kernel
//!   body) chained back-to-front: each kernel ends by calling the next
//!   kernel through its *own* call site, so the branch predictor sees one
//!   mostly-monomorphic target per site instead of one megamorphic
//!   dispatch loop. The chain's head is the block's single entry closure.
//! * **pre-validated register windows** — [`compile_native`] checks every
//!   operand index against the function's `num_regs` once, at compile
//!   time; the executor hands each block a window of exactly `num_regs`
//!   slots, so kernels use unchecked register access.
//! * **block-local optimization** — the register file is unobservable
//!   outside the tier (the determinism contract covers steps, heap,
//!   globals, results, and errors — not frame contents), so the compiler
//!   runs copy/constant/`this` propagation, constant folding, and
//!   liveness-driven dead-store elimination over each basic block before
//!   emitting kernels. Most of the lowering's `Move`/`Const`/`LoadThis`
//!   staging traffic disappears; call arguments are gathered straight
//!   from their resolved sources.
//! * **batched fuel/cost debits, bisected at the boundary** — every
//!   charge folds into its successor kernel as a prologue (no dedicated
//!   dispatch), and on fuel exhaustion the kernel debits the sink only
//!   for the fuel actually consumed, so the exhaustion point and the
//!   partial sink match the tree-walker bit-for-bit.
//!
//! ## Leaf inlining
//!
//! Before blocks are formed, every call to a small, call-free program
//! function (at most `INLINE_MAX_INSNS` instructions; call-free, so
//! never recursive) is spliced into the caller: the callee's registers
//! sit right above the caller's frame, the call becomes moves of the
//! arguments and constants of the other locals' defaults, `LoadThis`
//! becomes a move from the call's receiver register, and each `Return`
//! a move into the call's destination plus a jump to the continuation.
//! The callee's own entry charge comes along unchanged, so the charge
//! sequence is the tree-walker's. Such a call no longer exits the block
//! chain or rebuilds a frame. A caller's compiled code therefore embeds
//! its inlined callees, and [`compile_native_reusing`] compares them bit
//! for bit before it shares the caller.
//!
//! ## Typed kernels and superinstructions
//!
//! The mini-language is statically typed, and lowering carries sema's
//! operand type into every [`Insn::Binary`] and [`Insn::Unary`] as an
//! [`OpTy`]. Kernel selection keys on `(type, operator, operand shape)`:
//! f64 `+ - * /`, i64 wrapping `+ - *`, the six comparisons on either,
//! reference and bool `==`/`!=`, `Neg`, and `IntToDouble` compile to
//! kernels over untagged operands — one total read per operand
//! (`Double(x) => x`, anything else NaN; `0` for i64) and no tag
//! dispatch, no guard, no error path. The bool operators and int `/`/`%`
//! (division by zero must raise) keep the checked, tag-dispatching
//! `binary_op`.
//!
//! Three superinstructions cut the kernel count further:
//!
//! * **field operands** — a `FieldGet` whose result only feeds the next
//!   typed binary becomes that binary's operand (one or both operands may
//!   be field reads), so `c.mx - this.x` is one kernel;
//! * **read-modify-write** — `o.f = o.f op x` (a `FieldGet`, a typed
//!   arithmetic op and a `FieldSet` on the same object) is one kernel;
//! * **compare-and-branch** — a typed comparison followed by the branch
//!   that reads it is one kernel, with the block's exit charge folded in.
//!
//! Fusion cannot move an error or a charge. Only adjacent ops with no
//! charge between them fuse, loads are read in program order, and a
//! fused kernel fails with the first error the separate ops would have
//! raised. A compare-and-branch kernel debits the exit charge where the
//! separate ops did, after the comparison and before the branch; only
//! the comparison's register write moves behind the charge, and a
//! register is unobservable on the error path. A fused register write is
//! dropped only where dead-store elimination's backward pass found the
//! register dead. Jumps are threaded through blocks that have nothing
//! left but a jump.
//!
//! No guard is needed because every way a value enters a register is
//! typed: typed kernels, typed local defaults, heap and globals that only
//! program code writes (with values of the slot's sema type), host
//! results checked against the extern's declared return type
//! ([`HostRegistry::call`](crate::interp::HostRegistry::call)), and entry
//! arguments checked against the callee's parameters ([`NativeExec::call`]).
//! Should that argument ever break, a mismatched tag reads as NaN or 0 — a
//! wrong number, never undefined behaviour (a `debug_assert!` flags it in
//! debug builds).
//!
//! ## The kernel calling convention
//!
//! A kernel returns a bare `u32` — the next block index, or one of three
//! sentinels (`RET`, `CALLX`, `ERR`) — so the whole chain's result
//! travels in a register instead of dragging a multi-word
//! `Result<BlockExit, _>` through every nested return. Block *exits* with
//! compile-time-constant payloads (which register to return, which
//! function to call) live in a per-block `ExitDesc` side table the
//! executor consults only when a sentinel comes back; runtime errors park
//! in the frame (`NativeFrame::err`). A call that is not inlined
//! terminates its block so the executor can re-window the register stack
//! for the callee frame; plain jumps stay inside the executor's inner
//! loop, which keeps one frame alive across all of a function's block
//! transitions.
//!
//! ## Instrumentation stays exact
//!
//! Dynamic feedback needs live measurements *inside* the optimized tier
//! (the "Sampling Optimized Code for Type Feedback" problem): deoptimizing
//! to a slower tier to observe the program would perturb the very
//! overheads being measured. The native tier therefore keeps every
//! sink-visible operation exact, not sampled: `LockAcquire`/`LockRelease`
//! kernels emit the same acquire/release steps at the same points, charge
//! kernels debit the same nanosecond-exact compute, and host calls charge
//! their configured costs — so `ProcStats`, the per-lock metrics, the
//! detector signal path, and every oracle see byte-identical numbers under
//! both tiers.
//!
//! ## Determinism contract
//!
//! For every program that the tree-walker executes successfully, native
//! code produces the *same* return value, heap, globals, final sink step
//! sequence, and fuel success/failure boundary. Runtime errors carry the
//! same messages; on an error path the two tiers may differ only in
//! partially-flushed sink contents around host calls (which batch their
//! preceding node charges after the call) and partially-applied heap
//! effects, which the runtime discards (iteration errors abort the run).
//! `tests/native_differential.rs` enforces the contract on seeded random
//! programs and run configurations.

use crate::interp::{binary_op, check_args, unary_op, CostModel, ProgramEnv, RuntimeError, Value};
use crate::vm::{Insn, OpTy, Reg, VmFunc, VmModule, NO_REG};
use dynfb_lang::hir::{BinOp, UnOp, MAX_EXTERN_ARITY};
use dynfb_sim::{LockId, OpSink};
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// Kernel return sentinel: return from the function (see
/// [`ExitDesc::Return`] for the source register).
const RET: u32 = u32::MAX;
/// Kernel return sentinel: call a program function (see
/// [`ExitDesc::Call`] for the descriptor).
const CALLX: u32 = u32::MAX - 1;
/// Kernel return sentinel: a runtime error was parked in the frame.
const ERR: u32 = u32::MAX - 2;

/// The largest callee, in bytecode instructions, whose calls are spliced
/// into the caller. Only call-free callees qualify.
const INLINE_MAX_INSNS: usize = 128;

const FIELD_READ: &str = "field read on null/non-object";
const FIELD_WRITE: &str = "field write on null/non-object";
const THIS_OUTSIDE: &str = "`this` outside method";

/// The mutable state a fused block executes against: the function's
/// register window plus the program environment and accounting channels.
pub struct NativeFrame<'a> {
    /// Exactly `num_regs` slots of the running function's frame.
    regs: &'a mut [Value],
    env: &'a mut ProgramEnv,
    sink: &'a mut OpSink,
    fuel: &'a mut u64,
    this: Option<Value>,
    lock_base: LockId,
    lock_capacity: usize,
    /// Error slot: set by the failing kernel right before returning
    /// [`ERR`]; errors are rare, so they stay off the return path.
    err: Option<RuntimeError>,
}

impl NativeFrame<'_> {
    #[inline(always)]
    fn rd(&self, r: usize) -> Value {
        // SAFETY: `compile_native` validated every operand index against
        // `num_regs`, and the executor always passes a window of exactly
        // `num_regs` registers.
        unsafe { *self.regs.get_unchecked(r) }
    }

    #[inline(always)]
    fn wr(&mut self, r: usize, v: Value) {
        // SAFETY: as in `rd`.
        unsafe { *self.regs.get_unchecked_mut(r) = v }
    }

    #[cold]
    fn fail(&mut self, e: RuntimeError) -> u32 {
        self.err = Some(e);
        ERR
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
}

/// Read an operand inside a kernel body. Returns through
/// [`NativeFrame::fail`] on a missing receiver; the front end rejects
/// `this` outside methods, so that arm is defensive only.
macro_rules! rdop {
    ($fr:expr, $o:expr) => {
        match $o {
            Operand::Reg(r) => $fr.rd(r),
            Operand::Imm(v) => v,
            Operand::This => match $fr.this {
                Some(v) => v,
                None => return $fr.fail(RuntimeError::new(THIS_OUTSIDE)),
            },
        }
    };
}

/// One fused kernel chain (a whole basic block).
type Kernel = Box<dyn Fn(&mut NativeFrame<'_>) -> u32 + Send + Sync>;

/// A fused fuel debit attached to the front of a kernel: `(n, n ×
/// node_cost)`, or `None` when the kernel runs uncharged.
type ChargePrologue = Option<(u32, Duration)>;

/// A value source resolved by the block-local optimizer: a register, a
/// compile-time constant, or the frame's receiver. The register file is
/// unobservable outside the tier (the contract covers steps, heap,
/// globals, results, and errors), which is what licenses rewriting
/// register reads into these.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Operand {
    Reg(usize),
    Imm(Value),
    This,
}

/// A binary operand: a resolved source, or (after field fusion) a field
/// of the object an operand holds.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Arg {
    Op(Operand),
    Field { obj: Operand, field: usize },
}

/// Micro-op: one [`Insn`] after operand resolution. Terminators are
/// represented separately as [`MExit`]s.
enum MOp {
    Charge(u32),
    /// Surviving `Move`/`Const`/`LoadThis` writes (most are deleted as
    /// dead stores).
    SetReg {
        dst: usize,
        src: Operand,
    },
    LoadGlobal {
        dst: usize,
        g: usize,
    },
    StoreGlobal {
        g: usize,
        src: Operand,
    },
    FieldGet {
        dst: usize,
        obj: Operand,
        field: usize,
    },
    FieldSet {
        obj: Operand,
        field: usize,
        src: Operand,
    },
    IndexGet {
        dst: usize,
        arr: Operand,
        idx: Operand,
    },
    IndexSet {
        arr: Operand,
        idx: Operand,
        src: Operand,
    },
    ArrayLen {
        dst: usize,
        arr: Operand,
    },
    /// Operands are [`Arg::Op`] until field fusion folds loads in.
    Binary {
        dst: usize,
        op: BinOp,
        ty: OpTy,
        lhs: Arg,
        rhs: Arg,
    },
    /// `obj.set = lhs op rhs` where one operand reads a field of `obj`:
    /// the read-modify-write superinstruction.
    FieldRmw {
        obj: Operand,
        set: usize,
        op: BinOp,
        ty: OpTy,
        lhs: Arg,
        rhs: Arg,
    },
    Unary {
        dst: usize,
        op: UnOp,
        ty: OpTy,
        src: Operand,
    },
    IntToDouble {
        dst: usize,
        src: Operand,
    },
    CheckInt {
        src: Operand,
    },
    CheckRecv {
        obj: Operand,
        func: usize,
    },
    CallHost {
        dst: usize,
        ext: usize,
        args: Vec<Operand>,
    },
    NewObj {
        dst: usize,
        class: usize,
    },
    NewArr {
        dst: usize,
        len: Operand,
        default: Value,
    },
    LockAcquire {
        obj: Operand,
    },
    LockRelease {
        obj: Operand,
    },
}

impl MOp {
    /// The register this op definitely writes (error exits abort the
    /// whole run, so treating fallible writers as definite defs is sound
    /// for the backward dead-store walk).
    fn def_reg(&self) -> Option<usize> {
        match self {
            MOp::SetReg { dst, .. }
            | MOp::LoadGlobal { dst, .. }
            | MOp::FieldGet { dst, .. }
            | MOp::IndexGet { dst, .. }
            | MOp::ArrayLen { dst, .. }
            | MOp::Binary { dst, .. }
            | MOp::Unary { dst, .. }
            | MOp::IntToDouble { dst, .. }
            | MOp::CallHost { dst, .. }
            | MOp::NewObj { dst, .. }
            | MOp::NewArr { dst, .. } => Some(*dst),
            _ => None,
        }
    }

    fn for_each_use(&self, f: &mut dyn FnMut(usize)) {
        let mut op = |o: &Operand| {
            if let Operand::Reg(r) = o {
                f(*r);
            }
        };
        match self {
            MOp::Charge(_) | MOp::LoadGlobal { .. } | MOp::NewObj { .. } => {}
            MOp::SetReg { src, .. }
            | MOp::StoreGlobal { src, .. }
            | MOp::Unary { src, .. }
            | MOp::IntToDouble { src, .. }
            | MOp::CheckInt { src } => op(src),
            MOp::FieldGet { obj, .. }
            | MOp::CheckRecv { obj, .. }
            | MOp::LockAcquire { obj }
            | MOp::LockRelease { obj } => op(obj),
            MOp::FieldSet { obj, src, .. } => {
                op(obj);
                op(src);
            }
            MOp::IndexGet { arr, idx, .. } => {
                op(arr);
                op(idx);
            }
            MOp::IndexSet { arr, idx, src } => {
                op(arr);
                op(idx);
                op(src);
            }
            MOp::ArrayLen { arr, .. } => op(arr),
            MOp::Binary { lhs, rhs, .. } | MOp::FieldRmw { lhs, rhs, .. } => {
                for a in [lhs, rhs] {
                    match a {
                        Arg::Op(o) | Arg::Field { obj: o, .. } => op(o),
                    }
                }
            }
            MOp::CallHost { args, .. } => {
                for a in args {
                    op(a);
                }
            }
            MOp::NewArr { len, .. } => op(len),
        }
    }
}

/// Block terminator after operand resolution.
enum MExit {
    Jump {
        target: u32,
    },
    /// `JumpIfFalse`: go to `fall` when the condition is exactly
    /// `Bool(true)`, else to `taken`.
    Branch {
        cond: Operand,
        taken: u32,
        fall: u32,
    },
    Return {
        src: Operand,
    },
    Call {
        func: usize,
        dst: usize,
        args: Vec<Operand>,
        recv: Option<Operand>,
        next: u32,
    },
}

impl MExit {
    fn successors(&self, f: &mut dyn FnMut(u32)) {
        match self {
            MExit::Jump { target } => f(*target),
            MExit::Branch { taken, fall, .. } => {
                f(*taken);
                f(*fall);
            }
            MExit::Return { .. } => {}
            MExit::Call { next, .. } => f(*next),
        }
    }

    fn retarget(&mut self, f: impl Fn(u32) -> u32) {
        match self {
            MExit::Jump { target: t } | MExit::Call { next: t, .. } => *t = f(*t),
            MExit::Branch { taken, fall, .. } => {
                *taken = f(*taken);
                *fall = f(*fall);
            }
            MExit::Return { .. } => {}
        }
    }

    /// The call result write happens after every exit read, so it is the
    /// block's last def.
    fn def_reg(&self) -> Option<usize> {
        match self {
            MExit::Call { dst, .. } => Some(*dst),
            _ => None,
        }
    }

    fn for_each_use(&self, f: &mut dyn FnMut(usize)) {
        let mut op = |o: &Operand| {
            if let Operand::Reg(r) = o {
                f(*r);
            }
        };
        match self {
            MExit::Jump { .. } => {}
            MExit::Branch { cond, .. } => op(cond),
            MExit::Return { src } => op(src),
            MExit::Call { args, recv, .. } => {
                for a in args {
                    op(a);
                }
                if let Some(r0) = recv {
                    op(r0);
                }
            }
        }
    }
}

/// What the block-local forward pass knows a register to hold.
#[derive(Clone, Copy)]
enum Val {
    Unknown,
    Imm(Value),
    This,
    /// Copy of `src` as of generation `gen`; stale once `src` is
    /// redefined.
    Copy {
        src: usize,
        gen: u64,
    },
}

/// Forward value-propagation state (copy/const/`this` tracking with
/// generation counters for invalidation). One instance serves every block
/// of a compile: a register last defined at or before `base`, the clock
/// when the current block began, holds nothing this block knows about.
#[derive(Default)]
struct Prop {
    vals: Vec<Val>,
    gens: Vec<u64>,
    clock: u64,
    base: u64,
}

impl Prop {
    /// Forget every fact (in O(1)) and cover `num_regs` registers.
    fn begin_block(&mut self, num_regs: usize) {
        if self.vals.len() < num_regs {
            self.vals.resize(num_regs, Val::Unknown);
            self.gens.resize(num_regs, 0);
        }
        self.base = self.clock;
    }

    /// The best source for reading `reg` right now.
    fn resolve(&self, reg: usize) -> Operand {
        if self.gens[reg] <= self.base {
            return Operand::Reg(reg);
        }
        match self.vals[reg] {
            Val::Imm(v) => Operand::Imm(v),
            Val::This => Operand::This,
            Val::Copy { src, gen } if self.gens[src] == gen => Operand::Reg(src),
            _ => Operand::Reg(reg),
        }
    }

    fn def(&mut self, reg: usize, v: Val) {
        self.clock += 1;
        self.gens[reg] = self.clock;
        self.vals[reg] = v;
    }

    fn def_from(&mut self, reg: usize, o: Operand) {
        let v = match o {
            Operand::Imm(v) => Val::Imm(v),
            Operand::This => Val::This,
            Operand::Reg(s) => Val::Copy { src: s, gen: self.gens[s] },
        };
        self.def(reg, v);
    }
}

/// `rows` register sets of `w` words each in one flat buffer (one row per
/// block for the liveness fixpoint).
#[derive(Default)]
struct Sets {
    w: usize,
    bits: Vec<u64>,
}

impl Sets {
    fn reset(&mut self, rows: usize, w: usize) {
        self.w = w;
        self.bits.clear();
        self.bits.resize(rows * w, 0);
    }

    fn row(&self, b: usize) -> &[u64] {
        &self.bits[b * self.w..(b + 1) * self.w]
    }

    fn row_mut(&mut self, b: usize) -> &mut [u64] {
        let w = self.w;
        &mut self.bits[b * w..(b + 1) * w]
    }
}

fn has(set: &[u64], i: usize) -> bool {
    set[i / 64] & (1 << (i % 64)) != 0
}

fn add(set: &mut [u64], i: usize) {
    set[i / 64] |= 1 << (i % 64);
}

fn remove(set: &mut [u64], i: usize) {
    set[i / 64] &= !(1 << (i % 64));
}

/// Compile-time-constant exit payload of one block, consulted by the
/// executor when the block's chain returns a sentinel.
enum ExitDesc {
    /// The chain returns successor block indices directly.
    Jump,
    /// The chain returns [`RET`]; the return value comes from this source.
    Return { src: Operand },
    /// The chain returns [`CALLX`]; call `func` and resume at `next`. The
    /// executor gathers arguments straight from their resolved sources,
    /// so the lowering's staging moves die as dead stores.
    Call { func: usize, dst: usize, args: Box<[Operand]>, recv: Option<Operand>, next: u32 },
}

struct NativeBlock {
    enter: Kernel,
    exit: ExitDesc,
}

/// A natively compiled function: its basic blocks as fused closures.
#[derive(Clone)]
pub struct NativeFunc {
    name: String,
    num_params: usize,
    local_defaults: Vec<Value>,
    /// Frame size: the function's registers plus room for the callee
    /// frames spliced into it.
    num_regs: usize,
    /// The compiled blocks, shared by every module that reuses this
    /// function's code (see [`compile_native_reusing`]). The table sits
    /// behind one `Arc` inside an inline `NativeFunc`, so a call costs no
    /// more pointer hops than with an owned table.
    blocks: Arc<[NativeBlock]>,
}

/// A natively compiled function table. Indices match the source
/// [`VmModule`], so `FuncId`s translate directly.
pub struct NativeModule {
    funcs: Vec<NativeFunc>,
    /// The cost model baked into the kernels' charges.
    cost: CostModel,
}

impl NativeModule {
    /// Number of functions (the source module's length).
    #[must_use]
    pub fn num_funcs(&self) -> usize {
        self.funcs.len()
    }

    /// Whether function `i` of `self` and function `j` of `other` run the
    /// same compiled block table (one was reused for the other, or both
    /// from a common base).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[must_use]
    pub fn shares_code(&self, i: usize, other: &NativeModule, j: usize) -> bool {
        Arc::ptr_eq(&self.funcs[i].blocks, &other.funcs[j].blocks)
    }
}

impl fmt::Debug for NativeModule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut d = f.debug_struct("NativeModule");
        for func in &self.funcs {
            d.field(&func.name, &format_args!("{} blocks", func.blocks.len()));
        }
        d.finish()
    }
}

fn fuel_exhausted() -> RuntimeError {
    RuntimeError::new("evaluation fuel exhausted (runaway loop?)")
}

/// Compile a lowered module into fused-closure form.
///
/// Shareable (`Arc`) because compiled apps clone their per-version code
/// but the fused closures are immutable once built.
///
/// # Panics
///
/// Panics when the bytecode violates a lowering invariant (an operand
/// outside the register file, a jump into the middle of a block, a
/// function not terminated by `Return`). The lowerer never emits such
/// code; the checks are what license unchecked register access at run
/// time.
#[must_use]
pub fn compile_native(module: &VmModule, cost: &CostModel) -> Arc<NativeModule> {
    compile_native_reusing(module, cost, &[])
}

/// Compile `module`, reusing compiled code from `bases` (pairs of a
/// source module and its compiled form) for every function that would
/// compile to the same closures: the function at the same index is
/// identical in both sources, every callee it inlines is identical too,
/// and every other callee it names has the same name and arity in both.
/// The first matching base wins; everything else is compiled afresh, so
/// the result runs exactly like [`compile_native`]`(module, cost)`.
///
/// A multi-version build compiles its serial module first and every
/// policy version against it and the versions before it, so each distinct
/// function is compiled once.
///
/// # Panics
///
/// Panics when a base was compiled under another cost model, and under
/// the conditions of [`compile_native`].
#[must_use]
pub fn compile_native_reusing(
    module: &VmModule,
    cost: &CostModel,
    bases: &[(&VmModule, &NativeModule)],
) -> Arc<NativeModule> {
    for (src, base) in bases {
        assert_eq!(src.funcs.len(), base.funcs.len(), "a base is a module and its compiled form");
        assert_eq!(base.cost, *cost, "reused kernels must charge the same cost model");
    }
    let leaves = leaf_flags(module);
    let base_leaves: Vec<Vec<bool>> = bases.iter().map(|(src, _)| leaf_flags(src)).collect();
    let mut scratch = Scratch::default();
    let funcs = module
        .funcs
        .iter()
        .enumerate()
        .map(|(i, f)| {
            let base = bases.iter().zip(&base_leaves).find_map(|((src, base), bl)| {
                same_compiled_code((module, &leaves), (src, bl), i).then_some(base)
            });
            match base {
                Some(base) => base.funcs[i].clone(),
                None => compile_func(f, module, &leaves, cost, &mut scratch),
            }
        })
        .collect();
    Arc::new(NativeModule { funcs, cost: *cost })
}

/// Whether function `i` compiles to the same closures in `a` as in `b`.
/// The lowered functions must be identical (constants compared by bits, so
/// `-0.0` differs from `0.0`), so must every callee either module would
/// inline (the caller's closures embed its body), and every other
/// `Call`/`CheckRecv` target must have the same name and arity in both:
/// the closures embed the callee's arity (argument gathering) and name
/// (null-receiver message). Each module comes with its [`leaf_flags`].
fn same_compiled_code(
    (a, a_leaves): (&VmModule, &[bool]),
    (b, b_leaves): (&VmModule, &[bool]),
    i: usize,
) -> bool {
    let (Some(f), Some(g)) = (a.funcs.get(i), b.funcs.get(i)) else {
        return false;
    };
    let same_callee = |func: u32| {
        let k = func as usize;
        match (a.funcs.get(k), b.funcs.get(k)) {
            (Some(x), Some(y)) if a_leaves[k] || b_leaves[k] => same_func(x, y),
            (Some(x), Some(y)) => x.name == y.name && x.num_params == y.num_params,
            _ => false,
        }
    };
    same_func(f, g)
        && f.code.iter().all(|x| match x {
            Insn::Call { func, .. } | Insn::CheckRecv { func, .. } => same_callee(*func),
            _ => true,
        })
}

/// Lowered-function equality with constants compared by bits.
fn same_func(f: &VmFunc, g: &VmFunc) -> bool {
    f.name == g.name
        && f.num_params == g.num_params
        && f.num_regs == g.num_regs
        && f.local_defaults.len() == g.local_defaults.len()
        && f.local_defaults.iter().zip(&g.local_defaults).all(|(x, y)| same_value(*x, *y))
        && f.code.len() == g.code.len()
        && f.code.iter().zip(&g.code).all(|(x, y)| same_insn(x, y))
}

/// Instruction equality with constants compared by bits. `Const` and
/// `NewArr` are the only instructions that carry a [`Value`].
fn same_insn(a: &Insn, b: &Insn) -> bool {
    match (a, b) {
        (Insn::Const { dst, v }, Insn::Const { dst: d, v: w }) => dst == d && same_value(*v, *w),
        (Insn::NewArr { dst, len, default }, Insn::NewArr { dst: d, len: l, default: w }) => {
            dst == d && len == l && same_value(*default, *w)
        }
        _ => a == b,
    }
}

/// Value equality with doubles compared by bits.
fn same_value(a: Value, b: Value) -> bool {
    match (a, b) {
        (Value::Double(x), Value::Double(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

/// Per function of `m`: whether calls to it may be spliced into their
/// callers — small and call-free, hence never recursive.
fn leaf_flags(m: &VmModule) -> Vec<bool> {
    m.funcs
        .iter()
        .map(|g| {
            g.code.len() <= INLINE_MAX_INSNS
                && !g.code.iter().any(|i| matches!(i, Insn::Call { .. }))
        })
        .collect()
}

/// The callee `insn` is spliced from, if it is a call to a leaf (per
/// `leaves`) whose frame fits above a `caller_regs`-register frame. A free
/// function that reads `this` keeps its call, and with it the run-time
/// error.
fn inline_site<'m>(
    insn: &Insn,
    caller_regs: usize,
    module: &'m VmModule,
    leaves: &[bool],
) -> Option<&'m VmFunc> {
    let Insn::Call { func, recv, .. } = insn else {
        return None;
    };
    let k = *func as usize;
    let g = &module.funcs[k];
    let this_ok = *recv != NO_REG || !g.code.iter().any(|i| matches!(i, Insn::LoadThis { .. }));
    (leaves[k] && this_ok && caller_regs + g.num_regs < usize::from(NO_REG)).then_some(g)
}

/// Write `f`'s code with every inlinable call spliced in (module docs,
/// "Leaf inlining") to `out` and return the frame size it needs, or return
/// `None` without touching `out` when `f` has no such call.
fn inline_leaves(
    f: &VmFunc,
    module: &VmModule,
    leaves: &[bool],
    out: &mut Vec<Insn>,
) -> Option<usize> {
    let site = |i: &Insn| inline_site(i, f.num_regs, module, leaves);
    if !f.code.iter().any(|i| site(i).is_some()) {
        return None;
    }
    let at = |i: usize| u32::try_from(i).expect("code fits u32");
    // Every spliced callee frame starts right above the caller's frame.
    let off = f.num_regs;
    let callee_reg = |r: usize| Reg::try_from(r + off).expect("checked by inline_site");
    out.clear();
    let mut num_regs = off;
    // `pos[i]`: where the caller's instruction `i` landed in `out`.
    let mut pos = Vec::with_capacity(f.code.len() + 1);
    let mut jumps = Vec::new();
    let mut cpos = Vec::new();
    let mut inner = Vec::new();
    let mut returns = Vec::new();
    for insn in &f.code {
        pos.push(out.len());
        let (Some(g), &Insn::Call { dst, base, recv, .. }) = (site(insn), insn) else {
            if matches!(insn, Insn::Jump { .. } | Insn::JumpIfFalse { .. }) {
                jumps.push(out.len());
            }
            out.push(insn.clone());
            continue;
        };
        num_regs = num_regs.max(off + g.num_regs);
        // A fresh callee frame: the arguments, then the other locals'
        // defaults.
        for k in 0..g.num_params {
            let src = Reg::try_from(usize::from(base) + k).expect("argument register");
            out.push(Insn::Move { dst: callee_reg(k), src });
        }
        for (k, v) in g.local_defaults.iter().enumerate().skip(g.num_params) {
            out.push(Insn::Const { dst: callee_reg(k), v: *v });
        }
        cpos.clear();
        inner.clear();
        returns.clear();
        for (j, ci) in g.code.iter().enumerate() {
            cpos.push(out.len());
            match *ci {
                Insn::Return { src } => {
                    out.push(Insn::Move { dst, src: callee_reg(usize::from(src)) });
                    // The last `Return` falls through to the continuation.
                    if j + 1 < g.code.len() {
                        returns.push(out.len());
                        out.push(Insn::Jump { target: u32::MAX });
                    }
                }
                Insn::Jump { .. } | Insn::JumpIfFalse { .. } => {
                    inner.push(out.len());
                    out.push(relocate(ci, off, recv));
                }
                _ => out.push(relocate(ci, off, recv)),
            }
        }
        cpos.push(out.len());
        for &k in &inner {
            retarget(&mut out[k], |t| at(cpos[t as usize]));
        }
        let cont = at(out.len());
        for &k in &returns {
            retarget(&mut out[k], |_| cont);
        }
    }
    pos.push(out.len());
    for k in jumps {
        retarget(&mut out[k], |t| at(pos[t as usize]));
    }
    Some(num_regs)
}

fn retarget(insn: &mut Insn, f: impl Fn(u32) -> u32) {
    if let Insn::Jump { target } | Insn::JumpIfFalse { target, .. } = insn {
        *target = f(*target);
    }
}

/// A callee instruction moved into a caller frame: registers shift by
/// `off` and `LoadThis` reads the call's receiver register.
fn relocate(insn: &Insn, off: usize, recv: Reg) -> Insn {
    let s = |r: Reg| Reg::try_from(usize::from(r) + off).expect("checked by inline_site");
    match *insn {
        Insn::Charge(n) => Insn::Charge(n),
        Insn::Const { dst, v } => Insn::Const { dst: s(dst), v },
        Insn::Move { dst, src } => Insn::Move { dst: s(dst), src: s(src) },
        Insn::LoadThis { dst } => Insn::Move { dst: s(dst), src: recv },
        Insn::LoadGlobal { dst, g } => Insn::LoadGlobal { dst: s(dst), g },
        Insn::StoreGlobal { g, src } => Insn::StoreGlobal { g, src: s(src) },
        Insn::FieldGet { dst, obj, field } => Insn::FieldGet { dst: s(dst), obj: s(obj), field },
        Insn::FieldSet { obj, field, src } => Insn::FieldSet { obj: s(obj), field, src: s(src) },
        Insn::IndexGet { dst, arr, idx } => {
            Insn::IndexGet { dst: s(dst), arr: s(arr), idx: s(idx) }
        }
        Insn::IndexSet { arr, idx, src } => {
            Insn::IndexSet { arr: s(arr), idx: s(idx), src: s(src) }
        }
        Insn::ArrayLen { dst, arr } => Insn::ArrayLen { dst: s(dst), arr: s(arr) },
        Insn::Binary { dst, op, ty, lhs, rhs } => {
            Insn::Binary { dst: s(dst), op, ty, lhs: s(lhs), rhs: s(rhs) }
        }
        Insn::Unary { dst, op, ty, src } => Insn::Unary { dst: s(dst), op, ty, src: s(src) },
        Insn::IntToDouble { dst, src } => Insn::IntToDouble { dst: s(dst), src: s(src) },
        Insn::CheckInt { src } => Insn::CheckInt { src: s(src) },
        Insn::CheckRecv { obj, func } => Insn::CheckRecv { obj: s(obj), func },
        Insn::Jump { target } => Insn::Jump { target },
        Insn::JumpIfFalse { cond, target } => Insn::JumpIfFalse { cond: s(cond), target },
        Insn::CallHost { dst, ext, base, argc } => {
            Insn::CallHost { dst: s(dst), ext, base: s(base), argc }
        }
        Insn::NewObj { dst, class } => Insn::NewObj { dst: s(dst), class },
        Insn::NewArr { dst, len, default } => Insn::NewArr { dst: s(dst), len: s(len), default },
        Insn::LockAcquire { obj } => Insn::LockAcquire { obj: s(obj) },
        Insn::LockRelease { obj } => Insn::LockRelease { obj: s(obj) },
        Insn::Return { src } => Insn::Return { src: s(src) },
        Insn::Call { .. } => unreachable!("inlined callees are call-free"),
    }
}

/// Debit `n` fuel units and `total` compute, bisecting exactly at the
/// fuel boundary: on exhaustion the sink records only the consumed fuel
/// (matching the per-node tree-walker bit-for-bit) and the frame holds the
/// error.
#[inline(always)]
fn debit(fr: &mut NativeFrame<'_>, n: u32, total: Duration, node_cost: Duration) -> bool {
    let need = u64::from(n);
    if need > *fr.fuel {
        exhaust(fr, node_cost);
        return false;
    }
    *fr.fuel -= need;
    fr.sink.compute(total);
    true
}

#[cold]
fn exhaust(fr: &mut NativeFrame<'_>, node_cost: Duration) {
    let used = u32::try_from(*fr.fuel).expect("fuel < n <= u32::MAX");
    fr.sink.compute_batch(node_cost, used);
    *fr.fuel = 0;
    fr.err = Some(fuel_exhausted());
}

/// Boxing helper with an optional fused charge prologue: when `ch` is
/// `Some((n, total))` the kernel debits `n` fuel units (bisecting exactly
/// at the fuel boundary) before running `f`. Folding the charge into its
/// successor kernel this way removes one boxed call per `Insn::Charge`
/// without touching the sink-visible debit sequence.
fn kch(
    ch: ChargePrologue,
    node_cost: Duration,
    f: impl Fn(&mut NativeFrame<'_>) -> u32 + Send + Sync + 'static,
) -> Kernel {
    match ch {
        None => Box::new(f),
        Some((n, total)) => {
            Box::new(move |fr| if debit(fr, n, total, node_cost) { f(fr) } else { ERR })
        }
    }
}

/// Per-compile scratch: every block of every function a
/// [`compile_native_reusing`] call compiles reuses these buffers, so the
/// compiler allocates per kernel, not per block.
#[derive(Default)]
struct Scratch {
    /// `f`'s code with its leaf calls spliced in.
    spliced: Vec<Insn>,
    is_leader: Vec<bool>,
    starts: Vec<usize>,
    block_of: Vec<u32>,
    prop: Prop,
    /// Every block's micro-ops; block `b`'s are
    /// `ops[op_start[b]..op_start[b + 1]]`.
    ops: Vec<MOp>,
    op_start: Vec<usize>,
    /// Per op: bit `k` is set when its `k`-th register use (in
    /// `for_each_use` order) is the register's last read.
    kills: Vec<u32>,
    keep: Vec<bool>,
    exits: Vec<MExit>,
    ue: Sets,
    defs: Sets,
    live_in: Sets,
    live_out: Sets,
    needed: Vec<u64>,
    forward: Vec<u32>,
    entries: Vec<Entry>,
    fused: Vec<(ChargePrologue, Option<MOp>)>,
}

/// One straight-line kernel to build: its charge prologue, its op (`None`
/// for a bare charge) and the op's kill bits.
type Entry = (ChargePrologue, Option<MOp>, u32);

#[allow(clippy::too_many_lines)]
fn compile_func(
    f: &VmFunc,
    module: &VmModule,
    leaves: &[bool],
    cost: &CostModel,
    s: &mut Scratch,
) -> NativeFunc {
    let Scratch {
        spliced,
        is_leader,
        starts,
        block_of,
        prop,
        ops,
        op_start,
        kills,
        keep,
        exits,
        ue,
        defs,
        live_in,
        live_out,
        needed,
        forward,
        entries,
        fused,
    } = s;
    let (code, num_regs) = match inline_leaves(f, module, leaves, spliced) {
        Some(num_regs) => (&spliced[..], num_regs),
        None => (&f.code[..], f.num_regs),
    };
    let n = code.len();
    assert!(
        matches!(code.last(), Some(Insn::Return { .. })),
        "`{}`: function must end in Return",
        f.name
    );

    // Validate every register operand once; run-time access is unchecked.
    let r = |reg: Reg| -> usize {
        let i = usize::from(reg);
        assert!(i < num_regs, "`{}`: register {i} outside frame of {num_regs}", f.name);
        i
    };

    // Block leaders: entry, jump targets, and the instruction after every
    // terminator. Calls left after inlining terminate blocks too — the
    // executor must re-window the register stack around the callee frame.
    is_leader.clear();
    is_leader.resize(n + 1, false);
    is_leader[0] = true;
    for (i, insn) in code.iter().enumerate() {
        match insn {
            Insn::Jump { target } | Insn::JumpIfFalse { target, .. } => {
                is_leader[*target as usize] = true;
                is_leader[i + 1] = true;
            }
            Insn::Return { .. } | Insn::Call { .. } => is_leader[i + 1] = true,
            _ => {}
        }
    }
    starts.clear();
    block_of.clear();
    block_of.resize(n + 1, u32::MAX);
    for i in 0..n {
        if is_leader[i] {
            starts.push(i);
        }
        block_of[i] = u32::try_from(starts.len() - 1).expect("block count fits u32");
    }
    block_of[n] = u32::try_from(starts.len()).expect("fits"); // one-past-the-end

    let node_cost = cost.node;
    let extern_default = cost.extern_default;
    let nb = starts.len();

    // ---- pass 1: block-local value propagation → micro-ops ----
    //
    // Within one block, track what each register holds (constant, copy of
    // another register, the receiver) and resolve every read to its best
    // source. Reads become `Operand`s; constant subexpressions fold.
    ops.clear();
    op_start.clear();
    exits.clear();
    for (b, &start) in starts.iter().enumerate() {
        let end = starts.get(b + 1).copied().unwrap_or(n);
        let last = end - 1;
        let in_range = |t: u32| (t as usize) < nb;
        let terminator = matches!(
            code[last],
            Insn::Jump { .. } | Insn::JumpIfFalse { .. } | Insn::Return { .. } | Insn::Call { .. }
        );
        let body_end = if terminator { last } else { end };

        op_start.push(ops.len());
        prop.begin_block(num_regs);
        for insn in &code[start..body_end] {
            propagate(insn, prop, ops, &r, num_regs, &f.name);
        }
        let exit: MExit = if terminator {
            match &code[last] {
                Insn::Jump { target } => {
                    assert!(is_leader[*target as usize], "jump into mid-block");
                    MExit::Jump { target: block_of[*target as usize] }
                }
                Insn::JumpIfFalse { cond, target } => {
                    assert!(is_leader[*target as usize], "branch into mid-block");
                    let taken = block_of[*target as usize];
                    let fall = block_of[end];
                    assert!(in_range(fall), "`{}`: branch falls off the end", f.name);
                    match prop.resolve(r(*cond)) {
                        // A constant condition decides the branch now.
                        Operand::Imm(v) => MExit::Jump {
                            target: if matches!(v, Value::Bool(true)) { fall } else { taken },
                        },
                        cond => MExit::Branch { cond, taken, fall },
                    }
                }
                Insn::Return { src } => MExit::Return { src: prop.resolve(r(*src)) },
                Insn::Call { dst, func, base, recv } => {
                    let callee = *func as usize;
                    let cf = &module.funcs[callee];
                    // The argument window may sit at the very end of the
                    // frame when it is empty, so validate the span, not
                    // the base.
                    let abase = usize::from(*base);
                    assert!(
                        abase + cf.num_params <= num_regs,
                        "`{}`: argument block outside frame",
                        f.name
                    );
                    let next = block_of[end];
                    assert!(in_range(next), "`{}`: call falls off the end", f.name);
                    MExit::Call {
                        func: callee,
                        dst: r(*dst),
                        // Gathering arguments straight from their sources
                        // usually turns the staging `Move`s into dead
                        // stores, which pass 3 then deletes.
                        args: (0..cf.num_params).map(|i| prop.resolve(abase + i)).collect(),
                        recv: if *recv == NO_REG { None } else { Some(prop.resolve(r(*recv))) },
                        next,
                    }
                }
                _ => unreachable!("terminator match is exhaustive"),
            }
        } else {
            // Fall-through into the next leader (e.g. a loop head).
            let next = block_of[end];
            assert!(in_range(next), "`{}`: block falls off the end", f.name);
            MExit::Jump { target: next }
        };
        exits.push(exit);
    }
    op_start.push(ops.len());

    // ---- pass 2: register liveness across blocks ----
    let w = num_regs.div_ceil(64);
    ue.reset(nb, w);
    defs.reset(nb, w);
    for b in 0..nb {
        let (u, d) = (ue.row_mut(b), defs.row_mut(b));
        for opn in &ops[op_start[b]..op_start[b + 1]] {
            opn.for_each_use(&mut |r0| {
                if !has(d, r0) {
                    add(u, r0);
                }
            });
            if let Some(dr) = opn.def_reg() {
                add(d, dr);
            }
        }
        exits[b].for_each_use(&mut |r0| {
            if !has(d, r0) {
                add(u, r0);
            }
        });
        if let Some(dr) = exits[b].def_reg() {
            add(d, dr);
        }
    }
    live_in.reset(nb, w);
    live_out.reset(nb, w);
    loop {
        // Only `live_in` changes need another round: `live_out` is
        // recomputed from it.
        let mut changed = false;
        for b in (0..nb).rev() {
            let out = live_out.row_mut(b);
            exits[b].successors(&mut |t| {
                for (o, i) in out.iter_mut().zip(live_in.row(t as usize)) {
                    *o |= i;
                }
            });
            let (out, d, u) = (live_out.row(b), defs.row(b), ue.row(b));
            let inn = live_in.row_mut(b);
            for k in 0..w {
                let v = (out[k] & !d[k]) | u[k];
                if v != inn[k] {
                    inn[k] = v;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    // ---- pass 3: dead-store elimination, recording last reads ----
    //
    // `SetReg` is the only pure op (the front end rejects `this` outside
    // methods, so `LoadThis` cannot fail in compiled programs); one whose
    // destination is not read again before being redefined is deleted.
    // The same backward walk marks each surviving op's last reads of a
    // register (`kills`), which tells pass 5 where a fused register write
    // may be dropped.
    kills.clear();
    kills.resize(ops.len(), 0);
    keep.clear();
    keep.resize(ops.len(), true);
    needed.clear();
    needed.resize(w, 0);
    for b in 0..nb {
        needed.copy_from_slice(live_out.row(b));
        if let Some(d) = exits[b].def_reg() {
            remove(needed, d);
        }
        exits[b].for_each_use(&mut |r0| add(needed, r0));
        for i in (op_start[b]..op_start[b + 1]).rev() {
            let opn = &ops[i];
            if let MOp::SetReg { dst, src } = opn {
                if !has(needed, *dst) || *src == Operand::Reg(*dst) {
                    keep[i] = false;
                    continue;
                }
            }
            if let Some(d) = opn.def_reg() {
                remove(needed, d);
            }
            let (mut bit, mut kill) = (1u32, 0u32);
            opn.for_each_use(&mut |r0| {
                if !has(needed, r0) {
                    kill |= bit;
                }
                bit <<= 1;
            });
            opn.for_each_use(&mut |r0| add(needed, r0));
            kills[i] = kill;
        }
    }
    let mut kept = 0;
    for b in 0..nb {
        let (lo, hi) = (op_start[b], op_start[b + 1]);
        op_start[b] = kept;
        kept += keep[lo..hi].iter().filter(|k| **k).count();
    }
    op_start[nb] = kept;
    let mut it = keep.iter();
    ops.retain(|_| *it.next().expect("keep mask covers ops"));
    let mut it = keep.iter();
    kills.retain(|_| *it.next().expect("keep mask covers ops"));

    // ---- pass 4: jump threading ----
    //
    // A block left with no ops and a plain jump forwards control and
    // nothing else, so every edge into it goes straight on to its target
    // (chains followed; a cycle of such blocks is left alone).
    let stub = |b: usize| match exits[b] {
        MExit::Jump { target } if op_start[b] == op_start[b + 1] => Some(target),
        _ => None,
    };
    forward.clear();
    forward.extend((0..nb).map(|b| {
        let mut t = u32::try_from(b).expect("block count fits u32");
        for _ in 0..nb {
            match stub(t as usize) {
                Some(next) => t = next,
                None => break,
            }
        }
        t
    }));
    for exit in exits.iter_mut() {
        exit.retarget(|t| forward[t as usize]);
    }

    // ---- pass 5: charge folding, fusion, kernel chaining ----
    //
    // Each charge becomes its successor kernel's prologue (adjacent
    // charges — separated only by deleted stores — merge first, which is
    // step-equivalent because the sink merges consecutive computes and
    // the bisected debit totals are identical). Field loads fuse into
    // their consumers and a closing comparison into the branch (module
    // docs). Then the straight-line kernels fuse back-to-front onto the
    // exit, so each kernel tail-calls its successor through a private
    // call site.
    let mut blocks: Vec<NativeBlock> = Vec::with_capacity(nb);
    let mut op_iter = ops.drain(..);
    for (b, exit) in exits.drain(..).enumerate() {
        let (lo, hi) = (op_start[b], op_start[b + 1]);
        entries.clear();
        let mut exit_charge: ChargePrologue = None;
        let mut body = op_iter.by_ref().take(hi - lo).zip(kills[lo..hi].iter().copied()).peekable();
        while let Some((opn, kill)) = body.next() {
            let MOp::Charge(mut total) = opn else {
                entries.push((None, Some(opn), kill));
                continue;
            };
            while let Some((MOp::Charge(m), _)) = body.peek() {
                match total.checked_add(*m) {
                    Some(s) => {
                        total = s;
                        body.next();
                    }
                    None => break,
                }
            }
            let ch = Some((total, node_cost * total));
            match body.next_if(|(o, _)| !matches!(o, MOp::Charge(_))) {
                Some((o, k)) => entries.push((ch, Some(o), k)),
                None if body.peek().is_none() => exit_charge = ch,
                // Only reachable on u32 charge overflow: keep a bare
                // charge kernel rather than merging further.
                None => entries.push((ch, None, 0)),
            }
        }
        fused.clear();
        fuse_fields(entries, fused);

        let cmp_branch = match (&exit, fused.last()) {
            (
                MExit::Branch { cond: Operand::Reg(c), .. },
                Some((_, Some(MOp::Binary { dst, op, ty, .. }))),
            ) => dst == c && kind(*ty, *op) == Some(Kind::Cmp),
            _ => false,
        };
        let (mut chain, desc): (Kernel, ExitDesc) = match exit {
            MExit::Jump { target } => {
                (kch(exit_charge, node_cost, move |_| target), ExitDesc::Jump)
            }
            MExit::Branch { taken, fall, .. } if cmp_branch => {
                let Some((ch, Some(MOp::Binary { dst, op, ty, lhs, rhs }))) = fused.pop() else {
                    unreachable!("checked above")
                };
                // The comparison's own write survives only if a successor
                // reads it.
                let dst = has(live_out.row(b), dst).then_some(dst);
                let tail = BranchTail { dst, charge: exit_charge, node_cost, taken, fall };
                (cmp_kernel(ty, op, lhs, rhs, ch, node_cost, tail), ExitDesc::Jump)
            }
            MExit::Branch { cond, taken, fall } => (
                kch(exit_charge, node_cost, move |fr| {
                    if matches!(rdop!(fr, cond), Value::Bool(true)) {
                        fall
                    } else {
                        taken
                    }
                }),
                ExitDesc::Jump,
            ),
            MExit::Return { src } => {
                (kch(exit_charge, node_cost, move |_| RET), ExitDesc::Return { src })
            }
            MExit::Call { func, dst, args, recv, next } => (
                kch(exit_charge, node_cost, move |_| CALLX),
                ExitDesc::Call { func, dst, args: args.into_boxed_slice(), recv, next },
            ),
        };
        for (ch, opn) in fused.drain(..).rev() {
            chain = build_kernel(opn, ch, chain, node_cost, extern_default, module);
        }
        blocks.push(NativeBlock { enter: chain, exit: desc });
    }

    NativeFunc {
        name: f.name.clone(),
        num_params: f.num_params,
        local_defaults: f.local_defaults.clone(),
        num_regs,
        blocks: blocks.into(),
    }
}

/// Whether `opn` reads `reg` for the last time, from its kill bits.
fn dies(opn: &MOp, kill: u32, reg: usize) -> bool {
    let (mut bit, mut dead) = (1u32, false);
    opn.for_each_use(&mut |r0| {
        dead |= r0 == reg && kill & bit != 0;
        bit <<= 1;
    });
    dead
}

/// Move `entries` to `out`, folding every `FieldGet` that can fuse into
/// its consumer (module docs, "Typed kernels and superinstructions").
fn fuse_fields(entries: &mut [Entry], out: &mut Vec<(ChargePrologue, Option<MOp>)>) {
    let mut i = 0;
    while i < entries.len() {
        let ch = entries[i].0;
        match fused_at(&entries[i..]) {
            Some((opn, len)) => {
                out.push((ch, Some(opn)));
                i += len;
            }
            None => {
                out.push((ch, entries[i].1.take()));
                i += 1;
            }
        }
    }
}

/// The superinstruction starting at `e[0]`, if `e[0]` is a field load that
/// fuses, with the number of entries it replaces. Every fused entry after
/// the first must be uncharged, and each skipped register write must be
/// dead.
fn fused_at(e: &[Entry]) -> Option<(MOp, usize)> {
    let Some((_, Some(MOp::FieldGet { dst: t, obj, field }), _)) = e.first() else {
        return None;
    };
    let (t, obj, field) = (*t, *obj, *field);
    let next = |i: usize| match e.get(i) {
        Some((None, Some(opn), kill)) => Some((opn, *kill)),
        _ => None,
    };
    let loaded = Arg::Op(Operand::Reg(t));
    let load = Arg::Field { obj, field };

    // Two loads feeding one binary, in program order.
    if let (
        Some((MOp::FieldGet { dst: t2, obj: o2, field: f2 }, _)),
        Some((bin @ MOp::Binary { dst, op, ty, lhs, rhs }, bk)),
    ) = (next(1), next(2))
    {
        if kind(*ty, *op).is_some()
            && *lhs == loaded
            && *rhs == Arg::Op(Operand::Reg(*t2))
            && *t2 != t
            && *o2 != Operand::Reg(t)
            && dies(bin, bk, t)
            && dies(bin, bk, *t2)
        {
            let rhs = Arg::Field { obj: *o2, field: *f2 };
            return Some((MOp::Binary { dst: *dst, op: *op, ty: *ty, lhs: load, rhs }, 3));
        }
    }

    // One load feeding the next binary. A receiver read on the left would
    // move ahead of the load, so that shape stays unfused.
    let Some((bin @ MOp::Binary { dst: v, op, ty, lhs, rhs }, bk)) = next(1) else {
        return None;
    };
    if kind(*ty, *op).is_none() || !dies(bin, bk, t) {
        return None;
    }
    let (lhs, rhs) = match (*lhs == loaded, *rhs == loaded) {
        (true, false) => (load, *rhs),
        (false, true) if *lhs != Arg::Op(Operand::This) => (*lhs, load),
        _ => return None,
    };
    let (v, op, ty) = (*v, *op, *ty);
    // ... and its result stored back into the same object: the object
    // operand must still name that object at the store.
    if let Some((set @ MOp::FieldSet { obj: so, field: g, src: Operand::Reg(sv) }, sk)) = next(2) {
        if kind(ty, op) == Some(Kind::Arith)
            && *so == obj
            && *sv == v
            && obj != Operand::Reg(t)
            && obj != Operand::Reg(v)
            && dies(set, sk, v)
        {
            return Some((MOp::FieldRmw { obj, set: *g, op, ty, lhs, rhs }, 3));
        }
    }
    Some((MOp::Binary { dst: v, op, ty, lhs, rhs }, 2))
}

/// Lower one straight-line instruction to micro-ops, resolving its reads
/// against the propagation state and recording its write.
#[allow(clippy::too_many_lines)]
fn propagate(
    insn: &Insn,
    p: &mut Prop,
    out: &mut Vec<MOp>,
    r: &dyn Fn(Reg) -> usize,
    num_regs: usize,
    fname: &str,
) {
    match insn {
        Insn::Charge(n) => out.push(MOp::Charge(*n)),
        Insn::Const { dst, v } => {
            let d = r(*dst);
            p.def(d, Val::Imm(*v));
            out.push(MOp::SetReg { dst: d, src: Operand::Imm(*v) });
        }
        Insn::Move { dst, src } => {
            let o = p.resolve(r(*src));
            let d = r(*dst);
            p.def_from(d, o);
            out.push(MOp::SetReg { dst: d, src: o });
        }
        Insn::LoadThis { dst } => {
            let d = r(*dst);
            p.def(d, Val::This);
            out.push(MOp::SetReg { dst: d, src: Operand::This });
        }
        Insn::LoadGlobal { dst, g } => {
            let d = r(*dst);
            p.def(d, Val::Unknown);
            out.push(MOp::LoadGlobal { dst: d, g: *g as usize });
        }
        Insn::StoreGlobal { g, src } => {
            let src = p.resolve(r(*src));
            out.push(MOp::StoreGlobal { g: *g as usize, src });
        }
        Insn::FieldGet { dst, obj, field } => {
            let obj = p.resolve(r(*obj));
            let d = r(*dst);
            p.def(d, Val::Unknown);
            out.push(MOp::FieldGet { dst: d, obj, field: usize::from(*field) });
        }
        Insn::FieldSet { obj, field, src } => {
            let obj = p.resolve(r(*obj));
            let src = p.resolve(r(*src));
            out.push(MOp::FieldSet { obj, field: usize::from(*field), src });
        }
        Insn::IndexGet { dst, arr, idx } => {
            let (arr, idx) = (p.resolve(r(*arr)), p.resolve(r(*idx)));
            let d = r(*dst);
            p.def(d, Val::Unknown);
            out.push(MOp::IndexGet { dst: d, arr, idx });
        }
        Insn::IndexSet { arr, idx, src } => {
            let (arr, idx, src) = (p.resolve(r(*arr)), p.resolve(r(*idx)), p.resolve(r(*src)));
            out.push(MOp::IndexSet { arr, idx, src });
        }
        Insn::ArrayLen { dst, arr } => {
            let arr = p.resolve(r(*arr));
            let d = r(*dst);
            p.def(d, Val::Unknown);
            out.push(MOp::ArrayLen { dst: d, arr });
        }
        Insn::Binary { dst, op, ty, lhs, rhs } => {
            let (lhs, rhs) = (p.resolve(r(*lhs)), p.resolve(r(*rhs)));
            let d = r(*dst);
            // Constant folding: `binary_op` is deterministic, so a
            // successful compile-time evaluation is the run-time result.
            // A failing one keeps the kernel so the error still fires at
            // the same point.
            if let (Operand::Imm(a), Operand::Imm(b)) = (lhs, rhs) {
                if let Ok(v) = binary_op(*op, a, b) {
                    p.def(d, Val::Imm(v));
                    out.push(MOp::SetReg { dst: d, src: Operand::Imm(v) });
                    return;
                }
            }
            p.def(d, Val::Unknown);
            out.push(MOp::Binary {
                dst: d,
                op: *op,
                ty: *ty,
                lhs: Arg::Op(lhs),
                rhs: Arg::Op(rhs),
            });
        }
        Insn::Unary { dst, op, ty, src } => {
            let src = p.resolve(r(*src));
            let d = r(*dst);
            p.def(d, Val::Unknown);
            out.push(MOp::Unary { dst: d, op: *op, ty: *ty, src });
        }
        Insn::IntToDouble { dst, src } => {
            let src = p.resolve(r(*src));
            let d = r(*dst);
            if let Operand::Imm(v) = src {
                if let Ok(i) = v.as_int() {
                    let folded = Value::Double(i as f64);
                    p.def(d, Val::Imm(folded));
                    out.push(MOp::SetReg { dst: d, src: Operand::Imm(folded) });
                    return;
                }
            }
            p.def(d, Val::Unknown);
            out.push(MOp::IntToDouble { dst: d, src });
        }
        Insn::CheckInt { src } => {
            let src = p.resolve(r(*src));
            // A check a constant satisfies can never fire.
            if let Operand::Imm(v) = src {
                if v.as_int().is_ok() {
                    return;
                }
            }
            out.push(MOp::CheckInt { src });
        }
        Insn::CheckRecv { obj, func } => {
            let obj = p.resolve(r(*obj));
            out.push(MOp::CheckRecv { obj, func: *func as usize });
        }
        Insn::CallHost { dst, ext, base, argc } => {
            // As with `Call`, an empty argument window may start one past
            // the last register; validate the span.
            let (abase, argc) = (usize::from(*base), usize::from(*argc));
            assert!(abase + argc <= num_regs, "`{fname}`: host argument block outside frame");
            let args = (0..argc).map(|i| p.resolve(abase + i)).collect();
            let d = r(*dst);
            p.def(d, Val::Unknown);
            out.push(MOp::CallHost { dst: d, ext: *ext as usize, args });
        }
        Insn::NewObj { dst, class } => {
            let d = r(*dst);
            p.def(d, Val::Unknown);
            out.push(MOp::NewObj { dst: d, class: *class as usize });
        }
        Insn::NewArr { dst, len, default } => {
            let len = p.resolve(r(*len));
            let d = r(*dst);
            p.def(d, Val::Unknown);
            out.push(MOp::NewArr { dst: d, len, default: *default });
        }
        Insn::LockAcquire { obj } => {
            let obj = p.resolve(r(*obj));
            out.push(MOp::LockAcquire { obj });
        }
        Insn::LockRelease { obj } => {
            let obj = p.resolve(r(*obj));
            out.push(MOp::LockRelease { obj });
        }
        Insn::Jump { .. } | Insn::JumpIfFalse { .. } | Insn::Call { .. } | Insn::Return { .. } => {
            unreachable!("terminators are block exits, not straight-line ops")
        }
    }
}

/// The operand read of a typed kernel. Sema resolved the operand's type
/// and every boundary a value enters registers through is typed (see the
/// module docs), so the tag always matches. The read is total anyway — a
/// mismatch yields NaN or 0, never undefined behaviour — so kernels carry
/// no tag test and no error path. References and bools compare as whole
/// [`Value`]s.
trait Untag: Copy + Send + Sync + 'static {
    fn untag(v: Value) -> Self;
}

impl Untag for f64 {
    #[inline(always)]
    fn untag(v: Value) -> f64 {
        debug_assert!(matches!(v, Value::Double(_)), "double operand holds {v:?}");
        match v {
            Value::Double(x) => x,
            _ => f64::NAN,
        }
    }
}

impl Untag for i64 {
    #[inline(always)]
    fn untag(v: Value) -> i64 {
        debug_assert!(matches!(v, Value::Int(_)), "int operand holds {v:?}");
        match v {
            Value::Int(x) => x,
            _ => 0,
        }
    }
}

impl Untag for Value {
    #[inline(always)]
    fn untag(v: Value) -> Value {
        v
    }
}

/// Which typed kernel family a binary operator compiles to, if any.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Arith,
    Cmp,
}

/// `None`: the checked, tag-dispatching `binary_op` (the bool operators
/// and int `/`/`%`).
fn kind(ty: OpTy, op: BinOp) -> Option<Kind> {
    use BinOp::{Add, Div, Eq, Ge, Gt, Le, Lt, Mul, Ne, Sub};
    match (ty, op) {
        (OpTy::Double, Add | Sub | Mul | Div) | (OpTy::Int, Add | Sub | Mul) => Some(Kind::Arith),
        (OpTy::Double | OpTy::Int, Lt | Le | Gt | Ge | Eq | Ne)
        | (OpTy::Ref | OpTy::Bool, Eq | Ne) => Some(Kind::Cmp),
        _ => None,
    }
}

/// An operand source of a typed kernel, monomorphized per shape. Only the
/// receiver and field reads can fail, each with the message of the
/// separate op it replaces.
trait Src<T>: Copy + Send + Sync + 'static {
    fn get(self, fr: &NativeFrame<'_>) -> Result<T, &'static str>;
}

#[derive(Clone, Copy)]
struct RegS(usize);

#[derive(Clone, Copy)]
struct ImmS<T>(T);

/// Field `field` of the object `obj` holds.
#[derive(Clone, Copy)]
struct FieldS {
    obj: Operand,
    field: usize,
}

/// Any operand, dispatched at run time (the uncommon shapes).
#[derive(Clone, Copy)]
struct AnyS(Arg);

/// Read an operand, failing only on a missing receiver.
#[inline(always)]
fn operand(fr: &NativeFrame<'_>, o: Operand) -> Result<Value, &'static str> {
    match o {
        Operand::Reg(r) => Ok(fr.rd(r)),
        Operand::Imm(v) => Ok(v),
        Operand::This => fr.this.ok_or(THIS_OUTSIDE),
    }
}

impl<T: Untag> Src<T> for RegS {
    #[inline(always)]
    fn get(self, fr: &NativeFrame<'_>) -> Result<T, &'static str> {
        Ok(T::untag(fr.rd(self.0)))
    }
}

impl<T: Untag> Src<T> for ImmS<T> {
    #[inline(always)]
    fn get(self, _: &NativeFrame<'_>) -> Result<T, &'static str> {
        Ok(self.0)
    }
}

impl<T: Untag> Src<T> for FieldS {
    #[inline(always)]
    fn get(self, fr: &NativeFrame<'_>) -> Result<T, &'static str> {
        match operand(fr, self.obj)? {
            Value::Obj(id) => Ok(T::untag(fr.env.heap.objects[id].fields[self.field])),
            _ => Err(FIELD_READ),
        }
    }
}

impl<T: Untag> Src<T> for AnyS {
    fn get(self, fr: &NativeFrame<'_>) -> Result<T, &'static str> {
        match self.0 {
            Arg::Op(o) => operand(fr, o).map(T::untag),
            Arg::Field { obj, field } => FieldS { obj, field }.get(fr),
        }
    }
}

/// What a typed binary kernel does with its result.
trait Tail: Send + Sync + 'static {
    fn finish(&self, fr: &mut NativeFrame<'_>, v: Value) -> u32;
}

/// Write the result and run the next kernel.
struct WriteReg {
    dst: usize,
    next: Kernel,
}

impl Tail for WriteReg {
    #[inline(always)]
    fn finish(&self, fr: &mut NativeFrame<'_>, v: Value) -> u32 {
        fr.wr(self.dst, v);
        (self.next)(fr)
    }
}

/// Store the result into a field of the object `obj` holds and run the
/// next kernel: the read-modify-write tail, whose load already checked the
/// object.
struct WriteField {
    obj: Operand,
    field: usize,
    next: Kernel,
}

impl Tail for WriteField {
    #[inline(always)]
    fn finish(&self, fr: &mut NativeFrame<'_>, v: Value) -> u32 {
        let Ok(Value::Obj(id)) = operand(fr, self.obj) else {
            return fr.fail(RuntimeError::new(FIELD_WRITE));
        };
        fr.env.heap.objects[id].fields[self.field] = v;
        (self.next)(fr)
    }
}

/// Debit the block's exit charge, write the comparison's register if a
/// successor reads it, and branch on the result (`fall` on exactly
/// `Bool(true)`).
struct BranchTail {
    dst: Option<usize>,
    charge: ChargePrologue,
    node_cost: Duration,
    taken: u32,
    fall: u32,
}

impl Tail for BranchTail {
    #[inline(always)]
    fn finish(&self, fr: &mut NativeFrame<'_>, v: Value) -> u32 {
        if let Some((n, total)) = self.charge {
            if !debit(fr, n, total, self.node_cost) {
                return ERR;
            }
        }
        if let Some(d) = self.dst {
            fr.wr(d, v);
        }
        if matches!(v, Value::Bool(true)) {
            self.fall
        } else {
            self.taken
        }
    }
}

/// A typed binary kernel: debit its charge, read `l`, then `r`, apply
/// `f`, hand the result to `tail`. The charge is tested at run time rather
/// than through [`kch`]: one closure per operator and shape keeps the
/// generated code small.
fn bin<T: Untag, L: Src<T>, R: Src<T>, K: Tail>(
    l: L,
    r: R,
    f: impl Fn(T, T) -> Value + Send + Sync + 'static,
    ch: ChargePrologue,
    node_cost: Duration,
    tail: K,
) -> Kernel {
    Box::new(move |fr| {
        if let Some((n, total)) = ch {
            if !debit(fr, n, total, node_cost) {
                return ERR;
            }
        }
        let a = match l.get(fr) {
            Ok(a) => a,
            Err(m) => return fr.fail(RuntimeError::new(m)),
        };
        let b = match r.get(fr) {
            Ok(b) => b,
            Err(m) => return fr.fail(RuntimeError::new(m)),
        };
        tail.finish(fr, f(a, b))
    })
}

/// Monomorphize [`bin`] on the common operand shapes (immediates are
/// untagged once, here); the rest dispatch at run time.
fn shaped<T: Untag, K: Tail>(
    lhs: Arg,
    rhs: Arg,
    f: impl Fn(T, T) -> Value + Send + Sync + 'static,
    ch: ChargePrologue,
    nc: Duration,
    tail: K,
) -> Kernel {
    use Arg::{Field, Op};
    use Operand::{Imm, Reg};
    match (lhs, rhs) {
        (Op(Reg(a)), Op(Reg(b))) => bin(RegS(a), RegS(b), f, ch, nc, tail),
        (Op(Reg(a)), Op(Imm(b))) => bin(RegS(a), ImmS(T::untag(b)), f, ch, nc, tail),
        (Op(Imm(a)), Op(Reg(b))) => bin(ImmS(T::untag(a)), RegS(b), f, ch, nc, tail),
        (Field { obj, field }, Op(Reg(b))) => bin(FieldS { obj, field }, RegS(b), f, ch, nc, tail),
        (Op(Reg(a)), Field { obj, field }) => bin(RegS(a), FieldS { obj, field }, f, ch, nc, tail),
        (Field { obj, field }, Op(Imm(b))) => {
            bin(FieldS { obj, field }, ImmS(T::untag(b)), f, ch, nc, tail)
        }
        (Field { obj, field }, Field { obj: o2, field: f2 }) => {
            bin(FieldS { obj, field }, FieldS { obj: o2, field: f2 }, f, ch, nc, tail)
        }
        (l, r) => bin(AnyS(l), AnyS(r), f, ch, nc, tail),
    }
}

/// The kernel of a [`Kind::Arith`] operator.
fn arith_kernel<K: Tail>(
    ty: OpTy,
    op: BinOp,
    lhs: Arg,
    rhs: Arg,
    ch: ChargePrologue,
    nc: Duration,
    tail: K,
) -> Kernel {
    use Value::{Double, Int};
    macro_rules! k {
        ($t:ty, $f:expr) => {
            shaped::<$t, K>(lhs, rhs, $f, ch, nc, tail)
        };
    }
    match (ty, op) {
        (OpTy::Double, BinOp::Add) => k!(f64, |a, b| Double(a + b)),
        (OpTy::Double, BinOp::Sub) => k!(f64, |a, b| Double(a - b)),
        (OpTy::Double, BinOp::Mul) => k!(f64, |a, b| Double(a * b)),
        (OpTy::Double, BinOp::Div) => k!(f64, |a, b| Double(a / b)),
        (OpTy::Int, BinOp::Add) => k!(i64, |a: i64, b| Int(a.wrapping_add(b))),
        (OpTy::Int, BinOp::Sub) => k!(i64, |a: i64, b| Int(a.wrapping_sub(b))),
        (OpTy::Int, BinOp::Mul) => k!(i64, |a: i64, b| Int(a.wrapping_mul(b))),
        _ => unreachable!("not a typed arithmetic operator"),
    }
}

/// The kernel of a [`Kind::Cmp`] operator.
fn cmp_kernel<K: Tail>(
    ty: OpTy,
    op: BinOp,
    lhs: Arg,
    rhs: Arg,
    ch: ChargePrologue,
    nc: Duration,
    tail: K,
) -> Kernel {
    use Value::Bool;
    macro_rules! k {
        ($t:ty, $f:expr) => {
            shaped::<$t, K>(lhs, rhs, $f, ch, nc, tail)
        };
    }
    match (ty, op) {
        (OpTy::Double, BinOp::Lt) => k!(f64, |a, b| Bool(a < b)),
        (OpTy::Double, BinOp::Le) => k!(f64, |a, b| Bool(a <= b)),
        (OpTy::Double, BinOp::Gt) => k!(f64, |a, b| Bool(a > b)),
        (OpTy::Double, BinOp::Ge) => k!(f64, |a, b| Bool(a >= b)),
        (OpTy::Double, BinOp::Eq) => k!(f64, |a, b| Bool(a == b)),
        (OpTy::Double, BinOp::Ne) => k!(f64, |a, b| Bool(a != b)),
        (OpTy::Int, BinOp::Lt) => k!(i64, |a, b| Bool(a < b)),
        (OpTy::Int, BinOp::Le) => k!(i64, |a, b| Bool(a <= b)),
        (OpTy::Int, BinOp::Gt) => k!(i64, |a, b| Bool(a > b)),
        (OpTy::Int, BinOp::Ge) => k!(i64, |a, b| Bool(a >= b)),
        (OpTy::Int, BinOp::Eq) => k!(i64, |a, b| Bool(a == b)),
        (OpTy::Int, BinOp::Ne) => k!(i64, |a, b| Bool(a != b)),
        (OpTy::Ref | OpTy::Bool, BinOp::Eq) => k!(Value, |a, b| Bool(a == b)),
        (OpTy::Ref | OpTy::Bool, BinOp::Ne) => k!(Value, |a, b| Bool(a != b)),
        _ => unreachable!("not a typed comparison"),
    }
}

/// Chain one micro-op's monomorphized kernel (with its optional fused
/// charge prologue) in front of `next`. `None` is a bare charge kernel.
#[allow(clippy::too_many_lines)]
fn build_kernel(
    opn: Option<MOp>,
    ch: ChargePrologue,
    next: Kernel,
    node_cost: Duration,
    extern_default: Duration,
    module: &VmModule,
) -> Kernel {
    let Some(opn) = opn else {
        return kch(ch, node_cost, move |fr| next(fr));
    };
    // One closure type per `match` arm: the operator/operand shape is a
    // compile-time constant inside each kernel body, and the `next(fr)`
    // call site is unique to the arm.
    match opn {
        MOp::Charge(_) => unreachable!("charges were folded into successor kernels"),
        MOp::SetReg { dst, src } => match src {
            Operand::Reg(s) => kch(ch, node_cost, move |fr| {
                let v = fr.rd(s);
                fr.wr(dst, v);
                next(fr)
            }),
            Operand::Imm(v) => kch(ch, node_cost, move |fr| {
                fr.wr(dst, v);
                next(fr)
            }),
            Operand::This => kch(ch, node_cost, move |fr| {
                let v = rdop!(fr, Operand::This);
                fr.wr(dst, v);
                next(fr)
            }),
        },
        MOp::LoadGlobal { dst, g } => kch(ch, node_cost, move |fr| {
            let v = fr.env.globals[g];
            fr.wr(dst, v);
            next(fr)
        }),
        MOp::StoreGlobal { g, src } => kch(ch, node_cost, move |fr| {
            fr.env.globals[g] = rdop!(fr, src);
            next(fr)
        }),
        MOp::FieldGet { dst, obj, field } => match obj {
            Operand::Reg(o) => kch(ch, node_cost, move |fr| {
                let Value::Obj(id) = fr.rd(o) else {
                    return fr.fail(RuntimeError::new(FIELD_READ));
                };
                let v = fr.env.heap.objects[id].fields[field];
                fr.wr(dst, v);
                next(fr)
            }),
            obj => kch(ch, node_cost, move |fr| {
                let Value::Obj(id) = rdop!(fr, obj) else {
                    return fr.fail(RuntimeError::new(FIELD_READ));
                };
                let v = fr.env.heap.objects[id].fields[field];
                fr.wr(dst, v);
                next(fr)
            }),
        },
        MOp::FieldSet { obj, field, src } => kch(ch, node_cost, move |fr| {
            let v = rdop!(fr, src);
            let Value::Obj(id) = rdop!(fr, obj) else {
                return fr.fail(RuntimeError::new(FIELD_WRITE));
            };
            fr.env.heap.objects[id].fields[field] = v;
            next(fr)
        }),
        MOp::IndexGet { dst, arr, idx } => kch(ch, node_cost, move |fr| {
            let i = match rdop!(fr, idx).as_int() {
                Ok(i) => i,
                Err(e) => return fr.fail(e),
            };
            let Value::Arr(id) = rdop!(fr, arr) else {
                return fr.fail(RuntimeError::new("index read on null/non-array"));
            };
            let a = &fr.env.heap.arrays[id];
            match a.get(usize::try_from(i).unwrap_or(usize::MAX)) {
                Some(v) => {
                    let v = *v;
                    fr.wr(dst, v);
                    next(fr)
                }
                None => {
                    let len = a.len();
                    fr.fail(RuntimeError::new(format!("index {i} out of bounds ({len})")))
                }
            }
        }),
        MOp::IndexSet { arr, idx, src } => kch(ch, node_cost, move |fr| {
            let v = rdop!(fr, src);
            let i = match rdop!(fr, idx).as_int() {
                Ok(i) => i,
                Err(e) => return fr.fail(e),
            };
            let Value::Arr(id) = rdop!(fr, arr) else {
                return fr.fail(RuntimeError::new("index write on null/non-array"));
            };
            let a = &mut fr.env.heap.arrays[id];
            let len = a.len();
            match a.get_mut(usize::try_from(i).unwrap_or(usize::MAX)) {
                Some(slot) => {
                    *slot = v;
                    next(fr)
                }
                None => fr.fail(RuntimeError::new(format!("index {i} out of bounds ({len})"))),
            }
        }),
        MOp::ArrayLen { dst, arr } => kch(ch, node_cost, move |fr| {
            let Value::Arr(id) = rdop!(fr, arr) else {
                return fr.fail(RuntimeError::new("length of null/non-array"));
            };
            let v = Value::Int(fr.env.heap.arrays[id].len() as i64);
            fr.wr(dst, v);
            next(fr)
        }),
        MOp::Binary { dst, op, ty, lhs, rhs } => match kind(ty, op) {
            Some(Kind::Arith) => {
                arith_kernel(ty, op, lhs, rhs, ch, node_cost, WriteReg { dst, next })
            }
            Some(Kind::Cmp) => cmp_kernel(ty, op, lhs, rhs, ch, node_cost, WriteReg { dst, next }),
            // The bool operators and int `/`/`%` (which raise division by
            // zero) stay on the checked, tag-dispatching path.
            None => {
                let (Arg::Op(lhs), Arg::Op(rhs)) = (lhs, rhs) else {
                    unreachable!("only typed binaries read fields")
                };
                kch(ch, node_cost, move |fr| {
                    let (a, b) = (rdop!(fr, lhs), rdop!(fr, rhs));
                    match binary_op(op, a, b) {
                        Ok(v) => {
                            fr.wr(dst, v);
                            next(fr)
                        }
                        Err(e) => fr.fail(e),
                    }
                })
            }
        },
        MOp::FieldRmw { obj, set, op, ty, lhs, rhs } => {
            arith_kernel(ty, op, lhs, rhs, ch, node_cost, WriteField { obj, field: set, next })
        }
        MOp::Unary { dst, op, ty, src } => match (op, ty) {
            (UnOp::Neg, OpTy::Double) => kch(ch, node_cost, move |fr| {
                let v = Value::Double(-f64::untag(rdop!(fr, src)));
                fr.wr(dst, v);
                next(fr)
            }),
            (UnOp::Neg, OpTy::Int) => kch(ch, node_cost, move |fr| {
                let v = Value::Int(i64::untag(rdop!(fr, src)).wrapping_neg());
                fr.wr(dst, v);
                next(fr)
            }),
            _ => kch(ch, node_cost, move |fr| match unary_op(op, rdop!(fr, src)) {
                Ok(v) => {
                    fr.wr(dst, v);
                    next(fr)
                }
                Err(e) => fr.fail(e),
            }),
        },
        MOp::IntToDouble { dst, src } => kch(ch, node_cost, move |fr| {
            let v = Value::Double(i64::untag(rdop!(fr, src)) as f64);
            fr.wr(dst, v);
            next(fr)
        }),
        MOp::CheckInt { src } => kch(ch, node_cost, move |fr| match rdop!(fr, src).as_int() {
            Ok(_) => next(fr),
            Err(e) => fr.fail(e),
        }),
        MOp::CheckRecv { obj, func } => {
            let name = module.funcs[func].name.clone();
            kch(ch, node_cost, move |fr| {
                if rdop!(fr, obj) == Value::Null {
                    return fr.fail(RuntimeError::new(format!("method `{name}` on null")));
                }
                next(fr)
            })
        }
        MOp::CallHost { dst, ext, args } => {
            assert!(args.len() <= MAX_EXTERN_ARITY, "host call arity above the extern limit");
            let args = args.into_boxed_slice();
            kch(ch, node_cost, move |fr| {
                let mut buf = [Value::Null; MAX_EXTERN_ARITY];
                for (i, a) in args.iter().enumerate() {
                    buf[i] = rdop!(fr, *a);
                }
                let ProgramEnv { host, externs, .. } = &mut *fr.env;
                match host.call(ext, externs, &buf[..args.len()], extern_default, fr.sink) {
                    Ok(v) => {
                        fr.wr(dst, v);
                        next(fr)
                    }
                    Err(e) => fr.fail(e),
                }
            })
        }
        MOp::NewObj { dst, class } => kch(ch, node_cost, move |fr| {
            let env = &mut *fr.env;
            let id = env.heap.alloc_object(class, &env.classes);
            fr.wr(dst, Value::Obj(id));
            next(fr)
        }),
        MOp::NewArr { dst, len, default } => kch(ch, node_cost, move |fr| {
            let n = match rdop!(fr, len).as_int() {
                Ok(n) => n,
                Err(e) => return fr.fail(e),
            };
            if n < 0 {
                return fr.fail(RuntimeError::new("negative array length"));
            }
            fr.env.heap.arrays.push(vec![default; n as usize]);
            fr.wr(dst, Value::Arr(fr.env.heap.arrays.len() - 1));
            next(fr)
        }),
        MOp::LockAcquire { obj } => kch(ch, node_cost, move |fr| {
            let Value::Obj(id) = rdop!(fr, obj) else {
                return fr.fail(RuntimeError::new("critical region on null/non-object"));
            };
            match fr.lock_for(id) {
                Ok(lock) => {
                    fr.sink.acquire(lock);
                    next(fr)
                }
                Err(e) => fr.fail(e),
            }
        }),
        MOp::LockRelease { obj } => kch(ch, node_cost, move |fr| {
            let Value::Obj(id) = rdop!(fr, obj) else {
                return fr.fail(RuntimeError::new("critical region on null/non-object"));
            };
            match fr.lock_for(id) {
                Ok(lock) => {
                    fr.sink.release(lock);
                    next(fr)
                }
                Err(e) => fr.fail(e),
            }
        }),
    }
}

/// The native executor. Borrows the same program state as the other tiers
/// and emits into the same [`OpSink`]; the register stack is
/// caller-provided so it can be reused across iterations without
/// reallocation.
pub struct NativeExec<'a> {
    /// Program state (heap, globals, host functions).
    pub env: &'a mut ProgramEnv,
    /// The compiled function table of the executing version.
    pub module: &'a NativeModule,
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

impl NativeExec<'_> {
    /// Call a function with an optional receiver (frame at the base of the
    /// register stack).
    ///
    /// # Errors
    ///
    /// Propagates runtime errors with the same messages as the other
    /// tiers.
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

    /// Read an exit operand against a frame based at `base`.
    fn read_exit_op(
        &self,
        base: usize,
        this: Option<Value>,
        op: Operand,
    ) -> Result<Value, RuntimeError> {
        match op {
            Operand::Reg(r) => Ok(self.regs[base + r]),
            Operand::Imm(v) => Ok(v),
            Operand::This => this.ok_or_else(|| RuntimeError::new("`this` outside method")),
        }
    }

    fn run(
        &mut self,
        func: usize,
        base: usize,
        this: Option<Value>,
    ) -> Result<Value, RuntimeError> {
        let module = self.module;
        let f = &module.funcs[func];
        let nblocks = u32::try_from(f.blocks.len()).expect("validated at compile");
        let mut bi: u32 = 0;
        loop {
            // One frame lives across every in-function block transition;
            // it is torn down only around calls (the callee may grow the
            // register stack, invalidating the window).
            let mut frame = NativeFrame {
                regs: &mut self.regs[base..base + f.num_regs],
                env: &mut *self.env,
                sink: &mut *self.sink,
                fuel: &mut self.fuel,
                this,
                lock_base: self.lock_base,
                lock_capacity: self.lock_capacity,
                err: None,
            };
            let code = loop {
                let c = (f.blocks[bi as usize].enter)(&mut frame);
                if c < nblocks {
                    bi = c;
                } else {
                    break c;
                }
            };
            let err = frame.err;
            match code {
                RET => {
                    let ExitDesc::Return { src } = &f.blocks[bi as usize].exit else {
                        unreachable!("RET from a non-return block")
                    };
                    return self.read_exit_op(base, this, *src);
                }
                CALLX => {
                    let ExitDesc::Call { func: callee, dst, args, recv, next } =
                        &f.blocks[bi as usize].exit
                    else {
                        unreachable!("CALLX from a non-call block")
                    };
                    let (callee, dst, next) = (*callee, *dst, *next);
                    let recv_v = match recv {
                        Some(op) => Some(self.read_exit_op(base, this, *op)?),
                        None => None,
                    };
                    let cf = &module.funcs[callee];
                    let callee_base = base + f.num_regs;
                    if self.regs.len() < callee_base + cf.num_regs {
                        self.regs.resize(callee_base + cf.num_regs, Value::Null);
                    }
                    // Argument sources live in the caller frame (below
                    // `callee_base`), so gather-after-resize is safe.
                    for (i, op) in args.iter().enumerate() {
                        let v = self.read_exit_op(base, this, *op)?;
                        self.regs[callee_base + i] = v;
                    }
                    for i in cf.num_params..cf.local_defaults.len() {
                        self.regs[callee_base + i] = cf.local_defaults[i];
                    }
                    let v = self.run(callee, callee_base, recv_v)?;
                    self.regs[base + dst] = v;
                    bi = next;
                }
                _ => return Err(err.expect("kernel parked an error before returning ERR")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{Heap, HostRegistry, Interp};
    use crate::vm::lower_functions;
    use dynfb_lang::compile_source;
    use dynfb_lang::hir::{ExprKind, Stmt, Ty};
    use dynfb_sim::Step;

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
        // Deliberately mistyped: the program declares it `double`.
        env.host.register("badret", Duration::from_nanos(100), |_| Value::Int(7));
        env.host.register("wide", Duration::from_nanos(100), |args| {
            Value::Double(
                args.iter().enumerate().map(|(i, a)| a.as_double().unwrap() * i as f64).sum(),
            )
        });
        env
    }

    fn lock_base(n: usize) -> LockId {
        let mut m = dynfb_sim::Machine::new(dynfb_sim::MachineConfig::default());
        m.add_locks(n)
    }

    struct Outcome {
        result: Result<Value, RuntimeError>,
        steps: Vec<Step>,
        globals: Vec<Value>,
        heap: Heap,
    }

    /// Run one function on the tree-walker and on native code with the
    /// given fuel.
    fn tiers(src: &str, func: &str, args: &[Value], fuel: u64) -> [Outcome; 2] {
        let hir = compile_source(src).unwrap_or_else(|e| panic!("{e}"));
        let f = hir.function_named(func).expect("function");
        let base = lock_base(1024);
        let native = compile_native(&lower_functions(&hir.functions), &CostModel::default());

        let tree = {
            let mut env = env_for(&hir);
            let mut sink = OpSink::default();
            let result = Interp {
                env: &mut env,
                funcs: &hir.functions,
                cost: CostModel::default(),
                sink: &mut sink,
                lock_base: base,
                lock_capacity: 1024,
                fuel,
            }
            .call(f.0, None, args.to_vec());
            let steps = sink.into_steps().into_iter().collect();
            Outcome { result, steps, globals: env.globals, heap: env.heap }
        };
        let nat = {
            let mut env = env_for(&hir);
            let mut sink = OpSink::default();
            let mut regs = Vec::new();
            let result = NativeExec {
                env: &mut env,
                module: &native,
                sink: &mut sink,
                lock_base: base,
                lock_capacity: 1024,
                fuel,
                regs: &mut regs,
            }
            .call(f.0, None, args);
            let steps = sink.into_steps().into_iter().collect();
            Outcome { result, steps, globals: env.globals, heap: env.heap }
        };
        [tree, nat]
    }

    /// Run `func` on both tiers with ample fuel; assert identical values,
    /// step sequences, globals and heaps; return the value.
    fn agree(src: &str, func: &str, args: &[Value]) -> Value {
        let [tree, nat] = tiers(src, func, args, 10_000_000);
        let v = tree.result.unwrap_or_else(|e| panic!("tree: {e}"));
        assert_eq!(nat.result, Ok(v), "return values");
        assert_eq!(tree.steps, nat.steps, "step sequences");
        assert_eq!(tree.globals, nat.globals, "globals");
        assert_eq!(tree.heap.arrays, nat.heap.arrays, "arrays");
        assert_eq!(tree.heap.objects.len(), nat.heap.objects.len(), "object count");
        for (a, b) in tree.heap.objects.iter().zip(&nat.heap.objects) {
            assert_eq!(a.fields, b.fields, "object fields");
        }
        v
    }

    /// Run `func` of `hir` on the tree tier and on `native` (compiled from
    /// `hir`'s functions).
    fn tree_and_native(
        hir: &dynfb_lang::hir::Hir,
        native: &NativeModule,
        func: &str,
    ) -> [Result<Value, RuntimeError>; 2] {
        let f = hir.function_named(func).expect("function").0;
        let base = lock_base(16);
        let mut env = env_for(hir);
        let mut sink = OpSink::default();
        let tree = Interp {
            env: &mut env,
            funcs: &hir.functions,
            cost: CostModel::default(),
            sink: &mut sink,
            lock_base: base,
            lock_capacity: 16,
            fuel: 10_000,
        }
        .call(f, None, vec![]);
        let mut env = env_for(hir);
        let mut regs = Vec::new();
        let nat = NativeExec {
            env: &mut env,
            module: native,
            sink: &mut sink,
            lock_base: base,
            lock_capacity: 16,
            fuel: 10_000,
            regs: &mut regs,
        }
        .call(f, None, &[]);
        [tree, nat]
    }

    /// Compile `base` fresh and `changed` reusing it; return the compiled
    /// base and the reusing build.
    fn reuse_build(
        base: &dynfb_lang::hir::Hir,
        changed: &dynfb_lang::hir::Hir,
    ) -> (Arc<NativeModule>, Arc<NativeModule>) {
        let cost = CostModel::default();
        let base_vm = lower_functions(&base.functions);
        let base_native = compile_native(&base_vm, &cost);
        let vm = lower_functions(&changed.functions);
        let native = compile_native_reusing(&vm, &cost, &[(&base_vm, &base_native)]);
        (base_native, native)
    }

    /// A function differing only in a `-0.0` for a `0.0` constant gets its
    /// own code: the constants compare equal as values but fold to
    /// opposite infinities.
    #[test]
    fn reuse_compares_constants_by_bits() {
        let base =
            compile_source("double f() { return 1.0 / 0.0; } double g() { return 2.0; }").unwrap();
        let mut changed = base.clone();
        let f = base.function_named("f").unwrap().0;
        let g = base.function_named("g").unwrap().0;
        let [Stmt::Return(Some(ret))] = changed.functions[f].body.as_mut_slice() else {
            panic!("one return");
        };
        let ExprKind::Binary { rhs, .. } = &mut ret.kind else { panic!("a quotient") };
        rhs.kind = ExprKind::Double(-0.0);
        let (base_native, native) = reuse_build(&base, &changed);
        assert!(!native.shares_code(f, &base_native, f));
        assert!(native.shares_code(g, &base_native, g), "an unchanged function is reused");
        let [tree, nat] = tree_and_native(&changed, &native, "f");
        assert_eq!(tree, Ok(Value::Double(f64::NEG_INFINITY)));
        assert_eq!(nat, tree);
    }

    /// A caller whose lowered code is unchanged still gets its own code when
    /// its callee at the same index has another name (the null-receiver
    /// message names it) or another arity (argument gathering).
    #[test]
    fn reuse_requires_the_same_callee_name_and_arity() {
        // `t` widens `h`'s frame so that a two-argument window still fits.
        let base = compile_source(
            "class cell { int v; int bump() { return this.v; } }
             int f() { cell c = null; return c.bump(); }
             int g(int a) { return a; }
             int h() { int t = 1 + (2 + (3 + (4 + 5))); return g(7); }",
        )
        .unwrap();
        let f = base.function_named("f").unwrap().0;
        let h = base.function_named("h").unwrap().0;
        let bump = base.functions.iter().position(|x| x.name == "bump").unwrap();
        let g = base.function_named("g").unwrap().0;

        let mut renamed = base.clone();
        renamed.functions[bump].name = "poke".to_string();
        let (base_native, native) = reuse_build(&base, &renamed);
        assert!(!native.shares_code(f, &base_native, f));
        assert!(native.shares_code(h, &base_native, h), "an unaffected caller is reused");
        let [tree, nat] = tree_and_native(&renamed, &native, "f");
        assert_eq!(tree.as_ref().unwrap_err().message, "method `poke` on null");
        assert_eq!(nat, tree);

        let mut wider = base.clone();
        wider.functions[g].num_params = 2;
        wider.functions[g].locals.push(dynfb_lang::hir::Local { name: "b".into(), ty: Ty::Int });
        let (base_native, native) = reuse_build(&base, &wider);
        assert!(!native.shares_code(h, &base_native, h));
        assert!(native.shares_code(f, &base_native, f), "an unaffected caller is reused");
        let [tree, nat] = tree_and_native(&wider, &native, "h");
        assert_eq!(tree, Ok(Value::Int(7)));
        assert_eq!(nat, tree);
    }

    /// Two modules that differ only in the body of a leaf their caller
    /// inlines: the caller embeds that body, so it is compiled afresh, and
    /// both builds agree with the tree-walker.
    #[test]
    fn reuse_compares_inlined_leaf_bodies() {
        let base = compile_source(
            "class cell { double v; double get() { return this.v + 1.0; } }
             double f() { cell c = new cell(); return c.get(); }
             double g() { return 2.0; }",
        )
        .unwrap();
        let f = base.function_named("f").unwrap().0;
        let g = base.function_named("g").unwrap().0;
        let get = base.functions.iter().position(|x| x.name == "get").unwrap();
        let vm = lower_functions(&base.functions);
        assert!(leaf_flags(&vm)[get], "the control needs an inlined leaf");
        let (base_native, copy) = reuse_build(&base, &base.clone());
        assert!(copy.shares_code(f, &base_native, f), "an identical caller is reused");

        let mut changed = base.clone();
        let [Stmt::Return(Some(ret))] = changed.functions[get].body.as_mut_slice() else {
            panic!("one return");
        };
        let ExprKind::Binary { rhs, .. } = &mut ret.kind else { panic!("a sum") };
        rhs.kind = ExprKind::Double(2.0);
        let (base_native, native) = reuse_build(&base, &changed);
        assert!(!native.shares_code(get, &base_native, get));
        assert!(!native.shares_code(f, &base_native, f), "the caller embeds the changed leaf");
        assert!(native.shares_code(g, &base_native, g), "an unaffected function is reused");
        let [tree, nat] = tree_and_native(&changed, &native, "f");
        assert_eq!(tree, Ok(Value::Double(2.0)));
        assert_eq!(nat, tree);
        let [tree, nat] = tree_and_native(&base, &base_native, "f");
        assert_eq!(tree, Ok(Value::Double(1.0)));
        assert_eq!(nat, tree);
    }

    /// The widest extern sema accepts compiles and agrees across tiers; one
    /// more parameter is a front-end error, not a panic in the kernel
    /// builder.
    #[test]
    fn widest_extern_compiles_and_wider_is_rejected() {
        let decl = |n: usize| format!("extern double wide({});", vec!["double"; n].join(", "));
        let args: Vec<String> = (0..MAX_EXTERN_ARITY).map(|i| format!("{i}.5")).collect();
        let src = format!(
            "{} double test() {{ return wide({}); }}",
            decl(MAX_EXTERN_ARITY),
            args.join(", ")
        );
        let v = agree(&src, "test", &[]);
        assert_eq!(v, Value::Double((0..16).map(|i| (f64::from(i) + 0.5) * f64::from(i)).sum()));
        let wider = format!("{} double test() {{ return 0.0; }}", decl(MAX_EXTERN_ARITY + 1));
        let e = compile_source(&wider).unwrap_err();
        assert_eq!(e.stage, dynfb_lang::error::Stage::Sema);
        assert!(e.message.contains("declares 17 parameters"), "{e}");
    }

    #[test]
    fn recursion_and_control_flow_match() {
        let v = agree(
            "int fib(int n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }",
            "fib",
            &[Value::Int(12)],
        );
        assert_eq!(v, Value::Int(144));
    }

    #[test]
    fn loops_arrays_and_objects_match() {
        let v = agree(
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
            &[Value::Int(6)],
        );
        assert_eq!(v, Value::Int(66));
    }

    #[test]
    fn extern_calls_and_doubles_match() {
        let v = agree(
            "extern double hostadd(double, double);
             double test(int n) {
                 double acc = 0.0;
                 for (int i = 0; i < n; i++) { acc = hostadd(acc, i * 0.5); }
                 return acc;
             }",
            "test",
            &[Value::Int(9)],
        );
        assert_eq!(v, Value::Double(18.0));
    }

    #[test]
    fn loops_heap_and_externs_match() {
        let v = agree(
            "extern double hostadd(double, double);
             class cell { int count; void bump(int n) { this.count += n; } }
             double test(int n) {
                 cell[] cells = new cell[n];
                 for (int i = 0; i < n; i++) { cells[i] = new cell(); }
                 int j = n * 2;
                 while (j > 0) { j = j - 1; cells[j % n].bump(j); }
                 double acc = 0.0;
                 for (int i = 0; i < n; i++) { acc = hostadd(acc, cells[i].count * 0.5); }
                 return acc;
             }",
            "test",
            &[Value::Int(6)],
        );
        assert_eq!(v, Value::Double(33.0));
    }

    /// Native code fails and succeeds on exactly the tree-walker's fuel
    /// boundary.
    #[test]
    fn fuel_boundary_is_identical() {
        let src = "int burn(int n) { int acc = 0; for (int i = 0; i < n; i++) { acc += i; } return acc; }";
        let run = |fuel: u64| tiers(src, "burn", &[Value::Int(10)], fuel);
        let need =
            (0..10_000u64).find(|&fuel| run(fuel)[0].result.is_ok()).expect("finite program");
        let [_, nat] = run(need);
        assert_eq!(
            nat.result,
            Ok(Value::Int(45)),
            "native succeeds at the tree-walker's minimum fuel"
        );
        let [tree, nat] = run(need - 1);
        assert!(tree.result.is_err());
        let e = nat.result.unwrap_err();
        assert!(e.message.contains("fuel"), "{e}");
    }

    /// The typed boundaries: entry arguments are checked for arity and
    /// scalar tags, and a host result must match the extern's declared
    /// return type. Both tiers return the same error, and neither panics.
    #[test]
    fn entry_arguments_and_host_results_are_checked_in_every_tier() {
        let src = "extern double badret();
                   class cell { int v; }
                   int inc(int n) { return n + 1; }
                   int peek(cell c) { return c.v; }
                   double viahost() { return badret() + 1.0; }";
        let cases: [(&str, &[Value], &str); 5] = [
            ("inc", &[Value::Int(1), Value::Int(2)], "`inc` expects 1 arguments, got 2"),
            ("inc", &[], "`inc` expects 1 arguments, got 0"),
            ("inc", &[Value::Double(1.0)], "argument 0 of `inc` is Double(1.0), expected int"),
            (
                "peek",
                &[Value::Bool(true)],
                "argument 0 of `peek` is Bool(true), expected a reference",
            ),
            ("viahost", &[], "extern `badret` returned Int(7), declared `double`"),
        ];
        for (func, args, want) in cases {
            for (tier, o) in ["tree", "native"].iter().zip(tiers(src, func, args, 10_000)) {
                let err = o.result.expect_err(tier);
                assert_eq!(err.message, want, "{tier}, {func}({args:?})");
            }
        }
        let [tree, nat] = tiers(src, "inc", &[Value::Int(41)], 10_000);
        assert_eq!(tree.result, Ok(Value::Int(42)));
        assert_eq!(nat.result, tree.result);
    }

    /// The fused-block debit bisects exactly at the fuel boundary: for
    /// every fuel value, both tiers agree on success/failure, and an
    /// exhausted run's sink records exactly one node cost per unit of fuel
    /// consumed — so the partial step sequences are identical too (the
    /// program is free of host calls, whose cost batching legitimately
    /// differs on error paths).
    #[test]
    fn fuel_bisection_matches_across_tiers() {
        let src = "class acc { int v; void add(int n) { this.v += n; } }
                   int burn(int n) {
                       acc a = new acc();
                       for (int i = 0; i < n; i++) { a.add(i * i); }
                       return a.v;
                   }";
        let mut boundary = None;
        for fuel in 0..10_000u64 {
            let [tree, nat] = tiers(src, "burn", &[Value::Int(9)], fuel);
            assert_eq!(
                tree.result.is_ok(),
                nat.result.is_ok(),
                "tree vs native disagree at fuel {fuel}"
            );
            assert_eq!(tree.steps, nat.steps, "partial sinks differ at fuel {fuel}");
            if tree.result.is_ok() {
                boundary = Some(fuel);
                break;
            }
            // Exhausted: the sink holds exactly `fuel` node costs.
            let total: Duration = nat
                .steps
                .iter()
                .map(|s| match s {
                    Step::Compute(d) => *d,
                    _ => Duration::ZERO,
                })
                .sum();
            assert_eq!(total, CostModel::default().node * u32::try_from(fuel).unwrap());
        }
        let need = boundary.expect("program terminates");
        assert!(need > 50, "boundary sweep must cross real work (got {need})");
    }

    /// Lock traffic on the error path: exhaustion before an acquire leaves
    /// the same acquire/release prefix in both tiers (the lowering flushes
    /// charges before lock instructions, so the boundary cannot move
    /// across a lock operation).
    #[test]
    fn fuel_bisection_preserves_lock_prefix() {
        let src = "class cell { int v; void bump() { this.v += 1; } }
                   int locked(int n) {
                       cell c = new cell();
                       for (int i = 0; i < n; i++) { c.bump(); }
                       return c.v;
                   }";
        let hir = compile_source(src).unwrap();
        let mut funcs = hir.functions.clone();
        for f in &mut funcs {
            if f.class.is_some() {
                crate::lockplace::insert_default_regions(f);
            }
        }
        let f = hir.function_named("locked").unwrap();
        let base = lock_base(64);
        let module = lower_functions(&funcs);
        let native = compile_native(&module, &CostModel::default());
        for fuel in 0..600u64 {
            let run_tree = |fuel: u64| {
                let mut env = env_for(&hir);
                let mut sink = OpSink::default();
                let res = Interp {
                    env: &mut env,
                    funcs: &funcs,
                    cost: CostModel::default(),
                    sink: &mut sink,
                    lock_base: base,
                    lock_capacity: 64,
                    fuel,
                }
                .call(f.0, None, vec![Value::Int(8)]);
                (res, sink.into_steps().into_iter().collect::<Vec<_>>())
            };
            let run_native = |fuel: u64| {
                let mut env = env_for(&hir);
                let mut sink = OpSink::default();
                let mut regs = Vec::new();
                let res = NativeExec {
                    env: &mut env,
                    module: &native,
                    sink: &mut sink,
                    lock_base: base,
                    lock_capacity: 64,
                    fuel,
                    regs: &mut regs,
                }
                .call(f.0, None, &[Value::Int(8)]);
                (res, sink.into_steps().into_iter().collect::<Vec<_>>())
            };
            let (tr, ts) = run_tree(fuel);
            let (nr, ns) = run_native(fuel);
            assert_eq!(tr.is_ok(), nr.is_ok(), "boundary at fuel {fuel}");
            assert_eq!(ts, ns, "lock/compute prefix at fuel {fuel}");
            if tr.is_ok() {
                assert!(
                    ts.iter().any(|s| matches!(s, Step::Acquire(_))),
                    "test must exercise lock traffic"
                );
                return;
            }
        }
        panic!("program never completed within the sweep");
    }
}
