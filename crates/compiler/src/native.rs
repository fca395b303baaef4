//! Tier-3 native execution: closure-fusion compilation above the bytecode
//! VM.
//!
//! The bytecode VM ([`crate::vm`]) still pays three per-instruction costs
//! the hardware does not have to: the dispatch `match` (one indirect
//! branch from a single, maximally-mispredicted call site), a bounds check
//! on every register operand, and a fuel/cost debit per [`Insn::Charge`].
//! This module removes all three by compiling each [`VmFunc`] *basic
//! block* into a single fused Rust closure at `compile()` time:
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
//!   partial sink match the VM and the tree-walker bit-for-bit.
//!
//! ## Typed kernels
//!
//! The mini-language is statically typed, and lowering carries sema's
//! operand type into every [`Insn::Binary`] and [`Insn::Unary`] as an
//! [`OpTy`]. Kernel selection keys on `(type, operator, operand shape)`:
//! f64 `+ - * /`, i64 wrapping `+ - *`, the six comparisons on either,
//! `Neg`, and `IntToDouble` compile to kernels over untagged operands —
//! one total read per operand (`Double(x) => x`, anything else NaN; `0`
//! for i64) and no tag dispatch, no guard, no error path. Reference
//! `==`/`!=`, the bool operators, and int `/`/`%` (division by zero must
//! raise) keep the checked, tag-dispatching `binary_op`.
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
//! sentinels ([`RET`], [`CALLX`], [`ERR`]) — so the whole chain's result
//! travels in a register instead of dragging a multi-word
//! `Result<BlockExit, _>` through every nested return. Block *exits* with
//! compile-time-constant payloads (which register to return, which
//! function to call) live in a per-block [`ExitDesc`] side table the
//! executor consults only when a sentinel comes back; runtime errors park
//! in the frame (`NativeFrame::err`). Calls terminate blocks so the
//! executor can re-window the register stack for the callee frame; plain
//! jumps stay inside the executor's inner loop, which keeps one frame
//! alive across all of a function's block transitions.
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
//! all three tiers.
//!
//! ## Determinism contract
//!
//! Identical to the VM's (see [`crate::vm`]): same return values, heap,
//! globals, step sequences, error messages, and fuel boundary as the
//! tree-walker on every successful run; error paths may differ only in
//! partially-flushed sink contents around host calls (which batch their
//! preceding node charges after the call). `tests/native_differential.rs`
//! enforces the contract across all three tiers.

use crate::interp::{binary_op, check_args, unary_op, CostModel, ProgramEnv, RuntimeError, Value};
use crate::vm::{Insn, OpTy, VmFunc, VmModule, NO_REG};
use dynfb_lang::hir::{BinOp, UnOp};
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
                None => return $fr.fail(RuntimeError::new("`this` outside method")),
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
    Binary {
        dst: usize,
        op: BinOp,
        ty: OpTy,
        lhs: Operand,
        rhs: Operand,
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
            MOp::Binary { lhs, rhs, .. } => {
                op(lhs);
                op(rhs);
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
/// generation counters for invalidation).
struct Prop {
    vals: Vec<Val>,
    gens: Vec<u64>,
    clock: u64,
}

impl Prop {
    fn new(num_regs: usize) -> Self {
        Prop { vals: vec![Val::Unknown; num_regs], gens: vec![0; num_regs], clock: 0 }
    }

    /// The best source for reading `reg` right now.
    fn resolve(&self, reg: usize) -> Operand {
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

/// Dense register set for the liveness fixpoint.
#[derive(Clone, PartialEq)]
struct RegSet {
    bits: Vec<u64>,
}

impl RegSet {
    fn new(num_regs: usize) -> Self {
        RegSet { bits: vec![0; num_regs.div_ceil(64)] }
    }

    fn set(&mut self, i: usize) {
        self.bits[i / 64] |= 1 << (i % 64);
    }

    fn clear(&mut self, i: usize) {
        self.bits[i / 64] &= !(1 << (i % 64));
    }

    fn get(&self, i: usize) -> bool {
        self.bits[i / 64] & (1 << (i % 64)) != 0
    }

    fn union_with(&mut self, o: &RegSet) -> bool {
        let mut changed = false;
        for (a, b) in self.bits.iter_mut().zip(&o.bits) {
            let nv = *a | b;
            changed |= nv != *a;
            *a = nv;
        }
        changed
    }

    fn subtract(&mut self, o: &RegSet) {
        for (a, b) in self.bits.iter_mut().zip(&o.bits) {
            *a &= !b;
        }
    }
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
/// identical in both sources, and every callee it names has the same name
/// and arity in both. The first
/// matching base wins; everything else is compiled afresh, so the result
/// runs exactly like [`compile_native`]`(module, cost)`.
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
    let funcs = module
        .funcs
        .iter()
        .enumerate()
        .map(|(i, f)| match bases.iter().find(|(src, _)| same_compiled_code(module, src, i)) {
            Some((_, base)) => base.funcs[i].clone(),
            None => compile_func(f, module, cost),
        })
        .collect();
    Arc::new(NativeModule { funcs, cost: *cost })
}

/// Whether function `i` compiles to the same closures in `a` as in `b`.
/// The lowered functions must be identical (constants compared by bits, so
/// `-0.0` differs from `0.0`), and every `Call`/`CheckRecv` target must
/// have the same name and arity in both modules: the closures embed the
/// callee's arity (argument gathering) and name (null-receiver message).
fn same_compiled_code(a: &VmModule, b: &VmModule, i: usize) -> bool {
    let (Some(f), Some(g)) = (a.funcs.get(i), b.funcs.get(i)) else {
        return false;
    };
    let same_callee = |func: u32| match (a.funcs.get(func as usize), b.funcs.get(func as usize)) {
        (Some(x), Some(y)) => x.name == y.name && x.num_params == y.num_params,
        _ => false,
    };
    f.name == g.name
        && f.num_params == g.num_params
        && f.num_regs == g.num_regs
        && f.local_defaults.len() == g.local_defaults.len()
        && f.local_defaults.iter().zip(&g.local_defaults).all(|(x, y)| same_value(*x, *y))
        && f.code.len() == g.code.len()
        && f.code.iter().zip(&g.code).all(|(x, y)| {
            same_insn(x, y)
                && match x {
                    Insn::Call { func, .. } | Insn::CheckRecv { func, .. } => same_callee(*func),
                    _ => true,
                }
        })
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
        Some((n, total)) => Box::new(move |fr| {
            let need = u64::from(n);
            if need > *fr.fuel {
                // Bisect the block debit at the fuel boundary: the sink
                // records exactly the consumed fuel, matching the
                // per-node tiers bit-for-bit.
                let used = u32::try_from(*fr.fuel).expect("fuel < n <= u32::MAX");
                fr.sink.compute_batch(node_cost, used);
                *fr.fuel = 0;
                return fr.fail(fuel_exhausted());
            }
            *fr.fuel -= need;
            fr.sink.compute(total);
            f(fr)
        }),
    }
}

#[allow(clippy::too_many_lines)]
fn compile_func(f: &VmFunc, module: &VmModule, cost: &CostModel) -> NativeFunc {
    let code = &f.code[..];
    let n = code.len();
    let num_regs = f.num_regs;
    assert!(
        matches!(code.last(), Some(Insn::Return { .. })),
        "`{}`: function must end in Return",
        f.name
    );

    // Validate every register operand once; run-time access is unchecked.
    let r = |reg: crate::vm::Reg| -> usize {
        let i = usize::from(reg);
        assert!(i < num_regs, "`{}`: register {i} outside frame of {num_regs}", f.name);
        i
    };

    // Block leaders: entry, jump targets, and the instruction after every
    // terminator. Calls terminate blocks too — the executor must re-window
    // the register stack around the callee frame.
    let mut is_leader = vec![false; n + 1];
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
    let mut starts: Vec<usize> = Vec::new();
    let mut block_of = vec![u32::MAX; n + 1];
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
    let mut bodies: Vec<Vec<MOp>> = Vec::with_capacity(nb);
    let mut exits: Vec<MExit> = Vec::with_capacity(nb);
    for (b, &start) in starts.iter().enumerate() {
        let end = starts.get(b + 1).copied().unwrap_or(n);
        let last = end - 1;
        let in_range = |t: u32| (t as usize) < nb;
        let terminator = matches!(
            code[last],
            Insn::Jump { .. } | Insn::JumpIfFalse { .. } | Insn::Return { .. } | Insn::Call { .. }
        );
        let body_end = if terminator { last } else { end };

        let mut p = Prop::new(num_regs);
        let mut body: Vec<MOp> = Vec::new();
        for insn in &code[start..body_end] {
            propagate(insn, &mut p, &mut body, &r, num_regs, &f.name);
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
                    match p.resolve(r(*cond)) {
                        // A constant condition decides the branch now.
                        Operand::Imm(v) => MExit::Jump {
                            target: if matches!(v, Value::Bool(true)) { fall } else { taken },
                        },
                        cond => MExit::Branch { cond, taken, fall },
                    }
                }
                Insn::Return { src } => MExit::Return { src: p.resolve(r(*src)) },
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
                        args: (0..cf.num_params).map(|i| p.resolve(abase + i)).collect(),
                        recv: if *recv == NO_REG { None } else { Some(p.resolve(r(*recv))) },
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
        bodies.push(body);
        exits.push(exit);
    }

    // ---- pass 2: register liveness across blocks ----
    let mut ue = Vec::with_capacity(nb);
    let mut defs = Vec::with_capacity(nb);
    for b in 0..nb {
        let mut u = RegSet::new(num_regs);
        let mut d = RegSet::new(num_regs);
        for opn in &bodies[b] {
            opn.for_each_use(&mut |r0| {
                if !d.get(r0) {
                    u.set(r0);
                }
            });
            if let Some(dr) = opn.def_reg() {
                d.set(dr);
            }
        }
        exits[b].for_each_use(&mut |r0| {
            if !d.get(r0) {
                u.set(r0);
            }
        });
        if let Some(dr) = exits[b].def_reg() {
            d.set(dr);
        }
        ue.push(u);
        defs.push(d);
    }
    let mut live_in = vec![RegSet::new(num_regs); nb];
    let mut live_out = vec![RegSet::new(num_regs); nb];
    loop {
        let mut changed = false;
        for b in (0..nb).rev() {
            exits[b].successors(&mut |s| {
                changed |= live_out[b].union_with(&live_in[s as usize]);
            });
            let mut ni = live_out[b].clone();
            ni.subtract(&defs[b]);
            ni.union_with(&ue[b]);
            if ni != live_in[b] {
                live_in[b] = ni;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // ---- pass 3: dead-store elimination ----
    //
    // `SetReg` is the only pure op (the front end rejects `this` outside
    // methods, so `LoadThis` cannot fail in compiled programs); one whose
    // destination is not read again before being redefined is deleted.
    for b in 0..nb {
        let body = &mut bodies[b];
        let mut needed = live_out[b].clone();
        if let Some(d) = exits[b].def_reg() {
            needed.clear(d);
        }
        exits[b].for_each_use(&mut |r0| needed.set(r0));
        let mut keep = vec![true; body.len()];
        for (i, opn) in body.iter().enumerate().rev() {
            if let MOp::SetReg { dst, src } = opn {
                if !needed.get(*dst) || *src == Operand::Reg(*dst) {
                    keep[i] = false;
                    continue;
                }
            }
            if let Some(d) = opn.def_reg() {
                needed.clear(d);
            }
            opn.for_each_use(&mut |r0| needed.set(r0));
        }
        let mut it = keep.iter();
        body.retain(|_| *it.next().expect("keep mask covers body"));
    }

    // ---- pass 4: charge folding + kernel chaining ----
    //
    // Each charge becomes its successor kernel's prologue (adjacent
    // charges — separated only by deleted stores — merge first, which is
    // step-equivalent because the sink merges consecutive computes and
    // the bisected debit totals are identical). Then the straight-line
    // kernels fuse back-to-front onto the exit, so each kernel tail-calls
    // its successor through a private call site.
    let mut blocks: Vec<NativeBlock> = Vec::with_capacity(nb);
    for (body, exit) in bodies.into_iter().zip(exits) {
        let mut fused: Vec<(ChargePrologue, Option<MOp>)> = Vec::new();
        let mut exit_charge: ChargePrologue = None;
        let mut it = body.into_iter().peekable();
        while let Some(opn) = it.next() {
            let MOp::Charge(mut total) = opn else {
                fused.push((None, Some(opn)));
                continue;
            };
            while let Some(MOp::Charge(m)) = it.peek() {
                match total.checked_add(*m) {
                    Some(s) => {
                        total = s;
                        it.next();
                    }
                    None => break,
                }
            }
            let ch = Some((total, node_cost * total));
            match it.peek() {
                None => exit_charge = ch,
                // Only reachable on u32 charge overflow: keep a bare
                // charge kernel rather than merging further.
                Some(MOp::Charge(_)) => fused.push((ch, None)),
                Some(_) => fused.push((ch, it.next())),
            }
        }

        let (mut chain, desc): (Kernel, ExitDesc) = match exit {
            MExit::Jump { target } => {
                (kch(exit_charge, node_cost, move |_| target), ExitDesc::Jump)
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
        for (ch, opn) in fused.into_iter().rev() {
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

/// Lower one straight-line instruction to micro-ops, resolving its reads
/// against the propagation state and recording its write.
#[allow(clippy::too_many_lines)]
fn propagate(
    insn: &Insn,
    p: &mut Prop,
    out: &mut Vec<MOp>,
    r: &dyn Fn(crate::vm::Reg) -> usize,
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
            out.push(MOp::Binary { dst: d, op: *op, ty: *ty, lhs, rhs });
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
/// no tag test and no error path.
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

/// A typed binary kernel: `f` over untagged operands, monomorphized per
/// operator and per operand shape (reg-reg, reg-imm, imm-reg; immediates
/// are untagged once, here).
fn typed_binary<T: Untag>(
    dst: usize,
    lhs: Operand,
    rhs: Operand,
    ch: ChargePrologue,
    node_cost: Duration,
    next: Kernel,
    f: impl Fn(T, T) -> Value + Send + Sync + 'static,
) -> Kernel {
    match (lhs, rhs) {
        (Operand::Reg(l), Operand::Reg(r)) => kch(ch, node_cost, move |fr| {
            let v = f(T::untag(fr.rd(l)), T::untag(fr.rd(r)));
            fr.wr(dst, v);
            next(fr)
        }),
        (Operand::Reg(l), Operand::Imm(b)) => {
            let b = T::untag(b);
            kch(ch, node_cost, move |fr| {
                let v = f(T::untag(fr.rd(l)), b);
                fr.wr(dst, v);
                next(fr)
            })
        }
        (Operand::Imm(a), Operand::Reg(r)) => {
            let a = T::untag(a);
            kch(ch, node_cost, move |fr| {
                let v = f(a, T::untag(fr.rd(r)));
                fr.wr(dst, v);
                next(fr)
            })
        }
        (lhs, rhs) => kch(ch, node_cost, move |fr| {
            let v = f(T::untag(rdop!(fr, lhs)), T::untag(rdop!(fr, rhs)));
            fr.wr(dst, v);
            next(fr)
        }),
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
                    return fr.fail(RuntimeError::new("field read on null/non-object"));
                };
                let v = fr.env.heap.objects[id].fields[field];
                fr.wr(dst, v);
                next(fr)
            }),
            obj => kch(ch, node_cost, move |fr| {
                let Value::Obj(id) = rdop!(fr, obj) else {
                    return fr.fail(RuntimeError::new("field read on null/non-object"));
                };
                let v = fr.env.heap.objects[id].fields[field];
                fr.wr(dst, v);
                next(fr)
            }),
        },
        MOp::FieldSet { obj, field, src } => kch(ch, node_cost, move |fr| {
            let v = rdop!(fr, src);
            let Value::Obj(id) = rdop!(fr, obj) else {
                return fr.fail(RuntimeError::new("field write on null/non-object"));
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
        MOp::Binary { dst, op, ty, lhs, rhs } => {
            use Value::{Bool, Double, Int};
            macro_rules! typed {
                ($t:ty, $f:expr) => {
                    typed_binary::<$t>(dst, lhs, rhs, ch, node_cost, next, $f)
                };
            }
            match (ty, op) {
                (OpTy::Double, BinOp::Add) => typed!(f64, |a, b| Double(a + b)),
                (OpTy::Double, BinOp::Sub) => typed!(f64, |a, b| Double(a - b)),
                (OpTy::Double, BinOp::Mul) => typed!(f64, |a, b| Double(a * b)),
                (OpTy::Double, BinOp::Div) => typed!(f64, |a, b| Double(a / b)),
                (OpTy::Double, BinOp::Lt) => typed!(f64, |a, b| Bool(a < b)),
                (OpTy::Double, BinOp::Le) => typed!(f64, |a, b| Bool(a <= b)),
                (OpTy::Double, BinOp::Gt) => typed!(f64, |a, b| Bool(a > b)),
                (OpTy::Double, BinOp::Ge) => typed!(f64, |a, b| Bool(a >= b)),
                (OpTy::Double, BinOp::Eq) => typed!(f64, |a, b| Bool(a == b)),
                (OpTy::Double, BinOp::Ne) => typed!(f64, |a, b| Bool(a != b)),
                (OpTy::Int, BinOp::Add) => typed!(i64, |a: i64, b| Int(a.wrapping_add(b))),
                (OpTy::Int, BinOp::Sub) => typed!(i64, |a: i64, b| Int(a.wrapping_sub(b))),
                (OpTy::Int, BinOp::Mul) => typed!(i64, |a: i64, b| Int(a.wrapping_mul(b))),
                (OpTy::Int, BinOp::Lt) => typed!(i64, |a, b| Bool(a < b)),
                (OpTy::Int, BinOp::Le) => typed!(i64, |a, b| Bool(a <= b)),
                (OpTy::Int, BinOp::Gt) => typed!(i64, |a, b| Bool(a > b)),
                (OpTy::Int, BinOp::Ge) => typed!(i64, |a, b| Bool(a >= b)),
                (OpTy::Int, BinOp::Eq) => typed!(i64, |a, b| Bool(a == b)),
                (OpTy::Int, BinOp::Ne) => typed!(i64, |a, b| Bool(a != b)),
                // Reference `==`/`!=`, the bool operators, and int `/`/`%`
                // (which raise division by zero) stay on the checked,
                // tag-dispatching path.
                _ => kch(ch, node_cost, move |fr| {
                    let (a, b) = (rdop!(fr, lhs), rdop!(fr, rhs));
                    match binary_op(op, a, b) {
                        Ok(v) => {
                            fr.wr(dst, v);
                            next(fr)
                        }
                        Err(e) => fr.fail(e),
                    }
                }),
            }
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
            assert!(args.len() <= 16, "host call arity above fused-kernel limit");
            let args = args.into_boxed_slice();
            kch(ch, node_cost, move |fr| {
                let mut buf = [Value::Null; 16];
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
    use crate::vm::{lower_functions, Vm};
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
    }

    /// Run one function under all three tiers with the given fuel.
    fn tiers(src: &str, func: &str, args: &[Value], fuel: u64) -> [Outcome; 3] {
        let hir = compile_source(src).unwrap_or_else(|e| panic!("{e}"));
        let f = hir.function_named(func).expect("function");
        let base = lock_base(1024);
        let module = lower_functions(&hir.functions);
        let native = compile_native(&module, &CostModel::default());

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
            Outcome { result, steps: sink.into_steps().into_iter().collect(), globals: env.globals }
        };
        let vm = {
            let mut env = env_for(&hir);
            let mut sink = OpSink::default();
            let mut regs = Vec::new();
            let result = Vm {
                env: &mut env,
                module: &module,
                cost: CostModel::default(),
                sink: &mut sink,
                lock_base: base,
                lock_capacity: 1024,
                fuel,
                regs: &mut regs,
            }
            .call(f.0, None, args);
            Outcome { result, steps: sink.into_steps().into_iter().collect(), globals: env.globals }
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
            Outcome { result, steps: sink.into_steps().into_iter().collect(), globals: env.globals }
        };
        [tree, vm, nat]
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

    #[test]
    fn recursion_and_control_flow_match() {
        let [tree, vm, nat] = tiers(
            "int fib(int n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }",
            "fib",
            &[Value::Int(12)],
            10_000_000,
        );
        assert_eq!(tree.result.as_ref().unwrap(), &Value::Int(144));
        assert_eq!(tree.result, vm.result);
        assert_eq!(tree.result, nat.result);
        assert_eq!(tree.steps, nat.steps);
        assert_eq!(vm.steps, nat.steps);
    }

    #[test]
    fn loops_heap_and_externs_match() {
        let src = "extern double hostadd(double, double);
             class cell { int count; void bump(int n) { this.count += n; } }
             double test(int n) {
                 cell[] cells = new cell[n];
                 for (int i = 0; i < n; i++) { cells[i] = new cell(); }
                 int j = n * 2;
                 while (j > 0) { j = j - 1; cells[j % n].bump(j); }
                 double acc = 0.0;
                 for (int i = 0; i < n; i++) { acc = hostadd(acc, cells[i].count * 0.5); }
                 return acc;
             }";
        let [tree, vm, nat] = tiers(src, "test", &[Value::Int(6)], 10_000_000);
        assert_eq!(tree.result, nat.result);
        assert_eq!(vm.result, nat.result);
        assert_eq!(tree.steps, nat.steps);
        assert_eq!(tree.globals, nat.globals);
    }

    /// The typed boundaries: entry arguments are checked for arity and
    /// scalar tags, and a host result must match the extern's declared
    /// return type. Every tier returns the same error, and none panics.
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
            for (tier, o) in ["tree", "vm", "native"].iter().zip(tiers(src, func, args, 10_000)) {
                let err = o.result.expect_err(tier);
                assert_eq!(err.message, want, "{tier}, {func}({args:?})");
            }
        }
        let [tree, vm, nat] = tiers(src, "inc", &[Value::Int(41)], 10_000);
        assert_eq!(tree.result, Ok(Value::Int(42)));
        assert_eq!(vm.result, tree.result);
        assert_eq!(nat.result, tree.result);
    }

    /// The fused-block debit bisects exactly at the fuel boundary: for
    /// every fuel value, all three tiers agree on success/failure, and an
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
            let [tree, vm, nat] = tiers(src, "burn", &[Value::Int(9)], fuel);
            assert_eq!(
                tree.result.is_ok(),
                nat.result.is_ok(),
                "tree vs native disagree at fuel {fuel}"
            );
            assert_eq!(vm.result.is_ok(), nat.result.is_ok(), "vm vs native disagree at {fuel}");
            assert_eq!(tree.steps, nat.steps, "partial sinks differ at fuel {fuel}");
            assert_eq!(vm.steps, nat.steps, "partial sinks differ at fuel {fuel}");
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
    /// the same acquire/release prefix in every tier (the lowering flushes
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
