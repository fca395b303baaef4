//! The HIR interpreter: runs compiled programs on the simulated machine.
//!
//! Compiled code executes by tree-walking the (policy-transformed) HIR.
//! Every evaluated node charges a small, configurable cost into the
//! [`OpSink`], so computation cost is proportional to the work the
//! generated machine code would perform; critical regions emit lock
//! acquire/release steps against the per-object locks of the simulated
//! machine; `extern` functions dispatch to host (Rust) closures with their
//! own configurable costs — this is how applications get inputs and how
//! expensive numeric kernels (like the paper's `interact`) are modeled.

use dynfb_lang::hir::{BinOp, Class, Expr, ExprKind, Extern, Function, Place, Stmt, Ty, UnOp};
use dynfb_sim::{LockId, OpSink};
use std::collections::HashMap;
use std::fmt;
use std::time::Duration;

/// A runtime value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Double(f64),
    /// Boolean.
    Bool(bool),
    /// Object reference (heap index).
    Obj(usize),
    /// Array reference (heap index).
    Arr(usize),
    /// Null reference.
    Null,
}

impl Value {
    /// Default value for a type (zero / false / null).
    #[must_use]
    pub fn default_for(ty: &Ty) -> Value {
        match ty {
            Ty::Int => Value::Int(0),
            Ty::Double => Value::Double(0.0),
            Ty::Bool => Value::Bool(false),
            _ => Value::Null,
        }
    }

    /// As an integer.
    ///
    /// # Errors
    ///
    /// Returns a type error for non-integers.
    #[inline]
    pub fn as_int(self) -> Result<i64, RuntimeError> {
        match self {
            Value::Int(v) => Ok(v),
            other => Err(RuntimeError::new(format!("expected int, got {other:?}"))),
        }
    }

    /// As a float.
    ///
    /// # Errors
    ///
    /// Returns a type error for non-floats.
    #[inline]
    pub fn as_double(self) -> Result<f64, RuntimeError> {
        match self {
            Value::Double(v) => Ok(v),
            Value::Int(v) => Ok(v as f64),
            other => Err(RuntimeError::new(format!("expected double, got {other:?}"))),
        }
    }
}

/// A heap object.
#[derive(Debug, Clone)]
pub struct Object {
    /// Class index.
    pub class: usize,
    /// Field values.
    pub fields: Vec<Value>,
}

/// The program heap: objects and arrays.
#[derive(Debug, Clone, Default)]
pub struct Heap {
    /// Allocated objects (index = object id = lock id offset).
    pub objects: Vec<Object>,
    /// Allocated arrays.
    pub arrays: Vec<Vec<Value>>,
}

impl Heap {
    /// Allocate an object of a class (fields zeroed).
    pub fn alloc_object(&mut self, class_idx: usize, classes: &[Class]) -> usize {
        let fields = classes[class_idx].fields.iter().map(|f| Value::default_for(&f.ty)).collect();
        self.objects.push(Object { class: class_idx, fields });
        self.objects.len() - 1
    }

    /// Allocate an array of `len` default values.
    pub fn alloc_array(&mut self, elem: &Ty, len: usize) -> usize {
        self.arrays.push(vec![Value::default_for(elem); len]);
        self.arrays.len() - 1
    }
}

/// A runtime error (null dereference, division by zero, ...).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuntimeError {
    /// Human-readable message.
    pub message: String,
}

impl RuntimeError {
    /// Create an error.
    #[must_use]
    pub fn new(message: impl Into<String>) -> Self {
        RuntimeError { message: message.into() }
    }
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "runtime error: {}", self.message)
    }
}

impl std::error::Error for RuntimeError {}

/// Implementation of a host-provided `extern` function.
///
/// Host functions must be `Send` so a [`CompiledApp`](crate::artifact::CompiledApp)
/// can be built on one thread and run on another (the bench engine farms
/// whole runs out to worker threads). Stateful hosts should own their state
/// (capture by value) rather than share `Rc` handles.
pub type HostImpl = Box<dyn FnMut(&[Value]) -> Value + Send>;

/// A host-implemented `extern` function.
pub struct HostFn {
    /// Cost charged per call (models the kernel's real execution time).
    pub cost: Duration,
    /// The implementation.
    pub call: HostImpl,
}

impl fmt::Debug for HostFn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HostFn").field("cost", &self.cost).finish_non_exhaustive()
    }
}

/// Registry of host functions, keyed by extern name.
///
/// Host functions are stored densely; the name map is consulted only at
/// registration and link time. [`link`](HostRegistry::link) resolves every
/// program extern to its dense index once, so the per-call hot path is a
/// single slice access instead of a `String` clone plus hash lookup.
#[derive(Debug, Default)]
pub struct HostRegistry {
    fns: Vec<HostFn>,
    by_name: HashMap<String, usize>,
    /// Extern id → index into `fns`; `usize::MAX` marks an unimplemented
    /// extern. Rebuilt lazily whenever the registry changes.
    resolved: Vec<usize>,
}

/// Sentinel in [`HostRegistry::resolved`] for externs with no host.
const UNRESOLVED: usize = usize::MAX;

impl HostRegistry {
    /// Empty registry.
    #[must_use]
    pub fn new() -> Self {
        HostRegistry::default()
    }

    /// Register a host function. Re-registering a name replaces the
    /// previous implementation.
    pub fn register(
        &mut self,
        name: &str,
        cost: Duration,
        call: impl FnMut(&[Value]) -> Value + Send + 'static,
    ) {
        let f = HostFn { cost, call: Box::new(call) };
        match self.by_name.get(name) {
            Some(&i) => self.fns[i] = f,
            None => {
                self.by_name.insert(name.to_string(), self.fns.len());
                self.fns.push(f);
            }
        }
        // Any change invalidates the link table; it is rebuilt on demand.
        self.resolved.clear();
    }

    /// Whether `name` is registered.
    #[must_use]
    pub fn contains(&self, name: &str) -> bool {
        self.by_name.contains_key(name)
    }

    /// Resolve every extern of a program to its dense host-fn index. Called
    /// once at compile/link time; extern calls afterwards are index lookups.
    pub fn link(&mut self, externs: &[Extern]) {
        self.resolved = externs
            .iter()
            .map(|e| self.by_name.get(&e.name).copied().unwrap_or(UNRESOLVED))
            .collect();
    }

    /// Fetch the host function for extern `ext`, linking lazily if the
    /// registry changed (or was never linked) since the last call.
    fn dispatch(&mut self, ext: usize, externs: &[Extern]) -> Result<&mut HostFn, RuntimeError> {
        if self.resolved.len() != externs.len() {
            self.link(externs);
        }
        let idx = self.resolved[ext];
        if idx == UNRESOLVED {
            return Err(RuntimeError::new(format!(
                "extern `{}` has no host implementation",
                externs[ext].name
            )));
        }
        Ok(&mut self.fns[idx])
    }

    /// Call extern `ext` — the one host-call path of every tier: dispatch
    /// it, charge its cost into `sink` (`extern_default` when the host sets
    /// none), run it, and check the result against the extern's declared
    /// return type, so a mistyped host fails at the call instead of
    /// poisoning a typed register.
    ///
    /// # Errors
    ///
    /// Returns a runtime error when the extern has no host implementation
    /// or its host returns a value of another type than declared.
    #[inline]
    pub fn call(
        &mut self,
        ext: usize,
        externs: &[Extern],
        args: &[Value],
        extern_default: Duration,
        sink: &mut OpSink,
    ) -> Result<Value, RuntimeError> {
        let host_fn = self.dispatch(ext, externs)?;
        sink.compute(if host_fn.cost.is_zero() { extern_default } else { host_fn.cost });
        let v = (host_fn.call)(args);
        let decl = &externs[ext];
        if decl.ret == Ty::Void || fits(v, Value::default_for(&decl.ret)) {
            Ok(v)
        } else {
            Err(RuntimeError::new(format!(
                "extern `{}` returned {v:?}, declared `{}`",
                decl.name, decl.ret
            )))
        }
    }
}

/// Whether `v` can live in a slot whose type has the default `slot`: the
/// same scalar tag, or any reference for a reference slot.
fn fits(v: Value, slot: Value) -> bool {
    use Value::{Arr, Bool, Double, Int, Null, Obj};
    match slot {
        Int(_) => matches!(v, Int(_)),
        Double(_) => matches!(v, Double(_)),
        Bool(_) => matches!(v, Bool(_)),
        Obj(_) | Arr(_) | Null => matches!(v, Obj(_) | Arr(_) | Null),
    }
}

/// Validate entry arguments against a function's parameters, given as
/// their type defaults: the same check, with the same messages, in every
/// tier's `call`.
///
/// # Errors
///
/// Returns a runtime error on an arity mismatch or an argument whose tag
/// does not fit its parameter's type.
pub(crate) fn check_args(
    func: &str,
    params: impl ExactSizeIterator<Item = Value>,
    args: &[Value],
) -> Result<(), RuntimeError> {
    if params.len() != args.len() {
        return Err(RuntimeError::new(format!(
            "`{func}` expects {} arguments, got {}",
            params.len(),
            args.len()
        )));
    }
    for (i, (p, &a)) in params.zip(args).enumerate() {
        if !fits(a, p) {
            let want = match p {
                Value::Int(_) => "int",
                Value::Double(_) => "double",
                Value::Bool(_) => "bool",
                _ => "a reference",
            };
            return Err(RuntimeError::new(format!(
                "argument {i} of `{func}` is {a:?}, expected {want}"
            )));
        }
    }
    Ok(())
}

/// The cost model for interpreted code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// Cost per evaluated HIR node (ALU op, field access, ...).
    pub node: Duration,
    /// Default cost of an extern call whose host function sets no cost.
    pub extern_default: Duration,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel { node: Duration::from_nanos(8), extern_default: Duration::from_nanos(60) }
    }
}

/// Mutable program state shared by all sections of a compiled application.
#[derive(Debug)]
pub struct ProgramEnv {
    /// Class metadata.
    pub classes: Vec<Class>,
    /// Extern signatures.
    pub externs: Vec<Extern>,
    /// Global variable values.
    pub globals: Vec<Value>,
    /// The heap.
    pub heap: Heap,
    /// Host functions.
    pub host: HostRegistry,
}

/// Everything needed to execute code: the environment plus output sink.
pub struct Interp<'a> {
    /// Program state.
    pub env: &'a mut ProgramEnv,
    /// Function table to dispatch calls against (one policy version).
    pub funcs: &'a [Function],
    /// Cost model.
    pub cost: CostModel,
    /// Destination for compute/acquire/release steps.
    pub sink: &'a mut OpSink,
    /// First lock of the per-object lock pool.
    pub lock_base: LockId,
    /// Size of the lock pool (max objects).
    pub lock_capacity: usize,
    /// Remaining evaluation steps (guards against runaway loops).
    pub fuel: u64,
}

enum Flow {
    Normal,
    Return(Value),
}

impl<'a> Interp<'a> {
    fn charge(&mut self) -> Result<(), RuntimeError> {
        // Fuel is checked *before* charging: an exhausted run's sink holds
        // exactly one node cost per unit of fuel actually consumed. The
        // batched tiers bisect their block debits at the same boundary, so
        // all tiers agree on the partial sink contents at exhaustion.
        if self.fuel == 0 {
            return Err(RuntimeError::new("evaluation fuel exhausted (runaway loop?)"));
        }
        self.fuel -= 1;
        self.sink.compute(self.cost.node);
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

    /// Call function `func` with an optional receiver.
    ///
    /// # Errors
    ///
    /// Returns a runtime error when the arguments do not match the
    /// callee's parameters, and propagates any runtime error from the
    /// callee.
    pub fn call(
        &mut self,
        func: usize,
        this: Option<Value>,
        args: Vec<Value>,
    ) -> Result<Value, RuntimeError> {
        let f = &self.funcs[func];
        let params = f.locals[..f.num_params].iter().map(|l| Value::default_for(&l.ty));
        check_args(&f.name, params, &args)?;
        self.invoke(func, this, args)
    }

    /// A call sema already checked.
    fn invoke(
        &mut self,
        func: usize,
        this: Option<Value>,
        args: Vec<Value>,
    ) -> Result<Value, RuntimeError> {
        self.charge()?;
        let f = &self.funcs[func];
        let mut locals: Vec<Value> = f.locals.iter().map(|l| Value::default_for(&l.ty)).collect();
        locals[..args.len()].copy_from_slice(&args);
        let mut frame = Frame { locals, this };
        // Reborrow the function table independently of `self` so the body
        // can be walked while `self` is mutated for accounting.
        let funcs: &'a [Function] = self.funcs;
        let body = &funcs[func].body;
        match self.stmts(body, &mut frame)? {
            Flow::Return(v) => Ok(v),
            Flow::Normal => Ok(Value::Null),
        }
    }

    /// Execute a bare statement list (a parallel-loop body) with a
    /// prepared frame.
    ///
    /// # Errors
    ///
    /// Propagates runtime errors.
    pub fn exec_body(
        &mut self,
        body: &[Stmt],
        locals: Vec<Value>,
        this: Option<Value>,
    ) -> Result<Vec<Value>, RuntimeError> {
        let mut frame = Frame { locals, this };
        self.stmts(body, &mut frame)?;
        Ok(frame.locals)
    }

    fn stmts(&mut self, stmts: &[Stmt], frame: &mut Frame) -> Result<Flow, RuntimeError> {
        for s in stmts {
            if let Flow::Return(v) = self.stmt(s, frame)? {
                return Ok(Flow::Return(v));
            }
        }
        Ok(Flow::Normal)
    }

    fn stmt(&mut self, s: &Stmt, frame: &mut Frame) -> Result<Flow, RuntimeError> {
        self.charge()?;
        match s {
            Stmt::Assign { place, value } => {
                let v = self.eval(value, frame)?;
                match place {
                    Place::Local(l) => frame.locals[l.0] = v,
                    Place::Global(g) => self.env.globals[g.0] = v,
                    Place::Field { obj, field, .. } => {
                        let o = self.eval(obj, frame)?;
                        let Value::Obj(id) = o else {
                            return Err(RuntimeError::new("field write on null/non-object"));
                        };
                        self.env.heap.objects[id].fields[*field] = v;
                    }
                    Place::Index { arr, idx } => {
                        let a = self.eval(arr, frame)?;
                        let i = self.eval(idx, frame)?.as_int()?;
                        let Value::Arr(id) = a else {
                            return Err(RuntimeError::new("index write on null/non-array"));
                        };
                        let arr = &mut self.env.heap.arrays[id];
                        let len = arr.len();
                        *arr.get_mut(usize::try_from(i).unwrap_or(usize::MAX)).ok_or_else(
                            || RuntimeError::new(format!("index {i} out of bounds ({len})")),
                        )? = v;
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::If { cond, then_branch, else_branch } => {
                let c = self.eval(cond, frame)?;
                if matches!(c, Value::Bool(true)) {
                    self.stmts(then_branch, frame)
                } else {
                    self.stmts(else_branch, frame)
                }
            }
            Stmt::While { cond, body } => loop {
                self.charge()?;
                let c = self.eval(cond, frame)?;
                if !matches!(c, Value::Bool(true)) {
                    return Ok(Flow::Normal);
                }
                if let Flow::Return(v) = self.stmts(body, frame)? {
                    return Ok(Flow::Return(v));
                }
            },
            Stmt::CountedFor { var, start, bound, body } => {
                let start = self.eval(start, frame)?.as_int()?;
                let bound = self.eval(bound, frame)?.as_int()?;
                let mut i = start;
                while i < bound {
                    self.charge()?;
                    frame.locals[var.0] = Value::Int(i);
                    if let Flow::Return(v) = self.stmts(body, frame)? {
                        return Ok(Flow::Return(v));
                    }
                    i += 1;
                }
                Ok(Flow::Normal)
            }
            Stmt::Return(v) => {
                let v = match v {
                    Some(e) => self.eval(e, frame)?,
                    None => Value::Null,
                };
                Ok(Flow::Return(v))
            }
            Stmt::Expr(e) => {
                self.eval(e, frame)?;
                Ok(Flow::Normal)
            }
            Stmt::Critical { lock_obj, body, .. } => {
                let o = self.eval(lock_obj, frame)?;
                let Value::Obj(id) = o else {
                    return Err(RuntimeError::new("critical region on null/non-object"));
                };
                let lock = self.lock_for(id)?;
                self.sink.acquire(lock);
                let flow = self.stmts(body, frame)?;
                self.sink.release(lock);
                Ok(flow)
            }
        }
    }

    #[allow(clippy::too_many_lines)]
    fn eval(&mut self, e: &Expr, frame: &mut Frame) -> Result<Value, RuntimeError> {
        self.charge()?;
        Ok(match &e.kind {
            ExprKind::Int(v) => Value::Int(*v),
            ExprKind::Double(v) => Value::Double(*v),
            ExprKind::Bool(v) => Value::Bool(*v),
            ExprKind::Null => Value::Null,
            ExprKind::This => {
                frame.this.ok_or_else(|| RuntimeError::new("`this` outside method"))?
            }
            ExprKind::Local(l) => frame.locals[l.0],
            ExprKind::Global(g) => self.env.globals[g.0],
            ExprKind::FieldGet { obj, field, .. } => {
                let o = self.eval(obj, frame)?;
                let Value::Obj(id) = o else {
                    return Err(RuntimeError::new("field read on null/non-object"));
                };
                self.env.heap.objects[id].fields[*field]
            }
            ExprKind::Index { arr, idx } => {
                let a = self.eval(arr, frame)?;
                let i = self.eval(idx, frame)?.as_int()?;
                let Value::Arr(id) = a else {
                    return Err(RuntimeError::new("index read on null/non-array"));
                };
                let arr = &self.env.heap.arrays[id];
                *arr.get(usize::try_from(i).unwrap_or(usize::MAX)).ok_or_else(|| {
                    RuntimeError::new(format!("index {i} out of bounds ({})", arr.len()))
                })?
            }
            ExprKind::ArrayLen(a) => {
                let a = self.eval(a, frame)?;
                let Value::Arr(id) = a else {
                    return Err(RuntimeError::new("length of null/non-array"));
                };
                Value::Int(self.env.heap.arrays[id].len() as i64)
            }
            ExprKind::Binary { op, lhs, rhs } => {
                let l = self.eval(lhs, frame)?;
                let r = self.eval(rhs, frame)?;
                binary_op(*op, l, r)?
            }
            ExprKind::Unary { op, expr } => {
                let v = self.eval(expr, frame)?;
                unary_op(*op, v)?
            }
            ExprKind::IntToDouble(inner) => {
                let v = self.eval(inner, frame)?;
                Value::Double(v.as_int()? as f64)
            }
            ExprKind::CallFn { func, args } => {
                let argv = self.eval_args(args, frame)?;
                self.invoke(func.0, None, argv)?
            }
            ExprKind::CallMethod { obj, func, args } => {
                let o = self.eval(obj, frame)?;
                if o == Value::Null {
                    return Err(RuntimeError::new(format!(
                        "method `{}` on null",
                        self.funcs[func.0].name
                    )));
                }
                let argv = self.eval_args(args, frame)?;
                self.invoke(func.0, Some(o), argv)?
            }
            ExprKind::CallExtern { ext, args } => {
                let argv = self.eval_args(args, frame)?;
                let ProgramEnv { host, externs, .. } = &mut *self.env;
                host.call(ext.0, externs, &argv, self.cost.extern_default, self.sink)?
            }
            ExprKind::New { class } => {
                let id = self.env.heap.alloc_object(class.0, &self.env.classes);
                Value::Obj(id)
            }
            ExprKind::NewArray { elem, len } => {
                let n = self.eval(len, frame)?.as_int()?;
                if n < 0 {
                    return Err(RuntimeError::new("negative array length"));
                }
                let id = self.env.heap.alloc_array(elem, n as usize);
                Value::Arr(id)
            }
        })
    }

    fn eval_args(&mut self, args: &[Expr], frame: &mut Frame) -> Result<Vec<Value>, RuntimeError> {
        let mut out = Vec::with_capacity(args.len());
        for a in args {
            out.push(self.eval(a, frame)?);
        }
        Ok(out)
    }
}

/// Apply a binary operator to two values. Shared by the tree-walker and
/// the native tier's checked kernels and constant folding, so both tiers
/// have identical numeric semantics and error messages.
#[inline]
pub(crate) fn binary_op(op: BinOp, l: Value, r: Value) -> Result<Value, RuntimeError> {
    use Value::{Bool, Double, Int};
    Ok(match (op, l, r) {
        (BinOp::Add, Int(a), Int(b)) => Int(a.wrapping_add(b)),
        (BinOp::Sub, Int(a), Int(b)) => Int(a.wrapping_sub(b)),
        (BinOp::Mul, Int(a), Int(b)) => Int(a.wrapping_mul(b)),
        (BinOp::Div, Int(a), Int(b)) => {
            if b == 0 {
                return Err(RuntimeError::new("integer division by zero"));
            }
            Int(a.wrapping_div(b))
        }
        (BinOp::Rem, Int(a), Int(b)) => {
            if b == 0 {
                return Err(RuntimeError::new("integer remainder by zero"));
            }
            Int(a.wrapping_rem(b))
        }
        (BinOp::Add, Double(a), Double(b)) => Double(a + b),
        (BinOp::Sub, Double(a), Double(b)) => Double(a - b),
        (BinOp::Mul, Double(a), Double(b)) => Double(a * b),
        (BinOp::Div, Double(a), Double(b)) => Double(a / b),
        (BinOp::Lt, Int(a), Int(b)) => Bool(a < b),
        (BinOp::Le, Int(a), Int(b)) => Bool(a <= b),
        (BinOp::Gt, Int(a), Int(b)) => Bool(a > b),
        (BinOp::Ge, Int(a), Int(b)) => Bool(a >= b),
        (BinOp::Lt, Double(a), Double(b)) => Bool(a < b),
        (BinOp::Le, Double(a), Double(b)) => Bool(a <= b),
        (BinOp::Gt, Double(a), Double(b)) => Bool(a > b),
        (BinOp::Ge, Double(a), Double(b)) => Bool(a >= b),
        (BinOp::Eq, a, b) => Bool(a == b),
        (BinOp::Ne, a, b) => Bool(a != b),
        (BinOp::And, Bool(a), Bool(b)) => Bool(a && b),
        (BinOp::Or, Bool(a), Bool(b)) => Bool(a || b),
        (op, l, r) => {
            return Err(RuntimeError::new(format!(
                "type error in binary op {op:?} on {l:?}, {r:?}"
            )))
        }
    })
}

/// Apply a unary operator to a value; shared like [`binary_op`].
#[inline]
pub(crate) fn unary_op(op: UnOp, v: Value) -> Result<Value, RuntimeError> {
    Ok(match (op, v) {
        (UnOp::Neg, Value::Int(x)) => Value::Int(x.wrapping_neg()),
        (UnOp::Neg, Value::Double(x)) => Value::Double(-x),
        (UnOp::Neg, _) => return Err(RuntimeError::new("negating non-number")),
        (UnOp::Not, Value::Bool(b)) => Value::Bool(!b),
        (UnOp::Not, _) => return Err(RuntimeError::new("`!` on non-bool")),
    })
}

struct Frame {
    locals: Vec<Value>,
    this: Option<Value>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynfb_lang::compile_source;

    fn lock_base(n: usize) -> LockId {
        let mut m = dynfb_sim::Machine::new(dynfb_sim::MachineConfig::default());
        m.add_locks(n)
    }

    fn run_fn(src: &str, func: &str, args: Vec<Value>) -> (Value, ProgramEnv, OpSink) {
        let hir = compile_source(src).unwrap();
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
        let mut sink = OpSink::default();
        let f = hir.function_named(func).unwrap();
        let v = {
            let mut interp = Interp {
                env: &mut env,
                funcs: &hir.functions,
                cost: CostModel::default(),
                sink: &mut sink,
                lock_base: lock_base(1024),
                lock_capacity: 1024,
                fuel: 10_000_000,
            };
            interp.call(f.0, None, args).unwrap()
        };
        (v, env, sink)
    }

    #[test]
    fn arithmetic_and_control_flow() {
        let (v, _, _) = run_fn(
            "int fib(int n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }",
            "fib",
            vec![Value::Int(10)],
        );
        assert_eq!(v, Value::Int(55));
    }

    #[test]
    fn loops_and_arrays() {
        let (v, _, _) = run_fn(
            "double sum(int n) {
                 double[] a = new double[n];
                 for (int i = 0; i < n; i++) { a[i] = i * 2; }
                 double total = 0.0;
                 for (int i = 0; i < n; i++) { total += a[i]; }
                 return total;
             }",
            "sum",
            vec![Value::Int(10)],
        );
        assert_eq!(v, Value::Double(90.0));
    }

    #[test]
    fn objects_and_methods() {
        let (v, _, _) = run_fn(
            "class counter { int value; void add(int n) { this.value += n; } }
             int test() {
                 counter c = new counter();
                 c.add(4); c.add(5);
                 return c.value;
             }",
            "test",
            vec![],
        );
        assert_eq!(v, Value::Int(9));
    }

    #[test]
    fn extern_calls_dispatch_to_host() {
        let (v, _, sink) = run_fn(
            "extern double hostadd(double, double);
             double test() { return hostadd(1.5, 2.5); }",
            "test",
            vec![],
        );
        assert_eq!(v, Value::Double(4.0));
        let _ = sink;
    }

    #[test]
    fn runtime_errors_are_reported() {
        let hir = compile_source(
            "class c { int x; } int bad(c o) { return o.x; } int div(int a) { return a / 0; }",
        )
        .unwrap();
        let mut env = ProgramEnv {
            classes: hir.classes.clone(),
            externs: vec![],
            globals: vec![],
            heap: Heap::default(),
            host: HostRegistry::new(),
        };
        let mut sink = OpSink::default();
        let mut interp = Interp {
            env: &mut env,
            funcs: &hir.functions,
            cost: CostModel::default(),
            sink: &mut sink,
            lock_base: lock_base(16),
            lock_capacity: 16,
            fuel: 1_000_000,
        };
        let bad = hir.function_named("bad").unwrap();
        let err = interp.call(bad.0, None, vec![Value::Null]).unwrap_err();
        assert!(err.message.contains("null"));
        let div = hir.function_named("div").unwrap();
        let err = interp.call(div.0, None, vec![Value::Int(3)]).unwrap_err();
        assert!(err.message.contains("division by zero"));
    }

    #[test]
    fn fuel_limits_runaway_loops() {
        let hir = compile_source("void spin() { while (true) { } }").unwrap();
        let mut env = ProgramEnv {
            classes: vec![],
            externs: vec![],
            globals: vec![],
            heap: Heap::default(),
            host: HostRegistry::new(),
        };
        let mut sink = OpSink::default();
        let mut interp = Interp {
            env: &mut env,
            funcs: &hir.functions,
            cost: CostModel::default(),
            sink: &mut sink,
            lock_base: lock_base(1),
            lock_capacity: 1,
            fuel: 10_000,
        };
        let err = interp.call(0, None, vec![]).unwrap_err();
        assert!(err.message.contains("fuel"));
    }
}
