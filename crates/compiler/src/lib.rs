//! # dynfb-compiler — the parallelizing compiler
//!
//! A from-scratch reimplementation of the compiler pipeline the paper's
//! dynamic feedback technique is embedded in: a parallelizing compiler for
//! serial, object-based programs based on *commutativity analysis*
//! (Rinard & Diniz), with automatic synchronization insertion and the
//! three synchronization optimization policies whose selection dynamic
//! feedback automates.
//!
//! Pipeline (see [`artifact::compile`]):
//!
//! 1. [`callgraph`] — static call graph + cycle detection (the *Bounded*
//!    policy's guard).
//! 2. [`effects`] — per-function read/write effect analysis.
//! 3. [`symbolic`] + [`commutativity`] — symbolic execution of update
//!    operations and the pairwise commutativity test that licenses
//!    parallelization.
//! 4. [`lockplace`] — default per-object critical-region insertion.
//! 5. [`syncopt`] — the merge / hoist / interprocedural-lift lock
//!    elimination transformations under the Original, Bounded, and
//!    Aggressive policies.
//! 6. [`artifact`] — multi-version packaging with shared-code
//!    deduplication; the result implements `dynfb_sim::SimApp` and runs on
//!    the simulated multiprocessor.
//!
//! Compiled code executes on one of two tiers: fused native closures
//! ([`native`], the default — each function is lowered to register
//! bytecode ([`vm`]) and each basic block of that is compiled to a single
//! Rust closure at `compile()` time) or the tree-walking interpreter
//! ([`interp`], the reference oracle). Both emit bit-identical
//! simulation step sequences; see `DESIGN.md` for the determinism
//! contract.

#![warn(missing_docs)]

pub mod artifact;
pub mod callgraph;
pub mod commutativity;
pub mod effects;
pub mod interp;
pub mod lockplace;
pub mod native;
pub mod symbolic;
pub mod syncopt;
pub mod vm;

pub use artifact::{compile, CompileError, CompileOptions, CompiledApp, ExecTier, RegionInfo};
pub use interp::{CostModel, HostRegistry, Value};
pub use syncopt::Policy;
