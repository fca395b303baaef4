//! # dynfb-sim — a deterministic simulated shared-memory multiprocessor
//!
//! The paper evaluated dynamic feedback on a 16-processor Stanford DASH
//! machine. This crate substitutes a *discrete-event simulation* of such a
//! machine: virtual processors execute [`Process`]es that compute, acquire
//! and release spin locks, wait at barriers, and read a timer — with the
//! same accounting the paper's instrumentation performs:
//!
//! * **locking overhead**: successful acquire/release pairs × their cost,
//! * **waiting overhead**: failed acquire attempts × their cost (a waiter
//!   spins until the holder releases; the engine computes the equivalent
//!   number of failed attempts analytically),
//! * **execution time**: all time a processor spends executing application
//!   code, including the overheads above.
//!
//! Simulation is fully deterministic (events at equal times are ordered by
//! insertion sequence), so every experiment in this repository is exactly
//! reproducible, and processor counts from 1 to any N can be swept on a
//! single-core host.
//!
//! The [`runtime`] module implements the paper's generated-code runtime on
//! top of the engine: alternating serial/parallel sections, multi-version
//! parallel loops, timer polling at iteration boundaries, and synchronous
//! policy switching driven by the `dynfb-core` controller.

#![warn(missing_docs)]

pub mod config;
pub mod faults;
pub mod machine;
pub mod process;
mod queue;
pub mod runtime;
pub mod stats;
pub mod time;

pub use config::{MachineConfig, MachineConfigError};
pub use faults::{ChaosProfile, FaultEvent, FaultKind, FaultPlan, FaultPlanError, Target, Window};
pub use machine::{Machine, SimError};
pub use process::{BarrierId, LockId, ProcCtx, ProcId, Process, Step};
pub use runtime::{
    run_app, run_app_flight_recorded, run_app_ref, AppReport, OpSink, PlanEntry, RunConfig,
    RunMode, SampleRecord, SectionExecution, SectionKind, SimApp,
};
pub use stats::{MachineStats, ProcStats};
pub use time::SimTime;
