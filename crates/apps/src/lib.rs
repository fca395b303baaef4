//! # dynfb-apps — the benchmark applications
//!
//! The three applications of the paper's evaluation, reimplemented in the
//! `dynfb-lang` mini language and compiled end-to-end by `dynfb-compiler`:
//!
//! * [`barnes_hut()`](barnes_hut()) — hierarchical N-body solver (§6.1): the FORCES
//!   section favours the **Aggressive** policy (no contention on body
//!   locks, so coalescing to one acquire per body is pure win).
//! * [`water()`](water()) — liquid water molecular dynamics (§6.2): INTERF favours
//!   Bounded ≡ Aggressive, but POTENG's global accumulator makes
//!   Aggressive serialize the computation (false exclusion), so the best
//!   overall policy is **Bounded**.
//! * [`string_app()`](string_app()) — seismic inversion between two oil wells (§6.3;
//!   reconstructed by analogy, the paper text being truncated there).
//!
//! Plus one synthetic workload outside the paper's evaluation:
//!
//! * [`plasma()`](plasma()) — particle-in-cell deposition with two lock
//!   classes, built to differentiate the *parameterized* policy family
//!   (bounded-K budgets, per-class hybrids) for the representative-set
//!   selection harness.
//!
//! Each constructor returns a [`dynfb_compiler::CompiledApp`], which runs
//! on the simulated multiprocessor via `dynfb_sim::run_app` under any
//! static policy or under dynamic feedback.

#![warn(missing_docs)]

use dynfb_core::controller::ControllerConfig;
use dynfb_sim::{MachineConfig, RunConfig};
use std::time::Duration;

pub mod barnes_hut;
pub mod host;
pub mod plasma;
pub mod string_app;
pub mod water;

pub use barnes_hut::{barnes_hut, BarnesHutConfig};
pub use plasma::{plasma, plasma_with_policies, PlasmaConfig};
pub use string_app::{string_app, StringConfig};
pub use water::{water, WaterConfig};

/// The machine cost model used for all application experiments: spin locks
/// in the hundreds of nanoseconds and the paper's 9 µs timer read.
#[must_use]
pub fn machine_config() -> MachineConfig {
    MachineConfig {
        lock_acquire_cost: Duration::from_nanos(400),
        lock_release_cost: Duration::from_nanos(400),
        lock_attempt_cost: Duration::from_nanos(200),
        timer_read_cost: Duration::from_micros(9),
        barrier_cost: Duration::from_micros(10),
    }
}

/// A static-policy run configuration with the application machine model.
#[must_use]
pub fn run_fixed(num_procs: usize, policy: &str) -> RunConfig {
    let mut config = RunConfig::fixed(num_procs, policy);
    config.machine = machine_config();
    config
}

/// A dynamic-feedback run configuration with the application machine model.
#[must_use]
pub fn run_dynamic(num_procs: usize, controller: ControllerConfig) -> RunConfig {
    let mut config = RunConfig::dynamic(num_procs, controller);
    config.machine = machine_config();
    config
}
