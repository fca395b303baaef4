//! # dynfb-bench — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation at scaled
//! problem sizes. See `DESIGN.md` for the experiment index and
//! `EXPERIMENTS.md` (written by the `experiments` binary) for
//! paper-vs-measured results.

#![warn(missing_docs)]

pub mod chaos;
pub mod engine;
pub mod experiments;
pub mod observe;
pub mod rehab;
pub mod report;
pub mod repset;
