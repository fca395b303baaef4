//! # dynfb-core — Dynamic Feedback for adaptive computing
//!
//! This crate implements *dynamic feedback*, the adaptive multi-versioning
//! technique of Diniz & Rinard (PLDI 1997). A computation is available in
//! several functionally equivalent *versions*, each implementing a different
//! optimization *policy*. Execution alternates:
//!
//! * **sampling phases** — run every version for a short, fixed *sampling
//!   interval* and measure its overhead in the current environment, and
//! * **production phases** — run the version with the least measured
//!   overhead for a much longer *production interval*, then resample so the
//!   computation adapts when the environment changes.
//!
//! The crate is split into execution-agnostic and execution-specific parts:
//!
//! * [`overhead`] — the overhead model of §4.3 of the paper: locking
//!   overhead, waiting overhead, and execution time, combined into a total
//!   overhead in `[0, 1]`.
//! * [`controller`] — the phase state machine of §4: interval bookkeeping,
//!   policy selection, periodic resampling, and the early cut-off / policy
//!   ordering optimizations of §4.5. [`controller::Controller::close_interval`]
//!   is the one decision step both drivers take at a switch point; the
//!   controller keeps the time of each policy's latest measurement and
//!   the [`controller::DecisionCounts`] of what it decided. It is *driven*
//!   by a runtime (either the discrete-event simulator in `dynfb-sim` or
//!   the real-thread executor in [`realtime`]), which passes it the time
//!   of each decision; it never reads clocks itself, which makes it
//!   deterministic and directly testable.
//! * [`detector`] — CUSUM and EWMA change-point detectors over the
//!   per-interval waiting proportion, powering the event-driven resampling
//!   trigger ([`controller::ResampleTrigger::EventDriven`]): production
//!   ends early when the signal shifts, instead of waiting out the fixed
//!   interval.
//! * [`theory`] — the worst-case optimality analysis of §5: bounded-decay
//!   overhead evolution, work integrals, the ε-optimality feasible region for
//!   the production interval (Equation 7) and the optimal production interval
//!   (Equation 9), solved numerically.
//! * [`realtime`] — a reusable adaptive executor over OS threads for
//!   workloads expressed as Rust closures, with instrumented locks that
//!   count successful and failed acquires the way the paper's generated
//!   code does.
//! * [`observer`] — the one [`observer::Observer`] interface both drivers
//!   report to: trace events, controller decisions, lock events and
//!   counters, with `()` as the zero-cost disabled observer and pairs
//!   `(A, B)` to attach several channels at once; and the bounded
//!   [`observer::Recorder`] behind the trace ring and the journal.
//! * [`trace`] — structured tracing of the adaptation timeline: the
//!   [`trace::TraceEvent`] vocabulary, a bounded [`trace::RingBuffer`]
//!   collector, and a Chrome trace-event / Perfetto JSON exporter.
//! * [`repset`] — offline representative-set selection for parameterized
//!   policy families: deterministic seeded k-medoids over per-policy
//!   measured-overhead vectors, plus a pruning report through the §5
//!   sampling-cost model (sampling cost is linear in the version count,
//!   so pruning 12 → 4 versions cuts sampling overhead 3x).
//! * [`metrics`] — per-lock profiling: an accumulating
//!   [`metrics::MetricsRegistry`] observer with log2 histograms (and
//!   p50/p95/p99 quantile estimates derived from them), fed by the
//!   simulator's lock events, and deterministic Prometheus-text / JSON
//!   exporters.
//! * [`journal`] — the decision flight recorder: every controller decision
//!   (sampling winner, early cut-off, watchdog abort, change-point alarm,
//!   quarantine transition, crash fallback) captured as a
//!   [`journal::DecisionRecord`] with its full evidence snapshot — the
//!   measured overhead vector with [`theory`]-derived confidences, the
//!   detector chart state, and per-policy health — kept by a
//!   [`journal::JournalBuffer`]. [`journal::record_decision`] writes each
//!   decision to the observer as trace events and decision records.
//!
//! ## Quick start
//!
//! ```
//! use dynfb_core::controller::{Controller, ControllerConfig};
//! use dynfb_core::overhead::OverheadSample;
//! use std::time::Duration;
//!
//! // Three policies; sample each for 10ms, produce for 100ms.
//! let mut ctl = Controller::new(ControllerConfig {
//!     num_policies: 3,
//!     target_sampling: Duration::from_millis(10),
//!     target_production: Duration::from_millis(100),
//!     ..ControllerConfig::default()
//! });
//!
//! ctl.begin_section();
//! // The runtime measures each sampled policy and reports it:
//! for over in [0.40, 0.25, 0.05] {
//!     let policy = ctl.current_policy();
//!     ctl.complete_interval(OverheadSample::from_fraction(over, Duration::from_millis(10)));
//!     let _ = policy;
//! }
//! // After sampling all three, the controller enters production with the best.
//! assert!(ctl.phase().is_production());
//! assert_eq!(ctl.current_policy(), 2);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod controller;
pub mod detector;
pub mod journal;
pub mod metrics;
pub mod observer;
pub mod overhead;
pub mod realtime;
pub mod repset;
pub mod rng;
pub mod theory;
pub mod trace;

pub use controller::{
    Controller, ControllerConfig, DecisionCounts, Phase, PolicyId, ResampleTrigger, Transition,
};
pub use detector::{Detector, DetectorConfig, DetectorSnapshot};
pub use journal::{DecisionKind, DecisionRecord, Evidence, JournalBuffer, PolicyEvidence};
pub use metrics::{LockMetrics, Log2Histogram, MetricsRegistry};
pub use observer::Observer;
pub use overhead::OverheadSample;
pub use trace::{RingBuffer, TraceEvent, TracedEvent};
