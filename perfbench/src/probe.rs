//! `SimApp` wrappers the benchmark puts between the runtime and an app.
//!
//! [`Probe`] forwards every call to the wrapped app. A timing probe
//! measures host time around the three executor entry points
//! (`emit_serial`, `begin_parallel`, `emit_iteration`) and lets the app
//! emit straight into the runtime's sink. A recording probe has the app
//! emit into a private sink, counts and keeps the steps, and re-emits them
//! into the runtime's sink unchanged. Either way the simulated run is the
//! same as without the wrapper.
//!
//! [`Replay`] is a no-op app that plays a recorded stream back, so a run
//! through it costs only the event engine and the runtime driver.

use dynfb_sim::{Machine, OpSink, PlanEntry, SectionKind, SimApp, Step};
use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

/// What one run of an app emitted, in call order.
#[derive(Debug, Default)]
pub struct Recording {
    name: String,
    locks: usize,
    plan: Vec<PlanEntry>,
    versions: HashMap<String, Vec<String>>,
    iterations: VecDeque<usize>,
    streams: VecDeque<Vec<Step>>,
}

/// Times, counts and optionally records the executor calls of `inner`.
pub struct Probe<'a, A: SimApp> {
    inner: &'a mut A,
    /// Host time spent inside the executor entry points (timing probe).
    pub exec: Duration,
    /// Executor entry-point calls.
    pub calls: u64,
    /// Steps emitted (recording probe).
    pub steps: u64,
    recording: Option<Recording>,
}

impl<'a, A: SimApp> Probe<'a, A> {
    /// A probe that times the executor calls.
    pub fn timed(inner: &'a mut A) -> Self {
        Probe { inner, exec: Duration::ZERO, calls: 0, steps: 0, recording: None }
    }

    /// A probe that counts and records the step streams.
    pub fn recording(inner: &'a mut A) -> Self {
        let mut versions = HashMap::new();
        let plan = inner.plan();
        for e in plan.iter().filter(|e| e.kind == SectionKind::Parallel) {
            versions.insert(e.name.clone(), inner.versions(&e.name));
        }
        let recording =
            Recording { name: inner.name().to_string(), plan, versions, ..Recording::default() };
        Probe { recording: Some(recording), ..Probe::timed(inner) }
    }

    /// Steps emitted and the recorded streams (for a probe made by
    /// [`Probe::recording`]).
    pub fn into_recording(self) -> (u64, Option<Recording>) {
        (self.steps, self.recording)
    }

    /// Run one executor call: timed straight into the runtime's `ops`, or
    /// against a private sink whose steps are counted, kept and re-emitted.
    fn forward(&mut self, ops: &mut OpSink, emit: impl FnOnce(&mut A, &mut OpSink)) {
        self.calls += 1;
        let Some(rec) = &mut self.recording else {
            let started = Instant::now();
            emit(self.inner, ops);
            self.exec += started.elapsed();
            return;
        };
        let mut local = OpSink::default();
        emit(self.inner, &mut local);
        let steps = local.into_steps();
        self.steps += steps.len() as u64;
        for step in &steps {
            replay_step(*step, ops);
        }
        rec.streams.push_back(steps.into());
    }
}

fn replay_step(step: Step, ops: &mut OpSink) {
    match step {
        Step::Compute(d) => ops.compute(d),
        Step::Acquire(l) => ops.acquire(l),
        Step::Release(l) => ops.release(l),
        other => unreachable!("apps emit compute and lock steps only, got {other:?}"),
    }
}

impl<A: SimApp> SimApp for Probe<'_, A> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn setup(&mut self, machine: &mut Machine) {
        let before = machine.num_locks();
        self.inner.setup(machine);
        if let Some(rec) = &mut self.recording {
            rec.locks = machine.num_locks() - before;
        }
    }
    fn plan(&self) -> Vec<PlanEntry> {
        self.inner.plan()
    }
    fn versions(&self, section: &str) -> Vec<String> {
        self.inner.versions(section)
    }
    fn version_for_policy(&self, section: &str, policy: &str) -> Option<usize> {
        self.inner.version_for_policy(section, policy)
    }
    fn emit_serial(&mut self, section: &str, ops: &mut OpSink) {
        self.forward(ops, |app, sink| app.emit_serial(section, sink));
    }
    fn begin_parallel(&mut self, section: &str) -> usize {
        self.calls += 1;
        let started = Instant::now();
        let n = self.inner.begin_parallel(section);
        self.exec += started.elapsed();
        if let Some(rec) = &mut self.recording {
            rec.iterations.push_back(n);
        }
        n
    }
    fn emit_iteration(&mut self, section: &str, version: usize, iter: usize, ops: &mut OpSink) {
        self.forward(ops, |app, sink| app.emit_iteration(section, version, iter, sink));
    }
}

/// Plays a [`Recording`] back through the runtime.
#[derive(Debug)]
pub struct Replay(pub Recording);

impl SimApp for Replay {
    fn name(&self) -> &str {
        &self.0.name
    }
    fn setup(&mut self, machine: &mut Machine) {
        if self.0.locks > 0 {
            machine.add_locks(self.0.locks);
        }
    }
    fn plan(&self) -> Vec<PlanEntry> {
        self.0.plan.clone()
    }
    fn versions(&self, section: &str) -> Vec<String> {
        self.0.versions.get(section).cloned().unwrap_or_default()
    }
    fn emit_serial(&mut self, _section: &str, ops: &mut OpSink) {
        self.emit(ops);
    }
    fn begin_parallel(&mut self, _section: &str) -> usize {
        self.0.iterations.pop_front().expect("replay follows the recorded call order")
    }
    fn emit_iteration(&mut self, _s: &str, _version: usize, _iter: usize, ops: &mut OpSink) {
        self.emit(ops);
    }
}

impl Replay {
    fn emit(&mut self, ops: &mut OpSink) {
        let steps = self.0.streams.pop_front().expect("replay follows the recorded call order");
        for step in steps {
            replay_step(step, ops);
        }
    }
}
