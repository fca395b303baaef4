//! Digests of a run's outputs: the program result (final heap and globals)
//! and the simulated statistics. Both are FNV-1a 64 over a fixed byte
//! encoding, printed as 16 hex digits.

use dynfb_compiler::{CompiledApp, Value};
use dynfb_sim::{AppReport, SimTime};
use std::time::Duration;

/// FNV-1a 64 accumulator.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Feed bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Feed one integer.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Feed a duration, in nanoseconds.
    pub fn dur(&mut self, d: Duration) {
        self.u64(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// The digest as 16 hex digits.
    #[must_use]
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

fn value(h: &mut Fnv, v: &Value) {
    let (tag, bits) = match *v {
        Value::Int(i) => (0, i as u64),
        Value::Double(d) => (1, d.to_bits()),
        Value::Bool(b) => (2, u64::from(b)),
        Value::Obj(o) => (3, o as u64),
        Value::Arr(a) => (4, a as u64),
        Value::Null => (5, 0),
    };
    h.bytes(&[tag]);
    h.u64(bits);
}

/// Digest of a program's result: its globals, then every heap object and
/// array in allocation order.
#[must_use]
pub fn program(app: &CompiledApp) -> String {
    let mut h = Fnv::default();
    for g in app.globals() {
        value(&mut h, g);
    }
    let heap = app.heap();
    h.u64(heap.objects.len() as u64);
    for o in &heap.objects {
        h.u64(o.class as u64);
        o.fields.iter().for_each(|v| value(&mut h, v));
    }
    h.u64(heap.arrays.len() as u64);
    for a in &heap.arrays {
        h.u64(a.len() as u64);
        a.iter().for_each(|v| value(&mut h, v));
    }
    h.hex()
}

fn time(h: &mut Fnv, t: Option<SimTime>) {
    h.u64(t.map_or(u64::MAX, SimTime::as_nanos));
}

/// Digest of a run's simulated results: every processor's statistics, the
/// finish time, and each section execution's span and iteration count.
#[must_use]
pub fn simulated(report: &AppReport) -> String {
    let mut h = Fnv::default();
    for p in &report.stats.procs {
        for d in [p.compute, p.lock_time, p.wait_time, p.barrier_wait, p.timer_time] {
            h.dur(d);
        }
        for n in [p.acquires, p.failed_attempts, p.timer_reads, p.recovered_locks] {
            h.u64(n);
        }
        time(&mut h, p.done_at);
        time(&mut h, p.crashed_at);
    }
    time(&mut h, Some(report.stats.finished_at));
    for s in &report.sections {
        h.bytes(s.name.as_bytes());
        time(&mut h, Some(s.start));
        time(&mut h, Some(s.end));
        h.u64(s.iterations as u64);
        h.u64(s.records.len() as u64);
    }
    h.hex()
}
