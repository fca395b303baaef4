//! Per-lock profiling and metrics (the attribution layer).
//!
//! The paper decomposes execution time into locking, waiting, and
//! false-exclusion overhead — but only per machine. This module attributes
//! those components to *individual locks*, so a profile can answer which
//! critical region makes a policy win or lose:
//!
//! * **Zero cost when disabled**: the simulator's engine is generic over
//!   the [`Observer`] it reports lock events to; with the disabled `()`
//!   every emission site monomorphizes away (see [`crate::observer`]).
//! * **Direct accumulation**: metrics never route through the droppable
//!   trace [`RingBuffer`](crate::trace::RingBuffer) — a saturated ring
//!   cannot lose lock counts, so per-lock sums stay *exactly* equal to the
//!   machine-wide aggregates (the consistency oracle in `dynfb-bench
//!   observe` enforces this).
//! * **Histograms** are fixed-bucket log2 ([`Log2Histogram`]): bucket 0
//!   holds zero-duration observations, bucket `i >= 1` holds durations in
//!   `[2^(i-1), 2^i)` nanoseconds, and the top bucket absorbs everything
//!   longer. Fixed shape keeps recording allocation-free and exports
//!   deterministic.
//! * **Export**: [`prometheus_text`] renders the Prometheus text
//!   exposition format; [`profile_json`] renders a stable JSON document.
//!   Both are deterministic: identical registries produce identical bytes.

use crate::observer::Observer;
use crate::trace::json_escape;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of buckets in a [`Log2Histogram`].
pub const HISTOGRAM_BUCKETS: usize = 32;

/// A fixed-shape log2 histogram of durations in nanoseconds.
///
/// Bucket 0 counts zero-duration observations; bucket `i >= 1` counts
/// observations in `[2^(i-1), 2^i)` ns; the top bucket absorbs everything
/// from ~2.1 s up. Recording is allocation-free and the shape is identical
/// for every histogram, which keeps exports deterministic and mergeable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Log2Histogram {
    counts: [u64; HISTOGRAM_BUCKETS],
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Log2Histogram { counts: [0; HISTOGRAM_BUCKETS] }
    }
}

impl Log2Histogram {
    /// Bucket index a duration of `ns` nanoseconds falls into.
    #[must_use]
    pub fn bucket_index(ns: u64) -> usize {
        if ns == 0 {
            0
        } else {
            (ns.ilog2() as usize + 1).min(HISTOGRAM_BUCKETS - 1)
        }
    }

    /// Inclusive upper bound (in ns) of bucket `i`; `None` for the
    /// unbounded top bucket (Prometheus `+Inf`).
    #[must_use]
    pub fn bucket_upper_bound(i: usize) -> Option<u64> {
        if i + 1 >= HISTOGRAM_BUCKETS {
            None
        } else {
            Some((1u64 << i) - 1)
        }
    }

    /// Record one observation.
    pub fn record(&mut self, d: Duration) {
        let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.counts[Self::bucket_index(ns)] = self.counts[Self::bucket_index(ns)].saturating_add(1);
    }

    /// Per-bucket counts, lowest bucket first.
    #[must_use]
    pub fn counts(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.counts
    }

    /// Total number of observations.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counts.iter().fold(0u64, |a, &c| a.saturating_add(c))
    }

    /// Add every bucket of `other` into `self` (saturating).
    pub fn merge(&mut self, other: &Log2Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a = a.saturating_add(*b);
        }
    }

    /// Estimated `q`-quantile in nanoseconds (`0 < q <= 1`), or `None` for
    /// an empty histogram.
    ///
    /// The estimate walks the cumulative counts to the bucket containing
    /// the target rank and interpolates linearly within it — the standard
    /// histogram-quantile estimator, here over log2 buckets (so the
    /// estimate's relative error is bounded by the bucket width, at most
    /// 2x). Deterministic: a pure function of the counts.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let total = self.total();
        if total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut cumulative = 0u64;
        for (i, &count) in self.counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let before = cumulative;
            cumulative = cumulative.saturating_add(count);
            if rank <= cumulative {
                let lower = if i == 0 { 0 } else { 1u64 << (i - 1) };
                // The top bucket is unbounded; cap the interpolation at
                // twice its lower bound (one more doubling), keeping the
                // estimator total and deterministic.
                let upper = Self::bucket_upper_bound(i).unwrap_or_else(|| lower.saturating_mul(2));
                let frac = (rank - before) as f64 / count as f64;
                let est = lower as f64 + frac * (upper.saturating_sub(lower)) as f64;
                return Some(est.round() as u64);
            }
        }
        None
    }

    /// The (p50, p95, p99) quantile estimates, or `None` when empty.
    #[must_use]
    pub fn summary_quantiles(&self) -> Option<(u64, u64, u64)> {
        Some((self.quantile(0.50)?, self.quantile(0.95)?, self.quantile(0.99)?))
    }
}

/// Accumulated profile of one lock.
///
/// All additions saturate (matching the stats-layer convention), so a
/// pathological run degrades to pinned maxima instead of wrapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LockMetrics {
    /// Successful acquisitions.
    pub acquires: u64,
    /// Acquisitions that had to wait (at least one failed spin attempt).
    pub contended_acquires: u64,
    /// Releases.
    pub releases: u64,
    /// Unsuccessful spin attempts while waiting.
    pub failed_attempts: u64,
    /// Time charged to lock operations themselves (acquire + release
    /// costs) — the paper's *locking overhead* component.
    pub locking: Duration,
    /// Time spent waiting for the holder — the paper's *waiting overhead*
    /// component.
    pub waiting: Duration,
    /// Time the lock was held (acquire completion to release start).
    pub held: Duration,
    /// Distribution of per-acquisition wait times.
    pub wait_hist: Log2Histogram,
    /// Distribution of per-acquisition hold times.
    pub hold_hist: Log2Histogram,
}

impl LockMetrics {
    /// True if nothing was ever recorded against this lock.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.acquires == 0 && self.releases == 0 && self.failed_attempts == 0
    }

    /// Locking + waiting: the time this lock charged beyond useful work.
    #[must_use]
    pub fn overhead(&self) -> Duration {
        self.locking.saturating_add(self.waiting)
    }

    /// Add `other` into `self` (saturating).
    pub fn merge(&mut self, other: &LockMetrics) {
        self.acquires = self.acquires.saturating_add(other.acquires);
        self.contended_acquires = self.contended_acquires.saturating_add(other.contended_acquires);
        self.releases = self.releases.saturating_add(other.releases);
        self.failed_attempts = self.failed_attempts.saturating_add(other.failed_attempts);
        self.locking = self.locking.saturating_add(other.locking);
        self.waiting = self.waiting.saturating_add(other.waiting);
        self.held = self.held.saturating_add(other.held);
        self.wait_hist.merge(&other.wait_hist);
        self.hold_hist.merge(&other.hold_hist);
    }
}

/// The metrics observer: accumulates per-lock metrics and named counters.
///
/// Lock slots are grown on demand (indexed by lock id), so a registry can
/// profile a machine with a large lock pool while only paying for the
/// locks actually touched. Counter iteration order is the `BTreeMap`'s
/// (sorted by name), which keeps exports deterministic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsRegistry {
    locks: Vec<LockMetrics>,
    counters: BTreeMap<&'static str, u64>,
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Per-lock metrics, indexed by lock id. Locks past the highest
    /// recorded id are absent; untouched lower ids are all-zero.
    #[must_use]
    pub fn locks(&self) -> &[LockMetrics] {
        &self.locks
    }

    /// Metrics for lock `id` (all-zero if never recorded).
    #[must_use]
    pub fn lock(&self, id: usize) -> LockMetrics {
        self.locks.get(id).copied().unwrap_or_default()
    }

    /// Named counters in sorted name order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(&name, &v)| (name, v))
    }

    /// The value of counter `name` (zero if never bumped).
    #[must_use]
    pub fn counter_value(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sum of every lock's metrics — what the consistency oracle compares
    /// against machine-wide aggregates.
    #[must_use]
    pub fn totals(&self) -> LockMetrics {
        let mut total = LockMetrics::default();
        for lock in &self.locks {
            total.merge(lock);
        }
        total
    }

    fn slot(&mut self, id: usize) -> &mut LockMetrics {
        if id >= self.locks.len() {
            self.locks.resize(id + 1, LockMetrics::default());
        }
        &mut self.locks[id]
    }
}

impl Observer for MetricsRegistry {
    fn lock_acquired(&mut self, lock: usize, cost: Duration, waited: Duration, failed: u64) {
        let m = self.slot(lock);
        m.acquires = m.acquires.saturating_add(1);
        if failed > 0 || !waited.is_zero() {
            m.contended_acquires = m.contended_acquires.saturating_add(1);
        }
        m.failed_attempts = m.failed_attempts.saturating_add(failed);
        m.locking = m.locking.saturating_add(cost);
        m.waiting = m.waiting.saturating_add(waited);
        m.wait_hist.record(waited);
    }

    fn lock_released(&mut self, lock: usize, cost: Duration, held: Duration) {
        let m = self.slot(lock);
        m.releases = m.releases.saturating_add(1);
        m.locking = m.locking.saturating_add(cost);
        m.held = m.held.saturating_add(held);
        m.hold_hist.record(held);
    }

    fn counter(&mut self, name: &'static str, delta: u64) {
        let v = self.counters.entry(name).or_insert(0);
        *v = v.saturating_add(delta);
    }
}

/// One shared lock slot updated by concurrent workers (realtime driver).
///
/// All stores are `Relaxed` saturating adds — per-lock profiling must
/// never introduce synchronization beyond the lock being profiled.
#[derive(Debug, Default)]
pub struct AtomicLockCell {
    acquires: AtomicU64,
    contended_acquires: AtomicU64,
    releases: AtomicU64,
    failed_attempts: AtomicU64,
    waiting_ns: AtomicU64,
    held_ns: AtomicU64,
}

fn saturating_fetch_add(cell: &AtomicU64, delta: u64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let next = cur.saturating_add(delta);
        match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

fn duration_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// A fixed-size table of [`AtomicLockCell`]s shared by realtime workers.
///
/// Sized once at construction (the realtime driver knows its lock set up
/// front); out-of-range ids are ignored rather than panicking — a profile
/// must never crash the workload it observes.
#[derive(Debug, Default)]
pub struct LockTable {
    cells: Vec<AtomicLockCell>,
}

impl LockTable {
    /// A table profiling locks `0..n`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        LockTable { cells: (0..n).map(|_| AtomicLockCell::default()).collect() }
    }

    /// Number of lock slots.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True if the table has no slots.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Record a successful acquisition of lock `id` after `waited` wall
    /// time and `failed` unsuccessful try-lock attempts.
    pub fn record_acquire(&self, id: usize, waited: Duration, failed: u64) {
        let Some(c) = self.cells.get(id) else { return };
        saturating_fetch_add(&c.acquires, 1);
        if failed > 0 {
            saturating_fetch_add(&c.contended_acquires, 1);
        }
        saturating_fetch_add(&c.failed_attempts, failed);
        saturating_fetch_add(&c.waiting_ns, duration_ns(waited));
    }

    /// Record a release of lock `id` after holding it for `held`.
    pub fn record_release(&self, id: usize, held: Duration) {
        let Some(c) = self.cells.get(id) else { return };
        saturating_fetch_add(&c.releases, 1);
        saturating_fetch_add(&c.held_ns, duration_ns(held));
    }

    /// Snapshot every slot into plain [`LockMetrics`].
    ///
    /// Realtime profiles carry no modeled locking cost and no histograms
    /// (`locking` is zero and both histograms empty): wall-clock wait and
    /// hold times are measured directly, while per-operation cost is a
    /// calibration-model quantity, not an observable.
    #[must_use]
    pub fn snapshot(&self) -> Vec<LockMetrics> {
        self.cells
            .iter()
            .map(|c| LockMetrics {
                acquires: c.acquires.load(Ordering::Relaxed),
                contended_acquires: c.contended_acquires.load(Ordering::Relaxed),
                releases: c.releases.load(Ordering::Relaxed),
                failed_attempts: c.failed_attempts.load(Ordering::Relaxed),
                locking: Duration::ZERO,
                waiting: Duration::from_nanos(c.waiting_ns.load(Ordering::Relaxed)),
                held: Duration::from_nanos(c.held_ns.load(Ordering::Relaxed)),
                wait_hist: Log2Histogram::default(),
                hold_hist: Log2Histogram::default(),
            })
            .collect()
    }
}

/// Escape a Prometheus label value (`\`, `"`, and newline).
fn prom_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn ns(d: Duration) -> u128 {
    d.as_nanos()
}

/// Non-empty `(id, label, metrics)` rows of a registry, in lock-id order.
fn labeled_rows<'r>(
    registry: &'r MetricsRegistry,
    label: &dyn Fn(usize) -> String,
) -> Vec<(usize, String, &'r LockMetrics)> {
    registry
        .locks()
        .iter()
        .enumerate()
        .filter(|(_, m)| !m.is_empty())
        .map(|(id, m)| (id, label(id), m))
        .collect()
}

fn prom_histogram(
    out: &mut String,
    name: &str,
    help: &str,
    rows: &[(usize, String, &LockMetrics)],
    hist_of: impl Fn(&LockMetrics) -> &Log2Histogram,
    sum_of: impl Fn(&LockMetrics) -> Duration,
) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} histogram");
    for (id, label, m) in rows {
        let hist = hist_of(m);
        let mut cumulative = 0u64;
        for (i, &count) in hist.counts().iter().enumerate() {
            cumulative = cumulative.saturating_add(count);
            // Collapse empty leading/inner buckets except the first and
            // last: one line per *distinct* cumulative value keeps the
            // exposition compact without losing any information.
            let boundary = i == 0 || i + 1 == HISTOGRAM_BUCKETS || count > 0;
            if !boundary {
                continue;
            }
            let le = Log2Histogram::bucket_upper_bound(i)
                .map_or_else(|| "+Inf".to_string(), |b| b.to_string());
            let _ = writeln!(
                out,
                "{name}_bucket{{lock=\"{id}\",region=\"{}\",le=\"{le}\"}} {cumulative}",
                prom_escape(label)
            );
        }
        let _ = writeln!(
            out,
            "{name}_sum{{lock=\"{id}\",region=\"{}\"}} {}",
            prom_escape(label),
            ns(sum_of(m))
        );
        let _ = writeln!(
            out,
            "{name}_count{{lock=\"{id}\",region=\"{}\"}} {}",
            prom_escape(label),
            hist.total()
        );
    }
}

fn prom_quantiles(
    out: &mut String,
    name: &str,
    help: &str,
    rows: &[(usize, String, &LockMetrics)],
    hist_of: impl Fn(&LockMetrics) -> &Log2Histogram,
) {
    // Realtime lock tables carry no histograms; skip the family entirely
    // when no row has observations rather than emitting an empty header.
    if rows.iter().all(|(_, _, m)| hist_of(m).total() == 0) {
        return;
    }
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} gauge");
    for (id, label, m) in rows {
        let hist = hist_of(m);
        let Some((p50, p95, p99)) = hist.summary_quantiles() else { continue };
        for (q, v) in [("0.5", p50), ("0.95", p95), ("0.99", p99)] {
            let _ = writeln!(
                out,
                "{name}{{lock=\"{id}\",region=\"{}\",quantile=\"{q}\"}} {v}",
                prom_escape(label)
            );
        }
    }
}

/// One exported metric column: `(name, help, getter)`.
type MetricColumn<T> = (&'static str, &'static str, fn(&LockMetrics) -> T);

/// Render a registry in the Prometheus text exposition format.
///
/// `label` maps a lock id to its region label (e.g. from the compiler's
/// region metadata); locks with no recorded activity are omitted. The
/// output is deterministic: identical registries render identical bytes.
#[must_use]
pub fn prometheus_text(registry: &MetricsRegistry, label: impl Fn(usize) -> String) -> String {
    let rows = labeled_rows(registry, &label);
    let mut out = String::new();
    let counters: [MetricColumn<u64>; 4] = [
        ("dynfb_lock_acquires_total", "Successful lock acquisitions.", |m| m.acquires),
        (
            "dynfb_lock_contended_acquires_total",
            "Acquisitions that had to wait for the holder.",
            |m| m.contended_acquires,
        ),
        ("dynfb_lock_releases_total", "Lock releases.", |m| m.releases),
        ("dynfb_lock_failed_attempts_total", "Unsuccessful spin attempts while waiting.", |m| {
            m.failed_attempts
        }),
    ];
    for (name, help, get) in counters {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} counter");
        for (id, label, m) in &rows {
            let _ = writeln!(
                out,
                "{name}{{lock=\"{id}\",region=\"{}\"}} {}",
                prom_escape(label),
                get(m)
            );
        }
    }
    let durations: [MetricColumn<Duration>; 3] = [
        ("dynfb_lock_locking_ns_total", "Time charged to lock operations themselves (ns).", |m| {
            m.locking
        }),
        ("dynfb_lock_waiting_ns_total", "Time spent waiting for the holder (ns).", |m| m.waiting),
        ("dynfb_lock_held_ns_total", "Time the lock was held (ns).", |m| m.held),
    ];
    for (name, help, get) in durations {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} counter");
        for (id, label, m) in &rows {
            let _ = writeln!(
                out,
                "{name}{{lock=\"{id}\",region=\"{}\"}} {}",
                prom_escape(label),
                ns(get(m))
            );
        }
    }
    prom_histogram(
        &mut out,
        "dynfb_lock_wait_ns",
        "Per-acquisition wait time (ns).",
        &rows,
        |m| &m.wait_hist,
        |m| m.waiting,
    );
    prom_histogram(
        &mut out,
        "dynfb_lock_hold_ns",
        "Per-acquisition hold time (ns).",
        &rows,
        |m| &m.hold_hist,
        |m| m.held,
    );
    prom_quantiles(
        &mut out,
        "dynfb_lock_wait_quantile_ns",
        "Estimated per-acquisition wait-time quantiles (ns), from the log2 histogram.",
        &rows,
        |m| &m.wait_hist,
    );
    prom_quantiles(
        &mut out,
        "dynfb_lock_hold_quantile_ns",
        "Estimated per-acquisition hold-time quantiles (ns), from the log2 histogram.",
        &rows,
        |m| &m.hold_hist,
    );
    let _ = writeln!(out, "# HELP dynfb_counter Free-form named counters.");
    let _ = writeln!(out, "# TYPE dynfb_counter counter");
    for (name, value) in registry.counters() {
        let _ = writeln!(out, "dynfb_counter{{name=\"{}\"}} {value}", prom_escape(name));
    }
    out
}

fn hist_json(h: &Log2Histogram) -> String {
    let counts: Vec<String> = h.counts().iter().map(u64::to_string).collect();
    format!("[{}]", counts.join(","))
}

fn quantiles_json(h: &Log2Histogram) -> String {
    match h.summary_quantiles() {
        Some((p50, p95, p99)) => format!("{{\"p50\":{p50},\"p95\":{p95},\"p99\":{p99}}}"),
        None => "null".to_string(),
    }
}

/// Render the non-empty lock rows of a registry as a JSON array (one
/// object per lock, lock-id order). Used as the `"locks"` value of
/// [`profile_json`] and embeddable in larger documents.
#[must_use]
pub fn lock_rows_json(registry: &MetricsRegistry, label: impl Fn(usize) -> String) -> String {
    let rows: Vec<String> = labeled_rows(registry, &label)
        .into_iter()
        .map(|(id, label, m)| {
            format!(
                concat!(
                    "{{\"lock\":{},\"region\":\"{}\",\"acquires\":{},",
                    "\"contendedAcquires\":{},\"releases\":{},\"failedAttempts\":{},",
                    "\"lockingNs\":{},\"waitingNs\":{},\"heldNs\":{},",
                    "\"waitHist\":{},\"holdHist\":{},",
                    "\"waitQuantilesNs\":{},\"holdQuantilesNs\":{}}}"
                ),
                id,
                json_escape(&label),
                m.acquires,
                m.contended_acquires,
                m.releases,
                m.failed_attempts,
                ns(m.locking),
                ns(m.waiting),
                ns(m.held),
                hist_json(&m.wait_hist),
                hist_json(&m.hold_hist),
                quantiles_json(&m.wait_hist),
                quantiles_json(&m.hold_hist),
            )
        })
        .collect();
    format!("[{}]", rows.join(","))
}

/// Render a registry as a stable JSON document: non-empty lock rows (with
/// region labels and histograms) plus the named counters. Deterministic:
/// identical registries render identical bytes.
#[must_use]
pub fn profile_json(registry: &MetricsRegistry, label: impl Fn(usize) -> String) -> String {
    let counters: Vec<String> =
        registry.counters().map(|(name, v)| format!("\"{}\":{v}", json_escape(name))).collect();
    format!(
        "{{\"locks\":{},\"counters\":{{{}}}}}\n",
        lock_rows_json(registry, label),
        counters.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_histogram_buckets_by_power_of_two() {
        assert_eq!(Log2Histogram::bucket_index(0), 0);
        assert_eq!(Log2Histogram::bucket_index(1), 1);
        assert_eq!(Log2Histogram::bucket_index(2), 2);
        assert_eq!(Log2Histogram::bucket_index(3), 2);
        assert_eq!(Log2Histogram::bucket_index(4), 3);
        assert_eq!(Log2Histogram::bucket_index(1023), 10);
        assert_eq!(Log2Histogram::bucket_index(1024), 11);
        assert_eq!(Log2Histogram::bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        // Upper bounds tile the index function: the bound of bucket i is
        // the largest ns still mapping to bucket i.
        for i in 0..HISTOGRAM_BUCKETS - 1 {
            let bound = Log2Histogram::bucket_upper_bound(i).unwrap();
            assert_eq!(Log2Histogram::bucket_index(bound), i, "bucket {i}");
            assert_eq!(Log2Histogram::bucket_index(bound + 1), i + 1, "bucket {i}");
        }
        assert_eq!(Log2Histogram::bucket_upper_bound(HISTOGRAM_BUCKETS - 1), None);
    }

    #[test]
    fn registry_accumulates_and_sums() {
        let mut reg = MetricsRegistry::new();
        reg.lock_acquired(2, Duration::from_nanos(100), Duration::ZERO, 0);
        reg.lock_acquired(2, Duration::from_nanos(100), Duration::from_nanos(700), 3);
        reg.lock_released(2, Duration::from_nanos(50), Duration::from_nanos(400));
        reg.lock_acquired(0, Duration::from_nanos(100), Duration::ZERO, 0);
        reg.counter("items", 5);
        reg.counter("items", 2);

        assert_eq!(reg.locks().len(), 3);
        let m = reg.lock(2);
        assert_eq!(m.acquires, 2);
        assert_eq!(m.contended_acquires, 1);
        assert_eq!(m.releases, 1);
        assert_eq!(m.failed_attempts, 3);
        assert_eq!(m.locking, Duration::from_nanos(250));
        assert_eq!(m.waiting, Duration::from_nanos(700));
        assert_eq!(m.held, Duration::from_nanos(400));
        assert_eq!(m.wait_hist.total(), 2);
        assert_eq!(m.hold_hist.total(), 1);
        assert!(reg.lock(1).is_empty());
        assert_eq!(reg.counter_value("items"), 7);

        let totals = reg.totals();
        assert_eq!(totals.acquires, 3);
        assert_eq!(totals.failed_attempts, 3);
        assert_eq!(totals.overhead(), Duration::from_nanos(1050));
    }

    #[test]
    fn lock_table_snapshot_matches_recordings_and_ignores_out_of_range() {
        let table = LockTable::new(2);
        table.record_acquire(0, Duration::from_nanos(10), 2);
        table.record_acquire(0, Duration::ZERO, 0);
        table.record_release(0, Duration::from_nanos(30));
        table.record_acquire(7, Duration::from_nanos(1), 1); // out of range: ignored
        table.record_release(7, Duration::from_nanos(1));
        let snap = table.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].acquires, 2);
        assert_eq!(snap[0].contended_acquires, 1);
        assert_eq!(snap[0].failed_attempts, 2);
        assert_eq!(snap[0].waiting, Duration::from_nanos(10));
        assert_eq!(snap[0].held, Duration::from_nanos(30));
        assert_eq!(snap[0].releases, 1);
        assert!(snap[1].is_empty());
    }

    fn sample_registry() -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        reg.lock_acquired(1, Duration::from_nanos(200), Duration::ZERO, 0);
        reg.lock_acquired(1, Duration::from_nanos(200), Duration::from_nanos(900), 4);
        reg.lock_released(1, Duration::from_nanos(200), Duration::from_nanos(6_000));
        reg.counter("items", 16);
        reg
    }

    #[test]
    fn prometheus_text_is_deterministic_and_escapes_labels() {
        let reg = sample_registry();
        let label = |id: usize| format!("slot\"{id}\"");
        let a = prometheus_text(&reg, label);
        let b = prometheus_text(&reg, label);
        assert_eq!(a, b);
        assert!(a.contains(r#"dynfb_lock_acquires_total{lock="1",region="slot\"1\""} 2"#), "{a}");
        assert!(a.contains(r#"dynfb_lock_failed_attempts_total{lock="1",region="slot\"1\""} 4"#));
        assert!(a.contains(r#"le="+Inf"} 2"#), "{a}");
        assert!(a.contains(r#"dynfb_counter{name="items"} 16"#), "{a}");
        // Lock 0 was never touched: it must not appear.
        assert!(!a.contains(r#"lock="0""#), "{a}");
    }

    #[test]
    fn prometheus_histogram_buckets_are_cumulative() {
        let reg = sample_registry();
        let text = prometheus_text(&reg, |id| format!("slot{id}"));
        // Wait observations: one zero (bucket 0) and one 900 ns (bucket
        // 10, le=1023). The le="0" line holds 1, the le="1023" line and
        // +Inf hold the cumulative 2.
        assert!(text.contains(r#"dynfb_lock_wait_ns_bucket{lock="1",region="slot1",le="0"} 1"#));
        assert!(text.contains(r#"dynfb_lock_wait_ns_bucket{lock="1",region="slot1",le="1023"} 2"#));
        assert!(text.contains(r#"dynfb_lock_wait_ns_sum{lock="1",region="slot1"} 900"#));
        assert!(text.contains(r#"dynfb_lock_wait_ns_count{lock="1",region="slot1"} 2"#));
    }

    #[test]
    fn profile_json_is_deterministic_and_structured() {
        let reg = sample_registry();
        let a = profile_json(&reg, |id| format!("slot{id}"));
        let b = profile_json(&reg, |id| format!("slot{id}"));
        assert_eq!(a, b);
        assert!(a.starts_with("{\"locks\":["), "{a}");
        assert!(a.contains(r#""lock":1,"region":"slot1","acquires":2"#), "{a}");
        assert!(a.contains(r#""counters":{"items":16}"#), "{a}");
        assert!(a.ends_with("}\n"), "{a}");
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let mut h = Log2Histogram::default();
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.summary_quantiles(), None);
        // 100 observations of ~100 ns (bucket 7: [64, 127]).
        for _ in 0..100 {
            h.record(Duration::from_nanos(100));
        }
        let p50 = h.quantile(0.5).unwrap();
        assert!((64..=127).contains(&p50), "{p50}");
        // Quantiles are monotone in q.
        let (p50, p95, p99) = h.summary_quantiles().unwrap();
        assert!(p50 <= p95 && p95 <= p99);
        // A heavy tail pulls p99 into the tail bucket but not p50.
        for _ in 0..2 {
            h.record(Duration::from_micros(100)); // bucket 18
        }
        let (p50b, _, p99b) = h.summary_quantiles().unwrap();
        assert!((64..=127).contains(&p50b), "{p50b}");
        assert!(p99b > 127, "{p99b}");
        // All-zero observations estimate zero.
        let mut z = Log2Histogram::default();
        z.record(Duration::ZERO);
        assert_eq!(z.summary_quantiles(), Some((0, 0, 0)));
        // The unbounded top bucket still yields a finite estimate.
        let mut top = Log2Histogram::default();
        top.record(Duration::from_secs(10));
        assert!(top.quantile(0.5).is_some());
    }

    #[test]
    fn exporters_emit_quantiles() {
        let reg = sample_registry();
        let text = prometheus_text(&reg, |id| format!("slot{id}"));
        assert!(
            text.contains(r#"dynfb_lock_wait_quantile_ns{lock="1",region="slot1",quantile="0.5"}"#),
            "{text}"
        );
        assert!(text.contains("# TYPE dynfb_lock_wait_quantile_ns gauge"), "{text}");
        let json = profile_json(&reg, |id| format!("slot{id}"));
        assert!(json.contains(r#""waitQuantilesNs":{"p50":"#), "{json}");
        assert!(json.contains(r#""holdQuantilesNs":{"p50":"#), "{json}");
        // A registry whose histograms are all empty (e.g. a realtime
        // LockTable snapshot) omits the quantile families entirely but
        // renders null quantiles in JSON.
        let mut empty_hists = MetricsRegistry::new();
        let mut row = LockMetrics { acquires: 1, ..LockMetrics::default() };
        row.waiting = Duration::from_nanos(5);
        empty_hists.locks = vec![row];
        let text = prometheus_text(&empty_hists, |_| "r".to_string());
        assert!(!text.contains("quantile"), "{text}");
        let json = profile_json(&empty_hists, |_| "r".to_string());
        assert!(json.contains(r#""waitQuantilesNs":null"#), "{json}");
    }

    /// Prometheus text-exposition conformance: valid metric names, label
    /// escaping of hostile region labels (the compiler's `"class:tag+tag"`
    /// labels can in principle carry any bytes), and HELP/TYPE ordering.
    /// Pinned as a unit test so the live `/metrics` endpoint can't serve
    /// malformed text.
    #[test]
    fn prometheus_exposition_conformance() {
        fn valid_metric_name(name: &str) -> bool {
            let mut chars = name.chars();
            let first =
                chars.next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':');
            first && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        }

        let mut reg = sample_registry();
        reg.lock_acquired(2, Duration::from_nanos(10), Duration::from_nanos(3), 1);
        reg.lock_released(2, Duration::from_nanos(10), Duration::from_nanos(9));
        reg.counter("with\"quote", 1);
        // Region labels containing every character the format must escape.
        let label = |id: usize| format!("cons:shared+tree\"\\\n{id}");
        let text = prometheus_text(&reg, label);

        let mut seen_help: Vec<&str> = Vec::new();
        let mut seen_type: Vec<&str> = Vec::new();
        let mut seen_sample_families: Vec<&str> = Vec::new();
        for line in text.lines() {
            assert!(!line.is_empty(), "blank line in exposition");
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let name = rest.split(' ').next().unwrap();
                assert!(valid_metric_name(name), "bad HELP name {name:?}");
                assert!(!seen_help.contains(&name), "duplicate HELP for {name}");
                // HELP must precede the family's TYPE and samples.
                assert!(!seen_type.contains(&name), "TYPE before HELP for {name}");
                assert!(!seen_sample_families.contains(&name), "samples before HELP for {name}");
                seen_help.push(name);
            } else if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut parts = rest.split(' ');
                let name = parts.next().unwrap();
                let kind = parts.next().unwrap();
                assert!(matches!(kind, "counter" | "gauge" | "histogram"), "bad TYPE {kind}");
                assert!(seen_help.last() == Some(&name), "TYPE not adjacent to HELP for {name}");
                seen_type.push(name);
            } else {
                // A sample line: name{labels} value.
                let brace =
                    line.find('{').unwrap_or_else(|| panic!("unlabeled sample line {line:?}"));
                let name = &line[..brace];
                assert!(valid_metric_name(name), "bad sample name {name:?}");
                // The sample's family (histogram samples append _bucket /
                // _sum / _count to the family name) must have been typed.
                let family = seen_type
                    .iter()
                    .find(|f| {
                        name == **f
                            || name
                                .strip_prefix(**f)
                                .is_some_and(|s| matches!(s, "_bucket" | "_sum" | "_count"))
                    })
                    .unwrap_or_else(|| panic!("sample {name} has no preceding TYPE"));
                seen_sample_families.push(family);
                // Raw newlines inside a sample line are impossible by
                // construction (lines() split); check quotes and
                // backslashes are escaped within label values.
                let labels = &line[brace + 1..line.rfind('}').unwrap()];
                let mut bytes = labels.bytes().peekable();
                let mut in_value = false;
                while let Some(b) = bytes.next() {
                    match b {
                        b'"' => in_value = !in_value,
                        b'\\' if in_value => {
                            let next = bytes.next().expect("dangling backslash");
                            assert!(
                                matches!(next, b'\\' | b'"' | b'n'),
                                "bad escape \\{} in {line:?}",
                                next as char
                            );
                        }
                        _ => {}
                    }
                }
                assert!(!in_value, "unterminated label value in {line:?}");
                let value = line[line.rfind('}').unwrap() + 1..].trim();
                assert!(
                    value.parse::<f64>().is_ok() || value == "+Inf",
                    "bad sample value {value:?}"
                );
            }
        }
        // Every family that was HELPed was also TYPEd.
        assert_eq!(seen_help, seen_type);
        // The hostile label survived, escaped.
        assert!(text.contains(r#"cons:shared+tree\"\\\n"#), "{text}");
    }

    #[test]
    fn saturating_adds_pin_at_max() {
        let mut m = LockMetrics { acquires: u64::MAX - 1, ..LockMetrics::default() };
        let other = LockMetrics { acquires: 5, ..LockMetrics::default() };
        m.merge(&other);
        assert_eq!(m.acquires, u64::MAX);

        let table = LockTable::new(1);
        table.record_acquire(0, Duration::from_nanos(u64::MAX), 0);
        table.record_acquire(0, Duration::from_nanos(u64::MAX), 0);
        assert_eq!(table.snapshot()[0].waiting, Duration::from_nanos(u64::MAX));
    }
}
