//! Named counters, gauges and fixed-bucket latency histograms behind a
//! registry, with snapshot/diff support.
//!
//! The hot path is lock-free: a metric handle is an `Arc` around atomics,
//! so after the first lookup every update is a single `fetch_add`. Lookups
//! themselves take a read lock on the name table only, and callers on hot
//! paths are expected to cache the handle (see [`MetricsRegistry::counter`]).

use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Number of histogram buckets: power-of-two microsecond boundaries from
/// 1 µs up, with the last bucket catching everything larger.
pub const HISTOGRAM_BUCKETS: usize = 24;

/// A monotonically increasing counter.
///
/// # Examples
/// ```
/// let reg = obs::MetricsRegistry::new();
/// let c = reg.counter("tasks.completed");
/// c.add(2);
/// c.inc();
/// assert_eq!(c.get(), 3);
/// ```
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed gauge (set/add semantics).
///
/// # Examples
/// ```
/// let reg = obs::MetricsRegistry::new();
/// let g = reg.gauge("pool.open");
/// g.set(4);
/// g.add(-1);
/// assert_eq!(g.get(), 3);
/// ```
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Sets the gauge to `v`.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `d` (may be negative).
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket latency histogram: bucket *i* counts observations in
/// `[2^i µs, 2^(i+1) µs)`, the final bucket is unbounded. Also tracks the
/// observation count and the total (for means).
///
/// # Examples
/// ```
/// use std::time::Duration;
/// let reg = obs::MetricsRegistry::new();
/// let h = reg.histogram("stmt.select");
/// h.observe(Duration::from_micros(7));
/// h.observe(Duration::from_micros(130));
/// assert_eq!(h.count(), 2);
/// ```
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    total_us: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            total_us: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// The bucket index an observation of `us` microseconds lands in.
    fn bucket_for(us: u64) -> usize {
        let bits = 64 - us.leading_zeros() as usize; // 0 for us == 0
        bits.min(HISTOGRAM_BUCKETS - 1)
    }

    /// Records one latency observation.
    pub fn observe(&self, d: Duration) {
        let us = d.as_micros().min(u128::from(u64::MAX)) as u64;
        self.buckets[Self::bucket_for(us)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Adds `snap`'s observations.
    pub fn absorb(&self, snap: &HistogramSnapshot) {
        for (bucket, n) in self.buckets.iter().zip(snap.buckets) {
            bucket.fetch_add(n, Ordering::Relaxed);
        }
        self.count.fetch_add(snap.count, Ordering::Relaxed);
        self.total_us.fetch_add(snap.total_us, Ordering::Relaxed);
    }

    /// Copies the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            total_us: self.total_us.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (power-of-two µs boundaries).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of all observed latencies in microseconds.
    pub total_us: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            total_us: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Mean observation in microseconds (0 when empty).
    pub fn mean_us(&self) -> u64 {
        self.total_us.checked_div(self.count).unwrap_or(0)
    }

    /// Approximate p-th percentile (upper bucket bound), `p` in `[0, 1]`.
    pub fn percentile_us(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((self.count as f64) * p.clamp(0.0, 1.0)).ceil() as u64;
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target {
                return 1u64 << i;
            }
        }
        1u64 << (HISTOGRAM_BUCKETS - 1)
    }

    /// Bucket-wise difference (`self` must be the later snapshot).
    pub fn delta_since(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].saturating_sub(earlier.buckets[i])),
            count: self.count.saturating_sub(earlier.count),
            total_us: self.total_us.saturating_sub(earlier.total_us),
        }
    }
}

#[derive(Default)]
struct Tables {
    counters: HashMap<String, Arc<Counter>>,
    gauges: HashMap<String, Arc<Gauge>>,
    histograms: HashMap<String, Arc<Histogram>>,
}

/// A registry of named metrics.
///
/// Metric names use a dotted `layer.component.what` scheme, e.g.
/// `dbcp.pool.health_check_failures` or `sqldb.stmt.select` (see
/// DESIGN.md §10 for the full naming table).
///
/// # Examples
/// ```
/// let reg = obs::MetricsRegistry::new();
/// reg.counter("worker.tasks").add(3);
/// let before = reg.snapshot();
/// reg.counter("worker.tasks").add(2);
/// let delta = reg.snapshot().delta_since(&before);
/// assert_eq!(delta.counters["worker.tasks"], 2);
/// ```
#[derive(Default)]
pub struct MetricsRegistry {
    tables: RwLock<Tables>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let t = self.tables.read();
        f.debug_struct("MetricsRegistry")
            .field("counters", &t.counters.len())
            .field("gauges", &t.gauges.len())
            .field("histograms", &t.histograms.len())
            .finish()
    }
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// The counter named `name`, created on first use. The returned handle
    /// updates lock-free; hot paths should cache it.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        if let Some(c) = self.tables.read().counters.get(name) {
            return c.clone();
        }
        self.tables
            .write()
            .counters
            .entry(name.to_owned())
            .or_default()
            .clone()
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        if let Some(g) = self.tables.read().gauges.get(name) {
            return g.clone();
        }
        self.tables
            .write()
            .gauges
            .entry(name.to_owned())
            .or_default()
            .clone()
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        if let Some(h) = self.tables.read().histograms.get(name) {
            return h.clone();
        }
        self.tables
            .write()
            .histograms
            .entry(name.to_owned())
            .or_default()
            .clone()
    }

    /// Adds `snap` to the series of the same names: counters and
    /// histograms add up, gauges take `snap`'s level.
    pub fn absorb(&self, snap: &RegistrySnapshot) {
        for (name, v) in &snap.counters {
            self.counter(name).add(*v);
        }
        for (name, v) in &snap.gauges {
            self.gauge(name).set(*v);
        }
        for (name, h) in &snap.histograms {
            self.histogram(name).absorb(h);
        }
    }

    /// Copies every metric into an ordered snapshot.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let t = self.tables.read();
        RegistrySnapshot {
            counters: t
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: t.gauges.iter().map(|(k, v)| (k.clone(), v.get())).collect(),
            histograms: t
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// An ordered point-in-time copy of a whole [`MetricsRegistry`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RegistrySnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram states by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl RegistrySnapshot {
    /// Metric-wise difference (`self` must be the later snapshot). Metrics
    /// absent from `earlier` keep their full value; gauges report their
    /// *current* value (a level, not a rate).
    pub fn delta_since(&self, earlier: &RegistrySnapshot) -> RegistrySnapshot {
        RegistrySnapshot {
            counters: self
                .counters
                .iter()
                .map(|(k, v)| {
                    (
                        k.clone(),
                        v.saturating_sub(earlier.counters.get(k).copied().unwrap_or(0)),
                    )
                })
                .collect(),
            gauges: self.gauges.clone(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, v)| {
                    (
                        k.clone(),
                        earlier
                            .histograms
                            .get(k)
                            .map(|e| v.delta_since(e))
                            .unwrap_or(*v),
                    )
                })
                .collect(),
        }
    }

    /// Adds `other`'s series, e.g. an engine's registry beside a run's; a
    /// name in both keeps `other`'s value.
    pub fn extend(&mut self, other: RegistrySnapshot) {
        self.counters.extend(other.counters);
        self.gauges.extend(other.gauges);
        self.histograms.extend(other.histograms);
    }

    /// True when every counter and histogram is zero and there are no gauges.
    pub fn is_empty(&self) -> bool {
        self.counters.values().all(|v| *v == 0)
            && self.gauges.is_empty()
            && self.histograms.values().all(|h| h.count == 0)
    }
}

/// A process-wide registry. The library layers never record into it: each
/// count belongs to the registry of its owner (a run, a database, a pool, a
/// TCP driver), so a program that wants one process-wide sum keeps it here
/// itself.
///
/// # Examples
/// ```
/// let before = obs::global().snapshot();
/// obs::global().counter("docs.example").inc();
/// let delta = obs::global().snapshot().delta_since(&before);
/// assert_eq!(delta.counters["docs.example"], 1);
/// ```
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: std::sync::OnceLock<MetricsRegistry> = std::sync::OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_gauge_histogram_roundtrip() {
        let reg = MetricsRegistry::new();
        reg.counter("c").add(5);
        reg.gauge("g").set(-2);
        reg.histogram("h").observe(Duration::from_micros(3));
        let snap = reg.snapshot();
        assert_eq!(snap.counters["c"], 5);
        assert_eq!(snap.gauges["g"], -2);
        assert_eq!(snap.histograms["h"].count, 1);
        assert_eq!(snap.histograms["h"].total_us, 3);
    }

    #[test]
    fn histogram_buckets_are_log2_micros() {
        assert_eq!(Histogram::bucket_for(0), 0);
        assert_eq!(Histogram::bucket_for(1), 1);
        assert_eq!(Histogram::bucket_for(2), 2);
        assert_eq!(Histogram::bucket_for(3), 2);
        assert_eq!(Histogram::bucket_for(1024), 11);
        assert_eq!(Histogram::bucket_for(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn histogram_percentile_and_mean() {
        let h = Histogram::default();
        for _ in 0..90 {
            h.observe(Duration::from_micros(10));
        }
        for _ in 0..10 {
            h.observe(Duration::from_micros(1000));
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.mean_us(), (90 * 10 + 10 * 1000) / 100);
        assert!(s.percentile_us(0.5) <= 16);
        assert!(s.percentile_us(0.99) >= 1000);
        assert_eq!(HistogramSnapshot::default().percentile_us(0.5), 0);
    }

    /// Satellite requirement: quantile edge cases on the power-of-two
    /// histogram — empty, single sample, saturating bucket, monotonicity.
    #[test]
    fn percentile_empty_histogram_is_zero() {
        let s = HistogramSnapshot::default();
        for p in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(s.percentile_us(p), 0);
        }
    }

    #[test]
    fn percentile_single_sample_lands_in_its_bucket() {
        let h = Histogram::default();
        h.observe(Duration::from_micros(700)); // bucket 10: [512, 1024)
        let s = h.snapshot();
        for p in [0.01, 0.5, 0.99, 1.0] {
            assert_eq!(s.percentile_us(p), 1 << 10, "p={p}");
        }
    }

    #[test]
    fn percentile_saturating_bucket_reports_top_bound() {
        let h = Histogram::default();
        // far beyond the last boundary: everything piles into the
        // unbounded final bucket
        h.observe(Duration::from_secs(100_000));
        h.observe(Duration::from_secs(400_000));
        let s = h.snapshot();
        assert_eq!(s.buckets[HISTOGRAM_BUCKETS - 1], 2);
        assert_eq!(s.percentile_us(0.5), 1 << (HISTOGRAM_BUCKETS - 1));
        assert_eq!(s.percentile_us(1.0), 1 << (HISTOGRAM_BUCKETS - 1));
    }

    #[test]
    fn percentiles_are_monotone_in_p() {
        let h = Histogram::default();
        for us in [1u64, 3, 9, 40, 200, 1_000, 60_000, 2_000_000] {
            for _ in 0..5 {
                h.observe(Duration::from_micros(us));
            }
        }
        let s = h.snapshot();
        let mut last = 0;
        for i in 0..=100 {
            let p = i as f64 / 100.0;
            let v = s.percentile_us(p);
            assert!(v >= last, "p{i}: {v} < {last}");
            last = v;
        }
        assert!(s.percentile_us(0.5) <= s.percentile_us(0.99));
        // out-of-range p clamps instead of panicking
        assert_eq!(s.percentile_us(-1.0), s.percentile_us(0.0));
        assert_eq!(s.percentile_us(2.0), s.percentile_us(1.0));
    }

    #[test]
    fn snapshot_diff_is_per_run_not_cumulative() {
        let reg = MetricsRegistry::new();
        reg.counter("x").add(7);
        reg.histogram("h").observe(Duration::from_micros(5));
        let a = reg.snapshot();
        reg.counter("x").add(3);
        reg.counter("fresh").inc();
        reg.histogram("h").observe(Duration::from_micros(9));
        let d = reg.snapshot().delta_since(&a);
        assert_eq!(d.counters["x"], 3);
        assert_eq!(d.counters["fresh"], 1);
        assert_eq!(d.histograms["h"].count, 1);
        assert_eq!(d.histograms["h"].total_us, 9);
    }

    /// Satellite requirement: hammer the registry from 8 threads and assert
    /// exact totals — creation races and updates must never lose counts.
    #[test]
    fn registry_exact_under_8_thread_hammer() {
        let reg = Arc::new(MetricsRegistry::new());
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 10_000;
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let reg = reg.clone();
                std::thread::spawn(move || {
                    // half the threads cache the handle, half re-look it up,
                    // and everyone also touches a private name to force
                    // concurrent creation
                    let cached = reg.counter("hammer.shared");
                    for i in 0..PER_THREAD {
                        if t % 2 == 0 {
                            cached.inc();
                        } else {
                            reg.counter("hammer.shared").inc();
                        }
                        reg.counter(&format!("hammer.t{t}")).inc();
                        if i % 64 == 0 {
                            reg.histogram("hammer.lat")
                                .observe(Duration::from_micros(i));
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = reg.snapshot();
        assert_eq!(snap.counters["hammer.shared"], THREADS as u64 * PER_THREAD);
        for t in 0..THREADS {
            assert_eq!(snap.counters[&format!("hammer.t{t}")], PER_THREAD);
        }
        assert_eq!(
            snap.histograms["hammer.lat"].count,
            THREADS as u64 * PER_THREAD.div_ceil(64)
        );
    }

    #[test]
    fn absorb_adds_counts_and_takes_levels() {
        let run = MetricsRegistry::new();
        run.counter("c").add(3);
        run.gauge("g").set(7);
        run.histogram("h").observe(Duration::from_micros(5));
        let total = MetricsRegistry::new();
        total.gauge("g").set(1);
        total.absorb(&run.snapshot());
        total.absorb(&run.snapshot());
        let snap = total.snapshot();
        assert_eq!(snap.counters["c"], 6);
        assert_eq!(snap.gauges["g"], 7);
        assert_eq!(snap.histograms["h"].count, 2);
        assert_eq!(snap.histograms["h"].total_us, 10);
        assert_eq!(snap.histograms["h"].buckets[3], 2);
    }

    #[test]
    fn global_registry_is_shared() {
        global().counter("obs.test.global").add(2);
        assert!(global().snapshot().counters["obs.test.global"] >= 2);
    }
}
