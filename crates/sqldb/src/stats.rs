//! Execution statistics of one database: lock-free counters, and the
//! database's own metrics registry.

use crate::ast::Statement;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Cumulative execution counters for one database instance.
///
/// Used by the benchmark harness to report engine-level effects (e.g. how
/// many more rows the MySQL profile's nested-loop joins touch than the
/// PostgreSQL profile's hash joins on the same workload).
#[derive(Debug, Default)]
pub struct Stats {
    statements: AtomicU64,
    rows_scanned: AtomicU64,
    rows_joined: AtomicU64,
    index_lookups: AtomicU64,
    lock_waits: AtomicU64,
    pub(crate) metrics: EngineMetrics,
}

/// The database's metrics registry and the handles the engine records
/// into, resolved once per database so no statement looks a name up.
#[derive(Debug)]
pub(crate) struct EngineMetrics {
    pub(crate) registry: obs::MetricsRegistry,
    /// `sqldb.stmt.<kind>`, indexed by [`Statement::kind_index`].
    pub(crate) by_kind: Vec<Arc<obs::Histogram>>,
    pub(crate) plan: Arc<obs::Histogram>,
    pub(crate) prepare: Arc<obs::Histogram>,
    pub(crate) execute_prepared: Arc<obs::Histogram>,
    batches: Arc<obs::Counter>,
    batch_rows: Arc<obs::Counter>,
    rows_per_batch: Arc<obs::Gauge>,
    kernel_vector: Arc<obs::Counter>,
    kernel_fallback: Arc<obs::Counter>,
}

impl Default for EngineMetrics {
    fn default() -> EngineMetrics {
        let registry = obs::MetricsRegistry::new();
        let kinds = Statement::KIND_LABELS.iter();
        EngineMetrics {
            by_kind: kinds
                .map(|k| registry.histogram(&format!("sqldb.stmt.{k}")))
                .collect(),
            plan: registry.histogram("sqldb.plan"),
            prepare: registry.histogram("sqldb.prepare"),
            execute_prepared: registry.histogram("sqldb.execute_prepared"),
            batches: registry.counter("sqloop.exec.batches"),
            batch_rows: registry.counter("sqloop.exec.batch_rows"),
            rows_per_batch: registry.gauge("sqloop.exec.rows_per_batch"),
            kernel_vector: registry.counter("sqloop.exec.kernel.vector"),
            kernel_fallback: registry.counter("sqloop.exec.kernel.fallback"),
            registry,
        }
    }
}

/// A point-in-time copy of the counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Statements executed.
    pub statements: u64,
    /// Rows produced by scans and joins.
    pub rows_scanned: u64,
    /// Row pairs examined by nested-loop joins.
    pub rows_joined: u64,
    /// Index probes performed.
    pub index_lookups: u64,
    /// Lock acquisitions that had to wait.
    pub lock_waits: u64,
}

impl Stats {
    /// Creates zeroed counters.
    pub fn new() -> Stats {
        Stats::default()
    }

    /// Records executed statements.
    pub fn add_statements(&self, n: u64) {
        self.statements.fetch_add(n, Ordering::Relaxed);
    }

    /// Records scanned/produced rows.
    pub fn add_rows_scanned(&self, n: u64) {
        self.rows_scanned.fetch_add(n, Ordering::Relaxed);
    }

    /// Records nested-loop row-pair comparisons.
    pub fn add_rows_joined(&self, n: u64) {
        self.rows_joined.fetch_add(n, Ordering::Relaxed);
    }

    /// Records index probes.
    pub fn add_index_lookups(&self, n: u64) {
        self.index_lookups.fetch_add(n, Ordering::Relaxed);
    }

    /// Records a lock acquisition that had to wait.
    pub fn add_lock_waits(&self, n: u64) {
        self.lock_waits.fetch_add(n, Ordering::Relaxed);
    }

    /// Records batch-level execution actuals (`sqloop.exec.*`), picked up
    /// by the Prometheus scrape endpoint and the CLI `\stats` view.
    pub fn note_exec_batches(&self, batches: u64, rows: u64) {
        if batches == 0 {
            return;
        }
        let m = &self.metrics;
        m.batches.add(batches);
        m.batch_rows.add(rows);
        m.rows_per_batch.set((rows / batches) as i64);
    }

    /// Records one compiled kernel node, run row by row (`fallback`) or
    /// over whole lanes (`sqloop.exec.kernel.fallback` / `.vector`).
    pub(crate) fn note_kernel(&self, fallback: bool) {
        if fallback {
            self.metrics.kernel_fallback.inc();
        } else {
            self.metrics.kernel_vector.inc();
        }
    }

    /// Copies the current counter values.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            statements: self.statements.load(Ordering::Relaxed),
            rows_scanned: self.rows_scanned.load(Ordering::Relaxed),
            rows_joined: self.rows_joined.load(Ordering::Relaxed),
            index_lookups: self.index_lookups.load(Ordering::Relaxed),
            lock_waits: self.lock_waits.load(Ordering::Relaxed),
        }
    }
}

impl StatsSnapshot {
    /// Counter-wise difference (`self` must be the later snapshot).
    pub fn delta_since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            statements: self.statements - earlier.statements,
            rows_scanned: self.rows_scanned - earlier.rows_scanned,
            rows_joined: self.rows_joined - earlier.rows_joined,
            index_lookups: self.index_lookups - earlier.index_lookups,
            lock_waits: self.lock_waits - earlier.lock_waits,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let s = Stats::new();
        s.add_statements(2);
        s.add_rows_scanned(10);
        s.add_index_lookups(3);
        let snap = s.snapshot();
        assert_eq!(snap.statements, 2);
        assert_eq!(snap.rows_scanned, 10);
        assert_eq!(snap.index_lookups, 3);
    }

    #[test]
    fn delta_since() {
        let s = Stats::new();
        s.add_statements(5);
        let a = s.snapshot();
        s.add_statements(3);
        let b = s.snapshot();
        assert_eq!(b.delta_since(&a).statements, 3);
    }

    #[test]
    fn stats_shared_across_threads() {
        let s = std::sync::Arc::new(Stats::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let s = s.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        s.add_rows_scanned(1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.snapshot().rows_scanned, 4000);
    }
}
