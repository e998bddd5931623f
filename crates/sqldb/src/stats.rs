//! Execution statistics counters (lock-free, shared per database).

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
    exec: ExecMetrics,
}

/// `sqloop.exec.*` in the process registry, resolved once per database.
#[derive(Debug)]
struct ExecMetrics(Arc<obs::Counter>, Arc<obs::Counter>, Arc<obs::Gauge>);

impl Default for ExecMetrics {
    fn default() -> ExecMetrics {
        let reg = obs::global();
        ExecMetrics(
            reg.counter("sqloop.exec.batches"),
            reg.counter("sqloop.exec.batch_rows"),
            reg.gauge("sqloop.exec.rows_per_batch"),
        )
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

    /// Records batch-level execution actuals into the process registry
    /// (`sqloop.exec.*`), picked up by the Prometheus scrape endpoint and
    /// the CLI `\stats` view.
    pub fn note_exec_batches(&self, batches: u64, rows: u64) {
        if batches == 0 {
            return;
        }
        let ExecMetrics(total, total_rows, rows_per_batch) = &self.exec;
        total.add(batches);
        total_rows.add(rows);
        rows_per_batch.set((rows / batches) as i64);
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
