//! Convergence progress sampling (paper §VI-A: "to report the results, we
//! sampled the entire dataset using a separate thread every 5 seconds").

use dbcp::{Connection, Driver};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One progress observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProgressSample {
    /// Time since the sampler started.
    pub elapsed: Duration,
    /// The scalar the progress query returned (e.g. sum of rank).
    pub value: f64,
    /// Bytes the run's engine had charged to its memory budget when the
    /// sample was taken ([`Driver::memory_used`]; `None` when the driver
    /// exposes no accounting, e.g. a remote engine).
    pub mem_bytes: Option<u64>,
}

/// Per-run fault-recovery counters: what the parallel engine had to do to
/// keep the query alive (all zero on a fault-free run); the run's
/// `sqloop.supervisor.*` series are read off them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryCounters {
    /// Compute/Gather tasks that failed on a transient error and were
    /// replayed (counted per replay dispatch, not per task).
    pub task_retries: u64,
    /// Workers that lost their engine connection and reopened it.
    pub worker_reconnects: u64,
    /// Task failures observed, transient or not (each replayed dispatch
    /// that fails again counts once more).
    pub task_failures: u64,
    /// Worker panics in tasks the scheduler processed (caught at the task
    /// boundary, or a thread found dead mid-task) or outside a task (found
    /// at join). A panic in an abandoned worker's task is not one: its task
    /// was replayed on the abandon verdict, its result dropped as a zombie.
    pub worker_panics: u64,
    /// Stall verdicts: busy workers whose heartbeat went silent past the
    /// stall timeout and were abandoned.
    pub stalls: u64,
    /// Replacement workers spawned for abandoned (stalled or dead) ones.
    pub worker_replacements: u64,
    /// `true` when parallel execution was abandoned and the run finished
    /// on the single-threaded executor.
    pub downgraded: bool,
}

impl RecoveryCounters {
    /// True when nothing had to be recovered.
    pub fn is_clean(&self) -> bool {
        *self == RecoveryCounters::default()
    }
}

impl std::fmt::Display for RecoveryCounters {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} task failure(s), {} replay(s), {} reconnect(s)",
            self.task_failures, self.task_retries, self.worker_reconnects,
        )?;
        if self.worker_panics > 0 {
            write!(f, ", {} worker panic(s)", self.worker_panics)?;
        }
        if self.stalls > 0 {
            write!(f, ", {} stall(s)", self.stalls)?;
        }
        if self.worker_replacements > 0 {
            write!(f, ", {} worker(s) replaced", self.worker_replacements)?;
        }
        if self.downgraded {
            write!(f, ", downgraded to single-threaded")?;
        }
        Ok(())
    }
}

/// A background sampling thread holding its own engine connection.
#[derive(Debug)]
pub struct Sampler {
    stop: Arc<AtomicBool>,
    samples: Arc<Mutex<Vec<ProgressSample>>>,
    handle: Option<JoinHandle<()>>,
}

impl Sampler {
    /// Starts sampling `query` (must return a single numeric value) every
    /// `interval` on `conn`, each sample also reading the memory `engine`'s
    /// database has charged ([`Driver::memory_used`]). The first sample is
    /// taken before this returns, so a run shorter than the thread's
    /// start-up still has one. Failed samples (e.g. lock-timeout while
    /// writers are busy) are skipped and counted in `metrics`, where
    /// `sqloop.mem.peak_bytes` is the largest reading the samples carry.
    pub fn start(
        mut conn: Box<dyn Connection>,
        engine: Option<Arc<dyn Driver>>,
        query: String,
        interval: Duration,
        metrics: &obs::MetricsRegistry,
    ) -> Sampler {
        let stop = Arc::new(AtomicBool::new(false));
        let samples = Arc::new(Mutex::new(Vec::new()));
        let stop2 = stop.clone();
        let samples2 = samples.clone();
        let start = Instant::now();
        let failed = metrics.counter("sqloop.sampler.failed_samples");
        let peak = metrics.gauge("sqloop.mem.peak_bytes");
        let mut sample = move || {
            let mem = engine.as_ref().and_then(|e| e.memory_used());
            let mem = mem.filter(|&n| n > 0);
            match conn.query(&query) {
                Ok(result) => {
                    if let Some(v) = result.scalar().and_then(|v| v.as_f64()) {
                        if let Some(n) = mem {
                            peak.set(peak.get().max(i64::try_from(n).unwrap_or(i64::MAX)));
                        }
                        samples2.lock().push(ProgressSample {
                            elapsed: start.elapsed(),
                            value: v,
                            mem_bytes: mem,
                        });
                    } else {
                        failed.inc();
                    }
                }
                Err(_) => failed.inc(),
            }
        };
        sample();
        let handle = std::thread::Builder::new()
            .name("sqloop-sampler".into())
            .spawn(move || loop {
                // sleep in small steps so stop() is responsive; cap each
                // nap at the *remaining* time so sub-5ms intervals do not
                // oversleep a full 5ms step
                let deadline = Instant::now() + interval;
                loop {
                    if stop2.load(Ordering::Relaxed) {
                        return;
                    }
                    let now = Instant::now();
                    if now >= deadline {
                        break;
                    }
                    std::thread::sleep((deadline - now).min(Duration::from_millis(5)));
                }
                sample();
            })
            .expect("spawn sampler thread");
        Sampler {
            stop,
            samples,
            handle: Some(handle),
        }
    }

    /// Stops the thread and returns the collected samples.
    pub fn stop(self) -> Vec<ProgressSample> {
        let samples = Arc::clone(&self.samples);
        drop(self);
        let mut samples = samples.lock();
        std::mem::take(&mut *samples)
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbcp::{Driver, LocalDriver};
    use sqldb::{Database, EngineProfile};

    #[test]
    fn sampler_collects_monotone_progress() {
        let db = Database::new(EngineProfile::Postgres);
        let mut s = db.connect();
        s.execute("CREATE TABLE t (id INT PRIMARY KEY, v FLOAT)")
            .unwrap();
        s.execute("INSERT INTO t VALUES (1, 0.0)").unwrap();
        let driver = LocalDriver::new(db);
        let sampler = Sampler::start(
            driver.connect().unwrap(),
            None,
            "SELECT SUM(v) FROM t".into(),
            Duration::from_millis(5),
            &obs::MetricsRegistry::new(),
        );
        for i in 1..=20 {
            s.execute(&format!("UPDATE t SET v = {i}.0")).unwrap();
            std::thread::sleep(Duration::from_millis(2));
        }
        let samples = sampler.stop();
        assert!(samples.len() >= 2, "got {} samples", samples.len());
        // elapsed increases
        for w in samples.windows(2) {
            assert!(w[1].elapsed >= w[0].elapsed);
        }
        // values are within the written range
        assert!(samples.iter().all(|s| (0.0..=20.0).contains(&s.value)));
    }

    #[test]
    fn recovery_counters_render_and_compare() {
        let clean = RecoveryCounters::default();
        assert!(clean.is_clean());
        let busy = RecoveryCounters {
            task_retries: 4,
            worker_reconnects: 2,
            task_failures: 5,
            worker_panics: 1,
            stalls: 2,
            worker_replacements: 3,
            downgraded: true,
        };
        assert!(!busy.is_clean());
        let text = busy.to_string();
        assert!(text.contains("4 replay(s)"), "{text}");
        assert!(text.contains("2 reconnect(s)"), "{text}");
        assert!(text.contains("1 worker panic(s)"), "{text}");
        assert!(text.contains("2 stall(s)"), "{text}");
        assert!(text.contains("3 worker(s) replaced"), "{text}");
        assert!(text.contains("downgraded"), "{text}");
        let clean_text = clean.to_string();
        assert!(!clean_text.contains("downgraded"));
        // supervision counters stay silent on clean runs
        assert!(!clean_text.contains("panic"), "{clean_text}");
        assert!(!clean_text.contains("stall"), "{clean_text}");
        // a supervised recovery alone makes the run non-clean
        let stalled = RecoveryCounters {
            stalls: 1,
            worker_replacements: 1,
            ..RecoveryCounters::default()
        };
        assert!(!stalled.is_clean());
    }

    #[test]
    fn sampler_survives_bad_query() {
        let db = Database::new(EngineProfile::Postgres);
        let driver = LocalDriver::new(db);
        let metrics = obs::MetricsRegistry::new();
        let sampler = Sampler::start(
            driver.connect().unwrap(),
            None,
            "SELECT broken FROM nowhere".into(),
            Duration::from_millis(2),
            &metrics,
        );
        std::thread::sleep(Duration::from_millis(20));
        let samples = sampler.stop();
        assert!(samples.is_empty());
        // every attempt failed, and each is in the sampler's books
        assert!(metrics.counter("sqloop.sampler.failed_samples").get() >= 1);
    }
}
