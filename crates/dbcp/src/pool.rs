//! A small blocking connection pool with liveness checking.

use crate::cancel::CancelToken;
use crate::driver::{Connection, Driver};
use crate::retry::RetryPolicy;
use parking_lot::{Condvar, Mutex};
use sqldb::{DbError, DbResult};
use std::sync::Arc;
use std::time::Duration;

struct PoolState {
    idle: Vec<Box<dyn Connection>>,
    total: usize,
}

/// A fixed-capacity connection pool over any [`Driver`].
///
/// SQLoop's thread pool opens one connection per worker; this pool exists
/// for applications embedding the middleware that want bounded connection
/// reuse instead. Connections are liveness-probed on checkout and on
/// return ([`Connection::ping`]); dead ones are discarded and their slot
/// freed, so a flaky network or a chaos drop never recycles a broken
/// connection to the next caller.
pub struct Pool {
    driver: Arc<dyn Driver>,
    state: Mutex<PoolState>,
    available: Condvar,
    capacity: usize,
    connect_retry: RetryPolicy,
    /// Checkouts, returns, failed probes and connect retries' waits.
    metrics: obs::MetricsRegistry,
    // metric handles resolved once at construction (see DESIGN.md §10)
    m_get: Arc<obs::Histogram>,
    m_put: Arc<obs::Histogram>,
    m_health_failures: Arc<obs::Counter>,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("capacity", &self.capacity)
            .finish_non_exhaustive()
    }
}

/// A checked-out connection; returns to the pool on drop.
pub struct PooledConnection<'a> {
    pool: &'a Pool,
    conn: Option<Box<dyn Connection>>,
}

impl std::fmt::Debug for PooledConnection<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PooledConnection").finish_non_exhaustive()
    }
}

impl Pool {
    /// Creates a pool that will open at most `capacity` connections.
    pub fn new(driver: Arc<dyn Driver>, capacity: usize) -> Pool {
        Pool::with_retry(driver, capacity, RetryPolicy::none())
    }

    /// As [`Pool::new`], with transient connect failures retried under
    /// `connect_retry` before checkout gives up.
    pub fn with_retry(
        driver: Arc<dyn Driver>,
        capacity: usize,
        connect_retry: RetryPolicy,
    ) -> Pool {
        let metrics = obs::MetricsRegistry::new();
        Pool {
            driver,
            state: Mutex::new(PoolState {
                idle: Vec::new(),
                total: 0,
            }),
            available: Condvar::new(),
            capacity: capacity.max(1),
            connect_retry,
            m_get: metrics.histogram("dbcp.pool.get"),
            m_put: metrics.histogram("dbcp.pool.put"),
            m_health_failures: metrics.counter("dbcp.pool.health_check_failures"),
            metrics,
        }
    }

    /// What this pool counted: `dbcp.pool.*` and `dbcp.retry.*`.
    pub fn metrics(&self) -> obs::RegistrySnapshot {
        self.metrics.snapshot()
    }

    /// Checks out a live connection, opening one lazily while under
    /// capacity and otherwise waiting up to `timeout` for a return. Idle
    /// connections that fail the liveness probe are discarded (freeing
    /// their capacity slot) rather than handed out.
    ///
    /// # Errors
    /// Returns [`DbError::Connection`] on open failure or checkout timeout.
    pub fn get(&self, timeout: Duration) -> DbResult<PooledConnection<'_>> {
        let started = std::time::Instant::now();
        let mut state = self.state.lock();
        loop {
            while let Some(mut conn) = state.idle.pop() {
                // probe outside any fairness concern: the lock is held, but
                // ping is one round trip on an idle connection
                if conn.ping() {
                    self.m_get.observe(started.elapsed());
                    return Ok(PooledConnection {
                        pool: self,
                        conn: Some(conn),
                    });
                }
                self.m_health_failures.inc();
                state.total -= 1;
                drop(conn);
                self.available.notify_one();
            }
            if state.total < self.capacity {
                state.total += 1;
                drop(state);
                let (retry, cancel) = (&self.connect_retry, CancelToken::new());
                match retry.run_with_cancel(&cancel, &self.metrics, |_| self.driver.connect()) {
                    Ok(conn) => {
                        self.m_get.observe(started.elapsed());
                        return Ok(PooledConnection {
                            pool: self,
                            conn: Some(conn),
                        });
                    }
                    Err(e) => {
                        self.state.lock().total -= 1;
                        self.available.notify_one();
                        return Err(e);
                    }
                }
            }
            if self.available.wait_for(&mut state, timeout).timed_out() {
                return Err(DbError::Connection(
                    "timed out waiting for a pooled connection".into(),
                ));
            }
        }
    }

    /// Number of connections currently open (idle + checked out).
    pub fn open_connections(&self) -> usize {
        self.state.lock().total
    }

    /// Returns a connection to the idle set — or discards it when the
    /// liveness probe fails, freeing its capacity slot. Waiters are
    /// notified either way (a freed slot lets them open a fresh one).
    fn put_back(&self, mut conn: Box<dyn Connection>) {
        let started = std::time::Instant::now();
        let alive = conn.ping();
        if !alive {
            self.m_health_failures.inc();
        }
        let mut state = self.state.lock();
        if alive {
            state.idle.push(conn);
        } else {
            state.total -= 1;
            drop(conn);
        }
        drop(state);
        self.available.notify_one();
        self.m_put.observe(started.elapsed());
    }
}

impl PooledConnection<'_> {
    /// The underlying connection.
    pub fn conn(&mut self) -> &mut dyn Connection {
        self.conn.as_mut().expect("present until drop").as_mut()
    }
}

impl Drop for PooledConnection<'_> {
    fn drop(&mut self) {
        if let Some(conn) = self.conn.take() {
            self.pool.put_back(conn);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{ChaosConfig, ChaosDriver, FaultWeights};
    use crate::driver::LocalDriver;
    use sqldb::{Database, EngineProfile, Value};

    fn local_driver() -> Arc<LocalDriver> {
        let db = Database::new(EngineProfile::Postgres);
        let mut s = db.connect();
        s.execute("CREATE TABLE t (a INT)").unwrap();
        s.execute("INSERT INTO t VALUES (1)").unwrap();
        Arc::new(LocalDriver::new(db))
    }

    fn pool(cap: usize) -> Pool {
        Pool::new(local_driver(), cap)
    }

    #[test]
    fn checkout_and_reuse() {
        let p = pool(2);
        {
            let mut c = p.get(Duration::from_secs(1)).unwrap();
            let r = c.conn().query("SELECT a FROM t").unwrap();
            assert_eq!(r.rows[0][0], Value::Int(1));
        }
        assert_eq!(p.open_connections(), 1);
        let _c1 = p.get(Duration::from_secs(1)).unwrap();
        let _c2 = p.get(Duration::from_secs(1)).unwrap();
        assert_eq!(p.open_connections(), 2);
    }

    #[test]
    fn capacity_enforced_with_timeout() {
        let p = pool(1);
        let _held = p.get(Duration::from_secs(1)).unwrap();
        let err = p.get(Duration::from_millis(50));
        assert!(matches!(err, Err(DbError::Connection(_))));
    }

    #[test]
    fn waiting_checkout_succeeds_after_return() {
        let p = Arc::new(pool(1));
        let held = p.get(Duration::from_secs(1)).unwrap();
        let p2 = p.clone();
        let h = std::thread::spawn(move || {
            let mut c = p2.get(Duration::from_secs(5)).unwrap();
            c.conn().query("SELECT a FROM t").unwrap().rows.len()
        });
        std::thread::sleep(Duration::from_millis(30));
        drop(held);
        assert_eq!(h.join().unwrap(), 1);
    }

    /// A connection dropped mid-session must not be recycled: put_back
    /// discards it and frees the slot.
    #[test]
    fn broken_connection_is_discarded_on_return() {
        let chaos = Arc::new(ChaosDriver::new(
            local_driver(),
            ChaosConfig {
                // fault exactly one statement, then heal
                max_faults: Some(1),
                weights: FaultWeights {
                    connect_refused: 0,
                    stmt_error: 0,
                    latency: 0,
                    drop: 1,
                    ..FaultWeights::default()
                },
                ..ChaosConfig::seeded(1, 1.0)
            },
        ));
        let p = Pool::new(chaos, 2);
        {
            let mut c = p.get(Duration::from_secs(1)).unwrap();
            // the single budgeted fault drops this connection
            let err = c.conn().execute("SELECT a FROM t");
            assert!(matches!(err, Err(DbError::Connection(_))), "{err:?}");
            assert_eq!(p.open_connections(), 1);
        }
        // the dead connection was discarded, not pooled, and its failed
        // probe counted in the pool's own books
        assert_eq!(p.open_connections(), 0);
        assert_eq!(p.metrics().counters["dbcp.pool.health_check_failures"], 1);
        // and a fresh checkout works (outage healed)
        let mut c = p.get(Duration::from_secs(1)).unwrap();
        assert_eq!(
            c.conn().query("SELECT a FROM t").unwrap().rows[0][0],
            Value::Int(1)
        );
    }

    /// A waiter blocked at capacity must wake up when a dead connection's
    /// slot is freed, not time out.
    #[test]
    fn waiter_wakes_when_dead_connection_frees_a_slot() {
        let chaos = Arc::new(ChaosDriver::new(
            local_driver(),
            ChaosConfig {
                max_faults: Some(1),
                weights: FaultWeights {
                    connect_refused: 0,
                    stmt_error: 0,
                    latency: 0,
                    drop: 1,
                    ..FaultWeights::default()
                },
                ..ChaosConfig::seeded(2, 1.0)
            },
        ));
        let p = Arc::new(Pool::new(chaos, 1));
        let mut held = p.get(Duration::from_secs(1)).unwrap();
        let _ = held.conn().execute("SELECT a FROM t"); // drops the conn
        let p2 = p.clone();
        let h = std::thread::spawn(move || {
            let mut c = p2.get(Duration::from_secs(5)).unwrap();
            c.conn().query("SELECT a FROM t").unwrap().rows.len()
        });
        std::thread::sleep(Duration::from_millis(30));
        drop(held); // discards the dead conn, frees the slot
        assert_eq!(h.join().unwrap(), 1);
    }

    /// Connect retries absorb injected refusals under a bounded policy.
    #[test]
    fn connect_retry_rides_through_refusals() {
        let chaos = Arc::new(ChaosDriver::new(
            local_driver(),
            ChaosConfig {
                max_faults: Some(2),
                weights: FaultWeights {
                    connect_refused: 1,
                    stmt_error: 0,
                    latency: 0,
                    drop: 0,
                    ..FaultWeights::default()
                },
                ..ChaosConfig::seeded(3, 1.0)
            },
        ));
        let stats = chaos.stats();
        let p = Pool::with_retry(chaos, 1, RetryPolicy::new(4, Duration::ZERO));
        let mut c = p.get(Duration::from_secs(1)).unwrap();
        assert_eq!(
            c.conn().query("SELECT a FROM t").unwrap().rows[0][0],
            Value::Int(1)
        );
        assert_eq!(stats.connects_refused(), 2);
        let books = p.metrics();
        assert_eq!(books.counters["dbcp.retry.backoff_waits"], 2);
        assert_eq!(books.histograms["dbcp.pool.get"].count, 1);
    }
}
