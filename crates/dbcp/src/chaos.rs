//! Deterministic fault injection for resilience testing.
//!
//! [`ChaosDriver`] wraps any [`Driver`] and injects seeded, reproducible
//! faults into the connections it mints: refused connects, failed
//! statements, added latency, and mid-session connection drops. Faults are
//! injected *before* the wrapped operation runs, so a faulted statement has
//! no partial effect — which is what makes statement-level replay by the
//! caller safe.
//!
//! Injection is driven by one RNG per connection, seeded from
//! `(config.seed, connection index)`, so a given topology of connections
//! sees the same fault sequence on every run regardless of wall-clock
//! timing. An exact-position `schedule` can pin faults to specific global
//! operation indices for tests.

use crate::driver::{Connection, Driver};
use crate::retry::RetryPolicy;
use sqldb::{DbError, DbResult, EngineProfile, IsolationLevel, StmtOutput, Value};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The kinds of fault [`ChaosDriver`] can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// `Driver::connect` fails with [`DbError::Connection`].
    ConnectRefused,
    /// A statement fails with [`DbError::LockTimeout`] before executing;
    /// the connection stays usable.
    StmtError,
    /// A statement is delayed by [`ChaosConfig::latency`] and then runs
    /// normally.
    Latency,
    /// The connection "drops": the statement fails with
    /// [`DbError::Connection`] and every later use of this connection
    /// fails the same way.
    Drop,
    /// The statement hangs for [`ChaosConfig::stall`] (interruptible via
    /// [`ChaosStats::heal_stalls`]) and then runs normally — a slow
    /// statement, not a dead worker. Long enough to trip a tight
    /// stall detector, which is exactly the hazard [`FaultKind`] exists
    /// to exercise.
    StallMs,
    /// The statement hangs forever: the injecting thread sleeps until
    /// [`ChaosStats::heal_stalls`] releases it, then fails with
    /// [`DbError::Connection`] *without executing* — so a supervisor that
    /// abandoned the worker and replayed its task elsewhere never sees
    /// the statement applied twice. Models a truly hung worker.
    StallForever,
    /// The statement panics (`panic!`) before executing — models a bug in
    /// the driver/engine boundary unwinding through a worker thread.
    Panic,
}

/// Relative weights for randomly chosen fault kinds (a zero weight
/// disables that kind).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultWeights {
    /// Weight of [`FaultKind::ConnectRefused`].
    pub connect_refused: u32,
    /// Weight of [`FaultKind::StmtError`].
    pub stmt_error: u32,
    /// Weight of [`FaultKind::Latency`].
    pub latency: u32,
    /// Weight of [`FaultKind::Drop`].
    pub drop: u32,
    /// Weight of [`FaultKind::StallMs`] (off by default — stalls change
    /// run timing, so tests opt in).
    pub stall: u32,
    /// Weight of [`FaultKind::Panic`] (off by default).
    pub panic: u32,
}

impl Default for FaultWeights {
    fn default() -> FaultWeights {
        FaultWeights {
            connect_refused: 1,
            stmt_error: 4,
            latency: 2,
            drop: 1,
            stall: 0,
            panic: 0,
        }
    }
}

/// A fault pinned to an exact global operation index (0-based count of
/// statements and connects passing through the driver).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledFault {
    /// Which operation (in global arrival order) to fault.
    pub nth_op: u64,
    /// What to inject.
    pub kind: FaultKind,
}

/// Configuration for a [`ChaosDriver`].
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosConfig {
    /// Seed for all randomized decisions; same seed → same per-connection
    /// fault stream.
    pub seed: u64,
    /// Probability in `[0, 1]` that an eligible operation faults.
    pub fault_rate: f64,
    /// Relative likelihood of each fault kind when one fires.
    pub weights: FaultWeights,
    /// Delay injected by [`FaultKind::Latency`].
    pub latency: Duration,
    /// How long a [`FaultKind::StallMs`] statement hangs before
    /// proceeding.
    pub stall: Duration,
    /// Total fault budget across the driver (`None` = unlimited). Once
    /// spent, the outage "heals" and operations pass through untouched.
    pub max_faults: Option<u64>,
    /// When set, only statements containing this substring are eligible
    /// for statement-level faults (connect faults are unaffected). Lets
    /// tests target one subsystem's SQL while leaving the rest reliable.
    pub match_substring: Option<String>,
    /// Exact-position faults checked before any random draw.
    pub schedule: Vec<ScheduledFault>,
    /// The first N connections are never faulted (and their statements
    /// pass through untouched) — useful to shield setup/control
    /// connections while chaosing workers.
    pub skip_connections: usize,
}

impl Default for ChaosConfig {
    fn default() -> ChaosConfig {
        ChaosConfig {
            seed: 0,
            fault_rate: 0.05,
            weights: FaultWeights::default(),
            latency: Duration::from_millis(2),
            stall: Duration::from_millis(50),
            max_faults: None,
            match_substring: None,
            schedule: Vec::new(),
            skip_connections: 0,
        }
    }
}

impl ChaosConfig {
    /// A config with the given seed and fault rate, defaults elsewhere.
    pub fn seeded(seed: u64, fault_rate: f64) -> ChaosConfig {
        ChaosConfig {
            seed,
            fault_rate,
            ..ChaosConfig::default()
        }
    }
}

#[derive(Debug, Default)]
struct StatsInner {
    ops: AtomicU64,
    faults: AtomicU64,
    connects_refused: AtomicU64,
    stmt_errors: AtomicU64,
    latencies: AtomicU64,
    drops: AtomicU64,
    stalls: AtomicU64,
    panics: AtomicU64,
    /// When set, every in-flight or future stall (finite or forever)
    /// releases immediately instead of sleeping.
    stalls_released: std::sync::atomic::AtomicBool,
}

/// Counters of everything a [`ChaosDriver`] injected. Cheap to clone;
/// clones share the same counters.
#[derive(Debug, Clone, Default)]
pub struct ChaosStats(Arc<StatsInner>);

impl ChaosStats {
    /// Operations (connects + statements) that passed through the driver.
    pub fn ops(&self) -> u64 {
        self.0.ops.load(Ordering::Relaxed)
    }

    /// Total faults injected, of any kind.
    pub fn faults(&self) -> u64 {
        self.0.faults.load(Ordering::Relaxed)
    }

    /// Injected connect refusals.
    pub fn connects_refused(&self) -> u64 {
        self.0.connects_refused.load(Ordering::Relaxed)
    }

    /// Injected statement errors.
    pub fn stmt_errors(&self) -> u64 {
        self.0.stmt_errors.load(Ordering::Relaxed)
    }

    /// Injected latency delays.
    pub fn latencies(&self) -> u64 {
        self.0.latencies.load(Ordering::Relaxed)
    }

    /// Injected connection drops.
    pub fn drops(&self) -> u64 {
        self.0.drops.load(Ordering::Relaxed)
    }

    /// Injected stalls (finite and forever).
    pub fn stalls(&self) -> u64 {
        self.0.stalls.load(Ordering::Relaxed)
    }

    /// Injected panics.
    pub fn panics(&self) -> u64 {
        self.0.panics.load(Ordering::Relaxed)
    }

    /// Releases every stalled thread, now and in the future. A released
    /// [`FaultKind::StallForever`] fails with [`DbError::Connection`]
    /// without executing its statement; a released [`FaultKind::StallMs`]
    /// stops sleeping and proceeds. Call this at the end of a stall test
    /// so abandoned worker threads exit instead of leaking.
    pub fn heal_stalls(&self) {
        self.0.stalls_released.store(true, Ordering::SeqCst);
    }

    fn stalls_released(&self) -> bool {
        self.0.stalls_released.load(Ordering::SeqCst)
    }

    /// Tries to claim one unit of fault budget.
    fn claim(&self, max: Option<u64>) -> bool {
        match max {
            None => {
                self.0.faults.fetch_add(1, Ordering::Relaxed);
                true
            }
            Some(cap) => {
                let mut cur = self.0.faults.load(Ordering::Relaxed);
                loop {
                    if cur >= cap {
                        return false;
                    }
                    match self.0.faults.compare_exchange_weak(
                        cur,
                        cur + 1,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => return true,
                        Err(seen) => cur = seen,
                    }
                }
            }
        }
    }

    fn record(&self, kind: FaultKind) {
        let (counter, name) = match kind {
            FaultKind::ConnectRefused => (
                &self.0.connects_refused,
                "dbcp.chaos.injected.connect_refused",
            ),
            FaultKind::StmtError => (&self.0.stmt_errors, "dbcp.chaos.injected.stmt_error"),
            FaultKind::Latency => (&self.0.latencies, "dbcp.chaos.injected.latency"),
            FaultKind::Drop => (&self.0.drops, "dbcp.chaos.injected.drop"),
            FaultKind::StallMs | FaultKind::StallForever => {
                (&self.0.stalls, "dbcp.chaos.injected.stall")
            }
            FaultKind::Panic => (&self.0.panics, "dbcp.chaos.injected.panic"),
        };
        counter.fetch_add(1, Ordering::Relaxed);
        let reg = obs::global();
        reg.counter("dbcp.chaos.injected.total").inc();
        reg.counter(name).inc();
    }
}

/// How often a stalled thread re-checks [`ChaosStats::heal_stalls`].
const STALL_POLL: Duration = Duration::from_millis(5);

/// SplitMix64 — deterministic, cheap, good enough for fault placement.
#[derive(Debug, Clone)]
struct ChaosRng(u64);

impl ChaosRng {
    fn for_connection(seed: u64, conn_index: u64) -> ChaosRng {
        ChaosRng(seed ^ conn_index.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5851_F42D_4C95_7F2D)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A [`Driver`] decorator injecting deterministic faults (see the module
/// docs).
pub struct ChaosDriver {
    inner: Arc<dyn Driver>,
    config: ChaosConfig,
    stats: ChaosStats,
    conn_counter: AtomicU64,
}

impl std::fmt::Debug for ChaosDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaosDriver")
            .field("config", &self.config)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl ChaosDriver {
    /// Wraps `inner` with fault injection per `config`.
    pub fn new(inner: Arc<dyn Driver>, config: ChaosConfig) -> ChaosDriver {
        ChaosDriver {
            inner,
            config,
            stats: ChaosStats::default(),
            conn_counter: AtomicU64::new(0),
        }
    }

    /// The shared injection counters.
    pub fn stats(&self) -> ChaosStats {
        self.stats.clone()
    }

    /// The active configuration.
    pub fn config(&self) -> &ChaosConfig {
        &self.config
    }
}

/// Picks a fault kind for this operation, or `None` to pass through.
/// `for_connect` limits the draw to connect-applicable kinds.
fn draw_fault(
    config: &ChaosConfig,
    stats: &ChaosStats,
    rng: &mut ChaosRng,
    op: u64,
    for_connect: bool,
) -> Option<FaultKind> {
    if let Some(s) = config.schedule.iter().find(|s| s.nth_op == op) {
        return stats.claim(config.max_faults).then_some(s.kind);
    }
    if rng.unit_f64() >= config.fault_rate {
        return None;
    }
    let w = config.weights;
    let (kinds, weights): (&[FaultKind], &[u32]) = if for_connect {
        (&[FaultKind::ConnectRefused], &[w.connect_refused])
    } else {
        (
            &[
                FaultKind::StmtError,
                FaultKind::Latency,
                FaultKind::Drop,
                FaultKind::StallMs,
                FaultKind::Panic,
            ],
            &[w.stmt_error, w.latency, w.drop, w.stall, w.panic],
        )
    };
    let total: u64 = weights.iter().map(|&x| u64::from(x)).sum();
    if total == 0 {
        return None;
    }
    let mut roll = rng.next_u64() % total;
    for (&kind, &weight) in kinds.iter().zip(weights) {
        let weight = u64::from(weight);
        if roll < weight {
            return stats.claim(config.max_faults).then_some(kind);
        }
        roll -= weight;
    }
    None
}

impl Driver for ChaosDriver {
    fn connect(&self) -> DbResult<Box<dyn Connection>> {
        let conn_index = self.conn_counter.fetch_add(1, Ordering::Relaxed);
        let op = self.stats.0.ops.fetch_add(1, Ordering::Relaxed);
        let mut rng = ChaosRng::for_connection(self.config.seed, conn_index);
        let shielded = (conn_index as usize) < self.config.skip_connections;
        if !shielded {
            if let Some(FaultKind::ConnectRefused) =
                draw_fault(&self.config, &self.stats, &mut rng, op, true)
            {
                self.stats.record(FaultKind::ConnectRefused);
                return Err(DbError::Connection(format!(
                    "chaos: connect refused (connection {conn_index})"
                )));
            }
        }
        let inner = self.inner.connect()?;
        Ok(Box::new(ChaosConnection {
            inner,
            driver_stats: self.stats.clone(),
            config: self.config.clone(),
            rng,
            shielded,
            dropped: false,
            stmt_sqls: HashMap::new(),
        }))
    }

    fn profile(&self) -> EngineProfile {
        self.inner.profile()
    }

    fn engine_stats(&self) -> Option<sqldb::StatsSnapshot> {
        self.inner.engine_stats()
    }

    fn engine_metrics(&self) -> Option<obs::RegistrySnapshot> {
        self.inner.engine_metrics()
    }

    fn memory_used(&self) -> Option<u64> {
        self.inner.memory_used()
    }

    fn plan_cache_stats(&self) -> Option<sqldb::PlanCacheStats> {
        self.inner.plan_cache_stats()
    }
}

/// A connection minted by [`ChaosDriver`]; injects statement-level faults.
pub struct ChaosConnection {
    inner: Box<dyn Connection>,
    driver_stats: ChaosStats,
    config: ChaosConfig,
    rng: ChaosRng,
    shielded: bool,
    dropped: bool,
    /// SQL text per prepared id, so prepared executions can be scoped by
    /// [`ChaosConfig::match_substring`] like their textual twins.
    stmt_sqls: HashMap<u64, String>,
}

impl std::fmt::Debug for ChaosConnection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaosConnection")
            .field("dropped", &self.dropped)
            .finish_non_exhaustive()
    }
}

impl ChaosConnection {
    /// Runs the injection decision before a statement. `Ok(())` means the
    /// statement should proceed (possibly after injected latency).
    fn before_stmt(&mut self, sql: &str) -> DbResult<()> {
        if self.dropped {
            return Err(DbError::Connection("chaos: connection was dropped".into()));
        }
        let op = self.driver_stats.0.ops.fetch_add(1, Ordering::Relaxed);
        if self.shielded {
            return Ok(());
        }
        if let Some(pat) = &self.config.match_substring {
            if !sql.contains(pat.as_str()) {
                return Ok(());
            }
        }
        match draw_fault(&self.config, &self.driver_stats, &mut self.rng, op, false) {
            None => Ok(()),
            Some(FaultKind::Latency) => {
                self.driver_stats.record(FaultKind::Latency);
                std::thread::sleep(self.config.latency);
                Ok(())
            }
            Some(FaultKind::StmtError) => {
                self.driver_stats.record(FaultKind::StmtError);
                Err(DbError::LockTimeout(
                    "chaos: injected statement failure".into(),
                ))
            }
            Some(FaultKind::Drop) | Some(FaultKind::ConnectRefused) => {
                self.driver_stats.record(FaultKind::Drop);
                self.dropped = true;
                Err(DbError::Connection("chaos: connection dropped".into()))
            }
            Some(FaultKind::StallMs) => {
                self.driver_stats.record(FaultKind::StallMs);
                let deadline = std::time::Instant::now() + self.config.stall;
                while std::time::Instant::now() < deadline {
                    if self.driver_stats.stalls_released() {
                        break;
                    }
                    std::thread::sleep(STALL_POLL.min(self.config.stall));
                }
                Ok(())
            }
            Some(FaultKind::StallForever) => {
                self.driver_stats.record(FaultKind::StallForever);
                while !self.driver_stats.stalls_released() {
                    std::thread::sleep(STALL_POLL);
                }
                // released: fail WITHOUT executing, and poison the
                // connection — by now a supervisor has replayed this
                // statement elsewhere, so running it here would apply it
                // twice
                self.dropped = true;
                Err(DbError::Connection(
                    "chaos: stalled connection released without executing".into(),
                ))
            }
            Some(FaultKind::Panic) => {
                self.driver_stats.record(FaultKind::Panic);
                panic!("chaos: injected panic before statement");
            }
        }
    }
}

impl Connection for ChaosConnection {
    fn execute(&mut self, sql: &str) -> DbResult<StmtOutput> {
        self.before_stmt(sql)?;
        self.inner.execute(sql)
    }

    fn begin(&mut self) -> DbResult<()> {
        if self.dropped {
            return Err(DbError::Connection("chaos: connection was dropped".into()));
        }
        self.inner.begin()
    }

    fn commit(&mut self) -> DbResult<()> {
        if self.dropped {
            return Err(DbError::Connection("chaos: connection was dropped".into()));
        }
        self.inner.commit()
    }

    fn rollback(&mut self) -> DbResult<()> {
        if self.dropped {
            return Err(DbError::Connection("chaos: connection was dropped".into()));
        }
        self.inner.rollback()
    }

    fn set_isolation(&mut self, level: IsolationLevel) -> DbResult<()> {
        if self.dropped {
            return Err(DbError::Connection("chaos: connection was dropped".into()));
        }
        self.inner.set_isolation(level)
    }

    fn ping(&mut self) -> bool {
        !self.dropped && self.inner.ping()
    }

    fn set_statement_timeout(&mut self, timeout: Option<Duration>) -> DbResult<bool> {
        if self.dropped {
            return Err(DbError::Connection("chaos: connection was dropped".into()));
        }
        self.inner.set_statement_timeout(timeout)
    }

    fn prepare_statement(&mut self, sql: &str) -> DbResult<(u64, usize)> {
        self.before_stmt(sql)?;
        let (id, n) = self.inner.prepare_statement(sql)?;
        self.stmt_sqls.insert(id, sql.to_owned());
        Ok((id, n))
    }

    fn execute_prepared(&mut self, stmt_id: u64, params: &[Value]) -> DbResult<StmtOutput> {
        // injection sees the statement's SQL text, so substring scoping
        // treats prepared and textual execution alike
        let sql = self.stmt_sqls.get(&stmt_id).cloned().unwrap_or_default();
        self.before_stmt(&sql)?;
        self.inner.execute_prepared(stmt_id, params)
    }

    fn close_prepared(&mut self, stmt_id: u64) -> DbResult<()> {
        if self.dropped {
            return Err(DbError::Connection("chaos: connection was dropped".into()));
        }
        self.stmt_sqls.remove(&stmt_id);
        self.inner.close_prepared(stmt_id)
    }

    fn prepared_epoch(&self) -> u64 {
        self.inner.prepared_epoch()
    }

    // run_pipeline deliberately uses the trait default (statement-at-a-time
    // through `execute`/`execute_prepared` above), so each step passes its
    // own injection decision — a pipeline under chaos faults exactly like
    // the equivalent statement sequence.

    fn profile(&self) -> EngineProfile {
        self.inner.profile()
    }
}

/// Convenience: wrap a driver and return both the chaos driver and its
/// stats handle.
pub fn with_chaos(inner: Arc<dyn Driver>, config: ChaosConfig) -> (Arc<ChaosDriver>, ChaosStats) {
    let driver = Arc::new(ChaosDriver::new(inner, config));
    let stats = driver.stats();
    (driver, stats)
}

/// Opens a connection through `driver` under `policy`, treating injected
/// refusals like any other transient connect failure.
///
/// # Errors
/// The last connect error once the policy's attempts are exhausted.
pub fn connect_with_retry(
    driver: &Arc<dyn Driver>,
    policy: &RetryPolicy,
) -> DbResult<Box<dyn Connection>> {
    policy.run(|_| driver.connect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::LocalDriver;
    use sqldb::{Database, EngineProfile};

    fn local() -> Arc<dyn Driver> {
        let db = Database::new(EngineProfile::Postgres);
        let mut s = db.connect();
        s.execute("CREATE TABLE t (a INT)").unwrap();
        s.execute("INSERT INTO t VALUES (1)").unwrap();
        Arc::new(LocalDriver::new(db))
    }

    /// Runs `n` statements through a fresh chaos driver and returns the
    /// outcome pattern (true = ok).
    fn run_pattern(config: ChaosConfig, n: usize) -> (Vec<bool>, ChaosStats) {
        let (driver, stats) = with_chaos(local(), config);
        let driver: Arc<dyn Driver> = driver;
        // seeded connect refusals are possible; ride through them
        let mut conn = connect_with_retry(&driver, &RetryPolicy::new(20, Duration::ZERO)).unwrap();
        let pattern = (0..n)
            .map(|_| conn.execute("SELECT a FROM t").is_ok())
            .collect();
        (pattern, stats)
    }

    #[test]
    fn same_seed_same_fault_sequence() {
        let config = ChaosConfig::seeded(42, 0.3);
        let (a, stats_a) = run_pattern(config.clone(), 200);
        let (b, stats_b) = run_pattern(config, 200);
        assert_eq!(a, b);
        assert_eq!(stats_a.faults(), stats_b.faults());
        assert!(stats_a.faults() > 0, "0.3 rate over 200 ops must fault");
    }

    #[test]
    fn different_seeds_differ() {
        let (a, _) = run_pattern(ChaosConfig::seeded(1, 0.3), 200);
        let (b, _) = run_pattern(ChaosConfig::seeded(2, 0.3), 200);
        assert_ne!(a, b);
    }

    #[test]
    fn zero_rate_injects_nothing() {
        let (pattern, stats) = run_pattern(ChaosConfig::seeded(9, 0.0), 100);
        assert!(pattern.iter().all(|&ok| ok));
        assert_eq!(stats.faults(), 0);
    }

    #[test]
    fn fault_budget_heals_the_outage() {
        let config = ChaosConfig {
            max_faults: Some(3),
            weights: FaultWeights {
                connect_refused: 0,
                stmt_error: 1,
                latency: 0,
                drop: 0,
                ..FaultWeights::default()
            },
            ..ChaosConfig::seeded(7, 1.0)
        };
        let (pattern, stats) = run_pattern(config, 50);
        assert_eq!(stats.faults(), 3);
        assert_eq!(pattern.iter().filter(|&&ok| !ok).count(), 3);
        // after the budget, everything passes
        assert!(pattern[3..].iter().all(|&ok| ok));
    }

    #[test]
    fn match_substring_scopes_faults() {
        let config = ChaosConfig {
            match_substring: Some("__msg_".into()),
            weights: FaultWeights {
                connect_refused: 0,
                stmt_error: 1,
                latency: 0,
                drop: 0,
                ..FaultWeights::default()
            },
            ..ChaosConfig::seeded(5, 1.0)
        };
        let (driver, stats) = with_chaos(local(), config);
        let mut conn = (driver.as_ref() as &dyn Driver).connect().unwrap();
        // non-matching statements always pass
        for _ in 0..20 {
            conn.execute("SELECT a FROM t").unwrap();
        }
        assert_eq!(stats.faults(), 0);
        // matching statements fault at rate 1.0
        let err = conn.execute("DROP TABLE IF EXISTS pr__msg_0_0");
        assert!(matches!(err, Err(DbError::LockTimeout(_))), "{err:?}");
        assert_eq!(stats.stmt_errors(), 1);
    }

    #[test]
    fn drop_poisons_the_connection() {
        let config = ChaosConfig {
            weights: FaultWeights {
                connect_refused: 0,
                stmt_error: 0,
                latency: 0,
                drop: 1,
                ..FaultWeights::default()
            },
            ..ChaosConfig::seeded(3, 1.0)
        };
        let (driver, stats) = with_chaos(local(), config);
        let mut conn = (driver.as_ref() as &dyn Driver).connect().unwrap();
        let first = conn.execute("SELECT a FROM t");
        assert!(matches!(first, Err(DbError::Connection(_))), "{first:?}");
        // poisoned: every later use fails without touching the budget
        let faults_after_drop = stats.faults();
        for _ in 0..5 {
            assert!(matches!(
                conn.execute("SELECT a FROM t"),
                Err(DbError::Connection(_))
            ));
            assert!(!conn.ping());
        }
        assert_eq!(stats.faults(), faults_after_drop);
        // a fresh connection from the driver works again (budget permitting)
        let (driver2, _) = with_chaos(
            local(),
            ChaosConfig {
                max_faults: Some(1),
                weights: FaultWeights {
                    connect_refused: 0,
                    stmt_error: 0,
                    latency: 0,
                    drop: 1,
                    ..FaultWeights::default()
                },
                ..ChaosConfig::seeded(3, 1.0)
            },
        );
        let mut c = (driver2.as_ref() as &dyn Driver).connect().unwrap();
        assert!(c.execute("SELECT a FROM t").is_err());
        let mut c2 = (driver2.as_ref() as &dyn Driver).connect().unwrap();
        assert!(c2.execute("SELECT a FROM t").is_ok());
    }

    #[test]
    fn scheduled_faults_fire_at_exact_ops() {
        let config = ChaosConfig {
            fault_rate: 0.0, // only the schedule fires
            schedule: vec![
                ScheduledFault {
                    nth_op: 3,
                    kind: FaultKind::StmtError,
                },
                ScheduledFault {
                    nth_op: 5,
                    kind: FaultKind::Latency,
                },
            ],
            latency: Duration::from_millis(1),
            ..ChaosConfig::seeded(0, 0.0)
        };
        let (driver, stats) = with_chaos(local(), config);
        // op 0 is the connect
        let mut conn = (driver.as_ref() as &dyn Driver).connect().unwrap();
        let mut outcomes = Vec::new();
        for _ in 1..=6 {
            outcomes.push(conn.execute("SELECT a FROM t").is_ok());
        }
        // ops 1..=6; op 3 errors, op 5 only delays
        assert_eq!(outcomes, vec![true, true, false, true, true, true]);
        assert_eq!(stats.stmt_errors(), 1);
        assert_eq!(stats.latencies(), 1);
    }

    #[test]
    fn connect_refusal_and_retry_recovery() {
        let config = ChaosConfig {
            max_faults: Some(2),
            weights: FaultWeights {
                connect_refused: 1,
                stmt_error: 0,
                latency: 0,
                drop: 0,
                ..FaultWeights::default()
            },
            ..ChaosConfig::seeded(11, 1.0)
        };
        let (driver, stats) = with_chaos(local(), config);
        let driver: Arc<dyn Driver> = driver;
        // two refusals, then the budget heals the outage
        let policy = RetryPolicy::new(5, Duration::ZERO);
        let mut conn = connect_with_retry(&driver, &policy).unwrap();
        assert!(conn.execute("SELECT a FROM t").is_ok());
        assert_eq!(stats.connects_refused(), 2);
    }

    #[test]
    fn stall_ms_delays_then_proceeds() {
        let config = ChaosConfig {
            fault_rate: 0.0,
            stall: Duration::from_millis(30),
            schedule: vec![ScheduledFault {
                nth_op: 1,
                kind: FaultKind::StallMs,
            }],
            ..ChaosConfig::seeded(0, 0.0)
        };
        let (driver, stats) = with_chaos(local(), config);
        let mut conn = (driver.as_ref() as &dyn Driver).connect().unwrap();
        let t0 = std::time::Instant::now();
        conn.execute("SELECT a FROM t").unwrap();
        assert!(
            t0.elapsed() >= Duration::from_millis(25),
            "stall should delay the statement"
        );
        assert_eq!(stats.stalls(), 1);
        // the connection stays healthy afterwards
        conn.execute("SELECT a FROM t").unwrap();
    }

    #[test]
    fn stall_forever_blocks_until_healed_and_never_executes() {
        let config = ChaosConfig {
            fault_rate: 0.0,
            schedule: vec![ScheduledFault {
                nth_op: 1,
                kind: FaultKind::StallForever,
            }],
            ..ChaosConfig::seeded(0, 0.0)
        };
        let (driver, stats) = with_chaos(local(), config);
        let mut conn = (driver.as_ref() as &dyn Driver).connect().unwrap();
        let stats2 = stats.clone();
        let h = std::thread::spawn(move || conn.execute("INSERT INTO t VALUES (2)"));
        // the statement is stalled, not running
        std::thread::sleep(Duration::from_millis(40));
        assert!(!h.is_finished(), "StallForever must hang until healed");
        stats2.heal_stalls();
        let out = h.join().unwrap();
        assert!(matches!(out, Err(DbError::Connection(_))), "{out:?}");
        assert_eq!(stats.stalls(), 1);
        // the row was NOT inserted: a healed stall must not execute
        let mut check = (driver.as_ref() as &dyn Driver).connect().unwrap();
        let rows = check.query("SELECT a FROM t").unwrap().rows;
        assert_eq!(rows.len(), 1, "stalled INSERT must not have applied");
    }

    #[test]
    fn panic_fault_unwinds_before_the_statement_runs() {
        let config = ChaosConfig {
            fault_rate: 0.0,
            schedule: vec![ScheduledFault {
                nth_op: 1,
                kind: FaultKind::Panic,
            }],
            ..ChaosConfig::seeded(0, 0.0)
        };
        let (driver, stats) = with_chaos(local(), config);
        let mut conn = (driver.as_ref() as &dyn Driver).connect().unwrap();
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            conn.execute("INSERT INTO t VALUES (3)")
        }));
        assert!(out.is_err(), "the injected panic must unwind");
        assert_eq!(stats.panics(), 1);
        let mut check = (driver.as_ref() as &dyn Driver).connect().unwrap();
        let rows = check.query("SELECT a FROM t").unwrap().rows;
        assert_eq!(rows.len(), 1, "panicked INSERT must not have applied");
    }

    #[test]
    fn skip_connections_shields_early_connections() {
        let config = ChaosConfig {
            skip_connections: 1,
            weights: FaultWeights {
                connect_refused: 1,
                stmt_error: 1,
                latency: 0,
                drop: 1,
                ..FaultWeights::default()
            },
            ..ChaosConfig::seeded(13, 1.0)
        };
        let (driver, stats) = with_chaos(local(), config);
        let mut first = (driver.as_ref() as &dyn Driver).connect().unwrap();
        for _ in 0..20 {
            first.execute("SELECT a FROM t").unwrap();
        }
        assert_eq!(stats.faults(), 0);
        // the second connection is not shielded
        let second = (driver.as_ref() as &dyn Driver).connect();
        assert!(
            second.is_err() || {
                let mut c = second.unwrap();
                (0..20).any(|_| c.execute("SELECT a FROM t").is_err())
            }
        );
        assert!(stats.faults() > 0);
    }
}
