//! Database instance and sessions.
//!
//! A [`Database`] is the engine's top-level object; each [`Session`] is the
//! analog of one server connection. The SQLoop middleware opens one session
//! per worker thread, which is how it obtains parallelism from the engine
//! without controlling its internals (paper §I): sessions executing
//! statements against *different* tables proceed concurrently because
//! locking is per table.

use crate::ast::Statement;
use crate::catalog::Catalog;
use crate::dialect_check::validate;
use crate::digest::{DigestEntry, DigestStats, SlowLog, SlowStatement};
use crate::error::{DbError, DbResult};
use crate::exec::{Executor, QueryResult, StmtOutput};
use crate::op_profile::OpProfiler;
use crate::parser::{parse_script, parse_statement};
use crate::plan_cache::{Admission, CachedPlan, PlanCache, PlanCacheStats};
use crate::profile::EngineProfile;
use crate::reads::Reads;
use crate::stats::{Stats, StatsSnapshot};
use crate::txn::{apply_undo, IsolationLevel, LockManager, LockMode, UndoLog, UndoOp};
use crate::value::Value;
use parking_lot::Mutex;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Default lock wait budget (compare MySQL's `innodb_lock_wait_timeout`).
pub const DEFAULT_LOCK_TIMEOUT: Duration = Duration::from_secs(10);

#[derive(Debug)]
struct Shared {
    catalog: Catalog,
    locks: LockManager,
    profile: EngineProfile,
    stats: Stats,
    next_session: AtomicU64,
    plan_cache: PlanCache,
    digests: DigestStats,
    slow: SlowLog,
    profiling: AtomicBool,
    /// Whether `SELECT`s run on the row-at-a-time reference evaluator.
    #[cfg(test)]
    row_oracle: AtomicBool,
    /// Rows-per-batch override for the vectorized pipeline (0 = use the
    /// profile default). Results are identical at any size; the
    /// equivalence suite exercises 1/3/default/4096.
    batch_size: AtomicU64,
    /// Armed panic-injection probe: `(table-name substring, shots left)`.
    panic_probe: Mutex<Option<(String, u64)>>,
}

/// A shared, thread-safe database instance.
///
/// Cloning is cheap (reference counted); all clones see the same data.
///
/// # Examples
/// ```
/// use sqldb::{Database, EngineProfile};
///
/// # fn main() -> Result<(), sqldb::DbError> {
/// let db = Database::new(EngineProfile::Postgres);
/// let mut session = db.connect();
/// session.execute("CREATE TABLE t (id INT PRIMARY KEY, v FLOAT)")?;
/// session.execute("INSERT INTO t VALUES (1, 0.5)")?;
/// let rows = session.query("SELECT v FROM t")?;
/// assert_eq!(rows.rows.len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Database {
    shared: Arc<Shared>,
}

impl Database {
    /// Creates an empty database emulating `profile`.
    pub fn new(profile: EngineProfile) -> Database {
        Database {
            shared: Arc::new(Shared {
                catalog: Catalog::new(),
                locks: LockManager::new(),
                profile,
                stats: Stats::new(),
                next_session: AtomicU64::new(1),
                plan_cache: PlanCache::default(),
                digests: DigestStats::new(),
                slow: SlowLog::default(),
                profiling: AtomicBool::new(false),
                #[cfg(test)]
                row_oracle: AtomicBool::new(false),
                batch_size: AtomicU64::new(0),
                panic_probe: Mutex::new(None),
            }),
        }
    }

    /// Opens a new session (the analog of one JDBC connection).
    pub fn connect(&self) -> Session {
        let sid = self.shared.next_session.fetch_add(1, Ordering::Relaxed);
        Session {
            shared: self.shared.clone(),
            sid,
            in_txn: false,
            undo: UndoLog::new(),
            held: HashSet::new(),
            isolation: IsolationLevel::default(),
            lock_timeout: DEFAULT_LOCK_TIMEOUT,
            statement_timeout: None,
        }
    }

    /// The engine profile this database emulates.
    pub fn profile(&self) -> EngineProfile {
        self.shared.profile
    }

    /// Snapshot of the execution statistics.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.stats.snapshot()
    }

    /// Names of all user tables (sorted).
    pub fn table_names(&self) -> Vec<String> {
        self.shared.catalog.table_names()
    }

    /// Direct catalog access for tooling/tests.
    pub fn catalog(&self) -> &Catalog {
        &self.shared.catalog
    }

    /// Sets (or clears) the database-wide memory limit in bytes.
    ///
    /// Once set, inserts and intermediate materializations that would push
    /// tracked bytes past the limit fail with [`DbError::BudgetExceeded`];
    /// the failing statement rolls back and refunds its charges.
    pub fn set_memory_limit(&self, limit: Option<u64>) {
        self.shared.catalog.memory_budget().set_limit(limit);
    }

    /// The configured memory limit, if any.
    pub fn memory_limit(&self) -> Option<u64> {
        self.shared.catalog.memory_budget().limit()
    }

    /// Bytes currently charged against the memory budget.
    pub fn memory_used(&self) -> u64 {
        self.shared.catalog.memory_budget().used()
    }

    /// High-water mark of charged bytes.
    pub fn memory_peak(&self) -> u64 {
        self.shared.catalog.memory_budget().peak()
    }

    /// Snapshot of the shared plan-cache counters.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.shared.plan_cache.stats()
    }

    /// The registry this database counts into, for the server that serves
    /// it to count its own `dbcp.server.*` series beside the engine's.
    pub fn registry(&self) -> &obs::MetricsRegistry {
        &self.shared.stats.metrics.registry
    }

    /// Everything this database counts, as one registry snapshot: its
    /// statement histograms, `sqloop.exec.*`, `sqldb.op.*`, its server's
    /// `dbcp.server.*`, plus `sqldb.plan_cache.*` and `sqldb.mem.*` read
    /// from the plan cache and the memory budget.
    pub fn metrics(&self) -> obs::RegistrySnapshot {
        let mut snap = self.shared.stats.metrics.registry.snapshot();
        let cache = self.shared.plan_cache.stats();
        let budget = self.shared.catalog.memory_budget();
        let counters = [
            ("plan_cache.hit", cache.hits),
            ("plan_cache.miss", cache.misses),
            ("plan_cache.eviction", cache.evictions),
            ("plan_cache.invalidation", cache.invalidations),
            ("mem.budget_exceeded", budget.exceeded()),
        ];
        for (name, v) in counters {
            snap.counters.insert(format!("sqldb.{name}"), v);
        }
        let gauge = |v: u64| i64::try_from(v).unwrap_or(i64::MAX);
        let gauges = &mut snap.gauges;
        gauges.insert("sqldb.mem.bytes".into(), gauge(budget.used()));
        gauges.insert("sqldb.mem.peak_bytes".into(), gauge(budget.peak()));
        snap
    }

    /// Caps how many parsed plans the database keeps (LRU beyond the cap).
    pub fn set_plan_cache_capacity(&self, capacity: usize) {
        self.shared.plan_cache.set_capacity(capacity);
    }

    /// All statement-digest entries, sorted by total time descending.
    pub fn digest_stats(&self) -> Vec<DigestEntry> {
        self.shared.digests.snapshot()
    }

    /// The top-`k` statement families by plan-cache misses — the miss
    /// attribution view: which families keep being re-parsed.
    pub fn digest_top_misses(&self, k: usize) -> Vec<DigestEntry> {
        self.shared.digests.top_misses(k)
    }

    /// Drops all digest entries.
    pub fn reset_digests(&self) {
        self.shared.digests.reset();
    }

    /// Turns per-operator runtime profiling on or off (off by default).
    /// While on, every statement execution flushes per-operator
    /// rows-out / calls / elapsed aggregates into the database's metrics
    /// ([`Database::metrics`]) under `sqldb.op.<kind>.*`.
    pub fn set_profiling(&self, on: bool) {
        self.shared.profiling.store(on, Ordering::Relaxed);
    }

    /// Whether per-operator profiling is on.
    pub fn profiling(&self) -> bool {
        self.shared.profiling.load(Ordering::Relaxed)
    }

    /// Runs every session's `SELECT`s on the row-at-a-time reference
    /// evaluator (`true`) or the batch pipeline (`false`, the default).
    #[cfg(test)]
    pub(crate) fn set_row_oracle(&self, on: bool) {
        self.shared.row_oracle.store(on, Ordering::Relaxed);
    }

    /// Overrides the profile's rows-per-batch for the vectorized pipeline
    /// (`None` restores the profile default). Any size produces identical
    /// results — this knob exists for tuning and the equivalence suite.
    pub fn set_batch_size(&self, rows: Option<usize>) {
        self.shared
            .batch_size
            .store(rows.unwrap_or(0) as u64, Ordering::Relaxed);
    }

    /// The configured rows-per-batch override (`None` = profile default).
    pub fn batch_size(&self) -> Option<usize> {
        match self.shared.batch_size.load(Ordering::Relaxed) {
            0 => None,
            n => Some(n as usize),
        }
    }

    /// Configures the slow-statement log: statements at or over
    /// `threshold_us` are recorded (0 disables), keeping every
    /// `sample_every`-th qualifying statement.
    pub fn set_slow_log(&self, threshold_us: u64, sample_every: u64) {
        self.shared.slow.configure(threshold_us, sample_every);
    }

    /// Current slow-log `(threshold_us, sample_every)`.
    pub fn slow_log_config(&self) -> (u64, u64) {
        self.shared.slow.config()
    }

    /// Retained slow-statement records, oldest first.
    pub fn slow_log(&self) -> Vec<SlowStatement> {
        self.shared.slow.snapshot()
    }

    /// Statements that crossed the slow-log threshold (sampled or not).
    pub fn slow_log_over_threshold(&self) -> u64 {
        self.shared.slow.over_threshold()
    }

    /// Drops slow-log records and resets its counters.
    pub fn reset_slow_log(&self) {
        self.shared.slow.reset();
    }

    /// Arms the panic-injection probe (a test hook for panic-recovery
    /// paths): the next `times` statements whose lock set contains a table
    /// name containing `pattern` panic *after* acquiring their locks and
    /// *before* touching any data — the worst moment, because the session
    /// still owns entries in the shared lock table. Pass `None` to disarm.
    ///
    /// Callers that absorb the panic with `catch_unwind` must call
    /// [`Session::recover_after_panic`] (or drop the session) to release
    /// those locks and undo any open transaction.
    pub fn set_panic_probe(&self, pattern: Option<&str>, times: u64) {
        *self.shared.panic_probe.lock() = pattern.map(|p| (p.to_string(), times));
    }
}

/// A prepared statement: the SQL is parsed and validated once, then executed
/// any number of times — with `?` placeholders filled per execution.
///
/// Handles are cheap to clone and survive DDL: a handle whose underlying
/// plan was outdated by a schema change transparently re-prepares on its
/// next execution (stale plans can never touch stale data, because binding
/// always runs against the live catalog).
#[derive(Debug, Clone)]
pub struct StmtHandle {
    sql: Arc<str>,
    digest: Arc<str>,
    param_count: usize,
    plan: Arc<Mutex<Arc<CachedPlan>>>,
}

impl StmtHandle {
    /// The SQL text this handle was prepared from.
    pub fn sql(&self) -> &str {
        &self.sql
    }

    /// The statement-family digest ([`crate::digest::normalize_sql`]) of the handle's
    /// SQL, precomputed at prepare time.
    pub fn digest(&self) -> &str {
        &self.digest
    }

    /// Number of `?` placeholders the statement declares.
    pub fn param_count(&self) -> usize {
        self.param_count
    }
}

/// One connection's execution context: autocommit/transaction state, held
/// locks, and isolation level.
///
/// Dropping a session rolls back any open transaction and releases its locks.
#[derive(Debug)]
pub struct Session {
    shared: Arc<Shared>,
    sid: u64,
    in_txn: bool,
    undo: UndoLog,
    /// The tables it holds locks on, named as the lock table names them.
    held: HashSet<Arc<str>>,
    isolation: IsolationLevel,
    lock_timeout: Duration,
    statement_timeout: Option<Duration>,
}

impl Session {
    /// This session's id (unique within the database).
    pub fn id(&self) -> u64 {
        self.sid
    }

    /// Sets the transaction isolation level (JDBC
    /// `Connection.setTransactionIsolation` analog).
    pub fn set_isolation(&mut self, level: IsolationLevel) {
        self.isolation = level;
    }

    /// Sets the lock wait budget.
    pub fn set_lock_timeout(&mut self, timeout: Duration) {
        self.lock_timeout = timeout;
    }

    /// Sets (or clears) the per-statement execution deadline. Statements
    /// running longer fail with [`DbError::Timeout`] and roll back.
    pub fn set_statement_timeout(&mut self, timeout: Option<Duration>) {
        self.statement_timeout = timeout.filter(|d| !d.is_zero());
    }

    /// The per-statement execution deadline, if any.
    pub fn statement_timeout(&self) -> Option<Duration> {
        self.statement_timeout
    }

    /// True while a `BEGIN` transaction is open.
    pub fn in_transaction(&self) -> bool {
        self.in_txn
    }

    /// Parses and executes one SQL statement.
    ///
    /// # Errors
    /// Parse, validation, lock-timeout and execution errors. A failed
    /// statement is rolled back atomically; an open transaction stays usable.
    pub fn execute(&mut self, sql: &str) -> DbResult<StmtOutput> {
        let (plan, plan_hit) = self.plan_for(sql)?;
        let started = std::time::Instant::now();
        let result = self.execute_admitted(&plan.stmt, &plan.admission, &[]);
        self.observe_statement(plan.digest(sql), sql, started, &result, plan_hit);
        result
    }

    /// Records one finished statement into the digest table and slow log.
    fn observe_statement(
        &self,
        digest: &str,
        sql: &str,
        started: std::time::Instant,
        result: &DbResult<StmtOutput>,
        plan_hit: Option<bool>,
    ) {
        let elapsed_us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        let (rows, error) = match result {
            Ok(StmtOutput::Rows(r)) => (r.rows.len() as u64, false),
            Ok(StmtOutput::Affected(n)) => (*n, false),
            Ok(StmtOutput::Done) => (0, false),
            Err(_) => (0, true),
        };
        self.shared
            .digests
            .record(Some(digest), sql, elapsed_us, rows, error, plan_hit);
        self.shared.slow.record(sql, elapsed_us, rows);
    }

    /// Fetches a still-valid cached plan for `sql`, or parses one — caching
    /// it when the statement is cacheable (queries and DML; one-shot DDL
    /// would only churn the LRU, see [`crate::plan_cache::is_cacheable`]).
    ///
    /// The second element attributes the plan-cache outcome: `Some(true)`
    /// for a hit, `Some(false)` for a fresh parse of a cacheable
    /// statement, `None` for uncacheable statements.
    fn plan_for(&self, sql: &str) -> DbResult<(Arc<CachedPlan>, Option<bool>)> {
        let cache = &self.shared.plan_cache;
        if let Some(plan) = cache.get(sql) {
            return Ok((plan, Some(true)));
        }
        let started = std::time::Instant::now();
        let stmt = parse_statement(sql)?;
        let admission = self.admission(&stmt);
        let (plan, outcome) = if crate::plan_cache::is_cacheable(&stmt) {
            cache.count_miss();
            (cache.insert(sql, stmt, admission), Some(false))
        } else {
            (cache.uncached(stmt, admission), None)
        };
        self.shared.stats.metrics.plan.observe(started.elapsed());
        Ok((plan, outcome))
    }

    /// The lock set and dialect verdict of `stmt` against the live catalog.
    fn admission(&self, stmt: &Statement) -> Admission {
        let mut reads = Reads::of(stmt, &self.shared.catalog);
        Admission {
            locks: std::mem::take(&mut reads.locks).into_iter().collect(),
            valid: validate(stmt, &self.shared.profile.dialect()),
            reads,
        }
    }

    /// Parses and validates `sql` once, returning a reusable handle.
    /// `?` placeholders become positional parameters of the handle.
    ///
    /// # Errors
    /// Parse errors only; execution errors surface per execution.
    pub fn prepare(&mut self, sql: &str) -> DbResult<StmtHandle> {
        let started = std::time::Instant::now();
        let (plan, _) = self.plan_for(sql)?;
        self.shared.stats.metrics.prepare.observe(started.elapsed());
        Ok(StmtHandle {
            sql: Arc::from(sql),
            digest: Arc::from(plan.digest(sql)),
            param_count: plan.param_count,
            plan: Arc::new(Mutex::new(plan)),
        })
    }

    /// Executes a prepared statement with `params` filling its `?`
    /// placeholders (in lexical order).
    ///
    /// If DDL outdated the handle's plan since it was prepared, the
    /// statement is transparently re-prepared first.
    ///
    /// # Errors
    /// [`DbError::Invalid`] on parameter-count mismatch, plus everything
    /// [`Session::execute`] can return.
    pub fn execute_prepared(
        &mut self,
        handle: &StmtHandle,
        params: &[Value],
    ) -> DbResult<StmtOutput> {
        if params.len() != handle.param_count {
            return Err(DbError::Invalid(format!(
                "prepared statement takes {} parameter(s) but {} were bound",
                handle.param_count,
                params.len()
            )));
        }
        let (plan, plan_hit) = {
            let pinned = handle.plan.lock().clone();
            if self.shared.plan_cache.is_current(&pinned) {
                self.shared.plan_cache.note_hit();
                (pinned, Some(true))
            } else {
                // transparent re-prepare after DDL (counted as miss +
                // invalidation by the cache lookup inside plan_for)
                let (fresh, outcome) = self.plan_for(&handle.sql)?;
                *handle.plan.lock() = fresh.clone();
                (fresh, outcome)
            }
        };
        let started = std::time::Instant::now();
        let result = self.execute_admitted(&plan.stmt, &plan.admission, params);
        let elapsed = started.elapsed();
        self.shared.stats.metrics.execute_prepared.observe(elapsed);
        self.observe_statement(&handle.digest, &handle.sql, started, &result, plan_hit);
        result
    }

    /// Executes an already-parsed statement.
    ///
    /// # Errors
    /// See [`Session::execute`].
    pub fn execute_statement(&mut self, stmt: &Statement) -> DbResult<StmtOutput> {
        let admission = self.admission(stmt);
        self.execute_admitted(stmt, &admission, &[])
    }

    /// Executes `stmt` under its `admission`, `params` filling its `?`
    /// placeholders, recording its latency.
    fn execute_admitted(
        &mut self,
        stmt: &Statement,
        admission: &Admission,
        params: &[Value],
    ) -> DbResult<StmtOutput> {
        let started = std::time::Instant::now();
        let result = self.execute_statement_inner(stmt, admission, params);
        self.shared.stats.metrics.by_kind[stmt.kind_index()].observe(started.elapsed());
        result
    }

    fn execute_statement_inner(
        &mut self,
        stmt: &Statement,
        admission: &Admission,
        params: &[Value],
    ) -> DbResult<StmtOutput> {
        self.shared.stats.add_statements(1);
        match stmt {
            Statement::Begin => {
                if self.in_txn {
                    return Err(DbError::Invalid("transaction already open".into()));
                }
                self.in_txn = true;
                return Ok(StmtOutput::Done);
            }
            Statement::Commit => {
                self.commit()?;
                return Ok(StmtOutput::Done);
            }
            Statement::Rollback => {
                self.rollback()?;
                return Ok(StmtOutput::Done);
            }
            _ => {}
        }
        admission.valid.clone()?;

        // acquire logical locks in sorted order (deadlock avoidance)
        let mut newly_shared: Vec<&str> = Vec::new();
        for (name, mode) in &admission.locks {
            let held = self.shared.locks.lock(
                self.sid,
                name,
                *mode,
                self.lock_timeout,
                &self.shared.stats,
            )?;
            // in a ReadCommitted transaction a table held from an earlier
            // statement is held for its uncommitted writes: never release
            // it; outside one, every lock goes at the statement's end
            if self.held.insert(held) && *mode == LockMode::Shared && self.in_txn {
                newly_shared.push(name);
            }
        }

        // the armed panic probe fires here — locks acquired, no data
        // touched yet — so recovery paths are exercised while this
        // session still owns entries in the shared lock table
        self.maybe_fire_panic_probe(admission);

        // resolve the owning table up front: execution removes the
        // registration, but its cached plans must be outdated afterwards
        let dropped_index_table = match stmt {
            Statement::DropIndex { name, .. } => self.shared.catalog.index_table(name),
            _ => None,
        };

        let mark = self.undo.len();
        let profiler = if self.shared.profiling.load(Ordering::Relaxed) {
            Some(OpProfiler::new())
        } else {
            None
        };
        let mut executor = Executor::new(
            &self.shared.catalog,
            self.shared.profile,
            &self.shared.stats,
        )
        .with_deadline(
            self.statement_timeout
                .map(|t| std::time::Instant::now() + t),
        )
        .with_batch_size(match self.shared.batch_size.load(Ordering::Relaxed) {
            0 => None,
            n => Some(n as usize),
        })
        .with_params(params)
        .with_reads(&admission.reads);
        #[cfg(test)]
        if self.shared.row_oracle.load(Ordering::Relaxed) {
            executor = executor.with_row_oracle();
        }
        if let Some(p) = profiler.as_ref() {
            executor = executor.with_profiler(p);
        }
        let result = executor.run_statement(stmt, &mut self.undo);
        if let Some(p) = profiler.as_ref() {
            flush_op_profile(&self.shared.stats.metrics.registry, p);
        }
        match result {
            Ok(output) => {
                // DDL outdates cached plans depending on the changed object
                match stmt {
                    Statement::CreateTable(ct) => self.shared.plan_cache.bump_table(&ct.name),
                    Statement::DropTable { name, .. } => self.shared.plan_cache.bump_table(name),
                    Statement::CreateIndex(ci) => self.shared.plan_cache.bump_table(&ci.table),
                    Statement::DropIndex { .. } => {
                        if let Some(t) = &dropped_index_table {
                            self.shared.plan_cache.bump_table(t);
                        }
                    }
                    Statement::CreateView(_) | Statement::DropView { .. } => {
                        self.shared.plan_cache.bump_views();
                    }
                    _ => {}
                }
                if self.in_txn {
                    // ReadCommitted drops read locks at statement end
                    if self.isolation == IsolationLevel::ReadCommitted {
                        for name in newly_shared {
                            self.shared.locks.release(self.sid, name);
                            self.held.remove(name);
                        }
                    }
                } else {
                    self.end_work();
                }
                Ok(output)
            }
            Err(e) => {
                // statement-level atomicity
                let tail = self.undo.split_off(mark);
                let _ = apply_undo(&self.shared.catalog, tail);
                if !self.in_txn {
                    self.release_all();
                }
                Err(e)
            }
        }
    }

    /// Executes a `;`-separated script, stopping at the first error.
    ///
    /// # Errors
    /// See [`Session::execute`]; earlier statements keep their effects
    /// according to autocommit/transaction state.
    pub fn execute_script(&mut self, sql: &str) -> DbResult<Vec<StmtOutput>> {
        let stmts = parse_script(sql)?;
        let mut out = Vec::with_capacity(stmts.len());
        for stmt in &stmts {
            out.push(self.execute_statement(stmt)?);
        }
        Ok(out)
    }

    /// Executes a query statement and returns its rows.
    ///
    /// # Errors
    /// As [`Session::execute`], plus [`DbError::Invalid`] if the statement
    /// is not a query.
    pub fn query(&mut self, sql: &str) -> DbResult<QueryResult> {
        match self.execute(sql)? {
            StmtOutput::Rows(r) => Ok(r),
            _ => Err(DbError::Invalid("statement did not return rows".into())),
        }
    }

    /// Opens a transaction.
    ///
    /// # Errors
    /// Returns [`DbError::Invalid`] when one is already open.
    pub fn begin(&mut self) -> DbResult<()> {
        self.execute_statement(&Statement::Begin).map(|_| ())
    }

    /// Commits the open transaction (no-op when autocommitting).
    ///
    /// # Errors
    /// Currently infallible; returns `DbResult` for API stability.
    pub fn commit(&mut self) -> DbResult<()> {
        self.end_work();
        self.in_txn = false;
        Ok(())
    }

    /// Makes the open unit of work — an autocommit statement or a
    /// transaction — permanent: drops its undo, lets every table it deleted
    /// from that has no live rows left give back its dead slots (nothing
    /// can restore into them any more), and releases its locks.
    fn end_work(&mut self) {
        let mut emptied: Vec<String> = Vec::new();
        for op in self.undo.take_all() {
            if let UndoOp::Delete { table, .. } = op {
                if !emptied.contains(&table) {
                    emptied.push(table);
                }
            }
        }
        for table in emptied {
            if let Ok(handle) = self.shared.catalog.table(&table) {
                handle.write().reclaim_if_empty();
            }
        }
        self.release_all();
    }

    /// Rolls back the open transaction (no-op when autocommitting).
    ///
    /// # Errors
    /// Propagates storage errors from undo application (not expected).
    pub fn rollback(&mut self) -> DbResult<()> {
        let ops = self.undo.take_all();
        let result = apply_undo(&self.shared.catalog, ops);
        self.release_all();
        self.in_txn = false;
        result
    }

    fn release_all(&mut self) {
        if !self.held.is_empty() {
            self.shared.locks.release_all(self.sid, &self.held);
            self.held.clear();
        }
    }

    /// Fires the database's panic probe when armed and matched; see
    /// [`Database::set_panic_probe`].
    fn maybe_fire_panic_probe(&self, admission: &Admission) {
        let mut probe = self.shared.panic_probe.lock();
        let Some((pattern, times)) = probe.as_mut() else {
            return;
        };
        let mut tables = admission.locks.iter().map(|(t, _)| t);
        if *times == 0 || !tables.any(|t| t.contains(&**pattern)) {
            return;
        }
        *times -= 1;
        let fired = pattern.clone();
        if *times == 0 {
            *probe = None;
        }
        drop(probe);
        panic!("sqldb: injected panic probe on {fired}");
    }

    /// Puts the session back into a usable state after a panic was caught
    /// unwinding through one of its statements: applies any pending undo,
    /// releases every lock the session still holds in the shared lock
    /// table, and closes the open transaction. Equivalent to the rollback
    /// a dropped session performs, for callers that keep the session alive
    /// behind a `catch_unwind` boundary.
    pub fn recover_after_panic(&mut self) {
        let _ = self.rollback();
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        // best-effort rollback; never panic in drop
        let ops = self.undo.take_all();
        let _ = apply_undo(&self.shared.catalog, ops);
        self.release_all();
    }
}

/// Flushes a statement's operator-profile tree into the database's
/// metrics registry: per operator kind (first word of the label,
/// lowercased), `sqldb.op.<kind>.rows_out`, `.calls` and `.time_us`
/// counters. Times are inclusive of children, so kinds are comparable to
/// each other only as an attribution hint, not a strict decomposition.
fn flush_op_profile(registry: &obs::MetricsRegistry, prof: &OpProfiler) {
    for root in prof.take() {
        let mut nodes = Vec::new();
        root.flatten(&mut nodes);
        for node in nodes {
            let kind = node
                .label
                .split_whitespace()
                .next()
                .unwrap_or("op")
                .to_ascii_lowercase();
            registry
                .counter(&format!("sqldb.op.{kind}.rows_out"))
                .add(node.rows_out);
            registry
                .counter(&format!("sqldb.op.{kind}.calls"))
                .add(node.calls);
            registry
                .counter(&format!("sqldb.op.{kind}.time_us"))
                .add(node.elapsed_us);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn db() -> Database {
        let db = Database::new(EngineProfile::Postgres);
        let mut s = db.connect();
        s.execute("CREATE TABLE t (id INT PRIMARY KEY, v FLOAT)")
            .unwrap();
        s.execute("INSERT INTO t VALUES (1, 1.0), (2, 2.0)")
            .unwrap();
        db
    }

    #[test]
    fn autocommit_roundtrip() {
        let db = db();
        let mut s = db.connect();
        let r = s.query("SELECT SUM(v) FROM t").unwrap();
        assert_eq!(r.rows[0][0], Value::Float(3.0));
    }

    #[test]
    fn transaction_commit_and_rollback() {
        let db = db();
        let mut s = db.connect();
        s.execute("BEGIN").unwrap();
        s.execute("UPDATE t SET v = 0.0").unwrap();
        s.execute("ROLLBACK").unwrap();
        assert_eq!(
            s.query("SELECT SUM(v) FROM t").unwrap().rows[0][0],
            Value::Float(3.0)
        );
        s.execute("BEGIN").unwrap();
        s.execute("UPDATE t SET v = 0.0").unwrap();
        s.execute("COMMIT").unwrap();
        assert_eq!(
            s.query("SELECT SUM(v) FROM t").unwrap().rows[0][0],
            Value::Float(0.0)
        );
    }

    #[test]
    fn statement_atomicity_on_error() {
        let db = db();
        let mut s = db.connect();
        // second row violates the primary key; the first must not persist
        let err = s.execute("INSERT INTO t VALUES (3, 3.0), (1, 9.9)");
        assert!(err.is_err());
        assert_eq!(
            s.query("SELECT COUNT(*) FROM t").unwrap().rows[0][0],
            Value::Int(2)
        );
    }

    #[test]
    fn failed_statement_keeps_transaction_usable() {
        let db = db();
        let mut s = db.connect();
        s.execute("BEGIN").unwrap();
        s.execute("UPDATE t SET v = 5.0 WHERE id = 1").unwrap();
        assert!(s.execute("INSERT INTO t VALUES (1, 0.0)").is_err());
        s.execute("COMMIT").unwrap();
        assert_eq!(
            s.query("SELECT v FROM t WHERE id = 1").unwrap().rows[0][0],
            Value::Float(5.0)
        );
    }

    #[test]
    fn dropped_session_rolls_back() {
        let db = db();
        {
            let mut s = db.connect();
            s.execute("BEGIN").unwrap();
            s.execute("DELETE FROM t").unwrap();
        } // dropped without commit
        let mut s = db.connect();
        assert_eq!(
            s.query("SELECT COUNT(*) FROM t").unwrap().rows[0][0],
            Value::Int(2)
        );
    }

    #[test]
    fn write_lock_blocks_concurrent_writer() {
        let db = db();
        let mut a = db.connect();
        a.execute("BEGIN").unwrap();
        a.execute("UPDATE t SET v = 9.0 WHERE id = 1").unwrap();
        let mut b = db.connect();
        b.set_lock_timeout(Duration::from_millis(50));
        assert!(matches!(
            b.execute("UPDATE t SET v = 8.0 WHERE id = 2"),
            Err(DbError::LockTimeout(_))
        ));
        a.execute("COMMIT").unwrap();
        b.execute("UPDATE t SET v = 8.0 WHERE id = 2").unwrap();
    }

    #[test]
    fn a_read_after_a_write_keeps_the_write_lock_until_commit() {
        let db = db();
        let mut a = db.connect();
        a.execute("BEGIN").unwrap();
        a.execute("DELETE FROM t").unwrap();
        // ReadCommitted drops the read lock, not the uncommitted write's
        a.query("SELECT COUNT(*) FROM t").unwrap();
        let mut b = db.connect();
        b.set_lock_timeout(Duration::from_millis(50));
        assert!(matches!(
            b.execute("INSERT INTO t VALUES (3, 3.0)"),
            Err(DbError::LockTimeout(_))
        ));
        a.execute("ROLLBACK").unwrap();
        b.execute("INSERT INTO t VALUES (3, 3.0)").unwrap();
        assert_eq!(
            b.query("SELECT COUNT(*) FROM t").unwrap().rows[0][0],
            Value::Int(3)
        );
    }

    #[test]
    fn concurrent_sessions_on_disjoint_tables() {
        let db = db();
        let mut s = db.connect();
        s.execute("CREATE TABLE u (id INT PRIMARY KEY)").unwrap();
        let db2 = db.clone();
        let h = std::thread::spawn(move || {
            let mut s2 = db2.connect();
            for i in 0..100 {
                s2.execute(&format!("INSERT INTO u VALUES ({i})")).unwrap();
            }
        });
        for _ in 0..100 {
            s.query("SELECT COUNT(*) FROM t").unwrap();
        }
        h.join().unwrap();
        let n = s.query("SELECT COUNT(*) FROM u").unwrap();
        assert_eq!(n.rows[0][0], Value::Int(100));
    }

    #[test]
    fn script_execution() {
        let db = Database::new(EngineProfile::MariaDb);
        let mut s = db.connect();
        let out = s
            .execute_script(
                "CREATE TABLE x (a INT); INSERT INTO x VALUES (1); INSERT INTO x VALUES (2); SELECT COUNT(*) FROM x;",
            )
            .unwrap();
        assert_eq!(out.len(), 4);
        match &out[3] {
            StmtOutput::Rows(r) => assert_eq!(r.rows[0][0], Value::Int(2)),
            _ => panic!(),
        }
    }

    #[test]
    fn dialect_enforced_per_profile() {
        let db = Database::new(EngineProfile::MySql);
        let mut s = db.connect();
        s.execute("CREATE TABLE r (id INT PRIMARY KEY, d FLOAT)")
            .unwrap();
        s.execute("CREATE TABLE m (id INT PRIMARY KEY, v FLOAT)")
            .unwrap();
        assert!(matches!(
            s.execute("UPDATE r SET d = m.v FROM m WHERE r.id = m.id"),
            Err(DbError::Unsupported(_))
        ));
        s.execute("UPDATE r JOIN m ON r.id = m.id SET d = m.v")
            .unwrap();
    }

    #[test]
    fn memory_limit_trips_rolls_back_and_lifts() {
        let db = Database::new(EngineProfile::Postgres);
        let mut s = db.connect();
        s.execute("CREATE TABLE big (id INT PRIMARY KEY, s TEXT)")
            .unwrap();
        db.set_memory_limit(Some(db.memory_used() + 2000));
        let mut tripped = None;
        for i in 0..100i64 {
            let sql = format!("INSERT INTO big VALUES ({i}, '{}')", "x".repeat(100));
            if let Err(e) = s.execute(&sql) {
                tripped = Some((i, e));
                break;
            }
        }
        let (i, e) = tripped.expect("the memory limit must trip");
        assert!(matches!(e, DbError::BudgetExceeded(_)), "{e:?}");
        // lifting the limit resumes the workload; the tripped statement
        // was rolled back, so exactly i rows persisted
        db.set_memory_limit(None);
        assert_eq!(
            s.query("SELECT COUNT(*) FROM big").unwrap().rows[0][0],
            Value::Int(i)
        );
        s.execute("INSERT INTO big VALUES (999, 'y')").unwrap();
        assert!(db.memory_peak() >= db.memory_used());
    }

    #[test]
    fn statement_timeout_per_session() {
        let db = db();
        let mut s = db.connect();
        s.set_statement_timeout(Some(Duration::ZERO));
        // zero clears rather than instantly failing everything
        assert_eq!(s.statement_timeout(), None);
        s.set_statement_timeout(Some(Duration::from_nanos(1)));
        assert!(matches!(
            s.query("SELECT * FROM t"),
            Err(DbError::Timeout(_))
        ));
        s.set_statement_timeout(None);
        assert!(s.query("SELECT * FROM t").is_ok());
    }

    #[test]
    fn stats_track_statements() {
        let db = db();
        let before = db.stats().statements;
        let mut s = db.connect();
        s.query("SELECT * FROM t").unwrap();
        assert!(db.stats().statements > before);
    }

    #[test]
    fn digests_aggregate_families_and_attribute_cache_outcomes() {
        let db = db();
        db.reset_digests();
        let mut s = db.connect();
        // same family, different literals: first parse is a miss, the
        // repeat of identical text is a hit, a new literal is a miss again
        s.query("SELECT v FROM t WHERE id = 1").unwrap();
        s.query("SELECT v FROM t WHERE id = 1").unwrap();
        s.query("SELECT v FROM t WHERE id = 2").unwrap();
        let snap = db.digest_stats();
        let fam = snap
            .iter()
            .find(|e| e.digest == "select v from t where id = ?")
            .expect("family tracked");
        assert_eq!(fam.calls, 3);
        assert_eq!(fam.plan_hits, 1);
        assert_eq!(fam.plan_misses, 2);
        assert_eq!(fam.rows, 3);
        assert_eq!(db.digest_top_misses(1)[0].digest, fam.digest);
    }

    #[test]
    fn prepared_executions_share_the_handle_digest() {
        let db = db();
        db.reset_digests();
        let mut s = db.connect();
        let h = s.prepare("SELECT v FROM t WHERE id = ?").unwrap();
        assert_eq!(h.digest(), "select v from t where id = ?");
        for i in 1..=2 {
            s.execute_prepared(&h, &[Value::Int(i)]).unwrap();
        }
        let snap = db.digest_stats();
        let fam = snap
            .iter()
            .find(|e| e.digest == "select v from t where id = ?")
            .expect("family tracked");
        assert_eq!(fam.calls, 2);
        assert_eq!(fam.plan_hits, 2, "pinned prepared plans count as hits");
    }

    #[test]
    fn slow_log_captures_over_threshold_statements() {
        let db = db();
        db.set_slow_log(1, 1); // 1µs: everything qualifies
        let mut s = db.connect();
        s.query("SELECT * FROM t").unwrap();
        assert!(db.slow_log_over_threshold() >= 1);
        let log = db.slow_log();
        assert!(log.iter().any(|e| e.sql == "SELECT * FROM t"), "{log:?}");
        db.reset_slow_log();
        assert!(db.slow_log().is_empty());
        db.set_slow_log(0, 1); // off
        s.query("SELECT * FROM t").unwrap();
        assert_eq!(db.slow_log_over_threshold(), 0);
    }

    #[test]
    fn profiling_flushes_operator_counters() {
        let db = db();
        let registry = &db.shared.stats.metrics.registry;
        let before = registry.counter("sqldb.op.seqscan.rows_out").get();
        let mut s = db.connect();
        s.query("SELECT * FROM t").unwrap();
        // off by default: no counters move
        assert_eq!(registry.counter("sqldb.op.seqscan.rows_out").get(), before);
        db.set_profiling(true);
        assert!(db.profiling());
        s.query("SELECT * FROM t").unwrap();
        let after = registry.counter("sqldb.op.seqscan.rows_out").get();
        assert_eq!(after - before, 2, "one scan of the 2-row table");
        db.set_profiling(false);
    }

    #[test]
    fn view_lock_expansion() {
        let db = db();
        let mut s = db.connect();
        s.execute("CREATE VIEW vw AS SELECT * FROM t").unwrap();
        // a reader of the view locks `t`; a writer of t must then wait
        s.execute("BEGIN").unwrap();
        s.set_isolation(IsolationLevel::Serializable);
        s.query("SELECT * FROM vw").unwrap();
        let mut w = db.connect();
        w.set_lock_timeout(Duration::from_millis(50));
        assert!(w.execute("DELETE FROM t").is_err());
        s.execute("COMMIT").unwrap();
        w.execute("DELETE FROM t").unwrap();
    }

    #[test]
    fn panic_probe_fires_after_locks_and_recovery_releases_them() {
        let db = db();
        let mut s = db.connect();
        s.execute("BEGIN").unwrap();
        s.execute("INSERT INTO t VALUES (9, 9.0)").unwrap();
        db.set_panic_probe(Some("t"), 1);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.execute("UPDATE t SET v = 0.0")
        }));
        assert!(panicked.is_err(), "probe should panic");
        // the panic left the session owning its locks: a second session
        // cannot write the table
        let mut w = db.connect();
        w.set_lock_timeout(Duration::from_millis(50));
        assert!(matches!(
            w.execute("DELETE FROM t"),
            Err(DbError::LockTimeout(_))
        ));
        // recovery rolls the open transaction back and releases the locks
        s.recover_after_panic();
        let rows = w.query("SELECT COUNT(*) FROM t WHERE id = 9").unwrap();
        assert_eq!(rows.rows[0][0], Value::Int(0), "insert undone");
        w.execute("DELETE FROM t").unwrap();
        // one-shot probe disarmed itself: statements run normally again
        s.execute("INSERT INTO t VALUES (1, 1.0)").unwrap();
    }

    #[test]
    fn panic_probe_ignores_unmatched_tables_and_disarms() {
        let db = db();
        let mut s = db.connect();
        db.set_panic_probe(Some("elsewhere"), 5);
        s.query("SELECT * FROM t").unwrap();
        db.set_panic_probe(None, 0);
        s.query("SELECT * FROM t").unwrap();
    }
}
