//! Driver traits and the in-process driver.
//!
//! Mirrors the slice of JDBC the paper's middleware depends on (§IV-A):
//! statement execution, result sets, statement batching, transaction
//! demarcation and isolation control — behind a [`Driver`] that can mint any
//! number of concurrent [`Connection`]s, which is how SQLoop turns worker
//! threads into engine-side parallelism.

use crate::wire::{MetricsCmd, PipelineStep};
use sqldb::{
    Database, DbError, DbResult, EngineProfile, IsolationLevel, QueryResult, Session, StmtHandle,
    StmtOutput, Value,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Cap on prepared statements per connection (both in-process and on the
/// server side of the wire protocol) — guards against handle leaks.
pub const MAX_PREPARED_PER_CONNECTION: usize = 256;

static NEXT_EPOCH: AtomicU64 = AtomicU64::new(1);

/// Mints a process-unique epoch identifying one physical connection.
/// Prepared-statement ids are only meaningful within the epoch that issued
/// them; transports mint a fresh epoch on every (re)connect so clients can
/// tell their handles went stale.
pub(crate) fn mint_epoch() -> u64 {
    NEXT_EPOCH.fetch_add(1, Ordering::Relaxed)
}

/// Result of running a pipeline of statements: the outputs of the
/// successful prefix, plus the error that stopped execution early (if any).
/// The failing step's index equals `outputs.len()`.
#[derive(Debug)]
pub struct PipelineOutcome {
    /// Outputs of the steps that succeeded, in order.
    pub outputs: Vec<StmtOutput>,
    /// The error that stopped the pipeline, if it didn't complete.
    pub error: Option<DbError>,
}

/// One open connection to a database engine (JDBC `Connection` +
/// `Statement` rolled together, as SQLoop uses one statement per connection).
pub trait Connection: Send {
    /// Executes one SQL statement.
    ///
    /// # Errors
    /// Parse/validation/execution errors from the engine, or transport
    /// failures for remote connections.
    fn execute(&mut self, sql: &str) -> DbResult<StmtOutput>;

    /// Executes a batch of statements as one pipeline (JDBC
    /// `addBatch`/`executeBatch`): one round trip on a remote connection,
    /// stopping at the first error.
    ///
    /// # Errors
    /// The first failing statement's error; earlier statements keep their
    /// effects per the connection's autocommit/transaction state.
    fn execute_batch(&mut self, statements: &[String]) -> DbResult<Vec<StmtOutput>> {
        let steps: Vec<PipelineStep> = statements
            .iter()
            .map(|s| PipelineStep::Execute(s.as_str().into()))
            .collect();
        let outcome = self.run_pipeline(&steps)?;
        match outcome.error {
            Some(e) => Err(e),
            None => Ok(outcome.outputs),
        }
    }

    /// Executes a query and returns its rows.
    ///
    /// # Errors
    /// As [`Connection::execute`], plus an error when the statement is not a
    /// query.
    fn query(&mut self, sql: &str) -> DbResult<QueryResult> {
        match self.execute(sql)? {
            StmtOutput::Rows(r) => Ok(r),
            _ => Err(DbError::Invalid("statement did not return rows".into())),
        }
    }

    /// Opens a transaction.
    ///
    /// # Errors
    /// When a transaction is already open.
    fn begin(&mut self) -> DbResult<()>;

    /// Commits the open transaction.
    ///
    /// # Errors
    /// Transport failures (remote); the engine commit itself is infallible.
    fn commit(&mut self) -> DbResult<()>;

    /// Rolls back the open transaction.
    ///
    /// # Errors
    /// Transport failures or undo-application errors.
    fn rollback(&mut self) -> DbResult<()>;

    /// Sets the transaction isolation level.
    ///
    /// # Errors
    /// Transport failures (remote).
    fn set_isolation(&mut self, level: IsolationLevel) -> DbResult<()>;

    /// Liveness probe. Runs a trivial statement; any engine response —
    /// even a statement error — proves the connection is alive. Only a
    /// connectivity failure counts as dead. Pools use this to discard
    /// broken connections instead of handing them out.
    fn ping(&mut self) -> bool {
        !matches!(self.execute("SELECT 1"), Err(DbError::Connection(_)))
    }

    /// Sets (or clears, with `None`) the per-statement execution deadline.
    /// Statements running longer fail with [`DbError::Timeout`].
    ///
    /// The default is a no-op returning `false` for transports that
    /// predate the capability; implementations return `true`.
    ///
    /// # Errors
    /// Transport failures (remote).
    fn set_statement_timeout(&mut self, timeout: Option<std::time::Duration>) -> DbResult<bool> {
        let _ = timeout;
        Ok(false)
    }

    /// Parses `sql` once on the engine side, returning a statement id and
    /// the number of `?` placeholders. The id is scoped to the current
    /// physical connection (see [`Connection::prepared_epoch`]).
    ///
    /// The default errors with [`DbError::Unsupported`] for transports
    /// predating the capability; callers fall back to plain `execute`.
    ///
    /// # Errors
    /// Parse errors, [`DbError::BudgetExceeded`] past
    /// [`MAX_PREPARED_PER_CONNECTION`], or transport failures.
    fn prepare_statement(&mut self, sql: &str) -> DbResult<(u64, usize)> {
        let _ = sql;
        Err(DbError::Unsupported(
            "this connection does not support prepared statements".into(),
        ))
    }

    /// Executes a statement prepared on this connection.
    ///
    /// # Errors
    /// [`DbError::NotFound`] for unknown ids (e.g. after a reconnect),
    /// parameter arity/type errors, and everything `execute` can return.
    fn execute_prepared(&mut self, stmt_id: u64, params: &[Value]) -> DbResult<StmtOutput> {
        let _ = (stmt_id, params);
        Err(DbError::Unsupported(
            "this connection does not support prepared statements".into(),
        ))
    }

    /// Discards a prepared statement. Unknown ids are ignored (close must
    /// be idempotent so retry paths can call it blindly).
    ///
    /// # Errors
    /// Transport failures (remote).
    fn close_prepared(&mut self, stmt_id: u64) -> DbResult<()> {
        let _ = stmt_id;
        Ok(())
    }

    /// Monotonic identifier of the physical connection backing this handle.
    /// Changes on reconnect; prepared ids minted under an older epoch are
    /// invalid. `0` means the transport never prepares (epoch-free).
    fn prepared_epoch(&self) -> u64 {
        0
    }

    /// Runs a sequence of steps, stopping at the first statement failure.
    /// Wire transports override this to send the whole sequence in one
    /// round-trip; the default executes step by step.
    ///
    /// # Errors
    /// The default never fails the call: executing step by step, even a
    /// dropped connection has a known position, so every error — transport
    /// ([`DbError::Connection`]) included — comes back inside the
    /// [`PipelineOutcome`] and callers can resume from the failing index.
    /// Overrides that ship the whole batch in one round-trip return `Err`
    /// on transport failures, where per-statement progress is unknown.
    fn run_pipeline(&mut self, steps: &[PipelineStep]) -> DbResult<PipelineOutcome> {
        let mut outputs = Vec::with_capacity(steps.len());
        for step in steps {
            let result = match step {
                PipelineStep::Execute(sql) => self.execute(sql),
                PipelineStep::Prepared { stmt_id, params } => {
                    self.execute_prepared(*stmt_id, params)
                }
            };
            match result {
                Ok(o) => outputs.push(o),
                Err(e) => {
                    return Ok(PipelineOutcome {
                        outputs,
                        error: Some(e),
                    })
                }
            }
        }
        Ok(PipelineOutcome {
            outputs,
            error: None,
        })
    }

    /// Evaluates a metrics command against the engine on the other side
    /// of this connection: live scrape, digest tables, slow log, and the
    /// profiling/slow-log switches. The typed helpers below are the
    /// intended entry points; this is the single transport hook they all
    /// route through.
    ///
    /// The default errors with [`DbError::Unsupported`] for transports
    /// predating the capability.
    ///
    /// # Errors
    /// Transport failures (remote), or [`DbError::Unsupported`].
    fn metrics(&mut self, cmd: &MetricsCmd) -> DbResult<StmtOutput> {
        let _ = cmd;
        Err(DbError::Unsupported(
            "this connection does not expose engine metrics".into(),
        ))
    }

    /// The engine's full Prometheus text scrape (registry series plus
    /// digest top-K and slow-log state).
    ///
    /// # Errors
    /// As [`Connection::metrics`], plus a malformed payload.
    fn metrics_prometheus(&mut self) -> DbResult<String> {
        match self.metrics(&MetricsCmd::Prometheus)? {
            StmtOutput::Rows(r) => match r.scalar() {
                Some(Value::Text(t)) => Ok(t.clone()),
                _ => Err(DbError::Connection("malformed metrics payload".into())),
            },
            other => Err(DbError::Connection(format!(
                "unexpected metrics output {other:?}"
            ))),
        }
    }

    /// Top `k` statement digests by total time (see
    /// [`crate::DIGEST_COLUMNS`] for the schema).
    ///
    /// # Errors
    /// As [`Connection::metrics`].
    fn digest_top(&mut self, k: u32) -> DbResult<QueryResult> {
        metrics_rows(self.metrics(&MetricsCmd::DigestTop(k))?)
    }

    /// Top `k` statement digests by plan-cache misses — the families whose
    /// texts never repeat, i.e. the answer to "where do my cache misses
    /// come from". Same schema as [`Connection::digest_top`].
    ///
    /// # Errors
    /// As [`Connection::metrics`].
    fn digest_top_misses(&mut self, k: u32) -> DbResult<QueryResult> {
        metrics_rows(self.metrics(&MetricsCmd::DigestTopMisses(k))?)
    }

    /// Recent slow statements (see [`crate::SLOW_LOG_COLUMNS`] for the
    /// schema).
    ///
    /// # Errors
    /// As [`Connection::metrics`].
    fn slow_log(&mut self) -> DbResult<QueryResult> {
        metrics_rows(self.metrics(&MetricsCmd::SlowLog)?)
    }

    /// Switches engine-side per-operator profiling on or off.
    ///
    /// # Errors
    /// As [`Connection::metrics`].
    fn set_profiling(&mut self, on: bool) -> DbResult<()> {
        self.metrics(&MetricsCmd::SetProfiling(on)).map(|_| ())
    }

    /// Configures the engine's slow-statement log: statements at or above
    /// `threshold_us` are counted, and every `sample_every`-th of them is
    /// kept with its text. `threshold_us == 0` disables the log.
    ///
    /// # Errors
    /// As [`Connection::metrics`].
    fn configure_slow_log(&mut self, threshold_us: u64, sample_every: u64) -> DbResult<()> {
        self.metrics(&MetricsCmd::SetSlowLog {
            threshold_us,
            sample_every,
        })
        .map(|_| ())
    }

    /// Clears the engine's digest table and slow log (counters and
    /// histograms in the registries are unaffected).
    ///
    /// # Errors
    /// As [`Connection::metrics`].
    fn reset_engine_stats(&mut self) -> DbResult<()> {
        self.metrics(&MetricsCmd::ResetStats).map(|_| ())
    }

    /// The engine profile on the other side of this connection.
    fn profile(&self) -> EngineProfile;
}

/// Shapes a metrics read-command output into its result set.
fn metrics_rows(out: StmtOutput) -> DbResult<QueryResult> {
    match out {
        StmtOutput::Rows(r) => Ok(r),
        other => Err(DbError::Connection(format!(
            "unexpected metrics output {other:?}"
        ))),
    }
}

/// A connection factory (JDBC `DataSource` analog).
pub trait Driver: Send + Sync {
    /// Opens a new connection.
    ///
    /// # Errors
    /// Transport failures for remote drivers.
    fn connect(&self) -> DbResult<Box<dyn Connection>>;

    /// The target engine's profile.
    fn profile(&self) -> EngineProfile;

    /// A snapshot of the engine's execution statistics, when the driver can
    /// see the engine directly (in-process drivers). Remote drivers return
    /// `None`. Callers diff two snapshots for per-run numbers.
    fn engine_stats(&self) -> Option<sqldb::StatsSnapshot> {
        None
    }

    /// A snapshot of the engine's own metrics registry
    /// ([`Database::metrics`]), when the driver can see the engine
    /// directly. Remote drivers return `None`; their engine's numbers live
    /// with the server process.
    fn engine_metrics(&self) -> Option<obs::RegistrySnapshot> {
        None
    }

    /// Sets (or clears) the engine-wide memory limit in bytes, when the
    /// driver can govern the engine directly. Returns `false` (the
    /// default) when the capability is unavailable (remote drivers govern
    /// server-side instead).
    fn set_memory_limit(&self, limit: Option<u64>) -> bool {
        let _ = limit;
        false
    }

    /// Bytes the engine currently has charged against its memory budget,
    /// when observable from this driver.
    fn memory_used(&self) -> Option<u64> {
        None
    }

    /// Plan-cache counters of the engine, when observable from this driver
    /// (in-process drivers). Remote drivers return `None` — the counters
    /// live with the server process.
    fn plan_cache_stats(&self) -> Option<sqldb::PlanCacheStats> {
        None
    }

    /// The engine's statement-digest table (all families, sorted by total
    /// time), when observable from this driver. Remote drivers return
    /// `None` — scrape through [`Connection::digest_top`] instead.
    fn digest_stats(&self) -> Option<Vec<sqldb::DigestEntry>> {
        None
    }

    /// Top `k` digest families by plan-cache misses, when observable from
    /// this driver.
    fn digest_top_misses(&self, k: usize) -> Option<Vec<sqldb::DigestEntry>> {
        let _ = k;
        None
    }

    /// Switches engine-side per-operator profiling, when the driver can
    /// govern the engine directly. Returns `false` (the default) when the
    /// capability is unavailable.
    fn set_profiling(&self, on: bool) -> bool {
        let _ = on;
        false
    }
}

/// In-process driver wrapping a [`Database`] instance directly.
#[derive(Debug, Clone)]
pub struct LocalDriver {
    db: Database,
}

impl LocalDriver {
    /// Wraps a database.
    pub fn new(db: Database) -> LocalDriver {
        LocalDriver { db }
    }

    /// The wrapped database.
    pub fn database(&self) -> &Database {
        &self.db
    }
}

impl Driver for LocalDriver {
    fn connect(&self) -> DbResult<Box<dyn Connection>> {
        Ok(Box::new(
            LocalConnection::from_session(self.db.connect(), self.db.profile())
                .with_database(self.db.clone()),
        ))
    }

    fn profile(&self) -> EngineProfile {
        self.db.profile()
    }

    fn engine_stats(&self) -> Option<sqldb::StatsSnapshot> {
        Some(self.db.stats())
    }

    fn engine_metrics(&self) -> Option<obs::RegistrySnapshot> {
        Some(self.db.metrics())
    }

    fn set_memory_limit(&self, limit: Option<u64>) -> bool {
        self.db.set_memory_limit(limit);
        true
    }

    fn memory_used(&self) -> Option<u64> {
        Some(self.db.memory_used())
    }

    fn plan_cache_stats(&self) -> Option<sqldb::PlanCacheStats> {
        Some(self.db.plan_cache_stats())
    }

    fn digest_stats(&self) -> Option<Vec<sqldb::DigestEntry>> {
        Some(self.db.digest_stats())
    }

    fn digest_top_misses(&self, k: usize) -> Option<Vec<sqldb::DigestEntry>> {
        Some(self.db.digest_top_misses(k))
    }

    fn set_profiling(&self, on: bool) -> bool {
        self.db.set_profiling(on);
        true
    }
}

/// In-process connection: a thin adapter over a [`Session`].
#[derive(Debug)]
pub struct LocalConnection {
    session: Session,
    profile: EngineProfile,
    epoch: u64,
    prepared: HashMap<u64, StmtHandle>,
    next_stmt_id: u64,
    /// Engine handle for metrics commands; `None` for bare sessions, which
    /// makes [`Connection::metrics`] answer `Unsupported`.
    db: Option<Database>,
}

impl LocalConnection {
    /// Wraps an existing session.
    pub fn from_session(session: Session, profile: EngineProfile) -> LocalConnection {
        LocalConnection {
            session,
            profile,
            epoch: mint_epoch(),
            prepared: HashMap::new(),
            next_stmt_id: 1,
            db: None,
        }
    }

    /// Attaches the engine handle, enabling [`Connection::metrics`] on
    /// this connection. [`LocalDriver::connect`] does this automatically.
    #[must_use]
    pub fn with_database(mut self, db: Database) -> LocalConnection {
        self.db = Some(db);
        self
    }
}

impl Connection for LocalConnection {
    fn execute(&mut self, sql: &str) -> DbResult<StmtOutput> {
        self.session.execute(sql)
    }

    fn prepare_statement(&mut self, sql: &str) -> DbResult<(u64, usize)> {
        if self.prepared.len() >= MAX_PREPARED_PER_CONNECTION {
            return Err(DbError::BudgetExceeded(format!(
                "connection holds {MAX_PREPARED_PER_CONNECTION} prepared statements; close some first"
            )));
        }
        let handle = self.session.prepare(sql)?;
        let id = self.next_stmt_id;
        self.next_stmt_id += 1;
        let param_count = handle.param_count();
        self.prepared.insert(id, handle);
        Ok((id, param_count))
    }

    fn execute_prepared(&mut self, stmt_id: u64, params: &[Value]) -> DbResult<StmtOutput> {
        let handle = self
            .prepared
            .get(&stmt_id)
            .cloned()
            .ok_or_else(|| DbError::NotFound(format!("prepared statement {stmt_id}")))?;
        self.session.execute_prepared(&handle, params)
    }

    fn close_prepared(&mut self, stmt_id: u64) -> DbResult<()> {
        self.prepared.remove(&stmt_id);
        Ok(())
    }

    fn prepared_epoch(&self) -> u64 {
        self.epoch
    }

    fn begin(&mut self) -> DbResult<()> {
        self.session.begin()
    }

    fn commit(&mut self) -> DbResult<()> {
        self.session.commit()
    }

    fn rollback(&mut self) -> DbResult<()> {
        self.session.rollback()
    }

    fn set_isolation(&mut self, level: IsolationLevel) -> DbResult<()> {
        self.session.set_isolation(level);
        Ok(())
    }

    fn set_statement_timeout(&mut self, timeout: Option<std::time::Duration>) -> DbResult<bool> {
        self.session.set_statement_timeout(timeout);
        Ok(true)
    }

    fn metrics(&mut self, cmd: &MetricsCmd) -> DbResult<StmtOutput> {
        match &self.db {
            Some(db) => Ok(crate::metrics_cmd::eval_metrics_cmd(db, cmd)),
            None => Err(DbError::Unsupported(
                "this connection wraps a bare session; metrics need a database handle".into(),
            )),
        }
    }

    fn profile(&self) -> EngineProfile {
        self.profile
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqldb::Value;

    fn driver() -> LocalDriver {
        let db = Database::new(EngineProfile::Postgres);
        let mut s = db.connect();
        s.execute("CREATE TABLE t (id INT PRIMARY KEY, v FLOAT)")
            .unwrap();
        s.execute("INSERT INTO t VALUES (1, 1.0), (2, 2.0)")
            .unwrap();
        LocalDriver::new(db)
    }

    #[test]
    fn local_driver_roundtrip() {
        let d = driver();
        let mut c = d.connect().unwrap();
        let r = c.query("SELECT SUM(v) FROM t").unwrap();
        assert_eq!(r.rows[0][0], Value::Float(3.0));
        assert_eq!(c.profile(), EngineProfile::Postgres);
    }

    #[test]
    fn batch_execution() {
        let d = driver();
        let mut c = d.connect().unwrap();
        let out = c
            .execute_batch(&[
                "INSERT INTO t VALUES (3, 3.0)".into(),
                "INSERT INTO t VALUES (4, 4.0)".into(),
            ])
            .unwrap();
        assert_eq!(out.len(), 2);
        let r = c.query("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(r.rows[0][0], Value::Int(4));
    }

    #[test]
    fn transactions_through_the_trait() {
        let d = driver();
        let mut c = d.connect().unwrap();
        c.begin().unwrap();
        c.execute("DELETE FROM t").unwrap();
        c.rollback().unwrap();
        let r = c.query("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(r.rows[0][0], Value::Int(2));
    }

    #[test]
    fn concurrent_connections_from_one_driver() {
        let d = std::sync::Arc::new(driver());
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let d = d.clone();
                std::thread::spawn(move || {
                    let mut c = d.connect().unwrap();
                    c.execute(&format!("INSERT INTO t VALUES ({}, 0.0)", 10 + i))
                        .unwrap();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let mut c = d.connect().unwrap();
        let r = c.query("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(r.rows[0][0], Value::Int(6));
    }
}
