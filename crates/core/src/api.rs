//! The public middleware facade: accept SQLoop SQL, decide an execution
//! strategy, run it, report what happened (paper Fig. 2).

use crate::analysis::{analyze, AnalysisOutcome};
use crate::config::{ExecutionMode, SqloopConfig};
use crate::error::{SqloopError, SqloopResult};
use crate::grammar::{parse, IterativeCte, SqloopQuery, Termination};
use crate::parallel::{run_iterative, IterativeRun, Layout};
use crate::progress::{ProgressSample, RecoveryCounters};
use crate::translate::translate_sql;
use dbcp::{driver_for_url, Driver};
use obs::{EventKind, RegistrySnapshot, TraceData, TraceHandle, TraceSummary};
use sqldb::{QueryResult, StmtOutput};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How a statement ended up being executed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Strategy {
    /// Regular SQL, translated and passed through to the engine.
    Passthrough,
    /// Recursive CTE, semi-naive evaluation on the single-threaded layout.
    RecursiveSingle,
    /// Iterative CTE on the single-threaded executor.
    IterativeSingle {
        /// Why parallelization was not used (`None` = requested by config).
        fallback_reason: Option<String>,
    },
    /// Iterative CTE on the parallel engine.
    IterativeParallel {
        /// The scheduling policy used.
        mode: ExecutionMode,
    },
}

impl Strategy {
    /// Stable mode label used to tag digest attribution: the scheduler-mode
    /// label for iterative runs, `passthrough`/`recursive` otherwise.
    pub fn mode_label(&self) -> &'static str {
        match self {
            Strategy::Passthrough => "passthrough",
            Strategy::RecursiveSingle => "recursive",
            Strategy::IterativeSingle { .. } => "Single",
            Strategy::IterativeParallel { mode } => mode.label(),
        }
    }
}

/// Number of miss-heavy digest families kept in
/// [`DigestReport::top_misses`].
pub const DIGEST_MISS_TOP_K: usize = 8;

/// Per-run statement-digest attribution, tagged with the execution mode
/// that produced it. Built by diffing the engine's digest table around the
/// run, so the numbers cover this statement only even though the engine
/// accumulates across runs.
#[derive(Debug, Clone, Default)]
pub struct DigestReport {
    /// Mode label the run used: `Single`, `Sync`, `Async`, `AsyncP`,
    /// `passthrough`, or `recursive`.
    pub mode: String,
    /// Per-run digest deltas, sorted by total time descending (digest
    /// ascending as tie-break). `max_us` is the engine's lifetime maximum
    /// for the family, not a per-run figure.
    pub families: Vec<sqldb::DigestEntry>,
    /// The same deltas re-ranked by plan-cache misses, top
    /// [`DIGEST_MISS_TOP_K`] only — the statement families whose texts
    /// never repeat, i.e. where the plan cache is losing.
    pub top_misses: Vec<sqldb::DigestEntry>,
}

impl DigestReport {
    /// Builds the report by diffing two digest-table snapshots.
    pub fn from_snapshots(
        mode: &str,
        before: Vec<sqldb::DigestEntry>,
        after: Vec<sqldb::DigestEntry>,
    ) -> DigestReport {
        let prior: std::collections::HashMap<String, sqldb::DigestEntry> =
            before.into_iter().map(|e| (e.digest.clone(), e)).collect();
        let mut families: Vec<sqldb::DigestEntry> = after
            .into_iter()
            .filter_map(|mut e| {
                if let Some(p) = prior.get(&e.digest) {
                    e.calls = e.calls.saturating_sub(p.calls);
                    e.errors = e.errors.saturating_sub(p.errors);
                    e.total_us = e.total_us.saturating_sub(p.total_us);
                    e.rows = e.rows.saturating_sub(p.rows);
                    e.plan_hits = e.plan_hits.saturating_sub(p.plan_hits);
                    e.plan_misses = e.plan_misses.saturating_sub(p.plan_misses);
                    // max_us keeps the lifetime maximum: a delta of maxima
                    // is not meaningful
                }
                (e.calls > 0).then_some(e)
            })
            .collect();
        families.sort_by(|a, b| b.total_us.cmp(&a.total_us).then(a.digest.cmp(&b.digest)));
        let mut top_misses: Vec<sqldb::DigestEntry> = families
            .iter()
            .filter(|e| e.plan_misses > 0)
            .cloned()
            .collect();
        top_misses.sort_by(|a, b| {
            b.plan_misses
                .cmp(&a.plan_misses)
                .then(a.digest.cmp(&b.digest))
        });
        top_misses.truncate(DIGEST_MISS_TOP_K);
        DigestReport {
            mode: mode.to_owned(),
            families,
            top_misses,
        }
    }

    /// Aggregate plan-cache outcome over this run's families:
    /// `(hits, misses)`.
    pub fn plan_cache_totals(&self) -> (u64, u64) {
        self.families
            .iter()
            .fold((0, 0), |(h, m), e| (h + e.plan_hits, m + e.plan_misses))
    }
}

/// Everything a run reports (result + provenance + metrics).
#[derive(Debug, Clone)]
pub struct ExecutionReport {
    /// The rows of the final query (or the passthrough statement).
    pub result: QueryResult,
    /// How it ran.
    pub strategy: Strategy,
    /// Rounds performed, the last one included (0 for passthrough).
    pub iterations: u64,
    /// Rows changed by the last iteration.
    pub last_change: u64,
    /// Compute tasks executed (parallel runs).
    pub computes: u64,
    /// Gather tasks executed (parallel runs).
    pub gathers: u64,
    /// Non-empty message tables created (parallel runs).
    pub messages: u64,
    /// Aggregate worker task time (parallel runs); `worker_busy / elapsed`
    /// measures achieved overlap.
    pub worker_busy: Duration,
    /// Convergence samples (when sampling was configured).
    pub samples: Vec<ProgressSample>,
    /// Fault-recovery counters (all zero unless faults were injected or
    /// encountered; `downgraded` marks a parallel run that finished on the
    /// single-threaded executor).
    pub recovery: RecoveryCounters,
    /// Wall-clock execution time.
    pub elapsed: Duration,
    /// Trace summary of this run (when [`SqloopConfig::trace`] is enabled).
    pub trace: Option<TraceSummary>,
    /// Full trace data behind [`ExecutionReport::trace`] — spans and events
    /// for timeline rendering or JSON export.
    pub trace_data: Option<TraceData>,
    /// Delta over this run of the process-wide metrics registry (pool,
    /// retry, chaos, wire) plus, when the driver sees the engine, the
    /// engine's own ([`SQLoop::metrics`]). Empty when nothing instrumented
    /// fired.
    pub metrics: RegistrySnapshot,
    /// Per-run delta of the engine's execution statistics, when the driver
    /// can see the engine directly (`local://` drivers; `None` over TCP).
    pub engine_stats: Option<sqldb::StatsSnapshot>,
    /// Per-run statement-digest attribution tagged with the execution
    /// mode, when the driver can see the engine's digest table (`local://`
    /// drivers with digest collection enabled; `None` over TCP).
    pub digests: Option<DigestReport>,
    /// True when the run stopped early on cancellation (deadline, Ctrl-C or
    /// a programmatic [`dbcp::CancelToken`]); `result` then holds the
    /// partial state at the cancellation point.
    pub cancelled: bool,
    /// Path of the last checkpoint written during this run, when
    /// [`SqloopConfig::checkpoint`] was configured and at least one
    /// snapshot was taken.
    pub checkpoint: Option<PathBuf>,
    /// Human-readable note when resuming had to fall back past corrupt or
    /// unreadable snapshots (quarantined files, older generations used).
    /// `None` on a clean load or when the run did not resume.
    pub recovery_note: Option<String>,
}

impl ExecutionReport {
    /// The report of `result` with every count zero and nothing attached.
    fn plain(result: QueryResult, strategy: Strategy, started: Instant) -> ExecutionReport {
        ExecutionReport {
            result,
            strategy,
            iterations: 0,
            last_change: 0,
            computes: 0,
            gathers: 0,
            messages: 0,
            worker_busy: Duration::ZERO,
            samples: Vec::new(),
            recovery: RecoveryCounters::default(),
            elapsed: started.elapsed(),
            trace: None,
            trace_data: None,
            metrics: RegistrySnapshot::default(),
            engine_stats: None,
            digests: None,
            cancelled: false,
            checkpoint: None,
            recovery_note: None,
        }
    }
}

/// The SQLoop middleware instance.
///
/// Owns a connection factory to one target engine plus a configuration;
/// cheap to clone.
///
/// # Examples
/// ```
/// use sqloop::SQLoop;
///
/// # fn main() -> Result<(), sqloop::SqloopError> {
/// let loop_ = SQLoop::connect("local://postgres")?;
/// loop_.execute("CREATE TABLE edges (src INT, dst INT, weight FLOAT)")?;
/// loop_.execute("INSERT INTO edges VALUES (1, 2, 1.0), (2, 1, 1.0)")?;
/// let out = loop_.execute(
///     "WITH ITERATIVE r(node, hops, delta) AS (
///        SELECT src, 0.0, 1.0 FROM edges GROUP BY src
///        ITERATE
///        SELECT r.node, r.hops + r.delta, COALESCE(SUM(s.delta * e.weight), 0.0)
///        FROM r LEFT JOIN edges AS e ON r.node = e.dst
///        LEFT JOIN r AS s ON s.node = e.src
///        GROUP BY r.node UNTIL 2 ITERATIONS)
///      SELECT COUNT(*) FROM r",
/// )?;
/// assert_eq!(out.rows.len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct SQLoop {
    driver: Arc<dyn Driver>,
    config: SqloopConfig,
}

impl std::fmt::Debug for SQLoop {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SQLoop")
            .field("engine", &self.driver.profile())
            .field("config", &self.config)
            .finish()
    }
}

impl SQLoop {
    /// Wraps an existing driver with the default configuration.
    pub fn new(driver: Arc<dyn Driver>) -> SQLoop {
        SQLoop {
            driver,
            config: SqloopConfig::default(),
        }
    }

    /// Connects by URL (`tcp://host:port`, `local://postgres|mysql|mariadb`)
    /// — the paper's "the user connects by specifying only the URL and the
    /// port number" (§IV-A).
    ///
    /// # Errors
    /// Connection errors from the driver layer.
    pub fn connect(url: &str) -> SqloopResult<SQLoop> {
        Ok(SQLoop::new(driver_for_url(url)?))
    }

    /// Replaces the configuration (builder style).
    pub fn with_config(mut self, config: SqloopConfig) -> SQLoop {
        self.config = config;
        self
    }

    /// Mutable access to the configuration.
    pub fn config_mut(&mut self) -> &mut SqloopConfig {
        &mut self.config
    }

    /// The current configuration.
    pub fn config(&self) -> &SqloopConfig {
        &self.config
    }

    /// The underlying driver.
    pub fn driver(&self) -> &Arc<dyn Driver> {
        &self.driver
    }

    /// The process-wide metrics registry plus the engine's own
    /// ([`Driver::engine_metrics`]), when the driver sees the engine: other
    /// databases in the process never show here.
    pub fn metrics(&self) -> RegistrySnapshot {
        let mut snap = obs::global().snapshot();
        snap.extend(self.driver.engine_metrics().unwrap_or_default());
        snap
    }

    /// Executes one SQLoop statement and returns its rows.
    ///
    /// # Errors
    /// Grammar, analysis, translation and engine errors.
    pub fn execute(&self, sql: &str) -> SqloopResult<QueryResult> {
        self.execute_detailed(sql).map(|r| r.result)
    }

    /// Executes one statement with full provenance and metrics: strategy,
    /// iteration/task counts, per-run registry and engine-statistics deltas,
    /// and — when [`SqloopConfig::trace`] is on — the run's trace (also
    /// written as JSON when a trace path is configured).
    ///
    /// # Errors
    /// See [`SQLoop::execute`].
    pub fn execute_detailed(&self, sql: &str) -> SqloopResult<ExecutionReport> {
        let started = Instant::now();
        let metrics_before = self.metrics();
        let engine_before = self.driver.engine_stats();
        let digests_before = self.driver.digest_stats();
        let mut report = self.execute_inner(sql, started)?;
        report.metrics = self.metrics().delta_since(&metrics_before);
        report.engine_stats = match (self.driver.engine_stats(), engine_before) {
            (Some(now), Some(before)) => Some(now.delta_since(&before)),
            _ => None,
        };
        if let (Some(before), Some(after)) = (digests_before, self.driver.digest_stats()) {
            report.digests = Some(DigestReport::from_snapshots(
                report.strategy.mode_label(),
                before,
                after,
            ));
        }
        if let (Some(path), Some(data)) = (&self.config.trace.json_path, &report.trace_data) {
            if let Err(e) = obs::write_trace_json(path, data, Some(&report.metrics)) {
                eprintln!("sqloop: could not write trace to {}: {e}", path.display());
            }
        }
        Ok(report)
    }

    fn execute_inner(&self, sql: &str, started: Instant) -> SqloopResult<ExecutionReport> {
        match parse(sql)? {
            SqloopQuery::Plain(text) => {
                let mut conn = self.driver.connect()?;
                let translated = translate_sql(&text, conn.profile())?;
                let out = conn.execute(&translated)?;
                let result = match out {
                    StmtOutput::Rows(r) => r,
                    StmtOutput::Affected(n) => QueryResult {
                        columns: vec!["rows_affected".into()],
                        rows: vec![vec![sqldb::Value::Int(n as i64)]],
                    },
                    StmtOutput::Done => QueryResult::default(),
                };
                Ok(ExecutionReport::plain(
                    result,
                    Strategy::Passthrough,
                    started,
                ))
            }
            // the loop's input: each round runs the recursive part over the
            // last round's rows, and the first round that adds none ends it
            SqloopQuery::Recursive(cte) => {
                let layout = Layout::Recursive {
                    union_all: cte.union_all,
                };
                let cte = IterativeCte {
                    name: cte.name,
                    columns: cte.columns,
                    seed: cte.seed,
                    step: cte.recursive,
                    termination: Termination::Updates(0),
                    final_query: cte.final_query,
                };
                self.execute_loop(&cte, Some(layout), started)
            }
            SqloopQuery::Iterative(cte) => self.execute_loop(&cte, None, started),
        }
    }

    /// Runs a CTE on the scheduler loop: on `layout` when given (a
    /// recursive CTE), otherwise on the layout the mode and the analysis
    /// pick for an iterative one.
    fn execute_loop(
        &self,
        cte: &IterativeCte,
        layout: Option<Layout>,
        started: Instant,
    ) -> SqloopResult<ExecutionReport> {
        let trace = TraceHandle::new(self.config.trace.enabled);
        // a fresh statement starts with a clean token; a deadline (when
        // configured) covers this statement only
        self.config.cancel.reset();
        if let Some(d) = self.config.deadline {
            self.config.cancel.set_deadline_in(d);
        }
        // Single runs Whole without asking the analysis; a query outside
        // the parallelizable class falls back to it with the reason
        let single =
            |fallback_reason| (Layout::Whole, Strategy::IterativeSingle { fallback_reason });
        let (layout, strategy) = match layout {
            Some(layout) => (layout, Strategy::RecursiveSingle),
            None if self.config.mode == ExecutionMode::Single => single(None),
            None => match analyze(cte, &self.resolve_columns(cte)?)? {
                AnalysisOutcome::NotParallelizable { reason } => single(Some(reason)),
                AnalysisOutcome::Parallelizable(plan) => (
                    Layout::Partitioned(Box::new(plan)),
                    Strategy::IterativeParallel {
                        mode: self.config.mode,
                    },
                ),
            },
        };
        let (result, recovery) = run_iterative(&self.driver, cte, layout, &self.config, &trace);
        let mut report = match result {
            Ok(run) => self.report(run, strategy, started),
            // budget exhausted on a transient fault: the engine is flaky,
            // not the query — degrade to Whole rather than surfacing the
            // error
            Err(e)
                if matches!(strategy, Strategy::IterativeParallel { .. })
                    && self.config.downgrade_on_failure
                    && e.is_retryable() =>
            {
                eprintln!(
                    "sqloop: parallel execution failed ({e}); \
                     downgrading to the single-threaded executor"
                );
                trace.event(
                    EventKind::Downgrade,
                    None,
                    None,
                    format!("parallel execution failed: {e}"),
                );
                let strategy = Strategy::IterativeSingle {
                    fallback_reason: Some(format!("downgraded after fault: {e}")),
                };
                // a resume snapshot describes the parallel layout, which
                // Whole's fingerprint check would reject
                let config = SqloopConfig {
                    resume_from: None,
                    ..self.config.clone()
                };
                // the rerun talks to the same flaky engine; retry it whole
                // (every scratch CREATE is preceded by a DROP IF EXISTS, so
                // a rerun is idempotent) rather than letting one more
                // transient fault kill the query
                let mut attempt: u32 = 0;
                let run = loop {
                    match run_iterative(&self.driver, cte, Layout::Whole, &config, &trace).0 {
                        Ok(run) => break run,
                        Err(e) if e.is_retryable() && attempt < config.task_retries => {
                            attempt += 1;
                            // interruptible: Ctrl-C during a downgrade
                            // backoff should not hang
                            if !config
                                .cancel
                                .sleep(config.retry_backoff * (1 << attempt.min(10)))
                            {
                                return Err(e);
                            }
                        }
                        Err(e) => return Err(e),
                    }
                };
                let mut report = self.report(run, strategy, started);
                report.recovery = RecoveryCounters {
                    downgraded: true,
                    ..recovery
                };
                report
            }
            Err(e) => return Err(e),
        };
        if let Some(data) = trace.data() {
            report.trace = Some(TraceSummary::from_data(&data));
            report.trace_data = Some(data);
        }
        report.elapsed = started.elapsed();
        Ok(report)
    }

    /// The report of an iterative run; the caller fills in the trace and
    /// the per-run deltas.
    fn report(&self, run: IterativeRun, strategy: Strategy, started: Instant) -> ExecutionReport {
        ExecutionReport {
            iterations: run.outcome.iterations,
            last_change: run.outcome.last_change,
            computes: run.computes,
            gathers: run.gathers,
            messages: run.messages,
            worker_busy: run.worker_busy,
            samples: run.samples,
            recovery: run.recovery,
            cancelled: run.outcome.cancelled,
            checkpoint: run.checkpoint,
            recovery_note: run.recovery_note,
            ..ExecutionReport::plain(run.outcome.result, strategy, started)
        }
    }

    /// Column names for analysis: the declared list, or a probe of the seed.
    fn resolve_columns(&self, cte: &IterativeCte) -> SqloopResult<Vec<String>> {
        if !cte.columns.is_empty() {
            return Ok(cte.columns.clone());
        }
        let mut probe = cte.seed.clone();
        probe.limit = Some(0);
        let mut conn = self.driver.connect()?;
        let sql = crate::translate::translate_query_to_sql(&probe, conn.profile());
        let result = conn.query(&sql).map_err(SqloopError::from)?;
        Ok(result.columns)
    }
}
