//! Single-threaded executors: semi-naive recursive CTEs and the paper's
//! baseline iterative algorithm (§IV-B).
//!
//! These are both the fallback for queries outside the parallelizable class
//! and the semantic reference the parallel schedulers are tested against.

use crate::checkpoint::{
    check_fingerprint, dump_table_sql, restore_table_sql, run_fingerprint, trace_checkpoint,
    Checkpointer, LoopSnapshot,
};
use crate::common::{
    create_cte_table, refresh_delta_snapshot, rewrite_table_refs, run, run_query, CteNames,
    CteSchema, DeltaRefresher, PlanCacheProbe, TerminationProbe,
};
use crate::error::{SqloopError, SqloopResult};
use crate::grammar::{IterativeCte, RecursiveCte};
use crate::supervisor::panic_detail;
use crate::translate::{translate_query_to_sql, translate_sql};
use crate::watchdog::Governance;
use dbcp::{CancelToken, Connection, PreparedStatement};
use obs::{EventKind, Span, SpanKind, SpanOutcome, TraceHandle};
use sqldb::{DataType, DbError, QueryResult, Value};

/// What an executed CTE run reports back.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// Result of the final query `Qf`.
    pub result: QueryResult,
    /// Iterations (recursions) performed.
    pub iterations: u64,
    /// Rows updated/appended by the last iteration.
    pub last_change: u64,
    /// The run was stopped cooperatively before its termination condition;
    /// `result` holds the final query over the partial fix-point.
    pub cancelled: bool,
}

/// Runs a recursive CTE with semi-naive evaluation (paper §II-A):
/// each recursion sees only the previous recursion's output rows, and
/// evaluation stops at the fix-point (an empty working table).
///
/// # Errors
/// Engine errors, or [`SqloopError::Semantic`] when `max_iterations` is hit
/// (a non-terminating recursion).
pub fn run_recursive(
    conn: &mut dyn Connection,
    cte: &RecursiveCte,
    max_iterations: u64,
    keep_artifacts: bool,
) -> SqloopResult<RunOutcome> {
    let names = CteNames::new(&cte.name);
    // run the loop body, then clean up scratch tables on success *and*
    // error paths alike (the original error wins over a cleanup error)
    match recursive_loop(conn, cte, max_iterations, &names) {
        Ok(out) => {
            cleanup(conn, &names, keep_artifacts)?;
            Ok(out)
        }
        Err(e) => {
            let _ = cleanup(conn, &names, keep_artifacts);
            Err(e)
        }
    }
}

fn recursive_loop(
    conn: &mut dyn Connection,
    cte: &RecursiveCte,
    max_iterations: u64,
    names: &CteNames,
) -> SqloopResult<RunOutcome> {
    let schema = create_cte_table(conn, &cte.name, &cte.columns, &cte.seed, false, false)?;
    let cols = schema.columns.join(", ");

    // working table starts as a copy of the seed
    let mut parity = 0u64;
    let w0 = names.working(parity);
    run(conn, &format!("DROP TABLE IF EXISTS {w0}"))?;
    run(
        conn,
        &format!("CREATE TABLE {w0} AS SELECT * FROM {}", cte.name),
    )?;

    let mut iterations = 0u64;
    let mut last_change;
    loop {
        let w_cur = names.working(parity);
        let w_next = names.working(parity + 1);
        // Ri with references to R bound to the working table
        let step = rewrite_table_refs(&cte.recursive, &cte.name, &w_cur);
        let step_sql = translate_query_to_sql(&step, conn.profile());
        run(conn, &format!("DROP TABLE IF EXISTS {w_next}"))?;
        run(
            conn,
            &format!(
                "CREATE TABLE {w_next} ({})",
                schema
                    .columns
                    .iter()
                    .zip(&schema.types)
                    .map(|(c, t)| format!("{c} {t}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        )?;
        conn.execute(&format!(
            "INSERT INTO {} {}",
            conn.profile().dialect().quote(&w_next),
            step_sql
        ))?;

        if !cte.union_all {
            // UNION (set) semantics: drop rows already present in R
            let on = schema
                .columns
                .iter()
                .map(|c| format!("{w_next}.{c} = {}.{c}", cte.name))
                .collect::<Vec<_>>()
                .join(" AND ");
            let dedup = format!("{w_next}__d");
            run(conn, &format!("DROP TABLE IF EXISTS {dedup}"))?;
            run(
                conn,
                &format!(
                    "CREATE TABLE {dedup} AS SELECT DISTINCT {sel} FROM {w_next} \
                     LEFT JOIN {r} ON {on} WHERE {r}.{k} IS NULL",
                    sel = schema
                        .columns
                        .iter()
                        .map(|c| format!("{w_next}.{c}"))
                        .collect::<Vec<_>>()
                        .join(", "),
                    r = cte.name,
                    k = schema.key(),
                ),
            )?;
            run(conn, &format!("DROP TABLE {w_next}"))?;
            run(
                conn,
                &format!("CREATE TABLE {w_next} AS SELECT * FROM {dedup}"),
            )?;
            run(conn, &format!("DROP TABLE {dedup}"))?;
        }

        let produced = run_query(conn, &format!("SELECT COUNT(*) FROM {w_next}"))?
            .scalar()
            .and_then(Value::as_i64)
            .unwrap_or(0) as u64;
        last_change = produced;
        if produced == 0 {
            run(conn, &format!("DROP TABLE IF EXISTS {w_next}"))?;
            break;
        }
        run(
            conn,
            &format!("INSERT INTO {} SELECT {cols} FROM {w_next}", cte.name),
        )?;
        run(conn, &format!("DROP TABLE IF EXISTS {w_cur}"))?;
        parity += 1;
        iterations += 1;
        if iterations >= max_iterations {
            return Err(SqloopError::Semantic(format!(
                "recursion did not reach a fix-point within {max_iterations} iterations"
            )));
        }
    }

    let final_sql = translate_query_to_sql(&cte.final_query, conn.profile());
    let result = conn.query(&final_sql)?;
    Ok(RunOutcome {
        result,
        iterations,
        last_change,
        cancelled: false,
    })
}

/// Runs an iterative CTE with the single-threaded algorithm (paper §III-A):
/// per iteration, materialize `Ri` into `Rtmp`, then update `R` matching on
/// the key column, until the termination condition holds.
///
/// Each iteration is recorded as one [`SpanKind::Iteration`] span (with the
/// updated-row count) into `trace`, and — with a `cache_probe` — its
/// plan-cache hits and misses. `cancel` is checked at every iteration
/// boundary: a cancelled run still answers `Qf` over the partial fix-point
/// and reports `cancelled = true`. `checkpointer` writes periodic
/// checkpoints, and `resume` continues from a [`LoopSnapshot`] instead of
/// running the seed query (the snapshot's fingerprint must match this
/// query).
///
/// Under resource governance, watchdog verdicts (round budget, numeric
/// divergence, flat delta trend) and engine memory-budget trips abort the
/// run *governed*: the engine limit is lifted, a final checkpoint is
/// written (when checkpointing is on), and a typed
/// [`SqloopError::BudgetExceeded`]/[`SqloopError::NumericDivergence`] is
/// returned so the run can resume under a larger budget.
///
/// # Errors
/// Engine errors, [`SqloopError::Semantic`] when `max_iterations` is hit,
/// [`SqloopError::Checkpoint`] for snapshot/fingerprint problems, or the
/// governance verdicts above. Scratch tables are dropped on every path
/// unless `keep_artifacts`.
#[allow(clippy::too_many_arguments)]
pub fn run_iterative_single_governed(
    conn: &mut dyn Connection,
    cte: &IterativeCte,
    max_iterations: u64,
    keep_artifacts: bool,
    trace: &TraceHandle,
    cancel: &CancelToken,
    checkpointer: Option<&mut Checkpointer>,
    resume: Option<&LoopSnapshot>,
    governance: &mut Governance<'_>,
    cache_probe: Option<PlanCacheProbe>,
) -> SqloopResult<RunOutcome> {
    let names = CteNames::new(&cte.name);
    let out = start_single(conn, cte, &names, trace, resume).and_then(|(schema, at, last)| {
        let mut run = SingleRun {
            conn: &mut *conn,
            cte,
            names: &names,
            schema,
            trace,
            checkpointer,
            governance,
            iterations: at,
            last_updates: last,
        };
        // an engine memory-budget trip anywhere in the loop becomes a
        // governed abort here, from the state the loop had reached
        run.iterate(max_iterations, cancel, cache_probe)
            .map_err(|e| run.govern(e))
    });
    match out {
        Ok(out) => {
            cleanup(conn, &names, keep_artifacts)?;
            Ok(out)
        }
        Err(e) => {
            let _ = cleanup(conn, &names, keep_artifacts);
            Err(e)
        }
    }
}

/// Creates `R` from the seed query, or restores it from `resume`; returns
/// its schema and the `(iterations, last change)` the loop starts from.
fn start_single(
    conn: &mut dyn Connection,
    cte: &IterativeCte,
    names: &CteNames,
    trace: &TraceHandle,
    resume: Option<&LoopSnapshot>,
) -> SqloopResult<(CteSchema, u64, u64)> {
    let Some(snap) = resume else {
        let schema = create_cte_table(conn, &cte.name, &cte.columns, &cte.seed, true, true)?;
        if cte.termination.needs_delta_snapshot() {
            refresh_delta_snapshot(conn, names)?;
        }
        return Ok((schema, 0, 0));
    };
    check_fingerprint(snap, run_fingerprint(cte, "Single", 1), "Single")?;
    let main = snap
        .tables
        .iter()
        .find(|t| t.name == cte.name)
        .ok_or_else(|| {
            SqloopError::Checkpoint(format!("snapshot holds no table named {}", cte.name))
        })?;
    let schema = CteSchema {
        columns: main.columns.iter().map(|c| c.name.clone()).collect(),
        types: main.columns.iter().map(|c| c.data_type).collect(),
    };
    for t in &snap.tables {
        restore_table_sql(conn, t, 512)?;
    }
    trace.event(
        EventKind::Resume,
        None,
        Some(snap.round),
        format!("resumed single-threaded run at iteration {}", snap.round),
    );
    Ok((schema, snap.round, snap.last_change))
}

/// One single-threaded run past setup: the loop position, plus everything a
/// checkpoint or a governed abort of that position needs.
struct SingleRun<'a, 'g> {
    conn: &'a mut dyn Connection,
    cte: &'a IterativeCte,
    names: &'a CteNames,
    schema: CteSchema,
    trace: &'a TraceHandle,
    checkpointer: Option<&'a mut Checkpointer>,
    governance: &'a mut Governance<'g>,
    /// Completed iterations.
    iterations: u64,
    /// Rows the last completed iteration updated.
    last_updates: u64,
}

impl SingleRun<'_, '_> {
    fn iterate(
        &mut self,
        max_iterations: u64,
        cancel: &CancelToken,
        mut cache_probe: Option<PlanCacheProbe>,
    ) -> SqloopResult<RunOutcome> {
        let (cte, names, trace) = (self.cte, self.names, self.trace);
        // the hot loop's statements, prepared once: the scratch table is
        // created here and *emptied* (not recreated) every round, so the
        // INSERT/UPDATE plans survive in the engine's plan cache — per-round
        // DDL would invalidate them
        let tmp = names.tmp();
        let profile = self.conn.profile();
        run(self.conn, &format!("DROP TABLE IF EXISTS {tmp}"))?;
        run(
            self.conn,
            &format!(
                "CREATE TABLE {tmp} ({})",
                self.schema.create_columns_sql(true)
            ),
        )?;
        let mut clear_tmp =
            PreparedStatement::new(translate_sql(&format!("DELETE FROM {tmp}"), profile)?);
        // Rtmp := Ri
        let step_sql = translate_query_to_sql(&cte.step, profile);
        let mut fill_tmp = PreparedStatement::new(format!(
            "INSERT INTO {} {}",
            profile.dialect().quote(&tmp),
            step_sql
        ));
        // R := R ⟵ Rtmp matched on Rid (only Rid ∩ Rtmp_id rows change)
        let assignments = self.schema.columns[1..]
            .iter()
            .map(|c| format!("{c} = {tmp}.{c}"))
            .collect::<Vec<_>>()
            .join(", ");
        let mut apply = PreparedStatement::new(translate_sql(
            &format!(
                "UPDATE {r} SET {assignments} FROM {tmp} WHERE {r}.{k} = {tmp}.{k}",
                r = cte.name,
                k = self.schema.key(),
            ),
            profile,
        )?);
        let mut probe = TerminationProbe::new(&cte.name, &cte.termination, profile)?;
        let mut refresher = cte
            .termination
            .needs_delta_snapshot()
            .then(|| DeltaRefresher::new(names, profile))
            .transpose()?;

        let mut cancelled = false;
        loop {
            if cancel.cancelled() {
                trace.event(
                    EventKind::Cancel,
                    None,
                    Some(self.iterations),
                    "cancelled at iteration boundary",
                );
                obs::global().counter("sqloop.cancelled_runs").inc();
                self.save()?;
                cancelled = true;
                break;
            }
            let span_start = trace.now_us();
            // panic boundary: a panicking statement (an engine bug, an
            // injected chaos panic) must degrade into a typed error, never
            // unwind through the caller — the session is rolled back first
            // so any locks the panic left held are released. A failed
            // statement was rolled back by statement atomicity, so R still
            // holds round `iterations`.
            let conn = &mut *self.conn;
            let updated =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| -> SqloopResult<u64> {
                    clear_tmp.execute(&mut *conn, &[])?;
                    fill_tmp.execute(&mut *conn, &[])?;
                    Ok(apply.execute(&mut *conn, &[])?.rows_affected())
                }))
                .unwrap_or_else(|payload| {
                    let detail = panic_detail(payload.as_ref());
                    let _ = conn.execute("ROLLBACK");
                    obs::global()
                        .counter("sqloop.supervisor.panics_caught")
                        .inc();
                    trace.event(
                        EventKind::Panic,
                        None,
                        Some(self.iterations),
                        format!("absorbed a panicking statement: {detail}"),
                    );
                    Err(SqloopError::WorkerPanic {
                        worker: None,
                        detail: format!(
                            "single-threaded iteration {}: {detail}",
                            self.iterations + 1
                        ),
                    })
                })?;
            self.last_updates = updated;
            self.iterations += 1;
            let iterations = self.iterations;
            if trace.is_enabled() {
                trace.span(Span {
                    kind: SpanKind::Iteration,
                    partition: None,
                    iteration: Some(iterations),
                    worker: None,
                    attempt: 1,
                    rows: updated,
                    outcome: SpanOutcome::Ok,
                    start_us: span_start,
                    end_us: trace.now_us(),
                });
            }
            if let Some(probe) = &mut cache_probe {
                probe.tick(trace, iterations, "Single");
            }

            let done = probe.satisfied(&mut *self.conn, iterations, updated)?;
            if let Some(r) = refresher.as_mut() {
                r.refresh(&mut *self.conn)?;
            }
            if done {
                break;
            }
            let watchdog_verdict = match self.governance.watchdog.as_mut() {
                Some(w) => w
                    .check_round(iterations, updated)
                    .and_then(|()| {
                        w.probe_table(
                            &mut *self.conn,
                            &cte.name,
                            &self.schema.columns,
                            &self.schema.types,
                            None,
                            iterations,
                        )
                    })
                    .err(),
                None => None,
            };
            if let Some(verdict) = watchdog_verdict {
                self.governed_abort(&verdict)?;
                return Err(verdict);
            }
            if self
                .checkpointer
                .as_deref()
                .is_some_and(|ck| ck.due(iterations))
            {
                self.save()?;
            }
            if iterations >= max_iterations {
                return Err(SqloopError::Semantic(format!(
                    "termination condition not satisfied within {max_iterations} iterations"
                )));
            }
        }
        run(self.conn, &format!("DROP TABLE IF EXISTS {tmp}"))?;

        let final_sql = translate_query_to_sql(&cte.final_query, self.conn.profile());
        Ok(RunOutcome {
            result: self.conn.query(&final_sql)?,
            iterations: self.iterations,
            last_change: self.last_updates,
            cancelled,
        })
    }

    /// Writes a checkpoint of the current position (when checkpointing is
    /// on): the CTE table `R`, plus the delta snapshot when the termination
    /// condition reads one.
    fn save(&mut self) -> SqloopResult<()> {
        let Some(ck) = self.checkpointer.as_deref_mut() else {
            return Ok(());
        };
        let cols: Vec<(String, DataType)> = self
            .schema
            .columns
            .iter()
            .cloned()
            .zip(self.schema.types.iter().copied())
            .collect();
        let mut tables = vec![dump_table_sql(self.conn, &self.cte.name, &cols, Some(0))?];
        if self.cte.termination.needs_delta_snapshot() {
            let delta = self.names.delta_snapshot();
            tables.push(dump_table_sql(self.conn, &delta, &cols, None)?);
        }
        let path = ck.save(&LoopSnapshot {
            fingerprint: run_fingerprint(self.cte, "Single", 1),
            mode: "Single".into(),
            round: self.iterations,
            last_change: self.last_updates,
            parts: Vec::new(),
            seeds: Vec::new(),
            tables,
        })?;
        trace_checkpoint(self.trace, self.iterations, &path);
        Ok(())
    }

    /// Converts an engine memory-budget trip into a governed abort,
    /// returning the typed verdict; every other error passes through
    /// unchanged. When the abort itself fails the original trip is surfaced
    /// so the failure is not masked.
    fn govern(&mut self, e: SqloopError) -> SqloopError {
        let SqloopError::Db(DbError::BudgetExceeded(m)) = e else {
            return e;
        };
        let verdict = SqloopError::BudgetExceeded {
            what: format!("memory ({m})"),
            round: self.iterations,
        };
        match self.governed_abort(&verdict) {
            Ok(()) => verdict,
            Err(_) => SqloopError::Db(DbError::BudgetExceeded(m)),
        }
    }

    /// Lifts the engine memory limit, records the verdict, and writes a
    /// final checkpoint so a governed abort is always resumable under a
    /// larger budget.
    fn governed_abort(&mut self, verdict: &SqloopError) -> SqloopResult<()> {
        self.governance.lift_memory_limit();
        self.trace.event(
            EventKind::Watchdog,
            None,
            Some(self.iterations),
            format!("governed abort: {verdict}"),
        );
        obs::global().counter("sqloop.governed_aborts").inc();
        self.save()
    }
}

fn cleanup(conn: &mut dyn Connection, names: &CteNames, keep: bool) -> SqloopResult<()> {
    if keep {
        return Ok(());
    }
    for t in [
        names.table.clone(),
        names.tmp(),
        names.working(0),
        names.working(1),
        format!("{}__d", names.working(0)),
        format!("{}__d", names.working(1)),
        names.delta_snapshot(),
    ] {
        run(conn, &format!("DROP TABLE IF EXISTS {t}"))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grammar::{parse, SqloopQuery};
    use dbcp::{Driver, LocalDriver};
    use sqldb::{Database, EngineProfile};

    fn conn_with_edges(profile: EngineProfile) -> Box<dyn Connection> {
        let db = Database::new(profile);
        let mut s = db.connect();
        s.execute("CREATE TABLE edges (src INT, dst INT, weight FLOAT)")
            .unwrap();
        // a small strongly-connected graph
        s.execute(
            "INSERT INTO edges VALUES \
             (1,2,0.5),(1,3,0.5),(2,3,1.0),(3,1,1.0),(4,1,1.0),(2,4,0.0)",
        )
        .ok();
        LocalDriver::new(db).connect().unwrap()
    }

    fn iterative(sql: &str) -> IterativeCte {
        match parse(sql).unwrap() {
            SqloopQuery::Iterative(c) => c,
            other => panic!("expected iterative: {other:?}"),
        }
    }

    fn run_iterative_single(
        conn: &mut dyn Connection,
        cte: &IterativeCte,
        max_iterations: u64,
        keep_artifacts: bool,
    ) -> SqloopResult<RunOutcome> {
        run_iterative_single_governed(
            conn,
            cte,
            max_iterations,
            keep_artifacts,
            &TraceHandle::disabled(),
            &CancelToken::new(),
            None,
            None,
            &mut Governance::none(),
            None,
        )
    }

    fn recursive(sql: &str) -> RecursiveCte {
        match parse(sql).unwrap() {
            SqloopQuery::Recursive(c) => c,
            other => panic!("expected recursive: {other:?}"),
        }
    }

    #[test]
    fn fibonacci_example_1() {
        // the paper's Example 1: sum of Fibonacci numbers below 1000
        let cte = recursive(
            "WITH RECURSIVE Fibonacci(n, pn) AS (\
             VALUES (0, 1) UNION ALL \
             SELECT n + pn, n FROM Fibonacci WHERE n < 1000) \
             SELECT SUM(n) FROM Fibonacci",
        );
        let mut c = conn_with_edges(EngineProfile::Postgres);
        let out = run_recursive(c.as_mut(), &cte, 1000, false).unwrap();
        // 0,1,1,2,3,5,…,987 → sum = 2583 (includes the final 1597 > 1000? no:
        // rows are produced while n < 1000 recursion guard holds; the last
        // appended row is 1597 (from n=987), giving 0+1+1+2+…+987+1597 = 4180
        let v = out.result.rows[0][0].clone();
        assert_eq!(v, Value::Int(4180));
        // scratch tables dropped
        assert!(c.query("SELECT * FROM fibonacci").is_err());
    }

    #[test]
    fn recursive_union_set_semantics_terminates_on_cycle() {
        // reachability over a cyclic graph only terminates under UNION (set)
        let cte = recursive(
            "WITH RECURSIVE reach(node) AS (\
             SELECT 1 UNION \
             SELECT edges.dst FROM reach JOIN edges ON reach.node = edges.src) \
             SELECT COUNT(*) FROM reach",
        );
        let mut c = conn_with_edges(EngineProfile::Postgres);
        let out = run_recursive(c.as_mut(), &cte, 100, false).unwrap();
        assert_eq!(out.result.rows[0][0], Value::Int(4));
    }

    #[test]
    fn iterative_pagerank_converges() {
        let pr = iterative(
            "WITH ITERATIVE PageRank(Node, Rank, Delta) AS (\
             SELECT src, 0, 0.15 \
             FROM (SELECT src FROM edges UNION SELECT dst FROM edges) AS alledges GROUP BY src \
             ITERATE \
             SELECT PageRank.Node, \
             COALESCE(PageRank.Rank + PageRank.Delta, 0.15), \
             COALESCE(0.85 * SUM(IncomingRank.Delta * IncomingEdges.weight), 0.0) \
             FROM PageRank \
             LEFT JOIN edges AS IncomingEdges ON PageRank.Node = IncomingEdges.dst \
             LEFT JOIN PageRank AS IncomingRank ON IncomingRank.Node = IncomingEdges.src \
             GROUP BY PageRank.Node \
             UNTIL 50 ITERATIONS) \
             SELECT Node, Rank FROM PageRank ORDER BY Node",
        );
        let mut c = conn_with_edges(EngineProfile::Postgres);
        let out = run_iterative_single(c.as_mut(), &pr, 1000, false).unwrap();
        assert_eq!(out.iterations, 50);
        assert_eq!(out.result.rows.len(), 4);
        // total rank approaches n * 0.15 / (1 - 0.85) = 4 (for a closed graph
        // with no dangling mass the delta-PR total converges to n)
        let total: f64 = out.result.rows.iter().map(|r| r[1].as_f64().unwrap()).sum();
        assert!(total > 3.0 && total < 4.2, "total rank {total}");
    }

    #[test]
    fn iterative_sssp_until_0_updates() {
        let sssp = iterative(
            "WITH ITERATIVE sssp (Node, Distance, Delta) AS (\
             SELECT src, Infinity, CASE WHEN src = 1 THEN 0 ELSE Infinity END \
             FROM (SELECT src FROM edges UNION SELECT dst FROM edges) AS alledges GROUP BY src \
             ITERATE \
             SELECT sssp.Node, \
             LEAST(sssp.Distance, sssp.Delta), \
             COALESCE(MIN(Neighbor.Delta + IncomingEdges.weight), Infinity) \
             FROM sssp \
             LEFT JOIN edges AS IncomingEdges ON sssp.Node = IncomingEdges.dst \
             LEFT JOIN sssp AS Neighbor ON Neighbor.Node = IncomingEdges.src \
             WHERE Neighbor.Delta < Neighbor.Distance OR sssp.Delta < sssp.Distance \
             GROUP BY sssp.node \
             UNTIL 0 UPDATES) \
             SELECT sssp.Node, sssp.Distance FROM sssp ORDER BY sssp.Node",
        );
        let mut c = conn_with_edges(EngineProfile::Postgres);
        let out = run_iterative_single(c.as_mut(), &sssp, 1000, false).unwrap();
        // shortest distances from node 1: 1→2 = 0.5, 1→3 = 0.5, 1→4 = 0.5
        let rows = &out.result.rows;
        assert_eq!(rows[0], vec![Value::Int(1), Value::Float(0.0)]);
        assert_eq!(rows[1], vec![Value::Int(2), Value::Float(0.5)]);
        assert_eq!(rows[2], vec![Value::Int(3), Value::Float(0.5)]);
        assert_eq!(rows[3], vec![Value::Int(4), Value::Float(0.5)]);
    }

    #[test]
    fn sssp_runs_on_every_engine_profile() {
        for profile in EngineProfile::ALL {
            let sssp = iterative(
                "WITH ITERATIVE sssp (Node, Distance, Delta) AS (\
                 SELECT src, Infinity, CASE WHEN src = 1 THEN 0 ELSE Infinity END \
                 FROM (SELECT src FROM edges UNION SELECT dst FROM edges) AS a GROUP BY src \
                 ITERATE \
                 SELECT sssp.Node, LEAST(sssp.Distance, sssp.Delta), \
                 COALESCE(MIN(Neighbor.Delta + IncomingEdges.weight), Infinity) \
                 FROM sssp \
                 LEFT JOIN edges AS IncomingEdges ON sssp.Node = IncomingEdges.dst \
                 LEFT JOIN sssp AS Neighbor ON Neighbor.Node = IncomingEdges.src \
                 WHERE Neighbor.Delta < Neighbor.Distance OR sssp.Delta < sssp.Distance \
                 GROUP BY sssp.node UNTIL 0 UPDATES) \
                 SELECT sssp.Distance FROM sssp WHERE sssp.Node = 3",
            );
            let mut c = conn_with_edges(profile);
            let out = run_iterative_single(c.as_mut(), &sssp, 1000, false)
                .unwrap_or_else(|e| panic!("{profile}: {e}"));
            assert_eq!(out.result.rows[0][0], Value::Float(0.5), "{profile}");
        }
    }

    #[test]
    fn delta_termination_condition() {
        // stop once total rank moves less than 0.001 between iterations
        let pr = iterative(
            "WITH ITERATIVE pr(Node, Rank, Delta) AS (\
             SELECT src, 0, 0.15 \
             FROM (SELECT src FROM edges UNION SELECT dst FROM edges) AS a GROUP BY src \
             ITERATE \
             SELECT pr.Node, COALESCE(pr.Rank + pr.Delta, 0.15), \
             COALESCE(0.85 * SUM(irank.Delta * ie.weight), 0.0) \
             FROM pr LEFT JOIN edges AS ie ON pr.Node = ie.dst \
             LEFT JOIN pr AS irank ON irank.Node = ie.src \
             GROUP BY pr.Node \
             UNTIL DELTA SELECT SUM(pr.Rank) - SUM(prdelta.Rank) FROM pr, prdelta < 0.001) \
             SELECT SUM(Rank) FROM pr",
        );
        let mut c = conn_with_edges(EngineProfile::Postgres);
        let out = run_iterative_single(c.as_mut(), &pr, 1000, false).unwrap();
        assert!(out.iterations > 5, "should take several iterations");
        assert!(out.iterations < 200);
    }

    #[test]
    fn data_any_termination() {
        // stop as soon as any node's rank exceeds 0.5
        let pr = iterative(
            "WITH ITERATIVE pr(Node, Rank, Delta) AS (\
             SELECT src, 0, 0.15 \
             FROM (SELECT src FROM edges UNION SELECT dst FROM edges) AS a GROUP BY src \
             ITERATE \
             SELECT pr.Node, COALESCE(pr.Rank + pr.Delta, 0.15), \
             COALESCE(0.85 * SUM(irank.Delta * ie.weight), 0.0) \
             FROM pr LEFT JOIN edges AS ie ON pr.Node = ie.dst \
             LEFT JOIN pr AS irank ON irank.Node = ie.src \
             GROUP BY pr.Node \
             UNTIL ANY SELECT Node FROM pr WHERE Rank > 0.5) \
             SELECT COUNT(*) FROM pr WHERE Rank > 0.5",
        );
        let mut c = conn_with_edges(EngineProfile::Postgres);
        let out = run_iterative_single(c.as_mut(), &pr, 1000, false).unwrap();
        assert!(out.result.rows[0][0].as_i64().unwrap() >= 1);
    }

    #[test]
    fn runaway_iteration_capped() {
        let cte = iterative(
            "WITH ITERATIVE r(id, v) AS (\
             SELECT src, 0.0 FROM edges GROUP BY src \
             ITERATE SELECT r.id, MAX(r.v) + 1.0 FROM r GROUP BY r.id \
             UNTIL ANY SELECT id FROM r WHERE v < 0) \
             SELECT * FROM r",
        );
        let mut c = conn_with_edges(EngineProfile::Postgres);
        let err = run_iterative_single(c.as_mut(), &cte, 25, false);
        assert!(matches!(err, Err(SqloopError::Semantic(_))), "{err:?}");
    }
}
