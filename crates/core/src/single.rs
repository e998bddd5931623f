//! The single-threaded recursive executor: semi-naive evaluation of
//! recursive CTEs (paper §II-A), and the run report every executor
//! returns. Iterative CTEs run on the scheduler in `parallel.rs`, whose
//! Whole policy is the paper's single-threaded baseline (§III-A).

use crate::common::{create_cte_table, rewrite_table_refs, run, run_query, CteNames};
use crate::error::{SqloopError, SqloopResult};
use crate::grammar::RecursiveCte;
use crate::translate::translate_query_to_sql;
use dbcp::Connection;
use sqldb::{QueryResult, Value};

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

/// Drops the scratch tables of a single-threaded run — `R`, Whole's
/// `Rtmp`, the recursion's working tables and the delta snapshot — unless
/// `keep`.
pub(crate) fn cleanup(conn: &mut dyn Connection, names: &CteNames, keep: bool) -> SqloopResult<()> {
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
    use crate::config::{ExecutionMode, SqloopConfig};
    use crate::grammar::{parse, IterativeCte, SqloopQuery};
    use crate::parallel::run_iterative;
    use dbcp::{Driver, LocalDriver};
    use obs::TraceHandle;
    use sqldb::{Database, EngineProfile};
    use std::sync::Arc;

    fn driver_with_edges(profile: EngineProfile) -> Arc<dyn Driver> {
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
        Arc::new(LocalDriver::new(db))
    }

    fn conn_with_edges(profile: EngineProfile) -> Box<dyn Connection> {
        driver_with_edges(profile).connect().unwrap()
    }

    fn iterative(sql: &str) -> IterativeCte {
        match parse(sql).unwrap() {
            SqloopQuery::Iterative(c) => c,
            other => panic!("expected iterative: {other:?}"),
        }
    }

    fn run_iterative_single(
        driver: &Arc<dyn Driver>,
        cte: &IterativeCte,
        max_iterations: u64,
        keep_artifacts: bool,
    ) -> SqloopResult<RunOutcome> {
        let config = SqloopConfig {
            mode: ExecutionMode::Single,
            max_iterations,
            keep_artifacts,
            ..SqloopConfig::default()
        };
        let trace = TraceHandle::disabled();
        run_iterative(driver, cte, None, &config, &trace)
            .0
            .map(|run| run.outcome)
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
        let c = driver_with_edges(EngineProfile::Postgres);
        let out = run_iterative_single(&c, &pr, 1000, false).unwrap();
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
        let c = driver_with_edges(EngineProfile::Postgres);
        let out = run_iterative_single(&c, &sssp, 1000, false).unwrap();
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
            let c = driver_with_edges(profile);
            let out = run_iterative_single(&c, &sssp, 1000, false)
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
        let c = driver_with_edges(EngineProfile::Postgres);
        let out = run_iterative_single(&c, &pr, 1000, false).unwrap();
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
        let c = driver_with_edges(EngineProfile::Postgres);
        let out = run_iterative_single(&c, &pr, 1000, false).unwrap();
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
        let c = driver_with_edges(EngineProfile::Postgres);
        let err = run_iterative_single(&c, &cte, 25, false);
        assert!(matches!(err, Err(SqloopError::Semantic(_))), "{err:?}");
    }
}
