//! Helpers shared by the scheduler's layouts: CTE table creation with type
//! inference, AST table-reference rewriting, and termination-condition
//! evaluation.

use crate::error::{SqloopError, SqloopResult};
use crate::grammar::{DataMode, Termination};
use crate::translate::{translate_query_to_sql, translate_sql};
use dbcp::{Connection, Driver, PipelineStep, PreparedStatement};
use obs::{EventKind, TraceHandle};
use sqldb::ast::{SelectItem, SelectStmt, SetExpr, TableFactor};
use sqldb::{DataType, DbError, EngineProfile, StmtOutput, Value};
use std::sync::Arc;

/// Quoted-name helpers for the scratch objects SQLoop manages.
#[derive(Debug, Clone)]
pub struct CteNames {
    /// The CTE (and result table / view) name.
    pub table: String,
}

impl CteNames {
    /// Builds the name set for a CTE.
    pub fn new(cte_name: &str) -> CteNames {
        CteNames {
            table: cte_name.to_owned(),
        }
    }

    /// The table the seed query is staged in while `R` is created.
    pub fn seed_stage(&self) -> String {
        format!("{}__seed", self.table)
    }

    /// The single-threaded executor's temporary result table (`Rtmp`).
    pub fn tmp(&self) -> String {
        format!("{}__tmp", self.table)
    }

    /// Semi-naive working table for recursion step `i % 2`.
    pub fn working(&self, parity: u64) -> String {
        format!("{}__w{}", self.table, parity % 2)
    }

    /// The previous-iteration snapshot for `DELTA` termination conditions.
    /// The paper lets the user reference it as `<R>delta`.
    pub fn delta_snapshot(&self) -> String {
        format!("{}delta", self.table)
    }

    /// Partition table `Rpt{i}`.
    pub fn partition(&self, i: usize) -> String {
        format!("{}__pt{}", self.table, i)
    }

    /// The materialized constant join (`Rmjoin`).
    pub fn mjoin(&self) -> String {
        format!("{}__mjoin", self.table)
    }

    /// Reusable message slot `k` owned by partition `p`. Slot names embed
    /// no per-round sequence number: the scheduler truncates and refills a
    /// bounded pool of slots, so every statement text is generation-stable
    /// and the engine's plan cache keeps hitting round after round.
    pub fn message_slot(&self, p: usize, k: usize) -> String {
        format!("{}__msgslot_{}_{}", self.table, p, k)
    }
}

/// Per-round plan-cache attribution: snapshots the hit/miss counters of
/// the run's own engine ([`Driver::plan_cache_stats`]) at each round
/// boundary and emits one [`EventKind::PlanCache`] trace event carrying the
/// round's deltas, tagged with the scheduler mode. This makes "where do the
/// parallel-mode cache misses come from" answerable round by round from the
/// trace, without guessing from end-of-run totals. A driver that cannot see
/// its engine's counters (a remote one) produces no events.
pub struct PlanCacheProbe {
    driver: Arc<dyn Driver>,
    last: Option<sqldb::PlanCacheStats>,
}

impl std::fmt::Debug for PlanCacheProbe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanCacheProbe")
            .field("last", &self.last)
            .finish_non_exhaustive()
    }
}

impl PlanCacheProbe {
    /// Starts a probe at the current counters of `driver`'s engine.
    pub fn new(driver: &Arc<dyn Driver>) -> PlanCacheProbe {
        PlanCacheProbe {
            driver: Arc::clone(driver),
            last: driver.plan_cache_stats(),
        }
    }

    /// Emits one [`EventKind::PlanCache`] event with the hit/miss delta
    /// since the previous tick, tagged with the scheduler `mode`. The
    /// baseline always advances, so enabling the trace mid-run starts
    /// from current values rather than replaying history.
    pub fn tick(&mut self, trace: &TraceHandle, round: u64, mode: &str) {
        let now = self.driver.plan_cache_stats();
        let (Some(last), Some(now)) = (std::mem::replace(&mut self.last, now), now) else {
            return;
        };
        if !trace.is_enabled() {
            return;
        }
        let (dh, dm) = (now.hits - last.hits, now.misses - last.misses);
        let pct = (dh * 100).checked_div(dh + dm).unwrap_or(100);
        trace.event(
            EventKind::PlanCache,
            None,
            Some(round),
            format!("mode={mode} hits={dh} misses={dm} hit_rate={pct}%"),
        );
    }
}

/// The inferred shape of the CTE table `R`.
#[derive(Debug, Clone)]
pub struct CteSchema {
    /// Column names (lower-cased); index 0 is the key column `Rid`.
    pub columns: Vec<String>,
    /// Column types.
    pub types: Vec<DataType>,
}

impl CteSchema {
    /// The key column name (`Rid`, paper §III-A).
    pub fn key(&self) -> &str {
        &self.columns[0]
    }

    /// Renders the `CREATE TABLE` column list body; `with_key` adds
    /// `PRIMARY KEY` on the first column (the iterative CTE's `Rid`).
    pub fn create_columns_sql(&self, with_key: bool) -> String {
        self.columns
            .iter()
            .zip(&self.types)
            .enumerate()
            .map(|(i, (c, t))| {
                if i == 0 && with_key {
                    format!("{c} {t} PRIMARY KEY")
                } else {
                    format!("{c} {t}")
                }
            })
            .collect::<Vec<_>>()
            .join(", ")
    }
}

/// Executes canonical SQL on `conn` after translating it for the engine.
///
/// # Errors
/// Translation or engine errors.
pub fn run(conn: &mut dyn Connection, canonical_sql: &str) -> SqloopResult<sqldb::StmtOutput> {
    let sql = translate_sql(canonical_sql, conn.profile())?;
    conn.execute(&sql).map_err(SqloopError::from)
}

/// Translated text one pipeline may carry before it is sent, so a call's
/// frame stays far below the wire's limit however large the load is.
const PIPELINE_BYTES: usize = 4 << 20;

/// Executes canonical statements in order as pipelines: one driver call
/// per 4 MiB of text (`PIPELINE_BYTES`) instead of one per statement. For
/// statements whose outputs nobody reads (DDL, loads).
///
/// # Errors
/// The first translation or engine error, as if the statements had been
/// executed one at a time: those before it ran, those after it did not.
pub fn run_all(
    conn: &mut dyn Connection,
    canonical: impl IntoIterator<Item = String>,
) -> SqloopResult<()> {
    pipelined(conn, canonical, false)
}

/// [`run_all`] for cleanup: a statement that fails is skipped and the
/// rest still run. Only a dead connection ends it early.
pub fn run_all_best_effort(conn: &mut dyn Connection, canonical: impl IntoIterator<Item = String>) {
    let _ = pipelined(conn, canonical, true);
}

fn pipelined(
    conn: &mut dyn Connection,
    canonical: impl IntoIterator<Item = String>,
    best_effort: bool,
) -> SqloopResult<()> {
    let profile = conn.profile();
    let mut steps = Vec::new();
    let mut bytes = 0usize;
    for sql in canonical {
        match translate_sql(&sql, profile) {
            Ok(sql) => {
                bytes += sql.len();
                steps.push(PipelineStep::Execute(sql.into()));
            }
            Err(_) if best_effort => continue,
            Err(e) => {
                // what a statement-at-a-time caller would have seen: the
                // statements before the bad one run (and may fail) first
                send_pipeline(conn, &steps, false)?;
                return Err(e);
            }
        }
        if bytes >= PIPELINE_BYTES {
            send_pipeline(conn, &steps, best_effort)?;
            steps.clear();
            bytes = 0;
        }
    }
    send_pipeline(conn, &steps, best_effort)
}

fn send_pipeline(
    conn: &mut dyn Connection,
    steps: &[PipelineStep],
    best_effort: bool,
) -> SqloopResult<()> {
    let mut rest = steps;
    while !rest.is_empty() {
        let outcome = conn.run_pipeline(rest)?;
        match outcome.error {
            None => break,
            Some(e) if !best_effort => return Err(e.into()),
            // a pipeline stops at its first failure: skip that step
            Some(_) => rest = rest.get(outcome.outputs.len() + 1..).unwrap_or(&[]),
        }
    }
    Ok(())
}

/// Queries with canonical SQL after translation.
///
/// # Errors
/// Translation or engine errors.
pub fn run_query(
    conn: &mut dyn Connection,
    canonical_sql: &str,
) -> SqloopResult<sqldb::QueryResult> {
    let sql = translate_sql(canonical_sql, conn.profile())?;
    conn.query(&sql).map_err(SqloopError::from)
}

/// Rows per prepared `INSERT` when rows leave the middleware: edge loads,
/// checkpoint restores and a non-INT key's partition fills.
pub const INSERT_CHUNK_ROWS: usize = 512;

/// Inserts `rows` into `table`'s `columns` as typed parameters: one
/// prepared `INSERT … VALUES (?, …), …` per chunk of `chunk_rows` rows, one
/// handle for the full chunks and one for the remainder, both closed at the
/// end. No row is rendered as SQL text, except on a transport that cannot
/// prepare, where the handle splices literals in the engine's dialect.
///
/// # Errors
/// The first translation or engine error; the chunks before it stay
/// inserted.
pub fn insert_rows<R: AsRef<[Value]>>(
    conn: &mut dyn Connection,
    table: &str,
    columns: &[impl AsRef<str>],
    rows: impl IntoIterator<Item = R>,
    chunk_rows: usize,
) -> SqloopResult<()> {
    let columns: Vec<&str> = columns.iter().map(AsRef::as_ref).collect();
    let tuple = format!("({})", vec!["?"; columns.len()].join(", "));
    // a placeholder reads `?` in every dialect: translate one row, append the rest
    let head = format!(
        "INSERT INTO {table} ({}) VALUES {tuple}",
        columns.join(", ")
    );
    let head = translate_sql(&head, conn.profile())?;
    let mut handles: Vec<(usize, PreparedStatement)> = Vec::with_capacity(2);
    let mut rows = rows.into_iter().peekable();
    let mut params = Vec::new();
    let mut result = Ok(());
    while result.is_ok() && rows.peek().is_some() {
        params.clear();
        let mut n = 0;
        for row in rows.by_ref().take(chunk_rows.max(1)) {
            params.extend_from_slice(row.as_ref());
            n += 1;
        }
        let at = handles
            .iter()
            .position(|(len, _)| *len == n)
            .unwrap_or_else(|| {
                let sql = head.clone() + &format!(", {tuple}").repeat(n - 1);
                handles.push((n, PreparedStatement::new(sql)));
                handles.len() - 1
            });
        result = handles[at].1.execute(conn, &params).map(drop);
    }
    let mut result = result.map_err(SqloopError::from);
    for (_, handle) in &mut handles {
        let closed = handle.close(conn).map_err(SqloopError::from);
        result = result.and(closed);
    }
    result
}

/// Creates the CTE table `R` and fills it from the seed query, which runs
/// once and entirely engine-side (paper §IV-B: `CREATE TABLE` then
/// `INSERT INTO R R0`). The seed is staged as `<R>__seed` under the
/// declared column names; `R` takes the declared names (the seed's when
/// none are declared) and each column's type from its first non-NULL
/// value among the stage's first 16 rows (FLOAT when there is none), is
/// filled from the stage, and the stage is dropped.
///
/// `promote_to_float` makes every non-key integer column FLOAT; iterative
/// CTEs use it because seeds like `SELECT src, 0, 0.15` type columns from
/// literals while later iterations store fractional values (the real
/// engines solve this with SQL-level type inference the paper relies on).
///
/// # Errors
/// Seed execution errors, or arity mismatch with the declared column list.
pub fn create_cte_table(
    conn: &mut dyn Connection,
    name: &str,
    declared_columns: &[String],
    seed: &SelectStmt,
    promote_to_float: bool,
    with_key: bool,
) -> SqloopResult<CteSchema> {
    let profile = conn.profile();
    let stage = CteNames::new(name).seed_stage();
    let seed_sql = translate_query_to_sql(&with_output_names(seed, declared_columns), profile);
    run(conn, &format!("DROP TABLE IF EXISTS {stage}"))?;
    conn.execute(&format!(
        "CREATE TABLE {} AS {seed_sql}",
        profile.dialect().quote(&stage)
    ))?;
    let created = fill_from_stage(
        conn,
        name,
        &stage,
        declared_columns,
        promote_to_float,
        with_key,
    );
    let dropped = run(conn, &format!("DROP TABLE IF EXISTS {stage}"));
    // the original error wins over a failed clean-up
    let schema = created?;
    dropped?;
    Ok(schema)
}

/// [`create_cte_table`] once the seed is staged in `stage`.
fn fill_from_stage(
    conn: &mut dyn Connection,
    name: &str,
    stage: &str,
    declared_columns: &[String],
    promote_to_float: bool,
    with_key: bool,
) -> SqloopResult<CteSchema> {
    let probe = run_query(conn, &format!("SELECT * FROM {stage} LIMIT 16"))?;
    if !declared_columns.is_empty() && declared_columns.len() != probe.columns.len() {
        return Err(SqloopError::Semantic(format!(
            "CTE declares {} columns but its seed returns {}",
            declared_columns.len(),
            probe.columns.len()
        )));
    }
    let mut types = vec![None::<DataType>; probe.columns.len()];
    for row in &probe.rows {
        for (t, v) in types.iter_mut().zip(row) {
            *t = t.or(v.data_type());
        }
    }
    let types: Vec<DataType> = types
        .into_iter()
        .enumerate()
        .map(|(i, t)| {
            let t = t.unwrap_or(DataType::Float);
            if promote_to_float && i > 0 && t == DataType::Int {
                DataType::Float
            } else {
                t
            }
        })
        .collect();
    let columns = match declared_columns.is_empty() {
        true => probe.columns,
        false => declared_columns.to_vec(),
    };
    let schema = CteSchema { columns, types };
    run_all(
        conn,
        [
            format!("DROP TABLE IF EXISTS {name}"),
            format!("DROP VIEW IF EXISTS {name}"),
            format!(
                "CREATE TABLE {name} ({})",
                schema.create_columns_sql(with_key)
            ),
            format!("INSERT INTO {name} SELECT * FROM {stage}"),
        ],
    )?;
    Ok(schema)
}

/// `seed` with its output columns named `names`, so that a seed selecting
/// one column twice can be staged, and a recursive step's rows can be
/// matched to `R`'s by name. A set operation takes its names from its
/// leftmost `SELECT`. The query is returned unchanged when `names` is
/// empty, when it has `ORDER BY` (which may name its own output columns),
/// or when the leftmost `SELECT` has a wildcard or another column count.
pub(crate) fn with_output_names(seed: &SelectStmt, names: &[String]) -> SelectStmt {
    let mut seed = seed.clone();
    let mut body = &mut seed.body;
    while let SetExpr::SetOp { left, .. } = body {
        body = left;
    }
    if let SetExpr::Select(s) = body {
        let plain = |p: &SelectItem| matches!(p, SelectItem::Expr { .. });
        if s.projections.len() == names.len()
            && s.projections.iter().all(plain)
            && seed.order_by.is_empty()
        {
            for (p, n) in s.projections.iter_mut().zip(names) {
                if let SelectItem::Expr { alias, .. } = p {
                    *alias = Some(n.clone());
                }
            }
        }
    }
    seed
}

/// Rewrites every reference to table `from` into `to` (preserving aliases),
/// implementing semi-naive evaluation's working-table substitution.
pub fn rewrite_table_refs(query: &SelectStmt, from: &str, to: &str) -> SelectStmt {
    let mut q = query.clone();
    rewrite_set_expr(&mut q.body, from, to);
    q
}

fn rewrite_set_expr(body: &mut SetExpr, from: &str, to: &str) {
    match body {
        SetExpr::Select(s) => {
            for tr in &mut s.from {
                rewrite_factor(&mut tr.base, from, to);
                for j in &mut tr.joins {
                    rewrite_factor(&mut j.factor, from, to);
                }
            }
        }
        SetExpr::Values(_) => {}
        SetExpr::SetOp { left, right, .. } => {
            rewrite_set_expr(left, from, to);
            rewrite_set_expr(right, from, to);
        }
    }
}

fn rewrite_factor(factor: &mut TableFactor, from: &str, to: &str) {
    match factor {
        TableFactor::Table { name, alias } => {
            if name == from {
                // keep the original name visible via an alias so column
                // qualifiers in the query still resolve
                if alias.is_none() {
                    *alias = Some(name.clone());
                }
                *name = to.to_owned();
            }
        }
        TableFactor::Derived { subquery, .. } => {
            rewrite_set_expr(&mut subquery.body, from, to);
        }
    }
}

/// Refreshes the `<R>delta` snapshot table from the live CTE table/view by
/// recreating it. Executors use this for the *initial* snapshot; the
/// per-round path is [`DeltaRefresher`], which rewrites in place so the
/// refresh runs no DDL.
///
/// # Errors
/// Engine errors.
pub fn refresh_delta_snapshot(conn: &mut dyn Connection, names: &CteNames) -> SqloopResult<()> {
    let snap = names.delta_snapshot();
    run(conn, &format!("DROP TABLE IF EXISTS {snap}"))?;
    run(
        conn,
        &format!("CREATE TABLE {snap} AS SELECT * FROM {}", names.table),
    )?;
    Ok(())
}

/// Per-round `<R>delta` refresh through prepared handles: `DELETE` +
/// `INSERT … SELECT` rewrite the snapshot in place, so the refresh runs no
/// DDL and every plan reading the snapshot (the user's `DELTA` termination
/// expression above all) stays in the engine's plan cache round after round.
#[derive(Debug)]
pub struct DeltaRefresher {
    table: String,
    snap: String,
    clear: PreparedStatement,
    fill: PreparedStatement,
}

impl DeltaRefresher {
    /// Builds (and prepares lazily) the refresh statements for `names`.
    ///
    /// # Errors
    /// Translation errors.
    pub fn new(names: &CteNames, profile: EngineProfile) -> SqloopResult<DeltaRefresher> {
        let snap = names.delta_snapshot();
        Ok(DeltaRefresher {
            clear: PreparedStatement::new(translate_sql(&format!("DELETE FROM {snap}"), profile)?),
            fill: PreparedStatement::new(translate_sql(
                &format!("INSERT INTO {snap} SELECT * FROM {}", names.table),
                profile,
            )?),
            table: names.table.clone(),
            snap,
        })
    }

    /// Rewrites the snapshot from the live CTE table/view. When the
    /// snapshot does not exist yet (fresh run before the first refresh),
    /// falls back to creating it.
    ///
    /// # Errors
    /// Engine errors.
    pub fn refresh(&mut self, conn: &mut dyn Connection) -> SqloopResult<()> {
        match self.clear.execute(conn, &[]) {
            Ok(_) => {
                self.fill.execute(conn, &[])?;
                Ok(())
            }
            Err(DbError::NotFound(_)) => {
                run(
                    conn,
                    &format!("CREATE TABLE {} AS SELECT * FROM {}", self.snap, self.table),
                )?;
                Ok(())
            }
            Err(e) => Err(e.into()),
        }
    }
}

/// The termination probe, prepared once at plan time: the user's data/delta
/// expression query (and the `COUNT(*)` companion that `ALL` mode needs)
/// become [`PreparedStatement`] handles executed every round instead of
/// being re-translated and re-parsed.
#[derive(Debug)]
pub struct TerminationProbe {
    tc: Termination,
    query: Option<PreparedStatement>,
    count: Option<PreparedStatement>,
}

impl TerminationProbe {
    /// Builds the probe for `tc` over the CTE table `cte_table`.
    ///
    /// # Errors
    /// Translation errors.
    pub fn new(
        cte_table: &str,
        tc: &Termination,
        profile: EngineProfile,
    ) -> SqloopResult<TerminationProbe> {
        let (query, count) = match tc {
            Termination::Data { query, mode } | Termination::Delta { query, mode } => {
                let q = PreparedStatement::new(translate_query_to_sql(query, profile));
                let c = match mode {
                    DataMode::All => Some(PreparedStatement::new(translate_sql(
                        &format!("SELECT COUNT(*) FROM {cte_table}"),
                        profile,
                    )?)),
                    _ => None,
                };
                (Some(q), c)
            }
            _ => (None, None),
        };
        Ok(TerminationProbe {
            tc: tc.clone(),
            query,
            count,
        })
    }

    /// Decides termination after one iteration.
    ///
    /// * `Iterations(n)` — satisfied once `iterations_done >= n`.
    /// * `Updates(n)` — satisfied once the last iteration updated ≤ n rows
    ///   (Example 3 of the paper uses `UNTIL 0 UPDATES` for "no more
    ///   updates").
    /// * data/delta forms — the user's expression query, run through the
    ///   prepared handles, per [`DataMode`].
    ///
    /// # Errors
    /// Engine errors from data/delta expression evaluation.
    pub fn satisfied(
        &mut self,
        conn: &mut dyn Connection,
        iterations_done: u64,
        last_updates: u64,
    ) -> SqloopResult<bool> {
        match &self.tc {
            Termination::Iterations(n) => Ok(iterations_done >= *n),
            Termination::Updates(n) => Ok(last_updates <= *n),
            Termination::Data { mode, .. } | Termination::Delta { mode, .. } => {
                let stmt = self
                    .query
                    .as_mut()
                    .expect("probe built with a data/delta query");
                let result = match stmt.execute(conn, &[])? {
                    StmtOutput::Rows(r) => r,
                    other => {
                        return Err(SqloopError::Semantic(format!(
                            "termination expression did not return rows: {other:?}"
                        )))
                    }
                };
                match mode {
                    DataMode::Any => Ok(!result.rows.is_empty()),
                    DataMode::All => {
                        let count = self.count.as_mut().expect("ALL mode prepares a count");
                        let total = match count.execute(conn, &[])? {
                            StmtOutput::Rows(r) => r.scalar().and_then(Value::as_i64).unwrap_or(0),
                            _ => 0,
                        };
                        Ok(result.rows.len() as i64 == total)
                    }
                    DataMode::Compare(cmp, threshold) => {
                        let scalar = result.scalar().ok_or_else(|| {
                            SqloopError::Semantic(
                                "termination expression with a comparison must return one value"
                                    .into(),
                            )
                        })?;
                        Ok(cmp.matches(scalar.total_cmp(threshold)))
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbcp::{Driver, LocalDriver};
    use sqldb::parser::parse_query;
    use sqldb::{Database, EngineProfile};

    fn conn() -> Box<dyn Connection> {
        let db = Database::new(EngineProfile::Postgres);
        let mut s = db.connect();
        s.execute("CREATE TABLE edges (src INT, dst INT, weight FLOAT)")
            .unwrap();
        s.execute("INSERT INTO edges VALUES (1,2,1.0),(2,3,0.5),(2,1,0.5)")
            .unwrap();
        LocalDriver::new(db).connect().unwrap()
    }

    #[test]
    fn names() {
        let n = CteNames::new("pr");
        assert_eq!(n.tmp(), "pr__tmp");
        assert_eq!(n.working(0), "pr__w0");
        assert_eq!(n.working(3), "pr__w1");
        assert_eq!(n.delta_snapshot(), "prdelta");
        assert_eq!(n.partition(7), "pr__pt7");
    }

    #[test]
    fn run_all_stops_at_a_failure_and_best_effort_steps_over_it() {
        let stmts = || {
            [
                "CREATE TABLE a (x INT)",
                "DROP TABLE missing",
                "this is not SQL",
                "CREATE TABLE b (x INT)",
            ]
            .map(String::from)
        };
        let count =
            |c: &mut dyn Connection, t: &str| c.query(&format!("SELECT COUNT(*) FROM {t}")).is_ok();
        let mut c = conn();
        let err = run_all(c.as_mut(), stmts()).unwrap_err();
        assert!(
            matches!(err, SqloopError::Db(DbError::NotFound(_))),
            "{err}"
        );
        assert!(count(c.as_mut(), "a") && !count(c.as_mut(), "b"));
        let mut c = conn();
        run_all_best_effort(c.as_mut(), stmts());
        assert!(count(c.as_mut(), "a") && count(c.as_mut(), "b"));
    }

    #[test]
    fn create_cte_table_infers_and_promotes() {
        let mut c = conn();
        let seed = parse_query(
            "SELECT src, 0, 0.15 FROM (SELECT src FROM edges UNION SELECT dst FROM edges) AS a GROUP BY src",
        )
        .unwrap();
        let cols = vec!["node".to_string(), "rank".to_string(), "delta".to_string()];
        let schema = create_cte_table(c.as_mut(), "pr", &cols, &seed, true, true).unwrap();
        assert_eq!(schema.columns, cols);
        assert_eq!(schema.types[0], DataType::Int);
        assert_eq!(schema.types[1], DataType::Float, "int literal promoted");
        let r = c.query("SELECT COUNT(*) FROM pr").unwrap();
        assert_eq!(r.rows[0][0], Value::Int(3));
        // fractional updates now succeed
        c.execute("UPDATE pr SET rank = 0.5 WHERE node = 1")
            .unwrap();
    }

    #[test]
    fn create_cte_table_evaluates_the_seed_once() {
        let db = Database::new(EngineProfile::Postgres);
        let mut s = db.connect();
        s.execute("CREATE TABLE edges (src INT, dst INT, weight FLOAT)")
            .unwrap();
        s.execute("INSERT INTO edges VALUES (1,2,1.0),(2,3,0.5),(2,1,0.5)")
            .unwrap();
        let mut c = LocalDriver::new(db.clone()).connect().unwrap();
        let seed = parse_query(
            "SELECT src, 0, 0.15 FROM (SELECT src FROM edges UNION SELECT dst FROM edges) AS a GROUP BY src",
        )
        .unwrap();
        let cols = vec!["node".to_string(), "rank".to_string(), "delta".to_string()];
        let reads_of_edges = || -> (u64, u64) {
            let digests = db.digest_stats();
            let edges = digests
                .iter()
                .filter(|d| d.digest.contains("from \"edges\""));
            let all = digests.iter().map(|d| d.calls).sum();
            (edges.map(|d| d.calls).sum(), all)
        };
        let (reads, statements) = reads_of_edges();
        create_cte_table(c.as_mut(), "pr", &cols, &seed, true, true).unwrap();
        let (reads_after, statements_after) = reads_of_edges();
        assert_eq!(reads_after - reads, 1, "{:#?}", db.digest_stats());
        assert_eq!(statements_after - statements, 8, "{:#?}", db.digest_stats());
        // the stage is gone, R holds the seed
        assert!(c.query("SELECT * FROM pr__seed").is_err());
        let r = c.query("SELECT node, rank FROM pr ORDER BY node").unwrap();
        assert_eq!(r.rows.len(), 3);
        assert_eq!(r.rows[2], vec![Value::Int(3), Value::Float(0.0)]);
    }

    #[test]
    fn create_cte_table_names_a_seed_that_repeats_a_column() {
        // `SELECT src, src` stages under the declared names: a table
        // cannot hold two columns called `src`
        let mut c = conn();
        let seed = parse_query("SELECT src, src, 1 FROM edges GROUP BY src").unwrap();
        let cols = vec!["node".to_string(), "comp".to_string(), "d".to_string()];
        let schema = create_cte_table(c.as_mut(), "cc", &cols, &seed, true, true).unwrap();
        assert_eq!(schema.columns, cols);
        assert_eq!(
            schema.types,
            vec![DataType::Int, DataType::Float, DataType::Float]
        );
        let r = c.query("SELECT node, comp FROM cc ORDER BY node").unwrap();
        assert_eq!(
            r.rows,
            vec![
                vec![Value::Int(1), Value::Float(1.0)],
                vec![Value::Int(2), Value::Float(2.0)],
            ]
        );
        assert!(c.query("SELECT * FROM cc__seed").is_err());
    }

    #[test]
    fn create_cte_table_arity_mismatch() {
        let mut c = conn();
        let seed = parse_query("SELECT src FROM edges").unwrap();
        let cols = vec!["a".to_string(), "b".to_string()];
        assert!(matches!(
            create_cte_table(c.as_mut(), "x", &cols, &seed, false, true),
            Err(SqloopError::Semantic(_))
        ));
        assert!(c.query("SELECT * FROM x__seed").is_err(), "stage dropped");
    }

    #[test]
    fn rewrite_table_refs_adds_alias() {
        let q = parse_query("SELECT fib.n FROM fib WHERE n < 10").unwrap();
        let r = rewrite_table_refs(&q, "fib", "fib__w0");
        let sql = translate_query_to_sql(&r, EngineProfile::Postgres);
        assert!(sql.contains("\"fib__w0\" AS \"fib\""), "{sql}");
        // aliased references untouched
        let q = parse_query("SELECT s.n FROM fib AS s").unwrap();
        let r = rewrite_table_refs(&q, "fib", "fib__w1");
        let sql = translate_query_to_sql(&r, EngineProfile::Postgres);
        assert!(sql.contains("\"fib__w1\" AS \"s\""), "{sql}");
    }

    #[test]
    fn rewrite_reaches_derived_tables() {
        let q = parse_query("SELECT x.a FROM (SELECT a FROM r) AS x").unwrap();
        let r = rewrite_table_refs(&q, "r", "r2");
        let sql = translate_query_to_sql(&r, EngineProfile::Postgres);
        assert!(sql.contains("\"r2\""), "{sql}");
    }

    #[test]
    fn delta_refresher_creates_then_rewrites_in_place() {
        let mut c = conn();
        c.execute("CREATE TABLE r (id INT PRIMARY KEY, v FLOAT)")
            .unwrap();
        c.execute("INSERT INTO r VALUES (1, 1.0)").unwrap();
        let names = CteNames::new("r");
        let mut refresher = DeltaRefresher::new(&names, c.profile()).unwrap();
        // first refresh creates the snapshot
        refresher.refresh(c.as_mut()).unwrap();
        let r = c.query("SELECT v FROM rdelta").unwrap();
        assert_eq!(r.rows[0][0], Value::Float(1.0));
        // later refreshes rewrite it without DDL
        c.execute("UPDATE r SET v = 2.0").unwrap();
        refresher.refresh(c.as_mut()).unwrap();
        let r = c.query("SELECT v FROM rdelta").unwrap();
        assert_eq!(r.rows[0][0], Value::Float(2.0));
    }

    #[test]
    fn termination_probe_decides_every_condition_form() {
        let mut c = conn();
        c.execute("CREATE TABLE r (id INT PRIMARY KEY, v FLOAT)")
            .unwrap();
        c.execute("INSERT INTO r VALUES (1, 1.0), (2, 5.0)")
            .unwrap();
        let q = parse_query("SELECT id FROM r WHERE v > 2").unwrap();
        let qc = parse_query("SELECT COUNT(*) FROM r WHERE v > 2").unwrap();
        let profile = c.profile();
        let compare = |cmp, n| DataMode::Compare(cmp, Value::Int(n));
        for (query, mode, expect) in [
            // one row satisfies, not all do
            (&q, DataMode::Any, true),
            (&q, DataMode::All, false),
            (&qc, compare(crate::grammar::TcCompare::Equal, 1), true),
            (&qc, compare(crate::grammar::TcCompare::Greater, 5), false),
        ] {
            let tc = Termination::Data {
                query: query.clone(),
                mode: mode.clone(),
            };
            let mut probe = TerminationProbe::new("r", &tc, profile).unwrap();
            // twice: the second call runs the already-prepared handles
            for _ in 0..2 {
                assert_eq!(
                    probe.satisfied(c.as_mut(), 1, 1).unwrap(),
                    expect,
                    "{mode:?}"
                );
            }
        }
        // ALL holds once every row satisfies
        let all = Termination::Data {
            query: parse_query("SELECT id FROM r WHERE v > 0").unwrap(),
            mode: DataMode::All,
        };
        let mut probe = TerminationProbe::new("r", &all, profile).unwrap();
        assert!(probe.satisfied(c.as_mut(), 1, 1).unwrap());
        // the metadata forms read only the counts
        for (tc, done, updates, expect) in [
            (Termination::Iterations(3), 3, 99, true),
            (Termination::Iterations(3), 2, 0, false),
            (Termination::Updates(0), 1, 0, true),
            (Termination::Updates(0), 1, 5, false),
            (Termination::Updates(10), 1, 7, true),
        ] {
            let mut probe = TerminationProbe::new("r", &tc, profile).unwrap();
            assert_eq!(
                probe.satisfied(c.as_mut(), done, updates).unwrap(),
                expect,
                "{tc:?} after {done} rounds, {updates} updates"
            );
        }
    }

    #[test]
    fn delta_snapshot_refresh() {
        let mut c = conn();
        c.execute("CREATE TABLE r (id INT PRIMARY KEY, v FLOAT)")
            .unwrap();
        c.execute("INSERT INTO r VALUES (1, 1.0)").unwrap();
        let names = CteNames::new("r");
        refresh_delta_snapshot(c.as_mut(), &names).unwrap();
        c.execute("UPDATE r SET v = 2.0").unwrap();
        let r = c
            .query("SELECT r.v, rdelta.v FROM r JOIN rdelta ON r.id = rdelta.id")
            .unwrap();
        assert_eq!(r.rows[0], vec![Value::Float(2.0), Value::Float(1.0)]);
        // refresh again replaces the snapshot
        refresh_delta_snapshot(c.as_mut(), &names).unwrap();
        let r = c.query("SELECT v FROM rdelta").unwrap();
        assert_eq!(r.rows[0][0], Value::Float(2.0));
    }
}
