//! Query and DML execution over materialized relations.

use crate::ast::*;
use crate::batch::{Col, ColBuilder, ColData, ColumnBatch, CompiledExpr, EvalOut, NO_LANE};
use crate::bind::{
    bind_scalar, bind_with_aggregates, eval_constant, AggSpec, BoundExpr, Scope, ScopeRelation,
};
use crate::catalog::{Catalog, TableHandle};
use crate::error::{DbError, DbResult};
use crate::explain::{base_table, factor_label, factor_visible_name, inner_access_label};
use crate::join::{
    choose_access, count, join_rels, table_scope, AccessPath, JoinEnv, JoinInner, Positions, Rel,
};
use crate::op_profile::{us_since, OpProfiler};
use crate::profile::EngineProfile;
use crate::reads::{FactorReads, Reads};
use crate::stats::Stats;
use crate::storage::Table;
use crate::txn::{apply_undo, UndoLog, UndoOp};
use crate::types::{Column, DataType, Schema};
use crate::value::{canonical_nan, int_key_hash, KeyHasher, KeyMap, Row, Value};
use std::borrow::Cow;
use std::hash::{Hash, Hasher};
use std::time::Instant;

#[cfg(test)]
mod reference;

/// Maximum view-expansion / derived-table nesting depth.
const MAX_DEPTH: usize = 32;

/// Fails once a statement's deadline has passed. The executor and the
/// joins check it per batch, so a runaway statement stops mid-scan instead
/// of after the fact.
///
/// # Errors
/// Returns [`DbError::Timeout`].
pub(crate) fn check_deadline(deadline: Option<Instant>) -> DbResult<()> {
    match deadline {
        Some(d) if Instant::now() > d => Err(DbError::Timeout(
            "statement exceeded its execution deadline".into(),
        )),
        _ => Ok(()),
    }
}

/// The rows and column names produced by a query.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QueryResult {
    /// Output column names.
    pub columns: Vec<String>,
    /// Output rows.
    pub rows: Vec<Row>,
}

impl QueryResult {
    /// The single value of a 1×1 result, if it is one.
    pub fn scalar(&self) -> Option<&Value> {
        if self.rows.len() == 1 && self.rows[0].len() == 1 {
            Some(&self.rows[0][0])
        } else {
            None
        }
    }
}

/// A query's output while it stays inside the engine: column batches,
/// turned into [`QueryResult`] rows only when they leave it.
#[derive(Debug)]
struct Batches {
    columns: Vec<String>,
    batches: Vec<ColumnBatch>,
    /// Trailing columns that only carry `ORDER BY` keys the `SELECT` list
    /// lacks ([`hidden_sort_columns`]), dropped after the sort.
    hidden: usize,
}

impl Batches {
    /// Rows that leave `ORDER BY` / `LIMIT` (or the test-only reference
    /// evaluator), back in batches of `batch_rows`.
    fn from_result(result: QueryResult, batch_rows: usize) -> Batches {
        Batches {
            batches: ColumnBatch::chunk_rows(result.rows, result.columns.len(), batch_rows),
            columns: result.columns,
            hidden: 0,
        }
    }

    fn len(&self) -> usize {
        self.batches.iter().map(ColumnBatch::len).sum()
    }

    fn into_result(self) -> QueryResult {
        let mut rows = Vec::with_capacity(self.len());
        self.batches
            .iter()
            .for_each(|b| b.append_rows_to(&mut rows));
        QueryResult {
            columns: self.columns,
            rows,
        }
    }
}

/// What a statement produced.
#[derive(Debug, Clone, PartialEq)]
pub enum StmtOutput {
    /// A result set (queries).
    Rows(QueryResult),
    /// A row count (DML).
    Affected(u64),
    /// Nothing (DDL, transaction control handled by the session).
    Done,
}

impl StmtOutput {
    /// Rows affected, `0` for non-DML.
    pub fn rows_affected(&self) -> u64 {
        match self {
            StmtOutput::Affected(n) => *n,
            _ => 0,
        }
    }
}

/// Statement/query executor bound to a catalog and engine profile.
#[derive(Debug, Clone, Copy)]
pub struct Executor<'a> {
    catalog: &'a Catalog,
    profile: EngineProfile,
    stats: &'a Stats,
    /// The statement's wall-clock deadline ([`DbError::Timeout`]).
    deadline: Option<Instant>,
    prof: Option<&'a OpProfiler>,
    /// Evaluates every `SELECT` on the row-at-a-time reference evaluator,
    /// the oracle the equivalence tests hold the batch pipeline to.
    #[cfg(test)]
    row_oracle: bool,
    /// Overrides [`EngineProfile::batch_size`] when set (testing/tuning).
    batch_size: Option<usize>,
    /// The values of the statement's `?` placeholders, in order.
    params: &'a [Value],
    /// The columns the statement reads of its `FROM` factors and DML
    /// target; without them every column is read.
    reads: Option<&'a Reads>,
}

impl<'a> Executor<'a> {
    /// Creates an executor with no statement deadline.
    pub fn new(catalog: &'a Catalog, profile: EngineProfile, stats: &'a Stats) -> Executor<'a> {
        Executor {
            catalog,
            profile,
            stats,
            deadline: None,
            prof: None,
            #[cfg(test)]
            row_oracle: false,
            batch_size: None,
            params: &[],
            reads: None,
        }
    }

    /// Reads only the columns `reads` says the statement reads.
    pub fn with_reads(mut self, reads: &'a Reads) -> Executor<'a> {
        self.reads = Some(reads);
        self
    }

    /// The read masks of the factors of `from` (none: read every column).
    fn reads_of(&self, from: &[TableRef]) -> &'a [Option<FactorReads>] {
        self.reads.map_or(&[], |r| r.list_of(from))
    }

    /// Binds the statement's `?` placeholders to `params`, in order.
    pub fn with_params(mut self, params: &'a [Value]) -> Executor<'a> {
        self.params = params;
        self
    }

    /// Sets (or clears) the statement's wall-clock deadline; past it the
    /// statement fails with [`DbError::Timeout`].
    pub fn with_deadline(mut self, deadline: Option<Instant>) -> Executor<'a> {
        self.deadline = deadline;
        self
    }

    /// Overrides the profile's rows-per-batch for the batch pipeline
    /// (`None` restores the profile default). Results must be identical at
    /// every batch size — the equivalence suite runs sizes 1/3/default/4096.
    pub fn with_batch_size(mut self, rows: Option<usize>) -> Executor<'a> {
        self.batch_size = rows;
        self
    }

    /// Effective rows-per-batch: the override when set, else the profile's.
    fn batch_rows(&self) -> usize {
        self.batch_size
            .unwrap_or_else(|| self.profile.batch_size())
            .max(1)
    }

    /// Attaches a runtime operator profiler; every execution phase then
    /// records rows-out / input-calls / elapsed into it. The cost when no
    /// profiler is attached is one branch per phase.
    pub fn with_profiler(mut self, prof: &'a OpProfiler) -> Executor<'a> {
        self.prof = Some(prof);
        self
    }

    /// Starts a phase timer only when a profiler is attached.
    fn prof_start(&self) -> Option<Instant> {
        self.prof.map(|_| Instant::now())
    }

    /// Records an operator over `children` inputs, timed from `t0`, into
    /// the profiler when one is attached (only then is `label` built).
    fn prof_wrap(
        &self,
        t0: Option<Instant>,
        children: usize,
        label: impl FnOnce() -> String,
        rows: u64,
        rows_in: u64,
        batches: u64,
    ) {
        if let Some(p) = self.prof {
            let us = t0.map_or(0, us_since);
            p.wrap_batched(children, label(), rows, rows_in, us, batches);
        }
    }

    fn check_deadline(&self) -> DbResult<()> {
        check_deadline(self.deadline)
    }

    /// What this statement's joins run under.
    fn join_env(&self) -> JoinEnv<'a> {
        JoinEnv {
            strategy: self.profile.join_strategy(),
            stats: self.stats,
            batch_rows: self.batch_rows(),
            deadline: self.deadline,
            budget: self.catalog.memory_budget(),
            params: self.params,
        }
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// Runs `q` with its rows left in column batches: a view, a derived
    /// table, or the source of an `INSERT … SELECT` / `CREATE TABLE … AS`.
    /// Only a query with `ORDER BY` or `LIMIT` passes through rows.
    fn query_batches(&self, q: &SelectStmt, depth: usize) -> DbResult<Batches> {
        if !q.order_by.is_empty() || q.limit.is_some() {
            let result = self.run_query_depth(q, depth)?;
            return Ok(Batches::from_result(result, self.batch_rows()));
        }
        check_depth(depth)?;
        self.check_deadline()?;
        self.exec_set_expr(&q.body, depth)
    }

    /// Runs a query to completion.
    ///
    /// # Errors
    /// Returns binder/eval errors from any part of the query.
    pub fn run_query(&self, q: &SelectStmt) -> DbResult<QueryResult> {
        self.run_query_depth(q, 0)
    }

    /// `EXPLAIN ANALYZE`: runs `stmt` — a query, `UPDATE`, `DELETE` or
    /// `INSERT … SELECT` — with operator profiling attached, takes back
    /// whatever it changed, and renders the tree with per-operator actuals.
    fn analyze(&self, stmt: &Statement, undo: &mut UndoLog) -> DbResult<Vec<String>> {
        let prof = OpProfiler::new();
        let sub = Executor {
            prof: Some(&prof),
            ..*self
        };
        let mark = undo.len();
        let start = Instant::now();
        let result = sub.run_statement(stmt, undo);
        let total_us = us_since(start);
        // the statement was measured, not meant: whatever it changed (even
        // on its way to an error) is undone before anything is reported
        apply_undo(self.catalog, undo.split_off(mark))?;
        let rows = match result? {
            StmtOutput::Rows(r) => r.rows.len() as u64,
            done => done.rows_affected(),
        };
        let mut lines = Vec::new();
        for root in prof.take() {
            root.render(0, &mut lines);
        }
        lines.push(format!("Execution: rows={rows} time_us={total_us}"));
        Ok(lines)
    }

    fn run_query_depth(&self, q: &SelectStmt, depth: usize) -> DbResult<QueryResult> {
        check_depth(depth)?;
        self.check_deadline()?;
        let out = match &q.body {
            SetExpr::Select(s) if !s.distinct => self.select_batches(s, depth, &q.order_by)?,
            body => self.exec_set_expr(body, depth)?,
        };
        let visible = out.columns.len() - out.hidden;
        let mut result = out.into_result();
        if !q.order_by.is_empty() {
            let t0 = self.prof_start();
            let rows_in = result.rows.len() as u64;
            self.apply_order_by(&mut result, &q.order_by)?;
            let label = || format!("Sort ({} keys)", q.order_by.len());
            self.prof_wrap(t0, 1, label, result.rows.len() as u64, rows_in, 0);
        }
        if visible < result.columns.len() {
            result.columns.truncate(visible);
            result.rows.iter_mut().for_each(|r| r.truncate(visible));
        }
        if let Some(n) = q.limit {
            let rows_in = result.rows.len() as u64;
            result.rows.truncate(n as usize);
            let rows = result.rows.len() as u64;
            self.prof_wrap(None, 1, || format!("Limit {n}"), rows, rows_in, 0);
        }
        Ok(result)
    }

    fn exec_set_expr(&self, body: &SetExpr, depth: usize) -> DbResult<Batches> {
        match body {
            SetExpr::Select(s) => self.exec_select(s, depth),
            SetExpr::Values(rows) => {
                let t0 = self.prof_start();
                let mut out = Vec::with_capacity(rows.len());
                let mut arity = None;
                for row_exprs in rows {
                    if *arity.get_or_insert(row_exprs.len()) != row_exprs.len() {
                        return Err(DbError::Invalid("VALUES rows differ in arity".into()));
                    }
                    let row = row_exprs.iter().map(|e| eval_constant(e, self.params));
                    out.push(row.collect::<DbResult<Row>>()?);
                }
                let n = arity.unwrap_or(0);
                if let Some(p) = self.prof {
                    p.leaf(
                        format!("Values ({} rows)", rows.len()),
                        out.len() as u64,
                        t0.map(us_since).unwrap_or(0),
                    );
                }
                let result = QueryResult {
                    columns: (1..=n).map(|i| format!("column{i}")).collect(),
                    rows: out,
                };
                Ok(Batches::from_result(result, self.batch_rows()))
            }
            SetExpr::SetOp { op, left, right } => {
                let t0 = self.prof_start();
                let mut out = self.exec_set_expr(left, depth)?;
                let r = self.exec_set_expr(right, depth)?;
                if out.columns.len() != r.columns.len() {
                    return Err(DbError::Invalid(
                        "UNION inputs differ in column count".into(),
                    ));
                }
                let rows_in = (out.len() + r.len()) as u64;
                out.batches.extend(r.batches);
                if *op == SetOperator::Union {
                    out.batches = distinct(out.batches, out.columns.len());
                }
                let label = || match op {
                    SetOperator::Union => "Union (deduplicating)".to_string(),
                    SetOperator::UnionAll => "Union All".to_string(),
                };
                self.prof_wrap(t0, 2, label, out.len() as u64, rows_in, 0);
                Ok(out)
            }
        }
    }

    fn exec_select(&self, s: &Select, depth: usize) -> DbResult<Batches> {
        let mut out = self.select_batches(s, depth, &[])?;
        if s.distinct {
            let t0 = self.prof_start();
            let rows_in = out.len() as u64;
            out.batches = distinct(out.batches, out.columns.len());
            self.prof_wrap(t0, 1, || "Distinct".into(), out.len() as u64, rows_in, 0);
        }
        Ok(out)
    }

    /// FROM: column batches, charged to the memory budget as they are
    /// produced and refunded when the statement's intermediate state dies;
    /// with the `WHERE` conjunct a single table's index seek applied.
    fn select_from<'s>(&self, s: &'s Select, depth: usize) -> DbResult<(Rel, Option<&'s Expr>)> {
        match s.from.as_slice() {
            [] => {
                if let Some(p) = self.prof {
                    p.leaf("Result (no tables)".to_string(), 1, 0);
                }
                let unit = ColumnBatch::from_cols(Vec::new(), 1);
                let budget = self.catalog.memory_budget();
                let rel = Rel::new(Scope::new(), vec![unit], (1, budget))?;
                Ok((rel, None))
            }
            [tr] if tr.joins.is_empty() => {
                let reads = self.reads_of(&s.from);
                self.build_factor(&tr.base, depth, &pushdown_conjuncts(s, tr), false, reads)
            }
            from => {
                let reads = self.reads_of(from);
                let rel = self.build_from(from, depth, |tr| pushdown_conjuncts(s, tr), reads)?;
                Ok((rel, None))
            }
        }
    }

    /// A `SELECT` (without its `DISTINCT`) on the batch pipeline, with the
    /// columns the sort keys `order_by` read that its list lacks as hidden
    /// trailing columns.
    fn select_batches(
        &self,
        s: &Select,
        depth: usize,
        order_by: &[OrderByExpr],
    ) -> DbResult<Batches> {
        #[cfg(test)]
        if self.row_oracle {
            return self.select_rows(s, depth, order_by);
        }
        let (rel, applied) = self.select_from(s, depth)?;
        let filter = residual(s.selection.as_ref(), applied);
        self.exec_pipeline_batched(s, order_by, filter.as_deref(), rel)
    }

    /// Runs `filter` (what is left of the WHERE) → aggregation/projection
    /// over the rows of `rel`, each reading the columns it needs a batch at
    /// a time. The deadline is checked once per batch, and each operator
    /// records batch actuals into the profiler and the database's
    /// `sqloop.exec.*` metrics.
    fn exec_pipeline_batched(
        &self,
        s: &Select,
        order_by: &[OrderByExpr],
        filter: Option<&Expr>,
        mut rel: Rel,
    ) -> DbResult<Batches> {
        let input_batches = rel.batches().len() as u64;
        let input_rows = rel.len() as u64;

        if let Some(pred) = filter {
            let t0 = self.prof_start();
            let filter = self.compile(&bind_scalar(pred, &rel.scope, self.params)?);
            rel = self.filter(rel, std::slice::from_ref(&filter), false)?;
            let (rows, nb) = (rel.len() as u64, input_batches);
            self.prof_wrap(t0, 1, || "Filter".into(), rows, input_rows, nb);
        }

        let result = if is_grouped(s) {
            let t0 = self.prof_start();
            let (rows_in, nb) = (rel.len() as u64, rel.batches().len() as u64);
            let out = self.exec_aggregate_batched(s, order_by, &rel)?;
            let label = || format!("HashAggregate (group by {} keys)", s.group_by.len());
            self.prof_wrap(t0, 1, label, out.len() as u64, rows_in, nb);
            out
        } else {
            self.exec_project_batched(s, order_by, &rel)?
        };

        self.stats.note_exec_batches(input_batches, input_rows);
        Ok(result)
    }

    /// Vectorized projection: every projection expression is compiled once
    /// and evaluated per batch; a list of plain columns moves their lanes
    /// instead. A kernel error reruns that batch a row at a time through the
    /// scalar evaluator (which is authoritative), so the first error is the
    /// one row order reaches.
    fn exec_project_batched(
        &self,
        s: &Select,
        order_by: &[OrderByExpr],
        rel: &Rel,
    ) -> DbResult<Batches> {
        let (columns, exprs, hidden) = bind_projections(s, order_by, &rel.scope, self.params)?;
        let reads = BoundExpr::reads(&exprs, rel.arity());
        let column = |e: &BoundExpr| {
            if let BoundExpr::Column(i) = e {
                Some(*i)
            } else {
                None
            }
        };
        let plain: Option<Vec<usize>> = exprs.iter().map(column).collect();
        let compiled: Vec<CompiledExpr> = match plain {
            Some(_) => Vec::new(),
            None => exprs.iter().map(|e| self.compile(e)).collect(),
        };
        let mut out = Vec::with_capacity(rel.batches().len());
        for pos in rel.batches() {
            self.check_deadline()?;
            let b = rel.gather(pos, &reads);
            let outs: DbResult<Vec<EvalOut>> = compiled.iter().map(|c| c.try_eval(&b)).collect();
            let projected = match (&plain, outs) {
                (Some(picks), _) => pick_columns(b, picks),
                (None, Ok(outs)) => {
                    let cols = outs.into_iter().map(|o| o.into_col(&b)).collect();
                    ColumnBatch::from_cols(cols, b.len())
                }
                (None, Err(_)) => {
                    let mut rows = Vec::with_capacity(b.len());
                    for lane in 0..b.len() {
                        let row = b.row_at(lane);
                        let mut out = Vec::with_capacity(compiled.len());
                        for c in &compiled {
                            out.push(c.expr().eval(&row)?);
                        }
                        rows.push(out);
                    }
                    ColumnBatch::from_rows(rows, compiled.len())
                }
            };
            out.push(projected);
        }
        Ok(Batches {
            columns,
            batches: out,
            hidden,
        })
    }

    /// Vectorized grouping: key and aggregate-argument expressions are
    /// compiled once and evaluated per batch, over the columns they read; a
    /// kernel error reruns the batch's keys and arguments row-wise, so the
    /// first error is the one row order reaches. Each batch's lanes are
    /// mapped to groups through one index chosen from the key's span over
    /// the whole input ([`GroupIndex`]), opening groups in the order their
    /// rows arrive, and each aggregate folds the batch into its
    /// accumulators ([`AggCol::update`]). Each group is represented by the
    /// row it first appeared in, whose columns the projections read are
    /// gathered once all groups are known, and the groups leave as one
    /// batch ([`GroupedSelect::finish_batch`]).
    fn exec_aggregate_batched(
        &self,
        s: &Select,
        order_by: &[OrderByExpr],
        rel: &Rel,
    ) -> DbResult<Batches> {
        let grouped = GroupedSelect::bind(s, order_by, &rel.scope, self.params)?;
        let (key_exprs, aggs) = (&grouped.key_exprs, &grouped.aggs);
        // the keys, then the aggregates' arguments
        let args = aggs.iter().filter_map(|a| a.arg.as_ref());
        let exprs: Vec<&BoundExpr> = key_exprs.iter().chain(args).collect();
        let compiled: Vec<CompiledExpr> = exprs.iter().map(|e| self.compile(e)).collect();
        let arity = rel.arity();
        let reads = BoundExpr::reads(exprs.iter().copied(), arity);
        let keys = &compiled[..key_exprs.len()];
        let mut index = GroupIndex::new(keys, rel);
        let mut groups = Groups::default();
        let mut accs: Vec<AggCol> = aggs.iter().map(|a| AggCol::new(a.func)).collect();
        let mut gids = Vec::new();
        let batches = rel.batches().iter().enumerate();
        for (bi, pos) in batches.filter(|(_, b)| b.len() > 0) {
            self.check_deadline()?;
            let b = &rel.gather(pos, &reads);
            let outs: Vec<DbResult<EvalOut>> = compiled.iter().map(|c| c.try_eval(b)).collect();
            let mut rows = Vec::new();
            if outs.iter().any(Result::is_err) {
                // raises the row path's first error; else the failed
                // kernels' lanes come from these rows, and the rest keep
                // their kernels' layout, which chose the index
                let row = |lane| {
                    let row = b.row_at(lane);
                    exprs.iter().map(|e| e.eval(&row)).collect()
                };
                rows = (0..b.len())
                    .map(row)
                    .collect::<DbResult<Vec<Vec<Value>>>>()?;
            }
            let col = |(i, out): (usize, DbResult<EvalOut>)| match out {
                Ok(out) => out.into_cow(b),
                Err(_) => Cow::Owned(Col::from_values(
                    rows.iter().map(|r| r[i].clone()).collect(),
                )),
            };
            let cols: Vec<Cow<Col>> = outs.into_iter().enumerate().map(col).collect();
            let (keys, mut args) = (&cols[..key_exprs.len()], cols[key_exprs.len()..].iter());
            index.assign(&mut groups, bi, keys, b.len(), &mut gids);
            for (acc, spec) in accs.iter_mut().zip(aggs) {
                let arg = spec.arg.as_ref().and_then(|_| args.next());
                acc.resize(groups.len());
                acc.update(&gids, arg.map(|c| &**c));
            }
        }
        // a global aggregate over no rows still yields its one group
        let n = groups.len().max(usize::from(key_exprs.is_empty()));
        // the columns the projections and HAVING read of a group's first row
        let read = BoundExpr::reads(grouped.proj_exprs.iter().chain(&grouped.having), arity);
        let mut cols = match n == groups.len() {
            true => rel.gather(&groups.positions(rel), &read).into_cols(),
            false => read
                .iter()
                .map(|&r| if r { Col::nulls(n) } else { Col::unread() })
                .collect(),
        };
        cols.extend(accs.into_iter().map(|mut acc| {
            acc.resize(n);
            acc.finish()
        }));
        grouped.finish_batch(ColumnBatch::from_cols(cols, n), self.stats)
    }

    fn apply_order_by(&self, result: &mut QueryResult, order_by: &[OrderByExpr]) -> DbResult<()> {
        let scope = Scope::output(result.columns.clone());
        let mut keys: Vec<(BoundExpr, bool)> = Vec::with_capacity(order_by.len());
        for o in order_by {
            // ordinal form: ORDER BY 1
            let bound = match &o.expr {
                Expr::Literal(Value::Int(n))
                    if *n >= 1 && (*n as usize) <= result.columns.len() =>
                {
                    BoundExpr::Column(*n as usize - 1)
                }
                e => bind_scalar(e, &scope, self.params)?,
            };
            keys.push((bound, o.asc));
        }
        // precompute sort keys to keep comparator infallible
        let mut decorated: Vec<(Vec<Value>, Row)> = Vec::with_capacity(result.rows.len());
        for row in result.rows.drain(..) {
            let mut kv = Vec::with_capacity(keys.len());
            for (e, _) in &keys {
                kv.push(e.eval(&row)?);
            }
            decorated.push((kv, row));
        }
        decorated.sort_by(|(a, _), (b, _)| {
            for (i, (_, asc)) in keys.iter().enumerate() {
                let ord = a[i].total_cmp(&b[i]);
                let ord = if *asc { ord } else { ord.reverse() };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        result.rows = decorated.into_iter().map(|(_, r)| r).collect();
        Ok(())
    }

    fn compile(&self, e: &BoundExpr) -> CompiledExpr {
        CompiledExpr::compile(e, self.stats)
    }

    /// Counts one read of a base table: the rows it visited and, for a
    /// seek, the index lookup.
    fn count_access(&self, access: &AccessPath, visited: u64) {
        self.stats.add_rows_scanned(visited);
        if matches!(access, AccessPath::Seek { .. }) {
            self.stats.add_index_lookups(1);
        }
    }

    /// Builds a non-empty `FROM` list, whose factors' read masks are
    /// `reads`: each item through [`Self::build_table_ref`], thinned by the
    /// conjuncts `prefilter` names for it, then crossed with the items
    /// before it (comma syntax).
    fn build_from<'e>(
        &self,
        from: &[TableRef],
        depth: usize,
        prefilter: impl Fn(&TableRef) -> Vec<&'e Expr>,
        reads: &[Option<FactorReads>],
    ) -> DbResult<Rel> {
        // a statement over one table runs its whole WHERE in the Filter
        // right above the scan; only below a join is a conjunct pushed down
        let joined = from.len() > 1 || !from[0].joins.is_empty();
        let mut rel: Option<Rel> = None;
        let mut at = 0;
        for tr in from {
            let item = reads.get(at..at + 1 + tr.joins.len()).unwrap_or(&[]);
            at += 1 + tr.joins.len();
            let right = self.build_table_ref(tr, depth, &prefilter(tr), joined, item)?;
            rel = Some(match rel {
                None => right,
                Some(left) => {
                    let relations = left.scope.relations().iter().chain(right.scope.relations());
                    let cols = read_count(&reads[..at.min(reads.len())], relations);
                    let right = JoinInner::Rows(right);
                    self.join_step(left, right, JoinType::Cross, None, &tr.base, (cols, 0))?
                }
            });
        }
        Ok(rel.expect("callers pass a non-empty FROM list"))
    }

    /// Builds one `FROM` item, whose factors' read masks are `reads`: its
    /// base factor, then its joins left to right. `prefilter` (see
    /// [`pushdown_conjuncts`]) decides how the base is read and, below a
    /// join (`joined`), thins it first.
    fn build_table_ref(
        &self,
        tr: &TableRef,
        depth: usize,
        prefilter: &[&Expr],
        joined: bool,
        reads: &[Option<FactorReads>],
    ) -> DbResult<Rel> {
        let base = reads.get(..1).unwrap_or_default();
        let (mut rel, _) = self.build_factor(&tr.base, depth, prefilter, joined, base)?;
        for (step, j) in (1usize..).zip(&tr.joins) {
            // a plain base table goes to the join unscanned: whether its
            // rows are needed at all depends on the algorithm, and that is
            // chosen from the outer side's actual size
            let right = match base_table(self.catalog, &j.factor)? {
                Some(handle) => JoinInner::table(handle, factor_visible_name(&j.factor)),
                None => JoinInner::Rows(self.build_factor(&j.factor, depth, &[], true, &[])?.0),
            };
            let relations = rel
                .scope
                .relations()
                .iter()
                .chain(right.scope().relations());
            let cols = read_count(reads.get(..=step).unwrap_or_default(), relations);
            let inner = reads.get(step..).unwrap_or_default();
            let inner_cols = read_count(inner, right.scope().relations().iter());
            let labels = (cols, inner_cols);
            rel = self.join_step(rel, right, j.join_type, j.on.as_ref(), &j.factor, labels)?;
        }
        Ok(rel)
    }

    /// Joins `right` (the `FROM` factor `factor`) onto `rel` (see
    /// [`join_rels`]), recording the join — and how an unscanned inner
    /// table was read — in the profile, with how many columns of the output
    /// and of the inner table the statement reads (`cols`).
    fn join_step(
        &self,
        rel: Rel,
        right: JoinInner,
        join_type: JoinType,
        on: Option<&Expr>,
        factor: &TableFactor,
        cols: (usize, usize),
    ) -> DbResult<Rel> {
        let t0 = self.prof_start();
        let mut rows_in = rel.len() as u64;
        let inner_arity = right.scope().arity();
        if let JoinInner::Rows(r) = &right {
            rows_in += r.len() as u64;
        }
        let env = self.join_env();
        let joined = join_rels(rel, right, join_type, on, &env)?;
        if let Some(p) = self.prof {
            if let Some(rows) = joined.inner_read {
                p.leaf(inner_access_label(&joined.algo, factor), rows, 0);
                p.note_cols(cols.1, inner_arity);
                rows_in += rows;
            }
            p.wrap_batched(
                2,
                joined.algo.describe(join_type),
                joined.rel.len() as u64,
                rows_in,
                t0.map(us_since).unwrap_or(0),
                joined.batches,
            );
            p.note_cols(cols.0, joined.rel.arity());
        }
        Ok(joined.rel)
    }

    /// The rows of `rel` every conjunct of `conjuncts` holds for: each
    /// batch gathers the columns they read, and the rows it keeps stay
    /// positions. The first error is the statement's; under a join
    /// (`pushed_down`) a row a conjunct fails to evaluate on is kept
    /// instead, so the statement's WHERE raises the error if it survives.
    fn filter(&self, rel: Rel, conjuncts: &[CompiledExpr], pushed_down: bool) -> DbResult<Rel> {
        let reads = BoundExpr::reads(conjuncts.iter().map(CompiledExpr::expr), rel.arity());
        rel.retain(|rel, pos| {
            self.check_deadline()?;
            let b = rel.gather(pos, &reads);
            let mut kept = vec![true; b.len()];
            for c in conjuncts {
                let out = match c.try_eval(&b) {
                    Ok(out) => out,
                    Err(_) if !pushed_down => c.eval_batch(&b)?,
                    Err(_) => {
                        for (lane, k) in kept.iter_mut().enumerate().filter(|(_, k)| **k) {
                            let row = b.row_at(lane);
                            *k = c.expr().eval(&row).map_or(true, |v| v.is_truthy());
                        }
                        continue;
                    }
                };
                let truthy = out.truthy_mask(&b);
                kept.iter_mut().zip(truthy).for_each(|(k, t)| *k &= t);
            }
            Ok(kept)
        })
    }

    /// The rows of a view or subquery as the relation `alias`.
    fn rel_from_batches(&self, out: Batches, alias: String) -> DbResult<Rel> {
        let mut scope = Scope::new();
        scope.push(ScopeRelation {
            qualifier: alias,
            columns: out.columns,
        });
        let budget = self.catalog.memory_budget();
        Rel::new(scope, out.batches, (self.batch_rows(), budget))
    }

    /// Reads one `FROM` factor. A base table is read through the access
    /// path `prefilter` allows ([`choose_access`]), in the columns its
    /// `reads` mark; below a join (`joined`) the conjuncts it did not apply
    /// then thin it. Alone, the factor also returns the conjunct its seek
    /// applied, which the statement's `WHERE` then skips.
    fn build_factor<'e>(
        &self,
        f: &TableFactor,
        depth: usize,
        prefilter: &[&'e Expr],
        joined: bool,
        reads: &[Option<FactorReads>],
    ) -> DbResult<(Rel, Option<&'e Expr>)> {
        match f {
            TableFactor::Table { name, .. } => {
                if let Some(view) = self.catalog.view(name) {
                    let t0 = self.prof_start();
                    let out = self.query_batches(&view, depth + 1)?;
                    let rows = out.len() as u64;
                    self.prof_wrap(t0, 1, || format!("View {}", factor_label(f)), rows, rows, 0);
                    let rel = self.rel_from_batches(out, factor_visible_name(f).to_owned())?;
                    return Ok((rel, None));
                }
                let t0 = self.prof_start();
                let handle = self.catalog.table(name)?;
                let visible = factor_visible_name(f);
                let scope = table_scope(&handle, visible);
                let cols = read_count(reads, scope.relations().iter());
                let access = choose_access(&handle.read(), visible, prefilter, self.params);
                let applied = access.applied(prefilter);
                // conjuncts that do not bind against this table alone are
                // left to the statement's WHERE, which reports the error
                let bound: Vec<CompiledExpr> = prefilter
                    .iter()
                    .filter(|c| joined && !applied.is_some_and(|a| std::ptr::eq(a, **c)))
                    .filter_map(|e| bind_scalar(e, &scope, self.params).ok())
                    .map(|e| self.compile(&e))
                    .collect();
                let budget = self.catalog.memory_budget();
                let rel = Rel::scan(scope, handle, &access, (self.batch_rows(), budget))?;
                self.count_access(&access, rel.len() as u64);
                let rel = match bound.is_empty() {
                    true => rel,
                    false => self.filter(rel, &bound, true)?,
                };
                if let Some(p) = self.prof {
                    // as the only table of its statement the scan heads the
                    // batched pipeline and reports its batches
                    let batches = if joined { 0 } else { rel.batches().len() };
                    p.leaf_batched(
                        access.describe(&factor_label(f), !bound.is_empty()),
                        rel.len() as u64,
                        t0.map(us_since).unwrap_or(0),
                        batches as u64,
                    );
                    p.note_cols(cols, rel.arity());
                }
                Ok((rel, applied.filter(|_| !joined)))
            }
            TableFactor::Derived { subquery, alias } => {
                let t0 = self.prof_start();
                let out = self.query_batches(subquery, depth + 1)?;
                let rows = out.len() as u64;
                self.prof_wrap(t0, 1, || format!("Subquery AS {alias}"), rows, rows, 0);
                Ok((self.rel_from_batches(out, alias.clone())?, None))
            }
        }
    }

    // ------------------------------------------------------------------
    // DML / DDL
    // ------------------------------------------------------------------

    /// Executes a non-transaction-control statement.
    ///
    /// Data changes append to `undo`; the caller owns statement- and
    /// transaction-level rollback.
    ///
    /// # Errors
    /// Returns parse-free execution errors; on error the caller must roll
    /// back `undo` past its pre-statement mark.
    pub fn run_statement(&self, stmt: &Statement, undo: &mut UndoLog) -> DbResult<StmtOutput> {
        match stmt {
            Statement::Select(q) => Ok(StmtOutput::Rows(self.run_query(q)?)),
            Statement::Explain { analyze, stmt } => {
                let lines = match (analyze, stmt.as_ref()) {
                    (
                        true,
                        run @ (Statement::Select(_)
                        | Statement::Update(_)
                        | Statement::Delete { .. }
                        | Statement::Insert(Insert {
                            source: InsertSource::Select(_),
                            ..
                        })),
                    ) => self.analyze(run, undo)?,
                    (_, inner) => {
                        let (catalog, profile) = (self.catalog, self.profile);
                        crate::explain::explain_statement(catalog, profile, inner, self.params)?
                    }
                };
                Ok(StmtOutput::Rows(QueryResult {
                    columns: vec!["plan".into()],
                    rows: lines.into_iter().map(|l| vec![Value::Text(l)]).collect(),
                }))
            }
            Statement::Insert(ins) => self.exec_insert(ins, undo),
            Statement::Update(upd) => self.exec_update(upd, undo),
            Statement::Delete { table, selection } => self.exec_delete(table, selection, undo),
            Statement::Truncate { name } => self.exec_truncate(name, undo),
            Statement::CreateTable(ct) => self.exec_create_table(ct, undo),
            Statement::CreateIndex(ci) => self.exec_create_index(ci),
            Statement::CreateView(cv) => {
                // a stored query outlives the values of one execution
                if crate::plan_cache::count_params(stmt) > 0 {
                    return Err(DbError::Unsupported(
                        "a view cannot hold `?` parameters".into(),
                    ));
                }
                self.catalog
                    .create_view(&cv.name, (*cv.query).clone(), cv.or_replace)?;
                Ok(StmtOutput::Done)
            }
            Statement::DropTable { name, if_exists } => {
                self.catalog.drop_table(name, *if_exists)?;
                Ok(StmtOutput::Done)
            }
            Statement::DropView { name, if_exists } => {
                self.catalog.drop_view(name, *if_exists)?;
                Ok(StmtOutput::Done)
            }
            Statement::DropIndex { name, if_exists } => {
                if let Some(table) = self.catalog.unregister_index(name, *if_exists)? {
                    if let Ok(handle) = self.catalog.table(&table) {
                        handle.write().drop_index(name);
                    }
                }
                Ok(StmtOutput::Done)
            }
            Statement::Begin | Statement::Commit | Statement::Rollback => Err(DbError::Invalid(
                "transaction control must be handled by the session".into(),
            )),
        }
    }

    fn exec_create_table(&self, ct: &CreateTable, undo: &mut UndoLog) -> DbResult<StmtOutput> {
        if let Some(q) = &ct.as_select {
            let source = self.query_batches(q, 0)?;
            let schema = infer_schema(&source)?;
            let created = self.catalog.create_table(
                &ct.name,
                Table::new(schema.clone()),
                ct.if_not_exists,
            )?;
            if created {
                let handle = self.catalog.table(&ct.name)?;
                let filled = self.append_batches(&ct.name, &handle, source.batches, None, undo);
                if let Err(e) = filled {
                    // the statement is atomic: a table its rows do not fit
                    // is not left behind
                    self.catalog.drop_table(&ct.name, true)?;
                    return Err(e);
                }
            }
            return Ok(StmtOutput::Done);
        }
        let mut pk = None;
        let mut columns = Vec::with_capacity(ct.columns.len());
        for (i, c) in ct.columns.iter().enumerate() {
            if c.primary_key {
                if pk.is_some() {
                    return Err(DbError::Invalid("multiple primary keys".into()));
                }
                pk = Some(i);
            }
            columns.push(Column::new(c.name.clone(), c.data_type));
        }
        let schema = Schema::new(columns, pk)?;
        self.catalog
            .create_table(&ct.name, Table::new(schema), ct.if_not_exists)?;
        Ok(StmtOutput::Done)
    }

    fn exec_create_index(&self, ci: &CreateIndex) -> DbResult<StmtOutput> {
        if self.catalog.has_index(&ci.name) {
            if ci.if_not_exists {
                return Ok(StmtOutput::Done);
            }
            return Err(DbError::AlreadyExists(format!("index {}", ci.name)));
        }
        let handle = self.catalog.table(&ci.table)?;
        {
            let mut t = handle.write();
            let col = t
                .schema()
                .column_index(&ci.column)
                .ok_or_else(|| DbError::NotFound(format!("column {}", ci.column)))?;
            t.create_index(&ci.name, col, ci.unique)?;
        }
        self.catalog.register_index(&ci.name, &ci.table)?;
        Ok(StmtOutput::Done)
    }

    fn exec_insert(&self, ins: &Insert, undo: &mut UndoLog) -> DbResult<StmtOutput> {
        let t0 = self.prof_start();
        let handle = self.catalog.table(&ins.table)?;
        let (batches, columns, rows_in, bad_row) = match &ins.source {
            InsertSource::Values(rows) => {
                let table = handle.read();
                let columns = ins.columns.as_deref();
                let (batch, bad_row) = self.values_batch(rows, table.schema(), columns)?;
                (vec![batch], None, rows.len() as u64, bad_row)
            }
            InsertSource::Select(q) => {
                let batches = self.query_batches(q, 0)?.batches;
                let rows_in = batches.iter().map(|b| b.len() as u64).sum();
                (batches, ins.columns.as_deref(), rows_in, None)
            }
        };
        let count = self.append_batches(&ins.table, &handle, batches, columns, undo)?;
        if let Some(e) = bad_row {
            return Err(e);
        }
        self.prof_wrap(t0, 1, || format!("Insert {}", ins.table), count, rows_in, 0);
        Ok(StmtOutput::Affected(count))
    }

    /// The rows of an `INSERT … VALUES` list as one batch of a table of
    /// `schema`: each cell, in row order, goes straight into the lane of the
    /// column the list `columns` maps it to (the last cell wins for a column
    /// named twice; a column not named is NULL), converted to the declared
    /// type. A literal or a `?` is read as it stands, any other cell is
    /// evaluated. A value the column's type cannot hold is kept as it is, so
    /// storing the batch rejects it at its row. The batch ends before the
    /// first row of the wrong arity, whose error comes back beside it.
    ///
    /// # Errors
    /// The first cell in row order that fails to evaluate, then a column
    /// list naming an unknown column.
    fn values_batch(
        &self,
        rows: &[Vec<Expr>],
        schema: &Schema,
        columns: Option<&[String]>,
    ) -> DbResult<(ColumnBatch, Option<DbError>)> {
        let index = |c: &String| {
            let found = schema.column_index(c);
            found.ok_or_else(|| DbError::NotFound(format!("column {c}")))
        };
        let mapping: DbResult<Vec<usize>> = match columns {
            Some(cols) => cols.iter().map(index).collect(),
            None => Ok((0..schema.arity()).collect()),
        };
        let targets = mapping.as_deref().unwrap_or_default();
        // the column each cell fills, if a later cell does not
        let fills = |(i, t): (usize, &usize)| (!targets[i + 1..].contains(t)).then_some(*t);
        let fills: Vec<Option<usize>> = targets.iter().enumerate().map(fills).collect();
        let types: Vec<DataType> = schema.columns().iter().map(|c| c.data_type).collect();
        let lane = |&ty: &DataType| ColBuilder::new(ty, rows.len());
        let mut lanes: Vec<ColBuilder> = types.iter().map(lane).collect();
        let mut bad_row = None;
        for (r, row) in rows.iter().enumerate() {
            if bad_row.is_none() && row.len() != targets.len() {
                bad_row = Some((r, row.len()));
            }
            for (e, fills) in row.iter().zip(fills.iter().chain(std::iter::repeat(&None))) {
                let v = eval_constant(e, self.params)?;
                if let (None, Some(c)) = (bad_row, *fills) {
                    lanes[c].push(types[c].convert(v).unwrap_or_else(|v| v));
                }
            }
        }
        let n = bad_row.map_or(rows.len(), |(r, _)| r);
        for c in (0..types.len()).filter(|c| !targets.contains(c)) {
            (0..n).for_each(|_| lanes[c].push(Value::Null));
        }
        let targets = mapping?;
        let batch = ColumnBatch::from_cols(lanes.into_iter().map(ColBuilder::finish).collect(), n);
        let error = |(_, len)| arity_error(len, schema, columns.map(|_| &targets[..]));
        Ok((batch, bad_row.map(error)))
    }

    /// Appends the rows of `batches` to `table` (`handle`), mapped through
    /// an explicit column list and coerced to its schema, and records the
    /// slots they took as one undo entry, which each batch widens as it
    /// lands: a panic between batches leaves no row recovery cannot take
    /// back. Rows are appended in order; the first row that cannot be
    /// stored ends the statement with the error the row-at-a-time path
    /// raises for it, after the rows before it were appended (so a
    /// constraint violation among them is reported first).
    fn append_batches(
        &self,
        table: &str,
        handle: &TableHandle,
        batches: Vec<ColumnBatch>,
        columns: Option<&[String]>,
        undo: &mut UndoLog,
    ) -> DbResult<u64> {
        let mut t = handle.write();
        let schema = t.schema().clone();
        let index = |c: &String| {
            let found = schema.column_index(c);
            found.ok_or_else(|| DbError::NotFound(format!("column {c}")))
        };
        let mapping = columns.map(|cols| cols.iter().map(index).collect::<DbResult<Vec<_>>>());
        let mapping = mapping.transpose()?;
        let (mark, mut n) = (undo.len(), 0);
        for b in batches {
            #[cfg(test)]
            tests::panic_once_stored(n);
            self.check_deadline()?;
            let (stored, failed) = target_batch(b, &schema, mapping.as_deref());
            let slots = t.append(&stored)?;
            n += slots.len() as u64;
            let ours = undo.len() > mark;
            match undo.last_mut().filter(|_| ours) {
                Some(UndoOp::Insert { slots: taken, .. }) => taken.end = slots.end,
                _ => undo.push(UndoOp::Insert {
                    table: table.to_owned(),
                    slots,
                }),
            }
            if let Some(e) = failed {
                return Err(e);
            }
        }
        Ok(n)
    }

    /// The rows of a DML target (visible as `target`) that pass
    /// `selection`, as positions: their slots. The table is read through
    /// the access path the predicate allows ([`choose_access`]), and the
    /// rest of the predicate runs on what that path returns, batch by batch.
    fn matching(
        &self,
        handle: &TableHandle,
        target: &TableFactor,
        selection: Option<&Expr>,
    ) -> DbResult<Rel> {
        let t0 = self.prof_start();
        let visible = factor_visible_name(target);
        let scope = table_scope(handle, visible);
        let conjuncts = ast_conjuncts(selection);
        let access = choose_access(&handle.read(), visible, &conjuncts, self.params);
        let pred = residual(selection, access.applied(&conjuncts));
        let pred = pred.map(|p| bind_scalar(&p, &scope, self.params));
        let pred = pred.transpose()?.map(|p| self.compile(&p));
        let budget = self.catalog.memory_budget();
        let all = Rel::scan(scope, handle.clone(), &access, (self.batch_rows(), budget))?;
        self.count_access(&access, all.len() as u64);
        let matches = match &pred {
            Some(p) => self.filter(all, std::slice::from_ref(p), false)?,
            None => all,
        };
        if let Some(p) = self.prof {
            p.leaf(
                access.describe(&factor_label(target), false),
                matches.len() as u64,
                t0.map(us_since).unwrap_or(0),
            );
            let target = self.reads.map_or(&[][..], Reads::target);
            let cols = read_count(target, matches.scope.relations().iter());
            p.note_cols(cols, matches.arity());
        }
        Ok(matches)
    }

    fn exec_update(&self, upd: &Update, undo: &mut UndoLog) -> DbResult<StmtOutput> {
        let t0 = self.prof_start();
        let handle = self.catalog.table(&upd.table)?;
        let target = update_target(upd);

        // `matches`: one row per target row to rewrite, whose columns
        // `target_at..` are the target's current columns and whose last
        // source's positions are its slots
        let (target_at, matches) = if upd.from.is_empty() {
            (0, self.matching(&handle, &target, upd.selection.as_ref())?)
        } else {
            // the extra relations (PostgreSQL FROM list / MySQL JOIN) drive
            // a join whose inner side is the target itself, unscanned: a
            // small FROM probes the target's index, a table-sized one
            // scans and hashes it — `choose_join` decides
            let reads = self.reads_of(&upd.from);
            let from = self.build_from(&upd.from, 0, |_| Vec::new(), reads)?;
            let target_at = from.arity();
            let on = update_predicate(upd);
            let inner = JoinInner::table(handle.clone(), factor_visible_name(&target));
            let target_reads = self.reads.map_or(&[][..], Reads::target);
            let cols = read_count(target_reads, inner.scope().relations().iter());
            let from_cols = read_count(reads, from.scope.relations().iter());
            let labels = (from_cols + cols, cols);
            let joined =
                self.join_step(from, inner, JoinType::Inner, on.as_deref(), &target, labels)?;
            // the join emits a target row's pairs in FROM order: keeping
            // the first per slot — the target's positions — is "first
            // matching FROM row wins"
            let mut seen = KeyMap::<u32, ()>::default();
            seen.reserve(joined.len());
            let target = joined.sources() - 1;
            let first = |_: &Rel, pos: &Positions| {
                let first = (0..pos.len()).map(|i| seen.insert(pos.at(target, i), ()).is_none());
                Ok(first.collect())
            };
            (target_at, joined.retain(first)?)
        };
        let scope = &matches.scope;

        // the SET list: (column, its type, value expression); like
        // PostgreSQL, a column may be assigned once
        let assignments = {
            let table = handle.read();
            let schema = table.schema();
            let mut assignments = Vec::with_capacity(upd.assignments.len());
            for (col, e) in &upd.assignments {
                let idx = schema
                    .column_index(col)
                    .ok_or_else(|| DbError::NotFound(format!("column {col}")))?;
                if assignments.iter().any(|(c, _, _)| *c == idx) {
                    return Err(DbError::Invalid(format!("column {col} is assigned twice")));
                }
                let data_type = schema.columns()[idx].data_type;
                let e = self.compile(&bind_scalar(e, scope, self.params)?);
                assignments.push((idx, data_type, e));
            }
            assignments
        };
        let cols: Vec<usize> = assignments.iter().map(|(c, _, _)| *c).collect();
        // what SET reads, and the assigned columns' current lanes
        let mut reads =
            BoundExpr::reads(assignments.iter().map(|(_, _, e)| e.expr()), scope.arity());
        cols.iter().for_each(|c| reads[target_at + c] = true);
        let last = matches.sources() - 1;

        // each batch's new lanes of the assigned columns; the rows where one
        // differs from the current lane are written in one call, after
        // every read, whose old lanes are the statement's undo entry
        let matched = matches.len() as u64;
        let (mut slots, mut rows) = (Vec::new(), Vec::new());
        let mut failed = None;
        for pos in matches.batches() {
            self.check_deadline()?;
            let b = &matches.gather(pos, &reads);
            let (new, done, err) = set_rows(b, &assignments);
            let mut changed = vec![false; done];
            for (&c, lanes) in cols.iter().zip(&new) {
                lanes.mark_changed(b.col(target_at + c), &mut changed);
            }
            let rewritten = (0..done).filter(|&i| changed[i]);
            slots.extend(rewritten.map(|i| pos.at(last, i) as usize));
            rows.push(keep(ColumnBatch::from_cols(new, done), &changed));
            if err.is_some() {
                failed = err;
                break;
            }
        }
        let count = slots.len() as u64;
        if !slots.is_empty() {
            let new = ColumnBatch::concat(rows, cols.len()).into_cols();
            let old = handle.write().update_slots(&slots, &cols, &new, true)?;
            undo.push(UndoOp::Update {
                table: upd.table.clone(),
                slots,
                cols,
                old,
            });
        }
        if let Some(e) = failed {
            return Err(e);
        }
        let label = || format!("Update {}", factor_label(&target));
        self.prof_wrap(t0, 1, label, count, matched, 0);
        Ok(StmtOutput::Affected(count))
    }

    fn exec_delete(
        &self,
        table: &str,
        selection: &Option<Expr>,
        undo: &mut UndoLog,
    ) -> DbResult<StmtOutput> {
        let t0 = self.prof_start();
        let handle = self.catalog.table(table)?;
        let target = TableFactor::Table {
            name: table.to_owned(),
            alias: None,
        };
        let slots: Vec<usize> = match selection {
            // every row goes, so its slot is all that is read of it
            None => {
                let live = handle.read();
                let mut slots = Vec::with_capacity(live.len());
                slots.extend(live.live_slots());
                let n = slots.len() as u64;
                self.count_access(&AccessPath::Scan, n);
                if let Some(p) = self.prof {
                    let us = t0.map_or(0, us_since);
                    p.leaf(AccessPath::Scan.describe(table, false), n, us);
                }
                slots
            }
            Some(w) => {
                let matches = self.matching(&handle, &target, Some(w))?;
                let batches = matches.batches().iter();
                let slots = batches.flat_map(|pos| (0..pos.len()).map(|i| pos.at(0, i) as usize));
                slots.collect()
            }
        };
        let count = slots.len() as u64;
        if !slots.is_empty() {
            let old = handle.write().delete_slots(&slots)?;
            undo.push(UndoOp::Delete {
                table: table.to_owned(),
                slots,
                old,
            });
        }
        self.prof_wrap(t0, 1, || format!("Delete {table}"), count, count, 0);
        Ok(StmtOutput::Affected(count))
    }

    fn exec_truncate(&self, name: &str, undo: &mut UndoLog) -> DbResult<StmtOutput> {
        // implemented as delete-all so it stays undoable
        self.exec_delete(name, &None, undo)?;
        Ok(StmtOutput::Done)
    }
}

/// The output columns of an ungrouped `SELECT` list and the expression
/// behind each, wildcards expanded, then the hidden columns `order_by`
/// needs ([`hidden_sort_columns`]) and how many those are.
fn bind_projections(
    s: &Select,
    order_by: &[OrderByExpr],
    scope: &Scope,
    params: &[Value],
) -> DbResult<(Vec<String>, Vec<BoundExpr>, usize)> {
    let mut columns = Vec::new();
    let mut exprs: Vec<BoundExpr> = Vec::new();
    for (i, item) in s.projections.iter().enumerate() {
        let range = match item {
            SelectItem::Wildcard => 0..scope.arity(),
            SelectItem::QualifiedWildcard(q) => scope.relation_offsets(q)?,
            SelectItem::Expr { expr, alias } => {
                columns.push(projection_name(expr, alias.as_deref(), i));
                exprs.push(bind_scalar(expr, scope, params)?);
                continue;
            }
        };
        columns.extend_from_slice(&scope.flat_columns()[range.clone()]);
        exprs.extend(range.map(BoundExpr::Column));
    }
    let hidden = hidden_sort_columns(order_by, &columns);
    for (name, e) in &hidden {
        columns.push(name.clone());
        exprs.push(bind_scalar(e, scope, params)?);
    }
    Ok((columns, exprs, hidden.len()))
}

/// The columns the `order_by` keys read that no output column of a
/// `SELECT` list (`columns`) is named like, each once, with the name the
/// sort finds it by. The list carries them as hidden trailing columns.
fn hidden_sort_columns(order_by: &[OrderByExpr], columns: &[String]) -> Vec<(String, Expr)> {
    let mut hidden: Vec<(String, Expr)> = Vec::new();
    for (table, name) in order_by.iter().flat_map(|o| o.expr.column_refs()) {
        if columns.iter().any(|c| c == name) {
            continue;
        }
        let table = table.map(str::to_owned);
        let e = Expr::Column {
            table,
            name: name.to_owned(),
        };
        if !hidden.iter().any(|(_, h)| *h == e) {
            hidden.push((name.to_owned(), e));
        }
    }
    hidden
}

/// A grouped `SELECT` bound against its input: the group keys, the
/// aggregates its projections and `HAVING` call, and what each group
/// projects from them.
struct GroupedSelect {
    key_exprs: Vec<BoundExpr>,
    aggs: Vec<AggSpec>,
    columns: Vec<String>,
    proj_exprs: Vec<BoundExpr>,
    having: Option<BoundExpr>,
    /// Trailing projections only the sort reads ([`hidden_sort_columns`]).
    hidden: usize,
}

impl GroupedSelect {
    fn bind(
        s: &Select,
        order_by: &[OrderByExpr],
        scope: &Scope,
        params: &[Value],
    ) -> DbResult<GroupedSelect> {
        let key_exprs = s.group_by.iter().map(|g| bind_scalar(g, scope, params));
        let key_exprs = key_exprs.collect::<DbResult<Vec<_>>>()?;
        let mut aggs: Vec<AggSpec> = Vec::new();
        let mut columns = Vec::new();
        let mut proj_exprs = Vec::new();
        for (i, item) in s.projections.iter().enumerate() {
            let SelectItem::Expr { expr, alias } = item else {
                return Err(DbError::Invalid(
                    "wildcard projections are not allowed with GROUP BY/aggregates".into(),
                ));
            };
            columns.push(projection_name(expr, alias.as_deref(), i));
            proj_exprs.push(bind_with_aggregates(expr, scope, params, &mut aggs)?);
        }
        let hidden = hidden_sort_columns(order_by, &columns);
        for (name, e) in &hidden {
            columns.push(name.clone());
            proj_exprs.push(bind_with_aggregates(e, scope, params, &mut aggs)?);
        }
        let having = s.having.as_ref();
        let having = having.map(|h| bind_with_aggregates(h, scope, params, &mut aggs));
        Ok(GroupedSelect {
            key_exprs,
            aggs,
            columns,
            proj_exprs,
            having: having.transpose()?,
            hidden: hidden.len(),
        })
    }
}

impl GroupedSelect {
    /// The groups' output as one batch. `group` holds a lane per group: the
    /// input's columns (its representative row's, for those the
    /// projections and `HAVING` read; unread elsewhere), then one column per
    /// aggregate, where the bound aggregate references point. `HAVING` and
    /// the projections run on it as kernels. If a kernel fails, the groups
    /// are re-run a row at a time, `HAVING` then each projection, which
    /// raises the row path's first error.
    fn finish_batch(self, group: ColumnBatch, stats: &Stats) -> DbResult<Batches> {
        let n = group.len();
        let compile = |e| CompiledExpr::compile(e, stats);
        let having = self.having.as_ref().map(compile);
        let proj: Vec<CompiledExpr> = self.proj_exprs.iter().map(compile).collect();
        let kernels = || -> DbResult<ColumnBatch> {
            let keep = having.as_ref().map(|h| h.try_eval(&group)).transpose()?;
            let outs = proj.iter().map(|p| p.try_eval(&group));
            let cols = outs.map(|o| Ok(o?.into_col(&group)));
            let out = ColumnBatch::from_cols(cols.collect::<DbResult<_>>()?, n);
            Ok(match keep {
                Some(keep) => out.compact(&keep.truthy_mask(&group)),
                None => out,
            })
        };
        let out = match kernels() {
            Ok(out) => out,
            Err(_) => {
                let mut rows = Vec::with_capacity(n);
                for lane in 0..n {
                    let row = group.row_at(lane);
                    if let Some(h) = &having {
                        if !h.expr().eval(&row)?.is_truthy() {
                            continue;
                        }
                    }
                    let mut out = Vec::with_capacity(proj.len());
                    for p in &proj {
                        out.push(p.expr().eval(&row)?);
                    }
                    rows.push(out);
                }
                ColumnBatch::from_rows(rows, proj.len())
            }
        };
        Ok(Batches {
            columns: self.columns,
            batches: vec![out],
            hidden: self.hidden,
        })
    }
}

/// The groups of a batched aggregate in the order they first appeared: the
/// row each was first seen in, and for each input batch that opened any,
/// that batch and the first group it opened. Groups open batch by batch, so
/// each batch's groups are one run.
#[derive(Default)]
struct Groups {
    lanes: Vec<u32>,
    runs: Vec<(usize, usize)>,
}

impl Groups {
    fn len(&self) -> usize {
        self.lanes.len()
    }

    /// Opens a group first seen in `lane` of batch `batch`; returns its id.
    fn open(&mut self, batch: usize, lane: usize) -> u32 {
        if self.runs.last().is_none_or(|&(b, _)| b != batch) {
            self.runs.push((batch, self.lanes.len()));
        }
        self.lanes.push(lane as u32);
        self.lanes.len() as u32 - 1
    }

    /// Every group's representative row, as positions in `rel`'s sources.
    fn positions(&self, rel: &Rel) -> Positions {
        let ends = self.runs.iter().skip(1).map(|r| r.1).chain([self.len()]);
        let parts = self.runs.iter().zip(ends);
        let parts = parts.map(|(&(b, from), to)| rel.batches()[b].pick(&self.lanes[from..to]));
        Positions::concat(&parts.collect::<Vec<_>>(), rel.sources())
    }
}

/// Maps a batched aggregate's keys to group ids through one index chosen
/// over its whole input. One `Int` column indexes a table at `key - lo`
/// when its lanes span fewer values than twice the rows, an `i64` map
/// otherwise; other keys go through a `Value` map, under which `Int(2)`
/// and `Float(2.0)` are one key. NULL `Int` keys and no keys at all make the
/// group `none`.
struct GroupIndex {
    none: Option<u32>,
    keys: Keys,
}

enum Keys {
    Dense(i64, Vec<Option<u32>>),
    Ints(KeyMap<i64, Option<u32>>),
    Values(KeyMap<Vec<Value>, Option<u32>>),
}

impl GroupIndex {
    /// The index for the keys `keys` compiles to over the rows of `rel`:
    /// for a lone bare column whose source holds `Int` lanes, sized by
    /// [`Rel::int_span`].
    fn new(keys: &[CompiledExpr], rel: &Rel) -> Self {
        let span = match keys {
            [key] => match key.expr() {
                BoundExpr::Column(c) => rel.int_span(*c),
                _ => None,
            },
            _ => None,
        };
        let rows = rel.len() as u64;
        let keys = match span {
            None => Keys::Values(KeyMap::default()),
            Some(Some((lo, hi))) if hi.abs_diff(lo) < 2 * rows => {
                Keys::Dense(lo, vec![None; hi.abs_diff(lo) as usize + 1])
            }
            Some(_) => Keys::Ints(KeyMap::default()),
        };
        GroupIndex { none: None, keys }
    }

    /// Sets `gids` to the group of each of the `n` lanes of batch `batch`,
    /// whose key columns are `keys`, opening groups as they first appear.
    fn assign(
        &mut self,
        groups: &mut Groups,
        batch: usize,
        keys: &[Cow<Col>],
        n: usize,
        gids: &mut Vec<u32>,
    ) {
        gids.clear();
        let mut open =
            |gid: &mut Option<u32>, lane| *gid.get_or_insert_with(|| groups.open(batch, lane));
        match (&mut self.keys, keys) {
            (_, []) => {
                open(&mut self.none, 0);
                gids.resize(n, 0);
            }
            (Keys::Values(map), _) => {
                for lane in 0..n {
                    let key = keys.iter().map(|c| c.value_at(lane)).collect();
                    gids.push(open(map.entry(key).or_default(), lane));
                }
            }
            (index, [k]) => {
                let ColData::Int(ks) = &k.data else {
                    unreachable!("an Int key column")
                };
                for (lane, (&k, &ok)) in ks.iter().zip(&k.valid).enumerate() {
                    let gid = match (ok, &mut *index) {
                        (false, _) => &mut self.none,
                        (true, Keys::Dense(lo, ids)) => &mut ids[k.abs_diff(*lo) as usize],
                        (true, Keys::Ints(map)) => map.entry(k).or_default(),
                        (true, Keys::Values(_)) => unreachable!("a Value map takes every key"),
                    };
                    gids.push(open(gid, lane));
                }
            }
            _ => unreachable!("typed indexes take one key"),
        }
    }
}

/// One aggregate call's accumulators, a lane per group: COUNT's and AVG's
/// counts, AVG's sums, and SUM's, MIN's or MAX's value so far (NULL until a
/// lane sets it), typed while the inputs share `acc`'s layout.
struct AggCol {
    func: AggregateFunction,
    counts: Vec<i64>,
    sums: Vec<f64>,
    acc: Col,
}

impl AggCol {
    fn new(func: AggregateFunction) -> AggCol {
        let (counts, sums, acc) = (Vec::new(), Vec::new(), Col::nulls(0));
        AggCol {
            func,
            counts,
            sums,
            acc,
        }
    }

    /// Grows the accumulators to `n` groups.
    fn resize(&mut self, n: usize) {
        use AggregateFunction::{Avg, Count};
        match (self.func, &mut self.acc.data) {
            (Count | Avg, _) => return (self.counts.resize(n, 0), self.sums.resize(n, 0.0)).1,
            (_, ColData::Int(v)) => v.resize(n, 0),
            (_, ColData::Float(v)) => v.resize(n, 0.0),
            (_, ColData::Bool(v)) => v.resize(n, false),
            (_, ColData::Mixed(v)) => v.resize(n, Value::Null),
        }
        self.acc.valid.resize(n, false);
    }

    /// Feeds lane `i` of `arg` (`None`: `COUNT(*)`) to group `gids[i]`, in
    /// lane order; NULL lanes change nothing.
    fn update(&mut self, gids: &[u32], arg: Option<&Col>) {
        use AggregateFunction::{Avg, Count, Max, Min, Sum};
        // (lane, group) of each non-NULL lane
        let lanes = || {
            let valid = move |&(lane, _): &(usize, &u32)| arg.is_none_or(|c| c.valid[lane]);
            gids.iter()
                .enumerate()
                .filter(valid)
                .map(|(lane, &g)| (lane, g as usize))
        };
        let col = match (self.func, arg) {
            (Count, _) | (_, None) => return lanes().for_each(|(_, g)| self.counts[g] += 1),
            (_, Some(col)) => col,
        };
        if self.func == Avg {
            for (lane, g) in lanes() {
                let f = match &col.data {
                    ColData::Int(v) => Some(v[lane] as f64),
                    ColData::Float(v) => Some(v[lane]),
                    _ => col.value_at(lane).as_f64(),
                };
                if let Some(f) = f {
                    self.sums[g] = canonical_nan(self.sums[g] + f);
                    self.counts[g] += 1;
                }
            }
            return;
        }
        let (func, acc) = (self.func, &mut self.acc);
        let unfolded = match (&mut acc.data, &col.data) {
            _ if !col.valid.contains(&true) => None,
            (ColData::Int(v), ColData::Int(x)) => match func {
                Sum => fold(v, &mut acc.valid, lanes(), x, i64::checked_add),
                Min => fold(v, &mut acc.valid, lanes(), x, |a, b| Some(a.min(b))),
                _ => fold(v, &mut acc.valid, lanes(), x, |a, b| Some(a.max(b))),
            },
            (ColData::Float(v), ColData::Float(x)) => match func {
                Sum => fold(v, &mut acc.valid, lanes(), x, |a, b| {
                    Some(canonical_nan(a + b))
                }),
                Min => fold(v, &mut acc.valid, lanes(), x, |a, b| {
                    Some(if b.total_cmp(&a).is_lt() { b } else { a })
                }),
                _ => fold(v, &mut acc.valid, lanes(), x, |a, b| {
                    Some(if b.total_cmp(&a).is_gt() { b } else { a })
                }),
            },
            // nothing set yet: take the input's layout
            (_, ColData::Int(_) | ColData::Float(_)) if !acc.valid.contains(&true) => {
                *acc = col.gather(&vec![NO_LANE; acc.len()]);
                return self.update(gids, arg);
            }
            _ => Some(0),
        };
        let Some(from) = unfolded else { return };
        for (lane, g) in lanes().skip_while(|&(lane, _)| lane < from) {
            let v = col.value_at(lane);
            let v = match (acc.value_at(g), func) {
                (Value::Null, _) => v,
                // overflow saturates to float rather than erroring
                (c, Sum) => c.add(&v).unwrap_or_else(|_| {
                    Value::Float(c.as_f64().unwrap_or(0.0) + v.as_f64().unwrap_or(0.0))
                }),
                (c, Min) if v.total_cmp(&c).is_lt() => v,
                (c, Max) if v.total_cmp(&c).is_gt() => v,
                (c, _) => c,
            };
            acc.set(g, v);
        }
    }

    /// The accumulators' results, a lane per group.
    fn finish(self) -> Col {
        let (counts, valid) = (self.counts, |n: &i64| *n != 0);
        match self.func {
            AggregateFunction::Count => Col {
                valid: vec![true; counts.len()],
                data: ColData::Int(counts),
            },
            AggregateFunction::Avg => Col {
                valid: counts.iter().map(valid).collect(),
                data: ColData::Float(
                    self.sums
                        .iter()
                        .zip(&counts)
                        .map(|(&s, &n)| s / n as f64)
                        .collect(),
                ),
            },
            _ => self.acc,
        }
    }
}

/// Folds the valid lanes `(lane, group)` of `x` into their groups' typed
/// accumulators: `op(acc, lane)`, or the lane itself in a group no lane
/// has set yet. Returns the first lane `op` refuses (an `Int` sum that
/// overflows), which it leaves unfolded.
fn fold<T: Copy>(
    vals: &mut [T],
    seen: &mut [bool],
    lanes: impl Iterator<Item = (usize, usize)>,
    x: &[T],
    op: impl Fn(T, T) -> Option<T>,
) -> Option<usize> {
    for (lane, g) in lanes {
        vals[g] = match seen[g] {
            true => match op(vals[g], x[lane]) {
                Some(v) => v,
                None => return Some(lane),
            },
            false => {
                seen[g] = true;
                x[lane]
            }
        };
    }
    None
}

/// Whether `s` aggregates: it groups, or calls an aggregate.
fn is_grouped(s: &Select) -> bool {
    let aggregate =
        |p: &SelectItem| matches!(p, SelectItem::Expr { expr, .. } if expr.contains_aggregate());
    !s.group_by.is_empty()
        || s.projections.iter().any(aggregate)
        || s.having.as_ref().is_some_and(|h| h.contains_aggregate())
}

/// Fails past [`MAX_DEPTH`] nested views and derived tables.
fn check_depth(depth: usize) -> DbResult<()> {
    if depth > MAX_DEPTH {
        return Err(DbError::Invalid(
            "query nesting too deep (circular view?)".into(),
        ));
    }
    Ok(())
}

/// The rows of `batches` without repeats, as one batch that keeps each
/// first occurrence in order. Rows compare as their `Value`s do: `Int(2)`
/// equals `Float(2.0)`, NULL equals NULL and NaN equals NaN. When every
/// column is an `Int` lane vector, lanes are hashed and compared as `i64`s.
fn distinct(batches: Vec<ColumnBatch>, arity: usize) -> Vec<ColumnBatch> {
    let all = ColumnBatch::concat(batches, arity);
    let cols: Vec<&Col> = (0..arity).map(|c| all.col(c)).collect();
    let ints: Option<Vec<&[i64]>> = cols
        .iter()
        .map(|c| match &c.data {
            ColData::Int(v) => Some(v.as_slice()),
            _ => None,
        })
        .collect();
    let hash = |lane: usize| match &ints {
        Some(ints) => cols.iter().zip(ints).fold(0, |h: u64, (c, v)| {
            let key = if c.valid[lane] { v[lane] } else { i64::MIN };
            int_key_hash(key ^ h.rotate_left(29) as i64)
        }),
        None => {
            let mut h = KeyHasher::default();
            cols.iter().for_each(|c| c.value_at(lane).hash(&mut h));
            h.finish()
        }
    };
    let same = |a: usize, b: usize| match &ints {
        Some(ints) => cols
            .iter()
            .zip(ints)
            .all(|(c, v)| c.valid[a] == c.valid[b] && (!c.valid[a] || v[a] == v[b])),
        None => cols.iter().all(|c| c.value_at(a) == c.value_at(b)),
    };
    // open addressing over the lanes kept so far
    let mask = (all.len() * 2).next_power_of_two() - 1;
    let mut table = vec![NO_LANE; mask + 1];
    let mut hashes = Vec::with_capacity(all.len());
    let mut keep = Vec::new();
    for lane in 0..all.len() {
        let h = hash(lane);
        hashes.push(h);
        let mut at = h as usize & mask;
        loop {
            match table[at] {
                NO_LANE => {
                    table[at] = lane as u32;
                    keep.push(lane as u32);
                    break;
                }
                seen if hashes[seen as usize] == h && same(seen as usize, lane) => break,
                _ => at = (at + 1) & mask,
            }
        }
    }
    if keep.is_empty() {
        return Vec::new();
    }
    let cols = all.gather_cols(&keep);
    vec![ColumnBatch::from_cols(cols, keep.len())]
}

/// The target of an `UPDATE` as the `FROM` factor it plays in its join.
pub(crate) fn update_target(upd: &Update) -> TableFactor {
    TableFactor::Table {
        name: upd.table.clone(),
        alias: upd.alias.clone(),
    }
}

/// The whole predicate of an `UPDATE`: its MySQL-style `ON` and its `WHERE`.
pub(crate) fn update_predicate(upd: &Update) -> Option<Cow<'_, Expr>> {
    match (&upd.join_on, &upd.selection) {
        (Some(on), Some(selection)) => Some(Cow::Owned(
            on.clone().binary(BinaryOp::And, selection.clone()),
        )),
        (on, selection) => on.as_ref().or(selection.as_ref()).map(Cow::Borrowed),
    }
}

/// Top-level `WHERE` conjuncts of `s` that mention only `tr`'s base table.
/// They decide how that table is read ([`choose_access`]) and, below a
/// join, are applied to it *before* the join, so that only rows the
/// statement can still return probe or build (SQLoop's Compute: only rows
/// with a pending delta reach the edge join).
///
/// The base is the preserved side of every `LEFT JOIN` after it, and a row
/// a conjunct rejects fails the whole `AND`, so the result is unchanged.
/// Only fully qualified references count, except in a single-table
/// statement, where an unqualified name can mean nothing else.
pub(crate) fn pushdown_conjuncts<'a>(s: &'a Select, tr: &TableRef) -> Vec<&'a Expr> {
    let (TableFactor::Table { .. }, Some(pred)) = (&tr.base, &s.selection) else {
        return Vec::new();
    };
    let single_table = s.from.len() == 1 && tr.joins.is_empty();
    let visible = factor_visible_name(&tr.base);
    let mut conjuncts = ast_conjuncts(Some(pred));
    conjuncts.retain(|c| {
        let refs = c.column_refs();
        !refs.is_empty()
            && refs
                .iter()
                .all(|(q, _)| q.map_or(single_table, |q| q == visible))
    });
    conjuncts
}

/// The columns of `b` at `picks`: the last pick of a column moves its
/// lanes, an earlier one copies them.
fn pick_columns(b: ColumnBatch, picks: &[usize]) -> ColumnBatch {
    let len = b.len();
    let mut cols: Vec<Option<Col>> = b.into_cols().into_iter().map(Some).collect();
    let mut pick = |(k, &i): (usize, &usize)| {
        let col = match picks[k + 1..].contains(&i) {
            true => cols[i].clone(),
            false => cols[i].take(),
        };
        col.expect("a column moves out with its last pick")
    };
    ColumnBatch::from_cols(picks.iter().enumerate().map(&mut pick).collect(), len)
}

/// What is left of `pred` once an index seek applied its conjunct
/// `applied` ([`AccessPath::applied`]); `None` when nothing is.
pub(crate) fn residual<'p>(
    pred: Option<&'p Expr>,
    applied: Option<&Expr>,
) -> Option<Cow<'p, Expr>> {
    let Some(applied) = applied else {
        return pred.map(Cow::Borrowed);
    };
    let mut rest = ast_conjuncts(pred);
    rest.retain(|c| !std::ptr::eq(*c, applied));
    match rest.as_slice() {
        [] => None,
        [only] => Some(Cow::Borrowed(only)),
        [first, more @ ..] => Some(Cow::Owned(more.iter().fold((*first).clone(), |acc, c| {
            acc.binary(BinaryOp::And, (*c).clone())
        }))),
    }
}

/// The top-level `AND` conjuncts of an unbound predicate (none for `None`).
pub(crate) fn ast_conjuncts(pred: Option<&Expr>) -> Vec<&Expr> {
    fn collect<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
        match e {
            Expr::Binary {
                left,
                op: BinaryOp::And,
                right,
            } => {
                collect(left, out);
                collect(right, out);
            }
            other => out.push(other),
        }
    }
    let mut out = Vec::new();
    if let Some(e) = pred {
        collect(e, &mut out);
    }
    out
}

/// How many columns of `relations` — one per factor of `reads` — the
/// statement reads: every column of a factor read whole.
fn read_count<'r>(
    reads: &[Option<FactorReads>],
    relations: impl Iterator<Item = &'r ScopeRelation>,
) -> usize {
    let mut factors = reads.iter();
    let count_of = |r: &ScopeRelation| match factors.next().and_then(Option::as_ref) {
        Some(f) if f.scan.len() == r.columns.len() => count(&f.scan),
        _ => r.columns.len(),
    };
    relations.map(count_of).sum()
}

fn projection_name(expr: &Expr, alias: Option<&str>, i: usize) -> String {
    if let Some(a) = alias {
        return a.to_owned();
    }
    match expr {
        Expr::Column { name, .. } => name.clone(),
        Expr::Function { name, .. } => name.clone(),
        _ => format!("column{}", i + 1),
    }
}

/// The lanes of `b` whose `mask` flag is set.
fn keep(b: ColumnBatch, mask: &[bool]) -> ColumnBatch {
    match mask.iter().all(|&k| k) {
        true => b,
        false => b.compact(mask),
    }
}

/// A source row of an `INSERT` as a row of a table of `schema`: mapped
/// through the explicit column list (`mapping`), then coerced.
fn target_row(row: Row, schema: &Schema, mapping: Option<&[usize]>) -> DbResult<Row> {
    let full_row = match mapping {
        Some(m) => {
            if row.len() != m.len() {
                return Err(arity_error(row.len(), schema, mapping));
            }
            let mut full = vec![Value::Null; schema.arity()];
            for (v, &target) in row.into_iter().zip(m) {
                full[target] = v;
            }
            full
        }
        None => row,
    };
    schema.coerce_row(full_row)
}

/// The error for an `INSERT` source row of `n` values, which a table of
/// `schema`, through the column list `mapping`, cannot take.
fn arity_error(n: usize, schema: &Schema, mapping: Option<&[usize]>) -> DbError {
    DbError::Invalid(match mapping {
        Some(m) => format!("INSERT provides {n} values for {} columns", m.len()),
        None => format!(
            "row arity {n} does not match schema arity {}",
            schema.arity()
        ),
    })
}

/// The rows of `b` as rows of a table of `schema` ([`target_row`]), mapped
/// and coerced a column at a time. If that fails, the rows are redone one
/// at a time, and the batch ends before the first that fails, with its
/// error.
fn target_batch(
    b: ColumnBatch,
    schema: &Schema,
    mapping: Option<&[usize]>,
) -> (ColumnBatch, Option<DbError>) {
    let arity = schema.arity();
    let stored = |c: usize| b.col(c).is_stored_as(schema.columns()[c].data_type);
    if mapping.is_none() && b.arity() == arity && (0..arity).all(stored) {
        return (b, None);
    }
    let fits = mapping.map_or(arity, <[usize]>::len) == b.arity();
    let source = |target: usize| match mapping {
        Some(m) => m.iter().rposition(|&t| t == target).map(|i| b.col(i)),
        None => Some(b.col(target)),
    };
    let coerced = (0..arity).map(|c| {
        let col = source(c).map_or_else(|| Col::nulls(b.len()), Col::clone);
        col.coerce(schema.columns()[c].data_type)
    });
    if let Some(Ok(cols)) = fits.then(|| coerced.collect::<DbResult<Vec<Col>>>()) {
        return (ColumnBatch::from_cols(cols, b.len()), None);
    }
    let mut rows = Vec::with_capacity(b.len());
    for lane in 0..b.len() {
        match target_row(b.row_at(lane), schema, mapping) {
            Ok(row) => rows.push(row),
            Err(e) => return (ColumnBatch::from_rows(rows, arity), Some(e)),
        }
    }
    (ColumnBatch::from_rows(rows, arity), None)
}

/// One `SET` item: the column, its type and the value expression.
type Assignment = (usize, DataType, CompiledExpr);

/// The new lanes of each assigned column for the matched rows in `b`,
/// coerced to the column's type, and how many rows they cover. A kernel
/// error re-runs the batch a row at a time, which stops at the row path's
/// first error and returns it: the lanes cover the rows before that one.
fn set_rows(b: &ColumnBatch, assignments: &[Assignment]) -> (Vec<Col>, usize, Option<DbError>) {
    let kernel = |(_, ty, e): &Assignment| e.try_eval(b)?.into_col(b).coerce(*ty);
    if let Ok(cols) = assignments
        .iter()
        .map(kernel)
        .collect::<DbResult<Vec<Col>>>()
    {
        return (cols, b.len(), None);
    }
    let builder = |(_, ty, _): &Assignment| ColBuilder::new(*ty, b.len());
    let mut cols: Vec<ColBuilder> = assignments.iter().map(builder).collect();
    let finish = |cols: Vec<ColBuilder>| cols.into_iter().map(ColBuilder::finish).collect();
    for lane in 0..b.len() {
        let row = b.row_at(lane);
        let set = |(_, ty, e): &Assignment| ty.coerce(e.expr().eval(&row)?);
        let values: DbResult<Vec<Value>> = assignments.iter().map(set).collect();
        match values {
            Ok(values) => cols.iter_mut().zip(values).for_each(|(c, v)| c.push(v)),
            Err(e) => return (finish(cols), lane, Some(e)),
        }
    }
    (finish(cols), b.len(), None)
}

/// Infers a schema from a query's output (for `CREATE TABLE AS SELECT`):
/// each column takes the type of its non-NULL values — FLOAT where INT and
/// FLOAT values mix, else the first one's — defaulting to `TEXT`; no
/// primary key is declared.
fn infer_schema(source: &Batches) -> DbResult<Schema> {
    fn merge(a: Option<DataType>, b: Option<DataType>) -> Option<DataType> {
        match (a, b) {
            (None, b) => b,
            (Some(DataType::Int), Some(DataType::Float)) => Some(DataType::Float),
            (a, _) => a,
        }
    }
    let col_type = |col: &Col| {
        let any = col.valid.iter().any(|&v| v);
        match &col.data {
            ColData::Int(_) => any.then_some(DataType::Int),
            ColData::Float(_) => any.then_some(DataType::Float),
            ColData::Bool(_) => any.then_some(DataType::Bool),
            ColData::Mixed(v) => v.iter().map(Value::data_type).fold(None, merge),
        }
    };
    let columns = source.columns.iter().enumerate().map(|(c, name)| {
        let ty = source
            .batches
            .iter()
            .map(|b| col_type(b.col(c)))
            .fold(None, merge);
        Column::new(name.clone(), ty.unwrap_or(DataType::Text))
    });
    Schema::new(columns.collect(), None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_query, parse_statement};
    use std::cell::Cell;

    thread_local! {
        /// How many rows an `INSERT` on this thread stores before
        /// [`panic_once_stored`] panics ahead of its next batch (never by
        /// default).
        static PANIC_AFTER: Cell<u64> = const { Cell::new(u64::MAX) };
    }

    /// Panics once, ahead of a batch, when the statement has stored the
    /// rows a test armed [`PANIC_AFTER`] with.
    pub(super) fn panic_once_stored(rows: u64) {
        if PANIC_AFTER.with(|p| p.get()) == rows {
            PANIC_AFTER.with(|p| p.set(u64::MAX));
            panic!("injected panic after {rows} stored rows");
        }
    }

    #[test]
    fn recovery_takes_back_the_batches_a_panicking_insert_stored() {
        let db = crate::Database::new(EngineProfile::Postgres);
        db.set_batch_size(Some(1));
        let mut s = db.connect();
        s.execute("CREATE TABLE src (a INT)").unwrap();
        s.execute("INSERT INTO src VALUES (1), (2), (3)").unwrap();
        s.execute("CREATE TABLE t (a INT)").unwrap();
        let used = db.memory_used();
        PANIC_AFTER.with(|p| p.set(1));
        let insert = || s.execute("INSERT INTO t SELECT a FROM src");
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(insert));
        assert!(run.is_err(), "the second batch panics");
        s.recover_after_panic();
        let count = s.query("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(count.rows, vec![vec![Value::Int(0)]]);
        assert_eq!(db.memory_used(), used);
        assert_eq!(
            s.execute("INSERT INTO t SELECT a FROM src").unwrap(),
            StmtOutput::Affected(3)
        );
    }

    struct Ctx {
        catalog: Catalog,
        stats: Stats,
        profile: EngineProfile,
    }

    impl Ctx {
        fn new(profile: EngineProfile) -> Ctx {
            Ctx {
                catalog: Catalog::new(),
                stats: Stats::new(),
                profile,
            }
        }

        fn exec(&self, sql: &str) -> DbResult<StmtOutput> {
            let stmt = parse_statement(sql)?;
            let mut undo = UndoLog::new();
            Executor::new(&self.catalog, self.profile, &self.stats).run_statement(&stmt, &mut undo)
        }

        fn query(&self, sql: &str) -> QueryResult {
            let q = parse_query(sql).unwrap();
            Executor::new(&self.catalog, self.profile, &self.stats)
                .run_query(&q)
                .unwrap()
        }
    }

    fn seeded(profile: EngineProfile) -> Ctx {
        let ctx = Ctx::new(profile);
        ctx.exec("CREATE TABLE t (id INT PRIMARY KEY, v FLOAT, tag TEXT)")
            .unwrap();
        ctx.exec("INSERT INTO t VALUES (1, 1.5, 'a'), (2, 2.5, 'b'), (3, 3.5, 'a')")
            .unwrap();
        ctx
    }

    #[test]
    fn basic_select_where_order_limit() {
        let ctx = seeded(EngineProfile::Postgres);
        let r = ctx.query("SELECT id, v FROM t WHERE v > 1.5 ORDER BY v DESC LIMIT 1");
        assert_eq!(r.rows, vec![vec![Value::Int(3), Value::Float(3.5)]]);
        assert_eq!(r.columns, vec!["id", "v"]);
    }

    #[test]
    fn order_by_a_column_outside_the_select_list() {
        let ctx = seeded(EngineProfile::Postgres);
        let r = ctx.query("SELECT tag FROM t ORDER BY v DESC");
        assert_eq!(r.columns, vec!["tag"]);
        let tags: Vec<Value> = ["a", "b", "a"].map(|t| Value::Text(t.into())).into();
        assert_eq!(
            r.rows,
            tags.into_iter().map(|v| vec![v]).collect::<Vec<_>>()
        );
        // qualified, inside an expression, next to a listed key, with LIMIT
        let r = ctx.query("SELECT t.v FROM t ORDER BY t.tag DESC, 0 - id LIMIT 2");
        assert_eq!(r.columns, vec!["v"]);
        assert_eq!(
            r.rows,
            vec![vec![Value::Float(2.5)], vec![Value::Float(3.5)]]
        );
        // a grouped list carries its group key
        let r = ctx.query("SELECT COUNT(*) FROM t GROUP BY tag ORDER BY tag DESC");
        assert_eq!(r.rows, vec![vec![Value::Int(1)], vec![Value::Int(2)]]);
        // DISTINCT would dedupe on the hidden key: still an error, as in
        // PostgreSQL; so is a key no relation has
        let q = parse_query("SELECT DISTINCT tag FROM t ORDER BY v").unwrap();
        let exec = Executor::new(&ctx.catalog, ctx.profile, &ctx.stats);
        assert!(matches!(exec.run_query(&q), Err(DbError::NotFound(_))));
        let q = parse_query("SELECT tag FROM t ORDER BY nope").unwrap();
        assert!(matches!(exec.run_query(&q), Err(DbError::NotFound(_))));
    }

    #[test]
    fn order_by_a_qualified_column_inside_an_expression() {
        let ctx = seeded(EngineProfile::Postgres);
        // listed, unlisted (a hidden column), under an alias
        let r = ctx.query("SELECT t.id FROM t ORDER BY 0 - t.id");
        assert_eq!(r.rows, [3, 2, 1].map(|i| vec![Value::Int(i)]).to_vec());
        let r = ctx.query("SELECT t.tag FROM t ORDER BY t.v * -1 LIMIT 1");
        assert_eq!(r.columns, vec!["tag"]);
        assert_eq!(r.rows, vec![vec![Value::Text("a".into())]]);
        let r = ctx.query("SELECT x.id FROM t AS x ORDER BY x.v + 1 DESC");
        assert_eq!(r.rows, [3, 2, 1].map(|i| vec![Value::Int(i)]).to_vec());
    }

    #[test]
    fn wildcard_and_qualified_wildcard() {
        let ctx = seeded(EngineProfile::Postgres);
        let r = ctx.query("SELECT * FROM t ORDER BY id");
        assert_eq!(r.columns, vec!["id", "v", "tag"]);
        assert_eq!(r.rows.len(), 3);
        let r = ctx.query("SELECT x.* FROM t AS x ORDER BY 1");
        assert_eq!(r.rows.len(), 3);
    }

    #[test]
    fn group_by_aggregates() {
        let ctx = seeded(EngineProfile::Postgres);
        let r = ctx.query(
            "SELECT tag, SUM(v), COUNT(*), AVG(v), MIN(v), MAX(v) FROM t GROUP BY tag ORDER BY tag",
        );
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[0][0], Value::Text("a".into()));
        assert_eq!(r.rows[0][1], Value::Float(5.0));
        assert_eq!(r.rows[0][2], Value::Int(2));
        assert_eq!(r.rows[0][3], Value::Float(2.5));
        assert_eq!(r.rows[0][4], Value::Float(1.5));
        assert_eq!(r.rows[0][5], Value::Float(3.5));
    }

    #[test]
    fn global_aggregate_over_empty_input() {
        let ctx = seeded(EngineProfile::Postgres);
        let r = ctx.query("SELECT SUM(v), COUNT(*) FROM t WHERE id > 100");
        assert_eq!(r.rows, vec![vec![Value::Null, Value::Int(0)]]);
        // with GROUP BY: zero groups
        let r = ctx.query("SELECT tag, SUM(v) FROM t WHERE id > 100 GROUP BY tag");
        assert!(r.rows.is_empty());
    }

    #[test]
    fn having_filters_groups() {
        let ctx = seeded(EngineProfile::Postgres);
        let r = ctx.query("SELECT tag, COUNT(*) FROM t GROUP BY tag HAVING COUNT(*) > 1");
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0][0], Value::Text("a".into()));
    }

    #[test]
    fn joins_same_result_across_profiles() {
        let mut results = Vec::new();
        for p in EngineProfile::ALL {
            let ctx = seeded(p);
            ctx.exec("CREATE TABLE e (src INT, dst INT)").unwrap();
            ctx.exec("INSERT INTO e VALUES (1,2),(2,3),(3,1),(1,3)")
                .unwrap();
            let mut r =
                ctx.query("SELECT t.id, e.dst FROM t JOIN e ON t.id = e.src ORDER BY t.id, e.dst");
            r.rows.sort();
            results.push(r.rows);
        }
        assert_eq!(results[0], results[1]);
        assert_eq!(results[1], results[2]);
        assert_eq!(results[0].len(), 4);
    }

    /// `t` (3 rows) joined to a 200-row `e` indexed on `src`, 2 rows per key.
    fn seeded_with_indexed_edges(profile: EngineProfile) -> Ctx {
        let ctx = seeded(profile);
        ctx.exec("CREATE TABLE e (src INT, dst INT)").unwrap();
        let values: Vec<String> = (0..200).map(|i| format!("({}, {i})", i % 100)).collect();
        ctx.exec(&format!("INSERT INTO e VALUES {}", values.join(", ")))
            .unwrap();
        ctx.exec("CREATE INDEX idx_e_src ON e (src)").unwrap();
        ctx
    }

    fn analyze_lines(ctx: &Ctx, sql: &str) -> Vec<String> {
        match ctx.exec(&format!("EXPLAIN ANALYZE {sql}")).unwrap() {
            StmtOutput::Rows(r) => r.rows.iter().map(|row| row[0].to_string()).collect(),
            _ => panic!("expected rows"),
        }
    }

    fn assert_small_outer_probes(profile: EngineProfile) {
        let ctx = seeded_with_indexed_edges(profile);
        let sql = "SELECT t.id, e.dst FROM t JOIN e ON t.id = e.src";
        let before = ctx.stats.snapshot();
        let r = ctx.query(sql);
        assert_eq!(r.rows.len(), 6, "{profile:?}");
        let d = ctx.stats.snapshot().delta_since(&before);
        assert_eq!(d.index_lookups, 3, "{profile:?}: one probe per outer row");
        // t's 3 rows and the 6 joined rows: e's 200 rows were never scanned
        assert_eq!(d.rows_scanned, 3 + 6, "{profile:?}");
        let lines = analyze_lines(&ctx, sql);
        assert!(
            lines.iter().any(|l| l.contains(
                "IndexNestedLoopJoin using idx_e_src (outer=3, inner=200, fanout=2.0) \
                 (actual rows=6 "
            )),
            "{profile:?}: {lines:?}"
        );
        assert!(
            lines
                .iter()
                .any(|l| l.contains("IndexProbe e (actual rows=6 ")),
            "{profile:?}: {lines:?}"
        );
    }

    #[test]
    fn index_nested_loop_used_on_mysql_profile() {
        assert_small_outer_probes(EngineProfile::MySql);
        assert_small_outer_probes(EngineProfile::MariaDb);
    }

    #[test]
    fn index_nested_loop_used_on_postgres_profile() {
        assert_small_outer_probes(EngineProfile::Postgres);
        // the other way round the 200-row side is the outer one: probing
        // t's primary key 200 times costs more than hashing its 3 rows
        let ctx = seeded_with_indexed_edges(EngineProfile::Postgres);
        let sql = "SELECT t.id, e.dst FROM e JOIN t ON t.id = e.src";
        let before = ctx.stats.snapshot();
        assert_eq!(ctx.query(sql).rows.len(), 6);
        let d = ctx.stats.snapshot().delta_since(&before);
        assert_eq!(d.index_lookups, 0);
        assert_eq!(d.rows_joined, 200, "hash join probes with the larger side");
        let lines = analyze_lines(&ctx, sql);
        assert!(
            lines.iter().any(|l| l.contains("HashJoin (actual rows=6 ")),
            "{lines:?}"
        );
        assert!(
            lines
                .iter()
                .any(|l| l.contains("SeqScan t (actual rows=3 ")),
            "{lines:?}"
        );
    }

    #[test]
    fn where_conjuncts_on_the_outer_table_filter_it_before_the_join() {
        for p in EngineProfile::ALL {
            let ctx = seeded_with_indexed_edges(p);
            let sql = "SELECT t.id, e.dst FROM t JOIN e ON t.id = e.src \
                       WHERE t.v > 2.0 AND e.dst < 150";
            let before = ctx.stats.snapshot();
            let mut r = ctx.query(sql);
            r.rows.sort();
            assert_eq!(
                r.rows,
                vec![
                    vec![Value::Int(2), Value::Int(2)],
                    vec![Value::Int(2), Value::Int(102)],
                    vec![Value::Int(3), Value::Int(3)],
                    vec![Value::Int(3), Value::Int(103)],
                ],
                "{p:?}"
            );
            let d = ctx.stats.snapshot().delta_since(&before);
            assert_eq!(
                d.index_lookups, 2,
                "{p:?}: only rows passing t.v > 2.0 probe"
            );
            let lines = analyze_lines(&ctx, sql);
            assert!(
                lines
                    .iter()
                    .any(|l| l.contains("SeqScan t (pushed-down filter) (actual rows=2 ")),
                "{p:?}: {lines:?}"
            );
            // the statement-level filter still runs (it owns e.dst < 150)
            assert!(
                lines.iter().any(|l| l.trim_start().starts_with("Filter ")),
                "{p:?}: {lines:?}"
            );
        }
    }

    #[test]
    fn pushed_down_conjunct_that_fails_to_evaluate_still_raises_from_where() {
        let ctx = seeded_with_indexed_edges(EngineProfile::Postgres);
        // 1 / (t.id - 2) divides by zero on t.id = 2, a row that joins
        let q = parse_query("SELECT t.id FROM t JOIN e ON t.id = e.src WHERE 1 / (t.id - 2) > 0")
            .unwrap();
        let err = Executor::new(&ctx.catalog, ctx.profile, &ctx.stats).run_query(&q);
        assert!(matches!(err, Err(DbError::Eval(_))), "{err:?}");
    }

    #[test]
    fn union_and_union_all() {
        let ctx = seeded(EngineProfile::Postgres);
        let r = ctx.query("SELECT tag FROM t UNION SELECT tag FROM t");
        assert_eq!(r.rows.len(), 2);
        let r = ctx.query("SELECT tag FROM t UNION ALL SELECT tag FROM t");
        assert_eq!(r.rows.len(), 6);
    }

    #[test]
    fn union_arity_comes_from_the_select_lists() {
        // an empty side has no rows to count columns in
        for profile in EngineProfile::ALL {
            let ctx = seeded(profile);
            ctx.exec("CREATE TABLE e (c INT)").unwrap();
            for sql in [
                "SELECT c FROM e UNION SELECT id, v FROM t",
                "SELECT id, v FROM t UNION ALL SELECT c FROM e",
                "SELECT * FROM (SELECT id, v FROM t UNION ALL SELECT c FROM e) AS d",
                "SELECT c FROM e UNION ALL SELECT c, c FROM e",
            ] {
                let q = parse_query(sql).unwrap();
                let exec = Executor::new(&ctx.catalog, profile, &ctx.stats);
                let err = exec.run_query(&q).unwrap_err().to_string();
                assert!(
                    err.contains("differ in column count"),
                    "{profile}: {sql}: {err}"
                );
            }
            let err = ctx.exec("INSERT INTO e SELECT id, v FROM t UNION SELECT c FROM e");
            assert!(err.is_err(), "{profile}");
        }
    }

    #[test]
    fn distinct() {
        let ctx = seeded(EngineProfile::Postgres);
        let r = ctx.query("SELECT DISTINCT tag FROM t");
        assert_eq!(r.rows.len(), 2);
    }

    #[test]
    fn insert_with_column_list_fills_nulls() {
        let ctx = seeded(EngineProfile::Postgres);
        ctx.exec("INSERT INTO t (id) VALUES (9)").unwrap();
        let r = ctx.query("SELECT v, tag FROM t WHERE id = 9");
        assert_eq!(r.rows, vec![vec![Value::Null, Value::Null]]);
        // a column named twice takes the later value; an INT into FLOAT
        // converts as the lane is built
        ctx.exec("INSERT INTO t (tag, id, v, tag) VALUES ('x', 10, 2, 'y')")
            .unwrap();
        let r = ctx.query("SELECT v, tag FROM t WHERE id = 10");
        assert_eq!(
            r.rows,
            vec![vec![Value::Float(2.0), Value::Text("y".into())]]
        );
    }

    #[test]
    fn insert_rows_of_the_wrong_arity_are_errors_not_panics() {
        let ctx = seeded(EngineProfile::Postgres);
        for (sql, err) in [
            (
                "INSERT INTO t SELECT 4, 1.0",
                "row arity 2 does not match schema arity 3",
            ),
            (
                "INSERT INTO t (id, v) SELECT 4, 1.0, 'x'",
                "INSERT provides 3 values for 2 columns",
            ),
            (
                "INSERT INTO t VALUES (4, 1.0)",
                "row arity 2 does not match schema arity 3",
            ),
            (
                "INSERT INTO t (id, v) VALUES (4, 1.0), (5)",
                "INSERT provides 1 values for 2 columns",
            ),
        ] {
            let got = ctx.exec(sql).unwrap_err().to_string();
            assert_eq!(got, format!("invalid statement: {err}"), "{sql}");
        }
    }

    #[test]
    fn insert_select() {
        let ctx = seeded(EngineProfile::Postgres);
        ctx.exec("CREATE TABLE t2 (id INT PRIMARY KEY, v FLOAT, tag TEXT)")
            .unwrap();
        let out = ctx
            .exec("INSERT INTO t2 SELECT id, v * 2, tag FROM t")
            .unwrap();
        assert_eq!(out.rows_affected(), 3);
        let r = ctx.query("SELECT SUM(v) FROM t2");
        assert_eq!(r.rows[0][0], Value::Float(15.0));
    }

    #[test]
    fn update_simple_and_rows_affected() {
        let ctx = seeded(EngineProfile::Postgres);
        let out = ctx.exec("UPDATE t SET v = v + 1 WHERE tag = 'a'").unwrap();
        assert_eq!(out.rows_affected(), 2);
        let r = ctx.query("SELECT SUM(v) FROM t");
        assert_eq!(r.rows[0][0], Value::Float(9.5));
        // no-op updates are not counted (paper's UNTIL n UPDATES relies on this)
        let out = ctx.exec("UPDATE t SET v = v WHERE tag = 'a'").unwrap();
        assert_eq!(out.rows_affected(), 0);
    }

    #[test]
    fn update_from_join_postgres_form() {
        let ctx = seeded(EngineProfile::Postgres);
        ctx.exec("CREATE TABLE m (id INT PRIMARY KEY, nv FLOAT)")
            .unwrap();
        ctx.exec("INSERT INTO m VALUES (1, 100.0), (3, 300.0)")
            .unwrap();
        let out = ctx
            .exec("UPDATE t SET v = m.nv FROM m WHERE t.id = m.id")
            .unwrap();
        assert_eq!(out.rows_affected(), 2);
        let r = ctx.query("SELECT id, v FROM t ORDER BY id");
        assert_eq!(
            r.rows,
            vec![
                vec![Value::Int(1), Value::Float(100.0)],
                vec![Value::Int(2), Value::Float(2.5)],
                vec![Value::Int(3), Value::Float(300.0)]
            ]
        );
    }

    #[test]
    fn update_join_mysql_form() {
        let ctx = seeded(EngineProfile::MySql);
        ctx.exec("CREATE TABLE m (id INT PRIMARY KEY, nv FLOAT)")
            .unwrap();
        ctx.exec("INSERT INTO m VALUES (2, 42.0)").unwrap();
        let out = ctx
            .exec("UPDATE t JOIN m ON t.id = m.id SET v = m.nv")
            .unwrap();
        assert_eq!(out.rows_affected(), 1);
        let r = ctx.query("SELECT v FROM t WHERE id = 2");
        assert_eq!(r.rows[0][0], Value::Float(42.0));
    }

    #[test]
    fn delete_and_truncate() {
        let ctx = seeded(EngineProfile::Postgres);
        let out = ctx.exec("DELETE FROM t WHERE tag = 'a'").unwrap();
        assert_eq!(out.rows_affected(), 2);
        assert_eq!(
            ctx.query("SELECT COUNT(*) FROM t").rows[0][0],
            Value::Int(1)
        );
        ctx.exec("TRUNCATE TABLE t").unwrap();
        assert_eq!(
            ctx.query("SELECT COUNT(*) FROM t").rows[0][0],
            Value::Int(0)
        );
    }

    #[test]
    fn create_table_as_select() {
        let ctx = seeded(EngineProfile::Postgres);
        ctx.exec("CREATE TABLE copy AS SELECT id, v * 10 AS big FROM t")
            .unwrap();
        let r = ctx.query("SELECT big FROM copy ORDER BY big");
        assert_eq!(r.rows[0][0], Value::Float(15.0));
    }

    #[test]
    fn views_expand() {
        let ctx = seeded(EngineProfile::Postgres);
        ctx.exec("CREATE VIEW va AS SELECT id, v FROM t WHERE tag = 'a'")
            .unwrap();
        let r = ctx.query("SELECT COUNT(*) FROM va");
        assert_eq!(r.rows[0][0], Value::Int(2));
        // view joins like a table
        let r = ctx.query("SELECT t.id FROM t JOIN va ON t.id = va.id");
        assert_eq!(r.rows.len(), 2);
    }

    #[test]
    fn circular_views_detected() {
        let ctx = seeded(EngineProfile::Postgres);
        // a view can reference a not-yet-existing view; cycle caught at runtime
        ctx.exec("CREATE VIEW v1 AS SELECT * FROM v2").ok();
        // v2 doesn't exist yet: creating is fine, querying fails cleanly
        let q = parse_query("SELECT * FROM v1").unwrap();
        let e = Executor::new(&ctx.catalog, ctx.profile, &ctx.stats).run_query(&q);
        assert!(e.is_err());
    }

    #[test]
    fn values_query() {
        let ctx = Ctx::new(EngineProfile::Postgres);
        let r = ctx.query("VALUES (0, 1), (1, 1)");
        assert_eq!(r.columns, vec!["column1", "column2"]);
        assert_eq!(r.rows.len(), 2);
    }

    #[test]
    fn undo_rolls_back_dml() {
        let ctx = seeded(EngineProfile::Postgres);
        let stmt = parse_statement("UPDATE t SET v = 0.0").unwrap();
        let mut undo = UndoLog::new();
        Executor::new(&ctx.catalog, ctx.profile, &ctx.stats)
            .run_statement(&stmt, &mut undo)
            .unwrap();
        assert_eq!(
            ctx.query("SELECT SUM(v) FROM t").rows[0][0],
            Value::Float(0.0)
        );
        crate::txn::apply_undo(&ctx.catalog, undo.take_all()).unwrap();
        assert_eq!(
            ctx.query("SELECT SUM(v) FROM t").rows[0][0],
            Value::Float(7.5)
        );
    }

    #[test]
    fn cross_join_via_comma() {
        let ctx = seeded(EngineProfile::Postgres);
        let r = ctx.query("SELECT a.id, b.id FROM t AS a, t AS b");
        assert_eq!(r.rows.len(), 9);
    }

    #[test]
    fn explain_analyze_reports_actual_rows_across_profiles() {
        for p in EngineProfile::ALL {
            let ctx = seeded(p);
            ctx.exec("CREATE TABLE e (src INT, dst INT)").unwrap();
            ctx.exec("INSERT INTO e VALUES (1,2),(2,3),(3,1),(1,3)")
                .unwrap();
            let out = ctx
                .exec(
                    "EXPLAIN ANALYZE SELECT t.id, e.dst FROM t JOIN e ON t.id = e.src \
                     WHERE e.dst > 1 ORDER BY t.id LIMIT 3",
                )
                .unwrap();
            let lines: Vec<String> = match out {
                StmtOutput::Rows(r) => r
                    .rows
                    .iter()
                    .map(|row| match &row[0] {
                        Value::Text(t) => t.clone(),
                        other => other.to_string(),
                    })
                    .collect(),
                _ => panic!("expected rows"),
            };
            // root operator is the LIMIT; its actual cardinality is the
            // query's result cardinality
            assert!(
                lines[0].starts_with("Limit 3 (actual rows=3"),
                "profile {p:?}: {lines:?}"
            );
            assert!(
                lines.iter().any(|l| l.contains("SeqScan t")),
                "profile {p:?}: {lines:?}"
            );
            assert!(
                lines
                    .iter()
                    .any(|l| l.contains("Join") && l.contains("actual rows=4")),
                "profile {p:?}: {lines:?}"
            );
            assert!(
                lines.last().unwrap().starts_with("Execution: rows=3 "),
                "profile {p:?}: {lines:?}"
            );
        }
    }

    #[test]
    fn explain_analyze_rejects_dml() {
        let ctx = seeded(EngineProfile::Postgres);
        let err = ctx.exec("EXPLAIN ANALYZE INSERT INTO t VALUES (9, 0.0, 'z')");
        assert!(matches!(err, Err(DbError::Unsupported(_))), "{err:?}");
    }

    #[test]
    fn profiler_tree_mirrors_execution_phases() {
        let ctx = seeded(EngineProfile::Postgres);
        let q = parse_query("SELECT tag, COUNT(*) FROM t WHERE v > 1.0 GROUP BY tag").unwrap();
        let prof = OpProfiler::new();
        Executor::new(&ctx.catalog, ctx.profile, &ctx.stats)
            .with_profiler(&prof)
            .run_query(&q)
            .unwrap();
        let roots = prof.take();
        assert_eq!(roots.len(), 1);
        let agg = &roots[0];
        assert_eq!(agg.label, "HashAggregate (group by 1 keys)");
        assert_eq!(agg.rows_out, 2);
        assert_eq!(agg.calls, 3);
        let filter = &agg.children[0];
        assert_eq!(filter.label, "Filter");
        assert_eq!(filter.rows_out, 3);
        let scan = &filter.children[0];
        assert_eq!(scan.label, "SeqScan t");
        assert_eq!(scan.rows_out, 3);
        assert_eq!(scan.calls, 3);
    }

    #[test]
    fn expired_deadline_fails_with_timeout() {
        let ctx = seeded(EngineProfile::Postgres);
        let q = parse_query("SELECT * FROM t").unwrap();
        let err = Executor::new(&ctx.catalog, ctx.profile, &ctx.stats)
            .with_deadline(Some(Instant::now() - std::time::Duration::from_millis(10)))
            .run_query(&q);
        assert!(matches!(err, Err(DbError::Timeout(_))), "{err:?}");
    }

    #[test]
    fn intermediate_materialization_charged_and_refunded() {
        let ctx = seeded(EngineProfile::Postgres);
        let budget = ctx.catalog.memory_budget().clone();
        let base = budget.used();
        // a tight limit stops the cross join while it is materializing…
        let limit = base + 4096;
        budget.set_limit(Some(limit));
        let q = parse_query("SELECT a.id FROM t AS a, t AS b, t AS c, t AS d, t AS e").unwrap();
        let exec = Executor::new(&ctx.catalog, ctx.profile, &ctx.stats).with_batch_size(Some(4));
        let err = exec.run_query(&q);
        assert!(matches!(err, Err(DbError::BudgetExceeded(_))), "{err:?}");
        // …at the first batch that does not fit, not once all 243 rows
        // exist: the charge never passed the limit, and got within one
        // 4-row batch (at most 15 columns of 34 bytes) of it
        assert!(budget.peak() <= limit, "{} > {limit}", budget.peak());
        assert!(budget.peak() + 4 * 15 * 34 > limit, "{}", budget.peak());
        // the failed statement refunds every batch it was charged for
        assert_eq!(budget.used(), base);
        budget.set_limit(None);
        assert_eq!(exec.run_query(&q).unwrap().rows.len(), 243);
        assert_eq!(budget.used(), base);
    }

    #[test]
    fn expired_deadline_times_out_inside_the_join() {
        // `run_query` checks the deadline before it starts; the FROM clause
        // on its own shows the joins check it too
        let ctx = seeded(EngineProfile::Postgres);
        let q = parse_query("SELECT a.id FROM t AS a, t AS b, t AS c").unwrap();
        let SetExpr::Select(s) = &q.body else {
            panic!("a plain SELECT");
        };
        let exec = Executor::new(&ctx.catalog, ctx.profile, &ctx.stats);
        assert_eq!(
            exec.build_from(&s.from, 0, |_| Vec::new(), &[])
                .unwrap()
                .len(),
            27
        );
        let expired =
            exec.with_deadline(Some(Instant::now() - std::time::Duration::from_millis(10)));
        let err = expired.build_from(&s.from, 0, |_| Vec::new(), &[]);
        assert!(matches!(err, Err(DbError::Timeout(_))), "{err:?}");
    }

    #[test]
    fn self_left_join_pagerank_shape() {
        // the exact join shape of the paper's Example 2 iterative part
        let ctx = Ctx::new(EngineProfile::Postgres);
        ctx.exec("CREATE TABLE pr (node INT PRIMARY KEY, rank FLOAT, delta FLOAT)")
            .unwrap();
        ctx.exec("INSERT INTO pr VALUES (1, 0.0, 0.15), (2, 0.0, 0.15), (3, 0.0, 0.15)")
            .unwrap();
        ctx.exec("CREATE TABLE edges (src INT, dst INT, weight FLOAT)")
            .unwrap();
        ctx.exec("INSERT INTO edges VALUES (1, 2, 1.0), (2, 3, 0.5), (2, 1, 0.5)")
            .unwrap();
        let r = ctx.query(
            "SELECT pr.node, COALESCE(pr.rank + pr.delta, 0.15), \
             COALESCE(0.85 * SUM(ir.delta * ie.weight), 0.0) \
             FROM pr LEFT JOIN edges AS ie ON pr.node = ie.dst \
             LEFT JOIN pr AS ir ON ir.node = ie.src \
             GROUP BY pr.node ORDER BY pr.node",
        );
        assert_eq!(r.rows.len(), 3);
        // node 1 receives 0.85 * 0.15 * 0.5 from node 2
        assert_eq!(r.rows[0][2], Value::Float(0.85 * 0.15 * 0.5));
        // node 3 receives 0.85 * 0.15 * 0.5 from node 2
        assert_eq!(r.rows[2][2], Value::Float(0.85 * 0.15 * 0.5));
        // every node's new rank accumulates its delta
        assert_eq!(r.rows[1][1], Value::Float(0.15));
    }

    #[test]
    fn vectorized_and_row_paths_agree() {
        for p in EngineProfile::ALL {
            let ctx = seeded(p);
            ctx.exec("INSERT INTO t VALUES (7, NULL, NULL)").unwrap();
            for sql in [
                "SELECT id, v FROM t WHERE v > 1.0 ORDER BY id",
                "SELECT tag, COUNT(*), SUM(v), AVG(v), MIN(v), MAX(v) \
                 FROM t GROUP BY tag ORDER BY tag",
                "SELECT a.id, b.tag FROM t AS a JOIN t AS b ON a.id = b.id \
                 WHERE a.v >= 0.5 ORDER BY a.id",
                "SELECT id, CASE WHEN v > 1.0 THEN 'hi' ELSE 'lo' END FROM t ORDER BY id",
                "SELECT DISTINCT tag FROM t ORDER BY tag",
                "SELECT COUNT(*) FROM t WHERE tag = 'a' AND v > 0.0",
                "SELECT id + 1 AS id2, v * 2.0, -v FROM t ORDER BY id2",
                "SELECT id FROM t WHERE v IS NULL OR tag = 'b' ORDER BY id",
                "SELECT SUM(v) FROM t WHERE v > 100.0",
            ] {
                let q = parse_query(sql).unwrap();
                let vec_out = Executor::new(&ctx.catalog, ctx.profile, &ctx.stats)
                    .run_query(&q)
                    .unwrap();
                let row_out = Executor::new(&ctx.catalog, ctx.profile, &ctx.stats)
                    .with_row_oracle()
                    .run_query(&q)
                    .unwrap();
                assert_eq!(vec_out, row_out, "profile {p:?} sql {sql}");
            }
        }
    }

    #[test]
    fn vectorized_errors_match_row_path() {
        for p in EngineProfile::ALL {
            let ctx = seeded(p);
            for sql in [
                // division by zero reached through a batch kernel
                "SELECT id / 0 FROM t",
                // an error on the taken path of a fallible AND right side
                "SELECT id FROM t WHERE v IS NOT NULL AND id / (id - id) > 0 ORDER BY id",
                // an error hidden behind a short-circuiting AND must NOT fire
                "SELECT id FROM t WHERE v IS NULL AND id / (id - id) > 0 ORDER BY id",
            ] {
                let q = parse_query(sql).unwrap();
                let vec_out = Executor::new(&ctx.catalog, ctx.profile, &ctx.stats).run_query(&q);
                let row_out = Executor::new(&ctx.catalog, ctx.profile, &ctx.stats)
                    .with_row_oracle()
                    .run_query(&q);
                match (vec_out, row_out) {
                    (Ok(a), Ok(b)) => assert_eq!(a, b, "profile {p:?} sql {sql}"),
                    (Err(a), Err(b)) => {
                        assert_eq!(a.to_string(), b.to_string(), "profile {p:?} sql {sql}")
                    }
                    (a, b) => panic!("paths disagree for {sql} on {p:?}: {a:?} vs {b:?}"),
                }
            }
        }
    }

    #[test]
    fn batched_pipeline_reports_batch_actuals() {
        // MySQL's 256-row batches over 600 rows → 3 batches at the scan
        let ctx = Ctx::new(EngineProfile::MySql);
        ctx.exec("CREATE TABLE big (id INT PRIMARY KEY, v FLOAT)")
            .unwrap();
        let tuples: Vec<String> = (0..600).map(|i| format!("({i}, {}.5)", i % 10)).collect();
        ctx.exec(&format!("INSERT INTO big VALUES {}", tuples.join(",")))
            .unwrap();
        let q = parse_query("SELECT v, COUNT(*) FROM big WHERE id >= 0 GROUP BY v").unwrap();
        let prof = OpProfiler::new();
        let out = Executor::new(&ctx.catalog, ctx.profile, &ctx.stats)
            .with_profiler(&prof)
            .run_query(&q)
            .unwrap();
        assert_eq!(out.rows.len(), 10);
        let roots = prof.take();
        assert_eq!(roots.len(), 1);
        let agg = &roots[0];
        assert_eq!(agg.label, "HashAggregate (group by 1 keys)");
        assert_eq!(agg.batches, 3);
        assert_eq!(agg.calls, 600);
        let filter = &agg.children[0];
        assert_eq!(filter.label, "Filter");
        assert_eq!(filter.batches, 3);
        let scan = &filter.children[0];
        assert_eq!(scan.label, "SeqScan big");
        assert_eq!(scan.batches, 3);
        let mut lines = Vec::new();
        roots[0].render(0, &mut lines);
        assert!(lines[0].contains("batches=3 rows/batch=200"), "{lines:?}");
        // rows-out at the root must stay oracle-exact in either mode
        let row_out = Executor::new(&ctx.catalog, ctx.profile, &ctx.stats)
            .with_row_oracle()
            .run_query(&q)
            .unwrap();
        assert_eq!(out, row_out);
    }

    #[test]
    fn a_derived_table_is_read_in_full_batches() {
        // a Gather's shape: GROUP BY over a 16-branch UNION ALL whose
        // branches yield 4 rows each folds one 64-row batch, not 16 of 4
        let ctx = Ctx::new(EngineProfile::MySql);
        ctx.exec("CREATE TABLE s (id INT, v FLOAT)").unwrap();
        ctx.exec("INSERT INTO s VALUES (1, 0.5), (2, 1.5), (1, 2.5), (3, 3.5)")
            .unwrap();
        let union = vec!["SELECT id, v FROM s"; 16].join(" UNION ALL ");
        let sql = format!("SELECT u.id, SUM(u.v) FROM ({union}) AS u GROUP BY u.id");
        let q = parse_query(&sql).unwrap();
        let prof = OpProfiler::new();
        let out = Executor::new(&ctx.catalog, ctx.profile, &ctx.stats)
            .with_profiler(&prof)
            .run_query(&q)
            .unwrap();
        let mut lines = Vec::new();
        prof.take()[0].render(0, &mut lines);
        assert!(lines[0].starts_with("HashAggregate"), "{lines:?}");
        assert!(lines[0].contains("batches=1 rows/batch=64"), "{lines:?}");
        let row_out = Executor::new(&ctx.catalog, ctx.profile, &ctx.stats)
            .with_row_oracle()
            .run_query(&q)
            .unwrap();
        assert_eq!(out, row_out);
        assert_eq!(out.rows.len(), 3);
    }

    #[test]
    fn columnar_intermediates_charged_and_refunded() {
        // satellite regression: a memory squeeze during batched aggregation
        // fails with the typed budget error and refunds every reservation;
        // a scan of `t` alone holds no charge (its rows are positions in
        // the heap), the derived table's materialized rows do
        let ctx = seeded(EngineProfile::Postgres);
        let budget = ctx.catalog.memory_budget().clone();
        let base = budget.used();
        budget.set_limit(Some(base + 1));
        let q = "SELECT d.tag, SUM(d.v) FROM (SELECT tag, v FROM t) AS d GROUP BY d.tag";
        let q = parse_query(q).unwrap();
        let err = Executor::new(&ctx.catalog, ctx.profile, &ctx.stats).run_query(&q);
        assert!(matches!(err, Err(DbError::BudgetExceeded(_))), "{err:?}");
        assert_eq!(budget.used(), base);
        budget.set_limit(None);
        assert!(Executor::new(&ctx.catalog, ctx.profile, &ctx.stats)
            .run_query(&q)
            .is_ok());
        assert_eq!(budget.used(), base);
    }
}
