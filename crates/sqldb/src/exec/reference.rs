//! The row-at-a-time reference evaluator, compiled into tests only.
//!
//! It rebuilds rows from the `FROM` clause's batches and filters, groups
//! and projects them one at a time with the scalar evaluator. The
//! equivalence tests hold the batch pipeline to it: same rows, same order,
//! same first error. An executor built [`Executor::with_row_oracle`] runs
//! every `SELECT` here, nested ones (views, derived tables, set-operation
//! sides) included; the `FROM` clause's scans and joins are shared.

use super::*;

impl<'a> Executor<'a> {
    /// Runs every `SELECT` on the reference evaluator.
    pub(crate) fn with_row_oracle(mut self) -> Executor<'a> {
        self.row_oracle = true;
        self
    }

    /// A `SELECT` (without its `DISTINCT`) on the reference evaluator: rows
    /// are rebuilt from the `FROM` clause's batches, and WHERE / aggregation
    /// / projection run a row at a time.
    pub(super) fn select_rows(&self, s: &Select, depth: usize) -> DbResult<QueryResult> {
        let (rel, _) = self.select_from(s, depth)?;
        let mut rows = rel.rows();
        if let Some(pred) = &s.selection {
            let t0 = self.prof_start();
            let rows_in = rows.len() as u64;
            let bound = bind_scalar(pred, &rel.scope)?;
            let mut kept = Vec::with_capacity(rows.len());
            for (i, row) in rows.into_iter().enumerate() {
                if i & 0xFFF == 0 {
                    self.check_deadline()?;
                }
                if bound.eval(&row)?.is_truthy() {
                    kept.push(row);
                }
            }
            rows = kept;
            if let Some(p) = self.prof {
                p.wrap(
                    1,
                    "Filter".to_string(),
                    rows.len() as u64,
                    rows_in,
                    t0.map(us_since).unwrap_or(0),
                );
            }
        }
        if !is_grouped(s) {
            return self.exec_project(s, &rel.scope, &rows);
        }
        let t0 = self.prof_start();
        let out = self.exec_aggregate(s, &rel.scope, &rows)?;
        if let Some(p) = self.prof {
            p.wrap(
                1,
                format!("HashAggregate (group by {} keys)", s.group_by.len()),
                out.rows.len() as u64,
                rows.len() as u64,
                t0.map(us_since).unwrap_or(0),
            );
        }
        Ok(out)
    }

    fn exec_project(&self, s: &Select, scope: &Scope, input: &[Row]) -> DbResult<QueryResult> {
        let (columns, exprs) = bind_projections(s, scope)?;
        let mut rows = Vec::with_capacity(input.len());
        for (i, row) in input.iter().enumerate() {
            if i & 0xFFF == 0 {
                self.check_deadline()?;
            }
            let mut out = Vec::with_capacity(exprs.len());
            for e in &exprs {
                out.push(e.eval(row)?);
            }
            rows.push(out);
        }
        Ok(QueryResult { columns, rows })
    }

    fn exec_aggregate(&self, s: &Select, scope: &Scope, input: &[Row]) -> DbResult<QueryResult> {
        let grouped = GroupedSelect::bind(s, scope)?;
        let (key_exprs, aggs) = (&grouped.key_exprs, &grouped.aggs);

        // group rows; the key lives only in the index map (each group keeps a
        // representative row for projecting group-by columns), so the entry
        // API moves each key in without a clone
        let (mut groups, mut reps) = (Groups::default(), Vec::new());
        let mut index: KeyMap<Vec<Value>, usize> = KeyMap::default();
        for (i, row) in input.iter().enumerate() {
            if i & 0xFFF == 0 {
                self.check_deadline()?;
            }
            let mut key = Vec::with_capacity(key_exprs.len());
            for k in key_exprs {
                key.push(k.eval(row)?);
            }
            let gi = *index.entry(key).or_insert_with(|| {
                reps.push(row.clone());
                groups.open(&grouped, 0, reps.len() - 1)
            });
            for (acc, spec) in groups.accs(gi).iter_mut().zip(aggs) {
                let v = match &spec.arg {
                    Some(e) => Some(e.eval(row)?),
                    None => None,
                };
                acc.update(v);
            }
        }
        let reps = [ColumnBatch::from_rows(reps, scope.arity())];
        let out = grouped.finish_batch(&reps, groups, scope.arity())?;
        Ok(out.into_result())
    }
}
