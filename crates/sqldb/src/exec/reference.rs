//! The row-at-a-time reference evaluator, compiled into tests only.
//!
//! It rebuilds rows from the `FROM` clause's batches and filters, groups
//! and projects them one at a time with the scalar evaluator. The
//! equivalence tests hold the batch pipeline to it: same rows, same order,
//! same first error. An executor built [`Executor::with_row_oracle`] runs
//! every `SELECT` here, nested ones (views, derived tables, set-operation
//! sides) included; the `FROM` clause's scans and joins are shared.

use super::*;

impl Rel {
    /// The rows, every column gathered, for the reference evaluator and
    /// the join tests.
    pub(crate) fn rows(&self) -> Vec<Row> {
        let all = vec![true; self.arity()];
        let mut rows = Vec::with_capacity(self.len());
        for pos in self.batches() {
            self.gather(pos, &all).append_rows_to(&mut rows);
        }
        rows
    }
}

impl<'a> Executor<'a> {
    /// Runs every `SELECT` on the reference evaluator, and reads every
    /// column of every `FROM` factor and DML target, so the pruned plans
    /// are held to unpruned ones.
    pub(crate) fn with_row_oracle(mut self) -> Executor<'a> {
        self.row_oracle = true;
        self.reads = None;
        self
    }

    /// A `SELECT` (without its `DISTINCT`) on the reference evaluator: rows
    /// are rebuilt from the `FROM` clause's batches, and WHERE / aggregation
    /// / projection run a row at a time.
    pub(super) fn select_rows(
        &self,
        s: &Select,
        depth: usize,
        order_by: &[OrderByExpr],
    ) -> DbResult<Batches> {
        let (rel, _) = self.select_from(s, depth)?;
        let mut rows = rel.rows();
        if let Some(pred) = &s.selection {
            let t0 = self.prof_start();
            let rows_in = rows.len() as u64;
            let bound = bind_scalar(pred, &rel.scope, self.params)?;
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
            return self.exec_project(s, order_by, &rel.scope, &rows);
        }
        let t0 = self.prof_start();
        let out = self.exec_aggregate(s, order_by, &rel.scope, &rows)?;
        if let Some(p) = self.prof {
            p.wrap(
                1,
                format!("HashAggregate (group by {} keys)", s.group_by.len()),
                out.len() as u64,
                rows.len() as u64,
                t0.map(us_since).unwrap_or(0),
            );
        }
        Ok(out)
    }

    fn exec_project(
        &self,
        s: &Select,
        order_by: &[OrderByExpr],
        scope: &Scope,
        input: &[Row],
    ) -> DbResult<Batches> {
        let (columns, exprs, hidden) = bind_projections(s, order_by, scope, self.params)?;
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
        let mut out = Batches::from_result(QueryResult { columns, rows }, self.batch_rows());
        out.hidden = hidden;
        Ok(out)
    }

    fn exec_aggregate(
        &self,
        s: &Select,
        order_by: &[OrderByExpr],
        scope: &Scope,
        input: &[Row],
    ) -> DbResult<Batches> {
        let grouped = GroupedSelect::bind(s, order_by, scope, self.params)?;
        let (key_exprs, aggs) = (&grouped.key_exprs, &grouped.aggs);

        // group rows; the key lives only in the index map (each group keeps a
        // representative row for projecting group-by columns, and one
        // accumulator per aggregate call), so the entry API moves each key in
        // without a clone
        let (mut reps, mut accs): (Vec<Row>, Vec<Vec<AggAcc>>) = (Vec::new(), Vec::new());
        let new_accs = || aggs.iter().map(|a| AggAcc::new(a.func)).collect();
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
                accs.push(new_accs());
                reps.len() - 1
            });
            for (acc, spec) in accs[gi].iter_mut().zip(aggs) {
                let v = match &spec.arg {
                    Some(e) => Some(e.eval(row)?),
                    None => None,
                };
                acc.update(v);
            }
        }
        // a global aggregate over no rows still yields its one group
        if reps.is_empty() && key_exprs.is_empty() {
            reps.push(vec![Value::Null; scope.arity()]);
            accs.push(new_accs());
        }
        let n = reps.len();
        let mut results = vec![Vec::with_capacity(n); aggs.len()];
        for group in accs {
            let finished = group.into_iter().map(AggAcc::finish);
            results
                .iter_mut()
                .zip(finished)
                .for_each(|(r, v)| r.push(v));
        }
        let mut cols = ColumnBatch::from_rows(reps, scope.arity()).into_cols();
        cols.extend(results.into_iter().map(Col::from_values));
        grouped.finish_batch(ColumnBatch::from_cols(cols, n), self.stats)
    }
}

/// One group's accumulator for one aggregate call, fed a row at a time:
/// the definition the batch pipeline's typed accumulators are held to.
#[derive(Debug)]
enum AggAcc {
    /// Running SUM (NULL until the first non-NULL input).
    Sum(Option<Value>),
    /// Running MIN.
    Min(Option<Value>),
    /// Running MAX.
    Max(Option<Value>),
    /// COUNT(*) / COUNT(expr).
    Count(i64),
    /// AVG as (sum, count).
    Avg { sum: f64, n: i64 },
}

impl AggAcc {
    fn new(func: AggregateFunction) -> AggAcc {
        match func {
            AggregateFunction::Sum => AggAcc::Sum(None),
            AggregateFunction::Min => AggAcc::Min(None),
            AggregateFunction::Max => AggAcc::Max(None),
            AggregateFunction::Count => AggAcc::Count(0),
            AggregateFunction::Avg => AggAcc::Avg { sum: 0.0, n: 0 },
        }
    }

    /// Feeds one input; `None` means `COUNT(*)` (no argument).
    fn update(&mut self, v: Option<Value>) {
        match self {
            AggAcc::Count(n) => {
                let counts = match &v {
                    None => true,            // COUNT(*)
                    Some(v) => !v.is_null(), // COUNT(expr)
                };
                if counts {
                    *n += 1;
                }
            }
            AggAcc::Sum(acc) => {
                if let Some(v) = v {
                    if !v.is_null() {
                        *acc = Some(match acc.take() {
                            None => v,
                            // overflow saturates to float rather than erroring
                            Some(cur) => cur.add(&v).unwrap_or_else(|_| {
                                Value::Float(
                                    cur.as_f64().unwrap_or(0.0) + v.as_f64().unwrap_or(0.0),
                                )
                            }),
                        });
                    }
                }
            }
            AggAcc::Min(acc) => {
                if let Some(v) = v {
                    if !v.is_null() {
                        let replace = match acc {
                            None => true,
                            Some(cur) => v.total_cmp(cur) == std::cmp::Ordering::Less,
                        };
                        if replace {
                            *acc = Some(v);
                        }
                    }
                }
            }
            AggAcc::Max(acc) => {
                if let Some(v) = v {
                    if !v.is_null() {
                        let replace = match acc {
                            None => true,
                            Some(cur) => v.total_cmp(cur) == std::cmp::Ordering::Greater,
                        };
                        if replace {
                            *acc = Some(v);
                        }
                    }
                }
            }
            AggAcc::Avg { sum, n } => {
                if let Some(v) = v {
                    if let Some(f) = v.as_f64() {
                        *sum = canonical_nan(*sum + f);
                        *n += 1;
                    }
                }
            }
        }
    }

    fn finish(self) -> Value {
        match self {
            AggAcc::Sum(v) | AggAcc::Min(v) | AggAcc::Max(v) => v.unwrap_or(Value::Null),
            AggAcc::Count(n) => Value::Int(n),
            AggAcc::Avg { sum, n } => {
                if n == 0 {
                    Value::Null
                } else {
                    Value::Float(sum / n as f64)
                }
            }
        }
    }
}
