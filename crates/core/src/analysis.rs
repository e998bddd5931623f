//! Query analysis for automatic parallelization (paper §V-A).
//!
//! SQLoop parallelizes iterative parts of the *incoming-information* shape:
//!
//! ```sql
//! SELECT R.key, <local exprs over R>, COALESCE([scale *] AGG(msg over S, E), dflt)
//! FROM R
//! LEFT JOIN <edges> AS E ON R.key = E.<dst>
//! LEFT JOIN R       AS S ON S.key = E.<src>
//! [WHERE pred]
//! GROUP BY R.key
//! ```
//!
//! where `AGG ∈ {SUM, MIN, MAX, COUNT, AVG}` and the self-join `S` carries
//! the incoming information. The analyzer extracts everything the parallel
//! executor needs; queries outside this class report
//! [`NotParallelizable`](AnalysisOutcome::NotParallelizable) with a reason
//! and fall back to the single-threaded executor, exactly as in the paper.

use crate::error::{SqloopError, SqloopResult};
use crate::grammar::IterativeCte;
use sqldb::ast::*;
use sqldb::Value;

/// Why/how the iterative part can run in parallel.
#[derive(Debug, Clone)]
pub enum AnalysisOutcome {
    /// The query fits the parallelizable class.
    Parallelizable(ParallelPlan),
    /// It does not; the single-threaded executor must run it.
    NotParallelizable {
        /// Human-readable reason, surfaced in reports.
        reason: String,
    },
}

/// Everything the Compute/Gather machinery needs (paper §V-B..D).
#[derive(Debug, Clone)]
pub struct ParallelPlan {
    /// The detected aggregate function.
    pub aggregate: AggregateFunction,
    /// Index of the delta column (`Ridelta`) within the CTE columns.
    pub delta_index: usize,
    /// Per-column local update expressions `(column index, expr)`;
    /// expressions reference `R`'s own columns, rewritten unqualified.
    pub local_exprs: Vec<(usize, Expr)>,
    /// The per-edge message expression (scale folded in); references the
    /// source row via [`SOURCE_QUAL`] and edge columns via [`EDGE_QUAL`].
    pub message_expr: Expr,
    /// Conjuncts of the `WHERE` clause referencing only the source side,
    /// usable as a message filter (rewritten to [`SOURCE_QUAL`]/[`EDGE_QUAL`]).
    pub source_filter: Vec<Expr>,
    /// `WHERE` conjuncts that could not be classified; they are *ignored*
    /// by the parallel path (safe under delta-reset semantics — see
    /// DESIGN.md) but recorded for the report.
    pub ignored_filters: usize,
    /// The edge relation name.
    pub edge_table: String,
    /// Edge column equated with `R.key` (incoming side, "dst").
    pub edge_dst_col: String,
    /// Edge column equated with `S.key` (source side, "src").
    pub edge_src_col: String,
    /// Edge columns referenced by the message expression / filters.
    pub edge_cols_used: Vec<String>,
}

/// Canonical qualifier for the self-joined source row in rewritten
/// expressions (`S` in the paper's notation).
pub const SOURCE_QUAL: &str = "__s";
/// Canonical qualifier for the edge row in rewritten expressions.
pub const EDGE_QUAL: &str = "__e";

impl ParallelPlan {
    /// The aggregate's identity element — the value the delta column resets
    /// to after a Compute task consumes it (paper §V-D).
    pub fn identity(&self) -> Value {
        match self.aggregate {
            AggregateFunction::Sum | AggregateFunction::Count | AggregateFunction::Avg => {
                Value::Float(0.0)
            }
            AggregateFunction::Min => Value::Float(f64::INFINITY),
            AggregateFunction::Max => Value::Float(f64::NEG_INFINITY),
        }
    }

    /// SQL literal for [`ParallelPlan::identity`] in the canonical dialect.
    pub fn identity_sql(&self) -> &'static str {
        match self.aggregate {
            AggregateFunction::Sum | AggregateFunction::Count | AggregateFunction::Avg => "0.0",
            AggregateFunction::Min => "Infinity",
            AggregateFunction::Max => "-Infinity",
        }
    }
}

/// Analyzes the iterative part of `cte` against its resolved `columns`.
///
/// # Errors
/// Only internal errors; an unparallelizable query is a *successful*
/// analysis with [`AnalysisOutcome::NotParallelizable`].
pub fn analyze(cte: &IterativeCte, columns: &[String]) -> SqloopResult<AnalysisOutcome> {
    match try_analyze(cte, columns) {
        Ok(plan) => Ok(AnalysisOutcome::Parallelizable(plan)),
        Err(SqloopError::Semantic(reason)) => Ok(AnalysisOutcome::NotParallelizable { reason }),
        Err(other) => Err(other),
    }
}

fn bail<T>(reason: impl Into<String>) -> SqloopResult<T> {
    Err(SqloopError::Semantic(reason.into()))
}

fn try_analyze(cte: &IterativeCte, columns: &[String]) -> SqloopResult<ParallelPlan> {
    let select = match &cte.step.body {
        SetExpr::Select(s) if cte.step.order_by.is_empty() && cte.step.limit.is_none() => s,
        _ => return bail("iterative part is not a plain SELECT"),
    };
    if select.from.len() != 1 {
        return bail("iterative part must have a single FROM chain");
    }
    let tr = &select.from[0];
    // base must be R itself
    let base_alias = match &tr.base {
        TableFactor::Table { name, alias } if *name == cte.name => {
            alias.clone().unwrap_or_else(|| cte.name.clone())
        }
        _ => return bail("FROM must start with the CTE table"),
    };
    if tr.joins.len() != 2 {
        return bail("expected exactly two joins (edges, then the self-join)");
    }
    // join 1: the edge relation
    let (edge_table, edge_alias) = match &tr.joins[0].factor {
        TableFactor::Table { name, alias } if *name != cte.name => {
            (name.clone(), alias.clone().unwrap_or_else(|| name.clone()))
        }
        _ => return bail("first join must be the edge relation"),
    };
    // join 2: the self-join carrying incoming information (paper §V-A)
    let source_alias = match &tr.joins[1].factor {
        TableFactor::Table { name, alias } if *name == cte.name => match alias {
            Some(a) => a.clone(),
            None => return bail("self-join must be aliased"),
        },
        _ => return bail("second join must be a self-join of the CTE table"),
    };
    let key = &columns[0];

    // ON conditions
    let edge_dst_col = extract_join_key(tr.joins[0].on.as_ref(), &base_alias, key, &edge_alias)
        .ok_or_else(|| SqloopError::Semantic("edge join must be `R.key = E.<col>`".into()))?;
    let edge_src_col =
        extract_join_key(tr.joins[1].on.as_ref(), &source_alias, key, &edge_alias)
            .ok_or_else(|| SqloopError::Semantic("self-join must be `S.key = E.<col>`".into()))?;

    // GROUP BY R.key
    let group_ok = select.group_by.len() == 1
        && matches!(
            &select.group_by[0],
            Expr::Column { table, name }
                if *name == *key
                    && table.as_deref().map(|t| t == base_alias).unwrap_or(true)
        );
    if !group_ok {
        return bail("GROUP BY must be exactly the CTE key column");
    }
    if select.distinct || select.having.is_some() {
        return bail("DISTINCT/HAVING are not parallelizable");
    }

    // projections
    if select.projections.len() != columns.len() {
        return bail("iterative part must project every CTE column");
    }
    let sides = Sides {
        cte: &cte.name,
        base: &base_alias,
        source: &source_alias,
        edge: &edge_alias,
    };
    let first = match &select.projections[0] {
        SelectItem::Expr { expr, .. } => expr,
        _ => return bail("projections must be expressions"),
    };
    match first {
        Expr::Column { table, name }
            if *name == *key && table.as_deref().map(|t| t == base_alias).unwrap_or(true) => {}
        _ => return bail("first projection must be the CTE key column"),
    }

    let mut delta: Option<(usize, AggregateFunction, Expr)> = None;
    let mut local_exprs = Vec::new();
    let mut edge_cols_used = Vec::new();
    for (i, item) in select.projections.iter().enumerate().skip(1) {
        let expr = match item {
            SelectItem::Expr { expr, .. } => expr,
            _ => return bail("projections must be expressions"),
        };
        if expr.contains_aggregate() {
            if delta.is_some() {
                return bail("only one aggregated (delta) column is supported");
            }
            let (agg, msg) = extract_aggregate_shape(expr, &sides, &mut edge_cols_used)?;
            delta = Some((i, agg, msg));
        } else {
            // local update: must reference only R's own columns
            let rewritten = rewrite_side_refs(expr, &sides, RefSide::Base, &mut edge_cols_used)?;
            local_exprs.push((i, rewritten));
        }
    }
    let (delta_index, aggregate, message_expr) = match delta {
        Some(d) => d,
        None => return bail("no supported aggregate (SUM/MIN/MAX/COUNT/AVG) in the SELECT list"),
    };

    // WHERE: keep source-only conjuncts as message filters. A disjunction
    // like the SSSP improvement gate
    // `S.delta < S.distance OR R.delta < R.distance` splits: the
    // source-side disjunct gates messages (it decides which *sources* emit
    // information), the base-side disjunct gates local application — which
    // Compute performs unconditionally (a no-op for non-improving rows
    // under monotone aggregates). Anything else is ignored for the
    // parallel path but counted for the report.
    let mut source_filter = Vec::new();
    let mut ignored = 0usize;
    if let Some(w) = &select.selection {
        for conj in split_and(w) {
            match rewrite_side_refs(&conj, &sides, RefSide::SourceOrEdge, &mut edge_cols_used) {
                Ok(e) => source_filter.push(e),
                Err(_) => {
                    // try the OR split
                    let disjuncts = split_or(&conj);
                    let mut source_side = Vec::new();
                    let mut base_ok = true;
                    for d in &disjuncts {
                        if let Ok(e) =
                            rewrite_side_refs(d, &sides, RefSide::SourceOrEdge, &mut edge_cols_used)
                        {
                            source_side.push(e);
                        } else if rewrite_side_refs(d, &sides, RefSide::Base, &mut edge_cols_used)
                            .is_err()
                        {
                            base_ok = false;
                        }
                    }
                    if disjuncts.len() > 1 && source_side.len() == 1 && base_ok {
                        source_filter.push(source_side.remove(0));
                    } else {
                        ignored += 1;
                    }
                }
            }
        }
    }

    Ok(ParallelPlan {
        aggregate,
        delta_index,
        local_exprs,
        message_expr,
        source_filter,
        ignored_filters: ignored,
        edge_table,
        edge_dst_col,
        edge_src_col,
        edge_cols_used: {
            edge_cols_used.sort();
            edge_cols_used.dedup();
            edge_cols_used
        },
    })
}

/// Pulls the `E.<col>` out of `ON left_alias.key = E.<col>` (either order).
fn extract_join_key(
    on: Option<&Expr>,
    key_alias: &str,
    key: &str,
    edge_alias: &str,
) -> Option<String> {
    let on = on?;
    if let Expr::Binary {
        left,
        op: BinaryOp::Eq,
        right,
    } = on
    {
        let as_col = |e: &Expr| -> Option<(Option<String>, String)> {
            if let Expr::Column { table, name } = e {
                Some((table.clone(), name.clone()))
            } else {
                None
            }
        };
        let l = as_col(left)?;
        let r = as_col(right)?;
        let is_key = |c: &(Option<String>, String)| c.1 == key && c.0.as_deref() == Some(key_alias);
        let edge_col = |c: &(Option<String>, String)| {
            if c.0.as_deref() == Some(edge_alias) {
                Some(c.1.clone())
            } else {
                None
            }
        };
        if is_key(&l) {
            return edge_col(&r);
        }
        if is_key(&r) {
            return edge_col(&l);
        }
    }
    None
}

struct Sides<'a> {
    cte: &'a str,
    base: &'a str,
    source: &'a str,
    edge: &'a str,
}

#[derive(Clone, Copy, PartialEq)]
enum RefSide {
    /// Only `R` (base) columns allowed; rewritten unqualified.
    Base,
    /// Only source/edge columns allowed; rewritten to the canonical quals.
    SourceOrEdge,
}

/// Splits an expression on top-level ANDs.
fn split_and(e: &Expr) -> Vec<Expr> {
    match e {
        Expr::Binary {
            left,
            op: BinaryOp::And,
            right,
        } => {
            let mut v = split_and(left);
            v.extend(split_and(right));
            v
        }
        other => vec![other.clone()],
    }
}

/// Splits an expression on top-level ORs.
fn split_or(e: &Expr) -> Vec<Expr> {
    match e {
        Expr::Binary {
            left,
            op: BinaryOp::Or,
            right,
        } => {
            let mut v = split_or(left);
            v.extend(split_or(right));
            v
        }
        other => vec![other.clone()],
    }
}

/// Unwraps `COALESCE([scale *] AGG(arg), default)` and folds the scale into
/// the per-message expression (valid for SUM/COUNT/AVG by distributivity and
/// for MIN/MAX when the scale is a positive constant).
fn extract_aggregate_shape(
    expr: &Expr,
    sides: &Sides<'_>,
    edge_cols: &mut Vec<String>,
) -> SqloopResult<(AggregateFunction, Expr)> {
    // strip COALESCE wrapper
    let inner = match expr {
        Expr::Function { name, args } if name == "coalesce" && !args.is_empty() => match &args[0] {
            FunctionArg::Expr(e) => e,
            FunctionArg::Wildcard => return bail("COALESCE(*) is not valid"),
        },
        other => other,
    };
    // strip an optional constant scale
    let (scale, agg_call) = match inner {
        Expr::Binary {
            left,
            op: BinaryOp::Mul,
            right,
        } => {
            if is_constant(left) && right.contains_aggregate() {
                (Some((**left).clone()), right.as_ref())
            } else if is_constant(right) && left.contains_aggregate() {
                (Some((**right).clone()), left.as_ref())
            } else {
                return bail("delta column must be `[const *] AGG(...)` optionally in COALESCE");
            }
        }
        other => (None, other),
    };
    let (agg, args) = agg_call
        .as_aggregate()
        .ok_or_else(|| SqloopError::Semantic("delta expression is not a bare aggregate".into()))?;
    let arg = match args {
        [FunctionArg::Expr(e)] => e.clone(),
        [FunctionArg::Wildcard] => Expr::lit(1i64), // COUNT(*): each message counts 1
        _ => return bail("aggregate must take one argument"),
    };
    if let Some(s) = &scale {
        let positive = match s {
            Expr::Literal(v) => v.as_f64().map(|f| f > 0.0).unwrap_or(false),
            _ => false,
        };
        if matches!(agg, AggregateFunction::Min | AggregateFunction::Max) && !positive {
            return bail("MIN/MAX scale must be a positive constant");
        }
    }
    let arg = rewrite_side_refs(&arg, sides, RefSide::SourceOrEdge, edge_cols)?;
    let message = match scale {
        Some(s) => s.binary(BinaryOp::Mul, arg),
        None => arg,
    };
    Ok((agg, message))
}

fn is_constant(e: &Expr) -> bool {
    e.column_refs().is_empty() && !e.contains_aggregate()
}

/// Validates which side every column reference belongs to and rewrites the
/// qualifiers to the canonical form.
fn rewrite_side_refs(
    expr: &Expr,
    sides: &Sides<'_>,
    side: RefSide,
    edge_cols: &mut Vec<String>,
) -> SqloopResult<Expr> {
    let mut out = expr.clone();
    let mut err: Option<String> = None;
    rewrite_columns(&mut out, &mut |table: &mut Option<String>, name: &str| {
        let qual = table.as_deref();
        match side {
            RefSide::Base => {
                // accept base alias, the CTE name, or unqualified
                if qual.is_none() || qual == Some(sides.base) || qual == Some(sides.cte) {
                    *table = None;
                } else {
                    err = Some(format!(
                        "local expression references non-base column {}.{}",
                        qual.unwrap_or(""),
                        name
                    ));
                }
            }
            RefSide::SourceOrEdge => {
                if qual == Some(sides.source) {
                    *table = Some(SOURCE_QUAL.into());
                } else if qual == Some(sides.edge) {
                    edge_cols.push(name.to_owned());
                    *table = Some(EDGE_QUAL.into());
                } else {
                    err = Some(format!(
                        "message expression references non-source column {}.{}",
                        qual.unwrap_or("<unqualified>"),
                        name
                    ));
                }
            }
        }
    });
    match err {
        Some(e) => bail(e),
        None => Ok(out),
    }
}

fn rewrite_columns(e: &mut Expr, f: &mut impl FnMut(&mut Option<String>, &str)) {
    match e {
        Expr::Column { table, name } => f(table, name),
        _ => e.for_each_child_mut(|c| rewrite_columns(c, f)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grammar::{parse, SqloopQuery};

    fn iterative(sql: &str) -> IterativeCte {
        match parse(sql).unwrap() {
            SqloopQuery::Iterative(c) => c,
            other => panic!("expected iterative: {other:?}"),
        }
    }

    fn pagerank_cte() -> IterativeCte {
        iterative(
            "WITH ITERATIVE PageRank(Node, Rank, Delta) AS (\
             SELECT src, 0, 0.15 FROM (SELECT src FROM edges UNION SELECT dst FROM edges) AS a GROUP BY src \
             ITERATE \
             SELECT PageRank.Node, \
             COALESCE(PageRank.Rank + PageRank.Delta, 0.15), \
             COALESCE(0.85 * SUM(IncomingRank.Delta * IncomingEdges.weight), 0.0) \
             FROM PageRank \
             LEFT JOIN edges AS IncomingEdges ON PageRank.Node = IncomingEdges.dst \
             LEFT JOIN PageRank AS IncomingRank ON IncomingRank.Node = IncomingEdges.src \
             GROUP BY PageRank.Node UNTIL 100 ITERATIONS) \
             SELECT Node, Rank FROM PageRank",
        )
    }

    fn cols() -> Vec<String> {
        vec!["node".into(), "rank".into(), "delta".into()]
    }

    #[test]
    fn pagerank_is_parallelizable() {
        let out = analyze(&pagerank_cte(), &cols()).unwrap();
        let plan = match out {
            AnalysisOutcome::Parallelizable(p) => p,
            AnalysisOutcome::NotParallelizable { reason } => panic!("{reason}"),
        };
        assert_eq!(plan.aggregate, AggregateFunction::Sum);
        assert_eq!(plan.delta_index, 2);
        assert_eq!(plan.edge_table, "edges");
        assert_eq!(plan.edge_dst_col, "dst");
        assert_eq!(plan.edge_src_col, "src");
        assert_eq!(plan.edge_cols_used, vec!["weight".to_string()]);
        assert_eq!(plan.local_exprs.len(), 1);
        assert_eq!(plan.local_exprs[0].0, 1);
        // message expr folded: 0.85 * (S.delta * E.weight)
        let refs = plan.message_expr.column_refs();
        assert!(refs.contains(&(Some(SOURCE_QUAL), "delta")));
        assert!(refs.contains(&(Some(EDGE_QUAL), "weight")));
        assert_eq!(plan.identity(), Value::Float(0.0));
    }

    #[test]
    fn sssp_is_parallelizable_with_min() {
        let cte = iterative(
            "WITH ITERATIVE sssp(Node, Distance, Delta) AS (\
             SELECT src, Infinity, CASE WHEN src = 1 THEN 0 ELSE Infinity END \
             FROM (SELECT src FROM edges UNION SELECT dst FROM edges) AS a GROUP BY src \
             ITERATE \
             SELECT sssp.Node, LEAST(sssp.Distance, sssp.Delta), \
             COALESCE(MIN(Neighbor.Delta + IncomingEdges.weight), Infinity) \
             FROM sssp \
             LEFT JOIN edges AS IncomingEdges ON sssp.Node = IncomingEdges.dst \
             LEFT JOIN sssp AS Neighbor ON Neighbor.Node = IncomingEdges.src \
             WHERE Neighbor.Delta < Neighbor.Distance OR sssp.Delta < sssp.Distance \
             GROUP BY sssp.node UNTIL 0 UPDATES) SELECT * FROM sssp",
        );
        let out = analyze(&cte, &["node".into(), "distance".into(), "delta".into()]).unwrap();
        let plan = match out {
            AnalysisOutcome::Parallelizable(p) => p,
            AnalysisOutcome::NotParallelizable { reason } => panic!("{reason}"),
        };
        assert_eq!(plan.aggregate, AggregateFunction::Min);
        assert_eq!(plan.identity(), Value::Float(f64::INFINITY));
        // the improvement gate's source-side disjunct becomes the message
        // filter (`S.delta < S.distance`)
        assert_eq!(plan.ignored_filters, 0);
        assert_eq!(plan.source_filter.len(), 1);
        let refs = plan.source_filter[0].column_refs();
        assert!(refs.iter().all(|(q, _)| *q == Some(SOURCE_QUAL)));
    }

    #[test]
    fn source_only_filter_is_kept() {
        let cte = iterative(
            "WITH ITERATIVE sssp(Node, Distance, Delta) AS (\
             SELECT src, Infinity, 0 FROM edges GROUP BY src \
             ITERATE \
             SELECT sssp.Node, LEAST(sssp.Distance, sssp.Delta), \
             COALESCE(MIN(Neighbor.Delta + IncomingEdges.weight), Infinity) \
             FROM sssp \
             LEFT JOIN edges AS IncomingEdges ON sssp.Node = IncomingEdges.dst \
             LEFT JOIN sssp AS Neighbor ON Neighbor.Node = IncomingEdges.src \
             WHERE Neighbor.Delta < 100 AND IncomingEdges.weight > 0 \
             GROUP BY sssp.node UNTIL 0 UPDATES) SELECT * FROM sssp",
        );
        let out = analyze(&cte, &["node".into(), "distance".into(), "delta".into()]).unwrap();
        match out {
            AnalysisOutcome::Parallelizable(p) => {
                assert_eq!(p.source_filter.len(), 2);
                assert_eq!(p.ignored_filters, 0);
            }
            AnalysisOutcome::NotParallelizable { reason } => panic!("{reason}"),
        }
    }

    #[test]
    fn count_star_supported() {
        let cte = iterative(
            "WITH ITERATIVE r(id, v, d) AS (\
             SELECT src, 0, 0 FROM edges GROUP BY src \
             ITERATE \
             SELECT r.id, r.v + r.d, COALESCE(COUNT(*), 0) \
             FROM r LEFT JOIN edges AS e ON r.id = e.dst \
             LEFT JOIN r AS s ON s.id = e.src \
             GROUP BY r.id UNTIL 3 ITERATIONS) SELECT * FROM r",
        );
        let out = analyze(&cte, &["id".into(), "v".into(), "d".into()]).unwrap();
        match out {
            AnalysisOutcome::Parallelizable(p) => {
                assert_eq!(p.aggregate, AggregateFunction::Count);
                assert_eq!(p.message_expr, Expr::lit(1i64));
            }
            AnalysisOutcome::NotParallelizable { reason } => panic!("{reason}"),
        }
    }

    #[test]
    fn no_aggregate_not_parallelizable() {
        let cte = iterative(
            "WITH ITERATIVE r(id, v) AS (\
             SELECT src, 0 FROM edges GROUP BY src \
             ITERATE SELECT r.id, r.v FROM r \
             LEFT JOIN edges AS e ON r.id = e.dst \
             LEFT JOIN r AS s ON s.id = e.src \
             GROUP BY r.id UNTIL 3 ITERATIONS) SELECT * FROM r",
        );
        let out = analyze(&cte, &["id".into(), "v".into()]).unwrap();
        assert!(matches!(out, AnalysisOutcome::NotParallelizable { .. }));
    }

    #[test]
    fn missing_self_join_not_parallelizable() {
        let cte = iterative(
            "WITH ITERATIVE r(id, v, d) AS (\
             SELECT src, 0, 0 FROM edges GROUP BY src \
             ITERATE \
             SELECT r.id, r.v, COALESCE(SUM(e.weight), 0) \
             FROM r LEFT JOIN edges AS e ON r.id = e.dst \
             LEFT JOIN weights AS w ON w.id = e.src \
             GROUP BY r.id UNTIL 3 ITERATIONS) SELECT * FROM r",
        );
        let out = analyze(&cte, &["id".into(), "v".into(), "d".into()]).unwrap();
        assert!(matches!(out, AnalysisOutcome::NotParallelizable { .. }));
    }

    #[test]
    fn two_aggregates_not_parallelizable() {
        let cte = iterative(
            "WITH ITERATIVE r(id, a, b) AS (\
             SELECT src, 0, 0 FROM edges GROUP BY src \
             ITERATE \
             SELECT r.id, COALESCE(SUM(s.a), 0), COALESCE(SUM(s.b), 0) \
             FROM r LEFT JOIN edges AS e ON r.id = e.dst \
             LEFT JOIN r AS s ON s.id = e.src \
             GROUP BY r.id UNTIL 3 ITERATIONS) SELECT * FROM r",
        );
        let out = analyze(&cte, &["id".into(), "a".into(), "b".into()]).unwrap();
        assert!(matches!(out, AnalysisOutcome::NotParallelizable { .. }));
    }

    #[test]
    fn wrong_group_by_not_parallelizable() {
        let cte = iterative(
            "WITH ITERATIVE r(id, v, d) AS (\
             SELECT src, 0, 0 FROM edges GROUP BY src \
             ITERATE \
             SELECT r.id, r.v, COALESCE(SUM(s.d), 0) \
             FROM r LEFT JOIN edges AS e ON r.id = e.dst \
             LEFT JOIN r AS s ON s.id = e.src \
             GROUP BY r.v UNTIL 3 ITERATIONS) SELECT * FROM r",
        );
        let out = analyze(&cte, &["id".into(), "v".into(), "d".into()]).unwrap();
        assert!(matches!(out, AnalysisOutcome::NotParallelizable { .. }));
    }

    #[test]
    fn negative_min_scale_rejected() {
        let cte = iterative(
            "WITH ITERATIVE r(id, v, d) AS (\
             SELECT src, 0, 0 FROM edges GROUP BY src \
             ITERATE \
             SELECT r.id, r.v, COALESCE(-1.0 * MIN(s.d), 0) \
             FROM r LEFT JOIN edges AS e ON r.id = e.dst \
             LEFT JOIN r AS s ON s.id = e.src \
             GROUP BY r.id UNTIL 3 ITERATIONS) SELECT * FROM r",
        );
        let out = analyze(&cte, &["id".into(), "v".into(), "d".into()]).unwrap();
        assert!(matches!(out, AnalysisOutcome::NotParallelizable { .. }));
    }
}
