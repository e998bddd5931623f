//! `EXPLAIN SELECT …` — a textual plan describing the join algorithms the
//! executor will pick, per engine profile.
//!
//! Nothing is executed. Join lines come from the same
//! [`crate::join::choose_join`] the executor calls, fed catalog row counts
//! where the executor feeds observed ones (a base table counts its live
//! rows, ignoring any pushed-down filter; a view or subquery is guessed at
//! 1000 rows). `EXPLAIN ANALYZE` prints the same vocabulary with the
//! algorithm that actually ran and the sizes it was chosen from.

use crate::ast::*;
use crate::catalog::{Catalog, TableHandle};
use crate::error::DbResult;
use crate::exec::pushdown_conjuncts;
use crate::join::{choose_join, index_shape, IndexShape, JoinAlgo};
use crate::profile::EngineProfile;

/// Row-count guess for a relation whose size only execution reveals.
const UNKNOWN_ROWS: usize = 1000;

/// Renders a plan for `query` as indented text lines.
///
/// # Errors
/// Returns [`DbError::NotFound`](crate::DbError::NotFound) for unknown relations.
pub fn explain_query(
    catalog: &Catalog,
    profile: EngineProfile,
    query: &SelectStmt,
) -> DbResult<Vec<String>> {
    let mut out = Vec::new();
    explain_stmt(catalog, profile, query, 0, &mut out)?;
    Ok(out)
}

fn push(out: &mut Vec<String>, depth: usize, text: String) {
    out.push(format!("{}{}", "  ".repeat(depth), text));
}

fn explain_stmt(
    catalog: &Catalog,
    profile: EngineProfile,
    q: &SelectStmt,
    depth: usize,
    out: &mut Vec<String>,
) -> DbResult<()> {
    if !q.order_by.is_empty() {
        push(out, depth, format!("Sort ({} keys)", q.order_by.len()));
    }
    if let Some(n) = q.limit {
        push(out, depth, format!("Limit {n}"));
    }
    explain_set_expr(catalog, profile, &q.body, depth, out)
}

fn explain_set_expr(
    catalog: &Catalog,
    profile: EngineProfile,
    body: &SetExpr,
    depth: usize,
    out: &mut Vec<String>,
) -> DbResult<()> {
    match body {
        SetExpr::Values(rows) => {
            push(out, depth, format!("Values ({} rows)", rows.len()));
            Ok(())
        }
        SetExpr::SetOp { op, left, right } => {
            push(
                out,
                depth,
                match op {
                    SetOperator::Union => "Union (deduplicating)".to_string(),
                    SetOperator::UnionAll => "Union All".to_string(),
                },
            );
            explain_set_expr(catalog, profile, left, depth + 1, out)?;
            explain_set_expr(catalog, profile, right, depth + 1, out)
        }
        SetExpr::Select(s) => explain_select(catalog, profile, s, depth, out),
    }
}

fn explain_select(
    catalog: &Catalog,
    profile: EngineProfile,
    s: &Select,
    depth: usize,
    out: &mut Vec<String>,
) -> DbResult<()> {
    let has_agg = !s.group_by.is_empty()
        || s.projections
            .iter()
            .any(|p| matches!(p, SelectItem::Expr { expr, .. } if expr.contains_aggregate()));
    let mut depth = depth;
    if s.distinct {
        push(out, depth, "Distinct".to_string());
        depth += 1;
    }
    if has_agg {
        push(
            out,
            depth,
            format!("HashAggregate (group by {} keys)", s.group_by.len()),
        );
        depth += 1;
    }
    if let Some(_w) = &s.selection {
        push(out, depth, "Filter".to_string());
        depth += 1;
    }
    for (i, tr) in s.from.iter().enumerate() {
        if s.from.len() > 1 && i > 0 {
            push(out, depth, "NestedLoop (cross join)".to_string());
        }
        let prefiltered = !pushdown_conjuncts(s, tr).is_empty();
        explain_table_ref(catalog, profile, tr, prefiltered, depth, out)?;
    }
    if s.from.is_empty() {
        push(out, depth, "Result (no tables)".to_string());
    }
    Ok(())
}

fn explain_table_ref(
    catalog: &Catalog,
    profile: EngineProfile,
    tr: &TableRef,
    prefiltered: bool,
    depth: usize,
    out: &mut Vec<String>,
) -> DbResult<()> {
    // joins apply left-to-right, each seeing the estimated size of
    // everything joined before it
    let mut outer = estimate_rows(catalog, &tr.base)?;
    let mut algos = Vec::with_capacity(tr.joins.len());
    for j in &tr.joins {
        algos.push(planned_join(catalog, profile, j, outer)?);
        outer = outer.max(estimate_rows(catalog, &j.factor)?);
    }
    // print outermost join first
    for (j, algo) in tr.joins.iter().zip(&algos).rev() {
        push(out, depth, algo.describe(j.join_type));
    }
    let base_depth = depth + tr.joins.len();
    explain_factor(catalog, profile, &tr.base, prefiltered, base_depth, out)?;
    // each join's right side prints under its join line
    for (i, (j, algo)) in tr.joins.iter().zip(&algos).enumerate() {
        let depth = depth + tr.joins.len() - i;
        if base_table(catalog, &j.factor)?.is_some() {
            push(out, depth, inner_access_label(algo, &j.factor));
        } else {
            explain_factor(catalog, profile, &j.factor, false, depth, out)?;
        }
    }
    Ok(())
}

/// The algorithm [`crate::join::join_rels`] picks for `j` when its outer
/// side has `outer_rows` rows.
fn planned_join(
    catalog: &Catalog,
    profile: EngineProfile,
    j: &Join,
    outer_rows: usize,
) -> DbResult<JoinAlgo> {
    let equi = j.on.as_ref().map(has_equi_conjunct).unwrap_or(false);
    if j.join_type == JoinType::Cross || !equi {
        return Ok(JoinAlgo::NestedLoop);
    }
    let index = inner_side_index(catalog, j)?;
    Ok(choose_join(profile.join_strategy(), outer_rows, index))
}

/// Live rows of a base table; [`UNKNOWN_ROWS`] for views and subqueries.
fn estimate_rows(catalog: &Catalog, f: &TableFactor) -> DbResult<usize> {
    Ok(match base_table(catalog, f)? {
        Some(handle) => handle.read().len(),
        None => UNKNOWN_ROWS,
    })
}

/// The table behind `f` when it is a plain base table — not a view or a
/// subquery, whose rows only exist once executed.
///
/// # Errors
/// Returns [`DbError::NotFound`](crate::DbError::NotFound) for a name that
/// is neither a table nor a view.
pub(crate) fn base_table(catalog: &Catalog, f: &TableFactor) -> DbResult<Option<TableHandle>> {
    match f {
        TableFactor::Table { name, .. } if catalog.view(name).is_none() => {
            catalog.table(name).map(Some)
        }
        _ => Ok(None),
    }
}

/// True when any top-level conjunct of `on` is `col = col`.
fn has_equi_conjunct(on: &Expr) -> bool {
    match on {
        Expr::Binary {
            left,
            op: BinaryOp::And,
            right,
        } => has_equi_conjunct(left) || has_equi_conjunct(right),
        Expr::Binary {
            left,
            op: BinaryOp::Eq,
            right,
        } => {
            matches!(left.as_ref(), Expr::Column { .. })
                && matches!(right.as_ref(), Expr::Column { .. })
        }
        _ => false,
    }
}

/// The index the join's inner (right) side offers: it must be a base table
/// with an index on one of the columns its ON condition references.
fn inner_side_index(catalog: &Catalog, j: &Join) -> DbResult<Option<IndexShape>> {
    let (Some(handle), Some(on)) = (base_table(catalog, &j.factor)?, &j.on) else {
        return Ok(None);
    };
    let visible = factor_visible_name(&j.factor);
    for (qual, col) in on.column_refs() {
        if qual == Some(visible) || qual.is_none() {
            let column = handle.read().schema().column_index(col);
            if let Some(shape) = column.and_then(|c| index_shape(&handle, c)) {
                return Ok(Some(shape));
            }
        }
    }
    Ok(None)
}

/// The name a `FROM` factor is visible as (alias wins over table name).
pub(crate) fn factor_visible_name(f: &TableFactor) -> &str {
    match f {
        TableFactor::Table { name, alias } => alias.as_deref().unwrap_or(name),
        TableFactor::Derived { alias, .. } => alias,
    }
}

/// `name` or `name AS alias`, as scan lines print a `FROM` factor.
pub(crate) fn factor_label(f: &TableFactor) -> String {
    match f {
        TableFactor::Table {
            name,
            alias: Some(a),
        } => format!("{name} AS {a}"),
        TableFactor::Table { name, alias: None } => name.clone(),
        TableFactor::Derived { alias, .. } => alias.clone(),
    }
}

/// The scan line of a base table; `prefiltered` when `WHERE` conjuncts
/// were pushed below the joins onto it.
pub(crate) fn scan_label(f: &TableFactor, prefiltered: bool) -> String {
    let label = factor_label(f);
    if prefiltered {
        format!("SeqScan {label} (pushed-down filter)")
    } else {
        format!("SeqScan {label}")
    }
}

/// How a join reads an inner side that is a base table: probed through its
/// index, or scanned for the hash / nested-loop algorithms.
pub(crate) fn inner_access_label(algo: &JoinAlgo, f: &TableFactor) -> String {
    match algo {
        JoinAlgo::IndexNestedLoop { .. } => format!("IndexProbe {}", factor_label(f)),
        _ => scan_label(f, false),
    }
}

fn explain_factor(
    catalog: &Catalog,
    profile: EngineProfile,
    f: &TableFactor,
    prefiltered: bool,
    depth: usize,
    out: &mut Vec<String>,
) -> DbResult<()> {
    match f {
        TableFactor::Table { name, .. } => {
            if let Some(view) = catalog.view(name) {
                push(out, depth, format!("View {}", factor_label(f)));
                explain_stmt(catalog, profile, &view, depth + 1, out)
            } else {
                // existence check so EXPLAIN reports missing tables
                let _ = catalog.table(name)?;
                push(out, depth, scan_label(f, prefiltered));
                Ok(())
            }
        }
        TableFactor::Derived { subquery, alias } => {
            push(out, depth, format!("Subquery AS {alias}"));
            explain_stmt(catalog, profile, subquery, depth + 1, out)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Database;

    fn db(profile: EngineProfile) -> Database {
        let db = Database::new(profile);
        let mut s = db.connect();
        s.execute("CREATE TABLE nodes (id INT PRIMARY KEY, v FLOAT)")
            .unwrap();
        s.execute("CREATE TABLE edges (src INT, dst INT, weight FLOAT)")
            .unwrap();
        s.execute("CREATE INDEX e_src ON edges (src)").unwrap();
        db
    }

    fn plan(profile: EngineProfile, sql: &str) -> String {
        plan_on(&db(profile), sql)
    }

    /// `db` with 4 `nodes` and 400 `edges` (100 distinct `src`).
    fn populated(profile: EngineProfile) -> Database {
        let d = db(profile);
        let mut s = d.connect();
        s.execute("INSERT INTO nodes VALUES (0, 0.0), (1, 0.0), (2, 0.0), (3, 0.0)")
            .unwrap();
        let edges: Vec<String> = (0..400)
            .map(|i| format!("({}, {i}, 1.0)", i % 100))
            .collect();
        s.execute(&format!("INSERT INTO edges VALUES {}", edges.join(", ")))
            .unwrap();
        d
    }

    fn plan_on(d: &Database, sql: &str) -> String {
        let mut s = d.connect();
        match s.execute(&format!("EXPLAIN {sql}")).unwrap() {
            crate::StmtOutput::Rows(r) => r
                .rows
                .iter()
                .map(|row| row[0].to_string())
                .collect::<Vec<_>>()
                .join("\n"),
            _ => panic!("expected rows"),
        }
    }

    #[test]
    fn profiles_pick_different_join_algorithms() {
        // every edge looks up its node: a whole-table join. The PostgreSQL
        // profile hashes the 4 nodes; the nested-loop profiles, which
        // cannot, probe the primary key
        let sql = "SELECT nodes.id FROM edges JOIN nodes ON nodes.id = edges.src";
        let pg = plan_on(&populated(EngineProfile::Postgres), sql);
        assert!(pg.contains("HashJoin"), "{pg}");
        assert!(pg.contains("SeqScan nodes"), "{pg}");
        let my = plan_on(&populated(EngineProfile::MySql), sql);
        assert!(
            my.contains("IndexNestedLoopJoin using primary key (outer=400, inner=4, fanout=1.0)"),
            "{my}"
        );
        assert!(my.contains("IndexProbe nodes"), "{my}");
    }

    #[test]
    fn small_outer_probes_the_inner_index_on_every_profile() {
        let sql = "SELECT nodes.id FROM nodes JOIN edges ON nodes.id = edges.src \
                   WHERE nodes.v = 0.0";
        for profile in EngineProfile::ALL {
            let text = plan_on(&populated(profile), sql);
            assert!(
                text.contains("IndexNestedLoopJoin using e_src (outer=4, inner=400, fanout=4.0)"),
                "{profile:?}: {text}"
            );
            assert!(text.contains("IndexProbe edges"), "{profile:?}: {text}");
            assert!(
                text.contains("SeqScan nodes (pushed-down filter)"),
                "{profile:?}: {text}"
            );
        }
    }

    #[test]
    fn unindexed_inner_side_degrades_to_block_nested_loop() {
        let sql = "SELECT nodes.id FROM edges JOIN nodes ON edges.weight = nodes.v";
        let my = plan(EngineProfile::MySql, sql);
        assert!(my.contains("BlockNestedLoop"), "{my}");
        let maria = plan(EngineProfile::MariaDb, sql);
        assert!(maria.contains("buffer 4096"), "{maria}");
    }

    #[test]
    fn aggregates_views_and_subqueries_shown() {
        let d = db(EngineProfile::Postgres);
        let mut s = d.connect();
        s.execute("CREATE VIEW vv AS SELECT src FROM edges")
            .unwrap();
        let out = match s
            .execute("EXPLAIN SELECT src, COUNT(*) FROM (SELECT src FROM vv) AS x GROUP BY src")
            .unwrap()
        {
            crate::StmtOutput::Rows(r) => r,
            _ => panic!(),
        };
        let text = out
            .rows
            .iter()
            .map(|r| r[0].to_string())
            .collect::<Vec<_>>()
            .join("\n");
        assert!(text.contains("HashAggregate"), "{text}");
        assert!(text.contains("Subquery AS x"), "{text}");
        assert!(text.contains("View vv"), "{text}");
    }

    #[test]
    fn explain_analyze_speaks_the_same_operator_vocabulary() {
        // every operator EXPLAIN names must appear in the ANALYZE tree too
        let sql = "SELECT nodes.id FROM nodes JOIN edges ON nodes.id = edges.src \
                   WHERE edges.weight > 0.0 ORDER BY nodes.id";
        for profile in EngineProfile::ALL {
            let d = db(profile);
            let mut s = d.connect();
            let mut ops = |prefix: &str| -> Vec<String> {
                match s.execute(&format!("{prefix} {sql}")).unwrap() {
                    crate::StmtOutput::Rows(r) => r
                        .rows
                        .iter()
                        .map(|row| {
                            let line = row[0].to_string();
                            let op = line.trim_start();
                            op.split(" (actual").next().unwrap_or(op).to_string()
                        })
                        .filter(|l| !l.starts_with("Execution:"))
                        .collect(),
                    _ => panic!("expected rows"),
                }
            };
            let planned = ops("EXPLAIN");
            let actual = ops("EXPLAIN ANALYZE");
            for op in &planned {
                assert!(
                    actual.contains(op),
                    "{profile:?}: planned op {op:?} missing from analyze {actual:?}"
                );
            }
        }
    }

    #[test]
    fn explain_missing_table_errors() {
        let d = db(EngineProfile::Postgres);
        let mut s = d.connect();
        assert!(s.execute("EXPLAIN SELECT * FROM nowhere").is_err());
    }

    #[test]
    fn explain_non_select_rejected() {
        let d = db(EngineProfile::Postgres);
        let mut s = d.connect();
        let err = s.execute("EXPLAIN INSERT INTO nodes VALUES (1, 2.0)");
        assert!(
            matches!(err, Err(crate::error::DbError::Unsupported(_))),
            "{err:?}"
        );
    }
}
