//! `EXPLAIN SELECT | UPDATE | DELETE | INSERT … SELECT` — a textual plan describing the
//! access paths and join algorithms the executor will pick, per engine
//! profile.
//!
//! Nothing is executed. Base-table lines come from the same
//! [`crate::join::choose_access`] the executor calls, join lines from the
//! same [`crate::join::choose_join`], fed catalog row counts where the
//! executor feeds observed ones (a base table counts its live rows,
//! ignoring any pushed-down filter; a view or subquery is guessed at 1000
//! rows). `EXPLAIN ANALYZE` prints the same vocabulary with what actually
//! ran and the sizes it was chosen from.

use crate::ast::*;
use crate::catalog::{Catalog, TableHandle};
use crate::error::{DbError, DbResult};
use crate::exec::{ast_conjuncts, pushdown_conjuncts, residual, update_predicate, update_target};
use crate::join::{choose_access, choose_join, index_shape, AccessPath, IndexShape, JoinAlgo};
use crate::profile::EngineProfile;
use crate::value::Value;
use std::borrow::Cow;

/// What a plan is chosen from: the catalog, the profile's join strategy
/// and the statement's `?` parameters (a seek key may be one).
struct Planner<'a> {
    catalog: &'a Catalog,
    profile: EngineProfile,
    params: &'a [Value],
}

/// Row-count guess for a relation whose size only execution reveals.
const UNKNOWN_ROWS: usize = 1000;

/// Renders a plan for a `SELECT`, `UPDATE`, `DELETE` or `INSERT … SELECT`
/// statement, whose `?` placeholders `params` fill, as indented text lines.
///
/// # Errors
/// Returns [`DbError::NotFound`] for unknown relations and
/// [`DbError::Unsupported`] for any other statement kind.
pub fn explain_statement(
    catalog: &Catalog,
    profile: EngineProfile,
    stmt: &Statement,
    params: &[Value],
) -> DbResult<Vec<String>> {
    let p = &Planner {
        catalog,
        profile,
        params,
    };
    let mut out = Vec::new();
    match stmt {
        Statement::Select(q) => explain_stmt(p, q, 0, &mut out)?,
        Statement::Update(upd) => explain_update(p, upd, &mut out)?,
        Statement::Delete { table, selection } => {
            push(&mut out, 0, format!("Delete {table}"));
            let target = TableFactor::Table {
                name: table.clone(),
                alias: None,
            };
            explain_dml_access(p, &target, selection.as_ref(), &mut out)?;
        }
        Statement::Insert(Insert {
            table,
            source: InsertSource::Select(q),
            ..
        }) => {
            p.catalog.table(table)?;
            push(&mut out, 0, format!("Insert {table}"));
            explain_stmt(p, q, 1, &mut out)?;
        }
        _ => {
            return Err(DbError::Unsupported(
                "EXPLAIN supports SELECT, UPDATE, DELETE and INSERT … SELECT only".into(),
            ))
        }
    }
    Ok(out)
}

/// `UPDATE`: the target's access path, or — with extra relations — the join
/// they drive into the target (see `Executor::exec_update`).
fn explain_update(p: &Planner<'_>, upd: &Update, out: &mut Vec<String>) -> DbResult<()> {
    let target = update_target(upd);
    push(out, 0, format!("Update {}", factor_label(&target)));
    if upd.from.is_empty() {
        return explain_dml_access(p, &target, upd.selection.as_ref(), out);
    }
    let join = Join {
        join_type: JoinType::Inner,
        factor: target,
        on: update_predicate(upd).map(Cow::into_owned),
    };
    let mut lines = Vec::new();
    let mut outer = 1usize;
    for (i, tr) in upd.from.iter().enumerate() {
        if i > 0 {
            push(&mut lines, 2, "NestedLoop (cross join)".to_string());
        }
        let rows = explain_table_ref(p, tr, &[], false, 2, &mut lines)?;
        outer = outer.saturating_mul(rows);
    }
    let algo = planned_join(p, &join, outer)?;
    push(out, 1, algo.describe(join.join_type));
    out.append(&mut lines);
    push(out, 2, inner_access_label(&algo, &join.factor));
    Ok(())
}

/// The access path of a single-table `UPDATE` / `DELETE` on `target`.
fn explain_dml_access(
    p: &Planner<'_>,
    target: &TableFactor,
    selection: Option<&Expr>,
    out: &mut Vec<String>,
) -> DbResult<()> {
    let access = planned_access(p, target, &ast_conjuncts(selection))?;
    push(out, 1, access.describe(&factor_label(target), false));
    Ok(())
}

/// The access path the executor picks for base table `f` under `conjuncts`.
fn planned_access(p: &Planner<'_>, f: &TableFactor, conjuncts: &[&Expr]) -> DbResult<AccessPath> {
    let TableFactor::Table { name, .. } = f else {
        return Ok(AccessPath::Scan);
    };
    let handle = p.catalog.table(name)?;
    let table = handle.read();
    Ok(choose_access(
        &table,
        factor_visible_name(f),
        conjuncts,
        p.params,
    ))
}

fn push(out: &mut Vec<String>, depth: usize, text: String) {
    out.push(format!("{}{}", "  ".repeat(depth), text));
}

fn explain_stmt(
    p: &Planner<'_>,
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
    explain_set_expr(p, &q.body, depth, out)
}

fn explain_set_expr(
    p: &Planner<'_>,
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
            explain_set_expr(p, left, depth + 1, out)?;
            explain_set_expr(p, right, depth + 1, out)
        }
        SetExpr::Select(s) => explain_select(p, s, depth, out),
    }
}

fn explain_select(
    p: &Planner<'_>,
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
    if s.selection.is_some() && !seek_covers_where(p, s) {
        push(out, depth, "Filter".to_string());
        depth += 1;
    }
    // a single-table statement runs its whole WHERE in the Filter right
    // above the scan; only below a join is a conjunct "pushed down"
    let joined = s.from.len() > 1 || s.from.iter().any(|tr| !tr.joins.is_empty());
    for (i, tr) in s.from.iter().enumerate() {
        if s.from.len() > 1 && i > 0 {
            push(out, depth, "NestedLoop (cross join)".to_string());
        }
        let conjuncts = pushdown_conjuncts(s, tr);
        let prefiltered = joined && !conjuncts.is_empty();
        explain_table_ref(p, tr, &conjuncts, prefiltered, depth, out)?;
    }
    if s.from.is_empty() {
        push(out, depth, "Result (no tables)".to_string());
    }
    Ok(())
}

/// Whether a single-table `SELECT`'s index seek applies its whole `WHERE`,
/// leaving the executor no Filter to run.
fn seek_covers_where(p: &Planner<'_>, s: &Select) -> bool {
    let [tr] = s.from.as_slice() else {
        return false;
    };
    let view =
        matches!(&tr.base, TableFactor::Table { name, .. } if p.catalog.view(name).is_some());
    if !tr.joins.is_empty() || view {
        return false;
    }
    let conjuncts = pushdown_conjuncts(s, tr);
    planned_access(p, &tr.base, &conjuncts)
        .is_ok_and(|a| residual(s.selection.as_ref(), a.applied(&conjuncts)).is_none())
}

/// Prints one `FROM` item; returns the estimated size of its output.
fn explain_table_ref(
    p: &Planner<'_>,
    tr: &TableRef,
    conjuncts: &[&Expr],
    prefiltered: bool,
    depth: usize,
    out: &mut Vec<String>,
) -> DbResult<usize> {
    // joins apply left-to-right, each seeing the estimated size of
    // everything joined before it
    let mut outer = estimate_rows(p.catalog, &tr.base)?;
    let mut algos = Vec::with_capacity(tr.joins.len());
    for j in &tr.joins {
        algos.push(planned_join(p, j, outer)?);
        outer = outer.max(estimate_rows(p.catalog, &j.factor)?);
    }
    // print outermost join first
    for (j, algo) in tr.joins.iter().zip(&algos).rev() {
        push(out, depth, algo.describe(j.join_type));
    }
    let base_depth = depth + tr.joins.len();
    explain_factor(p, &tr.base, conjuncts, prefiltered, base_depth, out)?;
    // each join's right side prints under its join line
    for (i, (j, algo)) in tr.joins.iter().zip(&algos).enumerate() {
        let depth = depth + tr.joins.len() - i;
        if base_table(p.catalog, &j.factor)?.is_some() {
            push(out, depth, inner_access_label(algo, &j.factor));
        } else {
            explain_factor(p, &j.factor, &[], false, depth, out)?;
        }
    }
    Ok(outer)
}

/// The algorithm [`crate::join::join_rels`] picks for `j` when its outer
/// side has `outer_rows` rows.
fn planned_join(p: &Planner<'_>, j: &Join, outer_rows: usize) -> DbResult<JoinAlgo> {
    let equi = j.on.as_ref().map(has_equi_conjunct).unwrap_or(false);
    if j.join_type == JoinType::Cross || !equi {
        return Ok(JoinAlgo::NestedLoop);
    }
    let index = inner_side_index(p.catalog, j)?;
    Ok(choose_join(p.profile.join_strategy(), outer_rows, index))
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

/// How a join reads an inner side that is a base table: probed through its
/// index, or scanned for the hash / nested-loop algorithms.
pub(crate) fn inner_access_label(algo: &JoinAlgo, f: &TableFactor) -> String {
    match algo {
        JoinAlgo::IndexNestedLoop { .. } => format!("IndexProbe {}", factor_label(f)),
        _ => AccessPath::Scan.describe(&factor_label(f), false),
    }
}

fn explain_factor(
    p: &Planner<'_>,
    f: &TableFactor,
    conjuncts: &[&Expr],
    prefiltered: bool,
    depth: usize,
    out: &mut Vec<String>,
) -> DbResult<()> {
    match f {
        TableFactor::Table { name, .. } => {
            if let Some(view) = p.catalog.view(name) {
                push(out, depth, format!("View {}", factor_label(f)));
                explain_stmt(p, &view, depth + 1, out)
            } else {
                // also the existence check: EXPLAIN reports missing tables
                let access = planned_access(p, f, conjuncts)?;
                push(out, depth, access.describe(&factor_label(f), prefiltered));
                Ok(())
            }
        }
        TableFactor::Derived { subquery, alias } => {
            push(out, depth, format!("Subquery AS {alias}"));
            explain_stmt(p, subquery, depth + 1, out)
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
    fn single_table_statements_show_their_access_path() {
        for profile in EngineProfile::ALL {
            let d = populated(profile);
            for prefix in ["", "ANALYZE "] {
                let plan = |sql: &str| plan_on(&d, &format!("{prefix}{sql}"));
                let seek = "IndexSeek nodes using primary key (id = 2)";
                let text = plan("SELECT v FROM nodes WHERE id = 2");
                assert!(text.contains(seek), "{profile:?} {prefix}: {text}");
                let text = plan("SELECT dst FROM edges AS e WHERE weight > 0.5 AND e.src = 3");
                assert!(
                    text.contains("IndexSeek edges AS e using e_src (src = 3)"),
                    "{profile:?} {prefix}: {text}"
                );
                // no index on dst, and nothing is "pushed down" below a
                // Filter that sits right on the scan
                let text = plan("SELECT src FROM edges WHERE dst = 3");
                assert!(
                    text.contains("SeqScan edges"),
                    "{profile:?} {prefix}: {text}"
                );
                assert!(
                    !text.contains("pushed-down"),
                    "{profile:?} {prefix}: {text}"
                );
                let text = plan("UPDATE nodes SET v = 1.0 WHERE id = 2");
                assert!(
                    text.starts_with("Update nodes"),
                    "{profile:?} {prefix}: {text}"
                );
                assert!(text.contains(&format!("\n  {seek}")), "{profile:?}: {text}");
                let text = plan("UPDATE nodes SET v = 1.0 WHERE v < 0.0 OR id = 2");
                assert!(text.contains("\n  SeqScan nodes"), "{profile:?}: {text}");
                let text = plan("DELETE FROM edges WHERE src = 3");
                assert!(
                    text.starts_with("Delete edges"),
                    "{profile:?} {prefix}: {text}"
                );
                assert!(
                    text.contains("\n  IndexSeek edges using e_src (src = 3)"),
                    "{profile:?} {prefix}: {text}"
                );
                let text = plan("DELETE FROM edges");
                assert!(text.contains("\n  SeqScan edges"), "{profile:?}: {text}");
            }
        }
    }

    #[test]
    fn update_from_shows_the_join_into_its_target() {
        for profile in EngineProfile::ALL {
            let d = populated(profile);
            let mut s = d.connect();
            s.execute("CREATE TABLE inc (id INT, val FLOAT)").unwrap();
            s.execute("INSERT INTO inc VALUES (1, 0.5), (3, 0.25)")
                .unwrap();
            let sql = if profile.dialect().supports_update_from {
                "UPDATE edges SET weight = inc.val FROM inc WHERE edges.src = inc.id"
            } else {
                "UPDATE edges JOIN inc ON edges.src = inc.id SET weight = inc.val"
            };
            for prefix in ["", "ANALYZE "] {
                let text = plan_on(&d, &format!("{prefix}{sql}"));
                let lines: Vec<&str> = text.lines().collect();
                assert!(lines[0].starts_with("Update edges"), "{profile:?}: {text}");
                assert!(
                    lines[1].starts_with(
                        "  IndexNestedLoopJoin using e_src (outer=2, inner=400, fanout=4.0)"
                    ),
                    "{profile:?} {prefix}: {text}"
                );
                assert!(
                    lines[2].starts_with("    SeqScan inc"),
                    "{profile:?}: {text}"
                );
                assert!(
                    lines[3].starts_with("    IndexProbe edges"),
                    "{profile:?}: {text}"
                );
            }
        }
    }

    #[test]
    fn explain_analyze_of_dml_measures_and_takes_it_back() {
        for profile in EngineProfile::ALL {
            let d = populated(profile);
            let mut s = d.connect();
            let snapshot = |s: &mut crate::Session| {
                let mut rows = s.query("SELECT * FROM nodes").unwrap().rows;
                rows.extend(
                    s.query("SELECT COUNT(*), SUM(dst) FROM edges")
                        .unwrap()
                        .rows,
                );
                rows
            };
            let before = snapshot(&mut s);
            let text = plan_on(&d, "ANALYZE UPDATE nodes SET v = v + 1.0 WHERE id = 2");
            assert!(
                text.contains("Update nodes (actual rows=1 "),
                "{profile:?}: {text}"
            );
            assert!(text.contains("\nExecution: rows=1 "), "{profile:?}: {text}");
            let text = plan_on(&d, "ANALYZE DELETE FROM edges WHERE src = 3");
            assert!(
                text.contains("Delete edges (actual rows=4 "),
                "{profile:?}: {text}"
            );
            assert!(text.contains("\nExecution: rows=4 "), "{profile:?}: {text}");
            assert_eq!(
                snapshot(&mut s),
                before,
                "{profile:?}: EXPLAIN ANALYZE kept its changes"
            );
            // inside a transaction it undoes its own statement only
            s.execute("BEGIN").unwrap();
            s.execute("DELETE FROM edges WHERE src = 4").unwrap();
            s.execute("EXPLAIN ANALYZE DELETE FROM edges").unwrap();
            let left = s.query("SELECT COUNT(*) FROM edges").unwrap();
            assert_eq!(left.rows[0][0], crate::Value::Int(396), "{profile:?}");
            s.execute("ROLLBACK").unwrap();
            assert_eq!(snapshot(&mut s), before, "{profile:?}");
        }
    }

    #[test]
    fn explain_insert_select_shows_its_query_and_analyze_takes_it_back() {
        for profile in EngineProfile::ALL {
            let d = populated(profile);
            let mut s = d.connect();
            s.execute("CREATE TABLE fanout (id INT PRIMARY KEY, n INT)")
                .unwrap();
            s.execute("CREATE INDEX fanout_n ON fanout (n)").unwrap();
            s.execute("INSERT INTO fanout VALUES (1000, 4)").unwrap();
            let sql =
                "INSERT INTO fanout SELECT src, COUNT(*) FROM edges WHERE dst < 200 GROUP BY src";
            let text = plan_on(&d, sql);
            let lines: Vec<&str> = text.lines().collect();
            assert_eq!(lines[0], "Insert fanout", "{profile:?}: {text}");
            assert!(
                lines[1].starts_with("  HashAggregate"),
                "{profile:?}: {text}"
            );
            assert!(
                text.contains("\n      SeqScan edges"),
                "{profile:?}: {text}"
            );
            let rows = |s: &mut crate::Session| s.query("SELECT * FROM fanout").unwrap().rows;
            let (before, bytes) = (rows(&mut s), d.memory_used());
            let text = plan_on(&d, &format!("ANALYZE {sql}"));
            assert!(
                text.starts_with("Insert fanout (actual rows=100 calls=100 "),
                "{profile:?}: {text}"
            );
            assert!(text.contains("\n  HashAggregate"), "{profile:?}: {text}");
            assert!(
                text.contains("\nExecution: rows=100 "),
                "{profile:?}: {text}"
            );
            assert_eq!(rows(&mut s), before, "{profile:?}");
            assert_eq!(d.memory_used(), bytes, "{profile:?}");
            let seek = s.query("SELECT id FROM fanout WHERE n = 4").unwrap();
            assert_eq!(
                seek.rows,
                vec![vec![crate::Value::Int(1000)]],
                "{profile:?}"
            );
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
