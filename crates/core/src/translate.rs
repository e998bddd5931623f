//! Dialect translation module (paper §IV-B).
//!
//! SQLoop composes its internal statements in one canonical dialect
//! (PostgreSQL-flavored) and runs them through pre-defined rewrite rules
//! for the target engine. The paper does this "every time before it submits
//! a new query"; here it happens once per *distinct* statement: setup,
//! cleanup and control statements are translated where they are submitted,
//! and the statements of Compute and Gather tasks — the same few texts,
//! submitted thousands of times — are translated by
//! [`crate::parallel_sql::SqlGen`] when a partition or message slot is
//! first seen and reused byte-identical after that. The rules:
//!
//! | rule | PostgreSQL | MySQL | MariaDB |
//! |---|---|---|---|
//! | join update | `UPDATE … FROM` | `UPDATE … JOIN` | `UPDATE … JOIN` |
//! | `Infinity` literal | kept | `1e308` | `1e308` |
//! | `\|\|` concatenation | kept | `CONCAT(…)` | kept |
//! | identifier quoting | `"…"` | `` `…` `` | `` `…` `` |
//!
//! The engine *validates* every statement it receives against its profile
//! ([`sqldb::dialect_check`]), translated once or not at all, so a skipped
//! translation still fails loudly — as it would against the real engines.

use crate::error::{SqloopError, SqloopResult};
use sqldb::ast::*;
use sqldb::profile::EngineProfile;
use sqldb::render;
use sqldb::Value;

/// Translates a canonical-dialect statement AST for `target`.
pub fn translate_statement(stmt: &Statement, target: EngineProfile) -> Statement {
    let dialect = target.dialect();
    let mut stmt = stmt.clone();
    // rule 1: join-update syntax
    if let Statement::Update(u) = &mut stmt {
        if u.join_on.is_none() && !u.from.is_empty() && !dialect.supports_update_from {
            // UPDATE t SET … FROM f WHERE p  →  UPDATE t JOIN f ON p SET …
            u.join_on = Some(
                u.selection
                    .take()
                    .unwrap_or(Expr::Literal(Value::Bool(true))),
            );
        } else if u.join_on.is_some() && !dialect.supports_update_join {
            // UPDATE t JOIN f ON p SET … [WHERE q]  →  UPDATE t SET … FROM f WHERE p [AND q]
            let on = u.join_on.take().expect("checked above");
            u.selection = Some(match u.selection.take() {
                Some(w) => on.binary(BinaryOp::And, w),
                None => on,
            });
        }
    }
    // rule 2 & 3: expression-level rewrites
    map_statement_exprs(&mut stmt, &mut |e| rewrite_expr(e, target));
    stmt
}

/// Translates and renders a canonical statement to SQL text for `target`.
pub fn translate_to_sql(stmt: &Statement, target: EngineProfile) -> String {
    let translated = translate_statement(stmt, target);
    render::statement_to_sql(&translated, &target.dialect())
}

/// Parses canonical SQL, translates it, and renders it for `target`.
///
/// # Errors
/// Returns [`SqloopError::Grammar`] when the canonical SQL does not parse.
pub fn translate_sql(sql: &str, target: EngineProfile) -> SqloopResult<String> {
    let stmt = sqldb::parser::parse_statement(sql)
        .map_err(|e| SqloopError::Grammar(format!("canonical SQL: {e} in: {sql}")))?;
    Ok(translate_to_sql(&stmt, target))
}

/// Translates a bare query for `target` and renders it.
pub fn translate_query_to_sql(q: &SelectStmt, target: EngineProfile) -> String {
    let stmt = translate_statement(&Statement::Select(q.clone()), target);
    render::statement_to_sql(&stmt, &target.dialect())
}

fn rewrite_expr(e: &mut Expr, target: EngineProfile) {
    let dialect = target.dialect();
    match e {
        Expr::Literal(Value::Float(f)) if f.is_infinite() && !dialect.supports_infinity_literal => {
            *e = Expr::Literal(Value::Float(if *f > 0.0 { 1e308 } else { -1e308 }));
        }
        Expr::Binary {
            op: BinaryOp::Concat,
            left,
            right,
        } if !dialect.supports_concat_operator => {
            *e = Expr::Function {
                name: "concat".into(),
                args: vec![
                    FunctionArg::Expr((**left).clone()),
                    FunctionArg::Expr((**right).clone()),
                ],
            };
        }
        _ => {}
    }
}

// -- mutable AST walkers --------------------------------------------------

fn map_statement_exprs(stmt: &mut Statement, f: &mut impl FnMut(&mut Expr)) {
    match stmt {
        Statement::Select(q) => map_query(q, f),
        Statement::Insert(i) => match &mut i.source {
            InsertSource::Values(rows) => {
                for row in rows {
                    for e in row {
                        map_expr(e, f);
                    }
                }
            }
            InsertSource::Select(q) => map_query(q, f),
        },
        Statement::Update(u) => {
            for (_, e) in &mut u.assignments {
                map_expr(e, f);
            }
            for tr in &mut u.from {
                map_table_ref(tr, f);
            }
            if let Some(e) = &mut u.join_on {
                map_expr(e, f);
            }
            if let Some(e) = &mut u.selection {
                map_expr(e, f);
            }
        }
        Statement::Delete {
            selection: Some(e), ..
        } => {
            map_expr(e, f);
        }
        Statement::CreateTable(ct) => {
            if let Some(q) = &mut ct.as_select {
                map_query(q, f);
            }
        }
        Statement::CreateView(cv) => map_query(&mut cv.query, f),
        _ => {}
    }
}

fn map_query(q: &mut SelectStmt, f: &mut impl FnMut(&mut Expr)) {
    map_set_expr(&mut q.body, f);
    for o in &mut q.order_by {
        map_expr(&mut o.expr, f);
    }
}

fn map_set_expr(s: &mut SetExpr, f: &mut impl FnMut(&mut Expr)) {
    match s {
        SetExpr::Select(sel) => {
            for p in &mut sel.projections {
                if let SelectItem::Expr { expr, .. } = p {
                    map_expr(expr, f);
                }
            }
            for tr in &mut sel.from {
                map_table_ref(tr, f);
            }
            if let Some(e) = &mut sel.selection {
                map_expr(e, f);
            }
            for e in &mut sel.group_by {
                map_expr(e, f);
            }
            if let Some(e) = &mut sel.having {
                map_expr(e, f);
            }
        }
        SetExpr::Values(rows) => {
            for row in rows {
                for e in row {
                    map_expr(e, f);
                }
            }
        }
        SetExpr::SetOp { left, right, .. } => {
            map_set_expr(left, f);
            map_set_expr(right, f);
        }
    }
}

fn map_table_ref(tr: &mut TableRef, f: &mut impl FnMut(&mut Expr)) {
    map_factor(&mut tr.base, f);
    for j in &mut tr.joins {
        map_factor(&mut j.factor, f);
        if let Some(on) = &mut j.on {
            map_expr(on, f);
        }
    }
}

fn map_factor(factor: &mut TableFactor, f: &mut impl FnMut(&mut Expr)) {
    if let TableFactor::Derived { subquery, .. } = factor {
        map_query(subquery, f);
    }
}

fn map_expr(e: &mut Expr, f: &mut impl FnMut(&mut Expr)) {
    // bottom-up: children first so a rewrite sees rewritten children
    match e {
        Expr::Literal(_) | Expr::Column { .. } | Expr::Param(_) => {}
        Expr::Binary { left, right, .. } => {
            map_expr(left, f);
            map_expr(right, f);
        }
        Expr::Unary { expr, .. } => map_expr(expr, f),
        Expr::Function { args, .. } => {
            for a in args {
                if let FunctionArg::Expr(e) = a {
                    map_expr(e, f);
                }
            }
        }
        Expr::Case {
            branches,
            else_result,
        } => {
            for (c, r) in branches {
                map_expr(c, f);
                map_expr(r, f);
            }
            if let Some(e) = else_result {
                map_expr(e, f);
            }
        }
        Expr::IsNull { expr, .. } => map_expr(expr, f),
        Expr::InList { expr, list, .. } => {
            map_expr(expr, f);
            for e in list {
                map_expr(e, f);
            }
        }
        Expr::Between {
            expr, low, high, ..
        } => {
            map_expr(expr, f);
            map_expr(low, f);
            map_expr(high, f);
        }
        Expr::Cast { expr, .. } => map_expr(expr, f),
    }
    f(e);
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqldb::dialect_check::validate;
    use sqldb::parser::parse_statement;

    /// every translated statement must validate on its target engine
    fn translate_and_validate(sql: &str, target: EngineProfile) -> String {
        let out = translate_sql(sql, target).unwrap();
        let stmt = parse_statement(&out).unwrap();
        validate(&stmt, &target.dialect()).unwrap_or_else(|e| panic!("{target}: {e}: {out}"));
        out
    }

    #[test]
    fn update_from_becomes_update_join_on_mysql() {
        let sql = "UPDATE r SET delta = m.v FROM msg AS m WHERE r.id = m.id";
        let out = translate_and_validate(sql, EngineProfile::MySql);
        assert!(out.contains("JOIN"), "{out}");
        assert!(!out.contains(" FROM "), "{out}");
        // unchanged on postgres
        let out = translate_and_validate(sql, EngineProfile::Postgres);
        assert!(out.contains("FROM"), "{out}");
    }

    #[test]
    fn update_join_becomes_update_from_on_postgres() {
        let sql = "UPDATE r JOIN msg ON r.id = msg.id SET delta = msg.v WHERE msg.v > 0";
        let out = translate_and_validate(sql, EngineProfile::Postgres);
        assert!(out.contains("FROM"), "{out}");
        // ON and WHERE merged
        assert!(out.contains("AND"), "{out}");
    }

    #[test]
    fn infinity_replaced_for_mysql_family() {
        let sql = "SELECT CASE WHEN a = 1 THEN 0 ELSE Infinity END FROM t";
        let out = translate_and_validate(sql, EngineProfile::MySql);
        assert!(out.contains("1e308"), "{out}");
        let out = translate_and_validate(sql, EngineProfile::MariaDb);
        assert!(out.contains("1e308"), "{out}");
        let out = translate_and_validate(sql, EngineProfile::Postgres);
        assert!(out.contains("Infinity"), "{out}");
    }

    #[test]
    fn concat_operator_becomes_function_on_mysql() {
        let sql = "SELECT a || b FROM t";
        let out = translate_and_validate(sql, EngineProfile::MySql);
        assert!(out.to_uppercase().contains("CONCAT("), "{out}");
        let out = translate_and_validate(sql, EngineProfile::MariaDb);
        assert!(out.contains("||"), "{out}");
    }

    #[test]
    fn quoting_follows_target() {
        let out = translate_sql("SELECT a FROM t", EngineProfile::MySql).unwrap();
        assert!(out.contains('`'), "{out}");
        let out = translate_sql("SELECT a FROM t", EngineProfile::Postgres).unwrap();
        assert!(out.contains('"'), "{out}");
    }

    #[test]
    fn nested_infinity_inside_update_assignment() {
        let sql = "UPDATE r SET d = LEAST(d, Infinity) WHERE id = 1";
        let out = translate_and_validate(sql, EngineProfile::MySql);
        assert!(out.contains("1e308"), "{out}");
    }

    #[test]
    fn every_profile_accepts_its_own_translation_of_a_gather_statement() {
        // the exact statement shape the Gather task emits
        let sql = "UPDATE pr__pt3 SET delta = delta + inc.val FROM \
                   (SELECT id, SUM(val) AS val FROM \
                    (SELECT id, val FROM pr__msg_1_0 UNION ALL SELECT id, val FROM pr__msg_2_0) \
                    AS msgs GROUP BY id) AS inc \
                   WHERE pr__pt3.node = inc.id";
        for p in EngineProfile::ALL {
            translate_and_validate(sql, p);
        }
    }
}
