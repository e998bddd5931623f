//! Per-profile statement validation.
//!
//! The engine rejects statements its emulated dialect would reject, so that
//! translation — [`crate::render`] spelling a statement in the target
//! engine's dialect from the same [`Dialect`] flags checked here — is
//! *necessary* rather than decorative, exactly the situation the paper's
//! middleware faces with real engines.

use crate::ast::*;
use crate::error::{DbError, DbResult};
use crate::profile::Dialect;
use crate::value::Value;

/// Validates `stmt` against `dialect`.
///
/// # Errors
/// Returns [`DbError::Unsupported`] naming the offending construct.
pub fn validate(stmt: &Statement, dialect: &Dialect) -> DbResult<()> {
    match stmt {
        Statement::Explain { stmt, .. } => return validate(stmt, dialect),
        Statement::Update(u) => {
            if u.join_on.is_some() && !dialect.supports_update_join {
                return Err(DbError::Unsupported(format!(
                    "{} does not accept UPDATE … JOIN … SET",
                    dialect.profile
                )));
            }
            if u.join_on.is_none() && !u.from.is_empty() && !dialect.supports_update_from {
                return Err(DbError::Unsupported(format!(
                    "{} does not accept UPDATE … SET … FROM",
                    dialect.profile
                )));
            }
        }
        Statement::CreateTable(ct) if ct.unlogged && !dialect.supports_unlogged => {
            return Err(DbError::Unsupported(format!(
                "{} does not accept UNLOGGED tables",
                dialect.profile
            )));
        }
        _ => {}
    }
    let mut err = None;
    for_each_expr(stmt, &mut |e| {
        if err.is_some() {
            return;
        }
        match e {
            Expr::Binary {
                op: BinaryOp::Concat,
                ..
            } if !dialect.supports_concat_operator => {
                err = Some(DbError::Unsupported(format!(
                    "{} does not accept the || operator (use CONCAT)",
                    dialect.profile
                )));
            }
            Expr::Literal(Value::Float(f))
                if f.is_infinite() && !dialect.supports_infinity_literal =>
            {
                err = Some(DbError::Unsupported(format!(
                    "{} does not accept Infinity literals",
                    dialect.profile
                )));
            }
            _ => {}
        }
    });
    match err {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// Calls `f` on every expression node reachable from `stmt`, including inside
/// subqueries and join conditions.
pub fn for_each_expr(stmt: &Statement, f: &mut impl FnMut(&Expr)) {
    match stmt {
        Statement::Select(q) => visit_query(q, f),
        Statement::Insert(i) => {
            match &i.source {
                InsertSource::Values(rows) => {
                    for row in rows {
                        for e in row {
                            visit_expr(e, f);
                        }
                    }
                }
                InsertSource::Select(q) => visit_query(q, f),
            };
        }
        Statement::Update(u) => {
            for (_, e) in &u.assignments {
                visit_expr(e, f);
            }
            for tr in &u.from {
                visit_table_ref(tr, f);
            }
            if let Some(e) = &u.join_on {
                visit_expr(e, f);
            }
            if let Some(e) = &u.selection {
                visit_expr(e, f);
            }
        }
        Statement::Delete {
            selection: Some(e), ..
        } => {
            visit_expr(e, f);
        }
        Statement::CreateTable(ct) => {
            if let Some(q) = &ct.as_select {
                visit_query(q, f);
            }
        }
        Statement::CreateView(cv) => visit_query(&cv.query, f),
        Statement::Explain { stmt, .. } => for_each_expr(stmt, f),
        _ => {}
    }
}

fn visit_query(q: &SelectStmt, f: &mut impl FnMut(&Expr)) {
    visit_set_expr(&q.body, f);
    for o in &q.order_by {
        visit_expr(&o.expr, f);
    }
}

fn visit_set_expr(s: &SetExpr, f: &mut impl FnMut(&Expr)) {
    match s {
        SetExpr::Select(sel) => {
            for p in &sel.projections {
                if let SelectItem::Expr { expr, .. } = p {
                    visit_expr(expr, f);
                }
            }
            for tr in &sel.from {
                visit_table_ref(tr, f);
            }
            if let Some(e) = &sel.selection {
                visit_expr(e, f);
            }
            for e in &sel.group_by {
                visit_expr(e, f);
            }
            if let Some(e) = &sel.having {
                visit_expr(e, f);
            }
        }
        SetExpr::Values(rows) => {
            for row in rows {
                for e in row {
                    visit_expr(e, f);
                }
            }
        }
        SetExpr::SetOp { left, right, .. } => {
            visit_set_expr(left, f);
            visit_set_expr(right, f);
        }
    }
}

fn visit_table_ref(tr: &TableRef, f: &mut impl FnMut(&Expr)) {
    visit_factor(&tr.base, f);
    for j in &tr.joins {
        visit_factor(&j.factor, f);
        if let Some(on) = &j.on {
            visit_expr(on, f);
        }
    }
}

fn visit_factor(factor: &TableFactor, f: &mut impl FnMut(&Expr)) {
    if let TableFactor::Derived { subquery, .. } = factor {
        visit_query(subquery, f);
    }
}

fn visit_expr(e: &Expr, f: &mut impl FnMut(&Expr)) {
    f(e);
    e.for_each_child(|c| visit_expr(c, f));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_statement;
    use crate::profile::EngineProfile;

    fn check(sql: &str, profile: EngineProfile) -> DbResult<()> {
        validate(&parse_statement(sql).unwrap(), &profile.dialect())
    }

    #[test]
    fn update_from_rejected_on_mysql() {
        let sql = "UPDATE r SET d = m.v FROM m WHERE r.id = m.id";
        assert!(check(sql, EngineProfile::Postgres).is_ok());
        assert!(check(sql, EngineProfile::MySql).is_err());
        assert!(check(sql, EngineProfile::MariaDb).is_err());
    }

    #[test]
    fn update_join_rejected_on_postgres() {
        let sql = "UPDATE r JOIN m ON r.id = m.id SET d = m.v";
        assert!(check(sql, EngineProfile::Postgres).is_err());
        assert!(check(sql, EngineProfile::MySql).is_ok());
    }

    #[test]
    fn infinity_rejected_on_mysql_even_nested() {
        let sql = "SELECT CASE WHEN a = 1 THEN 0 ELSE Infinity END FROM t";
        assert!(check(sql, EngineProfile::Postgres).is_ok());
        assert!(check(sql, EngineProfile::MySql).is_err());
        // also inside derived tables
        let sql = "SELECT x FROM (SELECT Infinity AS x) AS d";
        assert!(check(sql, EngineProfile::MariaDb).is_err());
    }

    #[test]
    fn concat_operator_gated() {
        let sql = "SELECT 'a' || 'b'";
        assert!(check(sql, EngineProfile::Postgres).is_ok());
        assert!(check(sql, EngineProfile::MySql).is_err());
        assert!(check(sql, EngineProfile::MariaDb).is_ok());
    }

    #[test]
    fn unlogged_gated() {
        let sql = "CREATE UNLOGGED TABLE t (a INT)";
        assert!(check(sql, EngineProfile::Postgres).is_ok());
        assert!(check(sql, EngineProfile::MySql).is_err());
    }

    #[test]
    fn plain_statements_pass_everywhere() {
        for p in EngineProfile::ALL {
            assert!(check("SELECT a, SUM(b) FROM t GROUP BY a", p).is_ok());
            assert!(check("INSERT INTO t VALUES (1)", p).is_ok());
            assert!(check("DELETE FROM t WHERE a = 1", p).is_ok());
        }
    }
}
