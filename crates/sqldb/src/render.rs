//! AST → SQL text rendering in one engine's dialect: the translation
//! module of the paper (§IV-B).
//!
//! SQLoop composes its statements in one canonical, PostgreSQL-flavoured
//! dialect; `sqloop::translate` parses them and renders them here for the
//! target engine. The renderer reads the same [`Dialect`] flags that
//! [`crate::dialect_check`] validates incoming statements against, so
//! every rule below is spelled in one place:
//!
//! | rule | PostgreSQL | MySQL | MariaDB |
//! |---|---|---|---|
//! | join update | `UPDATE … FROM` | `UPDATE … JOIN` | `UPDATE … JOIN` |
//! | `Infinity` literal | kept | `1e308` | `1e308` |
//! | `\|\|` concatenation | kept | `CONCAT(…)` | kept |
//! | identifier quoting | `"…"` | `` `…` `` | `` `…` `` |
//!
//! The join form names exactly one table or subquery, as the MySQL parser
//! accepts it; an `UPDATE … FROM` over a join or a list keeps its FROM form,
//! which a MySQL-family engine rejects by name. Rendering followed by
//! parsing round-trips (a property test in `tests/` checks this).

use crate::ast::*;
use crate::profile::Dialect;
use crate::types::DataType;
use crate::value::Value;

/// Renders a statement as SQL text in the given dialect.
pub fn statement_to_sql(stmt: &Statement, dialect: &Dialect) -> String {
    let mut r = Renderer::new(dialect);
    r.statement(stmt);
    r.out
}

/// Renders a query as SQL text in the given dialect.
pub fn query_to_sql(query: &SelectStmt, dialect: &Dialect) -> String {
    let mut r = Renderer::new(dialect);
    r.query(query);
    r.out
}

/// Renders an expression as SQL text in the given dialect.
pub fn expr_to_sql(expr: &Expr, dialect: &Dialect) -> String {
    let mut r = Renderer::new(dialect);
    r.expr(expr);
    r.out
}

struct Renderer<'a> {
    dialect: &'a Dialect,
    out: String,
}

impl<'a> Renderer<'a> {
    fn new(dialect: &'a Dialect) -> Renderer<'a> {
        Renderer {
            dialect,
            out: String::new(),
        }
    }

    fn push(&mut self, s: &str) {
        self.out.push_str(s);
    }

    fn ident(&mut self, name: &str) {
        let quoted = self.dialect.quote(name);
        self.out.push_str(&quoted);
    }

    fn comma_list<T>(&mut self, items: &[T], mut f: impl FnMut(&mut Self, &T)) {
        for (i, item) in items.iter().enumerate() {
            if i > 0 {
                self.push(", ");
            }
            f(self, item);
        }
    }

    fn statement(&mut self, stmt: &Statement) {
        match stmt {
            Statement::CreateTable(ct) => self.create_table(ct),
            Statement::CreateIndex(ci) => {
                self.push("CREATE ");
                if ci.unique {
                    self.push("UNIQUE ");
                }
                self.push("INDEX ");
                if ci.if_not_exists {
                    self.push("IF NOT EXISTS ");
                }
                self.ident(&ci.name);
                self.push(" ON ");
                self.ident(&ci.table);
                self.push(" (");
                self.ident(&ci.column);
                self.push(")");
            }
            Statement::CreateView(cv) => {
                self.push("CREATE ");
                if cv.or_replace {
                    self.push("OR REPLACE ");
                }
                self.push("VIEW ");
                self.ident(&cv.name);
                self.push(" AS ");
                self.query(&cv.query);
            }
            Statement::DropTable { name, if_exists } => {
                self.push("DROP TABLE ");
                if *if_exists {
                    self.push("IF EXISTS ");
                }
                self.ident(name);
            }
            Statement::DropView { name, if_exists } => {
                self.push("DROP VIEW ");
                if *if_exists {
                    self.push("IF EXISTS ");
                }
                self.ident(name);
            }
            Statement::DropIndex { name, if_exists } => {
                self.push("DROP INDEX ");
                if *if_exists {
                    self.push("IF EXISTS ");
                }
                self.ident(name);
            }
            Statement::Truncate { name } => {
                self.push("TRUNCATE TABLE ");
                self.ident(name);
            }
            Statement::Insert(ins) => self.insert(ins),
            Statement::Update(upd) => self.update(upd),
            Statement::Delete { table, selection } => {
                self.push("DELETE FROM ");
                self.ident(table);
                if let Some(sel) = selection {
                    self.push(" WHERE ");
                    self.expr(sel);
                }
            }
            Statement::Select(q) => self.query(q),
            Statement::Explain { analyze, stmt } => {
                self.push(if *analyze {
                    "EXPLAIN ANALYZE "
                } else {
                    "EXPLAIN "
                });
                self.statement(stmt);
            }
            Statement::Begin => self.push("BEGIN"),
            Statement::Commit => self.push("COMMIT"),
            Statement::Rollback => self.push("ROLLBACK"),
        }
    }

    fn create_table(&mut self, ct: &CreateTable) {
        self.push("CREATE ");
        if ct.unlogged && self.dialect.supports_unlogged {
            self.push("UNLOGGED ");
        }
        self.push("TABLE ");
        if ct.if_not_exists {
            self.push("IF NOT EXISTS ");
        }
        self.ident(&ct.name);
        if let Some(q) = &ct.as_select {
            self.push(" AS ");
            self.query(q);
            return;
        }
        self.push(" (");
        let float_name = self.dialect.float_type_name;
        self.comma_list(&ct.columns, |r, c| {
            r.ident(&c.name);
            r.push(" ");
            match c.data_type {
                DataType::Int => r.push("BIGINT"),
                DataType::Float => r.push(float_name),
                DataType::Text => r.push("TEXT"),
                DataType::Bool => r.push("BOOLEAN"),
            }
            if c.primary_key {
                r.push(" PRIMARY KEY");
            }
        });
        self.push(")");
    }

    fn insert(&mut self, ins: &Insert) {
        self.push("INSERT INTO ");
        self.ident(&ins.table);
        if let Some(cols) = &ins.columns {
            self.push(" (");
            self.comma_list(cols, |r, c| r.ident(c));
            self.push(")");
        }
        self.push(" ");
        match &ins.source {
            InsertSource::Values(rows) => {
                self.push("VALUES ");
                self.comma_list(rows, |r, row| {
                    r.push("(");
                    r.comma_list(row, |r, e| r.expr(e));
                    r.push(")");
                });
            }
            InsertSource::Select(q) => self.query(q),
        }
    }

    fn update(&mut self, upd: &Update) {
        self.push("UPDATE ");
        self.ident(&upd.table);
        if let Some(a) = &upd.alias {
            self.push(" AS ");
            self.ident(a);
        }
        let join_form = self.dialect.supports_update_join
            && (upd.join_on.is_some() || !self.dialect.supports_update_from);
        match upd.from.as_slice() {
            [TableRef { base, joins }] if join_form && joins.is_empty() => {
                // UPDATE t JOIN f ON p SET … [WHERE q]; a FROM form's WHERE
                // becomes the ON condition
                self.push(" JOIN ");
                self.table_factor(base);
                self.push(" ON ");
                match (&upd.join_on, &upd.selection) {
                    (Some(on), _) | (None, Some(on)) => self.expr(on),
                    (None, None) => self.push("TRUE"),
                }
                self.assignments(&upd.assignments);
                if let (Some(_), Some(sel)) = (&upd.join_on, &upd.selection) {
                    self.push(" WHERE ");
                    self.expr(sel);
                }
            }
            from => {
                // UPDATE t SET … [FROM f] [WHERE p]; a join form's ON
                // condition joins the WHERE clause
                self.assignments(&upd.assignments);
                if !from.is_empty() {
                    self.push(" FROM ");
                    self.comma_list(from, |r, tr| r.table_ref(tr));
                }
                match (&upd.join_on, &upd.selection) {
                    (Some(on), Some(sel)) => {
                        self.push(" WHERE (");
                        self.expr(on);
                        self.push(" AND ");
                        self.expr(sel);
                        self.push(")");
                    }
                    (Some(p), None) | (None, Some(p)) => {
                        self.push(" WHERE ");
                        self.expr(p);
                    }
                    (None, None) => {}
                }
            }
        }
    }

    fn assignments(&mut self, assignments: &[(String, Expr)]) {
        self.push(" SET ");
        self.comma_list(assignments, |r, (c, e)| {
            r.ident(c);
            r.push(" = ");
            r.expr(e);
        });
    }

    fn query(&mut self, q: &SelectStmt) {
        self.set_expr(&q.body);
        if !q.order_by.is_empty() {
            self.push(" ORDER BY ");
            self.comma_list(&q.order_by, |r, o| {
                r.expr(&o.expr);
                if !o.asc {
                    r.push(" DESC");
                }
            });
        }
        if let Some(n) = q.limit {
            self.push(&format!(" LIMIT {n}"));
        }
    }

    fn set_expr(&mut self, body: &SetExpr) {
        match body {
            SetExpr::Select(s) => self.select(s),
            SetExpr::Values(rows) => {
                self.push("VALUES ");
                self.comma_list(rows, |r, row| {
                    r.push("(");
                    r.comma_list(row, |r, e| r.expr(e));
                    r.push(")");
                });
            }
            SetExpr::SetOp { op, left, right } => {
                self.set_expr(left);
                self.push(match op {
                    SetOperator::Union => " UNION ",
                    SetOperator::UnionAll => " UNION ALL ",
                });
                self.set_expr(right);
            }
        }
    }

    fn select(&mut self, s: &Select) {
        self.push("SELECT ");
        if s.distinct {
            self.push("DISTINCT ");
        }
        self.comma_list(&s.projections, |r, item| match item {
            SelectItem::Wildcard => r.push("*"),
            SelectItem::QualifiedWildcard(t) => {
                r.ident(t);
                r.push(".*");
            }
            SelectItem::Expr { expr, alias } => {
                r.expr(expr);
                if let Some(a) = alias {
                    r.push(" AS ");
                    r.ident(a);
                }
            }
        });
        if !s.from.is_empty() {
            self.push(" FROM ");
            self.comma_list(&s.from, |r, tr| r.table_ref(tr));
        }
        if let Some(sel) = &s.selection {
            self.push(" WHERE ");
            self.expr(sel);
        }
        if !s.group_by.is_empty() {
            self.push(" GROUP BY ");
            self.comma_list(&s.group_by, |r, e| r.expr(e));
        }
        if let Some(h) = &s.having {
            self.push(" HAVING ");
            self.expr(h);
        }
    }

    fn table_ref(&mut self, tr: &TableRef) {
        self.table_factor(&tr.base);
        for j in &tr.joins {
            self.push(match j.join_type {
                JoinType::Inner => " JOIN ",
                JoinType::Left => " LEFT JOIN ",
                JoinType::Cross => " CROSS JOIN ",
            });
            self.table_factor(&j.factor);
            if let Some(on) = &j.on {
                self.push(" ON ");
                self.expr(on);
            }
        }
    }

    fn table_factor(&mut self, f: &TableFactor) {
        match f {
            TableFactor::Table { name, alias } => {
                self.ident(name);
                if let Some(a) = alias {
                    self.push(" AS ");
                    self.ident(a);
                }
            }
            TableFactor::Derived { subquery, alias } => {
                self.push("(");
                self.query(subquery);
                self.push(") AS ");
                self.ident(alias);
            }
        }
    }

    fn expr(&mut self, e: &Expr) {
        match e {
            Expr::Literal(v) => self.literal(v),
            Expr::Param(_) => self.push("?"),
            Expr::Column { table, name } => {
                if let Some(t) = table {
                    self.ident(t);
                    self.push(".");
                }
                self.ident(name);
            }
            Expr::Binary {
                left,
                op: BinaryOp::Concat,
                right,
            } if !self.dialect.supports_concat_operator => {
                self.push("CONCAT(");
                self.expr(left);
                self.push(", ");
                self.expr(right);
                self.push(")");
            }
            Expr::Binary { left, op, right } => {
                self.push("(");
                self.expr(left);
                self.push(" ");
                self.push(op.as_sql());
                self.push(" ");
                self.expr(right);
                self.push(")");
            }
            Expr::Unary { op, expr } => match op {
                UnaryOp::Neg => {
                    self.push("(-");
                    self.expr(expr);
                    self.push(")");
                }
                UnaryOp::Not => {
                    self.push("(NOT ");
                    self.expr(expr);
                    self.push(")");
                }
            },
            Expr::Function { name, args } => {
                self.push(&name.to_ascii_uppercase());
                self.push("(");
                self.comma_list(args, |r, a| match a {
                    FunctionArg::Expr(e) => r.expr(e),
                    FunctionArg::Wildcard => r.push("*"),
                });
                self.push(")");
            }
            Expr::Case {
                branches,
                else_result,
            } => {
                self.push("CASE");
                for (c, v) in branches {
                    self.push(" WHEN ");
                    self.expr(c);
                    self.push(" THEN ");
                    self.expr(v);
                }
                if let Some(e) = else_result {
                    self.push(" ELSE ");
                    self.expr(e);
                }
                self.push(" END");
            }
            Expr::IsNull { expr, negated } => {
                self.push("(");
                self.expr(expr);
                self.push(if *negated { " IS NOT NULL" } else { " IS NULL" });
                self.push(")");
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                self.push("(");
                self.expr(expr);
                self.push(if *negated { " NOT IN (" } else { " IN (" });
                self.comma_list(list, |r, e| r.expr(e));
                self.push("))");
            }
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                self.push("(");
                self.expr(expr);
                self.push(if *negated {
                    " NOT BETWEEN "
                } else {
                    " BETWEEN "
                });
                self.expr(low);
                self.push(" AND ");
                self.expr(high);
                self.push(")");
            }
            Expr::Cast { expr, data_type } => {
                self.push("CAST(");
                self.expr(expr);
                self.push(" AS ");
                self.push(match data_type {
                    DataType::Int => "BIGINT",
                    DataType::Float => self.dialect.float_type_name,
                    DataType::Text => "TEXT",
                    DataType::Bool => "BOOLEAN",
                });
                self.push(")");
            }
        }
    }

    fn literal(&mut self, v: &Value) {
        match v {
            Value::Null => self.push("NULL"),
            Value::Int(i) => self.push(&i.to_string()),
            Value::Float(f) => {
                if f.is_infinite() {
                    if self.dialect.supports_infinity_literal {
                        self.push(if *f > 0.0 { "Infinity" } else { "-Infinity" });
                    } else {
                        // engines without an Infinity literal get a sentinel
                        self.push(if *f > 0.0 { "1e308" } else { "-1e308" });
                    }
                } else if f.fract() == 0.0 && f.abs() < 1e15 {
                    // keep a decimal point so it re-parses as a float
                    self.push(&format!("{f:.1}"));
                } else if f.abs() >= 1e15 {
                    // exponent form keeps huge sentinels (e.g. 1e308) short
                    self.push(&format!("{f:e}"));
                } else {
                    self.push(&format!("{f}"));
                }
            }
            Value::Text(s) => {
                self.push("'");
                self.push(&s.replace('\'', "''"));
                self.push("'");
            }
            Value::Bool(b) => self.push(if *b { "TRUE" } else { "FALSE" }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_expression, parse_query, parse_statement};
    use crate::profile::EngineProfile;

    fn pg() -> Dialect {
        EngineProfile::Postgres.dialect()
    }

    fn my() -> Dialect {
        EngineProfile::MySql.dialect()
    }

    #[test]
    fn roundtrip_select() {
        let sql = "SELECT a, SUM(b) AS s FROM t LEFT JOIN u ON t.id = u.id \
                   WHERE a > 1 GROUP BY a HAVING SUM(b) > 0 ORDER BY a LIMIT 5";
        let q = parse_query(sql).unwrap();
        let rendered = query_to_sql(&q, &pg());
        let q2 = parse_query(&rendered).unwrap();
        assert_eq!(q, q2, "render/parse should round-trip: {rendered}");
    }

    #[test]
    fn mysql_quoting_used() {
        let q = parse_query("SELECT a FROM t").unwrap();
        let rendered = query_to_sql(&q, &my());
        assert!(rendered.contains('`'), "{rendered}");
        assert!(!rendered.contains('"'), "{rendered}");
    }

    #[test]
    fn infinity_rendered_per_dialect() {
        let e = parse_expression("Infinity").unwrap();
        assert_eq!(expr_to_sql(&e, &pg()), "Infinity");
        assert_eq!(expr_to_sql(&e, &my()), "1e308");
    }

    #[test]
    fn update_forms_render() {
        let s = parse_statement("UPDATE r SET d = m.v FROM msg AS m WHERE r.id = m.id").unwrap();
        let rendered = statement_to_sql(&s, &pg());
        assert!(rendered.contains("FROM"), "{rendered}");
        let s = parse_statement("UPDATE r JOIN msg ON r.id = msg.id SET d = msg.v").unwrap();
        let rendered = statement_to_sql(&s, &my());
        assert!(rendered.contains("JOIN"), "{rendered}");
        assert!(!rendered.contains(" FROM "), "{rendered}");
    }

    #[test]
    fn string_escaping() {
        let e = Expr::Literal(Value::Text("it's".into()));
        assert_eq!(expr_to_sql(&e, &pg()), "'it''s'");
    }

    #[test]
    fn float_keeps_decimal_point() {
        let e = Expr::Literal(Value::Float(5.0));
        let s = expr_to_sql(&e, &pg());
        let back = parse_expression(&s).unwrap();
        assert_eq!(back, e, "{s} should re-parse as a float");
    }

    #[test]
    fn roundtrip_case_and_functions() {
        let sql = "SELECT CASE WHEN a = 1 THEN 0 ELSE Infinity END, COALESCE(SUM(x), 0.0), COUNT(*) FROM t GROUP BY a";
        let q = parse_query(sql).unwrap();
        let rendered = query_to_sql(&q, &pg());
        assert_eq!(parse_query(&rendered).unwrap(), q, "{rendered}");
    }
}
