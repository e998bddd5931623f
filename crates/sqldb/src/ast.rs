//! Abstract syntax tree for the SQL dialect understood by the engine.
//!
//! The same AST is reused by the `sqloop` middleware for query analysis and
//! dialect-targeted rendering (see [`crate::render`]).

use crate::types::DataType;
use crate::value::Value;

/// A top-level SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `CREATE TABLE name (cols…)` or `CREATE TABLE name AS SELECT …`.
    CreateTable(CreateTable),
    /// `CREATE [UNIQUE] INDEX name ON table (column)`.
    CreateIndex(CreateIndex),
    /// `CREATE [OR REPLACE] VIEW name AS select`.
    CreateView(CreateView),
    /// `DROP TABLE [IF EXISTS] name`.
    DropTable {
        /// Table name.
        name: String,
        /// `IF EXISTS` was present.
        if_exists: bool,
    },
    /// `DROP VIEW [IF EXISTS] name`.
    DropView {
        /// View name.
        name: String,
        /// `IF EXISTS` was present.
        if_exists: bool,
    },
    /// `DROP INDEX [IF EXISTS] name`.
    DropIndex {
        /// Index name.
        name: String,
        /// `IF EXISTS` was present.
        if_exists: bool,
    },
    /// `TRUNCATE [TABLE] name`.
    Truncate {
        /// Table name.
        name: String,
    },
    /// `INSERT INTO table [(cols)] VALUES … | SELECT …`.
    Insert(Insert),
    /// `UPDATE …` (both PostgreSQL `FROM` and MySQL `JOIN` forms).
    Update(Update),
    /// `DELETE FROM table [WHERE …]`.
    Delete {
        /// Target table.
        table: String,
        /// `WHERE` predicate.
        selection: Option<Expr>,
    },
    /// A query.
    Select(SelectStmt),
    /// `EXPLAIN [ANALYZE] <query>` — textual plan output; with `ANALYZE`
    /// the statement is executed and the plan is annotated with
    /// per-operator actuals.
    Explain {
        /// `ANALYZE` was present: execute and report runtime actuals.
        analyze: bool,
        /// The explained statement.
        stmt: Box<Statement>,
    },
    /// `BEGIN [TRANSACTION]`.
    Begin,
    /// `COMMIT`.
    Commit,
    /// `ROLLBACK`.
    Rollback,
}

impl Statement {
    /// A stable lower-case label for the statement's kind, used to bucket
    /// per-kind execution metrics (`sqldb.stmt.<kind>`).
    pub fn kind_label(&self) -> &'static str {
        Statement::KIND_LABELS[self.kind_index()]
    }

    /// Every [`Statement::kind_label`], at its [`Statement::kind_index`].
    pub const KIND_LABELS: [&'static str; 15] = [
        "create_table",
        "create_index",
        "create_view",
        "drop_table",
        "drop_view",
        "drop_index",
        "truncate",
        "insert",
        "update",
        "delete",
        "select",
        "explain",
        "begin",
        "commit",
        "rollback",
    ];

    /// The statement's position in [`Statement::KIND_LABELS`].
    pub fn kind_index(&self) -> usize {
        match self {
            Statement::CreateTable(_) => 0,
            Statement::CreateIndex(_) => 1,
            Statement::CreateView(_) => 2,
            Statement::DropTable { .. } => 3,
            Statement::DropView { .. } => 4,
            Statement::DropIndex { .. } => 5,
            Statement::Truncate { .. } => 6,
            Statement::Insert(_) => 7,
            Statement::Update(_) => 8,
            Statement::Delete { .. } => 9,
            Statement::Select(_) => 10,
            Statement::Explain { .. } => 11,
            Statement::Begin => 12,
            Statement::Commit => 13,
            Statement::Rollback => 14,
        }
    }
}

/// `CREATE TABLE` payload.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateTable {
    /// Table name (lower-cased by the parser).
    pub name: String,
    /// Column definitions; empty when `as_select` is used.
    pub columns: Vec<ColumnDef>,
    /// `IF NOT EXISTS` was present.
    pub if_not_exists: bool,
    /// `CREATE TABLE … AS SELECT …` source.
    pub as_select: Option<Box<SelectStmt>>,
    /// `UNLOGGED` was present (accepted for PostgreSQL parity, ignored).
    pub unlogged: bool,
}

/// A column definition inside `CREATE TABLE`.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDef {
    /// Column name (lower-cased).
    pub name: String,
    /// Declared type.
    pub data_type: DataType,
    /// `PRIMARY KEY` was attached to this column.
    pub primary_key: bool,
}

/// `CREATE INDEX` payload.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateIndex {
    /// Index name.
    pub name: String,
    /// Indexed table.
    pub table: String,
    /// Indexed column (single-column indexes only).
    pub column: String,
    /// Uniqueness constraint enforced on insert/update.
    pub unique: bool,
    /// `IF NOT EXISTS` was present.
    pub if_not_exists: bool,
}

/// `CREATE VIEW` payload.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateView {
    /// View name.
    pub name: String,
    /// Defining query.
    pub query: Box<SelectStmt>,
    /// `OR REPLACE` was present.
    pub or_replace: bool,
}

/// `INSERT` payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Insert {
    /// Target table.
    pub table: String,
    /// Optional explicit column list.
    pub columns: Option<Vec<String>>,
    /// Row source.
    pub source: InsertSource,
}

/// The row source of an `INSERT`.
#[derive(Debug, Clone, PartialEq)]
pub enum InsertSource {
    /// `VALUES (…), (…)`.
    Values(Vec<Vec<Expr>>),
    /// `INSERT INTO … SELECT …`.
    Select(Box<SelectStmt>),
}

/// `UPDATE` payload covering both dialect syntaxes:
/// PostgreSQL `UPDATE t SET … FROM f WHERE …` and
/// MySQL `UPDATE t JOIN f ON … SET … [WHERE …]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Update {
    /// Target table.
    pub table: String,
    /// Optional alias for the target table.
    pub alias: Option<String>,
    /// `SET column = expr` assignments.
    pub assignments: Vec<(String, Expr)>,
    /// Extra relations joined in (PostgreSQL `FROM` list or MySQL `JOIN`s).
    pub from: Vec<TableRef>,
    /// MySQL-style `ON` condition (folded into `selection` during planning).
    pub join_on: Option<Expr>,
    /// `WHERE` predicate.
    pub selection: Option<Expr>,
}

/// A full query: set-expression body plus `ORDER BY` / `LIMIT`.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt {
    /// The body (select core, VALUES, or set operation tree).
    pub body: SetExpr,
    /// `ORDER BY expr [ASC|DESC]` keys.
    pub order_by: Vec<OrderByExpr>,
    /// `LIMIT n`.
    pub limit: Option<u64>,
}

/// One `ORDER BY` key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderByExpr {
    /// Sort expression.
    pub expr: Expr,
    /// Ascending (`true`) or descending.
    pub asc: bool,
}

/// Body of a query.
#[derive(Debug, Clone, PartialEq)]
pub enum SetExpr {
    /// A plain `SELECT` core.
    Select(Box<Select>),
    /// A literal `VALUES` list.
    Values(Vec<Vec<Expr>>),
    /// `left UNION [ALL] right` (and other set operators).
    SetOp {
        /// Which set operator.
        op: SetOperator,
        /// Left input.
        left: Box<SetExpr>,
        /// Right input.
        right: Box<SetExpr>,
    },
}

/// Set operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetOperator {
    /// `UNION` (duplicate-eliminating).
    Union,
    /// `UNION ALL`.
    UnionAll,
}

/// A `SELECT` core.
#[derive(Debug, Clone, PartialEq)]
pub struct Select {
    /// `DISTINCT` was present.
    pub distinct: bool,
    /// Projection list.
    pub projections: Vec<SelectItem>,
    /// Comma-separated `FROM` items, each with its joins.
    pub from: Vec<TableRef>,
    /// `WHERE` predicate.
    pub selection: Option<Expr>,
    /// `GROUP BY` keys.
    pub group_by: Vec<Expr>,
    /// `HAVING` predicate.
    pub having: Option<Expr>,
}

impl Select {
    /// An empty select core (no projections, no FROM) to be filled in.
    pub fn empty() -> Select {
        Select {
            distinct: false,
            projections: Vec::new(),
            from: Vec::new(),
            selection: None,
            group_by: Vec::new(),
            having: None,
        }
    }
}

/// One projection in a `SELECT` list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`.
    Wildcard,
    /// `alias.*`.
    QualifiedWildcard(String),
    /// `expr [AS alias]`.
    Expr {
        /// The projected expression.
        expr: Expr,
        /// Optional output alias.
        alias: Option<String>,
    },
}

/// A `FROM` item: a base factor plus zero or more joins.
#[derive(Debug, Clone, PartialEq)]
pub struct TableRef {
    /// The leftmost relation.
    pub base: TableFactor,
    /// Joins applied left-to-right.
    pub joins: Vec<Join>,
}

impl TableRef {
    /// A bare table reference without joins.
    pub fn table(name: impl Into<String>, alias: Option<String>) -> TableRef {
        TableRef {
            base: TableFactor::Table {
                name: name.into(),
                alias,
            },
            joins: Vec::new(),
        }
    }
}

/// A relation usable in `FROM`.
#[derive(Debug, Clone, PartialEq)]
pub enum TableFactor {
    /// A named table or view, optionally aliased.
    Table {
        /// Table or view name (lower-cased).
        name: String,
        /// Optional alias (lower-cased).
        alias: Option<String>,
    },
    /// A parenthesized subquery with a mandatory alias.
    Derived {
        /// The subquery.
        subquery: Box<SelectStmt>,
        /// Alias naming the derived relation.
        alias: String,
    },
}

impl TableFactor {
    /// The name this factor is visible as in the enclosing scope.
    pub fn visible_name(&self) -> &str {
        match self {
            TableFactor::Table { name, alias } => alias.as_deref().unwrap_or(name),
            TableFactor::Derived { alias, .. } => alias,
        }
    }
}

/// One join step.
#[derive(Debug, Clone, PartialEq)]
pub struct Join {
    /// Join flavor.
    pub join_type: JoinType,
    /// The right-hand relation.
    pub factor: TableFactor,
    /// `ON` condition (`None` for CROSS joins).
    pub on: Option<Expr>,
}

/// Supported join flavors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinType {
    /// `[INNER] JOIN`.
    Inner,
    /// `LEFT [OUTER] JOIN`.
    Left,
    /// `CROSS JOIN` / comma join.
    Cross,
}

/// Scalar (and aggregate-call) expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A literal value.
    Literal(Value),
    /// A possibly-qualified column reference.
    Column {
        /// Optional table/alias qualifier (lower-cased).
        table: Option<String>,
        /// Column name (lower-cased).
        name: String,
    },
    /// Binary operator application.
    Binary {
        /// Left operand.
        left: Box<Expr>,
        /// Operator.
        op: BinaryOp,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Unary operator application.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// Function or aggregate call, e.g. `COALESCE(a, 0)` or `SUM(x)`.
    Function {
        /// Function name (lower-cased).
        name: String,
        /// Arguments; `COUNT(*)` is encoded as a single `Wildcard` arg.
        args: Vec<FunctionArg>,
    },
    /// Searched `CASE WHEN … THEN … [ELSE …] END`.
    Case {
        /// `WHEN cond THEN result` branches.
        branches: Vec<(Expr, Expr)>,
        /// `ELSE` result.
        else_result: Option<Box<Expr>>,
    },
    /// `expr IS [NOT] NULL`.
    IsNull {
        /// Tested expression.
        expr: Box<Expr>,
        /// `IS NOT NULL` when true.
        negated: bool,
    },
    /// `expr [NOT] IN (e1, e2, …)`.
    InList {
        /// Tested expression.
        expr: Box<Expr>,
        /// Candidate list.
        list: Vec<Expr>,
        /// `NOT IN` when true.
        negated: bool,
    },
    /// `expr [NOT] BETWEEN low AND high`.
    Between {
        /// Tested expression.
        expr: Box<Expr>,
        /// Lower bound (inclusive).
        low: Box<Expr>,
        /// Upper bound (inclusive).
        high: Box<Expr>,
        /// `NOT BETWEEN` when true.
        negated: bool,
    },
    /// `CAST(expr AS type)`.
    Cast {
        /// Source expression.
        expr: Box<Expr>,
        /// Target type.
        data_type: DataType,
    },
    /// A `?` positional parameter placeholder (0-based, in lexical order).
    /// Only valid in prepared statements; the binder reads it as the
    /// execution's value at that index.
    Param(usize),
}

/// An argument to a function call.
#[derive(Debug, Clone, PartialEq)]
pub enum FunctionArg {
    /// A scalar expression argument.
    Expr(Expr),
    /// The `*` in `COUNT(*)`.
    Wildcard,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
    /// `=`
    Eq,
    /// `!=` / `<>`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
    /// `AND`
    And,
    /// `OR`
    Or,
    /// `||` string concatenation
    Concat,
}

impl BinaryOp {
    /// SQL spelling of the operator.
    pub fn as_sql(&self) -> &'static str {
        match self {
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
            BinaryOp::Mod => "%",
            BinaryOp::Eq => "=",
            BinaryOp::NotEq => "<>",
            BinaryOp::Lt => "<",
            BinaryOp::LtEq => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::GtEq => ">=",
            BinaryOp::And => "AND",
            BinaryOp::Or => "OR",
            BinaryOp::Concat => "||",
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    /// Numeric negation.
    Neg,
    /// Logical NOT.
    Not,
}

/// The five aggregate functions SQLoop parallelizes (paper §V-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggregateFunction {
    /// `SUM`
    Sum,
    /// `MIN`
    Min,
    /// `MAX`
    Max,
    /// `COUNT`
    Count,
    /// `AVG`
    Avg,
}

impl AggregateFunction {
    /// Parses an aggregate function name (case-insensitive).
    pub fn parse(name: &str) -> Option<AggregateFunction> {
        match name.to_ascii_lowercase().as_str() {
            "sum" => Some(AggregateFunction::Sum),
            "min" => Some(AggregateFunction::Min),
            "max" => Some(AggregateFunction::Max),
            "count" => Some(AggregateFunction::Count),
            "avg" => Some(AggregateFunction::Avg),
            _ => None,
        }
    }

    /// SQL spelling.
    pub fn as_sql(&self) -> &'static str {
        match self {
            AggregateFunction::Sum => "SUM",
            AggregateFunction::Min => "MIN",
            AggregateFunction::Max => "MAX",
            AggregateFunction::Count => "COUNT",
            AggregateFunction::Avg => "AVG",
        }
    }
}

impl Expr {
    /// Shorthand for an unqualified column reference.
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Column {
            table: None,
            name: name.into().to_ascii_lowercase(),
        }
    }

    /// Shorthand for a qualified column reference.
    pub fn qcol(table: impl Into<String>, name: impl Into<String>) -> Expr {
        Expr::Column {
            table: Some(table.into().to_ascii_lowercase()),
            name: name.into().to_ascii_lowercase(),
        }
    }

    /// Shorthand for a literal.
    pub fn lit(value: impl Into<Value>) -> Expr {
        Expr::Literal(value.into())
    }

    /// Builds `self op other`.
    pub fn binary(self, op: BinaryOp, other: Expr) -> Expr {
        Expr::Binary {
            left: Box::new(self),
            op,
            right: Box::new(other),
        }
    }

    /// True when this expression *is* (at top level) an aggregate call.
    pub fn as_aggregate(&self) -> Option<(AggregateFunction, &[FunctionArg])> {
        if let Expr::Function { name, args } = self {
            AggregateFunction::parse(name).map(|f| (f, args.as_slice()))
        } else {
            None
        }
    }

    /// True when the expression tree contains an aggregate call anywhere.
    pub fn contains_aggregate(&self) -> bool {
        let mut found = self.as_aggregate().is_some();
        self.for_each_child(|c| found = found || c.contains_aggregate());
        found
    }

    /// Calls `f` on each immediate child expression, in source order (does
    /// not descend into subqueries).
    pub fn for_each_child<'a>(&'a self, mut f: impl FnMut(&'a Expr)) {
        match self {
            Expr::Literal(_) | Expr::Column { .. } | Expr::Param(_) => {}
            Expr::Binary { left, right, .. } => {
                f(left);
                f(right);
            }
            Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } | Expr::Cast { expr, .. } => {
                f(expr)
            }
            Expr::Function { args, .. } => {
                for a in args {
                    if let FunctionArg::Expr(e) = a {
                        f(e);
                    }
                }
            }
            Expr::Case {
                branches,
                else_result,
            } => {
                for (c, r) in branches {
                    f(c);
                    f(r);
                }
                if let Some(e) = else_result {
                    f(e);
                }
            }
            Expr::InList { expr, list, .. } => {
                f(expr);
                list.iter().for_each(f);
            }
            Expr::Between {
                expr, low, high, ..
            } => {
                f(expr);
                f(low);
                f(high);
            }
        }
    }

    /// [`Expr::for_each_child`] handing out the children mutably.
    pub fn for_each_child_mut(&mut self, mut f: impl FnMut(&mut Expr)) {
        match self {
            Expr::Literal(_) | Expr::Column { .. } | Expr::Param(_) => {}
            Expr::Binary { left, right, .. } => {
                f(left);
                f(right);
            }
            Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } | Expr::Cast { expr, .. } => {
                f(expr)
            }
            Expr::Function { args, .. } => {
                for a in args {
                    if let FunctionArg::Expr(e) = a {
                        f(e);
                    }
                }
            }
            Expr::Case {
                branches,
                else_result,
            } => {
                for (c, r) in branches {
                    f(c);
                    f(r);
                }
                if let Some(e) = else_result {
                    f(e);
                }
            }
            Expr::InList { expr, list, .. } => {
                f(expr);
                list.iter_mut().for_each(f);
            }
            Expr::Between {
                expr, low, high, ..
            } => {
                f(expr);
                f(low);
                f(high);
            }
        }
    }

    /// Collects every (qualifier, column) reference in the tree.
    pub fn column_refs(&self) -> Vec<(Option<&str>, &str)> {
        let mut out = Vec::new();
        self.visit_columns(&mut |t, n| out.push((t, n)));
        out
    }

    pub(crate) fn visit_columns<'a>(&'a self, f: &mut impl FnMut(Option<&'a str>, &'a str)) {
        if let Expr::Column { table, name } = self {
            f(table.as_deref(), name);
        }
        self.for_each_child(|c| c.visit_columns(f));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_detection() {
        let e = Expr::Function {
            name: "sum".into(),
            args: vec![FunctionArg::Expr(Expr::col("x"))],
        };
        assert!(e.as_aggregate().is_some());
        assert!(e.contains_aggregate());

        let wrapped = Expr::Function {
            name: "coalesce".into(),
            args: vec![FunctionArg::Expr(e), FunctionArg::Expr(Expr::lit(0i64))],
        };
        assert!(wrapped.as_aggregate().is_none());
        assert!(wrapped.contains_aggregate());
    }

    #[test]
    fn column_refs_collects_qualifiers() {
        let e = Expr::qcol("t", "a").binary(BinaryOp::Add, Expr::col("b"));
        let refs = e.column_refs();
        assert_eq!(refs.len(), 2);
        assert_eq!(refs[0], (Some("t"), "a"));
        assert_eq!(refs[1], (None, "b"));
    }

    #[test]
    fn aggregate_function_parsing() {
        assert_eq!(
            AggregateFunction::parse("SUM"),
            Some(AggregateFunction::Sum)
        );
        assert_eq!(
            AggregateFunction::parse("avg"),
            Some(AggregateFunction::Avg)
        );
        assert_eq!(AggregateFunction::parse("median"), None);
    }

    #[test]
    fn visible_name_prefers_alias() {
        let f = TableFactor::Table {
            name: "edges".into(),
            alias: Some("e".into()),
        };
        assert_eq!(f.visible_name(), "e");
        let f = TableFactor::Table {
            name: "edges".into(),
            alias: None,
        };
        assert_eq!(f.visible_name(), "edges");
    }

    #[test]
    fn case_children_include_all_parts() {
        let e = Expr::Case {
            branches: vec![(Expr::col("c"), Expr::lit(1i64))],
            else_result: Some(Box::new(Expr::lit(2i64))),
        };
        let mut children = 0;
        e.for_each_child(|_| children += 1);
        assert_eq!(children, 3);
    }
}
