//! Name resolution and bound-expression evaluation.
//!
//! The binder turns AST expressions into [`BoundExpr`]s whose column
//! references are flat offsets into a concatenated row, resolved against a
//! [`Scope`] of visible relations. Aggregate calls are extracted into
//! [`AggSpec`]s and replaced with references to the columns after the
//! input row, where the aggregation operator puts each group's aggregate
//! values.

use crate::ast::{AggregateFunction, BinaryOp, Expr, FunctionArg, UnaryOp};
use crate::error::{DbError, DbResult};
use crate::types::DataType;
use crate::value::{Row, Value};
use std::cmp::Ordering;

/// One relation visible in a `FROM` scope.
#[derive(Debug, Clone)]
pub struct ScopeRelation {
    /// Name the relation is visible as (alias wins over table name).
    pub qualifier: String,
    /// Output column names, in order.
    pub columns: Vec<String>,
}

/// The set of relations visible to an expression, with flat column offsets.
#[derive(Debug, Clone, Default)]
pub struct Scope {
    relations: Vec<ScopeRelation>,
    /// Whether a qualified reference `t.c` resolves as a bare `c`.
    any_qualifier: bool,
}

impl Scope {
    /// An empty scope (constant expressions only).
    pub fn new() -> Scope {
        Scope::default()
    }

    /// The output columns of a query, as its `ORDER BY` keys read them: a
    /// qualified reference `t.c` finds the output column `c`, whatever `t`
    /// names.
    pub fn output(columns: Vec<String>) -> Scope {
        let qualifier = String::new();
        Scope {
            relations: vec![ScopeRelation { qualifier, columns }],
            any_qualifier: true,
        }
    }

    /// Appends a relation; returns the offset of its first column.
    pub fn push(&mut self, relation: ScopeRelation) -> usize {
        let base = self.arity();
        self.relations.push(relation);
        base
    }

    /// Total number of columns across all relations.
    pub fn arity(&self) -> usize {
        self.relations.iter().map(|r| r.columns.len()).sum()
    }

    /// The visible relations.
    pub fn relations(&self) -> &[ScopeRelation] {
        &self.relations
    }

    /// Flat output column names (used to derive result-set headers).
    pub fn flat_columns(&self) -> Vec<String> {
        self.relations
            .iter()
            .flat_map(|r| r.columns.iter().cloned())
            .collect()
    }

    /// Resolves a possibly-qualified column name to a flat offset.
    ///
    /// # Errors
    /// Returns [`DbError::NotFound`] for unknown columns and
    /// [`DbError::Invalid`] for ambiguous unqualified references.
    pub fn resolve(&self, table: Option<&str>, name: &str) -> DbResult<usize> {
        let mut found: Option<usize> = None;
        let mut base = 0usize;
        for rel in &self.relations {
            if self.any_qualifier || table.is_none_or(|t| t == rel.qualifier) {
                if let Some(i) = rel.columns.iter().position(|c| c == name) {
                    if found.is_some() {
                        return Err(DbError::Invalid(format!(
                            "ambiguous column reference {name}"
                        )));
                    }
                    found = Some(base + i);
                }
            }
            base += rel.columns.len();
        }
        found.ok_or_else(|| {
            let full = match table {
                Some(t) => format!("{t}.{name}"),
                None => name.to_owned(),
            };
            DbError::NotFound(format!("column {full}"))
        })
    }

    /// Column offsets belonging to the relation named `qualifier`.
    ///
    /// # Errors
    /// Returns [`DbError::NotFound`] when no relation has that name.
    pub fn relation_offsets(&self, qualifier: &str) -> DbResult<std::ops::Range<usize>> {
        let mut base = 0usize;
        for rel in &self.relations {
            if rel.qualifier == qualifier {
                return Ok(base..base + rel.columns.len());
            }
            base += rel.columns.len();
        }
        Err(DbError::NotFound(format!("relation {qualifier}")))
    }
}

/// Scalar builtin functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Builtin {
    /// First non-NULL argument.
    Coalesce,
    /// Smallest argument (NULLs ignored, as in PostgreSQL).
    Least,
    /// Largest argument (NULLs ignored).
    Greatest,
    /// Absolute value.
    Abs,
    /// String concatenation (`CONCAT`).
    Concat,
    /// Uppercase.
    Upper,
    /// Lowercase.
    Lower,
    /// String length.
    Length,
    /// Round to nearest integer (one arg) — returns float.
    Round,
    /// Floor.
    Floor,
    /// Ceiling.
    Ceil,
    /// Square root.
    Sqrt,
    /// `POWER(base, exp)`.
    Power,
    /// `MOD(a, b)`.
    Mod,
    /// `SIGN(x)` → -1/0/1.
    Sign,
}

impl Builtin {
    fn parse(name: &str) -> Option<Builtin> {
        match name {
            "coalesce" => Some(Builtin::Coalesce),
            "least" => Some(Builtin::Least),
            "greatest" => Some(Builtin::Greatest),
            "abs" => Some(Builtin::Abs),
            "concat" => Some(Builtin::Concat),
            "upper" => Some(Builtin::Upper),
            "lower" => Some(Builtin::Lower),
            "length" => Some(Builtin::Length),
            "round" => Some(Builtin::Round),
            "floor" => Some(Builtin::Floor),
            "ceil" | "ceiling" => Some(Builtin::Ceil),
            "sqrt" => Some(Builtin::Sqrt),
            "power" | "pow" => Some(Builtin::Power),
            "mod" => Some(Builtin::Mod),
            "sign" => Some(Builtin::Sign),
            _ => None,
        }
    }
}

/// An aggregate call extracted during binding.
#[derive(Debug, Clone)]
pub struct AggSpec {
    /// Which aggregate function.
    pub func: AggregateFunction,
    /// Bound argument; `None` encodes `COUNT(*)`.
    pub arg: Option<BoundExpr>,
}

/// A fully bound expression, ready to evaluate against a flat row.
#[derive(Debug, Clone)]
pub enum BoundExpr {
    /// Constant.
    Literal(Value),
    /// Flat column offset.
    Column(usize),
    /// Binary operation.
    Binary {
        /// Left operand.
        left: Box<BoundExpr>,
        /// Operator.
        op: BinaryOp,
        /// Right operand.
        right: Box<BoundExpr>,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        expr: Box<BoundExpr>,
    },
    /// Builtin scalar function call.
    Func {
        /// Which builtin.
        builtin: Builtin,
        /// Bound arguments.
        args: Vec<BoundExpr>,
    },
    /// Searched CASE.
    Case {
        /// `(condition, result)` branches.
        branches: Vec<(BoundExpr, BoundExpr)>,
        /// ELSE result.
        else_result: Option<Box<BoundExpr>>,
    },
    /// `IS [NOT] NULL`.
    IsNull {
        /// Tested expression.
        expr: Box<BoundExpr>,
        /// Negated form.
        negated: bool,
    },
    /// `[NOT] IN (list)`.
    InList {
        /// Tested expression.
        expr: Box<BoundExpr>,
        /// Candidates.
        list: Vec<BoundExpr>,
        /// Negated form.
        negated: bool,
    },
    /// `[NOT] BETWEEN`.
    Between {
        /// Tested expression.
        expr: Box<BoundExpr>,
        /// Lower bound.
        low: Box<BoundExpr>,
        /// Upper bound.
        high: Box<BoundExpr>,
        /// Negated form.
        negated: bool,
    },
    /// `CAST`.
    Cast {
        /// Source.
        expr: Box<BoundExpr>,
        /// Target type.
        data_type: DataType,
    },
}

/// Binds `expr` against `scope`, rejecting aggregate calls. A `?`
/// placeholder binds to its value in `params`, the execution's parameters.
///
/// # Errors
/// Returns a binder error for unknown/ambiguous columns, a placeholder
/// `params` does not supply, or aggregate usage where aggregates are not
/// allowed.
pub fn bind_scalar(expr: &Expr, scope: &Scope, params: &[Value]) -> DbResult<BoundExpr> {
    bind_expr(expr, scope, params, &mut None)
}

/// Binds `expr` against `scope` and `params` ([`bind_scalar`]), extracting
/// aggregate calls into `aggs`: the `i`-th becomes a reference to column
/// `scope.arity() + i`, just after the input row.
///
/// # Errors
/// Returns a binder error for unknown/ambiguous columns or nested aggregates.
pub fn bind_with_aggregates(
    expr: &Expr,
    scope: &Scope,
    params: &[Value],
    aggs: &mut Vec<AggSpec>,
) -> DbResult<BoundExpr> {
    let mut slot = Some(aggs);
    bind_expr(expr, scope, params, &mut slot)
}

/// The value of a constant expression under `params`: a literal or a
/// placeholder is read as it stands, anything else is bound against no
/// columns and evaluated.
///
/// # Errors
/// A column reference, an unsupplied placeholder or an evaluation error.
pub fn eval_constant(expr: &Expr, params: &[Value]) -> DbResult<Value> {
    match expr {
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Param(i) if *i < params.len() => Ok(params[*i].clone()),
        e => bind_scalar(e, &Scope::new(), params)?.eval(&Vec::new()),
    }
}

fn bind_expr(
    expr: &Expr,
    scope: &Scope,
    params: &[Value],
    aggs: &mut Option<&mut Vec<AggSpec>>,
) -> DbResult<BoundExpr> {
    let bind = |e: &Expr, aggs: &mut Option<&mut Vec<AggSpec>>| bind_expr(e, scope, params, aggs);
    match expr {
        Expr::Literal(v) => Ok(BoundExpr::Literal(v.clone())),
        Expr::Param(i) => match params.get(*i) {
            Some(v) => Ok(BoundExpr::Literal(v.clone())),
            None => Err(DbError::Invalid(format!(
                "unbound parameter ?{} — positional parameters are only valid in prepared statements",
                i + 1
            ))),
        },
        Expr::Column { table, name } => {
            Ok(BoundExpr::Column(scope.resolve(table.as_deref(), name)?))
        }
        Expr::Binary { left, op, right } => Ok(BoundExpr::Binary {
            left: Box::new(bind(left, aggs)?),
            op: *op,
            right: Box::new(bind(right, aggs)?),
        }),
        Expr::Unary { op, expr } => Ok(BoundExpr::Unary {
            op: *op,
            expr: Box::new(bind(expr, aggs)?),
        }),
        Expr::Function { name, args } => {
            if let Some(func) = AggregateFunction::parse(name) {
                let aggs = aggs.as_deref_mut().ok_or_else(|| {
                    DbError::Invalid(format!("aggregate {name} not allowed here"))
                })?;
                let arg = match args.as_slice() {
                    [FunctionArg::Wildcard] => None,
                    [FunctionArg::Expr(e)] => {
                        // no nested aggregates inside an aggregate argument
                        Some(bind(e, &mut None)?)
                    }
                    _ => {
                        return Err(DbError::Invalid(format!(
                            "aggregate {name} takes exactly one argument"
                        )))
                    }
                };
                if arg.is_none() && func != AggregateFunction::Count {
                    return Err(DbError::Invalid(format!("{name}(*) is not valid")));
                }
                aggs.push(AggSpec { func, arg });
                return Ok(BoundExpr::Column(scope.arity() + aggs.len() - 1));
            }
            let builtin = Builtin::parse(name)
                .ok_or_else(|| DbError::NotFound(format!("function {name}")))?;
            let mut bound_args = Vec::with_capacity(args.len());
            for a in args {
                match a {
                    FunctionArg::Expr(e) => bound_args.push(bind(e, aggs)?),
                    FunctionArg::Wildcard => {
                        return Err(DbError::Invalid(format!("* not valid in {name}()")))
                    }
                }
            }
            check_builtin_arity(builtin, bound_args.len())?;
            Ok(BoundExpr::Func {
                builtin,
                args: bound_args,
            })
        }
        Expr::Case {
            branches,
            else_result,
        } => {
            let mut bound = Vec::with_capacity(branches.len());
            for (c, r) in branches {
                bound.push((bind(c, aggs)?, bind(r, aggs)?));
            }
            let else_result = match else_result {
                Some(e) => Some(Box::new(bind(e, aggs)?)),
                None => None,
            };
            Ok(BoundExpr::Case {
                branches: bound,
                else_result,
            })
        }
        Expr::IsNull { expr, negated } => Ok(BoundExpr::IsNull {
            expr: Box::new(bind(expr, aggs)?),
            negated: *negated,
        }),
        Expr::InList {
            expr,
            list,
            negated,
        } => Ok(BoundExpr::InList {
            expr: Box::new(bind(expr, aggs)?),
            list: list
                .iter()
                .map(|e| bind(e, aggs))
                .collect::<DbResult<_>>()?,
            negated: *negated,
        }),
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => Ok(BoundExpr::Between {
            expr: Box::new(bind(expr, aggs)?),
            low: Box::new(bind(low, aggs)?),
            high: Box::new(bind(high, aggs)?),
            negated: *negated,
        }),
        Expr::Cast { expr, data_type } => Ok(BoundExpr::Cast {
            expr: Box::new(bind(expr, aggs)?),
            data_type: *data_type,
        }),
    }
}

fn check_builtin_arity(builtin: Builtin, n: usize) -> DbResult<()> {
    let ok = match builtin {
        Builtin::Coalesce | Builtin::Least | Builtin::Greatest | Builtin::Concat => n >= 1,
        Builtin::Power | Builtin::Mod => n == 2,
        _ => n == 1,
    };
    if ok {
        Ok(())
    } else {
        Err(DbError::Invalid(format!(
            "wrong number of arguments ({n}) for {builtin:?}"
        )))
    }
}

impl BoundExpr {
    /// Evaluates against a flat row (after a grouped input row come its
    /// group's aggregate values).
    ///
    /// # Errors
    /// Returns [`DbError::Eval`] on type errors, division by zero, etc.
    pub fn eval(&self, row: &Row) -> DbResult<Value> {
        match self {
            BoundExpr::Literal(v) => Ok(v.clone()),
            BoundExpr::Column(i) => Ok(row
                .get(*i)
                .cloned()
                .ok_or_else(|| DbError::Eval(format!("row too short for column {i}")))?),
            BoundExpr::Binary { left, op, right } => eval_binary(left, *op, right, row),
            BoundExpr::Unary { op, expr } => {
                let v = expr.eval(row)?;
                match op {
                    UnaryOp::Neg => v.neg(),
                    UnaryOp::Not => Ok(match v {
                        Value::Null => Value::Null,
                        Value::Bool(b) => Value::Bool(!b),
                        other => {
                            return Err(DbError::Eval(format!(
                                "NOT requires boolean, got {}",
                                other.type_name()
                            )))
                        }
                    }),
                }
            }
            BoundExpr::Func { builtin, args } => eval_builtin(*builtin, args, row),
            BoundExpr::Case {
                branches,
                else_result,
            } => {
                for (cond, result) in branches {
                    if cond.eval(row)?.is_truthy() {
                        return result.eval(row);
                    }
                }
                match else_result {
                    Some(e) => e.eval(row),
                    None => Ok(Value::Null),
                }
            }
            BoundExpr::IsNull { expr, negated } => {
                let v = expr.eval(row)?;
                Ok(Value::Bool(v.is_null() != *negated))
            }
            BoundExpr::InList {
                expr,
                list,
                negated,
            } => {
                let v = expr.eval(row)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                let mut saw_null = false;
                for cand in list {
                    let c = cand.eval(row)?;
                    match v.sql_eq(&c) {
                        Some(true) => return Ok(Value::Bool(!negated)),
                        Some(false) => {}
                        None => saw_null = true,
                    }
                }
                if saw_null {
                    Ok(Value::Null)
                } else {
                    Ok(Value::Bool(*negated))
                }
            }
            BoundExpr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                let v = expr.eval(row)?;
                let lo = low.eval(row)?;
                let hi = high.eval(row)?;
                match (v.sql_cmp(&lo), v.sql_cmp(&hi)) {
                    (Some(a), Some(b)) => {
                        let inside = a != Ordering::Less && b != Ordering::Greater;
                        Ok(Value::Bool(inside != *negated))
                    }
                    _ => Ok(Value::Null),
                }
            }
            BoundExpr::Cast { expr, data_type } => {
                let v = expr.eval(row)?;
                cast_value(v, *data_type)
            }
        }
    }

    /// Calls `f` on this node and every node below it.
    pub fn walk(&self, f: &mut impl FnMut(&BoundExpr)) {
        f(self);
        match self {
            BoundExpr::Literal(_) | BoundExpr::Column(_) => {}
            BoundExpr::Binary { left, right, .. } => {
                left.walk(f);
                right.walk(f);
            }
            BoundExpr::Unary { expr, .. }
            | BoundExpr::IsNull { expr, .. }
            | BoundExpr::Cast { expr, .. } => expr.walk(f),
            BoundExpr::Func { args, .. } => args.iter().for_each(|a| a.walk(f)),
            BoundExpr::Case {
                branches,
                else_result,
            } => {
                for (cond, result) in branches {
                    cond.walk(f);
                    result.walk(f);
                }
                else_result.iter().for_each(|e| e.walk(f));
            }
            BoundExpr::InList { expr, list, .. } => {
                expr.walk(f);
                list.iter().for_each(|e| e.walk(f));
            }
            BoundExpr::Between {
                expr, low, high, ..
            } => {
                expr.walk(f);
                low.walk(f);
                high.walk(f);
            }
        }
    }

    /// Which of `arity` columns the expressions `exprs` read: the columns a
    /// batch must gather for them.
    pub fn reads<'e>(exprs: impl IntoIterator<Item = &'e BoundExpr>, arity: usize) -> Vec<bool> {
        let mut read = vec![false; arity];
        for e in exprs {
            e.walk(&mut |node| match node {
                BoundExpr::Column(c) if *c < arity => read[*c] = true,
                _ => {}
            });
        }
        read
    }

    /// True when the expression references no columns (safe to evaluate once).
    pub fn is_constant(&self) -> bool {
        let mut constant = true;
        self.walk(&mut |e| constant &= !matches!(e, BoundExpr::Column(_)));
        constant
    }
}

fn eval_binary(left: &BoundExpr, op: BinaryOp, right: &BoundExpr, row: &Row) -> DbResult<Value> {
    // short-circuit logic with SQL three-valued semantics
    if op == BinaryOp::And {
        let l = left.eval(row)?;
        if let Value::Bool(false) = l {
            return Ok(Value::Bool(false));
        }
        let r = right.eval(row)?;
        return Ok(match (l, r) {
            (Value::Bool(true), Value::Bool(true)) => Value::Bool(true),
            (_, Value::Bool(false)) => Value::Bool(false),
            _ => Value::Null,
        });
    }
    if op == BinaryOp::Or {
        let l = left.eval(row)?;
        if let Value::Bool(true) = l {
            return Ok(Value::Bool(true));
        }
        let r = right.eval(row)?;
        return Ok(match (l, r) {
            (Value::Bool(false), Value::Bool(false)) => Value::Bool(false),
            (_, Value::Bool(true)) => Value::Bool(true),
            _ => Value::Null,
        });
    }
    let l = left.eval(row)?;
    let r = right.eval(row)?;
    match op {
        BinaryOp::Add => l.add(&r),
        BinaryOp::Sub => l.sub(&r),
        BinaryOp::Mul => l.mul(&r),
        BinaryOp::Div => l.div(&r),
        BinaryOp::Mod => l.rem(&r),
        BinaryOp::Eq => Ok(bool3(l.sql_eq(&r))),
        BinaryOp::NotEq => Ok(bool3(l.sql_eq(&r).map(|b| !b))),
        BinaryOp::Lt => Ok(bool3(l.sql_cmp(&r).map(|o| o == Ordering::Less))),
        BinaryOp::LtEq => Ok(bool3(l.sql_cmp(&r).map(|o| o != Ordering::Greater))),
        BinaryOp::Gt => Ok(bool3(l.sql_cmp(&r).map(|o| o == Ordering::Greater))),
        BinaryOp::GtEq => Ok(bool3(l.sql_cmp(&r).map(|o| o != Ordering::Less))),
        BinaryOp::Concat => {
            if l.is_null() || r.is_null() {
                Ok(Value::Null)
            } else {
                Ok(Value::Text(format!("{l}{r}")))
            }
        }
        BinaryOp::And | BinaryOp::Or => unreachable!("handled above"),
    }
}

fn bool3(v: Option<bool>) -> Value {
    match v {
        Some(b) => Value::Bool(b),
        None => Value::Null,
    }
}

fn eval_builtin(builtin: Builtin, args: &[BoundExpr], row: &Row) -> DbResult<Value> {
    match builtin {
        Builtin::Coalesce => {
            for a in args {
                let v = a.eval(row)?;
                if !v.is_null() {
                    return Ok(v);
                }
            }
            Ok(Value::Null)
        }
        Builtin::Least | Builtin::Greatest => {
            let mut best: Option<Value> = None;
            for a in args {
                let v = a.eval(row)?;
                if v.is_null() {
                    continue;
                }
                best = Some(match best {
                    None => v,
                    Some(b) => {
                        let keep_new = match builtin {
                            Builtin::Least => v.total_cmp(&b) == Ordering::Less,
                            _ => v.total_cmp(&b) == Ordering::Greater,
                        };
                        if keep_new {
                            v
                        } else {
                            b
                        }
                    }
                });
            }
            Ok(best.unwrap_or(Value::Null))
        }
        Builtin::Abs => {
            let v = args[0].eval(row)?;
            match v {
                Value::Null => Ok(Value::Null),
                Value::Int(i) => Ok(Value::Int(i.abs())),
                Value::Float(f) => Ok(Value::Float(f.abs())),
                other => Err(DbError::Eval(format!("ABS of {}", other.type_name()))),
            }
        }
        Builtin::Concat => {
            let mut out = String::new();
            for a in args {
                let v = a.eval(row)?;
                if !v.is_null() {
                    out.push_str(&v.to_string());
                }
            }
            Ok(Value::Text(out))
        }
        Builtin::Upper | Builtin::Lower => {
            let v = args[0].eval(row)?;
            match v {
                Value::Null => Ok(Value::Null),
                Value::Text(s) => Ok(Value::Text(if builtin == Builtin::Upper {
                    s.to_uppercase()
                } else {
                    s.to_lowercase()
                })),
                other => Err(DbError::Eval(format!(
                    "{builtin:?} of {}",
                    other.type_name()
                ))),
            }
        }
        Builtin::Length => {
            let v = args[0].eval(row)?;
            match v {
                Value::Null => Ok(Value::Null),
                Value::Text(s) => Ok(Value::Int(s.chars().count() as i64)),
                other => Err(DbError::Eval(format!("LENGTH of {}", other.type_name()))),
            }
        }
        Builtin::Round | Builtin::Floor | Builtin::Ceil | Builtin::Sqrt => {
            let v = args[0].eval(row)?;
            let f = match v {
                Value::Null => return Ok(Value::Null),
                ref v => v
                    .as_f64()
                    .ok_or_else(|| DbError::Eval(format!("{builtin:?} of {}", v.type_name())))?,
            };
            Ok(Value::Float(match builtin {
                Builtin::Round => f.round(),
                Builtin::Floor => f.floor(),
                Builtin::Ceil => f.ceil(),
                _ => f.sqrt(),
            }))
        }
        Builtin::Power => {
            let b = args[0].eval(row)?;
            let e = args[1].eval(row)?;
            match (b.as_f64(), e.as_f64()) {
                _ if b.is_null() || e.is_null() => Ok(Value::Null),
                (Some(b), Some(e)) => Ok(Value::Float(b.powf(e))),
                _ => Err(DbError::Eval("POWER requires numeric arguments".into())),
            }
        }
        Builtin::Mod => {
            let a = args[0].eval(row)?;
            let b = args[1].eval(row)?;
            a.rem(&b)
        }
        Builtin::Sign => {
            let v = args[0].eval(row)?;
            match v {
                Value::Null => Ok(Value::Null),
                Value::Int(i) => Ok(Value::Int(i.signum())),
                Value::Float(f) => Ok(Value::Int(if f > 0.0 {
                    1
                } else if f < 0.0 {
                    -1
                } else {
                    0
                })),
                other => Err(DbError::Eval(format!("SIGN of {}", other.type_name()))),
            }
        }
    }
}

fn cast_value(v: Value, data_type: DataType) -> DbResult<Value> {
    match (&v, data_type) {
        (Value::Null, _) => Ok(Value::Null),
        (Value::Int(_), DataType::Int) | (Value::Float(_), DataType::Float) => Ok(v),
        (Value::Int(i), DataType::Float) => Ok(Value::Float(*i as f64)),
        (Value::Float(f), DataType::Int) => Ok(Value::Int(*f as i64)),
        (Value::Int(i), DataType::Text) => Ok(Value::Text(i.to_string())),
        (Value::Float(f), DataType::Text) => Ok(Value::Text(f.to_string())),
        (Value::Bool(b), DataType::Text) => Ok(Value::Text(b.to_string())),
        (Value::Bool(b), DataType::Int) => Ok(Value::Int(i64::from(*b))),
        (Value::Text(s), DataType::Int) => s
            .trim()
            .parse::<i64>()
            .map(Value::Int)
            .map_err(|_| DbError::Eval(format!("cannot cast '{s}' to INT"))),
        (Value::Text(s), DataType::Float) => s
            .trim()
            .parse::<f64>()
            .map(Value::Float)
            .map_err(|_| DbError::Eval(format!("cannot cast '{s}' to FLOAT"))),
        (Value::Text(s), DataType::Bool) => match s.trim().to_ascii_lowercase().as_str() {
            "true" | "t" | "1" => Ok(Value::Bool(true)),
            "false" | "f" | "0" => Ok(Value::Bool(false)),
            _ => Err(DbError::Eval(format!("cannot cast '{s}' to BOOL"))),
        },
        (Value::Text(_), DataType::Text) => Ok(v),
        (other, t) => Err(DbError::Eval(format!(
            "cannot cast {} to {t}",
            other.type_name()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_expression;

    fn scope_ab() -> Scope {
        let mut s = Scope::new();
        s.push(ScopeRelation {
            qualifier: "t".into(),
            columns: vec!["a".into(), "b".into()],
        });
        s.push(ScopeRelation {
            qualifier: "u".into(),
            columns: vec!["a".into(), "c".into()],
        });
        s
    }

    fn eval(sql: &str, row: &[Value]) -> DbResult<Value> {
        let e = parse_expression(sql).unwrap();
        let b = bind_scalar(&e, &scope_ab(), &[])?;
        b.eval(&row.to_vec())
    }

    #[test]
    fn qualified_resolution() {
        let s = scope_ab();
        assert_eq!(s.resolve(Some("t"), "a").unwrap(), 0);
        assert_eq!(s.resolve(Some("u"), "a").unwrap(), 2);
        assert_eq!(s.resolve(None, "c").unwrap(), 3);
        assert!(matches!(s.resolve(None, "a"), Err(DbError::Invalid(_))));
        assert!(matches!(s.resolve(None, "zzz"), Err(DbError::NotFound(_))));
    }

    #[test]
    fn arithmetic_and_case() {
        let row = vec![Value::Int(3), Value::Int(4), Value::Int(0), Value::Int(0)];
        assert_eq!(eval("t.a + t.b * 2", &row).unwrap(), Value::Int(11));
        assert_eq!(
            eval("CASE WHEN t.a > 2 THEN 'big' ELSE 'small' END", &row).unwrap(),
            Value::Text("big".into())
        );
    }

    #[test]
    fn coalesce_and_least() {
        let row = vec![Value::Null, Value::Int(4), Value::Int(0), Value::Int(0)];
        assert_eq!(eval("COALESCE(t.a, 7)", &row).unwrap(), Value::Int(7));
        assert_eq!(eval("LEAST(t.b, 2, 9)", &row).unwrap(), Value::Int(2));
        assert_eq!(eval("GREATEST(t.b, 2, 9)", &row).unwrap(), Value::Int(9));
        // LEAST ignores NULLs like PostgreSQL
        assert_eq!(eval("LEAST(t.a, 5)", &row).unwrap(), Value::Int(5));
    }

    #[test]
    fn three_valued_logic() {
        let row = vec![Value::Null, Value::Bool(true), Value::Int(0), Value::Int(0)];
        assert_eq!(eval("t.a = 1 AND t.b", &row).unwrap(), Value::Null);
        assert_eq!(eval("t.a = 1 OR t.b", &row).unwrap(), Value::Bool(true));
        assert_eq!(eval("t.a = 1 AND FALSE", &row).unwrap(), Value::Bool(false));
        assert_eq!(eval("NOT (t.a = 1)", &row).unwrap(), Value::Null);
    }

    #[test]
    fn in_list_null_semantics() {
        let row = vec![Value::Int(5), Value::Null, Value::Int(0), Value::Int(0)];
        assert_eq!(eval("t.a IN (1, 5)", &row).unwrap(), Value::Bool(true));
        assert_eq!(eval("t.a IN (1, 2)", &row).unwrap(), Value::Bool(false));
        assert_eq!(eval("t.a IN (1, t.b)", &row).unwrap(), Value::Null);
        assert_eq!(eval("t.b IN (1)", &row).unwrap(), Value::Null);
    }

    #[test]
    fn aggregates_rejected_in_scalar_context() {
        let e = parse_expression("SUM(t.a)").unwrap();
        assert!(bind_scalar(&e, &scope_ab(), &[]).is_err());
    }

    #[test]
    fn aggregate_extraction() {
        let e = parse_expression("COALESCE(0.85 * SUM(t.a * t.b), 0.0)").unwrap();
        let mut aggs = Vec::new();
        let b = bind_with_aggregates(&e, &scope_ab(), &[], &mut aggs).unwrap();
        assert_eq!(aggs.len(), 1);
        // evaluate with the aggregate result after the input row
        let mut row = vec![Value::Null; scope_ab().arity()];
        row.push(Value::Float(2.0));
        let v = b.eval(&row).unwrap();
        assert_eq!(v, Value::Float(1.7));
    }

    #[test]
    fn casts() {
        let row = vec![Value::Int(0); 4];
        assert_eq!(eval("CAST('42' AS INT)", &row).unwrap(), Value::Int(42));
        assert_eq!(eval("CAST(3.7 AS INT)", &row).unwrap(), Value::Int(3));
        assert!(eval("CAST('xyz' AS INT)", &row).is_err());
    }

    #[test]
    fn between() {
        let row = vec![Value::Int(5), Value::Int(0), Value::Int(0), Value::Int(0)];
        assert_eq!(
            eval("t.a BETWEEN 1 AND 10", &row).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            eval("t.a NOT BETWEEN 1 AND 10", &row).unwrap(),
            Value::Bool(false)
        );
    }

    #[test]
    fn constant_detection() {
        let e = parse_expression("1 + 2 * 3").unwrap();
        assert!(bind_scalar(&e, &Scope::new(), &[]).unwrap().is_constant());
        let e = parse_expression("t.a + 1").unwrap();
        assert!(!bind_scalar(&e, &scope_ab(), &[]).unwrap().is_constant());
    }
}
