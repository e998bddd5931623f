//! What a statement reads, walked once per plan ([`Reads::of`]): the tables
//! it locks, views expanded, and its *read masks* — which columns of each
//! `FROM` factor it reads anywhere, which `EXPLAIN ANALYZE` reports as
//! `cols=read/of`. Both ride in the plan's
//! [`crate::plan_cache::Admission`], so a plan-cache hit pays nothing. A
//! reference marks columns as the binder resolves it: `t.c` in the factor
//! visible as `t`, a bare `c` in every factor that has a `c`; `*` and `t.*`
//! mark every column. A view or a derived table is read whole; a derived
//! table's `SELECT`s get masks of their own, a view's body none.

use crate::ast::*;
use crate::catalog::{Catalog, TableHandle};
use crate::exec::update_target;
use crate::txn::LockMode;
use std::collections::BTreeMap;

/// What a statement reads of one `FROM` factor, per column.
#[derive(Debug)]
pub struct FactorReads {
    /// Whether something in the statement reads the column.
    pub scan: Box<[bool]>,
}

/// What one statement reads.
#[derive(Debug, Default)]
pub struct Reads {
    /// The tables it locks, in name order (the acquisition order that
    /// avoids deadlocks): one it writes exclusively, one it reads shared.
    pub locks: BTreeMap<String, LockMode>,
    /// Per `FROM` list, keyed by its address — a `Vec`'s buffer stays put
    /// while the plan owns the statement, and a list no key names (a
    /// view's) is read whole — its run of `factors`.
    lists: Vec<(usize, std::ops::Range<usize>)>,
    /// One entry per factor of a list in `FROM` order, each item's base,
    /// then its joins; `None` for a factor read whole.
    factors: Vec<Option<FactorReads>>,
    /// What an `UPDATE` or `DELETE` reads of its target.
    target: Option<FactorReads>,
}

/// A base-table factor being marked: its visible name, table and marks.
type Marks<'a> = Option<(&'a str, TableHandle, Vec<bool>)>;

/// Marks column `name` of the factors `table` names (all without it) as
/// read; names match exactly, as the binder's do.
fn mark(factors: &mut [Marks], table: Option<&str>, name: &str) {
    for (visible, handle, marks) in factors.iter_mut().flatten() {
        let t = handle.read();
        let c = t.schema().columns().iter().position(|c| c.name == name);
        if let Some(c) = c.filter(|_| table.is_none_or(|t| t == *visible)) {
            marks[c] = true;
        }
    }
}

/// [`mark`]s every column `e` reads.
fn mark_expr(factors: &mut [Marks], e: &Expr) {
    e.visit_columns(&mut |table, name| mark(factors, table, name));
}

/// A marked factor's reads; none when the statement reads every column,
/// so it is read whole.
fn finish(marks: Marks) -> Option<FactorReads> {
    let (_, _, scan) = marks.filter(|(_, _, scan)| scan.contains(&false))?;
    let scan = scan.into();
    Some(FactorReads { scan })
}

/// The factors of `from` in `FROM` order, each with its `ON`.
fn factors(from: &[TableRef]) -> impl Iterator<Item = (&TableFactor, Option<&Expr>)> {
    from.iter().flat_map(|tr| {
        let joins = tr.joins.iter().map(|j| (&j.factor, j.on.as_ref()));
        std::iter::once((&tr.base, None)).chain(joins)
    })
}

/// The walk: the catalog it resolves names in, and how many views deep it is.
struct Walk<'c> {
    reads: Reads,
    catalog: &'c Catalog,
    views: usize,
}

impl Reads {
    /// What `stmt` reads, against `catalog`'s views and schemas.
    pub fn of(stmt: &Statement, catalog: &Catalog) -> Reads {
        let reads = Reads::default();
        let mut w = Walk {
            reads,
            catalog,
            views: 0,
        };
        let (query, written) = match stmt {
            Statement::Select(q) => (Some(q), None),
            // EXPLAIN ANALYZE runs its statement (and takes DML back), so it
            // locks like it; plain EXPLAIN only looks at the tables
            Statement::Explain { analyze, stmt } => {
                let mut inner = Reads::of(stmt, catalog);
                let shared = inner.locks.values_mut().filter(|_| !*analyze);
                shared.for_each(|m| *m = LockMode::Shared);
                return inner;
            }
            Statement::Insert(Insert { table, source, .. }) => match source {
                InsertSource::Select(q) => (Some(&**q), Some(table)),
                InsertSource::Values(_) => (None, Some(table)),
            },
            Statement::CreateTable(ct) => (ct.as_select.as_deref(), None),
            Statement::Update(Update { table, .. })
            | Statement::Delete { table, .. }
            | Statement::Truncate { name: table }
            | Statement::DropTable { name: table, .. }
            | Statement::CreateIndex(CreateIndex { table, .. }) => (None, Some(table)),
            _ => (None, None),
        };
        if let Some(q) = query {
            w.set_expr(&q.body, &q.order_by);
        }
        w.target(stmt);
        if let Some(table) = written {
            w.reads.locks.insert(table.clone(), LockMode::Exclusive);
        }
        // dropping an index writes its table, which no statement reading
        // it in place may see change
        if let Statement::DropIndex { name, .. } = stmt {
            let table = catalog.index_table(name);
            table.map(|t| w.reads.locks.insert(t, LockMode::Exclusive));
        }
        w.reads
    }

    /// The masks of the factors of `from`, in `FROM` order; none (every
    /// factor read whole) when the plan has none for the list.
    pub fn list_of(&self, from: &[TableRef]) -> &[Option<FactorReads>] {
        let key = from.as_ptr() as usize;
        let found = self.lists.iter().find(|l| !from.is_empty() && l.0 == key);
        found.map_or(&[], |(_, at)| &self.factors[at.clone()])
    }

    /// The mask of an `UPDATE`'s or `DELETE`'s target, as a one-factor list.
    pub fn target(&self) -> &[Option<FactorReads>] {
        std::slice::from_ref(&self.target)
    }
}

impl Walk<'_> {
    /// `f` to be marked when it is a base table, not a view; its lock is
    /// taken shared.
    fn marks<'f>(&mut self, f: &'f TableFactor) -> Marks<'f> {
        let TableFactor::Table { name, .. } = f else {
            return None;
        };
        // a name is a view's or a table's, never both
        let table = self.catalog.table(name).ok()?;
        let n = table.read().schema().arity();
        self.lock(name);
        Some((f.visible_name(), table, vec![false; n]))
    }

    /// Locks table `name` shared, unless the statement locks it already.
    fn lock(&mut self, name: &str) {
        let locks = &mut self.reads.locks;
        locks.entry(name.to_owned()).or_insert(LockMode::Shared);
    }

    /// What an `UPDATE` or `DELETE` reads of its target: the columns its
    /// `SET` and `WHERE` read and the ones it assigns; and its `FROM` list.
    fn target(&mut self, stmt: &Statement) {
        let (f, set, selection, from, on) = match stmt {
            Statement::Update(u) => {
                let set = &u.assignments[..];
                (update_target(u), set, &u.selection, &u.from[..], &u.join_on)
            }
            Statement::Delete { table, selection } => {
                let name = table.clone();
                let f = TableFactor::Table { name, alias: None };
                (f, &[][..], selection, &[][..], &None)
            }
            _ => return,
        };
        let set_exprs = set.iter().map(|(_, e)| e);
        let above = set_exprs.chain(selection).chain(on);
        self.list(from, above.clone(), &[]);
        let mut target = [self.marks(&f)];
        above.for_each(|e| mark_expr(&mut target, e));
        for (c, _) in set {
            mark(&mut target, None, c);
        }
        let [target] = target;
        self.reads.target = finish(target);
    }

    /// Adds what the `SELECT`s of `body`, sorted by `order_by`, read.
    fn set_expr(&mut self, body: &SetExpr, order_by: &[OrderByExpr]) {
        match body {
            SetExpr::Select(s) => {
                let stars = s.projections.iter().filter_map(|p| match p {
                    SelectItem::Expr { .. } => None,
                    SelectItem::Wildcard => Some(None),
                    SelectItem::QualifiedWildcard(q) => Some(Some(q.as_str())),
                });
                let stars: Vec<Option<&str>> = stars.collect();
                let projected = s.projections.iter().filter_map(|p| match p {
                    SelectItem::Expr { expr, .. } => Some(expr),
                    _ => None,
                });
                let keys = s.group_by.iter().chain(order_by.iter().map(|o| &o.expr));
                let rest = s.selection.iter().chain(&s.having).chain(keys);
                self.list(&s.from, projected.chain(rest), &stars);
            }
            SetExpr::SetOp { left, right, .. } => {
                self.set_expr(left, &[]);
                self.set_expr(right, &[]);
            }
            SetExpr::Values(_) => {}
        }
    }

    /// Adds what `from` reads under a statement that reads `above` and the
    /// wildcards `stars` (`None`: `*`), its views and derived tables too.
    fn list<'e>(
        &mut self,
        from: &[TableRef],
        above: impl Iterator<Item = &'e Expr>,
        stars: &[Option<&str>],
    ) {
        let mut marks: Vec<Marks> = factors(from).map(|(f, _)| self.marks(f)).collect();
        above.for_each(|e| mark_expr(&mut marks, e));
        for (visible, _, marks) in marks.iter_mut().flatten() {
            if stars.iter().any(|q| q.is_none_or(|q| q == *visible)) {
                marks.fill(true);
            }
        }
        for (at, (f, on)) in factors(from).enumerate() {
            if let Some(on) = on {
                mark_expr(&mut marks, on);
            }
            match f {
                TableFactor::Derived { subquery: q, .. } => self.set_expr(&q.body, &q.order_by),
                TableFactor::Table { .. } if marks[at].is_some() => {}
                TableFactor::Table { name, .. } => match self.catalog.view(name) {
                    // past 16 views deep a view is circular, and fails to run
                    Some(view) if self.views < 16 => {
                        self.views += 1;
                        self.set_expr(&view.body, &view.order_by);
                        self.views -= 1;
                    }
                    Some(_) => {}
                    // a missing table fails when the statement runs
                    None => self.lock(name),
                },
            }
        }
        // a list whose factors are all read whole needs no entry
        let start = self.reads.factors.len();
        if self.views == 0 {
            self.reads.factors.extend(marks.into_iter().map(finish));
        }
        let (key, end) = (from.as_ptr() as usize, self.reads.factors.len());
        match self.reads.factors[start..].iter().any(Option::is_some) {
            true => self.reads.lists.push((key, start..end)),
            false => self.reads.factors.truncate(start),
        }
    }
}
