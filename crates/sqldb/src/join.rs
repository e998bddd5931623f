//! Access paths and join algorithms: how a statement reads a base table
//! (index seek or scan) and how two relations meet (index nested-loop, hash
//! join, block nested-loop).
//!
//! One function, [`choose_access`], decides how a statement reads a base
//! table it filters: `WHERE <indexed column> = <constant>` among the
//! top-level `AND` conjuncts seeks the index, anything else scans. `SELECT`,
//! `UPDATE`, `DELETE` and `EXPLAIN` all ask it.
//!
//! One function, [`choose_join`], decides which join algorithm runs, from
//! quantities observed at execution time: the outer side's actual row
//! count and — when the inner side is a base table with an index on the
//! join column — that table's size and index fan-out. Probing the index
//! wins on *every* engine profile when the outer side is small next to the
//! inner table (SQLoop's per-partition Compute: a few hundred live rows
//! against the whole materialized edge join, paper §V-C "indexes on all
//! tables"); otherwise the profile's [`JoinStrategy`] names the fallback,
//! reproducing the architectural difference between the paper's engines:
//! the PostgreSQL profile hash-joins, the MySQL/MariaDB profiles only have
//! nested loops.
//!
//! The inner side of a join arrives as a [`JoinInner`]: a plain base table
//! is handed over *unscanned*, so an index nested-loop never materializes
//! it; the other algorithms scan it here, once the choice is made.

use crate::ast::{BinaryOp, Expr, JoinType};
use crate::bind::{bind_scalar, BoundExpr, Scope, ScopeRelation};
use crate::catalog::TableHandle;
use crate::error::DbResult;
use crate::profile::{EngineProfile, JoinStrategy};
use crate::stats::Stats;
use crate::storage::Table;
use crate::types::DataType;
use crate::value::{Row, Value};
use std::collections::HashMap;
use std::time::Instant;

/// A materialized relation flowing through the executor.
#[derive(Debug, Clone)]
pub struct Rel {
    /// Visible relations and their column names.
    pub scope: Scope,
    /// Materialized rows (concatenation of all scope relations' columns).
    pub rows: Vec<Row>,
}

impl Rel {
    /// A relation with a single empty row and no columns (`SELECT` without
    /// `FROM`).
    pub fn unit() -> Rel {
        Rel {
            scope: Scope::new(),
            rows: vec![Vec::new()],
        }
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.scope.arity()
    }
}

/// Name of the hidden trailing column [`JoinInner::table_with_slots`]
/// appends; no SQL identifier can spell it.
const SLOT_COLUMN: &str = "\u{0}slot";

/// The inner (right) side of a join.
#[derive(Debug)]
pub enum JoinInner {
    /// Already materialized: a subquery, a view, or an earlier join.
    Rows(Rel),
    /// A base table not yet scanned (`scope` holds its one relation).
    Table {
        /// The table's visible name and columns.
        scope: Scope,
        /// The table itself.
        handle: TableHandle,
        /// Every row read from the table ends in its slot number (the
        /// scope's last column), so DML can find the row again.
        slots: bool,
    },
}

impl JoinInner {
    /// The base table behind `handle`, visible as `visible`, unscanned.
    pub fn table(handle: TableHandle, visible: &str) -> JoinInner {
        let scope = table_scope(&handle, visible);
        JoinInner::Table {
            scope,
            handle,
            slots: false,
        }
    }

    /// [`JoinInner::table`] for the target of an `UPDATE … FROM`: each
    /// joined row carries, as its last column, the slot the target row
    /// lives in.
    pub fn table_with_slots(handle: TableHandle, visible: &str) -> JoinInner {
        let mut relation = table_relation(&handle, visible);
        relation.columns.push(SLOT_COLUMN.to_owned());
        let mut scope = Scope::new();
        scope.push(relation);
        JoinInner::Table {
            scope,
            handle,
            slots: true,
        }
    }

    fn scope(&self) -> &Scope {
        match self {
            JoinInner::Rows(rel) => &rel.scope,
            JoinInner::Table { scope, .. } => scope,
        }
    }
}

/// A base table, visible as `visible`, as a scope relation.
fn table_relation(handle: &TableHandle, visible: &str) -> ScopeRelation {
    let table = handle.read();
    let columns = table.schema().columns().iter();
    ScopeRelation {
        qualifier: visible.to_owned(),
        columns: columns.map(|c| c.name.clone()).collect(),
    }
}

/// The single-relation scope of a base table visible as `visible`.
pub(crate) fn table_scope(handle: &TableHandle, visible: &str) -> Scope {
    let mut scope = Scope::new();
    scope.push(table_relation(handle, visible));
    scope
}

/// How a statement reads one base table.
#[derive(Debug, Clone, PartialEq)]
pub enum AccessPath {
    /// Every live slot.
    Scan,
    /// Only the slots one index holds under `key`.
    Seek {
        /// Name of the index.
        index: String,
        /// Offset of the indexed column.
        column: usize,
        /// Its name, for the label.
        column_name: String,
        /// The constant the column is compared to.
        key: Value,
    },
}

impl AccessPath {
    /// The live `(slot, row)`s of `table` this path reaches.
    pub fn rows<'a>(&'a self, table: &'a Table) -> Box<dyn Iterator<Item = (usize, &'a Row)> + 'a> {
        match self {
            AccessPath::Scan => Box::new(table.iter()),
            AccessPath::Seek { column, key, .. } => Box::new(
                table
                    .index_lookup(*column, key)
                    .unwrap_or(&[])
                    .iter()
                    .filter_map(|&slot| table.row(slot).map(|row| (slot, row))),
            ),
        }
    }

    /// The operator label `EXPLAIN` and `EXPLAIN ANALYZE` print for a read
    /// of `table` (`name` or `name AS alias`); `prefiltered` marks a scan
    /// that applies `WHERE` conjuncts pushed below the joins.
    pub fn describe(&self, table: &str, prefiltered: bool) -> String {
        match self {
            AccessPath::Seek {
                index,
                column_name,
                key,
                ..
            } => {
                let key = crate::render::expr_to_sql(
                    &Expr::Literal(key.clone()),
                    &EngineProfile::Postgres.dialect(),
                );
                format!("IndexSeek {table} using {index} ({column_name} = {key})")
            }
            AccessPath::Scan if prefiltered => format!("SeqScan {table} (pushed-down filter)"),
            AccessPath::Scan => format!("SeqScan {table}"),
        }
    }
}

/// Whether an index on a column of type `ty` answers `= key` exactly as
/// evaluating the comparison on every row would. NULL equals nothing, and a
/// constant of another type family (`TEXT` against an `INT` column) is left
/// to the scan, which owns whatever the comparison does with it.
fn seekable(ty: DataType, key: &Value) -> bool {
    matches!(
        (ty, key),
        (
            DataType::Int | DataType::Float,
            Value::Int(_) | Value::Float(_)
        ) | (DataType::Text, Value::Text(_))
            | (DataType::Bool, Value::Bool(_))
    )
}

/// The one place an access path is chosen.
///
/// `conjuncts` are top-level `AND` conjuncts of the statement's predicate
/// that mention only `table` (visible as `visible`). One of the form
/// `<column> = <constant>` (either way round) whose column carries an index
/// becomes a seek — the most selective index when several qualify. The seek
/// only narrows what is read: callers still run the whole predicate on the
/// rows it returns. Everything else scans: no such conjunct (`OR`, ranges,
/// column-to-column), no index, a constant that fails to evaluate, or a
/// key the index cannot answer exactly (NULL, or a constant of another
/// type family than the column's).
pub fn choose_access(table: &Table, visible: &str, conjuncts: &[&Expr]) -> AccessPath {
    let schema = table.schema();
    let mut best: Option<(usize, AccessPath)> = None;
    for conjunct in conjuncts {
        let Expr::Binary {
            left,
            op: BinaryOp::Eq,
            right,
        } = conjunct
        else {
            continue;
        };
        for (col, constant) in [(left, right), (right, left)] {
            let Expr::Column { table: qual, name } = col.as_ref() else {
                continue;
            };
            if qual.as_deref().is_some_and(|q| q != visible) {
                continue;
            }
            let Some(column) = schema.column_index(name) else {
                continue;
            };
            let Some((index, distinct_keys)) = table.index_on(column) else {
                continue;
            };
            // a constant binds against the empty scope and evaluates once
            let Ok(key) =
                bind_scalar(constant, &Scope::new()).and_then(|c| c.eval(&Vec::new(), &[]))
            else {
                continue;
            };
            if !seekable(schema.columns()[column].data_type, &key) {
                continue;
            }
            if best.as_ref().is_none_or(|(d, _)| distinct_keys > *d) {
                best = Some((
                    distinct_keys,
                    AccessPath::Seek {
                        index: index.to_owned(),
                        column,
                        column_name: name.clone(),
                        key,
                    },
                ));
            }
        }
    }
    best.map_or(AccessPath::Scan, |(_, path)| path)
}

/// The join algorithm [`choose_join`] picked (or, without an equi key, the
/// only one applicable).
#[derive(Debug, Clone, PartialEq)]
pub enum JoinAlgo {
    /// One index probe into the unscanned inner table per outer row.
    IndexNestedLoop {
        /// Name of the probed index.
        index: String,
        /// Outer rows at decision time.
        outer: usize,
        /// Live rows of the inner table.
        inner: usize,
        /// Inner rows per distinct index key.
        fanout: f64,
    },
    /// Hash table on the smaller side, probed with the larger.
    Hash,
    /// Every (outer block, inner row) pair compared on the key.
    BlockNestedLoop {
        /// Outer rows per block.
        buffer_rows: usize,
    },
    /// No equi key: the full `ON` predicate per row pair (cross joins too).
    NestedLoop,
}

impl JoinAlgo {
    /// The operator label `EXPLAIN` and `EXPLAIN ANALYZE` print.
    pub fn describe(&self, join_type: JoinType) -> String {
        let kind = match join_type {
            JoinType::Inner => "Join",
            JoinType::Left => "LeftJoin",
            JoinType::Cross => return "NestedLoop (cross join)".to_string(),
        };
        match self {
            JoinAlgo::IndexNestedLoop {
                index,
                outer,
                inner,
                fanout,
            } => format!(
                "IndexNestedLoop{kind} using {index} (outer={outer}, inner={inner}, fanout={fanout:.1})"
            ),
            JoinAlgo::Hash => format!("Hash{kind}"),
            JoinAlgo::BlockNestedLoop { buffer_rows } => {
                format!("BlockNestedLoop (buffer {buffer_rows}){kind}")
            }
            JoinAlgo::NestedLoop => format!("NestedLoop{kind} (non-equi ON)"),
        }
    }
}

/// A usable index on the inner table's join column.
#[derive(Debug, Clone)]
pub struct IndexShape {
    /// Index name.
    pub name: String,
    /// Live rows in the inner table.
    pub inner_rows: usize,
    /// Distinct keys in the index.
    pub distinct_keys: usize,
}

/// How many times cheaper (in rows touched) the index probes must be than
/// the fallback before they replace it. At `outer = distinct keys` — a
/// whole-table join — probing touches exactly `inner + outer` rows, the
/// hash join's own cost, so the margin keeps such joins on their plan.
const PROBE_MARGIN: f64 = 2.0;

/// The one place a join algorithm is chosen.
///
/// Probing costs `outer × (1 + fanout)` rows (one lookup plus `fanout`
/// fetched rows per outer row, `fanout = inner / distinct keys`). The
/// profile's fallback costs `inner + outer` rows as a hash join and
/// `inner × (1 + outer)` as a block nested loop (one inner scan plus every
/// pair compared). The index wins when twice its cost (`PROBE_MARGIN`) is
/// still below the fallback's; an empty outer side therefore never scans
/// the inner table at all.
pub fn choose_join(
    strategy: JoinStrategy,
    outer_rows: usize,
    index: Option<IndexShape>,
) -> JoinAlgo {
    let fallback = match strategy {
        JoinStrategy::Hash => JoinAlgo::Hash,
        JoinStrategy::BlockNestedLoop { buffer_rows } => JoinAlgo::BlockNestedLoop {
            buffer_rows: buffer_rows.max(1),
        },
    };
    let Some(ix) = index else {
        return fallback;
    };
    let (outer, inner) = (outer_rows as f64, ix.inner_rows as f64);
    let fanout = inner / ix.distinct_keys.max(1) as f64;
    let probe_cost = outer * (1.0 + fanout);
    let fallback_cost = match strategy {
        JoinStrategy::Hash => inner + outer,
        JoinStrategy::BlockNestedLoop { .. } => inner * (1.0 + outer),
    };
    if PROBE_MARGIN * probe_cost < fallback_cost {
        JoinAlgo::IndexNestedLoop {
            index: ix.name,
            outer: outer_rows,
            inner: ix.inner_rows,
            fanout,
        }
    } else {
        fallback
    }
}

/// The index on column `column` of `handle`'s table, as [`choose_join`]
/// wants it.
pub fn index_shape(handle: &TableHandle, column: usize) -> Option<IndexShape> {
    let table = handle.read();
    table
        .index_on(column)
        .map(|(name, distinct_keys)| IndexShape {
            name: name.to_owned(),
            inner_rows: table.len(),
            distinct_keys,
        })
}

/// Splits an expression into its top-level `AND` conjuncts.
pub fn split_conjuncts(expr: BoundExpr) -> Vec<BoundExpr> {
    match expr {
        BoundExpr::Binary {
            left,
            op: BinaryOp::And,
            right,
        } => {
            let mut v = split_conjuncts(*left);
            v.extend(split_conjuncts(*right));
            v
        }
        other => vec![other],
    }
}

/// An equality `left_col = right_col` crossing the join boundary.
#[derive(Debug, Clone, Copy)]
struct EquiKey {
    /// Column offset into the left row.
    left: usize,
    /// Column offset into the *right* row (right-relative).
    right: usize,
}

/// Finds one usable equi-join key among `conjuncts`; returns the key and the
/// residual conjuncts (all others).
fn extract_equi_key(
    conjuncts: Vec<BoundExpr>,
    left_arity: usize,
    total_arity: usize,
) -> (Option<EquiKey>, Vec<BoundExpr>) {
    let mut key = None;
    let mut residual = Vec::new();
    for c in conjuncts {
        if key.is_none() {
            if let BoundExpr::Binary {
                ref left,
                op: BinaryOp::Eq,
                ref right,
            } = c
            {
                if let (BoundExpr::Column(a), BoundExpr::Column(b)) =
                    (left.as_ref(), right.as_ref())
                {
                    let (a, b) = (*a, *b);
                    if a < left_arity && b >= left_arity && b < total_arity {
                        key = Some(EquiKey {
                            left: a,
                            right: b - left_arity,
                        });
                        continue;
                    }
                    if b < left_arity && a >= left_arity && a < total_arity {
                        key = Some(EquiKey {
                            left: b,
                            right: a - left_arity,
                        });
                        continue;
                    }
                }
            }
        }
        residual.push(c);
    }
    (key, residual)
}

/// Whether every value in `col` is `Int` or `Null` — the guard for the
/// typed i64 join fast path. With both sides integer-only, exact i64
/// equality coincides with [`Value::sql_eq`] (no cross-type numeric
/// matching can occur), so a `HashMap<i64, _>` build is semantics-preserving.
fn int_keys_only(rows: &[Row], col: usize) -> bool {
    rows.iter()
        .all(|r| matches!(r[col], Value::Int(_) | Value::Null))
}

/// Hash-join build table: candidate row indices by key. The typed variant
/// skips per-probe `Value` hashing/equality entirely; the paper's graph
/// workloads (integer node ids) always take it.
enum KeyMap<'a> {
    Int(HashMap<i64, Vec<usize>>),
    Any(HashMap<&'a Value, Vec<usize>>),
}

impl<'a> KeyMap<'a> {
    /// Builds the table over non-null keys, preserving row order within
    /// each key's candidate list.
    fn build(rows: &'a [Row], col: usize, typed: bool) -> KeyMap<'a> {
        if typed {
            let mut m: HashMap<i64, Vec<usize>> = HashMap::with_capacity(rows.len());
            for (i, r) in rows.iter().enumerate() {
                if let Value::Int(k) = r[col] {
                    m.entry(k).or_default().push(i);
                }
            }
            KeyMap::Int(m)
        } else {
            let mut m: HashMap<&Value, Vec<usize>> = HashMap::with_capacity(rows.len());
            for (i, r) in rows.iter().enumerate() {
                let kv = &r[col];
                if !kv.is_null() {
                    m.entry(kv).or_default().push(i);
                }
            }
            KeyMap::Any(m)
        }
    }

    /// Candidate row indices matching `kv` (never called with NULL).
    fn get(&self, kv: &Value) -> Option<&[usize]> {
        match self {
            KeyMap::Int(m) => match kv {
                Value::Int(k) => m.get(k).map(Vec::as_slice),
                _ => None,
            },
            KeyMap::Any(m) => m.get(kv).map(Vec::as_slice),
        }
    }
}

/// Output side of every algorithm: concatenates row pairs that pass the
/// residual `ON` conjuncts and pads unmatched outer rows of a `LEFT JOIN`.
struct Emit<'a> {
    residual: &'a [BoundExpr],
    right_arity: usize,
    left_join: bool,
    out: Vec<Row>,
}

impl Emit<'_> {
    /// Appends `lrow ++ rrow` if the residual accepts it; returns whether
    /// it did.
    fn pair(&mut self, lrow: &Row, rrow: &Row) -> DbResult<bool> {
        self.pair_at(lrow, rrow, None)
    }

    /// [`Emit::pair`] for an inner row read through its slot: `slot`
    /// becomes the pair's last column ([`JoinInner::table_with_slots`]).
    fn pair_at(&mut self, lrow: &Row, rrow: &Row, slot: Option<usize>) -> DbResult<bool> {
        let mut combined = Vec::with_capacity(lrow.len() + self.right_arity);
        combined.extend_from_slice(lrow);
        combined.extend_from_slice(rrow);
        combined.extend(slot.map(|s| Value::Int(s as i64)));
        for r in self.residual {
            if !r.eval(&combined, &[])?.is_truthy() {
                return Ok(false);
            }
        }
        self.out.push(combined);
        Ok(true)
    }

    /// `LEFT JOIN`: appends `lrow` padded with NULLs when nothing matched.
    fn unmatched(&mut self, lrow: &Row, matched: bool) {
        if self.left_join && !matched {
            let mut combined = Vec::with_capacity(lrow.len() + self.right_arity);
            combined.extend_from_slice(lrow);
            combined.resize(lrow.len() + self.right_arity, Value::Null);
            self.out.push(combined);
        }
    }
}

/// What a join produced, and how.
#[derive(Debug)]
pub struct Joined {
    /// The joined relation (left scope followed by the right one).
    pub rel: Rel,
    /// The algorithm that ran.
    pub algo: JoinAlgo,
    /// Set when the inner side arrived as an unscanned table: the rows read
    /// from it (scanned, or fetched through the index) and the µs a scan
    /// took (index fetches are interleaved with the probes, hence 0).
    pub inner_read: Option<(u64, u64)>,
}

/// Joins `left` and `right`, appending the right relation's scope.
///
/// `on` is bound against the combined scope; [`choose_join`] picks the
/// algorithm from `strategy`, the shape of the `ON` condition and the
/// inner table's index (see module docs).
///
/// # Errors
/// Returns binder/eval errors from the `ON` expression.
pub fn join_rels(
    left: Rel,
    right: JoinInner,
    join_type: JoinType,
    on: Option<&Expr>,
    strategy: JoinStrategy,
    stats: &Stats,
) -> DbResult<Joined> {
    let mut scope = left.scope.clone();
    for r in right.scope().relations() {
        scope.push(r.clone());
    }
    let left_arity = left.scope.arity();
    let right_arity = right.scope().arity();

    let (key, residual) = match on {
        Some(e) => {
            let bound = bind_scalar(e, &scope)?;
            extract_equi_key(split_conjuncts(bound), left_arity, left_arity + right_arity)
        }
        None => (None, Vec::new()),
    };

    let index = match (&key, &right) {
        (Some(k), JoinInner::Table { handle, .. }) => index_shape(handle, k.right),
        _ => None,
    };
    let algo = match key {
        Some(_) => choose_join(strategy, left.rows.len(), index),
        None => JoinAlgo::NestedLoop,
    };

    let mut emit = Emit {
        residual: &residual,
        right_arity,
        left_join: join_type == JoinType::Left,
        out: Vec::new(),
    };
    let inner_read = match (&algo, key, right) {
        (JoinAlgo::IndexNestedLoop { .. }, Some(key), JoinInner::Table { handle, slots, .. }) => {
            let fetched = index_nested_loop(&left.rows, &handle, slots, key, &mut emit, stats)?;
            Some((fetched, 0))
        }
        (_, key, right) => {
            let (right_rows, inner_read) = match right {
                JoinInner::Rows(rel) => (rel.rows, None),
                JoinInner::Table { handle, slots, .. } => {
                    let t0 = Instant::now();
                    let rows = if slots {
                        let table = handle.read();
                        let with_slot = |(slot, row): (usize, &Row)| {
                            let mut with = Vec::with_capacity(row.len() + 1);
                            with.extend_from_slice(row);
                            with.push(Value::Int(slot as i64));
                            with
                        };
                        table.iter().map(with_slot).collect()
                    } else {
                        handle.read().scan()
                    };
                    stats.add_rows_scanned(rows.len() as u64);
                    let read = (rows.len() as u64, t0.elapsed().as_micros() as u64);
                    (rows, Some(read))
                }
            };
            match (&algo, key) {
                (JoinAlgo::Hash, Some(key)) => {
                    hash_join(&left.rows, &right_rows, key, &mut emit, stats)?
                }
                (JoinAlgo::BlockNestedLoop { buffer_rows }, Some(key)) => {
                    block_nested_loop(&left.rows, &right_rows, key, *buffer_rows, &mut emit, stats)?
                }
                _ => nested_loop(&left.rows, &right_rows, &mut emit, stats)?,
            }
            inner_read
        }
    };

    let rows = emit.out;
    stats.add_rows_scanned(rows.len() as u64);
    Ok(Joined {
        rel: Rel { scope, rows },
        algo,
        inner_read,
    })
}

/// One index probe per non-NULL outer key; the inner table is read through
/// its slots and never copied out. Returns how many inner rows the probes
/// fetched.
fn index_nested_loop(
    left: &[Row],
    inner: &TableHandle,
    slots: bool,
    key: EquiKey,
    emit: &mut Emit<'_>,
    stats: &Stats,
) -> DbResult<u64> {
    let table = inner.read();
    let (mut probes, mut fetched) = (0u64, 0u64);
    for lrow in left {
        let kv = &lrow[key.left];
        let mut matched = false;
        if !kv.is_null() {
            probes += 1;
            for &slot in table.index_lookup(key.right, kv).unwrap_or(&[]) {
                if let Some(rrow) = table.row(slot) {
                    fetched += 1;
                    matched |= emit.pair_at(lrow, rrow, slots.then_some(slot))?;
                }
            }
        }
        emit.unmatched(lrow, matched);
    }
    stats.add_index_lookups(probes);
    Ok(fetched)
}

/// Builds the hash table on the smaller relation and probes with the
/// larger (row order is not a relational guarantee, so the swap only
/// changes output order, never the row multiset).
fn hash_join(
    left: &[Row],
    right: &[Row],
    key: EquiKey,
    emit: &mut Emit<'_>,
    stats: &Stats,
) -> DbResult<()> {
    let typed = int_keys_only(left, key.left) && int_keys_only(right, key.right);
    if left.len() < right.len() {
        // build on left, probe with right; LEFT JOIN padding needs
        // per-build-row matched flags since matches arrive in probe order
        stats.add_rows_joined(right.len() as u64);
        let table = KeyMap::build(left, key.left, typed);
        let mut matched = vec![false; left.len()];
        for rrow in right {
            let kv = &rrow[key.right];
            if kv.is_null() {
                continue;
            }
            for &i in table.get(kv).unwrap_or(&[]) {
                matched[i] |= emit.pair(&left[i], rrow)?;
            }
        }
        for (lrow, m) in left.iter().zip(matched) {
            emit.unmatched(lrow, m);
        }
    } else {
        // build on right, probe with left
        stats.add_rows_joined(left.len() as u64);
        let table = KeyMap::build(right, key.right, typed);
        for lrow in left {
            let kv = &lrow[key.left];
            let mut matched = false;
            if !kv.is_null() {
                for &i in table.get(kv).unwrap_or(&[]) {
                    matched |= emit.pair(lrow, &right[i])?;
                }
            }
            emit.unmatched(lrow, matched);
        }
    }
    Ok(())
}

/// Block nested-loop with the key equality inlined: the inner side is
/// walked once per block of `buffer` outer rows.
fn block_nested_loop(
    left: &[Row],
    right: &[Row],
    key: EquiKey,
    buffer: usize,
    emit: &mut Emit<'_>,
    stats: &Stats,
) -> DbResult<()> {
    // with integer-only keys on both sides the per-pair compare is one i64
    // equality instead of a Value dispatch
    let typed = int_keys_only(left, key.left) && int_keys_only(right, key.right);
    let mut matched = vec![false; left.len()];
    for (chunk_idx, chunk) in left.chunks(buffer).enumerate() {
        let base = chunk_idx * buffer;
        for rrow in right {
            let rkv = &rrow[key.right];
            if rkv.is_null() {
                continue;
            }
            // one atomic add per inner row instead of per pair
            stats.add_rows_joined(chunk.len() as u64);
            for (off, lrow) in chunk.iter().enumerate() {
                let equal = match (typed, &lrow[key.left], rkv) {
                    (true, Value::Int(l), Value::Int(r)) => l == r,
                    (true, _, _) => false,
                    (false, lkv, _) => lkv.sql_eq(rkv) == Some(true),
                };
                if equal {
                    matched[base + off] |= emit.pair(lrow, rrow)?;
                }
            }
        }
    }
    // unmatched LEFT JOIN rows are appended in input order
    for (lrow, m) in left.iter().zip(matched) {
        emit.unmatched(lrow, m);
    }
    Ok(())
}

/// No equi key: every pair, with the whole `ON` predicate (all of it sits
/// in the residual) — or none at all for a cross join.
fn nested_loop(left: &[Row], right: &[Row], emit: &mut Emit<'_>, stats: &Stats) -> DbResult<()> {
    for lrow in left {
        stats.add_rows_joined(right.len() as u64);
        let mut matched = false;
        for rrow in right {
            matched |= emit.pair(lrow, rrow)?;
        }
        emit.unmatched(lrow, matched);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bind::ScopeRelation;
    use crate::parser::parse_expression;

    fn rel(qualifier: &str, cols: &[&str], rows: Vec<Row>) -> Rel {
        let mut scope = Scope::new();
        scope.push(ScopeRelation {
            qualifier: qualifier.into(),
            columns: cols.iter().map(|c| c.to_string()).collect(),
        });
        Rel { scope, rows }
    }

    fn left_rel() -> Rel {
        rel(
            "l",
            &["id", "v"],
            vec![
                vec![Value::Int(1), Value::Text("a".into())],
                vec![Value::Int(2), Value::Text("b".into())],
                vec![Value::Int(3), Value::Text("c".into())],
            ],
        )
    }

    fn right_rel() -> Rel {
        rel(
            "r",
            &["id", "w"],
            vec![
                vec![Value::Int(1), Value::Float(0.5)],
                vec![Value::Int(1), Value::Float(0.7)],
                vec![Value::Int(3), Value::Float(0.9)],
            ],
        )
    }

    /// Sorted output rows of `l ⋈ r`.
    fn join(
        l: Rel,
        r: Rel,
        join_type: JoinType,
        on: Option<&str>,
        strategy: JoinStrategy,
    ) -> Vec<Row> {
        let stats = Stats::default();
        let on = on.map(|e| parse_expression(e).unwrap());
        let mut out = join_rels(
            l,
            JoinInner::Rows(r),
            join_type,
            on.as_ref(),
            strategy,
            &stats,
        )
        .unwrap()
        .rel
        .rows;
        out.sort();
        out
    }

    fn run(join_type: JoinType, strategy: JoinStrategy, on: &str) -> Vec<Row> {
        join(left_rel(), right_rel(), join_type, Some(on), strategy)
    }

    const BNL: JoinStrategy = JoinStrategy::BlockNestedLoop { buffer_rows: 2 };

    #[test]
    fn hash_and_bnl_agree_on_inner_join() {
        let h = run(JoinType::Inner, JoinStrategy::Hash, "l.id = r.id");
        let b = run(JoinType::Inner, BNL, "l.id = r.id");
        assert_eq!(h, b);
        assert_eq!(h.len(), 3); // 1 matches twice, 3 once
    }

    #[test]
    fn hash_and_bnl_agree_on_left_join() {
        let h = run(JoinType::Left, JoinStrategy::Hash, "l.id = r.id");
        let b = run(
            JoinType::Left,
            JoinStrategy::BlockNestedLoop { buffer_rows: 1 },
            "l.id = r.id",
        );
        assert_eq!(h, b);
        assert_eq!(h.len(), 4); // id=2 preserved with NULLs
        assert!(h.iter().any(|r| r[2].is_null()));
    }

    #[test]
    fn reversed_equality_detected() {
        let h = run(JoinType::Inner, JoinStrategy::Hash, "r.id = l.id");
        assert_eq!(h.len(), 3);
    }

    #[test]
    fn residual_condition_applied() {
        let h = run(
            JoinType::Inner,
            JoinStrategy::Hash,
            "l.id = r.id AND r.w > 0.6",
        );
        assert_eq!(h.len(), 2);
        // LEFT JOIN keeps unmatched-after-residual rows
        let h = run(
            JoinType::Left,
            JoinStrategy::Hash,
            "l.id = r.id AND r.w > 100.0",
        );
        assert_eq!(h.len(), 3);
        assert!(h.iter().all(|r| r[2].is_null()));
    }

    #[test]
    fn non_equi_join_falls_back_to_nested_loop() {
        let h = run(JoinType::Inner, JoinStrategy::Hash, "l.id < r.id");
        // pairs: (1,3),(2,3)
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn cross_join() {
        let stats = Stats::default();
        let out = join_rels(
            left_rel(),
            JoinInner::Rows(right_rel()),
            JoinType::Cross,
            None,
            JoinStrategy::Hash,
            &stats,
        )
        .unwrap();
        assert_eq!(out.rel.rows.len(), 9);
        assert_eq!(out.rel.arity(), 4);
        assert_eq!(out.algo, JoinAlgo::NestedLoop);
        assert_eq!(stats.snapshot().rows_joined, 9);
    }

    #[test]
    fn null_keys_never_match() {
        let l = rel("l", &["id"], vec![vec![Value::Null], vec![Value::Int(1)]]);
        let r = rel("r", &["id"], vec![vec![Value::Null], vec![Value::Int(1)]]);
        let out = join(
            l,
            r,
            JoinType::Inner,
            Some("l.id = r.id"),
            JoinStrategy::Hash,
        );
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn hash_join_build_side_swap_preserves_results() {
        // the same join with a small left (→ left build) and a small right
        // (→ right build) must both match the nested-loop oracle, with a
        // residual in play and for both join types
        let small = |q: &str| {
            rel(
                q,
                &["id", "x"],
                vec![
                    vec![Value::Int(0), Value::Int(100)],
                    vec![Value::Int(1), Value::Int(101)],
                    vec![Value::Int(7), Value::Int(107)], // unmatched
                ],
            )
        };
        let big = |q: &str| {
            rel(
                q,
                &["id", "x"],
                (0..20)
                    .map(|i| vec![Value::Int(i % 3), Value::Int(i)])
                    .collect(),
            )
        };
        // the residual passes for some matches and fails for others in both
        // orientations (sums span 100..126)
        let on = Some("l.id = r.id AND l.x + r.x < 115");
        for join_type in [JoinType::Inner, JoinType::Left] {
            for (l, r) in [(small("l"), big("r")), (big("l"), small("r"))] {
                let hash = join(l.clone(), r.clone(), join_type, on, JoinStrategy::Hash);
                let oracle = join(
                    l,
                    r,
                    join_type,
                    on,
                    JoinStrategy::BlockNestedLoop { buffer_rows: 4 },
                );
                assert_eq!(
                    hash, oracle,
                    "{join_type:?}: build-side choice changed results"
                );
            }
        }
    }

    #[test]
    fn typed_fast_path_matches_generic_and_bails_on_mixed_keys() {
        // integer-only keys (plus NULLs) take the typed i64 build
        let l = rel(
            "l",
            &["id"],
            vec![vec![Value::Int(1)], vec![Value::Null], vec![Value::Int(2)]],
        );
        let r = rel(
            "r",
            &["id"],
            vec![vec![Value::Int(2)], vec![Value::Int(2)], vec![Value::Null]],
        );
        let on = Some("l.id = r.id");
        assert_eq!(join(l, r, JoinType::Inner, on, JoinStrategy::Hash).len(), 2);
        // a Float key on either side must disable the typed path so that
        // cross-type numeric equality (Int 1 = Float 1.0) still matches
        for strategy in [JoinStrategy::Hash, BNL] {
            let l = rel("l", &["id"], vec![vec![Value::Int(1)]]);
            let r = rel("r", &["id"], vec![vec![Value::Float(1.0)]]);
            let out = join(l, r, JoinType::Inner, on, strategy);
            assert_eq!(out.len(), 1, "{strategy:?}: Int 1 must match Float 1.0");
        }
    }

    #[test]
    fn hash_join_counts_its_probe_side() {
        let stats = Stats::default();
        let on = parse_expression("l.id = r.id").unwrap();
        let big = rel("r", &["id"], (0..10).map(|i| vec![Value::Int(i)]).collect());
        join_rels(
            left_rel(),
            JoinInner::Rows(big),
            JoinType::Inner,
            Some(&on),
            JoinStrategy::Hash,
            &stats,
        )
        .unwrap();
        // built on the 3-row left, probed with the 10-row right
        assert_eq!(stats.snapshot().rows_joined, 10);
        assert_eq!(stats.snapshot().index_lookups, 0);
    }

    fn shape(inner_rows: usize, distinct_keys: usize) -> Option<IndexShape> {
        Some(IndexShape {
            name: "ix".into(),
            inner_rows,
            distinct_keys,
        })
    }

    fn probes(algo: &JoinAlgo) -> bool {
        matches!(algo, JoinAlgo::IndexNestedLoop { .. })
    }

    #[test]
    fn small_outer_probes_the_index_on_every_strategy() {
        // a partition's ~190 live rows against the 23k-row edge join,
        // ~7.7 edges per source
        for strategy in [JoinStrategy::Hash, BNL] {
            let algo = choose_join(strategy, 190, shape(23_000, 3_000));
            assert!(probes(&algo), "{strategy:?}: {algo:?}");
        }
        // no index, no probe
        assert_eq!(choose_join(JoinStrategy::Hash, 190, None), JoinAlgo::Hash);
    }

    #[test]
    fn whole_table_joins_keep_the_hash_plan() {
        // outer = every distinct key: probing costs exactly inner + outer,
        // a tie, and ties stay with the hash join — in both orientations
        // of the script's rank ⋈ edges join
        let algo = choose_join(JoinStrategy::Hash, 3_000, shape(23_000, 3_000));
        assert_eq!(algo, JoinAlgo::Hash);
        let algo = choose_join(JoinStrategy::Hash, 23_000, shape(3_000, 3_000));
        assert_eq!(algo, JoinAlgo::Hash);
        // the nested-loop profiles have no such alternative: comparing all
        // 69M pairs is never cheaper than 23k primary-key probes
        let algo = choose_join(BNL, 23_000, shape(3_000, 3_000));
        assert!(probes(&algo), "{algo:?}");
    }

    #[test]
    fn empty_outer_never_scans_an_indexed_inner() {
        for strategy in [JoinStrategy::Hash, BNL] {
            let algo = choose_join(strategy, 0, shape(1_000, 10));
            assert!(probes(&algo), "{strategy:?}: {algo:?}");
        }
        // nothing to save when the inner table is empty too
        assert_eq!(
            choose_join(BNL, 0, shape(0, 0)),
            JoinAlgo::BlockNestedLoop { buffer_rows: 2 }
        );
    }

    #[test]
    fn labels_name_the_algorithm_and_its_inputs() {
        let algo = choose_join(JoinStrategy::Hash, 190, shape(23_000, 2_875));
        assert_eq!(
            algo.describe(JoinType::Inner),
            "IndexNestedLoopJoin using ix (outer=190, inner=23000, fanout=8.0)"
        );
        assert_eq!(JoinAlgo::Hash.describe(JoinType::Left), "HashLeftJoin");
        assert_eq!(
            JoinAlgo::BlockNestedLoop { buffer_rows: 256 }.describe(JoinType::Inner),
            "BlockNestedLoop (buffer 256)Join"
        );
        assert_eq!(
            JoinAlgo::NestedLoop.describe(JoinType::Inner),
            "NestedLoopJoin (non-equi ON)"
        );
        assert_eq!(
            JoinAlgo::NestedLoop.describe(JoinType::Cross),
            "NestedLoop (cross join)"
        );
    }

    #[test]
    fn conjunct_splitting() {
        let scope = {
            let mut s = Scope::new();
            s.push(ScopeRelation {
                qualifier: "t".into(),
                columns: vec!["a".into(), "b".into(), "c".into()],
            });
            s
        };
        let e = parse_expression("t.a = 1 AND t.b = 2 AND t.c > 3").unwrap();
        let bound = bind_scalar(&e, &scope).unwrap();
        assert_eq!(split_conjuncts(bound).len(), 3);
    }
}
