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
//! is handed over *unscanned* and is read in place — an index nested-loop
//! probes it, a hash join builds on (or probes with) its key lane, a nested
//! loop walks its slots. No algorithm copies a column: a join's output is
//! positions ([`Rel`]).

use crate::ast::{BinaryOp, Expr, JoinType};
use crate::batch::{Col, ColData, ColumnBatch, CompiledExpr, NO_LANE};
use crate::bind::{bind_scalar, eval_constant, BoundExpr, Scope, ScopeRelation};
use crate::budget::{MemoryBudget, Reservation};
use crate::catalog::TableHandle;
use crate::error::{DbError, DbResult};
use crate::exec::check_deadline;
use crate::profile::{EngineProfile, JoinStrategy};
use crate::stats::Stats;
use crate::storage::Table;
use crate::types::DataType;
use crate::value::{int_key_hash, KeyMap, Value};
use std::borrow::Cow;
use std::mem::take;
use std::sync::Arc;
use std::time::Instant;

/// A relation flowing through the executor, late-materialized: each
/// relation of its scope reads its columns from one source, and its
/// rows are batches of [`Positions`] in those sources. A scan or a join
/// copies no column; each is gathered from its source once per batch, by
/// the kernel that reads it ([`Rel::gather`]). The budget is charged 4 bytes
/// per position lane, for as long as the relation lives.
#[derive(Debug)]
pub struct Rel {
    /// Visible relations and their column names.
    pub scope: Scope,
    /// Where the columns come from: one source per scope relation, in
    /// order.
    sources: Vec<Source>,
    /// The rows, in order.
    batches: Vec<Positions>,
    /// The bytes the position lanes of `batches` hold.
    charge: Reservation,
}

/// Where one relation of a [`Rel`] reads its columns.
#[derive(Debug)]
enum Source {
    /// A base table of `arity` columns, read in place: a position is a
    /// slot (what DML rewrites). It is read under the statement's logical
    /// locks, its physical read guard taken per gather, and is already
    /// charged as heap.
    Table(TableHandle, usize),
    /// Materialized rows (a view, a derived table, `VALUES`): a position is
    /// a lane. They stay charged while positions reference them.
    Rows {
        batch: ColumnBatch,
        _charge: Reservation,
    },
}

impl Source {
    fn arity(&self) -> usize {
        match self {
            Source::Table(_, arity) => *arity,
            Source::Rows { batch, .. } => batch.arity(),
        }
    }

    /// Column `c`'s lanes at the `n` positions `lanes`.
    fn col(&self, c: usize, lanes: &Lanes, n: usize) -> Col {
        let pick = |col: &Col| match lanes {
            Lanes::From(s) => col.slice(*s as usize..*s as usize + n),
            Lanes::Of(v) => col.gather(v),
        };
        match self {
            Source::Rows { batch, .. } if batch.is_read(c) => pick(batch.col(c)),
            Source::Rows { .. } => Col::unread(),
            Source::Table(handle, _) => pick(handle.read().col(c)),
        }
    }
}

/// Positions of rows in one source: a run starting at a position (a scan of
/// a table without dead slots, or a run a join kept), or one per row,
/// [`NO_LANE`] padding a `LEFT JOIN`'s unmatched row with NULLs.
#[derive(Debug, Clone)]
enum Lanes {
    From(u32),
    Of(Vec<u32>),
}

impl Lanes {
    /// The positions `idx` of these ([`NO_LANE`] stays one): a run of a
    /// run stays a run, anything else is a `u32` gather.
    fn pick(&self, idx: &[u32]) -> Lanes {
        let run = idx.first().is_some_and(|&i| i != NO_LANE)
            && idx.windows(2).all(|w| w[1] == w[0].wrapping_add(1));
        match self {
            Lanes::From(s) if run => Lanes::From(s + idx[0]),
            Lanes::From(s) => Lanes::Of(idx.iter().map(|&i| i.saturating_add(*s)).collect()),
            Lanes::Of(v) => Lanes::Of(
                idx.iter()
                    .map(|&i| v.get(i as usize).copied().unwrap_or(NO_LANE))
                    .collect(),
            ),
        }
    }

    /// The position of row `i`.
    fn at(&self, i: usize) -> u32 {
        match self {
            Lanes::From(s) => s + i as u32,
            Lanes::Of(v) => v[i],
        }
    }
}

/// One batch of a [`Rel`]: how many rows, and each row's position in every
/// source.
#[derive(Debug, Clone)]
pub struct Positions {
    len: usize,
    lanes: Vec<Lanes>,
}

impl Positions {
    fn new(len: usize, lanes: Vec<Lanes>) -> Positions {
        Positions { len, lanes }
    }

    /// Number of rows.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Rows `idx` of this batch ([`NO_LANE`]: a row of pads).
    pub(crate) fn pick(&self, idx: &[u32]) -> Positions {
        let lanes = self.lanes.iter().map(|l| l.pick(idx)).collect();
        Positions::new(idx.len(), lanes)
    }

    /// Row `i`'s position in source `s`.
    pub(crate) fn at(&self, s: usize, i: usize) -> u32 {
        self.lanes[s].at(i)
    }

    /// The budget's charge: 4 bytes per position lane.
    fn bytes(&self) -> u64 {
        let vecs = self.lanes.iter().filter(|l| matches!(l, Lanes::Of(_)));
        4 * (self.len * vecs.count()) as u64
    }

    /// All rows of `batches` as one batch of `sources` position lanes.
    pub(crate) fn concat(batches: &[Positions], sources: usize) -> Positions {
        let all = |s| {
            batches
                .iter()
                .flat_map(move |b| (0..b.len).map(move |i| b.at(s, i)))
        };
        let lanes = (0..sources).map(|s| match batches {
            [one] => one.lanes[s].clone(),
            _ => Lanes::Of(all(s).collect()),
        });
        Positions::new(batches.iter().map(|b| b.len).sum(), lanes.collect())
    }
}

#[allow(clippy::len_without_is_empty)]
impl Rel {
    /// No rows yet, over `sources`, visible as `scope`.
    fn over(scope: Scope, sources: Vec<Source>, budget: &Arc<MemoryBudget>) -> Rel {
        let (batches, charge) = (Vec::new(), budget.reservation());
        Rel {
            scope,
            sources,
            batches,
            charge,
        }
    }

    /// `batches` over `scope`, materialized: they become one charged
    /// source, read in batches of at most `batch_rows` positions, however
    /// small the batches that produced it.
    ///
    /// # Errors
    /// Returns [`DbError::BudgetExceeded`] when they do not fit.
    pub fn new(
        scope: Scope,
        batches: Vec<ColumnBatch>,
        (batch_rows, budget): (usize, &Arc<MemoryBudget>),
    ) -> DbResult<Rel> {
        let batch = ColumnBatch::concat(batches, scope.arity());
        let (len, rows) = (batch.len(), batch_rows.max(1));
        let positions = (0..len)
            .step_by(rows)
            .map(|at| Positions::new(rows.min(len - at), vec![Lanes::From(at as u32)]))
            .collect();
        let mut _charge = budget.reservation();
        _charge.grow(batch.bytes())?;
        let mut rel = Rel::over(scope, vec![Source::Rows { batch, _charge }], budget);
        rel.batches = positions;
        Ok(rel)
    }

    /// The rows `access` reaches in `handle`'s table (whose scope is
    /// `scope`), in batches of at most `batch_rows` positions: ranges, when
    /// a scan meets no dead slot.
    ///
    /// # Errors
    /// Returns [`DbError::BudgetExceeded`] when the positions do not fit.
    pub fn scan(
        scope: Scope,
        handle: TableHandle,
        access: &AccessPath,
        (batch_rows, budget): (usize, &Arc<MemoryBudget>),
    ) -> DbResult<Rel> {
        let source = Source::Table(handle.clone(), scope.arity());
        let mut rel = Rel::over(scope, vec![source], budget);
        let (table, rows) = (handle.read(), batch_rows.max(1));
        if *access == AccessPath::Scan && table.len() == table.slot_count() {
            for at in (0..table.len()).step_by(rows) {
                let len = rows.min(table.len() - at);
                rel.push(Positions::new(len, vec![Lanes::From(at as u32)]))?;
            }
            return Ok(rel);
        }
        for chunk in access.slots(&table).chunks(rows) {
            let lanes = Lanes::Of(chunk.iter().map(|&s| s as u32).collect());
            rel.push(Positions::new(chunk.len(), vec![lanes]))?;
        }
        Ok(rel)
    }

    /// Appends `batch`, charging the budget for its position lanes.
    ///
    /// # Errors
    /// Returns [`DbError::BudgetExceeded`] when that crosses the limit; the
    /// batch is dropped.
    fn push(&mut self, batch: Positions) -> DbResult<()> {
        self.charge.grow(batch.bytes())?;
        self.batches.push(batch);
        Ok(())
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.scope.arity()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.batches.iter().map(Positions::len).sum()
    }

    /// How many sources the relation reads its columns from.
    pub(crate) fn sources(&self) -> usize {
        self.sources.len()
    }

    /// The batches of positions, in row order.
    pub fn batches(&self) -> &[Positions] {
        &self.batches
    }

    /// The rows of `pos` in the columns `read` names (every column no
    /// mask marks is [`Col::unread`]), each gathered from its source.
    pub fn gather(&self, pos: &Positions, read: &[bool]) -> ColumnBatch {
        let mut cols = Vec::with_capacity(self.arity());
        let mut at = 0;
        for (source, lanes) in self.sources.iter().zip(&pos.lanes) {
            for c in 0..source.arity() {
                cols.push(match read.get(at + c) {
                    Some(true) => source.col(c, lanes, pos.len),
                    _ => Col::unread(),
                });
            }
            at += source.arity();
        }
        ColumnBatch::from_cols(cols, pos.len)
    }

    /// `f` of column `c`'s lanes in its source.
    fn source_col<R>(&self, c: usize, f: impl FnOnce(&Col) -> R) -> R {
        let (s, c) = locate(&self.sources, c);
        match &self.sources[s] {
            Source::Rows { batch, .. } => f(batch.col(c)),
            Source::Table(handle, _) => f(handle.read().col(c)),
        }
    }

    /// The least and the greatest valid lane of column `c` over every row,
    /// read in place, or a bound on them: the source's own when it holds no
    /// more lanes than the relation has rows. `None` unless the source
    /// holds `Int` lanes.
    pub(crate) fn int_span(&self, c: usize) -> Option<Option<(i64, i64)>> {
        let s = locate(&self.sources, c).0;
        self.source_col(c, |col| {
            let ColData::Int(v) = &col.data else {
                return None;
            };
            if col.len() <= self.len() {
                return Some(col.int_range());
            }
            let (mut lo, mut hi) = (i64::MAX, i64::MIN);
            let mut note = |i: u32| {
                if col.valid.get(i as usize) == Some(&true) {
                    (lo, hi) = (lo.min(v[i as usize]), hi.max(v[i as usize]));
                }
            };
            for b in &self.batches {
                match &b.lanes[s] {
                    Lanes::From(at) => (*at..*at + b.len as u32).for_each(&mut note),
                    Lanes::Of(lanes) => lanes.iter().for_each(|&i| note(i)),
                }
            }
            Some((lo <= hi).then_some((lo, hi)))
        })
    }

    /// The rows each batch's `keep(self, batch)` flags, as positions.
    ///
    /// # Errors
    /// The first error `keep` returns; [`DbError::BudgetExceeded`] when
    /// the kept positions do not fit.
    pub fn retain(
        mut self,
        mut keep: impl FnMut(&Rel, &Positions) -> DbResult<Vec<bool>>,
    ) -> DbResult<Rel> {
        for old in std::mem::take(&mut self.batches) {
            let mask = keep(&self, &old)?;
            self.charge.shrink(old.bytes());
            let idx = || {
                (0..old.len as u32)
                    .filter(|&i| mask[i as usize])
                    .collect::<Vec<_>>()
            };
            let kept = match mask.iter().all(|&k| k) {
                true => old,
                false => old.pick(&idx()),
            };
            if kept.len() > 0 {
                self.push(kept)?;
            }
        }
        Ok(self)
    }
}

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
    },
}

impl JoinInner {
    /// The base table behind `handle`, visible as `visible`, unscanned.
    pub fn table(handle: TableHandle, visible: &str) -> JoinInner {
        let scope = table_scope(&handle, visible);
        JoinInner::Table { scope, handle }
    }

    pub(crate) fn scope(&self) -> &Scope {
        match self {
            JoinInner::Rows(rel) => &rel.scope,
            JoinInner::Table { scope, .. } => scope,
        }
    }
}

/// The single-relation scope of a base table visible as `visible`.
pub(crate) fn table_scope(handle: &TableHandle, visible: &str) -> Scope {
    let table = handle.read();
    let columns = table.schema().columns().iter().map(|c| c.name.clone());
    let mut scope = Scope::new();
    scope.push(ScopeRelation {
        qualifier: visible.to_owned(),
        columns: columns.collect(),
    });
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
        /// The constant the column is compared to (NULL for `IS NULL`).
        key: Value,
        /// Position, among the conjuncts the path was chosen from, of the
        /// `<column> = <constant>` or `<column> IS NULL` the seek answers.
        conjunct: usize,
    },
}

impl AccessPath {
    /// The live slots of `table` this path reaches.
    pub fn slots(&self, table: &Table) -> Vec<usize> {
        match self {
            AccessPath::Scan => table.live_slot_vec(),
            AccessPath::Seek { column, key, .. } => {
                let found = table.index_lookup(*column, key).unwrap_or(&[]);
                found
                    .iter()
                    .copied()
                    .filter(|&s| table.is_live(s))
                    .collect()
            }
        }
    }

    /// The conjunct of `conjuncts` (those the path was chosen from) a seek
    /// applied exactly: every row it returns satisfies it, since the index
    /// compares keys as `=` does (see `seekable`) and files every NULL
    /// under one key, so it need not run again.
    pub fn applied<'e>(&self, conjuncts: &[&'e Expr]) -> Option<&'e Expr> {
        match self {
            AccessPath::Seek { conjunct, .. } => conjuncts.get(*conjunct).copied(),
            AccessPath::Scan => None,
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
                let test = match key {
                    Value::Null => "IS NULL".to_owned(),
                    key => {
                        let key = Expr::Literal(key.clone());
                        let dialect = EngineProfile::Postgres.dialect();
                        format!("= {}", crate::render::expr_to_sql(&key, &dialect))
                    }
                };
                format!("IndexSeek {table} using {index} ({column_name} {test})")
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
/// `<column> = <constant>` (either way round) or `<column> IS NULL` whose
/// column carries an index becomes a seek — the most selective index when
/// several qualify. The seek applies that conjunct
/// ([`AccessPath::applied`]); callers run the rest of the predicate on the
/// rows it returns. Everything else scans: no such conjunct (`OR`, ranges,
/// column-to-column), no index, a constant that fails to evaluate, or a key
/// the index cannot answer exactly (`= NULL`, or a constant of another type
/// family than the column's).
pub fn choose_access(
    table: &Table,
    visible: &str,
    conjuncts: &[&Expr],
    params: &[Value],
) -> AccessPath {
    let schema = table.schema();
    let mut best: Option<(usize, AccessPath)> = None;
    for (at, conjunct) in conjuncts.iter().enumerate() {
        // each candidate column with the constant it is compared to; `IS
        // NULL` has none
        let candidates = match conjunct {
            Expr::Binary {
                left,
                op: BinaryOp::Eq,
                right,
            } => [Some((left, Some(right))), Some((right, Some(left)))],
            Expr::IsNull {
                expr,
                negated: false,
            } => [Some((expr, None)), None],
            _ => continue,
        };
        for (col, constant) in candidates.into_iter().flatten() {
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
            let key = match constant {
                None => Value::Null,
                // a constant (a `?` too) evaluates once
                Some(constant) => {
                    let Ok(key) = eval_constant(constant, params) else {
                        continue;
                    };
                    if !seekable(schema.columns()[column].data_type, &key) {
                        continue;
                    }
                    key
                }
            };
            if best.as_ref().is_none_or(|(d, _)| distinct_keys > *d) {
                best = Some((
                    distinct_keys,
                    AccessPath::Seek {
                        index: index.to_owned(),
                        column,
                        column_name: name.clone(),
                        key,
                        conjunct: at,
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

/// Hash-join build table: the build side's lanes chained by key. `next`
/// links each lane to the following one in its chain; chains ascend, so
/// matches come out in build-side row order.
struct BuildTable<'a> {
    heads: Heads<'a>,
    next: Vec<u32>,
}

/// First lane of each chain.
enum Heads<'a> {
    /// Both key columns are `Int`: flat buckets over the build side's lane
    /// slice. With `lo`, the build keys span fewer values than twice its
    /// lanes and key `k` owns bucket `k - lo` (the paper's graph workloads,
    /// dense integer node ids, take it); else `k` hashes to its bucket.
    Int {
        buckets: Vec<u32>,
        lo: Option<i64>,
        build: &'a [i64],
    },
    /// Anything else goes through [`Value`]'s own hash and equality, under
    /// which `Int(2)` and `Float(2.0)` are one key.
    Any(KeyMap<Value, u32>),
}

/// The bucket of `Int` key `k` among `n` ([`Heads::Int`]); past the end
/// when `k` lies outside a dense range.
fn bucket(lo: Option<i64>, n: usize, k: i64) -> usize {
    match lo {
        Some(lo) => k.wrapping_sub(lo) as u64 as usize,
        None => int_key_hash(k) as usize & (n - 1),
    }
}

impl<'a> BuildTable<'a> {
    /// Chains the non-NULL lanes of `col`; `typed` says the probe side is
    /// `Int` throughout as well.
    fn new(col: &'a Col, typed: bool) -> BuildTable<'a> {
        let mut next = vec![NO_LANE; col.len()];
        let lanes = (0..col.len()).rev().filter(|&lane| col.valid[lane]);
        let heads = match &col.data {
            ColData::Int(keys) if typed => {
                let dense = col
                    .int_range()
                    .filter(|(lo, hi)| hi.abs_diff(*lo) < 2 * keys.len() as u64);
                let (lo, n) = match dense {
                    Some((lo, hi)) => (Some(lo), hi.abs_diff(lo) as usize + 1),
                    None => (None, (col.len() * 2).next_power_of_two()),
                };
                let mut buckets = vec![NO_LANE; n];
                for lane in lanes {
                    let head = &mut buckets[bucket(lo, n, keys[lane])];
                    next[lane] = std::mem::replace(head, lane as u32);
                }
                Heads::Int {
                    buckets,
                    lo,
                    build: keys,
                }
            }
            _ => {
                let mut map = KeyMap::with_capacity_and_hasher(col.len(), Default::default());
                for lane in lanes {
                    let head = map.insert(col.value_at(lane), lane as u32);
                    next[lane] = head.unwrap_or(NO_LANE);
                }
                Heads::Any(map)
            }
        };
        BuildTable { heads, next }
    }

    /// Probes with one batch's key column. Every lane's chain head is
    /// found before any chain is walked, so the bucket loads of different
    /// lanes overlap, and the layouts are matched once per batch.
    fn probe<'p>(&'p self, keys: &'p Col, heads: &'p mut Vec<u32>) -> Probe<'p> {
        heads.clear();
        let lanes = keys.valid.iter().enumerate();
        let ints = match (&self.heads, &keys.data) {
            (Heads::Int { buckets, lo, build }, ColData::Int(probe)) => {
                let head = |lane| buckets.get(bucket(*lo, buckets.len(), probe[lane]));
                heads.extend(
                    lanes.map(|(lane, &ok)| *head(lane).filter(|_| ok).unwrap_or(&NO_LANE)),
                );
                Some((&build[..], &probe[..]))
            }
            (Heads::Any(map), _) => {
                let head = |lane| map.get(&keys.value_at(lane));
                heads.extend(
                    lanes.map(|(lane, &ok)| *head(lane).filter(|_| ok).unwrap_or(&NO_LANE)),
                );
                None
            }
            (Heads::Int { .. }, _) => unreachable!("typed build against a probe that is not Int"),
        };
        Probe {
            heads,
            ints,
            next: &self.next,
        }
    }
}

/// One probe batch against a [`BuildTable`]: each lane's chain head, and
/// for [`Heads::Int`] the build and probe keys, compared along the chain.
struct Probe<'a> {
    heads: &'a [u32],
    ints: Option<(&'a [i64], &'a [i64])>,
    next: &'a [u32],
}

impl Probe<'_> {
    /// Appends the build lanes whose key equals that of probe lane `lane`,
    /// in build-side order.
    #[inline]
    fn matches(&self, lane: usize, out: &mut Vec<u32>) {
        let mut at = self.heads[lane];
        while at != NO_LANE {
            if self
                .ints
                .is_none_or(|(build, probe)| build[at as usize] == probe[lane])
            {
                out.push(at);
            }
            at = self.next[at as usize];
        }
    }
}

/// How many of `mask`'s flags are set.
pub(crate) fn count(mask: &[bool]) -> usize {
    mask.iter().filter(|&&m| m).count()
}

/// What a join runs under: the profile's fallback algorithm, the counters,
/// and the statement's batch size, deadline and memory budget.
#[derive(Debug, Clone, Copy)]
pub struct JoinEnv<'a> {
    /// The engine profile's join fallback.
    pub strategy: JoinStrategy,
    /// Engine counters.
    pub stats: &'a Stats,
    /// Most rows an emitted batch holds.
    pub batch_rows: usize,
    /// The statement's deadline, checked once per probed batch and per
    /// inner pass.
    pub deadline: Option<Instant>,
    /// Charged for every emitted batch.
    pub budget: &'a Arc<MemoryBudget>,
    /// The statement's `?` parameters.
    pub params: &'a [Value],
}

/// Column `c` of the rows of `pos`, whose lanes address `sources`.
fn column(sources: &[Source], pos: &Positions, c: usize) -> Col {
    let (s, c) = locate(sources, c);
    sources[s].col(c, &pos.lanes[s], pos.len)
}

/// The source of `sources` holding their column `c`, and its offset there.
fn locate(sources: &[Source], mut c: usize) -> (usize, usize) {
    for (s, source) in sources.iter().enumerate() {
        if c < source.arity() {
            return (s, c);
        }
        c -= source.arity();
    }
    unreachable!("a column past the relation's sources")
}

/// `batches` as one batch of `sources` lanes (a join's build side is
/// addressed by row), `charge` moved from theirs to its.
fn flatten(
    batches: Vec<Positions>,
    sources: usize,
    charge: &mut Reservation,
) -> DbResult<Positions> {
    let one = Positions::concat(&batches, sources);
    charge.shrink(batches.iter().map(Positions::bytes).sum());
    charge.grow(one.bytes())?;
    Ok(one)
}

/// Output side of every algorithm. An algorithm produces index pairs —
/// (outer row, inner row) of two batches of positions; this filters them
/// through the residual `ON` conjuncts, which gather only the columns they
/// read, pads unmatched outer rows of a `LEFT JOIN` with [`NO_LANE`], and
/// composes the pairs' positions into batches of at most `batch_rows`
/// rows, each charged to the budget as it is emitted.
struct Output<'a> {
    env: &'a JoinEnv<'a>,
    residual: Vec<CompiledExpr>,
    /// The columns `residual` reads.
    residual_reads: Vec<bool>,
    left_join: bool,
    /// The output: the outer side's sources, then the inner side's.
    rel: Rel,
    /// How many of `rel`'s sources, and of its columns, the outer side has.
    outer: (usize, usize),
    /// The candidate pairs' buffers, kept from one probed batch to the next.
    pairs: (Vec<u32>, Vec<u32>),
}

impl Output<'_> {
    /// Column `c` of the outer rows `pos`, or of the inner ones.
    fn col(&self, inner: bool, pos: &Positions, c: usize) -> Col {
        let (outer, inner_sources) = self.rel.sources.split_at(self.outer.0);
        column(if inner { inner_sources } else { outer }, pos, c)
    }

    /// The pairs (`pl[i]` of `outer`, `pr[i]` of `inner`) as output rows.
    fn pairs_of(outer: &Positions, pl: &[u32], inner: &Positions, pr: &[u32]) -> Positions {
        let mut lanes = Vec::with_capacity(outer.lanes.len() + inner.lanes.len());
        lanes.extend(outer.lanes.iter().map(|l| l.pick(pl)));
        lanes.extend(inner.lanes.iter().map(|l| l.pick(pr)));
        Positions::new(pl.len(), lanes)
    }

    /// Which candidate pairs the residual accepts. The conjuncts run as
    /// kernels over the gathered candidates; if one fails — possibly on a
    /// pair an earlier conjunct already rejected — the candidates are
    /// re-run pair by pair, conjunct by conjunct, which raises exactly the
    /// error row-at-a-time evaluation would, or none. Pads always pass.
    fn accepted(&self, pairs: &ColumnBatch, pr: &[u32]) -> DbResult<Vec<bool>> {
        let mut keep = vec![true; pairs.len()];
        let kernels = self.residual.iter().try_for_each(|c| {
            let truthy = c.try_eval(pairs)?.truthy_mask(pairs);
            keep.iter_mut().zip(truthy).for_each(|(k, t)| *k &= t);
            DbResult::Ok(())
        });
        if kernels.is_err() {
            let candidates = keep.iter_mut().enumerate();
            for (lane, k) in candidates.filter(|(lane, _)| pr[*lane] != NO_LANE) {
                let row = pairs.row_at(lane);
                *k = true;
                for c in &self.residual {
                    if !c.expr().eval(&row)?.is_truthy() {
                        *k = false;
                        break;
                    }
                }
            }
        }
        keep.iter_mut()
            .zip(pr)
            .for_each(|(k, &r)| *k |= r == NO_LANE);
        Ok(keep)
    }

    /// Emits the candidate pairs (`pl[i]`, `pr[i]`) the residual accepts and
    /// clears them. With `matched`, every outer row that found a partner is
    /// noted there ([`Output::pad_unmatched`] pads the rest later). Without,
    /// the candidates hold whole outer rows, each row's adjacent: a `LEFT
    /// JOIN` row left with none is padded in place.
    fn flush(
        &mut self,
        outer: &Positions,
        pl: &mut Vec<u32>,
        inner: &Positions,
        pr: &mut Vec<u32>,
        matched: Option<&mut [bool]>,
    ) -> DbResult<()> {
        check_deadline(self.env.deadline)?;
        if !self.residual.is_empty() && !pl.is_empty() {
            let candidates = Output::pairs_of(outer, pl, inner, pr);
            let candidates = self.rel.gather(&candidates, &self.residual_reads);
            let keep = self.accepted(&candidates, pr)?;
            let pad_in_place = self.left_join && matched.is_none();
            let (mut kept, mut lane_from) = (0, 0);
            for at in 0..keep.len() {
                let (lane, ends) = (pl[at], pl.get(at + 1) != Some(&pl[at]));
                if keep[at] {
                    (pl[kept], pr[kept]) = (lane, pr[at]);
                    kept += 1;
                }
                if ends && kept == lane_from && pad_in_place {
                    (pl[kept], pr[kept]) = (lane, NO_LANE);
                    kept += 1;
                }
                if ends {
                    lane_from = kept;
                }
            }
            pl.truncate(kept);
            pr.truncate(kept);
        }
        if let Some(matched) = matched {
            pl.iter().for_each(|&lane| matched[lane as usize] = true);
        }
        let rows = self.env.batch_rows;
        for (pl, pr) in pl.chunks(rows).zip(pr.chunks(rows)) {
            self.rel.push(Output::pairs_of(outer, pl, inner, pr))?;
        }
        pl.clear();
        pr.clear();
        Ok(())
    }

    /// Probes with one outer batch, keeping outer order: `candidates(lane,
    /// hits)` appends the rows of `inner` outer row `lane` may pair with.
    fn probe_outer(
        &mut self,
        outer: &Positions,
        inner: &Positions,
        mut candidates: impl FnMut(usize, &mut Vec<u32>),
    ) -> DbResult<()> {
        let (mut pl, mut pr) = take(&mut self.pairs);
        for lane in 0..outer.len() {
            let before = pr.len();
            candidates(lane, &mut pr);
            if pr.len() == before && self.left_join {
                pr.push(NO_LANE);
            }
            pl.resize(pr.len(), lane as u32);
            // only between lanes: a lane's candidates decide its pad together
            if pr.len() >= self.env.batch_rows && lane + 1 < outer.len() {
                self.flush(outer, &mut pl, inner, &mut pr, None)?;
            }
        }
        self.flush(outer, &mut pl, inner, &mut pr, None)?;
        self.pairs = (pl, pr);
        Ok(())
    }

    /// `LEFT JOIN`: appends, in outer order, the rows of `outer` that no
    /// pair matched, their inner columns NULL.
    fn pad_unmatched(&mut self, outer: &Positions, matched: &[bool]) -> DbResult<()> {
        let unmatched = (0..outer.len() as u32).filter(|&lane| !matched[lane as usize]);
        let mut pl: Vec<u32> = unmatched.filter(|_| self.left_join).collect();
        let mut pr = vec![NO_LANE; pl.len()];
        let inner_sources = self.rel.sources.len() - self.outer.0;
        let pads = Positions::new(0, vec![Lanes::From(0); inner_sources]);
        self.flush(outer, &mut pl, &pads, &mut pr, None)
    }
}

/// What a join produced, and how.
#[derive(Debug)]
pub struct Joined {
    /// The joined relation (left scope followed by the right one).
    pub rel: Rel,
    /// The algorithm that ran.
    pub algo: JoinAlgo,
    /// Batches of rows the join took in, from both sides (a table read in
    /// place is one).
    pub batches: u64,
    /// Set when the inner side arrived as an unscanned table: the rows read
    /// from it, in place or fetched through the index.
    pub inner_read: Option<u64>,
}

/// Joins `left` and `right`, appending the right relation's scope.
///
/// `on` is bound against the combined scope; [`choose_join`] picks the
/// algorithm from `env.strategy`, the shape of the `ON` condition and the
/// inner table's index (see module docs). The output is positions: the
/// left side's, composed, then the right side's; an unscanned inner table
/// is read in place. `left`'s batches are refunded as they are consumed.
///
/// # Errors
/// Returns binder/eval errors from the `ON` expression,
/// [`DbError::Timeout`] past the deadline and [`DbError::BudgetExceeded`]
/// when an output batch does not fit the memory budget.
pub fn join_rels(
    left: Rel,
    right: JoinInner,
    join_type: JoinType,
    on: Option<&Expr>,
    env: &JoinEnv<'_>,
) -> DbResult<Joined> {
    let mut scope = left.scope.clone();
    for r in right.scope().relations() {
        scope.push(r.clone());
    }
    let left_arity = left.scope.arity();
    let right_arity = right.scope().arity();

    let (key, residual) = match on {
        Some(e) => {
            let bound = bind_scalar(e, &scope, env.params)?;
            extract_equi_key(split_conjuncts(bound), left_arity, left_arity + right_arity)
        }
        None => (None, Vec::new()),
    };

    let index = match (&key, &right) {
        (Some(k), JoinInner::Table { handle, .. }) => index_shape(handle, k.right),
        _ => None,
    };
    let algo = match key {
        Some(_) => choose_join(env.strategy, left.len(), index),
        None => JoinAlgo::NestedLoop,
    };

    // pairs address lanes and slots as `u32`s below `NO_LANE`
    let inner_lanes = match &right {
        JoinInner::Rows(rel) => rel.len(),
        JoinInner::Table { handle, .. } => handle.read().slot_count(),
    };
    if left.len().max(inner_lanes) >= NO_LANE as usize {
        return Err(DbError::Unsupported(
            "join input of 2^32 rows or more".into(),
        ));
    }

    let (sources, outer, outer_charge) = (left.sources, left.batches, left.charge);
    let (inner_sources, inner, mut inner_charge, handle) = match right {
        JoinInner::Rows(rel) => (rel.sources, rel.batches, rel.charge, None),
        JoinInner::Table { handle, .. } => {
            let source = vec![Source::Table(handle.clone(), right_arity)];
            (source, Vec::new(), env.budget.reservation(), Some(handle))
        }
    };
    let outer_sources = sources.len();
    let sources: Vec<Source> = sources.into_iter().chain(inner_sources).collect();
    let mut out = Output {
        env,
        residual_reads: BoundExpr::reads(&residual, left_arity + right_arity),
        residual: residual
            .iter()
            .map(|e| CompiledExpr::compile(e, env.stats))
            .collect(),
        left_join: join_type == JoinType::Left,
        outer: (outer_sources, left_arity),
        rel: Rel::over(scope, sources, env.budget),
        pairs: Default::default(),
    };
    // a table on the inner side is read in place, under one read guard
    let guard = handle.as_ref().map(|h| h.read());
    let mut batches = outer.len();
    let inner_read = match (&algo, key, guard.as_deref()) {
        (JoinAlgo::IndexNestedLoop { .. }, Some(key), Some(table)) => Some(index_nested_loop(
            outer,
            outer_charge,
            table,
            key,
            &mut out,
        )?),
        (_, key, table) => {
            // the inner side as one batch: a table's every slot (a dead one
            // reads NULL), or the relation's rows
            batches += table.map_or(inner.len(), |t| usize::from(!t.is_empty()));
            let rows = table.map(|t| t.len() as u64);
            // read in place, its rows still count as scanned
            env.stats.add_rows_scanned(rows.unwrap_or(0));
            let inner_sources = out.rel.sources.len() - out.outer.0;
            let inner = match table {
                Some(t) => Positions::new(t.slot_count(), vec![Lanes::From(0)]),
                None => flatten(inner, inner_sources, &mut inner_charge)?,
            };
            let keys = key.map(|k| match table {
                Some(t) => Cow::Borrowed(t.col(k.right)),
                None => Cow::Owned(out.col(true, &inner, k.right)),
            });
            let (outer, inner_len) = ((outer, outer_charge), rows.unwrap_or(inner.len() as u64));
            match (&algo, key.zip(keys)) {
                (JoinAlgo::Hash, Some((key, rk))) => {
                    hash_join(outer, (&inner, &rk, inner_len), key, &mut out)?
                }
                (JoinAlgo::BlockNestedLoop { buffer_rows }, Some((key, rk))) => {
                    block_nested_loop(outer, (&inner, &rk), key, *buffer_rows, &mut out)?
                }
                _ => nested_loop(outer, &inner, table, &mut out)?,
            }
            rows
        }
    };

    env.stats.add_rows_scanned(out.rel.len() as u64);
    Ok(Joined {
        rel: out.rel,
        algo,
        batches: batches as u64,
        inner_read,
    })
}

/// One index probe per non-NULL outer key into the inner table, whose
/// slots the pairs hold. Returns how many inner rows the probes fetched.
fn index_nested_loop(
    outer: Vec<Positions>,
    mut charge: Reservation,
    table: &Table,
    key: EquiKey,
    out: &mut Output<'_>,
) -> DbResult<u64> {
    let (mut probes, mut fetched) = (0u64, 0u64);
    let slots = Positions::new(table.slot_count(), vec![Lanes::From(0)]);
    for pos in outer {
        let keys = out.col(false, &pos, key.left);
        out.probe_outer(&pos, &slots, |lane, hits| {
            if keys.valid[lane] {
                probes += 1;
                let found = table.index_lookup(key.right, &keys.value_at(lane));
                let live = |slot: &&usize| table.is_live(**slot);
                let before = hits.len();
                hits.extend(found.unwrap_or(&[]).iter().filter(live).map(|&s| s as u32));
                fetched += (hits.len() - before) as u64;
            }
        })?;
        charge.shrink(pos.bytes());
    }
    out.env.stats.add_index_lookups(probes);
    Ok(fetched)
}

/// Builds the hash table on the smaller side and probes with the larger
/// (row order is not a relational guarantee, so the swap only changes
/// output order, never the row multiset). The inner side comes as one batch
/// with its key lane `rk` and its row count (a table's live rows, read in
/// place: built on, or probed with, where it lies).
fn hash_join(
    (outer, mut charge): (Vec<Positions>, Reservation),
    (inner, rk, inner_len): (&Positions, &Col, u64),
    key: EquiKey,
    out: &mut Output<'_>,
) -> DbResult<()> {
    let int = |c| {
        out.rel
            .source_col(c, |col| matches!(col.data, ColData::Int(_)))
    };
    let typed = int(key.left) && int(out.outer.1 + key.right);
    let outer_len: usize = outer.iter().map(Positions::len).sum();
    let mut heads = Vec::new();
    if (outer_len as u64) < inner_len {
        // build on the outer side, probe with the inner one: pairs arrive
        // in probe order, so LEFT JOIN padding waits until the probe is done
        out.env.stats.add_rows_joined(inner_len);
        let build = flatten(outer, out.outer.0, &mut charge)?;
        let keys = out.col(false, &build, key.left);
        let table = BuildTable::new(&keys, typed);
        let mut matched = vec![false; build.len()];
        let (mut pl, mut pr) = (Vec::new(), Vec::new());
        let keys = table.probe(rk, &mut heads);
        for lane in 0..inner.len() {
            keys.matches(lane, &mut pl);
            pr.resize(pl.len(), lane as u32);
            if pl.len() >= out.env.batch_rows {
                out.flush(&build, &mut pl, inner, &mut pr, Some(&mut matched))?;
            }
        }
        out.flush(&build, &mut pl, inner, &mut pr, Some(&mut matched))?;
        out.pad_unmatched(&build, &matched)
    } else {
        // build on the inner side, probe with the outer
        out.env.stats.add_rows_joined(outer_len as u64);
        let table = BuildTable::new(rk, typed);
        for pos in outer {
            let keys = out.col(false, &pos, key.left);
            let probe = table.probe(&keys, &mut heads);
            out.probe_outer(&pos, inner, |lane, hits| probe.matches(lane, hits))?;
            charge.shrink(pos.bytes());
        }
        Ok(())
    }
}

/// Block nested-loop with the key equality inlined: the inner side (a
/// table in place, its dead slots NULL) is walked once per block of
/// `buffer` outer rows.
fn block_nested_loop(
    (outer, mut charge): (Vec<Positions>, Reservation),
    (inner, rk): (&Positions, &Col),
    key: EquiKey,
    buffer: usize,
    out: &mut Output<'_>,
) -> DbResult<()> {
    let outer = flatten(outer, out.outer.0, &mut charge)?;
    let lk = out.col(false, &outer, key.left);
    // with `Int` lanes on both sides the per-pair compare is one i64
    // equality instead of a Value dispatch
    let ints = match (&lk.data, &rk.data) {
        (ColData::Int(l), ColData::Int(r)) => Some((l, r)),
        _ => None,
    };
    let mut matched = vec![false; outer.len()];
    let (mut pl, mut pr) = (Vec::new(), Vec::new());
    for start in (0..outer.len()).step_by(buffer) {
        let block = start..(start + buffer).min(outer.len());
        for r in (0..inner.len()).filter(|&r| rk.valid[r]) {
            // one atomic add per inner row instead of per pair
            out.env.stats.add_rows_joined(block.len() as u64);
            for l in block.clone() {
                let equal = match ints {
                    Some((lk_ints, rk_ints)) => lk.valid[l] && lk_ints[l] == rk_ints[r],
                    None => lk.value_at(l).sql_eq(&rk.value_at(r)) == Some(true),
                };
                if equal {
                    pl.push(l as u32);
                    pr.push(r as u32);
                }
            }
            if pl.len() >= out.env.batch_rows {
                out.flush(&outer, &mut pl, inner, &mut pr, Some(&mut matched))?;
            }
        }
        // once per inner pass, pairs or not: the deadline is checked here
        out.flush(&outer, &mut pl, inner, &mut pr, Some(&mut matched))?;
    }
    // unmatched LEFT JOIN rows are appended in input order
    out.pad_unmatched(&outer, &matched)
}

/// No equi key: every pair, with the whole `ON` predicate (all of it sits
/// in the residual) — or none at all for a cross join. An inner `table`
/// pairs its live slots.
fn nested_loop(
    (outer, mut charge): (Vec<Positions>, Reservation),
    inner: &Positions,
    table: Option<&Table>,
    out: &mut Output<'_>,
) -> DbResult<()> {
    let live = |&r: &u32| table.is_none_or(|t| t.is_live(r as usize));
    let every: Vec<u32> = (0..inner.len() as u32).filter(live).collect();
    let stats = out.env.stats;
    for pos in outer {
        out.probe_outer(&pos, inner, |_, hits| {
            stats.add_rows_joined(every.len() as u64);
            hits.extend_from_slice(&every);
        })?;
        charge.shrink(pos.bytes());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bind::ScopeRelation;
    use crate::parser::parse_expression;
    use crate::types::{Column, Schema};
    use crate::value::Row;

    /// A join environment over throwaway counters and an unlimited budget:
    /// 2-row batches, so every algorithm crosses batch boundaries.
    fn env(strategy: JoinStrategy) -> JoinEnv<'static> {
        JoinEnv {
            strategy,
            stats: Box::leak(Box::default()),
            batch_rows: 2,
            deadline: None,
            budget: Box::leak(Box::new(Arc::new(MemoryBudget::new()))),
            params: &[],
        }
    }

    fn rel(qualifier: &str, cols: &[&str], rows: Vec<Row>) -> Rel {
        let mut scope = Scope::new();
        scope.push(ScopeRelation {
            qualifier: qualifier.into(),
            columns: cols.iter().map(|c| c.to_string()).collect(),
        });
        let batches = ColumnBatch::chunk_rows(rows, cols.len(), 2);
        Rel::new(scope, batches, (2, &Arc::new(MemoryBudget::new()))).unwrap()
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
        let on = on.map(|e| parse_expression(e).unwrap());
        let joined = join_rels(
            l,
            JoinInner::Rows(r),
            join_type,
            on.as_ref(),
            &env(strategy),
        );
        let joined = joined.unwrap().rel;
        assert!(joined.batches().iter().all(|b| b.len() <= 2 && b.len() > 0));
        let mut out = joined.rows();
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
        let env = env(JoinStrategy::Hash);
        let right = JoinInner::Rows(right_rel());
        let out = join_rels(left_rel(), right, JoinType::Cross, None, &env).unwrap();
        assert_eq!(out.rel.len(), 9);
        assert_eq!(out.rel.arity(), 4);
        assert_eq!(out.algo, JoinAlgo::NestedLoop);
        assert_eq!(env.stats.snapshot().rows_joined, 9);
        // 2 + 1 outer rows in, one inner batch built from two
        assert_eq!(out.batches, 4);
        // every emitted batch's position lanes stay charged while the
        // relation lives
        let bytes: u64 = out.rel.batches().iter().map(Positions::bytes).sum();
        assert!(bytes > 0);
        assert_eq!(env.budget.used(), bytes);
        drop(out);
        assert_eq!(env.budget.used(), 0);
    }

    #[test]
    fn expired_deadline_times_out_inside_the_join() {
        let past = Instant::now() - std::time::Duration::from_millis(10);
        for (strategy, on) in [
            (JoinStrategy::Hash, None),
            (JoinStrategy::Hash, Some("l.id < r.id")),
            (JoinStrategy::Hash, Some("l.id = r.id")),
            (BNL, Some("l.id = r.id")),
        ] {
            let mut env = env(strategy);
            env.deadline = Some(past);
            let on = on.map(|e| parse_expression(e).unwrap());
            let join_type = if on.is_some() {
                JoinType::Inner
            } else {
                JoinType::Cross
            };
            let right = JoinInner::Rows(right_rel());
            let err = join_rels(left_rel(), right, join_type, on.as_ref(), &env);
            assert!(
                matches!(err, Err(DbError::Timeout(_))),
                "{strategy:?} {on:?}: {err:?}"
            );
            assert_eq!(env.budget.used(), 0, "a failed join refunds its batches");
        }
    }

    #[test]
    fn output_batches_are_charged_as_they_are_emitted() {
        // room for the first outer row's pairs only (two batches of two
        // rows, each one position lane of 8 bytes): the join stops at the
        // second's, having never held more than the limit
        let mut env = env(JoinStrategy::Hash);
        let budget = Arc::new(MemoryBudget::new());
        budget.set_limit(Some(20));
        env.budget = Box::leak(Box::new(budget));
        let right = JoinInner::Rows(right_rel());
        let err = join_rels(left_rel(), right, JoinType::Cross, None, &env);
        assert!(matches!(err, Err(DbError::BudgetExceeded(_))), "{err:?}");
        assert!(env.budget.peak() > 0 && env.budget.peak() <= 20);
        assert_eq!(env.budget.used(), 0);
    }

    /// `e`: 40 rows over 10 keys, indexed on `k`.
    fn indexed_table() -> TableHandle {
        let columns = vec![
            Column::new("k", DataType::Int),
            Column::new("w", DataType::Int),
        ];
        let mut table = Table::new(Schema::new(columns, None).unwrap());
        for i in 0..40 {
            table
                .insert(vec![Value::Int(i % 10), Value::Int(i)])
                .unwrap();
        }
        table.create_index("e_k", 0, false).unwrap();
        Arc::new(parking_lot::RwLock::new(table))
    }

    #[test]
    fn scans_read_slots_in_place_in_slot_order() {
        let handle = indexed_table();
        let budget = Arc::new(MemoryBudget::new());
        let scan = |rows| {
            let scope = table_scope(&handle, "e");
            Rel::scan(scope, handle.clone(), &AccessPath::Scan, (rows, &budget)).unwrap()
        };
        // no dead slot: ranges, charged nothing
        let all = scan(16);
        assert_eq!(all.len(), 40);
        assert!(all.batches().iter().all(|b| b.bytes() == 0));
        assert_eq!(budget.used(), 0);
        drop(all);
        handle.write().delete_slots(&[2]).unwrap();
        let rel = scan(16);
        let lens: Vec<usize> = rel.batches().iter().map(Positions::len).collect();
        assert_eq!(lens, vec![16, 16, 7]);
        assert_eq!(budget.used(), 4 * 39);
        // columns arrive in their declared layout, positions are slots
        let b = rel.gather(&rel.batches()[0], &[true; 2]);
        assert!(matches!(b.col(0).data, ColData::Int(_)));
        let (slots, live): (Vec<u32>, Vec<Row>) =
            handle.read().iter().map(|(s, row)| (s as u32, row)).unzip();
        let at = rel
            .batches()
            .iter()
            .flat_map(|b| (0..b.len()).map(|i| b.at(0, i)));
        assert_eq!(at.collect::<Vec<_>>(), slots);
        assert_eq!(slots[2], 3, "slot 2 is a tombstone");
        assert_eq!(rel.rows(), live);
        // a gather reads only the columns it is asked for
        let b = rel.gather(&rel.batches()[0], &[false, true]);
        assert!(!b.is_read(0) && b.is_read(1));
    }

    #[test]
    fn empty_outer_never_reads_the_inner_table() {
        for strategy in [JoinStrategy::Hash, BNL] {
            let env = env(strategy);
            let on = parse_expression("l.id = e.k").unwrap();
            let outer = rel("l", &["id"], Vec::new());
            let inner = JoinInner::table(indexed_table(), "e");
            let out = join_rels(outer, inner, JoinType::Left, Some(&on), &env).unwrap();
            assert!(probes(&out.algo), "{strategy:?}: {:?}", out.algo);
            assert_eq!(out.rel.len(), 0);
            assert_eq!(out.inner_read, Some(0));
            let stats = env.stats.snapshot();
            assert_eq!((stats.rows_scanned, stats.index_lookups), (0, 0));
        }
    }

    #[test]
    fn index_probes_gather_slots_into_typed_columns() {
        let env = env(JoinStrategy::Hash);
        let on = parse_expression("l.id = e.k AND e.w >= 20").unwrap();
        let outer = rel(
            "l",
            &["id"],
            vec![vec![Value::Int(3)], vec![Value::Null], vec![Value::Int(77)]],
        );
        let inner = JoinInner::table(indexed_table(), "e");
        let out = join_rels(outer, inner, JoinType::Left, Some(&on), &env).unwrap();
        assert!(probes(&out.algo));
        // the residual keeps w = 23, 33 of key 3's four rows; the NULL key
        // and the missing key are padded in place
        assert_eq!(
            out.rel.rows(),
            vec![
                vec![Value::Int(3), Value::Int(3), Value::Int(23)],
                vec![Value::Int(3), Value::Int(3), Value::Int(33)],
                vec![Value::Null, Value::Null, Value::Null],
                vec![Value::Int(77), Value::Null, Value::Null],
            ]
        );
        // the inner side's positions are the slots the rows live in
        let slots: Vec<u32> = (out.rel.batches().iter())
            .flat_map(|b| (0..b.len()).map(|i| b.at(1, i)))
            .collect();
        assert_eq!(slots, vec![23, 33, NO_LANE, NO_LANE]);
        let all = [true; 3];
        let gathered = out.rel.batches().iter().map(|b| out.rel.gather(b, &all));
        assert!(gathered
            .into_iter()
            .all(|b| matches!(b.col(2).data, ColData::Int(_))));
        assert_eq!(env.stats.snapshot().index_lookups, 2);
        assert_eq!(out.inner_read, Some(4));
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
            type Side<'a> = &'a dyn Fn() -> Rel;
            let sides: [(Side<'_>, Side<'_>); 2] = [
                (&|| small("l"), &|| big("r")),
                (&|| big("l"), &|| small("r")),
            ];
            for (l, r) in sides {
                let hash = join(l(), r(), join_type, on, JoinStrategy::Hash);
                let oracle = join(
                    l(),
                    r(),
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
        let env = env(JoinStrategy::Hash);
        let on = parse_expression("l.id = r.id").unwrap();
        let big = rel("r", &["id"], (0..10).map(|i| vec![Value::Int(i)]).collect());
        let big = JoinInner::Rows(big);
        join_rels(left_rel(), big, JoinType::Inner, Some(&on), &env).unwrap();
        // built on the 3-row left, probed with the 10-row right
        assert_eq!(env.stats.snapshot().rows_joined, 10);
        assert_eq!(env.stats.snapshot().index_lookups, 0);
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
        let bound = bind_scalar(&e, &scope, &[]).unwrap();
        assert_eq!(split_conjuncts(bound).len(), 3);
    }
}
