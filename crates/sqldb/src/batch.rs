//! Columnar batches and compiled expression kernels — the vectorized
//! executor's data plane.
//!
//! The row executor walks a [`BoundExpr`] tree once per row, paying an enum
//! match and a `Value` clone per node per row (the interpretation overhead
//! Neumann's compilation paper targets). The vectorized executor instead
//! compiles each bound expression **once per statement** into a [`Kernel`]
//! and evaluates it over [`ColumnBatch`]es: typed column vectors (`Vec<i64>`
//! / `Vec<f64>` / …) with a validity bitmap, so the hot loops are plain
//! slices of machine types.
//!
//! # Semantics contract
//!
//! The batch path must be observationally identical to the row path —
//! results, row order, *and* errors. Three rules deliver that:
//!
//! 1. Kernels replicate `Value` semantics exactly: comparisons use
//!    `f64::total_cmp` (NaN-aware, `-0.0 < 0.0`), integer arithmetic stays
//!    checked, NULL propagates through the validity bitmap.
//! 2. `AND`/`OR` are vectorized eagerly only when the right operand is
//!    provably infallible; otherwise the whole node falls back to row-wise
//!    evaluation so short-circuiting still suppresses right-side errors.
//! 3. If a kernel errors anywhere in a batch, the driver re-evaluates that
//!    batch row-by-row with the original [`BoundExpr`] — rows are stored in
//!    order, so the rerun surfaces exactly the row path's first error (or
//!    succeeds, for errors the row path would have skipped).

use crate::ast::{BinaryOp, UnaryOp};
use crate::bind::{BoundExpr, Builtin};
use crate::error::{DbError, DbResult};
use crate::stats::Stats;
use crate::types::{DataType, Schema};
use crate::value::{canonical_nan, Row, Value};
use std::borrow::Cow;
use std::cmp::Ordering;

/// The lane index that selects nothing: [`Col::gather`] yields NULL for it
/// (a join pads the inner side of an unmatched `LEFT JOIN` row this way).
pub const NO_LANE: u32 = u32::MAX;

/// Typed payload of one column in a batch. Lanes whose validity bit is
/// clear hold an arbitrary placeholder and must never be read as data.
#[derive(Debug, Clone, PartialEq)]
pub enum ColData {
    /// All non-null lanes are `Value::Int`.
    Int(Vec<i64>),
    /// All non-null lanes are `Value::Float`.
    Float(Vec<f64>),
    /// All non-null lanes are `Value::Bool`.
    Bool(Vec<bool>),
    /// Mixed types, text, or anything the typed layouts cannot hold;
    /// lanes carry full `Value`s (`Value::Null` where validity is clear).
    Mixed(Vec<Value>),
}

/// One column vector plus its validity bitmap (`true` = non-null).
#[derive(Debug, Clone, PartialEq)]
pub struct Col {
    /// Typed lane data.
    pub data: ColData,
    /// Per-lane non-null flags.
    pub valid: Vec<bool>,
}

impl Col {
    /// Number of lanes.
    pub fn len(&self) -> usize {
        self.valid.len()
    }

    /// True when the column has no lanes.
    pub fn is_empty(&self) -> bool {
        self.valid.is_empty()
    }

    /// Reconstructs the `Value` at `lane`; a column no one reads
    /// ([`Col::unread`]) reads NULL in every lane.
    pub fn value_at(&self, lane: usize) -> Value {
        if self.is_empty() || !self.valid[lane] {
            return Value::Null;
        }
        match &self.data {
            ColData::Int(v) => Value::Int(v[lane]),
            ColData::Float(v) => Value::Float(v[lane]),
            ColData::Bool(v) => Value::Bool(v[lane]),
            ColData::Mixed(v) => v[lane].clone(),
        }
    }

    /// Builds a column from owned values: in the typed layout of its first
    /// non-NULL value while every other agrees with it, `Mixed` otherwise.
    pub fn from_values(values: Vec<Value>) -> Col {
        let ty = values.iter().find_map(Value::data_type);
        let mut col = ColBuilder::new(ty.unwrap_or(DataType::Text), values.len());
        values.into_iter().for_each(|v| col.push(v));
        col.0
    }

    /// Whether the lanes already have the layout a column of type `ty`
    /// stores, so that [`Col::coerce`] would return them unchanged.
    pub fn is_stored_as(&self, ty: DataType) -> bool {
        match (ty, &self.data) {
            (DataType::Int, ColData::Int(_))
            | (DataType::Float, ColData::Float(_))
            | (DataType::Bool, ColData::Bool(_)) => true,
            (DataType::Text, ColData::Mixed(v)) => {
                v.iter().all(|v| matches!(v, Value::Text(_) | Value::Null))
            }
            _ => false,
        }
    }

    /// This column as lanes of a column of type `ty`, each value coerced as
    /// [`DataType::coerce`] does.
    ///
    /// # Errors
    /// The first lane's coercion error.
    pub fn coerce(self, ty: DataType) -> DbResult<Col> {
        match (ty, &self.data) {
            (DataType::Int, ColData::Int(_))
            | (DataType::Float, ColData::Float(_))
            | (DataType::Bool, ColData::Bool(_)) => Ok(self),
            (DataType::Float, ColData::Int(v)) => Ok(Col {
                data: ColData::Float(v.iter().map(|&i| i as f64).collect()),
                valid: self.valid,
            }),
            _ => {
                let mut out = ColBuilder::new(ty, self.len());
                for lane in 0..self.len() {
                    out.push(ty.coerce(self.value_at(lane))?);
                }
                Ok(out.0)
            }
        }
    }

    /// The lanes `idx` of this column, in that order and in the same layout;
    /// [`NO_LANE`] yields NULL.
    pub fn gather(&self, idx: &[u32]) -> Col {
        let lane = |&i: &u32| i == NO_LANE || (i as usize) < self.len();
        debug_assert!(idx.iter().all(lane), "a gather past the lanes");
        fn pick<T: Copy + Default>(v: &[T], idx: &[u32]) -> Vec<T> {
            let lane = |&i: &u32| v.get(i as usize).copied().unwrap_or_default();
            idx.iter().map(lane).collect()
        }
        let data = match &self.data {
            ColData::Int(v) => ColData::Int(pick(v, idx)),
            ColData::Float(v) => ColData::Float(pick(v, idx)),
            ColData::Bool(v) => ColData::Bool(pick(v, idx)),
            ColData::Mixed(v) => {
                let lane = |&i: &u32| v.get(i as usize).cloned().unwrap_or(Value::Null);
                ColData::Mixed(idx.iter().map(lane).collect())
            }
        };
        Col {
            data,
            valid: pick(&self.valid, idx),
        }
    }

    /// Lanes `idx` of each part's column (all of them where `None`), the
    /// parts end to end: in their layout when they share one, `Mixed`
    /// otherwise. No index may be [`NO_LANE`].
    pub(crate) fn concat(parts: &[(&Col, Option<&[u32]>)]) -> Col {
        fn pick<T: Clone>(v: &[T], idx: Option<&[u32]>, out: &mut Vec<T>) {
            match idx {
                Some(idx) => out.extend(idx.iter().map(|&i| v[i as usize].clone())),
                None => out.extend_from_slice(v),
            }
        }
        let mut valid = Vec::new();
        parts
            .iter()
            .for_each(|&(c, idx)| pick(&c.valid, idx, &mut valid));
        macro_rules! shared {
            ($variant:ident) => {
                if parts
                    .iter()
                    .all(|(c, _)| matches!(c.data, ColData::$variant(_)))
                {
                    let mut data = Vec::with_capacity(valid.len());
                    for &(c, idx) in parts {
                        if let ColData::$variant(v) = &c.data {
                            pick(v, idx, &mut data);
                        }
                    }
                    return Col {
                        data: ColData::$variant(data),
                        valid,
                    };
                }
            };
        }
        shared!(Int);
        shared!(Float);
        shared!(Bool);
        let mut data = Vec::with_capacity(valid.len());
        for &(c, idx) in parts {
            let n = idx.map_or(c.len(), <[u32]>::len);
            data.extend((0..n).map(|i| c.value_at(idx.map_or(i, |idx| idx[i] as usize))));
        }
        let data = ColData::Mixed(data);
        Col { data, valid }
    }

    /// `n` lanes of `v`, in the layout [`Col::from_values`] gives them.
    pub(crate) fn splat(v: Value, n: usize) -> Col {
        let valid = vec![!v.is_null(); n];
        let data = match v {
            Value::Int(i) => ColData::Int(vec![i; n]),
            Value::Float(f) => ColData::Float(vec![f; n]),
            Value::Bool(b) => ColData::Bool(vec![b; n]),
            v => ColData::Mixed(vec![v; n]),
        };
        Col { data, valid }
    }

    /// `n` NULL lanes.
    pub fn nulls(n: usize) -> Col {
        Col {
            data: ColData::Int(vec![0; n]),
            valid: vec![false; n],
        }
    }

    /// A column no one reads: it holds no lanes, whatever its batch's length,
    /// stays so through every batch operation, and no kernel may read it.
    pub fn unread() -> Col {
        Col::nulls(0)
    }

    /// The least and the greatest valid lane of an `Int` column; `None` for
    /// another layout or when every lane is NULL.
    pub(crate) fn int_range(&self) -> Option<(i64, i64)> {
        let ColData::Int(v) = &self.data else {
            return None;
        };
        let lanes = v.iter().zip(&self.valid);
        let (lo, hi) = lanes.fold((i64::MAX, i64::MIN), |(lo, hi), (&k, &ok)| match ok {
            true => (lo.min(k), hi.max(k)),
            false => (lo, hi),
        });
        (lo <= hi).then_some((lo, hi))
    }

    /// Appends one lane: in this column's typed layout while the value fits
    /// it, turning the column `Mixed` the moment one does not.
    pub fn push(&mut self, v: Value) {
        let valid = !v.is_null();
        match (&mut self.data, v) {
            (ColData::Int(d), Value::Int(i)) => d.push(i),
            (ColData::Float(d), Value::Float(f)) => d.push(f),
            (ColData::Bool(d), Value::Bool(b)) => d.push(b),
            (ColData::Int(d), Value::Null) => d.push(0),
            (ColData::Float(d), Value::Null) => d.push(0.0),
            (ColData::Bool(d), Value::Null) => d.push(false),
            (ColData::Mixed(d), v) => d.push(v),
            (_, v) => {
                let mut lanes: Vec<Value> = (0..self.len()).map(|i| self.value_at(i)).collect();
                lanes.push(v);
                self.data = ColData::Mixed(lanes);
            }
        }
        self.valid.push(valid);
    }

    /// Overwrites `lane` with `v`, turning the column `Mixed` when `v` does
    /// not fit its layout.
    pub fn set(&mut self, lane: usize, v: Value) {
        let valid = !v.is_null();
        match (&mut self.data, v) {
            (ColData::Int(d), Value::Int(i)) => d[lane] = i,
            (ColData::Float(d), Value::Float(f)) => d[lane] = f,
            (ColData::Bool(d), Value::Bool(b)) => d[lane] = b,
            (ColData::Int(_) | ColData::Float(_) | ColData::Bool(_), Value::Null) => {}
            (ColData::Mixed(d), v) => d[lane] = v,
            (_, v) => {
                let mut lanes: Vec<Value> = (0..self.len()).map(|i| self.value_at(i)).collect();
                lanes[lane] = v;
                self.data = ColData::Mixed(lanes);
            }
        }
        self.valid[lane] = valid;
    }

    /// Writes lane `i` of `src` into lane `idx[i]`: typed while `src` has
    /// this column's layout, through [`Col::set`] otherwise.
    pub(crate) fn scatter(&mut self, idx: &[usize], src: &Col) {
        fn put<T: Clone>(d: &mut [T], idx: &[usize], s: &[T]) {
            idx.iter().zip(s).for_each(|(&i, v)| d[i] = v.clone());
        }
        match (&mut self.data, &src.data) {
            (ColData::Int(d), ColData::Int(s)) => put(d, idx, s),
            (ColData::Float(d), ColData::Float(s)) => put(d, idx, s),
            (ColData::Bool(d), ColData::Bool(s)) => put(d, idx, s),
            (ColData::Mixed(d), ColData::Mixed(s)) => put(d, idx, s),
            _ => {
                let lanes = idx.iter().enumerate();
                return lanes.for_each(|(i, &lane)| self.set(lane, src.value_at(i)));
            }
        }
        put(&mut self.valid, idx, &src.valid);
    }

    /// Sets `changed[lane]` where this column's lane differs from `old`'s,
    /// as [`Value`]'s `!=` says: NULL equals NULL, floats compare by bits
    /// (`-0.0 ≠ 0.0`, a NaN equals itself). Only a layout pair that is not
    /// shared and typed compares `Value`s.
    pub fn mark_changed(&self, old: &Col, changed: &mut [bool]) {
        let valid = (&self.valid[..], &old.valid[..]);
        fn mark(changed: &mut [bool], (x, y): (&[bool], &[bool]), differ: impl Fn(usize) -> bool) {
            for (lane, c) in changed.iter_mut().enumerate() {
                *c |= x[lane] != y[lane] || (x[lane] && differ(lane));
            }
        }
        match (&self.data, &old.data) {
            (ColData::Int(a), ColData::Int(b)) => mark(changed, valid, |l| a[l] != b[l]),
            (ColData::Float(a), ColData::Float(b)) => {
                mark(changed, valid, |l| a[l].to_bits() != b[l].to_bits())
            }
            (ColData::Bool(a), ColData::Bool(b)) => mark(changed, valid, |l| a[l] != b[l]),
            (ColData::Mixed(a), ColData::Mixed(b)) => mark(changed, valid, |l| a[l] != b[l]),
            _ => mark(changed, valid, |l| self.value_at(l) != old.value_at(l)),
        }
    }

    /// Appends every lane of `src`.
    pub fn extend(&mut self, src: &Col) {
        match (&mut self.data, &src.data) {
            (ColData::Int(d), ColData::Int(s)) => d.extend_from_slice(s),
            (ColData::Float(d), ColData::Float(s)) => d.extend_from_slice(s),
            (ColData::Bool(d), ColData::Bool(s)) => d.extend_from_slice(s),
            _ => {
                (0..src.len()).for_each(|lane| self.push(src.value_at(lane)));
                return;
            }
        }
        self.valid.extend_from_slice(&src.valid);
    }

    /// The lanes `range`, in the same layout.
    pub fn slice(&self, range: std::ops::Range<usize>) -> Col {
        let data = match &self.data {
            ColData::Int(v) => ColData::Int(v[range.clone()].to_vec()),
            ColData::Float(v) => ColData::Float(v[range.clone()].to_vec()),
            ColData::Bool(v) => ColData::Bool(v[range.clone()].to_vec()),
            ColData::Mixed(v) => ColData::Mixed(v[range.clone()].to_vec()),
        };
        Col {
            data,
            valid: self.valid[range].to_vec(),
        }
    }

    /// Heap bytes the lanes hold, as the memory budget is charged for them.
    pub fn bytes(&self) -> u64 {
        let n = self.len() as u64;
        let text = |v: &Value| match v {
            Value::Text(s) => s.len() as u64,
            _ => 0,
        };
        n + match &self.data {
            ColData::Int(_) | ColData::Float(_) => 8 * n,
            ColData::Bool(_) => n,
            ColData::Mixed(v) => {
                std::mem::size_of::<Value>() as u64 * n + v.iter().map(text).sum::<u64>()
            }
        }
    }
}

/// Builds one column lane by lane: in the typed layout of the declared
/// column type, falling back to `Mixed` the moment a value does not fit it.
#[derive(Debug)]
pub struct ColBuilder(Col);

impl ColBuilder {
    /// An empty column of declared type `ty` with room for `capacity` lanes.
    pub fn new(ty: DataType, capacity: usize) -> ColBuilder {
        let data = match ty {
            DataType::Int => ColData::Int(Vec::with_capacity(capacity)),
            DataType::Float => ColData::Float(Vec::with_capacity(capacity)),
            DataType::Bool => ColData::Bool(Vec::with_capacity(capacity)),
            DataType::Text => ColData::Mixed(Vec::with_capacity(capacity)),
        };
        let valid = Vec::with_capacity(capacity);
        ColBuilder(Col { data, valid })
    }

    /// Appends one lane ([`Col::push`]).
    pub fn push(&mut self, v: Value) {
        self.0.push(v);
    }

    /// The finished column.
    pub fn finish(self) -> Col {
        self.0
    }
}

/// `n` NULL lanes for each column of `schema`, typed as declared.
pub fn schema_cols(schema: &Schema, n: usize) -> Vec<Col> {
    let nulls = |ty: DataType| {
        let data = match ty {
            DataType::Int => ColData::Int(vec![0; n]),
            DataType::Float => ColData::Float(vec![0.0; n]),
            DataType::Bool => ColData::Bool(vec![false; n]),
            DataType::Text => ColData::Mixed(vec![Value::Null; n]),
        };
        let valid = vec![false; n];
        Col { data, valid }
    };
    schema
        .columns()
        .iter()
        .map(|c| nulls(c.data_type))
        .collect()
}

/// A fixed-size batch of rows in columnar layout.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnBatch {
    len: usize,
    cols: Vec<Col>,
}

impl ColumnBatch {
    /// Builds a batch from row-major data, consuming the rows.
    pub fn from_rows(rows: Vec<Row>, arity: usize) -> ColumnBatch {
        let len = rows.len();
        let mut columns: Vec<Vec<Value>> = (0..arity).map(|_| Vec::with_capacity(len)).collect();
        for mut row in rows {
            // right-to-left pop moves values without shifting
            for c in (0..arity).rev() {
                let v = if c < row.len() {
                    row.pop().unwrap_or(Value::Null)
                } else {
                    Value::Null
                };
                columns[c].push(v);
            }
        }
        ColumnBatch {
            len,
            cols: columns.into_iter().map(Col::from_values).collect(),
        }
    }

    /// Builds a batch directly from pre-built columns (the batched-scan
    /// entry point). Every column holds `len` lanes, or none when no one
    /// reads it ([`Col::unread`]).
    pub fn from_cols(cols: Vec<Col>, len: usize) -> ColumnBatch {
        debug_assert!(cols.iter().all(|c| c.len() == len || c.is_empty()));
        ColumnBatch { len, cols }
    }

    /// Splits row-major data into batches of at most `batch_size` rows.
    pub fn chunk_rows(rows: Vec<Row>, arity: usize, batch_size: usize) -> Vec<ColumnBatch> {
        let batch_size = batch_size.max(1);
        let mut out = Vec::with_capacity(rows.len() / batch_size + 1);
        if rows.is_empty() {
            return out;
        }
        let mut rest = rows;
        loop {
            if rest.len() <= batch_size {
                out.push(ColumnBatch::from_rows(rest, arity));
                return out;
            }
            let tail = rest.split_off(batch_size);
            out.push(ColumnBatch::from_rows(rest, arity));
            rest = tail;
        }
    }

    /// Number of rows in the batch.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.cols.len()
    }

    /// The `i`-th column.
    pub fn col(&self, i: usize) -> &Col {
        &self.cols[i]
    }

    /// The columns, consuming the batch.
    pub fn into_cols(self) -> Vec<Col> {
        self.cols
    }

    /// Whether column `i` holds lanes: false for a column no one reads
    /// ([`Col::unread`]) in a batch that has rows.
    pub fn is_read(&self, i: usize) -> bool {
        self.cols[i].len() == self.len
    }

    /// Reconstructs the row at `lane` (NULL in an unread column).
    pub fn row_at(&self, lane: usize) -> Row {
        self.cols.iter().map(|c| c.value_at(lane)).collect()
    }

    /// Materializes all rows, appending to `out`.
    pub fn append_rows_to(&self, out: &mut Vec<Row>) {
        for lane in 0..self.len {
            out.push(self.row_at(lane));
        }
    }

    /// Keeps only the lanes whose `keep` flag is set.
    pub fn compact(&self, keep: &[bool]) -> ColumnBatch {
        let idx: Vec<u32> = (0..self.len as u32).filter(|&i| keep[i as usize]).collect();
        ColumnBatch {
            len: idx.len(),
            cols: self.gather_cols(&idx),
        }
    }

    /// Every column's lanes `idx` ([`Col::gather`]), copied as one range
    /// when they are consecutive; a column no one reads comes back unread.
    pub fn gather_cols(&self, idx: &[u32]) -> Vec<Col> {
        let run = idx.first() != Some(&NO_LANE) && idx.windows(2).all(|w| w[1] == w[0] + 1);
        let from = idx.first().map_or(0, |&at| at as usize);
        let col = |(i, c): (usize, &Col)| match run {
            _ if !self.is_read(i) => Col::unread(),
            true => c.slice(from..from + idx.len()),
            false => c.gather(idx),
        };
        self.cols.iter().enumerate().map(col).collect()
    }

    /// All rows of `batches`, in order, as one batch of `arity` columns; a
    /// column the batches leave unread stays so.
    pub fn concat(mut batches: Vec<ColumnBatch>, arity: usize) -> ColumnBatch {
        if batches.len() == 1 {
            return batches.remove(0);
        }
        let col = |c| match batches.iter().any(|b| !b.is_read(c)) {
            true => Col::unread(),
            false => Col::concat(&batches.iter().map(|b| (b.col(c), None)).collect::<Vec<_>>()),
        };
        ColumnBatch {
            len: batches.iter().map(ColumnBatch::len).sum(),
            cols: (0..arity).map(col).collect(),
        }
    }

    /// Heap bytes the columns hold ([`Col::bytes`]).
    pub fn bytes(&self) -> u64 {
        self.cols.iter().map(Col::bytes).sum()
    }
}

/// Result of one kernel evaluation over a batch: a fresh column, a borrowed
/// input column (projection of a bare column reference never copies), or a
/// broadcast constant.
#[derive(Debug)]
pub enum EvalOut {
    /// A newly computed column.
    Owned(Col),
    /// Input column `i` of the batch, unchanged.
    Ref(usize),
    /// The same value in every lane.
    Const(Value),
}

impl EvalOut {
    /// The `Value` at `lane`, resolving references against `batch` (the
    /// kernel tests read outputs lane by lane).
    #[cfg(test)]
    pub fn value_at(&self, batch: &ColumnBatch, lane: usize) -> Value {
        match self {
            EvalOut::Owned(c) => c.value_at(lane),
            EvalOut::Ref(i) => batch.col(*i).value_at(lane),
            EvalOut::Const(v) => v.clone(),
        }
    }

    /// The output as a column of `batch.len()` lanes.
    pub fn into_col(self, batch: &ColumnBatch) -> Col {
        match self {
            EvalOut::Owned(c) => c,
            EvalOut::Ref(i) => batch.col(i).clone(),
            EvalOut::Const(v) => Col::splat(v, batch.len()),
        }
    }

    fn as_operand<'a>(&'a self, batch: &'a ColumnBatch) -> Operand<'a> {
        match self {
            EvalOut::Owned(c) => Operand::Col(c),
            EvalOut::Ref(i) => Operand::Col(batch.col(*i)),
            EvalOut::Const(v) => Operand::Const(v),
        }
    }

    /// The output as a column of `batch.len()` lanes, borrowed from `batch`
    /// when it is one of its columns.
    pub fn into_cow(self, batch: &ColumnBatch) -> Cow<'_, Col> {
        match self {
            EvalOut::Ref(i) => Cow::Borrowed(batch.col(i)),
            out => Cow::Owned(out.into_col(batch)),
        }
    }

    /// The per-lane `is_truthy` mask (`true` only for a valid `Bool(true)`
    /// lane — exactly [`Value::is_truthy`]).
    pub fn truthy_mask(&self, batch: &ColumnBatch) -> Vec<bool> {
        let n = batch.len();
        match self.as_operand(batch) {
            Operand::Const(v) => vec![v.is_truthy(); n],
            Operand::Col(c) => match &c.data {
                ColData::Bool(b) => (0..n).map(|i| c.valid[i] && b[i]).collect(),
                ColData::Mixed(v) => v.iter().map(Value::is_truthy).collect(),
                _ => vec![false; n],
            },
        }
    }
}

enum Operand<'a> {
    Col(&'a Col),
    Const(&'a Value),
}

impl<'a> Operand<'a> {
    fn value_at(&self, lane: usize) -> Value {
        match self {
            Operand::Col(c) => c.value_at(lane),
            Operand::Const(v) => (*v).clone(),
        }
    }
}

/// Lane classification for three-valued `AND`/`OR`: exactly `Bool(true)`,
/// exactly `Bool(false)`, or anything else (NULL and non-boolean values
/// take the same `else => Null` arm in the row evaluator).
#[derive(Clone, Copy, PartialEq)]
enum Tri {
    True,
    False,
    Other,
}

fn tri_lanes(op: &Operand<'_>, n: usize) -> Vec<Tri> {
    let of_value = |v: &Value| match v {
        Value::Bool(true) => Tri::True,
        Value::Bool(false) => Tri::False,
        _ => Tri::Other,
    };
    match op {
        Operand::Const(v) => vec![of_value(v); n],
        Operand::Col(c) => match &c.data {
            ColData::Bool(b) => (0..n)
                .map(|i| {
                    if !c.valid[i] {
                        Tri::Other
                    } else if b[i] {
                        Tri::True
                    } else {
                        Tri::False
                    }
                })
                .collect(),
            ColData::Mixed(v) => v.iter().map(of_value).collect(),
            _ => vec![Tri::Other; n],
        },
    }
}

/// A compiled per-batch evaluation plan for one bound expression.
#[derive(Debug, Clone)]
pub enum Kernel {
    /// Pass input column `i` through.
    Column(usize),
    /// Broadcast a constant.
    Literal(Value),
    /// Vectorized binary operator.
    Binary {
        /// The operator.
        op: BinaryOp,
        /// Left operand kernel.
        left: Box<Kernel>,
        /// Right operand kernel.
        right: Box<Kernel>,
    },
    /// Vectorized unary operator.
    Unary {
        /// The operator.
        op: UnaryOp,
        /// Operand kernel.
        inner: Box<Kernel>,
    },
    /// Vectorized `IS [NOT] NULL` (reads only the validity bitmap).
    IsNull {
        /// Operand kernel.
        inner: Box<Kernel>,
        /// `IS NOT NULL` when set.
        negated: bool,
    },
    /// `COALESCE`: every argument evaluated, each lane taking the first
    /// non-NULL one (the row path stops at it, so an argument after it
    /// that fails only sends the batch down the row-wise re-run).
    Coalesce(Vec<Kernel>),
    /// `LEAST` / `GREATEST`: typed over arguments that are all `Int` or all
    /// `Float` lanes, else row-wise.
    Extreme {
        /// Argument kernels.
        args: Vec<Kernel>,
        /// The whole call as a [`Kernel::Fallback`], for a batch the typed
        /// path does not cover.
        rows: Box<Kernel>,
    },
    /// Row-wise interpretation of a subtree the vectorizer does not cover
    /// (CASE, casts, other builtins, IN lists, fallible AND/OR right sides, …).
    Fallback(BoundExpr),
}

/// True when evaluating `e` can never return an error for any row: bare
/// columns and literals, and comparison/logic trees built from them
/// (`sql_eq`/`sql_cmp` and the three-valued connectives are total).
/// Arithmetic is fallible (integer overflow, division by zero, type
/// errors), as are casts, builtins, and `NOT` on non-boolean input.
fn infallible(e: &BoundExpr) -> bool {
    match e {
        BoundExpr::Literal(_) | BoundExpr::Column(_) => true,
        BoundExpr::IsNull { expr, .. } => infallible(expr),
        BoundExpr::Binary { left, op, right } => {
            matches!(
                op,
                BinaryOp::Eq
                    | BinaryOp::NotEq
                    | BinaryOp::Lt
                    | BinaryOp::LtEq
                    | BinaryOp::Gt
                    | BinaryOp::GtEq
                    | BinaryOp::And
                    | BinaryOp::Or
            ) && infallible(left)
                && infallible(right)
        }
        BoundExpr::Between {
            expr, low, high, ..
        } => infallible(expr) && infallible(low) && infallible(high),
        BoundExpr::InList { expr, list, .. } => infallible(expr) && list.iter().all(infallible),
        _ => false,
    }
}

impl Kernel {
    /// Compiles a bound expression into a kernel tree. Subtrees the
    /// vectorizer cannot evaluate with identical semantics compile to
    /// [`Kernel::Fallback`] (row-wise interpretation inside the batch),
    /// each node counted into `stats`.
    fn compile(expr: &BoundExpr, stats: &Stats) -> Kernel {
        let kernel = match expr {
            BoundExpr::Literal(v) => Kernel::Literal(v.clone()),
            BoundExpr::Column(i) => Kernel::Column(*i),
            // eager vectorized AND/OR would evaluate right sides the row
            // path short-circuits past — only safe when the right side
            // cannot error
            BoundExpr::Binary {
                op: BinaryOp::And | BinaryOp::Or,
                right,
                ..
            } if !infallible(right) => Kernel::Fallback(expr.clone()),
            BoundExpr::Binary { left, op, right } => Kernel::Binary {
                op: *op,
                left: Box::new(Kernel::compile(left, stats)),
                right: Box::new(Kernel::compile(right, stats)),
            },
            BoundExpr::Unary { op, expr: inner } => Kernel::Unary {
                op: *op,
                inner: Box::new(Kernel::compile(inner, stats)),
            },
            BoundExpr::IsNull {
                expr: inner,
                negated,
            } => Kernel::IsNull {
                inner: Box::new(Kernel::compile(inner, stats)),
                negated: *negated,
            },
            BoundExpr::Func {
                builtin: Builtin::Coalesce,
                args,
            } => Kernel::Coalesce(args.iter().map(|a| Kernel::compile(a, stats)).collect()),
            BoundExpr::Func {
                builtin: Builtin::Least | Builtin::Greatest,
                args,
            } => Kernel::Extreme {
                args: args.iter().map(|a| Kernel::compile(a, stats)).collect(),
                rows: Box::new(Kernel::Fallback(expr.clone())),
            },
            other => Kernel::Fallback(other.clone()),
        };
        stats.note_kernel(matches!(kernel, Kernel::Fallback(_)));
        kernel
    }

    /// Evaluates the kernel over one batch.
    ///
    /// # Errors
    /// Returns the first error in kernel evaluation order. Callers must
    /// treat any error as "re-evaluate this batch row-wise" — see the
    /// module docs — which [`CompiledExpr::try_eval`]'s callers do.
    pub fn eval(&self, batch: &ColumnBatch) -> DbResult<EvalOut> {
        match self {
            Kernel::Column(i) => {
                if *i >= batch.arity() {
                    return Err(DbError::Eval(format!("row too short for column {i}")));
                }
                Ok(EvalOut::Ref(*i))
            }
            Kernel::Literal(v) => Ok(EvalOut::Const(v.clone())),
            Kernel::Binary { op, left, right } => {
                let l = left.eval(batch)?;
                let r = right.eval(batch)?;
                eval_binary_cols(*op, &l, &r, batch)
            }
            Kernel::Unary { op, inner } => {
                let v = inner.eval(batch)?;
                eval_unary_col(*op, &v, batch)
            }
            Kernel::IsNull { inner, negated } => {
                let v = inner.eval(batch)?;
                let n = batch.len();
                let lanes: Vec<bool> = match v.as_operand(batch) {
                    Operand::Const(c) => vec![c.is_null() != *negated; n],
                    Operand::Col(c) => c.valid.iter().map(|&ok| ok == *negated).collect(),
                };
                Ok(EvalOut::Owned(Col {
                    data: ColData::Bool(lanes),
                    valid: vec![true; n],
                }))
            }
            Kernel::Coalesce(args) => {
                // the first argument's lanes, each NULL one filled from the
                // next argument that has a value there
                let outs = args.iter().map(|k| Ok(k.eval(batch)?.into_col(batch)));
                let mut outs = outs.collect::<DbResult<Vec<Col>>>()?.into_iter();
                let mut out = outs.next().unwrap_or_else(|| Col::nulls(batch.len()));
                for next in outs {
                    let fill: Vec<usize> = (0..out.len()).filter(|&l| !out.valid[l]).collect();
                    for lane in fill.into_iter().filter(|&l| next.valid[l]) {
                        out.set(lane, next.value_at(lane));
                    }
                }
                Ok(EvalOut::Owned(out))
            }
            Kernel::Extreme { args, rows } => {
                let outs = args.iter().map(|k| Ok(k.eval(batch)?.into_cow(batch)));
                let cols = outs.collect::<DbResult<Vec<Cow<Col>>>>()?;
                let greatest = matches!(**rows, Kernel::Fallback(BoundExpr::Func { builtin, .. })
                    if builtin == Builtin::Greatest);
                match extreme_lanes(greatest, &cols) {
                    Some(out) => Ok(EvalOut::Owned(out)),
                    None => rows.eval(batch),
                }
            }
            Kernel::Fallback(expr) => {
                // each lane's row carries only the columns the subtree reads
                let mut read = Vec::new();
                expr.walk(&mut |e| {
                    if let BoundExpr::Column(c) = e {
                        read.push(*c);
                    }
                });
                read.retain(|&c| c < batch.arity());
                let mut row = vec![Value::Null; batch.arity()];
                let mut out = Vec::with_capacity(batch.len());
                for lane in 0..batch.len() {
                    read.iter()
                        .for_each(|&c| row[c] = batch.col(c).value_at(lane));
                    out.push(expr.eval(&row)?);
                }
                Ok(EvalOut::Owned(Col::from_values(out)))
            }
        }
    }
}

/// `LEAST` (`GREATEST` when `greatest`) of `cols` lane by lane, when the
/// ones with a valid lane are all `Int` or all `Float` lanes: a NULL lane
/// never wins, lanes are ordered by [`Value::total_cmp`], and a tie keeps
/// the earlier argument. `None` for any other mix, which the row path
/// evaluates (an `Int` against a `Float` keeps the winner's own type there).
fn extreme_lanes(greatest: bool, cols: &[Cow<'_, Col>]) -> Option<Col> {
    fn merge<T: Copy>(
        out: &mut [T],
        ok: &mut [bool],
        v: &[T],
        v_ok: &[bool],
        wins: impl Fn(&T, &T) -> bool,
    ) {
        for i in 0..out.len() {
            if v_ok[i] && (!ok[i] || wins(&v[i], &out[i])) {
                (out[i], ok[i]) = (v[i], true);
            }
        }
    }
    let want = if greatest {
        Ordering::Greater
    } else {
        Ordering::Less
    };
    let mut live = cols.iter().filter(|c| c.valid.contains(&true));
    let mut out = live.next()?.clone().into_owned();
    for c in live {
        match (&mut out.data, &c.data) {
            (ColData::Int(o), ColData::Int(v)) => {
                merge(o, &mut out.valid, v, &c.valid, |a, b| a.cmp(b) == want)
            }
            (ColData::Float(o), ColData::Float(v)) => {
                merge(o, &mut out.valid, v, &c.valid, |a, b| {
                    a.total_cmp(b) == want
                })
            }
            _ => return None,
        }
    }
    matches!(out.data, ColData::Int(_) | ColData::Float(_)).then_some(out)
}

fn eval_binary_cols(
    op: BinaryOp,
    l: &EvalOut,
    r: &EvalOut,
    batch: &ColumnBatch,
) -> DbResult<EvalOut> {
    let n = batch.len();
    let lo = l.as_operand(batch);
    let ro = r.as_operand(batch);
    match op {
        BinaryOp::And | BinaryOp::Or => {
            let lt = tri_lanes(&lo, n);
            let rt = tri_lanes(&ro, n);
            let mut data = vec![false; n];
            let mut valid = vec![false; n];
            for i in 0..n {
                let out = if op == BinaryOp::And {
                    match (lt[i], rt[i]) {
                        (Tri::False, _) | (_, Tri::False) => Some(false),
                        (Tri::True, Tri::True) => Some(true),
                        _ => None,
                    }
                } else {
                    match (lt[i], rt[i]) {
                        (Tri::True, _) | (_, Tri::True) => Some(true),
                        (Tri::False, Tri::False) => Some(false),
                        _ => None,
                    }
                };
                if let Some(b) = out {
                    data[i] = b;
                    valid[i] = true;
                }
            }
            Ok(EvalOut::Owned(Col {
                data: ColData::Bool(data),
                valid,
            }))
        }
        BinaryOp::Eq
        | BinaryOp::NotEq
        | BinaryOp::Lt
        | BinaryOp::LtEq
        | BinaryOp::Gt
        | BinaryOp::GtEq => Ok(EvalOut::Owned(eval_cmp_cols(op, &lo, &ro, n))),
        BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul | BinaryOp::Div | BinaryOp::Mod => {
            eval_arith_cols(op, &lo, &ro, n)
        }
        BinaryOp::Concat => {
            let mut out = Vec::with_capacity(n);
            for i in 0..n {
                let a = lo.value_at(i);
                let b = ro.value_at(i);
                out.push(if a.is_null() || b.is_null() {
                    Value::Null
                } else {
                    Value::Text(format!("{a}{b}"))
                });
            }
            Ok(EvalOut::Owned(Col::from_values(out)))
        }
    }
}

fn cmp_to_bool(op: BinaryOp, o: Ordering) -> bool {
    match op {
        BinaryOp::Eq => o == Ordering::Equal,
        BinaryOp::NotEq => o != Ordering::Equal,
        BinaryOp::Lt => o == Ordering::Less,
        BinaryOp::LtEq => o != Ordering::Greater,
        BinaryOp::Gt => o == Ordering::Greater,
        BinaryOp::GtEq => o != Ordering::Less,
        _ => unreachable!("not a comparison"),
    }
}

/// Vectorized comparison with [`Value::sql_cmp`] semantics: NULL lanes
/// compare to NULL, numeric lanes use `total_cmp` (so NaN equals NaN and
/// `-0.0 < 0.0`, matching the row path exactly).
fn eval_cmp_cols(op: BinaryOp, lo: &Operand<'_>, ro: &Operand<'_>, n: usize) -> Col {
    let mut data = vec![false; n];
    let mut valid = vec![false; n];
    // typed fast paths over numeric columns; everything else goes lane-wise
    // through Value::sql_cmp (identical semantics, just slower)
    match (lo, ro) {
        (Operand::Col(a), Operand::Col(b)) => match (&a.data, &b.data) {
            (ColData::Int(x), ColData::Int(y)) => {
                for i in 0..n {
                    if a.valid[i] && b.valid[i] {
                        valid[i] = true;
                        data[i] = cmp_to_bool(op, x[i].cmp(&y[i]));
                    }
                }
            }
            (ColData::Float(x), ColData::Float(y)) => {
                for i in 0..n {
                    if a.valid[i] && b.valid[i] {
                        valid[i] = true;
                        data[i] = cmp_to_bool(op, x[i].total_cmp(&y[i]));
                    }
                }
            }
            (ColData::Int(x), ColData::Float(y)) => {
                for i in 0..n {
                    if a.valid[i] && b.valid[i] {
                        valid[i] = true;
                        data[i] = cmp_to_bool(op, (x[i] as f64).total_cmp(&y[i]));
                    }
                }
            }
            (ColData::Float(x), ColData::Int(y)) => {
                for i in 0..n {
                    if a.valid[i] && b.valid[i] {
                        valid[i] = true;
                        data[i] = cmp_to_bool(op, x[i].total_cmp(&(y[i] as f64)));
                    }
                }
            }
            _ => {
                for i in 0..n {
                    if let Some(o) = a.value_at(i).sql_cmp(&b.value_at(i)) {
                        valid[i] = true;
                        data[i] = cmp_to_bool(op, o);
                    }
                }
            }
        },
        (Operand::Col(a), Operand::Const(k)) | (Operand::Const(k), Operand::Col(a)) => {
            let flipped = matches!(lo, Operand::Const(_));
            let ord = |x: Ordering| if flipped { x.reverse() } else { x };
            if k.is_null() {
                // all lanes NULL
            } else {
                match (&a.data, k) {
                    (ColData::Int(x), Value::Int(kv)) => {
                        for i in 0..n {
                            if a.valid[i] {
                                valid[i] = true;
                                data[i] = cmp_to_bool(op, ord(x[i].cmp(kv)));
                            }
                        }
                    }
                    (ColData::Float(x), Value::Float(kv)) => {
                        for i in 0..n {
                            if a.valid[i] {
                                valid[i] = true;
                                data[i] = cmp_to_bool(op, ord(x[i].total_cmp(kv)));
                            }
                        }
                    }
                    (ColData::Int(x), Value::Float(kv)) => {
                        for i in 0..n {
                            if a.valid[i] {
                                valid[i] = true;
                                data[i] = cmp_to_bool(op, ord((x[i] as f64).total_cmp(kv)));
                            }
                        }
                    }
                    (ColData::Float(x), Value::Int(kv)) => {
                        let kf = *kv as f64;
                        for i in 0..n {
                            if a.valid[i] {
                                valid[i] = true;
                                data[i] = cmp_to_bool(op, ord(x[i].total_cmp(&kf)));
                            }
                        }
                    }
                    _ => {
                        for i in 0..n {
                            if let Some(o) = a.value_at(i).sql_cmp(k) {
                                valid[i] = true;
                                data[i] = cmp_to_bool(op, ord(o));
                            }
                        }
                    }
                }
            }
        }
        (Operand::Const(a), Operand::Const(b)) => {
            if let Some(o) = a.sql_cmp(b) {
                let v = cmp_to_bool(op, o);
                data = vec![v; n];
                valid = vec![true; n];
            }
        }
    }
    Col {
        data: ColData::Bool(data),
        valid,
    }
}

/// A numeric operand of the arithmetic kernels: `Int` or `Float` lanes,
/// lane `i` read at index `i * step` (`step` 0 broadcasts a constant).
enum Num<'a> {
    Int(&'a [i64], usize),
    Float(Cow<'a, [f64]>, usize),
}

impl<'a> Num<'a> {
    /// The operand and its validity (`None`: all valid); `None` for NULL,
    /// text, bool and mixed operands.
    fn of(o: &Operand<'a>) -> Option<(Num<'a>, Option<&'a [bool]>)> {
        match *o {
            Operand::Col(c) => match &c.data {
                ColData::Int(v) => Some((Num::Int(v, 1), Some(&c.valid))),
                ColData::Float(v) => Some((Num::Float(Cow::Borrowed(v), 1), Some(&c.valid))),
                _ => None,
            },
            Operand::Const(Value::Int(k)) => Some((Num::Int(std::slice::from_ref(k), 0), None)),
            Operand::Const(Value::Float(k)) => {
                Some((Num::Float(Cow::Borrowed(std::slice::from_ref(k)), 0), None))
            }
            Operand::Const(_) => None,
        }
    }

    /// The lanes as FLOATs (INT lanes promoted) and their step.
    fn floats(self) -> (Cow<'a, [f64]>, usize) {
        match self {
            Num::Int(v, step) => (v.iter().map(|&i| i as f64).collect(), step),
            Num::Float(v, step) => (v, step),
        }
    }
}

/// `a op b` on two INTs: `None` on overflow and on division or modulo by
/// zero.
fn int_arith(op: BinaryOp, a: i64, b: i64) -> Option<i64> {
    match op {
        BinaryOp::Add => a.checked_add(b),
        BinaryOp::Sub => a.checked_sub(b),
        BinaryOp::Mul => a.checked_mul(b),
        BinaryOp::Div => a.checked_div(b),
        BinaryOp::Mod => (b != 0).then(|| a.wrapping_rem(b)),
        _ => unreachable!("not arithmetic"),
    }
}

/// `x op y` over `n` FLOAT lanes (or INTs promoted to them), each operand
/// read at `i * step`; an invalid lane is 0.0. The operator is matched once,
/// and a column (step 1) against a constant (step 0) or a column runs
/// without index arithmetic.
fn float_arith(
    op: BinaryOp,
    (x, sx): (&[f64], usize),
    (y, sy): (&[f64], usize),
    valid: &[bool],
) -> Vec<f64> {
    fn lanes(
        f: impl Fn(f64, f64) -> f64,
        x: &[f64],
        sx: usize,
        y: &[f64],
        sy: usize,
        valid: &[bool],
    ) -> Vec<f64> {
        let lane = |ok: bool, a: f64, b: f64| if ok { canonical_nan(f(a, b)) } else { 0.0 };
        let n = valid.len();
        match (sx, sy) {
            (1, 1) => valid
                .iter()
                .zip(&x[..n])
                .zip(&y[..n])
                .map(|((&ok, &a), &b)| lane(ok, a, b))
                .collect(),
            (1, 0) => valid
                .iter()
                .zip(&x[..n])
                .map(|(&ok, &a)| lane(ok, a, y[0]))
                .collect(),
            (0, 1) => valid
                .iter()
                .zip(&y[..n])
                .map(|(&ok, &b)| lane(ok, x[0], b))
                .collect(),
            _ => (0..n)
                .map(|i| lane(valid[i], x[i * sx], y[i * sy]))
                .collect(),
        }
    }
    match op {
        BinaryOp::Add => lanes(|a, b| a + b, x, sx, y, sy, valid),
        BinaryOp::Sub => lanes(|a, b| a - b, x, sx, y, sy, valid),
        BinaryOp::Mul => lanes(|a, b| a * b, x, sx, y, sy, valid),
        BinaryOp::Div => lanes(|a, b| a / b, x, sx, y, sy, valid),
        BinaryOp::Mod => lanes(|a, b| a % b, x, sx, y, sy, valid),
        _ => unreachable!("not arithmetic"),
    }
}

/// Vectorized arithmetic. Two `Int` operands run as checked `i64` loops;
/// an `Int` / `Float` mix is promoted to `f64` (IEEE semantics, infallible:
/// the row path's float promotion). Overflow and division or modulo by
/// zero fail the kernel, so the batch re-runs row by row and raises the
/// row path's error. Text, bool, NULL and mixed operands go lane-wise
/// through the checked `Value` operators.
fn eval_arith_cols(
    op: BinaryOp,
    lo: &Operand<'_>,
    ro: &Operand<'_>,
    n: usize,
) -> DbResult<EvalOut> {
    if let (Some((a, va)), Some((b, vb))) = (Num::of(lo), Num::of(ro)) {
        let valid: Vec<bool> = match (va, vb) {
            (Some(x), Some(y)) => x.iter().zip(y).map(|(x, y)| *x && *y).collect(),
            (v, None) | (None, v) => v.map_or_else(|| vec![true; n], <[bool]>::to_vec),
        };
        let data = match (a, b) {
            (Num::Int(x, sx), Num::Int(y, sy)) => {
                let mut data = vec![0i64; n];
                for i in (0..n).filter(|&i| valid[i]) {
                    let r = int_arith(op, x[i * sx], y[i * sy]);
                    data[i] = r.ok_or_else(|| DbError::Eval(format!("INT {op:?} failed")))?;
                }
                ColData::Int(data)
            }
            (a, b) => {
                let ((x, sx), (y, sy)) = (a.floats(), b.floats());
                ColData::Float(float_arith(op, (&x, sx), (&y, sy), &valid[..n]))
            }
        };
        return Ok(EvalOut::Owned(Col { data, valid }));
    }
    // generic lane-wise path through the checked Value operators
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let a = lo.value_at(i);
        let b = ro.value_at(i);
        out.push(match op {
            BinaryOp::Add => a.add(&b)?,
            BinaryOp::Sub => a.sub(&b)?,
            BinaryOp::Mul => a.mul(&b)?,
            BinaryOp::Div => a.div(&b)?,
            BinaryOp::Mod => a.rem(&b)?,
            _ => unreachable!(),
        });
    }
    Ok(EvalOut::Owned(Col::from_values(out)))
}

fn eval_unary_col(op: UnaryOp, v: &EvalOut, batch: &ColumnBatch) -> DbResult<EvalOut> {
    let n = batch.len();
    let o = v.as_operand(batch);
    match op {
        UnaryOp::Neg => {
            if let Operand::Col(c) = &o {
                if let ColData::Float(x) = &c.data {
                    let data: Vec<f64> = x.iter().map(|f| -f).collect();
                    return Ok(EvalOut::Owned(Col {
                        data: ColData::Float(data),
                        valid: c.valid.clone(),
                    }));
                }
            }
            let mut out = Vec::with_capacity(n);
            for i in 0..n {
                out.push(o.value_at(i).neg()?);
            }
            Ok(EvalOut::Owned(Col::from_values(out)))
        }
        UnaryOp::Not => {
            if let Operand::Col(c) = &o {
                if let ColData::Bool(b) = &c.data {
                    let data: Vec<bool> = b.iter().map(|x| !x).collect();
                    return Ok(EvalOut::Owned(Col {
                        data: ColData::Bool(data),
                        valid: c.valid.clone(),
                    }));
                }
            }
            let mut out = Vec::with_capacity(n);
            for i in 0..n {
                out.push(match o.value_at(i) {
                    Value::Null => Value::Null,
                    Value::Bool(b) => Value::Bool(!b),
                    other => {
                        return Err(DbError::Eval(format!(
                            "NOT requires boolean, got {}",
                            other.type_name()
                        )))
                    }
                });
            }
            Ok(EvalOut::Owned(Col::from_values(out)))
        }
    }
}

/// A bound expression compiled for batch evaluation, retaining the original
/// tree for the row-wise error path.
#[derive(Debug, Clone)]
pub struct CompiledExpr {
    kernel: Kernel,
    expr: BoundExpr,
}

impl CompiledExpr {
    /// Compiles `expr` (done once per statement execution), counting the
    /// kernel's nodes into `stats`.
    pub fn compile(expr: &BoundExpr, stats: &Stats) -> CompiledExpr {
        CompiledExpr {
            kernel: Kernel::compile(expr, stats),
            expr: expr.clone(),
        }
    }

    /// [`CompiledExpr::compile`] into counters nobody reads.
    #[cfg(test)]
    pub fn new(expr: &BoundExpr) -> CompiledExpr {
        CompiledExpr::compile(expr, &Stats::new())
    }

    /// The original bound expression.
    pub fn expr(&self) -> &BoundExpr {
        &self.expr
    }

    /// Evaluates the kernel only, with *no* row-wise rerun on error. Phases
    /// that evaluate several expressions per batch (projection, grouping)
    /// use this and fall back to row-wise evaluation of the whole batch
    /// themselves, so cross-expression error ordering matches the row path.
    ///
    /// # Errors
    /// May over-approximate: an error here can come from a lane/branch the
    /// row path would never evaluate. Callers must rerun row-wise.
    pub fn try_eval(&self, batch: &ColumnBatch) -> DbResult<EvalOut> {
        #[cfg(debug_assertions)]
        self.expr.walk(&mut |e| {
            if let BoundExpr::Column(c) = e {
                assert!(batch.is_read(*c), "a kernel reads unread column {c}");
            }
        });
        self.kernel.eval(batch)
    }

    /// Evaluates over one batch with exact row-path semantics: if the
    /// vectorized kernel errors anywhere in the batch, the batch is
    /// re-evaluated row-by-row in order, which either reproduces the row
    /// path's first error exactly or succeeds where eager evaluation
    /// over-approximated (e.g. an error in an untaken CASE branch).
    ///
    /// # Errors
    /// Exactly the errors the row-at-a-time evaluator would produce.
    pub fn eval_batch(&self, batch: &ColumnBatch) -> DbResult<EvalOut> {
        match self.try_eval(batch) {
            Ok(out) => Ok(out),
            Err(_) => {
                let mut out = Vec::with_capacity(batch.len());
                for lane in 0..batch.len() {
                    out.push(self.expr.eval(&batch.row_at(lane))?);
                }
                Ok(EvalOut::Owned(Col::from_values(out)))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::BinaryOp;

    fn batch_1col(values: Vec<Value>) -> ColumnBatch {
        let rows: Vec<Row> = values.into_iter().map(|v| vec![v]).collect();
        ColumnBatch::from_rows(rows, 1)
    }

    #[test]
    fn from_rows_types_columns_and_round_trips() {
        let rows = vec![
            vec![Value::Int(1), Value::Float(0.5), Value::Text("a".into())],
            vec![Value::Null, Value::Float(f64::NAN), Value::Null],
            vec![Value::Int(-3), Value::Null, Value::Text("b".into())],
        ];
        let b = ColumnBatch::from_rows(rows.clone(), 3);
        assert_eq!(b.len(), 3);
        assert!(matches!(b.col(0).data, ColData::Int(_)));
        assert!(matches!(b.col(1).data, ColData::Float(_)));
        assert!(matches!(b.col(2).data, ColData::Mixed(_)));
        let mut out = Vec::new();
        b.append_rows_to(&mut out);
        // NaN round-trips bit-wise through the Float column
        assert_eq!(out.len(), 3);
        assert_eq!(out[0], rows[0]);
        assert!(matches!(out[1][1], Value::Float(f) if f.is_nan()));
        assert_eq!(out[2], rows[2]);
    }

    #[test]
    fn mixed_numeric_column_stays_mixed() {
        let b = batch_1col(vec![Value::Int(1), Value::Float(2.0)]);
        // Int and Float lanes must not be silently promoted: grouping and
        // hashing treat Int(2) and Float(2.0) as equal but distinct values
        assert!(matches!(b.col(0).data, ColData::Mixed(_)));
    }

    #[test]
    fn chunk_rows_splits_exactly() {
        let rows: Vec<Row> = (0..10).map(|i| vec![Value::Int(i)]).collect();
        let batches = ColumnBatch::chunk_rows(rows, 1, 4);
        assert_eq!(
            batches.iter().map(ColumnBatch::len).collect::<Vec<_>>(),
            vec![4, 4, 2]
        );
        assert_eq!(batches[2].col(0).value_at(1), Value::Int(9));
    }

    fn eval_both(expr: &BoundExpr, rows: Vec<Row>, arity: usize) -> (Vec<Value>, Vec<Value>) {
        let row_results: Vec<Value> = rows
            .iter()
            .map(|r| expr.eval(r).expect("row eval"))
            .collect();
        let batch = ColumnBatch::from_rows(rows, arity);
        let compiled = CompiledExpr::new(expr);
        let out = compiled.eval_batch(&batch).expect("batch eval");
        let batch_results: Vec<Value> = (0..batch.len()).map(|i| out.value_at(&batch, i)).collect();
        (row_results, batch_results)
    }

    fn assert_same(expr: &BoundExpr, rows: Vec<Row>, arity: usize) {
        let (row, batch) = eval_both(expr, rows, arity);
        for (i, (r, b)) in row.iter().zip(&batch).enumerate() {
            // compare through total_cmp so NaN == NaN
            let same = match (r, b) {
                (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
                _ => r == b,
            };
            assert!(same, "lane {i}: row={r:?} batch={b:?} for {expr:?}");
        }
    }

    #[test]
    fn comparison_kernels_match_row_semantics_on_hostile_floats() {
        let hostile = vec![
            vec![Value::Float(f64::NAN), Value::Float(f64::NAN)],
            vec![Value::Float(0.0), Value::Float(-0.0)],
            vec![Value::Float(f64::INFINITY), Value::Float(1.0)],
            vec![Value::Float(f64::NEG_INFINITY), Value::Null],
            vec![Value::Null, Value::Null],
            vec![Value::Float(2.5), Value::Float(2.5)],
        ];
        for op in [
            BinaryOp::Eq,
            BinaryOp::NotEq,
            BinaryOp::Lt,
            BinaryOp::LtEq,
            BinaryOp::Gt,
            BinaryOp::GtEq,
        ] {
            let expr = BoundExpr::Binary {
                left: Box::new(BoundExpr::Column(0)),
                op,
                right: Box::new(BoundExpr::Column(1)),
            };
            assert_same(&expr, hostile.clone(), 2);
        }
    }

    #[test]
    fn int_float_cross_comparison_matches() {
        let rows = vec![
            vec![Value::Int(3), Value::Float(3.0)],
            vec![Value::Int(3), Value::Float(3.5)],
            vec![Value::Int(i64::MAX), Value::Float(9.3e18)],
            vec![Value::Null, Value::Float(1.0)],
        ];
        let expr = BoundExpr::Binary {
            left: Box::new(BoundExpr::Column(0)),
            op: BinaryOp::Eq,
            right: Box::new(BoundExpr::Column(1)),
        };
        assert_same(&expr, rows, 2);
    }

    #[test]
    fn arithmetic_kernels_match_and_propagate_null() {
        let rows = vec![
            vec![Value::Float(1.5), Value::Float(2.5)],
            vec![Value::Float(f64::INFINITY), Value::Float(-1.0)],
            vec![Value::Null, Value::Float(4.0)],
            vec![Value::Float(1.0), Value::Null],
            vec![Value::Int(7), Value::Float(2.0)],
        ];
        for op in [BinaryOp::Add, BinaryOp::Sub, BinaryOp::Mul, BinaryOp::Div] {
            let expr = BoundExpr::Binary {
                left: Box::new(BoundExpr::Column(0)),
                op,
                right: Box::new(BoundExpr::Column(1)),
            };
            assert_same(&expr, rows.clone(), 2);
        }
    }

    #[test]
    fn integer_overflow_keeps_row_path_error() {
        let rows = vec![
            vec![Value::Int(1), Value::Int(1)],
            vec![Value::Int(i64::MAX), Value::Int(1)],
        ];
        let expr = BoundExpr::Binary {
            left: Box::new(BoundExpr::Column(0)),
            op: BinaryOp::Add,
            right: Box::new(BoundExpr::Column(1)),
        };
        let batch = ColumnBatch::from_rows(rows, 2);
        let err = CompiledExpr::new(&expr).eval_batch(&batch).unwrap_err();
        assert!(err.to_string().contains("integer overflow in +"), "{err}");
    }

    #[test]
    fn division_by_integer_zero_keeps_row_path_error() {
        let rows = vec![vec![Value::Int(4), Value::Int(0)]];
        let expr = BoundExpr::Binary {
            left: Box::new(BoundExpr::Column(0)),
            op: BinaryOp::Div,
            right: Box::new(BoundExpr::Column(1)),
        };
        let batch = ColumnBatch::from_rows(rows, 2);
        let err = CompiledExpr::new(&expr).eval_batch(&batch).unwrap_err();
        assert!(err.to_string().contains("division by zero"), "{err}");
    }

    #[test]
    fn coalesce_kernel_picks_the_first_non_null_and_keeps_row_errors() {
        // COALESCE(a, 10 / b): the row path divides only where a is NULL
        let expr = BoundExpr::Func {
            builtin: Builtin::Coalesce,
            args: vec![
                BoundExpr::Column(0),
                BoundExpr::Binary {
                    left: Box::new(BoundExpr::Literal(Value::Int(10))),
                    op: BinaryOp::Div,
                    right: Box::new(BoundExpr::Column(1)),
                },
            ],
        };
        let compiled = CompiledExpr::new(&expr);
        let batch = |rows: Vec<Row>| ColumnBatch::from_rows(rows, 2);
        let fine = batch(vec![
            vec![Value::Int(1), Value::Int(0)],
            vec![Value::Null, Value::Int(5)],
        ]);
        assert!(
            compiled.try_eval(&fine).is_err(),
            "the kernel divides eagerly"
        );
        let out = compiled.eval_batch(&fine).unwrap();
        assert_eq!(out.value_at(&fine, 0), Value::Int(1));
        assert_eq!(out.value_at(&fine, 1), Value::Int(2));
        let nulls = batch(vec![vec![Value::Null, Value::Null]]);
        let out = compiled.try_eval(&nulls).unwrap();
        assert_eq!(out.value_at(&nulls, 0), Value::Null);
        let failing = batch(vec![vec![Value::Null, Value::Int(0)]]);
        let err = compiled.eval_batch(&failing).unwrap_err();
        assert!(err.to_string().contains("division by zero"), "{err}");
    }

    #[test]
    fn and_with_fallible_right_side_short_circuits_like_rows() {
        // b != 0 AND 10 / b > 1 — the row path never divides where b = 0;
        // the kernel must compile this to a row-wise fallback, not error
        let guard = BoundExpr::Binary {
            left: Box::new(BoundExpr::Column(0)),
            op: BinaryOp::NotEq,
            right: Box::new(BoundExpr::Literal(Value::Int(0))),
        };
        let div = BoundExpr::Binary {
            left: Box::new(BoundExpr::Binary {
                left: Box::new(BoundExpr::Literal(Value::Int(10))),
                op: BinaryOp::Div,
                right: Box::new(BoundExpr::Column(0)),
            }),
            op: BinaryOp::Gt,
            right: Box::new(BoundExpr::Literal(Value::Int(1))),
        };
        let expr = BoundExpr::Binary {
            left: Box::new(guard),
            op: BinaryOp::And,
            right: Box::new(div),
        };
        let rows = vec![
            vec![Value::Int(0)],
            vec![Value::Int(2)],
            vec![Value::Int(100)],
        ];
        assert_same(&expr, rows, 1);
    }

    #[test]
    fn and_or_three_valued_logic_matches() {
        let mk = |c: usize| Box::new(BoundExpr::Column(c));
        let rows: Vec<Row> = {
            let vals = [Value::Bool(true), Value::Bool(false), Value::Null];
            let mut rows = Vec::new();
            for a in &vals {
                for b in &vals {
                    rows.push(vec![a.clone(), b.clone()]);
                }
            }
            rows
        };
        for op in [BinaryOp::And, BinaryOp::Or] {
            let expr = BoundExpr::Binary {
                left: mk(0),
                op,
                right: mk(1),
            };
            assert_same(&expr, rows.clone(), 2);
        }
    }

    #[test]
    fn is_null_and_not_kernels_match() {
        let rows = vec![
            vec![Value::Null],
            vec![Value::Bool(true)],
            vec![Value::Bool(false)],
        ];
        let isn = BoundExpr::IsNull {
            expr: Box::new(BoundExpr::Column(0)),
            negated: false,
        };
        assert_same(&isn, rows.clone(), 1);
        let not = BoundExpr::Unary {
            op: UnaryOp::Not,
            expr: Box::new(BoundExpr::Column(0)),
        };
        assert_same(&not, rows, 1);
    }

    #[test]
    fn fallback_covers_case_expressions() {
        // CASE WHEN c0 > 0 THEN c0 ELSE 0 - c0 END
        let cond = BoundExpr::Binary {
            left: Box::new(BoundExpr::Column(0)),
            op: BinaryOp::Gt,
            right: Box::new(BoundExpr::Literal(Value::Int(0))),
        };
        let neg = BoundExpr::Binary {
            left: Box::new(BoundExpr::Literal(Value::Int(0))),
            op: BinaryOp::Sub,
            right: Box::new(BoundExpr::Column(0)),
        };
        let expr = BoundExpr::Case {
            branches: vec![(cond, BoundExpr::Column(0))],
            else_result: Some(Box::new(neg)),
        };
        let rows = vec![vec![Value::Int(-5)], vec![Value::Int(7)], vec![Value::Null]];
        assert_same(&expr, rows, 1);
    }

    #[test]
    fn compact_keeps_selected_lanes() {
        let b = batch_1col(vec![Value::Int(1), Value::Int(2), Value::Int(3)]);
        let c = b.compact(&[true, false, true]);
        assert_eq!(c.len(), 2);
        assert_eq!(c.col(0).value_at(0), Value::Int(1));
        assert_eq!(c.col(0).value_at(1), Value::Int(3));
    }

    #[test]
    fn gather_picks_lanes_in_order_and_pads_no_lane_with_null() {
        let rows = vec![
            vec![Value::Int(10), Value::Text("a".into())],
            vec![Value::Null, Value::Text("b".into())],
            vec![Value::Int(30), Value::Null],
        ];
        let b = ColumnBatch::from_rows(rows.clone(), 2);
        let cols = b.gather_cols(&[2, NO_LANE, 0, 0, 1]);
        // the layout survives, pads and NULL lanes are invalid
        assert!(matches!(cols[0].data, ColData::Int(_)));
        assert_eq!(cols[0].valid, vec![true, false, true, true, false]);
        let g = ColumnBatch::from_cols(cols, 5);
        assert_eq!(g.row_at(0), rows[2]);
        assert_eq!(g.row_at(1), vec![Value::Null, Value::Null]);
        assert_eq!(g.row_at(3), rows[0]);
        assert_eq!(g.row_at(4), rows[1]);
    }

    #[test]
    fn concat_keeps_a_shared_layout_and_mixes_otherwise() {
        let ints = |v: &[i64]| batch_1col(v.iter().map(|i| Value::Int(*i)).collect());
        let one = ColumnBatch::concat(vec![ints(&[1, 2]), ints(&[3])], 1);
        assert_eq!(one.len(), 3);
        assert!(matches!(&one.col(0).data, ColData::Int(v) if v == &[1, 2, 3]));
        let floats = batch_1col(vec![Value::Float(0.5), Value::Null]);
        let mixed = ColumnBatch::concat(vec![ints(&[1]), floats], 1);
        assert!(matches!(mixed.col(0).data, ColData::Mixed(_)));
        let values: Vec<Value> = (0..3).map(|i| mixed.col(0).value_at(i)).collect();
        assert_eq!(values, vec![Value::Int(1), Value::Float(0.5), Value::Null]);
        assert_eq!(ColumnBatch::concat(Vec::new(), 2).arity(), 2);
    }

    #[test]
    fn builder_starts_typed_and_falls_back_to_mixed() {
        let mut col = ColBuilder::new(DataType::Float, 4);
        col.push(Value::Float(1.5));
        col.push(Value::Null);
        assert!(matches!(&col.0.data, ColData::Float(v) if v.len() == 2));
        // a value the declared type cannot hold keeps what came before
        col.push(Value::Text("x".into()));
        col.push(Value::Float(2.5));
        let values: Vec<Value> = (0..4).map(|i| col.0.value_at(i)).collect();
        assert_eq!(
            values,
            vec![
                Value::Float(1.5),
                Value::Null,
                Value::Text("x".into()),
                Value::Float(2.5)
            ]
        );
        assert_eq!(col.0.valid, vec![true, false, true, true]);
    }

    #[test]
    fn bytes_count_lanes_validity_and_text() {
        let b = ColumnBatch::from_rows(
            vec![
                vec![Value::Int(1), Value::Bool(true), Value::Text("abc".into())],
                vec![Value::Null, Value::Bool(false), Value::Null],
            ],
            3,
        );
        let value = std::mem::size_of::<Value>() as u64;
        assert_eq!(b.bytes(), 2 * 9 + 2 * 2 + 2 * (value + 1) + 3);
    }

    #[test]
    fn truthy_mask_matches_is_truthy() {
        let b = batch_1col(vec![
            Value::Bool(true),
            Value::Bool(false),
            Value::Null,
            Value::Int(1),
        ]);
        let out = Kernel::Column(0).eval(&b).unwrap();
        assert_eq!(out.truthy_mask(&b), vec![true, false, false, false]);
    }
}
