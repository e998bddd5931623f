//! In-memory heap storage, one typed lane vector per column, with
//! primary-key and secondary indexes.

use crate::batch::{schema_cols, Col, ColData, ColumnBatch};
use crate::budget::{value_bytes, MemoryBudget, ROW_OVERHEAD};
use crate::error::{DbError, DbResult};
use crate::types::Schema;
use crate::value::{KeyMap, Row, Value};
use std::ops::Range;
use std::sync::Arc;

/// A heap table: slotted rows, stored column by column, plus indexes.
///
/// Each column is one [`Col`] indexed by slot — typed `Int` / `Float` /
/// `Bool` lanes, or `Value`s for TEXT — so the executor reads a scanned or
/// sought row in place, by its slot, and gathers a batch's column from the
/// lanes without rebuilding rows. Row slots are stable across updates; a delete clears
/// the slot's live flag and its lanes' validity bits. The primary-key index (present
/// when the schema declares a PK) maps key value → slot and enforces
/// uniqueness, matching the `Rid` assumption SQLoop relies on for
/// partitioning and updating the CTE table.
#[derive(Debug)]
pub struct Table {
    schema: Schema,
    /// One lane per slot in every column.
    cols: Vec<Col>,
    /// Whether each slot holds a row.
    live: Vec<bool>,
    live_count: usize,
    pk_index: Option<KeyMap<Value, usize>>,
    secondary: Vec<SecondaryIndex>,
    /// Database-wide byte budget this table charges row payloads against
    /// (attached by the catalog on registration; detached tables — e.g.
    /// mid-construction — are unaccounted).
    budget: Option<Arc<MemoryBudget>>,
    /// Bytes this table has charged and not yet refunded.
    tracked_bytes: u64,
}

/// A single-column secondary index.
#[derive(Debug)]
pub struct SecondaryIndex {
    /// Index name (unique within the database).
    pub name: String,
    /// Indexed column offset.
    pub column: usize,
    /// Uniqueness enforced on insert/update.
    pub unique: bool,
    map: KeyMap<Value, Vec<usize>>,
}

impl SecondaryIndex {
    fn insert(&mut self, key: Value, slot: usize) -> DbResult<()> {
        let null = key.is_null();
        let entry = self.map.entry(key).or_default();
        if self.unique && !null && !entry.is_empty() {
            return Err(DbError::Invalid(format!(
                "unique index {} violated",
                self.name
            )));
        }
        entry.push(slot);
        Ok(())
    }

    /// Takes the `(key, slot)` entries `gone` out in one pass over each
    /// key's slots; the slots left keep their order, which is the order a
    /// seek returns.
    fn remove_all(&mut self, mut gone: Vec<(Value, usize)>) {
        gone.sort_unstable();
        for run in gone.chunk_by(|a, b| a.0 == b.0) {
            if let Some(v) = self.map.get_mut(&run[0].0) {
                v.retain(|s| run.binary_search_by_key(s, |g| g.1).is_err());
                if v.is_empty() {
                    self.map.remove(&run[0].0);
                }
            }
        }
    }

    /// Moves the rows in `slots` whose key changed from lane `i` of `old` to
    /// lane `i` of `new`: they join the end of their new key's slots in row
    /// order and leave their old key's in one pass per key.
    fn rekey(&mut self, slots: &[usize], new: &Col, old: &Col) {
        let mut changed = vec![false; slots.len()];
        new.mark_changed(old, &mut changed);
        let mut gone = Vec::new();
        for (i, &slot) in slots.iter().enumerate().filter(|(i, _)| changed[*i]) {
            self.map.entry(new.value_at(i)).or_default().push(slot);
            gone.push((old.value_at(i), slot));
        }
        self.remove_all(gone);
    }

    /// Slots whose indexed column equals `key`.
    pub fn lookup(&self, key: &Value) -> &[usize] {
        self.map.get(key).map(|v| v.as_slice()).unwrap_or(&[])
    }
}

/// [`crate::budget::row_bytes`] summed over the `n` rows `cols` hold,
/// without building them: a typed lane costs what its type does, unless
/// NULL.
fn rows_bytes<'a>(cols: impl IntoIterator<Item = &'a Col>, n: usize) -> u64 {
    let null = value_bytes(&Value::Null);
    let lanes = |c: &Col| {
        let valid = c.valid[..n].iter().filter(|&&v| v).count() as u64;
        let typed = |bytes: u64| bytes * valid + null * (n as u64 - valid);
        match &c.data {
            ColData::Int(_) | ColData::Float(_) => typed(16),
            ColData::Bool(_) => typed(8),
            ColData::Mixed(v) => v[..n].iter().map(value_bytes).sum(),
        }
    };
    ROW_OVERHEAD * n as u64 + cols.into_iter().map(lanes).sum::<u64>()
}

impl Table {
    /// Creates an empty table for `schema`.
    pub fn new(schema: Schema) -> Table {
        let pk_index = schema.primary_key().map(|_| KeyMap::default());
        Table {
            cols: schema_cols(&schema, 0),
            schema,
            live: Vec::new(),
            live_count: 0,
            pk_index,
            secondary: Vec::new(),
            budget: None,
            tracked_bytes: 0,
        }
    }

    /// Attaches a memory budget, charging every live row already stored.
    ///
    /// # Errors
    /// Returns [`DbError::BudgetExceeded`] when the existing rows do not
    /// fit; the table stays detached.
    pub fn attach_budget(&mut self, budget: &Arc<MemoryBudget>) -> DbResult<()> {
        let slots = self.live_slot_vec();
        let charged = rows_bytes(&self.gather(&lanes(&slots)), slots.len());
        budget.charge(charged)?;
        self.budget = Some(budget.clone());
        self.tracked_bytes = charged;
        Ok(())
    }

    /// Charges `bytes` to the attached budget (`checked`: failing at its
    /// limit); returns what was charged.
    fn charge(&mut self, bytes: u64, checked: bool) -> DbResult<u64> {
        let Some(b) = self.budget.as_ref().filter(|_| bytes > 0) else {
            return Ok(0);
        };
        if checked {
            b.charge(bytes)?;
        } else {
            b.charge_unchecked(bytes);
        }
        self.tracked_bytes += bytes;
        Ok(bytes)
    }

    /// Returns `bytes` this table charged.
    fn refund(&mut self, bytes: u64) {
        if let Some(b) = self.budget.as_ref().filter(|_| bytes > 0) {
            b.refund(bytes);
            self.tracked_bytes = self.tracked_bytes.saturating_sub(bytes);
        }
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of live (non-deleted) rows.
    pub fn len(&self) -> usize {
        self.live_count
    }

    /// True when the table has no live rows.
    pub fn is_empty(&self) -> bool {
        self.live_count == 0
    }

    /// Total slots including tombstones (used by undo bookkeeping).
    pub fn slot_count(&self) -> usize {
        self.live.len()
    }

    /// Whether `slot` holds a row.
    pub fn is_live(&self, slot: usize) -> bool {
        self.live.get(slot).copied().unwrap_or(false)
    }

    /// Inserts a row (already coerced to the schema), returning its slot.
    ///
    /// # Errors
    /// As [`Table::append`].
    pub fn insert(&mut self, row: Row) -> DbResult<usize> {
        debug_assert_eq!(row.len(), self.schema.arity());
        let cols = row.into_iter().map(|v| Col::from_values(vec![v]));
        Ok(self
            .append(&ColumnBatch::from_cols(cols.collect(), 1))?
            .start)
    }

    /// Appends the rows of `batch` (its columns coerced to the schema) in
    /// new slots, which it returns. The whole batch is charged to the budget
    /// before it is stored, and each row is checked against the primary key
    /// and the unique indexes — which by then hold the batch's earlier rows
    /// — before any index changes. On an error nothing of the batch remains.
    ///
    /// # Errors
    /// Returns [`DbError::BudgetExceeded`] when the batch does not fit, and
    /// [`DbError::Invalid`] on a NULL or duplicate primary key or a unique
    /// index violation.
    pub fn append(&mut self, batch: &ColumnBatch) -> DbResult<Range<usize>> {
        debug_assert_eq!(batch.arity(), self.schema.arity());
        let (start, n) = (self.live.len(), batch.len());
        let cols = || (0..batch.arity()).map(|c| batch.col(c));
        let charge = self.charge(rows_bytes(cols(), n), true)?;
        if self.indexed() {
            for lane in 0..n {
                let key = |c: usize| batch.col(c).value_at(lane);
                if let Err(e) = self.admit(start + lane, &key) {
                    let done: Vec<usize> = (start..start + lane).collect();
                    self.unindex(&done, &|c, i| batch.col(c).value_at(i));
                    self.refund(charge);
                    return Err(e);
                }
                self.index(start + lane, &key);
            }
        }
        for (col, src) in self.cols.iter_mut().zip(cols()) {
            col.extend(src);
        }
        self.live.resize(start + n, true);
        self.live_count += n;
        Ok(start..start + n)
    }

    /// True when some index must follow the rows.
    fn indexed(&self) -> bool {
        self.pk_index.is_some() || !self.secondary.is_empty()
    }

    /// Fails unless a row whose columns read `key(column)` may live in
    /// `slot` without a NULL or duplicate primary key or a second entry in
    /// a unique index (NULL keys never collide there).
    fn admit(&self, slot: usize, key: &dyn Fn(usize) -> Value) -> DbResult<()> {
        if let (Some(pk_col), Some(idx)) = (self.schema.primary_key(), &self.pk_index) {
            let k = key(pk_col);
            if k.is_null() {
                return Err(DbError::Invalid("primary key cannot be NULL".into()));
            }
            if idx.get(&k).is_some_and(|&s| s != slot) {
                return Err(DbError::Invalid(format!("duplicate primary key {k}")));
            }
        }
        for sec in self.secondary.iter().filter(|s| s.unique) {
            let k = key(sec.column);
            if !k.is_null() && sec.lookup(&k).iter().any(|&s| s != slot) {
                return Err(DbError::Invalid(format!(
                    "unique index {} violated",
                    sec.name
                )));
            }
        }
        Ok(())
    }

    /// Enters the row in `slot`, whose columns read `key(column)`, into
    /// every index.
    fn index(&mut self, slot: usize, key: &dyn Fn(usize) -> Value) {
        if let (Some(pk_col), Some(idx)) = (self.schema.primary_key(), self.pk_index.as_mut()) {
            idx.insert(key(pk_col), slot);
        }
        for sec in &mut self.secondary {
            sec.map.entry(key(sec.column)).or_default().push(slot);
        }
    }

    /// Takes the rows in `slots`, whose columns read `key(column, i)` for
    /// `slots[i]`, out of every index, one pass per secondary index key.
    fn unindex(&mut self, slots: &[usize], key: &dyn Fn(usize, usize) -> Value) {
        if let (Some(pk_col), Some(idx)) = (self.schema.primary_key(), self.pk_index.as_mut()) {
            (0..slots.len()).for_each(|i| _ = idx.remove(&key(pk_col, i)));
        }
        for sec in &mut self.secondary {
            let keys = slots.iter().enumerate();
            sec.remove_all(keys.map(|(i, &s)| (key(sec.column, i), s)).collect());
        }
    }

    /// Writes lane `i` of `new[j]` (coerced) into column `cols[j]` of
    /// `slots[i]`; returns the old lanes, laid out alike. Growth is charged
    /// first (`checked`: failing at the limit; undo passes `false`). If
    /// `cols` holds a primary-key or unique column, the rows are checked
    /// one at a time against those indexes, which hold the earlier rows'
    /// moves; else each column is scattered whole. Non-unique index entries
    /// move last. On an error the table is as it was.
    ///
    /// # Errors
    /// Returns [`DbError::Invalid`] when a slot is dead or a row violates
    /// the primary key or a unique index, and
    /// [`DbError::BudgetExceeded`] when the growth does not fit.
    pub fn update_slots(
        &mut self,
        slots: &[usize],
        cols: &[usize],
        new: &[Col],
        checked: bool,
    ) -> DbResult<Vec<Col>> {
        if let Some(dead) = slots.iter().find(|&&s| !self.is_live(s)) {
            return Err(DbError::Invalid(format!("update of dead slot {dead}")));
        }
        let idx = lanes(slots);
        let old: Vec<Col> = cols.iter().map(|&c| self.cols[c].gather(&idx)).collect();
        let (nb, ob) = (rows_bytes(new, slots.len()), rows_bytes(&old, slots.len()));
        let grown = self.charge(nb.saturating_sub(ob), checked)?;
        let unique = |c: &usize| {
            let mut sec = self.secondary.iter();
            self.schema.primary_key() == Some(*c) || sec.any(|s| s.unique && s.column == *c)
        };
        if cols.iter().any(unique) {
            for (i, &slot) in slots.iter().enumerate() {
                let at = |c| cols.iter().position(|&a| a == c);
                let key =
                    |c| at(c).map_or_else(|| self.cols[c].value_at(slot), |j| new[j].value_at(i));
                if let Err(e) = self.admit(slot, &key) {
                    for j in (0..i).rev() {
                        self.write_row(slots[j], cols, &old, new, j);
                    }
                    self.refund(grown);
                    return Err(e);
                }
                self.write_row(slot, cols, new, &old, i);
            }
        } else {
            for (&c, src) in cols.iter().zip(new) {
                self.cols[c].scatter(slots, src);
            }
        }
        for sec in self.secondary.iter_mut().filter(|s| !s.unique) {
            if let Some(j) = cols.iter().position(|&c| c == sec.column) {
                sec.rekey(slots, &new[j], &old[j]);
            }
        }
        self.refund(ob.saturating_sub(nb));
        Ok(old)
    }

    /// Moves `slot` from lane `at` of `from` to lane `at` of `to` (both laid
    /// out by `cols`): the primary-key and unique-index entries of changed
    /// keys (an unchanged key keeps its place among its index's slots),
    /// then the changed lanes.
    fn write_row(&mut self, slot: usize, cols: &[usize], to: &[Col], from: &[Col], at: usize) {
        for (j, &c) in cols.iter().enumerate() {
            let (old, new) = (from[j].value_at(at), to[j].value_at(at));
            if old == new {
                continue;
            }
            if self.schema.primary_key() == Some(c) {
                let idx = self.pk_index.as_mut().expect("a primary key is indexed");
                idx.remove(&old);
                idx.insert(new.clone(), slot);
            }
            let unique = self.secondary.iter_mut().filter(|s| s.unique);
            for sec in unique.filter(|s| s.column == c) {
                sec.remove_all(vec![(old.clone(), slot)]);
                sec.map.entry(new.clone()).or_default().push(slot);
            }
            self.cols[c].set(slot, new);
        }
    }

    /// Deletes the rows in `slots`, returning them as columns (lane `i`
    /// holds the row of `slots[i]`): their lanes turn NULL, and the indexes
    /// drop them — wholesale when they are every live row.
    ///
    /// # Errors
    /// Returns [`DbError::Invalid`] when a slot is already dead; nothing
    /// is deleted then.
    pub fn delete_slots(&mut self, slots: &[usize]) -> DbResult<Vec<Col>> {
        if let Some(dead) = slots.iter().find(|&&s| !self.is_live(s)) {
            return Err(DbError::Invalid(format!("delete of dead slot {dead}")));
        }
        // every slot, in order: the lanes themselves are the old rows, and
        // NULL lanes in their layouts take their place
        let dense =
            slots.len() == self.live.len() && slots.iter().enumerate().all(|(i, &s)| i == s);
        let old = match dense {
            true => {
                let nulls = schema_cols(&self.schema, slots.len());
                std::mem::replace(&mut self.cols, nulls)
            }
            false => self.gather(&lanes(slots)),
        };
        if slots.len() == self.live_count {
            self.pk_index.iter_mut().for_each(KeyMap::clear);
            self.secondary.iter_mut().for_each(|s| s.map.clear());
        } else if self.indexed() {
            self.unindex(slots, &|c, i| old[c].value_at(i));
        }
        // a deleted lane is NULL through its validity bit
        for col in self.cols.iter_mut().filter(|_| !dense) {
            slots.iter().for_each(|&slot| col.valid[slot] = false);
            if let ColData::Mixed(v) = &mut col.data {
                slots.iter().for_each(|&slot| v[slot] = Value::Null);
            }
        }
        slots.iter().for_each(|&slot| self.live[slot] = false);
        self.live_count -= slots.len();
        self.refund(rows_bytes(&old, slots.len()));
        Ok(old)
    }

    /// Gives back the slots of a table whose rows were all deleted, so the
    /// next append starts at slot 0 again. Only valid once no undo record
    /// names a slot of this table.
    pub fn reclaim_if_empty(&mut self) {
        if self.live_count == 0 && !self.live.is_empty() {
            self.cols = schema_cols(&self.schema, 0);
            self.live.clear();
        }
    }

    /// Puts rows [`Table::delete_slots`] returned back into their slots
    /// (undo).
    ///
    /// # Panics
    /// Panics if a slot is occupied — undo must replay in reverse order.
    pub fn restore_slots(&mut self, slots: &[usize], old: &[Col]) {
        for (i, &slot) in slots.iter().enumerate() {
            assert!(
                self.live.get(slot) == Some(&false),
                "restore into occupied or out-of-range slot"
            );
            // restores never violate uniqueness: the rows were present before
            self.index(slot, &|c| old[c].value_at(i));
            self.live[slot] = true;
        }
        for (col, src) in self.cols.iter_mut().zip(old) {
            col.scatter(slots, src);
        }
        self.live_count += slots.len();
        // undo replay must never fail, so the limit is not enforced here
        let _ = self.charge(rows_bytes(old, slots.len()), false);
    }

    /// The live slots, in slot order.
    pub fn live_slots(&self) -> impl Iterator<Item = usize> + '_ {
        let live = self.live.iter().enumerate();
        live.filter(|(_, &l)| l).map(|(slot, _)| slot)
    }

    /// [`Table::live_slots`], collected into one allocation.
    pub fn live_slot_vec(&self) -> Vec<usize> {
        let mut slots = Vec::with_capacity(self.live_count);
        slots.extend(self.live_slots());
        slots
    }

    /// Iterates `(slot, row)` over live rows, building each row.
    pub fn iter(&self) -> impl Iterator<Item = (usize, Row)> + '_ {
        self.live_slots()
            .map(|slot| (slot, self.cols.iter().map(|c| c.value_at(slot)).collect()))
    }

    /// Copies all live rows out.
    pub fn scan(&self) -> Vec<Row> {
        self.iter().map(|(_, r)| r).collect()
    }

    /// Column `c`'s lanes, one per slot (a dead slot's are NULL).
    pub fn col(&self, c: usize) -> &Col {
        &self.cols[c]
    }

    /// Every column's lanes `idx` — slots, or [`crate::batch::NO_LANE`]
    /// for a row of NULLs; a dead slot's lanes are NULL too.
    pub fn gather(&self, idx: &[u32]) -> Vec<Col> {
        self.cols.iter().map(|c| c.gather(idx)).collect()
    }

    /// Looks up a slot by primary key, if a PK exists.
    pub fn lookup_pk(&self, key: &Value) -> Option<usize> {
        self.pk_index.as_ref().and_then(|m| m.get(key).copied())
    }

    /// Adds (and builds) a secondary index on `column`.
    ///
    /// # Errors
    /// Returns [`DbError::AlreadyExists`] for duplicate index names and
    /// [`DbError::Invalid`] if existing data violates uniqueness.
    pub fn create_index(&mut self, name: &str, column: usize, unique: bool) -> DbResult<()> {
        if self.secondary.iter().any(|s| s.name == name) {
            return Err(DbError::AlreadyExists(format!("index {name}")));
        }
        let mut idx = SecondaryIndex {
            name: name.to_owned(),
            column,
            unique,
            map: KeyMap::default(),
        };
        for slot in self.live_slots() {
            idx.insert(self.cols[column].value_at(slot), slot)?;
        }
        self.secondary.push(idx);
        Ok(())
    }

    /// Drops a secondary index by name; returns whether it existed.
    pub fn drop_index(&mut self, name: &str) -> bool {
        let before = self.secondary.len();
        self.secondary.retain(|s| s.name != name);
        self.secondary.len() != before
    }

    /// Finds any index (primary or secondary) usable for equality lookups on
    /// `column`; returns the slots matching `key` (`None` = no such index).
    /// Key equality is [`Value`]'s `Eq`, i.e. [`Value::sql_eq`] for
    /// non-NULL keys (`Int 1` finds `Float 1.0`).
    pub fn index_lookup(&self, column: usize, key: &Value) -> Option<&[usize]> {
        if self.schema.primary_key() == Some(column) {
            if let Some(pk) = &self.pk_index {
                return Some(pk.get(key).map(std::slice::from_ref).unwrap_or(&[]));
            }
        }
        self.secondary
            .iter()
            .find(|s| s.column == column)
            .map(|s| s.lookup(key))
    }

    /// The index [`Table::index_lookup`] would use for `column`: its name
    /// and how many distinct keys it holds (`len() / distinct_keys` is the
    /// index fan-out the join planner costs a probe with).
    pub fn index_on(&self, column: usize) -> Option<(&str, usize)> {
        if self.schema.primary_key() == Some(column) {
            if let Some(pk) = &self.pk_index {
                return Some(("primary key", pk.len()));
            }
        }
        self.secondary
            .iter()
            .find(|s| s.column == column)
            .map(|s| (s.name.as_str(), s.map.len()))
    }
}

/// Slots as the `u32` lanes [`Col::gather`] takes.
fn lanes(slots: &[usize]) -> Vec<u32> {
    slots.iter().map(|&s| s as u32).collect()
}

impl Drop for Table {
    fn drop(&mut self) {
        // DROP TABLE releases the table's charge when the last handle goes
        if let Some(b) = &self.budget {
            b.refund(self.tracked_bytes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Column, DataType};

    fn table() -> Table {
        let schema = Schema::new(
            vec![
                Column::new("id", DataType::Int),
                Column::new("v", DataType::Float),
            ],
            Some(0),
        )
        .unwrap();
        Table::new(schema)
    }

    fn cols(rows: Vec<Row>) -> Vec<Col> {
        let arity = rows[0].len();
        let batch = ColumnBatch::from_rows(rows, arity);
        (0..arity).map(|c| batch.col(c).clone()).collect()
    }

    #[test]
    fn insert_scan_roundtrip() {
        let mut t = table();
        t.insert(vec![Value::Int(1), Value::Float(0.5)]).unwrap();
        t.insert(vec![Value::Int(2), Value::Float(1.5)]).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.scan().len(), 2);
    }

    #[test]
    fn duplicate_pk_rejected() {
        let mut t = table();
        t.insert(vec![Value::Int(1), Value::Float(0.0)]).unwrap();
        assert!(t.insert(vec![Value::Int(1), Value::Float(9.9)]).is_err());
        assert!(t.insert(vec![Value::Null, Value::Float(0.0)]).is_err());
    }

    #[test]
    fn update_maintains_pk_index() {
        let mut t = table();
        let s = t.insert(vec![Value::Int(1), Value::Float(0.0)]).unwrap();
        t.update_slots(
            &[s],
            &[0, 1],
            &cols(vec![vec![Value::Int(5), Value::Float(1.0)]]),
            true,
        )
        .unwrap();
        assert_eq!(t.lookup_pk(&Value::Int(5)), Some(s));
        assert_eq!(t.lookup_pk(&Value::Int(1)), None);
        // updating to an existing key fails
        t.insert(vec![Value::Int(7), Value::Float(0.0)]).unwrap();
        let to_seven = cols(vec![vec![Value::Int(7), Value::Float(2.0)]]);
        assert!(t.update_slots(&[s], &[0, 1], &to_seven, true).is_err());
    }

    #[test]
    fn a_failed_batch_leaves_no_trace() {
        let mut t = table();
        t.create_index("u", 1, true).unwrap();
        t.insert(vec![Value::Int(1), Value::Float(10.0)]).unwrap();
        // the second row collides with the unique index after the first
        // row of the batch was admitted
        let batch = ColumnBatch::from_rows(
            vec![
                vec![Value::Int(2), Value::Float(20.0)],
                vec![Value::Int(3), Value::Float(10.0)],
            ],
            2,
        );
        assert!(t.append(&batch).is_err());
        assert_eq!((t.len(), t.slot_count()), (1, 1));
        assert_eq!(t.lookup_pk(&Value::Int(2)), None);
        assert!(t.index_lookup(1, &Value::Float(20.0)).unwrap().is_empty());
        // an update that moves two keys, the second onto a taken one, is
        // undone whole
        let s = t.insert(vec![Value::Int(2), Value::Float(20.0)]).unwrap();
        let moved = cols(vec![
            vec![Value::Int(9), Value::Float(90.0)],
            vec![Value::Int(2), Value::Float(90.0)],
        ]);
        assert!(t.update_slots(&[0, s], &[0, 1], &moved, true).is_err());
        assert_eq!(t.lookup_pk(&Value::Int(1)), Some(0));
        assert_eq!(t.lookup_pk(&Value::Int(9)), None);
        assert_eq!(t.index_lookup(1, &Value::Float(10.0)).unwrap(), &[0]);
        assert_eq!(t.scan()[0], vec![Value::Int(1), Value::Float(10.0)]);
    }

    #[test]
    fn delete_and_restore() {
        let mut t = table();
        let s = t.insert(vec![Value::Int(1), Value::Float(0.0)]).unwrap();
        let old = t.delete_slots(&[s]).unwrap();
        assert_eq!(t.len(), 0);
        assert_eq!(t.lookup_pk(&Value::Int(1)), None);
        assert!(t.delete_slots(&[s]).is_err());
        t.restore_slots(&[s], &old);
        assert_eq!(t.len(), 1);
        assert_eq!(t.lookup_pk(&Value::Int(1)), Some(s));
    }

    #[test]
    fn secondary_index_lookup_and_maintenance() {
        let mut t = table();
        let s1 = t.insert(vec![Value::Int(1), Value::Float(7.0)]).unwrap();
        let s2 = t.insert(vec![Value::Int(2), Value::Float(7.0)]).unwrap();
        t.create_index("idx_v", 1, false).unwrap();
        let slots = t.index_lookup(1, &Value::Float(7.0)).unwrap();
        assert_eq!(slots.len(), 2);
        assert_eq!(t.index_on(1), Some(("idx_v", 1)));
        t.update_slots(
            &[s1],
            &[0, 1],
            &cols(vec![vec![Value::Int(1), Value::Float(8.0)]]),
            true,
        )
        .unwrap();
        assert_eq!(t.index_lookup(1, &Value::Float(7.0)).unwrap(), vec![s2]);
        t.delete_slots(&[s2]).unwrap();
        assert!(t.index_lookup(1, &Value::Float(7.0)).unwrap().is_empty());
    }

    #[test]
    fn unique_secondary_index_enforced() {
        let mut t = table();
        t.insert(vec![Value::Int(1), Value::Float(7.0)]).unwrap();
        t.insert(vec![Value::Int(2), Value::Float(7.0)]).unwrap();
        // building over duplicate data fails
        assert!(t.create_index("u", 1, true).is_err());
    }

    #[test]
    fn deleting_every_row_clears_everything() {
        let mut t = table();
        t.insert(vec![Value::Int(1), Value::Float(0.0)]).unwrap();
        t.insert(vec![Value::Int(2), Value::Float(0.0)]).unwrap();
        t.create_index("i", 1, false).unwrap();
        let old = t.delete_slots(&[0, 1]).unwrap();
        assert!(t.is_empty());
        assert_eq!(t.lookup_pk(&Value::Int(1)), None);
        assert!(t.index_lookup(1, &Value::Float(0.0)).unwrap().is_empty());
        // the rows come back whole, and a later row keeps the typed layout
        t.restore_slots(&[0, 1], &old);
        assert_eq!(t.index_lookup(1, &Value::Float(0.0)).unwrap(), &[0, 1]);
        t.delete_slots(&[0, 1]).unwrap();
        t.insert(vec![Value::Int(3), Value::Float(0.5)]).unwrap();
        assert!(matches!(t.gather(&[2])[1].data, ColData::Float(_)));
        assert_eq!(t.scan(), vec![vec![Value::Int(3), Value::Float(0.5)]]);
    }

    #[test]
    fn budget_charged_and_refunded_through_table_lifecycle() {
        let b = Arc::new(MemoryBudget::new());
        let mut t = table();
        t.insert(vec![Value::Int(1), Value::Float(0.5)]).unwrap();
        t.attach_budget(&b).unwrap();
        let after_attach = b.used();
        assert_eq!(after_attach, crate::budget::row_bytes(&t.scan()[0]));
        let s = t.insert(vec![Value::Int(2), Value::Float(1.5)]).unwrap();
        assert!(b.used() > after_attach);
        t.delete_slots(&[s]).unwrap();
        assert_eq!(b.used(), after_attach);
        t.delete_slots(&[0]).unwrap();
        assert_eq!(b.used(), 0);
        t.insert(vec![Value::Int(3), Value::Float(0.0)]).unwrap();
        drop(t); // dropping the table refunds its remaining charge
        assert_eq!(b.used(), 0);
    }

    #[test]
    fn budget_limit_blocks_insert_and_failed_insert_refunds() {
        let b = Arc::new(MemoryBudget::new());
        b.set_limit(Some(100));
        let mut t = table();
        t.attach_budget(&b).unwrap();
        t.insert(vec![Value::Int(1), Value::Float(0.0)]).unwrap();
        let err = t.insert(vec![Value::Int(2), Value::Float(0.0)]);
        assert!(matches!(err, Err(DbError::BudgetExceeded(_))), "{err:?}");
        // a failed duplicate-key insert refunds its charge too
        b.set_limit(None);
        let used = b.used();
        assert!(t.insert(vec![Value::Int(1), Value::Float(9.9)]).is_err());
        assert_eq!(b.used(), used);
    }

    #[test]
    fn budget_tracks_update_growth_and_shrinkage() {
        let schema = Schema::new(
            vec![
                Column::new("id", DataType::Int),
                Column::new("s", DataType::Text),
            ],
            Some(0),
        )
        .unwrap();
        let mut t = Table::new(schema);
        let b = Arc::new(MemoryBudget::new());
        t.attach_budget(&b).unwrap();
        let slot = t
            .insert(vec![Value::Int(1), Value::Text("x".into())])
            .unwrap();
        let small = b.used();
        let long = cols(vec![vec![Value::Int(1), Value::Text("x".repeat(500))]]);
        t.update_slots(&[slot], &[0, 1], &long, true).unwrap();
        assert_eq!(b.used(), small + 499);
        let short = cols(vec![vec![Value::Int(1), Value::Text("x".into())]]);
        t.update_slots(&[slot], &[0, 1], &short, true).unwrap();
        assert_eq!(b.used(), small);
    }

    #[test]
    fn pk_lookup_via_index_lookup() {
        let mut t = table();
        t.insert(vec![Value::Int(42), Value::Float(0.0)]).unwrap();
        assert_eq!(t.index_on(0), Some(("primary key", 1)));
        assert_eq!(t.index_on(1), None);
        assert_eq!(t.index_lookup(0, &Value::Int(42)).unwrap().len(), 1);
        assert!(t.index_lookup(0, &Value::Int(7)).unwrap().is_empty());
        assert!(t.index_lookup(1, &Value::Float(0.0)).is_none());
    }
}
