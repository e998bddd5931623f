//! In-memory heap storage with primary-key and secondary indexes.

use crate::batch::{ColumnBatch, RowsBuilder};
use crate::budget::{row_bytes, MemoryBudget};
use crate::error::{DbError, DbResult};
use crate::types::Schema;
use crate::value::{Row, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// A heap table: slotted rows plus indexes.
///
/// Row slots are stable across updates; deletes tombstone the slot. The
/// primary-key index (present when the schema declares a PK) maps key value →
/// slot and enforces uniqueness, matching the `Rid` assumption SQLoop relies
/// on for partitioning and updating the CTE table.
#[derive(Debug)]
pub struct Table {
    schema: Schema,
    rows: Vec<Option<Row>>,
    live_count: usize,
    pk_index: Option<HashMap<Value, usize>>,
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
    map: HashMap<Value, Vec<usize>>,
}

impl SecondaryIndex {
    fn insert(&mut self, key: Value, slot: usize) -> DbResult<()> {
        let entry = self.map.entry(key).or_default();
        if self.unique && !entry.is_empty() {
            return Err(DbError::Invalid(format!(
                "unique index {} violated",
                self.name
            )));
        }
        entry.push(slot);
        Ok(())
    }

    fn remove(&mut self, key: &Value, slot: usize) {
        if let Some(v) = self.map.get_mut(key) {
            v.retain(|s| *s != slot);
            if v.is_empty() {
                self.map.remove(key);
            }
        }
    }

    /// Slots whose indexed column equals `key`.
    pub fn lookup(&self, key: &Value) -> &[usize] {
        self.map.get(key).map(|v| v.as_slice()).unwrap_or(&[])
    }
}

impl Table {
    /// Creates an empty table for `schema`.
    pub fn new(schema: Schema) -> Table {
        let pk_index = schema.primary_key().map(|_| HashMap::new());
        Table {
            schema,
            rows: Vec::new(),
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
    /// fit; the partial charge is refunded and the table stays detached.
    pub fn attach_budget(&mut self, budget: &Arc<MemoryBudget>) -> DbResult<()> {
        let mut charged = 0u64;
        for (_, row) in self.iter() {
            let n = row_bytes(row);
            if let Err(e) = budget.charge(n) {
                budget.refund(charged);
                return Err(e);
            }
            charged += n;
        }
        self.budget = Some(budget.clone());
        self.tracked_bytes = charged;
        Ok(())
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
        self.rows.len()
    }

    /// Inserts a row (already coerced to the schema), returning its slot.
    ///
    /// # Errors
    /// Returns [`DbError::Invalid`] on primary-key or unique-index violation,
    /// or a NULL primary key.
    pub fn insert(&mut self, row: Row) -> DbResult<usize> {
        debug_assert_eq!(row.len(), self.schema.arity());
        let charge = match &self.budget {
            Some(b) => {
                let n = row_bytes(&row);
                b.charge(n)?;
                n
            }
            None => 0,
        };
        match self.insert_inner(row) {
            Ok(slot) => {
                self.tracked_bytes += charge;
                Ok(slot)
            }
            Err(e) => {
                if let Some(b) = &self.budget {
                    b.refund(charge);
                }
                Err(e)
            }
        }
    }

    fn insert_inner(&mut self, row: Row) -> DbResult<usize> {
        let slot = self.rows.len();
        if let (Some(pk_col), Some(idx)) = (self.schema.primary_key(), self.pk_index.as_mut()) {
            let key = row[pk_col].clone();
            if key.is_null() {
                return Err(DbError::Invalid("primary key cannot be NULL".into()));
            }
            if idx.contains_key(&key) {
                return Err(DbError::Invalid(format!("duplicate primary key {key}")));
            }
            idx.insert(key, slot);
        }
        for sec in &mut self.secondary {
            sec.insert(row[sec.column].clone(), slot)?;
        }
        self.rows.push(Some(row));
        self.live_count += 1;
        Ok(slot)
    }

    /// Reads the row at `slot` if live.
    pub fn row(&self, slot: usize) -> Option<&Row> {
        self.rows.get(slot).and_then(|r| r.as_ref())
    }

    /// Replaces the row at `slot`, maintaining all indexes.
    ///
    /// Returns the previous row.
    ///
    /// # Errors
    /// Returns [`DbError::Invalid`] when the slot is dead, or the new row
    /// violates the primary key or a unique index.
    pub fn update_slot(&mut self, slot: usize, new_row: Row) -> DbResult<Row> {
        debug_assert_eq!(new_row.len(), self.schema.arity());
        let old = self
            .rows
            .get(slot)
            .and_then(|r| r.clone())
            .ok_or_else(|| DbError::Invalid(format!("update of dead slot {slot}")))?;
        let (grow, shrink) = match &self.budget {
            Some(b) => {
                let nb = row_bytes(&new_row);
                let ob = row_bytes(&old);
                if nb > ob {
                    b.charge(nb - ob)?;
                    (nb - ob, 0)
                } else {
                    (0, ob - nb)
                }
            }
            None => (0, 0),
        };
        match self.update_slot_inner(slot, new_row, &old) {
            Ok(()) => {
                self.tracked_bytes = self.tracked_bytes + grow - shrink;
                if shrink > 0 {
                    if let Some(b) = &self.budget {
                        b.refund(shrink);
                    }
                }
                Ok(old)
            }
            Err(e) => {
                if grow > 0 {
                    if let Some(b) = &self.budget {
                        b.refund(grow);
                    }
                }
                Err(e)
            }
        }
    }

    fn update_slot_inner(&mut self, slot: usize, new_row: Row, old: &Row) -> DbResult<()> {
        if let (Some(pk_col), Some(idx)) = (self.schema.primary_key(), self.pk_index.as_mut()) {
            let old_key = &old[pk_col];
            let new_key = &new_row[pk_col];
            if old_key != new_key {
                if new_key.is_null() {
                    return Err(DbError::Invalid("primary key cannot be NULL".into()));
                }
                if idx.contains_key(new_key) {
                    return Err(DbError::Invalid(format!("duplicate primary key {new_key}")));
                }
                idx.remove(old_key);
                idx.insert(new_key.clone(), slot);
            }
        }
        for sec in &mut self.secondary {
            let old_key = &old[sec.column];
            let new_key = &new_row[sec.column];
            if old_key != new_key {
                sec.remove(old_key, slot);
                sec.insert(new_key.clone(), slot)?;
            }
        }
        self.rows[slot] = Some(new_row);
        Ok(())
    }

    /// Tombstones the row at `slot`, returning it.
    ///
    /// # Errors
    /// Returns [`DbError::Invalid`] when the slot is already dead.
    pub fn delete_slot(&mut self, slot: usize) -> DbResult<Row> {
        let old = self
            .rows
            .get(slot)
            .and_then(|r| r.clone())
            .ok_or_else(|| DbError::Invalid(format!("delete of dead slot {slot}")))?;
        if let (Some(pk_col), Some(idx)) = (self.schema.primary_key(), self.pk_index.as_mut()) {
            idx.remove(&old[pk_col]);
        }
        for sec in &mut self.secondary {
            sec.remove(&old[sec.column], slot);
        }
        self.rows[slot] = None;
        self.live_count -= 1;
        if let Some(b) = &self.budget {
            let n = row_bytes(&old);
            b.refund(n);
            self.tracked_bytes = self.tracked_bytes.saturating_sub(n);
        }
        Ok(old)
    }

    /// Restores a previously deleted row into its original slot (undo).
    ///
    /// # Panics
    /// Panics if the slot is occupied — undo must replay in reverse order.
    pub fn restore_slot(&mut self, slot: usize, row: Row) {
        assert!(
            self.rows.get(slot).map(|r| r.is_none()).unwrap_or(false),
            "restore into occupied or out-of-range slot"
        );
        if let (Some(pk_col), Some(idx)) = (self.schema.primary_key(), self.pk_index.as_mut()) {
            idx.insert(row[pk_col].clone(), slot);
        }
        for sec in &mut self.secondary {
            // restores never violate uniqueness: the row was present before
            let _ = sec.insert(row[sec.column].clone(), slot);
        }
        // undo replay must never fail, so the limit is not enforced here
        if let Some(b) = &self.budget {
            let n = row_bytes(&row);
            b.charge_unchecked(n);
            self.tracked_bytes += n;
        }
        self.rows[slot] = Some(row);
        self.live_count += 1;
    }

    /// Iterates `(slot, row)` over live rows.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &Row)> {
        self.rows
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.as_ref().map(|row| (i, row)))
    }

    /// Copies all live rows out.
    pub fn scan(&self) -> Vec<Row> {
        self.iter().map(|(_, r)| r.clone()).collect()
    }

    /// Reads `rows` — live `(slot, row)`s of this table, e.g. [`Table::iter`]
    /// or what an index seek returns — into column batches of at most
    /// `batch_size` lanes. Every value goes straight into a lane vector of
    /// its column's declared type; with `slots`, each batch ends in an `Int`
    /// column holding the rows' slots.
    pub fn read_batches<'a>(
        &self,
        rows: impl Iterator<Item = (usize, &'a Row)>,
        slots: bool,
        batch_size: usize,
    ) -> Vec<ColumnBatch> {
        let batch_size = batch_size.max(1);
        let capacity = rows.size_hint().1.unwrap_or(0).min(batch_size);
        let mut rows = rows.peekable();
        let mut out = Vec::new();
        while rows.peek().is_some() {
            let mut builder = RowsBuilder::new(&self.schema, slots, capacity);
            let mut lanes = 0;
            for (slot, row) in rows.by_ref().take(batch_size) {
                builder.push(slot, row);
                lanes += 1;
            }
            out.push(ColumnBatch::from_cols(builder.finish(), lanes));
        }
        out
    }

    /// Looks up a slot by primary key, if a PK exists.
    pub fn lookup_pk(&self, key: &Value) -> Option<usize> {
        self.pk_index.as_ref().and_then(|m| m.get(key).copied())
    }

    /// Removes every row.
    pub fn truncate(&mut self) {
        if let Some(b) = &self.budget {
            b.refund(self.tracked_bytes);
            self.tracked_bytes = 0;
        }
        self.rows.clear();
        self.live_count = 0;
        if let Some(idx) = self.pk_index.as_mut() {
            idx.clear();
        }
        for sec in &mut self.secondary {
            sec.map.clear();
        }
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
            map: HashMap::new(),
        };
        for (slot, row) in self.rows.iter().enumerate() {
            if let Some(r) = row {
                idx.insert(r[column].clone(), slot)?;
            }
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

    /// Bytes this table currently has charged against its budget.
    pub fn tracked_bytes(&self) -> u64 {
        self.tracked_bytes
    }
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
    use crate::batch::ColData;
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

    #[test]
    fn insert_scan_roundtrip() {
        let mut t = table();
        t.insert(vec![Value::Int(1), Value::Float(0.5)]).unwrap();
        t.insert(vec![Value::Int(2), Value::Float(1.5)]).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.scan().len(), 2);
    }

    #[test]
    fn read_batches_matches_scan_in_slot_order() {
        let mut t = table();
        for i in 0..7 {
            t.insert(vec![Value::Int(i), Value::Float(i as f64 / 2.0)])
                .unwrap();
        }
        t.delete_slot(2).unwrap();
        let batches = t.read_batches(t.iter(), true, 3);
        assert_eq!(
            batches.iter().map(|b| b.len()).collect::<Vec<_>>(),
            vec![3, 3]
        );
        // columns arrive in their declared layout, slots last
        assert!(matches!(batches[0].col(0).data, ColData::Int(_)));
        assert!(matches!(batches[0].col(1).data, ColData::Float(_)));
        let mut rows = Vec::new();
        for b in &batches {
            b.append_rows_to(&mut rows);
        }
        let with_slots: Vec<Row> = t
            .iter()
            .map(|(slot, row)| [row.as_slice(), &[Value::Int(slot as i64)]].concat())
            .collect();
        assert_eq!(rows, with_slots);
        assert_eq!(rows[2][2], Value::Int(3), "slot 2 is a tombstone");
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
        t.update_slot(s, vec![Value::Int(5), Value::Float(1.0)])
            .unwrap();
        assert_eq!(t.lookup_pk(&Value::Int(5)), Some(s));
        assert_eq!(t.lookup_pk(&Value::Int(1)), None);
        // updating to an existing key fails
        t.insert(vec![Value::Int(7), Value::Float(0.0)]).unwrap();
        assert!(t
            .update_slot(s, vec![Value::Int(7), Value::Float(2.0)])
            .is_err());
    }

    #[test]
    fn delete_and_restore() {
        let mut t = table();
        let s = t.insert(vec![Value::Int(1), Value::Float(0.0)]).unwrap();
        let old = t.delete_slot(s).unwrap();
        assert_eq!(t.len(), 0);
        assert_eq!(t.lookup_pk(&Value::Int(1)), None);
        t.restore_slot(s, old);
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
        t.update_slot(s1, vec![Value::Int(1), Value::Float(8.0)])
            .unwrap();
        assert_eq!(t.index_lookup(1, &Value::Float(7.0)).unwrap(), vec![s2]);
        t.delete_slot(s2).unwrap();
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
    fn truncate_clears_everything() {
        let mut t = table();
        t.insert(vec![Value::Int(1), Value::Float(0.0)]).unwrap();
        t.create_index("i", 1, false).unwrap();
        t.truncate();
        assert!(t.is_empty());
        assert_eq!(t.lookup_pk(&Value::Int(1)), None);
        assert!(t.index_lookup(1, &Value::Float(0.0)).unwrap().is_empty());
    }

    #[test]
    fn budget_charged_and_refunded_through_table_lifecycle() {
        let b = Arc::new(MemoryBudget::new());
        let mut t = table();
        t.insert(vec![Value::Int(1), Value::Float(0.5)]).unwrap();
        t.attach_budget(&b).unwrap();
        let after_attach = b.used();
        assert!(after_attach > 0);
        let s = t.insert(vec![Value::Int(2), Value::Float(1.5)]).unwrap();
        assert!(b.used() > after_attach);
        t.delete_slot(s).unwrap();
        assert_eq!(b.used(), after_attach);
        t.truncate();
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
        t.update_slot(slot, vec![Value::Int(1), Value::Text("x".repeat(500))])
            .unwrap();
        assert_eq!(b.used(), small + 499);
        t.update_slot(slot, vec![Value::Int(1), Value::Text("x".into())])
            .unwrap();
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
