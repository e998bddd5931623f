//! Transactions: table-level two-phase locking and undo-based rollback.
//!
//! The engine follows SQLoop's OLAP assumption (paper §IV-C): tables touched
//! by a running iterative query are not concurrently updated, while other
//! tables keep ACID semantics through strict table-granularity 2PL. Locks
//! are *logical* (keyed by table name in the [`LockManager`]) — the physical
//! `RwLock` around each table is only held for the duration of individual
//! scan/mutate operations, so lock acquisition order cannot deadlock with
//! data access.
//!
//! Deadlock handling is timeout-based: an acquisition that cannot proceed
//! within the configured wait budget fails with [`DbError::LockTimeout`],
//! mirroring MySQL's `innodb_lock_wait_timeout` behaviour.

use crate::batch::Col;
use crate::error::{DbError, DbResult};
use crate::stats::Stats;
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, HashSet};
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Lock mode for a table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockMode {
    /// Shared (readers).
    Shared,
    /// Exclusive (single writer, no readers).
    Exclusive,
}

/// Transaction isolation level (JDBC-style).
///
/// With table-granularity strict 2PL, `ReadCommitted` releases read locks at
/// statement end while `Serializable` holds them to commit; both hold write
/// locks to commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IsolationLevel {
    /// Read locks released at statement boundaries.
    #[default]
    ReadCommitted,
    /// Strict 2PL: all locks held until commit/rollback.
    Serializable,
}

#[derive(Debug, Default)]
struct LockState {
    readers: HashSet<u64>,
    writer: Option<u64>,
}

/// Database-wide logical lock table: one entry per table name ever locked,
/// kept while idle, so a statement locking tables it locked before looks
/// them up by `&str` and allocates nothing.
#[derive(Debug, Default)]
pub struct LockManager {
    inner: Mutex<HashMap<Arc<str>, LockState>>,
    cond: Condvar,
}

impl LockManager {
    /// Creates an empty lock manager.
    pub fn new() -> LockManager {
        LockManager::default()
    }

    /// Acquires `mode` on `table` for session `sid`, waiting up to `timeout`.
    ///
    /// Re-entrant: a session holding exclusive may re-acquire either mode; a
    /// session holding shared may upgrade to exclusive once no other readers
    /// remain.
    ///
    /// # Errors
    /// Returns [`DbError::LockTimeout`] when the wait budget elapses.
    pub fn acquire(
        &self,
        sid: u64,
        table: &str,
        mode: LockMode,
        timeout: Duration,
        stats: &Stats,
    ) -> DbResult<()> {
        self.lock(sid, table, mode, timeout, stats).map(drop)
    }

    /// [`LockManager::acquire`], returning the table's name as the lock
    /// table holds it, which a session keeps without copying it.
    pub(crate) fn lock(
        &self,
        sid: u64,
        table: &str,
        mode: LockMode,
        timeout: Duration,
        stats: &Stats,
    ) -> DbResult<Arc<str>> {
        let deadline = Instant::now() + timeout;
        let mut guard = self.inner.lock();
        let name = match guard.get_key_value(table) {
            Some((name, _)) => name.clone(),
            None => {
                let name: Arc<str> = table.into();
                guard.insert(name.clone(), LockState::default());
                name
            }
        };
        let mut waited = false;
        loop {
            let state = guard.get_mut(table).expect("a table's entry stays");
            let granted = match mode {
                LockMode::Shared => state.writer.is_none() || state.writer == Some(sid),
                LockMode::Exclusive => {
                    let no_other_readers = state.readers.is_empty()
                        || (state.readers.len() == 1 && state.readers.contains(&sid));
                    (state.writer.is_none() || state.writer == Some(sid)) && no_other_readers
                }
            };
            if granted {
                match mode {
                    LockMode::Shared => {
                        if state.writer != Some(sid) {
                            state.readers.insert(sid);
                        }
                    }
                    LockMode::Exclusive => {
                        state.readers.remove(&sid);
                        state.writer = Some(sid);
                    }
                }
                if waited {
                    stats.add_lock_waits(1);
                }
                return Ok(name);
            }
            waited = true;
            if self.cond.wait_until(&mut guard, deadline).timed_out() {
                return Err(DbError::LockTimeout(format!(
                    "session {sid} timed out waiting for {mode:?} lock on {table}"
                )));
            }
        }
    }

    /// Releases whatever lock `sid` holds on `table`.
    pub fn release(&self, sid: u64, table: &str) {
        self.release_all(sid, [table]);
    }

    /// Releases every lock held by `sid` on the tables named `tables`; an
    /// entry left idle stays for the next statement.
    pub fn release_all<S: AsRef<str>>(&self, sid: u64, tables: impl IntoIterator<Item = S>) {
        let mut guard = self.inner.lock();
        for table in tables {
            if let Some(state) = guard.get_mut(table.as_ref()) {
                state.readers.remove(&sid);
                if state.writer == Some(sid) {
                    state.writer = None;
                }
            }
        }
        drop(guard);
        self.cond.notify_all();
    }
}

/// One reversible data change: what one statement did to one table.
#[derive(Debug)]
pub enum UndoOp {
    /// Rows were appended in `slots`.
    Insert {
        /// Table name.
        table: String,
        /// Slots of the appended rows.
        slots: Range<usize>,
    },
    /// Columns `cols` of the rows in `slots` were overwritten; lane `i` of
    /// `old` restores `slots[i]`.
    Update {
        /// Table name.
        table: String,
        /// Updated slots.
        slots: Vec<usize>,
        /// The columns the statement assigned.
        cols: Vec<usize>,
        /// Their previous lanes, one column per entry of `cols`.
        old: Vec<Col>,
    },
    /// The rows in `slots` were deleted; lane `i` of `old` restores
    /// `slots[i]`.
    Delete {
        /// Table name.
        table: String,
        /// Deleted slots.
        slots: Vec<usize>,
        /// Previous row contents, one column per table column.
        old: Vec<Col>,
    },
}

/// Ordered log of data changes made by an open transaction.
///
/// Rollback replays the log in reverse. DDL (create/drop/truncate-created
/// structures) is deliberately *not* undoable — like MySQL, DDL implicitly
/// commits (documented engine behaviour).
#[derive(Debug, Default)]
pub struct UndoLog {
    ops: Vec<UndoOp>,
}

impl UndoLog {
    /// Creates an empty log.
    pub fn new() -> UndoLog {
        UndoLog::default()
    }

    /// Appends an operation.
    pub fn push(&mut self, op: UndoOp) {
        self.ops.push(op);
    }

    /// The operation logged last.
    pub fn last_mut(&mut self) -> Option<&mut UndoOp> {
        self.ops.last_mut()
    }

    /// Current length — use with [`UndoLog::split_off`] for statement-level
    /// atomicity marks.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when no changes are logged.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Drops all operations (on commit).
    pub fn clear(&mut self) {
        self.ops.clear();
    }

    /// Splits off and returns the operations at index `mark` and beyond
    /// (newest last) so the caller can roll back just one statement.
    pub fn split_off(&mut self, mark: usize) -> Vec<UndoOp> {
        self.ops.split_off(mark)
    }

    /// Takes the whole log (for full rollback).
    pub fn take_all(&mut self) -> Vec<UndoOp> {
        std::mem::take(&mut self.ops)
    }
}

/// Applies undo operations (newest-first) against the catalog.
///
/// # Errors
/// Propagates storage errors (should not occur for well-formed logs).
pub fn apply_undo(catalog: &crate::catalog::Catalog, ops: Vec<UndoOp>) -> DbResult<()> {
    for op in ops.into_iter().rev() {
        match op {
            UndoOp::Insert { table, slots } => {
                // table may have been dropped by later DDL; ignore then
                if let Ok(handle) = catalog.table(&table) {
                    let mut t = handle.write();
                    let live: Vec<usize> = slots.filter(|&s| t.is_live(s)).collect();
                    t.delete_slots(&live)?;
                }
            }
            UndoOp::Update {
                table,
                slots,
                cols,
                old,
            } => {
                if let Ok(handle) = catalog.table(&table) {
                    // the rows were written in order, each into a state the
                    // ones before it left, so they go back newest first
                    let back: Vec<u32> = (0..slots.len() as u32).rev().collect();
                    let old: Vec<Col> = old.iter().map(|c| c.gather(&back)).collect();
                    let slots: Vec<usize> = slots.into_iter().rev().collect();
                    handle.write().update_slots(&slots, &cols, &old, false)?;
                }
            }
            UndoOp::Delete { table, slots, old } => {
                if let Ok(handle) = catalog.table(&table) {
                    handle.write().restore_slots(&slots, &old);
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn quick(lm: &LockManager, sid: u64, t: &str, m: LockMode) -> DbResult<()> {
        lm.acquire(sid, t, m, Duration::from_millis(50), &Stats::new())
    }

    #[test]
    fn shared_locks_are_compatible() {
        let lm = LockManager::new();
        quick(&lm, 1, "t", LockMode::Shared).unwrap();
        quick(&lm, 2, "t", LockMode::Shared).unwrap();
    }

    #[test]
    fn exclusive_blocks_others() {
        let lm = LockManager::new();
        quick(&lm, 1, "t", LockMode::Exclusive).unwrap();
        assert!(matches!(
            quick(&lm, 2, "t", LockMode::Shared),
            Err(DbError::LockTimeout(_))
        ));
        assert!(matches!(
            quick(&lm, 2, "t", LockMode::Exclusive),
            Err(DbError::LockTimeout(_))
        ));
        lm.release(1, "t");
        quick(&lm, 2, "t", LockMode::Exclusive).unwrap();
    }

    #[test]
    fn reentrant_and_upgrade() {
        let lm = LockManager::new();
        quick(&lm, 1, "t", LockMode::Shared).unwrap();
        // sole reader may upgrade
        quick(&lm, 1, "t", LockMode::Exclusive).unwrap();
        // holder of exclusive may re-acquire shared without downgrading
        quick(&lm, 1, "t", LockMode::Shared).unwrap();
        assert!(quick(&lm, 2, "t", LockMode::Shared).is_err());
    }

    #[test]
    fn upgrade_blocked_by_other_reader() {
        let lm = LockManager::new();
        quick(&lm, 1, "t", LockMode::Shared).unwrap();
        quick(&lm, 2, "t", LockMode::Shared).unwrap();
        assert!(quick(&lm, 1, "t", LockMode::Exclusive).is_err());
    }

    #[test]
    fn waiting_thread_wakes_on_release() {
        let lm = Arc::new(LockManager::new());
        let stats = Arc::new(Stats::new());
        quick(&lm, 1, "t", LockMode::Exclusive).unwrap();
        let lm2 = lm.clone();
        let stats2 = stats.clone();
        let handle = std::thread::spawn(move || {
            lm2.acquire(2, "t", LockMode::Exclusive, Duration::from_secs(5), &stats2)
        });
        std::thread::sleep(Duration::from_millis(20));
        lm.release(1, "t");
        handle.join().unwrap().unwrap();
        assert_eq!(stats.snapshot().lock_waits, 1);
    }

    #[test]
    fn release_all() {
        let lm = LockManager::new();
        quick(&lm, 1, "a", LockMode::Exclusive).unwrap();
        quick(&lm, 1, "b", LockMode::Shared).unwrap();
        let mut held = HashSet::new();
        held.insert("a".to_string());
        held.insert("b".to_string());
        lm.release_all(1, &held);
        quick(&lm, 2, "a", LockMode::Exclusive).unwrap();
        quick(&lm, 2, "b", LockMode::Exclusive).unwrap();
    }

    #[test]
    fn undo_log_marks() {
        let mut log = UndoLog::new();
        log.push(UndoOp::Insert {
            table: "t".into(),
            slots: 0..1,
        });
        let mark = log.len();
        log.push(UndoOp::Insert {
            table: "t".into(),
            slots: 1..2,
        });
        let tail = log.split_off(mark);
        assert_eq!(tail.len(), 1);
        assert_eq!(log.len(), 1);
        assert!(!log.is_empty());
        log.clear();
        assert!(log.is_empty());
    }
}
