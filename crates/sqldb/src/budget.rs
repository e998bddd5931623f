//! Byte-accounted memory budget shared by every table of a database.
//!
//! Accounting is approximate but conservative and self-consistent: the
//! same estimator ([`row_bytes`]) is used for charges and refunds, so the
//! tracked total returns to zero when all tracked rows are gone. The
//! budget is enforced at the charge sites in `storage.rs` (row inserts
//! and in-place growth) and `join.rs` (every batch of a `FROM` output), and
//! a failed charge surfaces as [`DbError::BudgetExceeded`] so the
//! statement rolls back atomically and refunds everything it charged.

use crate::error::{DbError, DbResult};
use crate::value::Value;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Fixed per-row bookkeeping overhead (slot option + vec headers).
pub(crate) const ROW_OVERHEAD: u64 = 24;

/// Estimated heap bytes held by one row.
pub fn row_bytes(row: &[Value]) -> u64 {
    ROW_OVERHEAD + row.iter().map(value_bytes).sum::<u64>()
}

/// Estimated heap bytes one value of a row adds to [`row_bytes`].
pub fn value_bytes(v: &Value) -> u64 {
    match v {
        Value::Null => 8,
        Value::Int(_) | Value::Float(_) => 16,
        Value::Bool(_) => 8,
        Value::Text(s) => 24 + s.len() as u64,
    }
}

/// An atomic byte-accounting budget with an optional hard limit.
///
/// `limit == 0` means unlimited (charges always succeed but are still
/// tracked, so peak usage is observable even without enforcement).
#[derive(Debug, Default)]
pub struct MemoryBudget {
    used: AtomicU64,
    peak: AtomicU64,
    limit: AtomicU64,
    exceeded: AtomicU64,
}

impl MemoryBudget {
    /// An unlimited budget.
    pub fn new() -> MemoryBudget {
        MemoryBudget::default()
    }

    /// Sets (or clears, with `None`/`Some(0)`) the hard byte limit.
    pub fn set_limit(&self, limit: Option<u64>) {
        self.limit.store(limit.unwrap_or(0), Ordering::Relaxed);
    }

    /// The hard limit, if one is set.
    pub fn limit(&self) -> Option<u64> {
        match self.limit.load(Ordering::Relaxed) {
            0 => None,
            n => Some(n),
        }
    }

    /// Bytes currently charged.
    pub fn used(&self) -> u64 {
        self.used.load(Ordering::Relaxed)
    }

    /// High-water mark of charged bytes.
    pub fn peak(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }

    /// Charges refused because they would have crossed the limit.
    pub fn exceeded(&self) -> u64 {
        self.exceeded.load(Ordering::Relaxed)
    }

    /// Charges `bytes` against the budget.
    ///
    /// # Errors
    /// Returns [`DbError::BudgetExceeded`] (and leaves the accounting
    /// unchanged) when the charge would cross the limit.
    pub fn charge(&self, bytes: u64) -> DbResult<()> {
        let limit = self.limit.load(Ordering::Relaxed);
        let prev = self.used.fetch_add(bytes, Ordering::Relaxed);
        let now = prev + bytes;
        if limit != 0 && now > limit {
            self.used.fetch_sub(bytes, Ordering::Relaxed);
            self.exceeded.fetch_add(1, Ordering::Relaxed);
            return Err(DbError::BudgetExceeded(format!(
                "memory limit {limit} bytes: {prev} in use, {bytes} more requested"
            )));
        }
        self.note_usage(now);
        Ok(())
    }

    /// Charges without enforcing the limit (undo paths must never fail).
    pub fn charge_unchecked(&self, bytes: u64) {
        let now = self.used.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.note_usage(now);
    }

    /// Returns `bytes` to the budget (saturating at zero).
    pub fn refund(&self, bytes: u64) {
        let prev = self.used.fetch_sub(bytes, Ordering::Relaxed);
        // a saturation here means charge/refund sites are unbalanced
        debug_assert!(prev >= bytes, "memory budget refund underflow");
        if prev < bytes {
            self.used.store(0, Ordering::Relaxed);
        }
    }

    /// A guard that refunds, when dropped, whatever [`Reservation::grow`]
    /// has charged into it — used for transient materializations (a `FROM`
    /// output, one batch at a time) whose lifetime is one statement.
    pub fn reservation(self: &Arc<Self>) -> Reservation {
        Reservation {
            budget: self.clone(),
            bytes: 0,
        }
    }

    fn note_usage(&self, now: u64) {
        // a store only when the mark moves
        if now > self.peak.load(Ordering::Relaxed) {
            self.peak.fetch_max(now, Ordering::Relaxed);
        }
    }
}

/// A charge that refunds itself when dropped.
#[derive(Debug)]
pub struct Reservation {
    budget: Arc<MemoryBudget>,
    bytes: u64,
}

impl Reservation {
    /// Charges `bytes` more; they are refunded with the rest on drop.
    ///
    /// # Errors
    /// Returns [`DbError::BudgetExceeded`] (holding what it held before)
    /// when the charge would cross the limit.
    pub fn grow(&mut self, bytes: u64) -> DbResult<()> {
        self.budget.charge(bytes)?;
        self.bytes += bytes;
        Ok(())
    }

    /// Refunds `bytes` of what it holds now, as they stop being used.
    pub fn shrink(&mut self, bytes: u64) {
        let bytes = bytes.min(self.bytes);
        self.budget.refund(bytes);
        self.bytes -= bytes;
    }
}

impl Drop for Reservation {
    fn drop(&mut self) {
        self.budget.refund(self.bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_tracks_usage_and_peak() {
        let b = MemoryBudget::new();
        b.charge(100).unwrap();
        b.charge(50).unwrap();
        assert_eq!(b.used(), 150);
        b.refund(120);
        assert_eq!(b.used(), 30);
        assert_eq!(b.peak(), 150);
        assert_eq!(b.limit(), None);
    }

    #[test]
    fn limit_enforced_and_failed_charge_leaves_accounting_intact() {
        let b = MemoryBudget::new();
        b.set_limit(Some(100));
        b.charge(80).unwrap();
        let err = b.charge(30);
        assert!(matches!(err, Err(DbError::BudgetExceeded(_))), "{err:?}");
        assert_eq!(b.used(), 80);
        // raising the limit lets the same charge through
        b.set_limit(Some(200));
        b.charge(30).unwrap();
        assert_eq!(b.used(), 110);
    }

    #[test]
    fn reservation_refunds_on_drop() {
        let b = Arc::new(MemoryBudget::new());
        b.set_limit(Some(100));
        {
            let mut held = b.reservation();
            held.grow(90).unwrap();
            assert_eq!(b.used(), 90);
            assert!(b.reservation().grow(20).is_err());
        }
        assert_eq!(b.used(), 0);
        // a reservation grows charge by charge and refunds the sum
        let mut r = b.reservation();
        r.grow(60).unwrap();
        assert!(r.grow(50).is_err());
        r.grow(40).unwrap();
        assert_eq!(b.used(), 100);
        drop(r);
        assert_eq!(b.used(), 0);
    }

    #[test]
    fn row_bytes_estimates() {
        let small = row_bytes(&[Value::Int(1), Value::Null]);
        let big = row_bytes(&[Value::Int(1), Value::Text("x".repeat(1000))]);
        assert!(big > small + 900);
    }

    #[test]
    fn concurrent_charges_balance() {
        let b = Arc::new(MemoryBudget::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let b = b.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        b.charge(16).unwrap();
                        b.refund(16);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(b.used(), 0);
    }
}
