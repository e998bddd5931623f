//! `pg_stat_statements`-style statement digests and a slow-statement log.
//!
//! A *digest* is SQL text normalized into a statement family: literals
//! become `?`, digit runs inside identifiers become `N`, case and
//! whitespace are canonicalized. That second rule is what makes the
//! SQLoop schedulers legible — the parallel modes mint round-unique
//! message tables (`pr__msg_3_17`), so raw-text grouping would show
//! thousands of one-off statements where there are really only a handful
//! of families. `pr__msg_3_17` and `pr__msg_4_2` both normalize to
//! `pr__msg_n_n`, and the digest table can then attribute plan-cache
//! misses to the family, not the instance (ROADMAP Open item 1).
//!
//! Collection is bounded: at most [`DIGEST_CAPACITY`] families are
//! tracked, evicting the family with the fewest calls when full. Digests
//! are always collected. The slow log is a fixed ring, off until a
//! threshold arms it, so its disarmed cost is one relaxed load per
//! statement.

use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};

/// Maximum number of distinct statement families tracked per database.
pub const DIGEST_CAPACITY: usize = 512;

/// Maximum entries retained by the slow-statement ring.
pub const SLOW_LOG_CAPACITY: usize = 128;

/// Normalizes SQL text into its statement-family digest.
///
/// Rules: string and numeric literals become `?`; digit runs inside
/// identifiers become `n` (folding round-unique table names into one
/// family); everything outside string literals is lowercased; whitespace
/// collapses to single spaces.
///
/// # Examples
/// ```
/// assert_eq!(
///     sqldb::normalize_sql("INSERT INTO pr__msg_3_17 SELECT * FROM e WHERE w > 0.5"),
///     "insert into pr__msg_n_n select * from e where w > ?"
/// );
/// ```
pub fn normalize_sql(sql: &str) -> String {
    let b = sql.as_bytes();
    let mut out = String::with_capacity(sql.len());
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        if c.is_ascii_whitespace() {
            while i < b.len() && b[i].is_ascii_whitespace() {
                i += 1;
            }
            if !out.is_empty() && i < b.len() {
                out.push(' ');
            }
        } else if c == b'\'' {
            // string literal with '' escaping
            i += 1;
            while i < b.len() {
                if b[i] == b'\'' {
                    if b.get(i + 1) == Some(&b'\'') {
                        i += 2;
                        continue;
                    }
                    i += 1;
                    break;
                }
                i += 1;
            }
            out.push('?');
        } else if c.is_ascii_digit() {
            // numeric literal (we are not inside an identifier: that
            // branch consumes its own digits below)
            i += 1;
            while i < b.len() && (b[i].is_ascii_digit() || b[i] == b'.') {
                i += 1;
            }
            if i < b.len() && (b[i] == b'e' || b[i] == b'E') {
                let mut j = i + 1;
                if j < b.len() && (b[j] == b'+' || b[j] == b'-') {
                    j += 1;
                }
                if j < b.len() && b[j].is_ascii_digit() {
                    i = j;
                    while i < b.len() && b[i].is_ascii_digit() {
                        i += 1;
                    }
                }
            }
            out.push('?');
        } else if c.is_ascii_alphabetic() || c == b'_' {
            // identifier or keyword: lowercase, digit runs fold to `n`
            while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                if b[i].is_ascii_digit() {
                    out.push('n');
                    while i < b.len() && b[i].is_ascii_digit() {
                        i += 1;
                    }
                } else {
                    out.push(b[i].to_ascii_lowercase() as char);
                    i += 1;
                }
            }
        } else {
            out.push(c as char);
            i += 1;
        }
    }
    out
}

/// Aggregated execution statistics for one statement family.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DigestEntry {
    /// The normalized statement text ([`normalize_sql`]).
    pub digest: String,
    /// Executions observed (successful or failed).
    pub calls: u64,
    /// Executions that returned an error.
    pub errors: u64,
    /// Total execution time across calls, microseconds.
    pub total_us: u64,
    /// Slowest single call, microseconds.
    pub max_us: u64,
    /// Rows returned (queries) or affected (DML) across calls.
    pub rows: u64,
    /// Executions served by a cached plan.
    pub plan_hits: u64,
    /// Executions that required a fresh parse of a cacheable statement.
    pub plan_misses: u64,
    /// One raw SQL text from this family (first observed).
    pub sample: String,
}

impl DigestEntry {
    /// Adds one execution to the family.
    fn count(&mut self, elapsed_us: u64, rows: u64, error: bool, plan_hit: Option<bool>) {
        self.calls += 1;
        self.errors += u64::from(error);
        self.total_us += elapsed_us;
        self.max_us = self.max_us.max(elapsed_us);
        self.rows += rows;
        match plan_hit {
            Some(true) => self.plan_hits += 1,
            Some(false) => self.plan_misses += 1,
            None => {}
        }
    }

    /// Mean execution time in microseconds (0 when no calls).
    pub fn mean_us(&self) -> u64 {
        self.total_us.checked_div(self.calls).unwrap_or(0)
    }
}

/// Bounded digest table: statement family → [`DigestEntry`].
#[derive(Debug, Default)]
pub struct DigestStats {
    entries: Mutex<HashMap<String, DigestEntry>>,
}

impl DigestStats {
    /// Creates an empty table.
    pub fn new() -> DigestStats {
        DigestStats::default()
    }

    /// Records one execution of `sql`. `plan_hit` is `Some(true)` for a
    /// plan-cache hit, `Some(false)` for a fresh parse of a cacheable
    /// statement, `None` for uncacheable statements. `digest` may be
    /// precomputed (prepared statements) to skip re-normalization.
    pub fn record(
        &self,
        digest: Option<&str>,
        sql: &str,
        elapsed_us: u64,
        rows: u64,
        error: bool,
        plan_hit: Option<bool>,
    ) {
        let owned;
        let digest = match digest {
            Some(d) => d,
            None => {
                owned = normalize_sql(sql);
                &owned
            }
        };
        let mut entries = self.entries.lock();
        if let Some(e) = entries.get_mut(digest) {
            e.count(elapsed_us, rows, error, plan_hit);
            return;
        }
        if entries.len() >= DIGEST_CAPACITY {
            // evict the family with the fewest calls (ties: first found)
            if let Some(victim) = entries
                .iter()
                .min_by_key(|(_, e)| e.calls)
                .map(|(k, _)| k.clone())
            {
                entries.remove(&victim);
            }
        }
        let mut sample = sql.to_owned();
        // cap samples so a pathological statement can't bloat reports
        if sample.len() > 512 {
            sample.truncate(512);
        }
        let mut e = DigestEntry {
            digest: digest.to_owned(),
            sample,
            ..DigestEntry::default()
        };
        e.count(elapsed_us, rows, error, plan_hit);
        entries.insert(digest.to_owned(), e);
    }

    /// All entries, sorted by total time descending (digest text breaks
    /// ties), so reports are deterministic.
    pub fn snapshot(&self) -> Vec<DigestEntry> {
        let mut v: Vec<DigestEntry> = self.entries.lock().values().cloned().collect();
        v.sort_by(|a, b| {
            b.total_us
                .cmp(&a.total_us)
                .then_with(|| a.digest.cmp(&b.digest))
        });
        v
    }

    /// Entries sorted by plan-cache misses descending — the miss
    /// attribution view: which families are being re-parsed.
    pub fn top_misses(&self, k: usize) -> Vec<DigestEntry> {
        let mut v: Vec<DigestEntry> = self.entries.lock().values().cloned().collect();
        v.sort_by(|a, b| {
            b.plan_misses
                .cmp(&a.plan_misses)
                .then_with(|| a.digest.cmp(&b.digest))
        });
        v.truncate(k);
        v
    }

    /// Drops every entry.
    pub fn reset(&self) {
        self.entries.lock().clear();
    }
}

/// One retained slow-statement record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowStatement {
    /// Monotonic sequence number of this record (gaps = sampled out).
    pub seq: u64,
    /// The raw SQL text (capped at 512 bytes).
    pub sql: String,
    /// Execution time in microseconds.
    pub elapsed_us: u64,
    /// Rows returned or affected.
    pub rows: u64,
}

/// Threshold + sampling slow-statement ring buffer.
///
/// Off by default (`threshold_us == 0`). With `sample_every == n`, every
/// n-th statement over the threshold is retained — sampling keeps a hot
/// loop that suddenly crosses the threshold from flooding the ring.
#[derive(Debug, Default)]
pub struct SlowLog {
    threshold_us: AtomicU64,
    sample_every: AtomicU64,
    over_threshold: AtomicU64,
    ring: Mutex<VecDeque<SlowStatement>>,
}

impl SlowLog {
    /// Sets the threshold (0 disables) and sampling rate (clamped to ≥ 1).
    pub fn configure(&self, threshold_us: u64, sample_every: u64) {
        self.threshold_us.store(threshold_us, Ordering::Relaxed);
        self.sample_every
            .store(sample_every.max(1), Ordering::Relaxed);
    }

    /// Current `(threshold_us, sample_every)`.
    pub fn config(&self) -> (u64, u64) {
        (
            self.threshold_us.load(Ordering::Relaxed),
            self.sample_every.load(Ordering::Relaxed).max(1),
        )
    }

    /// Statements that crossed the threshold (sampled or not).
    pub fn over_threshold(&self) -> u64 {
        self.over_threshold.load(Ordering::Relaxed)
    }

    /// Records a statement if it crosses the threshold and wins sampling.
    #[inline]
    pub fn record(&self, sql: &str, elapsed_us: u64, rows: u64) {
        let threshold = self.threshold_us.load(Ordering::Relaxed);
        if threshold == 0 || elapsed_us < threshold {
            return;
        }
        let n = self.over_threshold.fetch_add(1, Ordering::Relaxed);
        let every = self.sample_every.load(Ordering::Relaxed).max(1);
        if !n.is_multiple_of(every) {
            return;
        }
        let mut sql = sql.to_owned();
        if sql.len() > 512 {
            sql.truncate(512);
        }
        let mut ring = self.ring.lock();
        if ring.len() >= SLOW_LOG_CAPACITY {
            ring.pop_front();
        }
        ring.push_back(SlowStatement {
            seq: n,
            sql,
            elapsed_us,
            rows,
        });
    }

    /// Retained records, oldest first.
    pub fn snapshot(&self) -> Vec<SlowStatement> {
        self.ring.lock().iter().cloned().collect()
    }

    /// Drops retained records and resets the sequence counter.
    pub fn reset(&self) {
        self.ring.lock().clear();
        self.over_threshold.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_folds_literals_and_round_unique_names() {
        assert_eq!(
            normalize_sql("SELECT * FROM pr__msg_3_17 WHERE w > 0.5 AND s = 'x''y'"),
            "select * from pr__msg_n_n where w > ? and s = ?"
        );
        // two instances of the same family share a digest
        assert_eq!(
            normalize_sql("INSERT INTO pr__msg_0_1 VALUES (1, 2.5e-3)"),
            normalize_sql("INSERT  INTO\npr__msg_12_99 VALUES (7, 8.125)"),
        );
        // distinct families stay distinct
        assert_ne!(
            normalize_sql("SELECT * FROM pr__next"),
            normalize_sql("SELECT * FROM pr__msg_1_1"),
        );
    }

    #[test]
    fn normalization_edge_cases() {
        assert_eq!(normalize_sql(""), "");
        assert_eq!(normalize_sql("   "), "");
        assert_eq!(normalize_sql("SELECT 1"), "select ?");
        assert_eq!(normalize_sql("SELECT 'unterminated"), "select ?");
        assert_eq!(normalize_sql("t1x2"), "tnxn");
        // exponent without digits is not consumed as part of the number
        assert_eq!(normalize_sql("SELECT 1e FROM t"), "select ?e from t");
    }

    #[test]
    fn digest_table_aggregates_and_attributes_misses() {
        let d = DigestStats::new();
        d.record(
            None,
            "SELECT * FROM pr__msg_1_1",
            100,
            10,
            false,
            Some(false),
        );
        d.record(
            None,
            "SELECT * FROM pr__msg_2_5",
            300,
            20,
            false,
            Some(false),
        );
        d.record(None, "SELECT * FROM pr__next", 50, 5, false, Some(true));
        let snap = d.snapshot();
        assert_eq!(snap.len(), 2);
        let msg = snap
            .iter()
            .find(|e| e.digest == "select * from pr__msg_n_n")
            .unwrap();
        assert_eq!(msg.calls, 2);
        assert_eq!(msg.total_us, 400);
        assert_eq!(msg.mean_us(), 200);
        assert_eq!(msg.max_us, 300);
        assert_eq!(msg.rows, 30);
        assert_eq!(msg.plan_misses, 2);
        assert_eq!(msg.plan_hits, 0);
        assert_eq!(msg.sample, "SELECT * FROM pr__msg_1_1");
        let top = d.top_misses(1);
        assert_eq!(top[0].digest, "select * from pr__msg_n_n");
    }

    #[test]
    fn digest_table_is_bounded() {
        let d = DigestStats::new();
        // a repeat-heavy family survives the one-off flood
        for _ in 0..10 {
            d.record(None, "SELECT keepme FROM t", 1, 0, false, None);
        }
        // digit-free names: digits would fold into one `n` family
        let letters = |mut i: usize| {
            let mut s = String::new();
            loop {
                s.push((b'a' + (i % 26) as u8) as char);
                i /= 26;
                if i == 0 {
                    break s;
                }
            }
        };
        for i in 0..(DIGEST_CAPACITY * 2) {
            d.record(
                None,
                &format!("SELECT {} FROM t", letters(i)),
                1,
                0,
                false,
                None,
            );
        }
        let snap = d.snapshot();
        assert!(snap.len() <= DIGEST_CAPACITY);
        assert!(snap.iter().any(|e| e.digest.contains("keepme")));
    }

    #[test]
    fn slow_log_threshold_and_sampling() {
        let log = SlowLog::default();
        // off by default
        log.record("SELECT 1", 1_000_000, 0);
        assert!(log.snapshot().is_empty());
        log.configure(1000, 2);
        for i in 0..10 {
            log.record(&format!("SELECT {i}"), 500 + i * 200, 0);
        }
        // elapsed >= 1000 for i >= 3 (500+600); 7 over threshold, every 2nd kept
        assert_eq!(log.over_threshold(), 7);
        let snap = log.snapshot();
        assert_eq!(snap.len(), 4);
        assert!(snap.iter().all(|s| s.elapsed_us >= 1000));
        log.reset();
        assert!(log.snapshot().is_empty());
        assert_eq!(log.over_threshold(), 0);
    }

    #[test]
    fn slow_log_ring_is_bounded() {
        let log = SlowLog::default();
        log.configure(1, 1);
        for i in 0..(SLOW_LOG_CAPACITY as u64 + 50) {
            log.record("SELECT 1", 10 + i, 0);
        }
        let snap = log.snapshot();
        assert_eq!(snap.len(), SLOW_LOG_CAPACITY);
        // oldest entries were dropped
        assert_eq!(snap[0].seq, 50);
    }
}
