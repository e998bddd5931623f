//! Bounded LRU plan cache and prepared-statement support.
//!
//! A *plan* here is a parsed statement together with everything its
//! executions share: the tables it locks (views expanded), the engine
//! profile's dialect verdict, its statement-family digest and the catalog
//! objects it depends on. Caching one amortizes the lex/parse/validate and
//! lock-set work that otherwise repeats on every execution of an identical
//! statement — the dominant per-round overhead of SQLoop's iterative hot
//! loops, where the same Compute/Gather statements run thousands of times.
//!
//! ## Keying and invalidation
//!
//! A cache belongs to one database, which emulates one engine profile, so
//! entries are keyed by the SQL text alone. Each entry records, per
//! dependency table, the table's *catalog version* at prepare time plus the
//! global *views epoch*. DDL bumps versions:
//!
//! * `CREATE TABLE t` / `DROP TABLE t` bump `t`;
//! * `CREATE INDEX … ON t` / `DROP INDEX` bump the owning table;
//! * any view change bumps the views epoch (conservative: views can hide
//!   behind any table reference, so every entry is invalidated).
//!
//! A lookup that finds a version mismatch reports a miss (counted as an
//! invalidation), so stale plans — and the lock sets they carry — are
//! re-prepared transparently, the fresh plan replacing the stale entry.
//! Binding and execution always run against the live catalog.
//!
//! A hit takes the map's read lock only. A full cache evicts its least
//! recently used eighth at once, choosing the victims under the read lock.
//!
//! Only statements that can plausibly repeat — queries and DML — are
//! cached ([`is_cacheable`]). One-shot DDL/utility statements (CREATE/DROP,
//! TRUNCATE, transaction control) parse outside the cache: SQLoop's
//! schedulers mint round-unique msg-table names, and inserting those would
//! only churn the LRU without ever hitting.
//!
//! ## Parameters
//!
//! `?` placeholders parse to [`Expr::Param`] nodes, numbered in lexical
//! order; a plan declares [`count_params`] of them, and an execution must
//! supply exactly that many values. The cached statement runs as it
//! stands: the executor carries the execution's values, the binder reads
//! `?i` as its value wherever a constant may stand (`WHERE id = ?` still
//! seeks an index), and an `INSERT … VALUES` list moves each `?` straight
//! into its column's lane. Per-round values (iteration numbers,
//! thresholds, priority bounds, the rows of a bulk load) share one plan
//! without a copy of it per execution.

use crate::ast::{Expr, Statement};
use crate::dialect_check::for_each_expr;
use crate::digest::normalize_sql;
use crate::error::DbResult;
use crate::reads::Reads;
use crate::txn::LockMode;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Default maximum number of cached plans per database.
pub const DEFAULT_PLAN_CACHE_CAPACITY: usize = 512;

/// What every execution of a statement needs before it runs.
#[derive(Debug)]
pub struct Admission {
    /// The tables the statement locks, views expanded, in acquisition
    /// (name) order.
    pub locks: Vec<(String, LockMode)>,
    /// The engine profile's dialect verdict on the statement.
    pub valid: DbResult<()>,
    /// The columns it reads of each `FROM` factor and DML target.
    pub reads: Reads,
}

/// A parsed statement with its admission and invalidation fingerprint.
#[derive(Debug)]
pub struct CachedPlan {
    /// The parsed statement (canonical for this cache's profile).
    pub stmt: Statement,
    /// Number of `?` placeholders the statement carries.
    pub param_count: usize,
    /// Lock set and dialect verdict, shared by every execution.
    pub admission: Admission,
    /// Statement family ([`normalize_sql`]), computed on first use.
    digest: OnceLock<Box<str>>,
    /// `(table, version at prepare time)` for every locked table.
    deps: Vec<(String, u64)>,
    /// Views epoch at prepare time.
    views_epoch: u64,
}

impl CachedPlan {
    /// The statement family of `sql`, the text this plan was parsed from.
    pub fn digest(&self, sql: &str) -> &str {
        self.digest.get_or_init(|| normalize_sql(sql).into())
    }
}

/// Point-in-time counters of a [`PlanCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that required a fresh parse.
    pub misses: u64,
    /// Entries discarded to stay under capacity.
    pub evictions: u64,
    /// Entries discarded because DDL outdated them.
    pub invalidations: u64,
    /// Entries currently cached.
    pub entries: usize,
}

impl PlanCacheStats {
    /// Hit rate in `[0, 1]` (0 when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug)]
struct Entry {
    plan: Arc<CachedPlan>,
    last_used: AtomicU64,
}

/// Bounded LRU cache of parsed statements with DDL invalidation.
#[derive(Debug)]
pub struct PlanCache {
    entries: RwLock<HashMap<Arc<str>, Entry>>,
    /// Per-table catalog version (absent = 0).
    versions: RwLock<HashMap<String, u64>>,
    views_epoch: AtomicU64,
    tick: AtomicU64,
    capacity: AtomicUsize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
}

impl Default for PlanCache {
    fn default() -> PlanCache {
        PlanCache::with_capacity(DEFAULT_PLAN_CACHE_CAPACITY)
    }
}

impl PlanCache {
    /// Creates a cache holding at most `capacity` plans.
    pub fn with_capacity(capacity: usize) -> PlanCache {
        PlanCache {
            entries: RwLock::new(HashMap::new()),
            versions: RwLock::new(HashMap::new()),
            views_epoch: AtomicU64::new(0),
            tick: AtomicU64::new(0),
            capacity: AtomicUsize::new(capacity.max(1)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    /// Changes the capacity (evicting down immediately when shrinking).
    pub fn set_capacity(&self, capacity: usize) {
        self.capacity.store(capacity.max(1), Ordering::Relaxed);
        self.evict_over_capacity();
    }

    /// Looks up a still-valid plan for `sql`, refreshing its LRU stamp. A
    /// stale entry counts as an invalidation and stays until the caller's
    /// fresh plan replaces it. Misses are *not* counted here — the caller
    /// decides whether the statement was cacheable at all and calls
    /// [`PlanCache::count_miss`] for the ones that were.
    pub fn get(&self, sql: &str) -> Option<Arc<CachedPlan>> {
        let entries = self.entries.read();
        let e = entries.get(sql)?;
        if !self.is_current(&e.plan) {
            drop(entries);
            self.invalidations.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let stamp = self.tick.fetch_add(1, Ordering::Relaxed);
        e.last_used.store(stamp, Ordering::Relaxed);
        let plan = e.plan.clone();
        drop(entries);
        self.note_hit();
        Some(plan)
    }

    /// Counts a hit served from a [`crate::StmtHandle`]'s own plan pointer
    /// (prepared execution validates the pinned plan without a map lookup).
    pub fn note_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a lookup that required a fresh parse of a cacheable statement.
    pub fn count_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Wraps a parsed statement into a plan that never enters the cache
    /// (one-shot DDL/utility statements). The plan carries no dependencies,
    /// so a pinned handle only goes stale on a views-epoch change.
    pub fn uncached(&self, stmt: Statement, admission: Admission) -> Arc<CachedPlan> {
        Arc::new(self.plan(stmt, admission, Vec::new()))
    }

    /// Caches a freshly parsed statement under `sql`, capturing the
    /// versions of the tables it locks, and returns the shared plan.
    /// Evicts least-recently-used entries when over capacity.
    pub fn insert(&self, sql: &str, stmt: Statement, admission: Admission) -> Arc<CachedPlan> {
        let deps = {
            let versions = self.versions.read();
            let version = |t: &String| versions.get(t).copied().unwrap_or(0);
            let locked = admission.locks.iter();
            locked.map(|(t, _)| (t.clone(), version(t))).collect()
        };
        let plan = Arc::new(self.plan(stmt, admission, deps));
        let entry = Entry {
            plan: plan.clone(),
            last_used: AtomicU64::new(self.tick.fetch_add(1, Ordering::Relaxed)),
        };
        let mut entries = self.entries.write();
        entries.insert(Arc::from(sql), entry);
        let over = entries.len() > self.capacity.load(Ordering::Relaxed);
        drop(entries);
        if over {
            self.evict_over_capacity();
        }
        plan
    }

    fn plan(&self, stmt: Statement, admission: Admission, deps: Vec<(String, u64)>) -> CachedPlan {
        CachedPlan {
            param_count: count_params(&stmt),
            admission,
            digest: OnceLock::new(),
            deps,
            views_epoch: self.views_epoch.load(Ordering::Relaxed),
            stmt,
        }
    }

    /// Evicts the least recently used entries down to 7/8 of the capacity,
    /// so a full cache scans its entries once per capacity/8 misses, and
    /// under the read lock. An entry used after the scan survives.
    fn evict_over_capacity(&self) {
        let cap = self.capacity.load(Ordering::Relaxed);
        let (victims, newest) = {
            let entries = self.entries.read();
            if entries.len() <= cap {
                return;
            }
            let n = entries.len() - (cap - cap / 8);
            let stamp = |e: &Entry| e.last_used.load(Ordering::Relaxed);
            let mut by_age: Vec<(u64, &Arc<str>)> =
                entries.iter().map(|(k, e)| (stamp(e), k)).collect();
            // the n oldest come first, the n-th oldest last among them
            by_age.select_nth_unstable(n - 1);
            let victims: Vec<Arc<str>> = by_age[..n].iter().map(|(_, k)| Arc::clone(k)).collect();
            (victims, by_age[n - 1].0)
        };
        let mut entries = self.entries.write();
        let mut evicted = Vec::with_capacity(victims.len());
        for key in victims {
            let unused = |e: &Entry| e.last_used.load(Ordering::Relaxed) <= newest;
            if entries.get(&*key).is_some_and(unused) {
                evicted.extend(entries.remove(&*key));
            }
        }
        drop(entries);
        self.evictions
            .fetch_add(evicted.len() as u64, Ordering::Relaxed);
        // the plans are freed here, with the map unlocked
    }

    /// True while every dependency of `plan` is still at its prepare-time
    /// version and no view change happened since.
    pub fn is_current(&self, plan: &CachedPlan) -> bool {
        if plan.views_epoch != self.views_epoch.load(Ordering::Relaxed) {
            return false;
        }
        let versions = self.versions.read();
        plan.deps
            .iter()
            .all(|(t, v)| versions.get(t).copied().unwrap_or(0) == *v)
    }

    /// Records a schema change on `table`, outdating plans that depend on it.
    pub fn bump_table(&self, table: &str) {
        *self.versions.write().entry(table.to_owned()).or_insert(0) += 1;
    }

    /// Records a view change, outdating every cached plan.
    pub fn bump_views(&self) {
        self.views_epoch.fetch_add(1, Ordering::Relaxed);
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            entries: self.entries.read().len(),
        }
    }
}

/// True for statements worth caching: queries and DML repeat (iterative
/// round bodies, prepared handles); DDL, TRUNCATE and transaction control
/// are one-shot by nature — a repeated `CREATE TABLE` can only error.
pub fn is_cacheable(stmt: &Statement) -> bool {
    matches!(
        stmt,
        Statement::Select(_)
            | Statement::Insert(_)
            | Statement::Update(_)
            | Statement::Delete { .. }
    )
}

/// Number of `?` placeholders in `stmt` (max index + 1; the parser assigns
/// indexes in lexical order, so this equals the count).
pub fn count_params(stmt: &Statement) -> usize {
    let mut max: Option<usize> = None;
    for_each_expr(stmt, &mut |e| {
        if let Expr::Param(i) = e {
            max = Some(max.map_or(*i, |m| m.max(*i)));
        }
    });
    max.map_or(0, |m| m + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_statement;

    fn admission(deps: &[&str]) -> Admission {
        Admission {
            locks: deps
                .iter()
                .map(|t| (t.to_string(), LockMode::Shared))
                .collect(),
            valid: Ok(()),
            reads: Reads::default(),
        }
    }

    fn plan_of(cache: &PlanCache, sql: &str, deps: &[&str]) -> Arc<CachedPlan> {
        // mirrors Session::plan_for: a fresh parse of a cacheable statement
        cache.count_miss();
        cache.insert(sql, parse_statement(sql).unwrap(), admission(deps))
    }

    #[test]
    fn hit_after_insert_miss_after_bump() {
        let cache = PlanCache::with_capacity(8);
        let sql = "SELECT a FROM t";
        assert!(cache.get(sql).is_none());
        plan_of(&cache, sql, &["t"]);
        assert!(cache.get(sql).is_some());
        cache.bump_table("t");
        assert!(cache.get(sql).is_none(), "bumped dep must invalidate");
        let s = cache.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.invalidations, 1);
        assert_eq!(s.misses, 1, "one fresh parse, the initial insert");
    }

    #[test]
    fn unrelated_bump_keeps_plan() {
        let cache = PlanCache::with_capacity(8);
        let sql = "SELECT a FROM t";
        plan_of(&cache, sql, &["t"]);
        cache.bump_table("other");
        assert!(cache.get(sql).is_some());
    }

    #[test]
    fn view_epoch_invalidates_everything() {
        let cache = PlanCache::with_capacity(8);
        plan_of(&cache, "SELECT a FROM t", &["t"]);
        cache.bump_views();
        assert!(cache.get("SELECT a FROM t").is_none());
    }

    #[test]
    fn lru_eviction_under_tiny_cap() {
        let cache = PlanCache::with_capacity(2);
        plan_of(&cache, "SELECT 1", &[]);
        plan_of(&cache, "SELECT 2", &[]);
        // touch "SELECT 1" so "SELECT 2" is the LRU victim
        assert!(cache.get("SELECT 1").is_some());
        plan_of(&cache, "SELECT 3", &[]);
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.stats().entries, 2);
        assert!(cache.get("SELECT 1").is_some());
        assert!(cache.get("SELECT 2").is_none());
    }

    #[test]
    fn a_full_cache_evicts_its_oldest_eighth_at_once() {
        let cache = PlanCache::with_capacity(16);
        for i in 0..16 {
            plan_of(&cache, &format!("SELECT {i}"), &[]);
        }
        // recently used: survives although it was inserted first
        assert!(cache.get("SELECT 0").is_some());
        plan_of(&cache, "SELECT 16", &[]);
        let s = cache.stats();
        assert_eq!((s.entries, s.evictions), (14, 3));
        assert!(cache.get("SELECT 0").is_some());
        for gone in ["SELECT 1", "SELECT 2", "SELECT 3"] {
            assert!(cache.get(gone).is_none(), "{gone}");
        }
        // the next two misses fit without another scan
        plan_of(&cache, "SELECT 17", &[]);
        plan_of(&cache, "SELECT 18", &[]);
        assert_eq!(cache.stats().evictions, 3);
    }

    #[test]
    fn shrinking_capacity_evicts_immediately() {
        let cache = PlanCache::with_capacity(4);
        for i in 0..4 {
            plan_of(&cache, &format!("SELECT {i}"), &[]);
        }
        cache.set_capacity(1);
        assert_eq!(cache.stats().entries, 1);
        assert_eq!(cache.stats().evictions, 3);
    }

    #[test]
    fn ddl_is_not_cacheable_and_uncached_plans_stay_out() {
        assert!(is_cacheable(&parse_statement("SELECT 1").unwrap()));
        assert!(is_cacheable(&parse_statement("DELETE FROM t").unwrap()));
        assert!(!is_cacheable(
            &parse_statement("CREATE TABLE t (a INT)").unwrap()
        ));
        assert!(!is_cacheable(&parse_statement("DROP TABLE t").unwrap()));
        let cache = PlanCache::with_capacity(2);
        let plan = cache.uncached(parse_statement("DROP TABLE t").unwrap(), admission(&["t"]));
        assert!(cache.is_current(&plan), "no deps: only views outdate it");
        cache.bump_table("t");
        assert!(cache.is_current(&plan));
        cache.bump_views();
        assert!(!cache.is_current(&plan));
        assert_eq!(cache.stats().entries, 0, "uncached plans never enter");
    }

    #[test]
    fn param_counting() {
        let stmt = parse_statement("SELECT a FROM t WHERE a > ? AND b < ?").unwrap();
        assert_eq!(count_params(&stmt), 2);
        assert_eq!(
            count_params(&parse_statement("SELECT a FROM t").unwrap()),
            0
        );
    }
}
