//! The plan cache's entries carry each statement's lock set and dialect
//! verdict: a hit must lock and reject exactly what a fresh parse would,
//! DDL and view changes must make a cached text derive them again, and
//! concurrent sessions hitting one entry must all see their own results.

use sqldb::{Database, DbError, EngineProfile, Session, Value};
use std::panic::{catch_unwind, AssertUnwindSafe};

fn count(s: &mut Session, sql: &str) -> i64 {
    match s.query(sql).unwrap().rows[0][0] {
        Value::Int(n) => n,
        ref other => panic!("{sql}: {other:?}"),
    }
}

/// Whether running `sql` locks a table whose name contains `pattern`: the
/// panic probe fires on the statement's lock set, before it touches data.
fn locks(db: &Database, s: &mut Session, sql: &str, pattern: &str) -> bool {
    db.set_panic_probe(Some(pattern), 1);
    let fired = catch_unwind(AssertUnwindSafe(|| s.execute(sql))).is_err();
    db.set_panic_probe(None, 0);
    s.recover_after_panic();
    fired
}

#[test]
fn ddl_and_view_changes_make_a_cached_text_derive_its_lock_set_again() {
    let db = Database::new(EngineProfile::Postgres);
    let mut s = db.connect();
    for t in ["alpha", "beta"] {
        s.execute(&format!("CREATE TABLE {t} (a INT)")).unwrap();
        s.execute(&format!("INSERT INTO {t} VALUES (1)")).unwrap();
    }
    s.execute("CREATE VIEW v AS SELECT a FROM alpha").unwrap();
    let sql = "SELECT COUNT(*) FROM v";
    assert_eq!(count(&mut s, sql), 1);
    assert!(locks(&db, &mut s, sql, "alpha"), "a view locks its tables");
    assert!(!locks(&db, &mut s, sql, "beta"));

    // a new view definition: the cached text now locks `beta`
    let misses = db.plan_cache_stats().misses;
    s.execute("CREATE OR REPLACE VIEW v AS SELECT a FROM beta UNION ALL SELECT a FROM beta")
        .unwrap();
    assert!(locks(&db, &mut s, sql, "beta"));
    assert!(!locks(&db, &mut s, sql, "alpha"));
    assert_eq!(count(&mut s, sql), 2);
    assert_eq!(db.plan_cache_stats().misses, misses + 1, "re-prepared once");

    // the view gives way to a table of the same name
    s.execute("DROP VIEW v").unwrap();
    s.execute("CREATE TABLE v (a INT)").unwrap();
    assert!(locks(&db, &mut s, sql, "v"));
    assert!(!locks(&db, &mut s, sql, "beta"));
    assert_eq!(count(&mut s, sql), 0);

    // DROP and CREATE of a table outdate the texts that read it
    let sql = "SELECT COUNT(*) FROM alpha";
    assert_eq!(count(&mut s, sql), 1);
    let before = db.plan_cache_stats();
    s.execute("DROP TABLE alpha").unwrap();
    s.execute("CREATE TABLE alpha (a INT)").unwrap();
    assert_eq!(count(&mut s, sql), 0);
    let after = db.plan_cache_stats();
    assert_eq!(after.invalidations, before.invalidations + 1);
    assert_eq!(after.misses, before.misses + 1);
    assert!(locks(&db, &mut s, sql, "alpha"));
}

#[test]
fn a_cached_text_keeps_its_dialect_verdict() {
    let db = Database::new(EngineProfile::MySql);
    let mut s = db.connect();
    s.execute("CREATE TABLE r (id INT PRIMARY KEY, d FLOAT)")
        .unwrap();
    s.execute("CREATE TABLE m (id INT PRIMARY KEY, v FLOAT)")
        .unwrap();
    let postgres_form = "UPDATE r SET d = m.v FROM m WHERE r.id = m.id";
    for _ in 0..3 {
        assert!(matches!(
            s.execute(postgres_form),
            Err(DbError::Unsupported(_))
        ));
    }
    let stats = db.plan_cache_stats();
    assert_eq!((stats.misses, stats.hits), (1, 2), "{stats:?}");
    s.execute("UPDATE r JOIN m ON r.id = m.id SET d = m.v")
        .unwrap();
}

#[test]
fn recently_used_plans_survive_capacity_pressure() {
    let db = Database::new(EngineProfile::Postgres);
    let mut s = db.connect();
    s.execute("CREATE TABLE t (a INT)").unwrap();
    s.execute("INSERT INTO t VALUES (1), (2), (3)").unwrap();
    db.set_plan_cache_capacity(16);
    let hot = "SELECT COUNT(*) FROM t";
    assert_eq!(count(&mut s, hot), 3);
    for i in 0..200 {
        s.query(&format!("SELECT a FROM t WHERE a = {i}")).unwrap();
        let before = db.plan_cache_stats();
        assert_eq!(count(&mut s, hot), 3);
        let after = db.plan_cache_stats();
        assert_eq!(after.hits, before.hits + 1, "round {i}: {after:?}");
        assert!(after.entries <= 16, "{after:?}");
    }
    let stats = db.plan_cache_stats();
    assert!(stats.evictions >= 200 - 16, "{stats:?}");
}

#[test]
fn sessions_hitting_one_entry_at_once_get_their_own_results() {
    let db = Database::new(EngineProfile::Postgres);
    let mut s = db.connect();
    s.execute("CREATE TABLE t (k INT, v INT)").unwrap();
    s.execute("CREATE INDEX t_k ON t (k)").unwrap();
    let rows: Vec<String> = (0..64).map(|i| format!("({}, {i})", i % 4)).collect();
    s.execute(&format!("INSERT INTO t VALUES {}", rows.join(", ")))
        .unwrap();
    let texts: Vec<(String, i64)> = (0..4)
        .map(|k| {
            let sum = (0..64).filter(|i| i % 4 == k).sum();
            (format!("SELECT SUM(v) FROM t WHERE k = {k}"), sum)
        })
        .collect();
    let before = db.plan_cache_stats();
    std::thread::scope(|scope| {
        for worker in 0..2 {
            let (db, texts) = (db.clone(), &texts);
            scope.spawn(move || {
                let mut s = db.connect();
                for round in 0..200 {
                    let (sql, want) = &texts[(round + worker) % texts.len()];
                    assert_eq!(count(&mut s, sql), *want, "{sql}");
                }
            });
        }
    });
    let after = db.plan_cache_stats();
    let lookups = (after.hits + after.misses) - (before.hits + before.misses);
    assert_eq!(lookups, 400);
    assert!(after.misses - before.misses <= 8, "{after:?}");
}
