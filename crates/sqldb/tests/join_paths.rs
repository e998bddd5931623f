//! The join algorithms must be interchangeable: whichever one
//! `join::choose_join` picks, a query returns the same row multiset. The
//! same small outer table is joined to two copies of one large table — one
//! indexed on the join column (probed: index nested-loop), one not (the
//! profile's hash join or block nested loop) — over NULL keys, duplicate
//! keys, tombstoned slots, residual `ON` predicates and `Int`-vs-`Float`
//! keys, for INNER and LEFT joins on every engine profile.

use sqldb::{Database, EngineProfile, QueryResult, Session, StatsSnapshot, Value};

fn rows(s: &mut Session, sql: &str) -> QueryResult {
    s.query(sql).unwrap_or_else(|e| panic!("{e}\nsql: {sql}"))
}

fn sorted(mut r: QueryResult) -> Vec<Vec<Value>> {
    r.rows.sort();
    r.rows
}

/// Counter deltas `f` caused.
fn counting<T>(db: &Database, f: impl FnOnce() -> T) -> (T, StatsSnapshot) {
    let before = db.stats();
    let out = f();
    (out, db.stats().delta_since(&before))
}

/// `o`: 8 outer rows. `big_ix` / `big_no`: the same 300-slot inner table
/// (50 distinct keys × 6 duplicates, 12 NULL keys, every 7th row deleted),
/// with and without an index on `k`.
fn fixture(profile: EngineProfile) -> Database {
    let db = Database::new(profile);
    let mut s = db.connect();
    s.execute("CREATE TABLE o (k FLOAT, tag TEXT)").unwrap();
    // keys: matching (as Float against the Int inner keys), non-integral,
    // missing, duplicated in the outer table too, and NULL
    s.execute(
        "INSERT INTO o VALUES (1.0, 'a'), (2.0, 'b'), (2.0, 'x'), (2.5, 'c'), \
         (49.0, 'd'), (77.0, 'e'), (NULL, 'f'), (-3.0, 'g')",
    )
    .unwrap();
    for t in ["big_ix", "big_no"] {
        s.execute(&format!("CREATE TABLE {t} (k INT, w INT)"))
            .unwrap();
        let values: Vec<String> = (0..300)
            .map(|i| {
                if i % 25 == 0 {
                    format!("(NULL, {i})")
                } else {
                    format!("({}, {i})", i % 50)
                }
            })
            .collect();
        s.execute(&format!("INSERT INTO {t} VALUES {}", values.join(", ")))
            .unwrap();
    }
    s.execute("CREATE INDEX big_ix_k ON big_ix (k)").unwrap();
    // tombstones *after* the index exists: its entries must go with them
    for t in ["big_ix", "big_no"] {
        s.execute(&format!("DELETE FROM {t} WHERE w % 7 = 0"))
            .unwrap();
    }
    db
}

#[test]
fn index_nested_loop_and_fallback_return_the_same_multiset() {
    let ons = [
        "o.k = b.k",
        "b.k = o.k",
        "o.k = b.k AND b.w > 100",
        "o.k = b.k AND o.tag <> 'x' AND b.w % 2 = 0",
        "o.k = b.k AND b.w > 1000",
    ];
    for profile in EngineProfile::ALL {
        let db = fixture(profile);
        let mut s = db.connect();
        for join in ["JOIN", "LEFT JOIN"] {
            for on in ons {
                let sql = |inner: &str| {
                    format!("SELECT o.k, o.tag, b.k, b.w FROM o {join} {inner} AS b ON {on}")
                };
                let (probed, d) = counting(&db, || rows(&mut s, &sql("big_ix")));
                assert_eq!(
                    d.index_lookups, 7,
                    "{profile:?} {join} {on}: one probe per non-NULL outer key"
                );
                let (scanned, d) = counting(&db, || rows(&mut s, &sql("big_no")));
                assert_eq!(d.index_lookups, 0, "{profile:?} {join} {on}");
                let (probed, scanned) = (sorted(probed), sorted(scanned));
                assert_eq!(probed, scanned, "{profile:?} {join} {on}");
                if join == "LEFT JOIN" {
                    let tags: std::collections::BTreeSet<_> =
                        probed.iter().map(|r| r[1].clone()).collect();
                    assert_eq!(tags.len(), 8, "every outer row survives a LEFT JOIN");
                }
            }
        }
        // sanity on one case, so "equal" cannot mean "equally empty":
        // keys 1, 2, 2, 49 each meet 6 duplicates minus their deleted rows
        let r = rows(&mut s, "SELECT b.w FROM o JOIN big_ix AS b ON o.k = b.k");
        let expect = (0..300)
            .filter(|w| w % 25 != 0 && w % 7 != 0)
            .map(|w| match w % 50 {
                1 | 49 => 1,
                2 => 2,
                _ => 0,
            })
            .sum::<usize>();
        assert_eq!(r.rows.len(), expect, "{profile:?}");
        assert!(expect > 10);
    }
}

#[test]
fn small_outer_probes_and_never_scans_the_inner_table() {
    for profile in EngineProfile::ALL {
        let db = fixture(profile);
        let mut s = db.connect();
        let live_inner = rows(&mut s, "SELECT COUNT(*) FROM big_ix").rows[0][0]
            .as_i64()
            .unwrap() as u64;
        let (r, d) = counting(&db, || {
            rows(
                &mut s,
                "SELECT o.tag, b.w FROM o JOIN big_ix AS b ON b.k = o.k",
            )
        });
        let out = r.rows.len() as u64;
        assert!(d.index_lookups > 0, "{profile:?}");
        // o's 8 rows, then the join output counted by the join and by FROM
        assert_eq!(d.rows_scanned, 8 + 2 * out, "{profile:?}: inner scanned");
        assert!(d.rows_scanned < live_inner, "{profile:?}");
    }
}

#[test]
fn whole_table_join_keeps_the_hash_plan() {
    // every inner row is wanted (the outer side holds every key), so
    // probing would touch as many rows as scanning: the PostgreSQL profile
    // stays on its hash join
    let db = fixture(EngineProfile::Postgres);
    let mut s = db.connect();
    s.execute("CREATE TABLE keys (k INT PRIMARY KEY)").unwrap();
    let values: Vec<String> = (0..50).map(|k| format!("({k})")).collect();
    s.execute(&format!("INSERT INTO keys VALUES {}", values.join(", ")))
        .unwrap();
    for sql in [
        "SELECT keys.k, b.w FROM keys JOIN big_ix AS b ON b.k = keys.k",
        "SELECT keys.k, b.w FROM big_ix AS b JOIN keys ON b.k = keys.k",
    ] {
        let (r, d) = counting(&db, || rows(&mut s, sql));
        assert_eq!(d.index_lookups, 0, "{sql}");
        assert!(
            d.rows_joined > 0,
            "{sql}: the hash join counts its probe side"
        );
        assert_eq!(r.rows.len(), 300 - 12 - 43 + 2, "{sql}"); // non-NULL, not deleted
    }
}
