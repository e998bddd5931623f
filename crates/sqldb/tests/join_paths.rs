//! Access paths and join algorithms must be interchangeable.
//!
//! Whichever algorithm `join::choose_join` picks, a query returns the same
//! row multiset. The
//! same small outer table is joined to two copies of one large table — one
//! indexed on the join column (probed: index nested-loop), one not (the
//! profile's hash join or block nested loop) — over NULL keys, duplicate
//! keys, tombstoned slots, residual `ON` predicates and `Int`-vs-`Float`
//! keys, for INNER and LEFT joins on every engine profile.
//!
//! Whichever way `join::choose_access` reads a table, a statement does the
//! same thing. Every SELECT, UPDATE and DELETE below runs on two copies of
//! one table — `t_ix` (primary key, secondary indexes) and `t_no` (no index
//! at all, so always scanned) — and must return the same rows, report the
//! same affected count or error, and leave the same table behind.

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
        // o's 8 rows, then the join output
        assert_eq!(d.rows_scanned, 8 + out, "{profile:?}: inner scanned");
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

// ---------------------------------------------------------------------
// access paths: seek ≡ scan
// ---------------------------------------------------------------------

/// `t_ix` / `t_no`: the same 200 slots — `k` has 10 duplicate-heavy keys
/// and NULLs, `f` is a FLOAT with integral and fractional values, every
/// 7th row is a tombstone — with and without indexes on every column.
fn access_fixture(profile: EngineProfile) -> Database {
    let db = Database::new(profile);
    let mut s = db.connect();
    s.execute("CREATE TABLE t_ix (id INT PRIMARY KEY, k INT, f FLOAT, tag TEXT)")
        .unwrap();
    s.execute("CREATE TABLE t_no (id INT, k INT, f FLOAT, tag TEXT)")
        .unwrap();
    let values: Vec<String> = (0..200)
        .map(|i| {
            let k = if i % 25 == 0 {
                "NULL".to_string()
            } else {
                (i % 10).to_string()
            };
            let tag = ["a", "b", "c", "d", "e"][i % 5];
            format!("({i}, {k}, {}, '{tag}')", (i % 8) as f64 / 2.0)
        })
        .collect();
    for t in ["t_ix", "t_no"] {
        s.execute(&format!("INSERT INTO {t} VALUES {}", values.join(", ")))
            .unwrap();
    }
    for col in ["k", "f", "tag"] {
        s.execute(&format!("CREATE INDEX t_ix_{col} ON t_ix ({col})"))
            .unwrap();
    }
    // tombstones *after* the indexes exist: their entries must go too
    for t in ["t_ix", "t_no"] {
        s.execute(&format!("DELETE FROM {t} WHERE id % 7 = 0"))
            .unwrap();
    }
    db
}

/// What a statement did, comparable across the twins: rows (sorted) and
/// affected count, or the error text.
type Outcome = Result<(Vec<Vec<Value>>, u64), String>;

fn outcome(s: &mut Session, sql: &str) -> Outcome {
    match s.execute(sql) {
        Ok(sqldb::StmtOutput::Rows(r)) => Ok((sorted(r), 0)),
        Ok(out) => Ok((Vec::new(), out.rows_affected())),
        Err(e) => Err(e.to_string()),
    }
}

/// Runs `template` (with `{t}` for the table) on `t_ix` and on `t_no`,
/// asserts both did the same thing and left the same table, and returns
/// that outcome with the counters the `t_ix` run moved.
fn twins(db: &Database, s: &mut Session, template: &str) -> (Outcome, StatsSnapshot) {
    let (ix, d_ix) = counting(db, || outcome(s, &template.replace("{t}", "t_ix")));
    let (no, d_no) = counting(db, || outcome(s, &template.replace("{t}", "t_no")));
    assert_eq!(ix, no, "{template}");
    assert_eq!(d_no.index_lookups, 0, "{template}: t_no has no index");
    let all = |s: &mut Session, t: &str| sorted(rows(s, &format!("SELECT * FROM {t}")));
    assert_eq!(
        all(s, "t_ix"),
        all(s, "t_no"),
        "{template}: tables diverged"
    );
    (ix, d_ix)
}

/// `(predicate, seeks)`: whether `choose_access` may answer it from an index.
const PREDICATES: &[(&str, bool)] = &[
    ("id = 17", true),
    ("17 = id", true),
    ("{t}.id = 17", true),
    ("id = 1 + 16", true),
    ("id = 17.0", true), // Int key, Float literal
    ("id = 17.5", true), // … that no Int equals
    ("f = 1", true),     // Float key, Int literal
    ("f = 1.5", true),
    ("k = 3", true), // duplicate keys
    ("k = 3 AND tag = 'd'", true),
    ("tag = 'd' AND id > 100 AND k = 3", true),
    ("k = 3 AND id = 103", true), // two indexes: the primary key is tighter
    ("tag = 'c'", true),
    ("id = 14", true),   // a tombstone
    ("id = 4000", true), // no such key
    ("k IS NULL", true), // the index files NULLs under one key
    ("k IS NULL AND tag = 'a'", true),
    ("id IS NULL", true), // a primary key holds none
    ("k = NULL", false),
    ("k IS NOT NULL", false),
    ("k = 'x'", false), // TEXT literal against an INT column
    ("tag = 3", false),
    ("k = 3 OR id = 5", false),
    ("k > 3", false),
    ("k = id", false),
    ("id = 1 / 0", false), // the scan owns the error
];

#[test]
fn select_seek_matches_scan() {
    for profile in EngineProfile::ALL {
        let db = access_fixture(profile);
        let mut s = db.connect();
        for (pred, seeks) in PREDICATES {
            let sql = format!("SELECT id, k, f, tag FROM {{t}} WHERE {pred}");
            let (live, d) = counting(&db, || rows(&mut s, "SELECT COUNT(*) FROM t_ix"));
            let live = live.rows[0][0].as_i64().unwrap() as u64;
            assert_eq!(d.rows_scanned, live, "a scan visits every live row once");
            let (out, d) = twins(&db, &mut s, &sql);
            assert_eq!(d.index_lookups, u64::from(*seeks), "{profile:?} {pred}");
            if *seeks {
                let returned = out.as_ref().map_or(0, |(r, _)| r.len() as u64);
                assert!(
                    d.rows_scanned < live / 4 && d.rows_scanned >= returned,
                    "{profile:?} {pred}: a seek visits only its key's slots, \
                     visited {} of {live}",
                    d.rows_scanned
                );
            } else if out.is_ok() {
                assert_eq!(d.rows_scanned, live, "{profile:?} {pred}");
            }
        }
        // "equal" must not mean "equally empty"
        let n = |s: &mut Session, pred: &str| {
            rows(s, &format!("SELECT id FROM t_ix WHERE {pred}"))
                .rows
                .len()
        };
        assert_eq!(n(&mut s, "id = 17.0"), 1, "{profile:?}");
        assert_eq!(n(&mut s, "id = 14"), 0, "{profile:?}");
        assert_eq!(n(&mut s, "k = 'x'"), 0, "{profile:?}");
        assert_eq!(n(&mut s, "k = NULL"), 0, "{profile:?}");
        // multiples of 25 under 200, minus those of 7 (0, 175)
        assert_eq!(n(&mut s, "k IS NULL"), 6, "{profile:?}");
        let plan = rows(&mut s, "EXPLAIN SELECT id FROM t_ix WHERE k IS NULL");
        assert_eq!(
            plan.rows[0][0],
            Value::Text("IndexSeek t_ix using t_ix_k (k IS NULL)".into()),
            "{profile:?}"
        );
        // ids ≡ 3 (mod 10) under 200, minus multiples of 7 (63, 133)
        assert_eq!(n(&mut s, "k = 3"), 18, "{profile:?}");
        assert!(s.query("SELECT id FROM t_ix WHERE id = 1 / 0").is_err());
    }
}

#[test]
fn update_and_delete_seek_matches_scan() {
    for profile in EngineProfile::ALL {
        for verb in [
            "UPDATE {t} SET f = f + 16.0, tag = 'z' WHERE",
            "DELETE FROM {t} WHERE",
        ] {
            let db = access_fixture(profile);
            let mut s = db.connect();
            for (pred, seeks) in PREDICATES {
                let (out, d) = twins(&db, &mut s, &format!("{verb} {pred}"));
                assert_eq!(
                    d.index_lookups,
                    u64::from(*seeks),
                    "{profile:?} {verb} {pred}"
                );
                // the updates keep every row, so the count is the fixture's
                if *pred == "k = 3" && verb.starts_with("UPDATE") {
                    assert_eq!(out.unwrap().1, 18, "{profile:?} {verb} {pred}");
                }
            }
        }
    }
}

#[test]
fn update_that_rewrites_its_own_key_keeps_the_index_right() {
    for profile in EngineProfile::ALL {
        let db = access_fixture(profile);
        let mut s = db.connect();
        // the seek's own key column moves: secondary (duplicates) and primary
        let (out, d) = twins(&db, &mut s, "UPDATE {t} SET k = k + 100 WHERE k = 3");
        assert_eq!((out.unwrap().1, d.index_lookups), (18, 1), "{profile:?}");
        let (out, _) = twins(&db, &mut s, "UPDATE {t} SET id = id + 1000 WHERE id = 17");
        assert_eq!(out.unwrap().1, 1, "{profile:?}");
        // old keys find nothing, new keys find the rows — through the index
        for (pred, n) in [
            ("k = 3", 0),
            ("k = 103", 18),
            ("id = 17", 0),
            ("id = 1017", 1),
        ] {
            let (out, d) = twins(&db, &mut s, &format!("SELECT id FROM {{t}} WHERE {pred}"));
            assert_eq!(
                (out.unwrap().0.len(), d.index_lookups),
                (n, 1),
                "{profile:?} {pred}"
            );
        }
        // moving a row onto a live primary key fails on the indexed twin
        // only (t_no declares no key), atomically
        let before = sorted(rows(&mut s, "SELECT * FROM t_ix"));
        assert!(s.execute("UPDATE t_ix SET id = 18 WHERE id = 19").is_err());
        assert_eq!(sorted(rows(&mut s, "SELECT * FROM t_ix")), before);
    }
}

/// `UPDATE {t} SET <set> FROM <from> WHERE <on>` in the dialect `profile`
/// accepts (the MySQL family spells it `UPDATE {t} JOIN <from> ON <on> SET`).
fn update_from(profile: EngineProfile, set: &str, from: &str, on: &str) -> String {
    if profile.dialect().supports_update_from {
        format!("UPDATE {{t}} SET {set} FROM {from} WHERE {on}")
    } else {
        format!("UPDATE {{t}} JOIN {from} ON {on} SET {set}")
    }
}

#[test]
fn update_from_probes_its_target_and_first_from_row_wins() {
    for profile in EngineProfile::ALL {
        let db = access_fixture(profile);
        let mut s = db.connect();
        // duplicate keys (5 and 9 twice), a Float spelling of an Int key, a
        // NULL, a tombstoned target (14) and a missing one (4000)
        s.execute("CREATE TABLE src (id FLOAT, v FLOAT)").unwrap();
        s.execute(
            "INSERT INTO src VALUES (5, 1.0), (9, 3.0), (5, 2.0), (NULL, 9.0), \
             (9.0, 4.0), (14, 5.0), (4000, 6.0), (23.0, 7.0)",
        )
        .unwrap();
        let f_of = |s: &mut Session, id: i64| {
            rows(s, &format!("SELECT f FROM t_ix WHERE id = {id}")).rows[0][0].clone()
        };

        let sql = update_from(profile, "f = src.v", "src", "{t}.id = src.id");
        let (out, d) = twins(&db, &mut s, &sql);
        assert_eq!(out.unwrap().1, 3, "{profile:?}: ids 5, 9 and 23");
        assert_eq!(
            d.index_lookups, 7,
            "{profile:?}: one probe per non-NULL src row"
        );
        assert_eq!(
            f_of(&mut s, 5),
            Value::Float(1.0),
            "{profile:?}: first src row wins"
        );
        assert_eq!(f_of(&mut s, 9), Value::Float(3.0), "{profile:?}");
        assert_eq!(f_of(&mut s, 23), Value::Float(7.0), "{profile:?}");

        // a residual conjunct skips the first candidate, not the order
        let sql = update_from(
            profile,
            "f = src.v",
            "src",
            "src.id = {t}.id AND src.v > 1.5",
        );
        let (out, _) = twins(&db, &mut s, &sql);
        assert_eq!(out.unwrap().1, 1, "{profile:?}: only id 5 changes");
        assert_eq!(f_of(&mut s, 5), Value::Float(2.0), "{profile:?}");
        assert_eq!(f_of(&mut s, 9), Value::Float(3.0), "{profile:?}");

        // a FROM subquery that reads the target sees it before any write
        let sql = update_from(
            profile,
            "f = old.nf",
            "(SELECT id, f + 100.0 AS nf FROM {t} WHERE k = 3) AS old",
            "{t}.id = old.id",
        );
        let (out, _) = twins(&db, &mut s, &sql);
        assert_eq!(out.unwrap().1, 18, "{profile:?}");
        let fs = rows(&mut s, "SELECT f FROM t_ix WHERE k = 3");
        assert!(
            fs.rows
                .iter()
                .all(|r| r[0] >= Value::Float(100.0) && r[0] < Value::Float(108.0)),
            "{profile:?}: each row moved exactly once: {:?}",
            fs.rows
        );

        // no equality at all: every target row meets the first src row
        let changing = rows(&mut s, "SELECT COUNT(*) FROM t_ix WHERE f <> 1.0").rows[0][0]
            .as_i64()
            .unwrap() as u64;
        let sql = update_from(profile, "f = src.v", "src", "src.v < 2.5");
        let (out, d) = twins(&db, &mut s, &sql);
        assert_eq!(
            (out.unwrap().1, d.index_lookups),
            (changing, 0),
            "{profile:?}"
        );
        assert!(changing > 100);
        let left = rows(&mut s, "SELECT COUNT(*) FROM t_ix WHERE f <> 1.0");
        assert_eq!(left.rows[0][0], Value::Int(0), "{profile:?}");
    }
}

#[test]
fn whole_table_update_from_keeps_the_scan_and_hash_plan() {
    for profile in EngineProfile::ALL {
        let db = access_fixture(profile);
        let mut s = db.connect();
        // one src row per target row: probing would touch as much as scanning
        s.execute("CREATE TABLE src (id INT, v FLOAT)").unwrap();
        s.execute("INSERT INTO src SELECT id, f + 0.25 FROM t_no")
            .unwrap();
        let sql = update_from(profile, "f = src.v", "src", "{t}.id = src.id");
        let (out, d) = counting(&db, || outcome(&mut s, &sql.replace("{t}", "t_ix")));
        let live = rows(&mut s, "SELECT COUNT(*) FROM t_ix").rows[0][0]
            .as_i64()
            .unwrap() as u64;
        assert_eq!(out.unwrap().1, live, "{profile:?}");
        if profile == EngineProfile::Postgres {
            assert_eq!(d.index_lookups, 0, "a whole-table update must not probe");
            assert_eq!(d.rows_joined, live, "the hash join counts its probe side");
            // src and the target scanned, and the joined rows
            assert_eq!(d.rows_scanned, 3 * live);
        } else {
            // the nested-loop profiles have no hash join to fall back on
            assert_eq!(d.index_lookups, live, "{profile:?}");
        }
        assert!(outcome(&mut s, &sql.replace("{t}", "t_no")).is_ok());
        assert_eq!(
            sorted(rows(&mut s, "SELECT * FROM t_ix")),
            sorted(rows(&mut s, "SELECT * FROM t_no")),
            "{profile:?}"
        );
    }
}

// ---------------------------------------------------------------------
// joins feeding DML, and what EXPLAIN ANALYZE says about them
// ---------------------------------------------------------------------

#[test]
fn insert_select_from_a_join_stores_what_the_join_returns() {
    let shapes = [
        ("JOIN", "o.k = b.k"),
        ("LEFT JOIN", "o.k = b.k AND b.w > 100"),
        ("LEFT JOIN", "b.k = o.k AND o.tag <> 'x' AND b.w % 2 = 0"),
    ];
    for profile in EngineProfile::ALL {
        let db = fixture(profile);
        let mut s = db.connect();
        s.execute("CREATE TABLE sink (k FLOAT, tag TEXT, bk INT, w INT)")
            .unwrap();
        s.execute("CREATE TABLE ranks (tag TEXT, n INT, total FLOAT)")
            .unwrap();
        for (join, on) in shapes {
            // what lands in the table, per inner twin
            let mut stored = Vec::new();
            for inner in ["big_ix", "big_no"] {
                let select =
                    format!("SELECT o.k, o.tag, b.k, b.w FROM o {join} {inner} AS b ON {on}");
                let n = s.execute(&format!("INSERT INTO sink {select}")).unwrap();
                let landed = sorted(rows(&mut s, "SELECT * FROM sink"));
                assert_eq!(n.rows_affected(), landed.len() as u64);
                assert_eq!(
                    landed,
                    sorted(rows(&mut s, &select)),
                    "{profile:?} {select}"
                );
                s.execute("DELETE FROM sink").unwrap();
                stored.push(landed);
            }
            assert!(stored[0].len() >= 8, "{profile:?} {join} {on}");
            assert!(
                stored.iter().all(|t| *t == stored[0]),
                "{profile:?} {join} {on}"
            );
        }
        // the PageRank round: two LEFT JOINs → one-key aggregate → INSERT
        let mut stored = Vec::new();
        for inner in ["big_ix", "big_no"] {
            let n = s.execute(&format!(
                "INSERT INTO ranks SELECT o.tag, COUNT(b.w), COALESCE(0.85 * SUM(b.w * p.k), 0.0) \
                 FROM o LEFT JOIN {inner} AS b ON o.k = b.k LEFT JOIN o AS p ON p.k = b.k \
                 GROUP BY o.tag"
            ));
            assert_eq!(
                n.unwrap().rows_affected(),
                8,
                "{profile:?}: one row per tag"
            );
            stored.push(sorted(rows(&mut s, "SELECT * FROM ranks")));
            s.execute("DELETE FROM ranks").unwrap();
        }
        assert!(stored.iter().all(|t| *t == stored[0]), "{profile:?}");
        // tag 'a' (k = 1.0) meets the live rows of key 1, once each
        let live = (0..300).filter(|w| w % 50 == 1 && w % 7 != 0);
        let (n, total) = live.fold((0, 0.0), |(n, t), w| (n + 1, t + w as f64));
        let a = &stored[0][0];
        assert_eq!(
            a[..2],
            [Value::Text("a".into()), Value::Int(n)],
            "{profile:?}"
        );
        assert_eq!(a[2], Value::Float(0.85 * total), "{profile:?}");
    }
}

#[test]
fn table_sized_update_from_keeps_the_first_from_row() {
    for profile in EngineProfile::ALL {
        let db = access_fixture(profile);
        let mut s = db.connect();
        // two src rows per target row: too many to probe with on the hash
        // profile, and only the first of each pair may land
        s.execute("CREATE TABLE src (id INT, v FLOAT)").unwrap();
        for base in [1000.0, 2000.0] {
            s.execute(&format!(
                "INSERT INTO src SELECT id, {base:.1} + id FROM t_no"
            ))
            .unwrap();
        }
        let live = rows(&mut s, "SELECT COUNT(*) FROM t_ix").rows[0][0]
            .as_i64()
            .unwrap() as u64;
        let sql = update_from(profile, "f = src.v", "src", "{t}.id = src.id");
        let (out, d) = twins(&db, &mut s, &sql);
        assert_eq!(out.unwrap().1, live, "{profile:?}");
        if profile == EngineProfile::Postgres {
            assert_eq!(d.index_lookups, 0, "scan + hash, not 2 × {live} probes");
            assert_eq!(d.rows_joined, 2 * live, "probed with src, in src order");
        }
        let first = rows(&mut s, "SELECT COUNT(*) FROM t_ix WHERE f = 1000.0 + id");
        assert_eq!(first.rows[0][0], Value::Int(live as i64), "{profile:?}");
        // a residual decides per pair, so here the second of each pair wins
        let sql = update_from(
            profile,
            "f = src.v",
            "src",
            "{t}.id = src.id AND src.v >= 2000.0",
        );
        let (out, _) = twins(&db, &mut s, &sql);
        assert_eq!(out.unwrap().1, live, "{profile:?}");
        let second = rows(&mut s, "SELECT COUNT(*) FROM t_ix WHERE f = 2000.0 + id");
        assert_eq!(second.rows[0][0], Value::Int(live as i64), "{profile:?}");
    }
}

/// `EXPLAIN ANALYZE sql`, one line per operator, without its timing and —
/// returned apart, as the labels that carried them — its batch actuals.
fn analyzed(s: &mut Session, sql: &str) -> (Vec<String>, Vec<String>) {
    let plan = rows(s, &format!("EXPLAIN ANALYZE {sql}"));
    let mut batched = Vec::new();
    let lines = plan.rows.iter().map(|row| {
        let Value::Text(line) = &row[0] else {
            panic!("plan lines are text: {row:?}");
        };
        let (head, tail) = line.split_once(" time_us=").expect("every line is timed");
        if tail.contains(" batches=") {
            let label = head.trim_start().split(" (actual").next().unwrap_or(head);
            batched.push(label.to_owned());
        }
        head.to_owned()
    });
    (lines.collect(), batched)
}

#[test]
fn explain_analyze_keeps_its_labels_and_rows_and_joins_report_batches() {
    // (statement, the lines the parent of the columnar join printed for it);
    // `{algo}` is the profile's fallback join
    let probe = "IndexNestedLoopJoin using big_ix_k (outer=7, inner=257, fanout=5.2)";
    let cases: [(&str, Vec<String>); 4] = [
        (
            "SELECT o.tag, b.w FROM o JOIN big_ix AS b ON o.k = b.k WHERE o.tag <> 'x'",
            vec![
                "Filter (actual rows=16 calls=16".into(),
                format!("  {probe} (actual rows=16 calls=23"),
                "    SeqScan o (pushed-down filter) (actual rows=7 calls=7".into(),
                "    IndexProbe big_ix AS b (actual rows=16 calls=16".into(),
                "Execution: rows=16".into(),
            ],
        ),
        (
            "SELECT o.tag, COUNT(b.w) FROM o LEFT JOIN big_no AS b ON o.k = b.k \
             LEFT JOIN o AS p ON p.k = b.k GROUP BY o.tag",
            vec![
                "HashAggregate (group by 1 keys) (actual rows=8 calls=35".into(),
                "  {algo}LeftJoin (actual rows=35 calls=33".into(),
                "    {algo}LeftJoin (actual rows=25 calls=265".into(),
                "      SeqScan o (actual rows=8 calls=8".into(),
                "      SeqScan big_no AS b (actual rows=257 calls=257".into(),
                "    SeqScan o AS p (actual rows=8 calls=8".into(),
                "Execution: rows=8".into(),
            ],
        ),
        (
            "SELECT o.tag, b.w FROM o, big_no AS b WHERE b.w < 4",
            vec![
                "Filter (actual rows=24 calls=24".into(),
                "  NestedLoop (cross join) (actual rows=24 calls=11".into(),
                "    SeqScan o (actual rows=8 calls=8".into(),
                "    SeqScan big_no AS b (pushed-down filter) (actual rows=3 calls=3".into(),
                "Execution: rows=24".into(),
            ],
        ),
        (
            "SELECT o.tag FROM o JOIN big_no AS b ON o.k > b.k AND b.w < 60",
            vec![
                "NestedLoopJoin (non-equi ON) (actual rows=106 calls=265".into(),
                "  SeqScan o (actual rows=8 calls=8".into(),
                "  SeqScan big_no AS b (actual rows=257 calls=257".into(),
                "Execution: rows=106".into(),
            ],
        ),
    ];
    for profile in EngineProfile::ALL {
        let db = fixture(profile);
        let mut s = db.connect();
        let algo = match profile {
            EngineProfile::Postgres => "Hash",
            EngineProfile::MySql => "BlockNestedLoop (buffer 256)",
            EngineProfile::MariaDb => "BlockNestedLoop (buffer 4096)",
        };
        for (sql, expect) in &cases {
            let expect: Vec<String> = expect.iter().map(|l| l.replace("{algo}", algo)).collect();
            let (lines, batched) = analyzed(&mut s, sql);
            assert_eq!(lines, expect, "{profile:?} {sql}");
            // every join that took batches in says how many
            let joins = expect
                .iter()
                .filter(|l| l.contains("Join") || l.contains("NestedLoop"));
            for join in joins {
                let label = join.trim_start().split(" (actual").next().unwrap();
                assert!(
                    batched.iter().any(|b| b == label),
                    "{profile:?} {sql}: {label}"
                );
            }
        }
    }
}

#[test]
fn a_runaway_join_meets_its_limits_while_it_runs() {
    for profile in EngineProfile::ALL {
        let db = fixture(profile);
        let mut s = db.connect();
        // 245³ rows would be 14.7 M: the budget stops the third factor's
        // join within a batch of the limit, and nothing stays charged
        let runaway = "SELECT a.w FROM big_no AS a, big_no AS b, big_no AS c";
        let idle = db.memory_used();
        let limit = idle + (1 << 20);
        db.set_memory_limit(Some(limit));
        let err = s.query(runaway).unwrap_err();
        assert!(
            err.to_string().contains("memory limit"),
            "{profile:?}: {err}"
        );
        assert!(db.memory_peak() <= limit, "{profile:?}");
        assert_eq!(db.memory_used(), idle, "{profile:?}");
        db.set_memory_limit(None);
        // the deadline is checked between batches of pairs, so the same
        // statement times out long before it could finish
        s.set_statement_timeout(Some(std::time::Duration::from_millis(20)));
        let started = std::time::Instant::now();
        let err = s.query(runaway).unwrap_err();
        assert!(
            matches!(err, sqldb::DbError::Timeout(_)),
            "{profile:?}: {err}"
        );
        assert!(
            started.elapsed() < std::time::Duration::from_secs(5),
            "{profile:?}"
        );
        assert_eq!(db.memory_used(), idle, "{profile:?}");
        s.set_statement_timeout(None);
        assert_eq!(
            rows(&mut s, "SELECT COUNT(*) FROM o, big_no").rows[0][0],
            Value::Int(8 * 257)
        );
    }
}

// ---------------------------------------------------------------------
// joins pass positions: chains, pads, self-reading DML, the budget
// ---------------------------------------------------------------------

/// `mid`: keys of `o` and of the inner tables, so that a chain
/// `o → mid → big` pads at both levels: `o` rows no `mid` row matches
/// (2.5, 77, NULL, -3) and `mid` rows whose `j` no inner row holds (NULL,
/// 0 and 25: only NULL keys, 7: only tombstones, 999).
fn chain_fixture(profile: EngineProfile) -> Database {
    let db = fixture(profile);
    let mut s = db.connect();
    s.execute("CREATE TABLE mid (k FLOAT, j INT)").unwrap();
    s.execute(
        "INSERT INTO mid VALUES (1.0, 3), (2.0, 7), (2.0, 999), (49.0, NULL), \
         (1.0, 11), (5.0, 3), (49.0, 0)",
    )
    .unwrap();
    db
}

#[test]
fn three_way_left_join_chains_pad_at_every_level_on_every_algorithm() {
    // both join orders: the small outer side probing `big_ix` (index
    // nested loop) or building on `big_no`, and `big` as the outer side of
    // a chain into the small tables; with residuals that read padded rows
    let chains = [
        "SELECT o.tag, m.j, b.w FROM o LEFT JOIN mid AS m ON o.k = m.k \
         LEFT JOIN {b} AS b ON b.k = m.j",
        "SELECT o.tag, m.j, b.w FROM o LEFT JOIN mid AS m ON o.k = m.k \
         LEFT JOIN {b} AS b ON b.k = m.j AND COALESCE(m.j, 0) + b.w > 100",
        "SELECT o.tag, m.j, b.k, b.w FROM o LEFT JOIN mid AS m ON m.k = o.k AND o.tag <> 'b' \
         LEFT JOIN {b} AS b ON m.j = b.k AND (m.k IS NULL OR b.w % 3 = 0)",
        "SELECT b.w, m.k, o.tag FROM {b} AS b LEFT JOIN mid AS m ON m.j = b.k \
         LEFT JOIN o ON o.k = m.k",
        "SELECT b.w, m.k, o.tag FROM {b} AS b LEFT JOIN mid AS m ON m.j = b.k \
         LEFT JOIN o ON o.k = m.k AND COALESCE(m.j, -1) < b.w AND o.tag <> 'a'",
    ];
    let mut first: Vec<Vec<Vec<Value>>> = Vec::new();
    for profile in EngineProfile::ALL {
        let db = chain_fixture(profile);
        let mut s = db.connect();
        let mut results = Vec::new();
        for (i, chain) in chains.iter().enumerate() {
            let sql = |t: &str| chain.replace("{b}", t);
            let (probed, d) = counting(&db, || sorted(rows(&mut s, &sql("big_ix"))));
            if i < 3 {
                assert!(d.index_lookups > 0, "{profile:?} {chain}: probes big_ix");
            }
            let scanned = sorted(rows(&mut s, &sql("big_no")));
            assert_eq!(probed, scanned, "{profile:?} {chain}");
            // pads on both levels: a row with no `mid` partner, and one
            // whose `mid` partner has no partner on the far side
            let null = |r: &Vec<Value>, c: usize| r[c].is_null();
            assert!(probed.iter().any(|r| null(r, 1) && null(r, 2)), "{chain}");
            assert!(probed.iter().any(|r| !null(r, 1) && null(r, 2)), "{chain}");
            results.push(probed);
        }
        // every profile's algorithms return the same rows
        match first.is_empty() {
            true => first = results,
            false => assert_eq!(first, results, "{profile:?}"),
        }
    }
}

#[test]
fn dml_reads_the_table_it_writes_before_its_first_write() {
    for profile in EngineProfile::ALL {
        for indexed in [false, true] {
            let db = Database::new(profile);
            let mut s = db.connect();
            s.execute("CREATE TABLE s (k INT, v FLOAT)").unwrap();
            if indexed {
                s.execute("CREATE INDEX s_k ON s (k)").unwrap();
            }
            let values: Vec<String> = (0..50).map(|k| format!("({k}, {k}.5)")).collect();
            s.execute(&format!("INSERT INTO s VALUES {}", values.join(", ")))
                .unwrap();
            let v_of = |s: &mut Session| -> Vec<Value> {
                let r = rows(s, "SELECT v FROM s ORDER BY k");
                r.rows.into_iter().map(|r| r[0].clone()).collect()
            };
            let label = format!("{profile:?} indexed={indexed}");
            // each row takes its predecessor's value as it was before the
            // statement, not as the statement rewrote it
            let shift = update_from(profile, "v = u.v", "s AS u", "{t}.k = u.k + 1");
            let done = s.execute(&shift.replace("{t}", "s")).unwrap();
            assert_eq!(done.rows_affected(), 49, "{label}");
            let want: Vec<Value> = (0..50)
                .map(|k: i64| Value::Float(k.max(1) as f64 - 0.5))
                .collect();
            assert_eq!(v_of(&mut s), want, "{label}");
            // an equi-join of the target with itself: every row doubles once
            let double = update_from(profile, "v = u.v * 2.0", "s AS u", "{t}.k = u.k");
            let done = s.execute(&double.replace("{t}", "s")).unwrap();
            assert_eq!(done.rows_affected(), 50, "{label}");
            let doubled: Vec<Value> = want
                .iter()
                .map(|v| Value::Float(v.as_f64().unwrap() * 2.0))
                .collect();
            assert_eq!(v_of(&mut s), doubled, "{label}");
            // an INSERT … SELECT over a self-join stores what the join
            // returned before the first row landed
            let copy = "INSERT INTO s SELECT a.k + 100, b.v FROM s AS a JOIN s AS b ON a.k = b.k";
            assert_eq!(s.execute(copy).unwrap().rows_affected(), 50, "{label}");
            let count = rows(&mut s, "SELECT COUNT(*) FROM s").rows[0][0].clone();
            assert_eq!(count, Value::Int(100), "{label}");
        }
    }
}

#[test]
fn a_hash_join_reads_its_inner_table_in_place() {
    // the inner table is the smaller side, so the hash join builds on its
    // key lane; the statement holds nothing but the output's position
    // lanes (4 bytes per row and joined table) on top of the heap
    let db = Database::new(EngineProfile::Postgres);
    let mut s = db.connect();
    s.execute("CREATE TABLE a (k INT, x INT)").unwrap();
    s.execute("CREATE TABLE b (k INT, w FLOAT)").unwrap();
    let a: Vec<String> = (0..2000).map(|i| format!("({}, {i})", i % 500)).collect();
    s.execute(&format!("INSERT INTO a VALUES {}", a.join(", ")))
        .unwrap();
    let b: Vec<String> = (0..500).map(|k| format!("({k}, {k}.25)")).collect();
    s.execute(&format!("INSERT INTO b VALUES {}", b.join(", ")))
        .unwrap();
    let sql = "SELECT COUNT(*), SUM(b.w) FROM a JOIN b ON a.k = b.k";
    let plan = rows(&mut s, &format!("EXPLAIN {sql}"));
    let plan: Vec<String> = plan.rows.iter().map(|r| r[0].to_string()).collect();
    assert!(plan.iter().any(|l| l.contains("HashJoin")), "{plan:?}");
    let heap = db.memory_used();
    assert!(
        db.memory_peak() <= heap,
        "the load left no transient charge"
    );
    let r = rows(&mut s, sql);
    assert_eq!(r.rows[0][0], Value::Int(2000));
    let lanes = 4 * 2 * 2000;
    let peak = db.memory_peak();
    assert!(
        peak <= heap + lanes,
        "peak {peak} over heap {heap} + {lanes}"
    );
    assert_eq!(
        db.memory_used(),
        heap,
        "the statement refunds its positions"
    );
}
