//! The typed write path: `UPDATE` finds changed rows with lane compares and
//! writes only the assigned columns, `DELETE` flips liveness, and both keep
//! every index, the undo log and the memory budget exact.

use proptest::prelude::*;
use sqldb::batch::Col;
use sqldb::{Database, EngineProfile, Row, Session, Value};
use std::collections::BTreeMap;

fn rows(s: &mut Session, sql: &str) -> Vec<Row> {
    s.query(sql).unwrap_or_else(|e| panic!("{sql}: {e}")).rows
}

fn run(s: &mut Session, sql: &str) {
    s.execute(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
}

/// Lane values of one layout: every non-NULL value of the first three has
/// one type, so [`Col::from_values`] stores them typed; the last mixes.
fn layout(layout: usize) -> Vec<Value> {
    let f = Value::Float;
    match layout {
        0 => vec![Value::Int(-1), Value::Int(0), Value::Int(2), Value::Null],
        1 => vec![
            f(0.0),
            f(-0.0),
            f(f64::NAN),
            f(-f64::NAN),
            f(1.5),
            Value::Null,
        ],
        2 => vec![Value::Bool(true), Value::Bool(false), Value::Null],
        _ => vec!["a".into(), "b".into(), Value::Int(1), f(1.0), Value::Null],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Typed change detection is `Value`'s `!=`, lane by lane, in every
    /// pair of layouts, and only ever sets flags.
    #[test]
    fn typed_change_detection_is_value_inequality(
        layouts in (0usize..4, 0usize..4),
        picks in proptest::collection::vec((0usize..6, 0usize..6, any::<bool>()), 0..12),
    ) {
        let (a, b) = (layout(layouts.0), layout(layouts.1));
        let new: Vec<Value> = picks.iter().map(|p| a[p.0 % a.len()].clone()).collect();
        let old: Vec<Value> = picks.iter().map(|p| b[p.1 % b.len()].clone()).collect();
        let before: Vec<bool> = picks.iter().map(|p| p.2).collect();
        let mut changed = before.clone();
        Col::from_values(new.clone()).mark_changed(&Col::from_values(old.clone()), &mut changed);
        for lane in 0..new.len() {
            let expect = before[lane] || new[lane] != old[lane];
            prop_assert_eq!(changed[lane], expect, "lane {}: {:?} vs {:?}", lane, new[lane], old[lane]);
        }
    }
}

#[test]
fn change_detection_follows_value_equality_on_the_edge_cases() {
    let col = |v: Vec<Value>| Col::from_values(v);
    let cases = [
        (Value::Float(-0.0), Value::Float(0.0), true),
        (Value::Float(f64::NAN), Value::Float(f64::NAN), false),
        (Value::Null, Value::Float(0.0), true),
        (Value::Int(0), Value::Null, true),
        (Value::Null, Value::Null, false),
    ];
    for (new, old, differs) in cases {
        let mut changed = [false];
        col(vec![new.clone()]).mark_changed(&col(vec![old.clone()]), &mut changed);
        assert_eq!(changed[0], differs, "{new:?} vs {old:?}");
    }
}

#[test]
fn a_rolled_back_delete_of_every_row_restores_rows_indexes_and_bytes() {
    for profile in EngineProfile::ALL {
        let db = Database::new(profile);
        let mut s = db.connect();
        run(
            &mut s,
            "CREATE TABLE t (id INT PRIMARY KEY, k INT, note TEXT)",
        );
        run(&mut s, "CREATE INDEX t_k ON t (k)");
        let values: Vec<String> = (0..60)
            .map(|i| format!("({i}, {}, 'n{i}')", i % 3))
            .collect();
        run(
            &mut s,
            &format!("INSERT INTO t VALUES {}", values.join(", ")),
        );
        let (before, bytes) = (rows(&mut s, "SELECT * FROM t"), db.memory_used());
        run(&mut s, "BEGIN");
        run(&mut s, "DELETE FROM t");
        assert!(rows(&mut s, "SELECT * FROM t WHERE k = 1").is_empty());
        assert!(rows(&mut s, "SELECT * FROM t WHERE id = 7").is_empty());
        run(&mut s, "ROLLBACK");
        assert_eq!(rows(&mut s, "SELECT * FROM t"), before, "{profile:?}");
        assert_eq!(db.memory_used(), bytes, "{profile:?}");
        for i in 0..60 {
            let found = rows(&mut s, &format!("SELECT note FROM t WHERE id = {i}"));
            assert_eq!(
                found,
                vec![vec![Value::Text(format!("n{i}"))]],
                "{profile:?}"
            );
        }
        for k in 0..3 {
            let found = rows(&mut s, &format!("SELECT id FROM t WHERE k = {k}"));
            assert_eq!(found.len(), 20, "{profile:?}: k = {k}");
            assert!(found.iter().all(|r| r[0].as_i64().unwrap() % 3 == k));
        }
        // the key maps were emptied wholesale, not left stale
        run(&mut s, "DELETE FROM t");
        run(&mut s, "INSERT INTO t VALUES (7, 1, 'again')");
        assert_eq!(
            rows(&mut s, "SELECT id FROM t WHERE k = 1"),
            vec![vec![Value::Int(7)]]
        );
    }
}

#[test]
fn a_rolled_back_update_of_unindexed_columns_restores_the_exact_lanes() {
    let db = Database::new(EngineProfile::Postgres);
    let mut s = db.connect();
    run(
        &mut s,
        "CREATE TABLE t (id INT PRIMARY KEY, x FLOAT, n INT, tag TEXT)",
    );
    run(
        &mut s,
        "INSERT INTO t VALUES (1, -0.0, NULL, 'a'), (2, 0.0 / 0.0, 5, NULL), \
         (3, NULL, 6, 'c'), (4, 2.5, NULL, NULL)",
    );
    let (before, bytes) = (db.export_table("t").unwrap(), db.memory_used());
    run(&mut s, "BEGIN");
    run(
        &mut s,
        "UPDATE t SET x = 0.0, n = 7, tag = 'zzzzzzzz' WHERE id < 4",
    );
    run(&mut s, "UPDATE t SET x = NULL, n = NULL, tag = 'q'");
    assert_eq!(
        rows(&mut s, "SELECT COUNT(*) FROM t WHERE tag = 'q'"),
        vec![vec![Value::Int(4)]]
    );
    run(&mut s, "ROLLBACK");
    assert_eq!(db.export_table("t").unwrap(), before);
    assert_eq!(db.memory_used(), bytes);
    let x = rows(&mut s, "SELECT x FROM t WHERE id = 1");
    assert!(matches!(x[0][0], Value::Float(f) if f == 0.0 && f.is_sign_negative()));
    let x = rows(&mut s, "SELECT x FROM t WHERE id = 2");
    assert!(matches!(x[0][0], Value::Float(f) if f.is_nan()));
    // `-0.0` is a change from `0.0`, and an equal NaN is not
    assert_eq!(
        s.execute("UPDATE t SET x = 0.0 WHERE id = 1")
            .unwrap()
            .rows_affected(),
        1
    );
    assert_eq!(
        s.execute("UPDATE t SET x = 0.0 / 0.0 WHERE id = 2")
            .unwrap()
            .rows_affected(),
        0
    );
    assert_eq!(
        s.execute("UPDATE t SET n = NULL WHERE id = 4")
            .unwrap()
            .rows_affected(),
        0
    );
}

#[test]
fn update_from_with_duplicate_keys_keeps_the_first_from_row() {
    for profile in EngineProfile::ALL {
        let db = Database::new(profile);
        let mut s = db.connect();
        run(&mut s, "CREATE TABLE t (id INT PRIMARY KEY, v FLOAT)");
        run(&mut s, "INSERT INTO t VALUES (1, 0.0), (2, 0.0), (3, 0.0)");
        run(&mut s, "CREATE TABLE src (id INT, v FLOAT)");
        run(
            &mut s,
            "INSERT INTO src VALUES (2, 20.0), (1, 10.0), (2, 21.0), (1, 11.0), (2, 22.0)",
        );
        let sql = if profile.dialect().supports_update_from {
            "UPDATE t SET v = src.v FROM src WHERE t.id = src.id"
        } else {
            "UPDATE t JOIN src ON t.id = src.id SET v = src.v"
        };
        assert_eq!(s.execute(sql).unwrap().rows_affected(), 2, "{profile:?}");
        let expect: Vec<Row> = [(1, 10.0), (2, 20.0), (3, 0.0)]
            .iter()
            .map(|&(id, v)| vec![Value::Int(id), Value::Float(v)])
            .collect();
        assert_eq!(
            rows(&mut s, "SELECT * FROM t ORDER BY id"),
            expect,
            "{profile:?}"
        );
    }
}

#[test]
fn a_set_list_that_assigns_a_column_twice_is_rejected() {
    let db = Database::new(EngineProfile::Postgres);
    let mut s = db.connect();
    run(&mut s, "CREATE TABLE t (id INT PRIMARY KEY, x INT)");
    run(&mut s, "INSERT INTO t VALUES (1, 0), (2, 0)");
    for sql in [
        "UPDATE t SET x = 1 / 0, x = 2",
        "UPDATE t SET x = 1, x = 2 WHERE id = 1",
    ] {
        let err = s.execute(sql).unwrap_err().to_string();
        assert!(err.contains("column x is assigned twice"), "{sql}: {err}");
    }
    assert_eq!(
        rows(&mut s, "SELECT id, x FROM t ORDER BY id"),
        vec![
            vec![Value::Int(1), Value::Int(0)],
            vec![Value::Int(2), Value::Int(0)]
        ]
    );
}

#[test]
fn moving_primary_keys_checks_rows_in_order_and_keeps_every_index() {
    let db = Database::new(EngineProfile::Postgres);
    let mut s = db.connect();
    run(&mut s, "CREATE TABLE up (id INT PRIMARY KEY, k INT)");
    run(&mut s, "CREATE INDEX up_k ON up (k)");
    run(&mut s, "INSERT INTO up VALUES (1, 10), (2, 20), (3, 30)");
    // the first row moves onto the second's key before the second has moved
    let err = s
        .execute("UPDATE up SET id = id + 1, k = k + 1")
        .unwrap_err();
    assert!(err.to_string().contains("duplicate primary key 2"), "{err}");
    for (id, k) in [(1, 10), (2, 20), (3, 30)] {
        let row = vec![vec![Value::Int(id), Value::Int(k)]];
        assert_eq!(
            rows(&mut s, &format!("SELECT * FROM up WHERE id = {id}")),
            row
        );
        assert_eq!(
            rows(&mut s, &format!("SELECT * FROM up WHERE k = {k}")),
            row
        );
    }
    assert!(rows(&mut s, "SELECT * FROM up WHERE k = 11").is_empty());
    // stored the other way round, every row moves into a key just vacated
    run(&mut s, "CREATE TABLE down (id INT PRIMARY KEY, k INT)");
    run(&mut s, "INSERT INTO down VALUES (3, 30), (2, 20), (1, 10)");
    assert_eq!(
        s.execute("UPDATE down SET id = id + 1")
            .unwrap()
            .rows_affected(),
        3
    );
    let ids = rows(&mut s, "SELECT id FROM down WHERE id > 1 AND id < 5");
    assert_eq!(ids.len(), 3);
    assert!(rows(&mut s, "SELECT * FROM down WHERE id = 1").is_empty());
    assert_eq!(
        rows(&mut s, "SELECT k FROM down WHERE id = 4"),
        vec![vec![Value::Int(30)]]
    );
}

/// The rows of `m` and, per `__to` key, the ids a seek returns, in order:
/// a key's slots grow at the end in row order and lose rows in place.
#[derive(Default)]
struct Model {
    rows: Vec<(i64, i64)>,
    seeks: BTreeMap<i64, Vec<i64>>,
}

impl Model {
    fn insert(&mut self, ids: std::ops::Range<i64>, to: impl Fn(i64) -> i64) {
        for id in ids {
            self.rows.push((id, to(id)));
            self.seeks.entry(to(id)).or_default().push(id);
        }
    }

    fn delete(&mut self, gone: impl Fn(&(i64, i64)) -> bool) {
        let ids: Vec<i64> = self.rows.iter().filter(|r| gone(r)).map(|r| r.0).collect();
        self.rows.retain(|r| !gone(r));
        self.seeks
            .values_mut()
            .for_each(|v| v.retain(|id| !ids.contains(id)));
    }

    fn rekey(&mut self, pick: impl Fn(i64) -> bool, to: i64) {
        for row in self.rows.iter_mut().filter(|r| pick(r.0) && r.1 != to) {
            self.seeks
                .get_mut(&row.1)
                .unwrap()
                .retain(|&id| id != row.0);
            self.seeks.entry(to).or_default().push(row.0);
            row.1 = to;
        }
    }
}

#[derive(Debug, Clone)]
enum Op {
    Insert(i64),
    DeleteKey(i64),
    DeleteMod(i64),
    Rekey(i64, i64),
    Rollback(Box<Op>),
}

fn op() -> BoxedStrategy<Op> {
    let base = prop_oneof![
        (1i64..40).prop_map(Op::Insert),
        (0i64..3).prop_map(Op::DeleteKey),
        (2i64..5).prop_map(Op::DeleteMod),
        ((2i64..5), (0i64..3)).prop_map(|(m, to)| Op::Rekey(m, to)),
    ];
    let base = base.boxed();
    let rolled_back = base.clone().prop_map(|o| Op::Rollback(Box::new(o)));
    prop_oneof![base.clone(), base, rolled_back].boxed()
}

fn apply(s: &mut Session, model: &mut Model, next: &mut i64, op: &Op) {
    match op {
        Op::Insert(n) => {
            let ids = *next..*next + n;
            let values: Vec<String> = ids
                .clone()
                .map(|id| format!("({id}, {})", id % 2))
                .collect();
            run(s, &format!("INSERT INTO m VALUES {}", values.join(", ")));
            model.insert(ids, |id| id % 2);
            *next += n;
        }
        Op::DeleteKey(k) => {
            run(s, &format!("DELETE FROM m WHERE __to = {k}"));
            model.delete(|r| r.1 == *k);
        }
        Op::DeleteMod(m) => {
            run(s, &format!("DELETE FROM m WHERE id % {m} = 0"));
            model.delete(|r| r.0 % m == 0);
        }
        Op::Rekey(m, to) => {
            run(s, &format!("UPDATE m SET __to = {to} WHERE id % {m} = 1"));
            model.rekey(|id| id % m == 1, *to);
        }
        Op::Rollback(inner) => {
            run(s, "BEGIN");
            let (mut scratch, mut n) = (Model::default(), *next);
            apply(s, &mut scratch, &mut n, inner);
            run(s, "ROLLBACK");
            // a rollback restores the rows, and with them their keys
            let restored = rows(s, "SELECT id, __to FROM m");
            let mut expect: Vec<(i64, i64)> = model.rows.clone();
            expect.sort();
            let mut got: Vec<(i64, i64)> = restored
                .iter()
                .map(|r| (r[0].as_i64().unwrap(), r[1].as_i64().unwrap()))
                .collect();
            got.sort();
            assert_eq!(got, expect, "after rolling back {inner:?}");
            // the order under a key may differ after a rollback: follow it
            for (k, ids) in model.seeks.iter_mut() {
                let seek = rows(s, &format!("SELECT id FROM m WHERE __to = {k}"));
                *ids = seek.iter().map(|r| r[0].as_i64().unwrap()).collect();
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Batch deletes and re-keys under an index with few keys leave every
    /// seek returning the model's ids, in the model's order.
    #[test]
    fn low_cardinality_index_seeks_follow_a_row_model(ops in proptest::collection::vec(op(), 1..16)) {
        let db = Database::new(EngineProfile::Postgres);
        let mut s = db.connect();
        run(&mut s, "CREATE TABLE m (id INT, __to INT)");
        run(&mut s, "CREATE INDEX m_ito ON m (__to)");
        let (mut model, mut next) = (Model::default(), 0);
        for op in &ops {
            apply(&mut s, &mut model, &mut next, op);
            for k in 0..3 {
                let seek = rows(&mut s, &format!("SELECT id FROM m WHERE __to = {k}"));
                let ids: Vec<i64> = seek.iter().map(|r| r[0].as_i64().unwrap()).collect();
                let expect = model.seeks.get(&k).cloned().unwrap_or_default();
                prop_assert_eq!(ids, expect, "__to = {} after {:?}", k, op);
            }
        }
    }
}

#[test]
fn a_unique_index_admits_any_number_of_null_keys() {
    for profile in EngineProfile::ALL {
        let db = Database::new(profile);
        let mut s = db.connect();
        run(&mut s, "CREATE TABLE u (id INT PRIMARY KEY, a INT)");
        run(&mut s, "INSERT INTO u VALUES (1, NULL), (2, NULL), (3, 30)");
        run(&mut s, "CREATE UNIQUE INDEX u_a ON u (a)");
        run(&mut s, "INSERT INTO u VALUES (4, NULL)");
        run(&mut s, "INSERT INTO u VALUES (5, 50), (6, 60)");
        run(&mut s, "UPDATE u SET a = NULL WHERE id = 5 OR id = 6");
        let nulls = "SELECT id FROM u WHERE a IS NULL";
        let plan = rows(&mut s, &format!("EXPLAIN {nulls}"));
        assert_eq!(
            plan[0][0],
            Value::Text("IndexSeek u using u_a (a IS NULL)".into()),
            "{profile:?}"
        );
        let ids: Vec<Row> = [1, 2, 4, 5, 6].map(|i| vec![Value::Int(i)]).into();
        let mut got = rows(&mut s, nulls);
        got.sort();
        assert_eq!(got, ids, "{profile:?}");
        for dup in [
            "INSERT INTO u VALUES (7, 30)",
            "UPDATE u SET a = 30 WHERE id = 1",
        ] {
            let err = s.execute(dup).unwrap_err().to_string();
            assert!(
                err.contains("unique index u_a violated"),
                "{profile:?} {dup}: {err}"
            );
        }
        assert_eq!(rows(&mut s, "SELECT COUNT(*) FROM u")[0][0], Value::Int(6));
    }
    let db = Database::new(EngineProfile::Postgres);
    let mut s = db.connect();
    run(&mut s, "CREATE TABLE v (a INT)");
    run(&mut s, "INSERT INTO v VALUES (1), (1)");
    let err = s.execute("CREATE UNIQUE INDEX v_a ON v (a)").unwrap_err();
    assert!(
        err.to_string().contains("unique index v_a violated"),
        "{err}"
    );
}
