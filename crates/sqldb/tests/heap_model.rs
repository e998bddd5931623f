//! The column-major heap against a row model, and the DML guarantees it
//! keeps: statements are atomic, every index follows the rows, the memory
//! budget is charged before rows are stored, and a table survives an
//! export → import round trip.

use proptest::prelude::*;
use sqldb::{row_bytes, Database, EngineProfile, QueryResult, Row, Session, Value};

fn rows(s: &mut Session, sql: &str) -> Vec<Row> {
    s.query(sql).unwrap_or_else(|e| panic!("{sql}: {e}")).rows
}

#[test]
fn a_unique_index_violation_leaves_every_index_intact() {
    for profile in EngineProfile::ALL {
        let db = Database::new(profile);
        let mut s = db.connect();
        s.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
            .unwrap();
        s.execute("CREATE UNIQUE INDEX u ON t (v)").unwrap();
        s.execute("INSERT INTO t VALUES (1, 10)").unwrap();
        // the row the unique index rejects leaves no primary-key entry
        assert!(s.execute("INSERT INTO t VALUES (2, 10)").is_err());
        s.execute("INSERT INTO t VALUES (2, 20)").unwrap();
        // the update the unique index rejects keeps the row under its old
        // keys in both indexes
        s.execute("INSERT INTO t VALUES (3, 30)").unwrap();
        assert!(s
            .execute("UPDATE t SET id = 7, v = 30 WHERE id = 1")
            .is_err());
        let one = vec![vec![Value::Int(1), Value::Int(10)]];
        assert_eq!(
            rows(&mut s, "SELECT * FROM t WHERE id = 1"),
            one,
            "{profile:?}"
        );
        assert_eq!(
            rows(&mut s, "SELECT * FROM t WHERE v = 10"),
            one,
            "{profile:?}"
        );
        s.execute("INSERT INTO t VALUES (7, 70)").unwrap();
        assert!(
            s.execute("INSERT INTO t VALUES (9, 10)").is_err(),
            "{profile:?}: u still holds 10"
        );
        // with two unique indexes, a row the second rejects leaves nothing
        // in the first
        s.execute("CREATE TABLE w (a INT, b INT)").unwrap();
        s.execute("CREATE UNIQUE INDEX wa ON w (a)").unwrap();
        s.execute("CREATE UNIQUE INDEX wb ON w (b)").unwrap();
        s.execute("INSERT INTO w VALUES (1, 1)").unwrap();
        assert!(s.execute("INSERT INTO w VALUES (2, 1)").is_err());
        s.execute("INSERT INTO w VALUES (2, 2)").unwrap();
        assert_eq!(
            rows(&mut s, "SELECT * FROM w WHERE a = 2"),
            vec![vec![Value::Int(2), Value::Int(2)]],
            "{profile:?}"
        );
    }
}

/// Table `name`'s slots, live or dead.
fn slots(db: &Database, name: &str) -> usize {
    db.catalog().table(name).unwrap().read().slot_count()
}

#[test]
fn a_table_a_committed_delete_empties_gives_its_slots_back() {
    for profile in EngineProfile::ALL {
        let db = Database::new(profile);
        let mut s = db.connect();
        s.execute("CREATE TABLE src (id INT, v FLOAT)").unwrap();
        let values: Vec<String> = (0..1400).map(|i| format!("({i}, {i}.5)")).collect();
        s.execute(&format!("INSERT INTO src VALUES {}", values.join(", ")))
            .unwrap();
        s.execute("CREATE TABLE t (id INT, v FLOAT)").unwrap();
        s.execute("CREATE INDEX t_id ON t (id)").unwrap();
        let empty = db.memory_used();
        let mut filled = None;
        // a message slot's life: emptied, then refilled, many times over
        for round in 0..60 {
            s.execute("DELETE FROM t").unwrap();
            assert_eq!(slots(&db, "t"), 0, "{profile:?} round {round}");
            assert_eq!(db.memory_used(), empty, "{profile:?} round {round}");
            s.execute("INSERT INTO t SELECT id, v FROM src").unwrap();
            assert_eq!(slots(&db, "t"), 1400, "{profile:?} round {round}");
            let used = db.memory_used();
            assert_eq!(
                *filled.get_or_insert(used),
                used,
                "{profile:?} round {round}"
            );
        }
        let filled = filled.unwrap();
        let seek = "SELECT v FROM t WHERE id = 7";
        assert_eq!(rows(&mut s, seek), vec![vec![Value::Float(7.5)]]);
        // rolled back, the delete restores every row into its slot
        s.execute("BEGIN").unwrap();
        s.execute("DELETE FROM t").unwrap();
        s.execute("ROLLBACK").unwrap();
        assert_eq!(slots(&db, "t"), 1400, "{profile:?}");
        assert_eq!(db.memory_used(), filled, "{profile:?}");
        assert_eq!(rows(&mut s, seek), vec![vec![Value::Float(7.5)]]);
        // in a transaction the slots come back at COMMIT, once no undo
        // record can restore into them
        s.execute("BEGIN").unwrap();
        s.execute("DELETE FROM t WHERE id < 700").unwrap();
        s.execute("DELETE FROM t").unwrap();
        assert_eq!(slots(&db, "t"), 1400, "{profile:?}");
        s.execute("COMMIT").unwrap();
        assert_eq!(slots(&db, "t"), 0, "{profile:?}");
        assert_eq!(db.memory_used(), empty, "{profile:?}");
        // a partial delete keeps its dead slots: the table is not empty
        s.execute("INSERT INTO t SELECT id, v FROM src").unwrap();
        s.execute("DELETE FROM t WHERE id >= 700").unwrap();
        assert_eq!(slots(&db, "t"), 1400, "{profile:?}");
        s.execute("TRUNCATE TABLE t").unwrap();
        assert_eq!(slots(&db, "t"), 0, "{profile:?}");
        assert!(rows(&mut s, seek).is_empty());
    }
}

#[test]
fn create_table_as_infers_float_for_mixed_numbers_and_is_atomic() {
    for profile in EngineProfile::ALL {
        let db = Database::new(profile);
        let mut s = db.connect();
        s.execute("CREATE TABLE src (k INT, v FLOAT)").unwrap();
        s.execute("INSERT INTO src VALUES (1, 0.5), (2, 2.5)")
            .unwrap();
        s.execute("CREATE TABLE t2 AS SELECT k, CASE WHEN k = 1 THEN 1 ELSE v END AS x FROM src")
            .unwrap();
        assert_eq!(
            rows(&mut s, "SELECT k, x FROM t2 ORDER BY k"),
            vec![
                vec![Value::Int(1), Value::Float(1.0)],
                vec![Value::Int(2), Value::Float(2.5)]
            ],
            "{profile:?}"
        );
        // a row that does not fit the inferred column leaves no table
        let mixed =
            "CREATE TABLE t3 AS SELECT k, CASE WHEN k = 1 THEN 1 ELSE 'x' END AS x FROM src";
        assert!(s.execute(mixed).is_err(), "{profile:?}");
        assert!(s.query("SELECT * FROM t3").is_err(), "{profile:?}");
    }
}

#[test]
fn a_runaway_insert_select_meets_its_memory_limit_while_it_runs() {
    for profile in EngineProfile::ALL {
        let db = Database::new(profile);
        let mut s = db.connect();
        s.execute("CREATE TABLE src (v INT)").unwrap();
        s.execute("CREATE TABLE sink (v INT)").unwrap();
        for chunk in (0..10_000).collect::<Vec<i64>>().chunks(500) {
            let values: Vec<String> = chunk.iter().map(|v| format!("({v})")).collect();
            s.execute(&format!("INSERT INTO src VALUES {}", values.join(", ")))
                .unwrap();
        }
        // 10 000 rows of 40 B: the scan's lanes fit the limit, the copies
        // do not, and the append that would cross it is refused before the
        // heap grows
        let idle = db.memory_used();
        let limit = idle + 200_000;
        db.set_memory_limit(Some(limit));
        let err = s.execute("INSERT INTO sink SELECT v FROM src").unwrap_err();
        assert!(
            err.to_string().contains("memory limit"),
            "{profile:?}: {err}"
        );
        assert!(db.memory_peak() <= limit, "{profile:?}");
        assert_eq!(db.memory_used(), idle, "{profile:?}");
        db.set_memory_limit(None);
        assert_eq!(
            rows(&mut s, "SELECT COUNT(*) FROM sink"),
            vec![vec![Value::Int(0)]]
        );
    }
}

/// One statement against `t (id INT PRIMARY KEY, u INT, k FLOAT, s TEXT)`,
/// which has a unique index on `u` and a plain one on `k`; `src` has the
/// same columns and no index.
#[derive(Debug, Clone)]
enum Op {
    /// `INSERT INTO t VALUES …`, literals uncoerced.
    Values(Vec<[Value; 4]>),
    /// `INSERT INTO t SELECT id + off, u + off, k, s FROM src WHERE id < lim`.
    Select { off: i64, lim: i64 },
    /// `UPDATE t SET u = u + d WHERE id < lim`.
    ShiftU { d: i64, lim: i64 },
    /// `UPDATE t SET k = k, s = 'z' WHERE id = id` (a seek).
    SetK { k: Value, id: i64 },
    /// `UPDATE t SET id = to WHERE id = from`.
    MoveId { from: i64, to: i64 },
    /// `UPDATE t SET k = src.k, s = src.s FROM src WHERE t.id = src.id`.
    FromSrc,
    /// `DELETE FROM t WHERE k > lim`.
    DeleteAbove(f64),
    /// `DELETE FROM t WHERE id = id`.
    DeleteId(i64),
}

/// A step: one statement, or a transaction of several that commits or
/// rolls back.
#[derive(Debug, Clone)]
enum Step {
    One(Op),
    Txn(Vec<Op>, bool),
}

fn lit(v: &Value) -> String {
    match v {
        Value::Null => "NULL".into(),
        Value::Int(i) => i.to_string(),
        Value::Float(f) => format!("{f:?}"),
        Value::Text(s) => format!("'{s}'"),
        Value::Bool(b) => b.to_string(),
    }
}

impl Op {
    fn sql(&self, profile: EngineProfile) -> String {
        match self {
            Op::Values(rows) => {
                let row = |r: &[Value; 4]| {
                    format!("({})", r.iter().map(lit).collect::<Vec<_>>().join(", "))
                };
                let rows: Vec<String> = rows.iter().map(row).collect();
                format!("INSERT INTO t VALUES {}", rows.join(", "))
            }
            Op::Select { off, lim } => format!(
                "INSERT INTO t SELECT id + {off}, u + {off}, k, s FROM src WHERE id < {lim}"
            ),
            Op::ShiftU { d, lim } => format!("UPDATE t SET u = u + {d} WHERE id < {lim}"),
            Op::SetK { k, id } => format!("UPDATE t SET k = {}, s = 'z' WHERE id = {id}", lit(k)),
            Op::MoveId { from, to } => format!("UPDATE t SET id = {to} WHERE id = {from}"),
            // the MySQL family spells it `UPDATE t JOIN src ON … SET`
            Op::FromSrc if profile.dialect().supports_update_from => {
                "UPDATE t SET k = src.k, s = src.s FROM src WHERE t.id = src.id".into()
            }
            Op::FromSrc => "UPDATE t JOIN src ON t.id = src.id SET k = src.k, s = src.s".into(),
            Op::DeleteAbove(lim) => format!("DELETE FROM t WHERE k > {lim:?}"),
            Op::DeleteId(id) => format!("DELETE FROM t WHERE id = {id}"),
        }
    }
}

/// `v` stored in a column of `t` (0: INT key, 1: INT, 2: FLOAT, 3: TEXT).
fn coerce(col: usize, v: Value) -> Option<Value> {
    match (col, v) {
        (_, Value::Null) => Some(Value::Null),
        (0 | 1, Value::Int(i)) => Some(Value::Int(i)),
        (0 | 1, Value::Float(f)) if f.fract() == 0.0 => Some(Value::Int(f as i64)),
        (2, Value::Int(i)) => Some(Value::Float(i as f64)),
        (2, Value::Float(f)) => Some(Value::Float(f)),
        (3, Value::Text(s)) => Some(Value::Text(s)),
        _ => None,
    }
}

fn plus(v: &Value, d: i64) -> Value {
    match v {
        Value::Int(i) => Value::Int(i + d),
        _ => Value::Null,
    }
}

/// The live rows of `t` and `src`, in slot order.
#[derive(Debug, Clone, Default)]
struct Model {
    t: Vec<Row>,
    src: Vec<Row>,
}

impl Model {
    /// Whether row `r` may sit at position `at` of `t` (`None`: appended).
    /// NULL keys never collide under the unique index on `u`.
    fn admits(&self, r: &Row, at: Option<usize>) -> bool {
        let others = self.t.iter().enumerate().filter(|(i, _)| Some(*i) != at);
        let unique = |o: &Row| r[1].is_null() || o[1] != r[1];
        !r[0].is_null() && others.clone().all(|(_, o)| o[0] != r[0] && unique(o))
    }

    fn insert(&mut self, new: Vec<Vec<Value>>) -> bool {
        for r in new {
            let r: Option<Row> = r
                .into_iter()
                .enumerate()
                .map(|(c, v)| coerce(c, v))
                .collect();
            match r {
                Some(r) if self.admits(&r, None) => self.t.push(r),
                _ => return false,
            }
        }
        true
    }

    /// Rewrites the rows `matches` selects, in slot order, one at a time.
    fn update(
        &mut self,
        matches: impl Fn(&Row) -> bool,
        set: impl Fn(&Row) -> Option<Row>,
    ) -> bool {
        for i in 0..self.t.len() {
            if !matches(&self.t[i]) {
                continue;
            }
            let Some(new) = set(&self.t[i]) else {
                return false;
            };
            if new != self.t[i] {
                if !self.admits(&new, Some(i)) {
                    return false;
                }
                self.t[i] = new;
            }
        }
        true
    }

    /// Applies `op` atomically; false when the statement fails.
    fn apply(&mut self, op: &Op) -> bool {
        let before = self.t.clone();
        let ok = match op {
            Op::Values(rows) => self.insert(rows.iter().map(|r| r.to_vec()).collect()),
            Op::Select { off, lim } => {
                let picked = self
                    .src
                    .iter()
                    .filter(|r| matches!(r[0], Value::Int(i) if i < *lim));
                let shifted = picked.map(|r| {
                    vec![
                        plus(&r[0], *off),
                        plus(&r[1], *off),
                        r[2].clone(),
                        r[3].clone(),
                    ]
                });
                let new = shifted.collect();
                self.insert(new)
            }
            Op::ShiftU { d, lim } => self.update(
                |r| matches!(r[0], Value::Int(i) if i < *lim),
                |r| {
                    Some(vec![
                        r[0].clone(),
                        plus(&r[1], *d),
                        r[2].clone(),
                        r[3].clone(),
                    ])
                },
            ),
            Op::SetK { k, id } => self.update(
                |r| r[0] == Value::Int(*id),
                |r| {
                    Some(vec![
                        r[0].clone(),
                        r[1].clone(),
                        coerce(2, k.clone())?,
                        Value::Text("z".into()),
                    ])
                },
            ),
            Op::MoveId { from, to } => self.update(
                |r| r[0] == Value::Int(*from),
                |r| {
                    Some(vec![
                        Value::Int(*to),
                        r[1].clone(),
                        r[2].clone(),
                        r[3].clone(),
                    ])
                },
            ),
            Op::FromSrc => {
                let src = self.src.clone();
                let first = move |r: &Row| {
                    src.iter()
                        .find(|s| !s[0].is_null() && s[0] == r[0])
                        .cloned()
                };
                let first2 = first.clone();
                self.update(
                    move |r| first(r).is_some(),
                    move |r| {
                        let s = first2(r)?;
                        Some(vec![r[0].clone(), r[1].clone(), s[2].clone(), s[3].clone()])
                    },
                )
            }
            Op::DeleteAbove(lim) => {
                self.t
                    .retain(|r| !matches!(r[2], Value::Float(k) if k > *lim));
                true
            }
            Op::DeleteId(id) => {
                self.t.retain(|r| r[0] != Value::Int(*id));
                true
            }
        };
        if !ok {
            self.t = before;
        }
        ok
    }

    fn bytes(&self) -> u64 {
        self.t.iter().chain(&self.src).map(|r| row_bytes(r)).sum()
    }
}

fn value() -> BoxedStrategy<Value> {
    prop_oneof![
        (0i64..10).prop_map(Value::Int),
        (0i64..4).prop_map(|i| Value::Float(i as f64 * 0.5)),
        Just(Value::Null),
        Just(Value::Text("a".into())),
    ]
    .boxed()
}

fn row() -> BoxedStrategy<[Value; 4]> {
    // mostly storable rows, so that tables fill up; the rest fail
    let id = || (0i64..10).prop_map(Value::Int);
    let key = prop_oneof![
        id(),
        id(),
        id(),
        id(),
        Just(Value::Float(3.0)),
        Just(Value::Float(2.5)),
        Just(Value::Null),
    ];
    let u = || (0i64..16).prop_map(Value::Int);
    let u = prop_oneof![u(), u(), u(), Just(Value::Null)];
    let k = prop_oneof![
        (0i64..3).prop_map(Value::Int),
        (0i64..4).prop_map(|i| Value::Float(i as f64 - 0.5)),
        Just(Value::Null),
    ];
    let s = prop_oneof![
        Just(Value::Text("a".into())),
        Just(Value::Text("bb".into())),
        Just(Value::Null)
    ];
    (key, u, k, s).prop_map(|(a, b, c, d)| [a, b, c, d]).boxed()
}

fn op() -> BoxedStrategy<Op> {
    let values = || proptest::collection::vec(row(), 1..6).prop_map(Op::Values);
    prop_oneof![
        values(),
        values(),
        values(),
        (-3i64..6, 0i64..12).prop_map(|(off, lim)| Op::Select { off, lim }),
        (-2i64..3, 0i64..12).prop_map(|(d, lim)| Op::ShiftU { d, lim }),
        (value(), 0i64..10).prop_map(|(k, id)| Op::SetK { k, id }),
        (0i64..10, 0i64..10).prop_map(|(from, to)| Op::MoveId { from, to }),
        Just(Op::FromSrc),
        (0i64..3).prop_map(|lim| Op::DeleteAbove(lim as f64)),
        (0i64..10).prop_map(Op::DeleteId),
    ]
    .boxed()
}

fn step() -> BoxedStrategy<Step> {
    prop_oneof![
        op().prop_map(Step::One),
        op().prop_map(Step::One),
        (proptest::collection::vec(op(), 1..4), any::<bool>())
            .prop_map(|(ops, c)| Step::Txn(ops, c)),
    ]
    .boxed()
}

/// Holds the engine to the model: the slot-order scan, a seek on every
/// index for every key the model holds (and one it does not), the row
/// count and the bytes charged.
fn check(db: &Database, s: &mut Session, model: &Model, after: &str) -> Result<(), TestCaseError> {
    let scan = rows(s, "SELECT id, u, k, s FROM t");
    prop_assert_eq!(&scan, &model.t, "scan after {}", after);
    let count = rows(s, "SELECT COUNT(*) FROM t");
    prop_assert_eq!(
        count,
        vec![vec![Value::Int(model.t.len() as i64)]],
        "count after {}",
        after
    );
    for (col, name) in [(0, "id"), (1, "u"), (2, "k")] {
        let keys = model
            .t
            .iter()
            .map(|r| r[col].clone())
            .chain([Value::Int(99)]);
        for key in keys.filter(|k| !k.is_null()) {
            let sql = format!("SELECT id, u, k, s FROM t WHERE {name} = {}", lit(&key));
            // a seek returns its index's order, which is not slot order once
            // a key has moved
            let mut expect: Vec<Row> = model.t.iter().filter(|r| r[col] == key).cloned().collect();
            let mut found = rows(s, &sql);
            expect.sort();
            found.sort();
            prop_assert_eq!(found, expect, "{} after {}", sql, after);
        }
    }
    prop_assert_eq!(db.memory_used(), model.bytes(), "bytes after {}", after);
    Ok(())
}

fn run(
    profile: usize,
    batch: usize,
    src: &[[Value; 4]],
    steps: &[Step],
) -> Result<(), TestCaseError> {
    let profile = EngineProfile::ALL[profile];
    let db = Database::new(profile);
    db.set_batch_size([None, Some(1), Some(3)][batch]);
    let mut s = db.connect();
    s.execute("CREATE TABLE t (id INT PRIMARY KEY, u INT, k FLOAT, s TEXT)")
        .unwrap();
    s.execute("CREATE UNIQUE INDEX t_u ON t (u)").unwrap();
    s.execute("CREATE INDEX t_k ON t (k)").unwrap();
    s.execute("CREATE TABLE src (id INT, u INT, k FLOAT, s TEXT)")
        .unwrap();
    let mut model = Model::default();
    for r in src {
        let stored: Option<Row> = r
            .iter()
            .cloned()
            .enumerate()
            .map(|(c, v)| coerce(c, v))
            .collect();
        if let Some(stored) = stored {
            s.execute(&format!(
                "INSERT INTO src VALUES ({})",
                r.iter().map(lit).collect::<Vec<_>>().join(", ")
            ))
            .unwrap();
            model.src.push(stored);
        }
    }
    // start `t` from those of `src`'s rows that fit it, one at a time
    for r in src {
        let fill = Op::Values(vec![r.clone()]);
        let ok = s.execute(&fill.sql(profile)).is_ok();
        prop_assert_eq!(ok, model.apply(&fill), "{}", fill.sql(profile));
    }
    check(&db, &mut s, &model, "setup")?;
    for step in steps {
        match step {
            Step::One(op) => {
                let ok = s.execute(&op.sql(profile)).is_ok();
                prop_assert_eq!(ok, model.apply(op), "{}", op.sql(profile));
            }
            Step::Txn(ops, commit) => {
                let saved = model.clone();
                s.execute("BEGIN").unwrap();
                for op in ops {
                    let ok = s.execute(&op.sql(profile)).is_ok();
                    let sql = op.sql(profile);
                    prop_assert_eq!(ok, model.apply(op), "{} in a transaction", sql);
                }
                s.execute(if *commit { "COMMIT" } else { "ROLLBACK" })
                    .unwrap();
                if !commit {
                    model = saved;
                }
            }
        }
        check(&db, &mut s, &model, &format!("{step:?}"))?;
    }
    // the checkpoint format round-trips the heap
    let dump = db.export_table("t").unwrap();
    let copy = Database::new(profile);
    copy.import_table(&dump).unwrap();
    prop_assert_eq!(copy.export_table("t").unwrap(), dump.clone());
    let QueryResult { rows: copied, .. } =
        copy.connect().query("SELECT id, u, k, s FROM t").unwrap();
    prop_assert_eq!(copied, model.t);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn the_heap_matches_a_row_model(
        profile in 0usize..3,
        batch in 0usize..3,
        src in proptest::collection::vec(row(), 0..8),
        steps in proptest::collection::vec(step(), 1..20),
    ) {
        run(profile, batch, &src, &steps)?;
    }
}
