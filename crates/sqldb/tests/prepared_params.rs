//! Prepared execution against its literal twin. Each case runs statements
//! prepared with `?` placeholders on one database and, on a fresh database
//! of the same profile, the same texts with each `?` replaced by its value
//! rendered as a literal of the profile's dialect
//! (`sqldb::render::expr_to_sql`). Every statement's output or error, and
//! every table afterwards, must be identical, on all three profiles.
//!
//! Values are ones a literal round-trips: no NaN, no `i64::MIN` (its text
//! parses as the negation of an out-of-range literal), and ±Infinity only
//! where the dialect has an Infinity literal (MySQL-family engines render
//! the `1e308` sentinel).

use proptest::prelude::*;
use sqldb::ast::Expr;
use sqldb::render::expr_to_sql;
use sqldb::{Database, EngineProfile, Value};
use std::collections::HashMap;

/// One step of a case: plain SQL both sides run as it is, or a statement
/// the prepared side executes with `params` and the literal side runs
/// spliced.
enum Step<'a> {
    Sql(&'a str),
    Run(&'a str, Vec<Value>),
}

use Step::{Run, Sql};

/// `sql` with its `?`s replaced by `params`, rendered as literals of
/// `profile`'s dialect.
fn spliced(sql: &str, params: &[Value], profile: EngineProfile) -> String {
    let dialect = profile.dialect();
    let mut parts = sql.split('?');
    let mut out = parts.next().unwrap_or_default().to_owned();
    for (part, v) in parts.zip(params) {
        out += &expr_to_sql(&Expr::Literal(v.clone()), &dialect);
        out += part;
    }
    out
}

/// Each step's outcome, then a dump of every table, as comparable text
/// (`Debug` keeps `Int(1)` apart from `Float(1.0)` and `-0.0` from `0.0`).
fn run(profile: EngineProfile, steps: &[Step<'_>], prepared: bool) -> Vec<String> {
    let db = Database::new(profile);
    let mut s = db.connect();
    let mut handles = HashMap::new();
    let mut out = Vec::new();
    for step in steps {
        let result = match step {
            Sql(sql) => s.execute(sql),
            Run(sql, params) if prepared => {
                if !handles.contains_key(sql) {
                    handles.insert(*sql, s.prepare(sql).unwrap());
                }
                s.execute_prepared(&handles[sql], params)
            }
            Run(sql, params) => s.execute(&spliced(sql, params, profile)),
        };
        out.push(format!("{result:?}"));
    }
    let mut tables = db.table_names();
    tables.sort();
    for t in tables {
        out.push(format!("{:?}", db.export_table(&t).unwrap()));
    }
    out
}

/// Runs `steps` both ways on every profile and holds them equal.
fn check(steps: &[Step<'_>]) {
    for profile in EngineProfile::ALL {
        let prepared = run(profile, steps, true);
        let literal = run(profile, steps, false);
        assert_eq!(prepared, literal, "{profile}");
    }
}

const T: &str = "CREATE TABLE t (id INT PRIMARY KEY, v FLOAT, tag TEXT)";
const T_ROWS: &str = "INSERT INTO t VALUES (1, 1.5, 'a'), (2, 2.5, 'b'), (3, -0.5, 'a')";

fn int(i: i64) -> Value {
    Value::Int(i)
}

fn float(f: f64) -> Value {
    Value::Float(f)
}

fn text(s: &str) -> Value {
    Value::Text(s.to_owned())
}

#[test]
fn placeholders_in_where_set_and_insert_select() {
    check(&[
        Sql(T),
        Sql(T_ROWS),
        Sql("CREATE TABLE u (k INT, tag TEXT)"),
        Run(
            "SELECT id, v FROM t WHERE v > ? AND tag = ? ORDER BY id",
            vec![float(0.0), text("a")],
        ),
        Run("SELECT id FROM t WHERE id = ?", vec![int(2)]),
        Run("EXPLAIN SELECT v FROM t WHERE id = ?", vec![int(2)]),
        Run("EXPLAIN UPDATE t SET v = 0.0 WHERE id = ?", vec![int(3)]),
        Run("SELECT id FROM t WHERE ? = id", vec![float(3.0)]),
        Run(
            "SELECT id, v * ? FROM t WHERE v < ? OR id = ?",
            vec![float(2.0), float(0.0), int(1)],
        ),
        Run(
            "SELECT tag, COUNT(*) + ? FROM t GROUP BY tag HAVING MIN(v) < ?",
            vec![int(10), float(2.0)],
        ),
        Run(
            "UPDATE t SET v = v * ?, tag = ? WHERE id = ?",
            vec![float(-2.0), text("c"), int(2)],
        ),
        Run(
            "UPDATE t SET v = ? WHERE tag = ?",
            vec![float(-0.0), text("a")],
        ),
        Run("DELETE FROM t WHERE id = ?", vec![int(3)]),
        Run(
            "INSERT INTO u SELECT id + ?, ? FROM t WHERE id < ?",
            vec![int(100), text("x'y"), int(3)],
        ),
        Run("SELECT k, tag FROM u WHERE k > ? ORDER BY k", vec![int(0)]),
    ]);
}

#[test]
fn values_lists_mix_placeholders_literals_and_expressions() {
    check(&[
        Sql("CREATE TABLE w (a INT, b INT, c FLOAT)"),
        Sql(T),
        Run(
            "INSERT INTO w VALUES (?, 1 + 2, -?)",
            vec![int(7), float(2.5)],
        ),
        Run(
            "INSERT INTO w VALUES (?, ?, ?), (4, ? * 2, 0.5), (-?, 5, ? + 1)",
            vec![int(1), int(-2), int(3), int(6), int(9), float(1e20)],
        ),
        // an INT into a FLOAT column, an integral FLOAT into an INT column
        Run(
            "INSERT INTO w VALUES (?, ?, ?)",
            vec![float(8.0), int(i64::MAX), int(-4)],
        ),
        // column lists: reordered, partial (the rest NULL), a column named twice
        Run(
            "INSERT INTO t (tag, id) VALUES (?, ?), (?, ?)",
            vec![text("p"), int(1), text(""), int(2)],
        ),
        Run(
            "INSERT INTO w (c, a) VALUES (?, ?)",
            vec![float(f64::MIN_POSITIVE), int(11)],
        ),
        Run(
            "INSERT INTO w (c, a, c) VALUES (?, ?, ?)",
            vec![float(1.0), int(12), float(2.0)],
        ),
        // NULL parameters, in VALUES, SET and WHERE
        Run(
            "INSERT INTO t VALUES (?, ?, ?)",
            vec![int(3), Value::Null, Value::Null],
        ),
        Run("SELECT id FROM t WHERE tag = ?", vec![Value::Null]),
        Run("UPDATE t SET v = ? WHERE id = ?", vec![Value::Null, int(1)]),
        Run(
            "SELECT a, b, c FROM w WHERE b IS NOT NULL OR ? IS NULL",
            vec![Value::Null],
        ),
    ]);
}

#[test]
fn infinity_parameters_where_the_dialect_has_the_literal() {
    // MySQL-family engines render the 1e308 sentinel for Infinity, so only
    // the PostgreSQL profile round-trips it
    let steps = [
        Sql("CREATE TABLE w (a INT, c FLOAT)"),
        Run(
            "INSERT INTO w VALUES (?, ?), (?, ?)",
            vec![
                int(1),
                float(f64::INFINITY),
                int(2),
                float(f64::NEG_INFINITY),
            ],
        ),
        Run("SELECT a FROM w WHERE c < ?", vec![float(f64::INFINITY)]),
    ];
    let profile = EngineProfile::Postgres;
    assert_eq!(run(profile, &steps, true), run(profile, &steps, false));
}

#[test]
fn errors_match_the_literal_path() {
    check(&[
        Sql(T),
        Sql(T_ROWS),
        Sql("CREATE TABLE w (a INT, b INT, c FLOAT)"),
        // TEXT into INT, NULL and duplicate primary keys, each after a
        // row that stores
        Run(
            "INSERT INTO t VALUES (?, ?, ?), (?, ?, ?)",
            vec![
                int(9),
                float(0.0),
                text("k"),
                text("x"),
                float(0.0),
                text("k"),
            ],
        ),
        Run(
            "INSERT INTO t VALUES (?, 1.0, 'a'), (?, 2.0, 'b')",
            vec![int(10), Value::Null],
        ),
        Run(
            "INSERT INTO t VALUES (?, 1.0, 'a'), (?, 2.0, 'b')",
            vec![int(11), int(1)],
        ),
        // a FLOAT that is not integral into an INT column
        Run(
            "INSERT INTO w VALUES (?, ?, ?)",
            vec![float(1.5), int(0), float(0.0)],
        ),
        // a cell that fails to evaluate wins over an earlier row's type error
        Run(
            "INSERT INTO w VALUES (?, 1, 1.0), (1, 1 / ?, 1.0)",
            vec![text("no"), int(0)],
        ),
        // wrong arity, with and without a column list; an unknown column
        Run(
            "INSERT INTO w (a, b) VALUES (?, ?, ?)",
            vec![int(1), int(2), int(3)],
        ),
        Run(
            "INSERT INTO w VALUES (?, ?), (?, ?, ?)",
            vec![int(1), int(2), int(3), int(4), float(5.0)],
        ),
        Run(
            "INSERT INTO w VALUES (?, ?, ?), (?, ?)",
            vec![int(1), int(2), float(3.0), int(4), int(5)],
        ),
        Run(
            "INSERT INTO w (a, nope) VALUES (?, ?)",
            vec![int(1), int(2)],
        ),
        Run("UPDATE t SET v = ? WHERE id = ?", vec![text("x"), int(1)]),
        Run("SELECT id / ? FROM t", vec![int(0)]),
    ]);
}

#[test]
fn a_handle_reprepared_after_ddl_binds_its_parameters() {
    let select = "SELECT * FROM t WHERE id = ?";
    check(&[
        Sql(T),
        Sql(T_ROWS),
        Run(select, vec![int(2)]),
        Run(
            "INSERT INTO t (id, tag) VALUES (?, ?)",
            vec![int(4), text("d")],
        ),
        Sql("DROP TABLE t"),
        Sql("CREATE TABLE t (id INT, tag TEXT, extra FLOAT)"),
        Sql("CREATE INDEX t_id ON t (id)"),
        Run(
            "INSERT INTO t (id, tag) VALUES (?, ?)",
            vec![int(4), text("e")],
        ),
        Run(select, vec![int(4)]),
        Run(select, vec![float(2.0)]),
    ]);
}

#[test]
fn parameter_count_error_is_unchanged() {
    let db = Database::new(EngineProfile::Postgres);
    let mut s = db.connect();
    s.execute(T).unwrap();
    let h = s
        .prepare("SELECT id FROM t WHERE id = ? AND v > ?")
        .unwrap();
    for bound in [vec![int(1)], vec![int(1), float(0.0), int(2)]] {
        let err = s.execute_prepared(&h, &bound).unwrap_err();
        let want = format!(
            "invalid statement: prepared statement takes 2 parameter(s) but {} were bound",
            bound.len()
        );
        assert_eq!(err.to_string(), want);
    }
    // a placeholder outside a prepared statement is still unbound
    let err = s.execute("SELECT id FROM t WHERE id = ?").unwrap_err();
    assert!(err.to_string().contains("unbound parameter ?1"), "{err}");
    // a view outlives its execution, so it takes no placeholders
    let view = s.prepare("CREATE VIEW v AS SELECT id FROM t WHERE id = ?");
    assert!(s.execute_prepared(&view.unwrap(), &[int(1)]).is_err());
}

#[test]
fn a_placeholder_key_on_an_indexed_column_seeks() {
    for profile in EngineProfile::ALL {
        let db = Database::new(profile);
        let mut s = db.connect();
        s.execute(T).unwrap();
        s.execute("CREATE INDEX t_tag ON t (tag)").unwrap();
        let rows: Vec<String> = (0..100)
            .map(|i| format!("({i}, {i}.5, 'g{}')", i % 10))
            .collect();
        s.execute(&format!("INSERT INTO t VALUES {}", rows.join(", ")))
            .unwrap();
        // `visited`: the rows under the key, whatever else the WHERE drops
        for (sql, param, visited) in [
            ("SELECT v FROM t WHERE id = ?", int(42), 1),
            ("SELECT id FROM t WHERE tag = ? AND id > 5", text("g3"), 10),
            ("UPDATE t SET v = 0.0 WHERE id = ?", int(7), 1),
            ("DELETE FROM t WHERE tag = ?", text("g9"), 10),
        ] {
            let h = s.prepare(sql).unwrap();
            let before = db.stats();
            s.execute_prepared(&h, &[param]).unwrap();
            let after = db.stats();
            assert_eq!(after.index_lookups - before.index_lookups, 1, "{sql}");
            assert_eq!(after.rows_scanned - before.rows_scanned, visited, "{sql}");
        }
    }
}

/// A bad value for a 512-row chunk of `p (k INT PRIMARY KEY, x INT, y
/// FLOAT)`: TEXT into INT, NULL into the primary key, or a key that is
/// already there.
#[derive(Debug, Clone, Copy)]
enum Bad {
    Text,
    NullKey,
    DuplicateKey,
}

fn chunk(bad: &[(usize, Bad)]) -> Vec<Value> {
    let mut params = Vec::with_capacity(512 * 3);
    for i in 0..512i64 {
        params.extend([int(1000 + i), int(i * 7 % 13), float(i as f64 / 4.0)]);
    }
    for &(row, kind) in bad {
        match kind {
            Bad::Text => params[row * 3 + 1] = text("seven"),
            Bad::NullKey => params[row * 3] = Value::Null,
            Bad::DuplicateKey => params[row * 3] = int(5),
        }
    }
    params
}

fn arb_bad() -> impl Strategy<Value = (usize, Bad)> {
    let kind = prop_oneof![Just(Bad::Text), Just(Bad::NullKey), Just(Bad::DuplicateKey)];
    (0..512usize, kind)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The first failing row of a 512-row chunk, whichever kind of bad
    /// value it holds, fails the statement the literal path fails it with,
    /// and the rows before it are taken back with it; a clean chunk is
    /// stored whole.
    #[test]
    fn a_bad_row_in_a_chunk_fails_as_on_the_literal_path(
        bad in proptest::collection::vec(arb_bad(), 0..3),
    ) {
        let tuple = "(?, ?, ?)";
        let sql = format!("INSERT INTO p (k, x, y) VALUES {tuple}{}", format!(", {tuple}").repeat(511));
        let steps = [
            Sql("CREATE TABLE p (k INT PRIMARY KEY, x INT, y FLOAT)"),
            Sql("INSERT INTO p VALUES (5, 0, 0.0)"),
            Run(&sql, chunk(&bad)),
            Run("SELECT COUNT(*), SUM(x) FROM p WHERE k >= ?", vec![int(1000)]),
        ];
        for profile in EngineProfile::ALL {
            prop_assert_eq!(run(profile, &steps, true), run(profile, &steps, false));
        }
    }
}
