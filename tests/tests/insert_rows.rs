//! `sqloop::common::insert_rows`, the one path rows take from the
//! middleware into an engine (edge loads, checkpoint restores, TEXT-key
//! partition fills): every case runs on every engine profile over a local
//! connection, a TCP connection to an in-process server, and an epoch-free
//! connection whose statement handles splice literals into the text.

use dbcp::{Connection, Driver, LocalDriver, Server, TcpDriver};
use sqldb::{
    DataType, Database, DbError, DbResult, EngineProfile, IsolationLevel, StmtOutput, Value,
};
use sqloop::checkpoint::{dump_table_sql, restore_table_sql};
use sqloop::common::{insert_rows, INSERT_CHUNK_ROWS};
use sqloop::SqloopError;

/// A connection that keeps every trait default: it refuses to prepare and
/// reports `prepared_epoch` 0, so every statement handle splices literals.
struct UnpreparedConnection(Box<dyn Connection>);

impl Connection for UnpreparedConnection {
    fn execute(&mut self, sql: &str) -> DbResult<StmtOutput> {
        self.0.execute(sql)
    }

    fn begin(&mut self) -> DbResult<()> {
        self.0.begin()
    }

    fn commit(&mut self) -> DbResult<()> {
        self.0.commit()
    }

    fn rollback(&mut self) -> DbResult<()> {
        self.0.rollback()
    }

    fn set_isolation(&mut self, level: IsolationLevel) -> DbResult<()> {
        self.0.set_isolation(level)
    }

    fn profile(&self) -> EngineProfile {
        self.0.profile()
    }
}

/// One connection under test; `_server` keeps a TCP connection's engine up.
struct Target {
    label: String,
    conn: Box<dyn Connection>,
    prepares: bool,
    _server: Option<Server>,
}

/// The three connections, each to a fresh database of `profile`.
fn targets(profile: EngineProfile) -> Vec<Target> {
    let local = LocalDriver::new(Database::new(profile)).connect().unwrap();
    let server = Server::bind(Database::new(profile), "127.0.0.1:0").unwrap();
    let tcp = TcpDriver::connect(&server.addr().to_string())
        .unwrap()
        .connect()
        .unwrap();
    let unprepared = LocalDriver::new(Database::new(profile)).connect().unwrap();
    [
        ("local", local, true, None),
        ("tcp", tcp, true, Some(server)),
        (
            "epoch-free",
            Box::new(UnpreparedConnection(unprepared)) as _,
            false,
            None,
        ),
    ]
    .into_iter()
    .map(|(name, conn, prepares, server)| Target {
        label: format!("{profile} / {name}"),
        conn,
        prepares,
        _server: server,
    })
    .collect()
}

fn each_target(mut case: impl FnMut(&mut Target)) {
    for profile in EngineProfile::ALL {
        for mut target in targets(profile) {
            case(&mut target);
        }
    }
}

fn rows_of(conn: &mut dyn Connection, sql: &str) -> Vec<Vec<Value>> {
    conn.query(sql).unwrap().rows
}

/// `v` with its FLOAT bits spelled out, so `-0.0` differs from `0.0`.
fn exact(v: &Value) -> String {
    match v {
        Value::Float(f) => format!("Float({:#x})", f.to_bits()),
        other => format!("{other:?}"),
    }
}

fn exact_rows(rows: &[Vec<Value>]) -> Vec<Vec<String>> {
    rows.iter().map(|r| r.iter().map(exact).collect()).collect()
}

fn edge_values() -> Vec<[Value; 4]> {
    let text = |s: &str| Value::Text(s.into());
    vec![
        [
            Value::Int(0),
            Value::Int(i64::MIN),
            Value::Float(-0.0),
            text("it's"),
        ],
        [
            Value::Int(1),
            Value::Int(i64::MAX),
            Value::Float(f64::INFINITY),
            text("a ? b"),
        ],
        [
            Value::Int(2),
            Value::Null,
            Value::Float(f64::NEG_INFINITY),
            text("'?'"),
        ],
        [
            Value::Int(3),
            Value::Int(-7),
            Value::Null,
            text("grüße, 東京 ✓"),
        ],
        [
            Value::Int(4),
            Value::Int(0),
            Value::Float(0.1 + 0.2),
            Value::Null,
        ],
    ]
}

#[test]
fn values_round_trip_exactly_where_the_transport_prepares() {
    each_target(|t| {
        let conn = t.conn.as_mut();
        conn.execute("CREATE TABLE v (k INT PRIMARY KEY, i INT, f FLOAT, s TEXT)")
            .unwrap();
        let rows = edge_values();
        insert_rows(conn, "v", &["k", "i", "f", "s"], &rows, INSERT_CHUNK_ROWS)
            .unwrap_or_else(|e| panic!("{}: {e}", t.label));
        // a spliced literal says what the dialect's text says: engines
        // without an Infinity literal store their 1e308 sentinel
        let sentinel = !t.prepares && !conn.profile().dialect().supports_infinity_literal;
        let expected: Vec<Vec<Value>> = rows
            .iter()
            .map(|r| {
                r.iter()
                    .map(|v| match v {
                        Value::Float(f) if sentinel && f.is_infinite() => {
                            Value::Float(f.signum() * 1e308)
                        }
                        other => other.clone(),
                    })
                    .collect()
            })
            .collect();
        let got = rows_of(conn, "SELECT k, i, f, s FROM v ORDER BY k");
        assert_eq!(exact_rows(&got), exact_rows(&expected), "{}", t.label);
    });
}

#[test]
fn infinity_is_the_mysql_sentinel_on_an_epoch_free_connection() {
    let db = Database::new(EngineProfile::MySql);
    let local = LocalDriver::new(db).connect().unwrap();
    let mut conn = UnpreparedConnection(local);
    conn.execute("CREATE TABLE d (k INT, f FLOAT)").unwrap();
    let rows = [
        [Value::Int(1), Value::Float(f64::INFINITY)],
        [Value::Int(2), Value::Float(f64::NEG_INFINITY)],
    ];
    insert_rows(&mut conn, "d", &["k", "f"], &rows, 8).unwrap();
    let got = rows_of(&mut conn, "SELECT k, f FROM d ORDER BY k");
    let expected = [
        [Value::Int(1), Value::Float(1e308)],
        [Value::Int(2), Value::Float(-1e308)],
    ];
    assert_eq!(got, expected);
}

#[test]
fn every_chunk_shape_inserts_every_row_in_order() {
    let c = INSERT_CHUNK_ROWS;
    each_target(|t| {
        for n in [0, 1, c - 1, c, c + 1, 2 * c + 1] {
            let conn = t.conn.as_mut();
            conn.execute("DROP TABLE IF EXISTS c").unwrap();
            conn.execute("CREATE TABLE c (k INT PRIMARY KEY, w FLOAT)")
                .unwrap();
            let rows: Vec<Vec<Value>> = (0..n as i64)
                .map(|k| vec![Value::Int(k), Value::Float(k as f64 / 3.0)])
                .collect();
            insert_rows(conn, "c", &["k", "w"], &rows, c)
                .unwrap_or_else(|e| panic!("{} / {n} rows: {e}", t.label));
            let got = rows_of(conn, "SELECT k, w FROM c");
            assert_eq!(
                exact_rows(&got),
                exact_rows(&rows),
                "{} / {n} rows",
                t.label
            );
        }
    });
}

#[test]
fn a_duplicate_key_in_a_later_chunk_keeps_the_earlier_chunks() {
    let c = INSERT_CHUNK_ROWS;
    each_target(|t| {
        let conn = t.conn.as_mut();
        conn.execute("CREATE TABLE p (k INT PRIMARY KEY)").unwrap();
        // chunk 0 holds keys 0..c; chunk 1 repeats key 0
        let rows: Vec<[Value; 1]> = (0..c as i64)
            .chain([c as i64, 0])
            .map(|k| [Value::Int(k)])
            .collect();
        let err = insert_rows(conn, "p", &["k"], &rows, c).unwrap_err();
        assert!(
            matches!(&err, SqloopError::Db(DbError::Invalid(m)) if m.contains("duplicate primary key 0")),
            "{}: {err}",
            t.label
        );
        let count = rows_of(conn, "SELECT COUNT(*) FROM p");
        assert_eq!(count[0][0], Value::Int(c as i64), "{}", t.label);
    });
}

#[test]
fn restore_reproduces_the_dump() {
    each_target(|t| {
        let conn = t.conn.as_mut();
        conn.execute("CREATE TABLE r (id INT PRIMARY KEY, rank FLOAT, tag TEXT)")
            .unwrap();
        let rows: Vec<[Value; 3]> = (0..1_100i64)
            .map(|i| {
                let tag = match i % 3 {
                    0 => Value::Null,
                    1 => Value::Text(format!("n'{i}?")),
                    _ => Value::Text("ü".repeat(i as usize % 5)),
                };
                [
                    Value::Int(i * 7 - 3_000),
                    Value::Float(1.0 / (i as f64 - 550.5)),
                    tag,
                ]
            })
            .collect();
        insert_rows(conn, "r", &["id", "rank", "tag"], &rows, INSERT_CHUNK_ROWS).unwrap();
        let columns = [
            ("id".to_string(), DataType::Int),
            ("rank".to_string(), DataType::Float),
            ("tag".to_string(), DataType::Text),
        ];
        let dump = dump_table_sql(conn, "r", &columns, Some(0)).unwrap();
        restore_table_sql(conn, &dump, INSERT_CHUNK_ROWS)
            .unwrap_or_else(|e| panic!("{}: {e}", t.label));
        let again = dump_table_sql(conn, "r", &columns, Some(0)).unwrap();
        assert_eq!(
            exact_rows(&again.rows),
            exact_rows(&dump.rows),
            "{}",
            t.label
        );
        assert_eq!(again, dump, "{}", t.label);
    });
}
