//! Property-based tests over the core invariants:
//! * render → parse round-trips for generated expressions and statements;
//! * the wire codec round-trips arbitrary results;
//! * partition bucketing is total and stable;
//! * hash-join ≡ block-nested-loop on random inputs;
//! * parallel SSSP ≡ Dijkstra on random graphs;
//! * snapshot decode/load survive arbitrary truncation and bit flips
//!   without panicking and without ever returning a corrupted snapshot.

use dbcp::wire;
use proptest::prelude::*;
use sqldb::ast::{BinaryOp, Expr};
use sqldb::profile::EngineProfile;
use sqldb::{QueryResult, Value};

// -- generators -----------------------------------------------------------

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        (-(1i64 << 62)..(1i64 << 62)).prop_map(Value::Int),
        // finite floats only: NaN breaks Eq on purpose-built comparisons
        (-1e12f64..1e12).prop_map(Value::Float),
        Just(Value::Float(f64::INFINITY)),
        "[a-z0-9 '\"]{0,12}".prop_map(Value::Text),
        any::<bool>().prop_map(Value::Bool),
    ]
}

fn arb_literal_expr() -> impl Strategy<Value = Expr> {
    arb_value().prop_map(Expr::Literal)
}

fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        arb_literal_expr(),
        "[a-z][a-z0-9_]{0,6}".prop_map(Expr::col),
        ("[a-z][a-z0-9_]{0,4}", "[a-z][a-z0-9_]{0,4}").prop_map(|(t, c)| Expr::qcol(t, c)),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.binary(BinaryOp::Add, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.binary(BinaryOp::Mul, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.binary(BinaryOp::Lt, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.binary(BinaryOp::And, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| {
                Expr::Function {
                    name: "coalesce".into(),
                    args: vec![
                        sqldb::ast::FunctionArg::Expr(a),
                        sqldb::ast::FunctionArg::Expr(b),
                    ],
                }
            }),
            inner.clone().prop_map(|e| Expr::IsNull {
                expr: Box::new(e),
                negated: false
            }),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Rendered expressions re-parse to the same AST in every dialect that
    /// can express them (Infinity literals only exist on PostgreSQL).
    #[test]
    fn expr_render_parse_roundtrip(e in arb_expr()) {
        let dialect = EngineProfile::Postgres.dialect();
        let sql = sqldb::render::expr_to_sql(&e, &dialect);
        let back = sqldb::parser::parse_expression(&sql)
            .unwrap_or_else(|err| panic!("{err}: {sql}"));
        prop_assert_eq!(back, e);
    }

    /// The wire protocol round-trips arbitrary result sets exactly.
    #[test]
    fn wire_roundtrip(
        columns in proptest::collection::vec("[a-z_]{1,8}", 0..5),
        cells in proptest::collection::vec(arb_value(), 0..40),
    ) {
        let ncols = columns.len().max(1);
        let rows: Vec<Vec<Value>> = cells
            .chunks(ncols)
            .filter(|c| c.len() == ncols)
            .map(|c| c.to_vec())
            .collect();
        let columns = if columns.is_empty() { vec!["c".to_string()] } else { columns };
        let result = QueryResult { columns, rows };
        let resp = wire::Response::Rows(result.clone());
        let decoded = wire::decode_response(wire::encode_response(&resp).into_payload()).unwrap();
        prop_assert_eq!(decoded, wire::Response::Rows(result));
    }

    /// Middleware-side bucketing is total, stable and in range; for integer
    /// keys it matches SQL's normalized `MOD`.
    #[test]
    fn bucketing_is_stable(keys in proptest::collection::vec(any::<i64>(), 1..100), n in 1usize..300) {
        for k in keys {
            let b1 = sqloop::parallel_sql::stable_hash(&Value::Int(k)) % n as u64;
            let b2 = sqloop::parallel_sql::stable_hash(&Value::Int(k)) % n as u64;
            prop_assert_eq!(b1, b2);
            prop_assert!((b1 as usize) < n);
            // the modulo form used for routing
            let m = k.rem_euclid(n as i64) as usize;
            prop_assert!(m < n);
        }
    }

    /// Hash join and block-nested-loop agree on random equi-join inputs
    /// (the executor-equivalence invariant behind multi-engine runs).
    #[test]
    fn join_strategies_agree(
        left in proptest::collection::vec((0i64..20, -100i64..100), 0..30),
        right in proptest::collection::vec((0i64..20, -100i64..100), 0..30),
    ) {
        use sqldb::{Database, StmtOutput};
        let mk = |profile| -> Vec<Vec<Value>> {
            let db = Database::new(profile);
            let mut s = db.connect();
            s.execute("CREATE TABLE l (k INT, v INT)").unwrap();
            s.execute("CREATE TABLE r (k INT, w INT)").unwrap();
            for (k, v) in &left {
                s.execute(&format!("INSERT INTO l VALUES ({k}, {v})")).unwrap();
            }
            for (k, w) in &right {
                s.execute(&format!("INSERT INTO r VALUES ({k}, {w})")).unwrap();
            }
            match s
                .execute("SELECT l.k, l.v, r.w FROM l JOIN r ON l.k = r.k")
                .unwrap()
            {
                StmtOutput::Rows(mut out) => {
                    out.rows.sort();
                    out.rows
                }
                _ => unreachable!(),
            }
        };
        let hash = mk(EngineProfile::Postgres);
        let bnl = mk(EngineProfile::MySql);
        prop_assert_eq!(hash, bnl);
    }
}

// -- snapshot corruption --------------------------------------------------

fn arb_snapshot() -> impl Strategy<Value = sqloop::LoopSnapshot> {
    use sqloop::checkpoint::PartSnap;
    use sqloop::LoopSnapshot;
    (
        (any::<u64>(), 0u64..1000, 0u64..1000),
        (
            proptest::collection::vec(
                (any::<u64>(), any::<u64>(), any::<bool>(), any::<bool>()),
                0..5,
            ),
            proptest::collection::vec(any::<u64>(), 0..4),
            proptest::collection::vec((any::<i64>(), -1e6f64..1e6), 0..12),
        ),
    )
        .prop_map(
            |((fingerprint, round, last_change), (parts, seeds, cells))| LoopSnapshot {
                fingerprint,
                mode: "Sync".into(),
                round,
                last_change,
                parts: parts
                    .into_iter()
                    .map(|(computes, msg_seq, pending, prefer_compute)| PartSnap {
                        computes,
                        msg_seq,
                        pending,
                        prefer_compute,
                    })
                    .collect(),
                seeds,
                tables: vec![sqldb::snapshot::TableDump {
                    name: "cte__pt0".into(),
                    columns: vec![
                        sqldb::Column::new("node", sqldb::DataType::Int),
                        sqldb::Column::new("delta", sqldb::DataType::Float),
                    ],
                    primary_key: Some(0),
                    rows: cells
                        .into_iter()
                        .map(|(k, v)| vec![Value::Int(k), Value::Float(v)])
                        .collect(),
                }],
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Truncating an encoded snapshot at any byte offset never panics the
    /// decoder, and anything it accepts is byte-for-byte the original.
    #[test]
    fn snapshot_decode_survives_truncation(snap in arb_snapshot(), cut in 0.0f64..1.0) {
        let text = snap.encode();
        let mut at = (text.len() as f64 * cut) as usize;
        while !text.is_char_boundary(at) {
            at -= 1;
        }
        match sqloop::LoopSnapshot::decode(&text[..at]) {
            Ok(got) => prop_assert_eq!(got, snap, "truncation at {} accepted", at),
            Err(sqloop::SqloopError::Checkpoint(_)) => {}
            Err(other) => prop_assert!(false, "wrong error type: {}", other),
        }
    }

    /// Flipping any single bit never panics the decoder and never yields a
    /// snapshot that differs from the one that was written.
    #[test]
    fn snapshot_decode_survives_bit_flips(snap in arb_snapshot(), pos in 0.0f64..1.0, bit in 0u8..8) {
        let mut bytes = snap.encode().into_bytes();
        let at = ((bytes.len() as f64 * pos) as usize).min(bytes.len() - 1);
        bytes[at] ^= 1 << bit;
        // a flip can leave the file non-UTF-8; that is the read-layer's
        // error path and equally must not produce a wrong snapshot
        if let Ok(text) = String::from_utf8(bytes) {
            match sqloop::LoopSnapshot::decode(&text) {
                Ok(got) => prop_assert_eq!(got, snap, "flip at byte {} bit {} accepted", at, bit),
                Err(sqloop::SqloopError::Checkpoint(_)) => {}
                Err(other) => prop_assert!(false, "wrong error type: {}", other),
            }
        }
    }
}

proptest! {
    // disk-backed corruption property: fewer cases, real files
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `load_latest` on a damaged snapshot *file* (truncated and bit-flipped,
    /// possibly invalid UTF-8) is a typed error or the exact original —
    /// never a panic, never a silently different snapshot.
    #[test]
    fn snapshot_load_never_returns_damaged_data(
        snap in arb_snapshot(),
        cut in 0.0f64..1.0001,
        flip in proptest::option::of((0.0f64..1.0, 0u8..8)),
    ) {
        use std::sync::atomic::{AtomicU64, Ordering};
        static UNIQ: AtomicU64 = AtomicU64::new(0);
        let mut bytes = snap.encode().into_bytes();
        bytes.truncate((bytes.len() as f64 * cut) as usize);
        if let (Some((pos, bit)), false) = (flip, bytes.is_empty()) {
            let at = ((bytes.len() as f64 * pos) as usize).min(bytes.len() - 1);
            bytes[at] ^= 1 << bit;
        }
        let dir = std::env::temp_dir().join(format!(
            "sqloop-prop-{}-{}",
            std::process::id(),
            UNIQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt_r00000001.sqloop");
        std::fs::write(&path, &bytes).unwrap();
        let outcome = sqloop::checkpoint::load_latest(&path);
        match outcome {
            // accepting is only legal when the content still checksums to the
            // original (e.g. only a trailing newline was lost)
            Ok(got) => prop_assert_eq!(got, snap, "cut {:?}, flip {:?}", cut, flip),
            Err(sqloop::SqloopError::Checkpoint(_)) => {}
            Err(other) => prop_assert!(false, "wrong error type: {}", other),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

proptest! {
    // expensive end-to-end property: fewer cases
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Parallel SSSP equals Dijkstra on random graphs, any scheduler.
    #[test]
    fn parallel_sssp_equals_dijkstra(
        seed in 0u64..1000,
        nodes in 10usize..40,
        edge_factor in 2usize..5,
    ) {
        use dbcp::{Driver, LocalDriver};
        use sqldb::Database;
        use sqloop::{ExecutionMode, PrioritySpec, SQLoop, SqloopConfig};
        use std::sync::Arc;

        let g = graphgen::uniform_random(nodes, nodes * edge_factor, seed);
        let oracle = workloads::oracle::sssp(&g, g.nodes()[0]);
        for mode in [ExecutionMode::Sync, ExecutionMode::Async] {
            let db = Database::new(EngineProfile::Postgres);
            let driver = Arc::new(LocalDriver::new(db));
            let mut conn = driver.connect().unwrap();
            workloads::load_edges(conn.as_mut(), &g).unwrap();
            drop(conn);
            let sq = SQLoop::new(driver as Arc<dyn Driver>).with_config(SqloopConfig {
                mode,
                threads: 2,
                partitions: 4,
                priority: Some(PrioritySpec::lowest("SELECT MIN(delta) FROM {}")),
                ..SqloopConfig::default()
            });
            let out = sq
                .execute(&workloads::queries::sssp_all(g.nodes()[0]))
                .unwrap();
            for row in &out.rows {
                let node = row[0].as_i64().unwrap() as u64;
                let d = row[1].as_f64().unwrap();
                match oracle.get(&node) {
                    Some(&e) => prop_assert!(
                        (d - e).abs() < 1e-9,
                        "seed {seed} {mode}: node {node}: {d} vs {e}"
                    ),
                    None => prop_assert!(d.is_infinite()),
                }
            }
        }
    }
}
