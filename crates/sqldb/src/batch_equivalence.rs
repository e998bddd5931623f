//! Property tests for the batch pipeline: every query must produce
//! results identical (same rows, same order) to the row-at-a-time
//! reference evaluator (`exec::reference`, built into tests only) at every
//! batch size — including over NULLs, NaN payloads, ±infinity, signed zero
//! and extreme integers — and must fail with the *same error* whenever the
//! row path fails (division by zero, type mismatches).
//!
//! The batch sizes exercised are 1 (every row is its own batch), 3 (batch
//! boundaries land mid-group and mid-filter-run), the per-profile default
//! (256/1024/4096) and 4096 (usually one batch for these tables).

use crate::{Column, DataType, Database, EngineProfile, TableDump, Value};
use proptest::prelude::*;

/// Floats with deliberately hostile bit patterns (same family the snapshot
/// suite uses): kernels must treat them exactly like the row evaluator.
fn arb_float() -> BoxedStrategy<f64> {
    prop_oneof![
        Just(0.0f64),
        Just(-0.0f64),
        Just(f64::NAN),
        Just(-f64::NAN),
        Just(f64::from_bits(0x7ff8_dead_beef_0001)), // NaN with a payload
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(f64::MIN),
        Just(f64::MAX),
        Just(f64::MIN_POSITIVE),
        Just(f64::from_bits(1)), // smallest subnormal
        any::<u64>().prop_map(f64::from_bits),
        -1.0e9..1.0e9f64,
    ]
    .boxed()
}

fn arb_int() -> BoxedStrategy<i64> {
    prop_oneof![
        Just(i64::MIN),
        Just(i64::MAX),
        Just(0i64),
        Just(-1i64),
        -4i64..5,
        any::<i64>(),
    ]
    .boxed()
}

/// Short texts, deliberately collision-heavy so GROUP BY forms real groups.
fn arb_text() -> BoxedStrategy<String> {
    prop_oneof![
        Just(String::new()),
        Just("a".to_string()),
        Just("b".to_string()),
        Just("héllo ∞".to_string()),
        "[a-c]{0,3}",
    ]
    .boxed()
}

/// One row with an INT, FLOAT, TEXT and BOOL column, each independently
/// NULL ~20% of the time.
fn arb_row() -> BoxedStrategy<Vec<Value>> {
    (
        (0u8..5, arb_int()),
        (0u8..5, arb_float()),
        (0u8..5, arb_text()),
        (0u8..5, any::<bool>()),
    )
        .prop_map(|((ki, i), (kf, f), (kt, t), (kb, b))| {
            let pick = |k: u8, v: Value| if k == 0 { Value::Null } else { v };
            vec![
                pick(ki, Value::Int(i)),
                pick(kf, Value::Float(f)),
                pick(kt, Value::Text(t)),
                pick(kb, Value::Bool(b)),
            ]
        })
        .boxed()
}

fn arb_dump() -> BoxedStrategy<TableDump> {
    proptest::collection::vec(arb_row(), 0..40)
        .prop_map(|rows| TableDump {
            name: "t".to_string(),
            columns: vec![
                Column::new("c_int", DataType::Int),
                Column::new("c_float", DataType::Float),
                Column::new("c_text", DataType::Text),
                Column::new("c_bool", DataType::Bool),
            ],
            primary_key: None,
            rows,
        })
        .boxed()
}

/// The workload-suite query shapes: scan, filter (including AND/OR over
/// fallible operands), projection arithmetic, hash aggregation with HAVING,
/// DISTINCT, ORDER BY, self-join, and expressions that can genuinely error
/// (division by a column that may be zero) — then the join shapes: the
/// joins emit column batches, so whatever consumes them (reference rows or
/// the batched pipeline, at any batch size) must see the same rows in the
/// same order, and the same first error.
const QUERIES: &[&str] = &[
    "SELECT c_int, c_float, c_text, c_bool FROM t",
    "SELECT c_int + 1, c_float * 2.0, -c_float FROM t WHERE c_int IS NOT NULL",
    "SELECT c_int FROM t WHERE c_float > 0.0 OR c_bool",
    "SELECT c_int FROM t WHERE c_int IS NOT NULL AND c_int * 2 >= c_int ORDER BY c_int",
    "SELECT c_text, COUNT(*), SUM(c_float), MIN(c_int), MAX(c_float), AVG(c_float) \
     FROM t GROUP BY c_text",
    "SELECT c_bool, COUNT(*) FROM t WHERE c_float > 0.0 GROUP BY c_bool HAVING COUNT(*) > 1",
    "SELECT DISTINCT c_bool FROM t",
    "SELECT c_int / c_int FROM t",
    "SELECT c_int FROM t WHERE c_int IS NOT NULL AND 100 / (c_int + 1) > 0",
    "SELECT a.c_int, b.c_float FROM t AS a JOIN t AS b ON a.c_int = b.c_int \
     WHERE a.c_int IS NOT NULL",
    "SELECT COUNT(*) FROM t",
    // LEFT JOIN: unmatched rows, NULL keys, a residual that unmatches more
    "SELECT a.c_int, a.c_text, b.c_int, b.c_float FROM t AS a \
     LEFT JOIN t AS b ON a.c_int = b.c_int AND b.c_float > 0.0",
    // a residual that divides by zero wherever the key 0 meets itself
    "SELECT a.c_int, b.c_text FROM t AS a JOIN t AS b \
     ON a.c_int = b.c_int AND a.c_int / b.c_int > 0",
    "SELECT a.c_text, b.c_text FROM t AS a LEFT JOIN t AS b \
     ON a.c_text = b.c_text AND 10 / (a.c_int - b.c_int) > 0",
    // INT = FLOAT keys match numerically (the generic build table)
    "SELECT a.c_int, b.c_float, b.c_text FROM t AS a JOIN t AS b ON a.c_int = b.c_float",
    "SELECT a.c_int, b.c_float FROM t AS a LEFT JOIN t AS b ON b.c_float = a.c_int",
    // the PageRank round's shape: two LEFT JOINs feeding a one-key aggregate
    // over both inner sides
    "SELECT a.c_int, COALESCE(a.c_float + 1.0, 0.15), COALESCE(MAX(c.c_float), 0.0), \
     MIN(b.c_float), COUNT(c.c_int) \
     FROM t AS a LEFT JOIN t AS b ON a.c_int = b.c_int LEFT JOIN t AS c ON c.c_int = b.c_int \
     GROUP BY a.c_int",
    // two hostile operands on one operator: the sign and payload of a NaN
    // that arithmetic produces (payload × payload, inf − inf) are the
    // compiler's choice per call site, so both evaluators canonicalise it
    "SELECT a.c_int, b.c_int, a.c_float * b.c_float FROM t AS a JOIN t AS b \
     ON a.c_text = b.c_text",
    "SELECT a.c_text, SUM(a.c_float - b.c_float), MAX(a.c_float * b.c_float) \
     FROM t AS a JOIN t AS b ON a.c_text = b.c_text GROUP BY a.c_text",
    "SELECT DISTINCT a.c_bool, b.c_text FROM t AS a JOIN t AS b ON a.c_int = b.c_int",
    // comma joins: nested loops with nothing to compare
    "SELECT a.c_int, b.c_text, c.c_float FROM t AS a, t AS b, t AS c \
     WHERE a.c_bool AND b.c_bool AND NOT c.c_bool",
    "SELECT a.c_int, b.c_int FROM t AS a JOIN t AS b ON a.c_int < b.c_int AND b.c_bool",
    // a derived table as the inner side
    "SELECT a.c_int, a.c_text, d.n FROM t AS a \
     JOIN (SELECT c_int, COUNT(*) AS n FROM t GROUP BY c_int) AS d ON a.c_int = d.c_int",
    "SELECT a.c_text, d.c_int FROM (SELECT c_int FROM t WHERE c_bool) AS d \
     LEFT JOIN t AS a ON d.c_int = a.c_int",
    // set operations and DISTINCT stay in batches: INT and FLOAT sides
    // (equal values dedupe), NULL, NaN and TEXT lanes, empty sides, nesting
    "SELECT c_int FROM t UNION SELECT c_float FROM t",
    "SELECT c_float, c_int FROM t UNION SELECT c_int, c_float FROM t",
    "SELECT c_int, c_text FROM t UNION ALL SELECT c_int, c_text FROM t WHERE c_bool",
    "SELECT DISTINCT c_float, c_text FROM t",
    "SELECT DISTINCT c_int, c_int % 3 FROM t",
    "SELECT c_int FROM t WHERE 1 = 0 UNION SELECT c_int FROM t",
    "SELECT c_text FROM t UNION ALL SELECT c_text FROM t WHERE 1 = 0",
    "SELECT c_text FROM t UNION SELECT c_text FROM t WHERE c_int > 0 \
     UNION ALL SELECT c_text FROM t WHERE c_bool",
    "SELECT c_int FROM t WHERE c_bool UNION (SELECT c_int FROM t UNION ALL SELECT c_float FROM t)",
    // a derived table over UNION, a view over UNION ALL
    "SELECT d.c_int, COUNT(*) FROM (SELECT c_int FROM t UNION SELECT c_int + 1 FROM t) AS d \
     GROUP BY d.c_int",
    "SELECT a.c_text, d.c_float FROM (SELECT c_int, c_float FROM t UNION SELECT c_int, c_float \
     FROM t) AS d JOIN t AS a ON a.c_int = d.c_int",
    "SELECT * FROM u",
    "SELECT u.c_int, MAX(u.c_float) FROM u GROUP BY u.c_int",
    // INT arithmetic kernels: overflow, % 0, negative operands, NULL,
    // INT / FLOAT mixes, and the partition filter's shape
    "SELECT c_int + c_int, c_int * c_int, c_int - 1 FROM t",
    "SELECT c_int % 0 FROM t",
    "SELECT c_int / -1, c_int % -1 FROM t",
    "SELECT (c_int % 16 + 16) % 16, c_int % -3, -7 / c_int FROM t WHERE c_int IS NOT NULL",
    "SELECT c_int FROM t WHERE (c_int % 4 + 4) % 4 = 1",
    "SELECT c_int + NULL, c_int * 2.5, c_float - c_int, c_int / c_float FROM t",
    // the PageRank script's round over `GRAPH`: NULL and duplicate build
    // keys, unmatched outer rows, a LEFT JOIN fed by a LEFT JOIN's pads
    "SELECT pr_s.node, COALESCE(pr_s.rank + pr_s.delta, 0.15), \
     COALESCE(0.85 * SUM(ir.delta * ie.weight), 0.0) FROM pr_s \
     LEFT JOIN edges AS ie ON pr_s.node = ie.dst LEFT JOIN pr_s AS ir ON ir.node = ie.src \
     GROUP BY pr_s.node",
    // the SSSP Single round: an OR filter over both LEFT JOIN sides
    "SELECT s.node, LEAST(s.rank, s.delta), COALESCE(MIN(n.delta + e.weight), Infinity) \
     FROM pr_s AS s LEFT JOIN edges AS e ON s.node = e.dst \
     LEFT JOIN pr_s AS n ON n.node = e.src \
     WHERE n.delta < n.rank OR s.delta < s.rank GROUP BY s.node",
    // the same joins on INT = FLOAT keys, grouped by a FLOAT key
    "SELECT s.rank, SUM(e.weight), COUNT(n.node), MAX(n.delta) FROM pr_s AS s \
     LEFT JOIN edges AS e ON s.rank = e.dst LEFT JOIN pr_s AS n ON n.rank = e.src \
     GROUP BY s.rank",
    // aggregates without keys: no rows, an all-NULL column, one row, and
    // INT sums that overflow into FLOAT
    "SELECT MIN(c_float), MAX(c_float), SUM(c_float), COUNT(*), AVG(c_float) FROM t WHERE 1 = 0",
    "SELECT MIN(c_int), MAX(c_text), SUM(c_int), COUNT(*), AVG(c_int), COUNT(c_int) \
     FROM t WHERE c_int IS NULL",
    "SELECT MIN(x), MAX(x), SUM(x), COUNT(*), AVG(x) FROM (SELECT 2.5 AS x) AS one",
    "SELECT MIN(c_int), MAX(c_int), SUM(c_int), COUNT(*), AVG(c_int), SUM(c_float) FROM t",
    // a key whose lanes turn from INT to FLOAT between batches; TEXT keys
    // and TEXT extremes
    "SELECT d.k, COUNT(*), SUM(d.k), MIN(d.k) FROM \
     (SELECT c_int AS k FROM t UNION ALL SELECT c_float FROM t) AS d GROUP BY d.k",
    "SELECT c_text, MIN(c_text), MAX(c_int), SUM(c_int) FROM t GROUP BY c_text",
    // a key that fails (a type error) and an argument that fails (division
    // by zero) on different rows: the first one in row order is raised
    "SELECT COUNT(*), SUM(10 / (c_int % 3)) FROM t \
     GROUP BY CASE WHEN c_int % 5 = 0 THEN c_text + 1 ELSE c_int END",
    // an argument whose kernel fails where the row path does not, so the
    // batch reruns row by row, under a key that is NULL in whole batches
    "SELECT COUNT(*), SUM(COALESCE(a.c_float, 10 / a.c_int)) FROM t AS a \
     LEFT JOIN t AS b ON a.c_int = b.c_int + 1000 GROUP BY b.c_int",
    // LEAST / GREATEST: NULL in either argument, ±0.0, NaN of both signs,
    // ±Infinity, all-NULL lanes, three arguments, and the mixes the row
    // path keeps (INT with FLOAT, TEXT)
    "SELECT LEAST(c_float, -c_float), GREATEST(c_float, -c_float), \
     LEAST(-c_float, c_float), GREATEST(c_int, 1 - c_int) FROM t",
    "SELECT LEAST(c_float, Infinity), GREATEST(-Infinity, c_float), LEAST(c_float, NULL), \
     GREATEST(NULL, c_int), LEAST(NULL, NULL) FROM t",
    "SELECT LEAST(c_float, NULL), GREATEST(c_int, NULL) FROM t \
     WHERE c_float IS NULL AND c_int IS NULL",
    "SELECT LEAST(c_int, c_int % 7, -3), GREATEST(c_float, 0.0, c_float * 0.5), \
     LEAST(c_float, c_float + 1.0, NULL) FROM t",
    "SELECT LEAST(c_int, c_float), GREATEST(c_float, c_int, 0), LEAST(c_text, 'b') FROM t",
    "SELECT s.node, LEAST(s.rank, n.delta + e.weight) FROM pr_s AS s \
     LEFT JOIN edges AS e ON s.node = e.dst LEFT JOIN pr_s AS n ON n.node = e.src",
    // read masks: the reference reads every column of every factor, these
    // read few. `*` and `t.*` after a join; a LEFT JOIN whose padded inner
    // side nothing above reads; a sort key and a HAVING argument outside
    // the select list; a view and a derived table with unread columns; a
    // self-join reading one alias's key only; a join key read again above
    "SELECT * FROM t AS a JOIN t AS b ON a.c_int = b.c_int",
    "SELECT b.*, a.c_text FROM t AS a LEFT JOIN t AS b ON a.c_int = b.c_int AND b.c_bool",
    "SELECT a.c_int, a.c_text FROM t AS a LEFT JOIN t AS b ON a.c_int = b.c_int",
    "SELECT a.c_text, COUNT(*) FROM t AS a LEFT JOIN t AS b ON a.c_text = b.c_text \
     AND b.c_float > 0.0 GROUP BY a.c_text",
    "SELECT a.c_text FROM t AS a JOIN t AS b ON a.c_int = b.c_int ORDER BY b.c_float, a.c_bool",
    "SELECT c_text FROM t WHERE c_bool ORDER BY c_float, c_int",
    "SELECT a.c_bool, COUNT(*) FROM t AS a JOIN t AS b ON a.c_int = b.c_int \
     GROUP BY a.c_bool HAVING MAX(b.c_float) > 0.0 OR MIN(a.c_text) = 'a'",
    "SELECT w.c_text FROM w JOIN t AS x ON w.c_int = x.c_int WHERE x.c_bool",
    "SELECT d.k FROM (SELECT c_int AS k, c_text AS s, c_float AS f FROM t) AS d \
     LEFT JOIN t AS x ON d.k = x.c_int",
    "SELECT a.c_text FROM t AS a JOIN t AS b ON a.c_int = b.c_int",
    "SELECT e.src, COUNT(*) FROM edges AS e JOIN edges AS f ON e.dst = f.src \
     JOIN pr_s AS p ON p.node = f.dst GROUP BY e.src",
    "SELECT a.c_int, b.c_int, c_text FROM t AS a JOIN pr_s AS b ON a.c_int = b.node \
     JOIN edges AS e ON b.node = e.src",
    // joins pass positions: three-way LEFT JOIN chains that pad at every
    // level, in both join orders, through the hash / block nested-loop
    // fallbacks and (a filtered outer side against the indexed `ix`) the
    // index nested loop
    "SELECT a.c_int, b.c_float, c.c_text FROM t AS a LEFT JOIN t AS b ON a.c_int = b.c_int + 1 \
     LEFT JOIN t AS c ON c.c_int = b.c_int",
    "SELECT p.node, e.src, x.c_text FROM pr_s AS p LEFT JOIN edges AS e ON e.dst = p.node \
     LEFT JOIN t AS x ON x.c_int = e.src + 1",
    "SELECT x.c_text, e.dst, p.rank FROM t AS x LEFT JOIN edges AS e ON e.src = x.c_int \
     LEFT JOIN pr_s AS p ON p.node = e.dst",
    "SELECT a.c_int, i.v, j.s, c.c_bool FROM t AS a LEFT JOIN ix AS i ON i.k = a.c_int \
     LEFT JOIN ix AS j ON j.k = i.k + 1 LEFT JOIN t AS c ON c.c_int = j.k \
     WHERE a.c_bool AND a.c_int > 2",
    "SELECT j.s, i.v, a.c_text FROM ix AS j LEFT JOIN ix AS i ON i.k = j.k - 1 \
     LEFT JOIN t AS a ON a.c_int = i.k WHERE j.v > 0.0",
    // residual ON conjuncts over the rows an earlier LEFT JOIN padded
    "SELECT a.c_int, b.c_int, c.c_float FROM t AS a LEFT JOIN t AS b ON a.c_int = b.c_int \
     AND b.c_bool LEFT JOIN t AS c ON c.c_int = a.c_int AND COALESCE(b.c_float, 1.0) < c.c_float",
    "SELECT a.c_text, b.c_int, c.c_text FROM t AS a LEFT JOIN t AS b ON a.c_int = b.c_int + 2 \
     LEFT JOIN t AS c ON c.c_text = a.c_text AND b.c_int IS NULL",
    "SELECT a.c_int, b.c_int, c.c_int FROM t AS a LEFT JOIN t AS b ON a.c_int < b.c_int \
     LEFT JOIN t AS c ON c.c_int = b.c_int AND 10 / (c.c_int - a.c_int) > 1",
    // UNION, DISTINCT, ORDER BY and LIMIT over joins
    "SELECT a.c_int FROM t AS a JOIN t AS b ON a.c_int = b.c_int \
     UNION SELECT b.c_int FROM t AS a LEFT JOIN t AS b ON a.c_text = b.c_text",
    "SELECT a.c_text, b.c_float FROM t AS a LEFT JOIN t AS b ON a.c_int = b.c_int \
     UNION ALL SELECT c_text, c_float FROM t",
    "SELECT DISTINCT a.c_text, b.c_bool FROM t AS a LEFT JOIN t AS b ON a.c_int = b.c_int",
    "SELECT a.c_int, b.c_float FROM t AS a LEFT JOIN t AS b ON a.c_int = b.c_int \
     ORDER BY b.c_float, a.c_int LIMIT 7",
    "SELECT a.c_text, COUNT(*) FROM t AS a JOIN t AS b ON a.c_bool = b.c_bool \
     GROUP BY a.c_text ORDER BY 2, 1 LIMIT 3",
    // a view over a LEFT JOIN chain, alone and joined again
    "SELECT * FROM lj",
    "SELECT lj.c_text, COUNT(*), MAX(lj.c_float) FROM lj LEFT JOIN t AS x ON x.c_int = lj.c_int \
     GROUP BY lj.c_text",
];

/// Tables shaped like the PageRank script's, drawn from `t`: `pr_s` holds
/// NULL and repeated nodes, `edges` endpoints no node has.
const GRAPH: &[&str] = &[
    "CREATE TABLE edges (src INT, dst INT, weight FLOAT)",
    "INSERT INTO edges SELECT c_int, c_int % 4, c_float FROM t",
    "INSERT INTO edges SELECT c_int % 3, c_int, 1.0 FROM t WHERE c_bool",
    "CREATE TABLE pr_s (node INT, rank FLOAT, delta FLOAT)",
    "INSERT INTO pr_s SELECT c_int, c_float, c_float * 0.5 FROM t WHERE c_bool OR c_int IS NULL",
    "INSERT INTO pr_s SELECT c_int % 4, 1.0, c_float FROM t WHERE NOT c_bool",
    "CREATE TABLE ix (k INT, v FLOAT, s TEXT)",
    "INSERT INTO ix SELECT c_int, c_float, c_text FROM t",
    "CREATE INDEX ix_k ON ix (k)",
];

/// The views the set-operation, read-mask and join-chain queries read.
const VIEWS: &[&str] = &[
    "CREATE VIEW u AS SELECT c_int, c_float FROM t \
     UNION ALL SELECT c_int, c_float FROM t WHERE c_bool",
    "CREATE VIEW w AS SELECT a.c_int, a.c_text, b.c_float FROM t AS a \
     JOIN t AS b ON a.c_int = b.c_int",
    "CREATE VIEW lj AS SELECT a.c_int, b.c_float, c.c_text FROM t AS a \
     LEFT JOIN t AS b ON a.c_int = b.c_int LEFT JOIN t AS c ON c.c_int = b.c_int + 1",
];

/// Runs `sql` and collapses the outcome to something comparable: the rows
/// on success, the error text on failure (error *equivalence* is part of
/// the contract — the batch path must surface the row path's first error).
fn outcome(db: &Database, sql: &str) -> Result<Vec<Vec<Value>>, String> {
    db.connect()
        .query(sql)
        .map(|r| r.rows)
        .map_err(|e| e.to_string())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn batched_execution_matches_row_semantics_at_every_batch_size(dump in arb_dump()) {
        for profile in EngineProfile::ALL {
            let db = graph_db(profile, &dump);
            for sql in QUERIES {
                db.set_row_oracle(true);
                let baseline = outcome(&db, sql);
                db.set_row_oracle(false);
                for size in [Some(1), Some(3), None, Some(4096)] {
                    db.set_batch_size(size);
                    let got = outcome(&db, sql);
                    prop_assert_eq!(
                        &baseline, &got,
                        "{} / batch={:?} / {}", profile, size, sql
                    );
                }
                db.set_batch_size(None);
            }
        }
    }
}

/// A database of `profile` holding `dump` as `t`, the views and `GRAPH`.
fn graph_db(profile: EngineProfile, dump: &TableDump) -> Database {
    let db = Database::new(profile);
    db.import_table(dump).unwrap();
    for sql in VIEWS.iter().chain(GRAPH) {
        db.connect().execute(sql).unwrap();
    }
    db
}

/// DML whose reads the masks must keep: an `UPDATE … FROM` whose `SET`
/// reads target columns it does not assign, in both dialects' spellings
/// and over a join, a plain `UPDATE` and `DELETE`, and an `INSERT …
/// SELECT` through a column list. Then DML that reads the table it writes,
/// which must read all of it before its first write.
const MASKED_DML: &[&str] = &[
    "UPDATE pr_s SET rank = pr_s.delta + e.weight FROM edges AS e WHERE pr_s.node = e.dst",
    "UPDATE pr_s SET delta = d.c_float, rank = pr_s.node * 2.0 FROM t AS d \
     WHERE d.c_int = pr_s.node AND d.c_bool",
    "UPDATE pr_s SET rank = s.rank + pr_s.delta FROM pr_s AS s JOIN edges AS e \
     ON s.node = e.src WHERE pr_s.node = e.dst",
    "UPDATE pr_s JOIN edges AS e ON pr_s.node = e.dst SET rank = pr_s.delta + e.weight",
    "UPDATE t SET c_text = c_text, c_float = c_int * 0.5 WHERE c_bool",
    "DELETE FROM edges WHERE weight > 1.0 AND src <> dst",
    "INSERT INTO pr_s (delta, node) SELECT b.c_float, a.c_int FROM t AS a \
     JOIN t AS b ON a.c_int = b.c_int WHERE b.c_bool",
    "INSERT INTO edges (dst, src) SELECT p.node, e.dst FROM pr_s AS p \
     LEFT JOIN edges AS e ON e.src = p.node",
    "UPDATE t SET c_float = u.c_float, c_text = t.c_text || u.c_text FROM t AS u \
     WHERE t.c_int = u.c_int + 1",
    "UPDATE t JOIN t AS u ON t.c_int = u.c_int SET c_int = u.c_int + 1, c_bool = NOT u.c_bool",
    "UPDATE pr_s SET rank = q.rank + pr_s.delta FROM pr_s AS q WHERE q.node = pr_s.node",
    "INSERT INTO t SELECT a.c_int, b.c_float, a.c_text, b.c_bool FROM t AS a \
     JOIN t AS b ON a.c_int = b.c_int",
    "INSERT INTO pr_s SELECT p.node, q.rank, p.delta FROM pr_s AS p \
     LEFT JOIN pr_s AS q ON q.node = p.node + 1",
];

/// Each of `MASKED_DML`'s statements, taken back after it: its count, or
/// its error, and the tables it leaves.
fn dml_outcomes(db: &Database) -> Vec<Outcome> {
    let mut s = db.connect();
    let mut out = Vec::new();
    for dml in MASKED_DML {
        s.execute("BEGIN").unwrap();
        let changed = s
            .execute(dml)
            .map(|o| vec![vec![Value::Int(o.rows_affected() as i64)]]);
        out.push(changed.map_err(|e| e.to_string()));
        for table in ["t", "pr_s", "edges"] {
            let rows = s.query(&format!("SELECT * FROM {table}"));
            out.push(rows.map(|r| r.rows).map_err(|e| e.to_string()));
        }
        s.execute("ROLLBACK").unwrap();
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// DML that reads masked columns leaves the tables the reference leaves,
    /// which reads every column, at every batch size and on every profile.
    #[test]
    fn masked_dml_matches_the_unmasked_reference(dump in arb_dump()) {
        for profile in EngineProfile::ALL {
            let db = graph_db(profile, &dump);
            db.set_row_oracle(true);
            let baseline = dml_outcomes(&db);
            db.set_row_oracle(false);
            for size in [Some(1), Some(3), None, Some(4096)] {
                db.set_batch_size(size);
                prop_assert_eq!(&baseline, &dml_outcomes(&db), "{} / batch={:?}", profile, size);
            }
        }
    }
}

/// `rows` without repeats, first occurrences in order, as `Value`'s own
/// `Eq` and `Hash` see them: the row model of `UNION` and `DISTINCT`.
fn dedupe_model(rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    let mut seen = std::collections::HashSet::new();
    rows.into_iter()
        .filter(|r| seen.insert(r.clone()))
        .collect()
}

/// Pairs of union-compatible queries over `t`.
const SIDES: &[(&str, &str)] = &[
    ("SELECT c_int FROM t", "SELECT c_float FROM t"),
    ("SELECT c_float FROM t WHERE c_bool", "SELECT c_int FROM t"),
    (
        "SELECT c_int, c_text FROM t",
        "SELECT c_int, c_text FROM t WHERE c_bool",
    ),
    (
        "SELECT c_float, c_bool FROM t",
        "SELECT c_float, c_bool FROM t",
    ),
    ("SELECT c_int FROM t WHERE 1 = 0", "SELECT c_int FROM t"),
    ("SELECT c_text FROM t", "SELECT c_text FROM t WHERE 1 = 0"),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `UNION`, `UNION ALL` and `DISTINCT` keep the row semantics they had
    /// when they deduplicated rows: concatenation in order, and the first
    /// occurrence of each row kept.
    #[test]
    fn set_operations_match_the_row_model(dump in arb_dump()) {
        let db = Database::new(EngineProfile::Postgres);
        db.import_table(&dump).unwrap();
        let rows = |sql: &str| outcome(&db, sql).unwrap();
        for size in [Some(1), Some(3), None] {
            db.set_batch_size(size);
            for (l, r) in SIDES {
                let all: Vec<_> = rows(l).into_iter().chain(rows(r)).collect();
                prop_assert_eq!(rows(&format!("{l} UNION ALL {r}")), all.clone(), "{} / {}", l, r);
                prop_assert_eq!(rows(&format!("{l} UNION {r}")), dedupe_model(all), "{} / {}", l, r);
                let distinct = l.replacen("SELECT", "SELECT DISTINCT", 1);
                prop_assert_eq!(rows(&distinct), dedupe_model(rows(l)), "{}", distinct);
            }
        }
    }
}

#[test]
fn set_operation_values_keep_their_first_occurrence() {
    let db = Database::new(EngineProfile::Postgres);
    let rows = |sql: &str| outcome(&db, sql).unwrap();
    assert_eq!(rows("SELECT 2 UNION SELECT 2.0"), vec![vec![Value::Int(2)]]);
    assert_eq!(
        rows("SELECT 2.0 UNION SELECT 2"),
        vec![vec![Value::Float(2.0)]]
    );
    let mut c = db.connect();
    c.execute("CREATE TABLE n (a INT, b FLOAT, s TEXT)")
        .unwrap();
    c.execute(
        "INSERT INTO n VALUES (NULL, 0.0 / 0.0, 'x'), (1, NULL, NULL), (NULL, 0.0 / 0.0, 'x'), \
         (1, NULL, NULL), (NULL, NULL, 'x')",
    )
    .unwrap();
    let nan = Value::Float(f64::NAN);
    assert_eq!(
        rows("SELECT DISTINCT a, b, s FROM n"),
        vec![
            vec![Value::Null, nan.clone(), Value::Text("x".into())],
            vec![Value::Int(1), Value::Null, Value::Null],
            vec![Value::Null, Value::Null, Value::Text("x".into())],
        ]
    );
    assert_eq!(
        rows("SELECT a FROM n UNION SELECT a FROM n"),
        vec![vec![Value::Null], vec![Value::Int(1)]]
    );
    assert_eq!(
        rows("SELECT b FROM n UNION SELECT b FROM n"),
        vec![vec![nan], vec![Value::Null]]
    );
}

/// The `Union …`, `Subquery AS …` and `View …` lines of `EXPLAIN ANALYZE`
/// count the rows each operator produced.
#[test]
fn explain_analyze_counts_set_operation_rows() {
    let db = Database::new(EngineProfile::Postgres);
    let mut c = db.connect();
    c.execute("CREATE TABLE x (a INT)").unwrap();
    c.execute("INSERT INTO x VALUES (1), (2), (2), (3)")
        .unwrap();
    c.execute("CREATE VIEW vx AS SELECT a FROM x UNION ALL SELECT a FROM x")
        .unwrap();
    let mut lines = |sql: &str| -> Vec<String> {
        let r = c.query(&format!("EXPLAIN ANALYZE {sql}")).unwrap();
        r.rows.iter().map(|row| row[0].to_string()).collect()
    };
    let has = |lines: &[String], prefix: &str, rows: u64| {
        let want = format!("{prefix} (actual rows={rows} ");
        assert!(
            lines.iter().any(|l| l.trim_start().starts_with(&want)),
            "{want} in {lines:#?}"
        );
    };
    let l = lines("SELECT d.a FROM (SELECT a FROM x UNION SELECT a FROM x) AS d");
    has(&l, "Union (deduplicating)", 3);
    has(&l, "Subquery AS d", 3);
    let l = lines("SELECT COUNT(*) FROM vx");
    has(&l, "Union All", 8);
    has(&l, "View vx", 8);
    let l = lines("SELECT DISTINCT a FROM x");
    has(&l, "Distinct", 3);
}

/// Statements whose `WHERE` an index seek answers in part or in full: the
/// column/key type pairs the seek accepts (INT and FLOAT columns with INT
/// or FLOAT keys, NaN included, TEXT with TEXT), keys it declines (NULL, a
/// TEXT key on an INT column), a second conjunct that can fail, and DML.
const SEEK_QUERIES: &[&str] = &[
    "SELECT c_int, c_text FROM t WHERE c_int = 1",
    "SELECT c_int, c_float FROM t WHERE c_float = 1",
    "SELECT c_int, c_float FROM t WHERE c_float = -0.0",
    "SELECT c_int FROM t WHERE c_float = 0.0 / 0.0",
    "SELECT c_int FROM t WHERE c_int = NULL",
    "SELECT c_int FROM t WHERE c_int = 'a'",
    "SELECT c_int, c_bool FROM t WHERE c_text = 'a'",
    "SELECT c_int, c_float FROM t WHERE c_int = -1 AND c_float > 0.0",
    "SELECT c_int FROM t WHERE c_bool AND 0 = c_int AND c_text <> 'b'",
    "SELECT c_int FROM t WHERE c_int = 0 AND 10 / c_int > 0",
    "SELECT c_text, COUNT(*), MAX(c_float) FROM t WHERE c_text = 'b' GROUP BY c_text",
    "SELECT c_text, c_text, c_int FROM t WHERE c_int = 1",
    // the join algorithm follows the indexes, and with it the row order
    "SELECT a.c_int, b.c_text FROM t AS a JOIN t AS b ON a.c_int = b.c_int WHERE a.c_text = 'a' \
     ORDER BY 1, 2",
];

const SEEK_DML: &[&str] = &[
    "UPDATE t SET c_text = 'z' WHERE c_int = 1",
    "UPDATE t SET c_float = c_float + 1.0 WHERE c_text = 'a' AND c_bool",
    "DELETE FROM t WHERE c_float = 0.0 / 0.0",
    "DELETE FROM t WHERE c_int = 0 AND 10 / c_int > 0",
];

/// A statement's rows, or its error text.
type Outcome = Result<Vec<Vec<Value>>, String>;

/// Outcomes of the seek statements on `db`, each after its statement:
/// each query's rows, and each DML statement's affected count with the
/// table it leaves (taken back).
fn seek_outcomes(db: &Database) -> Vec<(&'static str, Outcome)> {
    let mut out: Vec<_> = SEEK_QUERIES.iter().map(|q| (*q, outcome(db, q))).collect();
    let mut s = db.connect();
    for dml in SEEK_DML {
        s.execute("BEGIN").unwrap();
        let changed = s
            .execute(dml)
            .map(|o| vec![vec![Value::Int(o.rows_affected() as i64)]]);
        out.push((*dml, changed.map_err(|e| e.to_string())));
        let table = s.query("SELECT * FROM t").map(|r| r.rows);
        out.push((*dml, table.map_err(|e| e.to_string())));
        s.execute("ROLLBACK").unwrap();
    }
    out
}

/// Whether a plan's lines (`EXPLAIN` or `EXPLAIN ANALYZE`) run a Filter.
fn filters(db: &Database, sql: &str) -> bool {
    let plan = db.connect().query(sql).unwrap();
    plan.rows
        .iter()
        .any(|r| r[0].to_string().trim_start().starts_with("Filter"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A conjunct the index seek applied is not evaluated again; the rows,
    /// errors and DML effects stay those of the row evaluator over the
    /// same table without indexes, at every batch size, and `EXPLAIN`
    /// plans a Filter exactly when `EXPLAIN ANALYZE` runs one.
    #[test]
    fn seek_applied_conjuncts_match_row_semantics(dump in arb_dump()) {
        let plain = Database::new(EngineProfile::Postgres);
        plain.import_table(&dump).unwrap();
        plain.set_row_oracle(true);
        let baseline = seek_outcomes(&plain);
        // a fresh copy per run: a rolled-back DML statement re-indexes its
        // rows at the end of their keys' slot lists, which reorders seeks
        let indexed = || {
            let db = Database::new(EngineProfile::Postgres);
            db.import_table(&dump).unwrap();
            let mut s = db.connect();
            for ix in ["c_int", "c_float", "c_text"] {
                s.execute(&format!("CREATE INDEX t_{ix} ON t ({ix})")).unwrap();
            }
            db
        };
        for (vectorized, size) in [(true, Some(1)), (true, Some(3)), (true, None), (false, None)] {
            let db = indexed();
            db.set_row_oracle(!vectorized);
            db.set_batch_size(size);
            for (want, got) in baseline.iter().zip(seek_outcomes(&db)) {
                prop_assert_eq!(want, &got, "vectorized={} batch={:?}", vectorized, size);
            }
        }
        let db = indexed();
        for sql in SEEK_QUERIES.iter().filter(|q| outcome(&db, q).is_ok()) {
            prop_assert_eq!(
                filters(&db, &format!("EXPLAIN {sql}")),
                filters(&db, &format!("EXPLAIN ANALYZE {sql}")),
                "{}", sql
            );
        }
    }
}

/// The Filter goes exactly when the seek applied the whole `WHERE`.
#[test]
fn a_seek_that_applies_the_whole_where_runs_no_filter() {
    let db = Database::new(EngineProfile::Postgres);
    let mut s = db.connect();
    s.execute("CREATE TABLE m (id INT, val FLOAT, __to INT)")
        .unwrap();
    s.execute("CREATE INDEX m_to ON m (__to)").unwrap();
    s.execute("INSERT INTO m VALUES (1, 0.5, 3), (2, 1.5, 4), (3, 2.5, 3)")
        .unwrap();
    for (sql, filtered) in [
        ("SELECT id, val FROM m WHERE __to = 3", false),
        ("SELECT id, val FROM m WHERE 3 = __to", false),
        ("SELECT id, val FROM m WHERE __to = 3 AND val > 1.0", true),
        ("SELECT id, val FROM m WHERE __to = NULL", true),
        ("SELECT id, val FROM m WHERE __to > 3", true),
    ] {
        for prefix in ["EXPLAIN", "EXPLAIN ANALYZE"] {
            let plan = format!("{prefix} {sql}");
            assert_eq!(filters(&db, &plan), filtered, "{plan}");
        }
    }
    let rows = outcome(&db, "SELECT id, val FROM m WHERE __to = 3").unwrap();
    assert_eq!(
        rows,
        vec![
            vec![Value::Int(1), Value::Float(0.5)],
            vec![Value::Int(3), Value::Float(2.5)]
        ]
    );
}
