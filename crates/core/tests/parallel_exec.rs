//! End-to-end tests of the parallel execution engine against the
//! single-threaded reference semantics.

use dbcp::LocalDriver;
use graphgen::web_graph;
use sqldb::{Database, EngineProfile, Value};
use sqloop::parallel_sql::stable_hash;
use sqloop::{ExecutionMode, PrioritySpec, SQLoop, SqloopConfig, Strategy};
use std::sync::Arc;

/// Loads a small deterministic power-law graph into a fresh database.
fn db_with_graph(profile: EngineProfile, nodes: usize) -> Database {
    let graph = web_graph(nodes, 3, 7);
    let db = Database::new(profile);
    let mut s = db.connect();
    s.execute("CREATE TABLE edges (src INT, dst INT, weight FLOAT)")
        .unwrap();
    let weighted = graph.weighted_edges();
    for chunk in weighted.chunks(256) {
        let values = chunk
            .iter()
            .map(|(s, d, w)| format!("({s}, {d}, {w})"))
            .collect::<Vec<_>>()
            .join(", ");
        s.execute(&format!("INSERT INTO edges VALUES {values}"))
            .unwrap();
    }
    db
}

fn sqloop_for(db: &Database, mode: ExecutionMode, threads: usize, partitions: usize) -> SQLoop {
    let mut config = SqloopConfig {
        mode,
        threads,
        partitions,
        ..SqloopConfig::default()
    };
    if mode == ExecutionMode::AsyncPrio {
        config.priority = Some(PrioritySpec::highest("SELECT SUM(delta) FROM {}"));
    }
    SQLoop::new(Arc::new(LocalDriver::new(db.clone()))).with_config(config)
}

const PAGERANK: &str = "\
WITH ITERATIVE PageRank(Node, Rank, Delta) AS (
  SELECT src, 0, 0.15
  FROM (SELECT src FROM edges UNION SELECT dst FROM edges) AS alledges GROUP BY src
  ITERATE
  SELECT PageRank.Node,
         COALESCE(PageRank.Rank + PageRank.Delta, 0.15),
         COALESCE(0.85 * SUM(IncomingRank.Delta * IncomingEdges.weight), 0.0)
  FROM PageRank
  LEFT JOIN edges AS IncomingEdges ON PageRank.Node = IncomingEdges.dst
  LEFT JOIN PageRank AS IncomingRank ON IncomingRank.Node = IncomingEdges.src
  GROUP BY PageRank.Node
  UNTIL 10 ITERATIONS)
SELECT Node, Rank FROM PageRank ORDER BY Node";

const SSSP: &str = "\
WITH ITERATIVE sssp(Node, Distance, Delta) AS (
  SELECT src, Infinity, CASE WHEN src = 0 THEN 0 ELSE Infinity END
  FROM (SELECT src FROM edges UNION SELECT dst FROM edges) AS alledges GROUP BY src
  ITERATE
  SELECT sssp.Node, LEAST(sssp.Distance, sssp.Delta),
         COALESCE(MIN(Neighbor.Delta + IncomingEdges.weight), Infinity)
  FROM sssp
  LEFT JOIN edges AS IncomingEdges ON sssp.Node = IncomingEdges.dst
  LEFT JOIN sssp AS Neighbor ON Neighbor.Node = IncomingEdges.src
  WHERE Neighbor.Delta < Neighbor.Distance OR sssp.Delta < sssp.Distance
  GROUP BY sssp.Node
  UNTIL 0 UPDATES)
SELECT Node, Distance FROM sssp ORDER BY Node";

fn ranks(result: &sqldb::QueryResult) -> Vec<(i64, f64)> {
    result
        .rows
        .iter()
        .map(|r| (r[0].as_i64().unwrap(), r[1].as_f64().unwrap()))
        .collect()
}

#[test]
fn sync_parallel_pagerank_matches_single_threaded() {
    let db = db_with_graph(EngineProfile::Postgres, 60);
    let single = sqloop_for(&db, ExecutionMode::Single, 1, 1)
        .execute_detailed(PAGERANK)
        .unwrap();
    let sync = sqloop_for(&db, ExecutionMode::Sync, 3, 8)
        .execute_detailed(PAGERANK)
        .unwrap();
    assert!(matches!(
        sync.strategy,
        Strategy::IterativeParallel {
            mode: ExecutionMode::Sync
        }
    ));
    assert_eq!(sync.iterations, 10);
    let a = ranks(&single.result);
    let b = ranks(&sync.result);
    assert_eq!(a.len(), b.len());
    for ((n1, r1), (n2, r2)) in a.iter().zip(&b) {
        assert_eq!(n1, n2);
        assert!((r1 - r2).abs() < 1e-9, "node {n1}: single={r1} sync={r2}");
    }
}

#[test]
fn async_pagerank_converges_to_the_same_total() {
    // at equal iteration counts async propagates *at least* as much rank
    // mass as the synchronous semantics (it consumes intermediate results),
    // so both are compared against the converged fixpoint: for a closed
    // graph the delta-PR total converges to the node count
    let db = db_with_graph(EngineProfile::Postgres, 60);
    let query = PAGERANK.replace("UNTIL 10 ITERATIONS", "UNTIL 80 ITERATIONS");
    let single = sqloop_for(&db, ExecutionMode::Single, 1, 1)
        .execute(&query)
        .unwrap();
    let asn = sqloop_for(&db, ExecutionMode::Async, 3, 8)
        .execute(&query)
        .unwrap();
    let total =
        |r: &sqldb::QueryResult| -> f64 { r.rows.iter().map(|row| row[1].as_f64().unwrap()).sum() };
    let t1 = total(&single);
    let t2 = total(&asn);
    let n = single.rows.len() as f64;
    assert!(
        (t1 - n).abs() / n < 0.01,
        "single not converged: {t1} vs {n}"
    );
    // async leaves the final gathered (not yet applied) deltas in flight
    // when the per-partition iteration cap hits, so its tolerance is looser
    assert!(
        (t2 - n).abs() / n < 0.02,
        "async not converged: {t2} vs {n}"
    );
    assert!(t2 <= n + 1e-6, "async overshot the rank mass: {t2} > {n}");
}

#[test]
fn sssp_identical_across_all_modes_and_engines() {
    for profile in EngineProfile::ALL {
        let db = db_with_graph(profile, 40);
        let reference = sqloop_for(&db, ExecutionMode::Single, 1, 1)
            .execute(SSSP)
            .unwrap();
        for mode in [
            ExecutionMode::Sync,
            ExecutionMode::Async,
            ExecutionMode::AsyncPrio,
        ] {
            let mut sq = sqloop_for(&db, mode, 2, 6);
            if mode == ExecutionMode::AsyncPrio {
                sq.config_mut().priority = Some(PrioritySpec::lowest("SELECT MIN(delta) FROM {}"));
            }
            let out = sq.execute(SSSP).unwrap();
            assert_eq!(
                reference.rows, out.rows,
                "{profile} / {mode}: distances differ from reference"
            );
        }
    }
}

#[test]
fn non_parallelizable_query_falls_back_with_reason() {
    let db = db_with_graph(EngineProfile::Postgres, 20);
    // no aggregate in the step → single-threaded fallback
    let sql = "\
WITH ITERATIVE r(node, v) AS (
  SELECT src, 1.0 FROM edges GROUP BY src
  ITERATE
  SELECT r.node, r.v * 0.5 FROM r GROUP BY r.node, r.v
  UNTIL 3 ITERATIONS)
SELECT COUNT(*) FROM r";
    let report = sqloop_for(&db, ExecutionMode::Async, 2, 4)
        .execute_detailed(sql)
        .unwrap();
    match report.strategy {
        Strategy::IterativeSingle { fallback_reason } => {
            assert!(fallback_reason.is_some());
        }
        other => panic!("expected single-threaded fallback, got {other:?}"),
    }
    assert_eq!(report.iterations, 3);
}

#[test]
fn scratch_objects_are_cleaned_up() {
    let db = db_with_graph(EngineProfile::Postgres, 30);
    sqloop_for(&db, ExecutionMode::Sync, 2, 4)
        .execute(PAGERANK)
        .unwrap();
    let leftovers: Vec<String> = db
        .table_names()
        .into_iter()
        .filter(|t| t != "edges")
        .collect();
    assert!(leftovers.is_empty(), "leftover tables: {leftovers:?}");
}

#[test]
fn count_aggregate_parallel_matches_single() {
    // one round of in-degree counting: checks the paper's §V-D correction —
    // Gather must SUM the partial counts arriving from different partitions
    // rather than COUNT the incoming messages. A single iteration is used
    // because COUNT over the full join is not delta-consistent across
    // rounds (DESIGN.md §8).
    let sql = "\
WITH ITERATIVE reach(node, total, delta) AS (
  SELECT src, 0.0, 1.0
  FROM (SELECT src FROM edges UNION SELECT dst FROM edges) AS a GROUP BY src
  ITERATE
  SELECT reach.node, reach.total + reach.delta, COALESCE(COUNT(s.node), 0.0)
  FROM reach
  LEFT JOIN edges AS e ON reach.node = e.dst
  LEFT JOIN reach AS s ON s.node = e.src
  GROUP BY reach.node
  UNTIL 1 ITERATIONS)
SELECT node, delta FROM reach ORDER BY node";
    let db = db_with_graph(EngineProfile::Postgres, 30);
    let single = sqloop_for(&db, ExecutionMode::Single, 1, 1)
        .execute(sql)
        .unwrap();
    let sync = sqloop_for(&db, ExecutionMode::Sync, 2, 4)
        .execute(sql)
        .unwrap();
    assert_eq!(single.rows.len(), sync.rows.len());
    for (a, b) in single.rows.iter().zip(&sync.rows) {
        assert_eq!(a[0], b[0]);
        let (x, y) = (a[1].as_f64().unwrap(), b[1].as_f64().unwrap());
        assert!((x - y).abs() < 1e-9, "node {:?}: {x} vs {y}", a[0]);
    }
}

#[test]
fn parallel_run_reports_task_counts() {
    let db = db_with_graph(EngineProfile::Postgres, 40);
    let report = sqloop_for(&db, ExecutionMode::Sync, 2, 4)
        .execute_detailed(PAGERANK)
        .unwrap();
    // 10 rounds × 4 partitions computes
    assert_eq!(report.computes, 40);
    assert!(report.gathers > 0);
    assert!(report.messages > 0);
}

#[test]
fn mysql_profile_runs_parallel_pagerank() {
    let db = db_with_graph(EngineProfile::MySql, 40);
    let single = sqloop_for(&db, ExecutionMode::Single, 1, 1)
        .execute(PAGERANK)
        .unwrap();
    let sync = sqloop_for(&db, ExecutionMode::Sync, 2, 4)
        .execute(PAGERANK)
        .unwrap();
    let a = ranks(&single);
    let b = ranks(&sync);
    for ((n1, r1), (n2, r2)) in a.iter().zip(&b) {
        assert_eq!(n1, n2);
        assert!((r1 - r2).abs() < 1e-9);
    }
}

#[test]
fn plain_sql_passthrough_via_api() {
    let db = db_with_graph(EngineProfile::MariaDb, 20);
    let sq = sqloop_for(&db, ExecutionMode::Async, 2, 4);
    let report = sq.execute_detailed("SELECT COUNT(*) FROM edges").unwrap();
    assert_eq!(report.strategy, Strategy::Passthrough);
    assert!(report.result.rows[0][0].as_i64().unwrap() > 0);
}

/// The 40-node test graph with every node id rewritten by `label` into a
/// key of SQL type `key_type`.
fn db_with_relabeled_graph(
    profile: EngineProfile,
    key_type: &str,
    label: impl Fn(u64) -> String,
) -> Database {
    let graph = web_graph(40, 3, 7);
    let db = Database::new(profile);
    let mut s = db.connect();
    s.execute(&format!(
        "CREATE TABLE edges (src {key_type}, dst {key_type}, weight FLOAT)"
    ))
    .unwrap();
    let values = graph
        .weighted_edges()
        .iter()
        .map(|(s, d, w)| format!("({}, {}, {w})", label(*s), label(*d)))
        .collect::<Vec<_>>()
        .join(", ");
    s.execute(&format!("INSERT INTO edges VALUES {values}"))
        .unwrap();
    db
}

/// PageRank and SSSP in every parallel mode against the single-threaded
/// executor, for a key space the partition-local statements must get right:
/// `source` is node 0's key as a SQL literal.
fn assert_parallel_modes_match_single(db: &Database, source: &str, what: &str) {
    let sssp = SSSP.replace("src = 0", &format!("src = {source}"));
    let pagerank = PAGERANK.replace("UNTIL 10 ITERATIONS", "UNTIL 90 ITERATIONS");
    let single = |sql: &str| {
        sqloop_for(db, ExecutionMode::Single, 1, 1)
            .execute(sql)
            .unwrap()
    };
    let (sssp_ref, pr_sync_ref, pr_ref) = (single(&sssp), single(PAGERANK), single(&pagerank));
    assert!(
        sssp_ref
            .rows
            .iter()
            .filter(|r| r[1].as_f64() == Some(0.0))
            .count()
            == 1,
        "{what}: the source literal must name exactly one node"
    );
    for mode in [
        ExecutionMode::Sync,
        ExecutionMode::Async,
        ExecutionMode::AsyncPrio,
    ] {
        let parallel = || sqloop_for(db, mode, 2, 6);
        let mut sq = parallel();
        if mode == ExecutionMode::AsyncPrio {
            sq.config_mut().priority = Some(PrioritySpec::lowest("SELECT MIN(delta) FROM {}"));
        }
        assert_eq!(
            sssp_ref.rows,
            sq.execute(&sssp).unwrap().rows,
            "{what} / {mode}: SSSP distances differ from the reference"
        );
        // Sync is the single-threaded semantics round for round; the
        // barrier-free modes are compared where both have converged
        // (0.85^90 ≈ 4e-7 of the rank mass is still in flight)
        let sq = parallel();
        let (reference, out, tolerance) = if mode == ExecutionMode::Sync {
            (&pr_sync_ref, sq.execute(PAGERANK).unwrap(), 1e-9)
        } else {
            (&pr_ref, sq.execute(&pagerank).unwrap(), 1e-4)
        };
        assert_eq!(reference.rows.len(), out.rows.len(), "{what} / {mode}");
        for (a, b) in reference.rows.iter().zip(&out.rows) {
            assert_eq!(a[0], b[0], "{what} / {mode}");
            let (x, y) = (a[1].as_f64().unwrap(), b[1].as_f64().unwrap());
            assert!(
                (x - y).abs() < tolerance,
                "{what} / {mode}: node {:?} rank {x} vs {y}",
                a[0]
            );
        }
    }
}

#[test]
fn negative_node_ids_route_to_the_partition_that_owns_them() {
    // ids -20..19: SQL's `%` truncates toward zero while partitioning uses
    // rem_euclid, so a routed Gather that filtered with a bare `id % n`
    // would drop every message addressed to a negative id
    for profile in EngineProfile::ALL {
        let db = db_with_relabeled_graph(profile, "INT", |n| (n as i64 - 20).to_string());
        assert_parallel_modes_match_single(&db, "-20", &format!("{profile} negative ids"));
    }
}

#[test]
fn text_keys_run_unrouted_and_match_single() {
    // a TEXT key has no SQL-expressible bucket function: routing is off and
    // every Gather reads every message (the broadcast form)
    let db = db_with_relabeled_graph(EngineProfile::Postgres, "TEXT", |n| format!("'n{n:02}'"));
    assert_parallel_modes_match_single(&db, "'n00'", "text keys");
}

/// Runs a kept Sync PageRank over 6 partitions on the test graph relabeled
/// by `label` into `key_type` keys, and checks that partition x holds
/// exactly the nodes `bucket` maps to x; returns the nodes, sorted.
fn assert_partitioned_by(
    key_type: &str,
    label: impl Fn(u64) -> String,
    bucket: impl Fn(&Value) -> usize,
) -> Vec<Value> {
    let db = db_with_relabeled_graph(EngineProfile::Postgres, key_type, label);
    let mut sq = sqloop_for(&db, ExecutionMode::Sync, 2, 6);
    sq.config_mut().keep_artifacts = true;
    sq.execute(&PAGERANK.replace("UNTIL 10", "UNTIL 1"))
        .unwrap();
    let mut s = db.connect();
    let mut held = Vec::new();
    for x in 0..6 {
        let keys = s.query(&format!("SELECT node FROM pagerank__pt{x}"));
        for k in keys.unwrap().rows {
            assert_eq!(bucket(&k[0]), x, "{key_type}: {:?} in partition {x}", k[0]);
            held.push(k[0].clone());
        }
    }
    let nodes = s.query("SELECT src FROM edges UNION SELECT dst FROM edges");
    let mut nodes: Vec<Value> = nodes
        .unwrap()
        .rows
        .into_iter()
        .map(|mut r| r.remove(0))
        .collect();
    nodes.sort();
    held.sort();
    assert_eq!(
        held, nodes,
        "{key_type}: every node in exactly one partition"
    );
    held
}

#[test]
fn partitions_hold_exactly_the_keys_bucket_assigns_them() {
    // an INT key (ids -20..19) is split inside the engine by
    // `(k % n + n) % n`, a TEXT key by the middleware's hash; either way
    // partition x holds exactly the keys `SqlGen::bucket` maps to x
    let ints = assert_partitioned_by(
        "INT",
        |i| (i as i64 - 20).to_string(),
        |k| k.as_i64().unwrap().rem_euclid(6) as usize,
    );
    assert!(
        ints[0].as_i64().unwrap() < 0,
        "negative ids were partitioned"
    );
    assert_partitioned_by(
        "TEXT",
        |i| format!("'n{i:02}'"),
        |k| (stable_hash(k) % 6) as usize,
    );
}

#[test]
fn a_seed_that_repeats_a_column_runs_single_and_parallel() {
    // the connected-components seed selects `src` three times: R takes the
    // declared names, in the single-threaded executor and in Sync alike
    let db = db_with_graph(EngineProfile::Postgres, 60);
    db.connect()
        .execute(
            "CREATE VIEW both_edges AS SELECT src, dst, weight FROM edges \
             UNION ALL SELECT dst AS src, src AS dst, weight FROM edges",
        )
        .unwrap();
    let wcc = "\
WITH ITERATIVE wcc(Node, Component, Delta) AS (
  SELECT src, src, src
  FROM (SELECT src FROM edges UNION SELECT dst FROM edges) AS alledges GROUP BY src
  ITERATE
  SELECT wcc.Node, LEAST(wcc.Component, wcc.Delta), COALESCE(MIN(Neighbor.Delta), Infinity)
  FROM wcc
  LEFT JOIN both_edges AS IncomingEdges ON wcc.Node = IncomingEdges.dst
  LEFT JOIN wcc AS Neighbor ON Neighbor.Node = IncomingEdges.src
  GROUP BY wcc.Node
  UNTIL 30 ITERATIONS)
SELECT Node, Component FROM wcc ORDER BY Node";
    let single = sqloop_for(&db, ExecutionMode::Single, 1, 1)
        .execute(wcc)
        .unwrap();
    let report = sqloop_for(&db, ExecutionMode::Sync, 2, 4)
        .execute_detailed(wcc)
        .unwrap();
    assert!(report.messages > 0, "{:?}", report.strategy);
    assert_eq!(single.rows.len(), 60);
    assert_eq!(single.rows, report.result.rows);
}

/// The message slots a `keep_artifacts` run left in `db`.
fn kept_slots(db: &Database) -> Vec<String> {
    let mut slots = db.table_names();
    slots.retain(|t| t.contains("__msgslot_"));
    slots
}

#[test]
fn routed_slots_address_their_rows_and_gathers_seek_them() {
    // ids -10..10 over 6 partitions, every node live every round: every
    // slot row must carry the partition that owns its id, and reading a
    // slot the way Gather does (`WHERE __to = x`) must go through the
    // slot's index
    for profile in EngineProfile::ALL {
        for mode in [
            ExecutionMode::Sync,
            ExecutionMode::Async,
            ExecutionMode::AsyncPrio,
        ] {
            let what = format!("{profile} / {mode}");
            let db = db_with_ring(profile);
            let mut sq = sqloop_for(&db, mode, 2, 6);
            sq.config_mut().keep_artifacts = true;
            let report = sq.execute_detailed(PAGERANK).unwrap();
            assert!(report.messages > 0, "{what}");
            let slots = kept_slots(&db);
            assert!(!slots.is_empty(), "{what}");
            let mut s = db.connect();
            let (mut negative, mut total) = (0, 0);
            for slot in &slots {
                let count = |s: &mut sqldb::Session, pred: &str| {
                    let sql = format!("SELECT COUNT(*) FROM {slot} WHERE {pred}");
                    s.query(&sql).unwrap().rows[0][0].as_i64().unwrap()
                };
                assert_eq!(
                    count(&mut s, "__to <> (id % 6 + 6) % 6 OR __to IS NULL"),
                    0,
                    "{what}: {slot} misaddressed a message"
                );
                negative += count(&mut s, "id < 0");
                total += count(&mut s, "id = id");
                // one Gather branch per partition: each is one index
                // lookup that visits exactly the rows it returns
                let before = db.stats();
                let mut read = 0;
                for x in 0..6 {
                    let sql = format!("SELECT id, val FROM {slot} WHERE __to = {x}");
                    read += s.query(&sql).unwrap().rows.len() as u64;
                }
                let d = db.stats().delta_since(&before);
                assert_eq!(d.index_lookups, 6, "{what}: {slot}");
                assert_eq!(d.rows_scanned, read, "{what}: {slot}");
                let plan = s
                    .query(&format!(
                        "EXPLAIN SELECT id, val FROM {slot} WHERE __to = 1"
                    ))
                    .unwrap();
                let seek = format!("IndexSeek {slot} using {slot}__ito (__to = 1)");
                assert!(
                    plan.rows.iter().any(|r| r[0].to_string().contains(&seek)),
                    "{what}: {plan:?}"
                );
            }
            assert!(
                negative > 0 && negative < total,
                "{what}: {negative} of {total}"
            );
            // the run itself did at least one such lookup per message it
            // created (every message is read by the partitions it names)
            let engine = report.engine_stats.expect("local driver sees the engine");
            assert!(engine.index_lookups >= report.messages, "{what}");
        }
    }
}

#[test]
fn text_key_slots_stay_unrouted() {
    let db = db_with_relabeled_graph(EngineProfile::Postgres, "TEXT", |n| format!("'n{n:02}'"));
    let mut sq = sqloop_for(&db, ExecutionMode::Sync, 2, 6);
    sq.config_mut().keep_artifacts = true;
    sq.execute(PAGERANK).unwrap();
    let slots = kept_slots(&db);
    assert!(!slots.is_empty());
    let mut s = db.connect();
    for slot in &slots {
        assert!(s.query(&format!("SELECT id, val FROM {slot}")).is_ok());
        let err = s.query(&format!("SELECT __to FROM {slot}"));
        assert!(err.is_err(), "{slot} carries a destination column");
    }
}

/// A ring with chords over ids -10..10: every node has two incoming edges,
/// so every `AVG` has inputs every round.
fn db_with_ring(profile: EngineProfile) -> Database {
    let db = Database::new(profile);
    let mut s = db.connect();
    s.execute("CREATE TABLE edges (src INT, dst INT, weight FLOAT)")
        .unwrap();
    let wrap = |i: i64| (i + 10).rem_euclid(21) - 10;
    let values: Vec<String> = (-10..=10)
        .flat_map(|i| {
            [
                format!("({i}, {}, 0.5)", wrap(i + 1)),
                format!("({i}, {}, 1.0)", wrap(i + 5)),
            ]
        })
        .collect();
    s.execute(&format!("INSERT INTO edges VALUES {}", values.join(", ")))
        .unwrap();
    db
}

const AVERAGE: &str = "\
WITH ITERATIVE av(Node, Acc, Delta) AS (
  SELECT src, 0.0, 1.0 + src * 0.01 FROM edges GROUP BY src
  ITERATE
  SELECT av.Node, av.Acc + av.Delta, COALESCE(AVG(Nb.Delta * E.weight), 0.0)
  FROM av
  LEFT JOIN edges AS E ON av.Node = E.dst
  LEFT JOIN av AS Nb ON Nb.Node = E.src
  GROUP BY av.Node
  UNTIL 6 ITERATIONS)
SELECT Node, Acc FROM av ORDER BY Node";

#[test]
fn avg_query_folds_sum_and_count_through_routed_slots() {
    for profile in EngineProfile::ALL {
        let db = db_with_ring(profile);
        let single = sqloop_for(&db, ExecutionMode::Single, 1, 1)
            .execute(AVERAGE)
            .unwrap();
        assert_eq!(single.rows.len(), 21);
        // Sync is the single-threaded semantics round for round
        let sync = sqloop_for(&db, ExecutionMode::Sync, 2, 6)
            .execute_detailed(AVERAGE)
            .unwrap();
        assert!(
            matches!(sync.strategy, Strategy::IterativeParallel { .. }),
            "{profile}: {:?}",
            sync.strategy
        );
        for (a, b) in ranks(&single).iter().zip(ranks(&sync.result)) {
            assert_eq!(a.0, b.0, "{profile}");
            assert!(
                (a.1 - b.1).abs() < 1e-9,
                "{profile}: node {} {a:?} vs {b:?}",
                a.0
            );
        }
        // AVG is not invariant under the order messages arrive in (an
        // average of partial averages is not the average), so the
        // barrier-free modes have no oracle to match: they must run the
        // same statements to completion over every node
        for mode in [ExecutionMode::Async, ExecutionMode::AsyncPrio] {
            let out = sqloop_for(&db, mode, 2, 6).execute(AVERAGE).unwrap();
            let out = ranks(&out);
            assert_eq!(out.len(), 21, "{profile} / {mode}");
            assert!(
                out.iter().all(|(_, acc)| acc.is_finite() && *acc > 0.0),
                "{profile} / {mode}: {out:?}"
            );
        }
    }
}

// -- the scheduler's three mechanisms: statements translated once, one task
// dispatched ahead of the workers, and Async's G;C pairing -----------------

/// A path of `len` hops from node 0 whose ids advance by `step` per hop, so
/// with `step` coprime to the partition count every hop moves `step`
/// partitions forward in scan order (wrapping).
fn db_with_path(len: i64, step: i64) -> Database {
    let db = Database::new(EngineProfile::Postgres);
    let mut s = db.connect();
    s.execute("CREATE TABLE edges (src INT, dst INT, weight FLOAT)")
        .unwrap();
    let values: Vec<String> = (0..len)
        .map(|i| format!("({}, {}, 1.0)", i * step, (i + 1) * step))
        .collect();
    s.execute(&format!("INSERT INTO edges VALUES {}", values.join(", ")))
        .unwrap();
    db
}

#[test]
fn blind_async_pairs_gather_and_compute_under_two_workers() {
    // one frontier walking 32 partitions 7 at a time: Sync moves it one hop
    // per round. Blind Async picks a partition's Compute as soon as its
    // Gather is back, so the message is out before the scan reaches the
    // partition it addresses and the frontier moves ~32/7 hops per round —
    // as long as the pairing survives two workers and the dispatched-ahead
    // task. (A hop to the *next* partition in scan order cannot chain under
    // any dispatch-ahead: that partition's task is built before the hop's
    // Compute has run.)
    let db = db_with_path(64, 7);
    let sync = sqloop_for(&db, ExecutionMode::Sync, 2, 32)
        .execute_detailed(SSSP)
        .unwrap();
    let asynchronous = sqloop_for(&db, ExecutionMode::Async, 2, 32)
        .execute_detailed(SSSP)
        .unwrap();
    assert_eq!(sync.result.rows, asynchronous.result.rows);
    assert_eq!(sync.result.rows.len(), 65);
    assert_eq!(sync.result.rows[64][1].as_f64(), Some(64.0));
    assert!(sync.iterations >= 64, "Sync: {} rounds", sync.iterations);
    assert!(
        asynchronous.iterations * 2 <= sync.iterations,
        "Async took {} rounds, Sync {}",
        asynchronous.iterations,
        sync.iterations
    );
}

#[test]
fn one_worker_asyncp_schedule_repeats_exactly() {
    // with one worker completions arrive in dispatch order and tasks are
    // picked only when a completion is handled, so dispatching one task
    // ahead leaves the schedule a pure function of state
    let db = db_with_graph(EngineProfile::Postgres, 80);
    let run = || {
        let mut sq = sqloop_for(&db, ExecutionMode::AsyncPrio, 1, 8);
        sq.config_mut().priority = Some(PrioritySpec::lowest("SELECT MIN(delta) FROM {}"));
        let r = sq.execute_detailed(SSSP).unwrap();
        (
            (r.iterations, r.computes, r.gathers, r.messages),
            r.result.rows,
        )
    };
    let (first, rows) = run();
    assert!(first.1 > 8 && first.2 > 0, "{first:?}");
    for _ in 0..3 {
        let (again, again_rows) = run();
        assert_eq!(first, again);
        assert_eq!(rows, again_rows);
    }
}

#[test]
fn a_task_queued_behind_a_stalled_worker_is_run_by_its_replacement() {
    use dbcp::{with_chaos, ChaosConfig, Driver, FaultKind, ScheduledFault};
    // a 40-hop chain keeps every mode busy for hundreds of statements
    let graph = graphgen::chain(41);
    let oracle = workloads::oracle::sssp(&graph, 0);
    assert_eq!(oracle.len(), 41);
    for mode in [
        ExecutionMode::Sync,
        ExecutionMode::Async,
        ExecutionMode::AsyncPrio,
    ] {
        let clean: Arc<dyn Driver> =
            Arc::new(LocalDriver::new(Database::new(EngineProfile::Postgres)));
        workloads::load_edges(clean.connect().unwrap().as_mut(), &graph).unwrap();
        // past setup and the worker's connect, the next statement the
        // worker runs hangs for good (the control connection is shielded):
        // one task running, one in the channel
        let (driver, stats) = with_chaos(
            clean,
            ChaosConfig {
                fault_rate: 0.0,
                max_faults: Some(1),
                skip_connections: 1,
                schedule: (100..400)
                    .map(|nth_op| ScheduledFault {
                        nth_op,
                        kind: FaultKind::StallForever,
                    })
                    .collect(),
                ..ChaosConfig::default()
            },
        );
        let mut config = SqloopConfig {
            mode,
            threads: 1,
            partitions: 8,
            task_retries: 3,
            retry_backoff: std::time::Duration::ZERO,
            stall_timeout: Some(std::time::Duration::from_millis(200)),
            trace: sqloop::TraceConfig::on(),
            ..SqloopConfig::default()
        };
        if mode == ExecutionMode::AsyncPrio {
            config.priority = Some(PrioritySpec::lowest("SELECT MIN(delta) FROM {}"));
        }
        let report = SQLoop::new(driver)
            .with_config(config)
            .execute_detailed(&workloads::queries::sssp_all(0))
            .unwrap();
        assert_eq!(stats.stalls(), 1, "{mode}");
        assert_eq!(report.recovery.stalls, 1, "{mode}: {:?}", report.recovery);
        assert_eq!(report.recovery.worker_replacements, 1, "{mode}");
        assert!(!report.recovery.downgraded, "{mode}");
        // worker 0 is the only one that can have stalled. Its replacement
        // started on the task that was waiting in the channel — a first
        // attempt — before it got to the replay of the stalled one
        let mut spans = report.trace_data.expect("trace is on").spans;
        spans.sort_by_key(|s| s.start_us);
        let replacement: Vec<_> = spans.iter().filter(|s| s.worker == Some(1)).collect();
        assert_eq!(replacement[0].attempt, 1, "{mode}: {:?}", replacement[0]);
        assert!(
            replacement.iter().any(|s| s.attempt == 2),
            "{mode}: the stalled task was never replayed"
        );
        for row in &report.result.rows {
            let node = row[0].as_i64().unwrap() as u64;
            let d = row[1].as_f64().unwrap();
            match oracle.get(&node) {
                Some(&expected) => assert!((d - expected).abs() < 1e-9, "{mode}: node {node}"),
                None => assert!(d.is_infinite(), "{mode}: node {node}"),
            }
        }
        stats.heal_stalls();
    }
}

// -- the schedules the scheduler loop must keep -----------------------------

/// PageRank stopped by a DELTA condition over the `<R>delta` snapshot.
fn pagerank_until_delta() -> String {
    PAGERANK.replace(
        "UNTIL 10 ITERATIONS",
        "UNTIL DELTA SELECT SUM(PageRank.Rank) - SUM(PageRankdelta.Rank) \
         FROM PageRank, PageRankdelta < 4.0",
    )
}

/// `(iterations, last_change, computes, gathers, messages)` of a run.
type Counts = (u64, u64, u64, u64, u64);

/// One parallel run at `threads = 1` as the scheduler reports it: its
/// `(iterations, last_change, computes, gathers, messages)` (or the error
/// text), its recovery counters, and its round / barrier / checkpoint /
/// watchdog trace events in order, one word each — `r<round>=<changed>`,
/// `b<round>`, `c<round>`, `w<round>`.
fn schedule(
    db: &Database,
    mode: ExecutionMode,
    sql: &str,
    configure: impl FnOnce(&mut SqloopConfig),
) -> (Result<Counts, String>, sqloop::RecoveryCounters, String) {
    use obs::EventKind;
    let sq = {
        let mut sq = sqloop_for(db, mode, 1, 4);
        if sql.contains("sssp") {
            sq.config_mut().priority = Some(PrioritySpec::lowest("SELECT MIN(delta) FROM {}"));
        }
        configure(sq.config_mut());
        sq
    };
    let cte = match sqloop::parse(sql).unwrap() {
        sqloop::SqloopQuery::Iterative(c) => c,
        other => panic!("not iterative: {other:?}"),
    };
    let plan = match sqloop::analyze(&cte, &cte.columns).unwrap() {
        sqloop::AnalysisOutcome::Parallelizable(p) => p,
        other => panic!("not parallelizable: {other:?}"),
    };
    let trace = obs::TraceHandle::new(true);
    let (result, recovery) = sqloop::parallel::run_iterative(
        sq.driver(),
        &cte,
        sqloop::Layout::Partitioned(Box::new(plan)),
        sq.config(),
        &trace,
        &Default::default(),
    );
    let result = result
        .map(|r| {
            let o = r.outcome;
            (
                o.iterations,
                o.last_change,
                r.computes,
                r.gathers,
                r.messages,
            )
        })
        .map_err(|e| e.to_string());
    let events: Vec<String> = trace
        .data()
        .unwrap()
        .events
        .iter()
        .filter_map(|e| {
            let round = e.iteration.unwrap_or(0);
            Some(match e.kind {
                EventKind::Round => {
                    let changed = e.detail.trim_end_matches(" row(s) changed");
                    format!("r{round}={changed}")
                }
                EventKind::Barrier => format!("b{round}"),
                EventKind::Checkpoint => format!("c{round}"),
                EventKind::Watchdog => format!("w{round}"),
                _ => return None,
            })
        })
        .collect();
    (result, recovery, events.join(" "))
}

#[test]
fn one_worker_schedules_are_pinned() {
    let db = db_with_graph(EngineProfile::Postgres, 40);
    // a 16-hop path stepping 3 partitions a hop keeps SSSP busy for rounds
    let path = db_with_path(16, 3);
    let delta = pagerank_until_delta();
    let modes = [
        ExecutionMode::Sync,
        ExecutionMode::Async,
        ExecutionMode::AsyncPrio,
    ];
    let mut actual = Vec::new();
    for (what, db, sql) in [
        ("pagerank", &db, PAGERANK),
        ("sssp", &path, SSSP),
        ("delta", &db, &delta),
    ] {
        for mode in modes {
            actual.push((what, mode, schedule(db, mode, sql, |_| {})));
        }
    }
    // checkpoints every 2 rounds carry the quiesce's changes into the next
    // round; the watchdog's round budget ends the run governed at round 5
    for mode in modes {
        let dir = std::env::temp_dir().join(format!(
            "sqloop-pinned-{}-{}",
            mode.label(),
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let run = schedule(&db, mode, PAGERANK, |c| {
            c.checkpoint = Some(sqloop::CheckpointConfig::new(&dir).every(2));
            c.watchdog.max_rounds = Some(5);
        });
        let _ = std::fs::remove_dir_all(&dir);
        actual.push(("governed", mode, run));
    }
    for (what, mode, (_, recovery, _)) in &actual {
        assert_eq!(
            *recovery,
            sqloop::RecoveryCounters::default(),
            "{what} / {mode}"
        );
    }
    // recorded on the three hand-written scheduler loops the event loop
    // replaced; a scheduler refactor may not edit them
    let budget = "max_rounds budget exhausted at round 5";
    #[rustfmt::skip]
    let expected: [(&str, ExecutionMode, Result<Counts, &str>, &str); 12] = [
        ("pagerank", ExecutionMode::Sync, Ok((10, 4, 40, 29, 31)),
         "b1 b1 r1=59 b2 b2 r2=29 b3 b3 r3=16 b4 b4 r4=10 b5 b5 r5=7 \
          b6 b6 r6=5 b7 b7 r7=4 b8 b8 r8=4 b9 b9 r9=4 b10 b10 r10=4"),
        ("pagerank", ExecutionMode::Async, Ok((10, 2, 40, 29, 29)),
         "r1=45 r2=34 r3=18 r4=10 r5=6 r6=4 r7=4 r8=4 r9=4 r10=4 r11=2"),
        ("pagerank", ExecutionMode::AsyncPrio, Ok((10, 5, 27, 26, 27)),
         "r1=54 r2=33 r3=12 r4=10 r5=8 r6=8"),
        ("sssp", ExecutionMode::Sync, Ok((18, 0, 72, 16, 16)),
         "b1 b1 r1=2 b2 b2 r2=2 b3 b3 r3=2 b4 b4 r4=2 b5 b5 r5=2 b6 b6 r6=2 \
          b7 b7 r7=2 b8 b8 r8=2 b9 b9 r9=2 b10 b10 r10=2 b11 b11 r11=2 \
          b12 b12 r12=2 b13 b13 r13=2 b14 b14 r14=2 b15 b15 r15=2 \
          b16 b16 r16=2 b17 b17 r17=1 b18 b18 r18=0"),
        ("sssp", ExecutionMode::Async, Ok((14, 0, 56, 16, 16)),
         "r1=3 r2=2 r3=2 r4=4 r5=2 r6=2 r7=4 r8=2 r9=2 r10=4 r11=2 r12=2 \
          r13=2 r14=0"),
        ("sssp", ExecutionMode::AsyncPrio, Ok((5, 3, 19, 16, 16)),
         "r1=6 r2=8 r3=8 r4=8"),
        ("delta", ExecutionMode::Sync, Ok((27, 4, 108, 63, 65)),
         "b1 b1 r1=59 b2 b2 r2=29 b3 b3 r3=16 b4 b4 r4=10 b5 b5 r5=7 \
          b6 b6 r6=5 b7 b7 r7=4 b8 b8 r8=4 b9 b9 r9=4 b10 b10 r10=4 \
          b11 b11 r11=4 b12 b12 r12=4 b13 b13 r13=4 b14 b14 r14=4 \
          b15 b15 r15=4 b16 b16 r16=4 b17 b17 r17=4 b18 b18 r18=4 \
          b19 b19 r19=4 b20 b20 r20=4 b21 b21 r21=4 b22 b22 r22=4 \
          b23 b23 r23=4 b24 b24 r24=4 b25 b25 r25=4 b26 b26 r26=4 \
          b27 b27 r27=4"),
        ("delta", ExecutionMode::Async, Ok((26, 4, 104, 59, 61)),
         "r1=45 r2=34 r3=18 r4=10 r5=6 r6=4 r7=4 r8=4 r9=4 r10=4 r11=4 \
          r12=4 r13=4 r14=4 r15=4 r16=4 r17=4 r18=4 r19=4 r20=4 r21=4 \
          r22=4 r23=4 r24=4 r25=4 r26=4"),
        ("delta", ExecutionMode::AsyncPrio, Ok((12, 8, 49, 47, 49)),
         "r1=54 r2=33 r3=12 r4=10 r5=8 r6=8 r7=8 r8=8 r9=8 r10=8 r11=8 \
          r12=8"),
        ("governed", ExecutionMode::Sync, Err(budget),
         "b1 b1 r1=59 b2 b2 r2=29 c2 b3 b3 r3=16 b4 b4 r4=10 c4 \
          b5 b5 r5=7 w5 c5"),
        ("governed", ExecutionMode::Async, Err(budget),
         "r1=45 r2=34 c2 r3=19 r4=10 c4 r5=6 w5 c5"),
        ("governed", ExecutionMode::AsyncPrio, Err(budget),
         "r1=54 r2=33 c2 r3=16 r4=10 c4 r5=11 w5 c5"),
    ];
    assert_eq!(actual.len(), expected.len());
    for ((what, mode, (result, _, events)), e) in actual.iter().zip(&expected) {
        let result = result.as_ref().map(|r| *r).map_err(String::as_str);
        assert_eq!(
            (*what, *mode, result, events.as_str()),
            (e.0, e.1, e.2, e.3)
        );
    }
}

/// What one Single run reports: `(iterations, last_change, cancelled)` or
/// the error text, an FNV-1a digest of the result rows' `Debug` text (float
/// `Debug` round-trips, so equal digests mean bit-identical rows), the
/// number of Iteration spans, and the checkpoint / watchdog / cancel trace
/// events in order, one word each — `c<round>`, `w<round>`, `x<round>`. A
/// failed run has no report: its digest, spans and events come back zero
/// and empty.
type SingleRun = (Result<(u64, u64, bool), String>, u64, usize, String);

fn single_run(db: &Database, sql: &str, configure: impl FnOnce(&mut SqloopConfig)) -> SingleRun {
    use obs::{EventKind, SpanKind};
    let mut sq = sqloop_for(db, ExecutionMode::Single, 1, 1);
    sq.config_mut().trace = sqloop::TraceConfig::on();
    configure(sq.config_mut());
    let report = match sq.execute_detailed(sql) {
        Ok(r) => r,
        Err(e) => return (Err(e.to_string()), 0, 0, String::new()),
    };
    let digest = format!("{:?}", report.result.rows)
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
    let data = report.trace_data.expect("trace is on");
    let spans = data
        .spans
        .iter()
        .filter(|s| s.kind == SpanKind::Iteration)
        .count();
    let events: Vec<String> = data
        .events
        .iter()
        .filter_map(|e| {
            let round = e.iteration.unwrap_or(0);
            Some(match e.kind {
                EventKind::Checkpoint => format!("c{round}"),
                EventKind::Watchdog => format!("w{round}"),
                EventKind::Cancel => format!("x{round}"),
                _ => return None,
            })
        })
        .collect();
    let outcome = (report.iterations, report.last_change, report.cancelled);
    (Ok(outcome), digest, spans, events.join(" "))
}

#[test]
fn single_runs_are_pinned() {
    let db = db_with_graph(EngineProfile::Postgres, 40);
    let path = db_with_path(16, 3);
    let delta = pagerank_until_delta();
    let dir = |tag: &str| {
        let dir =
            std::env::temp_dir().join(format!("sqloop-pinned-single-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    };
    let (ckpt, governed, cancelled) = (dir("ckpt"), dir("governed"), dir("cancel"));
    let actual = [
        single_run(&db, PAGERANK, |_| {}),
        // checkpoints every 4 iterations of a run that ends by itself
        single_run(&path, SSSP, |c| {
            c.checkpoint = Some(sqloop::CheckpointConfig::new(&ckpt).every(4));
        }),
        single_run(&db, &delta, |_| {}),
        // the watchdog's round budget ends the run governed at iteration 5
        single_run(&db, PAGERANK, |c| {
            c.checkpoint = Some(sqloop::CheckpointConfig::new(&governed).every(2));
            c.watchdog.max_rounds = Some(5);
        }),
        // an expired deadline stops the run before its first iteration,
        // with a final checkpoint
        single_run(&db, PAGERANK, |c| {
            c.checkpoint = Some(sqloop::CheckpointConfig::new(&cancelled));
            c.deadline = Some(std::time::Duration::ZERO);
        }),
    ];
    // the governed abort's final snapshot keeps the single-threaded layout
    let snap = sqloop::checkpoint::load_latest(&governed).unwrap();
    let tables: Vec<&str> = snap.tables.iter().map(|t| t.name.as_str()).collect();
    assert_eq!(
        (
            snap.mode.as_str(),
            snap.round,
            snap.parts.len(),
            snap.seeds.len()
        ),
        ("Single", 5, 0, 0)
    );
    assert_eq!(tables, ["pagerank"]);
    for d in [&ckpt, &governed, &cancelled] {
        let _ = std::fs::remove_dir_all(d);
    }
    // recorded on the single-threaded executor before it became a policy of
    // the scheduler loop; that refactor may not edit them
    #[rustfmt::skip]
    let expected: [SingleRun; 5] = [
        (Ok((10, 2, false)), 18240358784409690259, 10, String::new()),
        (Ok((18, 0, false)), 382492215824997334, 18, "c4 c8 c12 c16".into()),
        (Ok((27, 2, false)), 13016893308902249497, 27, String::new()),
        (Err("max_rounds budget exhausted at round 5".into()), 0, 0, String::new()),
        (Ok((0, 0, true)), 10418747608562655987, 0, "x0 c0".into()),
    ];
    assert_eq!(actual, expected);
}

// -- priority queries that fail ---------------------------------------------

#[test]
fn a_priority_query_that_fails_at_start_fails_the_run_by_name() {
    let db = db_with_graph(EngineProfile::Postgres, 30);
    let mut sq = sqloop_for(&db, ExecutionMode::AsyncPrio, 2, 4);
    // parses, but names a column the partitions do not have
    sq.config_mut().priority = Some(PrioritySpec::lowest("SELECT MIN(dlta) FROM {}"));
    let err = sq.execute(SSSP).unwrap_err();
    match &err {
        sqloop::SqloopError::Priority { query, source } => {
            assert!(
                query.contains("dlta") && query.contains("sssp__pt0"),
                "{query}"
            );
            assert!(!source.is_retryable(), "{source}");
        }
        other => panic!("expected a priority error, got {other:?}"),
    }
    assert!(err.to_string().contains("dlta"), "{err}");
    // cleaned up like any other failed run
    assert_eq!(db.table_names(), ["edges"]);
}

#[test]
fn a_priority_query_that_fails_later_keeps_the_previous_priority() {
    // 1 / COUNT(still unreached): fine while a partition has unreached
    // nodes, an integer division by zero from the Gather that reaches its
    // last one on. Every node of the ring is reachable, so every partition
    // gets there
    let db = db_with_ring(EngineProfile::Postgres);
    let reference = sqloop_for(&db, ExecutionMode::Single, 1, 1)
        .execute(SSSP)
        .unwrap();
    let mut sq = sqloop_for(&db, ExecutionMode::AsyncPrio, 2, 6);
    sq.config_mut().priority = Some(PrioritySpec::highest(
        "SELECT 1 / COUNT(*) FROM {} WHERE delta = Infinity",
    ));
    sq.config_mut().trace = sqloop::TraceConfig::on();
    let report = sq.execute_detailed(SSSP).unwrap();
    assert_eq!(reference.rows, report.result.rows);
    let failed: Vec<_> = report
        .trace_data
        .expect("trace is on")
        .events
        .into_iter()
        .filter(|e| e.kind == obs::EventKind::PriorityFailed)
        .collect();
    assert!(!failed.is_empty(), "no refresh ever failed");
    for e in &failed {
        // the priority in force is still a value the query produced,
        // not ±infinity
        assert!(
            e.detail.starts_with("keeping priority 0:")
                || e.detail.starts_with("keeping priority 1:"),
            "{}",
            e.detail
        );
        assert!(e.detail.contains("division by zero"), "{}", e.detail);
    }
}

/// Weakly-connected components by MIN label propagation reach the oracle
/// in every parallel mode. A row sends its label only when it moved below
/// the `__sent` watermark (what the row last sent), so once the labels
/// settle a Compute emits nothing: a Sync run twice as long sends no more
/// messages, though its Computes keep running.
#[test]
fn connected_components_reach_the_oracle_and_settled_partitions_send_nothing() {
    let graph = web_graph(300, 3, 3);
    let oracle = workloads::oracle::connected_components(&graph);
    let db = Database::new(EngineProfile::Postgres);
    let mut s = db.connect();
    s.execute("CREATE TABLE edges (src INT, dst INT, weight FLOAT)")
        .unwrap();
    let values: Vec<String> = (graph.weighted_edges().iter())
        .map(|(s, d, w)| format!("({s}, {d}, {w})"))
        .collect();
    s.execute(&format!("INSERT INTO edges VALUES {}", values.join(", ")))
        .unwrap();
    s.execute(workloads::queries::BOTH_EDGES_DDL).unwrap();
    let run = |mode, rounds| {
        let sq = sqloop_for(&db, mode, 2, 8);
        let report = sq
            .execute_detailed(&workloads::queries::connected_components(rounds))
            .unwrap();
        for row in &report.result.rows {
            let node = row[0].as_i64().unwrap() as u64;
            let label = row[1].as_f64().unwrap() as u64;
            assert_eq!(label, oracle[&node], "{mode}: node {node}");
        }
        assert_eq!(report.result.rows.len(), oracle.len(), "{mode}");
        report
    };
    for mode in [ExecutionMode::Async, ExecutionMode::AsyncPrio] {
        run(mode, 40);
    }
    let short = run(ExecutionMode::Sync, 40);
    let long = run(ExecutionMode::Sync, 80);
    assert!(long.computes > short.computes, "{long:?}");
    assert_eq!(
        long.messages, short.messages,
        "settled labels were sent again"
    );
}
