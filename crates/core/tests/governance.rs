//! Watchdog and budget oracle tests: runs that are *known* to diverge or
//! exhaust their budget must terminate with a typed verdict and leave a
//! valid final checkpoint behind, in every execution mode.

use dbcp::LocalDriver;
use sqldb::{Database, EngineProfile, Value};
use sqloop::checkpoint::load_latest;
use sqloop::{CheckpointConfig, ExecutionMode, PrioritySpec, SQLoop, SqloopConfig, SqloopError};
use std::sync::Arc;
use std::time::{Duration, Instant};

const ALL_MODES: [ExecutionMode; 4] = [
    ExecutionMode::Single,
    ExecutionMode::Sync,
    ExecutionMode::Async,
    ExecutionMode::AsyncPrio,
];

/// A PageRank-shaped loop over `edges`; with enormous edge weights the rank
/// mass overflows `f64` within a handful of rounds — a classic runaway.
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
  UNTIL 50 ITERATIONS)
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

/// Fresh database with a ring of `nodes` edges of the given `weight`.
fn db_with_ring(nodes: u64, weight: &str) -> Database {
    let db = Database::new(EngineProfile::Postgres);
    let mut s = db.connect();
    s.execute("CREATE TABLE edges (src INT, dst INT, weight FLOAT)")
        .unwrap();
    let values: Vec<String> = (0..nodes)
        .map(|i| format!("({i},{},{weight})", (i + 1) % nodes))
        .collect();
    s.execute(&format!("INSERT INTO edges VALUES {}", values.join(",")))
        .unwrap();
    db
}

/// Fresh database with a forward chain `0 → 1 → … → nodes-1`.
fn db_with_chain(nodes: u64) -> Database {
    let db = Database::new(EngineProfile::Postgres);
    let mut s = db.connect();
    s.execute("CREATE TABLE edges (src INT, dst INT, weight FLOAT)")
        .unwrap();
    let values: Vec<String> = (0..nodes - 1)
        .map(|i| format!("({i},{},1.0)", i + 1))
        .collect();
    s.execute(&format!("INSERT INTO edges VALUES {}", values.join(",")))
        .unwrap();
    db
}

fn sqloop_for(db: &Database, mode: ExecutionMode, config: SqloopConfig) -> SQLoop {
    let mut config = SqloopConfig {
        mode,
        threads: if mode == ExecutionMode::Single { 1 } else { 3 },
        partitions: if mode == ExecutionMode::Single { 1 } else { 4 },
        ..config
    };
    if mode == ExecutionMode::AsyncPrio {
        config.priority = Some(PrioritySpec::highest("SELECT SUM(delta) FROM {}"));
    }
    SQLoop::new(Arc::new(LocalDriver::new(db.clone()))).with_config(config)
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("sqloop-gov-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn max_rounds_budget_is_typed_in_every_mode() {
    for mode in ALL_MODES {
        let db = db_with_ring(24, "1.0");
        let config = SqloopConfig {
            max_rounds: 3,
            ..SqloopConfig::default()
        };
        let err = sqloop_for(&db, mode, config).execute(PAGERANK);
        match err {
            Err(SqloopError::BudgetExceeded { ref what, round }) => {
                assert!(what.contains("max_rounds"), "{mode}: {what}");
                assert_eq!(round, 3, "{mode}");
            }
            other => panic!("{mode}: expected a typed round budget, got {other:?}"),
        }
    }
}

#[test]
fn diverging_pagerank_aborts_typed_with_a_valid_checkpoint() {
    for mode in ALL_MODES {
        // 1e100 edge weights blow the rank mass past f64 within ~3 rounds
        let db = db_with_ring(24, "1e100");
        let dir = temp_dir(&format!("div-{mode}"));
        let mut config = SqloopConfig::default();
        config.watchdog.numeric_checks = true;
        config.checkpoint = Some(CheckpointConfig::new(&dir).every(1));
        let err = sqloop_for(&db, mode, config).execute(PAGERANK);
        match err {
            Err(SqloopError::NumericDivergence {
                round, ref detail, ..
            }) => {
                assert!(round >= 1, "{mode}: diverged before any round? {round}");
                assert!(
                    detail.contains("inf") || detail.contains("NaN"),
                    "{mode}: {detail}"
                );
            }
            other => panic!("{mode}: expected numeric divergence, got {other:?}"),
        }
        // the governed abort left a loadable final snapshot behind
        let snap = load_latest(&dir).unwrap_or_else(|e| panic!("{mode}: no checkpoint: {e}"));
        assert!(!snap.tables.is_empty(), "{mode}: snapshot carries no state");
        assert!(snap.round >= 1, "{mode}: snapshot before any round");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn oscillating_sssp_trips_the_trend_watchdog() {
    for mode in [ExecutionMode::Single, ExecutionMode::Sync] {
        // a negative cycle: distances decrease forever, updates never shrink
        let db = db_with_ring(2, "-1.0");
        let mut config = SqloopConfig::default();
        config.watchdog.window = Some(4);
        let err = sqloop_for(&db, mode, config).execute(SSSP);
        match err {
            Err(SqloopError::NumericDivergence { ref detail, .. }) => {
                assert!(detail.contains("not converging"), "{mode}: {detail}");
            }
            other => panic!("{mode}: expected a trend verdict, got {other:?}"),
        }
    }
}

#[test]
fn memory_budget_abort_resumes_with_a_larger_budget() {
    const NODES: u64 = 150;
    // oracle: the unconstrained fixpoint
    let oracle = sqloop_for(
        &db_with_chain(NODES),
        ExecutionMode::Single,
        SqloopConfig::default(),
    )
    .execute(SSSP)
    .unwrap();
    assert_eq!(oracle.rows.len(), NODES as usize);

    // governed life: checkpoint every round, then squeeze the engine's
    // memory budget mid-run so the next charge fails
    let db = db_with_chain(NODES);
    let dir = temp_dir("mem");
    let config = SqloopConfig {
        max_mem: Some(64 << 20), // generous; the squeeze comes later
        checkpoint: Some(CheckpointConfig::new(&dir).every(1)),
        ..SqloopConfig::default()
    };
    let sq = sqloop_for(&db, ExecutionMode::Single, config);
    let manifest = dir.join("MANIFEST.json");
    let squeezer = {
        let db = db.clone();
        let manifest = manifest.clone();
        std::thread::spawn(move || {
            let deadline = Instant::now() + Duration::from_secs(30);
            while !manifest.is_file() && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            assert!(manifest.is_file(), "no checkpoint appeared within 30s");
            db.set_memory_limit(Some(1));
        })
    };
    let err = sq.execute(SSSP);
    squeezer.join().unwrap();
    match err {
        Err(SqloopError::BudgetExceeded { ref what, .. }) => {
            assert!(what.contains("memory"), "{what}");
        }
        Ok(_) => {
            // the run finished before the squeeze landed — legal but the
            // test then proved nothing; fail loudly so the race is visible
            panic!("run completed before the budget squeeze; raise NODES");
        }
        other => panic!("expected a typed memory budget abort, got {other:?}"),
    }

    // the governed abort lifted the engine limit for its final snapshot
    assert!(load_latest(&dir).is_ok(), "final checkpoint must load");

    // resumed life with the budget raised: completes and matches the oracle
    let config = SqloopConfig {
        resume_from: Some(dir.clone()),
        ..SqloopConfig::default()
    };
    let resumed = sqloop_for(&db, ExecutionMode::Single, config)
        .execute(SSSP)
        .unwrap();
    assert_eq!(oracle.rows, resumed.rows, "resumed fixpoint differs");
    // spot-check the far end of the chain really converged
    let last = &resumed.rows[NODES as usize - 1];
    assert_eq!(last[0], Value::Int(NODES as i64 - 1));
    assert_eq!(last[1].as_f64().unwrap(), (NODES - 1) as f64);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_run_lifts_its_memory_limit_on_every_way_out() {
    for mode in ALL_MODES {
        let db = db_with_chain(20);
        let config = SqloopConfig {
            max_mem: Some(1 << 20),
            ..SqloopConfig::default()
        };
        let done = sqloop_for(&db, mode, config).execute(SSSP);
        assert_eq!(done.unwrap().rows.len(), 20, "{mode}");
        assert_eq!(db.memory_limit(), None, "{mode}: after a finished run");

        let config = SqloopConfig {
            max_mem: Some(1 << 20),
            resume_from: Some(temp_dir("no-such-checkpoint")),
            ..SqloopConfig::default()
        };
        let failed = sqloop_for(&db, mode, config).execute(SSSP);
        assert!(failed.is_err(), "{mode}: resuming from nothing must fail");
        assert_eq!(db.memory_limit(), None, "{mode}: after a failed run");
    }
}

/// The round a run stops at is snapshotted once: with a checkpoint due
/// every round, the cap's round is the periodic checkpoint's round too.
#[test]
fn a_stop_round_writes_one_snapshot() {
    for mode in [ExecutionMode::Single, ExecutionMode::Sync] {
        let db = db_with_ring(24, "1.0");
        let dir = temp_dir(&format!("one-snapshot-{mode}"));
        let config = SqloopConfig {
            max_rounds: 5,
            checkpoint: Some(CheckpointConfig::new(&dir).every(1)),
            ..SqloopConfig::default()
        };
        let sq = sqloop_for(&db, mode, config);
        let err = sq.execute(PAGERANK).unwrap_err();
        assert!(
            matches!(&err, SqloopError::BudgetExceeded { what, round: 5 } if what == "max_rounds"),
            "{mode}: {err:?}"
        );
        let metrics = sq.metrics();
        assert_eq!(metrics.counters["sqloop.checkpoint.writes"], 5, "{mode}");
        assert_eq!(metrics.counters["sqloop.governed_aborts"], 1, "{mode}");
        assert_eq!(load_latest(&dir).unwrap().round, 5, "{mode}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Reaching the round cap between periodic checkpoints still leaves the
/// cap's round behind, and a run resumed from it under the default cap
/// reaches the oracle.
#[test]
fn the_round_cap_leaves_a_final_snapshot() {
    const NODES: u64 = 12;
    for mode in [ExecutionMode::Single, ExecutionMode::Sync] {
        let oracle = sqloop_for(&db_with_chain(NODES), mode, SqloopConfig::default())
            .execute(SSSP)
            .unwrap();
        let db = db_with_chain(NODES);
        let dir = temp_dir(&format!("cap-snapshot-{mode}"));
        let config = SqloopConfig {
            max_rounds: 5,
            checkpoint: Some(CheckpointConfig::new(&dir).every(3)),
            ..SqloopConfig::default()
        };
        let err = sqloop_for(&db, mode, config).execute(SSSP).unwrap_err();
        assert!(
            matches!(&err, SqloopError::BudgetExceeded { what, round: 5 } if what == "max_rounds"),
            "{mode}: {err:?}"
        );
        assert_eq!(load_latest(&dir).unwrap().round, 5, "{mode}");
        let config = SqloopConfig {
            resume_from: Some(dir.clone()),
            ..SqloopConfig::default()
        };
        let resumed = sqloop_for(&db, mode, config).execute(SSSP).unwrap();
        assert_eq!(resumed.rows, oracle.rows, "{mode}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
