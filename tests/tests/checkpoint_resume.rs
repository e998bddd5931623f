//! Crash/resume and cancellation integration tests: runs are interrupted
//! (iteration-cap "crash", chaos storms, deadlines, programmatic cancel)
//! with durable checkpointing on, then resumed against a *fresh* database
//! — the fixpoint must match the oracle of an uninterrupted run in every
//! execution mode, checkpoint artifacts must be atomic and validated, and
//! scratch tables must never leak past a failed run.

use dbcp::{with_chaos, ChaosConfig, Driver, FaultWeights, LocalDriver};
use sqldb::{Database, EngineProfile};
use sqloop::{
    CheckpointConfig, ExecutionMode, PrioritySpec, SQLoop, SqloopConfig, SqloopError, Strategy,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// A process-unique scratch directory for checkpoint files.
fn scratch(tag: &str) -> PathBuf {
    sqloop_tests::scratch_dir("sqloop-ckpt", tag)
}

/// A fresh engine with `graph` loaded — called once per "process life":
/// resuming always starts from a new database that holds only the base
/// `edges` table, exactly like a restart after a crash.
fn fresh_driver(graph: &graphgen::Graph) -> (Arc<dyn Driver>, Database) {
    let db = Database::new(EngineProfile::Postgres);
    let driver: Arc<dyn Driver> = Arc::new(LocalDriver::new(db.clone()));
    let mut conn = driver.connect().unwrap();
    workloads::load_edges(conn.as_mut(), graph).unwrap();
    (driver, db)
}

/// Checkpoint-enabled config: snapshot after every round so even a short
/// crashed run leaves something to resume from.
fn durable(mode: ExecutionMode, dir: &Path) -> SqloopConfig {
    let mut config = SqloopConfig {
        mode,
        threads: 3,
        partitions: 8,
        retry_backoff: Duration::ZERO,
        downgrade_on_failure: false,
        checkpoint: Some(CheckpointConfig::new(dir).every(1)),
        ..SqloopConfig::default()
    };
    if mode == ExecutionMode::AsyncPrio {
        config.priority = Some(PrioritySpec::lowest("SELECT MIN(delta) FROM {}"));
    }
    config
}

/// All fault kinds, weighted like a misbehaving network.
fn storm(seed: u64, fault_rate: f64) -> ChaosConfig {
    ChaosConfig {
        weights: FaultWeights {
            connect_refused: 1,
            stmt_error: 4,
            latency: 2,
            drop: 1,
            ..FaultWeights::default()
        },
        latency: Duration::from_millis(1),
        skip_connections: 1,
        ..ChaosConfig::seeded(seed, fault_rate)
    }
}

fn assert_sssp_matches(
    rows: &[Vec<sqldb::Value>],
    oracle: &std::collections::HashMap<u64, f64>,
    label: &str,
) {
    for row in rows {
        let node = row[0].as_i64().unwrap() as u64;
        let d = row[1].as_f64().unwrap();
        match oracle.get(&node) {
            Some(&expected) => assert!(
                (d - expected).abs() < 1e-9,
                "{label}: node {node} distance {d} vs {expected}"
            ),
            None => assert!(
                d.is_infinite(),
                "{label}: node {node} should be unreachable, got {d}"
            ),
        }
    }
}

/// The crash harness: run SSSP for a few rounds, "crash" (the run errors
/// out on a low iteration cap after checkpoints were written), then resume
/// on a fresh database and check the fixpoint against Dijkstra — in all
/// three parallel modes.
#[test]
fn crash_and_resume_matches_oracle_in_every_mode() {
    // a chain has diameter 24: SSSP needs ~25 rounds, so a cap of 6 is a
    // genuine mid-run crash in every mode
    let graph = graphgen::chain(24);
    let oracle = workloads::oracle::sssp(&graph, 0);
    for mode in [
        ExecutionMode::Sync,
        ExecutionMode::Async,
        ExecutionMode::AsyncPrio,
    ] {
        let dir = scratch(&format!("crash-{mode}"));

        // phase 1: crash after a few rounds (cap is below convergence;
        // AsyncP's prioritized waves propagate several hops per round, so
        // its cap sits lower)
        let (driver, _db) = fresh_driver(&graph);
        let mut config = durable(mode, &dir);
        config.max_rounds = if mode == ExecutionMode::AsyncPrio {
            2
        } else {
            6
        };
        let err = SQLoop::new(driver)
            .with_config(config)
            .execute(&workloads::queries::sssp_all(0))
            .unwrap_err();
        assert!(
            matches!(&err, SqloopError::BudgetExceeded { what, .. } if what == "max_rounds"),
            "{mode}: expected the iteration-cap crash, got {err}"
        );
        assert!(
            dir.join("MANIFEST.json").is_file(),
            "{mode}: the crashed run must leave a manifest"
        );

        // phase 2: fresh database (only `edges` survives the "crash"),
        // resume from the manifest and run to the fixpoint
        let (driver, _db) = fresh_driver(&graph);
        let mut config = durable(mode, &dir);
        config.resume_from = Some(dir.clone());
        let report = SQLoop::new(driver)
            .with_config(config)
            .execute_detailed(&workloads::queries::sssp_all(0))
            .unwrap();
        assert!(
            matches!(report.strategy, Strategy::IterativeParallel { .. }),
            "{mode}: resume should stay parallel, got {:?}",
            report.strategy
        );
        assert!(!report.cancelled, "{mode}: a resumed run is not cancelled");
        assert_eq!(report.result.rows.len(), graph.node_count() as usize);
        assert_sssp_matches(&report.result.rows, &oracle, &format!("{mode} resume"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Same harness under a seeded fault storm on both sides of the crash:
/// retry/replay plus resume still land on the oracle fixpoint.
#[test]
fn chaos_crash_and_resume_matches_oracle() {
    let graph = graphgen::chain(24);
    let oracle = workloads::oracle::sssp(&graph, 0);
    for (i, mode) in [
        ExecutionMode::Sync,
        ExecutionMode::Async,
        ExecutionMode::AsyncPrio,
    ]
    .into_iter()
    .enumerate()
    {
        let dir = scratch(&format!("chaos-{mode}"));

        let (driver, _db) = fresh_driver(&graph);
        let (driver, _stats) = with_chaos(driver, storm(200 + i as u64, 0.06));
        let mut config = durable(mode, &dir);
        config.task_retries = 6;
        config.max_rounds = if mode == ExecutionMode::AsyncPrio {
            2
        } else {
            6
        };
        let err = SQLoop::new(driver)
            .with_config(config)
            .execute(&workloads::queries::sssp_all(0))
            .unwrap_err();
        assert!(
            matches!(&err, SqloopError::BudgetExceeded { what, .. } if what == "max_rounds"),
            "{mode}: expected the iteration-cap crash, got {err}"
        );
        assert!(dir.join("MANIFEST.json").is_file());

        let (driver, _db) = fresh_driver(&graph);
        let (driver, stats) = with_chaos(driver, storm(300 + i as u64, 0.06));
        let mut config = durable(mode, &dir);
        config.task_retries = 6;
        config.resume_from = Some(dir.clone());
        let report = SQLoop::new(driver)
            .with_config(config)
            .execute_detailed(&workloads::queries::sssp_all(0))
            .unwrap();
        assert_sssp_matches(
            &report.result.rows,
            &oracle,
            &format!("{mode} chaos resume ({stats:?})"),
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Single-executor crash/resume: the oracle equality holds for the
/// non-parallel path too.
#[test]
fn single_mode_crash_and_resume_matches_oracle() {
    let graph = graphgen::web_graph(60, 3, 7);
    let oracle = workloads::oracle::pagerank(&graph, 10);
    let dir = scratch("single");

    let (driver, _db) = fresh_driver(&graph);
    let mut config = durable(ExecutionMode::Single, &dir);
    config.max_rounds = 4;
    let err = SQLoop::new(driver)
        .with_config(config)
        .execute(&workloads::queries::pagerank(10))
        .unwrap_err();
    assert!(
        matches!(&err, SqloopError::BudgetExceeded { what, .. } if what == "max_rounds"),
        "got {err}"
    );
    assert!(dir.join("MANIFEST.json").is_file());

    let (driver, _db) = fresh_driver(&graph);
    let mut config = durable(ExecutionMode::Single, &dir);
    config.resume_from = Some(dir.clone());
    let report = SQLoop::new(driver)
        .with_config(config)
        .execute_detailed(&workloads::queries::pagerank(10))
        .unwrap();
    assert!(matches!(report.strategy, Strategy::IterativeSingle { .. }));
    assert_eq!(report.result.rows.len(), oracle.len());
    for row in &report.result.rows {
        let node = row[0].as_i64().unwrap() as u64;
        let rank = row[1].as_f64().unwrap();
        let expected = oracle[&node];
        assert!(
            (rank - expected).abs() < 1e-9,
            "node {node}: {rank} vs {expected}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A 200 ms deadline on a run that would otherwise take far longer: the
/// report comes back `cancelled` with partial results and a final
/// checkpoint, well under the uninterrupted run time.
#[test]
fn deadline_returns_cancelled_report_with_partial_results() {
    let graph = graphgen::web_graph(100, 3, 7);
    let dir = scratch("deadline");
    let (driver, _db) = fresh_driver(&graph);
    // latency-only chaos makes each worker statement slow enough that
    // 100 000 nominal iterations would run for hours
    let slow = ChaosConfig {
        weights: FaultWeights {
            connect_refused: 0,
            stmt_error: 0,
            latency: 1,
            drop: 0,
            ..FaultWeights::default()
        },
        latency: Duration::from_millis(2),
        skip_connections: 1,
        ..ChaosConfig::seeded(9, 0.9)
    };
    let (driver, _stats) = with_chaos(driver, slow);
    let mut config = durable(ExecutionMode::Sync, &dir);
    config.max_rounds = 200_000;
    config.deadline = Some(Duration::from_millis(200));
    let started = std::time::Instant::now();
    let report = SQLoop::new(driver)
        .with_config(config)
        .execute_detailed(&workloads::queries::pagerank(100_000))
        .unwrap();
    let elapsed = started.elapsed();
    assert!(report.cancelled, "the deadline must cancel the run");
    assert!(
        report.iterations < 100_000,
        "cancelled after {} iterations?",
        report.iterations
    );
    assert!(
        !report.result.rows.is_empty(),
        "a cancelled run still reports the partial state"
    );
    assert!(
        report.checkpoint.is_some(),
        "cancellation must leave a final checkpoint"
    );
    assert!(report.checkpoint.as_ref().unwrap().is_file());
    // "well under" the uninterrupted run: generous CI margin, still orders
    // of magnitude below 100k slow rounds
    assert!(
        elapsed < Duration::from_secs(10),
        "cancellation took {elapsed:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Cancelling from another thread mid-run (the CLI Ctrl-C path) stops the
/// loop at its next quiesce point.
#[test]
fn programmatic_cancel_stops_the_run() {
    let graph = graphgen::web_graph(100, 3, 7);
    let (driver, _db) = fresh_driver(&graph);
    let slow = ChaosConfig {
        weights: FaultWeights {
            connect_refused: 0,
            stmt_error: 0,
            latency: 1,
            drop: 0,
            ..FaultWeights::default()
        },
        latency: Duration::from_millis(2),
        skip_connections: 1,
        ..ChaosConfig::seeded(11, 0.9)
    };
    let (driver, _stats) = with_chaos(driver, slow);
    let mut config = SqloopConfig {
        mode: ExecutionMode::Async,
        threads: 3,
        partitions: 8,
        max_rounds: 200_000,
        downgrade_on_failure: false,
        ..SqloopConfig::default()
    };
    config.retry_backoff = Duration::ZERO;
    let cancel = config.cancel.clone();
    let killer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(120));
        cancel.cancel();
    });
    let report = SQLoop::new(driver)
        .with_config(config)
        .execute_detailed(&workloads::queries::pagerank(100_000))
        .unwrap();
    killer.join().unwrap();
    assert!(report.cancelled, "the cancel() call must stop the run");
    assert!(report.iterations < 100_000);
}

/// Resuming with a different query, or a different partition layout, is a
/// typed `Checkpoint` error — never a silent wrong answer.
#[test]
fn mismatched_resume_is_a_typed_error() {
    let graph = graphgen::web_graph(40, 3, 3);
    let dir = scratch("mismatch");
    let (driver, _db) = fresh_driver(&graph);
    SQLoop::new(driver)
        .with_config(durable(ExecutionMode::Sync, &dir))
        .execute(&workloads::queries::pagerank(5))
        .unwrap();
    assert!(dir.join("MANIFEST.json").is_file());

    // different query, same layout
    let (driver, _db) = fresh_driver(&graph);
    let mut config = durable(ExecutionMode::Sync, &dir);
    config.resume_from = Some(dir.clone());
    let err = SQLoop::new(driver)
        .with_config(config)
        .execute(&workloads::queries::sssp_all(0))
        .unwrap_err();
    assert!(
        matches!(err, SqloopError::Checkpoint(_)),
        "wrong query: {err}"
    );

    // same query, different partition count
    let (driver, _db) = fresh_driver(&graph);
    let mut config = durable(ExecutionMode::Sync, &dir);
    config.partitions = 4;
    config.resume_from = Some(dir.clone());
    let err = SQLoop::new(driver)
        .with_config(config)
        .execute(&workloads::queries::pagerank(5))
        .unwrap_err();
    assert!(
        matches!(err, SqloopError::Checkpoint(_)),
        "wrong layout: {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A torn or bit-flipped snapshot fails the checksum and surfaces as a
/// typed `Checkpoint` error on resume.
#[test]
fn corrupt_checkpoint_is_rejected() {
    let graph = graphgen::web_graph(40, 3, 3);
    let dir = scratch("corrupt");
    let (driver, _db) = fresh_driver(&graph);
    SQLoop::new(driver)
        .with_config(durable(ExecutionMode::Sync, &dir))
        .execute(&workloads::queries::pagerank(5))
        .unwrap();

    // truncate every snapshot: simulates a torn write that bypassed the
    // tmp+rename protocol (e.g. disk corruption)
    let mut corrupted = 0;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "sqloop") {
            let text = std::fs::read_to_string(&path).unwrap();
            std::fs::write(&path, &text[..text.len() / 2]).unwrap();
            corrupted += 1;
        }
    }
    assert!(corrupted > 0, "the run must have written snapshots");

    let (driver, _db) = fresh_driver(&graph);
    let mut config = durable(ExecutionMode::Sync, &dir);
    config.resume_from = Some(dir.clone());
    let err = SQLoop::new(driver)
        .with_config(config)
        .execute(&workloads::queries::pagerank(5))
        .unwrap_err();
    assert!(
        matches!(err, SqloopError::Checkpoint(_)),
        "corruption must be typed: {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite: after a chaos-failed run (no downgrade, no retries), the
/// catalog holds exactly the tables it held before the run — every scratch
/// partition, message table, view and join cache was dropped on the error
/// path.
#[test]
fn failed_run_leaves_no_scratch_tables() {
    let graph = graphgen::web_graph(50, 3, 3);
    let (driver, db) = fresh_driver(&graph);
    let baseline = db.table_names();
    // a short, fatal outage: enough statement faults to kill the run with
    // retries off, healed by the time the cleanup statements execute
    let chaos = ChaosConfig {
        weights: FaultWeights {
            connect_refused: 0,
            stmt_error: 1,
            latency: 0,
            drop: 0,
            ..FaultWeights::default()
        },
        max_faults: Some(2),
        skip_connections: 1,
        ..ChaosConfig::seeded(21, 0.4)
    };
    let (driver, stats) = with_chaos(driver, chaos);
    let mut config = durable(ExecutionMode::Sync, &scratch("cleanup"));
    config.task_retries = 0;
    config.checkpoint = None;
    let err = SQLoop::new(driver)
        .with_config(config)
        .execute(&workloads::queries::pagerank(8))
        .unwrap_err();
    assert!(stats.faults() > 0, "chaos must have fired");
    assert!(
        err.is_retryable(),
        "chaos failure should be transient: {err}"
    );
    assert_eq!(
        db.table_names(),
        baseline,
        "a failed run must drop all scratch tables"
    );
    assert!(
        db.catalog().view_names().is_empty(),
        "a failed run must drop its views"
    );
}

/// Cancellation also cleans up scratch tables (keep_artifacts not set)
/// while still writing the final checkpoint.
#[test]
fn cancelled_run_cleans_up_but_keeps_the_checkpoint() {
    let graph = graphgen::web_graph(60, 3, 7);
    let dir = scratch("cancel-cleanup");
    let (driver, db) = fresh_driver(&graph);
    let baseline = db.table_names();
    let mut config = durable(ExecutionMode::Sync, &dir);
    config.max_rounds = 200_000;
    config.deadline = Some(Duration::from_millis(100));
    let slow = ChaosConfig {
        weights: FaultWeights {
            connect_refused: 0,
            stmt_error: 0,
            latency: 1,
            drop: 0,
            ..FaultWeights::default()
        },
        latency: Duration::from_millis(2),
        skip_connections: 1,
        ..ChaosConfig::seeded(13, 0.9)
    };
    let (driver, _stats) = with_chaos(driver, slow);
    let report = SQLoop::new(driver)
        .with_config(config)
        .execute_detailed(&workloads::queries::pagerank(100_000))
        .unwrap();
    assert!(report.cancelled);
    assert_eq!(
        db.table_names(),
        baseline,
        "a cancelled run must drop its scratch tables"
    );
    assert!(
        report.checkpoint.is_some() && report.checkpoint.as_ref().unwrap().is_file(),
        "…but the final checkpoint survives for a later resume"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
