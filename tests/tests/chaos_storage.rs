//! Composed fault domains in one seeded run: the network misbehaves
//! (existing [`ChaosDriver`] faults — refused connects, statement errors,
//! latency, dropped connections) *and* the disk misbehaves ([`TornFs`]
//! corrupting the newest checkpoint generation). Recovery must compose too:
//! task retry/replay absorbs the network faults, corruption fallback
//! absorbs the storage fault, and the resumed run still lands on the
//! Dijkstra oracle in all three parallel modes.

use dbcp::{with_chaos, ChaosConfig, Driver, FaultWeights, LocalDriver};
use sqldb::{Database, EngineProfile};
use sqloop::checkpoint::load_latest;
use sqloop::{
    CheckpointConfig, Checkpointer, ExecutionMode, PrioritySpec, SQLoop, SqloopConfig, SqloopError,
    StorageFault, TornFs,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

fn scratch(tag: &str) -> PathBuf {
    sqloop_tests::scratch_dir("sqloop-chsto", tag)
}

fn fresh_driver(graph: &graphgen::Graph) -> Arc<dyn Driver> {
    let db = Database::new(EngineProfile::Postgres);
    let driver: Arc<dyn Driver> = Arc::new(LocalDriver::new(db));
    let mut conn = driver.connect().unwrap();
    workloads::load_edges(conn.as_mut(), graph).unwrap();
    driver
}

fn durable(mode: ExecutionMode, dir: &Path) -> SqloopConfig {
    let mut config = SqloopConfig {
        mode,
        threads: 3,
        partitions: 8,
        retry_backoff: Duration::ZERO,
        downgrade_on_failure: false,
        task_retries: 6,
        checkpoint: Some(CheckpointConfig::new(dir).every(1)),
        ..SqloopConfig::default()
    };
    if mode == ExecutionMode::AsyncPrio {
        config.priority = Some(PrioritySpec::lowest("SELECT MIN(delta) FROM {}"));
    }
    config
}

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

#[test]
fn network_and_storage_faults_compose_and_still_reach_the_oracle() {
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
        let dir = scratch(&format!("compose-{mode}"));

        // phase 1: crash mid-run under a seeded network storm, leaving
        // durable generations behind
        let (driver, stats) = with_chaos(fresh_driver(&graph), storm(700 + i as u64, 0.06));
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

        // phase 2: the disk turns on us — one more checkpoint lands with a
        // flipped bit, injected through TornFs, making the *newest*
        // generation corrupt while older ones stay valid
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok()?.file_name().into_string().ok())
            .filter(|n| n.ends_with(".sqloop"))
            .collect();
        names.sort();
        let mut poisoned = load_latest(&dir.join(names.last().unwrap())).unwrap();
        poisoned.round += 1;
        let io = Arc::new(TornFs::new(
            &dir,
            Some(StorageFault::BitFlip {
                op: 1,
                bit: 7 * (i as u64 + 1) + 300,
            }),
        ));
        let ckpt_cfg = CheckpointConfig::new(&dir);
        let bad_path = Checkpointer::with_io(ckpt_cfg, io)
            .unwrap()
            .save(&poisoned, &obs::MetricsRegistry::new())
            .unwrap();
        let bad_name = bad_path.file_name().unwrap().to_string_lossy().into_owned();

        // phase 3: resume under a *different* seeded storm; fallback must
        // quarantine the corrupt generation and converge from the prior one
        let (driver, resume_stats) = with_chaos(fresh_driver(&graph), storm(800 + i as u64, 0.06));
        let mut config = durable(mode, &dir);
        config.resume_from = Some(dir.clone());
        let report = SQLoop::new(driver)
            .with_config(config)
            .execute_detailed(&workloads::queries::sssp_all(0))
            .unwrap();

        assert_eq!(report.result.rows.len(), graph.node_count());
        for row in &report.result.rows {
            let node = row[0].as_i64().unwrap() as u64;
            let d = row[1].as_f64().unwrap();
            match oracle.get(&node) {
                Some(&expected) => assert!(
                    (d - expected).abs() < 1e-9,
                    "{mode} (chaos {stats:?} / {resume_stats:?}): node {node} \
                     distance {d} vs {expected}"
                ),
                None => assert!(d.is_infinite(), "{mode}: node {node} unreachable, got {d}"),
            }
        }
        let counters = &report.metrics.counters;
        assert_eq!(
            counters["sqloop.ckpt.corrupt_detected"], 1,
            "{mode}: the bit flip must be detected"
        );
        assert_eq!(
            counters["sqloop.ckpt.fallback_loads"], 1,
            "{mode}: converging from the prior generation is a fallback load"
        );
        assert!(
            dir.join(format!("{bad_name}.corrupt")).is_file(),
            "{mode}: the corrupt newest generation must be quarantined"
        );
        assert!(
            report.recovery_note.is_some(),
            "{mode}: the report must tell the recovery story"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
