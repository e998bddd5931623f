//! Single runs through the same entry as the parallel modes: the same
//! configuration checks and the same convergence sampler apply to all four.

use dbcp::LocalDriver;
use sqldb::{Database, EngineProfile};
use sqloop::{ExecutionMode, PrioritySpec, SQLoop, SqloopConfig, SqloopError};
use std::sync::Arc;
use std::time::Duration;

const MODES: [ExecutionMode; 4] = [
    ExecutionMode::Single,
    ExecutionMode::Sync,
    ExecutionMode::Async,
    ExecutionMode::AsyncPrio,
];

const PAGERANK: &str = "\
WITH ITERATIVE PageRank(Node, Rank, Delta) AS (
  SELECT src, 0, 0.15 FROM edges GROUP BY src
  ITERATE
  SELECT PageRank.Node,
         COALESCE(PageRank.Rank + PageRank.Delta, 0.15),
         COALESCE(0.85 * SUM(IncomingRank.Delta * IncomingEdges.weight), 0.0)
  FROM PageRank
  LEFT JOIN edges AS IncomingEdges ON PageRank.Node = IncomingEdges.dst
  LEFT JOIN PageRank AS IncomingRank ON IncomingRank.Node = IncomingEdges.src
  GROUP BY PageRank.Node
  UNTIL 5 ITERATIONS)
SELECT Node, Rank FROM PageRank ORDER BY Node";

/// A directed 20-node ring.
fn ring() -> Database {
    let db = Database::new(EngineProfile::Postgres);
    let mut s = db.connect();
    s.execute("CREATE TABLE edges (src INT, dst INT, weight FLOAT)")
        .unwrap();
    let values: Vec<String> = (0..20)
        .map(|i| format!("({i}, {}, 1.0)", (i + 1) % 20))
        .collect();
    s.execute(&format!("INSERT INTO edges VALUES {}", values.join(", ")))
        .unwrap();
    db
}

fn sqloop(db: &Database, mode: ExecutionMode, configure: impl FnOnce(&mut SqloopConfig)) -> SQLoop {
    let mut config = SqloopConfig {
        mode,
        threads: 2,
        partitions: 4,
        priority: Some(PrioritySpec::highest("SELECT SUM(delta) FROM {}")),
        ..SqloopConfig::default()
    };
    configure(&mut config);
    SQLoop::new(Arc::new(LocalDriver::new(db.clone()))).with_config(config)
}

/// A config field's name and an edit that makes it invalid.
type Invalid = (&'static str, fn(&mut SqloopConfig));

#[test]
fn every_mode_rejects_an_invalid_config_before_it_builds_anything() {
    let invalid: [Invalid; 2] = [
        ("max_rounds", |c| c.watchdog.max_rounds = Some(0)),
        ("max_mem", |c| c.max_mem = Some(0)),
    ];
    for mode in MODES {
        for (field, configure) in invalid {
            let db = ring();
            let err = sqloop(&db, mode, configure).execute(PAGERANK).unwrap_err();
            match &err {
                SqloopError::Config(msg) => assert!(msg.contains(field), "{mode}: {msg}"),
                other => panic!("{mode} / {field}: expected a config error, got {other:?}"),
            }
            assert_eq!(db.table_names(), ["edges"], "{mode} / {field}");
        }
    }
}

#[test]
fn every_mode_samples_its_progress() {
    for mode in MODES {
        let db = ring();
        let report = sqloop(&db, mode, |c| {
            c.sample_interval = Some(Duration::from_millis(1));
            c.progress_query = Some("SELECT SUM(rank) FROM {}".into());
        })
        .execute_detailed(PAGERANK)
        .unwrap();
        assert_eq!(report.iterations, 5, "{mode}");
        assert!(!report.samples.is_empty(), "{mode}: no samples");
        assert!(report.samples.iter().all(|s| s.value.is_finite()), "{mode}");
    }
}

/// A query outside the parallelizable class runs Single in every mode, and
/// resumes from the checkpoint such a run wrote: the resumed run only runs
/// the rounds the first one did not.
#[test]
fn a_fallback_run_resumes_its_own_checkpoint() {
    const COUNTER: &str = "\
WITH ITERATIVE r(id, v) AS (
  SELECT src, 0.0 FROM edges GROUP BY src
  ITERATE SELECT r.id, r.v + 1.0 FROM r
  UNTIL 6 ITERATIONS)
SELECT SUM(v) FROM r";
    let dir = std::env::temp_dir().join(format!("sqloop-fallback-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db = ring();
    let err = sqloop(&db, ExecutionMode::Async, |c| {
        c.checkpoint = Some(sqloop::CheckpointConfig::new(&dir).every(1));
        c.watchdog.max_rounds = Some(3);
    })
    .execute(COUNTER)
    .unwrap_err();
    assert!(
        matches!(err, SqloopError::BudgetExceeded { round: 3, .. }),
        "{err:?}"
    );
    let report = sqloop(&db, ExecutionMode::Async, |c| {
        c.resume_from = Some(dir.clone());
        c.trace = sqloop::TraceConfig::on();
    })
    .execute_detailed(COUNTER)
    .unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        matches!(
            report.strategy,
            sqloop::Strategy::IterativeSingle {
                fallback_reason: Some(_)
            }
        ),
        "{:?}",
        report.strategy
    );
    assert_eq!(report.iterations, 6);
    assert_eq!(report.result.rows[0][0].as_f64(), Some(120.0));
    let spans = report.trace_data.expect("trace is on").spans;
    assert_eq!(spans.len(), 3, "the resumed run reran finished rounds");
    assert_eq!(db.table_names(), ["edges"]);
}
