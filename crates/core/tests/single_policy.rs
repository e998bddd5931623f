//! Single runs through the same entry as the parallel modes: the same
//! configuration checks and the same convergence sampler apply to all four.
//! A recursive CTE runs there too, as Whole, under the same governance.

use dbcp::LocalDriver;
use sqldb::Value;
use sqldb::{Database, EngineProfile};
use sqloop::{
    CheckpointConfig, ExecutionMode, PrioritySpec, SQLoop, SqloopConfig, SqloopError, Strategy,
    TraceConfig,
};
use std::collections::HashMap;
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

/// The paper's Example 1: the sum of the Fibonacci numbers up to the
/// first one past 1 000, in 18 rounds.
const FIBONACCI: &str = "\
WITH RECURSIVE Fibonacci(n, pn) AS (
  VALUES (0, 1) UNION ALL SELECT n + pn, n FROM Fibonacci WHERE n < 1000)
SELECT SUM(n) FROM Fibonacci";

/// The nodes reachable from node 0, accumulated with `op`.
fn reach(op: &str) -> String {
    format!(
        "WITH RECURSIVE reach(node) AS (SELECT 0 {op} \
         SELECT edges.dst FROM reach JOIN edges ON reach.node = edges.src) \
         SELECT COUNT(*) FROM reach"
    )
}

/// A database whose `edges` are `(i, next(i), 1.0)` for `i` below `nodes`.
fn graph(nodes: u64, next: impl Fn(u64) -> u64) -> Database {
    let db = Database::new(EngineProfile::Postgres);
    let mut s = db.connect();
    s.execute("CREATE TABLE edges (src INT, dst INT, weight FLOAT)")
        .unwrap();
    let values: Vec<String> = (0..nodes)
        .map(|i| format!("({i}, {}, 1.0)", next(i)))
        .collect();
    s.execute(&format!("INSERT INTO edges VALUES {}", values.join(", ")))
        .unwrap();
    db
}

/// A directed 20-node ring.
fn ring() -> Database {
    graph(20, |i| (i + 1) % 20)
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
        ("max_rounds", |c| c.max_rounds = 0),
        ("max_mem", |c| c.max_mem = Some(0)),
    ];
    for mode in MODES {
        for (field, configure) in invalid {
            for query in [PAGERANK, FIBONACCI] {
                let db = ring();
                let err = sqloop(&db, mode, configure).execute(query).unwrap_err();
                match &err {
                    SqloopError::Config(msg) => assert!(msg.contains(field), "{mode}: {msg}"),
                    other => panic!("{mode} / {field}: expected a config error, got {other:?}"),
                }
                assert_eq!(db.table_names(), ["edges"], "{mode} / {field}");
            }
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
        c.max_rounds = 3;
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

#[test]
fn an_expired_deadline_cancels_a_recursive_run_over_its_seed() {
    let db = ring();
    let report = sqloop(&db, ExecutionMode::Async, |c| {
        c.deadline = Some(Duration::ZERO)
    })
    .execute_detailed(FIBONACCI)
    .unwrap();
    assert!(report.cancelled);
    assert_eq!(report.iterations, 0);
    // the seed (0, 1) alone
    assert_eq!(report.result.rows[0][0], Value::Int(0));
    assert_eq!(db.table_names(), ["edges"]);
}

/// A recursive CTE whose step fails while set-up probes it leaves none of
/// the tables set-up built, the working tables included.
#[test]
fn a_recursive_set_up_that_fails_leaves_no_table() {
    let db = Database::new(EngineProfile::Postgres);
    let err = SQLoop::new(Arc::new(LocalDriver::new(db.clone())))
        .execute("WITH RECURSIVE r(a) AS (SELECT 1 UNION SELECT nope FROM r) SELECT * FROM r")
        .unwrap_err();
    assert!(err.to_string().contains("nope"), "{err}");
    assert!(db.table_names().is_empty(), "{:?}", db.table_names());
}

#[test]
fn a_recursive_run_that_trips_max_mem_is_a_governed_abort() {
    // every round doubles the working table, to 2^16 rows in the last one:
    // more than 1 MiB holds
    const DOUBLING: &str = "\
WITH RECURSIVE t(n) AS (
  SELECT 0 UNION ALL SELECT t.n + 1 FROM t JOIN edges ON edges.src < 2 WHERE t.n < 16)
SELECT COUNT(*) FROM t";
    let db = ring();
    let err = sqloop(&db, ExecutionMode::Async, |c| c.max_mem = Some(1 << 20))
        .execute(DOUBLING)
        .unwrap_err();
    match &err {
        SqloopError::BudgetExceeded { what, .. } => assert!(what.contains("memory"), "{what}"),
        other => panic!("expected a governed memory abort, got {other:?}"),
    }
    assert_eq!(db.table_names(), ["edges"]);
}

/// After set-up, a recursive round is one pipeline of three statements —
/// empty the next working table, fill it, append it to `R` — and no DDL:
/// between a short and a long run over a chain, only those three statement
/// families grow, by one call per extra round each.
#[test]
fn a_recursive_round_is_one_pipeline_of_three_statements() {
    for op in ["UNION", "UNION ALL"] {
        let run = |nodes: u64| {
            let db = graph(nodes, |i| i + 1);
            let report = sqloop(&db, ExecutionMode::Async, |c| c.trace = TraceConfig::on())
                .execute_detailed(&reach(op))
                .unwrap();
            assert_eq!(report.strategy, Strategy::RecursiveSingle);
            assert_eq!(
                report.result.rows[0][0],
                Value::Int(nodes as i64 + 1),
                "{op}"
            );
            // one pipeline per round, recorded as its Iteration span
            let spans = &report.trace_data.as_ref().expect("trace is on").spans;
            assert_eq!(spans.len() as u64, report.iterations, "{op}");
            report
        };
        let (short, long) = (run(4), run(12));
        let rounds = long.iterations - short.iterations;
        assert_eq!(rounds, 8, "{op}");
        let statements = |r: &sqloop::ExecutionReport| r.engine_stats.as_ref().unwrap().statements;
        assert_eq!(statements(&long) - statements(&short), 3 * rounds, "{op}");
        let families = |r: &sqloop::ExecutionReport| -> HashMap<String, u64> {
            let digests = r.digests.as_ref().expect("a local engine reports digests");
            digests
                .families
                .iter()
                .map(|e| (e.digest.clone(), e.calls))
                .collect()
        };
        let before = families(&short);
        let mut grown: Vec<(String, u64)> = families(&long)
            .into_iter()
            .map(|(d, calls)| {
                let extra = calls - before.get(&d).copied().unwrap_or(0);
                (d, extra)
            })
            .filter(|(_, extra)| *extra > 0)
            .collect();
        grown.sort();
        assert_eq!(grown.len(), 3, "{op}: {grown:?}");
        for (digest, extra) in &grown {
            assert_eq!(*extra, rounds, "{op}: {digest}");
            assert!(
                !digest.starts_with("create") && !digest.starts_with("drop"),
                "{op}: DDL in a round: {digest}"
            );
        }
    }
}

/// A recursive run cut short by the watchdog resumes from its last
/// checkpoint — `R` and both working tables — to the result and round count
/// of an uninterrupted run, whichever working table the cut left current.
/// A checkpoint of the `UNION` run does not resume the `UNION ALL` one.
#[test]
fn a_recursive_run_resumes_its_own_checkpoint() {
    for (query, cut) in [(reach("UNION"), 5), (FIBONACCI.to_string(), 6)] {
        let whole = sqloop(&ring(), ExecutionMode::Async, |_| {})
            .execute_detailed(&query)
            .unwrap();
        let dir = std::env::temp_dir().join(format!(
            "sqloop-recursive-resume-{cut}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let db = ring();
        let err = sqloop(&db, ExecutionMode::Async, |c| {
            c.checkpoint = Some(CheckpointConfig::new(&dir).every(1));
            c.max_rounds = cut;
        })
        .execute(&query)
        .unwrap_err();
        assert!(
            matches!(err, SqloopError::BudgetExceeded { round, .. } if round == cut),
            "{err:?}"
        );
        let resume = |query: &str| {
            sqloop(&db, ExecutionMode::Async, |c| {
                c.resume_from = Some(dir.clone())
            })
            .execute_detailed(query)
        };
        if cut == 5 {
            let err = resume(&reach("UNION ALL")).unwrap_err();
            assert!(matches!(err, SqloopError::Checkpoint(_)), "{err:?}");
        }
        let resumed = resume(&query).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(resumed.result, whole.result);
        assert_eq!(resumed.iterations, whole.iterations);
        assert_eq!(db.table_names(), ["edges"]);
    }
}

/// Under `UNION`, a row holding NULL is a duplicate of an equal row already
/// in `R` — set semantics compare NULLs as equal — so a step that derives
/// it again adds nothing and the run ends, on every engine profile, whether
/// the NULL sits in `R`'s first column or another.
#[test]
fn a_recursive_union_that_derives_null_again_terminates() {
    let queries = [
        ("r(n) AS (SELECT 1 UNION SELECT NULL FROM r)", 2),
        ("r(a, b) AS (SELECT 1, NULL UNION SELECT a, b FROM r)", 1),
        (
            "r(a, b) AS (SELECT NULL, 1 UNION SELECT a, b + 0 FROM r)",
            1,
        ),
        ("r(a, b) AS (SELECT 1, NULL UNION SELECT NULL, a FROM r)", 3),
    ];
    for profile in [
        EngineProfile::Postgres,
        EngineProfile::MySql,
        EngineProfile::MariaDb,
    ] {
        for (cte, rows) in queries {
            let db = Database::new(profile);
            let config = SqloopConfig {
                max_rounds: 50,
                ..SqloopConfig::default()
            };
            let out = SQLoop::new(Arc::new(LocalDriver::new(db.clone())))
                .with_config(config)
                .execute(&format!("WITH RECURSIVE {cte} SELECT COUNT(*) FROM r"));
            assert_eq!(out.unwrap().rows, [[Value::Int(rows)]], "{profile:?} {cte}");
            assert!(db.table_names().is_empty(), "{profile:?} {cte}");
        }
    }
}
