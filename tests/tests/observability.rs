//! Tracing and metrics integration tests: traced runs must agree with the
//! [`sqloop::ExecutionReport`] counters they ride along with, identical
//! seeded runs must produce identical traces, injected faults must show up
//! as trace events, the JSON export must parse and tally, and a steady
//! round must cost the plan cache no parses.

use dbcp::{with_chaos, ChaosConfig, Connection, Driver, FaultWeights, LocalDriver};
use obs::{EventKind, SpanKind, SpanOutcome, TraceData};
use sqldb::{Database, DbResult, EngineProfile, IsolationLevel, StmtOutput, Value};
use sqloop::{ExecutionMode, PrioritySpec, SQLoop, SqloopConfig, Strategy, TraceConfig};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A fresh database loaded with `graph`, wrapped in a [`LocalDriver`].
fn loaded_driver(graph: &graphgen::Graph) -> Arc<dyn Driver> {
    let db = Database::new(EngineProfile::Postgres);
    let driver: Arc<dyn Driver> = Arc::new(LocalDriver::new(db));
    let mut conn = driver.connect().unwrap();
    workloads::load_edges(conn.as_mut(), graph).unwrap();
    driver
}

fn traced(mode: ExecutionMode) -> SqloopConfig {
    let mut config = SqloopConfig {
        mode,
        threads: 3,
        partitions: 8,
        trace: TraceConfig::on(),
        ..SqloopConfig::default()
    };
    if mode == ExecutionMode::AsyncPrio {
        config.priority = Some(PrioritySpec::lowest("SELECT MIN(delta) FROM {}"));
    }
    config
}

/// Span tuples that must be stable across identical runs (timestamps and
/// worker assignment are not).
fn span_fingerprint(data: &TraceData) -> Vec<(SpanKind, Option<u64>, u64, SpanOutcome)> {
    data.spans
        .iter()
        .map(|s| (s.kind, s.iteration, s.rows, s.outcome))
        .collect()
}

#[test]
fn trace_disabled_is_absent_from_the_report() {
    let graph = graphgen::web_graph(30, 3, 2);
    let report = SQLoop::new(loaded_driver(&graph))
        .with_config(SqloopConfig {
            mode: ExecutionMode::Sync,
            threads: 2,
            partitions: 4,
            trace: TraceConfig::default(),
            ..SqloopConfig::default()
        })
        .execute_detailed(&workloads::queries::pagerank(4))
        .unwrap();
    assert!(report.trace.is_none());
    assert!(report.trace_data.is_none());
    // the per-run metric and engine deltas are captured regardless
    assert!(report.engine_stats.unwrap().statements > 0);
}

#[test]
fn parallel_trace_spans_match_report_counters() {
    let graph = graphgen::web_graph(50, 3, 3);
    let report = SQLoop::new(loaded_driver(&graph))
        .with_config(traced(ExecutionMode::Sync))
        .execute_detailed(&workloads::queries::pagerank(6))
        .unwrap();
    assert!(matches!(
        report.strategy,
        Strategy::IterativeParallel { .. }
    ));
    let data = report.trace_data.as_ref().expect("trace enabled");
    let ok = |kind: SpanKind| {
        data.spans
            .iter()
            .filter(|s| s.kind == kind && s.outcome == SpanOutcome::Ok)
            .count() as u64
    };
    assert_eq!(ok(SpanKind::Compute), report.computes);
    assert_eq!(ok(SpanKind::Gather), report.gathers);
    let summary = report.trace.as_ref().expect("summary present");
    assert_eq!(summary.compute_spans, report.computes);
    assert_eq!(summary.gather_spans, report.gathers);
    let rounds = data
        .events
        .iter()
        .filter(|e| e.kind == EventKind::Round)
        .count() as u64;
    assert_eq!(rounds, report.iterations);
    // every span sits inside the run and carries a worker + partition
    for s in &data.spans {
        assert!(s.end_us >= s.start_us);
        assert!(s.worker.is_some() && s.partition.is_some());
    }
}

#[test]
fn single_threaded_trace_records_one_span_per_iteration() {
    let graph = graphgen::web_graph(30, 3, 2);
    // an iterative CTE, and a recursive one, which runs on the same layout
    let reach = "WITH RECURSIVE reach(node) AS (SELECT 0 UNION \
                 SELECT edges.dst FROM reach JOIN edges ON reach.node = edges.src) \
                 SELECT COUNT(*) FROM reach";
    for query in [workloads::queries::pagerank(5), reach.to_string()] {
        let report = SQLoop::new(loaded_driver(&graph))
            .with_config(traced(ExecutionMode::Single))
            .execute_detailed(&query)
            .unwrap();
        let data = report.trace_data.as_ref().expect("trace enabled");
        let iterations: Vec<_> = data
            .spans
            .iter()
            .filter(|s| s.kind == SpanKind::Iteration)
            .collect();
        assert_eq!(iterations.len() as u64, report.iterations);
        for (i, s) in iterations.iter().enumerate() {
            assert_eq!(s.iteration, Some(i as u64 + 1));
            assert_eq!(s.outcome, SpanOutcome::Ok);
        }
        assert_eq!(
            data.events
                .iter()
                .filter(|e| e.kind == EventKind::Round)
                .count() as u64,
            report.iterations
        );
    }
}

#[test]
fn identical_seeded_single_runs_trace_identically() {
    let run = || {
        let graph = graphgen::web_graph(40, 3, 9);
        SQLoop::new(loaded_driver(&graph))
            .with_config(traced(ExecutionMode::Single))
            .execute_detailed(&workloads::queries::pagerank(6))
            .unwrap()
    };
    let (a, b) = (run(), run());
    let ta = a.trace_data.as_ref().expect("trace enabled");
    let tb = b.trace_data.as_ref().expect("trace enabled");
    assert_eq!(span_fingerprint(ta), span_fingerprint(tb));
    let events = |d: &TraceData| {
        d.events
            .iter()
            .map(|e| (e.kind, e.detail.clone()))
            .collect::<Vec<_>>()
    };
    assert_eq!(events(ta), events(tb));
}

#[test]
fn chaos_faults_surface_as_trace_events_matching_recovery_counters() {
    // statement errors only: every injected fault is a task failure the
    // scheduler replays, so trace events must tally with RecoveryCounters
    let graph = graphgen::web_graph(50, 3, 3);
    let db = Database::new(EngineProfile::Postgres);
    let clean: Arc<dyn Driver> = Arc::new(LocalDriver::new(db));
    let mut conn = clean.connect().unwrap();
    workloads::load_edges(conn.as_mut(), &graph).unwrap();
    let (driver, stats) = with_chaos(
        clean,
        ChaosConfig {
            skip_connections: 1,
            weights: FaultWeights {
                connect_refused: 0,
                stmt_error: 1,
                latency: 0,
                drop: 0,
                ..FaultWeights::default()
            },
            ..ChaosConfig::seeded(17, 0.10)
        },
    );
    let mut config = traced(ExecutionMode::Sync);
    config.task_retries = 6;
    config.retry_backoff = Duration::ZERO;
    let report = SQLoop::new(driver)
        .with_config(config)
        .execute_detailed(&workloads::queries::pagerank(8))
        .unwrap();
    assert!(stats.stmt_errors() > 0, "storm must inject faults");
    assert!(report.recovery.task_retries > 0);
    let data = report.trace_data.as_ref().expect("trace enabled");
    let count = |kind: EventKind| data.events.iter().filter(|e| e.kind == kind).count() as u64;
    assert_eq!(count(EventKind::Retry), report.recovery.task_retries);
    assert_eq!(
        count(EventKind::Reconnect),
        report.recovery.worker_reconnects
    );
    assert_eq!(count(EventKind::Fault), report.recovery.task_failures);
    let summary = report.trace.as_ref().unwrap();
    assert_eq!(summary.retry_events, report.recovery.task_retries);
    assert_eq!(summary.reconnect_events, report.recovery.worker_reconnects);
    // failed attempts leave failed spans; the ok tally still matches
    assert_eq!(summary.failed_spans as u64, report.recovery.task_failures);
    assert_eq!(summary.compute_spans, report.computes);
    assert_eq!(summary.gather_spans, report.gathers);
}

#[test]
fn json_export_parses_and_tallies_with_the_report() {
    let graph = graphgen::web_graph(50, 3, 3);
    let path = std::env::temp_dir().join(format!("sqloop_trace_test_{}.json", std::process::id()));
    let mut config = traced(ExecutionMode::Sync);
    config.trace = TraceConfig::json(&path);
    let report = SQLoop::new(loaded_driver(&graph))
        .with_config(config)
        .execute_detailed(&workloads::queries::pagerank(6))
        .unwrap();
    let text = std::fs::read_to_string(&path).expect("trace file written");
    let _ = std::fs::remove_file(&path);
    let (spans, events) = obs::validate_trace_json(&text).expect("valid trace JSON");
    assert_eq!(
        spans.get("compute:ok").copied().unwrap_or(0),
        report.computes
    );
    assert_eq!(spans.get("gather:ok").copied().unwrap_or(0), report.gathers);
    assert_eq!(events.get("round").copied().unwrap_or(0), report.iterations);
    // the embedded metrics block must round-trip through the parser too
    let json = obs::json::parse(&text).unwrap();
    let counters = json.get("metrics").and_then(|m| m.get("counters"));
    assert!(counters.is_some(), "metrics.counters missing");
}

#[test]
fn downgrade_is_recorded_as_a_trace_event() {
    let graph = graphgen::web_graph(30, 3, 2);
    let db = Database::new(EngineProfile::Postgres);
    let clean: Arc<dyn Driver> = Arc::new(LocalDriver::new(db));
    let mut conn = clean.connect().unwrap();
    workloads::load_edges(conn.as_mut(), &graph).unwrap();
    let (driver, _) = with_chaos(
        clean,
        ChaosConfig {
            skip_connections: 1,
            match_substring: Some("__msgslot_".into()),
            weights: FaultWeights {
                connect_refused: 0,
                stmt_error: 1,
                latency: 0,
                drop: 0,
                ..FaultWeights::default()
            },
            ..ChaosConfig::seeded(1, 1.0)
        },
    );
    let mut config = traced(ExecutionMode::Sync);
    config.task_retries = 2;
    config.retry_backoff = Duration::ZERO;
    let report = SQLoop::new(driver)
        .with_config(config)
        .execute_detailed(&workloads::queries::pagerank(4))
        .unwrap();
    assert!(report.recovery.downgraded);
    let summary = report.trace.as_ref().expect("trace enabled");
    assert_eq!(summary.downgrade_events, 1);
    let data = report.trace_data.as_ref().unwrap();
    // downgraded runs finish on the single-threaded executor, so the trace
    // holds both the failed parallel attempt and the iteration spans
    assert!(data
        .spans
        .iter()
        .any(|s| s.kind == SpanKind::Iteration && s.outcome == SpanOutcome::Ok));
}

/// Extracts `N` from the first `actual rows=N` annotation on a plan line.
fn actual_rows(line: &str) -> Option<u64> {
    let tail = line.split("actual rows=").nth(1)?;
    tail.split(|c: char| !c.is_ascii_digit())
        .next()?
        .parse()
        .ok()
}

#[test]
fn explain_analyze_root_actuals_match_cardinality_in_all_profiles() {
    // the statement shapes of the fig4 loops: aggregation over edges, a
    // self-join (message exchange), and a sorted/limited read-out
    let queries = [
        "SELECT src, COUNT(*) FROM edges GROUP BY src ORDER BY src",
        "SELECT a.src, b.dst FROM edges AS a JOIN edges AS b ON a.dst = b.src",
        "SELECT src, dst FROM edges ORDER BY src LIMIT 7",
    ];
    let graph = graphgen::web_graph(40, 3, 2);
    for profile in sqldb::EngineProfile::ALL {
        let db = Database::new(profile);
        let driver: Arc<dyn Driver> = Arc::new(LocalDriver::new(db));
        let mut conn = driver.connect().unwrap();
        workloads::load_edges(conn.as_mut(), &graph).unwrap();
        for q in queries {
            let result = match conn.execute(q).unwrap() {
                sqldb::StmtOutput::Rows(r) => r,
                other => panic!("{profile:?}: expected rows, got {other:?}"),
            };
            let plan = match conn.execute(&format!("EXPLAIN ANALYZE {q}")).unwrap() {
                sqldb::StmtOutput::Rows(r) => r,
                other => panic!("{profile:?}: expected plan rows, got {other:?}"),
            };
            let lines: Vec<String> = plan.rows.iter().map(|r| r[0].to_string()).collect();
            // oracle: the root operator's actual cardinality is the query's
            // result cardinality, and the Execution footer agrees
            let root = actual_rows(&lines[0])
                .unwrap_or_else(|| panic!("{profile:?}: no actuals on root of {lines:?}"));
            assert_eq!(
                root,
                result.rows.len() as u64,
                "{profile:?} {q}: root actual rows vs cardinality ({lines:?})"
            );
            let footer = lines.last().unwrap();
            assert!(
                footer.starts_with(&format!("Execution: rows={}", result.rows.len())),
                "{profile:?} {q}: bad footer {footer:?}"
            );
            // every annotated operator carries monotone, parseable actuals
            assert!(
                lines
                    .iter()
                    .filter(|l| l.contains("actual rows="))
                    .all(|l| actual_rows(l).is_some()),
                "{profile:?} {q}: unparseable actuals in {lines:?}"
            );
        }
    }
}

#[test]
fn profiled_loop_emits_op_metrics_and_a_valid_prometheus_dump() {
    let graph = graphgen::web_graph(40, 3, 2);
    let db = Database::new(EngineProfile::Postgres);
    db.set_profiling(true);
    let driver: Arc<dyn Driver> = Arc::new(LocalDriver::new(db.clone()));
    let mut conn = driver.connect().unwrap();
    workloads::load_edges(conn.as_mut(), &graph).unwrap();
    drop(conn);
    let report = SQLoop::new(driver)
        .with_config(traced(ExecutionMode::Sync))
        .execute_detailed(&workloads::queries::pagerank(4))
        .unwrap();
    // with profiling on, per-operator actuals flow into the registry
    let op_rows: u64 = report
        .metrics
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("sqldb.op.") && name.ends_with(".rows_out"))
        .map(|(_, v)| *v)
        .sum();
    assert!(op_rows > 0, "operator counters absent: {:?}", {
        report.metrics.counters.keys().collect::<Vec<_>>()
    });
    // the live scrape of the same engine parses and has no duplicate series
    let dump = dbcp::prometheus_dump(&db);
    obs::validate_prometheus_text(&dump).expect("scrape must parse");
    assert!(
        dump.contains("sqldb_digest_calls_total{digest="),
        "digest series missing from scrape"
    );
}

#[test]
fn plan_cache_round_attribution_is_tagged_with_the_mode() {
    let graph = graphgen::web_graph(40, 3, 2);
    for (mode, label) in [
        (ExecutionMode::Single, "Single"),
        (ExecutionMode::Sync, "Sync"),
        (ExecutionMode::Async, "Async"),
        (ExecutionMode::AsyncPrio, "AsyncP"),
    ] {
        let report = SQLoop::new(loaded_driver(&graph))
            .with_config(traced(mode))
            .execute_detailed(&workloads::queries::pagerank(4))
            .unwrap();
        let data = report.trace_data.as_ref().expect("trace enabled");
        let ticks: Vec<_> = data
            .events
            .iter()
            .filter(|e| e.kind == EventKind::PlanCache)
            .collect();
        assert!(!ticks.is_empty(), "{label}: no plan-cache round events");
        for t in &ticks {
            assert!(
                t.detail.starts_with(&format!("mode={label} ")),
                "{label}: bad tag {:?}",
                t.detail
            );
            assert!(t.detail.contains(" hits=") && t.detail.contains(" misses="));
            assert!(t.iteration.is_some(), "{label}: tick without a round");
        }
        // the per-run digest report carries the same mode and, in the
        // parallel modes, names the message-table families the cache
        // misses on — the ROADMAP read-off
        let digests = report.digests.as_ref().expect("local driver sees digests");
        assert_eq!(digests.mode, label);
        assert!(!digests.families.is_empty(), "{label}: no digest families");
        if mode != ExecutionMode::Single {
            assert!(
                digests
                    .top_misses
                    .iter()
                    .any(|e| e.digest.contains("__msgslot_n_n")),
                "{label}: message-table misses unattributed: {:?}",
                digests
                    .top_misses
                    .iter()
                    .map(|e| &e.digest)
                    .collect::<Vec<_>>()
            );
        }
    }
}

/// A connection that keeps every trait default: it refuses to prepare,
/// reports `prepared_epoch` 0 and runs pipelines one statement at a time,
/// so every statement handle falls back to splicing its literals.
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

struct UnpreparedDriver(LocalDriver);

impl Driver for UnpreparedDriver {
    fn connect(&self) -> DbResult<Box<dyn Connection>> {
        Ok(Box::new(UnpreparedConnection(self.0.connect()?)))
    }

    fn profile(&self) -> EngineProfile {
        self.0.profile()
    }
}

/// What one PageRank run did to its own database's plan cache.
#[derive(Debug, PartialEq)]
struct CacheRun {
    iterations: u64,
    hits: u64,
    misses: u64,
    rows: Vec<Vec<Value>>,
}

/// PageRank for `rounds` rounds on a fresh database with one worker. The
/// counts come from that database, which no other test in this file
/// touches.
fn cache_run(
    graph: &graphgen::Graph,
    mode: ExecutionMode,
    rounds: u64,
    profiling: bool,
    unprepared: bool,
) -> CacheRun {
    let db = Database::new(EngineProfile::Postgres);
    let local = LocalDriver::new(db.clone());
    workloads::load_edges(local.connect().unwrap().as_mut(), graph).unwrap();
    db.set_profiling(profiling);
    let driver: Arc<dyn Driver> = if unprepared {
        db.set_plan_cache_capacity(1);
        Arc::new(UnpreparedDriver(local))
    } else {
        Arc::new(local)
    };
    let before = db.plan_cache_stats();
    let report = SQLoop::new(driver)
        .with_config(SqloopConfig {
            threads: 1,
            partitions: 4,
            trace: TraceConfig::default(),
            ..traced(mode)
        })
        .execute_detailed(&workloads::queries::pagerank(rounds))
        .unwrap();
    let after = db.plan_cache_stats();
    CacheRun {
        iterations: report.iterations,
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        rows: report.result.rows,
    }
}

#[test]
fn steady_rounds_cost_no_parses() {
    let graph = graphgen::web_graph(400, 4, 17);
    for mode in [
        ExecutionMode::Single,
        ExecutionMode::Sync,
        ExecutionMode::Async,
        ExecutionMode::AsyncPrio,
    ] {
        let short = cache_run(&graph, mode, 5, false, false);
        let long = cache_run(&graph, mode, 20, false, false);
        // every statement a round issues was parsed in the first five
        assert_eq!(long.misses, short.misses, "{mode}: steady rounds parsed");
        // literal splicing, statement-at-a-time pipelines and a one-entry
        // plan cache change how statements travel, never what they compute
        let unprepared = cache_run(&graph, mode, 20, false, true);
        assert!(unprepared.misses > long.misses, "{mode}: nothing spliced");
        assert_eq!(
            unprepared.rows, long.rows,
            "{mode}: unprepared run diverged"
        );
        // profiling may cost time, never change execution
        assert_eq!(cache_run(&graph, mode, 20, true, false), long, "{mode}");
    }
}

#[test]
fn digest_stats_survive_a_checkpoint_resume_cycle() {
    use sqloop::CheckpointConfig;
    // chain diameter 24 → SSSP needs ~25 rounds; cap at 6 for the "crash"
    let graph = graphgen::chain(24);
    let dir = std::env::temp_dir().join(format!("sqloop-digest-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let db = Database::new(EngineProfile::Postgres);
    let driver: Arc<dyn Driver> = Arc::new(LocalDriver::new(db.clone()));
    let mut conn = driver.connect().unwrap();
    workloads::load_edges(conn.as_mut(), &graph).unwrap();
    drop(conn);
    db.reset_digests();

    let mut config = SqloopConfig {
        mode: ExecutionMode::Single,
        checkpoint: Some(CheckpointConfig::new(&dir).every(1)),
        ..SqloopConfig::default()
    };
    config.max_rounds = 6;
    let err = SQLoop::new(driver.clone())
        .with_config(config.clone())
        .execute(&workloads::queries::sssp_all(0))
        .unwrap_err();
    assert!(
        matches!(&err, sqloop::SqloopError::BudgetExceeded { what, .. } if what == "max_rounds"),
        "unexpected: {err}"
    );
    let calls_after_crash: u64 = db.digest_stats().iter().map(|e| e.calls).sum();
    assert!(calls_after_crash > 0, "crashed run recorded no digests");

    // resume against the same engine: the digest table keeps accumulating
    // and the resumed run still gets a per-run attribution report
    config.max_rounds = 10_000;
    config.resume_from = Some(dir.clone());
    let report = SQLoop::new(driver)
        .with_config(config)
        .execute_detailed(&workloads::queries::sssp_all(0))
        .unwrap();
    assert_eq!(report.result.rows.len(), graph.node_count() as usize);
    let calls_after_resume: u64 = db.digest_stats().iter().map(|e| e.calls).sum();
    assert!(
        calls_after_resume > calls_after_crash,
        "resume must extend the digest table ({calls_after_resume} <= {calls_after_crash})"
    );
    let digests = report.digests.as_ref().expect("digest report on resume");
    assert_eq!(digests.mode, "Single");
    assert!(!digests.families.is_empty());
    // the scrape endpoint sees the merged history
    let dump = dbcp::prometheus_dump(&db);
    obs::validate_prometheus_text(&dump).expect("scrape must parse after resume");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn per_run_metrics_capture_pool_and_statement_activity() {
    let graph = graphgen::web_graph(40, 3, 2);
    let report = SQLoop::new(loaded_driver(&graph))
        .with_config(traced(ExecutionMode::Sync))
        .execute_detailed(&workloads::queries::pagerank(4))
        .unwrap();
    // local drivers do not go through the pool, but they do hit the engine:
    // statement-kind histograms must show this run's updates and selects
    let h = |name: &str| {
        report
            .metrics
            .histograms
            .get(name)
            .map(|h| h.count)
            .unwrap_or(0)
    };
    assert!(h("sqldb.stmt.update") > 0, "updates were executed");
    assert!(h("sqldb.stmt.select") > 0, "selects were executed");
    let engine = report.engine_stats.expect("local driver sees the engine");
    assert!(engine.statements > 0);
    assert!(engine.rows_scanned > 0);
}

/// Runs `run` while another thread keeps running `work` on `db`; that
/// thread has run `work` once before `run` starts.
fn beside<T>(db: &Database, work: fn(&mut sqldb::Session), run: impl FnOnce() -> T) -> T {
    let stop = AtomicBool::new(false);
    let (started, first) = std::sync::mpsc::channel();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut session = db.connect();
            work(&mut session);
            started.send(()).unwrap();
            while !stop.load(Ordering::Relaxed) {
                work(&mut session);
            }
        });
        first.recv().unwrap();
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run));
        stop.store(true, Ordering::Relaxed);
        out.unwrap_or_else(|e| std::panic::resume_unwind(e))
    })
}

#[test]
fn two_databases_keep_disjoint_engine_numbers() {
    let graph = graphgen::web_graph(40, 3, 2);
    let a = Database::new(EngineProfile::Postgres);
    let b = Database::new(EngineProfile::Postgres);
    let driver_b: Arc<dyn Driver> = Arc::new(LocalDriver::new(b.clone()));
    workloads::load_edges(driver_b.connect().unwrap().as_mut(), &graph).unwrap();
    a.connect()
        .execute("CREATE TABLE t (k INT PRIMARY KEY, v FLOAT)")
        .unwrap();
    let work = |s: &mut sqldb::Session| {
        s.execute("INSERT INTO t VALUES (1, 0.5)").unwrap();
        s.query("SELECT v FROM t WHERE k = 1").unwrap();
        s.execute("DELETE FROM t WHERE k = 1").unwrap();
    };

    // statements on A move none of B's series
    let b_before = b.metrics();
    work(&mut a.connect());
    assert_eq!(b.metrics(), b_before, "A's statements reached B's books");

    // a run on B reports its own statements, none of A's concurrent ones
    let a_before = a.stats().statements;
    let report = beside(&a, work, || {
        SQLoop::new(driver_b)
            .with_config(traced(ExecutionMode::Sync))
            .execute_detailed(&workloads::queries::pagerank(4))
            .unwrap()
    });
    assert!(
        a.stats().statements > a_before + 3,
        "A ran nothing beside B"
    );
    let engine = report.engine_stats.expect("local driver sees the engine");
    let by_kind: u64 = report
        .metrics
        .histograms
        .iter()
        .filter(|(name, _)| name.starts_with("sqldb.stmt."))
        .map(|(_, h)| h.count)
        .sum();
    assert_eq!(
        by_kind, engine.statements,
        "the report counts A's statements"
    );
}

#[test]
fn sampled_memory_is_the_run_databases_own() {
    let graph = graphgen::web_graph(40, 3, 2);
    let db = Database::new(EngineProfile::Postgres);
    let driver: Arc<dyn Driver> = Arc::new(LocalDriver::new(db.clone()));
    workloads::load_edges(driver.connect().unwrap().as_mut(), &graph).unwrap();
    // a second database, holding far more than the run ever will, keeps
    // charging and refunding memory from another thread
    let other = Database::new(EngineProfile::Postgres);
    let mut s = other.connect();
    s.execute("CREATE TABLE big (k INT, v TEXT)").unwrap();
    let row = format!("(1, '{}')", "x".repeat(1000));
    let rows = vec![row.as_str(); 100].join(", ");
    for _ in 0..20 {
        s.execute(&format!("INSERT INTO big VALUES {rows}"))
            .unwrap();
    }
    let churn = |s: &mut sqldb::Session| {
        let rows = vec!["(0, 'y')"; 100].join(", ");
        s.execute(&format!("INSERT INTO big VALUES {rows}"))
            .unwrap();
        s.execute("DELETE FROM big WHERE k = 0").unwrap();
    };
    let report = beside(&other, churn, || {
        SQLoop::new(driver)
            .with_config(SqloopConfig {
                sample_interval: Some(Duration::from_millis(1)),
                progress_query: Some("SELECT SUM(rank) FROM {}".into()),
                ..traced(ExecutionMode::Sync)
            })
            .execute_detailed(&workloads::queries::pagerank(8))
            .unwrap()
    });
    assert!(
        other.memory_used() > 4 * db.memory_peak(),
        "too small to tell"
    );
    let mem: Vec<u64> = report.samples.iter().filter_map(|s| s.mem_bytes).collect();
    assert!(!mem.is_empty(), "no sample read the engine's memory");
    assert!(
        mem.iter().all(|&m| m <= db.memory_peak()),
        "samples {mem:?} exceed the run database's peak {}",
        db.memory_peak()
    );
}

/// Holds statements issued on the scheduler's worker threads until `open`
/// is set; `waiting` counts the statements that had to wait.
#[derive(Default)]
struct Hold {
    open: AtomicBool,
    waiting: AtomicUsize,
}

impl Hold {
    fn pass(&self) {
        let worker = std::thread::current()
            .name()
            .is_some_and(|n| n.starts_with("sqloop-worker"));
        if worker && !self.open.load(Ordering::SeqCst) {
            self.waiting.fetch_add(1, Ordering::SeqCst);
            while !self.open.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }
}

struct HeldConnection(Box<dyn Connection>, Arc<Hold>);

impl Connection for HeldConnection {
    fn execute(&mut self, sql: &str) -> DbResult<StmtOutput> {
        self.1.pass();
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

/// A [`LocalDriver`] whose connections hold worker statements.
struct HeldDriver(LocalDriver, Arc<Hold>);

impl Driver for HeldDriver {
    fn connect(&self) -> DbResult<Box<dyn Connection>> {
        Ok(Box::new(HeldConnection(self.0.connect()?, self.1.clone())))
    }

    fn profile(&self) -> EngineProfile {
        self.0.profile()
    }

    fn engine_metrics(&self) -> Option<obs::RegistrySnapshot> {
        self.0.engine_metrics()
    }

    fn memory_used(&self) -> Option<u64> {
        self.0.memory_used()
    }
}

#[test]
fn two_runs_keep_disjoint_books() {
    let sampled = |config: SqloopConfig| SqloopConfig {
        sample_interval: Some(Duration::from_millis(1)),
        progress_query: Some("SELECT SUM(rank) FROM {}".into()),
        ..config
    };
    let hold = Arc::new(Hold::default());
    let local_b = LocalDriver::new(Database::new(EngineProfile::Postgres));
    let graph_b = graphgen::web_graph(40, 3, 2);
    workloads::load_edges(local_b.connect().unwrap().as_mut(), &graph_b).unwrap();
    let driver_b: Arc<dyn Driver> = Arc::new(HeldDriver(local_b, hold.clone()));
    let driver_a = loaded_driver(&graphgen::web_graph(80, 3, 7));
    let dir = sqloop_tests::scratch_dir("sqloop-books", "a");

    let (a, b) = std::thread::scope(|scope| {
        // B: a clean traced run, started first and held at its workers'
        // first statements until A is over
        let b = scope.spawn(|| {
            SQLoop::new(driver_b)
                .with_config(sampled(traced(ExecutionMode::Sync)))
                .execute_detailed(&workloads::queries::pagerank(4))
        });
        while hold.waiting.load(Ordering::SeqCst) == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        // A: checkpoints every round, all of it while B is under way
        let a = SQLoop::new(driver_a)
            .with_config(SqloopConfig {
                checkpoint: Some(sqloop::CheckpointConfig::new(&dir).every(1)),
                ..sampled(traced(ExecutionMode::Sync))
            })
            .execute_detailed(&workloads::queries::pagerank(4));
        hold.open.store(true, Ordering::SeqCst);
        (a.unwrap(), b.join().unwrap().unwrap())
    });
    let _ = std::fs::remove_dir_all(&dir);

    // A's report carries exactly its own checkpoint writes: one after each
    // round but the last, which ends the loop instead
    let writes = a.metrics.counters["sqloop.checkpoint.writes"];
    assert_eq!(writes, a.iterations - 1, "one write per round");
    assert_eq!(a.metrics.counters["sqloop.ckpt.fsyncs"], 4 * writes);
    let latency = &a.metrics.histograms["sqloop.checkpoint.write_latency"];
    assert_eq!(latency.count, writes);
    // B checkpointed nothing, and none of A's counts reached it
    let b_names = b.metrics.counters.keys().chain(b.metrics.histograms.keys());
    let leaked: Vec<&String> = b_names
        .filter(|n| n.starts_with("sqloop.checkpoint.") || n.starts_with("sqloop.ckpt."))
        .collect();
    assert!(
        leaked.is_empty(),
        "A's checkpoint series in B's books: {leaked:?}"
    );
    // each run's peak is the largest memory reading among its own samples
    for (name, report) in [("A", &a), ("B", &b)] {
        let largest = report.samples.iter().filter_map(|s| s.mem_bytes).max();
        assert!(
            largest.is_some(),
            "{name}: no sample read the engine's memory"
        );
        let peak = report.metrics.gauges["sqloop.mem.peak_bytes"];
        assert_eq!(Some(peak as u64), largest, "{name}");
    }
}
