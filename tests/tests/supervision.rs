//! Scheduler-supervision integration tests (DESIGN.md §16): seeded chaos
//! injects infinitely-stalled workers and panicking statements; the
//! supervisor must turn each into a typed verdict — abandon, replace,
//! replay, or downgrade — and the run must still reach the oracle
//! fixpoint. No test here may ever hang: every barrier wait is bounded by
//! `parallel::SUPERVISOR_POLL`.

use dbcp::{
    with_chaos, ChaosConfig, ChaosStats, Driver, FaultKind, FaultWeights, LocalDriver,
    ScheduledFault,
};
use sqldb::{Database, EngineProfile, Value};
use sqloop::{ExecutionMode, PrioritySpec, SQLoop, SqloopConfig, SqloopError, Strategy};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// The `sqloop.supervisor.*` counters live in the process-global metrics
/// registry, and the test harness runs this file's tests on parallel
/// threads — exact delta assertions need the file serialized.
static GATE: Mutex<()> = Mutex::new(());

fn gate() -> MutexGuard<'static, ()> {
    GATE.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn counter(name: &str) -> Arc<obs::Counter> {
    obs::global().counter(name)
}

/// Loads `graph` into a fresh engine over a clean connection, then wraps
/// the driver in chaos per `config` with the run's control connection
/// shielded — faults land on the workers, where supervision lives.
fn chaotic_driver(graph: &graphgen::Graph, config: ChaosConfig) -> (Arc<dyn Driver>, ChaosStats) {
    let db = Database::new(EngineProfile::Postgres);
    let clean: Arc<dyn Driver> = Arc::new(LocalDriver::new(db));
    let mut conn = clean.connect().unwrap();
    workloads::load_edges(conn.as_mut(), graph).unwrap();
    let (driver, stats) = with_chaos(
        clean,
        ChaosConfig {
            skip_connections: 1,
            ..config
        },
    );
    (driver, stats)
}

/// A supervised config: three workers over eight partitions, a generous
/// replay budget, zero backoff, and a stall verdict threshold far above
/// any honest task on these tiny graphs yet far below the test timeout.
fn supervised(mode: ExecutionMode) -> SqloopConfig {
    let mut config = SqloopConfig {
        mode,
        threads: 3,
        partitions: 8,
        task_retries: 6,
        retry_backoff: Duration::ZERO,
        stall_timeout: Some(Duration::from_millis(300)),
        ..SqloopConfig::default()
    };
    if mode == ExecutionMode::AsyncPrio {
        config.priority = Some(PrioritySpec::lowest("SELECT MIN(delta) FROM {}"));
    }
    config
}

/// Only the given fault kind fires on the random path; everything else,
/// including connect refusals, stays off.
fn only(kind: FaultKind) -> FaultWeights {
    FaultWeights {
        connect_refused: 0,
        stmt_error: 0,
        latency: 0,
        drop: 0,
        stall: u32::from(matches!(kind, FaultKind::StallMs)),
        panic: u32::from(matches!(kind, FaultKind::Panic)),
    }
}

/// A band of `StallForever` faults pinned over ops `[from, to)` with a
/// one-fault budget: the first *worker* statement whose global op index
/// lands in the band hangs until [`ChaosStats::heal_stalls`]. Shielded
/// master ops skip the schedule without spending the budget, so the stall
/// is guaranteed to hit a worker as long as workers execute anywhere in
/// the band.
fn stall_band(from: u64, to: u64) -> ChaosConfig {
    ChaosConfig {
        fault_rate: 0.0,
        max_faults: Some(1),
        schedule: (from..to)
            .map(|nth_op| ScheduledFault {
                nth_op,
                kind: FaultKind::StallForever,
            })
            .collect(),
        ..ChaosConfig::default()
    }
}

fn assert_sssp_fixpoint(
    mode: ExecutionMode,
    rows: &[Vec<Value>],
    oracle: &std::collections::HashMap<u64, f64>,
) {
    for row in rows {
        let node = row[0].as_i64().unwrap() as u64;
        let d = row[1].as_f64().unwrap();
        match oracle.get(&node) {
            Some(&expected) => assert!(
                (d - expected).abs() < 1e-9,
                "{mode}: node {node} distance {d} vs {expected}"
            ),
            None => assert!(
                d.is_infinite(),
                "{mode}: node {node} should be unreachable, got {d}"
            ),
        }
    }
}

/// The tentpole end to end: an injected infinite hang in every parallel
/// mode. The worker's heartbeat goes silent past `stall_timeout`, the
/// supervisor abandons it, spawns a replacement, replays the partition's
/// task, and the run converges to the Dijkstra oracle — never a hang,
/// with `supervisor.*` metrics matching the injection counts exactly.
#[test]
fn stalled_worker_is_replaced_and_the_run_reaches_the_oracle() {
    let _gate = gate();
    let graph = graphgen::web_graph(60, 3, 5);
    let oracle = workloads::oracle::sssp(&graph, 0);
    let stalls_detected = counter("sqloop.supervisor.stalls_detected");
    let replacements = counter("sqloop.supervisor.worker_replacements");
    let panics_caught = counter("sqloop.supervisor.panics_caught");
    for mode in [
        ExecutionMode::Sync,
        ExecutionMode::Async,
        ExecutionMode::AsyncPrio,
    ] {
        let (stalls0, repl0, panics0) = (
            stalls_detected.get(),
            replacements.get(),
            panics_caught.get(),
        );
        let (driver, stats) = chaotic_driver(&graph, stall_band(90, 150));
        let report = SQLoop::new(driver)
            .with_config(supervised(mode))
            .execute_detailed(&workloads::queries::sssp_all(0))
            .unwrap();
        assert_eq!(stats.stalls(), 1, "{mode}: the band must stall one worker");
        assert!(
            matches!(report.strategy, Strategy::IterativeParallel { .. }),
            "{mode}: replacement should keep the run parallel, got {:?}",
            report.strategy
        );
        assert_eq!(report.recovery.stalls, 1, "{mode}: {:?}", report.recovery);
        assert_eq!(
            report.recovery.worker_replacements, 1,
            "{mode}: {:?}",
            report.recovery
        );
        assert!(
            report.recovery.task_retries >= 1,
            "{mode}: the stalled task must have been replayed: {:?}",
            report.recovery
        );
        assert!(!report.recovery.downgraded, "{mode}");
        assert_eq!(stalls_detected.get() - stalls0, 1, "{mode}");
        assert_eq!(replacements.get() - repl0, 1, "{mode}");
        assert_eq!(panics_caught.get() - panics0, 0, "{mode}");
        assert_sssp_fixpoint(mode, &report.result.rows, &oracle);
        // the rendered form the CLI prints
        let text = report.recovery.to_string();
        assert!(
            text.contains("stall") && text.contains("replaced"),
            "{text}"
        );
        // release the abandoned worker still parked inside the injected
        // stall so its thread can exit
        stats.heal_stalls();
    }
}

/// Injected statement panics in every parallel mode: each unwinds into the
/// worker's task boundary, degrades into a retryable `WorkerPanic`, and is
/// replayed — the worker thread itself survives, so no replacement is
/// needed and the run stays parallel all the way to the oracle fixpoint.
#[test]
fn worker_panics_are_caught_and_replayed_to_the_oracle_fixpoint() {
    let _gate = gate();
    let graph = graphgen::web_graph(60, 3, 5);
    let oracle = workloads::oracle::sssp(&graph, 0);
    let stalls_detected = counter("sqloop.supervisor.stalls_detected");
    let replacements = counter("sqloop.supervisor.worker_replacements");
    let panics_caught = counter("sqloop.supervisor.panics_caught");
    for (i, mode) in [
        ExecutionMode::Sync,
        ExecutionMode::Async,
        ExecutionMode::AsyncPrio,
    ]
    .into_iter()
    .enumerate()
    {
        let panics0 = panics_caught.get();
        let (stalls0, repl0) = (stalls_detected.get(), replacements.get());
        // every worker statement would panic, but the two-fault budget
        // heals the outage after two hits — each caught and replayed
        let (driver, stats) = chaotic_driver(
            &graph,
            ChaosConfig {
                weights: only(FaultKind::Panic),
                max_faults: Some(2),
                ..ChaosConfig::seeded(200 + i as u64, 1.0)
            },
        );
        let report = SQLoop::new(driver)
            .with_config(supervised(mode))
            .execute_detailed(&workloads::queries::sssp_all(0))
            .unwrap();
        assert_eq!(stats.panics(), 2, "{mode}: both budget slots must fire");
        assert!(
            matches!(report.strategy, Strategy::IterativeParallel { .. }),
            "{mode}: caught panics should keep the run parallel, got {:?}",
            report.strategy
        );
        assert_eq!(
            report.recovery.worker_panics, 2,
            "{mode}: {:?}",
            report.recovery
        );
        assert!(
            report.recovery.task_retries >= 2,
            "{mode}: each caught panic must be replayed: {:?}",
            report.recovery
        );
        assert_eq!(
            report.recovery.worker_replacements, 0,
            "{mode}: a surviving worker must not be replaced: {:?}",
            report.recovery
        );
        assert_eq!(panics_caught.get() - panics0, 2, "{mode}");
        assert_eq!(stalls_detected.get() - stalls0, 0, "{mode}");
        assert_eq!(replacements.get() - repl0, 0, "{mode}");
        assert_sssp_fixpoint(mode, &report.result.rows, &oracle);
        assert!(report.recovery.to_string().contains("panic"));
    }
}

/// Brief stalls below `stall_timeout` must NOT be remediated: a slow
/// worker is slow, not dead, and killing it would risk applying its task
/// twice. The injected 50ms hangs finish on their own well under the
/// 300ms verdict threshold.
#[test]
fn brief_stalls_below_the_timeout_are_not_remediated() {
    let _gate = gate();
    let graph = graphgen::web_graph(60, 3, 5);
    let oracle = workloads::oracle::sssp(&graph, 0);
    let stalls_detected = counter("sqloop.supervisor.stalls_detected");
    let replacements = counter("sqloop.supervisor.worker_replacements");
    let (stalls0, repl0) = (stalls_detected.get(), replacements.get());
    let (driver, stats) = chaotic_driver(
        &graph,
        ChaosConfig {
            weights: only(FaultKind::StallMs),
            max_faults: Some(2),
            stall: Duration::from_millis(50),
            ..ChaosConfig::seeded(31, 1.0)
        },
    );
    let report = SQLoop::new(driver)
        .with_config(supervised(ExecutionMode::Sync))
        .execute_detailed(&workloads::queries::sssp_all(0))
        .unwrap();
    assert_eq!(stats.stalls(), 2, "both finite stalls must fire");
    assert_eq!(report.recovery.stalls, 0, "{:?}", report.recovery);
    assert_eq!(
        report.recovery.worker_replacements, 0,
        "{:?}",
        report.recovery
    );
    assert_eq!(report.recovery.task_failures, 0, "{:?}", report.recovery);
    assert_eq!(stalls_detected.get() - stalls0, 0);
    assert_eq!(replacements.get() - repl0, 0);
    assert_sssp_fixpoint(ExecutionMode::Sync, &report.result.rows, &oracle);
}

/// A statement that panics *every* time it is replayed exhausts the task
/// budget; the typed `WorkerPanic` is retryable, so the run downgrades to
/// the single-threaded executor — which never touches message tables —
/// and still produces oracle-correct results.
#[test]
fn perma_panicking_statements_exhaust_the_budget_and_downgrade() {
    let _gate = gate();
    let graph = graphgen::web_graph(40, 3, 2);
    let oracle = workloads::oracle::pagerank(&graph, 6);
    let (driver, stats) = chaotic_driver(
        &graph,
        ChaosConfig {
            weights: only(FaultKind::Panic),
            match_substring: Some("__msgslot_".into()),
            ..ChaosConfig::seeded(4, 1.0)
        },
    );
    let mut config = supervised(ExecutionMode::Sync);
    config.task_retries = 2; // exhaust the budget quickly
    let report = SQLoop::new(driver)
        .with_config(config)
        .execute_detailed(&workloads::queries::pagerank(6))
        .unwrap();
    match &report.strategy {
        Strategy::IterativeSingle { fallback_reason } => {
            let reason = fallback_reason.as_deref().unwrap_or_default();
            assert!(reason.contains("downgraded"), "reason: {reason}");
        }
        other => panic!("expected a single-threaded downgrade, got {other:?}"),
    }
    assert!(report.recovery.downgraded);
    assert!(stats.panics() > 0);
    assert!(
        report.recovery.worker_panics > 0,
        "every failed attempt was a caught panic: {:?}",
        report.recovery
    );
    assert_eq!(report.result.rows.len(), oracle.len());
    for row in &report.result.rows {
        let node = row[0].as_i64().unwrap() as u64;
        let rank = row[1].as_f64().unwrap();
        assert!((rank - oracle[&node]).abs() < 1e-9, "node {node}");
    }
}

/// The single-threaded executor's panic boundary: a panic inside a round
/// statement surfaces as a typed `WorkerPanic` error — it must not unwind
/// into the caller — and the engine stays usable because the session was
/// rolled back first.
#[test]
fn single_threaded_panic_is_absorbed_as_a_typed_error() {
    let _gate = gate();
    let graph = graphgen::web_graph(30, 3, 2);
    let db = Database::new(EngineProfile::Postgres);
    let clean: Arc<dyn Driver> = Arc::new(LocalDriver::new(db));
    let mut conn = clean.connect().unwrap();
    workloads::load_edges(conn.as_mut(), &graph).unwrap();
    drop(conn);
    let panics_caught = counter("sqloop.supervisor.panics_caught");
    let panics0 = panics_caught.get();
    // target the Rtmp clear — the only DELETE against the scratch table,
    // issued exclusively inside the executor's per-round panic boundary
    // (setup and cleanup touch the table via DROP/CREATE only)
    let (driver, stats) = with_chaos(
        clean,
        ChaosConfig {
            weights: only(FaultKind::Panic),
            match_substring: Some("DELETE FROM \"pagerank__tmp\"".into()),
            max_faults: Some(1),
            ..ChaosConfig::seeded(9, 1.0)
        },
    );
    let mut config = SqloopConfig {
        mode: ExecutionMode::Single,
        ..SqloopConfig::default()
    };
    config.downgrade_on_failure = false;
    let err = SQLoop::new(Arc::clone(&driver) as Arc<dyn Driver>)
        .with_config(config)
        .execute(&workloads::queries::pagerank(4))
        .unwrap_err();
    match &err {
        SqloopError::WorkerPanic { worker, detail } => {
            assert_eq!(*worker, None);
            assert!(detail.contains("single-threaded iteration"), "{detail}");
        }
        other => panic!("expected a typed WorkerPanic, got {other}"),
    }
    assert!(err.is_retryable(), "an injected panic is transient");
    assert_eq!(stats.panics(), 1);
    assert_eq!(panics_caught.get() - panics0, 1);
    // the rollback ran and the fault budget is spent: a fresh connection
    // sees a healthy engine
    let mut conn = driver.connect().unwrap();
    let r = conn.query("SELECT COUNT(*) FROM edges").unwrap();
    assert!(matches!(r.rows[0][0], Value::Int(n) if n > 0));
}
