//! Graceful-drain integration tests: `Server::shutdown` must let in-flight
//! statements finish and flush their responses, close idle connections
//! promptly, and abandon (but count) handlers that outlive the drain
//! deadline — all over the real wire protocol.

use dbcp::{Driver, Server, ServerConfig, TcpDriver};
use sqldb::{Database, EngineProfile};
use std::time::{Duration, Instant};

/// Polls `cond` for up to five seconds.
fn eventually(mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    false
}

/// The served database's books hold its server's series.
fn in_flight(db: &Database) -> i64 {
    db.metrics().gauges["dbcp.server.in_flight_statements"]
}

fn abandoned(db: &Database) -> u64 {
    db.metrics().counters["dbcp.server.drain_abandoned"]
}

#[test]
fn shutdown_waits_for_inflight_statement_and_flushes_its_response() {
    let db = Database::new(EngineProfile::Postgres);
    let server = Server::bind_with(db.clone(), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let driver = TcpDriver::connect(&server.addr().to_string()).unwrap();

    let mut setup = driver.connect().unwrap();
    setup.execute("CREATE TABLE t (a INT)").unwrap();
    drop(setup);

    // one long batch = one in-flight wire request that takes a while
    let batch: Vec<String> = (0..40_000)
        .map(|i| format!("INSERT INTO t VALUES ({i})"))
        .collect();
    let writer = {
        let driver = driver.clone();
        std::thread::spawn(move || {
            let mut c = driver.connect().unwrap();
            c.execute_batch(&batch)
        })
    };
    assert!(
        eventually(|| in_flight(&db) >= 1 || writer.is_finished()),
        "batch never reached the server"
    );

    server.shutdown();

    // the drain must have carried the batch to completion and flushed the
    // pipeline's response before the handler thread was joined
    let result = writer.join().unwrap();
    assert!(
        result.is_ok(),
        "in-flight batch must complete through the drain, got {result:?}"
    );
    assert_eq!(
        abandoned(&db),
        0,
        "nothing should be abandoned when work fits the drain budget"
    );
}

#[test]
fn shutdown_closes_idle_connections_without_burning_the_drain_budget() {
    let db = Database::new(EngineProfile::Postgres);
    let cfg = ServerConfig {
        drain_timeout: Duration::from_secs(30),
        ..ServerConfig::default()
    };
    let server = Server::bind_with(db, "127.0.0.1:0", cfg).unwrap();
    let driver = TcpDriver::connect(&server.addr().to_string()).unwrap();

    // a connection that proved it works, then went idle
    let mut idle = driver.connect().unwrap();
    idle.execute("CREATE TABLE t (a INT)").unwrap();

    let started = Instant::now();
    server.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "an idle connection must close within a poll tick, not hold the \
         30 s drain budget ({:?})",
        started.elapsed()
    );

    // the drained server is really gone for this client
    assert!(idle.execute("INSERT INTO t VALUES (1)").is_err());
}

#[test]
fn drain_deadline_abandons_a_stuck_handler_and_counts_it() {
    let db = Database::new(EngineProfile::Postgres);
    let cfg = ServerConfig {
        // far smaller than the batch below needs
        drain_timeout: Duration::from_millis(10),
        ..ServerConfig::default()
    };
    let server = Server::bind_with(db.clone(), "127.0.0.1:0", cfg).unwrap();
    let driver = TcpDriver::connect(&server.addr().to_string()).unwrap();

    let mut setup = driver.connect().unwrap();
    setup.execute("CREATE TABLE t (a INT)").unwrap();
    drop(setup);

    let batch: Vec<String> = (0..100_000)
        .map(|i| format!("INSERT INTO t VALUES ({i})"))
        .collect();
    let writer = {
        let driver = driver.clone();
        std::thread::spawn(move || {
            let mut c = driver.connect().unwrap();
            // outcome is deliberately unasserted: the abandoned handler
            // keeps running detached, so the batch may still succeed
            let _ = c.execute_batch(&batch);
        })
    };
    assert!(
        eventually(|| in_flight(&db) >= 1 || writer.is_finished()),
        "batch never reached the server"
    );

    let started = Instant::now();
    server.shutdown();
    let waited = started.elapsed();
    // either the deadline fired and the handler was abandoned (counted), or
    // — on a very fast machine — the batch beat the deadline; both are
    // correct drains, but a shutdown hanging for the whole batch is not
    assert!(
        waited < Duration::from_secs(20),
        "shutdown must respect its 10 ms drain deadline, waited {waited:?}"
    );
    if abandoned(&db) > 0 {
        // the stuck handler was visibly given up on, not silently dropped
        assert!(abandoned(&db) >= 1);
    }
    let _ = writer.join();
}
