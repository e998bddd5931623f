//! Server resource-governance integration tests: admission control under
//! concurrent load, statement shedding with client-side retry, and the
//! server-wide statement timeout — all over the real wire protocol.

use dbcp::{is_transient, Driver, RetryPolicy, Server, ServerConfig, TcpDriver};
use sqldb::{Database, DbError, EngineProfile, Value};
use std::time::{Duration, Instant};

/// Polls `cond` for up to two seconds.
fn eventually(mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(2);
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    false
}

#[test]
fn admission_control_rejects_exactly_the_overflow() {
    const LIMIT: usize = 4;
    const OVERFLOW: usize = 3;
    let db = Database::new(EngineProfile::Postgres);
    let server = Server::bind_with(
        db,
        "127.0.0.1:0",
        ServerConfig {
            max_connections: LIMIT,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr().to_string();

    // the driver's profile probe takes (and quickly releases) one slot
    let driver = TcpDriver::connect(&addr).unwrap();
    assert!(eventually(|| server.open_connections() == 0));

    // fill the server, proving each admitted connection actually works
    let mut admitted = Vec::new();
    for i in 0..LIMIT {
        let mut c = driver.connect().unwrap();
        if i == 0 {
            c.execute("CREATE TABLE t (a INT)").unwrap();
            c.execute("INSERT INTO t VALUES (1)").unwrap();
        }
        assert_eq!(
            c.query("SELECT COUNT(*) FROM t").unwrap().rows[0][0],
            Value::Int(1),
            "admitted connection {i} must serve statements"
        );
        admitted.push(c);
    }

    // everything past the limit is rejected fast, typed, and concurrently
    let started = Instant::now();
    let rejections: Vec<_> = (0..OVERFLOW)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || TcpDriver::connect(&addr).err())
        })
        .collect();
    let mut typed = 0;
    for handle in rejections {
        match handle.join().unwrap() {
            Some(DbError::Overloaded(_)) => typed += 1,
            other => panic!("expected a typed Overloaded rejection, got {other:?}"),
        }
    }
    assert_eq!(typed, OVERFLOW, "exactly the overflow is rejected");
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "rejections must be fast, took {:?}",
        started.elapsed()
    );
    assert!(is_transient(&DbError::Overloaded("x".into())));

    // admitted work is unaffected by the rejected burst
    for c in &mut admitted {
        assert_eq!(
            c.query("SELECT COUNT(*) FROM t").unwrap().rows[0][0],
            Value::Int(1)
        );
    }

    // releasing connections frees slots for new clients
    drop(admitted);
    assert!(
        eventually(|| server.open_connections() == 0),
        "slots must drain after disconnect, {} still open",
        server.open_connections()
    );
    let mut again = driver.connect().unwrap();
    assert!(again.query("SELECT COUNT(*) FROM t").is_ok());

    server.shutdown();
}

#[test]
fn load_shed_statements_are_retryable_and_work_completes() {
    let db = Database::new(EngineProfile::Postgres);
    let server = Server::bind_with(
        db,
        "127.0.0.1:0",
        ServerConfig {
            shed_high_water: 1,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr().to_string();
    let driver = TcpDriver::connect(&addr).unwrap();

    let mut setup = driver.connect().unwrap();
    setup.execute("CREATE TABLE s (a INT)").unwrap();

    // whichever of two clients arrives second is shed; which one that is
    // belongs to the scheduler, so both sides run under one retry policy
    // (a shed batch ran none of its statements: shedding happens on
    // arrival) and every error either of them sees is collected
    let policy = RetryPolicy::new(64, Duration::from_millis(1));

    // one long batch occupies the single in-flight slot for a while
    let batch: Vec<String> = (0..20_000)
        .map(|i| format!("INSERT INTO s VALUES ({i})"))
        .collect();
    let writer = {
        let (driver, policy) = (driver.clone(), policy.clone());
        std::thread::spawn(move || {
            let mut c = driver.connect().unwrap();
            let mut shed = Vec::new();
            policy
                .run(|_| {
                    let result = c.execute_batch(&batch);
                    shed.extend(result.as_ref().err().cloned());
                    result
                })
                .unwrap();
            shed
        })
    };

    // a second client keeps colliding with it until one of them is shed
    let mut reader = driver.connect().unwrap();
    let mut shed = Vec::new();
    while !writer.is_finished() && shed.is_empty() {
        if let Err(e) = reader.query("SELECT COUNT(*) FROM s") {
            shed.push(e);
        }
    }
    shed.extend(writer.join().unwrap());
    for e in &shed {
        assert!(
            matches!(e, DbError::Overloaded(_)),
            "shed statements must be typed, got {e:?}"
        );
        assert!(is_transient(e), "shed statements must be retryable");
    }

    // with the load gone the work is complete: every row exactly once
    let count = policy
        .run(|_| reader.query("SELECT COUNT(*) FROM s"))
        .unwrap();
    assert_eq!(count.rows[0][0], Value::Int(20_000));

    server.shutdown();
}

#[test]
fn server_statement_timeout_applies_and_clients_may_override() {
    let db = Database::new(EngineProfile::Postgres);
    let server = Server::bind_with(
        db,
        "127.0.0.1:0",
        ServerConfig {
            // expires before any statement can start: every statement on a
            // fresh session must fail typed
            statement_timeout: Some(Duration::from_nanos(1)),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let driver = TcpDriver::connect(&server.addr().to_string()).unwrap();

    // seed through a session that lifted its own deadline
    let mut setup = driver.connect().unwrap();
    assert!(setup.set_statement_timeout(None).unwrap());
    setup.execute("CREATE TABLE t (a INT)").unwrap();
    setup.execute("INSERT INTO t VALUES (1)").unwrap();

    // a fresh session inherits the server default: queries fail typed
    let mut c = driver.connect().unwrap();
    let err = c.query("SELECT COUNT(*) FROM t");
    assert!(
        matches!(err, Err(DbError::Timeout(_))),
        "server default timeout must reach the session, got {err:?}"
    );

    // the client lifts its own session's deadline over the wire
    assert!(c.set_statement_timeout(None).unwrap());
    assert_eq!(
        c.query("SELECT COUNT(*) FROM t").unwrap().rows[0][0],
        Value::Int(1)
    );

    // a later session starts back at the server default
    let mut fresh = driver.connect().unwrap();
    let err = fresh.query("SELECT COUNT(*) FROM t");
    assert!(matches!(err, Err(DbError::Timeout(_))), "{err:?}");

    server.shutdown();
}
