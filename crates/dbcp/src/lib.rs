//! # dbcp — database connectivity for the SQLoop reproduction
//!
//! The JDBC analog the SQLoop middleware talks through (paper §IV-A):
//!
//! * [`Connection`]/[`Driver`] traits with statement **batching**,
//!   transaction demarcation and isolation control — the JDBC features the
//!   paper calls out as "vital" for correct and efficient execution;
//! * an in-process driver ([`LocalDriver`]) wrapping a [`sqldb::Database`];
//! * a binary **wire protocol** over TCP ([`Server`], [`TcpDriver`]) so the
//!   target engine can genuinely be remote, as the paper's middleware
//!   permits;
//! * a bounded connection [`Pool`] with liveness checking;
//! * a [`RetryPolicy`] (bounded attempts, exponential backoff + jitter)
//!   for transient connectivity failures;
//! * a deterministic fault-injection decorator ([`ChaosDriver`]) for
//!   resilience testing: seeded, reproducible connect refusals, statement
//!   errors, latency, and mid-session connection drops.
//!
//! ## Quick start (remote engine)
//!
//! ```
//! use dbcp::{Driver, Server, TcpDriver};
//! use sqldb::{Database, EngineProfile};
//!
//! # fn main() -> Result<(), sqldb::DbError> {
//! let server = Server::bind(Database::new(EngineProfile::Postgres), "127.0.0.1:0")?;
//! let driver = TcpDriver::connect(&server.addr().to_string())?;
//! let mut conn = driver.connect()?;
//! conn.execute("CREATE TABLE t (a INT)")?;
//! conn.execute("INSERT INTO t VALUES (1), (2)")?;
//! assert_eq!(conn.query("SELECT COUNT(*) FROM t")?.rows[0][0], sqldb::Value::Int(2));
//! server.shutdown();
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod cancel;
pub mod chaos;
mod client;
mod driver;
mod metrics_cmd;
mod pool;
mod prepared;
mod retry;
mod server;
mod url;
pub mod wire;

pub use cancel::CancelToken;
pub use chaos::{
    with_chaos, ChaosConfig, ChaosConnection, ChaosDriver, ChaosStats, FaultKind, FaultWeights,
    ScheduledFault,
};
pub use client::{TcpConnection, TcpDriver, TcpTimeouts};
pub use driver::{
    Connection, Driver, LocalConnection, LocalDriver, PipelineOutcome, MAX_PREPARED_PER_CONNECTION,
};
pub use metrics_cmd::{prometheus_dump, DIGEST_COLUMNS, PROMETHEUS_DIGEST_TOP_K, SLOW_LOG_COLUMNS};
pub use pool::{Pool, PooledConnection};
pub use prepared::PreparedStatement;
pub use retry::{is_transient, RetryPolicy};
pub use server::{Server, ServerConfig};
pub use url::{driver_for_url, ConnectionUrl};
pub use wire::{MetricsCmd, PipelineStep};

#[cfg(test)]
mod integration {
    use super::*;
    use sqldb::{Database, DbError, EngineProfile, Value};

    #[test]
    fn tcp_end_to_end() {
        let db = Database::new(EngineProfile::MariaDb);
        let server = Server::bind(db, "127.0.0.1:0").unwrap();
        let driver = TcpDriver::connect(&server.addr().to_string()).unwrap();
        assert_eq!(driver.profile(), EngineProfile::MariaDb);

        let mut c = driver.connect().unwrap();
        c.execute("CREATE TABLE t (id INT PRIMARY KEY, v FLOAT)")
            .unwrap();
        let out = c
            .execute_batch(&[
                "INSERT INTO t VALUES (1, 0.5)".into(),
                "INSERT INTO t VALUES (2, 1.5)".into(),
            ])
            .unwrap();
        assert_eq!(out.len(), 2);
        let r = c.query("SELECT SUM(v) FROM t").unwrap();
        assert_eq!(r.rows[0][0], Value::Float(2.0));

        // errors propagate with their kind intact
        let err = c.execute("INSERT INTO t VALUES (1, 0.0)");
        assert!(matches!(err, Err(DbError::Invalid(_))), "{err:?}");

        // transactions over the wire
        c.begin().unwrap();
        c.execute("DELETE FROM t").unwrap();
        c.rollback().unwrap();
        let r = c.query("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(r.rows[0][0], Value::Int(2));
        server.shutdown();
    }

    #[test]
    fn panicking_statement_errors_one_frame_not_the_connection() {
        let db = Database::new(EngineProfile::Postgres);
        {
            let mut s = db.connect();
            s.execute("CREATE TABLE t (id INT PRIMARY KEY, v FLOAT)")
                .unwrap();
            s.execute("INSERT INTO t VALUES (1, 1.0)").unwrap();
        }
        let server = Server::bind(db.clone(), "127.0.0.1:0").unwrap();
        let driver = TcpDriver::connect(&server.addr().to_string()).unwrap();
        let mut c = driver.connect().unwrap();
        let caught = || db.metrics().counters["dbcp.server.panics_caught"];
        assert_eq!(caught(), 0);

        // the injected panic unwinds inside the handler's per-frame
        // boundary: this client sees a typed, retryable error...
        db.set_panic_probe(Some("t"), 1);
        let err = c.execute("UPDATE t SET v = 2.0");
        assert!(matches!(err, Err(DbError::TxnAborted(_))), "{err:?}");
        assert_eq!(caught(), 1);

        // ...and the SAME connection keeps working: recovery released the
        // locks the panic left held, so the next statement succeeds
        c.execute("UPDATE t SET v = 3.0").unwrap();
        let r = c.query("SELECT v FROM t").unwrap();
        assert_eq!(r.rows[0][0], Value::Float(3.0));

        // a second client is also unaffected
        let mut c2 = driver.connect().unwrap();
        c2.execute("DELETE FROM t").unwrap();
        server.shutdown();
    }

    #[test]
    fn tcp_concurrent_clients() {
        let db = Database::new(EngineProfile::Postgres);
        {
            let mut s = db.connect();
            s.execute("CREATE TABLE n (id INT PRIMARY KEY)").unwrap();
        }
        let server = Server::bind(db.clone(), "127.0.0.1:0").unwrap();
        let addr = server.addr().to_string();
        let handles: Vec<_> = (0..4)
            .map(|w| {
                let addr = addr.clone();
                std::thread::spawn(move || {
                    let metrics = obs::MetricsRegistry::new();
                    let mut c =
                        TcpConnection::open_with(&addr, TcpTimeouts::default(), &metrics).unwrap();
                    for i in 0..25 {
                        c.execute(&format!("INSERT INTO n VALUES ({})", w * 100 + i))
                            .unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let mut s = db.connect();
        let r = s.query("SELECT COUNT(*) FROM n").unwrap();
        assert_eq!(r.rows[0][0], Value::Int(100));
        server.shutdown();
    }

    #[test]
    fn metrics_scrape_over_the_wire() {
        let db = Database::new(EngineProfile::Postgres);
        let server = Server::bind(db, "127.0.0.1:0").unwrap();
        let driver = TcpDriver::connect(&server.addr().to_string()).unwrap();
        let mut c = driver.connect().unwrap();
        c.execute("CREATE TABLE t (id INT PRIMARY KEY)").unwrap();
        for id in 0..3 {
            c.execute(&format!("INSERT INTO t VALUES ({id})")).unwrap();
        }

        // the scrape validates and names the insert family
        let text = c.metrics_prometheus().unwrap();
        obs::validate_prometheus_text(&text).unwrap();
        assert!(
            text.contains("digest=\"insert into t values (?)\""),
            "{text}"
        );

        // digest table over the wire, sorted by total time
        let top = c.digest_top(16).unwrap();
        assert_eq!(top.columns, DIGEST_COLUMNS.to_vec());
        assert!(top.rows.iter().any(
            |r| r[0] == Value::Text("insert into t values (?)".into()) && r[1] == Value::Int(3)
        ));

        // misses view: each insert text is unique, so the family shows 3
        let misses = c.digest_top_misses(4).unwrap();
        assert!(misses.rows.iter().any(
            |r| r[0] == Value::Text("insert into t values (?)".into()) && r[8] == Value::Int(3)
        ));

        // setters answer Done and take effect server-side
        c.set_profiling(true).unwrap();
        c.configure_slow_log(1, 1).unwrap();
        c.execute("SELECT COUNT(*) FROM t").unwrap();
        let slow = c.slow_log().unwrap();
        assert_eq!(slow.columns, SLOW_LOG_COLUMNS.to_vec());
        c.reset_engine_stats().unwrap();
        let cleared = c.digest_top(16).unwrap();
        assert!(cleared.rows.is_empty());
        server.shutdown();
    }

    #[test]
    fn bare_session_connection_reports_metrics_unsupported() {
        let db = Database::new(EngineProfile::Postgres);
        let mut c = LocalConnection::from_session(db.connect(), db.profile());
        let err = c.metrics_prometheus();
        assert!(matches!(err, Err(DbError::Unsupported(_))), "{err:?}");
        // driver-minted connections have the handle attached
        let driver = LocalDriver::new(db);
        let mut c = driver.connect().unwrap();
        assert!(c.metrics_prometheus().is_ok());
    }

    #[test]
    fn server_session_rolls_back_on_disconnect() {
        let db = Database::new(EngineProfile::Postgres);
        {
            let mut s = db.connect();
            s.execute("CREATE TABLE t (a INT)").unwrap();
            s.execute("INSERT INTO t VALUES (1)").unwrap();
        }
        let server = Server::bind(db.clone(), "127.0.0.1:0").unwrap();
        {
            let driver = TcpDriver::connect(&server.addr().to_string()).unwrap();
            let mut c = driver.connect().unwrap();
            c.begin().unwrap();
            c.execute("DELETE FROM t").unwrap();
            // dropped without commit
        }
        // wait for the server thread to observe the disconnect
        let mut s = db.connect();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        loop {
            let n = s.query("SELECT COUNT(*) FROM t").unwrap().rows[0][0].clone();
            if n == Value::Int(1) {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "rollback never happened"
            );
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        server.shutdown();
    }
}
