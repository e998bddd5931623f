//! TCP server exposing a database over the wire protocol.
//!
//! One OS thread per client connection, each owning one engine session —
//! matching the paper's observation that "for each new connection … the
//! database system spawns a new process to accommodate the additional
//! computational needs" (§I).
//!
//! The server governs its own resources ([`ServerConfig`]): connections
//! past `max_connections` are admitted just long enough to receive a typed
//! [`DbError::Overloaded`] and closed; statements past `shed_high_water`
//! in-flight are shed with the same retryable error so clients back off
//! through their `RetryPolicy` instead of piling on; and a server-side
//! statement timeout bounds every statement of every session.

use crate::driver::MAX_PREPARED_PER_CONNECTION;
use crate::wire::{
    decode_request, encode_response, read_frame, write_frame, PipelineStep, Request, Response,
    MAGIC,
};
use sqldb::{Database, DbError, DbResult, Session, StmtHandle, StmtOutput};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often an idle client handler polls its socket (and the drain flag)
/// while waiting for the next frame. Bounds how long an idle connection can
/// delay a drain. It is the socket's read timeout, armed once per
/// connection.
const DRAIN_POLL: Duration = Duration::from_millis(25);

/// Process-wide connection sequence, so every handler thread gets a unique
/// `dbcp-conn-{id}` name a stack dump can be correlated against.
static CONN_SEQ: AtomicU64 = AtomicU64::new(1);

/// Admission-control and load-shed settings for a [`Server`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Maximum concurrent client connections (`0` = unlimited). A
    /// connection past the limit completes the handshake, receives
    /// [`DbError::Overloaded`] for its first request, and is closed —
    /// fast, typed rejection instead of a hang or a silent reset.
    pub max_connections: usize,
    /// Shed new statements while this many are in flight (`0` = off).
    /// Shed statements fail with the retryable [`DbError::Overloaded`]
    /// without touching the engine.
    pub shed_high_water: usize,
    /// Per-statement execution deadline applied to every session
    /// (`None` = off). Clients may override their own via
    /// [`Request::SetStatementTimeout`].
    pub statement_timeout: Option<Duration>,
    /// How long [`Server::shutdown`] waits for in-flight statements to
    /// finish and their responses to be written before abandoning the
    /// handler threads (default 5 s). Idle connections close within
    /// one 25 ms poll tick of the drain starting; only handlers mid-statement
    /// use the budget.
    pub drain_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            max_connections: 0,
            shed_high_water: 0,
            statement_timeout: None,
            drain_timeout: Duration::from_secs(5),
        }
    }
}

/// Shared admission/shed state, updated by every client thread.
#[derive(Debug)]
struct Governor {
    cfg: ServerConfig,
    conns: AtomicUsize,
    in_flight: AtomicUsize,
    rejected: Arc<obs::Counter>,
    shed: Arc<obs::Counter>,
    open_gauge: Arc<obs::Gauge>,
    in_flight_gauge: Arc<obs::Gauge>,
    panics_caught: Arc<obs::Counter>,
    drain_abandoned: Arc<obs::Counter>,
}

impl Governor {
    fn new(cfg: ServerConfig, metrics: &obs::MetricsRegistry) -> Governor {
        Governor {
            cfg,
            conns: AtomicUsize::new(0),
            in_flight: AtomicUsize::new(0),
            rejected: metrics.counter("dbcp.server.admission_rejected"),
            shed: metrics.counter("dbcp.server.statements_shed"),
            open_gauge: metrics.gauge("dbcp.server.open_connections"),
            in_flight_gauge: metrics.gauge("dbcp.server.in_flight_statements"),
            panics_caught: metrics.counter("dbcp.server.panics_caught"),
            drain_abandoned: metrics.counter("dbcp.server.drain_abandoned"),
        }
    }

    /// Claims a connection slot; `None` when the server is full.
    fn try_admit(self: &Arc<Self>) -> Option<ConnGuard> {
        let now = self.conns.fetch_add(1, Ordering::SeqCst) + 1;
        if self.cfg.max_connections != 0 && now > self.cfg.max_connections {
            self.conns.fetch_sub(1, Ordering::SeqCst);
            self.rejected.inc();
            return None;
        }
        self.open_gauge.add(1);
        Some(ConnGuard { gov: self.clone() })
    }

    /// Claims an in-flight statement slot.
    ///
    /// # Errors
    /// Returns [`DbError::Overloaded`] when the high-water mark is crossed.
    fn start_statement(self: &Arc<Self>) -> DbResult<StmtGuard> {
        let now = self.in_flight.fetch_add(1, Ordering::SeqCst) + 1;
        if self.cfg.shed_high_water != 0 && now > self.cfg.shed_high_water {
            self.in_flight.fetch_sub(1, Ordering::SeqCst);
            self.shed.inc();
            return Err(DbError::Overloaded(format!(
                "shedding load: {} statements in flight (high water {})",
                now - 1,
                self.cfg.shed_high_water
            )));
        }
        self.in_flight_gauge.add(1);
        Ok(StmtGuard { gov: self.clone() })
    }
}

/// Releases a connection slot on drop — including when the client thread
/// panics, so a crashed handler can never leak the admission counter.
#[derive(Debug)]
struct ConnGuard {
    gov: Arc<Governor>,
}

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.gov.conns.fetch_sub(1, Ordering::SeqCst);
        self.gov.open_gauge.add(-1);
    }
}

/// Releases an in-flight statement slot on drop.
#[derive(Debug)]
struct StmtGuard {
    gov: Arc<Governor>,
}

impl Drop for StmtGuard {
    fn drop(&mut self) {
        self.gov.in_flight.fetch_sub(1, Ordering::SeqCst);
        self.gov.in_flight_gauge.add(-1);
    }
}

/// A running database server.
///
/// Dropping the handle (or calling [`Server::shutdown`]) drains: the
/// listener stops accepting, in-flight statements finish and flush their
/// responses under [`ServerConfig::drain_timeout`], idle connections close
/// within one poll tick, and the handler threads are joined.
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    /// Set first during shutdown: handlers finish the statement they are
    /// executing, write its response, then close instead of waiting for
    /// another frame.
    draining: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    /// Every spawned client-handler thread, so shutdown can join them under
    /// the drain deadline. The accept loop prunes finished entries as it
    /// admits new connections, bounding growth to the live-handler count.
    handlers: Arc<Mutex<Vec<JoinHandle<()>>>>,
    governor: Arc<Governor>,
}

impl Server {
    /// Binds `db` to `addr` (use port 0 for an ephemeral port) and starts
    /// accepting connections with no admission limits.
    ///
    /// # Errors
    /// Returns [`DbError::Connection`] when binding fails.
    pub fn bind(db: Database, addr: &str) -> DbResult<Server> {
        Server::bind_with(db, addr, ServerConfig::default())
    }

    /// As [`Server::bind`], with explicit admission-control settings.
    ///
    /// # Errors
    /// Returns [`DbError::Connection`] when binding fails.
    pub fn bind_with(db: Database, addr: &str, cfg: ServerConfig) -> DbResult<Server> {
        let listener = TcpListener::bind(addr)
            .map_err(|e| DbError::Connection(format!("bind {addr}: {e}")))?;
        let addr = listener
            .local_addr()
            .map_err(|e| DbError::Connection(format!("local_addr: {e}")))?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = shutdown.clone();
        let draining = Arc::new(AtomicBool::new(false));
        let drain_flag = draining.clone();
        let handlers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let registry = handlers.clone();
        // the server's series are the served database's
        let governor = Arc::new(Governor::new(cfg, db.registry()));
        let gov = governor.clone();
        let accept_thread = std::thread::Builder::new()
            .name("dbcp-accept".into())
            .spawn(move || accept_loop(listener, db, flag, drain_flag, registry, gov))
            .map_err(|e| DbError::Connection(format!("spawn: {e}")))?;
        Ok(Server {
            addr,
            shutdown,
            draining,
            accept_thread: Some(accept_thread),
            handlers,
            governor,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Number of currently admitted client connections.
    pub fn open_connections(&self) -> usize {
        self.governor.conns.load(Ordering::SeqCst)
    }

    /// Gracefully shuts the server down: stops accepting, lets in-flight
    /// statements finish and their responses reach the wire under
    /// [`ServerConfig::drain_timeout`], then closes. Handlers still running
    /// at the deadline are abandoned (counted in
    /// `dbcp.server.drain_abandoned`) rather than blocking shutdown forever.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        // phase 1: stop accepting. The drain flag goes up first so a
        // handler that checks it after the listener poke already sees it.
        self.draining.store(true, Ordering::SeqCst);
        self.shutdown.store(true, Ordering::SeqCst);
        // poke the listener so accept() returns
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
        // phase 2: drain. Idle handlers notice the flag within DRAIN_POLL
        // and exit; handlers mid-statement get the full budget to finish
        // and flush their response.
        let deadline = Instant::now() + self.governor.cfg.drain_timeout;
        loop {
            let mut live = {
                let mut reg = self.handlers.lock().unwrap_or_else(|p| p.into_inner());
                std::mem::take(&mut *reg)
            };
            let still_running: Vec<JoinHandle<()>> = live
                .drain(..)
                .filter_map(|h| {
                    if h.is_finished() {
                        let _ = h.join();
                        None
                    } else {
                        Some(h)
                    }
                })
                .collect();
            if still_running.is_empty() {
                break;
            }
            if Instant::now() >= deadline {
                // abandon the stragglers: they hold only a session that
                // rolls back on drop, and counting them makes the abandon
                // visible to operators
                self.governor
                    .drain_abandoned
                    .add(still_running.len() as u64);
                break;
            }
            {
                let mut reg = self.handlers.lock().unwrap_or_else(|p| p.into_inner());
                reg.extend(still_running);
            }
            std::thread::sleep(DRAIN_POLL);
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.accept_thread.is_some() {
            self.stop();
        }
    }
}

fn accept_loop(
    listener: TcpListener,
    db: Database,
    shutdown: Arc<AtomicBool>,
    draining: Arc<AtomicBool>,
    handlers: Arc<Mutex<Vec<JoinHandle<()>>>>,
    gov: Arc<Governor>,
) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if shutdown.load(Ordering::SeqCst) {
                    return;
                }
                match gov.try_admit() {
                    Some(guard) => {
                        let db = db.clone();
                        let gov = gov.clone();
                        let drain = draining.clone();
                        let conn_id = CONN_SEQ.fetch_add(1, Ordering::Relaxed);
                        let spawned = std::thread::Builder::new()
                            .name(format!("dbcp-conn-{conn_id}"))
                            .spawn(move || {
                                // the guard rides inside the thread so a
                                // panicking handler still releases its slot
                                let _guard = guard;
                                let _ = serve_client(stream, db, gov, drain);
                            });
                        // spawn failure drops the guard: slot released;
                        // successes are registered so shutdown can join them
                        if let Ok(handle) = spawned {
                            let mut reg = handlers.lock().unwrap_or_else(|p| p.into_inner());
                            reg.retain(|h| !h.is_finished());
                            reg.push(handle);
                        }
                    }
                    None => {
                        // reject off the accept thread so a slow client
                        // cannot stall admission of others
                        let _ = std::thread::Builder::new()
                            .name("dbcp-reject".into())
                            .spawn(move || {
                                let _ = serve_rejected(stream);
                            });
                    }
                }
            }
            Err(_) => {
                if shutdown.load(Ordering::SeqCst) {
                    return;
                }
            }
        }
    }
}

/// Completes the handshake, answers the first request with a typed
/// [`DbError::Overloaded`], and closes — clients see a fast rejection on
/// their profile probe instead of a reset or a hang.
fn serve_rejected(mut stream: TcpStream) -> DbResult<()> {
    let budget = Some(Duration::from_secs(5));
    let _ = stream.set_read_timeout(budget);
    let _ = stream.set_write_timeout(budget);
    let mut magic = [0u8; 2];
    stream
        .read_exact(&mut magic)
        .map_err(|e| DbError::Connection(format!("handshake read: {e}")))?;
    if magic != MAGIC {
        return Err(DbError::Connection("bad protocol magic".into()));
    }
    stream
        .write_all(&MAGIC)
        .map_err(|e| DbError::Connection(format!("handshake write: {e}")))?;
    let _ = read_frame(&mut stream)?;
    let resp = Response::Error(DbError::Overloaded(
        "connection limit reached, retry later".into(),
    ));
    write_frame(&mut stream, &encode_response(&resp))
}

/// Waits for the next frame. The wait is the buffered read itself: it
/// returns at every [`DRAIN_POLL`] tick with nothing consumed, so a drain
/// can close an idle connection between frames. Once a byte has arrived,
/// the frame is read whole through the ticks, so none of its bytes is
/// dropped, however they are spread out.
///
/// Returns `None` when the connection should close: peer gone, a socket
/// error, or the server started draining while the connection was idle.
fn await_frame(stream: &mut BufReader<TcpStream>, draining: &AtomicBool) -> Option<bytes::Bytes> {
    loop {
        match stream.fill_buf() {
            Ok([]) => return None, // orderly close
            Ok(_) => return read_frame(&mut Patient(stream)).ok(),
            Err(e) if is_poll_tick(&e) => {
                if draining.load(Ordering::SeqCst) {
                    return None; // idle during a drain: close now
                }
            }
            Err(_) => return None,
        }
    }
}

/// A read that ended at a poll tick, not on a failed socket: the read
/// timeout fired (`WouldBlock` or `TimedOut`, by platform) or a signal
/// interrupted it.
fn is_poll_tick(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
    )
}

/// Reads through poll ticks. A tick consumes nothing in the buffered
/// reader, so the read that follows it carries on where the frame stopped.
struct Patient<'a>(&'a mut BufReader<TcpStream>);

impl Read for Patient<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        loop {
            match self.0.read(buf) {
                Err(e) if is_poll_tick(&e) => continue,
                read => return read,
            }
        }
    }
}

fn serve_client(
    stream: TcpStream,
    db: Database,
    gov: Arc<Governor>,
    draining: Arc<AtomicBool>,
) -> DbResult<()> {
    stream
        .set_nodelay(true)
        .map_err(|e| DbError::Connection(format!("nodelay: {e}")))?;
    // reads are buffered, so a request whose length and payload arrived
    // together is taken in one recv; responses go straight to the socket
    let mut stream = BufReader::new(stream);
    // handshake
    let mut magic = [0u8; 2];
    stream
        .read_exact(&mut magic)
        .map_err(|e| DbError::Connection(format!("handshake read: {e}")))?;
    if magic != MAGIC {
        return Err(DbError::Connection("bad protocol magic".into()));
    }
    stream
        .get_mut()
        .write_all(&MAGIC)
        .map_err(|e| DbError::Connection(format!("handshake write: {e}")))?;
    stream
        .get_ref()
        .set_read_timeout(Some(DRAIN_POLL))
        .map_err(|e| DbError::Connection(format!("read timeout: {e}")))?;

    let mut session = db.connect();
    session.set_statement_timeout(gov.cfg.statement_timeout);
    // per-connection prepared statements; dropped (with the whole map) when
    // the client disconnects, so leaked handles can't outlive the session
    let mut prepared: HashMap<u64, StmtHandle> = HashMap::new();
    let mut next_stmt_id: u64 = 1;
    loop {
        let frame = match await_frame(&mut stream, &draining) {
            Some(f) => f,
            // peer went away or the server is draining and this connection
            // is idle; session drop rolls back any open transaction
            None => return Ok(()),
        };
        let request = decode_request(frame)?;
        if matches!(request, Request::Close) {
            return Ok(());
        }
        // per-frame panic boundary: one panicking statement costs its
        // issuer one errored response, never the connection (or, by
        // unwinding into the runtime, the server). Recovery rolls the
        // session back so locks a mid-statement panic left held in the
        // shared lock table are released before the next frame.
        let response = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            eval_request(
                request,
                &db,
                &mut session,
                &gov,
                &mut prepared,
                &mut next_stmt_id,
            )
        }))
        .unwrap_or_else(|payload| {
            session.recover_after_panic();
            gov.panics_caught.inc();
            let detail = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".into());
            Response::Error(DbError::TxnAborted(format!(
                "statement panicked (transaction rolled back): {detail}"
            )))
        });
        write_frame(stream.get_mut(), &encode_response(&response))?;
    }
}

/// Evaluates one decoded request against the connection's session.
/// `Request::Close` is handled by the caller (it ends the connection).
fn eval_request(
    request: Request,
    db: &Database,
    session: &mut Session,
    gov: &Arc<Governor>,
    prepared: &mut HashMap<u64, StmtHandle>,
    next_stmt_id: &mut u64,
) -> Response {
    match request {
        Request::Close => Response::Done,
        Request::Execute(sql) => match gov.start_statement() {
            Err(e) => Response::Error(e),
            Ok(_stmt) => Response::from_result(session.execute(&sql)),
        },
        Request::Begin => Response::from_result(session.begin().map(|()| StmtOutput::Done)),
        Request::Commit => Response::from_result(session.commit().map(|()| StmtOutput::Done)),
        Request::Rollback => Response::from_result(session.rollback().map(|()| StmtOutput::Done)),
        Request::SetIsolation(level) => {
            session.set_isolation(level);
            Response::Done
        }
        Request::SetStatementTimeout(ms) => {
            let timeout = match ms {
                0 => None,
                n => Some(Duration::from_millis(n)),
            };
            session.set_statement_timeout(timeout);
            Response::Done
        }
        Request::Profile => Response::ProfileIs(db.profile()),
        Request::Prepare(sql) => {
            if prepared.len() >= MAX_PREPARED_PER_CONNECTION {
                Response::Error(DbError::BudgetExceeded(format!(
                        "connection holds {MAX_PREPARED_PER_CONNECTION} prepared statements; close some first"
                    )))
            } else {
                match session.prepare(&sql) {
                    Ok(handle) => {
                        let stmt_id = *next_stmt_id;
                        *next_stmt_id += 1;
                        let param_count = handle.param_count() as u32;
                        prepared.insert(stmt_id, handle);
                        Response::Prepared {
                            stmt_id,
                            param_count,
                        }
                    }
                    Err(e) => Response::Error(e),
                }
            }
        }
        Request::ExecutePrepared { stmt_id, params } => match gov.start_statement() {
            Err(e) => Response::Error(e),
            Ok(_stmt) => match prepared.get(&stmt_id) {
                Some(handle) => {
                    let handle = handle.clone();
                    Response::from_result(session.execute_prepared(&handle, &params))
                }
                None => Response::Error(DbError::NotFound(format!("prepared statement {stmt_id}"))),
            },
        },
        Request::ClosePrepared(stmt_id) => {
            // idempotent: unknown ids are fine (client may retry)
            prepared.remove(&stmt_id);
            Response::Done
        }
        Request::Pipeline(steps) => match gov.start_statement() {
            Err(e) => Response::Error(e),
            Ok(_stmt) => {
                let mut outputs = Vec::with_capacity(steps.len());
                let mut error = None;
                for step in &steps {
                    let result = match step {
                        PipelineStep::Execute(sql) => session.execute(sql),
                        PipelineStep::Prepared { stmt_id, params } => match prepared.get(stmt_id) {
                            Some(handle) => {
                                let handle = handle.clone();
                                session.execute_prepared(&handle, params)
                            }
                            None => Err(DbError::NotFound(format!("prepared statement {stmt_id}"))),
                        },
                    };
                    match result {
                        Ok(out) => outputs.push(Response::from_result(Ok(out))),
                        Err(e) => {
                            error = Some(e);
                            break;
                        }
                    }
                }
                Response::PipelineResults { outputs, error }
            }
        },
        // metrics never touch tables, so they bypass load shedding:
        // an operator must be able to scrape an overloaded server
        Request::Metrics(cmd) => {
            Response::from_result(Ok(crate::metrics_cmd::eval_metrics_cmd(db, &cmd)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panicking_client_thread_releases_its_connection_slot() {
        let gov = Arc::new(Governor::new(
            ServerConfig {
                max_connections: 1,
                ..ServerConfig::default()
            },
            &obs::MetricsRegistry::new(),
        ));
        let guard = gov.try_admit().expect("first admission");
        assert!(gov.try_admit().is_none(), "server is full");
        let handle = std::thread::Builder::new()
            .name("dbcp-conn-test".into())
            .spawn(move || {
                // the guard rides inside the thread, exactly as in
                // accept_loop; the panic must not leak the slot
                let _guard = guard;
                panic!("handler crashed");
            })
            .unwrap();
        assert!(handle.join().is_err(), "thread must have panicked");
        assert_eq!(gov.conns.load(Ordering::SeqCst), 0);
        assert!(gov.try_admit().is_some(), "slot was released");
    }

    #[test]
    fn shed_statements_release_their_slot_and_count() {
        let gov = Arc::new(Governor::new(
            ServerConfig {
                shed_high_water: 1,
                ..ServerConfig::default()
            },
            &obs::MetricsRegistry::new(),
        ));
        let held = gov.start_statement().expect("first statement");
        let err = gov.start_statement();
        assert!(
            matches!(err, Err(DbError::Overloaded(_))),
            "expected shed, got {err:?}"
        );
        // the failed claim must not leak the in-flight counter
        assert_eq!(gov.in_flight.load(Ordering::SeqCst), 1);
        drop(held);
        assert_eq!(gov.in_flight.load(Ordering::SeqCst), 0);
        assert!(gov.start_statement().is_ok());
    }
}
