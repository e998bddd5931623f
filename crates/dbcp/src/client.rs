//! TCP client driver: connect to a remote engine by URL.

use crate::driver::{mint_epoch, Connection, Driver, PipelineOutcome};
use crate::wire::{
    decode_response, encode_pipeline, encode_request, read_frame, write_frame, Frame, MetricsCmd,
    PipelineStep, Request, Response, MAGIC,
};
use sqldb::{DbError, DbResult, EngineProfile, IsolationLevel, StmtOutput, Value};
use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// Socket deadlines for a [`TcpConnection`]. A `None` means "wait
/// forever" — only sensible on a trusted local loopback; the defaults
/// keep a wedged or half-dead server from hanging the middleware.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpTimeouts {
    /// Deadline for reading a response frame.
    pub read: Option<Duration>,
    /// Deadline for writing a request frame.
    pub write: Option<Duration>,
}

impl Default for TcpTimeouts {
    fn default() -> TcpTimeouts {
        TcpTimeouts {
            read: Some(Duration::from_secs(120)),
            write: Some(Duration::from_secs(30)),
        }
    }
}

/// Driver that opens wire-protocol connections to a remote server.
#[derive(Debug, Clone)]
pub struct TcpDriver {
    addr: String,
    profile: EngineProfile,
    timeouts: TcpTimeouts,
}

impl TcpDriver {
    /// Connects once to discover the remote engine profile, then acts as a
    /// factory for further connections.
    ///
    /// # Errors
    /// Returns [`DbError::Connection`] when the server is unreachable.
    pub fn connect(addr: &str) -> DbResult<TcpDriver> {
        TcpDriver::connect_with(addr, TcpTimeouts::default())
    }

    /// As [`TcpDriver::connect`], with explicit socket timeouts applied to
    /// the probe and every connection minted afterwards.
    ///
    /// # Errors
    /// Returns [`DbError::Connection`] when the server is unreachable.
    pub fn connect_with(addr: &str, timeouts: TcpTimeouts) -> DbResult<TcpDriver> {
        let mut probe = TcpConnection::open_with(addr, timeouts)?;
        let profile = probe.fetch_profile()?;
        Ok(TcpDriver {
            addr: addr.to_owned(),
            profile,
            timeouts,
        })
    }

    /// The remote address.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// The socket timeouts applied to minted connections.
    pub fn timeouts(&self) -> TcpTimeouts {
        self.timeouts
    }
}

impl Driver for TcpDriver {
    fn connect(&self) -> DbResult<Box<dyn Connection>> {
        Ok(Box::new(TcpConnection::open_with(
            &self.addr,
            self.timeouts,
        )?))
    }

    fn profile(&self) -> EngineProfile {
        self.profile
    }
}

/// One wire-protocol connection.
#[derive(Debug)]
pub struct TcpConnection {
    /// Reads are buffered, so a response whose length and payload arrived
    /// together is taken in one `recv`; writes go straight to the socket.
    stream: BufReader<TcpStream>,
    profile: EngineProfile,
    /// Set after any transport failure: the stream position is unknown
    /// (a frame may be half-sent or half-read), so every later call
    /// fast-fails instead of desynchronizing the protocol.
    broken: bool,
    /// Identifies this physical connection; prepared-statement ids are
    /// scoped to it (see [`Connection::prepared_epoch`]).
    epoch: u64,
    wire: WireMetrics,
}

/// The round trip's metric handles, resolved once per connection.
#[derive(Debug)]
struct WireMetrics {
    bytes_out: Arc<obs::Counter>,
    bytes_in: Arc<obs::Counter>,
    round_trip: Arc<obs::Histogram>,
}

impl WireMetrics {
    fn new() -> WireMetrics {
        let reg = obs::global();
        WireMetrics {
            bytes_out: reg.counter("dbcp.wire.bytes_out"),
            bytes_in: reg.counter("dbcp.wire.bytes_in"),
            round_trip: reg.histogram("dbcp.wire.round_trip"),
        }
    }
}

impl TcpConnection {
    /// Opens and handshakes a connection with default timeouts.
    ///
    /// # Errors
    /// Returns [`DbError::Connection`] on network or handshake failure.
    pub fn open(addr: &str) -> DbResult<TcpConnection> {
        TcpConnection::open_with(addr, TcpTimeouts::default())
    }

    /// Opens and handshakes a connection with explicit socket timeouts.
    ///
    /// # Errors
    /// Returns [`DbError::Connection`] on network or handshake failure.
    pub fn open_with(addr: &str, timeouts: TcpTimeouts) -> DbResult<TcpConnection> {
        let stream = TcpStream::connect(addr)
            .map_err(|e| DbError::Connection(format!("connect {addr}: {e}")))?;
        stream
            .set_nodelay(true)
            .map_err(|e| DbError::Connection(format!("nodelay: {e}")))?;
        stream
            .set_read_timeout(timeouts.read)
            .map_err(|e| DbError::Connection(format!("read timeout: {e}")))?;
        stream
            .set_write_timeout(timeouts.write)
            .map_err(|e| DbError::Connection(format!("write timeout: {e}")))?;
        let mut conn = TcpConnection {
            stream: BufReader::new(stream),
            profile: EngineProfile::Postgres,
            broken: false,
            epoch: mint_epoch(),
            wire: WireMetrics::new(),
        };
        conn.stream
            .get_mut()
            .write_all(&MAGIC)
            .map_err(|e| DbError::Connection(format!("handshake: {e}")))?;
        let mut echo = [0u8; 2];
        conn.stream
            .read_exact(&mut echo)
            .map_err(|e| DbError::Connection(format!("handshake: {e}")))?;
        if echo != MAGIC {
            return Err(DbError::Connection("bad handshake echo".into()));
        }
        let profile = conn.fetch_profile()?;
        conn.profile = profile;
        Ok(conn)
    }

    fn round_trip(&mut self, req: &Request) -> DbResult<Response> {
        self.send(encode_request(req))
    }

    /// Writes `frame` and reads the response to it.
    fn send(&mut self, frame: Frame) -> DbResult<Response> {
        if self.broken {
            return Err(DbError::Connection(
                "connection is broken after an earlier transport failure".into(),
            ));
        }
        let started = std::time::Instant::now();
        // byte counts include each frame's 4-byte length prefix
        self.wire.bytes_out.add(frame.as_bytes().len() as u64);
        let result = write_frame(self.stream.get_mut(), &frame)
            .and_then(|()| read_frame(&mut self.stream))
            .inspect(|payload| self.wire.bytes_in.add(payload.len() as u64 + 4))
            .and_then(decode_response);
        self.wire.round_trip.observe(started.elapsed());
        if matches!(result, Err(DbError::Connection(_))) {
            self.broken = true;
        }
        result
    }

    fn fetch_profile(&mut self) -> DbResult<EngineProfile> {
        match self.round_trip(&Request::Profile)? {
            Response::ProfileIs(p) => Ok(p),
            // typed rejections (admission control) must survive the probe
            Response::Error(e) => Err(e),
            other => Err(DbError::Connection(format!(
                "unexpected profile response {other:?}"
            ))),
        }
    }
}

impl Connection for TcpConnection {
    fn execute(&mut self, sql: &str) -> DbResult<StmtOutput> {
        self.round_trip(&Request::Execute(sql.to_owned()))?
            .into_output()
    }

    fn begin(&mut self) -> DbResult<()> {
        self.round_trip(&Request::Begin)?.into_output().map(|_| ())
    }

    fn commit(&mut self) -> DbResult<()> {
        self.round_trip(&Request::Commit)?.into_output().map(|_| ())
    }

    fn rollback(&mut self) -> DbResult<()> {
        self.round_trip(&Request::Rollback)?
            .into_output()
            .map(|_| ())
    }

    fn set_isolation(&mut self, level: IsolationLevel) -> DbResult<()> {
        self.round_trip(&Request::SetIsolation(level))?
            .into_output()
            .map(|_| ())
    }

    fn set_statement_timeout(&mut self, timeout: Option<Duration>) -> DbResult<bool> {
        let ms = timeout.map(|d| d.as_millis().min(u128::from(u64::MAX)) as u64);
        self.round_trip(&Request::SetStatementTimeout(ms.unwrap_or(0)))?
            .into_output()
            .map(|_| true)
    }

    fn ping(&mut self) -> bool {
        // a broken stream can never serve another frame
        !self.broken && !matches!(self.execute("SELECT 1"), Err(DbError::Connection(_)))
    }

    fn prepare_statement(&mut self, sql: &str) -> DbResult<(u64, usize)> {
        match self.round_trip(&Request::Prepare(sql.to_owned()))? {
            Response::Prepared {
                stmt_id,
                param_count,
            } => Ok((stmt_id, param_count as usize)),
            Response::Error(e) => Err(e),
            other => Err(DbError::Connection(format!(
                "unexpected prepare response {other:?}"
            ))),
        }
    }

    fn execute_prepared(&mut self, stmt_id: u64, params: &[Value]) -> DbResult<StmtOutput> {
        self.round_trip(&Request::ExecutePrepared {
            stmt_id,
            params: params.to_vec(),
        })?
        .into_output()
    }

    fn close_prepared(&mut self, stmt_id: u64) -> DbResult<()> {
        self.round_trip(&Request::ClosePrepared(stmt_id))?
            .into_output()
            .map(|_| ())
    }

    fn prepared_epoch(&self) -> u64 {
        self.epoch
    }

    fn metrics(&mut self, cmd: &MetricsCmd) -> DbResult<StmtOutput> {
        self.round_trip(&Request::Metrics(cmd.clone()))?
            .into_output()
    }

    fn run_pipeline(&mut self, steps: &[PipelineStep]) -> DbResult<PipelineOutcome> {
        match self.send(encode_pipeline(steps))? {
            Response::PipelineResults { outputs, error } => {
                let outputs = outputs
                    .into_iter()
                    .map(Response::into_output)
                    .collect::<DbResult<Vec<_>>>()?;
                Ok(PipelineOutcome { outputs, error })
            }
            Response::Error(e) => Err(e),
            other => Err(DbError::Connection(format!(
                "unexpected pipeline response {other:?}"
            ))),
        }
    }

    fn profile(&self) -> EngineProfile {
        self.profile
    }
}

impl Drop for TcpConnection {
    fn drop(&mut self) {
        if !self.broken {
            // best-effort goodbye so the server can clean up promptly
            let _ = write_frame(self.stream.get_mut(), &encode_request(&Request::Close));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A fake server that completes the handshake and profile probe, then
    /// abandons the client per `mode`.
    fn rogue_server(mode: &'static str) -> String {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            let (mut sock, _) = listener.accept().unwrap();
            let mut echo = [0u8; 2];
            sock.read_exact(&mut echo).unwrap();
            sock.write_all(&MAGIC).unwrap();
            // answer the profile probe so open() succeeds
            let _ = read_frame(&mut sock).unwrap();
            let profile =
                crate::wire::encode_response(&Response::ProfileIs(EngineProfile::Postgres));
            write_frame(&mut sock, &profile).unwrap();
            // first real request arrives…
            let _ = read_frame(&mut sock);
            match mode {
                // …and the server dies mid-frame: a length prefix
                // promising 100 bytes, then nothing
                "half-frame" => {
                    let _ = sock.write_all(&100u32.to_be_bytes());
                    let _ = sock.write_all(&[1, 2, 3]);
                    drop(sock);
                }
                // …and the server just closes
                _ => drop(sock),
            }
        });
        addr
    }

    #[test]
    fn mid_frame_disconnect_is_an_error_not_a_hang() {
        let addr = rogue_server("half-frame");
        let timeouts = TcpTimeouts {
            read: Some(Duration::from_millis(500)),
            write: Some(Duration::from_millis(500)),
        };
        let mut conn = TcpConnection::open_with(&addr, timeouts).unwrap();
        let started = std::time::Instant::now();
        let err = conn.execute("SELECT 1");
        assert!(
            matches!(err, Err(DbError::Connection(_))),
            "expected a connection error, got {err:?}"
        );
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "the client hung instead of failing"
        );
    }

    #[test]
    fn broken_connection_fast_fails_later_calls() {
        let addr = rogue_server("close");
        let timeouts = TcpTimeouts {
            read: Some(Duration::from_millis(500)),
            write: Some(Duration::from_millis(500)),
        };
        let mut conn = TcpConnection::open_with(&addr, timeouts).unwrap();
        assert!(conn.execute("SELECT 1").is_err());
        // poisoned: the next call fails immediately, without touching the
        // socket (which could block or desync)
        let started = std::time::Instant::now();
        let err = conn.execute("SELECT 1");
        assert!(matches!(err, Err(DbError::Connection(_))), "{err:?}");
        assert!(started.elapsed() < Duration::from_millis(100));
        assert!(!conn.ping());
    }

    #[test]
    fn connect_to_nothing_fails_cleanly() {
        // bind-then-drop to get a port with no listener
        let port = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().port()
        };
        let err = TcpConnection::open(&format!("127.0.0.1:{port}"));
        assert!(matches!(err, Err(DbError::Connection(_))));
    }
}
