//! Binary wire protocol: length-prefixed frames, tagged messages.
//!
//! Layout: every frame is `u32` big-endian payload length followed by the
//! payload; the first payload byte is the message tag. Values use a 1-byte
//! type tag. The protocol is versioned by a magic handshake byte pair.
//!
//! A message is encoded straight into its [`Frame`], length prefix first,
//! and [`write_frame`] sends that buffer with one write: on a `TCP_NODELAY`
//! socket the peer then sees one segment per message, not two.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use sqldb::{DbError, DbResult, EngineProfile, IsolationLevel, QueryResult, StmtOutput, Value};
use std::sync::Arc;

/// Protocol magic sent by clients on connect.
pub const MAGIC: [u8; 2] = [0xD8, 0x01];

/// Maximum accepted frame size (64 MiB) — guards against corrupt lengths.
pub const MAX_FRAME: u32 = 64 * 1024 * 1024;

/// Client → server messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Execute one statement.
    Execute(String),
    /// `BEGIN`.
    Begin,
    /// `COMMIT`.
    Commit,
    /// `ROLLBACK`.
    Rollback,
    /// Set the isolation level.
    SetIsolation(IsolationLevel),
    /// Ask for the engine profile.
    Profile,
    /// Close the connection.
    Close,
    /// Set the per-statement execution deadline in milliseconds
    /// (`0` clears it). Applied server-side to the backing session.
    SetStatementTimeout(u64),
    /// Parse once server-side; returns `Prepared { id, param_count }`.
    Prepare(String),
    /// Execute a previously prepared statement with positional parameters.
    ExecutePrepared {
        /// Statement id from `Prepared`.
        stmt_id: u64,
        /// Values for the statement's `?` placeholders, in lexical order.
        params: Vec<Value>,
    },
    /// Discard a prepared statement server-side.
    ClosePrepared(u64),
    /// Pipelined sequence of steps sent in one round-trip; the server stops
    /// at the first failure and returns the successful prefix plus the error.
    Pipeline(Vec<PipelineStep>),
    /// Observability scrape / control (Prometheus dump, digest top-K,
    /// slow log, profiling toggles). Read commands answer with `Rows`,
    /// setters with `Done`.
    Metrics(MetricsCmd),
}

/// One observability command carried by [`Request::Metrics`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricsCmd {
    /// Full metrics snapshot in Prometheus text exposition format
    /// (answered as a 1-column, 1-row result set holding the dump).
    Prometheus,
    /// Top-`k` statement digests by total time, as a typed result set.
    DigestTop(u32),
    /// Top-`k` statement digests by plan-cache misses (miss attribution).
    DigestTopMisses(u32),
    /// Retained slow-statement records, oldest first.
    SlowLog,
    /// Turn per-operator runtime profiling on or off, server-wide.
    SetProfiling(bool),
    /// Configure the slow-statement log: threshold in µs (0 disables)
    /// and keep-every-n sampling.
    SetSlowLog {
        /// Statements at or over this many microseconds are recorded.
        threshold_us: u64,
        /// Keep every n-th qualifying statement.
        sample_every: u64,
    },
    /// Drop all digest entries and slow-log records.
    ResetStats,
}

/// One step of a [`Request::Pipeline`].
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineStep {
    /// Execute SQL text, shared with whoever built the step (a task
    /// retried on another attempt sends the same text).
    Execute(Arc<str>),
    /// Execute a prepared statement.
    Prepared {
        /// Statement id from `Prepared`.
        stmt_id: u64,
        /// Values for the statement's `?` placeholders.
        params: Vec<Value>,
    },
}

/// Server → client messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Execution failed.
    Error(DbError),
    /// A result set.
    Rows(QueryResult),
    /// Rows affected.
    Affected(u64),
    /// Success without payload.
    Done,
    /// The engine profile.
    ProfileIs(EngineProfile),
    /// A statement was prepared.
    Prepared {
        /// Server-side statement id, scoped to this connection.
        stmt_id: u64,
        /// Number of `?` placeholders the statement declares.
        param_count: u32,
    },
    /// Pipeline outcome: outputs of the successful prefix, plus the error
    /// that stopped execution (if any). The failing step's index equals
    /// `outputs.len()`.
    PipelineResults {
        /// Outputs of the steps that succeeded, in order.
        outputs: Vec<Response>,
        /// The error that stopped the pipeline, if it didn't complete.
        error: Option<DbError>,
    },
}

impl Response {
    /// Converts a successful response into a statement output.
    ///
    /// # Errors
    /// Returns the carried error for `Error`, or [`DbError::Connection`]
    /// for a protocol-inappropriate message.
    pub fn into_output(self) -> DbResult<StmtOutput> {
        match self {
            Response::Rows(r) => Ok(StmtOutput::Rows(r)),
            Response::Affected(n) => Ok(StmtOutput::Affected(n)),
            Response::Done => Ok(StmtOutput::Done),
            Response::Error(e) => Err(e),
            other => Err(DbError::Connection(format!(
                "unexpected response {other:?}"
            ))),
        }
    }

    /// Builds a response from an execution result.
    pub fn from_result(result: DbResult<StmtOutput>) -> Response {
        match result {
            Ok(StmtOutput::Rows(r)) => Response::Rows(r),
            Ok(StmtOutput::Affected(n)) => Response::Affected(n),
            Ok(StmtOutput::Done) => Response::Done,
            Err(e) => Response::Error(e),
        }
    }
}

// ---------------------------------------------------------------------
// encoding
// ---------------------------------------------------------------------

fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn put_value(buf: &mut BytesMut, v: &Value) {
    match v {
        Value::Null => buf.put_u8(0),
        Value::Int(i) => {
            buf.put_u8(1);
            buf.put_i64(*i);
        }
        Value::Float(f) => {
            buf.put_u8(2);
            buf.put_f64(*f);
        }
        Value::Text(s) => {
            buf.put_u8(3);
            put_str(buf, s);
        }
        Value::Bool(b) => {
            buf.put_u8(4);
            buf.put_u8(u8::from(*b));
        }
    }
}

fn put_result(buf: &mut BytesMut, r: &QueryResult) {
    buf.put_u32(r.columns.len() as u32);
    for c in &r.columns {
        put_str(buf, c);
    }
    buf.put_u32(r.rows.len() as u32);
    for row in &r.rows {
        for v in row {
            put_value(buf, v);
        }
    }
}

fn profile_tag(p: EngineProfile) -> u8 {
    match p {
        EngineProfile::Postgres => 0,
        EngineProfile::MySql => 1,
        EngineProfile::MariaDb => 2,
    }
}

fn error_parts(e: &DbError) -> (u8, String) {
    match e {
        DbError::Parse(m) => (0, m.clone()),
        DbError::NotFound(m) => (1, m.clone()),
        DbError::AlreadyExists(m) => (2, m.clone()),
        DbError::Invalid(m) => (3, m.clone()),
        DbError::Eval(m) => (4, m.clone()),
        DbError::LockTimeout(m) => (5, m.clone()),
        DbError::TxnAborted(m) => (6, m.clone()),
        DbError::Unsupported(m) => (7, m.clone()),
        DbError::Connection(m) => (8, m.clone()),
        DbError::BudgetExceeded(m) => (9, m.clone()),
        DbError::Timeout(m) => (10, m.clone()),
        DbError::Overloaded(m) => (11, m.clone()),
    }
}

fn error_from_parts(kind: u8, msg: String) -> DbError {
    match kind {
        0 => DbError::Parse(msg),
        1 => DbError::NotFound(msg),
        2 => DbError::AlreadyExists(msg),
        3 => DbError::Invalid(msg),
        4 => DbError::Eval(msg),
        5 => DbError::LockTimeout(msg),
        6 => DbError::TxnAborted(msg),
        7 => DbError::Unsupported(msg),
        9 => DbError::BudgetExceeded(msg),
        10 => DbError::Timeout(msg),
        11 => DbError::Overloaded(msg),
        // unknown kinds (newer peers) degrade to a connection error
        _ => DbError::Connection(msg),
    }
}

/// One encoded message, ready to send: the `u32` big-endian payload
/// length, then the payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame(Bytes);

impl Frame {
    /// Encodes one payload behind a length prefix that is filled in once
    /// the payload's size is known, so the payload is written only once.
    fn encode(payload: impl FnOnce(&mut BytesMut)) -> Frame {
        let mut buf = BytesMut::with_capacity(64);
        buf.put_u32(0);
        payload(&mut buf);
        let len = u32::try_from(buf.len() - 4).unwrap_or(u32::MAX);
        buf[..4].copy_from_slice(&len.to_be_bytes());
        Frame(buf.freeze())
    }

    /// The payload, without the length prefix, in the frame's buffer.
    pub fn into_payload(self) -> Bytes {
        let mut buf = self.0;
        buf.get_u32();
        buf
    }

    /// The whole frame, length prefix included.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }
}

/// Encodes a request as one frame.
pub fn encode_request(req: &Request) -> Frame {
    Frame::encode(|buf| encode_request_into(req, buf))
}

/// Encodes a [`Request::Pipeline`] of `steps` without owning them: the
/// bytes [`encode_request`] writes for it.
pub fn encode_pipeline(steps: &[PipelineStep]) -> Frame {
    Frame::encode(|buf| put_pipeline(buf, steps))
}

fn put_pipeline(buf: &mut BytesMut, steps: &[PipelineStep]) {
    buf.put_u8(13);
    buf.put_u32(steps.len() as u32);
    for step in steps {
        match step {
            PipelineStep::Execute(sql) => {
                buf.put_u8(0);
                put_str(buf, sql);
            }
            PipelineStep::Prepared { stmt_id, params } => {
                buf.put_u8(1);
                buf.put_u64(*stmt_id);
                buf.put_u32(params.len() as u32);
                for p in params {
                    put_value(buf, p);
                }
            }
        }
    }
}

fn encode_request_into(req: &Request, buf: &mut BytesMut) {
    match req {
        Request::Execute(sql) => {
            buf.put_u8(1);
            put_str(buf, sql);
        }
        Request::Begin => buf.put_u8(3),
        Request::Commit => buf.put_u8(4),
        Request::Rollback => buf.put_u8(5),
        Request::SetIsolation(level) => {
            buf.put_u8(6);
            buf.put_u8(match level {
                IsolationLevel::ReadCommitted => 0,
                IsolationLevel::Serializable => 1,
            });
        }
        Request::Profile => buf.put_u8(7),
        Request::Close => buf.put_u8(8),
        Request::SetStatementTimeout(ms) => {
            buf.put_u8(9);
            buf.put_u64(*ms);
        }
        Request::Prepare(sql) => {
            buf.put_u8(10);
            put_str(buf, sql);
        }
        Request::ExecutePrepared { stmt_id, params } => {
            buf.put_u8(11);
            buf.put_u64(*stmt_id);
            buf.put_u32(params.len() as u32);
            for p in params {
                put_value(buf, p);
            }
        }
        Request::ClosePrepared(stmt_id) => {
            buf.put_u8(12);
            buf.put_u64(*stmt_id);
        }
        Request::Pipeline(steps) => put_pipeline(buf, steps),
        Request::Metrics(cmd) => {
            buf.put_u8(14);
            match cmd {
                MetricsCmd::Prometheus => buf.put_u8(0),
                MetricsCmd::DigestTop(k) => {
                    buf.put_u8(1);
                    buf.put_u32(*k);
                }
                MetricsCmd::DigestTopMisses(k) => {
                    buf.put_u8(2);
                    buf.put_u32(*k);
                }
                MetricsCmd::SlowLog => buf.put_u8(3),
                MetricsCmd::SetProfiling(on) => {
                    buf.put_u8(4);
                    buf.put_u8(u8::from(*on));
                }
                MetricsCmd::SetSlowLog {
                    threshold_us,
                    sample_every,
                } => {
                    buf.put_u8(5);
                    buf.put_u64(*threshold_us);
                    buf.put_u64(*sample_every);
                }
                MetricsCmd::ResetStats => buf.put_u8(6),
            }
        }
    }
}

/// Encodes a response as one frame.
pub fn encode_response(resp: &Response) -> Frame {
    Frame::encode(|buf| encode_response_into(resp, buf))
}

fn encode_response_into(resp: &Response, buf: &mut BytesMut) {
    match resp {
        Response::Error(e) => {
            buf.put_u8(0);
            let (kind, msg) = error_parts(e);
            buf.put_u8(kind);
            put_str(buf, &msg);
        }
        Response::Rows(r) => {
            buf.put_u8(1);
            put_result(buf, r);
        }
        Response::Affected(n) => {
            buf.put_u8(2);
            buf.put_u64(*n);
        }
        Response::Done => buf.put_u8(3),
        Response::ProfileIs(p) => {
            buf.put_u8(5);
            buf.put_u8(profile_tag(*p));
        }
        Response::Prepared {
            stmt_id,
            param_count,
        } => {
            buf.put_u8(6);
            buf.put_u64(*stmt_id);
            buf.put_u32(*param_count);
        }
        Response::PipelineResults { outputs, error } => {
            buf.put_u8(7);
            buf.put_u32(outputs.len() as u32);
            for o in outputs {
                encode_response_into(o, buf);
            }
            match error {
                Some(e) => {
                    buf.put_u8(1);
                    let (kind, msg) = error_parts(e);
                    buf.put_u8(kind);
                    put_str(buf, &msg);
                }
                None => buf.put_u8(0),
            }
        }
    }
}

// ---------------------------------------------------------------------
// decoding
// ---------------------------------------------------------------------

fn need(buf: &mut Bytes, n: usize, what: &str) -> DbResult<()> {
    if buf.remaining() < n {
        Err(DbError::Connection(format!(
            "truncated frame reading {what}"
        )))
    } else {
        Ok(())
    }
}

fn get_str(buf: &mut Bytes) -> DbResult<String> {
    String::from_utf8(get_bytes(buf)?.to_vec()).map_err(|_| invalid_utf8())
}

/// A string of the frame, copied once into its shared form.
fn get_text(buf: &mut Bytes) -> DbResult<Arc<str>> {
    let bytes = get_bytes(buf)?;
    std::str::from_utf8(&bytes)
        .map(Arc::from)
        .map_err(|_| invalid_utf8())
}

fn get_bytes(buf: &mut Bytes) -> DbResult<Bytes> {
    need(buf, 4, "string length")?;
    let len = buf.get_u32() as usize;
    need(buf, len, "string body")?;
    Ok(buf.copy_to_bytes(len))
}

fn invalid_utf8() -> DbError {
    DbError::Connection("invalid UTF-8 in frame".into())
}

fn get_value(buf: &mut Bytes) -> DbResult<Value> {
    need(buf, 1, "value tag")?;
    match buf.get_u8() {
        0 => Ok(Value::Null),
        1 => {
            need(buf, 8, "int")?;
            Ok(Value::Int(buf.get_i64()))
        }
        2 => {
            need(buf, 8, "float")?;
            Ok(Value::Float(buf.get_f64()))
        }
        3 => Ok(Value::Text(get_str(buf)?)),
        4 => {
            need(buf, 1, "bool")?;
            Ok(Value::Bool(buf.get_u8() != 0))
        }
        t => Err(DbError::Connection(format!("unknown value tag {t}"))),
    }
}

fn get_result(buf: &mut Bytes) -> DbResult<QueryResult> {
    need(buf, 4, "column count")?;
    let ncols = buf.get_u32() as usize;
    let mut columns = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        columns.push(get_str(buf)?);
    }
    need(buf, 4, "row count")?;
    let nrows = buf.get_u32() as usize;
    let mut rows = Vec::with_capacity(nrows);
    for _ in 0..nrows {
        let mut row = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            row.push(get_value(buf)?);
        }
        rows.push(row);
    }
    Ok(QueryResult { columns, rows })
}

/// Decodes a request payload.
///
/// # Errors
/// Returns [`DbError::Connection`] on malformed frames.
pub fn decode_request(mut buf: Bytes) -> DbResult<Request> {
    need(&mut buf, 1, "request tag")?;
    match buf.get_u8() {
        1 => Ok(Request::Execute(get_str(&mut buf)?)),
        3 => Ok(Request::Begin),
        4 => Ok(Request::Commit),
        5 => Ok(Request::Rollback),
        6 => {
            need(&mut buf, 1, "isolation")?;
            Ok(Request::SetIsolation(match buf.get_u8() {
                0 => IsolationLevel::ReadCommitted,
                _ => IsolationLevel::Serializable,
            }))
        }
        7 => Ok(Request::Profile),
        8 => Ok(Request::Close),
        9 => {
            need(&mut buf, 8, "statement timeout")?;
            Ok(Request::SetStatementTimeout(buf.get_u64()))
        }
        10 => Ok(Request::Prepare(get_str(&mut buf)?)),
        11 => {
            need(&mut buf, 12, "prepared exec header")?;
            let stmt_id = buf.get_u64();
            let n = buf.get_u32() as usize;
            let mut params = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                params.push(get_value(&mut buf)?);
            }
            Ok(Request::ExecutePrepared { stmt_id, params })
        }
        12 => {
            need(&mut buf, 8, "stmt id")?;
            Ok(Request::ClosePrepared(buf.get_u64()))
        }
        13 => {
            need(&mut buf, 4, "pipeline count")?;
            let n = buf.get_u32() as usize;
            let mut steps = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                need(&mut buf, 1, "pipeline step tag")?;
                match buf.get_u8() {
                    0 => steps.push(PipelineStep::Execute(get_text(&mut buf)?)),
                    1 => {
                        need(&mut buf, 12, "prepared step header")?;
                        let stmt_id = buf.get_u64();
                        let np = buf.get_u32() as usize;
                        let mut params = Vec::with_capacity(np.min(1024));
                        for _ in 0..np {
                            params.push(get_value(&mut buf)?);
                        }
                        steps.push(PipelineStep::Prepared { stmt_id, params });
                    }
                    t => {
                        return Err(DbError::Connection(format!(
                            "unknown pipeline step tag {t}"
                        )))
                    }
                }
            }
            Ok(Request::Pipeline(steps))
        }
        14 => {
            need(&mut buf, 1, "metrics command tag")?;
            let cmd = match buf.get_u8() {
                0 => MetricsCmd::Prometheus,
                1 => {
                    need(&mut buf, 4, "digest top k")?;
                    MetricsCmd::DigestTop(buf.get_u32())
                }
                2 => {
                    need(&mut buf, 4, "digest top misses k")?;
                    MetricsCmd::DigestTopMisses(buf.get_u32())
                }
                3 => MetricsCmd::SlowLog,
                4 => {
                    need(&mut buf, 1, "profiling flag")?;
                    MetricsCmd::SetProfiling(buf.get_u8() != 0)
                }
                5 => {
                    need(&mut buf, 16, "slow log config")?;
                    MetricsCmd::SetSlowLog {
                        threshold_us: buf.get_u64(),
                        sample_every: buf.get_u64(),
                    }
                }
                6 => MetricsCmd::ResetStats,
                t => {
                    return Err(DbError::Connection(format!(
                        "unknown metrics command tag {t}"
                    )))
                }
            };
            Ok(Request::Metrics(cmd))
        }
        t => Err(DbError::Connection(format!("unknown request tag {t}"))),
    }
}

/// Decodes a response payload.
///
/// # Errors
/// Returns [`DbError::Connection`] on malformed frames.
pub fn decode_response(mut buf: Bytes) -> DbResult<Response> {
    decode_response_inner(&mut buf)
}

fn decode_response_inner(buf: &mut Bytes) -> DbResult<Response> {
    need(buf, 1, "response tag")?;
    match buf.get_u8() {
        0 => {
            need(buf, 1, "error kind")?;
            let kind = buf.get_u8();
            let msg = get_str(buf)?;
            Ok(Response::Error(error_from_parts(kind, msg)))
        }
        1 => Ok(Response::Rows(get_result(buf)?)),
        2 => {
            need(buf, 8, "affected")?;
            Ok(Response::Affected(buf.get_u64()))
        }
        3 => Ok(Response::Done),
        5 => {
            need(buf, 1, "profile")?;
            Ok(Response::ProfileIs(match buf.get_u8() {
                0 => EngineProfile::Postgres,
                1 => EngineProfile::MySql,
                _ => EngineProfile::MariaDb,
            }))
        }
        6 => {
            need(buf, 12, "prepared")?;
            Ok(Response::Prepared {
                stmt_id: buf.get_u64(),
                param_count: buf.get_u32(),
            })
        }
        7 => {
            need(buf, 4, "pipeline output count")?;
            let n = buf.get_u32() as usize;
            let mut outputs = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                outputs.push(decode_response_inner(buf)?);
            }
            need(buf, 1, "pipeline error flag")?;
            let error = if buf.get_u8() != 0 {
                need(buf, 1, "pipeline error kind")?;
                let kind = buf.get_u8();
                let msg = get_str(buf)?;
                Some(error_from_parts(kind, msg))
            } else {
                None
            };
            Ok(Response::PipelineResults { outputs, error })
        }
        t => Err(DbError::Connection(format!("unknown response tag {t}"))),
    }
}

// ---------------------------------------------------------------------
// framing over std::io
// ---------------------------------------------------------------------

/// Writes one frame with a single write.
///
/// # Errors
/// Returns [`DbError::Connection`] on I/O failure or when the payload
/// exceeds [`MAX_FRAME`].
pub fn write_frame(w: &mut impl std::io::Write, frame: &Frame) -> DbResult<()> {
    let len = frame.0.len() - 4;
    if len > MAX_FRAME as usize {
        return Err(DbError::Connection(format!("frame too large: {len}")));
    }
    w.write_all(&frame.0)
        .and_then(|()| w.flush())
        .map_err(|e| DbError::Connection(format!("write failed: {e}")))
}

/// Reads one length-prefixed frame and returns its payload. Over a
/// buffered reader, a frame whose length and payload arrived together is
/// taken in one `recv`.
///
/// # Errors
/// Returns [`DbError::Connection`] on I/O failure, oversized frames, or a
/// cleanly closed peer.
pub fn read_frame(r: &mut impl std::io::Read) -> DbResult<Bytes> {
    let mut len_buf = [0u8; 4];
    r.read_exact(&mut len_buf)
        .map_err(|e| DbError::Connection(format!("read failed: {e}")))?;
    let len = u32::from_be_bytes(len_buf);
    if len > MAX_FRAME {
        return Err(DbError::Connection(format!("frame too large: {len}")));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)
        .map_err(|e| DbError::Connection(format!("read failed: {e}")))?;
    Ok(Bytes::from(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_req(req: Request) {
        let enc = encode_request(&req);
        assert_eq!(decode_request(enc.into_payload()).unwrap(), req);
    }

    #[test]
    fn a_borrowed_pipeline_encodes_as_the_owned_request() {
        let steps = vec![
            PipelineStep::Execute("UPDATE t SET v = 1".into()),
            PipelineStep::Prepared {
                stmt_id: 9,
                params: vec![Value::Text("é".into()), Value::Null],
            },
        ];
        let borrowed = encode_pipeline(&steps);
        let owned = encode_request(&Request::Pipeline(steps.clone()));
        assert_eq!(borrowed.as_bytes(), owned.as_bytes());
        let decoded = decode_request(borrowed.into_payload()).unwrap();
        assert_eq!(decoded, Request::Pipeline(steps));
    }

    fn roundtrip_resp(resp: Response) {
        let enc = encode_response(&resp);
        assert_eq!(decode_response(enc.into_payload()).unwrap(), resp);
    }

    #[test]
    fn request_roundtrips() {
        roundtrip_req(Request::Execute("SELECT 1".into()));
        roundtrip_req(Request::Begin);
        roundtrip_req(Request::Commit);
        roundtrip_req(Request::Rollback);
        roundtrip_req(Request::SetIsolation(IsolationLevel::Serializable));
        roundtrip_req(Request::Profile);
        roundtrip_req(Request::Close);
        roundtrip_req(Request::SetStatementTimeout(1500));
        roundtrip_req(Request::SetStatementTimeout(0));
        roundtrip_req(Request::Prepare("SELECT a FROM t WHERE a > ?".into()));
        roundtrip_req(Request::ExecutePrepared {
            stmt_id: 7,
            params: vec![Value::Int(1), Value::Null, Value::Text("x".into())],
        });
        roundtrip_req(Request::ExecutePrepared {
            stmt_id: 0,
            params: vec![],
        });
        roundtrip_req(Request::ClosePrepared(7));
        roundtrip_req(Request::Pipeline(vec![
            PipelineStep::Execute("DELETE FROM tmp".into()),
            PipelineStep::Prepared {
                stmt_id: 3,
                params: vec![Value::Float(0.5)],
            },
            PipelineStep::Prepared {
                stmt_id: 4,
                params: vec![],
            },
        ]));
        roundtrip_req(Request::Metrics(MetricsCmd::Prometheus));
        roundtrip_req(Request::Metrics(MetricsCmd::DigestTop(10)));
        roundtrip_req(Request::Metrics(MetricsCmd::DigestTopMisses(5)));
        roundtrip_req(Request::Metrics(MetricsCmd::SlowLog));
        roundtrip_req(Request::Metrics(MetricsCmd::SetProfiling(true)));
        roundtrip_req(Request::Metrics(MetricsCmd::SetProfiling(false)));
        roundtrip_req(Request::Metrics(MetricsCmd::SetSlowLog {
            threshold_us: 2500,
            sample_every: 4,
        }));
        roundtrip_req(Request::Metrics(MetricsCmd::ResetStats));
    }

    #[test]
    fn truncated_metrics_frames_rejected() {
        let enc = encode_request(&Request::Metrics(MetricsCmd::SetSlowLog {
            threshold_us: 1,
            sample_every: 2,
        }))
        .into_payload();
        for cut in 0..enc.len() {
            assert!(decode_request(enc.slice(0..cut)).is_err(), "cut at {cut}");
        }
        // unknown metrics sub-command is a clean decode error
        let mut buf = bytes::BytesMut::new();
        buf.put_u8(14);
        buf.put_u8(250);
        assert!(decode_request(buf.freeze()).is_err());
    }

    #[test]
    fn response_roundtrips() {
        roundtrip_resp(Response::Done);
        roundtrip_resp(Response::Affected(42));
        roundtrip_resp(Response::Error(DbError::LockTimeout("t".into())));
        roundtrip_resp(Response::ProfileIs(EngineProfile::MariaDb));
        roundtrip_resp(Response::Rows(QueryResult {
            columns: vec!["a".into(), "b".into()],
            rows: vec![
                vec![Value::Int(1), Value::Null],
                vec![Value::Float(f64::INFINITY), Value::Text("it's".into())],
                vec![Value::Bool(true), Value::Float(-0.0)],
            ],
        }));
        roundtrip_resp(Response::Prepared {
            stmt_id: 42,
            param_count: 3,
        });
        roundtrip_resp(Response::PipelineResults {
            outputs: vec![Response::Affected(2), Response::Done],
            error: None,
        });
        roundtrip_resp(Response::PipelineResults {
            outputs: vec![Response::Affected(2)],
            error: Some(DbError::LockTimeout("t".into())),
        });
        roundtrip_resp(Response::PipelineResults {
            outputs: vec![],
            error: Some(DbError::NotFound("prepared statement 9".into())),
        });
    }

    #[test]
    fn truncated_prepared_frames_rejected() {
        let enc = encode_request(&Request::ExecutePrepared {
            stmt_id: 7,
            params: vec![Value::Int(1)],
        })
        .into_payload();
        for cut in 0..enc.len() {
            assert!(decode_request(enc.slice(0..cut)).is_err(), "cut at {cut}");
        }
        let enc = encode_response(&Response::PipelineResults {
            outputs: vec![Response::Done],
            error: Some(DbError::Invalid("x".into())),
        })
        .into_payload();
        for cut in 0..enc.len() {
            assert!(decode_response(enc.slice(0..cut)).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn truncated_frames_rejected() {
        let enc = encode_response(&Response::Affected(42)).into_payload();
        for cut in 0..enc.len() {
            let sliced = enc.slice(0..cut);
            assert!(decode_response(sliced).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn framing_over_a_buffer() {
        let mut buf = Vec::new();
        let exec = encode_request(&Request::Execute("hello".into()));
        write_frame(&mut buf, &exec).unwrap();
        write_frame(&mut buf, &encode_response(&Response::Done)).unwrap();
        let payload = exec.into_payload();
        // the prefix holds the payload's length, big-endian
        assert_eq!(buf[..4], (payload.len() as u32).to_be_bytes());
        let mut r = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut r).unwrap()[..], payload[..]);
        assert_eq!(read_frame(&mut r).unwrap()[..], [3]);
        assert!(read_frame(&mut r).is_err()); // EOF
    }

    #[test]
    fn all_error_kinds_roundtrip() {
        let errors = vec![
            DbError::Parse("a".into()),
            DbError::NotFound("b".into()),
            DbError::AlreadyExists("c".into()),
            DbError::Invalid("d".into()),
            DbError::Eval("e".into()),
            DbError::LockTimeout("f".into()),
            DbError::TxnAborted("g".into()),
            DbError::Unsupported("h".into()),
            DbError::Connection("i".into()),
            DbError::BudgetExceeded("j".into()),
            DbError::Timeout("k".into()),
            DbError::Overloaded("l".into()),
        ];
        for e in errors {
            roundtrip_resp(Response::Error(e));
        }
    }

    #[test]
    fn unknown_error_kind_degrades_to_connection() {
        // an error frame with a future kind decodes, not fails
        let mut buf = bytes::BytesMut::new();
        buf.put_u8(0); // Error tag
        buf.put_u8(200); // unknown kind
        buf.put_u32(2);
        buf.put_slice(b"zz");
        match decode_response(buf.freeze()).unwrap() {
            Response::Error(DbError::Connection(m)) => assert_eq!(m, "zz"),
            other => panic!("unexpected {other:?}"),
        }
    }
}
