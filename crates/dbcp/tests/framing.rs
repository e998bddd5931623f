//! Framing over the real wire: a frame leaves in one write, and the server
//! reads a request whole however its bytes are spread out in time — across
//! its poll ticks, byte by byte, or two frames in one segment — while a
//! length past `MAX_FRAME` is refused on either end.

use dbcp::wire::{
    decode_request, decode_response, encode_request, encode_response, read_frame, write_frame,
    Frame, PipelineStep, Request, Response, MAGIC, MAX_FRAME,
};
use dbcp::{Server, TcpConnection, TcpTimeouts};
use sqldb::{Database, DbError, EngineProfile, QueryResult, Value};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

/// The server's idle poll interval (`DRAIN_POLL` in `server.rs`).
const DRAIN_POLL: Duration = Duration::from_millis(25);

/// Counts the `write` calls made on it.
#[derive(Default)]
struct CountingWriter {
    writes: usize,
    bytes: Vec<u8>,
}

impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.writes += 1;
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Writes `frame` into a fresh counting writer and reads it back.
fn send_and_read(frame: &Frame) -> (usize, bytes::Bytes) {
    let mut w = CountingWriter::default();
    write_frame(&mut w, frame).unwrap();
    let payload = read_frame(&mut std::io::Cursor::new(w.bytes)).unwrap();
    (w.writes, payload)
}

#[test]
fn one_frame_is_one_write_and_round_trips() {
    let requests = [
        Request::Execute("SELECT 1".into()),
        Request::Begin,
        Request::ExecutePrepared {
            stmt_id: 3,
            params: vec![Value::Int(7), Value::Null, Value::Text("x".into())],
        },
        Request::Pipeline(vec![
            PipelineStep::Execute("DELETE FROM t".into()),
            PipelineStep::Prepared {
                stmt_id: 4,
                params: vec![Value::Float(0.5)],
            },
        ]),
        // larger than any socket buffer's first read
        Request::Execute(format!("SELECT '{}'", "a".repeat(100_000))),
    ];
    for req in requests {
        let (writes, payload) = send_and_read(&encode_request(&req));
        assert_eq!(writes, 1, "{req:?}");
        assert_eq!(decode_request(payload).unwrap(), req);
    }
    let responses = [
        Response::Done,
        Response::Affected(42),
        Response::Error(DbError::LockTimeout("t".into())),
        Response::Rows(QueryResult {
            columns: vec!["a".into()],
            rows: (0..1000).map(|i| vec![Value::Int(i)]).collect(),
        }),
    ];
    for resp in responses {
        let (writes, payload) = send_and_read(&encode_response(&resp));
        assert_eq!(writes, 1, "{resp:?}");
        assert_eq!(decode_response(payload).unwrap(), resp);
    }
}

#[test]
fn a_length_past_max_frame_is_a_connection_error() {
    let mut bytes = (MAX_FRAME + 1).to_be_bytes().to_vec();
    bytes.extend_from_slice(&[1, 2, 3]);
    let err = read_frame(&mut std::io::Cursor::new(bytes));
    assert!(matches!(err, Err(DbError::Connection(_))), "{err:?}");
    // exactly MAX_FRAME is a legal length: what fails is the short body
    let err = read_frame(&mut std::io::Cursor::new(MAX_FRAME.to_be_bytes()));
    assert!(
        matches!(&err, Err(DbError::Connection(m)) if !m.contains("too large")),
        "{err:?}"
    );
}

/// A handshaken raw socket to a fresh server.
fn raw_client() -> (Server, TcpStream) {
    let server = Server::bind(Database::new(EngineProfile::Postgres), "127.0.0.1:0").unwrap();
    let mut sock = TcpStream::connect(server.addr()).unwrap();
    sock.set_nodelay(true).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    sock.write_all(&MAGIC).unwrap();
    let mut echo = [0u8; 2];
    sock.read_exact(&mut echo).unwrap();
    assert_eq!(echo, MAGIC);
    (server, sock)
}

/// Reads one response off a raw socket.
fn response(sock: &mut TcpStream) -> Response {
    decode_response(read_frame(sock).unwrap()).unwrap()
}

fn int_rows(v: i64) -> Response {
    Response::Rows(QueryResult {
        columns: vec!["v".into()],
        rows: vec![vec![Value::Int(v)]],
    })
}

#[test]
fn a_request_spread_across_poll_ticks_is_answered() {
    let (server, mut sock) = raw_client();
    let gap = DRAIN_POLL * 3;
    // cut after the length prefix, inside the prefix, and inside the payload
    for (cut, v) in [(4, 1), (2, 2), (9, 3)] {
        let frame = encode_request(&Request::Execute(format!("SELECT {v} AS v")));
        let bytes = frame.as_bytes();
        sock.write_all(&bytes[..cut]).unwrap();
        std::thread::sleep(gap);
        sock.write_all(&bytes[cut..]).unwrap();
        assert_eq!(response(&mut sock), int_rows(v), "cut at {cut}");
    }
    server.shutdown();
}

#[test]
fn a_request_sent_byte_by_byte_is_answered() {
    let (server, mut sock) = raw_client();
    let frame = encode_request(&Request::Execute("SELECT 40 + 2 AS v".into()));
    for byte in frame.as_bytes() {
        sock.write_all(std::slice::from_ref(byte)).unwrap();
        // the whole request spans several poll ticks
        std::thread::sleep(Duration::from_millis(3));
    }
    assert_eq!(response(&mut sock), int_rows(42));
    server.shutdown();
}

#[test]
fn two_frames_in_one_write_are_both_answered() {
    let (server, mut sock) = raw_client();
    let mut both = encode_request(&Request::Execute("SELECT 1 AS v".into()))
        .as_bytes()
        .to_vec();
    both.extend_from_slice(encode_request(&Request::Execute("SELECT 2 AS v".into())).as_bytes());
    sock.write_all(&both).unwrap();
    assert_eq!(response(&mut sock), int_rows(1));
    assert_eq!(response(&mut sock), int_rows(2));
    server.shutdown();
}

#[test]
fn the_server_drops_a_request_longer_than_max_frame() {
    let (server, mut sock) = raw_client();
    sock.write_all(&(MAX_FRAME + 1).to_be_bytes()).unwrap();
    // the handler closes the connection instead of allocating the frame
    let mut rest = Vec::new();
    let read = sock.read_to_end(&mut rest);
    assert!(
        matches!(read, Ok(0)) || read.is_err(),
        "expected a closed connection, got {read:?} with {rest:?}"
    );
    server.shutdown();
}

#[test]
fn the_client_refuses_a_response_longer_than_max_frame() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let rogue = std::thread::spawn(move || {
        let (mut sock, _) = listener.accept().unwrap();
        let mut magic = [0u8; 2];
        sock.read_exact(&mut magic).unwrap();
        sock.write_all(&MAGIC).unwrap();
        // the profile probe gets an oversized length and nothing more
        let _ = read_frame(&mut sock).unwrap();
        sock.write_all(&(MAX_FRAME + 1).to_be_bytes()).unwrap();
        // hold the socket open until the client has given up
        let _ = sock.read(&mut [0u8; 1]);
    });
    let timeouts = TcpTimeouts {
        read: Some(Duration::from_secs(5)),
        write: Some(Duration::from_secs(5)),
    };
    let err = TcpConnection::open_with(&addr, timeouts, &obs::MetricsRegistry::new());
    match err {
        Err(DbError::Connection(m)) => assert!(m.contains("too large"), "{m}"),
        other => panic!("expected a connection error, got {other:?}"),
    }
    rogue.join().unwrap();
}
