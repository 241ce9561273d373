//! Wire-protocol robustness: malformed, truncated, oversized and
//! byte-mutated requests must yield structured errors or clean closes —
//! never a panic, never a wedged worker.
//!
//! One shared daemon takes all the abuse; each check ends by proving the
//! server still answers a well-formed request afterwards.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::OnceLock;

use respec_serve::{Json, ServeConfig, Server};

fn server() -> &'static Server {
    static SERVER: OnceLock<Server> = OnceLock::new();
    SERVER.get_or_init(|| {
        Server::start(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        })
        .expect("shared abuse server starts")
    })
}

struct Client {
    reader: BufReader<TcpStream>,
    stream: TcpStream,
}

impl Client {
    fn connect() -> Client {
        let stream = TcpStream::connect(server().addr()).expect("connect");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        Client { reader, stream }
    }

    fn send_raw(&mut self, bytes: &[u8]) {
        self.stream.write_all(bytes).expect("send");
    }

    fn recv(&mut self) -> Json {
        let mut response = String::new();
        self.reader.read_line(&mut response).expect("recv");
        assert!(!response.is_empty(), "connection closed unexpectedly");
        respec_trace::json::validate(response.trim_end())
            .unwrap_or_else(|e| panic!("response is not valid json ({e}): {response:?}"));
        Json::parse(response.trim_end()).expect("response parses")
    }

    fn request(&mut self, line: &str) -> Json {
        self.send_raw(line.as_bytes());
        self.send_raw(b"\n");
        self.recv()
    }

    /// Asserts the server closed this connection (clean EOF).
    fn expect_eof(&mut self) {
        let mut rest = Vec::new();
        self.reader.read_to_end(&mut rest).expect("drain");
        assert!(
            rest.is_empty(),
            "expected clean close, got {} more bytes",
            rest.len()
        );
    }
}

fn assert_alive() {
    let mut probe = Client::connect();
    let pong = probe.request(r#"{"op":"ping","id":"alive"}"#);
    assert_eq!(pong.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(pong.get("id").and_then(Json::as_str), Some("alive"));
}

#[test]
fn malformed_requests_yield_structured_errors_on_a_surviving_connection() {
    let mut client = Client::connect();
    let cases: &[(&str, &str)] = &[
        ("{", "bad-json"),
        ("}{", "bad-json"),
        ("42", "bad-request"),
        ("null", "bad-request"),
        (r#""just a string""#, "bad-request"),
        (r#"{"op":"fly"}"#, "unknown-op"),
        (r#"{"op":42}"#, "bad-request"),
        (r#"{"op":"tune"}"#, "bad-request"),
        (
            r#"{"op":"tune","app":"lud","target":"a100","totals":"all"}"#,
            "bad-request",
        ),
        (
            r#"{"op":"tune","app":"lud","target":"a100","totals":[9999]}"#,
            "bad-request",
        ),
        (
            r#"{"op":"tune","app":"lud","target":"a100","id":7}"#,
            "bad-request",
        ),
        (r#"{"op":"ping"} trailing"#, "bad-json"),
    ];
    for (line, code) in cases {
        let response = client.request(line);
        assert_eq!(
            response.get("ok").and_then(Json::as_bool),
            Some(false),
            "{line:?} should be rejected"
        );
        assert_eq!(
            response.get("error").and_then(Json::as_str),
            Some(*code),
            "wrong code for {line:?}: {response:?}"
        );
    }
    // Registry-level rejections carry the op and id.
    let response = client.request(r#"{"op":"compile","id":"x","app":"nope","target":"a100"}"#);
    assert_eq!(
        response.get("error").and_then(Json::as_str),
        Some("unknown-app")
    );
    assert_eq!(response.get("id").and_then(Json::as_str), Some("x"));
    let response = client.request(r#"{"op":"tune","app":"lud","target":"h100"}"#);
    assert_eq!(
        response.get("error").and_then(Json::as_str),
        Some("unknown-target")
    );
    // The same connection still serves real work.
    let pong = client.request(r#"{"op":"ping"}"#);
    assert_eq!(pong.get("ok").and_then(Json::as_bool), Some(true));
}

#[test]
fn fuzzed_byte_mutations_never_panic_or_wedge_the_server() {
    // Deterministic xorshift64; mutates a valid (cheap) compile request.
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let base = br#"{"op":"compile","id":"f0","client":"fuzz","app":"gaussian","target":"a100"}"#;
    let mut client = Client::connect();
    for round in 0..300 {
        let mut line = base.to_vec();
        for _ in 0..(next() % 4 + 1) {
            let idx = (next() as usize) % line.len();
            let byte = (next() & 0xff) as u8;
            // A '\n' would split the request in two; the round counts
            // one request, one response.
            line[idx] = if byte == b'\n' { b'?' } else { byte };
        }
        client.send_raw(&line);
        client.send_raw(b"\n");
        let response = client.recv();
        // Any verdict is fine — some mutations leave the request valid —
        // but it must be a structured verdict.
        assert!(
            response.get("ok").and_then(Json::as_bool).is_some(),
            "round {round}: response without ok field: {response:?}"
        );
    }
    let pong = client.request(r#"{"op":"ping"}"#);
    assert_eq!(pong.get("ok").and_then(Json::as_bool), Some(true));
    assert_alive();
}

#[test]
fn deeply_nested_json_yields_bad_json_not_a_crash() {
    // Far beyond MAX_JSON_DEPTH but well under the line cap: without a
    // recursion bound this overflowed the reader thread's stack and
    // aborted the whole daemon.
    let mut client = Client::connect();
    for bomb in [
        "[".repeat(40_000),
        "{\"k\":".repeat(8_000),
        format!("{}1{}", "[".repeat(500), "]".repeat(500)),
    ] {
        let response = client.request(&bomb);
        assert_eq!(
            response.get("ok").and_then(Json::as_bool),
            Some(false),
            "nesting bomb accepted: {response:?}"
        );
        assert_eq!(
            response.get("error").and_then(Json::as_str),
            Some("bad-json"),
            "wrong code: {response:?}"
        );
    }
    // The same connection still serves real work, and so does the server.
    let pong = client.request(r#"{"op":"ping"}"#);
    assert_eq!(pong.get("ok").and_then(Json::as_bool), Some(true));
    assert_alive();
}

#[test]
fn truncated_requests_and_mid_request_disconnects_close_cleanly() {
    // Half a request, then the client vanishes.
    let mut client = Client::connect();
    client.send_raw(br#"{"op":"tune","app":"lud","#);
    drop(client);
    // A full request followed by a truncated one: the first is answered,
    // the fragment is a clean EOF.
    let mut client = Client::connect();
    let pong = client.request(r#"{"op":"ping"}"#);
    assert_eq!(pong.get("ok").and_then(Json::as_bool), Some(true));
    client.send_raw(br#"{"op":"stats""#);
    let _ = client.stream.shutdown(std::net::Shutdown::Write);
    client.expect_eof();
    // An immediate disconnect with no bytes at all.
    let raw = TcpStream::connect(server().addr()).expect("connect");
    drop(raw);
    assert_alive();
}

#[test]
fn oversized_lines_get_a_structured_error_then_a_clean_close() {
    let mut client = Client::connect();
    let mut line = Vec::with_capacity(respec_serve::MAX_LINE_BYTES + 64);
    line.extend_from_slice(br#"{"op":"ping","id":""#);
    line.resize(respec_serve::MAX_LINE_BYTES + 32, b'x');
    line.extend_from_slice(b"\"}");
    client.send_raw(&line);
    client.send_raw(b"\n");
    let response = client.recv();
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        response.get("error").and_then(Json::as_str),
        Some("oversized")
    );
    client.expect_eof();
    assert_alive();
}

#[test]
fn a_dedicated_abused_server_still_shuts_down_cleanly() {
    let abused = Server::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    })
    .expect("dedicated server starts");
    let addr = abused.addr();
    let connect = || {
        let stream = TcpStream::connect(addr).expect("connect");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        (stream, reader)
    };
    // Garbage, a fragment, and a dead connection…
    let (mut garbage, mut garbage_reader) = connect();
    garbage
        .write_all(b"\x00\x01\x02 not json at all\n")
        .expect("send");
    let mut line = String::new();
    garbage_reader.read_line(&mut line).expect("recv");
    assert!(line.contains("\"ok\":false"), "garbage got: {line:?}");
    let (mut fragment, _) = connect();
    fragment.write_all(br#"{"op":"#).expect("send");
    // …an accepted tune whose client vanishes mid-flight (its reader
    // must notice the dead peer and release the waiter, not pin the
    // thread; the worker's answer to the dropped channel is discarded)…
    let (mut ghost, ghost_reader) = connect();
    ghost
        .write_all(
            b"{\"op\":\"tune\",\"client\":\"ghost\",\"app\":\"gaussian\",\"target\":\"a100\",\"totals\":[1]}\n",
        )
        .expect("send");
    drop((ghost, ghost_reader));
    // …then a clean shutdown, with the wedgeable connections still open.
    let (mut control, mut control_reader) = connect();
    control
        .write_all(b"{\"op\":\"shutdown\",\"id\":\"done\"}\n")
        .expect("send");
    let mut ack = String::new();
    control_reader.read_line(&mut ack).expect("recv");
    assert!(ack.contains("\"ok\":true"), "shutdown got: {ack:?}");
    // join() returns only after every thread exited; a wedged reader or
    // worker would hang the test here.
    abused.join();
}

#[test]
fn responses_do_not_wait_for_a_delayed_ack() {
    // A plain client: Nagle left on, each request sent in one write. A
    // response split over two segments would stall its second one until
    // this side's delayed ACK fires (≈ 40 ms on Linux).
    let stream = TcpStream::connect(server().addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let mut rtts_ms: Vec<f64> = (0..20)
        .map(|i| {
            let start = std::time::Instant::now();
            writer
                .write_all(format!("{{\"op\":\"ping\",\"id\":\"rtt{i}\"}}\n").as_bytes())
                .expect("send");
            let mut line = String::new();
            reader.read_line(&mut line).expect("recv");
            assert!(line.contains("\"ok\":true"), "ping got: {line:?}");
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    rtts_ms.sort_by(f64::total_cmp);
    let median = rtts_ms[rtts_ms.len() / 2];
    assert!(
        median < 20.0,
        "median ping round trip {median:.2} ms; all: {rtts_ms:?}"
    );
}
