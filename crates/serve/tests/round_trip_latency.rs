//! Round-trip latency against an in-process `ised` server: a sequence of
//! tiny requests on one connection must not pay a delayed-ACK stall
//! (~40 ms on Linux) per response. A response frame split over two
//! sends on a Nagle socket waits for the client's delayed ACK, which
//! puts 50 pings at about 2 s; sent whole on a no-delay socket they
//! take a few milliseconds.
//!
//! The client deliberately keeps Nagle on and writes each request in
//! one call, so only the server's write discipline is under test.

use isegen_serve::json::{self, Json};
use isegen_serve::{Server, ServerConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

const PINGS: usize = 50;
const BUDGET: Duration = Duration::from_secs(1);

/// Runs `client` against a fresh quiet server and stops the server
/// afterwards, even when the client panics.
fn with_server(client: impl FnOnce(TcpStream)) {
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            verbose: false,
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port");
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.run());
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let conn = TcpStream::connect(server.local_addr()).expect("connect");
            conn.set_read_timeout(Some(Duration::from_secs(10)))
                .expect("timeout");
            client(conn);
        }));
        server.request_stop();
        handle.join().expect("server thread").expect("server run");
        if let Err(panic) = outcome {
            std::panic::resume_unwind(panic);
        }
    });
}

#[test]
fn fifty_line_pings_take_under_a_second() {
    with_server(|mut conn| {
        let mut reader = BufReader::new(conn.try_clone().expect("clone"));
        let mut line = String::new();
        let start = Instant::now();
        for _ in 0..PINGS {
            conn.write_all(b"{\"op\":\"ping\"}\n").expect("send");
            line.clear();
            reader.read_line(&mut line).expect("receive");
            let pong = json::parse(line.trim()).expect("response is JSON");
            assert_eq!(pong.get("op").and_then(Json::as_str), Some("pong"));
        }
        let elapsed = start.elapsed();
        assert!(
            elapsed < BUDGET,
            "{PINGS} line-framed pings took {elapsed:?}: a response is stalling on delayed ACK"
        );
    });
}

#[test]
fn fifty_prefixed_pings_take_under_a_second() {
    with_server(|mut conn| {
        let mut reader = BufReader::new(conn.try_clone().expect("clone"));
        let payload = "{\n\"op\":\"ping\"\n}";
        let request = format!("#{}\n{payload}\n", payload.len());
        let mut header = String::new();
        let start = Instant::now();
        for _ in 0..PINGS {
            conn.write_all(request.as_bytes()).expect("send");
            header.clear();
            reader.read_line(&mut header).expect("read header");
            let len: usize = header
                .trim()
                .strip_prefix('#')
                .and_then(|digits| digits.parse().ok())
                .expect("prefixed response header");
            let mut body = vec![0u8; len + 1];
            reader.read_exact(&mut body).expect("read body");
            assert_eq!(body.pop(), Some(b'\n'));
            let pong = json::parse(&String::from_utf8_lossy(&body)).expect("payload is JSON");
            assert_eq!(pong.get("op").and_then(Json::as_str), Some("pong"));
        }
        let elapsed = start.elapsed();
        assert!(
            elapsed < BUDGET,
            "{PINGS} prefixed pings took {elapsed:?}: a response is stalling on delayed ACK"
        );
    });
}
