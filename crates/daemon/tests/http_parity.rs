//! One parser, two servers: every GET-shaped rejection from the
//! `scan_obs::http` edge-case table, sent over a real socket to a
//! `--serve-metrics` endpoint (`MetricsServer`) and to `scanbistd`
//! (`Daemon`), must get the same status from both.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use scan_daemon::{Daemon, DaemonConfig};
use scan_obs::http::Limits;
use scan_obs::serve::MetricsServer;

/// Sends `raw` verbatim and returns the response status.
fn status(addr: SocketAddr, raw: &[u8]) -> u16 {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    stream.write_all(raw).expect("send");
    let mut response = Vec::new();
    let _ = stream.read_to_end(&mut response);
    let text = String::from_utf8_lossy(&response);
    text.strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.get(..3))
        .and_then(|code| code.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {text:?}"))
}

/// `(name, request, status)` for each GET-shaped rejection.
fn cases() -> Vec<(&'static str, Vec<u8>, u16)> {
    let limits = Limits::default();
    let long_target = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(limits.request_line));
    let mut many_headers = String::from("GET /metrics HTTP/1.1\r\n");
    for i in 0..=limits.headers {
        many_headers.push_str(&format!("X-Filler-{i}: {i}\r\n"));
    }
    many_headers.push_str("\r\n");
    vec![
        (
            "transfer-encoding",
            b"GET /metrics HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec(),
            501,
        ),
        (
            "duplicate content-length",
            b"GET /metrics HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 5\r\n\r\nabcd".to_vec(),
            400,
        ),
        (
            "CRLF injection",
            b"GET /metrics HTTP/1.1\r\nX-Trace: abc\rSet-Cookie: pwn\r\n\r\n".to_vec(),
            400,
        ),
        (
            "control byte",
            b"GET /metrics HTTP/1.1\r\nX-Trace: a\x0bb\r\n\r\n".to_vec(),
            400,
        ),
        ("request line too long", long_target.into_bytes(), 414),
        ("too many headers", many_headers.into_bytes(), 431),
        (
            "bad version",
            b"GET /metrics HTTP/2.0\r\n\r\n".to_vec(),
            400,
        ),
        (
            "lowercase method",
            b"get /metrics HTTP/1.1\r\n\r\n".to_vec(),
            400,
        ),
        (
            "relative target",
            b"GET metrics HTTP/1.1\r\n\r\n".to_vec(),
            400,
        ),
        (
            "folded header",
            b"GET /metrics HTTP/1.1\r\nX-A: 1\r\n  continued\r\n\r\n".to_vec(),
            400,
        ),
    ]
}

#[test]
fn both_servers_reject_each_malformed_get_with_the_same_status() {
    let metrics = MetricsServer::start("127.0.0.1:0").expect("bind metrics");
    let daemon = Daemon::start(DaemonConfig::default()).expect("start daemon");
    for (name, raw, expected) in cases() {
        let from_metrics = status(metrics.addr(), &raw);
        let from_daemon = status(daemon.addr(), &raw);
        assert_eq!(
            (from_metrics, from_daemon),
            (expected, expected),
            "{name}: (MetricsServer, Daemon)"
        );
    }
    // The well-formed control case reaches the shared route on both.
    let ok = b"GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n";
    assert_eq!(status(metrics.addr(), ok), 200);
    assert_eq!(status(daemon.addr(), ok), 200);
    daemon.shutdown();
    metrics.stop();
}
