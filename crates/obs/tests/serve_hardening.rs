//! Raw-socket hardening tests for the metrics endpoint: slow-loris
//! timeout behaviour, oversized-body rejection, `HEAD` and other
//! methods, and the `/readyz` drain flip. Everything here speaks
//! HTTP/1.1 by hand over a `TcpStream` — no client library, same as a
//! hostile peer would.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use scan_obs::serve::{self, MetricsServer};

/// Sends `request` verbatim and returns the full response text.
fn raw_request(addr: std::net::SocketAddr, request: &str) -> String {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    conn.write_all(request.as_bytes()).expect("send");
    let mut response = String::new();
    let _ = conn.read_to_string(&mut response);
    response
}

#[test]
fn slow_loris_connection_is_cut_off_with_408_and_server_survives() {
    let server = MetricsServer::start("127.0.0.1:0").expect("bind ephemeral");
    let addr = server.addr();

    // Connect and send nothing at all: the read timeout must cut the
    // connection off with a 408 instead of holding the slot forever.
    let start = Instant::now();
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut response = String::new();
    let _ = conn.read_to_string(&mut response);
    let waited = start.elapsed();
    assert!(
        response.starts_with("HTTP/1.1 408"),
        "expected 408 for a silent client, got: {response:?}"
    );
    assert!(
        waited < Duration::from_secs(8),
        "slow-loris guard too slow: {waited:?}"
    );

    // The server must still answer honest clients afterwards.
    let health = raw_request(addr, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
    assert!(health.starts_with("HTTP/1.1 200"), "{health}");
    server.stop();
}

#[test]
fn half_written_request_times_out_instead_of_hanging() {
    let server = MetricsServer::start("127.0.0.1:0").expect("bind ephemeral");
    let addr = server.addr();
    // A request head that never finishes (no terminating CRLFCRLF).
    let response = raw_request(addr, "GET /metrics HTTP/1.1\r\nHost: x\r\n");
    assert!(
        response.starts_with("HTTP/1.1 408"),
        "unterminated head should time out with 408, got: {response:?}"
    );
    server.stop();
}

#[test]
fn declared_body_over_the_limit_is_rejected_with_413() {
    let server = MetricsServer::start("127.0.0.1:0").expect("bind ephemeral");
    let addr = server.addr();
    let oversized = serve::DEFAULT_BODY_LIMIT + 1;
    let response = raw_request(
        addr,
        &format!("GET /metrics HTTP/1.1\r\nHost: x\r\nContent-Length: {oversized}\r\n\r\n"),
    );
    assert!(
        response.starts_with("HTTP/1.1 413"),
        "oversized body must be refused, got: {response:?}"
    );
    // A small declared body on a GET is read and the route answered.
    let response = raw_request(
        addr,
        "GET /healthz HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n\r\nhi",
    );
    assert!(response.starts_with("HTTP/1.1 200"), "{response}");
    server.stop();
}

#[test]
fn malformed_content_length_is_a_bad_request() {
    let server = MetricsServer::start("127.0.0.1:0").expect("bind ephemeral");
    let addr = server.addr();
    let response = raw_request(
        addr,
        "GET /metrics HTTP/1.1\r\nHost: x\r\nContent-Length: banana\r\n\r\n",
    );
    assert!(response.starts_with("HTTP/1.1 400"), "{response}");
    server.stop();
}

#[test]
fn head_answers_with_the_get_head_and_no_body() {
    let server = MetricsServer::start("127.0.0.1:0").expect("bind ephemeral");
    let addr = server.addr();
    // `/alerts.json` is stable here (no SLO rules are installed);
    // `/readyz` is not, as another test flips readiness.
    let get = raw_request(addr, "GET /alerts.json HTTP/1.1\r\nHost: x\r\n\r\n");
    let head = raw_request(addr, "HEAD /alerts.json HTTP/1.1\r\nHost: x\r\n\r\n");
    let (get_head, get_body) = get.split_once("\r\n\r\n").expect("GET head");
    let (head_head, head_body) = head.split_once("\r\n\r\n").expect("HEAD head");
    assert_eq!(
        head_head, get_head,
        "HEAD must carry the GET status and headers"
    );
    assert!(head_head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(
        head_head.contains(&format!("Content-Length: {}", get_body.len())),
        "{head}"
    );
    assert_eq!(head_body, "", "nothing may follow the blank line");

    let metrics = raw_request(addr, "HEAD /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
    assert!(metrics.starts_with("HTTP/1.1 200"), "{metrics}");
    assert!(metrics.ends_with("\r\n\r\n"), "{metrics}");

    let post = raw_request(addr, "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
    assert!(post.starts_with("HTTP/1.1 405"), "{post}");
    assert!(post.contains("Allow: GET, HEAD\r\n"), "{post}");
    server.stop();
}

#[test]
fn readyz_flips_to_503_while_draining() {
    let server = MetricsServer::start("127.0.0.1:0").expect("bind ephemeral");
    let addr = server.addr();
    assert!(serve::is_ready(), "process starts ready");
    let ready = raw_request(addr, "GET /readyz HTTP/1.1\r\nHost: x\r\n\r\n");
    assert!(ready.starts_with("HTTP/1.1 200"), "{ready}");
    assert!(ready.contains("\"status\":\"ready\""), "{ready}");

    serve::set_ready(false);
    let draining = raw_request(addr, "GET /readyz HTTP/1.1\r\nHost: x\r\n\r\n");
    assert!(draining.starts_with("HTTP/1.1 503"), "{draining}");
    assert!(draining.contains("\"status\":\"draining\""), "{draining}");

    // Liveness is unaffected by readiness: /healthz keeps saying ok.
    let health = raw_request(addr, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
    assert!(health.starts_with("HTTP/1.1 200"), "{health}");

    serve::set_ready(true);
    server.stop();
}
