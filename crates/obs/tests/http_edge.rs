//! Satellite: table-driven edge-case coverage for the daemon's
//! hardened HTTP/1.1 parser — the request-smuggling and
//! resource-exhaustion shapes a diagnosis daemon on a lab network
//! actually sees.

use scan_obs::http::{parse_request, HttpError, Limits};

fn parse(raw: &[u8]) -> Result<scan_obs::http::Request, HttpError> {
    let mut reader = raw;
    parse_request(&mut reader, &Limits::default())
}

struct Case {
    name: &'static str,
    raw: Vec<u8>,
    expect_status: u16,
    expect_message_contains: &'static str,
}

#[test]
fn rejection_table() {
    let long_target = format!(
        "GET /{} HTTP/1.1\r\n\r\n",
        "a".repeat(Limits::default().request_line)
    );
    let many_headers = {
        let mut raw = String::from("GET / HTTP/1.1\r\n");
        for i in 0..(Limits::default().headers + 1) {
            raw.push_str(&format!("X-Filler-{i}: {i}\r\n"));
        }
        raw.push_str("\r\n");
        raw
    };
    let cases = vec![
        Case {
            name: "chunked transfer-encoding",
            raw: b"POST /diagnose HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec(),
            expect_status: 501,
            expect_message_contains: "transfer encoding",
        },
        Case {
            name: "any transfer-encoding at all",
            raw: b"POST /diagnose HTTP/1.1\r\nTransfer-Encoding: gzip\r\n\r\n".to_vec(),
            expect_status: 501,
            expect_message_contains: "transfer encoding",
        },
        Case {
            name: "duplicate content-length (smuggling)",
            raw: b"POST /diagnose HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 5\r\n\r\nabcd"
                .to_vec(),
            expect_status: 400,
            expect_message_contains: "content-length",
        },
        Case {
            name: "CRLF injection in a header value",
            raw: b"GET / HTTP/1.1\r\nX-Trace: abc\rSet-Cookie: pwn\r\n\r\n".to_vec(),
            expect_status: 400,
            expect_message_contains: "header",
        },
        Case {
            name: "control byte in a header value",
            raw: b"GET / HTTP/1.1\r\nX-Trace: a\x0bb\r\n\r\n".to_vec(),
            expect_status: 400,
            expect_message_contains: "header",
        },
        Case {
            name: "oversized request line",
            raw: long_target.into_bytes(),
            expect_status: 414,
            expect_message_contains: "request line",
        },
        Case {
            name: "too many headers",
            raw: many_headers.into_bytes(),
            expect_status: 431,
            expect_message_contains: "head",
        },
        Case {
            name: "oversized declared body",
            raw: format!(
                "POST /diagnose HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                Limits::default().body + 1
            )
            .into_bytes(),
            expect_status: 413,
            expect_message_contains: "body",
        },
        Case {
            name: "non-numeric content-length",
            raw: b"POST / HTTP/1.1\r\nContent-Length: banana\r\n\r\n".to_vec(),
            expect_status: 400,
            expect_message_contains: "content-length",
        },
        Case {
            name: "negative content-length",
            raw: b"POST / HTTP/1.1\r\nContent-Length: -5\r\n\r\n".to_vec(),
            expect_status: 400,
            expect_message_contains: "content-length",
        },
        Case {
            name: "missing version token",
            raw: b"GET /\r\n\r\n".to_vec(),
            expect_status: 400,
            expect_message_contains: "version",
        },
        Case {
            name: "unsupported version",
            raw: b"GET / HTTP/2.0\r\n\r\n".to_vec(),
            expect_status: 400,
            expect_message_contains: "version",
        },
        Case {
            name: "lowercase method",
            raw: b"get / HTTP/1.1\r\n\r\n".to_vec(),
            expect_status: 400,
            expect_message_contains: "method",
        },
        Case {
            name: "target not starting with slash",
            raw: b"GET http//x HTTP/1.1\r\n\r\n".to_vec(),
            expect_status: 400,
            expect_message_contains: "target",
        },
        Case {
            name: "folded header continuation",
            raw: b"GET / HTTP/1.1\r\nX-A: 1\r\n  continued\r\n\r\n".to_vec(),
            expect_status: 400,
            expect_message_contains: "header",
        },
        Case {
            name: "truncated body",
            raw: b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc".to_vec(),
            expect_status: 400,
            expect_message_contains: "body",
        },
    ];
    for case in cases {
        let err = parse(&case.raw).expect_err(case.name);
        assert_eq!(
            err.status(),
            Some(case.expect_status),
            "{}: got {err:?}",
            case.name
        );
        let message = err.message().to_ascii_lowercase();
        assert!(
            message.contains(case.expect_message_contains),
            "{}: message `{message}` lacks `{}`",
            case.name,
            case.expect_message_contains
        );
    }
}

#[test]
fn well_formed_requests_parse() {
    let request =
        parse(b"POST /diagnose?x=1 HTTP/1.1\r\nHost: h\r\nContent-Length: 4\r\n\r\n{\"a\"")
            .expect("valid POST");
    assert_eq!(request.method, "POST");
    assert_eq!(request.path(), "/diagnose");
    assert_eq!(request.target, "/diagnose?x=1");
    assert_eq!(request.header("host"), Some("h"));
    assert_eq!(request.header("Host"), Some("h"));
    assert_eq!(request.body, b"{\"a\"");

    let get = parse(b"GET /healthz HTTP/1.0\r\n\r\n").expect("valid GET, HTTP/1.0 accepted");
    assert_eq!(get.method, "GET");
    assert!(get.body.is_empty());
}

#[test]
fn closed_and_empty_connections_are_silent() {
    assert_eq!(parse(b"").expect_err("empty"), HttpError::Closed);
    assert_eq!(HttpError::Closed.status(), None, "nothing to answer");
}

#[test]
fn body_longer_than_declared_is_rejected() {
    let err = parse(b"POST / HTTP/1.1\r\nContent-Length: 2\r\n\r\nabcd").expect_err("extra bytes");
    assert_eq!(err.status(), Some(400));
}

#[test]
fn custom_limits_are_honored() {
    let limits = Limits {
        body: 8,
        ..Limits::default()
    };
    let raw: &[u8] = b"POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\n123456789";
    let mut reader = raw;
    let err = parse_request(&mut reader, &limits).expect_err("over custom limit");
    assert_eq!(err, HttpError::BodyTooLarge);
}
