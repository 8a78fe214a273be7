//! Generated-input robustness for `scan_obs::http::parse_request`, the
//! one HTTP/1.1 request reader behind both `--serve-metrics` and
//! `scanbistd`.
//!
//! A grammar-aware mutator starts from well-formed GET/HEAD/POST
//! requests and the `http_edge.rs` rejection shapes. It duplicates and
//! folds headers, rewrites request-line tokens and `Content-Length`,
//! grows the header block, edits the body, and then flips, inserts and
//! deletes bytes and truncates. Whatever comes out, the parser must:
//!
//! * not panic, and return `Ok` or an `HttpError` whose status is one
//!   of `None`, 400, 408, 413, 414, 431 or 501;
//! * read at most `head + 1024 + body` bytes, even from a peer that
//!   never stops sending (and no body bytes unless it accepts one);
//! * turn a peer that stalls mid-request (`WouldBlock`/`TimedOut`)
//!   into `HttpError::Timeout`.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::io::{self, Read};

use scan_obs::http::{parse_request, HttpError, Limits, Request};
use scan_rng::testkit::{Gen, Runner};

/// Well-formed requests: every strict prefix of these needs more bytes.
const WELL_FORMED: &[&[u8]] = &[
    b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n",
    b"GET /healthz?verbose=1 HTTP/1.0\r\n\r\n",
    b"HEAD /metrics HTTP/1.1\r\nHost: x\r\nAccept: */*\r\n\r\n",
    b"POST /diagnose HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello",
    b"POST /diagnose?x=1 HTTP/1.1\r\nHost: h\r\nContent-Length: 4\r\n\r\n{\"a\"",
];

/// The `http_edge.rs` rejection shapes.
const REJECTED: &[&[u8]] = &[
    b"POST /diagnose HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
    b"POST /diagnose HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 5\r\n\r\nabcd",
    b"GET / HTTP/1.1\r\nX-Trace: abc\rSet-Cookie: pwn\r\n\r\n",
    b"GET / HTTP/1.1\r\nX-Trace: a\x0bb\r\n\r\n",
    b"POST / HTTP/1.1\r\nContent-Length: banana\r\n\r\n",
    b"POST / HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
    b"GET /\r\n\r\n",
    b"GET / HTTP/2.0\r\n\r\n",
    b"get / HTTP/1.1\r\n\r\n",
    b"GET http//x HTTP/1.1\r\n\r\n",
    b"GET / HTTP/1.1\r\nX-A: 1\r\n  continued\r\n\r\n",
    b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc",
    b"POST / HTTP/1.1\r\nContent-Length: 2\r\n\r\nabcd",
];

/// Tight limits, so mutations cross every bound often.
const SMALL: Limits = Limits {
    request_line: 64,
    head: 256,
    body: 512,
    headers: 6,
};

/// The size of `read_head`'s read chunk: how far past the head limit a
/// single read may go.
const CHUNK: usize = 1024;

fn limits(g: &mut Gen) -> Limits {
    if g.bool("small limits") {
        SMALL
    } else {
        Limits::default()
    }
}

fn seed(g: &mut Gen) -> Vec<u8> {
    let all: Vec<&[u8]> = WELL_FORMED.iter().chain(REJECTED).copied().collect();
    g.pick("seed", &all).to_vec()
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// Applies one to four structural edits to the seed's head lines and
/// body, then up to three byte-level edits to the joined request.
fn mutate(g: &mut Gen, seed: &[u8], limits: &Limits) -> Vec<u8> {
    let split = find(seed, b"\r\n\r\n").unwrap_or(seed.len());
    let head = seed.get(..split).unwrap_or(seed);
    let mut body = seed.get(split + 4..).unwrap_or(&[]).to_vec();
    let mut lines: Vec<Vec<u8>> = head.split(|&b| b == b'\n').map(<[u8]>::to_vec).collect();
    for line in &mut lines {
        if line.last() == Some(&b'\r') {
            line.pop();
        }
    }
    for _ in 0..g.usize("structural edits", 1, 4) {
        let at = g.usize("line", 1, lines.len());
        match g.usize("edit", 0, 6) {
            0 if lines.len() > 1 => {
                let copy = lines[g.usize("duplicate", 1, lines.len() - 1)].clone();
                lines.insert(at, copy);
            }
            1 => {
                let fold = g.pick("fold", &[" continued", "\tcontinued", " ", "\t"]);
                lines.insert(at, fold.as_bytes().to_vec());
            }
            2 => {
                let request_line = lines.remove(0);
                lines.retain(|l| !l.to_ascii_lowercase().starts_with(b"content-length"));
                lines.insert(0, request_line);
                let forms = [
                    body.len().to_string(),
                    (body.len() + 1).to_string(),
                    body.len().saturating_sub(1).to_string(),
                    limits.body.to_string(),
                    (limits.body + 1).to_string(),
                    String::new(),
                    format!(" {} ", body.len()),
                    format!("+{}", body.len()),
                    format!("00{}", body.len()),
                    "18446744073709551616".to_owned(),
                    "0x10".to_owned(),
                    "1e3".to_owned(),
                    "5, 5".to_owned(),
                ];
                let form = g.pick("content-length", &forms);
                let name = g.pick(
                    "name",
                    &["Content-Length", "content-length", "CONTENT-LENGTH"],
                );
                lines.insert(at.min(lines.len()), format!("{name}: {form}").into_bytes());
            }
            3 => {
                let header = g.pick(
                    "header",
                    &[
                        "Transfer-Encoding: chunked",
                        "transfer-encoding: identity",
                        "Host: x",
                        "Bad Name: x",
                        ": empty name",
                        "no colon",
                        "X-Ctl: a\x7fb",
                        "X-Tab: a\tb",
                        "X-Long: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa",
                    ],
                );
                lines.insert(at, header.as_bytes().to_vec());
            }
            4 => {
                for i in 0..g.usize("filler headers", 1, limits.headers + 2) {
                    lines.insert(at, format!("X-Filler-{i}: {i}").into_bytes());
                }
            }
            5 => {
                let tokens = [
                    "GET",
                    "HEAD",
                    "POST",
                    "get",
                    "",
                    "G\0T",
                    "/",
                    "*",
                    "http://x/",
                    "/a b",
                    "HTTP/1.1",
                    "HTTP/1.0",
                    "HTTP/1.2",
                    "HTTP/2.0",
                    "http/1.1",
                    "HTTP/1.1 x",
                ];
                let mut parts: Vec<String> = String::from_utf8_lossy(&lines[0])
                    .split(' ')
                    .map(str::to_owned)
                    .collect();
                let slot = g.usize("token", 0, parts.len() - 1);
                parts[slot] = if g.bool("long token") {
                    format!("/{}", "a".repeat(limits.request_line))
                } else {
                    g.pick("replacement", &tokens).to_owned()
                };
                lines[0] = parts.join(" ").into_bytes();
            }
            _ => {
                let len = g.usize("body length", 0, body.len() + 8);
                body.resize(len, b'z');
            }
        }
    }
    let mut raw = lines.join(&b"\r\n"[..]);
    raw.extend_from_slice(b"\r\n\r\n");
    raw.extend_from_slice(&body);
    for _ in 0..g.usize("byte edits", 0, 3) {
        if raw.is_empty() {
            break;
        }
        let at = g.usize("at", 0, raw.len() - 1);
        match g.usize("byte edit", 0, 3) {
            0 => raw[at] ^= 1 << g.usize("bit", 0, 7),
            1 => raw.insert(
                at,
                g.pick(
                    "byte",
                    &[b'\r', b'\n', b' ', b'\t', b':', 0, 0x7f, 0xff, b'9'],
                ),
            ),
            2 => {
                raw.remove(at);
            }
            _ => raw.truncate(at),
        }
    }
    raw
}

fn check(result: &Result<Request, HttpError>, limits: &Limits) {
    match result {
        Ok(request) => {
            assert!(!request.method.is_empty(), "{request:?}");
            assert!(
                request.method.bytes().all(|b| b.is_ascii_uppercase()),
                "{request:?}"
            );
            assert!(request.target.starts_with('/'), "{request:?}");
            assert!(request.headers.len() <= limits.headers, "{request:?}");
            assert!(request.header("transfer-encoding").is_none(), "{request:?}");
            let declared = request.header("content-length").map_or(0, |v| {
                assert!(v.bytes().all(|b| b.is_ascii_digit()), "{request:?}");
                v.parse::<usize>().expect("accepted length parses")
            });
            assert_eq!(request.body.len(), declared, "{request:?}");
            assert!(declared <= limits.body, "{request:?}");
        }
        Err(e) => assert!(
            matches!(e.status(), None | Some(400 | 408 | 413 | 414 | 431 | 501)),
            "{e:?} has an unpinned status {:?}",
            e.status()
        ),
    }
}

/// Serves `data` in reads of at most `max` bytes, then either EOF or,
/// with `stall`, `WouldBlock`/`TimedOut` forever.
struct Trickle<'a> {
    data: &'a [u8],
    max: usize,
    stall: Option<io::ErrorKind>,
}

impl Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.data.is_empty() {
            return match self.stall {
                Some(kind) => Err(kind.into()),
                None => Ok(0),
            };
        }
        let n = buf.len().min(self.max).min(self.data.len());
        let (now, rest) = self.data.split_at(n);
        buf[..n].copy_from_slice(now);
        self.data = rest;
        Ok(n)
    }
}

/// Serves `prefix`, then repeats `filler` forever, counting every byte
/// handed out.
struct Endless<'a> {
    prefix: &'a [u8],
    filler: &'a [u8],
    offset: usize,
    max: usize,
    served: usize,
}

impl Read for Endless<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = buf.len().min(self.max);
        for slot in &mut buf[..n] {
            *slot = match self.prefix.get(self.offset) {
                Some(&b) => b,
                None => self.filler[(self.offset - self.prefix.len()) % self.filler.len()],
            };
            self.offset += 1;
        }
        self.served += n;
        Ok(n)
    }
}

#[test]
fn mutated_requests_parse_or_fail_with_a_pinned_status() {
    let seen = RefCell::new(BTreeSet::new());
    Runner::new(3000).run("http.mutated_requests", |g| {
        let limits = limits(g);
        let seed = seed(g);
        let raw = mutate(g, &seed, &limits);
        let whole = parse_request(&mut &raw[..], &limits);
        check(&whole, &limits);
        assert_ne!(whole, Err(HttpError::Timeout), "a byte slice never stalls");
        seen.borrow_mut()
            .insert(whole.as_ref().map_or_else(|e| e.status(), |_| Some(200)));
        // Short reads change where chunk boundaries fall, never the
        // invariants.
        let max = g.usize("read size", 1, 2 * CHUNK);
        let mut trickle = Trickle {
            data: &raw,
            max,
            stall: None,
        };
        let chunked = parse_request(&mut trickle, &limits);
        check(&chunked, &limits);
        assert_ne!(chunked, Err(HttpError::Timeout), "an EOF is not a stall");
    });
    // The mutator must reach every outcome, or the run proves little.
    let want = [
        None,
        Some(200),
        Some(400),
        Some(413),
        Some(414),
        Some(431),
        Some(501),
    ];
    assert_eq!(*seen.borrow(), BTreeSet::from(want));
}

#[test]
fn an_endless_peer_is_read_only_up_to_the_limits() {
    Runner::new(600).run("http.endless_peer", |g| {
        let limits = limits(g);
        let seed = seed(g);
        let raw = mutate(g, &seed, &limits);
        let cut = g.usize("cut", 0, raw.len());
        let filler = g.pick(
            "filler",
            &[
                &b"a"[..],
                b"X-F: 1\r\n",
                b"\r\n",
                b" ",
                b"\0\xff",
                b"GET / HTTP/1.1\r\n",
            ],
        );
        let mut peer = Endless {
            prefix: &raw[..cut],
            filler,
            offset: 0,
            max: g.usize("read size", 1, 4 * CHUNK),
            served: 0,
        };
        let result = parse_request(&mut peer, &limits);
        check(&result, &limits);
        // At most one read past the head limit, then exactly the
        // declared body: within `head + 1024 + body`, and tight enough
        // that a looser head limit shows.
        let body = result.as_ref().map_or(0, |request| request.body.len());
        let bound = limits.head + CHUNK + body;
        assert!(
            peer.served <= bound,
            "read {} bytes, bound {bound} ({result:?})",
            peer.served
        );
    });
}

#[test]
fn a_peer_that_stalls_mid_request_times_out() {
    Runner::new(500).run("http.stalled_peer", |g| {
        let raw = g.pick("request", WELL_FORMED);
        let limits = limits(g);
        assert!(
            parse_request(&mut &raw[..], &limits).is_ok(),
            "seed must be well-formed"
        );
        let cut = g.usize("cut", 0, raw.len() - 1);
        let kind = g.pick(
            "stall",
            &[io::ErrorKind::WouldBlock, io::ErrorKind::TimedOut],
        );
        let mut peer = Trickle {
            data: &raw[..cut],
            max: g.usize("read size", 1, 64),
            stall: Some(kind),
        };
        assert_eq!(
            parse_request(&mut peer, &limits),
            Err(HttpError::Timeout),
            "stalled after {cut} of {} bytes",
            raw.len()
        );
    });
}
