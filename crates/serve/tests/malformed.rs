//! Adversarial-input suite for `crowdtz-serve` (ISSUE 9, satellite):
//! every malformed request the framing layer can meet must produce the
//! *right* 4xx/5xx (or silence when the peer is already gone), close the
//! connection exactly when framing is lost, and leave the server — and
//! every tenant's engine — fully serviceable.
//!
//! The suite talks raw bytes on purpose ([`HttpClient::send_raw`]):
//! nothing here could be produced by the well-behaved client methods.
//! Two invariants are re-asserted after every attack:
//!
//! * `GET /healthz` answers 200 from a fresh connection;
//! * `crowdtz_serve_panics_total 0` — the connection loop's
//!   `catch_unwind` backstop never fired.
//!
//! Runs clean under `CROWDTZ_LOG=debug` (CI does exactly that).

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::Duration;

use crowdtz_core::{Batch, ConcurrentStreamingPipeline, GeolocationPipeline};
use crowdtz_serve::{serve, HttpClient, ServeConfig, ServerHandle};
use crowdtz_time::Timestamp;
use proptest::prelude::*;
use serde_json::json;

/// Small enough that the oversized-Content-Length case is cheap to
/// state, large enough for every legitimate body the suite sends.
const MAX_BODY: usize = 64 * 1024;

fn start() -> ServerHandle {
    let config = ServeConfig {
        workers: 2,
        max_body_bytes: MAX_BODY,
        read_timeout: Some(Duration::from_secs(2)),
        ..ServeConfig::default()
    };
    serve(config, None).expect("bind loopback")
}

/// The two post-attack invariants: serviceable, and zero caught panics.
fn assert_unharmed(handle: &ServerHandle) {
    let mut client = HttpClient::connect(handle.addr()).expect("fresh connection");
    let health = client.get("/healthz").expect("healthz");
    assert_eq!(health.status, 200, "server must stay serviceable");
    let metrics = client.get("/metrics").expect("metrics");
    let text = String::from_utf8_lossy(&metrics.body).into_owned();
    assert!(
        text.contains("crowdtz_serve_panics_total 0"),
        "a handler panicked: {}",
        text.lines()
            .find(|l| l.contains("panics"))
            .unwrap_or("panics series missing")
    );
}

/// A deterministic placeable workload: 8 users, 12 posts each, clustered
/// around one home hour.
fn workload() -> Vec<(String, Vec<Timestamp>)> {
    (0..8i64)
        .map(|u| {
            let posts = (0..12i64)
                .map(|p| {
                    let hour = (21 + (u * 5 + p * 3) % 4 - 2).rem_euclid(24);
                    Timestamp::from_secs(p * 86_400 + hour * 3_600 + u)
                })
                .collect();
            (format!("user{u:02}"), posts)
        })
        .collect()
}

fn ingest_body(deltas: &[(String, Vec<Timestamp>)]) -> serde_json::Value {
    let entries: Vec<serde_json::Value> = deltas
        .iter()
        .map(|(user, posts)| {
            let secs: Vec<i64> = posts.iter().map(|t| t.as_secs()).collect();
            json!({"user": user, "posts": secs})
        })
        .collect();
    json!({ "deltas": entries })
}

/// Every framing violation, the status it owes, and proof the server
/// closes the connection afterwards (resynchronizing inside a stream it
/// no longer understands is how request smuggling happens).
#[test]
fn framing_violations_get_the_right_status_and_a_close() {
    let handle = start();
    let long_header = format!(
        "GET /healthz HTTP/1.1\r\nX-Big: {}\r\n\r\n",
        "a".repeat(9_000)
    );
    let many_headers = format!(
        "GET /healthz HTTP/1.1\r\n{}\r\n",
        (0..101).fold(String::new(), |mut acc, i| {
            acc.push_str(&format!("X-H{i}: v\r\n"));
            acc
        })
    );
    let oversized = format!(
        "POST /v1/tenants/x/ingest HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        MAX_BODY + 1
    );
    let cases: Vec<(&str, Vec<u8>, u16)> = vec![
        ("not http at all", b"nonsense\r\n\r\n".to_vec(), 400),
        (
            "unsupported version",
            b"GET /healthz HTTP/9.9\r\n\r\n".to_vec(),
            400,
        ),
        (
            "lowercase method token",
            b"get /healthz HTTP/1.1\r\n\r\n".to_vec(),
            400,
        ),
        (
            "unparseable content-length",
            b"POST /v1/tenants HTTP/1.1\r\nContent-Length: banana\r\n\r\n".to_vec(),
            400,
        ),
        (
            "negative content-length",
            b"POST /v1/tenants HTTP/1.1\r\nContent-Length: -5\r\n\r\n".to_vec(),
            400,
        ),
        (
            "header line without a colon",
            b"GET /healthz HTTP/1.1\r\nNoColonHere\r\n\r\n".to_vec(),
            400,
        ),
        (
            "space inside header name",
            b"GET /healthz HTTP/1.1\r\nBad Name: v\r\n\r\n".to_vec(),
            400,
        ),
        ("oversized header line", long_header.into_bytes(), 400),
        ("more than 100 headers", many_headers.into_bytes(), 400),
        (
            "chunked transfer-encoding",
            b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec(),
            501,
        ),
        ("content-length beyond the cap", oversized.into_bytes(), 413),
        (
            "non-utf8 request head",
            b"GET /\xff\xfe HTTP/1.1\r\n\r\n".to_vec(),
            400,
        ),
    ];
    for (name, bytes, want) in cases {
        let mut client = HttpClient::connect(handle.addr()).expect("connect");
        client.send_raw(&bytes).expect("send");
        let response = client.read_response(false).expect(name);
        assert_eq!(response.status, want, "{name}");
        assert_eq!(
            response.header("connection"),
            Some("close"),
            "{name}: parse-layer errors must close"
        );
        assert!(
            client.get("/healthz").is_err(),
            "{name}: connection must actually be closed"
        );
    }
    assert_unharmed(&handle);
    handle.shutdown().expect("shutdown");
}

/// A peer that dies mid-request gets silence, not a response — and the
/// worker moves on to the next connection unharmed.
#[test]
fn mid_request_disconnects_get_silence_and_harm_nothing() {
    let handle = start();
    let partials: [&[u8]; 3] = [
        // EOF inside the request line.
        b"POST /v1/tenants/alpha/in",
        // EOF between headers.
        b"POST /v1/tenants/alpha/ingest HTTP/1.1\r\nContent-Len",
        // EOF inside a declared body.
        b"POST /v1/tenants/alpha/ingest HTTP/1.1\r\nContent-Length: 50\r\n\r\n{\"del",
    ];
    for partial in partials {
        let mut stream = TcpStream::connect(handle.addr()).expect("connect");
        stream.write_all(partial).expect("partial write");
        stream.shutdown(Shutdown::Write).expect("half-close");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        let mut reply = Vec::new();
        let _ = stream.read_to_end(&mut reply);
        assert!(
            reply.is_empty(),
            "truncated request must get no response, got {:?}",
            String::from_utf8_lossy(&reply)
        );
    }
    assert_unharmed(&handle);
    handle.shutdown().expect("shutdown");
}

/// Application-layer rejections consumed their body, so framing is
/// intact and the connection stays open — one connection survives the
/// whole gauntlet and still serves a 200 at the end.
#[test]
fn application_errors_keep_the_connection_open() {
    let handle = start();
    let mut client = HttpClient::connect(handle.addr()).expect("connect");
    let created = client
        .post_json(
            "/v1/tenants/alpha",
            &json!({"grid": "hourly", "min_posts": 3}),
        )
        .expect("create");
    assert_eq!(created.status, 201);

    // (method, path, body, expected status)
    let cases: Vec<(&str, &str, Option<&[u8]>, u16)> = vec![
        // Duplicate tenant.
        ("POST", "/v1/tenants/alpha", Some(b"{}"), 409),
        // Names that would escape the durable root.
        ("POST", "/v1/tenants/..evil", Some(b"{}"), 400),
        ("POST", "/v1/tenants/bad!name", Some(b"{}"), 400),
        // Durable tenant on a server with no durable root.
        (
            "POST",
            "/v1/tenants/beta",
            Some(br#"{"durable": true}"#),
            503,
        ),
        // Config that isn't an object / has a bad grid.
        ("POST", "/v1/tenants/gamma", Some(b"[1,2]"), 400),
        ("POST", "/v1/tenants/gamma", Some(br#"{"grid": 25}"#), 400),
        // Ingest: unknown tenant, non-JSON, JSON of the wrong shape.
        ("POST", "/v1/tenants/ghost/ingest", Some(b"{}"), 404),
        ("POST", "/v1/tenants/alpha/ingest", Some(b"not json"), 400),
        ("POST", "/v1/tenants/alpha/ingest", Some(b"{}"), 400),
        (
            "POST",
            "/v1/tenants/alpha/ingest",
            Some(br#"{"deltas": [{"user": 7, "posts": []}]}"#),
            400,
        ),
        (
            "POST",
            "/v1/tenants/alpha/ingest",
            Some(br#"{"deltas": [{"user": "u", "posts": ["x"]}]}"#),
            400,
        ),
        // Wrong method on known paths.
        ("DELETE", "/healthz", None, 405),
        ("POST", "/metrics", Some(b"{}"), 405),
        ("GET", "/v1/tenants/alpha/ingest", None, 405),
        // Unknown paths and bad query parameters.
        ("GET", "/v1/nope", None, 404),
        ("GET", "/v1/tenants/alpha/drift?top=banana", None, 400),
        ("GET", "/v1/tenants/ghost/snapshot", None, 404),
        // Nothing published yet on a real tenant.
        ("GET", "/v1/tenants/alpha/snapshot", None, 404),
    ];
    for (method, path, body, want) in cases {
        let response = client
            .request(method, path, body)
            .unwrap_or_else(|e| panic!("{method} {path}: {e}"));
        assert_eq!(response.status, want, "{method} {path}");
        if want == 405 {
            assert!(
                response.header("allow").is_some(),
                "{method} {path}: 405 must carry Allow"
            );
        }
        assert_ne!(
            response.header("connection"),
            Some("close"),
            "{method} {path}: application errors must not close"
        );
    }
    // The same connection still works.
    let health = client.get("/healthz").expect("healthz after gauntlet");
    assert_eq!(health.status, 200);
    assert_unharmed(&handle);
    handle.shutdown().expect("shutdown");
}

/// Pipelined requests — including a rejected one — are answered in
/// order on one connection.
#[test]
fn pipelined_requests_are_answered_in_order() {
    let handle = start();
    let mut client = HttpClient::connect(handle.addr()).expect("connect");
    client
        .send_raw(
            b"GET /healthz HTTP/1.1\r\n\r\n\
              GET /v1/tenants HTTP/1.1\r\n\r\n\
              GET /v1/nowhere HTTP/1.1\r\n\r\n\
              GET /metrics HTTP/1.1\r\n\r\n",
        )
        .expect("pipeline");
    let statuses: Vec<u16> = (0..4)
        .map(|i| {
            client
                .read_response(false)
                .unwrap_or_else(|e| panic!("pipelined response {i}: {e}"))
                .status
        })
        .collect();
    assert_eq!(statuses, [200, 200, 404, 200]);
    // Still open after the pipelined burst.
    assert_eq!(client.get("/healthz").expect("after burst").status, 200);
    assert_unharmed(&handle);
    handle.shutdown().expect("shutdown");
}

/// The poisoning check: a tenant that ingested real data, then had every
/// kind of garbage thrown at the server, still publishes bytes identical
/// to an in-process engine that never saw any of it.
#[test]
fn garbage_never_poisons_a_tenant() {
    let handle = start();
    let mut client = HttpClient::connect(handle.addr()).expect("connect");
    let created = client
        .post_json(
            "/v1/tenants/alpha",
            &json!({"grid": "hourly", "min_posts": 3}),
        )
        .expect("create");
    assert_eq!(created.status, 201);
    let deltas = workload();
    let ingested = client
        .post_json("/v1/tenants/alpha/ingest", &ingest_body(&deltas))
        .expect("ingest");
    assert_eq!(ingested.status, 200);

    // The attack wave: framing garbage, truncation, and valid-framing
    // bad payloads aimed at the tenant itself, each on its own
    // connection.
    let attacks: [&[u8]; 6] = [
        b"nonsense\r\n\r\n",
        b"POST /v1/tenants/alpha/ingest HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
        b"POST /v1/tenants/alpha/ingest HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n",
        b"POST /v1/tenants/alpha/ingest HTTP/1.1\r\nContent-Length: 40\r\n\r\n{\"deltas\": [{\"user\"",
        b"POST /v1/tenants/alpha/ingest HTTP/1.1\r\nContent-Length: 8\r\n\r\nnot json",
        b"POST /v1/tenants/alpha/ingest HTTP/1.1\r\nContent-Length: 31\r\n\r\n{\"deltas\": [{\"user\": \"x\"}]}\r\n\r\n",
    ];
    for attack in attacks {
        let mut raw = TcpStream::connect(handle.addr()).expect("connect");
        raw.write_all(attack).expect("attack write");
        raw.shutdown(Shutdown::Write).expect("half-close");
        raw.set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        let mut sink = Vec::new();
        let _ = raw.read_to_end(&mut sink);
    }

    // Byte-identity against an engine that saw only the good deltas.
    let engine = ConcurrentStreamingPipeline::new(GeolocationPipeline::default().min_posts(3));
    let writer = engine.writer();
    for (user, posts) in &deltas {
        let batch = Batch {
            ingest: &[(user.as_str(), posts.as_slice())],
            ..Batch::default()
        };
        writer.apply(&batch).expect("reference ingest");
    }
    let reference = serde_json::to_vec(engine.publish().expect("reference publish").report())
        .expect("serialize");
    let snapshot = client
        .get("/v1/tenants/alpha/snapshot?publish=1")
        .expect("publish");
    assert_eq!(snapshot.status, 200);
    assert_eq!(
        snapshot.body, reference,
        "garbage traffic altered the tenant's analysis"
    );
    assert_unharmed(&handle);
    handle.shutdown().expect("shutdown");
}

/// A valid ingest request template for the fuzzing strategy below.
fn template(addr: SocketAddr) -> Vec<u8> {
    let body = serde_json::to_vec(&ingest_body(&workload()[..2])).expect("body");
    let mut bytes = format!(
        "POST /v1/tenants/alpha/ingest HTTP/1.1\r\nHost: {addr}\r\n\
         Content-Length: {}\r\nContent-Type: application/json\r\n\r\n",
        body.len()
    )
    .into_bytes();
    bytes.extend_from_slice(&body);
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fuzz: random byte substitutions and truncations of a *valid*
    /// ingest request. Whatever comes back (an error, a success on a
    /// still-valid mutant, or silence), the server neither panics nor
    /// stops serving.
    #[test]
    fn mutated_valid_requests_never_take_the_server_down(
        indices in collection::vec(0usize..100_000, 1..8),
        replacements in collection::vec(any::<u8>(), 7),
        cut in 0usize..100_000,
        truncate in any::<bool>(),
    ) {
        let handle = start();
        let mut client = HttpClient::connect(handle.addr()).expect("connect");
        let created = client
            .post_json("/v1/tenants/alpha", &json!({"grid": "hourly", "min_posts": 3}))
            .expect("create");
        prop_assert_eq!(created.status, 201);

        let mut bytes = template(handle.addr());
        for (index, byte) in indices.iter().zip(&replacements) {
            let i = index % bytes.len();
            bytes[i] = *byte;
        }
        if truncate {
            bytes.truncate(cut % bytes.len());
        }

        let mut attacker = TcpStream::connect(handle.addr()).expect("connect");
        attacker.write_all(&bytes).expect("mutant write");
        attacker.shutdown(Shutdown::Write).expect("half-close");
        attacker
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        let mut sink = Vec::new();
        let _ = attacker.read_to_end(&mut sink);
        drop(attacker);

        assert_unharmed(&handle);
        handle.shutdown().expect("shutdown");
    }
}
