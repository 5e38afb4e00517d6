//! Protocol-robustness suite: the server must survive hostile clients.
//!
//! Malformed JSON, truncated frames, oversized length prefixes, unknown
//! request types, bad API keys, and fully random byte streams — the server
//! never panics, always answers a typed error or closes cleanly, and leaks
//! no handler threads (active-connection and quota accounting return to
//! idle after every abuse).

use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;
use tdm_server::client::{mine_request, stats_request};
use tdm_server::json::Value;
use tdm_server::{Client, Server, ServerConfig, TenantConfig};
use temporal_mining::prelude::*;

fn test_server(max_frame: usize) -> Server {
    Server::bind(ServerConfig {
        handler_threads: 4,
        max_frame,
        read_timeout: Duration::from_millis(50),
        service: temporal_mining::serve::ServiceConfig {
            workers: 1,
            ..Default::default()
        },
        tenants: vec![TenantConfig::new("acme", "key-a").quota(4)],
        ..Default::default()
    })
    .unwrap()
}

/// Polls the idle-accounting gauges back to zero; panics if a handler or
/// quota slot leaked.
fn assert_drains_to_idle(server: &Server) {
    let start = Instant::now();
    while server.active_connections() != 0 || server.tenant_in_flight() != 0 {
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "leaked: {} active connections, {} quota slots",
            server.active_connections(),
            server.tenant_in_flight()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The liveness probe: a fresh well-formed request must still be served.
fn assert_still_serving(server: &Server) {
    let mut client = Client::connect(server.addr()).unwrap();
    let reply = client.call(&stats_request("acme", "key-a")).unwrap();
    assert_eq!(reply.get("type").and_then(Value::as_str), Some("stats"));
}

#[test]
fn malformed_json_gets_a_typed_error_and_the_connection_survives() {
    let server = test_server(1 << 16);
    let mut client = Client::connect(server.addr()).unwrap();
    for bad in [
        &b"{\"type\":\"mine\""[..],
        b"not json at all",
        b"",
        b"[1,2,",
        b"\xff\xfe\x00garbage",
        b"{\"type\":42}",
    ] {
        let reply = client.call_bytes(bad).unwrap();
        assert_eq!(
            reply.get("type").and_then(Value::as_str),
            Some("error"),
            "payload {bad:?}"
        );
        assert_eq!(
            reply.get("code").and_then(Value::as_str),
            Some("bad_request"),
            "payload {bad:?}"
        );
    }
    // The same connection still serves real requests afterwards.
    let reply = client
        .call(&mine_request(
            "acme",
            "key-a",
            &"ABCA".repeat(40),
            0.05,
            Some(2),
            None,
            None,
            None,
        ))
        .unwrap();
    assert_eq!(
        reply.get("type").and_then(Value::as_str),
        Some("mine_result")
    );
    drop(client);
    assert_drains_to_idle(&server);
    assert!(server.counters().protocol_errors >= 6);
    server.shutdown();
}

#[test]
fn unknown_types_bad_keys_and_missing_fields_are_typed_errors() {
    let server = test_server(1 << 16);
    let mut client = Client::connect(server.addr()).unwrap();
    let cases: [(&str, &str); 7] = [
        (
            r#"{"type":"divine","tenant":"acme","api_key":"key-a"}"#,
            "bad_request",
        ),
        (
            r#"{"type":"mine","tenant":"acme","api_key":"wrong"}"#,
            "unauthorized",
        ),
        (
            r#"{"type":"mine","tenant":"ghost","api_key":"key-a"}"#,
            "unauthorized",
        ),
        (r#"{"type":"mine","tenant":"acme"}"#, "bad_request"),
        (
            r#"{"type":"mine","tenant":"acme","api_key":"key-a"}"#,
            "bad_request", // neither events nor workload
        ),
        (
            r#"{"type":"register","tenant":"acme","api_key":"key-a","stream":"never","seed":"ABAB","flush_count":0}"#,
            "bad_request", // no trigger could ever seal a window
        ),
        (
            r#"{"type":"register","tenant":"acme","api_key":"key-a","stream":"huge","seed":"ABAB","flush_count":1000000000000000}"#,
            "bad_request", // a count no stream could reach before memory ran out
        ),
    ];
    for (request, want_code) in cases {
        let reply = client.call_bytes(request.as_bytes()).unwrap();
        assert_eq!(
            reply.get("code").and_then(Value::as_str),
            Some(want_code),
            "request {request}"
        );
    }
    // The trigger refusals name the client's stream, not the tenant-scoped
    // key the ingest layer saw.
    for (case, stream) in [(5, "\"never\""), (6, "\"huge\"")] {
        let refusal = client.call_bytes(cases[case].0.as_bytes()).unwrap();
        let message = refusal.get("message").and_then(Value::as_str).unwrap();
        assert!(
            message.contains(stream) && !message.contains("acme"),
            "{message}"
        );
    }
    // The wire serves one backend: every other name, the paper baselines'
    // included, is a typed refusal that names it.
    for backend in [
        "quantum",
        "sharded",
        "mapreduce",
        "activeset",
        "sequential",
        "serialscan",
    ] {
        let request = format!(
            r#"{{"type":"mine","tenant":"acme","api_key":"key-a","events":"ABAB","backend":"{backend}"}}"#
        );
        let reply = client.call_bytes(request.as_bytes()).unwrap();
        assert_eq!(
            reply.get("code").and_then(Value::as_str),
            Some("bad_request"),
            "backend {backend}"
        );
        let message = reply.get("message").and_then(Value::as_str).unwrap();
        assert!(message.contains("\"auto\""), "backend {backend}: {message}");
    }
    // The same connection then serves the one name.
    let reply = client
        .call_bytes(
            br#"{"type":"mine","tenant":"acme","api_key":"key-a","events":"ABAB","backend":"auto"}"#,
        )
        .unwrap();
    assert_eq!(
        reply.get("type").and_then(Value::as_str),
        Some("mine_result"),
        "unexpected reply: {}",
        reply.encode()
    );
    // Bad-key and unknown-tenant responses are indistinguishable.
    let bad_key = client
        .call_bytes(br#"{"type":"mine","tenant":"acme","api_key":"wrong"}"#)
        .unwrap();
    let bad_tenant = client
        .call_bytes(br#"{"type":"mine","tenant":"ghost","api_key":"x"}"#)
        .unwrap();
    assert_eq!(bad_key.get("message"), bad_tenant.get("message"));
    drop(client);
    assert_drains_to_idle(&server);
    server.shutdown();
}

#[test]
fn an_ingest_past_the_stream_cap_is_a_typed_refusal() {
    let server = test_server(tdm_server::wire::MAX_FRAME);
    let mut client = Client::connect(server.addr()).unwrap();
    let register = r#"{"type":"register","tenant":"acme","api_key":"key-a","stream":"long","seed":"ABAB","flush_count":4000000}"#;
    let reply = client.call_bytes(register.as_bytes()).unwrap();
    assert_eq!(
        reply.get("type").and_then(Value::as_str),
        Some("registered")
    );
    // Four appends of a quarter of the cap each: with the seed, the fourth
    // would take the stream past it. No trigger fires, so nothing is mined.
    let ingest = format!(
        r#"{{"type":"ingest","tenant":"acme","api_key":"key-a","stream":"long","symbols":"{}"}}"#,
        "A".repeat(1_000_000)
    );
    for pending in [1_000_000, 2_000_000, 3_000_000] {
        let reply = client.call_bytes(ingest.as_bytes()).unwrap();
        assert_eq!(
            reply.get("outcome").and_then(Value::as_str),
            Some("buffered"),
            "unexpected reply: {}",
            reply.encode()
        );
        assert_eq!(reply.get("pending").and_then(Value::as_u64), Some(pending));
    }
    let refusal = client.call_bytes(ingest.as_bytes()).unwrap();
    assert_eq!(
        refusal.get("code").and_then(Value::as_str),
        Some("bad_request")
    );
    // The refusal names the client's stream and the cap, not the
    // tenant-scoped key the ingest layer saw.
    let message = refusal.get("message").and_then(Value::as_str).unwrap();
    assert!(
        message.contains("\"long\"") && message.contains("4000000") && !message.contains("acme"),
        "{message}"
    );
    drop(client);
    assert_drains_to_idle(&server);
    server.shutdown();
}

#[test]
fn oversized_length_prefix_is_refused_with_a_typed_error_then_closed() {
    let server = test_server(4096);
    let mut client = Client::connect(server.addr()).unwrap();
    // A prefix declaring far more than the cap; no payload follows.
    client.send_raw(&u32::MAX.to_be_bytes()).unwrap();
    let reply = client.read_reply().unwrap();
    assert_eq!(
        reply.get("code").and_then(Value::as_str),
        Some("oversized_frame")
    );
    // The server closes the connection after the refusal.
    match client.read_reply() {
        Err(tdm_server::ClientError::Frame(tdm_server::FrameError::Closed)) => {}
        other => panic!("expected a clean close, got {other:?}"),
    }
    assert_drains_to_idle(&server);
    assert_still_serving(&server);
    server.shutdown();
}

#[test]
fn truncated_frames_close_cleanly_without_leaking_handlers() {
    let server = test_server(4096);
    // Truncated payload: promise 100 bytes, send 10, walk away.
    let mut client = Client::connect(server.addr()).unwrap();
    client.send_raw(&100u32.to_be_bytes()).unwrap();
    client.send_raw(b"0123456789").unwrap();
    client.finish().unwrap();
    // Truncated prefix: 2 of 4 length bytes.
    let mut client = Client::connect(server.addr()).unwrap();
    client.send_raw(&[0u8, 1]).unwrap();
    client.finish().unwrap();
    // Idle connect-then-leave.
    let client = Client::connect(server.addr()).unwrap();
    drop(client);
    assert_drains_to_idle(&server);
    assert_still_serving(&server);
    server.shutdown();
}

#[test]
fn absurd_workload_parameters_are_typed_errors_not_allocations_or_panics() {
    let server = test_server(1 << 16);
    let mut client = Client::connect(server.addr()).unwrap();
    let cases = [
        // A petabyte-scale "n" must be refused before any allocation.
        r#"{"type":"mine","tenant":"acme","api_key":"key-a","workload":{"kind":"uniform","n":1000000000000000}}"#,
        r#"{"type":"mine","tenant":"acme","api_key":"key-a","workload":{"kind":"markov","n":1000000000000000}}"#,
        // Generator preconditions come back as errors, not asserts that
        // drop the connection without a response.
        r#"{"type":"mine","tenant":"acme","api_key":"key-a","workload":{"kind":"paper","scale":0}}"#,
        r#"{"type":"mine","tenant":"acme","api_key":"key-a","workload":{"kind":"paper","scale":-1}}"#,
        r#"{"type":"mine","tenant":"acme","api_key":"key-a","workload":{"kind":"paper","scale":2}}"#,
        r#"{"type":"mine","tenant":"acme","api_key":"key-a","workload":{"kind":"markov","n":100,"persistence":1}}"#,
        r#"{"type":"mine","tenant":"acme","api_key":"key-a","workload":{"kind":"markov","n":100,"persistence":-0.5}}"#,
    ];
    for request in cases {
        let reply = client.call_bytes(request.as_bytes()).unwrap();
        assert_eq!(
            reply.get("code").and_then(Value::as_str),
            Some("bad_request"),
            "request {request}: {}",
            reply.encode()
        );
    }
    // A sane workload on the same connection still mines.
    let reply = client
        .call_bytes(
            br#"{"type":"mine","tenant":"acme","api_key":"key-a","max_level":2,"workload":{"kind":"markov","n":2000,"persistence":0.6}}"#,
        )
        .unwrap();
    assert_eq!(
        reply.get("type").and_then(Value::as_str),
        Some("mine_result"),
        "{}",
        reply.encode()
    );
    drop(client);
    assert_drains_to_idle(&server);
    server.shutdown();
}

/// Dawdles through each level so a request reliably pins its tenant's
/// in-flight quota slot for an observable window.
struct Dawdler {
    delay: Duration,
}

impl Executor for Dawdler {
    fn execute(&mut self, req: &CountRequest<'_>) -> Result<Counts, BackendError> {
        std::thread::sleep(self.delay);
        let mut scratch = CountScratch::new();
        Ok(req.compiled().count(req.stream(), &mut scratch))
    }
    fn name(&self) -> &str {
        "dawdler"
    }
}

#[test]
fn quota_refusals_do_not_burn_rate_limit_tokens_and_register_is_metered() {
    // Burst of 2 tokens with a negligible refill rate, quota of 1: the
    // blocker spends token #1 and holds the only slot. Every refusal while
    // it runs must be a quota error that consumes nothing, leaving token #2
    // for the request that lands once the slot frees up.
    let server = Server::bind(ServerConfig {
        handler_threads: 4,
        read_timeout: Duration::from_millis(50),
        service: temporal_mining::serve::ServiceConfig {
            workers: 1,
            ..Default::default()
        },
        tenants: vec![TenantConfig::new("acme", "key-a").rate(0.001, 2.0).quota(1)],
        executor_factory: Some(Arc::new(|| {
            Box::new(Dawdler {
                delay: Duration::from_millis(150),
            })
        })),
        ..Default::default()
    })
    .unwrap();
    let addr = server.addr();

    let events = "ABCA".repeat(500);
    std::thread::scope(|s| {
        let blocker_events = events.clone();
        let blocker = s.spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            client
                .call(&mine_request(
                    "acme",
                    "key-a",
                    &blocker_events,
                    0.01,
                    Some(3),
                    None,
                    None,
                    None,
                ))
                .unwrap()
        });
        let start = Instant::now();
        while server.tenant_in_flight() == 0 {
            assert!(
                start.elapsed() < Duration::from_secs(10),
                "blocker never took its quota slot"
            );
            std::thread::yield_now();
        }

        // Four refusals back to back: all must say "quota", never
        // "rate_limited" — with the old token-first ordering the second
        // refusal would burn the last token and the rest would flip to
        // rate-limit errors.
        let mut client = Client::connect(addr).unwrap();
        for attempt in 0..4 {
            let denied = client
                .call(&mine_request(
                    "acme",
                    "key-a",
                    &events,
                    0.05,
                    Some(1),
                    None,
                    None,
                    None,
                ))
                .unwrap();
            assert_eq!(
                denied.get("code").and_then(Value::as_str),
                Some("quota"),
                "attempt {attempt}: {}",
                denied.encode()
            );
        }
        assert_eq!(
            blocker.join().unwrap().get("type").and_then(Value::as_str),
            Some("mine_result")
        );

        // The refusals consumed nothing: token #2 still serves a request.
        let served = client
            .call(&mine_request(
                "acme",
                "key-a",
                &events,
                0.01,
                Some(3),
                None,
                None,
                None,
            ))
            .unwrap();
        assert_eq!(
            served.get("type").and_then(Value::as_str),
            Some("mine_result"),
            "quota refusals burned the remaining token: {}",
            served.encode()
        );

        // The bucket is now empty, and `register` is metered like `ingest`:
        // it answers rate_limited instead of mutating shared state for free.
        let denied = client
            .call_bytes(
                br#"{"type":"register","tenant":"acme","api_key":"key-a","stream":"s","seed":"ABAB"}"#,
            )
            .unwrap();
        assert_eq!(
            denied.get("code").and_then(Value::as_str),
            Some("rate_limited"),
            "{}",
            denied.encode()
        );
    });
    assert_drains_to_idle(&server);
    server.shutdown();
}

#[test]
fn shutdown_unblocks_an_acceptor_bound_to_the_unspecified_address() {
    // Binding to 0.0.0.0 means the wake-up connection cannot target the
    // bound address literally on every platform; shutdown must aim at
    // loopback instead of wedging in accept().
    let server = Server::bind(ServerConfig {
        addr: "0.0.0.0:0".into(),
        tenants: vec![TenantConfig::new("acme", "key-a")],
        ..Default::default()
    })
    .unwrap();
    let done = std::thread::spawn(move || server.shutdown());
    let start = Instant::now();
    while !done.is_finished() {
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "shutdown wedged joining the acceptor of a 0.0.0.0 listener"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    done.join().unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary byte soup — framed or raw — never kills the server: after
    /// every stream it still answers a well-formed request, and the handler
    /// accounting returns to idle.
    #[test]
    fn random_byte_streams_never_panic_the_server(
        bytes in proptest::collection::vec(0u8..=255, 0..256),
        framed in 0u8..=1,
    ) {
        // One server per case keeps the leak assertion exact (gauges at 0).
        let server = test_server(4096);
        let mut client = Client::connect(server.addr()).unwrap();
        if framed == 1 {
            // A well-formed frame around hostile payload bytes.
            let _ = client.call_bytes(&bytes);
            drop(client);
        } else {
            // Hostile at the framing layer itself. The write may race a
            // server-side close (e.g. the first 4 bytes decode as an
            // oversized prefix), so tolerate EPIPE.
            let _ = client.send_raw(&bytes);
            let _ = client.finish();
        }
        assert_drains_to_idle(&server);
        assert_still_serving(&server);
        server.shutdown();
    }
}
