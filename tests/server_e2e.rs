//! Loopback end-to-end suite for the TCP front-end: everything the
//! in-process serving layer guarantees must survive a real socket.
//!
//! * 16 concurrent TCP clients across 3 tenants, mixed workloads and
//!   configs, naming the backend or not — every wire response
//!   **bit-identical** to a serial `Miner::mine` of the same request,
//!   compared through the same encoder;
//! * same-database requests on separate connections with different α
//!   **share one cache entry**, proven via the reply's `"cache"` and
//!   `"stats"`;
//! * index-cache hits count against **one occurrence index across
//!   connections** (an executor-factory spy records its address);
//! * a 10 ms-deadline request against a slow executor is **cancelled
//!   mid-level-loop**: later levels never execute, the slot is released,
//!   and the client gets the typed `"deadline"` error;
//! * tenant A exhausting its in-flight quota cannot starve tenant B;
//! * a stream armed with only an age trigger seals on its next `"ingest"`
//!   frame once its oldest buffered symbol is old enough.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use tdm_server::client::{mine_request, stats_request};
use tdm_server::json::Value;
use tdm_server::{wire, Client, Server, ServerConfig, TenantConfig};
use temporal_mining::prelude::*;
use temporal_mining::workloads::markov_letters;

const TENANTS: [(&str, &str); 3] = [("acme", "key-a"), ("beta", "key-b"), ("corp", "key-c")];

fn tenant_configs() -> Vec<TenantConfig> {
    TENANTS
        .iter()
        .map(|(name, key)| TenantConfig::new(*name, *key))
        .collect()
}

/// Renders a database back to the wire's letter spelling.
fn letters(db: &EventDb) -> String {
    db.symbols().iter().map(|&id| (b'A' + id) as char).collect()
}

/// The serial ground truth, encoded through the same wire encoder the
/// server uses — equality of the encoded text is bit-identity.
fn serial_result_json(db: &EventDb, config: MinerConfig) -> String {
    let result = Miner::new(config)
        .mine(db, &mut temporal_mining::core::SequentialBackend::default())
        .unwrap();
    wire::mining_result_value(&result, &Alphabet::latin26()).encode()
}

#[test]
fn sixteen_concurrent_clients_across_three_tenants_are_bit_identical() {
    let server = Server::bind(ServerConfig {
        handler_threads: 16,
        backlog: 16,
        service: temporal_mining::serve::ServiceConfig {
            workers: 4,
            ..Default::default()
        },
        tenants: tenant_configs(),
        ..Default::default()
    })
    .unwrap();
    let addr = server.addr();

    // `None` sends no "backend" field; both run the one engine.
    let backends = [Some("auto"), None];
    let alphas = [0.01, 0.02, 0.05, 0.1];
    let cases: Vec<(EventDb, MinerConfig, Option<&str>, &str, &str)> = (0..16)
        .map(|i| {
            let db = markov_letters(3_000 + 500 * i, i as u64, 0.6);
            let config = MinerConfig {
                alpha: alphas[i % alphas.len()],
                max_level: Some(3),
                ..Default::default()
            };
            let (tenant, key) = TENANTS[i % TENANTS.len()];
            (db, config, backends[i % backends.len()], tenant, key)
        })
        .collect();

    std::thread::scope(|s| {
        let handles: Vec<_> = cases
            .iter()
            .map(|(db, config, backend, tenant, key)| {
                s.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    let reply = client
                        .call(&mine_request(
                            tenant,
                            key,
                            &letters(db),
                            config.alpha,
                            config.max_level,
                            *backend,
                            None,
                            None,
                        ))
                        .unwrap();
                    assert_eq!(
                        reply.get("type").and_then(Value::as_str),
                        Some("mine_result"),
                        "unexpected reply: {}",
                        reply.encode()
                    );
                    reply.get("result").unwrap().encode()
                })
            })
            .collect();
        for (handle, (db, config, backend, tenant, _)) in handles.into_iter().zip(&cases) {
            let wire_json = handle.join().unwrap();
            assert_eq!(
                wire_json,
                serial_result_json(db, *config),
                "{tenant}/{backend:?} diverged from serial mining"
            );
        }
    });

    let stats = server.service().stats();
    assert_eq!(stats.completed, 16);
    assert_eq!(stats.failed + stats.rejected + stats.cancelled, 0);
    server.shutdown();
}

#[test]
fn same_db_requests_share_one_cached_index_over_the_wire() {
    // Three connections, one database, three thresholds: the first request
    // builds the database's index, the other two count against it from the
    // cache, and every reply is bit-identical to serial mining.
    let server = Server::bind(ServerConfig {
        handler_threads: 4,
        tenants: tenant_configs(),
        ..Default::default()
    })
    .unwrap();
    let db = markov_letters(8_000, 11, 0.6);
    for (i, alpha) in [0.05, 0.02, 0.01].into_iter().enumerate() {
        let mut client = Client::connect(server.addr()).unwrap();
        let reply = client
            .call(&mine_request(
                "acme",
                "key-a",
                &letters(&db),
                alpha,
                Some(2),
                None,
                None,
                None,
            ))
            .unwrap();
        let want = if i == 0 { "miss" } else { "hit" };
        assert_eq!(reply.get("cache").and_then(Value::as_str), Some(want));
        let config = MinerConfig {
            alpha,
            max_level: Some(2),
            ..Default::default()
        };
        assert_eq!(
            reply.get("result").unwrap().encode(),
            serial_result_json(&db, config),
            "alpha {alpha} diverged from serial mining"
        );
    }

    let mut client = Client::connect(server.addr()).unwrap();
    let stats = client.call(&stats_request("acme", "key-a")).unwrap();
    let service = stats.get("service").expect("stats carry service counters");
    let cache = service.get("cache").unwrap();
    assert_eq!(cache.get("hits").and_then(Value::as_u64), Some(2));
    assert_eq!(cache.get("misses").and_then(Value::as_u64), Some(1));
    // Nothing fuses; the key stays, at 0, for readers that still expect it.
    assert_eq!(
        service
            .get("comining")
            .and_then(|c| c.get("fused_requests"))
            .and_then(Value::as_u64),
        Some(0)
    );
    server.shutdown();
}

/// An executor that counts for real but records the address of the
/// occurrence index every level counts against; each request's trace lands
/// in the shared log when the executor drops.
struct AddressSpy {
    addrs: Vec<usize>,
    log: Arc<Mutex<Vec<Vec<usize>>>>,
}

impl Executor for AddressSpy {
    fn execute(&mut self, req: &CountRequest<'_>) -> Result<Counts, BackendError> {
        self.addrs
            .push(req.occurrence_index() as *const OccurrenceIndex as usize);
        AutoBackend.execute(req)
    }
    fn name(&self) -> &str {
        "address-spy"
    }
}

impl Drop for AddressSpy {
    fn drop(&mut self) {
        self.log
            .lock()
            .unwrap()
            .push(std::mem::take(&mut self.addrs));
    }
}

#[test]
fn cache_hits_share_one_index_across_connections() {
    let log: Arc<Mutex<Vec<Vec<usize>>>> = Arc::new(Mutex::new(Vec::new()));
    let factory_log = Arc::clone(&log);
    let server = Server::bind(ServerConfig {
        service: temporal_mining::serve::ServiceConfig {
            workers: 2,
            ..Default::default()
        },
        tenants: tenant_configs(),
        executor_factory: Some(Arc::new(move || {
            Box::new(AddressSpy {
                addrs: Vec::new(),
                log: Arc::clone(&factory_log),
            })
        })),
        ..Default::default()
    })
    .unwrap();

    let db = markov_letters(12_000, 3, 0.6);
    let request = mine_request(
        "acme",
        "key-a",
        &letters(&db),
        0.02,
        Some(3),
        None,
        None,
        None,
    );

    // The cache is keyed on the database alone: a new α on the same stream
    // counts against the same index.
    let new_alpha = mine_request(
        "acme",
        "key-a",
        &letters(&db),
        0.05,
        Some(3),
        None,
        None,
        None,
    );

    // Same request over three *separate connections*: a miss, then hits;
    // then the new α over a fourth.
    let mut outcomes = Vec::new();
    let mut last_result = String::new();
    for frame in [&request, &request, &request, &new_alpha] {
        let mut client = Client::connect(server.addr()).unwrap();
        let reply = client.call(frame).unwrap();
        assert_eq!(
            reply.get("type").and_then(Value::as_str),
            Some("mine_result")
        );
        outcomes.push(
            reply
                .get("cache")
                .and_then(Value::as_str)
                .unwrap()
                .to_string(),
        );
        last_result = reply.get("result").unwrap().encode();
        client.finish().unwrap();
    }
    assert_eq!(outcomes, ["miss", "hit", "hit", "hit"]);
    let want = MinerConfig {
        alpha: 0.05,
        max_level: Some(3),
        ..Default::default()
    };
    assert_eq!(last_result, serial_result_json(&db, want));

    let traces = log.lock().unwrap();
    assert_eq!(traces.len(), 4);
    assert!(traces.iter().all(|trace| !trace.is_empty()));
    assert!(
        traces.iter().flatten().all(|&a| a == traces[0][0]),
        "a request counted against another index"
    );
    server.shutdown();
}

/// Counts level executions and dawdles through each, so a short deadline
/// reliably expires between levels.
struct SlowSpy {
    delay: Duration,
    executes: Arc<AtomicUsize>,
}

impl Executor for SlowSpy {
    fn execute(&mut self, req: &CountRequest<'_>) -> Result<Counts, BackendError> {
        std::thread::sleep(self.delay);
        self.executes.fetch_add(1, Ordering::SeqCst);
        let mut scratch = CountScratch::new();
        Ok(req.compiled().count(req.stream(), &mut scratch))
    }
    fn name(&self) -> &str {
        "slow-spy"
    }
}

#[test]
fn deadline_cancels_mid_level_loop_over_the_wire() {
    let executes = Arc::new(AtomicUsize::new(0));
    let spy_executes = Arc::clone(&executes);
    let server = Server::bind(ServerConfig {
        service: temporal_mining::serve::ServiceConfig {
            workers: 1,
            max_in_flight: 1,
            ..Default::default()
        },
        tenants: tenant_configs(),
        executor_factory: Some(Arc::new(move || {
            Box::new(SlowSpy {
                delay: Duration::from_millis(40),
                executes: Arc::clone(&spy_executes),
            })
        })),
        ..Default::default()
    })
    .unwrap();

    let db = markov_letters(4_000, 9, 0.6);
    let mut client = Client::connect(server.addr()).unwrap();
    let reply = client
        .call(&mine_request(
            "acme",
            "key-a",
            &letters(&db),
            0.01,
            Some(6),
            None,
            None,
            Some(10), // 10ms deadline vs 40ms per level
        ))
        .unwrap();
    assert_eq!(reply.get("type").and_then(Value::as_str), Some("error"));
    assert_eq!(reply.get("code").and_then(Value::as_str), Some("deadline"));
    let cancelled_level = reply.get("level").and_then(Value::as_u64).unwrap();
    assert!(cancelled_level >= 1);
    // Later levels never executed: at most one scan fit the 10ms budget.
    assert!(executes.load(Ordering::SeqCst) <= 1);

    // The in-flight slot was released (max_in_flight=1: a leaked slot would
    // wedge this), and the next request on the database mines normally.
    let reply = client
        .call(&mine_request(
            "acme",
            "key-a",
            &letters(&db),
            0.01,
            Some(6),
            None,
            None,
            None,
        ))
        .unwrap();
    assert_eq!(
        reply.get("type").and_then(Value::as_str),
        Some("mine_result"),
        "slot not released after cancellation: {}",
        reply.encode()
    );
    let stats = server.service().stats();
    assert_eq!(stats.cancelled, 1);
    assert_eq!(stats.completed, 1);
    server.shutdown();
}

#[test]
fn tenant_quota_cannot_starve_other_tenants() {
    let server = Server::bind(ServerConfig {
        handler_threads: 4,
        service: temporal_mining::serve::ServiceConfig {
            workers: 2,
            max_in_flight: 4,
            ..Default::default()
        },
        tenants: vec![
            TenantConfig::new("acme", "key-a").quota(1),
            TenantConfig::new("beta", "key-b"),
        ],
        executor_factory: Some(Arc::new(|| {
            Box::new(SlowSpy {
                delay: Duration::from_millis(150),
                executes: Arc::new(AtomicUsize::new(0)),
            })
        })),
        ..Default::default()
    })
    .unwrap();
    let addr = server.addr();

    let slow_db = markov_letters(6_000, 13, 0.6);
    let quick_db = markov_letters(2_000, 17, 0.6);
    std::thread::scope(|s| {
        // acme's blocker occupies its whole quota for ~4 × 150ms.
        let blocker = s.spawn(|| {
            let mut client = Client::connect(addr).unwrap();
            client
                .call(&mine_request(
                    "acme",
                    "key-a",
                    &letters(&slow_db),
                    0.01,
                    Some(4),
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
                "blocker never admitted"
            );
            std::thread::yield_now();
        }

        // acme's second request is refused immediately with a typed quota
        // error carrying a retry hint…
        let mut acme = Client::connect(addr).unwrap();
        let denied = acme
            .call(&mine_request(
                "acme",
                "key-a",
                &letters(&quick_db),
                0.05,
                Some(1),
                None,
                None,
                None,
            ))
            .unwrap();
        assert_eq!(denied.get("code").and_then(Value::as_str), Some("quota"));
        assert_eq!(denied.get("in_flight").and_then(Value::as_u64), Some(1));
        assert_eq!(denied.get("quota").and_then(Value::as_u64), Some(1));
        assert!(
            denied
                .get("retry_after_ms")
                .and_then(Value::as_u64)
                .unwrap()
                > 0
        );

        // …while beta mines happily during acme's saturation.
        let mut beta = Client::connect(addr).unwrap();
        let served = beta
            .call(&mine_request(
                "beta",
                "key-b",
                &letters(&quick_db),
                0.05,
                Some(1),
                None,
                None,
                None,
            ))
            .unwrap();
        assert_eq!(
            served.get("type").and_then(Value::as_str),
            Some("mine_result"),
            "beta starved by acme's quota: {}",
            served.encode()
        );

        assert_eq!(
            blocker.join().unwrap().get("type").and_then(Value::as_str),
            Some("mine_result")
        );
    });

    // Quota slots drain back to idle once the blocker finishes.
    assert_eq!(server.tenant_in_flight(), 0);
    server.shutdown();
}

#[test]
fn an_age_only_stream_seals_on_its_next_ingest_frame() {
    let server = Server::bind(ServerConfig {
        handler_threads: 2,
        service: temporal_mining::serve::ServiceConfig {
            workers: 1,
            ..Default::default()
        },
        tenants: tenant_configs(),
        ..Default::default()
    })
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let registered = client
        .call_bytes(
            br#"{"type":"register","tenant":"acme","api_key":"key-a","stream":"s","seed":"ABAB","flush_count":0,"flush_age_ms":50}"#,
        )
        .unwrap();
    assert_eq!(
        registered.get("type").and_then(Value::as_str),
        Some("registered"),
        "{}",
        registered.encode()
    );

    let ingest =
        br#"{"type":"ingest","tenant":"acme","api_key":"key-a","stream":"s","symbols":"AB"}"#;
    let first = client.call_bytes(ingest).unwrap();
    assert_eq!(
        first.get("outcome").and_then(Value::as_str),
        Some("buffered"),
        "{}",
        first.encode()
    );
    // No thread polls the age trigger; the next append must check it.
    std::thread::sleep(Duration::from_millis(100));
    let second = client.call_bytes(ingest).unwrap();
    assert_eq!(
        second.get("outcome").and_then(Value::as_str),
        Some("flushed"),
        "{}",
        second.encode()
    );
    assert_eq!(second.get("symbols").and_then(Value::as_u64), Some(4));
    assert_eq!(second.get("window").and_then(Value::as_u64), Some(0));
    drop(client);
    server.shutdown();
}
