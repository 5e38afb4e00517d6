//! The network front-end: a loopback `tdm-server`, three tenants, and the
//! whole gate sequence on display — authentication, rate limits, quotas,
//! deadlines, and one shared occurrence index per database.
//!
//! Spins up a real TCP listener on an ephemeral port, then walks through:
//! a mine round-trip checked bit-identical to serial mining; a cache hit on
//! the second request; three clients with three thresholds sharing one
//! database's cached index over the wire; a deadline that expires on arrival
//! cancelling a run at its level-1 check; and the typed refusals a hostile
//! or over-eager client sees.
//!
//! ```sh
//! cargo run --release --example server
//! ```

use temporal_mining::core::{Alphabet, MinerConfig};
use temporal_mining::prelude::*;
use temporal_mining::server::client::{mine_request, stats_request};
use temporal_mining::server::json::Value;
use temporal_mining::server::{wire, Client, Server, ServerConfig, TenantConfig};
use temporal_mining::workloads;

fn main() {
    // 1. Bind a server on an ephemeral loopback port: three tenants with
    //    different privileges, a shared mining service behind them.
    let server = Server::bind(ServerConfig {
        handler_threads: 8,
        tenants: vec![
            TenantConfig::new("acme", "key-a"),
            // 1 req/s with a burst of 2: back-to-back requests drain it.
            TenantConfig::new("beta", "key-b").rate(1.0, 2.0),
            TenantConfig::new("corp", "key-c").quota(1),
        ],
        ..Default::default()
    })
    .expect("bind failed");
    println!("tdm-server up on {} (ephemeral port)\n", server.addr());

    // 2. One mine round-trip, checked bit-identical to serial mining pushed
    //    through the same wire encoder.
    let db = workloads::markov_letters(10_000, 11, 0.6);
    let letters: String = db.symbols().iter().map(|&s| (b'A' + s) as char).collect();
    let config = MinerConfig {
        alpha: 0.02,
        max_level: Some(3),
        ..Default::default()
    };
    let serial = Miner::new(config)
        .mine(
            &db,
            &mut temporal_mining::core::SequentialBackend::default(),
        )
        .expect("serial mining failed");
    let want = wire::mining_result_value(&serial, &Alphabet::latin26()).encode();

    let mut acme = Client::connect(server.addr()).expect("connect failed");
    let request = mine_request("acme", "key-a", &letters, 0.02, Some(3), None, None, None);
    let reply = acme.call(&request).expect("mine failed");
    let got = reply.get("result").expect("no result").encode();
    assert_eq!(got, want, "wire reply diverged from serial mining");
    println!(
        "mine: {} levels, cache {}, bit-identical to serial ✓",
        serial.levels.len(),
        reply.get("cache").and_then(Value::as_str).unwrap_or("?")
    );

    // 3. Same request again: the database's cached index is a hit.
    let reply = acme.call(&request).expect("repeat mine failed");
    println!(
        "repeat: cache {} (levels 1-2 read from the cached index)\n",
        reply.get("cache").and_then(Value::as_str).unwrap_or("?")
    );

    // 4. One database, three connections, three thresholds: the first
    //    request builds the database's index, the others count against it
    //    from the cache and read level 2 from the pair table the first one
    //    built.
    let shared_db = workloads::uniform_letters(20_000, 7);
    let shared_letters: String = shared_db
        .symbols()
        .iter()
        .map(|&s| (b'A' + s) as char)
        .collect();
    for (i, alpha) in [0.05, 0.02, 0.01].into_iter().enumerate() {
        let mut conn = Client::connect(server.addr()).expect("connect failed");
        let req = mine_request(
            "acme",
            "key-a",
            &shared_letters,
            alpha,
            Some(2),
            None,
            None,
            None,
        );
        let reply = conn.call(&req).expect("shared-db mine failed");
        println!(
            "  client {i} (alpha {alpha}): cache {}",
            reply.get("cache").and_then(Value::as_str).unwrap_or("?")
        );
    }
    let stats = acme
        .call(&stats_request("acme", "key-a"))
        .expect("stats failed");
    let cache = stats
        .get("service")
        .and_then(|s| s.get("cache"))
        .expect("no cache stats");
    println!(
        "index cache over the wire: {} hit(s), {} miss(es)\n",
        cache.get("hits").and_then(Value::as_u64).unwrap_or(0),
        cache.get("misses").and_then(Value::as_u64).unwrap_or(0),
    );

    // 5. Deadlines cancel inside the level loop, which checks the request's
    //    deadline before every level: a 0 ms budget expires on arrival, so
    //    the level-1 check aborts with a typed error naming the level.
    let reply = acme
        .call(&mine_request(
            "acme",
            "key-a",
            &letters,
            0.02,
            Some(3),
            None,
            None,
            Some(0),
        ))
        .expect("deadline call failed");
    let code = reply.get("code").and_then(Value::as_str);
    let level = reply.get("level").and_then(Value::as_u64);
    assert_eq!(code, Some("deadline"), "an expired deadline must cancel");
    assert_eq!(level, Some(1), "cancelled at the level-1 check");
    println!("deadline 0ms: code \"deadline\" at level 1 ✓\n");

    // 6. The refusals: a bad key, then a drained token bucket — each a
    //    typed error on a live connection, never a dropped socket.
    let mut probe = Client::connect(server.addr()).expect("connect failed");
    let reply = probe
        .call(&mine_request(
            "acme",
            "wrong",
            &letters,
            0.02,
            Some(2),
            None,
            None,
            None,
        ))
        .expect("probe failed");
    println!(
        "bad key: {}",
        reply.get("code").and_then(Value::as_str).unwrap_or("?")
    );
    let mut beta = Client::connect(server.addr()).expect("connect failed");
    let mut last = String::new();
    for _ in 0..4 {
        let reply = beta
            .call(&mine_request(
                "beta",
                "key-b",
                "ABAB",
                0.5,
                Some(1),
                None,
                None,
                None,
            ))
            .expect("beta failed");
        last = reply
            .get("code")
            .and_then(Value::as_str)
            .unwrap_or("mine_result")
            .to_string();
    }
    println!("beta's 4th request against a 2-token, 1 req/s bucket: {last}");

    server.shutdown();
    println!("\nserver drained and shut down cleanly");
}
