//! Serving: many concurrent clients, one shared worker pool, an index cache.
//!
//! Spins up a [`MiningService`], hammers it from 8 client threads with a mix
//! of workloads, and shows the serving telemetry: cache
//! hits/misses, queue wait, and per-request mining time — every response
//! bit-identical to a serial run of the same request.
//!
//! ```sh
//! cargo run --release --example serving
//! ```

use std::sync::Arc;
use temporal_mining::prelude::*;
use temporal_mining::serve::CacheOutcome;
use temporal_mining::workloads;

fn main() {
    // 1. One service for the whole process: a machine-sized shared pool,
    //    fair FIFO admission, and an LRU cache of one occurrence index per
    //    database.
    let service = Arc::new(MiningService::new(ServiceConfig {
        cache_capacity: 8,
        ..Default::default()
    }));
    println!(
        "service up: {} pool workers shared by every client\n",
        service.pool().workers()
    );

    // 2. Three tenants' databases (the mixed workloads of the serve bench).
    let dbs: Vec<(&str, Arc<temporal_mining::core::EventDb>)> = vec![
        (
            "markov",
            Arc::new(workloads::markov_letters(30_000, 11, 0.7)),
        ),
        (
            "spike-train",
            Arc::new(workloads::spike_trains(&workloads::SpikeTrainConfig {
                duration_ms: 20_000.0,
                ..Default::default()
            })),
        ),
        (
            "market-basket",
            Arc::new(workloads::market_basket(&workloads::BasketConfig::default())),
        ),
    ];
    let config = MinerConfig {
        alpha: 0.001,
        max_level: Some(2),
        ..Default::default()
    };

    // 3. Eight clients, submitting concurrently from their own threads. The
    //    admission gate takes them in arrival order, whoever asks.
    std::thread::scope(|s| {
        for client in 0..8usize {
            let service = Arc::clone(&service);
            let dbs = dbs.clone();
            s.spawn(move || {
                for round in 0..3usize {
                    let (name, db) = &dbs[(client + round) % dbs.len()];
                    let req = MiningRequest::new(Arc::clone(db), config);
                    let resp = service.submit(&req).expect("request failed");
                    println!(
                        "client {client} round {round}: {name:<13} -> {:>3} frequent, \
                         cache {}, queued {:>6.2} ms, mined {:>6.2} ms",
                        resp.result.total_frequent(),
                        match resp.stats.cache {
                            CacheOutcome::Hit => "hit  ",
                            CacheOutcome::Miss => "miss ",
                        },
                        resp.stats.queue_wait.as_secs_f64() * 1e3,
                        resp.stats.mine_time.as_secs_f64() * 1e3,
                    );
                }
            });
        }
    });

    // 4. The telemetry a production operator would scrape.
    let stats = service.stats();
    println!(
        "\nserved {} requests: {} cache hits, {} misses, {} evictions, {} cached databases",
        stats.completed,
        stats.cache.hits,
        stats.cache.misses,
        stats.cache.evictions,
        service.cached_databases()
    );

    // 5. The serving guarantee: a served result is exactly a serial mine.
    let (name, db) = &dbs[0];
    let serial = Miner::new(config)
        .mine(db.as_ref(), &mut SequentialBackend::default())
        .unwrap();
    let served = service
        .submit(&MiningRequest::new(Arc::clone(db), config))
        .unwrap();
    assert_eq!(serial, served.result);
    println!(
        "serial vs served on {name}: bit-identical ({} frequent)",
        serial.total_frequent()
    );

    // 6. One shared index per database, whatever the config: four
    //    thresholds in turn on one database all hit it, each request plans
    //    its own session over it, and their level 2 reads the pair table its
    //    first mine built.
    let outcomes: Vec<CacheOutcome> = (0..4)
        .map(|i| {
            let alpha = 0.001 * (2.0 + i as f64);
            let req = MiningRequest::new(Arc::clone(db), MinerConfig { alpha, ..config });
            service.submit(&req).expect("request failed").stats.cache
        })
        .collect();
    println!("four new thresholds on {name}: {outcomes:?}");
}
