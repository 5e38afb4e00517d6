//! Serving-layer conformance: the multi-tenant `MiningService` must be
//! *observationally identical* to serial mining under any concurrency.
//!
//! * 16 concurrent clients over one shared pool and mixed workloads
//!   (Markov, spike-train, market-basket) — every response bit-identical to
//!   a serial `Miner::mine` of the same request;
//! * index-cache hits count against the **same occurrence index** the
//!   database's first request built (asserted with a spy executor that
//!   records the index's address);
//! * the cache is keyed on the database alone: a new α on a cached database
//!   hits and reads the pair table the first request built, and two
//!   concurrent requests over one database (paper-scan's shape, one α each)
//!   count against one index while both are mining;
//! * cache hit/miss/eviction semantics and db-hash collision safety — two
//!   databases with an equal hash-relevant prefix but different content never
//!   share an index;
//! * priority + admission-limit plumbing end to end.

use std::sync::{mpsc, Arc};
use temporal_mining::core::miner::SequentialBackend;
use temporal_mining::prelude::*;
use temporal_mining::serve::CacheOutcome;
use temporal_mining::workloads::{
    basket::{market_basket, BasketConfig},
    markov_letters,
    spikes::{spike_trains, SpikeTrainConfig},
};

fn mixed_workloads() -> Vec<Arc<EventDb>> {
    vec![
        Arc::new(markov_letters(30_000, 11, 0.7)),
        Arc::new(spike_trains(&SpikeTrainConfig {
            neurons: 26,
            duration_ms: 20_000.0,
            base_rate_hz: 8.0,
            ..Default::default()
        })),
        Arc::new(market_basket(&BasketConfig::default())),
    ]
}

fn serve_config(workers: usize) -> ServiceConfig {
    ServiceConfig {
        workers,
        ..Default::default()
    }
}

fn mine_config() -> MinerConfig {
    MinerConfig {
        alpha: 0.001,
        max_level: Some(2),
        ..Default::default()
    }
}

#[test]
fn sixteen_concurrent_clients_match_serial_mining_bit_for_bit() {
    let dbs = mixed_workloads();
    let config = mine_config();
    // Serial ground truth, one per workload, computed without the service.
    let serial: Vec<MiningResult> = dbs
        .iter()
        .map(|db| {
            Miner::new(config)
                .mine(db.as_ref(), &mut SequentialBackend::default())
                .unwrap()
        })
        .collect();

    let service = Arc::new(MiningService::new(ServiceConfig {
        workers: 4,
        max_in_flight: 16,
        ..Default::default()
    }));
    std::thread::scope(|s| {
        for client in 0..16usize {
            let service = Arc::clone(&service);
            let dbs = dbs.clone();
            let serial = &serial;
            s.spawn(move || {
                for round in 0..3usize {
                    let which = (client + round) % dbs.len();
                    let req = MiningRequest::new(Arc::clone(&dbs[which]), config);
                    let resp = service.submit(&req).expect("request failed");
                    assert_eq!(
                        resp.result, serial[which],
                        "client {client} round {round} diverged from serial mining"
                    );
                }
            });
        }
    });

    let stats = service.stats();
    assert_eq!(stats.completed, 48);
    assert_eq!(stats.failed + stats.rejected, 0);
    // 3 workloads, one index built each; every other request could hit.
    assert!(stats.cache.misses as usize >= dbs.len());
    assert!(
        stats.cache.hits > 0,
        "expected shared-index reuse: {stats:?}"
    );
    assert_eq!(stats.cache.collisions, 0);
}

/// Counts with the engine and records, per level, the level, the address of
/// the occurrence index it counted against, and whether a distinct level 2
/// found its pair table already built (the cost model then prices the level
/// at one read per row, with no pass to fill the table).
#[derive(Default)]
struct IndexSpy {
    levels: Vec<(usize, usize, bool)>,
}

impl Executor for IndexSpy {
    fn execute(&mut self, req: &CountRequest<'_>) -> Result<Counts, BackendError> {
        let index = req.occurrence_index();
        let table_built = req.compiled().strategy_costs(index).vertical == req.candidates() as f64;
        self.levels.push((
            req.level(),
            index as *const OccurrenceIndex as usize,
            table_built,
        ));
        AutoBackend.execute(req)
    }

    fn name(&self) -> &str {
        "index-spy"
    }
}

/// The one index address every recorded level counted against.
fn one_index(levels: &[(usize, usize, bool)]) -> usize {
    assert!(!levels.is_empty());
    let address = levels[0].1;
    assert!(
        levels.iter().all(|l| l.1 == address),
        "levels counted against different indexes: {levels:?}"
    );
    address
}

/// Whether level 2 found the pair table built.
fn level_two_found_the_table(levels: &[(usize, usize, bool)]) -> bool {
    let level = levels.iter().find(|l| l.0 == 2).expect("level 2 ran");
    level.2
}

#[test]
fn cache_hits_reuse_the_same_occurrence_index() {
    let service = MiningService::new(serve_config(2));
    let db = Arc::new(markov_letters(20_000, 5, 0.6));
    let req = MiningRequest::new(Arc::clone(&db), mine_config());

    let mut spy = IndexSpy::default();
    let cold = service.submit_with(&req, &mut spy).unwrap();
    assert_eq!(cold.stats.cache, CacheOutcome::Miss);
    let cached = one_index(&spy.levels);
    assert!(!level_two_found_the_table(&spy.levels));

    // Second, third request: cache hits count every level against the very
    // index the first request built, pair table included.
    for round in 0..2 {
        let mut spy = IndexSpy::default();
        let warm = service.submit_with(&req, &mut spy).unwrap();
        assert_eq!(warm.stats.cache, CacheOutcome::Hit, "round {round}");
        assert_eq!(one_index(&spy.levels), cached, "round {round}");
        assert!(level_two_found_the_table(&spy.levels), "round {round}");
        assert_eq!(warm.result, cold.result);
    }
    assert_eq!(service.cached_databases(), 1);
}

#[test]
fn a_new_alpha_on_a_cached_database_reads_the_pair_table_the_first_request_built() {
    let service = MiningService::new(serve_config(2));
    let db = Arc::new(markov_letters(20_000, 9, 0.6));
    let mut spy = IndexSpy::default();
    let cold = service
        .submit_with(
            &MiningRequest::new(Arc::clone(&db), mine_config()),
            &mut spy,
        )
        .unwrap();
    assert_eq!(cold.stats.cache, CacheOutcome::Miss);
    let cached = one_index(&spy.levels);

    // A threshold this database has never been mined at, one level deeper:
    // the request plans its own session over the cached index.
    let config = MinerConfig {
        alpha: 0.004,
        max_level: Some(3),
        ..Default::default()
    };
    let mut spy = IndexSpy::default();
    let warm = service
        .submit_with(&MiningRequest::new(Arc::clone(&db), config), &mut spy)
        .unwrap();
    assert_eq!(warm.stats.cache, CacheOutcome::Hit);
    assert_eq!(warm.stats.key, cold.stats.key);
    assert_eq!(warm.result, serial(&db, config));
    assert_eq!(one_index(&spy.levels), cached);
    assert!(
        level_two_found_the_table(&spy.levels),
        "a new α must read the pair table the first request built"
    );
    assert_eq!(service.cached_databases(), 1);
}

/// Counts like [`IndexSpy`], then holds its request inside level 2 until
/// released: one request mid-level while another mines the same database.
struct HeldAtLevelTwo {
    spy: IndexSpy,
    reached: mpsc::Sender<()>,
    release: mpsc::Receiver<()>,
}

impl Executor for HeldAtLevelTwo {
    fn execute(&mut self, req: &CountRequest<'_>) -> Result<Counts, BackendError> {
        let counts = self.spy.execute(req)?;
        if req.level() == 2 {
            self.reached.send(()).unwrap();
            self.release.recv().unwrap();
        }
        Ok(counts)
    }

    fn name(&self) -> &str {
        "held"
    }
}

#[test]
fn concurrent_requests_on_one_database_count_against_one_index() {
    // Paper-scan's shape: two requests on one database at once, one α each.
    // The first is held inside level 2, after its count built the pair
    // table; the second runs start to finish meanwhile. Nothing is taken out
    // of the cache while a request mines, so the second hits, counts against
    // the first one's index, and finds the pair table built.
    let service = Arc::new(MiningService::new(ServiceConfig {
        workers: 2,
        max_in_flight: 2,
        ..Default::default()
    }));
    let db = Arc::new(markov_letters(12_000, 29, 0.6));
    let configs = [
        mine_config(),
        MinerConfig {
            alpha: 0.01,
            ..mine_config()
        },
    ];
    let (reached_tx, reached) = mpsc::channel();
    let (release, release_rx) = mpsc::channel();
    let (first, first_levels, second, second_levels) = std::thread::scope(|s| {
        let held = {
            let service = Arc::clone(&service);
            let req = MiningRequest::new(Arc::clone(&db), configs[0]);
            s.spawn(move || {
                let mut executor = HeldAtLevelTwo {
                    spy: IndexSpy::default(),
                    reached: reached_tx,
                    release: release_rx,
                };
                let response = service.submit_with(&req, &mut executor).unwrap();
                (response, executor.spy.levels)
            })
        };
        reached.recv().unwrap();
        let mut spy = IndexSpy::default();
        let second = service
            .submit_with(&MiningRequest::new(Arc::clone(&db), configs[1]), &mut spy)
            .unwrap();
        assert_eq!(service.in_flight(), 1, "the first request is still mining");
        release.send(()).unwrap();
        let (first, first_levels) = held.join().unwrap();
        (first, first_levels, second, spy.levels)
    });
    assert_eq!(first.stats.cache, CacheOutcome::Miss);
    assert_eq!(second.stats.cache, CacheOutcome::Hit);
    assert_eq!(one_index(&first_levels), one_index(&second_levels));
    assert!(!level_two_found_the_table(&first_levels));
    assert!(
        level_two_found_the_table(&second_levels),
        "the pair table was built twice"
    );
    assert_eq!(first.result, serial(&db, configs[0]));
    assert_eq!(second.result, serial(&db, configs[1]));
    assert_eq!(service.cached_databases(), 1);
    let stats = service.stats();
    assert_eq!((stats.cache.hits, stats.cache.misses), (1, 1));
}

#[test]
fn equal_prefix_different_content_never_shares_an_index() {
    // Two databases identical in their first 20k symbols, diverging after:
    // any prefix-only or lazy hashing would assign them one key. They must
    // mine to different results and occupy distinct cache entries.
    let service = MiningService::new(serve_config(2));
    let prefix = "ABCD".repeat(5_000);
    let a = Arc::new(
        EventDb::from_str_symbols(&Alphabet::latin26(), &(prefix.clone() + &"XY".repeat(500)))
            .unwrap(),
    );
    let b = Arc::new(
        EventDb::from_str_symbols(&Alphabet::latin26(), &(prefix + &"YX".repeat(500))).unwrap(),
    );
    let cfg = mine_config();

    let ra = service
        .submit(&MiningRequest::new(Arc::clone(&a), cfg))
        .unwrap();
    let rb = service
        .submit(&MiningRequest::new(Arc::clone(&b), cfg))
        .unwrap();
    assert_eq!(rb.stats.cache, CacheOutcome::Miss);
    assert_ne!(
        ra.result, rb.result,
        "different content must mine differently"
    );
    assert_ne!(ra.stats.key, rb.stats.key, "content hash ignored the tail");
    assert_eq!(service.cached_databases(), 2);

    // Each db re-hits its own entry, and the results replay exactly.
    let ra2 = service.submit(&MiningRequest::new(a, cfg)).unwrap();
    let rb2 = service.submit(&MiningRequest::new(b, cfg)).unwrap();
    assert_eq!(ra2.stats.cache, CacheOutcome::Hit);
    assert_eq!(rb2.stats.cache, CacheOutcome::Hit);
    assert_eq!(ra.result, ra2.result);
    assert_eq!(rb.result, rb2.result);
    assert_eq!(service.stats().cache.collisions, 0);
}

#[test]
fn eviction_makes_room_and_evicted_requests_miss_again() {
    let service = MiningService::new(ServiceConfig {
        workers: 1,
        cache_capacity: 2,
        ..Default::default()
    });
    let cfg = mine_config();
    let dbs = mixed_workloads();
    for db in &dbs {
        service
            .submit(&MiningRequest::new(Arc::clone(db), cfg))
            .unwrap();
    }
    let stats = service.stats();
    assert_eq!(service.cached_databases(), 2);
    assert_eq!(stats.cache.evictions, 1);
    // The first workload was evicted (LRU): resubmitting misses, rebuilds
    // its index, and still produces the right result.
    let again = service
        .submit(&MiningRequest::new(Arc::clone(&dbs[0]), cfg))
        .unwrap();
    assert_eq!(again.stats.cache, CacheOutcome::Miss);
    // The most-recent workload is still cached.
    let warm = service
        .submit(&MiningRequest::new(Arc::clone(&dbs[2]), cfg))
        .unwrap();
    assert_eq!(warm.stats.cache, CacheOutcome::Hit);
}

fn serial(db: &EventDb, cfg: MinerConfig) -> MiningResult {
    Miner::new(cfg)
        .mine(db, &mut SequentialBackend::default())
        .unwrap()
}

/// Asserts the request's scheduling class reaches every `CountRequest` (the
/// lane the parallel executors submit their pool jobs on).
struct PrioritySpy {
    expected: Priority,
    inner: ShardedScanBackend,
    calls: usize,
}

impl Executor for PrioritySpy {
    fn execute(&mut self, req: &CountRequest<'_>) -> Result<Counts, BackendError> {
        assert_eq!(req.priority(), self.expected, "job-lane priority lost");
        self.calls += 1;
        self.inner.execute(req)
    }

    fn name(&self) -> &str {
        "priority-spy"
    }
}

#[test]
fn priorities_and_admission_are_wired_through() {
    let service = MiningService::new(ServiceConfig {
        workers: 2,
        max_in_flight: 1,
        ..Default::default()
    });
    let db = Arc::new(markov_letters(8_000, 3, 0.5));
    for priority in [Priority::High, Priority::Normal] {
        let req = MiningRequest::new(Arc::clone(&db), mine_config()).priority(priority);
        let mut spy = PrioritySpy {
            expected: priority,
            inner: ShardedScanBackend::auto(),
            calls: 0,
        };
        let resp = service.submit_with(&req, &mut spy).unwrap();
        assert!(resp.result.total_frequent() > 0);
        assert!(spy.calls > 0);
    }
    assert_eq!(service.in_flight(), 0);
    assert_eq!(service.pending(), 0);
}
