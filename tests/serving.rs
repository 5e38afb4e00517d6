//! Serving-layer conformance: the multi-tenant `MiningService` must be
//! *observationally identical* to serial mining under any concurrency.
//!
//! * 16 concurrent clients over one shared pool and mixed workloads
//!   (Markov, spike-train, market-basket) — every response bit-identical to
//!   a serial `Miner::mine` of the same request;
//! * session-cache hits skip session planning (snapshot, shard bounds, buffer
//!   allocation): the compiled candidate buffers keep the **same address**
//!   across requests (asserted with a spy executor);
//! * the cache is keyed on the database alone: a new α on a parked database
//!   hits and runs on the parked compiled buffers, and two concurrent
//!   requests over one database (paper-scan's shape, one α each) both park
//!   and both hit the next time;
//! * cache hit/miss/eviction semantics and db-hash collision safety — two
//!   databases with an equal hash-relevant prefix but different content never
//!   share a session;
//! * session-cache × co-mining interaction: a fused batch takes its
//!   database's parked session like a lone request does, and the session's
//!   compiled buffers keep the same address across the union scans (the
//!   bit-identity of fused results themselves is proven in
//!   `tests/comining.rs`);
//! * **overload-first scheduling**: with a saturated one-slot gate, K queued
//!   same-database requests fuse in the waiting room — joiners hold no
//!   admission slot, the batch is admitted as one unit, and a spy executor
//!   observes exactly one union scan per level instead of K solo runs;
//! * repeated bundles hit the session cache: the fused union scan's
//!   compiled buffers keep the same address across batches, and a bundle
//!   whose members arrive in swapped order still serves each member its own
//!   result;
//! * one LRU for every batch size: lone requests and fused bundles over
//!   different databases evict each other in plain recency order;
//! * a fused batch of three distinct configs serves each member its solo
//!   result;
//! * priority + admission-limit plumbing end to end.

use std::sync::Arc;
use temporal_mining::core::engine::CompiledCandidates;
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
    // 3 workloads, one planned session each; every other request could hit.
    assert!(stats.cache.misses as usize >= dbs.len());
    assert!(
        stats.cache.hits > 0,
        "expected warm-session reuse: {stats:?}"
    );
    assert_eq!(stats.cache.collisions, 0);
}

/// Records the address of every compiled candidate set it executes against.
#[derive(Default)]
struct AddressSpy {
    inner: temporal_mining::baselines::ActiveSetBackend,
    addrs: Vec<usize>,
}

impl Executor for AddressSpy {
    fn execute(&mut self, req: &CountRequest<'_>) -> Result<Counts, BackendError> {
        self.addrs
            .push(req.compiled() as *const CompiledCandidates as usize);
        self.inner.execute(req)
    }

    fn name(&self) -> &str {
        "address-spy"
    }
}

#[test]
fn cache_hits_reuse_the_same_compiled_buffers() {
    let service = MiningService::new(serve_config(2));
    let db = Arc::new(markov_letters(20_000, 5, 0.6));
    let req = MiningRequest::new(Arc::clone(&db), mine_config());

    let mut spy = AddressSpy::default();
    let cold = service.submit_with(&req, &mut spy).unwrap();
    assert_eq!(cold.stats.cache, CacheOutcome::Miss);
    assert!(!spy.addrs.is_empty());
    let cold_addrs = std::mem::take(&mut spy.addrs);

    // Second, third request: cache hits recompile in place into the parked
    // session's buffers — every level executes against the very same
    // compiled allocation the first request planned.
    for round in 0..2 {
        let warm = service.submit_with(&req, &mut spy).unwrap();
        assert_eq!(warm.stats.cache, CacheOutcome::Hit, "round {round}");
        assert_eq!(
            spy.addrs, cold_addrs,
            "round {round}: compiled buffers moved across cached requests"
        );
        assert_eq!(warm.result, cold.result);
        spy.addrs.clear();
    }
}

#[test]
fn a_new_alpha_on_a_parked_database_hits_the_parked_compiled_buffers() {
    let service = MiningService::new(serve_config(2));
    let db = Arc::new(markov_letters(20_000, 9, 0.6));
    let mut spy = AddressSpy::default();
    let cold = service
        .submit_with(
            &MiningRequest::new(Arc::clone(&db), mine_config()),
            &mut spy,
        )
        .unwrap();
    assert_eq!(cold.stats.cache, CacheOutcome::Miss);
    let parked = std::mem::take(&mut spy.addrs);
    assert!(!parked.is_empty());
    assert!(parked.iter().all(|&a| a == parked[0]));

    // A threshold this database has never been mined at: the parked
    // session is re-targeted to it, not re-planned.
    let config = MinerConfig {
        alpha: 0.004,
        max_level: Some(3),
        ..Default::default()
    };
    let warm = service
        .submit_with(&MiningRequest::new(Arc::clone(&db), config), &mut spy)
        .unwrap();
    assert_eq!(warm.stats.cache, CacheOutcome::Hit);
    assert_eq!(warm.stats.key, cold.stats.key);
    let serial = Miner::new(config)
        .mine(db.as_ref(), &mut SequentialBackend::default())
        .unwrap();
    assert_eq!(warm.result, serial);
    assert!(!spy.addrs.is_empty());
    assert!(
        spy.addrs.iter().all(|&a| a == parked[0]),
        "a new α must count on the parked session's compiled buffers"
    );
    assert_eq!(service.cached_sessions(), 1);
}

/// Holds every request at its first scan until `parties` requests are all
/// inside one, so that many sessions are out of the cache at once.
struct GateExecutor {
    inner: temporal_mining::baselines::ActiveSetBackend,
    gate: Arc<std::sync::Barrier>,
    passed: bool,
}

impl Executor for GateExecutor {
    fn execute(&mut self, req: &CountRequest<'_>) -> Result<Counts, BackendError> {
        if !self.passed {
            self.passed = true;
            self.gate.wait();
        }
        self.inner.execute(req)
    }

    fn name(&self) -> &str {
        "gate"
    }
}

#[test]
fn concurrent_requests_with_different_alphas_each_park_and_each_hit() {
    // Paper-scan's shape: two lanes mine one database at once, one α each.
    // Both sessions are taken out together, so both must be parked again —
    // one entry per database would make one lane miss on every overlap.
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
            max_level: Some(3),
            ..Default::default()
        },
    ];
    let serial: Vec<MiningResult> = configs
        .iter()
        .map(|cfg| {
            Miner::new(*cfg)
                .mine(db.as_ref(), &mut SequentialBackend::default())
                .unwrap()
        })
        .collect();
    let concurrent_round = || {
        let gate = Arc::new(std::sync::Barrier::new(configs.len()));
        std::thread::scope(|s| {
            let lanes: Vec<_> = configs
                .iter()
                .map(|cfg| {
                    let service = Arc::clone(&service);
                    let req = MiningRequest::new(Arc::clone(&db), *cfg);
                    let gate = Arc::clone(&gate);
                    s.spawn(move || {
                        let mut executor = GateExecutor {
                            inner: Default::default(),
                            gate,
                            passed: false,
                        };
                        service.submit_with(&req, &mut executor).unwrap()
                    })
                })
                .collect();
            lanes
                .into_iter()
                .map(|lane| lane.join().unwrap())
                .collect::<Vec<_>>()
        })
    };

    let first = concurrent_round();
    assert!(first.iter().all(|r| r.stats.cache == CacheOutcome::Miss));
    assert_eq!(service.cached_sessions(), 2, "both lanes park");
    let second = concurrent_round();
    assert!(
        second.iter().all(|r| r.stats.cache == CacheOutcome::Hit),
        "both lanes must find a parked session"
    );
    assert_eq!(service.cached_sessions(), 2);
    for (round, responses) in [first, second].iter().enumerate() {
        for (resp, want) in responses.iter().zip(&serial) {
            assert_eq!(resp.result, *want, "round {round}");
        }
    }
    let stats = service.stats();
    assert_eq!((stats.cache.hits, stats.cache.misses), (2, 2));
}

#[test]
fn equal_prefix_different_content_never_shares_a_session() {
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
    assert_eq!(service.cached_sessions(), 2);

    // Each db re-hits its own session, and the results replay exactly.
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
    assert_eq!(service.cached_sessions(), 2);
    assert_eq!(stats.cache.evictions, 1);
    // The first workload was evicted (LRU): resubmitting misses, re-plans,
    // and still produces the right result.
    let again = service
        .submit(&MiningRequest::new(Arc::clone(&dbs[0]), cfg))
        .unwrap();
    assert_eq!(again.stats.cache, CacheOutcome::Miss);
    // The most-recent workload is still parked.
    let warm = service
        .submit(&MiningRequest::new(Arc::clone(&dbs[2]), cfg))
        .unwrap();
    assert_eq!(warm.stats.cache, CacheOutcome::Hit);
}

#[test]
fn cache_hits_may_join_a_batch_and_parked_sessions_stay_stable_after_union_scans() {
    // Window 300ms: lone requests pay the window then fall back to the solo
    // cache path; concurrent same-db requests fuse. max_batch 2 closes the
    // staged batch immediately.
    let service = Arc::new(MiningService::new(ServiceConfig {
        workers: 2,
        max_in_flight: 4,
        comine_window: std::time::Duration::from_millis(300),
        comine_max_batch: 2,
        ..Default::default()
    }));
    let db = Arc::new(markov_letters(15_000, 41, 0.6));
    let cfg_a = mine_config();
    let cfg_b = MinerConfig {
        alpha: 0.01,
        ..mine_config()
    };
    let req_a = MiningRequest::new(Arc::clone(&db), cfg_a);

    // Park a session for the database and record its compiled-buffer
    // address.
    let mut spy = AddressSpy::default();
    let cold = service.submit_with(&req_a, &mut spy).unwrap();
    assert_eq!(cold.stats.cache, CacheOutcome::Miss);
    let parked_addrs = std::mem::take(&mut spy.addrs);
    assert!(!parked_addrs.is_empty());

    // A request that would be a cache hit on its own can still lead a
    // batch: submit cfg_a and cfg_b concurrently. Both must be served from
    // the fused scan, bit-identical to serial mining, and the batch runs on
    // the database's parked session.
    let serial_a = Miner::new(cfg_a)
        .mine(db.as_ref(), &mut SequentialBackend::default())
        .unwrap();
    let serial_b = Miner::new(cfg_b)
        .mine(db.as_ref(), &mut SequentialBackend::default())
        .unwrap();
    assert_eq!(cold.result, serial_a);
    std::thread::scope(|s| {
        let leader = {
            let service = Arc::clone(&service);
            let req = req_a.clone();
            s.spawn(move || {
                let mut spy = AddressSpy::default();
                let resp = service.submit_with(&req, &mut spy).unwrap();
                (resp, spy.addrs)
            })
        };
        while service.open_batches() == 0 {
            std::thread::yield_now();
        }
        let joiner = {
            let service = Arc::clone(&service);
            let req = MiningRequest::new(Arc::clone(&db), cfg_b);
            s.spawn(move || service.submit(&req).unwrap())
        };
        let (la, union_addrs) = leader.join().unwrap();
        let jb = joiner.join().unwrap();
        assert_eq!((la.stats.cache, la.stats.batch), (CacheOutcome::Hit, 2));
        assert_eq!((jb.stats.cache, jb.stats.batch), (CacheOutcome::Hit, 2));
        assert_eq!(la.result, serial_a);
        assert_eq!(jb.result, serial_b);
        assert!(!union_addrs.is_empty());
        assert!(
            union_addrs.iter().all(|&a| a == parked_addrs[0]),
            "the union scans ran outside the parked session's buffers"
        );
    });
    let stats = service.stats();
    assert_eq!(stats.comining.batches, 1);
    assert_eq!(stats.comining.fused_requests, 2);
    assert_eq!(service.cached_sessions(), 1);

    // The batch parked the same session again: the next solo request hits
    // the cache and executes against the *same* compiled allocation as
    // before the batch.
    let warm = service.submit_with(&req_a, &mut spy).unwrap();
    assert_eq!(warm.stats.cache, CacheOutcome::Hit);
    assert_eq!(warm.result, serial_a);
    assert_eq!(
        spy.addrs, parked_addrs,
        "union scan moved a parked session's compiled buffers"
    );
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

/// Counts executor invocations — the instrument for "one union scan per
/// level, not K solo runs" (same shape as the spy in `tests/comining.rs`).
#[derive(Default)]
struct ScanSpy {
    inner: temporal_mining::baselines::ActiveSetBackend,
    calls: usize,
}

impl Executor for ScanSpy {
    fn execute(&mut self, req: &CountRequest<'_>) -> Result<Counts, BackendError> {
        self.calls += 1;
        self.inner.execute(req)
    }

    fn name(&self) -> &str {
        "scan-spy"
    }
}

/// Blocks inside its first scan until released — pins the admission gate's
/// only slot while other requests pile up behind it.
struct GateHolder {
    inner: temporal_mining::baselines::ActiveSetBackend,
    started: Arc<(std::sync::Mutex<bool>, std::sync::Condvar)>,
    release: Arc<(std::sync::Mutex<bool>, std::sync::Condvar)>,
}

impl Executor for GateHolder {
    fn execute(&mut self, req: &CountRequest<'_>) -> Result<Counts, BackendError> {
        {
            let (flag, cv) = &*self.started;
            *flag.lock().unwrap() = true;
            cv.notify_all();
        }
        let (flag, cv) = &*self.release;
        let mut go = flag.lock().unwrap();
        while !*go {
            go = cv.wait(go).unwrap();
        }
        drop(go);
        self.inner.execute(req)
    }

    fn name(&self) -> &str {
        "gate-holder"
    }
}

#[test]
fn saturated_gate_fuses_queued_requests_into_one_union_scan_per_level() {
    // One in-flight slot, held hostage by a request (over a *different*
    // database) blocked inside its scan. K = 3 same-database requests then
    // pile up: the first queues at the gate as a batch leader; the other two
    // park in the waiting room holding NO admission slot. When the gate
    // frees, the whole batch is admitted as one unit and served by one union
    // scan per level — not 3 serialized solo runs.
    let service = Arc::new(MiningService::new(ServiceConfig {
        workers: 2,
        max_in_flight: 1,
        comine_window: std::time::Duration::from_millis(300),
        comine_max_batch: 3,
        ..Default::default()
    }));
    let db = Arc::new(markov_letters(15_000, 43, 0.6));
    let other_db = Arc::new(markov_letters(8_000, 7, 0.5));
    let configs = [
        mine_config(),
        MinerConfig {
            alpha: 0.005,
            ..mine_config()
        },
        MinerConfig {
            alpha: 0.02,
            max_level: Some(3),
            ..mine_config()
        },
    ];
    let serial: Vec<MiningResult> = configs
        .iter()
        .map(|cfg| {
            Miner::new(*cfg)
                .mine(db.as_ref(), &mut SequentialBackend::default())
                .unwrap()
        })
        .collect();

    let started = Arc::new((std::sync::Mutex::new(false), std::sync::Condvar::new()));
    let release = Arc::new((std::sync::Mutex::new(false), std::sync::Condvar::new()));
    std::thread::scope(|s| {
        let holder = {
            let service = Arc::clone(&service);
            let req = MiningRequest::new(Arc::clone(&other_db), mine_config());
            let started = Arc::clone(&started);
            let release = Arc::clone(&release);
            s.spawn(move || {
                let mut holder = GateHolder {
                    inner: Default::default(),
                    started,
                    release,
                };
                service.submit_with(&req, &mut holder).unwrap()
            })
        };
        // The holder is inside its first scan: the only slot is taken.
        {
            let (flag, cv) = &*started;
            let mut up = flag.lock().unwrap();
            while !*up {
                up = cv.wait(up).unwrap();
            }
        }
        assert_eq!(service.in_flight(), 1);

        // The leader queues at the gate with an open batch on the board.
        let leader = {
            let service = Arc::clone(&service);
            let req = MiningRequest::new(Arc::clone(&db), configs[0]);
            s.spawn(move || {
                let mut spy = ScanSpy::default();
                let resp = service.submit_with(&req, &mut spy).unwrap();
                (resp, spy.calls)
            })
        };
        while service.open_batches() == 0 || service.pending() == 0 {
            std::thread::yield_now();
        }

        // Two more same-db requests join the queued leader's batch.
        let joiners: Vec<_> = configs[1..]
            .iter()
            .map(|cfg| {
                let service = Arc::clone(&service);
                let req = MiningRequest::new(Arc::clone(&db), *cfg);
                s.spawn(move || {
                    let mut spy = ScanSpy::default();
                    let resp = service.submit_with(&req, &mut spy).unwrap();
                    (resp, spy.calls)
                })
            })
            .collect();
        while service.waiting_joiners() < 2 {
            std::thread::yield_now();
        }
        // Joiners ride the leader's slot: nothing new at the gate.
        assert_eq!(service.in_flight(), 1, "joiners must not take slots");
        assert_eq!(service.pending(), 1, "only the leader queues at the gate");

        // Free the gate: the fused batch is admitted as one unit.
        {
            let (flag, cv) = &*release;
            *flag.lock().unwrap() = true;
            cv.notify_all();
        }
        holder.join().unwrap();

        let (leader_resp, leader_calls) = leader.join().unwrap();
        let deepest = serial.iter().map(|r| r.levels.len()).max().unwrap();
        let solo_scan_total: usize = serial.iter().map(|r| r.levels.len()).sum();
        assert_eq!(
            leader_calls, deepest,
            "expected exactly one union scan per level"
        );
        assert!(
            leader_calls < solo_scan_total,
            "fusion must beat {solo_scan_total} serialized solo scans"
        );
        assert_eq!(leader_resp.stats.batch, 3);
        assert_eq!(leader_resp.result, serial[0]);
        for (i, joiner) in joiners.into_iter().enumerate() {
            let (resp, calls) = joiner.join().unwrap();
            assert_eq!(calls, 0, "joiner {i}'s own executor must never run");
            assert_eq!(resp.stats.batch, 3, "joiner {i}");
            assert_eq!(resp.result, serial[i + 1], "joiner {i} diverged");
        }
    });
    let stats = service.stats();
    assert_eq!(stats.completed, 4);
    assert_eq!(stats.comining.batches, 1);
    assert_eq!(stats.comining.fused_requests, 3);
    assert_eq!(
        stats.comining.waiting_room_joins, 2,
        "both joiners joined while the leader was still queued"
    );
    assert_eq!(
        stats.comining.solo_fallbacks, 1,
        "the gate holder mined solo"
    );
}

#[test]
fn repeated_bundles_hit_the_co_session_cache_with_stable_buffers() {
    // The same two-config bundle fused twice: the second batch must take the
    // database's parked session from the session cache and recompile in
    // place — the union scan executes against the *same* compiled allocation
    // both times. Its members arrive in swapped order: the session mines
    // them in batch order, so each member still gets its own result.
    let service = Arc::new(MiningService::new(ServiceConfig {
        workers: 2,
        max_in_flight: 4,
        comine_window: std::time::Duration::from_secs(5),
        comine_max_batch: 2,
        ..Default::default()
    }));
    let db = Arc::new(markov_letters(15_000, 17, 0.6));
    let cfg_a = mine_config();
    let cfg_b = MinerConfig {
        alpha: 0.01,
        ..mine_config()
    };

    // (result for cfg_a, result for cfg_b, leader's compiled addresses).
    let mut rounds: Vec<(MiningResult, MiningResult, Vec<usize>)> = Vec::new();
    for (round, (lead_cfg, join_cfg)) in [(cfg_a, cfg_b), (cfg_b, cfg_a)].into_iter().enumerate() {
        std::thread::scope(|s| {
            let leader = {
                let service = Arc::clone(&service);
                let req = MiningRequest::new(Arc::clone(&db), lead_cfg);
                s.spawn(move || {
                    let mut spy = AddressSpy::default();
                    let resp = service.submit_with(&req, &mut spy).unwrap();
                    (resp, spy.addrs)
                })
            };
            while service.open_batches() == 0 {
                std::thread::yield_now();
            }
            let joiner = {
                let service = Arc::clone(&service);
                let req = MiningRequest::new(Arc::clone(&db), join_cfg);
                s.spawn(move || service.submit(&req).unwrap())
            };
            let (lead_resp, addrs) = leader.join().unwrap();
            let join_resp = joiner.join().unwrap();
            assert_eq!(lead_resp.stats.batch, 2, "round {round}");
            assert_eq!(join_resp.stats.batch, 2, "round {round}");
            assert!(!addrs.is_empty());
            let (for_a, for_b) = if round == 0 {
                (lead_resp.result, join_resp.result)
            } else {
                (join_resp.result, lead_resp.result)
            };
            rounds.push((for_a, for_b, addrs));
        });
    }
    assert_eq!(
        rounds[0].2, rounds[1].2,
        "cached bundle session's compiled union buffers moved across batches"
    );
    let serial_a = Miner::new(cfg_a)
        .mine(db.as_ref(), &mut SequentialBackend::default())
        .unwrap();
    let serial_b = Miner::new(cfg_b)
        .mine(db.as_ref(), &mut SequentialBackend::default())
        .unwrap();
    for (round, (for_a, for_b, _)) in rounds.iter().enumerate() {
        assert_eq!(*for_a, serial_a, "round {round} cfg_a diverged");
        assert_eq!(*for_b, serial_b, "round {round} cfg_b diverged");
    }
    let stats = service.stats();
    assert_eq!(stats.comining.batches, 2);
    assert_eq!(stats.cache.misses, 1, "first bundle plans the session");
    assert_eq!(stats.cache.hits, 1, "second bundle must reuse it");
    assert_eq!(stats.cache.collisions, 0);
    assert_eq!(service.cached_sessions(), 1);
}

#[test]
fn one_lru_holds_sessions_for_every_batch_size() {
    // Two slots shared by lone requests (batches of one) and a fused
    // two-member bundle, each over its own database: the third insertion
    // evicts the least recently used entry whatever its batch size, and the
    // bundle still hits afterwards.
    let service = Arc::new(MiningService::new(ServiceConfig {
        workers: 2,
        max_in_flight: 4,
        cache_capacity: 2,
        comine_window: std::time::Duration::from_millis(300),
        comine_max_batch: 2,
        ..Default::default()
    }));
    let [lone_db, bundle_db, other_db] =
        [23, 24, 25].map(|seed| Arc::new(markov_letters(12_000, seed, 0.6)));
    let [cfg_a, cfg_b, cfg_c, cfg_d] = [0.001, 0.002, 0.005, 0.01].map(|alpha| MinerConfig {
        alpha,
        ..mine_config()
    });
    let bundle = |lead_cfg: MinerConfig, join_cfg: MinerConfig| {
        std::thread::scope(|s| {
            let leader = {
                let service = Arc::clone(&service);
                let req = MiningRequest::new(Arc::clone(&bundle_db), lead_cfg);
                s.spawn(move || service.submit(&req).unwrap())
            };
            while service.open_batches() == 0 {
                std::thread::yield_now();
            }
            let joiner = {
                let service = Arc::clone(&service);
                let req = MiningRequest::new(Arc::clone(&bundle_db), join_cfg);
                s.spawn(move || service.submit(&req).unwrap())
            };
            (leader.join().unwrap(), joiner.join().unwrap())
        })
    };

    // A lone leader: its window closes empty, it mines as a batch of one.
    let lone = service
        .submit(&MiningRequest::new(Arc::clone(&lone_db), cfg_a))
        .unwrap();
    assert_eq!(
        (lone.stats.cache, lone.stats.batch),
        (CacheOutcome::Miss, 1)
    );
    // A fused two-member bundle: the second entry.
    let (lead, join) = bundle(cfg_b, cfg_c);
    assert_eq!(
        (lead.stats.cache, lead.stats.batch),
        (CacheOutcome::Miss, 2)
    );
    assert_eq!(join.stats.batch, 2);
    // A second lone leader on a third database: the third insertion evicts
    // the first.
    let other = service
        .submit(&MiningRequest::new(Arc::clone(&other_db), cfg_d))
        .unwrap();
    assert_eq!(
        (other.stats.cache, other.stats.batch),
        (CacheOutcome::Miss, 1)
    );
    let stats = service.stats();
    assert_eq!(stats.cache.evictions, 1);
    assert_eq!(service.cached_sessions(), 2);

    // The bundle's second round (members swapped) finds its session parked.
    let (lead, join) = bundle(cfg_c, cfg_b);
    assert_eq!((lead.stats.cache, lead.stats.batch), (CacheOutcome::Hit, 2));
    assert_eq!((join.stats.cache, join.stats.batch), (CacheOutcome::Hit, 2));
    let serial = |cfg| {
        Miner::new(cfg)
            .mine(bundle_db.as_ref(), &mut SequentialBackend::default())
            .unwrap()
    };
    assert_eq!(lead.result, serial(cfg_c));
    assert_eq!(join.result, serial(cfg_b));
    // The evicted lone request misses again and re-plans.
    let again = service
        .submit(&MiningRequest::new(Arc::clone(&lone_db), cfg_a))
        .unwrap();
    assert_eq!(again.stats.cache, CacheOutcome::Miss);
    assert_eq!(again.result, lone.result);
    let stats = service.stats();
    assert_eq!((stats.cache.hits, stats.cache.misses), (1, 4));
    assert_eq!(stats.comining.batches, 2);
}

#[test]
fn fused_batches_vote_on_the_backend() {
    // A leader and two joiners with distinct configs fuse into one batch;
    // its one level loop must serve every member its solo result.
    let service = Arc::new(MiningService::new(ServiceConfig {
        workers: 2,
        max_in_flight: 4,
        comine_window: std::time::Duration::from_secs(5),
        comine_max_batch: 3,
        ..Default::default()
    }));
    let db = Arc::new(markov_letters(12_000, 5, 0.6));
    let configs = [
        mine_config(),
        MinerConfig {
            alpha: 0.005,
            ..mine_config()
        },
        MinerConfig {
            alpha: 0.02,
            ..mine_config()
        },
    ];
    let serial: Vec<MiningResult> = configs
        .iter()
        .map(|cfg| {
            Miner::new(*cfg)
                .mine(db.as_ref(), &mut SequentialBackend::default())
                .unwrap()
        })
        .collect();
    std::thread::scope(|s| {
        let leader = {
            let service = Arc::clone(&service);
            let req = MiningRequest::new(Arc::clone(&db), configs[0]);
            s.spawn(move || service.submit(&req).unwrap())
        };
        while service.open_batches() == 0 {
            std::thread::yield_now();
        }
        let joiners: Vec<_> = configs[1..]
            .iter()
            .map(|cfg| {
                let service = Arc::clone(&service);
                let req = MiningRequest::new(Arc::clone(&db), *cfg);
                s.spawn(move || service.submit(&req).unwrap())
            })
            .collect();
        assert_eq!(leader.join().unwrap().result, serial[0]);
        for (i, joiner) in joiners.into_iter().enumerate() {
            assert_eq!(joiner.join().unwrap().result, serial[i + 1], "joiner {i}");
        }
    });
    let stats = service.stats();
    assert_eq!(stats.comining.batches, 1);
    assert_eq!(stats.comining.fused_requests, 3);
}
