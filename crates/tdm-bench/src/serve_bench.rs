//! Real-CPU throughput benchmark of the serving layer (`tdm-serve`): QPS and
//! latency percentiles under concurrent clients.
//!
//! The counting benchmark ([`crate::counting_bench`]) measures one scan at a
//! time; this one measures the *service* shape the ROADMAP's north star asks
//! for: many clients submitting full mining requests against one
//! [`MiningService`] — one shared pool, fair admission, the index cache in
//! the loop. Each client-count rung (1, 4, 16 by default) runs a mixed
//! workload (Markov letters, spike trains, market baskets) and reports QPS
//! plus p50/p95 per-request latency; the headline
//! `qps_16_clients_vs_1` ratio — how much total throughput grows when 16
//! tenants share the machine instead of 1 — goes top-level in the JSON
//! artifact (`BENCH_serve.json`). Every response is checked bit-identical to
//! a serial `Miner::mine` of the same request before it counts.
//!
//! Further scenarios ride along:
//!
//! * **open loop** ([`run_open_loop`], `reproduce --serve-open-loop`) —
//!   arrivals follow a deterministic Poisson-like schedule at a target rate,
//!   so admission-gate queueing delay is reported separately from service
//!   time (the closed-loop rungs hide queueing by construction: a client
//!   only submits again after its previous request completes).
//! * **streaming ingestion** ([`StreamingPoint`]) — the same LCG machinery
//!   drives an open-loop *append* process: the Markov workload arrives in
//!   small batches against a `tdm_core::StreamingSession`, and each batch is
//!   counted once incrementally and once by a full batch rescan of the grown
//!   prefix. Counts are asserted bit-identical per batch; the
//!   `incremental_vs_rescan_ratio` headline (rescan wall / incremental wall)
//!   goes top-level in the JSON.
//! * **socket path** ([`SocketBench`]) — the same closed-loop load pushed
//!   through a real `tdm-server` TCP listener on loopback: length-prefixed
//!   JSON frames, per-tenant authentication, the whole wire stack. Every
//!   reply is checked byte-identical to the serially mined result encoded
//!   through the same wire serializer. Two headlines go top-level in the
//!   JSON: `socket_qps_16_clients_vs_1` (socket-path scaling, the network
//!   twin of `qps_16_clients_vs_1`) and `socket_vs_inprocess_overhead`
//!   (in-process QPS over socket QPS at 1 client — what the wire costs).

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use tdm_core::engine::{CompiledCandidates, CountScratch};
use tdm_core::miner::{Miner, MinerConfig, SequentialBackend};
use tdm_core::stats::MiningResult;
use tdm_core::{Alphabet, Episode, EventDb, StreamingSession};
use tdm_mapreduce::pool::default_workers;
use tdm_serve::{MiningRequest, MiningService, ServiceConfig};
use tdm_server::client::mine_request;
use tdm_server::json::Value;
use tdm_server::{wire, Client, Server, ServerConfig, TenantConfig};
use tdm_workloads::{
    basket::{market_basket, BasketConfig},
    markov_letters,
    spikes::{spike_trains, SpikeTrainConfig},
};

/// Benchmark parameters.
#[derive(Debug, Clone)]
pub struct ServeBenchConfig {
    /// Workload scale in (0, 1]: scales every stream length relative to the
    /// full-size mixed workload (≈100k symbols across the three streams).
    pub scale: f64,
    /// Concurrent-client rungs to measure (paper-style sweep: 1, 4, 16).
    pub client_counts: Vec<usize>,
    /// Mining requests each client submits per rung.
    pub requests_per_client: usize,
    /// Shared-pool workers (0 = the machine's available parallelism).
    pub workers: usize,
    /// Mining configuration every request uses.
    pub mining: MinerConfig,
}

impl Default for ServeBenchConfig {
    fn default() -> Self {
        ServeBenchConfig {
            scale: 1.0,
            client_counts: vec![1, 4, 16],
            requests_per_client: 6,
            workers: 0,
            mining: MinerConfig {
                alpha: 0.001,
                max_level: Some(2),
                ..Default::default()
            },
        }
    }
}

/// One client-count rung's measurements.
#[derive(Debug, Clone)]
pub struct LoadPoint {
    /// Concurrent clients.
    pub clients: usize,
    /// Total requests completed.
    pub requests: usize,
    /// Wall time of the whole rung, seconds.
    pub wall_s: f64,
    /// Completed requests per second of wall time.
    pub qps: f64,
    /// Median per-request latency, milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile per-request latency, milliseconds.
    pub p95_ms: f64,
    /// Index-cache hits across the rung.
    pub cache_hits: u64,
    /// Index-cache misses across the rung.
    pub cache_misses: u64,
}

/// The streaming-ingestion scenario: the Markov workload replayed as an
/// open-loop append process (LCG-sized arrival batches) against a
/// [`StreamingSession`], versus a rescan baseline that recounts the whole
/// grown prefix from scratch after every batch — what a service without an
/// incremental path would do on each re-mine trigger. Every batch's
/// incremental counts are asserted bit-identical to the rescan's before the
/// ratio is reported.
#[derive(Debug, Clone)]
pub struct StreamingPoint {
    /// Append batches the arrival schedule produced.
    pub appends: usize,
    /// Symbols pre-loaded before the first append.
    pub base_symbols: usize,
    /// Symbols appended across all batches.
    pub appended_symbols: usize,
    /// Episodes tracked by the session (pairs and triples over the
    /// workload's busiest symbols, repeated-item shapes included).
    pub episodes: usize,
    /// Wall time of all incremental appends, seconds.
    pub incremental_wall_s: f64,
    /// Wall time of the full-prefix rescans, seconds.
    pub rescan_wall_s: f64,
    /// The headline: rescan wall over incremental wall (> 1 = resuming the
    /// scan state kept at the stream head beats recounting history).
    pub ratio: f64,
}

/// Runs the streaming scenario (see [`StreamingPoint`]) over `db`'s symbol
/// stream: the first half is the pre-loaded base, the second half arrives in
/// LCG-sized batches (~150 across the stream, so the append count — and with
/// it the rescan penalty — is scale-independent).
fn run_streaming(db: &Arc<EventDb>) -> StreamingPoint {
    let symbols = db.symbols().to_vec();
    let n = symbols.len();
    let base = n / 2;

    // Episode set: ordered pairs over the six busiest symbols (the diagonal
    // gives repeated-item pairs) plus a few triples — stand-ins for the
    // level-2/3 candidates a re-mine would track.
    let mut hist = [0u64; 256];
    for &c in &symbols {
        hist[c as usize] += 1;
    }
    let mut busiest: Vec<u8> = (0..db.alphabet().len() as u8)
        .filter(|&c| hist[c as usize] > 0)
        .collect();
    busiest.sort_by_key(|&c| std::cmp::Reverse(hist[c as usize]));
    busiest.truncate(6);
    let mut episodes = Vec::new();
    for &a in &busiest {
        for &b in &busiest {
            episodes.push(Episode::new(vec![a, b]).expect("non-empty episode"));
        }
    }
    for w in busiest.windows(3) {
        episodes.push(Episode::new(vec![w[0], w[1], w[2]]).expect("non-empty episode"));
        episodes.push(Episode::new(vec![w[0], w[0], w[1]]).expect("non-empty episode"));
    }

    // The open-loop append process: LCG-sized arrival batches draining the
    // second half of the stream.
    let max_chunk = (n / 300).max(16) as f64;
    let mut state = 0x51AE_A11Du64;
    let mut chunks: Vec<std::ops::Range<usize>> = Vec::new();
    let mut at = base;
    while at < n {
        let size = 1 + (lcg_uniform(&mut state) * max_chunk) as usize;
        let end = (at + size).min(n);
        chunks.push(at..end);
        at = end;
    }

    // Incremental: one StreamingSession, each batch counted by resuming the
    // scan from the state it left at the stream head.
    let base_db = EventDb::new(db.alphabet().clone(), symbols[..base].to_vec())
        .expect("base stream rebuild failed");
    let mut live =
        StreamingSession::new(&base_db, &episodes).expect("streaming session build failed");
    let mut incremental_wall_s = 0.0;
    let mut after: Vec<Vec<u64>> = Vec::with_capacity(chunks.len());
    for r in &chunks {
        let t = Instant::now();
        live.append(&symbols[r.clone()])
            .expect("streaming append failed");
        incremental_wall_s += t.elapsed().as_secs_f64();
        after.push(live.counts().to_vec());
    }

    // Rescan baseline: recount the whole grown prefix after every batch
    // (compile hoisted out — the scan, not compilation, is what the
    // incremental path saves). Each rescan doubles as the bit-identical
    // ground truth for the incremental counts above.
    let compiled = CompiledCandidates::compile(db.alphabet().len(), &episodes);
    let mut scratch = CountScratch::new();
    let mut rescan_wall_s = 0.0;
    for (r, want) in chunks.iter().zip(&after) {
        let t = Instant::now();
        let counts = compiled.count(&symbols[..r.end], &mut scratch);
        rescan_wall_s += t.elapsed().as_secs_f64();
        assert_eq!(
            &counts, want,
            "incremental counts diverged from a batch rescan of the same prefix"
        );
    }

    StreamingPoint {
        appends: chunks.len(),
        base_symbols: base,
        appended_symbols: n - base,
        episodes: episodes.len(),
        incremental_wall_s,
        rescan_wall_s,
        ratio: rescan_wall_s / incremental_wall_s.max(1e-9),
    }
}

/// One client-count rung of the socket-path scenario.
#[derive(Debug, Clone)]
pub struct SocketPoint {
    /// Concurrent TCP clients (one persistent connection each).
    pub clients: usize,
    /// Total requests completed.
    pub requests: usize,
    /// Wall time of the whole rung, seconds.
    pub wall_s: f64,
    /// Completed requests per second of wall time.
    pub qps: f64,
    /// Median per-request latency (frame out to reply parsed), milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile per-request latency, milliseconds.
    pub p95_ms: f64,
}

/// The socket-path scenario: the closed-loop Markov load replayed through a
/// real `tdm-server` TCP listener on loopback — length-prefixed JSON frames,
/// tenant authentication, per-request database decode — next to an
/// in-process baseline submitting the identical request stream straight into
/// a [`MiningService`].
#[derive(Debug, Clone)]
pub struct SocketBench {
    /// Symbols in the Markov stream every request ships inline.
    pub symbols: usize,
    /// In-process baseline QPS at 1 client (same requests, no wire).
    pub inprocess_qps_1: f64,
    /// The scaling headline: socket QPS at the largest rung over socket QPS
    /// at 1 client (0.0 when either rung was not measured).
    pub qps_16_clients_vs_1: f64,
    /// The overhead headline: in-process QPS over socket QPS at 1 client
    /// (> 1 = the wire costs; framing + JSON + per-request database decode).
    pub vs_inprocess_overhead: f64,
    /// Per-rung socket measurements.
    pub points: Vec<SocketPoint>,
}

/// Runs the socket-path scenario (see [`SocketBench`]) on the Markov
/// workload: an in-process 1-client baseline, then the same closed loop
/// through a loopback `tdm-server` at each rung in `cfg.client_counts`.
/// Every reply's `result` object is checked byte-identical to the serial
/// ground truth pushed through the same wire serializer.
fn run_socket(cfg: &ServeBenchConfig, db: &Arc<EventDb>) -> SocketBench {
    let per_client = cfg.requests_per_client.max(1);
    let letters: String = db.symbols().iter().map(|&s| (b'A' + s) as char).collect();
    let serial = Miner::new(cfg.mining)
        .mine(db.as_ref(), &mut SequentialBackend::default())
        .expect("serial reference mining failed");
    // The ground truth, encoded through the very serializer the server uses:
    // replies must match byte for byte.
    let want = wire::mining_result_value(&serial, &Alphabet::latin26()).encode();

    // In-process baseline: the identical request stream (same db, same
    // config) submitted straight into a service.
    let inprocess_qps_1 = {
        let service = MiningService::new(ServiceConfig {
            workers: cfg.workers,
            max_in_flight: default_workers(),
            ..Default::default()
        });
        let request = MiningRequest::new(Arc::clone(db), cfg.mining);
        request.key();
        let started = Instant::now();
        for _ in 0..per_client {
            let resp = service
                .submit(&request)
                .expect("in-process baseline request failed");
            assert_eq!(resp.result, serial, "in-process baseline diverged");
        }
        per_client as f64 / started.elapsed().as_secs_f64().max(1e-9)
    };

    let mut points = Vec::new();
    for &clients in &cfg.client_counts {
        let clients = clients.max(1);
        // Persistent connections pin a handler each for the whole rung, so
        // the handler pool must match the client count.
        let server = Server::bind(ServerConfig {
            handler_threads: clients,
            backlog: clients,
            service: ServiceConfig {
                workers: cfg.workers,
                max_in_flight: clients.max(default_workers()),
                ..Default::default()
            },
            tenants: vec![TenantConfig::new("bench", "bench")],
            ..Default::default()
        })
        .expect("socket bench listener failed to bind");
        let addr = server.addr();
        let latencies = Arc::new(Mutex::new(Vec::<f64>::new()));
        let started = Instant::now();
        std::thread::scope(|s| {
            for _ in 0..clients {
                let latencies = Arc::clone(&latencies);
                let letters = &letters;
                let want = &want;
                s.spawn(move || {
                    let mut conn =
                        Client::connect(addr).expect("socket bench client failed to connect");
                    let mut local = Vec::with_capacity(per_client);
                    for _ in 0..per_client {
                        let request = mine_request(
                            "bench",
                            "bench",
                            letters,
                            cfg.mining.alpha,
                            cfg.mining.max_level,
                            None,
                            None,
                            None,
                        );
                        let t = Instant::now();
                        let reply = conn.call(&request).expect("socket bench request failed");
                        local.push(t.elapsed().as_secs_f64() * 1e3);
                        assert_eq!(
                            reply.get("type").and_then(Value::as_str),
                            Some("mine_result"),
                            "socket bench reply was not a result: {}",
                            reply.encode()
                        );
                        let got = reply
                            .get("result")
                            .expect("mine_result without a result object")
                            .encode();
                        assert_eq!(&got, want, "socket reply diverged from serial mining");
                    }
                    latencies.lock().expect("socket latencies").extend(local);
                });
            }
        });
        let wall_s = started.elapsed().as_secs_f64();
        server.shutdown();
        let mut lat = Arc::try_unwrap(latencies)
            .expect("latency collector still shared")
            .into_inner()
            .expect("socket latencies");
        lat.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        points.push(SocketPoint {
            clients,
            requests: lat.len(),
            wall_s,
            qps: lat.len() as f64 / wall_s.max(1e-9),
            p50_ms: percentile(&lat, 0.50),
            p95_ms: percentile(&lat, 0.95),
        });
    }

    let qps_of = |n: usize| {
        points
            .iter()
            .find(|p| p.clients == n)
            .map(|p| p.qps)
            .unwrap_or(0.0)
    };
    let qps_16_clients_vs_1 = if qps_of(1) > 0.0 && qps_of(16) > 0.0 {
        qps_of(16) / qps_of(1)
    } else {
        0.0
    };
    let vs_inprocess_overhead = if qps_of(1) > 0.0 {
        inprocess_qps_1 / qps_of(1)
    } else {
        0.0
    };
    SocketBench {
        symbols: db.len(),
        inprocess_qps_1,
        qps_16_clients_vs_1,
        vs_inprocess_overhead,
        points,
    }
}

/// One open-loop run: requests arrive on a deterministic Poisson-like
/// schedule at a target rate (instead of closed-loop resubmission), so
/// queueing delay at the admission gate is visible separately from service
/// time.
#[derive(Debug, Clone)]
pub struct OpenLoopReport {
    /// Target arrival rate, requests/second.
    pub rate_hz: f64,
    /// Arrivals generated.
    pub requests: usize,
    /// Wall time from first arrival to last completion, seconds.
    pub wall_s: f64,
    /// Completions per second of wall time.
    pub achieved_rate_hz: f64,
    /// Mean admission-gate queueing delay, milliseconds.
    pub mean_queue_ms: f64,
    /// 95th-percentile queueing delay, milliseconds.
    pub p95_queue_ms: f64,
    /// Mean service (mining) time, milliseconds.
    pub mean_service_ms: f64,
    /// 95th-percentile service time, milliseconds.
    pub p95_service_ms: f64,
}

/// The full serving benchmark report.
#[derive(Debug, Clone)]
pub struct ServeBench {
    /// `std::thread::available_parallelism` of the measuring host.
    pub available_parallelism: usize,
    /// Shared-pool workers the service ran with.
    pub workers: usize,
    /// The mixed workloads: (name, stream length).
    pub workloads: Vec<(String, usize)>,
    /// The acceptance headline: QPS at 16 clients over QPS at 1 client
    /// (0.0 when either rung was not measured).
    pub qps_16_clients_vs_1: f64,
    /// The streaming headline: full-prefix rescan wall over incremental
    /// append wall for the same append schedule ([`StreamingPoint::ratio`]).
    pub incremental_vs_rescan_ratio: f64,
    /// The socket-path scaling headline: socket QPS at 16 clients over
    /// socket QPS at 1 client ([`SocketBench::qps_16_clients_vs_1`]).
    pub socket_qps_16_clients_vs_1: f64,
    /// The socket-path overhead headline: in-process QPS over socket QPS at
    /// 1 client ([`SocketBench::vs_inprocess_overhead`]).
    pub socket_vs_inprocess_overhead: f64,
    /// Per-rung results.
    pub points: Vec<LoadPoint>,
    /// The streaming-ingestion scenario measurements.
    pub streaming: StreamingPoint,
    /// The socket-path scenario measurements.
    pub socket: SocketBench,
    /// Open-loop measurements, when requested (`reproduce
    /// --serve-open-loop`).
    pub open_loop: Option<OpenLoopReport>,
}

/// Nearest-rank percentile of an ascending-sorted sample (0.0 for empty).
fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted_ms.len() as f64).ceil() as usize;
    sorted_ms[rank.clamp(1, sorted_ms.len()) - 1]
}

fn build_workloads(scale: f64) -> Vec<(String, Arc<EventDb>)> {
    let scale = scale.clamp(1e-3, 1.0);
    let markov = markov_letters((40_000.0 * scale) as usize, 11, 0.7);
    let spikes = spike_trains(&SpikeTrainConfig {
        neurons: 26,
        duration_ms: 30_000.0 * scale,
        base_rate_hz: 8.0,
        ..Default::default()
    });
    let basket = market_basket(&BasketConfig {
        events: (25_000.0 * scale) as usize,
        ..Default::default()
    });
    vec![
        ("markov".to_string(), Arc::new(markov)),
        ("spike-train".to_string(), Arc::new(spikes)),
        ("market-basket".to_string(), Arc::new(basket)),
    ]
}

/// Open-loop benchmark parameters.
#[derive(Debug, Clone)]
pub struct OpenLoopConfig {
    /// Workload scale in (0, 1] (see [`ServeBenchConfig::scale`]).
    pub scale: f64,
    /// Target arrival rate, requests/second.
    pub rate_hz: f64,
    /// Total arrivals to generate.
    pub requests: usize,
    /// Shared-pool workers (0 = available parallelism).
    pub workers: usize,
    /// Concurrency cap at the admission gate — keep it low so an open loop
    /// actually queues (0 = one per worker).
    pub max_in_flight: usize,
    /// Mining configuration every request uses.
    pub mining: MinerConfig,
    /// Seed of the deterministic arrival schedule.
    pub seed: u64,
}

impl Default for OpenLoopConfig {
    fn default() -> Self {
        OpenLoopConfig {
            scale: 1.0,
            rate_hz: 25.0,
            requests: 50,
            workers: 0,
            max_in_flight: 2,
            mining: MinerConfig {
                alpha: 0.001,
                max_level: Some(2),
                ..Default::default()
            },
            seed: 0x5EED_CAFE,
        }
    }
}

/// Deterministic uniform in (0, 1): one LCG step (so the arrival schedule is
/// reproducible across runs and hosts — "Poisson-ish", not sampled).
fn lcg_uniform(state: &mut u64) -> f64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    (((*state >> 11) as f64) + 1.0) / ((1u64 << 53) as f64 + 2.0)
}

/// Runs the open-loop benchmark: arrivals follow a deterministic
/// exponential-gap schedule at `rate_hz` (requests fire whether or not
/// earlier ones finished — unlike the closed-loop rungs, which resubmit on
/// completion), and the report separates **queueing delay** (admission-gate
/// wait) from **service time** (the mining loop). Every response is verified
/// against serial ground truth.
pub fn run_open_loop(cfg: &OpenLoopConfig) -> OpenLoopReport {
    let workloads = build_workloads(cfg.scale);
    let serial: Vec<MiningResult> = workloads
        .iter()
        .map(|(_, db)| {
            Miner::new(cfg.mining)
                .mine(db.as_ref(), &mut SequentialBackend::default())
                .expect("serial reference mining failed")
        })
        .collect();
    let requests: Vec<MiningRequest> = workloads
        .iter()
        .map(|(_, db)| {
            let req = MiningRequest::new(Arc::clone(db), cfg.mining);
            req.key();
            req
        })
        .collect();

    // The deterministic arrival schedule: exponential gaps, inverse-CDF over
    // an LCG stream.
    let mut state = cfg.seed;
    let mut at = 0.0f64;
    let arrivals: Vec<f64> = (0..cfg.requests.max(1))
        .map(|_| {
            let u = lcg_uniform(&mut state);
            at += -(1.0 - u).ln() / cfg.rate_hz.max(1e-6);
            at
        })
        .collect();

    let service = Arc::new(MiningService::new(ServiceConfig {
        workers: cfg.workers,
        max_in_flight: cfg.max_in_flight,
        ..Default::default()
    }));
    let samples = Arc::new(Mutex::new(Vec::<(f64, f64)>::new())); // (queue_ms, service_ms)
    let started = Instant::now();
    std::thread::scope(|s| {
        for (i, &arrive_at) in arrivals.iter().enumerate() {
            let service = Arc::clone(&service);
            let samples = Arc::clone(&samples);
            let requests = &requests;
            let serial = &serial;
            s.spawn(move || {
                let now = started.elapsed().as_secs_f64();
                if arrive_at > now {
                    std::thread::sleep(Duration::from_secs_f64(arrive_at - now));
                }
                let which = i % requests.len();
                let resp = service
                    .submit(&requests[which])
                    .expect("open-loop request failed");
                assert_eq!(
                    resp.result, serial[which],
                    "open-loop response diverged from serial mining"
                );
                samples.lock().expect("open-loop samples").push((
                    resp.stats.queue_wait.as_secs_f64() * 1e3,
                    resp.stats.mine_time.as_secs_f64() * 1e3,
                ));
            });
        }
    });
    let wall_s = started.elapsed().as_secs_f64();
    let samples = Arc::try_unwrap(samples)
        .expect("sample collector still shared")
        .into_inner()
        .expect("open-loop samples");
    let mut queue: Vec<f64> = samples.iter().map(|(q, _)| *q).collect();
    let mut service_ms: Vec<f64> = samples.iter().map(|(_, s)| *s).collect();
    queue.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    service_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let mean = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    OpenLoopReport {
        rate_hz: cfg.rate_hz,
        requests: samples.len(),
        wall_s,
        achieved_rate_hz: samples.len() as f64 / wall_s.max(1e-9),
        mean_queue_ms: mean(&queue),
        p95_queue_ms: percentile(&queue, 0.95),
        mean_service_ms: mean(&service_ms),
        p95_service_ms: percentile(&service_ms, 0.95),
    }
}

/// Runs the benchmark: for each client rung, a fresh service (cold cache) is
/// hammered by `clients` threads submitting mixed-workload requests; every
/// response is verified against serial ground truth. The streaming and socket
/// scenarios run after the rungs, on the first (Markov) workload.
pub fn run(cfg: &ServeBenchConfig) -> ServeBench {
    let workloads = build_workloads(cfg.scale);
    let serial: Vec<MiningResult> = workloads
        .iter()
        .map(|(_, db)| {
            Miner::new(cfg.mining)
                .mine(db.as_ref(), &mut SequentialBackend::default())
                .expect("serial reference mining failed")
        })
        .collect();
    // Build (and key-hash) every request value once, outside the timed
    // region: steady-state clients hold their request values across
    // submissions, so the measured latency should not include the one-time
    // content hash.
    let requests: Vec<MiningRequest> = workloads
        .iter()
        .map(|(_, db)| {
            let req = MiningRequest::new(Arc::clone(db), cfg.mining);
            req.key(); // warm the memoized session key
            req
        })
        .collect();

    let mut points = Vec::new();
    for &clients in &cfg.client_counts {
        let clients = clients.max(1);
        let service = Arc::new(MiningService::new(ServiceConfig {
            workers: cfg.workers,
            max_in_flight: clients.max(default_workers()),
            ..Default::default()
        }));
        let latencies = Arc::new(Mutex::new(Vec::<f64>::new()));
        let started = Instant::now();
        std::thread::scope(|s| {
            for client in 0..clients {
                let service = Arc::clone(&service);
                let latencies = Arc::clone(&latencies);
                let workloads = &workloads;
                let requests = &requests;
                let serial = &serial;
                let per_client = cfg.requests_per_client;
                s.spawn(move || {
                    let mut local = Vec::with_capacity(per_client);
                    for round in 0..per_client {
                        let which = (client + round) % workloads.len();
                        let t = Instant::now();
                        let resp = service
                            .submit(&requests[which])
                            .expect("serve request failed");
                        local.push(t.elapsed().as_secs_f64() * 1e3);
                        assert_eq!(
                            resp.result, serial[which],
                            "served result diverged from serial mining ({})",
                            workloads[which].0
                        );
                    }
                    latencies.lock().expect("latencies").extend(local);
                });
            }
        });
        let wall_s = started.elapsed().as_secs_f64();
        let mut lat = Arc::try_unwrap(latencies)
            .expect("latency collector still shared")
            .into_inner()
            .expect("latencies");
        lat.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        let requests = lat.len();
        let stats = service.stats();
        points.push(LoadPoint {
            clients,
            requests,
            wall_s,
            qps: requests as f64 / wall_s.max(1e-9),
            p50_ms: percentile(&lat, 0.50),
            p95_ms: percentile(&lat, 0.95),
            cache_hits: stats.cache.hits,
            cache_misses: stats.cache.misses,
        });
    }

    let qps_of = |n: usize| {
        points
            .iter()
            .find(|p| p.clients == n)
            .map(|p| p.qps)
            .unwrap_or(0.0)
    };
    let qps_16_clients_vs_1 = if qps_of(1) > 0.0 && qps_of(16) > 0.0 {
        qps_of(16) / qps_of(1)
    } else {
        0.0
    };
    let streaming = run_streaming(&workloads[0].1);
    let socket = run_socket(cfg, &workloads[0].1);
    ServeBench {
        available_parallelism: default_workers(),
        workers: if cfg.workers == 0 {
            default_workers()
        } else {
            cfg.workers
        },
        workloads: workloads
            .iter()
            .map(|(name, db)| (name.clone(), db.len()))
            .collect(),
        qps_16_clients_vs_1,
        incremental_vs_rescan_ratio: streaming.ratio,
        socket_qps_16_clients_vs_1: socket.qps_16_clients_vs_1,
        socket_vs_inprocess_overhead: socket.vs_inprocess_overhead,
        points,
        streaming,
        socket,
        open_loop: None,
    }
}

impl ServeBench {
    /// Serializes the report as pretty JSON (hand-rolled; the workspace
    /// builds offline without a JSON crate).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str(&format!(
            "  \"available_parallelism\": {},\n",
            self.available_parallelism
        ));
        s.push_str(&format!("  \"workers\": {},\n", self.workers));
        s.push_str(&format!(
            "  \"qps_16_clients_vs_1\": {:.4},\n",
            self.qps_16_clients_vs_1
        ));
        s.push_str(&format!(
            "  \"incremental_vs_rescan_ratio\": {:.4},\n",
            self.incremental_vs_rescan_ratio
        ));
        s.push_str(&format!(
            "  \"socket_qps_16_clients_vs_1\": {:.4},\n",
            self.socket_qps_16_clients_vs_1
        ));
        s.push_str(&format!(
            "  \"socket_vs_inprocess_overhead\": {:.4},\n",
            self.socket_vs_inprocess_overhead
        ));
        s.push_str(&format!(
            "  \"streaming\": {{\"appends\": {}, \"base_symbols\": {}, \
             \"appended_symbols\": {}, \"episodes\": {}, \"incremental_wall_s\": {:.4}, \
             \"rescan_wall_s\": {:.4}, \"ratio\": {:.4}}},\n",
            self.streaming.appends,
            self.streaming.base_symbols,
            self.streaming.appended_symbols,
            self.streaming.episodes,
            self.streaming.incremental_wall_s,
            self.streaming.rescan_wall_s,
            self.streaming.ratio
        ));
        s.push_str(&format!(
            "  \"socket\": {{\"symbols\": {}, \"inprocess_qps_1\": {:.3}, \"points\": [",
            self.socket.symbols, self.socket.inprocess_qps_1
        ));
        for (i, p) in self.socket.points.iter().enumerate() {
            s.push_str(&format!(
                "{}{{\"clients\": {}, \"requests\": {}, \"wall_s\": {:.4}, \"qps\": {:.3}, \
                 \"p50_ms\": {:.3}, \"p95_ms\": {:.3}}}",
                if i == 0 { "" } else { ", " },
                p.clients,
                p.requests,
                p.wall_s,
                p.qps,
                p.p50_ms,
                p.p95_ms
            ));
        }
        s.push_str("]},\n");
        if let Some(ol) = &self.open_loop {
            s.push_str(&format!(
                "  \"open_loop\": {{\"rate_hz\": {:.3}, \"requests\": {}, \"wall_s\": {:.4}, \
                 \"achieved_rate_hz\": {:.3}, \"mean_queue_ms\": {:.3}, \"p95_queue_ms\": {:.3}, \
                 \"mean_service_ms\": {:.3}, \"p95_service_ms\": {:.3}}},\n",
                ol.rate_hz,
                ol.requests,
                ol.wall_s,
                ol.achieved_rate_hz,
                ol.mean_queue_ms,
                ol.p95_queue_ms,
                ol.mean_service_ms,
                ol.p95_service_ms
            ));
        }
        s.push_str("  \"workloads\": [\n");
        for (i, (name, len)) in self.workloads.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"name\": \"{name}\", \"symbols\": {len}}}{}\n",
                if i + 1 < self.workloads.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        s.push_str("  ],\n");
        s.push_str("  \"points\": [\n");
        for (i, p) in self.points.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"clients\": {}, \"requests\": {}, \"wall_s\": {:.4}, \"qps\": {:.3}, \
                 \"p50_ms\": {:.3}, \"p95_ms\": {:.3}, \"cache_hits\": {}, \"cache_misses\": {}}}{}\n",
                p.clients,
                p.requests,
                p.wall_s,
                p.qps,
                p.p50_ms,
                p.p95_ms,
                p.cache_hits,
                p.cache_misses,
                if i + 1 < self.points.len() { "," } else { "" }
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// One-line-per-rung terminal summary.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "serving throughput ({} host threads, {} pool workers):\n",
            self.available_parallelism, self.workers
        );
        for p in &self.points {
            s.push_str(&format!(
                "  {:>2} clients: {:>7.2} qps  p50 {:>8.2} ms  p95 {:>8.2} ms  \
                 ({} reqs, {} hits / {} misses)\n",
                p.clients, p.qps, p.p50_ms, p.p95_ms, p.requests, p.cache_hits, p.cache_misses
            ));
        }
        s.push_str(&format!(
            "  qps 16-vs-1: {:.2}x\n",
            self.qps_16_clients_vs_1
        ));
        s.push_str(&format!(
            "  streaming ({} appends over {} symbols, {} episodes): rescan {:.1} ms vs \
             incremental {:.1} ms = {:.2}x\n",
            self.streaming.appends,
            self.streaming.appended_symbols,
            self.streaming.episodes,
            self.streaming.rescan_wall_s * 1e3,
            self.streaming.incremental_wall_s * 1e3,
            self.incremental_vs_rescan_ratio
        ));
        s.push_str(&format!(
            "  socket path ({} symbols/request): in-process {:.1} qps vs",
            self.socket.symbols, self.socket.inprocess_qps_1
        ));
        for p in &self.socket.points {
            s.push_str(&format!(
                " [{} clients: {:.1} qps p50 {:.2} ms]",
                p.clients, p.qps, p.p50_ms
            ));
        }
        s.push_str(&format!(
            " = {:.2}x overhead, {:.2}x 16-vs-1\n",
            self.socket_vs_inprocess_overhead, self.socket_qps_16_clients_vs_1
        ));
        if let Some(ol) = &self.open_loop {
            s.push_str(&format!(
                "  open loop @ {:.1} req/s: queue mean {:.2} ms p95 {:.2} ms | \
                 service mean {:.2} ms p95 {:.2} ms ({} reqs, {:.1} req/s achieved)\n",
                ol.rate_hz,
                ol.mean_queue_ms,
                ol.p95_queue_ms,
                ol.mean_service_ms,
                ol.p95_service_ms,
                ol.requests,
                ol.achieved_rate_hz
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ServeBench {
        run(&ServeBenchConfig {
            scale: 0.05,
            client_counts: vec![1, 2],
            requests_per_client: 2,
            workers: 2,
            ..Default::default()
        })
    }

    #[test]
    fn bench_runs_all_rungs_and_verifies_results() {
        let b = tiny();
        assert_eq!(b.points.len(), 2);
        for p in &b.points {
            assert_eq!(p.requests, p.clients * 2);
            assert!(p.qps > 0.0);
            assert!(p.p50_ms >= 0.0 && p.p95_ms >= p.p50_ms);
            assert_eq!(p.cache_hits + p.cache_misses, p.requests as u64);
        }
        assert_eq!(b.workloads.len(), 3);
        // No 16-client rung configured: the ratio degrades to 0, not NaN.
        assert_eq!(b.qps_16_clients_vs_1, 0.0);
        // The streaming scenario consumed the whole Markov stream (the
        // per-batch bit-identity asserts already ran inside run_streaming).
        assert!(b.streaming.appends > 0);
        assert_eq!(
            b.streaming.base_symbols + b.streaming.appended_symbols,
            b.workloads[0].1
        );
        assert!(b.streaming.episodes > 0);
        assert!(b.incremental_vs_rescan_ratio > 0.0);
        assert!(b.incremental_vs_rescan_ratio.is_finite());
        // The socket scenario ran every rung through a real loopback
        // listener (replies were checked byte-identical inside run_socket).
        assert_eq!(b.socket.points.len(), 2);
        for p in &b.socket.points {
            assert_eq!(p.requests, p.clients * 2);
            assert!(p.qps > 0.0);
            assert!(p.p95_ms >= p.p50_ms);
        }
        assert!(b.socket.inprocess_qps_1 > 0.0);
        assert!(b.socket_vs_inprocess_overhead > 0.0);
        assert!(b.socket_vs_inprocess_overhead.is_finite());
        // No 16-client rung configured: degrades to 0, not NaN.
        assert_eq!(b.socket_qps_16_clients_vs_1, 0.0);
    }

    #[test]
    fn json_shape_is_valid_enough() {
        let mut b = tiny();
        b.open_loop = Some(run_open_loop(&OpenLoopConfig {
            scale: 0.05,
            rate_hz: 200.0,
            requests: 6,
            workers: 2,
            ..Default::default()
        }));
        let j = b.to_json();
        assert!(j.starts_with("{\n"));
        assert!(j.trim_end().ends_with('}'));
        assert!(j.contains("\"qps_16_clients_vs_1\""));
        assert!(j.contains("\"incremental_vs_rescan_ratio\""));
        assert!(j.contains("\"socket_qps_16_clients_vs_1\""));
        assert!(j.contains("\"socket_vs_inprocess_overhead\""));
        assert!(j.contains("\"inprocess_qps_1\""));
        assert!(j.contains("\"rescan_wall_s\""));
        assert!(j.contains("\"open_loop\""));
        assert!(j.contains("\"mean_queue_ms\""));
        assert!(j.contains("\"p95_ms\""));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        assert!(!j.contains("NaN"));
        assert!(!b.summary().is_empty());
        assert!(b.summary().contains("open loop"));
    }

    #[test]
    fn open_loop_reports_queue_and_service_separately() {
        // A high arrival rate against a 1-wide admission gate must show
        // queueing delay that closed-loop measurement cannot (the schedule
        // fires arrivals regardless of completions).
        let r = run_open_loop(&OpenLoopConfig {
            scale: 0.05,
            rate_hz: 500.0,
            requests: 8,
            workers: 1,
            max_in_flight: 1,
            ..Default::default()
        });
        assert_eq!(r.requests, 8);
        assert!(r.wall_s > 0.0);
        assert!(r.achieved_rate_hz > 0.0);
        assert!(r.mean_service_ms > 0.0);
        assert!(r.p95_queue_ms >= r.mean_queue_ms * 0.5);
        // With max_in_flight 1 and near-simultaneous arrivals, someone
        // queued behind someone else's full mining run.
        assert!(
            r.p95_queue_ms > 0.0,
            "open loop at 500 req/s over a 1-slot gate must queue: {r:?}"
        );
    }

    #[test]
    fn arrival_schedule_is_deterministic() {
        let mut a = 1u64;
        let mut b = 1u64;
        let xs: Vec<f64> = (0..5).map(|_| lcg_uniform(&mut a)).collect();
        let ys: Vec<f64> = (0..5).map(|_| lcg_uniform(&mut b)).collect();
        assert_eq!(xs, ys);
        for x in xs {
            assert!(x > 0.0 && x < 1.0);
        }
    }

    #[test]
    fn percentiles_interpolate_sanely() {
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[3.0], 0.95), 3.0);
        let v: Vec<f64> = (1..=100).map(|x| x as f64).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
    }
}
