//! Real-CPU benchmark of the serving layer: the two scenarios whose
//! headlines `tools/bench_guard.sh` reads from `BENCH_serve.json`, both on one
//! Markov stream.
//!
//! * **streaming ingestion** ([`StreamingPoint`]) — the stream's second half
//!   arrives in LCG-sized batches against a `tdm_core::StreamingSession`, and
//!   each batch is counted once incrementally and once by a full batch rescan
//!   of the grown prefix. Counts are asserted bit-identical per batch; the
//!   `incremental_vs_rescan_ratio` headline (rescan wall / incremental wall)
//!   goes top-level in the JSON.
//! * **socket path** ([`SocketBench`]) — closed-loop clients (1, 4, 16 by
//!   default) push mining requests through a real `tdm-server` TCP listener
//!   on loopback: length-prefixed JSON frames, per-tenant authentication, the
//!   whole wire stack. Every reply is checked byte-identical to the serially
//!   mined result encoded through the same wire serializer. An in-process
//!   1-client baseline submits the identical requests straight into a
//!   [`MiningService`]. Two headlines go top-level in the JSON:
//!   `socket_qps_16_clients_vs_1` (socket-path scaling) and
//!   `socket_vs_inprocess_overhead` (in-process QPS over socket QPS at 1
//!   client — what the wire costs).
//!
//! That many in-process clients sharing one service still mine bit-identical
//! to serial mining is a test, not a benchmark:
//! `tests/serving.rs::sixteen_concurrent_clients_match_serial_mining_bit_for_bit`.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use tdm_core::engine::{CompiledCandidates, CountScratch};
use tdm_core::miner::{Miner, MinerConfig, SequentialBackend};
use tdm_core::{Alphabet, Episode, EventDb, StreamingSession};
use tdm_mapreduce::pool::default_workers;
use tdm_serve::{MiningRequest, MiningService, ServiceConfig};
use tdm_server::client::mine_request;
use tdm_server::json::Value;
use tdm_server::{wire, Client, Server, ServerConfig, TenantConfig};
use tdm_workloads::markov_letters;

/// Benchmark parameters.
#[derive(Debug, Clone)]
pub struct ServeBenchConfig {
    /// Workload scale in (0, 1]: scales the Markov stream's length (40,000
    /// symbols at 1).
    pub scale: f64,
    /// Concurrent-client rungs of the socket path (1, 4, 16).
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

/// The streaming-ingestion scenario: the Markov stream replayed as an
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

/// The socket-path scenario: closed-loop clients mining the Markov stream
/// through a real `tdm-server` TCP listener on loopback — length-prefixed
/// JSON frames, tenant authentication, per-request database decode — next to
/// an in-process baseline submitting the identical request stream straight
/// into a [`MiningService`].
#[derive(Debug, Clone)]
pub struct SocketBench {
    /// Symbols in the Markov stream every request ships inline.
    pub symbols: usize,
    /// In-process baseline QPS at 1 client (same requests, no wire).
    pub inprocess_qps_1: f64,
    /// The scaling headline: socket QPS at 16 clients over socket QPS at 1
    /// client (0.0 when either rung was not measured).
    pub qps_16_clients_vs_1: f64,
    /// The overhead headline: in-process QPS over socket QPS at 1 client
    /// (> 1 = the wire costs; framing + JSON + per-request database decode).
    pub vs_inprocess_overhead: f64,
    /// Per-rung socket measurements.
    pub points: Vec<SocketPoint>,
}

/// Runs the socket-path scenario (see [`SocketBench`]) on the Markov
/// stream: an in-process 1-client baseline, then the same closed loop
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

/// The full serving benchmark report.
#[derive(Debug, Clone)]
pub struct ServeBench {
    /// `std::thread::available_parallelism` of the measuring host.
    pub available_parallelism: usize,
    /// Shared-pool workers the service ran with.
    pub workers: usize,
    /// The streaming-ingestion scenario measurements.
    pub streaming: StreamingPoint,
    /// The socket-path scenario measurements.
    pub socket: SocketBench,
}

/// Nearest-rank percentile of an ascending-sorted sample (0.0 for empty).
fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted_ms.len() as f64).ceil() as usize;
    sorted_ms[rank.clamp(1, sorted_ms.len()) - 1]
}

/// Deterministic uniform in (0, 1): one LCG step, so the streaming
/// scenario's append schedule is the same on every run and host.
fn lcg_uniform(state: &mut u64) -> f64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    (((*state >> 11) as f64) + 1.0) / ((1u64 << 53) as f64 + 2.0)
}

/// Runs the benchmark: the streaming scenario, then the socket rungs with
/// their in-process baseline, on one Markov stream (40,000 symbols at scale
/// 1).
pub fn run(cfg: &ServeBenchConfig) -> ServeBench {
    let scale = cfg.scale.clamp(1e-3, 1.0);
    let db = Arc::new(markov_letters((40_000.0 * scale) as usize, 11, 0.7));
    ServeBench {
        available_parallelism: default_workers(),
        workers: if cfg.workers == 0 {
            default_workers()
        } else {
            cfg.workers
        },
        streaming: run_streaming(&db),
        socket: run_socket(cfg, &db),
    }
}

impl ServeBench {
    /// Serializes the report as pretty JSON (hand-rolled; the workspace
    /// builds offline without a JSON crate). The three guarded headlines go
    /// top-level, one per line, where `tools/bench_guard.sh` greps for them.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str(&format!(
            "  \"available_parallelism\": {},\n",
            self.available_parallelism
        ));
        s.push_str(&format!("  \"workers\": {},\n", self.workers));
        s.push_str(&format!(
            "  \"incremental_vs_rescan_ratio\": {:.4},\n",
            self.streaming.ratio
        ));
        s.push_str(&format!(
            "  \"socket_qps_16_clients_vs_1\": {:.4},\n",
            self.socket.qps_16_clients_vs_1
        ));
        s.push_str(&format!(
            "  \"socket_vs_inprocess_overhead\": {:.4},\n",
            self.socket.vs_inprocess_overhead
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
        s.push_str("]}\n}\n");
        s
    }

    /// One line per scenario, for the terminal.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "serving benchmark ({} host threads, {} pool workers):\n",
            self.available_parallelism, self.workers
        );
        s.push_str(&format!(
            "  streaming ({} appends over {} symbols, {} episodes): rescan {:.1} ms vs \
             incremental {:.1} ms = {:.2}x\n",
            self.streaming.appends,
            self.streaming.appended_symbols,
            self.streaming.episodes,
            self.streaming.rescan_wall_s * 1e3,
            self.streaming.incremental_wall_s * 1e3,
            self.streaming.ratio
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
            self.socket.vs_inprocess_overhead, self.socket.qps_16_clients_vs_1
        ));
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
        // The streaming scenario consumed the whole Markov stream (the
        // per-batch bit-identity asserts already ran inside run_streaming).
        assert!(b.streaming.appends > 0);
        assert_eq!(
            b.streaming.base_symbols + b.streaming.appended_symbols,
            b.socket.symbols
        );
        assert_eq!(b.socket.symbols, 2_000);
        assert!(b.streaming.episodes > 0);
        assert!(b.streaming.ratio > 0.0);
        assert!(b.streaming.ratio.is_finite());
        // The socket scenario ran every rung through a real loopback
        // listener (replies were checked byte-identical inside run_socket).
        assert_eq!(b.socket.points.len(), 2);
        for p in &b.socket.points {
            assert_eq!(p.requests, p.clients * 2);
            assert!(p.qps > 0.0);
            assert!(p.p95_ms >= p.p50_ms);
        }
        assert!(b.socket.inprocess_qps_1 > 0.0);
        assert!(b.socket.vs_inprocess_overhead > 0.0);
        assert!(b.socket.vs_inprocess_overhead.is_finite());
        // No 16-client rung configured: degrades to 0, not NaN.
        assert_eq!(b.socket.qps_16_clients_vs_1, 0.0);
    }

    #[test]
    fn json_shape_is_valid_enough() {
        let b = tiny();
        let j = b.to_json();
        assert!(j.starts_with("{\n"));
        assert!(j.trim_end().ends_with('}'));
        // The guarded headlines sit top-level, one per line.
        for key in [
            "incremental_vs_rescan_ratio",
            "socket_qps_16_clients_vs_1",
            "socket_vs_inprocess_overhead",
        ] {
            assert!(j.contains(&format!("\n  \"{key}\": ")), "{key} in {j}");
        }
        assert!(j.contains("\"inprocess_qps_1\""));
        assert!(j.contains("\"rescan_wall_s\""));
        assert!(j.contains("\"p95_ms\""));
        // `points` survives only inside `socket`.
        for retired in [
            "\"qps_16_clients_vs_1\"",
            "\"workloads\"",
            "\"open_loop\"",
            "\n  \"points\"",
        ] {
            assert!(!j.contains(retired), "{retired} in {j}");
        }
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        assert!(!j.contains("NaN"));
        assert!(!b.summary().is_empty());
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
