//! Workload inputs. Every byte the server receives is built here from the
//! workload seed, together with the serially mined result each reply must
//! match.

use std::sync::Arc;
use std::time::Duration;

use tdm_core::{Alphabet, EventDb, Miner, MinerConfig, SequentialBackend};
use tdm_server::client::mine_request;
use tdm_server::json::Value;
use tdm_server::wire;

/// The tenant the server binary creates when given no `--tenant` (no rate
/// or quota limit).
pub const TENANT: &str = "demo";
/// That tenant's API key.
pub const API_KEY: &str = "demo";
/// The stream name the ingest lane registers.
pub const STREAM: &str = "bench";

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The paper database at 1/4 scale, level 3, two alphas on one dataset.
    PaperScan,
    /// 64 distinct short Markov streams, level 2: per-request fixed costs.
    SmallRequests,
    /// An open-loop ingest lane beside a small-requests lane.
    IngestMix,
}

impl Kind {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Kind; 3] = [Kind::PaperScan, Kind::SmallRequests, Kind::IngestMix];

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::PaperScan => "paper-scan",
            Kind::SmallRequests => "small-requests",
            Kind::IngestMix => "ingest-mix",
        }
    }
}

/// Input sizes. [`Shape::FULL`] is what the benchmark runs; the tests shrink
/// it so a debug build finishes in seconds.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Letters in the paper-scan database (the paper's 393,019 at 1/4 scale).
    pub paper_len: usize,
    /// Letters in each small-requests stream.
    pub small_len: usize,
    /// Distinct small-requests streams (twice the server's 32-entry session
    /// cache, so about half the requests hit).
    pub small_streams: usize,
    /// Letters the ingest stream is registered with.
    pub ingest_seed_len: usize,
    /// Letters per `ingest` frame.
    pub ingest_chunk: usize,
    /// `ingest` frames per second (open loop).
    pub ingest_per_sec: u32,
    /// The stream's `flush_count` trigger.
    pub flush_count: usize,
}

impl Shape {
    /// The benchmark's sizes.
    pub const FULL: Shape = Shape {
        paper_len: 98_255,
        small_len: 4_000,
        small_streams: 64,
        ingest_seed_len: 20_000,
        ingest_chunk: 64,
        ingest_per_sec: 50,
        flush_count: 256,
    };
}

/// One distinct `mine` request: its encoded frame, the database and config
/// it carries, and the wire encoding of the serially mined result.
pub struct MinePayload {
    /// The request frame's payload.
    pub frame: Vec<u8>,
    /// The database the frame carries inline.
    pub db: Arc<EventDb>,
    /// The mining configuration the frame carries.
    pub config: MinerConfig,
    /// `wire::mining_result_value` of a serial `Miner::mine`.
    pub expected: String,
}

/// The ingest lane's stream: the registered seed, then one frame per
/// append, sent open loop.
pub struct IngestPlan {
    /// The `register` frame.
    pub register_frame: Vec<u8>,
    /// One `ingest` frame per append, in sending order.
    pub frames: Vec<Vec<u8>>,
    /// The whole stream: registered seed followed by every appended letter.
    pub stream: Vec<u8>,
    /// Mining configuration of every window re-mine.
    pub config: MinerConfig,
    /// The flush trigger (letters per window).
    pub flush_count: usize,
    /// Letters registered before the first append.
    pub seed_len: usize,
    /// Letters per append.
    pub chunk: usize,
    /// Time between consecutive appends' due times.
    pub period: Duration,
}

impl IngestPlan {
    /// The wire encoding of a serial mine of window `window`'s prefix: the
    /// seed plus `window + 1` full windows.
    pub fn expected_window(&self, window: u64) -> Option<String> {
        let len = self.seed_len + self.flush_count * (window as usize + 1);
        let prefix = self.stream.get(..len)?;
        let db = EventDb::new(Alphabet::latin26(), prefix.to_vec()).ok()?;
        Some(serial_encoding(&db, self.config))
    }
}

/// What one connection does during the measured run.
#[derive(Debug, Clone)]
pub enum Lane {
    /// Closed loop of `mine` frames, payload indices drawn from the schedule.
    Mine(Schedule),
    /// The open-loop ingest stream.
    Ingest,
}

/// A lane's deterministic sequence of payload indices.
#[derive(Debug, Clone)]
pub enum Schedule {
    /// The same payload every time.
    Fixed(usize),
    /// Uniform draws over `0..choices`.
    Uniform {
        /// The draw generator's state.
        rng: SplitMix,
        /// Number of payloads to draw from.
        choices: usize,
    },
}

impl Iterator for Schedule {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        Some(match self {
            Schedule::Fixed(i) => *i,
            Schedule::Uniform { rng, choices } => (rng.next_u64() % *choices as u64) as usize,
        })
    }
}

/// SplitMix64: the generator behind schedules and derived seeds.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// A seed for input `stream` of the workload seeded with `seed`.
fn derive(seed: u64, stream: u64) -> u64 {
    SplitMix::new(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f)).next_u64()
}

/// The wire encoding of a serial `Miner::mine` with `SequentialBackend`.
pub fn serial_encoding(db: &EventDb, config: MinerConfig) -> String {
    let result = Miner::new(config)
        .mine(db, &mut SequentialBackend::default())
        .expect("the sequential backend cannot fail");
    wire::mining_result_value(&result, db.alphabet()).encode()
}

/// Every input of one workload run.
pub struct Inputs {
    /// Which workload.
    pub kind: Kind,
    /// The workload seed.
    pub seed: u64,
    /// Input sizes.
    pub shape: Shape,
    /// The distinct `mine` requests.
    pub payloads: Vec<MinePayload>,
    /// The ingest lane's stream (ingest-mix only).
    pub ingest: Option<IngestPlan>,
}

impl Inputs {
    /// Builds every input and its expected result. `seconds` sizes the
    /// open-loop ingest schedule.
    pub fn build(kind: Kind, seed: u64, shape: Shape, seconds: f64) -> Inputs {
        let specs: Vec<(Arc<EventDb>, MinerConfig)> = match kind {
            Kind::PaperScan => {
                let db = Arc::new(tdm_workloads::uniform_letters(shape.paper_len, seed));
                (0..2)
                    .map(|i| {
                        let alpha = 0.001 * (1.0 + 0.1 * i as f64);
                        (Arc::clone(&db), config(alpha, 3))
                    })
                    .collect()
            }
            Kind::SmallRequests | Kind::IngestMix => (0..shape.small_streams)
                .map(|i| {
                    let db =
                        tdm_workloads::markov_letters(shape.small_len, derive(seed, i as u64), 0.7);
                    (Arc::new(db), config(0.001, 2))
                })
                .collect(),
        };
        // Ground truth is the slow part of building inputs; split it over
        // the machine's cores.
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut expected = vec![String::new(); specs.len()];
        std::thread::scope(|s| {
            for (w, slots) in expected
                .chunks_mut(specs.len().div_ceil(workers))
                .enumerate()
            {
                let specs = &specs;
                let first = w * specs.len().div_ceil(workers);
                s.spawn(move || {
                    for (j, slot) in slots.iter_mut().enumerate() {
                        let (db, config) = &specs[first + j];
                        *slot = serial_encoding(db, *config);
                    }
                });
            }
        });
        let payloads = specs
            .into_iter()
            .zip(expected)
            .map(|((db, config), expected)| MinePayload {
                frame: mine_request(
                    TENANT,
                    API_KEY,
                    &db.to_display_string(),
                    config.alpha,
                    config.max_level,
                    None,
                    None,
                    None,
                )
                .encode()
                .into_bytes(),
                db,
                config,
                expected,
            })
            .collect();

        let ingest = (kind == Kind::IngestMix).then(|| {
            let appends = (seconds * f64::from(shape.ingest_per_sec)).ceil() as usize;
            let total = shape.ingest_seed_len + appends * shape.ingest_chunk;
            let stream = tdm_workloads::markov_letters(total, derive(seed, 1 << 32), 0.7);
            let letters = stream.to_display_string();
            let config = config(0.001, 2);
            let register_frame = request(vec![
                ("type", Value::str("register")),
                ("stream", Value::str(STREAM)),
                ("seed", Value::str(&letters[..shape.ingest_seed_len])),
                ("alpha", Value::Number(config.alpha)),
                ("max_level", Value::u64(2)),
                ("flush_count", Value::u64(shape.flush_count as u64)),
            ]);
            let frames = letters.as_bytes()[shape.ingest_seed_len..]
                .chunks(shape.ingest_chunk)
                .map(|chunk| {
                    let symbols = std::str::from_utf8(chunk).expect("letters are ASCII");
                    request(vec![
                        ("type", Value::str("ingest")),
                        ("stream", Value::str(STREAM)),
                        ("symbols", Value::str(symbols)),
                    ])
                })
                .collect();
            IngestPlan {
                register_frame,
                frames,
                stream: stream.symbols().to_vec(),
                config,
                flush_count: shape.flush_count,
                seed_len: shape.ingest_seed_len,
                chunk: shape.ingest_chunk,
                period: Duration::from_secs(1) / shape.ingest_per_sec,
            }
        });
        Inputs {
            kind,
            seed,
            shape,
            payloads,
            ingest,
        }
    }

    /// One lane per connection, with fresh schedules: every call yields the
    /// same sequences, which is what lets the traced run replay the socket
    /// run's requests.
    pub fn lanes(&self) -> Vec<Lane> {
        let uniform = |lane: u64| {
            Lane::Mine(Schedule::Uniform {
                rng: SplitMix::new(derive(self.seed, 1 << 40 | lane)),
                choices: self.payloads.len(),
            })
        };
        match self.kind {
            Kind::PaperScan => vec![
                Lane::Mine(Schedule::Fixed(0)),
                Lane::Mine(Schedule::Fixed(1)),
            ],
            Kind::SmallRequests => vec![uniform(0), uniform(1)],
            Kind::IngestMix => vec![Lane::Ingest, uniform(1)],
        }
    }

    /// The payloads lane `lane` sends once during warm-up: its own payload
    /// for a fixed schedule; for uniform schedules, every payload, dealt
    /// round-robin over the uniform lanes.
    pub fn warmup(&self, lanes: &[Lane], lane: usize) -> Vec<usize> {
        let uniform: Vec<usize> = (0..lanes.len())
            .filter(|&i| matches!(lanes[i], Lane::Mine(Schedule::Uniform { .. })))
            .collect();
        match &lanes[lane] {
            Lane::Ingest => Vec::new(),
            Lane::Mine(Schedule::Fixed(i)) => vec![*i],
            Lane::Mine(Schedule::Uniform { .. }) => {
                let pos = uniform
                    .iter()
                    .position(|&i| i == lane)
                    .expect("lane is uniform");
                (pos..self.payloads.len()).step_by(uniform.len()).collect()
            }
        }
    }
}

fn config(alpha: f64, max_level: usize) -> MinerConfig {
    MinerConfig {
        alpha,
        max_level: Some(max_level),
        ..MinerConfig::default()
    }
}

/// An authenticated request frame with the given fields after the tenant's.
fn request(fields: Vec<(&str, Value)>) -> Vec<u8> {
    let mut pairs = vec![
        ("tenant".to_string(), Value::str(TENANT)),
        ("api_key".to_string(), Value::str(API_KEY)),
    ];
    pairs.extend(fields.into_iter().map(|(k, v)| (k.to_string(), v)));
    Value::Object(pairs).encode().into_bytes()
}
