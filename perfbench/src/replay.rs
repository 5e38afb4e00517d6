//! The traced run's in-process side. The replay serves the socket run's
//! request schedule through the same public functions `serve_mine` calls,
//! in the same order, with a span around each call on every other request;
//! the core pass mines the same databases with the reference engine under a
//! timing executor. Nothing inside the program is instrumented.

use std::sync::Arc;
use std::time::{Duration, Instant};

use tdm_core::session::{BackendError, CountRequest, Counts, Executor};
use tdm_core::{Alphabet, AutoBackend, EventDb, MiningSession, OccurrenceIndex};
use tdm_mapreduce::pool::{default_workers, Pool};
use tdm_serve::{
    BackendChoice, IngestTriggers, MiningRequest, MiningService, Priority, StreamIngest,
};
use tdm_server::json::{self, Value};
use tdm_server::{wire, ServerConfig, TenantConfig, TenantRegistry};

use crate::socket::MINE_HEAD;
use crate::workload::{Inputs, Lane, Schedule, API_KEY, STREAM, TENANT};

/// Span sums of the traced requests of one replay, in nanoseconds, plus the
/// request times of both halves.
#[derive(Debug, Default, Clone)]
pub struct Spans {
    /// `json::parse` of the request payload.
    pub json_parse: u64,
    /// `EventDb::from_str_symbols` of `"events"`.
    pub db_decode: u64,
    /// `MiningRequest::key` (the database content hash).
    pub session_key: u64,
    /// `MiningService::submit`.
    pub submit: u64,
    /// `wire::mine_response_value` plus `encode`.
    pub reply_encode: u64,
    /// Whole-request times of traced requests.
    pub traced: Vec<u64>,
    /// Whole-request times of untraced requests.
    pub untraced: Vec<u64>,
    /// `EventDb` clone + `extend` at each sealed window's size.
    pub seal: Vec<u64>,
    /// Replies whose result differed from the expected one.
    pub mismatches: u64,
}

impl Spans {
    fn merge(&mut self, other: Spans) {
        self.json_parse += other.json_parse;
        self.db_decode += other.db_decode;
        self.session_key += other.session_key;
        self.submit += other.submit;
        self.reply_encode += other.reply_encode;
        self.traced.extend(other.traced);
        self.untraced.extend(other.untraced);
        self.seal.extend(other.seal);
        self.mismatches += other.mismatches;
    }
}

/// The server's layers, assembled in this process the way `Server::bind`
/// assembles them.
struct InProcess {
    service: Arc<MiningService>,
    ingest: StreamIngest,
    tenants: TenantRegistry,
    alphabet: Alphabet,
}

impl InProcess {
    fn new() -> Self {
        let service = Arc::new(MiningService::new(ServerConfig::default().service));
        InProcess {
            ingest: StreamIngest::new(Arc::clone(&service)),
            service,
            tenants: TenantRegistry::new(vec![TenantConfig::new(TENANT, API_KEY)]),
            alphabet: Alphabet::latin26(),
        }
    }

    /// Serves one `mine` frame as `serve_mine` does. With `spans`, each
    /// layer call is timed into it; either way the whole request is timed.
    /// Returns the request time and whether the result matched.
    fn mine(&self, frame: &[u8], expected: &str, mut spans: Option<&mut Spans>) -> (u64, bool) {
        let began = Instant::now();
        let mut mark = |slot: fn(&mut Spans) -> &mut u64, since: Instant| {
            if let Some(spans) = spans.as_deref_mut() {
                *slot(spans) += since.elapsed().as_nanos() as u64;
            }
        };
        let t = Instant::now();
        let request = json::parse(std::str::from_utf8(frame).expect("frames are UTF-8"))
            .expect("frames are JSON");
        mark(|s| &mut s.json_parse, t);

        let field = |key| {
            request
                .get(key)
                .and_then(Value::as_str)
                .expect("generated field")
        };
        let tenant = field("tenant");
        self.tenants
            .authenticate(tenant, field("api_key"))
            .expect("known tenant");
        let _quota = self.tenants.take_quota(tenant).expect("no quota");
        self.tenants.take_token(tenant).expect("no rate limit");

        let t = Instant::now();
        let db = EventDb::from_str_symbols(&self.alphabet, field("events")).expect("letters");
        mark(|s| &mut s.db_decode, t);

        let config = wire::config_from(&request).expect("generated config");
        let request = MiningRequest::new(Arc::new(db), config)
            .backend(BackendChoice::default())
            .priority(Priority::Normal);
        let t = Instant::now();
        std::hint::black_box(request.key());
        mark(|s| &mut s.session_key, t);

        let t = Instant::now();
        let response = self.service.submit(&request);
        mark(|s| &mut s.submit, t);

        let t = Instant::now();
        let reply = match &response {
            Ok(response) => wire::mine_response_value(response, &self.alphabet),
            Err(e) => wire::serve_error_value(e),
        }
        .encode();
        mark(|s| &mut s.reply_encode, t);
        let elapsed = began.elapsed().as_nanos() as u64;

        let matched = reply
            .as_bytes()
            .strip_prefix(MINE_HEAD)
            .is_some_and(|rest| rest.starts_with(expected.as_bytes()));
        (elapsed, matched)
    }
}

/// Replays each lane's schedule from its start for `length`, at the socket
/// run's concurrency (one thread per lane). Odd-numbered mine requests are
/// traced, even ones are not, so both halves see the same load.
pub fn replay(inputs: &Inputs, length: Duration) -> Spans {
    let server = InProcess::new();
    let lanes = inputs.lanes();
    // The same warm-up the socket run's server got.
    if let Some(plan) = &inputs.ingest {
        let seed = EventDb::new(Alphabet::latin26(), plan.stream[..plan.seed_len].to_vec())
            .expect("letters");
        let triggers = IngestTriggers {
            flush_count: plan.flush_count,
            ..IngestTriggers::default()
        };
        server
            .ingest
            .register(STREAM, seed, plan.config, triggers)
            .expect("fresh stream");
    }
    std::thread::scope(|s| {
        for lane in 0..lanes.len() {
            let (server, lanes) = (&server, &lanes);
            s.spawn(move || {
                for i in inputs.warmup(lanes, lane) {
                    let p = &inputs.payloads[i];
                    server.mine(&p.frame, &p.expected, None);
                }
            });
        }
    });

    let start = Instant::now();
    let end = start + length;
    let mut spans = Spans::default();
    let parts: Vec<Spans> = std::thread::scope(|s| {
        let server = &server;
        let handles: Vec<_> = lanes
            .into_iter()
            .map(|lane| {
                s.spawn(move || match lane {
                    Lane::Mine(schedule) => replay_mines(server, inputs, schedule, end),
                    Lane::Ingest => replay_ingest(server, inputs, start, end),
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay lane"))
            .collect()
    });
    for part in parts {
        spans.merge(part);
    }
    spans
}

fn replay_mines(server: &InProcess, inputs: &Inputs, schedule: Schedule, end: Instant) -> Spans {
    let mut spans = Spans::default();
    for (n, i) in schedule.enumerate() {
        if Instant::now() >= end {
            break;
        }
        let p = &inputs.payloads[i];
        let traced = n % 2 == 1;
        let (elapsed, matched) = server.mine(&p.frame, &p.expected, traced.then_some(&mut spans));
        spans.mismatches += u64::from(!matched);
        if traced {
            spans.traced.push(elapsed);
        } else {
            spans.untraced.push(elapsed);
        }
    }
    spans
}

/// The ingest lane at its open-loop schedule, through `StreamIngest` as
/// `serve_ingest` calls it. Sealing happens inside `append`, out of reach of
/// a span, so each window's seal (clone + extend at that size) is repeated
/// on a mirror of the stream and timed there.
fn replay_ingest(server: &InProcess, inputs: &Inputs, start: Instant, end: Instant) -> Spans {
    let plan = inputs
        .ingest
        .as_ref()
        .expect("ingest lane needs an ingest plan");
    let mut spans = Spans::default();
    let mut mirror =
        EventDb::new(Alphabet::latin26(), plan.stream[..plan.seed_len].to_vec()).expect("letters");
    let mut pending: Vec<u8> = Vec::new();
    for (i, frame) in plan.frames.iter().enumerate() {
        let due = start + plan.period * i as u32;
        if due >= end {
            break;
        }
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let request = json::parse(std::str::from_utf8(frame).expect("frames are UTF-8"))
            .expect("frames are JSON");
        let letters = request
            .get("symbols")
            .and_then(Value::as_str)
            .expect("generated field");
        let symbols: Vec<u8> = letters.bytes().map(|c| c - b'A').collect();
        if server.ingest.append(STREAM, &symbols).is_err() {
            spans.mismatches += 1;
        }
        pending.extend_from_slice(&symbols);
        if pending.len() >= plan.flush_count {
            let t = Instant::now();
            let mut grown = EventDb::clone(&mirror);
            grown.extend(&pending).expect("letters");
            spans.seal.push(t.elapsed().as_nanos() as u64);
            mirror = grown;
            pending.clear();
        }
    }
    spans
}

/// Per-request engine measurements of the core pass, in nanoseconds.
#[derive(Debug, Default, Clone)]
pub struct Core {
    /// `OccurrenceIndex::build` on each request's stream.
    pub index_build: Vec<u64>,
    /// `MiningSession::mine_with` with the timed reference executor.
    pub mine: Vec<u64>,
    /// `mine` minus the executor's time: candidate generation, compile and
    /// elimination.
    pub level_loop: Vec<u64>,
    /// Per level (index 0 is level 1): executor times.
    pub count: [Vec<u64>; 3],
    /// Per level: candidate counts.
    pub candidates: [Vec<u64>; 3],
    /// Results that differed from the expected one.
    pub mismatches: u64,
}

impl Core {
    fn merge(&mut self, other: Core) {
        self.index_build.extend(other.index_build);
        self.mine.extend(other.mine);
        self.level_loop.extend(other.level_loop);
        for level in 0..3 {
            self.count[level].extend(&other.count[level]);
            self.candidates[level].extend(&other.candidates[level]);
        }
        self.mismatches += other.mismatches;
    }
}

/// The reference `AutoBackend` under a timing wrapper: one record per level.
#[derive(Default)]
struct TimedAuto {
    levels: Vec<(usize, usize, u64)>,
}

impl Executor for TimedAuto {
    fn execute(&mut self, req: &CountRequest<'_>) -> Result<Counts, BackendError> {
        let t = Instant::now();
        let counts = AutoBackend.execute(req);
        self.levels
            .push((req.level(), req.candidates(), t.elapsed().as_nanos() as u64));
        counts
    }

    fn name(&self) -> &str {
        "timed-engine-auto"
    }
}

/// Mines each mine lane's schedule with the reference engine for `length`,
/// one thread per mine lane, over one pool sized like the service's.
pub fn core_pass(inputs: &Inputs, length: Duration) -> Core {
    let workers = match ServerConfig::default().service.workers {
        0 => default_workers(),
        n => n,
    };
    let pool = Arc::new(Pool::with_workers(workers));
    let end = Instant::now() + length;
    let parts: Vec<Core> = std::thread::scope(|s| {
        let handles: Vec<_> = inputs
            .lanes()
            .into_iter()
            .filter_map(|lane| match lane {
                Lane::Mine(schedule) => Some(schedule),
                Lane::Ingest => None,
            })
            .map(|schedule| {
                let pool = Arc::clone(&pool);
                s.spawn(move || core_lane(inputs, schedule, &pool, end))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("core lane"))
            .collect()
    });
    let mut core = Core::default();
    for part in parts {
        core.merge(part);
    }
    core
}

fn core_lane(inputs: &Inputs, schedule: Schedule, pool: &Arc<Pool>, end: Instant) -> Core {
    let mut core = Core::default();
    for i in schedule {
        if Instant::now() >= end {
            break;
        }
        let p = &inputs.payloads[i];
        let t = Instant::now();
        std::hint::black_box(OccurrenceIndex::build(
            p.db.alphabet().len(),
            p.db.symbols(),
        ));
        core.index_build.push(t.elapsed().as_nanos() as u64);

        let mut session = MiningSession::builder_shared(Arc::clone(&p.db))
            .config(p.config)
            .with_pool(Arc::clone(pool))
            .build();
        let mut timed = TimedAuto::default();
        let t = Instant::now();
        let result = session.mine_with(&mut timed, |_| {});
        let mine = t.elapsed().as_nanos() as u64;
        core.mine.push(mine);
        let counted: u64 = timed.levels.iter().map(|l| l.2).sum();
        core.level_loop.push(mine.saturating_sub(counted));
        for (level, candidates, ns) in timed.levels {
            if let Some(slot) = level.checked_sub(1).filter(|&l| l < 3) {
                core.count[slot].push(ns);
                core.candidates[slot].push(candidates as u64);
            }
        }
        let matched = result
            .is_ok_and(|r| wire::mining_result_value(&r, p.db.alphabet()).encode() == p.expected);
        core.mismatches += u64::from(!matched);
    }
    core
}
