//! Real-CPU throughput benchmark of the counting backends — the perf
//! trajectory of the reproduction itself (not simulated GPU time).
//!
//! Times every CPU counting configuration at the paper's levels 1–3 over the
//! (scaled) paper database and emits a hand-rolled JSON report
//! (`BENCH_counting.json`): milliseconds and Msymbols/s per backend, plus two
//! headline ratios against the frozen seed active-set counter — the
//! database-sharded engine (`level2_sharded_vs_seed`) and the best of the
//! single-threaded strategy rows `engine-vertical` / `engine-bitmask`
//! (`level2_best_vs_seed`, the algorithmic win `tools/bench_guard.sh` holds
//! at ≥ 1.0). The seed counter is reimplemented here verbatim (per-call
//! `Vec<Vec<u32>>` anchor index, no compiled layout) so the ratios keep
//! meaning as the engine evolves.
//!
//! Row semantics worth knowing when comparing artifacts across versions:
//! every `engine-sharded-w*` and `session-*` row times one executor on the
//! session's planned request (zero-copy `Arc` handles, persistent pool). The
//! `engine-sharded-w*` rows run `ShardedScanBackend::new(w)`, which cuts `w`
//! even shards but never more than the host has threads, so on a 1-core host
//! every one of them is the plain sequential scan. The seed row and the
//! sharded row of the ratio are timed in alternating samples (seed, sharded,
//! seed, …), so a swing in host speed lands on both sides of the ratio.
//! `session-sharded-pooled` follows the session's own shard bounds, and the
//! two `session-auto-*` rows are the cost-dispatched executor a mining
//! service actually runs. Both plan a fresh session per call, as every
//! served request does. `session-auto-cold` builds the session's own
//! occurrence index and whatever the level reads (the pair table at level
//! 2) inside the timer, as for a request on a new database.
//! `session-auto-parked` hands each session one warm shared index, as the
//! serving layer's index cache does for a database: a cache hit, where
//! level 2 is a pair-table read. The `engine-vertical` row also
//! builds its `OccurrenceIndex` inside the timer: it times a cold database,
//! the per-symbol counts plus whatever the level reads (the pair table at
//! level 2, the position lists at level 3).
//!
//! The `small_mine` section times a whole served mine on the small-requests
//! shape (a 4,000-letter Markov stream with persistence 0.7, α 0.001, at
//! most level 2): `MiningSession::mine` on `AutoBackend`, on a fresh session
//! that builds its own index and on a fresh session over a warm shared index
//! (what `MiningService` runs on a cache hit), each split into executor time
//! and level-loop time
//! (candidate generation, compile and elimination). Beside it, the frozen
//! seed counter counts the same stream's level-1 and level-2 candidates;
//! `small_mine_parked_vs_seed` is the seed time over the parked mine's, the
//! ratio `tools/bench_guard.sh` holds a floor under.

use std::cell::Cell;
use std::sync::Arc;
use std::time::Instant;
use tdm_baselines::{MapReduceBackend, SerialScanBackend, ShardedScanBackend};
use tdm_core::candidate::{apriori_join, level1, permutations};
use tdm_core::engine::{BitmaskNfa, CompiledCandidates, CountScratch, OccurrenceIndex};
use tdm_core::miner::{AutoBackend, MinerConfig};
use tdm_core::session::{BackendError, CountRequest, Counts, Executor, MiningSession};
use tdm_core::{Alphabet, Episode, EventDb};
use tdm_mapreduce::pool::{default_workers, Pool};
use tdm_workloads::{markov_letters, paper_database_scaled};

/// Benchmark parameters.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Database scale relative to the paper's 393,019 letters.
    pub scale: f64,
    /// Episode levels to measure (paper: 1, 2, 3).
    pub levels: Vec<usize>,
    /// Worker counts for the sharded engine.
    pub shard_workers: Vec<usize>,
    /// Timed repetitions per backend (best-of is reported).
    pub repeats: usize,
    /// Candidate sets larger than this skip the one-scan-per-episode serial
    /// baseline (it is quadratically slow and adds nothing at level 3).
    pub serial_scan_cap: usize,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            scale: 1.0,
            levels: vec![1, 2, 3],
            shard_workers: vec![2, 4, 8],
            repeats: 3,
            serial_scan_cap: 1000,
        }
    }
}

/// One backend's timing at one level.
#[derive(Debug, Clone)]
pub struct BackendTiming {
    /// Backend label.
    pub name: String,
    /// Best per-call wall time, milliseconds (min over samples; each sample
    /// loops the call until it spans at least ~2 ms of wall time, so
    /// sub-millisecond calls are still resolved).
    pub ms: f64,
    /// The same best per-call time in integer nanoseconds — the readable
    /// figure for sub-millisecond rows, where a 3-decimal ms column would
    /// render `0.000` and make every ratio against it absurd.
    pub ns: u64,
    /// Stream throughput, million symbols per second.
    pub msymbols_per_s: f64,
}

/// All timings for one episode level.
#[derive(Debug, Clone)]
pub struct LevelBench {
    /// Episode level (length).
    pub level: usize,
    /// Candidate episodes counted.
    pub episodes: usize,
    /// Sum of all counts (functional checksum; every backend must agree).
    pub checksum: u64,
    /// Per-backend timings.
    pub backends: Vec<BackendTiming>,
    /// `seed ms / sharded ms` at the entry with the most workers ≤ 4 — the
    /// acceptance ratio. Falls back to the fewest-worker sharded entry when
    /// none is ≤ 4, and to 0.0 when no sharded entries are configured, so the
    /// value (and the JSON) stays finite for any `shard_workers` list.
    pub sharded4_vs_seed_speedup: f64,
    /// `seed ms / best new-strategy ms` across the single-threaded
    /// `engine-vertical` and `engine-bitmask` rows — the *algorithmic* win
    /// over the seed scanner, independent of host parallelism. 0.0 when
    /// neither strategy row was produced.
    pub best_vs_seed_speedup: f64,
}

/// The full benchmark report.
#[derive(Debug, Clone)]
pub struct CountingBench {
    /// Database length actually used.
    pub db_len: usize,
    /// Scale relative to the paper's database.
    pub scale: f64,
    /// `std::thread::available_parallelism` of the measuring host — sharded
    /// speedups are bounded by this, so readers can judge the ratios.
    pub available_parallelism: usize,
    /// The acceptance headline: level-2 `sharded4_vs_seed_speedup` (0.0 when
    /// level 2 was not measured), surfaced top-level so the CI artifact
    /// records it without readers digging through the level list.
    pub level2_sharded_vs_seed: f64,
    /// The strategy headline: level-2 `best_vs_seed_speedup` (0.0 when level
    /// 2 was not measured). CI fails when this drops below 1.0 — the new
    /// strategies must beat the seed scanner on one core, not via threads.
    pub level2_best_vs_seed: f64,
    /// The small-mine headline: `small_mine.seed_ns / small_mine.parked.ns`,
    /// how many times faster a parked served mine is than the seed counter
    /// counting the same candidates. `tools/bench_guard.sh` holds a floor
    /// under it.
    pub small_mine_parked_vs_seed: f64,
    /// A whole served mine on the small-requests shape (in the JSON report).
    small_mine: SmallMine,
    /// Per-level results.
    pub levels: Vec<LevelBench>,
}

/// One mine's best per-call times, split at the executor boundary. Each is
/// its own min-of-N, so a host swing inside one sample cannot move the
/// split.
#[derive(Debug, Clone, Copy, Default)]
struct MineTiming {
    /// Wall time of `MiningSession::mine`, nanoseconds.
    ns: u64,
    /// The part spent in the executor (`AutoBackend::execute`, every level).
    executor_ns: u64,
    /// The rest: candidate generation, compile and elimination.
    level_loop_ns: u64,
}

/// A whole served mine on the small-requests shape, against the seed
/// counter over the same candidates.
#[derive(Debug, Clone, Default)]
struct SmallMine {
    /// Stream length (letters).
    db_len: usize,
    /// Support threshold α.
    alpha: f64,
    /// Deepest level mined.
    max_level: usize,
    /// Candidates counted per level (level 1 first).
    candidates: Vec<usize>,
    /// A fresh session per call: planning, the occurrence index and the
    /// pair table are built inside the timer.
    cold: MineTiming,
    /// A fresh session per call over a warm shared index: what a served
    /// index-cache hit runs.
    parked: MineTiming,
    /// The seed counter over each level's candidates, nanoseconds.
    seed_level_ns: Vec<u64>,
    /// Their sum.
    seed_ns: u64,
}

/// The seed repository's `count_episodes` (PR 1), frozen: active-set scan with
/// a per-call `Vec<Vec<u32>>` anchor index. The benchmark baseline.
fn seed_count_episodes(db: &EventDb, episodes: &[Episode]) -> Vec<u64> {
    let n_eps = episodes.len();
    let mut counts = vec![0u64; n_eps];
    if n_eps == 0 || db.is_empty() {
        return counts;
    }
    let items: Vec<&[u8]> = episodes.iter().map(|e| e.items()).collect();
    let mut state = vec![0u8; n_eps];
    let mut last_step = vec![u64::MAX; n_eps];
    let mut by_first: Vec<Vec<u32>> = vec![Vec::new(); db.alphabet().len()];
    for (i, it) in items.iter().enumerate() {
        by_first[it[0] as usize].push(i as u32);
    }
    let mut active: Vec<u32> = Vec::new();
    let mut next_active: Vec<u32> = Vec::new();
    for (pos, &c) in db.symbols().iter().enumerate() {
        let pos = pos as u64;
        for &ei in &active {
            let e = ei as usize;
            let it = items[e];
            let j = state[e] as usize;
            last_step[e] = pos;
            if c == it[j] {
                if j + 1 == it.len() {
                    counts[e] += 1;
                    state[e] = 0;
                } else {
                    state[e] += 1;
                    next_active.push(ei);
                }
            } else if c == it[0] {
                state[e] = 1;
                next_active.push(ei);
            } else {
                state[e] = 0;
            }
        }
        std::mem::swap(&mut active, &mut next_active);
        next_active.clear();
        for &ei in &by_first[c as usize] {
            let e = ei as usize;
            if state[e] == 0 && last_step[e] != pos {
                if items[e].len() == 1 {
                    counts[e] += 1;
                } else {
                    state[e] = 1;
                    active.push(ei);
                }
            }
        }
    }
    counts
}

/// Minimum wall time one timed sample must span, milliseconds. Calls cheaper
/// than this are looped inside the timer until the sample crosses it, so a
/// sub-millisecond row reports a per-call time averaged over a meaningful
/// window instead of a single timer quantum (which rounds to `0.000 ms` and
/// turns every ratio against the row into noise).
const MIN_SAMPLE_MS: f64 = 2.0;

/// Upper bound on the calibrated inner iteration count (keeps a pathological
/// sub-nanosecond calibration from looping forever).
const MAX_SAMPLE_ITERS: u32 = 10_000;

/// Times `f` with min-of-N sampling: one untimed-for-scoring calibration call
/// sizes an inner iteration count so that every sample spans at least
/// [`MIN_SAMPLE_MS`], then each of `repeats` samples runs `f` that many times
/// and scores `elapsed / iters`. Returns (best per-call ms, last result).
fn time_best<R>(repeats: usize, f: impl FnMut() -> R) -> (f64, R) {
    let mut sampler = Sampler::calibrate(f);
    for _ in 0..repeats.max(1) {
        sampler.sample();
    }
    (sampler.best, sampler.out)
}

/// [`time_best`] for two calls at once, sampled alternately (`a`, `b`, `a`,
/// …): a swing in host speed lands on both, so the ratio of their bests
/// stays put. Returns each side's (best per-call ms, last result).
fn time_interleaved<A, B>(
    repeats: usize,
    a: impl FnMut() -> A,
    b: impl FnMut() -> B,
) -> ((f64, A), (f64, B)) {
    let (mut a, mut b) = (Sampler::calibrate(a), Sampler::calibrate(b));
    for _ in 0..repeats.max(1) {
        a.sample();
        b.sample();
    }
    ((a.best, a.out), (b.best, b.out))
}

/// How many calls one sample makes so that it spans at least
/// [`MIN_SAMPLE_MS`], given a calibration call that started at `start`.
fn calls_per_sample(start: Instant) -> u32 {
    let first_ms = start.elapsed().as_secs_f64() * 1e3;
    if first_ms >= MIN_SAMPLE_MS {
        1
    } else {
        ((MIN_SAMPLE_MS / first_ms.max(1e-7)).ceil() as u32).clamp(1, MAX_SAMPLE_ITERS)
    }
}

/// Min-of-N timing state for one call.
struct Sampler<R, F> {
    f: F,
    iters: u32,
    best: f64,
    out: R,
}

impl<R, F: FnMut() -> R> Sampler<R, F> {
    /// Runs `f` once to size the inner iteration count.
    fn calibrate(mut f: F) -> Self {
        let t = Instant::now();
        let out = f();
        // The calibration call never scores: a single cheap call can land
        // under one timer quantum and report an impossible best.
        Sampler {
            iters: calls_per_sample(t),
            f,
            best: f64::INFINITY,
            out,
        }
    }

    /// One sample: `iters` calls, scored per call. Returns the sample's
    /// per-call milliseconds.
    fn sample(&mut self) -> f64 {
        let t = Instant::now();
        for _ in 0..self.iters {
            self.out = (self.f)();
        }
        let ms = t.elapsed().as_secs_f64() * 1e3 / f64::from(self.iters);
        self.best = self.best.min(ms);
        ms
    }
}

/// `AutoBackend` under a timer: adds the executor side of a mine to its
/// counter, nanoseconds.
#[derive(Debug)]
struct TimedAuto<'a>(&'a Cell<u64>);

impl Executor for TimedAuto<'_> {
    fn execute(&mut self, req: &CountRequest<'_>) -> Result<Counts, BackendError> {
        let t = Instant::now();
        let counts = AutoBackend.execute(req);
        self.0.set(self.0.get() + t.elapsed().as_nanos() as u64);
        counts
    }

    fn name(&self) -> &str {
        "timed-engine-auto"
    }
}

/// Samples taken of each small-mine timing (min-of-N, each sample at least
/// [`MIN_SAMPLE_MS`] long).
const SMALL_MINE_SAMPLES: usize = 15;

/// One sample of a mine whose [`TimedAuto`] adds to `executor_ns`: scores
/// the wall time, the executor time and the rest per call into `best`.
fn sample_mine(
    mine: &mut Sampler<(), impl FnMut()>,
    executor_ns: &Cell<u64>,
    best: &mut MineTiming,
) {
    executor_ns.set(0);
    let ns = (mine.sample() * 1e6).round() as u64;
    let executor = executor_ns.get() / u64::from(mine.iters);
    best.ns = best.ns.min(ns);
    best.executor_ns = best.executor_ns.min(executor);
    best.level_loop_ns = best.level_loop_ns.min(ns.saturating_sub(executor));
}

/// Times a served mine on the small-requests shape against the seed
/// counter over the same candidates (see the [module docs](self)).
fn small_mine(pool: &Arc<Pool>) -> SmallMine {
    let db = Arc::new(markov_letters(4_000, 1, 0.7));
    let config = MinerConfig {
        alpha: 0.001,
        max_level: Some(2),
        ..Default::default()
    };
    let cold_session = || {
        MiningSession::builder_shared(Arc::clone(&db))
            .with_pool(Arc::clone(pool))
            .config(config)
            .build()
    };
    // A served cache hit: a fresh session over the database's shared index.
    let warm_index = Arc::new(OccurrenceIndex::build(db.alphabet().len(), db.symbols()));
    let hit_session = || {
        MiningSession::builder_shared(Arc::clone(&db))
            .with_pool(Arc::clone(pool))
            .with_index(Arc::clone(&warm_index))
            .config(config)
            .build()
    };
    // The first mine builds the warm index's pair table.
    let result = hit_session()
        .mine(&mut AutoBackend)
        .expect("small mine failed");
    // The seed counter over each level's candidates: every symbol, then the
    // join of the frequent ones (what the mine's level 2 counted).
    let level1 = level1(db.alphabet());
    let frequent: Vec<Episode> = result.levels[0]
        .frequent
        .iter()
        .map(|(e, _)| e.clone())
        .collect();
    let level2 = apriori_join(&frequent, config.distinct_items_only);
    let (cold_ns, parked_ns) = (Cell::new(0), Cell::new(0));
    let mut cold_mine = Sampler::calibrate(|| {
        let mined = cold_session()
            .mine(&mut TimedAuto(&cold_ns))
            .expect("small mine failed");
        assert_eq!(mined, result, "a cold small mine diverged");
    });
    let mut parked_mine = Sampler::calibrate(|| {
        let mined = hit_session()
            .mine(&mut TimedAuto(&parked_ns))
            .expect("small mine failed");
        assert_eq!(mined, result, "a parked small mine diverged");
    });
    let stream: &EventDb = &db;
    let mut seeds = [&level1, &level2]
        .map(|candidates| Sampler::calibrate(move || seed_count_episodes(stream, candidates)));
    let unsampled = MineTiming {
        ns: u64::MAX,
        executor_ns: u64::MAX,
        level_loop_ns: u64::MAX,
    };
    let (mut cold, mut parked) = (unsampled, unsampled);
    // Sampled in rounds, so a swing in host speed lands on every timing.
    for _ in 0..SMALL_MINE_SAMPLES {
        sample_mine(&mut cold_mine, &cold_ns, &mut cold);
        sample_mine(&mut parked_mine, &parked_ns, &mut parked);
        for seed in &mut seeds {
            seed.sample();
        }
    }
    let mut seed_level_ns = Vec::new();
    for (level, seed) in seeds.into_iter().enumerate() {
        let want: Vec<u64> = result.levels[level]
            .frequent
            .iter()
            .map(|&(_, count)| count)
            .collect();
        let got: Vec<u64> = seed
            .out
            .into_iter()
            .filter(|&count| tdm_core::stats::support(count, db.len()) > config.alpha)
            .collect();
        assert_eq!(
            got,
            want,
            "the seed counter disagrees at level {}",
            level + 1
        );
        seed_level_ns.push((seed.best * 1e6).round() as u64);
    }
    SmallMine {
        db_len: db.len(),
        alpha: config.alpha,
        max_level: 2,
        candidates: result.levels.iter().map(|l| l.candidates).collect(),
        cold,
        parked,
        seed_ns: seed_level_ns.iter().sum(),
        seed_level_ns,
    }
}

/// The worker count of the `engine-sharded-w*` row behind the sharded ratio:
/// the most workers ≤ 4, or the fewest when none is ≤ 4 (`None` for an empty
/// list), so the ratio stays finite for any `shard_workers` list.
fn ratio_workers(shard_workers: &[usize]) -> Option<usize> {
    let at_most_4 = shard_workers.iter().copied().filter(|&w| w <= 4).max();
    at_most_4.or_else(|| shard_workers.iter().copied().min())
}

/// Runs the benchmark.
pub fn run(cfg: &BenchConfig) -> CountingBench {
    let db = paper_database_scaled(cfg.scale);
    let ab = Alphabet::latin26();
    let n = db.len();
    let throughput = |ms: f64| n as f64 / 1e6 / (ms / 1e3).max(1e-9);
    let row = |name: String, ms: f64| BackendTiming {
        name,
        ms,
        ns: (ms * 1e6).round() as u64,
        msymbols_per_s: throughput(ms),
    };
    let mut levels = Vec::new();
    // One pool and one session for the whole benchmark: persistent workers,
    // reusable compiled buffers — the steady state a mining service would
    // run in. Fresh sessions (the cold rows) share the pool, as a service's
    // sessions do.
    let pool = Arc::new(Pool::with_workers(default_workers()));
    let mut session = MiningSession::builder(&db)
        .with_pool(Arc::clone(&pool))
        .build();
    // The index a served cache hit shares: every level's parked row reads it,
    // and the first call at a level builds what that level reads.
    let warm_index = Arc::new(OccurrenceIndex::build(ab.len(), db.symbols()));
    let ratio_workers = ratio_workers(&cfg.shard_workers);

    for &level in &cfg.levels {
        let episodes = permutations(&ab, level);
        let compiled = CompiledCandidates::compile(ab.len(), &episodes);
        let mut backends: Vec<BackendTiming> = Vec::new();

        // The session-driven rows: plan once per level (outside the timers,
        // exactly like the engine-* entries precompile), then time the
        // execute step alone — like-for-like ms across all rows. Pool
        // threads stay persistent across every call below.
        let req = session.plan_candidates(&episodes);

        // The seed row and the ratio's sharded row, sampled alternately.
        let seed = || seed_count_episodes(&db, &episodes);
        let mut ratio_backend = ratio_workers.map(ShardedScanBackend::new);
        let ((seed_ms, reference), ratio_row) = match ratio_backend.as_mut() {
            Some(backend) => {
                let sharded = || backend.execute(&req).expect("bench executor failed");
                let (seed, sharded) = time_interleaved(cfg.repeats, seed, sharded);
                (seed, Some(sharded))
            }
            None => (time_best(cfg.repeats, seed), None),
        };
        backends.push(row("seed-active-set".into(), seed_ms));
        let checksum: u64 = reference.iter().sum();

        let check = |name: &str, counts: &[u64]| {
            assert_eq!(
                counts,
                &reference[..],
                "{name} disagrees with the seed counter at level {level}"
            );
        };

        let mut scratch = CountScratch::new();
        let (ms, counts) = time_best(cfg.repeats, || compiled.count(db.symbols(), &mut scratch));
        check("engine-compiled", &counts);
        backends.push(row("engine-compiled".into(), ms));

        // The two single-threaded strategies that should beat the seed
        // scanner outright: vertical counting (index reads and
        // occurrence-list probes) and word-packed Shift-And advancement.
        // Their best time feeds the `best_vs_seed_speedup` ratio — an
        // algorithmic win, not parallelism. The vertical row builds its
        // index inside the timer, so a cached table never scores.
        let (vertical_ms, counts) = time_best(cfg.repeats, || {
            let index = OccurrenceIndex::build(ab.len(), db.symbols());
            compiled.count_vertical(db.symbols(), &index)
        });
        check("engine-vertical", &counts);
        backends.push(row("engine-vertical".into(), vertical_ms));
        let mut best_strategy_ms = vertical_ms;
        if let Some(nfa) = BitmaskNfa::build(&compiled) {
            let (bitmask_ms, counts) = time_best(cfg.repeats, || nfa.count(db.symbols()));
            check("engine-bitmask", &counts);
            backends.push(row("engine-bitmask".into(), bitmask_ms));
            best_strategy_ms = best_strategy_ms.min(bitmask_ms);
        }

        let time_executor = |ex: &mut dyn Executor| {
            time_best(cfg.repeats, || {
                ex.execute(&req).expect("bench executor failed")
            })
        };
        let mut record = |name: String, (ms, counts): (f64, Counts)| {
            check(&name, &counts);
            backends.push(row(name, ms));
        };

        // An explicit worker count of 1 must dispatch straight to the
        // sequential compiled scan — this row exists to prove the
        // `engine-sharded-w1` time matches `engine-compiled` instead of
        // paying pool dispatch + merge for zero parallelism.
        record(
            "engine-sharded-w1".into(),
            time_executor(&mut ShardedScanBackend::new(1)),
        );

        let mut ratio_row = ratio_row;
        let mut sharded_ms = None;
        for &w in &cfg.shard_workers {
            let timing = match ratio_row.take_if(|_| Some(w) == ratio_workers) {
                Some(timing) => {
                    sharded_ms = Some(timing.0);
                    timing
                }
                None => time_executor(&mut ShardedScanBackend::new(w)),
            };
            record(format!("engine-sharded-w{w}"), timing);
        }

        if episodes.len() <= cfg.serial_scan_cap {
            record(
                "cpu-serial-scan".into(),
                time_executor(&mut SerialScanBackend),
            );
        }
        record(
            "cpu-mapreduce".into(),
            time_executor(&mut MapReduceBackend::auto()),
        );
        record(
            "session-sharded-pooled".into(),
            time_executor(&mut ShardedScanBackend::auto()),
        );
        // The per-level cost-dispatched executor a session actually runs:
        // picks vertical / bitmask / scan per candidate set, on a fresh
        // session per call. Parked: the session reads the warm shared index
        // (and pair table), as a served cache hit does.
        let served = |index: Option<&Arc<OccurrenceIndex>>| {
            let builder = MiningSession::builder(&db).with_pool(Arc::clone(&pool));
            let mut fresh = match index {
                Some(index) => builder.with_index(Arc::clone(index)),
                None => builder,
            }
            .build();
            let req = fresh.plan_candidates(&episodes);
            AutoBackend.execute(&req).expect("bench executor failed")
        };
        let parked = time_best(cfg.repeats, || served(Some(&warm_index)));
        record("session-auto-parked".into(), parked);
        // Cold: the session plans, builds its own index and reads.
        let cold = time_best(cfg.repeats, || served(None));
        record("session-auto-cold".into(), cold);

        levels.push(LevelBench {
            level,
            episodes: episodes.len(),
            checksum,
            backends,
            sharded4_vs_seed_speedup: sharded_ms.map(|ms| seed_ms / ms).unwrap_or(0.0),
            best_vs_seed_speedup: seed_ms / best_strategy_ms,
        });
    }

    let level2 = levels.iter().find(|l| l.level == 2);
    let level2_sharded_vs_seed = level2.map(|l| l.sharded4_vs_seed_speedup).unwrap_or(0.0);
    let level2_best_vs_seed = level2.map(|l| l.best_vs_seed_speedup).unwrap_or(0.0);
    let small_mine = small_mine(&pool);
    CountingBench {
        db_len: n,
        scale: cfg.scale,
        available_parallelism: default_workers(),
        level2_sharded_vs_seed,
        level2_best_vs_seed,
        small_mine_parked_vs_seed: small_mine.seed_ns as f64 / small_mine.parked.ns.max(1) as f64,
        small_mine,
        levels,
    }
}

impl CountingBench {
    /// Serializes the report as pretty JSON (hand-rolled; the workspace builds
    /// offline without a JSON crate).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str(&format!("  \"db_len\": {},\n", self.db_len));
        s.push_str(&format!("  \"scale\": {},\n", self.scale));
        s.push_str(&format!(
            "  \"available_parallelism\": {},\n",
            self.available_parallelism
        ));
        s.push_str(&format!(
            "  \"level2_sharded_vs_seed\": {:.4},\n",
            self.level2_sharded_vs_seed
        ));
        s.push_str(&format!(
            "  \"level2_best_vs_seed\": {:.4},\n",
            self.level2_best_vs_seed
        ));
        s.push_str(&format!(
            "  \"small_mine_parked_vs_seed\": {:.4},\n",
            self.small_mine_parked_vs_seed
        ));
        let m = &self.small_mine;
        let timing = |t: &MineTiming| {
            format!(
                "{{\"ns\": {}, \"executor_ns\": {}, \"level_loop_ns\": {}}}",
                t.ns, t.executor_ns, t.level_loop_ns
            )
        };
        let list = |v: &[u64]| v.iter().map(u64::to_string).collect::<Vec<_>>().join(", ");
        let candidates: Vec<u64> = m.candidates.iter().map(|&c| c as u64).collect();
        s.push_str("  \"small_mine\": {\n");
        s.push_str(&format!("    \"db_len\": {},\n", m.db_len));
        s.push_str(&format!("    \"alpha\": {},\n", m.alpha));
        s.push_str(&format!("    \"max_level\": {},\n", m.max_level));
        s.push_str(&format!("    \"candidates\": [{}],\n", list(&candidates)));
        s.push_str(&format!("    \"cold\": {},\n", timing(&m.cold)));
        s.push_str(&format!("    \"parked\": {},\n", timing(&m.parked)));
        s.push_str(&format!(
            "    \"seed_level_ns\": [{}],\n",
            list(&m.seed_level_ns)
        ));
        s.push_str(&format!("    \"seed_ns\": {}\n", m.seed_ns));
        s.push_str("  },\n");
        s.push_str("  \"levels\": [\n");
        for (i, l) in self.levels.iter().enumerate() {
            s.push_str("    {\n");
            s.push_str(&format!("      \"level\": {},\n", l.level));
            s.push_str(&format!("      \"episodes\": {},\n", l.episodes));
            s.push_str(&format!("      \"checksum\": {},\n", l.checksum));
            s.push_str(&format!(
                "      \"sharded4_vs_seed_speedup\": {:.4},\n",
                l.sharded4_vs_seed_speedup
            ));
            s.push_str(&format!(
                "      \"best_vs_seed_speedup\": {:.4},\n",
                l.best_vs_seed_speedup
            ));
            s.push_str("      \"backends\": [\n");
            for (j, b) in l.backends.iter().enumerate() {
                s.push_str(&format!(
                    "        {{\"name\": \"{}\", \"ms\": {:.6}, \"ns\": {}, \"msymbols_per_s\": {:.3}}}{}\n",
                    b.name,
                    b.ms,
                    b.ns,
                    b.msymbols_per_s,
                    if j + 1 < l.backends.len() { "," } else { "" }
                ));
            }
            s.push_str("      ]\n");
            s.push_str(&format!(
                "    }}{}\n",
                if i + 1 < self.levels.len() { "," } else { "" }
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// One-line-per-backend terminal summary.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "counting throughput (db = {} letters, {} host threads):\n",
            self.db_len, self.available_parallelism
        );
        let m = &self.small_mine;
        s.push_str(&format!(
            "  small mine ({} letters, α {}, levels ≤ {}, candidates {:?}):\n",
            m.db_len, m.alpha, m.max_level, m.candidates
        ));
        for (name, t) in [("cold", &m.cold), ("parked", &m.parked)] {
            s.push_str(&format!(
                "    {:<7} {:>9} ns  (executor {:>8} ns, level loop {:>8} ns)\n",
                name, t.ns, t.executor_ns, t.level_loop_ns
            ));
        }
        s.push_str(&format!(
            "    seed    {:>9} ns  (per level {:?} ns)\n    parked vs seed: {:.2}x\n",
            m.seed_ns, m.seed_level_ns, self.small_mine_parked_vs_seed
        ));
        for l in &self.levels {
            s.push_str(&format!("  level {} ({} episodes):\n", l.level, l.episodes));
            for b in &l.backends {
                s.push_str(&format!(
                    "    {:<22} {:>12.4} ms  {:>12} ns  {:>8.2} Msym/s\n",
                    b.name, b.ms, b.ns, b.msymbols_per_s
                ));
            }
            s.push_str(&format!(
                "    sharded(≤4w) vs seed: {:.2}x\n",
                l.sharded4_vs_seed_speedup
            ));
            s.push_str(&format!(
                "    best strategy vs seed: {:.2}x\n",
                l.best_vs_seed_speedup
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CountingBench {
        run(&BenchConfig {
            scale: 0.02,
            levels: vec![1, 2],
            shard_workers: vec![2, 4],
            repeats: 1,
            serial_scan_cap: 100,
        })
    }

    #[test]
    fn bench_runs_and_reports_all_backends() {
        let b = tiny();
        assert_eq!(b.levels.len(), 2);
        for l in &b.levels {
            // seed, compiled, vertical, bitmask, sharded-w1, sharded x2,
            // mapreduce, pooled, auto parked and cold (+ serial at level 1
            // only).
            assert!(
                l.backends.len() >= 10,
                "level {}: {:?}",
                l.level,
                l.backends
            );
            // Min-of-N iteration timing: even nanosecond-scale calls must
            // report a strictly positive time (no more 0.000 ms rows and the
            // absurd ratios they produce).
            for t in &l.backends {
                assert!(t.ms > 0.0, "{} reported a zero time", t.name);
                assert!(t.ns > 0, "{} reported zero nanoseconds", t.name);
                let expect_ns = (t.ms * 1e6).round() as u64;
                assert_eq!(t.ns, expect_ns, "{}: ns and ms disagree", t.name);
            }
            assert!(l.sharded4_vs_seed_speedup.is_finite());
            assert!(l.best_vs_seed_speedup.is_finite());
            assert!(l.checksum > 0);
            for required in [
                "engine-vertical",
                "engine-bitmask",
                "engine-sharded-w1",
                "session-sharded-pooled",
                "session-auto-parked",
                "session-auto-cold",
            ] {
                assert!(
                    l.backends.iter().any(|t| t.name == required),
                    "level {} missing row {required}",
                    l.level
                );
            }
        }
        assert_eq!(
            b.level2_sharded_vs_seed,
            b.levels[1].sharded4_vs_seed_speedup
        );
        assert_eq!(b.level2_best_vs_seed, b.levels[1].best_vs_seed_speedup);
        // The small mine: both sessions mined the small-requests shape, the
        // level loop and the executor split each time, and the headline is
        // the seed's time over the parked mine's.
        let m = &b.small_mine;
        assert_eq!((m.db_len, m.max_level, m.candidates.len()), (4_000, 2, 2));
        assert_eq!(m.candidates[0], 26);
        for t in [&m.cold, &m.parked] {
            assert!(t.executor_ns > 0 && t.level_loop_ns > 0, "{t:?}");
            assert!(t.ns >= t.executor_ns.max(t.level_loop_ns), "{t:?}");
        }
        assert_eq!(m.seed_ns, m.seed_level_ns.iter().sum::<u64>());
        assert_eq!(
            b.small_mine_parked_vs_seed,
            m.seed_ns as f64 / m.parked.ns as f64
        );
        // Serial scan gated out at level 2 (650 > cap 100).
        assert!(b.levels[1]
            .backends
            .iter()
            .all(|t| t.name != "cpu-serial-scan"));
    }

    #[test]
    fn sub_quantum_calls_time_nonzero() {
        // A call far cheaper than one timer quantum must still report a
        // positive per-call time: the calibration loop spans MIN_SAMPLE_MS.
        let (ms, out) = time_best(2, || std::hint::black_box(3u64) + 4);
        assert_eq!(out, 7);
        assert!(ms > 0.0, "sub-quantum call timed as zero: {ms}");
        assert!(
            ms < MIN_SAMPLE_MS,
            "per-call time must be per call, not per sample: {ms}"
        );
    }

    #[test]
    fn ratio_stays_finite_without_a_4_worker_entry() {
        let b = run(&BenchConfig {
            scale: 0.02,
            levels: vec![1],
            shard_workers: vec![8],
            repeats: 1,
            serial_scan_cap: 0,
        });
        assert!(b.levels[0].sharded4_vs_seed_speedup.is_finite());
        assert!(b.levels[0].sharded4_vs_seed_speedup > 0.0);
        assert!(!b.to_json().contains("NaN"));
    }

    #[test]
    fn json_shape_is_valid_enough() {
        let b = tiny();
        let j = b.to_json();
        assert!(j.starts_with("{\n"));
        assert!(j.trim_end().ends_with('}'));
        assert_eq!(j.matches("\"level\":").count(), 2);
        assert!(j.contains("\"sharded4_vs_seed_speedup\""));
        assert!(j.contains("\"level2_sharded_vs_seed\""));
        assert!(j.contains("engine-sharded-w4"));
        assert_eq!(j.matches("\"small_mine_parked_vs_seed\":").count(), 1);
        assert!(j.contains("\"small_mine\": {"));
        // Balanced braces and brackets (cheap structural check).
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        assert!(!b.summary().is_empty());
    }
}
