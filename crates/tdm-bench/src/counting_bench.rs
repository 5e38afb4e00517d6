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
//! every one of them is the plain sequential scan. `session-sharded-pooled`
//! follows the session's own shard bounds, and `session-auto` is the
//! cost-dispatched executor a mining service actually runs.

use std::time::Instant;
use tdm_baselines::{MapReduceBackend, SerialScanBackend, ShardedScanBackend};
use tdm_core::candidate::permutations;
use tdm_core::engine::{BitmaskNfa, CompiledCandidates, CountScratch, OccurrenceIndex};
use tdm_core::miner::AutoBackend;
use tdm_core::session::{Executor, MiningSession};
use tdm_core::{Alphabet, Episode, EventDb};
use tdm_mapreduce::pool::default_workers;
use tdm_workloads::paper_database_scaled;

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
    /// Per-level results.
    pub levels: Vec<LevelBench>,
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
fn time_best<R>(repeats: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let t = Instant::now();
    let mut out = f();
    let first_ms = t.elapsed().as_secs_f64() * 1e3;
    let iters = if first_ms >= MIN_SAMPLE_MS {
        1
    } else {
        ((MIN_SAMPLE_MS / first_ms.max(1e-7)).ceil() as u32).clamp(1, MAX_SAMPLE_ITERS)
    };
    // The calibration call never scores: a single cheap call can land under
    // one timer quantum and report an impossible best.
    let mut best = f64::INFINITY;
    for _ in 0..repeats.max(1) {
        let t = Instant::now();
        for _ in 0..iters {
            out = f();
        }
        best = best.min(t.elapsed().as_secs_f64() * 1e3 / iters as f64);
    }
    (best, out)
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
    // One session for the whole benchmark: persistent pool, reusable compiled
    // buffers — the steady state a mining service would run in.
    let mut session = MiningSession::builder(&db).build();
    // The per-symbol occurrence index is built once per database and shared
    // across every level — exactly how sessions cache it (one build serves
    // all levels of a mining run, and every co-mined batch member).
    let index = OccurrenceIndex::build(ab.len(), db.symbols());

    for &level in &cfg.levels {
        let episodes = permutations(&ab, level);
        let compiled = CompiledCandidates::compile(ab.len(), &episodes);
        let mut backends: Vec<BackendTiming> = Vec::new();

        let (seed_ms, reference) = time_best(cfg.repeats, || seed_count_episodes(&db, &episodes));
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
        // scanner outright: vertical occurrence-list probing and word-packed
        // Shift-And advancement. Their best time feeds the
        // `best_vs_seed_speedup` ratio — an algorithmic win, not parallelism.
        let (vertical_ms, counts) = time_best(cfg.repeats, || {
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

        // The session-driven rows: plan once per level (outside the timers,
        // exactly like the engine-* entries precompile above), then time the
        // execute step alone — like-for-like ms across all rows. Pool
        // threads stay persistent across every call below.
        let req = session.plan_candidates(&episodes);
        let mut time_executor = |name: String, ex: &mut dyn Executor| {
            let (ms, counts) = time_best(cfg.repeats, || {
                ex.execute(&req).expect("bench executor failed")
            });
            check(&name, &counts);
            backends.push(row(name, ms));
            ms
        };

        // An explicit worker count of 1 must dispatch straight to the
        // sequential compiled scan — this row exists to prove the
        // `engine-sharded-w1` time matches `engine-compiled` instead of
        // paying pool dispatch + merge for zero parallelism.
        time_executor("engine-sharded-w1".into(), &mut ShardedScanBackend::new(1));

        // The ratio entry: the sharded timing with the most workers ≤ 4, or —
        // when no such entry is configured — the fewest-worker entry, so the
        // ratio stays finite for any shard_workers list.
        let mut sharded4: Option<(usize, f64)> = None;
        for &w in &cfg.shard_workers {
            let ms = time_executor(
                format!("engine-sharded-w{w}"),
                &mut ShardedScanBackend::new(w),
            );
            sharded4 = Some(match sharded4 {
                None => (w, ms),
                Some((bw, bms)) => {
                    let better = if bw <= 4 {
                        w <= 4 && w > bw
                    } else {
                        w <= 4 || w < bw
                    };
                    if better {
                        (w, ms)
                    } else {
                        (bw, bms)
                    }
                }
            });
        }

        if episodes.len() <= cfg.serial_scan_cap {
            time_executor("cpu-serial-scan".into(), &mut SerialScanBackend);
        }
        time_executor("cpu-mapreduce".into(), &mut MapReduceBackend::auto());
        time_executor(
            "session-sharded-pooled".into(),
            &mut ShardedScanBackend::auto(),
        );
        // The per-level cost-dispatched executor a session actually runs:
        // picks vertical / bitmask / scan per candidate set.
        time_executor("session-auto".into(), &mut AutoBackend);

        levels.push(LevelBench {
            level,
            episodes: episodes.len(),
            checksum,
            backends,
            sharded4_vs_seed_speedup: sharded4.map(|(_, ms)| seed_ms / ms).unwrap_or(0.0),
            best_vs_seed_speedup: seed_ms / best_strategy_ms,
        });
    }

    let level2 = levels.iter().find(|l| l.level == 2);
    let level2_sharded_vs_seed = level2.map(|l| l.sharded4_vs_seed_speedup).unwrap_or(0.0);
    let level2_best_vs_seed = level2.map(|l| l.best_vs_seed_speedup).unwrap_or(0.0);
    CountingBench {
        db_len: n,
        scale: cfg.scale,
        available_parallelism: default_workers(),
        level2_sharded_vs_seed,
        level2_best_vs_seed,
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
            // mapreduce, pooled, auto (+ serial at level 1 only).
            assert!(l.backends.len() >= 9, "level {}: {:?}", l.level, l.backends);
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
                "session-auto",
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
        // Balanced braces and brackets (cheap structural check).
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        assert!(!b.summary().is_empty());
    }
}
