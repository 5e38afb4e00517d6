//! The level-wise mining loop — the paper's Algorithm 1.
//!
//! ```text
//! k <- 1; candidates <- all level-1 episodes
//! while candidates not empty:
//!     count every candidate                (counting step   — pluggable executor)
//!     keep those with count/n > alpha      (elimination step)
//!     candidates <- join(frequent_k)       (generation step)
//! ```
//!
//! The counting step is behind the [`Executor`] trait of the plan/execute API
//! ([`crate::session`]): a [`MiningSession`] compiles each level's candidate
//! set exactly once and hands executors a borrowed [`CountRequest`] — so the
//! same loop runs on the sequential CPU counter, the parallel CPU backends,
//! or any of the four simulated GPU kernels without recompiling or cloning
//! anything per backend. [`Miner`] is the thin convenience driver over a
//! fresh session.
//!
//! [`CountRequest`]: crate::session::CountRequest
//! [`MiningSession`]: crate::session::MiningSession

use crate::engine::{with_thread_scratch, BitmaskNfa, CountStrategy};
use crate::segment::segment_ranges;
use crate::sequence::EventDb;
use crate::session::{BackendError, CountRequest, Counts, Executor, MineError, MiningSession};
use crate::stats::{LevelResult, MiningResult};
use std::sync::Arc;

/// The built-in sequential executor: one active-set pass over the request's
/// compiled layout, holding only its [`CountScratch`] across levels (the
/// compiled candidates live in the session).
///
/// [`CountScratch`]: crate::engine::CountScratch
#[derive(Debug, Default, Clone)]
pub struct SequentialBackend {
    scratch: crate::engine::CountScratch,
}

impl Executor for SequentialBackend {
    fn execute(&mut self, req: &CountRequest<'_>) -> Result<Counts, BackendError> {
        Ok(req.compiled().count(req.stream(), &mut self.scratch))
    }

    fn name(&self) -> &str {
        "sequential-active-set"
    }
}

/// Candidate sets smaller than this are counted on one thread even when the
/// vertical strategy could chunk them — per-chunk dispatch would dominate.
const MIN_VERTICAL_PARALLEL: usize = 256;

/// The engine's **strategy-dispatching** executor: per level, asks
/// [`CompiledCandidates::choose_strategy`] for the estimated-cheapest
/// counting strategy over the session's cached [`OccurrenceIndex`], then runs
/// it — parallelized over the session pool when the session planned more than
/// one worker:
///
/// * **vertical** counts chunk the *candidate set* (occurrence-list probes
///   never walk the stream, so candidate chunking is exact with zero
///   boundary work);
/// * **bitmask** scans shard the *database* along the session's planned
///   bounds and merge through the engine's Fig. 5 reducer
///   ([`CompiledCandidates::merge_shard_counts`]), exactly like the
///   active-set sharded backend.
///
/// Counts are bit-identical to [`SequentialBackend`] for every episode set,
/// worker count, and stream — the workspace differential suite pins this.
///
/// ```
/// use tdm_core::miner::{AutoBackend, MinerConfig, SequentialBackend};
/// use tdm_core::session::MiningSession;
/// use tdm_core::{Alphabet, EventDb};
///
/// let db = EventDb::from_str_symbols(&Alphabet::latin26(), &"ABC".repeat(50)).unwrap();
/// let config = MinerConfig { alpha: 0.1, ..Default::default() };
/// let auto = MiningSession::builder(&db).config(config).build()
///     .mine(&mut AutoBackend).unwrap();
/// let seq = MiningSession::builder(&db).config(config).build()
///     .mine(&mut SequentialBackend::default()).unwrap();
/// assert_eq!(auto, seq);
/// ```
///
/// [`CompiledCandidates::choose_strategy`]: crate::engine::CompiledCandidates::choose_strategy
/// [`CompiledCandidates::merge_shard_counts`]: crate::engine::CompiledCandidates::merge_shard_counts
/// [`OccurrenceIndex`]: crate::engine::OccurrenceIndex
#[derive(Debug, Default, Clone, Copy)]
pub struct AutoBackend;

impl Executor for AutoBackend {
    fn execute(&mut self, req: &CountRequest<'_>) -> Result<Counts, BackendError> {
        let compiled = req.compiled();
        let stream = req.stream();
        let index = req.occurrence_index();
        match compiled.choose_strategy(index) {
            CountStrategy::ActiveSet => Ok(with_thread_scratch(|s| compiled.count(stream, s))),
            CountStrategy::Vertical => {
                let workers = req.workers();
                if workers <= 1 || compiled.len() < MIN_VERTICAL_PARALLEL {
                    return Ok(compiled.count_vertical(stream, index));
                }
                let chunks = req.chunk_ranges(workers);
                let shared_compiled = req.compiled_shared();
                let shared_stream = req.stream_shared();
                let shared_index = req.occurrence_index_shared();
                let parts = req.pool().map_move_prio(req.priority(), chunks, move |r| {
                    let mut counts = vec![0u64; r.len()];
                    shared_compiled.count_vertical_range(
                        &shared_stream,
                        &shared_index,
                        r,
                        &mut counts,
                    );
                    counts
                });
                Ok(parts.into_iter().flatten().collect())
            }
            CountStrategy::Bitmask => {
                let Some(nfa) = BitmaskNfa::build(compiled) else {
                    // max_level > 64 never chooses Bitmask, but stay total.
                    return Ok(compiled.count_vertical(stream, index));
                };
                let bounds = req.shard_bounds();
                if bounds.is_empty() {
                    return Ok(nfa.count(stream));
                }
                let nfa = Arc::new(nfa);
                let shared_stream = req.stream_shared();
                let ranges = segment_ranges(stream.len(), bounds);
                let shards = req.pool().map_move_prio(req.priority(), ranges, move |r| {
                    nfa.shard_scan(&shared_stream, r)
                });
                Ok(compiled.merge_shard_counts(stream, bounds, &shards))
            }
        }
    }

    fn name(&self) -> &str {
        "engine-auto"
    }
}

/// Mining-loop configuration.
#[derive(Debug, Clone, Copy)]
pub struct MinerConfig {
    /// Support threshold α: an episode is frequent when `count / n > alpha`.
    pub alpha: f64,
    /// Stop after this level even if candidates remain (the paper's "limit the
    /// length of A_j from n to q" runtime bound; `None` = unbounded).
    pub max_level: Option<usize>,
    /// Restrict candidates to distinct-item episodes (the paper's permutation
    /// universe). Default true.
    pub distinct_items_only: bool,
}

impl Default for MinerConfig {
    fn default() -> Self {
        MinerConfig {
            alpha: 0.0,
            max_level: None,
            distinct_items_only: true,
        }
    }
}

/// The level-wise miner: a thin driver that plans a fresh [`MiningSession`]
/// per run. Hold a session directly to amortize the plan state across runs or
/// to stream per-level results.
#[derive(Debug, Clone)]
pub struct Miner {
    config: MinerConfig,
}

impl Miner {
    /// Creates a miner with the given configuration.
    pub fn new(config: MinerConfig) -> Self {
        Miner { config }
    }

    /// Runs the full level-wise loop with the supplied executor.
    ///
    /// # Errors
    /// [`MineError`] when the executor fails or returns malformed counts.
    pub fn mine<E: Executor + ?Sized>(
        &self,
        db: &EventDb,
        executor: &mut E,
    ) -> Result<MiningResult, MineError> {
        MiningSession::builder(db)
            .config(self.config)
            .build()
            .mine(executor)
    }

    /// Like [`mine`], but invokes `on_level` as each level completes (the
    /// streaming hook for serving use-cases).
    ///
    /// # Errors
    /// [`MineError`] when the executor fails or returns malformed counts.
    ///
    /// [`mine`]: Miner::mine
    pub fn mine_streaming<E: Executor + ?Sized>(
        &self,
        db: &EventDb,
        executor: &mut E,
        on_level: impl FnMut(&LevelResult),
    ) -> Result<MiningResult, MineError> {
        MiningSession::builder(db)
            .config(self.config)
            .build()
            .mine_with(executor, on_level)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Alphabet;
    use crate::episode::Episode;

    fn db_of(s: &str) -> EventDb {
        EventDb::from_str_symbols(&Alphabet::latin26(), s).unwrap()
    }

    #[test]
    fn mines_planted_chain() {
        // "ABC" repeated: every level up to 3 should surface the chain.
        let db = db_of(&"ABC".repeat(50));
        let miner = Miner::new(MinerConfig {
            alpha: 0.1,
            ..Default::default()
        });
        let res = miner.mine(&db, &mut SequentialBackend::default()).unwrap();
        let ab = Alphabet::latin26();
        assert_eq!(res.levels[0].len(), 3); // A, B, C each support 1/3
        assert!(res
            .count_of(&Episode::from_str(&ab, "AB").unwrap())
            .is_some());
        assert!(res
            .count_of(&Episode::from_str(&ab, "ABC").unwrap())
            .is_some());
        // Nothing of level 4 exists in a 3-letter alphabet of distinct items that
        // passes 10% support.
        assert!(res.levels.len() <= 4);
    }

    #[test]
    fn high_threshold_stops_immediately() {
        let db = db_of("ABCDEFG");
        let miner = Miner::new(MinerConfig {
            alpha: 0.9,
            ..Default::default()
        });
        let res = miner.mine(&db, &mut SequentialBackend::default()).unwrap();
        assert_eq!(res.levels.len(), 1);
        assert!(res.levels[0].is_empty());
        assert_eq!(res.total_frequent(), 0);
    }

    #[test]
    fn max_level_bounds_the_loop() {
        let db = db_of(&"AB".repeat(100));
        let miner = Miner::new(MinerConfig {
            alpha: 0.01,
            max_level: Some(1),
            ..Default::default()
        });
        let res = miner.mine(&db, &mut SequentialBackend::default()).unwrap();
        assert_eq!(res.levels.len(), 1);
        assert_eq!(res.levels[0].level, 1);
    }

    #[test]
    fn level_candidate_counts_match_paper_shape() {
        // With alpha = 0 every singleton present keeps the space permutation-like.
        let db = db_of(&"ABCD".repeat(30));
        let miner = Miner::new(MinerConfig {
            alpha: 0.0,
            max_level: Some(2),
            ..Default::default()
        });
        let res = miner.mine(&db, &mut SequentialBackend::default()).unwrap();
        assert_eq!(res.levels[0].candidates, 26);
        // Only A..D are frequent, so level 2 candidates = 4*3 ordered pairs.
        assert_eq!(res.levels[1].candidates, 12);
    }

    #[test]
    fn empty_database_yields_single_empty_level() {
        let ab = Alphabet::latin26();
        let db = EventDb::new(ab, vec![]).unwrap();
        let res = Miner::new(MinerConfig::default())
            .mine(&db, &mut SequentialBackend::default())
            .unwrap();
        assert_eq!(res.total_frequent(), 0);
    }

    #[test]
    fn streaming_levels_arrive_in_order() {
        let db = db_of(&"ABC".repeat(60));
        let miner = Miner::new(MinerConfig {
            alpha: 0.05,
            max_level: Some(3),
            ..Default::default()
        });
        let mut seen: Vec<usize> = Vec::new();
        let res = miner
            .mine_streaming(&db, &mut SequentialBackend::default(), |l| {
                seen.push(l.level);
            })
            .unwrap();
        assert_eq!(seen, (1..=res.levels.len()).collect::<Vec<_>>());
    }

    #[test]
    fn auto_backend_matches_sequential_across_worker_counts() {
        let db = db_of(&"ABCABZQXABC".repeat(500)); // > MIN_SHARD_STREAM
        let cfg = MinerConfig {
            alpha: 0.001,
            max_level: Some(3),
            distinct_items_only: false,
        };
        let reference = Miner::new(cfg)
            .mine(&db, &mut SequentialBackend::default())
            .unwrap();
        for workers in [1usize, 2, 4, 8] {
            let mut session = MiningSession::builder(&db)
                .config(cfg)
                .workers(workers)
                .build();
            let got = session.mine(&mut AutoBackend).unwrap();
            assert_eq!(got, reference, "workers={workers}");
        }
    }
}
