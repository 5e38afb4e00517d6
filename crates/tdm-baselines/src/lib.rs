//! # tdm-baselines — CPU mining baselines
//!
//! The paper motivates its GPU work against "current technology, like GMiner …
//! limited to a single CPU" (§1). This crate provides that comparison point and
//! the parallel CPU contenders, all as **executors** of the plan/execute
//! counting API ([`tdm_core::session`]): each backend receives a borrowed
//! [`CountRequest`] — the compiled CSR candidate layout, the symbol stream,
//! the database shard bounds, and the session's persistent worker pool — and
//! never recompiles, clones, or even sees a raw `&[Episode]`:
//!
//! * [`SerialScanBackend`] — one full database scan per episode on one core:
//!   the direct CPU analogue of what each GPU thread does, and the
//!   GMiner-class single-CPU baseline;
//! * [`ShardedScanBackend`] — **database-sharded** parallel counting: the
//!   symbol stream is split into per-worker segments, each segment is scanned
//!   by a persistent pool worker, and boundary spans are fixed up — the CPU
//!   analogue of the paper's block-level Algorithms 3/4 (§3.3.3, Fig. 5), and
//!   the fastest configuration when candidates are few and the stream is long
//!   (levels 1–2);
//! * [`MapReduceBackend`] — **candidate-sharded** parallel counting in the
//!   MapReduce shape: map = scan one borrowed chunk (a compiled episode
//!   range) of the candidate set, reduce = concatenate chunk counts in order.
//!   Chunks are `CountRequest` slices — index ranges into the shared compiled
//!   layout — so nothing is copied per chunk. The right shape once candidates
//!   are plentiful (level 3+).
//!
//! All three implement [`tdm_core::session::Executor`], so the level-wise
//! miner runs unchanged on any of them, and their counts are bit-identical to
//! the optimized single-core counter, `tdm_core`'s [`SequentialBackend`] (one
//! database pass for all candidates) — which the tests (and the workspace
//! conformance suite) assert.
//!
//! [`CountRequest`]: tdm_core::session::CountRequest
//! [`SequentialBackend`]: tdm_core::miner::SequentialBackend

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use tdm_core::count::count_compiled_naive;
use tdm_core::engine::{with_thread_scratch, MIN_SHARD_STREAM};
use tdm_core::segment::{even_bounds, segment_ranges};
use tdm_core::session::{BackendError, CountRequest, Counts, Executor};
use tdm_mapreduce::pool::default_workers;

/// Single-core, one-scan-per-episode baseline (GMiner-class).
#[derive(Debug, Default, Clone, Copy)]
pub struct SerialScanBackend;

impl Executor for SerialScanBackend {
    fn execute(&mut self, req: &CountRequest<'_>) -> Result<Counts, BackendError> {
        Ok(count_compiled_naive(req.stream(), req.compiled()))
    }

    fn name(&self) -> &str {
        "cpu-serial-scan"
    }
}

/// Database-sharded parallel backend: splits the *stream* (not the candidate
/// set) across the session's persistent pool workers and fixes up boundary
/// spans, like the paper's block-level kernels. Counts are bit-identical to
/// the sequential reference for any candidate set and worker count.
#[derive(Debug, Default, Clone)]
pub struct ShardedScanBackend {
    /// `Some(w)` = explicit segmentation into `w` shards; `None` = follow the
    /// session's planned shard bounds.
    workers: Option<usize>,
}

impl ShardedScanBackend {
    /// Backend with an explicit shard count (0 is clamped to 1).
    pub fn new(workers: usize) -> Self {
        ShardedScanBackend {
            workers: Some(workers.max(1)),
        }
    }

    /// Backend that follows the session's planned shard bounds (sized to the
    /// session pool).
    pub fn auto() -> Self {
        ShardedScanBackend { workers: None }
    }

    /// The configured shard count (the machine's parallelism for
    /// [`ShardedScanBackend::auto`]).
    pub fn workers(&self) -> usize {
        self.workers.unwrap_or_else(default_workers)
    }
}

impl Executor for ShardedScanBackend {
    fn execute(&mut self, req: &CountRequest<'_>) -> Result<Counts, BackendError> {
        let stream = req.stream();
        let n = stream.len();
        // Explicit worker counts cut their own bounds; auto follows the plan.
        // Either way, never cut more shards than hardware threads exist to
        // scan them — on a 1-core host the snapshot + dispatch + merge
        // machinery is pure overhead and the plain sequential scan wins.
        let owned_bounds;
        let bounds: &[usize] = match self.workers {
            Some(w) if w.min(default_workers()) > 1 && n >= MIN_SHARD_STREAM => {
                owned_bounds = even_bounds(n, w.min(default_workers()));
                &owned_bounds
            }
            Some(_) => &[],
            None => req.shard_bounds(),
        };
        if bounds.is_empty() || req.compiled().is_empty() {
            return Ok(with_thread_scratch(|scratch| {
                req.compiled().count(stream, scratch)
            }));
        }
        let ranges = segment_ranges(n, bounds);
        // Map on the persistent pool: workers borrow nothing — they share the
        // stream and compiled layout through Arc handles (refcount bumps).
        let compiled = req.compiled_shared();
        let shared_stream = req.stream_shared();
        let shards = req
            .pool()
            .map_move(ranges, move |r| compiled.shard_scan(&shared_stream, r));
        Ok(req.compiled().merge_shard_counts(stream, bounds, &shards))
    }

    fn name(&self) -> &str {
        "cpu-sharded-scan"
    }
}

/// Candidate-sharded parallel backend in the MapReduce shape: map = scan one
/// borrowed chunk (compiled episode range) over the whole stream on a pool
/// worker, reduce = concatenate the chunk counts in order. No per-chunk
/// compile, no owned candidate copies — chunks are index ranges into the
/// request's shared compiled layout.
#[derive(Debug, Default, Clone)]
pub struct MapReduceBackend {
    /// `Some(w)` = split into `w` chunks; `None` = one chunk per pool worker.
    workers: Option<usize>,
}

impl MapReduceBackend {
    /// Backend with an explicit chunk count (0 is clamped to 1).
    pub fn new(workers: usize) -> Self {
        MapReduceBackend {
            workers: Some(workers.max(1)),
        }
    }

    /// Backend sized to the session pool (one chunk per worker).
    pub fn auto() -> Self {
        MapReduceBackend { workers: None }
    }
}

impl Executor for MapReduceBackend {
    fn execute(&mut self, req: &CountRequest<'_>) -> Result<Counts, BackendError> {
        let chunks = req.chunk_ranges(self.workers.unwrap_or_else(|| req.workers()));
        if chunks.is_empty() {
            return Ok(Vec::new());
        }
        if chunks.len() == 1 {
            return Ok(req
                .compiled()
                .chunk_scan(req.stream(), chunks.into_iter().next().expect("one chunk")));
        }
        let compiled = req.compiled_shared();
        let shared_stream = req.stream_shared();
        let per_chunk = req
            .pool()
            .map_move(chunks, move |c| compiled.chunk_scan(&shared_stream, c));
        Ok(per_chunk.into_iter().flatten().collect())
    }

    fn name(&self) -> &str {
        "cpu-mapreduce"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdm_core::candidate::permutations;
    use tdm_core::session::MiningSession;
    use tdm_core::{Alphabet, Episode, Miner, MinerConfig, SequentialBackend};
    use tdm_workloads::uniform_letters;

    fn counts_of(
        session: &mut MiningSession<'_>,
        eps: &[Episode],
        ex: &mut impl Executor,
    ) -> Vec<u64> {
        session.count_candidates(eps, ex).unwrap()
    }

    #[test]
    fn all_backends_agree() {
        let db = uniform_letters(20_000, 17);
        let eps = permutations(&Alphabet::latin26(), 2);
        let mut session = MiningSession::builder(&db).workers(4).build();
        let a = counts_of(&mut session, &eps, &mut SerialScanBackend);
        let b = counts_of(&mut session, &eps, &mut SequentialBackend::default());
        let c = counts_of(&mut session, &eps, &mut MapReduceBackend::new(3));
        let d = counts_of(&mut session, &eps, &mut ShardedScanBackend::new(4));
        let e = counts_of(&mut session, &eps, &mut ShardedScanBackend::auto());
        let f = counts_of(&mut session, &eps, &mut MapReduceBackend::auto());
        assert_eq!(a, b);
        assert_eq!(a, c);
        assert_eq!(a, d);
        assert_eq!(a, e);
        assert_eq!(a, f);
        // One compile per candidate set handed to count_candidates, however
        // many executors ran against it.
        assert_eq!(session.compiles(), 6);
    }

    #[test]
    fn sharded_backend_agrees_for_every_worker_count() {
        let db = uniform_letters(30_000, 23);
        let eps = permutations(&Alphabet::latin26(), 2);
        let mut session = MiningSession::builder(&db).workers(3).build();
        let reference = counts_of(&mut session, &eps, &mut SequentialBackend::default());
        for workers in [1usize, 2, 3, 5, 8] {
            assert_eq!(
                counts_of(&mut session, &eps, &mut ShardedScanBackend::new(workers)),
                reference,
                "workers={workers}"
            );
        }
        assert!(ShardedScanBackend::auto().workers() >= 1);
        assert!(ShardedScanBackend::new(0).workers() == 1);
    }

    #[test]
    fn miner_runs_on_every_backend() {
        let db = uniform_letters(5_000, 3);
        let miner = Miner::new(MinerConfig {
            alpha: 0.0005,
            max_level: Some(2),
            ..Default::default()
        });
        let r1 = miner.mine(&db, &mut SerialScanBackend).unwrap();
        let r2 = miner.mine(&db, &mut SequentialBackend::default()).unwrap();
        let r3 = miner.mine(&db, &mut MapReduceBackend::new(2)).unwrap();
        let r4 = miner.mine(&db, &mut ShardedScanBackend::new(3)).unwrap();
        assert_eq!(r1, r2);
        assert_eq!(r1, r3);
        assert_eq!(r1, r4);
        assert!(r1.total_frequent() > 0);
    }

    #[test]
    fn backend_names() {
        use tdm_core::session::Executor as _;
        assert_eq!(SerialScanBackend.name(), "cpu-serial-scan");
        assert_eq!(MapReduceBackend::auto().name(), "cpu-mapreduce");
        assert_eq!(ShardedScanBackend::auto().name(), "cpu-sharded-scan");
    }

    #[test]
    fn empty_candidate_sets_yield_empty_counts() {
        let db = uniform_letters(6_000, 9);
        let mut session = MiningSession::builder(&db).workers(2).build();
        let none: Vec<Episode> = Vec::new();
        assert!(counts_of(&mut session, &none, &mut SerialScanBackend).is_empty());
        assert!(counts_of(&mut session, &none, &mut SequentialBackend::default()).is_empty());
        assert!(counts_of(&mut session, &none, &mut ShardedScanBackend::new(4)).is_empty());
        assert!(counts_of(&mut session, &none, &mut MapReduceBackend::new(4)).is_empty());
    }
}
