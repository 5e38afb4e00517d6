//! Property tests of the database-sharded counting engine: for arbitrary
//! databases, distinct-item episodes (the paper's candidate universe), and
//! worker counts 1..=8 — with boundary positions varied both by worker count
//! and adversarially — the sharded count is bit-identical to the
//! one-FSM-per-episode reference.

use proptest::prelude::*;
use std::sync::{Arc, OnceLock};
use temporal_mining::core::count::count_episodes_naive;
use temporal_mining::prelude::*;

/// One small pool behind every session below: the sessions plan the shard
/// bounds, so `workers` shards are cut whatever the host's core count, and
/// these two threads scan them.
fn pool() -> Arc<Pool> {
    static POOL: OnceLock<Arc<Pool>> = OnceLock::new();
    Arc::clone(POOL.get_or_init(|| Arc::new(Pool::with_workers(2))))
}

/// The parallel count: a session planned for `workers` shards runs the
/// database-sharded executor on its request.
fn sharded_count(db: &EventDb, episodes: &[Episode], workers: usize) -> Vec<u64> {
    let mut session = MiningSession::builder(db)
        .workers(workers)
        .with_pool(pool())
        .build();
    let req = session.plan_candidates(episodes);
    assert_eq!(
        req.shard_bounds().len(),
        workers - 1,
        "one shard per worker"
    );
    ShardedScanBackend::auto().execute(&req).unwrap()
}

/// Builds a distinct-item episode from a seed by keeping each symbol's first
/// occurrence (order preserved, so the space is richer than sorted prefixes).
fn distinct_episode(seed: &[u8]) -> Episode {
    let mut seen = [false; 256];
    let mut items = Vec::new();
    for &s in seed {
        if !seen[s as usize] {
            seen[s as usize] = true;
            items.push(s);
        }
    }
    Episode::new(items).expect("seed is non-empty")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Worker counts 1..=8 over streams long enough to actually shard: the
    /// parallel map → continuation fix → reduce pipeline equals the naive
    /// reference for distinct-item episode sets.
    #[test]
    fn sharded_equals_naive_for_distinct_episodes(
        data in proptest::collection::vec(0u8..6, 4096..4800),
        seeds in proptest::collection::vec(
            proptest::collection::vec(0u8..6, 1..5), 1..12),
    ) {
        let ab = Alphabet::numbered(6).unwrap();
        let db = EventDb::new(ab, data).unwrap();
        let episodes: Vec<Episode> = seeds.iter().map(|s| distinct_episode(s)).collect();
        prop_assert!(episodes.iter().all(|e| e.has_distinct_items()));
        let expected = count_episodes_naive(&db, &episodes);
        for workers in 1usize..=8 {
            prop_assert_eq!(
                &sharded_count(&db, &episodes, workers),
                &expected,
                "workers={}", workers
            );
        }
    }

    /// Adversarial boundary positions (arbitrary cuts, including clustered and
    /// empty segments) preserve counts — same merge machinery the parallel
    /// path uses, without the even-partition restriction.
    #[test]
    fn varied_boundaries_preserve_counts(
        data in proptest::collection::vec(0u8..5, 0..500),
        seeds in proptest::collection::vec(
            proptest::collection::vec(0u8..5, 1..5), 1..10),
        cuts in proptest::collection::vec(0usize..500, 0..12),
    ) {
        let ab = Alphabet::numbered(5).unwrap();
        let n = data.len();
        let db = EventDb::new(ab, data).unwrap();
        let episodes: Vec<Episode> = seeds.iter().map(|s| distinct_episode(s)).collect();
        let compiled = CompiledCandidates::compile(5, &episodes);
        let mut bounds: Vec<usize> = cuts.into_iter().map(|c| c % (n + 1)).collect();
        bounds.sort_unstable();
        let mut scratch = CountScratch::new();
        prop_assert_eq!(
            compiled.count_with_bounds(db.symbols(), &bounds, &mut scratch),
            count_episodes_naive(&db, &episodes),
            "bounds={:?}", bounds
        );
    }

    /// Repeated-item episodes ride along exactly (state-composition fallback):
    /// the engine's sharded result stays bit-identical to naive for ARBITRARY
    /// episode sets.
    #[test]
    fn sharded_exact_for_repeated_item_episodes(
        data in proptest::collection::vec(0u8..4, 4096..4500),
        eps in proptest::collection::vec(
            proptest::collection::vec(0u8..4, 1..5), 1..8),
    ) {
        let ab = Alphabet::numbered(4).unwrap();
        let db = EventDb::new(ab, data).unwrap();
        let episodes: Vec<Episode> =
            eps.into_iter().map(|v| Episode::new(v).unwrap()).collect();
        let expected = count_episodes_naive(&db, &episodes);
        for workers in [2usize, 5, 8] {
            prop_assert_eq!(
                &sharded_count(&db, &episodes, workers),
                &expected,
                "workers={}", workers
            );
        }
    }
}
