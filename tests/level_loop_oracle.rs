//! An independent oracle for the level loop.
//!
//! Every other mining test compares against `Miner::mine`, which runs the
//! session's level loop itself. The reference here is paper Algorithm 1
//! written from the generation, counting and support primitives alone —
//! `candidate::level1`, `count::count_episodes_naive`, `stats::support` and
//! `candidate::apriori_join` — with no session, engine or lattice in it.
//! Both `Miner::mine` and a `MiningSession` on the engine must equal it.

use proptest::prelude::*;
use std::sync::Arc;
use temporal_mining::core::candidate::{apriori_join, level1};
use temporal_mining::core::count::count_episodes_naive;
use temporal_mining::core::miner::SequentialBackend;
use temporal_mining::core::stats::{support, LevelResult};
use temporal_mining::prelude::*;

/// Paper Algorithm 1: count every candidate, keep those with support above
/// α, join the survivors into the next level's candidates.
fn algorithm1(db: &EventDb, config: &MinerConfig) -> MiningResult {
    let n = db.len();
    let mut levels = Vec::new();
    let mut candidates = level1(db.alphabet());
    let mut level = 1;
    while !candidates.is_empty() && config.max_level.is_none_or(|max| level <= max) {
        let counts = count_episodes_naive(db, &candidates);
        let frequent: Vec<(Episode, u64)> = candidates
            .iter()
            .cloned()
            .zip(counts)
            .filter(|&(_, count)| support(count, n) > config.alpha)
            .collect();
        let survivors: Vec<Episode> = frequent.iter().map(|(e, _)| e.clone()).collect();
        levels.push(LevelResult {
            level,
            candidates: candidates.len(),
            frequent,
        });
        candidates = apriori_join(&survivors, config.distinct_items_only);
        level += 1;
    }
    MiningResult { levels, db_len: n }
}

/// Asserts that `Miner::mine` of each config, and a two-worker session on
/// the engine, equal the oracle; returns the oracle's results.
fn check(db: &Arc<EventDb>, configs: &[MinerConfig]) -> Vec<MiningResult> {
    let expected: Vec<MiningResult> = configs.iter().map(|c| algorithm1(db, c)).collect();
    for (config, want) in configs.iter().zip(&expected) {
        let serial = Miner::new(*config)
            .mine(db, &mut SequentialBackend::default())
            .expect("serial mining failed");
        assert_eq!(&serial, want, "Miner::mine diverged for {config:?}");
        let engine = MiningSession::builder_shared(Arc::clone(db))
            .config(*config)
            .workers(2)
            .build()
            .mine(&mut AutoBackend)
            .expect("engine mining failed");
        assert_eq!(
            &engine, want,
            "the engine's session diverged for {config:?}"
        );
    }
    expected
}

fn config(alpha: f64, max_level: Option<usize>, distinct_items_only: bool) -> MinerConfig {
    MinerConfig {
        alpha,
        max_level,
        distinct_items_only,
    }
}

#[test]
fn a_zero_level_bound_mines_no_level() {
    let db = Arc::new(EventDb::from_str_symbols(&Alphabet::latin26(), &"ABC".repeat(20)).unwrap());
    let results = check(
        &db,
        &[config(0.0, Some(0), true), config(0.01, Some(2), false)],
    );
    assert!(results[0].levels.is_empty());
    assert_eq!(results[1].levels.len(), 2);
}

#[test]
fn an_empty_stream_counts_one_empty_level() {
    let db = Arc::new(EventDb::new(Alphabet::latin26(), Vec::new()).unwrap());
    let results = check(&db, &[config(0.0, None, true), config(0.1, Some(3), false)]);
    for result in &results {
        assert_eq!(result.levels.len(), 1);
        assert_eq!(result.levels[0].candidates, 26);
        assert!(result.levels[0].is_empty());
    }
}

#[test]
fn one_symbol_with_repeats_allowed_mines_every_run_length() {
    let db = Arc::new(EventDb::new(Alphabet::numbered(1).unwrap(), vec![0; 40]).unwrap());
    let results = check(
        &db,
        &[
            config(0.0, None, false),
            config(0.0, None, true),
            config(0.2, None, false),
        ],
    );
    // 0^k appears for every k <= 40; level 41 counts 0^41 and finds nothing.
    assert_eq!(results[0].levels.len(), 41);
    assert!(results[0].levels[..40].iter().all(|l| l.len() == 1));
    assert_eq!(results[1].levels.len(), 1, "distinct items stop at level 1");
}

#[test]
fn a_256_symbol_alphabet_joins_every_ordered_pair() {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let symbols: Vec<u8> = (0..=255u8)
        .chain((0..256).map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u8
        }))
        .collect();
    let db = Arc::new(EventDb::new(Alphabet::numbered(256).unwrap(), symbols).unwrap());
    let results = check(&db, &[config(0.0, Some(2), true)]);
    assert_eq!(results[0].levels[1].candidates, 256 * 255);
}

#[test]
fn the_latin_alphabet_repeated_mines_twenty_six_levels() {
    let db = Arc::new(
        EventDb::from_str_symbols(
            &Alphabet::latin26(),
            &"ABCDEFGHIJKLMNOPQRSTUVWXYZ".repeat(30),
        )
        .unwrap(),
    );
    let results = check(&db, &[config(0.0, None, true), config(0.0, Some(5), false)]);
    assert_eq!(results[0].levels.len(), 26);
    assert!(results[0].levels.iter().skip(1).all(|l| l.len() == 26));
}

#[test]
fn level_bounds_of_zero_and_one_count_no_level_and_one() {
    // The wire accepts `"max_level": 0`: the loop then counts no level and
    // makes no scan. A bound of 1 scans level 1 once and joins nothing.
    let db = Arc::new(
        EventDb::from_str_symbols(&Alphabet::latin26(), &"ABCABDBACAAB".repeat(15)).unwrap(),
    );
    for bound in [0, 1] {
        for distinct in [true, false] {
            let config = config(0.01, Some(bound), distinct);
            let mut session = MiningSession::builder_shared(Arc::clone(&db))
                .config(config)
                .build();
            let result = session.mine(&mut AutoBackend).expect("mining failed");
            assert_eq!(result, algorithm1(&db, &config), "{config:?}");
            assert_eq!(result.levels.len(), bound, "{config:?}");
            assert_eq!(session.compiles(), bound, "one scan per level counted");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random streams over 1 to 8 symbols or the Latin alphabet, random
    /// thresholds (a quarter of them exactly 0), level bounds of `None` or
    /// `Some(0..4)`, and both generation rules: for 1 to 3 configs,
    /// `Miner::mine` and the engine's session both equal Algorithm 1.
    #[test]
    fn the_level_loop_equals_algorithm_1(
        sigma in prop::sample::select(vec![1usize, 2, 3, 4, 5, 6, 7, 8, 26]),
        raw in proptest::collection::vec(0u8..=255, 0..64),
        alphas in proptest::collection::vec(-0.1f64..0.3, 3),
        bounds in proptest::collection::vec(0usize..5, 3),
        distinct in proptest::collection::vec(true, 3),
        configs in 1usize..4,
    ) {
        let alphabet = if sigma == 26 {
            Alphabet::latin26()
        } else {
            Alphabet::numbered(sigma).unwrap()
        };
        let symbols: Vec<u8> = raw.into_iter().map(|s| (s as usize % sigma) as u8).collect();
        let db = Arc::new(EventDb::new(alphabet, symbols).unwrap());
        let configs: Vec<MinerConfig> = (0..configs)
            .map(|m| config(alphas[m].max(0.0), Some(bounds[m]).filter(|&l| l < 4), distinct[m]))
            .collect();
        check(&db, &configs);
    }
}
