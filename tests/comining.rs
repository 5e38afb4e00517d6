//! Cross-request co-mining: the adversarial differential suite.
//!
//! The co-mining claim is sharp — a K-request batch over one database is
//! served by a **single** union scan per level, and every member's result is
//! **bit-identical** to mining that member's config serially with its own
//! `Miner::mine`. This suite attacks the claim from every side:
//!
//! * K ∈ {2, 4, 8} concurrent configs, deterministic and property-based,
//!   demuxed results compared bit-for-bit against serial mining;
//! * a spy executor proving a K-member batch issues exactly **one** scan per
//!   level — and that the scanned set is the deduplicated union, not K
//!   concatenated copies;
//! * adversarial candidate overlap: disjoint, identical, and
//!   partially-overlapping candidate sets, repeated items inside and across
//!   sets, sets that go empty at different levels, workers 1..=8.
//!
//! Co-mining is an in-process API: `MiningSession::co_mine`, and
//! `MiningService::submit_batch` for a batch its caller hands in. The
//! service never holds a request back to fuse it with others; concurrent
//! requests share a database's cached occurrence index and its level-2 pair
//! table instead.

use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;
use temporal_mining::core::candidate::{apriori_join, level1};
use temporal_mining::core::count::count_episodes_naive;
use temporal_mining::core::engine::{CandidateUnion, CompiledCandidates, CountScratch};
use temporal_mining::core::miner::SequentialBackend;
use temporal_mining::core::segment::{even_bounds, segment_ranges};
use temporal_mining::prelude::*;
use temporal_mining::workloads::markov_letters;

/// Counts executor invocations and the candidate-set size of each request it
/// was handed — the instrument for "one union scan per level, not K".
#[derive(Default)]
struct ScanSpy {
    inner: ActiveSetBackend,
    calls: usize,
    set_sizes: Vec<usize>,
}

impl Executor for ScanSpy {
    fn execute(&mut self, req: &CountRequest<'_>) -> Result<Counts, BackendError> {
        self.calls += 1;
        self.set_sizes.push(req.candidates());
        self.inner.execute(req)
    }

    fn name(&self) -> &str {
        "scan-spy"
    }
}

/// `ShardedScanBackend`'s own map and reduce without its size gate: every
/// scan cuts the stream into `w` even shards however short it is, maps
/// `shard_scan` over them and reduces with `merge_shard_counts`, so every
/// level crosses `w - 1` Fig. 5 boundaries. `cuts` tallies the boundaries.
struct EvenShards {
    w: usize,
    cuts: usize,
}

impl Executor for EvenShards {
    fn execute(&mut self, req: &CountRequest<'_>) -> Result<Counts, BackendError> {
        let (stream, compiled) = (req.stream(), req.compiled());
        let bounds = even_bounds(stream.len(), self.w);
        self.cuts += bounds.len();
        let shards: Vec<_> = segment_ranges(stream.len(), &bounds)
            .into_iter()
            .map(|range| compiled.shard_scan(stream, range))
            .collect();
        Ok(compiled.merge_shard_counts(stream, &bounds, &shards))
    }

    fn name(&self) -> &str {
        "even-shards"
    }
}

/// K distinct configs over one db: stepped thresholds and level bounds, so
/// members survive (and retire) at different levels.
fn stepped_configs(k: usize) -> Vec<MinerConfig> {
    (0..k)
        .map(|i| MinerConfig {
            alpha: 0.001 * (1.0 + i as f64),
            max_level: Some(2 + (i % 2)),
            ..Default::default()
        })
        .collect()
}

fn serial_results(db: &EventDb, configs: &[MinerConfig]) -> Vec<MiningResult> {
    configs
        .iter()
        .map(|cfg| {
            Miner::new(*cfg)
                .mine(db, &mut SequentialBackend::default())
                .expect("serial mining failed")
        })
        .collect()
}

/// The size of the union of the members' solo candidate sets at each level,
/// each set rebuilt from the member's serial result with `apriori_join`
/// (level 1 is every symbol) — what a fused level must compile, no more.
fn union_of_solo_candidates(
    db: &EventDb,
    configs: &[MinerConfig],
    serial: &[MiningResult],
) -> Vec<usize> {
    let depth = serial.iter().map(|r| r.levels.len()).max().unwrap_or(0);
    (0..depth)
        .map(|l| {
            let mut union = BTreeSet::new();
            for (config, result) in configs.iter().zip(serial) {
                let Some(level) = result.levels.get(l) else {
                    continue;
                };
                let set = match l.checked_sub(1) {
                    None => level1(db.alphabet()),
                    Some(prev) => {
                        let frequent: Vec<Episode> = result.levels[prev]
                            .frequent
                            .iter()
                            .map(|(e, _)| e.clone())
                            .collect();
                        apriori_join(&frequent, config.distinct_items_only)
                    }
                };
                assert_eq!(set.len(), level.candidates, "rebuilt a wrong solo set");
                union.extend(set);
            }
            union.len()
        })
        .collect()
}

#[test]
fn fused_levels_compile_exactly_the_union_of_the_members_solo_candidates() {
    // Mixed generation rules, thresholds and level bounds over a bursty
    // stream: repeated pairs ("AA") are frequent only for the repeats-allowed
    // member, most distinct pairs only for the low-α distinct one. Joining
    // the union of their frequent episodes, without each member's own parent
    // test, compiles a superset.
    let configs = [
        (0.0003, 3, true),
        (0.004, 3, false),
        (0.01, 2, false),
        (0.001, 2, true),
    ]
    .map(|(alpha, max_level, distinct_items_only)| MinerConfig {
        alpha,
        max_level: Some(max_level),
        distinct_items_only,
    });
    let db = Arc::new(markov_letters(6_000, 5, 0.6));
    let serial = serial_results(&db, &configs);
    let mut spy = ScanSpy::default();
    let results = MiningSession::builder_shared(Arc::clone(&db))
        .configs(configs)
        .build()
        .co_mine(&mut spy)
        .expect("co-mining failed");
    assert_eq!(results, serial);
    let union = union_of_solo_candidates(&db, &configs, &serial);
    assert_eq!(spy.set_sizes, union);

    // The input has teeth: at level 3, joining every level-2 frequent
    // episode of the members that mine level 3 gives strictly more.
    let frequent: BTreeSet<Episode> = serial[..2]
        .iter()
        .flat_map(|r| r.levels[1].frequent.iter().map(|(e, _)| e.clone()))
        .collect();
    let frequent: Vec<Episode> = frequent.into_iter().collect();
    assert!(apriori_join(&frequent, false).len() > union[2]);
}

#[test]
fn batched_counts_are_bit_identical_to_serial_for_k_2_4_8() {
    let db = Arc::new(markov_letters(20_000, 7, 0.65));
    for k in [2usize, 4, 8] {
        let configs = stepped_configs(k);
        let serial = serial_results(&db, &configs);
        // Across executors too: the sequential scan and the database-sharded
        // pool scan must both demux to the serial answer.
        for workers in [1usize, 4] {
            let mut group = MiningSession::builder_shared(Arc::clone(&db))
                .configs(configs.iter().copied())
                .workers(workers)
                .build();
            let results = group
                .co_mine(&mut ShardedScanBackend::auto())
                .expect("co-mining failed");
            assert_eq!(results.len(), k);
            for (i, (got, want)) in results.iter().zip(&serial).enumerate() {
                assert_eq!(got, want, "k={k} workers={workers} member {i} diverged");
            }
        }
    }
}

#[test]
fn a_k_request_batch_issues_one_union_scan_per_level_not_k() {
    let db = Arc::new(markov_letters(12_000, 3, 0.6));
    let alphabet_len = db.alphabet().len();
    for k in [2usize, 4, 8] {
        // All members share depth 2 here so the expected scan count is exact.
        let configs: Vec<MinerConfig> = (0..k)
            .map(|i| MinerConfig {
                alpha: 0.0005 * (1.0 + i as f64),
                max_level: Some(2),
                ..Default::default()
            })
            .collect();
        let serial = serial_results(&db, &configs);
        let deepest = serial.iter().map(|r| r.levels.len()).max().unwrap();

        let mut spy = ScanSpy::default();
        let mut group = MiningSession::builder_shared(Arc::clone(&db))
            .configs(configs.iter().copied())
            .build();
        let results = group.co_mine(&mut spy).expect("co-mining failed");
        for (got, want) in results.iter().zip(&serial) {
            assert_eq!(got, want);
        }

        // THE claim: one scan per level — however many members.
        assert_eq!(
            spy.calls, deepest,
            "k={k}: a batch must issue one union scan per level, not k per level"
        );
        assert_eq!(group.compiles(), deepest);

        // And the level-1 scan saw the deduplicated union (every member's
        // level-1 set is the full alphabet), not k concatenated copies.
        assert_eq!(
            spy.set_sizes[0], alphabet_len,
            "k={k}: level-1 union must dedup to the alphabet"
        );
        assert!(
            spy.set_sizes.iter().all(|&n| n > 0),
            "empty sets must never reach the executor"
        );
    }
}

#[test]
fn members_that_go_empty_early_stop_riding_the_union() {
    let db = Arc::new(markov_letters(10_000, 9, 0.7));
    // Member 0 dies at level 1 (nothing passes α = 0.9); member 1 mines on.
    let configs = vec![
        MinerConfig {
            alpha: 0.9,
            ..Default::default()
        },
        MinerConfig {
            alpha: 0.002,
            max_level: Some(3),
            ..Default::default()
        },
    ];
    let serial = serial_results(&db, &configs);
    assert_eq!(serial[0].levels.len(), 1, "member 0 must die at level 1");
    assert!(
        serial[1].levels.len() > 1,
        "member 1 must mine past level 1"
    );

    let mut spy = ScanSpy::default();
    let mut group = MiningSession::builder_shared(Arc::clone(&db))
        .configs(configs.iter().copied())
        .build();
    let results = group.co_mine(&mut spy).expect("co-mining failed");
    assert_eq!(results, serial);
    // Scans continue exactly as long as the deepest member needs.
    assert_eq!(spy.calls, serial[1].levels.len());
}

#[test]
fn repeated_item_universes_co_mine_exactly() {
    // distinct_items_only = false lets the Apriori join emit repeated-item
    // episodes ("ABA"), the regime where sharded counting needs its exact
    // state-composition fallback — co-mining must inherit that exactness.
    let db =
        Arc::new(EventDb::from_str_symbols(&Alphabet::latin26(), &"ABAABBA".repeat(800)).unwrap());
    let configs = vec![
        MinerConfig {
            alpha: 0.01,
            max_level: Some(3),
            distinct_items_only: false,
        },
        MinerConfig {
            alpha: 0.05,
            max_level: Some(3),
            distinct_items_only: true,
        },
        MinerConfig {
            alpha: 0.02,
            max_level: Some(2),
            distinct_items_only: false,
        },
    ];
    let serial = serial_results(&db, &configs);
    assert!(
        serial[0]
            .levels
            .iter()
            .flat_map(|l| l.frequent.iter())
            .any(|(e, _)| !e.has_distinct_items()),
        "the workload must actually surface repeated-item episodes"
    );
    for workers in 1usize..=8 {
        let mut group = MiningSession::builder_shared(Arc::clone(&db))
            .configs(configs.iter().copied())
            .workers(workers)
            .build();
        let results = group
            .co_mine(&mut ShardedScanBackend::new(workers))
            .expect("co-mining failed");
        assert_eq!(results, serial, "workers={workers}");
    }
}

#[test]
fn malformed_executors_fail_the_whole_batch_with_the_union_length() {
    struct Broken;
    impl Executor for Broken {
        fn execute(&mut self, req: &CountRequest<'_>) -> Result<Counts, BackendError> {
            Ok(vec![0; req.candidates() + 3])
        }
        fn name(&self) -> &str {
            "broken"
        }
    }
    let db = Arc::new(markov_letters(5_000, 1, 0.5));
    let mut group = MiningSession::builder_shared(Arc::clone(&db))
        .configs(stepped_configs(3))
        .build();
    let err = group.co_mine(&mut Broken).unwrap_err();
    assert_eq!(err.level, 1);
    assert_eq!(err.backend, "broken");
    match err.source {
        BackendError::CountLength { expected, got } => {
            assert_eq!(expected, db.alphabet().len());
            assert_eq!(got, expected + 3);
        }
        other => panic!("wrong error: {other:?}"),
    }
}

#[test]
fn service_batch_issues_one_fused_scan_stream_for_k_clients() {
    for k in [2usize, 4, 8] {
        let service = MiningService::new(ServiceConfig {
            workers: 2,
            ..Default::default()
        });
        let db = Arc::new(markov_letters(15_000, k as u64, 0.6));
        let configs: Vec<MinerConfig> = (0..k)
            .map(|i| MinerConfig {
                alpha: 0.001 * (1.0 + i as f64),
                max_level: Some(2),
                ..Default::default()
            })
            .collect();
        let serial = serial_results(&db, &configs);
        let deepest = serial.iter().map(|r| r.levels.len()).max().unwrap();
        let requests: Vec<MiningRequest> = configs
            .iter()
            .map(|cfg| MiningRequest::new(Arc::clone(&db), *cfg))
            .collect();

        let mut spy = ScanSpy::default();
        let responses = service.submit_batch(&requests, &mut spy).unwrap();
        assert_eq!(responses.len(), k);
        for (i, (resp, want)) in responses.iter().zip(&serial).enumerate() {
            assert_eq!(resp.result, *want, "k={k} client {i} diverged");
        }
        // Across ALL k clients, exactly one scan per level ran.
        assert_eq!(
            spy.calls, deepest,
            "k={k}: the whole batch must cost one scan per level"
        );
        let stats = service.stats();
        assert_eq!(stats.completed, k as u64, "k={k}");
        assert_eq!((stats.cache.hits, stats.cache.misses), (0, 1), "k={k}");
    }
}

/// Builds episode sets with a chosen overlap pattern from a shared pool of
/// episodes: 0 = identical, 1 = disjoint slices, 2 = overlapping windows.
fn overlapped_sets(pool: &[Episode], k: usize, mode: u8) -> Vec<Vec<Episode>> {
    let n = pool.len().max(1);
    (0..k)
        .map(|i| match mode {
            0 => pool.to_vec(),
            1 => {
                let chunk = n.div_ceil(k);
                pool.iter().skip(i * chunk).take(chunk).cloned().collect()
            }
            _ => {
                // Windows of 2/3 the pool, shifted per member: neighbors
                // share about half their episodes.
                let len = (2 * n).div_ceil(3).max(1);
                let start = (i * n) / k.max(1);
                (0..len).map(|j| pool[(start + j) % n].clone()).collect()
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The demux identity under arbitrary data, arbitrary episode sets
    /// (repeats included), and every worker count 1..=8: union counts
    /// gathered back per source equal that source's own counts — for both
    /// the sequential scan and the segmented scan over the union, cut into
    /// `workers` even shards at any stream length.
    #[test]
    fn union_demux_equals_solo_counts(
        data in proptest::collection::vec(0u8..6, 0..400),
        sets in proptest::collection::vec(
            proptest::collection::vec(proptest::collection::vec(0u8..6, 1..4), 0..12),
            2..6,
        ),
        workers in 1usize..=8,
    ) {
        let ab = Alphabet::numbered(6).unwrap();
        let db = EventDb::new(ab, data).unwrap();
        let sets: Vec<Vec<Episode>> = sets
            .into_iter()
            .map(|set| set.into_iter().map(|v| Episode::new(v).unwrap()).collect())
            .collect();
        let refs: Vec<&[Episode]> = sets.iter().map(|s| s.as_slice()).collect();
        let union = CandidateUnion::build(&refs);
        let compiled = CompiledCandidates::compile(6, union.episodes());
        let stream = db.symbols();
        let mut scratch = CountScratch::new();
        let sequential = compiled.count(stream, &mut scratch);
        let bounds = even_bounds(stream.len(), workers);
        let sharded = compiled.count_with_bounds(stream, &bounds, &mut scratch);
        prop_assert_eq!(&sequential, &sharded);
        for (s, set) in sets.iter().enumerate() {
            prop_assert_eq!(union.demux(s, &sequential), count_episodes_naive(&db, set));
        }
    }

    /// Adversarial overlap shapes — identical, disjoint, and
    /// partially-overlapping candidate sets drawn from one pool (repeated
    /// items included) — demux exactly under any worker count.
    #[test]
    fn union_demux_survives_disjoint_identical_and_partial_overlap(
        data in proptest::collection::vec(0u8..5, 50..300),
        pool in proptest::collection::vec(proptest::collection::vec(0u8..5, 1..4), 4..20),
        k in 2usize..=8,
        mode in 0u8..3,
        workers in 1usize..=8,
    ) {
        let ab = Alphabet::numbered(5).unwrap();
        let db = EventDb::new(ab, data).unwrap();
        let pool: Vec<Episode> = pool.into_iter().map(|v| Episode::new(v).unwrap()).collect();
        let sets = overlapped_sets(&pool, k, mode);
        let refs: Vec<&[Episode]> = sets.iter().map(|s| s.as_slice()).collect();
        let union = CandidateUnion::build(&refs);
        if mode == 0 {
            // Identical sets must dedup to exactly one set's distinct size.
            let solo = CandidateUnion::build(&refs[..1]);
            prop_assert_eq!(union.len(), solo.len());
        }
        let compiled = CompiledCandidates::compile(5, union.episodes());
        let bounds = even_bounds(db.len(), workers);
        let counts = compiled.count_with_bounds(db.symbols(), &bounds, &mut CountScratch::new());
        for (s, set) in sets.iter().enumerate() {
            prop_assert_eq!(union.demux(s, &counts), count_episodes_naive(&db, set));
        }
    }

    /// The full loop: a K-member session over arbitrary configs (thresholds that
    /// empty levels early, different level bounds, repeated-item universes)
    /// equals per-config serial mining, on a sequential executor and on one
    /// that really cuts every level into `w` shards, and each fused level
    /// compiles exactly the union of the members' solo candidate sets.
    #[test]
    fn co_mining_equals_serial_mining_under_arbitrary_configs(
        data in proptest::collection::vec(0u8..4, 0..300),
        alphas in proptest::collection::vec(0.0f64..0.4, 2..6),
        max_levels in proptest::collection::vec(1usize..4, 2..6),
        w in 2usize..=8,
    ) {
        let ab = Alphabet::numbered(4).unwrap();
        let db = Arc::new(EventDb::new(ab, data).unwrap());
        let k = alphas.len().min(max_levels.len());
        let configs: Vec<MinerConfig> = (0..k)
            .map(|i| MinerConfig {
                alpha: alphas[i],
                max_level: Some(max_levels[i]),
                distinct_items_only: i % 2 == 0,
            })
            .collect();
        let serial = serial_results(&db, &configs);
        let mut group = MiningSession::builder_shared(Arc::clone(&db))
            .configs(configs.iter().copied())
            .build();
        let mut spy = ScanSpy::default();
        let fused = group.co_mine(&mut spy).unwrap();
        prop_assert_eq!(&fused, &serial);
        prop_assert_eq!(spy.set_sizes, union_of_solo_candidates(&db, &configs, &serial));
        let scans = spy.calls;
        let mut sharded_group = MiningSession::builder_shared(Arc::clone(&db))
            .configs(configs.iter().copied())
            .build();
        let mut shards = EvenShards { w, cuts: 0 };
        let sharded = sharded_group.co_mine(&mut shards).unwrap();
        prop_assert_eq!(&sharded, &serial);
        prop_assert_eq!(shards.cuts, (w - 1) * scans);
    }
}
