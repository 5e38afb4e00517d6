//! Differential suite: the two new counting strategies — vertical
//! occurrence-list probing ([`CompiledCandidates::count_vertical`]) and
//! word-packed Shift-And advancement ([`BitmaskNfa`]) — pitted against a
//! **frozen copy of the seed scanner's active-set counter**, byte-for-byte
//! the implementation the benchmark baselines against. Every strategy, every
//! dispatch path, and every parallel decomposition must be bit-identical to
//! that reference on adversarial inputs:
//!
//! * repeated-item episodes (greedy-FSM ≠ substring counting: "AAB" over
//!   "AAAB" counts 0, not 1);
//! * absent symbols (empty occurrence lists, dead bitmask lanes);
//! * shard boundaries straddling partial matches;
//! * a single-symbol alphabet;
//! * empty episode sets and a row longer than a 64-bit lane;
//! * worker counts 1..=8 through real [`MiningSession`]s.

use proptest::prelude::*;
use tdm_core::engine::{BitmaskNfa, CompiledCandidates, CountStrategy, OccurrenceIndex};
use tdm_core::miner::AutoBackend;
use tdm_core::segment::even_bounds;
use tdm_core::session::MiningSession;
use tdm_core::{Alphabet, Episode, EventDb};

/// The seed repository's multi-episode active-set counter, frozen verbatim
/// (modulo operating on a raw stream instead of an `EventDb`). This is the
/// reference implementation `tdm-bench` times as `seed-active-set`; the whole
/// point of the suite is that it is *independent* of the engine under test.
fn seed_count_episodes(alphabet_len: usize, stream: &[u8], episodes: &[Episode]) -> Vec<u64> {
    let n_eps = episodes.len();
    let mut counts = vec![0u64; n_eps];
    if n_eps == 0 || stream.is_empty() {
        return counts;
    }
    let items: Vec<&[u8]> = episodes.iter().map(|e| e.items()).collect();
    let mut state = vec![0u8; n_eps];
    let mut last_step = vec![u64::MAX; n_eps];
    let mut by_first: Vec<Vec<u32>> = vec![Vec::new(); alphabet_len];
    for (i, it) in items.iter().enumerate() {
        by_first[it[0] as usize].push(i as u32);
    }
    let mut active: Vec<u32> = Vec::new();
    let mut next_active: Vec<u32> = Vec::new();
    for (pos, &c) in stream.iter().enumerate() {
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

/// Builds episodes from letter strings, mapping `'A'..` onto symbol ids
/// `0..` so small synthetic alphabets index correctly.
fn episodes_of(items: &[&[u8]]) -> Vec<Episode> {
    items
        .iter()
        .map(|it| Episode::new(it.iter().map(|c| c - b'A').collect()).expect("non-empty episode"))
        .collect()
}

/// A letter-string stream as symbol ids (`'A'..` onto `0..`).
fn stream_of(s: &[u8]) -> Vec<u8> {
    s.iter().map(|c| c - b'A').collect()
}

/// Runs every strategy over the same input — each one directly, the serial
/// dispatcher, and the served executor through sessions of 1, 2 and 4
/// workers — and asserts each one matches the frozen seed counter exactly.
fn assert_all_strategies_match(alphabet_len: usize, stream: &[u8], episodes: &[Episode]) {
    let reference = seed_count_episodes(alphabet_len, stream, episodes);
    let compiled = CompiledCandidates::compile(alphabet_len, episodes);
    let index = OccurrenceIndex::build(alphabet_len.max(1), stream);

    let vertical = compiled.count_vertical(stream, &index);
    assert_eq!(vertical, reference, "vertical vs seed");

    if let Some(nfa) = BitmaskNfa::build(&compiled) {
        let bitmask = nfa.count(stream);
        assert_eq!(bitmask, reference, "bitmask vs seed");
    }

    let dispatched = compiled.count_best(stream);
    assert_eq!(dispatched, reference, "dispatch vs seed");

    let db = EventDb::new(Alphabet::numbered(alphabet_len).unwrap(), stream.to_vec()).unwrap();
    for workers in [1, 2, 4] {
        let mut session = MiningSession::builder(&db).workers(workers).build();
        let served = session
            .count_candidates(episodes, &mut AutoBackend)
            .expect("auto backend never fails");
        assert_eq!(
            served, reference,
            "AutoBackend over {workers} workers vs seed"
        );
    }
}

// ---------------------------------------------------------------------------
// Deterministic adversarial cases
// ---------------------------------------------------------------------------

#[test]
fn repeated_item_episodes_follow_fsm_not_substring_semantics() {
    // "AAB" over "AAAB": the greedy FSM is at state 2 ("AA" matched) when the
    // third 'A' arrives; advance fails, restart puts it at state 1, and the
    // final 'B' finds it mid-prefix — count 0. Substring counting would say 1.
    let episodes = episodes_of(&[b"AAB", b"AA", b"ABA", b"AAAB"]);
    assert_all_strategies_match(2, &stream_of(b"AAAB"), &episodes);
    assert_all_strategies_match(2, &stream_of(b"AABAABAA"), &episodes);
    assert_all_strategies_match(2, &stream_of(b"AAAAAAAA"), &episodes);
}

#[test]
fn single_symbol_alphabet() {
    let episodes = episodes_of(&[b"A", b"AA", b"AAA", b"AAAAA"]);
    for n in 0..12 {
        let stream = vec![0u8; n];
        assert_all_strategies_match(1, &stream, &episodes);
    }
}

#[test]
fn absent_symbols_give_empty_lists_and_dead_lanes() {
    // Episodes over a 26-symbol alphabet, stream drawn from 3 of them: most
    // occurrence lists are empty and most bitmask lanes can never fire.
    let episodes = episodes_of(&[b"AB", b"XY", b"BZ", b"Z", b"ABC"]);
    assert_all_strategies_match(26, &stream_of(b"ABCABCCBA"), &episodes);
    // No episodes at all: every path counts nothing.
    assert_all_strategies_match(26, &stream_of(b"ABCABCCBA"), &[]);
}

#[test]
fn shard_boundaries_straddling_partial_matches_merge_exactly() {
    // "ABC" matches straddle every cut of this stream somewhere; sweep all
    // worker counts and all single-cut positions.
    let ab = Alphabet::latin26();
    let stream: Vec<u8> = "ABCABZQXABCABCAB"
        .repeat(8)
        .bytes()
        .map(|c| c - b'A')
        .collect();
    let episodes: Vec<Episode> = ["ABC", "AB", "BC", "CA", "ZQ", "ABCA", "AA"]
        .iter()
        .map(|s| Episode::from_str(&ab, s).unwrap())
        .collect();
    let reference = seed_count_episodes(ab.len(), &stream, &episodes);
    let compiled = CompiledCandidates::compile(ab.len(), &episodes);
    let nfa = BitmaskNfa::build(&compiled).expect("levels fit in 64-bit lanes");

    for workers in 1..=8 {
        let bounds = even_bounds(stream.len(), workers);
        let shards: Vec<(Vec<u64>, Vec<u8>)> =
            tdm_core::segment::segment_ranges(stream.len(), &bounds)
                .into_iter()
                .map(|r| nfa.shard_scan(&stream, r))
                .collect();
        let merged = compiled.merge_shard_counts(&stream, &bounds, &shards);
        assert_eq!(merged, reference, "bitmask sharded over {workers} workers");
    }
    // Every single-cut position, including cuts inside a partial "ABCA" match.
    for cut in 1..stream.len() {
        let bounds = [cut];
        let shards = vec![
            nfa.shard_scan(&stream, 0..cut),
            nfa.shard_scan(&stream, cut..stream.len()),
        ];
        let merged = compiled.merge_shard_counts(&stream, &bounds, &shards);
        assert_eq!(merged, reference, "bitmask cut at {cut}");
    }
}

#[test]
fn sessions_dispatch_identically_for_workers_1_through_8() {
    let ab = Alphabet::latin26();
    let db = EventDb::from_str_symbols(&ab, &"ABCABZQXABCAACAB".repeat(64)).unwrap();
    // The 66-item row fits no 64-bit lane: its set prices the bitmask at
    // infinity and counts vertically.
    let long = &"ABCABZQXABCAACAB".repeat(5)[..66];
    let episodes: Vec<Episode> = ["A", "AB", "ABC", "AAC", "QXA", "ZZZ", "CABA", long]
        .iter()
        .map(|s| Episode::from_str(&ab, s).unwrap())
        .collect();
    let index = OccurrenceIndex::build(ab.len(), db.symbols());
    assert_eq!(
        CompiledCandidates::compile(ab.len(), &episodes).choose_strategy(&index),
        CountStrategy::Vertical
    );
    // Rare letters between long runs of 'A', and all 600 ordered pairs of
    // the rare ones: vertical wins with enough candidates to run in parallel
    // chunks, which race to build the cold index's position lists.
    let sparse: String = (0..200)
        .map(|i| {
            let rare = (b'B' + (i % 25) as u8) as char;
            let next = (b'B' + ((i * 7 + 3) % 25) as u8) as char;
            format!("{}{rare}{next}", "A".repeat(100))
        })
        .collect();
    let sparse = EventDb::from_str_symbols(&ab, &sparse).unwrap();
    let rare_pairs: Vec<Episode> = tdm_core::candidate::permutations(&ab, 2)
        .into_iter()
        .filter(|e| !e.items().contains(&0))
        .collect();
    let cold = OccurrenceIndex::build(ab.len(), sparse.symbols());
    let compiled = CompiledCandidates::compile(ab.len(), &rare_pairs);
    assert!(rare_pairs.len() >= 256);
    assert_eq!(compiled.choose_strategy(&cold), CountStrategy::Vertical);

    for (db, episodes) in [(&db, &episodes), (&sparse, &rare_pairs)] {
        let reference = seed_count_episodes(ab.len(), db.symbols(), episodes);
        for workers in 1..=8 {
            let mut session = MiningSession::builder(db).workers(workers).build();
            let counts = session
                .count_candidates(episodes, &mut AutoBackend)
                .expect("auto backend never fails");
            assert_eq!(counts, reference, "session with {workers} workers");
        }
    }
}

// ---------------------------------------------------------------------------
// Property tests
// ---------------------------------------------------------------------------

/// Folds raw generated bytes into a concrete alphabet: every symbol taken
/// mod `alpha`, so small alphabets force collisions, repeats, and (for the
/// larger declared alphabet) absent symbols.
fn fold_inputs(alpha: usize, raw_stream: &[u8], raw_eps: &[Vec<u8>]) -> (Vec<u8>, Vec<Episode>) {
    let stream: Vec<u8> = raw_stream.iter().map(|&c| c % alpha as u8).collect();
    let episodes: Vec<Episode> = raw_eps
        .iter()
        .map(|it| Episode::new(it.iter().map(|&c| c % alpha as u8).collect()).expect("non-empty"))
        .collect();
    (stream, episodes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_strategy_matches_the_frozen_seed_counter(
        alpha in 1usize..=6,
        raw_stream in proptest::collection::vec(0u8..6, 0..300),
        raw_eps in proptest::collection::vec(proptest::collection::vec(0u8..6, 1..6), 0..20),
    ) {
        let (stream, episodes) = fold_inputs(alpha, &raw_stream, &raw_eps);
        assert_all_strategies_match(alpha, &stream, &episodes);
    }

    #[test]
    fn sharded_bitmask_matches_the_frozen_seed_counter(
        alpha in 1usize..=6,
        raw_stream in proptest::collection::vec(0u8..6, 0..300),
        raw_eps in proptest::collection::vec(proptest::collection::vec(0u8..6, 1..6), 1..20),
        workers in 1usize..=8,
    ) {
        let (stream, episodes) = fold_inputs(alpha, &raw_stream, &raw_eps);
        let reference = seed_count_episodes(alpha, &stream, &episodes);
        let compiled = CompiledCandidates::compile(alpha, &episodes);
        if let Some(nfa) = BitmaskNfa::build(&compiled) {
            let bounds = even_bounds(stream.len(), workers);
            let shards: Vec<(Vec<u64>, Vec<u8>)> =
                tdm_core::segment::segment_ranges(stream.len(), &bounds)
                    .into_iter()
                    .map(|r| nfa.shard_scan(&stream, r))
                    .collect();
            let merged = compiled.merge_shard_counts(&stream, &bounds, &shards);
            prop_assert_eq!(merged, reference);
        }
    }
}
