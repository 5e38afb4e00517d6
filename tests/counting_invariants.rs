//! Property tests of counting-semantics invariants that hold for *any* input —
//! the mathematical guard rails of the mining core.

use proptest::prelude::*;
use temporal_mining::core::count::count_episode;
use temporal_mining::core::expiry::count_with_expiry;
use temporal_mining::core::segment::{count_segmented, count_segmented_exact_items, even_bounds};
use temporal_mining::core::{Alphabet, Episode, EventDb};

/// Reference oracle: greedy non-overlapped subsequence occurrences. Scan left
/// to right, matching the items in order and restarting only after each
/// completion; foreign characters are skipped, where the FSM resets.
fn count_non_overlapping(stream: &[u8], items: &[u8]) -> u64 {
    let mut next = 0usize;
    let mut count = 0u64;
    for &c in stream {
        if c == items[next] {
            next += 1;
            if next == items.len() {
                count += 1;
                next = 0;
            }
        }
    }
    count
}

/// Reference oracle: the stream positions at which an occurrence starts,
/// i.e. positions `p` with `stream[p] == items[0]` and the remaining items
/// appearing in order somewhere after `p`.
fn count_distinct_starts(stream: &[u8], items: &[u8]) -> u64 {
    // Swept right to left: `earliest[k]` is the first position of the
    // current suffix at which a match of `items[k..]` starts (`usize::MAX`
    // for none); the empty suffix `items[l..]` matches anywhere.
    let l = items.len();
    let mut earliest = vec![usize::MAX; l + 1];
    earliest[l] = 0;
    let mut count = 0u64;
    for i in (0..stream.len()).rev() {
        // The deepest item first, so this position can chain.
        for k in (0..l).rev() {
            let rest_follows = k + 1 == l || (earliest[k + 1] != usize::MAX && earliest[k + 1] > i);
            if stream[i] == items[k] && rest_follows {
                earliest[k] = i;
            }
        }
        if earliest[0] == i {
            count += 1;
        }
    }
    count
}

/// The oracles' hand-computed values, beside the FSM's on the same input.
#[test]
fn oracles_match_hand_counts() {
    let ab = Alphabet::latin26();
    let count = |db: &str, ep: &str| {
        let db = EventDb::from_str_symbols(&ab, db).unwrap();
        let ep = Episode::from_str(&ab, ep).unwrap();
        (
            count_episode(&db, &ep),
            count_non_overlapping(db.symbols(), ep.items()),
            count_distinct_starts(db.symbols(), ep.items()),
        )
    };
    // (FSM, non-overlapping, distinct starts). The FSM resets on a foreign
    // character; the non-overlapped count skips it.
    assert_eq!(count("AXB", "AB"), (0, 1, 1));
    assert_eq!(count("AXBAXB", "AB"), (0, 2, 2));
    // A@0..B@2 completes, then only B@3 remains; both As can start one.
    assert_eq!(count("AABB", "AB"), (1, 1, 2));
    assert_eq!(count("AAB", "AB"), (1, 1, 2));
    assert_eq!(count("ABA", "AB"), (1, 1, 1));
    assert_eq!(count("BBB", "AB"), (0, 0, 0));
    // A single-item episode counts its item under all three.
    assert_eq!(count("ABABZA", "A"), (3, 3, 3));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every completion consumes one occurrence of each episode item, so the
    /// count is bounded by the scarcest item (and by n / L).
    #[test]
    fn count_bounded_by_scarcest_item(
        data in proptest::collection::vec(0u8..6, 0..500),
        items in proptest::collection::vec(0u8..6, 1..5),
    ) {
        let ab = Alphabet::numbered(6).unwrap();
        let db = EventDb::new(ab, data).unwrap();
        let ep = Episode::new(items.clone()).unwrap();
        let count = count_episode(&db, &ep);
        let hist = db.histogram();
        // Each item of the episode must appear `count * multiplicity` times.
        let mut need = [0u64; 6];
        for &i in &items {
            need[i as usize] += 1;
        }
        for (i, &mult) in need.iter().enumerate() {
            if mult > 0 {
                prop_assert!(count * mult <= hist[i],
                    "item {i}: count {count} x {mult} > {}", hist[i]);
            }
        }
        prop_assert!(count <= db.len() as u64 / items.len() as u64 + 1);
    }

    /// The FSM count never exceeds the non-overlapping subsequence count (the
    /// FSM only adds reset conditions) nor the distinct-starts count.
    #[test]
    fn fsm_is_the_strictest_semantics(
        data in proptest::collection::vec(0u8..5, 0..400),
        items_seed in proptest::collection::vec(0u8..5, 1..4),
    ) {
        // Distinct items (the paper's candidate space).
        let mut items = items_seed;
        items.sort_unstable();
        items.dedup();
        let ab = Alphabet::numbered(5).unwrap();
        let db = EventDb::new(ab, data).unwrap();
        let ep = Episode::new(items).unwrap();
        let fsm = count_episode(&db, &ep);
        let non_overlap = count_non_overlapping(db.symbols(), ep.items());
        let starts = count_distinct_starts(db.symbols(), ep.items());
        prop_assert!(fsm <= non_overlap, "fsm {fsm} > non-overlapping {non_overlap}");
        prop_assert!(fsm <= starts, "fsm {fsm} > starts {starts}");
    }

    /// An unbounded expiry window reduces to the plain FSM, and shrinking the
    /// window never increases the count (monotonicity).
    #[test]
    fn expiry_is_monotone_in_the_window(
        data in proptest::collection::vec(0u8..5, 1..300),
        gaps in proptest::collection::vec(1u64..20, 1..300),
        items in proptest::collection::vec(0u8..5, 1..4),
    ) {
        let n = data.len().min(gaps.len());
        let data = &data[..n];
        let mut t = 0u64;
        let times: Vec<u64> = gaps[..n].iter().map(|g| { t += g; t }).collect();
        let ab = Alphabet::numbered(5).unwrap();
        let db = EventDb::with_times(ab.clone(), data.to_vec(), times).unwrap();
        let ep = Episode::new(items).unwrap();

        let plain = {
            let plain_db = EventDb::new(ab, data.to_vec()).unwrap();
            count_episode(&plain_db, &ep)
        };
        let unbounded = count_with_expiry(&db, &ep, u64::MAX).unwrap();
        prop_assert_eq!(unbounded, plain);

        let mut last = u64::MAX;
        for window in [1000u64, 100, 10, 1] {
            let c = count_with_expiry(&db, &ep, window).unwrap();
            prop_assert!(c <= last.min(plain), "window {window}: {c} > min({last}, {plain})");
            last = c;
        }
    }

    /// Concatenating two databases never loses completions that are wholly
    /// inside either half (super-additivity up to one boundary match).
    #[test]
    fn concatenation_superadditive(
        left in proptest::collection::vec(0u8..4, 0..200),
        right in proptest::collection::vec(0u8..4, 0..200),
        items_seed in proptest::collection::vec(0u8..4, 1..4),
    ) {
        let mut items = items_seed;
        items.sort_unstable();
        items.dedup();
        let ab = Alphabet::numbered(4).unwrap();
        let ep = Episode::new(items).unwrap();
        let db_l = EventDb::new(ab.clone(), left.clone()).unwrap();
        let db_r = EventDb::new(ab.clone(), right.clone()).unwrap();
        let mut both = left;
        both.extend_from_slice(&right);
        let db = EventDb::new(ab, both).unwrap();
        let whole = count_episode(&db, &ep);
        let parts = count_episode(&db_l, &ep) + count_episode(&db_r, &ep);
        // The whole can only gain (spanning matches) relative to the parts,
        // except that a partial match at the seam can consume the right half's
        // first anchor — bounded by 1 for distinct-item episodes.
        prop_assert!(whole + 1 >= parts, "whole {whole} vs parts {parts}");
    }

    /// Reversing both the database and the episode preserves nothing in
    /// general, but a palindromic single-item episode count is invariant.
    #[test]
    fn single_item_count_is_reversal_invariant(
        data in proptest::collection::vec(0u8..6, 0..300),
        item in 0u8..6,
    ) {
        let ab = Alphabet::numbered(6).unwrap();
        let ep = Episode::new(vec![item]).unwrap();
        let fwd = count_episode(&EventDb::new(ab.clone(), data.clone()).unwrap(), &ep);
        let mut rev = data;
        rev.reverse();
        let bwd = count_episode(&EventDb::new(ab, rev).unwrap(), &ep);
        prop_assert_eq!(fwd, bwd);
    }

    /// Segmented counting with boundary continuation (the paper's Fig. 5 span
    /// handling, what the block-level kernels compute) equals the sequential
    /// FSM count for distinct-item episodes of lengths 1–4 under ANY
    /// segmentation of ANY database.
    #[test]
    fn segmented_continuation_equals_sequential(
        data in proptest::collection::vec(0u8..8, 1..400),
        cuts in proptest::collection::vec(0usize..400, 0..10),
        len in 1usize..5,
    ) {
        let ab = Alphabet::numbered(8).unwrap();
        let n = data.len();
        let db = EventDb::new(ab, data).unwrap();
        // Episode items 0..len are distinct by construction (lengths 1..=4).
        let ep = Episode::new((0..len as u8).collect::<Vec<u8>>()).unwrap();
        let mut bounds: Vec<usize> = cuts.into_iter().map(|c| c % (n + 1)).collect();
        bounds.sort_unstable();
        prop_assert_eq!(
            count_segmented(&db, &ep, &bounds),
            count_episode(&db, &ep),
            "bounds={:?} n={}", bounds, n
        );
    }

    /// The exact state-composition variant agrees with the sequential count for
    /// ARBITRARY episodes (repeats allowed), under any segmentation.
    #[test]
    fn segmented_exact_equals_sequential_for_any_episode(
        data in proptest::collection::vec(0u8..5, 1..400),
        items in proptest::collection::vec(0u8..5, 1..5),
        cuts in proptest::collection::vec(0usize..400, 0..10),
    ) {
        let ab = Alphabet::numbered(5).unwrap();
        let n = data.len();
        let db = EventDb::new(ab, data).unwrap();
        let ep = Episode::new(items).unwrap();
        let mut bounds: Vec<usize> = cuts.into_iter().map(|c| c % (n + 1)).collect();
        bounds.sort_unstable();
        prop_assert_eq!(
            count_segmented_exact_items(db.symbols(), ep.items(), &bounds),
            count_episode(&db, &ep),
            "bounds={:?} n={}", bounds, n
        );
    }

    /// Even partitions (how the kernels actually split the database across
    /// threads) preserve the count for every worker count up to the database
    /// length.
    #[test]
    fn even_partitions_preserve_counts(
        data in proptest::collection::vec(0u8..6, 1..300),
        parts in 1usize..65,
        len in 1usize..5,
    ) {
        let ab = Alphabet::numbered(6).unwrap();
        let n = data.len();
        let db = EventDb::new(ab, data).unwrap();
        let ep = Episode::new((0..len as u8).collect::<Vec<u8>>()).unwrap();
        let bounds = even_bounds(n, parts.min(n).max(1));
        prop_assert_eq!(count_segmented(&db, &ep, &bounds), count_episode(&db, &ep));
    }
}
