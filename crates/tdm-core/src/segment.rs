//! Segmented counting and boundary ("span") handling — paper §3.3.3 and Fig. 5.
//!
//! The paper's block-level algorithms split the database across threads; an
//! episode whose appearance *spans* a thread boundary would be missed unless an
//! intermediate step between map and reduce accounts for it. This module houses
//! the counting-side machinery those kernels use:
//!
//! * [`scan_segment_items`]: a thread's map step — scan a range from the start
//!   state, reporting the count and the live FSM state at the segment end;
//! * [`continuation_count_items`]: the span fix — resolve a live partial match by
//!   scanning past the boundary, advancing only. The continuation stops as soon as
//!   the match would *restart* (ownership of that anchor belongs to the next
//!   segment) or *reset* (the partial dies);
//! * [`count_segmented`]: map + span fix + reduce over an arbitrary segmentation;
//! * [`count_segmented_exact_items`]: an exact alternative based on FSM
//!   state-function composition, correct for *any* episode (see the
//!   consistency note below).
//!
//! All of this exists because a segment's scan starts without knowing the FSM
//! state its left neighbour ends in, as it does in the database-sharded
//! executors and the simulated GPU's block-level kernels. A stream
//! counted in appends knows that state at every seam: a
//! [`StreamingSession`](crate::streaming::StreamingSession) carries its scan
//! state across each append and needs none of this module.
//!
//! ## Consistency
//!
//! For episodes with **distinct items** — every candidate the paper's evaluation
//! uses (permutations of distinct letters) — `count_segmented` equals the
//! sequential FSM count for every segmentation (property-tested). For episodes
//! with repeated items the greedy FSM's restart ambiguity can make the continuation
//! disagree with a sequential scan by a small amount; `count_segmented_exact_items`
//! composes per-segment transition functions and is exact for all episodes at the
//! cost of `L + 1` scans' worth of state per segment.

use crate::episode::Episode;
use crate::fsm::EpisodeFsm;
use crate::sequence::EventDb;

/// Result of one segment's map step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentScan {
    /// Appearances completed entirely within the segment (counting from state 0).
    pub count: u64,
    /// FSM state at the end of the segment (non-zero = a live partial match).
    pub end_state: u8,
}

/// Scans `stream[range]` from the start state (a block-level thread's map
/// step) for the episode whose items are `items` (non-empty).
pub fn scan_segment_items(
    stream: &[u8],
    items: &[u8],
    range: std::ops::Range<usize>,
) -> SegmentScan {
    let mut fsm = EpisodeFsm::from_items(items);
    let count = fsm.run(&stream[range]);
    SegmentScan {
        count,
        end_state: fsm.state(),
    }
}

/// Resolves a live partial match (`state`) by scanning forward from `from`,
/// **advancing only**:
///
/// * `c == a_next` → advance (a completion contributes 1 and stops);
/// * anything else → stop. In particular `c == a1` stops because a restarted
///   match is anchored in the downstream segment, which counts it itself.
///
/// Returns 1 when the spanning appearance completes, 0 otherwise. The
/// engine's boundary-fix step calls this directly on the compiled layout.
pub fn continuation_count_items(stream: &[u8], items: &[u8], state: u8, from: usize) -> u64 {
    if state == 0 {
        return 0;
    }
    let mut j = state as usize;
    for &c in &stream[from..] {
        if c == items[j] {
            j += 1;
            if j == items.len() {
                return 1;
            }
        } else {
            return 0;
        }
    }
    0
}

/// Full segmented count: segments are delimited by `bounds`, a non-decreasing
/// sequence of cut positions in `0..=stream.len()`. Cuts at `0`, at
/// `stream.len()`, or repeated merely produce empty segments, which are
/// harmless; an empty `bounds` degrades to a sequential scan.
///
/// Each segment is scanned from state 0; each live end-state is resolved with a
/// continuation into the following characters; the reduce step sums everything —
/// exactly the map → span-check → reduce pipeline of the paper's Algorithms 3/4.
pub fn count_segmented(db: &EventDb, episode: &Episode, bounds: &[usize]) -> u64 {
    let stream = db.symbols();
    let mut total = 0u64;
    let mut start = 0usize;
    for &b in bounds.iter().chain(std::iter::once(&stream.len())) {
        debug_assert!(b >= start && b <= stream.len());
        let scan = scan_segment_items(stream, episode.items(), start..b);
        total += scan.count;
        if b < stream.len() {
            total += continuation_count_items(stream, episode.items(), scan.end_state, b);
        }
        start = b;
    }
    total
}

/// Per-segment FSM effect: for each possible entry state, the number of
/// completions within the segment and the exit state.
///
/// Composing these left-to-right reproduces the sequential scan exactly, for any
/// episode — the classic parallel-FSM trick. Each segment costs `L + 1` parallel
/// state tracks (cheap: states are `u8`s).
#[derive(Debug, Clone, PartialEq, Eq)]
struct SegmentEffect {
    /// `completions[s]` = appearances completed when entering at state `s`.
    completions: Vec<u64>,
    /// `exit[s]` = FSM state after the segment when entering at state `s`.
    exit: Vec<u8>,
}

impl SegmentEffect {
    /// Computes the effect of `stream[range]` for the episode whose items
    /// are `items`.
    fn compute_items(stream: &[u8], items: &[u8], range: std::ops::Range<usize>) -> Self {
        let l = items.len();
        let mut completions = vec![0u64; l];
        let mut exit: Vec<u8> = (0..l as u8).collect();
        for &c in &stream[range] {
            for s in 0..l {
                let (ns, done) = crate::fsm::fsm_step(items, exit[s], c);
                exit[s] = ns;
                if done {
                    completions[s] += 1;
                }
            }
        }
        SegmentEffect { completions, exit }
    }

    /// Sequentially composes `self` followed by `next`.
    fn then(&self, next: &SegmentEffect) -> SegmentEffect {
        let l = self.exit.len();
        let mut completions = vec![0u64; l];
        let mut exit = vec![0u8; l];
        for s in 0..l {
            let mid = self.exit[s] as usize;
            completions[s] = self.completions[s] + next.completions[mid];
            exit[s] = next.exit[mid];
        }
        SegmentEffect { completions, exit }
    }
}

/// Exact segmented count via state-function composition. Matches the sequential
/// FSM count for **every** episode and segmentation — the engine's fallback
/// for repeated-item episodes in a sharded count.
pub fn count_segmented_exact_items(stream: &[u8], items: &[u8], bounds: &[usize]) -> u64 {
    let mut start = 0usize;
    let mut acc: Option<SegmentEffect> = None;
    for &b in bounds.iter().chain(std::iter::once(&stream.len())) {
        let eff = SegmentEffect::compute_items(stream, items, start..b);
        acc = Some(match acc {
            None => eff,
            Some(prev) => prev.then(&eff),
        });
        start = b;
    }
    acc.map(|e| e.completions[0]).unwrap_or(0)
}

/// Evenly spaced cut positions for `parts` segments over a stream of length `n`
/// (the partitioning the paper's block-level kernels use: thread `t` of `T` scans
/// `[t*n/T, (t+1)*n/T)`).
pub fn even_bounds(n: usize, parts: usize) -> Vec<usize> {
    assert!(parts > 0, "need at least one part");
    (1..parts).map(|t| t * n / parts).collect()
}

/// The segments a set of interior cut positions induces over a stream of
/// length `n`: `bounds.len() + 1` contiguous half-open ranges covering
/// `0..n`. The inverse view of [`even_bounds`]-style cuts, shared by every
/// sharded scanner (one range per map worker).
pub fn segment_ranges(n: usize, bounds: &[usize]) -> Vec<std::ops::Range<usize>> {
    std::iter::once(0)
        .chain(bounds.iter().copied())
        .zip(bounds.iter().copied().chain(std::iter::once(n)))
        .map(|(s, e)| s..e)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Alphabet;
    use crate::count::count_episode;
    use proptest::prelude::*;

    fn setup(db: &str, ep: &str) -> (EventDb, Episode) {
        let ab = Alphabet::latin26();
        (
            EventDb::from_str_symbols(&ab, db).unwrap(),
            Episode::from_str(&ab, ep).unwrap(),
        )
    }

    #[test]
    fn figure5_span_scenario() {
        // Paper Fig. 5: searching B => C across a boundary; with the span check
        // the count is found, without it it is lost.
        let (db, ep) = setup("ABCB" /* boundary */, "BC");
        // Put the boundary right after the 'B' so "B|C" spans it.
        let (db2, _) = setup("ABCBC", "BC");
        let seq = count_episode(&db2, &ep);
        assert_eq!(seq, 2);
        let with_span = count_segmented(&db2, &ep, &[4]); // "ABCB | C"
        assert_eq!(with_span, 2);
        // Dropping the continuation loses the spanning appearance:
        let naive: u64 = [0..4, 4..5]
            .into_iter()
            .map(|r| scan_segment_items(db2.symbols(), ep.items(), r).count)
            .sum();
        assert_eq!(naive, 1);
        drop(db);
    }

    #[test]
    fn continuation_stops_on_restart() {
        // Segment 1 ends mid-match "A"; segment 2 begins with a fresh 'A' anchor,
        // which belongs to segment 2: the continuation must NOT steal it.
        let (db, ep) = setup("XAAB", "AB");
        let seq = count_episode(&db, &ep);
        assert_eq!(seq, 1);
        assert_eq!(count_segmented(&db, &ep, &[2]), seq); // "XA | AB"
    }

    #[test]
    fn continuation_completes_spanning_match() {
        let (db, ep) = setup("XAB", "AB");
        assert_eq!(count_segmented(&db, &ep, &[2]), 1); // "XA | B"
        let (db, ep) = setup("ABCDE", "ABCDE");
        for cut in 1..5 {
            assert_eq!(count_segmented(&db, &ep, &[cut]), 1, "cut={cut}");
        }
    }

    #[test]
    fn many_segments_level1() {
        let (db, ep) = setup("AXAXAXA", "A");
        assert_eq!(count_segmented(&db, &ep, &even_bounds(7, 7)), 4);
    }

    #[test]
    fn exact_composition_handles_repeated_items() {
        // The known adversarial case for the greedy continuation: episode "AAB"
        // over "A | AAB". Sequential: A,A->2; A restarts->1; B resets. Count 0.
        let (db, ep) = setup("AAAB", "AAB");
        assert_eq!(count_episode(&db, &ep), 0);
        assert_eq!(
            count_segmented_exact_items(db.symbols(), ep.items(), &[1]),
            0
        );
        // ... for every cut.
        for cut in 1..4 {
            assert_eq!(
                count_segmented_exact_items(db.symbols(), ep.items(), &[cut]),
                0,
                "cut={cut}"
            );
        }
    }

    #[test]
    fn empty_segments_are_harmless() {
        let (db, ep) = setup("ABAB", "AB");
        assert_eq!(count_segmented(&db, &ep, &[2, 2, 2]), 2);
        assert_eq!(
            count_segmented_exact_items(db.symbols(), ep.items(), &[0, 4]),
            2
        );
    }

    #[test]
    fn even_bounds_partitions() {
        assert_eq!(even_bounds(10, 4), vec![2, 5, 7]);
        assert_eq!(even_bounds(9, 3), vec![3, 6]);
        assert!(even_bounds(5, 1).is_empty());
    }

    proptest! {
        /// For distinct-item episodes, the paper-style continuation scheme equals
        /// the sequential FSM count under ANY segmentation.
        #[test]
        fn segmented_equals_sequential_distinct_items(
            data in proptest::collection::vec(0u8..6, 1..300),
            cuts in proptest::collection::vec(0usize..300, 0..8),
            len in 1usize..4,
        ) {
            let ab = Alphabet::numbered(6).unwrap();
            let n = data.len();
            let db = EventDb::new(ab, data).unwrap();
            // Distinct-item episode 0..len (all items distinct by construction).
            let ep = Episode::new((0..len as u8).collect()).unwrap();
            let mut bounds: Vec<usize> = cuts.into_iter().map(|c| c % (n + 1)).collect();
            bounds.sort_unstable();
            let seq = count_episode(&db, &ep);
            prop_assert_eq!(count_segmented(&db, &ep, &bounds), seq);
        }

        /// The state-composition counter equals the sequential FSM count for ANY
        /// episode (repeats allowed) and ANY segmentation.
        #[test]
        fn exact_composition_equals_sequential(
            data in proptest::collection::vec(0u8..4, 1..300),
            ep_items in proptest::collection::vec(0u8..4, 1..5),
            cuts in proptest::collection::vec(0usize..300, 0..8),
        ) {
            let ab = Alphabet::numbered(4).unwrap();
            let n = data.len();
            let db = EventDb::new(ab, data).unwrap();
            let ep = Episode::new(ep_items).unwrap();
            let mut bounds: Vec<usize> = cuts.into_iter().map(|c| c % (n + 1)).collect();
            bounds.sort_unstable();
            prop_assert_eq!(
                count_segmented_exact_items(db.symbols(), ep.items(), &bounds),
                count_episode(&db, &ep)
            );
        }

        /// SegmentEffect composition is associative (fold order is irrelevant —
        /// what makes tree-reductions of segments legal).
        #[test]
        fn effect_composition_associative(
            data in proptest::collection::vec(0u8..4, 3..120),
            ep_items in proptest::collection::vec(0u8..4, 1..4),
        ) {
            let ep = Episode::new(ep_items).unwrap();
            let n = data.len();
            let (c1, c2) = (n / 3, 2 * n / 3);
            let a = SegmentEffect::compute_items(&data, ep.items(), 0..c1);
            let b = SegmentEffect::compute_items(&data, ep.items(), c1..c2);
            let c = SegmentEffect::compute_items(&data, ep.items(), c2..n);
            prop_assert_eq!(a.then(&b).then(&c), a.then(&b.then(&c)));
        }
    }
}
