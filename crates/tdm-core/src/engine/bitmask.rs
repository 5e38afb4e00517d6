//! Word-packed multi-episode NFA advancement (bitmask Shift-And).
//!
//! The active-set scan advances one episode per scalar step. For a compiled
//! level all candidates share the same length `L`, so their FSM states fit
//! uniform `L`-bit *lanes* packed into `u64` words — `⌊64 / L⌋` episodes per
//! word — and one branch-free Shift-And step advances every lane of a word at
//! once:
//!
//! ```text
//! word (L = 3, lanes "CAB", "BAC", … anchored at C, B, …):
//!   bit:   … | 8 7 6 | 5 4 3 | 2 1 0 |
//!   lane:  … |  ep 2 |  ep 1 |  ep 0 |
//!   step:  D = ((D << 1) | starts) & B[c]      // advance/anchor every lane
//!          completions = D & tops; D &= !tops  // count and reset finished lanes
//! ```
//!
//! `starts` holds each lane's bit 0 (a candidate anchor at every step),
//! `B[c]` is the word's per-symbol mask (bit `lane·L + j` set iff that lane's
//! `items[j] == c` — so the `&` both advances genuine matches and filters
//! anchor attempts), and `tops` holds each lane's completion bit (cleared
//! every step, which is exactly the Fig. 3 FSM's reset-after-completion).
//!
//! For **distinct-item** episodes the Shift-And register provably carries at
//! most one set bit per lane and coincides with the Fig. 3 FSM state
//! (bit `j` ⟺ FSM state `j + 1`) — see the equivalence argument in
//! [`super::vertical`] — so lane states compose with the Fig. 5
//! shard-boundary continuation machinery unchanged. Words are grouped by
//! **anchor symbol** (every lane of a word shares `items[0]`), so the scan
//! only steps words that are live or whose anchor is the current character —
//! the word-level analogue of the active set. Repeated-item episodes fall
//! back to their exact per-episode FSM scan, mirroring the sharded engine's
//! exact-composition fallback.

use super::CompiledCandidates;
use crate::segment::scan_segment_items;

/// A compiled candidate set re-packed for word-parallel Shift-And
/// advancement: up to `⌊64 / max_level⌋` distinct-item episodes per `u64`
/// word, grouped by anchor symbol, plus the repeated-item episodes kept aside
/// for the exact FSM fallback.
///
/// Self-contained (owns its masks and fallback items), so an `Arc<BitmaskNfa>`
/// ships to pool workers without borrowing the compiled set.
///
/// ```
/// use tdm_core::engine::{BitmaskNfa, CompiledCandidates, CountScratch};
/// use tdm_core::{Alphabet, Episode};
///
/// let ab = Alphabet::latin26();
/// let eps = vec![
///     Episode::from_str(&ab, "AB").unwrap(),
///     Episode::from_str(&ab, "BA").unwrap(),
///     Episode::from_str(&ab, "ABA").unwrap(), // repeated item: FSM fallback
/// ];
/// let compiled = CompiledCandidates::compile(ab.len(), &eps);
/// let nfa = BitmaskNfa::build(&compiled).unwrap();
/// let stream: Vec<u8> = b"ABABAB".iter().map(|c| c - b'A').collect();
/// assert_eq!(
///     nfa.count(&stream),
///     compiled.count(&stream, &mut CountScratch::new()),
/// );
/// ```
#[derive(Debug, Clone)]
pub struct BitmaskNfa {
    /// Uniform lane width in bits (the set's max level, ≥ 1).
    lane_width: usize,
    /// Lanes per word (`64 / lane_width`).
    lanes_per_word: usize,
    /// Number of packed words.
    words: usize,
    alphabet_len: usize,
    /// Total episodes of the source set (packed + fallback).
    n_episodes: usize,
    /// Per-word, per-symbol advance masks: `masks[w * alphabet_len + c]`.
    masks: Vec<u64>,
    /// Per-word completion bits (each occupied lane's own top bit).
    tops: Vec<u64>,
    /// Every lane's bit 0 (anchor injection mask, uniform across words).
    starts: u64,
    /// Episode index per lane slot (`words * lanes_per_word`, `u32::MAX` =
    /// unoccupied lane).
    lane_eps: Vec<u32>,
    /// Per-symbol contiguous word range whose lanes anchor at that symbol.
    anchor_words: Vec<(u32, u32)>,
    /// Repeated-item episodes (exact FSM fallback) and their items (CSR),
    /// in anchor-bucket order: counts are written by episode id.
    fallback: Vec<u32>,
    fallback_items: Vec<u8>,
    fallback_offsets: Vec<u32>,
}

impl BitmaskNfa {
    /// Packs `compiled` into words. Returns `None` when a lane cannot hold an
    /// episode (`max_level > 64`), a set the cost model
    /// ([`CompiledCandidates::strategy_costs`]) never sends to the bitmask.
    pub fn build(compiled: &CompiledCandidates) -> Option<Self> {
        let lane_width = compiled.max_level().max(1);
        if lane_width > 64 {
            return None;
        }
        let lanes_per_word = 64 / lane_width;
        let alphabet_len = compiled.alphabet_len();
        let n_episodes = compiled.len();

        let mut nfa = BitmaskNfa {
            lane_width,
            lanes_per_word,
            words: 0,
            alphabet_len,
            n_episodes,
            masks: Vec::new(),
            tops: Vec::new(),
            starts: {
                let mut s = 0u64;
                for l in 0..lanes_per_word {
                    s |= 1u64 << (l * lane_width);
                }
                s
            },
            lane_eps: Vec::new(),
            anchor_words: Vec::with_capacity(alphabet_len),
            fallback: Vec::new(),
            fallback_items: Vec::new(),
            fallback_offsets: vec![0],
        };

        // Pack words anchor symbol by anchor symbol so each symbol's words
        // are one contiguous range (anchor buckets are ascending episode
        // indices, preserving compiled order within a word).
        for c in 0..alphabet_len {
            let word_lo = nfa.words as u32;
            let mut lane = nfa.lanes_per_word; // forces a fresh word on first use
            for &ei in compiled.anchored_at(c as u8) {
                let e = ei as usize;
                if compiled.is_repeated(e) {
                    nfa.fallback.push(ei);
                    nfa.fallback_items.extend_from_slice(compiled.items_of(e));
                    nfa.fallback_offsets.push(nfa.fallback_items.len() as u32);
                    continue;
                }
                if lane == nfa.lanes_per_word {
                    nfa.words += 1;
                    nfa.masks.extend(std::iter::repeat_n(0u64, alphabet_len));
                    nfa.tops.push(0);
                    nfa.lane_eps
                        .extend(std::iter::repeat_n(u32::MAX, nfa.lanes_per_word));
                    lane = 0;
                }
                let w = nfa.words - 1;
                let base = lane * lane_width;
                let items = compiled.items_of(e);
                for (j, &item) in items.iter().enumerate() {
                    nfa.masks[w * alphabet_len + item as usize] |= 1u64 << (base + j);
                }
                nfa.tops[w] |= 1u64 << (base + items.len() - 1);
                nfa.lane_eps[w * nfa.lanes_per_word + lane] = ei;
                lane += 1;
            }
            nfa.anchor_words.push((word_lo, nfa.words as u32));
        }
        Some(nfa)
    }

    /// Number of episodes the NFA counts (packed lanes plus fallbacks).
    #[inline]
    pub fn len(&self) -> usize {
        self.n_episodes
    }

    /// True when the NFA holds no episode.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n_episodes == 0
    }

    /// Number of packed `u64` words.
    #[inline]
    pub fn words(&self) -> usize {
        self.words
    }

    /// Lane width in bits (the packed set's max level).
    #[inline]
    pub fn lane_width(&self) -> usize {
        self.lane_width
    }

    #[inline]
    fn fallback_item_slice(&self, i: usize) -> &[u8] {
        &self.fallback_items
            [self.fallback_offsets[i] as usize..self.fallback_offsets[i + 1] as usize]
    }

    /// Credits completions in `comp` (a word's `D & tops`) to their episodes.
    #[inline]
    fn credit(&self, w: usize, mut comp: u64, counts: &mut [u64]) {
        while comp != 0 {
            let bit = comp.trailing_zeros() as usize;
            let lane = bit / self.lane_width;
            counts[self.lane_eps[w * self.lanes_per_word + lane] as usize] += 1;
            comp &= comp - 1;
        }
    }

    /// Counts every episode over the whole stream — bit-identical to
    /// [`CompiledCandidates::count`] of the source set.
    pub fn count(&self, stream: &[u8]) -> Vec<u64> {
        self.shard_scan(stream, 0..stream.len()).0
    }

    /// One database shard's map step in the word-packed layout: scans
    /// `stream[range]` from the start state and returns `(partial counts, FSM
    /// end states)` — the same shape as
    /// [`CompiledCandidates::shard_scan`], so
    /// [`CompiledCandidates::merge_shard_counts`] composes the shards with
    /// the existing Fig. 5 boundary continuations (and replaces the
    /// fallback episodes' counts with the exact composition, exactly as for
    /// the active-set scan).
    ///
    /// End states decode from the lane bits: for a distinct-item episode the
    /// Shift-And register holds at most one bit, and bit `j` corresponds to
    /// FSM state `j + 1`.
    pub fn shard_scan(&self, stream: &[u8], range: std::ops::Range<usize>) -> (Vec<u64>, Vec<u8>) {
        let mut counts = vec![0u64; self.n_episodes];
        let mut end_states = vec![0u8; self.n_episodes];
        if self.n_episodes == 0 || range.is_empty() {
            return (counts, end_states);
        }

        let mut d = vec![0u64; self.words];
        let mut live: Vec<u32> = Vec::new();
        let mut is_live = vec![false; self.words];

        for &c in &stream[range.clone()] {
            let ci = c as usize;
            // Step live words (words with any in-progress lane). `& B[c]`
            // performs advance, restart, reset, and anchor filtering at once.
            let mut i = 0;
            while i < live.len() {
                let w = live[i] as usize;
                let mask = self.masks[w * self.alphabet_len + ci];
                let mut dd = ((d[w] << 1) | self.starts) & mask;
                let comp = dd & self.tops[w];
                if comp != 0 {
                    dd &= !comp;
                    self.credit(w, comp, &mut counts);
                }
                d[w] = dd;
                if dd == 0 {
                    is_live[w] = false;
                    live.swap_remove(i); // re-examine the swapped-in entry
                } else {
                    i += 1;
                }
            }
            // Anchor idle words whose lanes start with `c`.
            let (lo, hi) = self.anchor_words[ci];
            for w in lo..hi {
                let w = w as usize;
                if is_live[w] {
                    continue;
                }
                let mask = self.masks[w * self.alphabet_len + ci];
                let mut dd = self.starts & mask;
                let comp = dd & self.tops[w];
                if comp != 0 {
                    dd &= !comp;
                    self.credit(w, comp, &mut counts);
                }
                if dd != 0 {
                    d[w] = dd;
                    is_live[w] = true;
                    live.push(w as u32);
                }
            }
        }

        // Decode end states from the surviving lane bits.
        for &wi in &live {
            let w = wi as usize;
            let mut bits = d[w];
            while bits != 0 {
                let bit = bits.trailing_zeros() as usize;
                let lane = bit / self.lane_width;
                let e = self.lane_eps[w * self.lanes_per_word + lane] as usize;
                end_states[e] = (bit - lane * self.lane_width + 1) as u8;
                bits &= bits - 1;
            }
        }

        // Fallback episodes: exact per-episode FSM scan of the same segment,
        // yielding the same (count, end state) the active-set shard reports.
        for (i, &ei) in self.fallback.iter().enumerate() {
            let scan = scan_segment_items(stream, self.fallback_item_slice(i), range.clone());
            counts[ei as usize] = scan.count;
            end_states[ei as usize] = scan.end_state;
        }
        (counts, end_states)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Alphabet;
    use crate::candidate::permutations;
    use crate::count::count_episodes_naive;
    use crate::engine::CountScratch;
    use crate::episode::Episode;
    use crate::segment::{even_bounds, segment_ranges};
    use crate::sequence::EventDb;
    use proptest::prelude::*;

    fn eps_of(specs: &[&str]) -> Vec<Episode> {
        let ab = Alphabet::latin26();
        specs
            .iter()
            .map(|s| Episode::from_str(&ab, s).unwrap())
            .collect()
    }

    #[test]
    fn packs_by_anchor_and_counts_like_the_engine() {
        let db =
            EventDb::from_str_symbols(&Alphabet::latin26(), &"ABCABZQXABC".repeat(40)).unwrap();
        let eps = eps_of(&[
            "A", "AB", "ABC", "CBA", "ZQ", "QZ", "AA", "ABA", "AAB", "KLM",
        ]);
        let c = CompiledCandidates::compile(26, &eps);
        let nfa = BitmaskNfa::build(&c).unwrap();
        assert_eq!(nfa.len(), eps.len());
        assert_eq!(
            nfa.count(db.symbols()),
            c.count(db.symbols(), &mut CountScratch::new())
        );
    }

    #[test]
    fn level2_universe_packs_many_lanes_per_word() {
        let db =
            EventDb::from_str_symbols(&Alphabet::latin26(), &"THEQUICKBROWNFX".repeat(60)).unwrap();
        let eps = permutations(&Alphabet::latin26(), 2);
        let c = CompiledCandidates::compile(26, &eps);
        let nfa = BitmaskNfa::build(&c).unwrap();
        assert_eq!(nfa.lane_width(), 2);
        // 25 episodes per anchor, 32 lanes per word: one word per symbol.
        assert_eq!(nfa.words(), 26);
        assert_eq!(
            nfa.count(db.symbols()),
            c.count(db.symbols(), &mut CountScratch::new())
        );
    }

    #[test]
    fn shard_scans_merge_through_the_engine_reducer() {
        let text: String = (0..6000u32)
            .map(|i| char::from(b'A' + ((i.wrapping_mul(2654435761) >> 9) % 26) as u8))
            .collect();
        let db = EventDb::from_str_symbols(&Alphabet::latin26(), &text).unwrap();
        let eps = eps_of(&["AB", "BA", "QXZ", "A", "ABA", "AAB"]);
        let c = CompiledCandidates::compile(26, &eps);
        let nfa = BitmaskNfa::build(&c).unwrap();
        let expected = c.count(db.symbols(), &mut CountScratch::new());
        for parts in [2usize, 3, 5, 8] {
            let bounds = even_bounds(db.len(), parts);
            let shards: Vec<(Vec<u64>, Vec<u8>)> = segment_ranges(db.len(), &bounds)
                .into_iter()
                .map(|r| nfa.shard_scan(db.symbols(), r))
                .collect();
            assert_eq!(
                c.merge_shard_counts(db.symbols(), &bounds, &shards),
                expected,
                "parts={parts}"
            );
        }
    }

    #[test]
    fn end_states_match_the_active_set_scan() {
        // Cut mid-match so live partials exist at the boundary.
        let stream: Vec<u8> = b"QABQAB".iter().map(|c| c - b'A').collect();
        let eps = eps_of(&["QAB", "ABQ", "BQA"]);
        let c = CompiledCandidates::compile(26, &eps);
        let nfa = BitmaskNfa::build(&c).unwrap();
        for cut in 0..=stream.len() {
            let mut scratch = CountScratch::new();
            let mut counts = vec![0u64; c.len()];
            c.scan_range(&stream, 0..cut, &mut scratch, &mut counts);
            let (bm_counts, bm_states) = nfa.shard_scan(&stream, 0..cut);
            assert_eq!(bm_counts, counts, "cut={cut}");
            assert_eq!(bm_states, scratch.state, "cut={cut}");
        }
    }

    #[test]
    fn oversized_levels_refuse_to_pack() {
        let items: Vec<u8> = (0..65u8).collect();
        let ep = Episode::new(items).unwrap();
        let c = CompiledCandidates::compile(80, &[ep]);
        assert!(BitmaskNfa::build(&c).is_none());
        // 64 items exactly still packs (one lane per word).
        let ep64 = Episode::new((0..64u8).collect::<Vec<_>>()).unwrap();
        let c64 = CompiledCandidates::compile(80, &[ep64]);
        let nfa = BitmaskNfa::build(&c64).unwrap();
        assert_eq!(nfa.lane_width(), 64);
        let stream: Vec<u8> = (0..64u8).chain(0..64u8).collect();
        assert_eq!(nfa.count(&stream), vec![2]);
    }

    #[test]
    fn empty_set_and_empty_stream() {
        let none = CompiledCandidates::compile(26, &[]);
        let nfa = BitmaskNfa::build(&none).unwrap();
        assert!(nfa.is_empty());
        assert!(nfa.count(&[1, 2, 3]).is_empty());
        let c = CompiledCandidates::compile(26, &eps_of(&["AB"]));
        let nfa = BitmaskNfa::build(&c).unwrap();
        assert_eq!(nfa.count(&[]), vec![0]);
    }

    proptest! {
        /// The word-packed scan is observationally identical to the
        /// per-episode FSM reference for arbitrary inputs — repeated items,
        /// absent symbols, single-symbol alphabets included.
        #[test]
        fn bitmask_equals_naive(
            data in proptest::collection::vec(0u8..6, 0..400),
            eps in proptest::collection::vec(proptest::collection::vec(0u8..6, 1..5), 1..25),
        ) {
            let ab = Alphabet::numbered(6).unwrap();
            let db = EventDb::new(ab, data).unwrap();
            let episodes: Vec<Episode> =
                eps.into_iter().map(|v| Episode::new(v).unwrap()).collect();
            let c = CompiledCandidates::compile(6, &episodes);
            let nfa = BitmaskNfa::build(&c).unwrap();
            prop_assert_eq!(nfa.count(db.symbols()), count_episodes_naive(&db, &episodes));
        }

        /// Sharded word-packed scans merged by the engine reducer equal the
        /// sequential count under adversarial boundaries.
        #[test]
        fn sharded_bitmask_equals_naive(
            data in proptest::collection::vec(0u8..6, 0..400),
            eps in proptest::collection::vec(proptest::collection::vec(0u8..6, 1..5), 1..20),
            cuts in proptest::collection::vec(0usize..400, 0..8),
        ) {
            let ab = Alphabet::numbered(6).unwrap();
            let n = data.len();
            let db = EventDb::new(ab, data).unwrap();
            let episodes: Vec<Episode> =
                eps.into_iter().map(|v| Episode::new(v).unwrap()).collect();
            let c = CompiledCandidates::compile(6, &episodes);
            let nfa = BitmaskNfa::build(&c).unwrap();
            let mut bounds: Vec<usize> = cuts.into_iter().map(|x| x % (n + 1)).collect();
            bounds.sort_unstable();
            bounds.dedup();
            let shards: Vec<(Vec<u64>, Vec<u8>)> = segment_ranges(n, &bounds)
                .into_iter()
                .map(|r| nfa.shard_scan(db.symbols(), r))
                .collect();
            prop_assert_eq!(
                c.merge_shard_counts(db.symbols(), &bounds, &shards),
                count_episodes_naive(&db, &episodes)
            );
        }
    }
}
