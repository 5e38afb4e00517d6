//! Vertical occurrence-list counting — counting by list probes instead of
//! stream scans.
//!
//! The active-set scan ([`CompiledCandidates::count`]) touches every stream
//! character once per level; its cost is `O(stream)` even when the episodes
//! are rare. Vertical mining (Kocheturov et al., arXiv:1804.10025) inverts
//! the layout: build a per-symbol **occurrence index** once per database,
//! then count an episode by probing the occurrence list of its *rarest*
//! symbol — `O(min occurrences)` per episode, independent of the stream
//! length.
//!
//! This is exact because of a structural fact about the paper's Fig. 3
//! counting FSM: for a **distinct-item** episode (the paper's whole candidate
//! universe), the greedy FSM count equals the number of *contiguous substring
//! occurrences* of the episode's item word in the stream. Sketch: the FSM in
//! state `j` has matched exactly the last `j` characters against the prefix
//! of length `j`; a word with no repeated letters has no borders, so at most
//! one non-zero prefix length can match at any position, and occurrences of a
//! border-free word can never overlap — so the greedy scan can neither miss
//! an occurrence nor double-count one. Repeated-item episodes break this
//! (`"AAB"` over `"AAAB"`: the FSM counts 0, the substring occurs once), so
//! they take the exact per-episode FSM fallback instead — the same division
//! of labour as the sharded scan's exact-composition fallback.
//!
//! Because a vertical count never walks the stream sequentially, it needs no
//! shard-boundary continuations at all: the occurrence list enumerates every
//! match site directly, so splitting the *candidate set* across workers is an
//! exact parallel decomposition with zero boundary work.
//!
//! Level 2 needs no probe either. By the same substring identity, a distinct
//! pair ⟨a,b⟩ is counted once for each position `p` with `s[p−1] = a` and
//! `s[p] = b`, so one pass over the stream fills a σ×σ table of
//! adjacent-pair counts that answers every distinct level-2 row with one
//! read, as the per-symbol counts answer level 1.

use std::sync::OnceLock;

use super::CompiledCandidates;
use crate::segment::scan_segment_items;

/// A per-symbol occurrence index over one symbol stream (CSR layout): how
/// often each alphabet symbol occurs, and the ascending positions at which it
/// does.
///
/// Build once per [`EventDb`](crate::EventDb) snapshot and reuse it for every
/// level's [`CompiledCandidates::count_vertical`] — the sessions cache one
/// behind a `OnceLock` on their shared stream snapshot, so co-mined batches
/// and cached serving sessions build it exactly once.
///
/// The build is one counting pass: the per-symbol counts are all the cost
/// model ([`CompiledCandidates::strategy_costs`]) and level-1 counts ever
/// read. Two more structures wait for their first reader, each built in one
/// pass over the stream:
///
/// * the position lists (4 B per symbol of stream), scattered on the first
///   [`occurrences`](OccurrenceIndex::occurrences) probe, so an index that
///   only ever dispatched to the bitmask strategy never holds them;
/// * the σ×σ table of adjacent-pair counts (4 B per pair: 2,704 B over 26
///   letters, 256 KiB at σ = 256), built by the first level-2 read. A session
///   parks its index, so every later level-2 count on that database is a
///   table read with no stream pass.
///
/// ```
/// use tdm_core::engine::OccurrenceIndex;
///
/// // Stream "ABAB" over a 2-symbol alphabet.
/// let stream = [0, 1, 0, 1];
/// let index = OccurrenceIndex::build(2, &stream);
/// assert_eq!(index.occ_len(1), 2);
/// assert_eq!(index.stream_len(), 4);
/// // The first probe builds the position lists from the indexed stream.
/// assert_eq!(index.occurrences(&stream, 0), &[0, 2]);
/// assert_eq!(index.occurrences(&stream, 1), &[1, 3]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct OccurrenceIndex {
    /// CSR offsets, one slot per symbol plus the terminator (the per-symbol
    /// counts, built eagerly).
    offsets: Vec<u32>,
    /// Stream positions grouped by symbol, ascending within each group; built
    /// by the first [`occurrences`](OccurrenceIndex::occurrences) probe.
    positions: OnceLock<Vec<u32>>,
    /// Adjacent-pair counts, row-major: `pairs[a·σ + b]` is the number of
    /// positions `p` with `s[p−1] = a` and `s[p] = b`. Built by the first
    /// level-2 read.
    pairs: OnceLock<Vec<u32>>,
    /// The last indexed symbol: the left half of the seam pair that
    /// [`extend`](OccurrenceIndex::extend) adds to a built pair table.
    last: Option<u8>,
    stream_len: usize,
}

impl OccurrenceIndex {
    /// Builds the index over `stream` for an alphabet of `alphabet_len`
    /// symbols (one counting pass; position lists wait for the first probe).
    ///
    /// # Panics
    /// When the stream is longer than `u32::MAX` symbols (positions are
    /// stored as `u32`, matching the compiled candidate layout) or contains a
    /// symbol `>= alphabet_len`.
    pub fn build(alphabet_len: usize, stream: &[u8]) -> Self {
        let mut index = OccurrenceIndex {
            offsets: vec![0u32; alphabet_len + 1],
            positions: OnceLock::new(),
            pairs: OnceLock::new(),
            last: None,
            stream_len: 0,
        };
        index.extend(stream);
        index
    }

    /// Extends the index in place for symbols appended past the indexed
    /// prefix: `suffix` is the stream content from position
    /// [`stream_len`](OccurrenceIndex::stream_len) onward. Per-symbol
    /// occurrence lists only ever grow under append, so the extension is one
    /// counting pass over the suffix — plus, when the position lists were
    /// already built, a gather into the widened CSR: no per-symbol re-sort,
    /// and no walk of the already-indexed prefix stream. A built pair table
    /// stays exact in O(m): it gains the seam pair (old last symbol, first
    /// new symbol) and the suffix's own adjacent pairs.
    ///
    /// ```
    /// use tdm_core::engine::OccurrenceIndex;
    ///
    /// let stream = [0, 1, 1, 0];
    /// let mut grown = OccurrenceIndex::build(2, &stream[..2]);
    /// grown.extend(&stream[2..]);
    /// let batch = OccurrenceIndex::build(2, &stream);
    /// assert_eq!(grown.occurrences(&stream, 0), batch.occurrences(&stream, 0));
    /// assert_eq!(grown.occurrences(&stream, 1), batch.occurrences(&stream, 1));
    /// assert_eq!(grown.stream_len(), 4);
    /// ```
    ///
    /// # Panics
    /// As for [`build`](OccurrenceIndex::build): on out-of-range symbols or a
    /// grown stream longer than `u32::MAX`.
    pub fn extend(&mut self, suffix: &[u8]) {
        if suffix.is_empty() {
            return;
        }
        let alphabet_len = self.alphabet_len();
        let grown_len = self.stream_len + suffix.len();
        assert!(
            u32::try_from(grown_len).is_ok(),
            "stream of {grown_len} symbols exceeds the u32-indexed occurrence layout"
        );
        let mut added = vec![0u32; alphabet_len];
        for &c in suffix {
            assert!(
                (c as usize) < alphabet_len,
                "symbol {c} out of range for alphabet of {alphabet_len}"
            );
            added[c as usize] += 1;
        }
        let mut offsets = vec![0u32; alphabet_len + 1];
        for c in 0..alphabet_len {
            let old_run = self.offsets[c + 1] - self.offsets[c];
            offsets[c + 1] = offsets[c] + old_run + added[c];
        }
        if let Some(old) = self.positions.get_mut() {
            // Widen the CSR: each old per-symbol run moves once, then the
            // suffix occurrences land at their run's tail (ascending by
            // construction — every appended position is past everything
            // already indexed).
            let mut positions = vec![0u32; grown_len];
            let mut cursor = Vec::with_capacity(alphabet_len);
            for (c, run) in self.offsets.windows(2).enumerate() {
                let run = run[0] as usize..run[1] as usize;
                let dst = offsets[c] as usize;
                positions[dst..dst + run.len()].copy_from_slice(&old[run.clone()]);
                cursor.push((dst + run.len()) as u32);
            }
            scatter(&mut positions, &mut cursor, suffix, self.stream_len);
            *old = positions;
        }
        if let Some(pairs) = self.pairs.get_mut() {
            if let Some(last) = self.last {
                pairs[last as usize * alphabet_len + suffix[0] as usize] += 1;
            }
            add_pairs(pairs, alphabet_len, suffix);
        }
        self.offsets = offsets;
        self.last = suffix.last().copied();
        self.stream_len = grown_len;
    }

    /// Alphabet size the index was built for.
    #[inline]
    pub fn alphabet_len(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Length of the indexed stream.
    #[inline]
    pub fn stream_len(&self) -> usize {
        self.stream_len
    }

    /// Ascending positions at which symbol `c` occurs. `stream` must be the
    /// stream this index describes (same content): the first probe scatters
    /// every symbol's position list from it, once — concurrent first probes
    /// wait for that one build.
    ///
    /// # Panics
    /// When the first probe's `stream` is not [`stream_len`] symbols long.
    ///
    /// [`stream_len`]: OccurrenceIndex::stream_len
    #[inline]
    pub fn occurrences(&self, stream: &[u8], c: u8) -> &[u32] {
        let positions = self.positions.get_or_init(|| {
            assert_eq!(
                stream.len(),
                self.stream_len,
                "occurrence probe against a stream the index does not describe"
            );
            let mut positions = vec![0u32; stream.len()];
            let mut cursor = self.offsets[..self.alphabet_len()].to_vec();
            scatter(&mut positions, &mut cursor, stream, 0);
            positions
        });
        let c = c as usize;
        &positions[self.offsets[c] as usize..self.offsets[c + 1] as usize]
    }

    /// Number of occurrences of symbol `c` (a level-1 count, for free).
    #[inline]
    pub fn occ_len(&self, c: u8) -> usize {
        let c = c as usize;
        (self.offsets[c + 1] - self.offsets[c]) as usize
    }

    /// How often `b` directly follows `a` in the stream: the count of the
    /// distinct level-2 episode ⟨a,b⟩. `stream` must be the stream this index
    /// describes: the first read fills the whole σ×σ table from it in one
    /// pass, once — concurrent first reads wait for that one build.
    ///
    /// # Panics
    /// When the first read's `stream` is not [`stream_len`] symbols long.
    ///
    /// [`stream_len`]: OccurrenceIndex::stream_len
    #[inline]
    pub(crate) fn pair_count(&self, stream: &[u8], a: u8, b: u8) -> u32 {
        let sigma = self.alphabet_len();
        let pairs = self.pairs.get_or_init(|| {
            assert_eq!(
                stream.len(),
                self.stream_len,
                "pair-table read against a stream the index does not describe"
            );
            let mut pairs = vec![0u32; sigma * sigma];
            add_pairs(&mut pairs, sigma, stream);
            pairs
        });
        pairs[a as usize * sigma + b as usize]
    }

    /// True once a level-2 read has built the pair table.
    #[inline]
    pub(crate) fn has_pairs(&self) -> bool {
        self.pairs.get().is_some()
    }

    /// The built pair table, if any.
    #[cfg(test)]
    pub(crate) fn pair_table(&self) -> Option<&[u32]> {
        self.pairs.get().map(Vec::as_slice)
    }

    /// True once a probe has built the position lists.
    #[cfg(test)]
    pub(crate) fn has_positions(&self) -> bool {
        self.positions.get().is_some()
    }
}

/// Writes the positions of `symbols` (stream offsets from `base`) at each
/// symbol's `cursor`, advancing it: the scatter step of the CSR layout.
fn scatter(positions: &mut [u32], cursor: &mut [u32], symbols: &[u8], base: usize) {
    for (i, &c) in symbols.iter().enumerate() {
        positions[cursor[c as usize] as usize] = (base + i) as u32;
        cursor[c as usize] += 1;
    }
}

/// Adds the adjacent pairs inside `symbols` to the row-major σ×σ `pairs`
/// table.
fn add_pairs(pairs: &mut [u32], sigma: usize, symbols: &[u8]) {
    for w in symbols.windows(2) {
        pairs[w[0] as usize * sigma + w[1] as usize] += 1;
    }
}

impl CompiledCandidates {
    /// True when episode `e` has a repeated item (needs the exact FSM
    /// fallback in the occurrence-probing strategies).
    #[inline]
    pub(crate) fn is_repeated(&self, e: usize) -> bool {
        self.repeated.binary_search(&(e as u32)).is_ok()
    }

    /// True when the vertical strategy counts every row with one index read:
    /// no row is longer than two items or repeats an item.
    #[inline]
    pub(crate) fn reads_only_tables(&self) -> bool {
        self.max_level <= 2 && self.repeated.is_empty()
    }

    /// Counts every compiled episode with the **vertical occurrence-list
    /// strategy**: level-1 episodes read their symbol's list length, distinct
    /// level-2 episodes read the index's pair table, longer distinct-item
    /// episodes probe the occurrence list of their rarest symbol and verify
    /// the surrounding window, and repeated-item episodes fall back to their
    /// exact per-episode FSM scan. Bit-identical to
    /// [`count`](CompiledCandidates::count) for every episode set.
    ///
    /// `index` must have been built over this `stream` (same content, same
    /// alphabet) — the sessions guarantee this by caching the index on the
    /// stream snapshot.
    ///
    /// ```
    /// use tdm_core::engine::{CompiledCandidates, CountScratch, OccurrenceIndex};
    /// use tdm_core::{Alphabet, Episode};
    ///
    /// let ab = Alphabet::latin26();
    /// let eps = vec![
    ///     Episode::from_str(&ab, "AB").unwrap(),
    ///     Episode::from_str(&ab, "BA").unwrap(),
    ///     Episode::from_str(&ab, "ABA").unwrap(), // repeated item: FSM fallback
    /// ];
    /// let compiled = CompiledCandidates::compile(ab.len(), &eps);
    /// let stream: Vec<u8> = b"ABABAB".iter().map(|c| c - b'A').collect();
    /// let index = OccurrenceIndex::build(ab.len(), &stream);
    /// assert_eq!(
    ///     compiled.count_vertical(&stream, &index),
    ///     compiled.count(&stream, &mut CountScratch::new()),
    /// );
    /// ```
    pub fn count_vertical(&self, stream: &[u8], index: &OccurrenceIndex) -> Vec<u64> {
        let mut counts = vec![0u64; self.len()];
        self.count_vertical_range(stream, index, 0..self.len(), &mut counts);
        counts
    }

    /// The candidate-chunked form of
    /// [`count_vertical`](CompiledCandidates::count_vertical): counts only the
    /// compiled episodes in `episodes`, writing into the chunk-local `counts`
    /// (`counts.len() == episodes.len()`, index `e - episodes.start`).
    ///
    /// Because vertical counting never walks the stream sequentially, chunking
    /// the candidate set is an *exact* parallel decomposition — no shard
    /// boundaries exist, so no continuation fix-up is needed (contrast the
    /// database-sharded scan's Fig. 5 machinery).
    pub fn count_vertical_range(
        &self,
        stream: &[u8],
        index: &OccurrenceIndex,
        episodes: std::ops::Range<usize>,
        counts: &mut [u64],
    ) {
        debug_assert_eq!(counts.len(), episodes.len());
        debug_assert!(episodes.end <= self.len());
        debug_assert_eq!(index.stream_len(), stream.len());
        let n = stream.len();
        for e in episodes.clone() {
            let slot = e - episodes.start;
            let items = self.items_of(e);
            if self.is_repeated(e) {
                counts[slot] = scan_segment_items(stream, items, 0..n).count;
                continue;
            }
            let l = items.len();
            if l == 1 {
                counts[slot] = index.occ_len(items[0]) as u64;
                continue;
            }
            if l == 2 {
                counts[slot] = u64::from(index.pair_count(stream, items[0], items[1]));
                continue;
            }
            // Probe the rarest symbol's occurrence list; each hit pins the
            // whole candidate window, which one direct comparison verifies.
            let (k, _) = items
                .iter()
                .enumerate()
                .min_by_key(|&(_, &c)| index.occ_len(c))
                .expect("episodes are non-empty");
            let mut count = 0u64;
            for &p in index.occurrences(stream, items[k]) {
                let p = p as usize;
                if p < k || p - k + l > n {
                    continue;
                }
                let start = p - k;
                let window = &stream[start..start + l];
                if window
                    .iter()
                    .zip(items.iter())
                    .all(|(&have, &want)| have == want)
                {
                    count += 1;
                }
            }
            counts[slot] = count;
        }
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
    fn index_layout_round_trips() {
        let stream = [2u8, 0, 1, 0, 2, 2];
        let idx = OccurrenceIndex::build(4, &stream);
        assert_eq!(idx.alphabet_len(), 4);
        assert_eq!(idx.stream_len(), 6);
        assert_eq!(idx.occ_len(2), 3);
        assert!(
            !idx.has_positions(),
            "counts alone must not scatter positions"
        );
        assert_eq!(idx.occurrences(&stream, 0), &[1, 3]);
        assert!(idx.has_positions());
        assert_eq!(idx.occurrences(&stream, 1), &[2]);
        assert_eq!(idx.occurrences(&stream, 2), &[0, 4, 5]);
        assert_eq!(idx.occurrences(&stream, 3), &[] as &[u32]);
        assert_eq!(idx.occ_len(3), 0);
    }

    #[test]
    fn vertical_matches_active_set_with_repeats_and_absent_symbols() {
        let db =
            EventDb::from_str_symbols(&Alphabet::latin26(), &"ABCABZQXABC".repeat(40)).unwrap();
        let eps = eps_of(&[
            "A", "AB", "ABC", "CBA", "ZQ", "QZ", "AA", "ABA", "AAB", "KLM",
        ]);
        let c = CompiledCandidates::compile(26, &eps);
        let idx = OccurrenceIndex::build(26, db.symbols());
        assert_eq!(
            c.count_vertical(db.symbols(), &idx),
            c.count(db.symbols(), &mut CountScratch::new())
        );
    }

    #[test]
    fn repeated_item_counterexample_uses_fsm_semantics() {
        // The FSM counts 0 for "AAB" over "AAAB" (the third A restarts the
        // match); a naive substring count would say 1. The vertical strategy
        // must agree with the FSM.
        let stream: Vec<u8> = b"AAAB".iter().map(|c| c - b'A').collect();
        let c = CompiledCandidates::compile(26, &eps_of(&["AAB"]));
        let idx = OccurrenceIndex::build(26, &stream);
        assert_eq!(c.count_vertical(&stream, &idx), vec![0]);
    }

    #[test]
    fn chunked_vertical_concatenates_to_full() {
        let db = EventDb::from_str_symbols(&Alphabet::latin26(), &"ABCDEF".repeat(100)).unwrap();
        let eps = permutations(&Alphabet::latin26(), 2);
        let c = CompiledCandidates::compile(26, &eps);
        let idx = OccurrenceIndex::build(26, db.symbols());
        let expected = c.count_vertical(db.symbols(), &idx);
        for chunk in [1usize, 7, 100, eps.len()] {
            let mut got = Vec::new();
            let mut lo = 0;
            while lo < eps.len() {
                let hi = (lo + chunk).min(eps.len());
                let mut part = vec![0u64; hi - lo];
                c.count_vertical_range(db.symbols(), &idx, lo..hi, &mut part);
                got.extend(part);
                lo = hi;
            }
            assert_eq!(got, expected, "chunk={chunk}");
        }
    }

    #[test]
    fn extend_matches_batch_build() {
        let stream = [2u8, 0, 1, 0, 2, 2];
        let mut idx = OccurrenceIndex::build(4, &stream[..2]);
        idx.extend(&stream[2..5]);
        idx.extend(&[]); // no-op
        idx.extend(&stream[5..]);
        let batch = OccurrenceIndex::build(4, &stream);
        assert_eq!(idx.stream_len(), batch.stream_len());
        for c in 0..4u8 {
            assert_eq!(
                idx.occurrences(&stream, c),
                batch.occurrences(&stream, c),
                "symbol {c}"
            );
        }
        // Growing from empty also works.
        let mut from_empty = OccurrenceIndex::build(4, &[]);
        from_empty.extend(&stream);
        assert_eq!(
            from_empty.occurrences(&stream, 2),
            batch.occurrences(&stream, 2)
        );
    }

    #[test]
    fn empty_stream_and_empty_set() {
        let idx = OccurrenceIndex::build(26, &[]);
        assert_eq!(idx.stream_len(), 0);
        let none = CompiledCandidates::compile(26, &[]);
        assert!(none.count_vertical(&[], &idx).is_empty());
        let c = CompiledCandidates::compile(26, &eps_of(&["AB"]));
        assert_eq!(c.count_vertical(&[], &idx), vec![0]);
    }

    proptest! {
        /// Incrementally extending an index over any chunk schedule yields the
        /// same layout as one batch build of the concatenated stream — whether
        /// the position lists and the pair table were built before some
        /// extends (and widened by the rest) or only after the last one.
        #[test]
        fn extend_equals_batch_for_any_chunking(
            data in proptest::collection::vec(0u8..5, 0..300),
            cuts in proptest::collection::vec(0usize..300, 0..6),
            probe_after in 0usize..8,
            read_pairs_after in 0usize..8,
        ) {
            let n = data.len();
            let mut bounds: Vec<usize> = cuts.into_iter().map(|c| c % (n + 1)).collect();
            bounds.sort_unstable();
            let mut grown = OccurrenceIndex::build(5, &[]);
            let mut start = 0usize;
            for (step, b) in bounds.into_iter().chain(std::iter::once(n)).enumerate() {
                if step == probe_after {
                    grown.occurrences(&data[..start], 0);
                }
                if step == read_pairs_after {
                    grown.pair_count(&data[..start], 0, 0);
                }
                prop_assert_eq!(grown.has_positions(), step >= probe_after);
                prop_assert_eq!(grown.has_pairs(), step >= read_pairs_after);
                grown.extend(&data[start..b]);
                start = b;
            }
            let batch = OccurrenceIndex::build(5, &data);
            prop_assert_eq!(grown.stream_len(), batch.stream_len());
            for c in 0..5u8 {
                prop_assert_eq!(grown.occurrences(&data, c), batch.occurrences(&data, c));
            }
            for a in 0..5u8 {
                for b in 0..5u8 {
                    prop_assert_eq!(
                        grown.pair_count(&data, a, b),
                        batch.pair_count(&data, a, b),
                        "pair ({}, {})", a, b
                    );
                }
            }
        }

        /// Vertical counts, the pair table's level-2 reads included, equal the
        /// per-episode FSM reference over any alphabet of 1 to 100 symbols,
        /// for sets that mix 1-item rows, distinct and repeated 2-item rows,
        /// and 3-item rows — read cold (the first read fills the table) and
        /// again from the built table.
        #[test]
        fn table_reads_equal_naive_for_any_alphabet(
            sigma in 1usize..=100,
            raw in proptest::collection::vec(0u8..=255, 0..400),
            rows in proptest::collection::vec(proptest::collection::vec(0u8..=255, 3), 1..40),
            kinds in proptest::collection::vec(0u8..4, 40),
        ) {
            let sym = |x: u8| (x as usize % sigma) as u8;
            let stream: Vec<u8> = raw.into_iter().map(sym).collect();
            let episodes: Vec<Episode> = rows
                .iter()
                .zip(&kinds)
                .map(|(r, kind)| {
                    let a = sym(r[0]);
                    // A distinct partner for `a` (none exists when σ = 1).
                    let other = |x: u8| ((a as usize + 1 + x as usize % sigma.max(2).saturating_sub(1)) % sigma) as u8;
                    let items = match kind {
                        0 => vec![a],
                        1 => vec![a, other(r[1])],
                        2 => vec![a, a],
                        _ => vec![a, sym(r[1]), sym(r[2])],
                    };
                    Episode::new(items).unwrap()
                })
                .collect();
            let db = EventDb::new(Alphabet::numbered(sigma).unwrap(), stream).unwrap();
            let c = CompiledCandidates::compile(sigma, &episodes);
            let idx = OccurrenceIndex::build(sigma, db.symbols());
            let want = count_episodes_naive(&db, &episodes);
            prop_assert_eq!(&c.count_vertical(db.symbols(), &idx), &want);
            prop_assert_eq!(
                idx.has_pairs(),
                episodes.iter().any(|e| e.level() == 2 && e.has_distinct_items())
            );
            prop_assert_eq!(&c.count_vertical(db.symbols(), &idx), &want);
        }

        /// Vertical counting is observationally identical to the per-episode
        /// FSM reference for arbitrary streams and episode sets — repeated
        /// items, absent symbols, single-symbol alphabets included.
        #[test]
        fn vertical_equals_naive(
            data in proptest::collection::vec(0u8..6, 0..400),
            eps in proptest::collection::vec(proptest::collection::vec(0u8..6, 1..5), 1..25),
        ) {
            let ab = Alphabet::numbered(6).unwrap();
            let db = EventDb::new(ab, data).unwrap();
            let episodes: Vec<Episode> =
                eps.into_iter().map(|v| Episode::new(v).unwrap()).collect();
            let c = CompiledCandidates::compile(6, &episodes);
            let idx = OccurrenceIndex::build(6, db.symbols());
            prop_assert_eq!(
                c.count_vertical(db.symbols(), &idx),
                count_episodes_naive(&db, &episodes)
            );
        }
    }
}
