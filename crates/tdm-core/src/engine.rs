//! The counting engine: compiled candidate sets and database-sharded parallel
//! counting.
//!
//! The paper's central performance idea is that the *shape* of the parallel
//! decomposition should follow the shape of the problem (§3.3): when candidates
//! are plentiful, shard the candidate set (thread-level, Algorithms 1/2); when
//! candidates are few but the stream is long, shard the **database** and fix up
//! the appearances that span worker boundaries (block-level, Algorithms 3/4,
//! Fig. 5). This module is the host-side engine built around that idea:
//!
//! * [`CompiledCandidates`] — the candidate set flattened into one contiguous
//!   CSR buffer (`items` + `offsets`) plus a CSR **anchor index** mapping each
//!   alphabet symbol to the episodes whose first item it is. Compiling once per
//!   level replaces the per-call `Vec<Vec<u32>>` the old active-set counter
//!   rebuilt on every invocation; after compilation no per-scan heap allocation
//!   of the index happens at all.
//! * [`CountScratch`] — the mutable per-scan state (FSM states, active set,
//!   double buffer), reusable across `count` calls so the level-wise miner
//!   amortizes allocations across levels.
//! * [`CompiledCandidates::count`] — the single-pass active-set scan over the
//!   compiled layout (the fast sequential ground truth).
//! * [`CompiledCandidates::shard_scan`] / [`CompiledCandidates::merge_shard_counts`]
//!   — the map and reduce steps of the CPU analogue of the paper's
//!   Algorithms 3/4: each worker runs the active-set scan over its stream
//!   segment from the start state, and live partial matches at segment
//!   boundaries are resolved with the advance-only continuation of
//!   [`crate::segment`]. Exact for distinct-item episodes (the paper's whole
//!   candidate universe) under any segmentation — property-tested — and exact
//!   for repeated-item episodes too via the state-composition fallback
//!   ([`crate::segment::count_segmented_exact_items`]).
//!   [`CompiledCandidates::count_with_bounds`] runs both steps on one thread
//!   over any cut positions; in parallel they run only through a session's
//!   [`Executor`](crate::session::Executor) (e.g.
//!   [`AutoBackend`](crate::miner::AutoBackend)), over the shard bounds and
//!   worker pool the session planned.
//!
//! ## When database-sharding wins
//!
//! The active-set scan does `O(active + anchors(c))` work per character, so its
//! cost is dominated by the stream length once the candidate set is small
//! (levels 1–2: 26–650 episodes over 393,019 letters). Candidate-sharding
//! cannot help there — each worker still scans the full stream — but
//! database-sharding divides the stream itself, at the cost of
//! `episodes × (workers - 1)` cheap boundary continuations (each a few
//! characters long, paper Fig. 5). This mirrors the paper's Characterizations
//! 5–6: block-level (database-parallel) kernels dominate at low levels,
//! thread-level (candidate-parallel) kernels at high levels.
//!
//! ```
//! use tdm_core::engine::{CompiledCandidates, CountScratch};
//! use tdm_core::{Alphabet, Episode};
//!
//! let ab = Alphabet::latin26();
//! let eps = vec![
//!     Episode::from_str(&ab, "AB").unwrap(),
//!     Episode::from_str(&ab, "BA").unwrap(),
//! ];
//! // Compile once; scan as often as you like without re-indexing.
//! let compiled = CompiledCandidates::compile(ab.len(), &eps);
//! let stream: Vec<u8> = b"ABABAB".iter().map(|c| c - b'A').collect();
//! let mut scratch = CountScratch::new();
//! assert_eq!(compiled.count(&stream, &mut scratch), vec![3, 2]);
//! // The segmented count is bit-identical for any cut positions.
//! assert_eq!(compiled.count_with_bounds(&stream, &[2, 3], &mut scratch), vec![3, 2]);
//! ```

pub mod bitmask;
pub mod vertical;

pub use bitmask::BitmaskNfa;
pub use vertical::OccurrenceIndex;

use crate::episode::{distinct_items, Episode};
use crate::segment::{continuation_count_items, count_segmented_exact_items};

/// Streams shorter than this are counted sequentially even when more workers
/// are requested — dispatch costs more than the scan.
pub const MIN_SHARD_STREAM: usize = 4096;

/// Panics unless `episodes` episodes holding `items` items in total fit a
/// layout indexed below `cap`. The compiled buffers index items and episodes
/// with `u32` (half the memory traffic of `usize` on the hot scan path), so a
/// set larger than that must be split by the caller instead of silently
/// wrapping.
fn check_layout(episodes: usize, items: usize, cap: u32) {
    assert!(
        episodes <= cap as usize,
        "candidate set exceeds the compiled layout: {episodes} episodes, limit {cap}"
    );
    assert!(
        items <= cap as usize,
        "candidate set exceeds the compiled layout: {items} total items, limit {cap}"
    );
}

/// One of the engine's interchangeable counting strategies — all
/// bit-identical, chosen per level by cost
/// ([`CompiledCandidates::choose_strategy`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CountStrategy {
    /// Occurrence-list probing via an [`OccurrenceIndex`]
    /// ([`CompiledCandidates::count_vertical`]) — `O(min occurrences)` per
    /// episode, no stream pass at all.
    Vertical,
    /// Word-packed Shift-And advancement of up to `⌊64 / level⌋` episodes per
    /// machine word ([`BitmaskNfa`]).
    Bitmask,
}

/// Per-strategy cost estimates in comparable "simple op" units — the numbers
/// behind [`CompiledCandidates::choose_strategy`], exposed via
/// [`CompiledCandidates::strategy_costs`] so serve-time CPU-vs-GPU dispatch
/// shares one model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StrategyCosts {
    /// Estimated ops of the vertical occurrence-list strategy.
    pub vertical: f64,
    /// Estimated ops of the word-packed Shift-And strategy (`f64::INFINITY`
    /// when the level exceeds a 64-bit lane).
    pub bitmask: f64,
}

impl StrategyCosts {
    /// The cheaper strategy and its cost: the engine's one comparison of
    /// the two, ties going to vertical. The bitmask is never picked for a
    /// set no 64-bit lane holds, whose bitmask cost is infinite.
    pub fn cheapest(&self) -> (CountStrategy, f64) {
        if self.vertical <= self.bitmask {
            (CountStrategy::Vertical, self.vertical)
        } else {
            (CountStrategy::Bitmask, self.bitmask)
        }
    }
}

/// A candidate set compiled into flat, scan-friendly buffers.
///
/// Layout (all CSR):
///
/// * episode `i`'s items live at `items[offsets[i]..offsets[i+1]]`;
/// * the episodes anchored at symbol `c` (first item `== c`) are
///   `anchor_episodes[anchor_offsets[c]..anchor_offsets[c+1]]`.
///
/// Compile once per candidate set (one pass, counting sort); every subsequent
/// scan reuses the buffers without touching the allocator. [`recompile`]
/// rebuilds in place so the level-wise miner reuses capacity across levels.
///
/// [`recompile`]: CompiledCandidates::recompile
#[derive(Debug, Clone, Default)]
pub struct CompiledCandidates {
    items: Vec<u8>,
    offsets: Vec<u32>,
    anchor_offsets: Vec<u32>,
    anchor_episodes: Vec<u32>,
    /// Episodes with a repeated item (need the exact fallback when sharding and
    /// the `last_step` guard when scanning). Empty for the paper's universe.
    repeated: Vec<u32>,
    /// Counting-sort cursor scratch for [`recompile`] (kept so recompiling a
    /// level allocates nothing once capacities are established).
    ///
    /// [`recompile`]: CompiledCandidates::recompile
    anchor_cursor: Vec<u32>,
    alphabet_len: usize,
    max_level: usize,
}

impl CompiledCandidates {
    /// Compiles a candidate set over an alphabet of `alphabet_len` symbols.
    ///
    /// # Panics
    /// When the set exceeds the `u32`-indexed layout: more than `u32::MAX`
    /// episodes, or more than `u32::MAX` items in total.
    pub fn compile(alphabet_len: usize, episodes: &[Episode]) -> Self {
        let mut c = CompiledCandidates::default();
        c.recompile(alphabet_len, episodes);
        c
    }

    /// Rebuilds the compiled layout in place, reusing every buffer's capacity.
    ///
    /// # Panics
    /// As [`compile`]. The limits are checked before any buffer is touched.
    ///
    /// [`compile`]: CompiledCandidates::compile
    pub fn recompile(&mut self, alphabet_len: usize, episodes: &[Episode]) {
        self.recompile_capped(alphabet_len, episodes, u32::MAX);
    }

    /// [`recompile`] against an artificial layout cap, so the panic is
    /// testable without a 4 GiB allocation.
    ///
    /// [`recompile`]: CompiledCandidates::recompile
    fn recompile_capped(&mut self, alphabet_len: usize, episodes: &[Episode], cap: u32) {
        let total: usize = episodes.iter().map(|e| e.items().len()).sum();
        check_layout(episodes.len(), total, cap);
        self.items.clear();
        self.offsets.clear();
        self.repeated.clear();
        self.max_level = 0;

        self.offsets.push(0);
        for (i, ep) in episodes.iter().enumerate() {
            let it = ep.items();
            debug_assert!(it.iter().all(|&s| (s as usize) < alphabet_len));
            self.items.extend_from_slice(it);
            self.offsets.push(self.items.len() as u32);
            self.max_level = self.max_level.max(it.len());
            if !ep.has_distinct_items() {
                self.repeated.push(i as u32);
            }
        }
        self.index_anchors(alphabet_len);
    }

    /// Rebuilds the layout in place from equal-length rows of `level` items
    /// laid end to end in `items` — one level of the mining loop's candidate
    /// lattice, compiled without an [`Episode`] per row. Row `r` becomes
    /// compiled episode `r`, at offset `r · level`; `repeated` lists the rows
    /// that repeat an item, ascending, and the rows anchored at symbol `c`
    /// are `anchors[c]..anchors[c + 1]` (the lattice keeps both).
    ///
    /// The rows must be sorted by first item, as lattice rows are (they are
    /// in lexicographic order): each symbol's anchored rows are then one run
    /// in row order, which is exactly where the counting sort of
    /// [`recompile`] would leave them, so the anchor index is the runs as
    /// given and nothing is sorted or inspected per row.
    ///
    /// # Panics
    /// When the rows exceed the `u32`-indexed layout (as [`recompile`]).
    ///
    /// [`recompile`]: CompiledCandidates::recompile
    pub(crate) fn recompile_rows(
        &mut self,
        alphabet_len: usize,
        level: usize,
        items: &[u8],
        repeated: &[u32],
        anchors: &[u32],
    ) {
        let rows = items.len() / level;
        check_layout(rows, items.len(), u32::MAX);
        debug_assert!(items.iter().all(|&s| (s as usize) < alphabet_len));
        debug_assert_eq!(anchors.len(), alphabet_len + 1);
        debug_assert!(items
            .chunks_exact(level)
            .enumerate()
            .all(|(r, row)| distinct_items(row) != repeated.binary_search(&(r as u32)).is_ok()));
        debug_assert!((0..alphabet_len).all(|c| {
            let run = anchors[c] as usize..anchors[c + 1] as usize;
            run.end <= rows && run.into_iter().all(|r| items[r * level] as usize == c)
        }));
        debug_assert_eq!(anchors[alphabet_len] as usize, rows);
        self.items.clear();
        self.items.extend_from_slice(items);
        self.offsets.clear();
        self.offsets
            .extend((0..=rows as u32).map(|r| r * level as u32));
        self.repeated.clear();
        self.repeated.extend_from_slice(repeated);
        self.max_level = if rows == 0 { 0 } else { level };
        self.alphabet_len = alphabet_len;
        self.anchor_offsets.clear();
        self.anchor_offsets.extend_from_slice(anchors);
        self.anchor_episodes.clear();
        self.anchor_episodes.extend(0..rows as u32);
    }

    /// Builds the anchor index over the compiled episodes: a counting sort
    /// of episode indices by first item.
    fn index_anchors(&mut self, alphabet_len: usize) {
        self.alphabet_len = alphabet_len;
        let episodes = self.len();
        self.anchor_offsets.clear();
        self.anchor_offsets.resize(alphabet_len + 1, 0);
        for i in 0..episodes {
            let first = self.items[self.offsets[i] as usize] as usize;
            self.anchor_offsets[first + 1] += 1;
        }
        for c in 0..alphabet_len {
            self.anchor_offsets[c + 1] += self.anchor_offsets[c];
        }
        self.anchor_episodes.clear();
        self.anchor_episodes.resize(episodes, 0);
        self.anchor_cursor.clear();
        self.anchor_cursor
            .extend_from_slice(&self.anchor_offsets[..alphabet_len]);
        for i in 0..episodes {
            let first = self.items[self.offsets[i] as usize] as usize;
            self.anchor_episodes[self.anchor_cursor[first] as usize] = i as u32;
            self.anchor_cursor[first] += 1;
        }
    }

    /// Number of compiled episodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// True when the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The longest episode level in the set (0 when empty).
    #[inline]
    pub fn max_level(&self) -> usize {
        self.max_level
    }

    /// Alphabet size the set was compiled against.
    #[inline]
    pub fn alphabet_len(&self) -> usize {
        self.alphabet_len
    }

    /// True when every episode has distinct items (the paper's permutation
    /// universe) — the regime where the boundary-continuation scheme is exact.
    #[inline]
    pub fn all_distinct(&self) -> bool {
        self.repeated.is_empty()
    }

    /// Items of episode `i`.
    #[inline]
    pub fn items_of(&self, i: usize) -> &[u8] {
        &self.items[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Episode indices anchored at symbol `c` (first item equals `c`).
    #[inline]
    pub fn anchored_at(&self, c: u8) -> &[u32] {
        let c = c as usize;
        &self.anchor_episodes[self.anchor_offsets[c] as usize..self.anchor_offsets[c + 1] as usize]
    }

    /// Single-pass active-set scan of `stream[range]` from the start state,
    /// adding completions into `counts` (indexed by episode). The FSM states at
    /// the end of the range remain in `scratch.state` (non-zero = live partial
    /// match at the segment boundary).
    ///
    /// This is the workhorse of both the sequential [`count`] and each
    /// sharded worker's map step.
    ///
    /// [`count`]: CompiledCandidates::count
    pub fn scan_range(
        &self,
        stream: &[u8],
        range: std::ops::Range<usize>,
        scratch: &mut CountScratch,
        counts: &mut [u64],
    ) {
        self.scan_episode_range(stream, range, 0..self.len(), scratch, counts);
    }

    /// Like [`scan_range`], but restricted to the candidate chunk
    /// `episodes` (a contiguous range of compiled episode indices): only
    /// chunk members may anchor, and `counts`, the scratch state, and the
    /// end states are all **chunk-local** (`counts.len() ==
    /// episodes.len()`, index `e - episodes.start`) — the per-chunk work is
    /// `O(chunk)`, not `O(total candidates)`.
    ///
    /// This is the borrowed-chunk view the candidate-sharded (MapReduce-style)
    /// executors scan — one compiled layout shared by every worker, no
    /// per-chunk clone or recompile.
    ///
    /// [`scan_range`]: CompiledCandidates::scan_range
    pub fn scan_episode_range(
        &self,
        stream: &[u8],
        range: std::ops::Range<usize>,
        episodes: std::ops::Range<usize>,
        scratch: &mut CountScratch,
        counts: &mut [u64],
    ) {
        debug_assert_eq!(counts.len(), episodes.len());
        debug_assert!(episodes.start <= episodes.end && episodes.end <= self.len());
        scratch.prepare(self, episodes.clone());
        self.scan_prepared(stream, range, episodes, scratch, counts);
    }

    /// Continues the whole-set scan `scratch` holds over `stream`, as if
    /// `stream` directly followed the last range it scanned: the FSM states
    /// and the active set carry over, so a stream scanned in consecutive
    /// pieces counts exactly what one scan of their concatenation counts,
    /// repeated-item episodes included. Only the repeated-item `last_step`
    /// guard resets, because its positions are range-local.
    ///
    /// `scratch` must come from a whole-set scan of this compiled set
    /// (`counts.len() == self.len()`); the appends of a
    /// [`StreamingSession`](crate::streaming::StreamingSession) run here.
    pub(crate) fn resume_scan(
        &self,
        stream: &[u8],
        scratch: &mut CountScratch,
        counts: &mut [u64],
    ) {
        debug_assert_eq!(counts.len(), self.len());
        debug_assert_eq!(scratch.state.len(), self.len());
        scratch.last_step.fill(u64::MAX);
        self.scan_prepared(stream, 0..stream.len(), 0..self.len(), scratch, counts);
    }

    /// The active-set loop of [`scan_episode_range`] over `stream[range]`,
    /// starting from the states, active set and anchor windows in `scratch`.
    ///
    /// [`scan_episode_range`]: CompiledCandidates::scan_episode_range
    #[inline]
    fn scan_prepared(
        &self,
        stream: &[u8],
        range: std::ops::Range<usize>,
        episodes: std::ops::Range<usize>,
        scratch: &mut CountScratch,
        counts: &mut [u64],
    ) {
        let ep_base = episodes.start;
        if self.is_empty() || range.is_empty() || episodes.is_empty() {
            return;
        }
        let (ep_lo, ep_hi) = (episodes.start as u32, episodes.end as u32);
        let CountScratch {
            state,
            last_step,
            active,
            next_active,
            anchor_window,
        } = scratch;
        // Distinct-item episodes can never re-anchor on the character that
        // completed or reset them (the completing character equals the LAST
        // item, the resetting one differs from the first), so the `last_step`
        // guard — and its per-step bookkeeping store — is only needed when the
        // set holds repeated-item episodes (in the chunk).
        let guard = self.repeated.iter().any(|&r| r >= ep_lo && r < ep_hi);

        for (pos, &c) in stream[range].iter().enumerate() {
            let pos = pos as u64;
            // Phase 1: step in-progress matches. The active set holds global
            // episode indices (for `items_of`); state/counts are chunk-local.
            for &ei in active.iter() {
                let e = ei as usize;
                let l = e - ep_base;
                let it = self.items_of(e);
                let j = state[l] as usize;
                if guard {
                    last_step[l] = pos;
                }
                if c == it[j] {
                    if j + 1 == it.len() {
                        counts[l] += 1;
                        state[l] = 0; // completed: leaves the active set
                    } else {
                        state[l] += 1;
                        next_active.push(ei);
                    }
                } else if c == it[0] {
                    state[l] = 1; // restart, stays active
                    next_active.push(ei);
                } else {
                    state[l] = 0; // reset: leaves the active set
                }
            }
            std::mem::swap(active, next_active);
            next_active.clear();

            // Phase 2: anchor fresh matches. Only state-0 episodes that did not
            // already consume this character in phase 1 may anchor.
            let (wlo, whi) = anchor_window[c as usize];
            let base = self.anchor_offsets[c as usize] as usize;
            for &ei in &self.anchor_episodes[base + wlo as usize..base + whi as usize] {
                let e = ei as usize;
                let l = e - ep_base;
                if state[l] == 0 && (!guard || last_step[l] != pos) {
                    if self.offsets[e + 1] - self.offsets[e] == 1 {
                        counts[l] += 1; // level-1 episodes complete on anchor
                    } else {
                        state[l] = 1;
                        active.push(ei);
                    }
                }
            }
        }
    }

    /// Counts every compiled episode over the whole stream with a single
    /// active-set pass — observationally identical to
    /// [`crate::count::count_episodes_naive`] for any episodes, without any
    /// per-call index construction.
    pub fn count(&self, stream: &[u8], scratch: &mut CountScratch) -> Vec<u64> {
        let mut counts = vec![0u64; self.len()];
        self.scan_range(stream, 0..stream.len(), scratch, &mut counts);
        counts
    }

    /// Segmented count over arbitrary cut positions (non-decreasing, in
    /// `0..=stream.len()`), sequentially: per-segment active-set map step,
    /// advance-only boundary continuations (paper Fig. 5), exact-composition
    /// fallback for repeated-item episodes. Equals the sequential count for
    /// every segmentation: the sequential reference for the sharded
    /// executors, which run the same map and reduce steps
    /// ([`shard_scan`] / [`merge_shard_counts`]) on a session's pool.
    ///
    /// [`shard_scan`]: CompiledCandidates::shard_scan
    /// [`merge_shard_counts`]: CompiledCandidates::merge_shard_counts
    pub fn count_with_bounds(
        &self,
        stream: &[u8],
        bounds: &[usize],
        scratch: &mut CountScratch,
    ) -> Vec<u64> {
        let n = stream.len();
        let mut counts = vec![0u64; self.len()];
        let mut start = 0usize;
        for &b in bounds.iter().chain(std::iter::once(&n)) {
            debug_assert!(b >= start && b <= n);
            self.scan_range(stream, start..b, scratch, &mut counts);
            if b < n {
                self.fix_boundary(stream, b, &scratch.state, &mut counts);
            }
            start = b;
        }
        self.apply_exact_fallback(stream, bounds, &mut counts);
        counts
    }

    /// Picks the estimated-cheapest counting strategy for this set over the
    /// indexed stream — the per-level dispatch rule of the engine-auto
    /// executor ([`crate::miner::AutoBackend`]).
    ///
    /// The cost model (in comparable "simple op" units):
    ///
    /// * **vertical** — level-1 and distinct level-2 episodes are one index
    ///   read (a list length, a pair-table cell); a set with a distinct
    ///   level-2 row also pays the table's one pass (`n + σ²`) while the index
    ///   holds no table yet; longer distinct episodes pay ~3 ops per
    ///   occurrence of their *rarest* item; repeated-item episodes pay a full
    ///   FSM scan of the stream.
    /// * **bitmask** — ~2 ops of per-character overhead plus ~10 ops per
    ///   stepped word: each symbol occurrence steps the words anchored at it
    ///   (and roughly as many live words again); repeated-item episodes pay a
    ///   full FSM scan of the stream.
    ///
    /// [`StrategyCosts::cheapest`] compares the two. A set whose level
    /// exceeds a 64-bit lane prices the bitmask at infinity, so it counts
    /// vertically; an empty set costs nothing vertically and is a vertical
    /// loop over no rows. A set of pure table reads (no row longer than two
    /// items or repeating one) is priced in O(σ): one per row, plus the
    /// table's pass while unbuilt, is the row walk's sum in closed form.
    pub fn choose_strategy(&self, index: &OccurrenceIndex) -> CountStrategy {
        self.strategy_costs(index).cheapest().0
    }

    /// The cost model behind [`choose_strategy`], exposed so serve-time
    /// dispatch (CPU class vs a GPU pipeline, `tdm-gpu`'s dispatch model) can
    /// reason in the same comparable "simple op" units instead of inventing a
    /// second model. Sets too long for a 64-bit lane report an infinite
    /// bitmask cost (that strategy does not exist for them).
    ///
    /// [`choose_strategy`]: CompiledCandidates::choose_strategy
    pub fn strategy_costs(&self, index: &OccurrenceIndex) -> StrategyCosts {
        let n = index.stream_len() as f64;
        let fallback_cost = 2.0 * n * self.repeated.len() as f64;

        let mut vertical = fallback_cost;
        let reads_pairs = if self.reads_only_tables() {
            // Every row is one read, and a two-item row exists iff the
            // longest has two items: the row walk's sum in closed form.
            vertical += self.len() as f64;
            self.max_level == 2
        } else {
            let mut reads_pairs = false;
            for e in 0..self.len() {
                if self.is_repeated(e) {
                    continue;
                }
                let items = self.items_of(e);
                if items.len() <= 2 {
                    vertical += 1.0;
                    reads_pairs |= items.len() == 2;
                } else {
                    let rarest = items.iter().map(|&c| index.occ_len(c)).min().unwrap_or(0);
                    vertical += 3.0 * rarest as f64;
                }
            }
            reads_pairs
        };
        if reads_pairs && !index.has_pairs() {
            let sigma = index.alphabet_len() as f64;
            vertical += n + sigma * sigma;
        }

        if self.max_level > 64 {
            return StrategyCosts {
                vertical,
                bitmask: f64::INFINITY,
            };
        }
        let lanes = (64 / self.max_level.max(1)).max(1);
        let mut bitmask = 2.0 * n + fallback_cost;
        for c in 0..self.alphabet_len {
            let anchored = self.anchored_at(c as u8);
            let repeated = if self.repeated.is_empty() {
                0
            } else {
                anchored
                    .iter()
                    .filter(|&&e| self.is_repeated(e as usize))
                    .count()
            };
            let words = (anchored.len() - repeated).div_ceil(lanes) as f64;
            bitmask += 10.0 * 2.0 * words * index.occ_len(c as u8) as f64;
        }

        StrategyCosts { vertical, bitmask }
    }

    /// Counts with the estimated-best strategy ([`choose_strategy`]) on one
    /// thread: the sessionless serial dispatcher (e.g. `tdm-gpu`'s reference
    /// counts). Builds the [`OccurrenceIndex`] itself; a
    /// [`MiningSession`](crate::session::MiningSession) caches the index
    /// across levels and runs the same choice, in parallel, through
    /// [`AutoBackend`](crate::miner::AutoBackend).
    ///
    /// Bit-identical to [`count`](CompiledCandidates::count) for every
    /// episode set.
    ///
    /// [`choose_strategy`]: CompiledCandidates::choose_strategy
    pub fn count_best(&self, stream: &[u8]) -> Vec<u64> {
        let index = OccurrenceIndex::build(self.alphabet_len.max(1), stream);
        self.count_serial(self.choose_strategy(&index), stream, &index)
    }

    /// Counts with `strategy` on the calling thread over the indexed
    /// `stream`: the serial runner behind [`count_best`] and
    /// [`AutoBackend`](crate::miner::AutoBackend)'s unsplit levels.
    ///
    /// [`count_best`]: CompiledCandidates::count_best
    pub(crate) fn count_serial(
        &self,
        strategy: CountStrategy,
        stream: &[u8],
        index: &OccurrenceIndex,
    ) -> Vec<u64> {
        match strategy {
            CountStrategy::Vertical => self.count_vertical(stream, index),
            CountStrategy::Bitmask => self.packed().count(stream),
        }
    }

    /// The word-packed form of a set [`choose_strategy`] sent to the
    /// bitmask, which it does only for sets a 64-bit lane holds.
    ///
    /// [`choose_strategy`]: CompiledCandidates::choose_strategy
    pub(crate) fn packed(&self) -> BitmaskNfa {
        BitmaskNfa::build(self).expect("the bitmask is chosen only for levels of at most 64 items")
    }

    /// The reduce step of a database-sharded count: sums per-segment partial
    /// counts, resolves each interior boundary's live partials with
    /// advance-only continuations (paper Fig. 5), and applies the exact
    /// state-composition fallback for repeated-item episodes.
    ///
    /// `shards[w]` is segment `w`'s `(partial counts, FSM end states)` as
    /// produced by [`shard_scan`] / [`scan_range`] over the segmentation
    /// `bounds` (one more shard than bounds). Callers that run the map step on
    /// their own worker pool (the `MiningSession` path) use this to finish the
    /// count without re-implementing the boundary scheme.
    ///
    /// # Panics
    /// When `shards.len() != bounds.len() + 1` — a malformed segmentation
    /// would otherwise return silently wrong counts.
    ///
    /// [`shard_scan`]: CompiledCandidates::shard_scan
    /// [`scan_range`]: CompiledCandidates::scan_range
    pub fn merge_shard_counts(
        &self,
        stream: &[u8],
        bounds: &[usize],
        shards: &[(Vec<u64>, Vec<u8>)],
    ) -> Vec<u64> {
        assert_eq!(
            shards.len(),
            bounds.len() + 1,
            "one shard per segment: {} bounds need {} shards, got {}",
            bounds.len(),
            bounds.len() + 1,
            shards.len()
        );
        let mut counts = vec![0u64; self.len()];
        for (seg_counts, _) in shards {
            for (t, &c) in counts.iter_mut().zip(seg_counts.iter()) {
                *t += c;
            }
        }
        for (w, &b) in bounds.iter().enumerate() {
            self.fix_boundary(stream, b, &shards[w].1, &mut counts);
        }
        self.apply_exact_fallback(stream, bounds, &mut counts);
        counts
    }

    /// One database shard's map step, using this worker thread's persistent
    /// scratch: scans `stream[range]` from the start state and returns the
    /// partial counts plus the FSM end states the reduce step
    /// ([`merge_shard_counts`]) needs for boundary continuations.
    ///
    /// Designed for persistent-pool workers: the thread-local scratch stays
    /// warm across every call the worker serves, so the steady-state
    /// allocation cost is just the returned vectors.
    ///
    /// [`merge_shard_counts`]: CompiledCandidates::merge_shard_counts
    pub fn shard_scan(&self, stream: &[u8], range: std::ops::Range<usize>) -> (Vec<u64>, Vec<u8>) {
        with_thread_scratch(|scratch| {
            let mut counts = vec![0u64; self.len()];
            self.scan_range(stream, range, scratch, &mut counts);
            (counts, scratch.state.clone())
        })
    }

    /// One candidate chunk's map step, using this worker thread's persistent
    /// scratch: scans the whole stream for the compiled episodes
    /// `chunk` only and returns *their* counts (length `chunk.len()`,
    /// chunk-local order). Concatenating the chunks in order restores the full
    /// candidate order — the candidate-sharded executors' reduce step.
    pub fn chunk_scan(&self, stream: &[u8], chunk: std::ops::Range<usize>) -> Vec<u64> {
        with_thread_scratch(|scratch| {
            let mut counts = vec![0u64; chunk.len()];
            self.scan_episode_range(stream, 0..stream.len(), chunk, scratch, &mut counts);
            counts
        })
    }

    /// Resolves one interior boundary: every episode with a live end state gets
    /// its advance-only continuation scanned past `boundary`.
    fn fix_boundary(&self, stream: &[u8], boundary: usize, end_states: &[u8], counts: &mut [u64]) {
        for (e, &st) in end_states.iter().enumerate() {
            if st > 0 {
                counts[e] += continuation_count_items(stream, self.items_of(e), st, boundary);
            }
        }
    }

    /// Replaces the (possibly inconsistent) continuation-scheme counts of
    /// repeated-item episodes with the exact state-composition count over the
    /// same segmentation.
    fn apply_exact_fallback(&self, stream: &[u8], bounds: &[usize], counts: &mut [u64]) {
        for &ei in &self.repeated {
            let e = ei as usize;
            counts[e] = count_segmented_exact_items(stream, self.items_of(e), bounds);
        }
    }
}

/// Reusable mutable state for [`CompiledCandidates`] scans.
///
/// Holding one of these across `count` calls (as the counting backends do)
/// means the per-scan vectors are allocated once and then only grown — the
/// level-wise miner pays zero steady-state allocation for the scan state.
#[derive(Debug, Clone, Default)]
pub struct CountScratch {
    /// FSM state per episode (0 = start). After a scan, non-zero entries mark
    /// live partial matches at the end of the scanned range.
    pub(crate) state: Vec<u8>,
    /// Segment-local position of each episode's last phase-1 step (repeated-item
    /// guard; untouched for all-distinct sets).
    last_step: Vec<u64>,
    /// Indices of episodes with non-zero state (the active set).
    active: Vec<u32>,
    /// Double buffer for the active set.
    next_active: Vec<u32>,
    /// Per-symbol anchor-bucket windows of the episode chunk being scanned
    /// (whole buckets for unrestricted scans). Rebuilt per scan, reusing
    /// capacity.
    anchor_window: Vec<(u32, u32)>,
}

thread_local! {
    static THREAD_SCRATCH: std::cell::RefCell<CountScratch> =
        std::cell::RefCell::new(CountScratch::new());
}

/// Runs `f` with this thread's persistent [`CountScratch`].
///
/// Pool workers (and any other long-lived thread) get scan scratch that is
/// allocated once per thread and then only grows — the per-call allocation
/// profile of holding a scratch in a struct, without having to thread one
/// through `'static` job closures.
pub fn with_thread_scratch<R>(f: impl FnOnce(&mut CountScratch) -> R) -> R {
    THREAD_SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

impl CountScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        CountScratch::default()
    }

    /// FSM end states of the most recent scan (one per episode).
    pub fn end_states(&self) -> &[u8] {
        &self.state
    }

    /// Resets for a scan of `compiled`'s episode chunk `episodes` from the
    /// start state, reusing capacity.
    fn prepare(&mut self, compiled: &CompiledCandidates, episodes: std::ops::Range<usize>) {
        let n_eps = episodes.len();
        self.state.clear();
        self.state.resize(n_eps, 0);
        self.last_step.clear();
        self.last_step.resize(n_eps, u64::MAX);
        self.active.clear();
        self.next_active.clear();
        let (ep_lo, ep_hi) = (episodes.start as u32, episodes.end as u32);
        let whole_set = ep_lo == 0 && ep_hi as usize == compiled.len();
        // Per-symbol anchor-bucket windows restricted to the chunk. Bucket
        // entries are ascending (counting sort preserves episode order), so the
        // chunk members form one contiguous sub-slice per bucket.
        self.anchor_window.clear();
        for c in 0..compiled.alphabet_len {
            let bucket = &compiled.anchor_episodes
                [compiled.anchor_offsets[c] as usize..compiled.anchor_offsets[c + 1] as usize];
            let (lo, hi) = if whole_set {
                (0, bucket.len() as u32)
            } else {
                (
                    bucket.partition_point(|&e| e < ep_lo) as u32,
                    bucket.partition_point(|&e| e < ep_hi) as u32,
                )
            };
            self.anchor_window.push((lo, hi));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Alphabet;
    use crate::candidate::permutations;
    use crate::count::count_episodes_naive;
    use crate::sequence::EventDb;
    use proptest::prelude::*;

    fn db_of(s: &str) -> EventDb {
        EventDb::from_str_symbols(&Alphabet::latin26(), s).unwrap()
    }

    fn eps_of(specs: &[&str]) -> Vec<Episode> {
        let ab = Alphabet::latin26();
        specs
            .iter()
            .map(|s| Episode::from_str(&ab, s).unwrap())
            .collect()
    }

    #[test]
    fn csr_layout_round_trips() {
        let eps = eps_of(&["AB", "Q", "CAB", "AZ"]);
        let c = CompiledCandidates::compile(26, &eps);
        assert_eq!(c.len(), 4);
        assert_eq!(c.max_level(), 3);
        assert_eq!(c.alphabet_len(), 26);
        for (i, ep) in eps.iter().enumerate() {
            assert_eq!(c.items_of(i), ep.items());
        }
        // Anchor index: episodes 0 and 3 start with A, 1 with Q, 2 with C.
        assert_eq!(c.anchored_at(0), &[0, 3]);
        assert_eq!(c.anchored_at(b'Q' - b'A'), &[1]);
        assert_eq!(c.anchored_at(b'C' - b'A'), &[2]);
        assert_eq!(c.anchored_at(b'Z' - b'A'), &[] as &[u32]);
        assert!(c.all_distinct());
    }

    #[test]
    fn capped_compile_surfaces_typed_errors() {
        // The panic message of a capped recompile over `eps`.
        let panic_of = |eps: &[Episode], cap: u32| {
            let mut c = CompiledCandidates::compile(26, &eps_of(&["AB", "BC"]));
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                c.recompile_capped(26, eps, cap)
            }))
            .expect_err("a set past the cap must panic");
            payload
                .downcast_ref::<String>()
                .cloned()
                .expect("a formatted panic message")
        };

        // 5 single-item episodes against an episode cap of 4.
        let five = eps_of(&["A", "B", "C", "D", "E"]);
        let message = panic_of(&five, 4);
        assert!(message.contains("5 episodes, limit 4"), "{message}");
        // 2 episodes × 3 items = 6 total items against an item cap of 5.
        let chunky = eps_of(&["ABC", "DEF"]);
        let message = panic_of(&chunky, 5);
        assert!(message.contains("6 total items, limit 5"), "{message}");

        // At the cap exactly, compilation succeeds.
        let mut c = CompiledCandidates::default();
        c.recompile_capped(26, &chunky, 6);
        assert_eq!(c.len(), 2);
        assert_eq!(c.items_of(1), chunky[1].items());
    }

    #[test]
    fn strategy_dispatch_picks_a_probing_strategy_and_counts_identically() {
        let db = db_of(&"ABCABZQXABC".repeat(60));
        let idx = OccurrenceIndex::build(26, db.symbols());
        let mut scratch = CountScratch::new();

        // Empty set: costs nothing vertically, a loop over no rows.
        let none = CompiledCandidates::compile(26, &[]);
        assert_eq!(none.choose_strategy(&idx), CountStrategy::Vertical);
        assert!(none.count_best(db.symbols()).is_empty());

        // Level-1 sets are free with occurrence lists.
        let l1 = CompiledCandidates::compile(26, &permutations(&Alphabet::latin26(), 1));
        assert_eq!(l1.choose_strategy(&idx), CountStrategy::Vertical);
        assert_eq!(
            l1.count_best(db.symbols()),
            l1.count(db.symbols(), &mut scratch)
        );

        // The dense level-2 universe reads the pair table, which costs one
        // stream pass until the index holds it and nothing after.
        let full = db_of(&"ABCDEFGHIJKLMNOPQRSTUVWXYZ".repeat(30));
        let idx_full = OccurrenceIndex::build(26, full.symbols());
        let l2 = CompiledCandidates::compile(26, &permutations(&Alphabet::latin26(), 2));
        assert_eq!(l2.choose_strategy(&idx_full), CountStrategy::Vertical);
        let cold = l2.strategy_costs(&idx_full).vertical;
        assert_eq!(
            l2.count_vertical(full.symbols(), &idx_full),
            l2.count(full.symbols(), &mut scratch)
        );
        assert_eq!(l2.strategy_costs(&idx_full).vertical, cold - 780.0 - 676.0);
        assert_eq!(
            l2.count_best(db.symbols()),
            l2.count(db.symbols(), &mut scratch)
        );

        // Over a stream that uses the whole alphabet, the dense level-3
        // universe has no rare symbol to probe, while the word-packed scan
        // steps about one word per character: bitmask.
        let l3 = CompiledCandidates::compile(26, &permutations(&Alphabet::latin26(), 3));
        assert_eq!(l3.choose_strategy(&idx_full), CountStrategy::Bitmask);
        assert_eq!(
            l3.count_best(full.symbols()),
            l3.count(full.symbols(), &mut scratch)
        );
        // Against the sparse stream the same set probes its (many) empty
        // occurrence lists instead.
        assert_eq!(l3.choose_strategy(&idx), CountStrategy::Vertical);
        assert_eq!(
            l3.count_best(db.symbols()),
            l3.count(db.symbols(), &mut scratch)
        );

        // Levels beyond a 64-bit lane cannot pack: vertical.
        let long = Episode::new((0..70u8).collect::<Vec<_>>()).unwrap();
        let l70 = CompiledCandidates::compile(80, &[long]);
        let idx80 = OccurrenceIndex::build(80, &[0, 1, 2]);
        assert_eq!(l70.choose_strategy(&idx80), CountStrategy::Vertical);
        assert_eq!(l70.count_best(&[0, 1, 2]), vec![0]);

        // Mixed sets with repeats stay bit-identical through dispatch.
        let mixed = CompiledCandidates::compile(26, &eps_of(&["AB", "ABA", "AAB", "Q"]));
        assert_eq!(
            mixed.count_best(db.symbols()),
            mixed.count(db.symbols(), &mut scratch)
        );
    }

    #[test]
    fn repeated_items_detected() {
        let c = CompiledCandidates::compile(26, &eps_of(&["AB", "ABA"]));
        assert!(!c.all_distinct());
        assert_eq!(c.repeated, vec![1]);
    }

    #[test]
    fn recompile_reuses_buffers_without_reallocating() {
        let big = permutations(&Alphabet::latin26(), 2);
        let small = eps_of(&["AB", "BC"]);
        let mut c = CompiledCandidates::compile(26, &big);
        let caps = (
            c.items.capacity(),
            c.offsets.capacity(),
            c.anchor_offsets.capacity(),
            c.anchor_episodes.capacity(),
        );
        let ptrs = (c.items.as_ptr(), c.anchor_episodes.as_ptr());
        c.recompile(26, &small);
        assert_eq!(c.len(), 2);
        assert_eq!(
            caps,
            (
                c.items.capacity(),
                c.offsets.capacity(),
                c.anchor_offsets.capacity(),
                c.anchor_episodes.capacity(),
            )
        );
        assert_eq!(ptrs, (c.items.as_ptr(), c.anchor_episodes.as_ptr()));
        let db = db_of("ABCABC");
        let mut scratch = CountScratch::new();
        assert_eq!(
            c.count(db.symbols(), &mut scratch),
            count_episodes_naive(&db, &small)
        );
    }

    #[test]
    fn compiled_count_matches_naive() {
        let db = db_of("ABCABCABZZQABC");
        let eps = eps_of(&["A", "AB", "ABC", "CBA", "ZQ", "QZ", "BCA", "AA", "ABA"]);
        let c = CompiledCandidates::compile(26, &eps);
        let mut scratch = CountScratch::new();
        assert_eq!(
            c.count(db.symbols(), &mut scratch),
            count_episodes_naive(&db, &eps)
        );
    }

    #[test]
    fn scratch_is_reusable_across_sets_of_different_sizes() {
        let db = db_of(&"ABCXYZ".repeat(40));
        let mut scratch = CountScratch::new();
        for level in [1usize, 2, 3] {
            let eps = permutations(&Alphabet::latin26(), level);
            let c = CompiledCandidates::compile(26, &eps);
            assert_eq!(
                c.count(db.symbols(), &mut scratch),
                count_episodes_naive(&db, &eps),
                "level {level}"
            );
        }
    }

    #[test]
    fn empty_inputs() {
        let c = CompiledCandidates::compile(26, &[]);
        let mut scratch = CountScratch::new();
        assert!(c.count(&[], &mut scratch).is_empty());
        let c2 = CompiledCandidates::compile(26, &eps_of(&["AB"]));
        assert_eq!(c2.count(&[], &mut scratch), vec![0]);
    }

    #[test]
    fn chunk_scans_concatenate_to_the_full_count() {
        let db = db_of(&"ABCABZQXABC".repeat(40));
        let eps = eps_of(&["A", "AB", "ABC", "ZQ", "QZ", "BCA", "AA", "ABA", "X"]);
        let c = CompiledCandidates::compile(26, &eps);
        let expected = count_episodes_naive(&db, &eps);
        for chunks in [1usize, 2, 3, 4, eps.len()] {
            let size = eps.len().div_ceil(chunks);
            let mut got = Vec::new();
            let mut lo = 0;
            while lo < eps.len() {
                let hi = (lo + size).min(eps.len());
                got.extend(c.chunk_scan(db.symbols(), lo..hi));
                lo = hi;
            }
            assert_eq!(got, expected, "chunks={chunks}");
        }
        // Empty chunk touches nothing.
        assert!(c.chunk_scan(db.symbols(), 3..3).is_empty());
    }

    #[test]
    fn shard_scan_plus_merge_equals_sequential() {
        let text: String = (0..6000u32)
            .map(|i| char::from(b'A' + ((i.wrapping_mul(2654435761) >> 9) % 26) as u8))
            .collect();
        let db = db_of(&text);
        let eps = eps_of(&["AB", "BA", "QXZ", "A", "ABA"]);
        let c = CompiledCandidates::compile(26, &eps);
        let mut scratch = CountScratch::new();
        let expected = c.count(db.symbols(), &mut scratch);
        for parts in [2usize, 3, 5] {
            let bounds = crate::segment::even_bounds(db.len(), parts);
            let shards: Vec<(Vec<u64>, Vec<u8>)> =
                crate::segment::segment_ranges(db.len(), &bounds)
                    .into_iter()
                    .map(|r| c.shard_scan(db.symbols(), r))
                    .collect();
            assert_eq!(
                c.merge_shard_counts(db.symbols(), &bounds, &shards),
                expected,
                "parts={parts}"
            );
        }
    }

    proptest! {
        /// Arbitrary cut positions (the adversarial segmentations a sharded run
        /// could produce) preserve counts for arbitrary episode sets — repeats
        /// included, thanks to the exact-composition fallback.
        #[test]
        fn bounded_count_equals_naive(
            data in proptest::collection::vec(0u8..6, 0..400),
            eps in proptest::collection::vec(proptest::collection::vec(0u8..6, 1..5), 1..25),
            cuts in proptest::collection::vec(0usize..400, 0..8),
        ) {
            let ab = Alphabet::numbered(6).unwrap();
            let n = data.len();
            let db = EventDb::new(ab, data).unwrap();
            let episodes: Vec<Episode> =
                eps.into_iter().map(|v| Episode::new(v).unwrap()).collect();
            let c = CompiledCandidates::compile(6, &episodes);
            let mut bounds: Vec<usize> = cuts.into_iter().map(|x| x % (n + 1)).collect();
            bounds.sort_unstable();
            let mut scratch = CountScratch::new();
            prop_assert_eq!(
                c.count_with_bounds(db.symbols(), &bounds, &mut scratch),
                count_episodes_naive(&db, &episodes)
            );
        }

        /// Chunked (candidate-sharded) scans concatenate to the full count for
        /// arbitrary inputs and arbitrary chunk granularity — repeats included
        /// (the chunk guard is per-chunk).
        #[test]
        fn chunked_scan_equals_naive(
            data in proptest::collection::vec(0u8..6, 0..300),
            eps in proptest::collection::vec(proptest::collection::vec(0u8..6, 1..5), 1..20),
            size in 1usize..8,
        ) {
            let ab = Alphabet::numbered(6).unwrap();
            let db = EventDb::new(ab, data).unwrap();
            let episodes: Vec<Episode> =
                eps.into_iter().map(|v| Episode::new(v).unwrap()).collect();
            let c = CompiledCandidates::compile(6, &episodes);
            let mut got = Vec::new();
            let mut lo = 0;
            while lo < episodes.len() {
                let hi = (lo + size).min(episodes.len());
                got.extend(c.chunk_scan(db.symbols(), lo..hi));
                lo = hi;
            }
            prop_assert_eq!(got, count_episodes_naive(&db, &episodes));
        }

        /// The compiled sequential scan is observationally identical to the
        /// per-episode FSM reference for arbitrary inputs.
        #[test]
        fn compiled_scan_equals_naive(
            data in proptest::collection::vec(0u8..6, 0..400),
            eps in proptest::collection::vec(proptest::collection::vec(0u8..6, 1..5), 1..25),
        ) {
            let ab = Alphabet::numbered(6).unwrap();
            let db = EventDb::new(ab, data).unwrap();
            let episodes: Vec<Episode> =
                eps.into_iter().map(|v| Episode::new(v).unwrap()).collect();
            let c = CompiledCandidates::compile(6, &episodes);
            let mut scratch = CountScratch::new();
            prop_assert_eq!(
                c.count(db.symbols(), &mut scratch),
                count_episodes_naive(&db, &episodes)
            );
        }

        /// Sorted lattice-shaped rows compiled by `recompile_rows` (offsets
        /// `r·k`, anchors left in row order as the caller's runs, the
        /// caller's repeat list) equal the same rows compiled from `Episode`s
        /// by `recompile`, over buffers that held another set before.
        #[test]
        fn sorted_rows_compile_like_the_same_episodes(
            sigma in 1usize..=64,
            level in 1usize..=4,
            raw in proptest::collection::vec(0u8..=255, 0..160),
            distinct_only in 0u8..2,
        ) {
            let mut rows: Vec<Vec<u8>> = raw
                .chunks_exact(level)
                .map(|row| row.iter().map(|&s| s % sigma as u8).collect())
                .collect();
            let episodes = |rows: &[Vec<u8>]| -> Vec<Episode> {
                rows.iter().map(|row| Episode::new(row.clone()).unwrap()).collect()
            };
            if distinct_only == 1 {
                rows.retain(|row| Episode::new(row.clone()).unwrap().has_distinct_items());
            }
            rows.sort();
            rows.dedup();
            let repeated: Vec<u32> = episodes(&rows)
                .iter()
                .enumerate()
                .filter(|(_, e)| !e.has_distinct_items())
                .map(|(r, _)| r as u32)
                .collect();
            let anchors: Vec<u32> = (0..=sigma)
                .map(|c| rows.partition_point(|row| (row[0] as usize) < c) as u32)
                .collect();
            let mut from_rows = CompiledCandidates::compile(64, &episodes(&[vec![63, 0, 63]]));
            from_rows.recompile_rows(sigma, level, &rows.concat(), &repeated, &anchors);
            let from_episodes = CompiledCandidates::compile(sigma, &episodes(&rows));
            prop_assert_eq!(from_rows.len(), rows.len());
            for (r, row) in rows.iter().enumerate() {
                prop_assert_eq!(from_rows.items_of(r), &row[..]);
                prop_assert_eq!(from_rows.items_of(r), from_episodes.items_of(r));
            }
            for c in 0..sigma as u8 {
                prop_assert_eq!(from_rows.anchored_at(c), from_episodes.anchored_at(c), "symbol {}", c);
            }
            prop_assert_eq!(from_rows.all_distinct(), from_episodes.all_distinct());
            prop_assert_eq!(from_rows.max_level(), from_episodes.max_level());
            prop_assert_eq!(from_rows.alphabet_len(), from_episodes.alphabet_len());
        }

        /// A level of pure table reads is priced in closed form, and the price
        /// is bit-for-bit the row walk's — so is the strategy chosen from it —
        /// for 1-item, 2-item and mixed sets, with the pair table built or not;
        /// sets with longer or repeated rows still walk their rows.
        #[test]
        fn closed_form_pricing_equals_the_row_walk(
            sigma in 1usize..=40,
            data in proptest::collection::vec(0u8..=255, 0..300),
            rows in proptest::collection::vec(proptest::collection::vec(0u8..=255, 1..4), 0..60),
            longest in 1usize..=3,
            table_built in 0u8..2,
        ) {
            let stream: Vec<u8> = data.iter().map(|&s| s % sigma as u8).collect();
            let episodes: Vec<Episode> = rows
                .iter()
                .map(|row| {
                    let row: Vec<u8> = row.iter().take(longest).map(|&s| s % sigma as u8).collect();
                    Episode::new(row).unwrap()
                })
                .collect();
            let compiled = CompiledCandidates::compile(sigma, &episodes);
            let index = OccurrenceIndex::build(sigma, &stream);
            if table_built == 1 {
                index.pairs(&stream);
            }
            let walked = row_walk_costs(&compiled, &index);
            prop_assert_eq!(compiled.strategy_costs(&index), walked);
            prop_assert_eq!(compiled.choose_strategy(&index), walked.cheapest().0);
        }
    }

    /// The cost model priced row by row: the reference that the closed form
    /// for a level of pure table reads must equal.
    fn row_walk_costs(c: &CompiledCandidates, index: &OccurrenceIndex) -> StrategyCosts {
        let n = index.stream_len() as f64;
        let fallback_cost = 2.0 * n * c.repeated.len() as f64;
        let mut vertical = fallback_cost;
        let mut reads_pairs = false;
        for e in 0..c.len() {
            if c.is_repeated(e) {
                continue;
            }
            let items = c.items_of(e);
            if items.len() <= 2 {
                vertical += 1.0;
                reads_pairs |= items.len() == 2;
            } else {
                let rarest = items.iter().map(|&s| index.occ_len(s)).min().unwrap_or(0);
                vertical += 3.0 * rarest as f64;
            }
        }
        if reads_pairs && !index.has_pairs() {
            let sigma = index.alphabet_len() as f64;
            vertical += n + sigma * sigma;
        }
        let lanes = (64 / c.max_level.max(1)).max(1);
        let mut bitmask = 2.0 * n + fallback_cost;
        for s in 0..c.alphabet_len {
            let anchored = c
                .anchored_at(s as u8)
                .iter()
                .filter(|&&e| !c.is_repeated(e as usize))
                .count();
            bitmask += 10.0 * 2.0 * anchored.div_ceil(lanes) as f64 * index.occ_len(s as u8) as f64;
        }
        StrategyCosts { vertical, bitmask }
    }
}
