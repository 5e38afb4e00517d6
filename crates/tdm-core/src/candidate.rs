//! Candidate episode generation — the "generation step" of the paper's
//! Algorithm 1, and the combinatorics of Table 1.
//!
//! The paper's candidate space at level `L` is the set of ordered `L`-tuples of
//! *distinct* symbols: `N! / (N - L)!` episodes (Table 1), giving 26 / 650 /
//! 15,600 candidates at levels 1–3 over the Latin alphabet. [`permutations`]
//! enumerates that space directly; [`apriori_join`] grows candidates
//! level-by-level from a surviving frequent set. The mining loop
//! ([`crate::session`]) runs the same join on a flat candidate lattice instead.

use crate::alphabet::{Alphabet, Symbol};
use crate::episode::Episode;

/// The number of distinct-item episodes of length `level` over an alphabet of
/// `n` symbols: `n! / (n - level)!` (paper Table 1). Returns `None` on overflow
/// or when `level > n`.
pub fn permutation_count(n: usize, level: usize) -> Option<u64> {
    if level > n {
        return Some(0);
    }
    let mut acc: u64 = 1;
    for k in 0..level {
        acc = acc.checked_mul((n - k) as u64)?;
    }
    Some(acc)
}

/// Enumerates every distinct-item episode of length `level` over the alphabet, in
/// lexicographic order — the paper's level-`L` candidate space.
///
/// # Panics
/// Panics when `level == 0` (episodes are non-empty by definition).
pub fn permutations(alphabet: &Alphabet, level: usize) -> Vec<Episode> {
    assert!(level > 0, "episode level must be at least 1");
    let n = alphabet.len();
    let expected =
        permutation_count(n, level).expect("candidate space too large to materialize") as usize;
    let mut out = Vec::with_capacity(expected);
    let mut current = Vec::with_capacity(level);
    let mut used = vec![false; n];
    fn rec(
        n: usize,
        level: usize,
        current: &mut Vec<u8>,
        used: &mut [bool],
        out: &mut Vec<Episode>,
    ) {
        if current.len() == level {
            out.push(Episode::new(current.clone()).expect("non-empty by construction"));
            return;
        }
        for s in 0..n {
            if !used[s] {
                used[s] = true;
                current.push(s as u8);
                rec(n, level, current, used, out);
                current.pop();
                used[s] = false;
            }
        }
    }
    rec(n, level, &mut current, &mut used, &mut out);
    debug_assert_eq!(out.len(), expected);
    out
}

/// All level-1 candidates (one per symbol).
pub fn level1(alphabet: &Alphabet) -> Vec<Episode> {
    alphabet
        .symbols()
        .map(|s| Episode::new(vec![s.0]).unwrap())
        .collect()
}

/// Apriori-style join: builds level `k+1` candidates from frequent level-`k`
/// episodes. `alpha = <a1..ak>` joins `beta = <b1..bk>` when `alpha`'s suffix
/// equals `beta`'s prefix, producing `<a1..ak, bk>`. With `distinct_only`, items
/// already in `alpha` are not appended (keeps the space inside the paper's
/// permutation universe).
///
/// The join includes the standard contiguous-subepisode prune: a candidate is
/// emitted only when both its prefix and suffix are frequent (which the join
/// guarantees by construction for serial episodes).
pub fn apriori_join(frequent: &[Episode], distinct_only: bool) -> Vec<Episode> {
    if frequent.is_empty() {
        return Vec::new();
    }
    let k = frequent[0].level();
    debug_assert!(frequent.iter().all(|e| e.level() == k));

    if k == 1 {
        // Level 1 -> 2: all ordered pairs of frequent singletons.
        let mut out = Vec::new();
        for a in frequent {
            for b in frequent {
                if distinct_only && a.items()[0] == b.items()[0] {
                    continue;
                }
                out.push(a.extended(Symbol(b.items()[0])));
            }
        }
        return out;
    }

    // Index by (k-1)-prefix for the suffix == prefix join.
    use std::collections::HashMap;
    let mut by_prefix: HashMap<&[u8], Vec<&Episode>> = HashMap::new();
    for e in frequent {
        by_prefix.entry(e.prefix().unwrap()).or_default().push(e);
    }

    let mut out = Vec::new();
    for a in frequent {
        let suffix = a.suffix().unwrap();
        if let Some(matches) = by_prefix.get(suffix) {
            for b in matches {
                let new_item = *b.items().last().unwrap();
                if distinct_only && a.items().contains(&new_item) {
                    continue;
                }
                out.push(a.extended(Symbol(new_item)));
            }
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// The flat candidate lattice behind the mining loop: one level of candidate
/// rows at a time, each linked to the two rows of the previous level it was
/// joined from.
///
/// * **Rows.** A level-`k` row holds `k` items. Its *prefix parent* is the
///   previous-level row holding its first `k − 1` items, its *suffix parent*
///   the one holding its last `k − 1`. Level 1 is one row per symbol, all
///   under one root. Rows stay in lexicographic order, so the rows that share
///   a prefix parent form one contiguous range, and `children` records those
///   ranges instead of a prefix id per row. The order is an invariant the
///   compile relies on: the rows anchored at one symbol (first item) are one
///   run in row order, so
///   [`recompile_rows`](crate::engine::CompiledCandidates::recompile_rows)
///   takes them as they are. A row's first item is its prefix parent's, so
///   the join finds the runs in O(σ): symbol `c`'s run is the children of
///   the previous level's run of `c`.
/// * **Repeats.** The join records the rows that repeat an item, ascending:
///   a row repeats exactly when its prefix parent does or its last item is
///   one of the parent's, so the compile never inspects a row for repeats.
/// * **Frequent flags.** [`narrow`](Lattice::narrow) flags each row frequent
///   or not; the join reads the flags.
/// * **The join.** [`join`](Lattice::join) pairs each frequent row `a` with
///   the frequent rows of the range whose prefix parent is `a`'s suffix
///   parent, and keeps the new row unless it repeats an item under
///   `distinct_items_only`. That is exactly [`apriori_join`] of the frequent
///   set, in the same order, with no hashing, sorting or allocation per
///   candidate.
#[derive(Debug)]
pub(crate) struct Lattice {
    level: usize,
    /// Row `r`'s items are `items[r * level..(r + 1) * level]`.
    items: Vec<u8>,
    /// Row `r`'s suffix parent, a row of the previous level.
    suffix: Vec<u32>,
    /// The rows whose prefix parent is previous-level row `p` are
    /// `children[p]..children[p + 1]`.
    children: Vec<u32>,
    /// Whether row `r` is frequent (false until [`narrow`](Lattice::narrow)).
    frequent: Vec<bool>,
    /// The rows that repeat an item, ascending.
    repeated: Vec<u32>,
    /// The rows anchored at symbol `c` (first item `c`) are
    /// `anchors[c]..anchors[c + 1]`.
    anchors: Vec<u32>,
    /// The rows [`narrow`](Lattice::narrow) flagged, ascending.
    hits: Vec<u32>,
}

impl Lattice {
    /// Level 1: one row per symbol of an `alphabet_len`-symbol alphabet, or
    /// no rows when the mine counts no level (`mining` false).
    pub(crate) fn singletons(alphabet_len: usize, mining: bool) -> Self {
        let rows = if mining { alphabet_len } else { 0 };
        Lattice {
            level: 1,
            items: (0..rows).map(|s| s as u8).collect(),
            suffix: vec![0; rows],
            children: vec![0, rows as u32],
            frequent: vec![false; rows],
            repeated: Vec::new(),
            anchors: (0..=alphabet_len).map(|c| c.min(rows) as u32).collect(),
            hits: Vec::new(),
        }
    }

    /// Number of rows (candidates) at this level.
    fn len(&self) -> usize {
        self.suffix.len()
    }

    /// True when this level has no candidate.
    pub(crate) fn is_empty(&self) -> bool {
        self.suffix.is_empty()
    }

    /// Items per row.
    pub(crate) fn level(&self) -> usize {
        self.level
    }

    /// Every row's items, laid end to end.
    pub(crate) fn items(&self) -> &[u8] {
        &self.items
    }

    /// The rows that repeat an item, ascending.
    pub(crate) fn repeated(&self) -> &[u32] {
        &self.repeated
    }

    /// The rows anchored at each symbol: symbol `c`'s are
    /// `anchors()[c]..anchors()[c + 1]`.
    pub(crate) fn anchors(&self) -> &[u32] {
        &self.anchors
    }

    /// The elimination step: flags each row `r` frequent or not by
    /// `frequent(r)`, and returns the frequent rows in order, each with its
    /// index and items.
    pub(crate) fn narrow(
        &mut self,
        frequent: impl Fn(usize) -> bool,
    ) -> impl Iterator<Item = (usize, &[u8])> {
        // Without a branch per row: frequent rows are few and scattered, so
        // a branch would mispredict on most of them.
        self.hits.clear();
        self.hits.resize(self.len(), 0);
        let mut hits = 0;
        for (r, flag) in self.frequent.iter_mut().enumerate() {
            *flag = frequent(r);
            self.hits[hits] = r as u32;
            hits += usize::from(*flag);
        }
        self.hits.truncate(hits);
        let (k, items) = (self.level, &self.items);
        self.hits.iter().map(move |&r| {
            let r = r as usize;
            (r, &items[r * k..(r + 1) * k])
        })
    }

    /// The generation step: replaces this level with the next one, joined
    /// from the frequent rows. With `distinct`, a candidate may not repeat
    /// an item.
    ///
    /// # Panics
    /// When the next level has more than `u32::MAX` rows.
    pub(crate) fn join(&mut self, distinct: bool) {
        let k = self.level;
        // At most every row of each joining row's range, so the buffers
        // never grow mid-join.
        let bound: usize = self
            .frequent
            .iter()
            .zip(&self.suffix)
            .filter(|&(&frequent, _)| frequent)
            .map(|(_, &s)| (self.children[s as usize + 1] - self.children[s as usize]) as usize)
            .sum();
        let mut items = Vec::with_capacity(bound * (k + 1));
        let mut suffix = Vec::with_capacity(bound);
        let mut children = Vec::with_capacity(self.len() + 1);
        let mut repeated = Vec::new();
        let row_id = |rows: usize| u32::try_from(rows).expect("lattice rows fit u32 ids");
        let mut repeats_ahead = self.repeated.iter().copied();
        let mut next_repeat = repeats_ahead.next();
        for (a, (items_a, &frequent_a)) in
            self.items.chunks_exact(k).zip(&self.frequent).enumerate()
        {
            children.push(row_id(suffix.len()));
            // A row joined from a repeating row repeats too: it holds all
            // of that row's items.
            let a_repeats = next_repeat == Some(a as u32);
            if a_repeats {
                next_repeat = repeats_ahead.next();
            }
            if !frequent_a {
                continue;
            }
            let s = self.suffix[a] as usize;
            let first = self.children[s] as usize;
            let flags = &self.frequent[first..self.children[s + 1] as usize];
            for (b, &frequent_b) in (first..).zip(flags) {
                let item = self.items[b * k + k - 1];
                let repeats = items_a.contains(&item);
                if !frequent_b || (repeats && distinct) {
                    continue;
                }
                if a_repeats || repeats {
                    repeated.push(row_id(suffix.len()));
                }
                // One extend of the whole row: a copy call per short prefix
                // costs more than the row.
                items.extend(items_a.iter().copied().chain([item]));
                suffix.push(b as u32);
            }
        }
        children.push(row_id(suffix.len()));
        let anchors = self.anchors.iter().map(|&p| children[p as usize]).collect();
        *self = Lattice {
            level: k + 1,
            items,
            frequent: vec![false; suffix.len()],
            suffix,
            children,
            repeated,
            anchors,
            hits: std::mem::take(&mut self.hits),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::CompiledCandidates;
    use proptest::prelude::*;

    #[test]
    fn table1_counts_for_latin26() {
        // Paper Table 1 / §5: 26, 650, 15600 candidates at levels 1..3.
        assert_eq!(permutation_count(26, 1), Some(26));
        assert_eq!(permutation_count(26, 2), Some(650));
        assert_eq!(permutation_count(26, 3), Some(15_600));
        assert_eq!(permutation_count(26, 4), Some(358_800));
        assert_eq!(permutation_count(26, 27), Some(0));
    }

    #[test]
    fn permutation_enumeration_matches_formula() {
        let ab = Alphabet::numbered(5).unwrap();
        for level in 1..=5 {
            let eps = permutations(&ab, level);
            assert_eq!(eps.len() as u64, permutation_count(5, level).unwrap());
            // All distinct items, all unique episodes.
            assert!(eps.iter().all(|e| e.has_distinct_items()));
            let mut dedup = eps.clone();
            dedup.sort();
            dedup.dedup();
            assert_eq!(dedup.len(), eps.len());
        }
    }

    #[test]
    fn latin26_level_sizes() {
        let ab = Alphabet::latin26();
        assert_eq!(permutations(&ab, 1).len(), 26);
        assert_eq!(permutations(&ab, 2).len(), 650);
        assert_eq!(level1(&ab).len(), 26);
    }

    #[test]
    fn join_from_level1_gives_ordered_pairs() {
        let ab = Alphabet::numbered(4).unwrap();
        let l1 = level1(&ab);
        let joined = apriori_join(&l1, true);
        assert_eq!(joined.len(), 4 * 3);
        let with_repeats = apriori_join(&l1, false);
        assert_eq!(with_repeats.len(), 4 * 4);
    }

    #[test]
    fn join_uses_suffix_prefix_overlap() {
        let ab = Alphabet::numbered(5).unwrap();
        let freq: Vec<Episode> = [[0u8, 1], [1, 2], [2, 3]]
            .iter()
            .map(|v| Episode::new(v.to_vec()).unwrap())
            .collect();
        let joined = apriori_join(&freq, true);
        // <0,1>+<1,2> -> <0,1,2>; <1,2>+<2,3> -> <1,2,3>; <2,3> has no continuation.
        let expect: Vec<Episode> = [[0u8, 1, 2], [1, 2, 3]]
            .iter()
            .map(|v| Episode::new(v.to_vec()).unwrap())
            .collect();
        assert_eq!(joined, expect);
        drop(ab);
    }

    #[test]
    fn join_empty_is_empty() {
        assert!(apriori_join(&[], true).is_empty());
    }

    proptest! {
        /// Lattices grown by the join, with or without repeated items, with
        /// random rows eliminated between levels: at every level the rows
        /// compile by `recompile_rows`, from the join's repeat list and
        /// anchor runs, exactly as they compile from `Episode`s, and the
        /// next level is `apriori_join` of the rows kept frequent.
        #[test]
        fn lattice_rows_compile_like_their_episodes(
            sigma in 1usize..=64,
            distinct in true,
            seed in 1u64..u64::MAX,
        ) {
            let state = std::cell::Cell::new(seed);
            let random = || {
                let mut x = state.get();
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                state.set(x);
                x
            };
            let mut lattice = Lattice::singletons(sigma, true);
            let mut compiled = CompiledCandidates::default();
            let mut expected: Option<Vec<Episode>> = None;
            for level in 1..=4 {
                prop_assert_eq!(lattice.level(), level);
                compiled.recompile_rows(
                    sigma,
                    level,
                    lattice.items(),
                    lattice.repeated(),
                    lattice.anchors(),
                );
                let episodes: Vec<Episode> = lattice
                    .items()
                    .chunks_exact(level)
                    .map(|row| Episode::new(row.to_vec()).unwrap())
                    .collect();
                if let Some(expected) = &expected {
                    prop_assert_eq!(&episodes, expected);
                }
                let reference = CompiledCandidates::compile(sigma, &episodes);
                prop_assert_eq!(compiled.len(), reference.len());
                for r in 0..compiled.len() {
                    prop_assert_eq!(compiled.items_of(r), reference.items_of(r));
                }
                for c in 0..sigma as u8 {
                    prop_assert_eq!(compiled.anchored_at(c), reference.anchored_at(c));
                }
                prop_assert_eq!(compiled.all_distinct(), reference.all_distinct());
                prop_assert_eq!(compiled.max_level(), reference.max_level());
                // Keep about 40 rows frequent.
                let rows = episodes.len().max(1) as u64;
                let keep: Vec<bool> = (0..episodes.len()).map(|_| random() % rows < 40).collect();
                let frequent: Vec<Episode> = lattice
                    .narrow(|r| keep[r])
                    .map(|(_, items)| Episode::new(items.to_vec()).unwrap())
                    .collect();
                let kept: Vec<Episode> = episodes
                    .iter()
                    .zip(&keep)
                    .filter(|&(_, &k)| k)
                    .map(|(e, _)| e.clone())
                    .collect();
                prop_assert_eq!(&frequent, &kept);
                expected = Some(apriori_join(&frequent, distinct));
                lattice.join(distinct);
            }
        }

        /// Joining the FULL distinct permutation space at level k yields exactly
        /// the full space at level k+1 (the join is complete, not just sound).
        #[test]
        fn join_of_full_space_is_full_space(n in 2usize..6, k in 1usize..3) {
            prop_assume!(k < n);
            let ab = Alphabet::numbered(n).unwrap();
            let full_k = permutations(&ab, k);
            let mut joined = apriori_join(&full_k, true);
            joined.sort();
            let mut expected = permutations(&ab, k + 1);
            expected.sort();
            prop_assert_eq!(joined, expected);
        }
    }
}
