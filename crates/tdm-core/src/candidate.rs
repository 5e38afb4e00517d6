//! Candidate episode generation — the "generation step" of the paper's
//! Algorithm 1, and the combinatorics of Table 1.
//!
//! The paper's candidate space at level `L` is the set of ordered `L`-tuples of
//! *distinct* symbols: `N! / (N - L)!` episodes (Table 1), giving 26 / 650 /
//! 15,600 candidates at levels 1–3 over the Latin alphabet. [`permutations`]
//! enumerates that space directly; [`apriori_join`] grows candidates
//! level-by-level from a surviving frequent set. The mining loop
//! ([`crate::session`]) runs the same join on a flat candidate lattice instead,
//! for any number of co-mined members at once.

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
/// joined from, shared by every member of a co-mined batch.
///
/// * **Rows.** A level-`k` row holds `k` items. Its *prefix parent* is the
///   previous-level row holding its first `k − 1` items, its *suffix parent*
///   the one holding its last `k − 1`. Level 1 is one row per symbol, all
///   under one root. Rows stay in lexicographic order, so the rows that share
///   a prefix parent form one contiguous range, and `children` records those
///   ranges instead of a prefix id per row.
/// * **Members.** Each row carries a bitset of members (bit `m` of `words`
///   words per row; member `m` is the session's `m`-th config). Before
///   elimination it is the set of members the row is a candidate for;
///   [`retain`](Lattice::retain) narrows it to the members the row is
///   frequent for and that mine the next level. A level starts with no
///   empty set.
/// * **The join.** [`join`](Lattice::join) pairs each row `a` with the rows of
///   the range whose prefix parent is `a`'s suffix parent: a member keeps the
///   new row when both parents are in its set and the row passes its
///   `distinct_items_only` rule. For each member that is exactly
///   [`apriori_join`] of its frequent set, in the same order, with no
///   hashing, sorting or allocation per candidate; the rows are the union of
///   the members' candidate sets.
#[derive(Debug)]
pub(crate) struct Lattice {
    level: usize,
    words: usize,
    /// Row `r`'s items are `items[r * level..(r + 1) * level]`.
    items: Vec<u8>,
    /// Row `r`'s suffix parent, a row of the previous level.
    suffix: Vec<u32>,
    /// The rows whose prefix parent is previous-level row `p` are
    /// `children[p]..children[p + 1]`.
    children: Vec<u32>,
    /// Row `r`'s member set is `members[r * words..(r + 1) * words]`.
    members: Vec<u64>,
}

impl Lattice {
    /// Level 1: one row per symbol of an `alphabet_len`-symbol alphabet, a
    /// candidate for every member of `mining` (no rows when it is empty).
    pub(crate) fn singletons(alphabet_len: usize, mining: &[u64]) -> Self {
        let rows = if mining.iter().any(|&w| w != 0) {
            alphabet_len
        } else {
            0
        };
        Lattice {
            level: 1,
            words: mining.len(),
            items: (0..rows).map(|s| s as u8).collect(),
            suffix: vec![0; rows],
            children: vec![0, rows as u32],
            members: mining.repeat(rows),
        }
    }

    /// Number of rows (candidates) at this level.
    fn len(&self) -> usize {
        self.suffix.len()
    }

    /// True when no member has a candidate at this level.
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

    /// The elimination step: calls `keep(member, row, items)` for every
    /// member of every row's set, rows in order, and drops the member from
    /// the row's set where it returns false.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(usize, usize, &[u8]) -> bool) {
        let rows = self.items.chunks_exact(self.level);
        let sets = self.members.chunks_exact_mut(self.words);
        for (r, (items, set)) in rows.zip(sets).enumerate() {
            for (w, word) in set.iter_mut().enumerate() {
                let mut bits = *word;
                while bits != 0 {
                    let bit = bits.trailing_zeros();
                    bits &= bits - 1;
                    if !keep(w * 64 + bit as usize, r, items) {
                        *word &= !(1 << bit);
                    }
                }
            }
        }
    }

    /// The generation step: replaces this level with the next one, joined
    /// from the rows' current member sets. `distinct` is the set of members
    /// whose candidates may not repeat an item.
    ///
    /// # Panics
    /// When the next level has more than `u32::MAX` rows.
    pub(crate) fn join(&mut self, distinct: &[u64]) {
        let (k, words) = (self.level, self.words);
        let any_distinct = distinct.iter().any(|&w| w != 0);
        // At most every row of each joining row's range, so the buffers
        // never grow mid-join.
        let bound: usize = (0..self.len())
            .filter(|&a| {
                self.members[a * words..(a + 1) * words]
                    .iter()
                    .any(|&w| w != 0)
            })
            .map(|a| {
                let s = self.suffix[a] as usize;
                (self.children[s + 1] - self.children[s]) as usize
            })
            .sum();
        let mut next = Lattice {
            level: k + 1,
            words,
            items: Vec::with_capacity(bound * (k + 1)),
            suffix: Vec::with_capacity(bound),
            children: Vec::with_capacity(self.len() + 1),
            members: Vec::with_capacity(bound * words),
        };
        let row_id = |rows: usize| u32::try_from(rows).expect("lattice rows fit u32 ids");
        for (a, (items_a, set_a)) in self
            .items
            .chunks_exact(k)
            .zip(self.members.chunks_exact(words))
            .enumerate()
        {
            next.children.push(row_id(next.len()));
            if set_a.iter().all(|&w| w == 0) {
                continue;
            }
            let s = self.suffix[a] as usize;
            for b in self.children[s] as usize..self.children[s + 1] as usize {
                let item = self.items[(b + 1) * k - 1];
                let repeats = any_distinct && items_a.contains(&item);
                let set_b = &self.members[b * words..(b + 1) * words];
                let start = next.members.len();
                next.members
                    .extend(set_a.iter().zip(set_b).zip(distinct).map(|((&x, &y), &d)| {
                        if repeats {
                            x & y & !d
                        } else {
                            x & y
                        }
                    }));
                if next.members[start..].iter().all(|&w| w == 0) {
                    next.members.truncate(start);
                    continue;
                }
                next.items.extend_from_slice(items_a);
                next.items.push(item);
                next.suffix.push(b as u32);
            }
        }
        next.children.push(row_id(next.len()));
        *self = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
