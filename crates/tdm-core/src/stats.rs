//! Mining results and support statistics.

use crate::episode::Episode;
use serde::{Deserialize, Serialize};

/// Support of an episode: `count / n` (paper §3.1 defines frequency against the
/// database length `n`).
pub fn support(count: u64, db_len: usize) -> f64 {
    if db_len == 0 {
        0.0
    } else {
        count as f64 / db_len as f64
    }
}

/// The least count whose [`support`] over a `db_len`-symbol stream exceeds
/// `alpha`: `count >= min_frequent_count(db_len, alpha)` exactly when
/// `support(count, db_len) > alpha`, for every count below `u64::MAX` (which
/// no stream reaches). It is `u64::MAX` when no smaller count qualifies: for
/// a NaN `alpha`, or an empty stream and `alpha >= 0`. The elimination step
/// computes it once per mine, then compares integers.
///
/// `support` never decreases as the count grows (converting to `f64` and
/// dividing by a fixed length both round monotonically), so the qualifying
/// counts are one upward run: gallop up from the stream length until a count
/// qualifies, then bisect.
pub(crate) fn min_frequent_count(db_len: usize, alpha: f64) -> u64 {
    let frequent = |count: u64| support(count, db_len) > alpha;
    if frequent(0) {
        return 0;
    }
    // `lo` never qualifies; `hi` does unless it is `u64::MAX`.
    let (mut lo, mut hi) = (0u64, (db_len as u64).max(1));
    while !frequent(hi) {
        if hi == u64::MAX {
            return u64::MAX;
        }
        lo = hi;
        hi = hi.saturating_mul(2);
    }
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if frequent(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

/// One mined level: the surviving (frequent) episodes with their counts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LevelResult {
    /// Episode length at this level.
    pub level: usize,
    /// Number of candidates examined at this level.
    pub candidates: usize,
    /// Frequent episodes (count/n > alpha) with their appearance counts.
    pub frequent: Vec<(Episode, u64)>,
}

impl LevelResult {
    /// The number of frequent episodes at this level.
    pub fn len(&self) -> usize {
        self.frequent.len()
    }

    /// True when no episode survived elimination.
    pub fn is_empty(&self) -> bool {
        self.frequent.is_empty()
    }
}

/// The complete output of a mining run (paper Algorithm 1's `S_A`).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MiningResult {
    /// Results per level, in increasing level order.
    pub levels: Vec<LevelResult>,
    /// Database length used for support computation.
    pub db_len: usize,
}

impl MiningResult {
    /// Total number of frequent episodes across all levels.
    pub fn total_frequent(&self) -> usize {
        self.levels.iter().map(|l| l.frequent.len()).sum()
    }

    /// Total number of candidates counted across all levels.
    pub fn total_candidates(&self) -> usize {
        self.levels.iter().map(|l| l.candidates).sum()
    }

    /// Looks up the count of a specific episode, if it was found frequent.
    pub fn count_of(&self, episode: &Episode) -> Option<u64> {
        let lvl = episode.level();
        self.levels
            .iter()
            .find(|l| l.level == lvl)
            .and_then(|l| l.frequent.iter().find(|(e, _)| e == episode))
            .map(|(_, c)| *c)
    }

    /// Iterates over every frequent episode with its count and support.
    pub fn iter(&self) -> impl Iterator<Item = (&Episode, u64, f64)> + '_ {
        let n = self.db_len;
        self.levels
            .iter()
            .flat_map(move |l| l.frequent.iter().map(move |(e, c)| (e, *c, support(*c, n))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Alphabet;
    use proptest::prelude::*;

    #[test]
    fn support_is_count_over_n() {
        assert_eq!(support(5, 10), 0.5);
        assert_eq!(support(0, 10), 0.0);
        assert_eq!(support(3, 0), 0.0);
    }

    #[test]
    fn result_accessors() {
        let ab = Alphabet::latin26();
        let a = Episode::from_str(&ab, "A").unwrap();
        let abep = Episode::from_str(&ab, "AB").unwrap();
        let res = MiningResult {
            levels: vec![
                LevelResult {
                    level: 1,
                    candidates: 26,
                    frequent: vec![(a.clone(), 7)],
                },
                LevelResult {
                    level: 2,
                    candidates: 650,
                    frequent: vec![(abep.clone(), 3)],
                },
            ],
            db_len: 100,
        };
        assert_eq!(res.total_frequent(), 2);
        assert_eq!(res.total_candidates(), 676);
        assert_eq!(res.count_of(&a), Some(7));
        assert_eq!(res.count_of(&abep), Some(3));
        assert_eq!(res.count_of(&Episode::from_str(&ab, "Z").unwrap()), None);
        let rows: Vec<_> = res.iter().collect();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].2, 0.07);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// `count >= min_frequent_count(n, alpha)` is `support(count, n) >
        /// alpha` for every count up to `n + 1` and on both sides of the
        /// threshold itself, for empty, one-symbol, small-request and long
        /// streams, and for thresholds of 0, 1, above 1 (up to far past any
        /// count), negative, NaN, infinite, and exactly `k / n` or one step
        /// either side of it. At α ≥ 1 or NaN no count of at most `n`
        /// qualifies, and every search ends.
        #[test]
        fn the_integer_threshold_agrees_with_support(
            n in prop::sample::select(vec![0usize, 1, 4_000, 1_000_000]),
            kind in 0u8..12,
            k in 0u64..=1_000_000,
            x in 0.0f64..1e6,
        ) {
            let exact = if n == 0 { 0.0 } else { (k % (n as u64 + 1)) as f64 / n as f64 };
            let alpha = match kind {
                0 => 0.0,
                1 => 1.0,
                2 => 1.0 + x,
                3 => -x - f64::MIN_POSITIVE,
                4 => f64::NAN,
                5 => f64::INFINITY,
                6 => f64::NEG_INFINITY,
                7 => 1e300,
                11 => 1e9 * (1.0 + x),
                8 => exact,
                9 => exact.next_up(),
                _ => exact.next_down(),
            };
            let threshold = min_frequent_count(n, alpha);
            for count in 0..=n as u64 + 1 {
                prop_assert_eq!(
                    count >= threshold,
                    support(count, n) > alpha,
                    "n {} alpha {:e} count {} threshold {}",
                    n,
                    alpha,
                    count,
                    threshold
                );
            }
            let edge = [threshold.saturating_sub(1), threshold.min(u64::MAX - 1)];
            for count in edge {
                prop_assert_eq!(count >= threshold, support(count, n) > alpha, "edge {}", count);
            }
            if alpha.is_nan() || alpha >= 1.0 {
                prop_assert!(threshold > n as u64, "alpha {:e} admits a count of n", alpha);
            }
        }
    }
}
