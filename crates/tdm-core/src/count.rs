//! Sequential counters — the "counting step" of the paper's Algorithm 1.
//!
//! Two implementations are provided:
//!
//! * [`count_episode`] / [`count_episodes_naive`]: one full database scan per
//!   episode — exactly what each GPU thread (Algorithms 1/2) or block (3/4) does.
//! * [`count_episodes`]: a single-pass *active-set* counter that advances every
//!   candidate's FSM simultaneously, exploiting the fact that in realistic data
//!   almost every FSM sits at the start state almost all the time. This is the
//!   fast CPU ground truth used to validate the simulated kernels and to drive the
//!   level-wise miner at scale.

use crate::engine::{CompiledCandidates, CountScratch};
use crate::episode::Episode;
use crate::fsm::EpisodeFsm;
use crate::sequence::EventDb;

/// Counts a single episode with the paper's FSM over the whole database.
pub fn count_episode(db: &EventDb, episode: &Episode) -> u64 {
    let mut fsm = EpisodeFsm::new(episode);
    fsm.run(db.symbols())
}

/// Counts every episode by independent full scans (the per-thread work of the
/// paper's kernels; also the obviously-correct reference for tests).
pub fn count_episodes_naive(db: &EventDb, episodes: &[Episode]) -> Vec<u64> {
    episodes.iter().map(|e| count_episode(db, e)).collect()
}

/// [`count_episodes_naive`] over a compiled candidate set: one independent
/// full FSM scan per compiled episode, deliberately *not* the active-set
/// engine — the serial baseline backend counts with this, so engine bugs
/// cannot self-validate.
pub fn count_compiled_naive(stream: &[u8], compiled: &CompiledCandidates) -> Vec<u64> {
    (0..compiled.len())
        .map(|i| {
            crate::segment::scan_segment_items(stream, compiled.items_of(i), 0..stream.len()).count
        })
        .collect()
}

/// Single-pass multi-episode counter.
///
/// Compiles the candidate set into the flat CSR layout of
/// [`crate::engine::CompiledCandidates`] and runs one active-set scan: per
/// database character, work is proportional to the number of *in-progress*
/// matches plus the number of episodes anchored at that character, instead of
/// the total candidate count. Callers that count repeatedly (the level-wise
/// miner, the sharded engine) should hold a [`CompiledCandidates`] +
/// [`CountScratch`] directly to skip the per-call compilation.
pub fn count_episodes(db: &EventDb, episodes: &[Episode]) -> Vec<u64> {
    if episodes.is_empty() || db.is_empty() {
        return vec![0u64; episodes.len()];
    }
    let compiled = CompiledCandidates::compile(db.alphabet().len(), episodes);
    let mut scratch = CountScratch::new();
    compiled.count(db.symbols(), &mut scratch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Alphabet;
    use crate::candidate::permutations;
    use proptest::prelude::*;

    fn db_of(s: &str) -> EventDb {
        EventDb::from_str_symbols(&Alphabet::latin26(), s).unwrap()
    }

    #[test]
    fn active_set_matches_naive_on_small_inputs() {
        let ab = Alphabet::latin26();
        let db = db_of("ABCABCABZZQABC");
        let eps: Vec<Episode> = ["A", "AB", "ABC", "CBA", "ZQ", "QZ", "BCA", "AA", "ABA"]
            .iter()
            .map(|s| Episode::from_str(&ab, s).unwrap())
            .collect();
        assert_eq!(count_episodes(&db, &eps), count_episodes_naive(&db, &eps));
    }

    #[test]
    fn empty_inputs() {
        let ab = Alphabet::latin26();
        let db = EventDb::new(ab.clone(), vec![]).unwrap();
        let ep = Episode::from_str(&ab, "AB").unwrap();
        assert_eq!(count_episode(&db, &ep), 0);
        assert_eq!(count_episodes(&db, &[ep]), vec![0]);
        let db2 = db_of("ABC");
        assert_eq!(count_episodes(&db2, &[]), Vec::<u64>::new());
    }

    #[test]
    fn level2_permutation_space_consistency() {
        // All 650 ordered pairs over a modest random-ish text.
        let ab = Alphabet::latin26();
        let text: String = (0..2000u32)
            .map(|i| char::from(b'A' + ((i.wrapping_mul(2654435761) >> 7) % 26) as u8))
            .collect();
        let db = db_of(&text);
        let eps = permutations(&ab, 2);
        assert_eq!(eps.len(), 650);
        assert_eq!(count_episodes(&db, &eps), count_episodes_naive(&db, &eps));
    }

    #[test]
    fn level1_counts_equal_histogram() {
        let ab = Alphabet::latin26();
        let db = db_of("AAKXYZKKA");
        let eps = permutations(&ab, 1);
        let counts = count_episodes(&db, &eps);
        assert_eq!(counts, db.histogram());
    }

    proptest! {
        /// The single-pass active-set counter is observationally identical to
        /// running each episode's FSM independently, for arbitrary data and
        /// arbitrary (possibly repeated-item) episodes.
        #[test]
        fn active_set_equals_naive(
            data in proptest::collection::vec(0u8..6, 0..400),
            eps in proptest::collection::vec(proptest::collection::vec(0u8..6, 1..5), 1..25),
        ) {
            let ab = Alphabet::numbered(6).unwrap();
            let db = EventDb::new(ab, data).unwrap();
            let episodes: Vec<Episode> =
                eps.into_iter().map(|v| Episode::new(v).unwrap()).collect();
            prop_assert_eq!(
                count_episodes(&db, &episodes),
                count_episodes_naive(&db, &episodes)
            );
        }
    }
}
