//! Differential suite for streaming ingestion: a [`StreamingSession`] fed any
//! append chunk schedule must report counts **bit-identical** to a one-shot
//! batch build over the concatenated stream — the whole contract of the
//! incremental path, where every append resumes the compiled scan from the
//! state the previous one left at the stream head. Adversarial axes:
//!
//! * random chunk schedules, chunk sizes 1..=stream_len (proptest), so
//!   occurrences straddle every append seam somewhere;
//! * repeated-item episodes straddling one seam or two (a resume after a
//!   resume), at every cut: the scan's repeated-item guard must not carry a
//!   stale position across a seam;
//! * cross-checks against every counting strategy and worker counts 1..=8
//!   through real [`MiningSession`]s over the final stream.

use proptest::prelude::*;
use tdm_core::engine::{CompiledCandidates, CountScratch};
use tdm_core::miner::AutoBackend;
use tdm_core::session::MiningSession;
use tdm_core::streaming::StreamingSession;
use tdm_core::{Alphabet, Episode, EventDb};

/// One-shot batch reference: compile + sequential active-set scan (itself
/// pinned against the frozen seed counter by `strategy_differential.rs`).
fn batch_counts(alphabet_len: usize, stream: &[u8], episodes: &[Episode]) -> Vec<u64> {
    CompiledCandidates::compile(alphabet_len, episodes).count(stream, &mut CountScratch::new())
}

/// Folds raw generated bytes into a concrete alphabet (mod `alpha`), forcing
/// collisions and repeated-item episodes at small alphabets.
fn fold_inputs(alpha: usize, raw_stream: &[u8], raw_eps: &[Vec<u8>]) -> (Vec<u8>, Vec<Episode>) {
    let stream: Vec<u8> = raw_stream.iter().map(|&c| c % alpha as u8).collect();
    let episodes: Vec<Episode> = raw_eps
        .iter()
        .map(|it| Episode::new(it.iter().map(|&c| c % alpha as u8).collect()).expect("non-empty"))
        .collect();
    (stream, episodes)
}

/// Turns a vector of raw sizes into a chunk schedule covering `len` symbols:
/// each raw size is clamped to the remainder, zero-size entries make empty
/// appends (which must be no-ops), and a final chunk drains the rest.
fn chunk_schedule(len: usize, raw_sizes: &[usize]) -> Vec<usize> {
    let mut sizes = Vec::with_capacity(raw_sizes.len() + 1);
    let mut used = 0usize;
    for &s in raw_sizes {
        sizes.push(s.min(len - used));
        used += *sizes.last().unwrap();
    }
    if used < len {
        sizes.push(len - used);
    }
    sizes
}

// ---------------------------------------------------------------------------
// Deterministic adversarial cases
// ---------------------------------------------------------------------------

#[test]
fn repeated_item_episodes_stay_exact_across_every_seam() {
    // "AAB" over "AAAB" counts 0 under the FSM (not 1 as substring counting
    // would say), and whether a repeated-item episode may re-anchor depends
    // on what it did one symbol earlier. Sweep every single cut and every
    // pair of cuts of adversarial streams: a resume that mishandles any of
    // the scan state gets one of them wrong.
    let streams: [&[u8]; 3] = [b"AAAB", b"AABAABAA", b"AAAAAAAA"];
    let episodes: Vec<Episode> = [b"AAB".as_slice(), b"AA", b"ABA", b"AAAB"]
        .iter()
        .map(|it| Episode::new(it.iter().map(|c| c - b'A').collect()).unwrap())
        .collect();
    let ab = Alphabet::numbered(2).unwrap();
    for raw in streams {
        let stream: Vec<u8> = raw.iter().map(|c| c - b'A').collect();
        let n = stream.len();
        let reference = batch_counts(2, &stream, &episodes);
        let one_cut = (0..=n).map(|cut| vec![cut]);
        let two_cuts = (0..=n).flat_map(|a| (a..=n).map(move |b| vec![a, b]));
        for cuts in one_cut.chain(two_cuts) {
            let db = EventDb::new(ab.clone(), stream[..cuts[0]].to_vec()).unwrap();
            let mut live = StreamingSession::new(&db, &episodes).unwrap();
            for (i, &from) in cuts.iter().enumerate() {
                let to = cuts.get(i + 1).copied().unwrap_or(n);
                live.append(&stream[from..to]).unwrap();
            }
            assert_eq!(live.counts(), &reference[..], "cuts {cuts:?} of {raw:?}");
        }
    }
}

#[test]
fn empty_appends_are_no_ops_at_every_layer() {
    let ab = Alphabet::latin26();
    let db = EventDb::from_str_symbols(&ab, "ABAB").unwrap();
    let episodes = vec![Episode::from_str(&ab, "AB").unwrap()];
    let mut live = StreamingSession::new(&db, &episodes).unwrap();
    live.append(&[]).unwrap();
    assert_eq!(live.epoch(), 0, "empty batch must not version the stream");
    assert_eq!(live.appends(), 0);
    assert_eq!(live.counts(), &[2]);
}

// ---------------------------------------------------------------------------
// Property tests
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The core streaming contract: any chunk schedule, any episode mix
    /// (repeated items included), counts bit-identical to the batch build —
    /// checked after **every** append, not just at the end.
    #[test]
    fn incremental_counts_equal_batch_for_any_chunk_schedule(
        alpha in 1usize..=6,
        raw_stream in proptest::collection::vec(0u8..6, 1..300),
        raw_eps in proptest::collection::vec(proptest::collection::vec(0u8..6, 1..6), 1..16),
        raw_sizes in proptest::collection::vec(0usize..80, 0..12),
    ) {
        let (stream, episodes) = fold_inputs(alpha, &raw_stream, &raw_eps);
        let ab = Alphabet::numbered(alpha).unwrap();
        let db = EventDb::new(ab, Vec::new()).unwrap();
        let mut live = StreamingSession::new(&db, &episodes).unwrap();
        let mut fed = 0usize;
        for size in chunk_schedule(stream.len(), &raw_sizes) {
            live.append(&stream[fed..fed + size]).unwrap();
            fed += size;
            prop_assert_eq!(
                live.counts(),
                &batch_counts(alpha, &stream[..fed], &episodes)[..],
                "after feeding {} of {} symbols", fed, stream.len()
            );
        }
        prop_assert_eq!(fed, stream.len());
    }

    /// The grown session agrees with every strategy and decomposition over
    /// the final stream: real sessions at workers 1..=8 (Auto dispatch).
    #[test]
    fn grown_stream_matches_all_strategies_and_workers(
        alpha in 1usize..=6,
        raw_stream in proptest::collection::vec(0u8..6, 1..300),
        raw_eps in proptest::collection::vec(proptest::collection::vec(0u8..6, 1..6), 1..16),
        raw_sizes in proptest::collection::vec(0usize..80, 0..8),
        workers in 1usize..=8,
    ) {
        let (stream, episodes) = fold_inputs(alpha, &raw_stream, &raw_eps);
        let ab = Alphabet::numbered(alpha).unwrap();
        let db = EventDb::new(ab, Vec::new()).unwrap();
        let mut live = StreamingSession::new(&db, &episodes).unwrap();
        let mut fed = 0usize;
        for size in chunk_schedule(stream.len(), &raw_sizes) {
            live.append(&stream[fed..fed + size]).unwrap();
            fed += size;
        }

        // A real session over the final db agrees at every worker count.
        let mut session = MiningSession::builder(live.db()).workers(workers).build();
        let counts = session.count_candidates(&episodes, &mut AutoBackend)
            .expect("auto backend never fails");
        prop_assert_eq!(&counts[..], live.counts());
    }
}
