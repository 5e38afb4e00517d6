//! Streaming ingestion — incremental episode counting over an append-only
//! [`EventDb`].
//!
//! Batch mining rescans the whole stream every time it runs; a live stream
//! that grows by a few hundred symbols between queries would pay O(stream)
//! counting work per append that way. A [`StreamingSession`] instead keeps
//! the compiled active-set scan's state at the stream head — every episode's
//! FSM state and the active set, one [`CountScratch`] — and an append
//! continues that scan over the new symbols
//! ([`CompiledCandidates::scan_range`]'s loop, resumed). Counting a stream in
//! appends is therefore one sequential scan split at the append seams. The
//! state at a seam is known, so no seam needs the paper's Fig. 5 boundary
//! fix (which exists because a block-level thread starts its segment without
//! knowing the state its left neighbour ends in), and repeated-item episodes
//! need no exact fallback.
//!
//! The result is bit-identical to a one-shot batch count of the concatenated
//! stream for **every** episode set and chunk schedule (the workspace
//! differential suite pins this), while the scan work per append tracks the
//! chunk, not the stream.
//!
//! A session only counts its episode set. Eliminating infrequent episodes
//! or mining the grown stream is a
//! [`MiningSession`](crate::session::MiningSession) over a
//! [`db`](StreamingSession::db) snapshot.

use crate::engine::{CompiledCandidates, CountScratch};
use crate::episode::Episode;
use crate::sequence::EventDb;
use crate::{CoreError, Result};

/// An incremental counter over an append-only event stream: owns the evolving
/// [`EventDb`], a candidate set compiled once, and the scan state at the
/// stream head. [`append`](StreamingSession::append) resumes the scan over
/// the appended symbols; [`counts`](StreamingSession::counts) always equals
/// what a from-scratch batch count of the current stream would return.
///
/// ```
/// use tdm_core::engine::{CompiledCandidates, CountScratch};
/// use tdm_core::{Alphabet, Episode, EventDb, StreamingSession};
///
/// let ab = Alphabet::latin26();
/// let db = EventDb::from_str_symbols(&ab, "ABXAB").unwrap();
/// let eps = vec![Episode::from_str(&ab, "AB").unwrap()];
/// let mut live = StreamingSession::new(&db, &eps).unwrap();
/// assert_eq!(live.counts(), &[2]);
///
/// // "A" arrives, then "B" — the occurrence spans two append seams.
/// live.append(&[0]).unwrap();
/// live.append(&[1]).unwrap();
/// assert_eq!(live.counts(), &[3]);
///
/// // Bit-identical to a batch count of the concatenated stream.
/// let batch = CompiledCandidates::compile(ab.len(), &eps)
///     .count(live.db().symbols(), &mut CountScratch::new());
/// assert_eq!(live.counts(), &batch[..]);
/// ```
#[derive(Debug, Clone)]
pub struct StreamingSession {
    db: EventDb,
    compiled: CompiledCandidates,
    /// Exact serial count of each episode over the current stream.
    counts: Vec<u64>,
    /// The scan state at the stream head: each episode's FSM state (non-zero
    /// = a live partial match) and the active set. Every append resumes the
    /// scan from here.
    head: CountScratch,
    appends: u64,
}

impl StreamingSession {
    /// Builds a streaming session over the database's current content for a
    /// fixed episode set (compiled once; `counts` stays aligned to
    /// `episodes` order): one scan of the base stream, whose end state
    /// later appends resume.
    ///
    /// Appends are symbol-only: a timestamped database is counted here, but
    /// [`append`](StreamingSession::append) refuses to grow it (as
    /// [`EventDb::extend`] does), and `tdm-serve`'s `StreamIngest` refuses
    /// timed streams outright.
    ///
    /// # Errors
    /// [`CoreError::SymbolOutOfRange`] when an episode uses a symbol outside
    /// the database's alphabet.
    ///
    /// # Panics
    /// When the episode set exceeds the compiled layout's `u32` index range
    /// (as [`CompiledCandidates::compile`]).
    pub fn new(db: &EventDb, episodes: &[Episode]) -> Result<Self> {
        let alphabet = db.alphabet().len();
        for ep in episodes {
            if let Some(&bad) = ep.items().iter().find(|&&i| (i as usize) >= alphabet) {
                return Err(CoreError::SymbolOutOfRange { id: bad, alphabet });
            }
        }
        let compiled = CompiledCandidates::compile(alphabet, episodes);
        let mut counts = vec![0; compiled.len()];
        let mut head = CountScratch::new();
        compiled.scan_range(db.symbols(), 0..db.len(), &mut head, &mut counts);
        Ok(StreamingSession {
            db: db.clone(),
            compiled,
            counts,
            head,
            appends: 0,
        })
    }

    /// Appends a batch of events to the owned database (epoch bump, fresh
    /// stream buffer — snapshots held elsewhere stay valid) and counts the
    /// batch by resuming the scan at the old stream head. Returns the updated
    /// counts.
    ///
    /// # Errors
    /// As [`EventDb::extend`] (which refuses a timestamped database); on
    /// error nothing changes.
    pub fn append(&mut self, suffix: &[u8]) -> Result<&[u64]> {
        self.db.extend(suffix)?;
        if !suffix.is_empty() {
            self.appends += 1;
            self.compiled
                .resume_scan(suffix, &mut self.head, &mut self.counts);
        }
        Ok(&self.counts)
    }

    /// Exact per-episode counts over the current stream, aligned to the
    /// episode order given at construction. Always equals a from-scratch
    /// batch count of [`db`](StreamingSession::db)'s current content.
    #[inline]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// The owned, evolving database. Clone it (an `Arc` bump) to snapshot the
    /// current epoch for a batch re-mine; later appends leave the snapshot's
    /// buffer untouched.
    #[inline]
    pub fn db(&self) -> &EventDb {
        &self.db
    }

    /// Current append epoch of the owned database.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.db.epoch()
    }

    /// Append batches ingested since construction (empty appends excluded).
    #[inline]
    pub fn appends(&self) -> u64 {
        self.appends
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Alphabet;

    fn eps_of(specs: &[&str]) -> Vec<Episode> {
        let ab = Alphabet::latin26();
        specs
            .iter()
            .map(|s| Episode::from_str(&ab, s).unwrap())
            .collect()
    }

    fn batch_counts(db: &EventDb, eps: &[Episode]) -> Vec<u64> {
        CompiledCandidates::compile(db.alphabet().len(), eps)
            .count(db.symbols(), &mut CountScratch::new())
    }

    #[test]
    fn single_symbol_appends_match_batch() {
        let ab = Alphabet::latin26();
        let eps = eps_of(&["A", "AB", "ABC", "CBA", "BAC", "AA", "ABA"]);
        let text: Vec<u8> = b"ABCABCBACABBBACCA".iter().map(|c| c - b'A').collect();
        let db = EventDb::new(ab, vec![]).unwrap();
        let mut live = StreamingSession::new(&db, &eps).unwrap();
        for &c in &text {
            live.append(&[c]).unwrap();
            assert_eq!(live.counts(), &batch_counts(live.db(), &eps)[..]);
        }
        assert_eq!(live.appends(), text.len() as u64);
    }

    #[test]
    fn spanning_occurrence_crosses_many_seams() {
        let ab = Alphabet::latin26();
        let eps = eps_of(&["ABCDE"]);
        let db = EventDb::from_str_symbols(&ab, "A").unwrap();
        let mut live = StreamingSession::new(&db, &eps).unwrap();
        for c in [1u8, 2, 3] {
            live.append(&[c]).unwrap();
            assert_eq!(live.counts(), &[0]);
        }
        live.append(&[4]).unwrap();
        assert_eq!(live.counts(), &[1]);
    }

    #[test]
    fn repeated_item_episode_stays_exact_across_the_seam() {
        // The adversarial case for the greedy continuation: "AAB" over
        // "AAAB" counts 0 sequentially. Split anywhere.
        let ab = Alphabet::latin26();
        let eps = eps_of(&["AAB", "AA"]);
        for cut in 0..4 {
            let text: Vec<u8> = b"AAAB".iter().map(|c| c - b'A').collect();
            let db = EventDb::new(ab.clone(), text[..cut].to_vec()).unwrap();
            let mut live = StreamingSession::new(&db, &eps).unwrap();
            live.append(&text[cut..]).unwrap();
            assert_eq!(
                live.counts(),
                &batch_counts(live.db(), &eps)[..],
                "cut={cut}"
            );
        }
    }

    #[test]
    fn rejects_out_of_alphabet_episodes_and_bad_appends() {
        let ab = Alphabet::numbered(3).unwrap();
        let db = EventDb::new(ab, vec![0, 1]).unwrap();
        let bad = vec![Episode::new(vec![0, 7]).unwrap()];
        assert!(matches!(
            StreamingSession::new(&db, &bad),
            Err(CoreError::SymbolOutOfRange { id: 7, .. })
        ));
        let eps = vec![Episode::new(vec![0, 1]).unwrap()];
        let mut live = StreamingSession::new(&db, &eps).unwrap();
        assert!(live.append(&[9]).is_err());
        // The failed append left counts and the stream untouched.
        assert_eq!(live.counts(), &[1]);
        assert_eq!(live.db().len(), 2);
    }

    #[test]
    fn snapshots_survive_appends() {
        let ab = Alphabet::latin26();
        let eps = eps_of(&["AB"]);
        let db = EventDb::from_str_symbols(&ab, "AB").unwrap();
        let mut live = StreamingSession::new(&db, &eps).unwrap();
        let snapshot = live.db().clone();
        live.append(&[0, 1]).unwrap();
        assert_eq!(snapshot.len(), 2);
        assert_eq!(live.db().len(), 4);
        assert_eq!(snapshot.epoch(), 0);
        assert_eq!(live.epoch(), 1);
    }
}
