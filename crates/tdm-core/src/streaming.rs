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

use crate::engine::{CompiledCandidates, CountScratch, OccurrenceIndex};
use crate::episode::Episode;
use crate::sequence::EventDb;
use crate::stats::support;
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
    episodes: Vec<Episode>,
    compiled: CompiledCandidates,
    /// Exact serial count of each episode over the current stream.
    counts: Vec<u64>,
    /// The scan state at the stream head: each episode's FSM state (non-zero
    /// = a live partial match) and the active set. Every append resumes the
    /// scan from here.
    head: CountScratch,
    /// Lazily built vertical index, extended in place on every append once
    /// materialized.
    index: Option<OccurrenceIndex>,
    appends: u64,
    appended_symbols: u64,
}

impl StreamingSession {
    /// Builds a streaming session over the database's current content for a
    /// fixed episode set (compiled once; `counts` stays aligned to
    /// `episodes` order): one scan of the base stream, whose end state
    /// later appends resume.
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
            episodes: episodes.to_vec(),
            compiled,
            counts,
            head,
            index: None,
            appends: 0,
            appended_symbols: 0,
        })
    }

    /// Appends a batch of events to the owned database (epoch bump, fresh
    /// stream buffer — snapshots held elsewhere stay valid) and counts the
    /// batch by resuming the scan at the old stream head. Returns the updated
    /// counts.
    ///
    /// # Errors
    /// As [`EventDb::extend`]; on error nothing changes.
    pub fn append(&mut self, suffix: &[u8]) -> Result<&[u64]> {
        self.db.extend(suffix)?;
        self.ingest(suffix);
        Ok(&self.counts)
    }

    /// [`append`](StreamingSession::append) for timestamped databases.
    ///
    /// # Errors
    /// As [`EventDb::extend_with_times`]; on error nothing changes.
    pub fn append_with_times(&mut self, suffix: &[u8], times: &[u64]) -> Result<&[u64]> {
        self.db.extend_with_times(suffix, times)?;
        self.ingest(suffix);
        Ok(&self.counts)
    }

    /// The incremental counting step: the scan continues from the head state
    /// over the appended symbols, and a built index widens over them.
    fn ingest(&mut self, suffix: &[u8]) {
        if suffix.is_empty() {
            return;
        }
        self.appends += 1;
        self.appended_symbols += suffix.len() as u64;
        self.compiled
            .resume_scan(suffix, &mut self.head, &mut self.counts);
        if let Some(index) = self.index.as_mut() {
            index.extend(suffix);
        }
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

    /// The episode set the session counts, in `counts` order.
    #[inline]
    pub fn episodes(&self) -> &[Episode] {
        &self.episodes
    }

    /// Current append epoch of the owned database.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.db.epoch()
    }

    /// Indices of episodes currently frequent at support threshold `alpha`
    /// (the mining loop's elimination rule, `support(count, n) > alpha`).
    pub fn frequent(&self, alpha: f64) -> Vec<usize> {
        let n = self.db.len();
        (0..self.counts.len())
            .filter(|&e| support(self.counts[e], n) > alpha)
            .collect()
    }

    /// The vertical occurrence index over the current stream — built on first
    /// use, then **extended in place** on every append
    /// ([`OccurrenceIndex::extend`]), so the vertical counting strategy stays
    /// usable on a live stream without per-append rebuilds.
    pub fn occurrence_index(&mut self) -> &OccurrenceIndex {
        if self.index.is_none() {
            self.index = Some(OccurrenceIndex::build(
                self.db.alphabet().len(),
                self.db.symbols(),
            ));
        }
        self.index.as_ref().expect("index built above")
    }

    /// Episodes with a live partial match at the stream head (a non-zero
    /// FSM state in the head's scan state).
    pub fn parked_partials(&self) -> usize {
        self.head.end_states().iter().filter(|&&s| s != 0).count()
    }

    /// Append batches ingested since construction.
    #[inline]
    pub fn appends(&self) -> u64 {
        self.appends
    }

    /// Symbols ingested through appends since construction (excludes the base
    /// stream).
    #[inline]
    pub fn appended_symbols(&self) -> u64 {
        self.appended_symbols
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
        assert_eq!(live.appended_symbols(), text.len() as u64);
    }

    #[test]
    fn spanning_occurrence_crosses_many_seams() {
        let ab = Alphabet::latin26();
        let eps = eps_of(&["ABCDE"]);
        let db = EventDb::from_str_symbols(&ab, "A").unwrap();
        let mut live = StreamingSession::new(&db, &eps).unwrap();
        assert_eq!(live.parked_partials(), 1);
        for c in [1u8, 2, 3] {
            live.append(&[c]).unwrap();
            assert_eq!(live.counts(), &[0]);
            assert_eq!(live.parked_partials(), 1);
        }
        live.append(&[4]).unwrap();
        assert_eq!(live.counts(), &[1]);
        assert_eq!(live.parked_partials(), 0);
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
    fn frequent_mirrors_the_elimination_rule() {
        let ab = Alphabet::latin26();
        let eps = eps_of(&["A", "AB", "QZ"]);
        let db = EventDb::from_str_symbols(&ab, "ABABAB").unwrap();
        let mut live = StreamingSession::new(&db, &eps).unwrap();
        assert_eq!(live.frequent(0.1), vec![0, 1]);
        live.append(&[16, 25]).unwrap(); // "QZ"
        assert_eq!(live.frequent(0.1), vec![0, 1, 2]);
    }

    #[test]
    fn occurrence_index_extends_with_the_stream() {
        let ab = Alphabet::latin26();
        let eps = eps_of(&["AB"]);
        let db = EventDb::from_str_symbols(&ab, "ABAB").unwrap();
        let mut live = StreamingSession::new(&db, &eps).unwrap();
        assert_eq!(live.occurrence_index().occ_len(0), 2);
        live.append(&[0, 0]).unwrap();
        let stream = live.db().symbols_shared();
        let idx = live.occurrence_index();
        assert_eq!(idx.stream_len(), 6);
        assert_eq!(idx.occurrences(&stream, 0), &[0, 2, 4, 5]);
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
