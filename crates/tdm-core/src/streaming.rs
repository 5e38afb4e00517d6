//! Streaming ingestion — incremental episode counting over an append-only
//! [`EventDb`].
//!
//! Batch mining rescans the whole stream every time it runs; a live stream
//! that grows by a few hundred symbols between queries makes that O(stream)
//! cost per append absurd. This module applies the paper's Fig. 5
//! boundary-continuation machinery (built for *spatial* shard boundaries) to
//! the **temporal** boundary at the stream head: a [`StreamingSession`] parks
//! one FSM continuation state per episode at the head and, when symbols
//! arrive, does O(new symbols) work —
//!
//! 1. one compiled active-set pass over **just the appended chunk** (the same
//!    map step a database shard runs, [`CompiledCandidates::shard_scan`]);
//! 2. the seam fix: every parked partial match is resumed into the chunk with
//!    the advance-only continuation rule
//!    ([`continuation_advance_items`]) — completing, dying, or parking again
//!    at the new head if the chunk was too short to resolve it;
//! 3. for the few repeated-item episodes (where the greedy continuation is
//!    not exact) the exact [`SegmentEffect`] state-composition runs over the
//!    appended chunk only, composed onto a running effect — the exact
//!    fallback confined to the seam window instead of the paper-merge's full
//!    rescan.
//!
//! The result is bit-identical to a one-shot batch count of the concatenated
//! stream for **every** episode set and chunk schedule (the workspace
//! differential suite pins this), while the per-append cost tracks the chunk,
//! not the stream.
//!
//! [`continuation_advance_items`]: crate::segment::continuation_advance_items
//! [`CompiledCandidates::shard_scan`]: crate::engine::CompiledCandidates::shard_scan

use crate::engine::{CompiledCandidates, OccurrenceIndex};
use crate::episode::Episode;
use crate::segment::{continuation_advance_items, Continuation, SegmentEffect};
use crate::sequence::EventDb;
use crate::stats::support;
use crate::{CoreError, Result};

/// An incremental counter over an append-only event stream: owns the evolving
/// [`EventDb`], a candidate set compiled once, and per-episode continuation
/// state parked at the stream head. [`append`](StreamingSession::append)
/// updates every count in O(appended symbols); [`counts`](StreamingSession::counts)
/// always equals what a from-scratch batch count of the current stream would
/// return.
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
    /// Parked continuation state per episode at the stream head (0 = no live
    /// partial). Only distinct-item episodes park here; repeated-item
    /// episodes live in `effects`.
    cont: Vec<u8>,
    /// Running exact state-composition per repeated-item episode: composing
    /// each appended chunk's [`SegmentEffect`] keeps these episodes exact
    /// while still touching only the appended window.
    effects: Vec<(usize, SegmentEffect)>,
    /// Lazily built vertical index, extended in place on every append once
    /// materialized.
    index: Option<OccurrenceIndex>,
    appends: u64,
    appended_symbols: u64,
}

impl StreamingSession {
    /// Builds a streaming session over the database's current content for a
    /// fixed episode set (compiled once; `counts` stays aligned to
    /// `episodes` order). The base stream is counted through the same ingest
    /// path later appends take.
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
        let effects = (0..compiled.len())
            .filter(|&e| compiled.is_repeated(e))
            .map(|e| {
                // The empty-segment effect: zero completions, identity exits.
                (
                    e,
                    SegmentEffect::compute_items(&[], compiled.items_of(e), 0..0),
                )
            })
            .collect();
        let mut session = StreamingSession {
            db: db.clone(),
            episodes: episodes.to_vec(),
            counts: vec![0; compiled.len()],
            cont: vec![0; compiled.len()],
            effects,
            compiled,
            index: None,
            appends: 0,
            appended_symbols: 0,
        };
        let base = session.db.symbols_shared();
        session.ingest(&base);
        session.appends = 0;
        session.appended_symbols = 0;
        Ok(session)
    }

    /// Appends a batch of events to the owned database (epoch bump, fresh
    /// stream buffer — parked external snapshots stay valid) and updates
    /// every count with O(batch) work. Returns the updated counts.
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

    /// The incremental counting step: one fresh compiled scan of the chunk,
    /// the continuation seam fix for parked partials, and the exact
    /// state-composition update for repeated-item episodes.
    fn ingest(&mut self, suffix: &[u8]) {
        if suffix.is_empty() {
            return;
        }
        self.appends += 1;
        self.appended_symbols += suffix.len() as u64;
        // Map step over the chunk only — identical to one database shard's
        // scan, with the seam at the old stream head playing the role of the
        // shard boundary.
        let (fresh_counts, fresh_states) = self.compiled.shard_scan(suffix, 0..suffix.len());
        for e in 0..self.compiled.len() {
            if self.compiled.is_repeated(e) {
                continue;
            }
            let resolved = match self.cont[e] {
                0 => true,
                parked => {
                    match continuation_advance_items(suffix, self.compiled.items_of(e), parked) {
                        Continuation::Completed => {
                            self.counts[e] += 1;
                            true
                        }
                        Continuation::Died => true,
                        Continuation::Pending(s) => {
                            self.cont[e] = s;
                            false
                        }
                    }
                }
            };
            self.counts[e] += fresh_counts[e];
            if resolved {
                // The freshest seam's live partial (if any) is the one to
                // park at the new head.
                self.cont[e] = fresh_states[e];
            } else {
                // A partial still pending after the whole chunk means every
                // chunk symbol fed it — for a distinct-item episode none of
                // them can be the anchor, so the fresh scan saw nothing.
                debug_assert_eq!(fresh_counts[e], 0);
                debug_assert_eq!(fresh_states[e], 0);
            }
        }
        for (e, eff) in self.effects.iter_mut() {
            let chunk =
                SegmentEffect::compute_items(suffix, self.compiled.items_of(*e), 0..suffix.len());
            *eff = eff.then(&chunk);
            self.counts[*e] = eff.completions[0];
        }
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

    /// Episodes with a live partial match parked at the stream head.
    pub fn parked_partials(&self) -> usize {
        self.cont.iter().filter(|&&s| s != 0).count()
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
    use crate::engine::CountScratch;

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
