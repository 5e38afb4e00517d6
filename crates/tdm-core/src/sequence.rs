//! The ordered event database `D = {d1, d2, ..., dn}` (paper §3.1).
//!
//! The database is a flat `Vec<u8>` of symbol ids — exactly the representation the
//! paper's kernels stream through texture or shared memory — plus optional
//! per-event timestamps, which the episode-expiry extension (paper §6) requires.

use crate::alphabet::{Alphabet, Symbol};
use crate::{CoreError, Result};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into the FNV-1a state `h`, one byte at a time.
fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(FNV_PRIME);
    }
}

/// An ordered database of events over an [`Alphabet`].
///
/// The symbol stream lives behind an [`Arc`], so cloning the database — or
/// snapshotting the stream into a mining session — is a refcount bump, never
/// a byte copy.
///
/// The database is **append-only**: [`append`](EventDb::append) /
/// [`extend`](EventDb::extend) grow the stream by allocating a fresh `Arc`
/// buffer and bumping the [`epoch`](EventDb::epoch) counter, so every
/// previously taken [`symbols_shared`](EventDb::symbols_shared) snapshot keeps
/// aliasing the buffer it was taken from — sessions planned on it stay valid
/// while the live head moves on.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EventDb {
    alphabet: Alphabet,
    symbols: Arc<[u8]>,
    /// Optional non-decreasing timestamps, one per symbol.
    times: Option<Vec<u64>>,
    /// Append generation: 0 at construction, +1 per successful append batch.
    epoch: u64,
}

/// Equality is **content** equality (alphabet, symbols, timestamps): two
/// databases that reached the same stream through different append histories
/// compare equal even though their epochs differ.
impl PartialEq for EventDb {
    fn eq(&self, other: &Self) -> bool {
        self.alphabet == other.alphabet
            && self.symbols == other.symbols
            && self.times == other.times
    }
}

impl Eq for EventDb {}

impl EventDb {
    /// Builds a database from raw symbol ids, validating them against the alphabet.
    ///
    /// # Errors
    /// [`CoreError::SymbolOutOfRange`] when an id is not in the alphabet.
    pub fn new(alphabet: Alphabet, symbols: Vec<u8>) -> Result<Self> {
        if let Some(&bad) = symbols.iter().find(|&&s| s as usize >= alphabet.len()) {
            return Err(CoreError::SymbolOutOfRange {
                id: bad,
                alphabet: alphabet.len(),
            });
        }
        Ok(EventDb {
            alphabet,
            symbols: symbols.into(),
            times: None,
            epoch: 0,
        })
    }

    /// Builds a timestamped database. Timestamps must be non-decreasing and one per
    /// symbol.
    ///
    /// # Errors
    /// [`CoreError::LengthMismatch`] or [`CoreError::UnsortedTimestamps`] on invalid
    /// input (plus the validations of [`EventDb::new`]).
    pub fn with_times(alphabet: Alphabet, symbols: Vec<u8>, times: Vec<u64>) -> Result<Self> {
        if symbols.len() != times.len() {
            return Err(CoreError::LengthMismatch {
                symbols: symbols.len(),
                times: times.len(),
            });
        }
        if let Some(at) = times.windows(2).position(|w| w[0] > w[1]) {
            return Err(CoreError::UnsortedTimestamps { at: at + 1 });
        }
        let mut db = EventDb::new(alphabet, symbols)?;
        db.times = Some(times);
        Ok(db)
    }

    /// Parses a string of single-character symbol names (e.g. `"ABCAB"` over
    /// [`Alphabet::latin26`]).
    ///
    /// ASCII characters decode through a 128-entry table built once per call
    /// (the first symbol of each single-character name wins, as in
    /// [`Alphabet::symbol`]); any other character takes the
    /// [`Alphabet::symbol`] lookup itself.
    ///
    /// # Errors
    /// [`CoreError::UnknownSymbol`] for characters outside the alphabet.
    pub fn from_str_symbols(alphabet: &Alphabet, s: &str) -> Result<Self> {
        let mut ascii = [None::<u8>; 128];
        for symbol in alphabet.symbols() {
            if let &[b] = alphabet.name(symbol).as_bytes() {
                if let Some(slot) = ascii.get_mut(b as usize) {
                    slot.get_or_insert(symbol.0);
                }
            }
        }
        let mut symbols = Vec::with_capacity(s.len());
        for ch in s.chars() {
            let id = match ascii.get(ch as usize) {
                Some(&Some(id)) => id,
                _ => alphabet.symbol(ch.encode_utf8(&mut [0; 4]))?.0,
            };
            symbols.push(id);
        }
        EventDb::new(alphabet.clone(), symbols)
    }

    /// The alphabet the events are drawn from.
    #[inline]
    pub fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    /// The raw symbol stream (one byte per event).
    #[inline]
    pub fn symbols(&self) -> &[u8] {
        &self.symbols
    }

    /// The symbol stream as a shared handle — a refcount bump, not a copy.
    ///
    /// Mining sessions snapshot the stream through this, so a session's
    /// snapshot aliases the database's own buffer for the session's lifetime.
    #[inline]
    pub fn symbols_shared(&self) -> Arc<[u8]> {
        Arc::clone(&self.symbols)
    }

    /// The append generation of this database value: 0 at construction,
    /// incremented once per successful (non-empty) [`append`](EventDb::append)
    /// / [`extend`](EventDb::extend) batch: a version number for the stream.
    /// Streaming ingest (`tdm-serve`'s `StreamIngest`) reports it with each
    /// sealed window, and the network front-end puts it on the wire.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Appends one event to an untimed database. See [`extend`](EventDb::extend).
    ///
    /// # Errors
    /// As for [`extend`](EventDb::extend).
    pub fn append(&mut self, symbol: u8) -> Result<u64> {
        self.extend(&[symbol])
    }

    /// Appends a batch of events, producing a fresh epoch-versioned stream
    /// buffer: the old `Arc<[u8]>` is left untouched (any outstanding
    /// [`symbols_shared`](EventDb::symbols_shared) snapshot still aliases it)
    /// and [`epoch`](EventDb::epoch) is bumped. Returns the new epoch. An
    /// empty batch is a no-op and does *not* bump the epoch.
    ///
    /// ```
    /// use tdm_core::{Alphabet, EventDb};
    ///
    /// let mut db = EventDb::from_str_symbols(&Alphabet::latin26(), "ABAB").unwrap();
    /// let snapshot = db.symbols_shared();   // parked at epoch 0
    /// assert_eq!(db.extend(&[0, 1]).unwrap(), 1);
    /// assert_eq!(db.len(), 6);
    /// assert_eq!(&snapshot[..], b"\x00\x01\x00\x01"); // old snapshot intact
    /// ```
    ///
    /// # Errors
    /// [`CoreError::SymbolOutOfRange`] for ids outside the alphabet;
    /// [`CoreError::MissingTimestamps`] when this database is timestamped
    /// (use [`extend_with_times`](EventDb::extend_with_times)).
    pub fn extend(&mut self, suffix: &[u8]) -> Result<u64> {
        if self.times.is_some() {
            return Err(CoreError::MissingTimestamps);
        }
        self.extend_symbols(suffix)
    }

    /// [`extend`](EventDb::extend) for timestamped databases: appends a batch
    /// of events with one timestamp per symbol. Returns the new epoch.
    ///
    /// # Errors
    /// [`CoreError::MissingTimestamps`] when this database has no timestamp
    /// channel; [`CoreError::LengthMismatch`] when `times` and `suffix`
    /// disagree; [`CoreError::UnsortedTimestamps`] when the batch regresses —
    /// including across the append seam; plus the symbol validation of
    /// [`extend`](EventDb::extend).
    pub fn extend_with_times(&mut self, suffix: &[u8], times: &[u64]) -> Result<u64> {
        let Some(existing) = self.times.as_ref() else {
            return Err(CoreError::MissingTimestamps);
        };
        if suffix.len() != times.len() {
            return Err(CoreError::LengthMismatch {
                symbols: suffix.len(),
                times: times.len(),
            });
        }
        if existing
            .last()
            .zip(times.first())
            .is_some_and(|(&head, &first)| first < head)
        {
            // The seam itself regresses: the first appended timestamp is the
            // offender, at the first position past the current stream.
            return Err(CoreError::UnsortedTimestamps {
                at: self.symbols.len(),
            });
        }
        if let Some(at) = times.windows(2).position(|w| w[0] > w[1]) {
            return Err(CoreError::UnsortedTimestamps {
                at: self.symbols.len() + at + 1,
            });
        }
        let epoch = self.extend_symbols(suffix)?;
        if !suffix.is_empty() {
            self.times
                .as_mut()
                .expect("timestamp channel checked above")
                .extend_from_slice(times);
        }
        Ok(epoch)
    }

    /// Shared append tail: validates the suffix, reallocates the stream
    /// buffer, bumps the epoch.
    fn extend_symbols(&mut self, suffix: &[u8]) -> Result<u64> {
        if let Some(&bad) = suffix.iter().find(|&&s| s as usize >= self.alphabet.len()) {
            return Err(CoreError::SymbolOutOfRange {
                id: bad,
                alphabet: self.alphabet.len(),
            });
        }
        if suffix.is_empty() {
            return Ok(self.epoch);
        }
        let mut grown = Vec::with_capacity(self.symbols.len() + suffix.len());
        grown.extend_from_slice(&self.symbols);
        grown.extend_from_slice(suffix);
        self.symbols = grown.into();
        self.epoch += 1;
        Ok(self.epoch)
    }

    /// Optional timestamps (present only for timestamped databases).
    #[inline]
    pub fn times(&self) -> Option<&[u64]> {
        self.times.as_deref()
    }

    /// Timestamps or an error when absent.
    ///
    /// # Errors
    /// [`CoreError::MissingTimestamps`].
    pub fn require_times(&self) -> Result<&[u64]> {
        self.times.as_deref().ok_or(CoreError::MissingTimestamps)
    }

    /// Number of events `n`.
    #[inline]
    pub fn len(&self) -> usize {
        self.symbols.len()
    }

    /// True for an empty database.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.symbols.is_empty()
    }

    /// The event at position `i`.
    #[inline]
    pub fn get(&self, i: usize) -> Symbol {
        Symbol(self.symbols[i])
    }

    /// Renders the database back to single-character names (diagnostics/tests).
    pub fn to_display_string(&self) -> String {
        self.symbols
            .iter()
            .map(|&s| self.alphabet.name(Symbol(s)).to_string())
            .collect()
    }

    /// 64-bit FNV-1a hash of the database's content: alphabet size, length,
    /// the full symbol stream, and the timestamps when present. Every byte of
    /// content participates, so equal prefixes with different tails hash
    /// differently. `tdm-serve`'s index cache keys on it and `tdm-gpu`'s
    /// device pipeline fingerprints its resident stream with it; a 64-bit
    /// hash can collide, so a match is confirmed by comparing content.
    pub fn content_hash(&self) -> u64 {
        let mut h = FNV_OFFSET;
        fnv1a(&mut h, &(self.alphabet.len() as u64).to_le_bytes());
        fnv1a(&mut h, &(self.len() as u64).to_le_bytes());
        fnv1a(&mut h, &self.symbols);
        match &self.times {
            Some(times) => {
                fnv1a(&mut h, &[1]);
                for &t in times {
                    fnv1a(&mut h, &t.to_le_bytes());
                }
            }
            None => fnv1a(&mut h, &[0]),
        }
        h
    }

    /// Per-symbol occurrence histogram (length = alphabet size).
    pub fn histogram(&self) -> Vec<u64> {
        let mut h = vec![0u64; self.alphabet.len()];
        for &s in self.symbols.iter() {
            h[s as usize] += 1;
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn content_hash_is_fnv1a_over_the_cache_key_bytes() {
        // Pinned values: alphabet size and length as little-endian u64s,
        // the symbols, then a timestamp tag byte and the timestamps.
        let ab = Alphabet::latin26();
        let untimed = EventDb::from_str_symbols(&ab, "ABAB").unwrap();
        assert_eq!(untimed.content_hash(), 0xaf8f_dcdc_c960_1a29);
        let timed = EventDb::with_times(ab.clone(), vec![0, 1, 2], vec![5, 9, 300]).unwrap();
        assert_eq!(timed.content_hash(), 0xcdba_4ac2_2c91_229d);
        // An empty timestamp channel still differs from none.
        assert_ne!(
            EventDb::new(ab.clone(), vec![]).unwrap().content_hash(),
            EventDb::with_times(ab, vec![], vec![])
                .unwrap()
                .content_hash()
        );
    }

    #[test]
    fn from_str_round_trips() {
        let ab = Alphabet::latin26();
        let db = EventDb::from_str_symbols(&ab, "HELLOWORLD").unwrap();
        assert_eq!(db.len(), 10);
        assert_eq!(db.to_display_string(), "HELLOWORLD");
        assert_eq!(db.get(0), Symbol(b'H' - b'A'));
    }

    #[test]
    fn rejects_out_of_alphabet_ids() {
        let ab = Alphabet::numbered(4).unwrap();
        assert!(matches!(
            EventDb::new(ab, vec![0, 1, 7]),
            Err(CoreError::SymbolOutOfRange { id: 7, .. })
        ));
    }

    #[test]
    fn timestamps_validated() {
        let ab = Alphabet::numbered(3).unwrap();
        assert!(matches!(
            EventDb::with_times(ab.clone(), vec![0, 1], vec![5]),
            Err(CoreError::LengthMismatch { .. })
        ));
        assert!(matches!(
            EventDb::with_times(ab.clone(), vec![0, 1, 2], vec![5, 4, 6]),
            Err(CoreError::UnsortedTimestamps { at: 1 })
        ));
        let db = EventDb::with_times(ab, vec![0, 1, 2], vec![5, 5, 6]).unwrap();
        assert_eq!(db.require_times().unwrap(), &[5, 5, 6]);
    }

    #[test]
    fn missing_timestamps_error() {
        let ab = Alphabet::numbered(2).unwrap();
        let db = EventDb::new(ab, vec![0, 1]).unwrap();
        assert!(matches!(
            db.require_times(),
            Err(CoreError::MissingTimestamps)
        ));
    }

    #[test]
    fn histogram_counts_every_symbol() {
        let ab = Alphabet::latin26();
        let db = EventDb::from_str_symbols(&ab, "AABBBZ").unwrap();
        let h = db.histogram();
        assert_eq!(h[0], 2);
        assert_eq!(h[1], 3);
        assert_eq!(h[25], 1);
        assert_eq!(h.iter().sum::<u64>(), 6);
    }

    #[test]
    fn symbols_shared_aliases_the_database_buffer() {
        let ab = Alphabet::latin26();
        let db = EventDb::from_str_symbols(&ab, "ABAB").unwrap();
        let s1 = db.symbols_shared();
        let s2 = db.symbols_shared();
        assert!(Arc::ptr_eq(&s1, &s2), "shared handles must alias");
        assert_eq!(s1.as_ptr(), db.symbols().as_ptr());
        let copy = db.clone();
        assert_eq!(
            copy.symbols().as_ptr(),
            db.symbols().as_ptr(),
            "cloning the database must share the stream, not copy it"
        );
    }

    #[test]
    fn extend_versions_the_stream_and_keeps_snapshots_valid() {
        let ab = Alphabet::latin26();
        let mut db = EventDb::from_str_symbols(&ab, "ABC").unwrap();
        assert_eq!(db.epoch(), 0);
        let parked = db.symbols_shared();
        assert_eq!(db.extend(&[3, 4]).unwrap(), 1);
        assert_eq!(db.append(5).unwrap(), 2);
        assert_eq!(db.to_display_string(), "ABCDEF");
        assert_eq!(db.epoch(), 2);
        // The parked snapshot still reads the epoch-0 buffer, untouched.
        assert_eq!(&parked[..], &[0, 1, 2]);
        assert_ne!(parked.as_ptr(), db.symbols().as_ptr());
        // An empty batch changes nothing, including the epoch.
        assert_eq!(db.extend(&[]).unwrap(), 2);
        assert_eq!(db.epoch(), 2);
    }

    #[test]
    fn extend_validates_symbols_and_timestamp_channel() {
        let ab = Alphabet::numbered(3).unwrap();
        let mut db = EventDb::new(ab.clone(), vec![0, 1]).unwrap();
        assert!(matches!(
            db.extend(&[2, 9]),
            Err(CoreError::SymbolOutOfRange { id: 9, .. })
        ));
        // A failed extend leaves the database (and epoch) untouched.
        assert_eq!(db.len(), 2);
        assert_eq!(db.epoch(), 0);
        let mut timed = EventDb::with_times(ab, vec![0, 1], vec![5, 6]).unwrap();
        assert!(matches!(
            timed.extend(&[2]),
            Err(CoreError::MissingTimestamps)
        ));
        assert!(matches!(
            db.extend_with_times(&[2], &[7]),
            Err(CoreError::MissingTimestamps)
        ));
    }

    #[test]
    fn extend_with_times_checks_the_seam() {
        let ab = Alphabet::numbered(3).unwrap();
        let mut db = EventDb::with_times(ab, vec![0, 1], vec![5, 6]).unwrap();
        assert!(matches!(
            db.extend_with_times(&[2, 2], &[4, 8]),
            Err(CoreError::UnsortedTimestamps { at: 2 })
        ));
        assert!(matches!(
            db.extend_with_times(&[2, 2], &[8, 7]),
            Err(CoreError::UnsortedTimestamps { at: 3 })
        ));
        assert!(matches!(
            db.extend_with_times(&[2], &[7, 8]),
            Err(CoreError::LengthMismatch { .. })
        ));
        assert_eq!(db.extend_with_times(&[2, 0], &[6, 9]).unwrap(), 1);
        assert_eq!(db.require_times().unwrap(), &[5, 6, 6, 9]);
        assert_eq!(db.len(), 4);
    }

    #[test]
    fn equality_ignores_append_history() {
        let ab = Alphabet::numbered(3).unwrap();
        let mut grown = EventDb::new(ab.clone(), vec![0, 1]).unwrap();
        grown.extend(&[2]).unwrap();
        let batch = EventDb::new(ab, vec![0, 1, 2]).unwrap();
        assert_eq!(grown, batch);
        assert_ne!(grown.epoch(), batch.epoch());
    }

    /// The per-letter path the decode table replaces: one
    /// [`Alphabet::symbol`] lookup per character.
    fn decode_per_letter(alphabet: &Alphabet, s: &str) -> Result<Vec<u8>> {
        s.chars()
            .map(|ch| alphabet.symbol(&ch.to_string()).map(|sym| sym.0))
            .collect()
    }

    proptest::proptest! {
        /// Table-driven decoding returns the per-letter path's stream, or its
        /// error, for every alphabet shape: single-letter names, multi-char
        /// names that never match one char, and a duplicated single-char name
        /// (the first id wins) next to a non-ASCII one.
        #[test]
        fn decode_table_matches_the_per_letter_path(
            letters in proptest::collection::vec(0u8..26, 0..40),
            junk in proptest::collection::vec(0usize..8, 0..2),
            at in 0usize..41,
        ) {
            // Upper-case letters, plus at most one lower-case, unknown-ASCII
            // or non-ASCII character spliced in.
            let mut chars: Vec<char> = letters.iter().map(|&c| (b'A' + c) as char).collect();
            for &j in &junk {
                let pick = ['a', 'z', '#', '0', ' ', '\u{7f}', 'é', '→'][j];
                chars.insert(at % (chars.len() + 1), pick);
            }
            let s: String = chars.into_iter().collect();
            let names = (b'A'..=b'Z').map(|c| String::from(c as char));
            let duplicated = Alphabet::new(names.chain(["A".into(), "é".into(), "s1".into()])).unwrap();
            for alphabet in [Alphabet::latin26(), Alphabet::numbered(100).unwrap(), duplicated] {
                let table = EventDb::from_str_symbols(&alphabet, &s).map(|db| db.symbols().to_vec());
                proptest::prop_assert_eq!(table, decode_per_letter(&alphabet, &s));
            }
        }
    }

    #[test]
    fn empty_database_is_fine() {
        let ab = Alphabet::latin26();
        let db = EventDb::new(ab, vec![]).unwrap();
        assert!(db.is_empty());
        assert_eq!(db.histogram().iter().sum::<u64>(), 0);
    }
}
