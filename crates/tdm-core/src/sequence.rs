//! The ordered event database `D = {d1, d2, ..., dn}` (paper §3.1).
//!
//! The database is a flat `Vec<u8>` of symbol ids — exactly the representation the
//! paper's kernels stream through texture or shared memory — plus optional
//! per-event timestamps, which the episode-expiry extension (paper §6) requires.

use crate::alphabet::{Alphabet, Symbol};
use crate::{CoreError, Result};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// The content hash's starting state and its odd multiplier.
const HASH_SEED: u64 = 0x243f_6a88_85a3_08d3;
const HASH_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// One content-hash step: folds an 8-byte word into the state. For a fixed
/// word the step is a bijection of the state (xor, odd multiply, rotate), so
/// two inputs that differ in one word never meet again.
fn mix(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(HASH_MUL).rotate_left(29)
}

/// Folds `bytes` into the state 8 bytes per step, little-endian, then the
/// remaining 0–7 bytes zero-padded to one more word.
fn mix_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let word: [u8; 8] = word.try_into().expect("8-byte chunk");
        h = mix(h, u64::from_le_bytes(word));
    }
    let mut tail = [0u8; 8];
    tail[..words.remainder().len()].copy_from_slice(words.remainder());
    mix(h, u64::from_le_bytes(tail))
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
        for &id in &symbols {
            alphabet.check(id)?;
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
    /// Bytes decode through a 256-entry table built once per call, straight
    /// into the shared stream buffer; the table holds only single-byte names
    /// (the first symbol of each wins, as in [`Alphabet::symbol`]), so a hit
    /// is a valid id and the table is the validation. A string with any miss
    /// (a non-ASCII character, or a character outside the alphabet) decodes
    /// again one character at a time, table hits first and
    /// [`Alphabet::symbol`] for the rest, which reports the first unknown
    /// character.
    ///
    /// # Errors
    /// [`CoreError::UnknownSymbol`] for characters outside the alphabet.
    pub fn from_str_symbols(alphabet: &Alphabet, s: &str) -> Result<Self> {
        const MISS: u16 = u16::MAX;
        let mut table = [MISS; 256];
        // In reverse, so the first symbol of a repeated name wins.
        for id in (0..alphabet.len() as u16).rev() {
            if let &[b] = alphabet.name(Symbol(id as u8)).as_bytes() {
                table[b as usize] = id;
            }
        }
        // One allocation, filled in place. A miss sets bits above a `u8` in
        // `seen`, which stays in a register (a flag the loop stored through
        // a reference would be reloaded on every byte).
        let mut symbols: Arc<[u8]> = std::iter::repeat_n(0, s.len()).collect();
        let mut seen = 0u16;
        let slots = Arc::get_mut(&mut symbols).expect("a fresh buffer has no other handle");
        for (slot, b) in slots.iter_mut().zip(s.bytes()) {
            let id = table[b as usize];
            seen |= id;
            *slot = id as u8;
        }
        if seen > u16::from(u8::MAX) {
            let mut ids = Vec::with_capacity(s.len());
            for ch in s.chars() {
                ids.push(match table.get(ch as usize) {
                    Some(&id) if id != MISS => id as u8,
                    _ => alphabet.symbol(ch.encode_utf8(&mut [0; 4]))?.0,
                });
            }
            symbols = ids.into();
        }
        Ok(EventDb {
            alphabet: alphabet.clone(),
            symbols,
            times: None,
            epoch: 0,
        })
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
    /// (an append carries no timestamps to keep its channel whole).
    pub fn extend(&mut self, suffix: &[u8]) -> Result<u64> {
        if self.times.is_some() {
            return Err(CoreError::MissingTimestamps);
        }
        for &id in suffix {
            self.alphabet.check(id)?;
        }
        if suffix.is_empty() {
            return Ok(self.epoch);
        }
        // One buffer at the grown length, filled in place with two slice
        // copies, as `from_str_symbols` does; the old buffer is left to the
        // snapshots that hold it.
        let old = self.symbols.len();
        let mut grown: Arc<[u8]> = std::iter::repeat_n(0, old + suffix.len()).collect();
        let slots = Arc::get_mut(&mut grown).expect("a fresh buffer has no other handle");
        slots[..old].copy_from_slice(&self.symbols);
        slots[old..].copy_from_slice(suffix);
        self.symbols = grown;
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

    /// 64-bit hash of the database's content, 8 bytes per step: the
    /// alphabet size, the symbol stream in little-endian words (then its 0–7
    /// last bytes zero-padded to one more word), a timestamp tag and the timestamps when present, and the
    /// length last, so the fold over the stream does not depend on how long
    /// it will grow. Every byte of content participates: streams that differ
    /// in one byte always hash differently, and equal prefixes with different
    /// tails almost always do. `tdm-serve`'s index cache keys on it and
    /// `tdm-gpu`'s device pipeline fingerprints its resident stream with it;
    /// a 64-bit hash can collide, so a match is confirmed by comparing
    /// content.
    pub fn content_hash(&self) -> u64 {
        let h = mix_bytes(mix(HASH_SEED, self.alphabet.len() as u64), &self.symbols);
        let h = match &self.times {
            Some(times) => times.iter().fold(mix(h, 1), |h, &t| mix(h, t)),
            None => mix(h, 0),
        };
        mix(h, self.len() as u64)
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
    fn content_hash_is_pinned_over_the_cache_key_words() {
        // Pinned values: the alphabet size, the symbols in little-endian
        // words, the 0-7 bytes left zero-padded to one more word, a timestamp
        // tag and the timestamps, then the length.
        let ab = Alphabet::latin26();
        let untimed = EventDb::from_str_symbols(&ab, "ABAB").unwrap();
        assert_eq!(untimed.content_hash(), 0xc08d_615e_6806_9136);
        // The same steps by hand: the length is folded in after everything.
        let h = mix(
            mix(HASH_SEED, 26),
            u64::from_le_bytes([0, 1, 0, 1, 0, 0, 0, 0]),
        );
        assert_eq!(untimed.content_hash(), mix(mix(h, 0), 4));
        // A whole last word is still followed by a zero-padded (empty) one.
        let eight = EventDb::from_str_symbols(&ab, "ABCDEFGH").unwrap();
        let words = mix(mix(HASH_SEED, 26), 0x0706_0504_0302_0100);
        assert_eq!(eight.content_hash(), mix(mix(mix(words, 0), 0), 8));
        let nine = EventDb::from_str_symbols(&ab, "ABCDEFGHI").unwrap();
        assert_eq!(nine.content_hash(), 0x9b24_7135_20c3_9b1e);
        let timed = EventDb::with_times(ab.clone(), vec![0, 1, 2], vec![5, 9, 300]).unwrap();
        assert_eq!(timed.content_hash(), 0xb625_88dd_ece3_6a78);
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

        // One snapshot per epoch, held over many appends (empty ones
        // included): each still reads the stream as it was at its epoch.
        let mut model = db.symbols().to_vec();
        let mut held = vec![(db.clone(), model.clone())];
        for step in 0..40u8 {
            let batch: Vec<u8> = (0..step % 5).map(|i| (step + i) % 26).collect();
            let epoch = db.epoch() + u64::from(!batch.is_empty());
            assert_eq!(db.extend(&batch).unwrap(), epoch);
            model.extend_from_slice(&batch);
            held.push((db.clone(), model.clone()));
        }
        assert_eq!(db.symbols(), &model[..]);
        for (snapshot, stream) in &held {
            assert_eq!(snapshot.symbols(), &stream[..]);
        }
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
