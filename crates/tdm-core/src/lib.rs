//! # tdm-core — frequent episode mining
//!
//! Core library for the reproduction of *"Multi-Dimensional Characterization of
//! Temporal Data Mining on Graphics Processors"* (Archuleta, Cao, Feng, Scogland;
//! IPPS 2009).
//!
//! Frequent **episode mining** searches an ordered database of items (events) for
//! *episodes* — ordered sequences of items — whose number of appearances divided by
//! the database length exceeds a support threshold α (paper §3.1).
//!
//! This crate provides:
//!
//! * the data model: [`Alphabet`], [`Symbol`], [`EventDb`], [`Episode`];
//! * the paper's Figure-3 finite state machine ([`fsm`]);
//! * sequential counters, including a fast multi-episode *active-set* counter
//!   ([`count`]);
//! * the counting **engine**: candidate sets compiled into flat CSR buffers
//!   with a symbol-anchored index, reusable scan scratch, and database-sharded
//!   parallel counting with boundary fix-up — the CPU analogue of the paper's
//!   block-level Algorithms 3/4 ([`engine`]) — plus two strategies that beat
//!   the scan outright: **vertical occurrence-list counting**
//!   ([`engine::OccurrenceIndex`]) and **word-packed Shift-And advancement**
//!   of many episodes per machine word ([`engine::BitmaskNfa`]), dispatched
//!   per level by estimated cost ([`miner::AutoBackend`]);
//! * **segmented** counting with boundary continuation — the span handling that the
//!   paper's block-level algorithms need (paper Fig. 5) — plus an exact
//!   state-composition variant ([`segment`]);
//! * candidate generation (full permutation spaces and Apriori-style joins)
//!   ([`candidate`]);
//! * the **plan/execute** counting API: [`session::MiningSession`] compiles
//!   each level once and owns the persistent worker pool, while counting
//!   backends implement [`session::Executor`] over borrowed
//!   [`session::CountRequest`] views ([`session`]);
//! * the level-wise mining loop of the paper's Algorithm 1: a session mines
//!   one configuration on one flat candidate lattice — one join, one compile
//!   and one scan per level, whose counts it reads in place — and
//!   [`miner`] is a thin driver over a session;
//! * the episode-expiry extension sketched in the paper's future work ([`expiry`]).
//!
//! ## Quick example
//!
//! ```
//! use tdm_core::{Alphabet, EventDb, Episode, count::count_episode};
//!
//! let ab = Alphabet::latin26();
//! let db = EventDb::from_str_symbols(&ab, "ABCABCAB").unwrap();
//! let ep = Episode::from_str(&ab, "AB").unwrap();
//! assert_eq!(count_episode(&db, &ep), 3);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod alphabet;
pub mod candidate;
pub mod count;
pub mod engine;
pub mod episode;
pub mod expiry;
pub mod fsm;
pub mod miner;
pub mod segment;
pub mod sequence;
pub mod session;
pub mod stats;
pub mod streaming;

pub use alphabet::{Alphabet, Symbol};
pub use engine::{
    BitmaskNfa, CompiledCandidates, CountScratch, CountStrategy, OccurrenceIndex, StrategyCosts,
};
pub use episode::Episode;
pub use miner::{AutoBackend, Miner, MinerConfig, SequentialBackend};
pub use sequence::EventDb;
pub use session::{
    BackendError, CancelToken, CountRequest, Counts, Executor, MineError, MiningSession,
    MiningSessionBuilder,
};
pub use stats::{LevelResult, MiningResult};
pub use streaming::StreamingSession;

/// Errors produced by `tdm-core` constructors and validators.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// A symbol name was not present in the alphabet.
    UnknownSymbol(String),
    /// A symbol id exceeded the alphabet size.
    SymbolOutOfRange {
        /// The offending symbol id.
        id: u8,
        /// The alphabet size it must be below.
        alphabet: usize,
    },
    /// An episode was empty; episodes must contain at least one item.
    EmptyEpisode,
    /// Alphabet construction exceeded the 256-symbol limit.
    AlphabetTooLarge(usize),
    /// Timestamps were required (expiry semantics) but the database has none.
    MissingTimestamps,
    /// Timestamps were not sorted in non-decreasing order.
    UnsortedTimestamps {
        /// Index of the first out-of-order timestamp.
        at: usize,
    },
    /// Mismatched lengths between symbols and timestamps.
    LengthMismatch {
        /// Number of symbols.
        symbols: usize,
        /// Number of timestamps.
        times: usize,
    },
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::UnknownSymbol(s) => write!(f, "unknown symbol {s:?}"),
            CoreError::SymbolOutOfRange { id, alphabet } => {
                write!(
                    f,
                    "symbol id {id} out of range for alphabet of size {alphabet}"
                )
            }
            CoreError::EmptyEpisode => write!(f, "episodes must contain at least one item"),
            CoreError::AlphabetTooLarge(n) => {
                write!(f, "alphabet of size {n} exceeds the 256-symbol limit")
            }
            CoreError::MissingTimestamps => {
                write!(f, "operation requires timestamps but the database has none")
            }
            CoreError::UnsortedTimestamps { at } => {
                write!(
                    f,
                    "timestamps must be non-decreasing (violated at index {at})"
                )
            }
            CoreError::LengthMismatch { symbols, times } => {
                write!(f, "{symbols} symbols but {times} timestamps")
            }
        }
    }
}

impl std::error::Error for CoreError {}

/// Convenient result alias for `tdm-core` operations.
pub type Result<T> = std::result::Result<T, CoreError>;
