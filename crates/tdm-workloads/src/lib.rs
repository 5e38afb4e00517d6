//! # tdm-workloads — event-stream generators for the reproduction
//!
//! The paper's evaluation database is 393,019 letters over the 26-letter Latin
//! alphabet (§5). This crate regenerates that workload deterministically
//! ([`paper_database`]) and provides the richer sources that the paper's
//! motivation calls for but does not publish:
//!
//! * [`uniform_letters`] / [`markov_letters`] — background streams with
//!   controllable symbol statistics;
//! * [`planted`] — streams with known injected episodes (ground truth for
//!   correctness and recall tests);
//! * [`spike_trains`] — a Poisson-ensemble neuronal recording with injected
//!   causal chains, standing in for the multi-electrode data of the paper's
//!   neuroscience motivation (§1, GMiner's setting);
//! * [`market_basket`] — a timestamped purchase stream with seeded temporal
//!   motifs (the paper's §3.1 example).
//!
//! All generators are seeded and reproducible.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod basket;
pub mod spikes;

pub use basket::{market_basket, BasketConfig};
pub use spikes::{spike_trains, CausalChain, SpikeTrainConfig};

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use tdm_core::{Alphabet, Episode, EventDb};

/// Length of the paper's evaluation database (§5: "the database contains
/// 393,019 letters").
pub const PAPER_DB_LEN: usize = 393_019;

/// Default seed used by [`paper_database`]; the publication year.
pub const PAPER_SEED: u64 = 2009;

/// A uniform random letter stream over `A..=Z` with the paper's length and the
/// default seed — the reproduction's stand-in for the paper's (unpublished)
/// database.
pub fn paper_database() -> EventDb {
    uniform_letters(PAPER_DB_LEN, PAPER_SEED)
}

/// A scaled version of [`paper_database`]: `scale` ∈ (0, 1] shrinks the stream
/// proportionally (quick runs keep the same alphabet statistics).
///
/// # Panics
/// Panics when `scale` is not in `(0, 1]`.
pub fn paper_database_scaled(scale: f64) -> EventDb {
    assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
    uniform_letters(
        (PAPER_DB_LEN as f64 * scale).round().max(1.0) as usize,
        PAPER_SEED,
    )
}

/// Uniform i.i.d. letters over the Latin alphabet.
pub fn uniform_letters(n: usize, seed: u64) -> EventDb {
    let ab = Alphabet::latin26();
    let mut rng = SmallRng::seed_from_u64(seed);
    let symbols: Vec<u8> = (0..n).map(|_| rng.random_range(0..26u32) as u8).collect();
    EventDb::new(ab, symbols).expect("symbols in range by construction")
}

/// A first-order Markov letter stream: with probability `persistence` the next
/// symbol repeats the current one, otherwise it is drawn uniformly. Higher
/// persistence produces the bursty, autocorrelated streams typical of real event
/// logs.
///
/// # Panics
/// Panics when `persistence` is not in `[0, 1)`.
pub fn markov_letters(n: usize, seed: u64, persistence: f64) -> EventDb {
    assert!(
        (0.0..1.0).contains(&persistence),
        "persistence must be in [0, 1)"
    );
    let ab = Alphabet::latin26();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut symbols = Vec::with_capacity(n);
    let mut current = rng.random_range(0..26u32) as u8;
    for _ in 0..n {
        if !rng.random_bool(persistence) {
            current = rng.random_range(0..26u32) as u8;
        }
        symbols.push(current);
    }
    EventDb::new(ab, symbols).expect("symbols in range by construction")
}

/// A uniform background stream with `injections` full copies of `episode`
/// planted at random positions (contiguously, so every copy is found under the
/// paper's FSM semantics). Returns the stream and the positions where copies
/// start — ground truth for recall tests.
pub fn planted(n: usize, seed: u64, episode: &Episode, injections: usize) -> (EventDb, Vec<usize>) {
    let base = uniform_letters(n, seed);
    let mut symbols = base.symbols().to_vec();
    let l = episode.level();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x9e3779b97f4a7c15);
    let mut starts = Vec::with_capacity(injections);
    if n >= l {
        for _ in 0..injections {
            let at = rng.random_range(0..(n - l + 1) as u64) as usize;
            symbols[at..at + l].copy_from_slice(episode.items());
            starts.push(at);
        }
    }
    starts.sort_unstable();
    starts.dedup();
    (
        EventDb::new(Alphabet::latin26(), symbols).expect("valid symbols"),
        starts,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdm_core::count::count_episode;

    #[test]
    fn paper_database_shape() {
        let db = paper_database();
        assert_eq!(db.len(), PAPER_DB_LEN);
        assert_eq!(db.alphabet().len(), 26);
        // Roughly uniform: every letter within 20% of the mean.
        let h = db.histogram();
        let mean = PAPER_DB_LEN as f64 / 26.0;
        for (i, &c) in h.iter().enumerate() {
            assert!(
                (c as f64 - mean).abs() < 0.2 * mean,
                "letter {i} count {c} vs mean {mean}"
            );
        }
    }

    #[test]
    fn determinism() {
        assert_eq!(paper_database(), paper_database());
        assert_eq!(uniform_letters(100, 7), uniform_letters(100, 7));
        assert_ne!(
            uniform_letters(100, 7).symbols(),
            uniform_letters(100, 8).symbols()
        );
    }

    #[test]
    fn scaled_database() {
        let db = paper_database_scaled(0.1);
        assert_eq!(db.len(), 39_302);
    }

    #[test]
    #[should_panic(expected = "scale")]
    fn scale_out_of_range_panics() {
        let _ = paper_database_scaled(1.5);
    }

    #[test]
    fn markov_persistence_creates_runs() {
        let bursty = markov_letters(10_000, 3, 0.9);
        let uniform = markov_letters(10_000, 3, 0.0);
        let runs = |db: &EventDb| db.symbols().windows(2).filter(|w| w[0] == w[1]).count();
        assert!(runs(&bursty) > 5 * runs(&uniform));
    }

    #[test]
    fn planted_episodes_are_found() {
        let ab = Alphabet::latin26();
        let ep = Episode::from_str(&ab, "QZJ").unwrap();
        let (db, starts) = planted(50_000, 11, &ep, 40);
        assert!(!starts.is_empty());
        // Every planted contiguous copy is an FSM appearance; the count is at
        // least the number of surviving (non-overwritten) copies.
        let found = count_episode(&db, &ep);
        assert!(
            found >= starts.len() as u64 / 2,
            "found {found} of {} planted",
            starts.len()
        );
    }

    #[test]
    fn planted_ground_truth_positions_contain_episode() {
        let ab = Alphabet::latin26();
        let ep = Episode::from_str(&ab, "XYZ").unwrap();
        let (db, starts) = planted(10_000, 5, &ep, 10);
        for &s in &starts {
            assert_eq!(&db.symbols()[s..s + 3], ep.items());
        }
    }
}
