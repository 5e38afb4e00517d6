//! Temporal market-basket streams — the paper's §3.1 motivating example
//! ("how often {peanut butter, bread} → {jelly}").
//!
//! Products form the alphabet; shoppers generate timestamped purchase events.
//! Seeded *motifs* make selected product sequences occur in order far more often
//! than chance, so a miner should surface them as frequent episodes — and, being
//! temporal, distinguish `<bread, peanut butter> → jelly` from
//! `<peanut butter, bread> → jelly` (the ordering point §3.1 makes).

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use tdm_core::{Alphabet, EventDb};

/// Configuration of a synthetic purchase stream.
#[derive(Debug, Clone)]
pub struct BasketConfig {
    /// Product names (alphabet; ≤ 256).
    pub products: Vec<String>,
    /// Total number of purchase events.
    pub events: usize,
    /// Motifs: (ordered product-index sequence, per-event probability that the
    /// motif fires and is emitted contiguously).
    pub motifs: Vec<(Vec<u8>, f64)>,
    /// Mean time between purchase events (timestamp units).
    pub mean_gap: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for BasketConfig {
    fn default() -> Self {
        BasketConfig {
            products: [
                "peanut-butter",
                "bread",
                "jelly",
                "milk",
                "eggs",
                "coffee",
                "tea",
                "butter",
                "cheese",
                "apples",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
            events: 20_000,
            motifs: vec![(vec![0, 1, 2], 0.05)], // peanut-butter, bread -> jelly
            mean_gap: 10,
            seed: 1234,
        }
    }
}

/// Generates the stream as a timestamped [`EventDb`] over the product alphabet.
///
/// # Panics
/// Panics when the product list is empty/oversized or a motif references an
/// unknown product.
pub fn market_basket(config: &BasketConfig) -> EventDb {
    assert!(
        !config.products.is_empty() && config.products.len() <= 256,
        "1..=256 products"
    );
    let n_products = config.products.len();
    for (motif, p) in &config.motifs {
        assert!(
            motif.iter().all(|&m| (m as usize) < n_products),
            "motif references unknown product"
        );
        assert!((0.0..=1.0).contains(p), "motif probability in [0,1]");
    }
    let alphabet = Alphabet::new(config.products.clone()).expect("validated size");
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let mut symbols = Vec::with_capacity(config.events);
    let mut times = Vec::with_capacity(config.events);
    let mut t = 0u64;

    while symbols.len() < config.events {
        t += rng.random_range(1..=config.mean_gap.max(1) * 2);
        // Maybe fire a motif (contiguous, in order — a shopper's basket sequence).
        let mut fired = false;
        for (motif, p) in &config.motifs {
            if rng.random_bool(*p) {
                for &item in motif {
                    if symbols.len() >= config.events {
                        break;
                    }
                    symbols.push(item);
                    times.push(t);
                    t += rng.random_range(1..=config.mean_gap.max(1));
                }
                fired = true;
                break;
            }
        }
        if !fired {
            symbols.push(rng.random_range(0..n_products as u32) as u8);
            times.push(t);
        }
    }

    EventDb::with_times(alphabet, symbols, times).expect("times monotone by construction")
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdm_core::count::count_episode;
    use tdm_core::Episode;

    #[test]
    fn motif_is_much_more_frequent_than_reversed() {
        let db = market_basket(&BasketConfig::default());
        assert_eq!(db.len(), 20_000);
        let motif = Episode::new(vec![0, 1, 2]).unwrap();
        let reversed = Episode::new(vec![2, 1, 0]).unwrap();
        let m = count_episode(&db, &motif);
        let r = count_episode(&db, &reversed);
        assert!(m > 5 * (r + 1), "motif {m} vs reversed {r}");
    }

    #[test]
    fn timestamps_are_monotone() {
        let db = market_basket(&BasketConfig::default());
        let times = db.times().unwrap();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn determinism_and_seeding() {
        let a = market_basket(&BasketConfig::default());
        let b = market_basket(&BasketConfig::default());
        assert_eq!(a, b);
        let c = market_basket(&BasketConfig {
            seed: 99,
            ..Default::default()
        });
        assert_ne!(a.symbols(), c.symbols());
    }

    #[test]
    #[should_panic(expected = "unknown product")]
    fn bad_motif_rejected() {
        let _ = market_basket(&BasketConfig {
            motifs: vec![(vec![200], 0.1)],
            ..Default::default()
        });
    }

    #[test]
    fn alphabet_names_preserved() {
        let db = market_basket(&BasketConfig::default());
        assert_eq!(db.alphabet().name(tdm_core::Symbol(0)), "peanut-butter");
        assert_eq!(db.alphabet().name(tdm_core::Symbol(2)), "jelly");
    }
}
