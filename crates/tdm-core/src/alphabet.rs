//! Symbols and alphabets.
//!
//! The paper's evaluation uses the 26 upper-case Latin letters as its item alphabet
//! (paper §5). This module generalizes that to any alphabet of up to 256 named
//! symbols so that other event sources (neuron ids, market-basket products) can be
//! mapped onto the same mining machinery.

use crate::{CoreError, Result};
use serde::{Deserialize, Serialize};

/// A single item (event type) in an [`Alphabet`], stored as a compact `u8` id.
///
/// The compact representation matters: the mining kernels stream millions of
/// symbols, and one byte per event is what the paper's GPU kernels used for their
/// letter database.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Symbol(pub u8);

impl Symbol {
    /// The id as a usable index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u8> for Symbol {
    fn from(v: u8) -> Self {
        Symbol(v)
    }
}

/// A finite, ordered set of named symbols (at most 256).
///
/// Symbol ids are dense: `0..len()`. Names are unique.
///
/// The names live behind an [`Arc`](std::sync::Arc), so cloning an alphabet
/// (every decoded [`EventDb`](crate::EventDb) holds one) is a refcount bump.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Alphabet {
    names: std::sync::Arc<[String]>,
}

impl Alphabet {
    /// Builds an alphabet from unique symbol names.
    ///
    /// # Errors
    /// Returns [`CoreError::AlphabetTooLarge`] for more than 256 names.
    pub fn new<S: Into<String>>(names: impl IntoIterator<Item = S>) -> Result<Self> {
        let names: std::sync::Arc<[String]> = names.into_iter().map(Into::into).collect();
        if names.len() > 256 {
            return Err(CoreError::AlphabetTooLarge(names.len()));
        }
        Ok(Alphabet { names })
    }

    /// The paper's alphabet: the 26 upper-case Latin letters `A..=Z`.
    pub fn latin26() -> Self {
        Alphabet {
            names: (b'A'..=b'Z').map(|c| (c as char).to_string()).collect(),
        }
    }

    /// An alphabet of `n` numbered symbols `s0..s{n-1}` (useful for neuron ids).
    ///
    /// # Errors
    /// Returns [`CoreError::AlphabetTooLarge`] when `n > 256`.
    pub fn numbered(n: usize) -> Result<Self> {
        if n > 256 {
            return Err(CoreError::AlphabetTooLarge(n));
        }
        Ok(Alphabet {
            names: (0..n).map(|i| format!("s{i}")).collect(),
        })
    }

    /// Number of symbols.
    #[inline]
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when the alphabet has no symbols.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// All symbols in id order.
    pub fn symbols(&self) -> impl Iterator<Item = Symbol> + '_ {
        (0..self.names.len() as u16).map(|i| Symbol(i as u8))
    }

    /// The name of a symbol.
    ///
    /// # Panics
    /// Panics when the symbol id is outside the alphabet (programming error).
    pub fn name(&self, s: Symbol) -> &str {
        &self.names[s.index()]
    }

    /// Looks a symbol up by name.
    ///
    /// # Errors
    /// Returns [`CoreError::UnknownSymbol`] when absent.
    pub fn symbol(&self, name: &str) -> Result<Symbol> {
        self.names
            .iter()
            .position(|n| n == name)
            .map(|i| Symbol(i as u8))
            .ok_or_else(|| CoreError::UnknownSymbol(name.to_string()))
    }

    /// Validates that a raw id belongs to this alphabet.
    ///
    /// # Errors
    /// Returns [`CoreError::SymbolOutOfRange`] otherwise.
    pub fn check(&self, id: u8) -> Result<Symbol> {
        if (id as usize) < self.names.len() {
            Ok(Symbol(id))
        } else {
            Err(CoreError::SymbolOutOfRange {
                id,
                alphabet: self.names.len(),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latin26_has_26_letters_in_order() {
        let ab = Alphabet::latin26();
        assert_eq!(ab.len(), 26);
        assert_eq!(ab.name(Symbol(0)), "A");
        assert_eq!(ab.name(Symbol(25)), "Z");
        assert_eq!(ab.symbol("Q").unwrap(), Symbol(16));
    }

    #[test]
    fn numbered_alphabet_round_trips() {
        let ab = Alphabet::numbered(100).unwrap();
        assert_eq!(ab.len(), 100);
        assert_eq!(ab.symbol("s42").unwrap(), Symbol(42));
        assert_eq!(ab.name(Symbol(99)), "s99");
    }

    #[test]
    fn oversized_alphabet_rejected() {
        assert!(matches!(
            Alphabet::numbered(257),
            Err(CoreError::AlphabetTooLarge(257))
        ));
    }

    #[test]
    fn unknown_symbol_rejected() {
        let ab = Alphabet::latin26();
        assert!(matches!(
            ab.symbol("nope"),
            Err(CoreError::UnknownSymbol(_))
        ));
        assert!(matches!(
            ab.check(26),
            Err(CoreError::SymbolOutOfRange { id: 26, .. })
        ));
        assert_eq!(ab.check(25).unwrap(), Symbol(25));
    }

    #[test]
    fn symbols_iterator_is_dense() {
        let ab = Alphabet::numbered(7).unwrap();
        let ids: Vec<u8> = ab.symbols().map(|s| s.0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn full_256_symbol_alphabet_is_allowed() {
        let ab = Alphabet::numbered(256).unwrap();
        assert_eq!(ab.len(), 256);
        assert_eq!(ab.check(255).unwrap(), Symbol(255));
    }
}
