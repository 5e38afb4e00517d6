//! Episodes: ordered sequences of items (paper §3.1).
//!
//! An episode `A = <a1, a2, ..., aL>` appears in the database whenever its items
//! occur in order, as the paper's Figure-3 machine counts them ([`crate::fsm`]).
//! The *level* of an episode is its length `L`.

use crate::alphabet::{Alphabet, Symbol};
use crate::{CoreError, Result};
use serde::{Deserialize, Serialize};

/// An ordered sequence of items to search for.
///
/// Stored as raw symbol ids for the same streaming-efficiency reason as
/// [`crate::EventDb`]. Episodes of the paper's candidate spaces never repeat an
/// item ([`Episode::has_distinct_items`] is true), but the type permits repeats so
/// the general semantics can be expressed and tested.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Episode {
    items: Vec<u8>,
}

impl Episode {
    /// Builds an episode from raw symbol ids.
    ///
    /// # Errors
    /// [`CoreError::EmptyEpisode`] when `items` is empty.
    pub fn new(items: Vec<u8>) -> Result<Self> {
        if items.is_empty() {
            return Err(CoreError::EmptyEpisode);
        }
        Ok(Episode { items })
    }

    /// Builds and validates an episode against an alphabet.
    ///
    /// # Errors
    /// [`CoreError::EmptyEpisode`] or [`CoreError::SymbolOutOfRange`].
    pub fn checked(alphabet: &Alphabet, items: Vec<u8>) -> Result<Self> {
        for &i in &items {
            alphabet.check(i)?;
        }
        Episode::new(items)
    }

    /// Parses single-character symbol names, e.g. `Episode::from_str(&ab, "ABC")`.
    ///
    /// # Errors
    /// [`CoreError::UnknownSymbol`] or [`CoreError::EmptyEpisode`].
    pub fn from_str(alphabet: &Alphabet, s: &str) -> Result<Self> {
        let mut items = Vec::with_capacity(s.len());
        for ch in s.chars() {
            items.push(alphabet.symbol(&ch.to_string())?.0);
        }
        Episode::new(items)
    }

    /// The episode's items as raw symbol ids.
    #[inline]
    pub fn items(&self) -> &[u8] {
        &self.items
    }

    /// The episode level `L` (its length).
    #[inline]
    pub fn level(&self) -> usize {
        self.items.len()
    }

    /// First item `a1` (always present).
    #[inline]
    pub fn first(&self) -> Symbol {
        Symbol(self.items[0])
    }

    /// Last item `aL` (always present).
    #[inline]
    pub fn last(&self) -> Symbol {
        Symbol(self.items[self.items.len() - 1])
    }

    /// True when no item repeats — the paper's candidate spaces (permutations of
    /// distinct letters) always satisfy this. Segmented counting is exactly
    /// consistent with sequential counting for such episodes (see
    /// [`crate::segment`]).
    pub fn has_distinct_items(&self) -> bool {
        distinct_items(&self.items)
    }

    /// Renders the episode with an alphabet, e.g. `<A,B,C>`.
    pub fn display(&self, alphabet: &Alphabet) -> String {
        let names: Vec<&str> = self
            .items
            .iter()
            .map(|&i| alphabet.name(Symbol(i)))
            .collect();
        format!("<{}>", names.join(","))
    }

    /// The prefix of length `level - 1` (`None` for level-1 episodes).
    pub fn prefix(&self) -> Option<&[u8]> {
        if self.items.len() > 1 {
            Some(&self.items[..self.items.len() - 1])
        } else {
            None
        }
    }

    /// The suffix of length `level - 1` (`None` for level-1 episodes).
    pub fn suffix(&self) -> Option<&[u8]> {
        if self.items.len() > 1 {
            Some(&self.items[1..])
        } else {
            None
        }
    }

    /// Extends this episode by one item, producing a level `L+1` candidate.
    pub fn extended(&self, item: Symbol) -> Episode {
        let mut items = Vec::with_capacity(self.items.len() + 1);
        items.extend_from_slice(&self.items);
        items.push(item.0);
        Episode { items }
    }
}

/// True when no item of `items` repeats ([`Episode::has_distinct_items`] on
/// a bare row of items).
pub(crate) fn distinct_items(items: &[u8]) -> bool {
    let mut seen = [0u64; 4];
    items.iter().all(|&i| {
        let (word, bit) = (usize::from(i) / 64, 1u64 << (i % 64));
        let fresh = seen[word] & bit == 0;
        seen[word] |= bit;
        fresh
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ab() -> Alphabet {
        Alphabet::latin26()
    }

    #[test]
    fn from_str_and_display_round_trip() {
        let ep = Episode::from_str(&ab(), "CAB").unwrap();
        assert_eq!(ep.level(), 3);
        assert_eq!(ep.items(), &[2, 0, 1]);
        assert_eq!(ep.display(&ab()), "<C,A,B>");
        assert_eq!(ep.first(), Symbol(2));
        assert_eq!(ep.last(), Symbol(1));
    }

    #[test]
    fn empty_episode_rejected() {
        assert!(matches!(Episode::new(vec![]), Err(CoreError::EmptyEpisode)));
        assert!(matches!(
            Episode::from_str(&ab(), ""),
            Err(CoreError::EmptyEpisode)
        ));
    }

    #[test]
    fn checked_validates_alphabet() {
        let small = Alphabet::numbered(3).unwrap();
        assert!(Episode::checked(&small, vec![0, 2]).is_ok());
        assert!(matches!(
            Episode::checked(&small, vec![0, 3]),
            Err(CoreError::SymbolOutOfRange { id: 3, .. })
        ));
    }

    #[test]
    fn distinctness_detection() {
        assert!(Episode::from_str(&ab(), "ABC")
            .unwrap()
            .has_distinct_items());
        assert!(!Episode::from_str(&ab(), "ABA")
            .unwrap()
            .has_distinct_items());
        assert!(Episode::from_str(&ab(), "Z").unwrap().has_distinct_items());
    }

    #[test]
    fn prefix_suffix_extension() {
        let ep = Episode::from_str(&ab(), "ABC").unwrap();
        assert_eq!(ep.prefix().unwrap(), &[0, 1]);
        assert_eq!(ep.suffix().unwrap(), &[1, 2]);
        let one = Episode::from_str(&ab(), "A").unwrap();
        assert!(one.prefix().is_none());
        assert!(one.suffix().is_none());
        assert_eq!(one.extended(Symbol(1)).items(), &[0, 1]);
    }

    #[test]
    fn ordering_is_lexicographic_on_items() {
        let a = Episode::from_str(&ab(), "AB").unwrap();
        let b = Episode::from_str(&ab(), "AC").unwrap();
        let c = Episode::from_str(&ab(), "B").unwrap();
        assert!(a < b);
        assert!(a < c);
    }
}
