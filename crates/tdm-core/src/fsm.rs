//! The paper's Figure-3 finite state machine.
//!
//! For an episode `A = <a1, ..., aL>`, the FSM is in state `j` after matching the
//! prefix `a1..aj` (state 0 = start). Reading character `c`:
//!
//! 1. **advance** when `c == a[j]` (0-indexed: the next expected item). Reaching
//!    state `L` *completes* an appearance: the counter increments and the machine
//!    resets to the start (the figure's `final -> start` behaviour).
//! 2. otherwise **restart** when `c == a1` and `j >= 1`: the machine re-anchors at
//!    state 1 (the figure's edges back to the `a1` state);
//! 3. otherwise **reset** to the start (the figure's `c != a1,2,...` edges).
//!
//! Advance has priority over restart when `a[j] == a1` (only possible for episodes
//! with repeated items). At the start state, characters other than `a1` self-loop.
//!
//! The machine is deliberately tiny — a `u8` state and one branch per character —
//! because the paper's GPU kernels execute exactly this per thread per character,
//! and our simulator charges instruction costs for precisely these branches.

use crate::episode::Episode;

/// Outcome of a single FSM step (used by the simulator to attribute instruction
/// costs to divergent branch paths).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StepKind {
    /// `c` matched the next expected item (includes the completing step).
    Advance,
    /// `c` completed the episode (a special advance; counter incremented).
    Complete,
    /// `c == a1` while mid-match: re-anchor at state 1.
    Restart,
    /// `c` neither advanced nor re-anchored: back to start.
    Reset,
    /// At the start state and `c != a1`: stay (the cheap self-loop).
    Idle,
}

/// A running instance of the Figure-3 FSM for one episode.
#[derive(Debug, Clone)]
pub struct EpisodeFsm<'a> {
    items: &'a [u8],
    state: u8,
    count: u64,
}

impl<'a> EpisodeFsm<'a> {
    /// Creates the machine at the start state with a zero counter.
    pub fn new(episode: &'a Episode) -> Self {
        EpisodeFsm {
            items: episode.items(),
            state: 0,
            count: 0,
        }
    }

    /// Creates the machine directly over raw items (internal fast path; the items
    /// slice must be non-empty).
    pub fn from_items(items: &'a [u8]) -> Self {
        debug_assert!(!items.is_empty());
        EpisodeFsm {
            items,
            state: 0,
            count: 0,
        }
    }

    /// Current state (0 = start, `j` = prefix of length `j` matched).
    #[inline]
    pub fn state(&self) -> u8 {
        self.state
    }

    /// Appearances counted so far.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Feeds one character; returns what kind of transition happened.
    #[inline]
    pub fn step(&mut self, c: u8) -> StepKind {
        let j = self.state as usize;
        if c == self.items[j] {
            // Advance (has priority over restart when a[j] == a1).
            if j + 1 == self.items.len() {
                self.count += 1;
                self.state = 0;
                StepKind::Complete
            } else {
                self.state += 1;
                StepKind::Advance
            }
        } else if self.state == 0 {
            StepKind::Idle
        } else if c == self.items[0] {
            self.state = 1;
            StepKind::Restart
        } else {
            self.state = 0;
            StepKind::Reset
        }
    }

    /// Feeds a whole character slice, returning the number of completions within
    /// it. State persists across calls (this is how buffered kernels process
    /// consecutive buffer epochs).
    pub fn run(&mut self, chars: &[u8]) -> u64 {
        let before = self.count;
        for &c in chars {
            self.step(c);
        }
        self.count - before
    }

    /// Resets state and counter.
    pub fn reset(&mut self) {
        self.state = 0;
        self.count = 0;
    }
}

/// One step of the pure transition function: `(state, c) -> (state', completed)`.
///
/// Identical semantics to [`EpisodeFsm::step`] but without any carried counter —
/// the form used by the state-composition (exact parallel) counter and by property
/// tests.
#[inline]
pub fn fsm_step(items: &[u8], state: u8, c: u8) -> (u8, bool) {
    let j = state as usize;
    if c == items[j] {
        if j + 1 == items.len() {
            (0, true)
        } else {
            (state + 1, false)
        }
    } else if state == 0 {
        (0, false)
    } else if c == items[0] {
        (1, false)
    } else {
        (0, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Alphabet;

    fn ep(s: &str) -> Episode {
        Episode::from_str(&Alphabet::latin26(), s).unwrap()
    }

    fn run_str(episode: &Episode, s: &str) -> u64 {
        let ab = Alphabet::latin26();
        let db = crate::sequence::EventDb::from_str_symbols(&ab, s).unwrap();
        let mut fsm = EpisodeFsm::new(episode);
        fsm.run(db.symbols())
    }

    #[test]
    fn single_item_counts_every_occurrence() {
        assert_eq!(run_str(&ep("A"), "AABAZA"), 4);
        assert_eq!(run_str(&ep("Z"), "AABA"), 0);
    }

    #[test]
    fn simple_pair_counts() {
        // A then B, with resets on other characters.
        assert_eq!(run_str(&ep("AB"), "AB"), 1);
        assert_eq!(run_str(&ep("AB"), "ABAB"), 2);
        assert_eq!(run_str(&ep("AB"), "AXB"), 0); // X resets the partial match
        assert_eq!(run_str(&ep("AB"), "AAB"), 1); // second A restarts, then completes
        assert_eq!(run_str(&ep("AB"), "BA"), 0);
    }

    #[test]
    fn restart_on_first_item_mid_match() {
        // After matching "AB" of "ABC", seeing 'A' re-anchors rather than resets.
        assert_eq!(run_str(&ep("ABC"), "ABABC"), 1);
        // ...whereas a foreign character resets and the tail alone cannot match.
        assert_eq!(run_str(&ep("ABC"), "ABXBC"), 0);
    }

    #[test]
    fn completion_resets_to_start() {
        // Back-to-back appearances are both counted.
        assert_eq!(run_str(&ep("ABC"), "ABCABC"), 2);
        // The completing character is consumed: no overlap re-use.
        assert_eq!(run_str(&ep("AA"), "AAA"), 1); // greedy: (AA) then lone A
        assert_eq!(run_str(&ep("AA"), "AAAA"), 2);
    }

    #[test]
    fn advance_beats_restart_for_repeated_first_item() {
        // Episode "AAB": after one A (state 1), another A must ADVANCE to state 2,
        // not restart to state 1.
        assert_eq!(run_str(&ep("AAB"), "AAB"), 1);
        // "AAAB": A,A -> state 2; third A is neither a3 (B) nor... it IS a1, so
        // restart to state 1; then B resets (B != a2=A, != a1). Total 0 under the
        // paper's greedy semantics.
        assert_eq!(run_str(&ep("AAB"), "AAAB"), 0);
    }

    #[test]
    fn step_kinds_reported() {
        let e = ep("AB");
        let mut fsm = EpisodeFsm::new(&e);
        assert_eq!(fsm.step(b'C' - b'A'), StepKind::Idle);
        assert_eq!(fsm.step(0), StepKind::Advance); // A
        assert_eq!(fsm.step(0), StepKind::Restart); // A again
        assert_eq!(fsm.step(b'C' - b'A'), StepKind::Reset);
        assert_eq!(fsm.step(0), StepKind::Advance);
        assert_eq!(fsm.step(1), StepKind::Complete);
        assert_eq!(fsm.count(), 1);
        assert_eq!(fsm.state(), 0);
    }

    #[test]
    fn pure_step_agrees_with_fsm() {
        let e = ep("ABC");
        let mut fsm = EpisodeFsm::new(&e);
        let mut state = 0u8;
        let mut count = 0u64;
        for &c in &[0u8, 1, 0, 1, 2, 2, 0, 1, 2] {
            fsm.step(c);
            let (s, done) = fsm_step(e.items(), state, c);
            state = s;
            if done {
                count += 1;
            }
            assert_eq!(state, fsm.state());
            assert_eq!(count, fsm.count());
        }
    }

    #[test]
    fn run_is_incremental_across_chunks() {
        let e = ep("ABC");
        let ab = Alphabet::latin26();
        let db = crate::sequence::EventDb::from_str_symbols(&ab, "ABCABC").unwrap();
        let mut fsm = EpisodeFsm::new(&e);
        let first = fsm.run(&db.symbols()[..4]); // "ABCA"
        let second = fsm.run(&db.symbols()[4..]); // "BC" completes the pending A
        assert_eq!(first, 1);
        assert_eq!(second, 1);
        assert_eq!(fsm.count(), 2);
    }
}
