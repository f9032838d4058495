//! Morsels: how the workers of one phase divide its work.
//!
//! A claimed phase is a run of `units` independent pieces of work — trie
//! builds, sampling morsels, morsels of a join's driver — that every worker
//! claims from one shared atomic cursor (morsel-driven scheduling: Leis,
//! Boncz, Kemper, Neumann, SIGMOD 2014), so a worker that finishes early
//! takes the next unit instead of idling. One caller's claims ascend, so a
//! join's worker serves all its morsels of the driver with one walk,
//! skipping forward between them. A driver of rows is cut into units of
//! [`MORSEL_ROWS`] consecutive rows ([`Morsels::count`], [`Morsels::rows`]).

use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Driver rows per morsel: large enough that a claim (one atomic add) is
/// noise beside the walk it starts, small enough that a few thousand
/// first-level values spread over the workers.
pub const MORSEL_ROWS: usize = 64;

/// The shared cursor over a phase's units.
///
/// `Relaxed` suffices throughout: a claim publishes no data (each worker
/// reads the shared, immutable inputs), `fetch_add` hands out each index
/// once under any ordering, and a late stop only costs a unit of work.
#[derive(Debug)]
pub struct Morsels {
    units: usize,
    next: AtomicUsize,
    /// No unit past this index is handed out.
    last: AtomicUsize,
    halted: AtomicBool,
}

impl Morsels {
    /// A cursor at the first of `units` units.
    pub fn new(units: usize) -> Self {
        Morsels {
            units,
            next: AtomicUsize::new(0),
            last: AtomicUsize::new(usize::MAX),
            halted: AtomicBool::new(false),
        }
    }

    /// How many units the cursor hands out at most.
    pub fn units(&self) -> usize {
        self.units
    }

    /// How many morsels a driver of `rows` rows has.
    pub fn count(rows: usize) -> usize {
        rows.div_ceil(MORSEL_ROWS)
    }

    /// The rows of morsel `m` of a driver of `rows` rows.
    pub fn rows(m: usize, rows: usize) -> Range<usize> {
        let start = (m * MORSEL_ROWS).min(rows);
        start..(start + MORSEL_ROWS).min(rows)
    }

    /// The next unclaimed unit; `None` once they are all claimed, past the
    /// unit [`Morsels::stop_after`] named, or after [`Morsels::halt`]. One
    /// caller's claims ascend.
    pub fn claim(&self) -> Option<usize> {
        if self.halted.load(Ordering::Relaxed) {
            return None;
        }
        let u = self.next.fetch_add(1, Ordering::Relaxed);
        (u < self.units && u <= self.last.load(Ordering::Relaxed)).then_some(u)
    }

    /// Hands out no unit past `u`: the ones up to it are all the caller
    /// needs.
    pub fn stop_after(&self, u: usize) {
        self.last.fetch_min(u, Ordering::Relaxed);
    }

    /// Hands out no further unit.
    pub fn halt(&self) {
        self.halted.store(true, Ordering::Relaxed);
    }

    /// Whether [`Morsels::halt`] was called.
    pub fn halted(&self) -> bool {
        self.halted.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claims_cover_the_driver_once_in_ascending_order() {
        let rows = 3 * MORSEL_ROWS + 5;
        let morsels = Morsels::new(Morsels::count(rows));
        let claimed: Vec<usize> = std::iter::from_fn(|| morsels.claim()).collect();
        assert_eq!(claimed, vec![0, 1, 2, 3]);
        assert_eq!(Morsels::rows(3, rows), 3 * MORSEL_ROWS..rows);
        let covered: usize = claimed.iter().map(|&m| Morsels::rows(m, rows).len()).sum();
        assert_eq!(covered, rows);
        assert!(morsels.claim().is_none());
        assert_eq!(Morsels::count(0), 0);
        assert!(Morsels::new(0).claim().is_none());
    }

    #[test]
    fn stop_after_and_halt_end_the_claims() {
        let morsels = Morsels::new(10);
        assert_eq!(morsels.claim(), Some(0));
        morsels.stop_after(1);
        assert_eq!(morsels.claim(), Some(1));
        assert!(morsels.claim().is_none());
        let halted = Morsels::new(10);
        halted.halt();
        assert!(halted.halted() && halted.claim().is_none());
    }
}
