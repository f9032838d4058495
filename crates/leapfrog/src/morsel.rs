//! Morsels: how the workers of one join divide its driver.
//!
//! Every worker of a join walks the same tries. What they divide is the
//! driver — the sorted rows that feed the bottom of the traversal: the
//! values of the order's first attribute for an unbound join, the sorted
//! bindings for a bound call or a batch. Workers claim the driver in
//! morsels of [`MORSEL_ROWS`] consecutive rows from one shared atomic
//! cursor (morsel-driven scheduling: Leis, Boncz, Kemper, Neumann, SIGMOD
//! 2014), so a worker that finishes early takes the next morsel instead of
//! idling, and no level above a morsel is walked twice. A worker's claims
//! ascend, so one walk serves all of them, skipping forward between them.

use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Driver rows per morsel: large enough that a claim (one atomic add) is
/// noise beside the walk it starts, small enough that a few thousand
/// first-level values spread over the workers.
pub const MORSEL_ROWS: usize = 64;

/// The shared cursor over a driver's morsels.
///
/// `Relaxed` suffices throughout: a claim publishes no data (each worker
/// reads the shared, immutable driver), `fetch_add` hands out each index
/// once under any ordering, and a late stop only costs a morsel of work.
#[derive(Debug)]
pub struct Morsels {
    next: AtomicUsize,
    /// No morsel past this index is handed out.
    last: AtomicUsize,
    halted: AtomicBool,
}

impl Default for Morsels {
    fn default() -> Self {
        Morsels::new()
    }
}

impl Morsels {
    /// A cursor at the first morsel.
    pub fn new() -> Self {
        Morsels {
            next: AtomicUsize::new(0),
            last: AtomicUsize::new(usize::MAX),
            halted: AtomicBool::new(false),
        }
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

    /// The next unclaimed morsel of a driver of `rows` rows, as its index
    /// and its rows; `None` once they are all claimed, past the morsel
    /// [`Morsels::stop_after`] named, or after [`Morsels::halt`]. One
    /// caller's claims ascend.
    pub fn claim(&self, rows: usize) -> Option<(usize, Range<usize>)> {
        if self.halted.load(Ordering::Relaxed) {
            return None;
        }
        let m = self.next.fetch_add(1, Ordering::Relaxed);
        let fits = m < Morsels::count(rows) && m <= self.last.load(Ordering::Relaxed);
        fits.then(|| (m, Morsels::rows(m, rows)))
    }

    /// Hands out no morsel past `m`: the ones up to it are all the caller
    /// needs.
    pub fn stop_after(&self, m: usize) {
        self.last.fetch_min(m, Ordering::Relaxed);
    }

    /// Hands out no further morsel.
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
        let morsels = Morsels::new();
        let rows = 3 * MORSEL_ROWS + 5;
        let claimed: Vec<(usize, Range<usize>)> =
            std::iter::from_fn(|| morsels.claim(rows)).collect();
        assert_eq!(claimed.len(), Morsels::count(rows));
        assert_eq!(claimed[3], (3, 3 * MORSEL_ROWS..rows));
        let covered: usize = claimed.iter().map(|(_, r)| r.len()).sum();
        assert_eq!(covered, rows);
        assert!(morsels.claim(rows).is_none());
        assert_eq!(Morsels::count(0), 0);
        assert!(Morsels::new().claim(0).is_none());
    }

    #[test]
    fn stop_after_and_halt_end_the_claims() {
        let morsels = Morsels::new();
        let rows = 10 * MORSEL_ROWS;
        assert_eq!(morsels.claim(rows).map(|(m, _)| m), Some(0));
        morsels.stop_after(1);
        assert_eq!(morsels.claim(rows).map(|(m, _)| m), Some(1));
        assert!(morsels.claim(rows).is_none());
        let halted = Morsels::new();
        halted.halt();
        assert!(halted.halted() && halted.claim(rows).is_none());
    }
}
