//! The buffers an execution borrows instead of allocating.
//!
//! A warm bound call does little work — a few seeks and a handful of
//! result rows — so what it would allocate for itself (Leapfrog's level
//! buffers and value tables, cursor stacks, driver rows, row buffers)
//! would cost more than its join. An [`Adj`](crate::Adj) owns one
//! [`ScratchPool`] next to its cluster, and every execution through it —
//! every `Service` door, at every width — borrows its buffers from there:
//! the coordinator one scratch for its driver rows, each worker one for
//! its join, each for the length of one execution. A borrowed scratch goes
//! back on every path out (drop), emptied of trie handles, so the pool
//! never keeps an index alive outside the index cache.
//!
//! Nothing in a scratch outlives its use as state: Leapfrog's value tables
//! are keyed by the join that built them (see
//! [`JoinScratch`]), so a later join never trusts
//! another join's table; every other buffer is cleared before it is filled.

use adj_leapfrog::JoinScratch;
use adj_relational::{Attr, RowBuffer, Trie, Value};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Row buffers a scratch keeps between executions: enough for every
/// binding of a bound call or a small batch. A larger batch's extra
/// buffers are dropped when it hands the scratch back.
const KEPT_ROW_BUFFERS: usize = 64;

/// The most values a kept row buffer, or a kept Leapfrog level buffer,
/// holds on to (8–16 KiB). A scratch goes back without a larger row buffer,
/// and without its Leapfrog state at all once a join grew a level buffer
/// past this: a large join pays for its own buffers, as before, and the
/// pool keeps only what small joins — the bound calls it is for — use, so
/// it never holds heap memory in the middle of a large query's.
pub(crate) const KEPT_ROW_VALUES: usize = 2048;

/// One thread's buffers for one execution.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    /// The coordinator's: the bound levels of the order the bindings pin.
    pub(crate) bound_attrs: Vec<Attr>,
    /// The coordinator's: the driver rows, flat.
    pub(crate) driver_rows: Vec<Value>,
    /// The coordinator's: each binding's driver row, when the bindings
    /// did not arrive as their rows.
    pub(crate) row_of: Vec<usize>,
    /// A worker's: Leapfrog's per-level buffers, tables and cursor stacks.
    pub(crate) join: JoinScratch,
    /// A worker's: the tries its join runs over; empty whenever the
    /// scratch is not lent.
    pub(crate) tries: Vec<Arc<Trie>>,
    /// A worker's: one row buffer per driver row (`Rows`, `Limit`).
    pub(crate) rows: Vec<RowBuffer>,
    /// A worker's: per driver row, its local count (`Count`) or whether it
    /// found a witness (`Exists`).
    pub(crate) found: Vec<u64>,
}

/// The scratch an [`Adj`](crate::Adj) lends its executions (see the module
/// docs). Holds at most as many scratches as were ever lent at once.
#[derive(Debug, Default)]
pub struct ScratchPool {
    free: Mutex<Vec<Scratch>>,
    lent: AtomicUsize,
}

impl ScratchPool {
    /// An empty pool; scratches are made on first use.
    pub fn new() -> Self {
        ScratchPool::default()
    }

    /// Scratches lent and not yet handed back: 0 whenever no execution
    /// runs.
    pub fn outstanding(&self) -> usize {
        self.lent.load(Ordering::SeqCst)
    }

    /// Borrows one scratch until the guard drops. A poisoned lock is
    /// recovered: the pool holds plain buffers, sound in any state.
    pub(crate) fn lend(&self) -> Lent<'_> {
        let scratch = self.free.lock().unwrap_or_else(PoisonError::into_inner).pop();
        self.lent.fetch_add(1, Ordering::SeqCst);
        Lent { pool: self, scratch: scratch.unwrap_or_default() }
    }
}

/// A lent [`Scratch`]; dropping it hands the scratch back to its pool.
#[derive(Debug)]
pub(crate) struct Lent<'p> {
    pool: &'p ScratchPool,
    scratch: Scratch,
}

impl std::ops::Deref for Lent<'_> {
    type Target = Scratch;

    fn deref(&self) -> &Scratch {
        &self.scratch
    }
}

impl std::ops::DerefMut for Lent<'_> {
    fn deref_mut(&mut self) -> &mut Scratch {
        &mut self.scratch
    }
}

impl Drop for Lent<'_> {
    fn drop(&mut self) {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.tries.clear();
        scratch.rows.truncate(KEPT_ROW_BUFFERS);
        for buf in scratch.rows.iter_mut().filter(|b| b.capacity() > KEPT_ROW_VALUES) {
            drop(buf.take_flat());
        }
        if scratch.join.grew_past(KEPT_ROW_VALUES) {
            scratch.join = JoinScratch::new();
        }
        self.pool.free.lock().unwrap_or_else(PoisonError::into_inner).push(scratch);
        self.pool.lent.fetch_sub(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_lent_scratch_comes_back_without_its_tries() {
        let pool = ScratchPool::new();
        let trie = Arc::new(Trie::build(&adj_relational::Relation::from_pairs(
            Attr(0),
            Attr(1),
            &[(1, 2)],
        )));
        {
            let mut lent = pool.lend();
            lent.tries.push(Arc::clone(&trie));
            lent.driver_rows.extend([1, 2, 3]);
            assert_eq!(pool.outstanding(), 1);
            let second = pool.lend();
            assert_eq!(pool.outstanding(), 2);
            drop(second);
        }
        assert_eq!(pool.outstanding(), 0);
        assert_eq!(Arc::strong_count(&trie), 1, "the pool keeps no trie alive");
        // The next borrower reuses the last scratch handed back, buffers
        // and all.
        let lent = pool.lend();
        assert!(lent.tries.is_empty());
        assert!(lent.driver_rows.capacity() >= 3);
    }
}
