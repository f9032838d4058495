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
//! A worker's output is one row buffer, whatever it joins: every driver
//! row's rows are a segment of it, and the buffer goes back at its
//! high-water mark. Reallocated on every call, it was re-faulted too, since
//! the allocator handed the freed megabytes back to the system between
//! calls (about 1,500 minor faults per width-2 `warm_modes` Q7 Rows call,
//! doubling its latency). A Leapfrog level buffer goes back only if it
//! holds at most 2,048 values (`KEPT_LEVEL_VALUES`): a large join pays
//! for its own. The Leapfrog value tables and count tables are fixed in
//! size and stay.
//!
//! Nothing in a scratch outlives its use as state: Leapfrog's value tables
//! are keyed by the join that built them (see
//! [`JoinScratch`]), so a later join never trusts
//! another join's table; every other buffer is cleared before it is filled.

use adj_leapfrog::JoinScratch;
use adj_relational::{Attr, RowBuffer, Trie, Value};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// The most values a kept Leapfrog level buffer holds on to (8–16 KiB).
const KEPT_LEVEL_VALUES: usize = 2048;

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
    /// The coordinator's: the tries the join runs over; empty whenever the
    /// scratch is not lent.
    pub(crate) tries: Vec<Arc<Trie>>,
    /// A worker's: Leapfrog's per-level buffers, tables and cursor stacks.
    pub(crate) join: JoinScratch,
    /// A worker's: the rows it kept (`Rows`, `Limit`, an `Exists`
    /// witness), segment after segment.
    pub(crate) rows: RowBuffer,
    /// A worker's: each segment of `rows` that kept rows, in claim order.
    pub(crate) segments: Vec<Segment>,
    /// A worker's: per output slot, the rows it took (a breaching row
    /// included), its count (`Count`) or whether it found a witness
    /// (`Exists`).
    pub(crate) tally: Vec<u64>,
    /// A worker's: the morsels it claimed, in claim (ascending) order.
    pub(crate) claimed: Vec<Claimed>,
}

/// One morsel a worker claimed: which, how many of its driver rows
/// completed, and where its segments end in the worker's segment list.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Claimed {
    pub(crate) morsel: usize,
    pub(crate) done: usize,
    pub(crate) end: usize,
}

/// One segment of a worker's rows: the output slot they belong to, and
/// where they end in its row buffer (they begin where the segment before
/// them ends).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Segment {
    pub(crate) slot: usize,
    pub(crate) end: usize,
}

/// The scratch an [`Adj`](crate::Adj) lends its executions (see the module
/// docs). Holds at most as many scratches as were ever lent at once.
#[derive(Debug, Default)]
pub struct ScratchPool {
    free: Mutex<Vec<Free>>,
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
        Lent { pool: self, scratch: Some(scratch.map_or_else(Box::default, |free| free.0)) }
    }
}

/// A free scratch in the pool, boxed as it is lent, so lending moves a
/// pointer and allocates nothing. (A bare `Vec<Box<Scratch>>` would trip
/// clippy's `vec_box`, which assumes the boxes never leave the list.)
#[derive(Debug)]
struct Free(Box<Scratch>);

/// A lent [`Scratch`]; dropping it hands the scratch back to its pool.
#[derive(Debug)]
pub(crate) struct Lent<'p> {
    pool: &'p ScratchPool,
    /// Boxed, so a lent scratch moves as one pointer: each worker hands its
    /// own back through the gather, in its join's result, which a scratch
    /// held inline would make several hundred bytes larger per worker and
    /// call. Taken only by the drop that hands it back.
    scratch: Option<Box<Scratch>>,
}

impl std::ops::Deref for Lent<'_> {
    type Target = Scratch;

    fn deref(&self) -> &Scratch {
        self.scratch.as_ref().expect("lent until dropped")
    }
}

impl std::ops::DerefMut for Lent<'_> {
    fn deref_mut(&mut self) -> &mut Scratch {
        self.scratch.as_mut().expect("lent until dropped")
    }
}

impl Drop for Lent<'_> {
    fn drop(&mut self) {
        let mut scratch = self.scratch.take().expect("dropped once");
        scratch.tries.clear();
        scratch.join.shrink_past(KEPT_LEVEL_VALUES);
        self.pool.free.lock().unwrap_or_else(PoisonError::into_inner).push(Free(scratch));
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
