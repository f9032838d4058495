//! # adj-leapfrog — Leapfrog Triejoin (Sec. II-A, Algorithm 1)
//!
//! The worst-case-optimal sequential join algorithm HCubeJ/ADJ run on every
//! worker — in the paper over the data HCube shuffled to it, here over
//! tries every worker of a host shares. Given tries (one per relation,
//! levels following the induced global attribute order), [`LeapfrogJoin`]
//! extends an `i`-tuple to an `(i+1)`-tuple by intersecting, for attribute
//! `A_{i+1}`, the candidate runs of every relation containing `A_{i+1}` —
//! "the main cost of Leapfrog is the cost of the intersections".
//!
//! Per-level extension counters ([`JoinCounters`]) feed the paper's Fig. 6
//! (tail dominance), Fig. 8 (attribute-order pruning) and the β term of the
//! cost model. Every entry — streaming, counting, budgeted counting, the
//! sampler's counts by first value and bound batches — runs one traversal,
//! [`LeapfrogJoin::run_batch`]. A count whose inputs split around two
//! attributes ([`CountSplit`]) walks each bag through that traversal and
//! combines the bags' counts by a dot product, never enumerating the join.
//! The workers of one join share its tries and divide its driver in
//! [`Morsels`](adj_relational::Morsels), each advancing one walk ([`LeapfrogJoin::walk`]) over the
//! morsels it claims.

pub mod counted;
pub mod counters;
pub mod join;
#[doc(hidden)]
pub mod reference;

pub use counted::CountSplit;
pub use counters::{JoinCounters, JoinStats};
pub use join::{
    validate_tries, BatchOutcome, BatchWalk, JoinLayout, JoinScratch, LeapfrogJoin, Sinks,
    POLL_EVERY,
};
