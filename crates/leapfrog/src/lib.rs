//! # adj-leapfrog — Leapfrog Triejoin (Sec. II-A, Algorithm 1)
//!
//! The worst-case-optimal sequential join algorithm HCubeJ/ADJ run on every
//! worker over the data HCube shuffled to it. Given tries (one per relation,
//! levels following the induced global attribute order), [`LeapfrogJoin`]
//! extends an `i`-tuple to an `(i+1)`-tuple by intersecting, for attribute
//! `A_{i+1}`, the candidate runs of every relation containing `A_{i+1}` —
//! "the main cost of Leapfrog is the cost of the intersections".
//!
//! Per-level extension counters ([`JoinCounters`]) feed the paper's Fig. 6
//! (tail dominance), Fig. 8 (attribute-order pruning) and the β term of the
//! cost model. [`cached::CachedJoin`] is the CacheTrieJoin-style variant the
//! HCubeJ+Cache baseline uses (Kalinsky et al., cited as \[28\]).

pub mod cached;
pub mod counters;
pub mod join;
#[doc(hidden)]
pub mod reference;

pub use cached::CachedJoin;
pub use counters::{JoinCounters, JoinStats};
pub use join::{validate_tries, BatchOutcome, BatchedLeapfrog, JoinScratch, LeapfrogJoin};
