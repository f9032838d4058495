//! # adj-hcube — the HCube one-round shuffle (Sec. II-A & V of the paper)
//!
//! HCube divides the output space of a join query into hypercubes using a
//! *share vector* `p = (p1, …, pn)` (one partition count per attribute),
//! assigns hypercubes to workers, and shuffles every input tuple to all
//! workers whose hypercube coordinates match the tuple's per-attribute hash
//! values. After one round, every worker can evaluate the query on its local
//! data alone.
//!
//! This crate provides:
//!
//! * [`share::optimize_share`] — the share optimizer: minimize communication
//!   `Σ_R |R|·dup(R,p)` subject to `p ≥ 1` and the per-worker memory
//!   constraint (optimization program (3) in Sec. III-B), by an exact
//!   branch-and-bound search over integer shares;
//! * [`HCubePlan`] — coordinate arithmetic and tuple routing;
//! * [`shuffle::hcube_shuffle`] — three implementations: the original
//!   tuple-at-a-time **Push**, and the paper's optimized **Pull** (block
//!   transfer) and **Merge** (block transfer with pre-built sorted blocks,
//!   so local tries need only a k-way merge) — the subject of Fig. 9;
//! * [`round::index_round`] — what serving runs instead: the cluster's
//!   workers are threads over one heap, so a round builds (or reuses) one
//!   trie per relation that every worker reads, and reports what the
//!   plan's share would have routed. Its builder ([`round::build_trie`])
//!   builds the planner's sampling tries too, and a cold relation the
//!   planner already indexed reaches the round as the request's
//!   [`PlannedTries`] instead of being built again;
//! * [`cache::IndexCache`] — the cross-query index cache: a byte-budgeted
//!   LRU of `Arc<Trie>` handles, one per database relation and induced
//!   order, keyed by `(database, epoch, relation, induced order, delta
//!   sequence)`, so a warm round builds nothing. It holds tries only: a
//!   plan's pre-computed bags are recomputed by every execution;
//! * [`patch::patch_relation_indexes`] — after a mutation, merges the
//!   batch's delta into each cached trie of the relation and republishes
//!   it under the relation's new delta sequence.

pub mod cache;
pub mod patch;
pub mod plan;
pub mod round;
pub mod share;
pub mod shuffle;

pub use cache::{IndexCache, IndexCacheStats, IndexClaim, IndexKey, IndexLookup, IndexScope};
pub use patch::{patch_relation_indexes, PatchOutcome};
pub use plan::HCubePlan;
pub use round::{
    build_trie, index_round, ExecCtx, IndexRound, PlannedTries, RoundLayout, RoundOutput,
};
pub use share::{optimize_share, solve_share, ShareInput, ShareSolution};
pub use shuffle::{hcube_shuffle, HCubeImpl, LocalRelation, ShuffleOutput, ShuffleReport};
