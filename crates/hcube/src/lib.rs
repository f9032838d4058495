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
//! * [`cache::IndexCache`] — the cross-query index cache: shuffled
//!   partitions and built tries published as shared `Arc<Trie>` handles,
//!   keyed by `(relation identity, induced order, share, workers, database
//!   epoch, delta sequence)`, so [`shuffle::hcube_shuffle_round`] skips
//!   routing, transfer, and build entirely for warm relations.

pub mod cache;
pub mod patch;
pub mod plan;
pub mod share;
pub mod shuffle;

pub use cache::{
    Artifact, ArtifactKey, BagKey, IndexCache, IndexCacheStats, IndexClaim, IndexKey, IndexLookup,
    IndexScope, RelationIndex,
};
pub use patch::{patch_relation_indexes, PatchOutcome};
pub use plan::HCubePlan;
pub use share::{optimize_share, solve_share, ShareInput, ShareSolution, MAX_SHARE_ATTRS};
pub use shuffle::{
    hcube_shuffle, hcube_shuffle_round, ExecCtx, HCubeImpl, LocalRelation, RoundLayout,
    RoundOutput, ShuffleOutput, ShuffleReport, ShuffleRound,
};
