//! # adj-baselines — the competing methods of Sec. VII
//!
//! Re-implementations of the four systems ADJ is compared against:
//!
//! * [`binary::run_binary_join`] — **SparkSQL analog**: multi-round
//!   distributed binary hash joins over a greedy left-deep plan; every round
//!   re-shuffles both inputs on the join key. Fails on cyclic queries whose
//!   intermediate results explode (the paper's missing bars in Fig. 12).
//! * [`bigjoin::run_bigjoin`] — **BigJoin analog** (Ammar et al. \[8\]):
//!   Leapfrog parallelized by rounds over the attribute order; the set of
//!   partial bindings is re-shuffled between rounds, so complex queries pay
//!   communication proportional to the intermediate-result size.
//! * [`hcubej::run_hcubej`] — **HCubeJ** \[11\]: one-round HCube (original
//!   tuple-at-a-time *Push* implementation) + Leapfrog, communication-first
//!   share optimization, attribute order selected over all `n!` orders.
//! * [`hcubej::run_hcubej_cached`] — **HCubeJ + Cache** \[28\]: same, with the
//!   capacity-bounded CacheTrieJoin variant of Leapfrog, [`cached::CachedJoin`]
//!   (Kalinsky et al.), which lives here beside its one caller.
//!
//! All methods return the same [`BaselineReport`] so the Fig. 12 harness can
//! tabulate them uniformly, and all enforce the same failure budgets
//! (per-worker memory, max intermediate tuples) so the paper's OOM/timeout
//! bars reproduce.

pub mod bigjoin;
pub mod binary;
pub mod cached;
pub mod hcubej;

pub use bigjoin::run_bigjoin;
pub use binary::run_binary_join;
pub use hcubej::{run_hcubej, run_hcubej_cached};

use adj_leapfrog::JoinCounters;

/// Uniform per-run cost report for all baselines.
#[derive(Debug, Clone, Default)]
pub struct BaselineReport {
    /// Modeled communication seconds (α model + per-message overhead +
    /// per-round latency).
    pub comm_secs: f64,
    /// Measured computation seconds (makespans summed over rounds).
    pub comp_secs: f64,
    /// Total delivered tuple copies.
    pub comm_tuples: u64,
    /// Number of shuffle rounds (1 for one-round methods).
    pub rounds: u64,
    /// Result cardinality.
    pub output_tuples: u64,
    /// Leapfrog counters where applicable (zeroed for binary join).
    pub counters: JoinCounters,
}

impl BaselineReport {
    /// Total seconds.
    pub fn total_secs(&self) -> f64 {
        self.comm_secs + self.comp_secs
    }
}

/// The baselines reproduce the paper's *unbound* join contract and have no
/// selection-pushdown (or binding) channel: a query with inline literals or
/// `$name` parameters would silently join free here, so every entry point
/// rejects bound terms up front instead of returning the wrong relation.
/// (ADJ proper — `adj_core::execute_plan` with its bindings — is where
/// bound queries run.)
pub(crate) fn reject_bound_terms(query: &adj_query::JoinQuery) -> adj_relational::Result<()> {
    if let Some((name, _)) = query.param_attrs().into_iter().next() {
        return Err(adj_relational::Error::UnboundParam { name });
    }
    if query.has_bound_terms() {
        return Err(adj_relational::Error::Unsupported {
            feature: "bound constants (selection pushdown)",
            by: "the comparison baselines",
        });
    }
    Ok(())
}

/// Shared budget knobs for baseline runs.
#[derive(Debug, Clone, Copy)]
pub struct BaselineConfig {
    /// Cap on any intermediate/materialized relation, mirroring the paper's
    /// 12-hour / OOM failure criterion.
    pub max_intermediate_tuples: usize,
    /// Cache capacity (in cached values) for HCubeJ+Cache. The paper notes
    /// HCube's memory appetite leaves little cache room on large inputs;
    /// the harness shrinks this with input size.
    pub cache_capacity_values: usize,
}

impl Default for BaselineConfig {
    fn default() -> Self {
        BaselineConfig { max_intermediate_tuples: 50_000_000, cache_capacity_values: 1 << 20 }
    }
}
