//! Query plans: the `(Qi, ord)` pairs of the paper's problem statement.

use adj_hcube::ShareInput;
use adj_query::{GhdTree, JoinQuery};
use adj_relational::{Attr, Schema};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// One relation of the rewritten query `Qi`.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanRelation {
    /// A base atom of the original query (index into `query.atoms`).
    Base(usize),
    /// A pre-computed candidate relation: the join of one hypertree bag.
    Precomputed {
        /// Hypertree node index.
        node: usize,
        /// Name under which the materialized relation is stored
        /// (`"ADJ_bag{node}"`).
        name: String,
        /// Indices of the atoms joined into this relation (λ(v)).
        atoms: Vec<usize>,
        /// The bag schema (attributes ascending).
        schema: Schema,
    },
}

impl PlanRelation {
    /// The stored-relation name this plan relation reads.
    pub fn name<'a>(&'a self, query: &'a JoinQuery) -> &'a str {
        match self {
            PlanRelation::Base(i) => &query.atoms[*i].name,
            PlanRelation::Precomputed { name, .. } => name,
        }
    }

    /// The relation's schema.
    pub fn schema<'a>(&'a self, query: &'a JoinQuery) -> &'a Schema {
        match self {
            PlanRelation::Base(i) => &query.atoms[*i].schema,
            PlanRelation::Precomputed { schema, .. } => schema,
        }
    }
}

/// What the optimizer did to find one plan: how much it sampled, and how
/// much of its derived state (sampling tries, solved share programs) one
/// `optimize` call built against how much it served again from its cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptimizerStats {
    /// Distinct sub-joins whose cardinality was sampled.
    pub subjoins_sampled: u64,
    /// Leapfrog extension operations performed across those sampling runs.
    pub sample_extensions: u64,
    /// Sub-joins the sampler refused; each was priced as `∞`.
    pub sampler_errors: u64,
    /// Sampling tries built, one per distinct (atom, column order).
    pub tries_built: u64,
    /// Sampling tries a later sub-join took from the cache instead.
    pub tries_reused: u64,
    /// Share programs solved, one per distinct pre-compute set priced.
    pub share_solves: u64,
    /// `costC` requests answered from an earlier solve.
    pub share_reused: u64,
}

impl OptimizerStats {
    /// The counters as `(name, value)` pairs — what trace spans attach and
    /// `EXPLAIN` prints.
    pub fn args(&self) -> [(&'static str, u64); 7] {
        [
            ("subjoins_sampled", self.subjoins_sampled),
            ("sample_extensions", self.sample_extensions),
            ("sampler_errors", self.sampler_errors),
            ("tries_built", self.tries_built),
            ("tries_reused", self.tries_reused),
            ("share_solves", self.share_solves),
            ("share_reused", self.share_reused),
        ]
    }
}

/// The execution-time share programs a plan has solved: the share vector
/// per distinct [`ShareInput`] its shuffle rounds (each pre-computed bag's
/// and the final one) were run under.
///
/// The Shares program is a function of relation sizes, worker count and
/// memory budget — nothing an individual call contributes — so a plan that
/// is executed again under equal inputs takes the vector from here instead
/// of re-enumerating the lattice. Entries are compared on the whole input,
/// so a cluster of another width or a relation that crossed a size bucket
/// solves afresh and a stale share cannot be returned; the serving layer
/// re-keys plans on every mutation, so a plan's memo holds one entry per
/// round.
#[derive(Debug, Default)]
pub(crate) struct ShareMemo {
    solved: Mutex<Vec<(ShareInput, Vec<u32>)>>,
}

impl ShareMemo {
    // Entries are only ever pushed whole, so a panic elsewhere while the
    // lock was held leaves nothing half-written to recover from.
    fn entries(&self) -> MutexGuard<'_, Vec<(ShareInput, Vec<u32>)>> {
        self.solved.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The share solved for an input equal to `input`, if any.
    pub(crate) fn get(&self, input: &ShareInput) -> Option<Vec<u32>> {
        self.entries().iter().find(|(seen, _)| seen == input).map(|(_, share)| share.clone())
    }

    /// Remembers `share` as the solution of `input`. Two executions that
    /// raced to solve the same input leave one entry.
    pub(crate) fn insert(&self, input: ShareInput, share: Vec<u32>) {
        let mut entries = self.entries();
        if !entries.iter().any(|(seen, _)| *seen == input) {
            entries.push((input, share));
        }
    }
}

impl Clone for ShareMemo {
    fn clone(&self) -> Self {
        ShareMemo { solved: Mutex::new(self.entries().clone()) }
    }
}

/// A complete ADJ query plan: which bags to pre-compute, the rewritten
/// query's relations, and the Leapfrog attribute order.
#[derive(Debug, Clone)]
pub struct QueryPlan {
    /// The original query `Q`.
    pub query: JoinQuery,
    /// The hypertree `T` the plan was derived from.
    pub tree: GhdTree,
    /// Hypertree node indices in forward traversal order (`O` reversed).
    pub traversal: Vec<usize>,
    /// Node indices whose bags are pre-computed (the set `C`).
    pub precompute: Vec<usize>,
    /// The rewritten query `Qi`'s relations.
    pub relations: Vec<PlanRelation>,
    /// The Leapfrog attribute order `ord` (valid for `tree`).
    pub order: Vec<Attr>,
    /// The optimizer's estimated total cost in seconds (for diagnostics).
    pub estimated_cost_secs: f64,
    /// Wall-clock seconds spent constructing this plan (GHD search +
    /// sampling + Algorithm 2). Filled by [`Adj::plan`](crate::Adj::plan);
    /// 0 for hand-built plans. A cached plan's construction cost is charged
    /// once, not per re-execution.
    pub optimization_secs: f64,
    /// What the optimizer sampled, built and reused to find this plan.
    pub optimizer: OptimizerStats,
    /// Share vectors this plan's executions have already solved.
    pub(crate) share_memo: ShareMemo,
}

impl QueryPlan {
    /// Names of the relations the final HCube shuffle must move, in plan
    /// order.
    pub fn shuffle_names(&self) -> Vec<String> {
        self.relations.iter().map(|r| r.name(&self.query).to_string()).collect()
    }

    /// Whether any bag is pre-computed.
    pub fn has_precompute(&self) -> bool {
        !self.precompute.is_empty()
    }

    /// Builds the rewritten-query relation list for pre-compute set `c_set`
    /// (bitmask over tree nodes): one pre-computed relation per chosen bag,
    /// plus every base atom not absorbed into a chosen bag.
    pub fn relations_for(query: &JoinQuery, tree: &GhdTree, c_set: u64) -> Vec<PlanRelation> {
        let mut covered_atoms = 0u64;
        let mut rels = Vec::new();
        for (v, node) in tree.nodes.iter().enumerate() {
            if c_set & (1 << v) != 0 {
                covered_atoms |= node.edges;
                rels.push(PlanRelation::Precomputed {
                    node: v,
                    name: format!("ADJ_bag{v}"),
                    atoms: node.edge_indices(),
                    schema: Schema::new(node.attrs()).expect("bag attrs are distinct"),
                });
            }
        }
        for i in 0..query.atoms.len() {
            if covered_atoms & (1 << i) == 0 {
                rels.push(PlanRelation::Base(i));
            }
        }
        rels
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adj_query::workload::running_example;

    #[test]
    fn relations_for_running_example() {
        let q = running_example();
        let tree = GhdTree::decompose(&q.hypergraph(), 3);
        // Find the node holding R4⋈R5 (bag bce = attrs {1,2,4}).
        let vc = tree.nodes.iter().position(|n| n.vertices == 0b10110).expect("bag bce exists");
        let rels = QueryPlan::relations_for(&q, &tree, 1 << vc);
        // One pre-computed relation + R1, R2, R3 as base atoms.
        let pre: Vec<_> =
            rels.iter().filter(|r| matches!(r, PlanRelation::Precomputed { .. })).collect();
        assert_eq!(pre.len(), 1);
        let base: Vec<_> = rels.iter().filter(|r| matches!(r, PlanRelation::Base(_))).collect();
        assert_eq!(base.len(), 3);
        if let PlanRelation::Precomputed { schema, atoms, .. } = pre[0] {
            assert_eq!(schema.arity(), 3);
            assert_eq!(atoms.len(), 2); // R4 and R5
        }
    }

    #[test]
    fn no_precompute_keeps_all_atoms() {
        let q = running_example();
        let tree = GhdTree::decompose(&q.hypergraph(), 3);
        let rels = QueryPlan::relations_for(&q, &tree, 0);
        assert_eq!(rels.len(), q.atoms.len());
        assert!(rels.iter().all(|r| matches!(r, PlanRelation::Base(_))));
    }

    #[test]
    fn full_precompute_covers_every_atom() {
        let q = running_example();
        let tree = GhdTree::decompose(&q.hypergraph(), 3);
        let all: u64 = (1 << tree.len()) - 1;
        let rels = QueryPlan::relations_for(&q, &tree, all);
        // every atom must be inside some chosen bag or appear as base
        let mut seen = 0u64;
        for r in &rels {
            match r {
                PlanRelation::Base(i) => seen |= 1 << i,
                PlanRelation::Precomputed { atoms, .. } => {
                    for &a in atoms {
                        seen |= 1 << a;
                    }
                }
            }
        }
        assert_eq!(seen, (1 << q.atoms.len()) - 1);
    }
}
