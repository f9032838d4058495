//! Query plans: the `(Qi, ord)` pairs of the paper's problem statement.

use adj_hcube::RoundLayout;
use adj_leapfrog::{CountSplit, JoinLayout};
use adj_query::{GhdTree, JoinQuery};
use adj_relational::{Attr, Levels, Schema};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

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
/// `optimize` call built against how much it read from the index cache or
/// served again from its own.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptimizerStats {
    /// Distinct sub-joins whose cardinality was sampled.
    pub subjoins_sampled: u64,
    /// Leapfrog extension operations performed across those sampling runs.
    pub sample_extensions: u64,
    /// Distinct drawn values counted across those sampling runs — each
    /// walked once however often it was drawn, against
    /// `subjoins_sampled × k` draws.
    pub sample_values: u64,
    /// Sub-joins the sampler refused; each was priced as `∞`.
    pub sampler_errors: u64,
    /// Sampling tries built, one per distinct (relation, level order) the
    /// index cache did not hold.
    pub tries_built: u64,
    /// Sampling tries taken from the index cache instead.
    pub tries_cached: u64,
    /// Sampling tries a later sub-join took from the optimizer's own ones.
    pub tries_reused: u64,
    /// Share programs solved, one per distinct pre-compute set priced.
    pub share_solves: u64,
    /// `costC` requests answered from an earlier solve.
    pub share_reused: u64,
    /// Share vectors scored across all those solves (the search prunes
    /// the rest of each lattice).
    pub share_candidates: u64,
}

impl OptimizerStats {
    /// The counters as `(name, value)` pairs — what trace spans attach and
    /// `EXPLAIN` prints.
    pub fn args(&self) -> [(&'static str, u64); 10] {
        [
            ("subjoins_sampled", self.subjoins_sampled),
            ("sample_extensions", self.sample_extensions),
            ("sample_values", self.sample_values),
            ("sampler_errors", self.sampler_errors),
            ("tries_built", self.tries_built),
            ("tries_cached", self.tries_cached),
            ("tries_reused", self.tries_reused),
            ("share_solves", self.share_solves),
            ("share_reused", self.share_reused),
            ("share_candidates", self.share_candidates),
        ]
    }
}

/// One round of a plan (a pre-computed bag's, or the final one) as its
/// executions run it: the round's layout keyed for the index scope it last
/// ran under, the layout of the join over its tries, and how an unbound
/// `Count` of that join is counted bag by bag, when it splits.
#[derive(Debug)]
pub(crate) struct Round {
    /// The relations, their induced orders and their index keys.
    pub(crate) layout: RoundLayout,
    /// The join over the round's tries, in the round's relation order.
    pub(crate) join: Arc<JoinLayout>,
    /// The join's split into counted bags, if it splits.
    pub(crate) counted: Option<CountedRound>,
}

/// How a round's join is counted bag by bag ([`CountSplit`]): the split,
/// and the layout of the relations its bags read under orders of their own
/// — same relations, one index entry more each.
#[derive(Debug)]
pub(crate) struct CountedRound {
    pub(crate) split: CountSplit,
    pub(crate) reordered: RoundLayout,
}

/// The rounds a plan's executions have prepared.
///
/// A round's relations, keys and join layout are a function of the order
/// and the scope's database state — nothing an individual call contributes
/// — so a warm execution looks its indexes up by keys built once. A round
/// whose scope moved on (a mutation, a re-registration) is keyed again and
/// replaces the one it re-keys. The serving layer re-keys plans on every
/// mutation, so a plan's memo holds one round per round of the plan.
#[derive(Debug, Default)]
pub(crate) struct RoundMemo {
    rounds: Mutex<Vec<Arc<Round>>>,
}

impl RoundMemo {
    // Rounds are only ever pushed or replaced whole, so a panic elsewhere
    // while the lock was held leaves nothing half-written to recover from.
    fn rounds(&self) -> MutexGuard<'_, Vec<Arc<Round>>> {
        self.rounds.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The first kept round `fits` accepts.
    pub(crate) fn find(&self, fits: impl Fn(&Round) -> bool) -> Option<Arc<Round>> {
        self.rounds().iter().find(|r| fits(r)).cloned()
    }

    /// Keeps `round`, in place of the round over the same relations it
    /// re-keys, if any. Two executions that raced to prepare the same round
    /// leave one.
    pub(crate) fn keep(&self, round: Arc<Round>) {
        let mut rounds = self.rounds();
        match rounds.iter_mut().find(|r| r.layout.same_relations(round.layout.relations())) {
            Some(slot) => *slot = round,
            None => rounds.push(round),
        }
    }
}

impl Clone for RoundMemo {
    fn clone(&self) -> Self {
        RoundMemo { rounds: Mutex::new(self.rounds().clone()) }
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
    /// The HCube share vector `p` the plan is priced under, one share per
    /// attribute id: the optimum `costC` solved for the chosen pre-compute
    /// set. Every execution reports it and prices its rounds by it.
    pub share: Levels<u32>,
    /// The optimizer's estimated total cost in seconds (for diagnostics).
    pub estimated_cost_secs: f64,
    /// Wall-clock seconds spent constructing this plan (GHD search +
    /// sampling + Algorithm 2). Filled by [`Adj::plan`](crate::Adj::plan);
    /// 0 for hand-built plans. A cached plan's construction cost is charged
    /// once, not per re-execution.
    pub optimization_secs: f64,
    /// What the optimizer sampled, built and reused to find this plan.
    pub optimizer: OptimizerStats,
    /// The shuffle rounds this plan's executions have prepared.
    pub(crate) rounds: RoundMemo,
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

    /// How an unbound `Count` of this plan splits its relations into bags
    /// counted one by one and combined by a dot product ([`CountSplit`]),
    /// or `None` when they do not split: the executor enumerates then.
    pub fn count_split(&self) -> Option<CountSplit> {
        CountSplit::new(&self.order, self.relations.iter().map(|r| r.schema(&self.query)))
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
