//! The ADJ plan optimizer — Algorithm 2 of the paper.
//!
//! The traversal order and the pre-compute set are decided together, in
//! *reverse*: the last traversed node is chosen first, because "the last few
//! steps of Leapfrog usually dominate the entire computation cost" (Fig. 6),
//! so the biggest pre-computing pay-off is at the tail. At each position the
//! optimizer compares, per eligible node `v` (eligibility = the remaining
//! nodes stay connected in `T`, line 6), the cost of extending into `v`
//! without pre-computing (`costC + costE`) against pre-computing its bag
//! (`costM + costC' + costE'`), and keeps the cheapest.

use crate::cost::CostEstimator;
use crate::executor::Strategy;
use crate::plan::QueryPlan;
use crate::AdjConfig;
use adj_query::order::{all_orders, hoist_bound, new_attrs_per_step};
use adj_query::{GhdTree, JoinQuery};
use adj_relational::{Attr, Database, Error, Result};

/// Finds a query plan for `query` over `db`.
///
/// * [`Strategy::CoOptimize`] runs Algorithm 2 (ADJ proper).
/// * [`Strategy::CommFirst`] mimics HCubeJ: never pre-compute, pick the
///   attribute order over *all* `n!` permutations by estimated intermediate
///   tuples (the paper's "All-Selected" selection).
pub fn optimize(
    query: &JoinQuery,
    db: &Database,
    config: &AdjConfig,
    strategy: Strategy,
) -> Result<QueryPlan> {
    let h = query.hypergraph();
    let tree = GhdTree::decompose(&h, 3);
    let estimator =
        CostEstimator::new(db, query, &tree, config.cost, &config.cluster, config.sampling);

    match strategy {
        Strategy::CommFirst => {
            // HCubeJ: C = ∅; order selected over all permutations.
            let attrs = query.attrs();
            if attrs.len() > 6 {
                return Err(Error::BudgetExceeded { what: "all-orders enumeration", limit: 720 });
            }
            let mut best: Option<(f64, Vec<Attr>)> = None;
            for o in all_orders(&attrs) {
                let s = estimator.score_order_cheap(&o);
                if best.as_ref().is_none_or(|(bs, _)| s < *bs) {
                    best = Some((s, o));
                }
            }
            let (score, mut order) = best.expect("non-empty query");
            // Prepared/bound follow-up: seek constants before intersecting.
            // Any permutation is acceptable in this strategy's search space,
            // so the whole order may be hoisted.
            hoist_bound(&mut order, bound_attr_mask(query)?);
            let relations = QueryPlan::relations_for(query, &tree, 0);
            Ok(QueryPlan {
                query: query.clone(),
                tree: tree.clone(),
                traversal: (0..tree.len()).collect(),
                precompute: Vec::new(),
                relations,
                order,
                // HCubeJ plans its share first, over the base relations.
                share: estimator.share(0)?,
                estimated_cost_secs: score,
                optimization_secs: 0.0,
                optimizer: estimator.stats(),
                rounds: Default::default(),
            })
        }
        Strategy::CoOptimize => algorithm2(query, &tree, &estimator),
    }
}

/// Algorithm 2: greedy reverse-order search over (traversal, pre-compute set).
fn algorithm2(
    query: &JoinQuery,
    tree: &GhdTree,
    estimator: &CostEstimator<'_>,
) -> Result<QueryPlan> {
    let n_star = tree.len();
    let adj = tree.adjacency();
    let all_nodes: u64 = (1u64 << n_star) - 1;

    let mut remaining = all_nodes;
    let mut c_mask: u64 = 0;
    let mut tail_rev: Vec<usize> = Vec::with_capacity(n_star); // reverse traversal
    let mut accumulated = 0.0f64;

    while remaining != 0 {
        let mut best: Option<(f64, usize, bool)> = None; // (cost, node, precompute?)

        // Option 1 shuffles the same relations whichever node is extended
        // into: its communication charge is priced once per position.
        let (cc, _) = estimator.cost_c(c_mask);
        for v in 0..n_star {
            if remaining & (1 << v) == 0 {
                continue;
            }
            let rest = remaining & !(1 << v);
            // Line 6: the yet-untraversed nodes must remain connected so the
            // reverse order can extend to a valid traversal.
            if !nodes_connected(&adj, rest) {
                continue;
            }
            // Attributes bound before extending into v: union of the bags of
            // the earlier (still-remaining) nodes.
            let prefix_attrs: u64 = (0..n_star)
                .filter(|u| rest & (1 << u) != 0)
                .fold(0u64, |m, u| m | tree.nodes[u].vertices);

            // Option 1: do not pre-compute v.
            let cost_plain = cc + estimator.cost_e_step(prefix_attrs, false);
            if best.as_ref().is_none_or(|(bc, _, _)| cost_plain < *bc) {
                best = Some((cost_plain, v, false));
            }

            // Option 2: pre-compute v's bag (only meaningful for multi-edge
            // bags).
            if !tree.nodes[v].is_single_edge() {
                let (cc2, _) = estimator.cost_c(c_mask | (1 << v));
                let cost_pre =
                    estimator.cost_m(v) + cc2 + estimator.cost_e_step(prefix_attrs, true);
                if best.as_ref().is_none_or(|(bc, _, _)| cost_pre < *bc) {
                    best = Some((cost_pre, v, true));
                }
            }
        }
        let (cost, v, pre) = best.ok_or(Error::BudgetExceeded {
            what: "no eligible node keeps the hypertree connected",
            limit: n_star,
        })?;
        accumulated += cost;
        if pre {
            c_mask |= 1 << v;
        }
        remaining &= !(1 << v);
        tail_rev.push(v);
    }

    let traversal: Vec<usize> = tail_rev.iter().rev().copied().collect();
    let order = derive_order(tree, &traversal, estimator, bound_attr_mask(query)?);
    let precompute: Vec<usize> = (0..n_star).filter(|v| c_mask & (1 << v) != 0).collect();
    let relations = QueryPlan::relations_for(query, tree, c_mask);
    Ok(QueryPlan {
        query: query.clone(),
        tree: tree.clone(),
        traversal,
        precompute,
        relations,
        order,
        share: estimator.share(c_mask)?,
        estimated_cost_secs: accumulated,
        optimization_secs: 0.0,
        optimizer: estimator.stats(),
        rounds: Default::default(),
    })
}

/// Whether the nodes in `mask` induce a connected subtree (empty and
/// singleton sets count as connected).
fn nodes_connected(adj: &[Vec<usize>], mask: u64) -> bool {
    if mask == 0 {
        return true;
    }
    let start = mask.trailing_zeros() as usize;
    let mut seen: u64 = 1 << start;
    let mut stack = vec![start];
    while let Some(u) = stack.pop() {
        for &w in &adj[u] {
            let wm = 1u64 << w;
            if mask & wm != 0 && seen & wm == 0 {
                seen |= wm;
                stack.push(w);
            }
        }
    }
    seen == mask
}

/// The attributes a plan's executions will always have a single value for:
/// inline-literal positions plus `$name` parameter positions. Value-erased
/// shape queries report the same mask, so every member of a plan-cache
/// shape family agrees on it.
fn bound_attr_mask(query: &JoinQuery) -> Result<u64> {
    let mut mask = query.const_bindings()?.mask();
    for (_, a) in query.param_attrs() {
        mask |= a.mask();
    }
    Ok(mask)
}

/// Turns a traversal order into a concrete attribute order: per node, the
/// fresh attributes sorted most-selective-first (ascending `|val(A)|`) —
/// the within-node choice the paper defers to [11] — then bound attributes
/// hoisted to the front of the node's block (a free within-node permutation,
/// so validity is preserved) so Leapfrog seeks constants before
/// intersecting.
fn derive_order(
    tree: &GhdTree,
    traversal: &[usize],
    estimator: &CostEstimator<'_>,
    bound_mask: u64,
) -> Vec<Attr> {
    let steps = new_attrs_per_step(tree, traversal);
    let mut order = Vec::new();
    for mut step in steps {
        estimator.order_attrs_by_selectivity(&mut step);
        hoist_bound(&mut step, bound_mask);
        order.extend(step);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use adj_query::order::is_valid_order;
    use adj_query::{paper_query, PaperQuery};
    use adj_relational::{Relation, Value};

    fn db_for(q: &JoinQuery, n: u32, m: u32) -> Database {
        let edges: Vec<(Value, Value)> = (0..n)
            .flat_map(|i| vec![(i % m, (i * 7 + 1) % m), ((i * 3) % m, (i * 11 + 5) % m)])
            .collect();
        q.instantiate(&Relation::from_pairs(Attr(0), Attr(1), &edges))
    }

    #[test]
    fn coopt_plan_is_well_formed() {
        let q = paper_query(PaperQuery::Q5);
        let db = db_for(&q, 200, 43);
        let cfg = AdjConfig::default();
        let plan = optimize(&q, &db, &cfg, Strategy::CoOptimize).unwrap();
        // order covers all attributes exactly once
        let mut o = plan.order.clone();
        o.sort();
        o.dedup();
        assert_eq!(o.len(), q.num_attrs());
        // order is valid for the hypertree
        assert!(is_valid_order(&plan.tree, &plan.order), "order {:?}", plan.order);
        // traversal is a permutation of the tree nodes
        let mut t = plan.traversal.clone();
        t.sort_unstable();
        assert_eq!(t, (0..plan.tree.len()).collect::<Vec<_>>());
        // pre-computed nodes are multi-edge bags
        for &v in &plan.precompute {
            assert!(!plan.tree.nodes[v].is_single_edge());
        }
    }

    #[test]
    fn one_optimize_builds_and_solves_each_artifact_once() {
        let q = paper_query(PaperQuery::Q5);
        let db = db_for(&q, 200, 43);
        let plan = optimize(&q, &db, &AdjConfig::default(), Strategy::CoOptimize).unwrap();
        let stats = plan.optimizer;
        // At most one trie per (atom, column order), and a binary atom has
        // two column orders; later sub-joins reuse them.
        assert!(stats.tries_built <= 2 * q.atoms.len() as u64, "{stats:?}");
        assert!(stats.tries_reused > 0, "{stats:?}");
        assert_eq!(stats.sampler_errors, 0);
        assert!(stats.subjoins_sampled > 0 && stats.sample_extensions > 0, "{stats:?}");
        // The share solver runs once per distinct pre-compute mask priced.
        // Replay the search's decisions to collect those masks.
        let tree = &plan.tree;
        let adj = tree.adjacency();
        let mut priced = std::collections::BTreeSet::new();
        let (mut remaining, mut c_mask) = ((1u64 << tree.len()) - 1, 0u64);
        for &chosen in plan.traversal.iter().rev() {
            priced.insert(c_mask);
            for v in (0..tree.len()).filter(|v| remaining & (1 << v) != 0) {
                let eligible = nodes_connected(&adj, remaining & !(1 << v));
                if eligible && !tree.nodes[v].is_single_edge() {
                    priced.insert(c_mask | (1 << v));
                }
            }
            if plan.precompute.contains(&chosen) {
                c_mask |= 1 << chosen;
            }
            remaining &= !(1 << chosen);
        }
        assert_eq!(stats.share_solves, priced.len() as u64, "{stats:?} masks {priced:?}");
        assert!(stats.share_reused > 0, "{stats:?}");
    }

    #[test]
    fn commfirst_never_precomputes() {
        let q = paper_query(PaperQuery::Q5);
        let db = db_for(&q, 200, 43);
        let cfg = AdjConfig::default();
        let plan = optimize(&q, &db, &cfg, Strategy::CommFirst).unwrap();
        assert!(plan.precompute.is_empty());
        assert_eq!(plan.relations.len(), q.atoms.len());
    }

    #[test]
    fn triangle_has_no_precompute_choice() {
        // One-bag tree: nothing to pre-compute (pre-computing the whole
        // query is never chosen since the single bag IS the query and
        // costM would include the whole join).
        let q = paper_query(PaperQuery::Q1);
        let db = db_for(&q, 150, 37);
        let cfg = AdjConfig::default();
        let plan = optimize(&q, &db, &cfg, Strategy::CoOptimize).unwrap();
        assert_eq!(plan.tree.len(), 1);
        assert_eq!(plan.order.len(), 3);
    }

    #[test]
    fn bound_attrs_hoist_to_the_front_of_the_order() {
        // Triangle with one literal-pinned position: the bound attribute
        // must lead the order under both strategies, and the order must
        // stay valid for the hypertree.
        let (q, _) = adj_query::parse_query("R1(a,b), R2(b,c), R3(5,c)").unwrap();
        let bound = q
            .atoms
            .iter()
            .flat_map(|at| at.terms.iter().zip(at.schema.attrs()))
            .find(|(t, _)| t.is_bound())
            .map(|(_, &a)| a)
            .expect("query has a bound position");
        let db = db_for(&q, 150, 37);
        let cfg = AdjConfig::default();

        // CommFirst hoists the whole order: the bound attribute leads.
        let plan = optimize(&q, &db, &cfg, Strategy::CommFirst).unwrap();
        assert_eq!(plan.order[0], bound, "CommFirst order {:?}", plan.order);

        // CoOptimize hoists within each hypernode's fresh block (the tree
        // may have several bags): the bound attribute leads its block and
        // the order stays valid.
        let plan = optimize(&q, &db, &cfg, Strategy::CoOptimize).unwrap();
        assert!(is_valid_order(&plan.tree, &plan.order));
        for step in new_attrs_per_step(&plan.tree, &plan.traversal) {
            if step.contains(&bound) {
                let start = plan.order.iter().position(|&a| a == bound).unwrap();
                let block_start = plan
                    .order
                    .iter()
                    .position(|a| step.contains(a))
                    .expect("block appears in order");
                assert_eq!(start, block_start, "bound attr must lead its block");
            }
        }

        // The value-erased shape query hoists identically, so a cached plan
        // built from the erased form serves every literal in the family.
        let erased = q.erase_bound_values();
        let plan = optimize(&erased, &db, &cfg, Strategy::CommFirst).unwrap();
        assert_eq!(plan.order[0], bound);
    }

    #[test]
    fn connectivity_helper() {
        // path tree 0-1-2
        let adj = vec![vec![1], vec![0, 2], vec![1]];
        assert!(nodes_connected(&adj, 0b111));
        assert!(nodes_connected(&adj, 0b011));
        assert!(!nodes_connected(&adj, 0b101));
        assert!(nodes_connected(&adj, 0b100));
        assert!(nodes_connected(&adj, 0));
    }

    #[test]
    fn reverse_search_last_node_choice_is_leaf_eligible() {
        // In a path tree the first removed (= last traversed) node must be a
        // leaf, otherwise the remainder disconnects — mirrored by the
        // traversal being a connected prefix sequence.
        let q = paper_query(PaperQuery::Q6);
        let db = db_for(&q, 150, 31);
        let cfg = AdjConfig::default();
        let plan = optimize(&q, &db, &cfg, Strategy::CoOptimize).unwrap();
        let adj = plan.tree.adjacency();
        for i in 1..plan.traversal.len() {
            assert!(
                plan.traversal[..i].iter().any(|&u| adj[plan.traversal[i]].contains(&u)),
                "traversal prefix disconnected"
            );
        }
    }
}
