//! The ADJ plan optimizer — Algorithm 2 of the paper.
//!
//! The traversal order and the pre-compute set are decided together, in
//! *reverse*: the last traversed node is chosen first, because "the last few
//! steps of Leapfrog usually dominate the entire computation cost" (Fig. 6),
//! so the biggest pre-computing pay-off is at the tail. At each position the
//! optimizer compares, per eligible node `v` (eligibility = the remaining
//! nodes stay connected in `T`, line 6), the cost of extending into `v`
//! without pre-computing (`costC + costE`) against pre-computing its bag
//! (`costM + costC' + costE'`), and keeps the cheapest. A query with bound
//! attributes (literals or `$name` parameters) has no bag option: every
//! execution recomputes a bag over whole relations, which `costM`, charged
//! once per plan, does not price.
//!
//! A position's prices read sub-join cardinalities: for each eligible `v`,
//! the atoms inside the bags of the nodes before it, and `v`'s bag when it
//! has several edges. The search hands all of them to the estimator before
//! it prices the position, together with the attributes whose `|val(A)|`
//! the prices read, so they are built and sampled as one batch on the
//! cluster's workers ([`CostEstimator::sample`]); the attribute order's
//! `|val(A)|` comparisons are read as one more batch before the order is
//! derived.

use crate::cost::{CostEstimator, CostParams};
use crate::executor::Strategy;
use crate::plan::QueryPlan;
use crate::AdjConfig;
use adj_cluster::Cluster;
use adj_hcube::{ExecCtx, PlannedTries};
use adj_query::order::{hoist_bound, new_attrs_per_step};
use adj_query::{GhdTree, JoinQuery};
use adj_relational::{Attr, Database, Error, Result};

/// Finds a query plan for `query` over `db`, cold: [`optimize_in`] under
/// [`ExecCtx::default`] on a cluster of `config.cluster`, its built tries
/// dropped.
pub fn optimize(
    query: &JoinQuery,
    db: &Database,
    config: &AdjConfig,
    strategy: Strategy,
) -> Result<QueryPlan> {
    let cluster = Cluster::try_new(config.cluster.clone())?;
    optimize_in(query, db, config, &cluster, strategy, &ExecCtx::default()).map(|(plan, _)| plan)
}

/// HCubeJ's attribute order for `query` over `db`, planned cold on
/// `cluster`: the "All-Selected" search
/// ([`CostEstimator::all_selected_order`]) the communication-first strategy
/// runs, for the HCubeJ baseline and Fig. 8.
pub fn select_order_all(query: &JoinQuery, db: &Database, cluster: &Cluster) -> Result<Vec<Attr>> {
    let tree = GhdTree::decompose(&query.hypergraph(), 3);
    let (params, sampling, cold) = (CostParams::default(), Default::default(), ExecCtx::default());
    let estimator = CostEstimator::new(db, query, &tree, params, cluster, sampling, &cold);
    Ok(estimator.all_selected_order()?.1)
}

/// Finds a query plan for `query` over `db` on behalf of the request `ctx`,
/// building and sampling on `cluster`'s workers (whose configuration it
/// prices for): the sampler reads its tries from `ctx`'s index scope and
/// builds only what the cache misses, polling `ctx`'s token (a fired token
/// fails the search with [`Error::Cancelled`], a panicking worker with
/// [`Error::WorkerPanicked`]). Returns the plan and the tries built for it
/// in the level orders it indexes, for the execution to take over.
///
/// * [`Strategy::CoOptimize`] runs Algorithm 2 (ADJ proper).
/// * [`Strategy::CommFirst`] mimics HCubeJ: never pre-compute, pick the
///   attribute order over *all* `n!` permutations by estimated intermediate
///   tuples (the paper's "All-Selected" selection).
pub fn optimize_in(
    query: &JoinQuery,
    db: &Database,
    config: &AdjConfig,
    cluster: &Cluster,
    strategy: Strategy,
    ctx: &ExecCtx<'_>,
) -> Result<(QueryPlan, PlannedTries)> {
    let h = query.hypergraph();
    let tree = GhdTree::decompose(&h, 3);
    let (cost, sampling) = (config.cost, config.sampling);
    let estimator = CostEstimator::new(db, query, &tree, cost, cluster, sampling, ctx);

    let plan = match strategy {
        Strategy::CommFirst => {
            // HCubeJ: C = ∅; order selected over all permutations.
            let (score, mut order) = estimator.all_selected_order()?;
            // Prepared/bound follow-up: seek constants before intersecting.
            // Any permutation is acceptable in this strategy's search space,
            // so the whole order may be hoisted.
            hoist_bound(&mut order, bound_attr_mask(query)?);
            let relations = QueryPlan::relations_for(query, &tree, 0);
            QueryPlan {
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
            }
        }
        Strategy::CoOptimize => algorithm2(query, &tree, &estimator)?,
    };
    estimator.check()?;
    let planned = estimator.planned(&plan.order);
    Ok((plan, planned))
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
        estimator.check()?;
        // Everything this position prices is sampled first, as one batch.
        let (masks, read) = position_reads(tree, &adj, remaining, estimator);
        estimator.sample(&masks, read)?;
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
            let prefix_attrs = bag_union(tree, rest);

            // Option 1: do not pre-compute v.
            let cost_plain = cc + estimator.cost_e_step(prefix_attrs, false);
            if best.as_ref().is_none_or(|(bc, _, _)| cost_plain < *bc) {
                best = Some((cost_plain, v, false));
            }

            // Option 2: pre-compute v's bag.
            if bag_option(tree, v, estimator) {
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

    // An interrupted search priced some steps at `∞`: fail it before the
    // share is solved over those prices.
    estimator.check()?;
    let traversal: Vec<usize> = tail_rev.iter().rev().copied().collect();
    let order = derive_order(tree, &traversal, estimator, bound_attr_mask(query)?)?;
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

/// What the search position over the `remaining` nodes prices: per
/// eligible node `v`, the sub-join of the atoms inside the bags of the
/// nodes before it and, if `v`'s bag may be pre-computed ([`bag_option`]),
/// the bag's join (`costM` and `costC'`); and the attributes of those prefixes no
/// contained atom constrains, whose `|val(A)|` the prefix estimates read.
fn position_reads(
    tree: &GhdTree,
    adj: &[Vec<usize>],
    remaining: u64,
    estimator: &CostEstimator<'_>,
) -> (Vec<u64>, u64) {
    let (mut masks, mut read) = (Vec::new(), 0u64);
    for v in (0..tree.len()).filter(|v| remaining & (1 << v) != 0) {
        let rest = remaining & !(1 << v);
        if !nodes_connected(adj, rest) {
            continue;
        }
        let (contained, uncovered) = estimator.prefix_reads(bag_union(tree, rest));
        masks.push(contained);
        read |= uncovered;
        if bag_option(tree, v, estimator) {
            masks.push(tree.nodes[v].edges);
        }
    }
    (masks, read)
}

/// Whether Algorithm 2 may pre-compute `v`'s bag: only a bag of several
/// edges is worth it, and only for a query that binds nothing — `costM`
/// charges a bag once per plan, but every execution computes it again
/// over whole relations, so each bound call would pay for it in full.
fn bag_option(tree: &GhdTree, v: usize, estimator: &CostEstimator<'_>) -> bool {
    estimator.bound_mask() == 0 && !tree.nodes[v].is_single_edge()
}

/// The attributes of the bags of the nodes in `nodes`: those bound before
/// extending into a node when `nodes` are the ones traversed before it.
fn bag_union(tree: &GhdTree, nodes: u64) -> u64 {
    (0..tree.len()).filter(|u| nodes & (1 << u) != 0).fold(0u64, |m, u| m | tree.nodes[u].vertices)
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
) -> Result<Vec<Attr>> {
    let steps = new_attrs_per_step(tree, traversal);
    // A step of several attributes compares their `|val(A)|`s.
    let read = steps.iter().filter(|step| step.len() > 1).flatten().fold(0, |m, a| m | a.mask());
    estimator.sample(&[], read)?;
    let mut order = Vec::new();
    for mut step in steps {
        estimator.order_attrs_by_selectivity(&mut step);
        hoist_bound(&mut step, bound_mask);
        order.extend(step);
    }
    Ok(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adj_query::order::is_valid_order;
    use adj_query::{paper_query, Atom, PaperQuery};
    use adj_relational::{Relation, Schema, Value};
    use std::sync::Arc;

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
        // One trie per distinct (relation, level order) the seven sampled
        // sub-joins read: Q5's seven relations, one of them in two orders.
        // The other fourteen members reuse them; a cold plan has no index
        // cache to read.
        assert_eq!((stats.subjoins_sampled, stats.tries_built), (7, 8), "{stats:?}");
        assert_eq!((stats.tries_cached, stats.tries_reused), (0, 14), "{stats:?}");
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
    fn a_warm_cache_serves_the_sampler_and_the_plan_hands_over_its_builds() {
        use adj_hcube::{IndexCache, IndexScope};
        let q = paper_query(PaperQuery::Q5);
        let db = db_for(&q, 200, 43);
        let cfg = AdjConfig::default();
        let cluster = Cluster::new(cfg.cluster.clone());
        let strategy = Strategy::CoOptimize;
        let (cold, planned) =
            optimize_in(&q, &db, &cfg, &cluster, strategy, &ExecCtx::default()).unwrap();
        // The hand-over holds the built tries the plan indexes: those whose
        // levels follow its order.
        let built = cold.optimizer.tries_built;
        assert!(!planned.is_empty() && (planned.len() as u64) < built, "{}", planned.len());
        let induced = |a: &Atom| {
            let attrs = cold.order.iter().copied().filter(|x| a.schema.contains(*x)).collect();
            Schema::new(attrs).unwrap()
        };
        for atom in &q.atoms {
            if let Some(trie) = planned.get(&atom.name, &induced(atom)) {
                let stored = db.get(&atom.name).unwrap();
                assert_eq!(trie.to_relation(), stored.permute(induced(atom).attrs()).unwrap());
            }
        }

        // Publish them as a round would: a search over that cache reads
        // them, builds only the rest, hands nothing over and plans alike.
        let cache = IndexCache::new(64 << 20);
        let scope = IndexScope { cache: &cache, db_tag: 1, epoch: 0, versions: &[] };
        for atom in &q.atoms {
            if let Some(trie) = planned.get(&atom.name, &induced(atom)) {
                let key = scope.index_key(atom.name.as_str(), induced(atom).attrs().to_vec());
                cache.store().insert(key, Arc::clone(trie));
            }
        }
        let ctx = ExecCtx { index: Some(&scope), ..Default::default() };
        let (warm, again) = optimize_in(&q, &db, &cfg, &cluster, strategy, &ctx).unwrap();
        let stats = warm.optimizer;
        assert_eq!(stats.tries_cached, planned.len() as u64, "{stats:?}");
        assert_eq!(stats.tries_built, built - planned.len() as u64, "{stats:?}");
        assert!(again.is_empty(), "every trie the plan indexes was read from the cache");
        assert_eq!(
            (warm.order, warm.precompute, warm.share),
            (cold.order, cold.precompute, cold.share)
        );
        assert_eq!(warm.estimated_cost_secs.to_bits(), cold.estimated_cost_secs.to_bits());
    }

    #[test]
    fn a_fired_token_fails_the_search_typed() {
        let q = paper_query(PaperQuery::Q5);
        let db = db_for(&q, 200, 43);
        let cancel = adj_faults::CancelToken::manual();
        cancel.cancel();
        let ctx = ExecCtx { cancel, ..Default::default() };
        let cfg = AdjConfig::default();
        let cluster = Cluster::new(cfg.cluster.clone());
        let planned = optimize_in(&q, &db, &cfg, &cluster, Strategy::CoOptimize, &ctx);
        assert!(matches!(planned, Err(Error::Cancelled { deadline_exceeded: false })));
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
