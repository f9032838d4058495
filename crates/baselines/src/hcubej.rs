//! HCubeJ and HCubeJ+Cache (the one-round baselines of Sec. VII).
//!
//! HCubeJ = HCube (original **Push** implementation — the optimized
//! Pull/Merge shuffles are ADJ contributions, Sec. V) + Leapfrog, with the
//! communication-first share optimization and the attribute order selected
//! over *all* `n!` orders ("All-Selected" in Fig. 8). HCubeJ+Cache swaps the
//! join for the capacity-bounded CacheTrieJoin variant; "it prioritizes the
//! memory usage for HCube over memory usage for CacheTrieJoin", so the cache
//! capacity shrinks as shuffled data grows.

use crate::cached::CachedJoin;
use crate::{BaselineConfig, BaselineReport};
use adj_cluster::Cluster;
use adj_core::{CostEstimator, CostParams, ExecCtx};
use adj_hcube::{hcube_shuffle, optimize_share, HCubeImpl, HCubePlan, ShareInput, ShuffleOutput};
use adj_leapfrog::{JoinCounters, LeapfrogJoin};
use adj_query::order::all_orders;
use adj_query::{GhdTree, JoinQuery};
use adj_relational::{Attr, Database, Error, Relation, Result, Schema, Value};
use adj_sampling::SamplingConfig;

/// Runs HCubeJ (plain Leapfrog).
pub fn run_hcubej(
    cluster: &Cluster,
    db: &Database,
    query: &JoinQuery,
    config: &BaselineConfig,
) -> Result<(Relation, BaselineReport)> {
    run_inner(cluster, db, query, config, false)
}

/// Runs HCubeJ+Cache (CacheTrieJoin with the configured capacity).
pub fn run_hcubej_cached(
    cluster: &Cluster,
    db: &Database,
    query: &JoinQuery,
    config: &BaselineConfig,
) -> Result<(Relation, BaselineReport)> {
    run_inner(cluster, db, query, config, true)
}

fn run_inner(
    cluster: &Cluster,
    db: &Database,
    query: &JoinQuery,
    config: &BaselineConfig,
    cached: bool,
) -> Result<(Relation, BaselineReport)> {
    crate::reject_bound_terms(query)?;
    let mut report = BaselineReport::default();
    let (order, shuffled) = shuffle(cluster, db, query, config)?;
    report.comm_tuples = shuffled.report.tuples;
    report.rounds = 1;
    report.comm_secs = shuffled.report.comm_secs + shuffled.report.build_secs;

    let budget = config.max_intermediate_tuples;
    let locals = &shuffled.locals;
    let order_ref = &order;
    let cache_cap = config.cache_capacity_values;
    let run = cluster.run(move |w| {
        let tries: Vec<&adj_relational::Trie> = locals[w].iter().map(|l| l.trie.as_ref()).collect();
        let mut rows: Vec<Value> = Vec::new();
        let mut over = false;
        let width = order_ref.len();
        let counters = if cached {
            // The cached variant counts only (its cache makes per-tuple
            // emission through closures messier); materialize via the plain
            // join only when results are needed. For baseline comparisons we
            // need the result relation, so run plain for rows + cached for
            // realistic counters/time.
            let join = CachedJoin::new(order_ref, tries.clone(), cache_cap)?;
            let (_, c, _) = join.count();
            let plain = LeapfrogJoin::new(order_ref, tries)?;
            plain.run(|t| {
                if rows.len() < budget.saturating_mul(width) {
                    rows.extend_from_slice(t);
                } else {
                    over = true;
                }
            });
            c
        } else {
            let join = LeapfrogJoin::new(order_ref, tries)?;
            join.run(|t| {
                if rows.len() < budget.saturating_mul(width) {
                    rows.extend_from_slice(t);
                } else {
                    over = true;
                }
            })
        };
        if over {
            return Err(Error::BudgetExceeded { what: "join output tuples", limit: budget });
        }
        Ok((rows, counters))
    });
    report.comp_secs = run.makespan_secs;

    let mut all: Vec<Value> = Vec::new();
    let mut counters = JoinCounters::new(order.len());
    for r in run.results {
        let (rows, c) = r.map_err(Error::from)??;
        all.extend_from_slice(&rows);
        counters.merge(&c);
    }
    let result = Relation::from_flat(Schema::new(order.clone())?, all)?;
    report.output_tuples = result.len() as u64;
    report.counters = counters;
    Ok((result, report))
}

/// HCubeJ's one round: the attribute order over all orders, the
/// communication-first share, and the Push shuffle of every atom.
fn shuffle(
    cluster: &Cluster,
    db: &Database,
    query: &JoinQuery,
    config: &BaselineConfig,
) -> Result<(Vec<Attr>, ShuffleOutput)> {
    let order = select_order_all(db, query, cluster, config)?;
    // Communication-first share optimization over the base relations.
    let input = ShareInput {
        num_attrs: query.num_attrs(),
        relations: query
            .atoms
            .iter()
            .map(|a| Ok((a.schema.mask(), db.get(&a.name)?.len())))
            .collect::<Result<_>>()?,
        num_workers: cluster.num_workers(),
        memory_limit_bytes: cluster.config().memory_limit_bytes,
        bytes_per_value: 4,
        hot: Vec::new(),
        require_exact_product: false,
        bound_mask: 0,
    };
    let share = optimize_share(&input)?;
    let hplan = HCubePlan::new(share, cluster.num_workers());
    let names: Vec<String> = query.atoms.iter().map(|a| a.name.clone()).collect();
    // Original tuple-at-a-time Push shuffle.
    let shuffled = hcube_shuffle(cluster, db, &names, &hplan, &order, HCubeImpl::Push)?;
    Ok((order, shuffled))
}

/// HCubeJ's order selection: score every permutation of `attrs(Q)` by the
/// estimated intermediate-binding total and keep the best — the
/// "All-Selected" strategy of Fig. 8. The estimate is the sampling-free
/// selectivity sketch ([`CostEstimator::score_order_cheap`]): `n!` orders
/// are more than sampling can afford.
pub fn select_order_all(
    db: &Database,
    query: &JoinQuery,
    cluster: &Cluster,
    config: &BaselineConfig,
) -> Result<Vec<Attr>> {
    let attrs = query.attrs();
    if attrs.len() > 6 {
        return Err(Error::BudgetExceeded { what: "all-orders enumeration", limit: 720 });
    }
    let tree = GhdTree::decompose(&query.hypergraph(), 3);
    let cold = ExecCtx::default();
    let est = CostEstimator::new(
        db,
        query,
        &tree,
        CostParams::default(),
        cluster.config(),
        SamplingConfig { samples: config.order_samples, seed: 0xAD10 },
        &cold,
    );
    let mut best: Option<(f64, Vec<Attr>)> = None;
    for o in all_orders(&attrs) {
        let s = est.score_order_cheap(&o);
        if best.as_ref().is_none_or(|(bs, _)| s < *bs) {
            best = Some((s, o));
        }
    }
    Ok(best.expect("non-empty attribute set").1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adj_cluster::ClusterConfig;
    use adj_leapfrog::reference::plain_leapfrog;
    use adj_query::{paper_query, PaperQuery};
    use adj_relational::Trie;

    fn db_for(q: &JoinQuery, n: u32, m: u32) -> Database {
        let edges: Vec<(Value, Value)> = (0..n)
            .flat_map(|i| vec![(i % m, (i * 7 + 1) % m), ((i * 3) % m, (i * 11 + 5) % m)])
            .collect();
        q.instantiate(&Relation::from_pairs(Attr(0), Attr(1), &edges))
    }

    fn truth(db: &Database, q: &JoinQuery) -> Relation {
        let mut it = q.atoms.iter();
        let mut acc = db.get(&it.next().unwrap().name).unwrap().clone();
        for a in it {
            acc = acc.join(db.get(&a.name).unwrap()).unwrap();
        }
        acc
    }

    #[test]
    fn hcubej_triangle_matches_truth() {
        let q = paper_query(PaperQuery::Q1);
        let db = db_for(&q, 150, 31);
        let cluster = Cluster::new(ClusterConfig::with_workers(4));
        let (result, report) = run_hcubej(&cluster, &db, &q, &BaselineConfig::default()).unwrap();
        let t = truth(&db, &q);
        assert_eq!(result.len(), t.len());
        assert_eq!(result.permute(t.schema().attrs()).unwrap(), t);
        assert_eq!(report.rounds, 1, "one-round method");
    }

    #[test]
    fn cached_variant_same_result_fewer_ops() {
        let q = paper_query(PaperQuery::Q4);
        let db = db_for(&q, 150, 29);
        let cfg = BaselineConfig::default();
        let cluster = Cluster::new(ClusterConfig::with_workers(4));
        let (r1, _) = run_hcubej(&cluster, &db, &q, &cfg).unwrap();
        let c2 = Cluster::new(ClusterConfig::with_workers(4));
        let (r2, rep2) = run_hcubej_cached(&c2, &db, &q, &cfg).unwrap();
        assert_eq!(r1.len(), r2.len());
        // What the cache saves is measured against the dance it wraps, over
        // the same workers' tries.
        let c3 = Cluster::new(ClusterConfig::with_workers(4));
        let (order, shuffled) = shuffle(&c3, &db, &q, &cfg).unwrap();
        let dance: u64 = shuffled
            .locals
            .iter()
            .map(|locals| {
                let tries: Vec<&Trie> = locals.iter().map(|l| l.trie.as_ref()).collect();
                plain_leapfrog(&tries, &order, &mut |_, _, _, _| {})
            })
            .sum();
        assert!(
            rep2.counters.intersect_ops <= dance,
            "cached {} vs plain dance {dance}",
            rep2.counters.intersect_ops
        );
    }

    #[test]
    fn push_memory_failure_reproduces_paper_oom() {
        let q = paper_query(PaperQuery::Q3);
        let db = db_for(&q, 200, 31);
        let mut cfg = ClusterConfig::with_workers(4);
        cfg.memory_limit_bytes = Some(2_000); // tiny worker memory
        let cluster = Cluster::new(cfg);
        let err = run_hcubej(&cluster, &db, &q, &BaselineConfig::default());
        assert!(err.is_err(), "Push shuffle must exceed the memory budget");
    }

    #[test]
    fn selected_order_is_a_permutation() {
        let q = paper_query(PaperQuery::Q5);
        let db = db_for(&q, 100, 23);
        let cluster = Cluster::new(ClusterConfig::with_workers(2));
        let o = select_order_all(&db, &q, &cluster, &BaselineConfig::default()).unwrap();
        let mut s = o.clone();
        s.sort();
        s.dedup();
        assert_eq!(s.len(), q.num_attrs());
    }
}
