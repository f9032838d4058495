//! Integration tests of the distributed machinery: worker-count invariance,
//! shuffle-implementation invariance, failure reproduction, and the
//! distributed sampler.

use adj::prelude::*;
use adj_baselines::{run_hcubej, BaselineConfig};
use adj_cluster::Cluster;
use adj_sampling::estimate_distributed;

#[test]
fn result_invariant_under_worker_count() {
    let q = paper_query(PaperQuery::Q4);
    let g = Dataset::AS.graph(0.01);
    let db = q.instantiate(&g);
    let mut counts = Vec::new();
    for w in [1usize, 2, 3, 4, 7, 8] {
        let adj = Adj::with_workers(w);
        let out = adj.execute(&q, &db).unwrap();
        counts.push(out.rows().len());
    }
    assert!(counts.iter().all(|&c| c == counts[0]), "{counts:?}");
}

#[test]
fn comm_tuples_grow_with_cluster_width() {
    // HCube duplication grows with the share product, so a wider cluster
    // shuffles more copies (the communication/parallelism trade-off).
    let q = paper_query(PaperQuery::Q1);
    let g = Dataset::WB.graph(0.02);
    let db = q.instantiate(&g);
    let narrow = Adj::with_workers(1).execute(&q, &db).unwrap().report.comm_tuples;
    let wide = Adj::with_workers(16).execute(&q, &db).unwrap().report.comm_tuples;
    assert!(wide > narrow, "wide={wide} narrow={narrow}");
}

#[test]
fn one_round_methods_use_one_round() {
    let q = paper_query(PaperQuery::Q2);
    let g = Dataset::WB.graph(0.01);
    let db = q.instantiate(&g);
    let cluster = Cluster::new(ClusterConfig::with_workers(4));
    let (_, rep) = run_hcubej(&cluster, &db, &q, &BaselineConfig::default()).unwrap();
    assert_eq!(rep.rounds, 1);
}

#[test]
fn memory_budget_fails_hcubej_but_not_adj_coopt_path() {
    // ADJ still optimizes shares under the budget; the point here is that
    // the failure surfaces as a typed error, not a panic.
    let q = paper_query(PaperQuery::Q3);
    let g = Dataset::LJ.graph(0.02);
    let db = q.instantiate(&g);
    let mut cfg = ClusterConfig::with_workers(4);
    cfg.memory_limit_bytes = Some(1_000);
    let cluster = Cluster::new(cfg);
    let r = run_hcubej(&cluster, &db, &q, &BaselineConfig::default());
    assert!(r.is_err());
}

#[test]
fn distributed_sampler_matches_and_saves_communication() {
    let q = paper_query(PaperQuery::Q4);
    let g = Dataset::AS.graph(0.015);
    let db = q.instantiate(&g);
    let order = q.attrs();
    let cluster = Cluster::new(ClusterConfig::with_workers(4));
    let cfg = SamplingConfig { samples: 64, seed: 11 };
    let (est, report) = estimate_distributed(&cluster, &db, &q, &order, &cfg).unwrap();
    let seq = Sampler::new(&db, &q, &order).unwrap().estimate(&cfg).unwrap();
    assert_eq!(est.cardinality, seq.cardinality);
    assert!(report.reduced_shuffle_tuples < report.naive_shuffle_tuples);
}

#[test]
fn skewed_dataset_shows_straggler_effect() {
    // On the extremely skewed WT stand-in, per-worker computation times
    // should be uneven (the Fig. 11 Q5 observation). We check the counters
    // are at least produced; timing skew itself is machine-dependent.
    let q = paper_query(PaperQuery::Q5);
    let g = Dataset::WT.graph(0.02);
    let db = q.instantiate(&g);
    let adj = Adj::with_workers(4);
    let out = adj.execute(&q, &db).unwrap();
    assert_eq!(out.report.counters.tuples_per_level.len(), q.num_attrs());
    assert!(out.report.counters.total_tuples() >= out.report.output_tuples);
}

#[test]
fn precompute_changes_rewritten_query_share() {
    // When a bag is pre-computed the rewritten query has fewer, wider
    // relations; the share optimizer may pick a different p. Verify the
    // plan pipeline is consistent end to end by forcing pre-computation.
    use adj::core::{execute_plan, optimize, OutputMode, QueryPlan, Strategy};
    let q = paper_query(PaperQuery::Q6);
    let g = Dataset::AS.graph(0.01);
    let db = q.instantiate(&g);
    let cfg = adj::core::AdjConfig::default();
    let cluster = Cluster::new(cfg.cluster.clone());
    let mut plan = optimize(&q, &db, &cfg, Strategy::CoOptimize).unwrap();
    let c_mask: u64 = plan
        .tree
        .nodes
        .iter()
        .enumerate()
        .filter(|(_, n)| !n.is_single_edge())
        .map(|(i, _)| 1u64 << i)
        .sum();
    plan.relations = QueryPlan::relations_for(&q, &plan.tree, c_mask);
    plan.precompute = (0..plan.tree.len()).filter(|v| c_mask & (1 << v) != 0).collect();
    if !adj::query::order::is_valid_order(&plan.tree, &plan.order) {
        plan.order = adj::query::order::valid_orders(&plan.tree)[0].clone();
    }
    let (unbound, cold) = (BoundValues::none(), ExecCtx::default());
    let (forced, rep_forced) =
        execute_plan(&cluster, &db, &plan, &cfg, OutputMode::Rows, &unbound, &cold).unwrap();
    assert!(rep_forced.precompute_tuples > 0);

    let baseline = Adj::with_workers(cfg.cluster.num_workers)
        .execute_with(&q, &db, Strategy::CommFirst, OutputMode::Rows)
        .unwrap();
    assert_eq!(forced.rows().len(), baseline.rows().len());
}
