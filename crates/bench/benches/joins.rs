//! End-to-end join benchmarks: Leapfrog vs CacheTrieJoin on the paper's
//! queries, and ADJ vs the HCubeJ-style comm-first strategy — Criterion
//! versions of the Fig. 1(b)/Fig. 12 effects at a fixed small scale.

use adj_baselines::cached::CachedJoin;
use adj_cluster::ClusterConfig;
use adj_core::{Adj, AdjConfig, OutputMode, Strategy};
use adj_datagen::Dataset;
use adj_leapfrog::LeapfrogJoin;
use adj_query::{paper_query, PaperQuery};
use adj_relational::Trie;
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn bench_leapfrog(c: &mut Criterion) {
    let graph = Dataset::WB.graph(0.02);
    let mut g = c.benchmark_group("leapfrog");
    for q in [PaperQuery::Q1, PaperQuery::Q4] {
        let query = paper_query(q);
        let db = query.instantiate(&graph);
        let order = query.attrs();
        let tries: Vec<Trie> = query
            .atoms
            .iter()
            .map(|a| db.get(&a.name).unwrap().trie_under_order(&order).unwrap())
            .collect();
        g.bench_function(format!("plain_{}", query.name), |bch| {
            bch.iter(|| {
                let join = LeapfrogJoin::new(black_box(&order), tries.iter().collect()).unwrap();
                join.count().0
            })
        });
        g.bench_function(format!("cached_{}", query.name), |bch| {
            bch.iter(|| {
                let join = CachedJoin::new(black_box(&order), tries.iter().collect(), 0).unwrap();
                join.count().0
            })
        });
    }
    g.finish();
}

fn bench_strategies(c: &mut Criterion) {
    let graph = Dataset::AS.graph(0.02);
    let mut g = c.benchmark_group("strategy");
    g.sample_size(10);
    for q in [PaperQuery::Q4, PaperQuery::Q5] {
        let query = paper_query(q);
        let db = query.instantiate(&graph);
        for (label, strategy) in
            [("coopt", Strategy::CoOptimize), ("commfirst", Strategy::CommFirst)]
        {
            g.bench_function(format!("{label}_{}", query.name), |bch| {
                bch.iter(|| {
                    let adj = Adj::new(AdjConfig {
                        cluster: ClusterConfig::with_workers(4),
                        ..Default::default()
                    });
                    adj.execute_with(black_box(&query), black_box(&db), strategy, OutputMode::Rows)
                        .unwrap()
                        .report
                        .total_secs()
                })
            });
        }
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_leapfrog, bench_strategies
}
criterion_main!(benches);
