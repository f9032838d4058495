//! The distributed sampling process (Sec. IV, "Distributed Sampling").
//!
//! A naive parallel sampler shuffles the whole database to the workers and
//! lets each sample locally. The paper's optimization reduces the database
//! *first*: only the sampled values `S'` and the tuples that semi-join with
//! them travel. This module implements both, so the saving can be measured.

use crate::estimator::{group_draws, val_a, CardinalityEstimate, SamplingConfig};
use adj_cluster::Cluster;
use adj_leapfrog::{JoinCounters, JoinScratch, LeapfrogJoin};
use adj_query::JoinQuery;
use adj_relational::{Attr, Database, Result, Trie, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Communication accounting of a distributed sampling run.
#[derive(Debug, Clone, Default)]
pub struct DistributedReport {
    /// Tuples a naive sampler would shuffle (whole DB to every worker).
    pub naive_shuffle_tuples: u64,
    /// Tuples actually shuffled after the semi-join reduction.
    pub reduced_shuffle_tuples: u64,
    /// Tuples moved to compute `val(A)` (the per-relation projections).
    pub projection_tuples: u64,
    /// Makespan of the parallel sampling loops.
    pub sampling_secs: f64,
}

/// Runs the distributed sampling estimator on `cluster`.
///
/// Steps (mirroring the paper): (1) shuffle the `Π_A R` projections and
/// intersect them into `val(A)`; (2) draw `S'` from `val(A)`; (3) semi-join
/// reduce the database by `S'`; (4) ship each worker the fragment of the
/// reduced database its samples need; (5) each worker counts `|T_{A=a}|`
/// for its samples with pinned-first-value Leapfrog runs.
pub fn estimate_distributed(
    cluster: &Cluster,
    db: &Database,
    query: &JoinQuery,
    order: &[Attr],
    cfg: &SamplingConfig,
) -> Result<(CardinalityEstimate, DistributedReport)> {
    let n = cluster.num_workers();
    let &attr = order.first().ok_or(adj_relational::Error::EmptyOrder)?;
    let mut report = DistributedReport::default();

    // (1) val(A) from projections; projections are what actually travels.
    let mut runs: Vec<Vec<Value>> = Vec::new();
    for atom in &query.atoms {
        if atom.schema.contains(attr) {
            let proj = db.get(&atom.name)?.column_values(attr)?;
            report.projection_tuples += proj.len() as u64;
            runs.push(proj);
        }
    }
    cluster.comm().record(report.projection_tuples, report.projection_tuples * 4);
    let values = val_a(&runs.iter().map(Vec::as_slice).collect::<Vec<_>>());
    let levels = order.len();
    // What the naive approach would move: every relation to every worker.
    report.naive_shuffle_tuples = db
        .iter()
        .filter(|(name, _)| query.atoms.iter().any(|a| &a.name == name))
        .map(|(_, r)| r.len() as u64 * n as u64)
        .sum();
    if values.is_empty() {
        return Ok((
            CardinalityEstimate {
                cardinality: 0.0,
                level_tuples: vec![0.0; levels],
                val_a: 0,
                samples_used: 0,
                distinct_samples: 0,
                extensions: 0,
                elapsed_secs: 0.0,
                beta: None,
            },
            report,
        ));
    }

    // (2) draw samples, assigned round-robin to workers.
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let k = cfg.samples.max(1);
    let samples: Vec<Value> = (0..k).map(|_| values[rng.gen_range(0..values.len())]).collect();
    let mut per_worker: Vec<Vec<Value>> = vec![Vec::new(); n];
    for (i, &s) in samples.iter().enumerate() {
        per_worker[i % n].push(s);
    }
    // Each worker counts its distinct values once, weighted by multiplicity.
    let per_worker: Vec<Vec<(Value, u64)>> = per_worker.into_iter().map(group_draws).collect();

    // (3)+(4) reduce & ship: each worker receives the database semi-joined
    // with its own sample set (relations without A travel whole).
    let mut worker_tries: Vec<Vec<Trie>> = Vec::with_capacity(n);
    for sw in &per_worker {
        let svals: Vec<Value> = sw.iter().map(|&(v, _)| v).collect();
        let reduced = db.reduce_by_values(attr, &svals);
        let mut tries = Vec::with_capacity(query.atoms.len());
        for atom in &query.atoms {
            let rel = reduced.get(&atom.name)?;
            report.reduced_shuffle_tuples += rel.len() as u64;
            tries.push(rel.trie_under_order(order)?);
        }
        worker_tries.push(tries);
    }
    cluster.comm().record(report.reduced_shuffle_tuples, report.reduced_shuffle_tuples * 8);
    cluster.comm().record_round();

    // (5) parallel counting.
    let per_worker_ref = &per_worker;
    let worker_tries_ref = &worker_tries;
    let t0 = Instant::now();
    let run = cluster.run(|w| {
        let tries = &worker_tries_ref[w];
        let join = LeapfrogJoin::new(order, tries.iter().collect())
            .expect("tries were built under this order");
        let draws = &per_worker_ref[w];
        let (sum, counters) = join.count_first_values(draws, &mut JoinScratch::new());
        (sum, counters, draws.len())
    });
    report.sampling_secs = run.makespan_secs;
    let elapsed = t0.elapsed().as_secs_f64();

    let mut sum = 0u64;
    let mut counters = JoinCounters::new(levels);
    let mut distinct = 0;
    for r in run.results {
        // A panicking sampling worker fails the estimate (and the query
        // using it) with a typed error instead of aborting the process.
        let (s, c, d) = r.map_err(adj_relational::Error::from)?;
        sum += s;
        counters.merge(&c);
        distinct += d;
    }
    let scale = values.len() as f64 / k as f64;
    let extensions = counters.total_tuples();
    Ok((
        CardinalityEstimate {
            cardinality: sum as f64 * scale,
            level_tuples: counters.tuples_per_level.iter().map(|&t| t as f64 * scale).collect(),
            val_a: values.len(),
            samples_used: k,
            distinct_samples: distinct,
            extensions,
            elapsed_secs: elapsed,
            beta: if elapsed > 1e-9 && extensions > 0 {
                Some(extensions as f64 / elapsed)
            } else {
                None
            },
        },
        report,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::Sampler;
    use adj_cluster::ClusterConfig;
    use adj_query::{paper_query, PaperQuery};
    use adj_relational::Relation;

    fn tri_db(n: u32) -> (Database, JoinQuery) {
        let q = paper_query(PaperQuery::Q1);
        let edges: Vec<(Value, Value)> = (0..n)
            .flat_map(|i| vec![(i % 29, (i * 7 + 1) % 29), (i % 29, (i * 11 + 3) % 29)])
            .collect();
        let g = Relation::from_pairs(Attr(0), Attr(1), &edges);
        (q.instantiate(&g), q)
    }

    fn order3() -> Vec<Attr> {
        vec![Attr(0), Attr(1), Attr(2)]
    }

    #[test]
    fn distributed_matches_sequential_estimator() {
        let (db, q) = tri_db(200);
        let cluster = Cluster::new(ClusterConfig::with_workers(4));
        let cfg = SamplingConfig { samples: 512, seed: 3 };
        let (dist, _) = estimate_distributed(&cluster, &db, &q, &order3(), &cfg).unwrap();
        let seq = Sampler::new(&db, &q, &order3()).unwrap().estimate(&cfg).unwrap();
        // Same seed, same sample values (order differs across workers but
        // the multiset is identical) → identical estimates.
        assert_eq!(dist.cardinality, seq.cardinality);
        assert_eq!(dist.val_a, seq.val_a);
    }

    #[test]
    fn reduction_shuffles_fewer_tuples_than_naive() {
        let (db, q) = tri_db(300);
        let cluster = Cluster::new(ClusterConfig::with_workers(4));
        let cfg = SamplingConfig { samples: 8, seed: 3 }; // few samples → strong reduction
        let (_, report) = estimate_distributed(&cluster, &db, &q, &order3(), &cfg).unwrap();
        assert!(
            report.reduced_shuffle_tuples < report.naive_shuffle_tuples,
            "reduced {} vs naive {}",
            report.reduced_shuffle_tuples,
            report.naive_shuffle_tuples
        );
    }

    #[test]
    fn empty_order_is_a_typed_error() {
        let (db, q) = tri_db(20);
        let cluster = Cluster::new(ClusterConfig::with_workers(2));
        let err = estimate_distributed(&cluster, &db, &q, &[], &SamplingConfig::default()).err();
        assert_eq!(err, Some(adj_relational::Error::EmptyOrder));
    }

    #[test]
    fn empty_join_estimates_zero() {
        let q = paper_query(PaperQuery::Q1);
        let mut db = Database::new();
        db.insert("R1", Relation::from_pairs(Attr(0), Attr(1), &[(1, 2)]));
        db.insert("R2", Relation::from_pairs(Attr(1), Attr(2), &[(2, 3)]));
        db.insert("R3", Relation::from_pairs(Attr(0), Attr(2), &[(8, 3)]));
        let cluster = Cluster::new(ClusterConfig::with_workers(2));
        let (est, _) =
            estimate_distributed(&cluster, &db, &q, &order3(), &SamplingConfig::default()).unwrap();
        assert_eq!(est.cardinality, 0.0);
    }
}
