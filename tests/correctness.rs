//! Cross-method correctness: every join method in the workspace must return
//! exactly the same result set as a reference pairwise-hash-join evaluation,
//! for every evaluated query, on several datasets and cluster widths.

use adj::prelude::*;
use adj_baselines::{run_bigjoin, run_binary_join, run_hcubej, run_hcubej_cached, BaselineConfig};
use adj_cluster::Cluster;

/// Reference evaluation: left-deep pairwise hash joins in atom order.
fn reference(db: &Database, q: &JoinQuery) -> Relation {
    let mut it = q.atoms.iter();
    let mut acc = db.get(&it.next().unwrap().name).unwrap().clone();
    for a in it {
        acc = acc.join(db.get(&a.name).unwrap()).unwrap();
    }
    acc
}

fn check_same(label: &str, expected: &Relation, got: &Relation) {
    assert_eq!(got.len(), expected.len(), "{label}: cardinality mismatch");
    let aligned = got.permute(expected.schema().attrs()).unwrap();
    assert_eq!(&aligned, expected, "{label}: result set mismatch");
}

fn run_all_methods(query: PaperQuery, graph: &Relation, workers: usize) {
    let q = paper_query(query);
    let db = q.instantiate(graph);
    let expected = reference(&db, &q);
    let bcfg = BaselineConfig::default();

    let cluster = Cluster::new(ClusterConfig::with_workers(workers));
    let (r, _) = run_binary_join(&cluster, &db, &q, &bcfg).unwrap();
    check_same("binary", &expected, &r);

    let cluster = Cluster::new(ClusterConfig::with_workers(workers));
    let (r, _) = run_bigjoin(&cluster, &db, &q, &bcfg).unwrap();
    check_same("bigjoin", &expected, &r);

    let cluster = Cluster::new(ClusterConfig::with_workers(workers));
    let (r, _) = run_hcubej(&cluster, &db, &q, &bcfg).unwrap();
    check_same("hcubej", &expected, &r);

    let cluster = Cluster::new(ClusterConfig::with_workers(workers));
    let (r, _) = run_hcubej_cached(&cluster, &db, &q, &bcfg).unwrap();
    check_same("hcubej+cache", &expected, &r);

    let adj = Adj::with_workers(workers);
    let out = adj.execute_with(&q, &db, Strategy::CoOptimize, OutputMode::Rows).unwrap();
    check_same("adj-coopt", &expected, out.rows());
    let out = adj.execute_with(&q, &db, Strategy::CommFirst, OutputMode::Rows).unwrap();
    check_same("adj-commfirst", &expected, out.rows());
}

#[test]
fn all_methods_agree_q1_wb() {
    run_all_methods(PaperQuery::Q1, &Dataset::WB.graph(0.02), 4);
}

#[test]
fn all_methods_agree_q2_as() {
    run_all_methods(PaperQuery::Q2, &Dataset::AS.graph(0.015), 4);
}

#[test]
fn all_methods_agree_q4_lj() {
    run_all_methods(PaperQuery::Q4, &Dataset::LJ.graph(0.01), 4);
}

#[test]
fn all_methods_agree_q5_wt() {
    run_all_methods(PaperQuery::Q5, &Dataset::WT.graph(0.01), 3);
}

#[test]
fn all_methods_agree_q6_as() {
    run_all_methods(PaperQuery::Q6, &Dataset::AS.graph(0.01), 4);
}

#[test]
fn all_methods_agree_on_single_worker() {
    run_all_methods(PaperQuery::Q4, &Dataset::WB.graph(0.01), 1);
}

#[test]
fn all_methods_agree_on_wide_cluster() {
    run_all_methods(PaperQuery::Q1, &Dataset::WB.graph(0.02), 13);
}

#[test]
fn easy_queries_q7_to_q11() {
    // The acyclic/easy patterns must also be correct end to end.
    let graph = Dataset::WB.graph(0.01);
    for pq in [PaperQuery::Q7, PaperQuery::Q8, PaperQuery::Q9, PaperQuery::Q10, PaperQuery::Q11] {
        let q = paper_query(pq);
        let db = q.instantiate(&graph);
        let expected = reference(&db, &q);
        let adj = Adj::with_workers(4);
        let out = adj.execute(&q, &db).unwrap();
        check_same(pq.name(), &expected, out.rows());
    }
}

#[test]
fn running_example_database_matches_paper() {
    // The exact database of Fig. 2, query of Eq. (2). The paper's Fig. 3
    // walks server S0; here we verify the full distributed result against
    // the reference join.
    use adj::query::workload::running_example;
    let q = running_example();
    let mut db = Database::new();
    db.insert(
        "R1",
        Relation::from_rows(
            Schema::from_ids(&[0, 1, 2]),
            &[&[1, 2, 1], &[1, 2, 2], &[2, 1, 1], &[2, 1, 4]],
        )
        .unwrap(),
    );
    db.insert("R2", Relation::from_pairs(Attr(0), Attr(3), &[(1, 1), (1, 2), (1, 3), (4, 1)]));
    db.insert("R3", Relation::from_pairs(Attr(2), Attr(3), &[(1, 1), (1, 2), (2, 1), (2, 2)]));
    db.insert(
        "R4",
        Relation::from_pairs(Attr(1), Attr(4), &[(2, 3), (2, 4), (2, 5), (1, 2), (2, 2), (1, 1)]),
    );
    db.insert(
        "R5",
        Relation::from_pairs(Attr(2), Attr(4), &[(2, 4), (2, 5), (1, 3), (2, 3), (1, 1), (2, 2)]),
    );
    let expected = reference(&db, &q);
    let adj = Adj::with_workers(4);
    let out = adj.execute(&q, &db).unwrap();
    check_same("running example", &expected, out.rows());
    assert!(!out.rows().is_empty(), "the paper's example has results");
}

// ───────────────────── the optimizer's decisions are pinned ─────────────────────

/// Three seeded graphs of `nodes` vertices and about `nodes × degree` edges
/// with different degree structure: uniform, Zipf-skewed, and the web-graph
/// stand-in's hub-heavy generator settings.
fn planning_graphs(nodes: usize, degree: usize) -> [(&'static str, Relation); 3] {
    use adj::datagen::{generate, generate_zipf, GraphConfig, ZipfConfig};
    let zipf = ZipfConfig { nodes, edges: nodes * degree, exponent: 1.2, seed: 0x21BF };
    [
        ("uniform", generate(&GraphConfig { nodes, out_degree: degree, skew: 0.0, seed: 11 })),
        ("zipf", generate_zipf(&zipf)),
        ("wb", generate(&GraphConfig { nodes, out_degree: degree, ..Dataset::WB.config(1.0) })),
    ]
}

/// A configuration under which a plan is a pure function of the data.
fn planning_config(workers: usize) -> AdjConfig {
    AdjConfig {
        cluster: ClusterConfig::with_workers(workers),
        cost: CostParams { measure_beta: false, ..Default::default() },
        ..Default::default()
    }
}

/// Estimates did not move: the optimizer samples a sub-join under a
/// *connected* order on tries it shares between sub-joins, and every
/// cardinality must equal — to the bit — what a fresh sampler over the same
/// sub-join reports under the ascending-id order the optimizer used to
/// sample with. That ordering survives only here, as the reference.
///
/// Under ascending ids a star through `e` walks `val(b) × val(c) × val(d)`
/// per sampled `a`, so the reference costs `samples × nodes³` on the stars
/// of Q3 (968 connected subsets) and Q6: those two run on ~100-edge graphs
/// with 4 samples, the rest on ~400-edge graphs with 8, and a debug build
/// finishes in seconds. Counts are compared per sampled value either way;
/// most estimates are non-zero.
#[test]
fn connected_sampling_reproduces_the_ascending_order_estimates() {
    use adj::core::CostEstimator;
    use adj::query::GhdTree;
    // Returns how many of the compared estimates were non-zero.
    let check = |q: &JoinQuery, graph: &Relation, samples, label: &str, masks: &[u64]| -> usize {
        let mut cfg = planning_config(2);
        cfg.sampling.samples = samples;
        let db = q.instantiate(graph);
        let tree = GhdTree::decompose(&q.hypergraph(), 3);
        let (cold, cluster) = (ExecCtx::default(), Cluster::new(cfg.cluster.clone()));
        let (cost, sampling) = (cfg.cost, cfg.sampling);
        let estimator = CostEstimator::new(&db, q, &tree, cost, &cluster, sampling, &cold);
        let mut positive = 0;
        for &mask in masks {
            let atoms: Vec<Atom> = (0..q.atoms.len())
                .filter(|i| mask & (1 << i) != 0)
                .map(|i| q.atoms[i].clone())
                .collect();
            let sub = JoinQuery::new("sub", atoms);
            let reference =
                Sampler::new(&db, &sub, &sub.attrs()).unwrap().estimate(&cfg.sampling).unwrap();
            assert_eq!(
                estimator.subjoin_cardinality(mask).to_bits(),
                reference.cardinality.to_bits(),
                "{label} sub-join {mask:#b}"
            );
            positive += usize::from(reference.cardinality > 0.0);
        }
        assert_eq!(estimator.stats().sampler_errors, 0, "{label}");
        positive
    };
    let (mut compared, mut positive) = (0, 0);
    for pq in PaperQuery::EVALUATED {
        let q = paper_query(pq);
        let h = q.hypergraph();
        let connected: Vec<u64> =
            (1u64..1 << q.atoms.len()).filter(|&m| h.is_connected_edges(m)).collect();
        let (nodes, degree, samples) = match pq {
            PaperQuery::Q3 | PaperQuery::Q6 => (24, 4, 4),
            _ => (80, 5, 8),
        };
        for (graph_name, graph) in &planning_graphs(nodes, degree) {
            let label = format!("{} {graph_name}", pq.name());
            positive += check(&q, graph, samples, &label, &connected);
            compared += connected.len();
        }
    }
    assert!(positive * 2 > compared, "only {positive} of {compared} estimates were non-zero");
    // Disconnected sub-joins are cross products under either order; a tiny
    // graph keeps them enumerable. Q4 = ab, bc, cd, de, ea, be.
    let tiny = Dataset::WB.graph(0.004);
    let q4 = paper_query(PaperQuery::Q4);
    let disconnected = [0b000101, 0b001001, 0b010100, 0b001011, 0b010110];
    assert!(disconnected.iter().all(|&m| !q4.hypergraph().is_connected_edges(m)));
    assert!(check(&q4, &tiny, 16, "Q4 tiny", &disconnected) > 0);
}

const GOLDEN_PLANS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_plans.txt");

/// One line per (query, graph, strategy, width): everything the optimizer
/// decides, with the estimated cost to the bit.
fn derive_golden_plans() -> String {
    use std::fmt::Write as _;
    let ids = |attrs: &[Attr]| attrs.iter().map(|a| a.0).collect::<Vec<_>>();
    let mut out = String::new();
    for pq in &PaperQuery::ALL[..8] {
        let q = paper_query(*pq);
        for (graph_name, graph) in &planning_graphs(250, 6) {
            let db = q.instantiate(graph);
            for strategy in [Strategy::CoOptimize, Strategy::CommFirst] {
                for workers in [2, 4] {
                    let _ = write!(out, "{} {graph_name} {strategy:?} w{workers}: ", pq.name());
                    match adj::core::optimize(&q, &db, &planning_config(workers), strategy) {
                        Ok(p) => {
                            let _ = writeln!(
                                out,
                                "traversal={:?} precompute={:?} order={:?} cost_bits={:016x}",
                                p.traversal,
                                p.precompute,
                                ids(&p.order),
                                p.estimated_cost_secs.to_bits()
                            );
                        }
                        Err(e) => {
                            let _ = writeln!(out, "Err({e})");
                        }
                    }
                }
            }
        }
    }
    out
}

/// Plans did not move: `tests/golden_plans.txt` was generated on the commit
/// *before* the optimizer started sharing tries and sampling under
/// connected orders, and every later optimizer must re-derive it exactly.
/// (The zipf graph's CoOptimize costs were re-derived once, when `costC`
/// stopped charging sampled heavy hitters; no order or pre-compute set
/// moved.)
#[test]
fn golden_plans_did_not_move() {
    let golden = std::fs::read_to_string(GOLDEN_PLANS).expect("tests/golden_plans.txt exists");
    let derived = derive_golden_plans();
    for (want, got) in golden.lines().zip(derived.lines()) {
        assert_eq!(got, want, "a plan moved");
    }
    assert_eq!(derived.lines().count(), golden.lines().count(), "plan matrix changed shape");
}

/// Plans do not depend on the clock: under the default configuration,
/// twenty `optimize` calls of Q4 and Q5 choose the same order and
/// pre-compute set at the same estimated cost, to the bit, while another
/// thread burns CPU (which would move a measured extension rate).
#[test]
fn default_plans_are_a_pure_function_of_the_data() {
    use std::sync::atomic::{AtomicBool, Ordering};
    let graph = Dataset::WB.graph(0.05);
    let busy = AtomicBool::new(true);
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut x = 1u64;
            while busy.load(Ordering::Relaxed) {
                x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
            }
        });
        for pq in [PaperQuery::Q4, PaperQuery::Q5] {
            let q = paper_query(pq);
            let db = q.instantiate(&graph);
            let plans: Vec<(Vec<Attr>, Vec<usize>, u64)> = (0..20)
                .map(|_| {
                    let p =
                        adj::core::optimize(&q, &db, &AdjConfig::default(), Strategy::CoOptimize)
                            .unwrap();
                    (p.order, p.precompute, p.estimated_cost_secs.to_bits())
                })
                .collect();
            assert!(plans.windows(2).all(|w| w[0] == w[1]), "{pq:?} plans differ: {plans:?}");
        }
        busy.store(false, Ordering::Relaxed);
    });
}

/// Rewrites `tests/golden_plans.txt` from the current optimizer. Run it only
/// when a change is *meant* to move plans, and say so in the PR:
/// `cargo test --test correctness regenerate_golden_plans -- --ignored`
#[test]
#[ignore = "rewrites tests/golden_plans.txt; run explicitly when plans are meant to move"]
fn regenerate_golden_plans() {
    std::fs::write(GOLDEN_PLANS, derive_golden_plans()).expect("write tests/golden_plans.txt");
}
