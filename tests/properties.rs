//! Property-based tests over the core invariants, on randomly generated
//! graphs and schedules.
//!
//! Originally written against `proptest`; the offline build environment
//! cannot fetch it, so the same properties now run under a small seeded-RNG
//! loop harness (`cases`). Every case is deterministic per seed, so a
//! failure reproduces by re-running the test.

use adj::prelude::{
    paper_query, AdjConfig, Attr, BoundValues, Cluster, ClusterConfig, Database, ExecCtx,
    JoinQuery, OutputMode, PaperQuery, QueryOutput, Relation, Sampler, SamplingConfig, Schema,
    Strategy, Value,
};
use adj_leapfrog::{JoinCounters, LeapfrogJoin};
use adj_query::order::{all_orders, is_valid_order, valid_orders};
use adj_query::GhdTree;
use adj_relational::intersect::{
    intersect2_merge, leapfrog_count, leapfrog_intersect, leapfrog_intersect_positions,
};
use adj_relational::{CountSink, RowBuffer, Trie};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Runs `body` for `n` deterministic cases, each with its own seeded RNG.
fn cases(n: u64, mut body: impl FnMut(&mut StdRng)) {
    for case in 0..n {
        let mut rng = StdRng::seed_from_u64(0xADF0_5EED ^ case.wrapping_mul(0x9E37_79B9));
        body(&mut rng);
    }
}

/// A small random edge list over `max_nodes` node ids, 1..max_edges long.
fn edges(rng: &mut StdRng, max_nodes: u32, max_edges: usize) -> Vec<(u32, u32)> {
    let len = rng.gen_range(1..max_edges);
    (0..len).map(|_| (rng.gen_range(0..max_nodes), rng.gen_range(0..max_nodes))).collect()
}

/// A sorted deduplicated random value run.
fn sorted_run(rng: &mut StdRng, max_val: u32, max_len: usize) -> Vec<u32> {
    let len = rng.gen_range(0..max_len);
    let mut v: Vec<u32> = (0..len).map(|_| rng.gen_range(0..max_val)).collect();
    v.sort_unstable();
    v.dedup();
    v
}

/// K-way leapfrog intersection equals iterated 2-way merge intersection.
#[test]
fn kway_intersection_equals_iterated_merge() {
    cases(64, |rng| {
        let a = sorted_run(rng, 500, 201);
        let b = sorted_run(rng, 500, 201);
        let c = sorted_run(rng, 500, 201);
        let mut expect = Vec::new();
        let mut tmp = Vec::new();
        intersect2_merge(&a, &b, &mut tmp);
        intersect2_merge(&tmp, &c, &mut expect);
        let mut got = Vec::new();
        leapfrog_intersect(&[&a, &b, &c], &mut got);
        assert_eq!(got, expect);
    });
}

/// A sorted deduplicated run shaped to hit the kernels' edges: empty,
/// a singleton, or a dense run over a small domain — each possibly ending
/// in `u32::MAX`.
fn edge_run(rng: &mut StdRng) -> Vec<u32> {
    let mut run = match rng.gen_range(0u32..6) {
        0 => Vec::new(),
        1 => vec![rng.gen_range(0u32..8)],
        _ => sorted_run(rng, 40, 30),
    };
    if rng.gen_range(0u32..3) == 0 {
        run.push(u32::MAX);
    }
    run
}

/// The position-carrying and counting kernels find exactly what
/// `leapfrog_intersect` finds, with the same operation count, for k = 1…6
/// runs; every recorded offset indexes the matched value in its run.
#[test]
fn position_and_count_kernels_agree_with_leapfrog_intersect() {
    cases(256, |rng| {
        let k = rng.gen_range(1usize..7);
        let runs: Vec<Vec<u32>> = (0..k).map(|_| edge_run(rng)).collect();
        let refs: Vec<&[u32]> = runs.iter().map(Vec::as_slice).collect();

        let mut want = Vec::new();
        let ops = leapfrog_intersect(&refs, &mut want);
        let mut merged = runs[0].clone();
        for run in &runs[1..] {
            let mut next = Vec::new();
            intersect2_merge(&merged, run, &mut next);
            merged = next;
        }
        assert_eq!(want, merged, "leapfrog_intersect itself is the set intersection");

        let (mut values, mut positions) = (vec![7], vec![7]);
        assert_eq!(leapfrog_intersect_positions(&refs, &mut values, &mut positions), ops);
        assert_eq!(values, want);
        assert_eq!(positions.len(), want.len() * k);
        for (m, &v) in want.iter().enumerate() {
            for (i, run) in runs.iter().enumerate() {
                assert_eq!(run[positions[m * k + i]], v, "match {m} in run {i}");
            }
        }

        assert_eq!(leapfrog_count(&refs), (want.len() as u64, ops));
    });
}

/// A plain recursive Leapfrog written against [`Trie::run_for_prefix`]: the
/// rows it finds, `|T_l|` per level and the intersection operations, for
/// the counter-identity oracle below.
struct Reference {
    rows: Vec<Vec<Value>>,
    tuples_per_level: Vec<u64>,
    intersect_ops: u64,
}

fn reference_join(tries: &[Trie], order: &[Attr]) -> Reference {
    fn walk(tries: &[Trie], order: &[Attr], binding: &mut Vec<Value>, out: &mut Reference) {
        let level = binding.len();
        let mut runs: Vec<&[Value]> = Vec::new();
        for t in tries.iter().filter(|t| t.schema().contains(order[level])) {
            let depth = t.schema().position(order[level]).unwrap();
            let prefix: Vec<Value> = t.schema().attrs()[..depth]
                .iter()
                .map(|&a| binding[order.iter().position(|&o| o == a).unwrap()])
                .collect();
            runs.push(t.run_for_prefix(&prefix).expect("bound prefixes exist"));
        }
        let mut values = Vec::new();
        out.intersect_ops += leapfrog_intersect(&runs, &mut values);
        out.tuples_per_level[level] += values.len() as u64;
        for v in values {
            binding.push(v);
            if binding.len() == order.len() {
                out.rows.push(binding.clone());
            } else {
                walk(tries, order, binding, out);
            }
            binding.pop();
        }
    }
    let mut out =
        Reference { rows: Vec::new(), tuples_per_level: vec![0; order.len()], intersect_ops: 0 };
    if tries.iter().all(|t| t.tuples() > 0) {
        walk(tries, order, &mut Vec::new(), &mut out);
    }
    out
}

/// The binary-join result of `q` over `db`.
fn binary_join(q: &JoinQuery, db: &Database) -> Relation {
    let mut atoms = q.atoms.iter();
    let first = atoms.next().unwrap();
    let mut acc = db.get(&first.name).unwrap().clone();
    for atom in atoms {
        acc = acc.join(db.get(&atom.name).unwrap()).unwrap();
    }
    acc
}

/// Every way of running a join agrees, under every valid order of Q1, Q4
/// and Q8: `Count` through a `CountSink` (the last level counted by size),
/// the Rows enumeration and the binary-join oracle find the same result,
/// and the per-level bindings and intersection operations are exactly
/// those of a plain recursive Leapfrog.
#[test]
fn count_rows_and_counters_match_a_reference_join_under_every_valid_order() {
    cases(12, |rng| {
        let pairs = edges(rng, 14, 60);
        let g = Relation::from_pairs(Attr(0), Attr(1), &pairs);
        for pq in [PaperQuery::Q1, PaperQuery::Q4, PaperQuery::Q8] {
            let q = paper_query(pq);
            let db = q.instantiate(&g);
            let truth = binary_join(&q, &db);
            for order in valid_orders(&GhdTree::decompose(&q.hypergraph(), 3)) {
                let tries: Vec<Trie> = q
                    .atoms
                    .iter()
                    .map(|a| db.get(&a.name).unwrap().trie_under_order(&order).unwrap())
                    .collect();
                let join = LeapfrogJoin::new(&order, tries.iter().collect()).unwrap();
                let reference = reference_join(&tries, &order);
                let expect = |c: &JoinCounters, what: &str| {
                    assert_eq!(
                        c.tuples_per_level, reference.tuples_per_level,
                        "{pq:?} {order:?} {what}"
                    );
                    assert_eq!(c.intersect_ops, reference.intersect_ops, "{pq:?} {order:?} {what}");
                    assert_eq!(
                        c.output_tuples,
                        reference.rows.len() as u64,
                        "{pq:?} {order:?} {what}"
                    );
                };

                let mut sink = CountSink::new();
                let counted = join.join_into(&mut sink);
                expect(&counted, "count");
                assert_eq!(sink.count(), truth.len() as u64, "{pq:?} {order:?}");

                let mut rows = RowBuffer::new(order.len());
                let enumerated = join.join_into(&mut rows);
                expect(&enumerated, "rows");
                let flat: Vec<Value> = reference.rows.concat();
                assert_eq!(rows.into_flat(), flat, "{pq:?} {order:?}: rows arrive in order");
                let got = Relation::from_flat(Schema::new(order.clone()).unwrap(), flat).unwrap();
                assert_eq!(got.permute(truth.schema().attrs()).unwrap(), truth);

                let (completed, budgeted) = join.count_with_budget(u64::MAX);
                assert!(completed);
                expect(&budgeted, "budgeted");

                let by_first: u64 = (0..14).map(|v| join.count_with_first_value(v).0).sum();
                assert_eq!(by_first, reference.rows.len() as u64, "{pq:?} {order:?}");
            }
        }
    });
}

/// The gather merges per-worker runs instead of re-sorting them: `Rows`
/// output is byte-identical at widths 1–4, and `Limit(n)` is the first n
/// rows of `Rows`, at every width.
#[test]
fn rows_are_width_independent_and_limit_is_their_prefix() {
    cases(8, |rng| {
        let pairs = edges(rng, 24, 150);
        let g = Relation::from_pairs(Attr(0), Attr(1), &pairs);
        for pq in [PaperQuery::Q1, PaperQuery::Q4, PaperQuery::Q8] {
            let q = paper_query(pq);
            let db = q.instantiate(&g);
            let cfg = AdjConfig { cluster: ClusterConfig::with_workers(2), ..Default::default() };
            let plan = adj_core::optimize(&q, &db, &cfg, Strategy::CommFirst).unwrap();
            let run = |width: usize, mode: OutputMode| {
                let cfg =
                    AdjConfig { cluster: ClusterConfig::with_workers(width), ..Default::default() };
                let cluster = Cluster::new(cfg.cluster.clone());
                let ctx = ExecCtx::default();
                adj_core::execute_plan(&cluster, &db, &plan, &cfg, mode, &BoundValues::none(), &ctx)
                    .unwrap()
                    .0
            };
            let rows = run(1, OutputMode::Rows);
            let full = rows.rows();
            let truth = binary_join(&q, &db);
            assert_eq!(full.permute(truth.schema().attrs()).unwrap(), truth, "{pq:?}");
            let n = rng.gen_range(0..full.len() + 2);
            let arity = full.arity();
            let prefix = Relation::from_flat(
                full.schema().clone(),
                full.flat()[..n.min(full.len()) * arity].to_vec(),
            )
            .unwrap();
            for width in 1..=4 {
                assert_eq!(run(width, OutputMode::Rows), rows, "{pq:?} width {width}");
                assert_eq!(
                    run(width, OutputMode::Limit(n)),
                    QueryOutput::Rows(prefix.clone()),
                    "{pq:?} width {width} limit {n}"
                );
            }
        }
    });
}

/// `Relation::from_flat` is sort + dedup whatever order the rows arrive
/// in: already strictly increasing (the merged-gather fast path), sorted
/// with duplicates, or shuffled.
#[test]
fn from_flat_equals_sort_dedup_on_any_input_order() {
    cases(64, |rng| {
        let arity = rng.gen_range(1usize..4);
        let n = rng.gen_range(0usize..40);
        let mut rows: Vec<Vec<Value>> =
            (0..n).map(|_| (0..arity).map(|_| rng.gen_range(0u32..4)).collect()).collect();
        let mut want = rows.clone();
        want.sort();
        want.dedup();
        let schema = Schema::from_ids(&(0..arity as u32).collect::<Vec<_>>());
        let check = |rows: &[Vec<Value>], what: &str| {
            let rel = Relation::from_flat(schema.clone(), rows.concat()).unwrap();
            assert_eq!(rel.flat(), want.concat().as_slice(), "{what}");
        };
        check(&want, "strictly increasing");
        let mut dups = want.clone();
        for i in (0..dups.len()).rev().step_by(2) {
            let row = dups[i].clone();
            dups.insert(i, row);
        }
        check(&dups, "sorted with duplicates");
        for i in (1..rows.len()).rev() {
            rows.swap(i, rng.gen_range(0..i + 1));
        }
        check(&rows, "shuffled");
    });
}

/// Trie build/emit round-trips any relation.
#[test]
fn trie_roundtrip() {
    cases(64, |rng| {
        let pairs = edges(rng, 64, 300);
        let rel = Relation::from_pairs(Attr(0), Attr(1), &pairs);
        let trie = Trie::build(&rel);
        assert_eq!(trie.to_relation(), rel);
    });
}

/// Leapfrog triangle counting matches the reference pairwise join, for ANY
/// attribute order.
#[test]
fn leapfrog_equals_reference_any_order() {
    cases(64, |rng| {
        let pairs = edges(rng, 24, 120);
        let perm = rng.gen_range(0usize..6);
        let q = paper_query(PaperQuery::Q1);
        let g = Relation::from_pairs(Attr(0), Attr(1), &pairs);
        let db = q.instantiate(&g);
        let expected = db
            .get("R1")
            .unwrap()
            .join(db.get("R2").unwrap())
            .unwrap()
            .join(db.get("R3").unwrap())
            .unwrap();
        let orders = all_orders(&q.attrs());
        let order = &orders[perm];
        let tries: Vec<Trie> = q
            .atoms
            .iter()
            .map(|a| db.get(&a.name).unwrap().trie_under_order(order).unwrap())
            .collect();
        let join = adj_leapfrog::LeapfrogJoin::new(order, tries.iter().collect()).unwrap();
        assert_eq!(join.count().0 as usize, expected.len());
    });
}

/// The cached join always matches the plain join, for any capacity.
#[test]
fn cached_join_matches_plain() {
    cases(64, |rng| {
        let pairs = edges(rng, 20, 100);
        let cap = rng.gen_range(0usize..64);
        let q = paper_query(PaperQuery::Q4);
        let g = Relation::from_pairs(Attr(0), Attr(1), &pairs);
        let db = q.instantiate(&g);
        let order = q.attrs();
        let tries: Vec<Trie> = q
            .atoms
            .iter()
            .map(|a| db.get(&a.name).unwrap().trie_under_order(&order).unwrap())
            .collect();
        let plain = adj_leapfrog::LeapfrogJoin::new(&order, tries.iter().collect()).unwrap();
        let cached = adj_leapfrog::CachedJoin::new(&order, tries.iter().collect(), cap).unwrap();
        assert_eq!(plain.count().0, cached.count().0);
    });
}

/// Relation algebra: semijoin output is contained in the input and agrees
/// with join-then-project.
#[test]
fn semijoin_is_join_projection() {
    cases(64, |rng| {
        let left = edges(rng, 16, 80);
        let right = edges(rng, 16, 80);
        let l = Relation::from_pairs(Attr(0), Attr(1), &left);
        let r = Relation::from_pairs(Attr(1), Attr(2), &right);
        let sj = l.semijoin(&r);
        for row in sj.rows() {
            assert!(l.contains_row(row));
        }
        let jp = l.join(&r).unwrap().project(&[Attr(0), Attr(1)]).unwrap();
        assert_eq!(sj, jp);
    });
}

/// HCube: for any share vector, the one-round shuffle + local leapfrog
/// equals the reference join (distribution transparency).
#[test]
fn hcube_distribution_transparency() {
    cases(64, |rng| {
        use adj_hcube::{hcube_shuffle, HCubeImpl, HCubePlan};
        let pairs = edges(rng, 20, 80);
        let (p1, p2, p3) = (rng.gen_range(1u32..3), rng.gen_range(1u32..3), rng.gen_range(1u32..3));
        let workers = rng.gen_range(1usize..5);
        let q = paper_query(PaperQuery::Q1);
        let g = Relation::from_pairs(Attr(0), Attr(1), &pairs);
        let db = q.instantiate(&g);
        let expected = db
            .get("R1")
            .unwrap()
            .join(db.get("R2").unwrap())
            .unwrap()
            .join(db.get("R3").unwrap())
            .unwrap();
        let cluster = adj_cluster::Cluster::new(ClusterConfig::with_workers(workers));
        let plan = HCubePlan::new(vec![p1, p2, p3], workers);
        let order = q.attrs();
        let names: Vec<String> = q.atoms.iter().map(|a| a.name.clone()).collect();
        let out = hcube_shuffle(&cluster, &db, &names, &plan, &order, HCubeImpl::Merge).unwrap();
        let mut total = Vec::new();
        for w in 0..workers {
            let tries: Vec<&Trie> = out.locals[w].iter().map(|l| l.trie.as_ref()).collect();
            let join = adj_leapfrog::LeapfrogJoin::new(&order, tries).unwrap();
            join.run(|t| total.extend_from_slice(t));
        }
        let got = Relation::from_flat(Schema::new(order.clone()).unwrap(), total).unwrap();
        assert_eq!(got.len(), expected.len());
    });
}

/// Sampling with the full value set and many samples brackets the truth.
#[test]
fn sampling_converges() {
    cases(50, |rng| {
        let pairs = edges(rng, 24, 150);
        let seed = rng.gen_range(0u64..50);
        let q = paper_query(PaperQuery::Q1);
        let g = Relation::from_pairs(Attr(0), Attr(1), &pairs);
        let db = q.instantiate(&g);
        let order = q.attrs();
        let tries: Vec<Trie> = q
            .atoms
            .iter()
            .map(|a| db.get(&a.name).unwrap().trie_under_order(&order).unwrap())
            .collect();
        let truth =
            adj_leapfrog::LeapfrogJoin::new(&order, tries.iter().collect()).unwrap().count().0
                as f64;
        let sampler = Sampler::new(&db, &q, &order).unwrap();
        let est = sampler.estimate(&SamplingConfig { samples: 3000, seed }).unwrap();
        if truth == 0.0 {
            assert!(est.cardinality < 1.0 || est.val_a == 0);
        } else {
            let d = est.cardinality.max(truth) / est.cardinality.min(truth).max(1e-9);
            assert!(d < 3.0, "D={d} est={} truth={truth}", est.cardinality);
        }
    });
}

/// Every GHD the decomposer produces is valid (edge coverage + running
/// intersection) on random connected-ish hypergraphs from the workload
/// generator space.
#[test]
fn ghd_always_valid() {
    cases(32, |rng| {
        // base: 5-cycle; add random chords
        let mut es = vec![(0u32, 1u32), (1, 2), (2, 3), (3, 4), (4, 0)];
        let extra = rng.gen_range(0usize..4);
        for _ in 0..extra {
            let (x, y) = (rng.gen_range(0u32..5), rng.gen_range(0u32..5));
            if x != y {
                es.push((x, y));
            }
        }
        let q = JoinQuery::from_edges("rand", &es);
        let h = q.hypergraph();
        let t = GhdTree::decompose(&h, 3);
        assert!(t.is_valid_for(&h));
        assert!(t.fhw >= 1.0 - 1e-9);
        // every valid order passes the checker; the checker rejects at
        // least as many orders as the generator produces
        let vo = valid_orders(&t);
        for o in &vo {
            assert!(is_valid_order(&t, o));
        }
        assert!(!vo.is_empty());
    });
}
