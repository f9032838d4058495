//! Mode-equivalence acceptance tests: for every paper shape and both
//! plan-search strategies, the streaming output modes must agree exactly
//! with the materialized `Rows` result — `Count` equals the cardinality,
//! `Limit(n)` is an exact-size subset, `Exists` agrees with emptiness —
//! and the `Limit`/`Exists` short-circuit must provably enumerate less
//! than the full result.

use adj::prelude::*;

const SHAPES: [PaperQuery; 3] = [PaperQuery::Q1, PaperQuery::Q4, PaperQuery::Q7];
const STRATEGIES: [Strategy; 2] = [Strategy::CoOptimize, Strategy::CommFirst];

/// A deterministic test graph with plenty of matches for every shape.
fn graph() -> Relation {
    let edges: Vec<(Value, Value)> = (0..240u32)
        .flat_map(|i| vec![(i % 31, (i * 7 + 1) % 31), ((i * 3) % 31, (i * 11 + 5) % 31)])
        .collect();
    Relation::from_pairs(Attr(0), Attr(1), &edges)
}

#[test]
fn count_equals_materialized_cardinality() {
    let g = graph();
    let adj = Adj::with_workers(4);
    for shape in SHAPES {
        for strategy in STRATEGIES {
            let q = paper_query(shape);
            let db = q.instantiate(&g);
            let full = adj.execute_with(&q, &db, strategy, OutputMode::Rows).unwrap();
            let counted = adj.execute_with(&q, &db, strategy, OutputMode::Count).unwrap();
            assert_eq!(
                counted.output,
                QueryOutput::Count(full.rows().len() as u64),
                "{shape:?}/{strategy:?}"
            );
            assert_eq!(
                counted.output.tuples_returned(),
                0,
                "{shape:?}/{strategy:?}: count must ship no tuples"
            );
        }
    }
}

#[test]
fn limit_is_an_exact_size_subset() {
    let g = graph();
    let adj = Adj::with_workers(4);
    for shape in SHAPES {
        for strategy in STRATEGIES {
            let q = paper_query(shape);
            let db = q.instantiate(&g);
            let full = adj.execute_with(&q, &db, strategy, OutputMode::Rows).unwrap();
            let full = full.rows();
            // Under, at, and over the full cardinality.
            for n in [3usize, full.len(), full.len() + 10] {
                let limited = adj.execute_with(&q, &db, strategy, OutputMode::Limit(n)).unwrap();
                let sample = limited.rows();
                assert_eq!(
                    sample.len(),
                    n.min(full.len()),
                    "{shape:?}/{strategy:?}/limit {n}: exact length"
                );
                // Two independent plannings may pick different attribute
                // orders; align schemas before the subset check.
                let aligned = sample.permute(full.schema().attrs()).unwrap();
                for row in aligned.rows() {
                    assert!(
                        full.contains_row(row),
                        "{shape:?}/{strategy:?}/limit {n}: row {row:?} not in the full result"
                    );
                }
            }
        }
    }
}

#[test]
fn exists_agrees_with_emptiness() {
    let g = graph();
    let adj = Adj::with_workers(4);
    for shape in SHAPES {
        for strategy in STRATEGIES {
            let q = paper_query(shape);
            let db = q.instantiate(&g);
            let full = adj.execute_with(&q, &db, strategy, OutputMode::Rows).unwrap();
            let witness = adj.execute_with(&q, &db, strategy, OutputMode::Exists).unwrap();
            assert_eq!(
                witness.output,
                QueryOutput::Exists(!full.rows().is_empty()),
                "{shape:?}/{strategy:?}"
            );
        }
    }
    // ...and on an input with no matches at all.
    let q = paper_query(PaperQuery::Q1);
    let mut db = Database::new();
    db.insert("R1", Relation::from_pairs(Attr(0), Attr(1), &[(1, 2)]));
    db.insert("R2", Relation::from_pairs(Attr(1), Attr(2), &[(9, 9)]));
    db.insert("R3", Relation::from_pairs(Attr(0), Attr(2), &[(1, 3)]));
    let none = adj.execute_with(&q, &db, Strategy::CoOptimize, OutputMode::Exists).unwrap();
    assert_eq!(none.output, QueryOutput::Exists(false));
}

/// `LIMIT 0` is answered from the plan alone: an empty relation over the
/// plan's schema, with no shuffle, no communication round, and no worker
/// dispatch at all.
#[test]
fn limit_zero_short_circuits_before_any_dispatch() {
    let g = graph();
    let adj = Adj::with_workers(4);
    for shape in SHAPES {
        let q = paper_query(shape);
        let db = q.instantiate(&g);
        let rounds_before = adj.cluster().comm().rounds();
        let out = adj.execute_with(&q, &db, Strategy::CoOptimize, OutputMode::Limit(0)).unwrap();
        let rows = out.rows();
        assert!(rows.is_empty(), "{shape:?}: LIMIT 0 returns the empty relation");
        assert_eq!(rows.arity(), q.num_attrs(), "{shape:?}: schema still matches the plan");
        assert_eq!(out.report.comm_tuples, 0, "{shape:?}: nothing shuffled");
        assert_eq!(out.report.computation_secs, 0.0, "{shape:?}: no worker ran");
        assert_eq!(
            adj.cluster().comm().rounds(),
            rounds_before,
            "{shape:?}: no communication round was opened"
        );
    }
    // The text form drives the same path.
    let (q, _, mode) = parse_query_with_mode("LIMIT 0 (R1(a,b), R2(b,c), R3(a,c))").unwrap();
    assert_eq!(mode, OutputMode::Limit(0));
    let db = paper_query(PaperQuery::Q1).instantiate(&g);
    let out = adj.execute_with(&q, &db, Strategy::CoOptimize, mode).unwrap();
    assert!(out.rows().is_empty());
}

/// `Limit(n)` returns a *canonical* sample — the n lexicographically
/// smallest result rows under the plan's attribute order — so the selection
/// is deterministic across worker counts and partitionings, not an artifact
/// of which worker's buffer was gathered first.
#[test]
fn limit_selection_is_deterministic_across_worker_counts() {
    let g = graph();
    for shape in SHAPES {
        let q = paper_query(shape);
        let db = q.instantiate(&g);
        // CommFirst's order selection is independent of the cluster width,
        // so every worker count plans the same attribute order.
        let reference = Adj::with_workers(1)
            .execute_with(&q, &db, Strategy::CommFirst, OutputMode::Limit(7))
            .unwrap();
        for workers in [2usize, 3, 4] {
            let sample = Adj::with_workers(workers)
                .execute_with(&q, &db, Strategy::CommFirst, OutputMode::Limit(7))
                .unwrap();
            assert_eq!(
                sample.rows(),
                reference.rows(),
                "{shape:?}: {workers}-worker Limit sample differs from single-worker"
            );
        }
        // And the sample is exactly the n smallest rows of the full result.
        let full = Adj::with_workers(1)
            .execute_with(&q, &db, Strategy::CommFirst, OutputMode::Rows)
            .unwrap();
        let full = full.rows();
        let n = 7usize.min(full.len());
        let width = full.arity();
        let expect =
            Relation::from_flat(full.schema().clone(), full.flat()[..n * width].to_vec()).unwrap();
        assert_eq!(reference.rows(), &expect, "{shape:?}: sample must be the n smallest rows");
    }
}

/// The short-circuit acceptance criterion: `Exists`/`Limit` must stop the
/// Leapfrog enumeration early, visibly emitting fewer tuples than the full
/// cardinality (the executor's report carries the merged Leapfrog
/// counters, so the emit tally is directly observable).
#[test]
fn exists_and_limit_short_circuit_the_enumeration() {
    let g = graph();
    let adj = Adj::with_workers(4);
    // Q7 (length-2 path) has the biggest output of the shapes here, so the
    // short-circuit saving is unmistakable.
    let q = paper_query(PaperQuery::Q7);
    let db = q.instantiate(&g);

    let full = adj.execute(&q, &db).unwrap();
    let cardinality = full.rows().len() as u64;
    assert_eq!(full.report.counters.output_tuples, cardinality);
    assert!(cardinality > 8, "need a result large enough to short-circuit ({cardinality})");

    let witness = adj.execute_with(&q, &db, Strategy::CoOptimize, OutputMode::Exists).unwrap();
    assert!(
        witness.report.counters.output_tuples < cardinality,
        "exists emitted {} of {cardinality} tuples — no short-circuit happened",
        witness.report.counters.output_tuples
    );

    let limited = adj.execute_with(&q, &db, Strategy::CoOptimize, OutputMode::Limit(2)).unwrap();
    assert!(
        limited.report.counters.output_tuples < cardinality,
        "limit(2) emitted {} of {cardinality} tuples — no short-circuit happened",
        limited.report.counters.output_tuples
    );
    assert_eq!(limited.rows().len(), 2);
}
