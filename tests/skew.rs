//! Skew-correctness acceptance tests: on a Zipf(z = 1.2) heavy-hitter
//! database, every paper shape, both plan-search strategies, and all four
//! output modes must produce results byte-identical to the single-worker
//! oracle — skewed data still has to be answered exactly, however the
//! workers divide the heavy values' morsels between them.

use adj::datagen::{generate_zipf, ZipfConfig};
use adj::prelude::*;

const SHAPES: [PaperQuery; 3] = [PaperQuery::Q1, PaperQuery::Q4, PaperQuery::Q7];
const STRATEGIES: [Strategy; 2] = [Strategy::CoOptimize, Strategy::CommFirst];

/// The adversarial workload: a Zipf(1.2) graph whose top source value
/// carries ~13% of all edges even after set-semantics dedup.
fn zipf_graph() -> Relation {
    generate_zipf(&ZipfConfig { nodes: 400, edges: 3000, exponent: 1.2, seed: 0x21BF })
}

/// An ADJ instance on `workers` workers.
fn adj_with(workers: usize) -> Adj {
    Adj::new(AdjConfig { cluster: ClusterConfig::with_workers(workers), ..Default::default() })
}

#[test]
fn all_modes_match_the_single_worker_oracle() {
    let g = zipf_graph();
    for shape in SHAPES {
        let q = paper_query(shape);
        let db = q.instantiate(&g);
        for strategy in STRATEGIES {
            let oracle = adj_with(1).execute_with(&q, &db, strategy, OutputMode::Rows).unwrap();
            let oracle_rows = oracle.rows();
            let adj = adj_with(4);

            // Rows: byte-identical modulo the plans' attribute orders.
            let rows = adj.execute_with(&q, &db, strategy, OutputMode::Rows).unwrap();
            let aligned = rows.rows().permute(oracle_rows.schema().attrs()).unwrap();
            assert_eq!(
                &aligned, oracle_rows,
                "{shape:?}/{strategy:?}: distributed rows differ from the oracle"
            );

            // Count: exact — a duplicated or lost binding shows up here
            // even though relations dedup on gather.
            let count = adj.execute_with(&q, &db, strategy, OutputMode::Count).unwrap();
            assert_eq!(
                count.output,
                QueryOutput::Count(oracle_rows.len() as u64),
                "{shape:?}/{strategy:?}: count drifted on skewed data"
            );

            // Exists agrees with emptiness.
            let exists = adj.execute_with(&q, &db, strategy, OutputMode::Exists).unwrap();
            assert_eq!(exists.output, QueryOutput::Exists(!oracle_rows.is_empty()));

            // Limit: exact size, subset of the oracle.
            let n = 6usize;
            let limited = adj.execute_with(&q, &db, strategy, OutputMode::Limit(n)).unwrap();
            let sample = limited.rows();
            assert_eq!(sample.len(), n.min(oracle_rows.len()), "{shape:?}/{strategy:?}");
            let sample = sample.permute(oracle_rows.schema().attrs()).unwrap();
            for row in sample.rows() {
                assert!(
                    oracle_rows.contains_row(row),
                    "{shape:?}/{strategy:?}: limit row {row:?} not in the oracle result"
                );
            }
        }
    }
}

#[test]
fn duplicate_counts_would_be_caught_per_worker_count() {
    // Every output tuple belongs to exactly one driver morsel at every
    // cluster width (each width hands the Zipf head's morsels to its
    // workers differently). Count mode is the duplicate detector: the
    // gather path sums per-worker counters without any dedup.
    let g = zipf_graph();
    let q = paper_query(PaperQuery::Q1);
    let db = q.instantiate(&g);
    let truth = adj_with(1).execute(&q, &db).unwrap().rows().len() as u64;
    for workers in [2usize, 3, 4, 6] {
        let out = adj_with(workers)
            .execute_with(&q, &db, Strategy::CoOptimize, OutputMode::Count)
            .unwrap();
        assert_eq!(
            out.output,
            QueryOutput::Count(truth),
            "{workers}-worker count drifted — a binding was produced twice or lost"
        );
    }
}
