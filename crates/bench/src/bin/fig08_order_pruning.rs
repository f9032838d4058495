//! Fig. 8 — effectiveness of attribute-order pruning on Q4–Q6 × datasets.
//!
//! For each test-case we run Leapfrog under every attribute order and report
//! the intermediate-tuple counts of:
//!   * Invalid-Max — worst order among those the hypertree *prunes*;
//!   * Valid-Max   — worst order among the hypertree-valid ones;
//!   * All-Selected   — the order HCubeJ's estimator picks from all orders;
//!   * Valid-Selected — the order ADJ picks from valid orders only.

use adj_bench::{adj_config, print_table, scale, test_case, workers};
use adj_core::{optimize, Strategy};
use adj_datagen::Dataset;
use adj_leapfrog::LeapfrogJoin;
use adj_query::order::{all_orders, is_valid_order};
use adj_query::{GhdTree, PaperQuery};
use adj_relational::{Attr, Database, Trie};

/// Binding budget per order evaluation: bad (invalid) orders can produce
/// cross-product-sized intermediates; counting is cut off at this many total
/// bindings and reported as a `≥` lower bound (the paper's frame-top bars).
const ORDER_BUDGET: u64 = 5_000_000;

fn intermediate_tuples(db: &Database, query: &adj_query::JoinQuery, order: &[Attr]) -> (u64, bool) {
    let tries: Vec<Trie> = query
        .atoms
        .iter()
        .map(|a| db.get(&a.name).unwrap().trie_under_order(order).unwrap())
        .collect();
    let join = LeapfrogJoin::new(order, tries.iter().collect()).unwrap();
    let (completed, counters) = join.count_with_budget(ORDER_BUDGET);
    (counters.intermediate_tuples(), completed)
}

fn main() {
    println!("Fig. 8 reproduction — attribute-order pruning (scale {})", scale());
    let datasets: Vec<Dataset> = Dataset::ALL.to_vec();
    for q in [PaperQuery::Q4, PaperQuery::Q5, PaperQuery::Q6] {
        let mut rows = Vec::new();
        for &ds in &datasets {
            let graph = ds.graph(scale());
            let (query, db) = test_case(q, &graph);
            let tree = GhdTree::decompose(&query.hypergraph(), 3);
            let attrs = query.attrs();
            let mut invalid_max = 0u64;
            let mut invalid_capped = false;
            let mut valid_max = 0u64;
            let mut valid_capped = false;
            for o in all_orders(&attrs) {
                let (t, completed) = intermediate_tuples(&db, &query, &o);
                if is_valid_order(&tree, &o) {
                    if t > valid_max {
                        valid_max = t;
                        valid_capped = !completed;
                    }
                } else if t > invalid_max {
                    invalid_max = t;
                    invalid_capped = !completed;
                }
            }
            // All-Selected: HCubeJ's pick over all orders.
            let cluster =
                adj_cluster::Cluster::new(adj_cluster::ClusterConfig::with_workers(workers()));
            let all_sel = adj_core::select_order_all(&query, &db, &cluster).unwrap();
            let (all_selected, all_ok) = intermediate_tuples(&db, &query, &all_sel);
            // Valid-Selected: ADJ's pick.
            let plan = optimize(&query, &db, &adj_config(workers()), Strategy::CoOptimize).unwrap();
            let (valid_selected, vs_ok) = intermediate_tuples(&db, &query, &plan.order);
            let fmt = |v: u64, capped: bool| {
                if capped {
                    format!(">={v}")
                } else {
                    v.to_string()
                }
            };
            rows.push(vec![
                ds.name().to_string(),
                fmt(invalid_max, invalid_capped),
                fmt(valid_max, valid_capped),
                fmt(all_selected, !all_ok),
                fmt(valid_selected, !vs_ok),
            ]);
        }
        print_table(
            &format!("Fig 8 ({}): intermediate tuples by order class", q.name()),
            &[
                "dataset".into(),
                "Invalid-Max".into(),
                "Valid-Max".into(),
                "All-Selected".into(),
                "Valid-Selected".into(),
            ],
            &rows,
        );
    }
}
