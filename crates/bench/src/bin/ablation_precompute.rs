//! Ablation: what does bag pre-computation actually buy?
//!
//! For each test-case we execute three fixed plans — no pre-computation
//! (HCubeJ-style), Algorithm 2's choice, and force-all-bags — and report the
//! measured phase costs. This validates the optimizer's decisions against
//! ground truth (the paper's Tables II–IV show the two interesting columns;
//! this bin adds the "always pre-compute" extreme, which is GHD-Yannakakis
//! territory).

use adj_bench::{adj_config, print_table, scale, test_case, workers};
use adj_core::{optimize, Adj, BoundValues, ExecCtx, OutputMode, QueryPlan, Strategy};
use adj_datagen::Dataset;
use adj_query::order::{is_valid_order, valid_orders};
use adj_query::PaperQuery;

fn main() {
    let w = workers();
    println!("Pre-computation ablation (scale {}, {} workers)", scale(), w);
    for ds in [Dataset::AS, Dataset::LJ, Dataset::OK] {
        let graph = ds.graph(scale());
        let mut rows = Vec::new();
        for q in [PaperQuery::Q4, PaperQuery::Q5, PaperQuery::Q6] {
            let (query, db) = test_case(q, &graph);
            let adj = Adj::new(adj_config(w));
            let base = optimize(&query, &db, adj.config(), Strategy::CoOptimize).unwrap();

            for (label, c_mask) in [
                ("none", 0u64),
                ("alg2", base.precompute.iter().map(|&v| 1u64 << v).sum()),
                (
                    "all",
                    base.tree
                        .nodes
                        .iter()
                        .enumerate()
                        .filter(|(_, n)| !n.is_single_edge())
                        .map(|(i, _)| 1u64 << i)
                        .sum(),
                ),
            ] {
                let mut plan = base.clone();
                plan.relations = QueryPlan::relations_for(&query, &plan.tree, c_mask);
                plan.precompute = (0..plan.tree.len()).filter(|v| c_mask & (1 << v) != 0).collect();
                if !is_valid_order(&plan.tree, &plan.order) {
                    plan.order = valid_orders(&plan.tree)[0].clone();
                }
                let (unbound, cold) = (BoundValues::none(), ExecCtx::default());
                match adj.execute_plan(&plan, &db, OutputMode::Rows, &unbound, &cold) {
                    Ok((_, r)) => rows.push(vec![
                        format!("{} {label}", q.name()),
                        format!("{:.3}", r.precompute_secs),
                        format!("{:.3}", r.communication_secs),
                        format!("{:.3}", r.computation_secs),
                        format!(
                            "{:.3}",
                            r.precompute_secs + r.communication_secs + r.computation_secs
                        ),
                    ]),
                    Err(e) => rows.push(vec![
                        format!("{} {label}", q.name()),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                        format!("FAIL({e})"),
                    ]),
                }
            }
        }
        print_table(
            &format!("dataset {}: pre-compute none / alg2 / all (execution seconds)", ds.name()),
            &["case".into(), "Pre".into(), "Comm".into(), "Comp".into(), "Exec".into()],
            &rows,
        );
    }
}
