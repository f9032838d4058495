//! Fig. 1 — the motivating comparison on LJ with Q5 and Q6.
//!
//! (a) One-round (HCubeJ) vs multi-round (SparkSQL analog): shuffled tuples.
//! (b) Communication-first vs co-optimization: cost breakdown.

use adj_baselines::{run_binary_join, run_hcubej};
use adj_bench::{adj_config, print_table, scale, test_case, workers};
use adj_cluster::{Cluster, ClusterConfig};
use adj_core::{Adj, OutputMode, Strategy};
use adj_datagen::Dataset;
use adj_query::PaperQuery;

fn main() {
    let graph = Dataset::LJ.graph(scale());
    let w = workers();
    println!(
        "Fig. 1 reproduction — LJ stand-in at scale {} ({} edges), {} workers",
        scale(),
        graph.len(),
        w
    );

    // (a) one-round vs multi-round shuffled tuples
    let mut rows = Vec::new();
    for q in [PaperQuery::Q5, PaperQuery::Q6] {
        let (query, db) = test_case(q, &graph);
        let cluster = Cluster::new(ClusterConfig::with_workers(w));
        let one_round = run_hcubej(&cluster, &db, &query, &adj_bench::baseline_config())
            .map(|(_, r)| r.comm_tuples.to_string())
            .unwrap_or_else(|e| format!("FAIL({e})"));
        let cluster2 = Cluster::new(ClusterConfig::with_workers(w));
        let multi_round = run_binary_join(&cluster2, &db, &query, &adj_bench::baseline_config())
            .map(|(_, r)| r.comm_tuples.to_string())
            .unwrap_or_else(|e| format!("FAIL({e})"));
        rows.push(vec![q.name().to_string(), one_round, multi_round]);
    }
    print_table(
        "Fig 1(a): shuffled tuples, one-round vs multi-round",
        &["query".into(), "one-round (HCubeJ)".into(), "multi-round (binary)".into()],
        &rows,
    );

    // (b) comm-first vs co-opt breakdown
    let mut rows = Vec::new();
    for q in [PaperQuery::Q5, PaperQuery::Q6] {
        let (query, db) = test_case(q, &graph);
        for (label, strategy) in
            [("Comm-First", Strategy::CommFirst), ("Co-Opt", Strategy::CoOptimize)]
        {
            let adj = Adj::new(adj_config(w));
            match adj.execute_with(&query, &db, strategy, OutputMode::Rows) {
                Ok(out) => rows.push(vec![
                    format!("{} {label}", q.name()),
                    format!("{:.3}", out.report.communication_secs),
                    format!("{:.3}", out.report.precompute_secs),
                    format!("{:.3}", out.report.computation_secs),
                    format!("{:.3}", out.report.total_secs()),
                ]),
                Err(e) => rows.push(vec![
                    format!("{} {label}", q.name()),
                    "FAIL".into(),
                    "FAIL".into(),
                    "FAIL".into(),
                    e.to_string(),
                ]),
            }
        }
    }
    print_table(
        "Fig 1(b): comm-first vs co-opt (seconds)",
        &["case".into(), "Comm".into(), "Pre".into(), "Comp".into(), "Total".into()],
        &rows,
    );
}
