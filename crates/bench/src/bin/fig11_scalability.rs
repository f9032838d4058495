//! Fig. 11 — ADJ speed-up on LJ for Q1–Q6 as workers grow 1 → 28.
//!
//! Speed-up is measured on the *modeled+measured* total (optimization
//! excluded, matching the paper's focus on execution scalability). Q1 should
//! plateau (system overhead dominates a cheap query) and skew should cap the
//! speed-up of Q5 (the "last straggler" effect).

use adj_bench::{adj_config, print_table, scale, test_case};
use adj_core::{Adj, OutputMode, Strategy};
use adj_datagen::Dataset;
use adj_query::PaperQuery;

fn main() {
    println!("Fig. 11 reproduction — speed-up vs workers on LJ (scale {})", scale());
    let graph = Dataset::LJ.graph(scale());
    let worker_counts = [1usize, 2, 4, 8, 16, 28];
    let mut rows = Vec::new();
    for q in PaperQuery::EVALUATED {
        let (query, db) = test_case(q, &graph);
        let mut row = vec![q.name().to_string()];
        let mut base: Option<f64> = None;
        for &w in &worker_counts {
            let adj = Adj::new(adj_config(w));
            match adj.execute_with(&query, &db, Strategy::CoOptimize, OutputMode::Rows) {
                Ok(out) => {
                    let exec = out.report.total_secs() - out.report.optimization_secs;
                    let b = *base.get_or_insert(exec);
                    row.push(format!("{:.2}", b / exec.max(1e-9)));
                }
                Err(_) => row.push("FAIL".into()),
            }
        }
        rows.push(row);
    }
    let mut hdr: Vec<String> = vec!["query".into()];
    hdr.extend(worker_counts.iter().map(|w| format!("w={w}")));
    print_table("Fig 11: speed-up factor (t_1 / t_w)", &hdr, &rows);
}
