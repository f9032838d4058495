//! The paper's central claim, live: on a complex cyclic query the
//! communication-first plan is computation-bound, and spending a little on
//! pre-computing + extra communication slashes the total cost (Fig. 1(b)).
//!
//! ```sh
//! cargo run --release --example cost_tradeoff [scale]
//! ```

use adj::prelude::*;

fn main() {
    let scale: f64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(0.05);
    let graph = Dataset::LJ.graph(scale);
    println!("LJ stand-in, {} edges (scale {scale}); 4 workers\n", graph.len());

    for pq in [PaperQuery::Q5, PaperQuery::Q6] {
        let query = paper_query(pq);
        let db = query.instantiate(&graph);
        let adj = Adj::with_workers(4);
        println!("── {} ──", query);
        for (label, strategy) in
            [("Comm-First", Strategy::CommFirst), ("Co-Opt", Strategy::CoOptimize)]
        {
            match adj.execute_with(&query, &db, strategy, OutputMode::Rows) {
                Ok(out) => {
                    let r = &out.report;
                    println!(
                        "{label:>11}: total {:.4}s = opt {:.4} + pre {:.4} + comm {:.4} + comp {:.4}  ({} results{})",
                        r.total_secs(),
                        r.optimization_secs,
                        r.precompute_secs,
                        r.communication_secs,
                        r.computation_secs,
                        out.rows().len(),
                        if out.plan.has_precompute() {
                            format!(", pre-computed bags: {:?}", out.plan.precompute)
                        } else {
                            String::new()
                        },
                    );
                }
                Err(e) => println!("{label:>11}: FAIL ({e})"),
            }
        }
        println!();
    }
}
