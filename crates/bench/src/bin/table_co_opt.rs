//! Tables II–IV — co-optimization vs communication-first strategy on
//! AS, LJ, OK × Q4–Q6: the per-phase cost breakdown
//! (Optimization / Pre-Computing / Communication / Computation / Total).

use adj_bench::{adj_config, print_table, scale, test_case, workers};
use adj_core::{Adj, OutputMode, Strategy};
use adj_datagen::Dataset;
use adj_query::PaperQuery;

fn main() {
    let w = workers();
    println!("Tables II–IV reproduction (scale {}, {} workers)", scale(), w);
    for ds in [Dataset::AS, Dataset::LJ, Dataset::OK] {
        let graph = ds.graph(scale());
        let mut rows = Vec::new();
        for q in [PaperQuery::Q4, PaperQuery::Q5, PaperQuery::Q6] {
            let (query, db) = test_case(q, &graph);
            for (label, strategy) in
                [("Co-Opt", Strategy::CoOptimize), ("Comm-First", Strategy::CommFirst)]
            {
                let adj = Adj::new(adj_config(w));
                match adj.execute_with(&query, &db, strategy, OutputMode::Rows) {
                    Ok(out) => {
                        let r = &out.report;
                        rows.push(vec![
                            format!("{} {label}", q.name()),
                            format!("{:.3}", r.optimization_secs),
                            format!("{:.3}", r.precompute_secs),
                            format!("{:.3}", r.communication_secs),
                            format!("{:.3}", r.computation_secs),
                            format!("{:.3}", r.total_secs()),
                        ]);
                    }
                    Err(e) => rows.push(vec![
                        format!("{} {label}", q.name()),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                        format!("FAIL({e})"),
                    ]),
                }
            }
        }
        print_table(
            &format!("Table (dataset {}): co-opt vs comm-first (seconds)", ds.name()),
            &[
                "case".into(),
                "Optimization".into(),
                "Pre-Computing".into(),
                "Communication".into(),
                "Computation".into(),
                "Total".into(),
            ],
            &rows,
        );
    }
}
