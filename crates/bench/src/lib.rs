//! # adj-bench — the experiment harness (Sec. VII)
//!
//! One binary per paper figure/table (see DESIGN.md's experiment index):
//!
//! | binary | reproduces |
//! |--------|------------|
//! | `fig01_motivation`     | Fig. 1(a) one-round vs multi-round; Fig. 1(b) comm-first vs co-opt |
//! | `fig06_tail_dominance` | Fig. 6 share of bindings at the last nodes |
//! | `fig08_order_pruning`  | Fig. 8 valid/invalid order comparison |
//! | `fig09_hcube_impls`    | Fig. 9 Push vs Pull vs Merge |
//! | `fig10_sampling`       | Fig. 10 sampling cost & accuracy |
//! | `fig11_scalability`    | Fig. 11 speed-up vs workers |
//! | `fig12_comparison`     | Fig. 12 five methods × datasets × queries |
//! | `table_co_opt`         | Tables II–IV co-opt vs comm-first breakdown |
//!
//! Every binary prints a plain-text table and honours two environment
//! variables: `ADJ_SCALE` (dataset scale, default 0.05 ≈ 1/20000 of the real
//! graphs) and `ADJ_WORKERS` (cluster width, default 4).

use adj_baselines::{run_bigjoin, run_binary_join, run_hcubej, run_hcubej_cached, BaselineConfig};
use adj_cluster::{Cluster, ClusterConfig};
use adj_core::{Adj, AdjConfig, Strategy};
use adj_query::{paper_query, JoinQuery, PaperQuery};
use adj_relational::{Database, OutputMode, Relation};

/// The five competing methods of Fig. 12.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Multi-round distributed binary join (SparkSQL analog).
    SparkSql,
    /// Multi-round parallelized Leapfrog (BigJoin analog).
    BigJoin,
    /// One-round HCube(Push) + Leapfrog.
    HCubeJ,
    /// One-round HCube(Push) + CacheTrieJoin.
    HCubeJCache,
    /// ADJ (this paper).
    Adj,
}

impl Method {
    /// All methods, in the paper's legend order.
    pub const ALL: [Method; 5] =
        [Method::SparkSql, Method::BigJoin, Method::HCubeJ, Method::HCubeJCache, Method::Adj];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Method::SparkSql => "SparkSQL",
            Method::BigJoin => "BigJoin",
            Method::HCubeJ => "HCubeJ",
            Method::HCubeJCache => "HCubeJ+Cache",
            Method::Adj => "ADJ",
        }
    }
}

/// Uniform outcome of one (method, dataset, query) run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Total seconds (modeled communication + measured computation +
    /// optimization where applicable).
    pub total_secs: f64,
    /// Communication seconds.
    pub comm_secs: f64,
    /// Computation seconds.
    pub comp_secs: f64,
    /// Delivered tuple copies.
    pub comm_tuples: u64,
    /// Result cardinality.
    pub output_tuples: u64,
    /// Failure reason (`Some` reproduces the paper's missing/topped bars).
    pub failed: Option<String>,
}

impl RunOutcome {
    fn failure(reason: String) -> Self {
        RunOutcome {
            total_secs: f64::INFINITY,
            comm_secs: f64::INFINITY,
            comp_secs: f64::INFINITY,
            comm_tuples: 0,
            output_tuples: 0,
            failed: Some(reason),
        }
    }

    /// `"FAIL"` or the total seconds, for table cells.
    pub fn cell(&self) -> String {
        match &self.failed {
            Some(_) => "FAIL".to_string(),
            None => format!("{:.3}", self.total_secs),
        }
    }
}

/// Dataset scale from `ADJ_SCALE` (default 0.05).
pub fn scale() -> f64 {
    std::env::var("ADJ_SCALE").ok().and_then(|s| s.parse().ok()).unwrap_or(0.05)
}

/// Worker count from `ADJ_WORKERS` (default 4, clamped to ≥ 1 — a
/// zero-worker cluster is a panic deep in the share plan, not a benchmark).
pub fn workers() -> usize {
    std::env::var("ADJ_WORKERS").ok().and_then(|s| s.parse().ok()).unwrap_or(4).max(1)
}

/// Budget caps sized for laptop-scale runs (reproduces the paper's failure
/// bars without burning hours).
pub fn baseline_config() -> BaselineConfig {
    BaselineConfig { max_intermediate_tuples: 20_000_000, ..Default::default() }
}

/// The ADJ configuration used by the harness.
pub fn adj_config(workers: usize) -> AdjConfig {
    AdjConfig {
        cluster: ClusterConfig::with_workers(workers),
        max_intermediate_tuples: 20_000_000,
        ..Default::default()
    }
}

/// Instantiates the test-case database for `query` over `graph`.
pub fn test_case(query: PaperQuery, graph: &Relation) -> (JoinQuery, Database) {
    let q = paper_query(query);
    let db = q.instantiate(graph);
    (q, db)
}

/// Runs one method on one test-case and reports uniformly.
pub fn run_method(
    method: Method,
    query: PaperQuery,
    graph: &Relation,
    n_workers: usize,
) -> RunOutcome {
    let (q, db) = test_case(query, graph);
    let bcfg = baseline_config();
    match method {
        Method::SparkSql => {
            let cluster = Cluster::new(ClusterConfig::with_workers(n_workers));
            match run_binary_join(&cluster, &db, &q, &bcfg) {
                Ok((_, r)) => RunOutcome {
                    total_secs: r.total_secs(),
                    comm_secs: r.comm_secs,
                    comp_secs: r.comp_secs,
                    comm_tuples: r.comm_tuples,
                    output_tuples: r.output_tuples,
                    failed: None,
                },
                Err(e) => RunOutcome::failure(e.to_string()),
            }
        }
        Method::BigJoin => {
            let cluster = Cluster::new(ClusterConfig::with_workers(n_workers));
            match run_bigjoin(&cluster, &db, &q, &bcfg) {
                Ok((_, r)) => RunOutcome {
                    total_secs: r.total_secs(),
                    comm_secs: r.comm_secs,
                    comp_secs: r.comp_secs,
                    comm_tuples: r.comm_tuples,
                    output_tuples: r.output_tuples,
                    failed: None,
                },
                Err(e) => RunOutcome::failure(e.to_string()),
            }
        }
        Method::HCubeJ | Method::HCubeJCache => {
            let cluster = Cluster::new(ClusterConfig::with_workers(n_workers));
            let res = if method == Method::HCubeJ {
                run_hcubej(&cluster, &db, &q, &bcfg)
            } else {
                run_hcubej_cached(&cluster, &db, &q, &bcfg)
            };
            match res {
                Ok((_, r)) => RunOutcome {
                    total_secs: r.total_secs(),
                    comm_secs: r.comm_secs,
                    comp_secs: r.comp_secs,
                    comm_tuples: r.comm_tuples,
                    output_tuples: r.output_tuples,
                    failed: None,
                },
                Err(e) => RunOutcome::failure(e.to_string()),
            }
        }
        Method::Adj => {
            let adj = Adj::new(adj_config(n_workers));
            match adj.execute_with(&q, &db, Strategy::CoOptimize, OutputMode::Rows) {
                Ok(out) => RunOutcome {
                    total_secs: out.report.total_secs(),
                    comm_secs: out.report.communication_secs,
                    comp_secs: out.report.computation_secs,
                    comm_tuples: out.report.comm_tuples,
                    output_tuples: out.report.output_tuples,
                    failed: None,
                },
                Err(e) => RunOutcome::failure(e.to_string()),
            }
        }
    }
}

/// Prints a simple aligned table.
pub fn print_table(title: &str, header: &[String], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let ncols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for r in rows {
        for (i, c) in r.iter().enumerate().take(ncols) {
            widths[i] = widths[i].max(c.len());
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths[i.min(widths.len() - 1)]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!("{}", fmt_row(header));
    println!("{}", "-".repeat(widths.iter().sum::<usize>() + 2 * (ncols - 1)));
    for r in rows {
        println!("{}", fmt_row(r));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adj_datagen::Dataset;

    #[test]
    fn run_method_all_green_on_triangle() {
        let g = Dataset::WB.graph(0.01);
        let mut outputs = Vec::new();
        for m in Method::ALL {
            let o = run_method(m, PaperQuery::Q1, &g, 2);
            assert!(o.failed.is_none(), "{} failed: {:?}", m.name(), o.failed);
            outputs.push(o.output_tuples);
        }
        // every method returns the same result cardinality
        assert!(outputs.iter().all(|&c| c == outputs[0]), "{outputs:?}");
    }

    #[test]
    fn outcome_cells() {
        let ok = RunOutcome {
            total_secs: 1.5,
            comm_secs: 0.5,
            comp_secs: 1.0,
            comm_tuples: 10,
            output_tuples: 5,
            failed: None,
        };
        assert_eq!(ok.cell(), "1.500");
        assert_eq!(RunOutcome::failure("x".into()).cell(), "FAIL");
    }
}
