//! # ADJ — Adaptive Distributed Join
//!
//! A from-scratch Rust reproduction of *Fast Distributed Complex Join
//! Processing* (Zhang, Qiao, Yu, Cheng — ICDE 2021, arXiv:2102.13370).
//!
//! ADJ evaluates complex (cyclic, multi-way) natural-join queries in a
//! distributed setting in **one shuffle round**, and — unlike the prior
//! HCubeJ line of work, which minimizes communication alone — **co-optimizes
//! pre-computing, communication, and computation cost**, trading a little of
//! the first two for large reductions of the third by materializing
//! hypertree-bag joins before the final one-round evaluation.
//!
//! ## Crate map
//!
//! | module (re-export) | crate | contents |
//! |---|---|---|
//! | [`relational`] | `adj-relational` | relations, schemas, tries, intersections, output modes & row sinks |
//! | [`query`] | `adj-query` | join queries, hypergraphs, GHD/fhw, attribute orders, Q1–Q11 |
//! | [`cluster`] | `adj-cluster` | the simulated shared-nothing cluster |
//! | [`hcube`] | `adj-hcube` | HCube share optimizer + Push/Pull/Merge shuffles + cross-query index cache |
//! | [`leapfrog`] | `adj-leapfrog` | Leapfrog Triejoin (+ cached variant) |
//! | [`sampling`] | `adj-sampling` | sampling-based cardinality estimation |
//! | [`trace`] | `adj-trace` | zero-dependency lock-free per-query span/event tracing |
//! | [`faults`] | `adj-faults` | cancellation tokens + deterministic fault injection |
//! | [`core`] | `adj-core` | the ADJ optimizer (Algorithm 2) and executor |
//! | [`batch`] | `adj-batch` | vectorized binding batches + the batched Leapfrog driver |
//! | [`service`] | `adj-service` | concurrent query service: plan + index caches, admission control, metrics, output modes |
//! | [`baselines`] | `adj-baselines` | SparkSQL-analog, BigJoin, HCubeJ(+Cache) |
//! | [`datagen`] | `adj-datagen` | seeded stand-ins for the Table I datasets |
//!
//! ## Quick start
//!
//! ```
//! use adj::prelude::*;
//!
//! // A triangle query over a small synthetic graph.
//! let query = paper_query(PaperQuery::Q1);
//! let graph = Dataset::WB.graph(0.01);
//! let db = query.instantiate(&graph);
//!
//! let adj = Adj::with_workers(4);
//! let out = adj.execute(&query, &db).unwrap();
//! println!("{} triangles in {:.3}s", out.rows().len(), out.report.total_secs());
//! # assert!(out.rows().len() > 0);
//!
//! // Only need the number? Count mode never gathers a single tuple:
//! let n = adj.execute_with(&query, &db, Strategy::CoOptimize, OutputMode::Count).unwrap();
//! assert_eq!(n.output, QueryOutput::Count(out.rows().len() as u64));
//! ```
//!
//! ## Output modes
//!
//! Every execution entry point — [`Adj::execute_with`](prelude::Adj::execute_with),
//! `execute_plan` in [`core`], `Service::execute_mode` and
//! text queries prefixed `COUNT(…)` / `LIMIT k (…)` / `EXISTS(…)` in
//! [`service`] — accepts an [`OutputMode`](prelude::OutputMode) choosing
//! what comes back: the full relation (`Rows`), the cardinality alone
//! (`Count` — per-worker counters, nothing materialized or gathered), a
//! bounded sample (`Limit(n)` — Leapfrog short-circuits at `n` rows per
//! worker), or bare emptiness (`Exists` — stops at the first witness).
//! Results arrive as a [`QueryOutput`](prelude::QueryOutput); the old
//! `outcome.result` field is now `outcome.output`, with `outcome.rows()`
//! as the drop-in accessor for `Rows`-mode call sites.

pub use adj_baselines as baselines;
pub use adj_batch as batch;
pub use adj_cluster as cluster;
pub use adj_core as core;
pub use adj_datagen as datagen;
pub use adj_delta as delta;
pub use adj_faults as faults;
pub use adj_hcube as hcube;
pub use adj_leapfrog as leapfrog;
pub use adj_query as query;
pub use adj_relational as relational;
pub use adj_sampling as sampling;
pub use adj_service as service;
pub use adj_trace as trace;

/// The common imports for applications.
pub mod prelude {
    pub use adj_cluster::{Cluster, ClusterConfig, TransportKind};
    pub use adj_core::{
        Adj, AdjConfig, CostParams, ExecCtx, ExecutionReport, Prepared, QueryPlan, SkewConfig,
        Strategy,
    };
    pub use adj_datagen::{update_stream, Dataset, UpdateBatch, UpdateStreamConfig};
    pub use adj_delta::{DeltaConfig, DeltaRelation, MutationBatch};
    pub use adj_faults::{CancelToken, FaultAction, FaultPlan, FaultSite};
    pub use adj_query::{
        paper_query, parse_query, parse_query_explain, parse_query_with_mode, Atom, Bindings,
        ExplainMode, JoinQuery, PaperQuery, QueryFingerprint, Term,
    };
    pub use adj_relational::{
        Attr, BoundValues, Database, OutputMode, QueryOutput, Relation, RowSink, Schema, Value,
    };
    pub use adj_sampling::{Sampler, SamplingConfig};
    pub use adj_service::{
        AdmissionPolicy, BatchOutcome, BindingBatch, MutationOutcome, PreparedQuery,
        ResultCacheStats, Service, ServiceConfig, ServiceError, ServiceOutcome, SlowQuery,
        TraceSettings,
    };
    pub use adj_trace::{Event, QueryTrace, SpanGuard, Trace, Tracer, COORDINATOR_LANE};
}
