//! # adj-service — a long-lived, concurrent query-serving layer over ADJ
//!
//! The rest of the workspace reproduces the paper's *single-query* pipeline
//! (optimize → pre-compute → HCube shuffle → Leapfrog join); every entry
//! point builds a cluster, runs one query to completion, and exits. This
//! crate turns that library into a service that an application embeds and
//! fires queries at from many threads:
//!
//! * [`Service`] — the front door. Databases are registered under names;
//!   queries arrive as [`JoinQuery`](adj_query::JoinQuery) values or as
//!   query text (parsed by `adj_query::parser`), carry an
//!   [`OutputMode`](adj_relational::OutputMode) (`Rows`, `Count`,
//!   `Limit(n)`, `Exists` — text queries spell it as a `COUNT(…)` /
//!   `LIMIT k (…)` / `EXISTS(…)` prefix), and run on one shared
//!   [`Cluster`](adj_cluster::Cluster) handle instead of a fresh build per
//!   call. Non-`Rows` modes never gather the full result: `Count`/`Exists`
//!   ship per-worker counters only.
//! * [`PreparedQuery`] — the prepare/bind lifecycle: [`Service::prepare`]
//!   optimizes a parameterized shape (`R1($v,b), R2(b,c), R3($v,c)` —
//!   inline literals like `R1(7,b)` work too) once, and
//!   [`Service::execute_bound`] serves each binding through the same
//!   cached plan and the same warm index family the unbound query uses:
//!   the bag rounds and the index round never see a binding, only
//!   Leapfrog does, seeking the bound constants.
//! * the plan cache — an LRU [`Cache`](adj_relational::cache::Cache) of
//!   optimized plans keyed by the canonical
//!   [`QueryFingerprint`](adj_query::QueryFingerprint) plus the target
//!   database's statistics epoch. Repeated query shapes skip GHD search,
//!   cost sampling, and Algorithm 2 entirely; hit/miss/eviction counts are
//!   exposed.
//! * [`IndexCache`] — the cross-query *index* cache, next to the plan
//!   cache: each database relation's trie is published as a shared
//!   `Arc<Trie>` keyed by `(relation, induced order, stats epoch, delta
//!   sequence)`, one per relation and order that every worker reads. Warm
//!   queries skip the sort + trie build entirely and join over the cached
//!   handles; bytes are LRU-bounded and carved out of the cluster memory
//!   budget the admission controller enforces. Pre-computed bags are not
//!   cached: every execution computes its own.
//! * the per-binding result LRU ([`result_cache`]) of the batch door. It,
//!   the plan cache and the index cache are instances of the one generic
//!   [`Cache`](adj_relational::cache::Cache): one insert rule, one build
//!   claim, one set of [`CacheStats`] counters, and one invalidation rule —
//!   re-registering or dropping a database forgets its registration's
//!   entries in all three.
//! * [`AdmissionController`](admission::AdmissionController) — a
//!   concurrency limit plus a per-query memory budget derived from
//!   [`ClusterConfig::memory_limit_bytes`](adj_cluster::ClusterConfig):
//!   over-budget queries are rejected up front and excess concurrency is
//!   queued (or rejected, per policy) instead of OOMing the cluster.
//! * [`ServiceMetrics`](metrics::ServiceMetrics) — atomic counters and
//!   per-phase latency histograms (the
//!   [`ExecutionReport`](adj_core::ExecutionReport) breakdown:
//!   optimization / pre-compute / communication / computation), cheaply
//!   snapshotable for benches, tests, and dashboards.
//!
//! See `README.md` for the fingerprint scheme and the admission-control
//! policy in detail.
//!
//! ## Example
//!
//! ```
//! use adj_service::{Service, ServiceConfig};
//! use adj_query::{paper_query, PaperQuery};
//! use adj_relational::{Attr, Relation};
//!
//! let q = paper_query(PaperQuery::Q1);
//! let g = Relation::from_pairs(Attr(0), Attr(1), &[(0, 1), (1, 2), (0, 2), (2, 3)]);
//! let service = Service::new(ServiceConfig::default());
//! service.register_database("toy", q.instantiate(&g));
//!
//! let first = service.execute("toy", &q).unwrap();
//! let second = service.execute("toy", &q).unwrap();
//! assert!(!first.cache_hit);
//! assert!(second.cache_hit); // same shape, same epoch → plan reused
//! assert_eq!(first.rows(), second.rows());
//! assert_eq!(first.rows().len(), 1); // the 0-1-2 triangle
//!
//! // Output modes reuse the same cached plan but skip materialization:
//! let counted = service.execute_text("toy", "COUNT(R1(a,b), R2(b,c), R3(a,c))").unwrap();
//! assert!(counted.cache_hit);
//! assert_eq!(counted.output.count(), Some(1));
//! ```

pub mod admission;
pub mod explain;
pub mod json;
pub mod metrics;
pub mod result_cache;
pub mod service;

pub use adj_batch::BindingBatch;
pub use adj_cluster::TransportKind;
pub use adj_core::{IndexCache, IndexCacheStats};
pub use adj_delta::{DeltaConfig, MutationBatch};
pub use adj_query::ExplainMode;
pub use adj_relational::cache::CacheStats;
pub use adj_trace::{Event, QueryTrace, Trace, Tracer};
pub use admission::{AdmissionPolicy, AdmissionStats};
pub use json::execution_report_json;
pub use metrics::{HistogramSnapshot, MetricsSnapshot, ModeCounts};
pub use service::{
    BatchOutcome, MutationOutcome, PreparedQuery, Service, ServiceOutcome, ServiceStats, SlowQuery,
};

use adj_core::{AdjConfig, Strategy};
use std::time::Duration;

/// Tracing and slow-query-log settings of a [`Service`].
#[derive(Debug, Clone)]
pub struct TraceSettings {
    /// Trace every query. Off by default — with tracing off the tracer
    /// handed through the execution stack is the no-op tracer (no
    /// allocation, no atomics; every recording call is one branch).
    pub enabled: bool,
    /// Ring-buffer capacity in events per traced query. Overflowing events
    /// are dropped and counted ([`Trace::events_dropped`],
    /// `adj_trace_events_dropped_total`), never block execution. Buffers
    /// of the same capacity are recycled through a per-thread pool, so in
    /// steady state a traced query allocates nothing for its buffer;
    /// typical queries record a few dozen events, leaving the default
    /// (1024) ample headroom for pathological plans.
    pub buffer_capacity: usize,
    /// When set, any query slower than this (end-to-end, admission wait
    /// included) is traced and kept in the slow-query log — tracing is
    /// forced for *all* queries while a threshold is set, since whether a
    /// query was slow is only known after it ran.
    pub slow_query_threshold: Option<Duration>,
    /// How many slow queries the log retains (the worst by latency).
    pub slow_log_keep: usize,
}

impl Default for TraceSettings {
    fn default() -> Self {
        TraceSettings {
            enabled: false,
            buffer_capacity: 1024,
            slow_query_threshold: None,
            slow_log_keep: 8,
        }
    }
}

/// Configuration of a [`Service`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// The underlying ADJ configuration: sampling and cost-model settings,
    /// and in `adj.cluster` everything about the cluster [`Service::new`]
    /// builds — width, α, per-worker memory budget and the shuffle transport
    /// ([`TransportKind`], see the README's "Cluster & transports"
    /// section).
    pub adj: AdjConfig,
    /// Plan-search strategy used on cache misses.
    pub strategy: Strategy,
    /// Plan-cache capacity in entries; 0 disables caching.
    pub plan_cache_capacity: usize,
    /// Per-binding result-cache capacity in entries
    /// ([`result_cache`] — finished
    /// [`QueryOutput`](adj_relational::QueryOutput)s keyed by plan entry +
    /// mode + binding values, serving re-bound hot vertices on the batched
    /// path without executing); 0 disables it.
    pub result_cache_capacity: usize,
    /// Index-cache capacity in **bytes** of cached tries. `Some(0)`
    /// disables index caching; `None` derives the budget from the cluster memory limit
    /// (half of `memory_limit_bytes × num_workers`, or 256 MiB when the
    /// cluster is unlimited). Whatever the cache may hold is carved out of
    /// the admission controller's per-query memory budget, so cache and
    /// queries together never exceed the cluster limit.
    pub index_cache_capacity_bytes: Option<usize>,
    /// Maximum queries executing concurrently on the shared cluster.
    pub max_concurrent: usize,
    /// What to do with arrivals beyond `max_concurrent`.
    pub admission: AdmissionPolicy,
    /// Per-query tracing and the slow-query log.
    pub trace: TraceSettings,
    /// Delta-overlay growth and compaction knobs for
    /// [`Service::mutate`]-ed relations.
    pub delta: DeltaConfig,
    /// Default per-query deadline, measured from submission (admission wait
    /// included). A query that outlives it is cooperatively cancelled at
    /// the next checkpoint — the index builds' row loops and the workers'
    /// walks and join sinks poll the token —
    /// and fails with [`ServiceError::DeadlineExceeded`], leaving no
    /// partial cache artifacts behind. `None` (the default) disables the
    /// deadline; individual requests override it via
    /// [`Service::execute_mode_with_deadline`].
    pub default_deadline: Option<Duration>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            adj: AdjConfig::default(),
            strategy: Strategy::CoOptimize,
            plan_cache_capacity: 128,
            result_cache_capacity: 1024,
            index_cache_capacity_bytes: None,
            max_concurrent: 4,
            admission: AdmissionPolicy::Queue { max_waiting: 64, timeout: None },
            trace: TraceSettings::default(),
            delta: DeltaConfig::default(),
            default_deadline: None,
        }
    }
}

/// Everything that can go wrong serving one query.
#[derive(Debug)]
pub enum ServiceError {
    /// The named database was never registered (or was dropped).
    UnknownDatabase(String),
    /// Admission control: the concurrency limit and the waiting queue are
    /// both full (or the policy is [`AdmissionPolicy::Reject`] and all
    /// execution slots are busy).
    RejectedCapacity {
        /// Queries currently executing.
        running: usize,
        /// Queries currently waiting.
        waiting: usize,
    },
    /// Admission control: the query's estimated memory footprint exceeds
    /// the per-query budget derived from the cluster memory limit.
    RejectedMemory {
        /// Estimated input bytes the query must materialize.
        estimated_bytes: usize,
        /// The per-query budget it exceeded.
        budget_bytes: usize,
    },
    /// Admission control: the query waited the full
    /// [`AdmissionPolicy::Queue`] `timeout` without an execution slot
    /// freeing up — a saturated service sheds the caller instead of
    /// parking it forever.
    QueueTimeout {
        /// The configured timeout that elapsed.
        timeout: Duration,
    },
    /// Query text failed to parse: the byte offset of the offending token
    /// (relative to the submitted text), the token itself, and what was
    /// wrong with it. Distinct from [`ServiceError::Exec`] so a front door
    /// can return a pointed 4xx instead of a stringly 500.
    Parse {
        /// Byte offset of the offending token in the submitted text.
        offset: usize,
        /// The offending token (truncated).
        token: String,
        /// What the parser expected.
        message: String,
    },
    /// The query outlived its deadline (the request's own or the service's
    /// [`default_deadline`](ServiceConfig::default_deadline)) and was
    /// cooperatively cancelled at the next checkpoint. No partial cache
    /// artifacts were published; an identical resubmission runs clean.
    DeadlineExceeded {
        /// The deadline that elapsed, when known (requests cancelled
        /// explicitly mid-flight carry `None`).
        deadline: Option<Duration>,
    },
    /// The query was cancelled explicitly (not by a deadline) before it
    /// completed.
    Cancelled,
    /// A panic during this query's execution — in a cluster worker closure
    /// or on the coordinator path — was caught and isolated to this query.
    /// The service, its caches, and every other in-flight query keep
    /// running; nothing partial was published.
    WorkerPanicked {
        /// The worker slot that panicked, or `None` for a coordinator-side
        /// panic (index lookups, gather, mutation apply).
        worker: Option<usize>,
        /// The panic payload, stringified.
        message: String,
    },
    /// Parsing, planning, or execution failed in the underlying library.
    Exec(adj_relational::Error),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::UnknownDatabase(name) => write!(f, "unknown database '{name}'"),
            ServiceError::RejectedCapacity { running, waiting } => {
                write!(f, "admission rejected: {running} running and {waiting} waiting queries")
            }
            ServiceError::RejectedMemory { estimated_bytes, budget_bytes } => write!(
                f,
                "admission rejected: query needs ~{estimated_bytes} B, \
                 per-query budget is {budget_bytes} B"
            ),
            ServiceError::QueueTimeout { timeout } => {
                write!(f, "admission queue wait exceeded {timeout:?}")
            }
            ServiceError::Parse { offset, token, message } => {
                write!(f, "parse error at byte {offset} near '{token}': {message}")
            }
            ServiceError::DeadlineExceeded { deadline } => match deadline {
                Some(d) => write!(f, "query deadline of {d:?} exceeded"),
                None => write!(f, "query deadline exceeded"),
            },
            ServiceError::Cancelled => write!(f, "query cancelled"),
            ServiceError::WorkerPanicked { worker, message } => match worker {
                Some(w) => write!(f, "worker {w} panicked (isolated to this query): {message}"),
                None => write!(f, "coordinator panicked (isolated to this query): {message}"),
            },
            ServiceError::Exec(e) => write!(f, "execution failed: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Exec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<adj_relational::Error> for ServiceError {
    fn from(e: adj_relational::Error) -> Self {
        match e {
            adj_relational::Error::Parse { offset, token, message } => {
                ServiceError::Parse { offset, token, message }
            }
            adj_relational::Error::Cancelled { deadline_exceeded: true } => {
                // The executor knows *that* the deadline elapsed, not its
                // length; the service fills the Duration in where it knows
                // the request's effective deadline.
                ServiceError::DeadlineExceeded { deadline: None }
            }
            adj_relational::Error::Cancelled { deadline_exceeded: false } => {
                ServiceError::Cancelled
            }
            adj_relational::Error::WorkerPanicked { worker, message } => {
                ServiceError::WorkerPanicked { worker, message }
            }
            other => ServiceError::Exec(other),
        }
    }
}

impl ServiceError {
    /// Whether the error is an admission-control rejection (as opposed to a
    /// lookup, parse, or execution failure).
    pub fn is_rejection(&self) -> bool {
        matches!(
            self,
            ServiceError::RejectedCapacity { .. }
                | ServiceError::RejectedMemory { .. }
                | ServiceError::QueueTimeout { .. }
        )
    }
}
