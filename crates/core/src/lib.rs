//! # adj-core — ADJ: Adaptive Distributed Join (the paper's contribution)
//!
//! ADJ processes a complex join query in one round while **co-optimizing**
//! three costs (Sec. III):
//!
//! * **pre-computing** (`costM`) — materializing candidate relations, i.e.
//!   joins of the relations inside one hypertree bag (`R45 = R4 ⋈ R5` in the
//!   running example);
//! * **communication** (`costC`) — the HCube shuffle of the (rewritten)
//!   query's relations, `Σ_R |R|·dup(R,p)` under the optimized share `p`;
//! * **computation** (`costE`) — the per-level Leapfrog extension work,
//!   `|T_{v_{i-1}}| / (β_i · N*)`, dominated by the last traversed nodes.
//!
//! The plan space is bounded by a minimum-fhw GHD (`adj-query`): candidate
//! relations are its bags, attribute orders follow its traversals. The
//! greedy reverse-order search of **Algorithm 2** picks, per traversal
//! position from last to first, the node and the pre-compute decision with
//! the lowest combined cost, using sampling-based cardinality estimates
//! (`adj-sampling`).
//!
//! Entry point: [`Adj`] (configure once, [`Adj::execute`] per query, or
//! [`Adj::execute_with`] to pick the strategy and a `Count`/`Limit(n)`/
//! `Exists` output that skips full materialization; [`Adj::plan`] +
//! [`Adj::execute_plan`] to run one plan many times), or the lower-level
//! [`optimizer::optimize`] + [`executor::execute_plan`] pair.

pub mod cost;
pub mod executor;
pub mod optimizer;
pub mod plan;
pub mod prepared;
pub mod scratch;

pub use cost::{CostEstimator, CostParams};
pub use executor::{execute_plan, ExecutionReport, Strategy, SINK_CHECK_EVERY};
pub use optimizer::{optimize, optimize_in};
pub use plan::{OptimizerStats, PlanRelation, QueryPlan};
pub use prepared::Prepared;
pub use scratch::ScratchPool;
// The execution context and the cross-query index cache (defined in
// `adj-hcube`, where the index round consults them) are part of this crate's
// public execution API too.
pub use adj_hcube::{ExecCtx, IndexCache, IndexCacheStats, IndexScope, PlannedTries};
// Cooperative cancellation and the deterministic fault-injection harness
// (defined in `adj-faults` so every layer can place checkpoints), part of
// this crate's public execution API for the serving layer's deadline hook.
pub use adj_faults::{CancelToken, Cancelled, FaultAction, FaultPlan, FaultSite, InstalledFaults};
// The streaming-output vocabulary (defined in `adj-relational` so every
// layer shares it) is part of this crate's public execution API, as is the
// bound-constant vocabulary of prepared queries.
pub use adj_relational::{
    BoundValues, CountSink, ExistsSink, OutputMode, QueryOutput, RowBuffer, RowSink,
};
// The span-timeline vocabulary (defined in `adj-trace`), re-exported so
// executors and the serving layer speak one tracing dialect.
pub use adj_trace::{Event, QueryTrace, SpanGuard, Trace, Tracer, COORDINATOR_LANE};

use adj_cluster::{Cluster, ClusterConfig};
use adj_query::{Bindings, JoinQuery};
use adj_relational::{Database, Relation, Result};
use adj_sampling::SamplingConfig;
use std::sync::Arc;

/// Top-level ADJ configuration.
#[derive(Debug, Clone)]
pub struct AdjConfig {
    /// Simulated cluster settings (workers, α, memory budget).
    pub cluster: ClusterConfig,
    /// Sampling budget used by the optimizer's cardinality estimator.
    pub sampling: SamplingConfig,
    /// Cost-model calibration constants.
    pub cost: CostParams,
    /// Cap on materialized intermediate results (pre-computed relations and
    /// join outputs); mirrors the paper's 12h/OOM failure criterion.
    pub max_intermediate_tuples: usize,
}

impl Default for AdjConfig {
    fn default() -> Self {
        AdjConfig {
            cluster: ClusterConfig::default(),
            sampling: SamplingConfig { samples: 256, seed: 0xAD10 },
            cost: CostParams::default(),
            max_intermediate_tuples: 50_000_000,
        }
    }
}

/// The ADJ system facade: holds a (shareable) cluster and executes queries
/// end to end. It lends every execution its buffers from its own
/// [`ScratchPool`], so a long-lived `Adj` (one per `Service`) runs warm
/// queries without allocating their join state.
pub struct Adj {
    config: AdjConfig,
    cluster: Arc<Cluster>,
    scratch: ScratchPool,
}

/// Everything an ADJ run produces: the output (shaped by the requested
/// [`OutputMode`]), the chosen plan, and the cost breakdown (the row format
/// of Tables II–IV).
#[derive(Debug)]
pub struct AdjOutcome {
    /// The query output: a gathered [`Relation`] in `Rows`/`Limit` modes, a
    /// bare cardinality in `Count` mode, an emptiness bit in `Exists` mode.
    /// (This replaces the pre-streaming `result: Relation` field.)
    pub output: QueryOutput,
    /// The requested output mode.
    pub mode: OutputMode,
    /// The executed plan.
    pub plan: QueryPlan,
    /// Cost breakdown.
    pub report: ExecutionReport,
}

impl AdjOutcome {
    /// The materialized result rows. Panics when the outcome was produced
    /// in `Count`/`Exists` mode — the mechanical migration for call sites
    /// of the old `outcome.result` field, all of which ran in what is now
    /// [`OutputMode::Rows`].
    pub fn rows(&self) -> &Relation {
        self.output.rows()
    }
}

impl Adj {
    /// Creates an ADJ instance with the given configuration (building a
    /// private cluster from `config.cluster`).
    pub fn new(config: AdjConfig) -> Self {
        let cluster = Cluster::shared(config.cluster.clone());
        Adj::with_cluster(config, cluster)
    }

    /// Creates an ADJ instance with default settings and `workers` workers.
    pub fn with_workers(workers: usize) -> Self {
        Adj::new(AdjConfig { cluster: ClusterConfig::with_workers(workers), ..Default::default() })
    }

    /// Creates an ADJ instance over an *existing* cluster handle, so a
    /// long-lived serving layer can run many queries (from many threads)
    /// against one simulated cluster instead of building one per call.
    /// `config.cluster` is overwritten with the cluster's own configuration
    /// to keep the two views consistent.
    pub fn with_cluster(mut config: AdjConfig, cluster: Arc<Cluster>) -> Self {
        config.cluster = cluster.config().clone();
        Adj { config, cluster, scratch: ScratchPool::new() }
    }

    /// The underlying simulated cluster.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// A shareable handle to the underlying cluster.
    pub fn cluster_handle(&self) -> Arc<Cluster> {
        Arc::clone(&self.cluster)
    }

    /// The configuration.
    pub fn config(&self) -> &AdjConfig {
        &self.config
    }

    /// The scratch this instance lends its executions.
    pub fn scratch(&self) -> &ScratchPool {
        &self.scratch
    }

    /// Runs `query` over `db` with the co-optimization strategy (the paper's
    /// ADJ proper): optimize → pre-compute → shuffle → join, materializing
    /// the full result ([`OutputMode::Rows`]).
    pub fn execute(&self, query: &JoinQuery, db: &Database) -> Result<AdjOutcome> {
        self.execute_with(query, db, Strategy::CoOptimize, OutputMode::Rows)
    }

    /// The general one-shot form: explicit strategy ([`Strategy::CommFirst`]
    /// is the HCubeJ-style communication-first plan used as the paper's
    /// baseline in Tables II–IV) *and* output mode (`Count`/`Exists` never
    /// gather result tuples — workers ship counters only — and `Limit(n)`
    /// short-circuits each worker's enumeration after `n` rows).
    pub fn execute_with(
        &self,
        query: &JoinQuery,
        db: &Database,
        strategy: Strategy,
        mode: OutputMode,
    ) -> Result<AdjOutcome> {
        let (plan, planned) = self.plan_in(query, db, strategy, &ExecCtx::default())?;
        let ctx = ExecCtx { planned, ..Default::default() };
        let (output, report) = self.execute_plan(&plan, db, mode, &BoundValues::none(), &ctx)?;
        Ok(AdjOutcome { output, mode, plan, report })
    }

    /// Plan construction alone: optimize `query` over `db`'s statistics and
    /// return the chosen plan without executing it. The plan records its
    /// own optimization seconds in
    /// [`QueryPlan::optimization_secs`]; pair with
    /// [`Adj::execute_plan`] to run it, possibly many times (this is
    /// how `adj-service`'s plan cache amortizes GHD search + sampling
    /// across repeated query shapes).
    pub fn plan(&self, query: &JoinQuery, db: &Database, strategy: Strategy) -> Result<QueryPlan> {
        self.plan_in(query, db, strategy, &ExecCtx::default()).map(|(plan, _)| plan)
    }

    /// [`Adj::plan`] on behalf of the request `ctx` ([`optimize_in`]): the
    /// sampler reads `ctx`'s index scope and polls its token. Returns the
    /// plan with the tries the planner built for it, which the request's
    /// execution takes over as [`ExecCtx::planned`].
    pub fn plan_in(
        &self,
        query: &JoinQuery,
        db: &Database,
        strategy: Strategy,
        ctx: &ExecCtx<'_>,
    ) -> Result<(QueryPlan, PlannedTries)> {
        let t0 = std::time::Instant::now();
        let (mut plan, planned) = optimize_in(query, db, &self.config, strategy, ctx)?;
        plan.optimization_secs = t0.elapsed().as_secs_f64();
        Ok((plan, planned))
    }

    /// Executes an already-constructed plan on this instance's cluster,
    /// borrowed — so a cached plan can be re-executed any number of times
    /// (and under any output mode: plans are mode-independent) without
    /// cloning it. `params` are the submission's bound values
    /// ([`BoundValues::none`] for a plain query), which Leapfrog seeks over
    /// the same indexes the unbound query uses; `ctx` carries the index
    /// cache scope, the cancellation token and the tracer
    /// ([`ExecCtx::default`] runs cold, uncancellable and untraced) — see
    /// [`executor::execute_plan`] for what each does. This is the serving
    /// hot path: `adj-service` pairs its plan cache with an [`IndexCache`]
    /// scope and a per-request deadline token here. It is the executor's
    /// one-binding call, unwrapped: `params`' own failure (an over-budget
    /// result, a cancellation) is the call's error.
    ///
    /// The returned report charges the plan's recorded optimization
    /// seconds, so a first execution reproduces [`Adj::execute`] exactly;
    /// callers re-executing a cached plan should zero
    /// `report.optimization_secs` (as `adj-service` does on cache hits)
    /// since the search cost was paid only once.
    pub fn execute_plan(
        &self,
        plan: &QueryPlan,
        db: &Database,
        mode: OutputMode,
        params: &BoundValues,
        ctx: &ExecCtx<'_>,
    ) -> Result<(QueryOutput, ExecutionReport)> {
        let one = std::slice::from_ref(params);
        let (mut outputs, mut report) = executor::execute_plan(self, db, plan, mode, one, ctx)?;
        let output = outputs.pop().expect("one output per binding")?;
        report.optimization_secs = plan.optimization_secs;
        Ok((output, report))
    }

    /// Prepares a parameterized query: optimizes it once and returns the
    /// [`Prepared`] statement whose plan every later binding reuses. The
    /// plan is a pure function of the query's *shape* — parameter positions
    /// and literal positions, never their values — so preparing
    /// `R1($v,b), R2(b,c), R3($v,c)` once serves every vertex `$v` is ever
    /// bound to.
    pub fn prepare(
        &self,
        query: &JoinQuery,
        db: &Database,
        strategy: Strategy,
    ) -> Result<Prepared> {
        Ok(Prepared::new(self.plan(query, db, strategy)?))
    }

    /// Executes one binding of a prepared query: resolves `bindings`
    /// against the statement's parameter table ([`Prepared::bind`]) and
    /// runs the shared plan, Leapfrog seeking the bound constants. Returns
    /// a full [`AdjOutcome`] per binding.
    pub fn execute_bound(
        &self,
        prepared: &Prepared,
        db: &Database,
        bindings: &Bindings,
        mode: OutputMode,
    ) -> Result<AdjOutcome> {
        let values = prepared.bind(bindings)?;
        let (output, report) =
            self.execute_plan(&prepared.plan, db, mode, &values, &ExecCtx::default())?;
        Ok(AdjOutcome { output, mode, plan: prepared.plan.clone(), report })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adj_query::{paper_query, PaperQuery};
    use adj_relational::{Attr, Value};

    fn graph(n: u32, m: u32) -> Relation {
        let edges: Vec<(Value, Value)> = (0..n)
            .flat_map(|i| vec![(i % m, (i * 7 + 1) % m), ((i * 3) % m, (i * 11 + 5) % m)])
            .collect();
        Relation::from_pairs(Attr(0), Attr(1), &edges)
    }

    #[test]
    fn end_to_end_triangle_matches_binary_join() {
        let q = paper_query(PaperQuery::Q1);
        let g = graph(150, 41);
        let db = q.instantiate(&g);
        let adj = Adj::with_workers(4);
        let out = adj.execute(&q, &db).unwrap();
        // ground truth by pairwise joins
        let truth = db
            .get("R1")
            .unwrap()
            .join(db.get("R2").unwrap())
            .unwrap()
            .join(db.get("R3").unwrap())
            .unwrap();
        assert_eq!(out.rows().len(), truth.len());
        assert_eq!(out.mode, OutputMode::Rows);
        let back = out.rows().permute(truth.schema().attrs()).unwrap();
        assert_eq!(back, truth);
    }

    #[test]
    fn end_to_end_q4_strategies_agree() {
        let q = paper_query(PaperQuery::Q4);
        let g = graph(120, 31);
        let db = q.instantiate(&g);
        let adj = Adj::with_workers(4);
        let co = adj.execute_with(&q, &db, Strategy::CoOptimize, OutputMode::Rows).unwrap();
        let cf = adj.execute_with(&q, &db, Strategy::CommFirst, OutputMode::Rows).unwrap();
        assert_eq!(co.rows().len(), cf.rows().len(), "strategies must agree on the result");
        let a = co.rows().permute(cf.rows().schema().attrs()).unwrap();
        assert_eq!(a, cf.rows().clone());
    }

    #[test]
    fn execute_mode_count_skips_gathering_rows() {
        let q = paper_query(PaperQuery::Q1);
        let g = graph(150, 41);
        let db = q.instantiate(&g);
        let adj = Adj::with_workers(4);
        let full = adj.execute(&q, &db).unwrap();
        let counted = adj.execute_with(&q, &db, Strategy::CoOptimize, OutputMode::Count).unwrap();
        assert_eq!(counted.output, QueryOutput::Count(full.rows().len() as u64));
        assert_eq!(counted.output.tuples_returned(), 0, "count mode ships no tuples");
        let exists = adj.execute_with(&q, &db, Strategy::CoOptimize, OutputMode::Exists).unwrap();
        assert_eq!(exists.output, QueryOutput::Exists(!full.rows().is_empty()));
    }

    #[test]
    fn report_phases_are_populated() {
        let q = paper_query(PaperQuery::Q5);
        let g = graph(100, 29);
        let db = q.instantiate(&g);
        let adj = Adj::with_workers(2);
        let out = adj.execute(&q, &db).unwrap();
        let r = &out.report;
        assert!(r.optimization_secs > 0.0);
        assert!(r.communication_secs > 0.0);
        assert!(r.total_secs() >= r.communication_secs);
        assert!(r.comm_tuples > 0);
        // The residual accounts for everything the phase columns missed:
        // it is never negative, and the five components sum exactly to the
        // reported total.
        assert!(r.other_secs >= 0.0);
        let phase_sum = r.optimization_secs
            + r.precompute_secs
            + r.communication_secs
            + r.computation_secs
            + r.other_secs;
        assert_eq!(r.total_secs(), phase_sum);
    }
}
