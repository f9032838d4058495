//! Plan execution: pre-compute → shuffle → join, with the per-phase cost
//! breakdown of Tables II–IV.
//!
//! [`execute_plan`] is the one plan executor. What differs between its
//! callers travels in two values. The submission's bound constants
//! (`params`) reach exactly one layer, Leapfrog. The [`ExecCtx`] carries
//! the rest through *both* shuffle paths (the bag pre-computation rounds and
//! the final one-round shuffle): under an [`IndexScope`](adj_hcube::IndexScope)
//! warm relations reuse published `Arc<Trie>` handles instead of
//! re-shuffling and rebuilding, warm bags skip their entire pre-computation
//! round, and the report splits index work into built vs reused relations;
//! the token and the tracer make the run cancellable and put it on a span
//! timeline. `ExecCtx::default()` is the paper's one-shot run: cold,
//! uncancellable, untraced.
//!
//! The batched executor (`adj-batch`) differs only in its join kernel; the
//! front half ([`prepare_plan_locals`]) and the bookkeeping around the join
//! ([`merge_plan_consts`], [`shape_output`], [`ExecutionReport::close`],
//! [`CancelSink`], [`cancel_err`]) are this module's, used by both.

use crate::plan::{PlanRelation, QueryPlan};
use crate::AdjConfig;
use adj_cluster::Cluster;
use adj_faults::{CancelToken, FaultSite};
use adj_hcube::{
    hcube_shuffle_round, optimize_share, CacheLookup, ExecCtx, HCubeImpl, HCubePlan, LocalRelation,
    ShareInput, ShuffleReport, ShuffleRound,
};
use adj_leapfrog::{JoinCounters, JoinScratch, LeapfrogJoin};
use adj_relational::relation::merge_sorted_runs;
use adj_relational::{
    Attr, BoundValues, CountSink, Database, Error, ExistsSink, OutputMode, QueryOutput, Relation,
    Result, RowBuffer, RowSink, Schema, Trie, Value,
};
use adj_trace::COORDINATOR_LANE;
use std::borrow::Cow;
use std::sync::Arc;
use std::time::Instant;

/// Per-trie-level span-arg key (`tuples_l0`, `seeks_l3`, `probes_l2`, …).
/// The first eight levels — every practical join order — hit a static table
/// so the gather span's per-level annotations record without allocating.
fn level_key(kind: &str, i: usize) -> Cow<'static, str> {
    const TUPLES: [&str; 8] = [
        "tuples_l0",
        "tuples_l1",
        "tuples_l2",
        "tuples_l3",
        "tuples_l4",
        "tuples_l5",
        "tuples_l6",
        "tuples_l7",
    ];
    const SEEKS: [&str; 8] = [
        "seeks_l0", "seeks_l1", "seeks_l2", "seeks_l3", "seeks_l4", "seeks_l5", "seeks_l6",
        "seeks_l7",
    ];
    const PROBES: [&str; 8] = [
        "probes_l0",
        "probes_l1",
        "probes_l2",
        "probes_l3",
        "probes_l4",
        "probes_l5",
        "probes_l6",
        "probes_l7",
    ];
    match (kind, i) {
        ("tuples", i) if i < TUPLES.len() => Cow::Borrowed(TUPLES[i]),
        ("seeks", i) if i < SEEKS.len() => Cow::Borrowed(SEEKS[i]),
        ("probes", i) if i < PROBES.len() => Cow::Borrowed(PROBES[i]),
        _ => Cow::Owned(format!("{kind}_l{i}")),
    }
}

/// How often worker join sinks poll the cancellation token: one relaxed
/// atomic load (plus the fault-injection gate) per this many emitted rows.
pub const SINK_CHECK_EVERY: u64 = 1024;

/// Maps a fired token onto the workspace error type.
pub fn cancel_err(c: adj_faults::Cancelled) -> Error {
    Error::Cancelled { deadline_exceeded: c.deadline }
}

/// A [`RowSink`] adapter that polls a [`CancelToken`] (and the
/// `JoinEnumerate` fault-injection site) every [`SINK_CHECK_EVERY`] rows,
/// saturating when the token fires so Leapfrog stops enumerating instead of
/// completing a doomed result. Whoever drives the join re-checks the token
/// afterwards (the single-binding worker directly, the batch driver through
/// its completion watermark), so a stop here always surfaces as
/// [`Error::Cancelled`] — never as a silently truncated result.
///
/// Rows counted in bulk ([`RowSink::push_count`], forwarded with
/// [`RowSink::counts_only`]) are polled like as many single rows: one poll
/// per [`SINK_CHECK_EVERY`] of them, so a `Count` run polls as often as an
/// enumerating one.
pub struct CancelSink<'a, S> {
    inner: S,
    cancel: &'a CancelToken,
    rows_since_check: u64,
    stopped: bool,
}

impl<'a, S: RowSink> CancelSink<'a, S> {
    /// Wraps `inner`, polling `cancel`.
    pub fn new(inner: S, cancel: &'a CancelToken) -> Self {
        CancelSink { inner, cancel, rows_since_check: 0, stopped: false }
    }

    /// The wrapped sink, with whatever it collected.
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// Accounts `n` more rows, polling once per [`SINK_CHECK_EVERY`] of
    /// them; `false` once the token fired.
    fn poll(&mut self, n: u64) -> bool {
        self.rows_since_check += n;
        while self.rows_since_check >= SINK_CHECK_EVERY {
            self.rows_since_check -= SINK_CHECK_EVERY;
            adj_faults::inject(FaultSite::JoinEnumerate, self.cancel);
            if self.cancel.check().is_err() {
                self.stopped = true;
                return false;
            }
        }
        true
    }
}

impl<S: RowSink> RowSink for CancelSink<'_, S> {
    fn push(&mut self, row: &[Value]) -> bool {
        self.poll(1) && self.inner.push(row)
    }

    fn saturated(&self) -> bool {
        self.stopped || self.inner.saturated()
    }

    fn counts_only(&self) -> bool {
        self.inner.counts_only()
    }

    fn push_count(&mut self, n: u64) -> bool {
        self.poll(n) && self.inner.push_count(n)
    }
}

/// Plan-search strategy (the two columns of Tables II–IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// ADJ's co-optimization of pre-computing + communication + computation.
    CoOptimize,
    /// HCubeJ's communication-first planning (never pre-computes; order
    /// chosen over all permutations).
    CommFirst,
}

/// Cost breakdown of one executed query, mirroring the columns of
/// Tables II–IV: Optimization, Pre-Computing, Communication, Computation.
#[derive(Debug, Clone, Default)]
pub struct ExecutionReport {
    /// Plan-search + sampling seconds (filled by [`crate::Adj`]).
    pub optimization_secs: f64,
    /// Pre-computing seconds (bag shuffles + bag joins).
    pub precompute_secs: f64,
    /// Final HCube seconds (modeled shuffle + measured local build).
    pub communication_secs: f64,
    /// Leapfrog seconds (measured makespan over workers).
    pub computation_secs: f64,
    /// Residual wall-clock seconds of the execution not attributed to the
    /// three in-execution phases above: binding resolution, share
    /// optimization, gather, and output shaping. Clamped at 0 — the
    /// communication phase mixes *modeled* α-seconds into a measured wall,
    /// so the identity can overshoot when the model dominates. With this
    /// residual, [`ExecutionReport::total_secs`] accounts for the whole
    /// measured execution instead of silently hiding the gap.
    pub other_secs: f64,
    /// Tuple copies moved by the final shuffle.
    pub comm_tuples: u64,
    /// Tuple copies moved while pre-computing.
    pub precompute_tuples: u64,
    /// Result cardinality.
    pub output_tuples: u64,
    /// The share vector `p` used by the final shuffle.
    pub share: Vec<u32>,
    /// Share programs this execution solved itself, over its bag rounds and
    /// the final round; a round whose share came from the plan's memo of
    /// earlier executions counts 0.
    pub share_solves: u64,
    /// Aggregated Leapfrog counters across workers.
    pub counters: JoinCounters,
    /// Measured seconds spent building local trie indexes (across the
    /// pre-compute rounds and the final shuffle). Already included in
    /// `precompute_secs`/`communication_secs`; broken out so the serving
    /// layer can watch the index-build vs index-reuse split.
    pub index_build_secs: f64,
    /// Relations whose indexes this execution built.
    pub index_relations_built: u64,
    /// Relations served from the cross-query index cache (no shuffle, no
    /// build).
    pub index_relations_reused: u64,
    /// Pre-computed bag relations served from the cache (their whole
    /// shuffle + join round was skipped).
    pub index_bags_reused: u64,
    /// Delivered tuple copies per worker, summed over every shuffle round
    /// of this execution (bag pre-computation + final). Cache-warm
    /// relations move nothing and contribute nothing — the fill describes
    /// what this execution actually shuffled.
    pub worker_tuples: Vec<u64>,
    /// Attributes this execution pinned to constants (inline literals plus
    /// bound parameters); 0 on unbound executions.
    pub bound_values: u64,
    /// Encoded frame bytes that crossed the wire across every shuffle round
    /// of this execution — real serialized bytes on the
    /// `TransportKind::Serialized` backend, 0 on the zero-copy in-process
    /// backend and on fully warm executions.
    pub wire_bytes: u64,
    /// Modeled seconds saved by pipelining shuffle delivery with trie
    /// building, summed over this execution's shuffle rounds. Already
    /// subtracted from `precompute_secs`/`communication_secs`; broken out so
    /// the serving layer can watch the overlap win.
    pub pipeline_overlap_secs: f64,
}

impl ExecutionReport {
    /// Total cost in seconds (the `Total` column): the four phase columns
    /// plus the `other_secs` residual, so the sum covers the execution
    /// end-to-end.
    pub fn total_secs(&self) -> f64 {
        self.optimization_secs
            + self.precompute_secs
            + self.communication_secs
            + self.computation_secs
            + self.other_secs
    }

    /// Tuple copies received by the fullest worker across this execution's
    /// shuffles — the partition-fill ceiling.
    pub fn max_partition_tuples(&self) -> u64 {
        self.worker_tuples.iter().copied().max().unwrap_or(0)
    }

    /// Mean tuple copies per worker (0 when nothing moved).
    pub fn mean_partition_tuples(&self) -> f64 {
        if self.worker_tuples.is_empty() {
            0.0
        } else {
            self.worker_tuples.iter().sum::<u64>() as f64 / self.worker_tuples.len() as f64
        }
    }

    /// `max / mean` partition fill — 1.0 is perfectly balanced; plain
    /// hashing of a heavy hitter sends this to `O(N*)`. 0 when nothing
    /// moved (fully warm execution).
    pub fn partition_balance(&self) -> f64 {
        let mean = self.mean_partition_tuples();
        if mean == 0.0 {
            0.0
        } else {
            self.max_partition_tuples() as f64 / mean
        }
    }

    /// Sets [`other_secs`](Self::other_secs) to whatever the three
    /// in-execution phase columns did not claim of the wall measured since
    /// `t_exec` — see the field for why it clamps at 0.
    pub fn close(&mut self, t_exec: Instant) {
        self.other_secs = (t_exec.elapsed().as_secs_f64()
            - self.precompute_secs
            - self.communication_secs
            - self.computation_secs)
            .max(0.0);
    }

    /// Folds one shuffle round's share solve, index build/reuse split and
    /// fill into the report.
    fn absorb_shuffle(&mut self, shuffle: &ShuffleReport, share_reused: bool) {
        self.share_solves += u64::from(!share_reused);
        self.index_build_secs += shuffle.build_secs;
        self.index_relations_built += shuffle.built_relations;
        self.index_relations_reused += shuffle.reused_relations;
        if self.worker_tuples.len() < shuffle.worker_tuples.len() {
            self.worker_tuples.resize(shuffle.worker_tuples.len(), 0);
        }
        for (acc, &w) in self.worker_tuples.iter_mut().zip(&shuffle.worker_tuples) {
            *acc += w;
        }
        self.wire_bytes += shuffle.wire_bytes;
        self.pipeline_overlap_secs += shuffle.overlap_secs;
    }
}

/// The constant set one execution of a plan answers for. `params` (the
/// submission's resolved values — caller-bound parameters plus the
/// submitted text's inline literals) takes priority; `consts`, the plan's
/// own literals (`plan.query.const_bindings()`), fill any attribute the
/// caller left out, so executing a literal-bearing plan directly still
/// honours its constants. The two can disagree because plans are shared
/// across the whole *shape family* — `R1(7,b)…`, `R1(9,b)…`, and
/// `R1($v,b)…` all resolve to one cached plan, and the submission's values,
/// not the plan-owner's, are what the execution must answer for.
pub fn merge_plan_consts(consts: &BoundValues, params: &BoundValues) -> Result<BoundValues> {
    let mut pairs = params.pairs().to_vec();
    for &(a, v) in consts.pairs() {
        if params.get(a).is_none() {
            pairs.push((a, v));
        }
    }
    BoundValues::new(pairs)
}

/// Shapes what one binding's join gathered — the workers' rows over the
/// plan's attribute `order`, merged into one sorted run by
/// [`merge_sorted_runs`] (empty in the counting modes), and the `found`
/// result cardinality — into the output `mode` asks for. Merged rows are
/// already in normal form, so building the relation re-sorts nothing.
/// `LIMIT 0`'s complete answer is this over nothing gathered.
pub fn shape_output(
    mode: OutputMode,
    order: &[Attr],
    rows: Vec<Value>,
    found: u64,
) -> Result<QueryOutput> {
    let limit = match mode {
        OutputMode::Count => return Ok(QueryOutput::Count(found)),
        OutputMode::Exists => return Ok(QueryOutput::Exists(found > 0)),
        OutputMode::Rows => usize::MAX,
        OutputMode::Limit(n) => n,
    };
    let gathered = Relation::from_flat(Schema::new(order.to_vec())?, rows)?;
    if gathered.len() <= limit {
        return Ok(QueryOutput::Rows(gathered));
    }
    // Each worker contributed its n lexicographically-smallest local rows
    // (Leapfrog enumerates in sorted order), so the union contains the n
    // globally-smallest result rows. Keeping the first n of the normalized
    // union therefore returns a *canonical* sample — deterministic across
    // worker counts and partitionings, not an artifact of gather order.
    let flat = gathered.flat()[..limit * order.len()].to_vec();
    Ok(QueryOutput::Rows(Relation::from_flat(gathered.schema().clone(), flat)?))
}

/// Executes a query plan on the cluster, shaping the result by `mode`, and
/// returns the output plus the cost breakdown (with `optimization_secs`
/// left at 0 for the caller).
///
/// The mode governs what each worker ships back through the gather path:
///
/// * [`OutputMode::Rows`] — every worker buffers its result rows (under the
///   `max_intermediate_tuples` budget) and the coordinator merges the
///   workers' sorted runs into one [`Relation`] — the original
///   materialize-everything contract;
/// * [`OutputMode::Count`] — workers stream into a [`CountSink`] and ship
///   back **only their [`JoinCounters`]**; no result tuple is ever
///   materialized or gathered (Leapfrog counts the last level by
///   intersection size), and the output is the summed `output_tuples`
///   counter;
/// * [`OutputMode::Limit`]`(n)` — each worker's Leapfrog enumeration
///   short-circuits after `n` local rows; the coordinator merges and
///   truncates to `n` (HCube assigns every output tuple to exactly one
///   worker, so the merge drops nothing);
/// * [`OutputMode::Exists`] — workers short-circuit at their first witness
///   and ship back counters only.
///
/// **`params`** are the submission's bound values ([`BoundValues::none`]
/// for a plain query). Merged over the plan's inline literals
/// ([`merge_plan_consts`]) they reach exactly one layer: **Leapfrog** seeks
/// the constant at bound trie levels instead of intersecting candidate
/// runs. Everything before the join runs as for the unbound query: the
/// share program, the bag rounds and the HCube shuffle never see the
/// binding, so every binding of a shape, a whole batch of them
/// (`adj-batch`) and the plain unbound query join over one cached,
/// patchable index family. A single bound execution is the batch driver's
/// degenerate case. The price is the first call on a cold cache, which
/// builds the full indexes rather than a filtered fragment — once, for
/// every later call. Results are byte-identical to running the unbound
/// query and keeping the rows whose bound attributes equal the bound
/// values; a `$name` parameter left without a value is
/// [`Error::UnboundParam`].
///
/// **`ctx.index`**: warm relations join over the cache's `Arc<Trie>`
/// handles (skipping their shuffle + sort + build), warm bags skip their
/// whole pre-computation round, and cold artifacts are built once and
/// published. `None` runs fully cold.
///
/// **`ctx.cancel`** is polled at every fault-injection checkpoint of the
/// execution — per cold atom and every few thousand routed rows in the
/// shuffle, per worker and every `SINK_CHECK_EVERY` (1024) emitted rows
/// during join enumeration — so a fired token (explicit cancel or elapsed
/// deadline) aborts within a bounded amount of work and surfaces as
/// [`Error::Cancelled`]. A cancelled execution never publishes partial
/// artifacts: the shuffle checks the token before inserting into the index
/// cache, and bag publication happens only after its round completed.
/// Worker panics are likewise isolated per slot
/// ([`adj_cluster::WorkerFailure`]) and surface as
/// [`Error::WorkerPanicked`].
///
/// **`ctx.tracer`** records a `precompute` span per bag round
/// (`bag_cache_hit` instants for rounds the bag cache skipped), a
/// `share_solve` span before each shuffle whose share program this
/// execution solved (a reused share is a `share_reused` arg on the
/// `shuffle` span instead), the shuffle's own spans (see
/// [`hcube_shuffle_round`]), a `computation` span over the worker dispatch
/// with one `join` span per worker lane (annotated with that worker's
/// output tuples, trie-operation counts, dance gallops, table probes and
/// value-table builds), and a `gather` span over the merge and the shaping
/// of the output.
pub fn execute_plan(
    cluster: &Cluster,
    db: &Database,
    plan: &QueryPlan,
    config: &AdjConfig,
    mode: OutputMode,
    params: &BoundValues,
    ctx: &ExecCtx<'_>,
) -> Result<(QueryOutput, ExecutionReport)> {
    let t_exec = Instant::now();
    let (cancel, tracer) = (&ctx.cancel, &ctx.tracer);
    let bound = merge_plan_consts(&plan.query.const_bindings()?, params)?;
    plan.query.require_params_bound(&bound)?;
    let mut report = ExecutionReport { bound_values: bound.len() as u64, ..Default::default() };

    // `LIMIT 0` is a complete answer by definition: the empty relation over
    // the plan's schema. Short-circuit before any admission-charged work —
    // no share optimization, no shuffle, no worker dispatch.
    if mode == OutputMode::Limit(0) {
        let output = shape_output(mode, &plan.order, Vec::new(), 0)?;
        report.close(t_exec);
        return Ok((output, report));
    }

    let locals = prepare_plan_locals(cluster, db, plan, config, &mut report, ctx)?;

    let budget = config.max_intermediate_tuples;
    let order = &plan.order;
    let width = order.len();
    // Per-worker payload: row data for the modes that return rows, `None`
    // for `Count`/`Exists` — those gather counters only.
    let bound_ref = &bound;
    let computation_span = tracer.span(COORDINATOR_LANE, "computation");
    let run = cluster.run_traced(
        tracer,
        "join",
        |w, span| -> Result<(Option<Vec<Value>>, JoinCounters)> {
            // At least one fault/cancellation checkpoint per worker, then
            // one per SINK_CHECK_EVERY emitted rows inside the sinks.
            adj_faults::inject(FaultSite::JoinEnumerate, cancel);
            cancel.check().map_err(cancel_err)?;
            let tries: Vec<Arc<Trie>> = locals[w].iter().map(|l| Arc::clone(&l.trie)).collect();
            let join = LeapfrogJoin::new(order, tries)?.with_bound(bound_ref);
            let mut scratch = JoinScratch::new();
            let result = match mode {
                OutputMode::Rows | OutputMode::Limit(_) => {
                    let mut inner = RowBuffer::new(width).with_budget(budget);
                    if let OutputMode::Limit(n) = mode {
                        inner = inner.with_limit(n);
                    }
                    let mut sink = CancelSink::new(inner, cancel);
                    let counters = join.join_into_with_scratch(&mut sink, &mut scratch);
                    let inner = sink.into_inner();
                    // Distinguish a cancelled enumeration from a genuinely
                    // over-budget one before interpreting the buffer.
                    cancel.check().map_err(cancel_err)?;
                    if inner.over_budget() {
                        return Err(Error::BudgetExceeded {
                            what: "join output tuples",
                            limit: budget,
                        });
                    }
                    (Some(inner.into_flat()), counters)
                }
                OutputMode::Count => {
                    let mut sink = CancelSink::new(CountSink::new(), cancel);
                    let counters = join.join_into_with_scratch(&mut sink, &mut scratch);
                    cancel.check().map_err(cancel_err)?;
                    (None, counters)
                }
                OutputMode::Exists => {
                    let mut sink = CancelSink::new(ExistsSink::new(), cancel);
                    let counters = join.join_into_with_scratch(&mut sink, &mut scratch);
                    cancel.check().map_err(cancel_err)?;
                    (None, counters)
                }
            };
            if span.is_recording() {
                let c = &result.1;
                span.arg("output_tuples", c.output_tuples);
                span.arg("intersect_ops", c.intersect_ops);
                span.arg("seeks", c.stats.total_seeks());
                span.arg("opens", c.stats.total_opens());
                span.arg("open_ats", c.stats.total_open_ats());
                span.arg("probes", c.stats.total_probes());
                span.arg("table_builds", c.stats.table_builds);
                span.arg("table_bytes", c.stats.table_bytes);
            }
            Ok(result)
        },
    );
    report.computation_secs = run.makespan_secs;
    drop(computation_span);

    let mut gather_span = tracer.span(COORDINATOR_LANE, "gather");
    let mut worker_rows: Vec<Vec<Value>> = Vec::new();
    let mut counters = JoinCounters::new(plan.order.len());
    for r in run.results {
        // Outer layer: panic isolation (a poisoned worker fails only this
        // query); inner layer: the worker's own typed result.
        let (rows, c) = r.map_err(Error::from)??;
        counters.merge(&c);
        worker_rows.extend(rows);
    }
    let rows = merge_sorted_runs(worker_rows, width);
    let output = shape_output(mode, order, rows, counters.output_tuples)?;
    if gather_span.is_recording() {
        for (i, &t) in counters.tuples_per_level.iter().enumerate() {
            gather_span.arg(level_key("tuples", i), t);
        }
        for (i, &s) in counters.stats.seeks_per_level.iter().enumerate() {
            gather_span.arg(level_key("seeks", i), s);
        }
        for (i, &p) in counters.stats.probes_per_level.iter().enumerate() {
            gather_span.arg(level_key("probes", i), p);
        }
        gather_span.arg("output_tuples", counters.output_tuples);
    }
    drop(gather_span);
    report.output_tuples = counters.output_tuples;
    report.counters = counters;
    report.close(t_exec);
    Ok((output, report))
}

/// The stable cache identity of a pre-computed bag: member atom names plus
/// the bag's attribute order fully determine its contents against a given
/// database epoch, so distinct plans that pre-compute the same bag share
/// one cached artifact — and the ambiguous per-query storage name
/// (`ADJ_bag{v}`) never leaks into a cache key. Names are length-prefixed
/// so no choice of relation names (commas included) can collide two
/// distinct member lists onto one label. Under an index scope, the
/// members' delta-sequence digest is folded in, so a bag goes stale
/// exactly when one of *its* relations mutates — mutations elsewhere in the
/// database leave it warm (the per-relation replacement for the global
/// epoch bump).
fn bag_label(names: &[String], order: &[Attr], ctx: &ExecCtx<'_>) -> String {
    let mut label = String::from("adj-bag:");
    for n in names {
        label.push_str(&format!("{}:{n},", n.len()));
    }
    label.push_str(&format!("@{order:?}"));
    if let Some(scope) = ctx.index {
        let digest = scope.version_digest(names.iter().map(|s| s.as_str()));
        label.push_str(&format!("#v{digest:016x}"));
    }
    label
}

/// Phases 1–2 of plan execution: pre-computes (or reuses) the plan's bag
/// relations and runs the final HCube shuffle, returning every worker's
/// local tries ready for Leapfrog. The pre-compute and communication
/// columns (plus cache/fill counters) accumulate into `report`.
///
/// Nothing here depends on a binding: the locals are the same warm,
/// cacheable tries whichever constants the join over them will seek. This
/// is the shared front half of [`execute_plan`] (one bound join over the
/// locals) and of batched execution (`adj-batch`: many bound joins over the
/// same locals).
pub fn prepare_plan_locals(
    cluster: &Cluster,
    db: &Database,
    plan: &QueryPlan,
    config: &AdjConfig,
    report: &mut ExecutionReport,
    ctx: &ExecCtx<'_>,
) -> Result<Vec<Vec<LocalRelation>>> {
    // ── Phase 1: pre-compute candidate relations (Sec. III: "for each
    // relation R'_j ∈ Qi that needs to be joined, we pre-compute and store
    // it"). Per-query pre-computed bags are layered over the shared
    // database as an overlay of `Arc<Relation>` handles — the database
    // itself is never cloned per query. Each bag's content label is kept as
    // its cache identity in the final shuffle (phase 1 and phase 2 must
    // agree on it).
    let mut bag_overlay: Vec<(String, Arc<Relation>)> = Vec::new();
    let mut bag_labels: Vec<(String, String)> = Vec::new(); // storage name → label
    for rel in &plan.relations {
        let PlanRelation::Precomputed { name, atoms, .. } = rel else {
            continue;
        };
        let (label, bag) = precompute_bag(cluster, db, plan, atoms, config, report, ctx)?;
        bag_labels.push((name.clone(), label));
        bag_overlay.push((name.clone(), bag));
    }

    // ── Phase 2 + 3: final one-round join over the rewritten query.
    let names = plan.shuffle_names();
    let (hplan, share_reused) =
        share_for(plan, db, &bag_overlay, &names, plan.query.num_attrs(), cluster, ctx)?;
    report.share = hplan.share().to_vec();
    // Cache identities: base atoms by relation name; pre-computed bags by
    // the content label recorded in phase 1 (never by the per-query
    // `ADJ_bag{v}` storage name).
    let cache_ids: Vec<Option<String>> = plan
        .relations
        .iter()
        .map(|rel| match rel {
            PlanRelation::Base(i) => Some(plan.query.atoms[*i].name.clone()),
            PlanRelation::Precomputed { name, .. } => {
                bag_labels.iter().find(|(stored, _)| stored == name).map(|(_, label)| label.clone())
            }
        })
        .collect();
    let round = ShuffleRound {
        atom_names: &names,
        plan: &hplan,
        order: &plan.order,
        impl_: HCubeImpl::Merge,
        cache_ids: &cache_ids,
        overlay: &bag_overlay,
        share_reused,
    };
    let shuffled = hcube_shuffle_round(cluster, db, &round, ctx)?;
    report.comm_tuples = shuffled.report.tuples;
    report.communication_secs = shuffled.report.pipelined_secs();
    report.absorb_shuffle(&shuffled.report, share_reused);
    Ok(shuffled.locals)
}

/// One bag of phase 1, as `(content label, relation)`: served from the bag
/// cache when `ctx`'s scope holds it, otherwise computed by a one-round
/// HCube+Leapfrog job of its own over the member atoms and published. The
/// round's shuffle consults the index cache too (bag members are base
/// relations, so their indexes are shared with every other query touching
/// them). Pre-compute seconds and tuples, the index build/reuse split and
/// the share solve accumulate into `report`.
fn precompute_bag(
    cluster: &Cluster,
    db: &Database,
    plan: &QueryPlan,
    atoms: &[usize],
    config: &AdjConfig,
    report: &mut ExecutionReport,
    ctx: &ExecCtx<'_>,
) -> Result<(String, Arc<Relation>)> {
    let (cancel, tracer) = (&ctx.cancel, &ctx.tracer);
    let budget = config.max_intermediate_tuples;
    let too_large = Error::BudgetExceeded { what: "pre-computed relation size", limit: budget };
    let order: Vec<Attr> = plan
        .order
        .iter()
        .copied()
        .filter(|a| atoms.iter().any(|&i| plan.query.atoms[i].schema.contains(*a)))
        .collect();
    let names: Vec<String> = atoms.iter().map(|&i| plan.query.atoms[i].name.clone()).collect();
    let label = bag_label(&names, &order, ctx);
    // A cold miss claims the bag key, so concurrent queries that need
    // the same bag wait for this build instead of running the round N
    // times (request coalescing). At most one bag claim is ever held —
    // it is published (or abandoned by drop, on any error path) before
    // the next bag is consulted — and bag holders only ever wait on
    // *index* claims inside the round's shuffle, never the reverse, so the
    // claim hierarchy stays cycle-free.
    let mut bag_claim = None;
    if let Some(scope) = ctx.index {
        match scope.cache.get_bag_or_claim(&scope.bag_key(label.clone()), cancel) {
            CacheLookup::Hit { value: bag, coalesced } => {
                // Budget parity with the cold path: a cached bag over
                // the caller's cap is rejected exactly like a fresh one.
                if bag.len() > budget {
                    return Err(too_large);
                }
                let hit = if coalesced { "bag_cache_coalesced" } else { "bag_cache_hit" };
                tracer.instant(COORDINATOR_LANE, hit, &label);
                report.index_bags_reused += 1;
                return Ok((label, bag));
            }
            CacheLookup::Miss(claim) => bag_claim = claim,
        }
    }
    // Bag members are base atoms, so the round runs over `db` directly.
    let mut bag_span = tracer.span(COORDINATOR_LANE, "precompute");
    if bag_span.is_recording() {
        bag_span.detail(label.clone());
    }
    let num_attrs = order.iter().map(|a| a.index() + 1).max().unwrap_or(1);
    let (hplan, share_reused) = share_for(plan, db, &[], &names, num_attrs, cluster, ctx)?;
    let cache_ids: Vec<Option<String>> = names.iter().map(|n| Some(n.clone())).collect();
    let round = ShuffleRound {
        atom_names: &names,
        plan: &hplan,
        order: &order,
        impl_: HCubeImpl::Merge,
        cache_ids: &cache_ids,
        overlay: &[],
        share_reused,
    };
    let shuffled = hcube_shuffle_round(cluster, db, &round, ctx)?;
    report.absorb_shuffle(&shuffled.report, share_reused);
    let locals = &shuffled.locals;
    let run = cluster.run_traced(tracer, "bag_join", |w, span| {
        adj_faults::inject(FaultSite::JoinEnumerate, cancel);
        cancel.check().map_err(cancel_err)?;
        let tries: Vec<Arc<Trie>> = locals[w].iter().map(|l| Arc::clone(&l.trie)).collect();
        let join = LeapfrogJoin::new(&order, tries)?;
        let mut rows: Vec<Value> = Vec::new();
        let mut over = false;
        let counters = join.run(|t| {
            if rows.len() < budget.saturating_mul(order.len()) {
                rows.extend_from_slice(t);
            } else {
                over = true;
            }
        });
        if over {
            return Err(Error::BudgetExceeded { what: "bag join output", limit: budget });
        }
        span.arg("output_tuples", counters.output_tuples);
        Ok(rows)
    });
    let worker_rows: Vec<Vec<Value>> =
        run.results.into_iter().map(|r| r.map_err(Error::from)?).collect::<Result<_>>()?;
    let rows = merge_sorted_runs(worker_rows, order.len());
    let result = Relation::from_flat(Schema::new(order.clone())?, rows)?;
    bag_span.arg("tuples", shuffled.report.tuples);
    bag_span.arg("result_tuples", result.len() as u64);
    drop(bag_span);
    // Pipelined schedule for the round's shuffle, plus the measured bag
    // join on top.
    report.precompute_secs += shuffled.report.pipelined_secs() + run.makespan_secs;
    report.precompute_tuples += shuffled.report.tuples;
    if result.len() > budget {
        return Err(too_large);
    }
    let result = Arc::new(result);
    if let Some(claim) = bag_claim {
        claim.publish_bag(Arc::clone(&result));
    } else if let Some(scope) = ctx.index {
        scope.cache.insert_bag(scope.bag_key(label.clone()), Arc::clone(&result));
    }
    Ok((label, result))
}

/// The HCube plan under the optimal share vector for the named relations'
/// *actual* sizes (resolving pre-computed bags from the overlay before the
/// database), and whether that vector came from the plan's memo (`true`)
/// or was solved by this call.
///
/// The program's whole input is assembled first and looked up in
/// [`QueryPlan`]'s share memo: equal sizes, width and budget give the same
/// optimum whatever the call, so a plan solves each of its rounds once per
/// distinct input and every later execution reuses the vector. A solve is
/// put on the timeline as a `share_solve` span on the coordinator lane.
fn share_for(
    plan: &QueryPlan,
    db: &Database,
    overlay: &[(String, Arc<Relation>)],
    names: &[String],
    num_attrs: usize,
    cluster: &Cluster,
    ctx: &ExecCtx<'_>,
) -> Result<(HCubePlan, bool)> {
    let mut relations = Vec::with_capacity(names.len());
    for n in names {
        let r = match overlay.iter().find(|(name, _)| name == n) {
            Some((_, rel)) => rel.as_ref(),
            None => db.get(n)?,
        };
        // The share program wants coarse cardinalities, not exact counts:
        // quantizing to the next power of two keeps the chosen share
        // stable while a relation grows or shrinks within its bucket, so
        // index fragments patched forward across a delta batch keep
        // matching instead of being orphaned by a near-tie flip between
        // equal-cost share vectors.
        relations.push((r.schema().mask(), r.len().next_power_of_two()));
    }
    let input = ShareInput {
        num_attrs,
        relations,
        num_workers: cluster.num_workers(),
        memory_limit_bytes: cluster.config().memory_limit_bytes,
        bytes_per_value: 4,
        hot: Vec::new(),
        require_exact_product: false,
        // Bindings reach only Leapfrog: the grid is the unbound query's.
        bound_mask: 0,
    };
    let width = input.num_workers;
    if let Some(share) = plan.share_memo.get(&input) {
        debug_assert_eq!(
            optimize_share(&input).ok().as_ref(),
            Some(&share),
            "memoized share went stale"
        );
        return Ok((HCubePlan::new(share, width), true));
    }
    let span = ctx.tracer.span(COORDINATOR_LANE, "share_solve");
    let share = optimize_share(&input)?;
    drop(span);
    plan.share_memo.insert(input, share.clone());
    Ok((HCubePlan::new(share, width), false))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::optimize;
    use adj_cluster::ClusterConfig;
    use adj_hcube::{IndexCache, IndexScope};
    use adj_query::{paper_query, PaperQuery};

    fn db_for(q: &adj_query::JoinQuery, n: u32, m: u32) -> Database {
        let edges: Vec<(Value, Value)> = (0..n)
            .flat_map(|i| vec![(i % m, (i * 7 + 1) % m), ((i * 3) % m, (i * 11 + 5) % m)])
            .collect();
        q.instantiate(&Relation::from_pairs(Attr(0), Attr(1), &edges))
    }

    /// The cold, unbound execution.
    fn run(
        cluster: &Cluster,
        db: &Database,
        plan: &QueryPlan,
        cfg: &AdjConfig,
        mode: OutputMode,
    ) -> Result<(QueryOutput, ExecutionReport)> {
        execute_plan(cluster, db, plan, cfg, mode, &BoundValues::none(), &ExecCtx::default())
    }

    /// The unbound execution under an index-cache scope.
    fn run_in(
        cluster: &Cluster,
        db: &Database,
        plan: &QueryPlan,
        cfg: &AdjConfig,
        mode: OutputMode,
        scope: &IndexScope<'_>,
    ) -> Result<(QueryOutput, ExecutionReport)> {
        let ctx = ExecCtx { index: Some(scope), ..Default::default() };
        execute_plan(cluster, db, plan, cfg, mode, &BoundValues::none(), &ctx)
    }

    fn truth(db: &Database, q: &adj_query::JoinQuery) -> Relation {
        let mut it = q.atoms.iter();
        let first = it.next().unwrap();
        let mut acc = db.get(&first.name).unwrap().clone();
        for atom in it {
            acc = acc.join(db.get(&atom.name).unwrap()).unwrap();
        }
        acc
    }

    #[test]
    fn q5_coopt_result_matches_binary_join_truth() {
        let q = paper_query(PaperQuery::Q5);
        let db = db_for(&q, 120, 29);
        let cfg = AdjConfig { cluster: ClusterConfig::with_workers(4), ..Default::default() };
        let cluster = Cluster::new(cfg.cluster.clone());
        let plan = optimize(&q, &db, &cfg, Strategy::CoOptimize).unwrap();
        let (out, report) = run(&cluster, &db, &plan, &cfg, OutputMode::Rows).unwrap();
        let result = out.rows();
        let t = truth(&db, &q);
        assert_eq!(result.len(), t.len());
        assert_eq!(result.permute(t.schema().attrs()).unwrap(), t);
        assert_eq!(report.output_tuples as usize, t.len());
    }

    #[test]
    fn default_ctx_is_the_cold_unbound_execution() {
        // `ExecCtx::default()` must be the plain cold executor: against the
        // binary-join truth byte for byte, and indistinguishable (output and
        // every count in the report) from the same plan run with all three
        // context members armed but idle.
        const MODES: [OutputMode; 4] =
            [OutputMode::Rows, OutputMode::Count, OutputMode::Exists, OutputMode::Limit(5)];
        for pq in [PaperQuery::Q1, PaperQuery::Q4] {
            let q = paper_query(pq);
            let db = db_for(&q, 150, 31);
            let cfg = AdjConfig { cluster: ClusterConfig::with_workers(4), ..Default::default() };
            let cluster = Cluster::new(cfg.cluster.clone());
            let plan = optimize(&q, &db, &cfg, Strategy::CommFirst).unwrap();
            let full = truth(&db, &q).permute(&plan.order).unwrap();
            for mode in MODES {
                let (out, rep) = run(&cluster, &db, &plan, &cfg, mode).unwrap();
                let expect = match mode {
                    OutputMode::Rows => QueryOutput::Rows(full.clone()),
                    OutputMode::Count => QueryOutput::Count(full.len() as u64),
                    OutputMode::Exists => QueryOutput::Exists(!full.is_empty()),
                    OutputMode::Limit(n) => {
                        let flat = full.flat()[..n.min(full.len()) * plan.order.len()].to_vec();
                        QueryOutput::Rows(Relation::from_flat(full.schema().clone(), flat).unwrap())
                    }
                };
                assert_eq!(out, expect, "{pq:?} {mode:?}");
                assert!(rep.index_relations_built > 0 && rep.index_relations_reused == 0);

                let cache = IndexCache::new(0); // a scope that caches nothing
                let scope = IndexScope { cache: &cache, db_tag: 1, epoch: 0, versions: &[] };
                let armed = ExecCtx {
                    index: Some(&scope),
                    cancel: CancelToken::manual(),
                    tracer: adj_trace::Tracer::new(1024),
                };
                let (same, arep) =
                    execute_plan(&cluster, &db, &plan, &cfg, mode, &BoundValues::none(), &armed)
                        .unwrap();
                assert_eq!(same, out, "{pq:?} {mode:?}: an idle context changed the answer");
                assert_eq!(
                    (arep.comm_tuples, arep.output_tuples, arep.index_relations_built, &arep.share),
                    (rep.comm_tuples, rep.output_tuples, rep.index_relations_built, &rep.share),
                );
                assert_eq!(arep.counters.intersect_ops, rep.counters.intersect_ops);
            }
        }
    }

    #[test]
    fn q5_modes_agree_with_rows() {
        let q = paper_query(PaperQuery::Q5);
        let db = db_for(&q, 120, 29);
        let cfg = AdjConfig { cluster: ClusterConfig::with_workers(4), ..Default::default() };
        let cluster = Cluster::new(cfg.cluster.clone());
        let plan = optimize(&q, &db, &cfg, Strategy::CoOptimize).unwrap();
        let (rows, _) = run(&cluster, &db, &plan, &cfg, OutputMode::Rows).unwrap();
        let full = rows.rows();

        let (count, crep) = run(&cluster, &db, &plan, &cfg, OutputMode::Count).unwrap();
        assert_eq!(count, QueryOutput::Count(full.len() as u64));
        assert_eq!(crep.output_tuples as usize, full.len());

        let (exists, _) = run(&cluster, &db, &plan, &cfg, OutputMode::Exists).unwrap();
        assert_eq!(exists, QueryOutput::Exists(!full.is_empty()));

        let n = 5usize;
        let (limited, _) = run(&cluster, &db, &plan, &cfg, OutputMode::Limit(n)).unwrap();
        let sample = limited.rows();
        assert_eq!(sample.len(), n.min(full.len()));
        for row in sample.rows() {
            assert!(full.contains_row(row), "limit rows must be a subset of the full result");
        }
    }

    #[test]
    fn precompute_phase_populates_report() {
        // Force pre-computation by building a plan with every multi-edge bag
        // chosen.
        let q = paper_query(PaperQuery::Q4);
        let db = db_for(&q, 150, 31);
        let cfg = AdjConfig { cluster: ClusterConfig::with_workers(4), ..Default::default() };
        let cluster = Cluster::new(cfg.cluster.clone());
        let mut plan = optimize(&q, &db, &cfg, Strategy::CommFirst).unwrap();
        let c_mask: u64 = plan
            .tree
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| !n.is_single_edge())
            .map(|(i, _)| 1u64 << i)
            .sum();
        assert!(c_mask != 0, "Q4 tree must contain a multi-edge bag");
        plan.relations = QueryPlan::relations_for(&q, &plan.tree, c_mask);
        plan.precompute = (0..plan.tree.len()).filter(|v| c_mask & (1 << v) != 0).collect();
        // order must remain valid for the tree — keep the CommFirst order
        // only if valid, otherwise derive the canonical ascending one.
        if !adj_query::order::is_valid_order(&plan.tree, &plan.order) {
            plan.order = adj_query::order::valid_orders(&plan.tree)[0].clone();
        }
        let (out, report) = run(&cluster, &db, &plan, &cfg, OutputMode::Rows).unwrap();
        assert!(report.precompute_secs > 0.0);
        assert!(report.precompute_tuples > 0);
        let t = truth(&db, &q);
        assert_eq!(out.rows().len(), t.len());

        // Each bag round and the final round are programs of their own: all
        // solved by the first execution, all reused by the second — which,
        // with no bag cache in play, runs every round again.
        assert_eq!(report.share_solves, plan.precompute.len() as u64 + 1);
        let (again, rerun) = run(&cluster, &db, &plan, &cfg, OutputMode::Rows).unwrap();
        assert_eq!(rerun.precompute_tuples, report.precompute_tuples, "the bag rounds ran");
        assert_eq!(rerun.share_solves, 0);
        assert_eq!(rerun.share, report.share);
        assert_eq!(again, out);
    }

    #[test]
    fn warm_precompute_reuses_bags_and_tries() {
        // Force pre-computation (as precompute_phase_populates_report does)
        // so the bag-cache path is exercised.
        let q = paper_query(PaperQuery::Q4);
        let db = db_for(&q, 150, 31);
        let cfg = AdjConfig { cluster: ClusterConfig::with_workers(4), ..Default::default() };
        let cluster = Cluster::new(cfg.cluster.clone());
        let mut plan = optimize(&q, &db, &cfg, Strategy::CommFirst).unwrap();
        let c_mask: u64 = plan
            .tree
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| !n.is_single_edge())
            .map(|(i, _)| 1u64 << i)
            .sum();
        plan.relations = QueryPlan::relations_for(&q, &plan.tree, c_mask);
        plan.precompute = (0..plan.tree.len()).filter(|v| c_mask & (1 << v) != 0).collect();
        if !adj_query::order::is_valid_order(&plan.tree, &plan.order) {
            plan.order = adj_query::order::valid_orders(&plan.tree)[0].clone();
        }

        let cache = IndexCache::new(64 << 20);
        let scope = IndexScope { cache: &cache, db_tag: 9, epoch: 0, versions: &[] };
        let (cold_out, cold_rep) =
            run_in(&cluster, &db, &plan, &cfg, OutputMode::Rows, &scope).unwrap();
        assert!(cold_rep.precompute_secs > 0.0);
        assert_eq!(cold_rep.index_bags_reused, 0);
        assert!(cold_rep.index_relations_built > 0);

        let (warm_out, warm_rep) =
            run_in(&cluster, &db, &plan, &cfg, OutputMode::Rows, &scope).unwrap();
        assert_eq!(cold_out, warm_out, "warm bag reuse must be byte-identical");
        assert!(warm_rep.index_bags_reused > 0, "the pre-computed bag must come from the cache");
        assert_eq!(warm_rep.index_relations_built, 0);
        assert!(warm_rep.index_relations_reused > 0);
        assert_eq!(warm_rep.precompute_tuples, 0, "no bag round ran, so nothing was shuffled");
        assert_eq!(warm_rep.comm_tuples, 0);

        // Budget parity: a cached bag over a smaller caller budget errors
        // exactly like the cold path's post-round size check.
        let tiny = AdjConfig { max_intermediate_tuples: 1, ..cfg.clone() };
        let err = run_in(&cluster, &db, &plan, &tiny, OutputMode::Count, &scope).unwrap_err();
        assert!(matches!(err, Error::BudgetExceeded { .. }));
    }

    #[test]
    fn per_relation_versions_invalidate_only_the_mutated_relation() {
        let q = paper_query(PaperQuery::Q1);
        let db = db_for(&q, 150, 23);
        let cfg = AdjConfig { cluster: ClusterConfig::with_workers(4), ..Default::default() };
        let cluster = Cluster::new(cfg.cluster.clone());
        let plan = optimize(&q, &db, &cfg, Strategy::CommFirst).unwrap();
        let cache = IndexCache::new(64 << 20);
        let scope = IndexScope { cache: &cache, db_tag: 9, epoch: 0, versions: &[] };
        let (_, cold) = run_in(&cluster, &db, &plan, &cfg, OutputMode::Count, &scope).unwrap();
        let atoms = cold.index_relations_built;
        assert!(atoms > 0);

        // Bump one relation's sequence: only its entry misses, the others
        // stay warm (the old epoch-bump design rebuilt everything).
        let name = q.atoms[0].name.clone();
        let versions = vec![(name, 1u64)];
        let bumped = IndexScope { cache: &cache, db_tag: 9, epoch: 0, versions: &versions };
        let (_, rep) = run_in(&cluster, &db, &plan, &cfg, OutputMode::Count, &bumped).unwrap();
        assert_eq!(rep.index_relations_built, 1, "only the mutated relation rebuilds");
        assert_eq!(rep.index_relations_reused, atoms - 1);
    }

    #[test]
    fn budget_exceeded_on_tiny_cap() {
        let q = paper_query(PaperQuery::Q1);
        let db = db_for(&q, 200, 23);
        let cfg = AdjConfig {
            cluster: ClusterConfig::with_workers(2),
            max_intermediate_tuples: 1,
            ..Default::default()
        };
        let cluster = Cluster::new(cfg.cluster.clone());
        let plan = optimize(&q, &db, &cfg, Strategy::CommFirst).unwrap();
        let err = run(&cluster, &db, &plan, &cfg, OutputMode::Rows).unwrap_err();
        assert!(matches!(err, Error::BudgetExceeded { .. }));
        // Count mode never buffers rows, so the same tiny cap passes.
        let (out, _) = run(&cluster, &db, &plan, &cfg, OutputMode::Count).unwrap();
        assert!(matches!(out, QueryOutput::Count(_)));
    }

    #[test]
    fn share_for_uses_actual_sizes() {
        let q = paper_query(PaperQuery::Q1);
        let db = db_for(&q, 100, 23);
        let cfg = AdjConfig { cluster: ClusterConfig::with_workers(8), ..Default::default() };
        let cluster = Cluster::new(cfg.cluster.clone());
        let plan = optimize(&q, &db, &cfg, Strategy::CommFirst).unwrap();
        let names = plan.shuffle_names();
        let ctx = ExecCtx::default();
        let (hplan, reused) = share_for(&plan, &db, &[], &names, 3, &cluster, &ctx).unwrap();
        assert!(!reused, "a fresh plan has solved nothing yet");
        assert_eq!(hplan.share().len(), 3);
        assert!(hplan.num_cubes() >= 8);
        // The same input again is answered from the plan's memo...
        let again = share_for(&plan, &db, &[], &names, 3, &cluster, &ctx).unwrap();
        assert_eq!(again, (hplan.clone(), true), "same share, not re-solved");
        // ...a different width is a different program, solved afresh.
        let narrow = Cluster::new(ClusterConfig::with_workers(2));
        let (p2, reused) = share_for(&plan, &db, &[], &names, 3, &narrow, &ctx).unwrap();
        assert!(!reused);
        assert!(p2.num_cubes() < hplan.num_cubes());
    }
}
