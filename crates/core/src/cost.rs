//! The ADJ cost model (Sec. III-B, "Computing the Cost").
//!
//! Three cost components, all in (modeled) seconds:
//!
//! * `costC(C)` — communication: solve the HCube share program for the
//!   rewritten query's relations — exactly, by the pruned search of
//!   [`adj_hcube::solve_share`], which scores a few vectors of each lattice
//!   ([`OptimizerStats::share_candidates`]) — and charge
//!   `Σ_R |R|·dup(R,p) / α`;
//! * `costM(Rv)` — pre-computing: shuffle λ(v)'s relations plus the join
//!   work producing the bag;
//! * `costE^i(C, O)` — computation of the step extending into the `i`-th
//!   traversed node: `|T_{v_{i-1}}| / (β_i · N*)`, where β_i is much higher
//!   when `v_i` is pre-computed (one trie probe instead of several
//!   intersections, and no dead-end bindings inside the bag).
//!
//! Cardinalities come from the sampling estimator, which walks each distinct
//! drawn value once and weights it by how often it was drawn
//! ([`OptimizerStats::sample_values`]); the estimate is the per-draw one to
//! the bit.
//!
//! Algorithm 2 revisits the same atom subsets, relations and pre-compute
//! sets many times, so one [`CostEstimator`] keeps everything it derives
//! from the data — column value sets, sampling tries, sub-join
//! cardinalities, solved share programs — for the `optimize` call it
//! serves. Its tries are the serving layer's: under the request's index
//! scope ([`ExecCtx::index`]) each sampling trie is read from the index
//! cache and built only on a miss — by the round's own builder
//! ([`adj_hcube::build_trie`], which polls the request's cancel token) — and
//! the tries it built outlive the call as the plan's [`PlannedTries`], which
//! the execution that follows takes over instead of building them again.
//! A column value set — a sampled `val(A)` or a `|val(A)|` — is level 0 of
//! a held or cached trie whose levels start with its attribute; only a
//! column no such trie holds is computed off the relation
//! ([`Relation::column_values`](adj_relational::Relation::column_values)).
//!
//! The estimator samples on the cluster's workers, as the paper's
//! distributed sampling does (Sec. IV), in batches: each search position
//! hands it every sub-join it will price, and [`CostEstimator::sample`]
//! runs the batch as two claimed phases of the cluster's one runner
//! ([`Cluster::run_claimed`], after Leis et al.'s morsel-driven
//! scheduling) — the artifacts (missing tries and columns, one unit each)
//! and the walks ([`walk_phase`]: every sub-join's draws in morsels). A
//! sub-join priced outside a batch is a batch of one; there is no serial
//! sampling path, and [`walk_phase`] is the only sampler on the workers.
//! The counts are integers added up exactly, so estimates, counters and
//! plans do not depend on the width.
//!
//! Relations are priced at their stored sizes, bound attributes or not:
//! every execution indexes them whole (the bindings reach only Leapfrog),
//! so a budget no share meets for the whole relations refuses a bound
//! shape too.

use crate::plan::{OptimizerStats, PlanRelation, QueryPlan};
use adj_cluster::Cluster;
use adj_faults::FaultSite;
use adj_hcube::{build_trie, solve_share, ExecCtx, PlannedTries, ShareInput, ShareSolution};
use adj_leapfrog::JoinScratch;
use adj_query::order::all_orders;
use adj_query::{GhdTree, JoinQuery};
use adj_relational::hash::FxHashMap;
use adj_relational::{
    Attr, Database, Error, Levels, Morsels, Relation, Result, Schema, Trie, Value,
};
use adj_sampling::{connected_order, val_a, CardinalityEstimate, Sampler, SamplingConfig, Tally};
use adj_trace::{SpanGuard, COORDINATOR_LANE};
use std::cell::{OnceCell, RefCell};
use std::ops::Range;
use std::sync::Arc;

/// Calibration constants of the cost model.
#[derive(Debug, Clone, Copy)]
pub struct CostParams {
    /// β for extending through a **pre-computed** bag: bindings extended per
    /// second per worker via a single trie probe. Pre-measured on tries of
    /// various sizes per the paper; we use a representative constant.
    pub beta_trie: f64,
    /// Fallback β for extending a binding by intersecting base relations,
    /// used until sampling supplies a measured rate.
    pub beta_extend: f64,
    /// Per-tuple join-production rate for pre-computation work.
    pub join_tuples_per_sec: f64,
    /// Fold the extension rate β *measured during sampling* into the cost
    /// model (the paper's co-optimization calibrates machine constants
    /// from the sampling run). The walks run on several workers at once,
    /// so a sub-join's β is its extensions over the seconds its morsels
    /// took summed over the workers that counted them — one worker's rate,
    /// whatever the width. Off by default, so planning is a pure
    /// function of the data: the measured rate moves with machine load, so
    /// near-tie attribute orders would flip between otherwise identical
    /// runs — and a plan re-optimized after a plan-cache eviction would
    /// differ from the one it replaces.
    pub measure_beta: bool,
}

impl Default for CostParams {
    fn default() -> Self {
        CostParams {
            beta_trie: 4.0e7,
            beta_extend: 4.0e6,
            join_tuples_per_sec: 2.0e7,
            measure_beta: false,
        }
    }
}

/// One column's sorted distinct values.
enum Column {
    /// Level 0 of a trie whose levels start with the column's attribute.
    Level0(Arc<Trie>),
    /// Computed off the relation: no held or cached trie starts with the
    /// attribute.
    Values(Vec<Value>),
}

impl Column {
    fn values(&self) -> &[Value] {
        match self {
            Column::Level0(trie) => &trie.levels()[0].values,
            Column::Values(values) => values,
        }
    }
}

/// What one `optimize` call has derived from the data and may need again.
/// Relations are keyed by name: atoms naming one relation share its tries
/// and columns.
#[derive(Default)]
struct Artifacts<'a> {
    /// (relation, level order) → its trie, taken from the index cache or
    /// built here.
    tries: FxHashMap<TrieKey<'a>, Arc<Trie>>,
    /// (relation, attribute) → the column's sorted distinct values: the
    /// source of both `|val(A)|` and every sampled sub-join's `val(A)`.
    columns: FxHashMap<(&'a str, Attr), Column>,
    /// The tries built here, in build order.
    built: Vec<(&'a str, Arc<Trie>)>,
    /// atom-set mask → estimated cardinality of the sub-join.
    cardinalities: FxHashMap<u64, f64>,
    /// pre-compute mask → `costC` of the rewritten query and its share.
    comm: FxHashMap<u64, (f64, Vec<u32>)>,
    stats: OptimizerStats,
}

/// A sampling trie's identity: the relation and its level order.
type TrieKey<'a> = (&'a str, Vec<Attr>);

impl<'a> Artifacts<'a> {
    /// Keeps `trie` of relation `name`, and its level 0 as the column of
    /// its first attribute unless that column is known already.
    fn hold(&mut self, name: &'a str, trie: &Arc<Trie>) {
        let attrs = trie.schema().attrs();
        if let Some(&first) = attrs.first() {
            self.columns.entry((name, first)).or_insert_with(|| Column::Level0(Arc::clone(trie)));
        }
        self.tries.insert((name, attrs.to_vec()), Arc::clone(trie));
    }
}

/// One sub-join of a sampling batch: its mask, its sampling order and,
/// per member atom, the key of the trie it is read through — or why it
/// cannot be sampled.
struct SubJoin<'a> {
    mask: u64,
    reads: Result<(Vec<Attr>, Vec<TrieKey<'a>>)>,
}

/// Where a batch finds a trie no earlier batch holds.
enum Pending {
    /// In the index cache.
    Cached(Arc<Trie>),
    /// Built by the artifact task of this index.
    Task(usize),
}

/// One task of a batch's artifact phase.
enum Task<'a> {
    /// Index a relation in a level order.
    Trie(&'a Relation, Vec<Attr>),
    /// Compute the column of relation `name` off its rows.
    Column(&'a str, &'a Relation, Attr),
}

/// What an artifact task made.
enum Made {
    Trie(Result<Trie>),
    Column(Result<Vec<Value>>),
}

impl Made {
    /// Tuples indexed or values collected.
    fn tuples(&self) -> u64 {
        match self {
            Made::Trie(Ok(trie)) => trie.tuples() as u64,
            Made::Column(Ok(values)) => values.len() as u64,
            _ => 0,
        }
    }
}

/// Sampling-backed cost estimator. What it derives from the data is memoized
/// for its lifetime — one `optimize` call.
pub struct CostEstimator<'a> {
    db: &'a Database,
    query: &'a JoinQuery,
    tree: &'a GhdTree,
    params: CostParams,
    /// The workers that build and sample; its configuration gives α, the
    /// worker count `N*` and the per-worker memory budget.
    cluster: &'a Cluster,
    sampling: SamplingConfig,
    /// The request: its index scope, cancel token and tracer.
    ctx: &'a ExecCtx<'a>,
    cache: RefCell<Artifacts<'a>>,
    /// attr id → |val(A)| over the query's relations, computed on first use.
    val_sizes: Vec<OnceCell<f64>>,
    /// Attributes every execution of this query binds to a single value
    /// (inline literals + `$name` parameters). The share program drops
    /// their dimensions from its grid; the relations are priced at their
    /// stored sizes all the same, since every execution indexes them whole
    /// (the bindings reach only Leapfrog).
    bound_mask: u64,
    /// β measured from sampling runs (extensions/sec), once available.
    beta_measured: RefCell<Option<f64>>,
    /// A worker panic that failed a sampling batch no caller could be
    /// told of ([`CostEstimator::subjoin_cardinality`]); [`Self::check`]
    /// reports it.
    failure: RefCell<Option<Error>>,
}

impl<'a> CostEstimator<'a> {
    /// Creates an estimator for `query` over `db` with hypertree `tree`,
    /// pricing for `cluster`'s α, worker count and memory budget and
    /// sampling on its workers, on behalf of the request `ctx`
    /// ([`ExecCtx::default`] plans cold).
    pub fn new(
        db: &'a Database,
        query: &'a JoinQuery,
        tree: &'a GhdTree,
        params: CostParams,
        cluster: &'a Cluster,
        sampling: SamplingConfig,
        ctx: &'a ExecCtx<'a>,
    ) -> Self {
        // Self-derived rather than passed in: the mask is a pure function
        // of the query's term kinds, so every construction site solves the
        // same share program. A conflicting-constant query reports mask 0
        // here; the optimizer surfaces the real error before planning.
        let mut bound_mask = query.const_bindings().map(|b| b.mask()).unwrap_or(0);
        for (_, a) in query.param_attrs() {
            bound_mask |= a.mask();
        }
        CostEstimator {
            db,
            query,
            tree,
            params,
            cluster,
            sampling,
            ctx,
            cache: RefCell::new(Artifacts::default()),
            val_sizes: (0..query.num_attrs()).map(|_| OnceCell::new()).collect(),
            bound_mask,
            beta_measured: RefCell::new(None),
            failure: RefCell::new(None),
        }
    }

    /// The query's bound-attribute mask (literal + parameter positions).
    pub fn bound_mask(&self) -> u64 {
        self.bound_mask
    }

    /// `|val(A)|` over the query's relations (at least 1). Columns no batch
    /// has read are read as a batch of their own ([`Self::sample`]).
    fn val_size(&self, a: usize) -> f64 {
        if let Some(&size) = self.val_sizes[a].get() {
            return size;
        }
        if let Err(e) = self.sample(&[], 1 << a) {
            self.fail(e);
        }
        *self.val_sizes[a].get_or_init(|| {
            (self.val_a(0..self.query.atoms.len(), Attr(a as u32)).len() as f64).max(1.0)
        })
    }

    /// Keeps `e`, which failed a batch no caller can be told of, for
    /// [`Self::check`] to report; a cancellation is the token's to report.
    fn fail(&self, e: Error) {
        if !matches!(e, Error::Cancelled { .. }) {
            self.failure.borrow_mut().get_or_insert(e);
        }
    }

    /// The measured extension rate β (Sec. III-B: "reusing statistics
    /// gathered during sampling"), if any sampling run has happened.
    pub fn beta_measured(&self) -> Option<f64> {
        *self.beta_measured.borrow()
    }

    /// What this estimator has sampled, built, solved and reused so far.
    pub fn stats(&self) -> OptimizerStats {
        self.cache.borrow().stats
    }

    /// Fails with the worker panic that failed a sampling batch, or with
    /// [`Error::Cancelled`] once the request's token has fired: a search
    /// polls it between steps, and a sub-join it interrupted priced as `∞`
    /// without counting as a sampler error.
    pub(crate) fn check(&self) -> Result<()> {
        if let Some(failure) = self.failure.borrow().clone() {
            return Err(failure);
        }
        self.ctx.cancel.check().map_err(|c| Error::Cancelled { deadline_exceeded: c.deadline })
    }

    /// The tries this estimator built whose levels follow `order` — those a
    /// plan under `order` indexes — for the request's execution to take
    /// over. The others (sampling-only level orders) are dropped with the
    /// estimator.
    pub(crate) fn planned(&self, order: &[Attr]) -> PlannedTries {
        let follows = |s: &Schema| order.iter().filter(|a| s.contains(**a)).eq(s.attrs());
        let cache = self.cache.borrow();
        let tries = (cache.built.iter())
            .filter(|(_, trie)| follows(trie.schema()))
            .map(|(name, trie)| (name.to_string(), Arc::clone(trie)))
            .collect();
        PlannedTries::new(tries)
    }

    /// Estimated cardinality of the join of the atoms in `atoms_mask`
    /// (bitmask over `query.atoms`). Memoized; empty mask → 1. A mask no
    /// batch has sampled is sampled as a batch of one
    /// ([`Self::sample`]). A sub-join the sampler refuses prices as `∞` and
    /// is counted in [`OptimizerStats::sampler_errors`].
    pub fn subjoin_cardinality(&self, atoms_mask: u64) -> f64 {
        if atoms_mask == 0 {
            return 1.0;
        }
        if let Some(&c) = self.cache.borrow().cardinalities.get(&atoms_mask) {
            return c;
        }
        if let Err(e) = self.sample(&[atoms_mask], 0) {
            self.fail(e);
        }
        self.cache.borrow().cardinalities.get(&atoms_mask).copied().unwrap_or(f64::INFINITY)
    }

    /// Samples every sub-join of `masks` not estimated yet, and computes
    /// the columns of every attribute of `val_attrs` whose `|val(A)|` is
    /// not known yet, as two phases on the cluster's workers:
    ///
    /// * **artifacts** — one task per distinct trie the sub-joins read that
    ///   neither this estimator nor the index cache holds, and per column
    ///   no held, cached or to-be-built trie starts with (`plan_build`
    ///   spans);
    /// * **walks** — every sub-join's grouped draws, cut into
    ///   [`MORSEL_ROWS`](adj_relational::MORSEL_ROWS) morsels, each worker
    ///   counting its morsels with one [`JoinScratch`] (`plan_sample`
    ///   spans; see [`walk_phase`]).
    ///
    /// Between them the coordinator holds the built and cached tries,
    /// computes each sub-join's `val(A)`, draws and opens its join: one
    /// `plan_prepare` span on the coordinator lane.
    ///
    /// Both are claimed phases ([`Cluster::run_claimed`]), so one with one
    /// task or morsel runs on the calling thread. Each sub-join's integer
    /// counts are added up exactly, so every estimate is
    /// [`Sampler::estimate`]'s to the bit. Trie counters are kept as if the
    /// sub-joins had been sampled one after another in `masks`' order.
    /// Fails only when the request's token fired or a worker panicked.
    pub fn sample(&self, masks: &[u64], val_attrs: u64) -> Result<()> {
        self.check()?;
        let mut fresh: Vec<u64> = Vec::with_capacity(masks.len());
        {
            let cache = self.cache.borrow();
            for &m in masks {
                if m != 0 && !cache.cardinalities.contains_key(&m) && !fresh.contains(&m) {
                    fresh.push(m);
                }
            }
        }
        let subjoins: Vec<SubJoin<'a>> =
            fresh.iter().map(|&mask| SubJoin { mask, reads: self.reads(mask) }).collect();
        let (tasks, pending) = self.lacking(&subjoins, val_attrs);
        let made = self.build(&tasks)?;
        self.check()?;

        // From here to the walks, the coordinator holds the tries, computes
        // `val(A)`, draws and opens each sub-join's join: `plan_prepare`.
        let prepare = self.ctx.tracer.span(COORDINATOR_LANE, "plan_prepare");
        let mut guard = self.cache.borrow_mut();
        let cache = &mut *guard;
        let mut built: Vec<Option<Result<Arc<Trie>>>> = Vec::with_capacity(tasks.len());
        for (task, made) in tasks.iter().zip(made) {
            built.push(match (task, made) {
                (Task::Column(name, _, attr), Made::Column(Ok(values))) => {
                    cache.columns.entry((name, *attr)).or_insert(Column::Values(values));
                    None
                }
                (_, Made::Trie(trie)) => Some(trie.map(Arc::new)),
                _ => None,
            });
        }
        // Hold the batch's tries as a one-by-one sampling would have:
        // each sub-join's members in order, a key's first request taking
        // it from the cache or the build, every later one reusing it.
        let mut inputs = Vec::with_capacity(subjoins.len());
        for sj in subjoins {
            let read = sj.reads.and_then(|(order, keys)| {
                let mut tries = Vec::with_capacity(keys.len());
                for key in keys {
                    if let Some(trie) = cache.tries.get(&key) {
                        cache.stats.tries_reused += 1;
                        tries.push(Arc::clone(trie));
                        continue;
                    }
                    let trie = match &pending[&key] {
                        Pending::Cached(trie) => {
                            cache.stats.tries_cached += 1;
                            Arc::clone(trie)
                        }
                        Pending::Task(t) => {
                            let trie = built[*t].clone().expect("a trie task made a trie")?;
                            cache.stats.tries_built += 1;
                            cache.built.push((key.0, Arc::clone(&trie)));
                            trie
                        }
                    };
                    cache.hold(key.0, &trie);
                    tries.push(trie);
                }
                Ok((order, tries))
            });
            inputs.push((sj.mask, read));
        }
        drop(guard);

        let members = |mask: u64| (0..self.query.atoms.len()).filter(move |i| mask & (1 << i) != 0);
        let samplers = inputs.into_iter().map(|(mask, read)| {
            let sampler = read.and_then(|(order, tries): (Vec<Attr>, _)| {
                let values = self.val_a(members(mask), order[0]);
                Sampler::from_parts(&order, tries, values)
            });
            (mask, sampler)
        });
        let estimates = self.walk(samplers.collect(), prepare)?;
        self.check()?;
        let mut cache = self.cache.borrow_mut();
        for (mask, estimate) in estimates {
            let card = match estimate {
                Ok(est) => {
                    cache.stats.subjoins_sampled += 1;
                    cache.stats.sample_extensions += est.extensions;
                    cache.stats.sample_values += est.distinct_samples as u64;
                    if let (true, Some(beta)) = (self.params.measure_beta, est.beta) {
                        let mut m = self.beta_measured.borrow_mut();
                        *m = Some(match *m {
                            Some(prev) => 0.5 * (prev + beta),
                            None => beta,
                        });
                    }
                    est.cardinality.max(0.0)
                }
                Err(Error::Cancelled { .. }) => f64::INFINITY,
                Err(_) => {
                    cache.stats.sampler_errors += 1;
                    f64::INFINITY
                }
            };
            cache.cardinalities.insert(mask, card);
        }
        Ok(())
    }

    /// What a batch over `subjoins` and the columns of `val_attrs` lacks:
    /// the artifact tasks, and where each trie no earlier batch holds is
    /// found. The index cache is read here, on the calling thread, with
    /// claim-free lookups; a column a cached trie starts with is taken at
    /// once.
    fn lacking(
        &self,
        subjoins: &[SubJoin<'a>],
        val_attrs: u64,
    ) -> (Vec<Task<'a>>, FxHashMap<TrieKey<'a>, Pending>) {
        let mut tasks: Vec<Task<'a>> = Vec::new();
        let mut pending: FxHashMap<TrieKey<'a>, Pending> = FxHashMap::default();
        for (_, keys) in subjoins.iter().filter_map(|sj| sj.reads.as_ref().ok()) {
            for key in keys {
                if self.cache.borrow().tries.contains_key(key) || pending.contains_key(key) {
                    continue;
                }
                let found = match self.cached(key.0, &key.1) {
                    Some(trie) => Pending::Cached(trie),
                    None => {
                        let rel = self.db.get(key.0).expect("a sub-join reads stored relations");
                        tasks.push(Task::Trie(rel, key.1.clone()));
                        Pending::Task(tasks.len() - 1)
                    }
                };
                pending.insert(key.clone(), found);
            }
        }
        for a in (0..self.val_sizes.len()).filter(|&a| val_attrs & (1 << a) != 0) {
            if self.val_sizes[a].get().is_some() {
                continue;
            }
            let attr = Attr(a as u32);
            for atom in self.query.atoms.iter().filter(|atom| atom.schema.contains(attr)) {
                let name = atom.name.as_str();
                let starts = |key: &TrieKey<'a>| key.0 == name && key.1.first() == Some(&attr);
                let queued = |task: &Task<'a>| match task {
                    Task::Column(n, _, x) => (*n, *x) == (name, attr),
                    Task::Trie(..) => false,
                };
                if self.cache.borrow().columns.contains_key(&(name, attr))
                    || pending.keys().any(starts)
                    || tasks.iter().any(queued)
                {
                    continue;
                }
                let Ok(rel) = self.db.get(name) else { continue };
                match self.cached(name, &Self::leading(rel, attr)) {
                    Some(trie) => {
                        self.cache.borrow_mut().columns.insert((name, attr), Column::Level0(trie));
                    }
                    None => tasks.push(Task::Column(name, rel, attr)),
                }
            }
        }
        (tasks, pending)
    }

    /// What sampling the sub-join of the atoms in `atoms_mask` reads: its
    /// [`connected_order`], and per member the key of its trie in the
    /// order that induces.
    fn reads(&self, atoms_mask: u64) -> Result<(Vec<Attr>, Vec<TrieKey<'a>>)> {
        let members: Vec<usize> =
            (0..self.query.atoms.len()).filter(|i| atoms_mask & (1 << i) != 0).collect();
        let order = connected_order(members.iter().map(|&i| &self.query.atoms[i].schema));
        let mut keys = Vec::with_capacity(members.len());
        for &i in &members {
            let name = self.query.atoms[i].name.as_str();
            let rel = self.db.get(name)?;
            keys.push((
                name,
                order.iter().copied().filter(|a| rel.schema().contains(*a)).collect(),
            ));
        }
        Ok((order, keys))
    }

    /// The artifact phase: runs `tasks` as one claimed phase on the
    /// cluster's workers, and returns what each made, in task order.
    fn build(&self, tasks: &[Task<'a>]) -> Result<Vec<Made>> {
        if tasks.is_empty() {
            return Ok(Vec::new());
        }
        let cancel = &self.ctx.cancel;
        let work = |morsels: &Morsels, span: &mut SpanGuard<'_>| -> Vec<(usize, Made)> {
            let mut done = Vec::new();
            while let Some(t) = morsels.claim() {
                let made = match &tasks[t] {
                    Task::Trie(rel, induced) => {
                        Made::Trie(build_trie(rel, induced.clone(), cancel))
                    }
                    Task::Column(_, rel, attr) => Made::Column(rel.column_values(*attr)),
                };
                done.push((t, made));
            }
            if span.is_recording() {
                span.arg("tasks", done.len() as u64);
                span.arg("tuples", done.iter().map(|(_, m)| m.tuples()).sum::<u64>());
            }
            done
        };
        let run = self.cluster.run_claimed(&self.ctx.tracer, "plan_build", tasks.len(), work);
        self.cache.borrow_mut().stats.parallel_phases += u64::from(tasks.len() > 1);
        run.into_units().map_err(Error::from)
    }

    /// The walk phase over the sub-joins of a batch (each mask with its
    /// sampler, or why it cannot be sampled), by [`walk_phase`], ending
    /// the batch's `prepare` span when the walks are ready. Returns each
    /// sub-join's estimate, in order.
    fn walk(
        &self,
        subjoins: Vec<(u64, Result<Sampler>)>,
        prepare: SpanGuard<'_>,
    ) -> Result<Vec<(u64, Result<CardinalityEstimate>)>> {
        let mut out: Vec<(u64, Option<Result<CardinalityEstimate>>)> = Vec::new();
        let (mut samplers, mut slots) = (Vec::new(), Vec::new());
        for (mask, sampler) in subjoins {
            match sampler {
                Ok(sampler) => {
                    slots.push(out.len());
                    samplers.push(sampler);
                    out.push((mask, None));
                }
                Err(e) => out.push((mask, Some(Err(e)))),
            }
        }
        let walked = walk_prepared(self.cluster, &samplers, &self.sampling, self.ctx, prepare)?;
        self.cache.borrow_mut().stats.parallel_phases += u64::from(walked.parallel);
        for (slot, estimate) in slots.into_iter().zip(walked.estimates) {
            out[slot].1 = Some(estimate);
        }
        Ok(out
            .into_iter()
            .map(|(mask, est)| (mask, est.expect("every sub-join estimated")))
            .collect())
    }

    /// The index cache's trie of relation `name` whose levels follow
    /// `induced`, under the request's scope. The lookup counts as the
    /// cache's hit or miss but claims no build: the round publishes.
    fn cached(&self, name: &str, induced: &[Attr]) -> Option<Arc<Trie>> {
        let scope = self.ctx.index?;
        let key = scope.index_key(name, induced.to_vec());
        scope.cache.store().get_if(&key, |trie| Some(Arc::clone(trie)))
    }

    /// `attr` followed by `rel`'s other attributes in stored order: the
    /// level order of the cached trie whose level 0 is `rel`'s column
    /// `attr`.
    fn leading(rel: &Relation, attr: Attr) -> Vec<Attr> {
        let others = rel.schema().attrs().iter().copied().filter(|&a| a != attr);
        std::iter::once(attr).chain(others).collect()
    }

    /// `val(attr)` over the atoms in `atoms` whose relation has a column
    /// `attr`: the intersection of those columns, each level 0 of a held or
    /// cached trie or computed by a batch. A relation that is missing or
    /// lacks the column is left out.
    fn val_a(&self, atoms: impl Iterator<Item = usize>, attr: Attr) -> Vec<Value> {
        let cache = self.cache.borrow();
        let columns: Vec<&[Value]> = atoms
            .map(|i| &self.query.atoms[i])
            .filter(|atom| atom.schema.contains(attr))
            .filter_map(|atom| cache.columns.get(&(atom.name.as_str(), attr)))
            .map(Column::values)
            .collect();
        val_a(&columns)
    }

    /// Estimated number of bindings over the attribute set `attrs_mask`
    /// (`|T_{v_i}|` for a traversal prefix): the sub-join of the atoms fully
    /// contained in the prefix, times `|val(A)|` for prefix attributes no
    /// contained atom constrains.
    pub fn prefix_cardinality(&self, attrs_mask: u64) -> f64 {
        if attrs_mask == 0 {
            return 1.0;
        }
        let (contained, uncovered) = self.prefix_reads(attrs_mask);
        let mut card = self.subjoin_cardinality(contained);
        for a in 0..self.val_sizes.len() {
            if uncovered & (1 << a) != 0 {
                card *= self.val_size(a);
            }
        }
        card
    }

    /// What [`Self::prefix_cardinality`] of `attrs_mask` reads: the mask
    /// of the atoms the prefix contains, and the prefix attributes none of
    /// them constrains (whose `|val(A)|` it multiplies in).
    pub(crate) fn prefix_reads(&self, attrs_mask: u64) -> (u64, u64) {
        let mut contained = 0u64;
        let mut covered_attrs = 0u64;
        for (i, atom) in self.query.atoms.iter().enumerate() {
            let m = atom.schema.mask();
            if m & !attrs_mask == 0 {
                contained |= 1 << i;
                covered_attrs |= m;
            }
        }
        (contained, attrs_mask & !covered_attrs)
    }

    /// Estimated tuple count of a plan relation: a base relation's stored
    /// size, a bag's estimated cardinality. Bound attributes do not shrink
    /// it — every execution indexes the relations whole and computes a bag
    /// over them, whatever it binds.
    pub fn relation_size(&self, rel: &PlanRelation) -> f64 {
        match rel {
            PlanRelation::Base(i) => self.stored_size(*i),
            PlanRelation::Precomputed { node, .. } => {
                self.subjoin_cardinality(self.tree.nodes[*node].edges)
            }
        }
    }

    /// The stored tuple count of atom `i`'s relation (0 when missing).
    fn stored_size(&self, i: usize) -> f64 {
        self.db.get(&self.query.atoms[i].name).map(|r| r.len() as f64).unwrap_or(0.0)
    }

    /// `costC`: communication seconds for shuffling the relations of the
    /// query rewritten for pre-compute set `c_mask` (bitmask over tree
    /// nodes, see [`QueryPlan::relations_for`]) under the optimized share
    /// vector. Returns `(secs, share)`, or `(∞, empty)` when no share vector
    /// satisfies the memory budget. Memoized per mask: the share program is
    /// solved once per distinct pre-compute set.
    ///
    /// The seconds charged are `max(total, max_cube · N*) / α` of the
    /// priced sizes: the paper's `total / α` whenever the share spreads the
    /// relations over the workers, and the single cube's load times `N*`
    /// for a fully bound shape, whose one cube carries every tuple while
    /// the other workers wait.
    pub fn cost_c(&self, c_mask: u64) -> (f64, Vec<u32>) {
        {
            let mut cache = self.cache.borrow_mut();
            if let Some(solved) = cache.comm.get(&c_mask).cloned() {
                cache.stats.share_reused += 1;
                return solved;
            }
        }
        let rels = QueryPlan::relations_for(self.query, self.tree, c_mask);
        let input = ShareInput {
            num_attrs: self.query.num_attrs(),
            relations: rels
                .iter()
                .map(|r| {
                    let mask = r.schema(self.query).mask();
                    let size = self.relation_size(r).min(1e15) as usize;
                    (mask, size)
                })
                .collect(),
            num_workers: self.cluster.config().num_workers,
            memory_limit_bytes: self.cluster.config().memory_limit_bytes,
            bytes_per_value: 4,
            hot: Vec::new(),
            require_exact_product: false,
            bound_mask: self.bound_mask,
        };
        let solved = solve_share(&input);
        let mut cache = self.cache.borrow_mut();
        let solved = match solved {
            Ok(ShareSolution { share: p, candidates }) => {
                cache.stats.share_candidates += candidates;
                let total = input.comm_cost(&p) as f64;
                let fullest = input.max_cube_tuples(&p) * self.cluster.config().num_workers as f64;
                let secs = total.max(fullest) / self.cluster.config().alpha_tuples_per_sec;
                (secs, p)
            }
            Err(_) => (f64::INFINITY, Vec::new()),
        };
        cache.stats.share_solves += 1;
        cache.comm.insert(c_mask, solved.clone());
        solved
    }

    /// The share vector `costC` solved for pre-compute set `c_mask` — the
    /// one a plan that pre-computes `c_mask` is priced under — or the typed
    /// error when no share vector satisfies the memory budget.
    pub(crate) fn share(&self, c_mask: u64) -> Result<Levels<u32>> {
        let (_, p) = self.cost_c(c_mask);
        if p.is_empty() {
            return Err(Error::BudgetExceeded {
                what: "no feasible HCube share vector under memory budget",
                limit: self.cluster.config().memory_limit_bytes.unwrap_or(0),
            });
        }
        Ok(p.into_iter().collect())
    }

    /// `costM(Rv)`: pre-computing seconds for bag `node` — shuffle λ(v)'s
    /// relations once plus parallel join work proportional to input+output.
    pub fn cost_m(&self, node: usize) -> f64 {
        let bag = &self.tree.nodes[node];
        let input_tuples: f64 = bag.edge_indices().into_iter().map(|i| self.stored_size(i)).sum();
        let output = self.subjoin_cardinality(bag.edges);
        let comm = input_tuples / self.cluster.config().alpha_tuples_per_sec;
        let workers = self.cluster.config().num_workers as f64;
        let comp = (input_tuples + output) / (self.params.join_tuples_per_sec * workers);
        comm + comp
    }

    /// `costE^i`: seconds to extend all `|T_{v_{i-1}}|` bindings into the
    /// `i`-th traversed node. `prefix_attrs` is the attribute set of the
    /// first `i-1` nodes; `precomputed` is whether `v_i`'s bag is in `C`.
    pub fn cost_e_step(&self, prefix_attrs: u64, precomputed: bool) -> f64 {
        let bindings = self.prefix_cardinality(prefix_attrs);
        let beta = if precomputed {
            self.params.beta_trie
        } else {
            self.beta_measured().unwrap_or(self.params.beta_extend)
        };
        bindings / (beta * self.cluster.config().num_workers as f64)
    }

    /// Attribute ordering heuristic inside a node: ascending `|val(A)|`
    /// (most selective first), the rule \[11\] uses for its own order picks.
    pub fn order_attrs_by_selectivity(&self, attrs: &mut [Attr]) {
        attrs.sort_by(|a, b| {
            self.val_size(a.index()).partial_cmp(&self.val_size(b.index())).unwrap().then(a.cmp(b))
        });
    }

    /// Sketch-style prefix estimate with independence assumptions (no
    /// sampling): `Π_{A∈S}|val(A)| · Π_{R⊆S} |R| / Π_{A∈R}|val(A)|` — the
    /// classical System-R selectivity product. This is what HCubeJ-style
    /// order selection can afford over all `n!` orders; its inaccuracy on
    /// complex joins is exactly the paper's argument for sampling (Sec. IV).
    pub fn prefix_cardinality_sketch(&self, attrs_mask: u64) -> f64 {
        let mut est = 1.0f64;
        for a in 0..self.val_sizes.len() {
            if attrs_mask & (1 << a) != 0 {
                est *= self.val_size(a);
            }
        }
        for atom in &self.query.atoms {
            let m = atom.schema.mask();
            if m & !attrs_mask == 0 {
                let size = self.db.get(&atom.name).map(|r| r.len() as f64).unwrap_or(0.0).max(1e-9);
                let mut dom = 1.0f64;
                for &a in atom.schema.attrs() {
                    dom *= self.val_size(a.index());
                }
                est *= (size / dom).min(1.0);
            }
        }
        est
    }

    /// Cheap (sampling-free) order score: `Σ_i` sketch prefix estimates.
    fn score_order_cheap(&self, order: &[Attr]) -> f64 {
        let mut score = 0.0;
        let mut prefix = 0u64;
        for &a in &order[..order.len().saturating_sub(1)] {
            prefix |= a.mask();
            score += self.prefix_cardinality_sketch(prefix);
        }
        score
    }

    /// HCubeJ's "All-Selected" order search (Fig. 8), which the
    /// communication-first strategy and baseline run: every permutation of
    /// the query's attributes, scored by the sketch
    /// ([`Self::prefix_cardinality_sketch`] summed over the prefixes), since
    /// `n!` orders are more than sampling can afford. Returns the lowest
    /// score and the first order that has it; a query of more than 6
    /// attributes (720 orders) is [`Error::BudgetExceeded`].
    pub fn all_selected_order(&self) -> Result<(f64, Vec<Attr>)> {
        let attrs = self.query.attrs();
        if attrs.len() > 6 {
            return Err(Error::BudgetExceeded { what: "all-orders enumeration", limit: 720 });
        }
        // The sketch reads every `|val(A)|` once two orders compete.
        if attrs.len() > 1 {
            self.sample(&[], attrs.iter().fold(0, |m, a| m | a.mask()))?;
        }
        let mut best: Option<(f64, Vec<Attr>)> = None;
        for o in all_orders(&attrs) {
            let s = self.score_order_cheap(&o);
            if best.as_ref().is_none_or(|(bs, _)| s < *bs) {
                best = Some((s, o));
            }
        }
        Ok(best.expect("a query has attributes"))
    }
}

/// What one walk phase estimated ([`walk_phase`]).
#[derive(Debug)]
pub struct WalkPhase {
    /// Each sampler's estimate, in sampler order, or the error its join
    /// failed with.
    pub estimates: Vec<Result<CardinalityEstimate>>,
    /// Whether the phase ran across the workers: more than one morsel.
    pub parallel: bool,
}

/// Estimates every sampler of `samplers` under `sampling` as one phase on
/// `cluster`'s workers, on behalf of the request `ctx`: each sampler's
/// grouped draws ([`Sampler::draw`]) are cut into
/// [`MORSEL_ROWS`](adj_relational::MORSEL_ROWS) morsels, all samplers'
/// morsels are the units of one claimed phase ([`Cluster::run_claimed`]),
/// and each worker counts the ones it claims ([`Sampler::count`]) with one
/// [`JoinScratch`], under a `plan_sample` span (args: `morsels`,
/// `subjoins`, `tuples`). The counts
/// are integers added up exactly, so every estimate equals
/// [`Sampler::estimate`]'s to the bit at any width; only its seconds (and
/// so its β) are the summed seconds of the workers that counted it. A
/// phase of one morsel runs on the calling thread.
///
/// The draws and each sampler's join are made on the calling thread,
/// under a `plan_prepare` span on the coordinator lane (arg: `subjoins`).
/// Each morsel polls the `JoinEnumerate` fault site and `ctx`'s token: a
/// fired token fails the phase with [`Error::Cancelled`], a panicking
/// worker with [`Error::WorkerPanicked`].
pub fn walk_phase(
    cluster: &Cluster,
    samplers: &[Sampler],
    sampling: &SamplingConfig,
    ctx: &ExecCtx<'_>,
) -> Result<WalkPhase> {
    let prepare = ctx.tracer.span(COORDINATOR_LANE, "plan_prepare");
    walk_prepared(cluster, samplers, sampling, ctx, prepare)
}

/// [`walk_phase`] inside a `prepare` span the caller opened, which ends
/// when the walks are ready to run.
fn walk_prepared(
    cluster: &Cluster,
    samplers: &[Sampler],
    sampling: &SamplingConfig,
    ctx: &ExecCtx<'_>,
    mut prepare: SpanGuard<'_>,
) -> Result<WalkPhase> {
    // Samplers with nothing to count are estimated here; the others are
    // walked, `walks[j]` estimating `samplers[slot]`.
    let mut estimates: Vec<Option<Result<CardinalityEstimate>>> = Vec::new();
    let mut walks = Vec::new();
    for sampler in samplers {
        let draws = sampler.draw(sampling);
        let estimate = if draws.grouped.is_empty() {
            Some(Ok(sampler.finish(&draws, &Tally::default())))
        } else {
            match sampler.join() {
                Ok(join) => {
                    walks.push((estimates.len(), sampler, draws, join));
                    None
                }
                Err(e) => Some(Err(e)),
            }
        };
        estimates.push(estimate);
    }

    let morsels: Vec<(usize, Range<usize>)> = (walks.iter().enumerate())
        .flat_map(|(j, (_, _, draws, _))| {
            let rows = draws.grouped.len();
            (0..Morsels::count(rows)).map(move |m| (j, Morsels::rows(m, rows)))
        })
        .collect();
    prepare.arg("subjoins", samplers.len() as u64);
    drop(prepare);
    let cancel = &ctx.cancel;
    let work = |claims: &Morsels, span: &mut SpanGuard<'_>| -> Result<Vec<(usize, Tally)>> {
        let mut scratch = JoinScratch::new();
        let mut done: Vec<(usize, Tally)> = Vec::new();
        let mut claimed = 0u64;
        while let Some((j, rows)) = claims.claim().map(|u| &morsels[u]) {
            adj_faults::inject(FaultSite::JoinEnumerate, cancel);
            cancel.check().map_err(|c| Error::Cancelled { deadline_exceeded: c.deadline })?;
            // A worker's claims ascend, so its morsels of one sampler are
            // consecutive.
            if done.last().is_none_or(|(last, _)| last != j) {
                done.push((*j, Tally::default()));
            }
            let (_, _, draws, join) = &walks[*j];
            let tally = &mut done.last_mut().expect("a tally per claimed sampler").1;
            Sampler::count(join, &draws.grouped[rows.clone()], &mut scratch, tally);
            claimed += 1;
        }
        if span.is_recording() {
            span.arg("morsels", claimed);
            span.arg("subjoins", done.len() as u64);
            span.arg("tuples", done.iter().map(|(_, t)| t.tuples()).sum::<u64>());
        }
        Ok(done)
    };
    let mut tallies: Vec<Tally> = vec![Tally::default(); walks.len()];
    if !morsels.is_empty() {
        let run = cluster.run_claimed(&ctx.tracer, "plan_sample", morsels.len(), work);
        for done in run.into_results().map_err(Error::from)? {
            for (j, tally) in done? {
                tallies[j].add(&tally);
            }
        }
    }
    for ((slot, sampler, draws, _), tally) in walks.iter().zip(&tallies) {
        estimates[*slot] = Some(Ok(sampler.finish(draws, tally)));
    }
    let estimates = estimates.into_iter().map(|e| e.expect("every sampler estimated")).collect();
    Ok(WalkPhase { estimates, parallel: morsels.len() > 1 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use adj_cluster::{ClusterConfig, TransportKind};
    use adj_hcube::optimize_share;
    use adj_query::{paper_query, GhdTree, PaperQuery};
    use adj_relational::{Relation, Value};

    /// Four workers at α = 10⁷ tuples/s, no memory budget.
    static CLUSTER: std::sync::LazyLock<Cluster> = std::sync::LazyLock::new(|| {
        Cluster::new(ClusterConfig {
            num_workers: 4,
            alpha_tuples_per_sec: 1e7,
            memory_limit_bytes: None,
            transport: TransportKind::InProcess,
        })
    });
    const SAMPLING: SamplingConfig = SamplingConfig { samples: 128, seed: 5 };
    /// The cold request: no index scope, uncancellable, untraced.
    static COLD: std::sync::LazyLock<ExecCtx<'static>> = std::sync::LazyLock::new(ExecCtx::default);

    fn setup() -> (Database, JoinQuery) {
        let q = paper_query(PaperQuery::Q4);
        let edges: Vec<(Value, Value)> = (0..200u32)
            .flat_map(|i| vec![(i % 37, (i * 7 + 1) % 37), ((i * 3) % 37, (i * 5 + 2) % 37)])
            .collect();
        let g = Relation::from_pairs(Attr(0), Attr(1), &edges);
        (q.instantiate(&g), q)
    }

    fn estimator<'a>(db: &'a Database, q: &'a JoinQuery, tree: &'a GhdTree) -> CostEstimator<'a> {
        estimator_with(db, q, tree, CostParams::default())
    }

    /// The cost model with the sampler's measured β left out: plain steps
    /// are priced with the fixed `beta_extend`, whatever the machine's
    /// speed or load while sampling.
    fn fixed_beta() -> CostParams {
        CostParams { measure_beta: false, ..Default::default() }
    }

    fn estimator_with<'a>(
        db: &'a Database,
        q: &'a JoinQuery,
        tree: &'a GhdTree,
        params: CostParams,
    ) -> CostEstimator<'a> {
        CostEstimator::new(db, q, tree, params, &CLUSTER, SAMPLING, &COLD)
    }

    #[test]
    fn subjoin_cardinality_single_atom_is_exact() {
        let (db, q) = setup();
        let tree = GhdTree::decompose(&q.hypergraph(), 3);
        let est = estimator(&db, &q, &tree);
        // single atom R1: |T_{A=a}| summed over val(a) × scaling ≈ |R1|
        // restricted to joinable a-values; must be > 0 and close to |R1|
        // (equal in expectation; individual estimates carry sampling noise,
        // so allow a few percent of slack above the exact count).
        let c = est.subjoin_cardinality(1);
        let r1 = db.get("R1").unwrap().len() as f64;
        assert!(c > 0.0 && c <= r1 * 1.05, "c={c} |R1|={r1}");
        // memoized: second call identical
        assert_eq!(est.subjoin_cardinality(1), c);
    }

    #[test]
    fn prefix_cardinality_multiplies_unconstrained_attrs() {
        let (db, q) = setup();
        let tree = GhdTree::decompose(&q.hypergraph(), 3);
        let est = estimator(&db, &q, &tree);
        // prefix {a} has no contained atom → |val(a)|
        let pa = est.prefix_cardinality(0b00001);
        assert!(pa >= 1.0);
        // prefix {a,b} contains R1(a,b) → roughly |R1 ⋉ joinable|
        let pab = est.prefix_cardinality(0b00011);
        assert!(pab > 0.0);
        // growing the prefix without constraints multiplies
        let pac = est.prefix_cardinality(0b00101); // a and c: no atom inside
        assert!(pac >= pa);
    }

    #[test]
    fn cost_c_infinite_when_memory_impossible() {
        let (db, q) = setup();
        let tree = GhdTree::decompose(&q.hypergraph(), 3);
        let tight =
            Cluster::new(ClusterConfig { memory_limit_bytes: Some(8), ..ClusterConfig::default() });
        let est =
            CostEstimator::new(&db, &q, &tree, CostParams::default(), &tight, SAMPLING, &COLD);
        let (c, p) = est.cost_c(0);
        assert!(c.is_infinite());
        assert!(p.is_empty());
    }

    #[test]
    fn cost_c_finite_and_share_valid() {
        let (db, q) = setup();
        let tree = GhdTree::decompose(&q.hypergraph(), 3);
        let est = estimator(&db, &q, &tree);
        let (c, p) = est.cost_c(0);
        assert!(c.is_finite() && c > 0.0);
        assert_eq!(p.len(), q.num_attrs());
        let prod: u64 = p.iter().map(|&x| x as u64).product();
        assert!(prod >= 4);
    }

    #[test]
    fn precomputed_step_is_cheaper() {
        let (db, q) = setup();
        let tree = GhdTree::decompose(&q.hypergraph(), 3);
        let est = estimator_with(&db, &q, &tree, fixed_beta());
        let prefix = 0b00111; // bindings over a,b,c
        let plain = est.cost_e_step(prefix, false);
        let pre = est.cost_e_step(prefix, true);
        assert!(pre < plain, "pre={pre} plain={plain}");
    }

    #[test]
    fn a_measured_beta_replaces_the_fixed_one_once_recorded() {
        let (db, q) = setup();
        let tree = GhdTree::decompose(&q.hypergraph(), 3);
        let prefix = 0b00111;
        let params = fixed_beta();
        let fixed = estimator_with(&db, &q, &tree, params);
        let bindings = fixed.prefix_cardinality(prefix);
        assert_eq!(fixed.beta_measured(), None, "a fixed model records no rate");
        assert_eq!(fixed.cost_e_step(prefix, false), bindings / (params.beta_extend * 4.0));

        let measuring = CostParams { measure_beta: true, ..Default::default() };
        let measured = estimator_with(&db, &q, &tree, measuring);
        assert_eq!(measured.beta_measured(), None, "nothing sampled yet");
        assert_eq!(measured.prefix_cardinality(prefix), bindings, "β never moves an estimate");
        let beta = measured.beta_measured().expect("sampling records its rate");
        assert_eq!(measured.cost_e_step(prefix, false), bindings / (beta * 4.0));
        assert_eq!(measured.cost_e_step(prefix, true), bindings / (params.beta_trie * 4.0));
    }

    #[test]
    fn cost_m_positive() {
        let (db, q) = setup();
        let tree = GhdTree::decompose(&q.hypergraph(), 3);
        let est = estimator(&db, &q, &tree);
        for v in 0..tree.len() {
            if !tree.nodes[v].is_single_edge() {
                assert!(est.cost_m(v) > 0.0);
            }
        }
    }

    #[test]
    fn cost_c_charges_the_total_load_of_the_stored_sizes() {
        // Q7 over a graph whose one b-value carries 80 % of the edges: the
        // charge is `Σ_R |R|·dup(R,p) / α` of the base relations' stored
        // sizes under the share solved for them — a hub adds nothing.
        let q = paper_query(PaperQuery::Q7);
        let n = 300u32;
        let mut hub_pairs: Vec<(Value, Value)> = (0..n * 4 / 5).map(|i| (i, 777)).collect();
        hub_pairs.extend((n * 4 / 5..n).map(|i| (i, 1000 + (i * 7) % 150)));
        let db = q.instantiate(&Relation::from_pairs(Attr(0), Attr(1), &hub_pairs));
        let tree = GhdTree::decompose(&q.hypergraph(), 3);
        let (secs, p) = estimator(&db, &q, &tree).cost_c(0);
        let input = ShareInput {
            num_attrs: q.num_attrs(),
            relations: q
                .atoms
                .iter()
                .map(|a| (a.schema.mask(), db.get(&a.name).unwrap().len()))
                .collect(),
            num_workers: CLUSTER.num_workers(),
            memory_limit_bytes: None,
            bytes_per_value: 4,
            hot: Vec::new(),
            require_exact_product: false,
            bound_mask: 0,
        };
        assert_eq!(p, optimize_share(&input).unwrap());
        assert_eq!(secs, input.comm_cost(&p) as f64 / CLUSTER.config().alpha_tuples_per_sec);
    }

    #[test]
    fn bound_attrs_price_the_stored_sizes() {
        // The same shape, once free and once with `a` bound ($v literal
        // position): every execution indexes the relations whole, so both
        // price every relation at its stored size; only the share program
        // drops the bound dimension.
        let (free, _) = adj_query::parse_query("R1(a,b), R2(b,c), R3(a,c)").unwrap();
        let (bound, _) = adj_query::parse_query("Q(b,c) :- R1($v,b), R2(b,c), R3($v,c)").unwrap();
        let edges: Vec<(Value, Value)> = (0..300u32).map(|i| (i % 40, (i * 7 + 1) % 40)).collect();
        let g = Relation::from_pairs(Attr(0), Attr(1), &edges);
        let (db_f, db_b) = (free.instantiate(&g), bound.instantiate(&g));
        let tree_f = GhdTree::decompose(&free.hypergraph(), 3);
        let tree_b = GhdTree::decompose(&bound.hypergraph(), 3);
        let est_f = estimator(&db_f, &free, &tree_f);
        let est_b = estimator(&db_b, &bound, &tree_b);
        assert_eq!(est_f.bound_mask(), 0);
        assert_eq!(est_b.bound_mask(), Attr(0).mask(), "only the $v position is bound");
        for i in 0..bound.atoms.len() {
            let stored = db_b.get(&bound.atoms[i].name).unwrap().len() as f64;
            assert_eq!(est_b.relation_size(&PlanRelation::Base(i)), stored, "atom {i}");
            assert_eq!(est_f.relation_size(&PlanRelation::Base(i)), stored, "atom {i}");
        }
        let (_, share) = est_b.cost_c(0);
        assert_eq!(share[0], 1, "the bound dimension is not split");
    }

    #[test]
    fn val_sizes_ignore_relations_the_query_does_not_name() {
        // `|val(A)|` is a statistic of the query's own relations: a database
        // that also holds a small relation over attribute id 0 (the bound
        // `$v`) must price and order exactly like one without it.
        let (q, _) = adj_query::parse_query("Q(b,c) :- R1($v,b), R2(b,c), R3($v,c)").unwrap();
        let edges: Vec<(Value, Value)> = (0..300u32).map(|i| (i % 40, (i * 7 + 1) % 40)).collect();
        let clean = q.instantiate(&Relation::from_pairs(Attr(0), Attr(1), &edges));
        let mut noisy = clean.clone();
        let unrelated = Relation::from_rows(adj_relational::Schema::from_ids(&[0]), &[&[1], &[2]]);
        noisy.insert("Unrelated", unrelated.unwrap());
        let tree = GhdTree::decompose(&q.hypergraph(), 3);
        let (est_c, est_n) = (estimator(&clean, &q, &tree), estimator(&noisy, &q, &tree));
        assert!(est_c.val_size(0) > 2.0, "the unrelated relation would have shrunk |val(a)|");
        for a in 0..q.num_attrs() {
            assert_eq!(est_c.val_size(a), est_n.val_size(a), "attribute {a}");
        }
        let (mut order_c, mut order_n) = (q.attrs(), q.attrs());
        est_c.order_attrs_by_selectivity(&mut order_c);
        est_n.order_attrs_by_selectivity(&mut order_n);
        assert_eq!(order_c, order_n);
        for i in 0..q.atoms.len() {
            let rel = PlanRelation::Base(i);
            assert_eq!(est_c.relation_size(&rel), est_n.relation_size(&rel), "atom {i}");
        }
    }

    #[test]
    fn a_refused_subjoin_prices_infinite_and_is_counted() {
        let (mut db, q) = setup();
        // R2 names an attribute the query's atom does not have: the sampler
        // cannot index it under any order of the sub-join.
        db.insert("R2", Relation::from_pairs(Attr(1), Attr(9), &[(1, 2)]));
        let tree = GhdTree::decompose(&q.hypergraph(), 3);
        let est = estimator(&db, &q, &tree);
        assert!(est.subjoin_cardinality(0b11).is_infinite());
        assert!(est.subjoin_cardinality(0b11).is_infinite(), "memoized like any estimate");
        assert_eq!(est.stats().sampler_errors, 1);
        assert_eq!(est.stats().subjoins_sampled, 0);
        assert!(est.subjoin_cardinality(0b1).is_finite());
        assert_eq!(est.stats().subjoins_sampled, 1);
    }

    #[test]
    fn walk_phase_estimates_an_empty_join_zero() {
        let q = paper_query(PaperQuery::Q1);
        let mut db = Database::new();
        db.insert("R1", Relation::from_pairs(Attr(0), Attr(1), &[(1, 2)]));
        db.insert("R2", Relation::from_pairs(Attr(1), Attr(2), &[(2, 3)]));
        db.insert("R3", Relation::from_pairs(Attr(0), Attr(2), &[(8, 3)]));
        let sampler = Sampler::new(&db, &q, &q.attrs()).unwrap();
        let walked = walk_phase(&CLUSTER, &[sampler], &SAMPLING, &COLD).unwrap();
        assert!(!walked.parallel, "nothing to walk");
        assert_eq!(walked.estimates[0].as_ref().unwrap().cardinality, 0.0);
    }
}
