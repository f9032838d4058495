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

use crate::plan::{OptimizerStats, PlanRelation, QueryPlan};
use adj_cluster::ClusterConfig;
use adj_hcube::{build_trie, solve_share, ExecCtx, PlannedTries, ShareInput, ShareSolution};
use adj_query::{GhdTree, JoinQuery};
use adj_relational::hash::FxHashMap;
use adj_relational::{Attr, Database, Error, Levels, Relation, Result, Schema, Trie, Value};
use adj_sampling::{connected_order, val_a, CardinalityEstimate, Sampler, SamplingConfig};
use std::cell::{OnceCell, RefCell};
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
    /// from the sampling run). Off by default, so planning is a pure
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
    tries: FxHashMap<(&'a str, Vec<Attr>), Arc<Trie>>,
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

/// Sampling-backed cost estimator. What it derives from the data is memoized
/// for its lifetime — one `optimize` call.
pub struct CostEstimator<'a> {
    db: &'a Database,
    query: &'a JoinQuery,
    tree: &'a GhdTree,
    params: CostParams,
    /// α, the worker count `N*` and the per-worker memory budget.
    cluster: &'a ClusterConfig,
    sampling: SamplingConfig,
    /// The request: its index scope, cancel token and tracer.
    ctx: &'a ExecCtx<'a>,
    cache: RefCell<Artifacts<'a>>,
    /// attr id → |val(A)| over the query's relations, computed on first use.
    val_sizes: Vec<OnceCell<f64>>,
    /// Attributes every execution of this query binds to a single value
    /// (inline literals + `$name` parameters). Relations touching them are
    /// filtered down before shuffling, so their *priced* sizes shrink by
    /// the bound attributes' selectivity — and the share program drops the
    /// bound dimensions from its grid.
    bound_mask: u64,
    /// β measured from sampling runs (extensions/sec), once available.
    beta_measured: RefCell<Option<f64>>,
}

impl<'a> CostEstimator<'a> {
    /// Creates an estimator for `query` over `db` with hypertree `tree`,
    /// pricing for `cluster`'s α, worker count and memory budget, on behalf
    /// of the request `ctx` ([`ExecCtx::default`] plans cold).
    pub fn new(
        db: &'a Database,
        query: &'a JoinQuery,
        tree: &'a GhdTree,
        params: CostParams,
        cluster: &'a ClusterConfig,
        sampling: SamplingConfig,
        ctx: &'a ExecCtx<'a>,
    ) -> Self {
        // Self-derived rather than passed in: the mask is a pure function
        // of the query's term kinds, so every construction site prices the
        // same filtered sizes. A conflicting-constant query reports mask 0
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
        }
    }

    /// The query's bound-attribute mask (literal + parameter positions).
    pub fn bound_mask(&self) -> u64 {
        self.bound_mask
    }

    /// `|val(A)|` over the query's relations (at least 1).
    fn val_size(&self, a: usize) -> f64 {
        *self.val_sizes[a].get_or_init(|| {
            (self.val_a(0..self.query.atoms.len(), Attr(a as u32)).len() as f64).max(1.0)
        })
    }

    /// Discounts a relation's tuple count for the bound-constant selections
    /// that filter it before any shuffle: each bound attribute the schema
    /// touches keeps roughly `1/|val(A)|` of the tuples under uniformity.
    /// Clamped at one tuple so a heavily bound relation never prices as
    /// free.
    fn bound_discount(&self, schema_mask: u64, size: f64) -> f64 {
        let touched = self.bound_mask & schema_mask;
        if touched == 0 || size <= 0.0 {
            return size;
        }
        let mut discounted = size;
        for a in 0..self.val_sizes.len() {
            if touched & (1u64 << a) != 0 {
                discounted /= self.val_size(a);
            }
        }
        discounted.max(1.0)
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

    /// Fails with [`Error::Cancelled`] once the request's token has fired:
    /// a search polls it between steps, and a sub-join it interrupted
    /// priced as `∞` without counting as a sampler error.
    pub(crate) fn check(&self) -> Result<()> {
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
    /// (bitmask over `query.atoms`). Memoized; empty mask → 1. A sub-join
    /// the sampler refuses prices as `∞` and is counted in
    /// [`OptimizerStats::sampler_errors`].
    pub fn subjoin_cardinality(&self, atoms_mask: u64) -> f64 {
        if atoms_mask == 0 {
            return 1.0;
        }
        if let Some(&c) = self.cache.borrow().cardinalities.get(&atoms_mask) {
            return c;
        }
        let sampled = self.sample_subjoin(atoms_mask);
        let mut cache = self.cache.borrow_mut();
        let card = match sampled {
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
        cache.cardinalities.insert(atoms_mask, card);
        card
    }

    /// One sampling run over the sub-join of the atoms in `atoms_mask`,
    /// under its [`connected_order`], on tries and columns shared with every
    /// other sub-join of this estimator.
    fn sample_subjoin(&self, atoms_mask: u64) -> Result<CardinalityEstimate> {
        self.check()?;
        let members: Vec<usize> =
            (0..self.query.atoms.len()).filter(|i| atoms_mask & (1 << i) != 0).collect();
        let order = connected_order(members.iter().map(|&i| &self.query.atoms[i].schema));
        let mut tries = Vec::with_capacity(members.len());
        for &i in &members {
            let name = self.query.atoms[i].name.as_str();
            let rel = self.db.get(name)?;
            let induced = order.iter().copied().filter(|a| rel.schema().contains(*a)).collect();
            tries.push(self.trie(name, rel, induced)?);
        }
        let values = self.val_a(members.iter().copied(), order[0]);
        Sampler::from_parts(&order, tries, values)?.estimate(&self.sampling)
    }

    /// The trie of relation `name` (stored as `rel`) whose levels follow
    /// `induced`: held already, else read from the index cache, else built.
    fn trie(&self, name: &'a str, rel: &Relation, induced: Vec<Attr>) -> Result<Arc<Trie>> {
        let mut cache = self.cache.borrow_mut();
        let key = (name, induced);
        if let Some(trie) = cache.tries.get(&key) {
            let trie = Arc::clone(trie);
            cache.stats.tries_reused += 1;
            return Ok(trie);
        }
        let (_, induced) = key;
        let trie = match self.cached(name, &induced) {
            Some(trie) => {
                cache.stats.tries_cached += 1;
                trie
            }
            None => {
                let trie = Arc::new(build_trie(rel, induced, &self.ctx.cancel)?);
                cache.stats.tries_built += 1;
                cache.built.push((name, Arc::clone(&trie)));
                trie
            }
        };
        cache.hold(name, &trie);
        Ok(trie)
    }

    /// The index cache's trie of relation `name` whose levels follow
    /// `induced`, under the request's scope. The lookup counts as the
    /// cache's hit or miss but claims no build: the round publishes.
    fn cached(&self, name: &str, induced: &[Attr]) -> Option<Arc<Trie>> {
        let scope = self.ctx.index?;
        let key = scope.index_key(name, induced.to_vec());
        scope.cache.store().get_if(&key, |trie| Some(Arc::clone(trie)))
    }

    /// `val(attr)` over the atoms in `atoms` whose relation has a column
    /// `attr`: the intersection of those columns.
    fn val_a(&self, atoms: impl Iterator<Item = usize>, attr: Attr) -> Vec<Value> {
        let names: Vec<&'a str> = atoms
            .map(|i| &self.query.atoms[i])
            .filter(|atom| atom.schema.contains(attr))
            .map(|atom| atom.name.as_str())
            .filter(|&name| self.column(name, attr))
            .collect();
        let cache = self.cache.borrow();
        let columns: Vec<&[Value]> =
            names.iter().map(|&name| cache.columns[&(name, attr)].values()).collect();
        val_a(&columns)
    }

    /// Makes sure the column `attr` of relation `name` is known: level 0 of
    /// a held trie that starts with `attr`, else of the index cache's trie
    /// of `attr` followed by the relation's other attributes in stored
    /// order, else computed off the relation. `false` when the relation is
    /// missing or has no such column.
    fn column(&self, name: &'a str, attr: Attr) -> bool {
        let mut cache = self.cache.borrow_mut();
        if cache.columns.contains_key(&(name, attr)) {
            return true;
        }
        let Ok(rel) = self.db.get(name) else { return false };
        let stored = rel.schema().attrs();
        let induced: Vec<Attr> =
            std::iter::once(attr).chain(stored.iter().copied().filter(|&a| a != attr)).collect();
        if let Some(trie) = self.cached(name, &induced) {
            cache.columns.insert((name, attr), Column::Level0(trie));
            return true;
        }
        match rel.column_values(attr) {
            Ok(values) => {
                cache.columns.insert((name, attr), Column::Values(values));
                true
            }
            Err(_) => false,
        }
    }

    /// Estimated number of bindings over the attribute set `attrs_mask`
    /// (`|T_{v_i}|` for a traversal prefix): the sub-join of the atoms fully
    /// contained in the prefix, times `|val(A)|` for prefix attributes no
    /// contained atom constrains.
    pub fn prefix_cardinality(&self, attrs_mask: u64) -> f64 {
        if attrs_mask == 0 {
            return 1.0;
        }
        let mut contained = 0u64;
        let mut covered_attrs = 0u64;
        for (i, atom) in self.query.atoms.iter().enumerate() {
            let m = atom.schema.mask();
            if m & !attrs_mask == 0 {
                contained |= 1 << i;
                covered_attrs |= m;
            }
        }
        let mut card = self.subjoin_cardinality(contained);
        let uncovered = attrs_mask & !covered_attrs;
        for a in 0..self.val_sizes.len() {
            if uncovered & (1 << a) != 0 {
                card *= self.val_size(a);
            }
        }
        card
    }

    /// Estimated tuple count of a plan relation, priced post-binding: a
    /// relation touching bound attributes is filtered before it is ever
    /// shuffled, so its cost-relevant size is the filtered one.
    pub fn relation_size(&self, rel: &PlanRelation) -> f64 {
        let raw = match rel {
            PlanRelation::Base(i) => {
                self.db.get(&self.query.atoms[*i].name).map(|r| r.len() as f64).unwrap_or(0.0)
            }
            PlanRelation::Precomputed { node, .. } => {
                self.subjoin_cardinality(self.tree.nodes[*node].edges)
            }
        };
        self.bound_discount(rel.schema(self.query).mask(), raw)
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
            num_workers: self.cluster.num_workers,
            memory_limit_bytes: self.cluster.memory_limit_bytes,
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
                let fullest = input.max_cube_tuples(&p) * self.cluster.num_workers as f64;
                let secs = total.max(fullest) / self.cluster.alpha_tuples_per_sec;
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
                limit: self.cluster.memory_limit_bytes.unwrap_or(0),
            });
        }
        Ok(p.into_iter().collect())
    }

    /// `costM(Rv)`: pre-computing seconds for bag `node` — shuffle λ(v)'s
    /// relations once plus parallel join work proportional to input+output.
    pub fn cost_m(&self, node: usize) -> f64 {
        let bag = &self.tree.nodes[node];
        let mut input_tuples = 0.0;
        for i in bag.edge_indices() {
            let atom = &self.query.atoms[i];
            let raw = self.db.get(&atom.name).map(|r| r.len() as f64).unwrap_or(0.0);
            input_tuples += self.bound_discount(atom.schema.mask(), raw);
        }
        let output = self.subjoin_cardinality(bag.edges);
        let comm = input_tuples / self.cluster.alpha_tuples_per_sec;
        let workers = self.cluster.num_workers as f64;
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
        bindings / (beta * self.cluster.num_workers as f64)
    }

    /// Attribute ordering heuristic inside a node: ascending `|val(A)|`
    /// (most selective first), the rule \[11\] uses for its own order picks.
    pub fn order_attrs_by_selectivity(&self, attrs: &mut [Attr]) {
        attrs.sort_by(|a, b| {
            self.val_size(a.index()).partial_cmp(&self.val_size(b.index())).unwrap().then(a.cmp(b))
        });
    }

    /// Scores a complete attribute order by the estimated total number of
    /// intermediate bindings `Σ_i |T_i|` (what Fig. 8 counts), using the
    /// sampling-backed prefix estimates.
    pub fn score_order(&self, order: &[Attr]) -> f64 {
        let mut score = 0.0;
        let mut prefix = 0u64;
        for &a in &order[..order.len().saturating_sub(1)] {
            prefix |= a.mask();
            score += self.prefix_cardinality(prefix);
        }
        score
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
    /// Used by the communication-first baseline's "All-Selected" search.
    pub fn score_order_cheap(&self, order: &[Attr]) -> f64 {
        let mut score = 0.0;
        let mut prefix = 0u64;
        for &a in &order[..order.len().saturating_sub(1)] {
            prefix |= a.mask();
            score += self.prefix_cardinality_sketch(prefix);
        }
        score
    }
}

/// Result alias re-exported for optimizer use.
pub type CostResult<T> = Result<T>;

#[cfg(test)]
mod tests {
    use super::*;
    use adj_cluster::TransportKind;
    use adj_hcube::optimize_share;
    use adj_query::{paper_query, GhdTree, PaperQuery};
    use adj_relational::{Relation, Value};

    /// Four workers at α = 10⁷ tuples/s, no memory budget.
    static CLUSTER: ClusterConfig = ClusterConfig {
        num_workers: 4,
        alpha_tuples_per_sec: 1e7,
        memory_limit_bytes: None,
        transport: TransportKind::InProcess,
    };
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
        let tight = ClusterConfig { memory_limit_bytes: Some(8), ..ClusterConfig::default() };
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
            num_workers: CLUSTER.num_workers,
            memory_limit_bytes: None,
            bytes_per_value: 4,
            hot: Vec::new(),
            require_exact_product: false,
            bound_mask: 0,
        };
        assert_eq!(p, optimize_share(&input).unwrap());
        assert_eq!(secs, input.comm_cost(&p) as f64 / CLUSTER.alpha_tuples_per_sec);
    }

    #[test]
    fn bound_attrs_shrink_priced_sizes_and_costs() {
        // The same shape, once free and once with `a` bound ($v literal
        // position): bound pricing must see smaller relation sizes for the
        // relations touching `a` and a cheaper communication charge.
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
        let rels_f: Vec<PlanRelation> = (0..free.atoms.len()).map(PlanRelation::Base).collect();
        let rels_b: Vec<PlanRelation> = (0..bound.atoms.len()).map(PlanRelation::Base).collect();
        // R1 touches the bound attribute: its priced size must shrink by
        // roughly |val(a)|; R2 (b,c only) must price identically.
        let r1_f = est_f.relation_size(&rels_f[0]);
        let r1_b = est_b.relation_size(&rels_b[0]);
        assert!(r1_b < r1_f / 2.0, "bound R1 priced {r1_b}, free {r1_f}");
        assert_eq!(est_f.relation_size(&rels_f[1]), est_b.relation_size(&rels_b[1]));
        let (cc_f, _) = est_f.cost_c(0);
        let (cc_b, _) = est_b.cost_c(0);
        assert!(cc_b < cc_f, "bound communication charge {cc_b} must undercut the free one {cc_f}");
    }

    #[test]
    fn val_sizes_ignore_relations_the_query_does_not_name() {
        // `|val(A)|` is a statistic of the query's own relations: a database
        // that also holds a small relation over attribute id 0 (the bound
        // `$v`) must price, order and discount exactly like one without it.
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
    fn order_scoring_prefers_constrained_prefixes() {
        let (db, q) = setup();
        let tree = GhdTree::decompose(&q.hypergraph(), 3);
        let est = estimator(&db, &q, &tree);
        // a,b,... starts with edge R1(a,b) constrained; a,c,... starts with
        // an unconstrained cross product — must score worse.
        let good = [Attr(0), Attr(1), Attr(2), Attr(3), Attr(4)];
        let bad = [Attr(0), Attr(2), Attr(4), Attr(1), Attr(3)];
        assert!(est.score_order(&good) <= est.score_order(&bad));
    }
}
