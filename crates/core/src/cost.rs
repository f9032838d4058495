//! The ADJ cost model (Sec. III-B, "Computing the Cost").
//!
//! Three cost components, all in (modeled) seconds:
//!
//! * `costC(C)` — communication: solve the HCube share program for the
//!   rewritten query's relations and charge `Σ_R |R|·dup(R,p) / α`;
//! * `costM(Rv)` — pre-computing: shuffle λ(v)'s relations plus the join
//!   work producing the bag;
//! * `costE^i(C, O)` — computation of the step extending into the `i`-th
//!   traversed node: `|T_{v_{i-1}}| / (β_i · N*)`, where β_i is much higher
//!   when `v_i` is pre-computed (one trie probe instead of several
//!   intersections, and no dead-end bindings inside the bag).
//!
//! Cardinalities come from the sampling estimator. Algorithm 2 revisits the
//! same atom subsets, relations and pre-compute sets many times, so one
//! [`CostEstimator`] keeps everything it derives from the data — column
//! value sets, sampling tries, sub-join cardinalities, solved share programs
//! — in a single cache that lives exactly as long as the `optimize` call.

use crate::plan::{OptimizerStats, PlanRelation, QueryPlan};
use adj_hcube::{optimize_share, ShareInput};
use adj_query::lp::solve_min_max;
use adj_query::{GhdTree, JoinQuery};
use adj_relational::hash::FxHashMap;
use adj_relational::{Attr, Database, Result, Trie, Value};
use adj_sampling::{
    connected_order, detect_heavy_hitters, val_a, CardinalityEstimate, Sampler, SamplingConfig,
    SkewConfig, SkewProfile,
};
use std::cell::RefCell;
use std::collections::hash_map::Entry;
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
    /// from the sampling run). On by default. Turn off to make planning a
    /// pure function of the data: the measured rate moves with machine
    /// load, so near-tie attribute orders can flip between otherwise
    /// identical runs — exactly what plan-comparison tests and
    /// overhead-gating benchmarks must not be exposed to.
    pub measure_beta: bool,
}

impl Default for CostParams {
    fn default() -> Self {
        CostParams {
            beta_trie: 4.0e7,
            beta_extend: 4.0e6,
            join_tuples_per_sec: 2.0e7,
            measure_beta: true,
        }
    }
}

/// What one `optimize` call has derived from the data and may need again.
/// Atoms are keyed by their index in the query.
#[derive(Default)]
struct Artifacts {
    /// (atom, attribute) → the column's sorted distinct values: the source
    /// of both `|val(A)|` and every sampled sub-join's `val(A)`. Filled at
    /// construction; an atom whose relation is missing has no entries.
    columns: FxHashMap<(usize, Attr), Vec<Value>>,
    /// (atom, column order) → the relation's sampling trie.
    tries: FxHashMap<(usize, Vec<Attr>), Arc<Trie>>,
    /// atom-set mask → estimated cardinality of the sub-join.
    cardinalities: FxHashMap<u64, f64>,
    /// pre-compute mask → `costC` of the rewritten query and its share.
    comm: FxHashMap<u64, (f64, Vec<u32>)>,
    stats: OptimizerStats,
}

impl Artifacts {
    /// `val(attr)` over the atoms in `atoms`: the intersection of the
    /// `attr`-columns of those that have one.
    fn val_a(&self, atoms: impl Iterator<Item = usize>, attr: Attr) -> Vec<Value> {
        let columns: Vec<&[Value]> =
            atoms.filter_map(|i| self.columns.get(&(i, attr))).map(Vec::as_slice).collect();
        val_a(&columns)
    }
}

/// Sampling-backed cost estimator. What it derives from the data is memoized
/// for its lifetime — one `optimize` call.
pub struct CostEstimator<'a> {
    db: &'a Database,
    query: &'a JoinQuery,
    tree: &'a GhdTree,
    params: CostParams,
    alpha: f64,
    n_workers: usize,
    memory_limit_bytes: Option<usize>,
    sampling: SamplingConfig,
    cache: RefCell<Artifacts>,
    /// attr id → |val(A)|, over the query's relations.
    val_sizes: Vec<f64>,
    /// Attributes every execution of this query binds to a single value
    /// (inline literals + `$name` parameters). Relations touching them are
    /// filtered down before shuffling, so their *priced* sizes shrink by
    /// the bound attributes' selectivity — and the share program drops the
    /// bound dimensions from its grid.
    bound_mask: u64,
    /// Heavy-hitter statistics of the query's relations (sampled once at
    /// construction) — feeds the max-partition term of `costC`.
    skew: SkewProfile,
    /// β measured from sampling runs (extensions/sec), once available.
    beta_measured: RefCell<Option<f64>>,
}

impl<'a> CostEstimator<'a> {
    /// Creates an estimator for `query` over `db` with hypertree `tree`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        db: &'a Database,
        query: &'a JoinQuery,
        tree: &'a GhdTree,
        params: CostParams,
        alpha: f64,
        n_workers: usize,
        memory_limit_bytes: Option<usize>,
        sampling: SamplingConfig,
        skew_cfg: SkewConfig,
    ) -> Self {
        let mut cache = Artifacts::default();
        for (i, atom) in query.atoms.iter().enumerate() {
            let Ok(rel) = db.get(&atom.name) else { continue };
            for &a in atom.schema.attrs() {
                if let Ok(values) = rel.column_values(a) {
                    cache.columns.insert((i, a), values);
                }
            }
        }
        let val_sizes = (0..query.num_attrs() as u32)
            .map(|a| (cache.val_a(0..query.atoms.len(), Attr(a)).len() as f64).max(1.0))
            .collect();
        let skew = detect_heavy_hitters(db, query, &skew_cfg);
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
            alpha,
            n_workers,
            memory_limit_bytes,
            sampling,
            cache: RefCell::new(cache),
            val_sizes,
            bound_mask,
            skew,
            beta_measured: RefCell::new(None),
        }
    }

    /// The query's bound-attribute mask (literal + parameter positions).
    pub fn bound_mask(&self) -> u64 {
        self.bound_mask
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
        for (a, val) in self.val_sizes.iter().enumerate() {
            if touched & (1u64 << a) != 0 {
                discounted /= val;
            }
        }
        discounted.max(1.0)
    }

    /// The sampled heavy-hitter statistics of the query's relations.
    pub fn skew_profile(&self) -> &SkewProfile {
        &self.skew
    }

    /// Per-relation `(attribute id, hottest fraction)` lists for `rels`,
    /// aligned with `rels` — the skew side-channel of the share program.
    /// Pre-computed bags contribute no entries (their value distribution is
    /// unknown until materialization; the share program stays conservative
    /// about what it knows).
    fn hot_fractions(&self, rels: &[PlanRelation]) -> Vec<Vec<(u32, f64)>> {
        rels.iter()
            .map(|r| match r {
                PlanRelation::Base(i) => {
                    let atom = &self.query.atoms[*i];
                    atom.schema
                        .attrs()
                        .iter()
                        .filter_map(|&a| {
                            let f = self.skew.max_fraction(&atom.name, a);
                            (f > 0.0).then_some((a.0, f))
                        })
                        .collect()
                }
                PlanRelation::Precomputed { .. } => Vec::new(),
            })
            .collect()
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
                if let (true, Some(beta)) = (self.params.measure_beta, est.beta) {
                    let mut m = self.beta_measured.borrow_mut();
                    *m = Some(match *m {
                        Some(prev) => 0.5 * (prev + beta),
                        None => beta,
                    });
                }
                est.cardinality.max(0.0)
            }
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
        let members: Vec<usize> =
            (0..self.query.atoms.len()).filter(|i| atoms_mask & (1 << i) != 0).collect();
        let order = connected_order(members.iter().map(|&i| &self.query.atoms[i].schema));
        let mut cache = self.cache.borrow_mut();
        let Artifacts { tries: cached, stats, .. } = &mut *cache;
        let mut tries = Vec::with_capacity(members.len());
        for &i in &members {
            let rel = self.db.get(&self.query.atoms[i].name)?;
            let columns: Vec<Attr> =
                order.iter().copied().filter(|a| rel.schema().contains(*a)).collect();
            tries.push(match cached.entry((i, columns)) {
                Entry::Occupied(hit) => {
                    stats.tries_reused += 1;
                    Arc::clone(hit.get())
                }
                Entry::Vacant(miss) => {
                    let trie = Arc::new(rel.trie_under_order(&order)?);
                    stats.tries_built += 1;
                    Arc::clone(miss.insert(trie))
                }
            });
        }
        let values = cache.val_a(members.iter().copied(), order[0]);
        drop(cache);
        Sampler::from_parts(&order, tries, values)?.estimate(&self.sampling)
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
                card *= self.val_sizes[a];
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
    /// The charge is **max-partition aware**: a shuffle's wall-clock is set
    /// by its fullest partition, so the seconds charged are
    /// `max(total, max_cube · N*) / α` with the fullest cube estimated from
    /// the sampled heavy-hitter fractions — under uniform data this is the
    /// paper's `total / α` exactly, under skew it surfaces the hot-spot
    /// latency cliff the total-only model hides.
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
            num_workers: self.n_workers,
            memory_limit_bytes: self.memory_limit_bytes,
            bytes_per_value: 4,
            hot: self.hot_fractions(&rels),
            require_exact_product: false,
            bound_mask: self.bound_mask,
        };
        let solved = match optimize_share(&input) {
            Ok(p) => {
                let total = input.comm_cost(&p) as f64;
                let hottest = input.max_cube_tuples(&p) * self.n_workers as f64;
                let secs = total.max(hottest) / self.alpha;
                (secs, p)
            }
            Err(_) => (f64::INFINITY, Vec::new()),
        };
        let mut cache = self.cache.borrow_mut();
        cache.stats.share_solves += 1;
        cache.comm.insert(c_mask, solved.clone());
        solved
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
        let comm = input_tuples / self.alpha;
        let comp =
            (input_tuples + output) / (self.params.join_tuples_per_sec * self.n_workers as f64);
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
        bindings / (beta * self.n_workers as f64)
    }

    /// Attribute ordering heuristic inside a node: ascending `|val(A)|`
    /// (most selective first), the rule \[11\] uses for its own order picks.
    pub fn order_attrs_by_selectivity(&self, attrs: &mut [Attr]) {
        attrs.sort_by(|a, b| {
            self.val_sizes[a.index()]
                .partial_cmp(&self.val_sizes[b.index()])
                .unwrap()
                .then(a.cmp(b))
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
                est *= self.val_sizes[a];
            }
        }
        for atom in &self.query.atoms {
            let m = atom.schema.mask();
            if m & !attrs_mask == 0 {
                let size = self.db.get(&atom.name).map(|r| r.len() as f64).unwrap_or(0.0).max(1e-9);
                let mut dom = 1.0f64;
                for &a in atom.schema.attrs() {
                    dom *= self.val_sizes[a.index()];
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

/// The fractional lower bound on the fullest-partition tuple load of any
/// share vector with `Π p_A ≤ N*` — the Beame–Koutris–Suciu share LP in
/// log-space, solved with the epigraph min-max reduction
/// ([`adj_query::lp::solve_min_max`]). No integer share (with a bijective
/// cube→worker map) can receive less on its fullest cube under uniform
/// hashing, so this is the yardstick the skew bench measures realized
/// partition fill against. `None` when the LP is degenerate (no relations).
pub fn fractional_max_cube_bound(input: &ShareInput) -> Option<f64> {
    if input.relations.is_empty() || input.num_attrs == 0 {
        return None;
    }
    let n = input.num_attrs;
    // Variables y_A = ln p_A ≥ 0. Rows: per relation, its log per-cube load
    // ln|R| − Σ_{A∈R} y_A. Constraint: Σ_A y_A ≤ ln N*.
    let rows: Vec<(Vec<f64>, f64)> = input
        .relations
        .iter()
        .map(|&(mask, size)| {
            let c: Vec<f64> =
                (0..n).map(|a| if mask & (1u64 << a) != 0 { -1.0 } else { 0.0 }).collect();
            (c, (size.max(1) as f64).ln())
        })
        .collect();
    let budget = vec![vec![-1.0; n]];
    let rhs = vec![-(input.num_workers.max(1) as f64).ln()];
    let (t, _) = solve_min_max(&rows, &budget, &rhs)?;
    Some(t.exp())
}

/// Result alias re-exported for optimizer use.
pub type CostResult<T> = Result<T>;

#[cfg(test)]
mod tests {
    use super::*;
    use adj_query::{paper_query, GhdTree, PaperQuery};
    use adj_relational::{Relation, Value};

    fn setup() -> (Database, JoinQuery) {
        let q = paper_query(PaperQuery::Q4);
        let edges: Vec<(Value, Value)> = (0..200u32)
            .flat_map(|i| vec![(i % 37, (i * 7 + 1) % 37), ((i * 3) % 37, (i * 5 + 2) % 37)])
            .collect();
        let g = Relation::from_pairs(Attr(0), Attr(1), &edges);
        (q.instantiate(&g), q)
    }

    fn estimator<'a>(db: &'a Database, q: &'a JoinQuery, tree: &'a GhdTree) -> CostEstimator<'a> {
        CostEstimator::new(
            db,
            q,
            tree,
            CostParams::default(),
            1e7,
            4,
            None,
            SamplingConfig { samples: 128, seed: 5 },
            SkewConfig::default(),
        )
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
        let mut est = estimator(&db, &q, &tree);
        est.memory_limit_bytes = Some(8);
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
        let est = estimator(&db, &q, &tree);
        let prefix = 0b00111; // bindings over a,b,c
        let plain = est.cost_e_step(prefix, false);
        let pre = est.cost_e_step(prefix, true);
        assert!(pre < plain, "pre={pre} plain={plain}");
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
    fn skew_profile_feeds_cost_c() {
        let q = paper_query(PaperQuery::Q1);
        // A hub value (7) dominating both columns of every edge relation.
        let mut pairs: Vec<(Value, Value)> = (0..300u32).map(|i| (7, i % 40 + 10)).collect();
        pairs.extend((0..100u32).map(|i| (i % 40 + 10, 7)));
        let db = q.instantiate(&Relation::from_pairs(Attr(0), Attr(1), &pairs));
        let tree = GhdTree::decompose(&q.hypergraph(), 3);
        let est = estimator(&db, &q, &tree);
        assert!(!est.skew_profile().is_empty());
        assert!(
            est.skew_profile().max_fraction(&q.atoms[0].name, Attr(0)) > 0.0,
            "the hub must surface on attribute a"
        );
        // cost_c stays finite and produces a full share vector under skew.
        let (secs, p) = est.cost_c(0);
        assert!(secs.is_finite() && secs > 0.0);
        assert_eq!(p.len(), q.num_attrs());
    }

    #[test]
    fn skew_raises_the_communication_charge() {
        let q = paper_query(PaperQuery::Q7);
        let n = 300u32;
        let uniform_pairs: Vec<(Value, Value)> =
            (0..n).map(|i| (i, 1000 + (i * 7) % 150)).collect();
        // Same cardinality, but one b-value carries 80% of the tuples: no
        // hash partitioning of b can split a single value, so the fullest
        // partition (and the skew-aware charge) must rise.
        let mut hub_pairs: Vec<(Value, Value)> = (0..n * 4 / 5).map(|i| (i, 777)).collect();
        hub_pairs.extend((n * 4 / 5..n).map(|i| (i, 1000 + (i * 7) % 150)));
        let db_u = q.instantiate(&Relation::from_pairs(Attr(0), Attr(1), &uniform_pairs));
        let db_s = q.instantiate(&Relation::from_pairs(Attr(0), Attr(1), &hub_pairs));
        let tree = GhdTree::decompose(&q.hypergraph(), 3);
        let (secs_u, _) = estimator(&db_u, &q, &tree).cost_c(0);
        let (secs_s, _) = estimator(&db_s, &q, &tree).cost_c(0);
        let sized = |db: &Database| -> usize {
            q.atoms.iter().map(|a| db.get(&a.name).unwrap().len()).sum()
        };
        // Normalize per tuple: the skewed database must be charged more
        // seconds per shuffled tuple — its fullest partition dominates.
        let per_u = secs_u / sized(&db_u) as f64;
        let per_s = secs_s / sized(&db_s) as f64;
        assert!(
            per_s > per_u * 1.2,
            "skewed per-tuple charge {per_s:e} must exceed uniform {per_u:e}"
        );
    }

    #[test]
    fn fractional_bound_is_a_lower_bound_for_exact_shares() {
        let input = ShareInput {
            num_attrs: 3,
            relations: vec![(0b011, 5_000), (0b110, 5_000), (0b101, 5_000)],
            num_workers: 8,
            memory_limit_bytes: None,
            bytes_per_value: 4,
            hot: Vec::new(),
            require_exact_product: true,
            bound_mask: 0,
        };
        let bound = fractional_max_cube_bound(&input).unwrap();
        assert!(bound > 0.0);
        let p = optimize_share(&input).unwrap();
        assert!(
            input.max_cube_tuples(&p) + 1e-6 >= bound,
            "integer fullest-cube load {} can never beat the LP bound {bound}",
            input.max_cube_tuples(&p)
        );
        // For the symmetric triangle on 8 workers the fractional share is
        // p = (2,2,2) and the bound is one relation's per-cube load |R|/4
        // (the LP bounds the largest single-relation contribution).
        assert!((bound - 5_000.0 / 4.0).abs() < 1.0, "bound={bound}");
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
        assert!(est_c.val_sizes[0] > 2.0, "the unrelated relation would have shrunk |val(a)|");
        assert_eq!(est_c.val_sizes, est_n.val_sizes);
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
