//! The single-machine sampling estimator (Eq. (4) + Lemma 2).
//!
//! An estimate draws `k` values of `val(A)` uniformly with replacement and
//! scales the summed `|T_{A=a}|` by `|val(A)| / k`. Once `k` reaches half
//! of `|val(A)|`, a fifth of the draws or more repeat a value drawn before,
//! so the draws are grouped ([`group_draws`]) into distinct values with their
//! multiplicities, and each distinct value's subtree is walked once and
//! weighted by how often it was drawn
//! ([`LeapfrogJoin::count_first_values`]). The draws are the same, in the
//! same order, from the same seed, and the counts are integers summed
//! exactly, so the estimate — cardinality, per-level tuples, extensions —
//! is bit-identical to counting every draw on its own.

use adj_leapfrog::{JoinScratch, LeapfrogJoin};
use adj_query::JoinQuery;
use adj_relational::{Attr, Database, Error, Result, Schema, Trie, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

/// Sampling configuration.
#[derive(Debug, Clone, Copy)]
pub struct SamplingConfig {
    /// Number of sampled `val(A)` values `k`. The paper uses 10⁵ by default.
    pub samples: usize,
    /// RNG seed (experiments are deterministic given the seed).
    pub seed: u64,
}

impl Default for SamplingConfig {
    fn default() -> Self {
        SamplingConfig { samples: 1024, seed: 0xAD10_u64 }
    }
}

/// `k = ⌈0.5·p⁻²·ln(2/δ)⌉` — samples needed for error ≤ `p·b` at confidence
/// `1-δ` (Lemma 2 / generalized Chernoff–Hoeffding).
pub fn required_samples(p: f64, delta: f64) -> usize {
    assert!(p > 0.0 && p <= 1.0 && delta > 0.0 && delta < 1.0);
    (0.5 * p.powi(-2) * (2.0 / delta).ln()).ceil() as usize
}

/// The result of a sampling run.
#[derive(Debug, Clone)]
pub struct CardinalityEstimate {
    /// Estimated `|T|`.
    pub cardinality: f64,
    /// Estimated per-level binding counts `|T_i|` of a full Leapfrog run
    /// under the same order (scaled from sampled counters).
    pub level_tuples: Vec<f64>,
    /// `|val(A)|` of the sampled attribute.
    pub val_a: usize,
    /// Samples actually drawn (0 if `val(A)` was empty).
    pub samples_used: usize,
    /// Distinct values among them: each is counted once and weighted by
    /// how often it was drawn. A distributed run sums its workers' distinct
    /// values (a value drawn on two workers is counted on both).
    pub distinct_samples: usize,
    /// Total extension operations performed while sampling.
    pub extensions: u64,
    /// Wall-clock seconds of the sampling loop.
    pub elapsed_secs: f64,
    /// Measured extension rate β = extensions / elapsed (extensions/sec).
    /// `None` when elapsed time was too small to measure reliably.
    pub beta: Option<f64>,
}

impl CardinalityEstimate {
    /// A zero estimate (empty `val(A)` — the join is provably empty).
    fn zero(levels: usize, val_a: usize) -> Self {
        CardinalityEstimate {
            cardinality: 0.0,
            level_tuples: vec![0.0; levels],
            val_a,
            samples_used: 0,
            distinct_samples: 0,
            extensions: 0,
            elapsed_secs: 0.0,
            beta: None,
        }
    }
}

/// A reusable sampler bound to a query + attribute order: tries are built
/// (or handed in) once, then arbitrarily many estimates can be drawn. The
/// tries are shared handles, so a caller sampling many sub-joins of one
/// query builds each (relation, column order) index once.
pub struct Sampler {
    order: Vec<Attr>,
    tries: Vec<Arc<Trie>>,
    values: Vec<Value>,
}

impl Sampler {
    /// Builds tries for the query's relations under `order` and computes
    /// `val(A)` for the first attribute of the order.
    pub fn new(db: &Database, query: &JoinQuery, order: &[Attr]) -> Result<Self> {
        let &first = order.first().ok_or(Error::EmptyOrder)?;
        let mut tries = Vec::with_capacity(query.atoms.len());
        for atom in &query.atoms {
            tries.push(Arc::new(db.get(&atom.name)?.trie_under_order(order)?));
        }
        let columns: Vec<Vec<Value>> = query
            .atoms
            .iter()
            .filter(|atom| atom.schema.contains(first))
            .map(|atom| db.get(&atom.name)?.column_values(first))
            .collect::<Result<_>>()?;
        let values = val_a(&columns.iter().map(Vec::as_slice).collect::<Vec<_>>());
        Sampler::from_parts(order, tries, values)
    }

    /// A sampler over indexes its caller already holds: one trie per atom,
    /// each under the column order `order` induces on it, and `val(A)` of
    /// `order[0]` (see [`val_a`]).
    pub fn from_parts(order: &[Attr], tries: Vec<Arc<Trie>>, values: Vec<Value>) -> Result<Self> {
        if order.is_empty() {
            return Err(Error::EmptyOrder);
        }
        Ok(Sampler { order: order.to_vec(), tries, values })
    }

    /// `val(A)` of the first attribute.
    pub fn val_a(&self) -> &[Value] {
        &self.values
    }

    /// Draws a cardinality estimate with `cfg.samples` samples: the three
    /// steps below ([`Sampler::draw`], [`Sampler::count`] over every draw,
    /// [`Sampler::finish`]) run on the calling thread.
    pub fn estimate(&self, cfg: &SamplingConfig) -> Result<CardinalityEstimate> {
        let draws = self.draw(cfg);
        let mut tally = Tally::default();
        if !draws.grouped.is_empty() {
            let join = self.join()?;
            Sampler::count(&join, &draws.grouped, &mut JoinScratch::new(), &mut tally);
        }
        Ok(self.finish(&draws, &tally))
    }

    /// The first step of an estimate: `cfg.samples` values of `val(A)`
    /// drawn from `cfg.seed`, grouped ([`group_draws`]). None when
    /// `val(A)` is empty.
    pub fn draw(&self, cfg: &SamplingConfig) -> Draws {
        if self.values.is_empty() {
            return Draws { grouped: Vec::new(), k: 0 };
        }
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let k = cfg.samples.max(1);
        let drawn = (0..k).map(|_| self.values[rng.gen_range(0..self.values.len())]).collect();
        Draws { grouped: group_draws(drawn), k }
    }

    /// The join the draws are counted over: the sampler's tries under its
    /// order.
    pub fn join(&self) -> Result<LeapfrogJoin<&Trie>> {
        LeapfrogJoin::new(&self.order, self.tries.iter().map(Arc::as_ref).collect())
    }

    /// The second step, on any slice of the grouped draws (a morsel): adds
    /// `Σ m · |T_{A=a}|`, the weighted per-level tuples, the values counted
    /// and the seconds it took to `tally`. The counts are integers, so the
    /// tallies of any split of the draws add up to the whole draws' to the
    /// bit.
    pub fn count(
        join: &LeapfrogJoin<&Trie>,
        draws: &[(Value, u64)],
        scratch: &mut JoinScratch,
        tally: &mut Tally,
    ) {
        let t0 = Instant::now();
        let (sum, counters) = join.count_first_values(draws, scratch);
        tally.secs += t0.elapsed().as_secs_f64();
        tally.add_counts(sum, &counters.tuples_per_level, draws.len());
    }

    /// The last step: the estimate `draws`, counted into `tally`, make.
    /// Its β is the extensions over the seconds the counting took, summed
    /// over whichever threads counted.
    pub fn finish(&self, draws: &Draws, tally: &Tally) -> CardinalityEstimate {
        if draws.k == 0 {
            return CardinalityEstimate::zero(self.order.len(), 0);
        }
        let scale = self.values.len() as f64 / draws.k as f64;
        let extensions = tally.tuples();
        CardinalityEstimate {
            cardinality: tally.sum as f64 * scale,
            level_tuples: tally.tuples.iter().map(|&t| t as f64 * scale).collect(),
            val_a: self.values.len(),
            samples_used: draws.k,
            distinct_samples: tally.values,
            extensions,
            elapsed_secs: tally.secs,
            beta: if tally.secs > 1e-9 && extensions > 0 {
                Some(extensions as f64 / tally.secs)
            } else {
                None
            },
        }
    }
}

/// The draws of one estimate ([`Sampler::draw`]).
#[derive(Debug, Clone)]
pub struct Draws {
    /// Ascending distinct drawn values with their multiplicities.
    pub grouped: Vec<(Value, u64)>,
    /// Values drawn, `k` (0 when `val(A)` is empty).
    k: usize,
}

/// What counting some of an estimate's draws added up
/// ([`Sampler::count`]), starting from [`Tally::default`]; [`Tally::add`]
/// sums the tallies of a split.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// `Σ m · |T_{A=a}|` over the counted draws.
    sum: u64,
    /// Per-level bindings, weighted by multiplicity.
    tuples: Vec<u64>,
    /// Distinct values counted.
    values: usize,
    /// Seconds spent counting.
    secs: f64,
}

impl Tally {
    /// Adds the counts of `other`, over the same join.
    pub fn add(&mut self, other: &Tally) {
        self.add_counts(other.sum, &other.tuples, other.values);
        self.secs += other.secs;
    }

    fn add_counts(&mut self, sum: u64, tuples: &[u64], values: usize) {
        self.sum += sum;
        if self.tuples.len() < tuples.len() {
            self.tuples.resize(tuples.len(), 0);
        }
        for (total, &t) in self.tuples.iter_mut().zip(tuples) {
            *total += t;
        }
        self.values += values;
    }

    /// Per-level bindings counted so far (weighted by multiplicity).
    pub fn tuples(&self) -> u64 {
        self.tuples.iter().sum()
    }
}

/// Sorts drawn values into ascending distinct `(value, multiplicity)`
/// pairs — the form [`LeapfrogJoin::count_first_values`] counts them in.
pub fn group_draws(mut draws: Vec<Value>) -> Vec<(Value, u64)> {
    draws.sort_unstable();
    let mut grouped: Vec<(Value, u64)> = Vec::with_capacity(draws.len());
    for v in draws {
        match grouped.last_mut() {
            Some((last, m)) if *last == v => *m += 1,
            _ => grouped.push((v, 1)),
        }
    }
    grouped
}

/// `val(A)` from the sorted distinct `A`-columns of the relations that
/// contain `A`: their intersection (empty when no relation does).
pub fn val_a(columns: &[&[Value]]) -> Vec<Value> {
    let mut out = Vec::new();
    adj_relational::intersect::leapfrog_intersect(columns, &mut out);
    out
}

/// The attribute order a sub-join is *sampled* under, from its atoms'
/// schemas. The lowest attribute id stays first, so the sampled attribute
/// `A` is the one ascending ids would pick — same `val(A)`, same draws, same
/// integer counts `|T_{A=a}|`, which do not depend on the order of the
/// attributes after `A`. Every later position takes the lowest-id attribute
/// that shares an atom with the ones before it, so each Leapfrog level is
/// constrained by the bound prefix instead of walking a whole `val(·)` per
/// binding. Only a disconnected remainder (a true cross product) falls back
/// to the lowest remaining id.
pub fn connected_order<'a>(schemas: impl IntoIterator<Item = &'a Schema>) -> Vec<Attr> {
    let schemas: Vec<u64> = schemas.into_iter().map(Schema::mask).collect();
    let all = schemas.iter().fold(0u64, |m, s| m | s);
    let mut order = Vec::with_capacity(all.count_ones() as usize);
    let mut bound = 0u64;
    while bound != all {
        let reachable =
            schemas.iter().filter(|&&s| s & bound != 0).fold(0u64, |m, s| m | s) & !bound;
        let pool = if reachable != 0 { reachable } else { all & !bound };
        let next = Attr(pool.trailing_zeros());
        order.push(next);
        bound |= next.mask();
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use adj_query::{paper_query, PaperQuery};
    use adj_relational::Relation;

    fn tri_db(n: u32) -> (Database, JoinQuery) {
        let q = paper_query(PaperQuery::Q1);
        let edges: Vec<(Value, Value)> = (0..n)
            .flat_map(|i| vec![(i % 31, (i * 7 + 1) % 31), (i % 31, (i * 11 + 3) % 31)])
            .collect();
        let g = Relation::from_pairs(Attr(0), Attr(1), &edges);
        (q.instantiate(&g), q)
    }

    fn order3() -> Vec<Attr> {
        vec![Attr(0), Attr(1), Attr(2)]
    }

    #[test]
    fn required_samples_formula() {
        // p=0.1, δ=0.05 → 0.5·100·ln(40) ≈ 184.4 → 185
        assert_eq!(required_samples(0.1, 0.05), 185);
        assert!(required_samples(0.01, 0.05) > required_samples(0.1, 0.05));
    }

    #[test]
    fn full_sampling_is_exact() {
        // Sampling every value many times converges to the true count; with
        // enough samples the estimate is within a small relative error.
        let (db, q) = tri_db(200);
        let sampler = Sampler::new(&db, &q, &order3()).unwrap();
        let est = sampler.estimate(&SamplingConfig { samples: 4096, seed: 7 }).unwrap();
        // ground truth via leapfrog
        let tries: Vec<Trie> = q
            .atoms
            .iter()
            .map(|a| db.get(&a.name).unwrap().trie_under_order(&order3()).unwrap())
            .collect();
        let truth = LeapfrogJoin::new(&order3(), tries.iter().collect()).unwrap().count().0 as f64;
        assert!(truth > 0.0);
        let d = (est.cardinality.max(truth)) / (est.cardinality.min(truth));
        assert!(d < 1.2, "estimate {} vs truth {} (D={d})", est.cardinality, truth);
    }

    #[test]
    fn estimate_is_deterministic_given_seed() {
        let (db, q) = tri_db(100);
        let sampler = Sampler::new(&db, &q, &order3()).unwrap();
        let cfg = SamplingConfig { samples: 64, seed: 42 };
        let a = sampler.estimate(&cfg).unwrap();
        let b = sampler.estimate(&cfg).unwrap();
        assert_eq!(a.cardinality, b.cardinality);
        assert_eq!(a.level_tuples, b.level_tuples);
    }

    #[test]
    fn empty_val_a_short_circuits() {
        let q = paper_query(PaperQuery::Q1);
        let mut db = Database::new();
        // R1 and R3 share attribute a, but with disjoint a-values.
        db.insert("R1", Relation::from_pairs(Attr(0), Attr(1), &[(1, 2)]));
        db.insert("R2", Relation::from_pairs(Attr(1), Attr(2), &[(2, 3)]));
        db.insert("R3", Relation::from_pairs(Attr(0), Attr(2), &[(9, 3)]));
        let sampler = Sampler::new(&db, &q, &order3()).unwrap();
        assert!(sampler.val_a().is_empty());
        let est = sampler.estimate(&SamplingConfig::default()).unwrap();
        assert_eq!(est.cardinality, 0.0);
        assert_eq!(est.samples_used, 0);
    }

    #[test]
    fn val_a_intersects_the_columns() {
        // A appears in one relation as {1,2,4} and in another as {1,4,5}.
        assert_eq!(val_a(&[&[1, 2, 4], &[1, 4, 5]]), vec![1, 4]);
        assert_eq!(val_a(&[&[3, 6]]), vec![3, 6]);
        assert!(val_a(&[]).is_empty(), "no relation contains A");
    }

    #[test]
    fn empty_order_is_a_typed_error() {
        let (db, q) = tri_db(20);
        assert_eq!(Sampler::new(&db, &q, &[]).err(), Some(Error::EmptyOrder));
        assert_eq!(Sampler::from_parts(&[], Vec::new(), Vec::new()).err(), Some(Error::EmptyOrder));
    }

    #[test]
    fn shared_parts_estimate_like_the_owning_constructor() {
        let (db, q) = tri_db(150);
        let cfg = SamplingConfig { samples: 128, seed: 9 };
        let owned = Sampler::new(&db, &q, &order3()).unwrap();
        let tries = q
            .atoms
            .iter()
            .map(|a| Arc::new(db.get(&a.name).unwrap().trie_under_order(&order3()).unwrap()))
            .collect();
        let shared = Sampler::from_parts(&order3(), tries, owned.val_a().to_vec()).unwrap();
        let (a, b) = (owned.estimate(&cfg).unwrap(), shared.estimate(&cfg).unwrap());
        assert_eq!(a.cardinality.to_bits(), b.cardinality.to_bits());
        assert_eq!(a.level_tuples, b.level_tuples);
    }

    #[test]
    fn connected_order_keeps_a_and_never_skips_a_connected_attribute() {
        // Every non-empty atom subset of Q1–Q6, connected or not.
        for pq in PaperQuery::EVALUATED {
            let q = paper_query(pq);
            for mask in 1u32..1 << q.atoms.len() {
                let atoms = (0..q.atoms.len())
                    .filter(|i| mask & (1 << i) != 0)
                    .map(|i| q.atoms[i].clone())
                    .collect();
                let sub = JoinQuery::new("sub", atoms);
                let order = connected_order(sub.atoms.iter().map(|a| &a.schema));
                let mut sorted = order.clone();
                sorted.sort();
                assert_eq!(sorted, sub.attrs(), "a permutation of the sub-join's attributes");
                assert_eq!(order[0], sub.attrs()[0], "the sampled attribute stays");
                let touches = |bound: u64, a: Attr| {
                    sub.atoms
                        .iter()
                        .any(|at| at.schema.contains(a) && at.schema.mask() & bound != 0)
                };
                let mut bound = order[0].mask();
                for (i, &next) in order.iter().enumerate().skip(1) {
                    let connected: Vec<Attr> =
                        order[i..].iter().copied().filter(|&a| touches(bound, a)).collect();
                    let want = connected.iter().min().or(order[i..].iter().min());
                    assert_eq!(Some(&next), want, "{} {mask:#b}: {order:?} at {i}", pq.name());
                    bound |= next.mask();
                }
            }
        }
        // The sub-join the ascending-id order was slowest on: R4(d,e), R6(b,e)
        // must bind e (shared with b) before d.
        let sub = JoinQuery::from_edges("sub", &[(3, 4), (1, 4)]);
        let order = connected_order(sub.atoms.iter().map(|a| &a.schema));
        assert_eq!(order, vec![Attr(1), Attr(4), Attr(3)]);
    }

    #[test]
    fn level_estimates_scale_with_val_a() {
        let (db, q) = tri_db(150);
        let sampler = Sampler::new(&db, &q, &order3()).unwrap();
        let est = sampler.estimate(&SamplingConfig { samples: 2048, seed: 1 }).unwrap();
        assert_eq!(est.level_tuples.len(), 3);
        // level 0 estimate should approximate |val(A)| itself: every sampled
        // a with nonzero support contributes 1 at level 0.
        assert!(est.level_tuples[0] <= est.val_a as f64 + 1e-6);
        assert!(est.level_tuples[0] > 0.0);
        // last-level estimate equals the cardinality estimate
        assert!((est.level_tuples[2] - est.cardinality).abs() < 1e-6);
    }

    #[test]
    fn more_samples_tighter_estimates() {
        let (db, q) = tri_db(400);
        let sampler = Sampler::new(&db, &q, &order3()).unwrap();
        let tries: Vec<Trie> = q
            .atoms
            .iter()
            .map(|a| db.get(&a.name).unwrap().trie_under_order(&order3()).unwrap())
            .collect();
        let truth = LeapfrogJoin::new(&order3(), tries.iter().collect()).unwrap().count().0 as f64;
        let d_of = |samples: usize| {
            let mut worst: f64 = 1.0;
            for seed in 0..5 {
                let est = sampler.estimate(&SamplingConfig { samples, seed }).unwrap();
                let e = est.cardinality.max(1e-9);
                worst = worst.max(e.max(truth) / e.min(truth));
            }
            worst
        };
        let coarse = d_of(8);
        let fine = d_of(2048);
        assert!(
            fine <= coarse + 1e-9,
            "2048 samples (D={fine}) should not be worse than 8 (D={coarse})"
        );
        assert!(fine < 1.5, "fine D={fine}");
    }
}
