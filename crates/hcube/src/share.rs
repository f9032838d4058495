//! The HCube share optimizer (optimization program (3), Sec. III-B).
//!
//! Minimize `costC(p) = Σ_R |R| · dup(R, p)` where
//! `dup(R, p) = Π_{A ∉ attrs(R)} p_A`, subject to:
//!
//! 1. `p_A ≥ 1` for all attributes;
//! 2. on average a worker's received data fits in memory:
//!    `Σ_R size(R) · frac(R, p) ≤ M` with `frac(R,p) = 1 / Π_{A ∈ R} p_A`
//!    (per hypercube; multiplied by cubes-per-worker when `P > N*`);
//! 3. `Π p_A ≥ N*` so every worker is assigned at least one hypercube
//!    (the classical HCube setting; the paper notes `P` may exceed `N*`).
//!
//! The program is solved over integer shares by an exact branch-and-bound
//! search ([`solve_share`]) rather than the paper's numeric solver — the
//! optimum of the full lattice, deterministically. The bound is admissible
//! because the objective only grows with every share: raising any `p_A`
//! never lowers `Σ_R |R| · dup(R, p)`, and the ranking load (below) is at
//! least that total spread over `N*` workers. So a partial vector whose
//! `(⌈total / N*⌉, total)` already ranks after the best vector found cannot
//! be completed into a winner or a tie, and its whole subtree is skipped.
//! On a five-attribute query at `N* = 8` the search scores about a dozen
//! of the lattice's 3,652 vectors.
//!
//! **Fullest partition.** The search ranks share vectors by the estimated
//! **fullest-partition load** first and by total load second. The fullest
//! partition can read heavy-hitter fractions from [`ShareInput::hot`], but
//! no product code sets them: the optimizer's `costC` passes `hot` empty,
//! so on any share with `Π p_A ≥ N*` the fullest partition never exceeds
//! `total / N*` and the ranking is the paper's. The field stays only
//! because the `adjbench` harness spells the struct out field by field, as
//! it does [`ShareInput::require_exact_product`].

use adj_relational::{Error, Result, MAX_ATTRS};

/// Input description for the share optimizer.
#[derive(Debug, Clone, PartialEq)]
pub struct ShareInput {
    /// Number of query attributes `n` (attribute ids `0..n`).
    pub num_attrs: usize,
    /// `(attribute mask, tuple count)` per relation to be shuffled.
    pub relations: Vec<(u64, usize)>,
    /// Number of workers `N*`.
    pub num_workers: usize,
    /// Per-worker memory budget in bytes (`M`); `None` = unconstrained.
    pub memory_limit_bytes: Option<usize>,
    /// Bytes per tuple value (4 for our `u32` values).
    pub bytes_per_value: usize,
    /// Heavy-hitter fractions, aligned with `relations`: per relation, a
    /// list of `(attribute id, largest hot-value fraction of that column)`.
    /// Empty (or shorter than `relations`) means "assume uniform". No
    /// product code sets it any more — the optimizer prices stored sizes
    /// with it empty — and the `adjbench` harness spells the struct
    /// literally, which is why the field is still here.
    pub hot: Vec<Vec<(u32, f64)>>,
    /// Require `Π p_A = N*` exactly (a bijective cube→worker map); when no
    /// such vector satisfies the memory budget the optimizer errors. No
    /// product code sets this `true` any more — the `adjbench` harness
    /// spells the struct literally, which is why the field is still here.
    pub require_exact_product: bool,
    /// Attributes to treat as one-value dimensions: partitioning one would
    /// be pure duplication, so they are dropped from the dimension grid
    /// (pinned to share 1) and the search ranks only the other
    /// attributes' vectors. When *every* attribute is masked the product
    /// requirement relaxes to 1 — a single cube is the whole answer. The
    /// optimizer sets this to a shape's bound positions when it prices
    /// plans.
    pub bound_mask: u64,
}

impl ShareInput {
    /// Communication cost `Σ_R |R| · dup(R, p)` in delivered tuple copies.
    pub fn comm_cost(&self, p: &[u32]) -> u64 {
        self.relations.iter().map(|&(mask, size)| size as u64 * dup_factor(p, mask)).sum()
    }

    /// Expected bytes received per hypercube under `p` — the paper's memory
    /// constraint term `Σ_R size(R) · frac(R, p)` (program (3)), which
    /// treats one hypercube per server (`P ≈ N*`).
    pub fn per_worker_bytes(&self, p: &[u32]) -> f64 {
        self.relations
            .iter()
            .map(|&(mask, size)| {
                let arity = mask.count_ones() as usize;
                let bytes = (size * arity * self.bytes_per_value) as f64;
                bytes * frac(p, mask)
            })
            .sum()
    }

    /// Estimated tuple load of the *fullest* hypercube under `p` and plain
    /// hashing. Per relation, the worst coordinate of a partitioned
    /// attribute `A` receives its hottest value (fraction `f`) plus a
    /// `1/p_A` share of the rest, so the worst-cube fraction is
    /// `Π_{A ∈ R} (f_A + (1 − f_A)/p_A)`; with no skew information this is
    /// exactly `frac(R, p)`, and summing over relations upper-bounds any
    /// single cube's inbox.
    pub fn max_cube_tuples(&self, p: &[u32]) -> f64 {
        self.relations
            .iter()
            .enumerate()
            .map(|(i, &(mask, size))| {
                let mut worst = 1.0f64;
                for (a, &pa) in p.iter().enumerate() {
                    if mask & (1u64 << a) == 0 || pa <= 1 {
                        continue;
                    }
                    let f = self
                        .hot
                        .get(i)
                        .and_then(|cols| {
                            cols.iter().find(|&&(attr, _)| attr as usize == a).map(|&(_, f)| f)
                        })
                        .unwrap_or(0.0)
                        .clamp(0.0, 1.0);
                    worst *= f + (1.0 - f) / pa as f64;
                }
                size as f64 * worst
            })
            .sum()
    }

    /// The ranking load of a share vector: the larger of the average
    /// per-worker load (`total / N*`) and the estimated fullest-partition
    /// load — i.e. the makespan of the shuffle, which is what a latency
    /// objective must charge. Uniform inputs make the two coincide up to
    /// rounding, reproducing the paper's pure-total ranking.
    pub fn makespan_load(&self, p: &[u32]) -> u64 {
        let avg = self.comm_cost(p) as f64 / self.num_workers as f64;
        avg.max(self.max_cube_tuples(p)).ceil() as u64
    }
}

/// `dup(R, p) = Π_{A ∉ attrs(R)} p_A` — how many hypercubes receive each
/// tuple of `R`.
pub fn dup_factor(p: &[u32], rel_mask: u64) -> u64 {
    p.iter().enumerate().filter(|(i, _)| rel_mask & (1 << i) == 0).map(|(_, &x)| x as u64).product()
}

/// `frac(R, p) = 1 / Π_{A ∈ attrs(R)} p_A` — fraction of `R` received per
/// hypercube.
pub fn frac(p: &[u32], rel_mask: u64) -> f64 {
    let denom: u64 = p
        .iter()
        .enumerate()
        .filter(|(i, _)| rel_mask & (1 << i) != 0)
        .map(|(_, &x)| x as u64)
        .product();
    1.0 / denom as f64
}

/// An optimal share vector and the work its search did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShareSolution {
    /// The share vector, indexed by attribute id.
    pub share: Vec<u32>,
    /// Complete vectors the search scored (feasible leaves it reached).
    pub candidates: u64,
}

/// Solves the share optimization program exactly. Returns the optimal share
/// vector (indexed by attribute id), or an error if no feasible vector
/// has a product within the cap (memory budget too small) or the
/// query has no attribute or more than [`MAX_ATTRS`].
pub fn optimize_share(input: &ShareInput) -> Result<Vec<u32>> {
    solve_share(input).map(|solved| solved.share)
}

/// [`optimize_share`], also reporting how many vectors the search scored.
///
/// Vectors rank by `(makespan load, total load, product, p)`: the fullest
/// partition decides wall-clock, total load breaks ties (and equals the
/// paper's objective on uniform inputs), product and the vector itself
/// make the choice deterministic. The search is a depth-first walk over
/// `p_0, p_1, …` with every unassigned share at 1, pruned by a bound that
/// never cuts the optimum: the total load of a partial vector only grows as
/// shares are raised, and the makespan is at least `⌈total / N*⌉`, so once
/// `(⌈total / N*⌉, total)` of a partial vector ranks strictly after the best
/// `(makespan, total)` found, no completion can win or tie — and neither
/// can a larger value of the same share, so the loop over it stops there.
pub fn solve_share(input: &ShareInput) -> Result<ShareSolution> {
    let n = input.num_attrs;
    if !(1..=MAX_ATTRS).contains(&n) {
        return Err(Error::BudgetExceeded {
            what: "attributes per share program",
            limit: MAX_ATTRS,
        });
    }
    let nw = input.num_workers as u64;
    // Comm cost is monotone in every p_A, so the optimum has a small
    // product, but the memory constraint can force finer partitioning —
    // cap at 8·N* (plenty for the workloads here).
    let cap = if input.require_exact_product { nw.max(1) } else { (8 * nw).max(64) };
    // A fully-bound query has no free dimension left: the single cube is
    // legal (one worker computes the one-point answer).
    let any_free = (0..n).any(|i| input.bound_mask & (1 << i) == 0);
    let needed = if any_free { nw } else { 1 };
    let mut search = Search {
        input,
        cap,
        needed,
        hot: hot_table(input, n),
        p: vec![1; n],
        best: None,
        best_p: Vec::new(),
        candidates: 0,
    };
    search.descend(0, 1);
    match search.best {
        Some(_) => Ok(ShareSolution { share: search.best_p, candidates: search.candidates }),
        None => Err(Error::BudgetExceeded {
            what: "no feasible HCube share vector under memory budget",
            limit: input.memory_limit_bytes.unwrap_or(0),
        }),
    }
}

/// `hot[rel * n + a]`: the hottest-value fraction of attribute `a` in
/// relation `rel`, clamped to `[0, 1]` — the first entry of `rel`'s list
/// naming `a`, or 0 when none does, as [`ShareInput::max_cube_tuples`]
/// reads it.
fn hot_table(input: &ShareInput, n: usize) -> Vec<f64> {
    let mut hot = vec![0.0; input.relations.len() * n];
    for (rel, cols) in input.hot.iter().take(input.relations.len()).enumerate() {
        let mut seen = 0u64;
        for &(attr, f) in cols {
            let a = attr as usize;
            if a < n && seen & (1 << a) == 0 {
                seen |= 1 << a;
                hot[rel * n + a] = f.clamp(0.0, 1.0);
            }
        }
    }
    hot
}

/// The branch-and-bound state of one [`solve_share`] call.
struct Search<'a> {
    input: &'a ShareInput,
    cap: u64,
    needed: u64,
    hot: Vec<f64>,
    /// The vector under construction; shares past the current depth are 1.
    p: Vec<u32>,
    /// `(makespan, comm, product)` of the best vector so far.
    best: Option<(u64, u64, u64)>,
    best_p: Vec<u32>,
    candidates: u64,
}

impl Search<'_> {
    /// Extends `p[..idx]` (of product `product`) in every way the bound
    /// lets through, scoring each complete vector.
    fn descend(&mut self, idx: usize, product: u64) {
        if idx == self.p.len() {
            self.score(product);
            return;
        }
        if self.input.bound_mask & (1 << idx) != 0 {
            // Bound attribute: dropped from the dimension grid, share pinned 1.
            self.descend(idx + 1, product);
            return;
        }
        let mut v = 1u64;
        while product * v <= self.cap {
            self.p[idx] = v as u32;
            if self.pruned() {
                break;
            }
            self.descend(idx + 1, product * v);
            v += 1;
        }
        self.p[idx] = 1;
    }

    /// Whether no completion of the current partial vector can rank at or
    /// before the best one (see [`solve_share`]).
    fn pruned(&self) -> bool {
        let Some((makespan, comm, _)) = self.best else { return false };
        let floor = self.input.comm_cost(&self.p);
        let avg = (floor as f64 / self.input.num_workers as f64).ceil() as u64;
        (avg, floor) > (makespan, comm)
    }

    /// Scores the complete vector if it is feasible, and keeps it when it
    /// ranks before the best one so far.
    fn score(&mut self, product: u64) {
        let input = self.input;
        if product < self.needed || (input.require_exact_product && product != self.needed) {
            return;
        }
        if let Some(limit) = input.memory_limit_bytes {
            if input.per_worker_bytes(&self.p) > limit as f64 {
                return;
            }
        }
        self.candidates += 1;
        let comm = input.comm_cost(&self.p);
        let avg = comm as f64 / input.num_workers as f64;
        let makespan = avg.max(self.max_cube_tuples()).ceil() as u64;
        let key = (makespan, comm, product);
        let better = match self.best {
            None => true,
            Some(best) => key < best || (key == best && self.p < self.best_p),
        };
        if better {
            self.best = Some(key);
            self.best_p.clone_from(&self.p);
        }
    }

    /// [`ShareInput::max_cube_tuples`] of the current vector, reading the
    /// hot fractions from the dense table.
    fn max_cube_tuples(&self) -> f64 {
        let n = self.p.len();
        self.input
            .relations
            .iter()
            .enumerate()
            .map(|(rel, &(mask, size))| {
                let mut worst = 1.0f64;
                for (a, &pa) in self.p.iter().enumerate() {
                    if mask & (1u64 << a) == 0 || pa <= 1 {
                        continue;
                    }
                    let f = self.hot[rel * n + a];
                    worst *= f + (1.0 - f) / pa as f64;
                }
                size as f64 * worst
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Triangle query R1(a,b), R2(b,c), R3(a,c), equal sizes.
    fn triangle(size: usize, workers: usize) -> ShareInput {
        ShareInput {
            num_attrs: 3,
            relations: vec![(0b011, size), (0b110, size), (0b101, size)],
            num_workers: workers,
            memory_limit_bytes: None,
            bytes_per_value: 4,
            hot: Vec::new(),
            require_exact_product: false,
            bound_mask: 0,
        }
    }

    /// The full enumeration the branch-and-bound search replaced: every
    /// vector of the lattice scored, the least `(makespan, comm, product,
    /// p)` kept. The reference the search must agree with bit for bit.
    fn reference_share(input: &ShareInput) -> Result<Vec<u32>> {
        fn enumerate(
            p: &mut Vec<u32>,
            idx: usize,
            product: u64,
            cap: u64,
            bound_mask: u64,
            visit: &mut impl FnMut(&[u32], u64),
        ) {
            if idx == p.len() {
                visit(p, product);
                return;
            }
            if bound_mask & (1 << idx) != 0 {
                p[idx] = 1;
                enumerate(p, idx + 1, product, cap, bound_mask, visit);
                return;
            }
            let mut v = 1u64;
            while product * v <= cap {
                p[idx] = v as u32;
                enumerate(p, idx + 1, product * v, cap, bound_mask, visit);
                v += 1;
            }
            p[idx] = 1;
        }

        let n = input.num_attrs;
        assert!((1..=MAX_ATTRS).contains(&n));
        let nw = input.num_workers as u64;
        let cap = if input.require_exact_product { nw.max(1) } else { (8 * nw).max(64) };
        let any_free = (0..n).any(|i| input.bound_mask & (1 << i) == 0);
        let needed = if any_free { nw } else { 1 };
        let mut best: Option<(u64, u64, u64, Vec<u32>)> = None;
        let mut p = vec![1u32; n];
        enumerate(&mut p, 0, 1, cap, input.bound_mask, &mut |p, product| {
            if product < needed || (input.require_exact_product && product != needed) {
                return;
            }
            if let Some(limit) = input.memory_limit_bytes {
                if input.per_worker_bytes(p) > limit as f64 {
                    return;
                }
            }
            let key = (input.makespan_load(p), input.comm_cost(p), product, p.to_vec());
            if best.as_ref().is_none_or(|b| key < *b) {
                best = Some(key);
            }
        });
        best.map(|(_, _, _, p)| p).ok_or(Error::BudgetExceeded {
            what: "no feasible HCube share vector under memory budget",
            limit: input.memory_limit_bytes.unwrap_or(0),
        })
    }

    /// SplitMix64: a seeded generator with no dependency.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform in `lo..=hi`.
        fn range(&mut self, lo: u64, hi: u64) -> u64 {
            lo + self.next() % (hi - lo + 1)
        }
    }

    /// One random share program: 1–6 attributes, 1–7 relations, widths
    /// 1–8, hot lists (with repeated attributes and out-of-range
    /// fractions), memory limits from loose to infeasible, bound masks up
    /// to all-bound, and the exact-product requirement.
    fn random_input(rng: &mut Rng) -> ShareInput {
        let n = rng.range(1, 6) as usize;
        let full = (1u64 << n) - 1;
        let relations: Vec<(u64, usize)> = (0..rng.range(1, 7))
            .map(|_| {
                let mask = rng.range(1, full);
                let size = match rng.range(0, 3) {
                    0 => rng.range(0, 10),
                    1 => rng.range(1, 1_000),
                    _ => rng.range(1, 2_000_000),
                };
                (mask, size as usize)
            })
            .collect();
        let hot = match rng.range(0, 2) {
            0 => Vec::new(),
            _ => (0..rng.range(0, relations.len() as u64 + 1))
                .map(|_| {
                    (0..rng.range(0, 3))
                        .map(|_| {
                            let attr = rng.range(0, n as u64) as u32;
                            let f = match rng.range(0, 4) {
                                0 => 1.5,
                                1 => 0.0,
                                _ => rng.range(0, 1000) as f64 / 1000.0,
                            };
                            (attr, f)
                        })
                        .collect()
                })
                .collect(),
        };
        let total_bytes: usize =
            relations.iter().map(|&(m, s)| s * m.count_ones() as usize * 4).sum();
        let memory_limit_bytes = match rng.range(0, 4) {
            0 | 1 => None,
            2 => Some(rng.range(0, 64) as usize),
            _ => Some((total_bytes as u64 / rng.range(1, 40)) as usize),
        };
        let bound_mask = match rng.range(0, 3) {
            0 => full,
            1 => rng.range(0, full),
            _ => 0,
        };
        ShareInput {
            num_attrs: n,
            relations,
            num_workers: rng.range(1, 8) as usize,
            memory_limit_bytes,
            bytes_per_value: 4,
            hot,
            require_exact_product: rng.range(0, 4) == 0,
            bound_mask,
        }
    }

    #[test]
    fn branch_and_bound_equals_the_full_enumeration() {
        let (mut scored, mut lattice) = (0u64, 0u64);
        for seed in 0..3_000u64 {
            let input = random_input(&mut Rng(seed));
            let want = reference_share(&input);
            let got = solve_share(&input);
            assert_eq!(
                got.as_ref().map(|s| &s.share).map_err(Clone::clone),
                want.as_ref().map_err(Clone::clone),
                "seed {seed}: {input:?}"
            );
            if let Ok(solved) = got {
                scored += solved.candidates;
                lattice += 1;
            }
        }
        assert!(lattice > 1_000, "most random programs are feasible: {lattice}");
        assert!(scored > 0);
    }

    #[test]
    fn too_many_or_no_attributes_is_a_typed_error() {
        for n in [0, MAX_ATTRS + 1, 64] {
            let input = ShareInput { num_attrs: n, ..triangle(10, 4) };
            assert_eq!(
                optimize_share(&input),
                Err(Error::BudgetExceeded {
                    what: "attributes per share program",
                    limit: MAX_ATTRS
                })
            );
        }
        let wide = ShareInput {
            num_attrs: MAX_ATTRS,
            relations: (0..MAX_ATTRS - 1).map(|i| (0b11 << i, 1_000)).collect(),
            ..triangle(10, 8)
        };
        let solved = solve_share(&wide).unwrap();
        assert!(solved.share.iter().map(|&x| x as u64).product::<u64>() >= 8);
    }

    #[test]
    fn the_search_scores_a_sliver_of_the_lattice() {
        // Five attributes, cap 64: the lattice holds 3,652 vectors.
        let input = ShareInput {
            num_attrs: 5,
            relations: vec![(0b00011, 500), (0b00110, 500), (0b01100, 500), (0b11000, 500)],
            ..triangle(0, 8)
        };
        let solved = solve_share(&input).unwrap();
        assert_eq!(Ok(solved.share.clone()), reference_share(&input));
        assert!(solved.candidates < 100, "scored {}", solved.candidates);
    }

    #[test]
    fn dup_and_frac() {
        let p = [2, 3, 4];
        // R(a,b): dup = p_c = 4; frac = 1/(2*3)
        assert_eq!(dup_factor(&p, 0b011), 4);
        assert!((frac(&p, 0b011) - 1.0 / 6.0).abs() < 1e-12);
        assert_eq!(dup_factor(&p, 0b111), 1);
    }

    #[test]
    fn triangle_share_is_balanced() {
        // Classic result: for the symmetric triangle on P = 8 cubes the
        // optimal share is (2,2,2) — each relation duplicated 2×, total
        // cost 3·2·|R| = 6|R|, beating e.g. (8,1,1) with cost (1+8+8)|R|.
        let input = triangle(1000, 8);
        let p = optimize_share(&input).unwrap();
        assert_eq!(p, vec![2, 2, 2]);
        assert_eq!(input.comm_cost(&p), 6000);
    }

    #[test]
    fn single_worker_needs_no_partitioning() {
        let input = triangle(1000, 1);
        let p = optimize_share(&input).unwrap();
        assert_eq!(p, vec![1, 1, 1]);
        assert_eq!(input.comm_cost(&p), 3000);
    }

    #[test]
    fn skewed_sizes_partition_the_small_relations_attrs() {
        // If R3(a,c) is huge, duplicating it is expensive, so its attributes
        // get the partitions: p_b should stay 1 only if that avoids
        // duplicating R3... concretely the optimizer must beat the naive
        // (2,2,2).
        let input = ShareInput {
            num_attrs: 3,
            relations: vec![(0b011, 100), (0b110, 100), (0b101, 100_000)],
            num_workers: 8,
            memory_limit_bytes: None,
            bytes_per_value: 4,
            hot: Vec::new(),
            require_exact_product: false,
            bound_mask: 0,
        };
        let p = optimize_share(&input).unwrap();
        // dup(R3) = p_b must be 1
        assert_eq!(p[1], 1, "p={p:?}");
        assert!(input.comm_cost(&p) < input.comm_cost(&[2, 2, 2]));
    }

    #[test]
    fn memory_constraint_forces_finer_shares() {
        let size = 10_000usize;
        let unconstrained = triangle(size, 4);
        let p0 = optimize_share(&unconstrained).unwrap();
        // Tight memory: 240KB of input over 4 workers means ≥60KB/worker is
        // unavoidable; 70KB forces finer shares than the comm-optimal ones.
        let mut constrained = triangle(size, 4);
        constrained.memory_limit_bytes = Some(70_000);
        let p1 = optimize_share(&constrained).unwrap();
        assert!(constrained.per_worker_bytes(&p1) <= 70_000.0);
        let prod0: u64 = p0.iter().map(|&x| x as u64).product();
        let prod1: u64 = p1.iter().map(|&x| x as u64).product();
        assert!(prod1 >= prod0, "memory pressure should not coarsen shares");
    }

    #[test]
    fn infeasible_budget_errors() {
        let mut input = triangle(1_000_000, 2);
        input.memory_limit_bytes = Some(16); // absurd
        assert!(optimize_share(&input).is_err());
    }

    #[test]
    fn uniform_makespan_matches_average_load() {
        let input = triangle(1000, 8);
        let p = optimize_share(&input).unwrap();
        let avg = input.comm_cost(&p) as f64 / 8.0;
        assert!((input.max_cube_tuples(&p) - avg).abs() < 1e-6, "uniform → balanced cubes");
        assert_eq!(input.makespan_load(&p), avg.ceil() as u64);
    }

    #[test]
    fn hot_fraction_shifts_partitioning_off_the_skewed_attribute() {
        // Two relations joining on b, sizes equal; b's column of R1 is 60%
        // one value. The pure-total objective puts every partition on b
        // (duplication-free); the max-partition term sees that a p_b-way
        // split of R1 still leaves 60% on one coordinate and moves (part
        // of) the sharing onto a/c instead.
        let uniform = ShareInput {
            num_attrs: 3,
            relations: vec![(0b011, 10_000), (0b110, 10_000)],
            num_workers: 8,
            memory_limit_bytes: None,
            bytes_per_value: 4,
            hot: Vec::new(),
            require_exact_product: false,
            bound_mask: 0,
        };
        let p_uniform = optimize_share(&uniform).unwrap();
        assert_eq!(p_uniform, vec![1, 8, 1], "total-load optimum shares only on b");

        let mut skewed = uniform.clone();
        skewed.hot = vec![vec![(1, 0.6)], vec![(1, 0.6)]];
        let p_skewed = optimize_share(&skewed).unwrap();
        assert!(p_skewed[0] > 1 || p_skewed[2] > 1, "skew must move shares off b: {p_skewed:?}");
        assert!(
            skewed.makespan_load(&p_skewed) < skewed.makespan_load(&[1, 8, 1]),
            "chosen share must beat the naive one on the fullest partition"
        );
    }

    #[test]
    fn exact_product_constraint_is_honoured() {
        for workers in [1usize, 4, 6, 7] {
            let mut input = triangle(500, workers);
            input.require_exact_product = true;
            let p = optimize_share(&input).unwrap();
            let prod: u64 = p.iter().map(|&x| x as u64).product();
            assert_eq!(prod, workers as u64, "p={p:?}");
        }
        // Exact product + impossible memory → error, not a silent fallback.
        let mut input = triangle(1_000_000, 4);
        input.require_exact_product = true;
        input.memory_limit_bytes = Some(16);
        assert!(optimize_share(&input).is_err());
    }

    #[test]
    fn bound_attributes_drop_out_of_the_dimension_grid() {
        // Triangle with a bound: the optimum must pin p_a = 1 and reach
        // N* = 8 over b, c alone.
        let mut input = triangle(1000, 8);
        input.bound_mask = 0b001;
        let p = optimize_share(&input).unwrap();
        assert_eq!(p[0], 1, "bound attr must not be partitioned: {p:?}");
        let prod: u64 = p.iter().map(|&x| x as u64).product();
        assert!(prod >= 8);

        // Two bound attrs: all sharing lands on the last free one.
        input.bound_mask = 0b011;
        let p = optimize_share(&input).unwrap();
        assert_eq!(&p[..2], &[1, 1], "p={p:?}");
        assert_eq!(p[2], 8);

        // Fully bound: a single cube is legal (one worker answers the
        // one-point query) instead of an infeasibility error.
        input.bound_mask = 0b111;
        let p = optimize_share(&input).unwrap();
        assert_eq!(p, vec![1, 1, 1]);

        // Exact product composes: free attrs must multiply to N* exactly.
        let mut exact = triangle(500, 4);
        exact.require_exact_product = true;
        exact.bound_mask = 0b001;
        let p = optimize_share(&exact).unwrap();
        assert_eq!(p[0], 1);
        assert_eq!(p.iter().map(|&x| x as u64).product::<u64>(), 4);
    }

    #[test]
    fn product_at_least_workers() {
        for workers in [1usize, 3, 4, 7, 13, 28] {
            let p = optimize_share(&triangle(100, workers)).unwrap();
            let prod: u64 = p.iter().map(|&x| x as u64).product();
            assert!(prod >= workers as u64, "workers={workers} p={p:?}");
        }
    }
}
