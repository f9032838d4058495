//! A small dense two-phase simplex solver, sized for fractional edge cover
//! programs (≤ ~10 variables, ≤ ~6 constraints for the paper's workload).
//!
//! The GHD search scores every candidate bag by its fractional edge cover
//! number ρ*(bag); picking the hypertree with minimal `fhw = max ρ*` is what
//! bounds every pre-computed relation by `|Rmax|^fhw` (Sec. III-A, citing
//! Grohe–Marx). The programs are tiny, so a textbook tableau simplex with
//! Bland's rule is exact enough (f64 with 1e-9 tolerance) and dependency-free.

use crate::hypergraph::Hypergraph;

const EPS: f64 = 1e-9;

/// Solves `min c·x  s.t.  A x ≥ b, x ≥ 0`.
///
/// Returns `(objective, x)` or `None` if infeasible. The problem must be
/// bounded (edge-cover LPs always are: the all-ones vector is feasible).
// Index loops mirror the textbook tableau notation; iterator rewrites would
// obscure the row/column arithmetic.
#[allow(clippy::needless_range_loop)]
pub fn solve_min_cover(c: &[f64], a: &[Vec<f64>], b: &[f64]) -> Option<(f64, Vec<f64>)> {
    let n = c.len();
    let m = a.len();
    assert!(a.iter().all(|row| row.len() == n));
    assert_eq!(b.len(), m);
    if m == 0 {
        return Some((0.0, vec![0.0; n]));
    }

    // Standard form: A x - s + t = b with surplus s ≥ 0 and artificials
    // t ≥ 0 (b ≥ 0 holds for covering constraints). Columns:
    // [x(n) | s(m) | t(m) | rhs].
    let cols = n + 2 * m;
    let mut tab = vec![vec![0.0f64; cols + 1]; m];
    for (i, row) in a.iter().enumerate() {
        let bi = b[i];
        let flip = bi < 0.0;
        for j in 0..n {
            tab[i][j] = if flip { -row[j] } else { row[j] };
        }
        tab[i][n + i] = if flip { 1.0 } else { -1.0 };
        tab[i][n + m + i] = 1.0;
        tab[i][cols] = bi.abs();
    }
    let mut basis: Vec<usize> = (0..m).map(|i| n + m + i).collect();

    // Phase 1: minimize sum of artificials.
    let mut obj1 = vec![0.0f64; cols + 1];
    for j in n + m..cols {
        obj1[j] = 1.0;
    }
    // Price out the basic artificials.
    for i in 0..m {
        for j in 0..=cols {
            obj1[j] -= tab[i][j];
        }
    }
    simplex_iterate(&mut tab, &mut obj1, &mut basis, cols)?;
    if -obj1[cols] > EPS {
        return None; // infeasible
    }
    // Drive any remaining artificial out of the basis if possible.
    for i in 0..m {
        if basis[i] >= n + m {
            if let Some(j) = (0..n + m).find(|&j| tab[i][j].abs() > EPS) {
                pivot(&mut tab, &mut obj1, &mut basis, i, j, cols);
            }
        }
    }

    // Phase 2: original objective, with artificial columns frozen.
    let mut obj2 = vec![0.0f64; cols + 1];
    obj2[..n].copy_from_slice(c);
    for i in 0..m {
        let bv = basis[i];
        if obj2[bv].abs() > EPS {
            let coef = obj2[bv];
            for j in 0..=cols {
                obj2[j] -= coef * tab[i][j];
            }
        }
    }
    // Forbid artificials from re-entering by giving them +inf reduced cost.
    for item in obj2.iter_mut().take(cols).skip(n + m) {
        *item = f64::INFINITY;
    }
    simplex_iterate(&mut tab, &mut obj2, &mut basis, cols)?;

    let mut x = vec![0.0f64; n];
    for i in 0..m {
        if basis[i] < n {
            x[basis[i]] = tab[i][cols];
        }
    }
    let objective = c.iter().zip(&x).map(|(ci, xi)| ci * xi).sum();
    Some((objective, x))
}

fn simplex_iterate(
    tab: &mut [Vec<f64>],
    obj: &mut [f64],
    basis: &mut [usize],
    cols: usize,
) -> Option<()> {
    let m = tab.len();
    for _iter in 0..10_000 {
        // Bland's rule: entering = lowest-index column with negative reduced
        // cost. Prevents cycling on these degenerate covering LPs.
        let enter = (0..cols).find(|&j| obj[j] < -EPS && obj[j].is_finite());
        let Some(enter) = enter else {
            return Some(()); // optimal
        };
        // Ratio test; Bland tie-break on basis index.
        let mut leave: Option<usize> = None;
        let mut best = f64::INFINITY;
        for i in 0..m {
            if tab[i][enter] > EPS {
                let ratio = tab[i][cols] / tab[i][enter];
                if ratio < best - EPS
                    || (ratio < best + EPS && leave.is_some_and(|l| basis[i] < basis[l]))
                {
                    best = ratio;
                    leave = Some(i);
                }
            }
        }
        let leave = leave?; // None => unbounded
        pivot_rows(tab, obj, leave, enter, cols);
        basis[leave] = enter;
    }
    None // iteration cap: treat as failure
}

fn pivot(
    tab: &mut [Vec<f64>],
    obj: &mut [f64],
    basis: &mut [usize],
    row: usize,
    col: usize,
    cols: usize,
) {
    pivot_rows(tab, obj, row, col, cols);
    basis[row] = col;
}

#[allow(clippy::needless_range_loop)]
fn pivot_rows(tab: &mut [Vec<f64>], obj: &mut [f64], row: usize, col: usize, cols: usize) {
    let piv = tab[row][col];
    for j in 0..=cols {
        tab[row][j] /= piv;
    }
    for i in 0..tab.len() {
        if i != row && tab[i][col].abs() > EPS {
            let f = tab[i][col];
            for j in 0..=cols {
                tab[i][j] -= f * tab[row][j];
            }
        }
    }
    if obj[col].abs() > EPS && obj[col].is_finite() {
        let f = obj[col];
        for j in 0..=cols {
            obj[j] -= f * tab[row][j];
        }
    }
}

/// ρ*(bag): the minimum fractional edge cover of the vertices in `bag_vs`
/// using the hypergraph's edges (restricted to the bag). Returns `None` if
/// some bag vertex is not covered by any edge (cannot happen for GHD bags,
/// which are unions of edges).
pub fn fractional_edge_cover(h: &Hypergraph, bag_vs: u64) -> Option<f64> {
    if bag_vs == 0 {
        return Some(0.0);
    }
    // Variables: edges intersecting the bag (dedup identical restrictions).
    let mut cover_edges: Vec<u64> =
        h.edges().iter().map(|&e| e & bag_vs).filter(|&e| e != 0).collect();
    cover_edges.sort_unstable();
    cover_edges.dedup();
    // Drop edges dominated by a superset edge — keeps the LP minimal.
    let maximal: Vec<u64> = cover_edges
        .iter()
        .copied()
        .filter(|&e| !cover_edges.iter().any(|&f| f != e && e & !f == 0))
        .collect();
    let n = maximal.len();
    let verts: Vec<u32> = (0..64).filter(|&v| bag_vs & (1u64 << v) != 0).collect();
    // Infeasible if some vertex uncovered.
    for &v in &verts {
        if !maximal.iter().any(|&e| e & (1u64 << v) != 0) {
            return None;
        }
    }
    let c = vec![1.0; n];
    let a: Vec<Vec<f64>> = verts
        .iter()
        .map(|&v| maximal.iter().map(|&e| if e & (1u64 << v) != 0 { 1.0 } else { 0.0 }).collect())
        .collect();
    let b = vec![1.0; verts.len()];
    solve_min_cover(&c, &a, &b).map(|(obj, _)| obj)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_lp() {
        // min x1 + x2 s.t. x1 + x2 >= 2, x1 >= 0.5 → objective 2
        let (obj, x) =
            solve_min_cover(&[1.0, 1.0], &[vec![1.0, 1.0], vec![1.0, 0.0]], &[2.0, 0.5]).unwrap();
        assert!((obj - 2.0).abs() < 1e-6, "obj={obj} x={x:?}");
    }

    #[test]
    fn infeasible_detected() {
        // x1 >= 1 with coefficient 0 → infeasible
        assert!(solve_min_cover(&[1.0], &[vec![0.0]], &[1.0]).is_none());
    }

    #[test]
    fn zero_constraints() {
        let (obj, x) = solve_min_cover(&[1.0, 2.0], &[], &[]).unwrap();
        assert_eq!(obj, 0.0);
        assert_eq!(x, vec![0.0, 0.0]);
    }

    #[test]
    fn triangle_cover_is_three_halves() {
        // The AGM classic: triangle query cover = 1.5.
        let tri = Hypergraph::new(3, vec![0b011, 0b110, 0b101]);
        let rho = fractional_edge_cover(&tri, 0b111).unwrap();
        assert!((rho - 1.5).abs() < 1e-6, "rho={rho}");
    }

    #[test]
    fn clique4_cover_is_two() {
        // K4 with all 6 edges: ρ* = 4/2 = 2.
        let edges = vec![0b0011, 0b0110, 0b1100, 0b1001, 0b0101, 0b1010];
        let k4 = Hypergraph::new(4, edges);
        let rho = fractional_edge_cover(&k4, 0b1111).unwrap();
        assert!((rho - 2.0).abs() < 1e-6, "rho={rho}");
    }

    #[test]
    fn clique5_cover_is_five_halves() {
        let mut edges = Vec::new();
        for i in 0..5u32 {
            for j in i + 1..5 {
                edges.push((1u64 << i) | (1 << j));
            }
        }
        let k5 = Hypergraph::new(5, edges);
        let rho = fractional_edge_cover(&k5, 0b11111).unwrap();
        assert!((rho - 2.5).abs() < 1e-6, "rho={rho}");
    }

    #[test]
    fn five_cycle_cover() {
        // C5: ρ* = 5/2.
        let edges = vec![0b00011, 0b00110, 0b01100, 0b11000, 0b10001];
        let c5 = Hypergraph::new(5, edges);
        let rho = fractional_edge_cover(&c5, 0b11111).unwrap();
        assert!((rho - 2.5).abs() < 1e-6, "rho={rho}");
    }

    #[test]
    fn single_edge_bag() {
        let h = Hypergraph::new(3, vec![0b011, 0b110]);
        assert!((fractional_edge_cover(&h, 0b011).unwrap() - 1.0).abs() < 1e-6);
        assert_eq!(fractional_edge_cover(&h, 0).unwrap(), 0.0);
    }

    #[test]
    fn uncovered_vertex_is_infeasible() {
        let h = Hypergraph::new(3, vec![0b011]);
        assert!(fractional_edge_cover(&h, 0b111).is_none());
    }

    #[test]
    fn subset_bag_of_example_query() {
        // Bag {a,d} of the running example is covered by edge ad alone.
        let h = Hypergraph::new(5, vec![0b00111, 0b01001, 0b01100, 0b10010, 0b10100]);
        let rho = fractional_edge_cover(&h, 0b01001).unwrap();
        assert!((rho - 1.0).abs() < 1e-6);
    }
}
