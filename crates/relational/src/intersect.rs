//! Sorted-set intersection kernels.
//!
//! "The main cost of Leapfrog is the cost of the intersections" (Sec. II-A).
//! These kernels are the inner loop of the whole system: Leapfrog's
//! `val(t_i → A_{i+1})` step, the sampler's `val(A)` computation, and the
//! trie cursors' `seek` all reduce to intersecting sorted `u32` runs.
//!
//! One leapfrog dance serves three kernels, so they find the same matches
//! with the same number of gallops:
//!
//! * [`leapfrog_intersect`] writes the matched values;
//! * [`leapfrog_intersect_positions`] also writes, per match, each run's
//!   offset of the value. Leapfrog descends into a match by jumping every
//!   participant's cursor to its recorded offset, in O(1), instead of
//!   galloping to a value the intersection already found;
//! * [`leapfrog_count`] only counts the matches. It is Leapfrog's last level
//!   when the consumer wants a cardinality: no value is written and no
//!   cursor moves.
//!
//! The dance keeps one cursor per run in a stack array for up to
//! [`INLINE_RUNS`] runs and on the heap above that, so no call allocates on
//! the paths queries take.

use crate::Value;

/// Runs (participants) a kernel or a Leapfrog level keeps on the stack;
/// wider intersections spill to a heap buffer of the exact size.
pub const INLINE_RUNS: usize = 16;

/// Calls `f` on `k` copies of `init`: a stack array for
/// `k <= INLINE_RUNS`, a heap vector above.
#[inline]
pub fn with_slots<T: Copy, R>(k: usize, init: T, f: impl FnOnce(&mut [T]) -> R) -> R {
    if k <= INLINE_RUNS {
        let mut slots = [init; INLINE_RUNS];
        f(&mut slots[..k])
    } else {
        f(&mut vec![init; k])
    }
}

/// Galloping (exponential) search: smallest index `i >= from` with
/// `xs[i] >= target`, or `xs.len()`.
#[inline]
pub fn gallop(xs: &[Value], from: usize, target: Value) -> usize {
    let n = xs.len();
    if from >= n || xs[from] >= target {
        return from;
    }
    // Exponential probe.
    let mut step = 1usize;
    let mut lo = from;
    while lo + step < n && xs[lo + step] < target {
        lo += step;
        step <<= 1;
    }
    let hi = (lo + step + 1).min(n);
    // Binary search in (lo, hi).
    let mut lo = lo + 1;
    let mut hi = hi;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if xs[mid] < target {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Intersection of two sorted, deduplicated runs, using galloping from the
/// smaller into the larger (adaptive: O(min·log(max/min))).
pub fn intersect2(a: &[Value], b: &[Value], out: &mut Vec<Value>) {
    out.clear();
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let mut j = 0usize;
    for &v in small {
        j = gallop(large, j, v);
        if j == large.len() {
            break;
        }
        if large[j] == v {
            out.push(v);
            j += 1;
        }
    }
}

/// K-way intersection of sorted runs, leapfrog style: repeatedly gallop the
/// run with the smallest current head to the maximum head. This is exactly
/// the "leapfrog" primitive of Leapfrog Triejoin (Veldhuizen 2012) that the
/// paper's Algorithm 1 line 5 performs.
///
/// Returns the number of comparisons/gallops performed, which the cost model
/// and the Fig. 6/8 counters aggregate.
pub fn leapfrog_intersect(runs: &[&[Value]], out: &mut Vec<Value>) -> u64 {
    out.clear();
    match trivial(runs) {
        Trivial::Empty => 0,
        Trivial::One(run) => {
            out.extend_from_slice(run);
            run.len() as u64
        }
        Trivial::Many => leapfrog_dance(runs, |v, _| out.push(v)),
    }
}

/// [`leapfrog_intersect`] that also records where each match sits:
/// `positions[m * k + i]` is the offset of `out[m]` in `runs[i]`, for
/// `k = runs.len()`. Finds the same matches with the same operation count.
pub fn leapfrog_intersect_positions(
    runs: &[&[Value]],
    out: &mut Vec<Value>,
    positions: &mut Vec<usize>,
) -> u64 {
    out.clear();
    positions.clear();
    match trivial(runs) {
        Trivial::Empty => 0,
        Trivial::One(run) => {
            out.extend_from_slice(run);
            positions.extend(0..run.len());
            run.len() as u64
        }
        Trivial::Many => leapfrog_dance(runs, |v, at| {
            out.push(v);
            positions.extend_from_slice(at);
        }),
    }
}

/// The size of the intersection of `runs`, as `(matches, ops)`: the count
/// and operation count [`leapfrog_intersect`] would report, without writing
/// a value.
pub fn leapfrog_count(runs: &[&[Value]]) -> (u64, u64) {
    match trivial(runs) {
        Trivial::Empty => (0, 0),
        Trivial::One(run) => (run.len() as u64, run.len() as u64),
        Trivial::Many => {
            let mut matches = 0u64;
            let ops = leapfrog_dance(runs, |_, _| matches += 1);
            (matches, ops)
        }
    }
}

/// Intersections that need no dance.
enum Trivial<'r> {
    /// No runs, or an empty one: nothing matches and nothing is done.
    Empty,
    /// One run: it is its own intersection, one operation per value.
    One(&'r [Value]),
    /// Two or more non-empty runs.
    Many,
}

#[inline]
fn trivial<'r>(runs: &[&'r [Value]]) -> Trivial<'r> {
    match runs {
        [] => Trivial::Empty,
        _ if runs.iter().any(|r| r.is_empty()) => Trivial::Empty,
        [run] => Trivial::One(run),
        _ => Trivial::Many,
    }
}

/// The leapfrog dance over two or more non-empty runs: repeatedly gallop
/// the next run to the current maximum head, calling `on_match(v, at)` for
/// every value `v` all runs share, with `at[i]` its offset in `runs[i]`.
/// Returns the number of gallops.
#[inline(always)]
fn leapfrog_dance(runs: &[&[Value]], mut on_match: impl FnMut(Value, &[usize])) -> u64 {
    let k = runs.len();
    with_slots(k, 0usize, |pos| {
        let mut ops: u64 = 0;
        // Start from the maximum of all heads.
        let mut target = runs.iter().map(|r| r[0]).max().expect("two or more runs");
        let mut agree = 0usize; // how many consecutive runs currently sit at target
        let mut i = 0usize;
        loop {
            ops += 1;
            let r = runs[i];
            let p = gallop(r, pos[i], target);
            if p == r.len() {
                return ops;
            }
            pos[i] = p;
            if r[p] == target {
                agree += 1;
                if agree == k {
                    // Every run sits at `target`: `pos` is where it matched.
                    on_match(target, pos);
                    // advance this run past target and continue
                    pos[i] += 1;
                    if pos[i] == r.len() {
                        return ops;
                    }
                    target = r[pos[i]];
                    agree = 1;
                }
            } else {
                target = r[p];
                agree = 1;
            }
            i = (i + 1) % k;
        }
    })
}

/// Merge-based intersection of two runs (for the trie-vs-flat ablation
/// bench; linear in both inputs).
pub fn intersect2_merge(a: &[Value], b: &[Value], out: &mut Vec<Value>) {
    out.clear();
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gallop_basics() {
        let xs = [1, 3, 5, 7, 9];
        assert_eq!(gallop(&xs, 0, 0), 0);
        assert_eq!(gallop(&xs, 0, 1), 0);
        assert_eq!(gallop(&xs, 0, 2), 1);
        assert_eq!(gallop(&xs, 0, 9), 4);
        assert_eq!(gallop(&xs, 0, 10), 5);
        assert_eq!(gallop(&xs, 3, 5), 3); // never moves left of `from`
        assert_eq!(gallop(&[], 0, 5), 0);
    }

    #[test]
    fn intersect2_matches_merge() {
        let a: Vec<Value> = (0..200).filter(|x| x % 3 == 0).collect();
        let b: Vec<Value> = (0..200).filter(|x| x % 5 == 0).collect();
        let mut g = Vec::new();
        let mut m = Vec::new();
        intersect2(&a, &b, &mut g);
        intersect2_merge(&a, &b, &mut m);
        assert_eq!(g, m);
        assert!(g.iter().all(|x| x % 15 == 0));
    }

    #[test]
    fn kway_empty_and_single() {
        let mut out = vec![1, 2];
        leapfrog_intersect(&[], &mut out);
        assert!(out.is_empty());
        let a = [1, 2, 3];
        leapfrog_intersect(&[&a], &mut out);
        assert_eq!(out, vec![1, 2, 3]);
        leapfrog_intersect(&[&a, &[]], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn kway_three_runs() {
        let a: Vec<Value> = (0..100).collect();
        let b: Vec<Value> = (0..100).filter(|x| x % 2 == 0).collect();
        let c: Vec<Value> = (0..100).filter(|x| x % 3 == 0).collect();
        let mut out = Vec::new();
        leapfrog_intersect(&[&a, &b, &c], &mut out);
        let expect: Vec<Value> = (0..100).filter(|x| x % 6 == 0).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn kway_disjoint_runs() {
        let mut out = Vec::new();
        leapfrog_intersect(&[&[1, 3, 5], &[2, 4, 6]], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn kway_matches_paper_example1() {
        // Example 1: a-values {1} from R1 ∩ {1,4} from R2 = {1}.
        let mut out = Vec::new();
        leapfrog_intersect(&[&[1], &[1, 4]], &mut out);
        assert_eq!(out, vec![1]);
    }
}
