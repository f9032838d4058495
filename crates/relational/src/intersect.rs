//! Sorted-set intersection kernels.
//!
//! "The main cost of Leapfrog is the cost of the intersections" (Sec. II-A).
//! These kernels are the inner loop of the whole system: Leapfrog's
//! `val(t_i → A_{i+1})` step, the sampler's `val(A)` computation, and the
//! trie cursors' `seek` all reduce to intersecting sorted `u32` runs.
//!
//! The leapfrog dance, [`leapfrog_matches`], calls back once per match
//! with the value and its offset in every run, so each caller takes what it
//! needs from the same matches at the same gallop count: Leapfrog's
//! interior levels keep the offsets and jump every participant's cursor to
//! them in O(1) instead of galloping to a value the intersection already
//! found; its last level only counts the matches, or writes the values.
//! [`leapfrog_intersect`] is the dance writing values.
//!
//! Beside the dance sits the **probe kernel**, [`probe_matches`]. When every
//! run but one is indexed by a dense value → offset [`ValueTable`], it walks
//! the one un-indexed run (the *driver*) and answers each other run with one
//! table lookup instead of a gallop. It reports the same matches, in the
//! same ascending order, with the same per-run offsets as the dance, so a
//! caller can switch between the two per intersection. Building a table
//! costs one pass over its run, so the probe kernel pays only for runs that
//! are intersected again and again — Leapfrog's *invariant* runs, which
//! stay put while the levels between them and the current one iterate (see
//! `adj_leapfrog::join`).
//!
//! The kernels keep one cursor per run in a stack array for up to
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
    leapfrog_matches(runs, |v, _| out.push(v))
}

/// The intersection of `runs`, by the leapfrog dance: calls `on_match(v,
/// at)` for every value `v` all runs share, in ascending order, with
/// `at[i]` its offset in `runs[i]`. Returns the number of gallops — one per
/// value of a lone run, none when a run is empty or there is none.
#[inline(always)]
pub fn leapfrog_matches(runs: &[&[Value]], mut on_match: impl FnMut(Value, &[usize])) -> u64 {
    match runs {
        [] => 0,
        _ if runs.iter().any(|r| r.is_empty()) => 0,
        [run] => {
            for (j, &v) in run.iter().enumerate() {
                on_match(v, &[j]);
            }
            run.len() as u64
        }
        _ => leapfrog_dance(runs, on_match),
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
            // Wrap without a division: `% k` costs one per gallop.
            i += 1;
            if i == k {
                i = 0;
            }
        }
    })
}

/// Values a [`ValueTable`] can index: a run holding a value at or above
/// this cap is intersected by the dance instead.
///
/// The cap is the value domain the tables were measured on — graphs of up
/// to about 5,000 vertices, whose tables stay within 32 KiB and so in L1.
/// Past it, a large sparse table could miss cache where the dance gallops
/// through a run already in L1; such domains keep the dance until a
/// measurement on one says otherwise.
pub const TABLE_CAP: usize = 1 << 13;

/// Bits of a table entry that hold the offset; the rest hold the stamp.
const OFFSET_BITS: u32 = TABLE_CAP.trailing_zeros();
const OFFSET_MASK: u32 = (1 << OFFSET_BITS) - 1;
/// The largest stamp an entry can carry before the table is wiped.
const MAX_STAMP: u32 = u32::MAX >> OFFSET_BITS;

/// A dense value → offset index over one sorted run, for [`probe_matches`].
///
/// Entry `v` holds `v`'s offset in the run, tagged with the generation
/// stamp of the build that wrote it; only entries carrying the current
/// stamp are answered. Re-indexing a new run bumps the stamp, so forgetting
/// the old run costs O(1) and never reads it — the old run may belong to a
/// trie that is gone. One entry is 4 bytes, and a table covers the values
/// below its run's largest one: a 4,000-vertex graph's run fits in 16 KiB.
#[derive(Debug, Default)]
pub struct ValueTable {
    entries: Vec<u32>,
    stamp: u32,
}

impl ValueTable {
    /// An empty table; storage grows on the first build.
    pub const fn new() -> Self {
        ValueTable { entries: Vec::new(), stamp: 0 }
    }

    /// Indexes `run` (sorted, deduplicated), forgetting the run indexed
    /// before. Returns `None`, leaving the table answering nothing, when
    /// `run` holds a value at or above [`TABLE_CAP`]; otherwise the bytes
    /// of storage the table had to allocate (0 once it is large enough).
    pub fn build(&mut self, run: &[Value]) -> Option<usize> {
        // Strictly ascending values below the cap keep every offset below
        // it too, clear of the stamp bits.
        debug_assert!(run.windows(2).all(|w| w[0] < w[1]), "runs are sorted and deduplicated");
        self.stamp += 1;
        if self.stamp > MAX_STAMP {
            self.entries.fill(0);
            self.stamp = 1;
        }
        let need = run.last().map_or(0, |&v| v as usize + 1);
        if need > TABLE_CAP {
            // Nothing written under the new stamp: every lookup misses.
            return None;
        }
        let mut grown = 0;
        if need > self.entries.len() {
            // A fresh zeroed allocation: stamp 0 is never current.
            let len = need.next_power_of_two().min(TABLE_CAP);
            grown = (len - self.entries.len()) * std::mem::size_of::<u32>();
            self.entries = vec![0; len];
        }
        let tag = self.stamp << OFFSET_BITS;
        for (offset, &v) in run.iter().enumerate() {
            self.entries[v as usize] = tag | offset as u32;
        }
        Some(grown)
    }

    /// `v`'s offset in the indexed run, if the run holds `v`.
    #[inline(always)]
    pub fn get(&self, v: Value) -> Option<usize> {
        let e = *self.entries.get(v as usize)?;
        (e >> OFFSET_BITS == self.stamp).then_some((e & OFFSET_MASK) as usize)
    }
}

/// The probe kernel: the intersection of two or more `runs` found by walking
/// `runs[driver]` once and looking each of its values up in every other
/// run's table. `tables[i]` must index `runs[i]` for every `i != driver`
/// (`tables[driver]` is not read). Calls `on_match(v, at)` exactly as
/// [`leapfrog_matches`] does — the same values, ascending, with `at[i]`
/// `v`'s offset in `runs[i]` — and returns the number of lookups.
#[inline(always)]
pub fn probe_matches(
    runs: &[&[Value]],
    driver: usize,
    tables: &[ValueTable],
    mut on_match: impl FnMut(Value, &[usize]),
) -> u64 {
    let k = runs.len();
    // No driver value above an indexed run's last value can match.
    let mut limit = Value::MAX;
    for (i, run) in runs.iter().enumerate() {
        if i != driver {
            match run.last() {
                Some(&last) => limit = limit.min(last),
                None => return 0,
            }
        }
    }
    with_slots(k, 0usize, |at| {
        let mut probes = 0u64;
        'values: for (j, &v) in runs[driver].iter().enumerate() {
            if v > limit {
                break;
            }
            for (i, table) in tables[..k].iter().enumerate() {
                if i == driver {
                    continue;
                }
                probes += 1;
                match table.get(v) {
                    Some(offset) => at[i] = offset,
                    None => continue 'values,
                }
            }
            at[driver] = j;
            on_match(v, at);
        }
        probes
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
    fn value_table_answers_only_its_current_run() {
        let mut t = ValueTable::new();
        assert_eq!(t.get(0), None);
        assert_eq!(t.build(&[1, 5, 9]), Some(16 * 4), "grown to a power of two past 9");
        assert_eq!((t.get(5), t.get(4), t.get(9), t.get(u32::MAX)), (Some(1), None, Some(2), None));
        assert_eq!(t.build(&[4]), Some(0), "large enough already");
        assert_eq!((t.get(4), t.get(5)), (Some(0), None), "the old run is forgotten");
        assert_eq!(t.build(&[3, TABLE_CAP as Value]), None);
        assert_eq!((t.get(3), t.get(4)), (None, None), "an unfit run answers nothing");
        // Stamps wrap without bringing an old entry back.
        t.build(&[7]);
        for _ in 0..=MAX_STAMP {
            t.build(&[2]);
        }
        assert_eq!((t.get(2), t.get(7)), (Some(0), None));
    }

    #[test]
    fn probing_finds_what_the_dance_finds() {
        let a: Vec<Value> = (0..100).filter(|x| x % 2 == 0).collect();
        let b: Vec<Value> = (0..100).filter(|x| x % 3 == 0).collect();
        let c: Vec<Value> = (0..60).filter(|x| x % 5 == 0).collect();
        let runs: [&[Value]; 3] = [&a, &b, &c];
        let mut want = Vec::new();
        leapfrog_matches(&runs, |v, at| want.push((v, at.to_vec())));
        let mut tables = [ValueTable::new(), ValueTable::new(), ValueTable::new()];
        for (t, run) in tables.iter_mut().zip(runs) {
            t.build(run);
        }
        for driver in 0..3 {
            let mut got = Vec::new();
            let probes = probe_matches(&runs, driver, &tables, |v, at| got.push((v, at.to_vec())));
            assert_eq!(got, want, "driven by run {driver}");
            assert!(probes >= runs[driver].iter().filter(|&&v| v <= 55).count() as u64);
        }
    }

    #[test]
    fn kway_matches_paper_example1() {
        // Example 1: a-values {1} from R1 ∩ {1,4} from R2 = {1}.
        let mut out = Vec::new();
        leapfrog_intersect(&[&[1], &[1, 4]], &mut out);
        assert_eq!(out, vec![1]);
    }
}
