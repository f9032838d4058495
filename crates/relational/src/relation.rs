//! Row-major sorted relations and the relational-algebra kernels the paper's
//! algorithms are made of.
//!
//! A [`Relation`] is always kept in *normal form*: tuples sorted
//! lexicographically under the schema's column order and deduplicated. The
//! paper treats relations as sets (Sec. II), and normal form makes set
//! equality, tries, and merge-based operations trivial.

use crate::error::{Error, Result};
use crate::hash::FxHashMap;
use crate::schema::{Attr, Schema};
use crate::Value;
use std::fmt;

/// A relation: a schema plus a sorted, deduplicated row-major tuple store.
#[derive(Clone, PartialEq, Eq)]
pub struct Relation {
    schema: Schema,
    /// Flat row-major storage; `data.len() == arity * len`.
    data: Vec<Value>,
}

impl Relation {
    /// Creates an empty relation with the given schema.
    pub fn empty(schema: Schema) -> Self {
        Relation { schema, data: Vec::new() }
    }

    /// Builds a relation from flat row-major data, normalizing (sort+dedup).
    ///
    /// Errors if `data` is not a multiple of the arity. An arity-0 schema is
    /// only valid with empty data.
    pub fn from_flat(schema: Schema, data: Vec<Value>) -> Result<Self> {
        Relation::from_flat_reporting(schema, data).map(|(rel, _)| rel)
    }

    /// [`Relation::from_flat`], also saying whether the rows had to be
    /// sorted (`false` when `data` was already in normal form). The Merge
    /// route reports this as the sort work it did per block.
    pub fn from_flat_reporting(schema: Schema, data: Vec<Value>) -> Result<(Self, bool)> {
        let arity = schema.arity();
        if arity == 0 {
            if data.is_empty() {
                return Ok((Relation { schema, data }, false));
            }
            return Err(Error::ArityMismatch { expected: 0, got: data.len() });
        }
        if !data.len().is_multiple_of(arity) {
            return Err(Error::ArityMismatch { expected: arity, got: data.len() % arity });
        }
        let mut rel = Relation { schema, data };
        let sorted = rel.normalize()?;
        Ok((rel, sorted))
    }

    /// Builds a relation from row slices. Convenience for tests/workloads.
    pub fn from_rows(schema: Schema, rows: &[&[Value]]) -> Result<Self> {
        let arity = schema.arity();
        let mut data = Vec::with_capacity(rows.len() * arity);
        for r in rows {
            if r.len() != arity {
                return Err(Error::ArityMismatch { expected: arity, got: r.len() });
            }
            data.extend_from_slice(r);
        }
        Relation::from_flat(schema, data)
    }

    /// Builds a binary relation over attributes `(x, y)` from edge pairs.
    /// This is how the paper constructs databases: "each graph is regarded as
    /// a relation with two attributes" (Sec. VII-A).
    pub fn from_pairs(x: Attr, y: Attr, pairs: &[(Value, Value)]) -> Self {
        let schema = Schema::new(vec![x, y]).expect("x != y");
        let mut data = Vec::with_capacity(pairs.len() * 2);
        for &(u, v) in pairs {
            data.push(u);
            data.push(v);
        }
        Relation::from_flat(schema, data).expect("arity 2")
    }

    /// Sorts and deduplicates the rows, returning whether they had to be
    /// sorted.
    ///
    /// Rows of arity ≤ 2 — every stored relation, block and sampling trie
    /// of the graph workloads — sort in place, with no second buffer. A
    /// pair `(hi, lo)` of `u32` columns is keyed as the one `u64`
    /// `hi << 32 | lo`: `hi` fills the high half and `lo < 2^32` cannot
    /// carry into it, so two keys compare as their `hi` columns first and
    /// their `lo` columns on a tie — exactly the lexicographic row order.
    /// A single column is its own key. Wider rows have no one-word key and
    /// keep an index sort over row slices followed by a gather.
    fn normalize(&mut self) -> Result<bool> {
        let arity = self.schema.arity();
        if arity == 0 || self.data.is_empty() {
            return Ok(false);
        }
        // Data already in normal form — a merged gather of Leapfrog outputs,
        // a re-normalized prefix of one — costs one linear pass, not a sort.
        let rows = self.data.chunks_exact(arity);
        if rows.clone().zip(rows.skip(1)).all(|(a, b)| a < b) {
            return Ok(false);
        }
        self.sort_dedup(arity)?;
        Ok(true)
    }

    /// The sorting half of [`Relation::normalize`], kept out of line so the
    /// already-normal check that every gathered output takes stays small:
    /// inlined into it, the three sorts cost `bound_loop` ~2 % of its calls
    /// per second (2-vCPU Xeon).
    #[inline(never)]
    fn sort_dedup(&mut self, arity: usize) -> Result<()> {
        match arity {
            1 => {
                self.data.sort_unstable();
                self.data.dedup();
            }
            2 => {
                let (pairs, _) = self.data.as_chunks_mut::<2>();
                pairs.sort_unstable_by_key(|&[hi, lo]| (hi as u64) << 32 | lo as u64);
                let mut kept = 1;
                for i in 1..pairs.len() {
                    if pairs[i] != pairs[kept - 1] {
                        pairs[kept] = pairs[i];
                        kept += 1;
                    }
                }
                self.data.truncate(2 * kept);
            }
            _ => {
                let n = checked_u32(self.data.len() / arity, "rows in one index sort")?;
                let mut idx: Vec<u32> = (0..n).collect();
                let data = &self.data;
                let row = |i: u32| &data[i as usize * arity..(i as usize + 1) * arity];
                idx.sort_unstable_by(|&i, &j| row(i).cmp(row(j)));
                let mut out = Vec::with_capacity(data.len());
                let mut last: Option<&[Value]> = None;
                for &i in &idx {
                    if last != Some(row(i)) {
                        out.extend_from_slice(row(i));
                        last = Some(row(i));
                    }
                }
                self.data = out;
            }
        }
        Ok(())
    }

    /// The relation schema.
    #[inline]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Relation arity.
    #[inline]
    pub fn arity(&self) -> usize {
        self.schema.arity()
    }

    /// Number of tuples.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len().checked_div(self.arity()).unwrap_or(0)
    }

    /// Whether the relation has no tuples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Approximate in-memory size in bytes (tuple payload only). Used by the
    /// HCube share optimizer's memory constraint (program (3) in the paper).
    #[inline]
    pub fn size_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<Value>()
    }

    /// The `i`-th tuple.
    #[inline]
    pub fn row(&self, i: usize) -> &[Value] {
        let a = self.arity();
        &self.data[i * a..(i + 1) * a]
    }

    /// Iterates over tuples in sorted order.
    pub fn rows(&self) -> impl Iterator<Item = &[Value]> + '_ {
        let a = self.arity();
        self.data.chunks_exact(a.max(1))
    }

    /// Raw flat storage (row-major, sorted).
    #[inline]
    pub fn flat(&self) -> &[Value] {
        &self.data
    }

    /// Membership test via binary search (relation is sorted).
    pub fn contains_row(&self, row: &[Value]) -> bool {
        if row.len() != self.arity() || self.is_empty() {
            return false;
        }
        let a = self.arity();
        let n = self.len();
        let mut lo = 0usize;
        let mut hi = n;
        while lo < hi {
            let mid = (lo + hi) / 2;
            match self.row(mid).cmp(row) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return true,
            }
        }
        let _ = a;
        false
    }

    /// Renames attributes via `map(old) -> new`, keeping column order.
    /// Needed to instantiate one base graph as `R1..Rm` over differing query
    /// attributes (Sec. VII-A's test-case construction).
    pub fn rename(&self, map: impl Fn(Attr) -> Attr) -> Result<Relation> {
        let attrs: Vec<Attr> = self.schema.attrs().iter().map(|&a| map(a)).collect();
        let schema = Schema::new(attrs)?;
        // Data layout unchanged; sortedness is preserved because only names
        // change, not column order.
        Ok(Relation { schema, data: self.data.clone() })
    }

    /// Reorders columns to `order` (a permutation of this schema's attrs) and
    /// re-normalizes. This is the prep step for building a [`crate::Trie`]
    /// consistent with a Leapfrog attribute order.
    pub fn permute(&self, order: &[Attr]) -> Result<Relation> {
        if order.len() != self.arity() {
            return Err(Error::ArityMismatch { expected: self.arity(), got: order.len() });
        }
        let mut positions = Vec::with_capacity(order.len());
        for &a in order {
            match self.schema.position(a) {
                Some(p) => positions.push(p),
                None => {
                    return Err(Error::UnknownAttr {
                        attr: a.to_string(),
                        schema: self.schema.to_string(),
                    })
                }
            }
        }
        let schema = Schema::new(order.to_vec())?;
        let arity = self.arity();
        let mut data = Vec::with_capacity(self.data.len());
        for row in self.data.chunks_exact(arity) {
            for &p in &positions {
                data.push(row[p]);
            }
        }
        Relation::from_flat(schema, data)
    }

    /// Projects onto `attrs` (each must exist; order given by `attrs`),
    /// deduplicating the result.
    pub fn project(&self, attrs: &[Attr]) -> Result<Relation> {
        let mut positions = Vec::with_capacity(attrs.len());
        for &a in attrs {
            match self.schema.position(a) {
                Some(p) => positions.push(p),
                None => {
                    return Err(Error::UnknownAttr {
                        attr: a.to_string(),
                        schema: self.schema.to_string(),
                    })
                }
            }
        }
        let schema = Schema::new(attrs.to_vec())?;
        let arity = self.arity();
        let mut data = Vec::with_capacity(self.len() * attrs.len());
        for row in self.data.chunks_exact(arity.max(1)) {
            for &p in &positions {
                data.push(row[p]);
            }
        }
        Relation::from_flat(schema, data)
    }

    /// Distinct values of one attribute, sorted ascending. Rows are sorted,
    /// so the first column already ascends and only needs its duplicates
    /// dropped; any other column is sorted by [`radix_sort`], which moves
    /// each key once per byte the keys disagree on.
    pub fn column_values(&self, attr: Attr) -> Result<Vec<Value>> {
        let p = self.schema.position(attr).ok_or_else(|| Error::UnknownAttr {
            attr: attr.to_string(),
            schema: self.schema.to_string(),
        })?;
        let arity = self.arity();
        let mut vals: Vec<Value> = self.data.chunks_exact(arity).map(|row| row[p]).collect();
        if p > 0 {
            radix_sort(&mut vals);
        }
        vals.dedup();
        Ok(vals)
    }

    /// Set union of two relations over the same attribute set (column order
    /// may differ; the result uses `self`'s order).
    pub fn union(&self, other: &Relation) -> Result<Relation> {
        if self.schema.mask() != other.schema.mask() {
            return Err(Error::SchemaMismatch {
                left: self.schema.to_string(),
                right: other.schema.to_string(),
            });
        }
        let other = if other.schema == self.schema {
            other.clone()
        } else {
            other.permute(self.schema.attrs())?
        };
        let mut data = self.data.clone();
        data.extend_from_slice(&other.data);
        Relation::from_flat(self.schema.clone(), data)
    }

    /// Natural join with `other`. Hash join on the common attributes; the
    /// output schema is `self.schema ∪ other.schema` (left columns first).
    ///
    /// This kernel is what ADJ uses to *pre-compute candidate relations*
    /// (`R45 = R4 ⋈ R5` in the paper's running example) and what the
    /// SparkSQL-analog baseline chains for multi-round evaluation.
    pub fn join(&self, other: &Relation) -> Result<Relation> {
        self.join_budgeted(other, usize::MAX)
    }

    /// Natural join, failing with [`Error::BudgetExceeded`] once the output
    /// exceeds `max_tuples`. The experiment harness uses this to reproduce
    /// the paper's OOM / timeout failure bars for multi-round baselines.
    pub fn join_budgeted(&self, other: &Relation, max_tuples: usize) -> Result<Relation> {
        let common = self.schema.common(&other.schema);
        let out_schema = self.schema.union(&other.schema);

        // Build side: the smaller input, keyed on common-attr values.
        let (build, probe, build_is_left) =
            if self.len() <= other.len() { (self, other, true) } else { (other, self, false) };
        let build_key_pos: Vec<usize> =
            common.iter().map(|&a| build.schema.position(a).unwrap()).collect();
        let probe_key_pos: Vec<usize> =
            common.iter().map(|&a| probe.schema.position(a).unwrap()).collect();
        // Columns of the probe side not in the join key and not in build.
        let probe_extra_pos: Vec<usize> = probe
            .schema
            .attrs()
            .iter()
            .enumerate()
            .filter(|(_, a)| !build.schema.contains(**a))
            .map(|(i, _)| i)
            .collect();

        let mut table: FxHashMap<Vec<Value>, Vec<u32>> = FxHashMap::default();
        for (i, row) in build.rows().enumerate() {
            let key: Vec<Value> = build_key_pos.iter().map(|&p| row[p]).collect();
            table.entry(key).or_default().push(i as u32);
        }

        // Output column layout follows out_schema: self's columns then
        // other's new columns. Precompute, for each output column, where to
        // read it from (build row or probe row).
        #[derive(Clone, Copy)]
        enum Src {
            Build(usize),
            Probe(usize),
        }
        let mut srcs = Vec::with_capacity(out_schema.arity());
        for &a in out_schema.attrs() {
            if let Some(p) = build.schema.position(a) {
                srcs.push(Src::Build(p));
            } else {
                srcs.push(Src::Probe(probe.schema.position(a).unwrap()));
            }
        }
        let _ = (&probe_extra_pos, build_is_left);

        let mut data: Vec<Value> = Vec::new();
        let mut key = Vec::with_capacity(common.len());
        let mut count = 0usize;
        for prow in probe.rows() {
            key.clear();
            key.extend(probe_key_pos.iter().map(|&p| prow[p]));
            if let Some(matches) = table.get(&key) {
                for &bi in matches {
                    count += 1;
                    if count > max_tuples {
                        return Err(Error::BudgetExceeded {
                            what: "join output tuples",
                            limit: max_tuples,
                        });
                    }
                    let brow = build.row(bi as usize);
                    for s in &srcs {
                        match *s {
                            Src::Build(p) => data.push(brow[p]),
                            Src::Probe(p) => data.push(prow[p]),
                        }
                    }
                }
            }
        }
        Relation::from_flat(out_schema, data)
    }

    /// Semi-join: tuples of `self` that join with at least one tuple of
    /// `other` on their common attributes. If there are no common attributes
    /// the result is `self` unchanged (every pair joins) unless `other` is
    /// empty. Used by the distributed sampler's database-reduction step
    /// (Sec. IV).
    pub fn semijoin(&self, other: &Relation) -> Relation {
        let common = self.schema.common(&other.schema);
        if common.is_empty() {
            return if other.is_empty() && other.arity() > 0 {
                Relation::empty(self.schema.clone())
            } else {
                self.clone()
            };
        }
        let other_pos: Vec<usize> =
            common.iter().map(|&a| other.schema.position(a).unwrap()).collect();
        let self_pos: Vec<usize> =
            common.iter().map(|&a| self.schema.position(a).unwrap()).collect();
        let mut keys: FxHashMap<Vec<Value>, ()> = FxHashMap::default();
        for row in other.rows() {
            keys.insert(other_pos.iter().map(|&p| row[p]).collect(), ());
        }
        let arity = self.arity();
        let mut data = Vec::new();
        let mut key = Vec::with_capacity(common.len());
        for row in self.data.chunks_exact(arity) {
            key.clear();
            key.extend(self_pos.iter().map(|&p| row[p]));
            if keys.contains_key(&key) {
                data.extend_from_slice(row);
            }
        }
        // Input was sorted and filtering preserves order; skip re-sort.
        Relation { schema: self.schema.clone(), data }
    }

    /// K-way merges already-sorted relations over the *same* schema into one
    /// sorted, deduplicated relation without a full re-sort — the kernel of
    /// the "Merge" HCube implementation (Sec. V), where each pulled block is
    /// already sorted and the local trie is built from the merged run.
    pub fn merge_sorted(parts: &[&Relation]) -> Result<Relation> {
        let Some(first) = parts.first() else {
            return Err(Error::SchemaMismatch { left: "<none>".into(), right: "<none>".into() });
        };
        let schema = first.schema().clone();
        let arity = schema.arity();
        for p in parts {
            if p.schema() != &schema {
                return Err(Error::SchemaMismatch {
                    left: schema.to_string(),
                    right: p.schema().to_string(),
                });
            }
        }
        // The tournament's first round reads the parts in place: only its
        // outputs, and an odd part out, are copied.
        let first_round = parts
            .chunks(2)
            .map(|pair| match pair {
                [a, b] => merge_two(a.flat(), b.flat(), arity),
                _ => pair[0].flat().to_vec(),
            })
            .collect();
        Ok(Relation { schema, data: merge_sorted_runs(first_round, arity) })
    }

    /// Set difference `self \ other` over the same attribute set (column
    /// order may differ; the result uses `self`'s order). Both inputs are in
    /// normal form, so this is a single merge pass — the tombstone-
    /// application kernel of the delta-overlay mutation path, where a sorted
    /// tombstone run is subtracted from a base run without re-sorting.
    pub fn subtract(&self, other: &Relation) -> Result<Relation> {
        if self.schema.mask() != other.schema.mask() {
            return Err(Error::SchemaMismatch {
                left: self.schema.to_string(),
                right: other.schema.to_string(),
            });
        }
        if other.is_empty() || self.is_empty() {
            return Ok(self.clone());
        }
        let permuted;
        let other = if other.schema == self.schema {
            other
        } else {
            permuted = other.permute(self.schema.attrs())?;
            &permuted
        };
        let arity = self.arity();
        let a = &self.data;
        let b = &other.data;
        let mut out = Vec::with_capacity(a.len());
        let (mut i, mut j) = (0usize, 0usize);
        while i < a.len() && j < b.len() {
            let ra = &a[i..i + arity];
            let rb = &b[j..j + arity];
            match ra.cmp(rb) {
                std::cmp::Ordering::Less => {
                    out.extend_from_slice(ra);
                    i += arity;
                }
                std::cmp::Ordering::Greater => j += arity,
                std::cmp::Ordering::Equal => {
                    i += arity;
                    j += arity;
                }
            }
        }
        out.extend_from_slice(&a[i..]);
        // Filtering a sorted-dedup run preserves the invariant; skip re-sort.
        Ok(Relation { schema: self.schema.clone(), data: out })
    }

    /// Selects tuples where `attr == value`. Used by the sampler to pin the
    /// sampled attribute (`T_{A=a}` in Eq. (4)).
    pub fn select_eq(&self, attr: Attr, value: Value) -> Result<Relation> {
        let p = self.schema.position(attr).ok_or_else(|| Error::UnknownAttr {
            attr: attr.to_string(),
            schema: self.schema.to_string(),
        })?;
        let arity = self.arity();
        let mut data = Vec::new();
        for row in self.data.chunks_exact(arity) {
            if row[p] == value {
                data.extend_from_slice(row);
            }
        }
        Ok(Relation { schema: self.schema.clone(), data })
    }
}

/// `n` as the `u32` that row indices and trie offsets are stored in, or
/// [`Error::BudgetExceeded`] naming `what` and the `u32` limit — never a
/// silent wrap past 4 G rows or nodes.
pub(crate) fn checked_u32(n: usize, what: &'static str) -> Result<u32> {
    u32::try_from(n).map_err(|_| Error::BudgetExceeded { what, limit: u32::MAX as usize })
}

/// Below this many keys [`radix_sort`] hands off to the comparison sort:
/// its four 256-bucket histograms cost more than sorting a short run.
const RADIX_MIN: usize = 256;

/// Sorts `values` ascending with a least-significant-digit radix sort over
/// the four bytes of each key. One pass counts all four byte histograms; a
/// byte on which every key agrees (one bucket holds them all) moves
/// nothing, so its scatter pass is skipped — a column of small ids pays for
/// its low bytes only. Short inputs take `sort_unstable`.
pub fn radix_sort(values: &mut Vec<Value>) {
    let n = values.len();
    if n < RADIX_MIN {
        values.sort_unstable();
        return;
    }
    let mut counts = [[0usize; 256]; 4];
    for &v in values.iter() {
        for (byte, count) in counts.iter_mut().enumerate() {
            count[(v >> (8 * byte)) as u8 as usize] += 1;
        }
    }
    let mut spare = vec![0; n];
    for (byte, count) in counts.iter().enumerate() {
        if count.contains(&n) {
            continue;
        }
        let mut next = [0usize; 256];
        let mut at = 0;
        for (slot, &c) in next.iter_mut().zip(count) {
            *slot = at;
            at += c;
        }
        for &v in values.iter() {
            let bucket = &mut next[(v >> (8 * byte)) as u8 as usize];
            spare[*bucket] = v;
            *bucket += 1;
        }
        std::mem::swap(values, &mut spare);
    }
}

/// Merges sorted, deduplicated row-major runs of one arity into one sorted,
/// deduplicated run, by a tournament of pairwise merges — no re-sort. This
/// is how Merge-HCube joins pulled blocks and how the executors gather
/// worker outputs: Leapfrog emits each worker's rows in order, so the
/// gathered result is already in normal form.
pub fn merge_sorted_runs(mut runs: Vec<Vec<Value>>, arity: usize) -> Vec<Value> {
    runs.retain(|run| !run.is_empty());
    while runs.len() > 1 {
        let mut next = Vec::with_capacity(runs.len().div_ceil(2));
        let mut it = runs.into_iter();
        while let Some(a) = it.next() {
            match it.next() {
                Some(b) => next.push(merge_two(&a, &b, arity)),
                None => next.push(a),
            }
        }
        runs = next;
    }
    runs.pop().unwrap_or_default()
}

/// [`merge_sorted_runs`] over borrowed runs: the merged run is the only
/// allocation (a copy when one run is not empty, none when every run is).
pub fn merge_sorted_slices<'r>(
    runs: impl IntoIterator<Item = &'r [Value]>,
    arity: usize,
) -> Vec<Value> {
    let mut runs = runs.into_iter().filter(|run| !run.is_empty());
    let (Some(a), b) = (runs.next(), runs.next()) else {
        return Vec::new();
    };
    let Some(b) = b else {
        return a.to_vec();
    };
    // The first tournament round reads the borrowed runs; the rest merge
    // what it produced.
    let mut merged = vec![merge_two(a, b, arity)];
    while let Some(a) = runs.next() {
        merged.push(match runs.next() {
            Some(b) => merge_two(a, b, arity),
            None => a.to_vec(),
        });
    }
    merge_sorted_runs(merged, arity)
}

/// Merges two sorted-dedup row-major runs of the same arity.
fn merge_two(a: &[Value], b: &[Value], arity: usize) -> Vec<Value> {
    if arity == 0 {
        return Vec::new();
    }
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        let ra = &a[i..i + arity];
        let rb = &b[j..j + arity];
        match ra.cmp(rb) {
            std::cmp::Ordering::Less => {
                out.extend_from_slice(ra);
                i += arity;
            }
            std::cmp::Ordering::Greater => {
                out.extend_from_slice(rb);
                j += arity;
            }
            std::cmp::Ordering::Equal => {
                out.extend_from_slice(ra);
                i += arity;
                j += arity;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Relation{} [{} tuples]", self.schema, self.len())?;
        if self.len() <= 16 {
            for row in self.rows() {
                write!(f, " {row:?}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel(ids: &[u32], rows: &[&[Value]]) -> Relation {
        Relation::from_rows(Schema::from_ids(ids), rows).unwrap()
    }

    #[test]
    fn normalization_sorts_and_dedups() {
        let r = rel(&[0, 1], &[&[2, 1], &[1, 1], &[2, 1], &[1, 0]]);
        let rows: Vec<Vec<Value>> = r.rows().map(|r| r.to_vec()).collect();
        assert_eq!(rows, vec![vec![1, 0], vec![1, 1], vec![2, 1]]);
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn from_flat_rejects_ragged() {
        let err = Relation::from_flat(Schema::from_ids(&[0, 1]), vec![1, 2, 3]);
        assert!(err.is_err());
    }

    #[test]
    fn contains_row_binary_search() {
        let r = rel(&[0, 1], &[&[1, 2], &[3, 4], &[5, 6]]);
        assert!(r.contains_row(&[3, 4]));
        assert!(!r.contains_row(&[3, 5]));
        assert!(!r.contains_row(&[3])); // wrong arity
    }

    #[test]
    fn project_and_dedup() {
        let r = rel(&[0, 1], &[&[1, 2], &[1, 3], &[2, 2]]);
        let p = r.project(&[Attr(0)]).unwrap();
        assert_eq!(p.flat(), &[1, 2]);
        // projection order can differ from schema order
        let p2 = r.project(&[Attr(1), Attr(0)]).unwrap();
        assert_eq!(p2.schema().attrs(), &[Attr(1), Attr(0)]);
        assert_eq!(p2.len(), 3);
    }

    #[test]
    fn permute_roundtrip() {
        let r = rel(&[0, 1, 2], &[&[1, 2, 3], &[4, 5, 6]]);
        let p = r.permute(&[Attr(2), Attr(0), Attr(1)]).unwrap();
        assert_eq!(p.row(0), &[3, 1, 2]);
        let back = p.permute(&[Attr(0), Attr(1), Attr(2)]).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn join_matches_paper_example() {
        // Fig. 4: R4(b,e) ⋈ R5(c,e) on attribute e gives R45(b,e,c) with 9
        // tuples (18 integers / 2... the paper says 18 integers for the
        // 3-column relation => 6 tuples; we verify against direct nested loop).
        let r4 = Relation::from_pairs(
            Attr(1),
            Attr(4),
            &[(3, 1), (4, 1), (5, 2), (4, 2), (2, 2), (2, 1)],
        );
        let r5 = Relation::from_pairs(
            Attr(2),
            Attr(4),
            &[(4, 1), (5, 1), (3, 2), (4, 2), (1, 2), (2, 1)],
        );
        let j = r4.join(&r5).unwrap();
        // verify against nested loop
        let mut expected = 0;
        for a in r4.rows() {
            for b in r5.rows() {
                if a[1] == b[1] {
                    expected += 1;
                }
            }
        }
        assert_eq!(j.len(), expected);
        assert_eq!(j.schema().attrs(), &[Attr(1), Attr(4), Attr(2)]);
        // every output tuple projects back into both inputs
        for row in j.rows() {
            assert!(r4.contains_row(&[row[0], row[1]]));
            assert!(r5.contains_row(&[row[2], row[1]]));
        }
    }

    #[test]
    fn join_budget_trips() {
        let r = rel(&[0, 1], &[&[1, 1], &[1, 2], &[1, 3]]);
        let s = rel(&[0, 2], &[&[1, 1], &[1, 2], &[1, 3]]);
        // cross-ish join on a=1 yields 9 tuples
        let err = r.join_budgeted(&s, 8).unwrap_err();
        assert!(matches!(err, Error::BudgetExceeded { .. }));
        assert_eq!(r.join_budgeted(&s, 9).unwrap().len(), 9);
    }

    #[test]
    fn join_disjoint_schemas_is_cross_product() {
        let r = rel(&[0], &[&[1], &[2]]);
        let s = rel(&[1], &[&[7], &[8], &[9]]);
        let j = r.join(&s).unwrap();
        assert_eq!(j.len(), 6);
    }

    #[test]
    fn semijoin_filters() {
        let r = rel(&[0, 1], &[&[1, 2], &[3, 4], &[5, 6]]);
        let s = rel(&[1, 2], &[&[2, 9], &[6, 9]]);
        let f = r.semijoin(&s);
        assert_eq!(f.len(), 2);
        assert!(f.contains_row(&[1, 2]));
        assert!(f.contains_row(&[5, 6]));
    }

    #[test]
    fn semijoin_no_common_attrs() {
        let r = rel(&[0], &[&[1], &[2]]);
        let s = rel(&[1], &[&[9]]);
        assert_eq!(r.semijoin(&s).len(), 2);
        let empty = Relation::empty(Schema::from_ids(&[1]));
        assert_eq!(r.semijoin(&empty).len(), 0);
    }

    #[test]
    fn union_handles_permuted_schemas() {
        let r = rel(&[0, 1], &[&[1, 2]]);
        let s = rel(&[1, 0], &[&[2, 1], &[5, 4]]);
        let u = r.union(&s).unwrap();
        assert_eq!(u.len(), 2); // (1,2) dedups with permuted (2,1)
        assert!(u.contains_row(&[4, 5]));
    }

    #[test]
    fn select_eq_and_column_values() {
        let r = rel(&[0, 1], &[&[1, 2], &[1, 3], &[2, 3]]);
        assert_eq!(r.select_eq(Attr(0), 1).unwrap().len(), 2);
        assert_eq!(r.column_values(Attr(1)).unwrap(), vec![2, 3]);
    }

    #[test]
    fn merge_sorted_equals_union() {
        let a = rel(&[0, 1], &[&[1, 2], &[3, 4], &[9, 9]]);
        let b = rel(&[0, 1], &[&[1, 2], &[2, 2]]);
        let c = rel(&[0, 1], &[&[0, 1], &[9, 9]]);
        let m = Relation::merge_sorted(&[&a, &b, &c]).unwrap();
        let u = a.union(&b).unwrap().union(&c).unwrap();
        assert_eq!(m, u);
        assert_eq!(m.len(), 5);
    }

    #[test]
    fn merge_sorted_runs_is_the_normalized_union() {
        let runs = vec![vec![1, 2, 3, 4, 9, 9], vec![], vec![0, 1, 1, 2, 9, 9]];
        assert_eq!(merge_sorted_runs(runs, 2), vec![0, 1, 1, 2, 3, 4, 9, 9]);
        assert!(merge_sorted_runs(Vec::new(), 2).is_empty());
        assert!(merge_sorted_runs(vec![vec![], vec![]], 2).is_empty());
    }

    #[test]
    fn merge_sorted_single_and_mismatch() {
        let a = rel(&[0, 1], &[&[1, 2]]);
        assert_eq!(Relation::merge_sorted(&[&a]).unwrap(), a);
        let b = rel(&[0, 2], &[&[1, 2]]);
        assert!(Relation::merge_sorted(&[&a, &b]).is_err());
        assert!(Relation::merge_sorted(&[]).is_err());
    }

    #[test]
    fn subtract_is_set_difference() {
        let a = rel(&[0, 1], &[&[1, 2], &[3, 4], &[5, 6], &[9, 9]]);
        let b = rel(&[0, 1], &[&[3, 4], &[9, 9], &[7, 7]]);
        let d = a.subtract(&b).unwrap();
        assert_eq!(d, rel(&[0, 1], &[&[1, 2], &[5, 6]]));
        // subtracting rows that are absent is a no-op
        let missing = rel(&[0, 1], &[&[100, 100]]);
        assert_eq!(a.subtract(&missing).unwrap(), a);
        // permuted column order still subtracts the same tuple set
        let bp = rel(&[1, 0], &[&[4, 3], &[9, 9]]);
        assert_eq!(a.subtract(&bp).unwrap(), rel(&[0, 1], &[&[1, 2], &[5, 6]]));
        // empty edge cases
        assert_eq!(a.subtract(&Relation::empty(a.schema().clone())).unwrap(), a);
        let empty = Relation::empty(a.schema().clone());
        assert!(empty.subtract(&a).unwrap().is_empty());
        // schema mismatch is an error
        assert!(a.subtract(&rel(&[0, 2], &[&[1, 2]])).is_err());
    }

    #[test]
    fn checked_u32_names_the_limit_past_4g() {
        assert_eq!(checked_u32(u32::MAX as usize, "rows"), Ok(u32::MAX));
        let err = checked_u32(u32::MAX as usize + 1, "trie rows").unwrap_err();
        assert_eq!(err, Error::BudgetExceeded { what: "trie rows", limit: u32::MAX as usize });
        assert!(err.to_string().contains("trie rows over limit 4294967295"), "{err}");
    }

    #[test]
    fn from_flat_reporting_says_when_it_sorted() {
        let schema = Schema::from_ids(&[0, 1]);
        let (r, sorted) = Relation::from_flat_reporting(schema.clone(), vec![1, 2, 3, 4]).unwrap();
        assert!(!sorted, "normal form is left alone");
        assert_eq!(r.flat(), &[1, 2, 3, 4]);
        let (r, sorted) = Relation::from_flat_reporting(schema, vec![3, 4, 1, 2, 3, 4]).unwrap();
        assert!(sorted);
        assert_eq!(r.flat(), &[1, 2, 3, 4]);
    }

    #[test]
    fn rename_preserves_data() {
        let r = rel(&[0, 1], &[&[1, 2]]);
        let rn = r.rename(|a| Attr(a.0 + 10)).unwrap();
        assert_eq!(rn.schema().attrs(), &[Attr(10), Attr(11)]);
        assert_eq!(rn.row(0), &[1, 2]);
    }
}
