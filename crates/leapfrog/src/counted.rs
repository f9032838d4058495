//! COUNT without enumerating: a join whose inputs split around two
//! attributes is counted bag by bag, and the bags' counts are combined by a
//! dot product.
//!
//! Take the order's first attribute `o0` and the first attribute `k` (in
//! order) such that deleting `{o0, k}` from the join's hypergraph leaves two
//! or more connected components. Each component's inputs form a *bag*;
//! inputs over `{o0, k}` alone join the first bag. When every bag mentions
//! both `o0` and `k`, the bags share no attribute but those two, so for
//! each pair of values `(x, y)` the join's results with `o0 = x, k = y` are
//! the product of each bag's results there:
//!
//! ```text
//! COUNT = Σ_x Σ_y Π_bags W_bag(x, y)
//! ```
//!
//! where `W_bag(x, y)` counts the bag's bindings of its private attributes.
//! This is variable elimination over the hypertree's bags — FAQ/InsideOut
//! (Abo Khamis, Ngo, Rudra, PODS 2016) and factorized databases' count over
//! a d-tree (Olteanu & Závodný, TODS 2015). For the 4-cycle
//! `R1(a,b), R2(b,c), R3(c,d), R4(d,a)` under the order `[a,b,c,d]` the
//! split is `k = c` with the bags `{a,b,c}` and `{a,c,d}`: the paths
//! `a→b→c` and `c→d→a` are counted, never the cycles.
//!
//! [`CountSplit::count`] walks each bag with a [`LeapfrogJoin`] over its own
//! inputs, in the order `[o0] ++ its private attributes in order ++ [k]`,
//! through the one traversal of [`LeapfrogJoin::run_batch`], whose last
//! level hands the walk's sink its separator values a run at a time
//! ([`RowSink::push_run`]). The
//! walks go in step over the values of `o0`, one binding each at a time,
//! smallest bag first: per value, every bag but the last counts its rows
//! into a dense `u64` table keyed by `k`, and the last one adds, per row,
//! the product of the others' counts at its `k` — `Σ_k Π_bags W_bag[k]` —
//! while a value some bag lacks is skipped by the bags after it. The tables
//! hold [`TABLE_CAP`] entries, stamped per value so they are never cleared,
//! and live in the lent [`JoinScratch`]; a value of `k` at or past the cap
//! ends the count, and the caller enumerates. The sum splits over the
//! values of `o0`, so the workers of one count share its tries and divide
//! those values in [`Morsels`].
//!
//! A bag's order can induce another attribute order on an input than the
//! join's order does (the 4-cycle's `R3(c,d)` is read as `d → c`): such an
//! input needs an index of its own, [`CountSplit::reindexed`].

use crate::counters::JoinCounters;
use crate::join::{
    recycle, Batch, BatchOutcome, JoinLayout, JoinScratch, LeapfrogJoin, Lent, Shared,
};
use adj_relational::intersect::TABLE_CAP;
use adj_relational::{Attr, Morsels, Result, RowSink, Schema, Trie, Value};
use std::borrow::Borrow;
use std::cell::RefCell;
use std::sync::Arc;

/// The most bags a count walks in step; a join that splits into more is
/// enumerated.
const MAX_BAGS: usize = 8;

/// How a join's inputs split around its first attribute and a separator
/// attribute, for counting bag by bag (see the module docs). A function of
/// the order and the inputs' attribute sets alone, so it is decided once
/// per plan, beside the join's [`JoinLayout`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountSplit {
    /// The join's attribute order.
    order: Vec<Attr>,
    /// The separator `k`'s level in `order` (`o0` is level 0).
    sep: usize,
    bags: Vec<Bag>,
    /// The inputs a bag reads under another attribute order than the
    /// join's, with the schema its order induces.
    reindexed: Vec<(usize, Schema)>,
}

/// One bag of a [`CountSplit`].
#[derive(Debug, Clone, PartialEq, Eq)]
struct Bag {
    /// Each of the bag's inputs: an index into the join's inputs followed
    /// by the [`CountSplit::reindexed`] ones.
    inputs: Vec<usize>,
    /// The join over the bag's inputs, in the bag's order.
    layout: Arc<JoinLayout>,
    /// Each level of the bag's order, as a level of the join's order.
    levels: Vec<usize>,
}

/// The connected components of the levels the input masks cover outside
/// `sep`, linked through the inputs: one level mask each, ordered by their
/// first level.
fn components(masks: &[u64], sep: u64) -> Vec<u64> {
    let mut comps: Vec<u64> = Vec::new();
    for &mask in masks {
        let mut merged = mask & !sep;
        if merged == 0 {
            continue;
        }
        // The components kept so far are disjoint, so one pass merges every
        // one the input touches.
        comps.retain(|&c| {
            let touches = c & merged != 0;
            if touches {
                merged |= c;
            }
            !touches
        });
        comps.push(merged);
    }
    comps.sort_by_key(|c| c.trailing_zeros());
    comps
}

impl CountSplit {
    /// The split of a join under the attribute order `order` over inputs
    /// of the given schemas, or `None` when it does not split: no separator
    /// leaves two components, a bag misses `o0` or `k`, or more than eight
    /// bags. Only the schemas' attribute sets matter, not their column
    /// order.
    pub fn new<'s>(order: &[Attr], schemas: impl IntoIterator<Item = &'s Schema>) -> Option<Self> {
        let schemas: Vec<&Schema> = schemas.into_iter().collect();
        let n = order.len();
        // Two private attributes at least, one per bag; and a level mask.
        if !(4..=64).contains(&n) {
            return None;
        }
        let level = |a: Attr| order.iter().position(|&o| o == a);
        let mask = |s: &Schema| s.attrs().iter().map(|&a| level(a).map(|l| 1u64 << l)).sum();
        let masks: Vec<u64> = schemas.iter().map(|s| mask(s)).collect::<Option<_>>()?;
        if masks.iter().fold(0, |all, m| all | m) != u64::MAX >> (64 - n) {
            return None;
        }
        let (sep, comps) = (1..n).find_map(|k| {
            let comps = components(&masks, 1 | 1 << k);
            (comps.len() >= 2).then_some((k, comps))
        })?;
        if comps.len() > MAX_BAGS {
            return None;
        }
        let sep_mask = 1 | 1 << sep;
        let mut reindexed: Vec<(usize, Schema)> = Vec::new();
        let mut bags = Vec::with_capacity(comps.len());
        for (b, &comp) in comps.iter().enumerate() {
            // Inputs over the separator alone join the first bag.
            let member = |m: u64| m & comp != 0 || (b == 0 && m & !sep_mask == 0);
            let members: Vec<usize> = (0..masks.len()).filter(|&i| member(masks[i])).collect();
            let mentions = members.iter().fold(0, |all, &i| all | masks[i]);
            if mentions & sep_mask != sep_mask {
                return None;
            }
            let private = (1..n).filter(|&l| comp & 1 << l != 0);
            let levels: Vec<usize> = std::iter::once(0).chain(private).chain([sep]).collect();
            let bag_order: Vec<Attr> = levels.iter().map(|&l| order[l]).collect();
            let induced = |o: &[Attr], s: &Schema| -> Vec<Attr> {
                o.iter().copied().filter(|&a| s.contains(a)).collect()
            };
            let mut inputs = Vec::with_capacity(members.len());
            let mut schemas_in_bag = Vec::with_capacity(members.len());
            for &i in &members {
                let attrs = induced(&bag_order, schemas[i]);
                let schema = Schema::new(attrs.clone()).ok()?;
                if attrs == induced(order, schemas[i]) {
                    inputs.push(i);
                } else {
                    inputs.push(schemas.len() + reindexed.len());
                    reindexed.push((i, schema.clone()));
                }
                schemas_in_bag.push(schema);
            }
            let layout = Arc::new(JoinLayout::new(&bag_order, &schemas_in_bag).ok()?);
            bags.push(Bag { inputs, layout, levels });
        }
        Some(CountSplit { order: order.to_vec(), sep, bags, reindexed })
    }

    /// The inputs some bag reads under another attribute order than the
    /// join's, each as `(input, schema)`: the index of the input in the
    /// join, and the schema the bag's order induces on it. Each needs an
    /// index of its own, over the same relation.
    pub fn reindexed(&self) -> &[(usize, Schema)] {
        &self.reindexed
    }

    /// The split as `EXPLAIN` prints it, attributes named by `name`:
    /// `counted {a,b,c} ⊗ {a,c,d} on {a,c}`.
    pub fn describe(&self, name: impl Fn(Attr) -> String) -> String {
        let set = |levels: &mut dyn Iterator<Item = usize>| {
            let names: Vec<String> = levels.map(|l| name(self.order[l])).collect();
            format!("{{{}}}", names.join(","))
        };
        let bags: Vec<String> = self
            .bags
            .iter()
            .map(|bag| {
                let mut levels = bag.levels.clone();
                levels.sort_unstable();
                set(&mut levels.into_iter())
            })
            .collect();
        format!("counted {} on {}", bags.join(" ⊗ "), set(&mut [0, self.sep].into_iter()))
    }

    /// Counts the join: `input(i)` is the trie of input `i` — the join's
    /// inputs, in its layout's order, followed by the [`Self::reindexed`]
    /// ones under their bags' orders. Each bag is joined over its inputs
    /// ([`SchemaMismatch`](adj_relational::Error::SchemaMismatch) for a trie
    /// of another schema). The walks take their buffers, trie lists and
    /// count tables from `scratch`, so a warm count allocates only its
    /// counters; `stop` is polled as [`LeapfrogJoin::run_batch`] polls it.
    ///
    /// The values of `o0` — the shortest root run of an input that holds
    /// it, the join's own [`LeapfrogJoin::first_values`] — are claimed from
    /// `morsels`, a cursor over their [`Morsels::count`] morsels, so the
    /// workers of one count, each calling this over the same tries, divide
    /// them; a lone caller counts them all.
    ///
    /// Returns the caller's share of the one unbound binding's outcome: the
    /// count of the values it claimed is `counters.output_tuples`, and each
    /// bag walk's bindings are counted at their attribute's level of the
    /// join's order. `completed` is 0 when `stop` fired. `None` when a
    /// value of `k` reached [`TABLE_CAP`]: the join has to be enumerated,
    /// and `morsels` is halted so that every other caller stops too.
    pub fn count<'t>(
        &self,
        input: impl Fn(usize) -> &'t Trie,
        scratch: &mut JoinScratch,
        stop: &mut dyn FnMut() -> bool,
        morsels: &Morsels,
    ) -> Result<Option<BatchOutcome>> {
        let n = self.bags.len();
        if scratch.bags.len() < n {
            scratch.bags.resize_with(n, BagScratch::default);
        }
        let mut joins: [Option<LeapfrogJoin<&'t Trie>>; MAX_BAGS] = [const { None }; MAX_BAGS];
        for ((slot, bag), kept) in joins.iter_mut().zip(&self.bags).zip(&mut scratch.bags) {
            let mut tries = recycle(std::mem::take(&mut kept.tries));
            tries.extend(bag.inputs.iter().map(|&i| input(i)));
            *slot = Some(LeapfrogJoin::with_layout(Arc::clone(&bag.layout), tries)?);
        }
        let outcome = self.walk(&joins[..n], scratch, stop, morsels);
        // The trie lists go back to the scratch, emptied.
        for (slot, kept) in joins.iter_mut().zip(&mut scratch.bags) {
            if let Some(join) = slot.take() {
                kept.tries = recycle(join.into_tries());
            }
        }
        Ok(outcome)
    }

    /// [`Self::count`] over the bags' joins, one per bag.
    fn walk<T: Borrow<Trie>>(
        &self,
        joins: &[Option<LeapfrogJoin<T>>],
        scratch: &mut JoinScratch,
        stop: &mut dyn FnMut() -> bool,
        morsels: &Morsels,
    ) -> Option<BatchOutcome> {
        let n = joins.len();
        let join = |b: usize| joins[b].as_ref().expect("one join per bag");
        let mut counters = JoinCounters::new(self.order.len());
        if (0..n).any(|b| join(b).has_empty_input()) {
            return Some(BatchOutcome { completed: 1, counters });
        }
        // The bindings: the values of `o0`, from the shortest root run of
        // an input that holds it. A value another input lacks counts 0.
        let roots = (0..n).map(|b| join(b).first_values());
        let values = roots.min_by_key(|run| run.len()).expect("every bag holds o0");
        let stop = RefCell::new(stop);
        let hook = || (*stop.borrow_mut())();
        let first = &self.order[..1];
        // The bags walk smallest first: a value of `o0` one bag does not
        // hold is skipped by the larger bags after it, and the largest bag
        // needs no table. Walk `p` is bag `order[p]`'s, in scratch `p`.
        let mut order: [usize; MAX_BAGS] = std::array::from_fn(|b| b);
        let size =
            |&b: &usize| -> usize { join(b).tries().iter().map(|t| t.borrow().tuples()).sum() };
        order[..n].sort_by_key(size);
        let mut batches: [Option<Batch<'_>>; MAX_BAGS] = [const { None }; MAX_BAGS];
        for (p, (slot, kept)) in batches.iter_mut().zip(&mut scratch.bags).take(n).enumerate() {
            let join = join(order[p]);
            if p + 1 < n {
                // Sized on first use, stale between uses.
                kept.table.resize(TABLE_CAP, 0);
            }
            let lent = std::mem::take(&mut kept.cursors);
            *slot = Some(join.begin(first, 1, Some(lent), &hook, &mut kept.join));
        }
        // Per value, every bag but the last counts into its table, and the
        // last one adds, per row, the product of the others' counts at the
        // row's separator value: `Σ_k Π_bags W_bag[k]`, with no table of its
        // own.
        let (mut total, mut completed, mut unfit) = (0u64, 1, false);
        let (tabled, last) = scratch.bags[..n].split_at_mut(n - 1);
        let last = &mut last[0];
        debug_assert_eq!(
            morsels.units(),
            Morsels::count(values.len()),
            "a cursor over o0's morsels"
        );
        'values: while let Some(m) = morsels.claim() {
            for i in Morsels::rows(m, values.len()) {
                for (p, &b) in order[..n].iter().enumerate() {
                    let (join, batch) = (join(b), batches[p].as_mut().expect("begun"));
                    let (done, misfit, empty) = match tabled.get_mut(p) {
                        Some(kept) => {
                            let BagScratch { join: walk_scratch, table, stamp, .. } = kept.renew();
                            let mut tally = Tally { table, stamp: *stamp, rows: 0, unfit: false };
                            let sinks = &mut Shared(&mut tally);
                            let done = join.advance(batch, walk_scratch, values, sinks, i, i + 1);
                            (done, tally.unfit, tally.rows == 0)
                        }
                        None => {
                            let mut dot = Dot { tables: tabled, sum: 0, unfit: false };
                            let sinks = &mut Shared(&mut dot);
                            let done = join.advance(batch, &mut last.join, values, sinks, i, i + 1);
                            total += dot.sum;
                            (done, dot.unfit, false)
                        }
                    };
                    if misfit {
                        unfit = true;
                        break 'values;
                    }
                    if done == i {
                        completed = 0;
                        break 'values;
                    }
                    if empty {
                        // This value counts 0 in this bag: the later bags skip it.
                        break;
                    }
                }
            }
        }
        for (p, (slot, kept)) in batches.iter_mut().zip(&mut scratch.bags).take(n).enumerate() {
            let bag;
            (bag, kept.cursors) =
                join(order[p]).finish(slot.take().expect("begun"), &mut kept.join);
            counters.add_at(&bag, &self.bags[order[p]].levels);
        }
        if unfit {
            morsels.halt();
            return None;
        }
        counters.output_tuples = total;
        Some(BatchOutcome { completed, counters })
    }
}

/// One bag's buffers in a [`JoinScratch`]: the walk's own scratch, the
/// list of the bag's tries, the count table of the value of `o0` under way,
/// and the walk's cursor list.
#[derive(Debug, Default)]
pub(crate) struct BagScratch {
    pub(crate) join: JoinScratch,
    /// The bag join's trie list, emptied (see [`recycle`]).
    tries: Vec<&'static Trie>,
    /// Per value `y` of `k` below [`TABLE_CAP`], the bag's count for
    /// `(x, y)` in the low 32 bits, valid when the high 32 bits hold
    /// `stamp` (a stale entry reads 0, so the table is never cleared). The
    /// last bag's stays empty.
    table: Vec<u64>,
    /// The stamp of the value of `o0` under way.
    stamp: u32,
    /// What the walk borrows: its emptied cursor list.
    cursors: Lent,
}

/// The count bits of a table entry.
const COUNT_MASK: u64 = u32::MAX as u64;

impl BagScratch {
    /// Stamps the table afresh for the next value of `o0`: every entry
    /// reads 0. A wrapped stamp wipes the table.
    fn renew(&mut self) -> &mut Self {
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.table.fill(0);
            self.stamp = 1;
        }
        self
    }

    /// The count at `k`, a value below [`TABLE_CAP`] (masked, so the index
    /// needs no bounds check), for the value of `o0` under way.
    #[inline]
    fn get(&self, k: Value) -> u64 {
        let entry = self.table[k as usize & (TABLE_CAP - 1)];
        (entry & COUNT_MASK) * u64::from(entry >> 32 == u64::from(self.stamp))
    }
}

/// The sink of the last bag's walk: adds, per row, the product of the other
/// bags' counts at the row's last value, the separator's, a run of them at
/// a time. A value past the tables ends the walk.
struct Dot<'a> {
    tables: &'a [BagScratch],
    sum: u64,
    unfit: bool,
}

impl RowSink for Dot<'_> {
    fn push(&mut self, row: &[Value]) -> bool {
        self.push_run(&mut [], &row[row.len() - 1..])
    }

    fn saturated(&self) -> bool {
        self.unfit
    }

    #[inline]
    fn push_run(&mut self, _row: &mut [Value], run: &[Value]) -> bool {
        // The run ascends: its last value is its largest.
        if run.last().is_some_and(|&k| k as usize >= TABLE_CAP) {
            self.unfit = true;
            return false;
        }
        for &k in run {
            self.sum += self.tables.iter().fold(1, |product, bag| product * bag.get(k));
        }
        true
    }
}

/// The sink of a bag walk but the last: counts each row into the table by
/// its last value, the separator's, a run of them at a time. A value past
/// the table ends the walk.
struct Tally<'a> {
    table: &'a mut [u64],
    stamp: u32,
    /// Rows counted for the value of `o0` under way: no entry's count
    /// exceeds it.
    rows: u64,
    unfit: bool,
}

impl RowSink for Tally<'_> {
    fn push(&mut self, row: &[Value]) -> bool {
        self.push_run(&mut [], &row[row.len() - 1..])
    }

    fn saturated(&self) -> bool {
        self.unfit
    }

    #[inline]
    fn push_run(&mut self, _row: &mut [Value], run: &[Value]) -> bool {
        // The run ascends: its last value is its largest.
        // A count past 32 bits is as unfit as a value past the table.
        self.rows += run.len() as u64;
        if run.last().is_some_and(|&k| k as usize >= self.table.len()) || self.rows > COUNT_MASK {
            self.unfit = true;
            return false;
        }
        let (table, stamp) = (&mut self.table[..TABLE_CAP], u64::from(self.stamp));
        for &k in run {
            // Branch-free: a stale entry restarts at 1.
            let entry = &mut table[k as usize & (TABLE_CAP - 1)];
            let live = u64::from(*entry >> 32 == stamp);
            *entry = stamp << 32 | ((*entry & COUNT_MASK) * live + 1);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adj_relational::Relation;

    fn attrs(ids: &[u32]) -> Vec<Attr> {
        ids.iter().map(|&i| Attr(i)).collect()
    }

    fn letter(a: Attr) -> String {
        char::from(b'a' + a.0 as u8).to_string()
    }

    /// The 4-cycle `a-b-c-d-a`'s inputs.
    const CYCLE: [(u32, u32); 4] = [(0, 1), (1, 2), (2, 3), (0, 3)];

    fn schemas(pairs: &[(u32, u32)]) -> Vec<Schema> {
        pairs.iter().map(|&(x, y)| Schema::from_ids(&[x, y])).collect()
    }

    /// The split's count of the join of `pairs` over `edges` under `order`,
    /// beside the plain count: `(split, plain)`, `None` for an unfit split.
    fn counts(
        pairs: &[(u32, u32)],
        order: &[Attr],
        edges: &[(Value, Value)],
    ) -> (Option<u64>, u64) {
        let rels: Vec<Relation> =
            pairs.iter().map(|&(x, y)| Relation::from_pairs(Attr(x), Attr(y), edges)).collect();
        let tries: Vec<Trie> = rels.iter().map(|r| r.trie_under_order(order).unwrap()).collect();
        let plain = LeapfrogJoin::new(order, tries.iter().collect()).unwrap();
        let values = Morsels::count(plain.first_values().len());
        let plain = plain.count().0;
        let split = CountSplit::new(order, &schemas(pairs)).expect("the join splits");
        let extra: Vec<Trie> = (split.reindexed().iter())
            .map(|(i, schema)| rels[*i].trie_under_order(schema.attrs()).unwrap())
            .collect();
        let all: Vec<&Trie> = tries.iter().chain(&extra).collect();
        let mut scratch = JoinScratch::new();
        let counted =
            split.count(|i| all[i], &mut scratch, &mut || false, &Morsels::new(values)).unwrap();
        // A second count over the same scratch reads none of the first's
        // table entries.
        let again =
            split.count(|i| all[i], &mut scratch, &mut || false, &Morsels::new(values)).unwrap();
        let count = |c: &Option<BatchOutcome>| c.as_ref().map(|c| c.counters.output_tuples);
        assert_eq!(count(&again), count(&counted));
        (counted.map(|outcome| outcome.counters.output_tuples), plain)
    }

    fn graph(n: u32, m: u32) -> Vec<(Value, Value)> {
        (0..n).flat_map(|i| [(i % m, (i * 7 + 1) % m), ((i * 3) % m, (i * 11 + 5) % m)]).collect()
    }

    #[test]
    fn a_four_cycle_splits_at_its_third_attribute() {
        let split = CountSplit::new(&attrs(&[0, 1, 2, 3]), &schemas(&CYCLE)).unwrap();
        assert_eq!(split.describe(letter), "counted {a,b,c} ⊗ {a,c,d} on {a,c}");
        // `R3(c,d)` is read as `d → c` by the bag `[a, d, c]`.
        assert_eq!(split.reindexed(), [(2, Schema::from_ids(&[3, 2]))]);
        let inputs: Vec<&[usize]> = split.bags.iter().map(|bag| bag.inputs.as_slice()).collect();
        assert_eq!(inputs, [&[0, 1][..], &[4, 3][..]]);
        // A triangle, a path and a star around its centre do not split.
        let none = |pairs: &[(u32, u32)], ord: &[u32]| {
            CountSplit::new(&attrs(ord), &schemas(pairs)).is_none()
        };
        assert!(none(&[(0, 1), (1, 2), (0, 2)], &[0, 1, 2]));
        assert!(none(&[(0, 1), (1, 2), (2, 3)], &[0, 1, 2, 3]));
        assert!(none(&[(0, 1), (0, 2), (0, 3)], &[0, 1, 2, 3]));
    }

    #[test]
    fn bag_counts_multiply_to_the_join_count() {
        let edges = graph(300, 37);
        for ord in [[0, 1, 2, 3], [1, 2, 3, 0], [0, 3, 2, 1], [2, 1, 0, 3]] {
            let (split, plain) = counts(&CYCLE, &attrs(&ord), &edges);
            assert!(plain > 0);
            assert_eq!(split, Some(plain), "order {ord:?}");
        }
        // A 4-cycle with a chord `(a,c)` over the separator joins the first
        // bag; three bags around `{a, d}`.
        let chord = [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)];
        let (split, plain) = counts(&chord, &attrs(&[0, 1, 2, 3]), &edges);
        assert_eq!(split, Some(plain));
        let three = [(0, 1), (1, 4), (0, 2), (2, 4), (0, 3), (3, 4)];
        let (split, plain) = counts(&three, &attrs(&[0, 4, 1, 2, 3]), &graph(400, 23));
        assert!(plain > 0);
        assert_eq!(split, Some(plain));
    }

    #[test]
    fn a_separator_value_past_the_table_is_unfit() {
        let shift = |v: Value| v + TABLE_CAP as Value;
        let big: Vec<(Value, Value)> =
            graph(300, 37).into_iter().map(|(x, y)| (shift(x), shift(y))).collect();
        let (split, plain) = counts(&CYCLE, &attrs(&[0, 1, 2, 3]), &big);
        assert!(plain > 0);
        assert_eq!(split, None);
    }
}
