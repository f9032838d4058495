//! The Leapfrog Triejoin driver (Algorithm 1 of the paper).
//!
//! One depth-first traversal, [`LeapfrogJoin`]'s private `recurse_sink`,
//! serves every caller: streaming into a [`RowSink`] (`join_into`, `run`),
//! counting (`count`, the budgeted `count_with_budget`, the sampler's
//! `count_with_first_value`) and batched joins ([`BatchedLeapfrog`]).
//! At each query level it intersects the participants' candidate runs —
//! "the main cost of Leapfrog is the cost of the intersections" — and it
//! pays for nothing else the intersection already knows:
//!
//! * **Interior levels find each match once.** The level's intersection
//!   records, per matched value, its offset in every participant's run.
//!   Descending into a match jumps each participant's cursor to that offset
//!   ([`TrieCursor::jump`], O(1)) instead of galloping to the value a
//!   second time.
//! * **The last free level never descends.** It intersects the
//!   participants' child runs in place ([`TrieCursor::child_run`]): no
//!   cursor opens, seeks or goes up there. A sink that only needs a count
//!   ([`RowSink::counts_only`]) receives the intersection's size in one
//!   [`RowSink::push_count`], and no value is written; any other sink
//!   receives one row per matched value.
//! * **Runs that stand still are probed, not galloped into.** A
//!   participant's run at level `L` is read under its cursor's position at
//!   its previous participating level (bound levels count). When that level
//!   is `L − 1`, every binding there shows it a new run: the participant
//!   *varies*. When it is further up, or there is none (a root run), the
//!   run stands still while the levels in between iterate: the participant
//!   is *invariant*, and the dance would gallop into the same run again for
//!   every binding beneath it. [`LeapfrogJoin::new`] reads this off the
//!   order and the schemas once. A level with exactly one varying
//!   participant walks that run and answers every invariant one from a
//!   dense value → offset table ([`probe_matches`], [`ValueTable`]). The
//!   probe finds the same matches in the same order with the same offsets
//!   as the dance ([`leapfrog_matches`]), so every sink sees what it saw
//!   before. A table is built the second time its run is asked for, so a
//!   run used once costs nothing. The dance keeps the level when two or
//!   more participants vary, when a run holds a value past
//!   [`TABLE_CAP`](adj_relational::intersect::TABLE_CAP), or when the
//!   driving run is more than four times longer than the shortest invariant
//!   run (galloping from the short side is cheaper then).
//!
//! The kernels and the per-level run lists live on the stack for up to
//! [`INLINE_RUNS`](adj_relational::intersect::INLINE_RUNS) participants,
//! and the per-level intersections and tables in reused [`JoinScratch`]
//! buffers, so a warm join allocates nothing per trie node.

use crate::counters::{JoinCounters, JoinStats};
use adj_relational::intersect::{leapfrog_matches, probe_matches, with_slots, ValueTable};
use adj_relational::{
    Attr, BoundValues, CountSink, Error, FnSink, Result, RowSink, Trie, TrieCursor, Value,
};
use std::borrow::Borrow;
use std::sync::atomic::{AtomicU64, Ordering};

/// Validates that every trie's level order is the order induced by the
/// global attribute order `order` (the invariant HCube's shuffle
/// establishes) and that every attribute is bound by at least one relation.
/// Returns, for each query level, the indices of the participating tries.
///
/// Shared by [`LeapfrogJoin`] and [`crate::CachedJoin`] so neither has to
/// construct (and drop) the other just to reuse its constructor checks.
pub fn validate_tries<T: Borrow<Trie>>(order: &[Attr], tries: &[T]) -> Result<Vec<Vec<usize>>> {
    for t in tries {
        let t: &Trie = t.borrow();
        let induced: Vec<Attr> =
            order.iter().copied().filter(|a| t.schema().contains(*a)).collect();
        if induced != t.schema().attrs() {
            return Err(Error::SchemaMismatch {
                left: t.schema().to_string(),
                right: format!("induced by order {order:?}"),
            });
        }
    }
    let participants: Vec<Vec<usize>> = order
        .iter()
        .map(|a| {
            tries
                .iter()
                .enumerate()
                .filter(|(_, t)| {
                    let t: &Trie = (*t).borrow();
                    t.schema().contains(*a)
                })
                .map(|(i, _)| i)
                .collect::<Vec<_>>()
        })
        .collect();
    // Every attribute must be bound by at least one relation.
    for (lvl, ps) in participants.iter().enumerate() {
        if ps.is_empty() {
            return Err(Error::UnknownAttr {
                attr: order[lvl].to_string(),
                schema: "any input trie".to_string(),
            });
        }
    }
    Ok(participants)
}

/// Reusable per-level intersection output buffers and invariant-run
/// tables.
///
/// The Leapfrog inner loop produces one candidate list per level per
/// binding; allocating a fresh `Vec<Value>` for each would dominate
/// steady-state enumeration on small per-worker fragments. A `JoinScratch`
/// keeps one pair of buffers per query level (reused across sibling
/// bindings and across joins), so enumeration is allocation-free once the
/// buffers reach their high-water marks. It also keeps one value table per
/// (level, participant) slot for the probe kernel. A table is keyed by the
/// join and the run it indexes, so a scratch reused across joins — even
/// over tries dropped and rebuilt at the same addresses — never trusts a
/// table another join built.
#[derive(Debug, Default)]
pub struct JoinScratch {
    levels: Vec<LevelScratch>,
}

/// One level's intersection, as the position-carrying kernel writes it.
#[derive(Debug, Default)]
struct LevelScratch {
    /// The matched values, ascending.
    values: Vec<Value>,
    /// Per match `m`, participant `i`'s offset of `values[m]` in its run, at
    /// `positions[m * k + i]` for `k` participants.
    positions: Vec<usize>,
    /// The level's invariant-run tables.
    tables: LevelTables,
}

/// The run a table slot was last asked for: the join, and the run's place
/// and length in that join's tries (compared, never dereferenced).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct RunKey {
    join: u64,
    start: usize,
    len: usize,
}

/// How far a table slot got with the run its key names.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
enum TableState {
    /// Asked for once: the level danced. A second ask builds the table.
    #[default]
    Seen,
    /// The table indexes the run.
    Built,
    /// The run holds a value past the table cap
    /// ([`TABLE_CAP`](adj_relational::intersect::TABLE_CAP)): the level
    /// dances.
    Unfit,
}

/// A driving run longer than `DRIVER_RATIO ×` the shortest invariant run
/// `+ DRIVER_SLACK` is intersected by the dance, which gallops from the
/// short side.
const DRIVER_RATIO: usize = 4;
const DRIVER_SLACK: usize = 8;

/// One level's value tables, one slot per participant (the driver's slot
/// stays unused).
#[derive(Debug, Default)]
struct LevelTables {
    seen: Vec<(RunKey, TableState)>,
    tables: Vec<ValueTable>,
}

impl LevelTables {
    /// Whether every run but `runs[driver]` has its table ready, so the
    /// level can probe. Records a run asked for the first time and builds
    /// the table of one asked for the second time; a driving run too long
    /// for probing to pay asks for nothing.
    fn ready(
        &mut self,
        join: u64,
        runs: &[&[Value]],
        driver: usize,
        stats: &mut JoinStats,
    ) -> bool {
        let shortest = runs
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != driver)
            .map(|(_, run)| run.len())
            .min()
            .unwrap_or(0);
        if shortest == 0 || runs[driver].len() > DRIVER_RATIO * shortest + DRIVER_SLACK {
            return false;
        }
        if self.seen.len() < runs.len() {
            self.seen.resize(runs.len(), Default::default());
            self.tables.resize_with(runs.len(), ValueTable::new);
        }
        let mut ready = true;
        for (i, run) in runs.iter().enumerate().filter(|&(i, _)| i != driver) {
            let key = RunKey { join, start: run.as_ptr() as usize, len: run.len() };
            let (seen, state) = &mut self.seen[i];
            if *seen != key {
                (*seen, *state) = (key, TableState::Seen);
                ready = false;
                continue;
            }
            match *state {
                TableState::Built => {}
                TableState::Unfit => ready = false,
                TableState::Seen => match self.tables[i].build(run) {
                    Some(grown) => {
                        stats.table_builds += 1;
                        stats.table_bytes += grown as u64;
                        *state = TableState::Built;
                    }
                    None => {
                        *state = TableState::Unfit;
                        ready = false;
                    }
                },
            }
        }
        ready
    }
}

impl JoinScratch {
    /// An empty scratch pool; buffers grow on first use.
    pub fn new() -> Self {
        JoinScratch::default()
    }

    /// Ensures one buffer pair per level, returning them.
    fn for_levels(&mut self, levels: usize) -> &mut [LevelScratch] {
        if self.levels.len() < levels {
            self.levels.resize_with(levels, LevelScratch::default);
        }
        &mut self.levels[..levels]
    }
}

/// What one traversal threads through every level: a cursor per trie, the
/// binding under construction, the counters, and how many more bindings a
/// budgeted count may produce.
struct Walk<'t> {
    cursors: Vec<TrieCursor<'t>>,
    binding: Vec<Value>,
    counters: JoinCounters,
    /// Bindings (summed over levels) the walk may still produce;
    /// `u64::MAX` when unbudgeted.
    budget: u64,
    /// Whether the walk stopped because it ran out of budget.
    over_budget: bool,
}

impl Walk<'_> {
    /// Records `n` bindings produced at `level`. Returns `false`, stopping
    /// the walk, once they overrun the budget — the level's tuples are still
    /// counted, so an over-budget walk's counters are a lower bound.
    #[inline]
    fn produce(&mut self, level: usize, n: u64) -> bool {
        self.counters.tuples_per_level[level] += n;
        if n > self.budget {
            self.over_budget = true;
            return false;
        }
        self.budget -= n;
        true
    }
}

/// The placeholder a level's run list starts from.
const NO_RUN: &[Value] = &[];

/// Gives every join its own identity, so table keys never match across
/// joins. `Relaxed` suffices: the id publishes no other data, and
/// `fetch_add` hands out each value once under any ordering.
static NEXT_JOIN_ID: AtomicU64 = AtomicU64::new(1);

/// For each query level, the participant (an index into the level's
/// participants) whose run drives the probe kernel: the level's one
/// varying participant, when at least one other participant is invariant
/// (see the module docs). `None` keeps the dance: no invariant participant,
/// or two or more varying ones.
fn probe_drivers<T: Borrow<Trie>>(
    order: &[Attr],
    tries: &[T],
    participants: &[Vec<usize>],
) -> Vec<Option<usize>> {
    participants
        .iter()
        .enumerate()
        .map(|(level, ps)| {
            // A trie's levels follow `order`, so its previous participating
            // level is `level - 1` exactly when its attribute above this
            // one is `order[level - 1]`.
            let mut varying = ps
                .iter()
                .enumerate()
                .filter(|&(_, &p)| {
                    let attrs = tries[p].borrow().schema().attrs();
                    let depth = attrs.iter().position(|&a| a == order[level]).expect("participant");
                    depth > 0 && attrs[depth - 1] == order[level - 1]
                })
                .map(|(i, _)| i);
            match (varying.next(), varying.next()) {
                (Some(driver), None) if ps.len() > 1 => Some(driver),
                _ => None,
            }
        })
        .collect()
}

/// A multi-way join execution over tries.
///
/// Construction validates that every trie's level order is the order induced
/// by the global attribute order `order` (the invariant HCube's shuffle
/// establishes). The join itself walks the query levels `A_1 … A_n`,
/// maintaining one cursor per relation, and at each level intersects the
/// candidate runs of the relations containing that attribute.
///
/// The trie handle type `T` is anything that borrows a [`Trie`]: `&Trie`
/// for per-query locals (the original contract), or `Arc<Trie>` for
/// owned handles shared with a cross-query index cache — the join itself
/// never cares who owns the index.
pub struct LeapfrogJoin<T: Borrow<Trie>> {
    /// This join's identity in the keys of a [`JoinScratch`]'s tables.
    id: u64,
    order: Vec<Attr>,
    tries: Vec<T>,
    /// For each query level: indices of participating tries.
    participants: Vec<Vec<usize>>,
    /// For each query level: the probe kernel's driving participant, if the
    /// level probes its invariant runs (see [`probe_drivers`]).
    drivers: Vec<Option<usize>>,
    /// For each query level: the constant a prepared-query binding pinned
    /// the attribute to, if any. Bound levels *seek* the constant in every
    /// participant instead of intersecting candidate runs — the whole
    /// iterator frontier of the level collapses to one gallop per trie.
    /// Empty (the default) means every level intersects normally.
    bound: Vec<Option<Value>>,
}

impl<T: Borrow<Trie>> LeapfrogJoin<T> {
    /// Creates a join over `tries` under the global attribute order.
    pub fn new(order: &[Attr], tries: Vec<T>) -> Result<Self> {
        let participants = validate_tries(order, &tries)?;
        let drivers = probe_drivers(order, &tries, &participants);
        Ok(LeapfrogJoin {
            id: NEXT_JOIN_ID.fetch_add(1, Ordering::Relaxed),
            order: order.to_vec(),
            tries,
            participants,
            drivers,
            bound: Vec::new(),
        })
    }

    /// Pins the levels named by `bound` to their constants: enumeration
    /// seeks the value at those levels (via
    /// [`TrieCursor::open_at`]) instead of intersecting. Attributes outside
    /// the join's order are ignored (they were already handled upstream —
    /// e.g. filtered out of a pre-computed bag).
    pub fn with_bound(mut self, bound: &BoundValues) -> Self {
        if bound.is_empty() {
            self.bound = Vec::new();
        } else {
            self.bound = self.order.iter().map(|&a| bound.get(a)).collect();
        }
        self
    }

    /// Number of query levels.
    pub fn levels(&self) -> usize {
        self.order.len()
    }

    /// The global attribute order.
    pub fn order(&self) -> &[Attr] {
        &self.order
    }

    /// A walk from the trie roots under `budget`, or `None` when an input
    /// trie is empty — and with it the join.
    fn walk(&self, budget: u64) -> Option<Walk<'_>> {
        if self.tries.iter().any(|t| t.borrow().tuples() == 0) {
            return None;
        }
        Some(Walk {
            cursors: self.tries.iter().map(|t| t.borrow().cursor()).collect(),
            binding: vec![0; self.levels()],
            counters: JoinCounters::new(self.levels()),
            budget,
            over_budget: false,
        })
    }

    /// Runs the join, invoking `emit` for every result tuple (values in
    /// `order`'s attribute order). Returns execution counters.
    pub fn run(&self, mut emit: impl FnMut(&[Value])) -> JoinCounters {
        self.join_into(&mut FnSink(|t: &[Value]| emit(t)))
    }

    /// Runs the join, streaming every result tuple into `sink` (values in
    /// `order`'s attribute order). The enumeration short-circuits as soon
    /// as the sink saturates ([`RowSink::push`] returns `false` — e.g. a
    /// `Limit(n)` buffer that is full, or an `Exists` probe that found its
    /// witness), abandoning all remaining candidate bindings at every
    /// level. A [`RowSink::counts_only`] sink receives the last level's
    /// rows as counts. Returns execution counters; `counters.output_tuples`
    /// counts the tuples actually emitted, which on a short-circuited run
    /// is less than the full result cardinality.
    pub fn join_into(&self, sink: &mut dyn RowSink) -> JoinCounters {
        let mut scratch = JoinScratch::new();
        self.join_into_with_scratch(sink, &mut scratch)
    }

    /// [`LeapfrogJoin::join_into`] with a caller-provided scratch pool, so
    /// repeated joins (a serving hot path) reuse intersection buffers
    /// instead of re-allocating them per query.
    pub fn join_into_with_scratch(
        &self,
        sink: &mut dyn RowSink,
        scratch: &mut JoinScratch,
    ) -> JoinCounters {
        let Some(mut walk) = self.walk(u64::MAX).filter(|_| !sink.saturated()) else {
            return JoinCounters::new(self.levels());
        };
        let bufs = scratch.for_levels(self.levels());
        self.recurse_sink(0, &mut walk, sink, bufs, &self.bound);
        walk.counters
    }

    /// The traversal every caller drives. Returns `false` once the sink
    /// saturates or the walk's budget runs out, so every enclosing level
    /// stops iterating its candidates. `scratch` holds one buffer pair per
    /// remaining level (`scratch[0]` is this level's), reused across
    /// sibling bindings. `bound` maps levels to pinned constants — usually
    /// `self.bound`, but [`BatchedLeapfrog`] swaps in a fresh constant
    /// vector per batched binding.
    fn recurse_sink(
        &self,
        level: usize,
        walk: &mut Walk<'_>,
        sink: &mut dyn RowSink,
        scratch: &mut [LevelScratch],
        bound: &[Option<Value>],
    ) -> bool {
        let ps = &self.participants[level];
        let last = level + 1 == self.levels();
        let (buf, deeper) = scratch.split_first_mut().expect("scratch sized to levels");
        let mut opened = 0usize;
        let mut ok = true;
        let mut keep_going = true;
        if let Some(v) = bound.get(level).copied().flatten() {
            // Bound level: seek the constant in every participant. A miss
            // in any trie prunes the subtree without intersecting anything
            // (`open_at` does not descend on a miss, so only hits unwind).
            for &p in ps {
                walk.counters.stats.open_ats_per_level[level] += 1;
                if walk.cursors[p].open_at(v) {
                    opened += 1;
                } else {
                    ok = false;
                    break;
                }
            }
            if ok {
                keep_going = walk.produce(level, 1) && {
                    walk.binding[level] = v;
                    if last {
                        walk.counters.output_tuples += 1;
                        sink.push(&walk.binding)
                    } else {
                        self.recurse_sink(level + 1, walk, sink, deeper, bound)
                    }
                };
            }
        } else if last {
            return self.last_level(ps, level, walk, sink, buf);
        } else {
            for &p in ps {
                walk.counters.stats.opens_per_level[level] += 1;
                if walk.cursors[p].open() {
                    opened += 1;
                } else {
                    ok = false;
                    break;
                }
            }
            if ok {
                let k = ps.len();
                let LevelScratch { values, positions, tables } = buf;
                values.clear();
                positions.clear();
                with_slots(k, NO_RUN, |runs| {
                    for (run, &p) in runs.iter_mut().zip(ps) {
                        *run = walk.cursors[p].run();
                    }
                    self.intersect(level, runs, tables, &mut walk.counters, |v, at| {
                        values.push(v);
                        positions.extend_from_slice(at);
                    });
                });
                keep_going = walk.produce(level, values.len() as u64);
                if keep_going {
                    for (&v, at) in values.iter().zip(positions.chunks_exact(k)) {
                        walk.counters.stats.seeks_per_level[level] += k as u64;
                        for (&p, &offset) in ps.iter().zip(at) {
                            walk.cursors[p].jump(offset);
                        }
                        walk.binding[level] = v;
                        keep_going = self.recurse_sink(level + 1, walk, sink, deeper, bound);
                        if !keep_going {
                            break;
                        }
                    }
                }
            }
        }
        for &p in ps.iter().take(opened) {
            walk.cursors[p].up();
        }
        keep_going
    }

    /// Intersects one level's `runs` (in participant order), calling
    /// `on_match(v, at)` per match as [`leapfrog_matches`] does. The level
    /// probes when it has a driver and its invariant runs' tables are
    /// ready, and dances otherwise; the dance's gallops count as
    /// `intersect_ops`, the probes as `probes_per_level`.
    #[inline(always)]
    fn intersect(
        &self,
        level: usize,
        runs: &[&[Value]],
        tables: &mut LevelTables,
        counters: &mut JoinCounters,
        on_match: impl FnMut(Value, &[usize]),
    ) {
        if let Some(driver) = self.drivers[level] {
            if tables.ready(self.id, runs, driver, &mut counters.stats) {
                counters.stats.probes_per_level[level] +=
                    probe_matches(runs, driver, &tables.tables, on_match);
                return;
            }
        }
        counters.intersect_ops += leapfrog_matches(runs, on_match);
    }

    /// The last free level: intersects the participants' child runs where
    /// they lie. A counting sink takes the intersection's size in one
    /// step; any other sink takes one row per matched value. No cursor
    /// moves, so the level records no opens or seeks.
    fn last_level(
        &self,
        ps: &[usize],
        level: usize,
        walk: &mut Walk<'_>,
        sink: &mut dyn RowSink,
        buf: &mut LevelScratch,
    ) -> bool {
        let LevelScratch { values, tables, .. } = buf;
        with_slots(ps.len(), NO_RUN, |runs| {
            for (run, &p) in runs.iter_mut().zip(ps) {
                *run = walk.cursors[p].child_run();
            }
            if sink.counts_only() {
                let mut n = 0u64;
                self.intersect(level, runs, tables, &mut walk.counters, |_, _| n += 1);
                if !walk.produce(level, n) {
                    return false;
                }
                walk.counters.output_tuples += n;
                return n == 0 || sink.push_count(n);
            }
            values.clear();
            self.intersect(level, runs, tables, &mut walk.counters, |v, _| values.push(v));
            if !walk.produce(level, values.len() as u64) {
                return false;
            }
            for &v in values.iter() {
                walk.binding[level] = v;
                walk.counters.output_tuples += 1;
                if !sink.push(&walk.binding) {
                    return false;
                }
            }
            true
        })
    }

    /// Runs the join but only counts results: the last level is counted by
    /// intersection size, never enumerated.
    pub fn count(&self) -> (u64, JoinCounters) {
        let counters = self.join_into(&mut CountSink::new());
        (counters.output_tuples, counters)
    }

    /// Counts the join but aborts once the total number of produced
    /// bindings exceeds `max_total_bindings`. Returns `(completed,
    /// counters)`; `completed == false` means the counters are a lower
    /// bound. Used by the Fig. 8 harness, where *invalid* attribute orders
    /// can produce cross-product-sized intermediate sets that would run for
    /// hours.
    pub fn count_with_budget(&self, max_total_bindings: u64) -> (bool, JoinCounters) {
        let Some(mut walk) = self.walk(max_total_bindings) else {
            return (true, JoinCounters::new(self.levels()));
        };
        let mut scratch = JoinScratch::new();
        let bufs = scratch.for_levels(self.levels());
        self.recurse_sink(0, &mut walk, &mut CountSink::new(), bufs, &self.bound);
        (!walk.over_budget, walk.counters)
    }

    /// Counts the results whose first attribute (in `order`) equals `v` —
    /// `|T_{A=a}|` of the sampling estimator (Sec. IV). The first level is
    /// bound to `v` (its candidates are not intersected: each participant
    /// seeks `v` directly) and the rest are counted like [`Self::count`].
    /// A sampler passes one `scratch` to every value it draws, so the tables
    /// of runs no sampled value moves — the root runs below level 0 — are
    /// built once per estimate.
    pub fn count_with_first_value(
        &self,
        v: Value,
        scratch: &mut JoinScratch,
    ) -> (u64, JoinCounters) {
        let Some(mut walk) = self.walk(u64::MAX) else {
            return (0, JoinCounters::new(self.levels()));
        };
        let mut bound = self.bound.clone();
        bound.resize(self.levels(), None);
        bound[0] = Some(v);
        let bufs = scratch.for_levels(self.levels());
        self.recurse_sink(0, &mut walk, &mut CountSink::new(), bufs, &bound);
        (walk.counters.output_tuples, walk.counters)
    }
}

/// What a [`BatchedLeapfrog::run_batch`] run produced.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// Number of leading bindings fully enumerated. Bindings are processed
    /// strictly in input (sorted) order, so `bindings[..completed]` have
    /// complete results in their sinks and `bindings[completed..]` were not
    /// run (or, for `bindings[completed]` exactly, may hold a truncated
    /// prefix if `stop` fired mid-binding). `completed == bindings.len()`
    /// means the batch ran to the end.
    pub completed: usize,
    /// Aggregate execution counters for the whole batch.
    pub counters: JoinCounters,
}

/// A batched Leapfrog driver: one prepared join shape, many bindings.
///
/// Executes every binding of a `BindingBatch`-style sorted, deduplicated
/// binding list over **shared** cursors: the tries are opened once and the
/// bindings are visited in ascending order, so at each *bound-prefix* level
/// the cursor is already positioned at (or just past) the previous binding's
/// value and `seek` gallops **forward** from there instead of re-descending
/// from the trie root. Across a batch of `n` bindings over a run of length
/// `m` that is `O(m)` total movement per cursor instead of `O(n log m)`
/// root re-seeks — the vectorized-execution win of batched serving.
///
/// Only the maximal *prefix* of the attribute order consisting of bound
/// levels gets cursor reuse (deeper bound levels sit under free levels
/// whose context changes per binding, so they re-position exactly like the
/// single-binding bound path). The optimizer hoists bound attributes to the
/// front of the order, so in practice the prefix covers every parameter.
///
/// Results demultiplex per binding: each binding streams into its own
/// [`RowSink`], so the existing `OutputMode` machinery (rows / limit /
/// exists / count) applies unchanged per binding.
pub struct BatchedLeapfrog<T: Borrow<Trie>> {
    join: LeapfrogJoin<T>,
    /// Levels of the order the batch binds, ascending.
    bound_levels: Vec<usize>,
    /// Length of the maximal bound *prefix* of the order — the levels whose
    /// cursors survive from binding to binding with forward-only galloping.
    prefix_len: usize,
}

impl<T: Borrow<Trie>> BatchedLeapfrog<T> {
    /// Creates a batched join over `tries` under the global attribute
    /// order, binding `bound_attrs` per batch entry. Every bound attribute
    /// must appear in `order`.
    pub fn new(order: &[Attr], tries: Vec<T>, bound_attrs: &[Attr]) -> Result<Self> {
        let join = LeapfrogJoin::new(order, tries)?;
        let mut bound_levels = Vec::with_capacity(bound_attrs.len());
        for &a in bound_attrs {
            match order.iter().position(|&o| o == a) {
                Some(l) => bound_levels.push(l),
                None => {
                    return Err(Error::UnknownAttr {
                        attr: a.to_string(),
                        schema: format!("order {order:?}"),
                    })
                }
            }
        }
        bound_levels.sort_unstable();
        bound_levels.dedup();
        let prefix_len = bound_levels.iter().enumerate().take_while(|&(i, &l)| i == l).count();
        Ok(BatchedLeapfrog { join, bound_levels, prefix_len })
    }

    /// The global attribute order.
    pub fn order(&self) -> &[Attr] {
        self.join.order()
    }

    /// Levels of the order the batch binds, ascending.
    pub fn bound_levels(&self) -> &[usize] {
        &self.bound_levels
    }

    /// How many leading levels of the order are bound — the levels that get
    /// monotone cursor reuse across bindings.
    pub fn prefix_len(&self) -> usize {
        self.prefix_len
    }

    /// Executes every binding, demultiplexing results into `sinks[i]`.
    ///
    /// `bindings[i]` holds the constants for [`Self::bound_levels`] (same
    /// ascending-level order) and the list must be **strictly ascending**
    /// lexicographically — i.e. sorted and deduplicated; this is asserted.
    /// A binding whose prefix constant misses every trie completes with an
    /// empty result (no enumeration). `stop` is polled between bindings;
    /// once it returns `true` the run aborts and the outcome reports how
    /// many leading bindings completed (a binding during which `stop`
    /// flipped is conservatively reported incomplete, since a cancelling
    /// sink may have truncated its output).
    pub fn run_batch(
        &self,
        bindings: &[Vec<Value>],
        sinks: &mut [&mut dyn RowSink],
        scratch: &mut JoinScratch,
        stop: &mut dyn FnMut() -> bool,
    ) -> BatchOutcome {
        assert_eq!(bindings.len(), sinks.len(), "one sink per binding");
        for b in bindings {
            assert_eq!(b.len(), self.bound_levels.len(), "binding arity != bound attrs");
        }
        for w in bindings.windows(2) {
            assert!(w[0] < w[1], "bindings must be sorted and deduplicated");
        }

        let levels = self.join.levels();
        if bindings.is_empty() {
            return BatchOutcome { completed: 0, counters: JoinCounters::new(levels) };
        }
        let Some(mut walk) = self.join.walk(u64::MAX) else {
            // Every binding trivially completes with an empty result.
            return BatchOutcome { completed: bindings.len(), counters: JoinCounters::new(levels) };
        };
        // Per-binding constants for bound levels *behind* free levels; the
        // recursion handles those with the single-binding bound path.
        let mut interior: Vec<Option<Value>> = vec![None; levels];
        let bufs = scratch.for_levels(levels);

        let p = self.prefix_len;
        // Prefix cursor state shared across bindings: `open_depth` levels
        // have open runs, the first `hit_depth` of those are positioned
        // exactly at `last`'s values (a miss leaves deeper levels closed),
        // and `last[lev]` is the value most recently *sought* at `lev`.
        let mut open_depth = 0usize;
        let mut hit_depth = 0usize;
        let mut last: Vec<Value> = vec![0; p];
        let mut completed = 0usize;

        for (i, b) in bindings.iter().enumerate() {
            if stop() {
                break;
            }
            if sinks[i].saturated() {
                completed = i + 1;
                continue;
            }

            // Longest reusable prefix: levels whose value matches the
            // previous binding AND whose cursors are positioned exactly.
            let mut reuse = 0usize;
            if i > 0 {
                while reuse < hit_depth && b[reuse] == last[reuse] {
                    reuse += 1;
                }
            }
            // Close levels opened under a now-stale parent context. Level
            // `reuse` itself stays open: its run is unchanged (everything
            // above it matches) and sorted bindings only move it forward.
            while open_depth > reuse + 1 {
                open_depth -= 1;
                for &q in &self.join.participants[open_depth] {
                    walk.cursors[q].up();
                }
            }

            let mut ok = true;
            for lev in reuse..p {
                if lev >= open_depth {
                    for &q in &self.join.participants[lev] {
                        walk.counters.stats.opens_per_level[lev] += 1;
                        let descended = walk.cursors[q].open();
                        debug_assert!(descended, "interior trie rows always have children");
                    }
                    open_depth = lev + 1;
                }
                let target = b[lev];
                let mut hit = true;
                // No early break: every cursor must advance to >= target so
                // the next binding's forward seek stays valid.
                for &q in &self.join.participants[lev] {
                    walk.counters.stats.seeks_per_level[lev] += 1;
                    if !walk.cursors[q].seek(target) {
                        hit = false;
                    }
                }
                last[lev] = target;
                if hit {
                    walk.counters.tuples_per_level[lev] += 1;
                    walk.binding[lev] = target;
                    hit_depth = lev + 1;
                } else {
                    hit_depth = lev;
                    ok = false;
                    break;
                }
            }

            if ok {
                for (k, &lev) in self.bound_levels.iter().enumerate().skip(p) {
                    interior[lev] = Some(b[k]);
                }
                if p == levels {
                    walk.counters.output_tuples += 1;
                    sinks[i].push(&walk.binding);
                } else {
                    self.join.recurse_sink(p, &mut walk, &mut *sinks[i], &mut bufs[p..], &interior);
                }
            }
            if stop() {
                break;
            }
            completed = i + 1;
        }
        BatchOutcome { completed, counters: walk.counters }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adj_relational::intersect::TABLE_CAP;
    use adj_relational::{Relation, Schema};
    use std::sync::Arc;

    fn order(ids: &[u32]) -> Vec<Attr> {
        ids.iter().map(|&i| Attr(i)).collect()
    }

    /// Builds tries for a set of binary relations under a global order.
    fn tries_for(rels: &[&Relation], ord: &[Attr]) -> Vec<Trie> {
        rels.iter().map(|r| r.trie_under_order(ord).unwrap()).collect()
    }

    fn triangle_graph() -> (Relation, Relation, Relation) {
        // Graph: edges (1,2),(2,3),(1,3),(3,4),(1,4) — triangles {1,2,3},{1,3,4}
        let e = [(1u32, 2u32), (2, 3), (1, 3), (3, 4), (1, 4)];
        (
            Relation::from_pairs(Attr(0), Attr(1), &e),
            Relation::from_pairs(Attr(1), Attr(2), &e),
            Relation::from_pairs(Attr(0), Attr(2), &e),
        )
    }

    #[test]
    fn triangle_enumeration() {
        let (r1, r2, r3) = triangle_graph();
        let ord = order(&[0, 1, 2]);
        let tries = tries_for(&[&r1, &r2, &r3], &ord);
        let join = LeapfrogJoin::new(&ord, tries.iter().collect()).unwrap();
        let mut results = Vec::new();
        let counters = join.run(|t| results.push(t.to_vec()));
        results.sort();
        assert_eq!(results, vec![vec![1, 2, 3], vec![1, 3, 4]]);
        assert_eq!(counters.output_tuples, 2);
        assert_eq!(counters.tuples_per_level.len(), 3);
        assert!(counters.intersect_ops > 0);
    }

    #[test]
    fn owned_arc_handles_join_like_borrows() {
        // The serving hot path joins over `Arc<Trie>` handles shared with
        // the index cache; results must match the borrowed form exactly.
        let (r1, r2, r3) = triangle_graph();
        let ord = order(&[0, 1, 2]);
        let tries = tries_for(&[&r1, &r2, &r3], &ord);
        let borrowed = LeapfrogJoin::new(&ord, tries.iter().collect()).unwrap();
        let handles: Vec<Arc<Trie>> = tries.iter().cloned().map(Arc::new).collect();
        let owned = LeapfrogJoin::new(&ord, handles).unwrap();
        let mut a = Vec::new();
        borrowed.run(|t| a.push(t.to_vec()));
        let mut b = Vec::new();
        owned.run(|t| b.push(t.to_vec()));
        assert_eq!(a, b);
    }

    #[test]
    fn scratch_reuse_across_joins_matches_fresh() {
        let (r1, r2, r3) = triangle_graph();
        let ord = order(&[0, 1, 2]);
        let tries = tries_for(&[&r1, &r2, &r3], &ord);
        let join = LeapfrogJoin::new(&ord, tries.iter().collect()).unwrap();
        let mut scratch = JoinScratch::new();
        for _ in 0..3 {
            let mut buf = adj_relational::RowBuffer::new(3);
            let counters = join.join_into_with_scratch(&mut buf, &mut scratch);
            assert_eq!(counters.output_tuples, 2);
        }
    }

    #[test]
    fn bound_level_seeks_match_filtered_enumeration() {
        // Bound joins must equal "enumerate everything, keep rows with the
        // constant" — on unfiltered tries, at every level position.
        let edges: Vec<(Value, Value)> = (0..120u32)
            .flat_map(|i| vec![(i % 29, (i * 7 + 1) % 29), (i % 29, (i * 11 + 5) % 29)])
            .collect();
        let r1 = Relation::from_pairs(Attr(0), Attr(1), &edges);
        let r2 = Relation::from_pairs(Attr(1), Attr(2), &edges);
        let r3 = Relation::from_pairs(Attr(0), Attr(2), &edges);
        let ord = order(&[0, 1, 2]);
        let tries = tries_for(&[&r1, &r2, &r3], &ord);
        let join = LeapfrogJoin::new(&ord, tries.iter().collect()).unwrap();
        let mut full: Vec<Vec<Value>> = Vec::new();
        join.run(|t| full.push(t.to_vec()));

        for (attr, col) in [(Attr(0), 0usize), (Attr(1), 1), (Attr(2), 2)] {
            for v in [0u32, 3, 7, 999] {
                let bound = BoundValues::new(vec![(attr, v)]).unwrap();
                let bj =
                    LeapfrogJoin::new(&ord, tries.iter().collect()).unwrap().with_bound(&bound);
                let mut got: Vec<Vec<Value>> = Vec::new();
                let counters = bj.run(|t| got.push(t.to_vec()));
                let expect: Vec<Vec<Value>> =
                    full.iter().filter(|t| t[col] == v).cloned().collect();
                assert_eq!(got, expect, "attr {attr} = {v}");
                assert_eq!(counters.output_tuples as usize, expect.len());
            }
        }

        // Two bound levels compose.
        let bound = BoundValues::new(vec![(Attr(0), 3), (Attr(2), 7)]).unwrap();
        let bj = LeapfrogJoin::new(&ord, tries.iter().collect()).unwrap().with_bound(&bound);
        let mut got: Vec<Vec<Value>> = Vec::new();
        bj.run(|t| got.push(t.to_vec()));
        let expect: Vec<Vec<Value>> =
            full.iter().filter(|t| t[0] == 3 && t[2] == 7).cloned().collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn bound_seek_skips_intersection_work() {
        // A selective binding must do measurably less intersection work
        // than the free enumeration — the "skip whole iterator frontiers"
        // claim, visible in the counters.
        let edges: Vec<(Value, Value)> = (0..400u32)
            .flat_map(|i| vec![(i % 61, (i * 7 + 1) % 61), (i % 61, (i * 11 + 5) % 61)])
            .collect();
        let r1 = Relation::from_pairs(Attr(0), Attr(1), &edges);
        let r2 = Relation::from_pairs(Attr(1), Attr(2), &edges);
        let r3 = Relation::from_pairs(Attr(0), Attr(2), &edges);
        let ord = order(&[0, 1, 2]);
        let tries = tries_for(&[&r1, &r2, &r3], &ord);
        let free = LeapfrogJoin::new(&ord, tries.iter().collect()).unwrap();
        let (_, free_counters) = free.count();
        let bound = BoundValues::new(vec![(Attr(0), 5)]).unwrap();
        let bj = LeapfrogJoin::new(&ord, tries.iter().collect()).unwrap().with_bound(&bound);
        let (_, bound_counters) = bj.count();
        assert!(
            bound_counters.intersect_ops < free_counters.intersect_ops / 4,
            "bound {} vs free {} intersect ops",
            bound_counters.intersect_ops,
            free_counters.intersect_ops
        );
        assert_eq!(bound_counters.tuples_per_level[0], 1, "level 0 collapses to one seek");
    }

    #[test]
    fn bound_join_respects_sink_saturation() {
        let (r1, r2, r3) = triangle_graph();
        let ord = order(&[0, 1, 2]);
        let tries = tries_for(&[&r1, &r2, &r3], &ord);
        let bound = BoundValues::new(vec![(Attr(0), 1)]).unwrap();
        let join = LeapfrogJoin::new(&ord, tries.iter().collect()).unwrap().with_bound(&bound);
        let mut probe = EmitProbe { inner: adj_relational::ExistsSink::new(), emits: 0 };
        join.join_into(&mut probe);
        assert!(probe.inner.found());
        assert_eq!(probe.emits, 1, "exists still stops at the first witness on bound joins");
    }

    #[test]
    fn matches_binary_join_on_triangle() {
        // Pseudo-random graph; compare against R1 ⋈ R2 ⋈ R3 by hash joins.
        let edges: Vec<(Value, Value)> = (0..80u32)
            .flat_map(|i| vec![(i % 37, (i * 7 + 1) % 37), (i % 37, (i * 11 + 5) % 37)])
            .collect();
        let r1 = Relation::from_pairs(Attr(0), Attr(1), &edges);
        let r2 = Relation::from_pairs(Attr(1), Attr(2), &edges);
        let r3 = Relation::from_pairs(Attr(0), Attr(2), &edges);
        let expected = r1.join(&r2).unwrap().join(&r3).unwrap();

        let ord = order(&[0, 1, 2]);
        let tries = tries_for(&[&r1, &r2, &r3], &ord);
        let join = LeapfrogJoin::new(&ord, tries.iter().collect()).unwrap();
        let mut results: Vec<Vec<Value>> = Vec::new();
        join.run(|t| results.push(t.to_vec()));
        let lf = Relation::from_rows(
            Schema::from_ids(&[0, 1, 2]),
            &results.iter().map(|r| r.as_slice()).collect::<Vec<_>>(),
        )
        .unwrap();
        // expected schema order is (a,b,c) already
        assert_eq!(lf, expected);
    }

    #[test]
    fn different_orders_same_results() {
        let (r1, r2, r3) = triangle_graph();
        let mut counts = Vec::new();
        for ids in [[0u32, 1, 2], [2, 0, 1], [1, 2, 0]] {
            let ord = order(&ids);
            let tries = tries_for(&[&r1, &r2, &r3], &ord);
            let join = LeapfrogJoin::new(&ord, tries.iter().collect()).unwrap();
            counts.push(join.count().0);
        }
        assert!(counts.iter().all(|&c| c == counts[0]));
        assert_eq!(counts[0], 2);
    }

    #[test]
    fn empty_input_early_exit() {
        let (r1, r2, _) = triangle_graph();
        let empty = Relation::empty(Schema::from_ids(&[0, 2]));
        let ord = order(&[0, 1, 2]);
        let t1 = r1.trie_under_order(&ord).unwrap();
        let t2 = r2.trie_under_order(&ord).unwrap();
        let t3 = Trie::build(&empty);
        let join = LeapfrogJoin::new(&ord, vec![&t1, &t2, &t3]).unwrap();
        let (n, counters) = join.count();
        assert_eq!(n, 0);
        assert_eq!(counters.intersect_ops, 0);
    }

    #[test]
    fn rejects_trie_with_wrong_level_order() {
        let (r1, _, _) = triangle_graph();
        let wrong = Trie::build(&r1.permute(&[Attr(1), Attr(0)]).unwrap());
        let ord = order(&[0, 1]);
        assert!(LeapfrogJoin::new(&ord, vec![&wrong]).is_err());
    }

    #[test]
    fn rejects_unbound_attribute() {
        let (r1, _, _) = triangle_graph();
        let ord = order(&[0, 1, 2]); // attr 2 not in any trie
        let t1 = r1.trie_under_order(&ord).unwrap();
        assert!(LeapfrogJoin::new(&ord, vec![&t1]).is_err());
    }

    #[test]
    fn budgeted_count_matches_unbudgeted_when_under() {
        let (r1, r2, r3) = triangle_graph();
        let ord = order(&[0, 1, 2]);
        let tries = tries_for(&[&r1, &r2, &r3], &ord);
        let join = LeapfrogJoin::new(&ord, tries.iter().collect()).unwrap();
        let (n, full) = join.count();
        let (completed, budgeted) = join.count_with_budget(1_000_000);
        assert!(completed);
        assert_eq!(budgeted.output_tuples, n);
        assert_eq!(budgeted.tuples_per_level, full.tuples_per_level);
    }

    #[test]
    fn budgeted_count_aborts_early() {
        let (r1, r2, r3) = triangle_graph();
        let ord = order(&[0, 1, 2]);
        let tries = tries_for(&[&r1, &r2, &r3], &ord);
        let join = LeapfrogJoin::new(&ord, tries.iter().collect()).unwrap();
        let (completed, partial) = join.count_with_budget(1);
        assert!(!completed);
        assert!(partial.total_tuples() >= 1);
    }

    /// A 4-cycle `0-1-2-3-0` over one edge set, under order `[0,1,2,3]`:
    /// level 2 probes the root run of `R(2,3)`, level 3 the run of `R(0,3)`
    /// under `0`.
    fn four_cycle(edges: &[(Value, Value)]) -> Vec<Trie> {
        let ord = order(&[0, 1, 2, 3]);
        [(0, 1), (1, 2), (2, 3), (0, 3)]
            .iter()
            .map(|&(x, y)| {
                Relation::from_pairs(Attr(x), Attr(y), edges).trie_under_order(&ord).unwrap()
            })
            .collect()
    }

    #[test]
    fn values_past_the_table_cap_fall_back_to_the_dance() {
        let ord = order(&[0, 1, 2, 3]);
        let small: Vec<(Value, Value)> = (0..300u32)
            .flat_map(|i| vec![(i % 37, (i * 7 + 1) % 37), (i % 37, (i * 11 + 5) % 37)])
            .collect();
        let count = |edges: &[(Value, Value)]| {
            let tries = four_cycle(edges);
            LeapfrogJoin::new(&ord, tries.iter().collect()).unwrap().count()
        };
        let (n, probed) = count(&small);
        assert!(n > 0 && probed.stats.total_probes() > 0);
        assert!(probed.stats.table_builds > 0 && probed.stats.table_bytes > 0);

        // Every vertex past the cap: no table fits, every level dances.
        let shift = |v: Value| v + TABLE_CAP as Value;
        let big: Vec<(Value, Value)> = small.iter().map(|&(x, y)| (shift(x), shift(y))).collect();
        let (m, danced) = count(&big);
        assert_eq!(m, n);
        assert_eq!(danced.tuples_per_level, probed.tuples_per_level);
        assert_eq!((danced.stats.total_probes(), danced.stats.table_builds), (0, 0));
        assert!(danced.intersect_ops > probed.intersect_ops);

        // Half of them past the cap, up to `u32::MAX`: the same answer.
        let mixed = |v: Value| if v.is_multiple_of(2) { v } else { u32::MAX - v };
        let half: Vec<(Value, Value)> = small.iter().map(|&(x, y)| (mixed(x), mixed(y))).collect();
        assert_eq!(count(&half).0, n);
    }

    #[test]
    fn count_with_first_value_sums_to_total() {
        let (r1, r2, r3) = triangle_graph();
        let ord = order(&[0, 1, 2]);
        let tries = tries_for(&[&r1, &r2, &r3], &ord);
        let join = LeapfrogJoin::new(&ord, tries.iter().collect()).unwrap();
        let (total, _) = join.count();
        let mut scratch = JoinScratch::new();
        let mut sum = 0;
        for v in 0..6u32 {
            sum += join.count_with_first_value(v, &mut scratch).0;
        }
        assert_eq!(sum, total);
        assert_eq!(join.count_with_first_value(1, &mut scratch).0, 2); // both triangles start at a=1
        assert_eq!(join.count_with_first_value(99, &mut scratch).0, 0);
    }

    /// Wraps a sink and counts how many rows the join actually emitted —
    /// the probe the short-circuit tests assert on.
    struct EmitProbe<S> {
        inner: S,
        emits: u64,
    }

    impl<S: RowSink> RowSink for EmitProbe<S> {
        fn push(&mut self, row: &[Value]) -> bool {
            self.emits += 1;
            self.inner.push(row)
        }
        fn saturated(&self) -> bool {
            self.inner.saturated()
        }
    }

    #[test]
    fn join_into_rows_matches_run() {
        let (r1, r2, r3) = triangle_graph();
        let ord = order(&[0, 1, 2]);
        let tries = tries_for(&[&r1, &r2, &r3], &ord);
        let join = LeapfrogJoin::new(&ord, tries.iter().collect()).unwrap();
        let mut buf = adj_relational::RowBuffer::new(3);
        let counters = join.join_into(&mut buf);
        assert_eq!(counters.output_tuples, 2);
        let rel = buf.into_relation(adj_relational::Schema::from_ids(&[0, 1, 2])).unwrap();
        let mut via_run = Vec::new();
        join.run(|t| via_run.push(t.to_vec()));
        via_run.sort();
        assert_eq!(rel.rows().map(|r| r.to_vec()).collect::<Vec<_>>(), via_run);
    }

    #[test]
    fn exists_sink_short_circuits_enumeration() {
        // A dense bipartite-ish graph with many triangles: Exists must stop
        // after the first witness, emitting strictly fewer tuples than the
        // full cardinality.
        let edges: Vec<(Value, Value)> = (0..200u32)
            .flat_map(|i| vec![(i % 23, (i * 7 + 1) % 23), (i % 23, (i * 11 + 5) % 23)])
            .collect();
        let r1 = Relation::from_pairs(Attr(0), Attr(1), &edges);
        let r2 = Relation::from_pairs(Attr(1), Attr(2), &edges);
        let r3 = Relation::from_pairs(Attr(0), Attr(2), &edges);
        let ord = order(&[0, 1, 2]);
        let tries = tries_for(&[&r1, &r2, &r3], &ord);
        let join = LeapfrogJoin::new(&ord, tries.iter().collect()).unwrap();
        let (full, _) = join.count();
        assert!(full > 1, "test graph must have many triangles (got {full})");

        let mut probe = EmitProbe { inner: adj_relational::ExistsSink::new(), emits: 0 };
        let counters = join.join_into(&mut probe);
        assert!(probe.inner.found());
        assert_eq!(probe.emits, 1, "exists stops at the first witness");
        assert!(
            counters.output_tuples < full,
            "short-circuit must emit fewer than the full result ({} vs {full})",
            counters.output_tuples
        );
    }

    #[test]
    fn limit_sink_short_circuits_at_n() {
        let edges: Vec<(Value, Value)> = (0..200u32)
            .flat_map(|i| vec![(i % 23, (i * 7 + 1) % 23), (i % 23, (i * 11 + 5) % 23)])
            .collect();
        let r1 = Relation::from_pairs(Attr(0), Attr(1), &edges);
        let r2 = Relation::from_pairs(Attr(1), Attr(2), &edges);
        let r3 = Relation::from_pairs(Attr(0), Attr(2), &edges);
        let ord = order(&[0, 1, 2]);
        let tries = tries_for(&[&r1, &r2, &r3], &ord);
        let join = LeapfrogJoin::new(&ord, tries.iter().collect()).unwrap();
        let (full, _) = join.count();
        let n = 3usize;
        assert!(full as usize > n);

        let mut probe =
            EmitProbe { inner: adj_relational::RowBuffer::new(3).with_limit(n), emits: 0 };
        join.join_into(&mut probe);
        assert_eq!(probe.inner.len(), n);
        assert_eq!(probe.emits, n as u64, "enumeration stops exactly at the limit");
    }

    #[test]
    fn saturated_sink_skips_the_join_entirely() {
        let (r1, r2, r3) = triangle_graph();
        let ord = order(&[0, 1, 2]);
        let tries = tries_for(&[&r1, &r2, &r3], &ord);
        let join = LeapfrogJoin::new(&ord, tries.iter().collect()).unwrap();
        let mut sink = adj_relational::ExistsSink::new();
        sink.push(&[0, 0, 0]); // pre-saturate
        let counters = join.join_into(&mut sink);
        assert_eq!(counters.output_tuples, 0);
        assert_eq!(counters.intersect_ops, 0);
    }

    /// Dense pseudo-random triangle inputs shared by the batched tests.
    fn batch_graph() -> (Relation, Relation, Relation) {
        let edges: Vec<(Value, Value)> = (0..400u32)
            .flat_map(|i| vec![(i % 53, (i * 7 + 1) % 53), (i % 53, (i * 11 + 5) % 53)])
            .collect();
        (
            Relation::from_pairs(Attr(0), Attr(1), &edges),
            Relation::from_pairs(Attr(1), Attr(2), &edges),
            Relation::from_pairs(Attr(0), Attr(2), &edges),
        )
    }

    /// Runs `batched` over `bindings` into row buffers and returns the
    /// per-binding rows plus the outcome.
    fn run_batched(
        batched: &BatchedLeapfrog<&Trie>,
        bindings: &[Vec<Value>],
    ) -> (Vec<Vec<Vec<Value>>>, BatchOutcome) {
        let mut buffers: Vec<adj_relational::RowBuffer> = bindings
            .iter()
            .map(|_| adj_relational::RowBuffer::new(batched.order().len()))
            .collect();
        let mut sinks: Vec<&mut dyn RowSink> =
            buffers.iter_mut().map(|b| b as &mut dyn RowSink).collect();
        let mut scratch = JoinScratch::new();
        let outcome = batched.run_batch(bindings, &mut sinks, &mut scratch, &mut || false);
        drop(sinks);
        let rows = buffers
            .into_iter()
            .map(|b| {
                b.into_relation(Schema::from_ids(&[0, 1, 2]))
                    .unwrap()
                    .rows()
                    .map(|r| r.to_vec())
                    .collect()
            })
            .collect();
        (rows, outcome)
    }

    /// Oracle: one `with_bound` join per binding.
    fn looped_bound(
        ord: &[Attr],
        tries: &[Trie],
        attrs: &[Attr],
        bindings: &[Vec<Value>],
    ) -> (Vec<Vec<Vec<Value>>>, JoinCounters) {
        let mut all = Vec::new();
        let mut total = JoinCounters::new(ord.len());
        for b in bindings {
            let bound =
                BoundValues::new(attrs.iter().copied().zip(b.iter().copied()).collect()).unwrap();
            let join = LeapfrogJoin::new(ord, tries.iter().collect()).unwrap().with_bound(&bound);
            let mut rows = Vec::new();
            let c = join.run(|t| rows.push(t.to_vec()));
            total.merge(&c);
            all.push(rows);
        }
        (all, total)
    }

    #[test]
    fn batched_matches_looped_bound_joins() {
        let (r1, r2, r3) = batch_graph();
        let ord = order(&[0, 1, 2]);
        let tries = tries_for(&[&r1, &r2, &r3], &ord);
        // Sorted, deduplicated, with values present and absent (99, 200).
        let bindings: Vec<Vec<Value>> =
            [0u32, 1, 2, 3, 5, 7, 11, 13, 29, 52, 99, 200].iter().map(|&v| vec![v]).collect();
        let batched = BatchedLeapfrog::new(&ord, tries.iter().collect(), &[Attr(0)]).unwrap();
        assert_eq!(batched.prefix_len(), 1);
        let (got, outcome) = run_batched(&batched, &bindings);
        let (expect, _) = looped_bound(&ord, &tries, &[Attr(0)], &bindings);
        assert_eq!(got, expect);
        assert_eq!(outcome.completed, bindings.len());
        let total: usize = expect.iter().map(|r| r.len()).sum();
        assert_eq!(outcome.counters.output_tuples as usize, total);
    }

    #[test]
    fn batched_interior_bound_attr_matches_loop() {
        // Binding attr 1 under order [0,1,2]: no bound prefix, the interior
        // bound path must still demultiplex correctly per binding.
        let (r1, r2, r3) = batch_graph();
        let ord = order(&[0, 1, 2]);
        let tries = tries_for(&[&r1, &r2, &r3], &ord);
        let bindings: Vec<Vec<Value>> = [0u32, 4, 9, 17, 99].iter().map(|&v| vec![v]).collect();
        let batched = BatchedLeapfrog::new(&ord, tries.iter().collect(), &[Attr(1)]).unwrap();
        assert_eq!(batched.prefix_len(), 0);
        let (got, outcome) = run_batched(&batched, &bindings);
        let (expect, _) = looped_bound(&ord, &tries, &[Attr(1)], &bindings);
        assert_eq!(got, expect);
        assert_eq!(outcome.completed, bindings.len());
    }

    #[test]
    fn batched_two_level_prefix_matches_loop() {
        let (r1, r2, r3) = batch_graph();
        let ord = order(&[0, 1, 2]);
        let tries = tries_for(&[&r1, &r2, &r3], &ord);
        // Lexicographically sorted two-value bindings sharing first values,
        // so the level-0 cursor is reused across consecutive bindings.
        let bindings: Vec<Vec<Value>> = vec![
            vec![1, 8],
            vec![1, 12],
            vec![1, 30],
            vec![2, 8],
            vec![2, 23],
            vec![5, 1],
            vec![5, 99],
            vec![40, 2],
        ];
        let batched =
            BatchedLeapfrog::new(&ord, tries.iter().collect(), &[Attr(0), Attr(1)]).unwrap();
        assert_eq!(batched.prefix_len(), 2);
        let (got, outcome) = run_batched(&batched, &bindings);
        let (expect, _) = looped_bound(&ord, &tries, &[Attr(0), Attr(1)], &bindings);
        assert_eq!(got, expect);
        assert_eq!(outcome.completed, bindings.len());
    }

    #[test]
    fn batched_prefix_opens_runs_once() {
        // The monotone-forward claim, visible in counters: the batched run
        // opens the level-0 runs once for the whole batch, where the looped
        // oracle re-descends from the root for every binding.
        let (r1, r2, r3) = batch_graph();
        let ord = order(&[0, 1, 2]);
        let tries = tries_for(&[&r1, &r2, &r3], &ord);
        let bindings: Vec<Vec<Value>> = (0..40u32).map(|v| vec![v]).collect();
        let batched = BatchedLeapfrog::new(&ord, tries.iter().collect(), &[Attr(0)]).unwrap();
        let (_, outcome) = run_batched(&batched, &bindings);
        let (_, looped) = looped_bound(&ord, &tries, &[Attr(0)], &bindings);
        let level0_participants = 2; // R1(0,1) and R3(0,2) contain attr 0
        assert_eq!(outcome.counters.stats.opens_per_level[0], level0_participants);
        assert_eq!(
            looped.stats.open_ats_per_level[0],
            bindings.len() as u64 * level0_participants,
            "the loop re-descends per binding"
        );
    }

    #[test]
    fn batched_stop_reports_partial_completion() {
        let (r1, r2, r3) = batch_graph();
        let ord = order(&[0, 1, 2]);
        let tries = tries_for(&[&r1, &r2, &r3], &ord);
        let bindings: Vec<Vec<Value>> = (0..10u32).map(|v| vec![v]).collect();
        let batched = BatchedLeapfrog::new(&ord, tries.iter().collect(), &[Attr(0)]).unwrap();
        let mut buffers: Vec<adj_relational::RowBuffer> =
            bindings.iter().map(|_| adj_relational::RowBuffer::new(3)).collect();
        let mut sinks: Vec<&mut dyn RowSink> =
            buffers.iter_mut().map(|b| b as &mut dyn RowSink).collect();
        let mut scratch = JoinScratch::new();
        let mut polls = 0usize;
        let outcome = batched.run_batch(&bindings, &mut sinks, &mut scratch, &mut || {
            polls += 1;
            polls > 6
        });
        assert!(outcome.completed < bindings.len(), "stop must abort the batch");
        // Completed bindings hold exactly the oracle rows.
        let (expect, _) = looped_bound(&ord, &tries, &[Attr(0)], &bindings);
        drop(sinks);
        for (i, buf) in buffers.into_iter().enumerate().take(outcome.completed) {
            let rows: Vec<Vec<Value>> = buf
                .into_relation(Schema::from_ids(&[0, 1, 2]))
                .unwrap()
                .rows()
                .map(|r| r.to_vec())
                .collect();
            assert_eq!(rows, expect[i], "binding {i} completed before the stop");
        }
    }

    #[test]
    fn batched_empty_batch_and_empty_trie() {
        let (r1, r2, _) = triangle_graph();
        let ord = order(&[0, 1, 2]);
        let empty = Relation::empty(Schema::from_ids(&[0, 2]));
        let t1 = r1.trie_under_order(&ord).unwrap();
        let t2 = r2.trie_under_order(&ord).unwrap();
        let t3 = Trie::build(&empty);
        let batched = BatchedLeapfrog::new(&ord, vec![&t1, &t2, &t3], &[Attr(0)]).unwrap();

        let mut scratch = JoinScratch::new();
        let outcome = batched.run_batch(&[], &mut [], &mut scratch, &mut || false);
        assert_eq!(outcome.completed, 0);

        let bindings = vec![vec![1u32], vec![2]];
        let mut buffers = [adj_relational::RowBuffer::new(3), adj_relational::RowBuffer::new(3)];
        let mut sinks: Vec<&mut dyn RowSink> =
            buffers.iter_mut().map(|b| b as &mut dyn RowSink).collect();
        let outcome = batched.run_batch(&bindings, &mut sinks, &mut scratch, &mut || false);
        assert_eq!(outcome.completed, 2, "empty inputs complete every binding with no rows");
        drop(sinks);
        assert!(buffers.iter().all(|b| b.is_empty()));
    }

    #[test]
    fn batched_per_binding_sinks_saturate_independently() {
        let (r1, r2, r3) = batch_graph();
        let ord = order(&[0, 1, 2]);
        let tries = tries_for(&[&r1, &r2, &r3], &ord);
        let bindings: Vec<Vec<Value>> = (0..8u32).map(|v| vec![v]).collect();
        let batched = BatchedLeapfrog::new(&ord, tries.iter().collect(), &[Attr(0)]).unwrap();
        let mut probes: Vec<EmitProbe<adj_relational::ExistsSink>> = bindings
            .iter()
            .map(|_| EmitProbe { inner: adj_relational::ExistsSink::new(), emits: 0 })
            .collect();
        let mut sinks: Vec<&mut dyn RowSink> =
            probes.iter_mut().map(|p| p as &mut dyn RowSink).collect();
        let mut scratch = JoinScratch::new();
        let outcome = batched.run_batch(&bindings, &mut sinks, &mut scratch, &mut || false);
        assert_eq!(outcome.completed, bindings.len());
        drop(sinks);
        let (expect, _) = looped_bound(&ord, &tries, &[Attr(0)], &bindings);
        for (i, probe) in probes.iter().enumerate() {
            assert_eq!(probe.inner.found(), !expect[i].is_empty(), "binding {i} existence");
            assert!(probe.emits <= 1, "exists stops at the first witness per binding");
        }
    }

    #[test]
    #[should_panic(expected = "sorted and deduplicated")]
    fn batched_rejects_unsorted_bindings() {
        let (r1, r2, r3) = triangle_graph();
        let ord = order(&[0, 1, 2]);
        let tries = tries_for(&[&r1, &r2, &r3], &ord);
        let batched = BatchedLeapfrog::new(&ord, tries.iter().collect(), &[Attr(0)]).unwrap();
        let bindings = vec![vec![3u32], vec![1]];
        let mut buffers = [adj_relational::RowBuffer::new(3), adj_relational::RowBuffer::new(3)];
        let mut sinks: Vec<&mut dyn RowSink> =
            buffers.iter_mut().map(|b| b as &mut dyn RowSink).collect();
        let mut scratch = JoinScratch::new();
        batched.run_batch(&bindings, &mut sinks, &mut scratch, &mut || false);
    }

    #[test]
    fn batched_rejects_unknown_bound_attr() {
        let (r1, r2, r3) = triangle_graph();
        let ord = order(&[0, 1, 2]);
        let tries = tries_for(&[&r1, &r2, &r3], &ord);
        assert!(BatchedLeapfrog::new(&ord, tries.iter().collect(), &[Attr(9)]).is_err());
    }

    #[test]
    fn paper_example_t5_result() {
        // Fig. 3: the server S0 tuples; Leapfrog yields T5 with 8 tuples
        // (a,b,c,d,e) as drawn. We reproduce the inputs of Fig. 3(a).
        let r1 =
            Relation::from_rows(Schema::from_ids(&[0, 1, 2]), &[&[1, 2, 1], &[1, 2, 2]]).unwrap();
        let r2 = Relation::from_pairs(Attr(0), Attr(3), &[(1, 1), (1, 2), (1, 3), (4, 1)]);
        let r3 = Relation::from_pairs(Attr(2), Attr(3), &[(1, 1), (1, 2), (2, 2)]);
        let r4 = Relation::from_pairs(Attr(1), Attr(4), &[(2, 3), (2, 4), (2, 5)]);
        let r5 = Relation::from_pairs(Attr(2), Attr(4), &[(2, 3), (2, 4)]);
        let ord = order(&[0, 1, 2, 3, 4]);
        let tries: Vec<Trie> =
            [&r1, &r2, &r3, &r4, &r5].iter().map(|r| r.trie_under_order(&ord).unwrap()).collect();
        let join = LeapfrogJoin::new(&ord, tries.iter().collect()).unwrap();
        let mut results = Vec::new();
        join.run(|t| results.push(t.to_vec()));
        // From Fig. 3(b): T5 holds bindings with a=1,b=2,c∈{1,2}; c=1 joins
        // d∈{1,2}, c=2 joins d=2; e∈{3,4} via R4∩R5 (b=2,c=2) when c=2 and
        // e∈{3,4} when c=1? R5 requires (c,e): c=1 has no e. So only c=2
        // rows survive: (1,2,2,2,3),(1,2,2,2,4).
        results.sort();
        assert_eq!(results, vec![vec![1, 2, 2, 2, 3], vec![1, 2, 2, 2, 4]]);
    }
}
