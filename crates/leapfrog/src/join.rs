//! The Leapfrog Triejoin driver (Algorithm 1 of the paper).
//!
//! One depth-first traversal, [`LeapfrogJoin::run_batch`], serves every
//! caller. It is one loop over an explicit stack of levels, one frame per
//! level kept in a [`JoinScratch`], and it is generic over the
//! [`RowSink`] it feeds, so each sink type gets its own compiled copy:
//!
//! * **Bindings feed the bottom of the stack.** A batch's sorted bindings
//!   pin the *bound prefix* (the leading levels of the order that are all
//!   bound); each prefix level gallops forward from the previous binding's
//!   value over cursors kept open between bindings. A bound level behind a
//!   free one is *pinned*: it seeks its constant afresh under each context
//!   ([`TrieCursor::open_at`]). Free levels intersect.
//! * **Every entry is a batch.** A bound call is one binding, and an
//!   unbound join — streaming (`join_into`, `run`) or counting (`count`) —
//!   one empty binding. The sampler's `count_first_values` is a batch over
//!   the first attribute, one counting sink per distinct drawn value.
//! * **Sinks see every level.** Beside the rows, a sink is told how many
//!   bindings each level produced ([`RowSink::produced`]), so
//!   `count_with_budget` is a sink that stops the walk past its budget, and
//!   the sampler's sinks weigh each level's bindings by their value's
//!   multiplicity.
//!
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
//!   receives the matched values as one run ([`RowSink::push_run`]), read
//!   straight from the trie when one participant holds the level.
//! * **The last level is taken in its parent's loop.** The level above
//!   the last one does not descend into its matches at all. Per match it
//!   reads each varying last-level participant's child run straight from
//!   the offset its own intersection recorded
//!   ([`TrieCursor::child_run_at`]), reads the invariant ones once per
//!   loop, and intersects them — under a counting sink with a count-only
//!   kernel ([`leapfrog_count`], [`probe_count`]). No cursor moves for such
//!   a match, so it records no `seeks`. Readiness is settled once per loop:
//!   the invariant runs keep one key for the whole loop, so once their
//!   tables are built (or found unfit) the remaining matches check only the
//!   driver-length rule below, and probe or dance exactly where a
//!   descending walk would. Only a last level with no free parent loop — a
//!   one-level join, or a last level below a bound level — is taken on its
//!   own.
//! * **Runs that stand still are probed, not galloped into.** A
//!   participant's run at level `L` is read under its cursor's position at
//!   its previous participating level (bound levels count). When that level
//!   is `L − 1`, every binding there shows it a new run: the participant
//!   *varies*. When it is further up, or there is none (a root run), the
//!   run stands still while the levels in between iterate: the participant
//!   is *invariant*, and the dance would gallop into the same run again for
//!   every binding beneath it. [`JoinLayout::new`] reads this off the
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
//! buffers, so a warm join allocates nothing per trie node. What a join
//! reads off its order and schemas — participants, probe drivers, the last
//! level's varying participants — is a [`JoinLayout`], computed once and
//! shared by every join over tries of those schemas
//! ([`LeapfrogJoin::with_layout`]); a scratch also keeps the cursor stacks
//! and binding buffer of its last walk, so a join over a reused scratch and
//! layout allocates only its cursor list (its counters are inline
//! [`Levels`](adj_relational::Levels)).

use crate::counters::{JoinCounters, JoinStats};
use adj_relational::intersect::{
    leapfrog_count, leapfrog_matches, probe_count, probe_matches, with_slots, ValueTable,
};
use adj_relational::{
    Attr, CountSink, CursorStack, Error, FnSink, Result, RowSink, Schema, Trie, TrieCursor, Value,
};
use std::borrow::Borrow;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Validates that every trie's level order is the order induced by the
/// global attribute order `order` (the invariant HCube's shuffle
/// establishes) and that every attribute is bound by at least one relation.
/// Returns, for each query level, the indices of the participating tries.
///
/// The kernel's one check of a join's inputs, which [`JoinLayout::new`]
/// runs over the schemas and any other join over tries (the HCubeJ+Cache
/// baseline's CacheTrieJoin) reuses.
pub fn validate_tries<T: Borrow<Trie>>(order: &[Attr], tries: &[T]) -> Result<Vec<Vec<usize>>> {
    let schemas: Vec<&Schema> = tries.iter().map(|t| t.borrow().schema()).collect();
    validate_schemas(order, &schemas)
}

/// [`validate_tries`] over the tries' schemas alone.
fn validate_schemas(order: &[Attr], schemas: &[&Schema]) -> Result<Vec<Vec<usize>>> {
    for schema in schemas {
        let induced: Vec<Attr> = order.iter().copied().filter(|a| schema.contains(*a)).collect();
        if induced != schema.attrs() {
            return Err(Error::SchemaMismatch {
                left: schema.to_string(),
                right: format!("induced by order {order:?}"),
            });
        }
    }
    let participants: Vec<Vec<usize>> = order
        .iter()
        .map(|a| {
            let holding = schemas.iter().enumerate().filter(|(_, s)| s.contains(*a));
            holding.map(|(i, _)| i).collect::<Vec<_>>()
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
/// binding; allocating a fresh `Vec` for each would dominate steady-state
/// enumeration on small per-worker fragments. A `JoinScratch` keeps one
/// level's buffers per query level (reused across sibling bindings and
/// across joins), so enumeration is allocation-free once the buffers reach
/// their high-water marks. It also keeps one value table per
/// (level, participant) slot for the probe kernel. A table is keyed by the
/// join and the run it indexes, so a scratch reused across joins — even
/// over tries dropped and rebuilt at the same addresses — never trusts a
/// table another join built. Each level's buffers double as the level's
/// frame on the traversal's stack. Between walks the scratch keeps their
/// cursor stacks and binding buffer too, so a join run over a reused
/// scratch allocates only its cursor list. A counted join
/// ([`CountSplit`](crate::CountSplit)) keeps one scratch per bag here, with
/// the bag's count table, trie list and cursor list, so it allocates
/// nothing of its own.
#[derive(Debug, Default)]
pub struct JoinScratch {
    levels: Vec<LevelScratch>,
    /// The cursor stacks the last walk gave back.
    stacks: Vec<CursorStack>,
    /// The binding buffer the last walk gave back.
    binding: Vec<Value>,
    /// A counted join's per-bag scratch.
    pub(crate) bags: Vec<crate::counted::BagScratch>,
}

/// `list`, emptied, as a list of another item type of the same layout —
/// the same type over other tries: the same allocation, which collecting an
/// empty list into items of the same layout reuses in place. So a scratch
/// keeps lists of borrowing items (cursors, trie handles) between walks
/// although each walk's items borrow that walk's tries.
pub(crate) fn recycle<T, U>(mut list: Vec<T>) -> Vec<U> {
    debug_assert!(
        std::mem::size_of::<T>() == std::mem::size_of::<U>()
            && std::mem::align_of::<T>() == std::mem::align_of::<U>(),
        "only a list of items of the same layout is reused"
    );
    list.clear();
    list.into_iter().map(|_| unreachable!("the list is empty")).collect()
}

/// What a walk that must allocate nothing borrows from its caller
/// ([`LeapfrogJoin::begin`]): an emptied cursor list ([`recycle`]).
pub(crate) type Lent = Vec<TrieCursor<'static>>;

/// One level's intersection, as the position-carrying kernel writes it,
/// and the level's frame.
#[derive(Debug, Default)]
struct LevelScratch {
    /// The last level's matched values, ascending, for a sink that takes
    /// rows.
    values: Vec<Value>,
    /// At a level above the last: per match `m`, participant `i`'s offset
    /// of the matched value in its run, at `positions[m * k + i]` for `k`
    /// participants.
    positions: Vec<usize>,
    /// The level's invariant-run tables.
    tables: LevelTables,
    /// The level's frame on the traversal's stack: how many participants'
    /// cursors it opened, the next match to descend into and how many
    /// there are (one at a pinned level).
    opened: usize,
    next: usize,
    end: usize,
    /// The column of the binding that pins the level, for a bound level
    /// behind the bound prefix.
    pin: Option<usize>,
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

/// Whether a driving run of `len` values may probe invariant runs whose
/// shortest holds `shortest`: it may not when an invariant run is empty,
/// or when the driver is too long for probing to pay.
#[inline]
fn driver_fits(len: usize, shortest: usize) -> bool {
    shortest > 0 && len <= DRIVER_RATIO * shortest + DRIVER_SLACK
}

/// The length of the shortest run but `runs[driver]`.
fn shortest_invariant(runs: &[&[Value]], driver: usize) -> usize {
    let others = runs.iter().enumerate().filter(|&(i, _)| i != driver);
    others.map(|(_, run)| run.len()).min().unwrap_or(0)
}

/// How often, in bindings produced at levels above the last, a traversal
/// polls its stop hook ([`LeapfrogJoin::run_batch`]'s `stop`).
pub const POLL_EVERY: u64 = 1024;

/// One level's value tables, one slot per participant (the driver's slot
/// stays unused).
#[derive(Debug, Default)]
struct LevelTables {
    seen: Vec<(RunKey, TableState)>,
    tables: Vec<ValueTable>,
}

impl LevelTables {
    /// Whether every run but `runs[driver]` has its table ready, so the
    /// level can probe: asks for each of those runs, moving its slot one
    /// step towards a built or unfit table. A run asked for the first time
    /// is recorded; one asked for the second time has its table built.
    fn ask(&mut self, join: u64, runs: &[&[Value]], driver: usize, stats: &mut JoinStats) -> bool {
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

    /// Whether the last [`LevelTables::ask`] over `k` runs left every slot
    /// but `driver`'s built or unfit: asked again for the same runs, it
    /// would change nothing and answer the same.
    fn settled(&self, driver: usize, k: usize) -> bool {
        let slots = self.seen[..k].iter().enumerate().filter(|&(i, _)| i != driver);
        slots.into_iter().all(|(_, &(_, state))| state != TableState::Seen)
    }
}

impl JoinScratch {
    /// An empty scratch pool; buffers grow on first use.
    pub fn new() -> Self {
        JoinScratch::default()
    }

    /// Drops every per-level intersection buffer that grew past `entries`
    /// entries — the mark of a join large enough to pay for its own
    /// buffers, whose high-water marks a scratch kept between joins should
    /// not hold on to — and keeps everything else: the smaller buffers, the
    /// value tables and a counted join's count tables, whose sizes are
    /// fixed, so a scratch a large join used serves the next join without
    /// allocating and zeroing them again.
    pub fn shrink_past(&mut self, entries: usize) {
        for level in &mut self.levels {
            if level.values.capacity() > entries {
                level.values = Vec::new();
            }
            if level.positions.capacity() > entries {
                level.positions = Vec::new();
            }
        }
        for bag in &mut self.bags {
            bag.join.shrink_past(entries);
        }
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
/// binding under construction, the counters, and the hook that may stop
/// it.
struct Walk<'t> {
    cursors: Vec<TrieCursor<'t>>,
    binding: Vec<Value>,
    counters: JoinCounters,
    /// Polled once per [`POLL_EVERY`] bindings above the last level, and
    /// twice between bindings; the walk stops once it returns `true`.
    stop: &'t dyn Fn() -> bool,
    /// Bindings left until the next poll of `stop`.
    until_poll: u64,
    /// Whether `stop` stopped the walk.
    stopped: bool,
}

impl Walk<'_> {
    /// Counts one binding above the last level towards the next poll of
    /// the stop hook. Returns `false`, stopping the walk, once it fires.
    #[inline]
    fn visit(&mut self) -> bool {
        self.until_poll -= 1;
        if self.until_poll > 0 {
            return true;
        }
        self.until_poll = POLL_EVERY;
        self.stopped = (self.stop)();
        !self.stopped
    }

    /// Takes the cursors of the tries `ps` up a level.
    fn up(&mut self, ps: &[usize]) {
        for &q in ps {
            self.cursors[q].up();
        }
    }

    /// Records `n` bindings produced at `level` and tells `sink`
    /// ([`RowSink::produced`]); `false` once the sink wants no more. The
    /// level's tuples are counted either way, so a walk a sink stopped has
    /// counters that are a lower bound.
    #[inline]
    fn produce<S: RowSink>(&mut self, sink: &mut S, level: usize, n: u64) -> bool {
        self.counters.tuples_per_level[level] += n;
        sink.produced(level, n)
    }
}

/// A walk over a batch of bindings, paused between two of them: the walk,
/// and how the bound prefix's cursors stand. [`LeapfrogJoin::run_batch`]
/// walks its batch in one go; a counted join
/// ([`CountSplit`](crate::CountSplit)) advances one walk per bag, a
/// binding at a time, in step.
pub(crate) struct Batch<'t> {
    walk: Walk<'t>,
    /// Whether the walk's cursor list is lent.
    lends: bool,
    /// Values per binding, and how many of them pin the bound prefix.
    k: usize,
    p: usize,
    /// `open_depth` prefix levels have open runs, and the first `hit_depth`
    /// of those sit exactly at the values of binding `sought`, the last one
    /// sought (a miss leaves deeper levels closed).
    open_depth: usize,
    hit_depth: usize,
    sought: Option<usize>,
}

/// The placeholder a level's run list starts from.
const NO_RUN: &[Value] = &[];

/// Where the traversal of [`LeapfrogJoin::run_batch`] goes next.
#[derive(Clone, Copy)]
enum Step {
    /// Take up the next binding of the batch.
    Bind,
    /// Enter a level under the values the levels above it hold: a
    /// bound-prefix level seeks its value forward, a pinned level
    /// `open_at`s it, a free level intersects its runs (the last one in
    /// place). Entering the level past the last emits the binding.
    Enter(usize),
    /// Descend into the level's next match, or, once none is left, leave
    /// the level: its cursors go up and its parent resumes.
    Next(usize),
    /// The sink or the stop hook ended the binding: leave every level
    /// behind the bound prefix.
    Stop,
    /// The binding is done.
    End,
}

/// A sink that counts, stopping the walk once the bindings produced at
/// every level add up to more than a budget
/// ([`LeapfrogJoin::count_with_budget`]): the bindings it may still take,
/// `None` once the walk overran it.
struct BudgetSink(Option<u64>);

impl RowSink for BudgetSink {
    fn push(&mut self, _row: &[Value]) -> bool {
        true
    }

    fn counts_only(&self) -> bool {
        true
    }

    fn produced(&mut self, _level: usize, n: u64) -> bool {
        self.0 = self.0.and_then(|left| left.checked_sub(n));
        self.0.is_some()
    }
}

/// The sink of one drawn value of [`LeapfrogJoin::count_first_values`]:
/// adds every binding it sees produced, weighted by the value's
/// multiplicity, to per-level totals all draws share. A count's rows are
/// the bindings of its last level, so it needs no rows of its own.
struct WeightedCount<'w> {
    multiplicity: u64,
    tuples: &'w [Cell<u64>],
}

impl RowSink for WeightedCount<'_> {
    fn push(&mut self, _row: &[Value]) -> bool {
        true
    }

    fn counts_only(&self) -> bool {
        true
    }

    fn produced(&mut self, level: usize, n: u64) -> bool {
        let total = &self.tuples[level];
        total.set(total.get() + self.multiplicity * n);
        true
    }
}

/// Gives every join its own identity, so table keys never match across
/// joins. `Relaxed` suffices: the id publishes no other data, and
/// `fetch_add` hands out each value once under any ordering.
static NEXT_JOIN_ID: AtomicU64 = AtomicU64::new(1);

/// For each query level, the participant (an index into the level's
/// participants) whose run drives the probe kernel: the level's one
/// varying participant, when at least one other participant is invariant
/// (see the module docs). `None` keeps the dance: no invariant participant,
/// or two or more varying ones.
fn probe_drivers(
    order: &[Attr],
    schemas: &[&Schema],
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
                    let attrs = schemas[p].attrs();
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

/// What a join is before it has tries: the attribute order, the schema
/// each input trie must have, and what [`LeapfrogJoin::new`] reads off
/// them — per level, the participating inputs and the probe kernel's
/// driver, and the last level's varying participants.
///
/// A layout depends on the order and the schemas alone, so it is computed
/// once and serves every join over tries of those schemas
/// ([`LeapfrogJoin::with_layout`]): the executor keeps one per plan round,
/// and a warm bound call builds none.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinLayout {
    order: Vec<Attr>,
    /// The schema of each input, in input order.
    schemas: Vec<Schema>,
    /// For each query level: indices of participating inputs.
    pub(crate) participants: Vec<Vec<usize>>,
    /// For each query level: the probe kernel's driving participant, if the
    /// level probes its invariant runs (see [`probe_drivers`]).
    drivers: Vec<Option<usize>>,
    /// The last level's varying participants, as `(slot, trie, parent
    /// slot)`: their place among the last level's participants, their trie,
    /// and their place among the level above's participants, whose
    /// intersection offsets address their child runs. Empty for a join of
    /// one level.
    last_varying: Vec<(usize, usize, usize)>,
}

impl JoinLayout {
    /// The layout of a join under the global attribute order `order` over
    /// inputs of the given schemas, each of which must follow the order
    /// `order` induces on its attributes.
    pub fn new<'s>(order: &[Attr], schemas: impl IntoIterator<Item = &'s Schema>) -> Result<Self> {
        let schemas: Vec<&Schema> = schemas.into_iter().collect();
        let participants = validate_schemas(order, &schemas)?;
        let drivers = probe_drivers(order, &schemas, &participants);
        // A trie's levels follow `order`, so a last-level participant
        // varies exactly when it takes part in the level above too.
        let last_varying = match participants.as_slice() {
            [.., parent, last] => (last.iter().enumerate())
                .filter_map(|(i, p)| Some((i, *p, parent.iter().position(|q| q == p)?)))
                .collect(),
            _ => Vec::new(),
        };
        Ok(JoinLayout {
            order: order.to_vec(),
            schemas: schemas.into_iter().cloned().collect(),
            participants,
            drivers,
            last_varying,
        })
    }
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
    layout: Arc<JoinLayout>,
    tries: Vec<T>,
}

impl<T: Borrow<Trie>> LeapfrogJoin<T> {
    /// Creates a join over `tries` under the global attribute order.
    pub fn new(order: &[Attr], tries: Vec<T>) -> Result<Self> {
        let layout = JoinLayout::new(order, tries.iter().map(|t| t.borrow().schema()))?;
        Ok(LeapfrogJoin::assemble(Arc::new(layout), tries))
    }

    /// Creates a join over `tries` under a layout computed before
    /// ([`JoinLayout::new`]): the tries must have the layout's schemas, in
    /// its input order ([`Error::SchemaMismatch`] otherwise). Nothing about
    /// the order is derived again, so this allocates nothing.
    pub fn with_layout(layout: Arc<JoinLayout>, tries: Vec<T>) -> Result<Self> {
        let fits = tries.len() == layout.schemas.len()
            && tries.iter().zip(&layout.schemas).all(|(t, s)| t.borrow().schema() == s);
        if !fits {
            let found: Vec<String> =
                tries.iter().map(|t| t.borrow().schema().to_string()).collect();
            return Err(Error::SchemaMismatch {
                left: format!("tries over {}", found.join(", ")),
                right: format!("a join layout over {:?}", layout.schemas),
            });
        }
        Ok(LeapfrogJoin::assemble(layout, tries))
    }

    fn assemble(layout: Arc<JoinLayout>, tries: Vec<T>) -> Self {
        LeapfrogJoin { id: NEXT_JOIN_ID.fetch_add(1, Ordering::Relaxed), layout, tries }
    }

    /// The join's tries, handed back: a caller that joins again and again
    /// reuses their `Vec`.
    pub fn into_tries(self) -> Vec<T> {
        self.tries
    }

    /// Number of query levels.
    pub fn levels(&self) -> usize {
        self.layout.order.len()
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
    pub fn join_into<S: RowSink + ?Sized>(&self, mut sink: &mut S) -> JoinCounters {
        let sinks = std::slice::from_mut(&mut sink);
        let outcome = self.run_batch(&[], &[], sinks, &mut JoinScratch::new(), &mut || false);
        outcome.expect("an empty binding binds no attribute").counters
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
        let mut sink = BudgetSink(Some(max_total_bindings));
        let counters = self.join_into(&mut sink);
        (sink.0.is_some(), counters)
    }

    /// Counts the results whose first attribute (in `order`) equals each
    /// drawn value — `|T_{A=a}|` of the sampling estimator (Sec. IV) —
    /// for `draws`, ascending distinct `(value, multiplicity)` pairs.
    /// Returns `Σ m · |T_{A=a}|` and counters whose `tuples_per_level` and
    /// `output_tuples` are weighted the same way: what counting every draw
    /// on its own would have summed. The [`JoinStats`] count the trie
    /// operations actually done, once per distinct value.
    ///
    /// The drawn values are a batch over the first attribute
    /// ([`Self::run_batch`]): level 0 seeks each value forward, and the
    /// rest are counted like [`Self::count`]. One walk and one `scratch`
    /// serve every value, so the tables of runs no drawn value moves — the
    /// root runs below level 0 — are built once per call.
    pub fn count_first_values(
        &self,
        draws: &[(Value, u64)],
        scratch: &mut JoinScratch,
    ) -> (u64, JoinCounters) {
        let tuples = vec![Cell::new(0u64); self.levels()];
        let weigh =
            |&(_, multiplicity): &(Value, u64)| WeightedCount { multiplicity, tuples: &tuples };
        let mut sinks: Vec<WeightedCount<'_>> = draws.iter().map(weigh).collect();
        let values: Vec<Value> = draws.iter().map(|&(v, _)| v).collect();
        let first = &self.layout.order[..1];
        let outcome = self.run_batch(first, &values, &mut sinks, scratch, &mut || false);
        let mut counters = outcome.expect("the first attribute is the order's").counters;
        counters.tuples_per_level = tuples.iter().map(Cell::get).collect();
        counters.output_tuples = *counters.tuples_per_level.last().expect("a level");
        (counters.output_tuples, counters)
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
        if let Some(driver) = self.layout.drivers[level] {
            // A driving run too long for probing to pay asks for nothing.
            let fits = driver_fits(runs[driver].len(), shortest_invariant(runs, driver));
            if fits && tables.ask(self.id, runs, driver, &mut counters.stats) {
                counters.stats.probes_per_level[level] +=
                    probe_matches(runs, driver, &tables.tables, on_match);
                return;
            }
        }
        counters.intersect_ops += leapfrog_matches(runs, on_match);
    }

    /// The last level, a leaf of the traversal: its participants' child
    /// runs are intersected where they lie, and no cursor moves. A sink that
    /// takes rows gets the matches as one run ([`RowSink::push_run`]); a
    /// sink that only counts gets the intersection's size. Either gets them
    /// once per match of the level above when `matches` holds that level's
    /// intersection offsets (`k` per match) — taken inside its loop, see
    /// the module docs — and once otherwise, for a last level with no free
    /// level above. Each run or count is produced, added to the output and
    /// pushed (when not empty) as a row-by-row walk would, except that a
    /// sink stopping inside a run (`Limit`, `Exists`) has the whole run
    /// added to the output; `false` once the walk or the sink stops.
    fn leaf<S: RowSink>(
        &self,
        matches: Option<(&[usize], usize)>,
        walk: &mut Walk<'_>,
        sink: &mut S,
        buf: &mut LevelScratch,
    ) -> bool {
        let level = self.levels() - 1;
        let ps = &self.layout.participants[level];
        let LevelScratch { values, tables, .. } = buf;
        with_slots(ps.len(), NO_RUN, |runs| {
            // The invariant runs stand still for the whole loop; the varying
            // ones are read again per match.
            for (run, &p) in runs.iter_mut().zip(ps) {
                *run = walk.cursors[p].child_run();
            }
            if !sink.counts_only() {
                // Taken in the parent's loop, the rows' prefix ends in the
                // parent's match, which no cursor descended to.
                let parent = matches.map(|_| self.layout.participants[level - 1][0]);
                let take = |runs: &[&[Value]], walk: &mut Walk<'_>, at: &[usize]| {
                    if let Some(q) = parent {
                        walk.binding[level - 1] = walk.cursors[q].run()[at[0]];
                    }
                    // A lone participant's run is the level's matches, as
                    // the dance would find them.
                    let run: &[Value] = match runs {
                        [run] => {
                            walk.counters.intersect_ops += run.len() as u64;
                            run
                        }
                        _ => {
                            values.clear();
                            let on_match = |v, _: &[usize]| values.push(v);
                            self.intersect(level, runs, tables, &mut walk.counters, on_match);
                            values
                        }
                    };
                    let n = run.len() as u64;
                    walk.produce(sink, level, n) && {
                        walk.counters.output_tuples += n;
                        n == 0 || sink.push_run(&mut walk.binding, run)
                    }
                };
                return self.each_leaf(matches, runs, walk, take);
            }
            let driver = self.layout.drivers[level];
            let shortest = driver.map_or(0, |d| shortest_invariant(runs, d));
            // Whether the invariant runs' tables are ready, once no further
            // ask can change the answer.
            let mut settled = None;
            let count = |runs: &[&[Value]], walk: &mut Walk<'_>, _: &[usize]| {
                let probe = driver.filter(|&d| {
                    if !driver_fits(runs[d].len(), shortest) {
                        return false;
                    }
                    if let Some(ready) = settled {
                        return ready;
                    }
                    let ready = tables.ask(self.id, runs, d, &mut walk.counters.stats);
                    if tables.settled(d, runs.len()) {
                        settled = Some(ready);
                    }
                    ready
                });
                // Probed, driven by `runs[d]`, when the invariant runs'
                // tables are ready, danced otherwise; the work is counted as
                // `intersect` counts it.
                let n = match probe {
                    Some(d) => {
                        let (n, probes) = probe_count(runs, d, &tables.tables);
                        walk.counters.stats.probes_per_level[level] += probes;
                        n
                    }
                    None => {
                        let (n, ops) = leapfrog_count(runs);
                        walk.counters.intersect_ops += ops;
                        n
                    }
                };
                walk.produce(sink, level, n) && {
                    walk.counters.output_tuples += n;
                    n == 0 || sink.push_count(n)
                }
            };
            self.each_leaf(matches, runs, walk, count)
        })
    }

    /// Calls `each(runs, walk, at)` for the last level: once, under the
    /// cursors as they stand, or — in the parent's loop, `matches` holding
    /// the parent's intersection offsets, `k` per match — once per match,
    /// with the varying participants' runs read at the match's offsets
    /// (`at`). `false` once `each` or the stop hook stops the walk.
    #[inline(always)]
    fn each_leaf<'t>(
        &self,
        matches: Option<(&[usize], usize)>,
        runs: &mut [&'t [Value]],
        walk: &mut Walk<'t>,
        mut each: impl FnMut(&[&'t [Value]], &mut Walk<'t>, &[usize]) -> bool,
    ) -> bool {
        let Some((positions, k)) = matches else { return each(runs, walk, &[]) };
        for at in positions.chunks_exact(k) {
            if !walk.visit() {
                return false;
            }
            for &(i, p, j) in &self.layout.last_varying {
                runs[i] = walk.cursors[p].child_run_at(at[j]);
            }
            if !each(runs, walk, at) {
                return false;
            }
        }
        true
    }
}

/// The sinks of a walk's bindings: binding `i` of a [`BatchWalk::advance`]
/// streams into `sink(i)`. A slice over every binding gives each a sink of
/// its own; an implementation may also stream several bindings into one.
pub trait Sinks {
    /// The sink type.
    type Sink: RowSink;

    /// The sink of binding `i`.
    fn sink(&mut self, i: usize) -> &mut Self::Sink;
}

impl<S: RowSink> Sinks for [S] {
    type Sink = S;

    #[inline]
    fn sink(&mut self, i: usize) -> &mut S {
        &mut self[i]
    }
}

/// One sink for every binding of a range: a counted bag's walk over a
/// morsel of first-attribute values, whose rows it tallies together.
#[derive(Debug)]
pub(crate) struct Shared<S>(pub S);

impl<S: RowSink> Sinks for Shared<S> {
    type Sink = S;

    #[inline]
    fn sink(&mut self, _i: usize) -> &mut S {
        &mut self.0
    }
}

/// A walk [`LeapfrogJoin::walk`] began: advanced over ascending ranges of
/// its bindings, then finished once.
pub struct BatchWalk<'j, T: Borrow<Trie>> {
    join: &'j LeapfrogJoin<T>,
    /// `None` when an input is empty.
    batch: Option<Batch<'j>>,
    scratch: &'j mut JoinScratch,
}

impl<T: Borrow<Trie>> BatchWalk<'_, T> {
    /// Walks bindings `first..until` of `bindings` (`k` values each, for
    /// the `k` bound attributes), binding `i` streaming into
    /// `sinks.sink(i)`. The ranges of one walk must ascend and the bindings
    /// in them be strictly ascending; the bindings between two ranges are
    /// skipped. Returns how many leading bindings of the range completed —
    /// `until` unless the stop hook fired.
    pub fn advance<Z: Sinks + ?Sized>(
        &mut self,
        bindings: &[Value],
        sinks: &mut Z,
        first: usize,
        until: usize,
    ) -> usize {
        match &mut self.batch {
            Some(batch) => self.join.advance(batch, self.scratch, bindings, sinks, first, until),
            None => until,
        }
    }

    /// Ends the walk, handing its cursors back to the scratch; returns its
    /// counters.
    pub fn finish(self) -> JoinCounters {
        match self.batch {
            Some(batch) => self.join.finish(batch, self.scratch).0,
            None => JoinCounters::new(self.join.levels()),
        }
    }
}

/// What a [`LeapfrogJoin::run_batch`] run produced.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// Number of leading bindings fully enumerated. Bindings are processed
    /// strictly in input (sorted) order, so the first `completed` have
    /// complete results in their sinks and the rest were not run (or, for
    /// the one right after them, may hold a truncated prefix if `stop`
    /// fired mid-binding). `completed` equal to the number of sinks means
    /// the batch ran to the end.
    pub completed: usize,
    /// Aggregate execution counters for the whole batch.
    pub counters: JoinCounters,
}

impl<T: Borrow<Trie>> LeapfrogJoin<T> {
    /// Runs one bound join per binding over **shared** cursors, streaming
    /// binding `i`'s results into `sinks[i]`. This is the one traversal
    /// every entry runs: a bound call is one binding, an unbound query
    /// (`join_into`, `run`, `count`, `count_with_budget`) one empty binding
    /// under no `bound_attrs`, a batch many bindings, and the sampler's
    /// draws a batch over the first attribute.
    ///
    /// `bound_attrs` names the attributes the bindings pin, in the order's
    /// level order ([`Error::UnknownAttr`] for one the order lacks or one
    /// out of its order). Binding `i` is `bindings[i * k..(i + 1) * k]`
    /// for `k = bound_attrs.len()`, one binding per sink, and the bindings
    /// must be **strictly ascending** — sorted and deduplicated; this is
    /// asserted.
    ///
    /// The bindings are visited in that order, so at each level of the
    /// *bound prefix* (the leading levels of the order that are all bound)
    /// every cursor is already at, or just past, the previous binding's
    /// value and gallops **forward** from there instead of re-descending
    /// from the root: `O(m)` movement per cursor across a batch over a run
    /// of length `m`, not `O(n log m)`. A prefix level counts one `opens`
    /// per participant each time its runs are opened and one `seeks` per
    /// participant per binding. A bound level behind a free level sits
    /// under a context that changes per binding, so it seeks its constant
    /// afresh (`open_ats`). The optimizer hoists bound attributes to the
    /// front of the order, so in practice the prefix covers every
    /// parameter.
    ///
    /// A binding whose prefix constant misses a trie completes with an
    /// empty result. `stop` is polled between bindings, and inside one
    /// once per [`POLL_EVERY`] bindings produced above the last level, so
    /// a binding with a large intermediate and a small result is stopped
    /// too. Once it returns `true` the run aborts, and the outcome says how
    /// many leading bindings completed (a binding during which `stop`
    /// flipped is reported incomplete, since a cancelling sink may have
    /// truncated its output).
    pub fn run_batch<S: RowSink>(
        &self,
        bound_attrs: &[Attr],
        bindings: &[Value],
        sinks: &mut [S],
        scratch: &mut JoinScratch,
        stop: &mut dyn FnMut() -> bool,
    ) -> Result<BatchOutcome> {
        let (k, n) = (bound_attrs.len(), sinks.len());
        assert_eq!(bindings.len(), n * k, "one binding of every bound attribute per sink");
        assert!(
            (1..n).all(|i| bindings[(i - 1) * k..i * k] < bindings[i * k..(i + 1) * k]),
            "bindings must be sorted and deduplicated"
        );
        let stop = RefCell::new(stop);
        let hook = || (*stop.borrow_mut())();
        let mut walk = self.walk(bound_attrs, scratch, &hook)?;
        let completed = walk.advance(bindings, sinks, 0, n);
        Ok(BatchOutcome { completed, counters: walk.finish() })
    }

    /// Starts one walk over bindings of `bound_attrs` (as
    /// [`Self::run_batch`] takes them) that its caller advances over ranges
    /// of the bindings, in ascending order, as it claims them
    /// ([`BatchWalk::advance`]) — the workers of a morsel-driven join each
    /// begin one walk and advance it over every morsel they claim. The walk
    /// keeps its cursors in `scratch` and polls `stop` as
    /// [`Self::run_batch`] does.
    pub fn walk<'j>(
        &'j self,
        bound_attrs: &[Attr],
        scratch: &'j mut JoinScratch,
        stop: &'j dyn Fn() -> bool,
    ) -> Result<BatchWalk<'j, T>> {
        let p = self.bound_prefix(bound_attrs)?;
        // With an empty input every binding completes with an empty result.
        let batch =
            (!self.has_empty_input()).then(|| self.begin(bound_attrs, p, None, stop, scratch));
        Ok(BatchWalk { join: self, batch, scratch })
    }

    /// The values of the order's first attribute in the shortest root run
    /// among the inputs that hold it: every first-level value of the join
    /// is among them, so an unbound join walked as a batch over them
    /// ([`Self::walk`] with the first attribute bound) enumerates the join.
    pub fn first_values(&self) -> &[Value] {
        let holding = &self.layout.participants[0];
        let roots = holding.iter().map(|&q| self.tries[q].borrow().levels()[0].values.as_slice());
        roots.min_by_key(|run| run.len()).unwrap_or(&[])
    }

    /// How many leading levels of the order `bound_attrs` bind — the bound
    /// prefix — once they are checked to be attributes of the order, in its
    /// level order ([`Error::UnknownAttr`] otherwise).
    pub(crate) fn bound_prefix(&self, bound_attrs: &[Attr]) -> Result<usize> {
        let order = &self.layout.order;
        let level_of = |a: Attr| order.iter().position(|&o| o == a);
        let mut above = None;
        for &a in bound_attrs {
            let level = level_of(a);
            if level.is_none() || level <= above {
                let schema = format!("order {order:?}, after the attributes bound before it");
                return Err(Error::UnknownAttr { attr: a.to_string(), schema });
            }
            above = level;
        }
        Ok(bound_attrs.iter().zip(order).take_while(|(a, o)| a == o).count())
    }

    /// Whether an input trie is empty, so that every binding's result is.
    pub(crate) fn has_empty_input(&self) -> bool {
        self.tries.iter().any(|t| t.borrow().tuples() == 0)
    }

    /// The join's tries.
    pub(crate) fn tries(&self) -> &[T] {
        &self.tries
    }

    /// Starts a walk over a batch of bindings of `bound_attrs`, the first
    /// `p` of which are the bound prefix ([`Self::bound_prefix`]): the
    /// cursors take their stacks from `scratch`, and every level's frame is
    /// reset. Bindings are then walked by [`Self::advance`], as many at a
    /// time as the caller wants, and [`Self::finish`] gives the cursors
    /// back.
    ///
    /// A walk given a `lent` cursor list keeps its cursors in it, so it
    /// allocates nothing; otherwise it makes the list. Only the walks that
    /// must not allocate — a counted join's bags — borrow: lending to
    /// every walk moves the allocator's heap layout enough to raise
    /// `warm_modes`' peak RSS by 3-6 MiB with the live heap unchanged (see
    /// ROADMAP).
    pub(crate) fn begin<'t>(
        &'t self,
        bound_attrs: &[Attr],
        p: usize,
        lent: Option<Lent>,
        stop: &'t dyn Fn() -> bool,
        scratch: &mut JoinScratch,
    ) -> Batch<'t> {
        let (order, levels) = (&self.layout.order, self.levels());
        let lends = lent.is_some();
        let mut cursors = match lent {
            Some(list) => recycle(list),
            None => Vec::with_capacity(self.tries.len()),
        };
        let stacks = &mut scratch.stacks;
        cursors.extend(
            self.tries.iter().map(|t| t.borrow().cursor_on(stacks.pop().unwrap_or_default())),
        );
        let mut binding = std::mem::take(&mut scratch.binding);
        binding.clear();
        binding.resize(levels, 0);
        // Every bound level behind the bound prefix is pinned to its column
        // of the binding.
        for (frame, a) in scratch.for_levels(levels).iter_mut().zip(order) {
            frame.opened = 0;
            frame.pin = bound_attrs[p..].iter().position(|b| b == a).map(|col| p + col);
        }
        let counters = JoinCounters::new(levels);
        let walk =
            Walk { cursors, binding, counters, stop, until_poll: POLL_EVERY, stopped: false };
        Batch { walk, lends, k: bound_attrs.len(), p, open_depth: 0, hit_depth: 0, sought: None }
    }

    /// Walks bindings `first..until` of `bindings` (`k` values each), binding
    /// `i` streaming into `sinks.sink(i)`, over the cursors `batch` kept
    /// from the bindings before them and `scratch`'s frames (the scratch
    /// [`Self::begin`] was given). Bindings must be visited in ascending
    /// order, but may be skipped. Returns how many leading bindings
    /// completed — `until` unless the stop hook fired.
    pub(crate) fn advance<Z: Sinks + ?Sized>(
        &self,
        batch: &mut Batch<'_>,
        scratch: &mut JoinScratch,
        bindings: &[Value],
        sinks: &mut Z,
        first: usize,
        until: usize,
    ) -> usize {
        // Each range polls the stop hook as often as it would walked alone,
        // however the ranges before it were dealt out.
        batch.walk.until_poll = POLL_EVERY;
        let frames = scratch.for_levels(self.levels());
        self.traverse(batch, frames, bindings, sinks, first, until)
    }

    /// Ends a walk [`Self::begin`] started: the cursor stacks and binding
    /// buffer go back to `scratch` for the next walk. Returns the walk's
    /// counters, and its cursor list, emptied, if it was lent one (an empty
    /// list otherwise).
    pub(crate) fn finish(
        &self,
        batch: Batch<'_>,
        scratch: &mut JoinScratch,
    ) -> (JoinCounters, Lent) {
        let Walk { mut cursors, binding, counters, .. } = batch.walk;
        scratch.stacks.extend(cursors.drain(..).map(TrieCursor::into_stack));
        scratch.binding = binding;
        let cursors = if batch.lends { recycle(cursors) } else { Vec::new() };
        (counters, cursors)
    }

    /// The traversal: one loop over an explicit stack of levels, one frame
    /// per level in `frames`. The bound prefix's levels are the bottom of
    /// the stack, fed by the sorted `bindings` (`batch.k` values each, the
    /// first `batch.p` of which are the prefix); the levels behind it are
    /// entered once per binding of the level above. Walks bindings
    /// `first..until`, binding `i` into `sinks.sink(i)`, and returns how
    /// many leading bindings completed.
    fn traverse<Z: Sinks + ?Sized>(
        &self,
        batch: &mut Batch<'_>,
        frames: &mut [LevelScratch],
        bindings: &[Value],
        sinks: &mut Z,
        first: usize,
        until: usize,
    ) -> usize {
        let (layout, levels) = (&*self.layout, self.levels());
        let Batch { walk, k, p, open_depth, hit_depth, sought, .. } = batch;
        let (k, p) = (*k, *p);
        let binding = |i: usize| &bindings[i * k..(i + 1) * k];
        // Once a level's subtree is done: the next match of the level
        // above, or, at the first level behind the prefix, the binding's
        // end.
        let resume = |level: usize| if level > p { Step::Next(level - 1) } else { Step::End };
        // The binding under way; every binding before it completed.
        let mut i = first;
        let mut step = Step::Bind;
        loop {
            step = match step {
                Step::Bind if i == until || (walk.stop)() => return i,
                Step::Bind if sinks.sink(i).saturated() => {
                    i += 1;
                    Step::Bind
                }
                Step::Bind => {
                    // Longest reusable prefix: levels whose value matches
                    // the binding last sought AND whose cursors sit on it.
                    let (b, last) = (binding(i), sought.map_or(binding(i), binding));
                    let reuse = (0..*hit_depth).take_while(|&l| b[l] == last[l]).count();
                    // Close levels opened under a now-stale parent context.
                    // Level `reuse` itself stays open: its run is unchanged
                    // (everything above it matches) and sorted bindings only
                    // move it forward.
                    while *open_depth > reuse + 1 {
                        *open_depth -= 1;
                        walk.up(&layout.participants[*open_depth]);
                    }
                    *sought = Some(i);
                    Step::Enter(reuse)
                }
                Step::Enter(level) if level < p => {
                    let (ps, stats) = (&layout.participants[level], &mut walk.counters.stats);
                    if level >= *open_depth {
                        stats.opens_per_level[level] += ps.len() as u64;
                        let opened = ps.iter().fold(true, |all, &q| walk.cursors[q].open() & all);
                        debug_assert!(opened, "interior trie rows always have children");
                        *open_depth = level + 1;
                    }
                    // Every cursor seeks, hit or miss, so the next
                    // binding's forward seek stays valid.
                    let target = binding(i)[level];
                    stats.seeks_per_level[level] += ps.len() as u64;
                    let hit = ps.iter().fold(true, |all, &q| walk.cursors[q].seek(target) & all);
                    *hit_depth = level + usize::from(hit);
                    walk.binding[level] = target;
                    // A prefix binding is produced once, by the first
                    // binding of the run that shares it — whichever walk
                    // took up the binding before it — so a batch divided
                    // among walks counts what one walk counts.
                    let shared = i > 0 && binding(i - 1)[..=level] == binding(i)[..=level];
                    if hit && (shared || walk.produce(sinks.sink(i), level, 1)) {
                        Step::Enter(level + 1)
                    } else {
                        Step::End
                    }
                }
                Step::Enter(level) if level == levels => {
                    walk.counters.output_tuples += 1;
                    if sinks.sink(i).push(&walk.binding) {
                        resume(level)
                    } else {
                        Step::Stop
                    }
                }
                Step::Enter(level) => {
                    let ps = &layout.participants[level];
                    let (frame, below) = frames[level..].split_first_mut().expect("a level");
                    let (sink, stats) = (sinks.sink(i), &mut walk.counters.stats);
                    if let Some(col) = frame.pin {
                        // A bound level behind a free one seeks its constant
                        // in every participant; a miss prunes the subtree
                        // without intersecting anything.
                        let v = binding(i)[col];
                        frame.opened =
                            ps.iter().take_while(|&&q| walk.cursors[q].open_at(v)).count();
                        stats.open_ats_per_level[level] += ps.len().min(frame.opened + 1) as u64;
                        let hit = frame.opened == ps.len();
                        walk.binding[level] = v;
                        (frame.next, frame.end) = (0, usize::from(hit));
                        if hit && !walk.produce(sink, level, 1) {
                            Step::Stop
                        } else {
                            Step::Next(level)
                        }
                    } else if below.is_empty() {
                        // The last free level: no cursor moves.
                        if self.leaf(None, walk, sink, frame) {
                            resume(level)
                        } else {
                            Step::Stop
                        }
                    } else {
                        let opened = ps.iter().take_while(|&&q| walk.cursors[q].open()).count();
                        stats.opens_per_level[level] += ps.len().min(opened + 1) as u64;
                        frame.opened = opened;
                        let LevelScratch { positions, tables, .. } = &mut *frame;
                        positions.clear();
                        if opened == ps.len() {
                            with_slots(ps.len(), NO_RUN, |runs| {
                                for (run, &q) in runs.iter_mut().zip(ps) {
                                    *run = walk.cursors[q].run();
                                }
                                let on_match = |_, at: &[usize]| positions.extend_from_slice(at);
                                self.intersect(level, runs, tables, &mut walk.counters, on_match);
                            });
                        }
                        let matches = positions.len() / ps.len();
                        (frame.next, frame.end) = (0, matches);
                        if opened < ps.len() {
                            Step::Next(level)
                        } else if !walk.produce(sink, level, matches as u64) {
                            Step::Stop
                        } else if below.len() == 1 && below[0].pin.is_none() {
                            // The last level is counted, or taken in runs,
                            // in this level's loop: nothing to descend into.
                            frame.end = 0;
                            let matches = Some((&frame.positions[..], ps.len()));
                            let counted = self.leaf(matches, walk, sink, &mut below[0]);
                            if counted {
                                Step::Next(level)
                            } else {
                                Step::Stop
                            }
                        } else {
                            Step::Next(level)
                        }
                    }
                }
                Step::Next(level) => {
                    let (ps, frame) = (&layout.participants[level], &mut frames[level]);
                    if frame.next == frame.end {
                        walk.up(&ps[..frame.opened]);
                        frame.opened = 0;
                        resume(level)
                    } else if level + 1 < levels && !walk.visit() {
                        Step::Stop
                    } else {
                        if frame.pin.is_none() {
                            // Jump every participant to the offset the
                            // level's intersection recorded for the match.
                            let at = &frame.positions[frame.next * ps.len()..][..ps.len()];
                            walk.counters.stats.seeks_per_level[level] += ps.len() as u64;
                            for (&q, &offset) in ps.iter().zip(at) {
                                walk.cursors[q].jump(offset);
                            }
                            walk.binding[level] = walk.cursors[ps[0]].key();
                        }
                        frame.next += 1;
                        Step::Enter(level + 1)
                    }
                }
                Step::Stop => {
                    for (frame, ps) in frames.iter_mut().zip(&layout.participants).skip(p) {
                        walk.up(&ps[..frame.opened]);
                        frame.opened = 0;
                    }
                    Step::End
                }
                Step::End if walk.stopped || (walk.stop)() => return i,
                Step::End => {
                    i += 1;
                    Step::Bind
                }
            }
        }
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
            let sinks = std::slice::from_mut(&mut buf);
            let outcome = join.run_batch(&[], &[], sinks, &mut scratch, &mut || false).unwrap();
            assert_eq!((outcome.completed, outcome.counters.output_tuples), (1, 2));
        }
    }

    #[test]
    fn a_layout_serves_every_join_over_its_schemas() {
        let (r1, r2, r3) = triangle_graph();
        let ord = order(&[0, 1, 2]);
        let tries = tries_for(&[&r1, &r2, &r3], &ord);
        let fresh = LeapfrogJoin::new(&ord, tries.iter().collect()).unwrap();
        let layout = Arc::new(JoinLayout::new(&ord, tries.iter().map(|t| t.schema())).unwrap());
        assert_eq!(*fresh.layout, *layout);
        let mut want = adj_relational::RowBuffer::new(3);
        let mut never = || false;
        let sinks = std::slice::from_mut(&mut want);
        let expect = fresh.run_batch(&[], &[], sinks, &mut JoinScratch::new(), &mut never).unwrap();
        let mut scratch = JoinScratch::new();
        let mut handles: Vec<&Trie> = tries.iter().collect();
        for _ in 0..3 {
            // The tries' `Vec` and the walk's cursor stacks go round.
            let join = LeapfrogJoin::with_layout(Arc::clone(&layout), handles).unwrap();
            let mut buf = adj_relational::RowBuffer::new(3);
            let sinks = std::slice::from_mut(&mut buf);
            let outcome = join.run_batch(&[], &[], sinks, &mut scratch, &mut || false).unwrap();
            assert_eq!(outcome.counters.tuples_per_level, expect.counters.tuples_per_level);
            assert_eq!(buf.flat(), want.flat());
            assert_eq!(scratch.stacks.len(), 3, "every cursor's stack came back");
            handles = join.into_tries();
        }
        // Tries of other schemas are refused.
        let swapped = vec![&tries[1], &tries[0], &tries[2]];
        assert!(LeapfrogJoin::with_layout(layout, swapped).is_err());
    }

    /// One bound join through [`LeapfrogJoin::run_batch`]: `values` pins
    /// `attrs` (ascending by level), streaming into `sink`.
    fn bound_join<S: RowSink>(
        join: &LeapfrogJoin<&Trie>,
        attrs: &[Attr],
        values: &[Value],
        sink: &mut S,
    ) -> JoinCounters {
        let mut scratch = JoinScratch::new();
        let sinks = std::slice::from_mut(sink);
        let outcome = join.run_batch(attrs, values, sinks, &mut scratch, &mut || false);
        let outcome = outcome.unwrap();
        assert_eq!(outcome.completed, 1);
        outcome.counters
    }

    /// [`bound_join`]'s rows, in enumeration order.
    fn bound_rows(
        join: &LeapfrogJoin<&Trie>,
        attrs: &[Attr],
        values: &[Value],
    ) -> (Vec<Vec<Value>>, JoinCounters) {
        let mut rows = Vec::new();
        let counters =
            bound_join(join, attrs, values, &mut FnSink(|t: &[Value]| rows.push(t.to_vec())));
        (rows, counters)
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
                let (got, counters) = bound_rows(&join, &[attr], &[v]);
                let expect: Vec<Vec<Value>> =
                    full.iter().filter(|t| t[col] == v).cloned().collect();
                assert_eq!(got, expect, "attr {attr} = {v}");
                assert_eq!(counters.output_tuples as usize, expect.len());
            }
        }

        // Two bound levels compose: a prefix level and one behind a free
        // level.
        let (got, _) = bound_rows(&join, &[Attr(0), Attr(2)], &[3, 7]);
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
        let bound_counters = bound_join(&free, &[Attr(0)], &[5], &mut CountSink::new());
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
        let join = LeapfrogJoin::new(&ord, tries.iter().collect()).unwrap();
        let mut probe = EmitProbe { inner: adj_relational::ExistsSink::new(), emits: 0 };
        bound_join(&join, &[Attr(0)], &[1], &mut probe);
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
    fn a_budget_spent_inside_the_counted_last_level_stops_there() {
        let edges: Vec<(Value, Value)> = (0..300u32)
            .flat_map(|i| vec![(i % 37, (i * 7 + 1) % 37), (i % 37, (i * 11 + 5) % 37)])
            .collect();
        let tries = four_cycle(&edges);
        let join = LeapfrogJoin::new(&order(&[0, 1, 2, 3]), tries.iter().collect()).unwrap();
        let (n, full) = join.count();
        let total = full.total_tuples();
        assert!(n > 0 && full.stats.probes_per_level[3] > 0);

        // Every smaller budget runs out. One that runs out on a count of
        // the last level — made inside level 2's loop — has produced that
        // count but never added it to the output.
        let mut in_the_loop = 0;
        for budget in 0..total {
            let (completed, partial) = join.count_with_budget(budget);
            assert!(!completed, "budget {budget}");
            let levels = partial.tuples_per_level.iter().zip(full.tuples_per_level.iter());
            for (level, (&got, &all)) in levels.enumerate() {
                assert!(got <= all, "budget {budget}, level {level}: {got} > {all}");
            }
            if partial.tuples_per_level[3] > partial.output_tuples {
                in_the_loop += 1;
            }
        }
        assert!(in_the_loop > 0, "no budget ran out on a counted last level");

        let (completed, exact) = join.count_with_budget(total);
        assert!(completed);
        assert_eq!(exact, full, "a budget of exactly the total changes nothing");
    }

    /// A join over `a, x` whose last level has more participants than
    /// [`INLINE_RUNS`](adj_relational::intersect::INLINE_RUNS): `varying`
    /// copies of the edges `(a, x)` and `unary` unary relations over `x`.
    fn wide_last_level(varying: usize, unary: usize) -> Vec<Trie> {
        let edges: Vec<(Value, Value)> = (0..200u32).map(|i| (i % 13, (i * 7 + 3) % 41)).collect();
        let ord = order(&[0, 1]);
        let binary = Relation::from_pairs(Attr(0), Attr(1), &edges);
        let mut tries: Vec<Trie> =
            (0..varying).map(|_| binary.trie_under_order(&ord).unwrap()).collect();
        for u in 0..unary as u32 {
            let rows: Vec<[Value; 1]> = (0..41).filter(|&x| x != u).map(|x| [x]).collect();
            let rows: Vec<&[Value]> = rows.iter().map(|r| &r[..]).collect();
            let rel = Relation::from_rows(Schema::from_ids(&[1]), &rows).unwrap();
            tries.push(Trie::build(&rel));
        }
        tries
    }

    #[test]
    fn a_last_level_past_the_inline_runs_counts_on_the_heap() {
        use adj_relational::intersect::INLINE_RUNS;
        let ord = order(&[0, 1]);
        // One varying run probing many invariant ones, then many varying
        // runs dancing.
        for (varying, unary) in [(1, INLINE_RUNS + 2), (INLINE_RUNS + 1, 2)] {
            let tries = wide_last_level(varying, unary);
            let join = LeapfrogJoin::new(&ord, tries.iter().collect()).unwrap();
            assert!(join.layout.participants[1].len() > INLINE_RUNS);
            let (n, counted) = join.count();
            let mut rows = adj_relational::RowBuffer::new(2);
            let enumerated = join.join_into(&mut rows);
            assert_eq!(n as usize, rows.len(), "{varying} varying, {unary} unary");
            assert!(n > 0);
            assert_eq!(counted.tuples_per_level, enumerated.tuples_per_level);
            assert_eq!(counted.intersect_ops, enumerated.intersect_ops);
            assert_eq!(counted.stats.probes_per_level, enumerated.stats.probes_per_level);
            assert_eq!(counted.stats.table_builds, enumerated.stats.table_builds);
            let probed = counted.stats.probes_per_level[1] > 0;
            assert_eq!(probed, varying == 1, "one varying run drives a probe");
        }
    }

    #[test]
    fn last_levels_without_a_free_parent_count_through_run_batch() {
        // A join of one level: the intersection of two unary relations.
        let unary = |xs: &[Value]| {
            let rows: Vec<[Value; 1]> = xs.iter().map(|&x| [x]).collect();
            let rows: Vec<&[Value]> = rows.iter().map(|r| &r[..]).collect();
            Trie::build(&Relation::from_rows(Schema::from_ids(&[0]), &rows).unwrap())
        };
        let (u, v) = (unary(&[1, 3, 5, 7, 9]), unary(&[3, 4, 5, 9, 12]));
        let join = LeapfrogJoin::new(&order(&[0]), vec![&u, &v]).unwrap();
        let mut sink = [CountSink::new()];
        let mut scratch = JoinScratch::new();
        let outcome = join.run_batch(&[], &[], &mut sink, &mut scratch, &mut || false).unwrap();
        assert_eq!((outcome.completed, sink[0].count()), (1, 3));
        assert_eq!(outcome.counters.output_tuples, 3);

        // A last level below a bound level: behind the bound prefix, and
        // behind a bound level that follows a free one.
        let (r1, r2, r3) = batch_graph();
        let ord = order(&[0, 1, 2]);
        let tries = tries_for(&[&r1, &r2, &r3], &ord);
        let join = LeapfrogJoin::new(&ord, tries.iter().collect()).unwrap();
        let mut rows: Vec<Vec<Value>> = Vec::new();
        join.run(|t| rows.push(t.to_vec()));
        // Bindings that hit, and one that misses, for each bound set.
        let pick = |cols: &[usize]| {
            let mut bindings: Vec<Vec<Value>> = [0, rows.len() / 2, rows.len() - 1]
                .iter()
                .map(|&r| cols.iter().map(|&c| rows[r][c]).collect())
                .collect();
            bindings.push(vec![99; cols.len()]);
            bindings.sort();
            bindings.dedup();
            bindings
        };
        for (attrs, bindings) in
            [(vec![Attr(0), Attr(1)], pick(&[0, 1])), (vec![Attr(1)], pick(&[1]))]
        {
            let expect = looped_bound(&ord, &tries, &attrs, &bindings);
            let mut sinks: Vec<CountSink> = bindings.iter().map(|_| CountSink::new()).collect();
            let flat = bindings.concat();
            let outcome =
                join.run_batch(&attrs, &flat, &mut sinks, &mut scratch, &mut || false).unwrap();
            assert_eq!(outcome.completed, bindings.len());
            let counts: Vec<usize> = sinks.iter().map(|s| s.count() as usize).collect();
            let want: Vec<usize> = expect.iter().map(Vec::len).collect();
            assert_eq!(counts, want, "{attrs:?}");
            assert!(want.iter().any(|&n| n > 0), "{attrs:?}: some binding has results");
        }
    }

    #[test]
    fn the_stop_hook_is_polled_inside_a_binding() {
        // The complete bipartite graph K_{40,40}, edges both ways: 3,200
        // bindings above the last level and no triangle, so no sink is
        // ever offered a row.
        let edges: Vec<(Value, Value)> =
            (0..40).flat_map(|x| (40..80).flat_map(move |y| [(x, y), (y, x)])).collect();
        let r1 = Relation::from_pairs(Attr(0), Attr(1), &edges);
        let r2 = Relation::from_pairs(Attr(1), Attr(2), &edges);
        let r3 = Relation::from_pairs(Attr(0), Attr(2), &edges);
        let ord = order(&[0, 1, 2]);
        let tries = tries_for(&[&r1, &r2, &r3], &ord);
        let join = LeapfrogJoin::new(&ord, tries.iter().collect()).unwrap();
        let (n, full) = join.count();
        let above: u64 = full.tuples_per_level[..2].iter().sum();
        assert_eq!((n, full.tuples_per_level[1]), (0, 3200));

        for sink in [0, 1] {
            let run = |stop: &mut dyn FnMut() -> bool| {
                let mut counting = [CountSink::new()];
                let mut rows = [adj_relational::RowBuffer::new(3)];
                let mut scratch = JoinScratch::new();
                let outcome = if sink == 0 {
                    join.run_batch(&[], &[], &mut counting, &mut scratch, stop)
                } else {
                    join.run_batch(&[], &[], &mut rows, &mut scratch, stop)
                };
                outcome.unwrap()
            };
            let mut polls = 0u64;
            let outcome = run(&mut || {
                polls += 1;
                false
            });
            assert_eq!(outcome.completed, 1);
            // Before and after the binding, and once per POLL_EVERY
            // bindings inside it.
            assert_eq!(polls, 2 + above / POLL_EVERY, "sink {sink}");

            // Firing at the first poll inside the binding stops it there.
            let mut polls = 0u64;
            let outcome = run(&mut || {
                polls += 1;
                polls == 2
            });
            assert_eq!((outcome.completed, polls), (0, 2), "sink {sink}");
            assert!(outcome.counters.tuples_per_level[1] < 3200, "sink {sink}");
        }
    }

    #[test]
    fn count_first_values_sums_to_total_weighted_by_multiplicity() {
        let (r1, r2, r3) = triangle_graph();
        let ord = order(&[0, 1, 2]);
        let tries = tries_for(&[&r1, &r2, &r3], &ord);
        let join = LeapfrogJoin::new(&ord, tries.iter().collect()).unwrap();
        let (total, counters) = join.count();
        let mut scratch = JoinScratch::new();
        let every: Vec<(Value, u64)> = (0..6u32).map(|v| (v, 1)).collect();
        let (sum, by_value) = join.count_first_values(&every, &mut scratch);
        assert_eq!(sum, total);
        assert_eq!(by_value.output_tuples, total);
        assert_eq!(by_value.tuples_per_level[1..], counters.tuples_per_level[1..]);
        assert_eq!(join.count_first_values(&[(1, 1)], &mut scratch).0, 2); // both triangles start at a=1
        assert_eq!(join.count_first_values(&[(99, 1)], &mut scratch).0, 0);
        assert_eq!(join.count_first_values(&[], &mut scratch).0, 0);

        // Three draws of a = 1 weigh its counts three times over, but walk
        // its subtree once.
        let (once, one) = join.count_first_values(&[(1, 1)], &mut scratch);
        let (thrice, three) = join.count_first_values(&[(1, 3), (99, 2)], &mut scratch);
        assert_eq!(thrice, 3 * once);
        assert_eq!(three.output_tuples, 3 * one.output_tuples);
        let tripled: Vec<u64> = one.tuples_per_level.iter().map(|&t| 3 * t).collect();
        assert_eq!(three.tuples_per_level[..], tripled);
        // Level 0 is a bound prefix: opened once, sought once per
        // participant per distinct value, a hit or a miss.
        assert_eq!(three.stats.seeks_per_level[0], 2 * one.stats.seeks_per_level[0]);
        assert_eq!(three.stats.opens_per_level[0], one.stats.opens_per_level[0]);
        assert_eq!(three.stats.total_open_ats(), 0);
        assert_eq!(three.stats.opens_per_level[1..], one.stats.opens_per_level[1..]);
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

    /// Runs `join` over `bindings` of `attrs` into row buffers and returns
    /// the per-binding rows plus the outcome.
    fn run_batched(
        join: &LeapfrogJoin<&Trie>,
        attrs: &[Attr],
        bindings: &[Vec<Value>],
    ) -> (Vec<Vec<Vec<Value>>>, BatchOutcome) {
        let mut buffers: Vec<adj_relational::RowBuffer> =
            bindings.iter().map(|_| adj_relational::RowBuffer::new(join.levels())).collect();
        let mut scratch = JoinScratch::new();
        let flat = bindings.concat();
        let outcome =
            join.run_batch(attrs, &flat, &mut buffers, &mut scratch, &mut || false).unwrap();
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

    /// Oracle: the free enumeration, filtered per binding on the bound
    /// columns (`attrs` are levels of `ord`, ascending).
    fn looped_bound(
        ord: &[Attr],
        tries: &[Trie],
        attrs: &[Attr],
        bindings: &[Vec<Value>],
    ) -> Vec<Vec<Vec<Value>>> {
        let join = LeapfrogJoin::new(ord, tries.iter().collect()).unwrap();
        let mut full: Vec<Vec<Value>> = Vec::new();
        join.run(|t| full.push(t.to_vec()));
        let cols: Vec<usize> =
            attrs.iter().map(|a| ord.iter().position(|o| o == a).unwrap()).collect();
        bindings
            .iter()
            .map(|b| {
                full.iter()
                    .filter(|t| cols.iter().zip(b).all(|(&c, &v)| t[c] == v))
                    .cloned()
                    .collect()
            })
            .collect()
    }

    #[test]
    fn batched_matches_looped_bound_joins() {
        let (r1, r2, r3) = batch_graph();
        let ord = order(&[0, 1, 2]);
        let tries = tries_for(&[&r1, &r2, &r3], &ord);
        // Sorted, deduplicated, with values present and absent (99, 200).
        let bindings: Vec<Vec<Value>> =
            [0u32, 1, 2, 3, 5, 7, 11, 13, 29, 52, 99, 200].iter().map(|&v| vec![v]).collect();
        let join = LeapfrogJoin::new(&ord, tries.iter().collect()).unwrap();
        let (got, outcome) = run_batched(&join, &[Attr(0)], &bindings);
        let expect = looped_bound(&ord, &tries, &[Attr(0)], &bindings);
        assert_eq!(got, expect);
        assert_eq!(outcome.completed, bindings.len());
        let total: usize = expect.iter().map(|r| r.len()).sum();
        assert_eq!(outcome.counters.output_tuples as usize, total);
        // Level 0 is the bound prefix: opened once, sought once per binding
        // and participant, never `open_at`.
        assert_eq!(outcome.counters.stats.open_ats_per_level[0], 0);
        assert_eq!(outcome.counters.stats.seeks_per_level[0], 2 * bindings.len() as u64);
    }

    #[test]
    fn batched_interior_bound_attr_matches_loop() {
        // Binding attr 1 under order [0,1,2]: no bound prefix, the interior
        // bound path must still demultiplex correctly per binding.
        let (r1, r2, r3) = batch_graph();
        let ord = order(&[0, 1, 2]);
        let tries = tries_for(&[&r1, &r2, &r3], &ord);
        let bindings: Vec<Vec<Value>> = [0u32, 4, 9, 17, 99].iter().map(|&v| vec![v]).collect();
        let join = LeapfrogJoin::new(&ord, tries.iter().collect()).unwrap();
        let (got, outcome) = run_batched(&join, &[Attr(1)], &bindings);
        assert_eq!(got, looped_bound(&ord, &tries, &[Attr(1)], &bindings));
        assert_eq!(outcome.completed, bindings.len());
        assert!(outcome.counters.stats.open_ats_per_level[1] > 0, "interior levels open_at");
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
        let join = LeapfrogJoin::new(&ord, tries.iter().collect()).unwrap();
        let attrs = [Attr(0), Attr(1)];
        let (got, outcome) = run_batched(&join, &attrs, &bindings);
        assert_eq!(got, looped_bound(&ord, &tries, &attrs, &bindings));
        assert_eq!(outcome.completed, bindings.len());
        assert_eq!(outcome.counters.stats.total_open_ats(), 0, "both levels are the prefix");
    }

    #[test]
    fn batched_prefix_opens_runs_once() {
        // The monotone-forward claim, visible in counters: one batch opens
        // the level-0 runs once, where one call per binding re-descends
        // from the root every time.
        let (r1, r2, r3) = batch_graph();
        let ord = order(&[0, 1, 2]);
        let tries = tries_for(&[&r1, &r2, &r3], &ord);
        let bindings: Vec<Vec<Value>> = (0..40u32).map(|v| vec![v]).collect();
        let join = LeapfrogJoin::new(&ord, tries.iter().collect()).unwrap();
        let (_, outcome) = run_batched(&join, &[Attr(0)], &bindings);
        let mut looped = JoinCounters::new(ord.len());
        for b in &bindings {
            looped.merge(&run_batched(&join, &[Attr(0)], std::slice::from_ref(b)).1.counters);
        }
        let level0_participants = 2; // R1(0,1) and R3(0,2) contain attr 0
        assert_eq!(outcome.counters.stats.opens_per_level[0], level0_participants);
        assert_eq!(
            looped.stats.opens_per_level[0],
            bindings.len() as u64 * level0_participants,
            "one call per binding re-descends per binding"
        );
        assert_eq!(outcome.counters.tuples_per_level, looped.tuples_per_level);
    }

    #[test]
    fn batched_stop_reports_partial_completion() {
        let (r1, r2, r3) = batch_graph();
        let ord = order(&[0, 1, 2]);
        let tries = tries_for(&[&r1, &r2, &r3], &ord);
        let bindings: Vec<Vec<Value>> = (0..10u32).map(|v| vec![v]).collect();
        let join = LeapfrogJoin::new(&ord, tries.iter().collect()).unwrap();
        let mut buffers: Vec<adj_relational::RowBuffer> =
            bindings.iter().map(|_| adj_relational::RowBuffer::new(3)).collect();
        let mut scratch = JoinScratch::new();
        let mut polls = 0usize;
        let outcome = join
            .run_batch(&[Attr(0)], &bindings.concat(), &mut buffers, &mut scratch, &mut || {
                polls += 1;
                polls > 6
            })
            .unwrap();
        assert!(outcome.completed < bindings.len(), "stop must abort the batch");
        // Completed bindings hold exactly the oracle rows.
        let expect = looped_bound(&ord, &tries, &[Attr(0)], &bindings);
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
        let join = LeapfrogJoin::new(&ord, vec![&t1, &t2, &t3]).unwrap();

        let mut scratch = JoinScratch::new();
        let none: &mut [adj_relational::RowBuffer] = &mut [];
        let outcome = join.run_batch(&[Attr(0)], &[], none, &mut scratch, &mut || false);
        assert_eq!(outcome.unwrap().completed, 0);

        let mut buffers = [adj_relational::RowBuffer::new(3), adj_relational::RowBuffer::new(3)];
        let outcome =
            join.run_batch(&[Attr(0)], &[1, 2], &mut buffers, &mut scratch, &mut || false);
        assert_eq!(outcome.unwrap().completed, 2, "empty inputs complete every binding, no rows");
        assert!(buffers.iter().all(|b| b.is_empty()));
    }

    #[test]
    fn batched_per_binding_sinks_saturate_independently() {
        let (r1, r2, r3) = batch_graph();
        let ord = order(&[0, 1, 2]);
        let tries = tries_for(&[&r1, &r2, &r3], &ord);
        let bindings: Vec<Vec<Value>> = (0..8u32).map(|v| vec![v]).collect();
        let join = LeapfrogJoin::new(&ord, tries.iter().collect()).unwrap();
        let mut probes: Vec<EmitProbe<adj_relational::ExistsSink>> = bindings
            .iter()
            .map(|_| EmitProbe { inner: adj_relational::ExistsSink::new(), emits: 0 })
            .collect();
        let mut scratch = JoinScratch::new();
        let flat = bindings.concat();
        let outcome = join.run_batch(&[Attr(0)], &flat, &mut probes, &mut scratch, &mut || false);
        assert_eq!(outcome.unwrap().completed, bindings.len());
        let expect = looped_bound(&ord, &tries, &[Attr(0)], &bindings);
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
        let join = LeapfrogJoin::new(&ord, tries.iter().collect()).unwrap();
        let mut buffers = [adj_relational::RowBuffer::new(3), adj_relational::RowBuffer::new(3)];
        let mut scratch = JoinScratch::new();
        let _ = join.run_batch(&[Attr(0)], &[3, 1], &mut buffers, &mut scratch, &mut || false);
    }

    #[test]
    fn batched_rejects_unknown_bound_attr() {
        let (r1, r2, r3) = triangle_graph();
        let ord = order(&[0, 1, 2]);
        let tries = tries_for(&[&r1, &r2, &r3], &ord);
        let join = LeapfrogJoin::new(&ord, tries.iter().collect()).unwrap();
        let mut buf = adj_relational::RowBuffer::new(3);
        let mut scratch = JoinScratch::new();
        let mut run = |attrs: &[Attr], values: &[Value]| {
            let sinks = std::slice::from_mut(&mut buf);
            join.run_batch(attrs, values, sinks, &mut scratch, &mut || false)
        };
        assert!(matches!(run(&[Attr(9)], &[1]), Err(Error::UnknownAttr { .. })));
        // Bound attributes must follow the order's levels.
        assert!(matches!(run(&[Attr(1), Attr(0)], &[1, 2]), Err(Error::UnknownAttr { .. })));
        assert!(run(&[Attr(0), Attr(1)], &[1, 2]).is_ok());
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
