//! Plan execution: pre-compute → index → join, with the per-phase cost
//! breakdown of Tables II–IV.
//!
//! [`execute_plan`] is the one plan executor, and every execution is a
//! batch: an unbound query is one empty binding, a bound call one binding,
//! the batch door many. What differs between its callers travels in two
//! values. The bindings reach exactly one layer, Leapfrog, whose walks
//! ([`LeapfrogJoin::walk`]) visit them in sorted order over shared
//! cursors. The [`ExecCtx`] carries the rest through *both* kinds of round
//! (the bag pre-computation rounds and the final round): under an
//! [`IndexScope`](adj_hcube::IndexScope) warm database relations reuse
//! published `Arc<Trie>` handles instead of rebuilding, and the report
//! splits index work into built vs reused relations; the token and the
//! tracer make the run cancellable and put it on a span timeline. A
//! pre-computed bag belongs to one execution: every execution computes it
//! by its own round and join, and the final round indexes it without a
//! key. `ExecCtx::default()` is the one-shot run: cold, uncancellable,
//! untraced.
//!
//! The cluster's workers are threads over one heap, so a round routes
//! nothing: every worker joins over the same one trie per relation
//! ([`index_round`]), and the workers divide the join's *driver* — an
//! unbound join's first-attribute values, a bound call's or batch's sorted
//! bindings — in morsels claimed from one atomic cursor ([`Morsels`]): a
//! join is one claimed phase of the cluster's runner
//! ([`Cluster::run_claimed`]), which runs a driver of one morsel on the
//! calling thread. No level above a morsel is walked twice, so the
//! per-level counters are the same at every width. The HCube share the
//! optimizer priced the plan under ([`QueryPlan::share`]) still prices
//! each round: the report's `comm_tuples` is what that share would route.
//! An execution reads the share and solves no share program of its own.
//!
//! Every worker, whatever it joins, has one sink set (`Segments`): its
//! one row buffer and a tally per output slot. A driver row's output slot
//! is its own for a bound call or batch and slot 0 for an unbound join;
//! its rows are a segment of the buffer, carrying the row's quota (limit,
//! budget). One gather assembles every output from its segments in morsel
//! order, for the final join and a pre-computed bag's join alike.
//!
//! A warm execution pays for its join and little else. Each round of a
//! plan — its relations' layouts and index keys, and the layout of the
//! join over its tries — is prepared once and kept on the plan, so a fully
//! warm round only looks its keys up in the index cache.
//! The buffers the join needs are lent by the executing [`Adj`]'s
//! [`ScratchPool`](crate::ScratchPool).

use crate::plan::{CountedRound, PlanRelation, QueryPlan, Round};
use crate::scratch::{Claimed, Lent, Scratch, Segment};
use crate::Adj;
use adj_cluster::Cluster;
use adj_faults::{CancelToken, FaultSite};
use adj_hcube::share::dup_factor;
use adj_hcube::{index_round, ExecCtx, IndexRound, RoundLayout, RoundOutput, ShuffleReport};
use adj_leapfrog::{CountSplit, JoinCounters, JoinLayout, LeapfrogJoin, Sinks};
use adj_relational::{
    Attr, BoundValues, Database, Error, Levels, Morsels, OutputMode, QueryOutput, Relation, Result,
    RowBuffer, RowSink, Schema, Trie, Value, MAX_ATTRS,
};
use adj_trace::{SpanGuard, COORDINATOR_LANE};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Per-trie-level span-arg keys (`tuples_l0`, `seeks_l3`, `probes_l2`,
/// …): static tables over every level a join can have, so the worker and
/// gather spans' per-level annotations record without allocating.
macro_rules! level_keys {
    ($kind:literal) => {
        [
            concat!($kind, "_l0"),
            concat!($kind, "_l1"),
            concat!($kind, "_l2"),
            concat!($kind, "_l3"),
            concat!($kind, "_l4"),
            concat!($kind, "_l5"),
            concat!($kind, "_l6"),
            concat!($kind, "_l7"),
            concat!($kind, "_l8"),
            concat!($kind, "_l9"),
            concat!($kind, "_l10"),
            concat!($kind, "_l11"),
            concat!($kind, "_l12"),
            concat!($kind, "_l13"),
            concat!($kind, "_l14"),
            concat!($kind, "_l15"),
        ]
    };
}
const TUPLES_KEYS: [&str; MAX_ATTRS] = level_keys!("tuples");
const SEEKS_KEYS: [&str; MAX_ATTRS] = level_keys!("seeks");
const PROBES_KEYS: [&str; MAX_ATTRS] = level_keys!("probes");

/// Annotates `span` with one arg per level: `per_level[i]` under `keys[i]`.
fn level_args(span: &mut SpanGuard<'_>, keys: &[&'static str; MAX_ATTRS], per_level: &[u64]) {
    for (&key, &n) in keys.iter().zip(per_level) {
        span.arg(key, n);
    }
}

/// How often worker joins poll the cancellation token (plus the
/// fault-injection gate): once per this many rows their sinks take, and
/// once per this many bindings Leapfrog produces above the last level
/// ([`adj_leapfrog::POLL_EVERY`]), so a query with a large intermediate and
/// a small or empty result polls as often as one that emits rows.
pub const SINK_CHECK_EVERY: u64 = adj_leapfrog::POLL_EVERY;

/// Maps a fired token onto the workspace error type.
fn cancel_err(c: adj_faults::Cancelled) -> Error {
    Error::Cancelled { deadline_exceeded: c.deadline }
}

/// What a join its token stopped fails with: the token's own verdict
/// (deadline vs explicit cancel).
fn cancelled(cancel: &CancelToken) -> Error {
    cancel.check().err().map_or(Error::Cancelled { deadline_exceeded: false }, cancel_err)
}

/// Plan-search strategy (the two columns of Tables II–IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// ADJ's co-optimization of pre-computing + communication + computation.
    CoOptimize,
    /// HCubeJ's communication-first planning (never pre-computes; order
    /// chosen over all permutations).
    CommFirst,
}

/// Cost breakdown of one executed query, mirroring the columns of
/// Tables II–IV: Optimization, Pre-Computing, Communication, Computation.
#[derive(Debug, Clone, Default)]
pub struct ExecutionReport {
    /// Plan-search + sampling seconds (filled by [`crate::Adj`]).
    pub optimization_secs: f64,
    /// Pre-computing seconds (bag shuffles + bag joins).
    pub precompute_secs: f64,
    /// Final HCube seconds (modeled shuffle + measured local build).
    pub communication_secs: f64,
    /// Leapfrog seconds (measured makespan over workers).
    pub computation_secs: f64,
    /// Residual wall-clock seconds of the execution not attributed to the
    /// three in-execution phases above: binding resolution, round
    /// preparation, gather, and output shaping. Clamped at 0 — the
    /// communication phase mixes *modeled* α-seconds into a measured wall,
    /// so the identity can overshoot when the model dominates. With this
    /// residual, [`ExecutionReport::total_secs`] accounts for the whole
    /// measured execution instead of silently hiding the gap.
    pub other_secs: f64,
    /// The paper's communication cost of the final round: the tuple copies
    /// its HCube share routes for the relations this execution built
    /// (`Σ |R| · dup(R, p)`); 0 for relations the index cache served.
    pub comm_tuples: u64,
    /// The same communication cost of the pre-computing rounds, over every
    /// member relation: a bag is computed again by every execution, so its
    /// round is priced whole even when the cache served its members.
    pub precompute_tuples: u64,
    /// Result cardinality.
    pub output_tuples: u64,
    /// The share vector `p` the plan was priced under
    /// ([`QueryPlan::share`]), one share per attribute id.
    pub share: Levels<u32>,
    /// Aggregated Leapfrog counters across workers.
    pub counters: JoinCounters,
    /// Measured seconds spent building trie indexes (across the
    /// pre-compute rounds and the final round). Already included in
    /// `precompute_secs`/`communication_secs`; broken out so the serving
    /// layer can watch the index-build vs index-reuse split.
    pub index_build_secs: f64,
    /// Relations whose indexes this execution built.
    pub index_relations_built: u64,
    /// Relations served from the cross-query index cache (no build).
    pub index_relations_reused: u64,
    /// The bindings each worker produced in the final join, summed over the
    /// levels — how the morsels divided the work. A worker whose counted
    /// bags were set aside for an enumeration reads 0.
    pub worker_tuples: Vec<u64>,
    /// Attributes this execution pinned to constants (inline literals plus
    /// bound parameters); 0 on unbound executions.
    pub bound_values: u64,
}

impl ExecutionReport {
    /// Total cost in seconds (the `Total` column): the four phase columns
    /// plus the `other_secs` residual, so the sum covers the execution
    /// end-to-end.
    pub fn total_secs(&self) -> f64 {
        self.optimization_secs
            + self.precompute_secs
            + self.communication_secs
            + self.computation_secs
            + self.other_secs
    }

    /// The most bindings one worker produced — the straggler ceiling.
    pub fn max_partition_tuples(&self) -> u64 {
        self.worker_tuples.iter().copied().max().unwrap_or(0)
    }

    /// Mean bindings per worker (0 when nothing was joined).
    pub fn mean_partition_tuples(&self) -> f64 {
        if self.worker_tuples.is_empty() {
            0.0
        } else {
            self.worker_tuples.iter().sum::<u64>() as f64 / self.worker_tuples.len() as f64
        }
    }

    /// `max / mean` bindings per worker — 1.0 is perfectly balanced. 0
    /// when nothing was joined.
    pub fn partition_balance(&self) -> f64 {
        let mean = self.mean_partition_tuples();
        if mean == 0.0 {
            0.0
        } else {
            self.max_partition_tuples() as f64 / mean
        }
    }

    /// Sets [`other_secs`](Self::other_secs) to whatever the three
    /// in-execution phase columns did not claim of the wall measured since
    /// `t_exec` — see the field for why it clamps at 0.
    fn close(&mut self, t_exec: Instant) {
        self.other_secs = (t_exec.elapsed().as_secs_f64()
            - self.precompute_secs
            - self.communication_secs
            - self.computation_secs)
            .max(0.0);
    }

    /// Folds one round's index build/reuse split into the report.
    fn absorb_shuffle(&mut self, shuffle: &ShuffleReport) {
        self.index_build_secs += shuffle.build_secs;
        self.index_relations_built += shuffle.built_relations;
        self.index_relations_reused += shuffle.reused_relations;
    }
}

/// Shapes what one binding's join gathered — the rows over the plan's
/// attribute `order`, already in order (empty in the counting modes), and
/// the `found` result cardinality — into the output `mode` asks for. The
/// gathered rows are in normal form, so building the relation re-sorts
/// nothing. `LIMIT 0`'s complete answer is this over nothing gathered.
fn shape_output(
    mode: OutputMode,
    order: &[Attr],
    mut rows: Vec<Value>,
    found: u64,
) -> Result<QueryOutput> {
    match mode {
        OutputMode::Count => return Ok(QueryOutput::Count(found)),
        OutputMode::Exists => return Ok(QueryOutput::Exists(found > 0)),
        OutputMode::Rows => {}
        // The first n rows in order: a canonical sample, the same at every
        // width.
        OutputMode::Limit(n) => rows.truncate(n.saturating_mul(order.len())),
    }
    Ok(QueryOutput::Rows(Relation::from_flat(Schema::new(order.to_vec())?, rows)?))
}

/// The join's stop hook: polls the `JoinEnumerate` fault-injection site
/// and `cancel`, stopping once the token fired.
fn stop_hook(cancel: &CancelToken) -> impl Fn() -> bool + '_ {
    || {
        adj_faults::inject(FaultSite::JoinEnumerate, cancel);
        cancel.check().is_err()
    }
}

/// The slot of [`Segments`] between two segments.
const CLOSED: usize = usize::MAX;

/// One worker's sinks for every driver row it walks: the rows it keeps, cut
/// into *segments* of its one row buffer, and a tally per output *slot*.
///
/// A driver row's slot is its own for a bound call or batch, and slot 0
/// for an unbound join, whose driver rows (the first attribute's values)
/// make one output together. The walk's `sink(i)` opens row `i`'s segment
/// when its slot is not the open one's, and the claim loop closes the open
/// segment at every morsel's end, so an unbound join's segment is one
/// morsel's rows. A segment carries its row's quota: it saturates after
/// `limit` rows, and a slot whose tally passes `cap` is over budget — its
/// breaching row is tallied, not kept — and saturates. A counting sink
/// only tallies; under `Exists` (a limit of 1) a one-slot job's workers
/// share a `witness` flag, so the first witness stops every worker
/// mid-morsel.
///
/// The sinks poll the token (and the `JoinEnumerate` fault-injection site)
/// once per [`SINK_CHECK_EVERY`] rows, rows counted in bulk like as many
/// single rows, and saturate once it fired. The walk's stop hook polls
/// between bindings too and reports a binding it stopped during as
/// incomplete, so a stop here always surfaces as [`Error::Cancelled`] —
/// never as a silently truncated result.
struct Segments<'a> {
    buf: &'a mut RowBuffer,
    /// Each closed segment that kept rows: its slot and end in `buf`.
    segments: &'a mut Vec<Segment>,
    /// Per slot: the rows it took, a breaching row included.
    tally: &'a mut [u64],
    /// The last slot: every driver row past it shares it.
    last: usize,
    /// The open segment's slot; [`CLOSED`] between segments.
    slot: usize,
    /// The rows the open segment kept.
    kept: usize,
    limit: usize,
    cap: u64,
    counts: bool,
    witness: Option<&'a AtomicBool>,
    cancel: &'a CancelToken,
    unpolled: u64,
    stopped: bool,
}

impl Segments<'_> {
    /// Accounts `n` more rows, polling once per [`SINK_CHECK_EVERY`] of
    /// them; `false` once the token fired.
    fn poll(&mut self, n: u64) -> bool {
        self.unpolled += n;
        while self.unpolled >= SINK_CHECK_EVERY {
            self.unpolled -= SINK_CHECK_EVERY;
            adj_faults::inject(FaultSite::JoinEnumerate, self.cancel);
            if self.cancel.check().is_err() {
                self.stopped = true;
                return false;
            }
        }
        true
    }

    /// Closes the open segment, if any.
    fn close(&mut self) {
        if self.kept > 0 {
            self.segments.push(Segment { slot: self.slot, end: self.buf.flat().len() });
        }
        (self.slot, self.kept) = (CLOSED, 0);
    }
}

impl Sinks for Segments<'_> {
    type Sink = Self;

    #[inline]
    fn sink(&mut self, i: usize) -> &mut Self {
        let slot = i.min(self.last);
        if slot != self.slot {
            self.close();
            self.slot = slot;
        }
        self
    }
}

impl RowSink for Segments<'_> {
    fn push(&mut self, row: &[Value]) -> bool {
        if self.counts {
            return self.push_count(1);
        }
        if !self.poll(1) {
            return false;
        }
        let tally = &mut self.tally[self.slot];
        *tally += 1;
        if *tally > self.cap {
            return false;
        }
        self.buf.push(row);
        self.kept += 1;
        if let Some(flag) = self.witness {
            flag.store(true, Ordering::Relaxed);
        }
        self.kept < self.limit
    }

    fn saturated(&self) -> bool {
        self.stopped
            || self.tally[self.slot] > self.cap
            || self.kept >= self.limit
            || self.witness.is_some_and(|flag| flag.load(Ordering::Relaxed))
    }

    fn counts_only(&self) -> bool {
        self.counts
    }

    fn push_count(&mut self, n: u64) -> bool {
        self.poll(n) && {
            self.tally[self.slot] += n;
            true
        }
    }
}

/// What the workers of one join divide: `n` driver rows of the bound
/// attributes `attrs` (flat, strictly ascending) — an unbound join's
/// first-attribute values, or a bound call's or batch's sorted bindings —
/// and the outputs they make: one per driver row of a bound call or batch,
/// one for an unbound join.
#[derive(Clone, Copy)]
struct Drive<'a> {
    attrs: &'a [Attr],
    rows: &'a [Value],
    n: usize,
    slots: usize,
}

/// The tries a count by bags reads, by input index
/// ([`CountSplit::count`]).
type BagInputs<'a> = dyn Fn(usize) -> &'a Trie + Sync + 'a;

/// What every worker of one join shares besides its tries and the driver's
/// morsel cursor: the driver, the attribute order of its rows, the output
/// mode and row budget, the one-slot `Exists` flag, the token, and — for an
/// unbound count that splits — the split, the tries its bags read and its
/// own cursor.
struct MorselJob<'a> {
    drive: Drive<'a>,
    order: &'a [Attr],
    mode: OutputMode,
    budget: usize,
    witness: AtomicBool,
    cancel: &'a CancelToken,
    /// An unbound count's split, the tries its bags read, and its cursor
    /// over the first attribute's values (the driver's, so as many
    /// morsels), halted once a worker meets a separator value past the
    /// tables.
    counted: Option<(&'a CountSplit, &'a BagInputs<'a>, Morsels)>,
}

impl MorselJob<'_> {
    /// Whether the count by bags stands: the job splits and no worker met
    /// a separator value past the tables. The workers that took the other
    /// path hold nothing of the answer.
    fn by_bags(&self) -> bool {
        self.counted.as_ref().is_some_and(|(_, _, values)| !values.halted())
    }
}

/// What one worker hands the gather: the scratch its sinks filled (kept
/// until the gather read it), its counters, whether every morsel it
/// claimed ran to its end, and whether it counted by bags.
struct WorkerJoin<'p> {
    lent: Lent<'p>,
    counters: JoinCounters,
    finished: bool,
    counted: bool,
}

impl WorkerJoin<'_> {
    /// Its record of morsel `m`, if it claimed it, and where the morsel's
    /// segments begin in its segment list.
    fn claim(&self, m: usize) -> Option<(Claimed, usize)> {
        let claimed = &self.lent.claimed;
        let j = claimed.binary_search_by_key(&m, |c| c.morsel).ok()?;
        Some((claimed[j], j.checked_sub(1).map_or(0, |i| claimed[i].end)))
    }
}

/// One worker's share of a join over tries every worker shares: it claims
/// morsels of the driver from the shared cursor until none is left and
/// advances one walk over each ([`LeapfrogJoin::walk`]) into its
/// [`Segments`], recording each claim; an unbound count that splits is
/// counted by bags first, over morsels of its own, and enumerated only when
/// a worker meets a separator value past the tables.
fn walk_morsels<'p>(
    join: &LeapfrogJoin<Arc<Trie>>,
    shared: &MorselJob<'_>,
    morsels: &Morsels,
    mut lent: Lent<'p>,
) -> Result<WorkerJoin<'p>> {
    let MorselJob { drive, mode, budget, ref witness, cancel, .. } = *shared;
    let stop = stop_hook(cancel);
    let Scratch { join: scratch, rows, segments, tally, claimed, .. } = &mut *lent;
    claimed.clear();
    segments.clear();
    tally.clear();
    tally.resize(drive.slots, 0);
    if let Some((split, input, values)) = &shared.counted {
        let by_bags = split.count(input, scratch, &mut || stop(), values)?;
        if let Some(outcome) = by_bags.filter(|_| !values.halted()) {
            tally[0] = outcome.counters.output_tuples;
            let finished = outcome.completed == 1;
            let counters = outcome.counters;
            return Ok(WorkerJoin { lent, counters, finished, counted: true });
        }
    }
    let (limit, counts) = match mode {
        OutputMode::Rows => (usize::MAX, false),
        OutputMode::Limit(n) => (n, false),
        OutputMode::Count => (usize::MAX, true),
        OutputMode::Exists => (1, false),
    };
    // A job of one slot spreads it over every worker's morsels: its first
    // `limit` rows lie in the morsels up to the one where a worker holds
    // `limit`, so no later morsel is handed out, and a worker past the
    // budget stops them all. A worker then holds under `2 * limit` rows,
    // and a bound row's segment stops at its limit, so only a limit past
    // the budget needs the budget's cap.
    let cap = if mode.returns_rows() && limit > budget { budget as u64 } else { u64::MAX };
    let witness = (mode == OutputMode::Exists && drive.slots == 1).then_some(witness);
    rows.reset(join.levels(), usize::MAX, usize::MAX);
    let last = drive.slots - 1;
    let mut sinks = Segments {
        buf: rows,
        segments,
        tally,
        last,
        slot: CLOSED,
        kept: 0,
        limit,
        cap,
        counts,
        witness,
        cancel,
        unpolled: 0,
        stopped: false,
    };
    let mut walk = join.walk(drive.attrs, scratch, &stop)?;
    let mut finished = true;
    while let Some(morsel) = morsels.claim() {
        let at = Morsels::rows(morsel, drive.n);
        let reached = walk.advance(drive.rows, &mut sinks, at.start, at.end);
        sinks.close();
        if last == 0 && sinks.tally[0] > cap {
            morsels.halt();
        } else if last == 0 && sinks.buf.len() >= limit {
            morsels.stop_after(morsel);
        }
        claimed.push(Claimed { morsel, done: reached - at.start, end: sinks.segments.len() });
        if reached < at.end {
            finished = false;
            break;
        }
    }
    let counters = walk.finish();
    Ok(WorkerJoin { lent, counters, finished, counted: false })
}

/// One worker's slot of a join's run: its join, its own failure, or its
/// caught panic.
type WorkerSlot<'p> = std::result::Result<Result<WorkerJoin<'p>>, adj_cluster::WorkerFailure>;

/// The workers' joins, once none failed: the run's slots as it returned
/// them (every one holds a join), so the gather allocates no list of its
/// own.
struct Joined<'p>(Vec<WorkerSlot<'p>>);

impl<'p> Joined<'p> {
    fn iter(&self) -> impl Iterator<Item = &WorkerJoin<'p>> {
        self.0.iter().map(|slot| match slot {
            Ok(Ok(joined)) => joined,
            _ => unreachable!("every worker succeeded"),
        })
    }
}

/// Runs `join` as one claimed phase over the driver's morsels on
/// `cluster` ([`Cluster::run_claimed`]), each worker walking the morsels it
/// claims ([`walk_morsels`]) and annotating its `span_name` span; returns
/// the workers' joins, each worker's seconds and the run's makespan, or
/// the first failure — a lost worker leaves every binding incomplete.
fn run_workers<'p>(
    cluster: &Cluster,
    pool: &'p crate::ScratchPool,
    tracer: &adj_trace::Tracer,
    span_name: &'static str,
    join: &LeapfrogJoin<Arc<Trie>>,
    shared: &MorselJob<'_>,
) -> Result<(Joined<'p>, Vec<f64>, f64)> {
    let cancel = shared.cancel;
    let work = |morsels: &Morsels, span: &mut SpanGuard<'_>| -> Result<WorkerJoin<'p>> {
        // At least one fault/cancellation checkpoint per worker, then the
        // walk's stop hook around every driver row and once per
        // SINK_CHECK_EVERY bindings inside one, and one per
        // SINK_CHECK_EVERY emitted rows inside the sinks.
        adj_faults::inject(FaultSite::JoinEnumerate, cancel);
        cancel.check().map_err(cancel_err)?;
        let joined = walk_morsels(join, shared, morsels, pool.lend())?;
        if span.is_recording() {
            let c = &joined.counters;
            level_args(span, &TUPLES_KEYS, &c.tuples_per_level);
            level_args(span, &PROBES_KEYS, &c.stats.probes_per_level);
            span.arg("output_tuples", c.output_tuples);
            span.arg("intersect_ops", c.intersect_ops);
            span.arg("seeks", c.stats.total_seeks());
            span.arg("opens", c.stats.total_opens());
            span.arg("open_ats", c.stats.total_open_ats());
            span.arg("probes", c.stats.total_probes());
            span.arg("table_builds", c.stats.table_builds);
            span.arg("table_bytes", c.stats.table_bytes);
            let claimed = &joined.lent.claimed;
            span.arg("morsels", claimed.len() as u64);
            span.arg("bindings_completed", claimed.iter().map(|c| c.done as u64).sum::<u64>());
            span.arg("counted", u64::from(joined.counted));
        }
        Ok(joined)
    };
    let run = cluster.run_claimed(tracer, span_name, Morsels::count(shared.drive.n), work);
    let mut results = run.results;
    if let Some(failed) = results.iter().position(|r| !matches!(r, Ok(Ok(_)))) {
        return Err(match results.swap_remove(failed) {
            Err(panicked) => panicked.into(),
            Ok(Err(e)) => e,
            Ok(Ok(_)) => unreachable!("the worker failed"),
        });
    }
    Ok((Joined(results), run.worker_secs, run.makespan_secs))
}

/// The one gather: a join's outputs, one per slot of its driver, in slot
/// order, and how many slots completed.
///
/// A slot completed when all its driver rows did: every row, once every
/// worker ran its claims to the end (a morsel goes unclaimed then only when
/// the job's one slot had what it needed, or a count by bags claimed none);
/// otherwise the rows before the first morsel that was never claimed or
/// was cut short. A slot that did not complete carries the token's
/// verdict. A rows slot with more than the budget among its first `limit`
/// rows is over budget; any other is its segments' rows in morsel order —
/// the result's order, no merge, no sort — up to its limit. A counting
/// slot adds up its tallies.
fn gather(workers: &Joined<'_>, job: &MorselJob<'_>) -> (Vec<Result<QueryOutput>>, usize) {
    let MorselJob { drive: Drive { n, slots, .. }, order, mode, budget, cancel, .. } = *job;
    let by_bags = job.by_bags();
    let live = || workers.iter().filter(move |w| w.counted == by_bags);
    let mut completed = n;
    if !live().all(|w| w.finished) {
        completed = 0;
        for m in 0..Morsels::count(n) {
            let rows = Morsels::rows(m, n);
            let done = workers.iter().find_map(|w| w.claim(m)).map_or(0, |(claim, _)| claim.done);
            completed = rows.start + done;
            if done < rows.len() {
                break;
            }
        }
    }
    // Every worker's segments in morsel order: each one's slot and rows.
    let mut segments = (0..Morsels::count(n))
        .filter_map(|m| workers.iter().find_map(|w| Some((w, w.claim(m)?))))
        .flat_map(|(w, (claim, first))| {
            let Scratch { rows, segments, .. } = &*w.lent;
            (first..claim.end).map(move |k| {
                let start = k.checked_sub(1).map_or(0, |j| segments[j].end);
                (segments[k].slot, &rows.flat()[start..segments[k].end])
            })
        })
        .peekable();
    let limit = if let OutputMode::Limit(l) = mode { l } else { usize::MAX };
    let most = limit.saturating_mul(order.len());
    let (cancelled, over_budget) =
        (cancelled(cancel), Error::BudgetExceeded { what: "join output tuples", limit: budget });
    let mut done = 0;
    let outputs = (0..slots)
        .map(|slot| {
            // Its driver rows end where the next slot's begin.
            let end = if slot + 1 == slots { n } else { slot + 1 };
            if end > completed {
                return Err(cancelled.clone());
            }
            done += 1;
            let found: u64 = live().map(|w| w.lent.tally[slot]).sum();
            if !mode.returns_rows() {
                return shape_output(mode, order, Vec::new(), found);
            }
            if found.min(limit as u64) > budget as u64 {
                return Err(over_budget.clone());
            }
            let mut rows = Vec::with_capacity(most.min(found as usize * order.len()));
            while let Some((s, run)) = segments.next_if(|&(s, _)| s <= slot) {
                if s == slot {
                    rows.extend_from_slice(&run[..run.len().min(most - rows.len())]);
                }
            }
            shape_output(mode, order, rows, 0)
        })
        .collect();
    (outputs, done)
}

/// Executes a query plan on `adj`'s cluster, under its configuration,
/// once for every binding in `bindings`, shaping each binding's result by
/// `mode`. Returns one `Result<QueryOutput>` per binding, in input order,
/// plus the cost breakdown of the whole execution (with
/// `optimization_secs` left at 0 for the caller).
///
/// **`adj`** also lends the execution its buffers
/// ([`ScratchPool`](crate::ScratchPool)): the coordinator's driver rows and
/// trie handles and every worker's Leapfrog state, cursor stacks and row
/// buffers are borrowed for the call and handed back at its end, so a warm
/// bound call allocates little besides its answer. An `Adj` made for one
/// call lends from a fresh pool; the path is the same.
///
/// **`bindings`** are the submissions' bound values, all over one attribute
/// set ([`Error::SchemaMismatch`] otherwise): `&[BoundValues::none()]` is
/// the plain unbound query, a one-element slice a bound call, and a longer
/// one a batch. Each binding's own values take priority and the plan's
/// inline literals fill the attributes it leaves out: plans are shared
/// across a shape family (`R1(7,b)…`, `R1(9,b)…` and `R1($v,b)…` run one
/// cached plan), so the submission's values, not the plan owner's, are what
/// the execution answers for. A `$name` parameter left without a value
/// fails the whole call with [`Error::UnboundParam`]. An empty slice
/// executes nothing.
///
/// The bound values reach exactly one layer, **Leapfrog**. Everything
/// before the join runs once for the whole slice, as for the unbound
/// query: the bag rounds and the index round never see a binding, so
/// every binding of a shape, any batch of them and the plain query join
/// over one cached, patchable index family. The join runs over
/// one trie per relation that every worker shares, and the workers divide
/// its **driver** in morsels of [`MORSEL_ROWS`](adj_relational::MORSEL_ROWS)
/// rows claimed from one atomic cursor ([`Morsels`]), each worker
/// advancing one walk ([`LeapfrogJoin::walk`]) over the morsels it claims.
/// A bound call's or batch's driver is its bindings, projected onto the
/// bound levels of the plan's order and sorted; bound-prefix cursors gallop
/// forward from one binding to the next. Bindings that project onto one
/// driver row (duplicates, or bindings that differ only in an attribute
/// the order lacks) execute once and share its output. An unbound join's
/// driver is its first attribute's values, taken from the shortest root
/// run among the relations that hold it. A driver that fits one morsel runs
/// on the calling thread, at any width. Results are byte-identical to
/// running the unbound query and keeping the rows whose bound attributes
/// equal each binding's values, and the same at every width.
///
/// Every worker walks its morsels into one sink set (`Segments`): a
/// driver row's output slot is its own for a bound call or batch, slot 0
/// for an unbound join, and each row's rows are a segment of the worker's
/// one row buffer. The gather assembles each output from its segments in
/// morsel order, which is the result's order: no merge, no sort. The mode
/// sets each segment's quota:
///
/// * [`OutputMode::Rows`] — every row, under the `max_intermediate_tuples`
///   budget per output;
/// * [`OutputMode::Count`] — nothing kept: a slot's tallies are its count,
///   and no result tuple is ever materialized or gathered (Leapfrog counts
///   the last level by intersection size). An
///   unbound count whose relations split around two attributes
///   ([`QueryPlan::count_split`]) is not enumerated at all: the workers
///   divide the order's first attribute's values in morsels, walk each bag
///   of the split through the same traversal, counting its rows into a
///   dense table keyed by the separator, and add the tables' dot product
///   per value. The relations a bag reads under an order of its own get
///   index entries of their own. A worker that meets a separator value past
///   the tables stops every worker's count, and the join is enumerated;
/// * [`OutputMode::Limit`]`(n)` — exactly the first `n` rows of `Rows`:
///   each segment stops after `n` rows, and for an unbound join no morsel
///   past the one where a worker holds `n` rows is handed out;
/// * [`OutputMode::Exists`] — a segment stops at its first row; for an
///   unbound join the first witness any worker finds stops every worker.
///
/// The outer `Err` is a whole-call failure (unbound parameter, conflicting
/// constants, index build failure, worker panic); a binding's own failure
/// (an over-budget result, a cancellation) is its slot's `Err`.
///
/// **`ctx.index`**: warm database relations join over the cache's
/// `Arc<Trie>` handles (skipping their sort + build), and cold ones are
/// built once and published. Pre-computed bags are computed again by every
/// execution and never published. `None` runs fully cold.
///
/// **`ctx.cancel`** is polled at every fault-injection checkpoint of the
/// execution — per cold relation and every few thousand rows a build reads,
/// per worker, between driver rows and every `SINK_CHECK_EVERY` (1024)
/// bindings above the last level or emitted rows during join enumeration —
/// so a fired token (explicit cancel or elapsed deadline) aborts within a
/// bounded amount of work. Before the join that fails the call with
/// [`Error::Cancelled`]; during it, the bindings of the longest prefix of
/// completed driver rows keep their results and the rest carry
/// [`Error::Cancelled`]. A cancelled execution never publishes partial
/// tries: the index round checks the token before inserting into the
/// index cache. Worker panics are isolated per slot
/// ([`adj_cluster::WorkerFailure`]) and surface as
/// [`Error::WorkerPanicked`].
///
/// **`ctx.tracer`** records a `precompute` span per bag round, the index
/// round's own spans (see [`index_round`]), a
/// `computation` span over the worker dispatch with one `join` span per
/// worker lane (annotated with that worker's per-level tuples and probes,
/// output tuples, trie-operation counts, dance gallops, table probes,
/// value-table builds, morsels and completed bindings), and a `gather` span
/// over the assembly and the shaping of the outputs (per-level tuples,
/// seeks and probes, binding counts and output tuples).
pub fn execute_plan(
    adj: &Adj,
    db: &Database,
    plan: &QueryPlan,
    mode: OutputMode,
    bindings: &[BoundValues],
    ctx: &ExecCtx<'_>,
) -> Result<(Vec<Result<QueryOutput>>, ExecutionReport)> {
    let t_exec = Instant::now();
    let (cluster, config, pool) = (adj.cluster(), adj.config(), adj.scratch());
    let (cancel, tracer) = (&ctx.cancel, &ctx.tracer);
    let mut report = ExecutionReport { share: plan.share, ..Default::default() };
    let Some(first) = bindings.first() else {
        return Ok((Vec::new(), report));
    };
    if let Some(odd) = bindings.iter().find(|b| !b.attrs().eq(first.attrs())) {
        return Err(Error::SchemaMismatch {
            left: format!("bindings bind {:?}", first.attrs().collect::<Vec<_>>()),
            right: format!("a binding binds {:?}", odd.attrs().collect::<Vec<_>>()),
        });
    }
    // Every binding binds `first`'s attributes, so which attributes are
    // pinned — and whether a parameter is left unbound — is decided on
    // `first` together with the plan's literals (which never conflict: a
    // literal only fills an attribute the binding leaves out).
    let consts = plan.query.const_bindings()?;
    let value = |b: &BoundValues, a: Attr| b.get(a).or_else(|| consts.get(a));
    plan.query.require_params_bound(|a| value(first, a).is_some())?;
    let literals_only = consts.attrs().filter(|&a| first.get(a).is_none()).count();
    report.bound_values = (first.len() + literals_only) as u64;

    // `LIMIT 0` is a complete answer by definition: the empty relation over
    // the plan's schema. Short-circuit before any admission-charged work —
    // no index round, no worker dispatch.
    if mode == OutputMode::Limit(0) {
        let empty = shape_output(mode, &plan.order, Vec::new(), 0)?;
        report.close(t_exec);
        return Ok((vec![Ok(empty); bindings.len()], report));
    }

    // An unbound count whose join splits is counted by bags over the
    // round's tries plus the reordered ones.
    let unbound = !plan.order.iter().any(|&a| value(first, a).is_some());
    let by_bags = mode == OutputMode::Count && unbound;
    let (round, indexed, reordered) = prepare_round(adj, db, plan, by_bags, &mut report, ctx)?;

    // The driver rows the workers divide. Bound: each binding's values on
    // the bound levels of the plan's order (every binding has a value on
    // each), flat, ascending and distinct. Bound attributes outside the
    // order touch no relation of this plan and are ignored. Bindings that
    // arrive in that order — one binding, the batch door's uniques — are
    // the rows as they are; others are sorted and deduplicated, `row_of[j]`
    // naming binding `j`'s row. The rows and the join's trie handles live
    // in the coordinator's lent scratch. Unbound: the first attribute's
    // values, read from the tries in place.
    let mut coordinator = pool.lend();
    let Scratch { bound_attrs, driver_rows, row_of, tries, .. } = &mut *coordinator;
    bound_attrs.clear();
    bound_attrs.extend(plan.order.iter().copied().filter(|&a| value(first, a).is_some()));
    driver_rows.clear();
    row_of.clear();
    let bound_attrs = bound_attrs.as_slice();
    let key = |j: usize| bound_attrs.iter().map(move |&a| value(&bindings[j], a));
    let mut n_rows = bindings.len();
    if unbound {
        // The driver is read off the join's tries below; every binding
        // shares the one output.
        if bindings.len() > 1 {
            row_of.resize(bindings.len(), 0);
            n_rows = 1;
        }
    } else if (1..bindings.len()).all(|j| key(j - 1).lt(key(j))) {
        driver_rows.extend((0..bindings.len()).flat_map(key).flatten());
    } else {
        let mut by_key: Vec<usize> = (0..bindings.len()).collect();
        by_key.sort_by(|&x, &y| key(x).cmp(key(y)));
        row_of.resize(bindings.len(), 0);
        n_rows = 0;
        for (i, &j) in by_key.iter().enumerate() {
            if i == 0 || key(j).ne(key(by_key[i - 1])) {
                driver_rows.extend(key(j).flatten());
                n_rows += 1;
            }
            row_of[j] = n_rows - 1;
        }
    }
    tries.extend(indexed.tries.iter().cloned());
    let join = LeapfrogJoin::with_layout(Arc::clone(&round.join), std::mem::take(tries))?;
    let drive = match unbound {
        true => {
            let values = join.first_values();
            Drive { attrs: &plan.order[..1], rows: values, n: values.len(), slots: 1 }
        }
        false => Drive { attrs: bound_attrs, rows: driver_rows, n: n_rows, slots: n_rows },
    };

    // The counted path reads the round's tries and the reordered ones
    // after them.
    let n_indexed = indexed.tries.len();
    let input = |i: usize| -> &Trie {
        match i.checked_sub(n_indexed) {
            None => &indexed.tries[i],
            Some(j) => &reordered.as_ref().expect("a counted round").tries[j],
        }
    };
    let split = round.counted.as_ref().map(|c| &c.split).filter(|_| reordered.is_some());
    let job = MorselJob {
        drive,
        order: &plan.order,
        mode,
        budget: config.max_intermediate_tuples,
        witness: AtomicBool::new(false),
        cancel,
        counted: split
            .map(|split| (split, &input as &BagInputs<'_>, Morsels::new(Morsels::count(drive.n)))),
    };
    let mut computation_span = tracer.span(COORDINATOR_LANE, "computation");
    if computation_span.is_recording() {
        computation_span.arg("counted", u64::from(split.is_some()));
    }
    let joined = run_workers(cluster, pool, tracer, "join", &join, &job);
    drop(computation_span);
    let (workers, worker_secs, makespan) = joined?;
    report.computation_secs = makespan;

    // Gather. A count by bags stands unless a worker met a separator value
    // past the tables; then the workers that enumerated hold the answer.
    let mut gather_span = tracer.span(COORDINATOR_LANE, "gather");
    let by_bags = job.by_bags();
    let mut counters = JoinCounters::new(plan.order.len());
    // The per-worker bindings take the per-worker seconds' buffer.
    report.worker_tuples = worker_secs.into_iter().map(|_| 0).collect();
    for (w, bindings) in workers.iter().zip(&mut report.worker_tuples) {
        if w.counted == by_bags {
            *bindings = w.counters.tuples_per_level.iter().sum();
            counters.merge(&w.counters);
        }
    }
    let (mut outputs, completed) = gather(&workers, &job);
    drop(workers);
    // The handles go back with the coordinator's scratch, which empties
    // them.
    coordinator.tries = join.into_tries();
    if gather_span.is_recording() {
        level_args(&mut gather_span, &TUPLES_KEYS, &counters.tuples_per_level);
        level_args(&mut gather_span, &SEEKS_KEYS, &counters.stats.seeks_per_level);
        level_args(&mut gather_span, &PROBES_KEYS, &counters.stats.probes_per_level);
        gather_span.arg("bindings", bindings.len() as u64);
        gather_span.arg("unique_bindings", n_rows as u64);
        gather_span.arg("bindings_completed", completed as u64);
        gather_span.arg("output_tuples", counters.output_tuples);
    }
    drop(gather_span);
    report.output_tuples = counters.output_tuples;
    report.counters = counters;

    // Hand each binding its row's output. Bindings that arrived as their
    // rows keep the outputs as they are; otherwise each output moves to its
    // binding, or is cloned to every binding when some bindings collapsed
    // onto one row.
    let row_of = &coordinator.row_of;
    if !row_of.is_empty() {
        let collapsed = n_rows < bindings.len();
        let mut rows: Vec<Option<Result<QueryOutput>>> = outputs.into_iter().map(Some).collect();
        outputs = row_of
            .iter()
            .map(|&r| {
                let out = if collapsed { rows[r].clone() } else { rows[r].take() };
                out.expect("a row's output is moved out once")
            })
            .collect();
    }
    report.close(t_exec);
    Ok((outputs, report))
}

/// Phases 1–2 of plan execution: pre-computes the plan's bag relations and
/// resolves the final round's indexes, returning the final round and every
/// relation's trie, ready for Leapfrog — and, for a count `by_bags` over a
/// round that splits, the tries of the relations its bags read under orders
/// of their own. The pre-compute and communication columns (plus cache
/// counters) accumulate into `report`.
///
/// Nothing here depends on a binding: the tries are the same warm,
/// cacheable tries whichever constants the join over them will seek.
fn prepare_round(
    adj: &Adj,
    db: &Database,
    plan: &QueryPlan,
    by_bags: bool,
    report: &mut ExecutionReport,
    ctx: &ExecCtx<'_>,
) -> Result<(Arc<Round>, RoundOutput, Option<RoundOutput>)> {
    let cluster = adj.cluster();
    // ── Phase 1: pre-compute candidate relations (Sec. III: "for each
    // relation R'_j ∈ Qi that needs to be joined, we pre-compute and store
    // it"). Per-query pre-computed bags are layered over the shared
    // database as an overlay of `Arc<Relation>` handles — the database
    // itself is never cloned per query.
    let mut bag_overlay: Vec<(String, Arc<Relation>)> = Vec::new();
    for rel in &plan.relations {
        let PlanRelation::Precomputed { name, atoms, .. } = rel else {
            continue;
        };
        let bag = precompute_bag(adj, db, plan, atoms, report, ctx)?;
        bag_overlay.push((name.clone(), bag));
    }

    // ── Phase 2 + 3: final one-round join over the rewritten query. Its
    // base relations are keyed in the index cache; the bags in the overlay
    // are not.
    let names = plan.relations.iter().map(|r| r.name(&plan.query));
    let round = round_for(plan, db, names, &bag_overlay, &plan.order, ctx)?;
    let index = IndexRound { layout: &round.layout, share: &plan.share, overlay: &bag_overlay };
    let indexed = index_round(cluster, db, &index, ctx)?;
    report.comm_tuples = indexed.report.tuples;
    report.communication_secs = indexed.report.comm_and_build_secs();
    report.absorb_shuffle(&indexed.report);
    // A count by bags also reads the relations its bags take in orders of
    // their own: index entries of their own, cached and patched like every
    // other.
    let reordered = match &round.counted {
        Some(CountedRound { reordered, .. }) if by_bags => {
            let out = if reordered.relations().len() == 0 {
                RoundOutput { tries: Vec::new(), report: ShuffleReport::default() }
            } else {
                index_round(cluster, db, &IndexRound { layout: reordered, ..index }, ctx)?
            };
            report.comm_tuples += out.report.tuples;
            report.communication_secs += out.report.comm_and_build_secs();
            report.absorb_shuffle(&out.report);
            Some(out)
        }
        _ => None,
    };
    Ok((round, indexed, reordered))
}

/// One bag of phase 1, computed by a round and a join of its own over the
/// member atoms. The round consults the index cache (bag members are base
/// relations, so their tries are shared with every other query touching
/// them); the bag itself is this execution's. Pre-compute seconds and
/// tuples and the index build/reuse split accumulate into `report`.
fn precompute_bag(
    adj: &Adj,
    db: &Database,
    plan: &QueryPlan,
    atoms: &[usize],
    report: &mut ExecutionReport,
    ctx: &ExecCtx<'_>,
) -> Result<Arc<Relation>> {
    let (cluster, pool, tracer) = (adj.cluster(), adj.scratch(), &ctx.tracer);
    let budget = adj.config().max_intermediate_tuples;
    let order: Vec<Attr> = plan
        .order
        .iter()
        .copied()
        .filter(|a| atoms.iter().any(|&i| plan.query.atoms[i].schema.contains(*a)))
        .collect();
    let names: Vec<&str> = atoms.iter().map(|&i| plan.query.atoms[i].name.as_str()).collect();
    // Bag members are base atoms, so the round runs over `db` directly.
    let mut bag_span = tracer.span(COORDINATOR_LANE, "precompute");
    if bag_span.is_recording() {
        bag_span.detail(names.join(","));
    }
    let round = round_for(plan, db, names.iter().copied(), &[], &order, ctx)?;
    let index = IndexRound { layout: &round.layout, share: &plan.share, overlay: &[] };
    let indexed = index_round(cluster, db, &index, ctx)?;
    report.absorb_shuffle(&indexed.report);
    // The bag is computed again by every execution, so its round is priced
    // whole: what the plan's share routes for every member, warm or cold.
    let induced = round.layout.induced_schemas();
    let tuples: u64 = (indexed.tries.iter().zip(induced))
        .map(|(trie, schema)| trie.tuples() as u64 * dup_factor(&plan.share, schema.mask()))
        .sum();
    let join = LeapfrogJoin::with_layout(Arc::clone(&round.join), indexed.tries)?;
    let values = join.first_values();
    let job = MorselJob {
        drive: Drive { attrs: &order[..1], rows: values, n: values.len(), slots: 1 },
        order: &order,
        mode: OutputMode::Rows,
        budget,
        witness: AtomicBool::new(false),
        cancel: &ctx.cancel,
        counted: None,
    };
    let (workers, _, makespan) = run_workers(cluster, pool, tracer, "bag_join", &join, &job)?;
    let (mut outputs, _) = gather(&workers, &job);
    drop(workers);
    let result = match outputs.pop().expect("one output") {
        Err(Error::BudgetExceeded { what: "join output tuples", limit }) => {
            return Err(Error::BudgetExceeded { what: "bag join output", limit })
        }
        output => output?.into_rows().expect("a Rows output"),
    };
    bag_span.arg("tuples", tuples);
    bag_span.arg("result_tuples", result.len() as u64);
    drop(bag_span);
    // The round's modeled communication and build, plus the measured bag
    // join on top.
    report.precompute_secs += indexed.report.comm_and_build_secs() + makespan;
    report.precompute_tuples += tuples;
    Ok(Arc::new(result))
}

/// The round over the relations `names` (each resolved in `overlay`
/// before the database) as tries in the orders `order` induces, as the
/// plan's executions prepared it: the relations' layout and index keys
/// under `ctx`'s scope, and the join's layout.
///
/// A warm execution finds its round kept in the plan's round memo and
/// builds nothing: the check reads the relations' names and delta
/// sequences in place. A round whose scope moved on is keyed again.
fn round_for<'a>(
    plan: &QueryPlan,
    db: &Database,
    names: impl ExactSizeIterator<Item = &'a str> + Clone,
    overlay: &[(String, Arc<Relation>)],
    order: &[Attr],
    ctx: &ExecCtx<'_>,
) -> Result<Arc<Round>> {
    let kept = plan
        .rounds
        .find(|r| r.layout.same_relations(names.clone()) && r.layout.stamped_for(ctx.index));
    if let Some(round) = kept {
        return Ok(round);
    }
    let names: Vec<String> = names.map(str::to_string).collect();
    let layout = RoundLayout::new(db, overlay, &names, order, ctx.index)?;
    let join = Arc::new(JoinLayout::new(order, layout.induced_schemas())?);
    let counted = match CountSplit::new(order, layout.induced_schemas()) {
        Some(split) => {
            let reordered = layout.reordered(db, overlay, split.reindexed(), ctx.index)?;
            Some(CountedRound { split, reordered })
        }
        None => None,
    };
    let round = Arc::new(Round { layout, join, counted });
    plan.rounds.keep(Arc::clone(&round));
    Ok(round)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::optimize;
    use crate::AdjConfig;
    use adj_cluster::ClusterConfig;
    use adj_hcube::{IndexCache, IndexScope};
    use adj_query::{paper_query, PaperQuery};

    fn db_for(q: &adj_query::JoinQuery, n: u32, m: u32) -> Database {
        let edges: Vec<(Value, Value)> = (0..n)
            .flat_map(|i| vec![(i % m, (i * 7 + 1) % m), ((i * 3) % m, (i * 11 + 5) % m)])
            .collect();
        q.instantiate(&Relation::from_pairs(Attr(0), Attr(1), &edges))
    }

    /// The unbound execution under `ctx` by a fresh `Adj` of `cfg`, its
    /// one slot unwrapped.
    fn run_ctx(
        db: &Database,
        plan: &QueryPlan,
        cfg: &AdjConfig,
        mode: OutputMode,
        ctx: &ExecCtx<'_>,
    ) -> Result<(QueryOutput, ExecutionReport)> {
        let adj = Adj::new(cfg.clone());
        let (mut outs, report) = execute_plan(&adj, db, plan, mode, &[BoundValues::none()], ctx)?;
        assert_eq!(outs.len(), 1, "one output per binding");
        Ok((outs.pop().unwrap()?, report))
    }

    /// The cold, unbound execution.
    fn run(
        db: &Database,
        plan: &QueryPlan,
        cfg: &AdjConfig,
        mode: OutputMode,
    ) -> Result<(QueryOutput, ExecutionReport)> {
        run_ctx(db, plan, cfg, mode, &ExecCtx::default())
    }

    /// The unbound execution under an index-cache scope.
    fn run_in(
        db: &Database,
        plan: &QueryPlan,
        cfg: &AdjConfig,
        mode: OutputMode,
        scope: &IndexScope<'_>,
    ) -> Result<(QueryOutput, ExecutionReport)> {
        run_ctx(db, plan, cfg, mode, &ExecCtx { index: Some(scope), ..Default::default() })
    }

    fn truth(db: &Database, q: &adj_query::JoinQuery) -> Relation {
        let mut it = q.atoms.iter();
        let first = it.next().unwrap();
        let mut acc = db.get(&first.name).unwrap().clone();
        for atom in it {
            acc = acc.join(db.get(&atom.name).unwrap()).unwrap();
        }
        acc
    }

    #[test]
    fn q5_coopt_result_matches_binary_join_truth() {
        let q = paper_query(PaperQuery::Q5);
        let db = db_for(&q, 120, 29);
        let cfg = AdjConfig { cluster: ClusterConfig::with_workers(4), ..Default::default() };
        let plan = optimize(&q, &db, &cfg, Strategy::CoOptimize).unwrap();
        let (out, report) = run(&db, &plan, &cfg, OutputMode::Rows).unwrap();
        let result = out.rows();
        let t = truth(&db, &q);
        assert_eq!(result.len(), t.len());
        assert_eq!(result.permute(t.schema().attrs()).unwrap(), t);
        assert_eq!(report.output_tuples as usize, t.len());
    }

    #[test]
    fn default_ctx_is_the_cold_unbound_execution() {
        // `ExecCtx::default()` must be the plain cold executor: against the
        // binary-join truth byte for byte, and indistinguishable (output and
        // every count in the report) from the same plan run with all three
        // context members armed but idle.
        const MODES: [OutputMode; 4] =
            [OutputMode::Rows, OutputMode::Count, OutputMode::Exists, OutputMode::Limit(5)];
        for pq in [PaperQuery::Q1, PaperQuery::Q4] {
            let q = paper_query(pq);
            let db = db_for(&q, 150, 31);
            let cfg = AdjConfig { cluster: ClusterConfig::with_workers(4), ..Default::default() };
            let plan = optimize(&q, &db, &cfg, Strategy::CommFirst).unwrap();
            let full = truth(&db, &q).permute(&plan.order).unwrap();
            for mode in MODES {
                let (out, rep) = run(&db, &plan, &cfg, mode).unwrap();
                let expect = match mode {
                    OutputMode::Rows => QueryOutput::Rows(full.clone()),
                    OutputMode::Count => QueryOutput::Count(full.len() as u64),
                    OutputMode::Exists => QueryOutput::Exists(!full.is_empty()),
                    OutputMode::Limit(n) => {
                        let flat = full.flat()[..n.min(full.len()) * plan.order.len()].to_vec();
                        QueryOutput::Rows(Relation::from_flat(full.schema().clone(), flat).unwrap())
                    }
                };
                assert_eq!(out, expect, "{pq:?} {mode:?}");
                assert!(rep.index_relations_built > 0 && rep.index_relations_reused == 0);

                let cache = IndexCache::new(0); // a scope that caches nothing
                let scope = IndexScope { cache: &cache, db_tag: 1, epoch: 0, versions: &[] };
                let armed = ExecCtx {
                    index: Some(&scope),
                    cancel: CancelToken::manual(),
                    tracer: adj_trace::Tracer::new(1024),
                    ..Default::default()
                };
                let (same, arep) = run_ctx(&db, &plan, &cfg, mode, &armed).unwrap();
                assert_eq!(same, out, "{pq:?} {mode:?}: an idle context changed the answer");
                assert_eq!(
                    (arep.comm_tuples, arep.output_tuples, arep.index_relations_built, &arep.share),
                    (rep.comm_tuples, rep.output_tuples, rep.index_relations_built, &rep.share),
                );
                assert_eq!(arep.counters.intersect_ops, rep.counters.intersect_ops);
            }
        }
    }

    #[test]
    fn q5_modes_agree_with_rows() {
        let q = paper_query(PaperQuery::Q5);
        let db = db_for(&q, 120, 29);
        let cfg = AdjConfig { cluster: ClusterConfig::with_workers(4), ..Default::default() };
        let plan = optimize(&q, &db, &cfg, Strategy::CoOptimize).unwrap();
        let (rows, _) = run(&db, &plan, &cfg, OutputMode::Rows).unwrap();
        let full = rows.rows();

        let (count, crep) = run(&db, &plan, &cfg, OutputMode::Count).unwrap();
        assert_eq!(count, QueryOutput::Count(full.len() as u64));
        assert_eq!(crep.output_tuples as usize, full.len());

        let (exists, _) = run(&db, &plan, &cfg, OutputMode::Exists).unwrap();
        assert_eq!(exists, QueryOutput::Exists(!full.is_empty()));

        let n = 5usize;
        let (limited, _) = run(&db, &plan, &cfg, OutputMode::Limit(n)).unwrap();
        let sample = limited.rows();
        assert_eq!(sample.len(), n.min(full.len()));
        for row in sample.rows() {
            assert!(full.contains_row(row), "limit rows must be a subset of the full result");
        }
    }

    #[test]
    fn precompute_phase_populates_report() {
        // Force pre-computation by building a plan with every multi-edge bag
        // chosen.
        let q = paper_query(PaperQuery::Q4);
        let db = db_for(&q, 150, 31);
        let cfg = AdjConfig { cluster: ClusterConfig::with_workers(4), ..Default::default() };
        let mut plan = optimize(&q, &db, &cfg, Strategy::CommFirst).unwrap();
        let c_mask: u64 = plan
            .tree
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| !n.is_single_edge())
            .map(|(i, _)| 1u64 << i)
            .sum();
        assert!(c_mask != 0, "Q4 tree must contain a multi-edge bag");
        plan.relations = QueryPlan::relations_for(&q, &plan.tree, c_mask);
        plan.precompute = (0..plan.tree.len()).filter(|v| c_mask & (1 << v) != 0).collect();
        // order must remain valid for the tree — keep the CommFirst order
        // only if valid, otherwise derive the canonical ascending one.
        if !adj_query::order::is_valid_order(&plan.tree, &plan.order) {
            plan.order = adj_query::order::valid_orders(&plan.tree)[0].clone();
        }
        let (out, report) = run(&db, &plan, &cfg, OutputMode::Rows).unwrap();
        assert!(report.precompute_secs > 0.0);
        assert!(report.precompute_tuples > 0);
        let t = truth(&db, &q);
        assert_eq!(out.rows().len(), t.len());

        // A second execution runs every round again, under the same share.
        let (again, rerun) = run(&db, &plan, &cfg, OutputMode::Rows).unwrap();
        assert_eq!(rerun.precompute_tuples, report.precompute_tuples, "the bag rounds ran");
        assert_eq!((rerun.share, report.share), (plan.share, plan.share));
        assert_eq!(again, out);
    }

    #[test]
    fn warm_precompute_recomputes_bags_over_cached_tries() {
        // Force pre-computation (as precompute_phase_populates_report does):
        // a warm execution computes its bag again, reading the members from
        // the cache, and builds only the bag's own trie.
        let q = paper_query(PaperQuery::Q4);
        let db = db_for(&q, 150, 31);
        let cfg = AdjConfig { cluster: ClusterConfig::with_workers(4), ..Default::default() };
        let mut plan = optimize(&q, &db, &cfg, Strategy::CommFirst).unwrap();
        let c_mask: u64 = plan
            .tree
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| !n.is_single_edge())
            .map(|(i, _)| 1u64 << i)
            .sum();
        plan.relations = QueryPlan::relations_for(&q, &plan.tree, c_mask);
        plan.precompute = (0..plan.tree.len()).filter(|v| c_mask & (1 << v) != 0).collect();
        if !adj_query::order::is_valid_order(&plan.tree, &plan.order) {
            plan.order = adj_query::order::valid_orders(&plan.tree)[0].clone();
        }
        let bags = plan.relations.iter().filter(|r| matches!(r, PlanRelation::Precomputed { .. }));
        let bags = bags.count() as u64;
        assert!(bags > 0);

        let cache = IndexCache::new(64 << 20);
        let scope = IndexScope { cache: &cache, db_tag: 9, epoch: 0, versions: &[] };
        let (cold_out, cold_rep) = run_in(&db, &plan, &cfg, OutputMode::Rows, &scope).unwrap();
        assert!(cold_rep.precompute_tuples > 0);
        assert!(cold_rep.index_relations_built > bags);

        let (warm_out, warm_rep) = run_in(&db, &plan, &cfg, OutputMode::Rows, &scope).unwrap();
        assert_eq!(warm_out, cold_out, "byte-identical outputs");
        assert_eq!(
            warm_rep.precompute_tuples, cold_rep.precompute_tuples,
            "the bag was recomputed"
        );
        assert!(warm_rep.index_relations_reused > 0, "the bag's members come from the cache");
        assert_eq!(warm_rep.index_relations_built, bags, "only the pre-computed relations build");
        assert!(
            cache.store().find(|k, _| k.relation.starts_with("ADJ_bag")).is_none(),
            "a pre-computed bag is never keyed"
        );
        cache.store().check(|epoch| epoch == 0, true).unwrap();

        // The cold path's budget check holds for a bag over the cap.
        let tiny = AdjConfig { max_intermediate_tuples: 1, ..cfg.clone() };
        let err = run_in(&db, &plan, &tiny, OutputMode::Count, &scope).unwrap_err();
        assert!(matches!(err, Error::BudgetExceeded { .. }));
    }

    #[test]
    fn per_relation_versions_invalidate_only_the_mutated_relation() {
        let q = paper_query(PaperQuery::Q1);
        let db = db_for(&q, 150, 23);
        let cfg = AdjConfig { cluster: ClusterConfig::with_workers(4), ..Default::default() };
        let plan = optimize(&q, &db, &cfg, Strategy::CommFirst).unwrap();
        let cache = IndexCache::new(64 << 20);
        let scope = IndexScope { cache: &cache, db_tag: 9, epoch: 0, versions: &[] };
        let (_, cold) = run_in(&db, &plan, &cfg, OutputMode::Count, &scope).unwrap();
        let atoms = cold.index_relations_built;
        assert!(atoms > 0);

        // Bump one relation's sequence: only its entry misses, the others
        // stay warm (the old epoch-bump design rebuilt everything).
        let name = q.atoms[0].name.clone();
        let versions = vec![(name, 1u64)];
        let bumped = IndexScope { cache: &cache, db_tag: 9, epoch: 0, versions: &versions };
        let (_, rep) = run_in(&db, &plan, &cfg, OutputMode::Count, &bumped).unwrap();
        assert_eq!(rep.index_relations_built, 1, "only the mutated relation rebuilds");
        assert_eq!(rep.index_relations_reused, atoms - 1);
    }

    #[test]
    fn budget_exceeded_on_tiny_cap() {
        let q = paper_query(PaperQuery::Q1);
        let db = db_for(&q, 200, 23);
        let cfg = AdjConfig {
            cluster: ClusterConfig::with_workers(2),
            max_intermediate_tuples: 1,
            ..Default::default()
        };
        let plan = optimize(&q, &db, &cfg, Strategy::CommFirst).unwrap();
        let err = run(&db, &plan, &cfg, OutputMode::Rows).unwrap_err();
        assert!(matches!(err, Error::BudgetExceeded { .. }));
        // Count mode never buffers rows, so the same tiny cap passes.
        let (out, _) = run(&db, &plan, &cfg, OutputMode::Count).unwrap();
        assert!(matches!(out, QueryOutput::Count(_)));
    }

    #[test]
    fn round_for_keeps_the_round_and_rekeys_a_moved_scope() {
        let q = paper_query(PaperQuery::Q1);
        let db = db_for(&q, 100, 23);
        let cfg = AdjConfig { cluster: ClusterConfig::with_workers(8), ..Default::default() };
        let plan = optimize(&q, &db, &cfg, Strategy::CommFirst).unwrap();
        let names = || plan.relations.iter().map(|r| r.name(&plan.query));
        let round_in = |ctx: &ExecCtx<'_>| round_for(&plan, &db, names(), &[], &plan.order, ctx);
        let cold = ExecCtx::default();
        let round = round_in(&cold).unwrap();
        assert!(round.layout.same_relations(names()));
        // The same round again is the kept one: nothing built.
        let again = round_in(&cold).unwrap();
        assert!(Arc::ptr_eq(&round, &again), "the kept round, not a new one");
        // Under an index scope the round is keyed; a mutated relation moves
        // the scope on, and the round is keyed again.
        let cache = IndexCache::new(1 << 20);
        let scope = IndexScope { cache: &cache, db_tag: 1, epoch: 0, versions: &[] };
        let scoped = ExecCtx { index: Some(&scope), ..Default::default() };
        let keyed = round_in(&scoped).unwrap();
        assert!(!Arc::ptr_eq(&round, &keyed));
        let kept = round_in(&scoped).unwrap();
        assert!(Arc::ptr_eq(&keyed, &kept), "a warm round builds no keys");
        let versions = vec![("R1".to_string(), 1)];
        let moved = IndexScope { versions: &versions, ..scope };
        let mutated = ExecCtx { index: Some(&moved), ..Default::default() };
        let rekeyed = round_in(&mutated).unwrap();
        assert!(!Arc::ptr_eq(&keyed, &rekeyed));
        assert!(
            rekeyed.layout.stamped_for(Some(&moved)) && !rekeyed.layout.stamped_for(Some(&scope))
        );
    }

    /// Triangle with a parameterized apex: `$v` binds attribute 0.
    fn apex_setup() -> (crate::Adj, Database, QueryPlan, Attr) {
        let (q, _) = adj_query::parse_query("R1($v, b), R2(b, c), R3(c, $v)").unwrap();
        let db = db_for(&q, 300, 37);
        let adj = crate::Adj::with_workers(4);
        let plan = optimize(&q, &db, adj.config(), Strategy::CoOptimize).unwrap();
        let attr = plan.query.param_attrs()[0].1;
        (adj, db, plan, attr)
    }

    fn apex(attr: Attr, v: Value) -> BoundValues {
        BoundValues::new(vec![(attr, v)]).unwrap()
    }

    /// `execute_plan` over `bindings`, cold.
    fn run_many(
        adj: &crate::Adj,
        db: &Database,
        plan: &QueryPlan,
        mode: OutputMode,
        bindings: &[BoundValues],
        ctx: &ExecCtx<'_>,
    ) -> Result<(Vec<Result<QueryOutput>>, ExecutionReport)> {
        execute_plan(adj, db, plan, mode, bindings, ctx)
    }

    #[test]
    fn batch_matches_looped_bound_execution() {
        // N bindings in one call against N one-binding calls, and both
        // against the unbound rows filtered on the apex column.
        let (adj, db, plan, attr) = apex_setup();
        let col = plan.order.iter().position(|&a| a == attr).unwrap();
        let full = truth(&db, &plan.query).permute(&plan.order).unwrap();
        let values: Vec<Value> = (0..37).map(|i| (i * 13 + 5) % 37).collect();
        let bindings: Vec<BoundValues> = values.iter().map(|&v| apex(attr, v)).collect();
        let ctx = ExecCtx::default();
        for mode in [OutputMode::Rows, OutputMode::Count, OutputMode::Exists, OutputMode::Limit(3)]
        {
            let (outs, _) = run_many(&adj, &db, &plan, mode, &bindings, &ctx).unwrap();
            assert_eq!(outs.len(), values.len());
            for ((&v, b), out) in values.iter().zip(&bindings).zip(&outs) {
                let (one, _) = adj.execute_plan(&plan, &db, mode, b, &ctx).unwrap();
                assert_eq!(out.as_ref().unwrap(), &one, "binding {v} under {mode:?}");
                let flat: Vec<Value> =
                    full.rows().filter(|r| r[col] == v).flatten().copied().collect();
                let rows = Relation::from_flat(full.schema().clone(), flat).unwrap();
                let expect = match mode {
                    OutputMode::Rows => QueryOutput::Rows(rows),
                    OutputMode::Count => QueryOutput::Count(rows.len() as u64),
                    OutputMode::Exists => QueryOutput::Exists(!rows.is_empty()),
                    OutputMode::Limit(n) => {
                        let prefix = rows.flat()[..n.min(rows.len()) * rows.arity()].to_vec();
                        QueryOutput::Rows(
                            Relation::from_flat(full.schema().clone(), prefix).unwrap(),
                        )
                    }
                };
                assert_eq!(one, expect, "binding {v} under {mode:?} against the filtered truth");
            }
        }
    }

    #[test]
    fn duplicate_submissions_share_one_execution() {
        let (adj, db, plan, attr) = apex_setup();
        let bindings = [apex(attr, 5), apex(attr, 9), apex(attr, 5), apex(attr, 5)];
        let ctx = ExecCtx::default();
        let (outs, report) = run_many(&adj, &db, &plan, OutputMode::Rows, &bindings, &ctx).unwrap();
        assert_eq!(outs.len(), 4);
        assert_eq!(outs[0].as_ref().unwrap(), outs[2].as_ref().unwrap());
        assert_eq!(outs[0].as_ref().unwrap(), outs[3].as_ref().unwrap());
        let (five, _) = adj.execute_plan(&plan, &db, OutputMode::Rows, &bindings[0], &ctx).unwrap();
        assert_eq!(outs[3].as_ref().unwrap(), &five);
        // The duplicates ran once: the counters are those of the two
        // distinct bindings.
        let distinct = [apex(attr, 5), apex(attr, 9)];
        let (_, once) = run_many(&adj, &db, &plan, OutputMode::Rows, &distinct, &ctx).unwrap();
        assert_eq!(report.counters.tuples_per_level, once.counters.tuples_per_level);
        assert_eq!(report.output_tuples, once.output_tuples);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let (adj, db, plan, _) = apex_setup();
        let ctx = ExecCtx::default();
        let (outs, report) = run_many(&adj, &db, &plan, OutputMode::Rows, &[], &ctx).unwrap();
        assert!(outs.is_empty());
        assert_eq!((report.comm_tuples, report.index_relations_built), (0, 0));
    }

    #[test]
    fn unbound_param_fails_the_whole_batch() {
        let (adj, db, plan, _) = apex_setup();
        let ctx = ExecCtx::default();
        let none = [BoundValues::none()];
        let err = run_many(&adj, &db, &plan, OutputMode::Count, &none, &ctx).unwrap_err();
        assert!(matches!(err, Error::UnboundParam { .. }));
    }

    #[test]
    fn mixed_attribute_sets_are_a_schema_mismatch() {
        let (adj, db, plan, attr) = apex_setup();
        let other = plan.order.iter().copied().find(|&a| a != attr).unwrap();
        let ctx = ExecCtx::default();
        let mixed = [apex(attr, 5), BoundValues::new(vec![(attr, 6), (other, 1)]).unwrap()];
        let err = run_many(&adj, &db, &plan, OutputMode::Count, &mixed, &ctx).unwrap_err();
        assert!(matches!(err, Error::SchemaMismatch { .. }), "{err:?}");
    }

    #[test]
    fn pre_fired_cancel_yields_per_binding_errors() {
        let (adj, db, plan, attr) = apex_setup();
        let bindings: Vec<BoundValues> = (0..8).map(|v| apex(attr, v)).collect();
        let cancel = CancelToken::manual();
        cancel.cancel();
        let ctx = ExecCtx { cancel, ..Default::default() };
        // The token can fail the call before the join (a whole-call error),
        // but once execution reaches the join every binding carries a typed
        // cancellation of its own.
        match run_many(&adj, &db, &plan, OutputMode::Count, &bindings, &ctx) {
            Err(e) => assert!(matches!(e, Error::Cancelled { .. }), "{e:?}"),
            Ok((outs, _)) => {
                assert_eq!(outs.len(), bindings.len());
                assert!(outs.iter().all(|o| matches!(o, Err(Error::Cancelled { .. }))));
            }
        }
    }

    #[test]
    fn a_limit_past_the_budget_stops_at_the_budget() {
        // A dense pseudo-random graph, with enough first-attribute values
        // for several morsels, so both workers claim some.
        let q = paper_query(PaperQuery::Q1);
        let hash = |a: u32, b: u32| a.wrapping_mul(2654435761) ^ b.wrapping_mul(2246822519);
        let edges: Vec<(Value, Value)> = (0..200u32)
            .flat_map(|a| (0..200u32).map(move |b| (a, b)))
            .filter(|&(a, b)| hash(a, b) >> 29 == 0)
            .collect();
        let db = q.instantiate(&Relation::from_pairs(Attr(0), Attr(1), &edges));
        let roomy = AdjConfig { cluster: ClusterConfig::with_workers(2), ..Default::default() };
        let plan = optimize(&q, &db, &roomy, Strategy::CommFirst).unwrap();
        let (all, _) = run(&db, &plan, &roomy, OutputMode::Count).unwrap();
        let QueryOutput::Count(all) = all else { panic!("a count") };
        let budget = 8;
        assert!(all > 40 * budget as u64, "{all} rows do not dwarf the budget");
        let tiny = AdjConfig { max_intermediate_tuples: budget, ..roomy };
        let adj = Adj::new(tiny);
        let limit = OutputMode::Limit(all as usize);
        let none = [BoundValues::none()];
        let (mut outs, report) =
            execute_plan(&adj, &db, &plan, limit, &none, &ExecCtx::default()).unwrap();
        let err = outs.pop().unwrap().unwrap_err();
        assert!(matches!(err, Error::BudgetExceeded { .. }), "{err:?}");
        // Each worker stopped once its buffer passed the budget, and no
        // morsel was handed out after that.
        assert!(
            report.output_tuples < all / 4,
            "{} of {all} rows enumerated",
            report.output_tuples
        );
        // A limit inside the budget is answered.
        let (outs, _) =
            execute_plan(&adj, &db, &plan, OutputMode::Limit(budget), &none, &ExecCtx::default())
                .unwrap();
        assert_eq!(outs[0].as_ref().unwrap().rows().len(), budget);
    }

    #[test]
    fn bindings_that_bind_nothing_in_the_order_share_the_unbound_output() {
        let q = paper_query(PaperQuery::Q1);
        let db = db_for(&q, 200, 23);
        let adj = crate::Adj::with_workers(2);
        let plan = adj.plan(&q, &db, Strategy::CommFirst).unwrap();
        let ctx = ExecCtx::default();
        let none = [BoundValues::none(), BoundValues::none()];
        for mode in [OutputMode::Rows, OutputMode::Count, OutputMode::Exists, OutputMode::Limit(3)]
        {
            let (outs, _) = execute_plan(&adj, &db, &plan, mode, &none, &ctx).unwrap();
            assert_eq!(outs.len(), 2, "{mode:?}: one output per binding");
            let (one, _) = adj.execute_plan(&plan, &db, mode, &none[0], &ctx).unwrap();
            for out in &outs {
                assert_eq!(out.as_ref().unwrap(), &one, "{mode:?}");
            }
        }
    }

    #[test]
    fn adj_execute_plan_fails_rows_over_a_tiny_cap_but_counts() {
        let q = paper_query(PaperQuery::Q1);
        let db = db_for(&q, 200, 23);
        let adj = crate::Adj::new(AdjConfig {
            cluster: ClusterConfig::with_workers(2),
            max_intermediate_tuples: 1,
            ..Default::default()
        });
        let plan = adj.plan(&q, &db, Strategy::CommFirst).unwrap();
        let (none, ctx) = (BoundValues::none(), ExecCtx::default());
        let err = adj.execute_plan(&plan, &db, OutputMode::Rows, &none, &ctx).unwrap_err();
        assert!(matches!(err, Error::BudgetExceeded { .. }), "{err:?}");
        let (out, _) = adj.execute_plan(&plan, &db, OutputMode::Count, &none, &ctx).unwrap();
        assert!(matches!(out, QueryOutput::Count(n) if n > 1));
    }
}
