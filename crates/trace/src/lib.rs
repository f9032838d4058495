//! # adj-trace — per-query span timelines for the ADJ pipeline
//!
//! A query's `ExecutionReport` says *how much* time each phase took; it
//! cannot say *which* shuffle round, *which* worker, or *which* trie level
//! burned it. This crate is the missing attribution layer: a per-query
//! [`Tracer`] hands out RAII [`SpanGuard`]s that record named, timestamped
//! intervals (plus zero-duration instant events) into a bounded lock-free
//! buffer. When the query finishes, [`Tracer::finish`] yields an immutable
//! [`Trace`] that renders to Chrome/Perfetto `chrome://tracing` JSON, feeds
//! `EXPLAIN ANALYZE`, or sits in the service's slow-query log.
//!
//! ## Design constraints
//!
//! * **True no-op when disabled.** [`Tracer::disabled`] carries no
//!   allocation and no atomics; every recording call is a single
//!   `Option::is_none` branch. The serving hot path pays nothing when
//!   tracing is off.
//! * **Lock-free when enabled.** Events land in a fixed-capacity slot
//!   array. Writers claim a slot with one `fetch_add` on the head counter;
//!   a claimed index past the capacity is counted in
//!   [`Trace::events_dropped`] instead of blocking or reallocating, so a
//!   pathological query can never wedge a worker on its own telemetry.
//!   Slot indices are claimed exactly once and never reused, so the
//!   per-slot `ready` flag (Release store by the writer, Acquire load by
//!   the reader) is the only synchronization the buffer needs.
//! * **Lanes, not thread ids.** Every event names a [`Lane`]: lane 0 is
//!   the coordinator (service + single-threaded executor phases), lane
//!   `w + 1` is cluster worker `w`. Straggler skew is then directly
//!   visible as one long bar in one worker lane.
//! * **Cheap to record, pay to read.** Timestamps are raw TSC ticks on
//!   x86-64 (converted to microseconds at drain time against the trace's
//!   own anchor pair, so no up-front calibration); annotations store inline
//!   without allocating; retired buffers recycle through a per-thread
//!   pool; and [`QueryTrace`] defers draining and sorting until someone
//!   actually reads the timeline. A traced-but-never-inspected query pays
//!   tens of nanoseconds per event, full stop.
//!
//! ## Example
//!
//! ```
//! use adj_trace::Tracer;
//!
//! let tracer = Tracer::new(128);
//! {
//!     let mut span = tracer.span(0, "shuffle");
//!     span.arg("tuples", 42);
//! } // recorded on drop
//! tracer.instant(1, "cache_hit", "R1");
//! let trace = tracer.finish();
//! assert_eq!(trace.events.len(), 2);
//! assert_eq!(trace.events_dropped, 0);
//! let json = trace.to_chrome_json();
//! assert!(json.contains("\"shuffle\""));
//! ```

use std::borrow::Cow;
use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Timeline lane an event belongs to: `0` is the coordinator, `w + 1` is
/// cluster worker `w`. See [`lane_for_worker`].
pub type Lane = u32;

/// The coordinator/service lane (lane 0).
pub const COORDINATOR_LANE: Lane = 0;

/// The lane for cluster worker `w` (workers start at lane 1).
pub fn lane_for_worker(worker: usize) -> Lane {
    worker as Lane + 1
}

/// Well-known span/instant names of the transport-backed shuffle timeline,
/// so dashboards and tests don't scatter string literals:
///
/// * [`SPAN_SHUFFLE`] (coordinator lane) — a served round of indexes, with
///   `tuples` (what the plan's share would route for the relations built)
///   and reuse args; or the paper's routed shuffle, with `tuples` /
///   `bytes` / `wire_bytes` / `messages` args;
/// * [`SPAN_ROUTE`] (coordinator lane) — the routed shuffle's route-send
///   pass, with a `frames` arg counting transport frames (batches +
///   relation markers);
/// * [`SPAN_BUILD`] (worker lanes) — one per worker, covering its trie
///   builds: a served round's with `relations` and `tuples` args, a routed
///   shuffle's receive + builds with `inbox_tuples` and `batches` args.
pub const SPAN_SHUFFLE: &str = "shuffle";
/// See [`SPAN_SHUFFLE`].
pub const SPAN_ROUTE: &str = "route";
/// See [`SPAN_SHUFFLE`].
pub const SPAN_BUILD: &str = "build";

/// One numeric key/value annotation on an event.
pub type Arg = (Cow<'static, str>, u64);

/// Annotations stored inline in [`Args`] before spilling to the heap.
const INLINE_ARGS: usize = 8;

/// Numeric key/value annotations on an [`Event`] (tuple counts, cache
/// hits, per-level seek counters, …). The first eight pairs are
/// stored inline — with static keys (the common case) recording a span
/// with its annotations performs **zero** heap allocations; only
/// pathological events spill to a `Vec`.
#[derive(Clone, Default)]
pub struct Args {
    len: u8,
    inline: [Arg; INLINE_ARGS],
    spill: Vec<Arg>,
}

impl Args {
    fn new() -> Args {
        Args { len: 0, inline: std::array::from_fn(|_| (Cow::Borrowed(""), 0)), spill: Vec::new() }
    }

    fn push(&mut self, key: Cow<'static, str>, value: u64) {
        if (self.len as usize) < INLINE_ARGS {
            self.inline[self.len as usize] = (key, value);
            self.len += 1;
        } else {
            self.spill.push((key, value));
        }
    }

    /// Number of annotations.
    pub fn len(&self) -> usize {
        self.len as usize + self.spill.len()
    }

    /// Whether the event carries no annotations.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The annotations, in the order they were attached.
    pub fn iter(&self) -> impl Iterator<Item = &Arg> {
        self.inline[..self.len as usize].iter().chain(self.spill.iter())
    }

    /// The value of the annotation with the given key, if present.
    pub fn get(&self, key: &str) -> Option<u64> {
        self.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }
}

impl<'a> IntoIterator for &'a Args {
    type Item = &'a Arg;
    type IntoIter = std::iter::Chain<std::slice::Iter<'a, Arg>, std::slice::Iter<'a, Arg>>;
    fn into_iter(self) -> Self::IntoIter {
        self.inline[..self.len as usize].iter().chain(self.spill.iter())
    }
}

impl std::fmt::Debug for Args {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl PartialEq for Args {
    fn eq(&self, other: &Args) -> bool {
        self.len() == other.len() && self.iter().zip(other.iter()).all(|(a, b)| a == b)
    }
}

impl PartialEq<Vec<Arg>> for Args {
    fn eq(&self, other: &Vec<Arg>) -> bool {
        self.len() == other.len() && self.iter().zip(other.iter()).all(|(a, b)| a == b)
    }
}

/// One recorded event: a closed interval (`dur_us > 0` possible) or an
/// instant marker (`dur_us == 0`), with free-form numeric arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Static name of the span or instant ("shuffle", "join", …).
    pub name: &'static str,
    /// Free-form detail string (bag label, relation name, …); empty when
    /// the name alone identifies the event.
    pub detail: String,
    /// Timeline lane (0 = coordinator, `w + 1` = worker `w`).
    pub lane: Lane,
    /// Microseconds since the tracer was created.
    pub start_us: u64,
    /// Duration in microseconds; 0 for instant events (and for spans that
    /// closed within the same microsecond — see [`Event::span`]).
    pub dur_us: u64,
    /// True for interval events recorded by a [`SpanGuard`]; false for
    /// [`Tracer::instant`] markers.
    pub span: bool,
    /// Numeric key/value annotations. Keys are almost always static
    /// strings and the first few pairs are stored inline, so the hot path
    /// records them without allocating.
    pub args: Args,
}

/// The event buffer: write-once slots claimed by a `fetch_add` on `head`
/// that never wraps below capacity, so every slot has a single writer.
/// Slot storage is *uninitialized* until its writer fills it — creating a
/// tracer costs one flag byte per slot, not one `Event`-sized write — and
/// each `ready` flag publishes its slot's write to readers.
struct Inner {
    start: Instant,
    /// [`raw_ticks`] at creation/reset; event timestamps are recorded as
    /// tick deltas from here and converted to microseconds at drain time.
    start_ticks: u64,
    ready: Box<[AtomicBool]>,
    /// Until [`Inner::drain`] converts them, buffered events hold raw
    /// *tick* deltas in their `start_us`/`dur_us` fields.
    events: Box<[UnsafeCell<MaybeUninit<Event>>]>,
    /// Next slot index to claim; values `>= events.len()` mean the buffer
    /// is full and the event is dropped (and counted).
    head: AtomicUsize,
    dropped: AtomicU64,
}

/// The recording clock, read twice per span. On x86-64 this is `rdtsc`
/// (a handful of ns, several times cheaper than the vDSO `Instant` read);
/// tick deltas are converted to microseconds at drain time against the
/// tracer's own (`Instant`, tick) anchor pair, so no up-front frequency
/// calibration is needed. Modern x86-64 keeps the TSC invariant and
/// synchronized across cores, which is all a microsecond-resolution
/// timeline asks of it. Elsewhere the clock is `Instant` nanoseconds and
/// the drain-time conversion degenerates to a divide by 1000.
#[cfg(target_arch = "x86_64")]
fn raw_ticks() -> u64 {
    // SAFETY: RDTSC has no preconditions; it is a plain counter read.
    unsafe { core::arch::x86_64::_rdtsc() }
}

// SAFETY: each event slot is written by exactly one thread (the unique
// claimant of its index) and only read after an Acquire load observes the
// Release store of `ready = true`, which happens-after the write completes.
unsafe impl Sync for Inner {}

impl Inner {
    fn new(capacity: usize) -> Inner {
        // SAFETY: `UnsafeCell<T>` has the same in-memory representation as
        // `T` (it is `repr(transparent)`), so a boxed slice of
        // `MaybeUninit<Event>` can be reinterpreted as a boxed slice of
        // `UnsafeCell<MaybeUninit<Event>>`. The memory stays uninitialized
        // until a slot's unique writer fills it.
        let events = unsafe {
            let uninit: Box<[MaybeUninit<Event>]> = Box::new_uninit_slice(capacity);
            Box::from_raw(Box::into_raw(uninit) as *mut [UnsafeCell<MaybeUninit<Event>>])
        };
        Inner {
            start: Instant::now(),
            #[cfg(target_arch = "x86_64")]
            start_ticks: raw_ticks(),
            #[cfg(not(target_arch = "x86_64"))]
            start_ticks: 0,
            ready: (0..capacity).map(|_| AtomicBool::new(false)).collect(),
            events,
            head: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    fn capacity(&self) -> usize {
        self.events.len()
    }

    /// Ticks elapsed since the tracer started; see [`raw_ticks`].
    fn rel_ticks(&self) -> u64 {
        #[cfg(target_arch = "x86_64")]
        {
            raw_ticks().saturating_sub(self.start_ticks)
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            self.start.elapsed().as_nanos() as u64
        }
    }

    fn record(&self, event: Event) {
        let idx = self.head.fetch_add(1, Ordering::Relaxed);
        if idx < self.events.len() {
            // SAFETY: `idx` was claimed by exactly this call; nobody else
            // writes this slot, and readers wait for `ready`.
            unsafe { (*self.events[idx].get()).write(event) };
            self.ready[idx].store(true, Ordering::Release);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn drain(&self) -> (Vec<Event>, u64) {
        // Only slots up to the claimed head can hold events; the scan is
        // O(events recorded), not O(capacity). Swapping `ready` to false
        // claims each slot exactly once, so events move out instead of
        // being cloned (and a second drain returns nothing).
        let claimed = self.head.load(Ordering::Relaxed).min(self.events.len());
        // Tick→µs conversion factor, self-calibrated against how many
        // ticks and wall nanoseconds this trace has now spanned. The two
        // "now" reads race each other by a few ns at worst, which is far
        // below the microsecond resolution of the timeline.
        let elapsed_ticks = self.rel_ticks().max(1) as f64;
        let elapsed_ns = (self.start.elapsed().as_nanos().max(1)) as f64;
        let us_per_tick = elapsed_ns / elapsed_ticks / 1000.0;
        let to_us = |ticks: u64| (ticks as f64 * us_per_tick) as u64;
        let mut events = Vec::with_capacity(claimed);
        for idx in 0..claimed {
            if self.ready[idx].swap(false, Ordering::Acquire) {
                // SAFETY: the Acquire swap observed the writer's Release
                // store, so the slot is initialized and the writer is done
                // with it; the swap won the slot, so moving out is unique.
                let mut e = unsafe { (*self.events[idx].get()).assume_init_read() };
                // Convert *endpoints*, not the duration: truncating start
                // and duration independently could shrink a parent span's
                // end below a child's, breaking nesting. A monotone map of
                // both endpoints keeps child intervals inside parents.
                let end_us = to_us(e.start_us.saturating_add(e.dur_us));
                e.start_us = to_us(e.start_us);
                e.dur_us = end_us - e.start_us;
                events.push(e);
            }
        }
        events.sort_by_key(|e| (e.start_us, e.lane));
        (events, self.dropped.load(Ordering::Relaxed))
    }
}

impl Drop for Inner {
    fn drop(&mut self) {
        self.clear();
    }
}

impl Inner {
    /// Drops every initialized slot and rewinds the buffer to empty, ready
    /// to record again. Requires `&mut` — no writer or reader is live.
    fn clear(&mut self) {
        // Only slots whose writer published `ready` were ever initialized.
        let claimed = (*self.head.get_mut()).min(self.events.len());
        for idx in 0..claimed {
            if std::mem::take(self.ready[idx].get_mut()) {
                // SAFETY: `ready` marks the slot initialized, and `&mut
                // self` means no writer or reader is live.
                unsafe { (*self.events[idx].get()).assume_init_drop() };
            }
        }
        *self.head.get_mut() = 0;
        *self.dropped.get_mut() = 0;
        self.start = Instant::now();
        #[cfg(target_arch = "x86_64")]
        {
            self.start_ticks = raw_ticks();
        }
    }
}

/// Retired event buffers kept for reuse, per thread. A tracer's slot array
/// is large enough (hundreds of KB at the default capacity) that the
/// allocator services it with `mmap` — allocating and faulting fresh pages
/// for every traced query costs several microseconds, an order of
/// magnitude more than recording a typical query's events. Recycling a
/// handful of warm buffers per serving thread makes tracer creation
/// allocation-free in steady state.
const POOL_PER_THREAD: usize = 2;

thread_local! {
    static BUFFER_POOL: std::cell::RefCell<Vec<Arc<Inner>>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Per-query event collector. Cheap to pass by reference through every
/// layer; a disabled tracer ([`Tracer::disabled`]) reduces every call to a
/// single branch, and it is the `Default`.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            Some(inner) => f
                .debug_struct("Tracer")
                .field("capacity", &inner.capacity())
                .field("recorded", &inner.head.load(Ordering::Relaxed))
                .finish(),
            None => f.write_str("Tracer(disabled)"),
        }
    }
}

impl Tracer {
    /// An enabled tracer with room for `capacity` events; events past the
    /// capacity are dropped and counted, never block. The buffer comes
    /// from this thread's retired-buffer pool when one of the right
    /// capacity is available, so steady-state tracer creation performs no
    /// allocation (a small per-thread pool of retired buffers).
    pub fn new(capacity: usize) -> Tracer {
        let recycled = BUFFER_POOL.with(|p| {
            let mut p = p.borrow_mut();
            p.iter().position(|i| i.capacity() == capacity).map(|ix| p.swap_remove(ix))
        });
        let inner = match recycled {
            Some(mut arc) => {
                // The pool only holds unshared buffers, so `get_mut`
                // succeeds and `clear` may safely drop leftover events
                // from a tracer that was never finished.
                Arc::get_mut(&mut arc).expect("pooled buffer is unshared").clear();
                arc
            }
            None => Arc::new(Inner::new(capacity)),
        };
        Tracer { inner: Some(inner) }
    }

    /// The no-op tracer: no allocation, no atomics, every recording call
    /// is one branch.
    pub fn disabled() -> Tracer {
        Tracer { inner: None }
    }

    /// Whether events are being recorded. Call sites can skip *preparing*
    /// expensive details (formatting, counter folding) when this is false.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Open a span on `lane`; the interval is recorded when the returned
    /// guard drops. Annotate it with [`SpanGuard::arg`] /
    /// [`SpanGuard::detail`] before then.
    pub fn span(&self, lane: Lane, name: &'static str) -> SpanGuard<'_> {
        match &self.inner {
            Some(inner) => SpanGuard {
                active: Some(SpanActive {
                    inner,
                    name,
                    lane,
                    start_us: inner.rel_ticks(),
                    detail: String::new(),
                    args: Args::new(),
                }),
            },
            None => SpanGuard { active: None },
        }
    }

    /// Record a zero-duration marker event.
    pub fn instant(&self, lane: Lane, name: &'static str, detail: &str) {
        if let Some(inner) = &self.inner {
            let now = inner.rel_ticks();
            inner.record(Event {
                name,
                detail: detail.to_string(),
                lane,
                start_us: now,
                dur_us: 0,
                span: false,
                args: Args::new(),
            });
        }
    }

    /// Events dropped so far because the buffer was full. One atomic load;
    /// does not drain or materialize anything.
    pub fn events_dropped(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.dropped.load(Ordering::Relaxed),
            None => 0,
        }
    }

    /// Drain everything recorded so far into an immutable [`Trace`].
    /// Events from spans still open are not included (a span records on
    /// guard drop), and a second `finish` call returns an empty timeline —
    /// each event moves out of the buffer exactly once.
    pub fn finish(&self) -> Trace {
        match &self.inner {
            Some(inner) => {
                let (events, events_dropped) = inner.drain();
                Trace { events, events_dropped, capacity: inner.capacity() }
            }
            None => Trace { events: Vec::new(), events_dropped: 0, capacity: 0 },
        }
    }
}

/// A finished query's trace, materialized lazily. Recording has stopped,
/// but the event buffer is only drained (moved out, sorted, and assembled
/// into a [`Trace`]) on first read — dereference or call any [`Trace`]
/// method to materialize. A serving path that traces every query but whose
/// traces are read only on demand (`EXPLAIN ANALYZE`, the slow-query log,
/// a Chrome export) therefore pays recording cost per query, not
/// collection cost: draining and sorting happen on the reader's time, the
/// collector model every low-overhead tracer uses.
///
/// Holding a `QueryTrace` keeps the underlying buffer alive; it returns to
/// the thread-local pool when the last handle drops.
pub struct QueryTrace {
    tracer: Tracer,
    cell: std::sync::OnceLock<Trace>,
}

impl QueryTrace {
    /// Wrap a tracer whose query is complete. Cheap: bumps the buffer's
    /// refcount, drains nothing.
    pub fn new(tracer: &Tracer) -> QueryTrace {
        QueryTrace { tracer: tracer.clone(), cell: std::sync::OnceLock::new() }
    }

    /// A handle around an already-materialized timeline.
    pub fn from_trace(trace: Trace) -> QueryTrace {
        let cell = std::sync::OnceLock::new();
        let _ = cell.set(trace);
        QueryTrace { tracer: Tracer::disabled(), cell }
    }

    /// Materialize (if not yet read) and clone the timeline, e.g. to store
    /// in a slow-query log that outlives the query outcome.
    pub fn snapshot(&self) -> Trace {
        (**self).clone()
    }
}

impl std::ops::Deref for QueryTrace {
    type Target = Trace;
    fn deref(&self) -> &Trace {
        self.cell.get_or_init(|| self.tracer.finish())
    }
}

impl Clone for QueryTrace {
    fn clone(&self) -> QueryTrace {
        // The buffer can only be drained once, so the clone carries its own
        // materialized copy rather than a second handle to the same slots.
        QueryTrace::from_trace(self.snapshot())
    }
}

impl std::fmt::Debug for QueryTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&**self, f)
    }
}

impl PartialEq for QueryTrace {
    fn eq(&self, other: &QueryTrace) -> bool {
        **self == **other
    }
}

impl Drop for Tracer {
    fn drop(&mut self) {
        // Return the buffer to this thread's pool when this was the last
        // handle — the next traced query on this thread then skips the
        // large slot-array allocation entirely.
        if let Some(arc) = self.inner.take() {
            if Arc::strong_count(&arc) == 1 {
                BUFFER_POOL.with(|p| {
                    let mut p = p.borrow_mut();
                    if p.len() < POOL_PER_THREAD {
                        p.push(arc);
                    }
                });
            }
        }
    }
}

struct SpanActive<'a> {
    inner: &'a Arc<Inner>,
    name: &'static str,
    lane: Lane,
    start_us: u64,
    detail: String,
    args: Args,
}

/// RAII guard for an open span; records the interval when dropped. From a
/// disabled tracer the guard is inert and every method is a no-op branch.
pub struct SpanGuard<'a> {
    active: Option<SpanActive<'a>>,
}

impl SpanGuard<'_> {
    /// Attach a numeric annotation (tuple count, cache hits, …). Static
    /// keys — the common case — record without allocating.
    pub fn arg(&mut self, key: impl Into<Cow<'static, str>>, value: u64) {
        if let Some(a) = &mut self.active {
            a.args.push(key.into(), value);
        }
    }

    /// Set the free-form detail string (bag label, relation name, …).
    pub fn detail(&mut self, detail: impl Into<String>) {
        if let Some(a) = &mut self.active {
            a.detail = detail.into();
        }
    }

    /// Whether this guard actually records (i.e. came from an enabled
    /// tracer). Lets call sites skip computing expensive annotations.
    pub fn is_recording(&self) -> bool {
        self.active.is_some()
    }

    /// Drop the span without recording it. For spans that exist to catch a
    /// *possible* stall (admission waits, lock waits): when the stall never
    /// happened, discarding keeps the timeline free of zero-width noise —
    /// the event's *absence* is the signal that the query never waited.
    pub fn discard(&mut self) {
        self.active = None;
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(a) = self.active.take() {
            let end = a.inner.rel_ticks();
            a.inner.record(Event {
                name: a.name,
                detail: a.detail,
                lane: a.lane,
                start_us: a.start_us,
                dur_us: end.saturating_sub(a.start_us),
                span: true,
                args: a.args,
            });
        }
    }
}

/// An immutable, finished span timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// All recorded events, sorted by `(start_us, lane)`.
    pub events: Vec<Event>,
    /// Events that arrived after the buffer filled up; they were discarded
    /// rather than blocking the query. A non-zero value means the timeline
    /// is truncated and the buffer capacity should be raised.
    pub events_dropped: u64,
    /// The buffer capacity the tracer ran with.
    pub capacity: usize,
}

impl Trace {
    /// Events with the given name, in timeline order.
    pub fn events_named(&self, name: &str) -> Vec<&Event> {
        self.events.iter().filter(|e| e.name == name).collect()
    }

    /// The set of distinct lanes that recorded at least one event, sorted.
    pub fn lanes(&self) -> Vec<Lane> {
        let mut lanes: Vec<Lane> = self.events.iter().map(|e| e.lane).collect();
        lanes.sort_unstable();
        lanes.dedup();
        lanes
    }

    /// Sum of a numeric annotation over all events carrying it.
    pub fn sum_arg(&self, key: &str) -> u64 {
        self.events
            .iter()
            .flat_map(|e| e.args.iter())
            .filter(|(k, _)| k == key)
            .map(|(_, v)| v)
            .sum()
    }

    /// Whether every span nests properly inside its enclosing span on the
    /// same lane: for any two overlapping intervals on a lane, one must
    /// contain the other. Scoped [`SpanGuard`]s guarantee this; the check
    /// is what tests assert to call a trace a well-formed span *tree*.
    pub fn is_well_formed(&self) -> bool {
        let lanes = self.lanes();
        for lane in lanes {
            let spans: Vec<&Event> =
                self.events.iter().filter(|e| e.lane == lane && e.span).collect();
            for (i, a) in spans.iter().enumerate() {
                for b in spans.iter().skip(i + 1) {
                    let (a0, a1) = (a.start_us, a.start_us + a.dur_us);
                    let (b0, b1) = (b.start_us, b.start_us + b.dur_us);
                    let overlap = a0 < b1 && b0 < a1;
                    let a_in_b = b0 <= a0 && a1 <= b1;
                    let b_in_a = a0 <= b0 && b1 <= a1;
                    if overlap && !a_in_b && !b_in_a {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Render the timeline in Chrome trace-event JSON (the
    /// `chrome://tracing` / Perfetto "JSON array" format): one complete
    /// event (`"ph":"X"`) per span, an instant event (`"ph":"i"`) per
    /// marker, plus `thread_name` metadata naming each lane.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("[");
        let mut first = true;
        let push = |s: String, out: &mut String, first: &mut bool| {
            if !*first {
                out.push(',');
            }
            *first = false;
            out.push('\n');
            out.push_str(&s);
        };
        for lane in self.lanes() {
            let name = if lane == COORDINATOR_LANE {
                "coordinator".to_string()
            } else {
                format!("worker {}", lane - 1)
            };
            push(
                format!(
                    "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":{lane},\
                     \"args\":{{\"name\":{}}}}}",
                    json_string(&name)
                ),
                &mut out,
                &mut first,
            );
        }
        for e in &self.events {
            let mut args = String::from("{");
            let mut afirst = true;
            if !e.detail.is_empty() {
                args.push_str(&format!("\"detail\":{}", json_string(&e.detail)));
                afirst = false;
            }
            for (k, v) in &e.args {
                if !afirst {
                    args.push(',');
                }
                afirst = false;
                args.push_str(&format!("{}:{}", json_string(k), v));
            }
            args.push('}');
            let ph = if e.span { "X" } else { "i" };
            let dur = if e.span { format!(",\"dur\":{}", e.dur_us) } else { String::new() };
            let scope = if e.span { "" } else { ",\"s\":\"t\"" };
            push(
                format!(
                    "{{\"ph\":\"{ph}\",\"name\":{},\"pid\":1,\"tid\":{},\"ts\":{}{dur}{scope},\
                     \"args\":{args}}}",
                    json_string(e.name),
                    e.lane,
                    e.start_us
                ),
                &mut out,
                &mut first,
            );
        }
        out.push_str("\n]");
        out
    }
}

/// Minimal JSON string escaping (quotes, backslash, control characters).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        assert!(!t.enabled());
        {
            let mut s = t.span(0, "phase");
            s.arg("tuples", 7);
            assert!(!s.is_recording());
        }
        t.instant(3, "marker", "detail");
        let trace = t.finish();
        assert!(trace.events.is_empty());
        assert_eq!(trace.events_dropped, 0);
        assert_eq!(trace.capacity, 0);
        assert!(trace.is_well_formed());
    }

    #[test]
    fn spans_record_on_drop_with_args_and_detail() {
        let t = Tracer::new(16);
        {
            let mut s = t.span(0, "outer");
            s.detail("bag0");
            s.arg("tuples", 42);
            let _inner = t.span(0, "inner");
        }
        let trace = t.finish();
        assert_eq!(trace.events.len(), 2);
        let outer = trace.events_named("outer");
        assert_eq!(outer.len(), 1);
        assert_eq!(outer[0].detail, "bag0");
        assert_eq!(outer[0].args, vec![(Cow::Borrowed("tuples"), 42)]);
        // inner dropped first, so it closed before (or when) outer did
        let inner = trace.events_named("inner")[0];
        assert!(inner.start_us >= outer[0].start_us);
        assert!(inner.start_us + inner.dur_us <= outer[0].start_us + outer[0].dur_us);
        assert!(trace.is_well_formed());
    }

    #[test]
    fn discarded_spans_record_nothing() {
        let t = Tracer::new(16);
        {
            let mut s = t.span(0, "maybe_wait");
            s.arg("n", 1);
            s.discard();
        }
        {
            let _kept = t.span(0, "kept");
        }
        let trace = t.finish();
        assert_eq!(trace.events.len(), 1);
        assert_eq!(trace.events[0].name, "kept");
    }

    #[test]
    fn pooled_buffers_reset_between_tracers() {
        // Same thread, same capacity: the second tracer reuses the first's
        // buffer — including when the first was never finished, whose
        // leftover events must not leak into the new timeline.
        let t = Tracer::new(32);
        t.instant(0, "left_behind", "");
        t.instant(0, "left_behind", "");
        drop(t);
        let t = Tracer::new(32);
        t.instant(0, "fresh", "");
        let trace = t.finish();
        assert_eq!(trace.events.len(), 1);
        assert_eq!(trace.events[0].name, "fresh");
        assert_eq!(trace.events_dropped, 0);
    }

    #[test]
    fn query_trace_materializes_lazily_and_clones_deep() {
        let t = Tracer::new(16);
        t.instant(0, "e", "");
        let qt = QueryTrace::new(&t);
        drop(t); // the handle keeps the buffer alive
        let clone = qt.clone(); // materializes, then copies
        assert_eq!(qt.events.len(), 1);
        assert_eq!(clone.events.len(), 1);
        assert_eq!(qt.snapshot().events.len(), 1); // repeat reads see the same timeline
        assert_eq!(qt, clone);
    }

    #[test]
    fn buffer_wrap_sets_events_dropped() {
        let t = Tracer::new(4);
        for i in 0..10 {
            t.instant(0, "e", &format!("{i}"));
        }
        let trace = t.finish();
        assert_eq!(trace.events.len(), 4);
        assert_eq!(trace.events_dropped, 6);
        assert_eq!(trace.capacity, 4);
    }

    #[test]
    fn concurrent_writers_all_land_or_are_counted() {
        let t = Tracer::new(64);
        std::thread::scope(|scope| {
            for w in 0..8 {
                let t = &t;
                scope.spawn(move || {
                    for _ in 0..16 {
                        let mut s = t.span(lane_for_worker(w), "work");
                        s.arg("w", w as u64);
                    }
                });
            }
        });
        let trace = t.finish();
        assert_eq!(trace.events.len() as u64 + trace.events_dropped, 8 * 16);
        assert_eq!(trace.events.len(), 64);
        assert_eq!(trace.events_dropped, 64);
    }

    #[test]
    fn a_drain_racing_the_writers_counts_every_record_once() {
        const WRITERS: u64 = 4;
        const EACH: u64 = 400;
        let t = Tracer::new(512);
        let (start, done) = (std::sync::Barrier::new(WRITERS as usize + 1), AtomicUsize::new(0));
        let mut drained: Vec<Event> = Vec::new();
        std::thread::scope(|scope| {
            for w in 0..WRITERS {
                let (t, start, done) = (&t, &start, &done);
                scope.spawn(move || {
                    let lane = lane_for_worker(w as usize);
                    start.wait();
                    for i in 0..EACH {
                        if i % 2 == 0 {
                            let mut s = t.span(lane, "work");
                            s.arg("w", w);
                            s.arg("i", i);
                            s.detail(format!("{w}:{i}"));
                        } else {
                            t.instant(lane, "mark", &format!("{w}:{i}"));
                        }
                        if i % 64 == 0 {
                            std::thread::yield_now();
                        }
                    }
                    done.fetch_add(1, Ordering::SeqCst);
                });
            }
            start.wait();
            while done.load(Ordering::SeqCst) < WRITERS as usize {
                drained.extend(t.finish().events);
            }
        });
        let last = t.finish();
        drained.extend(last.events);

        // Every event is whole: its detail, lane, kind and args name one
        // record, and no record shows up twice.
        let mut seen = std::collections::HashSet::new();
        for e in &drained {
            let (w, i) = e.detail.split_once(':').expect("w:i");
            let (w, i): (u64, u64) = (w.parse().unwrap(), i.parse().unwrap());
            assert!(w < WRITERS && i < EACH, "{e:?}");
            assert_eq!(e.lane, lane_for_worker(w as usize), "{e:?}");
            assert_eq!((e.span, e.name), if i % 2 == 0 { (true, "work") } else { (false, "mark") });
            if e.span {
                assert_eq!((e.args.get("w"), e.args.get("i")), (Some(w), Some(i)), "{e:?}");
            } else {
                assert!(e.args.is_empty() && e.dur_us == 0, "{e:?}");
            }
            assert!(seen.insert((w, i)), "{e:?} drained twice");
        }
        assert_eq!(drained.len(), 512, "every slot lands once");
        assert_eq!(drained.len() as u64 + last.events_dropped, WRITERS * EACH);
        assert_eq!(t.events_dropped(), last.events_dropped);
    }

    #[test]
    fn lanes_and_sums() {
        let t = Tracer::new(16);
        t.instant(0, "a", "");
        {
            let mut s = t.span(2, "b");
            s.arg("n", 3);
        }
        {
            let mut s = t.span(1, "b");
            s.arg("n", 4);
        }
        let trace = t.finish();
        assert_eq!(trace.lanes(), vec![0, 1, 2]);
        assert_eq!(trace.sum_arg("n"), 7);
    }

    #[test]
    fn chrome_json_shape() {
        let t = Tracer::new(16);
        {
            let mut s = t.span(0, "phase \"x\"");
            s.arg("tuples", 5);
        }
        t.instant(1, "hit", "R1");
        let json = t.finish().to_chrome_json();
        assert!(json.starts_with('['));
        assert!(json.ends_with(']'));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"ph\":\"M\""));
        assert!(json.contains("\\\"x\\\""));
        assert!(json.contains("\"worker 0\""));
        assert!(json.contains("\"tuples\":5"));
    }

    #[test]
    fn well_formedness_detects_partial_overlap() {
        let mk = |s, d| Event {
            name: "e",
            detail: String::new(),
            lane: 0,
            start_us: s,
            dur_us: d,
            span: true,
            args: Args::new(),
        };
        let nested = Trace { events: vec![mk(0, 10), mk(2, 3)], events_dropped: 0, capacity: 16 };
        assert!(nested.is_well_formed());
        let crossed = Trace { events: vec![mk(0, 10), mk(5, 10)], events_dropped: 0, capacity: 16 };
        assert!(!crossed.is_well_formed());
    }
}
