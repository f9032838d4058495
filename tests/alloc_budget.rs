//! The allocation budget of a warm bound call and a warm batch.
//!
//! A counting `#[global_allocator]` wraps the system allocator, and every
//! check below counts what one front-door call allocates once the plan,
//! index and scratch are warm:
//!
//! * a width-1 `execute_bound` in Rows mode and in Count mode stays within
//!   [`ROWS_BUDGET`] and [`COUNT_BUDGET`] — allocations and bytes per call,
//!   averaged over a fixed set of bindings;
//! * a width-1 `execute_batch` of 512 Zipf draws, every distinct binding
//!   of which the result LRU holds, stays within [`BATCH_BUDGET`] —
//!   allocations and bytes per submission;
//! * a width-1 unbound `COUNT` of the 4-cycle Q8, counted by bags (its
//!   bags' walks, cursors and count tables all lent), stays within
//!   [`COUNT_BUDGET`] too;
//! * a width-2 `execute_bound`, a 256-binding `execute_batch` and a width-2
//!   counted Q8 `COUNT` allocate no more on their last calls than on their
//!   first ones over 200 repetitions, so the lent scratch neither leaks nor
//!   grows per call.
//!
//! The width-1 budgets count the allocations of the thread that makes the
//! calls ([`counted_here`]): a width-1 cluster runs its one worker on the
//! calling thread and spawns none, so that is everything a call allocates —
//! while the process-wide count also catches the test harness's own main
//! thread, which allocates ~900 bytes in 4 allocations whenever it gets to
//! run during the measured calls (and so failed the budget now and then).
//! The growth checks at width 2 count every thread ([`counted`]): their
//! workers run on threads of their own. So they compare the first calls
//! with the *least* of several trailing windows ([`assert_no_growth`]): the
//! main thread's stray allocations land in one window, growth in all.
//!
//! Debug builds erase the query in the plan lookup's key check
//! (a `debug_assert`) on every call, so the budget is asserted only in
//! release builds (`cargo test --release --test alloc_budget`); debug
//! builds assert only the absence of growth. A failure prints the counts.
//!
//! Reading a failure: the budget counts, per Rows call, nine allocations —
//! the resolved binding, the deadline token, the round's relation handles,
//! the worker run's two report vectors, the join's cursor list, the
//! outputs, and the result rows with their schema; Count calls make
//! neither of the last two. The join's sinks allocate nothing: every
//! binding's rows are a segment of the worker's one lent row buffer, and
//! its count a slot of the worker's lent tallies. The report's share and per-level counters are
//! inline arrays ([`Levels`](adj::relational::Levels)) and allocate
//! nothing, but they make the worker run's report ~0.7 KiB per worker,
//! which is most of the bytes. A counted Q8 call makes at most what a
//! bound Count call makes, with the query's fingerprint in place of the
//! binding and one more index lookup list for the relation its second bag
//! reads as `d → c`. Any count above that is a buffer the lent scratch no
//! longer covers.
//!
//! A warm batch allocates per submission only the rows it hands back: each
//! submission's output is a relation (its schema and its rows, two
//! allocations when it has rows), moved out of the LRU's copy for a
//! binding's last submission and cloned for the ones before. Per distinct
//! binding it allocates its resolved binding; per batch, its flat value
//! buffer, the sort keys, the slot map and the skim's and demux's vectors.
//! Resolving a submission allocates nothing, so a count above the budget
//! is an allocation per submission on the door's path.

use adj::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Heap allocations (`alloc`, `alloc_zeroed`, `realloc`) one warm width-1
/// `execute_bound` makes in Rows mode, and the bytes they request (averaged
/// over the bindings below).
const ROWS_BUDGET: (f64, f64) = (9.0, 1088.0);

/// The same in Count mode.
const COUNT_BUDGET: (f64, f64) = (7.0, 992.0);

/// Allocations and bytes per submission of a warm width-1 `execute_batch`
/// of 512 Zipf draws whose every distinct binding the result LRU holds.
const BATCH_BUDGET: (f64, f64) = (2.24, 202.0);

/// Counts every allocation the process makes.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// The allocations and bytes of the current thread. Constant-initialised
    /// and without a destructor, so the allocator reads it without
    /// allocating, on any thread at any time.
    static HERE: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// Counts one allocation of `bytes` bytes, process-wide and on the current
/// thread.
fn count(bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    let _ = HERE.try_with(|here| {
        let (a, b) = here.get();
        here.set((a + 1, b + bytes as u64));
    });
}

// SAFETY: every method hands its arguments to `System` unchanged and
// returns what `System` returns; the counters beside it are atomics and
// never touch the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The counters are process-wide: the checks take turns.
static SERIAL: Mutex<()> = Mutex::new(());

/// What the process allocated while `f` ran: `(allocations, bytes)`.
fn counted(f: impl FnOnce()) -> (u64, u64) {
    let (a0, b0) = (ALLOCS.load(Ordering::SeqCst), BYTES.load(Ordering::SeqCst));
    f();
    (ALLOCS.load(Ordering::SeqCst) - a0, BYTES.load(Ordering::SeqCst) - b0)
}

/// What the current thread allocated while `f` ran: `(allocations,
/// bytes)`.
fn counted_here(f: impl FnOnce()) -> (u64, u64) {
    let (a0, b0) = HERE.with(Cell::get);
    f();
    let (a1, b1) = HERE.with(Cell::get);
    (a1 - a0, b1 - b0)
}

/// The bound shape `bound_loop` serves: the triangles through `$v`.
const BOUND_TEXT: &str = "Q(b,c) :- R1($v,b), R2(b,c), R3($v,c)";

/// A service of `workers` workers over a small WB stand-in, the bound
/// statement prepared, and the vertices its calls bind. The result LRU is
/// off, so every batch executes.
fn setup(workers: usize) -> (Service, PreparedQuery, Vec<Value>) {
    let graph = Dataset::WB.graph(0.1);
    let db = paper_query(PaperQuery::Q1).instantiate(&graph);
    let config = ServiceConfig {
        adj: AdjConfig { cluster: ClusterConfig::with_workers(workers), ..Default::default() },
        result_cache_capacity: 0,
        ..Default::default()
    };
    let service = Service::new(config);
    service.register_database("g", db);
    let (prepared, _) = service.prepare_text("g", BOUND_TEXT).unwrap();
    let mut vertices: Vec<Value> = graph.rows().map(|r| r[0]).collect();
    vertices.dedup();
    vertices.truncate(64);
    (service, prepared, vertices)
}

/// One bound call per vertex, `Bindings` built outside the count; returns
/// the mean `(allocations, bytes)` per call.
fn per_call(
    service: &Service,
    prepared: &PreparedQuery,
    vs: &[Value],
    mode: OutputMode,
) -> (f64, f64) {
    let bindings: Vec<Bindings> = vs.iter().map(|&v| Bindings::new().set("v", v)).collect();
    let mut total = (0, 0);
    for b in &bindings {
        let mut out = None;
        let (a, n) = counted_here(|| out = Some(service.execute_bound(prepared, b, mode).unwrap()));
        drop(out);
        total = (total.0 + a, total.1 + n);
    }
    let calls = bindings.len() as f64;
    (total.0 as f64 / calls, total.1 as f64 / calls)
}

#[test]
fn a_warm_width_one_bound_call_stays_within_its_budget() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (service, prepared, vertices) = setup(1);
    for (mode, (max_allocs, max_bytes)) in
        [(OutputMode::Rows, ROWS_BUDGET), (OutputMode::Count, COUNT_BUDGET)]
    {
        // Warm-up: the index cache and the lent scratch reach their
        // high-water marks.
        per_call(&service, &prepared, &vertices, mode);
        let (allocs, bytes) = per_call(&service, &prepared, &vertices, mode);
        eprintln!("{mode:?}: {allocs:.2} allocations, {bytes:.0} bytes per warm bound call");
        if cfg!(not(debug_assertions)) {
            assert!(
                allocs <= max_allocs && bytes <= max_bytes,
                "{mode:?}: {allocs:.2} allocations and {bytes:.0} bytes per warm bound call, \
                 against a budget of {max_allocs} and {max_bytes}"
            );
        }
    }
    service.check_invariants().unwrap();
}

/// A width-1 service over the same WB stand-in with the result LRU on, and
/// 512 Zipf draws of the bound vertex: a batch of hot vertices, many of
/// them repeated.
fn batch_setup() -> (Service, PreparedQuery, Vec<Bindings>) {
    let graph = Dataset::WB.graph(0.1);
    let db = paper_query(PaperQuery::Q1).instantiate(&graph);
    let config = ServiceConfig {
        adj: AdjConfig { cluster: ClusterConfig::with_workers(1), ..Default::default() },
        ..Default::default()
    };
    let service = Service::new(config);
    service.register_database("g", db);
    let (prepared, _) = service.prepare_text("g", BOUND_TEXT).unwrap();
    let draws = adj::datagen::binding_workload(
        &graph,
        &adj::datagen::BindingWorkloadConfig { count: 512, column: 0, exponent: 0.6, seed: 5 },
    );
    let bindings = draws.iter().map(|&v| Bindings::new().set("v", v)).collect();
    (service, prepared, bindings)
}

#[test]
fn a_warm_width_one_batch_stays_within_its_budget_per_submission() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (service, prepared, bindings) = batch_setup();
    // Warm-up: the first batch fills the result LRU with every distinct
    // binding, so every later one is answered from it.
    for _ in 0..3 {
        service.execute_batch(&prepared, &bindings, OutputMode::Rows).unwrap();
    }
    let calls = 8;
    let (mut allocs, mut bytes) = (0, 0);
    for _ in 0..calls {
        let mut out = None;
        let (a, n) = counted_here(|| {
            out = Some(service.execute_batch(&prepared, &bindings, OutputMode::Rows).unwrap())
        });
        let out = out.unwrap();
        assert_eq!(out.result_cache_hits, bindings.len(), "every submission is warm");
        assert!(out.unique_executed == 0 && out.results.iter().all(Result::is_ok));
        (allocs, bytes) = (allocs + a, bytes + n);
    }
    let submissions = (calls * bindings.len()) as f64;
    let (allocs, bytes) = (allocs as f64 / submissions, bytes as f64 / submissions);
    eprintln!("warm batch: {allocs:.3} allocations, {bytes:.1} bytes per submission");
    let (max_allocs, max_bytes) = BATCH_BUDGET;
    if cfg!(not(debug_assertions)) {
        assert!(
            allocs <= max_allocs && bytes <= max_bytes,
            "warm batch: {allocs:.3} allocations and {bytes:.1} bytes per submission, \
             against a budget of {max_allocs} and {max_bytes}"
        );
    }
    service.check_invariants().unwrap();
}

/// Runs `call` 200 times after a short warm-up and checks that the least
/// of the four 25-call windows of its last 100 calls allocates no more per
/// call, in count or in bytes, than its first 50 calls. A growing call
/// raises every trailing window; another thread's stray allocations raise
/// one.
fn assert_no_growth(what: &str, mut call: impl FnMut()) {
    for _ in 0..5 {
        call();
    }
    let per: Vec<(u64, u64)> = (0..200).map(|_| counted(&mut call)).collect();
    let mean = |calls: &[(u64, u64)]| {
        let n = calls.len() as f64;
        let (a, b) = calls.iter().fold((0, 0), |(a, b), &(x, y)| (a + x, b + y));
        (a as f64 / n, b as f64 / n)
    };
    let first = mean(&per[..50]);
    let least = |(a, b): (f64, f64), (x, y): (f64, f64)| (a.min(x), b.min(y));
    let last = per[100..].chunks(25).map(mean).fold((f64::INFINITY, f64::INFINITY), least);
    eprintln!("{what}: first calls {first:.1?}, last calls {last:.1?} (allocations, bytes)");
    assert!(
        last.0 <= first.0 && last.1 <= first.1,
        "{what} grows: {first:.1?} (allocations, bytes) per call at first, {last:.1?} at the end"
    );
}

#[test]
fn width_two_calls_and_batches_do_not_grow() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (service, prepared, vertices) = setup(2);
    let one = Bindings::new().set("v", vertices[3]);
    assert_no_growth("a width-2 execute_bound", || {
        service.execute_bound(&prepared, &one, OutputMode::Rows).unwrap();
    });
    let batch: Vec<Bindings> =
        (0..256).map(|i| Bindings::new().set("v", vertices[i % vertices.len()])).collect();
    assert_no_growth("a 256-binding execute_batch", || {
        let out = service.execute_batch(&prepared, &batch, OutputMode::Rows).unwrap();
        assert_eq!(out.result_cache_hits, 0, "every batch executes");
    });
    service.check_invariants().unwrap();
}

/// A service of `workers` workers over a small WB stand-in for the 4-cycle
/// Q8, and the query. Its unbound `COUNT` splits into the bags
/// `{a,b,c} ⊗ {a,c,d}`, so it is counted by bags.
fn q8_setup(workers: usize) -> (Service, JoinQuery) {
    let q = paper_query(PaperQuery::Q8);
    let config = ServiceConfig {
        adj: AdjConfig { cluster: ClusterConfig::with_workers(workers), ..Default::default() },
        result_cache_capacity: 0,
        ..Default::default()
    };
    let service = Service::new(config);
    service.register_database("g", q.instantiate(&Dataset::WB.graph(0.1)));
    (service, q)
}

/// One unbound Q8 `COUNT`, checked to run on the counted path: the plan
/// splits, and the warm call reuses the four relations' indexes plus the
/// one its second bag reads under its own order.
fn counted_q8(service: &Service, q: &JoinQuery) {
    let out = service.execute_mode("g", q, OutputMode::Count).unwrap();
    assert!(out.plan.count_split().is_some(), "Q8's count splits into bags");
    assert_eq!(
        (out.report.index_relations_reused, out.report.index_relations_built),
        (5, 0),
        "four relations and the reordered one, all warm"
    );
}

#[test]
fn a_warm_counted_q8_count_stays_within_the_count_budget() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (service, q) = q8_setup(1);
    // Warm-up: the first call builds the indexes, the next ones bring the
    // lent scratch to its high-water marks.
    service.execute_mode("g", &q, OutputMode::Count).unwrap();
    for _ in 0..4 {
        counted_q8(&service, &q);
    }
    let calls = 16;
    let (mut allocs, mut bytes) = (0, 0);
    for _ in 0..calls {
        let mut out = None;
        let (a, n) = counted_here(|| out = Some(service.execute_mode("g", &q, OutputMode::Count)));
        out.unwrap().unwrap();
        (allocs, bytes) = (allocs + a, bytes + n);
    }
    let (allocs, bytes) = (allocs as f64 / calls as f64, bytes as f64 / calls as f64);
    eprintln!("counted Q8 Count: {allocs:.2} allocations, {bytes:.0} bytes per warm call");
    let (max_allocs, max_bytes) = COUNT_BUDGET;
    if cfg!(not(debug_assertions)) {
        assert!(
            allocs <= max_allocs && bytes <= max_bytes,
            "counted Q8 Count: {allocs:.2} allocations and {bytes:.0} bytes per warm call, \
             against a budget of {max_allocs} and {max_bytes}"
        );
    }
    service.check_invariants().unwrap();
}

#[test]
fn width_two_counted_q8_counts_do_not_grow() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (service, q) = q8_setup(2);
    service.execute_mode("g", &q, OutputMode::Count).unwrap();
    assert_no_growth("a width-2 counted Q8 Count", || counted_q8(&service, &q));
    service.check_invariants().unwrap();
}

/// A warm width-1 unbound `COUNT` of Q4 whose walk grows a Leapfrog level
/// buffer past what the lent scratch keeps: the scratch gives back only
/// the grown buffers, so a warm call builds no value table afresh (its
/// report's `table_bytes` reads 0), and allocates nothing more per call as
/// the calls go on.
#[test]
fn a_warm_width_one_q4_count_keeps_its_tables_and_does_not_grow() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let q = paper_query(PaperQuery::Q4);
    let config = ServiceConfig {
        adj: AdjConfig { cluster: ClusterConfig::with_workers(1), ..Default::default() },
        ..Default::default()
    };
    let service = Service::new(config);
    // A hub joined both ways to 1,100 leaves: a level that reaches the hub
    // intersects runs of 1,100 values, past the 2,048 positions a kept
    // buffer holds. The star has no odd cycle, so the count is 0.
    let hub = 5000;
    let star: Vec<(Value, Value)> = (0..1100).flat_map(|leaf| [(hub, leaf), (leaf, hub)]).collect();
    service.register_database("g", q.instantiate(&Relation::from_pairs(Attr(0), Attr(1), &star)));
    let count = || {
        let out = service.execute_mode("g", &q, OutputMode::Count).unwrap();
        assert_eq!(out.report.index_relations_built, 0);
        assert_eq!(out.output, QueryOutput::Count(0));
        out.report.counters.stats.table_bytes
    };
    let cold = service.execute_mode("g", &q, OutputMode::Count).unwrap();
    assert!(cold.report.counters.stats.table_bytes > 0, "the walk builds value tables");
    assert_eq!(count(), 0, "a warm call remade a value table");
    assert_no_growth("a width-1 unbound Q4 Count", || {
        count();
    });
    service.check_invariants().unwrap();
}
