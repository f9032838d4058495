//! The allocation budget of a warm bound call.
//!
//! A counting `#[global_allocator]` wraps the system allocator, and every
//! check below counts what one front-door call allocates once the plan,
//! index and scratch are warm:
//!
//! * a width-1 `execute_bound` in Rows mode and in Count mode stays within
//!   [`ROWS_BUDGET`] and [`COUNT_BUDGET`] — allocations and bytes per call,
//!   averaged over a fixed set of bindings;
//! * a width-2 `execute_bound` and a 256-binding `execute_batch` allocate
//!   no more on their last calls than on their first ones over 200
//!   repetitions, so the lent scratch neither leaks nor grows per call.
//!
//! Debug builds re-solve the share program in the executor's
//! `debug_assert` on every call (and the plan lookup's key check erases the
//! query), so the budget is asserted only in release builds (`cargo test
//! --release --test alloc_budget`); debug builds assert only the absence of
//! growth. A failure prints the counts.
//!
//! Reading a failure: the budget counts, per Rows call, the resolved
//! binding, the deadline token, the report's share vector and counters
//! (five per-level `Vec`s), the round's relation handles, the worker run's
//! report, the join's sink and cursor lists, the outputs, and the result
//! rows with their schema; Count calls make neither of the last two. Any
//! count above that is a buffer the lent scratch no longer covers.

use adj::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Heap allocations (`alloc`, `alloc_zeroed`, `realloc`) one warm width-1
/// `execute_bound` makes in Rows mode, and the bytes they request (averaged
/// over the bindings below).
const ROWS_BUDGET: (f64, f64) = (16.0, 896.0);

/// The same in Count mode.
const COUNT_BUDGET: (f64, f64) = (14.0, 800.0);

/// Counts every allocation the process makes.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method hands its arguments to `System` unchanged and
// returns what `System` returns; the counters beside it are atomics and
// never touch the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
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

/// What `f` allocated: `(allocations, bytes)`.
fn counted(f: impl FnOnce()) -> (u64, u64) {
    let (a0, b0) = (ALLOCS.load(Ordering::SeqCst), BYTES.load(Ordering::SeqCst));
    f();
    (ALLOCS.load(Ordering::SeqCst) - a0, BYTES.load(Ordering::SeqCst) - b0)
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
        let (a, n) = counted(|| out = Some(service.execute_bound(prepared, b, mode).unwrap()));
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

/// Runs `call` 200 times and checks that its last 50 calls allocate no
/// more, in count or bytes, than its 50 calls after a short warm-up.
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
    let (first, last) = (mean(&per[..50]), mean(&per[150..]));
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
