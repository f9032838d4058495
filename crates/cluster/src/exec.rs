//! Parallel per-worker execution with timing.
//!
//! Two kinds of phase run on the workers. A per-worker phase
//! ([`Cluster::run`], [`Cluster::run_traced`]) hands each worker its own
//! work by id: the routed shuffle's per-inbox builds, the baselines. A
//! claimed phase ([`Cluster::run_claimed`]) is `N` units every worker
//! claims from one shared cursor ([`Morsels`]): the planner's builds and
//! sampling walks, the index round's cold builds, and every join. The
//! runner alone decides whether a claimed phase spawns: a phase of at most
//! one unit runs on the calling thread.

use crate::comm::{CommStats, CostModel};
use crate::transport::TransportRound;
use crate::{ClusterConfig, WorkerId};
use adj_relational::{Morsels, Schema};
use adj_trace::{lane_for_worker, SpanGuard, Tracer};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// A worker closure that panicked instead of returning. The panic is
/// caught inside [`Cluster::run`] — it never unwinds through the
/// coordinator — and surfaces here as data: the worker id and the panic
/// message (string payloads are preserved verbatim).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerFailure {
    /// The worker whose closure panicked.
    pub worker: WorkerId,
    /// The panic payload, stringified.
    pub message: String,
}

impl WorkerFailure {
    fn from_payload(worker: WorkerId, payload: Box<dyn std::any::Any + Send>) -> Self {
        let message = if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else if let Some(s) = payload.downcast_ref::<&'static str>() {
            (*s).to_string()
        } else {
            "non-string panic payload".to_string()
        };
        WorkerFailure { worker, message }
    }
}

impl std::fmt::Display for WorkerFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "worker {} panicked: {}", self.worker, self.message)
    }
}

impl std::error::Error for WorkerFailure {}

impl From<WorkerFailure> for adj_relational::Error {
    fn from(failure: WorkerFailure) -> Self {
        adj_relational::Error::WorkerPanicked {
            worker: Some(failure.worker),
            message: failure.message,
        }
    }
}

/// The simulated cluster: configuration + communication counters.
///
/// A `Cluster` is cheap to create and owns no data; partitioned relations
/// reference it only during shuffles and runs.
#[derive(Debug)]
pub struct Cluster {
    config: ClusterConfig,
    comm: CommStats,
    cost_model: CostModel,
    /// Whether [`Cluster::run`] spawns OS threads. On a single-hardware-
    /// thread host the logical workers would serialize anyway, so the
    /// per-query thread spawn/join cost (which dominates sub-millisecond
    /// serving latencies) is skipped and workers run inline — per-worker
    /// timing and makespan semantics are unchanged.
    spawn_threads: bool,
}

/// Result of a parallel run: per-worker wall-clock seconds plus results.
#[derive(Debug)]
pub struct RunReport<R> {
    /// Per-worker results, indexed by worker id: the closure's return
    /// value, or the [`WorkerFailure`] describing its caught panic. A
    /// failed worker never takes down its siblings — every worker's slot
    /// is present either way.
    pub results: Vec<Result<R, WorkerFailure>>,
    /// Per-worker wall-clock seconds.
    pub worker_secs: Vec<f64>,
    /// Max over workers — the job's elapsed computation time ("last
    /// straggler" effect included, as the paper observes for Q5 in Fig. 11).
    pub makespan_secs: f64,
    /// Sum over workers — total CPU-seconds, the scale-independent
    /// computation measure.
    pub total_secs: f64,
}

impl<R> RunReport<R> {
    /// The first worker failure, if any worker panicked.
    pub fn first_failure(&self) -> Option<&WorkerFailure> {
        self.results.iter().find_map(|r| r.as_ref().err())
    }

    /// All per-worker results, or the first failure — the gather idiom for
    /// callers that need every worker to have succeeded.
    pub fn into_results(self) -> Result<Vec<R>, WorkerFailure> {
        self.results.into_iter().collect()
    }
}

impl<R> RunReport<Vec<(usize, R)>> {
    /// The results of a claimed phase whose workers return each unit they
    /// claimed with its result: every unit's result in unit order, or the
    /// first failure.
    pub fn into_units(self) -> Result<Vec<R>, WorkerFailure> {
        let mut done: Vec<(usize, R)> = self.into_results()?.into_iter().flatten().collect();
        done.sort_unstable_by_key(|&(u, _)| u);
        Ok(done.into_iter().map(|(_, r)| r).collect())
    }
}

impl Cluster {
    /// Creates a cluster with the given configuration. Fails fast (with a
    /// clear panic message) on a degenerate configuration — use
    /// [`Cluster::try_new`] to get the typed error instead.
    pub fn new(config: ClusterConfig) -> Self {
        match Cluster::try_new(config) {
            Ok(c) => c,
            Err(e) => panic!("invalid cluster configuration: {e}"),
        }
    }

    /// Creates a cluster, returning a typed
    /// [`InvalidConfig`](adj_relational::Error::InvalidConfig) error on a
    /// degenerate configuration (zero workers, non-finite or non-positive
    /// α, zero memory budget) instead of panicking deep in share solving
    /// or partitioning later.
    pub fn try_new(config: ClusterConfig) -> Result<Self, adj_relational::Error> {
        config.validate()?;
        let cost_model =
            CostModel { alpha_tuples_per_sec: config.alpha_tuples_per_sec, ..Default::default() };
        let parallelism = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        let spawn_threads = config.num_workers > 1 && parallelism > 1;
        Ok(Cluster { config, comm: CommStats::new(), cost_model, spawn_threads })
    }

    /// Creates a cluster behind an [`Arc`](std::sync::Arc), the form
    /// long-lived components (`Adj`, `adj-service`) share: one simulated
    /// cluster serving many concurrent queries, instead of a fresh build
    /// per call. `Cluster` is `Send + Sync` — its only mutable state is the
    /// atomic [`CommStats`] counters — so a handle may be used from any
    /// number of threads at once.
    pub fn shared(config: ClusterConfig) -> std::sync::Arc<Self> {
        // Compile-time proof that handles are shareable across threads.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Cluster>();
        std::sync::Arc::new(Cluster::new(config))
    }

    /// Number of workers — fixed for the cluster's lifetime.
    pub fn num_workers(&self) -> usize {
        self.config.num_workers
    }

    /// The configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Communication counters.
    pub fn comm(&self) -> &CommStats {
        &self.comm
    }

    /// The α cost model for converting counters into seconds.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost_model
    }

    /// Runs `f(worker_id)` once per worker, in parallel on OS threads, and
    /// reports per-worker timings. `f` must be `Sync` because all workers
    /// share it; per-worker mutable state lives in the closure's return.
    pub fn run<R, F>(&self, f: F) -> RunReport<R>
    where
        R: Send,
        F: Fn(WorkerId) -> R + Sync,
    {
        self.run_traced(&Tracer::disabled(), "worker", |w, _span| f(w))
    }

    /// [`Cluster::run`] recording one `name` span per worker on that
    /// worker's trace lane (`w + 1` — see
    /// [`lane_for_worker`]). The closure may
    /// annotate its own span with counters (tuples joined, seeks, …); with
    /// a disabled tracer the guard is inert and this is exactly
    /// [`Cluster::run`].
    ///
    /// Worker 0 runs on the calling thread, under the same timing, span and
    /// panic isolation as every other worker, so a phase spawns only `W − 1`
    /// scoped threads; the caller would otherwise sit idle waiting for them.
    /// Each spawned worker's span carries `start_lag_us`: the time from its
    /// dispatch (just before its spawn) to its first instruction.
    pub fn run_traced<R, F>(&self, tracer: &Tracer, name: &'static str, f: F) -> RunReport<R>
    where
        R: Send,
        F: Fn(WorkerId, &mut SpanGuard<'_>) -> R + Sync,
    {
        let n = self.num_workers();
        if self.spawn_threads {
            std::thread::scope(|s| {
                let f = &f;
                let others: Vec<_> = (1..n)
                    .map(|w| {
                        let dispatched = Instant::now();
                        s.spawn(move || run_worker(tracer, name, f, w, Some(dispatched)))
                    })
                    .collect();
                let first = run_worker(tracer, name, f, 0, None);
                let joined = others
                    .into_iter()
                    .map(|h| h.join().expect("worker panics are caught inside the closure"));
                collect_report(std::iter::once(first).chain(joined))
            })
        } else {
            // Single hardware thread (or one worker): the logical workers
            // would serialize anyway, so run them inline and keep the
            // spawn/join cost off the serving hot path.
            self.run_inline(tracer, name, f)
        }
    }

    /// Runs a claimed phase of `units` units: every worker gets one shared
    /// cursor over them and calls `f(&cursor, span)`, claiming units
    /// ([`Morsels::claim`]) until none is left, under one `name` span on its
    /// lane. A phase of at most one unit runs every worker on the calling
    /// thread, one after the other, under the same timing, span and panic
    /// isolation — the workers after the first find nothing left, and no
    /// thread is spawned for them; a wider one runs as
    /// [`Cluster::run_traced`]. A worker may [`Morsels::halt`] the cursor or
    /// [`Morsels::stop_after`] a unit for all of them.
    pub fn run_claimed<R, F>(
        &self,
        tracer: &Tracer,
        name: &'static str,
        units: usize,
        f: F,
    ) -> RunReport<R>
    where
        R: Send,
        F: Fn(&Morsels, &mut SpanGuard<'_>) -> R + Sync,
    {
        let morsels = Morsels::new(units);
        let work = |_w: WorkerId, span: &mut SpanGuard<'_>| f(&morsels, span);
        if units <= 1 {
            self.run_inline(tracer, name, work)
        } else {
            self.run_traced(tracer, name, work)
        }
    }

    /// [`Cluster::run_traced`] with every worker on the calling thread, one
    /// after the other, under the same timing, span and panic isolation.
    fn run_inline<R, F>(&self, tracer: &Tracer, name: &'static str, f: F) -> RunReport<R>
    where
        F: Fn(WorkerId, &mut SpanGuard<'_>) -> R + Sync,
    {
        collect_report((0..self.num_workers()).map(|w| run_worker(tracer, name, &f, w, None)))
    }

    /// Opens one shuffle round over the configured transport backend.
    /// `schemas` is the induced layout of each relation in the round — the
    /// serialized backend decodes frames back into these schemas. The
    /// round records traffic on this cluster's [`CommStats`] from its first
    /// batch: a round that sends nothing records 0 rounds / 0 messages /
    /// 0 bytes on both backends.
    pub fn open_round(&self, schemas: Vec<Schema>) -> TransportRound<'_> {
        TransportRound::new(self.config.transport, schemas, self.num_workers(), &self.comm)
    }
}

/// Runs one worker closure under timing, tracing, and panic isolation. A
/// spawned worker is told when it was `dispatched`, and its span records
/// the lag to its first instruction as `start_lag_us`. Each worker runs
/// under `catch_unwind`: a panicking worker surfaces as a
/// `WorkerFailure` in its result slot instead of unwinding through the
/// coordinator (and, on the spawn path, instead of aborting the join).
/// `AssertUnwindSafe` is sound here because a failed slot's partial state
/// is never observed — the closure's only output is its (discarded)
/// return value.
fn run_worker<R, F>(
    tracer: &Tracer,
    name: &'static str,
    f: &F,
    w: WorkerId,
    dispatched: Option<Instant>,
) -> (Result<R, WorkerFailure>, f64)
where
    F: Fn(WorkerId, &mut SpanGuard<'_>) -> R + Sync,
{
    let t0 = Instant::now();
    let r = catch_unwind(AssertUnwindSafe(|| {
        let mut span = tracer.span(lane_for_worker(w), name);
        if let Some(dispatched) = dispatched {
            span.arg("start_lag_us", t0.duration_since(dispatched).as_micros() as u64);
        }
        let r = f(w, &mut span);
        drop(span);
        r
    }));
    (r.map_err(|payload| WorkerFailure::from_payload(w, payload)), t0.elapsed().as_secs_f64())
}

/// Folds per-worker `(result, seconds)` pairs into a [`RunReport`].
fn collect_report<R>(slots: impl Iterator<Item = (Result<R, WorkerFailure>, f64)>) -> RunReport<R> {
    let mut results = Vec::with_capacity(slots.size_hint().0);
    let mut worker_secs = Vec::with_capacity(slots.size_hint().0);
    for (r, t) in slots {
        results.push(r);
        worker_secs.push(t);
    }
    let makespan_secs = worker_secs.iter().copied().fold(0.0, f64::max);
    let total_secs = worker_secs.iter().sum();
    RunReport { results, worker_secs, makespan_secs, total_secs }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_executes_every_worker_in_order() {
        let c = Cluster::new(ClusterConfig::with_workers(5));
        let rep = c.run(|w| w * 10);
        assert!(rep.first_failure().is_none());
        assert_eq!(rep.worker_secs.len(), 5);
        assert!(rep.makespan_secs >= 0.0);
        assert!(rep.total_secs >= rep.makespan_secs);
        assert_eq!(rep.into_results().unwrap(), vec![0, 10, 20, 30, 40]);
    }

    #[test]
    fn run_is_actually_parallel_state() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let c = Cluster::new(ClusterConfig::with_workers(8));
        let counter = AtomicUsize::new(0);
        let rep = c.run(|_w| counter.fetch_add(1, Ordering::SeqCst));
        assert_eq!(rep.results.len(), 8);
        assert_eq!(counter.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn shared_cluster_runs_from_many_threads() {
        let c = Cluster::shared(ClusterConfig::with_workers(2));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = std::sync::Arc::clone(&c);
                s.spawn(move || {
                    let rep = c.run(|w| w + 1);
                    assert_eq!(rep.into_results().unwrap(), vec![1, 2]);
                });
            }
        });
    }

    #[test]
    fn panicking_worker_is_isolated_to_its_slot() {
        let c = Cluster::new(ClusterConfig::with_workers(4));
        let rep = c.run(|w| {
            if w == 2 {
                // resume_unwind: quiet (no panic-hook stderr), typed payload.
                std::panic::resume_unwind(Box::new("injected worker fault".to_string()));
            }
            w * 10
        });
        assert_eq!(rep.results.len(), 4, "every worker keeps its slot");
        assert_eq!(rep.worker_secs.len(), 4);
        for w in [0usize, 1, 3] {
            assert_eq!(rep.results[w], Ok(w * 10), "siblings of a failed worker are unaffected");
        }
        let failure = rep.first_failure().expect("worker 2 failed");
        assert_eq!(failure.worker, 2);
        assert_eq!(failure.message, "injected worker fault");
        let err: adj_relational::Error = rep.into_results().unwrap_err().into();
        assert_eq!(
            err,
            adj_relational::Error::WorkerPanicked {
                worker: Some(2),
                message: "injected worker fault".to_string()
            }
        );
    }

    #[test]
    fn worker_zero_runs_on_the_calling_thread_and_fails_alone() {
        let c = Cluster::new(ClusterConfig::with_workers(3));
        let caller = std::thread::current().id();
        let tracer = Tracer::new(64);
        let rep = c.run_traced(&tracer, "join", |w, span| {
            span.arg("worker", w as u64);
            if w == 0 {
                assert!(!c.spawn_threads || std::thread::current().id() == caller);
                std::panic::resume_unwind(Box::new("worker zero fault".to_string()));
            }
            w * 10
        });
        assert_eq!(rep.results.len(), 3, "every worker keeps its slot");
        let failure = rep.first_failure().expect("worker 0 failed");
        assert_eq!((failure.worker, failure.message.as_str()), (0, "worker zero fault"));
        assert_eq!((&rep.results[1], &rep.results[2]), (&Ok(10), &Ok(20)), "the others complete");
        let trace = tracer.finish();
        let joins = trace.events_named("join");
        assert_eq!(joins.len(), 3);
        for w in 0..3 {
            let lane = lane_for_worker(w);
            assert!(joins.iter().any(|e| e.lane == lane && e.args.get("worker") == Some(w as u64)));
        }
    }

    #[test]
    fn inline_path_catches_panics_too() {
        // One worker forces the inline (no-spawn) path.
        let c = Cluster::new(ClusterConfig::with_workers(1));
        assert!(!c.spawn_threads);
        let rep = c
            .run(|_w| -> usize { std::panic::resume_unwind(Box::new("inline fault".to_string())) });
        let failure = rep.first_failure().expect("the only worker failed");
        assert_eq!((failure.worker, failure.message.as_str()), (0, "inline fault"));
    }

    #[test]
    fn run_traced_records_one_lane_per_worker() {
        let c = Cluster::new(ClusterConfig::with_workers(3));
        let tracer = Tracer::new(64);
        let rep = c.run_traced(&tracer, "join", |w, span| {
            span.arg("tuples", w as u64);
            w
        });
        assert_eq!(rep.into_results().unwrap(), vec![0, 1, 2]);
        let trace = tracer.finish();
        let joins = trace.events_named("join");
        assert_eq!(joins.len(), 3);
        for w in 0..3 {
            assert!(joins.iter().any(|e| e.lane == lane_for_worker(w)));
        }
        assert_eq!(trace.sum_arg("tuples"), 3); // workers contributed 0 + 1 + 2
    }

    #[test]
    fn spawned_workers_record_their_start_lag() {
        let c = Cluster::new(ClusterConfig::with_workers(3));
        let tracer = Tracer::new(64);
        c.run_traced(&tracer, "join", |w, _| w).into_results().unwrap();
        let trace = tracer.finish();
        for e in trace.events_named("join") {
            // Worker 0 runs on the calling thread, so it was never
            // dispatched; on one hardware thread none is spawned.
            let spawned = c.spawn_threads && e.lane != lane_for_worker(0);
            assert_eq!(e.args.get("start_lag_us").is_some(), spawned, "lane {}", e.lane);
        }
    }

    /// A claimed phase whose workers return each unit they claimed.
    fn claim_all(c: &Cluster, units: usize) -> RunReport<Vec<(usize, usize)>> {
        c.run_claimed(&Tracer::disabled(), "claim", units, |morsels, _| {
            std::iter::from_fn(|| morsels.claim()).map(|u| (u, u * 10)).collect()
        })
    }

    #[test]
    fn a_claimed_phase_hands_out_each_unit_once_and_returns_them_in_unit_order() {
        for width in 1..=4 {
            let c = Cluster::new(ClusterConfig::with_workers(width));
            for units in [0, 1, 2, 7, 300] {
                let rep = claim_all(&c, units);
                assert_eq!(rep.results.len(), width, "every worker keeps its slot");
                for slot in &rep.results {
                    let claimed: Vec<usize> = slot.as_ref().unwrap().iter().map(|p| p.0).collect();
                    assert!(claimed.windows(2).all(|w| w[0] < w[1]), "one worker's claims ascend");
                }
                let expected: Vec<usize> = (0..units).map(|u| u * 10).collect();
                assert_eq!(rep.into_units().unwrap(), expected, "width {width}, {units} units");
            }
        }
    }

    #[test]
    fn halt_and_stop_after_end_a_claimed_phase_for_every_worker() {
        for width in 1..=4 {
            let c = Cluster::new(ClusterConfig::with_workers(width));
            let stopped = c.run_claimed(&Tracer::disabled(), "claim", 100, |morsels, _| {
                let mut claimed = Vec::new();
                while let Some(u) = morsels.claim() {
                    claimed.push((u, ()));
                    if u == 5 {
                        morsels.stop_after(u);
                        // Units past 5 may go to others before the stop
                        // lands, none after it.
                        assert_eq!(morsels.claim(), None);
                    }
                }
                claimed
            });
            let units: Vec<usize> =
                stopped.into_results().unwrap().into_iter().flatten().map(|p| p.0).collect();
            assert!((0..=5).all(|u| units.contains(&u)), "width {width}: {units:?}");
            let halted = c.run_claimed(&Tracer::disabled(), "claim", 100, |morsels, _| {
                let first = morsels.claim();
                morsels.halt();
                (first, morsels.claim(), morsels.halted())
            });
            for (first, after, halted) in halted.into_results().unwrap() {
                assert!(first.is_none_or(|u| u < 100) && after.is_none() && halted);
            }
        }
    }

    #[test]
    fn a_one_unit_phase_runs_every_worker_on_the_calling_thread() {
        let caller = std::thread::current().id();
        for width in 1..=4 {
            let c = Cluster::new(ClusterConfig::with_workers(width));
            let tracer = Tracer::new(64);
            let rep = c.run_claimed(&tracer, "claim", 1, |morsels, _| {
                (std::thread::current().id(), morsels.claim(), morsels.units())
            });
            let slots = rep.into_results().unwrap();
            assert!(slots.iter().all(|&(thread, _, units)| thread == caller && units == 1));
            assert_eq!(slots.iter().filter(|s| s.1 == Some(0)).count(), 1, "claimed once");
            let trace = tracer.finish();
            assert_eq!(trace.events_named("claim").len(), width, "one span per worker lane");
        }
    }

    #[test]
    fn a_panic_in_one_unit_fails_its_worker_typed() {
        for width in 1..=4 {
            let c = Cluster::new(ClusterConfig::with_workers(width));
            for units in [1, 9] {
                let rep = c.run_claimed(&Tracer::disabled(), "claim", units, |morsels, _| {
                    let mut done = Vec::new();
                    while let Some(u) = morsels.claim() {
                        if u == units - 1 {
                            std::panic::resume_unwind(Box::new(format!("unit {u} fault")));
                        }
                        done.push((u, u));
                    }
                    done
                });
                assert_eq!(rep.results.len(), width, "every worker keeps its slot");
                let failure = rep.into_units().unwrap_err();
                assert!(failure.worker < width);
                assert_eq!(failure.message, format!("unit {} fault", units - 1));
            }
        }
    }

    #[test]
    fn makespan_reflects_slowest_worker() {
        let c = Cluster::new(ClusterConfig::with_workers(3));
        let rep = c.run(|w| {
            if w == 2 {
                std::thread::sleep(std::time::Duration::from_millis(30));
            }
            w
        });
        assert!(rep.worker_secs[2] >= 0.03);
        assert!(rep.makespan_secs >= 0.03);
    }
}
