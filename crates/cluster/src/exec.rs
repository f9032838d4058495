//! Parallel per-worker execution with timing.

use crate::comm::{CommStats, CostModel};
use crate::transport::TransportRound;
use crate::{ClusterConfig, WorkerId};
use adj_relational::Schema;
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
    pub fn run_traced<R, F>(&self, tracer: &Tracer, name: &'static str, f: F) -> RunReport<R>
    where
        R: Send,
        F: Fn(WorkerId, &mut SpanGuard<'_>) -> R + Sync,
    {
        let n = self.num_workers();
        if self.spawn_threads {
            std::thread::scope(|s| {
                let f = &f;
                let others: Vec<_> =
                    (1..n).map(|w| s.spawn(move || run_worker(tracer, name, f, w))).collect();
                let first = run_worker(tracer, name, f, 0);
                let joined = others
                    .into_iter()
                    .map(|h| h.join().expect("worker panics are caught inside the closure"));
                collect_report(std::iter::once(first).chain(joined))
            })
        } else {
            // Single hardware thread (or one worker): the logical workers
            // would serialize anyway, so run them inline and keep the
            // spawn/join cost off the serving hot path.
            self.run_serial(tracer, name, f)
        }
    }

    /// [`Cluster::run_traced`] with every worker on the calling thread, one
    /// after the other, under the same timing, span and panic isolation:
    /// for a phase whose work fits one worker, so the workers after the
    /// first find nothing left and no thread is spawned for them.
    pub fn run_serial<R, F>(&self, tracer: &Tracer, name: &'static str, f: F) -> RunReport<R>
    where
        R: Send,
        F: Fn(WorkerId, &mut SpanGuard<'_>) -> R + Sync,
    {
        collect_report((0..self.num_workers()).map(|w| run_worker(tracer, name, &f, w)))
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

/// Runs one worker closure under timing, tracing, and panic isolation.
/// Each worker runs under `catch_unwind`: a panicking worker surfaces as a
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
) -> (Result<R, WorkerFailure>, f64)
where
    F: Fn(WorkerId, &mut SpanGuard<'_>) -> R + Sync,
{
    let t0 = Instant::now();
    let r = catch_unwind(AssertUnwindSafe(|| {
        let mut span = tracer.span(lane_for_worker(w), name);
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
