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
    pub fn run_traced<R, F>(&self, tracer: &Tracer, name: &'static str, f: F) -> RunReport<R>
    where
        R: Send,
        F: Fn(WorkerId, &mut SpanGuard<'_>) -> R + Sync,
    {
        let n = self.num_workers();
        if self.spawn_threads {
            let mut slots: Vec<Option<(Result<R, WorkerFailure>, f64)>> =
                (0..n).map(|_| None).collect();
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..n)
                    .map(|w| {
                        let f = &f;
                        s.spawn(move || run_worker(tracer, name, f, w))
                    })
                    .collect();
                for (w, h) in handles.into_iter().enumerate() {
                    slots[w] = Some(h.join().expect("worker panics are caught inside the closure"));
                }
            });
            collect_report(slots.into_iter().map(|s| s.expect("all workers joined")))
        } else {
            // Single hardware thread (or one worker): the logical workers
            // would serialize anyway, so run them inline and keep the
            // spawn/join cost off the serving hot path.
            collect_report((0..n).map(|w| run_worker(tracer, name, &f, w)))
        }
    }

    /// Opens one shuffle round over the configured transport backend.
    /// `schemas` is the induced layout of each relation in the round — the
    /// serialized backend decodes frames back into these schemas. The
    /// round records traffic on this cluster's [`CommStats`] lazily:
    /// untouched (fully warm) rounds record 0 rounds / 0 messages /
    /// 0 bytes on both backends.
    pub fn open_round(&self, schemas: Vec<Schema>) -> TransportRound<'_> {
        TransportRound::new(self.config.transport, schemas, self.num_workers(), &self.comm)
    }

    /// Runs a shuffle round with delivery and consumption pipelined:
    /// `coordinator` routes batches into `round` while each worker `w`
    /// runs `f(w, span)`, receiving from `round.recv(w)` and building as
    /// relations complete. With OS threads available the coordinator and
    /// workers genuinely overlap; otherwise the coordinator runs first and
    /// workers drain the buffered lanes inline — identical results, no
    /// overlap.
    ///
    /// The round is always closed before workers are joined (coordinator
    /// panic path included), so receivers can never block forever. A
    /// coordinator panic resumes on the calling thread *after* all workers
    /// finish.
    pub fn run_pipelined<T, R, C, F>(
        &self,
        tracer: &Tracer,
        name: &'static str,
        round: &TransportRound<'_>,
        coordinator: C,
        f: F,
    ) -> (T, RunReport<R>)
    where
        T: Send,
        R: Send,
        C: FnOnce() -> T + Send,
        F: Fn(WorkerId, &mut SpanGuard<'_>) -> R + Sync,
    {
        let n = self.num_workers();
        if self.spawn_threads {
            let mut slots: Vec<Option<(Result<R, WorkerFailure>, f64)>> =
                (0..n).map(|_| None).collect();
            let coord_out = std::thread::scope(|s| {
                let handles: Vec<_> = (0..n)
                    .map(|w| {
                        let f = &f;
                        s.spawn(move || run_worker(tracer, name, f, w))
                    })
                    .collect();
                // The coordinator runs on the calling thread while workers
                // consume; its panic must not leak past `round.close()` or
                // the workers would block on their lanes forever.
                let out = catch_unwind(AssertUnwindSafe(coordinator));
                round.close();
                for (w, h) in handles.into_iter().enumerate() {
                    slots[w] = Some(h.join().expect("worker panics are caught inside the closure"));
                }
                out
            });
            let report = collect_report(slots.into_iter().map(|s| s.expect("all workers joined")));
            match coord_out {
                Ok(t) => (t, report),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        } else {
            // No overlap available: route everything first, then drain the
            // buffered lanes worker by worker.
            let coord_out = catch_unwind(AssertUnwindSafe(coordinator));
            round.close();
            let report = collect_report((0..n).map(|w| run_worker(tracer, name, &f, w)));
            match coord_out {
                Ok(t) => (t, report),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
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
    let mut results = Vec::new();
    let mut worker_secs = Vec::new();
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
    fn run_pipelined_delivers_batches_to_building_workers() {
        use crate::transport::{BatchPayload, Delivery, RoutedBatch, TransportKind};
        use adj_relational::Attr;
        for kind in [TransportKind::InProcess, TransportKind::Serialized] {
            let mut cfg = ClusterConfig::with_workers(2);
            cfg.transport = kind;
            let c = Cluster::new(cfg);
            let schemas = vec![Schema::new(vec![Attr(0), Attr(1)]).unwrap()];
            let round = c.open_round(schemas);
            let (sent, run) = c.run_pipelined(
                &Tracer::disabled(),
                "build",
                &round,
                || {
                    for w in 0..2usize {
                        round.send(
                            w,
                            RoutedBatch {
                                relation: 0,
                                tuples: 1,
                                messages: 1,
                                payload: BatchPayload::Rows(vec![w as u32, 7]),
                            },
                        );
                    }
                    round.finish_relation(0);
                    2u64
                },
                |w, _span| {
                    let mut rows = Vec::new();
                    let mut done = false;
                    while let Some(d) = round.recv(w).unwrap() {
                        match d {
                            Delivery::Batch(b) => match b.payload {
                                BatchPayload::Rows(v) => rows.extend(v),
                                BatchPayload::SortedBlock(_) => unreachable!(),
                            },
                            Delivery::RelationDone(0) => done = true,
                            Delivery::RelationDone(_) => unreachable!(),
                        }
                    }
                    assert!(done, "{kind:?}: worker {w} missed the relation-done marker");
                    rows
                },
            );
            assert_eq!(sent, 2);
            let rows = run.into_results().unwrap();
            assert_eq!(rows[0], vec![0, 7], "{kind:?}");
            assert_eq!(rows[1], vec![1, 7], "{kind:?}");
            let (tuples, _bytes, rounds, messages) = c.comm().take();
            assert_eq!((tuples, rounds, messages), (2, 1, 2), "{kind:?}");
        }
    }

    #[test]
    fn run_pipelined_coordinator_panic_still_joins_workers() {
        let c = Cluster::new(ClusterConfig::with_workers(2));
        let round = c.open_round(Vec::new());
        let out = catch_unwind(AssertUnwindSafe(|| {
            c.run_pipelined(
                &Tracer::disabled(),
                "build",
                &round,
                || -> () { std::panic::resume_unwind(Box::new("coordinator fault".to_string())) },
                |w, _span| {
                    // Drain to end-of-round; must terminate despite the
                    // coordinator panic.
                    while round.recv(w).unwrap().is_some() {}
                    w
                },
            )
        }));
        let payload = out.unwrap_err();
        assert_eq!(payload.downcast_ref::<String>().unwrap(), "coordinator fault");
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
