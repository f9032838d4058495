//! Integration tests of the serving layer: concurrent mixed-shape traffic
//! must return byte-identical results to the single-shot `Adj::execute`
//! path, hit the plan cache on repeated shapes, and enforce admission
//! control.

use adj::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

/// The mixed workload: three shapes of increasing complexity (triangle,
/// square with both diagonals' 4-cycle structure, and the 5-clique-ish Q7).
const SHAPES: [PaperQuery; 3] = [PaperQuery::Q1, PaperQuery::Q4, PaperQuery::Q7];

fn shape_db_name(q: PaperQuery) -> String {
    format!("db_{:?}", q)
}

/// A deterministic test graph.
fn graph() -> Relation {
    let edges: Vec<(Value, Value)> = (0..240u32)
        .flat_map(|i| vec![(i % 31, (i * 7 + 1) % 31), ((i * 3) % 31, (i * 11 + 5) % 31)])
        .collect();
    Relation::from_pairs(Attr(0), Attr(1), &edges)
}

/// A service with one database registered per workload shape.
fn serving(workers: usize, max_concurrent: usize) -> Arc<Service> {
    let config = ServiceConfig {
        adj: AdjConfig { cluster: ClusterConfig::with_workers(workers), ..Default::default() },
        max_concurrent,
        ..Default::default()
    };
    let service = Arc::new(Service::new(config));
    let g = graph();
    for shape in SHAPES {
        let q = paper_query(shape);
        service.register_database(shape_db_name(shape), q.instantiate(&g));
    }
    service
}

/// The acceptance workload: 6 client threads × 10 queries each over 3
/// repeated shapes, validated byte-for-byte against sequential
/// `Adj::execute` and required to exceed a 50% plan-cache hit rate.
#[test]
fn concurrent_mixed_workload_matches_single_shot_and_hits_cache() {
    const THREADS: usize = 6;
    const PER_THREAD: usize = 10;
    let service = serving(4, 4);

    // Ground truth: the one-shot library path, one fresh Adj per query.
    let g = graph();
    let truth: HashMap<String, Relation> = SHAPES
        .iter()
        .map(|&shape| {
            let q = paper_query(shape);
            let db = q.instantiate(&g);
            let out = Adj::with_workers(4).execute(&q, &db).unwrap();
            (shape_db_name(shape), out.output.into_rows().unwrap())
        })
        .collect();

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let service = Arc::clone(&service);
            let truth = &truth;
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    let shape = SHAPES[(t + i) % SHAPES.len()];
                    let q = paper_query(shape);
                    let out = service.execute(&shape_db_name(shape), &q).unwrap();
                    let expected = &truth[&shape_db_name(shape)];
                    // Byte-identical: align attribute order, then compare
                    // the full normalized tuple sets.
                    let aligned = out.rows().permute(expected.schema().attrs()).unwrap();
                    assert_eq!(
                        &aligned, expected,
                        "thread {t} query {i} ({shape:?}) diverged from Adj::execute"
                    );
                }
            });
        }
    });

    let stats = service.stats();
    let total = (THREADS * PER_THREAD) as u64;
    assert_eq!(stats.metrics.queries_ok, total);
    assert_eq!(stats.metrics.queries_failed, 0);
    assert_eq!(stats.metrics.queries_rejected, 0);
    assert_eq!(stats.admission.admitted, total);
    assert!(stats.admission.peak_running <= 4, "admission limit breached");

    // Repeated shapes must reuse plans: ≥ 1 miss per shape is inevitable,
    // racing threads may each miss once, but the steady state is hits.
    assert!(stats.cache.hits > 0);
    assert!(
        stats.cache.hit_rate() > 0.5,
        "hit rate {:.2} too low (hits={} misses={})",
        stats.cache.hit_rate(),
        stats.cache.hits,
        stats.cache.misses
    );

    // Latency histograms saw every query.
    assert_eq!(stats.metrics.total.count, total);
    assert!(stats.metrics.total.mean_secs > 0.0);
    assert!(stats.metrics.total.p99_secs >= stats.metrics.total.p50_secs);
}

/// Four caller threads over one shared `Service` serve the same workload
/// with the same results.
#[test]
fn scoped_threads_serve_mixed_workload() {
    const THREADS: usize = 4;
    let service = serving(2, 2);
    // Thread `t` runs queries `t, t + THREADS, …` of the 24.
    let lens: Vec<Vec<(usize, usize)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let service = &service;
                s.spawn(move || {
                    (t..24)
                        .step_by(THREADS)
                        .map(|i| {
                            let shape = SHAPES[i % SHAPES.len()];
                            let out = service.execute(&shape_db_name(shape), &paper_query(shape));
                            (i, out.unwrap().rows().len())
                        })
                        .collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    // All succeed, and equal shapes return equal results.
    let mut by_shape: HashMap<String, usize> = HashMap::new();
    for (i, len) in lens.into_iter().flatten() {
        let shape = SHAPES[i % SHAPES.len()];
        let prev = by_shape.entry(shape_db_name(shape)).or_insert(len);
        assert_eq!(*prev, len, "query {i} cardinality diverged");
    }
    assert_eq!(service.metrics().queries_ok, 24);
    assert!(service.cache_stats().hit_rate() > 0.5);
}

/// Text-level `COUNT(...)` from concurrent callers: the mode prefix is
/// parsed service-side, the plan is shared with the `Rows`-mode
/// submission, and the answer matches the materialized cardinality.
#[test]
fn text_count_from_concurrent_callers() {
    let service = serving(2, 2);
    let db = shape_db_name(PaperQuery::Q1);
    let full = service.execute(&db, &paper_query(PaperQuery::Q1)).unwrap().rows().len() as u64;

    let count_text = "COUNT(Q(a,b,c) :- R1(a,b), R2(b,c), R3(a,c))";
    std::thread::scope(|s| {
        for _ in 0..3 {
            s.spawn(|| {
                for _ in 0..3 {
                    let out = service.execute_text(&db, count_text).unwrap();
                    assert_eq!(out.mode, OutputMode::Count);
                    assert_eq!(out.output, QueryOutput::Count(full));
                    assert!(out.cache_hit, "COUNT text must reuse the Rows-mode plan");
                }
            });
        }
    });

    let stats = service.stats();
    assert_eq!(stats.metrics.by_mode.count, 9);
    assert_eq!(stats.metrics.by_mode.rows, 1);
    assert_eq!(
        stats.metrics.output_tuples_returned, full,
        "only the one Rows query shipped tuples"
    );
}

/// Text submissions and value submissions share one plan-cache entry.
#[test]
fn text_and_value_submissions_share_plans() {
    let service = serving(2, 2);
    let q1 = paper_query(PaperQuery::Q1);
    let a = service.execute(&shape_db_name(PaperQuery::Q1), &q1).unwrap();
    let b = service
        .execute_text(
            &shape_db_name(PaperQuery::Q1),
            "anything(a,b,c) :- R1(a,b), R2(b,c), R3(a,c)",
        )
        .unwrap();
    assert!(!a.cache_hit);
    assert!(b.cache_hit, "text form of Q1 must hit the value form's plan");
    assert_eq!(a.rows(), b.rows());
}

/// Admission rejects instead of OOMing: a tiny cluster memory limit turns
/// into a per-query budget that an oversized query fails up front.
#[test]
fn admission_rejects_over_budget_queries() {
    let config = ServiceConfig {
        adj: AdjConfig {
            cluster: ClusterConfig {
                num_workers: 2,
                memory_limit_bytes: Some(128),
                ..Default::default()
            },
            ..Default::default()
        },
        max_concurrent: 2,
        ..Default::default()
    };
    let service = Service::new(config);
    let q = paper_query(PaperQuery::Q1);
    service.register_database("g", q.instantiate(&graph()));
    let err = service.execute("g", &q).unwrap_err();
    assert!(err.is_rejection(), "expected memory rejection, got: {err}");
    let stats = service.stats();
    assert_eq!(stats.metrics.queries_rejected, 1);
    assert_eq!(stats.admission.rejected_memory, 1);
    assert_eq!(stats.metrics.queries_ok, 0);
}

/// Load shedding under `AdmissionPolicy::Reject`: with one slot and no
/// queue, saturating traffic must produce rejections while every accepted
/// query still completes correctly.
#[test]
fn reject_policy_sheds_load_under_saturation() {
    let config = ServiceConfig {
        adj: AdjConfig { cluster: ClusterConfig::with_workers(2), ..Default::default() },
        max_concurrent: 1,
        admission: AdmissionPolicy::Reject,
        ..Default::default()
    };
    let service = Arc::new(Service::new(config));
    let q = paper_query(PaperQuery::Q4);
    service.register_database("g", q.instantiate(&graph()));

    let mut served = 0u64;
    let mut shed = 0u64;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..6)
            .map(|_| {
                let service = Arc::clone(&service);
                let q = q.clone();
                s.spawn(move || {
                    let mut ok = 0u64;
                    let mut rejected = 0u64;
                    for _ in 0..8 {
                        match service.execute("g", &q) {
                            Ok(_) => ok += 1,
                            Err(e) if e.is_rejection() => rejected += 1,
                            Err(e) => panic!("unexpected error: {e}"),
                        }
                    }
                    (ok, rejected)
                })
            })
            .collect();
        for h in handles {
            let (ok, rejected) = h.join().unwrap();
            served += ok;
            shed += rejected;
        }
    });

    assert_eq!(served + shed, 48);
    assert!(served > 0, "something must get through");
    let stats = service.stats();
    assert_eq!(stats.metrics.queries_ok, served);
    assert_eq!(stats.metrics.queries_rejected, shed);
    assert_eq!(stats.admission.peak_running, 1, "Reject policy allows no overlap");
}

/// The query doors that run the serve pipeline.
#[derive(Debug, Clone, Copy)]
enum Door {
    Mode,
    Text,
    Bound,
    Batch,
    Analyze,
}

const DOORS: [Door; 5] = [Door::Mode, Door::Text, Door::Bound, Door::Batch, Door::Analyze];
const TRIANGLE_COUNT: &str = "COUNT(R1(a,b), R2(b,c), R3(a,c))";

/// The bound triangle prepared against `db_name`. A statement pins no plan
/// and no service, so it is made on a throwaway one: the service under test
/// never saw the shape and its first bound call plans cold.
fn statement(db_name: &str) -> PreparedQuery {
    let scratch = Service::new(ServiceConfig::default());
    scratch.register_database(db_name, paper_query(PaperQuery::Q1).instantiate(&graph()));
    let (q, _) = parse_query("Q(b,c) :- R1($v,b), R2(b,c), R3($v,c)").unwrap();
    scratch.prepare(db_name, &q).unwrap()
}

impl Door {
    /// `Text` and `Analyze` take no deadline of their own; they fall back to
    /// `ServiceConfig::default_deadline`.
    fn takes_deadline(self) -> bool {
        matches!(self, Door::Mode | Door::Bound | Door::Batch)
    }

    /// One `Count`-mode triangle submission through this door.
    fn call(
        self,
        service: &Service,
        db_name: &str,
        deadline: Option<std::time::Duration>,
    ) -> Result<(), ServiceError> {
        let v = |v: u32| Bindings::new().set("v", v);
        let count = OutputMode::Count;
        match self {
            Door::Mode => service
                .execute_mode_with_deadline(db_name, &paper_query(PaperQuery::Q1), count, deadline)
                .map(drop),
            Door::Text => service.execute_text(db_name, TRIANGLE_COUNT).map(drop),
            Door::Bound => service
                .execute_bound_with_deadline(&statement(db_name), &v(3), count, deadline)
                .map(drop),
            Door::Batch => service
                .execute_batch_with_deadline(&statement(db_name), &[v(3), v(5)], count, deadline)
                .map(drop),
            Door::Analyze => service
                .explain_text(db_name, &format!("EXPLAIN ANALYZE {TRIANGLE_COUNT}"))
                .map(drop),
        }
    }
}

/// A two-worker service with the triangle database registered as `g`.
fn door_service(config: ServiceConfig) -> Service {
    let service = Service::new(config);
    service.register_database("g", paper_query(PaperQuery::Q1).instantiate(&graph()));
    service
}

fn two_workers() -> AdjConfig {
    AdjConfig { cluster: ClusterConfig::with_workers(2), ..Default::default() }
}

/// Every door runs the one pipeline, so every door shows the same stage
/// contract: how each early exit is typed and counted, that none of them
/// leaks an admission slot, what a cold and a warm pass put on the trace,
/// and that the slow log sees the call.
#[test]
fn every_door_runs_the_same_pipeline() {
    use std::time::Duration;
    for door in DOORS {
        // Unknown database: a failure, not a rejection.
        let service = door_service(ServiceConfig { adj: two_workers(), ..Default::default() });
        let err = door.call(&service, "nope", None).unwrap_err();
        assert!(matches!(err, ServiceError::UnknownDatabase(_)), "{door:?}: {err}");
        let m = service.metrics();
        assert_eq!((m.queries_failed, m.queries_rejected, m.queries_ok), (1, 0, 0), "{door:?}");

        // Over the per-query memory budget: rejected before a slot is taken.
        let tight =
            ClusterConfig { num_workers: 2, memory_limit_bytes: Some(128), ..Default::default() };
        let service = door_service(ServiceConfig {
            adj: AdjConfig { cluster: tight, ..Default::default() },
            ..Default::default()
        });
        let err = door.call(&service, "g", None).unwrap_err();
        assert!(matches!(err, ServiceError::RejectedMemory { .. }), "{door:?}: {err}");
        let stats = service.stats();
        assert_eq!(
            (stats.metrics.queries_rejected, stats.admission.rejected_memory),
            (1, 1),
            "{door:?}"
        );
        assert_eq!((stats.metrics.queries_failed, stats.metrics.queries_ok), (0, 0), "{door:?}");

        // A deadline that has already passed: typed with the deadline that
        // applied, counted once, and the slot it queued for is back.
        let zero = Some(Duration::ZERO);
        let service = door_service(ServiceConfig {
            adj: two_workers(),
            default_deadline: if door.takes_deadline() { None } else { zero },
            ..Default::default()
        });
        let err = door.call(&service, "g", zero).unwrap_err();
        assert!(
            matches!(err, ServiceError::DeadlineExceeded { deadline } if deadline == zero),
            "{door:?}: {err}"
        );
        let m = service.metrics();
        assert_eq!((m.queries_failed, m.queries_deadline_exceeded), (1, 1), "{door:?}");
        assert_eq!((m.queries_rejected, m.queries_ok), (0, 0), "{door:?}");
        assert_eq!(service.admission_stats().running, 0, "{door:?}: early return leaked a slot");

        // Cold then warm, traced through the slow log (threshold zero keeps
        // every call's timeline, whatever the door returns).
        let service = door_service(ServiceConfig {
            adj: two_workers(),
            trace: TraceSettings {
                slow_query_threshold: Some(Duration::ZERO),
                ..Default::default()
            },
            ..Default::default()
        });
        door.call(&service, "g", None).unwrap();
        let slow = service.slow_queries();
        assert_eq!(slow.len(), 1, "{door:?}: one call, one slow-log entry");
        assert_eq!(slow[0].db_name, "g", "{door:?}");
        let cold = &slow[0].trace;
        let lookup = cold.events_named("plan_lookup");
        let optimize = cold.events_named("optimize");
        assert_eq!((lookup.len(), optimize.len()), (1, 1), "{door:?}: cold call plans once");
        let (lookup, optimize) = (lookup[0], optimize[0]);
        assert_eq!(lookup.args.get("hit"), Some(0), "{door:?}");
        assert!(
            lookup.start_us <= optimize.start_us
                && optimize.start_us + optimize.dur_us <= lookup.start_us + lookup.dur_us,
            "{door:?}: optimize must nest inside plan_lookup"
        );
        assert_eq!(optimize.args.get("relations"), Some(3), "{door:?}");
        assert_eq!(optimize.args.get("precomputed_bags"), Some(0), "{door:?}");
        for (name, _) in adj::core::OptimizerStats::default().args() {
            assert!(optimize.args.get(name).is_some(), "{door:?}: optimize span lacks {name}");
        }
        let planned = service.metrics().optimization;
        assert_eq!(planned.count, 1, "{door:?}");
        assert!(planned.max_secs > 0.0, "{door:?}: the cold call is charged its planning");

        door.call(&service, "g", None).unwrap();
        let slow = service.slow_queries();
        assert_eq!(slow.len(), 2, "{door:?}");
        let hits: Vec<u64> = slow
            .iter()
            .map(|s| s.trace.events_named("plan_lookup")[0].args.get("hit").unwrap())
            .collect();
        assert_eq!(hits.iter().sum::<u64>(), 1, "{door:?}: exactly the second call hit: {hits:?}");
        let warm = &slow[hits.iter().position(|&h| h == 1).unwrap()];
        assert!(warm.trace.events_named("optimize").is_empty(), "{door:?}: a hit plans nothing");
        let replanned = service.metrics().optimization;
        assert_eq!(replanned.count, 2, "{door:?}");
        assert!(
            (replanned.mean_secs * 2.0 - planned.mean_secs).abs() <= 1e-9 * planned.mean_secs,
            "{door:?}: the warm call was charged optimization seconds"
        );
        let m = service.metrics();
        assert_eq!((m.queries_ok, m.slow_queries_logged), (2, 2), "{door:?}");
        assert_eq!(service.cache_stats().misses, 1, "{door:?}");
    }
}
