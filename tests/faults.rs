//! Chaos matrix for the fault-tolerance layer: every query-path injection
//! site × every workload shape × both plan strategies, under both panic
//! and cancel actions. Each cell must fail with a *typed*
//! [`ServiceError`] (never a process abort, never a poisoned lock), leave
//! no partial artifact behind, and serve the next identical query
//! byte-identical to an uninjected oracle — with the index cache warming
//! up again afterwards.
//!
//! The fault injector is process-global, so every test in this binary
//! takes the file-local [`SERIAL`] lock first: an uninjected oracle run
//! racing another test's installed plan would otherwise absorb its
//! faults. (Other test binaries are separate processes and unaffected.)

use adj::faults::{install, FaultAction, FaultPlan, FaultSite};
use adj::prelude::*;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Serializes the tests in this binary (see module docs).
static SERIAL: Mutex<()> = Mutex::new(());

const SHAPES: [PaperQuery; 3] = [PaperQuery::Q1, PaperQuery::Q4, PaperQuery::Q7];
const STRATEGIES: [Strategy; 2] = [Strategy::CoOptimize, Strategy::CommFirst];
/// The query-path sites; `MutationApply` is exercised by the mutation
/// tests below.
const QUERY_SITES: [FaultSite; 3] =
    [FaultSite::ShuffleRoute, FaultSite::TrieBuild, FaultSite::JoinEnumerate];

fn shape_db_name(q: PaperQuery) -> String {
    format!("db_{q:?}")
}

/// A deterministic test graph (same family as tests/service.rs).
fn graph() -> Relation {
    let edges: Vec<(Value, Value)> = (0..240u32)
        .flat_map(|i| vec![(i % 31, (i * 7 + 1) % 31), ((i * 3) % 31, (i * 11 + 5) % 31)])
        .collect();
    Relation::from_pairs(Attr(0), Attr(1), &edges)
}

/// A fresh (cold-cache) service pinned to `strategy`, with one database
/// per workload shape.
fn serving(strategy: Strategy) -> Arc<Service> {
    let config = ServiceConfig {
        adj: AdjConfig { cluster: ClusterConfig::with_workers(2), ..Default::default() },
        strategy,
        max_concurrent: 2,
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

/// Uninjected ground truth, one fresh service per strategy.
fn oracle_rows() -> HashMap<(Strategy, PaperQuery), Relation> {
    let mut truth = HashMap::new();
    for strategy in STRATEGIES {
        let service = serving(strategy);
        for shape in SHAPES {
            let out = service.execute(&shape_db_name(shape), &paper_query(shape)).unwrap();
            truth.insert((strategy, shape), out.rows().clone());
        }
    }
    truth
}

/// Sanity floor for the matrix: a cold run of every cell reaches every
/// query-path injection site at least once (so `nth: 0` arms always have
/// something to hit), and a warm run still reaches the enumeration sink.
#[test]
fn every_cold_cell_reaches_every_query_site() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for strategy in STRATEGIES {
        for shape in SHAPES {
            let service = serving(strategy);
            let q = paper_query(shape);
            let faults = install(FaultPlan::new());
            service.execute(&shape_db_name(shape), &q).unwrap();
            for site in QUERY_SITES {
                assert!(
                    faults.hits(site) > 0,
                    "{strategy:?} {shape:?} cold run never reached {site:?}"
                );
            }
            drop(faults);
            let faults = install(FaultPlan::new());
            service.execute(&shape_db_name(shape), &q).unwrap();
            assert!(
                faults.hits(FaultSite::JoinEnumerate) > 0,
                "{strategy:?} {shape:?} warm run never reached the join sink"
            );
        }
    }
}

/// The chaos matrix itself: 3 sites × 2 actions × 3 shapes × 2 strategies.
/// Every cell gets a fresh cold service so the build-path sites are live.
#[test]
fn chaos_matrix_fails_typed_and_recovers_byte_identical() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let truth = oracle_rows();

    for strategy in STRATEGIES {
        for shape in SHAPES {
            for site in QUERY_SITES {
                for action in [FaultAction::Panic, FaultAction::Cancel] {
                    let cell = format!("{strategy:?}/{shape:?}/{site:?}/{action:?}");
                    let service = serving(strategy);
                    let db = shape_db_name(shape);
                    let q = paper_query(shape);

                    let faults = install(FaultPlan::new().on(site, 0, action));
                    let err = service
                        .execute(&db, &q)
                        .expect_err(&format!("{cell}: injected fault must fail the query"));
                    assert!(faults.all_fired(), "{cell}: the arm never fired");
                    assert!(faults.hits(site) > 0, "{cell}: site not reached");
                    drop(faults);

                    match action {
                        FaultAction::Panic => {
                            let ServiceError::WorkerPanicked { message, .. } = &err else {
                                panic!("{cell}: expected WorkerPanicked, got {err:?}");
                            };
                            assert!(
                                message.contains(&format!("{site:?}")),
                                "{cell}: panic message {message:?} does not name the site"
                            );
                        }
                        FaultAction::Cancel => {
                            assert!(
                                matches!(err, ServiceError::Cancelled),
                                "{cell}: expected Cancelled, got {err:?}"
                            );
                        }
                        FaultAction::Delay(_) => unreachable!(),
                    }

                    // The failure was counted, typed, and nothing succeeded.
                    let m = service.stats().metrics;
                    assert_eq!(m.queries_failed, 1, "{cell}");
                    assert_eq!(m.queries_ok, 0, "{cell}");
                    match action {
                        FaultAction::Panic => assert_eq!(m.worker_panics_caught, 1, "{cell}"),
                        FaultAction::Cancel => assert_eq!(m.queries_cancelled, 1, "{cell}"),
                        FaultAction::Delay(_) => unreachable!(),
                    }

                    // Recovery: the same query on the same service now
                    // succeeds, byte-identical to the uninjected oracle —
                    // the failed attempt published no partial artifact.
                    let out = service
                        .execute(&db, &q)
                        .unwrap_or_else(|e| panic!("{cell}: recovery query failed: {e}"));
                    let expected = &truth[&(strategy, shape)];
                    let aligned = out.rows().permute(expected.schema().attrs()).unwrap();
                    assert_eq!(&aligned, expected, "{cell}: recovery diverged from oracle");

                    // And the caches warm back up: a third run reuses every
                    // index relation and hits the plan cache.
                    let before = service.stats();
                    let again = service.execute(&db, &q).unwrap();
                    let aligned = again.rows().permute(expected.schema().attrs()).unwrap();
                    assert_eq!(&aligned, expected, "{cell}: warm rerun diverged");
                    let after = service.stats();
                    assert_eq!(
                        after.metrics.index_relations_built, before.metrics.index_relations_built,
                        "{cell}: warm rerun rebuilt index relations"
                    );
                    assert!(
                        after.cache.hits > before.cache.hits,
                        "{cell}: warm rerun missed the plan cache"
                    );
                }
            }
        }
    }
}

/// MutationApply faults: a panicking or cancelled mutation batch must
/// leave the *old* snapshot servable, keep the mutation door un-wedged,
/// and let an identical retry land.
#[test]
fn mutation_faults_leave_the_old_snapshot_servable_and_retryable() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for action in [FaultAction::Panic, FaultAction::Cancel] {
        let service = serving(Strategy::CoOptimize);
        let db = shape_db_name(PaperQuery::Q1);
        let q = paper_query(PaperQuery::Q1);
        let relation = q.atoms[0].name.clone();
        let baseline = service.execute(&db, &q).unwrap().rows().clone();

        let batch = MutationBatch::new(&relation).insert(&[7, 11]).insert(&[11, 7]);
        let faults = install(FaultPlan::new().on(FaultSite::MutationApply, 0, action));
        let err = service.mutate(&db, &batch).expect_err("injected mutation fault must surface");
        assert!(faults.all_fired(), "{action:?}: the mutation arm never fired");
        drop(faults);
        match action {
            FaultAction::Panic => {
                assert!(
                    matches!(&err, ServiceError::WorkerPanicked { worker: None, .. }),
                    "{action:?}: got {err:?}"
                );
            }
            FaultAction::Cancel => {
                assert!(matches!(err, ServiceError::Cancelled), "{action:?}: got {err:?}");
            }
            FaultAction::Delay(_) => unreachable!(),
        }

        // The failed batch published nothing: queries still serve the old
        // snapshot.
        let still = service.execute(&db, &q).unwrap();
        let aligned = still.rows().permute(baseline.schema().attrs()).unwrap();
        assert_eq!(aligned, baseline, "{action:?}: failed mutation leaked partial state");

        // The door is un-wedged: an identical retry applies cleanly and
        // matches an oracle service that applied the same batch uninjected.
        let outcome = service.mutate(&db, &batch).expect("retry after fault");
        assert!(outcome.inserted > 0, "{action:?}: retry applied nothing");
        let mutated = service.execute(&db, &q).unwrap().rows().clone();

        let oracle = serving(Strategy::CoOptimize);
        oracle.mutate(&db, &batch).unwrap();
        let expected = oracle.execute(&db, &q).unwrap().rows().clone();
        let aligned = mutated.permute(expected.schema().attrs()).unwrap();
        assert_eq!(aligned, expected, "{action:?}: post-retry rows diverged from oracle");
    }
}

/// A zero deadline trips at the first checkpoint as a typed
/// [`ServiceError::DeadlineExceeded`]; the next undeadlined query serves
/// normally.
#[test]
fn zero_deadline_fails_typed_and_service_keeps_serving() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let service = serving(Strategy::CoOptimize);
    let db = shape_db_name(PaperQuery::Q1);
    let q = paper_query(PaperQuery::Q1);
    let err = service
        .execute_mode_with_deadline(&db, &q, OutputMode::Rows, Some(Duration::ZERO))
        .expect_err("a zero deadline cannot be met");
    assert!(
        matches!(err, ServiceError::DeadlineExceeded { deadline: Some(Duration::ZERO) }),
        "got {err:?}"
    );
    service.execute(&db, &q).expect("service must keep serving after a deadline miss");
    let m = service.stats().metrics;
    assert_eq!(m.queries_deadline_exceeded, 1);
    assert_eq!(m.queries_ok, 1);
}

/// Planning polls the deadline: the optimizer builds its sampling tries
/// with the round's builder, under the `ShuffleRoute` checkpoint, so a cold
/// CoOptimize query's first hit of that site is the planner's. A delay
/// there that outlasts the deadline fails the query typed while it plans:
/// no index is published, no plan is cached, and the next query serves.
#[test]
fn a_deadline_that_expires_while_planning_fails_typed_and_caches_nothing() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let service = serving(Strategy::CoOptimize);
    let db = shape_db_name(PaperQuery::Q4);
    let q = paper_query(PaperQuery::Q4);
    let deadline = Duration::from_millis(250);
    let faults = install(FaultPlan::new().delay_at(FaultSite::ShuffleRoute, 0, 3 * deadline));
    let err = service
        .execute_mode_with_deadline(&db, &q, OutputMode::Count, Some(deadline))
        .expect_err("the planner's first build outlasts the deadline");
    assert!(faults.all_fired(), "the planner never built a trie");
    assert_eq!(faults.hits(FaultSite::TrieBuild), 0, "the round never ran");
    drop(faults);
    assert!(
        matches!(err, ServiceError::DeadlineExceeded { deadline: Some(d) } if d == deadline),
        "got {err:?}"
    );
    let m = service.stats().metrics;
    assert_eq!((m.queries_failed, m.queries_deadline_exceeded), (1, 1));
    assert_eq!(service.index_cache_stats().insertions, 0, "nothing published");
    assert_eq!(service.cache_stats().len, 0, "no plan cached");
    service.check_invariants().unwrap();

    let out = service.execute_mode(&db, &q, OutputMode::Count).unwrap();
    assert!(!out.cache_hit, "the recovery plans afresh");
    assert_eq!(out.report.index_relations_reused, 0, "and builds every index");
}

/// The planner builds and samples on the workers. At width 2, a panic in
/// one of its build tasks (its builds read rows under the `ShuffleRoute`
/// checkpoint, and a cold CoOptimize query's first hit of that site is the
/// planner's) and a cancel while its walks run (each morsel polls the
/// `JoinEnumerate` checkpoint, which the planner reaches before any join)
/// each fail the query typed and count one failure. Neither caches a plan
/// or publishes a trie, and the next query on the same service plans
/// afresh and serves.
#[test]
fn a_planner_task_panic_and_a_cancel_while_sampling_fail_typed_and_cache_nothing() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let db = shape_db_name(PaperQuery::Q4);
    let q = paper_query(PaperQuery::Q4);
    let truth = serving(Strategy::CoOptimize).execute_mode(&db, &q, OutputMode::Count).unwrap();
    for (site, action) in [
        (FaultSite::ShuffleRoute, FaultAction::Panic),
        (FaultSite::JoinEnumerate, FaultAction::Cancel),
    ] {
        let cell = format!("{site:?}/{action:?}");
        let service = serving(Strategy::CoOptimize);
        let faults = install(FaultPlan::new().on(site, 0, action));
        let err = service
            .execute_mode(&db, &q, OutputMode::Count)
            .expect_err(&format!("{cell}: the planner's fault must fail the query"));
        assert!(faults.all_fired(), "{cell}: the arm never fired");
        assert_eq!(faults.hits(FaultSite::TrieBuild), 0, "{cell}: the round never ran");
        if site == FaultSite::JoinEnumerate {
            assert!(faults.hits(FaultSite::ShuffleRoute) > 0, "{cell}: built before it walked");
        }
        drop(faults);
        let m = service.stats().metrics;
        match action {
            FaultAction::Panic => {
                assert!(
                    matches!(&err, ServiceError::WorkerPanicked { worker: Some(_), message }
                        if message.contains("ShuffleRoute")),
                    "{cell}: got {err:?}"
                );
                assert_eq!(m.worker_panics_caught, 1, "{cell}");
            }
            _ => {
                assert!(matches!(err, ServiceError::Cancelled), "{cell}: got {err:?}");
                assert_eq!(m.queries_cancelled, 1, "{cell}");
            }
        }
        assert_eq!((m.queries_failed, m.queries_ok), (1, 0), "{cell}");
        assert_eq!(service.index_cache_stats().insertions, 0, "{cell}: nothing published");
        assert_eq!(service.cache_stats().len, 0, "{cell}: no plan cached");
        service.check_invariants().unwrap();

        let out = service.execute_mode(&db, &q, OutputMode::Count).unwrap();
        assert!(!out.cache_hit, "{cell}: the recovery plans afresh");
        assert_eq!(out.report.index_relations_reused, 0, "{cell}: and builds every index");
        assert_eq!(out.output, truth.output, "{cell}");
    }
}

/// Counting the last level by size must not count past the cancellation
/// checkpoints. A star of `LEAVES` edges out of node 0 under
/// `R1(a,b), R2(a,c)` puts `LEAVES` rows on each of the hub's last-level
/// nodes, `LEAVES²` in all, which Leapfrog adds up in bulk: the `COUNT`
/// still fails typed under a zero deadline, polls the `JoinEnumerate`
/// site once per `SINK_CHECK_EVERY` rows counted, and an arm on its last
/// poll — a bulk count's — still cancels the query.
#[test]
fn bulk_counted_last_level_keeps_every_cancellation_checkpoint() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    const LEAVES: Value = 3000;
    let (q, _) = parse_query("R1(a,b), R2(a,c)").unwrap();
    let star: Vec<(Value, Value)> = (1..=LEAVES).map(|leaf| (0, leaf)).collect();
    let service = serving(Strategy::CoOptimize);
    service
        .register_database("star", q.instantiate(&Relation::from_pairs(Attr(0), Attr(1), &star)));
    let count = || service.execute_mode("star", &q, OutputMode::Count);

    let err = service
        .execute_mode_with_deadline("star", &q, OutputMode::Count, Some(Duration::ZERO))
        .expect_err("a zero deadline cannot be met");
    assert!(matches!(err, ServiceError::DeadlineExceeded { .. }), "got {err:?}");

    let rows = u64::from(LEAVES) * u64::from(LEAVES);
    assert_eq!(count().unwrap().output, QueryOutput::Count(rows), "cold run");
    let faults = install(FaultPlan::new());
    assert_eq!(count().unwrap().output, QueryOutput::Count(rows), "warm run");
    let hits = faults.hits(FaultSite::JoinEnumerate);
    drop(faults);
    assert!(
        hits >= rows / adj::core::SINK_CHECK_EVERY,
        "{hits} polls for {rows} counted rows: a bulk count skipped checkpoints"
    );

    let faults = install(FaultPlan::new().cancel_at(FaultSite::JoinEnumerate, hits - 1));
    let err = count().expect_err("the last poll's cancel must fail the query");
    assert!(faults.all_fired(), "the arm on the last poll never fired");
    drop(faults);
    assert!(matches!(err, ServiceError::Cancelled), "got {err:?}");
    assert_eq!(count().unwrap().output, QueryOutput::Count(rows), "recovery");
}

/// A query whose intermediate is large and whose result is empty polls
/// the cancellation checkpoints while it enumerates, not only around it. A
/// triangle `COUNT` over the complete bipartite graph K₆₀,₆₀ (edges both
/// ways) binds 7,200 vertex pairs above its last level and closes no
/// triangle, so no sink ever takes a row: the traversal itself polls the
/// `JoinEnumerate` site once per `SINK_CHECK_EVERY` bindings, and an arm on
/// its last poll still cancels the query.
#[test]
fn empty_result_enumeration_keeps_polling_cancellation() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    const SIDE: Value = 60;
    let q = paper_query(PaperQuery::Q1);
    let edges: Vec<(Value, Value)> =
        (0..SIDE).flat_map(|x| (SIDE..2 * SIDE).flat_map(move |y| [(x, y), (y, x)])).collect();
    let service = serving(Strategy::CoOptimize);
    let db = q.instantiate(&Relation::from_pairs(Attr(0), Attr(1), &edges));
    service.register_database("bipartite", db);
    let count = || service.execute_mode("bipartite", &q, OutputMode::Count);

    assert_eq!(count().unwrap().output, QueryOutput::Count(0), "cold run");
    let faults = install(FaultPlan::new());
    let warm = count().unwrap();
    let hits = faults.hits(FaultSite::JoinEnumerate);
    drop(faults);
    assert_eq!(warm.output, QueryOutput::Count(0), "warm run");
    let pairs = u64::from(2 * SIDE * SIDE);
    let bound = warm.report.counters.tuples_per_level[1];
    assert!(bound >= pairs, "{bound} pairs bound: every edge binds one on some worker");
    assert!(
        hits >= pairs / adj::core::SINK_CHECK_EVERY,
        "{hits} polls over {pairs} bindings: the enumeration went unpolled"
    );

    let faults = install(FaultPlan::new().cancel_at(FaultSite::JoinEnumerate, hits - 1));
    let err = count().expect_err("the last poll's cancel must fail the query");
    assert!(faults.all_fired(), "the arm on the last poll never fired");
    drop(faults);
    assert!(matches!(err, ServiceError::Cancelled), "got {err:?}");
    assert_eq!(count().unwrap().output, QueryOutput::Count(0), "recovery");
}

/// An unbound `COUNT` of the 4-cycle Q8 is counted by bags: `{a,b,c}` and
/// `{a,c,d}`, the second reading `R3(c,d)` under an index of its own as
/// `d → c`. A cancel in the shuffle that builds that index fails the query
/// typed and publishes none of it; a cancel on the bag walks' last poll
/// fails a warm query typed and publishes nothing; a zero deadline fails
/// typed. After each, the invariants hold and the count is served again.
#[test]
fn counted_bags_cancel_typed_and_publish_nothing() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let q = paper_query(PaperQuery::Q8);
    // Communication-first plans pre-compute no bag, so the final round's
    // relations are Q8's four atoms.
    let fresh = || {
        let service = serving(Strategy::CommFirst);
        service.register_database("cycle", q.instantiate(&graph()));
        service
    };
    let truth = {
        let service = fresh();
        let rows = service.execute("cycle", &q).unwrap().rows().len() as u64;
        let out = service.execute_mode("cycle", &q, OutputMode::Count).unwrap();
        assert!(out.plan.count_split().is_some(), "Q8's count splits into bags");
        assert_eq!(out.output, QueryOutput::Count(rows), "the bags count every row");
        rows
    };

    // Cold: the reordered relation is routed last, by its own shuffle.
    let service = fresh();
    let faults = install(FaultPlan::new());
    let count = |service: &Service| service.execute_mode("cycle", &q, OutputMode::Count);
    assert_eq!(count(&service).unwrap().output, QueryOutput::Count(truth));
    let routes = faults.hits(FaultSite::ShuffleRoute);
    drop(faults);
    assert_eq!(service.index_cache_stats().insertions, 5, "four relations and a reordered one");
    let service = fresh();
    let faults = install(FaultPlan::new().cancel_at(FaultSite::ShuffleRoute, routes - 1));
    let err = count(&service).expect_err("a cancel in the reordered shuffle fails the query");
    assert!(faults.all_fired());
    drop(faults);
    assert!(matches!(err, ServiceError::Cancelled), "got {err:?}");
    assert_eq!(service.index_cache_stats().insertions, 4, "the reordered index is not published");
    service.check_invariants().unwrap();
    let retried = count(&service).unwrap();
    assert_eq!(retried.output, QueryOutput::Count(truth));
    assert_eq!(retried.report.index_relations_built, 1, "only the reordered index was missing");

    // Warm: the walks poll the join's checkpoint, and a cancel on the last
    // poll fails the query.
    let faults = install(FaultPlan::new());
    let warm = count(&service).unwrap();
    let polls = faults.hits(FaultSite::JoinEnumerate);
    drop(faults);
    assert_eq!(warm.report.index_relations_built, 0);
    let first_values = warm.report.counters.tuples_per_level[0];
    assert!(polls >= first_values, "{polls} polls for {first_values} bag bindings of a");
    let before = service.index_cache_stats();
    let faults = install(FaultPlan::new().cancel_at(FaultSite::JoinEnumerate, polls - 1));
    let err = count(&service).expect_err("the last poll's cancel must fail the query");
    assert!(faults.all_fired(), "the arm on the last poll never fired");
    drop(faults);
    assert!(matches!(err, ServiceError::Cancelled), "got {err:?}");
    assert_eq!(service.index_cache_stats().insertions, before.insertions);
    service.check_invariants().unwrap();

    let err = service
        .execute_mode_with_deadline("cycle", &q, OutputMode::Count, Some(Duration::ZERO))
        .expect_err("a zero deadline cannot be met");
    assert!(matches!(err, ServiceError::DeadlineExceeded { .. }), "got {err:?}");
    service.check_invariants().unwrap();
    assert_eq!(count(&service).unwrap().output, QueryOutput::Count(truth), "recovery");
}

/// The seeded chaos sweep: a pseudo-random plan drawn from `FAULTS_SEED`
/// (CI reruns the matrix under a second seed) fires panics, cancels, and
/// delays across all sites while a mixed query + mutation workload runs.
/// Every failure must be typed, the service must never wedge, and after
/// disarming it must serve every shape byte-identical to the oracle.
#[test]
fn seeded_plan_only_produces_typed_errors_and_service_survives() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let seed = std::env::var("FAULTS_SEED")
        .ok()
        .and_then(|s| {
            let s = s.trim();
            match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
                Some(hex) => u64::from_str_radix(hex, 16).ok(),
                None => s.parse().ok(),
            }
        })
        .unwrap_or(0xAD1_F417);

    let service = serving(Strategy::CoOptimize);
    let faults = install(FaultPlan::seeded(seed, 8));
    let mut failures = 0usize;
    for round in 0..4 {
        for shape in SHAPES {
            let db = shape_db_name(shape);
            match service.execute(&db, &paper_query(shape)) {
                Ok(_) => {}
                Err(
                    ServiceError::WorkerPanicked { .. }
                    | ServiceError::Cancelled
                    | ServiceError::DeadlineExceeded { .. },
                ) => failures += 1,
                Err(other) => panic!("seed {seed:#x} round {round}: untyped failure {other:?}"),
            }
            let relation = paper_query(shape).atoms[0].name.clone();
            let batch =
                MutationBatch::new(&relation).insert(&[100 + round as Value, 200 + round as Value]);
            match service.mutate(&db, &batch) {
                Ok(_) => {}
                Err(
                    ServiceError::WorkerPanicked { .. }
                    | ServiceError::Cancelled
                    | ServiceError::DeadlineExceeded { .. },
                ) => failures += 1,
                Err(other) => panic!("seed {seed:#x} round {round}: untyped mutate {other:?}"),
            }
        }
    }
    drop(faults);
    eprintln!("seeded sweep (seed {seed:#x}): {failures} injected failures absorbed");

    // Disarmed, the service serves every shape identical to an oracle that
    // took the same surviving mutations. Replay the workload's mutation
    // stream on a fresh service, retrying each batch until it lands (the
    // chaos run may have dropped some batches — that is the point).
    let oracle = serving(Strategy::CoOptimize);
    for round in 0..4 {
        for shape in SHAPES {
            let db = shape_db_name(shape);
            let relation = paper_query(shape).atoms[0].name.clone();
            let batch =
                MutationBatch::new(&relation).insert(&[100 + round as Value, 200 + round as Value]);
            // Inserts are idempotent (set semantics), so "apply every batch"
            // is the closure of every partial history the chaos run allows…
            // except batches the chaos run *rejected*, which it must NOT
            // have applied. Re-apply on the live service too: after the
            // disarm both sides converge on the full stream.
            service.mutate(&db, &batch).unwrap();
            oracle.mutate(&db, &batch).unwrap();
        }
    }
    for shape in SHAPES {
        let db = shape_db_name(shape);
        let q = paper_query(shape);
        let got = service.execute(&db, &q).unwrap().rows().clone();
        let expected = oracle.execute(&db, &q).unwrap().rows().clone();
        let aligned = got.permute(expected.schema().attrs()).unwrap();
        assert_eq!(aligned, expected, "seed {seed:#x}: {shape:?} diverged after disarm");
    }
}
