//! Transport oracle matrix: the serialized wire backend must be
//! observationally identical to the default in-process (`Arc`-passing)
//! backend — byte-identical results for every workload shape × plan
//! strategy × output mode — while actually encoding real frames (non-zero
//! `wire_bytes`) where the in-process backend moves none. The warm
//! index-cache path must move zero bytes, zero rounds, and zero messages
//! on *both* backends, and the PR 8 chaos matrix must hold on the
//! serialized backend at the new per-batch transport fault sites.
//!
//! The fault injector is process-global, so every test in this binary
//! takes the file-local [`SERIAL`] lock first (the same discipline as
//! tests/faults.rs; other test binaries are separate processes).

use adj::faults::{install, FaultAction, FaultPlan, FaultSite};
use adj::prelude::*;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Serializes the tests in this binary (see module docs).
static SERIAL: Mutex<()> = Mutex::new(());

const SHAPES: [PaperQuery; 3] = [PaperQuery::Q1, PaperQuery::Q4, PaperQuery::Q7];
const STRATEGIES: [Strategy; 2] = [Strategy::CoOptimize, Strategy::CommFirst];
const MODES: [OutputMode; 4] =
    [OutputMode::Rows, OutputMode::Count, OutputMode::Exists, OutputMode::Limit(5)];
/// The per-batch transport sites introduced with the serialized backend.
const TRANSPORT_SITES: [FaultSite; 2] = [FaultSite::TransportSend, FaultSite::TransportRecv];

fn shape_db_name(q: PaperQuery) -> String {
    format!("db_{q:?}")
}

/// A deterministic test graph (same family as tests/faults.rs).
fn graph() -> Relation {
    let edges: Vec<(Value, Value)> = (0..240u32)
        .flat_map(|i| vec![(i % 31, (i * 7 + 1) % 31), ((i * 3) % 31, (i * 11 + 5) % 31)])
        .collect();
    Relation::from_pairs(Attr(0), Attr(1), &edges)
}

/// A fresh (cold-cache) service pinned to `strategy` and `transport`,
/// with one database per workload shape.
fn serving(strategy: Strategy, transport: TransportKind) -> Arc<Service> {
    let config = ServiceConfig {
        adj: AdjConfig {
            cluster: ClusterConfig { transport, ..ClusterConfig::with_workers(2) },
            // Planning must be a pure function of the data here: the oracle
            // matrix compares *plans' outputs* across two service instances,
            // so a load-sensitive measured β could flip near-tie attribute
            // orders between them.
            cost: CostParams { measure_beta: false, ..Default::default() },
            ..Default::default()
        },
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

/// The oracle matrix: two services differing *only* in transport serve
/// every shape × strategy × output mode identically. The serialized
/// backend's cold runs put real frames on the wire (`wire_bytes > 0` in
/// the execution report and the metrics snapshot); the in-process backend
/// never does.
#[test]
fn serialized_backend_is_byte_identical_to_in_process() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for strategy in STRATEGIES {
        let inproc = serving(strategy, TransportKind::InProcess);
        let wire = serving(strategy, TransportKind::Serialized);
        for shape in SHAPES {
            let db = shape_db_name(shape);
            let q = paper_query(shape);

            // Cold Rows run first: the one execution that moves data.
            let a = inproc.execute(&db, &q).unwrap();
            let b = wire.execute(&db, &q).unwrap();
            assert_eq!(a.output, b.output, "{strategy:?}/{shape:?}: cold Rows diverged");
            assert_eq!(
                a.report.wire_bytes, 0,
                "{strategy:?}/{shape:?}: in-process transport reported wire bytes"
            );
            assert!(
                b.report.wire_bytes > 0,
                "{strategy:?}/{shape:?}: serialized cold run put nothing on the wire"
            );
            // Both backends agree on the modeled byte volume and tuple
            // counts — framing overhead is accounted separately.
            assert_eq!(
                a.report.comm_tuples, b.report.comm_tuples,
                "{strategy:?}/{shape:?}: backends moved different tuple volumes"
            );

            // Every remaining mode runs warm off the shared index cache and
            // must agree across backends.
            for mode in MODES {
                let a = inproc.execute_mode(&db, &q, mode).unwrap();
                let b = wire.execute_mode(&db, &q, mode).unwrap();
                assert_eq!(a.output, b.output, "{strategy:?}/{shape:?}/{mode}: outputs diverged");
                assert_eq!(
                    b.report.wire_bytes, 0,
                    "{strategy:?}/{shape:?}/{mode}: warm rerun re-shipped bytes"
                );
            }
        }
        let m = wire.stats().metrics;
        assert!(m.wire_bytes > 0, "{strategy:?}: metrics never accumulated wire bytes");
        assert_eq!(
            inproc.stats().metrics.wire_bytes,
            0,
            "{strategy:?}: in-process metrics accumulated wire bytes"
        );
    }
}

/// The warm index-cache path is structurally free on both backends: after
/// the cold run is taken, a warm rerun records zero tuples, zero bytes,
/// zero rounds, AND zero messages — the transport never even opens the
/// round (the round/message ledger is transport-owned now, so a fully
/// warm shuffle cannot leak a phantom round).
#[test]
fn warm_path_moves_nothing_on_either_backend() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for transport in [TransportKind::InProcess, TransportKind::Serialized] {
        let service = serving(Strategy::CoOptimize, transport);
        let db = shape_db_name(PaperQuery::Q4);
        let q = paper_query(PaperQuery::Q4);

        let cold = service.execute(&db, &q).unwrap();
        let (tuples, bytes, rounds, messages) = service.cluster().comm().take();
        assert!(tuples > 0 && rounds > 0 && messages > 0, "{transport:?}: cold run moved nothing");
        if transport == TransportKind::Serialized {
            assert!(bytes > 0, "serialized cold run recorded no wire bytes");
        }

        let warm = service.execute(&db, &q).unwrap();
        assert_eq!(cold.output, warm.output, "{transport:?}: warm rerun diverged");
        assert_eq!(
            service.cluster().comm().snapshot(),
            (0, 0, 0, 0),
            "{transport:?}: warm rerun was not communication-free"
        );
        assert_eq!(warm.report.wire_bytes, 0, "{transport:?}: warm rerun shipped frames");
    }
}

/// Sanity floor for the chaos matrix below: a cold serialized run reaches
/// both per-batch transport sites (so `nth: 0` arms always have something
/// to hit).
#[test]
fn cold_serialized_runs_reach_both_transport_sites() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for strategy in STRATEGIES {
        for shape in SHAPES {
            let service = serving(strategy, TransportKind::Serialized);
            let faults = install(FaultPlan::new());
            service.execute(&shape_db_name(shape), &paper_query(shape)).unwrap();
            for site in TRANSPORT_SITES {
                assert!(
                    faults.hits(site) > 0,
                    "{strategy:?} {shape:?} cold run never reached {site:?}"
                );
            }
        }
    }
}

/// The PR 8 chaos matrix rerun on the serialized backend at the new
/// transport sites: 2 sites × 2 actions × 3 shapes × 2 strategies. Every
/// cell must fail typed (a send-side panic is the coordinator's —
/// `worker: None`; a receive-side panic names the worker), publish no
/// partial artifact, and recover byte-identical to an uninjected oracle.
#[test]
fn transport_chaos_matrix_fails_typed_and_recovers_byte_identical() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut truth: HashMap<(Strategy, PaperQuery), Relation> = HashMap::new();
    for strategy in STRATEGIES {
        let service = serving(strategy, TransportKind::Serialized);
        for shape in SHAPES {
            let out = service.execute(&shape_db_name(shape), &paper_query(shape)).unwrap();
            truth.insert((strategy, shape), out.rows().clone());
        }
    }

    for strategy in STRATEGIES {
        for shape in SHAPES {
            for site in TRANSPORT_SITES {
                for action in [FaultAction::Panic, FaultAction::Cancel] {
                    let cell = format!("{strategy:?}/{shape:?}/{site:?}/{action:?}");
                    let service = serving(strategy, TransportKind::Serialized);
                    let db = shape_db_name(shape);
                    let q = paper_query(shape);

                    let faults = install(FaultPlan::new().on(site, 0, action));
                    let err = service
                        .execute(&db, &q)
                        .expect_err(&format!("{cell}: injected fault must fail the query"));
                    assert!(faults.all_fired(), "{cell}: the arm never fired");
                    drop(faults);

                    match action {
                        FaultAction::Panic => {
                            let ServiceError::WorkerPanicked { worker, message } = &err else {
                                panic!("{cell}: expected WorkerPanicked, got {err:?}");
                            };
                            assert!(
                                message.contains(&format!("{site:?}")),
                                "{cell}: panic message {message:?} does not name the site"
                            );
                            match site {
                                // Sends happen on the routing coordinator.
                                FaultSite::TransportSend => assert_eq!(
                                    *worker, None,
                                    "{cell}: send-side panic blamed a worker"
                                ),
                                // Receives happen inside a worker's build loop.
                                FaultSite::TransportRecv => assert!(
                                    worker.is_some(),
                                    "{cell}: recv-side panic did not name a worker"
                                ),
                                _ => unreachable!(),
                            }
                        }
                        FaultAction::Cancel => {
                            assert!(
                                matches!(err, ServiceError::Cancelled),
                                "{cell}: expected Cancelled, got {err:?}"
                            );
                        }
                        FaultAction::Delay(_) => unreachable!(),
                    }

                    // Recovery: the same query on the same service now
                    // succeeds, byte-identical to the uninjected oracle.
                    let out = service
                        .execute(&db, &q)
                        .unwrap_or_else(|e| panic!("{cell}: recovery query failed: {e}"));
                    let expected = &truth[&(strategy, shape)];
                    let aligned = out.rows().permute(expected.schema().attrs()).unwrap();
                    assert_eq!(&aligned, expected, "{cell}: recovery diverged from oracle");
                }
            }
        }
    }
}

/// The transport is said in one place. A service configured with nothing
/// but `adj.cluster.transport = Serialized` must run serialized (the old
/// `ServiceConfig::transport` field silently overwrote it with its own
/// `InProcess` default).
#[test]
fn the_cluster_config_alone_selects_the_transport() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let cluster =
        ClusterConfig { transport: TransportKind::Serialized, ..ClusterConfig::with_workers(2) };
    let service = Service::new(ServiceConfig {
        adj: AdjConfig { cluster, ..Default::default() },
        ..Default::default()
    });
    assert_eq!(service.cluster().config().transport, TransportKind::Serialized);
    let q = paper_query(PaperQuery::Q1);
    service.register_database("db", q.instantiate(&graph()));
    let cold = service.execute("db", &q).unwrap();
    assert!(cold.report.wire_bytes > 0, "a cold serialized shuffle must put frames on the wire");
}

/// Results are width-independent: services at widths 2 and 4 return
/// byte-identical Q7 rows, on both transports.
#[test]
fn results_are_width_independent_on_both_transports() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let q = paper_query(PaperQuery::Q7);
    let rows_at = |num_workers: usize, transport: TransportKind| {
        let cluster = ClusterConfig { transport, ..ClusterConfig::with_workers(num_workers) };
        let service = Service::new(ServiceConfig {
            adj: AdjConfig { cluster, ..Default::default() },
            ..Default::default()
        });
        assert_eq!(service.cluster().num_workers(), num_workers);
        service.register_database("db", q.instantiate(&graph()));
        service.execute("db", &q).unwrap().rows().clone()
    };
    let at_two = rows_at(2, TransportKind::InProcess);
    assert!(!at_two.is_empty());
    for (width, transport) in [
        (4, TransportKind::InProcess),
        (2, TransportKind::Serialized),
        (4, TransportKind::Serialized),
    ] {
        let aligned = rows_at(width, transport).permute(at_two.schema().attrs()).unwrap();
        assert_eq!(aligned, at_two, "width {width} on {transport:?} changed query results");
    }
}
