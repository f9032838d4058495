//! Transport oracle matrix. Serving never routes: the workers of a service
//! share one trie per relation, so a served query — cold or warm, on either
//! backend — moves no tuple, opens no round and puts no frame on the wire,
//! and the two backends serve every workload shape × plan strategy ×
//! output mode byte-identically. The transports are reached through the
//! paper's routed round, [`hcube_shuffle`], run under the plans the
//! services chose: the serialized wire backend must encode real frames
//! (non-zero `wire_bytes`) where the in-process backend moves none, and the
//! chaos matrix must hold on the serialized backend at the per-batch
//! transport fault sites.
//!
//! The fault injector is process-global, so every test in this binary
//! takes the file-local [`SERIAL`] lock first (the same discipline as
//! tests/faults.rs; other test binaries are separate processes).

use adj::faults::{install, FaultAction, FaultPlan, FaultSite};
use adj::hcube::{hcube_shuffle, HCubeImpl, HCubePlan, ShuffleOutput};
use adj::prelude::*;
use adj::relational::{Error, Result};
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

/// The routed round of `shape`'s relations under the order and share the
/// served query `out` ran with, on `cluster`.
fn shuffle(cluster: &Cluster, shape: PaperQuery, out: &ServiceOutcome) -> Result<ShuffleOutput> {
    let q = paper_query(shape);
    let names: Vec<String> = q.atoms.iter().map(|a| a.name.clone()).collect();
    let db = q.instantiate(&graph());
    let plan = HCubePlan::new(out.report.share.to_vec(), cluster.num_workers());
    hcube_shuffle(cluster, &db, &names, &plan, &out.plan.order, HCubeImpl::Merge)
}

/// A width-2 cluster on `transport`.
fn cluster_on(transport: TransportKind) -> Cluster {
    Cluster::new(ClusterConfig { transport, ..ClusterConfig::with_workers(2) })
}

/// The oracle matrix: two services differing *only* in transport serve
/// every shape × strategy × output mode identically, and neither's cluster
/// ledger records a tuple, a byte, a round or a message. The routed round under each cold plan puts real
/// frames on the wire on the serialized backend (`wire_bytes > 0` in its
/// report and bytes in its cluster's ledger); the in-process backend never
/// does.
#[test]
fn serialized_backend_is_byte_identical_to_in_process() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for strategy in STRATEGIES {
        let inproc = serving(strategy, TransportKind::InProcess);
        let wire = serving(strategy, TransportKind::Serialized);
        for shape in SHAPES {
            let db = shape_db_name(shape);
            let q = paper_query(shape);

            // Cold Rows run first: the one execution that builds indexes.
            let a = inproc.execute(&db, &q).unwrap();
            let b = wire.execute(&db, &q).unwrap();
            assert_eq!(a.output, b.output, "{strategy:?}/{shape:?}: cold Rows diverged");
            assert_eq!(
                inproc.cluster().comm().snapshot(),
                (0, 0, 0, 0),
                "{strategy:?}/{shape:?}: in-process serving routed"
            );
            assert_eq!(
                wire.cluster().comm().snapshot(),
                (0, 0, 0, 0),
                "{strategy:?}/{shape:?}: serialized serving routed"
            );
            // The routed round under the same plan puts frames on the wire.
            let routed_in = shuffle(&cluster_on(TransportKind::InProcess), shape, &a).unwrap();
            let routed_wire = shuffle(&cluster_on(TransportKind::Serialized), shape, &b).unwrap();
            assert_eq!(routed_in.report.wire_bytes, 0, "{strategy:?}/{shape:?}");
            assert!(
                routed_wire.report.wire_bytes > 0,
                "{strategy:?}/{shape:?}: serialized cold round put nothing on the wire"
            );
            // Both backends agree on the plan's communication cost and the
            // routed tuple volume — framing overhead is accounted
            // separately.
            assert_eq!(
                a.report.comm_tuples, b.report.comm_tuples,
                "{strategy:?}/{shape:?}: backends moved different tuple volumes"
            );
            assert_eq!(routed_in.report.tuples, routed_wire.report.tuples);

            // Every remaining mode runs warm off the shared index cache and
            // must agree across backends.
            for mode in MODES {
                let a = inproc.execute_mode(&db, &q, mode).unwrap();
                let b = wire.execute_mode(&db, &q, mode).unwrap();
                assert_eq!(a.output, b.output, "{strategy:?}/{shape:?}/{mode}: outputs diverged");
                assert_eq!(
                    wire.cluster().comm().snapshot(),
                    (0, 0, 0, 0),
                    "{strategy:?}/{shape:?}/{mode}: warm rerun re-shipped bytes"
                );
            }
        }
        for (service, backend) in [(&wire, "serialized"), (&inproc, "in-process")] {
            let ledger = service.cluster().comm().snapshot();
            assert_eq!(ledger, (0, 0, 0, 0), "{strategy:?}: {backend} serving moved data");
        }
        // A serialized cluster's ledger accumulates the routed round's bytes.
        let cluster = cluster_on(TransportKind::Serialized);
        let out = wire.execute(&shape_db_name(PaperQuery::Q1), &paper_query(PaperQuery::Q1));
        shuffle(&cluster, PaperQuery::Q1, &out.unwrap()).unwrap();
        assert!(cluster.comm().snapshot().1 > 0, "{strategy:?}: the ledger saw no wire bytes");
    }
}

/// Serving is structurally free on both backends: a cold run and a warm
/// rerun record zero tuples, zero bytes, zero rounds, AND zero messages —
/// the transport never even opens a round. The routed round on the
/// service's own cluster is what moves data.
#[test]
fn warm_path_moves_nothing_on_either_backend() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for transport in [TransportKind::InProcess, TransportKind::Serialized] {
        let service = serving(Strategy::CoOptimize, transport);
        let db = shape_db_name(PaperQuery::Q4);
        let q = paper_query(PaperQuery::Q4);

        let cold = service.execute(&db, &q).unwrap();
        assert_eq!(service.cluster().comm().snapshot(), (0, 0, 0, 0), "{transport:?}: cold run");
        shuffle(service.cluster(), PaperQuery::Q4, &cold).unwrap();
        let (tuples, bytes, rounds, messages) = service.cluster().comm().take();
        assert!(
            tuples > 0 && rounds > 0 && messages > 0,
            "{transport:?}: cold round moved nothing"
        );
        if transport == TransportKind::Serialized {
            assert!(bytes > 0, "serialized cold round recorded no wire bytes");
        }

        let warm = service.execute(&db, &q).unwrap();
        assert_eq!(cold.output, warm.output, "{transport:?}: warm rerun diverged");
        assert_eq!(
            service.cluster().comm().snapshot(),
            (0, 0, 0, 0),
            "{transport:?}: warm rerun was not communication-free"
        );
    }
}

/// The plans the services choose, per strategy and shape: what each
/// routed round below runs under.
fn served_plans() -> HashMap<(Strategy, PaperQuery), ServiceOutcome> {
    let mut plans = HashMap::new();
    for strategy in STRATEGIES {
        let service = serving(strategy, TransportKind::Serialized);
        for shape in SHAPES {
            let out = service.execute(&shape_db_name(shape), &paper_query(shape)).unwrap();
            plans.insert((strategy, shape), out);
        }
    }
    plans
}

/// Sanity floor for the chaos matrix below: a cold serialized round
/// reaches both per-batch transport sites (so `nth: 0` arms always have
/// something to hit), and a cold served query reaches neither.
#[test]
fn cold_serialized_runs_reach_both_transport_sites() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let plans = served_plans();
    for strategy in STRATEGIES {
        for shape in SHAPES {
            let faults = install(FaultPlan::new());
            let service = serving(strategy, TransportKind::Serialized);
            service.execute(&shape_db_name(shape), &paper_query(shape)).unwrap();
            for site in TRANSPORT_SITES {
                assert_eq!(
                    faults.hits(site),
                    0,
                    "{strategy:?} {shape:?}: serving reached {site:?}"
                );
            }
            let cluster = cluster_on(TransportKind::Serialized);
            shuffle(&cluster, shape, &plans[&(strategy, shape)]).unwrap();
            for site in TRANSPORT_SITES {
                assert!(
                    faults.hits(site) > 0,
                    "{strategy:?} {shape:?} cold round never reached {site:?}"
                );
            }
        }
    }
}

/// The chaos matrix on the serialized backend at the transport sites: 2
/// sites × 2 actions × 3 shapes × 2 strategies, each a routed round under
/// the plan the service chose. Every cell must fail typed (a send-side
/// panic is the coordinator's — `worker: None`; a receive-side panic names
/// the worker), leave nothing behind (the cluster's next round on the
/// same transport is unaffected), and recover byte-identical to an
/// uninjected oracle. A served query over the same shape, armed the same
/// way, never reaches the site.
#[test]
fn transport_chaos_matrix_fails_typed_and_recovers_byte_identical() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let plans = served_plans();
    let mut truth: HashMap<(Strategy, PaperQuery), ShuffleOutput> = HashMap::new();
    for (&cell, out) in &plans {
        let routed = shuffle(&cluster_on(TransportKind::Serialized), cell.1, out).unwrap();
        truth.insert(cell, routed);
    }

    for strategy in STRATEGIES {
        for shape in SHAPES {
            for site in TRANSPORT_SITES {
                for action in [FaultAction::Panic, FaultAction::Cancel] {
                    let cell = format!("{strategy:?}/{shape:?}/{site:?}/{action:?}");
                    let plan = &plans[&(strategy, shape)];
                    let cluster = cluster_on(TransportKind::Serialized);

                    let faults = install(FaultPlan::new().on(site, 0, action));
                    let served = serving(strategy, TransportKind::Serialized)
                        .execute(&shape_db_name(shape), &paper_query(shape))
                        .unwrap_or_else(|e| panic!("{cell}: serving reached the site: {e}"));
                    assert_eq!(served.output, plan.output, "{cell}: served output");
                    assert!(!faults.all_fired(), "{cell}: serving fired the arm");
                    let err = shuffle(&cluster, shape, plan)
                        .err()
                        .unwrap_or_else(|| panic!("{cell}: injected fault must fail the round"));
                    assert!(faults.all_fired(), "{cell}: the arm never fired");
                    drop(faults);

                    match action {
                        FaultAction::Panic => {
                            let Error::WorkerPanicked { worker, message } = &err else {
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
                                matches!(err, Error::Cancelled { .. }),
                                "{cell}: expected Cancelled, got {err:?}"
                            );
                        }
                        FaultAction::Delay(_) => unreachable!(),
                    }

                    // Recovery: the same round on the same cluster now
                    // succeeds, byte-identical to the uninjected oracle.
                    let out = shuffle(&cluster, shape, plan)
                        .unwrap_or_else(|e| panic!("{cell}: recovery round failed: {e}"));
                    let expected = &truth[&(strategy, shape)];
                    assert_eq!(out.report.tuples, expected.report.tuples, "{cell}");
                    for (w, (got, want)) in out.locals.iter().zip(&expected.locals).enumerate() {
                        for (g, x) in got.iter().zip(want) {
                            assert_eq!(g.trie, x.trie, "{cell}: worker {w} recovery diverged");
                        }
                    }
                }
            }
        }
    }
}

/// The transport is said in one place. A service configured with nothing
/// but `adj.cluster.transport = Serialized` must build a serialized
/// cluster (the old `ServiceConfig::transport` field silently overwrote it
/// with its own `InProcess` default): a routed round on the service's own
/// cluster puts frames on the wire, while serving puts none.
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
    assert_eq!(service.cluster().comm().snapshot(), (0, 0, 0, 0), "serving never routes");
    let db = q.instantiate(&graph());
    let names: Vec<String> = q.atoms.iter().map(|a| a.name.clone()).collect();
    let plan = HCubePlan::new(cold.report.share.to_vec(), 2);
    let routed =
        hcube_shuffle(service.cluster(), &db, &names, &plan, &cold.plan.order, HCubeImpl::Pull);
    assert!(
        routed.unwrap().report.wire_bytes > 0,
        "a serialized shuffle must put frames on the wire"
    );
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
