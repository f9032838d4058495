//! Batched-execution acceptance tests.
//!
//! Ground truth is the **bound-loop oracle**: `Service::execute_batch`
//! over a binding vector must return, slot for slot, byte-identical
//! outputs to looping `Service::execute_bound` over the same bindings —
//! for every bound paper shape, both plan-search strategies, and all four
//! output modes. On top of correctness, the batching contract: duplicate
//! submissions execute once, a repeated batch is served wholesale from
//! the per-binding result cache, deadlines surface as typed errors, and
//! concurrent cold misses on one index-cache entry coalesce to a single
//! build.

use adj::prelude::*;
use std::time::Duration;

const STRATEGIES: [Strategy; 2] = [Strategy::CoOptimize, Strategy::CommFirst];

/// `(shape, bound-at-$v query text)`: the same shape with the `a` vertex
/// turned into a parameter.
const BOUND_SHAPES: [(PaperQuery, &str); 3] = [
    (PaperQuery::Q1, "Q(b,c) :- R1($v,b), R2(b,c), R3($v,c)"),
    (PaperQuery::Q4, "Q(b,c,d,e) :- R1($v,b), R2(b,c), R3(c,d), R4(d,e), R5(e,$v), R6(b,e)"),
    (PaperQuery::Q7, "Q(b,c) :- R1($v,b), R2(b,c)"),
];

const MODES: [OutputMode; 4] =
    [OutputMode::Rows, OutputMode::Count, OutputMode::Limit(3), OutputMode::Exists];

/// A deterministic test graph with plenty of matches for every shape.
fn graph() -> Relation {
    let edges: Vec<(Value, Value)> = (0..240u32)
        .flat_map(|i| vec![(i % 31, (i * 7 + 1) % 31), ((i * 3) % 31, (i * 11 + 5) % 31)])
        .collect();
    Relation::from_pairs(Attr(0), Attr(1), &edges)
}

fn service_with(strategy: Strategy) -> Service {
    Service::new(ServiceConfig {
        adj: AdjConfig { cluster: ClusterConfig::with_workers(4), ..Default::default() },
        strategy,
        ..Default::default()
    })
}

/// The filter-then-join oracle: the unbound result filtered to rows whose
/// `a` column is `v`.
fn filter_count(full: &Relation, v: Value) -> usize {
    let a_col = full.schema().position(Attr(0)).expect("a in result");
    full.rows().filter(|r| r[a_col] == v).count()
}

#[test]
fn batched_results_match_the_bound_loop_for_every_shape_strategy_and_mode() {
    let g = graph();
    // Hot, sparse, and absent vertices, with duplicates to exercise dedup.
    let vs = [1u32, 17, 30, 999, 17, 1];
    let bindings: Vec<Bindings> = vs.iter().map(|&v| Bindings::new().set("v", v)).collect();

    for (shape, text) in BOUND_SHAPES {
        let unbound = paper_query(shape);
        let db = unbound.instantiate(&g);
        let (bound_q, _) = parse_query(text).unwrap();
        for strategy in STRATEGIES {
            let service = service_with(strategy);
            service.register_database("g", db.clone());
            let full = service.execute("g", &unbound).unwrap();
            let prepared = service.prepare("g", &bound_q).unwrap();
            service.check_invariants().unwrap();
            for mode in MODES {
                let batch = service.execute_batch(&prepared, &bindings, mode).unwrap();
                service.check_invariants().unwrap();
                assert_eq!(batch.results.len(), vs.len());
                assert_eq!(batch.mode, mode);
                assert!(
                    batch.unique_executed <= 4,
                    "{shape:?}/{strategy:?}/{mode:?}: duplicates must deduplicate"
                );
                for (&v, got) in vs.iter().zip(&batch.results) {
                    // The loop oracle shares the batch's cached plan, so
                    // byte-identity is exact (Limit's canonical sample
                    // depends on the plan's attribute order).
                    let b = Bindings::new().set("v", v);
                    let want = service.execute_bound(&prepared, &b, mode).unwrap();
                    service.check_invariants().unwrap();
                    assert_eq!(
                        got.as_ref().unwrap(),
                        &want.output,
                        "{shape:?}/{strategy:?}/{mode:?}/v={v}: batch slot must equal the loop"
                    );
                    // Anchor against the filter-then-join oracle too.
                    let oracle = filter_count(full.rows(), v);
                    match mode {
                        OutputMode::Rows => {
                            assert_eq!(want.rows().len(), oracle, "{shape:?}/v={v}")
                        }
                        OutputMode::Count => {
                            assert_eq!(want.output, QueryOutput::Count(oracle as u64))
                        }
                        OutputMode::Exists => {
                            assert_eq!(want.output, QueryOutput::Exists(oracle > 0))
                        }
                        OutputMode::Limit(n) => {
                            assert_eq!(want.rows().len(), n.min(oracle))
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn re_registering_one_database_keeps_anothers_results() {
    let service = service_with(Strategy::CoOptimize);
    let db = paper_query(PaperQuery::Q1).instantiate(&graph());
    service.register_database("a", db.clone());
    service.register_database("b", db.clone());
    let (q, _) = parse_query(BOUND_SHAPES[0].1).unwrap();
    let on_b = service.prepare("b", &q).unwrap();
    let bindings: Vec<Bindings> = [3u32, 9].iter().map(|&v| Bindings::new().set("v", v)).collect();
    service.execute_batch(&on_b, &bindings, OutputMode::Count).unwrap();
    service.register_database("a", db);
    let again = service.execute_batch(&on_b, &bindings, OutputMode::Count).unwrap();
    assert_eq!(again.result_cache_hits, 2, "re-registering a must not drop b's results");
    service.check_invariants().unwrap();
}

#[test]
fn repeated_batches_are_served_from_the_result_cache() {
    let service = service_with(Strategy::CoOptimize);
    service.register_database("g", paper_query(PaperQuery::Q1).instantiate(&graph()));
    let (q, _) = parse_query("Q(b,c) :- R1($v,b), R2(b,c), R3($v,c)").unwrap();
    let prepared = service.prepare("g", &q).unwrap();
    let bindings: Vec<Bindings> =
        [3u32, 9, 3, 21, 9, 3].iter().map(|&v| Bindings::new().set("v", v)).collect();

    let cold = service.execute_batch(&prepared, &bindings, OutputMode::Rows).unwrap();
    assert_eq!(cold.result_cache_hits, 0);
    assert_eq!(cold.unique_executed, 3, "three distinct vertices");

    let warm = service.execute_batch(&prepared, &bindings, OutputMode::Rows).unwrap();
    assert_eq!(warm.result_cache_hits, bindings.len(), "full re-batch must be all hits");
    assert_eq!(warm.unique_executed, 0);
    for (a, b) in cold.results.iter().zip(&warm.results) {
        assert_eq!(a.as_ref().unwrap(), b.as_ref().unwrap());
    }

    // A partially overlapping batch executes only the new vertices.
    let mixed: Vec<Bindings> = [3u32, 5, 9].iter().map(|&v| Bindings::new().set("v", v)).collect();
    let part = service.execute_batch(&prepared, &mixed, OutputMode::Rows).unwrap();
    assert_eq!(part.result_cache_hits, 2);
    assert_eq!(part.unique_executed, 1);

    let stats = service.stats();
    // The LRU is consulted once per *unique* binding (3 warm + 2 mixed);
    // the metrics counter tallies per-*submission* answers (6 warm + 2).
    assert_eq!(stats.results.hits, 5);
    assert_eq!(stats.metrics.batch_bindings_executed, 15);
    assert_eq!(stats.metrics.result_cache_hits, 8);
}

#[test]
fn empty_batches_and_binding_mismatches_are_typed() {
    let service = service_with(Strategy::CoOptimize);
    service.register_database("g", paper_query(PaperQuery::Q7).instantiate(&graph()));
    let (q, _) = parse_query("Q(b,c) :- R1($v,b), R2(b,c)").unwrap();
    let prepared = service.prepare("g", &q).unwrap();

    let empty = service.execute_batch(&prepared, &[], OutputMode::Rows).unwrap();
    assert!(empty.results.is_empty());
    assert_eq!(empty.unique_executed, 0);
    assert_eq!(service.metrics().batch_bindings_executed, 0);

    // A missing and an unknown parameter both fail the whole batch with
    // the library's typed errors — nothing half-executes.
    for bad in [Bindings::new(), Bindings::new().set("w", 1u32)] {
        let err = service.execute_batch(&prepared, &[bad], OutputMode::Rows).unwrap_err();
        assert!(
            matches!(
                err,
                ServiceError::Exec(adj::relational::Error::UnboundParam { .. })
                    | ServiceError::Exec(adj::relational::Error::UnknownParam { .. })
            ),
            "{err:?}"
        );
    }

    // PreparedQuery::bind exposes the same validation without executing.
    assert!(prepared.bind(&Bindings::new().set("v", 1u32)).is_ok());
    assert!(matches!(
        prepared.bind(&Bindings::new()).unwrap_err(),
        adj::relational::Error::UnboundParam { .. }
    ));
    assert!(matches!(
        prepared.bind(&Bindings::new().set("v", 1u32).set("w", 2u32)).unwrap_err(),
        adj::relational::Error::UnknownParam { .. }
    ));
}

#[test]
fn batch_deadlines_surface_as_typed_errors_not_partial_garbage() {
    let service = service_with(Strategy::CoOptimize);
    service.register_database("g", paper_query(PaperQuery::Q1).instantiate(&graph()));
    let (q, _) = parse_query("Q(b,c) :- R1($v,b), R2(b,c), R3($v,c)").unwrap();
    let prepared = service.prepare("g", &q).unwrap();
    let bindings: Vec<Bindings> = (0..16u32).map(|v| Bindings::new().set("v", v)).collect();

    let result = service.execute_batch_with_deadline(
        &prepared,
        &bindings,
        OutputMode::Rows,
        Some(Duration::ZERO),
    );
    // The zero deadline fires at the first checkpoint. Depending on where
    // that lands the whole batch fails, or completed bindings keep their
    // results and the rest observe the typed deadline error — either way
    // every slot is a definite outcome, never silently empty.
    match result {
        Err(e) => assert!(matches!(e, ServiceError::DeadlineExceeded { .. }), "{e:?}"),
        Ok(batch) => {
            assert_eq!(batch.results.len(), bindings.len());
            assert!(batch.results.iter().any(|r| matches!(
                r,
                Err(ServiceError::DeadlineExceeded { .. }) | Err(ServiceError::Cancelled)
            )));
        }
    }

    // An unconstrained resubmission runs clean: no partial cache artifacts
    // poisoned the result or index caches.
    let clean = service.execute_batch(&prepared, &bindings, OutputMode::Rows).unwrap();
    let full = service.execute("g", &paper_query(PaperQuery::Q1)).unwrap();
    for (v, got) in (0..16u32).zip(&clean.results) {
        let QueryOutput::Rows(rows) = got.as_ref().unwrap() else { panic!("rows mode") };
        assert_eq!(rows.len(), filter_count(full.rows(), v), "v={v}");
    }
}

#[test]
fn concurrent_cold_misses_coalesce_to_one_index_build() {
    let q = paper_query(PaperQuery::Q1);
    let db = q.instantiate(&graph());

    // Control: one query on a fresh service establishes how many index
    // relations a single cold run builds.
    let control = service_with(Strategy::CoOptimize);
    control.register_database("g", db.clone());
    control.execute("g", &q).unwrap();
    let control_built = control.metrics().index_relations_built;
    assert!(control_built > 0);

    // Race: many threads hit the same cold entries at once. Coalescing
    // must collapse the duplicate builds — the total equals the single
    // cold run, not N times it.
    let racy = Service::new(ServiceConfig {
        adj: AdjConfig { cluster: ClusterConfig::with_workers(4), ..Default::default() },
        max_concurrent: 8,
        ..Default::default()
    });
    racy.register_database("g", db);
    let expect = control.execute("g", &q).unwrap();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let (racy, q) = (&racy, &q);
                s.spawn(move || racy.execute("g", q).unwrap())
            })
            .collect();
        for h in handles {
            let out = h.join().unwrap();
            assert_eq!(out.rows().len(), expect.rows().len());
        }
    });
    let m = racy.metrics();
    assert_eq!(
        m.index_relations_built, control_built,
        "racing cold misses must coalesce to exactly one build per entry \
         ({} coalesced waits observed)",
        m.coalesced_builds
    );
}

/// The result LRU's counters replayed by hand for a sequence of batches:
/// each batch skims its distinct bindings in ascending order (a hit
/// refreshes the entry), then inserts the misses in the same order, each
/// insert past `capacity` evicting the least recently used entry. Returns
/// `(hits, misses, insertions, evictions)` after every batch.
fn hand_computed_lru(batches: &[Vec<Value>], capacity: usize) -> Vec<(u64, u64, u64, u64)> {
    let mut recency: Vec<Value> = Vec::new(); // least recent first
    let (mut hits, mut misses, mut insertions, mut evictions) = (0, 0, 0, 0);
    let mut after = Vec::new();
    for batch in batches {
        let mut uniques = batch.clone();
        uniques.sort_unstable();
        uniques.dedup();
        let mut cold = Vec::new();
        for v in uniques {
            match recency.iter().position(|&r| r == v) {
                Some(p) => {
                    recency.remove(p);
                    recency.push(v);
                    hits += 1;
                }
                None => {
                    misses += 1;
                    cold.push(v);
                }
            }
        }
        for v in cold {
            recency.push(v);
            insertions += 1;
            if recency.len() > capacity {
                recency.remove(0);
                evictions += 1;
            }
        }
        after.push((hits, misses, insertions, evictions));
    }
    after
}

#[test]
fn the_batch_door_matches_the_bound_loop_and_a_hand_computed_lru_under_eviction() {
    const CAPACITY: usize = 8;
    let g = graph();
    let service = Service::new(ServiceConfig {
        adj: AdjConfig { cluster: ClusterConfig::with_workers(2), ..Default::default() },
        result_cache_capacity: CAPACITY,
        trace: TraceSettings { enabled: true, ..Default::default() },
        ..Default::default()
    });
    service.register_database("g", paper_query(PaperQuery::Q1).instantiate(&g));
    let (q, _) = parse_query("Q(b,c) :- R1($v,b), R2(b,c), R3($v,c)").unwrap();
    let prepared = service.prepare("g", &q).unwrap();

    // ~100 Zipf draws over the graph's 31 vertices: hot ones repeat within
    // and across batches, and far more than eight are distinct, so the
    // LRU is full and evicting by the second batch.
    let draws = adj::datagen::binding_workload(
        &g,
        &adj::datagen::BindingWorkloadConfig { count: 99, column: 0, exponent: 0.8, seed: 11 },
    );
    let batches: Vec<Vec<Value>> = draws.chunks(33).map(<[Value]>::to_vec).collect();
    let expected = hand_computed_lru(&batches, CAPACITY);
    assert!(expected[2].3 > 0, "the draws must force evictions: {expected:?}");

    for (i, vs) in batches.iter().enumerate() {
        let bindings: Vec<Bindings> = vs.iter().map(|&v| Bindings::new().set("v", v)).collect();
        let batch = service.execute_batch(&prepared, &bindings, OutputMode::Rows).unwrap();
        for (&v, got) in vs.iter().zip(&batch.results) {
            let want =
                service.execute_bound(&prepared, &Bindings::new().set("v", v), OutputMode::Rows);
            assert_eq!(got.as_ref().unwrap(), &want.unwrap().output, "batch {i}, v={v}");
        }
        let s = service.result_cache_stats();
        assert_eq!((s.hits, s.misses, s.insertions, s.evictions), expected[i], "batch {i}");
        assert_eq!(s.len, (s.insertions - s.evictions) as usize);
        assert!(s.len <= CAPACITY);

        // The door's own spans say the same: `bind` counts the submissions
        // and their distinct bindings, the two `result_cache` intervals
        // (skim, inserts) this batch's share of the counters.
        let trace = batch.trace.as_ref().expect("traced");
        let bind = trace.events_named("bind");
        assert_eq!(bind.len(), 1, "batch {i}");
        let unique = {
            let mut u = vs.clone();
            u.sort_unstable();
            u.dedup();
            u.len() as u64
        };
        assert_eq!(bind[0].args.get("bindings"), Some(vs.len() as u64));
        assert_eq!(bind[0].args.get("unique"), Some(unique));
        let before = if i == 0 { (0, 0, 0, 0) } else { expected[i - 1] };
        let lru_spans = trace.events_named("result_cache");
        let arg_sum =
            |key: &str| lru_spans.iter().map(|e| e.args.get(key).unwrap_or(0)).sum::<u64>();
        assert_eq!(arg_sum("hits"), expected[i].0 - before.0, "batch {i}");
        assert_eq!(arg_sum("misses"), expected[i].1 - before.1, "batch {i}");
        assert_eq!(arg_sum("evictions"), expected[i].3 - before.3, "batch {i}");
    }
}

#[test]
fn both_bound_doors_name_the_same_bad_parameter() {
    let service = service_with(Strategy::CoOptimize);
    service.register_database("g", paper_query(PaperQuery::Q1).instantiate(&graph()));
    let (q, _) = parse_query("Q(b,c) :- R1($v,b), R2(b,c), R3($u,c)").unwrap();
    let prepared = service.prepare("g", &q).unwrap();
    use adj::relational::Error::{UnboundParam, UnknownParam};
    let cases = [
        (Bindings::new(), UnboundParam { name: "v".into() }),
        (Bindings::new().set("v", 1u32), UnboundParam { name: "u".into() }),
        (Bindings::new().set("u", 1u32), UnboundParam { name: "v".into() }),
        (
            Bindings::new().set("v", 1u32).set("x", 2u32).set("u", 3u32).set("w", 4u32),
            UnknownParam { name: "x".into() },
        ),
    ];
    for (bindings, want) in cases {
        let bound = service.execute_bound(&prepared, &bindings, OutputMode::Count).unwrap_err();
        assert!(matches!(&bound, ServiceError::Exec(e) if *e == want), "bound: {bound:?}");
        let ok = Bindings::new().set("v", 1u32).set("u", 2u32);
        let batch = service
            .execute_batch(&prepared, &[ok, bindings.clone()], OutputMode::Count)
            .unwrap_err();
        assert!(matches!(&batch, ServiceError::Exec(e) if *e == want), "batch: {batch:?}");
        assert_eq!(prepared.bind(&bindings).unwrap_err(), want);
    }
}
