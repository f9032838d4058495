//! Prepared-query acceptance tests.
//!
//! Ground truth is the **filter-then-full-join oracle**: a query bound at
//! attribute `a = v` must return byte-for-byte the rows of the *unbound*
//! join whose `a` column equals `v` — for every paper shape, both
//! plan-search strategies, and all four output modes. On top of
//! correctness, the serving contract: `execute_bound`, `execute_batch` and
//! the unbound query answer from one index family — a bound call after the
//! first shuffles nothing, builds nothing and solves no share program, also
//! across mutations and re-registration — and bound executions never
//! pollute the shared cache entries.

use adj::prelude::*;

const STRATEGIES: [Strategy; 2] = [Strategy::CoOptimize, Strategy::CommFirst];

/// `(shape, bound-at-$v query text)`: the same shape with the `a` vertex
/// turned into a parameter.
const BOUND_SHAPES: [(PaperQuery, &str); 3] = [
    (PaperQuery::Q1, "Q(b,c) :- R1($v,b), R2(b,c), R3($v,c)"),
    (PaperQuery::Q4, "Q(b,c,d,e) :- R1($v,b), R2(b,c), R3(c,d), R4(d,e), R5(e,$v), R6(b,e)"),
    (PaperQuery::Q7, "Q(b,c) :- R1($v,b), R2(b,c)"),
];

/// A deterministic test graph with plenty of matches for every shape.
fn graph() -> Relation {
    let edges: Vec<(Value, Value)> = (0..240u32)
        .flat_map(|i| vec![(i % 31, (i * 7 + 1) % 31), ((i * 3) % 31, (i * 11 + 5) % 31)])
        .collect();
    Relation::from_pairs(Attr(0), Attr(1), &edges)
}

/// The oracle: the unbound result filtered to rows whose `a` column is `v`,
/// renormalized as a relation over the unbound result's schema.
fn filter_oracle(full: &Relation, v: Value) -> Relation {
    let a_col = full.schema().position(Attr(0)).expect("a in result");
    let rows: Vec<Vec<Value>> = full.rows().filter(|r| r[a_col] == v).map(|r| r.to_vec()).collect();
    let refs: Vec<&[Value]> = rows.iter().map(|r| r.as_slice()).collect();
    Relation::from_rows(full.schema().clone(), &refs).unwrap()
}

#[test]
fn bound_results_match_the_filter_then_join_oracle() {
    let g = graph();
    let adj = Adj::with_workers(4);
    for (shape, text) in BOUND_SHAPES {
        let unbound = paper_query(shape);
        let db = unbound.instantiate(&g);
        let (bound_q, _) = parse_query(text).unwrap();
        for strategy in STRATEGIES {
            let full = adj.execute_with(&unbound, &db, strategy, OutputMode::Rows).unwrap();
            let full = full.rows();
            let prepared = adj.prepare(&bound_q, &db, strategy).unwrap();
            // A well-matched vertex, a sparse one, and an absent one.
            for v in [1u32, 17, 30, 999] {
                let oracle = filter_oracle(full, v);
                let b = Bindings::new().set("v", v);

                // Rows: byte-identical after schema alignment.
                let rows = adj.execute_bound(&prepared, &db, &b, OutputMode::Rows).unwrap();
                let aligned = rows.rows().permute(oracle.schema().attrs()).unwrap();
                assert_eq!(aligned, oracle, "{shape:?}/{strategy:?}/v={v}: rows");
                assert!(rows.report.bound_values > 0);

                // Count / Exists: counters only, same answers.
                let count = adj.execute_bound(&prepared, &db, &b, OutputMode::Count).unwrap();
                assert_eq!(
                    count.output,
                    QueryOutput::Count(oracle.len() as u64),
                    "{shape:?}/{strategy:?}/v={v}: count"
                );
                assert_eq!(count.output.tuples_returned(), 0);
                let exists = adj.execute_bound(&prepared, &db, &b, OutputMode::Exists).unwrap();
                assert_eq!(
                    exists.output,
                    QueryOutput::Exists(!oracle.is_empty()),
                    "{shape:?}/{strategy:?}/v={v}: exists"
                );

                // Limit(n): the canonical n smallest rows of the bound
                // result, under the bound plan's attribute order.
                let n = 3usize;
                let limited = adj.execute_bound(&prepared, &db, &b, OutputMode::Limit(n)).unwrap();
                let expect = oracle.permute(limited.rows().schema().attrs()).unwrap();
                let keep = n.min(expect.len());
                let canonical = Relation::from_flat(
                    expect.schema().clone(),
                    expect.flat()[..keep * expect.schema().arity()].to_vec(),
                )
                .unwrap();
                assert_eq!(
                    limited.rows(),
                    &canonical,
                    "{shape:?}/{strategy:?}/v={v}: limit rows are the canonical sample"
                );
            }
        }
    }
}

#[test]
fn inline_literals_equal_bound_params() {
    // `R1(7,b), …` must be exactly `R1($v,b), …` bound at v=7 — same
    // results, same plan-cache entry (the fingerprint ignores values and
    // treats literal and parameter positions alike).
    let g = graph();
    let service = Service::new(ServiceConfig {
        adj: AdjConfig { cluster: ClusterConfig::with_workers(4), ..Default::default() },
        ..Default::default()
    });
    service.register_database("g", paper_query(PaperQuery::Q1).instantiate(&g));

    let (param_q, _) = parse_query("Q(b,c) :- R1($v,b), R2(b,c), R3($v,c)").unwrap();
    let prepared = service.prepare("g", &param_q).unwrap();
    let via_param =
        service.execute_bound(&prepared, &Bindings::new().set("v", 7), OutputMode::Rows).unwrap();
    let via_literal = service.execute_text("g", "Q(b,c) :- R1(7,b), R2(b,c), R3(7,c)").unwrap();
    assert!(via_literal.cache_hit, "the literal text must hit the prepared plan");
    assert_eq!(via_literal.fingerprint.plan_key, via_param.fingerprint.plan_key);
    assert_eq!(via_literal.rows(), via_param.rows());
}

#[test]
fn fifty_distinct_bindings_reuse_one_plan_and_index_family() {
    let g = graph();
    let service = Service::new(ServiceConfig {
        adj: AdjConfig { cluster: ClusterConfig::with_workers(4), ..Default::default() },
        ..Default::default()
    });
    let unbound = paper_query(PaperQuery::Q1);
    let db = unbound.instantiate(&g);
    service.register_database("g", db.clone());
    let full = Adj::with_workers(4).execute(&unbound, &db).unwrap();
    let full = full.rows();

    let (q, _) = parse_query("Q(b,c) :- R1($v,b), R2(b,c), R3($v,c)").unwrap();
    let prepared = service.prepare("g", &q).unwrap();

    let atoms = q.atoms.len() as u64;
    let mut entries = 0;
    let modes = [OutputMode::Rows, OutputMode::Count, OutputMode::Limit(2), OutputMode::Exists];
    for v in 0..50u32 {
        let b = Bindings::new().set("v", v);
        let mode = modes[v as usize % modes.len()];
        let out = service.execute_bound(&prepared, &b, mode).unwrap();
        assert!(out.cache_hit, "binding {v} must reuse the prepared plan");
        // The first call pays for the index family; nothing after it does.
        if v == 0 {
            assert_eq!(out.report.index_relations_built, atoms);
            entries = service.index_cache_stats().len;
        } else {
            assert_eq!(out.report.index_relations_built, 0, "binding {v} built an index");
            assert_eq!(out.report.index_relations_reused, atoms, "binding {v}");
            assert_eq!(out.report.comm_tuples, 0, "binding {v} shuffled");
        }
        let oracle = filter_oracle(full, v);
        match mode {
            OutputMode::Rows => {
                let aligned = out.rows().permute(oracle.schema().attrs()).unwrap();
                assert_eq!(aligned, oracle, "binding {v}");
            }
            OutputMode::Count => {
                assert_eq!(out.output, QueryOutput::Count(oracle.len() as u64), "binding {v}");
            }
            OutputMode::Exists => {
                assert_eq!(out.output, QueryOutput::Exists(!oracle.is_empty()), "binding {v}");
            }
            OutputMode::Limit(n) => {
                assert_eq!(out.rows().len(), n.min(oracle.len()), "binding {v}");
            }
        }
    }

    let stats = service.stats();
    assert!(
        stats.cache.hit_rate() > 0.9,
        "plan cache hit rate {:.3} must stay above 0.9 across distinct bindings",
        stats.cache.hit_rate()
    );
    assert!(
        stats.index.hit_rate() > 0.9,
        "index cache hit rate {:.3} must stay above 0.9 — binding-independent \
         relations are one warm entry family",
        stats.index.hit_rate()
    );
    assert_eq!(stats.metrics.queries_prepared, 1);
    assert_eq!(stats.metrics.queries_ok, 50);
    assert!(stats.metrics.params_bound >= 50);
    assert_eq!(stats.index.len, entries, "no binding may add an index-cache entry");

    // A batch of the same statement rides the same entries: the single
    // calls above left it nothing to build. (Values the result LRU has not
    // seen, so the batch does reach the shuffle.)
    let fresh: Vec<Bindings> = (100..110u32).map(|v| Bindings::new().set("v", v)).collect();
    let batch = service.execute_batch(&prepared, &fresh, OutputMode::Count).unwrap();
    assert_eq!(batch.report.index_relations_built, 0);
    assert_eq!(batch.report.index_relations_reused, atoms);
    assert_eq!(service.index_cache_stats().len, entries);
}

/// A shape, its prepared-statement text, and the literals that text pins.
type Door = (PaperQuery, &'static str, &'static [(Attr, Value)]);

/// The bound triangle, Q4 with `$v` at `a` and the literal 5 at `e`, and Q7.
const DOORS: [Door; 3] = [
    (PaperQuery::Q1, "Q(b,c) :- R1($v,b), R2(b,c), R3($v,c)", &[]),
    (
        PaperQuery::Q4,
        "Q(b,c,d) :- R1($v,b), R2(b,c), R3(c,d), R4(d,5), R5(5,$v), R6(b,5)",
        &[(Attr(4), 5)],
    ),
    (PaperQuery::Q7, "Q(b,c) :- R1($v,b), R2(b,c)", &[]),
];

/// Checks, for a few values of `$v` and all four modes, that
/// `execute_bound(b)`, `execute_batch(&[b]).results[0]` and the unbound
/// result filtered client-side agree. Returns the last bound call's report.
fn three_doors_agree(
    service: &Service,
    prepared: &PreparedQuery,
    unbound: &JoinQuery,
    pins: &[(Attr, Value)],
    label: &str,
) -> ExecutionReport {
    let full = service.execute("g", unbound).unwrap();
    let mut oracle = full.rows().clone();
    for &(attr, value) in pins {
        let col = oracle.schema().position(attr).expect("pinned attribute in the result");
        let rows: Vec<Vec<Value>> =
            oracle.rows().filter(|r| r[col] == value).map(|r| r.to_vec()).collect();
        let refs: Vec<&[Value]> = rows.iter().map(|r| r.as_slice()).collect();
        oracle = Relation::from_rows(oracle.schema().clone(), &refs).unwrap();
    }
    let mut last = None;
    // A well-matched vertex, a sparse one, and an absent one.
    for v in [1u32, 17, 999] {
        let expect = filter_oracle(&oracle, v);
        let b = Bindings::new().set("v", v);
        for mode in [OutputMode::Rows, OutputMode::Count, OutputMode::Limit(2), OutputMode::Exists]
        {
            let label = format!("{label}/v={v}/{mode:?}");
            let single = service.execute_bound(prepared, &b, mode).unwrap();
            let batch = service.execute_batch(prepared, std::slice::from_ref(&b), mode).unwrap();
            assert_eq!(batch.results.len(), 1, "{label}");
            assert_eq!(batch.results[0].as_ref().unwrap(), &single.output, "{label}: batch of one");
            match mode {
                OutputMode::Rows | OutputMode::Limit(_) => {
                    // `Limit(n)` is the n smallest rows under the plan's order.
                    let want = expect.permute(single.rows().schema().attrs()).unwrap();
                    let keep = match mode {
                        OutputMode::Limit(n) => n.min(want.len()),
                        _ => want.len(),
                    };
                    let arity = want.schema().arity();
                    let want = Relation::from_flat(
                        want.schema().clone(),
                        want.flat()[..keep * arity].to_vec(),
                    )
                    .unwrap();
                    assert_eq!(single.rows(), &want, "{label}: filtered unbound result");
                }
                OutputMode::Count => {
                    assert_eq!(single.output, QueryOutput::Count(expect.len() as u64), "{label}");
                }
                OutputMode::Exists => {
                    assert_eq!(single.output, QueryOutput::Exists(!expect.is_empty()), "{label}");
                }
            }
            last = Some(single.report);
        }
    }
    last.expect("at least one bound call ran")
}

#[test]
fn bound_batch_and_filtered_unbound_agree_through_mutation_and_reregistration() {
    let g = graph();
    for (shape, text, pins) in DOORS {
        let unbound = paper_query(shape);
        let (bound_q, _) = parse_query(text).unwrap();
        for strategy in STRATEGIES {
            for width in [1usize, 2, 4] {
                let label = format!("{shape:?}/{strategy:?}/w{width}");
                // The result LRU would answer a repeated batch of one
                // without reaching the shuffle; every call here must.
                let service = Service::new(ServiceConfig {
                    adj: AdjConfig {
                        cluster: ClusterConfig::with_workers(width),
                        cost: CostParams { measure_beta: false, ..Default::default() },
                        ..Default::default()
                    },
                    strategy,
                    result_cache_capacity: 0,
                    ..Default::default()
                });
                service.register_database("g", unbound.instantiate(&g));
                let prepared = service.prepare("g", &bound_q).unwrap();
                let warm = three_doors_agree(&service, &prepared, &unbound, pins, &label);
                assert_eq!(warm.index_relations_built, 0, "{label}: warm bound call built");

                // Mutate a relation the binding touches. Its entries — the
                // ones bound calls published — are patched, not dropped,
                // and once the repair read has re-planned, bound calls ride
                // them again.
                let batch = MutationBatch::new("R1").insert(&[1, 30]).delete(&[1, 8]);
                let outcome = service.mutate("g", &batch).unwrap();
                assert_eq!((outcome.inserted, outcome.deleted), (1, 1), "{label}");
                assert!(outcome.entries_patched > 0, "{label}: nothing of R1's to patch");
                let b = Bindings::new().set("v", 1);
                let repair = service.execute_bound(&prepared, &b, OutputMode::Count).unwrap();
                assert!(!repair.cache_hit, "{label}: a mutation re-keys the plan");
                let after = service.execute_bound(&prepared, &b, OutputMode::Count).unwrap();
                assert_eq!(after.report.index_relations_built, 0, "{label}: read after repair");
                assert_eq!(after.report.comm_tuples, 0, "{label}: read after repair");
                let label_m = format!("{label}/mutated");
                three_doors_agree(&service, &prepared, &unbound, pins, &label_m);

                // Re-register different data under the same name.
                let g2 = Relation::from_pairs(
                    Attr(0),
                    Attr(1),
                    &g.rows().map(|r| (r[1], (r[0] + 3) % 31)).collect::<Vec<_>>(),
                );
                service.register_database("g", unbound.instantiate(&g2));
                let label_r = format!("{label}/re-registered");
                three_doors_agree(&service, &prepared, &unbound, pins, &label_r);
            }
        }
    }
}

#[test]
fn the_share_program_is_solved_once_per_plan_and_width() {
    let unbound = paper_query(PaperQuery::Q1);
    let (q, _) = parse_query("Q(b,c) :- R1($v,b), R2(b,c), R3($v,c)").unwrap();
    let serving = |num_workers: usize| {
        let service = Service::new(ServiceConfig {
            adj: AdjConfig {
                cluster: ClusterConfig::with_workers(num_workers),
                ..Default::default()
            },
            ..Default::default()
        });
        service.register_database("g", unbound.instantiate(&graph()));
        let prepared = service.prepare("g", &q).unwrap();
        (service, prepared)
    };
    let (service, prepared) = serving(2);
    let call = |v: u32| {
        service.execute_bound(&prepared, &Bindings::new().set("v", v), OutputMode::Count).unwrap()
    };

    let solves: Vec<u64> = (0..64).map(|v| call(v).report.share_solves).collect();
    assert_eq!(solves[0], 1, "the first execution of the plan solves its share");
    assert!(solves[1..].iter().all(|&s| s == 0), "later calls re-solved: {solves:?}");
    assert_eq!(service.metrics().share_solves, 1);

    // A mutation re-keys the plan: the new entry solves once, then reuses.
    service.mutate("g", &MutationBatch::new("R2").insert(&[1, 30])).unwrap();
    assert_eq!(call(1).report.share_solves, 1);
    assert_eq!(call(2).report.share_solves, 0);
    assert_eq!(service.metrics().share_solves, 2);

    // Another width is another program: a second service sharing nothing
    // solves its own once, and the first one's answer is still there.
    let (wide, wide_prepared) = serving(4);
    let wide_call = |v: u32| {
        let b = Bindings::new().set("v", v);
        wide.execute_bound(&wide_prepared, &b, OutputMode::Count).unwrap()
    };
    let first = wide_call(3);
    assert_eq!(first.report.share_solves, 1);
    assert_eq!(first.report.share.iter().product::<u32>(), 4);
    assert_eq!(wide_call(4).report.share_solves, 0);
    assert_eq!(first.output, call(3).output, "the answer is width-independent");
    assert_eq!(call(5).report.share_solves, 0);
    assert_eq!(service.metrics().share_solves, 2);
}

#[test]
fn bound_executions_never_pollute_shared_cache_entries() {
    // Interleave bound and unbound executions of the same shape family on
    // one service: the unbound query must keep returning the full result
    // (never a bound relation's filtered fragments), and the two shapes
    // must key separately everywhere.
    let g = graph();
    let service = Service::new(ServiceConfig {
        adj: AdjConfig { cluster: ClusterConfig::with_workers(4), ..Default::default() },
        ..Default::default()
    });
    let unbound = paper_query(PaperQuery::Q1);
    let db = unbound.instantiate(&g);
    service.register_database("g", db.clone());

    let baseline = service.execute("g", &unbound).unwrap();
    let (q, _) = parse_query("Q(b,c) :- R1($v,b), R2(b,c), R3($v,c)").unwrap();
    let prepared = service.prepare("g", &q).unwrap();
    assert_ne!(
        prepared.fingerprint().plan_key,
        baseline.fingerprint.plan_key,
        "bound and free shapes must not share a plan entry"
    );

    for v in [1u32, 5, 9] {
        service.execute_bound(&prepared, &Bindings::new().set("v", v), OutputMode::Rows).unwrap();
        let again = service.execute("g", &unbound).unwrap();
        assert_eq!(
            again.rows(),
            baseline.rows(),
            "unbound result drifted after binding v={v} — cache aliasing"
        );
        assert!(again.cache_hit);
    }
}

#[test]
fn unbound_param_never_borrows_a_sibling_literals_values() {
    // Regression: the shape family `R1(7,b)…` / `R1($v,b)…` shares one
    // cached plan. An unbound `$v` submission arriving *after* the literal
    // member planted the plan must still fail with UnboundParam — never
    // silently answer with the literal owner's 7.
    let g = graph();
    let service = Service::new(ServiceConfig {
        adj: AdjConfig { cluster: ClusterConfig::with_workers(2), ..Default::default() },
        ..Default::default()
    });
    service.register_database("g", paper_query(PaperQuery::Q1).instantiate(&g));
    service.execute_text("g", "COUNT(R1(7,b), R2(b,c), R3(7,c))").unwrap();

    let (param_q, _) = parse_query("R1($v,b), R2(b,c), R3($v,c)").unwrap();
    let err = service.execute("g", &param_q).unwrap_err();
    assert!(
        matches!(err, ServiceError::Exec(adj::relational::Error::UnboundParam { .. })),
        "expected UnboundParam, got {err:?}"
    );
}

#[test]
fn baselines_reject_bound_queries_instead_of_joining_free() {
    use adj::baselines::{run_bigjoin, run_binary_join, run_hcubej, BaselineConfig};
    let g = graph();
    let db = paper_query(PaperQuery::Q1).instantiate(&g);
    let cluster = Cluster::new(ClusterConfig::with_workers(2));
    let cfg = BaselineConfig::default();
    let (lit_q, _) = parse_query("R1(7,b), R2(b,c), R3(7,c)").unwrap();
    let (param_q, _) = parse_query("R1($v,b), R2(b,c), R3($v,c)").unwrap();
    for q in [&lit_q, &param_q] {
        assert!(run_hcubej(&cluster, &db, q, &cfg).is_err(), "{q}");
        assert!(run_bigjoin(&cluster, &db, q, &cfg).is_err(), "{q}");
        assert!(run_binary_join(&cluster, &db, q, &cfg).is_err(), "{q}");
    }
}

#[test]
fn rebinding_works_across_database_reregistration() {
    // A prepared statement holds no pinned plan: re-registering the
    // database re-plans transparently and answers against the new data.
    let service = Service::new(ServiceConfig {
        adj: AdjConfig { cluster: ClusterConfig::with_workers(2), ..Default::default() },
        ..Default::default()
    });
    let q7 = paper_query(PaperQuery::Q7);
    let (q, _) = parse_query("Q(b,c) :- R1($v,b), R2(b,c)").unwrap();

    let g1 = Relation::from_pairs(Attr(0), Attr(1), &[(1, 2), (2, 3)]);
    service.register_database("g", q7.instantiate(&g1));
    let prepared = service.prepare("g", &q).unwrap();
    let b = Bindings::new().set("v", 1);
    let first = service.execute_bound(&prepared, &b, OutputMode::Count).unwrap();
    assert_eq!(first.output, QueryOutput::Count(1)); // 1→2→3

    let g2 = Relation::from_pairs(Attr(0), Attr(1), &[(1, 2), (2, 3), (1, 4), (4, 5), (2, 6)]);
    service.register_database("g", q7.instantiate(&g2));
    let second = service.execute_bound(&prepared, &b, OutputMode::Count).unwrap();
    assert!(!second.cache_hit, "new epoch must re-plan");
    assert_eq!(second.output, QueryOutput::Count(3)); // 1→2→{3,6}, 1→4→5
}
