//! Index-cache acceptance tests: a warm cache must change *nothing* about
//! results — byte-identical outputs on Q1/Q4/Q7 under both plan-search
//! strategies and all four output modes — while provably skipping the
//! shuffle + trie-build work; a database mutation (stats-epoch bump) must
//! evict stale tries instead of serving them; and resident bytes must stay
//! under the configured budget, with LRU eviction under pressure.

use adj::prelude::*;
use adj_core::AdjConfig;

const SHAPES: [PaperQuery; 3] = [PaperQuery::Q1, PaperQuery::Q4, PaperQuery::Q7];
const STRATEGIES: [Strategy; 2] = [Strategy::CoOptimize, Strategy::CommFirst];
const MODES: [OutputMode; 4] =
    [OutputMode::Rows, OutputMode::Count, OutputMode::Limit(5), OutputMode::Exists];

fn graph(n: u32, m: u32) -> Relation {
    let edges: Vec<(Value, Value)> = (0..n)
        .flat_map(|i| vec![(i % m, (i * 7 + 1) % m), ((i * 3) % m, (i * 11 + 5) % m)])
        .collect();
    Relation::from_pairs(Attr(0), Attr(1), &edges)
}

fn service_with(strategy: Strategy) -> Service {
    Service::new(ServiceConfig {
        adj: AdjConfig { cluster: ClusterConfig::with_workers(2), ..Default::default() },
        strategy,
        ..Default::default()
    })
}

#[test]
fn warm_results_byte_identical_across_shapes_strategies_and_modes() {
    for strategy in STRATEGIES {
        let service = service_with(strategy);
        let g = graph(240, 31);
        for shape in SHAPES {
            let q = paper_query(shape);
            service.register_database(format!("{shape:?}"), q.instantiate(&g));
        }
        for shape in SHAPES {
            let q = paper_query(shape);
            let name = format!("{shape:?}");
            for mode in MODES {
                let cold = service.execute_mode(&name, &q, mode).unwrap();
                let warm = service.execute_mode(&name, &q, mode).unwrap();
                assert_eq!(
                    cold.output, warm.output,
                    "{shape:?}/{strategy:?}/{mode:?}: warm output must be byte-identical"
                );
                assert!(
                    warm.report.index_relations_built == 0,
                    "{shape:?}/{strategy:?}/{mode:?}: warm query rebuilt an index"
                );
                assert!(
                    warm.report.index_relations_reused > 0,
                    "{shape:?}/{strategy:?}/{mode:?}: warm query reused nothing"
                );
                assert_eq!(
                    warm.report.comm_tuples, 0,
                    "{shape:?}/{strategy:?}/{mode:?}: warm query still shuffled tuples"
                );
            }
        }
        let stats = service.index_cache_stats();
        assert!(stats.hits > 0, "{strategy:?}: the warm passes must hit the cache");
        assert!(stats.resident_bytes > 0);
        assert!(stats.resident_bytes <= stats.capacity_bytes);
    }
}

#[test]
fn warm_queries_match_an_uncached_adj_exactly() {
    // Not just self-consistency: the cached service must agree with a
    // plain single-shot Adj run that never sees a cache.
    let service = service_with(Strategy::CoOptimize);
    let g = graph(200, 29);
    let solo = Adj::with_workers(2);
    for shape in SHAPES {
        let q = paper_query(shape);
        let db = q.instantiate(&g);
        service.register_database(format!("{shape:?}"), db.clone());
        let name = format!("{shape:?}");
        service.execute(&name, &q).unwrap(); // cold pass populates the cache
        let warm = service.execute(&name, &q).unwrap();
        let truth = solo.execute(&q, &db).unwrap();
        assert_eq!(
            warm.rows().len(),
            truth.rows().len(),
            "{shape:?}: warm cardinality diverged from uncached execution"
        );
        let aligned = warm.rows().permute(truth.rows().schema().attrs()).unwrap();
        assert_eq!(&aligned, truth.rows(), "{shape:?}");
    }
}

#[test]
fn database_mutation_evicts_stale_tries_instead_of_serving_them() {
    let service = service_with(Strategy::CoOptimize);
    let q = paper_query(PaperQuery::Q1);

    let db_v1 = q.instantiate(&graph(120, 23));
    service.register_database("g", db_v1.clone());
    let first = service.execute("g", &q).unwrap();
    let warm = service.execute("g", &q).unwrap();
    assert!(warm.report.index_relations_reused > 0, "cache must be warm before the mutation");

    // Mutate: new contents under the same name bump the stats epoch.
    let db_v2 = q.instantiate(&graph(260, 41));
    service.register_database("g", db_v2.clone());
    let stats = service.index_cache_stats();
    assert!(stats.invalidations > 0, "re-registration must eagerly drop stale index entries");

    let after = service.execute("g", &q).unwrap();
    assert_eq!(
        after.report.index_relations_reused, 0,
        "a stale trie must never be served after the epoch bump"
    );
    let truth = Adj::with_workers(2).execute(&q, &db_v2).unwrap();
    assert_eq!(after.rows().len(), truth.rows().len(), "post-mutation result must reflect v2");
    assert_ne!(
        first.rows().len(),
        after.rows().len(),
        "test graphs must differ enough to expose stale serving"
    );

    // And the rebuilt entries serve the new contents warm.
    let rewarmed = service.execute("g", &q).unwrap();
    assert!(rewarmed.report.index_relations_reused > 0);
    assert_eq!(rewarmed.rows(), after.rows());
}

#[test]
fn dropping_a_database_frees_its_cached_bytes() {
    let service = service_with(Strategy::CoOptimize);
    let q = paper_query(PaperQuery::Q1);
    service.register_database("g", q.instantiate(&graph(150, 23)));
    service.execute("g", &q).unwrap();
    assert!(service.index_cache_stats().resident_bytes > 0);
    assert!(service.drop_database("g"));
    assert_eq!(service.index_cache_stats().resident_bytes, 0);
}

#[test]
fn resident_bytes_stay_under_a_tiny_budget_with_lru_eviction() {
    let service = Service::new(ServiceConfig {
        adj: AdjConfig { cluster: ClusterConfig::with_workers(2), ..Default::default() },
        // Big enough for roughly one shape's tries, far too small for three.
        index_cache_capacity_bytes: Some(4_000),
        ..Default::default()
    });
    let g = graph(240, 31);
    for shape in SHAPES {
        let q = paper_query(shape);
        service.register_database(format!("{shape:?}"), q.instantiate(&g));
    }
    for _round in 0..2 {
        for shape in SHAPES {
            let q = paper_query(shape);
            service.execute_mode(&format!("{shape:?}"), &q, OutputMode::Count).unwrap();
        }
    }
    let stats = service.index_cache_stats();
    assert!(
        stats.resident_bytes <= stats.capacity_bytes,
        "resident {} exceeds budget {}",
        stats.resident_bytes,
        stats.capacity_bytes
    );
    assert_eq!(stats.capacity_bytes, 4_000);
    assert!(stats.evictions > 0, "three shapes cannot fit a one-shape budget without evicting");
}

#[test]
fn index_cache_budget_is_carved_out_of_the_cluster_memory_limit() {
    let per_worker = 1 << 20;
    let workers = 2;
    let max_concurrent = 4;
    let service = Service::new(ServiceConfig {
        adj: AdjConfig {
            cluster: ClusterConfig {
                num_workers: workers,
                memory_limit_bytes: Some(per_worker),
                ..Default::default()
            },
            ..Default::default()
        },
        max_concurrent,
        ..Default::default()
    });
    let total = per_worker * workers;
    let cache = service.index_cache_stats().capacity_bytes;
    let per_query = service.per_query_budget_bytes().expect("memory limit configured");
    assert!(cache > 0);
    assert!(
        cache + per_query * max_concurrent <= total,
        "cache ({cache}) + query budgets ({per_query}×{max_concurrent}) must fit under {total}"
    );
}

#[test]
fn service_metrics_expose_the_build_reuse_split() {
    let service = service_with(Strategy::CoOptimize);
    let q = paper_query(PaperQuery::Q4);
    service.register_database("g", q.instantiate(&graph(150, 29)));
    service.execute("g", &q).unwrap();
    service.execute("g", &q).unwrap();
    let m = service.metrics();
    assert!(m.index_relations_built > 0, "the cold pass builds");
    assert!(m.index_relations_reused > 0, "the warm pass reuses");
    assert_eq!(m.index_build.count, 2, "every served query records an index_build observation");
    let stats = service.stats();
    assert_eq!(stats.index.hits, service.index_cache_stats().hits);
}

/// A service with no plan cache, so every request plans again — over
/// whatever the index cache holds by then. Its overlay compacts as soon as
/// it holds `COMPACT_AT` tuples.
fn replanning_service(strategy: Strategy, width: usize, traced: bool) -> Service {
    Service::new(ServiceConfig {
        adj: AdjConfig { cluster: ClusterConfig::with_workers(width), ..Default::default() },
        strategy,
        plan_cache_capacity: 0,
        delta: DeltaConfig { max_overlay_fraction: 0.0, min_overlay_tuples: COMPACT_AT },
        trace: TraceSettings { enabled: traced, ..Default::default() },
        ..Default::default()
    })
}

/// Overlay tuples at which [`replanning_service`] compacts: the second of
/// the [`BATCHES`] (three tuples each) folds the overlay into the base.
const COMPACT_AT: usize = 4;

/// Rows of `R1(a, b)`.
type Rows = &'static [[Value; 2]];

/// Two mutation batches on `R1`: `(inserts, deletes)`.
const BATCHES: [(Rows, Rows); 2] =
    [(&[[7, 11], [11, 7]], &[[0, 1]]), (&[[3, 5], [5, 3]], &[[1, 8]])];

/// The graph the planning tests run over.
fn planning_graph() -> Relation {
    graph(480, 61)
}

/// Applies batch `i` of [`BATCHES`] to the service and to `effective`, and
/// returns whether the service compacted.
fn mutate_r1(service: &Service, effective: &mut Database, i: usize) -> bool {
    let (inserts, deletes) = BATCHES[i];
    let mut batch = MutationBatch::new("R1");
    for row in inserts {
        batch = batch.insert(row);
    }
    for row in deletes {
        batch = batch.delete(row);
    }
    let outcome = service.mutate("g", &batch).unwrap();
    let rows = |rows: Rows| rows.iter().map(|r| r.to_vec()).collect::<Vec<_>>();
    let (inserts, deletes) = (rows(inserts), rows(deletes));
    effective.insert_rows("R1", &inserts.iter().map(Vec::as_slice).collect::<Vec<_>>()).unwrap();
    effective.delete_rows("R1", &deletes.iter().map(Vec::as_slice).collect::<Vec<_>>()).unwrap();
    outcome.compacted
}

/// The sum of span arg `arg` over the trace's spans named `name`.
fn span_sum(out: &ServiceOutcome, name: &str, arg: &str) -> u64 {
    let trace = out.trace.as_ref().expect("traced service");
    trace.events_named(name).iter().filter_map(|e| e.args.get(arg)).sum()
}

#[test]
fn plans_read_over_the_cache_equal_cold_plans_in_every_state() {
    // The served planner reads its sampling tries and column sets from the
    // index cache: empty, warm, and patched by two batches and a
    // compaction. Warm and patched tries hold the sets a fresh build holds,
    // so every plan must equal a cold `Adj::plan` over the same contents to
    // the bit.
    let shapes = [PaperQuery::Q1, PaperQuery::Q4, PaperQuery::Q5, PaperQuery::Q8];
    for width in [1, 2] {
        let adj = Adj::new(AdjConfig {
            cluster: ClusterConfig::with_workers(width),
            ..Default::default()
        });
        for strategy in STRATEGIES {
            for shape in shapes {
                let q = paper_query(shape);
                let mut effective = q.instantiate(&planning_graph());
                let service = replanning_service(strategy, width, false);
                service.register_database("g", effective.clone());
                let mut served = Vec::new();
                for state in ["cold", "warm", "mutated"] {
                    if state == "mutated" {
                        assert!(!mutate_r1(&service, &mut effective, 0));
                        assert!(
                            mutate_r1(&service, &mut effective, 1),
                            "the second batch compacts"
                        );
                    }
                    let label = format!("{shape:?}/{strategy:?}/width {width}/{state}");
                    let out = service.execute_mode("g", &q, OutputMode::Count).unwrap();
                    assert!(!out.cache_hit, "{label}: every request plans");
                    let cold = adj.plan(&q, &effective, strategy).unwrap();
                    let plan = &out.plan;
                    assert_eq!(plan.order, cold.order, "{label}: order");
                    assert_eq!(plan.traversal, cold.traversal, "{label}: traversal");
                    assert_eq!(plan.precompute, cold.precompute, "{label}: pre-compute set");
                    assert_eq!(plan.share, cold.share, "{label}: share");
                    assert_eq!(
                        plan.estimated_cost_secs.to_bits(),
                        cold.estimated_cost_secs.to_bits(),
                        "{label}: estimated cost"
                    );
                    served.push(plan.optimizer);
                }
                if strategy == Strategy::CoOptimize {
                    let [cold, warm, mutated] = served[..] else { unreachable!() };
                    assert_eq!(cold.tries_cached, 0, "{shape:?}/width {width}: nothing to read");
                    assert!(warm.tries_cached > 0, "{shape:?}/width {width}: warm plan read none");
                    assert!(mutated.tries_cached > 0, "{shape:?}/width {width}: patched: none");
                }
                service.check_invariants().unwrap();
            }
        }
    }
}

#[test]
fn a_request_builds_each_trie_once_and_a_repair_read_only_what_the_cache_lacks() {
    let q = paper_query(PaperQuery::Q4);
    let mut effective = q.instantiate(&planning_graph());
    let service = replanning_service(Strategy::CoOptimize, 2, true);
    service.register_database("g", effective.clone());
    let count = || service.execute_mode("g", &q, OutputMode::Count).unwrap();

    // Cold: the planner builds its sampling tries, and the round takes over
    // those it indexes in the plan's order — counted as built by this
    // request, never as reused — and builds the rest.
    let cold = count();
    let (sampled, round) = (cold.plan.optimizer, &cold.report);
    let planned = span_sum(&cold, "shuffle", "planned_relations");
    assert_eq!(round.index_relations_reused, 0, "a first touch reuses nothing");
    assert_eq!(sampled.tries_cached, 0, "an empty cache holds nothing to read");
    assert!(planned > 0 && planned <= sampled.tries_built, "{planned} taken over: {sampled:?}");
    let resident = service.index_cache_stats();
    assert_eq!(resident.len as u64, round.index_relations_built, "only the round's keys publish");

    // The same search over the warm cache finds there exactly the tries
    // the round took over: the keys the planner and the round share.
    let warm = count();
    let again = warm.plan.optimizer;
    assert_eq!(again.tries_built + again.tries_cached, sampled.tries_built, "same sampling keys");
    assert_eq!(again.tries_cached, planned, "shared keys");
    assert_eq!(warm.report.index_relations_built, 0);
    // So the cold request built each distinct key it touched once.
    let distinct = sampled.tries_built + round.index_relations_built - again.tries_cached;
    assert_eq!(sampled.tries_built + round.index_relations_built - planned, distinct);

    // A repair read plans over the patched entries: it builds only the
    // sampling keys the cache lacks (the orientations no round indexes),
    // and its round builds nothing.
    mutate_r1(&service, &mut effective, 0);
    let repair = count();
    let patched = repair.plan.optimizer;
    assert_eq!(patched.tries_cached, planned, "every shared key is read patched");
    assert_eq!(patched.tries_built, sampled.tries_built - planned, "only sampling-only keys");
    assert_eq!(repair.report.index_relations_built, 0);
    assert_eq!(span_sum(&repair, "shuffle", "planned_relations"), 0);
    assert_eq!(service.index_cache_stats().len, resident.len, "sampling-only keys stay out");
    service.check_invariants().unwrap();

    // Resident bytes after the cold query are what a round that builds
    // every trie itself publishes: a plan prepared first hands nothing
    // over to the query that runs it.
    let plain = service_with(Strategy::CoOptimize);
    plain.register_database("g", q.instantiate(&planning_graph()));
    plain.prepare("g", &q).unwrap();
    let built_alone = plain.execute_mode("g", &q, OutputMode::Count).unwrap();
    assert!(built_alone.cache_hit, "the prepared plan serves");
    assert_eq!(built_alone.report.index_relations_built, round.index_relations_built);
    let alone = plain.index_cache_stats();
    assert_eq!((alone.len, alone.resident_bytes), (resident.len, resident.resident_bytes));
}
