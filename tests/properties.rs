//! Property-based tests over the core invariants, on randomly generated
//! graphs and schedules.
//!
//! Originally written against `proptest`; the offline build environment
//! cannot fetch it, so the same properties now run under a small seeded-RNG
//! loop harness (`cases`). Every case is deterministic per seed, so a
//! failure reproduces by re-running the test.

use adj::prelude::{
    paper_query, parse_query, Adj, AdjConfig, Attr, Bindings, BoundValues, Cluster, ClusterConfig,
    Database, ExecCtx, ExecutionReport, JoinQuery, OutputMode, PaperQuery, QueryOutput, QueryPlan,
    QueryTrace, Relation, Sampler, SamplingConfig, Schema, Service, ServiceConfig, Strategy,
    TraceSettings, Value,
};
use adj_core::PlanRelation;
use adj_hcube::share::dup_factor;
use adj_leapfrog::reference::plain_leapfrog;
use adj_leapfrog::{JoinCounters, JoinScratch, LeapfrogJoin};
use adj_query::order::{all_orders, is_valid_order, valid_orders};
use adj_query::GhdTree;
use adj_relational::intersect::{
    intersect2_merge, leapfrog_count, leapfrog_intersect, leapfrog_matches, probe_count,
    probe_matches, ValueTable, TABLE_CAP,
};
use adj_relational::{CountSink, ExistsSink, RowBuffer, RowSink, Trie};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Runs `body` for `n` deterministic cases, each with its own seeded RNG.
/// `PROPERTY_CASES=N` in the environment raises every property to at
/// least `N` cases, for a longer soak; a smaller `N` changes nothing.
fn cases(n: u64, mut body: impl FnMut(&mut StdRng)) {
    let soak = std::env::var("PROPERTY_CASES").ok().and_then(|s| s.trim().parse().ok());
    for case in 0..n.max(soak.unwrap_or(0)) {
        let mut rng = StdRng::seed_from_u64(0xADF0_5EED ^ case.wrapping_mul(0x9E37_79B9));
        body(&mut rng);
    }
}

/// A small random edge list over `max_nodes` node ids, 1..max_edges long.
fn edges(rng: &mut StdRng, max_nodes: u32, max_edges: usize) -> Vec<(u32, u32)> {
    let len = rng.gen_range(1..max_edges);
    (0..len).map(|_| (rng.gen_range(0..max_nodes), rng.gen_range(0..max_nodes))).collect()
}

/// [`edges`] over 14 node ids, in some cases reshaped to reach the value
/// tables' limits under every order: a hub of degree 40 or more, whose runs
/// outgrow a short invariant run past the driver-length rule, and ids
/// relabelled across `TABLE_CAP`, whose runs get no table.
fn edges_across_the_limits(rng: &mut StdRng) -> Vec<(u32, u32)> {
    let mut pairs = edges(rng, 14, 60);
    if rng.gen_range(0u32..2) == 0 {
        let hub = rng.gen_range(0u32..14);
        let degree = rng.gen_range(40u32..56);
        pairs.extend((14..14 + degree).map(|leaf| (hub, leaf)));
        // A few leaves close cycles back into the core.
        pairs.extend((14..14 + degree).step_by(4).map(|leaf| (leaf, rng.gen_range(0u32..14))));
    }
    if rng.gen_range(0u32..2) == 0 {
        // Every third id moves past the cap; the others stay below 70.
        let shift = TABLE_CAP as u32 - rng.gen_range(0u32..8);
        let relabel = |v: u32| if v.is_multiple_of(3) { v + shift } else { v };
        pairs = pairs.into_iter().map(|(x, y)| (relabel(x), relabel(y))).collect();
    }
    pairs
}

/// A sorted deduplicated random value run.
fn sorted_run(rng: &mut StdRng, max_val: u32, max_len: usize) -> Vec<u32> {
    let len = rng.gen_range(0..max_len);
    let mut v: Vec<u32> = (0..len).map(|_| rng.gen_range(0..max_val)).collect();
    v.sort_unstable();
    v.dedup();
    v
}

/// K-way leapfrog intersection equals iterated 2-way merge intersection.
#[test]
fn kway_intersection_equals_iterated_merge() {
    cases(64, |rng| {
        let a = sorted_run(rng, 500, 201);
        let b = sorted_run(rng, 500, 201);
        let c = sorted_run(rng, 500, 201);
        let mut expect = Vec::new();
        let mut tmp = Vec::new();
        intersect2_merge(&a, &b, &mut tmp);
        intersect2_merge(&tmp, &c, &mut expect);
        let mut got = Vec::new();
        leapfrog_intersect(&[&a, &b, &c], &mut got);
        assert_eq!(got, expect);
    });
}

/// A sorted deduplicated run shaped to hit the kernels' edges: empty,
/// a singleton, or a dense run over a small domain — each possibly ending
/// in `u32::MAX`.
fn edge_run(rng: &mut StdRng) -> Vec<u32> {
    let mut run = match rng.gen_range(0u32..6) {
        0 => Vec::new(),
        1 => vec![rng.gen_range(0u32..8)],
        _ => sorted_run(rng, 40, 30),
    };
    if rng.gen_range(0u32..3) == 0 {
        run.push(u32::MAX);
    }
    run
}

/// The position-carrying dance, `leapfrog_matches`, finds exactly what
/// `leapfrog_intersect` finds, with the same operation count, for k = 1…6
/// runs; every offset it reports indexes the matched value in its run. The
/// count-only dance, `leapfrog_count`, counts those matches at that count.
#[test]
fn position_and_count_kernels_agree_with_leapfrog_intersect() {
    cases(256, |rng| {
        let k = rng.gen_range(1usize..7);
        let runs: Vec<Vec<u32>> = (0..k).map(|_| edge_run(rng)).collect();
        let refs: Vec<&[u32]> = runs.iter().map(Vec::as_slice).collect();

        let mut want = Vec::new();
        let ops = leapfrog_intersect(&refs, &mut want);
        let mut merged = runs[0].clone();
        for run in &runs[1..] {
            let mut next = Vec::new();
            intersect2_merge(&merged, run, &mut next);
            merged = next;
        }
        assert_eq!(want, merged, "leapfrog_intersect itself is the set intersection");

        let mut values = Vec::new();
        let matched = leapfrog_matches(&refs, |v, at| {
            assert_eq!(at.len(), k);
            for (i, run) in runs.iter().enumerate() {
                assert_eq!(run[at[i]], v, "match {} in run {i}", values.len());
            }
            values.push(v);
        });
        assert_eq!(matched, ops);
        assert_eq!(values, want);
        assert_eq!(leapfrog_count(&refs), (want.len() as u64, ops));
    });
}

/// What the plain recursive Leapfrog (`plain_leapfrog`) finds: the rows,
/// `|T_l|` per level and the dance's gallops, for the counter-identity
/// oracle below. [`reference_join`] also replays, from the order and the
/// schemas alone, where the join must answer a level by probing: a visit
/// with one varying participant whose invariant runs were all seen at the
/// previous such visit of their slot (the second use builds the table),
/// all below the table cap, under a driving run no longer than four times
/// the shortest invariant run plus eight.
struct Reference {
    rows: Vec<Vec<Value>>,
    tuples_per_level: Vec<u64>,
    /// Gallops of a join that dances at every visit.
    intersect_ops: u64,
    /// Gallops at the visits the join must still dance.
    danced_ops: u64,
    /// Table lookups at the visits the join must probe.
    probes_per_level: Vec<u64>,
    /// Visits with a probe driver that dance because the driving run is
    /// too long for the shortest invariant one.
    long_drivers: u64,
    /// Visits with a probe driver that dance because an invariant run
    /// holds a value past the table cap.
    unfit: u64,
}

fn reference_join(tries: &[Trie], order: &[Attr]) -> Reference {
    // Per level: the participants (in trie order) whose previous
    // participating level is the one above.
    let varying: Vec<Vec<usize>> = order
        .iter()
        .enumerate()
        .map(|(level, &a)| {
            let participants = tries.iter().filter(|t| t.schema().contains(a));
            participants
                .enumerate()
                .filter(|(_, t)| {
                    let (attrs, depth) = (t.schema().attrs(), t.schema().position(a).unwrap());
                    depth > 0 && attrs[depth - 1] == order[level - 1]
                })
                .map(|(i, _)| i)
                .collect()
        })
        .collect();
    // Per (level, participant): the run the slot was asked for last.
    let mut seen: Vec<Vec<Option<(*const Value, usize)>>> = vec![Vec::new(); order.len()];
    let mut out = Reference {
        rows: Vec::new(),
        tuples_per_level: vec![0; order.len()],
        intersect_ops: 0,
        danced_ops: 0,
        probes_per_level: vec![0; order.len()],
        long_drivers: 0,
        unfit: 0,
    };
    out.intersect_ops = plain_leapfrog(tries, order, &mut |binding, runs, values, ops| {
        let level = binding.len();
        out.tuples_per_level[level] += values.len() as u64;
        if level + 1 == order.len() {
            out.rows.extend(values.iter().map(|&v| [binding, &[v]].concat()));
        }

        let mut probed = false;
        if let ([driver], true) = (varying[level].as_slice(), runs.len() > 1) {
            let invariant = || (0..runs.len()).filter(|i| i != driver);
            let shortest = invariant().map(|i| runs[i].len()).min().unwrap();
            out.long_drivers += u64::from(shortest > 0 && runs[*driver].len() > 4 * shortest + 8);
            if shortest > 0 && runs[*driver].len() <= 4 * shortest + 8 {
                let slots = &mut seen[level];
                slots.resize(runs.len(), None);
                let mut ready = true;
                let mut unfit = false;
                for i in invariant() {
                    let key = Some((runs[i].as_ptr(), runs[i].len()));
                    let fits = (*runs[i].last().unwrap() as usize) < TABLE_CAP;
                    unfit |= slots[i] == key && !fits;
                    ready &= slots[i] == key && fits;
                    slots[i] = key;
                }
                out.unfit += u64::from(unfit);
                if ready {
                    probed = true;
                    let limit = invariant().map(|i| *runs[i].last().unwrap()).min().unwrap();
                    for &v in runs[*driver].iter().take_while(|&&v| v <= limit) {
                        for i in invariant() {
                            out.probes_per_level[level] += 1;
                            if runs[i].binary_search(&v).is_err() {
                                break;
                            }
                        }
                    }
                }
            }
        }
        if !probed {
            out.danced_ops += ops;
        }
    });
    out
}

/// The binary-join result of `q` over `db`.
fn binary_join(q: &JoinQuery, db: &Database) -> Relation {
    let mut atoms = q.atoms.iter();
    let first = atoms.next().unwrap();
    let mut acc = db.get(&first.name).unwrap().clone();
    for atom in atoms {
        acc = acc.join(db.get(&atom.name).unwrap()).unwrap();
    }
    acc
}

/// Counts the rows a sink is offered.
struct Offered<S> {
    inner: S,
    rows: u64,
}

impl<S: RowSink> RowSink for Offered<S> {
    fn push(&mut self, row: &[Value]) -> bool {
        self.rows += 1;
        self.inner.push(row)
    }
    fn saturated(&self) -> bool {
        self.inner.saturated()
    }
}

/// Every way of running a join agrees, under every valid order of Q1, Q4,
/// Q5 and Q8: `Count` through a `CountSink` (the last level counted by
/// size), the Rows enumeration and the binary-join oracle find the same
/// result; `Limit(n)` is the prefix of Rows and `Exists` stops at one row.
/// The per-level bindings are exactly those of a plain recursive Leapfrog,
/// and the intersection work is the reference's with the invariant runs
/// probed instead of galloped into: no more gallops than the pure dance,
/// the same gallops wherever the join must dance, and the replayed table
/// lookups wherever an invariant run is reused.
#[test]
fn count_rows_and_counters_match_a_reference_join_under_every_valid_order() {
    let mut probes = 0;
    cases(12, |rng| {
        let pairs = edges(rng, 14, 60);
        let g = Relation::from_pairs(Attr(0), Attr(1), &pairs);
        for pq in [PaperQuery::Q1, PaperQuery::Q4, PaperQuery::Q5, PaperQuery::Q8] {
            let q = paper_query(pq);
            let db = q.instantiate(&g);
            let truth = binary_join(&q, &db);
            for order in valid_orders(&GhdTree::decompose(&q.hypergraph(), 3)) {
                let tries: Vec<Trie> = q
                    .atoms
                    .iter()
                    .map(|a| db.get(&a.name).unwrap().trie_under_order(&order).unwrap())
                    .collect();
                let join = LeapfrogJoin::new(&order, tries.iter().collect()).unwrap();
                let reference = reference_join(&tries, &order);
                let expect = |c: &JoinCounters, what: &str| {
                    let at = format!("{pq:?} {order:?} {what}");
                    assert_eq!(c.tuples_per_level[..], reference.tuples_per_level, "{at}");
                    assert!(c.intersect_ops <= reference.intersect_ops, "{at}");
                    assert_eq!(c.intersect_ops, reference.danced_ops, "{at}");
                    assert_eq!(c.stats.probes_per_level[..], reference.probes_per_level, "{at}");
                    assert_eq!(c.output_tuples, reference.rows.len() as u64, "{at}");
                };
                probes += reference.probes_per_level.iter().sum::<u64>();

                let mut sink = CountSink::new();
                let counted = join.join_into(&mut sink);
                expect(&counted, "count");
                assert_eq!(sink.count(), truth.len() as u64, "{pq:?} {order:?}");

                let mut rows = RowBuffer::new(order.len());
                let enumerated = join.join_into(&mut rows);
                expect(&enumerated, "rows");
                let flat: Vec<Value> = reference.rows.concat();
                assert_eq!(rows.into_flat(), flat, "{pq:?} {order:?}: rows arrive in order");
                let got =
                    Relation::from_flat(Schema::new(order.clone()).unwrap(), flat.clone()).unwrap();
                assert_eq!(got.permute(truth.schema().attrs()).unwrap(), truth);

                let n = rng.gen_range(0..reference.rows.len() + 2);
                let mut limited = RowBuffer::new(order.len()).with_limit(n);
                join.join_into(&mut limited);
                let prefix = n.min(reference.rows.len()) * order.len();
                assert_eq!(limited.into_flat(), flat[..prefix], "{pq:?} {order:?} limit {n}");

                let mut exists = Offered { inner: ExistsSink::new(), rows: 0 };
                join.join_into(&mut exists);
                let nonempty = !reference.rows.is_empty();
                assert_eq!(exists.inner.found(), nonempty, "{pq:?} {order:?}");
                assert_eq!(exists.rows, u64::from(nonempty), "{pq:?} {order:?}: one row");

                let (completed, budgeted) = join.count_with_budget(u64::MAX);
                assert!(completed);
                expect(&budgeted, "budgeted");

                let every: Vec<(Value, u64)> = (0..14).map(|v| (v, 1)).collect();
                let (by_first, _) = join.count_first_values(&every, &mut JoinScratch::new());
                assert_eq!(by_first, reference.rows.len() as u64, "{pq:?} {order:?}");
            }
        }
    });
    assert!(probes > 0, "some invariant run is reused");
}

/// A batch of bound joins is the reference join filtered per binding,
/// under every valid order of Q1, Q4 and Q5 and any non-empty set of bound
/// levels — a bound prefix, pinned levels behind a free one, or both — over
/// strictly ascending bindings that hit and miss. Per binding, `Rows` holds
/// the filtered rows in enumeration order, `Count` their number, `Exists`
/// whether there are any, and `Limit(n)` a prefix of `Rows`. A stop hook
/// that fires at a seeded poll leaves every binding before `completed`
/// exact.
#[test]
fn batched_bound_joins_equal_the_filtered_reference() {
    fn batch<S: RowSink>(
        join: &LeapfrogJoin<&Trie>,
        (attrs, bindings): (&[Attr], &[Value]),
        sinks: &mut [S],
        stop: &mut dyn FnMut() -> bool,
    ) -> adj_leapfrog::BatchOutcome {
        let mut scratch = JoinScratch::new();
        join.run_batch(attrs, bindings, sinks, &mut scratch, stop).unwrap()
    }

    cases(8, |rng| {
        let pairs = edges(rng, 14, 60);
        let g = Relation::from_pairs(Attr(0), Attr(1), &pairs);
        for pq in [PaperQuery::Q1, PaperQuery::Q4, PaperQuery::Q5] {
            let q = paper_query(pq);
            let db = q.instantiate(&g);
            for order in valid_orders(&GhdTree::decompose(&q.hypergraph(), 3)) {
                let tries: Vec<Trie> = q
                    .atoms
                    .iter()
                    .map(|a| db.get(&a.name).unwrap().trie_under_order(&order).unwrap())
                    .collect();
                let join = LeapfrogJoin::new(&order, tries.iter().collect()).unwrap();
                let rows = reference_join(&tries, &order).rows;
                let width = order.len();
                let mut levels: Vec<usize> = (0..width).filter(|_| rng.gen_bool(0.4)).collect();
                if levels.is_empty() {
                    levels.push(rng.gen_range(0..width));
                }
                let attrs: Vec<Attr> = levels.iter().map(|&l| order[l]).collect();
                // A hit projects a result row. A miss changes one of its
                // values, so it shares the rest with hits, or draws them all;
                // draws reach past the graph's 14 nodes.
                let mut bindings: Vec<Vec<Value>> = (0..rng.gen_range(1..12usize))
                    .map(|_| {
                        let mut b: Vec<Value> = match rows.len() {
                            0 => levels.iter().map(|_| rng.gen_range(0..16u32)).collect(),
                            n => {
                                let row = &rows[rng.gen_range(0..n)];
                                levels.iter().map(|&l| row[l]).collect()
                            }
                        };
                        if rng.gen_bool(0.4) {
                            let at = rng.gen_range(0..b.len());
                            b[at] = rng.gen_range(0..16u32);
                        }
                        b
                    })
                    .collect();
                bindings.sort();
                bindings.dedup();
                let expect: Vec<Vec<Value>> = (bindings.iter())
                    .map(|b| {
                        let hit = |r: &&Vec<Value>| levels.iter().zip(b).all(|(&l, &v)| r[l] == v);
                        rows.iter().filter(hit).flatten().copied().collect()
                    })
                    .collect();
                let flat = bindings.concat();
                let at = format!("{pq:?} {order:?} bound {attrs:?} at {bindings:?}");
                let buffers = |limit: Option<usize>| -> Vec<RowBuffer> {
                    let buffer = |_: &Vec<Value>| match limit {
                        Some(n) => RowBuffer::new(width).with_limit(n),
                        None => RowBuffer::new(width),
                    };
                    bindings.iter().map(buffer).collect()
                };

                let mut got = buffers(None);
                assert_eq!(
                    batch(&join, (&attrs, &flat), &mut got, &mut || false).completed,
                    bindings.len(),
                    "{at}"
                );
                let got: Vec<Vec<Value>> = got.into_iter().map(RowBuffer::into_flat).collect();
                assert_eq!(got, expect, "{at}: rows");

                let mut counts: Vec<CountSink> =
                    bindings.iter().map(|_| CountSink::new()).collect();
                batch(&join, (&attrs, &flat), &mut counts, &mut || false);
                let counts: Vec<usize> = counts.iter().map(|c| c.count() as usize).collect();
                let want: Vec<usize> = expect.iter().map(|r| r.len() / width).collect();
                assert_eq!(counts, want, "{at}: counts");

                let mut exists: Vec<ExistsSink> =
                    bindings.iter().map(|_| ExistsSink::new()).collect();
                batch(&join, (&attrs, &flat), &mut exists, &mut || false);
                let found: Vec<bool> = exists.iter().map(ExistsSink::found).collect();
                let nonempty: Vec<bool> = expect.iter().map(|r| !r.is_empty()).collect();
                assert_eq!(found, nonempty, "{at}: exists");

                let n = rng.gen_range(0usize..4);
                let mut limited = buffers(Some(n));
                batch(&join, (&attrs, &flat), &mut limited, &mut || false);
                for (buf, all) in limited.into_iter().zip(&expect) {
                    let prefix = &all[..(n * width).min(all.len())];
                    assert_eq!(buf.into_flat(), prefix, "{at}: limit {n}");
                }

                let fire_at = rng.gen_range(1..2 * bindings.len() as u64 + 3);
                let mut polls = 0;
                let mut stopped = buffers(None);
                let outcome = batch(&join, (&attrs, &flat), &mut stopped, &mut || {
                    polls += 1;
                    polls >= fire_at
                });
                let done = stopped.into_iter().zip(&expect).take(outcome.completed);
                for (i, (buf, want)) in done.enumerate() {
                    assert_eq!(&buf.into_flat(), want, "{at}: binding {i} before a stop");
                }
            }
        }
    });
}

/// A counting sink that is not a [`CountSink`]: it counts through the bulk
/// `push_count` and says it only counts, so the join counts its last level
/// inside the level above's loop for it too.
#[derive(Default)]
struct Tally {
    rows: u64,
    bulk: u64,
}

impl RowSink for Tally {
    fn push(&mut self, _row: &[Value]) -> bool {
        self.rows += 1;
        true
    }
    fn counts_only(&self) -> bool {
        true
    }
    fn push_count(&mut self, n: u64) -> bool {
        assert!(n > 0, "a zero count is never pushed");
        self.rows += n;
        self.bulk += 1;
        true
    }
}

/// Any counting sink counts like a [`CountSink`], with the same counters,
/// under every valid order of Q1, Q4, Q5 and Q8 — on graphs with hubs and
/// ids past the table cap, so the driver-length rule and unfit tables, which
/// a last level counted in its parent's loop settles once per loop, are
/// decided there exactly where the reference replays them. Budgeted counts
/// and counts by first value agree with the full count.
#[test]
fn any_counting_sink_counts_like_count_sink_across_the_table_limits() {
    let (mut long_drivers, mut unfit, mut bulk) = (0, 0, 0);
    cases(12, |rng| {
        let pairs = edges_across_the_limits(rng);
        let g = Relation::from_pairs(Attr(0), Attr(1), &pairs);
        let mut ids: Vec<Value> = pairs.iter().flat_map(|&(x, y)| [x, y]).collect();
        ids.sort_unstable();
        ids.dedup();
        let every: Vec<(Value, u64)> = ids.iter().map(|&v| (v, 1)).collect();
        for pq in [PaperQuery::Q1, PaperQuery::Q4, PaperQuery::Q5, PaperQuery::Q8] {
            let q = paper_query(pq);
            let db = q.instantiate(&g);
            let truth = binary_join(&q, &db).len() as u64;
            for order in valid_orders(&GhdTree::decompose(&q.hypergraph(), 3)) {
                let at = format!("{pq:?} {order:?}");
                let tries: Vec<Trie> = q
                    .atoms
                    .iter()
                    .map(|a| db.get(&a.name).unwrap().trie_under_order(&order).unwrap())
                    .collect();
                let join = LeapfrogJoin::new(&order, tries.iter().collect()).unwrap();
                let reference = reference_join(&tries, &order);
                (long_drivers, unfit) =
                    (long_drivers + reference.long_drivers, unfit + reference.unfit);

                let mut counting = CountSink::new();
                let counted = join.join_into(&mut counting);
                let mut tally = Tally::default();
                let tallied = join.join_into(&mut tally);
                bulk += tally.bulk;
                assert_eq!((counting.count(), tally.rows), (truth, truth), "{at}");
                assert_eq!(tallied, counted, "{at}");
                assert_eq!(counted.tuples_per_level[..], reference.tuples_per_level, "{at}");
                assert_eq!(counted.intersect_ops, reference.danced_ops, "{at}");
                assert_eq!(counted.stats.probes_per_level[..], reference.probes_per_level, "{at}");

                let (completed, budgeted) = join.count_with_budget(counted.total_tuples());
                assert!(completed, "{at}");
                assert_eq!(budgeted, counted, "{at}");
                let (by_first, _) = join.count_first_values(&every, &mut JoinScratch::new());
                assert_eq!(by_first, truth, "{at}");
            }
        }
    });
    assert!(long_drivers > 0, "no visit met the driver-length rule");
    assert!(unfit > 0, "no invariant run was past the table cap");
    assert!(bulk > 0, "no count reached the sink");
}

/// The probe kernel finds exactly what the dance finds — the same values,
/// ascending, with the same offsets in every run — for k = 2…6 runs and
/// any driving run, with values at `u32::MAX` and past the table cap. A
/// run holding a value past the cap gets no table, and that table answers
/// no lookup, so the join falls back to the dance. The count-only probe,
/// `probe_count`, counts those matches with the same lookups.
#[test]
fn probe_kernel_agrees_with_the_dance() {
    cases(512, |rng| {
        let k = rng.gen_range(2usize..7);
        let runs: Vec<Vec<u32>> = (0..k)
            .map(|_| {
                let mut run = edge_run(rng);
                if rng.gen_range(0u32..4) == 0 {
                    // A tail past the cap, kept sorted below u32::MAX.
                    let at = run.partition_point(|&v| v < 40);
                    run.insert(at, TABLE_CAP as u32 + rng.gen_range(0u32..3));
                }
                run
            })
            .collect();
        let refs: Vec<&[u32]> = runs.iter().map(Vec::as_slice).collect();
        let (mut want, mut want_at) = (Vec::new(), Vec::new());
        leapfrog_matches(&refs, |v, at| {
            want.push(v);
            want_at.extend_from_slice(at);
        });

        let driver = rng.gen_range(0..k);
        let mut tables: Vec<ValueTable> = (0..k).map(|_| ValueTable::new()).collect();
        // A reused table must forget what it indexed before.
        for table in &mut tables {
            let _ = table.build(&sorted_run(rng, 40, 30));
        }
        let mut fits = true;
        for (i, run) in runs.iter().enumerate().filter(|&(i, _)| i != driver) {
            let over = run.last().is_some_and(|&v| v as usize >= TABLE_CAP);
            let built = tables[i].build(run);
            assert_eq!(built.is_none(), over, "run {i}: {run:?}");
            if over {
                assert!(run.iter().all(|&v| tables[i].get(v).is_none()), "an unfit table answers");
                fits = false;
            }
        }
        if !fits {
            return;
        }
        let (mut got, mut got_at) = (Vec::new(), Vec::new());
        let probes = probe_matches(&refs, driver, &tables, |v, at| {
            got.push(v);
            got_at.extend_from_slice(at);
        });
        assert_eq!(got, want, "{runs:?} driven by {driver}");
        assert_eq!(got_at, want_at, "{runs:?} driven by {driver}");
        let counted = probe_count(&refs, driver, &tables);
        assert_eq!(counted, (want.len() as u64, probes), "{runs:?} driven by {driver}");
    });
}

/// One `JoinScratch` serves joins over tries that were dropped and rebuilt
/// in between — likely at the same addresses, with the same run lengths
/// and other values — and answers exactly like a fresh scratch.
#[test]
fn a_reused_scratch_never_trusts_another_joins_tables() {
    let mut scratch = JoinScratch::new();
    cases(16, |rng| {
        let pairs = edges(rng, 30, 200);
        let shift = rng.gen_range(1u32..30);
        for pq in [PaperQuery::Q8, PaperQuery::Q4] {
            let q = paper_query(pq);
            let order = q.attrs();
            for relabel in [0, shift] {
                // The same graph with every vertex relabelled: runs of the
                // same lengths holding other values.
                let relabelled: Vec<(u32, u32)> =
                    pairs.iter().map(|&(x, y)| ((x + relabel) % 30, (y + relabel) % 30)).collect();
                let db = q.instantiate(&Relation::from_pairs(Attr(0), Attr(1), &relabelled));
                let tries: Vec<Trie> = q
                    .atoms
                    .iter()
                    .map(|a| db.get(&a.name).unwrap().trie_under_order(&order).unwrap())
                    .collect();
                let join = LeapfrogJoin::new(&order, tries.iter().collect()).unwrap();
                let (mut reused, mut fresh) =
                    (RowBuffer::new(order.len()), RowBuffer::new(order.len()));
                let sinks = std::slice::from_mut(&mut reused);
                let a =
                    join.run_batch(&[], &[], sinks, &mut scratch, &mut || false).unwrap().counters;
                let b = join.join_into(&mut fresh);
                assert_eq!(a.tuples_per_level, b.tuples_per_level, "{pq:?} +{relabel}");
                assert_eq!(reused.into_flat(), fresh.into_flat(), "{pq:?} +{relabel}");
            }
        }
    });
}

/// The gather merges per-worker runs instead of re-sorting them: `Rows`
/// output is byte-identical at widths 1–4, and `Limit(n)` is the first n
/// rows of `Rows`, at every width.
#[test]
fn rows_are_width_independent_and_limit_is_their_prefix() {
    cases(8, |rng| {
        let pairs = edges(rng, 24, 150);
        let g = Relation::from_pairs(Attr(0), Attr(1), &pairs);
        for pq in [PaperQuery::Q1, PaperQuery::Q4, PaperQuery::Q8] {
            let q = paper_query(pq);
            let db = q.instantiate(&g);
            let cfg = AdjConfig { cluster: ClusterConfig::with_workers(2), ..Default::default() };
            let plan = adj_core::optimize(&q, &db, &cfg, Strategy::CommFirst).unwrap();
            let run = |width: usize, mode: OutputMode| {
                let cfg =
                    AdjConfig { cluster: ClusterConfig::with_workers(width), ..Default::default() };
                let adj = adj_core::Adj::new(cfg);
                let ctx = ExecCtx::default();
                let unbound = [BoundValues::none()];
                let (mut outs, _) =
                    adj_core::execute_plan(&adj, &db, &plan, mode, &unbound, &ctx).unwrap();
                outs.pop().unwrap().unwrap()
            };
            let rows = run(1, OutputMode::Rows);
            let full = rows.rows();
            let truth = binary_join(&q, &db);
            assert_eq!(full.permute(truth.schema().attrs()).unwrap(), truth, "{pq:?}");
            let n = rng.gen_range(0..full.len() + 2);
            let arity = full.arity();
            let prefix = Relation::from_flat(
                full.schema().clone(),
                full.flat()[..n.min(full.len()) * arity].to_vec(),
            )
            .unwrap();
            for width in 1..=4 {
                assert_eq!(run(width, OutputMode::Rows), rows, "{pq:?} width {width}");
                assert_eq!(
                    run(width, OutputMode::Limit(n)),
                    QueryOutput::Rows(prefix.clone()),
                    "{pq:?} width {width} limit {n}"
                );
            }
        }
    });
}

/// Width is a metamorphic relation: the workers of a join share its tries
/// and divide its driver in morsels, so no level above a morsel is walked
/// twice. On random graphs large enough for several morsels, for Q1, Q4,
/// Q7 and Q8–Q11, at widths 1–4, through the unbound, bound and batch
/// doors: `Rows` is byte-identical to width 1's, `Count` and `Exists` equal
/// it, `Limit(n)` is a prefix of `Rows`, and in `Rows` and `Count` (the
/// modes that walk everything) every level's bindings and the output
/// tuples equal width 1's.
#[test]
fn results_and_level_counters_are_width_invariant_through_every_door() {
    const MODES: [OutputMode; 4] =
        [OutputMode::Rows, OutputMode::Count, OutputMode::Exists, OutputMode::Limit(0)];
    const SHAPES: [PaperQuery; 7] = [
        PaperQuery::Q1,
        PaperQuery::Q4,
        PaperQuery::Q7,
        PaperQuery::Q8,
        PaperQuery::Q9,
        PaperQuery::Q10,
        PaperQuery::Q11,
    ];
    cases(3, |rng| {
        let pairs = edges(rng, 200, 420);
        let g = Relation::from_pairs(Attr(0), Attr(1), &pairs);
        let values: Vec<Value> = pairs.iter().map(|&(u, _)| u).collect();
        for pq in SHAPES {
            let q = paper_query(pq);
            let db = q.instantiate(&g);
            let cfg = AdjConfig { cluster: ClusterConfig::with_workers(2), ..Default::default() };
            let strategy =
                if rng.gen_range(0..2) == 0 { Strategy::CoOptimize } else { Strategy::CommFirst };
            let plan = adj_core::optimize(&q, &db, &cfg, strategy).unwrap();
            let (a, b) = (plan.order[0], plan.order[1]);
            // The doors: unbound; one binding of the first attribute; a
            // batch over the first two, past one morsel of unique rows.
            let bound =
                [BoundValues::new(vec![(a, values[rng.gen_range(0..values.len())])]).unwrap()];
            let batch: Vec<BoundValues> = (0..130)
                .map(|_| {
                    let pick = |rng: &mut StdRng| values[rng.gen_range(0..values.len())];
                    BoundValues::new(vec![(a, pick(rng)), (b, pick(rng))]).unwrap()
                })
                .collect();
            let doors: [(&str, &[BoundValues]); 3] =
                [("unbound", &[BoundValues::none()]), ("bound", &bound), ("batch", &batch)];
            let run = |width: usize, mode: OutputMode, bindings: &[BoundValues]| {
                let cfg =
                    AdjConfig { cluster: ClusterConfig::with_workers(width), ..Default::default() };
                let adj = adj_core::Adj::new(cfg);
                let (outs, report) =
                    adj_core::execute_plan(&adj, &db, &plan, mode, bindings, &ExecCtx::default())
                        .unwrap();
                let outs: Vec<QueryOutput> = outs.into_iter().map(|o| o.unwrap()).collect();
                (outs, report.counters)
            };
            for (door, bindings) in doors {
                let (rows, rows_counters) = run(1, OutputMode::Rows, bindings);
                let (counts, count_counters) = run(1, OutputMode::Count, bindings);
                for width in 1..=4 {
                    let label = format!("{pq:?} {strategy:?} {door} width {width}");
                    for mode in MODES {
                        let mode = match mode {
                            OutputMode::Limit(_) => OutputMode::Limit(rng.gen_range(0..40usize)),
                            mode => mode,
                        };
                        let (outs, counters) = run(width, mode, bindings);
                        for (i, out) in outs.iter().enumerate() {
                            let full = rows[i].rows();
                            match mode {
                                OutputMode::Rows => assert_eq!(out, &rows[i], "{label}"),
                                OutputMode::Count => assert_eq!(out, &counts[i], "{label}"),
                                OutputMode::Exists => {
                                    assert_eq!(
                                        out,
                                        &QueryOutput::Exists(!full.is_empty()),
                                        "{label}"
                                    )
                                }
                                OutputMode::Limit(n) => {
                                    let prefix =
                                        full.flat()[..n.min(full.len()) * full.arity()].to_vec();
                                    let prefix =
                                        Relation::from_flat(full.schema().clone(), prefix).unwrap();
                                    assert_eq!(
                                        out,
                                        &QueryOutput::Rows(prefix),
                                        "{label} limit {n}"
                                    );
                                }
                            }
                            assert_eq!(counts[i], QueryOutput::Count(full.len() as u64), "{label}");
                        }
                        let want = match mode {
                            OutputMode::Rows => &rows_counters,
                            OutputMode::Count => &count_counters,
                            _ => continue,
                        };
                        assert_eq!(
                            counters.tuples_per_level, want.tuples_per_level,
                            "{label} {mode:?}"
                        );
                        assert_eq!(counters.output_tuples, want.output_tuples, "{label} {mode:?}");
                    }
                }
            }
        }
    });
}

/// A random query over 4–6 attributes built to split around attribute 0
/// (the leading one of the orders that start there): a separator, attribute
/// 1, and two or three components over the other attributes. Each
/// component is a chain of atoms from attribute 0 through its attributes to
/// the separator, the first one sometimes ternary (holding the separator
/// too), with sometimes a chord inside it; sometimes an atom over the
/// separator pair alone. Every relation holds random tuples over a small
/// domain, which `relabel` maps to stored values.
fn split_query(rng: &mut StdRng, relabel: impl Fn(Value) -> Value) -> (JoinQuery, Database) {
    let n = rng.gen_range(4u32..7);
    let comps = rng.gen_range(2..(n - 2).min(3) + 1) as usize;
    let mut members: Vec<Vec<u32>> = vec![Vec::new(); comps];
    for (i, attr) in (2..n).enumerate() {
        // The first `comps` attributes seed one component each.
        let c = if i < comps { i } else { rng.gen_range(0..comps) };
        members[c].push(attr);
    }
    let mut schemas: Vec<Vec<u32>> = Vec::new();
    for chain in &members {
        let first =
            if rng.gen_range(0u32..3) == 0 { vec![0, chain[0], 1] } else { vec![0, chain[0]] };
        schemas.push(first);
        schemas.extend(chain.windows(2).map(|w| vec![w[0], w[1]]));
        schemas.push(vec![chain[chain.len() - 1], 1]);
        if chain.len() > 1 && rng.gen_range(0u32..2) == 0 {
            schemas.push(vec![0, chain[chain.len() - 1]]);
        }
    }
    if rng.gen_range(0u32..2) == 0 {
        schemas.push(vec![0, 1]);
    }
    let mut db = Database::new();
    let atoms = (schemas.iter().enumerate())
        .map(|(i, ids)| {
            let name = format!("R{i}");
            let schema = Schema::from_ids(ids);
            let len = rng.gen_range(8usize..40);
            let flat: Vec<Value> =
                (0..len * ids.len()).map(|_| relabel(rng.gen_range(0u32..7))).collect();
            db.insert(name.clone(), Relation::from_flat(schema.clone(), flat).unwrap());
            adj_query::Atom::new(name, schema)
        })
        .collect();
    (JoinQuery::new("split", atoms), db)
}

/// The counted path equals enumeration. An unbound `Count` whose relations
/// split around two attributes is counted bag by bag and combined by a dot
/// product; under every valid order of Q8–Q11 and of random queries built
/// to split around their leading attribute, at widths 1–3, over seeded
/// graphs — in some cases relabelled across `TABLE_CAP`, so a worker whose
/// separator values reach the tables enumerates instead — `Count` equals
/// the row count of the plain reference Leapfrog, and `Exists` equals
/// `Count > 0`. The traced execution says whether it counted by bags:
/// exactly when the plan splits.
#[test]
fn counted_bags_count_like_the_enumeration() {
    let (mut counted, mut fell_back) = (0, 0);
    let adjs: Vec<adj_core::Adj> = (1..=3)
        .map(|width| {
            adj_core::Adj::new(AdjConfig {
                cluster: ClusterConfig::with_workers(width),
                ..Default::default()
            })
        })
        .collect();
    cases(6, |rng| {
        let shift = TABLE_CAP as Value - rng.gen_range(0u32..4);
        let past_cap = rng.gen_range(0u32..3) == 0;
        let relabel = move |v: Value| if past_cap && v.is_multiple_of(3) { v + shift } else { v };
        let pairs: Vec<(Value, Value)> =
            edges(rng, 12, 50).into_iter().map(|(x, y)| (relabel(x), relabel(y))).collect();
        let g = Relation::from_pairs(Attr(0), Attr(1), &pairs);
        let mut shapes: Vec<(JoinQuery, Database)> = [PaperQuery::Q8, PaperQuery::Q9]
            .into_iter()
            .chain([PaperQuery::Q10, PaperQuery::Q11])
            .map(|pq| {
                let q = paper_query(pq);
                let db = q.instantiate(&g);
                (q, db)
            })
            .collect();
        shapes.push(split_query(rng, relabel));
        for (q, db) in &shapes {
            let cfg = AdjConfig { cluster: ClusterConfig::with_workers(2), ..Default::default() };
            // Communication-first plans pre-compute no bag: the final round
            // joins the query's own atoms.
            let planned = adj_core::optimize(q, db, &cfg, Strategy::CommFirst).unwrap();
            let orders = valid_orders(&GhdTree::decompose(&q.hypergraph(), 3));
            for order in orders {
                let tries: Vec<Trie> = (q.atoms.iter())
                    .map(|a| db.get(&a.name).unwrap().trie_under_order(&order).unwrap())
                    .collect();
                let mut want = 0u64;
                plain_leapfrog(&tries, &order, &mut |bound, _, values, _| {
                    if bound.len() + 1 == order.len() {
                        want += values.len() as u64;
                    }
                });
                let mut plan = planned.clone();
                plan.order = order.clone();
                let splits = plan.count_split().is_some();
                for (adj, width) in adjs.iter().zip(1..) {
                    let at = format!("{} {order:?} width {width}", q.atoms.len());
                    let unbound = [BoundValues::none()];
                    let tracer = adj::trace::Tracer::new(1 << 12);
                    let ctx = ExecCtx { tracer: tracer.clone(), ..Default::default() };
                    let run = |mode, ctx: &ExecCtx<'_>| {
                        let (mut outs, _) =
                            adj_core::execute_plan(adj, db, &plan, mode, &unbound, ctx).unwrap();
                        outs.pop().unwrap().unwrap()
                    };
                    let count = run(OutputMode::Count, &ctx);
                    assert_eq!(count, QueryOutput::Count(want), "{at}");
                    if width == 1 {
                        let exists = run(OutputMode::Exists, &ExecCtx::default());
                        assert_eq!(exists, QueryOutput::Exists(want > 0), "{at}");
                    }
                    let trace = tracer.finish();
                    let computation = trace.events_named("computation");
                    assert_eq!(computation[0].args.get("counted"), Some(u64::from(splits)), "{at}");
                    let joins = trace.events_named("join");
                    let by_bags = joins.iter().filter(|e| e.args.get("counted") == Some(1)).count();
                    if splits {
                        counted += by_bags;
                        fell_back += joins.len() - by_bags;
                    } else {
                        assert_eq!(by_bags, 0, "{at}");
                    }
                }
            }
        }
    });
    assert!(counted > 0, "some worker counted by bags");
    assert!(fell_back > 0, "some worker met a separator value past the tables");
}

/// Output modes are metamorphic relations that need no oracle: under every
/// valid order of Q1–Q11 on small random graphs — the orders under which
/// the count splits into bags among them (Q8 under every order, Q4, Q5, Q6
/// and Q10 under some) — `Count` through `Adj::execute_plan` is the number
/// of `Rows` rows, and `Exists` is `Count > 0`.
#[test]
fn count_is_the_row_count_and_exists_is_count_positive_under_every_valid_order() {
    let cfg = AdjConfig { cluster: ClusterConfig::with_workers(2), ..Default::default() };
    let adj = adj_core::Adj::new(cfg.clone());
    let (mut orders, mut split) = (0, 0);
    cases(12, |rng| {
        let pairs = edges(rng, 14, 60);
        let g = Relation::from_pairs(Attr(0), Attr(1), &pairs);
        for pq in PaperQuery::ALL {
            let q = paper_query(pq);
            let db = q.instantiate(&g);
            let planned = adj_core::optimize(&q, &db, &cfg, Strategy::CommFirst).unwrap();
            for order in valid_orders(&GhdTree::decompose(&q.hypergraph(), 3)) {
                let mut plan = planned.clone();
                plan.order = order.clone();
                orders += 1;
                split += usize::from(plan.count_split().is_some());
                let run = |mode| {
                    let ctx = ExecCtx::default();
                    adj.execute_plan(&plan, &db, mode, &BoundValues::none(), &ctx).unwrap().0
                };
                let at = format!("{pq:?} {order:?}");
                let QueryOutput::Rows(rows) = run(OutputMode::Rows) else { panic!("{at}: rows") };
                let count = rows.len() as u64;
                assert_eq!(run(OutputMode::Count), QueryOutput::Count(count), "{at}");
                assert_eq!(run(OutputMode::Exists), QueryOutput::Exists(count > 0), "{at}");
            }
        }
    });
    assert!(split > 0 && split < orders, "{split} of {orders} orders split");
}

/// `q`'s body as query text, attribute `x` written `name(x)`.
fn body_text(q: &JoinQuery, name: impl Fn(Attr) -> String) -> String {
    let atoms: Vec<String> = (q.atoms.iter())
        .map(|atom| {
            let vars: Vec<String> = atom.schema.attrs().iter().map(|&x| name(x)).collect();
            format!("{}({})", atom.name, vars.join(","))
        })
        .collect();
    atoms.join(", ")
}

/// The variable name of attribute `x` in [`body_text`]: `a` for `Attr(0)`.
fn var(x: Attr) -> String {
    char::from(b'a' + x.0 as u8).to_string()
}

/// `Σ |R| · dup(R, plan.share)` over the final round's relations `built`
/// keeps, and over every member of every pre-computed bag: what an
/// execution that built those relations reports as `comm_tuples` and
/// `precompute_tuples`.
fn priced(plan: &QueryPlan, db: &Database, built: impl Fn(&PlanRelation) -> bool) -> (u64, u64) {
    let copies = |len: usize, schema: &Schema| len as u64 * dup_factor(&plan.share, schema.mask());
    let atom_len = |i: usize| db.get(&plan.query.atoms[i].name).unwrap().len();
    let (mut comm, mut precompute) = (0, 0);
    for rel in &plan.relations {
        let len = match rel {
            PlanRelation::Base(i) => atom_len(*i),
            PlanRelation::Precomputed { atoms, .. } => {
                for &i in atoms {
                    precompute += copies(atom_len(i), &plan.query.atoms[i].schema);
                }
                let members = atoms.iter().map(|&i| plan.query.atoms[i].clone()).collect();
                binary_join(&JoinQuery::new("bag", members), db).len()
            }
        };
        if built(rel) {
            comm += copies(len, rel.schema(&plan.query));
        }
    }
    (comm, precompute)
}

/// One share per plan: for Q1–Q11 under both strategies at widths 1–4,
/// through a traced service's unbound, bound and batch doors, every call
/// reports the share its plan was priced under (`report.share ==
/// plan.share`). A cold call's `comm_tuples` is `Σ |R| · dup(R,
/// plan.share)` over the final round's relations it built: all of them at
/// the unbound door, and those the prepared statement's planner did not
/// build (and publish) at the bound and batch doors; a warm call builds only
/// the pre-computed bags, so its `comm_tuples` is that sum over them (0
/// without bags). Every call's `precompute_tuples` is the sum over every
/// bag member. No trace has a `share_solve` span.
#[test]
fn every_door_reports_and_prices_the_share_its_plan_was_priced_under() {
    let bindings = |values: std::ops::Range<Value>| -> Vec<Bindings> {
        values.map(|v| Bindings::new().set("v", v)).collect()
    };
    let (mut calls, mut bagged) = (0, 0);
    cases(2, |rng| {
        let g = Relation::from_pairs(Attr(0), Attr(1), &edges(rng, 14, 60));
        for width in 1..=4 {
            for strategy in [Strategy::CoOptimize, Strategy::CommFirst] {
                let adj =
                    AdjConfig { cluster: ClusterConfig::with_workers(width), ..Default::default() };
                let planner = Adj::new(adj.clone());
                let service = Service::new(ServiceConfig {
                    adj,
                    strategy,
                    trace: TraceSettings { enabled: true, ..Default::default() },
                    ..Default::default()
                });
                for pq in PaperQuery::ALL {
                    let (q, _) = parse_query(&body_text(&paper_query(pq), var)).unwrap();
                    let bound = body_text(&q, |x| if x == Attr(0) { "$v".into() } else { var(x) });
                    let (bound, _) = parse_query(&bound).unwrap();
                    let db = q.instantiate(&g);
                    // One database per door, so each door's first call is cold.
                    for door in ["unbound", "bound", "batch"] {
                        service.register_database(door, db.clone());
                    }
                    let on_bound = service.prepare("bound", &bound).unwrap();
                    let on_batch = service.prepare("batch", &bound).unwrap();
                    // What preparing published: the tries the planner built
                    // in the plan's order, which a cold call finds warm.
                    let (_, handed) =
                        planner.plan_in(&bound, &db, strategy, &ExecCtx::default()).unwrap();
                    type Call = (ExecutionReport, std::sync::Arc<QueryPlan>, Option<QueryTrace>);
                    let unbound = || {
                        let out = service.execute_mode("unbound", &q, OutputMode::Rows).unwrap();
                        (out.report, out.plan, out.trace)
                    };
                    let one = |v: Value| {
                        let b = Bindings::new().set("v", v);
                        let out = service.execute_bound(&on_bound, &b, OutputMode::Rows).unwrap();
                        (out.report, out.plan, out.trace)
                    };
                    // The warm batch binds other values: a batch the result
                    // cache answered whole would execute nothing.
                    let batch = |values| {
                        let out = service
                            .execute_batch(&on_batch, &bindings(values), OutputMode::Rows)
                            .unwrap();
                        (out.report, out.plan, out.trace)
                    };
                    let doors: [(&str, [Call; 2]); 3] = [
                        ("unbound", [unbound(), unbound()]),
                        ("bound", [one(3), one(4)]),
                        ("batch", [batch(0..3), batch(3..6)]),
                    ];
                    for (door, [cold, warm]) in doors {
                        let at = format!("{pq:?} {strategy:?} width {width} {door}");
                        let plan = std::sync::Arc::clone(&cold.1);
                        assert!(std::sync::Arc::ptr_eq(&plan, &warm.1), "{at}: one plan");
                        assert!(plan.share.iter().product::<u32>() as usize >= width, "{at}");
                        let published = |r: &PlanRelation| match r {
                            PlanRelation::Base(i) => {
                                let atom = &plan.query.atoms[*i];
                                let induced =
                                    plan.order.iter().filter(|a| atom.schema.contains(**a));
                                let induced = Schema::new(induced.copied().collect()).unwrap();
                                door != "unbound" && handed.get(&atom.name, &induced).is_some()
                            }
                            PlanRelation::Precomputed { .. } => false,
                        };
                        let (cold_comm, precompute) = priced(&plan, &db, |r| !published(r));
                        let bags = |r: &PlanRelation| matches!(r, PlanRelation::Precomputed { .. });
                        let (bag_comm, _) = priced(&plan, &db, bags);
                        calls += 2;
                        bagged += 2 * usize::from(bag_comm > 0);
                        for ((report, _, trace), comm, call) in
                            [(cold, cold_comm, "cold"), (warm, bag_comm, "warm")]
                        {
                            assert_eq!(report.share, plan.share, "{at} {call}");
                            assert_eq!(report.comm_tuples, comm, "{at} {call}");
                            assert_eq!(report.precompute_tuples, precompute, "{at} {call}");
                            let trace = trace.expect("traced");
                            assert!(trace.events_named("share_solve").is_empty(), "{at} {call}");
                        }
                    }
                }
            }
        }
    });
    assert!(bagged > 0 && bagged < calls, "{bagged} of {calls} calls built bags");
}

/// A query's answer does not depend on how its text is written (ROADMAP
/// 1(b)): Q1–Q11 through `execute_text` on random graphs, each next to a
/// copy with its atoms in another order and a copy with its variables
/// renamed, give equal `COUNT`s and equal `Rows` once columns are matched
/// by variable name, and the renamed text is served by the original's
/// plan-cache entry.
#[test]
fn answers_are_invariant_under_atom_permutation_and_variable_renaming() {
    // Rows as sorted value lists, columns ordered by the variable name each
    // one binds (after `rename`).
    let by_name = |out: &QueryOutput, names: &[String], rename: &dyn Fn(&str) -> String| {
        let QueryOutput::Rows(rel) = out else { panic!("rows") };
        let attrs = rel.schema().attrs();
        let mut cols: Vec<usize> = (0..attrs.len()).collect();
        cols.sort_by_key(|&c| rename(&names[attrs[c].0 as usize]));
        let mut rows: Vec<Vec<Value>> =
            rel.rows().map(|r| cols.iter().map(|&c| r[c]).collect()).collect();
        rows.sort();
        rows
    };
    let renamed = |name: &str| format!("v_{name}");
    let unrenamed = |name: &str| name.trim_start_matches("v_").to_string();
    cases(4, |rng| {
        let g = Relation::from_pairs(Attr(0), Attr(1), &edges(rng, 14, 60));
        let service = Service::new(ServiceConfig {
            adj: AdjConfig { cluster: ClusterConfig::with_workers(2), ..Default::default() },
            ..Default::default()
        });
        for pq in PaperQuery::ALL {
            let q = paper_query(pq);
            let text = body_text(&q, var);
            let renamed_text = body_text(&q, |x| renamed(&var(x)));
            let mut atoms = q.atoms.clone();
            let n = atoms.len();
            atoms.rotate_left(rng.gen_range(1..n));
            atoms.swap(0, rng.gen_range(0..n));
            let permuted_text = body_text(&JoinQuery::new("permuted", atoms), var);
            // Each text's attribute ids follow its own first appearances, so
            // each reads a database instantiated for its own parse.
            let run = |db_name: &str, text: &str, count: bool| {
                let (parsed, names) = parse_query(text).unwrap();
                if !service.database_names().iter().any(|n| n == db_name) {
                    service.register_database(db_name, parsed.instantiate(&g));
                }
                let text = if count { format!("COUNT({text})") } else { text.to_string() };
                (service.execute_text(db_name, &text).unwrap(), names)
            };
            let (original, permuted) = (format!("{pq:?}"), format!("{pq:?} permuted"));
            let at = format!("{pq:?}: {text} / {permuted_text}");
            let (rows, names) = run(&original, &text, false);
            let (count, _) = run(&original, &text, true);
            let (renamed_rows, renamed_names) = run(&original, &renamed_text, false);
            let (renamed_count, _) = run(&original, &renamed_text, true);
            let (permuted_rows, permuted_names) = run(&permuted, &permuted_text, false);
            let (permuted_count, _) = run(&permuted, &permuted_text, true);
            assert!(renamed_rows.cache_hit && renamed_count.cache_hit, "{at}: renamed misses");
            assert_eq!(renamed_count.output, count.output, "{at}");
            assert_eq!(permuted_count.output, count.output, "{at}");
            let want = by_name(&rows.output, &names, &|n| n.to_string());
            assert_eq!(by_name(&renamed_rows.output, &renamed_names, &unrenamed), want, "{at}");
            let permuted = by_name(&permuted_rows.output, &permuted_names, &|n| n.to_string());
            assert_eq!(permuted, want, "{at}");
            assert_eq!(want.len() as u64, count.output.count().unwrap(), "{at}");
        }
    });
}

/// `Relation::from_flat` is sort + dedup whatever order the rows arrive
/// in: already strictly increasing (the merged-gather fast path), sorted
/// with duplicates, or shuffled.
#[test]
fn from_flat_equals_sort_dedup_on_any_input_order() {
    cases(64, |rng| {
        let arity = rng.gen_range(1usize..4);
        let n = rng.gen_range(0usize..40);
        let mut rows: Vec<Vec<Value>> =
            (0..n).map(|_| (0..arity).map(|_| rng.gen_range(0u32..4)).collect()).collect();
        let mut want = rows.clone();
        want.sort();
        want.dedup();
        let schema = Schema::from_ids(&(0..arity as u32).collect::<Vec<_>>());
        let check = |rows: &[Vec<Value>], what: &str| {
            let rel = Relation::from_flat(schema.clone(), rows.concat()).unwrap();
            assert_eq!(rel.flat(), want.concat().as_slice(), "{what}");
        };
        check(&want, "strictly increasing");
        let mut dups = want.clone();
        for i in (0..dups.len()).rev().step_by(2) {
            let row = dups[i].clone();
            dups.insert(i, row);
        }
        check(&dups, "sorted with duplicates");
        for i in (1..rows.len()).rev() {
            rows.swap(i, rng.gen_range(0..i + 1));
        }
        check(&rows, "shuffled");
    });
}

/// The normalizing sort — packed-key in place for arity ≤ 2, an index sort
/// for wider rows — is the set of rows in lexicographic order, on flat data
/// of arity 1–4 with duplicates and values up to `u32::MAX`, empty, one
/// row, already sorted and reverse sorted. Every column's distinct values,
/// every column permutation and every trie built under a global order read
/// the same set. Non-leading columns go through the radix kernel.
#[test]
fn sort_kernel_equals_a_btreeset_reference() {
    use adj_relational::relation::radix_sort;
    use std::collections::BTreeSet;
    cases(96, |rng| {
        let arity = rng.gen_range(1usize..5);
        let n = match rng.gen_range(0u32..6) {
            0 => 0,
            1 => 1,
            _ => rng.gen_range(2usize..60),
        };
        // Small domains for duplicates, plus the top of the domain, where a
        // packed key that sign-extended or carried would misorder.
        let value = |rng: &mut StdRng| match rng.gen_range(0u32..4) {
            0 => u32::MAX - rng.gen_range(0u32..3),
            1 => rng.gen_range(0u32..u32::MAX),
            _ => rng.gen_range(0u32..4),
        };
        let mut rows: Vec<Vec<Value>> =
            (0..n).map(|_| (0..arity).map(|_| value(rng)).collect()).collect();
        match rng.gen_range(0u32..3) {
            0 => rows.sort(),
            1 => rows.sort_by(|a, b| b.cmp(a)),
            _ => {}
        }
        let reference: BTreeSet<Vec<Value>> = rows.iter().cloned().collect();
        let ids: Vec<u32> = (0..arity as u32).collect();
        let rel = Relation::from_flat(Schema::from_ids(&ids), rows.concat()).unwrap();
        let want: Vec<Value> = reference.iter().flatten().copied().collect();
        assert_eq!(rel.flat(), want.as_slice(), "arity {arity}, {n} rows");

        for col in 0..arity {
            let mut values: Vec<Value> = rows.iter().map(|r| r[col]).collect();
            values.sort_unstable();
            values.dedup();
            assert_eq!(rel.column_values(Attr(col as u32)).unwrap(), values, "column {col}");
        }

        // A random column order: permute and the trie under it both hold
        // the reference rows with their columns reordered.
        let mut order: Vec<Attr> = ids.iter().map(|&i| Attr(i)).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..i + 1));
        }
        let permuted: BTreeSet<Vec<Value>> =
            reference.iter().map(|row| order.iter().map(|a| row[a.0 as usize]).collect()).collect();
        let want: Vec<Value> = permuted.iter().flatten().copied().collect();
        assert_eq!(rel.permute(&order).unwrap().flat(), want.as_slice(), "permute {order:?}");
        let trie = rel.trie_under_order(&order).unwrap();
        assert_eq!(trie.to_relation().flat(), want.as_slice(), "trie under {order:?}");
    });

    // The column kernel's radix passes: a non-leading column whose keys
    // differ only in their top byte, reach `u32::MAX`, all agree (every
    // pass skipped) or span the whole domain, at lengths around the cutoff
    // below which it takes the comparison sort.
    cases(8, |rng| {
        for n in [0usize, 1, 2, 255, 256, 257, 511, 512, 2000] {
            for kind in 0..5 {
                let value = |rng: &mut StdRng| match kind {
                    0 => rng.gen_range(0u32..256) << 24,
                    1 => u32::MAX - rng.gen_range(0u32..2),
                    2 => 0xAB_CD_EF_01,
                    3 => rng.gen_range(0u32..u32::MAX),
                    _ => rng.gen_range(0u32..2048),
                };
                let rows: Vec<Value> = (0..n).flat_map(|i| [i as Value % 7, value(rng)]).collect();
                let reference: BTreeSet<Value> = rows.iter().skip(1).step_by(2).copied().collect();
                let rel = Relation::from_flat(Schema::from_ids(&[0, 1]), rows.clone()).unwrap();
                let want: Vec<Value> = reference.into_iter().collect();
                assert_eq!(rel.column_values(Attr(1)).unwrap(), want, "kind {kind}, {n} rows");

                let mut column: Vec<Value> = rows.iter().skip(1).step_by(2).copied().collect();
                let mut sorted = column.clone();
                sorted.sort_unstable();
                radix_sort(&mut column);
                assert_eq!(column, sorted, "kind {kind}, {n} keys");
            }
        }
    });
}

/// Trie build/emit round-trips any relation.
#[test]
fn trie_roundtrip() {
    cases(64, |rng| {
        let pairs = edges(rng, 64, 300);
        let rel = Relation::from_pairs(Attr(0), Attr(1), &pairs);
        let trie = Trie::build(&rel);
        assert_eq!(trie.to_relation(), rel);
    });
}

/// Leapfrog triangle counting matches the reference pairwise join, for ANY
/// attribute order.
#[test]
fn leapfrog_equals_reference_any_order() {
    cases(64, |rng| {
        let pairs = edges(rng, 24, 120);
        let perm = rng.gen_range(0usize..6);
        let q = paper_query(PaperQuery::Q1);
        let g = Relation::from_pairs(Attr(0), Attr(1), &pairs);
        let db = q.instantiate(&g);
        let expected = db
            .get("R1")
            .unwrap()
            .join(db.get("R2").unwrap())
            .unwrap()
            .join(db.get("R3").unwrap())
            .unwrap();
        let orders = all_orders(&q.attrs());
        let order = &orders[perm];
        let tries: Vec<Trie> = q
            .atoms
            .iter()
            .map(|a| db.get(&a.name).unwrap().trie_under_order(order).unwrap())
            .collect();
        let join = adj_leapfrog::LeapfrogJoin::new(order, tries.iter().collect()).unwrap();
        assert_eq!(join.count().0 as usize, expected.len());
    });
}

/// The cached join always matches the plain join, for any capacity.
#[test]
fn cached_join_matches_plain() {
    cases(64, |rng| {
        let pairs = edges(rng, 20, 100);
        let cap = rng.gen_range(0usize..64);
        let q = paper_query(PaperQuery::Q4);
        let g = Relation::from_pairs(Attr(0), Attr(1), &pairs);
        let db = q.instantiate(&g);
        let order = q.attrs();
        let tries: Vec<Trie> = q
            .atoms
            .iter()
            .map(|a| db.get(&a.name).unwrap().trie_under_order(&order).unwrap())
            .collect();
        let plain = adj_leapfrog::LeapfrogJoin::new(&order, tries.iter().collect()).unwrap();
        let cached = adj_baselines::cached::CachedJoin::new(&order, tries.iter().collect(), cap);
        let cached = cached.unwrap();
        assert_eq!(plain.count().0, cached.count().0);
    });
}

/// HCube: for any share vector, the one-round shuffle + local leapfrog
/// equals the reference join (distribution transparency).
#[test]
fn hcube_distribution_transparency() {
    cases(64, |rng| {
        use adj_hcube::{hcube_shuffle, HCubeImpl, HCubePlan};
        let pairs = edges(rng, 20, 80);
        let (p1, p2, p3) = (rng.gen_range(1u32..3), rng.gen_range(1u32..3), rng.gen_range(1u32..3));
        let workers = rng.gen_range(1usize..5);
        let q = paper_query(PaperQuery::Q1);
        let g = Relation::from_pairs(Attr(0), Attr(1), &pairs);
        let db = q.instantiate(&g);
        let expected = db
            .get("R1")
            .unwrap()
            .join(db.get("R2").unwrap())
            .unwrap()
            .join(db.get("R3").unwrap())
            .unwrap();
        let cluster = adj_cluster::Cluster::new(ClusterConfig::with_workers(workers));
        let plan = HCubePlan::new(vec![p1, p2, p3], workers);
        let order = q.attrs();
        let names: Vec<String> = q.atoms.iter().map(|a| a.name.clone()).collect();
        let out = hcube_shuffle(&cluster, &db, &names, &plan, &order, HCubeImpl::Merge).unwrap();
        let mut total = Vec::new();
        for w in 0..workers {
            let tries: Vec<&Trie> = out.locals[w].iter().map(|l| l.trie.as_ref()).collect();
            let join = adj_leapfrog::LeapfrogJoin::new(&order, tries).unwrap();
            join.run(|t| total.extend_from_slice(t));
        }
        let got = Relation::from_flat(Schema::new(order.clone()).unwrap(), total).unwrap();
        assert_eq!(got.len(), expected.len());
    });
}

/// Sampling with the full value set and many samples brackets the truth.
#[test]
fn sampling_converges() {
    cases(50, |rng| {
        let pairs = edges(rng, 24, 150);
        let seed = rng.gen_range(0u64..50);
        let q = paper_query(PaperQuery::Q1);
        let g = Relation::from_pairs(Attr(0), Attr(1), &pairs);
        let db = q.instantiate(&g);
        let order = q.attrs();
        let tries: Vec<Trie> = q
            .atoms
            .iter()
            .map(|a| db.get(&a.name).unwrap().trie_under_order(&order).unwrap())
            .collect();
        let truth =
            adj_leapfrog::LeapfrogJoin::new(&order, tries.iter().collect()).unwrap().count().0
                as f64;
        let sampler = Sampler::new(&db, &q, &order).unwrap();
        let est = sampler.estimate(&SamplingConfig { samples: 3000, seed }).unwrap();
        if truth == 0.0 {
            assert!(est.cardinality < 1.0 || est.val_a == 0);
        } else {
            let d = est.cardinality.max(truth) / est.cardinality.min(truth).max(1e-9);
            assert!(d < 3.0, "D={d} est={} truth={truth}", est.cardinality);
        }
    });
}

/// What counting every draw on its own gives: the old per-draw sampler,
/// rebuilt on the plain-dance oracle. `|T_{A=a}|` and its per-level
/// tuples come from one [`plain_leapfrog`] walk of the sub-join; the draws
/// replay the sampler's seeded `gen_range` calls in order. Returns
/// `(per-draw f64 sum, integer sum, per-level tuples, draws)`.
fn per_draw_reference(
    tries: &[Trie],
    order: &[Attr],
    values: &[Value],
    cfg: &SamplingConfig,
) -> (f64, u64, Vec<u64>, Vec<Value>) {
    let mut per_value: std::collections::HashMap<Value, Vec<u64>> = Default::default();
    plain_leapfrog(tries, order, &mut |binding, _, matched, _| match binding.first() {
        None => {
            matched.iter().for_each(|&a| per_value.entry(a).or_insert(vec![0; order.len()])[0] += 1)
        }
        Some(&a) => {
            per_value.get_mut(&a).expect("level 0 saw a")[binding.len()] += matched.len() as u64
        }
    });
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let draws: Vec<Value> = if values.is_empty() {
        Vec::new()
    } else {
        (0..cfg.samples.max(1)).map(|_| values[rng.gen_range(0..values.len())]).collect()
    };
    let (mut float_sum, mut int_sum, mut levels) = (0.0f64, 0u64, vec![0u64; order.len()]);
    for a in &draws {
        let counts = per_value.get(a).expect("a drawn value is in val(A)");
        let count = *counts.last().unwrap();
        float_sum += count as f64;
        int_sum += count;
        for (l, &t) in levels.iter_mut().zip(counts) {
            *l += t;
        }
    }
    (float_sum, int_sum, levels, draws)
}

/// The grouped sampler — each distinct drawn value counted once, weighted
/// by its multiplicity — estimates bit for bit what counting every draw
/// did: cardinality, per-level tuples and extensions, for the sequential
/// sampler and the planner's walk phase on 1–3 workers ([`walk_phase`]),
/// on every connected sub-join of Q1/Q4/Q5/Q8 under its sampling order. The graphs cover `|val(A)|` far below `k`
/// (heavy repetition), a one-value `val(A)`, an empty one, and `k = 1`.
#[test]
fn grouped_sampling_equals_per_draw_counting() {
    use adj::core::cost::walk_phase;
    use adj_sampling::connected_order;
    let clusters: Vec<Cluster> =
        (1..=3).map(|w| Cluster::new(ClusterConfig::with_workers(w))).collect();
    let (mut repeated, mut single, mut empty) = (0, 0, 0);
    // An empty graph, one edge, a star (one source), and random graphs.
    let mut graph = 0;
    cases(5, |rng| {
        graph += 1;
        let pairs = match graph {
            1 => Vec::new(),
            2 => vec![(3, 5)],
            3 => (1..9).map(|v| (0, v)).collect(),
            _ => edges(rng, 16, 80),
        };
        let g = Relation::from_pairs(Attr(0), Attr(1), &pairs);
        let seed = rng.gen_range(0u64..1000);
        for pq in [PaperQuery::Q1, PaperQuery::Q4, PaperQuery::Q5, PaperQuery::Q8] {
            let q = paper_query(pq);
            let db = q.instantiate(&g);
            for mask in 1u32..1 << q.atoms.len() {
                let atoms: Vec<_> = (0..q.atoms.len())
                    .filter(|i| mask & (1 << i) != 0)
                    .map(|i| q.atoms[i].clone())
                    .collect();
                let sub = JoinQuery::new("sub", atoms);
                let order = connected_order(sub.atoms.iter().map(|a| &a.schema));
                // Connected: every attribute after the first shares an atom
                // with the ones before it.
                let connected = (1..order.len()).all(|i| {
                    let above = order[..i].iter().fold(0, |m, a| m | a.mask());
                    sub.atoms
                        .iter()
                        .any(|at| at.schema.contains(order[i]) && at.schema.mask() & above != 0)
                });
                if !connected {
                    continue;
                }
                let tries: Vec<Trie> = sub
                    .atoms
                    .iter()
                    .map(|a| db.get(&a.name).unwrap().trie_under_order(&order).unwrap())
                    .collect();
                let sampler = Sampler::new(&db, &sub, &order).unwrap();
                let values = sampler.val_a();
                for samples in [1, 7, 200] {
                    let cfg = SamplingConfig { samples, seed };
                    let (float_sum, int_sum, levels, draws) =
                        per_draw_reference(&tries, &order, values, &cfg);
                    let scale =
                        if draws.is_empty() { 0.0 } else { values.len() as f64 / samples as f64 };
                    let at = format!("{pq:?} atoms {mask:#b} {order:?} k={samples} seed {seed}");
                    let want_levels: Vec<u64> =
                        levels.iter().map(|&t| (t as f64 * scale).to_bits()).collect();
                    let want_extensions: u64 = levels.iter().sum();

                    let seq = sampler.estimate(&cfg).unwrap();
                    assert_eq!(seq.cardinality.to_bits(), (float_sum * scale).to_bits(), "{at}");
                    let got: Vec<u64> = seq.level_tuples.iter().map(|t| t.to_bits()).collect();
                    assert_eq!(got, want_levels, "{at}");
                    assert_eq!(seq.extensions, want_extensions, "{at}");
                    assert_eq!(seq.samples_used, draws.len(), "{at}");
                    let mut distinct = draws.clone();
                    distinct.sort_unstable();
                    distinct.dedup();
                    assert_eq!(seq.distinct_samples, distinct.len(), "{at}");

                    repeated += usize::from(distinct.len() < draws.len());
                    single += usize::from(values.len() == 1);
                    empty += usize::from(values.is_empty());

                    // The walk phase costs a cluster round per width: every
                    // sub-join of Q1 and Q8, and Q4 and Q5 whole.
                    let big = matches!(pq, PaperQuery::Q4 | PaperQuery::Q5);
                    if big && sub.atoms.len() < q.atoms.len() {
                        continue;
                    }
                    for cluster in &clusters {
                        let at = format!("{at} walk phase width {}", cluster.num_workers());
                        let samplers = std::slice::from_ref(&sampler);
                        let walked = walk_phase(cluster, samplers, &cfg, &ExecCtx::default());
                        let walked = walked.unwrap().estimates.pop().unwrap().unwrap();
                        let want = (int_sum as f64 * scale).to_bits();
                        assert_eq!(walked.cardinality.to_bits(), want, "{at}");
                        let got: Vec<u64> =
                            walked.level_tuples.iter().map(|t| t.to_bits()).collect();
                        assert_eq!(got, want_levels, "{at}");
                        assert_eq!(walked.extensions, want_extensions, "{at}");
                        assert_eq!(walked.samples_used, draws.len(), "{at}");
                        assert_eq!(walked.distinct_samples, distinct.len(), "{at}");
                    }
                }
            }
        }
    });
    assert!(repeated > 0 && single > 0 && empty > 0, "{repeated} {single} {empty}");
}

/// The planner's walk phase ([`walk_phase`]) — every sub-join's grouped
/// draws cut into morsels, claimed by the workers from one cursor and
/// counted into per-sub-join tallies — estimates exactly what one thread
/// counting every draw does ([`Sampler::estimate`]): cardinality to the
/// bit, per-level tuples, extensions and distinct values, at 1, 2 and 3
/// workers, with every connected atom subset of Q1–Q11 in one batch, on
/// the twelve graphs the reference-join property uses. Their `val(A)`s
/// fit one morsel, so each case also runs Q1/Q4/Q5/Q8 on a graph over 400
/// node ids, whose sub-joins split into several morsels.
#[test]
fn morsel_split_sampling_equals_the_sequential_estimate() {
    use adj::core::cost::walk_phase;
    use adj_relational::MORSEL_ROWS;
    use adj_sampling::connected_order;
    let clusters: Vec<Cluster> =
        (1..=3).map(|w| Cluster::new(ClusterConfig::with_workers(w))).collect();
    let cfg = AdjConfig::default().sampling;
    let mut split = 0;
    cases(12, |rng| {
        let reference = edges(rng, 14, 60);
        let wide = edges(rng, 400, 600);
        for (pairs, queries) in [(reference, &PaperQuery::ALL[..]), (wide, &SPLIT_QUERIES[..])] {
            let g = Relation::from_pairs(Attr(0), Attr(1), &pairs);
            for &pq in queries {
                let q = paper_query(pq);
                let db = q.instantiate(&g);
                let h = q.hypergraph();
                let masks: Vec<u64> =
                    (1u64..1 << q.atoms.len()).filter(|&m| h.is_connected_edges(m)).collect();
                let samplers: Vec<Sampler> = (masks.iter())
                    .map(|&mask| {
                        let atoms = (0..q.atoms.len()).filter(|i| mask & (1 << i) != 0);
                        let sub =
                            JoinQuery::new("sub", atoms.map(|i| q.atoms[i].clone()).collect());
                        let order = connected_order(sub.atoms.iter().map(|a| &a.schema));
                        Sampler::new(&db, &sub, &order).unwrap()
                    })
                    .collect();
                let sequential: Vec<_> =
                    samplers.iter().map(|s| s.estimate(&cfg).unwrap()).collect();
                for cluster in &clusters {
                    let walked = walk_phase(cluster, &samplers, &cfg, &ExecCtx::default()).unwrap();
                    assert_eq!(walked.estimates.len(), masks.len());
                    for ((mask, want), got) in masks.iter().zip(&sequential).zip(walked.estimates) {
                        let at = format!("{pq:?} {mask:#b} width {}", cluster.num_workers());
                        let got = got.unwrap();
                        assert_eq!(got.cardinality.to_bits(), want.cardinality.to_bits(), "{at}");
                        assert_eq!(got.level_tuples, want.level_tuples, "{at}");
                        assert_eq!(got.extensions, want.extensions, "{at}");
                        assert_eq!(got.distinct_samples, want.distinct_samples, "{at}");
                        assert_eq!(got.samples_used, want.samples_used, "{at}");
                    }
                }
                split += sequential.iter().filter(|e| e.distinct_samples > MORSEL_ROWS).count();
            }
        }
    });
    assert!(split > 0, "no sub-join's draws split into several morsels");
}

/// The queries the morsel-split property also runs on a wide graph.
const SPLIT_QUERIES: [PaperQuery; 4] =
    [PaperQuery::Q1, PaperQuery::Q4, PaperQuery::Q5, PaperQuery::Q8];

/// Every GHD the decomposer produces is valid (edge coverage + running
/// intersection) on random connected-ish hypergraphs from the workload
/// generator space.
#[test]
fn ghd_always_valid() {
    cases(32, |rng| {
        // base: 5-cycle; add random chords
        let mut es = vec![(0u32, 1u32), (1, 2), (2, 3), (3, 4), (4, 0)];
        let extra = rng.gen_range(0usize..4);
        for _ in 0..extra {
            let (x, y) = (rng.gen_range(0u32..5), rng.gen_range(0u32..5));
            if x != y {
                es.push((x, y));
            }
        }
        let q = JoinQuery::from_edges("rand", &es);
        let h = q.hypergraph();
        let t = GhdTree::decompose(&h, 3);
        assert!(t.is_valid_for(&h));
        assert!(t.fhw >= 1.0 - 1e-9);
        // every valid order passes the checker; the checker rejects at
        // least as many orders as the generator produces
        let vo = valid_orders(&t);
        for o in &vo {
            assert!(is_valid_order(&t, o));
        }
        assert!(!vo.is_empty());
    });
}
