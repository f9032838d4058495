//! Property-based tests over the core invariants, on randomly generated
//! graphs and schedules.
//!
//! Originally written against `proptest`; the offline build environment
//! cannot fetch it, so the same properties now run under a small seeded-RNG
//! loop harness (`cases`). Every case is deterministic per seed, so a
//! failure reproduces by re-running the test.

use adj::prelude::{
    paper_query, AdjConfig, Attr, BoundValues, Cluster, ClusterConfig, Database, ExecCtx,
    JoinQuery, OutputMode, PaperQuery, QueryOutput, Relation, Sampler, SamplingConfig, Schema,
    Strategy, Value,
};
use adj_leapfrog::reference::plain_leapfrog;
use adj_leapfrog::{JoinCounters, JoinScratch, LeapfrogJoin};
use adj_query::order::{all_orders, is_valid_order, valid_orders};
use adj_query::GhdTree;
use adj_relational::intersect::{
    intersect2_merge, leapfrog_intersect, leapfrog_matches, probe_matches, ValueTable, TABLE_CAP,
};
use adj_relational::{CountSink, ExistsSink, RowBuffer, RowSink, Trie};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Runs `body` for `n` deterministic cases, each with its own seeded RNG.
fn cases(n: u64, mut body: impl FnMut(&mut StdRng)) {
    for case in 0..n {
        let mut rng = StdRng::seed_from_u64(0xADF0_5EED ^ case.wrapping_mul(0x9E37_79B9));
        body(&mut rng);
    }
}

/// A small random edge list over `max_nodes` node ids, 1..max_edges long.
fn edges(rng: &mut StdRng, max_nodes: u32, max_edges: usize) -> Vec<(u32, u32)> {
    let len = rng.gen_range(1..max_edges);
    (0..len).map(|_| (rng.gen_range(0..max_nodes), rng.gen_range(0..max_nodes))).collect()
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
/// runs; every offset it reports indexes the matched value in its run.
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
            if shortest > 0 && runs[*driver].len() <= 4 * shortest + 8 {
                let slots = &mut seen[level];
                slots.resize(runs.len(), None);
                let mut ready = true;
                for i in invariant() {
                    let key = Some((runs[i].as_ptr(), runs[i].len()));
                    let fits = (*runs[i].last().unwrap() as usize) < TABLE_CAP;
                    ready &= slots[i] == key && fits;
                    slots[i] = key;
                }
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
                    assert_eq!(c.tuples_per_level, reference.tuples_per_level, "{at}");
                    assert!(c.intersect_ops <= reference.intersect_ops, "{at}");
                    assert_eq!(c.intersect_ops, reference.danced_ops, "{at}");
                    assert_eq!(c.stats.probes_per_level, reference.probes_per_level, "{at}");
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

                let mut scratch = JoinScratch::new();
                let by_first: u64 =
                    (0..14).map(|v| join.count_with_first_value(v, &mut scratch).0).sum();
                assert_eq!(by_first, reference.rows.len() as u64, "{pq:?} {order:?}");
            }
        }
    });
    assert!(probes > 0, "some invariant run is reused");
}

/// The probe kernel finds exactly what the dance finds — the same values,
/// ascending, with the same offsets in every run — for k = 2…6 runs and
/// any driving run, with values at `u32::MAX` and past the table cap. A
/// run holding a value past the cap gets no table, and that table answers
/// no lookup, so the join falls back to the dance.
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
        probe_matches(&refs, driver, &tables, |v, at| {
            got.push(v);
            got_at.extend_from_slice(at);
        });
        assert_eq!(got, want, "{runs:?} driven by {driver}");
        assert_eq!(got_at, want_at, "{runs:?} driven by {driver}");
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
                let a = join.join_into_with_scratch(&mut reused, &mut scratch);
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
                let cluster = Cluster::new(cfg.cluster.clone());
                let ctx = ExecCtx::default();
                adj_core::execute_plan(&cluster, &db, &plan, &cfg, mode, &BoundValues::none(), &ctx)
                    .unwrap()
                    .0
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
/// the same set.
#[test]
fn sort_kernel_equals_a_btreeset_reference() {
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
        let cached = adj_leapfrog::CachedJoin::new(&order, tries.iter().collect(), cap).unwrap();
        assert_eq!(plain.count().0, cached.count().0);
    });
}

/// Relation algebra: semijoin output is contained in the input and agrees
/// with join-then-project.
#[test]
fn semijoin_is_join_projection() {
    cases(64, |rng| {
        let left = edges(rng, 16, 80);
        let right = edges(rng, 16, 80);
        let l = Relation::from_pairs(Attr(0), Attr(1), &left);
        let r = Relation::from_pairs(Attr(1), Attr(2), &right);
        let sj = l.semijoin(&r);
        for row in sj.rows() {
            assert!(l.contains_row(row));
        }
        let jp = l.join(&r).unwrap().project(&[Attr(0), Attr(1)]).unwrap();
        assert_eq!(sj, jp);
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
