//! Layer replay for the traced run: the workload's own query shapes and
//! data, pushed through each crate's public functions one layer at a time,
//! every call timed from here and wrapped in a harness span.
//!
//! A layer is a crate. What a layer costs inside a front-door op is read
//! from the op's own reports (see [`crate::workloads::LayerCounts`]); what
//! it costs *alone* is measured here, so a later change to one layer has a
//! number that names it.

use crate::spans::Spans;
use crate::stats::median;
use crate::workloads::{adj_config, service_config, Cell};
use adj_cluster::{Cluster, ClusterConfig, TransportKind};
use adj_core::{Adj, OutputMode, RowBuffer, Strategy};
use adj_hcube::{hcube_shuffle, optimize_share, HCubeImpl, HCubePlan, ShareInput};
use adj_leapfrog::LeapfrogJoin;
use adj_query::parse_query_with_mode;
use adj_relational::intersect::{gallop, leapfrog_intersect};
use adj_relational::{Trie, Value};
use adj_sampling::Sampler;
use adj_service::Service;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Repetitions of a microsecond-scale call; its median is reported.
const MICRO_REPS: usize = 31;
/// Rows a Rows-mode replay join buffers before it stops.
const ROWS_LIMIT: usize = 1_000_000;
/// Runs taken from a trie for the kernel timings.
const KERNEL_RUNS: usize = 20_000;

/// What one cell's replay measured, one field per reported metric.
#[derive(Debug, Default, Clone)]
pub struct Replay {
    pub parse_us: f64,
    pub estimate_ms: f64,
    pub optimize_ms: f64,
    pub share_us: f64,
    pub shuffle_ms: f64,
    pub dup_factor: f64,
    pub partition_balance: f64,
    pub trie_build_mtuples_per_s: f64,
    pub intersect_ns_per_elem: f64,
    pub gallop_ns_per_seek: f64,
    pub join_ms: f64,
    pub seeks_per_out: f64,
    pub rows_mtuples_per_s: f64,
    pub commfirst_op_ms: f64,
    pub coopt_op_ms: f64,
    pub serialized_overhead_frac: f64,
    pub register_ms: f64,
    /// Share of a cold front-door op the replayed layers add up to; the
    /// rest is what no layer replay accounts for.
    pub coverage: f64,
}

/// Runs `f` under a span and returns its result and its seconds.
fn timed<R>(spans: &mut Spans, name: &str, op: u64, f: impl FnOnce() -> R) -> (R, f64) {
    spans.enter(name, op);
    let t = Instant::now();
    let r = f();
    let secs = t.elapsed().as_secs_f64();
    spans.exit();
    (r, secs)
}

/// Median seconds of `MICRO_REPS` calls of `f`, under one span.
fn timed_micro<R>(spans: &mut Spans, name: &str, op: u64, mut f: impl FnMut() -> R) -> f64 {
    spans.enter(name, op);
    let secs: Vec<f64> = (0..MICRO_REPS)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    spans.exit();
    median(&secs)
}

/// The level-1 runs of `trie` (the children of each first-level value):
/// the sorted runs Leapfrog intersects on this data.
fn runs_of(trie: &Trie) -> Vec<&[Value]> {
    let Some(level) = trie.levels().get(1) else { return Vec::new() };
    (0..level.offsets.len().saturating_sub(1))
        .take(KERNEL_RUNS)
        .map(|p| {
            let (lo, hi) = level.children(p);
            &level.values[lo..hi]
        })
        .collect()
}

/// Replays one cell layer by layer. Panics if a layer's public function
/// refuses the workload's own inputs: that is a broken benchmark, not a
/// measurement.
pub fn replay(cell: &Cell, spans: &mut Spans, op: u64) -> Replay {
    let mut r = Replay::default();
    spans.enter(&format!("replay:{}", cell.name), op);

    // adj-query
    let parse = timed_micro(spans, "query.parse", op, || parse_query_with_mode(&cell.text));
    r.parse_us = parse * 1e6;

    // adj-core: the optimizer, which is where sampling and the share LP run.
    let config = adj_config(cell.width);
    let adj = Adj::new(config.clone());
    let (plan, optimize) = timed(spans, "core.optimize", op, || {
        adj.plan(&cell.query, &cell.db, Strategy::CoOptimize).expect("workload query plans")
    });
    r.optimize_ms = optimize * 1e3;

    // adj-sampling: one cardinality estimate under the chosen order.
    let sampler = Sampler::new(&cell.db, &cell.query, &plan.order).expect("sampler builds");
    let (_, estimate) = timed(spans, "sampling.estimate", op, || {
        sampler.estimate(&config.sampling).expect("estimate")
    });
    r.estimate_ms = estimate * 1e3;

    // adj-hcube: share program, then the cold shuffle it configures.
    let names: Vec<String> = cell.query.atoms.iter().map(|a| a.name.clone()).collect();
    let relations: Vec<(u64, usize)> = names
        .iter()
        .map(|n| {
            let rel = cell.db.get(n).expect("query relation exists");
            (rel.schema().mask(), rel.len().next_power_of_two())
        })
        .collect();
    let input_tuples: usize = names.iter().map(|n| cell.db.get(n).map_or(0, |r| r.len())).sum();
    let share_input = ShareInput {
        num_attrs: cell.query.num_attrs(),
        relations,
        num_workers: cell.width,
        memory_limit_bytes: None,
        bytes_per_value: 4,
        hot: Vec::new(),
        require_exact_product: false,
        bound_mask: 0,
    };
    let share = timed_micro(spans, "hcube.share", op, || optimize_share(&share_input));
    r.share_us = share * 1e6;
    let hplan = HCubePlan::new(optimize_share(&share_input).expect("share solves"), cell.width);

    let shuffle_on = |transport: TransportKind, spans: &mut Spans, name: &str| {
        let cluster = Cluster::new(ClusterConfig { transport, ..config.cluster.clone() });
        timed(spans, name, op, || {
            hcube_shuffle(&cluster, &cell.db, &names, &hplan, &plan.order, HCubeImpl::Merge)
                .expect("cold shuffle")
        })
    };
    let (shuffled, shuffle) = shuffle_on(TransportKind::InProcess, spans, "hcube.shuffle");
    let (_, serialized) = shuffle_on(TransportKind::Serialized, spans, "hcube.shuffle_serialized");
    r.shuffle_ms = shuffle * 1e3;
    r.serialized_overhead_frac = serialized / shuffle - 1.0;
    r.dup_factor = shuffled.report.tuples as f64 / input_tuples.max(1) as f64;
    let fills = &shuffled.report.worker_tuples;
    let mean_fill = fills.iter().sum::<u64>() as f64 / fills.len().max(1) as f64;
    r.partition_balance = fills.iter().copied().max().unwrap_or(0) as f64 / mean_fill.max(1.0);

    // adj-relational: trie build on every shuffled fragment, then the
    // intersection kernels on runs taken from those tries.
    let fragments: Vec<_> =
        shuffled.locals.iter().flatten().map(|local| local.trie.to_relation()).collect();
    let built_tuples: usize = fragments.iter().map(|f| f.len()).sum();
    let (_, build) = timed(spans, "relational.trie_build", op, || {
        for fragment in &fragments {
            black_box(Trie::build(fragment));
        }
    });
    r.trie_build_mtuples_per_s = built_tuples as f64 / build / 1e6;

    let tries = &shuffled.locals[0];
    let (a, b) = (runs_of(&tries[0].trie), runs_of(&tries[tries.len() - 1].trie));
    let pairs: Vec<(&[Value], &[Value])> =
        a.iter().zip(b.iter().rev()).map(|(x, y)| (*x, *y)).collect();
    let elems: usize = pairs.iter().map(|(x, y)| x.len() + y.len()).sum();
    let mut out = Vec::new();
    let (_, intersect) = timed(spans, "relational.intersect", op, || {
        for &(x, y) in &pairs {
            black_box(leapfrog_intersect(&[x, y], &mut out));
        }
    });
    r.intersect_ns_per_elem = intersect * 1e9 / elems.max(1) as f64;
    let mut seeks = 0usize;
    let (_, galloping) = timed(spans, "relational.gallop", op, || {
        for &(x, y) in &pairs {
            let (targets, run) = if x.len() <= y.len() { (x, y) } else { (y, x) };
            for &t in targets.iter().take(64) {
                black_box(gallop(run, 0, t));
                seeks += 1;
            }
        }
    });
    r.gallop_ns_per_seek = galloping * 1e9 / seeks.max(1) as f64;

    // adj-leapfrog: the join over each worker's fragments, one worker after
    // the other; the front door runs them side by side, so the slowest
    // worker is what an op waits for.
    let joins: Vec<_> = shuffled
        .locals
        .iter()
        .map(|locals| {
            let tries: Vec<Arc<Trie>> = locals.iter().map(|l| Arc::clone(&l.trie)).collect();
            LeapfrogJoin::new(&plan.order, tries).expect("plan order fits the tries")
        })
        .collect();
    let (mut total_seeks, mut outputs, mut slowest) = (0u64, 0u64, 0f64);
    let (_, join) = timed(spans, "leapfrog.count", op, || {
        for join in &joins {
            let t = Instant::now();
            let (n, counters) = join.count();
            slowest = slowest.max(t.elapsed().as_secs_f64());
            outputs += n;
            total_seeks += counters.stats.total_seeks();
        }
    });
    r.join_ms = join * 1e3;
    r.seeks_per_out = total_seeks as f64 / outputs.max(1) as f64;
    let mut rows = 0usize;
    let (_, rows_secs) = timed(spans, "leapfrog.rows", op, || {
        for join in &joins {
            let mut sink = RowBuffer::new(plan.order.len()).with_limit(ROWS_LIMIT);
            join.join_into(&mut sink);
            rows += sink.len();
        }
    });
    r.rows_mtuples_per_s = rows as f64 / rows_secs / 1e6;

    // adj-core again: the two strategies of Tables II-IV, each one cold run
    // on a private cluster.
    let cold = |strategy: Strategy, spans: &mut Spans, name: &str| {
        let adj = Adj::new(config.clone());
        let (_, secs) = timed(spans, name, op, || {
            adj.execute_with(&cell.query, &cell.db, strategy, OutputMode::Count).expect("cold run")
        });
        secs * 1e3
    };
    r.commfirst_op_ms = cold(Strategy::CommFirst, spans, "core.commfirst_op");
    r.coopt_op_ms = cold(Strategy::CoOptimize, spans, "core.coopt_op");

    // adj-service: registration, and the cold front-door op the layers
    // above are measured against.
    let service = Service::new(service_config(cell.width, false));
    let db = cell.db.clone();
    let (_, register) =
        timed(spans, "service.register", op, || service.register_database("replay", db));
    r.register_ms = register * 1e3;
    let (_, front_door) = timed(spans, "service.cold_op", op, || {
        service.execute_text("replay", &cell.count_text).expect("cold front-door op")
    });
    r.coverage = (parse + optimize + share + shuffle + slowest) / front_door;

    spans.exit();
    r
}

/// The median of one field over the replayed cells.
pub fn median_of(replays: &[Replay], field: impl Fn(&Replay) -> f64) -> f64 {
    median(&replays.iter().map(field).collect::<Vec<f64>>())
}
