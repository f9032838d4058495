//! The five workloads: what each sets up, what one round of it does, and
//! how its answers are checked.
//!
//! Every workload drives one [`Service`] through its public front door from
//! one closed-loop client thread. A round is a fixed sequence of ops; every
//! round of a run repeats it exactly.

use crate::digest::{fold, output_digest, pairs_digest, plan_digest, rows_digest};
use crate::spans::Spans;
use adj_baselines::{run_binary_join, BaselineConfig};
use adj_cluster::{Cluster, ClusterConfig};
use adj_core::{Adj, AdjConfig, CostParams, ExecutionReport, QueryPlan, Strategy};
use adj_datagen::{
    binding_workload, generate, update_stream, BindingWorkloadConfig, Dataset, GraphConfig,
    UpdateStreamConfig,
};
use adj_query::{paper_query, parse_query_with_mode, Bindings, JoinQuery, PaperQuery};
use adj_relational::{Attr, Database, OutputMode, QueryOutput, Relation, Value};
use adj_service::{
    MutationBatch, PreparedQuery, QueryTrace, Service, ServiceConfig, ServiceError, ServiceOutcome,
    TraceSettings,
};
use std::collections::{HashMap, HashSet};
use std::time::Instant;

/// The seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 20260927;

/// The bound-query shape of `bound_loop` and `bound_batch`: the triangles
/// through one vertex.
const BOUND_TEXT: &str = "Q(b,c) :- R1($v,b), R2(b,c), R3($v,c)";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    ColdFirstTouch,
    WarmModes,
    BoundLoop,
    BoundBatch,
    MutateRead,
}

impl WorkloadKind {
    pub const ALL: [WorkloadKind; 5] = [
        WorkloadKind::ColdFirstTouch,
        WorkloadKind::WarmModes,
        WorkloadKind::BoundLoop,
        WorkloadKind::BoundBatch,
        WorkloadKind::MutateRead,
    ];

    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::ColdFirstTouch => "cold_first_touch",
            WorkloadKind::WarmModes => "warm_modes",
            WorkloadKind::BoundLoop => "bound_loop",
            WorkloadKind::BoundBatch => "bound_batch",
            WorkloadKind::MutateRead => "mutate_read",
        }
    }

    pub fn from_name(name: &str) -> Option<WorkloadKind> {
        WorkloadKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// How much data and how many ops a round holds. `Smoke` exists for the
/// package's own tests: the same structure at a size a debug build runs in
/// a second.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

/// What one op returned, as the run loop needs it.
#[derive(Debug)]
pub struct Observed {
    /// Seconds spent inside the front-door call(s) of the op.
    pub secs: f64,
    /// Digest of the output(s).
    pub output: u64,
    /// Digest of the plan(s) the op ran under; 0 for an op that runs no
    /// plan (a mutation).
    pub plan: u64,
    /// Why the op counts as failed: it errored, was refused, or broke the
    /// workload's own coldness / warmness / consistency assertion.
    pub error: Option<String>,
}

/// Layer counters the traced run adds up over its ops, read from the
/// public reports the front door returns.
#[derive(Debug, Default, Clone)]
pub struct LayerCounts {
    /// Front-door calls made (an op of `bound_loop` makes 64).
    pub calls: u64,
    /// Seconds inside front-door calls.
    pub call_secs: f64,
    pub optimize_secs: f64,
    pub precompute_bags: u64,
    pub precompute_tuples: u64,
    pub comm_tuples: u64,
    pub seeks: u64,
    pub output_tuples: u64,
    pub mutations: u64,
    pub mutate_secs: f64,
    pub patch_entries: u64,
    pub overlay_tuples: u64,
    pub batch_bindings: u64,
    pub batch_unique: u64,
    pub batch_secs: f64,
    /// Seconds of the program's own phase spans, by span name.
    pub phase_secs: HashMap<&'static str, f64>,
    pub events_dropped: u64,
}

impl LayerCounts {
    fn query(&mut self, secs: f64, plan: &QueryPlan, report: &ExecutionReport) {
        self.calls += 1;
        self.call_secs += secs;
        self.optimize_secs += report.optimization_secs;
        self.precompute_bags += plan.precompute.len() as u64;
        self.precompute_tuples += report.precompute_tuples;
        self.comm_tuples += report.comm_tuples;
        self.seeks += report.counters.stats.total_seeks();
        self.output_tuples += report.output_tuples;
    }

    fn trace(&mut self, trace: &Option<QueryTrace>, spans: &mut Spans) {
        let Some(trace) = trace else { return };
        self.events_dropped += trace.events_dropped;
        for e in trace.events.iter().filter(|e| e.span && e.lane == 0) {
            *self.phase_secs.entry(e.name).or_default() += e.dur_us as f64 / 1e6;
        }
        spans.adopt(trace);
    }
}

/// What the run loop hands every op: where to record spans and counters.
pub struct OpCtx {
    pub spans: Spans,
    pub counts: LayerCounts,
    /// Id of the op being run; spans of one op share it.
    pub op_id: u64,
}

impl OpCtx {
    pub fn new(trace: bool) -> Self {
        OpCtx { spans: Spans::new(trace), counts: LayerCounts::default(), op_id: 0 }
    }
}

/// One query shape over one database: what a text op submits, and what the
/// layer replay of the traced run replays.
#[derive(Clone)]
pub struct Cell {
    /// The name the database is registered under.
    pub name: String,
    /// The text the workload submits.
    pub text: String,
    /// The same query in `COUNT` mode, for the replay's cold front-door op.
    pub count_text: String,
    pub query: JoinQuery,
    pub db: Database,
    pub width: usize,
}

impl Cell {
    /// A paper query over `graph`, in `COUNT` or Rows mode. The database is
    /// instantiated for the query as the parser reads the text back, so text
    /// and data agree by construction.
    fn new(name: &str, which: PaperQuery, count: bool, graph: &Relation, width: usize) -> Self {
        let body = body_text(&paper_query(which));
        let count_text = format!("COUNT({body})");
        let text = if count { count_text.clone() } else { body };
        let (query, _, _) = parse_query_with_mode(&text).expect("generated query text parses");
        let db = query.instantiate(graph);
        Cell { name: name.to_string(), text, count_text, query, db, width }
    }

    fn edges(&self) -> usize {
        self.db.get("R1").map_or(0, Relation::len)
    }
}

pub trait Workload {
    /// The latency classes of the workload's ops.
    fn classes(&self) -> &[&'static str];
    /// One round: the class of each op, in execution order.
    fn round(&self) -> &[usize];
    /// Untimed work before every round.
    fn before_round(&mut self) {}
    /// Runs op `i` of the round.
    fn run_op(&mut self, i: usize, ctx: &mut OpCtx) -> Observed;
    /// Compares what the ops returned with an independent oracle. `Ok`
    /// says what was compared.
    fn check_oracle(&mut self) -> Result<String, String>;
    /// Asserts what the rounds run so far must have seen.
    fn check_run(&self) -> Result<(), String> {
        Ok(())
    }
    fn service(&self) -> &Service;
    /// The workload's own query shapes and data, for layer replay.
    fn replay_cells(&self) -> Vec<Cell>;
    /// The sizes the workload was built with.
    fn describe(&self) -> &str;
}

pub fn setup(kind: WorkloadKind, seed: u64, size: Size, traced: bool) -> Box<dyn Workload> {
    match kind {
        WorkloadKind::ColdFirstTouch => Box::new(ColdFirstTouch::new(seed, size, traced)),
        WorkloadKind::WarmModes => Box::new(WarmModes::new(seed, size, traced)),
        // Width 1 takes the inline, no-spawn path: at width 2 a loop of
        // sub-millisecond calls measures the host's scheduler (README, "Noise").
        WorkloadKind::BoundLoop => Box::new(Bound::new(seed, size, traced, BoundShape::Loop, 1)),
        WorkloadKind::BoundBatch => Box::new(Bound::new(seed, size, traced, BoundShape::Batch, 2)),
        WorkloadKind::MutateRead => Box::new(MutateRead::new(seed, size, traced)),
    }
}

/// The fixed conditions of every workload: co-optimized plans that are a
/// pure function of the data (`measure_beta` off), the in-process transport,
/// a fixed width, no deadline, default cache capacities.
pub fn service_config(width: usize, traced: bool) -> ServiceConfig {
    ServiceConfig {
        adj: adj_config(width),
        trace: TraceSettings { enabled: traced, ..Default::default() },
        ..Default::default()
    }
}

pub fn adj_config(width: usize) -> AdjConfig {
    AdjConfig {
        cluster: ClusterConfig::with_workers(width),
        cost: CostParams { measure_beta: false, ..Default::default() },
        ..Default::default()
    }
}

/// A seeded Fisher–Yates shuffle (SplitMix64 stream): op orders, vertex
/// labels and block orders are all fixed by the seed this way.
fn shuffled<T>(mut items: Vec<T>, seed: u64) -> Vec<T> {
    let mut state = seed;
    for i in (1..items.len()).rev() {
        state = fold(state, i as u64);
        items.swap(i, (state % (i as u64 + 1)) as usize);
    }
    items
}

/// A seeded relabeling of the vertices `0..nodes`. The structure of a
/// relabeled graph — degrees, triangles, every result cardinality — stays;
/// the values, and with them sort orders, hash partitions, sampled vertices
/// and hot-value identities, change with the seed.
fn labels(nodes: usize, seed: u64) -> Vec<Value> {
    shuffled((0..nodes as Value).collect(), seed)
}

fn relabeled(row: &[Value], labels: &[Value]) -> (Value, Value) {
    (labels[row[0] as usize], labels[row[1] as usize])
}

/// The web-graph stand-in (`Dataset::WB`) at `scale` with the dataset's own
/// structure (`variant` picks one of several), and its number of vertices.
fn wb_structure(scale: f64, variant: u64) -> (Relation, usize) {
    let cfg = Dataset::WB.config(scale);
    (generate(&GraphConfig { seed: cfg.seed + 7 * variant, ..cfg }), cfg.nodes)
}

/// [`wb_structure`] relabeled by the run's seed.
fn wb_graph(scale: f64, variant: u64, seed: u64) -> Relation {
    let (graph, nodes) = wb_structure(scale, variant);
    let labels = labels(nodes, fold(seed, variant));
    let pairs: Vec<(Value, Value)> = graph.rows().map(|r| relabeled(r, &labels)).collect();
    let attrs = graph.schema().attrs();
    Relation::from_pairs(attrs[0], attrs[1], &pairs)
}

/// The body of `query` as query text: `R1(a,b), R2(b,c), …`.
fn body_text(query: &JoinQuery) -> String {
    let atoms: Vec<String> = query
        .atoms
        .iter()
        .map(|atom| {
            let vars: Vec<String> = atom
                .schema
                .attrs()
                .iter()
                .map(|a| char::from(b'a' + a.0 as u8).to_string())
                .collect();
            format!("{}({})", atom.name, vars.join(","))
        })
        .collect();
    atoms.join(", ")
}

fn plan_of(plan: &QueryPlan, report: &ExecutionReport) -> u64 {
    plan_digest(&plan.order, &plan.precompute, &report.share)
}

/// What an op that the front door refused or failed observes.
fn errored(secs: f64, e: &ServiceError) -> Observed {
    Observed { secs, output: 0, plan: 0, error: Some(format!("front door returned an error: {e}")) }
}

/// One `execute_text` of `cell` through the front door, under a span.
/// `judge` sees the outcome and what was observed of it and says why the op
/// fails, if it does.
fn text_op(
    service: &Service,
    cell: &Cell,
    ctx: &mut OpCtx,
    judge: impl FnOnce(&ServiceOutcome, &Observed) -> Option<String>,
) -> Observed {
    ctx.spans.enter("execute_text", ctx.op_id);
    let t = Instant::now();
    let result = service.execute_text(&cell.name, &cell.text);
    let secs = t.elapsed().as_secs_f64();
    let observed = match result {
        Ok(out) => {
            ctx.counts.query(secs, &out.plan, &out.report);
            ctx.counts.trace(&out.trace, &mut ctx.spans);
            let output = output_digest(&out.output, None);
            let mut obs =
                Observed { secs, output, plan: plan_of(&out.plan, &out.report), error: None };
            obs.error = judge(&out, &obs);
            obs
        }
        Err(e) => errored(secs, &e),
    };
    ctx.spans.exit();
    observed
}

/// The answer of the multi-round binary-join baseline on one worker: an
/// implementation that shares neither the optimizer, nor HCube, nor Leapfrog
/// with what is being measured.
fn binary_join_oracle(cell: &Cell) -> Result<Relation, String> {
    let cluster = Cluster::new(ClusterConfig::with_workers(1));
    run_binary_join(&cluster, &cell.db, &cell.query, &BaselineConfig::default())
        .map(|(rows, _)| rows)
        .map_err(|e| format!("binary-join oracle failed: {e}"))
}

// ───────────────────────── cold_first_touch ─────────────────────────

/// Every op is the first query a freshly registered database ever sees:
/// parse, optimize, shuffle, build and join all run.
struct ColdFirstTouch {
    service: Service,
    /// One database per graph and shape, graph-major.
    cells: Vec<Cell>,
    /// The cell of each op of a round.
    order: Vec<usize>,
    round: Vec<usize>,
    /// The oracle's cell and the count an op observed there.
    triangle_cell: usize,
    triangle_count: Option<u64>,
    description: String,
}

impl ColdFirstTouch {
    const SHAPES: [PaperQuery; 3] = [PaperQuery::Q1, PaperQuery::Q4, PaperQuery::Q5];

    fn new(seed: u64, size: Size, traced: bool) -> Self {
        let (graphs, scale) = match size {
            Size::Full => (5, 1.25),
            Size::Smoke => (2, 0.05),
        };
        let mut cells = Vec::new();
        for g in 0..graphs {
            let graph = wb_graph(scale, g, seed);
            for shape in Self::SHAPES {
                cells.push(Cell::new(&format!("g{g}_{}", shape.name()), shape, true, &graph, 2));
            }
        }
        let order = shuffled((0..cells.len()).collect(), seed);
        let description = format!(
            "{graphs} WB graphs at scale {scale} (~{} edges) x Q1/Q4/Q5 = {} databases, width 2",
            cells[0].edges(),
            cells.len()
        );
        ColdFirstTouch {
            service: Service::new(service_config(2, traced)),
            round: order.iter().map(|c| c % Self::SHAPES.len()).collect(),
            // The Q1 cell of the graph the round starts on.
            triangle_cell: order[0] - order[0] % Self::SHAPES.len(),
            triangle_count: None,
            cells,
            order,
            description,
        }
    }
}

impl Workload for ColdFirstTouch {
    fn classes(&self) -> &[&'static str] {
        &["count_q1", "count_q4", "count_q5"]
    }

    fn round(&self) -> &[usize] {
        &self.round
    }

    /// Re-registering replaces the database: its plans and indexes drop, so
    /// every op of the round misses both caches.
    fn before_round(&mut self) {
        for cell in &self.cells {
            self.service.register_database(cell.name.clone(), cell.db.clone());
        }
    }

    fn run_op(&mut self, i: usize, ctx: &mut OpCtx) -> Observed {
        let at = self.order[i];
        let seen = (at == self.triangle_cell).then_some(&mut self.triangle_count);
        text_op(&self.service, &self.cells[at], ctx, |out, _| {
            if let Some(seen) = seen {
                *seen = out.output.count();
            }
            if out.cache_hit {
                Some("plan-cache hit on a first touch".to_string())
            } else if out.report.index_relations_reused != 0 {
                Some("index-cache reuse on a first touch".to_string())
            } else {
                None
            }
        })
    }

    fn check_oracle(&mut self) -> Result<String, String> {
        let cell = &self.cells[self.triangle_cell];
        let want = binary_join_oracle(cell)?.len() as u64;
        match self.triangle_count {
            Some(n) if n == want => {
                Ok(format!("{}: COUNT {n} equals the binary-join oracle", cell.name))
            }
            got => Err(format!("{}: COUNT {got:?}, binary-join oracle {want}", cell.name)),
        }
    }

    fn service(&self) -> &Service {
        &self.service
    }

    fn replay_cells(&self) -> Vec<Cell> {
        self.cells[..Self::SHAPES.len()].to_vec()
    }

    fn describe(&self) -> &str {
        &self.description
    }
}

// ───────────────────────── warm_modes ─────────────────────────

/// Plan and index caches are hot: what is left is Leapfrog and, in Rows
/// mode, the gather.
struct WarmModes {
    service: Service,
    /// One cell per class, each over its own database.
    cells: Vec<Cell>,
    round: Vec<usize>,
    /// Digest of the rows an op of class [`WarmModes::ROWS_Q1`] returned.
    rows_q1: Option<u64>,
    description: String,
}

impl WarmModes {
    const CELLS: [(&'static str, PaperQuery, bool); 5] = [
        ("count_q1", PaperQuery::Q1, true),
        ("rows_q1", PaperQuery::Q1, false),
        ("count_q4", PaperQuery::Q4, true),
        ("rows_q7", PaperQuery::Q7, false),
        ("count_q8", PaperQuery::Q8, true),
    ];
    const ROWS_Q1: usize = 1;

    fn new(seed: u64, size: Size, traced: bool) -> Self {
        let (scale, repeats) = match size {
            Size::Full => (2.5, 5),
            Size::Smoke => (0.05, 2),
        };
        let graph = wb_graph(scale, 0, seed);
        let service = Service::new(service_config(2, traced));
        let cells: Vec<Cell> = Self::CELLS
            .iter()
            .map(|&(name, shape, count)| Cell::new(name, shape, count, &graph, 2))
            .collect();
        for cell in &cells {
            service.register_database(cell.name.clone(), cell.db.clone());
            // First touch: plans and indexes are built here, in set-up.
            service.execute_text(&cell.name, &cell.text).expect("priming query runs");
        }
        let n = cells.len();
        let description = format!(
            "one WB graph at scale {scale} (~{} edges), {n} cells x {repeats} per round, width 2",
            cells[0].edges()
        );
        let round = shuffled((0..n * repeats).map(|i| i % n).collect(), seed);
        WarmModes { service, cells, round, rows_q1: None, description }
    }
}

impl Workload for WarmModes {
    fn classes(&self) -> &[&'static str] {
        &["count_q1", "rows_q1", "count_q4", "rows_q7", "count_q8"]
    }

    fn round(&self) -> &[usize] {
        &self.round
    }

    fn run_op(&mut self, i: usize, ctx: &mut OpCtx) -> Observed {
        let class = self.round[i];
        let seen = (class == Self::ROWS_Q1).then_some(&mut self.rows_q1);
        text_op(&self.service, &self.cells[class], ctx, |out, obs| {
            if let Some(seen) = seen {
                *seen = Some(obs.output);
            }
            if !out.cache_hit {
                Some("plan-cache miss on a warm op".to_string())
            } else if out.report.index_relations_built != 0 {
                Some("index build on a warm op".to_string())
            } else {
                None
            }
        })
    }

    fn check_oracle(&mut self) -> Result<String, String> {
        let rows = binary_join_oracle(&self.cells[Self::ROWS_Q1])?;
        let want = rows_digest(&rows, None);
        match self.rows_q1 {
            Some(got) if got == want => {
                Ok(format!("rows_q1: {} rows equal the binary-join oracle", rows.len()))
            }
            got => Err(format!("rows_q1: digest {got:?}, binary-join oracle {want}")),
        }
    }

    fn service(&self) -> &Service {
        &self.service
    }

    fn replay_cells(&self) -> Vec<Cell> {
        self.cells.clone()
    }

    fn describe(&self) -> &str {
        &self.description
    }
}

// ───────────────────────── bound_loop / bound_batch ─────────────────────────

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BoundShape {
    /// An op is a block of sequential `execute_bound` calls.
    Loop,
    /// An op is one `execute_batch` call.
    Batch,
}

/// One prepared statement, re-bound: per-call fixed cost (`Loop`) or one
/// admission and one shuffle shared by thousands of bindings (`Batch`).
struct Bound {
    shape: BoundShape,
    service: Service,
    prepared: PreparedQuery,
    /// The attribute `$v` binds; left out of row digests.
    bound_attr: Attr,
    /// The full triangle listing over the workload's graph: what the oracle
    /// and the layer replay run.
    triangles: Cell,
    /// The bindings of each op of a round.
    ops: Vec<Vec<Value>>,
    round: Vec<usize>,
    /// Digest each binding value returned, from the first op that used it.
    seen: HashMap<Value, u64>,
    description: String,
}

impl Bound {
    fn new(seed: u64, size: Size, traced: bool, shape: BoundShape, width: usize) -> Self {
        let scale = match size {
            Size::Full => 2.5,
            Size::Smoke => 0.05,
        };
        let (n_ops, per_op, exponent) = match (shape, size) {
            (BoundShape::Loop, Size::Full) => (30, 64, 1.2),
            (BoundShape::Loop, Size::Smoke) => (3, 8, 1.2),
            (BoundShape::Batch, Size::Full) => (40, 4096, 0.6),
            (BoundShape::Batch, Size::Smoke) => (3, 128, 0.6),
        };
        let graph = wb_graph(scale, 0, seed);
        let triangles = Cell::new("g", PaperQuery::Q1, false, &graph, width);
        let service = Service::new(service_config(width, traced));
        service.register_database("g", triangles.db.clone());
        let (prepared, mode) = service.prepare_text("g", BOUND_TEXT).expect("bound shape prepares");
        assert_eq!(mode, OutputMode::Rows);
        let draw = |count, seed| {
            binding_workload(&graph, &BindingWorkloadConfig { count, column: 0, exponent, seed })
        };
        let ops: Vec<Vec<Value>> = match shape {
            // Hot vertices cost more. A block of 64 draws that catches two
            // more of them than its neighbour is a different op, so the whole
            // round is drawn at once and dealt out by descending degree:
            // every block gets the same mix, in an order of its own.
            BoundShape::Loop => {
                let mut degree: HashMap<Value, usize> = HashMap::new();
                for row in graph.rows() {
                    *degree.entry(row[0]).or_default() += 1;
                }
                let mut draws = draw(n_ops * per_op, seed);
                draws.sort_by_key(|v| (std::cmp::Reverse(degree[v]), *v));
                (0..n_ops)
                    .map(|op| {
                        let block = draws.iter().skip(op).step_by(n_ops).copied().collect();
                        shuffled(block, fold(seed, op as u64))
                    })
                    .collect()
            }
            // A batch of thousands evens out by itself.
            BoundShape::Batch => (0..n_ops).map(|op| draw(per_op, fold(seed, op as u64))).collect(),
        };
        let description = format!(
            "one WB graph at scale {scale} (~{} edges), {n_ops} ops x {per_op} bindings per \
             round, width {width}",
            triangles.edges()
        );
        Bound {
            shape,
            service,
            bound_attr: prepared.params()[0].1,
            prepared,
            triangles,
            ops,
            round: vec![0; n_ops],
            seen: HashMap::new(),
            description,
        }
    }

    fn run_loop(&mut self, i: usize, ctx: &mut OpCtx) -> Observed {
        let mut obs = Observed { secs: 0.0, output: 0, plan: 0, error: None };
        for &v in &self.ops[i] {
            let bindings = Bindings::new().set("v", v);
            ctx.spans.enter("execute_bound", ctx.op_id);
            let t = Instant::now();
            let result = self.service.execute_bound(&self.prepared, &bindings, OutputMode::Rows);
            let secs = t.elapsed().as_secs_f64();
            obs.secs += secs;
            match result {
                Ok(out) => {
                    ctx.counts.query(secs, &out.plan, &out.report);
                    ctx.counts.trace(&out.trace, &mut ctx.spans);
                    let digest = output_digest(&out.output, Some(self.bound_attr));
                    self.seen.entry(v).or_insert(digest);
                    obs.output = fold(obs.output, digest);
                    obs.plan = fold(obs.plan, plan_of(&out.plan, &out.report));
                    if !out.cache_hit {
                        obs.error = Some("plan-cache miss on a prepared statement".to_string());
                    }
                }
                Err(e) => obs.error = errored(secs, &e).error,
            }
            ctx.spans.exit();
        }
        obs
    }

    fn run_batch(&mut self, i: usize, ctx: &mut OpCtx) -> Observed {
        let bindings: Vec<Bindings> =
            self.ops[i].iter().map(|&v| Bindings::new().set("v", v)).collect();
        ctx.spans.enter("execute_batch", ctx.op_id);
        let t = Instant::now();
        let result = self.service.execute_batch(&self.prepared, &bindings, OutputMode::Rows);
        let secs = t.elapsed().as_secs_f64();
        let observed = match result {
            Ok(out) => {
                ctx.counts.query(secs, &out.plan, &out.report);
                ctx.counts.trace(&out.trace, &mut ctx.spans);
                ctx.counts.batch_bindings += bindings.len() as u64;
                ctx.counts.batch_unique += out.unique_executed as u64;
                ctx.counts.batch_secs += secs;
                // A batch served entirely from the result cache shuffles
                // nothing and reports no share vector, so the share stays
                // out of a batch's plan digest.
                let plan = plan_digest(&out.plan.order, &out.plan.precompute, &[]);
                let mut obs = Observed { secs, output: 0, plan, error: None };
                if !out.cache_hit {
                    obs.error = Some("plan-cache miss on a prepared statement".to_string());
                }
                for (&v, result) in self.ops[i].iter().zip(&out.results) {
                    match result {
                        Ok(rows) => {
                            let digest = output_digest(rows, Some(self.bound_attr));
                            self.seen.entry(v).or_insert(digest);
                            obs.output = fold(obs.output, digest);
                        }
                        Err(e) => obs.error = errored(secs, e).error,
                    }
                }
                obs
            }
            Err(e) => errored(secs, &e),
        };
        ctx.spans.exit();
        observed
    }
}

impl Workload for Bound {
    fn classes(&self) -> &[&'static str] {
        match self.shape {
            BoundShape::Loop => &["block_of_bound_calls"],
            BoundShape::Batch => &["batch"],
        }
    }

    fn round(&self) -> &[usize] {
        &self.round
    }

    fn run_op(&mut self, i: usize, ctx: &mut OpCtx) -> Observed {
        match self.shape {
            BoundShape::Loop => self.run_loop(i, ctx),
            BoundShape::Batch => self.run_batch(i, ctx),
        }
    }

    /// Every binding any op used is compared: the triangles through `v` are
    /// the rows of the full triangle listing whose bound attribute is `v`.
    fn check_oracle(&mut self) -> Result<String, String> {
        let rows = binary_join_oracle(&self.triangles)?;
        let attrs = rows.schema().attrs().to_vec();
        let at = attrs.iter().position(|&a| a == self.bound_attr).expect("Q1 binds attribute a");
        let mut by_vertex: HashMap<Value, Vec<[(Attr, Value); 2]>> = HashMap::new();
        for row in rows.rows() {
            let mut rest = (0..3).filter(|&j| j != at).map(|j| (attrs[j], row[j]));
            let pair = [rest.next().expect("arity 3"), rest.next().expect("arity 3")];
            by_vertex.entry(row[at]).or_default().push(pair);
        }
        for (v, &got) in &self.seen {
            let through_v = by_vertex.get(v).map_or(&[][..], Vec::as_slice);
            let want = pairs_digest(through_v.iter().map(|r| &r[..]));
            if got != want {
                return Err(format!("binding v={v}: digest {got}, binary-join oracle {want}"));
            }
        }
        Ok(format!(
            "{} distinct bindings equal the binary-join oracle ({} triangles)",
            self.seen.len(),
            rows.len()
        ))
    }

    fn service(&self) -> &Service {
        &self.service
    }

    fn replay_cells(&self) -> Vec<Cell> {
        vec![self.triangles.clone()]
    }

    fn describe(&self) -> &str {
        &self.description
    }
}

/// Median seconds of one warm `execute_bound` call of `bound_loop` run at
/// cluster width `width`. The traced run compares widths 1 and 2: the
/// difference is what handing a sub-millisecond query to a second worker
/// thread costs.
pub fn bound_call_secs(seed: u64, size: Size, width: usize) -> f64 {
    let mut w = Bound::new(seed, size, false, BoundShape::Loop, width);
    let mut ctx = OpCtx::new(false);
    // The first block fills the index cache.
    w.run_loop(0, &mut ctx);
    let blocks: Vec<f64> =
        (1..w.ops.len()).map(|i| w.run_loop(i, &mut ctx).secs / w.ops[i].len() as f64).collect();
    crate::stats::median(&blocks)
}

// ───────────────────────── mutate_read ─────────────────────────

/// Writes beside reads: a cycle is one mutation batch, the read that pays
/// for it (re-plan, patched or rebuilt indexes), then steady reads. A round
/// starts from the freshly registered graph and runs long enough for the
/// overlay to outgrow its limit once, so every round sees one compaction
/// and all rounds see the same states.
struct MutateRead {
    service: Service,
    /// `COUNT` Q4 over the graph as generated; `R1` is what mutates.
    cell: Cell,
    /// The batches of one round.
    batches: Vec<MutationBatch>,
    /// Batches applied so far in the current round.
    applied: usize,
    round: Vec<usize>,
    rounds_started: u64,
    /// `(count, plan digest)` of the current cycle's repair read.
    cycle: Option<(u64, u64)>,
    last_count: Option<u64>,
    description: String,
}

impl MutateRead {
    const MUTATE: usize = 0;
    const REPAIR: usize = 1;
    const STEADY: usize = 2;
    const CYCLE: [usize; 4] = [Self::MUTATE, Self::REPAIR, Self::STEADY, Self::STEADY];

    fn new(seed: u64, size: Size, traced: bool) -> Self {
        let scale = match size {
            Size::Full => 3.0,
            Size::Smoke => 0.2,
        };
        // One batch replaces 2.5 % of R1 with fresh rows — 5 % of it in overlay
        // tuples — so the default overlay limit (25 % of the base) is passed
        // by the sixth and last batch of a round.
        let cycles = 6;
        // The update stream belongs to the structure too: it is drawn against
        // the graph as generated and relabeled with it.
        let (structure, nodes) = wb_structure(scale, 0);
        let churn = structure.len() / 40;
        let stream = update_stream(
            &structure,
            &UpdateStreamConfig {
                batches: cycles,
                inserts_per_batch: churn,
                deletes_per_batch: churn,
                nodes,
                exponent: 0.5,
                ..Default::default()
            },
        );
        let labels = labels(nodes, fold(seed, 0));
        let rows = |rows: Vec<Vec<Value>>| -> Vec<Vec<Value>> {
            rows.iter().map(|r| relabeled(r, &labels)).map(|(u, v)| vec![u, v]).collect()
        };
        let batches = stream
            .into_iter()
            .map(|b| MutationBatch {
                relation: "R1".to_string(),
                inserts: rows(b.inserts),
                deletes: rows(b.deletes),
            })
            .collect();
        let cell = Cell::new("g", PaperQuery::Q4, true, &wb_graph(scale, 0, seed), 2);
        let r1 = cell.db.get("R1").expect("Q4 reads R1");
        let description = format!(
            "one WB graph at scale {scale} (~{} edges) x Q4, batches of {churn} inserts (Zipf 0.5 \
             endpoints) + {churn} deletes on R1, {cycles} cycles per round, width 2",
            r1.len()
        );
        MutateRead {
            service: Service::new(service_config(2, traced)),
            batches,
            applied: 0,
            round: Self::CYCLE.iter().copied().cycle().take(Self::CYCLE.len() * cycles).collect(),
            rounds_started: 0,
            cycle: None,
            last_count: None,
            cell,
            description,
        }
    }

    fn mutate(&mut self, ctx: &mut OpCtx) -> Observed {
        let batch = &self.batches[self.applied];
        self.applied += 1;
        self.cycle = None;
        ctx.spans.enter("mutate", ctx.op_id);
        let t = Instant::now();
        let result = self.service.mutate(&self.cell.name, batch);
        let secs = t.elapsed().as_secs_f64();
        ctx.spans.exit();
        match result {
            Ok(out) => {
                ctx.counts.mutations += 1;
                ctx.counts.mutate_secs += secs;
                ctx.counts.patch_entries += out.entries_patched as u64;
                ctx.counts.overlay_tuples = out.overlay_tuples as u64;
                let (inserts, deletes) = (batch.inserts.len(), batch.deletes.len());
                let error = (out.inserted != inserts || out.deleted != deletes).then(|| {
                    format!(
                        "batch of {inserts}+{deletes} applied as {}+{}",
                        out.inserted, out.deleted
                    )
                });
                let output = fold(out.inserted as u64, out.deleted as u64);
                Observed { secs, output, plan: 0, error }
            }
            Err(e) => errored(secs, &e),
        }
    }

    fn read(&mut self, class: usize, ctx: &mut OpCtx) -> Observed {
        let (cycle, last_count) = (&mut self.cycle, &mut self.last_count);
        text_op(&self.service, &self.cell, ctx, |out, obs| {
            let count = out.output.count();
            *last_count = count;
            match (class, *cycle) {
                (Self::REPAIR, _) if out.cache_hit => {
                    Some("plan-cache hit on the first read after a mutation".to_string())
                }
                (Self::REPAIR, _) => {
                    *cycle = count.map(|n| (n, obs.plan));
                    None
                }
                _ if !out.cache_hit => Some("plan-cache miss on a steady read".to_string()),
                _ if out.report.index_relations_built != 0 => {
                    Some("index build on a steady read".to_string())
                }
                (_, Some((n, plan))) if count != Some(n) || obs.plan != plan => {
                    Some("steady read disagrees with its cycle's repair read".to_string())
                }
                _ => None,
            }
        })
    }

    /// The cell with the batches applied so far folded into `R1` by the
    /// harness itself.
    fn effective(&self) -> Cell {
        let mut cell = self.cell.clone();
        let r1 = cell.db.get("R1").expect("Q4 reads R1");
        let attrs = r1.schema().attrs().to_vec();
        let mut live: HashSet<(Value, Value)> = r1.rows().map(|r| (r[0], r[1])).collect();
        for batch in &self.batches[..self.applied] {
            live.extend(batch.inserts.iter().map(|r| (r[0], r[1])));
            for row in &batch.deletes {
                live.remove(&(row[0], row[1]));
            }
        }
        let pairs: Vec<(Value, Value)> = live.into_iter().collect();
        cell.db.insert("R1", Relation::from_pairs(attrs[0], attrs[1], &pairs));
        cell
    }
}

impl Workload for MutateRead {
    fn classes(&self) -> &[&'static str] {
        &["mutate", "repair_read", "steady_read"]
    }

    fn round(&self) -> &[usize] {
        &self.round
    }

    /// Back to the graph as generated: re-registering drops the overlay, the
    /// plans and the indexes, and one untimed read builds the indexes the
    /// round's first batch patches.
    fn before_round(&mut self) {
        self.service.register_database(self.cell.name.clone(), self.cell.db.clone());
        self.service.execute_text(&self.cell.name, &self.cell.text).expect("priming query runs");
        self.applied = 0;
        self.rounds_started += 1;
    }

    fn run_op(&mut self, i: usize, ctx: &mut OpCtx) -> Observed {
        match self.round[i] {
            Self::MUTATE => self.mutate(ctx),
            class => self.read(class, ctx),
        }
    }

    /// The effective contents, registered from scratch in a fresh width-1
    /// communication-first engine, must count what the last read counted.
    fn check_oracle(&mut self) -> Result<String, String> {
        let cell = self.effective();
        let out = Adj::new(adj_config(1))
            .execute_with(&cell.query, &cell.db, Strategy::CommFirst, OutputMode::Count)
            .map_err(|e| format!("re-register oracle failed: {e}"))?;
        let want = match out.output {
            QueryOutput::Count(n) => n,
            other => return Err(format!("re-register oracle returned {other:?}")),
        };
        match self.last_count {
            Some(got) if got == want => Ok(format!(
                "COUNT {got} after {} batches equals a fresh width-1 CommFirst run",
                self.applied
            )),
            got => Err(format!("COUNT {got:?} after {} batches, oracle {want}", self.applied)),
        }
    }

    /// Every round must have folded its overlay into the base once, or the
    /// run never saw a compaction spike.
    fn check_run(&self) -> Result<(), String> {
        let got = self.service.metrics().compactions;
        if got < self.rounds_started {
            return Err(format!("{got} compactions in {} rounds", self.rounds_started));
        }
        Ok(())
    }

    fn service(&self) -> &Service {
        &self.service
    }

    fn replay_cells(&self) -> Vec<Cell> {
        vec![self.effective()]
    }

    fn describe(&self) -> &str {
        &self.description
    }
}
