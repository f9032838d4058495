//! The [`Service`] front door: named databases, shared cluster, cached
//! plans, admission-gated execution.

use crate::admission::AdmissionController;
use crate::explain;
use crate::metrics::{MetricsSnapshot, ServiceMetrics};
use crate::result_cache::{result_lru, ResultEntry, ResultId, ResultSource};
use crate::{AdmissionStats, ServiceConfig, ServiceError};
use adj_batch::BindingBatch;
use adj_cluster::Cluster;
use adj_core::{Adj, ExecCtx, ExecutionReport, IndexCache, IndexCacheStats, IndexScope, QueryPlan};
use adj_delta::{DeltaRelation, MutationBatch};
use adj_faults::{CancelToken, FaultSite};
use adj_hcube::patch_relation_indexes;
use adj_query::fingerprint::Fnv1a;
use adj_query::{
    parse_query_explain, parse_query_with_mode, Bindings, ExplainMode, JoinQuery, ParamTable,
    QueryFingerprint,
};
use adj_relational::cache::{Cache, CacheStats, Lookup};
use adj_relational::{Attr, BoundValues, Database, OutputMode, QueryOutput, Relation};
use adj_trace::{QueryTrace, Trace, Tracer, COORDINATOR_LANE};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

/// Acquires a mutex, recovering from poison: the service catches panics and
/// isolates them to their query, so a poisoned lock only means some holder
/// panicked mid-critical-section — every structure guarded here (registry
/// map, slow log, door map) is valid after any partial update, and refusing
/// service forever (the `.unwrap()` default) would turn one isolated panic
/// into a permanently wedged service.
fn lock_recovering<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| {
        m.clear_poison();
        e.into_inner()
    })
}

/// [`lock_recovering`] for a read lock.
fn read_recovering<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(|e| {
        l.clear_poison();
        e.into_inner()
    })
}

/// [`lock_recovering`] for a write lock.
fn write_recovering<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(|e| {
        l.clear_poison();
        e.into_inner()
    })
}

/// Renders a caught panic payload (`String` / `&str` panics — the common
/// cases — verbatim; anything else gets a placeholder).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => match payload.downcast::<&'static str>() {
            Ok(s) => (*s).to_string(),
            Err(_) => "non-string panic payload".to_string(),
        },
    }
}

/// A registered database: an immutable serving snapshot plus the
/// statistics epoch and per-relation delta versions the caches key on.
///
/// Mutation is copy-on-write: [`Service::mutate`] builds a fresh entry
/// (always-effective contents, updated overlays and versions) and swaps it
/// into the registry atomically, so in-flight queries keep reading the
/// snapshot they started on.
#[derive(Debug)]
struct DbEntry {
    /// The always-effective contents: every mutated relation is stored
    /// post-overlay, so the optimizer and executor see materialized data.
    db: Database,
    /// Stable hash of the database *name* (folds into cache keys so equal
    /// epochs on different databases never collide).
    tag: u64,
    /// Monotonic registration stamp: re-registering a name bumps this, so
    /// every plan optimized against the old contents stops matching.
    epoch: u64,
    /// Delta overlays of mutated relations (absent until first mutation).
    deltas: HashMap<String, DeltaRelation>,
    /// Per-relation delta sequences, in the [`IndexScope`] slice form.
    /// Relations never mutated are absent (sequence 0).
    versions: Vec<(String, u64)>,
}

/// Runs [`Service::forget_if_superseded`] when a served query ends, on
/// every path out.
struct ForgetIfSuperseded<'a>(&'a Service, &'a DbEntry);

impl Drop for ForgetIfSuperseded<'_> {
    fn drop(&mut self) {
        self.0.forget_if_superseded(self.1);
    }
}

/// Counts one request inside [`Service::serve`] for as long as it lives:
/// dropped last on every path out, after the admission slot and the lent
/// scratch went back.
struct InFlight<'a>(&'a AtomicUsize);

impl<'a> InFlight<'a> {
    fn enter(count: &'a AtomicUsize) -> Self {
        count.fetch_add(1, Ordering::SeqCst);
        InFlight(count)
    }
}

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

impl DbEntry {
    /// The index-cache scope of this snapshot: its tag, registration epoch
    /// and per-relation delta sequences over `cache`.
    fn scope<'a>(&'a self, cache: &'a IndexCache) -> IndexScope<'a> {
        IndexScope { cache, db_tag: self.tag, epoch: self.epoch, versions: &self.versions }
    }

    /// The plan-cache stats token for `query`: the registration epoch alone
    /// while the database has never mutated (so pre-mutation keys are
    /// byte-stable), otherwise the epoch folded with the delta sequence of
    /// every relation the query references. A batch on `R1` thereby
    /// re-plans only the shapes that read `R1`; everything else keeps
    /// hitting its cached plan.
    fn stats_token(&self, query: &JoinQuery) -> u64 {
        self.stats_token_of(query.atoms.iter().map(|a| a.name.as_str()))
    }

    /// [`DbEntry::stats_token`] of a query that reads the relations `reads`.
    fn stats_token_of<'a>(&self, reads: impl IntoIterator<Item = &'a str>) -> u64 {
        // Only atoms whose relation has actually mutated fold into the
        // token. A query over never-mutated relations keeps the bare
        // epoch — byte-identical to its pre-mutation key — so mutating R3
        // re-plans only the shapes that read R3, and a shape over R1/R2
        // keeps its plan (the per-relation replacement for the global
        // epoch bump). Re-planning against the new effective contents
        // keeps the serving path oracle-equivalent in every output mode:
        // `Limit`'s canonical sample is defined by the plan's attribute
        // order, so the plan must be the one a full re-register would
        // derive.
        let mut mutated: Vec<(&str, u64)> = Vec::new();
        for name in reads {
            if let Some(&(_, seq)) = self.versions.iter().find(|(n, _)| n == name) {
                if seq > 0 && !mutated.iter().any(|&(n, _)| n == name) {
                    mutated.push((name, seq));
                }
            }
        }
        if mutated.is_empty() {
            return self.epoch;
        }
        let mut h = Fnv1a::new();
        h.write(&self.epoch.to_le_bytes());
        for (name, seq) in mutated {
            h.write(name.as_bytes());
            h.write(&[0xff]);
            h.write(&seq.to_le_bytes());
        }
        h.finish()
    }

    /// The plan key a result computed from `source` has under this
    /// snapshot: a result filed under any other key of this registration
    /// was computed before a mutation superseded its plan.
    fn plan_key_of(&self, source: &ResultSource) -> u64 {
        let token = self.stats_token_of(source.reads.iter().map(String::as_str));
        source.fingerprint.cache_key(self.tag, token)
    }
}

/// What one [`Service::mutate`] batch did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MutationOutcome {
    /// The mutated relation.
    pub relation: String,
    /// Rows newly visible in the effective relation.
    pub inserted: usize,
    /// Rows removed from the effective relation.
    pub deleted: usize,
    /// The relation's delta sequence after the batch.
    pub seq: u64,
    /// Warm index-cache entries patched forward to the new sequence.
    pub entries_patched: usize,
    /// Index-cache entries dropped: stale entries the patcher cannot bring
    /// forward.
    pub entries_dropped: usize,
    /// Whether the overlay was folded into the base this batch.
    pub compacted: bool,
    /// Overlay tuples (inserts + tombstones) remaining after the batch.
    pub overlay_tuples: usize,
}

/// One served query's outcome.
#[derive(Debug)]
pub struct ServiceOutcome {
    /// The query output, shaped by the requested [`OutputMode`]: a
    /// gathered relation in `Rows`/`Limit` modes, a bare cardinality for
    /// `Count`, an emptiness bit for `Exists`. (This replaces the
    /// pre-streaming `result: Relation` field.)
    pub output: QueryOutput,
    /// The output mode the query ran under.
    pub mode: OutputMode,
    /// The per-phase cost breakdown. `optimization_secs` is 0 on cache
    /// hits — the search cost was paid by the miss that populated the
    /// entry.
    pub report: ExecutionReport,
    /// The executed plan (shared with the cache, and across output modes).
    pub plan: Arc<QueryPlan>,
    /// The submission's canonical fingerprint (structure + mode).
    pub fingerprint: QueryFingerprint,
    /// Whether the plan came from the cache.
    pub cache_hit: bool,
    /// Seconds spent waiting for an admission slot.
    pub queue_secs: f64,
    /// End-to-end service-side seconds (queue wait + plan + execution).
    pub total_secs: f64,
    /// The query's span timeline, when it ran with tracing enabled
    /// ([`TraceSettings`](crate::TraceSettings), a slow-query threshold,
    /// or `EXPLAIN ANALYZE`); `None` otherwise. The handle materializes
    /// the sorted timeline on first access (it dereferences to
    /// [`Trace`]); render with [`Trace::to_chrome_json`] for Perfetto /
    /// `chrome://tracing`.
    pub trace: Option<QueryTrace>,
}

impl ServiceOutcome {
    /// The materialized result rows. Panics for `Count`/`Exists` outcomes
    /// — the mechanical migration for call sites of the old `result`
    /// field, all of which ran in what is now [`OutputMode::Rows`].
    pub fn rows(&self) -> &Relation {
        self.output.rows()
    }
}

/// A prepared statement at the service level: a query shape (with `$name`
/// parameters and/or inline literals) validated and planned against a
/// named database. Binding it is cheap — [`Service::execute_bound`] runs
/// each binding through the shared plan-cache entry (and the shared
/// index-cache entry family), so one preparation serves unboundedly many
/// bindings.
///
/// The statement holds no pinned plan: each execution resolves the current
/// cache entry, so re-registering the database transparently re-plans
/// instead of serving stale state.
#[derive(Debug, Clone)]
pub struct PreparedQuery {
    /// The database the statement was prepared against.
    db_name: String,
    /// The parameterized query.
    query: JoinQuery,
    /// The parameter table and inline literals bindings resolve against,
    /// built once at prepare time.
    table: ParamTable,
    /// The Rows-mode fingerprint (every mode shares its `plan_key`).
    fingerprint: QueryFingerprint,
}

impl PreparedQuery {
    /// The database this statement targets.
    pub fn db_name(&self) -> &str {
        &self.db_name
    }

    /// The underlying parameterized query.
    pub fn query(&self) -> &JoinQuery {
        &self.query
    }

    /// The `$name` parameters awaiting bind-time values.
    pub fn params(&self) -> &[(String, Attr)] {
        self.table.params()
    }

    /// The statement's canonical fingerprint (shape only — no binding value
    /// ever moves it).
    pub fn fingerprint(&self) -> QueryFingerprint {
        self.fingerprint
    }

    /// Resolves `bindings` against the statement's parameter table into
    /// the constant set an execution would seek — without executing
    /// anything. Every `$name` parameter must receive a value
    /// ([`Error::UnboundParam`](adj_relational::Error) names the first one
    /// missing) and every supplied name must exist in the statement
    /// ([`Error::UnknownParam`](adj_relational::Error) rejects typos
    /// instead of silently ignoring them). The returned [`BoundValues`]
    /// also folds the shape's inline literals, exactly as
    /// [`Service::execute_bound`] would.
    pub fn bind(&self, bindings: &Bindings) -> adj_relational::Result<BoundValues> {
        self.table.resolve(bindings)
    }
}

/// One entry of the slow-query log: a query that exceeded the configured
/// [`TraceSettings::slow_query_threshold`](crate::TraceSettings), with its
/// full span timeline attached.
#[derive(Debug, Clone)]
pub struct SlowQuery {
    /// The database the query ran against.
    pub db_name: String,
    /// The query's canonical fingerprint (structure + mode).
    pub fingerprint: QueryFingerprint,
    /// The output mode it ran under.
    pub mode: OutputMode,
    /// End-to-end service-side seconds (what tripped the threshold).
    pub total_secs: f64,
    /// Seconds of that spent waiting for admission.
    pub queue_secs: f64,
    /// The span timeline recorded while it ran.
    pub trace: Trace,
}

/// A combined point-in-time view of every service statistic.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServiceStats {
    /// Counter + histogram registry snapshot.
    pub metrics: MetricsSnapshot,
    /// Plan-cache counters.
    pub cache: CacheStats,
    /// Index-cache counters (hits/misses/evictions/resident bytes).
    pub index: IndexCacheStats,
    /// Per-binding result-cache counters.
    pub results: CacheStats,
    /// Admission-control counters.
    pub admission: AdmissionStats,
}

/// One served binding batch's outcome: per-submission results plus the
/// batch-level accounting shared by all of them.
#[derive(Debug)]
pub struct BatchOutcome {
    /// One result per submission, **aligned with the submission order**.
    /// Per-binding errors carry partial-batch outcomes: on a mid-batch
    /// deadline or cancel, bindings that completed keep their outputs and
    /// the rest observe the typed deadline/cancel error.
    pub results: Vec<Result<QueryOutput, ServiceError>>,
    /// The output mode every binding ran under.
    pub mode: OutputMode,
    /// The batch's aggregate cost report: **one** bag pre-computation and
    /// **one** index round (the shape's tries, shared by every binding) for
    /// the whole batch, plus the batched join.
    /// Zeroed but for the plan's share when every submission was served
    /// from the result cache.
    pub report: ExecutionReport,
    /// The executed plan (shared with the plan cache).
    pub plan: Arc<QueryPlan>,
    /// The statement's canonical fingerprint under this mode.
    pub fingerprint: QueryFingerprint,
    /// Whether the plan came from the plan cache.
    pub cache_hit: bool,
    /// Submissions answered from the per-binding result LRU.
    pub result_cache_hits: usize,
    /// Distinct bindings the batched driver actually executed (after
    /// dedup and result-cache skimming).
    pub unique_executed: usize,
    /// Seconds spent waiting for the batch's one admission slot.
    pub queue_secs: f64,
    /// End-to-end service-side seconds for the whole batch.
    pub total_secs: f64,
    /// The batch's span timeline — one trace tree covering admission, plan
    /// lookup, the shared index round, and the batched join — when tracing
    /// was on; `None` otherwise.
    pub trace: Option<QueryTrace>,
}

/// What [`Service::serve`] hands back to a door: the run step's payload
/// plus the accounting every outcome type carries.
struct Served<T> {
    payload: T,
    report: ExecutionReport,
    plan: Arc<QueryPlan>,
    fingerprint: QueryFingerprint,
    cache_hit: bool,
    queue_secs: f64,
    total_secs: f64,
    trace: Option<QueryTrace>,
}

/// The payload of the batch door's run step.
struct BatchRun {
    results: Vec<Result<QueryOutput, ServiceError>>,
    result_cache_hits: usize,
    unique_executed: usize,
}

/// A long-lived query service over one shared simulated cluster.
///
/// `Service` is `Send + Sync`; call [`Service::execute`] from as many
/// threads as you like (admission control bounds what actually runs).
pub struct Service {
    config: ServiceConfig,
    adj: Adj,
    databases: RwLock<HashMap<String, Arc<DbEntry>>>,
    /// The plan cache: each optimized plan with the database registration
    /// (epoch) it was optimized against, keyed by
    /// `QueryFingerprint::cache_key(db_tag, stats_token)`, one entry each.
    cache: Cache<u64, (Arc<QueryPlan>, u64)>,
    /// The cross-query index cache: built tries and pre-computed bag
    /// relations, shared by every database the service
    /// hosts (keys carry the database tag + epoch).
    index: IndexCache,
    /// The per-binding result LRU: finished [`QueryOutput`]s keyed by plan
    /// cache key + mode + binding values, for re-bound hot vertices.
    results: Cache<u64, ResultEntry>,
    admission: AdmissionController,
    metrics: ServiceMetrics,
    /// The worst-latency traced queries, sorted slowest first, capped at
    /// [`TraceSettings::slow_log_keep`](crate::TraceSettings).
    slow_log: Mutex<Vec<SlowQuery>>,
    /// Per-database mutation serialization (see [`Service::mutate`]): the
    /// heavy batch work runs outside the registry lock, so concurrent
    /// batches against one database are ordered here instead. Doors are
    /// keyed by name and never removed (bounded by distinct names hosted).
    mutation_doors: Mutex<HashMap<String, Arc<Mutex<()>>>>,
    epoch: AtomicU64,
    /// Requests inside the serve pipeline right now.
    in_flight: AtomicUsize,
    /// Cluster-wide memory minus the index-cache budget, divided by
    /// `max_concurrent`; `None` = unlimited.
    per_query_budget_bytes: Option<usize>,
}

/// Default index-cache budget when the cluster has no memory limit.
const DEFAULT_INDEX_CACHE_BYTES: usize = 256 << 20;

impl Service {
    /// Creates a service: builds the shared cluster once and derives the
    /// memory budgets from
    /// [`ClusterConfig::memory_limit_bytes`](adj_cluster::ClusterConfig) —
    /// the index cache takes half of `per-worker limit × workers` (unless
    /// [`ServiceConfig::index_cache_capacity_bytes`] overrides it) and the
    /// remainder is split per query by `max_concurrent`, so cached indexes
    /// and in-flight queries together stay under the cluster limit.
    ///
    /// The cluster is built from `config.adj.cluster` exactly as given —
    /// width and transport
    /// ([`ClusterConfig::transport`](adj_cluster::ClusterConfig)) are said
    /// there and nowhere else.
    pub fn new(config: ServiceConfig) -> Self {
        let cluster = Cluster::shared(config.adj.cluster.clone());
        Service::with_cluster(config, cluster)
    }

    /// Creates a service over an existing cluster handle (shared with
    /// other components, e.g. a bench harness inspecting
    /// [`CommStats`](adj_cluster::CommStats) directly). The cluster's own
    /// configuration wins over `config.adj.cluster`.
    pub fn with_cluster(config: ServiceConfig, cluster: Arc<Cluster>) -> Self {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Service>();

        let max_concurrent = config.max_concurrent.max(1);
        let total_memory = cluster
            .config()
            .memory_limit_bytes
            .map(|per_worker| per_worker.saturating_mul(cluster.num_workers()));
        let index_capacity = config.index_cache_capacity_bytes.unwrap_or(match total_memory {
            Some(total) => total / 2,
            None => DEFAULT_INDEX_CACHE_BYTES,
        });
        // The cache's ceiling is charged against the cluster budget up
        // front: queries share only what the cache can never occupy.
        let per_query_budget_bytes =
            total_memory.map(|total| total.saturating_sub(index_capacity) / max_concurrent);
        let adj = Adj::with_cluster(config.adj.clone(), cluster);
        Service {
            cache: Cache::new(config.plan_cache_capacity, |_| 1, |_, &(_, epoch)| epoch),
            index: IndexCache::new(index_capacity),
            results: result_lru(config.result_cache_capacity),
            admission: AdmissionController::new(max_concurrent, config.admission),
            metrics: ServiceMetrics::new(),
            slow_log: Mutex::new(Vec::new()),
            mutation_doors: Mutex::new(HashMap::new()),
            databases: RwLock::new(HashMap::new()),
            epoch: AtomicU64::new(0),
            in_flight: AtomicUsize::new(0),
            per_query_budget_bytes,
            adj,
            config,
        }
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// The shared cluster.
    pub fn cluster(&self) -> &Cluster {
        self.adj.cluster()
    }

    /// The per-query memory budget, if the cluster has a memory limit.
    pub fn per_query_budget_bytes(&self) -> Option<usize> {
        self.per_query_budget_bytes
    }

    /// Registers (or replaces) a database under `name` and returns its
    /// statistics epoch. Replacing invalidates cached plans that reference
    /// the database's relations.
    pub fn register_database(&self, name: impl Into<String>, db: Database) -> u64 {
        let name = name.into();
        let epoch = self.epoch.fetch_add(1, Ordering::Relaxed) + 1;
        let mut tag = Fnv1a::new();
        tag.write(name.as_bytes());
        let entry = Arc::new(DbEntry {
            db,
            tag: tag.finish(),
            epoch,
            deltas: HashMap::new(),
            versions: Vec::new(),
        });
        let replaced = write_recovering(&self.databases).insert(name, entry);
        if let Some(old) = replaced {
            self.forget(old.epoch);
        }
        epoch
    }

    /// Removes a database; queries against it fail with
    /// [`ServiceError::UnknownDatabase`] from then on. Its cached plans,
    /// indexes and results are dropped eagerly to free their bytes.
    pub fn drop_database(&self, name: &str) -> bool {
        let removed = write_recovering(&self.databases).remove(name);
        if let Some(old) = &removed {
            self.forget(old.epoch);
        }
        removed.is_some()
    }

    /// Frees every cached artifact of a database registration (its
    /// `epoch`) that was replaced or dropped: its plans, indexes and
    /// results go by the same rule in all three caches, and every other
    /// registration's stay warm. (A replacement's epoch bump already stops
    /// stale entries from matching — eager invalidation frees their bytes
    /// instead of waiting for LRU pressure.)
    fn forget(&self, epoch: u64) {
        self.cache.forget(epoch);
        self.index.store().forget(epoch);
        self.results.forget(epoch);
    }

    /// Forgets what an operation on `entry` published if `entry` stopped
    /// being a registered database meanwhile. The replacing call registers
    /// first and forgets second, so whichever of it and this check runs
    /// last sees the other's publishes.
    fn forget_if_superseded(&self, entry: &DbEntry) {
        if !read_recovering(&self.databases).values().any(|e| e.epoch == entry.epoch) {
            self.forget(entry.epoch);
        }
    }

    /// Checks the service's invariants. The three caches' (see
    /// [`Cache::check`]): every resident entry belongs to a registered
    /// database, resident weight is the sum of the entries and fits the
    /// budget. No resident index runs ahead of its relation: its key's
    /// delta sequence is at most the one its registration holds for the
    /// relation. And while no query runs: no build claim is pending, the
    /// admission controller holds no running or waiting query, and every
    /// scratch the executions borrowed is back in the pool. Meant for
    /// between operations: a `prepare` in flight may hold a plan claim, and
    /// a mutation in flight publishes its patched indexes before it
    /// registers their sequence.
    pub fn check_invariants(&self) -> Result<(), String> {
        let dbs = read_recovering(&self.databases);
        let ahead = self.index.store().find(|k, _| {
            dbs.values().any(|e| {
                (e.tag, e.epoch) == (k.db_tag, k.epoch)
                    && k.delta_seq > e.scope(&self.index).delta_seq_for(&k.relation)
            })
        });
        if let Some(key) = ahead {
            return Err(format!("index cache: {key:?} runs ahead of its relation"));
        }
        let misfiled = self.results.find(|&key, entry| key != Self::result_key(&entry.id()));
        if let Some(key) = misfiled {
            return Err(format!("result cache: an entry sits under {key:#x}, not its own key"));
        }
        let superseded = self.results.find(|_, entry| {
            let registered = dbs.values().find(|e| e.epoch == entry.epoch());
            registered.is_some_and(|e| e.plan_key_of(entry.source()) != entry.id().plan_key)
        });
        if let Some(key) = superseded {
            return Err(format!("result cache: {key:#x} is reachable under a superseded plan key"));
        }
        let live: Vec<u64> = dbs.values().map(|e| e.epoch).collect();
        drop(dbs);
        let live = |epoch| live.contains(&epoch);
        let idle = self.in_flight.load(Ordering::SeqCst) == 0;
        if idle {
            let admission = self.admission.stats();
            if admission.running + admission.waiting > 0 {
                return Err(format!(
                    "admission holds {} running and {} waiting queries while none runs",
                    admission.running, admission.waiting
                ));
            }
            let lent = self.adj.scratch().outstanding();
            if lent > 0 {
                return Err(format!("{lent} lent scratches outstanding while no query runs"));
            }
        }
        self.cache.check(live, idle).map_err(|e| format!("plan cache: {e}"))?;
        self.index.store().check(live, idle).map_err(|e| format!("index cache: {e}"))?;
        self.results.check(live, idle).map_err(|e| format!("result cache: {e}"))
    }

    /// Registered database names (sorted, for determinism).
    pub fn database_names(&self) -> Vec<String> {
        let mut names: Vec<String> = read_recovering(&self.databases).keys().cloned().collect();
        names.sort();
        names
    }

    /// Serves one parsed query against the named database, materializing
    /// the full result ([`OutputMode::Rows`]). Blocks while admission
    /// queues it (under
    /// [`AdmissionPolicy::Queue`](crate::AdmissionPolicy)); returns a
    /// rejection error when admission turns it away.
    pub fn execute(
        &self,
        db_name: &str,
        query: &JoinQuery,
    ) -> Result<ServiceOutcome, ServiceError> {
        self.execute_mode(db_name, query, OutputMode::Rows)
    }

    /// Serves one parsed query under an explicit output mode. All modes of
    /// a query share one cached plan (plans are mode-independent); their
    /// outcomes are distinct. `Count`/`Exists` never gather result tuples
    /// from the workers.
    pub fn execute_mode(
        &self,
        db_name: &str,
        query: &JoinQuery,
        mode: OutputMode,
    ) -> Result<ServiceOutcome, ServiceError> {
        self.execute_mode_with_deadline(db_name, query, mode, None)
    }

    /// [`Service::execute_mode`] with a per-query deadline, measured from
    /// submission (admission wait included). `None` falls back to
    /// [`ServiceConfig::default_deadline`]; `Some` overrides it. Past the
    /// deadline the query stops at its next cancellation checkpoint and
    /// fails with [`ServiceError::DeadlineExceeded`] — no partial artifact
    /// is ever published.
    pub fn execute_mode_with_deadline(
        &self,
        db_name: &str,
        query: &JoinQuery,
        mode: OutputMode,
        deadline: Option<Duration>,
    ) -> Result<ServiceOutcome, ServiceError> {
        let values = self.validated_const_bindings(query)?;
        let fingerprint = QueryFingerprint::of_mode(query, mode);
        self.execute_inner(db_name, query, fingerprint, &values, false, deadline)
    }

    /// Resolves a direct (non-prepared) submission's inline literals and
    /// rejects unbound `$name` parameters.
    ///
    /// Inline literals resolve without a binding; a query with `$name`
    /// parameters surfaces `UnboundParam` — prepare and bind it instead.
    /// The submission's own literals are resolved here (not from the
    /// cached plan) because the whole shape family shares one plan.
    /// Parameters are validated here, not downstream: the executor checks
    /// the cached plan owner's query, and a whole shape family (literal
    /// and `$param` members) shares one plan — a literal-owned entry must
    /// never let an unbound `$param` submission borrow its values. (The
    /// execute_bound path is covered by `PreparedQuery::bind`, which demands
    /// a value for every parameter.) Checked term-by-term — no parameter
    /// table is allocated on the common unbound path.
    fn validated_const_bindings(&self, query: &JoinQuery) -> Result<BoundValues, ServiceError> {
        self.failed(query.const_bindings().and_then(|values| {
            query.require_params_bound(|a| values.get(a).is_some())?;
            Ok(values)
        }))
    }

    /// Applies one mutation batch to a relation of a registered database —
    /// the dynamic-data front door. The batch lands in the relation's
    /// delta overlay ([`DeltaRelation`]): inserts and tombstones become
    /// sorted runs versioned by a per-relation sequence number, and the
    /// serving snapshot is atomically replaced with the new effective
    /// contents (copy-on-write; in-flight queries finish on the old one).
    ///
    /// Warm index-cache entries of the mutated relation are **patched**,
    /// not discarded: only the delta tuples are merged into each cached
    /// trie, in the entry's own induced order, and republished under the
    /// new sequence — so the very next query over the relation hits warm
    /// instead of paying a cold build. Plans are re-keyed per relation (see
    /// `DbEntry::stats_token`): only shapes reading the mutated relation
    /// re-plan, and the results cached under their old plan keys are
    /// dropped.
    ///
    /// The overlay compacts into the base when it outgrows
    /// [`ServiceConfig::delta`](crate::ServiceConfig) — invisibly to the
    /// caches, since compaction changes neither the effective contents nor
    /// the sequence. A shift in the relation's skew needs nothing more: the
    /// re-keyed plans are optimized afresh from the new sizes, and no
    /// cached trie carries a partition layout to invalidate.
    ///
    /// Batches against one database are serialized by a per-database
    /// mutation door, **not** by the registry lock: all the O(|relation|)
    /// work — overlay application, snapshot materialization, cache
    /// patching — runs against a read-locked clone of the entry, and the
    /// registry's write lock is taken only for the final copy-on-write swap. Queries keep acquiring the registry read
    /// lock freely for the whole duration of a batch.
    pub fn mutate(
        &self,
        db_name: &str,
        batch: &MutationBatch,
    ) -> Result<MutationOutcome, ServiceError> {
        let door = {
            let mut doors = lock_recovering(&self.mutation_doors);
            Arc::clone(doors.entry(db_name.to_string()).or_default())
        };
        let _serialized = lock_recovering(&door);

        match catch_unwind(AssertUnwindSafe(|| self.mutate_locked(db_name, batch))) {
            Ok(result) => result,
            Err(payload) => {
                // A panic mid-batch never reached the registry swap, so the
                // old snapshot is still what every query serves. Its warm
                // index entries may have been partially patched forward to
                // a sequence that will never be registered — drop the
                // mutated relation's entries so nothing half-patched can
                // linger (the next query rebuilds cold, correctly). The
                // door guard unlocks on return; `lock_recovering` clears
                // the poison the unwind left behind.
                if let Ok(entry) = self.lookup(db_name) {
                    self.index.take_indexes_for(entry.tag, &batch.relation);
                }
                Err(self.fail_panicked(payload))
            }
        }
    }

    /// The batch work of [`Service::mutate`], run under the per-database
    /// door with panics isolated by the caller.
    fn mutate_locked(
        &self,
        db_name: &str,
        batch: &MutationBatch,
    ) -> Result<MutationOutcome, ServiceError> {
        loop {
            let entry = self.failed(self.lookup(db_name))?;

            // Empty batch: nothing changes — no sequence bump, no cache
            // work, no new snapshot, and crucially no overlay creation (a
            // never-mutated relation must not pay a base clone for a
            // no-op) — but the call still validates the relation and
            // counts in the metrics.
            if batch.is_empty() {
                let (seq, overlay_tuples) = match entry.deltas.get(&batch.relation) {
                    Some(delta) => (delta.seq(), delta.overlay_tuples()),
                    None => self.failed(entry.db.get(&batch.relation).map(|_| (0, 0)))?,
                };
                let dbs = read_recovering(&self.databases);
                self.metrics.record_mutation(0, false, Self::total_overlay_tuples(&dbs));
                return Ok(MutationOutcome {
                    relation: batch.relation.clone(),
                    inserted: 0,
                    deleted: 0,
                    seq,
                    entries_patched: 0,
                    entries_dropped: 0,
                    compacted: false,
                    overlay_tuples,
                });
            }

            // Fault-injection checkpoint: a planned `Panic` here unwinds
            // into `mutate`'s catch (old snapshot stays servable, door
            // un-wedged); a planned `Cancel` aborts the batch before any
            // state is touched.
            let inject_token = CancelToken::manual();
            adj_faults::inject(FaultSite::MutationApply, &inject_token);
            if let Err(c) = inject_token.check() {
                return Err(self.fail_cancelled(c, None));
            }

            let mut deltas = entry.deltas.clone();
            if !deltas.contains_key(&batch.relation) {
                let base = self.failed(entry.db.get(&batch.relation))?.clone();
                deltas.insert(batch.relation.clone(), DeltaRelation::new(base));
            }
            let delta = deltas.get_mut(&batch.relation).expect("just ensured");
            let applied = self.failed(delta.apply(&batch.inserts, &batch.deletes))?;

            let mut db = entry.db.clone();
            db.insert(batch.relation.clone(), delta.effective());
            let mut versions = entry.versions.clone();
            match versions.iter_mut().find(|(n, _)| n == &batch.relation) {
                Some(slot) => slot.1 = applied.seq,
                None => versions.push((batch.relation.clone(), applied.seq)),
            }

            // Merge only the batch into each warm entry, in its own order.
            let scope = IndexScope { versions: &versions, ..entry.scope(&self.index) };
            let patch =
                patch_relation_indexes(&scope, &batch.relation, &applied.inserts, &applied.deletes);
            // The fold changes neither the effective contents nor the
            // sequence, so the just-patched cache entries stay valid.
            let compacted = delta.needs_compaction(&self.config.delta);
            if compacted {
                delta.compact();
            }

            let outcome = MutationOutcome {
                relation: batch.relation.clone(),
                inserted: applied.inserted,
                deleted: applied.deleted,
                seq: applied.seq,
                entries_patched: patch.patched,
                entries_dropped: patch.dropped,
                compacted,
                overlay_tuples: delta.overlay_tuples(),
            };
            let new_entry =
                Arc::new(DbEntry { db, tag: entry.tag, epoch: entry.epoch, deltas, versions });

            // Registry write lock only for the final swap — and only if
            // the database is still the registration the batch was built
            // on. A concurrent register/drop of the same name supersedes
            // the snapshot: redo the batch against the current entry (its
            // fresh epoch orphans this attempt's patched cache entries, so
            // they can never serve a query and age out on next harvest).
            let mut dbs = write_recovering(&self.databases);
            match dbs.get(db_name) {
                Some(current) if Arc::ptr_eq(current, &entry) => {
                    dbs.insert(db_name.to_string(), new_entry);
                    // Every shape reading the relation has a new plan key
                    // now: its results under the old one are unreachable.
                    let reads = |e: &ResultEntry| e.source().reads.contains(&batch.relation);
                    self.results.take(|_, e| e.epoch() == entry.epoch && reads(e));
                    self.metrics.record_mutation(
                        patch.patched as u64,
                        compacted,
                        Self::total_overlay_tuples(&dbs),
                    );
                    return Ok(outcome);
                }
                _ => {
                    drop(dbs);
                    self.forget_if_superseded(&entry);
                }
            }
        }
    }

    /// Overlay tuples currently resident across every registered database
    /// (the `adj_delta_overlay_tuples` gauge).
    fn total_overlay_tuples(dbs: &HashMap<String, Arc<DbEntry>>) -> u64 {
        dbs.values()
            .map(|e| e.deltas.values().map(|d| d.overlay_tuples() as u64).sum::<u64>())
            .sum()
    }

    /// Prepares a parameterized query against a named database: validates
    /// the database exists, optimizes the shape now (publishing the plan
    /// into the cache, so the first bound execution is already a hit, and
    /// the tries the planner built for it into the index cache, so that
    /// execution builds only the rest), and returns the reusable statement.
    pub fn prepare(&self, db_name: &str, query: &JoinQuery) -> Result<PreparedQuery, ServiceError> {
        let entry = self.failed(self.lookup(db_name))?;
        let fingerprint = QueryFingerprint::of(query);
        let scope = entry.scope(&self.index);
        let mut ctx = ExecCtx { index: Some(&scope), ..Default::default() };
        self.plan_for(&entry, query, fingerprint, &mut ctx, None)?;
        ctx.planned.publish(&scope, &ctx.cancel);
        self.metrics.record_prepare();
        Ok(PreparedQuery {
            db_name: db_name.to_string(),
            table: ParamTable::of(query),
            query: query.clone(),
            fingerprint,
        })
    }

    /// [`Service::prepare`] from query text. The text may carry an
    /// output-mode prefix, returned alongside so callers can honour it as
    /// the statement's default mode.
    pub fn prepare_text(
        &self,
        db_name: &str,
        text: &str,
    ) -> Result<(PreparedQuery, OutputMode), ServiceError> {
        let (query, _names, mode) = self.failed(parse_query_with_mode(text))?;
        Ok((self.prepare(db_name, &query)?, mode))
    }

    /// Executes one binding of a prepared statement: resolves `bindings`
    /// against the statement's parameter table, then runs the shared
    /// cached plan over the same warm index family the unbound query and
    /// [`Service::execute_batch`] use — the binding reaches only Leapfrog,
    /// which seeks the constants — so a warm call shuffles nothing and
    /// builds nothing. The first call on a cold cache
    /// builds (and publishes) the full indexes. Returns a full per-binding
    /// [`ServiceOutcome`]; all output modes are available exactly as on
    /// [`Service::execute_mode`].
    pub fn execute_bound(
        &self,
        prepared: &PreparedQuery,
        bindings: &Bindings,
        mode: OutputMode,
    ) -> Result<ServiceOutcome, ServiceError> {
        self.execute_bound_with_deadline(prepared, bindings, mode, None)
    }

    /// [`Service::execute_bound`] with a per-query deadline (see
    /// [`Service::execute_mode_with_deadline`] for the semantics).
    pub fn execute_bound_with_deadline(
        &self,
        prepared: &PreparedQuery,
        bindings: &Bindings,
        mode: OutputMode,
        deadline: Option<Duration>,
    ) -> Result<ServiceOutcome, ServiceError> {
        let values = self.failed(prepared.bind(bindings))?;
        // The statement's fingerprint was computed at prepare; only the
        // mode is the call's.
        let fingerprint = QueryFingerprint { mode, ..prepared.fingerprint };
        self.execute_inner(
            &prepared.db_name,
            &prepared.query,
            fingerprint,
            &values,
            false,
            deadline,
        )
    }

    /// Executes a whole batch of bindings of one prepared statement under
    /// **one** admission slot, **one** deadline, and **one** trace span
    /// tree. The submissions are normalized into a [`BindingBatch`]
    /// (duplicates collapse onto one execution), warm bindings are answered
    /// from the per-binding result LRU, and the cold remainder runs as one
    /// [`adj_core::execute_plan`] call — the same executor every door uses,
    /// here over many bindings: one bag pre-computation pass and one index
    /// round (one trie per relation, the same warm family every binding and
    /// the unbound query read) shared by every binding, then one Leapfrog
    /// pass per worker that visits the bindings in sorted order with
    /// forward-galloping cursor reuse. Results come back **aligned with the
    /// submission order** and byte-identical to looping
    /// [`Service::execute_bound`] over the same submissions. Unlike the
    /// batch door, single bound calls never consult the result LRU.
    ///
    /// The outer `Err` is a whole-batch failure (unknown database,
    /// admission rejection, a malformed binding, planning or index-build
    /// failure, a worker panic). Per-binding errors inside
    /// [`BatchOutcome::results`] carry partial outcomes: on a mid-batch
    /// deadline or cancellation, bindings that completed keep their
    /// results and the rest observe the typed deadline/cancel error.
    pub fn execute_batch(
        &self,
        prepared: &PreparedQuery,
        bindings: &[Bindings],
        mode: OutputMode,
    ) -> Result<BatchOutcome, ServiceError> {
        self.execute_batch_with_deadline(prepared, bindings, mode, None)
    }

    /// [`Service::execute_batch`] with one deadline covering the whole
    /// batch, measured from submission (admission wait included). `None`
    /// falls back to [`ServiceConfig::default_deadline`](crate::ServiceConfig).
    pub fn execute_batch_with_deadline(
        &self,
        prepared: &PreparedQuery,
        bindings: &[Bindings],
        mode: OutputMode,
        deadline: Option<Duration>,
    ) -> Result<BatchOutcome, ServiceError> {
        // Resolve every submission up front, into one flat buffer of value
        // rows in the statement's attribute order: a malformed binding
        // (missing or unknown `$name`) fails the whole batch before any
        // slot is held — batch inputs are validated as one request. Traced,
        // this is the `bind` span, ahead of the pipeline's own.
        let tracer = self.tracer(false);
        let mut bind_span = tracer.span(COORDINATOR_LANE, "bind");
        let table = &prepared.table;
        let mut values = Vec::with_capacity(bindings.len() * table.attrs().len());
        for b in bindings {
            self.failed(table.resolve_into(b, &mut values))?;
        }
        let batch = self.failed(BindingBatch::new(table.attrs(), bindings.len(), &values))?;
        drop(values);
        let submissions = batch.len();
        bind_span.arg("bindings", submissions as u64);
        bind_span.arg("unique", batch.unique_len() as u64);
        drop(bind_span);
        let deadline = deadline.or(self.config.default_deadline);

        // One pass through the pipeline for the whole batch: one memory
        // charge (the batch joins over one index family, so its input
        // footprint is one query's), one admission slot, one plan lookup
        // (every binding shares the statement's entry), one trace tree.
        let run = move |db: &Database, plan: &Arc<QueryPlan>, key: u64, ctx: &ExecCtx<'_>| {
            let (mut unique, slot_of) = batch.into_parts();
            let id = |binding| ResultId { plan_key: key, mode, binding };
            // Skim the result LRU under one lock: warm uniques are answered
            // without executing; the cold remainder forms the driver batch.
            // Per-unique outcomes hold the library error type (cloneable)
            // and are mapped to ServiceError per submission at demux. The
            // skim and the inserts after the join are each a
            // `result_cache` span.
            let mut skim_span = ctx.tracer.span(COORDINATOR_LANE, "result_cache");
            let keys: Vec<u64> = unique.iter().map(|b| Self::result_key(&id(b))).collect();
            let mut unique_results: Vec<Option<adj_relational::Result<QueryOutput>>> =
                self.results.get_if_each(&keys, |u, e| e.answer(&id(&unique[u])).map(Ok));
            let (mut cold, mut cold_slots) = (Vec::new(), Vec::new());
            for (u, _) in unique_results.iter().enumerate().filter(|(_, hit)| hit.is_none()) {
                // A cold binding moves on into the driver batch, and from
                // there into its result's LRU entry.
                cold.push(std::mem::take(&mut unique[u]));
                cold_slots.push(u);
            }
            let result_cache_hits =
                slot_of.iter().filter(|&&u| unique_results[u].is_some()).count();
            let unique_executed = cold.len();
            skim_span.arg("hits", (unique.len() - unique_executed) as u64);
            skim_span.arg("misses", unique_executed as u64);
            drop(skim_span);

            let mut report = ExecutionReport { share: plan.share, ..Default::default() };
            if !cold.is_empty() {
                // Result `k` belongs to `cold[k]`, that is `cold_slots[k]`.
                let (slot_results, batch_report) =
                    adj_core::execute_plan(&self.adj, db, plan, mode, &cold, ctx)?;
                report = batch_report;
                let mut insert_span = ctx.tracer.span(COORDINATOR_LANE, "result_cache");
                // Results are forgotten with the registration they ran on,
                // and kept only while their plan key is the shape's current
                // one: a mutation that ran meanwhile superseded it. The
                // registry stays read-locked until they are in, so a
                // mutation's swap and its sweep of the superseded results
                // come wholly before the check or wholly after the inserts.
                let epoch = ctx.index.map_or(0, |scope| scope.epoch);
                let reads = prepared.query.atoms.iter().map(|a| a.name.clone()).collect();
                let source = ResultSource { fingerprint: prepared.fingerprint, reads };
                let dbs = read_recovering(&self.databases);
                let keep = dbs
                    .get(&prepared.db_name)
                    .is_some_and(|e| e.epoch == epoch && e.plan_key_of(&source) == key);
                #[cfg(test)]
                tests::before_result_inserts();
                let mut evictions = 0;
                for ((binding, &u), res) in cold.into_iter().zip(&cold_slots).zip(&slot_results) {
                    if let (Ok(out), true) = (res, keep) {
                        let source = source.clone();
                        let entry =
                            ResultEntry::new(key, mode, binding, source, epoch, out.clone());
                        evictions += self.results.insert(keys[u], entry);
                    }
                }
                drop(dbs);
                for (u, res) in cold_slots.into_iter().zip(slot_results) {
                    unique_results[u] = Some(res);
                }
                insert_span.arg("evictions", evictions as u64);
            }

            // Demultiplex per submission, mapping library errors into
            // service errors (filling in the effective deadline the
            // executor cannot know). Each unique's outcome moves to the last
            // submission that reads it; only the ones before clone it.
            // Deadline/cancel slots count once in the fault counters — the
            // batch itself still succeeded partially.
            let mut last = vec![0; unique.len()];
            for (i, &u) in slot_of.iter().enumerate() {
                last[u] = i;
            }
            let mut any_deadline = false;
            let mut any_cancel = false;
            let results: Vec<Result<QueryOutput, ServiceError>> = (slot_of.iter().enumerate())
                .map(|(i, &u)| {
                    let slot = &mut unique_results[u];
                    let outcome = if last[u] == i { slot.take() } else { slot.clone() };
                    match outcome.expect("every unique resolved or executed") {
                        Ok(out) => Ok(out),
                        Err(e) => Err(match ServiceError::from(e) {
                            ServiceError::DeadlineExceeded { .. } => {
                                any_deadline = true;
                                ServiceError::DeadlineExceeded { deadline }
                            }
                            ServiceError::Cancelled => {
                                any_cancel = true;
                                ServiceError::Cancelled
                            }
                            other => other,
                        }),
                    }
                })
                .collect();
            if any_deadline {
                self.metrics.record_deadline_exceeded();
            }
            if any_cancel {
                self.metrics.record_cancelled();
            }
            let tuples_returned =
                results.iter().filter_map(|r| r.as_ref().ok()).map(|o| o.tuples_returned()).sum();
            Ok((BatchRun { results, result_cache_hits, unique_executed }, report, tuples_returned))
        };
        let fingerprint = QueryFingerprint { mode, ..prepared.fingerprint };
        let served =
            self.serve(&prepared.db_name, &prepared.query, fingerprint, deadline, tracer, run)?;
        let BatchRun { results, result_cache_hits, unique_executed } = served.payload;
        self.metrics.record_batch(submissions as u64, result_cache_hits as u64);
        Ok(BatchOutcome {
            results,
            mode,
            report: served.report,
            plan: served.plan,
            fingerprint: served.fingerprint,
            cache_hit: served.cache_hit,
            result_cache_hits,
            unique_executed,
            queue_secs: served.queue_secs,
            total_secs: served.total_secs,
            trace: served.trace,
        })
    }

    /// The result-LRU key of one `(plan entry, mode, binding)` triple: the
    /// plan cache key already folds the query shape, database tag, and
    /// statistics token (so mutations orphan stale results), and the
    /// binding's value pairs are folded FNV-style. The mode folds
    /// separately because the plan key is mode-independent. Collisions are
    /// the cache's to catch — it compares the identity on every hit.
    fn result_key(id: &ResultId<'_>) -> u64 {
        let mut h = Fnv1a::new();
        h.write(&id.plan_key.to_le_bytes());
        let (m, n): (u8, u64) = match id.mode {
            OutputMode::Rows => (0, 0),
            OutputMode::Count => (1, 0),
            OutputMode::Limit(n) => (2, n as u64),
            OutputMode::Exists => (3, 0),
        };
        h.write(&[m]);
        h.write(&n.to_le_bytes());
        for &(attr, value) in id.binding.pairs() {
            h.write(&attr.0.to_le_bytes());
            h.write(&value.to_le_bytes());
        }
        h.finish()
    }

    /// The single-query doors' shared tail: [`Service::serve`] with
    /// "execute the plan under the request's context, seeking `values`" as
    /// the run step. `force_trace` turns tracing on for this query
    /// regardless of the configured [`TraceSettings`](crate::TraceSettings)
    /// (the `EXPLAIN ANALYZE` path needs the actuals).
    fn execute_inner(
        &self,
        db_name: &str,
        query: &JoinQuery,
        fingerprint: QueryFingerprint,
        values: &BoundValues,
        force_trace: bool,
        deadline: Option<Duration>,
    ) -> Result<ServiceOutcome, ServiceError> {
        let mode = fingerprint.mode;
        let deadline = deadline.or(self.config.default_deadline);
        // Borrowing the cached plan — no per-query plan clone on the hot
        // path — under the index cache's scope: warm relations join over
        // cached `Arc<Trie>` handles and skip the shuffle + build entirely.
        let run = |db: &Database, plan: &Arc<QueryPlan>, _key: u64, ctx: &ExecCtx<'_>| {
            let (output, report) = self.adj.execute_plan(plan, db, mode, values, ctx)?;
            let tuples_returned = output.tuples_returned();
            Ok((output, report, tuples_returned))
        };
        let tracer = self.tracer(force_trace);
        let served = self.serve(db_name, query, fingerprint, deadline, tracer, run)?;
        Ok(ServiceOutcome {
            output: served.payload,
            mode,
            report: served.report,
            plan: served.plan,
            fingerprint: served.fingerprint,
            cache_hit: served.cache_hit,
            queue_secs: served.queue_secs,
            total_secs: served.total_secs,
            trace: served.trace,
        })
    }

    /// The tracer one request records into: enabled when `force` is set
    /// (the `EXPLAIN ANALYZE` path needs the actuals) or the configured
    /// [`TraceSettings`](crate::TraceSettings) trace every query or keep a
    /// slow-query log; the no-op tracer otherwise.
    fn tracer(&self, force: bool) -> Tracer {
        let settings = &self.config.trace;
        if force || settings.enabled || settings.slow_query_threshold.is_some() {
            Tracer::new(settings.buffer_capacity)
        } else {
            Tracer::disabled()
        }
    }

    /// The one serve pipeline behind every query door. The stages, in
    /// order: deadline token → database lookup → memory admission
    /// → concurrency slot → plan ([`Service::plan_for`]) → `run` under
    /// panic isolation → slot release → success metrics → trace handle →
    /// slow-query log. Every early return counts itself (failure or
    /// rejection) and releases whatever it held.
    ///
    /// `fingerprint` is the submission's (its mode is the request's mode);
    /// `deadline` is the request's effective one (already defaulted),
    /// measured from here, admission wait included. `tracer` is the
    /// request's ([`Service::tracer`]); a door may already have recorded
    /// its own spans into it before the pipeline starts. `run` is the
    /// door's own step over the snapshot's database, the plan, its
    /// plan-cache key and the request's [`ExecCtx`]; it returns its
    /// payload, the execution report and the tuples it ships back to the
    /// caller.
    fn serve<T>(
        &self,
        db_name: &str,
        query: &JoinQuery,
        fingerprint: QueryFingerprint,
        deadline: Option<Duration>,
        tracer: Tracer,
        run: impl FnOnce(
            &Database,
            &Arc<QueryPlan>,
            u64,
            &ExecCtx<'_>,
        ) -> adj_relational::Result<(T, ExecutionReport, u64)>,
    ) -> Result<Served<T>, ServiceError> {
        let t_start = Instant::now();
        let _in_flight = InFlight::enter(&self.in_flight);
        let mode = fingerprint.mode;
        // Always a real (non-`none`) token: fault plans drive `Cancel`
        // injections through it even when no deadline is set.
        let cancel = match deadline {
            Some(d) => CancelToken::with_deadline(t_start + d),
            None => CancelToken::manual(),
        };
        let settings = &self.config.trace;
        let entry = self.failed(self.lookup(db_name))?;
        let _superseded = ForgetIfSuperseded(self, &entry);
        let scope = entry.scope(&self.index);
        let mut ctx = ExecCtx { index: Some(&scope), cancel, tracer, ..Default::default() };

        // Memory admission: estimated input footprint vs the per-query
        // share of the cluster budget.
        if let Some(budget) = self.per_query_budget_bytes {
            let estimated = Self::estimate_input_bytes(&entry.db, query);
            if estimated > budget {
                self.admission.note_memory_rejection();
                self.metrics.record_rejection();
                return Err(ServiceError::RejectedMemory {
                    estimated_bytes: estimated,
                    budget_bytes: budget,
                });
            }
        }

        // Concurrency admission.
        let t_queue = Instant::now();
        let mut admit_span = ctx.tracer.span(COORDINATOR_LANE, "admission_wait");
        let permit = match self.admission.admit() {
            Ok(p) => p,
            Err(e) => {
                self.metrics.record_rejection();
                return Err(e);
            }
        };
        let queue_secs = t_queue.elapsed().as_secs_f64();
        // A deadline that expired while queued fails here — before any
        // planning or execution work is charged to a query that can no
        // longer finish in time.
        if let Err(c) = ctx.cancel.check() {
            return Err(self.fail_cancelled(c, deadline));
        }
        if queue_secs < 1e-6 {
            // Admission was immediate; a zero-width span would only add
            // timeline noise — its absence is the "never waited" signal.
            admit_span.discard();
        }
        drop(admit_span);

        let (plan, key, cache_hit) =
            self.plan_for(&entry, query, fingerprint, &mut ctx, deadline)?;

        // `catch_unwind` here isolates *coordinator-side* panics (index
        // lookups, the driver, gather) to this query; worker panics (index
        // builds, joins) are already caught per-worker inside the cluster's
        // runs and surface as typed `Err(WorkerPanicked)` results. Either
        // way the process survives and no partial artifact was published
        // (the index round checks its build results and the token *before*
        // publishing anything).
        let ran = catch_unwind(AssertUnwindSafe(|| run(&entry.db, &plan, key, &ctx)));
        let (payload, mut report, tuples_returned) = match ran {
            Ok(Ok(ran)) => ran,
            Ok(Err(e)) => return Err(self.fail_exec(e, deadline)),
            Err(panic) => return Err(self.fail_panicked(panic)),
        };
        drop(permit);

        // The search cost is charged to the miss that built the entry, and
        // to no hit after it.
        report.optimization_secs = if cache_hit { 0.0 } else { plan.optimization_secs };
        let total_secs = t_start.elapsed().as_secs_f64();
        self.metrics.record_success(&report, mode, tuples_returned, queue_secs, total_secs);
        let trace = ctx.tracer.enabled().then(|| {
            // Recording stops here, but the buffer is NOT drained: the
            // handle materializes the sorted timeline on first read, so
            // queries whose trace nobody inspects never pay collection
            // cost on the serving path.
            self.metrics.record_trace(ctx.tracer.events_dropped());
            QueryTrace::new(&ctx.tracer)
        });
        if let (Some(trace), Some(threshold)) = (&trace, settings.slow_query_threshold) {
            if total_secs >= threshold.as_secs_f64() {
                self.note_slow(SlowQuery {
                    db_name: db_name.to_string(),
                    fingerprint,
                    mode,
                    total_secs,
                    queue_secs,
                    trace: trace.snapshot(),
                });
            }
        }
        Ok(Served { payload, report, plan, fingerprint, cache_hit, queue_secs, total_secs, trace })
    }

    /// The plan serving `query` against `entry`: cached, or optimized now
    /// on behalf of the request `ctx` and published. Returns it with its
    /// plan-cache key and whether it was a hit. The key uses the
    /// fingerprint's plan-relevant prefix only, so every output mode — and
    /// every *binding* — of a query shape shares one entry. Traced, the
    /// lookup is a `plan_lookup` span (`hit` arg) containing, on a miss, an
    /// `optimize` span annotated with the plan's size and the optimizer's
    /// own counts.
    ///
    /// On a miss the optimizer reads its sampling tries from the index
    /// cache under `ctx`'s scope, and the tries it built for the plan go
    /// into `ctx.planned` for the execution to take over. Its builds poll
    /// `ctx`'s token: a cancellation or a `deadline` that expires while it
    /// plans fails the request typed, and a panic while it plans is caught
    /// here; either way nothing is cached.
    fn plan_for(
        &self,
        entry: &DbEntry,
        query: &JoinQuery,
        fingerprint: QueryFingerprint,
        ctx: &mut ExecCtx<'_>,
        deadline: Option<Duration>,
    ) -> Result<(Arc<QueryPlan>, u64, bool), ServiceError> {
        // Keying discipline: the plan key must be a pure function of the
        // shape — erasing every constant's value must not move it.
        debug_assert_eq!(
            fingerprint.plan_key,
            QueryFingerprint::of(&query.erase_bound_values()).plan_key,
            "constants leaked into plan_key"
        );
        let key = fingerprint.cache_key(entry.tag, entry.stats_token(query));
        let mut lookup_span = ctx.tracer.span(COORDINATOR_LANE, "plan_lookup");
        let (plan, cache_hit) = match self.cache.lookup(&key, || false) {
            Lookup::Hit { value: (plan, _), .. } => (plan, true),
            Lookup::Miss(claim) => {
                let mut optimize_span = ctx.tracer.span(COORDINATOR_LANE, "optimize");
                let strategy = self.config.strategy;
                let planned = catch_unwind(AssertUnwindSafe(|| {
                    self.adj.plan_in(query, &entry.db, strategy, ctx)
                }));
                let (plan, tries) = match planned {
                    Ok(Ok(planned)) => planned,
                    Ok(Err(e)) => return Err(self.fail_exec(e, deadline)),
                    Err(panic) => return Err(self.fail_panicked(panic)),
                };
                if optimize_span.is_recording() {
                    optimize_span.arg("relations", plan.relations.len() as u64);
                    optimize_span.arg("precomputed_bags", plan.precompute.len() as u64);
                    for (name, value) in plan.optimizer.args() {
                        optimize_span.arg(name, value);
                    }
                }
                drop(optimize_span);
                ctx.planned = tries;
                let plan = Arc::new(plan);
                claim.publish((Arc::clone(&plan), entry.epoch));
                self.forget_if_superseded(entry);
                (plan, false)
            }
        };
        lookup_span.arg("hit", cache_hit as u64);
        Ok((plan, key, cache_hit))
    }

    /// Counts a failed submission on its way out: every `Err` passing
    /// through here is one `queries_failed`.
    fn failed<T>(&self, result: Result<T, impl Into<ServiceError>>) -> Result<T, ServiceError> {
        result.map_err(|e| {
            self.metrics.record_failure();
            e.into()
        })
    }

    /// Maps an execution-layer error into its service error, recording the
    /// failure plus the specific fault counter (panic / deadline / cancel)
    /// it represents.
    fn fail_exec(
        &self,
        e: adj_relational::Error,
        effective_deadline: Option<Duration>,
    ) -> ServiceError {
        self.metrics.record_failure();
        match ServiceError::from(e) {
            ServiceError::DeadlineExceeded { .. } => {
                self.metrics.record_deadline_exceeded();
                ServiceError::DeadlineExceeded { deadline: effective_deadline }
            }
            ServiceError::Cancelled => {
                self.metrics.record_cancelled();
                ServiceError::Cancelled
            }
            ServiceError::WorkerPanicked { worker, message } => {
                self.metrics.record_worker_panic();
                ServiceError::WorkerPanicked { worker, message }
            }
            other => other,
        }
    }

    /// Records and shapes a cancellation observed directly on the token.
    fn fail_cancelled(
        &self,
        c: adj_faults::Cancelled,
        effective_deadline: Option<Duration>,
    ) -> ServiceError {
        self.metrics.record_failure();
        if c.deadline {
            self.metrics.record_deadline_exceeded();
            ServiceError::DeadlineExceeded { deadline: effective_deadline }
        } else {
            self.metrics.record_cancelled();
            ServiceError::Cancelled
        }
    }

    /// Records and shapes a panic caught on the coordinator path (a run
    /// step or a mutation batch).
    fn fail_panicked(&self, payload: Box<dyn std::any::Any + Send>) -> ServiceError {
        let message = panic_message(payload);
        self.fail_exec(adj_relational::Error::WorkerPanicked { worker: None, message }, None)
    }

    /// Inserts one over-threshold query into the slow-query log, keeping
    /// the configured number of worst offenders (slowest first).
    fn note_slow(&self, slow: SlowQuery) {
        self.metrics.record_slow_logged();
        let keep = self.config.trace.slow_log_keep;
        if keep == 0 {
            return;
        }
        let mut log = lock_recovering(&self.slow_log);
        let at = log
            .binary_search_by(|e| {
                slow.total_secs.partial_cmp(&e.total_secs).unwrap_or(std::cmp::Ordering::Equal)
            })
            .unwrap_or_else(|i| i);
        log.insert(at, slow);
        log.truncate(keep);
    }

    /// The slow-query log: the worst traced queries over the configured
    /// threshold, slowest first. Empty unless
    /// [`TraceSettings::slow_query_threshold`](crate::TraceSettings) is
    /// set.
    pub fn slow_queries(&self) -> Vec<SlowQuery> {
        lock_recovering(&self.slow_log).clone()
    }

    /// Serves a textual query (`"Q(a,b,c) :- R1(a,b), R2(b,c), R3(a,c)"`,
    /// head optional) against the named database. The text may carry an
    /// output-mode prefix — `COUNT(…)`, `LIMIT k (…)`, `EXISTS(…)` — which
    /// selects the [`OutputMode`] exactly as
    /// [`Service::execute_mode`] would.
    /// `EXPLAIN`-prefixed text is rejected with a pointed parse error —
    /// its result is a rendered plan, not a [`ServiceOutcome`]; submit it
    /// through [`Service::explain_text`] instead.
    pub fn execute_text(&self, db_name: &str, text: &str) -> Result<ServiceOutcome, ServiceError> {
        if self.failed(parse_query_explain(text))?.is_some() {
            return self.failed(Err(ServiceError::Parse {
                offset: text.len() - text.trim_start().len(),
                token: "EXPLAIN".to_string(),
                message: "EXPLAIN returns a rendered plan, not rows — submit it via \
                          Service::explain_text"
                    .to_string(),
            }));
        }
        let (query, _attr_names, mode) = self.failed(parse_query_with_mode(text))?;
        self.execute_mode(db_name, &query, mode)
    }

    /// Serves `EXPLAIN` / `EXPLAIN ANALYZE` query text: renders the chosen
    /// plan as an indented text tree (shares, attribute order, routing,
    /// bag structure). Under plain `EXPLAIN` the query is planned (through
    /// the plan cache, publishing the planner's tries as `prepare` does)
    /// but **not executed**; under `EXPLAIN ANALYZE` it
    /// executes with tracing forced on and the rendering is annotated with
    /// measured actuals — per-phase seconds, tuples moved, cache reuse,
    /// per-trie-level operation counts, per-worker fill and join-span
    /// times. Text without an `EXPLAIN` prefix is treated as plain
    /// `EXPLAIN`.
    pub fn explain_text(&self, db_name: &str, text: &str) -> Result<String, ServiceError> {
        let (query, names, mode, explain) = match self.failed(parse_query_explain(text))? {
            Some(p) => p,
            None => {
                let (q, n, m) = self.failed(parse_query_with_mode(text))?;
                (q, n, m, ExplainMode::Plan)
            }
        };
        match explain {
            ExplainMode::Plan => {
                let entry = self.failed(self.lookup(db_name))?;
                let fingerprint = QueryFingerprint::of(&query);
                let scope = entry.scope(&self.index);
                let mut ctx = ExecCtx { index: Some(&scope), ..Default::default() };
                let (plan, _, _) = self.plan_for(&entry, &query, fingerprint, &mut ctx, None)?;
                ctx.planned.publish(&scope, &ctx.cancel);
                Ok(explain::render(
                    &plan,
                    &names,
                    db_name,
                    self.config.strategy,
                    mode,
                    explain,
                    None,
                ))
            }
            ExplainMode::Analyze => {
                let values = self.validated_const_bindings(&query)?;
                let fingerprint = QueryFingerprint::of_mode(&query, mode);
                let outcome =
                    self.execute_inner(db_name, &query, fingerprint, &values, true, None)?;
                let trace = outcome.trace.as_ref().expect("forced tracing always yields a trace");
                Ok(explain::render(
                    &outcome.plan,
                    &names,
                    db_name,
                    self.config.strategy,
                    mode,
                    explain,
                    Some((&outcome.report, trace)),
                ))
            }
        }
    }

    /// Plan-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Index-cache counters (hits/misses/evictions/resident bytes).
    pub fn index_cache_stats(&self) -> IndexCacheStats {
        self.index.stats()
    }

    /// Per-binding result-cache counters.
    pub fn result_cache_stats(&self) -> CacheStats {
        self.results.stats()
    }

    /// Admission-control counters.
    pub fn admission_stats(&self) -> AdmissionStats {
        self.admission.stats()
    }

    /// Metrics-registry snapshot. The `coalesced_builds` counter lives in
    /// the index cache (builds avoided by concurrent-miss coalescing); it
    /// is stitched into the snapshot here so one struct carries every
    /// exported counter.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut m = self.metrics.snapshot();
        m.coalesced_builds = self.index.stats().coalesced_builds;
        m
    }

    /// Everything at once.
    pub fn stats(&self) -> ServiceStats {
        let index = self.index.stats();
        let mut metrics = self.metrics.snapshot();
        metrics.coalesced_builds = index.coalesced_builds;
        ServiceStats {
            metrics,
            cache: self.cache.stats(),
            index,
            results: self.results.stats(),
            admission: self.admission.stats(),
        }
    }

    fn lookup(&self, db_name: &str) -> Result<Arc<DbEntry>, ServiceError> {
        read_recovering(&self.databases)
            .get(db_name)
            .cloned()
            .ok_or_else(|| ServiceError::UnknownDatabase(db_name.to_string()))
    }

    /// Lower bound on the bytes a query materializes: the payload of every
    /// referenced relation (each is indexed whole).
    /// Relations the database lacks contribute 0 here; the executor reports
    /// the precise missing-relation error during planning.
    fn estimate_input_bytes(db: &Database, query: &JoinQuery) -> usize {
        query.atoms.iter().filter_map(|a| db.get(&a.name).ok().map(|r| r.size_bytes())).sum()
    }
}

impl std::fmt::Debug for Service {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Service")
            .field("databases", &self.database_names())
            .field("cache", &self.cache.stats())
            .field("admission", &self.admission.stats())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adj_cluster::ClusterConfig;
    use adj_core::AdjConfig;
    use adj_hcube::IndexKey;
    use adj_query::{paper_query, PaperQuery};
    use adj_relational::{Attr, Value};

    fn graph(n: u32, m: u32) -> Relation {
        let edges: Vec<(Value, Value)> = (0..n)
            .flat_map(|i| vec![(i % m, (i * 7 + 1) % m), ((i * 3) % m, (i * 11 + 5) % m)])
            .collect();
        Relation::from_pairs(Attr(0), Attr(1), &edges)
    }

    fn small_service() -> Service {
        let config = ServiceConfig {
            adj: AdjConfig { cluster: ClusterConfig::with_workers(2), ..pinned_adj() },
            ..Default::default()
        };
        Service::new(config)
    }

    /// An `AdjConfig` whose cost model skips the sampling-time β
    /// measurement, so tests that compare two independently-planned
    /// services see identical plans regardless of machine load.
    fn pinned_adj() -> AdjConfig {
        AdjConfig {
            cost: adj_core::CostParams { measure_beta: false, ..Default::default() },
            ..Default::default()
        }
    }

    #[test]
    fn serves_and_matches_single_shot_adj() {
        let q = paper_query(PaperQuery::Q1);
        let g = graph(150, 41);
        let db = q.instantiate(&g);
        let service = small_service();
        service.register_database("g", db.clone());
        let served = service.execute("g", &q).unwrap();
        let solo = Adj::with_workers(2).execute(&q, &db).unwrap();
        assert_eq!(served.rows().len(), solo.rows().len());
        let aligned = served.rows().permute(solo.rows().schema().attrs()).unwrap();
        assert_eq!(&aligned, solo.rows());
    }

    #[test]
    fn repeated_shape_hits_cache_and_skips_optimization() {
        let q = paper_query(PaperQuery::Q4);
        let service = small_service();
        service.register_database("g", q.instantiate(&graph(120, 31)));
        let miss = service.execute("g", &q).unwrap();
        assert!(!miss.cache_hit);
        assert!(miss.report.optimization_secs > 0.0);
        let hit = service.execute("g", &q).unwrap();
        assert!(hit.cache_hit);
        assert_eq!(hit.report.optimization_secs, 0.0);
        assert_eq!(hit.rows(), miss.rows());
        let stats = service.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn reregistration_bumps_epoch_and_invalidates() {
        let q = paper_query(PaperQuery::Q1);
        let service = small_service();
        let e1 = service.register_database("g", q.instantiate(&graph(100, 23)));
        let first = service.execute("g", &q).unwrap();
        // A second database's cached plan must survive g's re-registration.
        let q4 = paper_query(PaperQuery::Q4);
        service.register_database("h", q4.instantiate(&graph(80, 19)));
        service.execute("h", &q4).unwrap();
        // New contents under the same name: cached plan must not be reused.
        let e2 = service.register_database("g", q.instantiate(&graph(200, 41)));
        assert!(e2 > e1);
        let second = service.execute("g", &q).unwrap();
        assert!(!second.cache_hit, "epoch change must force a re-plan");
        assert_ne!(first.rows().len(), second.rows().len());
        let on_h = service.execute("h", &q4).unwrap();
        assert!(on_h.cache_hit, "invalidation must be scoped to the re-registered database");
    }

    #[test]
    fn modes_share_one_cached_plan_but_not_outcomes() {
        let q = paper_query(PaperQuery::Q4);
        let service = small_service();
        service.register_database("g", q.instantiate(&graph(120, 31)));

        let rows = service.execute("g", &q).unwrap();
        assert!(!rows.cache_hit);
        let full = rows.rows().len() as u64;

        let count = service.execute_mode("g", &q, OutputMode::Count).unwrap();
        assert!(count.cache_hit, "count mode must reuse the Rows-mode plan");
        assert_eq!(count.output, QueryOutput::Count(full));
        assert_eq!(count.mode, OutputMode::Count);
        assert_ne!(count.fingerprint, rows.fingerprint, "outcomes are mode-distinct");
        assert_eq!(count.fingerprint.plan_key, rows.fingerprint.plan_key);
        assert!(Arc::ptr_eq(&count.plan, &rows.plan), "literally one shared plan");

        let exists = service.execute_mode("g", &q, OutputMode::Exists).unwrap();
        assert!(exists.cache_hit);
        assert_eq!(exists.output, QueryOutput::Exists(full > 0));

        let limited = service.execute_mode("g", &q, OutputMode::Limit(4)).unwrap();
        assert!(limited.cache_hit);
        assert_eq!(limited.rows().len() as u64, 4.min(full));

        let m = service.metrics();
        assert_eq!(m.by_mode.rows, 1);
        assert_eq!(m.by_mode.count, 1);
        assert_eq!(m.by_mode.exists, 1);
        assert_eq!(m.by_mode.limit, 1);
        assert_eq!(
            m.output_tuples_returned,
            full + 4.min(full),
            "only rows/limit ship tuples back"
        );
        assert_eq!(service.cache_stats().misses, 1, "one optimization served four modes");
    }

    #[test]
    fn text_mode_prefixes_reach_the_executor() {
        let q = paper_query(PaperQuery::Q1);
        let service = small_service();
        service.register_database("g", q.instantiate(&graph(150, 41)));
        let full = service.execute("g", &q).unwrap().rows().len() as u64;

        let counted =
            service.execute_text("g", "COUNT(Q(a,b,c) :- R1(a,b), R2(b,c), R3(a,c))").unwrap();
        assert_eq!(counted.mode, OutputMode::Count);
        assert_eq!(counted.output, QueryOutput::Count(full));
        assert!(counted.cache_hit, "text COUNT shares the value-form plan");

        let witness = service.execute_text("g", "EXISTS(R1(a,b), R2(b,c), R3(a,c))").unwrap();
        assert_eq!(witness.output, QueryOutput::Exists(full > 0));

        let sample = service.execute_text("g", "LIMIT 2 (R1(a,b), R2(b,c), R3(a,c))").unwrap();
        assert_eq!(sample.rows().len() as u64, 2.min(full));
    }

    #[test]
    fn unknown_database_and_parse_errors_count_as_failures() {
        let service = small_service();
        let q = paper_query(PaperQuery::Q1);
        let err = service.execute("nope", &q).unwrap_err();
        assert!(matches!(err, ServiceError::UnknownDatabase(_)));
        assert!(!err.is_rejection());
        assert!(service.execute_text("nope", "R1(a,").is_err());
        let m = service.metrics();
        assert_eq!(m.queries_failed, 2, "lookup and parse errors must be visible in metrics");
        assert_eq!(m.queries_ok + m.queries_failed + m.queries_rejected, 2);
    }

    #[test]
    fn text_queries_parse_and_share_plans_across_variable_naming() {
        let q = paper_query(PaperQuery::Q1);
        let service = small_service();
        service.register_database("g", q.instantiate(&graph(100, 23)));
        let a = service.execute_text("g", "Q(a,b,c) :- R1(a,b), R2(b,c), R3(a,c)").unwrap();
        let b = service.execute_text("g", "T(x,y,z) :- R1(x,y), R2(y,z), R3(x,z)").unwrap();
        assert!(!a.cache_hit);
        assert!(b.cache_hit, "renamed variables are the same canonical query");
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.rows(), b.rows());
        // malformed text is an Exec error, not a panic
        assert!(service.execute_text("g", "R1(a,").is_err());
    }

    #[test]
    fn memory_budget_rejects_oversized_queries() {
        let q = paper_query(PaperQuery::Q1);
        let db = q.instantiate(&graph(200, 41));
        let config = ServiceConfig {
            adj: AdjConfig {
                cluster: ClusterConfig {
                    num_workers: 2,
                    // 2 workers × 64 B = 128 B total; half goes to the
                    // index cache, leaving 64 B ÷ max_concurrent(1).
                    memory_limit_bytes: Some(64),
                    ..Default::default()
                },
                ..Default::default()
            },
            max_concurrent: 1,
            ..Default::default()
        };
        let service = Service::new(config);
        assert_eq!(service.index_cache_stats().capacity_bytes, 64);
        assert_eq!(service.per_query_budget_bytes(), Some(64));
        service.register_database("g", db);
        let err = service.execute("g", &q).unwrap_err();
        assert!(matches!(err, ServiceError::RejectedMemory { .. }), "{err}");
        let stats = service.stats();
        assert_eq!(stats.admission.rejected_memory, 1);
        assert_eq!(stats.metrics.queries_rejected, 1);
        assert_eq!(stats.metrics.queries_ok, 0);
    }

    #[test]
    fn metrics_report_phase_latencies() {
        let q = paper_query(PaperQuery::Q5);
        let service = small_service();
        service.register_database("g", q.instantiate(&graph(100, 29)));
        for _ in 0..3 {
            service.execute("g", &q).unwrap();
        }
        let m = service.metrics();
        assert_eq!(m.queries_ok, 3);
        assert_eq!(m.total.count, 3);
        assert!(m.total.mean_secs > 0.0);
        assert!(m.communication.count == 3);
        assert!(m.output_tuples > 0);
        // optimization histogram: one real observation + two zeros (hits)
        assert_eq!(m.optimization.count, 3);
    }

    #[test]
    fn prepared_statement_serves_many_bindings_from_one_plan() {
        use adj_query::parse_query;
        let tri = paper_query(PaperQuery::Q1);
        let g = graph(150, 41);
        let db = tri.instantiate(&g);
        let service = small_service();
        service.register_database("g", db);

        // Oracle: the unbound triangles, filtered client-side per vertex.
        let full = service.execute("g", &tri).unwrap();
        let a_col = full.rows().schema().position(Attr(0)).unwrap();

        let (q, _) = parse_query("Q(b,c) :- R1($v,b), R2(b,c), R3($v,c)").unwrap();
        let prepared = service.prepare("g", &q).unwrap();
        assert_eq!(prepared.params().len(), 1);
        let misses_before = service.cache_stats().misses;

        for v in [0u32, 3, 7, 11, 40] {
            let out =
                service.execute_bound(&prepared, &Bindings::new().set("v", v), OutputMode::Rows);
            let out = out.unwrap();
            let expect = full.rows().rows().filter(|r| r[a_col] == v).count();
            assert_eq!(out.rows().len(), expect, "binding v={v}");
            assert!(out.cache_hit, "every binding must reuse the prepared plan");
            assert!(out.rows().rows().all(|r| {
                let p = out.rows().schema().position(Attr(0)).unwrap();
                r[p] == v
            }));

            let count = service
                .execute_bound(&prepared, &Bindings::new().set("v", v), OutputMode::Count)
                .unwrap();
            assert_eq!(count.output, QueryOutput::Count(expect as u64));
        }
        assert_eq!(
            service.cache_stats().misses,
            misses_before,
            "no binding may forge a fresh plan-cache miss"
        );

        let m = service.metrics();
        assert_eq!(m.queries_prepared, 1);
        assert!(m.params_bound >= 10, "each bound execution binds $v");
    }

    #[test]
    fn inline_literals_flow_through_execute_text() {
        let tri = paper_query(PaperQuery::Q1);
        let g = graph(150, 41);
        let db = tri.instantiate(&g);
        let service = small_service();
        service.register_database("g", db);
        let full = service.execute("g", &tri).unwrap();
        let a_col = full.rows().schema().position(Attr(0)).unwrap();
        let expect = full.rows().rows().filter(|r| r[a_col] == 7).count() as u64;

        let out = service.execute_text("g", "COUNT(R1(7,b), R2(b,c), R3(7,c))").unwrap();
        assert_eq!(out.output, QueryOutput::Count(expect));
        // A different literal is the same shape: one plan, a cache hit.
        let other = service.execute_text("g", "COUNT(R1(11,b), R2(b,c), R3(11,c))").unwrap();
        assert!(other.cache_hit, "distinct constants must share one cached plan");
        assert_eq!(out.fingerprint, other.fingerprint);
    }

    #[test]
    fn parse_failures_surface_as_typed_errors_with_offsets() {
        let service = small_service();
        let err = service.execute_text("g", "R1(a,b), R2(b,!c)").unwrap_err();
        let ServiceError::Parse { offset, token, .. } = &err else {
            panic!("expected ServiceError::Parse, got {err:?}")
        };
        assert_eq!(*offset, 14);
        assert_eq!(token, "!c");
        assert!(!err.is_rejection());
        assert_eq!(service.metrics().queries_failed, 1);

        // prepare_text reports parse errors the same way.
        assert!(matches!(
            service.prepare_text("g", "R1(a,").unwrap_err(),
            ServiceError::Parse { .. }
        ));
    }

    #[test]
    fn unbound_params_error_instead_of_joining_free() {
        let (q, _) = adj_query::parse_query("R1($v,b), R2(b,c)").unwrap();
        let service = small_service();
        service.register_database("g", paper_query(PaperQuery::Q7).instantiate(&graph(60, 13)));
        let err = service.execute("g", &q).unwrap_err();
        assert!(
            matches!(&err, ServiceError::Exec(adj_relational::Error::UnboundParam { .. })),
            "{err:?}"
        );
        // ...and a typo'd binding is caught, not ignored.
        let prepared = service.prepare("g", &q).unwrap();
        let err = service
            .execute_bound(&prepared, &Bindings::new().set("w", 1), OutputMode::Rows)
            .unwrap_err();
        assert!(matches!(
            err,
            ServiceError::Exec(adj_relational::Error::UnboundParam { .. })
                | ServiceError::Exec(adj_relational::Error::UnknownParam { .. })
        ));
    }

    #[test]
    fn tracing_off_by_default_on_when_configured() {
        let q = paper_query(PaperQuery::Q1);
        let service = small_service();
        service.register_database("g", q.instantiate(&graph(100, 23)));
        let out = service.execute("g", &q).unwrap();
        assert!(out.trace.is_none(), "tracing must be off by default");
        assert_eq!(service.metrics().queries_traced, 0);

        let config = ServiceConfig {
            adj: AdjConfig { cluster: ClusterConfig::with_workers(2), ..pinned_adj() },
            trace: crate::TraceSettings { enabled: true, ..Default::default() },
            ..Default::default()
        };
        let service = Service::new(config);
        service.register_database("g", q.instantiate(&graph(100, 23)));
        let traced = service.execute("g", &q).unwrap();
        let trace = traced.trace.clone().expect("configured tracing must attach a trace");
        assert!(trace.is_well_formed(), "spans must nest per lane");
        assert_eq!(trace.events_dropped, 0);
        // coordinator phases and one lane per worker are all present
        // (admission_wait is absent by design: the query never waited)
        for name in ["plan_lookup", "shuffle", "computation", "gather"] {
            assert!(!trace.events_named(name).is_empty(), "missing span {name}");
        }
        assert!(trace.lanes().len() >= 3, "coordinator + 2 worker lanes: {:?}", trace.lanes());
        assert_eq!(service.metrics().queries_traced, 1);
        // results are identical with tracing on
        let plain = small_service();
        plain.register_database("g", q.instantiate(&graph(100, 23)));
        assert_eq!(traced.rows(), plain.execute("g", &q).unwrap().rows());
    }

    #[test]
    fn slow_query_log_keeps_the_worst() {
        let q = paper_query(PaperQuery::Q4);
        let config = ServiceConfig {
            adj: AdjConfig { cluster: ClusterConfig::with_workers(2), ..Default::default() },
            trace: crate::TraceSettings {
                slow_query_threshold: Some(std::time::Duration::ZERO),
                slow_log_keep: 2,
                ..Default::default()
            },
            ..Default::default()
        };
        let service = Service::new(config);
        service.register_database("g", q.instantiate(&graph(120, 31)));
        for _ in 0..3 {
            service.execute("g", &q).unwrap();
        }
        let slow = service.slow_queries();
        assert_eq!(slow.len(), 2, "log must cap at slow_log_keep");
        assert!(slow[0].total_secs >= slow[1].total_secs, "slowest first");
        assert!(!slow[0].trace.events.is_empty(), "entries carry their trace");
        assert_eq!(slow[0].db_name, "g");
        let m = service.metrics();
        assert_eq!(m.slow_queries_logged, 3, "every over-threshold query counts");
        assert_eq!(m.queries_traced, 3, "a threshold forces tracing on");
    }

    #[test]
    fn execute_text_rejects_explain_with_a_pointed_error() {
        let q = paper_query(PaperQuery::Q1);
        let service = small_service();
        service.register_database("g", q.instantiate(&graph(100, 23)));
        let err = service.execute_text("g", "EXPLAIN R1(a,b), R2(b,c), R3(a,c)").unwrap_err();
        let ServiceError::Parse { token, message, .. } = &err else {
            panic!("expected a pointed parse error, got {err:?}")
        };
        assert_eq!(token, "EXPLAIN");
        assert!(message.contains("explain_text"), "{message}");
        // a relation merely *named* EXPLAIN still executes
        assert_eq!(service.metrics().queries_failed, 1);
    }

    #[test]
    fn explain_text_renders_plan_and_analyze_renders_actuals() {
        let q = paper_query(PaperQuery::Q4);
        let service = small_service();
        service.register_database("g", q.instantiate(&graph(120, 31)));

        let plan_only =
            service.explain_text("g", "EXPLAIN COUNT(R1(a,b), R2(b,c), R3(c,d))").unwrap();
        assert!(plan_only.starts_with("EXPLAIN mode=Count"));
        assert!(plan_only.contains("hypertree:"));
        assert!(!plan_only.contains("actuals:"), "plain EXPLAIN must not execute");
        assert_eq!(service.metrics().queries_ok, 0, "plain EXPLAIN serves no query");

        let analyzed =
            service.explain_text("g", "EXPLAIN ANALYZE COUNT(R1(a,b), R2(b,c), R3(c,d))").unwrap();
        assert!(analyzed.starts_with("EXPLAIN ANALYZE mode=Count"));
        assert!(analyzed.contains("actuals:"));
        assert!(analyzed.contains("level 0 ("), "per-trie-level actuals: {analyzed}");
        assert!(analyzed.contains("worker join spans: w0="), "{analyzed}");
        assert!(analyzed.contains("per worker: w0=morsels:"), "{analyzed}");
        assert!(analyzed.contains(" index_built="), "the round's build work: {analyzed}");
        let m = service.metrics();
        assert_eq!(m.queries_ok, 1, "ANALYZE executes the query");
        assert_eq!(m.queries_traced, 1, "ANALYZE forces tracing");
        assert!(service.explain_text("g", "EXPLAIN R1(a,").is_err());
    }

    #[test]
    fn drop_database_forgets_it() {
        let q = paper_query(PaperQuery::Q1);
        let service = small_service();
        service.register_database("g", q.instantiate(&graph(60, 13)));
        assert_eq!(service.database_names(), vec!["g".to_string()]);
        // Everything the database owned goes with it: its plans (the
        // unbound shape and the prepared one), its shuffled indexes and its
        // cached per-binding results.
        service.execute("g", &q).unwrap();
        let (bound, _) = adj_query::parse_query("R1($v,b), R2(b,c), R3($v,c)").unwrap();
        let prepared = service.prepare("g", &bound).unwrap();
        let batch = [Bindings::new().set("v", 3u32)];
        service.execute_batch(&prepared, &batch, OutputMode::Count).unwrap();
        let resident = |s: &Service| {
            (s.cache_stats().len, s.result_cache_stats().len, s.index_cache_stats().len)
        };
        let (plans, results, indexes) = resident(&service);
        assert!(plans >= 2 && results >= 1 && indexes >= 1, "{:?}", resident(&service));

        assert!(service.drop_database("g"));
        assert_eq!(resident(&service), (0, 0, 0), "a dropped database left artifacts resident");
        assert!(!service.drop_database("g"));
        assert!(service.execute("g", &q).is_err());
    }

    #[test]
    fn mutate_then_query_matches_full_reregister() {
        let q = paper_query(PaperQuery::Q1);
        let g = graph(150, 41);
        let service = small_service();
        service.register_database("g", q.instantiate(&g));
        service.execute("g", &q).unwrap(); // warm plan + indexes

        // Grow a brand-new triangle 500-501-502: R1(a,b), R2(b,c), R3(a,c).
        let outcome = service
            .mutate("g", &MutationBatch::new("R1").insert(&[500, 501]).delete(&[0, 1]))
            .unwrap();
        assert_eq!(outcome.seq, 1);
        assert_eq!(outcome.inserted, 1);
        assert_eq!(outcome.deleted, 1);
        service.mutate("g", &MutationBatch::new("R2").insert(&[501, 502])).unwrap();
        service.mutate("g", &MutationBatch::new("R3").insert(&[500, 502])).unwrap();
        let mutated = service.execute("g", &q).unwrap();

        // Oracle: a fresh service over a database mutated the slow way.
        let mut db = q.instantiate(&g);
        db.insert_rows("R1", &[&[500, 501]]).unwrap();
        db.delete_rows("R1", &[&[0, 1]]).unwrap();
        db.insert_rows("R2", &[&[501, 502]]).unwrap();
        db.insert_rows("R3", &[&[500, 502]]).unwrap();
        let oracle = small_service();
        oracle.register_database("g", db);
        let expected = oracle.execute("g", &q).unwrap();

        let aligned = mutated.rows().permute(expected.rows().schema().attrs()).unwrap();
        assert_eq!(&aligned, expected.rows());
        assert!(
            mutated.rows().rows().any(|r| r.contains(&500) && r.contains(&501) && r.contains(&502)),
            "the inserted triangle must be visible"
        );
    }

    #[test]
    fn mutation_re_keys_only_the_mutated_relation() {
        let q = paper_query(PaperQuery::Q1);
        let service = small_service();
        service.register_database("g", q.instantiate(&graph(120, 31)));
        let path = "P(a,b,c) :- R1(a,b), R2(b,c)";
        service.execute("g", &q).unwrap();
        service.execute_text("g", path).unwrap();
        assert!(service.execute("g", &q).unwrap().cache_hit);
        assert!(service.execute_text("g", path).unwrap().cache_hit);

        service.mutate("g", &MutationBatch::new("R3").insert(&[900, 901])).unwrap();
        let triangle = service.execute("g", &q).unwrap();
        assert!(!triangle.cache_hit, "shapes reading R3 must re-plan on its new stats");
        let untouched = service.execute_text("g", path).unwrap();
        assert!(untouched.cache_hit, "shapes not reading R3 must keep their plan");
        assert!(service.execute("g", &q).unwrap().cache_hit, "the re-keyed plan is cached");
    }

    #[test]
    fn warm_index_entries_are_patched_not_dropped() {
        let q = paper_query(PaperQuery::Q1);
        let g = graph(150, 41);
        let service = small_service();
        service.register_database("g", q.instantiate(&g));
        let cold = service.execute("g", &q).unwrap();
        assert!(cold.report.index_relations_built > 0);

        let batch = MutationBatch::new("R1").insert(&[700, 701]).delete(&[0, 1]);
        let outcome = service.mutate("g", &batch).unwrap();
        assert!(outcome.entries_patched > 0, "warm entries must be patched forward");
        assert_eq!(outcome.entries_dropped, 0);
        assert!(!outcome.compacted);
        assert!(outcome.overlay_tuples > 0, "the overlay holds the delta runs");

        let warm = service.execute("g", &q).unwrap();
        assert_eq!(
            warm.report.index_relations_built, 0,
            "every index must be served warm after patching"
        );
        assert!(warm.report.index_relations_reused > 0);

        let mut db = q.instantiate(&g);
        db.insert_rows("R1", &[&[700, 701]]).unwrap();
        db.delete_rows("R1", &[&[0, 1]]).unwrap();
        let oracle = small_service();
        oracle.register_database("g", db);
        let expected = oracle.execute("g", &q).unwrap();
        let aligned = warm.rows().permute(expected.rows().schema().attrs()).unwrap();
        assert_eq!(&aligned, expected.rows());
    }

    #[test]
    fn size_triggered_compaction_is_invisible_to_warm_caches() {
        let q = paper_query(PaperQuery::Q1);
        let config = ServiceConfig {
            adj: AdjConfig { cluster: ClusterConfig::with_workers(2), ..pinned_adj() },
            // Any non-empty overlay immediately outgrows this budget.
            delta: crate::DeltaConfig { max_overlay_fraction: 0.0, min_overlay_tuples: 1 },
            ..Default::default()
        };
        let service = Service::new(config);
        service.register_database("g", q.instantiate(&graph(150, 41)));
        let cold = service.execute("g", &q).unwrap();

        let outcome = service.mutate("g", &MutationBatch::new("R1").insert(&[800, 801])).unwrap();
        assert!(outcome.compacted);
        assert_eq!(outcome.overlay_tuples, 0, "the fold leaves an empty overlay");
        assert!(outcome.entries_patched > 0, "patching happens before the fold");

        let warm = service.execute("g", &q).unwrap();
        assert!(!warm.cache_hit, "the mutated relation re-keys this shape");
        assert_eq!(warm.plan.order, cold.plan.order, "identical effective stats, same plan");
        assert_eq!(
            warm.report.index_relations_built, 0,
            "compaction keeps contents and sequence, so patched entries stay valid"
        );
        assert!(!warm.rows().is_empty());

        // A second mutation keeps working against the folded base.
        let again = service.mutate("g", &MutationBatch::new("R1").delete(&[800, 801])).unwrap();
        assert_eq!(again.seq, 2);
        assert_eq!(again.deleted, 1);
    }

    #[test]
    fn a_skewed_batch_patches_warm_tries() {
        let q = paper_query(PaperQuery::Q1);
        let g = graph(150, 41);
        let service = small_service();
        service.register_database("g", q.instantiate(&g));
        service.execute_mode("g", &q, OutputMode::Count).unwrap(); // warm entries exist

        // Pile a heavy hitter onto R1: node 7 jumps far past every other
        // node. The warm tries take the batch like any other.
        let rows: Vec<[Value; 2]> = (0..120u32).map(|i| [7, 1000 + i]).collect();
        let batch = rows.iter().fold(MutationBatch::new("R1"), |b, row| b.insert(row));
        let outcome = service.mutate("g", &batch).unwrap();
        assert!(outcome.entries_patched > 0, "skewed or not, warm entries are patched");
        assert_eq!(outcome.entries_dropped, 0);

        let warm = service.execute_mode("g", &q, OutputMode::Count).unwrap();
        assert_eq!(warm.report.index_relations_built, 0, "every index is served warm");
        let mut db = q.instantiate(&g);
        let refs: Vec<&[Value]> = rows.iter().map(|r| r.as_slice()).collect();
        db.insert_rows("R1", &refs).unwrap();
        let fresh = small_service();
        fresh.register_database("g", db);
        let expected = fresh.execute_mode("g", &q, OutputMode::Count).unwrap();
        assert_eq!(warm.output, expected.output);
    }

    #[test]
    fn empty_batches_and_bad_targets_are_handled() {
        let q = paper_query(PaperQuery::Q1);
        let service = small_service();
        service.register_database("g", q.instantiate(&graph(100, 23)));
        service.execute("g", &q).unwrap();
        assert!(service.execute("g", &q).unwrap().cache_hit);

        let noop = service.mutate("g", &MutationBatch::new("R1")).unwrap();
        assert_eq!((noop.seq, noop.inserted, noop.deleted), (0, 0, 0));
        assert!(service.execute("g", &q).unwrap().cache_hit, "no-op must not re-key plans");

        // Deleting a missing row is absorbed, not an error.
        let inert = service.mutate("g", &MutationBatch::new("R1").delete(&[999, 999])).unwrap();
        assert_eq!(inert.deleted, 0);

        assert!(matches!(
            service.mutate("nope", &MutationBatch::new("R1").insert(&[1, 2])),
            Err(ServiceError::UnknownDatabase(_))
        ));
        assert!(service.mutate("g", &MutationBatch::new("R9").insert(&[1, 2])).is_err());
        assert!(
            service.mutate("g", &MutationBatch::new("R1").insert(&[1, 2, 3])).is_err(),
            "arity mismatch must surface as an error"
        );
    }

    #[test]
    fn deadline_exceeded_is_typed_counted_and_overridable() {
        let q = paper_query(PaperQuery::Q1);
        let config = ServiceConfig {
            adj: AdjConfig { cluster: ClusterConfig::with_workers(2), ..pinned_adj() },
            default_deadline: Some(Duration::ZERO),
            ..Default::default()
        };
        let service = Service::new(config);
        service.register_database("g", q.instantiate(&graph(100, 23)));

        // The default deadline of zero has always already passed.
        let err = service.execute("g", &q).unwrap_err();
        assert!(
            matches!(err, ServiceError::DeadlineExceeded { deadline: Some(d) } if d == Duration::ZERO),
            "{err}"
        );
        assert!(!err.is_rejection(), "a deadline failure is not an admission rejection");

        // A generous per-query deadline overrides the hopeless default.
        let out = service
            .execute_mode_with_deadline("g", &q, OutputMode::Rows, Some(Duration::from_secs(60)))
            .unwrap();
        assert!(!out.rows().is_empty());

        let m = service.metrics();
        assert_eq!(m.queries_deadline_exceeded, 1);
        assert_eq!(m.queries_failed, 1);
        assert_eq!(m.queries_ok, 1);
        assert_eq!(m.queries_cancelled, 0, "deadline expiry is not explicit cancellation");
    }

    #[test]
    fn mutate_racing_register_and_drop_stays_consistent() {
        let q = paper_query(PaperQuery::Q1);
        let service = Arc::new(small_service());
        service.register_database("g", q.instantiate(&graph(100, 23)));

        // Churn the registration under concurrent mutators: the CoW swap is
        // ptr_eq-guarded, so a superseded batch must retry against the
        // current entry (or report UnknownDatabase after a drop) — never
        // publish into a replaced snapshot, never deadlock, never panic.
        std::thread::scope(|s| {
            let churn = {
                let service = Arc::clone(&service);
                let q = q.clone();
                s.spawn(move || {
                    for i in 0..30u32 {
                        if i % 7 == 6 {
                            service.drop_database("g");
                        }
                        service.register_database("g", q.instantiate(&graph(100, 23)));
                    }
                })
            };
            for t in 0..2u32 {
                let service = Arc::clone(&service);
                s.spawn(move || {
                    for i in 0..30u32 {
                        let row = 2000 + t * 100 + i;
                        let batch = MutationBatch::new("R1").insert(&[row, row + 1]);
                        match service.mutate("g", &batch) {
                            Ok(_) | Err(ServiceError::UnknownDatabase(_)) => {}
                            Err(e) => panic!("unexpected mutate error under churn: {e}"),
                        }
                    }
                });
            }
            churn.join().unwrap();
        });
        service.check_invariants().unwrap();

        // The service is fully functional afterwards: a fresh registration
        // mutates and serves, matching a from-scratch oracle.
        service.register_database("g", q.instantiate(&graph(100, 23)));
        service.mutate("g", &MutationBatch::new("R1").insert(&[500, 501])).unwrap();
        let served = service.execute("g", &q).unwrap();
        let mut db = q.instantiate(&graph(100, 23));
        db.insert_rows("R1", &[&[500, 501]]).unwrap();
        let oracle = small_service();
        oracle.register_database("g", db);
        let expected = oracle.execute("g", &q).unwrap();
        let aligned = served.rows().permute(expected.rows().schema().attrs()).unwrap();
        assert_eq!(&aligned, expected.rows());
    }

    #[test]
    fn mutation_panic_is_isolated_and_the_service_keeps_serving() {
        let q = paper_query(PaperQuery::Q1);
        let service = small_service();
        service.register_database("g", q.instantiate(&graph(150, 41)));
        let before = service.execute("g", &q).unwrap();

        let batch = MutationBatch::new("R1").insert(&[700, 701]);
        {
            let faults = adj_faults::install(
                adj_faults::FaultPlan::new().panic_at(FaultSite::MutationApply, 0),
            );
            let err = service.mutate("g", &batch).unwrap_err();
            assert!(matches!(err, ServiceError::WorkerPanicked { worker: None, .. }), "{err}");
            assert!(faults.all_fired(), "the panic arm must have fired");
        }

        // The old snapshot is still what queries see, and the mutation door
        // is un-wedged: the retry applies cleanly and serves the new state.
        let after_panic = service.execute("g", &q).unwrap();
        assert_eq!(after_panic.rows().len(), before.rows().len());
        let outcome = service.mutate("g", &batch).unwrap();
        assert_eq!(outcome.seq, 1);
        assert_eq!(outcome.inserted, 1);

        let m = service.metrics();
        assert_eq!(m.worker_panics_caught, 1);
        assert!(m.queries_failed >= 1);
    }

    #[test]
    fn mutation_cancel_injection_aborts_the_batch_cleanly() {
        let q = paper_query(PaperQuery::Q1);
        let service = small_service();
        service.register_database("g", q.instantiate(&graph(100, 23)));

        let batch = MutationBatch::new("R1").insert(&[600, 601]);
        {
            let _faults = adj_faults::install(
                adj_faults::FaultPlan::new().cancel_at(FaultSite::MutationApply, 0),
            );
            let err = service.mutate("g", &batch).unwrap_err();
            assert!(matches!(err, ServiceError::Cancelled), "{err}");
        }
        assert_eq!(service.metrics().queries_cancelled, 1);

        // Nothing was applied: the retry starts at sequence 1.
        let outcome = service.mutate("g", &batch).unwrap();
        assert_eq!(outcome.seq, 1);
    }

    #[test]
    fn index_entries_never_run_ahead_of_their_relation() {
        let q = paper_query(PaperQuery::Q1);
        let service = small_service();
        service.register_database("g", q.instantiate(&graph(150, 41)));
        let check = || service.check_invariants().unwrap();
        let serve = || {
            service.execute("g", &q).unwrap();
            check();
        };
        serve();
        for (i, relation) in ["R1", "R2", "R3", "R1", "R1", "R2"].into_iter().enumerate() {
            let v = 700 + 2 * i as Value;
            let batch = MutationBatch::new(relation).insert(&[v, v + 1]).delete(&[0, 1]);
            service.mutate("g", &batch).unwrap();
            check();
            serve();
        }
        // A cancelled and a panicking batch leave no entry patched ahead.
        let batch = MutationBatch::new("R1").insert(&[900, 901]);
        let plans = [
            adj_faults::FaultPlan::new().cancel_at(FaultSite::MutationApply, 0),
            adj_faults::FaultPlan::new().panic_at(FaultSite::MutationApply, 0),
        ];
        for plan in plans {
            let faults = adj_faults::install(plan);
            service.mutate("g", &batch).unwrap_err();
            assert!(faults.all_fired());
            drop(faults);
            check();
            serve();
        }

        // An entry stamped one sequence past its relation's fails the check.
        let store = service.index.store();
        let key = store.find(|k, _| k.relation == "R1").expect("a warm index of R1");
        let trie = store.get_if(&key, |t| Some(Arc::clone(t)));
        let forged = IndexKey { delta_seq: key.delta_seq + 1, ..key };
        store.insert(forged.clone(), trie.expect("resident"));
        let err = service.check_invariants().unwrap_err();
        assert!(err.contains("runs ahead of its relation"), "{err}");
        store.take(|k, _| *k == forged);
        check();
    }

    #[test]
    fn a_count_by_bags_patches_its_reordered_index() {
        // Q8's count reads R3(c,d) as `d → c` from an index entry of its
        // own: a mutation patches it like the others, so the count after
        // it builds nothing and still equals the rows.
        let q = paper_query(PaperQuery::Q8);
        let service = small_service();
        service.register_database("g", q.instantiate(&graph(150, 41)));
        let count = || service.execute_mode("g", &q, OutputMode::Count).unwrap();
        let cold = count();
        assert!(cold.plan.count_split().is_some());
        assert_eq!(cold.report.index_relations_built, 5, "four relations and R3 as d → c");
        for (i, relation) in ["R3", "R4", "R1"].into_iter().enumerate() {
            let v = 2 * i as Value;
            let batch = MutationBatch::new(relation).insert(&[v, v + 7]).delete(&[0, 1]);
            service.mutate("g", &batch).unwrap();
            let rows = service.execute("g", &q).unwrap().rows().len() as u64;
            let warm = count();
            assert_eq!(warm.output, QueryOutput::Count(rows), "after mutating {relation}");
            assert_eq!(warm.report.index_relations_built, 0, "after mutating {relation}");
            service.check_invariants().unwrap();
        }
    }

    #[test]
    fn result_entries_sit_under_their_own_keys() {
        let q = paper_query(PaperQuery::Q1);
        let service = small_service();
        service.register_database("g", q.instantiate(&graph(150, 41)));
        let (prepared, _) =
            service.prepare_text("g", "Q(b,c) :- R1($v,b), R2(b,c), R3($v,c)").unwrap();
        let bindings: Vec<Bindings> = (0..6).map(|v| Bindings::new().set("v", v % 4)).collect();
        for _ in 0..2 {
            service.execute_batch(&prepared, &bindings, OutputMode::Count).unwrap();
            service.check_invariants().unwrap();
        }
        assert!(service.results.stats().hits > 0, "the second batch read cached results");

        // An entry filed under a key other than its identity's fails it.
        let entry = Arc::clone(&read_recovering(&service.databases)["g"]);
        let reads = prepared.query().atoms.iter().map(|a| a.name.clone()).collect();
        let source = ResultSource { fingerprint: prepared.fingerprint, reads };
        let key = entry.plan_key_of(&source);
        let binding = BoundValues::new(vec![(Attr(0), 3)]).unwrap();
        let id = ResultId { plan_key: key, mode: OutputMode::Count, binding: &binding };
        let forged = Service::result_key(&id) ^ 1;
        let count = |n| {
            let (binding, output) = (binding.clone(), QueryOutput::Count(n));
            ResultEntry::new(key, OutputMode::Count, binding, source.clone(), entry.epoch, output)
        };
        service.results.insert(forged, count(1));
        let err = service.check_invariants().unwrap_err();
        assert!(err.contains("not its own key"), "{err}");
        service.results.take(|&k, _| k == forged);
        service.check_invariants().unwrap();
    }

    #[test]
    fn no_result_is_reachable_under_a_superseded_plan_key() {
        let q = paper_query(PaperQuery::Q1);
        let service = small_service();
        service.register_database("g", q.instantiate(&graph(150, 41)));
        let (prepared, _) =
            service.prepare_text("g", "Q(b,c) :- R1($v,b), R2(b,c), R3($v,c)").unwrap();
        let bindings: Vec<Bindings> = (0..6).map(|v| Bindings::new().set("v", v)).collect();
        let batch = || service.execute_batch(&prepared, &bindings, OutputMode::Count).unwrap();
        batch();
        assert!(service.results.stats().len > 0);
        service.check_invariants().unwrap();

        // A result filed under the key the shape had before R2 mutated —
        // what a batch over the old snapshot would publish — fails it.
        let entry = Arc::clone(&read_recovering(&service.databases)["g"]);
        let reads = prepared.query().atoms.iter().map(|a| a.name.clone()).collect();
        let source = ResultSource { fingerprint: prepared.fingerprint, reads };
        let versions = vec![("R2".to_string(), 7)];
        let (db, deltas) = (entry.db.clone(), HashMap::new());
        let later = DbEntry { db, tag: entry.tag, epoch: entry.epoch, deltas, versions };
        let binding = BoundValues::new(vec![(Attr(0), 3)]).unwrap();
        let id = ResultId {
            plan_key: later.plan_key_of(&source),
            mode: OutputMode::Count,
            binding: &binding,
        };
        let (epoch, binding) = (entry.epoch, id.binding.clone());
        let forged =
            ResultEntry::new(id.plan_key, id.mode, binding, source, epoch, QueryOutput::Count(1));
        service.results.insert(Service::result_key(&id), forged);
        let err = service.check_invariants().unwrap_err();
        assert!(err.contains("superseded plan key"), "{err}");
        service.results.take(|&k, _| k == Service::result_key(&id));
        service.check_invariants().unwrap();

        // A mutation supersedes the key of every shape reading the relation:
        // its results go, and the repair read and the next batch pass.
        let mutation = MutationBatch::new("R2").insert(&[1, 2]).delete(&[0, 1]);
        service.mutate("g", &mutation).unwrap();
        service.check_invariants().unwrap();
        batch();
        service.check_invariants().unwrap();
        assert!(service.results.stats().len > 0, "the repair batch cached its results");
    }

    thread_local! {
        /// Run by the batch door on its own thread, between its plan-key
        /// check and its result inserts.
        static BEFORE_RESULT_INSERTS: std::cell::RefCell<Option<Box<dyn FnMut()>>> =
            const { std::cell::RefCell::new(None) };
    }

    pub(super) fn before_result_inserts() {
        BEFORE_RESULT_INSERTS.with(|hook| hook.borrow_mut().as_mut().map_or((), |f| f()));
    }

    #[test]
    fn a_mutation_racing_a_batch_leaves_no_result_under_a_superseded_key() {
        let q = paper_query(PaperQuery::Q1);
        let service = small_service();
        service.register_database("g", q.instantiate(&graph(150, 41)));
        let (prepared, _) =
            service.prepare_text("g", "Q(b,c) :- R1($v,b), R2(b,c), R3($v,c)").unwrap();
        let bindings: Vec<Bindings> = (0..6).map(|v| Bindings::new().set("v", v)).collect();
        let mutation = MutationBatch::new("R2").insert(&[1, 2]).delete(&[0, 1]);
        let (go, started) = std::sync::mpsc::channel();
        let (landed, done) = std::sync::mpsc::channel();
        // Once the batch checked its plan key, a mutation of R2 starts, and
        // the batch gives it time to land before inserting: a mutation the
        // batch does not hold off lands in that window.
        let hook = move || {
            let _ = go.send(());
            let _ = done.recv_timeout(Duration::from_millis(200));
        };
        BEFORE_RESULT_INSERTS.with(|h| *h.borrow_mut() = Some(Box::new(hook)));
        std::thread::scope(|s| {
            let (service, mutation) = (&service, &mutation);
            s.spawn(move || {
                started.recv().unwrap();
                service.mutate("g", mutation).unwrap();
                let _ = landed.send(());
            });
            service.execute_batch(&prepared, &bindings, OutputMode::Count).unwrap();
            BEFORE_RESULT_INSERTS.with(|h| *h.borrow_mut() = None);
        });
        assert_eq!(service.stats().metrics.mutations_applied, 1);
        service.check_invariants().unwrap();
    }

    #[test]
    fn poisoned_locks_recover_instead_of_wedging_the_service() {
        let q = paper_query(PaperQuery::Q1);
        let service = small_service();
        service.register_database("g", q.instantiate(&graph(100, 23)));

        // Poison every internal lock the way a panicking holder would.
        let _ = catch_unwind(AssertUnwindSafe(|| {
            let _g = service.databases.write().unwrap();
            panic!("poison the registry");
        }));
        assert!(service.databases.is_poisoned());
        let _ = catch_unwind(AssertUnwindSafe(|| {
            let _g = service.slow_log.lock().unwrap();
            panic!("poison the slow log");
        }));
        let _ = catch_unwind(AssertUnwindSafe(|| {
            let _g = service.mutation_doors.lock().unwrap();
            panic!("poison the door map");
        }));

        // Every path recovers: lookups, queries, the slow log, mutations.
        assert_eq!(service.database_names(), vec!["g".to_string()]);
        assert!(!service.databases.is_poisoned(), "recovery must clear the poison");
        assert!(!service.execute("g", &q).unwrap().rows().is_empty());
        assert!(service.slow_queries().is_empty());
        service.mutate("g", &MutationBatch::new("R1").insert(&[300, 301])).unwrap();
        service.register_database("h", q.instantiate(&graph(50, 11)));
        assert!(service.drop_database("h"));
    }

    #[test]
    fn mutation_metrics_and_prometheus_rows_flow() {
        let q = paper_query(PaperQuery::Q1);
        let service = small_service();
        service.register_database("g", q.instantiate(&graph(150, 41)));
        service.execute("g", &q).unwrap();
        service.mutate("g", &MutationBatch::new("R1").insert(&[600, 601])).unwrap();

        let m = service.metrics();
        assert_eq!(m.mutations_applied, 1);
        assert!(m.index_entries_patched > 0);
        assert!(m.delta_overlay_tuples > 0);
        assert_eq!(m.compactions, 0);

        let text = m.to_prometheus_text();
        assert!(text.contains("mutations_applied_total"));
        assert!(text.contains("index_entries_patched_total"));
        assert!(text.contains("compactions_total"));
        assert!(text.contains("adj_delta_overlay_tuples"));
        let json = m.to_json();
        assert!(json.contains("\"mutations_applied\":1"));
        assert!(json.contains("\"delta_overlay_tuples\""));
    }

    #[test]
    fn batched_bindings_match_looped_bound_execution() {
        use adj_query::parse_query;
        let service = small_service();
        service.register_database("g", paper_query(PaperQuery::Q1).instantiate(&graph(150, 41)));
        let (q, _) = parse_query("Q(b,c) :- R1($v,b), R2(b,c), R3($v,c)").unwrap();
        let prepared = service.prepare("g", &q).unwrap();

        let vs = [0u32, 3, 7, 11, 40, 7, 3];
        let bindings: Vec<Bindings> = vs.iter().map(|&v| Bindings::new().set("v", v)).collect();
        let batch = service.execute_batch(&prepared, &bindings, OutputMode::Rows).unwrap();
        assert_eq!(batch.results.len(), vs.len());
        assert!(batch.unique_executed <= 5, "duplicate bindings must be deduplicated");

        // Oracle: the single-binding bound path, on a fresh identically
        // configured service so its result cache can't mask differences.
        let oracle = small_service();
        oracle.register_database("g", paper_query(PaperQuery::Q1).instantiate(&graph(150, 41)));
        let oracle_prepared = oracle.prepare("g", &q).unwrap();
        for (b, got) in bindings.iter().zip(&batch.results) {
            let want = oracle.execute_bound(&oracle_prepared, b, OutputMode::Rows).unwrap();
            assert_eq!(got.as_ref().unwrap(), &want.output);
        }

        let m = service.metrics();
        assert_eq!(m.batch_bindings_executed, vs.len() as u64);
    }

    #[test]
    fn repeated_batch_is_served_from_the_result_cache() {
        use adj_query::parse_query;
        let service = small_service();
        service.register_database("g", paper_query(PaperQuery::Q7).instantiate(&graph(120, 31)));
        let (q, _) = parse_query("Q(b,c) :- R1($v,b), R2(b,c)").unwrap();
        let prepared = service.prepare("g", &q).unwrap();
        let bindings: Vec<Bindings> =
            [1u32, 2, 3, 4].iter().map(|&v| Bindings::new().set("v", v)).collect();

        let cold = service.execute_batch(&prepared, &bindings, OutputMode::Count).unwrap();
        assert_eq!(cold.result_cache_hits, 0);
        assert_eq!(cold.unique_executed, 4);

        let warm = service.execute_batch(&prepared, &bindings, OutputMode::Count).unwrap();
        assert_eq!(warm.result_cache_hits, 4, "identical re-batch must be fully cached");
        assert_eq!(warm.unique_executed, 0);
        for (a, b) in cold.results.iter().zip(&warm.results) {
            assert_eq!(a.as_ref().unwrap(), b.as_ref().unwrap());
        }
        // A different mode is a different result: no cross-mode bleed.
        let rows = service.execute_batch(&prepared, &bindings, OutputMode::Rows).unwrap();
        assert_eq!(rows.result_cache_hits, 0, "mode is part of the result key");

        let stats = service.stats();
        assert_eq!(stats.results.hits, 4);
        assert!(stats.results.misses >= 8);
        assert_eq!(stats.metrics.result_cache_hits, 4);
        assert_eq!(stats.metrics.batch_bindings_executed, 12);
    }

    #[test]
    fn mutation_invalidates_cached_batch_results() {
        use adj_query::parse_query;
        let service = small_service();
        service.register_database("g", paper_query(PaperQuery::Q7).instantiate(&graph(120, 31)));
        let (q, _) = parse_query("Q(b,c) :- R1($v,b), R2(b,c)").unwrap();
        let prepared = service.prepare("g", &q).unwrap();
        let bindings = vec![Bindings::new().set("v", 1u32)];
        let before = service.execute_batch(&prepared, &bindings, OutputMode::Count).unwrap();

        // Insert a fresh two-hop chain out of vertex 1: the cached count
        // must not survive the mutation.
        service.mutate("g", &MutationBatch::new("R1").insert(&[1, 900])).unwrap();
        service.mutate("g", &MutationBatch::new("R2").insert(&[900, 901])).unwrap();
        let after = service.execute_batch(&prepared, &bindings, OutputMode::Count).unwrap();
        assert_eq!(after.result_cache_hits, 0, "stats-token change must orphan the entry");
        assert_ne!(before.results[0].as_ref().unwrap(), after.results[0].as_ref().unwrap());
    }

    #[test]
    fn empty_batch_and_bad_bindings_are_typed() {
        use adj_query::parse_query;
        let service = small_service();
        service.register_database("g", paper_query(PaperQuery::Q7).instantiate(&graph(60, 13)));
        let (q, _) = parse_query("Q(b,c) :- R1($v,b), R2(b,c)").unwrap();
        let prepared = service.prepare("g", &q).unwrap();

        let empty = service.execute_batch(&prepared, &[], OutputMode::Rows).unwrap();
        assert!(empty.results.is_empty());
        assert_eq!(empty.unique_executed, 0);

        let err = service
            .execute_batch(&prepared, &[Bindings::new().set("w", 1u32)], OutputMode::Rows)
            .unwrap_err();
        assert!(matches!(
            err,
            ServiceError::Exec(adj_relational::Error::UnboundParam { .. })
                | ServiceError::Exec(adj_relational::Error::UnknownParam { .. })
        ));
        // PreparedQuery::bind surfaces the same validation directly.
        assert!(prepared.bind(&Bindings::new().set("v", 1u32)).is_ok());
        assert!(prepared.bind(&Bindings::new()).is_err());
        assert!(prepared.bind(&Bindings::new().set("v", 1u32).set("w", 2u32)).is_err());
    }

    #[test]
    fn bind_resolves_params_and_literals() {
        let (q, _) = adj_query::parse_query("R1($v,b), R2(b,5)").unwrap();
        let edges: Vec<(Value, Value)> = (0..30).map(|i| (i % 7, (i * 3 + 1) % 7)).collect();
        let service = small_service();
        service
            .register_database("g", q.instantiate(&Relation::from_pairs(Attr(0), Attr(1), &edges)));
        let p = service.prepare("g", &q).unwrap();
        assert_eq!(p.params().len(), 1);
        let bound = p.bind(&Bindings::new().set("v", 3)).unwrap();
        assert_eq!(bound.len(), 2, "the $v value plus the literal 5");
        assert!(matches!(
            p.bind(&Bindings::new()),
            Err(adj_relational::Error::UnboundParam { .. })
        ));
        assert!(matches!(
            p.bind(&Bindings::new().set("v", 1).set("nope", 2)),
            Err(adj_relational::Error::UnknownParam { .. })
        ));
    }
}
