//! The three HCube shuffle implementations compared in Fig. 9.
//!
//! * **Push** — the original map/reduce formulation: every tuple copy is an
//!   individual message to each destination worker. Payload is the same as
//!   Pull's, but the per-message overhead is paid once *per delivered tuple
//!   copy*, which is what makes it orders of magnitude slower.
//! * **Pull** — the paper's optimized implementation (Sec. V): tuples are
//!   grouped into *blocks* keyed by their HCube hash signature, and each
//!   worker pulls whole blocks; per-message overhead is paid per block.
//! * **Merge** — Pull plus per-block pre-building: each block is stored
//!   pre-permuted into the Leapfrog attribute order and pre-sorted, so a
//!   worker assembles its local trie by a k-way *merge* of sorted runs
//!   instead of a full sort, and blocks serialize more cheaply (the paper's
//!   "three arrays" observation) — modeled as a 0.5× per-message overhead.
//!
//! All three produce byte-identical local tries; only their costs differ.
//!
//! [`hcube_shuffle`] is the cold six-argument form. The general entry,
//! [`hcube_shuffle_round`], takes the round's description ([`ShuffleRound`])
//! and the execution's [`ExecCtx`]: under an index scope, relations whose
//! `(identity, induced order, share, workers, db epoch)` key hits skip the
//! routing, transfer, and build phases entirely and reuse the published
//! per-worker `Arc<Trie>` handles; cold relations are shuffled and built
//! once, then published for every later query.

use crate::cache::{Artifact, ArtifactKey, IndexClaim, IndexLookup, IndexScope, RelationIndex};
use crate::plan::HCubePlan;
use adj_cluster::{BatchPayload, Cluster, Delivery, RoutedBatch};
use adj_faults::{CancelToken, FaultSite};
use adj_relational::{Attr, Database, Error, Relation, Result, Schema, Trie, Value};
use adj_trace::{Tracer, COORDINATOR_LANE};
use std::sync::Arc;
use std::time::Instant;

/// Which shuffle implementation to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HCubeImpl {
    /// Tuple-at-a-time shuffle (the original HCube implementation).
    Push,
    /// Block pull (optimized, Sec. V).
    Pull,
    /// Block pull with pre-built sorted blocks (optimized + trie pre-build).
    Merge,
}

impl HCubeImpl {
    /// All three implementations, for sweeps.
    pub const ALL: [HCubeImpl; 3] = [HCubeImpl::Push, HCubeImpl::Pull, HCubeImpl::Merge];

    /// Display name matching the paper's Fig. 9 legend.
    pub fn name(self) -> &'static str {
        match self {
            HCubeImpl::Push => "Push",
            HCubeImpl::Pull => "Pull",
            HCubeImpl::Merge => "Merge",
        }
    }
}

/// One relation as materialized on a worker after the shuffle: a trie in the
/// query's (induced) attribute order. The trie is an `Arc` handle — either
/// freshly built for this query or shared with the cross-query index cache.
#[derive(Debug, Clone)]
pub struct LocalRelation {
    /// The atom / relation name.
    pub name: String,
    /// Local fragment, indexed as a trie.
    pub trie: Arc<Trie>,
}

/// Cost breakdown of one shuffle.
#[derive(Debug, Clone, Default)]
pub struct ShuffleReport {
    /// Delivered tuple copies (`Σ_R |R|·dup(R,p)` realized; cache hits move
    /// nothing and contribute nothing here).
    pub tuples: u64,
    /// Delivered tuple copies per worker — the partition-fill vector the
    /// skew stats (max/mean fill) are computed from. Empty on a fully warm
    /// shuffle (nothing moved).
    pub worker_tuples: Vec<u64>,
    /// Transfer units (tuple copies for Push; blocks for Pull/Merge).
    pub messages: u64,
    /// Encoded frame bytes that crossed the wire — real serialized bytes on
    /// the [`TransportKind::Serialized`](adj_cluster::TransportKind)
    /// backend, 0 on the zero-copy in-process backend and on warm shuffles.
    pub wire_bytes: u64,
    /// Modeled communication seconds (α model + per-message overhead).
    pub comm_secs: f64,
    /// Modeled seconds saved by pipelining delivery with trie building
    /// (per-relation completion markers let receivers build relation `i`
    /// while relations `i+1..` are still in flight). 0 when everything was
    /// warm. Subtract from `comm_secs + build_secs` for the pipelined
    /// schedule's span.
    pub overlap_secs: f64,
    /// Measured makespan of the local build phase (sort + trie build, or
    /// merge + trie build for Merge) over the *cold* relations; 0 when
    /// every relation was served from the index cache.
    pub build_secs: f64,
    /// Measured seconds spent pre-building blocks (Merge only; happens once
    /// per stored relation, before query time).
    pub preprocess_secs: f64,
    /// Relations whose indexes were built by this shuffle.
    pub built_relations: u64,
    /// Relations served from the index cache (no shuffle, no build).
    pub reused_relations: u64,
    /// Tuple copies that cache hits avoided moving.
    pub tuples_saved: u64,
}

impl ShuffleReport {
    /// The pipelined schedule's span: modeled comm + measured build, minus
    /// the modeled delivery/build overlap (clamped — overlap can't exceed
    /// the phases it hides behind).
    pub fn pipelined_secs(&self) -> f64 {
        (self.comm_secs + self.build_secs - self.overlap_secs).max(0.0)
    }
}

/// The result of [`hcube_shuffle`]: per-worker local databases plus the
/// cost report.
#[derive(Debug)]
pub struct ShuffleOutput {
    /// `locals[w]` is worker `w`'s relations, in atom order.
    pub locals: Vec<Vec<LocalRelation>>,
    /// Cost breakdown.
    pub report: ShuffleReport,
}

/// The result of [`hcube_shuffle_round`]: every relation's per-worker
/// tries, as the index cache holds them, plus the cost report.
#[derive(Debug)]
pub struct RoundOutput {
    /// `relations[ai]` holds relation `ai`'s tries, one per worker: the
    /// cache's entry for a warm relation, the fresh build for a cold one.
    pub relations: Vec<Arc<RelationIndex>>,
    /// Cost breakdown.
    pub report: ShuffleReport,
}

impl RoundOutput {
    /// Worker `w`'s tries, one per relation, in round order.
    pub fn worker_tries(&self, w: usize) -> impl Iterator<Item = &Arc<Trie>> {
        self.relations.iter().map(move |r| &r.tries[w])
    }

    /// The per-worker view of [`hcube_shuffle`], each relation named as in
    /// `layout`.
    pub fn into_locals(self, layout: &RoundLayout) -> ShuffleOutput {
        let workers = self.relations.first().map_or(0, |r| r.tries.len());
        let locals = (0..workers)
            .map(|w| {
                let named = layout.atoms.iter().zip(&self.relations);
                named
                    .map(|(atom, r)| LocalRelation {
                        name: atom.name.clone(),
                        trie: Arc::clone(&r.tries[w]),
                    })
                    .collect()
            })
            .collect();
        ShuffleOutput { locals, report: self.report }
    }
}

/// One relation of a round, as the round reads it.
#[derive(Debug, Clone)]
struct RoundAtom {
    /// The name it resolves under (overlay first, then the database).
    name: String,
    /// Its cache identity; `None` bypasses the cache.
    cache_id: Option<String>,
    /// Its schema in the order's induced attribute order.
    induced: Schema,
    /// Induced column → stored column.
    perm: Vec<usize>,
}

/// What a shuffle round knows about its relations before it moves anything:
/// per relation, its name and cache identity, its order-induced schema and
/// column permutation, and — under an index scope — its index-cache key.
///
/// None of it depends on a call: a layout is a function of the relations'
/// schemas, the order, the share grid and the scope's database state. So
/// it is built once and kept (the executor keeps one per plan round), and a
/// fully warm round resolves every relation by looking its prebuilt key up
/// in the cache — the lookup still counts, evicts and coalesces as any
/// other, and the layout pins no cache entry. [`RoundLayout::same_relations`]
/// and [`RoundLayout::stamped_for`] say whether a kept layout still
/// describes a round.
#[derive(Debug, Clone)]
pub struct RoundLayout {
    atoms: Vec<RoundAtom>,
    /// `(atom, key)` for every atom with a cache identity, in key order —
    /// the order a round takes build claims in. Empty without a scope.
    keys: Vec<(usize, ArtifactKey)>,
    /// Whether the keys were stamped under a scope.
    scoped: bool,
    /// The relation names, comma-separated: the `shuffle` span's detail.
    names: String,
}

impl RoundLayout {
    /// The layout of a round moving `atom_names` (each resolved in
    /// `overlay`, then `db`) into tries in the orders `order` induces,
    /// routed by `plan`. `cache_ids[ai]` is the cache identity of
    /// `atom_names[ai]` — its name for a base relation, a content label for
    /// a pre-computed bag, or `None` (as is every atom past the slice's end)
    /// to bypass the cache. Under `scope`, every identified atom gets its
    /// index key, stamped with the scope's database, epoch and the
    /// relation's delta sequence.
    pub fn new(
        db: &Database,
        overlay: &[(String, Arc<Relation>)],
        atom_names: &[String],
        cache_ids: &[Option<String>],
        order: &[Attr],
        plan: &HCubePlan,
        scope: Option<&IndexScope<'_>>,
    ) -> Result<Self> {
        let mut atoms = Vec::with_capacity(atom_names.len());
        for (ai, name) in atom_names.iter().enumerate() {
            let schema = resolve(db, overlay, name)?.schema();
            let induced_attrs: Vec<Attr> =
                order.iter().copied().filter(|a| schema.contains(*a)).collect();
            if induced_attrs.len() != schema.arity() {
                return Err(Error::SchemaMismatch {
                    left: schema.to_string(),
                    right: format!("order {order:?}"),
                });
            }
            let position = |a| schema.position(a).expect("an induced attribute is the schema's");
            let perm = induced_attrs.iter().map(|&a| position(a)).collect();
            atoms.push(RoundAtom {
                name: name.clone(),
                cache_id: cache_ids.get(ai).cloned().flatten(),
                induced: Schema::new(induced_attrs)?,
                perm,
            });
        }
        let mut keys: Vec<(usize, ArtifactKey)> = match scope {
            Some(scope) => (atoms.iter().enumerate())
                .filter_map(|(ai, atom)| {
                    let id = atom.cache_id.clone()?;
                    let attrs = atom.induced.attrs().to_vec();
                    let key = scope.index_key(id, attrs, plan.share(), plan.num_workers());
                    Some((ai, ArtifactKey::Index(key)))
                })
                .collect(),
            None => Vec::new(),
        };
        keys.sort_by(|a, b| a.1.cmp(&b.1));
        let names = atom_names.join(",");
        Ok(RoundLayout { atoms, keys, scoped: scope.is_some(), names })
    }

    /// Each relation's `(name, cache identity)`, in round order.
    pub fn relations(&self) -> impl ExactSizeIterator<Item = (&str, Option<&str>)> {
        self.atoms.iter().map(|a| (a.name.as_str(), a.cache_id.as_deref()))
    }

    /// Whether this layout is over `atoms` — each relation's `(name, cache
    /// identity)`, in round order. Allocates nothing.
    pub fn same_relations<'s>(
        &self,
        atoms: impl ExactSizeIterator<Item = (&'s str, Option<&'s str>)>,
    ) -> bool {
        atoms.len() == self.atoms.len()
            && self.relations().zip(atoms).all(|(mine, theirs)| mine == theirs)
    }

    /// Whether the keys were stamped for `scope` — its database, epoch and
    /// every keyed relation's current delta sequence — or, for no scope,
    /// the layout has no keys. Allocates nothing.
    pub fn stamped_for(&self, scope: Option<&IndexScope<'_>>) -> bool {
        match scope {
            None => !self.scoped,
            Some(scope) => {
                self.scoped
                    && self.keys.iter().all(|(_, key)| match key {
                        ArtifactKey::Index(k) => {
                            k.db_tag == scope.db_tag
                                && k.epoch == scope.epoch
                                && k.delta_seq == scope.delta_seq_for(&k.relation)
                        }
                        ArtifactKey::Bag(_) => false,
                    })
            }
        }
    }

    /// Each relation's order-induced schema, in round order.
    pub fn induced_schemas(&self) -> impl ExactSizeIterator<Item = &Schema> {
        self.atoms.iter().map(|a| &a.induced)
    }
}

/// What one execution carries through every layer below the front door:
/// the index-cache scope it may consult and publish under, its cancellation
/// token and its tracer. Both handles are `Option<Arc<_>>` inside, so
/// [`ExecCtx::default`] — the cold, uncancellable, untraced execution —
/// allocates nothing and every poll or span on it is one branch.
#[derive(Debug, Clone, Default)]
pub struct ExecCtx<'a> {
    /// The cross-query index cache to consult; `None` runs fully cold.
    pub index: Option<&'a IndexScope<'a>>,
    /// Polled at every cancellation checkpoint of the execution.
    pub cancel: CancelToken,
    /// Receives the execution's span timeline.
    pub tracer: Tracer,
}

/// One shuffle round: which relations move, under which share grid, into
/// which trie order.
#[derive(Debug, Clone, Copy)]
pub struct ShuffleRound<'a> {
    /// The relations to shuffle, their induced orders and cache keys; each
    /// must resolve in `overlay` or the database.
    pub layout: &'a RoundLayout,
    /// The share grid and cube→worker map the layout was keyed under.
    pub plan: &'a HCubePlan,
    /// Which of the three implementations moves the tuples.
    pub impl_: HCubeImpl,
    /// Per-query relations (pre-computed bags) resolved before the
    /// database, so the shared database is never cloned per query.
    pub overlay: &'a [(String, Arc<Relation>)],
    /// The caller took `plan`'s share vector from a memo instead of solving
    /// the share program for this round; recorded as an arg of the
    /// `shuffle` span (a solve shows as the caller's own `share_solve` span
    /// instead).
    pub share_reused: bool,
}

/// Runs the HCube shuffle for the relations named in `atom_names` (each must
/// exist in `db`), under `plan`, preparing tries in the induced order of
/// `order`. Never consults an index cache and is neither cancellable nor
/// traced — see [`hcube_shuffle_round`].
pub fn hcube_shuffle(
    cluster: &Cluster,
    db: &Database,
    atom_names: &[String],
    plan: &HCubePlan,
    order: &[Attr],
    impl_: HCubeImpl,
) -> Result<ShuffleOutput> {
    let layout = RoundLayout::new(db, &[], atom_names, &[], order, plan, None)?;
    let round = ShuffleRound { layout: &layout, plan, impl_, overlay: &[], share_reused: false };
    Ok(hcube_shuffle_round(cluster, db, &round, &ExecCtx::default())?.into_locals(&layout))
}

/// Resolves a relation by name against the overlay first, then the base
/// database — so callers can layer per-query temporaries (pre-computed
/// bags) over an immutable shared database without cloning it.
fn resolve<'a>(
    db: &'a Database,
    overlay: &'a [(String, Arc<Relation>)],
    name: &str,
) -> Result<&'a Relation> {
    if let Some((_, rel)) = overlay.iter().find(|(n, _)| n == name) {
        return Ok(rel);
    }
    db.get(name)
}

/// How often the routing loops poll the [`CancelToken`]: one relaxed atomic
/// load (plus the fault-injection gate) every this many routed rows, so the
/// cancellation latency is bounded without a measurable per-row cost.
const CANCEL_CHECK_EVERY: u64 = 4096;

/// Fault-injection checkpoint + cooperative cancellation poll, mapped onto
/// the workspace error type.
#[inline]
fn checkpoint(site: FaultSite, cancel: &CancelToken) -> Result<()> {
    adj_faults::inject(site, cancel);
    cancel.check().map_err(|c| Error::Cancelled { deadline_exceeded: c.deadline })
}

/// The general shuffle: `round` under `ctx`'s index scope, cancellation
/// token and tracer.
///
/// Without an index scope everything runs cold, exactly as
/// [`hcube_shuffle`]. The shuffle knows nothing about bindings: a prepared
/// query's bound constants reach only the join (Leapfrog seeks them), so
/// every binding, every batch and the plain unbound query of one shape
/// consult — and publish — the same entries.
///
/// The token is polled every `CANCEL_CHECK_EVERY` (4096) routed rows and
/// once per atom / build phase; a fired token aborts the shuffle with
/// [`Error::Cancelled`] **before** anything is published to the index cache,
/// so a cancelled query never leaves partial artifacts behind. A panicking
/// build worker is likewise isolated ([`adj_cluster::WorkerFailure`]) and
/// surfaces as [`Error::WorkerPanicked`] with nothing published.
///
/// The span timeline: one `shuffle` span on the coordinator lane (with
/// tuple/message/reuse totals; its detail names the relations), an
/// `index_cache_miss` / `index_cache_coalesced` instant per consulted
/// [`IndexKey`](crate::IndexKey) that missed or waited for another build
/// (the keys that plainly hit are the span's `reused_relations`, so a warm
/// round records no per-key event), a `route` span over the route-inbox
/// pass, and a `build` span per worker lane over the cold relations' sort +
/// trie builds.
pub fn hcube_shuffle_round(
    cluster: &Cluster,
    db: &Database,
    round: &ShuffleRound<'_>,
    ctx: &ExecCtx<'_>,
) -> Result<RoundOutput> {
    let ShuffleRound { layout, plan, impl_, overlay, share_reused } = *round;
    let (cache, cancel, tracer) = (ctx.index, &ctx.cancel, &ctx.tracer);
    let mut shuffle_span = tracer.span(COORDINATOR_LANE, "shuffle");
    let n = cluster.num_workers();
    assert_eq!(n, plan.num_workers(), "plan sized for a different cluster");
    assert!(layout.stamped_for(cache), "round layout keyed for another index scope");
    // Routing and block grouping run entirely in each relation's induced
    // layout — the stored schema only derived the permutation.
    let infos = &layout.atoms;

    // Consult the cache: resolved atoms skip routing, transfer, and build.
    // Cold atoms come back with an [`IndexClaim`] — usually registering
    // this shuffle as the key's one in-flight builder, so a concurrent
    // query that misses the same key blocks on this build instead of
    // shuffling the relation again (request coalescing); the claims are
    // published at assembly or abandoned by drop on any error path. Claims
    // are acquired in *sorted key order* so two shuffles contending on
    // overlapping atom sets can never hold-and-wait in a cycle.
    let mut resolved: Vec<Option<Arc<RelationIndex>>> = vec![None; infos.len()];
    let mut claims: Vec<Option<IndexClaim<'_>>> = Vec::new();
    let mut tuples_saved: u64 = 0;
    if let Some(scope) = cache {
        let keyed = &layout.keys;
        for i in 0..keyed.len() {
            let (ai, ref key) = keyed[i];
            let ArtifactKey::Index(index_key) = key else { unreachable!("rounds key indexes") };
            let id = index_key.relation.as_str();
            // A self-join can put the same relation under the same induced
            // order twice; waiting on our own claim would deadlock, so the
            // duplicate reuses the first atom's outcome (a cold duplicate
            // builds redundantly, and the first atom's claim publishes).
            if i > 0 && keyed[i - 1].1 == *key {
                let prev = resolved[keyed[i - 1].0].clone();
                if let Some(entry) = &prev {
                    tuples_saved += entry.tuples;
                }
                resolved[ai] = prev;
                continue;
            }
            match scope.cache.lookup(key, cancel) {
                IndexLookup::Hit { value: Artifact::Index(value), coalesced } => {
                    if coalesced {
                        tracer.instant(COORDINATOR_LANE, "index_cache_coalesced", id);
                    }
                    tuples_saved += value.tuples;
                    resolved[ai] = Some(value);
                }
                IndexLookup::Hit { .. } => unreachable!("an index key holds an index"),
                IndexLookup::Miss(claim) => {
                    tracer.instant(COORDINATOR_LANE, "index_cache_miss", id);
                    if claims.is_empty() {
                        claims.resize_with(infos.len(), || None);
                    }
                    claims[ai] = Some(claim);
                }
            }
        }
    }
    let any_cold = resolved.iter().any(|r| r.is_none());
    let n_atoms = infos.len();

    // What the routing pass produced (the coordinator side of the round).
    struct RouteOutcome {
        tuples: u64,
        messages: u64,
        worker_tuples: Vec<u64>,
        rel_tuples: Vec<u64>,
        rel_messages: Vec<u64>,
        preprocess_secs: f64,
    }
    // What one worker built (the receiver side of the round).
    struct WorkerBuild {
        tries: Vec<Option<Arc<Trie>>>,
        rel_build_secs: Vec<f64>,
        active_secs: f64,
        recv_tuples: u64,
    }

    // Routing, delivery, and the per-worker builds, pipelined through the
    // cluster's transport: the coordinator routes each cold relation and
    // broadcasts a relation-done marker when its last batch is sent, so
    // receivers start that relation's trie build while later relations are
    // still in flight. On a fully warm shuffle nothing below runs — the
    // round is never opened, so the transport records 0 rounds, 0 messages,
    // and 0 bytes (the warm-path contract, asserted by the oracle tests).
    let memory_limit = cluster.config().memory_limit_bytes;
    let (mut built, outcome, build_secs, bytes_moved, wire_bytes, overlap_secs) = if any_cold {
        let induced_schemas: Vec<Schema> = infos.iter().map(|i| i.induced.clone()).collect();
        let round = cluster.open_round(induced_schemas.clone());
        let cold: Vec<bool> = resolved.iter().map(|r| r.is_none()).collect();
        let round_ref = &round;
        let infos_ref = infos;
        let cold_ref = &cold;
        let schemas_ref = &induced_schemas;

        let coordinator = || -> Result<RouteOutcome> {
            let mut route_span = tracer.span(COORDINATOR_LANE, "route");
            let t_pre = Instant::now();
            let mut tuples: u64 = 0;
            let mut messages: u64 = 0;
            // Delivered copies per worker: the partition-fill vector the
            // skew stats read.
            let mut worker_tuples: Vec<u64> = vec![0; n];
            // Per-atom shares of the totals, for per-relation cache entries.
            let mut rel_tuples: Vec<u64> = vec![0; n_atoms];
            let mut rel_messages: Vec<u64> = vec![0; n_atoms];
            // Payload bytes parked at each worker so far, for the memory
            // budget (cached relations are charged to the index cache's own
            // byte budget, not the inbox). Modeled payload bytes on both
            // backends so the budget doesn't shift with framing overhead.
            let mut worker_bytes: Vec<u64> = vec![0; n];
            // Rows of Merge blocks that arrived out of order and were sorted
            // here (a block routed in its stored order needs no sort).
            let mut rows_sorted: u64 = 0;
            let mut rows_since_check: u64 = 0;
            for (ai, info) in infos_ref.iter().enumerate() {
                if !cold_ref[ai] {
                    continue; // served from the cache — nothing moves
                }
                // At least one cancellation checkpoint per cold atom, then
                // one per CANCEL_CHECK_EVERY scanned rows inside the
                // routing loops, plus one per sent batch.
                checkpoint(FaultSite::ShuffleRoute, cancel)?;
                let rel = resolve(db, overlay, &info.name)?;
                // Both paths route by the per-attribute hash coordinates of
                // the induced (permuted) row.
                let mut prow: Vec<Value> = Vec::with_capacity(info.perm.len());
                let mut coords: Vec<u32> = Vec::with_capacity(info.perm.len());
                match impl_ {
                    HCubeImpl::Push => {
                        // Per-delivery message accounting is preserved, but
                        // tuples travel in flushed batches so the transport
                        // isn't hit once per copy.
                        const PUSH_BATCH_TUPLES: u64 = 2048;
                        let mut pending: Vec<Vec<Value>> = (0..n).map(|_| Vec::new()).collect();
                        let mut pending_cnt: Vec<u64> = vec![0; n];
                        for row in rel.rows() {
                            rows_since_check += 1;
                            if rows_since_check >= CANCEL_CHECK_EVERY {
                                rows_since_check = 0;
                                checkpoint(FaultSite::ShuffleRoute, cancel)?;
                            }
                            prow.clear();
                            prow.extend(info.perm.iter().map(|&p| row[p]));
                            plan.tuple_coords(&info.induced, &prow, &mut coords);
                            let dests = plan.block_workers(&info.induced, &coords);
                            for &w in &dests {
                                pending[w].extend_from_slice(&prow);
                                pending_cnt[w] += 1;
                                worker_tuples[w] += 1;
                                rel_tuples[ai] += 1;
                                rel_messages[ai] += 1; // one message per copy
                                if pending_cnt[w] >= PUSH_BATCH_TUPLES {
                                    checkpoint(FaultSite::TransportSend, cancel)?;
                                    let data = std::mem::take(&mut pending[w]);
                                    worker_bytes[w] += data.len() as u64 * 4;
                                    round_ref.send(
                                        w,
                                        RoutedBatch {
                                            relation: ai,
                                            tuples: pending_cnt[w],
                                            messages: pending_cnt[w],
                                            payload: BatchPayload::Rows(data),
                                        },
                                    );
                                    pending_cnt[w] = 0;
                                }
                            }
                        }
                        for w in 0..n {
                            if pending_cnt[w] > 0 {
                                checkpoint(FaultSite::TransportSend, cancel)?;
                                let data = std::mem::take(&mut pending[w]);
                                worker_bytes[w] += data.len() as u64 * 4;
                                round_ref.send(
                                    w,
                                    RoutedBatch {
                                        relation: ai,
                                        tuples: pending_cnt[w],
                                        messages: pending_cnt[w],
                                        payload: BatchPayload::Rows(data),
                                    },
                                );
                                pending_cnt[w] = 0;
                            }
                        }
                    }
                    HCubeImpl::Pull | HCubeImpl::Merge => {
                        // Group into blocks by coordinate signature, indexed
                        // by block id (at most Π shares, which the share
                        // program caps at max(8·workers, 64)) and sent in id
                        // order. Blocks are stored in the *induced*
                        // (permuted) layout so that the block-id decode
                        // below matches the encode.
                        let num_blocks = plan.num_blocks(&info.induced) as usize;
                        let mut blocks: Vec<Vec<Value>> = vec![Vec::new(); num_blocks];
                        for row in rel.rows() {
                            rows_since_check += 1;
                            if rows_since_check >= CANCEL_CHECK_EVERY {
                                rows_since_check = 0;
                                checkpoint(FaultSite::ShuffleRoute, cancel)?;
                            }
                            prow.clear();
                            prow.extend(info.perm.iter().map(|&p| row[p]));
                            plan.tuple_coords(&info.induced, &prow, &mut coords);
                            let id = plan.encode_block(&info.induced, &coords);
                            blocks[id as usize].extend_from_slice(&prow);
                        }
                        for (id, data) in blocks.into_iter().enumerate() {
                            if data.is_empty() {
                                continue;
                            }
                            let block_tuples = (data.len() / info.perm.len().max(1)) as u64;
                            let block_coords = plan.block_hashes(&info.induced, id as u64);
                            let dests = plan.block_workers(&info.induced, &block_coords);
                            // Merge pre-builds the block once (sorted,
                            // induced layout; counted as preprocessing
                            // below) and every destination shares it.
                            let payload = if impl_ == HCubeImpl::Merge {
                                let (block, sorted) =
                                    Relation::from_flat_reporting(info.induced.clone(), data)
                                        .expect("arity preserved");
                                if sorted {
                                    rows_sorted += block_tuples;
                                }
                                BatchPayload::SortedBlock(Arc::new(block))
                            } else {
                                BatchPayload::Rows(data)
                            };
                            let payload_bytes = block_tuples * info.perm.len() as u64 * 4;
                            for &w in &dests {
                                checkpoint(FaultSite::TransportSend, cancel)?;
                                worker_bytes[w] += payload_bytes;
                                let batch = RoutedBatch {
                                    relation: ai,
                                    tuples: block_tuples,
                                    messages: 1, // one per block delivery
                                    payload: payload.clone(),
                                };
                                round_ref.send(w, batch);
                                worker_tuples[w] += block_tuples;
                                rel_tuples[ai] += block_tuples;
                                rel_messages[ai] += 1;
                            }
                        }
                    }
                }
                // The relation's last batch is out: let receivers build it.
                round_ref.finish_relation(ai);
                if let Some(limit) = memory_limit {
                    if worker_bytes.iter().any(|&b| b as usize > limit) {
                        return Err(Error::BudgetExceeded { what: "worker memory", limit });
                    }
                }
                tuples += rel_tuples[ai];
                messages += rel_messages[ai];
            }
            let preprocess_secs =
                if impl_ == HCubeImpl::Merge { t_pre.elapsed().as_secs_f64() } else { 0.0 };
            route_span.arg("tuples", tuples);
            route_span.arg("messages", messages);
            route_span.arg("rows_sorted", rows_sorted);
            route_span.arg("frames", round_ref.frames_sent());
            drop(route_span);
            Ok(RouteOutcome {
                tuples,
                messages,
                worker_tuples,
                rel_tuples,
                rel_messages,
                preprocess_secs,
            })
        };

        let worker = |w: usize, span: &mut adj_trace::SpanGuard<'_>| -> Result<WorkerBuild> {
            adj_faults::inject(FaultSite::TrieBuild, cancel);
            let mut raw: Vec<Vec<Value>> = (0..n_atoms).map(|_| Vec::new()).collect();
            let mut blocks: Vec<Vec<Arc<Relation>>> = (0..n_atoms).map(|_| Vec::new()).collect();
            let mut tries: Vec<Option<Arc<Trie>>> = vec![None; n_atoms];
            let mut rel_build_secs = vec![0.0f64; n_atoms];
            let mut active_secs = 0.0f64;
            let mut recv_tuples = 0u64;
            let mut batches = 0u64;
            while let Some(delivery) = round_ref.recv(w)? {
                // Time only the handling, not the wait for the coordinator:
                // `active_secs` is this worker's computation share.
                let t0 = Instant::now();
                match delivery {
                    Delivery::Batch(batch) => {
                        checkpoint(FaultSite::TransportRecv, cancel)?;
                        recv_tuples += batch.tuples;
                        batches += 1;
                        match batch.payload {
                            BatchPayload::Rows(v) => raw[batch.relation].extend_from_slice(&v),
                            BatchPayload::SortedBlock(b) => blocks[batch.relation].push(b),
                        }
                    }
                    Delivery::RelationDone(ai) => {
                        // The relation's last batch landed — build its trie
                        // now, overlapping with delivery of later relations.
                        let trie = match blocks[ai].as_slice() {
                            [] => {
                                // sort + dedup + trie build
                                let rel = Relation::from_flat(
                                    schemas_ref[ai].clone(),
                                    std::mem::take(&mut raw[ai]),
                                )
                                .expect("arity preserved");
                                Trie::build(&rel)
                            }
                            // One pre-sorted block is the fragment already.
                            [only] => Trie::build(only),
                            many => {
                                // k-way merge of pre-sorted blocks + linear build
                                let refs: Vec<&Relation> =
                                    many.iter().map(|b| b.as_ref()).collect();
                                let rel = Relation::merge_sorted(&refs).expect("same schema");
                                Trie::build(&rel)
                            }
                        };
                        blocks[ai].clear();
                        tries[ai] = Some(Arc::new(trie));
                        rel_build_secs[ai] = t0.elapsed().as_secs_f64();
                    }
                }
                active_secs += t0.elapsed().as_secs_f64();
            }
            span.arg("inbox_tuples", recv_tuples);
            span.arg("batches", batches);
            Ok(WorkerBuild { tries, rel_build_secs, active_secs, recv_tuples })
        };

        let (coord_out, run) = cluster.run_pipelined(tracer, "build", &round, coordinator, worker);
        // Coordinator errors (cancellation mid-route, budget breach) are
        // surfaced first — they were the cause; worker-side errors are
        // downstream of the round ending early.
        let route_outcome = coord_out?;
        // A panicking build worker fails the whole query *here*, before any
        // trie is published to the index cache — siblings finished normally
        // (their results are simply dropped) and the next query rebuilds
        // from scratch against an uncorrupted cache.
        let results = run.into_results().map_err(Error::from)?;
        let mut builds: Vec<WorkerBuild> = Vec::with_capacity(results.len());
        for r in results {
            builds.push(r?);
        }
        let build_secs = builds.iter().map(|b| b.active_secs).fold(0.0, f64::max);
        debug_assert_eq!(
            builds.iter().map(|b| b.recv_tuples).sum::<u64>(),
            route_outcome.tuples,
            "every routed copy is delivered"
        );

        // Modeled pipelining overlap: with per-relation completion markers,
        // relation i's build (measured, max over workers) overlaps the
        // delivery of relations i+1.. (α-modeled, the repo's communication
        // currency). `barrier` is the serialized schedule, `done` the
        // 2-stage pipeline's finish time; their gap is the overlap win.
        let model = cluster.cost_model();
        let msg_overhead = match impl_ {
            HCubeImpl::Merge => 0.5,
            _ => 1.0,
        };
        let mut barrier = 0.0f64;
        let mut route_acc = 0.0f64;
        let mut done = 0.0f64;
        for (ai, &is_cold) in cold.iter().enumerate() {
            if !is_cold {
                continue;
            }
            let c_i = model.comm_secs(route_outcome.rel_tuples[ai])
                + route_outcome.rel_messages[ai] as f64 * model.per_message_secs * msg_overhead;
            let b_i = builds.iter().map(|b| b.rel_build_secs[ai]).fold(0.0, f64::max);
            route_acc += c_i;
            done = done.max(route_acc) + b_i;
            barrier += c_i + b_i;
        }
        let overlap_secs = (barrier - done).max(0.0);

        let built: Vec<Vec<Option<Arc<Trie>>>> = builds.into_iter().map(|b| b.tries).collect();
        (built, route_outcome, build_secs, round.bytes_sent(), round.wire_bytes(), overlap_secs)
    } else {
        // Nothing moved: the per-worker and per-relation tallies stay
        // empty (no cold relation reads them).
        let empty = RouteOutcome {
            tuples: 0,
            messages: 0,
            worker_tuples: Vec::new(),
            rel_tuples: Vec::new(),
            rel_messages: Vec::new(),
            preprocess_secs: 0.0,
        };
        (Vec::new(), empty, 0.0, 0, 0, 0.0)
    };
    let RouteOutcome { tuples, messages, worker_tuples, rel_tuples, rel_messages, preprocess_secs } =
        outcome;
    // A Cancel fault injected during the build (or a deadline that elapsed
    // while workers ran) aborts before assembly for the same reason.
    cancel.check().map_err(|c| Error::Cancelled { deadline_exceeded: c.deadline })?;

    // Assemble the relations and publish the cold ones' indexes. Every
    // slot of `resolved` is filled in place, so its allocation becomes the
    // output's.
    let mut built_relations = 0u64;
    let mut reused_relations = 0u64;
    let mut relations = resolved;
    for (ai, slot) in relations.iter_mut().enumerate() {
        if slot.is_some() {
            reused_relations += 1;
            continue;
        }
        built_relations += 1;
        let tries: Vec<Arc<Trie>> = built
            .iter_mut()
            .map(|per_worker| per_worker[ai].take().expect("cold atom was built"))
            .collect();
        let index = Arc::new(RelationIndex::new(tries, rel_tuples[ai], rel_messages[ai]));
        if let Some(claim) = claims.get_mut(ai).and_then(Option::take) {
            // The entry lands in the cache and every coalesced waiter
            // wakes with it.
            claim.publish(Artifact::Index(Arc::clone(&index)));
        }
        *slot = Some(index);
    }
    let relations: Vec<Arc<RelationIndex>> =
        relations.into_iter().map(|r| r.expect("every relation resolved or built")).collect();

    let model = cluster.cost_model();
    let msg_overhead = match impl_ {
        HCubeImpl::Merge => 0.5, // tries serialize/deserialize cheaper
        _ => 1.0,
    };
    let comm_secs =
        model.comm_secs(tuples) + messages as f64 * model.per_message_secs * msg_overhead;

    if shuffle_span.is_recording() {
        shuffle_span.detail(layout.names.clone());
        shuffle_span.arg("tuples", tuples);
        shuffle_span.arg("bytes", bytes_moved);
        shuffle_span.arg("wire_bytes", wire_bytes);
        shuffle_span.arg("messages", messages);
        shuffle_span.arg("built_relations", built_relations);
        shuffle_span.arg("reused_relations", reused_relations);
        shuffle_span.arg("tuples_saved", tuples_saved);
        if share_reused {
            shuffle_span.arg("share_reused", 1);
        }
    }
    drop(shuffle_span);

    Ok(RoundOutput {
        relations,
        report: ShuffleReport {
            tuples,
            worker_tuples: if tuples > 0 { worker_tuples } else { Vec::new() },
            messages,
            wire_bytes,
            comm_secs,
            overlap_secs,
            build_secs,
            preprocess_secs,
            built_relations,
            reused_relations,
            tuples_saved,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::IndexCache;
    use adj_cluster::ClusterConfig;
    use adj_relational::Attr;

    /// Triangle test database over a small random-ish graph.
    fn tri_db() -> (Database, Vec<String>) {
        let edges: Vec<(Value, Value)> =
            (0..50u32).flat_map(|i| vec![(i, (i * 7 + 3) % 50), (i, (i * 13 + 1) % 50)]).collect();
        let mut db = Database::new();
        db.insert("R1", Relation::from_pairs(Attr(0), Attr(1), &edges));
        db.insert("R2", Relation::from_pairs(Attr(1), Attr(2), &edges));
        db.insert("R3", Relation::from_pairs(Attr(0), Attr(2), &edges));
        (db, vec!["R1".into(), "R2".into(), "R3".into()])
    }

    fn order3() -> Vec<Attr> {
        vec![Attr(0), Attr(1), Attr(2)]
    }

    fn ids(names: &[String]) -> Vec<Option<String>> {
        names.iter().map(|n| Some(n.clone())).collect()
    }

    /// A Merge shuffle of `names` under `scope`.
    fn shuffle_cached(
        cluster: &Cluster,
        db: &Database,
        names: &[String],
        plan: &HCubePlan,
        scope: &IndexScope<'_>,
        cache_ids: &[Option<String>],
    ) -> ShuffleOutput {
        let layout =
            RoundLayout::new(db, &[], names, cache_ids, &order3(), plan, Some(scope)).unwrap();
        let round = ShuffleRound {
            layout: &layout,
            plan,
            impl_: HCubeImpl::Merge,
            overlay: &[],
            share_reused: false,
        };
        let ctx = ExecCtx { index: Some(scope), ..Default::default() };
        hcube_shuffle_round(cluster, db, &round, &ctx).unwrap().into_locals(&layout)
    }

    #[test]
    fn all_impls_produce_identical_locals() {
        let (db, names) = tri_db();
        let plan = HCubePlan::new(vec![2, 2, 1], 4);
        let outs: Vec<ShuffleOutput> = HCubeImpl::ALL
            .iter()
            .map(|&i| {
                let cluster = Cluster::new(ClusterConfig::with_workers(4));
                hcube_shuffle(&cluster, &db, &names, &plan, &order3(), i).unwrap()
            })
            .collect();
        for w in 0..4 {
            for ai in 0..names.len() {
                assert_eq!(
                    outs[0].locals[w][ai].trie, outs[1].locals[w][ai].trie,
                    "push vs pull differ at worker {w} atom {ai}"
                );
                assert_eq!(
                    outs[1].locals[w][ai].trie, outs[2].locals[w][ai].trie,
                    "pull vs merge differ at worker {w} atom {ai}"
                );
            }
        }
    }

    #[test]
    fn impls_identical_under_permuting_order() {
        // Regression: an attribute order that permutes relation columns
        // (c ≺ a ≺ b) must still route blocks to exactly the workers Push
        // routes tuples to.
        let (db, names) = tri_db();
        let plan = HCubePlan::new(vec![2, 2, 2], 8);
        let order = vec![Attr(2), Attr(0), Attr(1)];
        let outs: Vec<ShuffleOutput> = HCubeImpl::ALL
            .iter()
            .map(|&i| {
                let cluster = Cluster::new(ClusterConfig::with_workers(8));
                hcube_shuffle(&cluster, &db, &names, &plan, &order, i).unwrap()
            })
            .collect();
        for w in 0..8 {
            for ai in 0..names.len() {
                assert_eq!(outs[0].locals[w][ai].trie, outs[1].locals[w][ai].trie);
                assert_eq!(outs[1].locals[w][ai].trie, outs[2].locals[w][ai].trie);
            }
        }
    }

    #[test]
    fn local_union_covers_every_tuple() {
        let (db, names) = tri_db();
        let plan = HCubePlan::new(vec![2, 2, 1], 4);
        let cluster = Cluster::new(ClusterConfig::with_workers(4));
        let out = hcube_shuffle(&cluster, &db, &names, &plan, &order3(), HCubeImpl::Pull).unwrap();
        for (ai, name) in names.iter().enumerate() {
            let original = db.get(name).unwrap();
            let mut parts: Vec<Relation> =
                (0..4).map(|w| out.locals[w][ai].trie.to_relation()).collect();
            let mut all = parts.remove(0);
            for p in parts {
                all = all.union(&p).unwrap();
            }
            // permute back to original column order for comparison
            let back = all.permute(original.schema().attrs()).unwrap();
            assert_eq!(&back, original, "{name} lost tuples in shuffle");
        }
    }

    #[test]
    fn push_sends_more_messages_than_pull() {
        let (db, names) = tri_db();
        let plan = HCubePlan::new(vec![2, 2, 2], 8);
        let c1 = Cluster::new(ClusterConfig::with_workers(8));
        let push = hcube_shuffle(&c1, &db, &names, &plan, &order3(), HCubeImpl::Push).unwrap();
        let c2 = Cluster::new(ClusterConfig::with_workers(8));
        let pull = hcube_shuffle(&c2, &db, &names, &plan, &order3(), HCubeImpl::Pull).unwrap();
        assert_eq!(push.report.tuples, pull.report.tuples, "same payload");
        assert!(
            push.report.messages > 10 * pull.report.messages,
            "push {} vs pull {} messages",
            push.report.messages,
            pull.report.messages
        );
        assert!(push.report.comm_secs > pull.report.comm_secs);
    }

    #[test]
    fn tuple_count_matches_dup_model() {
        let (db, names) = tri_db();
        let plan = HCubePlan::new(vec![2, 2, 1], 4);
        let cluster = Cluster::new(ClusterConfig::with_workers(4));
        let out = hcube_shuffle(&cluster, &db, &names, &plan, &order3(), HCubeImpl::Push).unwrap();
        // Each relation R is delivered |R|·dup(R,p) copies when all cubes
        // map to distinct workers (4 cubes on 4 workers here).
        let expect: u64 = names
            .iter()
            .map(|n| {
                let r = db.get(n).unwrap();
                r.len() as u64 * plan.dup_factor(r.schema())
            })
            .sum();
        assert_eq!(out.report.tuples, expect);
    }

    #[test]
    fn memory_budget_fails_shuffle() {
        let (db, names) = tri_db();
        let plan = HCubePlan::new(vec![1, 1, 1], 1);
        let mut cfg = ClusterConfig::with_workers(1);
        cfg.memory_limit_bytes = Some(64);
        let cluster = Cluster::new(cfg);
        let err =
            hcube_shuffle(&cluster, &db, &names, &plan, &order3(), HCubeImpl::Pull).unwrap_err();
        assert!(matches!(err, Error::BudgetExceeded { .. }));
    }

    #[test]
    fn merge_reports_preprocess_time() {
        let (db, names) = tri_db();
        let plan = HCubePlan::new(vec![2, 2, 1], 4);
        let cluster = Cluster::new(ClusterConfig::with_workers(4));
        let out = hcube_shuffle(&cluster, &db, &names, &plan, &order3(), HCubeImpl::Merge).unwrap();
        assert!(out.report.preprocess_secs > 0.0);
        let c2 = Cluster::new(ClusterConfig::with_workers(4));
        let pull = hcube_shuffle(&c2, &db, &names, &plan, &order3(), HCubeImpl::Pull).unwrap();
        assert_eq!(pull.report.preprocess_secs, 0.0);
    }

    #[test]
    fn route_span_counts_the_merge_rows_it_sorted() {
        let (db, names) = tri_db();
        let plan = HCubePlan::new(vec![2, 2, 2], 4);
        let rows_sorted = |order: Vec<Attr>, impl_: HCubeImpl| {
            let cluster = Cluster::new(ClusterConfig::with_workers(4));
            let layout = RoundLayout::new(&db, &[], &names, &[], &order, &plan, None).unwrap();
            let round = ShuffleRound {
                layout: &layout,
                plan: &plan,
                impl_,
                overlay: &[],
                share_reused: false,
            };
            let ctx = ExecCtx { tracer: Tracer::new(256), ..Default::default() };
            hcube_shuffle_round(&cluster, &db, &round, &ctx).unwrap();
            let trace = ctx.tracer.finish();
            let route = trace.events.iter().find(|e| e.name == "route").expect("route span");
            route.args.get("rows_sorted").expect("rows_sorted arg")
        };
        // Blocks of relations routed in their stored column order are
        // subsequences of sorted rows: nothing to sort.
        assert_eq!(rows_sorted(order3(), HCubeImpl::Merge), 0);
        // (c ≺ a ≺ b) reverses R2(b,c) and R3(a,c): every one of their rows
        // lands in a block that has to be sorted; R1(a,b) stays in order.
        let permuting = vec![Attr(2), Attr(0), Attr(1)];
        let reversed = (db.get("R2").unwrap().len() + db.get("R3").unwrap().len()) as u64;
        assert_eq!(rows_sorted(permuting.clone(), HCubeImpl::Merge), reversed);
        // Pull leaves the sorting to the workers.
        assert_eq!(rows_sorted(permuting, HCubeImpl::Pull), 0);
    }

    #[test]
    fn order_missing_attr_errors() {
        let (db, names) = tri_db();
        let plan = HCubePlan::new(vec![2, 2, 1], 4);
        let cluster = Cluster::new(ClusterConfig::with_workers(4));
        let bad_order = vec![Attr(0), Attr(1)]; // attr 2 missing
        assert!(hcube_shuffle(&cluster, &db, &names, &plan, &bad_order, HCubeImpl::Pull).is_err());
    }

    #[test]
    fn warm_shuffle_is_byte_identical_and_moves_nothing() {
        let (db, names) = tri_db();
        let plan = HCubePlan::new(vec![2, 2, 1], 4);
        let cluster = Cluster::new(ClusterConfig::with_workers(4));
        let cache = IndexCache::new(64 << 20);
        let scope = IndexScope { cache: &cache, db_tag: 1, epoch: 0, versions: &[] };
        let cold = shuffle_cached(&cluster, &db, &names, &plan, &scope, &ids(&names));
        assert_eq!(cold.report.built_relations, 3);
        assert_eq!(cold.report.reused_relations, 0);
        assert!(cold.report.tuples > 0);

        let warm = shuffle_cached(&cluster, &db, &names, &plan, &scope, &ids(&names));
        assert_eq!(warm.report.reused_relations, 3);
        assert_eq!(warm.report.built_relations, 0);
        assert_eq!(warm.report.tuples, 0, "a warm shuffle moves nothing");
        assert_eq!(warm.report.tuples_saved, cold.report.tuples);
        assert_eq!(warm.report.build_secs, 0.0);
        for w in 0..4 {
            for ai in 0..names.len() {
                assert_eq!(cold.locals[w][ai].trie, warm.locals[w][ai].trie);
                assert!(
                    Arc::ptr_eq(&cold.locals[w][ai].trie, &warm.locals[w][ai].trie),
                    "warm locals must share the cached handle, not a copy"
                );
            }
        }
        assert_eq!(cache.stats().hits, 3);
    }

    #[test]
    fn epoch_bump_forces_rebuild() {
        let (db, names) = tri_db();
        let plan = HCubePlan::new(vec![2, 2, 1], 4);
        let cluster = Cluster::new(ClusterConfig::with_workers(4));
        let cache = IndexCache::new(64 << 20);
        let s0 = IndexScope { cache: &cache, db_tag: 1, epoch: 0, versions: &[] };
        shuffle_cached(&cluster, &db, &names, &plan, &s0, &ids(&names));
        let s1 = IndexScope { cache: &cache, db_tag: 1, epoch: 1, versions: &[] };
        let out = shuffle_cached(&cluster, &db, &names, &plan, &s1, &ids(&names));
        assert_eq!(out.report.reused_relations, 0, "stale epoch must not serve");
        assert_eq!(out.report.built_relations, 3);
    }

    #[test]
    fn worker_tuples_sum_to_total() {
        let (db, names) = tri_db();
        let plan = HCubePlan::new(vec![2, 2, 1], 4);
        let cluster = Cluster::new(ClusterConfig::with_workers(4));
        let out = hcube_shuffle(&cluster, &db, &names, &plan, &order3(), HCubeImpl::Pull).unwrap();
        assert_eq!(out.report.worker_tuples.len(), 4);
        assert_eq!(out.report.worker_tuples.iter().sum::<u64>(), out.report.tuples);
    }

    #[test]
    fn mixed_hit_and_miss_builds_only_the_cold_relation() {
        let (db, names) = tri_db();
        let plan = HCubePlan::new(vec![2, 2, 1], 4);
        let cluster = Cluster::new(ClusterConfig::with_workers(4));
        let cache = IndexCache::new(64 << 20);
        let scope = IndexScope { cache: &cache, db_tag: 1, epoch: 0, versions: &[] };
        // Warm only R1 and R3.
        let partial = vec![Some("R1".to_string()), None, Some("R3".to_string())];
        shuffle_cached(&cluster, &db, &names, &plan, &scope, &partial);
        let out = shuffle_cached(&cluster, &db, &names, &plan, &scope, &ids(&names));
        assert_eq!(out.report.reused_relations, 2);
        assert_eq!(out.report.built_relations, 1);
        // The mixed shuffle is still byte-identical to a cold one.
        let c2 = Cluster::new(ClusterConfig::with_workers(4));
        let cold = hcube_shuffle(&c2, &db, &names, &plan, &order3(), HCubeImpl::Merge).unwrap();
        for w in 0..4 {
            for ai in 0..names.len() {
                assert_eq!(out.locals[w][ai].trie, cold.locals[w][ai].trie);
            }
        }
    }
}
