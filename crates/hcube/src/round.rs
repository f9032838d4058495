//! One round of a plan's indexes: every relation the round joins, as one
//! trie in the order the plan's attribute order induces on it.
//!
//! The cluster's workers are threads over one heap, so a round neither
//! routes nor partitions anything: it looks each relation's index up in the
//! cross-query [`IndexCache`](crate::IndexCache), builds the ones that miss
//! — one relation per unit of a claimed phase
//! ([`Cluster::run_claimed`], which builds a lone relation on the calling
//! thread) — and publishes them. Every worker of the join then reads the same tries, and divides
//! the work by morsels of the driver instead of by hypercubes. The HCube
//! share the plan was priced under still prices the round: a cold relation
//! reports the tuple copies the share would route for it, `|R| · dup(R, p)`,
//! the paper's communication cost. The round takes that share as it is and
//! solves no share program of its own.
//!
//! The planner samples over the same tries: it reads them from the cache
//! and builds a missing one with this module's builder ([`build_trie`]).
//! What it built reaches the round as the request's [`PlannedTries`], so a
//! cold relation the planner already indexed is taken over, not rebuilt,
//! and published by the round. A plan no execution follows (a prepared
//! statement, a plain `EXPLAIN`) publishes its hand-over itself
//! ([`PlannedTries::publish`]), through the same build claims.

use crate::cache::{IndexClaim, IndexKey, IndexLookup, IndexScope};
use crate::share::dup_factor;
use crate::shuffle::ShuffleReport;
use adj_cluster::Cluster;
use adj_faults::{CancelToken, FaultSite};
use adj_relational::{Attr, Database, Error, Morsels, Relation, Result, Schema, Trie, Value};
use adj_trace::{SpanGuard, Tracer, COORDINATOR_LANE};
use std::sync::Arc;

/// One relation of a round, as the round reads it.
#[derive(Debug, Clone)]
pub(crate) struct RoundAtom {
    /// The name it resolves under (overlay first, then the database).
    pub(crate) name: String,
    /// Its schema in the order's induced attribute order.
    pub(crate) induced: Schema,
    /// Induced column → stored column.
    pub(crate) perm: Vec<usize>,
}

impl RoundAtom {
    /// Relation `name`, stored as `schema`, read in the attribute order
    /// `induced`, which must reorder all of its attributes.
    fn new(name: &str, schema: &Schema, induced: Vec<Attr>) -> Result<Self> {
        let position = |a| schema.position(a);
        let perm: Option<Vec<usize>> = induced.iter().map(|&a| position(a)).collect();
        match perm {
            Some(perm) if perm.len() == schema.arity() => {
                let induced = Schema::new(induced)?;
                Ok(RoundAtom { name: name.to_string(), induced, perm })
            }
            _ => Err(Error::SchemaMismatch {
                left: schema.to_string(),
                right: format!("order {induced:?}"),
            }),
        }
    }
}

/// What a round knows about its relations before it builds anything: per
/// relation, its name, its order-induced schema and column permutation,
/// and — under an index scope, for a relation of the database — its
/// index-cache key.
///
/// None of it depends on a call: a layout is a function of the relations'
/// schemas, the order and the scope's database state. So it is built once
/// and kept (the executor keeps one per plan round), and a fully warm round
/// resolves every relation by looking its prebuilt key up in the cache —
/// the lookup still counts, evicts and coalesces as any other, and the
/// layout pins no cache entry. [`RoundLayout::same_relations`] and
/// [`RoundLayout::stamped_for`] say whether a kept layout still describes a
/// round.
#[derive(Debug, Clone)]
pub struct RoundLayout {
    pub(crate) atoms: Vec<RoundAtom>,
    /// `(atom, key)` for every atom that resolves in the database, in key
    /// order — the order a round takes build claims in. Empty without a
    /// scope.
    keys: Vec<(usize, IndexKey)>,
    /// Whether the keys were stamped under a scope.
    scoped: bool,
    /// The relation names, comma-separated: the `shuffle` span's detail.
    names: String,
}

impl RoundLayout {
    /// The layout of a round over `atom_names` (each resolved in `overlay`,
    /// then `db`) as tries in the orders `order` induces. Under `scope`,
    /// every atom that resolves in `db` gets its index key, stamped with the
    /// scope's database, epoch and the relation's delta sequence; an
    /// overlay relation (a pre-computed bag) belongs to one query and is
    /// indexed without a key.
    pub fn new(
        db: &Database,
        overlay: &[(String, Arc<Relation>)],
        atom_names: &[String],
        order: &[Attr],
        scope: Option<&IndexScope<'_>>,
    ) -> Result<Self> {
        let atoms = (atom_names.iter())
            .map(|name| {
                let schema = resolve(db, overlay, name)?.schema();
                let induced = order.iter().copied().filter(|a| schema.contains(*a)).collect();
                RoundAtom::new(name, schema, induced)
            })
            .collect::<Result<_>>()?;
        Ok(RoundLayout::keyed(atoms, overlay, scope))
    }

    /// The layout of a round over some of this layout's relations again, as
    /// tries of other attribute orders: `reordered[j] = (ai, induced)` reads
    /// relation `ai` as `induced`, a reordering of its attributes, under the
    /// same name. Each keyed one gets an index key of its own, since the
    /// key names the induced order.
    pub fn reordered(
        &self,
        db: &Database,
        overlay: &[(String, Arc<Relation>)],
        reordered: &[(usize, Schema)],
        scope: Option<&IndexScope<'_>>,
    ) -> Result<Self> {
        let atoms = (reordered.iter())
            .map(|(ai, induced)| {
                let name = &self.atoms[*ai].name;
                let schema = resolve(db, overlay, name)?.schema();
                RoundAtom::new(name, schema, induced.attrs().to_vec())
            })
            .collect::<Result<_>>()?;
        Ok(RoundLayout::keyed(atoms, overlay, scope))
    }

    /// The layout of a round over `atoms`, its database relations keyed
    /// under `scope`.
    fn keyed(
        atoms: Vec<RoundAtom>,
        overlay: &[(String, Arc<Relation>)],
        scope: Option<&IndexScope<'_>>,
    ) -> Self {
        let mut keys: Vec<(usize, IndexKey)> = match scope {
            Some(scope) => (atoms.iter().enumerate())
                .filter(|(_, atom)| in_db(overlay, &atom.name))
                .map(|(ai, atom)| (ai, scope.index_key(&atom.name, atom.induced.attrs().to_vec())))
                .collect(),
            None => Vec::new(),
        };
        keys.sort_by(|a, b| a.1.cmp(&b.1));
        let names: Vec<&str> = atoms.iter().map(|a| a.name.as_str()).collect();
        let names = names.join(",");
        RoundLayout { atoms, keys, scoped: scope.is_some(), names }
    }

    /// Each relation's name, in round order.
    pub fn relations(&self) -> impl ExactSizeIterator<Item = &str> {
        self.atoms.iter().map(|a| a.name.as_str())
    }

    /// Whether this layout is over the relations `atoms` names, in round
    /// order. Allocates nothing.
    pub fn same_relations<'s>(&self, atoms: impl ExactSizeIterator<Item = &'s str>) -> bool {
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
                    && self.keys.iter().all(|(_, k)| {
                        k.db_tag == scope.db_tag
                            && k.epoch == scope.epoch
                            && k.delta_seq == scope.delta_seq_for(&k.relation)
                    })
            }
        }
    }

    /// Each relation's order-induced schema, in round order.
    pub fn induced_schemas(&self) -> impl ExactSizeIterator<Item = &Schema> {
        self.atoms.iter().map(|a| &a.induced)
    }
}

/// What one request carries through every layer below the front door: the
/// index-cache scope its planner reads and its rounds consult and publish
/// under, its cancellation token, its tracer and the tries its planner
/// built. Both handles are `Option<Arc<_>>` inside and the hand-over is an
/// empty `Vec`, so [`ExecCtx::default`] — the cold, uncancellable,
/// untraced execution — allocates nothing and every poll or span on it is
/// one branch.
#[derive(Debug, Clone, Default)]
pub struct ExecCtx<'a> {
    /// The cross-query index cache to consult; `None` runs fully cold.
    pub index: Option<&'a IndexScope<'a>>,
    /// Polled at every cancellation checkpoint of the request.
    pub cancel: CancelToken,
    /// Receives the request's span timeline.
    pub tracer: Tracer,
    /// The tries this request's planner built, for its rounds to take over.
    pub planned: PlannedTries,
}

/// The tries a request's planner built while it sampled, handed to the
/// execution that follows: a round that misses one of them in the cache
/// takes it over instead of building it again (and publishes it as its
/// own build). Each trie is keyed by its relation's name and its level
/// order, which together with the request's database state is what an
/// [`IndexKey`] names.
#[derive(Debug, Clone, Default)]
pub struct PlannedTries(Vec<(String, Arc<Trie>)>);

impl PlannedTries {
    /// The hand-over of `tries`, each under its relation's name.
    pub fn new(tries: Vec<(String, Arc<Trie>)>) -> Self {
        PlannedTries(tries)
    }

    /// The trie of relation `name` whose levels follow `induced`, if the
    /// planner built it.
    pub fn get(&self, name: &str, induced: &Schema) -> Option<&Arc<Trie>> {
        self.0.iter().find(|(n, t)| n == name && t.schema() == induced).map(|(_, t)| t)
    }

    /// How many tries are handed over.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether nothing is handed over.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Publishes the hand-over when no execution follows the plan (a
    /// prepared statement, a plain `EXPLAIN`): each trie through its key's
    /// build claim under `scope`, as a round publishes a build, so the
    /// first execution finds it in the cache. A key another request holds
    /// or is building is left to it; a wait on that build gives up when
    /// `cancel` fires.
    pub fn publish(self, scope: &IndexScope<'_>, cancel: &CancelToken) {
        for (name, trie) in self.0 {
            let key = scope.index_key(&name, trie.schema().attrs().to_vec());
            if let IndexLookup::Miss(claim) = scope.cache.lookup(&key, cancel) {
                claim.publish(trie);
            }
        }
    }
}

/// One round: which relations it indexes, and the share that prices them.
#[derive(Debug, Clone, Copy)]
pub struct IndexRound<'a> {
    /// The relations, their induced orders and cache keys; each must
    /// resolve in `overlay` or the database.
    pub layout: &'a RoundLayout,
    /// The share vector the plan was priced under, one share per attribute
    /// id: what each cold relation would cost to route.
    pub share: &'a [u32],
    /// Per-query relations (pre-computed bags) resolved before the
    /// database, so the shared database is never cloned per query.
    pub overlay: &'a [(String, Arc<Relation>)],
}

/// The result of [`index_round`]: every relation's trie, in round order —
/// the cache's entry for a warm relation, the fresh build for a cold one —
/// plus the cost report.
#[derive(Debug)]
pub struct RoundOutput {
    /// `tries[ai]` is relation `ai`'s trie.
    pub tries: Vec<Arc<Trie>>,
    /// What the round built, reused and would have routed.
    pub report: ShuffleReport,
}

/// Resolves a relation by name against the overlay first, then the base
/// database — so callers can layer per-query temporaries (pre-computed
/// bags) over an immutable shared database without cloning it.
pub(crate) fn resolve<'a>(
    db: &'a Database,
    overlay: &'a [(String, Arc<Relation>)],
    name: &str,
) -> Result<&'a Relation> {
    if let Some((_, rel)) = overlay.iter().find(|(n, _)| n == name) {
        return Ok(rel);
    }
    db.get(name)
}

/// Whether `name` resolves in the database: no overlay relation shadows it.
fn in_db(overlay: &[(String, Arc<Relation>)], name: &str) -> bool {
    !overlay.iter().any(|(n, _)| n == name)
}

/// How often a cold build polls the [`CancelToken`] while it reads rows:
/// one relaxed atomic load (plus the fault-injection gate) every this many
/// rows, so the cancellation latency is bounded without a measurable
/// per-row cost.
pub(crate) const CANCEL_CHECK_EVERY: usize = 4096;

/// Fault-injection checkpoint + cooperative cancellation poll, mapped onto
/// the workspace error type.
#[inline]
pub(crate) fn checkpoint(site: FaultSite, cancel: &CancelToken) -> Result<()> {
    adj_faults::inject(site, cancel);
    cancel.check().map_err(|c| Error::Cancelled { deadline_exceeded: c.deadline })
}

/// The trie of `atom`, read from `rel` in its induced order. A relation
/// stored in that order is in normal form already and is indexed as it is;
/// any other is permuted, sorted and indexed. The rows are read under the
/// `ShuffleRoute` checkpoint, polled every [`CANCEL_CHECK_EVERY`] rows.
fn build_index(rel: &Relation, atom: &RoundAtom, cancel: &CancelToken) -> Result<Trie> {
    checkpoint(FaultSite::ShuffleRoute, cancel)?;
    if atom.perm.iter().enumerate().all(|(i, &p)| i == p) {
        return Ok(Trie::build(rel));
    }
    let mut flat: Vec<Value> = Vec::with_capacity(rel.len() * atom.perm.len());
    for (i, row) in rel.rows().enumerate() {
        if i % CANCEL_CHECK_EVERY == CANCEL_CHECK_EVERY - 1 {
            checkpoint(FaultSite::ShuffleRoute, cancel)?;
        }
        flat.extend(atom.perm.iter().map(|&p| row[p]));
    }
    Ok(Trie::build(&Relation::from_flat(atom.induced.clone(), flat)?))
}

/// The trie of `rel` whose levels follow `induced`, a reordering of all of
/// its attributes, built as a round builds a relation: under the
/// `ShuffleRoute` checkpoint, polling `cancel`. A fired token fails the
/// build with [`Error::Cancelled`]; an order that misses an attribute of
/// `rel` is [`Error::SchemaMismatch`].
pub fn build_trie(rel: &Relation, induced: Vec<Attr>, cancel: &CancelToken) -> Result<Trie> {
    build_index(rel, &RoundAtom::new("", rel.schema(), induced)?, cancel)
}

/// Resolves every relation of `round` to its index under `ctx`'s index
/// scope, cancellation token and tracer.
///
/// Warm relations come from the cache. Cold ones are taken over from
/// `ctx.planned` when the request's planner built them, else built — one
/// relation per unit of a claimed phase ([`Cluster::run_claimed`]) — and
/// either way published for every later query and counted as
/// built. An overlay relation has no key: it is built every time and never
/// published. Without an index scope nothing is published, and every
/// relation the planner did not build is built. A miss takes the key's build claim, so a
/// concurrent query that misses the same key waits for this build instead
/// of repeating it (request coalescing); claims are taken in sorted key
/// order, so two rounds over overlapping relations never hold-and-wait in a
/// cycle, and a self-join's duplicate key reuses the first atom's outcome
/// instead of waiting on its own claim.
///
/// The token is polled once per cold relation, every
/// `CANCEL_CHECK_EVERY` (4096) rows a build reads and once per build task;
/// a fired token fails the round with [`Error::Cancelled`] **before**
/// anything is published, so a cancelled query never leaves partial
/// tries behind. A panicking build is isolated
/// ([`adj_cluster::WorkerFailure`]) and surfaces as
/// [`Error::WorkerPanicked`] with nothing published.
///
/// The span timeline: one `shuffle` span on the coordinator lane (its
/// detail names the relations; args: the tuples the plan would route for
/// the cold relations, built and reused relations, and how many of the
/// built ones the planner had built),
/// an `index_cache_miss` / `index_cache_coalesced` instant per key that
/// missed or waited for another build (plain hits are the span's
/// `reused_relations`), and, when something was cold, a `build` span per
/// worker lane.
pub fn index_round(
    cluster: &Cluster,
    db: &Database,
    round: &IndexRound<'_>,
    ctx: &ExecCtx<'_>,
) -> Result<RoundOutput> {
    let IndexRound { layout, share, overlay } = *round;
    let (scope, cancel, tracer) = (ctx.index, &ctx.cancel, &ctx.tracer);
    let mut shuffle_span = tracer.span(COORDINATOR_LANE, "shuffle");
    assert!(layout.stamped_for(scope), "round layout keyed for another index scope");
    let atoms = &layout.atoms;

    let mut resolved: Vec<Option<Arc<Trie>>> = vec![None; atoms.len()];
    let mut claims: Vec<Option<IndexClaim<'_>>> = Vec::new();
    if let Some(scope) = scope {
        let keyed = &layout.keys;
        for i in 0..keyed.len() {
            let (ai, ref key) = keyed[i];
            if i > 0 && keyed[i - 1].1 == *key {
                resolved[ai] = resolved[keyed[i - 1].0].clone();
                continue;
            }
            match scope.cache.lookup(key, cancel) {
                IndexLookup::Hit { value, coalesced } => {
                    if coalesced {
                        tracer.instant(COORDINATOR_LANE, "index_cache_coalesced", &key.relation);
                    }
                    resolved[ai] = Some(value);
                }
                IndexLookup::Miss(claim) => {
                    tracer.instant(COORDINATOR_LANE, "index_cache_miss", &key.relation);
                    if claims.is_empty() {
                        claims.resize_with(atoms.len(), || None);
                    }
                    claims[ai] = Some(claim);
                }
            }
        }
    }

    // The cold relations: those the planner built are taken over, the rest
    // are built one per claimed unit.
    let mut built: Vec<Option<Arc<Trie>>> = Vec::new();
    let (mut cold, mut planned) = (Vec::new(), 0u64);
    for ai in (0..atoms.len()).filter(|&ai| resolved[ai].is_none()) {
        built.resize(atoms.len(), None);
        let atom = &atoms[ai];
        match ctx.planned.get(&atom.name, &atom.induced).filter(|_| in_db(overlay, &atom.name)) {
            Some(trie) => {
                built[ai] = Some(Arc::clone(trie));
                planned += 1;
            }
            None => cold.push(ai),
        }
    }
    let mut build_secs = 0.0;
    if !cold.is_empty() {
        let task = |morsels: &Morsels, span: &mut SpanGuard<'_>| -> Result<Vec<(usize, Trie)>> {
            adj_faults::inject(FaultSite::TrieBuild, cancel);
            let mut done = Vec::new();
            while let Some(ai) = morsels.claim().map(|u| cold[u]) {
                let rel = resolve(db, overlay, &atoms[ai].name)?;
                done.push((ai, build_index(rel, &atoms[ai], cancel)?));
            }
            if span.is_recording() {
                span.arg("relations", done.len() as u64);
                span.arg("tuples", done.iter().map(|(_, t)| t.tuples() as u64).sum::<u64>());
            }
            Ok(done)
        };
        let run = cluster.run_claimed(tracer, "build", cold.len(), task);
        build_secs = run.makespan_secs;
        for done in run.into_results().map_err(Error::from)? {
            for (ai, trie) in done? {
                built[ai] = Some(Arc::new(trie));
            }
        }
    }
    // A Cancel fault injected during the builds (or a deadline that elapsed
    // while they ran) aborts before anything is published.
    cancel.check().map_err(|c| Error::Cancelled { deadline_exceeded: c.deadline })?;

    // Assemble the tries and publish the cold ones. Every slot of
    // `resolved` is filled in place, so its allocation becomes the
    // output's.
    let (mut tuples, mut built_relations, mut reused_relations) = (0u64, 0u64, 0u64);
    for (ai, slot) in resolved.iter_mut().enumerate() {
        if slot.is_some() {
            reused_relations += 1;
            continue;
        }
        built_relations += 1;
        let trie = built[ai].take().expect("cold relation was built");
        tuples += trie.tuples() as u64 * dup_factor(share, atoms[ai].induced.mask());
        if let Some(claim) = claims.get_mut(ai).and_then(Option::take) {
            // The trie lands in the cache and every coalesced waiter wakes
            // with it.
            claim.publish(Arc::clone(&trie));
        }
        *slot = Some(trie);
    }
    let tries: Vec<Arc<Trie>> =
        resolved.into_iter().map(|r| r.expect("every relation resolved or built")).collect();

    if shuffle_span.is_recording() {
        shuffle_span.detail(layout.names.clone());
        shuffle_span.arg("tuples", tuples);
        shuffle_span.arg("built_relations", built_relations);
        shuffle_span.arg("reused_relations", reused_relations);
        shuffle_span.arg("planned_relations", planned);
    }
    drop(shuffle_span);

    Ok(RoundOutput {
        tries,
        report: ShuffleReport {
            tuples,
            comm_secs: cluster.cost_model().comm_secs(tuples),
            build_secs,
            built_relations,
            reused_relations,
            ..Default::default()
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::IndexCache;
    use adj_cluster::ClusterConfig;

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

    /// The round over `names` in the order `order` under `scope`.
    fn round_in(
        cluster: &Cluster,
        db: &Database,
        names: &[String],
        order: &[Attr],
        scope: Option<&IndexScope<'_>>,
    ) -> RoundOutput {
        let layout = RoundLayout::new(db, &[], names, order, scope).unwrap();
        let round = IndexRound { layout: &layout, share: &SHARE, overlay: &[] };
        let ctx = ExecCtx { index: scope, ..Default::default() };
        index_round(cluster, db, &round, &ctx).unwrap()
    }

    /// The share every test round is priced under.
    const SHARE: [u32; 3] = [2, 2, 1];

    fn order3() -> Vec<Attr> {
        vec![Attr(0), Attr(1), Attr(2)]
    }

    #[test]
    fn a_round_indexes_each_relation_whole_in_its_induced_order() {
        let (db, names) = tri_db();
        let cluster = Cluster::new(ClusterConfig::with_workers(4));
        // (c ≺ a ≺ b) reverses R2(b,c) and R3(a,c).
        let order = vec![Attr(2), Attr(0), Attr(1)];
        let out = round_in(&cluster, &db, &names, &order, None);
        let mut routed = 0;
        for (name, trie) in names.iter().zip(&out.tries) {
            let stored = db.get(name).unwrap();
            let induced: Vec<Attr> =
                order.iter().copied().filter(|&a| stored.schema().contains(a)).collect();
            assert_eq!(trie.to_relation(), stored.permute(&induced).unwrap(), "{name}");
            routed += stored.len() as u64 * dup_factor(&SHARE, stored.schema().mask());
        }
        assert_eq!(out.report.tuples, routed, "a cold round reports what the share routes");
        assert_eq!((out.report.built_relations, out.report.reused_relations), (3, 0));
    }

    #[test]
    fn warm_shuffle_is_byte_identical_and_moves_nothing() {
        let (db, names) = tri_db();
        let cluster = Cluster::new(ClusterConfig::with_workers(4));
        let cache = IndexCache::new(64 << 20);
        let scope = IndexScope { cache: &cache, db_tag: 1, epoch: 0, versions: &[] };
        let cold = round_in(&cluster, &db, &names, &order3(), Some(&scope));
        assert_eq!(cold.report.built_relations, 3);
        assert_eq!(cold.report.reused_relations, 0);
        assert!(cold.report.tuples > 0);

        let warm = round_in(&cluster, &db, &names, &order3(), Some(&scope));
        assert_eq!(warm.report.reused_relations, 3);
        assert_eq!(warm.report.built_relations, 0);
        assert_eq!(warm.report.tuples, 0, "a warm round moves nothing");
        assert_eq!(warm.report.build_secs, 0.0);
        for (c, w) in cold.tries.iter().zip(&warm.tries) {
            assert!(Arc::ptr_eq(c, w), "warm relations must share the cached handle, not a copy");
        }
        assert_eq!(cache.stats().hits, 3);
    }

    #[test]
    fn epoch_bump_forces_rebuild() {
        let (db, names) = tri_db();
        let cluster = Cluster::new(ClusterConfig::with_workers(4));
        let cache = IndexCache::new(64 << 20);
        let s0 = IndexScope { cache: &cache, db_tag: 1, epoch: 0, versions: &[] };
        round_in(&cluster, &db, &names, &order3(), Some(&s0));
        let s1 = IndexScope { cache: &cache, db_tag: 1, epoch: 1, versions: &[] };
        let out = round_in(&cluster, &db, &names, &order3(), Some(&s1));
        assert_eq!(out.report.reused_relations, 0, "stale epoch must not serve");
        assert_eq!(out.report.built_relations, 3);
    }

    #[test]
    fn mixed_hit_and_miss_builds_only_the_cold_relation() {
        let (db, names) = tri_db();
        let cluster = Cluster::new(ClusterConfig::with_workers(4));
        let cache = IndexCache::new(64 << 20);
        let scope = IndexScope { cache: &cache, db_tag: 1, epoch: 0, versions: &[] };
        // Warm only R1 and R3.
        let partial = vec![names[0].clone(), names[2].clone()];
        round_in(&cluster, &db, &partial, &order3(), Some(&scope));
        let out = round_in(&cluster, &db, &names, &order3(), Some(&scope));
        assert_eq!(out.report.reused_relations, 2);
        assert_eq!(out.report.built_relations, 1);
        // The mixed round is still byte-identical to a cold one, and the
        // width does not enter the index.
        let narrow = Cluster::new(ClusterConfig::with_workers(1));
        let cold = round_in(&narrow, &db, &names, &order3(), None);
        for (mixed, fresh) in out.tries.iter().zip(&cold.tries) {
            assert_eq!(mixed, fresh);
        }
    }

    #[test]
    fn a_round_takes_over_what_the_planner_built_and_publishes_it() {
        let (db, names) = tri_db();
        let cluster = Cluster::new(ClusterConfig::with_workers(2));
        let build = |name: &str, ids: [u32; 2]| {
            let induced = ids.iter().map(|&i| Attr(i)).collect();
            Arc::new(build_trie(db.get(name).unwrap(), induced, &CancelToken::none()).unwrap())
        };
        // R1 in the round's order, and R2 in an order only a sampler reads.
        let r1 = build("R1", [0, 1]);
        let planned = PlannedTries::new(vec![
            ("R1".into(), Arc::clone(&r1)),
            ("R2".into(), build("R2", [2, 1])),
        ]);
        let fresh = round_in(&cluster, &db, &names, &order3(), None);

        // Without a scope (a one-shot run) the round takes R1 over too.
        let layout = RoundLayout::new(&db, &[], &names, &order3(), None).unwrap();
        let round = IndexRound { layout: &layout, share: &SHARE, overlay: &[] };
        let ctx = ExecCtx { planned: planned.clone(), ..Default::default() };
        let cold = index_round(&cluster, &db, &round, &ctx).unwrap();
        assert!(Arc::ptr_eq(&cold.tries[0], &r1), "taken over, not rebuilt");

        let cache = IndexCache::new(64 << 20);
        let scope = IndexScope { cache: &cache, db_tag: 1, epoch: 0, versions: &[] };
        let layout = RoundLayout::new(&db, &[], &names, &order3(), Some(&scope)).unwrap();
        let round = IndexRound { layout: &layout, share: &SHARE, overlay: &[] };
        let ctx = ExecCtx { index: Some(&scope), planned, ..Default::default() };
        let out = index_round(&cluster, &db, &round, &ctx).unwrap();
        assert!(Arc::ptr_eq(&out.tries[0], &r1), "taken over, not rebuilt");
        // A hand-over is this request's build: counted, priced and
        // published like one, and the tries are a fresh round's.
        assert_eq!((out.report.built_relations, out.report.reused_relations), (3, 0));
        assert_eq!(out.report.tuples, fresh.report.tuples);
        for (taken, built) in out.tries.iter().zip(&fresh.tries) {
            assert_eq!(taken, built);
        }
        assert_eq!(cache.stats().len, 3, "the sampling-only order is not published");
        let warm = round_in(&cluster, &db, &names, &order3(), Some(&scope));
        assert!(Arc::ptr_eq(&warm.tries[0], &r1), "the published hand-over serves warm");
        cache.store().check(|_| true, true).unwrap();
    }

    #[test]
    fn build_trie_builds_as_trie_under_order_and_polls_the_token() {
        let (db, _) = tri_db();
        let r3 = db.get("R3").unwrap();
        let order = [Attr(2), Attr(0)];
        let built = build_trie(r3, order.to_vec(), &CancelToken::none()).unwrap();
        assert_eq!(built, r3.trie_under_order(&order).unwrap());
        assert!(matches!(
            build_trie(r3, vec![Attr(2)], &CancelToken::none()),
            Err(Error::SchemaMismatch { .. })
        ));
        let cancel = CancelToken::manual();
        cancel.cancel();
        assert!(matches!(build_trie(r3, order.to_vec(), &cancel), Err(Error::Cancelled { .. })));
    }

    #[test]
    fn a_cancelled_round_publishes_nothing() {
        let (db, names) = tri_db();
        let cluster = Cluster::new(ClusterConfig::with_workers(2));
        let cache = IndexCache::new(64 << 20);
        let scope = IndexScope { cache: &cache, db_tag: 1, epoch: 0, versions: &[] };
        let layout = RoundLayout::new(&db, &[], &names, &order3(), Some(&scope)).unwrap();
        let round = IndexRound { layout: &layout, share: &[2, 1, 1], overlay: &[] };
        let cancel = CancelToken::manual();
        cancel.cancel();
        let ctx = ExecCtx { index: Some(&scope), cancel, ..Default::default() };
        assert!(matches!(index_round(&cluster, &db, &round, &ctx), Err(Error::Cancelled { .. })));
        assert_eq!(cache.stats().len, 0, "nothing published");
        cache.store().check(|_| true, true).unwrap();
    }
}
