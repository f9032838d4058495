//! The cross-query index cache: built tries as first-class, reusable
//! artifacts.
//!
//! Under serving traffic the database is immutable between queries, yet
//! every execution would otherwise rebuild the same level-wise tries — on a
//! warm plan cache that build dwarfs the join itself. Once a relation has
//! been indexed in a given induced attribute order against a given database
//! state, its [`Trie`] is published as one shared `Arc` handle and every
//! later query with the same key joins over it directly — no sort, no
//! build. The cluster's workers are threads over one heap, so every worker
//! of every width reads the same handle: there is one index per relation
//! and order, not one partition per worker.
//!
//! Two artifact kinds share one LRU byte budget:
//!
//! * **relation indexes** ([`RelationIndex`]) — the trie of one relation,
//!   keyed by [`IndexKey`];
//! * **bag relations** — materialized hypertree-bag joins (ADJ's
//!   pre-computing phase, and GHD-Yannakakis bags), keyed by [`BagKey`].
//!   Bag contents are a pure function of the base relations, the member
//!   atoms, and the attribute order, so a stable label string identifies
//!   them across queries.
//!
//! Keys fold in a database tag and its statistics epoch: re-registering a
//! database bumps the epoch, so stale entries stop matching (and the
//! store's `forget(epoch)` drops them eagerly). The store is the one
//! generic [`Cache`], weighing each artifact in resident bytes: eviction is
//! least-recently-used over *bytes*, not entries, because the whole point
//! of the budget is to charge index memory against the cluster's
//! `memory_limit_bytes`.

use adj_faults::CancelToken;
use adj_relational::cache::{Cache, Claim, Lookup};
use adj_relational::hash::FxHasher;
use adj_relational::{Attr, Relation, Trie};
use std::hash::BuildHasherDefault;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Identity of one cached relation index: the relation (or bag label), the
/// induced attribute order its trie levels follow, and the database state
/// it was built against. Neither the cluster's width nor a plan's share
/// enters the key — every worker reads the one trie — and no part of a
/// query's binding does either, so every binding of a prepared statement,
/// a batch of them and the unbound query of the same shape, at any width,
/// resolve to the same entries.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct IndexKey {
    /// Stable tag of the owning database (hash of its name).
    pub db_tag: u64,
    /// The database's statistics epoch at build time.
    pub epoch: u64,
    /// Stable identity of the relation: its name for base relations, a
    /// content-describing label for pre-computed bags.
    pub relation: String,
    /// The order-induced attribute permutation the trie levels follow.
    pub induced: Vec<Attr>,
    /// The relation's delta sequence (`adj-delta`'s per-relation batch
    /// counter) at build time. Mutating a relation bumps only *its*
    /// sequence, so entries for other relations keep matching — this is the
    /// per-relation replacement for the global epoch bump. Patched entries
    /// ([`crate::patch_relation_indexes`]) are republished under the new
    /// sequence.
    pub delta_seq: u64,
}

/// Identity of one cached bag relation (a materialized hypertree-bag join).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BagKey {
    /// Stable tag of the owning database.
    pub db_tag: u64,
    /// The database's statistics epoch at build time.
    pub epoch: u64,
    /// Content-describing label: evaluation kind, member atom names, and
    /// the attribute order of the result.
    pub label: String,
}

/// One relation's reusable index: its trie, plus the communication cost the
/// building plan's share assigns it (so reports can state what a hit
/// saved).
#[derive(Debug)]
pub struct RelationIndex {
    /// The relation, indexed in the key's induced order; shared by every
    /// worker.
    pub trie: Arc<Trie>,
    /// Tuple copies the building plan's HCube share routes for the
    /// relation (`|R| · dup(R, p)`): the paper's communication cost of it.
    pub tuples: u64,
    /// Resident bytes of the trie.
    pub bytes: usize,
}

impl RelationIndex {
    /// Builds the entry, computing its resident size.
    pub fn new(trie: Arc<Trie>, tuples: u64) -> Self {
        let bytes = trie.size_bytes();
        RelationIndex { trie, tuples, bytes }
    }
}

/// The key of one index-cache entry: a relation index or a bag relation.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ArtifactKey {
    /// A relation's trie.
    Index(IndexKey),
    /// A materialized bag relation.
    Bag(BagKey),
}

/// One index-cache entry; its variant always matches its key's.
#[derive(Debug, Clone)]
pub enum Artifact {
    /// A relation's trie.
    Index(Arc<RelationIndex>),
    /// A materialized bag relation.
    Bag(Arc<Relation>),
}

/// The index cache's store: artifacts weighed in resident bytes and tagged
/// with the database registration (epoch) they were built against.
pub type IndexStore = Cache<ArtifactKey, Artifact, BuildHasherDefault<FxHasher>>;

/// What [`IndexCache::lookup`] found.
pub type IndexLookup<'a> = Lookup<'a, ArtifactKey, Artifact, BuildHasherDefault<FxHasher>>;

/// The build claim an [`IndexCache::lookup`] miss hands back.
///
/// Deadlock discipline for holders: a query may hold several *index* claims
/// at once only when it acquired them in sorted key order, and may wait on
/// an index claim while holding a *bag* claim — but never the reverse
/// (nothing waits on a bag while holding an index claim), and at most one
/// bag claim is held at a time. The index round and the executor's bag
/// loop both follow this; see [`index_round`](crate::index_round).
pub type IndexClaim<'a> = Claim<'a, ArtifactKey, Artifact, BuildHasherDefault<FxHasher>>;

/// Counters describing index-cache behaviour since service start: the
/// store's [`CacheStats`](adj_relational::cache::CacheStats) in bytes,
/// plus the communication volume hits saved.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexCacheStats {
    /// Lookups that found a reusable artifact.
    pub hits: u64,
    /// Lookups that required a fresh build.
    pub misses: u64,
    /// Artifacts published.
    pub insertions: u64,
    /// Artifacts evicted to make room.
    pub evictions: u64,
    /// Artifacts dropped by invalidation, harvest or poison recovery.
    pub invalidations: u64,
    /// Tuple copies the hit relations' plans would have routed: the
    /// communication volume hits saved.
    pub tuples_saved: u64,
    /// Redundant builds avoided by request coalescing: lookups that missed
    /// while an equal key was already being built, blocked on that build,
    /// and reused its published artifact.
    pub coalesced_builds: u64,
    /// Current resident bytes across all cached artifacts.
    pub resident_bytes: usize,
    /// The byte budget eviction enforces.
    pub capacity_bytes: usize,
    /// Current number of cached artifacts.
    pub len: usize,
}

impl IndexCacheStats {
    /// Hit rate in `[0, 1]`; 0 when no lookups happened yet.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A thread-safe, byte-budgeted LRU cache of relation indexes and
/// materialized bag relations.
#[derive(Debug)]
pub struct IndexCache {
    store: IndexStore,
    tuples_saved: AtomicU64,
}

impl IndexCache {
    /// Creates a cache holding at most `capacity_bytes` of artifacts
    /// (0 disables it: every lookup misses, every publish is dropped).
    pub fn new(capacity_bytes: usize) -> Self {
        let bytes = |a: &Artifact| match a {
            Artifact::Index(idx) => idx.bytes,
            Artifact::Bag(rel) => rel.size_bytes(),
        };
        let epoch = |k: &ArtifactKey, _: &Artifact| match k {
            ArtifactKey::Index(k) => k.epoch,
            ArtifactKey::Bag(k) => k.epoch,
        };
        IndexCache {
            store: Cache::new(capacity_bytes, bytes, epoch),
            tuples_saved: AtomicU64::new(0),
        }
    }

    /// The underlying store, for what is not index-specific: publishing
    /// without a claim (patching), `forget`, `check` and the like.
    pub fn store(&self) -> &IndexStore {
        &self.store
    }

    /// The artifact under `key`, or a claim to build it (see
    /// [`Cache::lookup`]); a wait on a concurrent build gives up when
    /// `cancel` fires. An index hit credits the communication volume it
    /// saved.
    pub fn lookup(&self, key: &ArtifactKey, cancel: &CancelToken) -> IndexLookup<'_> {
        let found = self.store.lookup(key, || cancel.check().is_ok());
        if let Lookup::Hit { value: Artifact::Index(idx), .. } = &found {
            self.tuples_saved.fetch_add(idx.tuples, Ordering::Relaxed);
        }
        found
    }

    /// Removes and returns every relation-index entry for `relation` in
    /// database `db_tag`, regardless of epoch or delta sequence — the
    /// harvest step of warm-cache patching: the caller merges the delta
    /// into each taken entry and republishes it under the new sequence. Taken entries count as invalidations (republication counts
    /// as insertion), so the net cache churn stays visible in the stats.
    /// Bag artifacts are left alone: their labels fold the relation
    /// versions, so stale bags simply stop matching and age out via LRU.
    pub fn take_indexes_for(
        &self,
        db_tag: u64,
        relation: &str,
    ) -> Vec<(IndexKey, Arc<RelationIndex>)> {
        let taken = self.store.take(|k, _| {
            matches!(k, ArtifactKey::Index(k) if k.db_tag == db_tag && k.relation == relation)
        });
        taken
            .into_iter()
            .filter_map(|entry| match entry {
                (ArtifactKey::Index(key), Artifact::Index(idx)) => Some((key, idx)),
                _ => None,
            })
            .collect()
    }

    /// A snapshot of the counters.
    pub fn stats(&self) -> IndexCacheStats {
        let s = self.store.stats();
        IndexCacheStats {
            hits: s.hits,
            misses: s.misses,
            insertions: s.insertions,
            evictions: s.evictions,
            invalidations: s.invalidations,
            tuples_saved: self.tuples_saved.load(Ordering::Relaxed),
            coalesced_builds: s.coalesced_builds,
            resident_bytes: s.weight,
            capacity_bytes: s.capacity,
            len: s.len,
        }
    }
}

/// The scope a cache is consulted under: which cache, and which database
/// state keys its entries. Threaded from the service front door down
/// through the executor into the index round.
#[derive(Debug, Clone, Copy)]
pub struct IndexScope<'a> {
    /// The shared cache.
    pub cache: &'a IndexCache,
    /// Stable tag of the database being queried.
    pub db_tag: u64,
    /// The database's current statistics epoch.
    pub epoch: u64,
    /// Per-relation delta sequences (`(name, seq)` pairs) of the database
    /// state being queried. Relations absent from the slice are at sequence
    /// 0 — an empty slice is the never-mutated database.
    pub versions: &'a [(String, u64)],
}

impl<'a> IndexScope<'a> {
    /// The delta sequence of `relation` in this scope (0 if never mutated).
    pub fn delta_seq_for(&self, relation: &str) -> u64 {
        self.versions.iter().find(|(n, _)| n == relation).map_or(0, |&(_, s)| s)
    }

    /// FNV-1a digest of the delta sequences of the given relations — folded
    /// into bag labels (and plan-cache keys at the service layer) so an
    /// artifact derived from several relations goes stale exactly when one
    /// of *them* mutates, not when any unrelated relation does.
    pub fn version_digest<'s>(&self, relations: impl IntoIterator<Item = &'s str>) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut fold = |byte: u8| {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        for name in relations {
            for &b in name.as_bytes() {
                fold(b);
            }
            fold(0xff);
            for b in self.delta_seq_for(name).to_le_bytes() {
                fold(b);
            }
        }
        h
    }

    /// Builds an [`IndexKey`] in this scope, stamping the relation's current
    /// delta sequence.
    pub fn index_key(&self, relation: impl Into<String>, induced: Vec<Attr>) -> IndexKey {
        let relation = relation.into();
        let delta_seq = self.delta_seq_for(&relation);
        IndexKey { db_tag: self.db_tag, epoch: self.epoch, relation, induced, delta_seq }
    }

    /// Builds a [`BagKey`] in this scope.
    pub fn bag_key(&self, label: impl Into<String>) -> BagKey {
        BagKey { db_tag: self.db_tag, epoch: self.epoch, label: label.into() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adj_relational::Value;

    fn trie(n: u32) -> Arc<Trie> {
        let rows: Vec<(Value, Value)> = (0..n).map(|i| (i, i + 1)).collect();
        Arc::new(Trie::build(&Relation::from_pairs(Attr(0), Attr(1), &rows)))
    }

    fn index(n: u32) -> Artifact {
        Artifact::Index(Arc::new(RelationIndex::new(trie(n), n as u64)))
    }

    fn key(tag: u64, epoch: u64, name: &str) -> IndexKey {
        IndexKey {
            db_tag: tag,
            epoch,
            relation: name.into(),
            induced: vec![Attr(0), Attr(1)],
            delta_seq: 0,
        }
    }

    fn hit(cache: &IndexCache, key: ArtifactKey) -> Option<Artifact> {
        match cache.lookup(&key, &CancelToken::none()) {
            IndexLookup::Hit { value, .. } => Some(value),
            IndexLookup::Miss(_) => None,
        }
    }

    #[test]
    fn epoch_and_share_split_keys() {
        let cache = IndexCache::new(1 << 20);
        let k = key(1, 0, "R1");
        let IndexLookup::Miss(claim) =
            cache.lookup(&ArtifactKey::Index(k.clone()), &CancelToken::none())
        else {
            panic!("cold key must miss")
        };
        claim.publish(index(10));
        assert!(
            matches!(hit(&cache, ArtifactKey::Index(k.clone())), Some(Artifact::Index(idx)) if idx.tuples == 10)
        );
        for other in [
            IndexKey { epoch: 1, ..k.clone() },
            IndexKey { induced: vec![Attr(1), Attr(0)], ..k.clone() },
            IndexKey { delta_seq: 3, ..k.clone() },
        ] {
            assert!(
                hit(&cache, ArtifactKey::Index(other.clone())).is_none(),
                "{other:?} must not match"
            );
        }
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.tuples_saved), (1, 4, 10), "a hit credits its routing");
    }

    #[test]
    fn bags_share_the_budget_and_roundtrip() {
        let cache = IndexCache::new(1 << 20);
        let scope = IndexScope { cache: &cache, db_tag: 7, epoch: 3, versions: &[] };
        let rel = Arc::new(Relation::from_pairs(Attr(0), Attr(1), &[(1, 2), (3, 4)]));
        cache
            .store()
            .insert(ArtifactKey::Bag(scope.bag_key("adj:R4,R5")), Artifact::Bag(Arc::clone(&rel)));
        assert!(
            matches!(hit(&cache, ArtifactKey::Bag(scope.bag_key("adj:R4,R5"))), Some(Artifact::Bag(b)) if b == rel)
        );
        assert!(hit(&cache, ArtifactKey::Bag(BagKey { epoch: 4, ..scope.bag_key("adj:R4,R5") }))
            .is_none());
        assert!(cache.stats().resident_bytes >= rel.size_bytes());
    }

    #[test]
    fn bag_claims_roundtrip() {
        let cache = IndexCache::new(1 << 20);
        let bag = BagKey { db_tag: 7, epoch: 3, label: "adj:R4,R5@[1,2,4]".into() };
        let rel = Arc::new(Relation::from_pairs(Attr(0), Attr(1), &[(1, 2)]));
        match cache.lookup(&ArtifactKey::Bag(bag.clone()), &CancelToken::none()) {
            IndexLookup::Miss(claim) => claim.publish(Artifact::Bag(Arc::clone(&rel))),
            IndexLookup::Hit { .. } => panic!("a cold bag must hand out a claim"),
        };
        match cache.lookup(&ArtifactKey::Bag(bag), &CancelToken::none()) {
            IndexLookup::Hit { value: Artifact::Bag(b), coalesced } => {
                assert!(b == rel && !coalesced, "an uncontended hit is not coalesced");
            }
            _ => panic!("a published bag must hit"),
        };
    }

    #[test]
    fn republishing_a_resident_index_evicts_nothing() {
        // A and B fill the budget, A is touched, then A is republished at
        // the same size (a self-join's duplicate key, or a cancelled
        // waiter racing the claim holder). Only A's own bytes change hands.
        let bytes = RelationIndex::new(trie(50), 0).bytes;
        let cache = IndexCache::new(bytes * 2);
        cache.store().insert(ArtifactKey::Index(key(1, 0, "A")), index(50));
        cache.store().insert(ArtifactKey::Index(key(1, 0, "B")), index(50));
        assert!(hit(&cache, ArtifactKey::Index(key(1, 0, "A"))).is_some());
        cache.store().insert(ArtifactKey::Index(key(1, 0, "A")), index(50));
        let s = cache.stats();
        assert_eq!((s.len, s.evictions), (2, 0), "B must stay resident");
        assert!(hit(&cache, ArtifactKey::Index(key(1, 0, "B"))).is_some());
    }

    #[test]
    fn invalidate_is_scoped_to_one_database() {
        let cache = IndexCache::new(1 << 20);
        cache.store().insert(ArtifactKey::Index(key(100, 1, "R1")), index(5));
        let bag = BagKey { db_tag: 100, epoch: 1, label: "adj:x".into() };
        let rel = Relation::from_pairs(Attr(0), Attr(1), &[(1, 2)]);
        cache.store().insert(ArtifactKey::Bag(bag), Artifact::Bag(Arc::new(rel)));
        cache.store().insert(ArtifactKey::Index(key(100, 2, "R1")), index(5));
        assert_eq!(cache.store().forget(1), 2, "epoch 1's index and bag drop");
        assert!(
            hit(&cache, ArtifactKey::Index(key(100, 2, "R1"))).is_some(),
            "the later registration stays"
        );
        cache.store().check(|epoch| epoch == 2, true).unwrap();
    }

    #[test]
    fn take_indexes_for_harvests_one_relation() {
        let cache = IndexCache::new(1 << 20);
        cache.store().insert(ArtifactKey::Index(key(1, 0, "R1")), index(5));
        cache
            .store()
            .insert(ArtifactKey::Index(IndexKey { delta_seq: 1, ..key(1, 0, "R1") }), index(6));
        cache.store().insert(ArtifactKey::Index(key(1, 0, "R2")), index(7));
        cache.store().insert(ArtifactKey::Index(key(2, 0, "R1")), index(8));
        let taken = cache.take_indexes_for(1, "R1");
        assert_eq!(taken.len(), 2, "both sequences of db 1's R1 come out");
        assert_eq!(cache.stats().len, 2, "other relation and other db stay");
        assert!(hit(&cache, ArtifactKey::Index(key(1, 0, "R2"))).is_some());
        assert!(hit(&cache, ArtifactKey::Index(key(2, 0, "R1"))).is_some());
        let s = cache.stats();
        assert_eq!(s.invalidations, 2);
        assert!(s.resident_bytes > 0, "freed bytes must be subtracted, not leaked");
        cache.store().check(|_| true, true).unwrap();
    }

    #[test]
    fn cancelled_waiter_stops_blocking() {
        let cache = IndexCache::new(1 << 20);
        let IndexLookup::Miss(_claim) =
            cache.lookup(&ArtifactKey::Index(key(1, 0, "R1")), &CancelToken::none())
        else {
            panic!("cold key must miss")
        };
        let cancel = CancelToken::manual();
        cancel.cancel();
        // The build never finishes, but the cancelled waiter returns
        // promptly with a plain claim instead of hanging.
        match cache.lookup(&ArtifactKey::Index(key(1, 0, "R1")), &cancel) {
            IndexLookup::Miss(claim) => assert!(!claim.is_exclusive()),
            IndexLookup::Hit { .. } => panic!("a cancelled wait must give up coalescing"),
        };
    }

    #[test]
    fn poisoned_lock_recovers_by_clearing_not_wedging() {
        // A query that panics while holding the store's lock must not
        // wedge every later query: recovery drops the suspect contents.
        let cache = IndexCache::new(1 << 20);
        cache.store().insert(ArtifactKey::Index(key(1, 0, "R1")), index(5));
        let died = std::panic::catch_unwind(|| cache.store().take(|_, _| panic!("a query died")));
        assert!(died.is_err());
        assert!(
            hit(&cache, ArtifactKey::Index(key(1, 0, "R1"))).is_none(),
            "suspect contents dropped"
        );
        cache.store().insert(ArtifactKey::Index(key(1, 0, "R2")), index(5));
        assert!(
            hit(&cache, ArtifactKey::Index(key(1, 0, "R2"))).is_some(),
            "the cache keeps serving"
        );
        assert_eq!(cache.stats().invalidations, 1, "dropped entries count as invalidations");
    }

    #[test]
    fn scope_versions_stamp_keys_and_digests() {
        let cache = IndexCache::new(1 << 20);
        let versions = vec![("R1".to_string(), 4u64)];
        let scope = IndexScope { cache: &cache, db_tag: 7, epoch: 3, versions: &versions };
        assert_eq!(scope.delta_seq_for("R1"), 4);
        assert_eq!(scope.delta_seq_for("R2"), 0, "unmutated relations sit at 0");
        let k = scope.index_key("R1", vec![Attr(0)]);
        assert_eq!(k.delta_seq, 4);
        assert_eq!(scope.index_key("R2", vec![Attr(0)]).delta_seq, 0);
        let d1 = scope.version_digest(["R1", "R2"]);
        assert_ne!(d1, scope.version_digest(["R2"]), "member set changes the digest");
        let fresh = IndexScope { cache: &cache, db_tag: 7, epoch: 3, versions: &[] };
        assert_ne!(d1, fresh.version_digest(["R1", "R2"]), "sequence changes the digest");
        assert_eq!(
            scope.version_digest(["R2"]),
            fresh.version_digest(["R2"]),
            "digest over unmutated relations is stable"
        );
    }
}
