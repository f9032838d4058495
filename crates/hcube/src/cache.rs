//! The cross-query index cache: built tries as reusable artifacts.
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
//! Only database relations are cached. A plan's pre-computed bags are
//! per-query relations: each execution computes them again, and the round
//! over them indexes them without a key.
//!
//! Two layers read the cache and one writes it. The planner's sampler
//! reads its tries with a plain [`Cache::get_if`] under
//! [`IndexScope::index_key`] — no build claim — and builds what misses;
//! the round ([`index_round`](crate::index_round)) looks its keys up with
//! a claim and publishes every trie it misses, whether it built the trie
//! or took it over from the planner. So the cache holds exactly the tries
//! rounds index; a sampling-only level order is never published.
//!
//! Keys fold in a database tag and its statistics epoch: re-registering a
//! database bumps the epoch, so stale entries stop matching (and the
//! store's `forget(epoch)` drops them eagerly). The store is the one
//! generic [`Cache`], weighing each trie in resident bytes: eviction is
//! least-recently-used over *bytes*, not entries, because the whole point
//! of the budget is to charge index memory against the cluster's
//! `memory_limit_bytes`.

use adj_faults::CancelToken;
use adj_relational::cache::{Cache, Claim, Lookup};
use adj_relational::hash::FxHasher;
use adj_relational::{Attr, Trie};
use std::hash::BuildHasherDefault;
use std::sync::Arc;

/// Identity of one cached relation index: the relation, the induced
/// attribute order its trie levels follow, and the database state it was
/// built against. Neither the cluster's width nor a plan's share enters the
/// key — every worker reads the one trie — and no part of a query's binding
/// does either, so every binding of a prepared statement, a batch of them
/// and the unbound query of the same shape, at any width, resolve to the
/// same entries.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct IndexKey {
    /// Stable tag of the owning database (hash of its name).
    pub db_tag: u64,
    /// The database's statistics epoch at build time.
    pub epoch: u64,
    /// The relation's name in the database.
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

/// The index cache's store: tries weighed in resident bytes and tagged
/// with the database registration (epoch) they were built against.
pub type IndexStore = Cache<IndexKey, Arc<Trie>, BuildHasherDefault<FxHasher>>;

/// What [`IndexCache::lookup`] found.
pub type IndexLookup<'a> = Lookup<'a, IndexKey, Arc<Trie>, BuildHasherDefault<FxHasher>>;

/// The build claim an [`IndexCache::lookup`] miss hands back. A query may
/// hold several claims at once only when it acquired them in sorted key
/// order; see [`index_round`](crate::index_round).
pub type IndexClaim<'a> = Claim<'a, IndexKey, Arc<Trie>, BuildHasherDefault<FxHasher>>;

/// Counters describing index-cache behaviour since service start: the
/// store's [`CacheStats`](adj_relational::cache::CacheStats), in bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexCacheStats {
    /// Lookups that found a reusable trie.
    pub hits: u64,
    /// Lookups that required a fresh build.
    pub misses: u64,
    /// Tries published.
    pub insertions: u64,
    /// Tries evicted to make room.
    pub evictions: u64,
    /// Tries dropped by invalidation, harvest or poison recovery.
    pub invalidations: u64,
    /// Redundant builds avoided by request coalescing: lookups that missed
    /// while an equal key was already being built, blocked on that build,
    /// and reused its published trie.
    pub coalesced_builds: u64,
    /// Current resident bytes across all cached tries.
    pub resident_bytes: usize,
    /// The byte budget eviction enforces.
    pub capacity_bytes: usize,
    /// Current number of cached tries.
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

/// A thread-safe, byte-budgeted LRU cache of relation tries.
#[derive(Debug)]
pub struct IndexCache {
    store: IndexStore,
}

impl IndexCache {
    /// Creates a cache holding at most `capacity_bytes` of tries (0
    /// disables it: every lookup misses, every publish is dropped).
    pub fn new(capacity_bytes: usize) -> Self {
        let epoch = |k: &IndexKey, _: &Arc<Trie>| k.epoch;
        IndexCache { store: Cache::new(capacity_bytes, |t| t.size_bytes(), epoch) }
    }

    /// The underlying store, for what is not index-specific: publishing
    /// without a claim (patching), `forget`, `check` and the like.
    pub fn store(&self) -> &IndexStore {
        &self.store
    }

    /// The trie under `key`, or a claim to build it (see
    /// [`Cache::lookup`]); a wait on a concurrent build gives up when
    /// `cancel` fires.
    pub fn lookup(&self, key: &IndexKey, cancel: &CancelToken) -> IndexLookup<'_> {
        self.store.lookup(key, || cancel.check().is_ok())
    }

    /// Removes and returns every entry for `relation` in database
    /// `db_tag`, regardless of epoch or delta sequence — the harvest step
    /// of warm-cache patching: the caller merges the delta into each taken
    /// entry and republishes it under the new sequence. Taken entries count
    /// as invalidations (republication counts as insertion), so the net
    /// cache churn stays visible in the stats.
    pub fn take_indexes_for(&self, db_tag: u64, relation: &str) -> Vec<(IndexKey, Arc<Trie>)> {
        self.store.take(|k, _| k.db_tag == db_tag && k.relation == relation)
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

    /// Builds an [`IndexKey`] in this scope, stamping the relation's current
    /// delta sequence.
    pub fn index_key(&self, relation: impl Into<String>, induced: Vec<Attr>) -> IndexKey {
        let relation = relation.into();
        let delta_seq = self.delta_seq_for(&relation);
        IndexKey { db_tag: self.db_tag, epoch: self.epoch, relation, induced, delta_seq }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adj_relational::{Relation, Value};

    fn trie(n: u32) -> Arc<Trie> {
        let rows: Vec<(Value, Value)> = (0..n).map(|i| (i, i + 1)).collect();
        Arc::new(Trie::build(&Relation::from_pairs(Attr(0), Attr(1), &rows)))
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

    fn hit(cache: &IndexCache, key: IndexKey) -> Option<Arc<Trie>> {
        match cache.lookup(&key, &CancelToken::none()) {
            IndexLookup::Hit { value, .. } => Some(value),
            IndexLookup::Miss(_) => None,
        }
    }

    #[test]
    fn epoch_and_share_split_keys() {
        let cache = IndexCache::new(1 << 20);
        let k = key(1, 0, "R1");
        let IndexLookup::Miss(claim) = cache.lookup(&k, &CancelToken::none()) else {
            panic!("cold key must miss")
        };
        let published = trie(10);
        claim.publish(Arc::clone(&published));
        assert!(hit(&cache, k.clone()).is_some_and(|t| Arc::ptr_eq(&t, &published)));
        for other in [
            IndexKey { epoch: 1, ..k.clone() },
            IndexKey { induced: vec![Attr(1), Attr(0)], ..k.clone() },
            IndexKey { delta_seq: 3, ..k.clone() },
        ] {
            assert!(hit(&cache, other.clone()).is_none(), "{other:?} must not match");
        }
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 4));
        assert_eq!(s.resident_bytes, published.size_bytes(), "a trie weighs its resident bytes");
    }

    #[test]
    fn republishing_a_resident_index_evicts_nothing() {
        // A and B fill the budget, A is touched, then A is republished at
        // the same size (a self-join's duplicate key, or a cancelled
        // waiter racing the claim holder). Only A's own bytes change hands.
        let cache = IndexCache::new(trie(50).size_bytes() * 2);
        cache.store().insert(key(1, 0, "A"), trie(50));
        cache.store().insert(key(1, 0, "B"), trie(50));
        assert!(hit(&cache, key(1, 0, "A")).is_some());
        cache.store().insert(key(1, 0, "A"), trie(50));
        let s = cache.stats();
        assert_eq!((s.len, s.evictions), (2, 0), "B must stay resident");
        assert!(hit(&cache, key(1, 0, "B")).is_some());
    }

    #[test]
    fn invalidate_is_scoped_to_one_database() {
        let cache = IndexCache::new(1 << 20);
        cache.store().insert(key(100, 1, "R1"), trie(5));
        cache.store().insert(key(100, 2, "R1"), trie(5));
        assert_eq!(cache.store().forget(1), 1, "epoch 1's index drops");
        assert!(hit(&cache, key(100, 2, "R1")).is_some(), "the later registration stays");
        cache.store().check(|epoch| epoch == 2, true).unwrap();
    }

    #[test]
    fn take_indexes_for_harvests_one_relation() {
        let cache = IndexCache::new(1 << 20);
        cache.store().insert(key(1, 0, "R1"), trie(5));
        cache.store().insert(IndexKey { delta_seq: 1, ..key(1, 0, "R1") }, trie(6));
        cache.store().insert(key(1, 0, "R2"), trie(7));
        cache.store().insert(key(2, 0, "R1"), trie(8));
        let taken = cache.take_indexes_for(1, "R1");
        assert_eq!(taken.len(), 2, "both sequences of db 1's R1 come out");
        assert_eq!(cache.stats().len, 2, "other relation and other db stay");
        assert!(hit(&cache, key(1, 0, "R2")).is_some());
        assert!(hit(&cache, key(2, 0, "R1")).is_some());
        let s = cache.stats();
        assert_eq!(s.invalidations, 2);
        assert!(s.resident_bytes > 0, "freed bytes must be subtracted, not leaked");
        cache.store().check(|_| true, true).unwrap();
    }

    #[test]
    fn cancelled_waiter_stops_blocking() {
        let cache = IndexCache::new(1 << 20);
        let IndexLookup::Miss(_claim) = cache.lookup(&key(1, 0, "R1"), &CancelToken::none()) else {
            panic!("cold key must miss")
        };
        let cancel = CancelToken::manual();
        cancel.cancel();
        // The build never finishes, but the cancelled waiter returns
        // promptly with a plain claim instead of hanging.
        match cache.lookup(&key(1, 0, "R1"), &cancel) {
            IndexLookup::Miss(claim) => assert!(!claim.is_exclusive()),
            IndexLookup::Hit { .. } => panic!("a cancelled wait must give up coalescing"),
        };
    }

    #[test]
    fn poisoned_lock_recovers_by_clearing_not_wedging() {
        // A query that panics while holding the store's lock must not
        // wedge every later query: recovery drops the suspect contents.
        let cache = IndexCache::new(1 << 20);
        cache.store().insert(key(1, 0, "R1"), trie(5));
        let died = std::panic::catch_unwind(|| cache.store().take(|_, _| panic!("a query died")));
        assert!(died.is_err());
        assert!(hit(&cache, key(1, 0, "R1")).is_none(), "suspect contents dropped");
        cache.store().insert(key(1, 0, "R2"), trie(5));
        assert!(hit(&cache, key(1, 0, "R2")).is_some(), "the cache keeps serving");
        assert_eq!(cache.stats().invalidations, 1, "dropped entries count as invalidations");
    }

    #[test]
    fn scope_versions_stamp_keys() {
        let cache = IndexCache::new(1 << 20);
        let versions = vec![("R1".to_string(), 4u64)];
        let scope = IndexScope { cache: &cache, db_tag: 7, epoch: 3, versions: &versions };
        assert_eq!(scope.delta_seq_for("R1"), 4);
        assert_eq!(scope.delta_seq_for("R2"), 0, "unmutated relations sit at 0");
        let k = scope.index_key("R1", vec![Attr(0)]);
        assert_eq!(k.delta_seq, 4);
        assert_eq!(scope.index_key("R2", vec![Attr(0)]).delta_seq, 0);
    }
}
